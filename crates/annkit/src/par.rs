//! Index-ordered fan-out of independent work items over scoped threads.
//!
//! The offline phase has loops whose items do not depend on each other — the
//! `m` PQ sub-quantizers (each with its own seed), the assign + encode of
//! every added vector, and (in `upanns`) the placement of each snapshot of an
//! installed timeline and the mining of each of its distinct lists. The
//! online phase has one: a kernel launch, one item per busy DPU
//! (`pim_sim::host`). [`map_mut`] runs such a loop on several threads and
//! hands the results back **in index order**, so what is built from them
//! (codebooks, inverted lists, launch reports) is byte-identical to the
//! serial loop's whatever the worker count or the interleaving was.

use std::sync::{Mutex, OnceLock, PoisonError};

/// The machine's cores: `available_parallelism()` (which honours CPU
/// affinity), read once per process — on Linux each call parses cgroup
/// files, which costs about as much as spawning a thread.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// `(0..items).map(f).collect()`, on [`cores`] workers (see [`map_mut`]).
pub fn map_indexed<T: Send>(items: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    map_mut(&mut vec![(); items], workers(), |i, ()| f(i))
}

/// `items.iter_mut().enumerate().map(|(i, item)| f(i, item)).collect()`,
/// with `f` called from up to `workers` threads: the calling thread and
/// `workers − 1` scoped helpers (never more threads than items; the calling
/// thread alone when that is one). A panic in `f` on any thread resurfaces
/// on the caller with its own payload.
pub fn map_mut<I: Send, T: Send>(
    items: &mut [I],
    workers: usize,
    f: impl Fn(usize, &mut I) -> T + Sync,
) -> Vec<T> {
    let len = items.len();
    let workers = workers.min(len);
    if workers <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    // Items are claimed one at a time, so an item that runs long does not
    // leave the other workers idle. The lock is held only to take the next
    // item, never while `f` runs, so a panicking item cannot poison it.
    // Results travel back through each worker's own list.
    let queue = Mutex::new(items.iter_mut().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else {
                return done;
            };
            done.push((i, f(i, item)));
        }
    };
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut finished = vec![work()];
        for helper in helpers {
            match helper.join() {
                Ok(done) => finished.push(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        for (i, value) in finished.into_iter().flatten() {
            slots[i] = Some(value);
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item was claimed by one worker"))
        .collect()
}

fn workers() -> usize {
    #[cfg(test)]
    if let Some(forced) = tests::FORCED_WORKERS.get() {
        return forced;
    }
    cores()
}

/// Runs `f` with [`map_indexed`] using exactly `workers` threads for calls
/// made from this thread — how the unit tests compare one worker with many
/// on any machine.
#[cfg(test)]
pub(crate) fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    let previous = tests::FORCED_WORKERS.replace(Some(workers));
    let out = f();
    tests::FORCED_WORKERS.set(previous);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        pub(super) static FORCED_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
    }

    #[test]
    fn results_come_back_in_index_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8] {
            for items in [0usize, 1, 2, 7, 40] {
                let got = with_workers(workers, || map_indexed(items, |i| i * i));
                assert_eq!(got, (0..items).map(|i| i * i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn every_item_is_mutated_once_and_answered_in_order() {
        for workers in [1, 2, 3, 8] {
            // Every item waits until each worker holds one, so each worker
            // runs exactly one item of every round of `workers` and no
            // worker's items are a contiguous run of indices.
            let rounds = std::sync::Barrier::new(workers);
            let len = 5 * workers;
            let mut items: Vec<u64> = (0..len as u64).collect();
            let got = map_mut(&mut items, workers, |i, item| {
                rounds.wait();
                *item += 100;
                (i, *item)
            });
            assert_eq!(
                got,
                (0..len).map(|i| (i, i as u64 + 100)).collect::<Vec<_>>()
            );
            assert_eq!(items, (100..100 + len as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "item 3")]
    fn a_panicking_item_panics_the_caller() {
        with_workers(2, || {
            map_indexed(6, |i| {
                assert_ne!(i, 3, "item 3");
                i
            })
        });
    }
}
