//! Index-ordered fan-out of independent work items over scoped threads.
//!
//! The offline phase has loops whose items do not depend on each other — the
//! `m` PQ sub-quantizers (each with its own seed), the coarse quantizer's
//! Lloyd assignment and residual assignment of every training vector, the
//! assign + encode of every added vector, and (in `upanns`) the placement of
//! each snapshot of an installed timeline and the mining of each of its
//! distinct lists. The online phase has one: a kernel launch, one item per
//! busy DPU (`pim_sim::host`). [`map_mut`] runs such a loop on several
//! threads and hands the results back **in index order**, so what is built
//! from them (codebooks, inverted lists, launch reports) is byte-identical to
//! the serial loop's whatever the worker count or the interleaving was.
//!
//! Maps do not nest: a map called while this thread runs an item of a
//! fanned-out map runs serially on this thread. So the k-means of each PQ
//! sub-quantizer, already one per worker, keeps its Lloyd step on that
//! worker, and one training run holds at most [`cores`] threads.

use std::cell::Cell;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Rows per work item of [`map_rows`]: enough that a worker thread pays for
/// itself, and a single-digit ingest stays on the calling thread.
const ROWS_PER_ITEM: usize = 256;

thread_local! {
    /// Whether this thread is running an item of a fanned-out map.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks this thread as a worker until dropped, then restores the mark it
/// found (the calling thread of a map is a worker only while it runs items).
struct WorkerMark(bool);

impl WorkerMark {
    fn enter() -> Self {
        Self(IN_WORKER.replace(true))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.set(self.0);
    }
}

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

/// `(0..rows).map(|row| f(&mut scratch, row)).collect()`, in blocks of
/// `ROWS_PER_ITEM` rows over [`map_indexed`], each block with a fresh
/// `scratch()`: per-row work over a table (assignment, encode), with one
/// distance buffer per block rather than per row.
pub(crate) fn map_rows<S, T: Send>(
    rows: usize,
    scratch: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    map_indexed(rows.div_ceil(ROWS_PER_ITEM), |b| {
        let mut scratch = scratch();
        (b * ROWS_PER_ITEM..rows.min((b + 1) * ROWS_PER_ITEM))
            .map(|row| f(&mut scratch, row))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// `items.iter_mut().enumerate().map(|(i, item)| f(i, item)).collect()`,
/// with `f` called from up to `workers` threads: the calling thread and
/// `workers − 1` scoped helpers (never more threads than items; the calling
/// thread alone when that is one, or when it is running an item of a
/// fanned-out map already). A panic in `f` on any thread resurfaces on the
/// caller with its own payload.
pub fn map_mut<I: Send, T: Send>(
    items: &mut [I],
    workers: usize,
    f: impl Fn(usize, &mut I) -> T + Sync,
) -> Vec<T> {
    let len = items.len();
    let workers = if IN_WORKER.get() { 1 } else { workers.min(len) };
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
        let _worker = WorkerMark::enter();
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
    fn a_nested_map_starts_no_thread_and_returns_the_serial_result() {
        let thread = || std::thread::current().id();
        // Four workers for every map this thread starts, the nested ones
        // included: only the nesting rule keeps those on one thread. Each
        // worker holds one item of every round of four, so this thread runs
        // two of the eight.
        let rounds = std::sync::Barrier::new(4);
        let outer = with_workers(4, || {
            map_indexed(8, |i| {
                rounds.wait();
                let here = thread();
                // Items long enough that fanned-out helpers would claim
                // some.
                let inner = map_indexed(9, |j| {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    (i * j, thread())
                });
                assert!(inner.iter().all(|&(_, t)| t == here), "item {i}");
                inner.into_iter().map(|(x, _)| x).collect::<Vec<_>>()
            })
        });
        let serial: Vec<Vec<usize>> = (0..8).map(|i| (0..9).map(|j| i * j).collect()).collect();
        assert_eq!(outer, serial);
        // The mark ends with the map, so the caller fans out again.
        assert!(!IN_WORKER.get());
    }

    #[test]
    fn map_rows_is_the_row_loop_in_order() {
        for workers in [1, 2, 3] {
            for rows in [0usize, 1, 255, 256, 257, 1000] {
                let got = with_workers(workers, || {
                    map_rows(
                        rows,
                        || 0usize,
                        |seen, row| {
                            *seen += 1;
                            (row, *seen)
                        },
                    )
                });
                // Each block's scratch is fresh: the count restarts per block.
                let want: Vec<_> = (0..rows)
                    .map(|row| (row, row % ROWS_PER_ITEM + 1))
                    .collect();
                assert_eq!(got, want, "{workers} worker(s), {rows} rows");
            }
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
