//! Index-ordered fan-out of independent work items over scoped threads.
//!
//! The offline phase has loops whose items do not depend on each other — the
//! `m` PQ sub-quantizers (each with its own seed), the assign + encode of
//! every added vector, and (in `upanns`) one epoch state per snapshot of an
//! installed timeline. [`map_indexed`] runs such a loop on the machine's
//! cores and hands the results back **in index order**, so what is built
//! from them (codebooks, inverted lists) is byte-identical to the serial
//! loop's whatever the worker count or the interleaving was.

use std::sync::atomic::{AtomicUsize, Ordering};

/// `(0..items).map(f).collect()`, with `f` called from up to
/// `available_parallelism()` scoped threads (never more than `items`; the
/// calling thread alone when that is one).
pub fn map_indexed<T: Send>(items: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = workers().min(items);
    if workers <= 1 {
        return (0..items).map(f).collect();
    }
    // Items are claimed one at a time, so a sub-quantizer that converges
    // early does not leave its worker idle. The counter only hands out
    // indices (no data is published through it); results travel through
    // `join`.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..items).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items {
                            return done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (i, value) in done {
                        slots[i] = Some(value);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index below `items` was claimed by one worker"))
        .collect()
}

fn workers() -> usize {
    #[cfg(test)]
    if let Some(forced) = tests::FORCED_WORKERS.get() {
        return forced;
    }
    std::thread::available_parallelism().map_or(1, |p| p.get())
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
