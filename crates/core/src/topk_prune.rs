//! Opt4: pruned merge of thread-local top-k heaps (Figure 9).
//!
//! After the distance-calculation barrier, each tasklet holds a max-heap with
//! its local top-k. Merging them naively inserts every element into the
//! DPU-global heap. UpANNS instead converts each local max-heap into an
//! ascending sequence (a min-heap popped in order) and stops as soon as the
//! local minimum can no longer beat the global k-th best — the remaining
//! elements of that tasklet are pruned without any comparison. The paper
//! reports 68 % of comparisons skipped and a 3.1× faster top-k stage.

use annkit::topk::{Neighbor, TopK};

/// Counters describing one merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Candidates examined (offered to the global heap or compared against
    /// the threshold).
    pub comparisons: u64,
    /// Candidates actually inserted into the global heap.
    pub insertions: u64,
    /// Candidates skipped by early termination.
    pub pruned: u64,
    /// Semaphore acquisitions (one per tasklet that contributes at least one
    /// element).
    pub semaphore_ops: u64,
}

impl std::ops::AddAssign for MergeStats {
    fn add_assign(&mut self, other: Self) {
        self.comparisons += other.comparisons;
        self.insertions += other.insertions;
        self.pruned += other.pruned;
        self.semaphore_ops += other.semaphore_ops;
    }
}

/// Merges thread-local heaps into a global top-k.
///
/// With `prune = false` this is the naive merge (every local element is
/// offered to the global heap). With `prune = true` the early-termination
/// strategy of §4.4 is applied. Both produce exactly the same global top-k;
/// only the number of comparisons differs.
pub fn merge_thread_local(locals: &[TopK], k: usize, prune: bool) -> (TopK, MergeStats) {
    let mut global = TopK::new(k);
    let mut stats = MergeStats::default();
    let mut ascending: Vec<Neighbor> = Vec::with_capacity(k);

    for local in locals {
        if local.is_empty() {
            continue;
        }
        stats.semaphore_ops += 1;
        // Convert the local max-heap into ascending order — the min-heap view
        // of Figure 9.
        ascending.clear();
        ascending.extend_from_slice(local.as_heap_slice());
        ascending.sort_by(Neighbor::cmp);
        for (i, n) in ascending.iter().enumerate() {
            if prune && global.len() == k && n.distance >= global.threshold() {
                // Everything further in this tasklet's heap is at least as
                // far; prune it without comparisons.
                stats.pruned += (ascending.len() - i) as u64;
                break;
            }
            stats.comparisons += 1;
            if global.push(n.id, n.distance) {
                stats.insertions += 1;
            }
        }
    }
    (global, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds `t` thread-local heaps of capacity `k` over a deterministic
    /// stream of candidates, mimicking a strided scan.
    fn make_locals(t: usize, k: usize, candidates: usize) -> Vec<TopK> {
        let mut locals = vec![TopK::new(k); t];
        for i in 0..candidates {
            let d = ((i * 2654435761) % 100_000) as f32 / 100.0;
            locals[i % t].push(i as u64, d);
        }
        locals
    }

    #[test]
    fn pruned_and_naive_merges_agree() {
        for t in [1, 4, 8, 16] {
            let locals = make_locals(t, 10, 5_000);
            let pruned = merge_thread_local(&locals, 10, true).0.into_sorted();
            let naive = merge_thread_local(&locals, 10, false).0.into_sorted();
            assert_eq!(pruned.len(), naive.len());
            for (a, b) in pruned.iter().zip(&naive) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.distance, b.distance);
            }
        }
    }

    #[test]
    fn pruning_skips_a_large_fraction_of_comparisons() {
        let locals = make_locals(16, 64, 20_000);
        let (_, pruned_stats) = merge_thread_local(&locals, 64, true);
        let (_, naive_stats) = merge_thread_local(&locals, 64, false);
        assert_eq!(naive_stats.pruned, 0);
        assert!(pruned_stats.pruned > 0);
        assert!(
            pruned_stats.comparisons < naive_stats.comparisons,
            "pruned {} vs naive {}",
            pruned_stats.comparisons,
            naive_stats.comparisons
        );
        // The paper reports ~68 % of comparisons skipped; with 16 tasklets of
        // 64 candidates each we should prune a substantial share.
        let fraction =
            pruned_stats.pruned as f64 / (pruned_stats.comparisons + pruned_stats.pruned) as f64;
        assert!(fraction > 0.4, "pruned fraction {fraction}");
    }

    #[test]
    fn merge_of_disjoint_ranges_prunes_everything_but_the_best_heap() {
        // Tasklet 0 holds distances 0..10, tasklet 1 holds 100..110 — the
        // second heap's first element already fails the threshold.
        let mut a = TopK::new(10);
        let mut b = TopK::new(10);
        for i in 0..10u64 {
            a.push(i, i as f32);
            b.push(100 + i, 100.0 + i as f32);
        }
        let (global, stats) = merge_thread_local(&[a, b], 10, true);
        let ids: Vec<u64> = global.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<u64>>());
        assert_eq!(stats.pruned, 10);
        assert_eq!(stats.semaphore_ops, 2);
    }

    #[test]
    fn handles_empty_and_underfull_heaps() {
        let empty = TopK::new(5);
        let mut partial = TopK::new(5);
        partial.push(3, 1.0);
        let (global, stats) = merge_thread_local(&[empty, partial], 5, true);
        let sorted = global.into_sorted();
        assert_eq!(sorted.len(), 1);
        assert_eq!(sorted[0].id, 3);
        assert_eq!(stats.semaphore_ops, 1);
        assert_eq!(stats.pruned, 0);
    }

    #[test]
    fn stats_fraction_is_zero_when_nothing_to_merge() {
        let (global, stats) = merge_thread_local(&[], 5, true);
        assert!(global.is_empty());
        assert_eq!(stats, MergeStats::default());
    }
}
