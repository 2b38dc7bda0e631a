//! Opt4: pruned merge of thread-local top-k heaps (Figure 9).
//!
//! After the distance-calculation barrier, each tasklet holds a max-heap with
//! its local top-k. Merging them naively inserts every element into the
//! DPU-global heap. UpANNS instead converts each local max-heap into an
//! ascending sequence (a min-heap popped in order) and stops as soon as the
//! local minimum can no longer beat the global k-th best — the remaining
//! elements of that tasklet are pruned without any comparison. The paper
//! reports 68 % of comparisons skipped and a 3.1× faster top-k stage.
//!
//! [`merge_thread_local`] is that merge as the figure draws it, over every
//! tasklet's heap at once, and the reference. The functional kernel runs
//! `RangeMerge` instead: it merges each tasklet's range into the DPU heap
//! as soon as the range is scanned and reproduces the reference's heap and
//! [`MergeStats`] range by range, without building the heaps a full DPU heap
//! would prune.

use annkit::simd::Backend;
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

/// [`merge_thread_local`] taken one tasklet range at a time: each range's
/// distances are merged into the DPU heap as soon as they are scanned, and
/// after the last range the heap and the [`MergeStats`] equal, bit for bit,
/// what the reference gives for the ranges' own top-k heaps.
///
/// A range's heap would hold its `min(k, len)` best candidates, and the
/// pruned merge offers them in ascending order until one reaches the DPU
/// heap's threshold, which only falls. So when pruning is on, the DPU heap
/// is full with a threshold `T` that is not NaN and the range holds no NaN,
/// the candidates it offers are a prefix of its candidates below `T`,
/// sorted, at most `k` of them; the rest of the `min(k, len)` count as
/// pruned. A range no longer than the DPU heap's free slots is all
/// inserted, so it is sorted and pushed without building its heap. In every
/// other case (a longer first range, the naive merge, a NaN) the range's
/// heap is built and merged as the reference does.
#[derive(Debug)]
pub(crate) struct RangeMerge {
    /// The DPU heap, holding what the ranges merged so far offered.
    global: TopK,
    stats: MergeStats,
    prune: bool,
    /// One range's heap, for the ranges that build it.
    local: TopK,
    /// The candidates a range offers, ascending; then the sorted result.
    ascending: Vec<Neighbor>,
}

impl RangeMerge {
    /// An empty merge into a DPU heap of `k`, pruned.
    pub(crate) fn new(k: usize) -> Self {
        Self {
            global: TopK::new(k),
            stats: MergeStats::default(),
            prune: true,
            local: TopK::new(k),
            ascending: Vec::with_capacity(k),
        }
    }

    /// The DPU heap's `k`.
    pub(crate) fn k(&self) -> usize {
        self.global.k()
    }

    /// Empties the DPU heap and the counts for the next assignment, whose
    /// merge prunes iff `prune`.
    pub(crate) fn begin(&mut self, prune: bool) {
        self.global.clear();
        self.stats = MergeStats::default();
        self.prune = prune;
    }

    /// Merges one tasklet range: the candidates `base`, `base + 1`, … at
    /// `distances`, pushed on `backend` where the range's heap is built.
    pub(crate) fn merge_range(&mut self, backend: Backend, base: u64, distances: &[f32]) {
        if distances.is_empty() {
            return;
        }
        self.stats.semaphore_ops += 1;
        let k = self.global.k();
        self.ascending.clear();
        if distances.len() <= k - self.global.len() {
            // The range's heap would hold all of it and the DPU heap has a
            // free slot for each: every candidate is compared and inserted,
            // in the ascending order the reference offers them.
            self.ascending
                .extend((base..).zip(distances).map(|(id, &d)| Neighbor::new(id, d)));
            self.ascending.sort_unstable_by(Neighbor::cmp);
            for n in &self.ascending {
                self.global.push(n.id, n.distance);
            }
            self.stats.comparisons += distances.len() as u64;
            self.stats.insertions += distances.len() as u64;
            return;
        }
        let held = distances.len().min(k);
        let threshold = self.global.threshold();
        let cut = self.prune && self.global.len() == k && !threshold.is_nan() && {
            // Below the threshold, and every NaN, so one pass also finds them.
            self.ascending.extend(
                (base..)
                    .zip(distances)
                    .filter(|&(_, &d)| d < threshold || d.is_nan())
                    .map(|(id, &d)| Neighbor::new(id, d)),
            );
            !self.ascending.iter().any(|n| n.distance.is_nan())
        };
        if cut {
            // Ids are distinct, so no two candidates compare equal.
            self.ascending.sort_unstable_by(Neighbor::cmp);
            self.ascending.truncate(k);
        } else {
            self.local.clear();
            self.local.push_batch_with(backend, base, distances);
            self.ascending.clear();
            self.ascending.extend_from_slice(self.local.as_heap_slice());
            self.ascending.sort_by(Neighbor::cmp);
        }
        for (i, n) in self.ascending.iter().enumerate() {
            if self.prune && self.global.len() == k && n.distance >= self.global.threshold() {
                self.stats.pruned += (held - i) as u64;
                return;
            }
            self.stats.comparisons += 1;
            if self.global.push(n.id, n.distance) {
                self.stats.insertions += 1;
            }
        }
        self.stats.pruned += (held - self.ascending.len()) as u64;
    }

    /// The counts of the ranges merged since [`begin`](Self::begin).
    pub(crate) fn stats(&self) -> MergeStats {
        self.stats
    }

    /// The DPU heap's contents, closest first.
    pub(crate) fn sorted(&mut self) -> &[Neighbor] {
        self.ascending.clear();
        self.ascending
            .extend_from_slice(self.global.as_heap_slice());
        self.ascending.sort_by(Neighbor::cmp);
        &self.ascending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// `raw` as distances: `levels` distinct values (one level is all
    /// ties), a NaN where `raw % 50 < nans`, and `-0.0` beside `0.0`.
    fn distances_of(raw: &[u32], levels: u32, nans: u32) -> Vec<f32> {
        raw.iter()
            .map(|&r| match r % levels {
                _ if r % 50 < nans => f32::NAN,
                0 if r % 2 == 1 => -0.0,
                level => level as f32 * 0.5,
            })
            .collect()
    }

    /// Tasklet `t`'s range of `n` candidates, the kernel's split: the
    /// `t`-th run of `⌈n / tasklets⌉`, empty past the end.
    fn range(t: usize, tasklets: usize, n: usize) -> std::ops::Range<usize> {
        let per = n.div_ceil(tasklets);
        (t * per).min(n)..((t + 1) * per).min(n)
    }

    /// The same neighbors in the same slots, distances as bits.
    fn assert_same_bits(got: &[Neighbor], want: &[Neighbor]) {
        let bits = |ns: &[Neighbor]| -> Vec<(u64, u32)> {
            ns.iter().map(|n| (n.id, n.distance.to_bits())).collect()
        };
        assert_eq!(bits(got), bits(want));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Range by range, the merge leaves the DPU heap and the counts
        /// that per-tasklet heaps and `merge_thread_local` give, bit for
        /// bit: with ties, NaNs, ranges shorter than `k`, empty ranges, 1–24
        /// tasklets, pruned or naive, and again after `begin`. Three cases
        /// in four keep at most `2k` candidates, the serving lists' shape,
        /// where ranges fit the DPU heap's free slots.
        #[test]
        fn the_range_merge_is_the_thread_local_merge(
            raw in prop::collection::vec(0u32..1_000_000, 0..400),
            shape in (1u32..64, 0u32..4, 1usize..=24, 1usize..=24),
            merge in (any::<bool>(), 0u32..4),
        ) {
            let ((levels, nans, tasklets, k), (prune, short)) = (shape, merge);
            let kept = if short > 0 { raw.len() % (2 * k + 1) } else { raw.len() };
            let distances = distances_of(&raw[..kept], levels, nans);
            let n = distances.len();
            let locals: Vec<TopK> = (0..tasklets)
                .map(|t| {
                    let mut heap = TopK::new(k);
                    for v in range(t, tasklets, n) {
                        heap.push(v as u64, distances[v]);
                    }
                    heap
                })
                .collect();
            let (want, want_stats) = merge_thread_local(&locals, k, prune);
            let mut merge = RangeMerge::new(k);
            for _ in 0..2 {
                merge.begin(prune);
                for t in 0..tasklets {
                    let r = range(t, tasklets, n);
                    merge.merge_range(annkit::simd::active(), r.start as u64, &distances[r]);
                }
                assert_same_bits(merge.global.as_heap_slice(), want.as_heap_slice());
                prop_assert_eq!(merge.stats(), want_stats);
            }
            assert_same_bits(merge.sorted(), &want.into_sorted());
        }
    }
}
