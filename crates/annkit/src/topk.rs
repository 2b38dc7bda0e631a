//! Bounded heaps and top-k selection.
//!
//! IVFPQ's final stage keeps the `k` smallest approximate distances seen so
//! far. The canonical structure is a bounded *max*-heap of size `k`: a new
//! candidate is inserted only if it beats the current worst (the root), which
//! is exactly the structure the UpANNS DPU kernel keeps per tasklet
//! (Figure 6) and later converts to a min-heap for the pruned merge
//! (Figure 9, reproduced in `upanns::topk_prune`).

use crate::simd::{self, Backend, SCAN_LANES};
use std::cmp::Ordering;

/// A candidate neighbor: dataset row id plus its (approximate) distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row identifier within the dataset.
    pub id: u64,
    /// Distance to the query (smaller is closer).
    pub distance: f32,
}

impl Neighbor {
    /// Creates a neighbor.
    #[inline]
    pub fn new(id: u64, distance: f32) -> Self {
        Self { id, distance }
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        // Total order by distance, then id, treating NaN as the greatest
        // possible distance so it never wins a top-k slot.
        match self.distance.partial_cmp(&other.distance) {
            Some(o) => o.then(self.id.cmp(&other.id)),
            None => {
                if self.distance.is_nan() && other.distance.is_nan() {
                    self.id.cmp(&other.id)
                } else if self.distance.is_nan() {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
        }
    }
}

/// A bounded max-heap keeping the `k` smallest [`Neighbor`]s pushed into it.
///
/// `push` is O(log k) once the heap is full and O(1) when the candidate is
/// worse than the current k-th best, which is the common case during scans
/// and the reason the structure (rather than a sort) is used in every engine
/// in this repository.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// Binary max-heap laid out in a flat vector (root at index 0).
    heap: Vec<Neighbor>,
    /// Number of candidates offered (for pruning statistics).
    pushed: u64,
    /// Number of candidates actually inserted into the heap.
    inserted: u64,
}

impl TopK {
    /// Creates a collector for the `k` nearest neighbors.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "top-k size must be positive");
        Self {
            k,
            heap: Vec::with_capacity(k),
            pushed: 0,
            inserted: 0,
        }
    }

    /// Empties the collector (neighbors and offered/accepted counters),
    /// keeping `k` and the heap's allocation — for scan loops that fill one
    /// collector per (query, cluster) pair.
    #[inline]
    pub fn clear(&mut self) {
        self.heap.clear();
        self.pushed = 0;
        self.inserted = 0;
    }

    /// The configured `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of neighbors currently held (≤ k).
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no neighbor has been accepted yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The current worst (largest) distance in the heap, or `f32::INFINITY`
    /// if the heap is not yet full. A candidate with a distance ≥ this bound
    /// can never enter the result.
    #[inline]
    pub fn threshold(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap[0].distance
        }
    }

    /// Offers a candidate; returns `true` if it was inserted.
    #[inline]
    pub fn push(&mut self, id: u64, distance: f32) -> bool {
        self.pushed += 1;
        if self.heap.len() < self.k {
            self.heap.push(Neighbor::new(id, distance));
            self.sift_up(self.heap.len() - 1);
            self.inserted += 1;
            true
        } else if Neighbor::new(id, distance) < self.heap[0] {
            self.heap[0] = Neighbor::new(id, distance);
            self.sift_down(0);
            self.inserted += 1;
            true
        } else {
            false
        }
    }

    /// Offers a run of candidates with consecutive ids (`base_id`,
    /// `base_id + 1`, …) — the shape every scan loop produces — on `backend`
    /// (callers pass [`simd::active`]). Returns the number inserted.
    ///
    /// Behaves exactly like calling [`push`](Self::push) for each candidate
    /// in order (same final heap, same offered/accepted counters), but once
    /// the heap is full it pre-filters each block of [`SCAN_LANES`]
    /// distances against [`threshold`](Self::threshold) with one branchless
    /// lane mask, so the common all-rejected case never touches the heap.
    pub fn push_batch_with(&mut self, backend: Backend, base_id: u64, distances: &[f32]) -> usize {
        let mut inserted = 0usize;
        let mut i = 0usize;
        let n = distances.len();
        while i < n {
            if self.heap.len() < self.k {
                // Fill phase: push accepts everything (even NaN) until the
                // heap is full, so the pre-filter must not run here.
                if self.push(base_id + i as u64, distances[i]) {
                    inserted += 1;
                }
                i += 1;
                continue;
            }
            let end = (i + SCAN_LANES).min(n);
            let block = &distances[i..end];
            let threshold = self.heap[0].distance;
            let mask = if threshold.is_nan() {
                // A NaN root loses to every real candidate under
                // Neighbor::cmp, but `d <= NaN` is false in every lane —
                // bypass the filter and let push re-check exactly.
                (1u32 << block.len()) - 1
            } else {
                // `<=`, not `<`: a candidate at exactly the threshold can
                // still win on the id tie-break. The threshold only
                // tightens within a block, so lanes filtered out here would
                // be rejected by every later push too.
                simd::le_mask_with(backend, block, threshold)
            };
            let mut remaining = mask;
            while remaining != 0 {
                let lane = remaining.trailing_zeros() as usize;
                remaining &= remaining - 1;
                if self.push(base_id + (i + lane) as u64, distances[i + lane]) {
                    inserted += 1;
                }
            }
            // Filtered-out lanes were still offered.
            self.pushed += (block.len() - mask.count_ones() as usize) as u64;
            i = end;
        }
        inserted
    }

    /// Total number of candidates offered via [`push`](Self::push).
    #[inline]
    pub fn offered(&self) -> u64 {
        self.pushed
    }

    /// Number of candidates that actually entered the heap.
    #[inline]
    pub fn accepted(&self) -> u64 {
        self.inserted
    }

    /// Consumes the collector, returning neighbors sorted from closest to
    /// furthest.
    pub fn into_sorted(mut self) -> Vec<Neighbor> {
        // Neighbor::cmp is the single source of ordering truth for every
        // comparator site (heap, sorts, merges): total, NaN-last, id
        // tie-broken.
        self.heap.sort_by(Neighbor::cmp);
        self.heap
    }

    /// Returns the neighbors sorted from closest to furthest without
    /// consuming the collector.
    pub fn sorted(&self) -> Vec<Neighbor> {
        let mut v = self.heap.clone();
        v.sort_by(Neighbor::cmp);
        v
    }

    /// Exposes the raw (heap-ordered) contents; used by the pruned merge in
    /// `upanns::topk_prune`, which re-heapifies them as a min-heap.
    pub fn as_heap_slice(&self) -> &[Neighbor] {
        &self.heap
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] > self.heap[parent] {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut largest = i;
            if l < n && self.heap[l] > self.heap[largest] {
                largest = l;
            }
            if r < n && self.heap[r] > self.heap[largest] {
                largest = r;
            }
            if largest == i {
                break;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }
}

/// Exact top-k by full sort; O(n log n). Used as the reference in tests and by
/// the "GPU" baseline whose top-k stage is modeled as a sort-based selection.
pub fn topk_by_sort(candidates: &[(u64, f32)], k: usize) -> Vec<Neighbor> {
    let mut v: Vec<Neighbor> = candidates
        .iter()
        .map(|&(id, d)| Neighbor::new(id, d))
        .collect();
    v.sort_by(Neighbor::cmp);
    v.truncate(k);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_smallest() {
        let mut tk = TopK::new(3);
        for (i, d) in [5.0, 1.0, 4.0, 0.5, 9.0, 2.0].iter().enumerate() {
            tk.push(i as u64, *d);
        }
        let out = tk.into_sorted();
        let dists: Vec<f32> = out.iter().map(|n| n.distance).collect();
        assert_eq!(dists, vec![0.5, 1.0, 2.0]);
        let ids: Vec<u64> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 1, 5]);
    }

    #[test]
    fn threshold_tracks_worst() {
        let mut tk = TopK::new(2);
        assert_eq!(tk.threshold(), f32::INFINITY);
        tk.push(0, 3.0);
        assert_eq!(tk.threshold(), f32::INFINITY); // not full yet
        tk.push(1, 1.0);
        assert_eq!(tk.threshold(), 3.0);
        tk.push(2, 2.0);
        assert_eq!(tk.threshold(), 2.0);
        assert!(!tk.push(3, 10.0));
    }

    #[test]
    fn matches_sort_reference() {
        let candidates: Vec<(u64, f32)> = (0..200)
            .map(|i| (i as u64, ((i * 37) % 101) as f32 * 0.7))
            .collect();
        let mut tk = TopK::new(10);
        for &(id, d) in &candidates {
            tk.push(id, d);
        }
        let heap_out = tk.into_sorted();
        let sort_out = topk_by_sort(&candidates, 10);
        assert_eq!(heap_out.len(), sort_out.len());
        for (a, b) in heap_out.iter().zip(&sort_out) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.distance, b.distance);
        }
    }

    #[test]
    fn counts_offered_and_accepted() {
        let mut tk = TopK::new(1);
        tk.push(0, 1.0);
        tk.push(1, 2.0);
        tk.push(2, 0.5);
        assert_eq!(tk.offered(), 3);
        assert_eq!(tk.accepted(), 2);
    }

    #[test]
    fn nan_never_wins() {
        let mut tk = TopK::new(2);
        tk.push(0, f32::NAN);
        tk.push(1, 1.0);
        tk.push(2, 2.0);
        let out = tk.into_sorted();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|n| !n.distance.is_nan()));
    }

    #[test]
    fn nan_injection_heap_and_sort_references_agree() {
        // Regression for the unwrap_or(Equal) comparators: with NaN treated
        // as equal-to-everything, a NaN candidate could keep a slot in the
        // sort-based reference that TopK::push would never grant it. Under
        // Neighbor::cmp both references agree exactly, NaNs last.
        let mut candidates: Vec<(u64, f32)> = (0..60)
            .map(|i| (i as u64, ((i * 31) % 47) as f32 * 0.9))
            .collect();
        for slot in [3usize, 17, 29, 44] {
            candidates[slot].1 = f32::NAN;
        }
        let mut tk = TopK::new(8);
        for &(id, d) in &candidates {
            tk.push(id, d);
        }
        let heap_out = tk.into_sorted();
        let sort_out = topk_by_sort(&candidates, 8);
        assert_eq!(heap_out.len(), sort_out.len());
        for (a, b) in heap_out.iter().zip(&sort_out) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
        assert!(heap_out.iter().all(|n| !n.distance.is_nan()));
    }

    #[test]
    fn push_batch_matches_sequential_push() {
        let distances: Vec<f32> = (0..100)
            .map(|i| match i % 13 {
                0 => f32::NAN,
                r => ((i * 29) % 53) as f32 + r as f32 * 0.25,
            })
            .collect();
        for backend in [Backend::Scalar, simd::detect()] {
            let mut sequential = TopK::new(7);
            for (j, &d) in distances.iter().enumerate() {
                sequential.push(1000 + j as u64, d);
            }
            let mut batched = TopK::new(7);
            // Split across uneven batch boundaries to cross fill/full phases
            // and block edges.
            let mut base = 1000u64;
            for chunk in distances.chunks(23) {
                batched.push_batch_with(backend, base, chunk);
                base += chunk.len() as u64;
            }
            assert_eq!(batched.offered(), sequential.offered(), "{backend:?}");
            assert_eq!(batched.accepted(), sequential.accepted(), "{backend:?}");
            let (b, s) = (batched.into_sorted(), sequential.into_sorted());
            assert_eq!(b.len(), s.len());
            for (x, y) in b.iter().zip(&s) {
                assert_eq!(x.id, y.id, "{backend:?}");
                assert_eq!(x.distance.to_bits(), y.distance.to_bits(), "{backend:?}");
            }
        }
    }

    #[test]
    fn push_batch_threshold_tie_breaks_on_id() {
        // A candidate at exactly the threshold can still enter when its id
        // beats the root's — the pre-filter must use `<=`, not `<`.
        let mut tk = TopK::new(1);
        tk.push(50, 2.0);
        let inserted = tk.push_batch_with(
            simd::active(),
            10,
            &[2.0, 3.0, 2.0, 9.0, 2.0, 4.0, 5.0, 6.0],
        );
        assert_eq!(inserted, 1);
        let out = tk.into_sorted();
        assert_eq!(out[0].id, 10); // lowest id at distance 2.0 wins
        assert_eq!(out[0].distance, 2.0);
    }

    #[test]
    fn push_batch_recovers_from_nan_root() {
        // If the heap filled with NaN distances, the root is NaN and the
        // vector pre-filter (`d <= NaN` false everywhere) must be bypassed
        // so real candidates can evict it.
        let mut tk = TopK::new(2);
        tk.push(0, f32::NAN);
        tk.push(1, f32::NAN);
        let inserted = tk.push_batch_with(
            simd::active(),
            10,
            &[5.0, f32::NAN, 1.0, 7.0, 3.0, 8.0, 9.0, 2.0],
        );
        assert!(inserted >= 2);
        let out = tk.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].distance, 1.0);
        assert_eq!(out[1].distance, 2.0);
    }

    #[test]
    fn fewer_candidates_than_k() {
        let mut tk = TopK::new(10);
        tk.push(7, 3.0);
        let out = tk.into_sorted();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 7);
    }
}
