//! Workload statistics collected while executing a query batch functionally.
//!
//! Every engine first runs the IVFPQ pipeline on real data (so results and
//! recall are genuine) while counting the work it performed; the architecture
//! timing models then convert those counts into simulated seconds. Keeping
//! the counts explicit also lets benches report them directly (e.g. the
//! "250 million random memory accesses per query" observation in §2.3).

/// Counters describing the work performed by one batch search.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadStats {
    /// Number of queries in the batch.
    pub queries: usize,
    /// Number of coarse centroids compared during cluster filtering
    /// (`queries × nlist`).
    pub centroid_comparisons: u64,
    /// Number of LUTs constructed (`queries × nprobe`).
    pub luts_built: u64,
    /// Number of LUT entries computed (`luts_built × m × 256`).
    pub lut_entries: u64,
    /// Number of candidate codes ADC-scanned across all queries/clusters.
    pub candidates_scanned: u64,
    /// Number of LUT lookups performed during distance calculation
    /// (≈ `candidates_scanned × m`, fewer with co-occurrence encoding).
    pub lut_lookups: u64,
    /// Bytes of PQ codes streamed from memory during distance calculation.
    pub code_bytes_read: u64,
    /// Candidates offered to the top-k structures.
    pub topk_candidates: u64,
    /// Candidates that actually entered a top-k heap.
    pub topk_insertions: u64,
    /// Requested k.
    pub k: usize,
    /// Requested nprobe.
    pub nprobe: usize,
    /// Query×shard pairs dropped because no live replica covered the shard
    /// at dispatch time (degraded coverage — never silently zero when
    /// answers are partial).
    pub degraded: u64,
    /// Shard groups cloned to a second replica because the primary's modeled
    /// completion exceeded the hedging budget.
    pub hedged: u64,
    /// Shard groups re-dispatched to a surviving replica after their host
    /// died with the work in flight (each such group moves exactly once).
    pub redispatched: u64,
}

impl WorkloadStats {
    /// Merges another batch's counters into this one.
    pub fn merge(&mut self, other: &WorkloadStats) {
        self.queries += other.queries;
        self.centroid_comparisons += other.centroid_comparisons;
        self.luts_built += other.luts_built;
        self.lut_entries += other.lut_entries;
        self.candidates_scanned += other.candidates_scanned;
        self.lut_lookups += other.lut_lookups;
        self.code_bytes_read += other.code_bytes_read;
        self.topk_candidates += other.topk_candidates;
        self.topk_insertions += other.topk_insertions;
        self.k = self.k.max(other.k);
        self.nprobe = self.nprobe.max(other.nprobe);
        self.degraded += other.degraded;
        self.hedged += other.hedged;
        self.redispatched += other.redispatched;
    }

    /// Fraction of offered top-k candidates that were rejected without
    /// entering the heap — Figure 15's `pruned_comparisons_fraction`.
    pub fn topk_rejection_rate(&self) -> f64 {
        if self.topk_candidates == 0 {
            0.0
        } else {
            1.0 - self.topk_insertions as f64 / self.topk_candidates as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_derived_metrics() {
        let mut a = WorkloadStats {
            queries: 2,
            candidates_scanned: 200,
            lut_lookups: 3200,
            topk_candidates: 200,
            topk_insertions: 20,
            k: 10,
            nprobe: 4,
            ..WorkloadStats::default()
        };
        let b = WorkloadStats {
            queries: 2,
            candidates_scanned: 600,
            lut_lookups: 9600,
            topk_candidates: 600,
            topk_insertions: 30,
            k: 10,
            nprobe: 8,
            ..WorkloadStats::default()
        };
        a.merge(&b);
        assert_eq!(a.queries, 4);
        assert_eq!(a.candidates_scanned, 800);
        assert_eq!(a.nprobe, 8);
        assert!((a.topk_rejection_rate() - (1.0 - 50.0 / 800.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = WorkloadStats::default();
        assert_eq!(s.topk_rejection_rate(), 0.0);
    }
}
