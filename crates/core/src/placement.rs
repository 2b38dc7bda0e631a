//! Opt1 (offline half): PIM-aware data placement — Algorithm 1 of the paper,
//! fitted to fleets with more DPUs than clusters.
//!
//! Each cluster `i` has a size `sᵢ` (vectors) and a historical access
//! frequency `fᵢ`. Its expected workload is `wᵢ = sᵢ·fᵢ`. The placement
//! 1. keeps whole clusters on single DPUs (no partial-result transfers),
//! 2. replicates clusters whose workload exceeds the per-DPU average `W`, and
//! 3. packs replicas onto DPUs while keeping every DPU under a workload
//!    threshold `W·thld` that is relaxed by `rate` whenever a replica fits
//!    under it nowhere.
//!
//! Algorithm 1 as printed counts `n_cpy = ⌈wᵢ / W⌉` replicas once and walks a
//! cursor over the DPUs. That is written for |C| ≫ DPUs; every fixture here
//! has fewer clusters than DPUs (32–512 lists on 896), where `Σ⌈wᵢ/W⌉`
//! exceeds the DPU count by construction and the replicas placed last — all
//! replicas of the coldest clusters — are stacked on DPUs already at `W`,
//! which Algorithm 2 cannot undo. Four deviations, one code path:
//! * **the threshold governs the counts**: under `thld` a cluster gets
//!   `⌈wᵢ / (W·thld)⌉` replicas (`replica_count`), so relaxing recounts
//!   and the replicas fit the fleet instead of overflowing it;
//! * **least-loaded packing** instead of the cursor: each replica goes to the
//!   least-loaded DPU with room that does not host the cluster yet;
//! * **a frequency floor** (`floored_frequencies`): a cluster the history
//!   never probed counts as probed at half the smallest observed frequency,
//!   or least-loaded packing would pile every such cluster on one DPU;
//! * **two replicas for every cluster**, so Algorithm 2 always has a choice.
//!
//! The naive alternative (used by PIM-naive and the Figure 11 ablation)
//! assigns clusters to DPUs round-robin with no replication.

use pim_sim::stats::max_over_busy_mean;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Inputs of the placement algorithm.
#[derive(Debug, Clone)]
pub struct PlacementInput {
    /// Number of vectors per cluster (`sᵢ`).
    pub cluster_sizes: Vec<usize>,
    /// Historical access frequency per cluster (`fᵢ`, any non-negative scale).
    pub frequencies: Vec<f64>,
    /// Number of DPUs available.
    pub num_dpus: usize,
    /// Maximum number of vectors a single DPU may hold (`MAX_DPU_SIZE`),
    /// derived from MRAM capacity.
    pub max_dpu_vectors: usize,
}

/// Algorithm 1's `rate`: each failed packing attempt relaxes `thld` by this
/// much.
const THRESHOLD_RATE: f64 = 0.02;

impl PlacementInput {
    /// Checks and wraps the four inputs.
    pub fn new(
        cluster_sizes: Vec<usize>,
        frequencies: Vec<f64>,
        num_dpus: usize,
        max_dpu_vectors: usize,
    ) -> Self {
        assert_eq!(
            cluster_sizes.len(),
            frequencies.len(),
            "sizes and frequencies must align"
        );
        assert!(num_dpus > 0, "need at least one DPU");
        assert!(max_dpu_vectors > 0, "DPU capacity must be positive");
        Self {
            cluster_sizes,
            frequencies,
            num_dpus,
            max_dpu_vectors,
        }
    }

    /// Number of clusters.
    pub(crate) fn num_clusters(&self) -> usize {
        self.cluster_sizes.len()
    }

    /// Workload of cluster `i` (`wᵢ = sᵢ·fᵢ`).
    pub(crate) fn workload(&self, i: usize) -> f64 {
        self.cluster_sizes[i] as f64 * self.frequencies[i]
    }
}

/// The result of placing all clusters: for each cluster, the list of DPUs
/// holding a replica, and the resulting per-DPU load estimates.
#[derive(Debug, Clone)]
pub struct Placement {
    /// `cluster_to_dpus[c]` = DPUs holding a replica of cluster `c`
    /// (at least one entry per cluster).
    pub cluster_to_dpus: Vec<Vec<usize>>,
    /// Estimated workload per DPU (`Σ wᵢ / n_cpyᵢ` over hosted replicas; under
    /// `floored_frequencies` when Algorithm 1 produced it).
    pub dpu_workload: Vec<f64>,
    /// Number of vectors stored per DPU (each replica stores the whole
    /// cluster).
    pub dpu_vectors: Vec<usize>,
    /// The `thld` the placement was packed under (`1 + k·rate` after `k`
    /// relaxations): no DPU's estimated workload exceeds `W·threshold`. 1.0
    /// for a placement no relaxation produced, infinite when the capacity cap
    /// forced single replicas. [`crate::adaptive`]'s replica adjustment
    /// carries it over unchanged, and its full relocation packs afresh.
    pub threshold: f64,
}

impl Placement {
    /// Number of replicas of cluster `c`.
    pub fn replicas(&self, c: usize) -> usize {
        self.cluster_to_dpus[c].len()
    }

    /// Total number of (cluster, DPU) replica pairs.
    pub fn total_replicas(&self) -> usize {
        self.cluster_to_dpus.iter().map(|d| d.len()).sum()
    }

    /// Ratio of the most-loaded DPU's estimated workload to the average over
    /// DPUs that host at least one replica — the static counterpart of
    /// Figure 11's max/avg metric.
    pub fn max_to_avg_workload(&self) -> f64 {
        max_over_busy_mean(self.dpu_workload.iter().copied())
    }

    /// Checks the structural invariants every placement must satisfy: it
    /// targets `num_dpus` DPUs, every cluster has ≥ 1 replica, all DPU ids
    /// are in range, and no DPU exceeds `max_dpu_vectors`.
    pub fn validate(&self, input: &PlacementInput) -> Result<(), String> {
        if self.cluster_to_dpus.len() != input.num_clusters() {
            return Err("placement covers wrong number of clusters".into());
        }
        if self.dpu_workload.len() != input.num_dpus {
            return Err("placement targets a different DPU count".into());
        }
        for (c, dpus) in self.cluster_to_dpus.iter().enumerate() {
            if dpus.is_empty() {
                return Err(format!("cluster {c} has no replica"));
            }
            for &d in dpus {
                if d >= input.num_dpus {
                    return Err(format!("cluster {c} placed on invalid DPU {d}"));
                }
            }
            let mut sorted = dpus.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != dpus.len() {
                return Err(format!("cluster {c} has duplicate replicas on one DPU"));
            }
        }
        for (d, &v) in self.dpu_vectors.iter().enumerate() {
            if v > input.max_dpu_vectors {
                return Err(format!(
                    "DPU {d} holds {v} vectors, above the cap {}",
                    input.max_dpu_vectors
                ));
            }
        }
        Ok(())
    }
}

/// Frequencies as the placement sees them: a cluster the history never probed
/// (zero, negative or non-finite frequency) counts as probed at half the
/// smallest observed frequency, so it carries a positive share to the DPUs
/// that host it. With no observed frequency at all every cluster counts the
/// same.
pub(crate) fn floored_frequencies(frequencies: &[f64]) -> Vec<f64> {
    let observed = |f: &f64| f.is_finite() && *f > 0.0;
    let smallest = frequencies
        .iter()
        .copied()
        .filter(observed)
        .fold(f64::INFINITY, f64::min);
    let floor = if smallest.is_finite() {
        smallest / 2.0
    } else {
        1.0
    };
    frequencies
        .iter()
        .map(|f| if observed(f) { *f } else { floor })
        .collect()
}

/// The one replica-count rule: `⌈w / threshold⌉` replicas for a cluster of
/// workload `w` when a DPU may carry `threshold` (Algorithm 1's `⌈wᵢ/W⌉`
/// with `W` relaxed to `W·thld`), never fewer than two — Algorithm 2 needs a
/// choice — and never more than there are DPUs.
pub(crate) fn replica_count(workload: f64, threshold: f64, num_dpus: usize) -> usize {
    ((workload / threshold.max(f64::MIN_POSITIVE)).ceil() as usize)
        .max(2)
        .min(num_dpus)
}

/// Algorithm 1: PIM-aware data placement with hot-cluster replication (see
/// the module docs for where it departs from the printed algorithm).
///
/// For `thld = 1, 1 + rate, …` every cluster gets
/// `replica_count(wᵢ, W·thld, n)` replicas of share `wᵢ / n_cpy`, hottest
/// cluster first, each on the least-loaded DPU that has room for it and does
/// not host it (ties: fewer stored vectors, then lower id). The first replica
/// that would lift its DPU above `W·thld` fails the attempt; `thld` is relaxed
/// and the replicas are recounted. The capacity cap is never relaxed: a
/// replica no DPU has room for is dropped and its share goes to the cluster's
/// other replicas; if that leaves a cluster with none, the extra replicas are
/// what took its room and every cluster is placed once instead — a cluster
/// that still fits nowhere has no replica, which `validate` reports.
pub fn place_pim_aware(input: &PlacementInput) -> Placement {
    relax(input).0
}

/// [`place_pim_aware`] and the number of packing attempts it took.
fn relax(input: &PlacementInput) -> (Placement, usize) {
    let workloads: Vec<f64> = floored_frequencies(&input.frequencies)
        .iter()
        .zip(&input.cluster_sizes)
        .map(|(f, &s)| s as f64 * f)
        .collect();
    let target = (workloads.iter().sum::<f64>() / input.num_dpus as f64).max(f64::MIN_POSITIVE);
    // Hottest clusters first (the sort is stable: lower id among equals).
    let mut order: Vec<usize> = (0..input.num_clusters()).collect();
    order.sort_by(|&a, &b| workloads[b].total_cmp(&workloads[a]));

    let attempt = |threshold: f64, max_replicas: usize| {
        pack(input, &workloads, &order, target, threshold, max_replicas)
    };
    let mut attempts = 0;
    let mut placement = loop {
        // A threshold above the total workload admits every replica, so the
        // relaxation ends.
        let threshold = 1.0 + attempts as f64 * THRESHOLD_RATE;
        attempts += 1;
        if let Some(placement) = attempt(threshold, input.num_dpus) {
            break placement;
        }
    };
    if placement.cluster_to_dpus.iter().any(Vec::is_empty) {
        attempts += 1;
        placement = attempt(f64::INFINITY, 1).expect("no replica exceeds an infinite limit");
    }
    (placement, attempts)
}

/// One packing attempt under `limit = target·threshold`: clusters in `order`,
/// each with its replica count under `limit` (at most `max_replicas`) on the
/// least-loaded DPUs that have room. `None` as soon as a replica would lift
/// its DPU above `limit`.
fn pack(
    input: &PlacementInput,
    workloads: &[f64],
    order: &[usize],
    target: f64,
    threshold: f64,
    max_replicas: usize,
) -> Option<Placement> {
    let n = input.num_dpus;
    let limit = target * threshold;
    let mut cluster_to_dpus = vec![Vec::new(); input.num_clusters()];
    let mut dpu_workload = vec![0.0f64; n];
    let mut dpu_vectors = vec![0usize; n];
    // Least workload first, then fewer stored vectors, then lower id.
    // Workloads are non-negative, so their bit patterns order as they do.
    let mut by_load: BinaryHeap<_> = (0..n).map(|d| Reverse((0u64, 0usize, d))).collect();
    let mut popped = Vec::new();
    for &c in order {
        let size = input.cluster_sizes[c];
        let want = replica_count(workloads[c], limit, n).min(max_replicas);
        let dpus = &mut cluster_to_dpus[c];
        while dpus.len() < want {
            let Some(Reverse((_, vectors, d))) = by_load.pop() else {
                break; // the capacity cap refused the rest
            };
            popped.push(d);
            if size <= input.max_dpu_vectors.saturating_sub(vectors) {
                dpus.push(d);
            }
        }
        let share = workloads[c] / dpus.len().max(1) as f64;
        // `dpus` is in ascending workload order: its last is the one to check.
        if dpus
            .last()
            .is_some_and(|&d| dpu_workload[d] + share > limit)
        {
            return None;
        }
        for &d in dpus.iter() {
            dpu_workload[d] += share;
            dpu_vectors[d] += size;
        }
        for d in popped.drain(..) {
            by_load.push(Reverse((dpu_workload[d].to_bits(), dpu_vectors[d], d)));
        }
    }
    Some(Placement {
        cluster_to_dpus,
        dpu_workload,
        dpu_vectors,
        threshold,
    })
}

/// The naive distribution used by PIM-naive and the Figure 11 ablation:
/// cluster `c` goes to DPU `c mod n`, no replication, no workload awareness.
pub(crate) fn place_round_robin(input: &PlacementInput) -> Placement {
    let n = input.num_dpus;
    let mut dpu_workload = vec![0.0f64; n];
    let mut dpu_vectors = vec![0usize; n];
    let mut cluster_to_dpus = vec![Vec::new(); input.num_clusters()];
    for (c, dpus) in cluster_to_dpus.iter_mut().enumerate() {
        let d = c % n;
        dpus.push(d);
        dpu_workload[d] += input.workload(c);
        dpu_vectors[d] += input.cluster_sizes[c];
    }
    Placement {
        cluster_to_dpus,
        dpu_workload,
        dpu_vectors,
        threshold: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn skewed_input(clusters: usize, dpus: usize) -> PlacementInput {
        // Zipf-ish frequencies and power-law sizes, like Figure 4.
        let sizes: Vec<usize> = (0..clusters).map(|i| 1000 / (i + 1) + 10).collect();
        let freqs: Vec<f64> = (0..clusters).map(|i| 1.0 / ((i % 17) + 1) as f64).collect();
        PlacementInput::new(sizes, freqs, dpus, 100_000)
    }

    #[test]
    fn every_cluster_gets_at_least_one_replica() {
        let input = skewed_input(64, 16);
        let p = place_pim_aware(&input);
        p.validate(&input).unwrap();
        assert!(p.total_replicas() >= 64);
    }

    #[test]
    fn hot_clusters_are_replicated() {
        let mut input = skewed_input(32, 16);
        // Make cluster 0 extremely hot: its workload alone is several times
        // the per-DPU target.
        input.cluster_sizes[0] = 5_000;
        input.frequencies[0] = 10.0;
        let p = place_pim_aware(&input);
        p.validate(&input).unwrap();
        assert!(
            p.replicas(0) > 1,
            "hot cluster should be replicated, got {}",
            p.replicas(0)
        );
        // Cold clusters never get more.
        let cold = (1..32).map(|c| p.replicas(c)).max().unwrap();
        assert!(cold <= p.replicas(0));
    }

    #[test]
    fn pim_aware_is_more_balanced_than_round_robin() {
        let input = skewed_input(96, 24);
        let aware = place_pim_aware(&input);
        let naive = place_round_robin(&input);
        aware.validate(&input).unwrap();
        naive.validate(&input).unwrap();
        assert!(
            aware.max_to_avg_workload() < naive.max_to_avg_workload(),
            "aware {} vs naive {}",
            aware.max_to_avg_workload(),
            naive.max_to_avg_workload()
        );
        // And the PIM-aware ratio should be close to 1 (Figure 11).
        assert!(aware.max_to_avg_workload() < 1.5);
    }

    #[test]
    fn capacity_cap_is_respected() {
        let sizes = vec![60usize; 20];
        let freqs = vec![1.0; 20];
        // Each DPU can hold at most 2 clusters' worth of vectors.
        let input = PlacementInput::new(sizes, freqs, 10, 120);
        let p = place_pim_aware(&input);
        p.validate(&input).unwrap();
        assert!(p.dpu_vectors.iter().all(|&v| v <= 120));
    }

    #[test]
    fn uniform_workload_gets_two_replicas_each_and_stays_balanced() {
        let input = PlacementInput::new(vec![100; 32], vec![1.0; 32], 32, 10_000);
        let p = place_pim_aware(&input);
        p.validate(&input).unwrap();
        assert_eq!(p.total_replicas(), 64);
        assert!(p.max_to_avg_workload() < 1.01);
        assert_eq!(p.threshold, 1.0);
    }

    #[test]
    fn replica_count_is_the_relaxed_ceiling_between_two_and_the_fleet() {
        assert_eq!(replica_count(100.0, 30.0, 16), 4);
        assert_eq!(replica_count(100.0, 30.0 * 1.2, 16), 3); // relaxing recounts
        assert_eq!(replica_count(100.0, 1.0, 16), 16);
        assert_eq!(replica_count(0.0, 30.0, 16), 2);
        assert_eq!(replica_count(100.0, f64::INFINITY, 16), 2);
        assert_eq!(replica_count(100.0, 30.0, 1), 1);
    }

    #[test]
    fn never_probed_clusters_count_at_half_the_smallest_observed_frequency() {
        let floored = floored_frequencies(&[0.4, 0.0, 0.1, -1.0, f64::NAN]);
        assert_eq!(floored, [0.4, 0.05, 0.1, 0.05, 0.05]);
        assert_eq!(floored_frequencies(&[0.0, 0.0]), [1.0, 1.0]);
    }

    /// The bug this guards: ten of twenty clusters fit nowhere, and the only
    /// exit used to be walking `thld` to 10⁶ in steps of 0.02 per replica.
    #[test]
    fn a_capacity_bound_input_returns_after_two_attempts_and_validate_names_the_cluster() {
        let input = PlacementInput::new(vec![60; 20], vec![1.0; 20], 10, 60);
        let (p, attempts) = relax(&input);
        assert_eq!(attempts, 2);
        assert_eq!(p.total_replicas(), 10);
        assert!(p.threshold.is_infinite());
        assert!(p.dpu_vectors.iter().all(|&v| v <= 60));
        assert_eq!(p.validate(&input).unwrap_err(), "cluster 10 has no replica");
    }

    #[test]
    fn validate_refuses_a_placement_for_another_dpu_count() {
        let input = PlacementInput::new(vec![10; 4], vec![1.0; 4], 4, 100);
        let p = place_round_robin(&input);
        p.validate(&input).unwrap();
        let wider = PlacementInput::new(vec![10; 4], vec![1.0; 4], 8, 100);
        let err = p.validate(&wider).unwrap_err();
        assert_eq!(err, "placement targets a different DPU count");
    }

    #[test]
    fn a_second_replica_that_fits_nowhere_is_dropped_and_its_share_kept() {
        // Cluster 1's second replica has no room beside cluster 0's two, so
        // its one replica carries all 120 and `thld` relaxes to admit that.
        let input = PlacementInput::new(vec![60, 60, 40], vec![3.0, 2.0, 1.0], 3, 100);
        let (p, attempts) = relax(&input);
        p.validate(&input).unwrap();
        assert_eq!(attempts, 4);
        assert_eq!(p.cluster_to_dpus, [vec![0, 1], vec![2], vec![0, 1]]);
        assert_eq!(p.dpu_workload, [110.0, 110.0, 120.0]);
        // W = Σwᵢ / n = 340 / 3.
        assert!(120.0 <= 340.0 / 3.0 * p.threshold);
    }

    /// The benchmark's short-list shape: 512 lists on 896 DPUs, 160 of them
    /// never probed by the 600-query history. Least-loaded packing without
    /// the frequency floor sees those as free and stacks them (18 on one DPU
    /// here, 6 with the floor).
    #[test]
    fn never_probed_short_lists_are_spread_over_the_fleet() {
        use annkit::ivf::{IvfPqIndex, IvfPqParams};
        use annkit::synthetic::SyntheticSpec;
        use annkit::workload::WorkloadSpec;
        let dataset = SyntheticSpec::sift_like(4_000)
            .with_clusters(16)
            .with_seed(7)
            .generate_with_meta();
        let params = IvfPqParams::new(512, 16).with_train_size(2_400);
        let index = IvfPqIndex::train(&dataset.vectors, &params, 5);
        let history = WorkloadSpec::new(600)
            .with_seed(8)
            .generate(&dataset)
            .queries;
        let freqs = crate::builder::frequencies_from_queries(&index, &history, 8);
        assert_eq!(freqs.iter().filter(|&&f| f == 0.0).count(), 160);
        let input = PlacementInput::new(index.list_sizes(), freqs, 896, 1 << 20);
        let p = place_pim_aware(&input);
        p.validate(&input).unwrap();
        let mut hosted = vec![0usize; 896];
        for &d in p.cluster_to_dpus.iter().flatten() {
            hosted[d] += 1;
        }
        assert!(
            hosted.iter().all(|&lists| lists <= 8),
            "{:?}",
            hosted.iter().max()
        );
    }

    #[test]
    fn workload_and_target_math() {
        let input = PlacementInput::new(vec![10, 20], vec![2.0, 0.5], 2, 1000);
        assert_eq!(input.workload(0), 20.0);
        assert_eq!(input.workload(1), 10.0);
        assert_eq!(input.num_clusters(), 2);
    }

    #[test]
    fn validate_catches_broken_placements() {
        let input = PlacementInput::new(vec![10, 10], vec![1.0, 1.0], 2, 1000);
        let mut p = place_round_robin(&input);
        p.cluster_to_dpus[1].clear();
        assert!(p.validate(&input).is_err());
        let mut p2 = place_round_robin(&input);
        p2.cluster_to_dpus[0] = vec![7];
        assert!(p2.validate(&input).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Fleets larger and smaller than the cluster count, never-probed
        /// and empty clusters included, with room for every replica.
        #[test]
        fn any_history_packs_under_the_threshold_it_reports(
            clusters in prop::collection::vec((0usize..3_000, 0.0f64..1.0, any::<bool>()), 1..80),
            dpus in 1usize..120,
        ) {
            let sizes: Vec<usize> = clusters.iter().map(|c| c.0).collect();
            let freqs: Vec<f64> = clusters.iter().map(|c| if c.2 { c.1 } else { 0.0 }).collect();
            let input = PlacementInput::new(sizes.clone(), freqs.clone(), dpus, usize::MAX / 2);
            let p = place_pim_aware(&input);
            prop_assert!(p.validate(&input).is_ok());
            prop_assert_eq!(&p.cluster_to_dpus, &place_pim_aware(&input).cluster_to_dpus);

            let floored = floored_frequencies(&freqs);
            let total: f64 = sizes.iter().zip(&floored).map(|(&s, f)| s as f64 * f).sum();
            let limit = total / dpus as f64 * p.threshold;
            let mut load = vec![0.0f64; dpus];
            for (c, hosts) in p.cluster_to_dpus.iter().enumerate() {
                let workload = sizes[c] as f64 * floored[c];
                prop_assert_eq!(hosts.len(), replica_count(workload, limit, dpus));
                // A never-probed cluster still weighs on the DPUs hosting it.
                prop_assert!(sizes[c] == 0 || workload > 0.0);
                for &d in hosts {
                    load[d] += workload / hosts.len() as f64;
                }
            }
            for (recomputed, &reported) in load.iter().zip(&p.dpu_workload) {
                prop_assert!((recomputed - reported).abs() <= 1e-9 * limit.max(1.0));
                prop_assert!(reported <= limit * (1.0 + 1e-12));
            }
        }

        /// A binding capacity cap is never exceeded, never costs a cluster
        /// its only replica while single replicas fit, and never hangs.
        #[test]
        fn a_tight_capacity_cap_is_respected_and_never_hangs(
            sizes in prop::collection::vec(1usize..500, 1..60),
            dpus in 1usize..40,
            slack in 0usize..1_500,
        ) {
            // Any DPU below half the cap has room for the largest cluster, so
            // single replicas always fit; second replicas often do not.
            let cap = 2 * (sizes.iter().sum::<usize>().div_ceil(dpus) + 500) + slack;
            let input = PlacementInput::new(sizes.clone(), vec![1.0; sizes.len()], dpus, cap);
            let (p, attempts) = relax(&input);
            prop_assert!(p.validate(&input).is_ok());
            prop_assert!(attempts <= 2 + (dpus as f64 / THRESHOLD_RATE) as usize);
        }
    }
}
