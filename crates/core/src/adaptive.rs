//! Opt1 (runtime extension): adapting the data placement to query-pattern
//! drift — the adaptive approach described in §4.1.2 of the paper.
//!
//! UpANNS targets workloads (RAG serving, recommendation) whose query pattern
//! changes "regularly (e.g., every few days) and incrementally". Because DPUs
//! cannot talk to each other, reacting to a new pattern means the *host* has
//! to restage data. The paper's policy has two tiers:
//!
//! 1. **Minor drift** — adjust the number of replicas of individual clusters:
//!    clusters that became hot gain replicas, clusters that cooled down lose
//!    surplus replicas. Only the affected clusters are re-staged.
//! 2. **Major drift** — run the full Algorithm 1 placement from scratch and
//!    reload every DPU ("full data relocation").
//!
//! This module provides the drift metrics, the decision policy, and the
//! incremental replica adjustment. [`crate::builder::UpAnnsBuilder`] accepts
//! an externally adapted [`Placement`] via
//! [`with_placement`](crate::builder::UpAnnsBuilder::with_placement), so a
//! serving loop can periodically re-derive frequencies from recent traffic,
//! call [`plan_adaptation`], and rebuild only when needed (see
//! `tests/adaptive_and_robustness.rs`). What the tiers buy is measured by
//! `figures -- drift` and pinned by `tests/experiment_shapes.rs`; nothing
//! calls them at serve time yet.

use crate::placement::{
    floored_frequencies, place_pim_aware, replica_count, Placement, PlacementInput,
};

/// How much the cluster-access distribution moved between two observation
/// windows.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Total-variation distance between the two (normalized) frequency
    /// distributions, in `[0, 1]`. 0 = identical, 1 = disjoint supports.
    pub total_variation: f64,
    /// Jaccard overlap of the two hot sets (the smallest cluster sets covering
    /// [`AdaptationPolicy::hot_mass`] of each distribution), in `[0, 1]`.
    pub hot_set_overlap: f64,
    /// The largest single-cluster absolute frequency change.
    pub max_cluster_shift: f64,
    /// Number of clusters whose frequency at least doubled (or appeared).
    pub heated_clusters: usize,
    /// Number of clusters whose frequency at least halved (or vanished).
    pub cooled_clusters: usize,
}

/// Thresholds steering the two-tier adaptation policy.
#[derive(Debug, Clone)]
pub struct AdaptationPolicy {
    /// Total-variation distance below which the placement is left untouched.
    pub minor_drift: f64,
    /// Total-variation distance above which a full relocation (Algorithm 1
    /// from scratch) is triggered.
    pub major_drift: f64,
    /// Fraction of total access mass that defines the "hot set" used for the
    /// overlap metric (default 0.5: the clusters receiving half the traffic).
    pub hot_mass: f64,
    /// A cluster gains a replica when its expected workload per replica
    /// exceeds this multiple of the per-DPU average (1.0 is Algorithm 1's
    /// unrelaxed threshold).
    pub replica_headroom: f64,
}

impl Default for AdaptationPolicy {
    fn default() -> Self {
        Self {
            minor_drift: 0.05,
            major_drift: 0.35,
            hot_mass: 0.5,
            replica_headroom: 1.0,
        }
    }
}

/// A per-cluster replica-count change produced by the minor-drift tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaAdjustment {
    /// `(cluster, additional replicas)` for clusters that heated up.
    pub add: Vec<(usize, usize)>,
    /// `(cluster, replicas to drop)` for clusters that cooled down (never
    /// below the two every cluster keeps).
    pub remove: Vec<(usize, usize)>,
}

impl ReplicaAdjustment {
    /// Whether the adjustment changes anything.
    pub(crate) fn is_empty(&self) -> bool {
        self.add.is_empty() && self.remove.is_empty()
    }
}

/// The outcome of [`plan_adaptation`].
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptationDecision {
    /// The drift is below the minor threshold: keep the current placement.
    NoChange(DriftReport),
    /// Minor drift: apply the replica adjustment to the existing placement.
    AdjustReplicas(DriftReport, ReplicaAdjustment),
    /// Major drift: rebuild the placement with Algorithm 1 under the new
    /// frequencies (the caller re-stages every DPU).
    FullRelocation(DriftReport),
}

impl AdaptationDecision {
    /// The drift report the decision was based on.
    pub fn drift(&self) -> &DriftReport {
        match self {
            AdaptationDecision::NoChange(d)
            | AdaptationDecision::AdjustReplicas(d, _)
            | AdaptationDecision::FullRelocation(d) => d,
        }
    }
}

/// Normalizes a frequency vector to sum to one (uniform if all-zero).
fn normalize(freqs: &[f64]) -> Vec<f64> {
    let total: f64 = freqs.iter().filter(|f| f.is_finite() && **f > 0.0).sum();
    if total <= 0.0 {
        return vec![1.0 / freqs.len().max(1) as f64; freqs.len()];
    }
    freqs
        .iter()
        .map(|&f| if f.is_finite() && f > 0.0 { f / total } else { 0.0 })
        .collect()
}

/// The smallest set of cluster ids covering `mass` of the distribution.
fn hot_set(freqs: &[f64], mass: f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..freqs.len()).collect();
    order.sort_by(|&a, &b| freqs[b].partial_cmp(&freqs[a]).unwrap_or(std::cmp::Ordering::Equal));
    let mut covered = 0.0;
    let mut set = Vec::new();
    for c in order {
        if covered >= mass || freqs[c] <= 0.0 {
            break;
        }
        covered += freqs[c];
        set.push(c);
    }
    set
}

/// Measures how far the access distribution moved between two observation
/// windows. Both inputs are per-cluster access frequencies (any non-negative
/// scale); they are normalized internally.
///
/// # Panics
/// Panics if the two vectors have different lengths or are empty.
pub(crate) fn measure_drift(old: &[f64], new: &[f64], policy: &AdaptationPolicy) -> DriftReport {
    assert_eq!(old.len(), new.len(), "frequency vectors must align");
    assert!(!old.is_empty(), "need at least one cluster");
    let old_n = normalize(old);
    let new_n = normalize(new);

    let total_variation = 0.5
        * old_n
            .iter()
            .zip(&new_n)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>();
    let max_cluster_shift = old_n
        .iter()
        .zip(&new_n)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    let hot_old = hot_set(&old_n, policy.hot_mass);
    let hot_new = hot_set(&new_n, policy.hot_mass);
    let inter = hot_new.iter().filter(|c| hot_old.contains(c)).count();
    let union = hot_old.len() + hot_new.len() - inter;
    let hot_set_overlap = if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    };

    let mut heated = 0usize;
    let mut cooled = 0usize;
    for (a, b) in old_n.iter().zip(&new_n) {
        let floor = 1.0 / (old_n.len() as f64 * 100.0);
        if *b > 2.0 * a.max(floor) {
            heated += 1;
        }
        if *a > 2.0 * b.max(floor) {
            cooled += 1;
        }
    }

    DriftReport {
        total_variation,
        hot_set_overlap,
        max_cluster_shift,
        heated_clusters: heated,
        cooled_clusters: cooled,
    }
}

/// The desired replica count of a cluster of workload `sᵢ·fᵢ` when a DPU may
/// carry `headroom` times the per-DPU average: the placement's own rule
/// ([`replica_count`], so never fewer than two on a fleet of two or more).
pub(crate) fn desired_replicas(
    cluster_size: usize,
    frequency: f64,
    per_dpu_target: f64,
    num_dpus: usize,
    headroom: f64,
) -> usize {
    replica_count(cluster_size as f64 * frequency, per_dpu_target * headroom, num_dpus)
}

/// Decides how to react to a new access pattern: keep the placement, adjust
/// replica counts, or relocate everything.
///
/// `old_freqs` are the frequencies the current `placement` was built with;
/// `new_freqs` are the frequencies observed in the latest window.
///
/// # Panics
/// Panics if the frequency vectors do not match the placement's cluster count.
pub fn plan_adaptation(
    placement: &Placement,
    cluster_sizes: &[usize],
    old_freqs: &[f64],
    new_freqs: &[f64],
    policy: &AdaptationPolicy,
) -> AdaptationDecision {
    assert_eq!(
        placement.cluster_to_dpus.len(),
        cluster_sizes.len(),
        "placement and sizes must align"
    );
    assert_eq!(cluster_sizes.len(), new_freqs.len(), "sizes and frequencies must align");
    let drift = measure_drift(old_freqs, new_freqs, policy);
    if drift.total_variation <= policy.minor_drift {
        return AdaptationDecision::NoChange(drift);
    }
    if drift.total_variation >= policy.major_drift {
        return AdaptationDecision::FullRelocation(drift);
    }

    let num_dpus = placement.dpu_workload.len();
    let new_n = floored_frequencies(&normalize(new_freqs));
    let total_workload: f64 = cluster_sizes
        .iter()
        .zip(&new_n)
        .map(|(&s, &f)| s as f64 * f)
        .sum();
    let target = total_workload / num_dpus.max(1) as f64;

    let mut add = Vec::new();
    let mut remove = Vec::new();
    for (c, &size) in cluster_sizes.iter().enumerate() {
        let want = desired_replicas(size, new_n[c], target, num_dpus, policy.replica_headroom);
        let have = placement.replicas(c);
        match want.cmp(&have) {
            std::cmp::Ordering::Greater => add.push((c, want - have)),
            std::cmp::Ordering::Less => remove.push((c, have - want)),
            std::cmp::Ordering::Equal => {}
        }
    }
    let adjustment = ReplicaAdjustment { add, remove };
    if adjustment.is_empty() {
        AdaptationDecision::NoChange(drift)
    } else {
        AdaptationDecision::AdjustReplicas(drift, adjustment)
    }
}

/// Applies a [`ReplicaAdjustment`] to a placement, producing the adapted
/// placement. New replicas land on the least-loaded DPUs with spare capacity;
/// surplus replicas are removed from the most-loaded DPUs hosting them. The
/// per-DPU workload estimates are recomputed under `new_freqs`.
///
/// # Panics
/// Panics if the inputs' cluster counts do not align.
pub fn apply_adjustment(
    placement: &Placement,
    adjustment: &ReplicaAdjustment,
    cluster_sizes: &[usize],
    new_freqs: &[f64],
    max_dpu_vectors: usize,
) -> Placement {
    assert_eq!(placement.cluster_to_dpus.len(), cluster_sizes.len());
    assert_eq!(cluster_sizes.len(), new_freqs.len());
    let num_dpus = placement.dpu_workload.len();
    let new_n = normalize(new_freqs);

    let mut cluster_to_dpus = placement.cluster_to_dpus.clone();
    let mut dpu_vectors = vec![0usize; num_dpus];
    for (c, dpus) in cluster_to_dpus.iter().enumerate() {
        for &d in dpus {
            dpu_vectors[d] += cluster_sizes[c];
        }
    }
    // Workloads under the new pattern, maintained incrementally as replicas
    // move (a cluster's load is split evenly across its current replicas).
    let mut workloads = estimate_workloads(&cluster_to_dpus, cluster_sizes, &new_n, num_dpus);
    let remove_cluster_share = |workloads: &mut Vec<f64>, dpus: &[usize], w: f64| {
        if dpus.is_empty() {
            return;
        }
        let per = w / dpus.len() as f64;
        for &d in dpus {
            workloads[d] -= per;
        }
    };
    let add_cluster_share = |workloads: &mut Vec<f64>, dpus: &[usize], w: f64| {
        if dpus.is_empty() {
            return;
        }
        let per = w / dpus.len() as f64;
        for &d in dpus {
            workloads[d] += per;
        }
    };

    // Removals first, freeing capacity for the additions.
    for &(c, count) in &adjustment.remove {
        let w = cluster_sizes[c] as f64 * new_n[c];
        for _ in 0..count {
            if cluster_to_dpus[c].len() <= 1 {
                break;
            }
            // Drop the replica on the DPU with the highest current estimated
            // workload so the removal itself improves balance.
            let (pos, _) = cluster_to_dpus[c]
                .iter()
                .enumerate()
                .max_by(|(_, &a), (_, &b)| {
                    workloads[a]
                        .partial_cmp(&workloads[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("cluster has at least two replicas here");
            remove_cluster_share(&mut workloads, &cluster_to_dpus[c], w);
            let dpu = cluster_to_dpus[c].remove(pos);
            dpu_vectors[dpu] -= cluster_sizes[c];
            add_cluster_share(&mut workloads, &cluster_to_dpus[c], w);
        }
    }

    // Additions: least-loaded DPU with capacity that does not already host the
    // cluster.
    for &(c, count) in &adjustment.add {
        let w = cluster_sizes[c] as f64 * new_n[c];
        for _ in 0..count {
            let candidate = (0..num_dpus)
                .filter(|&d| {
                    !cluster_to_dpus[c].contains(&d)
                        && dpu_vectors[d] + cluster_sizes[c] <= max_dpu_vectors
                })
                .min_by(|&a, &b| {
                    workloads[a]
                        .partial_cmp(&workloads[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            match candidate {
                Some(d) => {
                    remove_cluster_share(&mut workloads, &cluster_to_dpus[c], w);
                    cluster_to_dpus[c].push(d);
                    dpu_vectors[d] += cluster_sizes[c];
                    add_cluster_share(&mut workloads, &cluster_to_dpus[c], w);
                }
                None => break, // capacity-bound: keep fewer replicas
            }
        }
    }

    let dpu_workload = estimate_workloads(&cluster_to_dpus, cluster_sizes, &new_n, num_dpus);
    Placement {
        cluster_to_dpus,
        dpu_workload,
        dpu_vectors,
        threshold: placement.threshold,
    }
}

/// Rebuilds the placement from scratch under the new frequencies (the major-
/// drift tier: "full data relocation").
pub fn full_relocation(
    cluster_sizes: &[usize],
    new_freqs: &[f64],
    num_dpus: usize,
    max_dpu_vectors: usize,
) -> Placement {
    let input = PlacementInput::new(
        cluster_sizes.to_vec(),
        normalize(new_freqs),
        num_dpus,
        max_dpu_vectors,
    );
    place_pim_aware(&input)
}

/// Estimated per-DPU workload when every cluster's expected load is split
/// evenly across its replicas (Algorithm 1's accounting).
fn estimate_workloads(
    cluster_to_dpus: &[Vec<usize>],
    cluster_sizes: &[usize],
    freqs: &[f64],
    num_dpus: usize,
) -> Vec<f64> {
    let mut workloads = vec![0.0f64; num_dpus];
    for (c, dpus) in cluster_to_dpus.iter().enumerate() {
        if dpus.is_empty() {
            continue;
        }
        let per_replica = cluster_sizes[c] as f64 * freqs[c] / dpus.len() as f64;
        for &d in dpus {
            workloads[d] += per_replica;
        }
    }
    workloads
}

/// Convenience wrapper: measures drift, plans, and returns the adapted
/// placement together with the decision that produced it. `NoChange` returns a
/// clone of the original placement (with workloads re-estimated under the new
/// frequencies, so balance metrics stay comparable).
pub fn adapt_placement(
    placement: &Placement,
    cluster_sizes: &[usize],
    old_freqs: &[f64],
    new_freqs: &[f64],
    max_dpu_vectors: usize,
    policy: &AdaptationPolicy,
) -> (Placement, AdaptationDecision) {
    let decision = plan_adaptation(placement, cluster_sizes, old_freqs, new_freqs, policy);
    let num_dpus = placement.dpu_workload.len();
    let new_n = normalize(new_freqs);
    let adapted = match &decision {
        AdaptationDecision::NoChange(_) => Placement {
            cluster_to_dpus: placement.cluster_to_dpus.clone(),
            dpu_workload: estimate_workloads(
                &placement.cluster_to_dpus,
                cluster_sizes,
                &new_n,
                num_dpus,
            ),
            dpu_vectors: placement.dpu_vectors.clone(),
            threshold: placement.threshold,
        },
        AdaptationDecision::AdjustReplicas(_, adj) => {
            apply_adjustment(placement, adj, cluster_sizes, new_freqs, usize_max_or(max_dpu_vectors))
        }
        AdaptationDecision::FullRelocation(_) => full_relocation(
            cluster_sizes,
            new_freqs,
            num_dpus,
            usize_max_or(max_dpu_vectors),
        ),
    };
    (adapted, decision)
}

fn usize_max_or(v: usize) -> usize {
    if v == 0 {
        usize::MAX / 2
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::place_pim_aware;

    fn base_setup(clusters: usize, dpus: usize) -> (Vec<usize>, Vec<f64>, Placement) {
        let sizes: Vec<usize> = (0..clusters).map(|i| 200 + (i * 37) % 400).collect();
        let freqs: Vec<f64> = (0..clusters).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let input = PlacementInput::new(sizes.clone(), freqs.clone(), dpus, 1_000_000);
        let placement = place_pim_aware(&input);
        (sizes, freqs, placement)
    }

    #[test]
    fn identical_distributions_report_zero_drift() {
        let freqs = vec![0.4, 0.3, 0.2, 0.1];
        let d = measure_drift(&freqs, &freqs, &AdaptationPolicy::default());
        assert!(d.total_variation < 1e-12);
        assert_eq!(d.hot_set_overlap, 1.0);
        assert_eq!(d.heated_clusters, 0);
        assert_eq!(d.cooled_clusters, 0);
    }

    #[test]
    fn disjoint_hot_sets_report_high_drift() {
        let old = vec![1.0, 1.0, 0.0, 0.0];
        let new = vec![0.0, 0.0, 1.0, 1.0];
        let d = measure_drift(&old, &new, &AdaptationPolicy::default());
        assert!(d.total_variation > 0.9);
        assert!(d.hot_set_overlap < 0.5);
        assert!(d.heated_clusters >= 2);
        assert!(d.cooled_clusters >= 2);
    }

    #[test]
    fn drift_is_symmetric_and_bounded() {
        let a = vec![0.5, 0.25, 0.15, 0.1];
        let b = vec![0.1, 0.15, 0.25, 0.5];
        let p = AdaptationPolicy::default();
        let ab = measure_drift(&a, &b, &p);
        let ba = measure_drift(&b, &a, &p);
        assert!((ab.total_variation - ba.total_variation).abs() < 1e-12);
        assert!(ab.total_variation >= 0.0 && ab.total_variation <= 1.0);
        assert!(ab.hot_set_overlap >= 0.0 && ab.hot_set_overlap <= 1.0);
    }

    #[test]
    fn unnormalized_inputs_are_handled() {
        let old = vec![10.0, 30.0, 60.0];
        let new = vec![1.0, 3.0, 6.0]; // same shape, different scale
        let d = measure_drift(&old, &new, &AdaptationPolicy::default());
        assert!(d.total_variation < 1e-12);
    }

    #[test]
    fn tiny_drift_keeps_the_placement() {
        let (sizes, freqs, placement) = base_setup(24, 8);
        let mut new = freqs.clone();
        new[3] *= 1.02;
        let decision = plan_adaptation(
            &placement,
            &sizes,
            &freqs,
            &new,
            &AdaptationPolicy::default(),
        );
        assert!(matches!(decision, AdaptationDecision::NoChange(_)));
    }

    #[test]
    fn moderate_heating_adds_replicas_for_the_hot_cluster() {
        let (sizes, freqs, placement) = base_setup(24, 8);
        // Cluster 20 (previously cold) now takes a large share of traffic —
        // a moderate shift, not a wholesale change.
        let mut new = freqs.clone();
        let boost: f64 = freqs.iter().sum::<f64>() * 0.35;
        new[20] += boost;
        let policy = AdaptationPolicy::default();
        let decision = plan_adaptation(&placement, &sizes, &freqs, &new, &policy);
        match &decision {
            AdaptationDecision::AdjustReplicas(drift, adj) => {
                assert!(drift.total_variation > policy.minor_drift);
                assert!(
                    adj.add.iter().any(|&(c, n)| c == 20 && n >= 1),
                    "expected cluster 20 to gain replicas: {adj:?}"
                );
            }
            other => panic!("expected AdjustReplicas, got {other:?}"),
        }
    }

    #[test]
    fn wholesale_shift_triggers_full_relocation() {
        let (sizes, freqs, placement) = base_setup(24, 8);
        // Reverse the popularity ranking entirely.
        let new: Vec<f64> = freqs.iter().rev().copied().collect();
        let decision = plan_adaptation(
            &placement,
            &sizes,
            &freqs,
            &new,
            &AdaptationPolicy::default(),
        );
        assert!(
            matches!(decision, AdaptationDecision::FullRelocation(_)),
            "got {decision:?}"
        );
    }

    #[test]
    fn applying_an_adjustment_improves_balance_under_the_new_pattern() {
        let (sizes, freqs, placement) = base_setup(32, 8);
        // Every cluster starts at the floor of two replicas; cluster 25 must
        // heat past two DPUs' worth of work to gain a third.
        let mut new = freqs.clone();
        let boost: f64 = freqs.iter().sum::<f64>() * 0.42;
        new[25] += boost;
        let policy = AdaptationPolicy::default();
        let (adapted, decision) =
            adapt_placement(&placement, &sizes, &freqs, &new, 1_000_000, &policy);
        assert!(matches!(decision, AdaptationDecision::AdjustReplicas(..)));
        // Balance of the old placement re-evaluated under the new pattern
        // must not be better than the adapted placement's balance.
        let stale = Placement {
            cluster_to_dpus: placement.cluster_to_dpus.clone(),
            dpu_workload: estimate_workloads(
                &placement.cluster_to_dpus,
                &sizes,
                &normalize(&new),
                8,
            ),
            dpu_vectors: placement.dpu_vectors.clone(),
            threshold: placement.threshold,
        };
        assert!(
            adapted.max_to_avg_workload() <= stale.max_to_avg_workload() + 1e-9,
            "adapted {} vs stale {}",
            adapted.max_to_avg_workload(),
            stale.max_to_avg_workload()
        );
        // Structural invariants still hold.
        let input = PlacementInput::new(sizes.clone(), normalize(&new), 8, 1_000_000);
        adapted.validate(&input).unwrap();
    }

    #[test]
    fn cooled_clusters_lose_surplus_replicas_but_keep_two() {
        let (sizes, mut freqs, _) = base_setup(16, 8);
        // Build a placement where cluster 0 is extremely hot (many replicas).
        freqs[0] = freqs.iter().sum::<f64>() * 2.0;
        let input = PlacementInput::new(sizes.clone(), freqs.clone(), 8, 1_000_000);
        let placement = place_pim_aware(&input);
        assert!(placement.replicas(0) > 2);

        // Cluster 0 cools down to an average share; the rest warms slightly.
        let mut new = vec![1.0; 16];
        new[0] = 1.0;
        let policy = AdaptationPolicy {
            major_drift: 0.95, // force the incremental path for this test
            ..AdaptationPolicy::default()
        };
        let decision = plan_adaptation(&placement, &sizes, &freqs, &new, &policy);
        match &decision {
            AdaptationDecision::AdjustReplicas(_, adj) => {
                assert!(
                    adj.remove.iter().any(|&(c, _)| c == 0),
                    "expected cluster 0 to lose replicas: {adj:?}"
                );
                let adapted = apply_adjustment(&placement, adj, &sizes, &new, 1_000_000);
                assert_eq!(adapted.replicas(0), 2);
            }
            other => panic!("expected AdjustReplicas, got {other:?}"),
        }
    }

    #[test]
    fn additions_respect_dpu_capacity() {
        let sizes = vec![500usize; 8];
        let freqs = vec![1.0f64; 8];
        let input = PlacementInput::new(sizes.clone(), freqs.clone(), 4, 1_200);
        let placement = place_pim_aware(&input);
        // Heat one cluster so the planner wants more replicas than capacity
        // allows; apply_adjustment must not overflow any DPU.
        let mut new = freqs.clone();
        new[0] = 10.0;
        let adj = ReplicaAdjustment {
            add: vec![(0, 3)],
            remove: vec![],
        };
        let adapted = apply_adjustment(&placement, &adj, &sizes, &new, 1_200);
        for &v in &adapted.dpu_vectors {
            assert!(v <= 1_200, "DPU overflows capacity: {v}");
        }
    }

    #[test]
    fn desired_replica_math_matches_algorithm_one() {
        assert_eq!(desired_replicas(100, 1.0, 30.0, 16, 1.0), 4);
        assert_eq!(desired_replicas(100, 1.0, 30.0, 16, 2.0), 2); // ⌈100/60⌉
        assert_eq!(desired_replicas(1000, 1.0, 10.0, 16, 1.0), 16); // capped
        // The floor of two, however cold or small the cluster.
        assert_eq!(desired_replicas(100, 1.0, 100.0, 16, 1.0), 2);
        assert_eq!(desired_replicas(0, 1.0, 10.0, 16, 1.0), 2);
        assert_eq!(desired_replicas(100, 0.0, 10.0, 16, 1.0), 2);
        assert_eq!(desired_replicas(100, 1.0, 10.0, 1, 1.0), 1); // one DPU
        // One rule: the placement counts the same.
        assert_eq!(desired_replicas(100, 1.0, 30.0, 16, 1.0), replica_count(100.0, 30.0, 16));
    }

    #[test]
    fn full_relocation_matches_fresh_algorithm_one() {
        let (sizes, _, _) = base_setup(24, 8);
        let new: Vec<f64> = (0..24).map(|i| (24 - i) as f64).collect();
        let relocated = full_relocation(&sizes, &new, 8, 1_000_000);
        let input = PlacementInput::new(sizes.clone(), normalize(&new), 8, 1_000_000);
        let fresh = place_pim_aware(&input);
        assert_eq!(relocated.cluster_to_dpus, fresh.cluster_to_dpus);
    }

    #[test]
    fn decision_exposes_its_drift_report() {
        let (sizes, freqs, placement) = base_setup(12, 4);
        let decision = plan_adaptation(
            &placement,
            &sizes,
            &freqs,
            &freqs,
            &AdaptationPolicy::default(),
        );
        assert_eq!(decision.drift().total_variation, 0.0);
    }
}
