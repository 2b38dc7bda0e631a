//! Opt1 (runtime extension): adapting the data placement to query-pattern
//! drift — §4.1.2 of the paper.
//!
//! UpANNS targets workloads whose query pattern changes "regularly (e.g.,
//! every few days) and incrementally". DPUs cannot talk to each other, so
//! reacting to a new pattern means the *host* restages data, in one of two
//! tiers:
//!
//! 1. **Minor drift** — [`replica_adjustment`] and [`apply_adjustment`]:
//!    clusters that heated up gain replicas, clusters that cooled down lose
//!    surplus ones, and only those are re-staged.
//! 2. **Major drift** — [`full_relocation`]: Algorithm 1 from scratch, every
//!    DPU reloaded.
//!
//! Drift is one number, the total-variation distance between two windows'
//! access frequencies: at most `MINOR_DRIFT` keeps the placement, at least
//! `MAJOR_DRIFT` relocates, anything between adjusts. [`adapt_placement`] is
//! the one call a refresh would make, and
//! [`UpAnnsBuilder::with_placement`](crate::builder::UpAnnsBuilder::with_placement)
//! turns its placement back into an engine (`tests/adaptive_and_robustness.rs`).
//! `figures -- drift` measures each tier, called directly, and
//! `tests/experiment_shapes.rs` pins what it reads; nothing calls the tiers
//! at serve time yet.

use crate::placement::{
    floored_frequencies, place_pim_aware, replica_count, Placement, PlacementInput,
};

/// Total-variation drift up to which the placement is left untouched. A
/// guess: no workload has measured where adjusting starts to pay.
pub(crate) const MINOR_DRIFT: f64 = 0.05;

/// Total-variation drift from which Algorithm 1 reruns from scratch. A
/// guess: no workload has measured where the cheap tier stops recovering
/// what drift costs.
pub(crate) const MAJOR_DRIFT: f64 = 0.35;

/// A per-cluster replica-count change produced by the minor-drift tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaAdjustment {
    /// `(cluster, additional replicas)` for clusters that heated up.
    pub add: Vec<(usize, usize)>,
    /// `(cluster, replicas to drop)` for clusters that cooled down (never
    /// below the two every cluster keeps).
    pub remove: Vec<(usize, usize)>,
}

/// The tier [`adapt_placement`] picked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptationDecision {
    /// The drift is at most `MINOR_DRIFT`, or no replica count changes:
    /// keep the current placement.
    NoChange,
    /// Minor drift: apply the replica adjustment to the existing placement.
    AdjustReplicas(ReplicaAdjustment),
    /// Major drift: rebuild the placement with Algorithm 1 under the new
    /// frequencies (the caller re-stages every DPU).
    FullRelocation,
}

/// Normalizes a frequency vector to sum to one (uniform if all-zero).
fn normalize(freqs: &[f64]) -> Vec<f64> {
    let total: f64 = freqs.iter().filter(|f| f.is_finite() && **f > 0.0).sum();
    if total <= 0.0 {
        return vec![1.0 / freqs.len().max(1) as f64; freqs.len()];
    }
    freqs
        .iter()
        .map(|&f| {
            if f.is_finite() && f > 0.0 {
                f / total
            } else {
                0.0
            }
        })
        .collect()
}

/// How far the access distribution moved between two windows of per-cluster
/// access frequencies (any non-negative scale): the total-variation distance
/// of the normalized vectors, 0 for identical and 1 for disjoint supports.
///
/// # Panics
/// Panics if the two vectors have different lengths or are empty.
pub(crate) fn total_variation(old: &[f64], new: &[f64]) -> f64 {
    assert_eq!(old.len(), new.len(), "frequency vectors must align");
    assert!(!old.is_empty(), "need at least one cluster");
    0.5 * normalize(old)
        .iter()
        .zip(&normalize(new))
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
}

/// The minor tier's plan: every cluster's replica count under `new_freqs` by
/// the placement's own rule (`placement::replica_count` against the unrelaxed
/// per-DPU average), compared with what `placement` gives it. `None` when no
/// count changes.
///
/// # Panics
/// Panics if the inputs' cluster counts do not align.
pub fn replica_adjustment(
    placement: &Placement,
    cluster_sizes: &[usize],
    new_freqs: &[f64],
) -> Option<ReplicaAdjustment> {
    assert_eq!(
        placement.cluster_to_dpus.len(),
        cluster_sizes.len(),
        "placement and sizes must align"
    );
    assert_eq!(
        cluster_sizes.len(),
        new_freqs.len(),
        "sizes and frequencies must align"
    );
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
        let want = replica_count(size as f64 * new_n[c], target, num_dpus);
        let have = placement.replicas(c);
        match want.cmp(&have) {
            std::cmp::Ordering::Greater => add.push((c, want - have)),
            std::cmp::Ordering::Less => remove.push((c, have - want)),
            std::cmp::Ordering::Equal => {}
        }
    }
    (!add.is_empty() || !remove.is_empty()).then_some(ReplicaAdjustment { add, remove })
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
    // A negative `w` takes the share off again.
    let mut workloads = estimate_workloads(&cluster_to_dpus, cluster_sizes, &new_n, num_dpus);
    let add_cluster_share = |workloads: &mut Vec<f64>, dpus: &[usize], w: f64| {
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
            add_cluster_share(&mut workloads, &cluster_to_dpus[c], -w);
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
                    add_cluster_share(&mut workloads, &cluster_to_dpus[c], -w);
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
        let per_replica = cluster_sizes[c] as f64 * freqs[c] / dpus.len() as f64;
        for &d in dpus {
            workloads[d] += per_replica;
        }
    }
    workloads
}

/// The refresh's one call: picks the tier for the drift from `old_freqs`
/// (the frequencies `placement` was built with) to `new_freqs` (those of the
/// latest window), and returns the adapted placement together with the
/// decision that produced it. `NoChange` returns a clone of the original
/// placement (with workloads re-estimated under the new frequencies, so
/// balance metrics stay comparable). No DPU may hold more than
/// `max_dpu_vectors` vectors.
pub fn adapt_placement(
    placement: &Placement,
    cluster_sizes: &[usize],
    old_freqs: &[f64],
    new_freqs: &[f64],
    max_dpu_vectors: usize,
) -> (Placement, AdaptationDecision) {
    let drift = total_variation(old_freqs, new_freqs);
    let decision = if drift <= MINOR_DRIFT {
        AdaptationDecision::NoChange
    } else if drift >= MAJOR_DRIFT {
        AdaptationDecision::FullRelocation
    } else {
        match replica_adjustment(placement, cluster_sizes, new_freqs) {
            Some(adjustment) => AdaptationDecision::AdjustReplicas(adjustment),
            None => AdaptationDecision::NoChange,
        }
    };
    let num_dpus = placement.dpu_workload.len();
    let adapted = match &decision {
        AdaptationDecision::NoChange => Placement {
            dpu_workload: estimate_workloads(
                &placement.cluster_to_dpus,
                cluster_sizes,
                &normalize(new_freqs),
                num_dpus,
            ),
            ..placement.clone()
        },
        AdaptationDecision::AdjustReplicas(adj) => {
            apply_adjustment(placement, adj, cluster_sizes, new_freqs, max_dpu_vectors)
        }
        AdaptationDecision::FullRelocation => {
            full_relocation(cluster_sizes, new_freqs, num_dpus, max_dpu_vectors)
        }
    };
    (adapted, decision)
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
        assert!(total_variation(&freqs, &freqs) < 1e-12);
    }

    #[test]
    fn disjoint_supports_report_high_drift() {
        let old = vec![1.0, 1.0, 0.0, 0.0];
        let new = vec![0.0, 0.0, 1.0, 1.0];
        assert!(total_variation(&old, &new) > 0.9);
    }

    #[test]
    fn drift_is_symmetric_and_bounded() {
        let a = vec![0.5, 0.25, 0.15, 0.1];
        let b = vec![0.1, 0.15, 0.25, 0.5];
        let ab = total_variation(&a, &b);
        assert!((ab - total_variation(&b, &a)).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&ab));
    }

    #[test]
    fn unnormalized_inputs_are_handled() {
        let old = vec![10.0, 30.0, 60.0];
        let new = vec![1.0, 3.0, 6.0]; // same shape, different scale
        assert!(total_variation(&old, &new) < 1e-12);
    }

    /// Four equal clusters, two replicas each on eight DPUs: any cluster
    /// heated above a quarter of the traffic wants a third replica, so every
    /// input below is a real adjustment unless the drift rule says otherwise.
    /// The query counts put the drift exactly on each constant.
    #[test]
    fn the_tiers_switch_at_the_two_constants() {
        let sizes = vec![100usize; 4];
        let old = vec![1.0; 4];
        let placement = place_pim_aware(&PlacementInput::new(sizes.clone(), old.clone(), 8, 1_000));
        let tier = |counts: [u32; 4], drift: f64| {
            let new: Vec<f64> = counts.iter().map(|&c| f64::from(c)).collect();
            assert_eq!(total_variation(&old, &new), drift, "{counts:?}");
            assert!(replica_adjustment(&placement, &sizes, &new).is_some());
            match adapt_placement(&placement, &sizes, &old, &new, 1_000_000).1 {
                AdaptationDecision::NoChange => "keep",
                AdaptationDecision::AdjustReplicas(_) => "adjust",
                AdaptationDecision::FullRelocation => "relocate",
            }
        };
        assert_eq!(MINOR_DRIFT, 0.05);
        assert_eq!(MAJOR_DRIFT, 0.35);
        assert_eq!(tier([6, 4, 5, 5], 0.049_999_999_999_999_99), "keep");
        assert_eq!(tier([15, 11, 12, 12], MINOR_DRIFT), "keep");
        assert_eq!(tier([16, 10, 12, 12], 0.07), "adjust");
        assert_eq!(tier([11, 5, 2, 2], 0.300_000_000_000_000_04), "adjust");
        assert_eq!(tier([6, 2, 1, 1], MAJOR_DRIFT), "relocate");
        assert_eq!(tier([7, 1, 1, 1], 0.45), "relocate");
    }

    #[test]
    fn tiny_drift_keeps_the_placement() {
        let (sizes, freqs, placement) = base_setup(24, 8);
        let mut new = freqs.clone();
        new[3] *= 1.02;
        assert!(total_variation(&freqs, &new) <= MINOR_DRIFT);
        let decision = adapt_placement(&placement, &sizes, &freqs, &new, 1_000_000).1;
        assert_eq!(decision, AdaptationDecision::NoChange);
    }

    #[test]
    fn moderate_heating_adds_replicas_for_the_hot_cluster() {
        let (sizes, freqs, placement) = base_setup(24, 8);
        // Cluster 20 (previously cold) now takes a large share of traffic —
        // a moderate shift, not a wholesale change.
        let mut new = freqs.clone();
        let boost: f64 = freqs.iter().sum::<f64>() * 0.35;
        new[20] += boost;
        let drift = total_variation(&freqs, &new);
        assert!(MINOR_DRIFT < drift && drift < MAJOR_DRIFT, "{drift}");
        match adapt_placement(&placement, &sizes, &freqs, &new, 1_000_000).1 {
            AdaptationDecision::AdjustReplicas(adj) => assert!(
                adj.add.iter().any(|&(c, n)| c == 20 && n >= 1),
                "expected cluster 20 to gain replicas: {adj:?}"
            ),
            other => panic!("expected AdjustReplicas, got {other:?}"),
        }
    }

    #[test]
    fn wholesale_shift_triggers_full_relocation() {
        let (sizes, freqs, placement) = base_setup(24, 8);
        // Reverse the popularity ranking entirely.
        let new: Vec<f64> = freqs.iter().rev().copied().collect();
        assert!(total_variation(&freqs, &new) >= MAJOR_DRIFT);
        let decision = adapt_placement(&placement, &sizes, &freqs, &new, 1_000_000).1;
        assert_eq!(decision, AdaptationDecision::FullRelocation);
    }

    #[test]
    fn applying_an_adjustment_improves_balance_under_the_new_pattern() {
        let (sizes, freqs, placement) = base_setup(32, 8);
        // Every cluster starts at the floor of two replicas; cluster 25 must
        // heat past two DPUs' worth of work to gain a third.
        let mut new = freqs.clone();
        let boost: f64 = freqs.iter().sum::<f64>() * 0.42;
        new[25] += boost;
        let (adapted, decision) = adapt_placement(&placement, &sizes, &freqs, &new, 1_000_000);
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

        // Cluster 0 cools down to an average share: a major drift, so the
        // minor tier's plan is asked for directly.
        let new = vec![1.0; 16];
        let adj = replica_adjustment(&placement, &sizes, &new).expect("cluster 0 cooled");
        assert!(
            adj.remove.iter().any(|&(c, _)| c == 0),
            "expected cluster 0 to lose replicas: {adj:?}"
        );
        let adapted = apply_adjustment(&placement, &adj, &sizes, &new, 1_000_000);
        assert_eq!(adapted.replicas(0), 2);
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
    fn full_relocation_matches_fresh_algorithm_one() {
        let (sizes, _, _) = base_setup(24, 8);
        let new: Vec<f64> = (0..24).map(|i| (24 - i) as f64).collect();
        let relocated = full_relocation(&sizes, &new, 8, 1_000_000);
        let input = PlacementInput::new(sizes.clone(), normalize(&new), 8, 1_000_000);
        let fresh = place_pim_aware(&input);
        assert_eq!(relocated.cluster_to_dpus, fresh.cluster_to_dpus);
    }
}
