//! Opt1 (online half): query scheduling — Algorithm 2 of the paper.
//!
//! After cluster filtering, every query owns a set of `nprobe` clusters to
//! scan. Each (query, cluster) pair must be executed on exactly one DPU that
//! holds a replica of the cluster. Single-replica clusters have no choice;
//! replicated clusters are assigned greedily (largest clusters first) to the
//! least-loaded replica DPU, which is what keeps the per-DPU workload ratio
//! of Figure 11 close to 1 at runtime.

use crate::placement::Placement;
use pim_sim::stats::max_over_busy_mean;

/// One unit of work for a DPU: scan cluster `cluster` for query `query`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Index of the query within the batch.
    pub query: usize,
    /// Cluster id to scan.
    pub cluster: usize,
}

/// The output of query scheduling for one batch.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Work list per DPU.
    pub per_dpu: Vec<Vec<Assignment>>,
    /// Estimated workload (candidate vectors to scan) per DPU.
    pub dpu_workload: Vec<u64>,
}

impl Schedule {
    /// Total number of (query, cluster) assignments.
    pub fn total_assignments(&self) -> usize {
        self.per_dpu.iter().map(|v| v.len()).sum()
    }

    /// The largest number of assignments on any DPU (drives the padded,
    /// uniform host→DPU transfer size).
    pub(crate) fn max_assignments_per_dpu(&self) -> usize {
        self.per_dpu.iter().map(|v| v.len()).max().unwrap_or(0)
    }

    /// Ratio of the most-loaded DPU's estimated workload to the average over
    /// busy DPUs — the runtime counterpart of Figure 11.
    pub fn max_to_avg_workload(&self) -> f64 {
        // Integers far below 2⁵³: the f64 sum is exact.
        max_over_busy_mean(self.dpu_workload.iter().map(|&w| w as f64))
    }

    /// Checks that every (query, cluster) pair from `filtered` appears exactly
    /// once, on a DPU that actually holds the cluster.
    pub fn validate(&self, filtered: &[Vec<usize>], placement: &Placement) -> Result<(), String> {
        let mut expected = std::collections::HashSet::new();
        for (q, clusters) in filtered.iter().enumerate() {
            for &c in clusters {
                expected.insert((q, c));
            }
        }
        let mut seen = std::collections::HashSet::new();
        for (dpu, assignments) in self.per_dpu.iter().enumerate() {
            for a in assignments {
                if !placement.cluster_to_dpus[a.cluster].contains(&dpu) {
                    return Err(format!(
                        "assignment (q{}, c{}) landed on DPU {dpu} which has no replica",
                        a.query, a.cluster
                    ));
                }
                if !seen.insert((a.query, a.cluster)) {
                    return Err(format!(
                        "assignment (q{}, c{}) scheduled twice",
                        a.query, a.cluster
                    ));
                }
            }
        }
        if seen != expected {
            return Err(format!(
                "schedule covers {} pairs, expected {}",
                seen.len(),
                expected.len()
            ));
        }
        Ok(())
    }
}

/// Algorithm 2: greedy workload-balancing assignment of filtered clusters to
/// replica DPUs.
///
/// `filtered[q]` is the list of cluster ids query `q` probes (the output of
/// cluster filtering). `cluster_sizes[c]` is used as the workload estimate of
/// scanning cluster `c` once.
pub fn schedule_queries(
    filtered: &[Vec<usize>],
    placement: &Placement,
    cluster_sizes: &[usize],
) -> Schedule {
    let num_dpus = placement.dpu_workload.len();
    let mut per_dpu: Vec<Vec<Assignment>> = vec![Vec::new(); num_dpus];
    let mut dpu_workload = vec![0u64; num_dpus];

    // Pass 1 (lines 2–7): clusters with a single replica have no freedom;
    // schedule them first and account for their load.
    let mut multi_replica: Vec<Assignment> = Vec::new();
    for (q, clusters) in filtered.iter().enumerate() {
        for &c in clusters {
            let replicas = &placement.cluster_to_dpus[c];
            if replicas.len() == 1 {
                let d = replicas[0];
                per_dpu[d].push(Assignment {
                    query: q,
                    cluster: c,
                });
                dpu_workload[d] += cluster_sizes[c] as u64;
            } else {
                multi_replica.push(Assignment {
                    query: q,
                    cluster: c,
                });
            }
        }
    }

    // Pass 2 (lines 8–14): remaining clusters sorted by size descending, each
    // assigned to the least-loaded DPU among its replicas.
    multi_replica.sort_by(|a, b| cluster_sizes[b.cluster].cmp(&cluster_sizes[a.cluster]));
    for a in multi_replica {
        let replicas = &placement.cluster_to_dpus[a.cluster];
        let best = replicas
            .iter()
            .copied()
            .min_by_key(|&d| dpu_workload[d] + cluster_sizes[a.cluster] as u64)
            .expect("validated placements have at least one replica");
        per_dpu[best].push(a);
        dpu_workload[best] += cluster_sizes[a.cluster] as u64;
    }

    Schedule {
        per_dpu,
        dpu_workload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{place_pim_aware, place_round_robin, PlacementInput};

    fn skewed_setup(clusters: usize, dpus: usize) -> (PlacementInput, Vec<usize>, Vec<Vec<usize>>) {
        let sizes: Vec<usize> = (0..clusters).map(|i| 2000 / (i + 1) + 20).collect();
        // Access frequency: the first few clusters are very hot.
        let freqs: Vec<f64> = (0..clusters).map(|i| 1.0 / (i + 1) as f64).collect();
        let input = PlacementInput::new(sizes.clone(), freqs.clone(), dpus, 1_000_000);
        // A batch of 200 queries, each probing 4 clusters, biased to hot ones.
        let mut filtered = Vec::new();
        for q in 0..200usize {
            let mut probes = Vec::new();
            for j in 0..4usize {
                let c = (q * (j + 1) * 7) % clusters;
                let c = if q % 3 == 0 { c % 4 } else { c }; // extra heat on clusters 0..4
                if !probes.contains(&c) {
                    probes.push(c);
                }
            }
            filtered.push(probes);
        }
        (input, sizes, filtered)
    }

    #[test]
    fn every_pair_scheduled_exactly_once_on_a_replica() {
        let (input, sizes, filtered) = skewed_setup(32, 8);
        let placement = place_pim_aware(&input);
        let schedule = schedule_queries(&filtered, &placement, &sizes);
        schedule.validate(&filtered, &placement).unwrap();
        assert_eq!(
            schedule.total_assignments(),
            filtered.iter().map(|f| f.len()).sum::<usize>()
        );
    }

    #[test]
    fn balanced_placement_plus_scheduling_beats_round_robin() {
        let (input, sizes, filtered) = skewed_setup(64, 16);
        let aware = place_pim_aware(&input);
        let naive = place_round_robin(&input);
        let s_aware = schedule_queries(&filtered, &aware, &sizes);
        let s_naive = schedule_queries(&filtered, &naive, &sizes);
        s_aware.validate(&filtered, &aware).unwrap();
        s_naive.validate(&filtered, &naive).unwrap();
        assert!(
            s_aware.max_to_avg_workload() < s_naive.max_to_avg_workload(),
            "aware {} vs naive {}",
            s_aware.max_to_avg_workload(),
            s_naive.max_to_avg_workload()
        );
    }

    #[test]
    fn replicated_clusters_spread_across_their_dpus() {
        let (mut input, _, _) = skewed_setup(16, 8);
        input.cluster_sizes[0] = 10_000;
        input.frequencies[0] = 5.0;
        let placement = place_pim_aware(&input);
        assert!(placement.replicas(0) > 1);
        // Every query probes the hot cluster 0.
        let filtered: Vec<Vec<usize>> = (0..100).map(|_| vec![0usize]).collect();
        let sizes = input.cluster_sizes.clone();
        let schedule = schedule_queries(&filtered, &placement, &sizes);
        schedule.validate(&filtered, &placement).unwrap();
        // The hot cluster's work should land on more than one DPU.
        assert!(schedule.per_dpu.iter().filter(|a| !a.is_empty()).count() > 1);
        assert!(schedule.max_to_avg_workload() < 1.5);
    }

    #[test]
    fn empty_batch_yields_empty_schedule() {
        let (input, sizes, _) = skewed_setup(8, 4);
        let placement = place_pim_aware(&input);
        let schedule = schedule_queries(&[], &placement, &sizes);
        assert_eq!(schedule.total_assignments(), 0);
        assert_eq!(schedule.max_assignments_per_dpu(), 0);
        assert_eq!(schedule.max_to_avg_workload(), 1.0);
        schedule.validate(&[], &placement).unwrap();
    }

    #[test]
    fn validate_rejects_foreign_dpus_and_duplicates() {
        let (input, sizes, filtered) = skewed_setup(8, 4);
        let placement = place_round_robin(&input);
        let mut schedule = schedule_queries(&filtered, &placement, &sizes);
        // Duplicate an assignment.
        let first = schedule.per_dpu.iter().position(|v| !v.is_empty()).unwrap();
        let dup = schedule.per_dpu[first][0];
        schedule.per_dpu[first].push(dup);
        assert!(schedule.validate(&filtered, &placement).is_err());
    }
}
