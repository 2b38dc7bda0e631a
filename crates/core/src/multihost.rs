//! Multi-host scale-out (§5.5): sharding the dataset across several PIM
//! hosts, with only query distribution and result aggregation crossing the
//! network.
//!
//! The paper's scalability discussion notes that UpANNS "can be easily
//! extended to multi-host configurations. Only query distribution and result
//! aggregation require cross-host communication. The core memory-intensive
//! search operations remain local to each host." This module holds the two
//! pieces of that extension that are not an engine:
//!
//! * [`shard_indexes`] — the dataset is **sharded**: every host owns a
//!   disjoint slice of the vectors (with globally unique ids) as a view of
//!   the one trained index, so every host probes the same centroids with the
//!   same codebooks, and runs a full single-host [`UpAnnsEngine`];
//! * [`InterconnectModel`] — the cost of the two network legs (the
//!   coordinator **broadcasts** the query vectors to every host and
//!   **gathers** the per-host top-k lists).
//!
//! The engine that broadcasts, waits for the slowest shard, gathers and
//! merges is [`ReplicatedMultiHost`]; the paper's deployment is its
//! one-host-per-shard, `replicas = 1`, no-faults configuration
//! (`ReplicatedMultiHost::new(engines, engines.len(), 1, interconnect)`).

use annkit::ivf::IvfPqIndex;
use annkit::vector::Dataset;

use crate::engine::UpAnnsEngine;
use crate::replica::ReplicatedMultiHost;

/// The network connecting the coordinator to the PIM hosts.
#[derive(Debug, Clone)]
pub struct InterconnectModel {
    /// Point-to-point bandwidth in bytes/s (default 100 Gb/s Ethernet-class).
    pub bandwidth_bytes_per_s: f64,
    /// One-way message latency in seconds (default 10 µs RDMA-class).
    pub latency_s: f64,
}

impl Default for InterconnectModel {
    fn default() -> Self {
        Self {
            bandwidth_bytes_per_s: 12.5e9,
            latency_s: 10e-6,
        }
    }
}

impl InterconnectModel {
    /// Time to move `bytes` to/from `peers` hosts (transfers to distinct
    /// hosts overlap on the fabric but each pays the per-message latency and
    /// shares the coordinator's NIC bandwidth).
    pub(crate) fn transfer_seconds(&self, bytes: usize, peers: usize) -> f64 {
        if peers == 0 || bytes == 0 {
            return 0.0;
        }
        self.latency_s + (bytes as f64 * peers as f64) / self.bandwidth_bytes_per_s
    }
}

/// Splits `n` rows into `hosts` contiguous shards (sizes differ by at most
/// one). Returns the row-index ranges, which double as the global id ranges
/// when each shard's index is built with the matching id offset.
pub fn shard_ranges(n: usize, hosts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(hosts > 0, "need at least one host");
    let base = n / hosts;
    let extra = n % hosts;
    let mut out = Vec::with_capacity(hosts);
    let mut start = 0usize;
    for h in 0..hosts {
        let len = base + usize::from(h < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// One shard per host, each a view of the one trained `index`:
/// `index.fresh_like()` (the parent's `Arc`-shared quantizers) plus its
/// [`shard_ranges`] slice of `data` (the corpus `index` holds, row `i` under
/// id `i`), so each list is the parent's list cut to the shard's id range,
/// with the same codes in the same order.
///
/// # Panics
/// Panics if `hosts` is zero or `index` does not hold exactly `data`'s rows.
pub fn shard_indexes(index: &IvfPqIndex, data: &Dataset, hosts: usize) -> Vec<IvfPqIndex> {
    assert_eq!(
        index.ntotal(),
        data.len() as u64,
        "shards cut the corpus the index holds"
    );
    shard_ranges(data.len(), hosts)
        .into_iter()
        .map(|rows| {
            let mut shard = index.fresh_like();
            shard.add(
                &data.gather(&rows.clone().collect::<Vec<usize>>()),
                rows.start as u64,
            );
            shard
        })
        .collect()
}

/// Benchmark-pinned constructor of the paper's §5.5 deployment: one host per
/// shard engine, no replication, no faults. A vestige — `benchmark/` names
/// `MultiHostUpAnns::new` and is edited only by `[benchmark]` PRs; drop this
/// at the next benchmark revision, like `LookupTable::adc_scan_with`.
/// In-workspace code calls [`ReplicatedMultiHost::new`] directly.
pub struct MultiHostUpAnns;

impl MultiHostUpAnns {
    /// `ReplicatedMultiHost::new(hosts, hosts.len(), 1, interconnect)`.
    ///
    /// # Panics
    /// Panics if no engines are supplied.
    #[expect(
        clippy::new_ret_no_self,
        reason = "a constructor shim for the general type"
    )]
    pub fn new(hosts: Vec<UpAnnsEngine>, interconnect: InterconnectModel) -> ReplicatedMultiHost {
        let n = hosts.len();
        ReplicatedMultiHost::new(hosts, n, 1, interconnect)
            .expect("a deployment needs at least one host")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::UpAnnsBuilder;
    use crate::config::UpAnnsConfig;
    use crate::engine::host_merge_seconds;
    use annkit::ivf::IvfPqParams;
    use annkit::synthetic::SyntheticSpec;
    use annkit::topk::Neighbor;
    use baselines::engine::{AnnEngine, QueryOptions, SearchRequest};
    use pim_sim::config::PimConfig;
    use pim_sim::stats::Stage;
    use std::sync::OnceLock;

    /// Compile-time Send audit: a multi-host deployment is a vector of
    /// single-host engines plus plain placement, fault and interconnect
    /// data, so it is `Send` exactly when `UpAnnsEngine` is (see
    /// `upanns_engine_is_send`).
    #[test]
    fn multihost_engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ReplicatedMultiHost>();
    }

    struct Deployment {
        data: Dataset,
        index: IvfPqIndex,
        shards: Vec<IvfPqIndex>,
    }

    fn deployment() -> &'static Deployment {
        static D: OnceLock<Deployment> = OnceLock::new();
        D.get_or_init(|| {
            let data = SyntheticSpec::sift_like(3_000)
                .with_clusters(16)
                .with_seed(55)
                .generate();
            let index = IvfPqIndex::train(&data, &IvfPqParams::new(12, 16).with_train_size(900), 3);
            // Two shards of the one index, with globally unique ids.
            let shards = shard_indexes(&index, &data, 2);
            Deployment {
                data,
                index,
                shards,
            }
        })
    }

    fn host_engine(index: &IvfPqIndex, config: UpAnnsConfig) -> UpAnnsEngine {
        UpAnnsBuilder::new(index)
            .with_config(config)
            .with_pim_config(PimConfig::with_dpus(8))
            .build()
    }

    /// One 8-DPU host per shard, no faults; `replicas = 1` is the paper's
    /// deployment.
    fn deploy(
        shards: &[IvfPqIndex],
        replicas: usize,
        interconnect: InterconnectModel,
    ) -> ReplicatedMultiHost {
        let engines: Vec<UpAnnsEngine> = shards
            .iter()
            .map(|ix| host_engine(ix, UpAnnsConfig::upanns()))
            .collect();
        ReplicatedMultiHost::new(engines, shards.len(), replicas, interconnect)
            .expect("valid shape")
    }

    /// Neighbor ids with distance bits.
    fn bits(results: &[Vec<Neighbor>]) -> Vec<Vec<(u64, u32)>> {
        let bits = |q: &Vec<Neighbor>| q.iter().map(|n| (n.id, n.distance.to_bits())).collect();
        results.iter().map(bits).collect()
    }

    #[test]
    fn shards_are_the_parent_lists_cut_to_their_id_ranges() {
        let dep = deployment();
        let ranges = shard_ranges(dep.data.len(), 2);
        for (shard, range) in dep.shards.iter().zip(&ranges) {
            assert_eq!(shard.ntotal(), range.len() as u64);
            for (c, list) in shard.lists().iter().enumerate() {
                let parent = dep.index.list(c);
                let kept: Vec<(u64, &[u8])> = parent
                    .ids()
                    .iter()
                    .copied()
                    .zip(parent.packed_codes().chunks_exact(dep.index.m()))
                    .filter(|&(id, _)| range.contains(&(id as usize)))
                    .collect();
                let ids: Vec<u64> = kept.iter().map(|&(id, _)| id).collect();
                let codes: Vec<u8> = kept.iter().flat_map(|&(_, code)| code.to_vec()).collect();
                assert_eq!(list.ids(), ids, "list {c}");
                assert_eq!(list.packed_codes(), codes, "list {c}");
            }
        }
    }

    #[test]
    fn shard_ranges_cover_everything_without_overlap() {
        let ranges = shard_ranges(10, 3);
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges[0], 0..4);
        assert_eq!(ranges[1], 4..7);
        assert_eq!(ranges[2], 7..10);
        let total: usize = ranges.iter().map(|r| r.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(
            shard_ranges(4, 8).iter().filter(|r| !r.is_empty()).count(),
            4
        );
    }

    #[test]
    #[should_panic(expected = "at least one host")]
    fn zero_hosts_is_rejected() {
        let _ = shard_ranges(10, 1); // fine
        let _ = MultiHostUpAnns::new(Vec::new(), InterconnectModel::default());
    }

    #[test]
    fn two_hosts_return_global_ids_and_sane_recall() {
        // Opt3 off: with it on, each shard mines its own combination table,
        // which regroups the float sums of a distance.
        let exact = || UpAnnsConfig::upanns().with_cooccurrence(false);
        let dep = deployment();
        let engines = dep
            .shards
            .iter()
            .map(|ix| host_engine(ix, exact()))
            .collect();
        let mut multi = ReplicatedMultiHost::new(engines, 2, 1, InterconnectModel::default())
            .expect("one host per shard");
        assert_eq!(multi.live_hosts(), Some(2));

        let queries = dep
            .data
            .gather(&(0..24).map(|i| i * 113 % 3000).collect::<Vec<_>>());
        let out = multi.search_batch(&queries, 6, 10);
        assert_eq!(out.results.len(), 24);
        // Global ids span both shards.
        let max_id = out
            .results
            .iter()
            .flatten()
            .map(|n| n.id)
            .max()
            .unwrap_or(0);
        assert!(max_id >= 1_500, "results never reference the second shard");

        // The shards are slices of one index, so the two hosts answer (ids
        // and distance bits, hence recall) exactly as one engine over it.
        let single = host_engine(&dep.index, exact()).search_batch(&queries, 6, 10);
        assert_eq!(bits(&out.results), bits(&single.results));
    }

    /// Growing one host to two moves shard 1 (ring placement), and the new
    /// host pulls each of its vectors' code and id once, not once per DPU
    /// replica of its list.
    #[test]
    fn a_shard_migrates_once_not_once_per_dpu_replica() {
        let dep = deployment();
        let net = InterconnectModel::default();
        let engines = dep
            .shards
            .iter()
            .map(|ix| host_engine(ix, UpAnnsConfig::upanns()))
            .collect();
        let mut multi =
            ReplicatedMultiHost::new(engines, 1, 1, net.clone()).expect("two shards on one host");
        let moved = multi.scale_to(2, 0.0).expect("growing is valid");
        let bytes = dep.shards[1].ntotal() as usize * (dep.index.m() + 8);
        assert_eq!(moved, net.transfer_seconds(bytes, 1));
    }

    #[test]
    fn search_time_includes_network_and_slowest_host() {
        let dep = deployment();
        let net = InterconnectModel::default();
        let mut multi = deploy(&dep.shards, 1, net.clone());
        let queries = dep.data.gather(&[1, 2, 3, 4]);
        let options = vec![QueryOptions::new(5, 4); 4];
        // Dispatched at a non-zero simulated time: the engine works on the
        // absolute clock internally, the response must not.
        let request = SearchRequest::new(queries.clone(), options).with_at(7.5);
        let out = multi.execute(&request);

        // With hosts == shards, r = 1 and no faults the response is exactly
        // the paper's four legs: broadcast, the slowest shard, gather, merge.
        let slowest = dep
            .shards
            .iter()
            .map(|ix| {
                host_engine(ix, UpAnnsConfig::upanns())
                    .execute(&request)
                    .seconds
            })
            .fold(0.0f64, f64::max);
        let broadcast = net.transfer_seconds(4 * queries.dim() * 4, 1);
        let gather = net.transfer_seconds(4 * 5 * 12, 1);
        // Two shards' 4 × 5 candidates, at the engine's own merge rate.
        let merge = host_merge_seconds(2 * 4 * 5);
        let expected = broadcast + slowest + gather + merge;
        // Relative, not bitwise: `(start + s) - start` need not equal `s`.
        assert!(
            (out.seconds - expected).abs() <= 1e-12 * expected,
            "modeled {} s, four legs sum to {expected} s",
            out.seconds
        );
        assert_eq!(out.breakdown.seconds(Stage::QueryBroadcast), broadcast);
        assert_eq!(out.breakdown.seconds(Stage::ResultGather), gather);
        assert_eq!(out.breakdown.seconds(Stage::CoordinatorMerge), merge);
        assert!(broadcast > 0.0 && gather > 0.0 && merge > 0.0);
        assert_eq!(
            (out.stats.degraded, out.stats.hedged, out.stats.redispatched),
            (0, 0, 0)
        );
        assert!(out.qps() > 0.0);

        // A slower fabric makes the same batch slower, all else equal.
        let slow = InterconnectModel {
            bandwidth_bytes_per_s: 1e6,
            latency_s: 5e-3,
        };
        let slow_out = deploy(&dep.shards, 1, slow).execute(&request);
        assert!(slow_out.seconds > out.seconds);
        // The answers do not depend on the fabric.
        for (a, b) in out.results.iter().zip(&slow_out.results) {
            assert_eq!(
                a.iter().map(|n| n.id).collect::<Vec<_>>(),
                b.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn energy_model_aggregates_hosts() {
        let dep = deployment();
        let one = deploy(&dep.shards[..1], 1, InterconnectModel::default());
        let two = deploy(&dep.shards, 1, InterconnectModel::default());
        let e1 = one.energy_model();
        let e2 = two.energy_model();
        assert!((e2.peak_watts - 2.0 * e1.peak_watts).abs() < 1e-9);
        assert!(e2.price_usd > e1.price_usd);
        assert_eq!(two.name(), "UpANNS x2 hosts r1 (2 shards)");

        // Two replicas store and power every shard's DPUs twice.
        let e2x = deploy(&dep.shards, 2, InterconnectModel::default()).energy_model();
        assert!((e2x.peak_watts - 2.0 * e2.peak_watts).abs() < 1e-9);
        assert!((e2x.price_usd - 2.0 * e2.price_usd).abs() < 1e-9);
    }

    #[test]
    fn interconnect_transfer_model_is_monotone() {
        let net = InterconnectModel::default();
        assert_eq!(net.transfer_seconds(0, 4), 0.0);
        assert_eq!(net.transfer_seconds(1024, 0), 0.0);
        assert!(net.transfer_seconds(1 << 20, 2) > net.transfer_seconds(1 << 20, 1));
        assert!(net.transfer_seconds(1 << 24, 1) > net.transfer_seconds(1 << 12, 1));
    }
}
