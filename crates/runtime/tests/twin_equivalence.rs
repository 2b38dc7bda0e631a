//! Property-based twin-equivalence tests: the threaded pipeline in
//! **logical-trace mode** must produce exactly the same answer map
//! (`query_id -> result ids`, in stream order) as the single-threaded
//! [`SearchService::replay`] — across engines, worker counts, tenant mixes,
//! repeat fractions, batch caps, and both dispatch disciplines.
//!
//! This is the twin contract the CI byte-diff enforces on one fixed
//! configuration, generalized by proptest over the configuration space. The
//! argument for why it *should* hold: every answer is a pure function of
//! (query vector, k, nprobe, index), so batching, chunking, worker count
//! and scheduling order can change *when* a query is answered but never
//! *what* the answer is — provided nothing is shed, which logical mode
//! guarantees by widening admission to the stream (and the replay side is
//! given the same widened queue here).

use std::sync::OnceLock;

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::synthetic::{SyntheticDataset, SyntheticSpec};
use annkit::topk::Neighbor;
use annkit::workload::{
    MultiTenantSpec, MutationSpec, QueryStream, StreamSpec, TenantId, TenantSpec, WorkloadSpec,
};
use baselines::cpu::CpuFaissEngine;
use baselines::engine::{AnnEngine, QueryOptions};
use baselines::gpu::GpuFaissEngine;
use pim_sim::config::PimConfig;
use proptest::prelude::*;
use upanns::builder::UpAnnsBuilder;
use upanns::compaction::{plan_live_index, CompactionPolicy};
use upanns::config::UpAnnsConfig;
use upanns::engine::UpAnnsEngine;
use upanns::multihost::{shard_indexes, InterconnectModel};
use upanns::replica::{FaultEvent, FaultSchedule, ReplicatedMultiHost};
use upanns_runtime::{run_pipeline, RuntimeConfig};
use upanns_serve::service::ServiceConfig;
use upanns_serve::{FixedPolicy, SearchService};

/// One shared small fixture: index training dominates the test's cost, so
/// every proptest case reuses it (the *stream* varies per case, the corpus
/// does not need to).
fn fixture() -> &'static (SyntheticDataset, IvfPqIndex) {
    static FIXTURE: OnceLock<(SyntheticDataset, IvfPqIndex)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = SyntheticSpec::sift_like(800)
            .with_clusters(8)
            .with_seed(41)
            .generate_with_meta();
        let index = IvfPqIndex::train(&data.vectors, &IvfPqParams::new(24, 8), 3);
        (data, index)
    })
}

/// The same index cut into three shards with globally unique ids, for the
/// replicated fault-injection twin property.
fn sharded_fixture() -> &'static Vec<IvfPqIndex> {
    static SHARDS: OnceLock<Vec<IvfPqIndex>> = OnceLock::new();
    SHARDS.get_or_init(|| {
        let (data, index) = fixture();
        shard_indexes(index, &data.vectors, 3)
    })
}

/// A small PIM-backed engine (the paper's); kept tiny so building one per
/// worker per case stays cheap.
fn build_upanns(index: &IvfPqIndex, data: &SyntheticDataset) -> UpAnnsEngine {
    UpAnnsBuilder::new(index)
        .with_config(UpAnnsConfig::upanns().with_work_scale(500.0))
        .with_pim_config(PimConfig::with_dpus(64))
        .with_history(&data.vectors, 8)
        .build()
}

/// The per-query options both sides resolve identically: the stream's
/// planned (k, nprobe) tier when one exists, tagged with the query's tenant.
fn planned(stream: &QueryStream, i: usize) -> QueryOptions {
    let (k, nprobe) = stream
        .option_plan
        .get(i)
        .copied()
        .unwrap_or_else(|| (QueryOptions::default().k, QueryOptions::default().nprobe));
    QueryOptions::new(k, nprobe).with_tenant(stream.tenant(i))
}

/// Projects per-query results down to the id map the contract is stated
/// over (distances are a function of the ids, but ids are what callers act
/// on and what the CI byte-diff serializes).
fn answer_ids(results: &[Vec<Neighbor>]) -> Vec<Vec<u64>> {
    results
        .iter()
        .map(|r| r.iter().map(|n| n.id).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The generalized twin contract (see the module docs).
    #[test]
    fn logical_twin_matches_replay(
        engine_kind in 0usize..3,
        workers in 1usize..=3,
        n in 20usize..60,
        seed in 0u64..1_000,
        repeat_bit in 0u8..2,
        two_tenants_bit in 0u8..2,
        max_batch in 2usize..32,
        chunked_bit in 0u8..2,
    ) {
        let repeat = if repeat_bit == 1 { 0.3 } else { 0.0 };
        let two_tenants = two_tenants_bit == 1;
        let chunked = chunked_bit == 1;
        let (data, index) = fixture();
        let stream = if two_tenants {
            MultiTenantSpec::new()
                .with_tenant(
                    TenantSpec::new(
                        TenantId(1),
                        StreamSpec::new(n, 900.0)
                            .with_workload(WorkloadSpec::new(n).with_seed(seed))
                            .with_repeat_fraction(repeat)
                            .with_slo_p99(0.5),
                    )
                    .with_name("tight")
                    .with_weight(2)
                    .with_option_mix(vec![(10, 8)]),
                )
                .with_tenant(
                    TenantSpec::new(
                        TenantId(2),
                        StreamSpec::new(2 * n, 1_800.0)
                            .with_workload(WorkloadSpec::new(2 * n).with_seed(seed ^ 0x5bd1))
                            .with_repeat_fraction(repeat),
                    )
                    .with_name("bulk")
                    .with_option_mix(vec![(10, 4), (20, 8)]),
                )
                .generate(data)
        } else {
            StreamSpec::new(n, 1_200.0)
                .with_workload(WorkloadSpec::new(n).with_seed(seed))
                .with_repeat_fraction(repeat)
                .generate(data)
        };

        let mut config = ServiceConfig::default();
        // Neither side may shed: a total answer map is part of the contract.
        config.queue_capacity = config.queue_capacity.max(stream.len());
        config.batcher.max_batch = max_batch;
        if chunked {
            config.max_chunk = Some(4);
        }

        macro_rules! compare {
            ($build:expr) => {{
                let replay_results = {
                    let mut service = SearchService::new($build, config);
                    service.replay(&stream, |i| planned(&stream, i)).results
                };
                let engines: Vec<_> = (0..workers).map(|_| $build).collect();
                let report = run_pipeline(
                    engines,
                    &stream,
                    |i| planned(&stream, i),
                    Box::new(FixedPolicy(config.batcher)),
                    RuntimeConfig::logical(config),
                );
                prop_assert!(report.is_conserving(), "twin run lost or duplicated queries");
                prop_assert_eq!(report.shed, 0, "logical mode is shed-proof");
                (replay_results, report.service.results)
            }};
        }

        let (replay_results, twin_results) = match engine_kind {
            0 => compare!(CpuFaissEngine::new(index)),
            1 => compare!(GpuFaissEngine::new(index)),
            _ => compare!(build_upanns(index, data)),
        };

        prop_assert_eq!(replay_results.len(), stream.len());
        prop_assert_eq!(
            answer_ids(&replay_results),
            answer_ids(&twin_results),
            "threaded logical-trace answers diverged from the replay \
             (engine_kind={}, workers={}, chunked={})",
            engine_kind,
            workers,
            chunked
        );
    }

    /// The twin contract survives live index mutation: with a random
    /// upsert/delete schedule planned into a snapshot timeline (including
    /// skew-triggered compaction windows), the threaded logical pipeline
    /// answers identically to the replay and conserves every query. Both
    /// sides resolve each query's serving snapshot at its arrival time and
    /// stamp cache entries with that snapshot's epoch, so batching, chunking and
    /// worker count still cannot change *what* is answered — only *when*.
    #[test]
    fn mutating_stream_twin_matches_replay(
        engine_kind in 0usize..3,
        workers in 1usize..=3,
        n in 20usize..50,
        seed in 0u64..1_000,
        upsert_qps in 5.0f64..60.0,
        delete_qps in 0.0f64..30.0,
        max_batch in 2usize..16,
        chunked_bit in 0u8..2,
    ) {
        let (data, index) = fixture();
        let stream = StreamSpec::new(n, 600.0)
            .with_workload(WorkloadSpec::new(n).with_seed(seed))
            .with_repeat_fraction(0.3)
            .generate(data);
        // Mutations arrive throughout the query stream; the planner turns
        // them into the epoch-snapshot timeline both runtimes serve from.
        let mutations = MutationSpec::new(stream.duration())
            .with_tenant(TenantId(1), upsert_qps, delete_qps)
            .with_seed(seed ^ 0xA5A5)
            .generate(data, index.ntotal());
        let plan = plan_live_index(
            index,
            &mutations,
            (stream.duration() / 8.0).max(1e-6),
            &CompactionPolicy::default(),
        );

        let mut config = ServiceConfig::default();
        config.queue_capacity = config.queue_capacity.max(stream.len());
        config.batcher.max_batch = max_batch;
        if chunked_bit == 1 {
            config.max_chunk = Some(4);
        }

        macro_rules! compare_live {
            ($build:expr) => {{
                let replay = {
                    let (mut service, accepted) =
                        SearchService::new($build, config).with_live_index(&plan.timeline);
                    prop_assert!(accepted, "single-index engines accept timelines");
                    service.replay(&stream, |i| planned(&stream, i))
                };
                let engines: Vec<_> = (0..workers)
                    .map(|_| {
                        let mut engine = $build;
                        prop_assert!(engine.install_timeline(plan.timeline.clone()));
                        engine
                    })
                    .collect();
                let report = run_pipeline(
                    engines,
                    &stream,
                    |i| planned(&stream, i),
                    Box::new(FixedPolicy(config.batcher)),
                    RuntimeConfig {
                        epoch_schedule: plan.timeline.epoch_schedule(),
                        ..RuntimeConfig::logical(config)
                    },
                );
                prop_assert!(report.is_conserving(), "mutating twin lost or duplicated queries");
                prop_assert_eq!(report.shed, 0, "logical mode is shed-proof under mutation");
                prop_assert_eq!(report.completed, stream.len());
                (replay, report)
            }};
        }

        let (replay, report) = match engine_kind {
            0 => compare_live!(CpuFaissEngine::new(index)),
            1 => compare_live!(GpuFaissEngine::new(index)),
            _ => compare_live!(build_upanns(index, data)),
        };

        prop_assert_eq!(replay.results.len(), stream.len());
        prop_assert_eq!(
            answer_ids(&replay.results),
            answer_ids(&report.results),
            "mutating stream diverged between replay and twin \
             (engine_kind={}, workers={}, epochs={})",
            engine_kind,
            workers,
            plan.final_epoch
        );
        // Hit/miss/invalidation *counts* are deliberately not compared:
        // the pipeline drains cache inserts asynchronously, so whether a
        // repeat hits is thread-timing dependent — which is exactly why
        // answers are made hit-independent (per-arrival snapshot
        // resolution + exact-epoch cache stamping) instead.
    }

    /// The twin contract survives fault injection: a replicated deployment
    /// under a random outage schedule answers identically in the replay and
    /// the threaded logical pipeline — fault membership is a pure function
    /// of the batch close time, which both runtimes stamp on the request —
    /// and the pipeline conserves every query (nothing lost, duplicated, or
    /// shed) while hosts die and return mid-stream.
    #[test]
    fn faulted_replicated_twin_conserves_and_matches(
        workers in 1usize..=3,
        n in 30usize..80,
        seed in 0u64..1_000,
        replicas in 1usize..=3,
        down_host in 0usize..3,
        down_at in 0.0f64..0.2,
        outage_s in 0.01f64..0.3,
        hedge_bit in 0u8..2,
        max_batch in 2usize..16,
    ) {
        let (data, _) = fixture();
        let shards = sharded_fixture();
        let faults = FaultSchedule::new(vec![FaultEvent {
            host: down_host,
            down_at,
            up_at: down_at + outage_s,
        }]);
        let build = || {
            let engines: Vec<UpAnnsEngine> = shards.iter().map(|ix| {
                UpAnnsBuilder::new(ix)
                    .with_config(UpAnnsConfig::upanns().with_work_scale(500.0))
                    .with_pim_config(PimConfig::with_dpus(48))
                    .build()
            }).collect();
            let engine = ReplicatedMultiHost::new(engines, 3, replicas, InterconnectModel::default())
                .expect("3 hosts cover any replica factor up to 3")
                .with_faults(faults.clone());
            if hedge_bit == 1 {
                engine.with_hedge_budget(0.05)
            } else {
                engine
            }
        };
        // ~200 qps keeps the stream long enough (0.15-0.4 s) that the drawn
        // outage windows actually overlap the arrivals.
        let stream = StreamSpec::new(n, 200.0)
            .with_workload(WorkloadSpec::new(n).with_seed(seed))
            .generate(data);

        let mut config = ServiceConfig::default();
        config.queue_capacity = config.queue_capacity.max(stream.len());
        config.batcher.max_batch = max_batch;

        let replay_results = {
            let mut service = SearchService::new(build(), config);
            service.replay(&stream, |i| planned(&stream, i)).results
        };
        let report = run_pipeline(
            (0..workers).map(|_| build()).collect(),
            &stream,
            |i| planned(&stream, i),
            Box::new(FixedPolicy(config.batcher)),
            RuntimeConfig::logical(config),
        );
        prop_assert!(report.is_conserving(), "faulted twin lost or duplicated queries");
        prop_assert_eq!(report.shed, 0, "logical mode is shed-proof under faults");
        prop_assert_eq!(report.completed, stream.len());
        prop_assert_eq!(
            answer_ids(&replay_results),
            answer_ids(&report.results),
            "fault injection diverged between replay and twin \
             (workers={}, replicas={}, outage {}..{})",
            workers,
            replicas,
            down_at,
            down_at + outage_s
        );
    }
}
