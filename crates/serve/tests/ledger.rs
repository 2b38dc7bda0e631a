//! The serving core's ledger through the public API: conservation counts
//! distinct answers, and the latency split agrees with what an engine
//! wrapper can reconstruct from the requests it is handed.

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::mutation::SnapshotTimeline;
use annkit::synthetic::{SyntheticDataset, SyntheticSpec};
use annkit::workload::{MultiTenantSpec, StreamSpec, TenantId, TenantSpec};
use baselines::cpu::CpuFaissEngine;
use baselines::engine::{AnnEngine, QueryOptions, SearchRequest, SearchResponse};
use pim_sim::energy::EnergyModel;
use upanns_serve::batcher::BatchFormerConfig;
use upanns_serve::core::{request_for, ServingCore};
use upanns_serve::{FixedPolicy, SearchService, ServiceConfig};

fn fixture() -> (SyntheticDataset, IvfPqIndex) {
    let dataset = SyntheticSpec::sift_like(800)
        .with_clusters(8)
        .with_seed(7)
        .generate_with_meta();
    let index = IvfPqIndex::train(
        &dataset.vectors,
        &IvfPqParams::new(8, 16).with_train_size(400),
        3,
    );
    (dataset, index)
}

#[test]
fn a_query_answered_twice_does_not_hide_one_never_answered() {
    let (dataset, index) = fixture();
    let stream = StreamSpec::new(2, 100.0).generate(&dataset);
    let config = ServiceConfig {
        batcher: BatchFormerConfig {
            max_batch: 1,
            max_delay_s: 1.0,
        },
        cache_capacity: 0,
        ..ServiceConfig::default()
    };
    let mut policy = FixedPolicy(config.batcher);
    let mut core = ServingCore::new(&stream, config, &mut policy, &[]);
    for (arrival, index) in stream.iter() {
        core.arrive(arrival, index, QueryOptions::new(10, 4));
    }
    // Each arrival closed a batch of one: two chunks, one per query.
    let first = core
        .pop_chunk(f64::INFINITY)
        .expect("the first query's chunk");
    let _never_completed = core
        .pop_chunk(f64::INFINITY)
        .expect("the second query's chunk");
    let response = CpuFaissEngine::new(&index).execute(&request_for(&stream, &first, 1));
    let (start, finish) = (
        first.batch.closed_at,
        first.batch.closed_at + response.seconds,
    );
    core.complete(first.clone(), response.clone(), start, finish);
    core.complete(first, response, start, finish);
    assert_eq!(
        core.conservation(),
        (1, 1),
        "one query lost, one answered twice"
    );
}

/// Sums `request.at − arrival_of(i)` over every query of every request it
/// executes: the batch wait an engine wrapper rebuilds by subtraction.
struct BatchWaitProbe<E> {
    inner: E,
    batch_wait_s: f64,
}

impl<E: AnnEngine> AnnEngine for BatchWaitProbe<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&mut self, request: &SearchRequest) -> SearchResponse {
        for i in 0..request.len() {
            self.batch_wait_s += request.at - request.arrival_of(i);
        }
        self.inner.execute(request)
    }

    fn energy_model(&self) -> EnergyModel {
        self.inner.energy_model()
    }

    fn install_timeline(&mut self, timeline: SnapshotTimeline) -> bool {
        self.inner.install_timeline(timeline)
    }
}

#[test]
fn the_ledger_batch_wait_is_the_engine_side_reconstruction() {
    let (dataset, index) = fixture();
    let spec = MultiTenantSpec::new()
        .with_tenant(
            TenantSpec::new(
                TenantId(1),
                StreamSpec::new(80, 400.0)
                    .with_repeat_fraction(0.3)
                    .with_slo_p99(0.02),
            )
            .with_option_mix(vec![(10, 4)]),
        )
        .with_tenant(
            TenantSpec::new(TenantId(2), StreamSpec::new(160, 800.0))
                .with_option_mix(vec![(10, 8)]),
        );
    let stream = spec.generate(&dataset);
    let config = ServiceConfig {
        max_chunk: Some(8),
        ..ServiceConfig::default()
    };
    let probe = BatchWaitProbe {
        inner: CpuFaissEngine::new(&index).with_work_scale(400.0),
        batch_wait_s: 0.0,
    };
    let mut service = SearchService::new(probe, config);
    let report = service.replay_planned(&stream);
    let split = report.split;
    assert!(report.cache_hits > 0 && split.cache_s > 0.0 && split.dispatch_wait_s > 0.0);
    assert_eq!(
        split.batch_wait_s.to_bits(),
        service.into_engine().batch_wait_s.to_bits()
    );
    // The parts add up to the summed end-to-end latency.
    let parts = split.batch_wait_s + split.dispatch_wait_s + split.engine_service_s + split.cache_s;
    let total: f64 = report.latencies_s.iter().sum();
    assert!((parts - total).abs() <= 1e-9 * total, "{parts} vs {total}");
}
