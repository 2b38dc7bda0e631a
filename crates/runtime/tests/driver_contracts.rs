//! Contracts the two drivers of the serving core share beyond answer
//! identity (that one is `twin_equivalence.rs`):
//!
//! * **A dying engine cannot hang the pipeline.** An engine that panics
//!   inside a worker must make `run_pipeline` return — by propagating the
//!   panic — instead of leaving the control thread waiting for a completion
//!   that never comes.
//! * **Feedback parity.** The replay, the logical pipeline and the wall
//!   pipeline each deliver exactly one per-query observation per completed
//!   query (cache hits included) and one batch observation per lead chunk
//!   to the `BatchPolicy`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::Duration;

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::mutation::SnapshotTimeline;
use annkit::synthetic::{SyntheticDataset, SyntheticSpec};
use annkit::workload::{QueryStream, StreamSpec, WorkloadSpec};
use baselines::cpu::CpuFaissEngine;
use baselines::engine::{AnnEngine, QueryOptions, SearchRequest, SearchResponse, TenantId};
use pim_sim::energy::EnergyModel;
use upanns_runtime::{run_pipeline, RuntimeConfig, RuntimeMode};
use upanns_serve::batcher::BatchFormerConfig;
use upanns_serve::service::ServiceConfig;
use upanns_serve::{BatchPolicy, FixedPolicy, SearchService};

fn fixture() -> &'static (SyntheticDataset, IvfPqIndex) {
    static FIXTURE: OnceLock<(SyntheticDataset, IvfPqIndex)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = SyntheticSpec::sift_like(600)
            .with_clusters(8)
            .with_seed(11)
            .generate_with_meta();
        let index = IvfPqIndex::train(&data.vectors, &IvfPqParams::new(24, 8), 3);
        (data, index)
    })
}

fn stream(n: usize, qps: f64, repeat: f64) -> QueryStream {
    StreamSpec::new(n, qps)
        .with_workload(WorkloadSpec::new(n).with_seed(29))
        .with_repeat_fraction(repeat)
        .generate(&fixture().0)
}

fn options(_: usize) -> QueryOptions {
    QueryOptions::new(10, 4)
}

fn runtime(mode: RuntimeMode, service: ServiceConfig) -> RuntimeConfig {
    match mode {
        RuntimeMode::Wall => RuntimeConfig::wall(service),
        RuntimeMode::Logical => RuntimeConfig::logical(service),
    }
}

/// A `CpuFaissEngine` whose `execute` panics on its `fatal_call`-th call.
struct FailingEngine {
    inner: CpuFaissEngine,
    calls: usize,
    fatal_call: usize,
}

impl AnnEngine for FailingEngine {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&mut self, request: &SearchRequest) -> SearchResponse {
        self.calls += 1;
        assert!(self.calls != self.fatal_call, "injected engine failure");
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
fn an_engine_panic_propagates_instead_of_hanging_the_pipeline() {
    for mode in [RuntimeMode::Wall, RuntimeMode::Logical] {
        for workers in [1, 2] {
            for fatal_call in [1, 2] {
                let (verdict_tx, verdict_rx) = channel();
                // Detached, not scoped: if the run hangs, the watchdog below
                // must be able to fail the test without joining it.
                thread::spawn(move || {
                    let stream = stream(200, 2_000.0, 0.0);
                    let engines: Vec<_> = (0..workers)
                        .map(|_| FailingEngine {
                            inner: CpuFaissEngine::new(&fixture().1),
                            calls: 0,
                            fatal_call,
                        })
                        .collect();
                    let config = runtime(mode, ServiceConfig::default());
                    let policy = Box::new(FixedPolicy(config.service.batcher));
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        run_pipeline(engines, &stream, options, policy, config)
                    }));
                    let _ = verdict_tx.send(outcome.map(|report| report.completed));
                });
                // The watchdog: at the parent commit this wait expired —
                // admission and completion each waited on the other's
                // sender forever.
                let verdict = verdict_rx
                    .recv_timeout(Duration::from_secs(20))
                    .unwrap_or_else(|_| {
                        panic!("{mode:?}, {workers} worker(s): run_pipeline never returned")
                    });
                let payload = verdict.expect_err("the engine's panic must reach the caller");
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied());
                assert_eq!(
                    message,
                    Some("injected engine failure"),
                    "the caller sees the engine's own panic payload"
                );
            }
        }
    }
}

/// A fixed policy that counts the observations it is handed.
struct CountingPolicy {
    inner: FixedPolicy,
    queries: Arc<AtomicUsize>,
    batches: Arc<AtomicUsize>,
}

impl BatchPolicy for CountingPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn current(&self, tenant: TenantId) -> BatchFormerConfig {
        self.inner.current(tenant)
    }

    fn observe(&mut self, _: TenantId, _: f64, _: f64) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    fn observe_batch(&mut self, _: TenantId, _: f64, _: f64) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }
}

/// A fresh counting policy and the `(queries, batches)` it has observed.
fn counting(batcher: BatchFormerConfig) -> (Box<CountingPolicy>, impl Fn() -> (usize, usize)) {
    let queries = Arc::new(AtomicUsize::new(0));
    let batches = Arc::new(AtomicUsize::new(0));
    let policy = Box::new(CountingPolicy {
        inner: FixedPolicy(batcher),
        queries: Arc::clone(&queries),
        batches: Arc::clone(&batches),
    });
    let observed = move || {
        (
            queries.load(Ordering::Relaxed),
            batches.load(Ordering::Relaxed),
        )
    };
    (policy, observed)
}

#[test]
fn every_driver_delivers_each_observation_exactly_once() {
    // Half the stream repeats an earlier question, so cache hits — the
    // completions the old pipeline never reported to the policy — are a
    // large share of what must be observed.
    let stream = stream(240, 4_000.0, 0.5);
    let index = &fixture().1;
    // Whole-batch dispatch: every dispatched chunk is its batch's lead.
    let service = ServiceConfig::default();
    assert!(service.max_chunk.is_none());

    let (policy, observed) = counting(service.batcher);
    let mut replay = SearchService::new(CpuFaissEngine::new(index), service).with_policy(policy);
    let report = replay.replay(&stream, options);
    assert!(
        report.cache_hits > 0,
        "the stream must exercise the cache-hit path"
    );
    assert_eq!(report.batches(), report.dispatched_chunks);
    assert_eq!(
        observed(),
        (report.completed, report.dispatched_chunks),
        "replay"
    );

    for mode in [RuntimeMode::Logical, RuntimeMode::Wall] {
        for workers in [1, 2] {
            let (policy, observed) = counting(service.batcher);
            let engines = (0..workers).map(|_| CpuFaissEngine::new(index)).collect();
            let report = run_pipeline(engines, &stream, options, policy, runtime(mode, service));
            assert!(report.is_conserving());
            assert_eq!(
                observed(),
                (report.completed, report.dispatched_chunks),
                "{mode:?} pipeline, {workers} worker(s), {} cache hits",
                report.cache_hits
            );
        }
    }
}
