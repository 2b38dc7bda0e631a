//! # upanns-runtime — the threaded serving runtime and its replay twin
//!
//! `upanns-serve` holds the serving core — admission, batching, dispatch,
//! caching, policy feedback and reporting, clock-free and engine-free — and
//! its first driver, a *discrete-event replay*: one thread, a simulated
//! clock, perfectly reproducible. This crate is the core's second driver: a
//! **real multi-threaded pipeline** (`std::thread` + `mpsc`, no async
//! runtime; one control thread that owns the core, one worker thread per
//! engine) that serves a query stream against the wall clock, plus a
//! **deterministic twin mode** that steps the identical pipeline from the
//! stream's logical timestamps and is byte-diffed against
//! [`SearchService::replay`](upanns_serve::SearchService::replay) in CI.
//!
//! See [`run_pipeline`] for the thread/channel topology, the two clocks, the
//! twin contract and shutdown (clean, and on an engine panic); see
//! [`RuntimeReport`] for what a run measures.
//!
//! The crate also hosts the serving bench. [`scenario`] is the bench as
//! data — one fixture, one engine factory behind `Box<dyn AnnEngine>`, the
//! five scenarios, the `--tenants` / `--mutations` grammars, and the two
//! runners (one per driver) every run goes through; [`record`] is the serving
//! record — field lists, one ordered writer, and the contract
//! ([`record::audit`]) rows must pass before they are written. The
//! `serve` binary (this crate's `src/bin/serve.rs`) is what is left: flag
//! parsing, a loop over the scenarios, and the stdout tables.
//!
//! This crate's `pipeline` module is the one in the workspace that reads
//! the wall clock (`std::time::Instant`): `clippy.toml` bans the type
//! everywhere, and `pipeline.rs` alone expects `clippy::disallowed_types`.
//!
//! ```
//! use annkit::ivf::{IvfPqIndex, IvfPqParams};
//! use annkit::synthetic::SyntheticSpec;
//! use annkit::workload::StreamSpec;
//! use baselines::cpu::CpuFaissEngine;
//! use baselines::engine::QueryOptions;
//! use upanns_serve::FixedPolicy;
//! use upanns_serve::service::ServiceConfig;
//! use upanns_runtime::{run_pipeline, RuntimeConfig};
//!
//! let data = SyntheticSpec::sift_like(400).with_seed(1).generate_with_meta();
//! let index = IvfPqIndex::train(&data.vectors, &IvfPqParams::new(16, 8), 3);
//! let stream = StreamSpec::new(50, 400.0).generate(&data);
//! let config = RuntimeConfig::wall(ServiceConfig::default());
//! let engines: Vec<_> = (0..2).map(|_| CpuFaissEngine::new(&index)).collect();
//! let policy = Box::new(FixedPolicy(config.service.batcher));
//! let report = run_pipeline(engines, &stream, |_| QueryOptions::new(10, 4), policy, config);
//! assert!(report.is_conserving());
//! assert_eq!(report.workers, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pipeline;
pub mod record;
mod report;
pub mod scenario;

pub use pipeline::{run_pipeline, RuntimeConfig, RuntimeMode};
pub use report::RuntimeReport;

#[cfg(test)]
mod tests {
    use super::*;
    use annkit::ivf::{IvfPqIndex, IvfPqParams};
    use annkit::synthetic::{SyntheticDataset, SyntheticSpec};
    use annkit::workload::{
        MultiTenantSpec, QueryStream, StreamSpec, TenantId, TenantSpec, WorkloadSpec,
    };
    use baselines::cpu::CpuFaissEngine;
    use baselines::engine::QueryOptions;
    use upanns_serve::service::ServiceConfig;
    use upanns_serve::FixedPolicy;

    fn fixture() -> (SyntheticDataset, IvfPqIndex) {
        let data = SyntheticSpec::sift_like(600)
            .with_clusters(8)
            .with_seed(11)
            .generate_with_meta();
        let index = IvfPqIndex::train(&data.vectors, &IvfPqParams::new(24, 8), 3);
        (data, index)
    }

    fn stream_spec(n: usize, qps: f64, seed: u64) -> StreamSpec {
        StreamSpec::new(n, qps).with_workload(WorkloadSpec::new(n).with_seed(seed))
    }

    fn engines(index: &IvfPqIndex, n: usize) -> Vec<CpuFaissEngine> {
        (0..n).map(|_| CpuFaissEngine::new(index)).collect()
    }

    fn run(
        stream: &QueryStream,
        index: &IvfPqIndex,
        workers: usize,
        config: RuntimeConfig,
    ) -> RuntimeReport {
        let policy = Box::new(FixedPolicy(config.service.batcher));
        run_pipeline(
            engines(index, workers),
            stream,
            |i| QueryOptions::new(10, 4).with_tenant(stream.tenant(i)),
            policy,
            config,
        )
    }

    #[test]
    fn wall_pipeline_conserves_every_query() {
        let (data, index) = fixture();
        let stream = stream_spec(80, 2000.0, 3).generate(&data);
        let report = run(
            &stream,
            &index,
            2,
            RuntimeConfig::wall(ServiceConfig::default()),
        );
        assert_eq!(report.mode, "wall");
        assert_eq!(report.lost, 0, "drain-then-join must not lose queries");
        assert_eq!(report.duplicated, 0);
        assert!(report.is_conserving());
        assert_eq!(report.completed + report.shed, 80);
        assert_eq!(report.results.len(), 80);
        // Nothing shed at this gentle offered rate, so every slot has an
        // answer.
        assert!(report.results.iter().all(|r| !r.is_empty()));
        assert!(report.makespan_s > 0.0);
    }

    #[test]
    fn logical_pipeline_is_shed_proof_and_conserving() {
        let (data, index) = fixture();
        // An offered rate that would shed in wall mode with a tiny queue.
        let stream = stream_spec(120, 50_000.0, 5).generate(&data);
        let mut config = RuntimeConfig::logical(ServiceConfig::default());
        config.service.queue_capacity = 4;
        let report = run(&stream, &index, 3, RuntimeConfig { ..config });
        assert_eq!(report.mode, "logical");
        assert_eq!(report.shed, 0, "the twin widens the queue to the stream");
        assert_eq!(report.completed, 120);
        assert!(report.is_conserving());
    }

    #[test]
    fn multi_tenant_wall_run_reports_every_profile() {
        let (data, index) = fixture();
        let spec = MultiTenantSpec::new()
            .with_tenant(
                TenantSpec::new(TenantId(1), stream_spec(30, 1500.0, 7))
                    .with_name("tight")
                    .with_weight(2),
            )
            .with_tenant(
                TenantSpec::new(TenantId(2), stream_spec(60, 3000.0, 9)).with_name("bulk"),
            );
        let stream = spec.generate(&data);
        let report = run(
            &stream,
            &index,
            2,
            RuntimeConfig::wall(ServiceConfig::default()),
        );
        assert!(report.is_conserving());
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.tenants[0].name, "tight");
        assert_eq!(report.tenants[1].name, "bulk");
        let offered: usize = report.tenants.iter().map(|t| t.completed + t.shed).sum();
        assert_eq!(offered, stream.len());
    }

    #[test]
    fn single_query_stream_drains_cleanly() {
        // The degenerate stream exercises shutdown with the trailing-window
        // close on the critical path.
        let (data, index) = fixture();
        let stream = stream_spec(1, 100.0, 17).generate(&data);
        let report = run(
            &stream,
            &index,
            4,
            RuntimeConfig::wall(ServiceConfig::default()),
        );
        assert_eq!(report.offered, 1);
        assert_eq!(report.completed, 1);
        assert!(report.is_conserving());
    }

    #[test]
    fn repeats_hit_the_cache_in_wall_mode() {
        let (data, index) = fixture();
        let stream = stream_spec(100, 4000.0, 13)
            .with_repeat_fraction(0.5)
            .generate(&data);
        let report = run(
            &stream,
            &index,
            1,
            RuntimeConfig::wall(ServiceConfig::default()),
        );
        assert!(report.is_conserving());
        assert!(
            report.cache_hits > 0,
            "a 50% repeat stream must produce cache hits; got {} hits / {} misses",
            report.cache_hits,
            report.cache_misses
        );
    }
}
