//! Tier-1 reach for the serving stack: the root `cargo test` drives the one
//! serving core through **both** of its drivers — the simulated-clock replay
//! (`SearchService::replay`) and the thread driver (`run_pipeline`) — on a
//! tiny fixture. The full twin contract lives in
//! `crates/runtime/tests/twin_equivalence.rs`; this is the smoke check that
//! a root-level test run cannot skip.

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::synthetic::SyntheticSpec;
use annkit::workload::StreamSpec;
use baselines::cpu::CpuFaissEngine;
use baselines::engine::QueryOptions;
use upanns_runtime::{run_pipeline, RuntimeConfig};
use upanns_serve::{FixedPolicy, SearchService, ServiceConfig};

#[test]
fn replay_and_pipeline_drive_one_core_to_the_same_answers() {
    let data = SyntheticSpec::sift_like(500)
        .with_clusters(8)
        .with_seed(7)
        .generate_with_meta();
    let index = IvfPqIndex::train(&data.vectors, &IvfPqParams::new(16, 8), 3);
    let stream = StreamSpec::new(90, 3_000.0)
        .with_repeat_fraction(0.3)
        .generate(&data);
    let options = |_| QueryOptions::new(10, 4);
    // Shed-proof on the replay side too: the answer map must be total.
    let config = ServiceConfig {
        queue_capacity: stream.len(),
        ..ServiceConfig::default()
    };
    let engines = |n| {
        (0..n)
            .map(|_| CpuFaissEngine::new(&index))
            .collect::<Vec<_>>()
    };
    let policy = || Box::new(FixedPolicy(config.batcher));

    let replayed = SearchService::new(CpuFaissEngine::new(&index), config).replay(&stream, options);
    assert_eq!(replayed.completed, stream.len());
    let ids = |results: &[Vec<annkit::topk::Neighbor>]| -> Vec<Vec<u64>> {
        results
            .iter()
            .map(|r| r.iter().map(|n| n.id).collect())
            .collect()
    };
    for workers in [1, 3] {
        let twin = run_pipeline(
            engines(workers),
            &stream,
            options,
            policy(),
            RuntimeConfig::logical(config),
        );
        assert!(twin.is_conserving());
        assert_eq!(
            ids(&twin.results),
            ids(&replayed.results),
            "logical pipeline, {workers} worker(s)"
        );
    }

    let wall = run_pipeline(
        engines(2),
        &stream,
        options,
        policy(),
        RuntimeConfig::wall(config),
    );
    assert!(
        wall.is_conserving(),
        "lost {} duplicated {}",
        wall.lost,
        wall.duplicated
    );
    assert_eq!(wall.workers, 2);
}
