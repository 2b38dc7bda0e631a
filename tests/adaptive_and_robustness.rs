//! Integration tests for the §4.1.2 adaptive-placement flow and for the
//! failure modes of the simulated hardware (WRAM overflow, MRAM exhaustion,
//! malformed builder inputs) plus engine edge cases.

use annkit::flat::FlatIndex;
use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::recall::recall_at_k;
use annkit::synthetic::{DatasetKind, SyntheticDataset, SyntheticSpec};
use annkit::vector::Dataset;
use annkit::workload::WorkloadSpec;
use baselines::engine::AnnEngine;
use pim_sim::config::PimConfig;
use std::sync::OnceLock;
use upanns::adaptive::adapt_placement;
use upanns::builder::{frequencies_from_queries, max_dpu_vectors, UpAnnsBuilder};
use upanns::config::UpAnnsConfig;
use upanns::engine::UpAnnsEngine;
use upanns::placement::{Placement, PlacementInput};
use upanns::wram_layout::{WramPlan, WramPlanInput};

struct Fixture {
    dataset: SyntheticDataset,
    index: IvfPqIndex,
    history: Dataset,
    queries: Dataset,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let dataset = SyntheticSpec::new(DatasetKind::DeepLike, 3_000)
            .with_clusters(24)
            .with_seed(77)
            .generate_with_meta();
        let index = IvfPqIndex::train(
            &dataset.vectors,
            &IvfPqParams::new(48, 12).with_train_size(1_200),
            5,
        );
        let history = WorkloadSpec::new(400)
            .with_seed(70)
            .generate(&dataset)
            .queries;
        let queries = WorkloadSpec::new(48)
            .with_seed(71)
            .generate(&dataset)
            .queries;
        Fixture {
            dataset,
            index,
            history,
            queries,
        }
    })
}

fn build(
    fix: &'static Fixture,
    config: UpAnnsConfig,
    dpus: usize,
    placement: Option<Placement>,
) -> UpAnnsEngine {
    let mut b = UpAnnsBuilder::new(&fix.index)
        .with_config(config)
        .with_pim_config(PimConfig::with_dpus(dpus))
        .with_history(&fix.history, 6);
    if let Some(p) = placement {
        b = b.with_placement(p);
    }
    b.build()
}

// ---------------------------------------------------------------------------
// Adaptive placement (§4.1.2)
// ---------------------------------------------------------------------------

#[test]
fn adaptive_flow_preserves_results_and_balance() {
    let fix = fixture();
    let dpus = 12;
    let mut engine = build(fix, UpAnnsConfig::upanns(), dpus, None);
    let before = engine.search_batch(&fix.queries, 6, 10);

    // A drifted workload: different popularity ranking, same dataset.
    let drifted = WorkloadSpec::new(400)
        .with_seed(90)
        .with_popularity_seed(4242)
        .generate(&fix.dataset)
        .queries;
    let old_freqs = frequencies_from_queries(&fix.index, &fix.history, 6);
    let new_freqs = frequencies_from_queries(&fix.index, &drifted, 6);
    let sizes = fix.index.list_sizes();

    let cap = max_dpu_vectors(fix.index.m(), &PimConfig::with_dpus(dpus));
    let (adapted, _) = adapt_placement(engine.placement(), &sizes, &old_freqs, &new_freqs, cap);
    // Whatever the tier, the adapted placement must still be structurally
    // valid, within the builder's MRAM cap.
    let input = PlacementInput::new(sizes.clone(), new_freqs.clone(), dpus, cap);
    adapted.validate(&input).unwrap();

    let mut rebuilt = build(fix, UpAnnsConfig::upanns(), dpus, Some(adapted));
    let after = rebuilt.search_batch(&fix.queries, 6, 10);

    // Placement only moves data: the answers are identical.
    assert_eq!(before.results.len(), after.results.len());
    for (a, b) in before.results.iter().zip(&after.results) {
        assert_eq!(
            a.iter().map(|n| n.id).collect::<Vec<_>>(),
            b.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }
    // And accuracy stays at the index's quantization ceiling.
    let exact = FlatIndex::new(&fix.dataset.vectors).search_batch(&fix.queries, 10);
    let r_before = recall_at_k(&before.results, &exact, 10);
    let r_after = recall_at_k(&after.results, &exact, 10);
    assert!((r_before - r_after).abs() < 1e-9);
}

#[test]
#[should_panic(expected = "different DPU count")]
fn placement_override_with_wrong_dpu_count_is_rejected() {
    let fix = fixture();
    let engine = build(fix, UpAnnsConfig::upanns(), 12, None);
    let placement = engine.placement().clone();
    // Rebuilding for 6 DPUs with a 12-DPU placement must fail loudly.
    let _ = build(fix, UpAnnsConfig::upanns(), 6, Some(placement));
}

// ---------------------------------------------------------------------------
// Engine edge cases
// ---------------------------------------------------------------------------

#[test]
fn k_of_one_and_oversized_k_are_handled() {
    let fix = fixture();
    let mut engine = build(fix, UpAnnsConfig::upanns(), 8, None);
    let single = fix.dataset.vectors.gather(&[7]);

    let k1 = engine.search_batch(&single, 4, 1);
    assert_eq!(k1.results.len(), 1);
    assert_eq!(k1.results[0].len(), 1);

    // k much larger than the probed candidate pool: the engine returns what
    // exists, sorted, without panicking.
    let huge = engine.search_batch(&single, 2, 64);
    assert_eq!(huge.results.len(), 1);
    assert!(!huge.results[0].is_empty());
    assert!(huge.results[0].len() <= 64);
    let d: Vec<f32> = huge.results[0].iter().map(|n| n.distance).collect();
    assert!(d.windows(2).all(|w| w[0] <= w[1]), "results must be sorted");
}

#[test]
fn nprobe_larger_than_nlist_is_clamped() {
    let fix = fixture();
    let mut engine = build(fix, UpAnnsConfig::upanns(), 8, None);
    let q = fix.dataset.vectors.gather(&[3, 9]);
    let clamped = engine.search_batch(&q, 10_000, 5);
    let full = engine.search_batch(&q, fix.index.nlist(), 5);
    for (a, b) in clamped.results.iter().zip(&full.results) {
        assert_eq!(
            a.iter().map(|n| n.id).collect::<Vec<_>>(),
            b.iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }
}

#[test]
fn duplicate_queries_in_one_batch_get_identical_answers() {
    let fix = fixture();
    let mut engine = build(fix, UpAnnsConfig::upanns(), 8, None);
    let batch = fix.dataset.vectors.gather(&[11, 11, 11, 42, 42]);
    let out = engine.search_batch(&batch, 6, 10);
    assert_eq!(out.results.len(), 5);
    for i in 1..3 {
        assert_eq!(
            out.results[0].iter().map(|n| n.id).collect::<Vec<_>>(),
            out.results[i].iter().map(|n| n.id).collect::<Vec<_>>()
        );
    }
    assert_eq!(
        out.results[3].iter().map(|n| n.id).collect::<Vec<_>>(),
        out.results[4].iter().map(|n| n.id).collect::<Vec<_>>()
    );
}

#[test]
fn pim_naive_and_upanns_agree_under_every_single_optimization_toggle() {
    // Each optimization toggled on its own must leave the neighbor sets
    // essentially unchanged (accuracy is never traded for speed).
    let fix = fixture();
    let q = fix
        .dataset
        .vectors
        .gather(&(0..16).map(|i| i * 131 % 3000).collect::<Vec<_>>());
    let mut reference = build(fix, UpAnnsConfig::pim_naive(), 8, None);
    let base = reference.search_batch(&q, 6, 10);
    for config in [
        UpAnnsConfig::pim_naive().with_placement(true),
        UpAnnsConfig::pim_naive().with_cooccurrence(true),
        UpAnnsConfig::pim_naive().with_topk_pruning(true),
    ] {
        let mut engine = build(fix, config, 8, None);
        let out = engine.search_batch(&q, 6, 10);
        for (a, b) in out.results.iter().zip(&base.results) {
            let ids_a: Vec<u64> = a.iter().map(|n| n.id).collect();
            let ids_b: Vec<u64> = b.iter().map(|n| n.id).collect();
            let overlap = ids_a.iter().filter(|id| ids_b.contains(id)).count();
            assert!(
                overlap + 1 >= ids_b.len(),
                "optimization changed results: {ids_a:?} vs {ids_b:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Failure injection: the simulated hardware's capacity limits
// ---------------------------------------------------------------------------

#[test]
fn wram_planner_rejects_layouts_that_cannot_fit() {
    // 24 tasklets × 2 KB read buffers + large heaps + a 32 KB codebook do not
    // fit in 64 KB; the planner must say so instead of overcommitting.
    let input = WramPlanInput::new(128, 16, 100, 256, 24, 2048);
    let err = WramPlan::plan(&input).unwrap_err();
    assert!(err.required > err.capacity);
    assert_eq!(err.phase, pim_sim::stats::Stage::DistanceCalc);
    assert!(err.to_string().contains("WRAM plan overflow"));

    // The paper's default configuration (11 tasklets, 16-vector reads, k ≤ 100)
    // must fit.
    let ok = WramPlan::plan(&WramPlanInput::new(128, 16, 100, 256, 11, 256)).unwrap();
    assert!(ok.phase1_peak <= 64 * 1024);
    assert!(ok.phase3_peak <= 64 * 1024);
}

#[test]
#[should_panic(expected = "WRAM layout does not fit")]
fn kernel_panics_like_hardware_when_wram_is_overcommitted() {
    let fix = fixture();
    // 24 tasklets with maximum-size MRAM read buffers and a large k: the
    // per-tasklet buffers alone exceed the 64 KB scratchpad.
    let config = UpAnnsConfig::upanns()
        .with_tasklets(24)
        .with_mram_read_vectors(1024);
    let mut engine = build(fix, config, 8, None);
    let q = fix.dataset.vectors.gather(&[0]);
    let _ = engine.search_batch(&q, 4, 64);
}

#[test]
#[should_panic(expected = "structural invariants")]
fn builder_panics_when_the_dataset_does_not_fit_in_mram() {
    let fix = fixture();
    // One DPU with a 64 KB MRAM cannot hold the dataset: the MRAM-derived
    // per-DPU vector cap makes Algorithm 1 unable to place every cluster,
    // which the builder surfaces as a placement-validation panic instead of
    // silently overcommitting the device.
    let mut tiny = PimConfig::with_dpus(1);
    tiny.mram_bytes = 64 * 1024;
    let _ = UpAnnsBuilder::new(&fix.index).with_pim_config(tiny).build();
}

#[test]
fn mailbox_capacity_grows_on_demand_instead_of_overflowing() {
    let fix = fixture();
    // A small request sizes the staging buffers first; a much larger batch
    // with a large k must then grow them rather than overflow the mailbox.
    let mut engine = UpAnnsBuilder::new(&fix.index)
        .with_pim_config(PimConfig::with_dpus(8))
        .with_history(&fix.history, 6)
        .build();
    let _ = engine.search_batch(&fix.queries.gather(&[0, 1]), 2, 5);
    let out = engine.search_batch(&fix.queries, 8, 50);
    assert_eq!(out.results.len(), fix.queries.len());
    assert!(out.results.iter().all(|r| !r.is_empty()));
}
