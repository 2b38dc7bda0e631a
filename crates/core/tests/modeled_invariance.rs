//! Golden records of everything the cycle model and the functional kernel
//! produce for two small fixed requests, each captured at the commit *before*
//! a host-speed rewrite: long lists on a busy fleet (before the functional
//! half of `run_batch_kernel` was rewritten) and short lists on a mostly idle
//! fleet with mixed options (before the filter / LUT / region-bookkeeping
//! rewrite).
//!
//! A host-only change must leave every modeled number bit-identical: the
//! response's modeled seconds, each breakdown entry, the workload counters,
//! the per-DPU cycle counts and statistics (compute / DMA cycles, transfer
//! counts, MRAM bytes, WRAM peak) and the answers (ids and distance bits). The
//! benchmark checks that on its own fixtures; this test makes it part of
//! `cargo test`. To move the golden on purpose (a cost-model change), print
//! `observed(..)` and replace the shape's file under `tests/golden/`.
//!
//! The fixtures avoid libm: uniform cluster sizes (`powf(0.0)` is exact) and
//! dataset rows as history and queries, so the record does not depend on the
//! platform's last-bit rounding of `powf` / `ln`.

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::synthetic::SyntheticSpec;
use baselines::engine::{AnnEngine, QueryOptions, SearchRequest};
use pim_sim::config::PimConfig;
use std::fmt::Write;
use upanns::builder::UpAnnsBuilder;
use upanns::config::UpAnnsConfig;

const GOLDEN: &str = include_str!("golden/modeled_invariance.txt");
const GOLDEN_SHORT_LISTS: &str = include_str!("golden/modeled_invariance_short_lists.txt");

/// One fixed index, fleet and request whose record is pinned by a golden.
struct Shape {
    vectors: usize,
    nlist: usize,
    train_size: usize,
    seed: u64,
    dpus: usize,
    history_nprobe: usize,
    /// `(k, nprobe)` of query `i` is `options[i % options.len()]`.
    queries: usize,
    options: &'static [(usize, usize)],
}

/// 150-vector lists on 8 DPUs that are all busy, one uniform request.
const LONG_LISTS: Shape = Shape {
    vectors: 2400,
    nlist: 16,
    train_size: 900,
    seed: 1606,
    dpus: 8,
    history_nprobe: 5,
    queries: 24,
    options: &[(10, 5)],
};

/// The serving fixtures' shape: ~6-vector lists (fewer than the 11 tasklets,
/// so most tasklets scan nothing), 64 DPUs most of which are idle in a
/// launch, and one request with mixed options that `execute_grouped` splits
/// into four launches.
const SHORT_LISTS: Shape = Shape {
    vectors: 2048,
    nlist: 512,
    train_size: 1536,
    seed: 2011,
    dpus: 64,
    history_nprobe: 8,
    queries: 12,
    options: &[(10, 4), (20, 8), (10, 8), (20, 4)],
};

fn observed(shape: &Shape) -> String {
    let n = shape.vectors;
    let data = SyntheticSpec {
        size_skew: 0.0,
        ..SyntheticSpec::sift_like(n)
    }
    .with_clusters(shape.nlist)
    .with_seed(shape.seed)
    .generate();
    let index = IvfPqIndex::train(
        &data,
        &IvfPqParams::new(shape.nlist, 16).with_train_size(shape.train_size),
        5,
    );
    let history = data.gather(&(0..160).map(|i| i * 13 % n).collect::<Vec<_>>());
    let queries = data.gather(&(0..shape.queries).map(|i| i * 97 % n).collect::<Vec<_>>());
    let options = (0..shape.queries)
        .map(|i| {
            let (k, nprobe) = shape.options[i % shape.options.len()];
            QueryOptions::new(k, nprobe)
        })
        .collect();
    let request = SearchRequest::new(queries, options);

    let mut out = String::new();
    for (name, config) in [
        ("upanns", UpAnnsConfig::upanns()),
        ("pim_naive", UpAnnsConfig::pim_naive()),
    ] {
        let mut engine = UpAnnsBuilder::new(&index)
            .with_config(config.with_work_scale(150.0))
            .with_pim_config(PimConfig::with_dpus(shape.dpus))
            .with_history(&history, shape.history_nprobe)
            .build();
        let response = engine.execute(&request);
        writeln!(out, "[{name}]").unwrap();
        writeln!(out, "seconds {:016x}", response.seconds.to_bits()).unwrap();
        for (label, seconds) in response.breakdown.entries() {
            writeln!(out, "stage {label} {:016x}", seconds.to_bits()).unwrap();
        }
        writeln!(out, "stats {:?}", response.stats).unwrap();
        let report = engine.last_exec_report().expect("one launch ran");
        writeln!(out, "critical_dpu {}", report.critical_dpu).unwrap();
        writeln!(out, "per_dpu_cycles {:?}", report.per_dpu_cycles).unwrap();
        for (label, seconds) in report.breakdown.entries() {
            writeln!(out, "kernel_stage {label} {:016x}", seconds.to_bits()).unwrap();
        }
        let sys = engine.pim_system();
        for dpu in 0..sys.num_dpus() {
            writeln!(out, "dpu{dpu} {:?}", sys.dpu(dpu).stats()).unwrap();
        }
        for (q, neighbors) in response.results.iter().enumerate() {
            write!(out, "q{q}").unwrap();
            for n in neighbors {
                write!(out, " {}:{:08x}", n.id, n.distance.to_bits()).unwrap();
            }
            writeln!(out).unwrap();
        }
    }
    out
}

fn assert_matches(got: &str, golden: &str) {
    if got != golden {
        for (i, (g, w)) in got.lines().zip(golden.lines()).enumerate() {
            assert_eq!(g, w, "first difference at golden line {}", i + 1);
        }
        assert_eq!(
            got.lines().count(),
            golden.lines().count(),
            "line count differs"
        );
    }
}

#[test]
fn modeled_numbers_and_answers_match_the_pre_rewrite_golden() {
    assert_matches(&observed(&LONG_LISTS), GOLDEN);
}

#[test]
fn short_lists_idle_dpus_and_mixed_options_match_their_golden() {
    assert_matches(&observed(&SHORT_LISTS), GOLDEN_SHORT_LISTS);
}
