//! Golden record of everything the cycle model and the functional kernel
//! produce for one small fixed request, captured at the commit *before* the
//! functional half of `run_batch_kernel` was rewritten for host speed.
//!
//! A host-only change must leave every modeled number bit-identical: the
//! response's modeled seconds, each breakdown entry, the workload counters,
//! the per-DPU cycle counts and statistics (compute / DMA cycles, transfer
//! counts, MRAM bytes, WRAM peak) and the answers (ids and distance bits). The
//! benchmark checks that on its own fixtures; this test makes it part of
//! `cargo test`. To move the golden on purpose (a cost-model change), print
//! `observed(..)` and replace `tests/golden/modeled_invariance.txt`.
//!
//! The fixture avoids libm: uniform cluster sizes (`powf(0.0)` is exact) and
//! dataset rows as history and queries, so the record does not depend on the
//! platform's last-bit rounding of `powf` / `ln`.

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::synthetic::SyntheticSpec;
use baselines::engine::{AnnEngine, SearchRequest};
use pim_sim::config::PimConfig;
use std::fmt::Write;
use upanns::builder::{BatchCapacity, UpAnnsBuilder};
use upanns::config::UpAnnsConfig;

const GOLDEN: &str = include_str!("golden/modeled_invariance.txt");

fn observed() -> String {
    let data = SyntheticSpec::sift_like(2400)
        .with_clusters(16)
        .with_size_skew(0.0)
        .with_seed(1606)
        .generate();
    let index = IvfPqIndex::train(&data, &IvfPqParams::new(16, 16).with_train_size(900), 5);
    let history = data.gather(&(0..160).map(|i| i * 13 % 2400).collect::<Vec<_>>());
    let queries = data.gather(&(0..24).map(|i| i * 97 % 2400).collect::<Vec<_>>());
    let request = SearchRequest::uniform(&queries, 5, 10);

    let mut out = String::new();
    for (name, config) in [
        ("upanns", UpAnnsConfig::upanns()),
        ("pim_naive", UpAnnsConfig::pim_naive()),
    ] {
        let mut engine = UpAnnsBuilder::new(&index)
            .with_config(config.with_work_scale(150.0))
            .with_pim_config(PimConfig::with_dpus(8))
            .with_history(&history, 5)
            .with_batch_capacity(BatchCapacity {
                batch_size: 24,
                nprobe: 5,
                max_k: 10,
            })
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

#[test]
fn modeled_numbers_and_answers_match_the_pre_rewrite_golden() {
    let got = observed();
    if got != GOLDEN {
        for (i, (g, w)) in got.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(g, w, "first difference at golden line {}", i + 1);
        }
        assert_eq!(got.lines().count(), GOLDEN.lines().count(), "line count differs");
    }
}
