//! Smoke test for the benchmark harness: builds an [`EvalContext`] at tiny
//! scale and exercises the same construction + search + reporting path the
//! `figures` binary drives, so bit-rot in that entry path fails `cargo test`
//! instead of only surfacing on the next manual `figures` run.

use annkit::synthetic::DatasetKind;
use baselines::engine::AnnEngine;
use std::process::Command;
use upanns_bench::{fmt, EvalContext, EvalParams, ResultTable};

/// Parameters small enough that the whole smoke test runs in seconds.
fn tiny_params() -> EvalParams {
    EvalParams {
        n: 1_500,
        nlist: 32,
        nprobes: vec![4, 8],
        dpus: 8,
        batch: 24,
        modeled_n: 1_500.0,
        k: 5,
        train_size: 600,
        seed: 7,
    }
}

#[test]
fn eval_context_drives_all_engines_at_tiny_scale() {
    let params = tiny_params();
    let ctx = EvalContext::build(DatasetKind::SiftLike, &params);
    assert_eq!(ctx.queries.len(), params.batch);
    assert_eq!(ctx.history.len(), params.batch * 4);
    assert_eq!(ctx.index.nlist(), params.nlist);

    // The figures experiments sweep every engine over (nprobe, k); do one
    // cell of that sweep per engine and sanity-check the outcomes.
    let nprobe = params.nprobes[0];
    let k = params.k;

    let upanns = ctx.upanns().search_batch(&ctx.queries, nprobe, k);
    let naive = ctx.pim_naive().search_batch(&ctx.queries, nprobe, k);
    let cpu = ctx.cpu().search_batch(&ctx.queries, nprobe, k);
    let gpu = ctx.gpu().search_batch(&ctx.queries, nprobe, k);

    for (name, outcome) in [
        ("upanns", &upanns),
        ("pim_naive", &naive),
        ("cpu", &cpu),
        ("gpu", &gpu),
    ] {
        assert_eq!(outcome.results.len(), params.batch, "{name} result count");
        assert!(outcome.qps() > 0.0, "{name} qps");
        for neighbors in &outcome.results {
            assert!(!neighbors.is_empty(), "{name} returned an empty top-k");
            assert!(neighbors.len() <= k, "{name} returned more than k");
        }
    }

    // All engines share the functional IVFPQ search path, so the answers of
    // the two PIM configurations must agree exactly.
    for (a, b) in upanns.results.iter().zip(&naive.results) {
        let ids_a: Vec<u64> = a.iter().map(|n| n.id).collect();
        let ids_b: Vec<u64> = b.iter().map(|n| n.id).collect();
        assert_eq!(ids_a, ids_b, "UpANNS and PIM-naive disagree");
    }

    // The reporting path used by every experiment.
    let mut table = ResultTable::new("smoke", &["engine", "qps"]);
    table.push_row(vec!["upanns".into(), fmt(upanns.qps(), 1)]);
    let md = table.to_markdown();
    assert!(md.contains("| engine | qps |"));
}

#[test]
fn figures_binary_runs_the_cheap_experiments() {
    // `tab1` (hardware table) and `fig7` (MRAM cost model) need no dataset,
    // so they exercise main()'s argument parsing, dispatch and CSV writing
    // in well under a second.
    let out_dir = std::env::temp_dir().join("upanns_figures_smoke");
    std::fs::create_dir_all(&out_dir).expect("create temp dir");
    let output = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["tab1", "fig7"])
        .current_dir(&out_dir)
        .output()
        .expect("figures binary runs");
    assert!(
        output.status.success(),
        "figures exited with {:?}\nstderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("tab1_hardware"), "hardware table missing");
    assert!(
        out_dir.join("results").join("tab1_hardware.csv").exists(),
        "CSV output missing"
    );
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn figures_binary_rejects_an_unknown_id_before_any_work() {
    // The unknown id comes *after* a valid one: nothing may run or be
    // written, and the status is exactly 2 (a panic's 101 is not a
    // rejection). `fig99` is a typo; `fig1`, `fig4` and `fig13` are paper
    // figures with no generator, and `--full` is not a flag.
    let out_dir = std::env::temp_dir().join("upanns_figures_unknown_id");
    std::fs::create_dir_all(&out_dir).expect("create temp dir");
    for unknown in ["fig99", "fig1", "fig4", "fig13", "--full"] {
        let output = Command::new(env!("CARGO_BIN_EXE_figures"))
            .args(["tab1", unknown])
            .current_dir(&out_dir)
            .output()
            .expect("figures binary runs");
        assert_eq!(output.status.code(), Some(2), "{unknown}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.starts_with(&format!("error: unknown experiment id '{unknown}'")),
            "stderr: {stderr}"
        );
        assert!(
            output.stdout.is_empty(),
            "work was done before the id check of {unknown}"
        );
        assert!(
            !out_dir.join("results").exists(),
            "a CSV was written before the id check of {unknown}"
        );
    }
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn figures_binary_fails_when_a_csv_cannot_be_written() {
    // `results` is a regular file, so no CSV can be written under it. The
    // committed records would then be stale, so the run must fail (not 0)
    // and name the table it could not write.
    let out_dir = std::env::temp_dir().join("upanns_figures_unwritable");
    std::fs::create_dir_all(&out_dir).expect("create temp dir");
    std::fs::write(out_dir.join("results"), b"not a directory").expect("create results file");
    let output = Command::new(env!("CARGO_BIN_EXE_figures"))
        .arg("tab1")
        .current_dir(&out_dir)
        .output()
        .expect("figures binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !output.status.success(),
        "figures exited with {:?}",
        output.status
    );
    assert!(stderr.contains("tab1_hardware"), "stderr: {stderr}");
    std::fs::remove_dir_all(&out_dir).ok();
}
