//! Fixture-driven end-to-end tests for `upanns-lint`.
//!
//! Each fixture under `tests/fixtures/` is a miniature workspace mirroring
//! the real layout (rules are path-scoped, so `crates/serve/src/...`
//! placement matters). The workspace walker skips directories named
//! `fixtures`, which is what keeps these deliberate violations out of the
//! real `--workspace` run.

use std::path::{Path, PathBuf};
use std::process::Command;

use upanns_lint::{lint_root, LintReport};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn lint(name: &str) -> LintReport {
    lint_root(&fixture(name)).expect("fixture tree lints without I/O errors")
}

fn rules_hit(report: &LintReport) -> Vec<&'static str> {
    report.violations.iter().map(|v| v.rule).collect()
}

#[test]
fn wall_clock_bad_flagged_good_clean() {
    assert!(rules_hit(&lint("wall_clock/bad")).contains(&"no-wall-clock"));
    assert!(lint("wall_clock/good").is_clean());
}

#[test]
fn wall_clock_scope_bad_flagged_good_clean() {
    // The good tree reads `Instant` from `crates/runtime/` (library and
    // binary), which the prefix-scoped allowlist admits wholesale; the bad
    // tree reads it from a lookalike `runtime.rs` under `crates/serve/`,
    // which stays banned.
    assert!(lint("wall_clock_scope/good").is_clean());
    assert!(rules_hit(&lint("wall_clock_scope/bad")).contains(&"no-wall-clock"));
}

#[test]
fn ambient_rng_bad_flagged_good_clean() {
    assert!(rules_hit(&lint("ambient_rng/bad")).contains(&"no-ambient-rng"));
    assert!(lint("ambient_rng/good").is_clean());
}

#[test]
fn unordered_iteration_bad_flagged_good_clean() {
    let report = lint("unordered_iter/bad");
    assert!(rules_hit(&report).contains(&"no-unordered-iteration"));
    // The rule's scope covers the serving layer AND the live-index mutation
    // module — both fixture files must be flagged.
    let files: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "no-unordered-iteration")
        .map(|v| v.file.as_str())
        .collect();
    assert!(files.iter().any(|f| f.contains("crates/serve/")), "{files:?}");
    assert!(
        files.iter().any(|f| f.contains("crates/annkit/src/mutation.rs")),
        "{files:?}"
    );
    assert!(lint("unordered_iter/good").is_clean());
}

#[test]
fn vendor_api_bad_flagged_good_clean() {
    let report = lint("vendor_api/bad");
    let vendor: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "vendor-api-surface")
        .collect();
    // Both the `use` import and the qualified expression path are caught.
    assert!(vendor.len() >= 2, "{vendor:?}");
    assert!(lint("vendor_api/good").is_clean());
}

#[test]
fn unwrap_hot_path_bad_flagged_good_clean() {
    let report = lint("unwrap_hot_path/bad");
    // The hot path is the serve dispatch/batcher files, the serving core,
    // the thread driver that steps it and the bench's spec parsers — every
    // fixture file is flagged.
    for file in [
        "crates/serve/src/dispatch.rs",
        "crates/serve/src/core.rs",
        "crates/runtime/src/pipeline.rs",
        "crates/runtime/src/scenario.rs",
    ] {
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.rule == "no-unwrap-in-hot-path" && v.file == file),
            "{file} not flagged: {:?}",
            report.violations
        );
    }
    assert!(lint("unwrap_hot_path/good").is_clean());
}

#[test]
fn unsafe_outside_simd_bad_flagged_good_clean() {
    // The bad tree hides `unsafe` in a serve-side "fast path"; the good
    // tree keeps it in the one sanctioned module path.
    assert!(rules_hit(&lint("unsafe_outside_simd/bad")).contains(&"no-unsafe-outside-simd"));
    assert!(lint("unsafe_outside_simd/good").is_clean());
}

#[test]
fn reasoned_directive_silences_the_violation() {
    let report = lint("directive_silenced");
    assert!(report.is_clean(), "{:?}", report.violations);
}

#[test]
fn unused_directive_is_reported() {
    let report = lint("directive_unused");
    assert_eq!(rules_hit(&report), vec!["directive"]);
    assert!(report.violations[0].message.contains("unused"));
}

#[test]
fn malformed_directive_is_reported() {
    let report = lint("directive_malformed");
    assert_eq!(rules_hit(&report), vec!["directive"]);
    assert!(report.violations[0].message.contains("malformed"));
}

#[test]
fn violations_are_sorted_and_located() {
    let report = lint("wall_clock/bad");
    let mut sorted = report.violations.clone();
    sorted.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    assert_eq!(report.violations, sorted);
    for v in &report.violations {
        assert!(v.line > 0);
        assert!(v.file.starts_with("crates/"), "{}", v.file);
    }
}

// ---------------------------------------------------------------------------
// Binary-level tests (exit codes and `--json` shape)
// ---------------------------------------------------------------------------

fn run_binary(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_upanns-lint"))
        .args(args)
        .output()
        .expect("binary runs");
    (out.status.code(), String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn seeded_violation_exits_nonzero() {
    for bad in [
        "wall_clock/bad",
        "wall_clock_scope/bad",
        "ambient_rng/bad",
        "unordered_iter/bad",
        "vendor_api/bad",
        "unwrap_hot_path/bad",
        "unsafe_outside_simd/bad",
    ] {
        let root = fixture(bad);
        let (code, _) = run_binary(&["--root", root.to_str().expect("utf-8 path")]);
        assert_eq!(code, Some(1), "expected exit 1 for {bad}");
    }
}

#[test]
fn clean_tree_exits_zero() {
    let root = fixture("wall_clock/good");
    let (code, stdout) = run_binary(&["--root", root.to_str().expect("utf-8 path")]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("0 violation(s)"), "{stdout}");
}

#[test]
fn usage_error_exits_two() {
    let (code, _) = run_binary(&["--no-such-flag"]);
    assert_eq!(code, Some(2));
}

#[test]
fn json_output_shape() {
    let root = fixture("unwrap_hot_path/bad");
    let (code, stdout) = run_binary(&["--root", root.to_str().expect("utf-8 path"), "--json"]);
    assert_eq!(code, Some(1));
    assert!(
        stdout.starts_with("{\"schema\":\"upanns-lint/v1\",\"files_checked\":"),
        "{stdout}"
    );
    assert!(stdout.contains("\"rule\":\"no-unwrap-in-hot-path\""), "{stdout}");
    assert!(stdout.contains("\"file\":\"crates/serve/src/dispatch.rs\""), "{stdout}");
    assert!(stdout.contains("\"line\":4"), "{stdout}");
    assert!(stdout.trim_end().ends_with("]}"), "{stdout}");
}

/// The real workspace must lint clean — the same check CI runs, enforced
/// here too so `cargo test` alone catches a regression.
#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = lint_root(&root).expect("workspace lints");
    assert!(report.files_checked > 50, "walked {} files", report.files_checked);
    assert!(report.is_clean(), "{}", report.render_human());
}
