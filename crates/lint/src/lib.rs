//! `upanns-lint`: the workspace invariant checker.
//!
//! Every committed claim in this repository — byte-diffed bench records,
//! answer-invariance proptests, the replay-clock model — rests on
//! invariants that ordinary compilation does not enforce: no wall-clock
//! reads, no ambient randomness, no hash-order-dependent serve output,
//! vendored stubs used only through their documented API surface, no
//! panicking shortcuts in the serve hot path, and no `unsafe` outside the
//! one sanctioned SIMD module. This crate machine-checks them.
//!
//! The pipeline per file is: [`lexer::lex`] (comment/string-aware token
//! stream) → [`rules::check_file`] (the six rules) → directive
//! application ([`directives`]) which removes violations carrying a
//! reasoned `allow` and reports unused or malformed directives. Results
//! come back as a [`LintReport`] with deterministic ordering — the linter
//! holds itself to the invariants it enforces (sorted walk, sorted
//! violations, no unordered-map iteration anywhere in its own source).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod diagnostics;
pub mod directives;
pub mod lexer;
pub mod rules;

pub use diagnostics::LintReport;
pub use rules::Violation;

use rules::{FileInput, VendorManifests};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into: build output, lint fixtures
/// (deliberate violations), and dot-directories.
const SKIP_DIRS: &[&str] = &["target", "fixtures"];

/// The vendored stubs whose `API.txt` manifests the vendor-api-surface
/// rule consults.
const VENDOR_STUBS: &[&str] = &["rand", "proptest"];

/// Lints every `.rs` file under `root`, returning a deterministic report.
pub fn lint_root(root: &Path) -> io::Result<LintReport> {
    let vendor = load_manifests(root)?;
    let files = collect_rs_files(root)?;
    let mut report = LintReport::default();
    for path in &files {
        let rel = rel_path(root, path);
        let source = fs::read_to_string(path)?;
        let lexed = lexer::lex(&source);
        let mut violations = rules::check_file(&FileInput { rel: &rel, lexed: &lexed }, &vendor);
        apply_directives(&rel, &lexed, &mut violations);
        report.violations.append(&mut violations);
        report.files_checked += 1;
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Applies directive comments from `lexed` to `violations` in place:
/// silences matched violations, reports malformed/unknown/unused
/// directives under the synthetic `directive` rule.
fn apply_directives(rel: &str, lexed: &lexer::LexedFile, violations: &mut Vec<Violation>) {
    let mut extra = Vec::new();
    for comment in &lexed.comments {
        if comment.doc {
            continue;
        }
        match directives::parse(&comment.text) {
            None => {}
            Some(Err(why)) => extra.push(Violation {
                rule: "directive",
                file: rel.to_string(),
                line: comment.line,
                message: format!("malformed lint directive: {why}"),
            }),
            Some(Ok(d)) => {
                let target = if comment.trailing {
                    Some(comment.line)
                } else {
                    lexed.next_code_line(comment.line)
                };
                let before = violations.len();
                if let Some(t) = target {
                    violations.retain(|v| !(v.rule == d.rule && v.line == t));
                }
                if violations.len() == before {
                    extra.push(Violation {
                        rule: "directive",
                        file: rel.to_string(),
                        line: comment.line,
                        message: format!(
                            "unused lint directive: no `{}` violation on the targeted line",
                            d.rule
                        ),
                    });
                }
            }
        }
    }
    violations.append(&mut extra);
}

/// Recursively collects `.rs` files under `root` in sorted order, skipping
/// [`SKIP_DIRS`] and dot-directories so fixture trees and build output are
/// never linted as workspace code.
fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            if path.is_dir() {
                if !name.starts_with('.') && !SKIP_DIRS.contains(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Loads `vendor/<stub>/API.txt` manifests. A missing file becomes `None`
/// and is reported only if a call site actually targets that stub, so
/// fixture mini-workspaces without a `vendor/` tree lint cleanly.
fn load_manifests(root: &Path) -> io::Result<VendorManifests> {
    let mut stubs = Vec::new();
    for name in VENDOR_STUBS {
        let path = root.join("vendor").join(name).join("API.txt");
        let entries = match fs::read_to_string(&path) {
            Ok(text) => Some(
                text.lines()
                    .map(str::trim)
                    .filter(|l| !l.is_empty() && !l.starts_with('#'))
                    .map(str::to_string)
                    .collect::<Vec<_>>(),
            ),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        stubs.push((name.to_string(), entries));
    }
    Ok(VendorManifests { stubs })
}

/// `path` relative to `root`, with forward slashes.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run_directives(src: &str, mut violations: Vec<Violation>) -> Vec<Violation> {
        let lexed = lex(src);
        apply_directives("f.rs", &lexed, &mut violations);
        violations
    }

    fn vio(rule: &'static str, line: u32) -> Violation {
        Violation {
            rule,
            file: "f.rs".to_string(),
            line,
            message: String::new(),
        }
    }

    #[test]
    fn trailing_directive_silences_its_own_line() {
        let src = "let t = now(); // lint: allow(wall-clock, reason = \"boot banner only\")\n";
        let out = run_directives(src, vec![vio("no-wall-clock", 1)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn standalone_directive_silences_next_code_line() {
        let src = "// lint: allow(unordered-iter, reason = \"sorted downstream\")\nlet x = 1;\n";
        let out = run_directives(src, vec![vio("no-unordered-iteration", 2)]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unused_directive_is_itself_a_violation() {
        let src = "// lint: allow(unwrap, reason = \"nothing here\")\nlet x = 1;\n";
        let out = run_directives(src, Vec::new());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "directive");
        assert!(out[0].message.contains("unused"), "{}", out[0].message);
    }

    #[test]
    fn malformed_directive_is_reported() {
        let src = "// lint: allow(unwrap)\nlet x = 1;\n";
        let out = run_directives(src, Vec::new());
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("malformed"), "{}", out[0].message);
    }

    #[test]
    fn directive_only_silences_matching_rule() {
        let src = "// lint: allow(unwrap, reason = \"checked above\")\nlet x = 1;\n";
        let out = run_directives(src, vec![vio("no-wall-clock", 2)]);
        // The wall-clock violation survives and the directive is unused.
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn doc_comments_never_act_as_directives() {
        let src = "/// lint: allow(unwrap, reason = \"doc example\")\nfn f() {}\n";
        let out = run_directives(src, Vec::new());
        assert!(out.is_empty(), "{out:?}");
    }
}
