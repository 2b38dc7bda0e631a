//! The rule set. Each rule guards one documented workspace invariant (see
//! ARCHITECTURE.md, "Static invariants"):
//!
//! * **no-wall-clock** — `Instant`/`SystemTime` are banned outside the
//!   `crates/runtime/` subtree (the threaded runtime is the one subsystem
//!   whose *job* is real time), so the replay clock stays the only time
//!   source the model crates can observe.
//! * **no-ambient-rng** — entropy-seeded RNG constructors are banned outside
//!   tests; every production stream must derive from an explicit seed.
//! * **no-unordered-iteration** — iterating a `HashMap`/`HashSet` binding
//!   (or a `let` alias of one) in `crates/serve`, `crates/runtime`, the
//!   live-index modules or the engine without a subsequent sort, which
//!   would let hash-order leak into byte-diffed reports, answer maps and
//!   exact-per-seed metrics.
//! * **vendor-api-surface** — qualified paths and `use` imports into the
//!   vendored stubs must appear in that stub's `API.txt` manifest, so the
//!   real registry crates can swap in without code changes.
//! * **no-unwrap-in-hot-path** — `.unwrap()`/`.expect()` in the serve
//!   dispatch/service/batcher/core files, the runtime's pipeline and the
//!   engines' request paths (`baselines`' `engine.rs` and `faiss.rs`,
//!   `upanns`' `replica.rs`), where a panic aborts live queries, and in the
//!   runtime's scenario module, whose spec parsers read the command line.
//! * **no-unsafe-outside-simd** — the `unsafe` keyword is banned everywhere
//!   except the one sanctioned SIMD module (`crates/annkit/src/simd.rs`),
//!   whose intrinsics are proven bitwise-equal to scalar references by the
//!   equivalence proptests; `unsafe` anywhere else dodges that proof
//!   obligation and the crate-root `deny(unsafe_code)` reasoning.
//!
//! Rules run over the lexed token stream ([`crate::lexer`]) — never raw
//! text — so names inside comments, docs and string literals are invisible
//! to them.

use crate::lexer::{LexedFile, Token, TokenKind};

/// One rule violation, keyed by canonical rule name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Canonical rule name, or `directive` for directive hygiene findings.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// A lexed file plus its workspace-relative path.
pub struct FileInput<'a> {
    /// Relative path with forward slashes (e.g. `crates/serve/src/cache.rs`).
    pub rel: &'a str,
    /// The lexed contents.
    pub lexed: &'a LexedFile,
}

/// Per-stub vendor API manifests, loaded from `vendor/<stub>/API.txt`.
/// `None` means the manifest file is absent (reported at first use site).
pub struct VendorManifests {
    /// `(stub crate name, manifest entries)` pairs, in declaration order.
    pub stubs: Vec<(String, Option<Vec<String>>)>,
}

/// Path *prefixes* allowed to touch wall-clock types: `upanns-runtime`
/// (`crates/runtime/`) is the threaded serving runtime — driving real
/// threads against real deadlines is its entire purpose, and its
/// determinism story is the logical-trace twin (byte-diffed against the
/// replay in CI), not clock abstinence. Everything outside these prefixes
/// stays banned so the simulation crates can never observe time.
const WALL_CLOCK_ALLOWED_PREFIXES: &[&str] = &["crates/runtime/"];

/// Entropy-tapping constructors; seeded construction is always fine.
const AMBIENT_RNG: &[&str] = &[
    "thread_rng",
    "from_entropy",
    "from_os_rng",
    "OsRng",
    "ThreadRng",
];

/// Unordered-collection methods that expose hash order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Idents whose appearance shortly after an unordered iteration restores a
/// deterministic order. `min_by_key`/`max_by_key` are deliberately absent:
/// they break ties in encounter order, which *is* hash order.
const SORT_FAMILY: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// How many tokens after an iteration site to scan for a sort.
const SORT_WINDOW: usize = 80;

/// Files whose panic on a bad query would abort unrelated tenants — the
/// serve hot path, the serving core, and the thread driver that steps it;
/// the request path every engine runs through (`engine.rs`), the baselines'
/// (`faiss.rs`) and the multi-host tier's (`replica.rs`) — plus the bench's
/// scenario module, whose spec parsers take text straight from the command
/// line and must answer it with an `Err`, not a panic.
const HOT_PATH_FILES: &[&str] = &[
    "crates/serve/src/dispatch.rs",
    "crates/serve/src/service.rs",
    "crates/serve/src/batcher.rs",
    "crates/serve/src/core.rs",
    "crates/runtime/src/pipeline.rs",
    "crates/runtime/src/scenario.rs",
    "crates/baselines/src/engine.rs",
    "crates/baselines/src/faiss.rs",
    "crates/core/src/replica.rs",
];

/// The only files allowed to contain `unsafe`: the sanctioned SIMD module,
/// where every unsafe block is a call into a `#[target_feature]` kernel whose
/// preconditions are established by runtime feature detection and whose
/// results are proven bitwise-equal to scalar references.
const UNSAFE_ALLOWLIST: &[&str] = &["crates/annkit/src/simd.rs"];

/// Runs every rule over one file, returning raw (pre-directive) violations.
pub fn check_file(input: &FileInput<'_>, vendor: &VendorManifests) -> Vec<Violation> {
    let mut out = Vec::new();
    let test_ranges = test_line_ranges(input.lexed);
    no_wall_clock(input, &mut out);
    no_ambient_rng(input, &test_ranges, &mut out);
    no_unordered_iteration(input, &mut out);
    vendor_api_surface(input, vendor, &mut out);
    no_unwrap_in_hot_path(input, &test_ranges, &mut out);
    no_unsafe_outside_simd(input, &mut out);
    out
}

// ---------------------------------------------------------------------------
// `#[cfg(test)]` region detection
// ---------------------------------------------------------------------------

/// Line ranges (inclusive) of items gated behind `#[cfg(test)]`. Detection
/// is token-based: an attribute whose idents include `cfg` and `test` but
/// not `not`, followed by an item consumed to its matching closing brace
/// (or terminating semicolon).
fn test_line_ranges(lexed: &LexedFile) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("["))) {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        // Collect idents inside the attribute's brackets.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut idents: Vec<&str> = Vec::new();
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("[") {
                depth += 1;
            } else if t.is_punct("]") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokenKind::Ident {
                idents.push(&t.text);
            }
            j += 1;
        }
        let is_cfg_test = idents.contains(&"cfg")
            && idents.contains(&"test")
            && !idents.contains(&"not");
        if !is_cfg_test {
            i = j + 1;
            continue;
        }
        // Consume the gated item: skip any further attributes, then match
        // braces to the item's end (or stop at a bare semicolon).
        let mut k = j + 1;
        let mut brace_depth = 0usize;
        let mut end_line = start_line;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct("{") {
                brace_depth += 1;
            } else if t.is_punct("}") {
                brace_depth = brace_depth.saturating_sub(1);
                if brace_depth == 0 {
                    end_line = t.line;
                    break;
                }
            } else if t.is_punct(";") && brace_depth == 0 {
                end_line = t.line;
                break;
            }
            end_line = t.line;
            k += 1;
        }
        ranges.push((start_line, end_line));
        i = k + 1;
    }
    ranges
}

fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(a, b)| line >= a && line <= b)
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn no_wall_clock(input: &FileInput<'_>, out: &mut Vec<Violation>) {
    if WALL_CLOCK_ALLOWED_PREFIXES.iter().any(|p| input.rel.starts_with(p)) {
        return;
    }
    for t in &input.lexed.tokens {
        if t.kind == TokenKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            out.push(Violation {
                rule: "no-wall-clock",
                file: input.rel.to_string(),
                line: t.line,
                message: format!(
                    "wall-clock type `{}` is banned; the replay clock (crates/serve) must be \
                     the only observable time source",
                    t.text
                ),
            });
        }
    }
}

fn no_ambient_rng(input: &FileInput<'_>, test_ranges: &[(u32, u32)], out: &mut Vec<Violation>) {
    // Integration-test trees are exempt wholesale; unit tests are exempt
    // via their `#[cfg(test)]` ranges.
    if input.rel.starts_with("tests/") || input.rel.contains("/tests/") {
        return;
    }
    for t in &input.lexed.tokens {
        if t.kind == TokenKind::Ident
            && AMBIENT_RNG.contains(&t.text.as_str())
            && !in_ranges(test_ranges, t.line)
        {
            out.push(Violation {
                rule: "no-ambient-rng",
                file: input.rel.to_string(),
                line: t.line,
                message: format!(
                    "`{}` taps ambient entropy; production randomness must come from an \
                     explicit seed (e.g. `SmallRng::seed_from_u64`)",
                    t.text
                ),
            });
        }
    }
}

fn no_unordered_iteration(input: &FileInput<'_>, out: &mut Vec<Violation>) {
    // The serving/runtime layers plus the live-index modules: snapshot
    // installs, mutation replay and compaction planning all feed the
    // byte-reproducible twin contract, so iteration order there must be
    // deterministic too.
    if !(input.rel.starts_with("crates/serve/")
        || input.rel.starts_with("crates/runtime/")
        || input.rel == "crates/annkit/src/mutation.rs"
        || input.rel == "crates/core/src/compaction.rs"
        || input.rel == "crates/core/src/engine.rs")
    {
        return;
    }
    let toks = &input.lexed.tokens;

    // Pass 1: names bound to HashMap/HashSet — struct fields
    // (`entries: HashMap<..>`), lets with annotations, and
    // `name = HashMap::new()` initialisers. `&`/`mut`/lifetimes between the
    // separator and the type are skipped.
    let mut unordered: Vec<&str> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        let mut j = i;
        while j > 0 {
            let p = &toks[j - 1];
            let skippable = p.is_punct("&")
                || p.is_ident("mut")
                || (p.kind == TokenKind::Literal && p.text.starts_with('\''));
            if skippable {
                j -= 1;
            } else {
                break;
            }
        }
        if j == 0 {
            continue;
        }
        let sep = &toks[j - 1];
        if (sep.is_punct(":") || sep.is_punct("=")) && j >= 2 {
            let name = &toks[j - 2];
            if name.kind == TokenKind::Ident && !unordered.contains(&name.text.as_str()) {
                unordered.push(&name.text);
            }
        }
    }
    if unordered.is_empty() {
        return;
    }

    // Pass 1b: `let alias = [&][mut] path.to.name;` — a borrow of an
    // unordered binding under another name iterates in the same hash order
    // (`let rates = &self.current().reduction_rates; rates.values().sum()`
    // is how an order-dependent f64 sum once got past this rule).
    let mut aliases: Vec<&str> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let ends_statement = toks.get(i + 1).is_some_and(|p| p.is_punct(";"));
        if t.kind != TokenKind::Ident || !unordered.contains(&t.text.as_str()) || !ends_statement {
            continue;
        }
        // The nearest statement boundary or `=` to the left; an alias has
        // `let [mut] alias` right before the `=`.
        let boundary = ["=", ";", "{", "}"];
        let Some(eq) = (0..i)
            .rev()
            .find(|&j| boundary.iter().any(|p| toks[j].is_punct(p)))
        else {
            continue;
        };
        let is_let = |j: usize| {
            toks[j].is_ident("let")
                || (toks[j].is_ident("mut") && j >= 1 && toks[j - 1].is_ident("let"))
        };
        let names_alias = eq >= 2 && toks[eq - 1].kind == TokenKind::Ident && is_let(eq - 2);
        if toks[eq].is_punct("=") && names_alias {
            aliases.push(&toks[eq - 1].text);
        }
    }
    unordered.extend(aliases);

    let flag = |name: &str, idx: usize, out: &mut Vec<Violation>| {
        let sorted_after = toks[idx..toks.len().min(idx + SORT_WINDOW)]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && SORT_FAMILY.contains(&t.text.as_str()));
        if !sorted_after {
            out.push(Violation {
                rule: "no-unordered-iteration",
                file: input.rel.to_string(),
                line: toks[idx].line,
                message: format!(
                    "iterating unordered collection `{name}` without a subsequent sort lets \
                     hash order leak into serve output (byte-diffed bench records depend on \
                     deterministic ordering)"
                ),
            });
        }
    };

    // Pass 2a: method-call sites `name.iter()` / `self.name.keys()` ...
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || !unordered.contains(&t.text.as_str()) {
            continue;
        }
        let dot = toks.get(i + 1).is_some_and(|p| p.is_punct("."));
        let method = toks.get(i + 2);
        let call = toks.get(i + 3).is_some_and(|p| p.is_punct("("));
        if dot && call {
            if let Some(m) = method {
                if m.kind == TokenKind::Ident && ITER_METHODS.contains(&m.text.as_str()) {
                    flag(&t.text, i, out);
                }
            }
        }
    }

    // Pass 2b: direct `for x in [&][mut] [self.]name {` iteration.
    for i in 0..toks.len() {
        if !toks[i].is_ident("for") {
            continue;
        }
        // Find the `in` belonging to this loop header (bounded scan).
        let Some(in_idx) = (i + 1..toks.len().min(i + 24)).find(|&k| toks[k].is_ident("in"))
        else {
            continue;
        };
        let mut k = in_idx + 1;
        while k < toks.len() && (toks[k].is_punct("&") || toks[k].is_ident("mut")) {
            k += 1;
        }
        if k + 1 < toks.len() && toks[k].is_ident("self") && toks[k + 1].is_punct(".") {
            k += 2;
        }
        let Some(name) = toks.get(k) else { continue };
        if name.kind == TokenKind::Ident
            && unordered.contains(&name.text.as_str())
            && toks.get(k + 1).is_some_and(|p| p.is_punct("{"))
        {
            flag(&name.text, k, out);
        }
    }
}

fn vendor_api_surface(input: &FileInput<'_>, vendor: &VendorManifests, out: &mut Vec<Violation>) {
    // The stubs themselves may use internal items freely.
    if input.rel.starts_with("vendor/") {
        return;
    }
    let toks = &input.lexed.tokens;
    let stub_names: Vec<&str> = vendor.stubs.iter().map(|(n, _)| n.as_str()).collect();
    let mut paths: Vec<(String, u32)> = Vec::new();

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident("use") {
            // Parse the whole use statement as a use-tree.
            let end = (i + 1..toks.len())
                .find(|&k| toks[k].is_punct(";"))
                .unwrap_or(toks.len());
            let mut pos = i + 1;
            collect_use_tree(&toks[..end], &mut pos, String::new(), &mut paths);
            i = end + 1;
            continue;
        }
        // Qualified expression/type path starting at a stub crate name.
        if t.kind == TokenKind::Ident
            && stub_names.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|p| p.is_punct("::"))
        {
            let preceded_by_path = i > 0 && (toks[i - 1].is_punct("::") || toks[i - 1].is_punct("."));
            if !preceded_by_path {
                let mut path = t.text.clone();
                let mut k = i + 1;
                while toks.get(k).is_some_and(|p| p.is_punct("::"))
                    && toks.get(k + 1).is_some_and(|s| s.kind == TokenKind::Ident)
                {
                    path.push_str("::");
                    path.push_str(&toks[k + 1].text);
                    k += 2;
                }
                paths.push((path, t.line));
                i = k;
                continue;
            }
        }
        i += 1;
    }

    for (path, line) in paths {
        let Some(root) = path.split("::").next() else { continue };
        let Some((_, manifest)) = vendor.stubs.iter().find(|(n, _)| n == root) else {
            continue;
        };
        match manifest {
            None => out.push(Violation {
                rule: "vendor-api-surface",
                file: input.rel.to_string(),
                line,
                message: format!(
                    "`{path}` targets vendored stub `{root}` but vendor/{root}/API.txt is missing"
                ),
            }),
            Some(entries) => {
                if !path_allowed(&path, entries) {
                    out.push(Violation {
                        rule: "vendor-api-surface",
                        file: input.rel.to_string(),
                        line,
                        message: format!(
                            "`{path}` is not in vendor/{root}/API.txt; either the call site \
                             uses a stub-only API or the manifest needs a documented entry"
                        ),
                    });
                }
            }
        }
    }
}

/// A used path is allowed when it equals a manifest entry, descends from
/// one (`rand::rngs::SmallRng` under entry `rand::rngs`), or is an ancestor
/// of one (`use proptest::prelude` with entry `proptest::prelude::*` —
/// ancestors are importable module handles for allowed leaves).
fn path_allowed(path: &str, entries: &[String]) -> bool {
    entries.iter().any(|e| {
        path == e
            || path.strip_prefix(e.as_str()).is_some_and(|r| r.starts_with("::"))
            || e.strip_prefix(path).is_some_and(|r| r.starts_with("::"))
    })
}

/// Expands a use-tree token slice into full paths. Handles nested groups
/// (`use a::{b, c::{d, e}}`), glob imports (recorded as the glob's parent
/// path) and `as` renames (the alias ident is skipped).
fn collect_use_tree(toks: &[Token], pos: &mut usize, prefix: String, out: &mut Vec<(String, u32)>) {
    let mut segs: Vec<String> = if prefix.is_empty() { Vec::new() } else { vec![prefix] };
    let mut line = toks.get(*pos).map(|t| t.line).unwrap_or(0);
    while *pos < toks.len() {
        let t = &toks[*pos];
        if t.kind == TokenKind::Ident && t.text != "as" {
            if segs.is_empty() {
                line = t.line;
            }
            segs.push(t.text.clone());
            *pos += 1;
            if toks.get(*pos).is_some_and(|p| p.is_punct("::")) {
                *pos += 1;
                continue;
            }
            // Optional rename: `X as Y` — skip the alias.
            if toks.get(*pos).is_some_and(|p| p.is_ident("as")) {
                *pos += 2;
            }
            out.push((segs.join("::"), line));
            return;
        }
        if t.is_punct("*") {
            *pos += 1;
            out.push((segs.join("::"), line));
            return;
        }
        if t.is_punct("{") {
            *pos += 1;
            loop {
                if toks.get(*pos).is_none() || toks[*pos].is_punct("}") {
                    *pos += 1;
                    return;
                }
                collect_use_tree(toks, pos, segs.join("::"), out);
                if toks.get(*pos).is_some_and(|p| p.is_punct(",")) {
                    *pos += 1;
                }
            }
        }
        // `pub`, visibility parens, leading `::` — skip.
        *pos += 1;
    }
    if !segs.is_empty() {
        out.push((segs.join("::"), line));
    }
}

fn no_unwrap_in_hot_path(
    input: &FileInput<'_>,
    test_ranges: &[(u32, u32)],
    out: &mut Vec<Violation>,
) {
    if !HOT_PATH_FILES.contains(&input.rel) {
        return;
    }
    let toks = &input.lexed.tokens;
    for i in 1..toks.len() {
        let t = &toks[i];
        if t.kind == TokenKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && toks[i - 1].is_punct(".")
            && toks.get(i + 1).is_some_and(|p| p.is_punct("("))
            && !in_ranges(test_ranges, t.line)
        {
            out.push(Violation {
                rule: "no-unwrap-in-hot-path",
                file: input.rel.to_string(),
                line: t.line,
                message: format!(
                    "`.{}()` in the serve hot path panics the whole service on a bad query; \
                     handle the `None`/`Err` arm or add a reasoned directive",
                    t.text
                ),
            });
        }
    }
}

fn no_unsafe_outside_simd(input: &FileInput<'_>, out: &mut Vec<Violation>) {
    if UNSAFE_ALLOWLIST.contains(&input.rel) {
        return;
    }
    for t in &input.lexed.tokens {
        if t.kind == TokenKind::Ident && t.text == "unsafe" {
            out.push(Violation {
                rule: "no-unsafe-outside-simd",
                file: input.rel.to_string(),
                line: t.line,
                message: "`unsafe` is confined to crates/annkit/src/simd.rs, where every \
                          intrinsic is proven bitwise-equal to a scalar reference; move the \
                          code there or find a safe formulation"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn vendor_none() -> VendorManifests {
        VendorManifests { stubs: Vec::new() }
    }

    fn check(rel: &str, src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        check_file(&FileInput { rel, lexed: &lexed }, &vendor_none())
    }

    #[test]
    fn wall_clock_flagged_outside_allowlist() {
        let v = check("crates/core/src/lib.rs", "use std::time::Instant;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-wall-clock");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn wall_clock_scope_admits_the_runtime_subtree_only() {
        let src = "use std::time::Instant;\nfn now() -> Instant { Instant::now() }\n";
        // Anywhere under crates/runtime/ is in scope, including the binary.
        assert!(check("crates/runtime/src/pipeline.rs", src).is_empty());
        assert!(check("crates/runtime/src/bin/serve.rs", src).is_empty());
        assert!(check("crates/runtime/src/scenario.rs", src).is_empty());
        // Prefix match is on the path, not the crate name: a lookalike
        // directory elsewhere stays banned.
        assert_eq!(check("crates/serve/src/runtime.rs", src)[0].rule, "no-wall-clock");
        assert_eq!(check("crates/core/src/lib.rs", src)[0].rule, "no-wall-clock");
    }

    #[test]
    fn unordered_iteration_scope_covers_the_runtime() {
        let bad = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) { for (k, v) in s.m.iter() { use_it(k, v); } }\n";
        let v = check("crates/runtime/src/pipeline.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unordered-iteration");
    }

    #[test]
    fn ambient_rng_skips_cfg_test_and_test_trees() {
        let prod = "fn f() { let r = rand::thread_rng(); }\n";
        assert_eq!(check("crates/core/src/lib.rs", prod)[0].rule, "no-ambient-rng");
        assert!(check("crates/core/tests/x.rs", prod).is_empty());

        let gated = "#[cfg(test)]\nmod tests {\n  fn f() { let r = rand::thread_rng(); }\n}\n";
        assert!(check("crates/core/src/lib.rs", gated).is_empty());
    }

    #[test]
    fn unordered_iteration_needs_a_sort() {
        let bad = "struct S { m: HashMap<u32, u32> }\n\
                   fn f(s: &S) { for (k, v) in s.m.iter() { use_it(k, v); } }\n";
        let v = check("crates/serve/src/report.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unordered-iteration");

        let good = "struct S { m: HashMap<u32, u32> }\n\
                    fn f(s: &S) { let mut rows: Vec<_> = s.m.iter().collect();\n\
                    rows.sort_by_key(|(k, _)| **k); }\n";
        assert!(check("crates/serve/src/report.rs", good).is_empty());

        // Out of scope: same code elsewhere is not serve output.
        assert!(check("crates/core/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn for_loop_over_unordered_binding_is_flagged() {
        let bad = "fn f() { let mut seen: HashSet<u32> = HashSet::new();\n\
                   for s in &seen { touch(s); } }\n";
        let v = check("crates/serve/src/dispatch_helpers.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn iteration_through_a_let_alias_is_flagged() {
        let bad = "struct S { rates: HashMap<usize, f64> }\n\
                   fn mean(s: &S) -> f64 { let r = &s.rates; r.values().sum::<f64>() }\n";
        let v = check("crates/core/src/engine.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-unordered-iteration");
        let good = "struct S { rates: HashMap<usize, f64> }\n\
                    fn mean(s: &S) -> f64 { let r = &s.rates;\n\
                    let mut rows: Vec<_> = r.iter().collect(); rows.sort(); fold(rows) }\n";
        assert!(check("crates/core/src/engine.rs", good).is_empty());
    }

    #[test]
    fn vendor_paths_checked_against_manifest() {
        let vendor = VendorManifests {
            stubs: vec![(
                "rand".to_string(),
                Some(vec!["rand::Rng".to_string(), "rand::rngs::SmallRng".to_string()]),
            )],
        };
        let src = "use rand::{Rng, SeedableRng};\nfn f() { rand::rngs::SmallRng::seed_from_u64(1); }\n";
        let lexed = lex(src);
        let v = check_file(
            &FileInput { rel: "crates/core/src/lib.rs", lexed: &lexed },
            &vendor,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("rand::SeedableRng"), "{}", v[0].message);
    }

    #[test]
    fn missing_manifest_is_reported_at_use_site() {
        let vendor = VendorManifests { stubs: vec![("proptest".to_string(), None)] };
        let lexed = lex("use proptest::prelude::*;\n");
        let v = check_file(
            &FileInput { rel: "tests/properties.rs", lexed: &lexed },
            &vendor,
        );
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("API.txt is missing"), "{}", v[0].message);
    }

    #[test]
    fn unsafe_confined_to_the_simd_module() {
        let src = "fn f(p: *const f32) -> f32 { unsafe { *p } }\n";
        let v = check("crates/core/src/kernel.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unsafe-outside-simd");
        assert_eq!(v[0].line, 1);

        // The sanctioned module is exempt.
        assert!(check("crates/annkit/src/simd.rs", src).is_empty());

        // Token-based: `unsafe` in comments or strings is invisible.
        let commented = "// this is unsafe in prose only\nfn f() {}\n";
        assert!(check("crates/core/src/kernel.rs", commented).is_empty());
    }

    #[test]
    fn unwrap_flagged_only_in_hot_path_files() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let v = check("crates/serve/src/dispatch.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "no-unwrap-in-hot-path");

        assert_eq!(check("crates/serve/src/core.rs", src).len(), 1);
        assert_eq!(check("crates/runtime/src/pipeline.rs", src).len(), 1);
        assert_eq!(check("crates/runtime/src/scenario.rs", src).len(), 1);
        assert!(check("crates/serve/src/cache.rs", src).is_empty());

        let gated = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { Some(1).unwrap(); }\n}\n";
        assert!(check("crates/serve/src/dispatch.rs", gated).is_empty());
    }

    #[test]
    fn unwrap_flagged_on_the_engines_request_paths() {
        let src = "fn run(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
        let v = check("crates/baselines/src/faiss.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "no-unwrap-in-hot-path");
        assert_eq!(v[0].line, 2);
        let expect = "fn run(x: Option<u32>) -> u32 { x.expect(\"seeded\") }\n";
        assert_eq!(check("crates/baselines/src/engine.rs", expect).len(), 1);
        assert_eq!(check("crates/core/src/replica.rs", expect).len(), 1);
        // The rooflines are arithmetic over counters, not a request path.
        assert!(check("crates/baselines/src/cpu.rs", src).is_empty());
    }
}
