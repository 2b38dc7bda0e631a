//! The serving bench's record: its field lists, the one writer that turns
//! them into bytes, and the contract a record must satisfy to be written.
//!
//! `serve --json` writes one schema, `SCHEMA`. A replay row
//! ([`serving_row`]) is the field list below; with the default flags the
//! rows are the committed `BENCH_serving.json`, byte for byte. A threaded row
//! ([`threaded_row`]) is the same list over the run's `ServiceReport`,
//! preceded by what only the thread driver knows. Rows are [`Json`] trees:
//! key order is the order of the field lists, and [`Json`]'s `Display` owns
//! indentation, number formatting, `null` and string escaping.
//!
//! The contract lives beside the writer, on typed rows: [`audit`] holds every
//! clause a replay record is checked against before `serve` writes it, and
//! [`record`] refuses any measurement that is not a finite, non-negative
//! number. Adding a field is one line in a field list and, if it carries a
//! claim, one line in a clause list.

use std::fmt::{self, Write};

use upanns_serve::{RecoveryEnvelope, ServiceReport, TenantReport};

use crate::scenario::{LiveSummary, ReplayRow, StalenessBucket, STALENESS_BUCKETS};
use crate::RuntimeReport;

/// The schema tag of every record `serve --json` writes.
pub(crate) const SCHEMA: &str = "upanns-serving-bench-v6";

/// A JSON value whose objects keep their fields in insertion order;
/// `to_string()` is its text (no trailing newline).
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A counter.
    Int(u64),
    /// A measurement, written with six decimals. [`record`] refuses one that
    /// is not finite: it would read back as a perfect number, or not at all.
    Num(f64),
    /// A string.
    Str(String),
    /// An object written one field per line.
    Object(Vec<(&'static str, Json)>),
    /// An object written on one line: `{ "key": value, ... }`.
    Inline(Vec<(&'static str, Json)>),
    /// An array: one element per line when it holds [`Json::Object`]s, on
    /// one line otherwise.
    List(Vec<Json>),
}

use Json::{Bool, Inline, Int, List, Null, Num, Object, Str};

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

impl Json {
    fn write(&self, out: &mut impl Write, indent: usize) -> fmt::Result {
        match self {
            Null => out.write_str("null"),
            Bool(b) => write!(out, "{b}"),
            Int(i) => write!(out, "{i}"),
            Num(x) => write!(out, "{x:.6}"),
            Str(s) => {
                out.write_char('"')?;
                for c in s.chars() {
                    match c {
                        '"' | '\\' => write!(out, "\\{c}")?,
                        c if c < ' ' => write!(out, "\\u{:04x}", c as u32)?,
                        c => out.write_char(c)?,
                    }
                }
                out.write_char('"')
            }
            Inline(fields) => {
                for (n, (key, value)) in fields.iter().enumerate() {
                    write!(out, "{} \"{key}\": ", if n == 0 { "{" } else { "," })?;
                    value.write(out, indent)?;
                }
                out.write_str(" }")
            }
            Object(fields) => {
                let fields = fields.iter().map(|(key, value)| (Some(*key), value));
                write_block(out, indent, ['{', '}'], fields)
            }
            List(items) if items.iter().any(|item| matches!(item, Object(_))) => write_block(
                out,
                indent,
                ['[', ']'],
                items.iter().map(|item| (None, item)),
            ),
            List(items) => {
                for (n, item) in items.iter().enumerate() {
                    out.write_str(if n == 0 { "[" } else { ", " })?;
                    item.write(out, indent)?;
                }
                out.write_char(']')
            }
        }
    }

    /// The key of the first [`Json::Num`] at or below this value (found under
    /// `key`) that is not a finite, non-negative number.
    fn unwritable(&self, key: &'static str) -> Option<&'static str> {
        match self {
            Num(x) if !(x.is_finite() && *x >= 0.0) => Some(key),
            Object(fields) | Inline(fields) => fields.iter().find_map(|(k, v)| v.unwritable(k)),
            List(items) => items.iter().find_map(|item| item.unwritable(key)),
            _ => None,
        }
    }
}

/// An object or array with one (optionally keyed) item per line, two spaces
/// deeper than its brackets.
fn write_block<'a>(
    out: &mut impl Write,
    indent: usize,
    [open, close]: [char; 2],
    items: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
) -> fmt::Result {
    out.write_char(open)?;
    for (n, (key, value)) in items.enumerate() {
        write!(
            out,
            "{}\n{:width$}",
            if n == 0 { "" } else { "," },
            "",
            width = indent + 2
        )?;
        if let Some(key) = key {
            write!(out, "\"{key}\": ")?;
        }
        value.write(out, indent + 2)?;
    }
    write!(out, "\n{:indent$}{close}", "")
}

/// A whole record — schema tag, config block, rows — newline-terminated, or
/// the first measurement in it that cannot be written.
pub fn record(config: Json, rows: Vec<Json>) -> Result<String, String> {
    let top = Object(vec![
        ("schema", Str(SCHEMA.to_string())),
        ("config", config),
        ("engines", List(rows)),
    ]);
    match top.unwritable("") {
        Some(key) => Err(format!(
            "measurement `{key}` is not a finite, non-negative number"
        )),
        None => Ok(format!("{top}\n")),
    }
}

fn ms(seconds: f64) -> Json {
    Num(seconds * 1e3)
}

fn tenant_row(t: &TenantReport) -> Json {
    Object(vec![
        ("tenant", Str(t.name.clone())),
        ("weight", Int(u64::from(t.weight))),
        ("slo_ms", t.slo_p99_s.map_or(Null, ms)),
        ("completed", Int(t.completed as u64)),
        ("shed", Int(t.shed as u64)),
        ("p50_ms", ms(t.p50())),
        ("p99_ms", ms(t.p99())),
        ("slo_miss_fraction", Num(t.slo_miss_fraction())),
        ("meets_slo", Bool(t.meets_slo())),
        ("final_max_delay_ms", ms(t.final_batcher.max_delay_s)),
    ])
}

/// The recovery envelope (`null` for rows without one — every workload
/// except `failover`). `recovery_s` is `null` when attainment never
/// recovered inside the observed timeline.
fn envelope_row(envelope: Option<&RecoveryEnvelope>) -> Json {
    let Some(e) = envelope else { return Null };
    Inline(vec![
        ("bucket_s", Num(e.bucket_s)),
        ("t_down", Num(e.t_down)),
        ("baseline_attainment", Num(e.baseline_attainment)),
        ("max_dip", Num(e.max_dip)),
        ("dip_at", Num(e.dip_at)),
        (
            "recovery_s",
            if e.recovery_s.is_finite() {
                Num(e.recovery_s)
            } else {
                Null
            },
        ),
        ("recovered", Bool(e.recovered)),
    ])
}

/// The live-index audit (`null` for frozen-index rows).
fn live_row(live: Option<&LiveSummary>) -> Json {
    let Some(s) = live else { return Null };
    let bucket = |b: &StalenessBucket| {
        Inline(vec![
            ("lag", Str(b.label.to_string())),
            ("queries", Int(b.queries as u64)),
            ("mean_recall", Num(b.mean_recall)),
        ])
    };
    Inline(vec![
        ("final_epoch", Int(s.final_epoch)),
        ("snapshots", Int(s.snapshots as u64)),
        ("compactions", Int(s.compactions as u64)),
        ("mutation_events", Int(s.mutation_events as u64)),
        ("stale_served", Int(s.stale_served as u64)),
        ("answered_in_window", Int(s.answered_in_window as u64)),
        ("p99_steady_ms", Num(s.p99_steady_ms)),
        ("p99_compaction_ms", Num(s.p99_compaction_ms)),
        (
            "recall_vs_staleness",
            List(s.buckets.iter().map(bucket).collect()),
        ),
    ])
}

/// A completed query's mean latency, split by where it was spent (each
/// part of `ServiceReport::split` over the completed count), keyed as
/// `split_ms` writes it. Admission wait is 0 by construction: no key.
fn split_means(r: &ServiceReport) -> [(&'static str, f64); 4] {
    let (s, n) = (&r.split, r.completed.max(1) as f64);
    let parts = [
        s.batch_wait_s,
        s.dispatch_wait_s,
        s.engine_service_s,
        s.cache_s,
    ];
    let keys = ["batch_wait", "dispatch_wait", "engine_service", "cache"];
    std::array::from_fn(|i| (keys[i], parts[i] / n))
}

/// The one row field list: what `r` measured serving `workload`.
fn row_fields(
    workload: &str,
    r: &ServiceReport,
    envelope: Option<&RecoveryEnvelope>,
    live: Option<&LiveSummary>,
) -> Vec<(&'static str, Json)> {
    vec![
        ("name", Str(r.engine.clone())),
        ("workload", Str(workload.to_string())),
        ("policy", Str(r.policy.clone())),
        ("sustained_qps", Num(r.sustained_qps())),
        ("p50_ms", ms(r.p50())),
        ("p99_ms", ms(r.p99())),
        ("mean_ms", ms(r.mean_latency())),
        (
            "split_ms",
            Inline(split_means(r).map(|(key, mean)| (key, ms(mean))).into()),
        ),
        ("slo_miss_fraction", Num(r.slo_miss_fraction())),
        ("meets_slo", Bool(r.meets_slo())),
        ("all_tenants_meet_slo", Bool(r.all_tenants_meet_slo())),
        ("completed", Int(r.completed as u64)),
        ("shed", Int(r.shed as u64)),
        ("cache_hit_rate", Num(r.cache_hit_rate())),
        ("cache_invalidated", Int(r.cache_invalidated)),
        ("batches", Int(r.batches() as u64)),
        ("mean_batch_size", Num(r.mean_batch_size())),
        ("dispatched_chunks", Int(r.dispatched_chunks as u64)),
        ("mean_chunk_size", Num(r.mean_chunk_size())),
        ("final_max_delay_ms", ms(r.final_batcher.max_delay_s)),
        (
            "controller_adjustments",
            Int(r.controller_adjustments as u64),
        ),
        ("engine_busy_s", Num(r.engine_busy_s)),
        ("degraded", Int(r.degraded)),
        ("hedged", Int(r.hedged)),
        ("redispatched", Int(r.redispatched)),
        ("scale_events", Int(r.scale_events as u64)),
        ("migration_s", Num(r.migration_s)),
        ("envelope", envelope_row(envelope)),
        ("live", live_row(live)),
        ("tenants", List(r.tenants.iter().map(tenant_row).collect())),
    ]
}

/// One replay row.
pub fn serving_row(row: &ReplayRow) -> Json {
    Object(row_fields(
        row.workload,
        &row.report,
        row.envelope.as_ref(),
        row.live.as_ref(),
    ))
}

/// One threaded row: the serving row of the run's `ServiceReport` (latencies
/// and makespan on the run's own clock), preceded by what only the thread
/// driver knows. `r` served `workload` offered at `offered_qps`.
pub fn threaded_row(r: &RuntimeReport, workload: &str, offered_qps: f64) -> Json {
    let capacity_s = r.makespan_s * r.workers as f64;
    let mut fields = vec![
        ("mode", Str(r.mode.to_string())),
        ("workers", Int(r.workers as u64)),
        ("offered_qps", Num(offered_qps)),
        ("num_queries", Int(r.offered as u64)),
        ("lost", Int(r.lost as u64)),
        ("duplicated", Int(r.duplicated as u64)),
        (
            "emulated_utilization",
            Num(if capacity_s > 0.0 {
                r.engine_busy_s / capacity_s
            } else {
                0.0
            }),
        ),
    ];
    fields.extend(row_fields(workload, &r.service, None, None));
    Object(fields)
}

// ---------------------------------------------------------------------------
// The contract
// ---------------------------------------------------------------------------

/// What a row must show, and whether it does.
type Clause = (&'static str, bool);

fn unit(x: f64) -> bool {
    (0.0..=1.0).contains(&x)
}

/// What holds for a replay row whatever the flags were.
fn universal(row: &ReplayRow) -> Vec<Clause> {
    let r = &row.report;
    let split_s: f64 = split_means(r).iter().map(|(_, mean)| mean).sum();
    let mut clauses = vec![
        (
            "a recovery envelope, on failover rows only",
            row.envelope.is_some() == (row.workload == "failover"),
        ),
        (
            "a live audit, on live rows only",
            row.live.is_some() == row.workload.starts_with("live"),
        ),
        (
            "slo_miss_fraction and cache_hit_rate in [0, 1]",
            unit(r.slo_miss_fraction()) && unit(r.cache_hit_rate()),
        ),
        (
            "every tenant's slo_miss_fraction in [0, 1]",
            r.tenants.iter().all(|t| unit(t.slo_miss_fraction())),
        ),
        // Each part telescopes: only rounding separates their sum from the mean.
        (
            "split_ms parts summing to mean_ms",
            (split_s - r.mean_latency()).abs() <= 1e-9 * r.mean_latency(),
        ),
    ];
    if let Some(e) = &row.envelope {
        clauses.extend([
            (
                "envelope baseline_attainment and max_dip in [0, 1]",
                unit(e.baseline_attainment) && unit(e.max_dip),
            ),
            // Zero means the deployment was already failing before the outage.
            (
                "envelope baseline_attainment > 0",
                e.baseline_attainment > 0.0,
            ),
            ("envelope dip_at >= t_down", e.dip_at >= e.t_down),
        ]);
    }
    if let Some(s) = &row.live {
        let labels = s.buckets.iter().map(|b| b.label);
        clauses.extend([
            // The consistency contract: every answer equals its arrival snapshot's.
            ("live stale_served == 0", s.stale_served == 0),
            (
                "live mutation_events > 0 and final_epoch > 0",
                s.mutation_events > 0 && s.final_epoch > 0,
            ),
            // Fewer means no epoch ever became visible mid-stream.
            ("live snapshots >= 2", s.snapshots >= 2),
            (
                "the four lag buckets, in order",
                labels.eq(STALENESS_BUCKETS.map(|(label, _)| label)),
            ),
            (
                "lag buckets summing to completed",
                s.buckets.iter().map(|b| b.queries).sum::<usize>() == r.completed,
            ),
            (
                "every lag bucket's mean_recall in [0, 1]",
                s.buckets.iter().all(|b| unit(b.mean_recall)),
            ),
        ]);
    }
    clauses
}

/// What a row of the committed scenarios (the default flags) must show on
/// top: the claims `BENCH_serving.json` exists to carry.
fn committed(row: &ReplayRow) -> Vec<Clause> {
    let r = &row.report;
    let mut clauses = match (row.workload, r.policy.as_str()) {
        // The head-of-line separation: per-tenant windows over
        // priority-chunked dispatch meet every tenant's SLO and really
        // chunked the bulk batches ...
        ("multi", "adaptive-tenant-chunked") => vec![
            (
                "chunked dispatch meeting every tenant's SLO",
                r.all_tenants_meet_slo(),
            ),
            (
                "chunked dispatch with dispatched_chunks > batches",
                r.dispatched_chunks > r.batches(),
            ),
        ],
        // ... while the fixed window fails a tenant on the same dispatcher.
        ("multi", _) => vec![(
            "the fixed window failing a tenant",
            !r.all_tenants_meet_slo(),
        )],
        // Replication masked the outage (nothing shed, nothing answered from
        // partial coverage) and every fault-tolerance path fired.
        ("failover", _) => vec![
            (
                "failover shed == 0, degraded == 0, completed > 0",
                r.shed == 0 && r.degraded == 0 && r.completed > 0,
            ),
            (
                "failover hedged > 0 and redispatched > 0",
                r.hedged > 0 && r.redispatched > 0,
            ),
            (
                "failover scale_events > 0 and migration_s > 0",
                r.scale_events > 0 && r.migration_s > 0.0,
            ),
        ],
        // Epoch invalidation fired: repeats straddling a refresh recompute.
        ("live-mutation", _) => vec![(
            "live-mutation cache_invalidated > 0",
            r.cache_invalidated > 0,
        )],
        ("live-growth", _) => vec![(
            "live-growth riding the tenant mix (>= 2 tenants)",
            r.tenants.len() >= 2,
        )],
        _ => Vec::new(),
    };
    if let Some(e) = &row.envelope {
        // The outage dents attainment, the dip stays bounded, and attainment
        // is back within six buckets of the failure instant.
        clauses.extend([
            (
                "envelope recovered with baseline_attainment >= 0.99",
                e.recovered && e.baseline_attainment >= 0.99,
            ),
            (
                "envelope 0 < max_dip <= 0.5",
                0.0 < e.max_dip && e.max_dip <= 0.5,
            ),
            ("envelope recovery_s <= 30", e.recovery_s <= 30.0),
        ]);
    }
    if let Some(s) = &row.live {
        clauses.extend([
            // Compaction ran and queries arrived inside it, or the p99 split
            // measures nothing; mid-compaction arrivals pay the modeled stall
            // but serving does not collapse.
            (
                "live compactions >= 1 and answered_in_window > 0",
                s.compactions >= 1 && s.answered_in_window > 0,
            ),
            (
                "live p99_compaction_ms <= 2 x p99_steady_ms + 10000",
                s.p99_compaction_ms <= 2.0 * s.p99_steady_ms + 10_000.0,
            ),
            // Fresh snapshots answer exactly; the stalest stay above 0.9.
            (
                "lag=0 mean_recall >= 0.999",
                s.buckets.first().is_some_and(|b| b.mean_recall >= 0.999),
            ),
            (
                "every lag bucket's mean_recall >= 0.9",
                s.buckets.iter().all(|b| b.mean_recall >= 0.9),
            ),
            (
                "lag=11-100 populated",
                s.buckets.get(2).is_some_and(|b| b.queries > 0),
            ),
        ]);
    }
    clauses
}

/// The policies the committed `multi` scenario replays under, in row order.
const MULTI_POLICIES: [&str; 2] = ["fixed-chunked", "adaptive-tenant-chunked"];

fn first_failed(clauses: &[Clause]) -> Option<&'static str> {
    clauses
        .iter()
        .find(|(_, holds)| !holds)
        .map(|&(clause, _)| clause)
}

/// The contract of a replay record, checked before it is written: the
/// universal clauses on every row, and — when `committed_scenarios` says the
/// rows came from the flags `BENCH_serving.json` is generated with — the
/// claims that record carries. `Err` names the first clause that fails and
/// the row it fails on.
pub fn audit(rows: &[ReplayRow], committed_scenarios: bool) -> Result<(), String> {
    for row in rows {
        let mut clauses = universal(row);
        if committed_scenarios {
            clauses.extend(committed(row));
        }
        if let Some(clause) = first_failed(&clauses) {
            let r = &row.report;
            return Err(format!(
                "the {} row of {} under {} lacks {clause}",
                row.workload, r.engine, r.policy
            ));
        }
    }
    if committed_scenarios {
        let policies = |workload: &str| -> Vec<&str> {
            let of = rows.iter().filter(|row| row.workload == workload);
            of.map(|row| row.report.policy.as_str()).collect()
        };
        let workloads = [
            "single",
            "multi",
            "failover",
            "live-mutation",
            "live-growth",
        ];
        let shape = [
            (
                "all five workloads",
                workloads.iter().all(|w| !policies(w).is_empty()),
            ),
            (
                "multi rows under exactly the two committed policies",
                policies("multi") == MULTI_POLICIES,
            ),
            ("exactly one failover row", policies("failover").len() == 1),
        ];
        if let Some(clause) = first_failed(&shape) {
            return Err(format!("the committed scenarios lack {clause}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use annkit::ivf::{IvfPqIndex, IvfPqParams};
    use annkit::synthetic::SyntheticSpec;
    use annkit::workload::StreamSpec;
    use baselines::cpu::CpuFaissEngine;
    use baselines::engine::QueryOptions;
    use upanns_serve::{FixedPolicy, SearchService, ServiceConfig};

    use crate::scenario::{
        parse_fault, parse_tenants, service_config, EngineKind, Fixture, FixtureSpec, Policy,
        DEFAULT_FAULT, DEFAULT_REPLICAS, DEFAULT_TENANTS, REPLAY_WORK_SCALE,
    };
    use crate::{run_pipeline, RuntimeConfig};

    #[test]
    fn writer_owns_layout_numbers_null_and_escaping() {
        let value = |x: f64| {
            Object(vec![
                ("name", Str("a\"b\\c\td".to_string())),
                ("n", Int(3)),
                ("x", Num(x)),
                ("none", Null),
                (
                    "inline",
                    Inline(vec![
                        ("ok", Bool(true)),
                        ("list", List(vec![Int(1), Int(2)])),
                    ]),
                ),
                ("rows", List(vec![Object(vec![("k", Null)])])),
            ])
        };
        let expected =
            "{\n  \"name\": \"a\\\"b\\\\c\\u0009d\",\n  \"n\": 3,\n  \"x\": 0.500000,\n  \
                        \"none\": null,\n  \
                        \"inline\": { \"ok\": true, \"list\": [1, 2] },\n  \
                        \"rows\": [\n    {\n      \"k\": null\n    }\n  ]\n}";
        assert_eq!(value(0.5).to_string(), expected);

        // A measurement that is not a number is refused, not written as a
        // perfect `0.0` — wherever in the record it sits.
        let written = record(value(0.5), vec![value(0.25)]).expect("finite measurements");
        assert!(written.starts_with(&format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"config\": {{\n"
        )));
        assert!(written.ends_with("\n  ]\n}\n"));
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let nested = Object(vec![(
                "p99_ms",
                Inline(vec![("deep", List(vec![Num(bad)]))]),
            )]);
            for (config, rows) in [(value(bad), vec![]), (value(0.5), vec![value(bad)])] {
                assert!(
                    record(config, rows).expect_err("refused").contains("`x`"),
                    "{bad}"
                );
            }
            assert!(record(value(0.5), vec![nested])
                .expect_err("refused")
                .contains("`deep`"));
        }
    }

    /// Every `"key":` of a JSON text, in order of appearance.
    fn keys(json: &str) -> Vec<&str> {
        let parts: Vec<&str> = json.split('"').collect();
        (1..parts.len())
            .step_by(2)
            .filter(|&i| parts.get(i + 1).is_some_and(|rest| rest.starts_with(':')))
            .map(|i| parts[i])
            .collect()
    }

    /// The first row of `workload` in the committed record (rows open at
    /// indent 4).
    fn committed_row<'a>(record: &'a str, workload: &str) -> &'a str {
        let tag = format!("\"workload\": \"{workload}\"");
        let mut rows = record.split("\n    {\n").skip(1);
        rows.find(|row| row.contains(&tag))
            .expect("the committed record has the workload")
    }

    fn reports() -> (ServiceReport, RuntimeReport) {
        let data = SyntheticSpec::sift_like(400)
            .with_seed(1)
            .generate_with_meta();
        let index = IvfPqIndex::train(&data.vectors, &IvfPqParams::new(16, 8), 3);
        let stream = StreamSpec::new(12, 400.0).generate(&data);
        let config = ServiceConfig::default();
        let replayed = SearchService::new(CpuFaissEngine::new(&index), config)
            .replay(&stream, |_| QueryOptions::new(10, 4));
        let threaded = run_pipeline(
            vec![CpuFaissEngine::new(&index)],
            &stream,
            |_| QueryOptions::new(10, 4),
            Box::new(FixedPolicy(config.batcher)),
            RuntimeConfig::logical(config),
        );
        (replayed, threaded)
    }

    fn envelope() -> RecoveryEnvelope {
        RecoveryEnvelope {
            bucket_s: 5.0,
            t_down: 31.0,
            baseline_attainment: 1.0,
            max_dip: 0.1,
            dip_at: 35.0,
            recovery_s: 10.0,
            recovered: true,
            timeline: Vec::new(),
        }
    }

    /// A live audit whose buckets cover `completed` queries (a multiple of 4).
    fn live(completed: usize) -> LiveSummary {
        LiveSummary {
            final_epoch: 9,
            snapshots: 3,
            compactions: 1,
            mutation_events: 9,
            stale_served: 0,
            answered_in_window: 2,
            p99_steady_ms: 1.0,
            p99_compaction_ms: 2.0,
            buckets: STALENESS_BUCKETS
                .map(|(label, _)| StalenessBucket {
                    label,
                    queries: completed / 4,
                    mean_recall: 1.0,
                })
                .into(),
        }
    }

    /// The 0.1 s guard for what CI's 48 s byte-diff checks: rows list their
    /// keys — tenant objects, envelope and live audit included — in exactly
    /// the committed order; and a threaded row is that same list behind the
    /// thread driver's own fields. No row records a batch cap: every policy
    /// runs the one the config block records as `fixed_max_batch`.
    #[test]
    fn rows_keep_the_committed_key_order() {
        let (replayed, threaded) = reports();
        let serving = include_str!("../../../BENCH_serving.json");
        let caps: Vec<&str> = keys(serving)
            .into_iter()
            .filter(|k| k.ends_with("max_batch"))
            .collect();
        assert_eq!(caps, ["fixed_max_batch"]);
        let unrecovered = RecoveryEnvelope {
            recovery_s: f64::INFINITY,
            recovered: false,
            ..envelope()
        };
        for (workload, tenants, envelope, live) in [
            ("single", 1, None, None),
            ("multi", 2, None, None),
            ("failover", 1, Some(unrecovered), None),
            ("live-mutation", 1, None, Some(live(12))),
        ] {
            let mut report = replayed.clone();
            report.tenants = vec![replayed.tenants[0].clone(); tenants];
            let row = ReplayRow {
                workload,
                report,
                envelope,
                live,
            };
            assert_eq!(
                keys(&serving_row(&row).to_string()),
                keys(committed_row(serving, workload)),
                "{workload} row"
            );
        }

        let row = threaded_row(&threaded, "single", 60.0).to_string();
        let driver = [
            "mode",
            "workers",
            "offered_qps",
            "num_queries",
            "lost",
            "duplicated",
            "emulated_utilization",
        ];
        assert_eq!(keys(&row)[..driver.len()], driver);
        assert_eq!(
            keys(&row)[driver.len()..],
            keys(committed_row(serving, "single"))
        );
        record(Null, vec![threaded_row(&threaded, "single", 60.0)]).expect("a writable row");
    }

    /// A row set shaped like the committed scenarios that passes both tiers.
    fn committed_rows() -> Vec<ReplayRow> {
        let (base, _) = reports();
        assert_eq!((base.completed, base.shed), (12, 0));
        let slowest = base.latencies_s[base.latencies_s.len() - 1];
        let row = |workload, policy: &str, tight_meets: bool| {
            let mut report = base.clone();
            report.policy = policy.to_string();
            if workload == "multi" || workload == "live-growth" {
                // `tight` is held to an SLO it meets or cannot meet; `bulk` to none.
                let mut tight = base.tenants[0].clone();
                tight.name = "tight".to_string();
                tight.slo_p99_s = Some(if tight_meets { slowest * 2.0 } else { 0.0 });
                let bulk = TenantReport {
                    name: "bulk".to_string(),
                    slo_p99_s: None,
                    ..tight.clone()
                };
                report.tenants = vec![tight, bulk];
            }
            ReplayRow {
                workload,
                report,
                envelope: None,
                live: None,
            }
        };
        let mut chunked = row("multi", "adaptive-tenant-chunked", true);
        chunked.report.dispatched_chunks = chunked.report.batches() + 1;
        let mut failover = row("failover", "adaptive-tenant-chunked", true);
        failover.envelope = Some(envelope());
        let r = &mut failover.report;
        (r.hedged, r.redispatched, r.scale_events, r.migration_s) = (1, 1, 1, 0.5);
        let mut mutation = row("live-mutation", "adaptive-tenant", true);
        (mutation.live, mutation.report.cache_invalidated) = (Some(live(12)), 1);
        let mut growth = row("live-growth", "adaptive-tenant-chunked", true);
        growth.live = Some(live(12));
        vec![
            row("single", "fixed", true),
            row("single", "adaptive-tenant", true),
            row("multi", "fixed-chunked", false),
            chunked,
            failover,
            mutation,
            growth,
        ]
    }

    const SINGLE: usize = 0;
    const MULTI_FIXED: usize = 2;
    const CHUNKED: usize = 3;
    const FAILOVER: usize = 4;
    const MUTATION: usize = 5;
    const GROWTH: usize = 6;

    #[test]
    fn audit_accepts_rows_shaped_like_the_committed_scenarios() {
        let rows = committed_rows();
        assert_eq!(audit(&rows, true), Ok(()));
        assert_eq!(audit(&rows, false), Ok(()));
        // Other flags, other rows: only the universal tier applies.
        assert_eq!(audit(&rows[..1], false), Ok(()));
        assert_eq!(audit(&[], false), Ok(()));
    }

    /// One flipped field per clause: the audit fails, names the clause and
    /// the row, and — for a committed-scenario clause — only under the
    /// default flags.
    #[test]
    fn every_clause_rejects_the_row_that_breaks_it() {
        type Flip = fn(&mut Vec<ReplayRow>);
        let universal: [(&str, Flip); 16] = [
            ("a recovery envelope, on failover rows only", |r| {
                r[SINGLE].envelope = Some(envelope())
            }),
            ("a recovery envelope, on failover rows only", |r| {
                r[FAILOVER].envelope = None
            }),
            ("a live audit, on live rows only", |r| {
                r[SINGLE].live = Some(live(12))
            }),
            ("a live audit, on live rows only", |r| r[GROWTH].live = None),
            ("slo_miss_fraction and cache_hit_rate in [0, 1]", |r| {
                // More late answers than offered queries.
                (r[SINGLE].report.completed, r[SINGLE].report.slo_p99_s) = (1, Some(0.0));
            }),
            ("every tenant's slo_miss_fraction in [0, 1]", |r| {
                // More latencies than completed queries: a report that does
                // not add up.
                let t = &mut r[SINGLE].report.tenants[0];
                (t.completed, t.slo_p99_s) = (1, Some(0.0));
            }),
            ("split_ms parts summing to mean_ms", |r| {
                r[SINGLE].report.split.dispatch_wait_s += 1e-6
            }),
            ("envelope baseline_attainment > 0", |r| {
                r[FAILOVER]
                    .envelope
                    .as_mut()
                    .expect("failover")
                    .baseline_attainment = 0.0;
            }),
            ("envelope dip_at >= t_down", |r| {
                r[FAILOVER].envelope.as_mut().expect("failover").dip_at = 30.0
            }),
            ("max_dip in [0, 1]", |r| {
                r[FAILOVER].envelope.as_mut().expect("failover").max_dip = 1.5
            }),
            ("live stale_served == 0", |r| {
                r[MUTATION].live.as_mut().expect("live").stale_served = 1
            }),
            ("live mutation_events > 0", |r| {
                r[GROWTH].live.as_mut().expect("live").mutation_events = 0
            }),
            ("live snapshots >= 2", |r| {
                r[MUTATION].live.as_mut().expect("live").snapshots = 1
            }),
            ("the four lag buckets, in order", |r| {
                r[MUTATION].live.as_mut().expect("live").buckets.swap(0, 1)
            }),
            ("lag buckets summing to completed", |r| {
                r[GROWTH].live.as_mut().expect("live").buckets[3].queries += 1
            }),
            ("mean_recall in [0, 1]", |r| {
                r[GROWTH].live.as_mut().expect("live").buckets[1].mean_recall = 1.5
            }),
        ];
        for (clause, flip) in universal {
            let mut rows = committed_rows();
            flip(&mut rows);
            for committed_scenarios in [false, true] {
                let err = audit(&rows, committed_scenarios).expect_err(clause);
                assert!(err.contains(clause), "{clause}: {err}");
            }
        }

        let committed: [(&str, Flip); 19] = [
            ("all five workloads", |r| drop(r.remove(GROWTH))),
            ("the two committed policies", |r| {
                drop(r.remove(MULTI_FIXED))
            }),
            ("exactly one failover row", |r| {
                let report = r[FAILOVER].report.clone();
                r.push(ReplayRow {
                    workload: "failover",
                    report,
                    envelope: Some(envelope()),
                    live: None,
                });
            }),
            ("chunked dispatch meeting every tenant's SLO", |r| {
                r[CHUNKED].report.tenants[0].slo_p99_s = Some(0.0)
            }),
            ("dispatched_chunks > batches", |r| {
                r[CHUNKED].report.dispatched_chunks -= 1
            }),
            ("the fixed window failing a tenant", |r| {
                r[MULTI_FIXED].report.tenants[0].slo_p99_s = None
            }),
            ("failover shed == 0, degraded == 0", |r| {
                r[FAILOVER].report.degraded = 1
            }),
            ("hedged > 0 and redispatched > 0", |r| {
                r[FAILOVER].report.redispatched = 0
            }),
            ("scale_events > 0 and migration_s > 0", |r| {
                r[FAILOVER].report.migration_s = 0.0
            }),
            ("envelope recovered", |r| {
                r[FAILOVER].envelope.as_mut().expect("failover").recovered = false
            }),
            ("envelope 0 < max_dip <= 0.5", |r| {
                r[FAILOVER].envelope.as_mut().expect("failover").max_dip = 0.0
            }),
            ("envelope recovery_s <= 30", |r| {
                r[FAILOVER].envelope.as_mut().expect("failover").recovery_s = 35.0
            }),
            ("answered_in_window > 0", |r| {
                r[GROWTH].live.as_mut().expect("live").answered_in_window = 0
            }),
            ("p99_compaction_ms <= 2 x p99_steady_ms + 10000", |r| {
                r[MUTATION].live.as_mut().expect("live").p99_compaction_ms = 10_002.5;
            }),
            ("every lag bucket's mean_recall >= 0.9", |r| {
                r[GROWTH].live.as_mut().expect("live").buckets[3].mean_recall = 0.8
            }),
            ("lag=11-100 populated", |r| {
                let buckets = &mut r[MUTATION].live.as_mut().expect("live").buckets;
                (buckets[2].queries, buckets[3].queries) = (0, 6);
            }),
            ("live-growth riding the tenant mix", |r| {
                r[GROWTH].report.tenants.truncate(1)
            }),
            ("lag=0 mean_recall >= 0.999", |r| {
                r[MUTATION].live.as_mut().expect("live").buckets[0].mean_recall = 0.99
            }),
            ("live-mutation cache_invalidated > 0", |r| {
                r[MUTATION].report.cache_invalidated = 0
            }),
        ];
        for (clause, flip) in committed {
            let mut rows = committed_rows();
            flip(&mut rows);
            let err = audit(&rows, true).expect_err(clause);
            assert!(err.contains(clause), "{clause}: {err}");
            assert_eq!(audit(&rows, false), Ok(()), "{clause} is not universal");
        }
    }

    /// The committed failover row is one trajectory of a feedback system:
    /// one hedged request more or less moves its dip and recovery. So the
    /// committed tier's envelope clauses must hold at the neighbouring hedge
    /// budgets too — though not `hedged > 0`, since at 500 ms nothing hedges.
    #[test]
    fn the_failover_envelope_holds_at_neighbouring_hedge_budgets() {
        let mut fixture = Fixture::build(FixtureSpec {
            queries: 40,
            qps: 12.0,
            repeat: 0.25,
            slo_s: 6.0,
            hosts: 2,
            engines: vec![EngineKind::MultiHost],
            tenants: parse_tenants(DEFAULT_TENANTS).expect("the default tenant mix parses"),
            mutations: None,
            growth: false,
            replicas: DEFAULT_REPLICAS,
            faults: parse_fault(DEFAULT_FAULT).expect("the default fault parses"),
            hedge_s: 0.0,
            work_scale: REPLAY_WORK_SCALE,
        });
        for hedge_ms in [390.0, 400.0, 500.0] {
            fixture.spec.hedge_s = hedge_ms / 1e3;
            let scenarios = fixture.scenarios(service_config(None), 32);
            let failover = scenarios
                .failover
                .expect("multihost selects the failover scenario");
            let rows = fixture.replay_rows(&failover, &[Policy::Adaptive]);
            let [row] = &rows[..] else {
                panic!("one policy, one row")
            };
            let envelope = row
                .envelope
                .as_ref()
                .expect("a failover row has an envelope");
            let clauses = universal(row).into_iter().chain(
                committed(row)
                    .into_iter()
                    .filter(|(clause, _)| clause.starts_with("envelope")),
            );
            for (clause, holds) in clauses {
                assert!(holds, "hedge {hedge_ms} ms lacks {clause}: {envelope:?}");
            }
        }
    }
}
