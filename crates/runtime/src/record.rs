//! The bench records as ordered field lists, and the one writer that turns
//! them into bytes.
//!
//! `serve --json` writes `upanns-serving-bench-v6` (`BENCH_serving.json`,
//! byte-diffed in CI) from replay rows and `upanns-runtime-bench-v3`
//! (`BENCH_runtime.json`) from threaded rows. Both are [`Json`] trees: key
//! order is the order of the field lists below, and [`Json`]'s `Display` owns
//! indentation, number formatting, `null` and string escaping.

use std::fmt::{self, Write};

use upanns_serve::{RecoveryEnvelope, TenantReport};

use crate::scenario::{LiveSummary, ReplayRow, StalenessBucket};
use crate::RuntimeReport;

/// A JSON value whose objects keep their fields in insertion order;
/// `to_string()` is its text (no trailing newline).
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A counter.
    Int(u64),
    /// A measurement, written with six decimals (`0.0` when not finite).
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
            Num(x) if x.is_finite() => write!(out, "{x:.6}"),
            Num(_) => out.write_str("0.0"),
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
            List(items) if items.iter().any(|item| matches!(item, Object(_))) => {
                write_block(out, indent, ['[', ']'], items.iter().map(|item| (None, item)))
            }
            List(items) => {
                for (n, item) in items.iter().enumerate() {
                    out.write_str(if n == 0 { "[" } else { ", " })?;
                    item.write(out, indent)?;
                }
                out.write_char(']')
            }
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
        write!(out, "{}\n{:width$}", if n == 0 { "" } else { "," }, "", width = indent + 2)?;
        if let Some(key) = key {
            write!(out, "\"{key}\": ")?;
        }
        value.write(out, indent + 2)?;
    }
    write!(out, "\n{:indent$}{close}", "")
}

/// A whole record: schema tag, config block, then the rows under `rows_key`,
/// newline-terminated.
pub fn record(schema: &str, config: Json, rows_key: &'static str, rows: Vec<Json>) -> String {
    let top = Object(vec![
        ("schema", Str(schema.to_string())),
        ("config", config),
        (rows_key, List(rows)),
    ]);
    format!("{top}\n")
}

fn ms(seconds: f64) -> Json {
    Num(seconds * 1e3)
}

/// One tenant's object. The serving record adds the tenant's weight and the
/// batching window it ended under to the fields both records share.
fn tenant_row(t: &TenantReport, serving: bool) -> Json {
    let mut fields = vec![
        ("tenant", Str(t.name.clone())),
        ("slo_ms", t.slo_p99_s.map_or(Null, ms)),
        ("completed", Int(t.completed as u64)),
        ("shed", Int(t.shed as u64)),
        ("p50_ms", ms(t.p50())),
        ("p99_ms", ms(t.p99())),
        ("slo_miss_fraction", Num(t.slo_miss_fraction())),
        ("meets_slo", Bool(t.meets_slo())),
    ];
    if serving {
        fields.insert(1, ("weight", Int(u64::from(t.weight))));
        fields.push(("final_max_batch", Int(t.final_batcher.max_batch as u64)));
        fields.push(("final_max_delay_ms", ms(t.final_batcher.max_delay_s)));
    }
    Object(fields)
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
        ("recovery_s", if e.recovery_s.is_finite() { Num(e.recovery_s) } else { Null }),
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
        ("recall_vs_staleness", List(s.buckets.iter().map(bucket).collect())),
    ])
}

/// One replay row of the serving record.
pub fn serving_row(row: &ReplayRow) -> Json {
    let r = &row.report;
    Object(vec![
        ("name", Str(r.engine.clone())),
        ("workload", Str(row.workload.to_string())),
        ("policy", Str(r.policy.clone())),
        ("sustained_qps", Num(r.sustained_qps())),
        ("p50_ms", ms(r.p50())),
        ("p99_ms", ms(r.p99())),
        ("mean_ms", ms(r.mean_latency())),
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
        ("final_max_batch", Int(r.final_batcher.max_batch as u64)),
        ("final_max_delay_ms", ms(r.final_batcher.max_delay_s)),
        ("controller_adjustments", Int(r.controller_adjustments as u64)),
        ("engine_busy_s", Num(r.engine_busy_s)),
        ("degraded", Int(r.degraded)),
        ("hedged", Int(r.hedged)),
        ("redispatched", Int(r.redispatched)),
        ("scale_events", Int(r.scale_events as u64)),
        ("migration_s", Num(r.migration_s)),
        ("envelope", envelope_row(row.envelope.as_ref())),
        ("live", live_row(row.live.as_ref())),
        ("tenants", List(r.tenants.iter().map(|t| tenant_row(t, true)).collect())),
    ])
}

/// One threaded row of the runtime record: `r` served `num_queries` queries
/// of `workload` offered at `offered_qps`.
pub fn runtime_row(
    r: &RuntimeReport,
    workload: &str,
    offered_qps: f64,
    num_queries: usize,
) -> Json {
    let emulated_utilization = if r.makespan_s > 0.0 && r.workers > 0 {
        r.busy_modeled_s / (r.makespan_s * r.workers as f64)
    } else {
        0.0
    };
    Object(vec![
        ("engine", Str(r.engine.clone())),
        ("workload", Str(workload.to_string())),
        ("mode", Str(r.mode.to_string())),
        ("policy", Str(r.policy.clone())),
        ("workers", Int(r.workers as u64)),
        ("offered_qps", Num(offered_qps)),
        ("num_queries", Int(num_queries as u64)),
        ("sustained_qps", Num(r.sustained_qps())),
        ("p50_ms", ms(r.p50())),
        ("p99_ms", ms(r.p99())),
        ("mean_ms", ms(r.mean_latency())),
        ("completed", Int(r.completed as u64)),
        ("shed", Int(r.shed as u64)),
        ("lost", Int(r.lost as u64)),
        ("duplicated", Int(r.duplicated as u64)),
        ("degraded", Int(r.degraded)),
        ("hedged", Int(r.hedged)),
        ("redispatched", Int(r.redispatched)),
        ("cache_hit_rate", Num(r.cache_hit_rate())),
        ("cache_invalidated", Int(r.cache_invalidated)),
        ("dispatched_chunks", Int(r.dispatched_chunks as u64)),
        ("busy_modeled_s", Num(r.busy_modeled_s)),
        ("makespan_s", Num(r.makespan_s)),
        ("emulated_utilization", Num(emulated_utilization)),
        ("tenants", List(r.tenants.iter().map(|t| tenant_row(t, false)).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use annkit::ivf::{IvfPqIndex, IvfPqParams};
    use annkit::synthetic::SyntheticSpec;
    use annkit::workload::StreamSpec;
    use baselines::cpu::CpuFaissEngine;
    use baselines::engine::QueryOptions;
    use upanns_serve::{FixedPolicy, SearchService, ServiceConfig, ServiceReport};

    use crate::{run_pipeline, RuntimeConfig};

    #[test]
    fn writer_owns_layout_numbers_null_and_escaping() {
        let value = Object(vec![
            ("name", Str("a\"b\\c\td".to_string())),
            ("n", Int(3)),
            ("x", Num(0.5)),
            ("nan", Num(f64::NAN)),
            ("none", Null),
            ("inline", Inline(vec![("ok", Bool(true)), ("list", List(vec![Int(1), Int(2)]))])),
            ("rows", List(vec![Object(vec![("k", Null)])])),
        ]);
        let expected = "{\n  \"name\": \"a\\\"b\\\\c\\u0009d\",\n  \"n\": 3,\n  \"x\": 0.500000,\n  \
                        \"nan\": 0.0,\n  \"none\": null,\n  \
                        \"inline\": { \"ok\": true, \"list\": [1, 2] },\n  \
                        \"rows\": [\n    {\n      \"k\": null\n    }\n  ]\n}";
        assert_eq!(value.to_string(), expected);
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

    /// The first row of `workload` in a committed record (rows open at
    /// indent 4).
    fn committed_row<'a>(record: &'a str, workload: &str) -> &'a str {
        let tag = format!("\"workload\": \"{workload}\"");
        let mut rows = record.split("\n    {\n").skip(1);
        rows.find(|row| row.contains(&tag)).expect("the committed record has the workload")
    }

    fn reports() -> (ServiceReport, RuntimeReport) {
        let data = SyntheticSpec::sift_like(400).with_seed(1).generate_with_meta();
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

    /// The 0.1 s guard for what CI's 48 s byte-diff checks: rows list their
    /// keys — tenant objects, envelope and live audit included — in exactly
    /// the committed order.
    #[test]
    fn rows_keep_the_committed_key_order() {
        let (replayed, threaded) = reports();
        let serving = include_str!("../../../BENCH_serving.json");
        let envelope = RecoveryEnvelope {
            bucket_s: 5.0,
            t_down: 31.0,
            baseline_attainment: 1.0,
            max_dip: 0.1,
            dip_at: 35.0,
            recovery_s: f64::INFINITY,
            recovered: false,
            timeline: Vec::new(),
        };
        let audit = || LiveSummary {
            final_epoch: 9,
            snapshots: 3,
            compactions: 1,
            mutation_events: 9,
            stale_served: 0,
            answered_in_window: 2,
            p99_steady_ms: 1.0,
            p99_compaction_ms: 2.0,
            buckets: ["lag=0", "lag=1-10", "lag=11-100", "lag=101+"]
                .map(|label| StalenessBucket { label, queries: 3, mean_recall: 1.0 })
                .into(),
        };
        for (workload, tenants, envelope, live) in [
            ("single", 1, None, None),
            ("multi", 2, None, None),
            ("failover", 1, Some(envelope), None),
            ("live-mutation", 1, None, Some(audit())),
        ] {
            let mut report = replayed.clone();
            report.tenants = vec![replayed.tenants[0].clone(); tenants];
            let row = ReplayRow { workload, report, envelope, live };
            assert_eq!(
                keys(&serving_row(&row).to_string()),
                keys(committed_row(serving, workload)),
                "{workload} row"
            );
        }

        let runtime = include_str!("../../../BENCH_runtime.json");
        for (workload, tenants) in [("single", 1), ("multi", 2)] {
            let mut report = threaded.clone();
            report.service.tenants = vec![threaded.tenants[0].clone(); tenants];
            assert_eq!(
                keys(&runtime_row(&report, workload, 60.0, 12).to_string()),
                keys(committed_row(runtime, workload)),
                "{workload} runtime row"
            );
        }
    }
}
