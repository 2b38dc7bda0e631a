//! `pipeline-wall` — the threaded pipeline against the wall clock.
//!
//! Open loop, fixture S, `run_pipeline` in `RuntimeMode::Wall` with two
//! UpANNS workers at work scale 4 000 (each emulates one modeled device by
//! sleeping out its modeled seconds), `FixedPolicy` (25 ms window, max
//! batch 256), queue 512, cache 512, repeat 0.25, p99 SLO 250 ms. Legs at
//! 100 and 200 QPS sit below the knee; the traced run adds an 800 QPS leg
//! that saturates the emulated devices. A `RuntimeMode::Logical` twin of the
//! 200 QPS leg — same pipeline, nothing sleeps — gives the host-bound rate
//! and the logical-clock latencies, and both are checked answer for answer
//! against `SearchService::replay`.

use super::{
    emit_mram, emit_reference_speedup, emit_serve_types, emit_trace_overhead, reference_request,
    spans_from_records,
};
use crate::adapter::{Adapter, ExecRecord, ExecTotals, SinkHandle};
use crate::clock;
use crate::fixtures::{
    self, options_of, pim_engine, service_config, Fixture, DPUS, FIXED_BATCHER, S, WALL_WORK_SCALE,
};
use crate::record::{Ctx, LoopStats};
use crate::stats;
use annkit::workload::{QueryStream, StreamSpec, WorkloadSpec};
use baselines::engine::AnnEngine;
use std::sync::{Arc, Mutex};
use upanns::config::UpAnnsConfig;
use upanns::engine::UpAnnsEngine;
use upanns_runtime::{run_pipeline, RuntimeConfig, RuntimeReport};
use upanns_serve::service::{SearchService, ServiceConfig};
use upanns_serve::FixedPolicy;

const WORKERS: usize = 2;
const REPEAT: f64 = 0.25;
const SLO_S: f64 = 0.25;
/// A leg whose generator ran later than this is not measuring the rate it
/// claims.
const MAX_LATENESS_MS: f64 = 5.0;
/// Below this device utilisation the 800 QPS leg did not saturate anything
/// and its rate is not a capacity.
const SATURATED_UTILIZATION: f64 = 0.9;

/// One leg's offered rate and its share of the run's seconds (untraced,
/// traced).
struct Leg {
    qps: f64,
    share: (f64, f64),
    salt: u64,
}

const R100: Leg = Leg {
    qps: 100.0,
    share: (0.12, 0.12),
    salt: 0x0100,
};
const R200: Leg = Leg {
    qps: 200.0,
    share: (0.43, 0.65),
    salt: 0x0200,
};
const R800: Leg = Leg {
    qps: 800.0,
    share: (0.0, 0.12),
    salt: 0x0800,
};

fn leg_stream(seed: u64, seconds: f64, fixture: &Fixture, leg: &Leg) -> QueryStream {
    let n = ((leg.qps * seconds) as usize).max(20);
    StreamSpec::new(n, leg.qps)
        .with_workload(WorkloadSpec::new(n).with_seed(seed ^ leg.salt))
        .with_repeat_fraction(REPEAT)
        .with_slo_p99(SLO_S)
        .generate(&fixture.dataset)
}

fn workers(fixture: &Fixture) -> Vec<UpAnnsEngine> {
    (0..WORKERS)
        .map(|_| {
            pim_engine(
                &fixture.index,
                &fixture.history,
                UpAnnsConfig::upanns(),
                DPUS,
                WALL_WORK_SCALE,
                64,
            )
        })
        .collect()
}

fn config() -> ServiceConfig {
    service_config(512, None)
}

/// What one pipeline run produced.
struct LegRun {
    report: RuntimeReport,
    records: Vec<ExecRecord>,
    /// How late admission asked for each query, in ms.
    lateness_ms: Vec<f64>,
}

impl LegRun {
    fn device_utilization(&self) -> f64 {
        let capacity = self.report.workers as f64 * self.report.makespan_s;
        if capacity > 0.0 {
            self.report.busy_modeled_s / capacity
        } else {
            0.0
        }
    }

    fn lateness_p99_ms(&self) -> f64 {
        stats::percentile(&stats::sorted(self.lateness_ms.clone()), 99.0)
    }
}

/// Runs `stream` through the pipeline on `engines`.
fn run_leg(
    ctx: &mut Ctx,
    name: &str,
    engines: Vec<UpAnnsEngine>,
    stream: &QueryStream,
    runtime: RuntimeConfig,
    detailed: bool,
) -> LegRun {
    let sink = SinkHandle::new(detailed);
    let adapters: Vec<_> = engines
        .into_iter()
        .map(|e| Adapter::new(e, sink.clone()))
        .collect();
    let lateness = Arc::new(Mutex::new(Vec::with_capacity(stream.len())));
    let seen = Arc::clone(&lateness);
    let arrivals = &stream.arrivals;
    let span = ctx.tracer.begin(name, None);
    let start = clock::now_s();
    // Admission calls this right after sleeping until the query's arrival,
    // so `now − start − arrival` is how late the generator ran. (The
    // pipeline starts its own clock a thread spawn after `start`.)
    let report = run_pipeline(
        adapters,
        stream,
        move |i| {
            let late_s = clock::now_s() - start - arrivals[i];
            seen.lock()
                .expect("the admission stage is the only writer")
                .push(late_s * 1e3);
            options_of(i)
        },
        Box::new(FixedPolicy(FIXED_BATCHER)),
        runtime,
    );
    ctx.tracer.end(
        span,
        &[
            ("offered", report.offered as f64),
            ("completed", report.completed as f64),
            ("shed", report.shed as f64),
            ("chunks", report.dispatched_chunks as f64),
            ("cache_hits", report.cache_hits as f64),
        ],
    );
    let records = sink.drain();
    spans_from_records(&mut ctx.tracer, span, &records);
    let lateness_ms = std::mem::take(
        &mut *lateness
            .lock()
            .expect("the pipeline has joined its admission stage"),
    );
    ctx.check(report.is_conserving(), || {
        format!(
            "{name} does not conserve: offered {} completed {} shed {} lost {} duplicated {}",
            report.offered, report.completed, report.shed, report.lost, report.duplicated
        )
    });
    ctx.count(report.offered, report.lost + report.duplicated);
    LegRun {
        report,
        records,
        lateness_ms,
    }
}

struct State {
    fixture: Fixture,
    r100: QueryStream,
    r200: QueryStream,
    r800: QueryStream,
}

pub fn run(ctx: &mut Ctx) {
    let (seed, seconds, trace) = (ctx.seed, ctx.seconds, ctx.trace);
    let share = |leg: &Leg| if trace { leg.share.1 } else { leg.share.0 };
    let State {
        fixture,
        r100,
        r200,
        r800,
    } = ctx.setup(3, |times| {
        let fixture = Fixture::build(S, times);
        let ((r100, r200, r800), generate_s) = clock::timed(|| {
            let stream = |leg: &Leg| leg_stream(seed, seconds * share(leg), &fixture, leg);
            (stream(&R100), stream(&R200), stream(&R800))
        });
        times
            .entry("annkit.workload.generate_s")
            .or_default()
            .push(generate_s);
        // One leg's workers are part of set-up; later legs rebuild theirs.
        let (_, build_s) = clock::timed(|| drop(workers(&fixture)));
        times
            .entry("upanns.builder.build_s")
            .or_default()
            .push(build_s);
        State {
            fixture,
            r100,
            r200,
            r800,
        }
    });

    // ---- The paced legs below the knee ---------------------------------------
    let wall = || RuntimeConfig::wall(config());
    let paced_leg = |ctx: &mut Ctx, name: &str, stream: &QueryStream| {
        let engines = workers(&fixture);
        ctx.measure(|ctx| run_leg(ctx, name, engines, stream, wall(), trace))
    };
    let (leg100, cost100) = paced_leg(ctx, "run_pipeline_r100", &r100);
    let (leg200, cost200) = paced_leg(ctx, "run_pipeline_r200", &r200);
    let paced = [&leg100, &leg200];
    let offered: usize = paced.iter().map(|l| l.report.offered).sum();
    let shed: usize = paced.iter().map(|l| l.report.shed).sum();
    // Shedding below capacity is a failure, not load.
    ctx.count(0, shed);
    let missed: f64 = paced
        .iter()
        .map(|l| l.report.slo_miss_fraction() * l.report.offered as f64)
        .sum();
    ctx.emit("slo_attainment", 1.0 - missed / offered as f64, offered);
    ctx.emit_calibrated(
        "host_cpu_ms_per_query",
        (cost100.calibrated_cpu_s() + cost200.calibrated_cpu_s()) * 1e3 / offered as f64,
        offered,
    );
    let totals200 = ExecTotals::of(&leg200.records);
    ctx.emit("modeled_qps", totals200.modeled_qps(), totals200.calls);
    let lateness = leg100.lateness_p99_ms().max(leg200.lateness_p99_ms());
    // A late generator is the machine's doing, not the program's: the run
    // stays correct, and the reader is told its paced legs are suspect.
    if lateness > MAX_LATENESS_MS {
        ctx.note(format!(
            "the generator ran {lateness:.2} ms late at p99 (limit {MAX_LATENESS_MS} ms): \
             the paced legs did not offer the rate they claim"
        ));
    }
    ctx.mark_peak_rss();
    let (recall, sampled) = fixtures::recall_at_10(
        &leg200.report.results,
        &r200.batch.queries,
        &fixture.dataset.vectors,
        1,
    );
    ctx.emit("recall_at_10", recall, sampled);

    // ---- The logical twin of the 200 QPS leg ----------------------------------
    let twin_budget = seconds * if trace { 0.1 } else { 0.4 };
    let mut twin_report = None;
    let mut twin_phase = |ctx: &mut Ctx, detailed: bool| -> (LoopStats, Vec<ExecRecord>) {
        let mut records = Vec::new();
        let stats = ctx.measure_loop(twin_budget, 1, |ctx| {
            let engines = workers(&fixture);
            let (leg, measured) = ctx.measure(|ctx| {
                run_leg(
                    ctx,
                    "run_pipeline_logical",
                    engines,
                    &r200,
                    RuntimeConfig::logical(config()),
                    detailed,
                )
            });
            records = leg.records;
            twin_report = Some(leg.report);
            measured
        });
        (stats, records)
    };
    let (untraced, mut twin_records) = twin_phase(ctx, false);
    let mut twin_timing = untraced.clone();
    if trace {
        let (traced, traced_records) = twin_phase(ctx, true);
        emit_trace_overhead(ctx, &untraced, &traced);
        twin_timing = traced;
        twin_records = traced_records;
    }
    let twin = twin_report.expect("the twin ran at least once");
    let n200 = r200.len();
    // Six threads on two cores: a twin run's elapsed time is a property of
    // the scheduler (fastest and slowest of ten seeds were a factor 1.7
    // apart). Its CPU time is not, so here the rate is per CPU second, all
    // threads — on the single-threaded workloads the two are the same thing.
    let busy_s = if untraced.cpu_s() > 0.0 {
        untraced.cpu_s()
    } else {
        untraced.calibrated_host_s().iter().sum() // no /proc: elapsed time is all there is
    };
    ctx.emit_calibrated(
        "host_qps",
        (n200 * untraced.len()) as f64 / busy_s,
        untraced.len(),
    );
    ctx.emit(
        "modeled_latency_p50_ms",
        twin.p50() * 1e3,
        twin.latencies_s.len(),
    );
    ctx.emit(
        "modeled_latency_p99_ms",
        twin.p99() * 1e3,
        twin.latencies_s.len(),
    );

    // ---- Twin contract: wall and logical answers equal the replay's ----------
    let mut replay_service = SearchService::new(
        pim_engine(
            &fixture.index,
            &fixture.history,
            UpAnnsConfig::upanns(),
            DPUS,
            WALL_WORK_SCALE,
            64,
        ),
        ServiceConfig {
            queue_capacity: n200.max(512),
            ..config()
        },
    );
    let replayed = replay_service.replay(&r200, options_of);
    ctx.count(n200, 0);
    let wall_wrong = fixtures::mismatches(&leg200.report.results, &replayed.results);
    let twin_wrong = fixtures::mismatches(&twin.results, &replayed.results);
    ctx.count(0, wall_wrong + twin_wrong);
    ctx.check(wall_wrong + twin_wrong == 0, || {
        format!(
            "{wall_wrong} wall-mode and {twin_wrong} logical-mode answers differ from the replay's"
        )
    });
    let mut engine = replay_service.into_engine();
    let reference = reference_request(ctx, &fixture.dataset);
    let pim_s = engine.execute(&reference).seconds;
    emit_reference_speedup(ctx, &fixture.index, WALL_WORK_SCALE, &reference, pim_s);

    if !trace {
        return;
    }

    // ---- The saturating leg and the per-layer numbers -------------------------
    let leg800 = run_leg(
        ctx,
        "run_pipeline_r800",
        workers(&fixture),
        &r800,
        wall(),
        true,
    );
    let util800 = leg800.device_utilization();
    ctx.emit(
        "upanns-runtime.pipeline.device_utilization_r100",
        leg100.device_utilization(),
        1,
    );
    ctx.emit(
        "upanns-runtime.pipeline.device_utilization_r200",
        leg200.device_utilization(),
        1,
    );
    ctx.emit(
        "upanns-runtime.pipeline.device_utilization_r800",
        util800,
        1,
    );
    // A rate is a capacity only if something saturated; otherwise the
    // metric reads 0, "invalid", never a number that means something else.
    let saturated = util800 >= SATURATED_UTILIZATION;
    ctx.emit(
        "wall_saturated_qps",
        if saturated {
            leg800.report.sustained_qps()
        } else {
            0.0
        },
        leg800.report.completed,
    );
    if !saturated {
        ctx.note(format!(
            "the 800 QPS leg reached device utilisation {util800:.3}, below \
             {SATURATED_UTILIZATION}: wall_saturated_qps is invalid and reads 0"
        ));
    }
    ctx.emit(
        "upanns-runtime.pipeline.shed_fraction_r800",
        leg800.report.shed as f64 / leg800.report.offered.max(1) as f64,
        leg800.report.offered,
    );
    let totals800 = ExecTotals::of(&leg800.records);
    ctx.emit(
        "upanns-runtime.pipeline.host_over_modeled",
        if totals800.modeled_s > 0.0 {
            totals800.host_s / totals800.modeled_s
        } else {
            0.0
        },
        totals800.calls,
    );
    let samples = leg200.report.latencies_s.len();
    ctx.emit("wall_latency_p50_ms", leg200.report.p50() * 1e3, samples);
    ctx.emit("wall_latency_p99_ms", leg200.report.p99() * 1e3, samples);
    ctx.emit(
        "upanns-runtime.pipeline.generator_lateness_p99_ms",
        lateness,
        offered,
    );
    ctx.emit(
        "upanns-runtime.pipeline.engine_host_ms_per_chunk",
        totals200.host_s * 1e3 / totals200.calls.max(1) as f64,
        totals200.calls,
    );
    ctx.emit(
        "upanns-runtime.pipeline.mean_chunk_size",
        totals200.queries as f64 / totals200.calls.max(1) as f64,
        totals200.calls,
    );
    ctx.emit(
        "upanns-runtime.pipeline.cache_hit_rate",
        leg200.report.cache_hit_rate(),
        n200,
    );
    let legs = [&leg100, &leg200, &leg800];
    ctx.emit(
        "upanns-runtime.pipeline.lost",
        legs.iter().map(|l| l.report.lost).sum::<usize>() as f64,
        legs.len(),
    );
    ctx.emit(
        "upanns-runtime.pipeline.duplicated",
        legs.iter().map(|l| l.report.duplicated).sum::<usize>() as f64,
        legs.len(),
    );
    let twin_s = twin_timing.median_host_s();
    let twin_totals = ExecTotals::of(&twin_records);
    ctx.emit_calibrated(
        "upanns-runtime.pipeline.logical_host_qps",
        n200 as f64 / twin_s,
        twin_timing.len(),
    );
    // The adapter's records are those of the last twin run. Two workers
    // overlap, so their summed engine time is halved to put it on the same
    // (elapsed) clock as the run.
    let last_twin_s = twin_timing.iterations.last().map_or(0.0, |m| m.host_s);
    ctx.emit(
        "upanns-runtime.pipeline.overhead_us_per_query",
        (last_twin_s - twin_totals.host_s / WORKERS as f64).max(0.0) * 1e6 / n200 as f64,
        twin_timing.len(),
    );
    ctx.emit(
        "upanns-runtime.pipeline.twin_mismatches",
        (wall_wrong + twin_wrong) as f64,
        2 * n200,
    );
    emit_mram(ctx, &engine);
    let span = ctx.tracer.begin("direct_timings", None);
    emit_serve_types(ctx, &r200.batch.queries);
    ctx.tracer.end(span, &[]);
}
