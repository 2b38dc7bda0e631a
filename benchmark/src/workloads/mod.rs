//! The six workloads, and what they share.

pub mod batch_scan;
pub mod failover;
pub mod live_mutation;
pub mod pipeline_wall;
pub mod serve_light;
pub mod serve_mix;

use crate::adapter::{ExecRecord, ExecTotals, SinkHandle};
use crate::fixtures::{self, Fixture};
use crate::micro;
use crate::names::Workload;
use crate::record::{Ctx, LoopStats};
use crate::stats;
use crate::trace::{SpanClock, Tracer};
use annkit::ivf::IvfPqIndex;
use annkit::synthetic::SyntheticDataset;
use annkit::topk::Neighbor;
use annkit::vector::Dataset;
use annkit::workload::{QueryStream, StreamSpec, WorkloadSpec};
use baselines::cpu::CpuFaissEngine;
use baselines::engine::{AnnEngine, SearchRequest};
use upanns::engine::UpAnnsEngine;
use upanns_serve::service::ServiceReport;

/// Runs one workload to completion inside this process.
pub fn run(ctx: &mut Ctx) {
    match ctx.workload {
        Workload::BatchScan => batch_scan::run(ctx),
        Workload::ServeLight => serve_light::run(ctx),
        Workload::ServeMix => serve_mix::run(ctx),
        Workload::PipelineWall => pipeline_wall::run(ctx),
        Workload::LiveMutation => live_mutation::run(ctx),
        Workload::Failover => failover::run(ctx),
    }
}

/// Turns the adapter's records into spans under `parent`: one host-clock
/// `execute` span per engine call, and under it one modeled-clock child per
/// stage of the response's breakdown, laid end to end.
pub fn spans_from_records(tracer: &mut Tracer, parent: Option<usize>, records: &[ExecRecord]) {
    if !tracer.enabled() {
        return;
    }
    for r in records {
        let id = tracer.record(
            "execute",
            parent,
            r.request,
            SpanClock::Host,
            r.host_start,
            r.host_end,
        );
        tracer.add_counts(
            id,
            &[
                ("queries", r.queries as f64),
                ("modeled_s", r.modeled_s),
                ("candidates_scanned", r.stats.candidates_scanned as f64),
                ("lut_lookups", r.stats.lut_lookups as f64),
                ("luts_built", r.stats.luts_built as f64),
                ("topk_insertions", r.stats.topk_insertions as f64),
            ],
        );
        let mut at = 0.0;
        for (stage, seconds) in &r.stages {
            tracer.record(stage, id, r.request, SpanClock::Modeled, at, at + seconds);
            at += seconds;
        }
    }
}

/// Splits the measured phase of a traced run: the first part runs untraced,
/// the second traced, so their ratio is the tracing overhead. An untraced
/// run spends the whole budget in one untraced part.
pub fn phase_budgets(ctx: &Ctx) -> (f64, f64) {
    if ctx.trace {
        (ctx.seconds * 0.4, ctx.seconds * 0.4)
    } else {
        (ctx.seconds, 0.0)
    }
}

/// `traced / untraced − 1` of the median iteration.
pub fn emit_trace_overhead(ctx: &mut Ctx, untraced: &LoopStats, traced: &LoopStats) {
    if ctx.trace && traced.len() > 0 {
        let base = untraced.median_host_s();
        let overhead = if base > 0.0 {
            traced.median_host_s() / base - 1.0
        } else {
            0.0
        };
        ctx.emit("benchmark.trace_overhead_fraction", overhead, traced.len());
    }
}

/// How many independent realisations of its arrival process a replay
/// workload replays in one run. One Poisson stream's tail is a handful of
/// unlucky bursts; averaging over several realisations makes the reported
/// percentiles a property of the workload rather than of one draw.
/// (`failover`, whose tail is one outage per stream, replays five.)
pub const REALISATIONS: usize = 3;

/// The input seed of realisation `i` of a run seeded `seed`.
pub fn realisation_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What a single-tenant replay workload asks for: so many queries at a
/// Poisson rate, a share of them exact repeats, a p99 SLO.
#[derive(Debug, Clone, Copy)]
pub struct Traffic {
    pub queries: usize,
    pub qps: f64,
    pub repeat: f64,
    pub slo_s: f64,
}

impl Traffic {
    /// `realisations` independent streams of this traffic for a run seeded
    /// `seed`.
    pub fn streams(
        &self,
        dataset: &SyntheticDataset,
        seed: u64,
        realisations: usize,
    ) -> Vec<QueryStream> {
        (0..realisations)
            .map(|i| {
                let workload = WorkloadSpec::new(self.queries).with_seed(realisation_seed(seed, i));
                StreamSpec::new(self.queries, self.qps)
                    .with_workload(workload)
                    .with_repeat_fraction(self.repeat)
                    .with_slo_p99(self.slo_s)
                    .generate(dataset)
            })
            .collect()
    }
}

/// Seed of the serving workloads' reference request: a constant of the
/// fixture, like the corpus and the trained index.
const REFERENCE_SEED: u64 = 0x5EED_0F5E_ED0F;

/// The reference request of `modeled_speedup_vs_cpu` on the serving
/// workloads: 1 000 queries, uniform options (nprobe 8, k 10). Unlike the
/// streams it does not follow `--seed`: the speed-up is an anchor that pins
/// the two cost models against each other at this fixture, and one
/// request's modeled time is set by its most loaded DPU, which differs by
/// 7-10 % between draws of even 4 000 queries. `batch-scan`, where the
/// metric is the paper's, draws its reference request from the seed.
pub fn reference_request(ctx: &Ctx, dataset: &SyntheticDataset) -> SearchRequest {
    let queries = WorkloadSpec::new(ctx.scaled(1_000))
        .with_seed(REFERENCE_SEED)
        .generate(dataset)
        .queries;
    SearchRequest::uniform(&queries, 8, 10)
}

/// Two engines that merge the same shard answers (the two multihost tiers)
/// must agree bit for bit; each differing answer is a failed operation.
pub fn check_identical_answers(
    ctx: &mut Ctx,
    a_name: &str,
    a: &[Vec<Neighbor>],
    b_name: &str,
    b: &[Vec<Neighbor>],
) {
    let wrong = fixtures::mismatches(a, b);
    ctx.count(0, wrong);
    ctx.check(wrong == 0, || {
        format!(
            "{wrong} of {} answers differ between {a_name} and {b_name}",
            a.len()
        )
    });
}

/// `modeled_speedup_vs_cpu` for a serving workload: the modeled seconds of
/// the [`reference_request`] on Faiss-CPU over `index`, at the workload's
/// serving work scale, against `pim_s`, those of the workload's PIM engine.
pub fn emit_reference_speedup(
    ctx: &mut Ctx,
    index: &IvfPqIndex,
    work_scale: f64,
    request: &SearchRequest,
    pim_s: f64,
) {
    let cpu_s = CpuFaissEngine::new(index)
        .with_work_scale(work_scale)
        .execute(request)
        .seconds;
    ctx.count(request.len(), 0);
    ctx.emit(
        "modeled_speedup_vs_cpu",
        if pim_s > 0.0 { cpu_s / pim_s } else { 0.0 },
        request.len(),
    );
}

/// What the measured phase of a replay workload produced.
pub struct ReplayOutcome {
    pub timing: LoopStats,
    /// The last report of each realisation. Every replay of one realisation
    /// is identical on the modeled clock.
    pub reports: Vec<ServiceReport>,
    /// The engine calls of those replays, summed over the realisations
    /// (`host_s` included, so it belongs to `reports.len()` replays).
    pub totals: ExecTotals,
    /// Per measured replay: host seconds outside the engine adapter.
    pub self_host_s: Vec<f64>,
}

impl ReplayOutcome {
    /// Sums `f` over the realisations' reports.
    pub fn sum(&self, f: impl Fn(&ServiceReport) -> f64) -> f64 {
        self.reports.iter().map(f).sum()
    }

    /// The `p`-th latency percentile, in seconds: the mean over the
    /// realisations of each one's own percentile. (A percentile of the
    /// pooled latencies would be set by the unluckiest realisation alone;
    /// the mean of per-realisation percentiles averages the luck out.)
    pub fn latency_percentile_s(&self, p: f64) -> f64 {
        self.sum(|r| r.percentile(p)) / self.reports.len().max(1) as f64
    }

    /// Share of offered queries answered inside their own tenant's SLO
    /// (shed counts as missed), pooled over the realisations.
    pub fn slo_attainment(&self) -> f64 {
        let tenants = || self.reports.iter().flat_map(|r| &r.tenants);
        let offered: usize = tenants().map(|t| t.completed + t.shed).sum();
        if offered == 0 {
            return 0.0;
        }
        let missed: f64 = tenants()
            .map(|t| t.slo_miss_fraction() * (t.completed + t.shed) as f64)
            .sum();
        1.0 - missed / offered as f64
    }
}

/// The measured phase shared by the four replay workloads: replays the
/// realisations round robin until the budget is spent and each has run —
/// untraced, and in a traced run a second time with a detailed sink and a
/// span per replay and per engine call.
///
/// `prepare(sink, i)` builds a ready service for realisation `i` whose
/// engine reports into `sink` (untimed), `replay(service, i)` runs it
/// (timed), `recycle` takes the service apart again (untimed).
pub fn replay_phase<Svc>(
    ctx: &mut Ctx,
    queries_per_replay: usize,
    realisations: usize,
    mut prepare: impl FnMut(&SinkHandle, usize) -> Svc,
    mut replay: impl FnMut(&mut Svc, usize) -> ServiceReport,
    mut recycle: impl FnMut(Svc),
) -> ReplayOutcome {
    let mut phase = |ctx: &mut Ctx, detailed: bool, budget: f64| {
        let sink = SinkHandle::new(detailed);
        let phase_span = if detailed {
            ctx.tracer.begin("timed_phase", None)
        } else {
            None
        };
        let mut last: Vec<Option<(ServiceReport, Vec<ExecRecord>)>> =
            (0..realisations).map(|_| None).collect();
        let mut self_host_s = Vec::new();
        let mut next = 0usize;
        let timing = ctx.measure_loop(budget, realisations, |ctx| {
            let i = next % realisations;
            next += 1;
            let mut service = prepare(&sink, i);
            let span = ctx.tracer.begin("replay", phase_span);
            let (report, measured) = ctx.measure(|_| replay(&mut service, i));
            ctx.tracer.end(span, &replay_counts(&report));
            recycle(service);
            let records = sink.drain();
            let engine_s: f64 = records.iter().map(ExecRecord::host_s).sum();
            self_host_s.push((measured.host_s - engine_s).max(0.0));
            spans_from_records(&mut ctx.tracer, span, &records);
            last[i] = Some((report, records));
            measured
        });
        ctx.tracer
            .end(phase_span, &[("replays", timing.len() as f64)]);
        ctx.count(timing.len() * queries_per_replay, 0);
        let mut reports = Vec::with_capacity(realisations);
        let mut totals = ExecTotals::default();
        for slot in last {
            let (report, records) = slot.expect("every realisation ran at least once");
            totals.add(&ExecTotals::of(&records));
            reports.push(report);
        }
        ReplayOutcome {
            timing,
            reports,
            totals,
            self_host_s,
        }
    };
    let (untraced_budget, traced_budget) = phase_budgets(ctx);
    let untraced = phase(ctx, false, untraced_budget);
    if !ctx.trace {
        return untraced;
    }
    let traced = phase(ctx, true, traced_budget);
    emit_trace_overhead(ctx, &untraced.timing, &traced.timing);
    traced
}

/// What every replay workload reports from the measured phase: the
/// end-to-end metrics, the modeled latency split, the host split, and the
/// serve layer's counters — pooled over the realisations.
pub fn emit_replay(ctx: &mut Ctx, outcome: &ReplayOutcome, queries_per_replay: usize) {
    let replays = outcome.reports.len();
    for report in &outcome.reports {
        ctx.check(report.completed + report.shed == queries_per_replay, || {
            format!(
                "replay does not conserve: completed {} + shed {} != offered {queries_per_replay}",
                report.completed, report.shed
            )
        });
        let answered = report.results.iter().filter(|r| !r.is_empty()).count();
        ctx.check(answered == report.completed, || {
            format!(
                "{} queries completed but {answered} carry an answer",
                report.completed
            )
        });
    }
    let totals = &outcome.totals;
    let timing = &outcome.timing;
    let replay_s = timing.median_host_s();
    let iterations = timing.len();
    ctx.emit_calibrated("host_qps", queries_per_replay as f64 / replay_s, iterations);
    ctx.emit_calibrated(
        "host_cpu_ms_per_query",
        timing.cpu_s() * 1e3 / (iterations * queries_per_replay) as f64,
        iterations,
    );
    ctx.emit("modeled_qps", totals.modeled_qps(), totals.calls);
    ctx.emit(
        "slo_attainment",
        outcome.slo_attainment(),
        replays * queries_per_replay,
    );
    let samples = outcome
        .reports
        .iter()
        .map(|r| r.latencies_s.len())
        .min()
        .unwrap_or(0);
    ctx.emit(
        "modeled_latency_p50_ms",
        outcome.latency_percentile_s(50.0) * 1e3,
        samples,
    );
    ctx.emit(
        "modeled_latency_p99_ms",
        outcome.latency_percentile_s(99.0) * 1e3,
        samples,
    );
    if !ctx.quick {
        ctx.check(stats::samples_beyond(samples, 99.0) >= 20, || {
            format!("p99 rests on {samples} completed queries: fewer than 20 beyond it")
        });
    }

    // The modeled latency split. Cache hits wait for no batch and no
    // engine, so all three means are over every completed query.
    let completed = outcome.sum(|r| r.completed as f64).max(1.0);
    let mean_latency = outcome.sum(|r| r.latencies_s.iter().sum::<f64>()) / completed;
    let batch_wait = totals.batch_wait_sum_s / completed;
    let service = totals.service_sum_s / completed;
    let n = completed as usize;
    ctx.emit(
        "upanns-serve.service.batch_wait_ms_mean",
        batch_wait * 1e3,
        n,
    );
    ctx.emit(
        "upanns-serve.service.engine_service_ms_mean",
        service * 1e3,
        n,
    );
    ctx.emit(
        "upanns-serve.service.queue_wait_ms_mean",
        (mean_latency - batch_wait - service) * 1e3,
        n,
    );
    let makespan = outcome.sum(|r| r.makespan_s);
    ctx.emit(
        "upanns-serve.service.engine_utilization",
        if makespan > 0.0 {
            outcome.sum(|r| r.engine_busy_s) / makespan
        } else {
            0.0
        },
        replays,
    );

    // The host split: what the serve layer itself costs.
    let self_s = stats::median(&outcome.self_host_s);
    ctx.emit(
        "upanns-serve.service.self_host_us_per_query",
        self_s * 1e6 / queries_per_replay as f64,
        iterations,
    );
    let engine_shares: Vec<f64> = outcome
        .self_host_s
        .iter()
        .zip(&timing.iterations)
        .map(|(self_s, replay)| {
            if replay.host_s > 0.0 {
                1.0 - self_s / replay.host_s
            } else {
                0.0
            }
        })
        .collect();
    ctx.emit(
        "upanns-serve.service.engine_host_share",
        stats::median(&engine_shares),
        iterations,
    );

    // Counters, summed over the realisations.
    let batches = outcome.sum(|r| r.batches() as f64);
    let chunks = outcome.sum(|r| r.dispatched_chunks as f64);
    let engine_answered = outcome.sum(|r| (r.completed as u64 - r.cache_hits) as f64);
    ctx.emit("upanns-serve.batcher.batches", batches, replays);
    ctx.emit(
        "upanns-serve.batcher.mean_batch_size",
        engine_answered / batches.max(1.0),
        batches as usize,
    );
    ctx.emit(
        "upanns-serve.batcher.deadline_closed_share",
        outcome.sum(|r| r.deadline_closed_batches as f64) / batches.max(1.0),
        batches as usize,
    );
    ctx.emit("upanns-serve.dispatch.chunks", chunks, replays);
    ctx.emit(
        "upanns-serve.dispatch.split_batches",
        outcome.sum(|r| r.split_batches as f64),
        replays,
    );
    ctx.emit(
        "upanns-serve.dispatch.mean_chunk_size",
        engine_answered / chunks.max(1.0),
        chunks as usize,
    );
    ctx.emit(
        "upanns-serve.controller.adjustments",
        outcome.sum(|r| r.controller_adjustments as f64),
        replays,
    );
    ctx.emit(
        "upanns-serve.controller.final_window_ms",
        outcome.sum(|r| r.final_batcher.max_delay_s) * 1e3 / replays as f64,
        replays,
    );
    ctx.emit(
        "upanns-serve.admission.shed",
        outcome.sum(|r| r.shed as f64),
        replays * queries_per_replay,
    );
    let lookups = outcome.sum(|r| (r.cache_hits + r.cache_misses) as f64);
    ctx.emit(
        "upanns-serve.cache.hit_rate",
        outcome.sum(|r| r.cache_hits as f64) / lookups.max(1.0),
        lookups as usize,
    );
    ctx.emit(
        "upanns-serve.cache.invalidated",
        outcome.sum(|r| r.cache_invalidated as f64),
        replays,
    );
}

/// Direct timings of LUT build, cluster filtering and the reference search
/// on `index`.
pub fn emit_ivf_timings(ctx: &mut Ctx, index: &IvfPqIndex, queries: &Dataset) {
    let ivf = ctx.in_own_phase(|| micro::ivf(index, queries));
    ctx.emit("annkit.lut.build_us", ivf.lut_build_us, 5);
    ctx.emit("annkit.ivf.filter_clusters_us", ivf.filter_clusters_us, 5);
    ctx.emit("annkit.ivf.search_us", ivf.search_us, 5);
}

/// Direct timing of one no-op simulator round over 896 DPUs.
pub fn emit_pim_round(ctx: &mut Ctx) {
    let round = ctx.in_own_phase(micro::pim_round);
    ctx.emit("pim-sim.host.push_us", round.push_us, 5);
    ctx.emit("pim-sim.host.execute_us", round.execute_us, 5);
    ctx.emit("pim-sim.host.pull_us", round.pull_us, 5);
}

/// MRAM the serving engine staged on its DPUs.
pub fn emit_mram(ctx: &mut Ctx, engine: &UpAnnsEngine) {
    ctx.emit(
        "pim-sim.mram_allocated_mb",
        engine.pim_system().total_mram_allocated() as f64 / (1024.0 * 1024.0),
        1,
    );
}

/// Direct timings of the offline phase's parts over the fixture's lists.
pub fn emit_offline_parts(ctx: &mut Ctx, fixture: &Fixture) {
    let offline = ctx.in_own_phase(|| micro::offline_parts(fixture));
    ctx.emit("upanns.placement.place_s", offline.place_s, 1);
    ctx.emit("upanns.cooccurrence.mine_s", offline.mine_s, 1);
    ctx.emit("upanns.encoding.encode_s", offline.encode_s, 1);
}

/// Direct timings of the serve crate's public types in synthetic loops.
pub fn emit_serve_types(ctx: &mut Ctx, queries: &Dataset) {
    let t = ctx.in_own_phase(|| micro::serve_types(queries));
    ctx.emit(
        "upanns-serve.admission.admit_release_ns",
        t.admit_release_ns,
        5,
    );
    ctx.emit("upanns-serve.batcher.push_ns", t.batcher_push_ns, 5);
    ctx.emit(
        "upanns-serve.dispatch.submit_pop_ns",
        t.dispatch_submit_pop_ns,
        5,
    );
    ctx.emit("upanns-serve.cache.lookup_ns", t.cache_lookup_ns, 5);
    ctx.emit("upanns-serve.cache.insert_ns", t.cache_insert_ns, 5);
}

/// Counts for a replay span.
pub fn replay_counts(report: &ServiceReport) -> [(&'static str, f64); 6] {
    [
        ("completed", report.completed as f64),
        ("shed", report.shed as f64),
        ("batches", report.batches() as f64),
        ("chunks", report.dispatched_chunks as f64),
        ("cache_hits", report.cache_hits as f64),
        ("cache_invalidated", report.cache_invalidated as f64),
    ]
}

/// About how many served answers a replay workload scores for
/// `recall_at_10`: enough that ten seeds agree to 2 %.
const RECALL_SAMPLES: usize = 1_000;

/// Recall@10 of the realisations' served answers against exact flat search
/// over a frozen `corpus`, over about [`RECALL_SAMPLES`] answers in all.
pub fn emit_recall(
    ctx: &mut Ctx,
    outcome: &ReplayOutcome,
    streams: &[QueryStream],
    corpus: &Dataset,
) {
    let (mut sum, mut n) = (0.0, 0usize);
    for (report, stream) in outcome.reports.iter().zip(streams) {
        let stride = (report.results.len() * outcome.reports.len() / RECALL_SAMPLES).max(1);
        let (recall, sampled) =
            fixtures::recall_at_10(&report.results, &stream.batch.queries, corpus, stride);
        sum += recall * sampled as f64;
        n += sampled;
    }
    ctx.emit("recall_at_10", if n == 0 { 0.0 } else { sum / n as f64 }, n);
}
