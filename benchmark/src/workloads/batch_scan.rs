//! `batch-scan` — the paper's offline batch experiment.
//!
//! Closed loop, one caller, fixture L: `UpAnnsEngine::execute` on 500-query
//! uniform requests (nprobe 8, k 10), three warm-ups and then timed calls
//! round-robin over eight pre-generated request slices. After the timed
//! phase one untimed 1 000-query reference request runs on UpANNS,
//! PIM-naive, Faiss-CPU, Faiss-GPU, a two-host `MultiHostUpAnns` and a
//! healthy two-host `ReplicatedMultiHost` for the modeled numbers and the
//! cross-engine correctness checks.

use super::{
    check_identical_answers, emit_ivf_timings, emit_mram, emit_offline_parts, emit_pim_round,
    emit_trace_overhead, phase_budgets, spans_from_records,
};
use crate::adapter::{Adapter, ExecTotals, SinkHandle};
use crate::clock;
use crate::fixtures::{self, Fixture, DPUS, L};
use crate::micro;
use crate::record::{Ctx, LoopStats};
use crate::stats;
use annkit::ivf::IvfPqIndex;
use annkit::vector::Dataset;
use annkit::workload::WorkloadSpec;
use baselines::cpu::CpuFaissEngine;
use baselines::engine::{AnnEngine, SearchRequest, SearchResponse};
use baselines::gpu::GpuFaissEngine;
use upanns::config::UpAnnsConfig;
use upanns::engine::UpAnnsEngine;
use upanns::multihost::{shard_ranges, InterconnectModel, MultiHostUpAnns};
use upanns::replica::ReplicatedMultiHost;

const SLICES: usize = 8;
const SLICE_QUERIES: usize = 500;
const REFERENCE_QUERIES: usize = 1_000;
const WARMUPS: usize = 3;
const NPROBE: usize = 8;
const K: usize = 10;
const HOSTS: usize = 2;
/// The five modeled stages that run on the host or the bus; everything else
/// in an UpANNS breakdown is the DPU kernel's share.
const HOST_STAGES: [&str; 5] = [
    "cluster_filtering",
    "query_scheduling",
    "query_transfer",
    "result_transfer",
    "host_merge",
];

struct State {
    fixture: Fixture,
    engine: UpAnnsEngine,
    slices: Vec<SearchRequest>,
    reference: Dataset,
}

pub fn run(ctx: &mut Ctx) {
    let slice_queries = ctx.scaled(SLICE_QUERIES);
    let reference_queries = ctx.scaled(REFERENCE_QUERIES);
    let seed = ctx.seed;
    let State {
        fixture,
        engine,
        slices,
        reference,
    } = ctx.setup(2, |times| {
        let fixture = Fixture::build(L, times);
        let engine = fixture.upanns(L.work_scale(), slice_queries, times);
        let ((slices, reference), generate_s) = clock::timed(|| {
            let all = WorkloadSpec::new(SLICES * slice_queries)
                .with_seed(seed)
                .generate(&fixture.dataset)
                .queries;
            let slices = (0..SLICES)
                .map(|s| {
                    let rows: Vec<usize> = (s * slice_queries..(s + 1) * slice_queries).collect();
                    SearchRequest::uniform(&all.gather(&rows), NPROBE, K).with_id(s as u64 + 1)
                })
                .collect();
            let reference = WorkloadSpec::new(reference_queries)
                .with_seed(seed ^ 0x00B4_7C5C)
                .generate(&fixture.dataset)
                .queries;
            (slices, reference)
        });
        times
            .entry("annkit.workload.generate_s")
            .or_default()
            .push(generate_s);
        State {
            fixture,
            engine,
            slices,
            reference,
        }
    });

    // ---- The timed phase ---------------------------------------------------
    let lean = SinkHandle::new(false);
    let mut adapter = Adapter::new(engine, lean.clone());
    for s in 0..WARMUPS {
        adapter.execute(&slices[s % SLICES]);
    }
    lean.drain();
    let (untraced_budget, traced_budget) = phase_budgets(ctx);
    let mut next = 0usize;
    let mut call = |ctx: &mut Ctx, adapter: &mut Adapter<UpAnnsEngine>, budget: f64| -> LoopStats {
        ctx.measure_loop(budget, if ctx.quick { 2 } else { SLICES }, |ctx| {
            let request = &slices[next % SLICES];
            next += 1;
            ctx.measure(|_| {
                std::hint::black_box(adapter.execute(request));
            })
            .1
        })
    };
    let untraced = call(ctx, &mut adapter, untraced_budget);
    let records = lean.drain();

    let calls = untraced.len();
    let call_s = untraced.median_host_s();
    ctx.count(calls * slice_queries, 0);
    ctx.emit_calibrated("host_qps", slice_queries as f64 / call_s, calls);
    ctx.emit_calibrated(
        "host_cpu_ms_per_query",
        untraced.cpu_s() * 1e3 / (calls * slice_queries) as f64,
        calls,
    );
    // Closed-loop latency on the modeled clock: a query's answer arrives
    // when its batch completes, so its latency is its request's modeled
    // seconds. Eight distinct requests, weighted by how often each ran.
    let modeled_ms = stats::sorted(records.iter().map(|r| r.modeled_s * 1e3).collect());
    ctx.emit(
        "modeled_latency_p50_ms",
        stats::percentile(&modeled_ms, 50.0),
        calls,
    );
    ctx.emit(
        "modeled_latency_p99_ms",
        stats::percentile(&modeled_ms, 99.0),
        calls,
    );
    let answered: usize = records.iter().map(|r| r.queries).sum();
    ctx.emit(
        "slo_attainment",
        answered as f64 / (calls * slice_queries) as f64,
        calls,
    );

    let mut engine = if ctx.trace {
        // The same loop again with the detailed sink and a span per call.
        let detailed = SinkHandle::new(true);
        let mut traced_adapter = Adapter::new(adapter.into_inner(), detailed.clone());
        let span = ctx.tracer.begin("timed_phase", None);
        let traced = call(ctx, &mut traced_adapter, traced_budget);
        let traced_records = detailed.drain();
        ctx.tracer.end(span, &[("calls", traced.len() as f64)]);
        spans_from_records(&mut ctx.tracer, span, &traced_records);
        emit_trace_overhead(ctx, &untraced, &traced);
        ctx.count(traced.len() * slice_queries, 0);

        // Both phases time the same calls; pooled they give the tail more
        // samples. p75 needs 40 of them (ten beyond it); a shorter run
        // reports the highest percentile its sample does support.
        let host_ms: Vec<f64> = untraced
            .calibrated_host_s()
            .into_iter()
            .chain(traced.calibrated_host_s())
            .map(|s| s * 1e3)
            .collect();
        let samples = host_ms.len();
        ctx.emit_calibrated(
            "upanns.engine.execute_host_ms_p50",
            stats::median(&host_ms),
            samples,
        );
        let (_, tail_ms, _) = stats::supported_tail(&host_ms, 75);
        ctx.emit_calibrated("upanns.engine.execute_host_ms_p75", tail_ms, samples);
        let traced_totals = ExecTotals::of(&traced_records);
        ctx.emit(
            "upanns.engine.host_ns_per_candidate",
            traced_totals.host_s * 1e9 / traced_totals.stats.candidates_scanned.max(1) as f64,
            samples,
        );
        traced_adapter.into_inner()
    } else {
        adapter.into_inner()
    };

    // ---- The untimed reference request ------------------------------------
    // Every run: UpANNS against Faiss-CPU. The traced run adds PIM-naive,
    // Faiss-GPU and the two multihost tiers, which only per-layer metrics
    // and the cross-engine checks need.
    let request = SearchRequest::uniform(&reference, NPROBE, K).with_id(1_000);
    let n = request.len();
    let span = ctx.tracer.begin("reference_request", None);
    let upanns = engine.execute(&request);
    ctx.tracer.end(span, &[("queries", n as f64)]);
    let (cpu, cpu_host_s) = ctx.in_own_phase(|| {
        clock::timed(|| {
            CpuFaissEngine::new(&fixture.index)
                .with_work_scale(L.work_scale())
                .execute(&request)
        })
    });
    ctx.emit("baselines.cpu.execute_host_ms", cpu_host_s * 1e3, 1);
    ctx.count(2 * n, 0);
    ctx.emit("modeled_qps", n as f64 / upanns.seconds, n);
    ctx.emit("modeled_speedup_vs_cpu", cpu.seconds / upanns.seconds, n);
    let (recall, sampled) = fixtures::recall_at_10(
        &upanns.results,
        &reference,
        &fixture.dataset.vectors,
        (n / ctx.scaled(400)).max(1),
    );
    ctx.emit("recall_at_10", recall, sampled);
    same_answers(ctx, "UpANNS", &upanns, "Faiss-CPU", &cpu);
    let stage_sum = upanns.breakdown.total();
    ctx.check(
        (stage_sum - upanns.seconds).abs() <= 1e-9 * upanns.seconds.max(1.0),
        || {
            format!(
                "modeled stages sum to {stage_sum}, not SearchResponse.seconds {}",
                upanns.seconds
            )
        },
    );
    if !ctx.trace {
        return;
    }

    // UpANNS, PIM-naive, Faiss-CPU and Faiss-GPU implement one algorithm:
    // their neighbour ids must agree.
    let naive = fixtures::pim_engine(
        &fixture.index,
        &fixture.history,
        UpAnnsConfig::pim_naive(),
        DPUS,
        L.work_scale(),
        slice_queries,
    )
    .execute(&request);
    let gpu = GpuFaissEngine::new(&fixture.index)
        .with_work_scale(L.work_scale())
        .execute(&request);
    ctx.count(2 * n, 0);
    same_answers(ctx, "UpANNS", &upanns, "PIM-naive", &naive);
    same_answers(ctx, "UpANNS", &upanns, "Faiss-GPU", &gpu);

    // A healthy replicated deployment must equal the plain multihost one in
    // answers and in modeled seconds.
    let shards = shard_indexes(&fixture);
    let hosts = || -> Vec<UpAnnsEngine> {
        shards
            .iter()
            .map(|ix| {
                fixtures::pim_engine(
                    ix,
                    &fixture.history,
                    UpAnnsConfig::upanns(),
                    DPUS / HOSTS,
                    L.work_scale(),
                    slice_queries,
                )
            })
            .collect()
    };
    let mut multihost = MultiHostUpAnns::new(hosts(), InterconnectModel::default());
    let (multi, multi_host_s) = ctx.in_own_phase(|| clock::timed(|| multihost.execute(&request)));
    ctx.emit("upanns.multihost.execute_host_ms", multi_host_s * 1e3, 1);
    drop(multihost);
    let mut replicated =
        ReplicatedMultiHost::new(hosts(), HOSTS, HOSTS, InterconnectModel::default())
            .expect("two shards on two hosts with two replicas is a valid map");
    let (replica, replica_host_s) =
        ctx.in_own_phase(|| clock::timed(|| replicated.execute(&request)));
    ctx.emit("upanns.replica.execute_host_ms", replica_host_s * 1e3, 1);
    drop(replicated);
    ctx.count(2 * n, 0);
    check_identical_answers(
        ctx,
        "MultiHostUpAnns",
        &multi.results,
        "a healthy ReplicatedMultiHost",
        &replica.results,
    );
    ctx.check(multi.seconds == replica.seconds, || {
        format!(
            "healthy ReplicatedMultiHost models {} s, MultiHostUpAnns {} s",
            replica.seconds, multi.seconds
        )
    });

    emit_reference_layers(ctx, &engine, &upanns, &naive, &cpu, &gpu, n);
    ctx.emit("upanns.multihost.modeled_s", multi.seconds, 1);
    ctx.emit("upanns.replica.modeled_s", replica.seconds, 1);
    emit_micro(ctx, &fixture, &reference);
}

/// Two engines that implement one algorithm over one index must return the
/// same neighbour ids, up to the order of neighbours whose distances are a
/// rounding error apart (about one answer in ten thousand; noted when it
/// happens); every other differing answer is a failed operation.
fn same_answers(ctx: &mut Ctx, a_name: &str, a: &SearchResponse, b_name: &str, b: &SearchResponse) {
    let (wrong, reordered) = fixtures::engine_mismatches(&a.results, &b.results);
    let n = a.results.len();
    ctx.count(0, wrong);
    ctx.check(wrong == 0, || {
        format!("{wrong} of {n} answers differ between {a_name} and {b_name}")
    });
    if reordered > 0 {
        ctx.note(format!(
            "{reordered} of {n} answers of {a_name} and {b_name} order near-tied neighbours differently"
        ));
    }
}

/// One shard index per host with globally unique ids. The shards reuse the
/// fixture's codebooks (`fresh_like`), which the equality check does not
/// care about and which saves two trainings per run; rows are dealt round
/// robin rather than in contiguous slices so that every shard keeps a share
/// of every inverted list — an empty list panics the kernel (see "known
/// defects" in `README.md`).
fn shard_indexes(fixture: &Fixture) -> Vec<IvfPqIndex> {
    let n = fixture.dataset.vectors.len();
    shard_ranges(n, HOSTS)
        .iter()
        .enumerate()
        .map(|(host, range)| {
            let rows: Vec<usize> = (host..n).step_by(HOSTS).collect();
            let mut shard = fixture.index.fresh_like();
            shard.add(&fixture.dataset.vectors.gather(&rows), range.start as u64);
            shard
        })
        .collect()
}

fn emit_reference_layers(
    ctx: &mut Ctx,
    engine: &UpAnnsEngine,
    upanns: &SearchResponse,
    naive: &SearchResponse,
    cpu: &SearchResponse,
    gpu: &SearchResponse,
    n: usize,
) {
    // pim-sim: the modeled stage split of the UpANNS response.
    let mut dpu_search = upanns.seconds;
    for stage in HOST_STAGES {
        let seconds = upanns.breakdown.seconds(stage);
        dpu_search -= seconds;
        let name = match stage {
            "cluster_filtering" => "pim-sim.modeled.cluster_filtering_s",
            "query_scheduling" => "pim-sim.modeled.query_scheduling_s",
            "query_transfer" => "pim-sim.modeled.query_transfer_s",
            "result_transfer" => "pim-sim.modeled.result_transfer_s",
            _ => "pim-sim.modeled.host_merge_s",
        };
        ctx.emit(name, seconds, 1);
    }
    ctx.emit("pim-sim.modeled.dpu_search_s", dpu_search, 1);
    if let Some(report) = engine.last_exec_report() {
        ctx.emit(
            "pim-sim.modeled.dpu_max_over_avg",
            report.max_to_avg_ratio(),
            1,
        );
    }
    let energy = engine.energy_model();
    ctx.emit(
        "pim-sim.modeled.qps_per_watt",
        upanns.qps_per_watt(&energy),
        1,
    );
    ctx.emit(
        "pim-sim.modeled.energy_j_per_query",
        energy.energy_joules(upanns.seconds) / n as f64,
        1,
    );
    emit_mram(ctx, engine);

    // baselines: the denominator of the headline speed-up.
    ctx.emit("baselines.cpu.modeled_s", cpu.seconds, 1);
    ctx.emit("baselines.gpu.modeled_s", gpu.seconds, 1);
    ctx.emit(
        "baselines.cpu.candidates_scanned",
        cpu.stats.candidates_scanned as f64,
        1,
    );
    ctx.emit("baselines.cpu.lut_lookups", cpu.stats.lut_lookups as f64, 1);
    ctx.emit(
        "baselines.cpu.modeled_distance_calc_share",
        cpu.breakdown.fraction("distance_calc"),
        1,
    );

    // upanns: the four optimisations' own counters.
    let stats = &upanns.stats;
    ctx.emit(
        "upanns.engine.lut_lookups_per_candidate",
        stats.lut_lookups as f64 / stats.candidates_scanned.max(1) as f64,
        1,
    );
    ctx.emit(
        "upanns.cooccurrence.reduction_rate",
        engine.mean_reduction_rate(),
        1,
    );
    ctx.emit(
        "upanns.topk_prune.insert_ratio",
        stats.topk_insertions as f64 / stats.topk_candidates.max(1) as f64,
        1,
    );
    ctx.emit(
        "upanns.scheduling.max_over_avg",
        engine.last_schedule_ratio(),
        1,
    );
    ctx.emit(
        "upanns.engine.modeled_speedup_vs_naive",
        naive.seconds / upanns.seconds,
        1,
    );
}

fn emit_micro(ctx: &mut Ctx, fixture: &Fixture, queries: &Dataset) {
    let span = ctx.tracer.begin("direct_timings", None);
    let kernels = ctx.in_own_phase(|| micro::kernels(&fixture.index, queries));
    ctx.emit(
        "annkit.lut.adc_scan_ns_per_code",
        kernels.adc_scan_ns_per_code,
        5,
    );
    ctx.emit(
        "annkit.simd.adc_scan_simd_over_scalar",
        kernels.adc_scan_simd_over_scalar,
        5,
    );
    ctx.emit(
        "annkit.topk.push_ns_per_candidate",
        kernels.topk_push_ns_per_candidate,
        5,
    );
    ctx.emit(
        "annkit.simd.topk_simd_over_scalar",
        kernels.topk_simd_over_scalar,
        5,
    );
    emit_ivf_timings(ctx, &fixture.index, queries);
    emit_pim_round(ctx);
    let kernel_ms = ctx.in_own_phase(|| micro::kernel_run_batch_ms(&fixture.index, queries));
    ctx.emit("upanns.kernel.run_batch_host_ms", kernel_ms, 5);
    emit_offline_parts(ctx, fixture);
    ctx.tracer.end(span, &[]);
}
