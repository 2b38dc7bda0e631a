//! The metric catalogue: every workload and every metric the benchmark can
//! emit, with its unit, clock, direction, regression bound, the workloads
//! that measure it, and the end-to-end metric it is expected to move.
//!
//! `BENCHMARK.json` at the repository root is generated from this file
//! (`--emit-benchmark-json`), and a self-test fails when the two differ.

use std::fmt::Write as _;

/// Seed used when `--seed` is not given, and by the committed baseline.
pub const DEFAULT_SEED: u64 = 20_260_927;
/// A second seed no workload was tuned on; every acceptance check must also
/// hold here.
pub const HOLDOUT_SEED: u64 = 7_481_516_235;
/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 8;

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    BatchScan,
    ServeLight,
    ServeMix,
    PipelineWall,
    LiveMutation,
    Failover,
}

use Workload::{BatchScan, Failover, LiveMutation, PipelineWall, ServeLight, ServeMix};

pub const ALL: &[Workload] = &[
    BatchScan,
    ServeLight,
    ServeMix,
    PipelineWall,
    LiveMutation,
    Failover,
];
/// Workloads driven through `SearchService::replay`.
const REPLAY: &[Workload] = &[ServeLight, ServeMix, LiveMutation, Failover];
/// Workloads whose serving engine is a single UpANNS engine.
const UPANNS_SINGLE: &[Workload] = &[BatchScan, ServeMix, PipelineWall, LiveMutation];
/// Workloads that run the offline phase's parts as direct calls.
const OFFLINE_PARTS: &[Workload] = &[BatchScan, ServeMix, LiveMutation];
/// Workloads with short inverted lists, where LUT build and cluster
/// filtering rather than scan dominate an engine call.
const LUT_BOUND: &[Workload] = &[BatchScan, ServeLight, ServeMix];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            BatchScan => "batch-scan",
            ServeLight => "serve-light",
            ServeMix => "serve-mix",
            PipelineWall => "pipeline-wall",
            LiveMutation => "live-mutation",
            Failover => "failover",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        ALL.iter().copied().find(|w| w.name() == name)
    }

    /// Why the workload exists and which layer it loads or bypasses.
    pub fn why(self) -> &'static str {
        match self {
            BatchScan => {
                "closed loop of 500-query batches on long inverted lists: engine, kernel and \
                 simulator do all the work, serve and runtime none; only here can ADC-scan and \
                 top-k kernel work show"
            }
            ServeLight => {
                "open-loop replay at 2% engine utilisation, cache bypassed: latency is whatever \
                 the batching controller adds, so the controller works and the engine idles"
            }
            ServeMix => {
                "two-tenant replay with DRR admission, per-tenant windows, 32-query chunks and \
                 an evicting cache: every serve module works and per-launch simulator overhead, \
                 not scan, is the host cost"
            }
            PipelineWall => {
                "the threaded pipeline against the wall clock, paced below its knee and then \
                 past saturation: the only workload with real threads, channels and sleeping"
            }
            LiveMutation => {
                "reads beside upserts, deletes and compactions on a snapshot timeline: overlays, \
                 epoch invalidation and per-snapshot engine rebuilds work, so a read-path gain \
                 that costs the write path shows"
            }
            Failover => {
                "kill-a-host replay on the replicated multihost tier with hedging and \
                 autoscaling: the replica tier works and the single-engine path does not"
            }
        }
    }
}

/// Which clock a metric is read on. No metric mixes clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time: deterministic for a seed.
    Modeled,
    /// Wall or CPU time of the Rust code in a closed loop, in *calibrated*
    /// seconds (see `clock::calibration_burst`), or memory of the process.
    Host,
    /// Arrival-to-answer time of the threaded pipeline under a paced open
    /// loop.
    Wall,
    /// A count or a ratio of counts; deterministic for a seed.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Modeled => "modeled",
            Clock::Host => "host",
            Clock::Wall => "wall",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change is rejected.
    pub bound: Option<f64>,
    /// The workloads that measure it. Everywhere else a per-layer metric
    /// reads 0 ("this layer did no work here"); an end-to-end metric is
    /// measured by all six.
    pub workloads: &'static [Workload],
    /// What it is, and which end-to-end metric on which workload it should
    /// move.
    pub moves: &'static str,
}

impl MetricDef {
    pub fn applies_to(&self, workload: Workload) -> bool {
        self.workloads.contains(&workload)
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound: Some(bound),
        workloads: ALL,
        moves,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    workloads: &'static [Workload],
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        bound: None,
        workloads,
        moves,
    }
}

use Better::{Higher, Lower};
use Clock::{Count, Host, Modeled, Wall};

/// The end-to-end metrics. Every workload emits every one of them (the
/// driver's contract), so each is defined for all six; `README.md` gives the
/// per-workload reading.
pub const END_TO_END: &[MetricDef] = &[
    e2e(
        "setup_s",
        "s",
        Host,
        Lower,
        0.25,
        "median calibrated host seconds of one full set-up (three per run, two on the heavy fixtures of \
         batch-scan and live-mutation): dataset, IvfPqIndex::train, UpAnnsBuilder::build, stream \
         generation, plan_live_index, install_timeline",
    ),
    e2e(
        "host_qps",
        "1/s",
        Host,
        Higher,
        0.25,
        "queries answered per calibrated host second: 500 / median execute call (batch-scan), queries / \
         median seconds inside replay (replay workloads), queries per CPU second of the \
         logical-mode pipeline, all threads (pipeline-wall)",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Host,
        Lower,
        0.25,
        "VmHWM of the workload's own process",
    ),
    e2e(
        "modeled_qps",
        "1/s",
        Modeled,
        Higher,
        0.20,
        "queries the serving engine answered per modeled second it was busy, at the batch shapes \
         the workload gave it (batch-scan: 1000 / SearchResponse.seconds of the reference request)",
    ),
    e2e(
        "modeled_speedup_vs_cpu",
        "ratio",
        Modeled,
        Higher,
        0.20,
        "Faiss-CPU modeled seconds / the workload's PIM engine's on one uniform 1000-query reference \
         request (drawn from the seed on batch-scan, a constant of the fixture elsewhere); a \
         regression anchor at this fixture, not the paper's figure",
    ),
    e2e(
        "recall_at_10",
        "ratio",
        Count,
        Higher,
        0.10,
        "recall@10 of served answers against exact flat search over the corpus as it stood at \
         each query's arrival",
    ),
    e2e(
        "modeled_latency_p50_ms",
        "ms",
        Modeled,
        Lower,
        0.20,
        "median arrival-to-answer latency on the replay clock over all completed queries of the \
         run's three stream realisations (batch-scan: the request's modeled seconds; \
         pipeline-wall: the logical twin's)",
    ),
    e2e(
        "modeled_latency_p99_ms",
        "ms",
        Modeled,
        Lower,
        0.25,
        "p99 of the same latencies (>= 6000 samples on the replay workloads, so >= 60 beyond it)",
    ),
    e2e(
        "slo_attainment",
        "ratio",
        Count,
        Higher,
        0.08,
        "share of offered queries answered inside their tenant's SLO; shed or failed count as \
         missed (batch-scan has no deadline: the answered share; pipeline-wall: wall clock, legs \
         100 + 200 pooled)",
    ),
];

/// The per-layer metrics, taken in the traced run. The prefix is the crate
/// the metric belongs to; unprefixed names are whole-workload results that
/// only one workload can measure, which the dense end-to-end matrix cannot
/// hold.
pub const PER_LAYER: &[MetricDef] = &[
    // ---- annkit ----------------------------------------------------------
    layer("annkit.kmeans_pq.train_s", "s", Host, Lower, ALL,
        "IvfPqIndex::train (coarse k-means + PQ codebooks + encode) -> setup_s, all"),
    layer("annkit.workload.generate_s", "s", Host, Lower, ALL,
        "query/arrival/mutation stream generation -> setup_s, all"),
    layer("annkit.lut.adc_scan_ns_per_code", "ns", Host, Lower, &[BatchScan],
        "LookupTable::adc_scan_into per PQ code on one fixture-L list -> host_qps on batch-scan; no change on serve-mix"),
    layer("annkit.topk.push_ns_per_candidate", "ns", Host, Lower, &[BatchScan],
        "TopK::push_batch per offered candidate -> host_qps on batch-scan; no change on serve-mix"),
    layer("annkit.simd.adc_scan_simd_over_scalar", "ratio", Host, Lower, &[BatchScan],
        "same-run ratio detected-backend / scalar ADC scan time -> host_qps on batch-scan"),
    layer("annkit.simd.topk_simd_over_scalar", "ratio", Host, Lower, &[BatchScan],
        "same-run ratio detected-backend / scalar push_batch time -> host_qps on batch-scan"),
    layer("annkit.lut.build_us", "us", Host, Lower, LUT_BOUND,
        "LookupTable::build per (query, cluster) -> host_qps on serve-light/serve-mix; small on batch-scan"),
    layer("annkit.ivf.filter_clusters_us", "us", Host, Lower, LUT_BOUND,
        "IvfPqIndex::filter_clusters per query -> host_qps on serve-light/serve-mix; small on batch-scan"),
    layer("annkit.ivf.search_us", "us", Host, Lower, LUT_BOUND,
        "reference IvfPqIndex::search per query: the floor an engine's functional path can reach"),
    layer("annkit.mutation.upsert_us", "us", Host, Lower, &[LiveMutation],
        "MutableIvf::upsert -> setup_s on live-mutation"),
    layer("annkit.mutation.delete_us", "us", Host, Lower, &[LiveMutation],
        "MutableIvf::delete -> setup_s on live-mutation"),
    layer("annkit.mutation.snapshot_us", "us", Host, Lower, &[LiveMutation],
        "MutableIvf::snapshot -> setup_s on live-mutation"),
    layer("annkit.mutation.compact_ms", "ms", Host, Lower, &[LiveMutation],
        "MutableIvf::compact after the whole mutation stream -> setup_s on live-mutation"),
    layer("annkit.mutation.snapshot_search_us", "us", Host, Lower, &[LiveMutation],
        "IndexSnapshot::search over overlays -> host_qps on live-mutation"),
    // ---- baselines -------------------------------------------------------
    layer("baselines.cpu.execute_host_ms", "ms", Host, Lower, &[BatchScan, ServeLight],
        "CpuFaissEngine::execute host ms (reference request on batch-scan, mean per call on serve-light) -> host_qps on serve-light"),
    layer("baselines.cpu.modeled_s", "s", Modeled, Lower, &[BatchScan],
        "Faiss-CPU modeled seconds of the reference request: denominator of modeled_speedup_vs_cpu"),
    layer("baselines.gpu.modeled_s", "s", Modeled, Lower, &[BatchScan],
        "Faiss-GPU modeled seconds of the reference request"),
    layer("baselines.cpu.candidates_scanned", "count", Count, Lower, &[BatchScan],
        "codes ADC-scanned by Faiss-CPU on the reference request"),
    layer("baselines.cpu.lut_lookups", "count", Count, Lower, &[BatchScan],
        "LUT lookups by Faiss-CPU on the reference request"),
    layer("baselines.cpu.modeled_distance_calc_share", "ratio", Modeled, Lower, &[BatchScan],
        "share of Faiss-CPU modeled time in distance calculation (the paper's Figure 1 observation)"),
    // ---- pim-sim ---------------------------------------------------------
    layer("pim-sim.modeled.cluster_filtering_s", "s", Modeled, Lower, &[BatchScan],
        "modeled stage split of the UpANNS reference response; the six stages sum to seconds -> modeled_qps on batch-scan"),
    layer("pim-sim.modeled.query_scheduling_s", "s", Modeled, Lower, &[BatchScan],
        "-> modeled_qps on batch-scan"),
    layer("pim-sim.modeled.query_transfer_s", "s", Modeled, Lower, &[BatchScan],
        "-> modeled_qps on batch-scan"),
    layer("pim-sim.modeled.dpu_search_s", "s", Modeled, Lower, &[BatchScan],
        "DPU kernel share (LUT construction, combo sums, distance calc, top-k, result write) -> modeled_qps on batch-scan"),
    layer("pim-sim.modeled.result_transfer_s", "s", Modeled, Lower, &[BatchScan],
        "-> modeled_qps on batch-scan"),
    layer("pim-sim.modeled.host_merge_s", "s", Modeled, Lower, &[BatchScan],
        "-> modeled_qps on batch-scan"),
    layer("pim-sim.modeled.dpu_max_over_avg", "ratio", Modeled, Lower, &[BatchScan],
        "slowest DPU / mean DPU of the reference launch -> modeled_qps on batch-scan"),
    layer("pim-sim.modeled.qps_per_watt", "1/s/W", Modeled, Higher, &[BatchScan],
        "modeled QPS per peak watt of the 896-DPU system"),
    layer("pim-sim.modeled.energy_j_per_query", "J", Modeled, Lower, &[BatchScan],
        "peak power x modeled seconds / queries"),
    layer("pim-sim.host.push_us", "us", Host, Lower, &[BatchScan, ServeMix],
        "one push_to_dpus of 8 bytes to each of 896 DPUs -> host_qps on serve-mix (one round per chunk); small on batch-scan"),
    layer("pim-sim.host.execute_us", "us", Host, Lower, &[BatchScan, ServeMix],
        "one no-op PimSystem::execute over 896 DPUs -> host_qps on serve-mix"),
    layer("pim-sim.host.pull_us", "us", Host, Lower, &[BatchScan, ServeMix],
        "one pull_from_dpus of 8 bytes from each of 896 DPUs -> host_qps on serve-mix"),
    layer("pim-sim.mram_allocated_mb", "MB", Count, Lower, UPANNS_SINGLE,
        "MRAM staged by the serving engine -> peak_rss_mb"),
    // ---- upanns ----------------------------------------------------------
    layer("upanns.builder.build_s", "s", Host, Lower, &[BatchScan, ServeMix, PipelineWall, LiveMutation, Failover],
        "UpAnnsBuilder::build of the serving engine(s) -> setup_s"),
    layer("upanns.placement.place_s", "s", Host, Lower, OFFLINE_PARTS,
        "place_pim_aware on the fixture's list sizes -> setup_s"),
    layer("upanns.cooccurrence.mine_s", "s", Host, Lower, OFFLINE_PARTS,
        "mine_cluster_combos over every list -> setup_s"),
    layer("upanns.encoding.encode_s", "s", Host, Lower, OFFLINE_PARTS,
        "CaeList::encode over every list -> setup_s"),
    layer("upanns.engine.install_timeline_s", "s", Host, Lower, &[LiveMutation],
        "UpAnnsEngine::install_timeline: one engine-state rebuild per snapshot -> setup_s on live-mutation"),
    layer("upanns.compaction.plan_host_s", "s", Host, Lower, &[LiveMutation],
        "plan_live_index -> setup_s on live-mutation"),
    layer("upanns.compaction.count", "count", Count, Lower, &[LiveMutation],
        "compactions the plan scheduled"),
    layer("upanns.compaction.moved_mb", "MB", Count, Lower, &[LiveMutation],
        "bytes the compactions folded"),
    layer("upanns.engine.execute_host_ms_p50", "ms", Host, Lower, &[BatchScan],
        "median host ms of one 500-query UpAnnsEngine::execute -> host_qps on batch-scan"),
    layer("upanns.engine.execute_host_ms_p75", "ms", Host, Lower, &[BatchScan],
        "p75 of the same; 40 samples have ten beyond p75, a shorter run reports the highest percentile its sample supports -> host_qps on batch-scan"),
    layer("upanns.engine.host_ns_per_candidate", "ns", Host, Lower, &[BatchScan],
        "host time per simulated event: execute host time / candidates scanned -> host_qps on batch-scan"),
    layer("upanns.kernel.run_batch_host_ms", "ms", Host, Lower, &[BatchScan],
        "run_batch_kernel on one DPU holding one fixture-L list, 8 assignments -> host_qps on batch-scan"),
    layer("upanns.engine.lut_lookups_per_candidate", "ratio", Count, Lower, &[BatchScan],
        "LUT lookups / candidates (16 without co-occurrence encoding) -> modeled_qps on batch-scan"),
    layer("upanns.cooccurrence.reduction_rate", "ratio", Count, Higher, &[BatchScan],
        "Opt3: mean code-length reduction of the re-encoded lists -> modeled_qps on batch-scan"),
    layer("upanns.topk_prune.insert_ratio", "ratio", Count, Lower, &[BatchScan],
        "Opt4: heap insertions / candidates offered -> modeled_qps on batch-scan"),
    layer("upanns.scheduling.max_over_avg", "ratio", Count, Lower, &[BatchScan],
        "Opt1: scheduled max / mean DPU workload of the reference request -> modeled_qps on batch-scan"),
    layer("upanns.engine.modeled_speedup_vs_naive", "ratio", Modeled, Higher, &[BatchScan],
        "PIM-naive modeled seconds / UpANNS's on the reference request -> modeled_qps on batch-scan"),
    layer("upanns.multihost.execute_host_ms", "ms", Host, Lower, &[BatchScan, Failover],
        "MultiHostUpAnns::execute host ms on the reference request -> host_qps on failover"),
    layer("upanns.multihost.modeled_s", "s", Modeled, Lower, &[BatchScan, Failover],
        "MultiHostUpAnns modeled seconds on the reference request"),
    layer("upanns.replica.execute_host_ms", "ms", Host, Lower, &[BatchScan, Failover],
        "healthy ReplicatedMultiHost::execute host ms on the reference request -> host_qps on failover"),
    layer("upanns.replica.modeled_s", "s", Modeled, Lower, &[BatchScan, Failover],
        "healthy ReplicatedMultiHost modeled seconds; must equal multihost exactly"),
    layer("upanns.replica.hedged", "count", Count, Lower, &[Failover],
        "shard groups hedged to a second replica -> modeled_latency_p99_ms on failover"),
    layer("upanns.replica.redispatched", "count", Count, Lower, &[Failover],
        "shard groups re-dispatched after their host died -> modeled_recovery_s on failover"),
    layer("upanns.replica.degraded", "count", Count, Lower, &[Failover],
        "query x shard pairs dropped for lack of a live replica -> recall_at_10 on failover"),
    layer("upanns.replica.migration_s", "s", Modeled, Lower, &[Failover],
        "modeled shard-migration seconds the autoscaler's steps charged -> modeled_recovery_s on failover"),
    // ---- upanns-serve ----------------------------------------------------
    layer("upanns-serve.service.self_host_us_per_query", "us", Host, Lower, REPLAY,
        "(replay host - adapter host) / queries: the serve layer's own cost -> host_qps on serve-light"),
    layer("upanns-serve.service.engine_host_share", "ratio", Host, Lower, REPLAY,
        "adapter host / replay host -> host_qps"),
    layer("upanns-serve.service.batch_wait_ms_mean", "ms", Modeled, Lower, REPLAY,
        "mean of request.at - arrival: the batching window's share -> modeled_latency_p50_ms on serve-light (>= 90% of it today)"),
    layer("upanns-serve.service.engine_service_ms_mean", "ms", Modeled, Lower, REPLAY,
        "mean modeled engine seconds a query's chunk took -> modeled_latency_p99_ms on serve-mix"),
    layer("upanns-serve.service.queue_wait_ms_mean", "ms", Modeled, Lower, REPLAY,
        "mean latency minus the other two: dispatch queue + cache lookup -> modeled_goodput_qps on serve-mix"),
    layer("upanns-serve.service.engine_utilization", "ratio", Modeled, Lower, REPLAY,
        "engine_busy_s / makespan_s -> modeled_latency_p99_ms"),
    layer("upanns-serve.batcher.batches", "count", Count, Lower, REPLAY,
        "batches formed, summed (like every count below) over the run's three stream realisations -> host_qps (one engine call each, at least)"),
    layer("upanns-serve.batcher.mean_batch_size", "count", Count, Higher, REPLAY,
        "engine-answered queries / batches -> modeled_qps"),
    layer("upanns-serve.batcher.deadline_closed_share", "ratio", Count, Lower, REPLAY,
        "batches closed by the window rather than by size"),
    layer("upanns-serve.dispatch.chunks", "count", Count, Lower, REPLAY,
        "chunks handed to the engine -> host_qps on serve-mix"),
    layer("upanns-serve.dispatch.split_batches", "count", Count, Lower, REPLAY,
        "batches split into more than one chunk"),
    layer("upanns-serve.dispatch.mean_chunk_size", "count", Count, Higher, REPLAY,
        "engine-answered queries / chunks -> modeled_qps, tight tenant's tail"),
    layer("upanns-serve.controller.adjustments", "count", Count, Lower, REPLAY,
        "window adjustments the policy made"),
    layer("upanns-serve.controller.final_window_ms", "ms", Modeled, Lower, REPLAY,
        "window the policy ended on -> modeled_latency_p50_ms on serve-light"),
    layer("upanns-serve.admission.shed", "count", Count, Lower, REPLAY,
        "queries refused at admission -> slo_attainment"),
    layer("upanns-serve.cache.hit_rate", "ratio", Count, Higher, REPLAY,
        "cache hits / lookups -> host_qps, modeled latency"),
    layer("upanns-serve.cache.invalidated", "count", Count, Lower, REPLAY,
        "entries dropped for an older epoch; moves only on live-mutation"),
    layer("upanns-serve.tenant.tight_latency_p95_ms", "ms", Modeled, Lower, &[ServeMix],
        "tight tenant's p95 (400 samples) -> slo_attainment, modeled_goodput_qps on serve-mix"),
    layer("upanns-serve.tenant.tight_attainment", "ratio", Count, Higher, &[ServeMix],
        "tight tenant's share inside its 700 ms SLO -> modeled_goodput_qps on serve-mix"),
    layer("upanns-serve.tenant.bulk_latency_p99_ms", "ms", Modeled, Lower, &[ServeMix],
        "bulk tenant's p99 -> slo_attainment on serve-mix"),
    layer("upanns-serve.envelope.baseline", "ratio", Count, Higher, &[Failover],
        "SLO attainment before the outage -> modeled_recovery_s on failover"),
    layer("upanns-serve.envelope.max_dip", "ratio", Count, Lower, &[Failover],
        "deepest attainment drop after the outage -> modeled_recovery_s on failover"),
    layer("upanns-serve.autoscale.scale_events", "count", Count, Lower, &[Failover],
        "host-count changes the autoscaler applied -> modeled_recovery_s on failover"),
    layer("upanns-serve.admission.admit_release_ns", "ns", Host, Lower, &[ServeLight, PipelineWall],
        "AdmissionQueue::try_admit + release -> host_cpu_ms_per_query; predicted invisible elsewhere (4 us of 270)"),
    layer("upanns-serve.batcher.push_ns", "ns", Host, Lower, &[ServeLight, PipelineWall],
        "BatchFormer::push per query -> host_cpu_ms_per_query"),
    layer("upanns-serve.dispatch.submit_pop_ns", "ns", Host, Lower, &[ServeLight, PipelineWall],
        "ChunkQueue::submit + pop_most_urgent per chunk -> host_cpu_ms_per_query"),
    layer("upanns-serve.cache.lookup_ns", "ns", Host, Lower, &[ServeLight, PipelineWall],
        "ResultCache::lookup on a full 512-entry cache -> host_cpu_ms_per_query"),
    layer("upanns-serve.cache.insert_ns", "ns", Host, Lower, &[ServeLight, PipelineWall],
        "ResultCache::insert with eviction -> host_cpu_ms_per_query"),
    // ---- upanns-runtime --------------------------------------------------
    layer("upanns-runtime.pipeline.generator_lateness_p99_ms", "ms", Wall, Lower, &[PipelineWall],
        "how late admission asked for a query's options against its due arrival (worst of the 100 and 200 QPS legs; above 5 ms the leg is invalid)"),
    layer("upanns-runtime.pipeline.device_utilization_r100", "ratio", Wall, Lower, &[PipelineWall],
        "busy_modeled_s / (workers x makespan) at 100 QPS -> wall_latency_p99_ms"),
    layer("upanns-runtime.pipeline.device_utilization_r200", "ratio", Wall, Lower, &[PipelineWall],
        "the same at 200 QPS -> wall_latency_p99_ms"),
    layer("upanns-runtime.pipeline.device_utilization_r800", "ratio", Wall, Higher, &[PipelineWall],
        "the same at 800 QPS; below 0.9 wall_saturated_qps is invalid"),
    layer("upanns-runtime.pipeline.engine_host_ms_per_chunk", "ms", Host, Lower, &[PipelineWall],
        "adapter host ms per chunk on the 200 QPS leg -> wall_latency_p99_ms"),
    layer("upanns-runtime.pipeline.host_over_modeled", "ratio", Host, Lower, &[PipelineWall],
        "adapter host seconds / modeled seconds on the 800 QPS leg; above 1 the leg is host-bound, not device-bound"),
    layer("upanns-runtime.pipeline.mean_chunk_size", "count", Count, Higher, &[PipelineWall],
        "queries per chunk on the 200 QPS leg"),
    layer("upanns-runtime.pipeline.cache_hit_rate", "ratio", Count, Higher, &[PipelineWall],
        "cache hits / lookups on the 200 QPS leg"),
    layer("upanns-runtime.pipeline.shed_fraction_r800", "ratio", Count, Lower, &[PipelineWall],
        "shed / offered on the 800 QPS leg: load, not failure"),
    layer("upanns-runtime.pipeline.lost", "count", Count, Lower, &[PipelineWall],
        "queries neither answered nor shed, all legs; must be 0"),
    layer("upanns-runtime.pipeline.duplicated", "count", Count, Lower, &[PipelineWall],
        "queries answered twice, all legs; must be 0"),
    layer("upanns-runtime.pipeline.logical_host_qps", "1/s", Host, Higher, &[PipelineWall],
        "RuntimeMode::Logical twin of the 200 QPS leg: the pipeline's host rate with nothing sleeping"),
    layer("upanns-runtime.pipeline.overhead_us_per_query", "us", Host, Lower, &[PipelineWall],
        "(logical twin host - adapter host / workers) / queries -> host_cpu_ms_per_query on pipeline-wall"),
    layer("upanns-runtime.pipeline.twin_mismatches", "count", Count, Lower, &[PipelineWall],
        "answers of the wall and logical runs that differ from the replay's; must be 0"),
    // ---- whole-workload results only one workload can measure -------------
    layer("modeled_goodput_qps", "1/s", Modeled, Higher, &[ServeMix],
        "highest of the four replayed rates at which every tenant keeps >= 99% of offered queries inside its SLO and the engine queue is empty at stream end"),
    layer("wall_latency_p50_ms", "ms", Wall, Lower, &[PipelineWall],
        "RuntimeReport median latency of the 200 QPS leg"),
    layer("wall_latency_p99_ms", "ms", Wall, Lower, &[PipelineWall],
        "RuntimeReport p99 latency of the 200 QPS leg"),
    layer("wall_saturated_qps", "1/s", Wall, Higher, &[PipelineWall],
        "completed / makespan on the 800 QPS leg; 0 (invalid) unless that leg's device utilisation >= 0.9"),
    layer("modeled_recovery_s", "s", Modeled, Lower, &[Failover],
        "RecoveryEnvelope recovery time after the outage, median of the three realisations"),
    layer("host_cpu_ms_per_query", "ms", Host, Lower, ALL,
        "user + sys CPU milliseconds of the measured phase per query, all threads (pipeline-wall: of the paced legs); equals 1000 / host_qps on the single-threaded workloads, catches sys-time and cross-thread cost on pipeline-wall, where one paced leg per run makes it too noisy (15 % from run to run) to carry a bound"),
    layer("failed_fraction", "ratio", Count, Lower, ALL,
        "(wrong or stale answers + lost + duplicated + panicked + shed below capacity) / attempted; any increase is a regression"),
    layer("benchmark.trace_overhead_fraction", "ratio", Host, Lower, ALL,
        "traced / untraced host time of the measured phase - 1"),
    layer("benchmark.host_speed", "ratio", Host, Higher, ALL,
        "the run's median calibration factor, (calibration-kernel rate / reference rate)^0.8: roughly what every host-clock time of the run was multiplied by (and every host-clock rate divided by)"),
];

pub fn find(name: &str) -> Option<(&'static MetricDef, bool)> {
    END_TO_END
        .iter()
        .map(|m| (m, true))
        .chain(PER_LAYER.iter().map(|m| (m, false)))
        .find(|(m, _)| m.name == name)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`, exactly the keys the driver reads.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in ALL.iter().enumerate() {
        let sep = if i + 1 == ALL.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            json_str(w.name()),
            json_str(w.why())
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.label()),
            m.bound.expect("end-to-end metrics carry a bound"),
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.label()),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The metric glossary as a Markdown table (pasted into `README.md`).
pub fn glossary_markdown() -> String {
    let mut out = String::from(
        "| metric | unit | clock | better | bound | measured on | what it is / what it should move |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for (m, end_to_end) in END_TO_END
        .iter()
        .map(|m| (m, true))
        .chain(PER_LAYER.iter().map(|m| (m, false)))
    {
        let on = if m.workloads.len() == ALL.len() {
            "all six".to_string()
        } else {
            m.workloads
                .iter()
                .map(|w| w.name())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let bound = match m.bound {
            Some(b) if end_to_end => format!("{:.0} %", b * 100.0),
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.clock.label(),
            m.better.label(),
            bound,
            on,
            m.moves
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_obey_the_contract() {
        let mut seen = BTreeSet::new();
        for w in ALL {
            assert!(name_ok(w.name(), 64), "{}", w.name());
            assert!(seen.insert(w.name()), "duplicate name {}", w.name());
            assert!(
                w.why().len() <= 200,
                "{}: why is {} chars",
                w.name(),
                w.why().len()
            );
            assert!(!w.why().contains('\n'));
            assert_eq!(Workload::parse(w.name()), Some(*w));
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name, 64), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{}: unit {}",
                m.name,
                m.unit
            );
            assert!(!m.workloads.is_empty(), "{} is measured nowhere", m.name);
        }
    }

    #[test]
    fn catalogue_sizes_fit_the_contract() {
        assert!((2..=8).contains(&ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        for m in END_TO_END {
            let bound = m.bound.expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
            assert_eq!(m.workloads.len(), ALL.len(), "{} must be dense", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let committed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with `--emit-benchmark-json`"
        );
    }

    #[test]
    fn readme_glossary_names_every_metric_and_workload() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md");
        let readme = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                readme.contains(&format!("`{}`", m.name)),
                "README.md glossary is missing {}",
                m.name
            );
        }
        for w in ALL {
            assert!(
                readme.contains(w.name()),
                "README.md never mentions {}",
                w.name()
            );
        }
    }
}
