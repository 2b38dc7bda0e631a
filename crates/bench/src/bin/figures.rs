//! Regenerates the tables and figures of the UpANNS paper's evaluation
//! section on the reduced-scale, simulated reproduction.
//!
//! ```text
//! cargo run -p upanns-bench --release --bin figures -- all
//! cargo run -p upanns-bench --release --bin figures -- fig10 fig12
//! ```
//!
//! Each experiment prints a markdown table and writes a CSV under
//! `results/`; every one of them is a committed record. Experiment ids are
//! the paper's table and figure numbers; an unknown id exits 2 before
//! anything is built, and a CSV that cannot be written exits 1 after the
//! remaining tables are written.

#![forbid(unsafe_code)]

use annkit::flat::FlatIndex;
use annkit::recall::recall_at_k;
use annkit::synthetic::DatasetKind;
use annkit::workload::WorkloadSpec;
use baselines::engine::AnnEngine;
use baselines::gpu::{GpuFaissEngine, GpuMemoryCheck};
use baselines::hardware::{hardware_table_markdown, HardwareSpec};
use pim_sim::config::{PimConfig, CLOCK_HZ};
use pim_sim::cost::mram_transfer_cycles;
use pim_sim::energy::EnergyModel;
use pim_sim::stats::Stage;
use std::collections::HashMap;
use upanns::config::UpAnnsConfig;
use upanns_bench::{balance_study, fmt, EvalContext, EvalParams, ResultTable};

/// Lazily built evaluation contexts, keyed by (dataset kind, nlist).
struct ContextCache {
    params: EvalParams,
    map: HashMap<(DatasetKind, usize), EvalContext>,
}

impl ContextCache {
    fn new(params: EvalParams) -> Self {
        Self {
            params,
            map: HashMap::new(),
        }
    }

    fn get(&mut self, kind: DatasetKind, nlist: usize) -> &EvalContext {
        let params = self.params.clone();
        self.map.entry((kind, nlist)).or_insert_with(|| {
            eprintln!(
                "[figures] building context: {} with |C| = {nlist} ...",
                kind.name()
            );
            EvalContext::build_with_nlist(kind, &params, nlist)
        })
    }

    fn default_nlist(&self) -> usize {
        self.params.nlist
    }
}

fn main() {
    let mut ids: Vec<String> = std::env::args().skip(1).collect();
    let all_ids = [
        "tab1", "fig7", "fig10", "fig11", "fig12", "fig14", "fig15", "fig16", "fig17", "fig18",
        "fig19", "fig20", "headline", "drift", "balance",
    ];
    // Every id is checked before any context is built: a typo in the last
    // one must not cost the minutes the ids before it take.
    if let Some(unknown) = ids
        .iter()
        .find(|id| *id != "all" && !all_ids.contains(&id.as_str()))
    {
        eprintln!("error: unknown experiment id '{unknown}' (known: {all_ids:?})");
        std::process::exit(2);
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = all_ids.iter().map(|s| s.to_string()).collect();
    }

    let mut cache = ContextCache::new(EvalParams::default());
    println!("# UpANNS reproduction — regenerated tables and figures\n");
    println!(
        "(reduced scale: N = {}, |C| = {}, {} DPUs, batch = {}, work-scale = {:.0}x)",
        cache.params.n,
        cache.params.nlist,
        cache.params.dpus,
        cache.params.batch,
        cache.params.work_scale()
    );

    let mut write_failed = false;
    for id in &ids {
        let table = match id.as_str() {
            "tab1" => tab1(),
            "fig7" => fig7(),
            "fig10" => fig10(&mut cache),
            "fig11" => fig11(&mut cache),
            "fig12" => fig12(&mut cache),
            "fig14" => fig14(&mut cache),
            "fig15" => fig15(&mut cache),
            "fig16" => fig16(&mut cache),
            "fig17" => fig17(&mut cache),
            "fig18" => fig18(&mut cache),
            "fig19" => fig19(&mut cache),
            "fig20" => fig20(&mut cache),
            "headline" => headline(&mut cache),
            "drift" => drift(&mut cache),
            "balance" => balance(&mut cache),
            other => unreachable!("'{other}' passed the id check above"),
        };
        print!("{}", table.to_markdown());
        match table.write_csv("results") {
            Ok(path) => println!("\n(csv: {})", path.display()),
            Err(e) => {
                eprintln!("failed to write CSV for {}: {e}", table.name);
                write_failed = true;
            }
        }
    }
    // A table that was not written leaves the committed record stale, so
    // the run must not read as a success.
    if write_failed {
        std::process::exit(1);
    }
}

/// The four stages Figure 19 splits a search into.
const PAPER_STAGES: [Stage; 4] = [
    Stage::ClusterFiltering,
    Stage::LutConstruction,
    Stage::DistanceCalc,
    Stage::TopK,
];

/// Table 1: hardware specifications.
fn tab1() -> ResultTable {
    let mut t = ResultTable::new(
        "tab1_hardware",
        &[
            "hardware",
            "price_usd",
            "memory_gib",
            "peak_watts",
            "bandwidth_gb_s",
        ],
    );
    for spec in baselines::hardware::hardware_table() {
        t.push_row(vec![
            spec.name.to_string(),
            fmt(spec.price_usd, 0),
            fmt(spec.memory_gib(), 0),
            fmt(spec.peak_watts, 0),
            fmt(spec.bandwidth_gb_s(), 1),
        ]);
    }
    println!("{}", hardware_table_markdown());
    t
}

/// Figure 7: MRAM read latency vs transfer size.
fn fig7() -> ResultTable {
    let mut t = ResultTable::new(
        "fig7_mram_latency",
        &["bytes", "latency_cycles", "latency_ns", "bandwidth_mb_s"],
    );
    let mut bytes = 8usize;
    while bytes <= 2048 {
        let cycles = mram_transfer_cycles(bytes);
        let ns = cycles as f64 / CLOCK_HZ * 1e9;
        let bw = bytes as f64 / (cycles as f64 / CLOCK_HZ) / 1e6;
        t.push_row(vec![
            bytes.to_string(),
            cycles.to_string(),
            fmt(ns, 1),
            fmt(bw, 1),
        ]);
        bytes *= 2;
    }
    t
}

/// Figure 10: QPS of UpANNS / PIM-naive / Faiss-CPU (normalized to CPU).
fn fig10(cache: &mut ContextCache) -> ResultTable {
    let nlist = cache.default_nlist();
    let nprobes = cache.params.nprobes.clone();
    let k = cache.params.k;
    let mut t = ResultTable::new(
        "fig10_qps_vs_cpu",
        &[
            "dataset",
            "nlist",
            "nprobe",
            "cpu_qps",
            "pim_naive_qps",
            "upanns_qps",
            "naive_over_cpu",
            "upanns_over_cpu",
        ],
    );
    for kind in DatasetKind::all() {
        let ctx = cache.get(kind, nlist);
        let mut cpu = ctx.cpu();
        let mut naive = ctx.pim_naive();
        let mut upanns = ctx.upanns();
        for &nprobe in &nprobes {
            let c = cpu.search_batch(&ctx.queries, nprobe, k);
            let nv = naive.search_batch(&ctx.queries, nprobe, k);
            let u = upanns.search_batch(&ctx.queries, nprobe, k);
            t.push_row(vec![
                kind.name().into(),
                nlist.to_string(),
                nprobe.to_string(),
                fmt(c.qps(), 1),
                fmt(nv.qps(), 1),
                fmt(u.qps(), 1),
                fmt(nv.qps() / c.qps(), 2),
                fmt(u.qps() / c.qps(), 2),
            ]);
        }
    }
    t
}

/// Figure 11: max/avg DPU workload ratio, PIM-aware placement vs naive.
fn fig11(cache: &mut ContextCache) -> ResultTable {
    let nlist = cache.default_nlist();
    let nprobes = cache.params.nprobes.clone();
    let k = cache.params.k;
    let mut t = ResultTable::new(
        "fig11_balance_ratio",
        &[
            "dataset",
            "nprobe",
            "pim_naive_max_over_avg",
            "upanns_max_over_avg",
        ],
    );
    for kind in DatasetKind::all() {
        let ctx = cache.get(kind, nlist);
        let mut naive = ctx.pim_naive();
        let mut upanns = ctx.upanns();
        for &nprobe in &nprobes {
            naive.search_batch(&ctx.queries, nprobe, k);
            upanns.search_batch(&ctx.queries, nprobe, k);
            t.push_row(vec![
                kind.name().into(),
                nprobe.to_string(),
                fmt(naive.last_balance_ratio(), 2),
                fmt(upanns.last_balance_ratio(), 2),
            ]);
        }
    }
    t
}

/// Figure 12: QPS and QPS/W of UpANNS vs Faiss-GPU (with the DEEP OOM case).
fn fig12(cache: &mut ContextCache) -> ResultTable {
    let nlist = cache.default_nlist();
    let nprobes = cache.params.nprobes.clone();
    let k = cache.params.k;
    let dpus = cache.params.dpus;
    let mut t = ResultTable::new(
        "fig12_vs_gpu",
        &[
            "dataset",
            "nprobe",
            "gpu_qps",
            "upanns_qps",
            "upanns_over_gpu",
            "gpu_qps_per_w",
            "upanns_qps_per_w",
            "qps_per_w_ratio",
            "gpu_1b_memory",
        ],
    );
    let pim_energy = EnergyModel::pim(&PimConfig::with_dpus(dpus));
    let gpu_energy = HardwareSpec::gpu().energy_model();
    for kind in DatasetKind::all() {
        let ctx = cache.get(kind, nlist);
        let mut gpu = ctx.gpu();
        let mut upanns = ctx.upanns();
        // The paper's DEEP1B GPU configuration keeps raw vectors resident and
        // goes out of memory at 10⁹ vectors (blue X in Figure 12).
        let store_raw = matches!(kind, DatasetKind::DeepLike);
        let memory = match GpuFaissEngine::new(&ctx.index).check_memory(1_000_000_000, store_raw) {
            GpuMemoryCheck::Fits { required } => format!("{:.0} GB", required as f64 / 1e9),
            GpuMemoryCheck::OutOfMemory { required, .. } => {
                format!("OOM ({:.0} GB > 80 GB)", required as f64 / 1e9)
            }
        };
        for &nprobe in &nprobes {
            let g = gpu.search_batch(&ctx.queries, nprobe, k);
            let u = upanns.search_batch(&ctx.queries, nprobe, k);
            t.push_row(vec![
                kind.name().into(),
                nprobe.to_string(),
                fmt(g.qps(), 1),
                fmt(u.qps(), 1),
                fmt(u.qps() / g.qps(), 2),
                fmt(g.qps_per_watt(&gpu_energy), 3),
                fmt(u.qps_per_watt(&pim_energy), 3),
                fmt(u.qps_per_watt(&pim_energy) / g.qps_per_watt(&gpu_energy), 2),
                memory.clone(),
            ]);
        }
    }
    t
}

/// Figure 14: co-occurrence aware encoding gains vs length reduction rate.
fn fig14(cache: &mut ContextCache) -> ResultTable {
    let nlist = cache.default_nlist();
    let nprobes = cache.params.nprobes.clone();
    let k = cache.params.k;
    let mut t = ResultTable::new(
        "fig14_cae",
        &[
            "dataset",
            "nprobe",
            "length_reduction_rate",
            "qps_without_cae",
            "qps_with_cae",
            "improvement",
        ],
    );
    for kind in DatasetKind::all() {
        let ctx = cache.get(kind, nlist);
        let mut with_cae = ctx.upanns();
        let mut without_cae = ctx.upanns_with(
            UpAnnsConfig::upanns().with_cooccurrence(false),
            ctx.params.dpus,
        );
        let rate = with_cae.mean_reduction_rate();
        for &nprobe in &nprobes {
            let on = with_cae.search_batch(&ctx.queries, nprobe, k);
            let off = without_cae.search_batch(&ctx.queries, nprobe, k);
            t.push_row(vec![
                kind.name().into(),
                nprobe.to_string(),
                fmt(rate, 3),
                fmt(off.qps(), 1),
                fmt(on.qps(), 1),
                fmt(on.qps() / off.qps(), 3),
            ]);
        }
    }
    t
}

/// Figure 15: top-k stage time with and without pruning, k = 10..100.
fn fig15(cache: &mut ContextCache) -> ResultTable {
    let nlist = cache.default_nlist();
    let nprobe = cache.params.nprobes[cache.params.nprobes.len() / 2];
    let ctx = cache.get(DatasetKind::SiftLike, nlist);
    let mut pruned = ctx.upanns();
    let mut unpruned = ctx.upanns_with(
        UpAnnsConfig::upanns().with_topk_pruning(false),
        ctx.params.dpus,
    );
    let mut t = ResultTable::new(
        "fig15_topk_pruning",
        &[
            "k",
            "topk_seconds_no_pruning",
            "topk_seconds_pruned",
            "reduction",
            "pruned_comparisons_fraction",
        ],
    );
    for &k in &[10usize, 20, 50, 100] {
        let off = unpruned.search_batch(&ctx.queries, nprobe, k);
        let on = pruned.search_batch(&ctx.queries, nprobe, k);
        t.push_row(vec![
            k.to_string(),
            fmt(off.breakdown.seconds(Stage::TopK), 6),
            fmt(on.breakdown.seconds(Stage::TopK), 6),
            fmt(
                off.breakdown.seconds(Stage::TopK) / on.breakdown.seconds(Stage::TopK).max(1e-12),
                2,
            ),
            fmt(on.stats.topk_rejection_rate(), 3),
        ]);
    }
    t
}

/// Figure 16: per-query latency vs batch size for UpANNS / PIM-naive / CPU.
fn fig16(cache: &mut ContextCache) -> ResultTable {
    let nlist = cache.default_nlist();
    let nprobe = cache.params.nprobes[0];
    let k = cache.params.k;
    let seed = cache.params.seed;
    let ctx = cache.get(DatasetKind::SiftLike, nlist);
    let mut upanns = ctx.upanns();
    let mut naive = ctx.pim_naive();
    let mut cpu = ctx.cpu();
    let mut t = ResultTable::new(
        "fig16_batch_size",
        &[
            "batch_size",
            "engine",
            "batch_latency_ms",
            "ms_per_query",
            "qps",
        ],
    );
    for &bs in &[10usize, 100, 1000] {
        let batch = WorkloadSpec::new(bs)
            .with_seed(seed + 100 + bs as u64)
            .generate(&ctx.dataset);
        for (name, out) in [
            ("UpANNS", upanns.search_batch(&batch.queries, nprobe, k)),
            ("PIM-naive", naive.search_batch(&batch.queries, nprobe, k)),
            ("Faiss-CPU", cpu.search_batch(&batch.queries, nprobe, k)),
        ] {
            t.push_row(vec![
                bs.to_string(),
                name.into(),
                fmt(out.seconds * 1e3, 3),
                fmt(out.mean_latency() * 1e3, 3),
                fmt(out.qps(), 1),
            ]);
        }
    }
    t
}

/// Figure 17: QPS vs MRAM read size (vectors per read).
fn fig17(cache: &mut ContextCache) -> ResultTable {
    let nlist = cache.default_nlist();
    let nprobe = cache.params.nprobes[cache.params.nprobes.len() / 2];
    let k = cache.params.k;
    let mut t = ResultTable::new(
        "fig17_mram_read_size",
        &["dataset", "vectors_per_read", "read_bytes", "qps"],
    );
    for kind in DatasetKind::all() {
        let ctx = cache.get(kind, nlist);
        for &vectors in &[2usize, 4, 8, 16, 32, 64] {
            let config = UpAnnsConfig::upanns().with_mram_read_vectors(vectors);
            let read_bytes = config.mram_read_bytes(ctx.index.m());
            let mut engine = ctx.upanns_with(config, ctx.params.dpus);
            let out = engine.search_batch(&ctx.queries, nprobe, k);
            t.push_row(vec![
                kind.name().into(),
                vectors.to_string(),
                read_bytes.to_string(),
                fmt(out.qps(), 1),
            ]);
        }
    }
    t
}

/// Figure 18: QPS vs top-k size for UpANNS / Faiss-CPU / Faiss-GPU.
fn fig18(cache: &mut ContextCache) -> ResultTable {
    let nlist = cache.default_nlist();
    let nprobe = cache.params.nprobes[0];
    let mut t = ResultTable::new(
        "fig18_topk_size",
        &[
            "dataset",
            "k",
            "cpu_qps",
            "gpu_qps",
            "upanns_qps",
            "upanns_over_cpu",
            "upanns_over_gpu",
        ],
    );
    for kind in DatasetKind::all() {
        let ctx = cache.get(kind, nlist);
        let mut cpu = ctx.cpu();
        let mut gpu = ctx.gpu();
        let mut upanns = ctx.upanns();
        for &k in &[1usize, 10, 50, 100] {
            let c = cpu.search_batch(&ctx.queries, nprobe, k);
            let g = gpu.search_batch(&ctx.queries, nprobe, k);
            let u = upanns.search_batch(&ctx.queries, nprobe, k);
            t.push_row(vec![
                kind.name().into(),
                k.to_string(),
                fmt(c.qps(), 1),
                fmt(g.qps(), 1),
                fmt(u.qps(), 1),
                fmt(u.qps() / c.qps(), 2),
                fmt(u.qps() / g.qps(), 2),
            ]);
        }
    }
    t
}

/// Figure 19: stage time breakdown of CPU / GPU / UpANNS.
fn fig19(cache: &mut ContextCache) -> ResultTable {
    let nlist = cache.default_nlist();
    let nprobe = cache.params.nprobes[cache.params.nprobes.len() / 2];
    let header: Vec<&str> = ["dataset", "engine", "k"]
        .into_iter()
        .chain(PAPER_STAGES.map(Stage::label))
        .chain(["other"])
        .collect();
    let mut t = ResultTable::new("fig19_breakdown", &header);
    for kind in DatasetKind::all() {
        let ctx = cache.get(kind, nlist);
        for &k in &[10usize, 100] {
            let mut cpu = ctx.cpu();
            let mut gpu = ctx.gpu();
            let mut upanns = ctx.upanns();
            for (name, out) in [
                ("Faiss-CPU", cpu.search_batch(&ctx.queries, nprobe, k)),
                ("Faiss-GPU", gpu.search_batch(&ctx.queries, nprobe, k)),
                ("UpANNS", upanns.search_batch(&ctx.queries, nprobe, k)),
            ] {
                let main: f64 = PAPER_STAGES
                    .iter()
                    .map(|&s| out.breakdown.fraction(s))
                    .sum();
                let mut row = vec![kind.name().into(), name.into(), k.to_string()];
                row.extend(PAPER_STAGES.map(|s| fmt(out.breakdown.fraction(s), 3)));
                row.push(fmt((1.0 - main).max(0.0), 3));
                t.push_row(row);
            }
        }
    }
    t
}

/// §4.1.2: drifted traffic on a stale placement against the two adaptation
/// tiers ([`EvalContext::drift_study`]).
fn drift(cache: &mut ContextCache) -> ResultTable {
    let nlist = cache.default_nlist();
    let ctx = cache.get(DatasetKind::SiftLike, nlist);
    let mut t = ResultTable::new(
        "drift_adaptation",
        &[
            "popularity_seed",
            "placement",
            "seconds",
            "last_balance_ratio",
            "replicas_restaged",
        ],
    );
    for row in ctx.drift_study(&[4242, 31337, 99]) {
        t.push_row(vec![
            row.popularity_seed
                .map_or("undrifted".into(), |s| s.to_string()),
            row.placement.into(),
            fmt(row.seconds, 2),
            fmt(row.balance_ratio, 1),
            row.replicas_restaged.to_string(),
        ]);
    }
    t
}

/// What Opt1 reaches on the full fleet from far fewer lists than DPUs to
/// several per DPU ([`balance_study`]: placement and scheduling, no engine).
/// nprobe is the benchmark fixtures' 8 up to 512 lists and the paper's
/// 64-of-4 096 ratio above.
fn balance(cache: &mut ContextCache) -> ResultTable {
    let mut t = ResultTable::new(
        "balance_by_nlist",
        &[
            "nlist",
            "nprobe",
            "dpus",
            "replicas",
            "final_thld",
            "static_max_over_avg",
            "scheduled_max_over_avg",
            "pair_granularity_floor",
        ],
    );
    for nlist in [32, 64, 512, 4096] {
        let ctx = cache.get(DatasetKind::SiftLike, nlist);
        let nprobe = (nlist / 64).max(8);
        let row = balance_study(
            &ctx.index,
            &ctx.history,
            &ctx.queries,
            ctx.params.dpus,
            nprobe,
        );
        t.push_row(vec![
            nlist.to_string(),
            nprobe.to_string(),
            ctx.params.dpus.to_string(),
            row.replicas.to_string(),
            fmt(row.threshold, 2),
            fmt(row.static_ratio, 3),
            fmt(row.scheduled_ratio, 3),
            fmt(row.granularity_floor, 3),
        ]);
    }
    t
}

/// Figure 20: scalability with the number of DPUs + linear extrapolation.
fn fig20(cache: &mut ContextCache) -> ResultTable {
    let nlist = cache.default_nlist();
    let nprobe = cache.params.nprobes[cache.params.nprobes.len() / 2];
    let k = cache.params.k;
    // The paper's scalability study uses a 500M-scale dataset.
    const MODELED_N: f64 = 5e8;
    let ctx = cache.get(DatasetKind::SiftLike, nlist);
    let mut gpu = ctx.gpu_at(MODELED_N);
    let gpu_out = gpu.search_batch(&ctx.queries, nprobe, k);

    let mut t = ResultTable::new(
        "fig20_scalability",
        &[
            "dpus",
            "measured_or_predicted",
            "qps",
            "watts",
            "qps_over_gpu",
        ],
    );
    let mut samples = Vec::new();
    for &dpus in &[512usize, 640, 768, 896] {
        let mut engine = ctx.upanns_at(UpAnnsConfig::upanns(), dpus, MODELED_N);
        let out = engine.search_batch(&ctx.queries, nprobe, k);
        samples.push((dpus as f64, out.qps()));
        t.push_row(vec![
            dpus.to_string(),
            "measured".into(),
            fmt(out.qps(), 1),
            fmt(PimConfig::with_dpus(dpus).peak_watts(), 1),
            fmt(out.qps() / gpu_out.qps(), 2),
        ]);
    }
    // Linear regression, as the paper does, to project to the 20-DIMM limit.
    let (a, b) = linear_fit(&samples);
    for &dpus in &[1280usize, 1654, 2048, 2560] {
        let qps = a * dpus as f64 + b;
        t.push_row(vec![
            dpus.to_string(),
            if dpus == 1654 {
                "predicted (iso-power with A100)".into()
            } else {
                "predicted".into()
            },
            fmt(qps, 1),
            fmt(PimConfig::with_dpus(dpus).peak_watts(), 1),
            fmt(qps / gpu_out.qps(), 2),
        ]);
    }
    t
}

/// The headline claims of §1 / §5.2.
fn headline(cache: &mut ContextCache) -> ResultTable {
    let nlist = cache.default_nlist();
    let nprobe = cache.params.nprobes[cache.params.nprobes.len() / 2];
    let k = cache.params.k;
    let dpus = cache.params.dpus;
    let mut t = ResultTable::new(
        "headline_claims",
        &["dataset", "metric", "paper", "measured"],
    );
    let pim_energy = EnergyModel::pim(&PimConfig::with_dpus(dpus));
    let gpu_energy = HardwareSpec::gpu().energy_model();
    for kind in DatasetKind::all() {
        let ctx = cache.get(kind, nlist);
        let mut cpu = ctx.cpu();
        let mut gpu = ctx.gpu();
        let mut naive = ctx.pim_naive();
        let mut upanns = ctx.upanns();
        let c = cpu.search_batch(&ctx.queries, nprobe, k);
        let g = gpu.search_batch(&ctx.queries, nprobe, k);
        let nv = naive.search_batch(&ctx.queries, nprobe, k);
        let u = upanns.search_batch(&ctx.queries, nprobe, k);
        let exact = FlatIndex::new(&ctx.dataset.vectors).search_batch(&ctx.queries, k);
        t.push_row(vec![
            kind.name().into(),
            "UpANNS QPS / Faiss-CPU QPS".into(),
            "1.6x - 4.3x".into(),
            fmt(u.qps() / c.qps(), 2),
        ]);
        t.push_row(vec![
            kind.name().into(),
            "UpANNS QPS / Faiss-GPU QPS".into(),
            "~1x (comparable)".into(),
            fmt(u.qps() / g.qps(), 2),
        ]);
        t.push_row(vec![
            kind.name().into(),
            "UpANNS QPS / PIM-naive QPS".into(),
            "up to 3.1x".into(),
            fmt(u.qps() / nv.qps(), 2),
        ]);
        t.push_row(vec![
            kind.name().into(),
            "UpANNS QPS/W / GPU QPS/W".into(),
            "~2.3x".into(),
            fmt(u.qps_per_watt(&pim_energy) / g.qps_per_watt(&gpu_energy), 2),
        ]);
        t.push_row(vec![
            kind.name().into(),
            "UpANNS QPS/$ / GPU QPS/$".into(),
            "up to 9.3x".into(),
            fmt(
                u.qps_per_dollar(&pim_energy) / g.qps_per_dollar(&gpu_energy),
                2,
            ),
        ]);
        t.push_row(vec![
            kind.name().into(),
            "recall@10 UpANNS vs Faiss-CPU (identical)".into(),
            "identical".into(),
            format!(
                "{} vs {}",
                fmt(recall_at_k(&u.results, &exact, k), 3),
                fmt(recall_at_k(&c.results, &exact, k), 3)
            ),
        ]);
    }
    t
}

/// Ordinary least squares for y = a·x + b.
fn linear_fit(samples: &[(f64, f64)]) -> (f64, f64) {
    let n = samples.len() as f64;
    let sx: f64 = samples.iter().map(|(x, _)| x).sum();
    let sy: f64 = samples.iter().map(|(_, y)| y).sum();
    let sxx: f64 = samples.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = samples.iter().map(|(x, y)| x * y).sum();
    let a = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let b = (sy - a * sx) / n;
    (a, b)
}
