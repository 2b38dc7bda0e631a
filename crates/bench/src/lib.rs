//! Shared harness code for regenerating the UpANNS paper's tables and
//! figures.
//!
//! The `figures` binary (`cargo run -p upanns-bench --release --bin figures --
//! <id>|all`) uses the [`EvalContext`] built here: one synthetic
//! dataset + trained IVFPQ index + historical workload per dataset kind, with
//! all engines constructed on demand. Results are printed as markdown tables
//! and written as CSV under `results/`.

#![forbid(unsafe_code)]

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::synthetic::{DatasetKind, SyntheticDataset, SyntheticSpec};
use annkit::vector::Dataset;
use annkit::workload::WorkloadSpec;
use baselines::cpu::CpuFaissEngine;
use baselines::engine::AnnEngine;
use baselines::gpu::GpuFaissEngine;
use pim_sim::config::PimConfig;
use std::io::Write;
use std::path::PathBuf;
use upanns::adaptive::{apply_adjustment, full_relocation, replica_adjustment};
use upanns::builder::{frequencies_from_queries, max_dpu_vectors, UpAnnsBuilder};
use upanns::config::UpAnnsConfig;
use upanns::engine::UpAnnsEngine;
use upanns::placement::{place_pim_aware, Placement, PlacementInput};
use upanns::scheduling::schedule_queries;

/// Default reduction-scale parameters of the reproduction. The paper's
/// evaluation uses 10⁹ vectors, |C| ∈ {4096, 8192, 16384}, nprobe ∈
/// {64, 128, 256}, 896 DPUs and 1,000-query batches; the defaults below keep
/// the same nprobe/|C| ratios and project per-vector work to 10⁹ with the
/// work-scale factor ([`UpAnnsConfig::work_scale`]).
#[derive(Debug, Clone)]
pub struct EvalParams {
    /// Number of base vectors generated per dataset.
    pub n: usize,
    /// Coarse cluster count (the "IVF" knob).
    pub nlist: usize,
    /// Scaled nprobe sweep (paper: 64/128/256 at |C| = 4096).
    pub nprobes: Vec<usize>,
    /// Number of simulated DPUs (paper: 896 = 7 DIMMs).
    pub dpus: usize,
    /// Queries per batch (paper: 1,000).
    pub batch: usize,
    /// Modeled dataset size used for the work-scale projection.
    pub modeled_n: f64,
    /// Default top-k.
    pub k: usize,
    /// Training-sample cap for index training.
    pub train_size: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for EvalParams {
    fn default() -> Self {
        Self {
            n: 40_000,
            nlist: 4096,
            nprobes: vec![64, 128, 256],
            dpus: 896,
            batch: 1_000,
            modeled_n: 1e9,
            k: 10,
            train_size: 20_000,
            seed: 0xABCD,
        }
    }
}

impl EvalParams {
    /// The work-scale factor projecting the reduced dataset to the modeled
    /// size.
    pub fn work_scale(&self) -> f64 {
        self.work_scale_to(self.modeled_n)
    }

    /// The work-scale factor projecting the reduced dataset to `modeled_n`.
    pub fn work_scale_to(&self, modeled_n: f64) -> f64 {
        (modeled_n / self.n as f64).max(1.0)
    }
}

/// One dataset's evaluation context: data, index, historical workload and a
/// query batch, shared across experiments.
pub struct EvalContext {
    /// Which dataset this context mimics.
    pub kind: DatasetKind,
    /// Parameters the context was built with.
    pub params: EvalParams,
    /// The generated dataset and its ground-truth structure.
    pub dataset: SyntheticDataset,
    /// The trained IVFPQ index over it.
    pub index: IvfPqIndex,
    /// Historical queries (drives data placement).
    pub history: Dataset,
    /// The evaluation query batch.
    pub queries: Dataset,
}

impl EvalContext {
    /// Generates the dataset, trains the index and samples the workloads.
    /// This is the expensive, one-off part of every experiment.
    pub fn build(kind: DatasetKind, params: &EvalParams) -> Self {
        Self::build_with_nlist(kind, params, params.nlist)
    }

    /// Like [`build`](Self::build) but overriding the cluster count (used by
    /// the IVF sweep of Figures 10–12).
    pub fn build_with_nlist(kind: DatasetKind, params: &EvalParams, nlist: usize) -> Self {
        let dataset = SyntheticSpec::new(kind, params.n)
            .with_clusters((nlist / 4).clamp(16, 512))
            .with_seed(params.seed)
            .generate_with_meta();
        let index_params = IvfPqParams::new(nlist, kind.pq_m())
            .with_train_size(params.train_size)
            .with_coarse_iterations(8);
        let index = IvfPqIndex::train(&dataset.vectors, &index_params, params.seed + 1);
        let history = WorkloadSpec::new(params.batch * 4)
            .with_seed(params.seed + 2)
            .generate(&dataset)
            .queries;
        let queries = WorkloadSpec::new(params.batch)
            .with_seed(params.seed + 3)
            .generate(&dataset)
            .queries;
        Self {
            kind,
            params: params.clone(),
            dataset,
            index,
            history,
            queries,
        }
    }

    /// Builds a full UpANNS engine (all optimizations).
    pub fn upanns(&self) -> UpAnnsEngine {
        self.upanns_with(UpAnnsConfig::upanns(), self.params.dpus)
    }

    /// Builds the PIM-naive baseline engine.
    pub fn pim_naive(&self) -> UpAnnsEngine {
        self.upanns_with(UpAnnsConfig::pim_naive(), self.params.dpus)
    }

    /// Builds a PIM engine with an explicit configuration on `dpus` DPUs at
    /// the context's modeled size.
    pub fn upanns_with(&self, config: UpAnnsConfig, dpus: usize) -> UpAnnsEngine {
        self.upanns_at(config, dpus, self.params.modeled_n)
    }

    /// Like [`upanns_with`](Self::upanns_with), projected to `modeled_n`
    /// vectors instead; `config`'s own work scale is replaced.
    pub fn upanns_at(&self, config: UpAnnsConfig, dpus: usize, modeled_n: f64) -> UpAnnsEngine {
        // One engine serves every nprobe of the sweep, so the placement
        // frequencies are estimated at *every* swept nprobe and summed. This
        // rank-decayed estimate keeps the clusters that dominate small-nprobe
        // runs heavily weighted (they are counted at every resolution) while
        // still giving tail clusters — which only matter at large nprobe — a
        // non-zero share, so neither end of the sweep sees the placement
        // under-replicate its hot set (the failure mode behind a high
        // Figure 11 max/avg ratio).
        let nlist = self.index.nlist();
        let mut freqs = vec![0.0f64; nlist];
        for &np in &self.params.nprobes {
            for (c, f) in frequencies_from_queries(&self.index, &self.history, np)
                .into_iter()
                .enumerate()
            {
                freqs[c] += f;
            }
        }
        UpAnnsBuilder::new(&self.index)
            .with_config(config.with_work_scale(self.params.work_scale_to(modeled_n)))
            .with_pim_config(PimConfig::with_dpus(dpus))
            .with_frequencies(freqs)
            .build()
    }

    /// The §4.1.2 question measured: what serving drifted traffic on a stale
    /// placement costs, and what each adaptation tier buys back.
    ///
    /// The placement is built from a 600-query history of the default
    /// popularity ranking. For each seed in `popularity_seeds` a 500-query
    /// batch is drawn from the ranking [`WorkloadSpec::with_popularity_seed`]
    /// gives (nprobe 8) and served three times: on the stale placement, on
    /// that placement after the minor-drift tier's replica adjustment, and
    /// after the major-drift tier's full relocation — each tier called
    /// directly, whatever the drift rule of
    /// [`adapt_placement`](upanns::adaptive::adapt_placement) would pick, with
    /// the new frequencies taken from a 600-query history of the drifted
    /// ranking. An adjusted row appears only when the frequencies moved and
    /// some replica count changes.
    /// The first row is the floor: the stale placement serving a batch of
    /// the ranking it was built for.
    pub fn drift_study(&self, popularity_seeds: &[u64]) -> Vec<DriftRow> {
        const NPROBE: usize = 8;
        let seed = self.params.seed;
        let draw = |queries: usize, seed: u64, popularity: Option<u64>| {
            let mut spec = WorkloadSpec::new(queries).with_seed(seed);
            if let Some(p) = popularity {
                spec = spec.with_popularity_seed(p);
            }
            spec.generate(&self.dataset).queries
        };
        let old_freqs = frequencies_from_queries(&self.index, &draw(600, seed + 20, None), NPROBE);
        let sizes = self.index.list_sizes();
        let pim = PimConfig::with_dpus(self.params.dpus);
        let max_dpu_vectors = max_dpu_vectors(self.index.m(), &pim);
        let build = |placement: Option<Placement>| {
            let builder = UpAnnsBuilder::new(&self.index)
                .with_config(UpAnnsConfig::upanns().with_work_scale(self.params.work_scale()))
                .with_pim_config(pim.clone())
                .with_frequencies(old_freqs.clone());
            match placement {
                Some(p) => builder.with_placement(p),
                None => builder,
            }
            .build()
        };
        let mut rows = Vec::new();
        let mut serve =
            |engine: &mut UpAnnsEngine, popularity_seed, placement, restaged, batch: &Dataset| {
                let seconds = engine.search_batch(batch, NPROBE, self.params.k).seconds;
                rows.push(DriftRow {
                    popularity_seed,
                    placement,
                    seconds,
                    balance_ratio: engine.last_balance_ratio(),
                    replicas_restaged: restaged,
                });
            };
        let mut stale_engine = build(None);
        let stale = stale_engine.placement().clone();
        serve(
            &mut stale_engine,
            None,
            "stale",
            0,
            &draw(500, seed + 21, None),
        );
        for &p in popularity_seeds {
            let new_freqs =
                frequencies_from_queries(&self.index, &draw(600, seed + 22, Some(p)), NPROBE);
            let batch = draw(500, seed + 23, Some(p));
            serve(&mut stale_engine, Some(p), "stale", 0, &batch);
            // Both histories are 600 queries at NPROBE, so equal frequencies
            // are exactly zero drift.
            let adjustment = replica_adjustment(&stale, &sizes, &new_freqs);
            if let Some(adjustment) = adjustment.filter(|_| new_freqs != old_freqs) {
                let adjusted =
                    apply_adjustment(&stale, &adjustment, &sizes, &new_freqs, max_dpu_vectors);
                let added = adjustment.add.iter().map(|&(_, replicas)| replicas).sum();
                serve(
                    &mut build(Some(adjusted)),
                    Some(p),
                    "replica-adjusted",
                    added,
                    &batch,
                );
            }
            let relocated = full_relocation(&sizes, &new_freqs, self.params.dpus, max_dpu_vectors);
            let restaged = relocated.total_replicas();
            serve(
                &mut build(Some(relocated)),
                Some(p),
                "full-relocation",
                restaged,
                &batch,
            );
        }
        rows
    }

    /// Builds the Faiss-CPU baseline (work-scale projected).
    pub fn cpu(&self) -> CpuFaissEngine {
        CpuFaissEngine::new(&self.index).with_work_scale(self.params.work_scale())
    }

    /// Builds the Faiss-GPU baseline (work-scale projected).
    pub fn gpu(&self) -> GpuFaissEngine {
        self.gpu_at(self.params.modeled_n)
    }

    /// Builds the Faiss-GPU baseline projected to `modeled_n` vectors.
    pub fn gpu_at(&self, modeled_n: f64) -> GpuFaissEngine {
        GpuFaissEngine::new(&self.index).with_work_scale(self.params.work_scale_to(modeled_n))
    }
}

/// Opt1 with no engine behind it: Algorithm 1 on the frequencies of
/// `history`, Algorithm 2 on `queries`, both at `nprobe`.
pub fn balance_study(
    index: &IvfPqIndex,
    history: &Dataset,
    queries: &Dataset,
    dpus: usize,
    nprobe: usize,
) -> BalanceRow {
    let sizes = index.list_sizes();
    let placement = place_pim_aware(&PlacementInput::new(
        sizes.clone(),
        frequencies_from_queries(index, history, nprobe),
        dpus,
        max_dpu_vectors(index.m(), &PimConfig::with_dpus(dpus)),
    ));
    let filtered: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| {
            index
                .filter_clusters(q, nprobe)
                .into_iter()
                .map(|(c, _)| c)
                .collect()
        })
        .collect();
    let schedule = schedule_queries(&filtered, &placement, &sizes);
    let scheduled_ratio = schedule.max_to_avg_workload();
    let max_load = schedule
        .dpu_workload
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .max(1);
    // Some replica of a cluster takes at least ⌈pairs / replicas⌉ of its
    // (query, cluster) pairs, whatever the scheduler does.
    let mut pairs = vec![0usize; sizes.len()];
    for &c in filtered.iter().flatten() {
        pairs[c] += 1;
    }
    let floor = (0..sizes.len())
        .map(|c| pairs[c].div_ceil(placement.replicas(c)) * sizes[c])
        .max()
        .unwrap_or(0);
    BalanceRow {
        replicas: placement.total_replicas(),
        threshold: placement.threshold,
        static_ratio: placement.max_to_avg_workload(),
        scheduled_ratio,
        // Over the mean `scheduled_ratio` is over.
        granularity_floor: scheduled_ratio * (floor as f64 / max_load as f64),
    }
}

/// What [`balance_study`] measures.
#[derive(Debug, Clone)]
pub struct BalanceRow {
    /// (cluster, DPU) replica pairs Algorithm 1 placed.
    pub replicas: usize,
    /// The `thld` Algorithm 1's relaxation settled at.
    pub threshold: f64,
    /// Max / mean estimated workload over the DPUs the placement uses.
    pub static_ratio: f64,
    /// Max / mean scheduled workload over the busy DPUs of the batch.
    pub scheduled_ratio: f64,
    /// The least `scheduled_ratio` any scheduler could reach on this
    /// placement: `max_c ⌈pairs_c / replicas_c⌉·s_c` over the mean.
    pub granularity_floor: f64,
}

/// One served batch of [`EvalContext::drift_study`].
#[derive(Debug, Clone)]
pub struct DriftRow {
    /// The popularity ranking the batch was drawn from (`None`: the ranking
    /// the stale placement was built for).
    pub popularity_seed: Option<u64>,
    /// `"stale"`, `"replica-adjusted"` or `"full-relocation"`.
    pub placement: &'static str,
    /// Modeled seconds of the batch.
    pub seconds: f64,
    /// [`UpAnnsEngine::last_balance_ratio`] of the batch.
    pub balance_ratio: f64,
    /// Cluster replicas the host had to stage to get from the stale placement
    /// to this one.
    pub replicas_restaged: usize,
}

/// A simple markdown/CSV table accumulator used by every experiment.
#[derive(Debug, Clone)]
pub struct ResultTable {
    /// Table name (used as the CSV file stem).
    pub name: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Data rows (stringified).
    pub rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new(name: &str, header: &[&str]) -> Self {
        Self {
            name: name.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as github-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("\n### {}\n\n", self.name));
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Writes the table as CSV under `results/<name>.csv` (creating the
    /// directory) and returns the path.
    pub fn write_csv(&self, results_dir: &str) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(results_dir)?;
        let path = PathBuf::from(results_dir).join(format!("{}.csv", self.name));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }
}

/// Formats a float with a fixed number of decimals (helper for table rows).
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_compute_work_scale() {
        let p = EvalParams::default();
        assert!((p.work_scale() - 1e9 / 40_000.0).abs() < 1.0);
        let tiny = EvalParams {
            n: 2_000_000_000,
            ..EvalParams::default()
        };
        assert_eq!(tiny.work_scale(), 1.0);
        assert_eq!(p.work_scale_to(5e8), 5e8 / 40_000.0);
    }

    #[test]
    fn result_table_roundtrip() {
        let mut t = ResultTable::new("unit_test_table", &["a", "b"]);
        t.push_row(vec!["1".into(), fmt(2.5, 2)]);
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2.50 |"));
        let dir = std::env::temp_dir().join("upanns_bench_test");
        let path = t.write_csv(dir.to_str().unwrap()).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n1,2.50"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = ResultTable::new("x", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn small_context_builds_and_searches() {
        // A deliberately tiny context so this test stays fast: it exercises
        // the full build path (dataset, index, engines) end to end.
        let params = EvalParams {
            n: 3_000,
            nlist: 32,
            nprobes: vec![4],
            dpus: 16,
            batch: 16,
            train_size: 1_500,
            ..EvalParams::default()
        };
        let ctx = EvalContext::build(DatasetKind::SiftLike, &params);
        assert_eq!(ctx.index.nlist(), 32);
        assert_eq!(ctx.queries.len(), 16);
        let mut engine = ctx.upanns();
        let out = baselines::engine::AnnEngine::search_batch(&mut engine, &ctx.queries, 4, 5);
        assert_eq!(out.results.len(), 16);
        assert!(out.qps() > 0.0);
        let mut cpu = ctx.cpu();
        let cpu_out = baselines::engine::AnnEngine::search_batch(&mut cpu, &ctx.queries, 4, 5);
        assert_eq!(cpu_out.results.len(), 16);
        // An explicit configuration is built at the context's own modeled
        // size too, not at the functional one.
        let mut explicit = ctx.upanns_with(UpAnnsConfig::upanns(), ctx.params.dpus);
        let explicit_out =
            baselines::engine::AnnEngine::search_batch(&mut explicit, &ctx.queries, 4, 5);
        assert_eq!(explicit_out.seconds.to_bits(), out.seconds.to_bits());
    }
}
