//! The three fixtures and the engine builders every workload shares.
//!
//! Dataset and index-training seeds are constants of the fixture; `--seed`
//! drives only the generated inputs (query vectors, arrival times, repeat
//! choices, option plans, mutation streams).

use crate::clock;
use crate::record::SetupTimes;
use annkit::flat::FlatIndex;
use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::synthetic::{SyntheticDataset, SyntheticSpec};
use annkit::topk::Neighbor;
use annkit::vector::Dataset;
use annkit::workload::WorkloadSpec;
use baselines::engine::QueryOptions;
use pim_sim::config::PimConfig;
use upanns::builder::{BatchCapacity, UpAnnsBuilder};
use upanns::config::UpAnnsConfig;
use upanns::engine::UpAnnsEngine;
use upanns_serve::batcher::BatchFormerConfig;
use upanns_serve::service::ServiceConfig;

pub const PQ_M: usize = 16;
pub const DPUS: usize = 896;
/// Modeled corpus of the serving fixtures: per-cluster size
/// `MODELED_N / 512` matches the 244 k vectors per cluster of the paper's
/// billion-scale configuration (the `serve` binary's projection).
pub const MODELED_N: f64 = 1.25e8;
/// Work scale of the engines that run against the wall clock: small enough
/// that emulated device time is milliseconds per chunk.
pub const WALL_WORK_SCALE: f64 = 4_000.0;

/// Shape of one fixture.
#[derive(Debug, Clone, Copy)]
pub struct FixtureSpec {
    pub n: usize,
    pub nlist: usize,
    pub train_size: usize,
    /// Corpus size the engines' work scale projects to.
    pub modeled_n: f64,
}

impl FixtureSpec {
    pub fn work_scale(&self) -> f64 {
        (self.modeled_n / self.n as f64).max(1.0)
    }
}

/// *S* — the committed `serve` shape (about 8 vectors per list), so numbers
/// stay comparable with `BENCH_serving.json`.
pub const S: FixtureSpec = FixtureSpec {
    n: 4_000,
    nlist: 512,
    train_size: 2_400,
    modeled_n: MODELED_N,
};

/// *L* — long lists (about 1 250 vectors per list): the only shape where
/// scan and top-k, not LUT construction, dominate an engine call's host
/// time, as distance calculation does at the paper's scale.
pub const L: FixtureSpec = FixtureSpec {
    n: 40_000,
    nlist: 32,
    train_size: 3_000,
    modeled_n: 1e9,
};

/// *M* — mutation (125 vectors per list, so a delete stream cannot empty a
/// list; see "known defects" in `README.md`). The work scale puts the
/// engine near 45 % utilisation at the workload's 50 QPS: at the serving
/// fixtures' projection it saturates, and a saturated controller is chaotic
/// from seed to seed.
pub const M: FixtureSpec = FixtureSpec {
    n: 8_000,
    nlist: 64,
    train_size: 2_400,
    modeled_n: 2.4e7,
};

const DATASET_SEED: u64 = 7;
pub const INDEX_SEED: u64 = 5;
const HISTORY_SEED: u64 = 8;

/// A generated corpus with its trained index and the historical queries the
/// PIM-aware placement learns cluster popularity from.
pub struct Fixture {
    pub dataset: SyntheticDataset,
    pub index: IvfPqIndex,
    pub history: Dataset,
}

impl Fixture {
    pub fn build(spec: FixtureSpec, times: &mut SetupTimes) -> Self {
        let dataset = dataset_of(spec);
        let (index, train_s) = clock::timed(|| {
            IvfPqIndex::train(
                &dataset.vectors,
                &IvfPqParams::new(spec.nlist, PQ_M).with_train_size(spec.train_size),
                INDEX_SEED,
            )
        });
        times
            .entry("annkit.kmeans_pq.train_s")
            .or_default()
            .push(train_s);
        let history = history_of(&dataset);
        Self {
            dataset,
            index,
            history,
        }
    }

    /// The full UpANNS engine over this fixture's index, timed into
    /// `upanns.builder.build_s`.
    pub fn upanns(
        &self,
        work_scale: f64,
        batch_size: usize,
        times: &mut SetupTimes,
    ) -> UpAnnsEngine {
        let (engine, dt) = clock::timed(|| {
            pim_engine(
                &self.index,
                &self.history,
                UpAnnsConfig::upanns(),
                DPUS,
                work_scale,
                batch_size,
            )
        });
        times.entry("upanns.builder.build_s").or_default().push(dt);
        engine
    }
}

/// An UpANNS-family engine over `index` with the `serve` binary's builder
/// settings; `history` is what the PIM-aware placement learns cluster
/// popularity from.
pub fn pim_engine(
    index: &IvfPqIndex,
    history: &Dataset,
    config: UpAnnsConfig,
    dpus: usize,
    work_scale: f64,
    batch_size: usize,
) -> UpAnnsEngine {
    UpAnnsBuilder::new(index)
        .with_config(config.with_work_scale(work_scale))
        .with_pim_config(PimConfig::with_dpus(dpus))
        .with_history(history, 8)
        .with_batch_capacity(BatchCapacity {
            batch_size,
            nprobe: 8,
            max_k: 20,
        })
        .build()
}

/// The history every fixture's placement learns from.
pub fn history_of(dataset: &SyntheticDataset) -> Dataset {
    WorkloadSpec::new(600)
        .with_seed(HISTORY_SEED)
        .generate(dataset)
        .queries
}

/// The fixture's corpus alone.
pub fn dataset_of(spec: FixtureSpec) -> SyntheticDataset {
    SyntheticSpec::sift_like(spec.n)
        .with_clusters(16)
        .with_seed(DATASET_SEED)
        .generate_with_meta()
}

/// The `serve` binary's fixed low-latency batching window.
pub const FIXED_BATCHER: BatchFormerConfig = BatchFormerConfig {
    max_batch: 256,
    max_delay_s: 25e-3,
};

/// The `serve` binary's front-end configuration.
pub fn service_config(cache_capacity: usize, max_chunk: Option<usize>) -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 512,
        batcher: FIXED_BATCHER,
        cache_capacity,
        cache_lookup_s: 2e-6,
        slo_p99_s: None,
        max_chunk,
    }
}

/// The `serve` binary's single-tenant option mix: two nprobe tiers at
/// k = 10 plus a k = 20 tier carrying a latency budget.
pub fn options_of(index: usize) -> QueryOptions {
    match index % 3 {
        0 => QueryOptions::new(10, 8),
        1 => QueryOptions::new(10, 4),
        _ => QueryOptions::new(20, 8).with_latency_budget(0.05),
    }
}

/// Mean recall@10 of `served` against exact flat search over `corpus`,
/// over every `stride`-th non-empty answer. `ids` maps corpus rows to
/// vector ids (row index when `None`).
pub fn recall_at_10(
    served: &[Vec<Neighbor>],
    queries: &Dataset,
    corpus: &Dataset,
    stride: usize,
) -> (f64, usize) {
    let flat = FlatIndex::new(corpus);
    let mut sum = 0.0;
    let mut n = 0usize;
    for (i, answer) in served.iter().enumerate().step_by(stride.max(1)) {
        if answer.is_empty() {
            continue;
        }
        let exact = flat.search(queries.vector(i), 10);
        sum += recall_of(answer, &exact);
        n += 1;
    }
    (if n == 0 { 0.0 } else { sum / n as f64 }, n)
}

/// Share of `exact`'s ids among the first ten of `answer`.
pub fn recall_of(answer: &[Neighbor], exact: &[Neighbor]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hits = exact
        .iter()
        .filter(|e| answer.iter().take(10).any(|a| a.id == e.id))
        .count();
    hits as f64 / exact.len() as f64
}

/// Whether two answer lists name the same neighbours in the same order.
pub fn same_ids(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.id == y.id)
}

/// Whether two answers agree up to the order of near-tied neighbours: at
/// every rank the ids are equal or the ADC distances agree to one part in
/// 10^5. Engines that implement one algorithm add the same LUT entries in
/// different orders (co-occurrence partial sums first, on UpANNS), so two
/// candidates a rounding error apart can swap ranks, or swap across the
/// k-th place; that is floating point, not a wrong answer.
pub fn same_up_to_ties(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.id == y.id
                || (x.distance - y.distance).abs() <= 1e-5 * x.distance.abs().max(y.distance.abs())
        })
}

/// How many answers of two engines over one index differ by more than the
/// order of near-tied neighbours, and how many differ at all.
pub fn engine_mismatches(a: &[Vec<Neighbor>], b: &[Vec<Neighbor>]) -> (usize, usize) {
    let wrong = a
        .iter()
        .zip(b)
        .filter(|(x, y)| !same_up_to_ties(x, y))
        .count()
        + a.len().abs_diff(b.len());
    let reordered = a.iter().zip(b).filter(|(x, y)| !same_ids(x, y)).count();
    (wrong, reordered.saturating_sub(wrong))
}

/// How many positions of two answer maps differ, ignoring positions where
/// `a` is empty (shed queries).
pub fn mismatches(a: &[Vec<Neighbor>], b: &[Vec<Neighbor>]) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| !x.is_empty() && !same_ids(x, y))
        .count()
        + a.len().abs_diff(b.len())
}
