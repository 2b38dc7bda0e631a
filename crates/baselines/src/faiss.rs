//! The one Faiss-like IVFPQ engine, timed by a pluggable roofline.
//!
//! The paper's CPU and GPU baselines are the same algorithm — Faiss's
//! `IndexIVFPQ` and its GPU port answer a query identically — on different
//! hardware. [`FaissEngine`] is that algorithm once: it runs the four-stage
//! pipeline functionally ([`FunctionalRun`]: the answers plus the work each
//! stage did) and hands the counters to a [`Roofline`], which alone decides
//! how long the hardware takes. [`CpuSpec`](crate::cpu::CpuSpec) and
//! [`GpuSpec`](crate::gpu::GpuSpec) are the two rooflines;
//! [`CpuFaissEngine`](crate::cpu::CpuFaissEngine) and
//! [`GpuFaissEngine`](crate::gpu::GpuFaissEngine) are this engine over them.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::engine::{execute_by_entry, execute_grouped, AnnEngine, SearchRequest, SearchResponse};
use crate::hardware::HardwareSpec;
use crate::workload_stats::WorkloadStats;
use annkit::ivf::IvfPqIndex;
use annkit::lut::LookupTable;
use annkit::mutation::SnapshotTimeline;
use annkit::topk::{Neighbor, TopK};
use annkit::vector::{residual_into, Dataset};
use pim_sim::energy::EnergyModel;
use pim_sim::stats::StageBreakdown;

/// A platform's timing model: how long its hardware takes for the work a
/// [`FunctionalRun`] counted.
pub trait Roofline {
    /// The engine's display name ("Faiss-CPU", "Faiss-GPU").
    const NAME: &'static str;

    /// The platform's Table 1 row (its energy model is the engine's).
    fn hardware() -> HardwareSpec;

    /// The modeled seconds of each stage of `run`, a search of `index`, with
    /// per-candidate work projected by `work_scale`.
    fn stage_seconds(
        &self,
        index: &IvfPqIndex,
        run: &FunctionalRun,
        work_scale: f64,
    ) -> StageBreakdown;
}

/// The outcome of a functional pipeline execution.
#[derive(Debug, Clone)]
pub struct FunctionalRun {
    /// Per-query neighbor lists, closest first.
    pub results: Vec<Vec<Neighbor>>,
    /// Aggregated work counters.
    pub stats: WorkloadStats,
    /// Candidates scanned per query (used by the GPU top-k model, whose cost
    /// is per-query rather than aggregate).
    pub per_query_candidates: Vec<u64>,
}

/// Exact IVFPQ answers, timed by the roofline `R`.
///
/// Holds a [`SnapshotTimeline`] rather than a borrowed index: a frozen
/// timeline for the classic frozen-index case, or a live-mutation timeline
/// installed via [`AnnEngine::install_timeline`] — each request searches the
/// snapshot active at its dispatch time.
pub struct FaissEngine<R> {
    timeline: SnapshotTimeline,
    pub(crate) spec: R,
    /// Work-scale factor: the timing model treats every stored vector as
    /// representing this many vectors of the modeled (billion-scale) dataset.
    /// Functional results are always computed at actual scale; only the
    /// per-candidate work counts are multiplied.
    work_scale: f64,
}

impl<R: Roofline + Default> FaissEngine<R> {
    /// Creates an engine over a trained index with the paper's spec of `R`.
    pub fn new(index: &IvfPqIndex) -> Self {
        Self {
            timeline: SnapshotTimeline::frozen(index),
            spec: R::default(),
            work_scale: 1.0,
        }
    }
}

impl<R: Roofline> FaissEngine<R> {
    /// Sets the work-scale factor used to project reduced-scale runs to the
    /// modeled dataset size (1.0 = no projection).
    pub fn with_work_scale(mut self, scale: f64) -> Self {
        assert!(scale >= 1.0 && scale.is_finite(), "work scale must be >= 1");
        self.work_scale = scale;
        self
    }

    /// The snapshot this engine searches for requests at time 0 (the base
    /// index view when no timeline was installed).
    pub(crate) fn snapshot(&self) -> &IvfPqIndex {
        &self.timeline.entries()[0].1
    }

    /// One uniform sub-batch: functional IVFPQ search plus the roofline
    /// timing of the platform.
    fn run_uniform(
        &self,
        snapshot: &IvfPqIndex,
        queries: &Dataset,
        nprobe: usize,
        k: usize,
    ) -> SearchResponse {
        let run = run_ivfpq(snapshot, queries, nprobe, k);
        let breakdown = self.spec.stage_seconds(snapshot, &run, self.work_scale);
        SearchResponse {
            request_id: 0,
            results: run.results,
            seconds: breakdown.total(),
            breakdown,
            stats: run.stats,
        }
    }
}

impl<R: Roofline> AnnEngine for FaissEngine<R> {
    fn name(&self) -> &str {
        R::NAME
    }

    fn execute(&mut self, request: &SearchRequest) -> SearchResponse {
        let timeline = &self.timeline;
        execute_by_entry(timeline, request, |entry, sub| {
            let snapshot = &timeline.entries()[entry].1;
            execute_grouped(sub, |queries, nprobe, k| {
                self.run_uniform(snapshot, queries, nprobe, k)
            })
        })
    }

    fn energy_model(&self) -> EnergyModel {
        R::hardware().energy_model()
    }

    fn install_timeline(&mut self, timeline: SnapshotTimeline) -> bool {
        self.timeline = timeline;
        true
    }
}

/// Runs cluster filtering, LUT construction, ADC distance calculation and
/// top-k selection for every query, counting the work of each stage.
///
/// The counters are the algorithm's: a full `m × 256` LUT per (query,
/// probed list), which the rooflines charge at the modeled scale. The
/// functional build computes only the blocks the list's codes can read
/// ([`LookupTable::rebuild_masked`]), into one table, one residual and one
/// distance buffer reused across the batch; every distance is bitwise the
/// dense build's.
///
/// # Panics
/// Panics if `queries.dim() != index.dim()` or `k == 0`.
fn run_ivfpq(index: &IvfPqIndex, queries: &Dataset, nprobe: usize, k: usize) -> FunctionalRun {
    assert_eq!(queries.dim(), index.dim(), "query dimension mismatch");
    assert!(k > 0, "k must be positive");
    let m = index.m();
    let nprobe = nprobe.min(index.nlist()).max(1);

    let mut stats = WorkloadStats {
        queries: queries.len(),
        k,
        nprobe,
        ..WorkloadStats::default()
    };
    let mut results = Vec::with_capacity(queries.len());
    let mut per_query_candidates = Vec::with_capacity(queries.len());
    let mut lut = LookupTable::default();
    let mut res = Vec::with_capacity(index.dim());
    let mut distances = Vec::new();

    for q in queries.iter() {
        // Stage (a): cluster filtering.
        let probed = index.filter_clusters(q, nprobe);
        stats.centroid_comparisons += index.nlist() as u64;

        // Stages (b)+(c)+(d) per probed cluster.
        let mut topk = TopK::new(k);
        let mut candidates_this_query = 0u64;
        for &(cluster, _) in &probed {
            stats.luts_built += 1;
            stats.lut_entries += (m * 256) as u64;

            let list = index.list(cluster);
            candidates_this_query += list.len() as u64;
            stats.candidates_scanned += list.len() as u64;
            stats.lut_lookups += (list.len() * m) as u64;
            stats.code_bytes_read += (list.len() * m) as u64;
            // An empty list has no code to read a LUT entry.
            if list.is_empty() {
                continue;
            }
            residual_into(q, index.coarse().centroid(cluster), &mut res);
            lut.rebuild_masked(index.pq(), &res, list.code_blocks());
            lut.adc_scan_into(list.packed_codes(), &mut distances);
            for (&id, &d) in list.ids().iter().zip(&distances) {
                topk.push(id, d);
            }
        }
        stats.topk_candidates += topk.offered();
        stats.topk_insertions += topk.accepted();
        per_query_candidates.push(candidates_this_query);
        results.push(topk.into_sorted());
    }

    FunctionalRun {
        results,
        stats,
        per_query_candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CpuFaissEngine, CpuSpec};
    use crate::gpu::{GpuFaissEngine, GpuSpec};
    use annkit::ivf::IvfPqParams;
    use annkit::synthetic::SyntheticSpec;

    fn small_index() -> (IvfPqIndex, Dataset) {
        let data = SyntheticSpec::sift_like(1200)
            .with_clusters(8)
            .with_seed(3)
            .generate();
        let index = IvfPqIndex::train(&data, &IvfPqParams::new(8, 16).with_train_size(600), 1);
        (index, data)
    }

    #[test]
    fn matches_reference_search() {
        let (index, data) = small_index();
        let queries = data.gather(&[0, 100, 500]);
        let run = run_ivfpq(&index, &queries, 4, 10);
        let reference = index.search_batch(&queries, 4, 10);
        assert_eq!(run.results.len(), reference.len());
        for (a, b) in run.results.iter().zip(&reference) {
            let ids_a: Vec<u64> = a.iter().map(|n| n.id).collect();
            let ids_b: Vec<u64> = b.iter().map(|n| n.id).collect();
            assert_eq!(ids_a, ids_b);
        }
    }

    #[test]
    fn stats_are_consistent() {
        let (index, data) = small_index();
        let queries = data.gather(&[1, 2, 3, 4]);
        let run = run_ivfpq(&index, &queries, 3, 5);
        let s = &run.stats;
        assert_eq!(s.queries, 4);
        assert_eq!(s.nprobe, 3);
        assert_eq!(s.k, 5);
        assert_eq!(s.luts_built, 12);
        assert_eq!(s.lut_entries, 12 * 16 * 256);
        assert_eq!(s.lut_lookups, s.candidates_scanned * 16);
        assert_eq!(s.code_bytes_read, s.candidates_scanned * 16);
        assert_eq!(s.centroid_comparisons, 4 * 8);
        assert_eq!(
            run.per_query_candidates.iter().sum::<u64>(),
            s.candidates_scanned
        );
        assert!(s.topk_candidates >= s.topk_insertions);
    }

    #[test]
    fn nprobe_is_clamped_to_nlist() {
        let (index, data) = small_index();
        let queries = data.gather(&[7]);
        let run = run_ivfpq(&index, &queries, 100, 3);
        // nprobe clamped to 8: every list scanned, so every indexed vector is
        // a candidate.
        assert_eq!(run.stats.candidates_scanned, index.ntotal());
        assert_eq!(run.stats.nprobe, 8);
    }

    /// The name and the energy model are each roofline's Table 1 row, not
    /// something the engine states again.
    #[test]
    fn name_and_energy_model_come_from_the_roofline() {
        let (index, _) = small_index();
        let cpu = CpuFaissEngine::new(&index);
        let gpu = GpuFaissEngine::new(&index);
        assert_eq!(cpu.name(), CpuSpec::NAME);
        assert_eq!(gpu.name(), GpuSpec::NAME);
        assert_eq!(cpu.energy_model(), HardwareSpec::cpu().energy_model());
        assert_eq!(gpu.energy_model(), HardwareSpec::gpu().energy_model());
        assert_ne!(cpu.energy_model(), gpu.energy_model());
    }
}
