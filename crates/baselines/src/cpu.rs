//! The Faiss-CPU-like baseline: functional IVFPQ with a dual-Xeon roofline
//! timing model.
//!
//! The paper's CPU platform is two Intel Xeon Silver 4110 (8 cores each,
//! 2.1 GHz, AVX-512-less Skylake-SP) with 85.3 GB/s of DRAM bandwidth
//! (Table 1). At billion scale the ADC distance-calculation stage streams
//! compressed codes from DRAM with an essentially random access pattern into
//! the per-cluster LUTs, so its throughput is a fraction of peak bandwidth —
//! this is the "CPUs become memory bandwidth-limited" observation the whole
//! paper is built on (Figure 19: distance calculation is ~99.5 % of CPU
//! time).
//!
//! The model always applies that billion-scale regime (working set ≫ LLC),
//! whatever the reduced dataset's actual size.

use crate::faiss::{FaissEngine, FunctionalRun, Roofline};
use crate::hardware::HardwareSpec;
use annkit::ivf::IvfPqIndex;
use pim_sim::stats::{Stage, StageBreakdown};

/// Total physical cores (2 × 8 on the paper's platform).
pub const CORES: usize = 16;
/// Core clock in Hz.
pub const FREQ_HZ: f64 = 2.1e9;
/// Sustained f32 FLOPs per cycle per core for the dense kernels (cluster
/// filtering / LUT construction are SIMD-friendly).
pub const FLOPS_PER_CYCLE: f64 = 16.0;
/// Peak DRAM bandwidth in bytes/s.
pub const DRAM_BANDWIDTH: f64 = 85.3e9;
/// Fraction of peak bandwidth achieved by the ADC code scan at billion scale
/// (random LUT accesses + short sequential code reads).
pub const SCAN_EFFICIENCY: f64 = 0.28;
/// Multi-thread scaling efficiency of the compute-bound stages.
pub const PARALLEL_EFFICIENCY: f64 = 0.75;
/// Cycles per LUT lookup + accumulate in the scan inner loop.
pub const CYCLES_PER_LOOKUP: f64 = 1.0;
/// Cycles per candidate offered to the top-k heap.
pub const CYCLES_PER_TOPK_CANDIDATE: f64 = 1.5;

/// Aggregate compute throughput in FLOPs/s for SIMD-friendly stages.
pub const COMPUTE_FLOPS: f64 = CORES as f64 * FREQ_HZ * FLOPS_PER_CYCLE * PARALLEL_EFFICIENCY;

/// Aggregate scalar-ish throughput in cycles/s for the scan and top-k inner
/// loops.
const SCALAR_CYCLES_PER_SECOND: f64 = CORES as f64 * FREQ_HZ * PARALLEL_EFFICIENCY;

/// The CPU roofline: the constants above.
#[derive(Debug, Clone, Default)]
pub struct CpuSpec;

/// The Faiss-CPU-like engine: exact IVFPQ results, dual-Xeon timing.
pub type CpuFaissEngine = FaissEngine<CpuSpec>;

impl Roofline for CpuSpec {
    const NAME: &'static str = "Faiss-CPU";

    fn hardware() -> HardwareSpec {
        HardwareSpec::cpu()
    }

    fn stage_seconds(&self, index: &IvfPqIndex, run: &FunctionalRun, scale: f64) -> StageBreakdown {
        let stats = &run.stats;
        let dim = index.dim() as f64;
        let dsub = (index.dim() / index.m()) as f64;
        let mut b = StageBreakdown::new();

        // Stage (a): cluster filtering — dense distance to all centroids.
        let filter_flops = stats.centroid_comparisons as f64 * dim * 2.0;
        let filter_bytes = stats.queries as f64 * index.nlist() as f64 * dim * 4.0;
        let t_filter = (filter_flops / COMPUTE_FLOPS).max(filter_bytes / DRAM_BANDWIDTH);
        b.add(Stage::ClusterFiltering, t_filter);

        // Stage (b): LUT construction — nprobe × m × 256 sub-distances/query.
        let lut_flops = stats.lut_entries as f64 * dsub * 3.0;
        b.add(Stage::LutConstruction, lut_flops / COMPUTE_FLOPS);

        // Stage (c): distance calculation — the memory-bound ADC scan.
        // Per-candidate quantities are projected by the work-scale factor.
        let t_mem = stats.code_bytes_read as f64 * scale / (DRAM_BANDWIDTH * SCAN_EFFICIENCY);
        let t_compute =
            stats.lut_lookups as f64 * scale * CYCLES_PER_LOOKUP / SCALAR_CYCLES_PER_SECOND;
        b.add(Stage::DistanceCalc, t_mem.max(t_compute));

        // Stage (d): top-k selection — cheap on the CPU (heap in L1).
        let t_topk = stats.topk_candidates as f64 * scale * CYCLES_PER_TOPK_CANDIDATE
            / SCALAR_CYCLES_PER_SECOND;
        b.add(Stage::TopK, t_topk);

        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnnEngine;
    use annkit::ivf::{IvfPqIndex, IvfPqParams};
    use annkit::synthetic::SyntheticSpec;
    use annkit::vector::Dataset;

    /// Compile-time Send audit: the threaded runtime (`upanns-runtime`)
    /// moves each engine worker into its own thread, so every engine must be
    /// `Send`. The engine owns its snapshot timeline (`Arc`s over plain
    /// data) plus owned scalars, so the bound holds structurally — this test
    /// pins it against future non-`Send` fields (`Rc`, `RefCell`, raw
    /// pointers).
    #[test]
    fn cpu_engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<CpuFaissEngine>();
    }

    fn engine_fixture() -> (IvfPqIndex, Dataset) {
        let data = SyntheticSpec::sift_like(2000)
            .with_clusters(16)
            .with_seed(11)
            .generate();
        let index = IvfPqIndex::train(&data, &IvfPqParams::new(16, 16).with_train_size(800), 5);
        (index, data)
    }

    #[test]
    fn distance_stage_dominates_at_billion_regime() {
        let (index, data) = engine_fixture();
        // Project the 2k-vector fixture to billion-scale per-query candidate
        // volumes so the stage shape of Figure 19 is visible.
        let mut engine = CpuFaissEngine::new(&index).with_work_scale(1e4);
        let queries = data.gather(&(0..50).collect::<Vec<_>>());
        let out = engine.search_batch(&queries, 8, 10);
        assert_eq!(out.batch_size(), 50);
        assert!(out.qps() > 0.0);
        // Figure 19: distance calculation is by far the largest CPU stage.
        let frac = out.breakdown.fraction(Stage::DistanceCalc);
        assert!(frac > 0.7, "distance_calc fraction {frac}");
        // Top-k is negligible on the CPU.
        assert!(out.breakdown.fraction(Stage::TopK) < 0.1);
    }

    #[test]
    fn results_match_reference_index_search() {
        let (index, data) = engine_fixture();
        let mut engine = CpuFaissEngine::new(&index);
        let queries = data.gather(&[3, 77, 1234]);
        let out = engine.search_batch(&queries, 4, 5);
        let reference = index.search_batch(&queries, 4, 5);
        for (a, b) in out.results.iter().zip(&reference) {
            assert_eq!(
                a.iter().map(|n| n.id).collect::<Vec<_>>(),
                b.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
        assert_eq!(engine.name(), "Faiss-CPU");
        assert_eq!(engine.energy_model().peak_watts, 190.0);
    }

    #[test]
    fn more_probes_cost_more_time() {
        let (index, data) = engine_fixture();
        let mut engine = CpuFaissEngine::new(&index);
        let queries = data.gather(&(0..20).collect::<Vec<_>>());
        let narrow = engine.search_batch(&queries, 2, 10);
        let wide = engine.search_batch(&queries, 12, 10);
        assert!(wide.seconds > narrow.seconds);
        assert!(wide.qps() < narrow.qps());
        assert!(wide.stats.candidates_scanned > narrow.stats.candidates_scanned);
    }
}
