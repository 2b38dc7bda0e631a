//! The Faiss-GPU-like baseline: functional IVFPQ with an NVIDIA A100 timing
//! model.
//!
//! The A100's 1.9 TB/s of HBM makes the distance-calculation stage very fast,
//! but the paper finds GPUs "stall during the low-parallelism top-k stage
//! (64 % of runtime)", growing to 76–89 % as `k` increases (Figure 19), due
//! to k-selection kernels with limited parallelism plus CUDA stream
//! synchronization. The model reproduces exactly that: distance calculation
//! is bandwidth-bound at HBM speed, top-k is throughput-limited per query and
//! carries a per-batch synchronization overhead that grows with `k`.
//!
//! The 80 GB device capacity is also modeled: `GpuFaissEngine::check_memory`
//! reports the out-of-memory condition that produces the blue "X" marks for
//! DEEP1B in Figure 12 (Faiss needs the raw float vectors resident for that
//! configuration, and 10⁹ × 96 × 4 B = 384 GB does not fit).

use crate::faiss::{FaissEngine, FunctionalRun, Roofline};
use crate::hardware::HardwareSpec;
use annkit::ivf::IvfPqIndex;
use pim_sim::stats::{Stage, StageBreakdown};

/// HBM bandwidth in bytes/s.
pub const HBM_BANDWIDTH: f64 = 1_935.0e9;
/// Peak f32 throughput in FLOPs/s.
pub const PEAK_FLOPS: f64 = 19.5e12;
/// Device memory in bytes.
pub const MEMORY_BYTES: u64 = 80 * 1024 * 1024 * 1024;
/// Fraction of peak HBM bandwidth achieved by the ADC scan kernel.
pub const SCAN_EFFICIENCY: f64 = 0.45;
/// Fraction of peak FLOPs achieved by the dense kernels.
pub const COMPUTE_EFFICIENCY: f64 = 0.35;
/// Effective candidate throughput (candidates/s) of the k-selection kernel
/// for a single query — deliberately low because the per-query selection
/// exposes little parallelism.
pub const TOPK_CANDIDATES_PER_SECOND: f64 = 1.32e9;
/// Number of queries whose k-selection can proceed concurrently.
pub const TOPK_CONCURRENT_QUERIES: f64 = 4.0;
/// Additional k-selection cost factor per unit of k (larger k ⇒ larger
/// selection structures ⇒ more synchronization).
pub const TOPK_K_PENALTY: f64 = 0.004;
/// CUDA stream synchronization / kernel launch overhead per batch stage.
pub const SYNC_OVERHEAD_S: f64 = 120e-6;

/// The GPU roofline: the constants above.
#[derive(Debug, Clone, Default)]
pub struct GpuSpec;

/// Why a configuration cannot run on the GPU.
#[derive(Debug, Clone, PartialEq)]
pub enum GpuMemoryCheck {
    /// The working set fits in device memory.
    Fits {
        /// Bytes required.
        required: u64,
    },
    /// The working set exceeds device memory — the run is marked OOM, as in
    /// Figure 12's DEEP1B columns.
    OutOfMemory {
        /// Bytes required.
        required: u64,
        /// Device capacity.
        capacity: u64,
    },
}

/// The Faiss-GPU-like engine: exact IVFPQ results, A100 timing.
pub type GpuFaissEngine = FaissEngine<GpuSpec>;

impl GpuFaissEngine {
    /// Device memory needed to host an index of `ntotal` vectors of `dim`
    /// dimensions compressed to `m` bytes. `store_raw_vectors` corresponds to
    /// Faiss GPU configurations that keep the float vectors resident (e.g.
    /// for re-ranking), which is what pushes DEEP1B past 80 GB in the paper.
    pub(crate) fn memory_required_bytes(
        ntotal: u64,
        dim: usize,
        m: usize,
        store_raw_vectors: bool,
    ) -> u64 {
        // Codes + ids + inverted-list overhead (~30 %).
        let compressed = ntotal * (m as u64 + 8);
        let overhead = compressed * 3 / 10;
        let raw = if store_raw_vectors {
            ntotal * dim as u64 * 4
        } else {
            0
        };
        compressed + overhead + raw
    }

    /// Checks whether a (possibly billion-scale, extrapolated) configuration
    /// fits in device memory.
    pub fn check_memory(&self, ntotal: u64, store_raw_vectors: bool) -> GpuMemoryCheck {
        let index = self.snapshot();
        let required =
            Self::memory_required_bytes(ntotal, index.dim(), index.m(), store_raw_vectors);
        if required <= MEMORY_BYTES {
            GpuMemoryCheck::Fits { required }
        } else {
            GpuMemoryCheck::OutOfMemory {
                required,
                capacity: MEMORY_BYTES,
            }
        }
    }
}

impl Roofline for GpuSpec {
    const NAME: &'static str = "Faiss-GPU";

    fn hardware() -> HardwareSpec {
        HardwareSpec::gpu()
    }

    fn stage_seconds(
        &self,
        index: &IvfPqIndex,
        run: &FunctionalRun,
        work_scale: f64,
    ) -> StageBreakdown {
        let stats = &run.stats;
        let dim = index.dim() as f64;
        let dsub = (index.dim() / index.m()) as f64;
        let mut b = StageBreakdown::new();

        let effective_flops = PEAK_FLOPS * COMPUTE_EFFICIENCY;

        // Stage (a): cluster filtering is a dense GEMM — trivially fast.
        let filter_flops = stats.centroid_comparisons as f64 * dim * 2.0;
        b.add(
            Stage::ClusterFiltering,
            filter_flops / effective_flops + SYNC_OVERHEAD_S,
        );

        // Stage (b): LUT construction.
        let lut_flops = stats.lut_entries as f64 * dsub * 3.0;
        b.add(
            Stage::LutConstruction,
            lut_flops / effective_flops + SYNC_OVERHEAD_S,
        );

        // Stage (c): ADC scan at HBM bandwidth. Per-candidate quantities are
        // projected by the work-scale factor.
        let scan_bytes = stats.code_bytes_read as f64 * work_scale;
        b.add(
            Stage::DistanceCalc,
            scan_bytes / (HBM_BANDWIDTH * SCAN_EFFICIENCY) + SYNC_OVERHEAD_S,
        );

        // Stage (d): k-selection — the GPU bottleneck. Per-query selection
        // time is candidates / throughput, scaled up with k, with limited
        // cross-query concurrency.
        let k_factor = 1.0 + TOPK_K_PENALTY * stats.k as f64;
        let per_query_total: f64 = run
            .per_query_candidates
            .iter()
            .map(|&c| c as f64 * work_scale / TOPK_CANDIDATES_PER_SECOND * k_factor)
            .sum();
        let topk_time = per_query_total / TOPK_CONCURRENT_QUERIES + SYNC_OVERHEAD_S;
        b.add(Stage::TopK, topk_time);

        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuFaissEngine;
    use crate::engine::AnnEngine;
    use annkit::ivf::{IvfPqIndex, IvfPqParams};
    use annkit::synthetic::SyntheticSpec;
    use annkit::vector::Dataset;

    /// Compile-time Send audit for the threaded runtime's worker threads
    /// (see `cpu_engine_is_send` for the rationale).
    #[test]
    fn gpu_engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<GpuFaissEngine>();
    }

    fn fixture() -> (IvfPqIndex, Dataset) {
        let data = SyntheticSpec::sift_like(2500)
            .with_clusters(16)
            .with_seed(21)
            .generate();
        let index = IvfPqIndex::train(&data, &IvfPqParams::new(16, 16).with_train_size(900), 9);
        (index, data)
    }

    #[test]
    fn topk_dominates_gpu_time() {
        let (index, data) = fixture();
        // Billion-scale projection so the Figure 19 stage shape is visible.
        let mut gpu = GpuFaissEngine::new(&index).with_work_scale(1e4);
        let queries = data.gather(&(0..100).collect::<Vec<_>>());
        let out = gpu.search_batch(&queries, 8, 10);
        // Figure 19: the top-k stage consumes well over half of GPU time.
        assert!(
            out.breakdown.fraction(Stage::TopK) > 0.6,
            "topk fraction {}",
            out.breakdown.fraction(Stage::TopK)
        );
        assert!(out.qps() > 0.0);
        assert_eq!(gpu.name(), "Faiss-GPU");
    }

    #[test]
    fn topk_fraction_grows_with_k() {
        let (index, data) = fixture();
        let mut gpu = GpuFaissEngine::new(&index);
        let queries = data.gather(&(0..50).collect::<Vec<_>>());
        let small_k = gpu.search_batch(&queries, 8, 10);
        let large_k = gpu.search_batch(&queries, 8, 100);
        assert!(
            large_k.breakdown.fraction(Stage::TopK) > small_k.breakdown.fraction(Stage::TopK),
            "expected top-k fraction to grow with k"
        );
        assert!(large_k.qps() < small_k.qps());
    }

    #[test]
    fn gpu_is_faster_than_cpu_on_the_same_workload() {
        let (index, data) = fixture();
        let queries = data.gather(&(0..50).collect::<Vec<_>>());
        let mut gpu = GpuFaissEngine::new(&index).with_work_scale(1e4);
        let mut cpu = CpuFaissEngine::new(&index).with_work_scale(1e4);
        let g = gpu.search_batch(&queries, 8, 10);
        let c = cpu.search_batch(&queries, 8, 10);
        assert!(g.qps() > c.qps(), "gpu {} vs cpu {}", g.qps(), c.qps());
        // And both return identical answers.
        for (a, b) in g.results.iter().zip(&c.results) {
            assert_eq!(
                a.iter().map(|n| n.id).collect::<Vec<_>>(),
                b.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn memory_check_reproduces_deep1b_oom() {
        let (index, _) = fixture();
        let gpu = GpuFaissEngine::new(&index);
        // SIFT1B without raw vectors fits comfortably.
        assert!(matches!(
            gpu.check_memory(1_000_000_000, false),
            GpuMemoryCheck::Fits { .. }
        ));
        // DEEP1B with resident raw float vectors (as in the paper's failing
        // configuration) needs hundreds of GB and goes OOM.
        let check = gpu.check_memory(1_000_000_000, true);
        match check {
            GpuMemoryCheck::OutOfMemory { required, capacity } => {
                assert!(required > capacity);
                assert!(required > 300 * 1024 * 1024 * 1024);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn energy_model_is_a100() {
        let (index, _) = fixture();
        let gpu = GpuFaissEngine::new(&index);
        assert_eq!(gpu.energy_model().peak_watts, 300.0);
        assert_eq!(MEMORY_BYTES, 80 * 1024 * 1024 * 1024);
    }
}
