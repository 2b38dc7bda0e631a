//! The DPU cycle cost model: the cycle cost of each operation a kernel can
//! charge, as constants, the rules that combine them, and [`TaskletCost`],
//! what one tasklet spends in one region.
//!
//! Calibration sources: the UPMEM user manual and the PrIM characterization
//! (Gómez-Luna et al., IEEE Access 2022), which the paper itself cites for
//! its bandwidth and latency numbers.

use crate::config::{DMA_ALIGN_BYTES, DMA_MAX_BYTES, DMA_MIN_BYTES};

/// Pipeline revisit interval: an instruction of a given tasklet can enter the
/// 14-stage pipeline at most once every this many cycles, because only the
/// last three stages overlap with the first two of the next instruction of
/// the *same* thread. With ≥ 11 active tasklets the pipeline is fully busy —
/// which is exactly why the paper finds QPS saturating at 11 tasklets
/// (Figure 13, §5.3.2).
pub const REVISIT_INTERVAL: u64 = 11;

/// Cost of a simple ALU instruction (add/sub/compare/branch) in cycles.
pub const ALU_CYCLES: u64 = 1;
/// Cost of an integer multiplication. The DPU has no 32-bit hardware
/// multiplier; a `mul` compiles to a shift/add loop of roughly this many
/// cycles, which is why UpANNS's PIM-friendly encoding replaces
/// `idx * 256 + code` with precomputed direct addresses (§4.3).
pub const MUL_CYCLES: u64 = 32;
/// Cost of a WRAM load or store (single-cycle scratchpad).
pub const WRAM_ACCESS_CYCLES: u64 = 1;
/// Fixed setup latency α of an MRAM↔WRAM DMA transfer in cycles (PrIM).
pub const DMA_BASE_CYCLES: u64 = 77;
/// DMA cycles β per transferred byte (PrIM).
pub const DMA_CYCLES_PER_BYTE: f64 = 0.5;
/// Cycles charged per tasklet for a barrier crossing.
pub const BARRIER_CYCLES_PER_TASKLET: u64 = 32;
/// Cycles charged for a semaphore take/give pair.
pub const SEMAPHORE_CYCLES: u64 = 16;

/// Latency in cycles of a single MRAM↔WRAM DMA transfer of `bytes` (after
/// alignment): PrIM's `α + β·size`. On the log-size axis of the paper's
/// Figure 7 that is its shape — the fixed α dominates up to a few hundred
/// bytes, so latency "increases slowly as data size grows from 8 B to 256 B
/// and increases almost linearly beyond 256 B" — and the bandwidth it
/// implies never falls as transfers grow.
pub fn mram_transfer_cycles(bytes: usize) -> u64 {
    DMA_BASE_CYCLES + (align_dma(bytes) as f64 * DMA_CYCLES_PER_BYTE).ceil() as u64
}

/// DMA work: cycles on the DPU's one DMA engine, the hardware transfers
/// issued and the bytes they move.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dma {
    /// Cycles the transfers occupy the DMA engine.
    pub cycles: u64,
    /// Hardware transfers issued.
    pub transfers: u64,
    /// Bytes moved, each transfer at its aligned size.
    pub bytes: u64,
}

impl Dma {
    /// One logical transfer of `len` bytes, split into ≤ 2 KB hardware
    /// transfers that [`mram_transfer_cycles`] prices. Every DMA the model
    /// charges is built here.
    pub fn of(len: u64) -> Self {
        split_dma(len as usize).fold(Self::default(), |dma, chunk| Self {
            cycles: dma.cycles + mram_transfer_cycles(chunk),
            transfers: dma.transfers + 1,
            bytes: dma.bytes + chunk as u64,
        })
    }

    /// `times` repetitions of this DMA.
    pub fn times(self, times: u64) -> Self {
        Self {
            cycles: self.cycles * times,
            transfers: self.transfers * times,
            bytes: self.bytes * times,
        }
    }
}

impl std::ops::Add for Dma {
    type Output = Self;

    fn add(self, other: Self) -> Self {
        Self {
            cycles: self.cycles + other.cycles,
            transfers: self.transfers + other.transfers,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// What one tasklet spends in one parallel region: the instruction cycles
/// it issues and the DMA it waits for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskletCost {
    /// Issued instruction cycles (ALU, multiply, WRAM and semaphore costs).
    pub compute: u64,
    /// Its MRAM↔WRAM transfers.
    pub dma: Dma,
}

/// Per-DPU region time in cycles given the per-tasklet issued instruction
/// cycles of one parallel region.
///
/// The fine-grained multithreading model: the DPU issues at most one
/// instruction per cycle overall, and each tasklet can issue at most once per
/// [`REVISIT_INTERVAL`] cycles. Hence
/// `time ≈ max(Σᵢ cᵢ, REVISIT_INTERVAL · maxᵢ cᵢ)`: balanced work across
/// ≥ 11 tasklets keeps the pipeline full, fewer (or imbalanced) tasklets
/// leave bubbles.
pub(crate) fn region_compute_cycles(per_tasklet_cycles: impl IntoIterator<Item = u64>) -> u64 {
    let (total, max) = per_tasklet_cycles
        .into_iter()
        .fold((0, 0), |(total, max): (u64, u64), cycles| {
            (total + cycles, max.max(cycles))
        });
    total.max(max.saturating_mul(REVISIT_INTERVAL))
}

/// Rounds a DMA transfer size up to the hardware granularity and clamps it to
/// the legal `[8, 2048]` byte range.
fn align_dma(bytes: usize) -> usize {
    let aligned = bytes.max(DMA_MIN_BYTES).div_ceil(DMA_ALIGN_BYTES) * DMA_ALIGN_BYTES;
    aligned.min(DMA_MAX_BYTES)
}

/// Splits a logical transfer of `bytes` into the sequence of hardware DMA
/// transfers needed (each ≤ 2048 B), yielding their sizes: full 2 KB
/// transfers first, then the aligned remainder.
fn split_dma(bytes: usize) -> impl Iterator<Item = usize> {
    let full = bytes / DMA_MAX_BYTES;
    let tail = bytes % DMA_MAX_BYTES;
    std::iter::repeat_n(DMA_MAX_BYTES, full).chain((tail > 0).then(|| align_dma(tail)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_is_alpha_plus_beta_times_size() {
        // α = 77 cycles, β = 0.5 cycles/B, at the aligned size.
        assert_eq!(mram_transfer_cycles(8), 81);
        assert_eq!(mram_transfer_cycles(256), 205);
        assert_eq!(mram_transfer_cycles(2048), 1_101);
        assert_eq!(mram_transfer_cycles(1), mram_transfer_cycles(8));
        assert_eq!(mram_transfer_cycles(9), 77 + 8);
    }

    #[test]
    fn bandwidth_improves_with_larger_transfers() {
        let bytes_per_cycle = |bytes: usize| bytes as f64 / mram_transfer_cycles(bytes) as f64;
        assert!(bytes_per_cycle(1024) > 3.0 * bytes_per_cycle(16));
    }

    #[test]
    fn region_model_saturates_at_revisit_interval() {
        // 1000 total cycles of work split evenly across T tasklets.
        let total = 1_000u64;
        let time = |t: usize| region_compute_cycles(vec![total / t as u64; t]);
        // Speedup is linear-ish up to 11 tasklets...
        let t1 = time(1);
        let t4 = time(4);
        let t11 = time(11);
        let t16 = time(16);
        let t24 = time(24);
        assert!(t1 as f64 / t4 as f64 > 3.5);
        assert!(t1 as f64 / t11 as f64 > 9.0);
        // ...and saturates beyond 11.
        assert!((t16 as f64 - t11 as f64).abs() / (t11 as f64) < 0.15);
        assert!((t24 as f64 - t11 as f64).abs() / (t11 as f64) < 0.15);
    }

    #[test]
    fn imbalanced_regions_are_bounded_by_slowest_tasklet() {
        let balanced = region_compute_cycles([100, 100, 100, 100]);
        let imbalanced = region_compute_cycles([370, 10, 10, 10]);
        assert!(imbalanced > balanced);
        assert_eq!(imbalanced, 370 * REVISIT_INTERVAL);
    }

    #[test]
    fn dma_alignment_and_splitting() {
        assert_eq!(align_dma(1), 8);
        assert_eq!(align_dma(8), 8);
        assert_eq!(align_dma(9), 16);
        assert_eq!(align_dma(5000), 2048);
        let split = |bytes| split_dma(bytes).collect::<Vec<usize>>();
        assert_eq!(split(0), Vec::<usize>::new());
        assert_eq!(split(100), vec![104]);
        assert_eq!(split(2048), vec![2048]);
        assert_eq!(split(4096), vec![2048, 2048]);
        assert_eq!(split(5000), vec![2048, 2048, 904]);
        let dma = Dma::of(5000);
        assert_eq!((dma.transfers, dma.bytes), (3, 2048 + 2048 + 904));
        assert_eq!(
            dma.cycles,
            2 * mram_transfer_cycles(2048) + mram_transfer_cycles(904)
        );
        assert_eq!(
            Dma::of(100).times(3),
            Dma::of(100) + Dma::of(100) + Dma::of(100)
        );
        assert_eq!(Dma::of(0), Dma::default());
    }

    #[test]
    fn empty_region_is_free() {
        assert_eq!(region_compute_cycles([]), 0);
    }
}
