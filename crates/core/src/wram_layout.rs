//! Opt2 (memory half): planning the 64 KB WRAM with explicit buffer reuse.
//!
//! The DPU has no MMU, so UpANNS plans WRAM as three phases that reuse the
//! same physical space (Figure 6):
//!
//! 1. **LUT construction** — codebook staging buffers + the LUT being built.
//! 2. **Combination sums** — the LUT plus the cached partial sums; the
//!    codebook area is no longer needed and is released.
//! 3. **Distance calculation** — the LUT + combination sums + one MRAM read
//!    buffer and one top-k heap per tasklet (the codebook space is reused for
//!    the read buffers).
//!
//! The plan computes each phase's footprint and verifies that every phase
//! fits; a configuration that does not is rejected with the first phase
//! that overflows.

use pim_sim::config::WRAM_BYTES_PER_DPU;
use pim_sim::stats::Stage;

/// Byte sizes used by the planner. The codebook is staged at 1 B per
/// component (the uint8 representation the paper quotes: 32 KB for SIFT's
/// 128 × 256 table) and LUT / combination-sum entries at 2 B (`u16`
/// fixed-point, 8 KB at m = 16).
#[derive(Debug, Clone)]
pub struct WramPlanInput {
    /// Vector dimensionality.
    pub dim: usize,
    /// Number of PQ sub-quantizers.
    pub m: usize,
    /// Top-k size (per-tasklet heap capacity).
    pub k: usize,
    /// Number of cached combinations.
    pub num_combos: usize,
    /// Number of tasklets.
    pub tasklets: usize,
    /// Bytes per MRAM read buffer (one per tasklet).
    pub read_buffer_bytes: usize,
    /// WRAM capacity (64 KB on UPMEM hardware).
    pub wram_capacity: usize,
}

impl WramPlanInput {
    /// Creates an input with the hardware WRAM capacity.
    pub fn new(
        dim: usize,
        m: usize,
        k: usize,
        num_combos: usize,
        tasklets: usize,
        read_buffer_bytes: usize,
    ) -> Self {
        Self {
            dim,
            m,
            k,
            num_combos,
            tasklets,
            read_buffer_bytes,
            wram_capacity: WRAM_BYTES_PER_DPU,
        }
    }
}

/// The planned footprint of each phase, all of which must fit in WRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WramPlan {
    /// Codebook staging bytes (phase 1 only).
    pub codebook_bytes: usize,
    /// LUT bytes (all phases).
    pub lut_bytes: usize,
    /// Combination partial-sum bytes (phases 2–3).
    pub combo_bytes: usize,
    /// Per-tasklet MRAM read buffer bytes (phase 3).
    pub read_buffer_bytes: usize,
    /// Per-tasklet top-k heap bytes (phase 3).
    pub heap_bytes: usize,
    /// Number of tasklets planned for.
    pub tasklets: usize,
    /// Peak bytes of phase 1 (codebook + LUT).
    pub phase1_peak: usize,
    /// Peak bytes of phase 2 (LUT + combos).
    pub phase2_peak: usize,
    /// Peak bytes of phase 3 (LUT + combos + per-tasklet buffers).
    pub phase3_peak: usize,
}

/// Why a layout cannot be realized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WramPlanError {
    /// Which phase overflowed, named by the kernel region it backs.
    pub phase: Stage,
    /// Bytes that phase needs.
    pub required: usize,
    /// WRAM capacity.
    pub capacity: usize,
}

impl std::fmt::Display for WramPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WRAM plan overflow in {}: needs {} B of {} B",
            self.phase.label(),
            self.required,
            self.capacity
        )
    }
}

impl std::error::Error for WramPlanError {}

impl WramPlan {
    /// Plans the layout, verifying every phase fits.
    pub fn plan(input: &WramPlanInput) -> Result<Self, WramPlanError> {
        let codebook_bytes = input.dim * 256; // 1 B per component (uint8 staging)
        let lut_bytes = input.m * 256 * 2; // u16 entries
        let combo_bytes = input.num_combos * 2;
        let heap_bytes = input.k * 12; // (u64 id, f32 distance) per slot
        let per_tasklet = input.read_buffer_bytes + heap_bytes;

        let phase1_peak = codebook_bytes + lut_bytes;
        let phase2_peak = lut_bytes + combo_bytes;
        let phase3_peak = lut_bytes + combo_bytes + input.tasklets * per_tasklet;

        let check = |phase: Stage, required: usize| {
            if required > input.wram_capacity {
                Err(WramPlanError {
                    phase,
                    required,
                    capacity: input.wram_capacity,
                })
            } else {
                Ok(())
            }
        };
        check(Stage::LutConstruction, phase1_peak)?;
        check(Stage::ComboSum, phase2_peak)?;
        check(Stage::DistanceCalc, phase3_peak)?;

        Ok(Self {
            codebook_bytes,
            lut_bytes,
            combo_bytes,
            read_buffer_bytes: input.read_buffer_bytes,
            heap_bytes,
            tasklets: input.tasklets,
            phase1_peak,
            phase2_peak,
            phase3_peak,
        })
    }

    /// Peak footprint across all phases. Phase 3 holds everything phase 2
    /// does, so it is the larger of phases 1 and 3.
    pub(crate) fn peak(&self) -> usize {
        self.phase1_peak.max(self.phase3_peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SIFT-like configuration from Figure 6: 128-d, m = 16, k = 10,
    /// 256 combos, 11 tasklets, 256 B read buffers.
    fn sift_input() -> WramPlanInput {
        WramPlanInput::new(128, 16, 10, 256, 11, 256)
    }

    #[test]
    fn sift_configuration_fits_like_figure6() {
        let plan = WramPlan::plan(&sift_input()).unwrap();
        assert_eq!(plan.codebook_bytes, 32 * 1024); // 32 KB codebook
        assert_eq!(plan.lut_bytes, 8 * 1024); // 8 KB LUT
        assert!(plan.phase1_peak <= WRAM_BYTES_PER_DPU);
        assert!(plan.phase3_peak <= WRAM_BYTES_PER_DPU);
        assert!(plan.peak() <= WRAM_BYTES_PER_DPU);
    }

    #[test]
    fn too_many_tasklets_overflow_phase3() {
        let mut input = sift_input();
        input.read_buffer_bytes = 2048;
        input.tasklets = 24;
        input.k = 100;
        let err = WramPlan::plan(&input).unwrap_err();
        assert_eq!(err.phase, Stage::DistanceCalc);
        assert!(err.to_string().contains("distance_calc"));
        // A reduced tasklet count fits again.
        let fits = |tasklets| {
            WramPlan::plan(&WramPlanInput {
                tasklets,
                ..input.clone()
            })
            .is_ok()
        };
        let max = (1..=24).rev().find(|&t| fits(t));
        assert!(max.is_some_and(|t| (8..24).contains(&t)), "max {max:?}");
    }

    #[test]
    fn large_dimension_overflows_phase1() {
        // A 300-dimensional codebook at 1 B/component is 75 KB > 64 KB.
        let input = WramPlanInput::new(300, 20, 10, 0, 4, 64);
        let err = WramPlan::plan(&input).unwrap_err();
        assert_eq!(err.phase, Stage::LutConstruction);
    }

    #[test]
    fn spacev_configuration_fits() {
        // SPACEV-like: 100-d, m = 20.
        let input = WramPlanInput::new(100, 20, 10, 256, 11, 320);
        let plan = WramPlan::plan(&input).unwrap();
        assert_eq!(plan.lut_bytes, 20 * 256 * 2);
        assert!(plan.peak() <= WRAM_BYTES_PER_DPU);
    }
}
