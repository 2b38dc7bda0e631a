//! Configuration of the simulated UPMEM system.
//!
//! The constants follow the hardware used in the paper's evaluation
//! (Table 1 and §2.2): 7 DIMMs × 128 DPUs = 896 DPUs, 350 MHz cores,
//! 64 MB MRAM / 64 KB WRAM / 24 KB IRAM per DPU, 23.22 W peak power per DIMM.

/// Number of DPUs on a single UPMEM DIMM (16 PIM chips × 8 DPUs).
pub(crate) const DPUS_PER_DIMM: usize = 128;

/// MRAM capacity per DPU (64 MB).
pub(crate) const MRAM_BYTES_PER_DPU: usize = 64 * 1024 * 1024;

/// WRAM capacity per DPU (64 KB).
pub const WRAM_BYTES_PER_DPU: usize = 64 * 1024;

/// Maximum number of hardware threads (tasklets) per DPU.
pub const MAX_TASKLETS: usize = 24;

/// MRAM↔WRAM DMA transfer size constraints: multiples of 8 bytes, at least 8
/// and at most 2048 bytes per transfer (§4.2.1).
pub(crate) const DMA_MIN_BYTES: usize = 8;
/// Maximum DMA transfer size.
pub const DMA_MAX_BYTES: usize = 2048;
/// DMA transfer granularity.
pub(crate) const DMA_ALIGN_BYTES: usize = 8;

/// DPU core clock in Hz (350 MHz on current UPMEM silicon).
pub const CLOCK_HZ: f64 = 350e6;

/// Seconds per DPU clock cycle.
pub const SECONDS_PER_CYCLE: f64 = 1.0 / CLOCK_HZ;

/// Peak power draw per DIMM in watts (Falevoz & Legriel measure 23.22 W).
pub const WATTS_PER_DIMM: f64 = 23.22;

// Published UPMEM host-transfer characteristics (PrIM): parallel rank-level
// copies reach a few GB/s, serialized copies are ~10x slower.

/// Aggregate host→DPU copy bandwidth (bytes/s) when every DPU receives a
/// buffer of identical size (rank-parallel transfer).
pub const HOST_PUSH_BW_UNIFORM: f64 = 6.0e9;
/// Aggregate host→DPU copy bandwidth (bytes/s) when buffer sizes differ and
/// transfers serialize.
pub const HOST_PUSH_BW_SERIAL: f64 = 0.6e9;
/// Aggregate DPU→host copy bandwidth (bytes/s) for uniform buffers.
pub const HOST_PULL_BW_UNIFORM: f64 = 4.7e9;
/// Aggregate DPU→host copy bandwidth (bytes/s) for non-uniform buffers.
pub const HOST_PULL_BW_SERIAL: f64 = 0.5e9;

/// Fixed per-launch overhead in seconds (kernel boot / host API cost).
pub const LAUNCH_OVERHEAD_S: f64 = 20e-6;

/// Approximate hardware price per DIMM in USD (Table 1: 2,800 USD for 7
/// DIMMs), for cost-efficiency comparisons.
pub const USD_PER_DIMM: f64 = 400.0;

/// The sizes of a simulated PIM deployment — all a caller varies; the
/// hardware's speeds, power and price are this module's constants.
#[derive(Debug, Clone)]
pub struct PimConfig {
    /// Total number of DPUs in the system.
    pub num_dpus: usize,
    /// MRAM capacity per DPU in bytes.
    pub mram_bytes: usize,
    /// WRAM capacity per DPU in bytes.
    pub wram_bytes: usize,
}

impl PimConfig {
    /// The paper's evaluation platform: 7 DIMMs = 896 DPUs.
    pub fn paper_seven_dimms() -> Self {
        Self::with_dpus(7 * DPUS_PER_DIMM)
    }

    /// A system with an arbitrary number of DPUs (used by the Figure 20
    /// scalability sweep, 500–2560 DPUs).
    pub fn with_dpus(num_dpus: usize) -> Self {
        assert!(num_dpus > 0, "a PIM system needs at least one DPU");
        Self {
            num_dpus,
            mram_bytes: MRAM_BYTES_PER_DPU,
            wram_bytes: WRAM_BYTES_PER_DPU,
        }
    }

    /// A deliberately tiny configuration for unit tests: 4 DPUs with 1 MB of
    /// MRAM each, so capacity-violation paths are easy to exercise.
    pub fn small_test() -> Self {
        let mut c = Self::with_dpus(4);
        c.mram_bytes = 1024 * 1024;
        c
    }

    /// Number of DIMMs (rounded up) represented by this configuration.
    pub fn num_dimms(&self) -> usize {
        self.num_dpus.div_ceil(DPUS_PER_DIMM)
    }

    /// Total peak power of the PIM system in watts.
    pub fn peak_watts(&self) -> f64 {
        // Power scales with the *fraction* of DPUs actually populated, so the
        // Figure 20 iso-power comparison (1654 DPUs ≈ 300 W) works out.
        self.num_dpus as f64 / DPUS_PER_DIMM as f64 * WATTS_PER_DIMM
    }

    /// Approximate price of the PIM system in USD.
    pub fn price_usd(&self) -> f64 {
        self.num_dimms() as f64 * USD_PER_DIMM
    }

    /// Total MRAM capacity across all DPUs in bytes — the dataset must fit
    /// here (56 GB for the paper's 7 DIMMs).
    pub fn total_mram_bytes(&self) -> usize {
        self.num_dpus * self.mram_bytes
    }
}

impl Default for PimConfig {
    fn default() -> Self {
        Self::paper_seven_dimms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = PimConfig::paper_seven_dimms();
        assert_eq!(c.num_dpus, 896);
        assert_eq!(c.num_dimms(), 7);
        // 7 DIMMs × 23.22 W ≈ 162 W (Table 1).
        assert!((c.peak_watts() - 162.54).abs() < 1.0);
        // 56 GB total MRAM (Table 1).
        assert_eq!(c.total_mram_bytes(), 7 * 128 * 64 * 1024 * 1024);
        assert!(c.price_usd() <= 2800.0 + 1e-9);
    }

    #[test]
    fn scaling_preserves_other_fields() {
        let c = PimConfig::with_dpus(2560);
        assert_eq!(c.num_dpus, 2560);
        assert_eq!(c.num_dimms(), 20);
        assert_eq!(c.mram_bytes, MRAM_BYTES_PER_DPU);
        assert_eq!(c.wram_bytes, WRAM_BYTES_PER_DPU);
        // 20 DIMMs ≈ 464 W; the iso-power point with an A100 (300 W) is
        // therefore below 2560 DPUs, as in Figure 20.
        assert!(c.peak_watts() > 300.0);
        let iso = PimConfig::with_dpus(1654);
        assert!((iso.peak_watts() - 300.0).abs() < 10.0);
    }

    #[test]
    fn seconds_per_cycle_is_consistent() {
        assert!((SECONDS_PER_CYCLE * CLOCK_HZ - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one DPU")]
    fn zero_dpus_rejected() {
        let _ = PimConfig::with_dpus(0);
    }
}
