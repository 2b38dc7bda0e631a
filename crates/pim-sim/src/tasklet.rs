//! The per-DPU kernel context, [`DpuKernelCtx`]: one launch on one DPU.
//!
//! A kernel is a Rust closure invoked once per DPU. It computes on the host,
//! reads MRAM uncharged ([`DpuKernelCtx::mram_read`] only checks that the
//! bytes are resident), and says what its work cost by closing each
//! *parallel region* with what each tasklet spent in it
//! ([`DpuKernelCtx::close_region`]). A region ends with a barrier (the
//! paper's Barriers 0–3); its cycles are added to the DPU's counters and
//! its seconds to the stage the kernel names. WRAM is not allocated here —
//! a kernel plans its layout and reports the peak
//! ([`DpuKernelCtx::record_wram_peak`]).

use crate::config::{PimConfig, MAX_TASKLETS, SECONDS_PER_CYCLE};
use crate::cost::{region_compute_cycles, Dma, TaskletCost, BARRIER_CYCLES_PER_TASKLET};
use crate::dpu::{Dpu, DpuStats};
use crate::mram::{MramAddr, MramError};
use crate::stats::{Stage, StageBreakdown};

/// Per-DPU kernel context: uncharged MRAM reads, charged MRAM writes, the
/// WRAM peak and the regions of one launch on one DPU.
pub struct DpuKernelCtx<'a> {
    dpu: &'a mut Dpu,
    config: &'a PimConfig,
    /// Seconds per stage of the regions closed so far, added in region order.
    breakdown: StageBreakdown,
    launch_stats: DpuStats,
    /// The MRAM region the last read fell in.
    window: usize,
}

impl<'a> DpuKernelCtx<'a> {
    pub(crate) fn new(dpu: &'a mut Dpu, config: &'a PimConfig) -> Self {
        Self {
            dpu,
            config,
            breakdown: StageBreakdown::new(),
            launch_stats: DpuStats::default(),
            window: 0,
        }
    }

    /// The id of the DPU this kernel instance runs on.
    #[inline]
    pub fn dpu_id(&self) -> usize {
        self.dpu.id()
    }

    /// The system configuration (for capacity-aware kernels).
    #[inline]
    pub fn config(&self) -> &PimConfig {
        self.config
    }

    /// Records that the kernel's WRAM layout occupies `bytes` at its fullest
    /// moment. The DPU has no MMU, so a kernel plans its buffer reuse ahead
    /// of the launch (Figure 6) and reports the plan's peak here; the
    /// largest one reported is the launch's `DpuStats::wram_peak_bytes`.
    ///
    /// # Panics
    /// Panics if `bytes` exceeds [`PimConfig::wram_bytes`] — a layout that
    /// does not fit is a kernel bug, exactly as it would be on hardware.
    pub fn record_wram_peak(&mut self, bytes: usize) {
        assert!(
            bytes <= self.config.wram_bytes,
            "DPU {}: WRAM layout of {bytes} B exceeds the {} B capacity",
            self.dpu.id(),
            self.config.wram_bytes
        );
        self.launch_stats.wram_peak_bytes = self.launch_stats.wram_peak_bytes.max(bytes);
    }

    /// Reads `len` bytes of this DPU's MRAM at `addr`, charging nothing:
    /// the kernel charges its transfers in the regions it closes. The slice
    /// borrows the MRAM, standing for a WRAM buffer without a host copy.
    ///
    /// # Panics
    /// Panics if the bytes are not resident (out of bounds, or across an
    /// allocation boundary) — a kernel bug, exactly as on hardware.
    pub fn mram_read(&mut self, addr: MramAddr, len: usize) -> &[u8] {
        let id = self.dpu.id();
        self.dpu
            .mram()
            .read_near(&mut self.window, addr, len)
            .unwrap_or_else(|e| panic!("DPU {id} MRAM read failed: {e}"))
    }

    /// Closes a parallel region charged to `stage` in which tasklet `t`
    /// spent `tasklets[t]`. It lasts the longer of its compute (the
    /// multithreading model of `cost::region_compute_cycles`) and its DMA
    /// (serialized on the one engine, overlapping other tasklets' compute),
    /// plus the barrier that ends it.
    ///
    /// # Panics
    /// Panics if the region has no tasklet or more than the hardware's 24.
    pub fn close_region(&mut self, stage: Stage, tasklets: &[TaskletCost]) {
        assert!(
            (1..=MAX_TASKLETS).contains(&tasklets.len()),
            "tasklet count {} outside 1..=24",
            tasklets.len()
        );
        let compute = tasklets.iter().map(|t| t.compute);
        let dma = tasklets.iter().fold(Dma::default(), |dma, t| dma + t.dma);
        let barrier = BARRIER_CYCLES_PER_TASKLET * tasklets.len() as u64;
        let region_cycles = region_compute_cycles(compute.clone()).max(dma.cycles) + barrier;

        self.launch_stats.compute_cycles += compute.sum::<u64>();
        self.launch_stats.dma_cycles += dma.cycles;
        self.launch_stats.dma_transfers += dma.transfers;
        self.launch_stats.mram_bytes_read += dma.bytes;
        self.end_region(stage, region_cycles);
    }

    /// Writes `bytes` to this DPU's MRAM at `addr`, charging its DMA as a
    /// region of its own.
    pub fn mram_write(
        &mut self,
        stage: Stage,
        addr: MramAddr,
        bytes: &[u8],
    ) -> Result<(), MramError> {
        self.dpu.mram_mut().write(addr, bytes)?;
        let dma = Dma::of(bytes.len() as u64);
        self.launch_stats.dma_cycles += dma.cycles;
        self.launch_stats.dma_transfers += dma.transfers;
        self.launch_stats.mram_bytes_written += bytes.len() as u64;
        self.end_region(stage, dma.cycles);
        Ok(())
    }

    /// Closes a region of `region_cycles` charged to `stage`.
    fn end_region(&mut self, stage: Stage, region_cycles: u64) {
        self.launch_stats.cycles += region_cycles;
        let seconds = region_cycles as f64 * SECONDS_PER_CYCLE;
        self.breakdown.add(stage, seconds);
    }

    /// Finalizes the launch: its counters and its seconds per stage, for the
    /// host to absorb.
    pub(crate) fn finish(self) -> (DpuStats, StageBreakdown) {
        (self.launch_stats, self.breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PimConfig;
    use crate::cost::{ALU_CYCLES, SEMAPHORE_CYCLES};

    fn setup() -> (Dpu, PimConfig) {
        let config = PimConfig::small_test();
        let mut dpu = Dpu::new(0, config.mram_bytes);
        let addr = dpu.mram_mut().alloc(4096).unwrap();
        assert_eq!(addr, 0);
        dpu.mram_mut().write(addr, &[42u8; 4096]).unwrap();
        (dpu, config)
    }

    /// `tasklets` tasklets that each issue `adds` additions and no DMA.
    fn adds(tasklets: usize, adds: u64) -> Vec<TaskletCost> {
        let cost = TaskletCost {
            compute: adds * ALU_CYCLES,
            ..TaskletCost::default()
        };
        vec![cost; tasklets]
    }

    #[test]
    fn parallel_region_charges_and_returns_results() {
        let (mut dpu, config) = setup();
        let mut ctx = DpuKernelCtx::new(&mut dpu, &config);
        let mut results = Vec::new();
        let mut costs = Vec::new();
        for t in 0..4 {
            let data = ctx.mram_read(t * 64, 64);
            results.push(data.iter().map(|&b| b as u64).sum::<u64>());
            costs.push(TaskletCost {
                compute: data.len() as u64 * ALU_CYCLES,
                dma: Dma::of(data.len() as u64),
            });
        }
        ctx.close_region(Stage::DistanceCalc, &costs);
        assert_eq!(results, vec![42 * 64; 4]);
        let (stats, breakdown) = ctx.finish();
        let cycles = stats.cycles;
        assert_eq!(
            stats.launches, 0,
            "the host counts launches, not the kernel"
        );
        assert_eq!(stats.compute_cycles, 4 * 64);
        assert!(stats.dma_cycles > 0);
        assert!(cycles >= stats.compute_cycles.max(stats.dma_cycles));
        assert_eq!(stats.mram_bytes_read, 4 * 64);
        let seconds = cycles as f64 * SECONDS_PER_CYCLE;
        assert_eq!(
            breakdown.entries(),
            [("distance_calc".to_string(), seconds)]
        );
    }

    #[test]
    fn more_tasklets_reduce_region_time_until_11() {
        let (mut dpu, config) = setup();
        // Same total work split across different tasklet counts.
        let work_per_region = 11_000u64;
        let mut region_time = |tasklets: usize| {
            let mut ctx = DpuKernelCtx::new(&mut dpu, &config);
            ctx.close_region(
                Stage::DistanceCalc,
                &adds(tasklets, work_per_region / tasklets as u64),
            );
            ctx.finish().0.cycles
        };
        let t1 = region_time(1);
        let t8 = region_time(8);
        let t11 = region_time(11);
        let t24 = region_time(24);
        assert!(t1 > 7 * t8 / 8, "t1={t1} t8={t8}");
        assert!(t1 as f64 / t11 as f64 > 9.0);
        assert!((t24 as f64 - t11 as f64).abs() / (t11 as f64) < 0.2);
    }

    #[test]
    fn sequential_region_and_mram_write() {
        let (mut dpu, config) = setup();
        let mut ctx = DpuKernelCtx::new(&mut dpu, &config);
        let merge = TaskletCost {
            compute: 10 * ALU_CYCLES + SEMAPHORE_CYCLES,
            ..TaskletCost::default()
        };
        ctx.close_region(Stage::TopK, &[merge]);
        ctx.mram_write(Stage::ResultWrite, 0, &[7u8; 16]).unwrap();
        let (stats, _) = ctx.finish();
        assert!(stats.cycles > 0);
        assert_eq!(stats.mram_bytes_written, 16);
        assert_eq!(dpu.mram().read(0, 4).unwrap(), &[7, 7, 7, 7]);
    }

    #[test]
    fn wram_capacity_is_visible_to_kernels() {
        let (mut dpu, config) = setup();
        let mut ctx = DpuKernelCtx::new(&mut dpu, &config);
        ctx.record_wram_peak(8 * 1024);
        ctx.record_wram_peak(config.wram_bytes);
        ctx.record_wram_peak(32 * 1024);
        let (stats, _) = ctx.finish();
        assert_eq!(stats.wram_peak_bytes, config.wram_bytes);
    }

    #[test]
    #[should_panic(expected = "exceeds the 65536 B capacity")]
    fn a_wram_peak_beyond_the_capacity_panics() {
        let (mut dpu, config) = setup();
        let mut ctx = DpuKernelCtx::new(&mut dpu, &config);
        ctx.record_wram_peak(config.wram_bytes + 1);
    }

    #[test]
    #[should_panic(expected = "outside 1..=24")]
    fn too_many_tasklets_panics() {
        let (mut dpu, config) = setup();
        let mut ctx = DpuKernelCtx::new(&mut dpu, &config);
        ctx.close_region(Stage::DistanceCalc, &adds(25, 0));
    }

    #[test]
    #[should_panic(expected = "MRAM read failed")]
    fn out_of_bounds_read_panics_like_hardware_fault() {
        let (mut dpu, config) = setup();
        let mut ctx = DpuKernelCtx::new(&mut dpu, &config);
        let _ = ctx.mram_read(1 << 20, 64);
    }
}
