//! Kernel execution contexts: per-DPU ([`DpuKernelCtx`]) and per-tasklet
//! ([`TaskletCtx`]).
//!
//! A kernel is a Rust closure invoked once per DPU. Inside it, the kernel
//! opens *parallel regions*: a region runs the same closure for each tasklet
//! id, each tasklet accumulates the instruction and DMA cycles it charges,
//! and the region's simulated duration follows the fine-grained
//! multithreading model of `cost::region_compute_cycles`. Regions end
//! with an implicit barrier (the paper's Barriers 0–3 are simply region
//! boundaries), and DMA transfers from all tasklets serialize on the DPU's
//! single DMA engine while overlapping with other tasklets' compute.
//!
//! What a launch keeps of a region is what a launch reports: its cycles,
//! added to the DPU's counters, and its seconds, added to the stage the
//! kernel names. WRAM is not allocated here — a kernel plans its layout and
//! reports the peak ([`DpuKernelCtx::record_wram_peak`]).

use crate::config::{PimConfig, SECONDS_PER_CYCLE};
use crate::cost::{
    mram_transfer_cycles, region_compute_cycles, split_dma, ALU_CYCLES, BARRIER_CYCLES_PER_TASKLET,
    MUL_CYCLES, SEMAPHORE_CYCLES, WRAM_ACCESS_CYCLES,
};
use crate::dpu::{Dpu, DpuStats};
use crate::mram::{Mram, MramAddr, MramError};
use crate::stats::{Stage, StageBreakdown};

/// Per-tasklet execution context: charges cycles and performs functional
/// MRAM reads.
pub struct TaskletCtx<'a> {
    /// The tasklet's id within its parallel region (0-based).
    pub tasklet_id: usize,
    mram: &'a Mram,
    /// The region the last read fell in (base address, bytes): a read inside
    /// it slices it without searching the MRAM's regions again.
    window: (MramAddr, &'a [u8]),
    compute_cycles: u64,
    dma_cycles: u64,
    dma_transfers: u64,
    mram_bytes_read: u64,
}

impl<'a> TaskletCtx<'a> {
    fn new(tasklet_id: usize, mram: &'a Mram, window: (MramAddr, &'a [u8])) -> Self {
        Self {
            tasklet_id,
            mram,
            window,
            compute_cycles: 0,
            dma_cycles: 0,
            dma_transfers: 0,
            mram_bytes_read: 0,
        }
    }

    /// Reads `len` bytes from MRAM at `addr`, charging DMA latency (split
    /// into ≤ 2 KB hardware transfers). The returned slice borrows the MRAM
    /// itself — it stands for the tasklet's WRAM buffer without a host-side
    /// copy, and MRAM cannot change while a region runs.
    ///
    /// # Panics
    /// Panics if the read is out of bounds — that is a kernel bug, exactly as
    /// it would be on hardware.
    pub fn mram_read(&mut self, addr: MramAddr, len: usize) -> &'a [u8] {
        let bytes = self.mram_read_uncharged(addr, len);
        self.charge_dma(len);
        bytes
    }

    /// Reads `len` bytes from MRAM at `addr` *without* charging DMA cycles.
    ///
    /// Used by kernels that account for the transfer analytically — e.g. the
    /// work-scale projection of the distance-calculation stage, where the
    /// functional read covers the reduced-scale data but the charged cost
    /// models the full-size cluster streamed in full-width DMA chunks.
    ///
    /// # Panics
    /// Panics if the read is out of bounds or crosses an allocation boundary.
    pub fn mram_read_uncharged(&mut self, addr: MramAddr, len: usize) -> &'a [u8] {
        let (base, bytes) = self.window;
        if let Some(hit) = addr
            .checked_sub(base)
            .and_then(|offset| bytes.get(offset..offset.checked_add(len)?))
        {
            return hit;
        }
        let (base, bytes) = self
            .mram
            .region(addr, len)
            .unwrap_or_else(|e| panic!("tasklet {} MRAM read failed: {e}", self.tasklet_id));
        self.window = (base, bytes);
        &bytes[addr - base..][..len]
    }

    /// Charges the DMA cost of transferring `len` bytes without touching data
    /// (used when a kernel models a write or an already-consumed read).
    pub fn charge_dma(&mut self, len: usize) {
        for chunk in split_dma(len) {
            self.dma_cycles += mram_transfer_cycles(chunk);
            self.dma_transfers += 1;
            self.mram_bytes_read += chunk as u64;
        }
    }

    /// Charges the DMA cost of `times` transfers of `len` bytes each without
    /// touching data. Used by work-scale projection (modeling the additional
    /// vectors a reduced-scale run stands in for) where looping over
    /// [`charge_dma`](Self::charge_dma) would be wastefully slow.
    pub fn charge_dma_repeated(&mut self, len: usize, times: u64) {
        if times == 0 || len == 0 {
            return;
        }
        let mut per_cycles = 0u64;
        let mut per_transfers = 0u64;
        let mut per_bytes = 0u64;
        for chunk in split_dma(len) {
            per_cycles += mram_transfer_cycles(chunk);
            per_transfers += 1;
            per_bytes += chunk as u64;
        }
        self.dma_cycles += per_cycles * times;
        self.dma_transfers += per_transfers * times;
        self.mram_bytes_read += per_bytes * times;
    }

    /// Charges `adds` additive/compare operations and `muls` multiplications
    /// (multiplications are ~32× more expensive on the DPU).
    #[inline]
    pub fn charge_arith(&mut self, adds: u64, muls: u64) {
        self.compute_cycles += adds * ALU_CYCLES + muls * MUL_CYCLES;
    }

    /// Charges `n` WRAM loads/stores.
    #[inline]
    pub fn charge_wram(&mut self, n: u64) {
        self.compute_cycles += n * WRAM_ACCESS_CYCLES;
    }

    /// Charges one semaphore take/give pair (used by the pruned top-k merge).
    #[inline]
    pub fn charge_semaphore(&mut self) {
        self.compute_cycles += SEMAPHORE_CYCLES;
    }
}

/// Per-DPU kernel context: parallel regions, MRAM writes, the WRAM peak and
/// cycle accounting for one launch on one DPU.
pub struct DpuKernelCtx<'a> {
    dpu: &'a mut Dpu,
    config: &'a PimConfig,
    /// Seconds per stage of the regions run so far, added in region order.
    breakdown: StageBreakdown,
    launch_stats: DpuStats,
}

impl<'a> DpuKernelCtx<'a> {
    pub(crate) fn new(dpu: &'a mut Dpu, config: &'a PimConfig) -> Self {
        Self {
            dpu,
            config,
            breakdown: StageBreakdown::new(),
            launch_stats: DpuStats::default(),
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

    /// Runs a parallel region with `tasklets` hardware threads, each
    /// executing `body`. Returns each tasklet's result. The region ends with
    /// an implicit barrier.
    ///
    /// # Panics
    /// Panics if `tasklets` is zero or exceeds the hardware maximum of 24.
    pub fn parallel<R>(
        &mut self,
        stage: Stage,
        tasklets: usize,
        mut body: impl FnMut(&mut TaskletCtx<'_>) -> R,
    ) -> Vec<R> {
        assert!(
            (1..=crate::config::MAX_TASKLETS).contains(&tasklets),
            "tasklet count {tasklets} outside 1..=24"
        );
        let mut results = Vec::with_capacity(tasklets);
        let mut per_tasklet_compute = [0u64; crate::config::MAX_TASKLETS];
        let per_tasklet_compute = &mut per_tasklet_compute[..tasklets];
        let mut total_dma = 0u64;
        let mut total_compute = 0u64;
        let mut dma_transfers = 0u64;
        let mut bytes_read = 0u64;
        // Tasklets of one parallel region mostly read the same allocation,
        // so each starts from the MRAM region its predecessor read last.
        let mram = self.dpu.mram();
        let mut window: (MramAddr, &[u8]) = (0, &[]);
        for (t, compute) in per_tasklet_compute.iter_mut().enumerate() {
            let mut ctx = TaskletCtx::new(t, mram, window);
            results.push(body(&mut ctx));
            window = ctx.window;
            *compute = ctx.compute_cycles;
            total_compute += ctx.compute_cycles;
            total_dma += ctx.dma_cycles;
            dma_transfers += ctx.dma_transfers;
            bytes_read += ctx.mram_bytes_read;
        }
        let compute_time = region_compute_cycles(per_tasklet_compute);
        let barrier = BARRIER_CYCLES_PER_TASKLET * tasklets as u64;
        // DMA overlaps with other tasklets' compute but serializes on the
        // engine: the region lasts as long as the longer of the two.
        let region_cycles = compute_time.max(total_dma) + barrier;

        self.launch_stats.compute_cycles += total_compute;
        self.launch_stats.dma_cycles += total_dma;
        self.launch_stats.dma_transfers += dma_transfers;
        self.launch_stats.mram_bytes_read += bytes_read;
        self.end_region(stage, region_cycles);
        results
    }

    /// Runs a single-threaded region (e.g. the final merge a lone tasklet or
    /// the host-visible result write performs).
    pub fn sequential<R>(
        &mut self,
        stage: Stage,
        body: impl FnOnce(&mut TaskletCtx<'_>) -> R,
    ) -> R {
        let mut only = None;
        let mut body = Some(body);
        self.parallel(stage, 1, |t| {
            let f = body.take().expect("sequential body runs once");
            only = Some(f(t));
        });
        only.expect("sequential region produced a result")
    }

    /// Writes `bytes` to this DPU's MRAM at `addr`, charging DMA write cycles
    /// as its own region.
    pub fn mram_write(
        &mut self,
        stage: Stage,
        addr: MramAddr,
        bytes: &[u8],
    ) -> Result<(), MramError> {
        self.dpu.mram_mut().write(addr, bytes)?;
        let mut dma = 0u64;
        let mut transfers = 0u64;
        for chunk in split_dma(bytes.len()) {
            dma += mram_transfer_cycles(chunk);
            transfers += 1;
        }
        self.launch_stats.dma_cycles += dma;
        self.launch_stats.dma_transfers += transfers;
        self.launch_stats.mram_bytes_written += bytes.len() as u64;
        self.end_region(stage, dma);
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

    fn setup() -> (Dpu, PimConfig) {
        let config = PimConfig::small_test();
        let mut dpu = Dpu::new(0, config.mram_bytes);
        let addr = dpu.mram_mut().alloc(4096).unwrap();
        assert_eq!(addr, 0);
        dpu.mram_mut().write(addr, &[42u8; 4096]).unwrap();
        (dpu, config)
    }

    #[test]
    fn parallel_region_charges_and_returns_results() {
        let (mut dpu, config) = setup();
        let mut ctx = DpuKernelCtx::new(&mut dpu, &config);
        let results = ctx.parallel(Stage::DistanceCalc, 4, |t| {
            let data = t.mram_read(t.tasklet_id * 64, 64).to_vec();
            t.charge_arith(data.len() as u64, 0);
            data.iter().map(|&b| b as u64).sum::<u64>()
        });
        assert_eq!(results, vec![42 * 64; 4]);
        let (stats, breakdown) = ctx.finish();
        let cycles = stats.cycles;
        assert_eq!(stats.launches, 0, "the host counts launches, not the kernel");
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
            ctx.parallel(Stage::DistanceCalc, tasklets, |t| {
                t.charge_arith(work_per_region / tasklets as u64, 0);
            });
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
        let sum = ctx.sequential(Stage::TopK, |t| {
            t.charge_arith(10, 0);
            t.charge_semaphore();
            123u32
        });
        assert_eq!(sum, 123);
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
        ctx.parallel(Stage::DistanceCalc, 25, |_| {});
    }

    #[test]
    #[should_panic(expected = "MRAM read failed")]
    fn out_of_bounds_read_panics_like_hardware_fault() {
        let (mut dpu, config) = setup();
        let mut ctx = DpuKernelCtx::new(&mut dpu, &config);
        ctx.parallel(Stage::DistanceCalc, 1, |t| {
            let _ = t.mram_read(1 << 20, 64);
        });
    }
}
