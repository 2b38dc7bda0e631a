//! The host side of the simulated system: DPU fleet management, CPU↔DPU
//! transfers, kernel launches and the simulated clock.

use crate::config::PimConfig;
use crate::cost::CostModel;
use crate::dpu::Dpu;
use crate::mram::{MramAddr, MramError};
use crate::stats::{Stage, StageBreakdown};
use crate::tasklet::DpuKernelCtx;

/// A host→DPU copy request: `data` is written to `addr` in DPU `dpu`'s MRAM.
#[derive(Debug, Clone)]
pub struct DpuWrite {
    /// Target DPU index.
    pub dpu: usize,
    /// Target MRAM address.
    pub addr: MramAddr,
    /// Bytes to write.
    pub data: Vec<u8>,
}

impl DpuWrite {
    /// Creates a write request.
    pub fn new(dpu: usize, addr: MramAddr, data: Vec<u8>) -> Self {
        Self { dpu, addr, data }
    }
}

/// A DPU→host copy request: `len` bytes are read from `addr` in DPU `dpu`.
#[derive(Debug, Clone, Copy)]
pub struct DpuRead {
    /// Source DPU index.
    pub dpu: usize,
    /// Source MRAM address.
    pub addr: MramAddr,
    /// Number of bytes to read.
    pub len: usize,
}

impl DpuRead {
    /// Creates a read request.
    pub fn new(dpu: usize, addr: MramAddr, len: usize) -> Self {
        Self { dpu, addr, len }
    }
}

/// Result of one kernel launch across all DPUs.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Simulated seconds of the launch (max over DPUs + launch overhead).
    pub max_dpu_seconds: f64,
    /// Index of the slowest DPU (the "maximum process" of Figure 11).
    pub critical_dpu: usize,
    /// Simulated seconds per DPU.
    pub per_dpu_seconds: Vec<f64>,
    /// Cycles per DPU.
    pub per_dpu_cycles: Vec<u64>,
    /// Stage breakdown of the critical DPU (region stage → seconds), which
    /// is what determines the end-to-end stage ratios of Figure 19.
    pub breakdown: StageBreakdown,
}

impl ExecReport {
    /// Ratio of the slowest DPU's time to the mean DPU time — the
    /// "max process / average process" load-balance metric of Figure 11
    /// (1.0 = perfectly balanced).
    pub fn max_to_avg_ratio(&self) -> f64 {
        let busy: Vec<f64> = self
            .per_dpu_seconds
            .iter()
            .copied()
            .filter(|&s| s > 0.0)
            .collect();
        if busy.is_empty() {
            return 1.0;
        }
        let avg = busy.iter().sum::<f64>() / busy.len() as f64;
        if avg <= 0.0 {
            1.0
        } else {
            self.max_dpu_seconds / avg
        }
    }
}

/// The simulated PIM system: a fleet of DPUs orchestrated by the host CPU.
pub struct PimSystem {
    config: PimConfig,
    cost: CostModel,
    dpus: Vec<Dpu>,
    clock_seconds: f64,
    breakdown: StageBreakdown,
}

impl PimSystem {
    /// Creates a system according to `config` with the default cost model.
    pub fn new(config: PimConfig) -> Self {
        let dpus = (0..config.num_dpus)
            .map(|i| Dpu::new(i, config.mram_bytes))
            .collect();
        Self {
            config,
            cost: CostModel::default(),
            dpus,
            clock_seconds: 0.0,
            breakdown: StageBreakdown::new(),
        }
    }

    /// The system configuration.
    #[inline]
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Number of DPUs in the system.
    #[inline]
    pub fn num_dpus(&self) -> usize {
        self.dpus.len()
    }

    /// Immutable access to DPU `id`.
    #[inline]
    pub fn dpu(&self, id: usize) -> &Dpu {
        &self.dpus[id]
    }

    /// Mutable access to DPU `id`.
    #[inline]
    pub fn dpu_mut(&mut self, id: usize) -> &mut Dpu {
        &mut self.dpus[id]
    }

    /// Allocates `len` bytes in DPU `dpu`'s MRAM (no simulated time — this is
    /// an offline/bookkeeping operation).
    pub fn mram_alloc(&mut self, dpu: usize, len: usize) -> Result<MramAddr, MramError> {
        self.dpus[dpu].mram_mut().alloc(len)
    }

    /// Total bytes of MRAM allocated across the fleet.
    pub fn total_mram_allocated(&self) -> usize {
        self.dpus.iter().map(|d| d.mram().allocated()).sum()
    }

    /// Copies buffers from the host to DPU MRAM, charging transfer time.
    /// Transfers across DPUs proceed in parallel only when every buffer has
    /// the same size; otherwise they serialize (§2.2), which is the reason
    /// UpANNS keeps per-DPU query buffers uniform.
    pub fn push_to_dpus(&mut self, stage: impl Into<Stage>, writes: &[DpuWrite]) -> Result<(), MramError> {
        if writes.is_empty() {
            return Ok(());
        }
        for w in writes {
            self.dpus[w.dpu].mram_mut().write(w.addr, &w.data)?;
        }
        let total_bytes: usize = writes.iter().map(|w| w.data.len()).sum();
        let uniform = writes.windows(2).all(|p| p[0].data.len() == p[1].data.len());
        let bw = if uniform {
            self.config.host_push_bw_uniform
        } else {
            self.config.host_push_bw_serial
        };
        let seconds = total_bytes as f64 / bw + self.config.launch_overhead_s;
        self.advance_host(stage, seconds);
        Ok(())
    }

    /// Copies buffers from DPU MRAM back to the host, charging transfer time
    /// with the same uniform/serial rule as [`push_to_dpus`](Self::push_to_dpus).
    pub fn pull_from_dpus(
        &mut self,
        stage: impl Into<Stage>,
        reads: &[DpuRead],
    ) -> Result<Vec<Vec<u8>>, MramError> {
        if reads.is_empty() {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(reads.len());
        for r in reads {
            out.push(self.dpus[r.dpu].mram().read(r.addr, r.len)?.to_vec());
        }
        let total_bytes: usize = reads.iter().map(|r| r.len).sum();
        let uniform = reads.windows(2).all(|p| p[0].len == p[1].len);
        let bw = if uniform {
            self.config.host_pull_bw_uniform
        } else {
            self.config.host_pull_bw_serial
        };
        let seconds = total_bytes as f64 / bw + self.config.launch_overhead_s;
        self.advance_host(stage, seconds);
        Ok(out)
    }

    /// Launches a kernel on every DPU. The closure runs once per DPU with a
    /// fresh [`DpuKernelCtx`]; the simulated launch time is the slowest DPU's
    /// time plus a fixed launch overhead, and it is added to the system clock
    /// under `stage`.
    pub fn execute(&mut self, stage: impl Into<Stage>, mut kernel: impl FnMut(&mut DpuKernelCtx<'_>)) -> ExecReport {
        let spc = self.config.seconds_per_cycle();
        let mut per_dpu_cycles = Vec::with_capacity(self.dpus.len());
        // The slowest DPU so far — the last of them on a tie — and its
        // regions' seconds per stage.
        let (mut critical_dpu, mut max_cycles) = (0, 0);
        let mut breakdown = StageBreakdown::new();
        for (id, dpu) in self.dpus.iter_mut().enumerate() {
            let mut ctx = DpuKernelCtx::new(dpu, &self.cost, &self.config);
            kernel(&mut ctx);
            let (stats, stage_seconds) = ctx.finish();
            if stats.cycles >= max_cycles {
                (critical_dpu, max_cycles, breakdown) = (id, stats.cycles, stage_seconds);
            }
            per_dpu_cycles.push(stats.cycles);
            dpu.stats_mut().absorb(&stats);
        }
        let per_dpu_seconds: Vec<f64> = per_dpu_cycles.iter().map(|&c| c as f64 * spc).collect();
        let max_dpu_seconds = max_cycles as f64 * spc + self.config.launch_overhead_s;

        self.advance_host(stage, max_dpu_seconds);
        ExecReport {
            max_dpu_seconds,
            critical_dpu,
            per_dpu_seconds,
            per_dpu_cycles,
            breakdown,
        }
    }

    /// Adds host-side compute time (e.g. cluster filtering or scheduling run
    /// on the CPU) to the simulated clock.
    pub fn advance_host(&mut self, stage: impl Into<Stage>, seconds: f64) {
        assert!(seconds >= 0.0 && seconds.is_finite(), "invalid time advance");
        self.clock_seconds += seconds;
        self.breakdown.add(stage.into(), seconds);
    }

    /// Simulated seconds elapsed since creation or the last
    /// [`reset_clock`](Self::reset_clock).
    #[inline]
    pub fn elapsed_seconds(&self) -> f64 {
        self.clock_seconds
    }

    /// Stage breakdown of the elapsed time.
    #[inline]
    pub fn breakdown(&self) -> &StageBreakdown {
        &self.breakdown
    }

    /// Resets the simulated clock and breakdown (e.g. after the offline
    /// loading phase, so QPS measures the online phase only).
    pub fn reset_clock(&mut self) {
        self.clock_seconds = 0.0;
        self.breakdown.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loaded_system() -> (PimSystem, Vec<MramAddr>) {
        let mut sys = PimSystem::new(PimConfig::small_test());
        let mut addrs = Vec::new();
        for dpu in 0..sys.num_dpus() {
            addrs.push(sys.mram_alloc(dpu, 4096).unwrap());
        }
        (sys, addrs)
    }

    #[test]
    fn uniform_pushes_are_faster_than_skewed() {
        let (mut sys, addrs) = loaded_system();
        let uniform: Vec<DpuWrite> = (0..sys.num_dpus())
            .map(|d| DpuWrite::new(d, addrs[d], vec![1u8; 1024]))
            .collect();
        sys.push_to_dpus(Stage::QueryTransfer, &uniform).unwrap();
        let t_uniform = sys.elapsed_seconds();

        sys.reset_clock();
        let skewed: Vec<DpuWrite> = (0..sys.num_dpus())
            .map(|d| DpuWrite::new(d, addrs[d], vec![1u8; 256 + 512 * d]))
            .collect();
        sys.push_to_dpus(Stage::QueryTransfer, &skewed).unwrap();
        let t_skewed = sys.elapsed_seconds();
        // Skewed transfer moves fewer total bytes here yet still takes longer
        // because it serializes.
        let uniform_bytes = 1024 * sys.num_dpus();
        let skewed_bytes: usize = (0..sys.num_dpus()).map(|d| 256 + 512 * d).sum();
        assert!(skewed_bytes < uniform_bytes * 2);
        assert!(t_skewed > t_uniform, "{t_skewed} <= {t_uniform}");
    }

    #[test]
    fn execute_uses_slowest_dpu() {
        let (mut sys, addrs) = loaded_system();
        let report = sys.execute(Stage::DpuSearch, |ctx| {
            let id = ctx.dpu_id();
            let addr = addrs[id];
            // DPU 3 does 4x the work of the others.
            let reps = if id == 3 { 4 } else { 1 };
            ctx.parallel(Stage::DistanceCalc, 2, |t| {
                for _ in 0..reps {
                    let _ = t.mram_read(addr, 512);
                    t.charge_arith(512, 0);
                }
            });
        });
        assert_eq!(report.critical_dpu, 3);
        assert!(report.max_to_avg_ratio() > 1.5);
        assert_eq!(report.per_dpu_seconds.len(), 4);
        assert!(report.breakdown.seconds(Stage::DistanceCalc) > 0.0);
        assert!(sys.elapsed_seconds() >= report.max_dpu_seconds);
        assert!(sys.dpu(3).stats().mram_bytes_read > sys.dpu(0).stats().mram_bytes_read);
    }

    #[test]
    fn pull_roundtrips_data_and_charges_time() {
        let (mut sys, addrs) = loaded_system();
        let writes: Vec<DpuWrite> = (0..sys.num_dpus())
            .map(|d| DpuWrite::new(d, addrs[d], vec![d as u8; 64]))
            .collect();
        sys.push_to_dpus(Stage::QueryTransfer, &writes).unwrap();
        let reads: Vec<DpuRead> = (0..sys.num_dpus())
            .map(|d| DpuRead::new(d, addrs[d], 64))
            .collect();
        let before = sys.elapsed_seconds();
        let data = sys.pull_from_dpus(Stage::ResultTransfer, &reads).unwrap();
        assert!(sys.elapsed_seconds() > before);
        for (d, buf) in data.iter().enumerate() {
            assert_eq!(buf, &vec![d as u8; 64]);
        }
        assert!(sys.breakdown().seconds(Stage::ResultTransfer) > 0.0);
    }

    #[test]
    fn reset_clock_clears_time_but_not_data() {
        let (mut sys, addrs) = loaded_system();
        sys.push_to_dpus(Stage::QueryTransfer, &[DpuWrite::new(0, addrs[0], vec![9u8; 128])])
            .unwrap();
        assert!(sys.elapsed_seconds() > 0.0);
        sys.reset_clock();
        assert_eq!(sys.elapsed_seconds(), 0.0);
        assert!(sys.breakdown().is_empty());
        assert_eq!(sys.dpu(0).mram().read(addrs[0], 1).unwrap(), &[9]);
        assert!(sys.total_mram_allocated() >= 4096);
    }

    #[test]
    fn advance_host_accumulates_under_stage() {
        let mut sys = PimSystem::new(PimConfig::small_test());
        sys.advance_host(Stage::ClusterFiltering, 0.001);
        sys.advance_host(Stage::ClusterFiltering, 0.002);
        assert!((sys.breakdown().seconds(Stage::ClusterFiltering) - 0.003).abs() < 1e-12);
    }
}
