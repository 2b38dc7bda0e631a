//! The host side of the simulated system: DPU fleet management, CPU↔DPU
//! transfers, kernel launches and the simulated clock.

use crate::config::{
    PimConfig, HOST_PULL_BW_SERIAL, HOST_PULL_BW_UNIFORM, HOST_PUSH_BW_SERIAL,
    HOST_PUSH_BW_UNIFORM, LAUNCH_OVERHEAD_S, SECONDS_PER_CYCLE,
};
use crate::dpu::Dpu;
use crate::mram::{MramAddr, MramError};
use crate::stats::{max_over_busy_mean, Stage, StageBreakdown};
use crate::tasklet::DpuKernelCtx;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Estimated host work, in [`PimSystem::execute_scheduled`]'s units, that
/// pays for one more launch thread. The unit is a scanned candidate, about
/// 20 ns of one core (`upanns.engine.host_ns_per_candidate` of a traced
/// `batch-scan` under `taskset -c 0` on a 2-vCPU Xeon VM: 19.7–21.5 ns,
/// 28.3–28.8 before the kernel merged each tasklet range as it scanned
/// it), so the grain is ≈ 0.7 ms, some 20 thread spawn-and-joins of
/// ≈ 30 µs each. A launch below it runs on the calling thread.
const FAN_OUT_GRAIN: u64 = 32_768;

/// Host threads that in-flight launches in this process run on, their
/// calling threads included. A count that publishes no other data, so its
/// atomics are `Relaxed`.
static LAUNCH_THREADS: AtomicUsize = AtomicUsize::new(0);

/// A launch's claim on host threads: its calling thread, plus up to
/// `wanted − 1` helpers on cores no other in-flight launch is using, so
/// concurrent launches (the threaded runtime's workers) never oversubscribe
/// the machine. Handed back on drop, also when a kernel panics.
struct Lease<'a> {
    in_flight: &'a AtomicUsize,
    threads: usize,
}

impl<'a> Lease<'a> {
    fn take(in_flight: &'a AtomicUsize, cores: usize, wanted: usize) -> Self {
        let mut held = in_flight.load(Ordering::Relaxed);
        loop {
            let threads = wanted.min(cores.saturating_sub(held)).max(1);
            let claim = held + threads;
            match in_flight.compare_exchange_weak(held, claim, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Self { in_flight, threads },
                Err(now) => held = now,
            }
        }
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.in_flight.fetch_sub(self.threads, Ordering::Relaxed);
    }
}

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

/// Result of one kernel launch across all DPUs. An idle DPU — one the
/// launch did not schedule — is not visited and counts as 0 cycles.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Simulated seconds of the launch (max over DPUs + launch overhead).
    pub max_dpu_seconds: f64,
    /// Index of the slowest DPU (the "maximum process" of Figure 11): the
    /// last one with the most cycles, so the last DPU when all are idle.
    pub critical_dpu: usize,
    /// Simulated seconds per DPU, in DPU order (0 for an idle DPU).
    pub per_dpu_seconds: Vec<f64>,
    /// Cycles per DPU, in DPU order (0 for an idle DPU).
    pub per_dpu_cycles: Vec<u64>,
    /// Stage breakdown of the critical DPU (region stage → seconds), which
    /// is what determines the end-to-end stage ratios of Figure 19; empty
    /// when the critical DPU is idle.
    pub breakdown: StageBreakdown,
}

impl ExecReport {
    /// Ratio of the slowest busy DPU's time to the mean busy DPU time — the
    /// "max process / average process" load-balance metric of Figure 11
    /// (1.0 = perfectly balanced). Both sides exclude the launch overhead.
    pub fn max_to_avg_ratio(&self) -> f64 {
        max_over_busy_mean(self.per_dpu_seconds.iter().copied())
    }
}

/// The simulated PIM system: a fleet of DPUs orchestrated by the host CPU.
pub struct PimSystem {
    config: PimConfig,
    dpus: Vec<Dpu>,
    clock_seconds: f64,
    breakdown: StageBreakdown,
}

impl PimSystem {
    /// Creates a system according to `config`.
    pub fn new(config: PimConfig) -> Self {
        let dpus = (0..config.num_dpus)
            .map(|i| Dpu::new(i, config.mram_bytes))
            .collect();
        Self {
            config,
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

    /// Maps the read-only payload `bytes` into DPU `dpu`'s MRAM as a new
    /// allocation without copying it, and returns its address: every DPU
    /// that maps one `Arc` shares its host copy, while each is charged the
    /// full length as if it held its own (no simulated time, like
    /// [`mram_alloc`](Self::mram_alloc)). A later write copies it for that
    /// DPU alone.
    pub fn mram_map_shared(
        &mut self,
        dpu: usize,
        bytes: &Arc<[u8]>,
    ) -> Result<MramAddr, MramError> {
        self.dpus[dpu].mram_mut().map_shared(Arc::clone(bytes))
    }

    /// Frees the region at `addr` in DPU `dpu`'s MRAM, so a later
    /// allocation may reuse it (no simulated time, like
    /// [`mram_alloc`](Self::mram_alloc)).
    pub fn mram_free(&mut self, dpu: usize, addr: MramAddr) -> Result<(), MramError> {
        self.dpus[dpu].mram_mut().free(addr)
    }

    /// Total bytes of modeled MRAM the fleet's live regions take: a payload
    /// mapped into many DPUs counts once per DPU, although the host holds it
    /// once, so this is not host memory.
    pub fn total_mram_allocated(&self) -> usize {
        self.dpus.iter().map(|d| d.mram().allocated()).sum()
    }

    /// Copies buffers from the host to DPU MRAM, charging transfer time.
    /// Transfers across DPUs proceed in parallel only when every buffer has
    /// the same size; otherwise they serialize (§2.2), which is the reason
    /// UpANNS keeps per-DPU query buffers uniform.
    pub fn push_to_dpus(
        &mut self,
        stage: impl Into<Stage>,
        writes: &[DpuWrite],
    ) -> Result<(), MramError> {
        if writes.is_empty() {
            return Ok(());
        }
        for w in writes {
            self.dpus[w.dpu].mram_mut().write(w.addr, &w.data)?;
        }
        let total_bytes: usize = writes.iter().map(|w| w.data.len()).sum();
        let uniform = writes
            .windows(2)
            .all(|p| p[0].data.len() == p[1].data.len());
        let bw = if uniform {
            HOST_PUSH_BW_UNIFORM
        } else {
            HOST_PUSH_BW_SERIAL
        };
        let seconds = total_bytes as f64 / bw + LAUNCH_OVERHEAD_S;
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
            HOST_PULL_BW_UNIFORM
        } else {
            HOST_PULL_BW_SERIAL
        };
        let seconds = total_bytes as f64 / bw + LAUNCH_OVERHEAD_S;
        self.advance_host(stage, seconds);
        Ok(out)
    }

    /// Launches a kernel on every DPU and returns each DPU's output in DPU
    /// order. The launch runs on the calling thread; see
    /// [`execute_scheduled`](Self::execute_scheduled).
    pub fn execute<T: Send>(
        &mut self,
        stage: impl Into<Stage>,
        kernel: impl Fn(&mut DpuKernelCtx<'_>) -> T + Sync,
    ) -> (ExecReport, Vec<T>) {
        let every_dpu = vec![1; self.dpus.len()];
        self.execute_scheduled(stage, &every_dpu, kernel)
    }

    /// Launches a kernel on the DPUs whose `work` is non-zero and returns
    /// their outputs in DPU order. The closure runs once per such DPU with a
    /// fresh [`DpuKernelCtx`]; the other DPUs are idle: not visited, 0
    /// cycles, no output, and their launch is still counted in the DPU's
    /// `DpuStats::launches`.
    /// The simulated launch time is the slowest DPU's time plus a fixed
    /// launch overhead, added to the system clock under `stage`.
    ///
    /// `work[d]` estimates DPU `d`'s host cost in `FAN_OUT_GRAIN`'s unit,
    /// about 20 ns of one core (one ADC-scanned candidate in `upanns`). A
    /// launch whose total covers several grains of 32 768 runs its busy
    /// DPUs on one host thread per grain, as far as cores are free of other
    /// in-flight launches. The
    /// outputs and every field of the report are gathered in DPU order, so
    /// they do not depend on the thread count.
    pub fn execute_scheduled<T: Send>(
        &mut self,
        stage: impl Into<Stage>,
        work: &[u64],
        kernel: impl Fn(&mut DpuKernelCtx<'_>) -> T + Sync,
    ) -> (ExecReport, Vec<T>) {
        let n = self.dpus.len();
        assert_eq!(work.len(), n, "one work estimate per DPU");
        let mut busy: Vec<&mut Dpu> = self
            .dpus
            .iter_mut()
            .zip(work)
            .filter(|&(_, &w)| w > 0)
            .map(|(dpu, _)| dpu)
            .collect();
        let grains =
            usize::try_from(work.iter().sum::<u64>() / FAN_OUT_GRAIN).unwrap_or(usize::MAX);
        let lease = Lease::take(
            &LAUNCH_THREADS,
            annkit::par::cores(),
            grains.min(busy.len()),
        );
        let workers = lease.threads;
        #[cfg(test)]
        let workers = tests::FORCED_WORKERS.get().unwrap_or(workers);
        let ran = annkit::par::map_mut(&mut busy, workers, |_, dpu| {
            let mut ctx = DpuKernelCtx::new(dpu, &self.config);
            let output = kernel(&mut ctx);
            let (stats, stage_seconds) = ctx.finish();
            dpu.stats_mut().absorb(&stats);
            (dpu.id(), stats.cycles, stage_seconds, output)
        });
        drop(lease);

        // The slowest DPU — the last of them on a tie, so DPU n − 1 when
        // all are idle — is the largest (cycles, id); an idle DPU is 0
        // cycles and no stage.
        let mut per_dpu_cycles = vec![0; n];
        let mut outputs = Vec::with_capacity(ran.len());
        let (mut critical_dpu, mut max_cycles) = (n.saturating_sub(1), 0);
        let mut breakdown = StageBreakdown::new();
        for (id, cycles, stage_seconds, output) in ran {
            if (cycles, id) >= (max_cycles, critical_dpu) {
                (critical_dpu, max_cycles, breakdown) = (id, cycles, stage_seconds);
            }
            per_dpu_cycles[id] = cycles;
            outputs.push(output);
        }
        for dpu in &mut self.dpus {
            dpu.stats_mut().launches += 1;
        }
        let per_dpu_seconds: Vec<f64> = per_dpu_cycles
            .iter()
            .map(|&c| c as f64 * SECONDS_PER_CYCLE)
            .collect();
        let max_dpu_seconds = max_cycles as f64 * SECONDS_PER_CYCLE + LAUNCH_OVERHEAD_S;

        self.advance_host(stage, max_dpu_seconds);
        let report = ExecReport {
            max_dpu_seconds,
            critical_dpu,
            per_dpu_seconds,
            per_dpu_cycles,
            breakdown,
        };
        (report, outputs)
    }

    /// Adds host-side compute time (e.g. cluster filtering or scheduling run
    /// on the CPU) to the simulated clock.
    pub fn advance_host(&mut self, stage: impl Into<Stage>, seconds: f64) {
        assert!(
            seconds >= 0.0 && seconds.is_finite(),
            "invalid time advance"
        );
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
    use crate::cost::{Dma, TaskletCost, ALU_CYCLES, MUL_CYCLES};
    use proptest::prelude::*;
    use std::cell::Cell;
    use std::fmt::Write;
    use std::sync::atomic::AtomicBool;

    thread_local! {
        pub(super) static FORCED_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// A tasklet that issues `adds` additions and no DMA.
    fn adds(adds: u64) -> TaskletCost {
        TaskletCost {
            compute: adds * ALU_CYCLES,
            ..TaskletCost::default()
        }
    }

    /// Runs `f` with every launch it makes from this thread on exactly
    /// `workers` threads, whatever the work, the cores and the other
    /// launches in flight.
    fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
        let previous = FORCED_WORKERS.replace(Some(workers));
        let out = f();
        FORCED_WORKERS.set(previous);
        out
    }

    /// One launch over `work.len()` DPUs on `workers` threads, and all it
    /// leaves behind as text (f64s as bits): the report, the outputs in DPU
    /// order, every DPU's statistics and what the kernel wrote to its MRAM.
    /// DPU `d`'s cycles grow with `work[d]` and depend on nothing else, so
    /// equal work is a tie; at work 1 the kernel charges nothing, so a busy
    /// DPU can tie with the idle ones at 0 cycles.
    fn launch_record(work: &[u64], workers: usize) -> String {
        let mut sys = PimSystem::new(PimConfig::with_dpus(work.len()));
        let mailboxes: Vec<MramAddr> = (0..work.len())
            .map(|d| sys.mram_alloc(d, 8).unwrap())
            .collect();
        let visits = AtomicUsize::new(0);
        let (report, outputs) = with_workers(workers, || {
            sys.execute_scheduled(Stage::DpuSearch, work, |ctx| {
                visits.fetch_add(1, Ordering::Relaxed);
                let id = ctx.dpu_id();
                let w = work[id];
                if w == 1 {
                    return (id, 0);
                }
                let scan: Vec<TaskletCost> = (0..3)
                    .map(|t| TaskletCost {
                        compute: (w * 10 + t) * ALU_CYCLES + w * MUL_CYCLES,
                        ..TaskletCost::default()
                    })
                    .collect();
                ctx.close_region(Stage::DistanceCalc, &scan);
                ctx.close_region(Stage::TopK, &[adds(w)]);
                let written = w * 1000 + id as u64;
                ctx.mram_write(Stage::ResultWrite, mailboxes[id], &written.to_le_bytes())
                    .unwrap();
                (id, w * 3)
            })
        });
        let busy = work.iter().filter(|&&w| w > 0).count();
        assert_eq!(visits.into_inner(), busy, "only busy DPUs are visited");
        let cycles = &report.per_dpu_cycles;
        let max = cycles.iter().copied().max().unwrap();
        let last_at_max = cycles.iter().rposition(|&c| c == max).unwrap();
        assert_eq!(
            report.critical_dpu, last_at_max,
            "the last DPU with the most cycles"
        );
        let mut out = String::new();
        writeln!(out, "seconds {:016x}", report.max_dpu_seconds.to_bits()).unwrap();
        writeln!(out, "critical {}", report.critical_dpu).unwrap();
        writeln!(out, "cycles {:?}", report.per_dpu_cycles).unwrap();
        let per_dpu_bits: Vec<u64> = report.per_dpu_seconds.iter().map(|s| s.to_bits()).collect();
        writeln!(out, "per_dpu_seconds {per_dpu_bits:?}").unwrap();
        for (label, seconds) in report.breakdown.entries() {
            writeln!(out, "stage {label} {:016x}", seconds.to_bits()).unwrap();
        }
        writeln!(out, "outputs {outputs:?}").unwrap();
        for (d, &addr) in mailboxes.iter().enumerate() {
            let mram = sys.dpu(d).mram().read(addr, 8).unwrap();
            writeln!(out, "dpu{d} {:?} {mram:?}", sys.dpu(d).stats()).unwrap();
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Work drawn from 0..4 makes idle DPUs and ties at the maximum
        /// common; the record must not tell one worker from many.
        #[test]
        fn a_launch_records_the_same_bytes_on_one_worker_and_many(
            work in prop::collection::vec(0u64..4, 1..40),
        ) {
            let serial = launch_record(&work, 1);
            for workers in [2, 3, 8] {
                prop_assert_eq!(&launch_record(&work, workers), &serial);
            }
        }
    }

    #[test]
    fn idle_dpus_report_zero_cycles_and_the_last_dpu_wins_ties() {
        for workers in [1, 4] {
            let all_idle = with_workers(workers, || {
                let mut sys = PimSystem::new(PimConfig::with_dpus(6));
                let (report, outputs) = sys.execute_scheduled(Stage::DpuSearch, &[0; 6], |_| {
                    unreachable!("idle DPU visited")
                });
                let outputs: Vec<()> = outputs;
                assert!(outputs.is_empty());
                assert!(
                    (0..6).all(|d| sys.dpu(d).stats().launches == 1),
                    "an idle DPU counts the launch"
                );
                report
            });
            assert_eq!(
                (all_idle.critical_dpu, all_idle.per_dpu_cycles),
                (5, vec![0; 6])
            );
            assert!(all_idle.breakdown.is_empty());

            let single = launch_record(&[0, 0, 3, 0, 0], workers);
            assert!(single.contains("critical 2\n"), "{single}");
            let tied = launch_record(&[2, 3, 1, 3, 0, 2], workers);
            assert!(tied.contains("critical 3\n"), "{tied}");
        }
    }

    #[test]
    fn a_kernel_panic_on_a_helper_thread_resurfaces_with_its_own_message() {
        let caller = std::thread::current().id();
        let helper_ran = AtomicBool::new(false);
        let mut sys = PimSystem::new(PimConfig::with_dpus(8));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_workers(4, || {
                sys.execute_scheduled(Stage::DpuSearch, &[1; 8], |ctx| {
                    if std::thread::current().id() == caller {
                        // Leave the helpers the rest, until one has run.
                        while !helper_ran.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                        return;
                    }
                    helper_ran.store(true, Ordering::Relaxed);
                    panic!("kernel fault on DPU {}", ctx.dpu_id());
                })
            })
        }))
        .expect_err("the helper's panic reaches the caller");
        let message = panic
            .downcast_ref::<String>()
            .expect("panic!'s own String payload");
        assert!(message.starts_with("kernel fault on DPU "), "{message}");
    }

    #[test]
    fn a_lease_borrows_only_free_cores_and_hands_them_back() {
        let in_flight = AtomicUsize::new(0);
        let first = Lease::take(&in_flight, 4, 3);
        let second = Lease::take(&in_flight, 4, 3);
        let third = Lease::take(&in_flight, 4, 3);
        assert_eq!((first.threads, second.threads, third.threads), (3, 1, 1));
        drop(first);
        assert_eq!(Lease::take(&in_flight, 4, 8).threads, 2);
        let _ = std::panic::catch_unwind(|| {
            let _held = Lease::take(&in_flight, 4, 2);
            panic!("a kernel fault");
        });
        drop((second, third));
        assert_eq!(in_flight.into_inner(), 0);
    }

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
        let (report, _) = sys.execute(Stage::DpuSearch, |ctx| {
            let id = ctx.dpu_id();
            let addr = addrs[id];
            // DPU 3 does 4x the work of the others.
            let reps = if id == 3 { 4 } else { 1 };
            for _ in 0..2 * reps {
                let _ = ctx.mram_read(addr, 512);
            }
            let tasklet = TaskletCost {
                compute: reps * 512 * ALU_CYCLES,
                dma: Dma::of(512).times(reps),
            };
            ctx.close_region(Stage::DistanceCalc, &[tasklet; 2]);
        });
        assert_eq!(report.critical_dpu, 3);
        assert!(report.max_to_avg_ratio() > 1.5);
        assert_eq!(report.per_dpu_seconds.len(), 4);
        assert!(report.breakdown.seconds(Stage::DistanceCalc) > 0.0);
        assert!(sys.elapsed_seconds() >= report.max_dpu_seconds);
        assert!(sys.dpu(3).stats().mram_bytes_read > sys.dpu(0).stats().mram_bytes_read);
    }

    #[test]
    fn an_evenly_loaded_launch_is_perfectly_balanced() {
        // Three busy DPUs charge the same cycles, one stays idle: the launch
        // overhead is in `max_dpu_seconds` but not in the ratio's numerator.
        let mut sys = PimSystem::new(PimConfig::small_test());
        let (report, _) = sys.execute_scheduled(Stage::DpuSearch, &[1, 1, 0, 1], |ctx| {
            ctx.close_region(Stage::DistanceCalc, &[adds(1_000); 4]);
        });
        assert!(report.max_dpu_seconds > report.per_dpu_seconds[0]);
        assert_eq!(report.max_to_avg_ratio(), 1.0);
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
        sys.push_to_dpus(
            Stage::QueryTransfer,
            &[DpuWrite::new(0, addrs[0], vec![9u8; 128])],
        )
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
