//! # pim-sim — a functional + cycle-cost simulator of the UPMEM PIM architecture
//!
//! The UpANNS paper evaluates on seven real UPMEM DIMMs. This environment has
//! none, so this crate models the architecture closely enough that every
//! performance effect the paper's evaluation depends on is reproduced:
//!
//! * **DPUs**: 350 MHz in-order cores with up to 24 hardware threads
//!   ("tasklets") sharing a 14-stage pipeline. A single tasklet can issue at
//!   most one instruction every [`REVISIT_INTERVAL`](cost::REVISIT_INTERVAL)
//!   cycles, so per-DPU throughput scales linearly with tasklets up to ~11 and
//!   then saturates (Figure 13 of the paper).
//! * **Memory hierarchy**: per-DPU 64 MB MRAM reachable only through DMA
//!   transfers that cost PrIM's fixed α = 77 cycles plus β = 0.5 cycles per
//!   byte, which on Figure 7's log-size axis is slow to ~256 B and linear
//!   beyond, a 64 KB WRAM scratchpad with single-cycle access and *no
//!   MMU* (so buffer reuse must be planned explicitly), and a 24 KB IRAM.
//! * **No inter-DPU communication**: all coordination goes through the host,
//!   and host↔DPU transfers are only parallel across DPUs when every DPU's
//!   buffer has the same size.
//! * **Energy**: 23.22 W peak per DIMM (Falevoz & Legriel), so
//!   energy ≈ peak power × simulated runtime, exactly the approximation the
//!   paper uses.
//!
//! Kernels are ordinary Rust closures executed *functionally* against a
//! [`DpuKernelCtx`](tasklet::DpuKernelCtx), and they count and charge in
//! two separate steps: the functional work reads MRAM uncharged, and the
//! kernel then closes each parallel region with what each tasklet spent in
//! it — instruction cycles built from [`cost`]'s per-operation constants
//! and DMA built by [`cost::Dma::of`]. The simulated batch time is the
//! maximum over DPUs (the paper: "the largest workload among DPUs
//! determines the overall performance"). WRAM has no allocator here, as it has none on
//! the hardware: a kernel plans its layout, reports the plan's peak with
//! [`record_wram_peak`](tasklet::DpuKernelCtx::record_wram_peak), and the
//! context refuses a peak beyond
//! [`PimConfig::wram_bytes`](config::PimConfig::wram_bytes). A launch
//! reports, besides each DPU's cycles, the seconds per
//! [`Stage`](stats::Stage) of its slowest DPU's regions, accumulated as each
//! region ends. A launch runs the kernel only on the DPUs it schedules; an
//! idle DPU is not visited and reports 0 cycles.
//!
//! ```
//! use pim_sim::config::PimConfig;
//! use pim_sim::cost::{Dma, TaskletCost, ALU_CYCLES};
//! use pim_sim::host::{DpuWrite, PimSystem};
//! use pim_sim::stats::Stage;
//!
//! let mut sys = PimSystem::new(PimConfig::small_test());
//! // Stage some bytes into DPU 0's MRAM.
//! let addr = sys.mram_alloc(0, 1024).unwrap();
//! sys.push_to_dpus(Stage::QueryTransfer, &[DpuWrite::new(0, addr, vec![7u8; 1024])]).unwrap();
//! // Run a kernel on DPU 0 alone (work 0 leaves a DPU idle: not visited,
//! // 0 cycles) in which 4 tasklets each read the data back and add it up.
//! let mut work = vec![0; sys.num_dpus()];
//! work[0] = 1;
//! let (report, outputs) = sys.execute_scheduled(Stage::DpuSearch, &work, |ctx| {
//!     let bytes = ctx.mram_read(addr, 256);
//!     let sum = 4 * bytes.iter().map(|&b| u64::from(b)).sum::<u64>();
//!     // Each tasklet streamed 256 bytes and issued one add per byte.
//!     let tasklet = TaskletCost { compute: 256 * ALU_CYCLES, dma: Dma::of(256) };
//!     ctx.close_region(Stage::DistanceCalc, &[tasklet; 4]);
//!     sum
//! });
//! // One output per busy DPU, in DPU order, whatever host threads ran them.
//! assert_eq!(outputs, [4 * 256 * 7]);
//! assert_eq!(report.critical_dpu, 0);
//! assert!(report.max_dpu_seconds > 0.0);
//! assert!(sys.elapsed_seconds() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod cost;
mod dpu;
pub mod energy;
pub mod host;
pub mod mram;
pub mod stats;
pub mod tasklet;
