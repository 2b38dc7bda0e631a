//! # baselines — one Faiss-like IVFPQ engine, two rooflines
//!
//! The UpANNS paper compares against the CPU and GPU implementations of IVFPQ
//! in Meta's Faiss library on the hardware of Table 1. Neither that hardware
//! nor CUDA is available here, so this crate provides:
//!
//! * [`hardware`] — the Table 1 hardware specifications (capacity, peak
//!   power, bandwidth, price) as data,
//! * [`engine`] — the request-centric [`AnnEngine`](engine::AnnEngine) trait
//!   with its [`SearchRequest`](engine::SearchRequest) /
//!   [`SearchResponse`](engine::SearchResponse) types shared by every engine
//!   in the repository (CPU, GPU, PIM-naive, UpANNS),
//! * `faiss` (crate-private) — `FaissEngine`, the one functional IVFPQ
//!   engine, whose stage times come from a `Roofline`,
//! * [`cpu`] — the roofline of the paper's dual-Xeon platform;
//!   [`CpuFaissEngine`](cpu::CpuFaissEngine) is the engine over it,
//! * [`gpu`] — the roofline of the A100, including the low-parallelism top-k
//!   stage that dominates GPU runtime (Figure 19);
//!   [`GpuFaissEngine`](gpu::GpuFaissEngine) is the engine over it, with the
//!   80 GB capacity limit that makes DEEP1B configurations go out-of-memory
//!   (Figure 12).
//!
//! Both engines run the same functional pass, so their answers and work
//! counters (and hence recall) are identical; only their rooflines differ.
//! This mirrors the paper's setup, where all baselines implement the same
//! IVFPQ algorithm.

#![forbid(unsafe_code)]

pub mod cpu;
pub mod engine;
mod faiss;
pub mod gpu;
pub mod hardware;
pub mod workload_stats;
