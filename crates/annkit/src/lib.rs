//! # annkit — ANNS substrate for the UpANNS reproduction
//!
//! This crate provides every algorithmic building block that the UpANNS paper
//! (SC '25) takes for granted, implemented from scratch:
//!
//! * dense vector datasets and distance kernels ([`vector`], [`distance`]),
//! * k-means / k-means++ coarse quantization (`kmeans`),
//! * product quantization — codebook training, encoding, decoding ([`pq`]),
//! * the inverted-file index with per-cluster residual PQ codes, its lists
//!   shared so that a clone is a snapshot ([`ivf`]),
//! * streaming upserts/deletes over a live index, each snapshot an
//!   epoch-stamped clone of it ([`mutation`]),
//! * asymmetric-distance lookup tables (LUTs) and ADC scans ([`lut`]),
//! * bounded heaps and exact top-k selection ([`topk`]),
//! * runtime-dispatched SIMD fast paths for the distance and top-k hot
//!   loops and the one cache-blocked ADC scan, bitwise-equal to their
//!   scalar references ([`simd`]),
//! * brute-force exact search and recall metrics ([`flat`], [`recall`]),
//! * synthetic SIFT1B/DEEP1B/SPACEV1B-like dataset generators with skewed
//!   cluster popularity and injected code co-occurrence ([`synthetic`]),
//! * skewed (Zipfian) query workload generators ([`workload`]).
//!
//! Higher layers (`baselines`, `upanns`) build the CPU/GPU/PIM search engines
//! on top of these primitives.
//!
//! ## Quick example
//!
//! ```
//! use annkit::ivf::{IvfPqIndex, IvfPqParams};
//! use annkit::synthetic::SyntheticSpec;
//!
//! // A tiny synthetic SIFT-like dataset.
//! let spec = SyntheticSpec::sift_like(2_000).with_clusters(16).with_seed(7);
//! let dataset = spec.generate();
//!
//! // Train an IVFPQ index: 16 coarse clusters, M=8 sub-quantizers.
//! let params = IvfPqParams::new(16, 8).with_train_size(1_000);
//! let index = IvfPqIndex::train(&dataset, &params, 7);
//!
//! // Query it exactly (ADC over all probed clusters).
//! let query = dataset.vector(0);
//! let result = index.search(query, 4, 10);
//! assert_eq!(result.len(), 10);
//! ```

// `deny`, not `forbid`: the one sanctioned exception is [`simd`], which
// re-allows `unsafe` to call its `#[target_feature]` compilations behind
// runtime feature detection. The workspace lints deny `unsafe_code` in
// every other file of every target, tests and examples included.
#![deny(unsafe_code)]

pub mod distance;
pub mod flat;
pub mod ivf;
mod kmeans;
pub mod lut;
pub mod mutation;
pub mod par;
pub mod pq;
pub mod recall;
pub mod simd;
pub mod synthetic;
pub mod topk;
pub mod vector;
pub mod workload;
