//! # upanns — PIM-accelerated billion-scale IVFPQ search (UpANNS, SC '25)
//!
//! This crate is the paper's primary contribution: an IVFPQ search engine
//! that runs its memory-bound stages on a (simulated) UPMEM
//! Processing-in-Memory system, with the four optimizations the paper
//! introduces:
//!
//! | Optimization | Paper | Module |
//! |---|---|---|
//! | Opt1 — PIM-aware workload distribution (data placement + query scheduling) | §4.1, Alg. 1–2 | [`placement`], [`scheduling`] |
//! | Opt2 — PIM resource management (tasklet scheduling + WRAM reuse + MRAM read sizing) | §4.2, Fig. 6–7 | [`wram_layout`], [`kernel`], [`config`] |
//! | Opt3 — Co-occurrence aware encoding | §4.3, Fig. 8 | [`cooccurrence`], [`encoding`] |
//! | Opt4 — Top-K pruning | §4.4, Fig. 9 | [`topk_prune`] |
//!
//! Opt1's offline half departs from Algorithm 1 as printed, which is written
//! for |C| ≫ DPUs while every fixture here has fewer clusters than DPUs: the
//! relaxed threshold also governs the replica *counts*
//! (`⌈wᵢ / (W·thld)⌉`, recounted at every relaxation), replicas go to the
//! least-loaded DPU instead of a round-robin cursor, a never-probed cluster
//! counts at half the smallest observed frequency, and every cluster gets at
//! least two replicas so Algorithm 2 has a choice ([`placement`]'s module
//! docs say why each is needed). Algorithm 2 is the paper's.
//!
//! Runtime extensions built on the engine:
//!
//! | Extension | Paper | Module |
//! |---|---|---|
//! | Query-pattern drift adaptation (replica adjustment / full relocation) | §4.1.2 | [`adaptive`] |
//! | Live index mutation (epoch-snapshot serving + skew-triggered background compaction) | production extension | [`compaction`], `annkit::mutation` |
//! | Multi-host scale-out (sharding + interconnect model) | §5.5 | [`multihost`] |
//! | The multi-host engine (coordinator merge; replica map, fault injection, hedging, elasticity) | §5.5 + extension | [`replica`] |
//! | Serving front-end (admission, dynamic batching, result cache) | §5 (online phase) | `upanns-serve` crate |
//! | SLO-driven adaptive batching (closed-loop batching-window control) | §5 batching argument | `upanns-serve::controller` |
//! | Multi-tenant serving (weighted-fair DRR admission, per-tenant SLO windows) | §5 multi-client setting | `upanns-serve::admission`, `upanns-serve::controller::ControllerBank` |
//!
//! The [`builder::UpAnnsBuilder`] runs the offline phase (mining, encoding,
//! placement, MRAM staging) and produces an [`engine::UpAnnsEngine`], which
//! implements the same [`AnnEngine`](baselines::engine::AnnEngine) trait as
//! the Faiss-CPU/GPU baselines so all engines can be swept uniformly —
//! [`execute`](baselines::engine::AnnEngine::execute) answers a
//! [`SearchRequest`](baselines::engine::SearchRequest) with per-query
//! `k`/`nprobe`/latency-budget options, and the positional
//! [`search_batch`](baselines::engine::AnnEngine::search_batch) shim covers
//! the uniform-batch case. The PIM-naive baseline of the paper's evaluation
//! is the same engine built with [`config::UpAnnsConfig::pim_naive`].
//!
//! ```no_run
//! use annkit::ivf::{IvfPqIndex, IvfPqParams};
//! use annkit::synthetic::SyntheticSpec;
//! use baselines::engine::AnnEngine;
//! use pim_sim::config::PimConfig;
//! use upanns::builder::UpAnnsBuilder;
//!
//! // Offline: train IVFPQ, then build the PIM engine.
//! let data = SyntheticSpec::sift_like(20_000).with_clusters(64).generate();
//! let index = IvfPqIndex::train(&data, &IvfPqParams::new(64, 16).with_train_size(5_000), 1);
//! let mut engine = UpAnnsBuilder::new(&index)
//!     .with_pim_config(PimConfig::with_dpus(64))
//!     .build();
//!
//! // Online: answer a batch of queries.
//! let queries = data.gather(&(0..100).collect::<Vec<_>>());
//! let outcome = engine.search_batch(&queries, 8, 10);
//! println!("QPS = {:.0}", outcome.qps());
//! ```

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod builder;
pub mod compaction;
pub mod config;
pub mod cooccurrence;
pub mod encoding;
pub mod engine;
pub mod kernel;
pub mod multihost;
pub mod placement;
pub mod replica;
pub mod scheduling;
pub mod topk_prune;
pub mod wram_layout;
