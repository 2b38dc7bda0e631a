//! # upanns-serve — the online serving front-end
//!
//! The engines in this workspace answer one
//! [`SearchRequest`](baselines::engine::SearchRequest) at a time; a
//! production deployment faces a *stream* of heterogeneous single queries
//! instead (the paper's framing of the online phase: RAG and recommendation
//! traffic with per-query parameters and latency expectations). This crate
//! builds the layer between the two:
//!
//! ```text
//!   ┌─ ServingCore ────────────────────────────────────────────────────────────────────────────────────┐
//!   │ arrive(now) ──► ResultCache ─miss─► AdmissionQueue ──► BatchFormer ──► ChunkQueue ──► pop_chunk  │
//!   │                 (LRU over exact     (bounded,          (tenant-pure    (size-capped   (a driver  │
//!   │                  query + options;    weighted-fair      groups close    chunks, SLO-    executes │
//!   │                  a hit is answered)  DRR shedding)      on size or      urgency or      it)      │
//!   │                                                         deadline)       close order)             │
//!   │ tick(now) ────► BatchPolicy / SloController / ControllerBank                                     │
//!   │                 (batching-window steering from causal feedback)                                  │
//!   │ complete() ───► cache entries · deferred seat release and feedback · the ledger ──► into_report  │
//!   └──────────────────────────────────────────────────────────────────────────────────────────────────┘
//!   driver 1: SearchService::replay — simulated clock, one serial virtual engine
//!   driver 2: upanns_runtime::run_pipeline — one control thread + N engine workers
//! ```
//!
//! * [`core::ServingCore`] — the one place each serving semantic (admit,
//!   batch, dispatch, cache, feedback, report) exists. It reads no clock and
//!   calls no engine; a driver tells it the time and hands it responses.
//! * [`admission::AdmissionQueue`] — a bounded waiting room; arrivals beyond
//!   capacity are shed instead of growing the tail latency without bound.
//!   Capacity is shared **weighted-fair** across tenants: freed room returns
//!   to backlogged tenants by deficit round robin, so a heavy tenant cannot
//!   push a light one out of the service entirely.
//! * [`batcher::BatchFormer`] — dynamic batching: queries with compatible
//!   [`QueryOptions`](baselines::engine::QueryOptions) accumulate in an open
//!   group that closes when it reaches `max_batch` **or** when the oldest
//!   member has waited `max_delay_s`. Groups are tenant-pure, and each
//!   tenant may run its own close conditions.
//! * [`controller::BatchPolicy`] — the source of each tenant's close
//!   conditions: the static [`controller::FixedPolicy`]; the closed-loop
//!   [`controller::SloController`] (AIMD on the replay clock) that widens the
//!   batching window while the observed p99 holds a latency SLO — recovering
//!   the large-batch throughput the PIM engines need without giving up the
//!   tail-latency target; or the [`controller::ControllerBank`] holding one
//!   `SloController` per tenant, so a tight-SLO tenant's narrow window and a
//!   batch-hungry tenant's wide one coexist on one engine.
//! * [`dispatch::ChunkQueue`] — the stage between the former and the
//!   engines: formed batches queue as (optionally size-capped) chunks and
//!   dispatch earliest-SLO-deadline-first, so a tight-SLO tenant's batch
//!   waits at most one chunk of a bulk co-tenant's work instead of the whole
//!   batch — engine-level head-of-line isolation that window-level
//!   (per-tenant close conditions) isolation cannot provide. The queue is
//!   clock-free; each driver supplies the engine occupancy it dispatches
//!   against.
//! * [`cache::ResultCache`] — an LRU of exact (query, options) → neighbors
//!   entries; repeated questions (common in RAG streams) bypass the engine.
//! * [`service::SearchService`] — the simulated-clock driver: replays an
//!   [`annkit::workload::QueryStream`] through the core on one serial
//!   virtual engine, reporting
//!   sustained QPS, latency percentiles and shed-aware SLO attainment per
//!   engine, per policy, and per tenant ([`service::TenantReport`]).
//!
//! The `serve` binary replays a fixed tiny-scale stream through five engines
//! (Faiss-CPU, Faiss-GPU, PIM-naive, UpANNS, and a sharded multi-host UpANNS
//! deployment) under both the fixed and the adaptive policy, runs the
//! committed two-tenant scenario (`--tenants` to replace it), and can emit
//! the committed `BENCH_serving.json` regression baseline.
//!
//! # Example: a two-tenant replay
//!
//! ```
//! use annkit::ivf::{IvfPqIndex, IvfPqParams};
//! use annkit::synthetic::SyntheticSpec;
//! use annkit::workload::{MultiTenantSpec, StreamSpec, TenantId, TenantSpec};
//! use baselines::cpu::CpuFaissEngine;
//! use upanns_serve::controller::ControllerBank;
//! use upanns_serve::batcher::BatchFormerConfig;
//! use upanns_serve::{SearchService, ServiceConfig};
//!
//! // A small corpus and index (tiny so the doctest stays fast).
//! let dataset = SyntheticSpec::sift_like(600)
//!     .with_clusters(8)
//!     .with_seed(3)
//!     .generate_with_meta();
//! let index = IvfPqIndex::train(
//!     &dataset.vectors,
//!     &IvfPqParams::new(8, 16).with_train_size(300),
//!     2,
//! );
//!
//! // Two tenants: interactive traffic with a tight SLO, bulk traffic
//! // with a loose one and twice the rate.
//! let stream = MultiTenantSpec::new()
//!     .with_tenant(
//!         TenantSpec::new(TenantId(1), StreamSpec::new(40, 2_000.0).with_slo_p99(0.05))
//!             .with_name("interactive")
//!             .with_weight(2)
//!             .with_option_mix(vec![(10, 4)]),
//!     )
//!     .with_tenant(
//!         TenantSpec::new(TenantId(2), StreamSpec::new(80, 4_000.0).with_slo_p99(5.0))
//!             .with_name("bulk")
//!             .with_option_mix(vec![(10, 8), (20, 8)]),
//!     )
//!     .generate(&dataset);
//!
//! // One SloController per tenant, each targeting that tenant's own SLO.
//! let bank = ControllerBank::for_profiles(&stream.tenant_profiles, BatchFormerConfig::default());
//! let mut service = SearchService::new(CpuFaissEngine::new(&index), ServiceConfig::default())
//!     .with_policy(Box::new(bank));
//!
//! let report = service.replay_planned(&stream);
//! assert_eq!(report.completed + report.shed, 120);
//! for tenant in &report.tenants {
//!     println!(
//!         "{}: p99 {:.2} ms, miss {:.1}%",
//!         tenant.name,
//!         tenant.p99() * 1e3,
//!         tenant.slo_miss_fraction() * 100.0,
//!     );
//! }
//! ```

#![forbid(unsafe_code)]

pub mod admission;
mod autoscale;
pub mod batcher;
pub mod cache;
pub mod controller;
pub mod core;
pub mod dispatch;
mod envelope;
pub mod service;

pub use autoscale::{Autoscaler, CapacityModel};
pub use controller::{BatchPolicy, FixedPolicy};
pub use envelope::RecoveryEnvelope;
pub use service::{SearchService, ServiceConfig, ServiceReport, TenantReport};
