//! What a threaded runtime run measured.
//!
//! A [`RuntimeReport`] is built from the serving core's one
//! [`ServiceReport`] — the report the replay returns — so wall-clock rows and
//! replay rows share their percentile convention, their shed-aware miss
//! accounting and their per-tenant row type, and can sit side by side in one
//! table. The runtime adds its clock, its worker count, and the conservation
//! counters ([`lost`](RuntimeReport::lost) /
//! [`duplicated`](RuntimeReport::duplicated)) that a single-threaded replay
//! cannot violate but a pipeline with a shutdown protocol must prove it
//! does not.

use annkit::topk::Neighbor;
use upanns_serve::service::{miss_fraction_of, percentile_of, ServiceReport, TenantReport};

/// One tenant's slice of a [`RuntimeReport`] — the replay's row type
/// (latencies are wall-clock seconds in wall mode).
pub type RuntimeTenantRow = TenantReport;

/// What one threaded pipeline run measured.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// The engine's display name.
    pub engine: String,
    /// The batch policy's display name (suffixed `-chunked` under priority-
    /// chunked dispatch, like the replay).
    pub policy: String,
    /// `"wall"` or `"logical"` — which clock drove the run.
    pub mode: &'static str,
    /// Engine worker threads the pipeline ran.
    pub workers: usize,
    /// Queries the stream offered.
    pub offered: usize,
    /// Queries answered (engine or cache).
    pub completed: usize,
    /// Queries rejected at admission.
    pub shed: usize,
    /// Offered queries that were neither answered nor shed when the
    /// pipeline drained — **must be 0**; a nonzero value means the shutdown
    /// protocol dropped work.
    pub lost: usize,
    /// Queries answered more than once — **must be 0**.
    pub duplicated: usize,
    /// Cache hits / misses.
    pub cache_hits: u64,
    /// Cache lookups that found nothing.
    pub cache_misses: u64,
    /// Cache entries rejected for carrying an older index epoch than the
    /// arrival's (neither hit nor miss; always 0 without a live-index
    /// epoch schedule).
    pub cache_invalidated: u64,
    /// Chunks the control thread handed to workers.
    pub dispatched_chunks: usize,
    /// Formed batches split into more than one chunk.
    pub split_batches: usize,
    /// Query×shard pairs served with degraded (partial) coverage because a
    /// shard had no live replica at dispatch time.
    pub degraded: u64,
    /// Shards cloned to a second replica past the hedging budget.
    pub hedged: u64,
    /// Shards re-dispatched after their host died with the work in flight.
    pub redispatched: u64,
    /// Total *modeled* engine seconds across all workers (the emulated
    /// device occupancy; divide by makespan for emulated device utilization).
    pub busy_modeled_s: f64,
    /// Wall-clock seconds from pipeline start to the last completion
    /// (arrival times in logical mode).
    pub makespan_s: f64,
    /// The p99 SLO the run was measured against, if any.
    pub slo_p99_s: Option<f64>,
    /// Per-query end-to-end latencies in seconds, sorted ascending.
    pub latencies_s: Vec<f64>,
    /// Per-query results in stream order (empty vector for shed queries) —
    /// the twin byte-diff compares exactly this against
    /// [`ServiceReport::results`].
    pub results: Vec<Vec<Neighbor>>,
    /// Per-tenant breakdown, stream-profile order first.
    pub tenants: Vec<RuntimeTenantRow>,
}

impl RuntimeReport {
    /// The core's report of a threaded run, plus what only the thread
    /// driver knows.
    pub(crate) fn new(
        service: ServiceReport,
        mode: &'static str,
        workers: usize,
        offered: usize,
        (lost, duplicated): (usize, usize),
    ) -> Self {
        Self {
            engine: service.engine,
            policy: service.policy,
            mode,
            workers,
            offered,
            completed: service.completed,
            shed: service.shed,
            lost,
            duplicated,
            cache_hits: service.cache_hits,
            cache_misses: service.cache_misses,
            cache_invalidated: service.cache_invalidated,
            dispatched_chunks: service.dispatched_chunks,
            split_batches: service.split_batches,
            degraded: service.degraded,
            hedged: service.hedged,
            redispatched: service.redispatched,
            busy_modeled_s: service.engine_busy_s,
            makespan_s: service.makespan_s,
            slo_p99_s: service.slo_p99_s,
            latencies_s: service.latencies_s,
            results: service.results,
            tenants: service.tenants,
        }
    }

    /// Completed queries per second of makespan.
    pub fn sustained_qps(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.makespan_s
        }
    }

    /// The `p`-th latency percentile in seconds (nearest rank).
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_of(&self.latencies_s, p)
    }

    /// Median latency in seconds.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Tail latency in seconds.
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// Mean latency in seconds (0 when nothing completed).
    pub fn mean_latency(&self) -> f64 {
        if self.latencies_s.is_empty() {
            0.0
        } else {
            self.latencies_s.iter().sum::<f64>() / self.latencies_s.len() as f64
        }
    }

    /// Shed-aware SLO miss fraction over offered queries.
    pub fn slo_miss_fraction(&self) -> f64 {
        miss_fraction_of(&self.latencies_s, self.completed, self.shed, self.slo_p99_s)
    }

    /// Whether the run met its p99 SLO (shed-aware, vacuous without one).
    pub fn meets_slo(&self) -> bool {
        self.slo_p99_s.is_none() || self.slo_miss_fraction() <= 0.01
    }

    /// Whether every tenant met its own SLO.
    pub fn all_tenants_meet_slo(&self) -> bool {
        self.tenants.iter().all(RuntimeTenantRow::meets_slo)
    }

    /// Cache hit rate over all lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Conservation check: every offered query was answered or shed, exactly
    /// once. The pipeline's graceful-shutdown CI gate asserts this.
    pub fn is_conserving(&self) -> bool {
        self.lost == 0 && self.duplicated == 0 && self.completed + self.shed == self.offered
    }
}
