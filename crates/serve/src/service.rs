//! The serving front-end's public surface — [`ServiceConfig`],
//! [`ServiceReport`] — and [`SearchService`], the simulated-clock driver of
//! the serving core.
//!
//! [`SearchService`] wraps any [`AnnEngine`] and replays a timed
//! [`QueryStream`] through a [`ServingCore`]: every arrival is admitted (or
//! shed), checked against the result cache, and batched with compatible
//! queries; formed batches queue for the engine (a single serial resource)
//! either whole in close order, or — with [`ServiceConfig::max_chunk`] set —
//! as size-capped chunks in SLO-urgency order, so a tight-SLO tenant's batch
//! waits at most one chunk of a bulk co-tenant's work instead of the whole
//! batch. The core holds all of that; this driver holds only what is
//! particular to a *simulated* serial engine: when it frees, the
//! time-ordered interleave of window deadlines and dispatches, and the
//! autoscaler hook. All times are simulated seconds — the engines' own
//! timing models drive the clock, so sustained QPS and latency percentiles
//! are comparable across the CPU, GPU and PIM engines exactly like the
//! batch benchmarks.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::autoscale::Autoscaler;
use crate::batcher::BatchFormerConfig;
use crate::controller::{BatchPolicy, FixedPolicy};
use crate::core::{request_for, ServingCore};
use crate::dispatch::DispatchOrder;
use annkit::mutation::SnapshotTimeline;
use annkit::topk::Neighbor;
use annkit::workload::QueryStream;
use baselines::engine::{AnnEngine, QueryOptions, TenantId};

/// Percentile over an ascending-sorted latency list: the element at rank
/// `round(p/100 · (n − 1))`, 0 when empty — shared by the aggregate and
/// per-tenant report rows and the SLO controller's observation window.
pub fn percentile_of(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64).round();
    sorted[rank as usize]
}

/// Shed-aware SLO miss fraction: completed queries over the target plus
/// every shed query, over the offered total (0 when nothing was offered).
pub(crate) fn miss_fraction_of(
    sorted: &[f64],
    completed: usize,
    shed: usize,
    slo: Option<f64>,
) -> f64 {
    let offered = completed + shed;
    if offered == 0 {
        return 0.0;
    }
    let late = slo.map_or(0, |slo| sorted.iter().filter(|&&l| l > slo).count());
    (late + shed) as f64 / offered as f64
}

/// Configuration of a [`SearchService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Maximum queries waiting for a batch before arrivals are shed.
    pub queue_capacity: usize,
    /// Close conditions of the dynamic batch former under the fixed policy
    /// [`SearchService::new`] installs. An adaptive [`BatchPolicy`]
    /// installed via [`SearchService::with_policy`] starts from its own
    /// SLO-derived conditions instead; the serving scenarios hand this value
    /// to [`ControllerBank::for_profiles`](crate::controller::ControllerBank::for_profiles)
    /// as the window of tenants that declare no SLO.
    pub batcher: BatchFormerConfig,
    /// Result-cache entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Simulated seconds to answer a query from the cache.
    pub cache_lookup_s: f64,
    /// Optional p99 latency SLO (seconds) used for attainment reporting.
    /// When unset, the replayed stream's own
    /// [`slo_p99_s`](QueryStream::slo_p99_s) annotation is used instead.
    pub slo_p99_s: Option<f64>,
    /// Priority-chunked engine dispatch. `Some(cap)` splits every formed
    /// batch into chunks of at most `cap` queries and dispatches them in
    /// SLO-urgency order ([`DispatchOrder::SloUrgency`]) — the head-of-line
    /// bound: no tenant's dispatch commits the serial engine for more than
    /// one chunk; `Some(0)` is rejected when the serving core is built.
    /// `None` (the default) keeps whole batches in serial close order
    /// ([`DispatchOrder::CloseOrder`]) — right for single-tenant streams,
    /// where chunking trades batch amortization for isolation nobody needs.
    pub max_chunk: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 4096,
            batcher: BatchFormerConfig::default(),
            cache_capacity: 1024,
            cache_lookup_s: 2e-6,
            slo_p99_s: None,
            max_chunk: None,
        }
    }
}

/// One tenant's slice of a [`ServiceReport`]: its own latency distribution,
/// shed count, SLO attainment, and the batching window its traffic ended
/// under. Single-tenant replays produce exactly one row (the `default`
/// tenant), so the per-tenant view is always present.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant.
    pub id: TenantId,
    /// Report name (from the stream's [`TenantProfile`], or the id's
    /// display form for tenants the stream did not announce).
    ///
    /// [`TenantProfile`]: annkit::workload::TenantProfile
    pub name: String,
    /// The tenant's weighted-fair admission share.
    pub weight: u32,
    /// The SLO this tenant was measured against: its own profile SLO, or
    /// the explicit [`ServiceConfig::slo_p99_s`] override. A tenant without
    /// a target of its own — a profiled tenant that declared none, or a
    /// tenant the stream never announced — keeps `None` (vacuous
    /// attainment) unless the config override supplies one. It is **never**
    /// measured against the stream-level SLO, which is the *tightest
    /// profiled tenant's* target and would poison
    /// [`meets_slo`](Self::meets_slo) for strangers. This matches the
    /// [`ControllerBank`](crate::controller::ControllerBank), which gives
    /// targetless tenants no controller.
    pub slo_p99_s: Option<f64>,
    /// Queries of this tenant answered (engine or cache).
    pub completed: usize,
    /// Queries of this tenant rejected at admission.
    pub shed: usize,
    /// This tenant's end-to-end latencies in seconds, sorted ascending.
    pub latencies_s: Vec<f64>,
    /// The close conditions this tenant's groups ended the replay under.
    pub final_batcher: BatchFormerConfig,
}

impl TenantReport {
    /// The `p`-th latency percentile in seconds ([`percentile_of`]'s rank).
    pub(crate) fn percentile(&self, p: f64) -> f64 {
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

    /// Shed-aware SLO miss fraction for this tenant (see
    /// [`ServiceReport::slo_miss_fraction`]).
    pub fn slo_miss_fraction(&self) -> f64 {
        miss_fraction_of(&self.latencies_s, self.completed, self.shed, self.slo_p99_s)
    }

    /// Whether this tenant met its SLO, shed-aware: at most 1 % of its
    /// offered queries missed. Vacuously true without a target.
    pub fn meets_slo(&self) -> bool {
        self.slo_p99_s.is_none() || self.slo_miss_fraction() <= 0.01
    }
}

/// Where completed queries' latency went, each part summed over them in
/// seconds; the parts add up to the summed latency. Admission adds nothing:
/// a query is admitted or shed the instant it arrives.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySplit {
    /// Σ batch close − arrival over engine answers.
    pub batch_wait_s: f64,
    /// Σ engine start − batch close over engine answers.
    pub dispatch_wait_s: f64,
    /// Σ engine finish − engine start over engine answers.
    pub engine_service_s: f64,
    /// Σ latency of cache answers.
    pub cache_s: f64,
}

/// What the replay measured.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// The engine's display name.
    pub engine: String,
    /// The batch policy's display name ("fixed", "adaptive-tenant", ...).
    pub policy: String,
    /// The p99 SLO the replay was measured against, if any.
    pub slo_p99_s: Option<f64>,
    /// How many times the policy adjusted the former's close conditions.
    pub controller_adjustments: usize,
    /// The close conditions the policy had settled on for
    /// [`TenantId::DEFAULT`] when the stream ended (each tenant's own are in
    /// its [`TenantReport`]).
    pub final_batcher: BatchFormerConfig,
    /// Queries answered (engine or cache).
    pub completed: usize,
    /// Queries rejected at admission.
    pub shed: usize,
    /// Cache hits / misses.
    pub cache_hits: u64,
    /// Cache lookups that found nothing.
    pub cache_misses: u64,
    /// Cache entries rejected for carrying an older index epoch than the
    /// arrival's — removed and recomputed, counted as neither hit nor miss.
    /// Always 0 without an installed [`SnapshotTimeline`].
    pub cache_invalidated: u64,
    /// Formed batches submitted for dispatch, split by close reason.
    pub size_closed_batches: usize,
    /// Batches closed by the waiting deadline.
    pub deadline_closed_batches: usize,
    /// Chunks the chunk queue handed to an engine — equal to
    /// [`batches`](Self::batches) under whole-batch (close-order) dispatch,
    /// larger when [`ServiceConfig::max_chunk`] splits bulk batches.
    pub dispatched_chunks: usize,
    /// Formed batches the chunk queue split into more than one chunk.
    pub split_batches: usize,
    /// Simulated seconds the engine spent executing chunks.
    pub engine_busy_s: f64,
    /// Time of the last completion (the replay's makespan).
    pub makespan_s: f64,
    /// Per-query end-to-end latencies in seconds, sorted ascending.
    pub latencies_s: Vec<f64>,
    /// Per-query results in stream order (empty vector for shed queries).
    pub results: Vec<Vec<Neighbor>>,
    /// Per-query `(arrival, Some(latency) | None)` outcomes — `None` marks a
    /// shed query. The raw material of a
    /// [`RecoveryEnvelope`](crate::envelope::RecoveryEnvelope) over a
    /// fault-injected replay.
    pub outcomes: Vec<(f64, Option<f64>)>,
    /// Query×shard pairs the engine dropped for lack of a live replica
    /// (degraded coverage; 0 for engines without replication).
    pub degraded: u64,
    /// Shard groups the engine hedged to a second replica.
    pub hedged: u64,
    /// Shard groups the engine re-dispatched after their host died in
    /// flight.
    pub redispatched: u64,
    /// Host-count changes an attached [`Autoscaler`] applied.
    pub scale_events: usize,
    /// Total modeled shard-migration seconds those scale events charged.
    pub migration_s: f64,
    /// The completed queries' latency, split by where it was spent.
    pub split: LatencySplit,
    /// Per-tenant breakdown, in the stream's tenant-profile order (one
    /// `default` row for single-tenant replays).
    pub tenants: Vec<TenantReport>,
}

impl ServiceReport {
    /// Completed queries per second of makespan (sustained throughput).
    pub fn sustained_qps(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.makespan_s
        }
    }

    /// The `p`-th latency percentile in seconds (`percentile_of`'s rank; 0
    /// when nothing completed).
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

    /// Fraction of *offered* queries that missed the SLO: completed queries
    /// whose end-to-end latency exceeded the target, **plus every shed
    /// query** — a query turned away at the door received no answer at all,
    /// which is the worst possible latency, so it always counts as a miss
    /// (even when no explicit SLO was configured). 0 when nothing was
    /// offered. A 100 %-shed replay therefore reports exactly 1.0.
    pub fn slo_miss_fraction(&self) -> f64 {
        miss_fraction_of(&self.latencies_s, self.completed, self.shed, self.slo_p99_s)
    }

    /// Whether the replay met its p99 SLO, shed-aware: at most 1 % of the
    /// *offered* queries (shed queries included, via
    /// [`slo_miss_fraction`](Self::slo_miss_fraction)) missed the target.
    /// Vacuously true when no SLO was set.
    pub fn meets_slo(&self) -> bool {
        self.slo_p99_s.is_none() || self.slo_miss_fraction() <= 0.01
    }

    /// Whether **every** tenant met its own SLO (the multi-tenant success
    /// criterion — the aggregate [`meets_slo`](Self::meets_slo) can look
    /// healthy while one tenant takes all the misses).
    pub fn all_tenants_meet_slo(&self) -> bool {
        self.tenants.iter().all(TenantReport::meets_slo)
    }

    /// The per-tenant row of `tenant`, if the replay saw it.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantReport> {
        self.tenants.iter().find(|t| t.id == tenant)
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

    /// Total batches the engine executed.
    pub fn batches(&self) -> usize {
        self.size_closed_batches + self.deadline_closed_batches
    }

    /// Mean queries per executed batch (0 without batches).
    pub fn mean_batch_size(&self) -> f64 {
        self.engine_answers_per(self.batches())
    }

    /// Mean queries per *dispatched chunk* — the serial engine's actual
    /// per-commitment granularity (0 without dispatches). Equals
    /// [`mean_batch_size`](Self::mean_batch_size) under whole-batch
    /// dispatch.
    pub fn mean_chunk_size(&self) -> f64 {
        self.engine_answers_per(self.dispatched_chunks)
    }

    /// Engine-answered queries over `n` (0 when `n` is 0).
    fn engine_answers_per(&self, n: usize) -> f64 {
        let engine_answered = self.completed as u64 - self.cache_hits;
        if n == 0 {
            0.0
        } else {
            engine_answered as f64 / n as f64
        }
    }
}

/// The simulated serial engine [`SearchService::replay`] steps the core
/// with: it executes each dispatched chunk the instant it starts and tells
/// the core the (possibly future) finish, so the only clock state is when
/// the engine frees.
struct SerialEngine<'e, E: AnnEngine> {
    engine: &'e mut E,
    stream: &'e QueryStream,
    next_request_id: &'e mut u64,
    free_at: f64,
    /// Under [`DispatchOrder::CloseOrder`] a batch *executes* the moment it
    /// closes (FIFO fixes `start = max(closed_at, engine free)` there);
    /// under `SloUrgency` it waits for [`advance`](Self::advance), since a
    /// more urgent later close may overtake it. See
    /// [`SearchService::replay`] on what that does to cache entries.
    execute_at_close: bool,
}

impl<E: AnnEngine> SerialEngine<'_, E> {
    /// When the next dispatch would start: the engine frees *and* a chunk
    /// is ready.
    fn next_start(&self, core: &ServingCore) -> Option<f64> {
        Some(core.next_ready_at()?.max(self.free_at))
    }

    /// Dispatches the chunk due to start at `start` and executes it.
    fn run(&mut self, core: &mut ServingCore, start: f64) {
        let Some(chunk) = core.pop_chunk(start) else {
            debug_assert!(false, "a dispatch was due but no chunk was ready");
            return;
        };
        *self.next_request_id += 1;
        let request = request_for(self.stream, &chunk, *self.next_request_id);
        let response = self.engine.execute(&request);
        self.free_at = start + response.seconds;
        core.complete(chunk, response, start, self.free_at);
    }

    /// Executes everything that just closed, when that is this engine's
    /// discipline (see [`execute_at_close`](Self::execute_at_close)).
    fn run_closed(&mut self, core: &mut ServingCore) {
        if !self.execute_at_close {
            return;
        }
        while let Some(start) = self.next_start(core) {
            self.run(core, start);
        }
    }

    /// Advances the simulation to `now`: closes every batching deadline and
    /// runs every due dispatch, interleaved in simulated-time order — a
    /// deadline that closes a batch before the engine frees lets that batch
    /// compete for the next dispatch slot.
    fn advance(&mut self, core: &mut ServingCore, now: f64) {
        loop {
            let deadline = core.next_deadline().filter(|&d| d <= now);
            let dispatch = self.next_start(core).filter(|&t| t <= now);
            match (deadline, dispatch) {
                (Some(d), t) if t.is_none_or(|t| d <= t) => {
                    core.close_due(d);
                    self.run_closed(core);
                }
                (_, Some(start)) => self.run(core, start),
                // `(Some, None)` with a failed guard cannot occur — the
                // guard always passes when no dispatch is due.
                _ => break,
            }
        }
    }
}

/// A serving front-end over one engine.
pub struct SearchService<E: AnnEngine> {
    engine: E,
    config: ServiceConfig,
    policy: Box<dyn BatchPolicy>,
    autoscaler: Option<Autoscaler>,
    /// `(activation, epoch)` schedule of the installed live-index timeline
    /// (empty for a frozen index) — drives result-cache invalidation.
    epoch_schedule: Vec<(f64, u64)>,
    next_request_id: u64,
}

impl<E: AnnEngine> SearchService<E> {
    /// Wraps `engine` with the given front-end configuration and the static
    /// batch policy implied by `config.batcher`.
    pub fn new(engine: E, config: ServiceConfig) -> Self {
        Self {
            engine,
            policy: Box::new(FixedPolicy(config.batcher)),
            config,
            autoscaler: None,
            epoch_schedule: Vec::new(),
            next_request_id: 0,
        }
    }

    /// Installs a live-index [`SnapshotTimeline`]: the engine serves each
    /// query from the snapshot active at its own arrival time (and charges
    /// compaction-window stalls at the batch's dispatch time), while the result cache stamps entries with
    /// the computing snapshot's epoch and invalidates them when a newer
    /// epoch's arrival finds them. Returns whether the engine accepted the
    /// timeline ([`AnnEngine::install_timeline`] — engines without live-
    /// mutation support decline and keep serving their frozen base; the
    /// cache-epoch wiring is installed either way, which can only *shrink*
    /// cache reuse, never serve a stale answer the engine wouldn't).
    pub fn with_live_index(mut self, timeline: &SnapshotTimeline) -> (Self, bool) {
        let accepted = self.engine.install_timeline(timeline.clone());
        self.epoch_schedule = timeline.epoch_schedule();
        (self, accepted)
    }

    /// Attaches a host [`Autoscaler`]: per-query SLO outcomes feed it
    /// causally on the replay clock, and its steps are applied to the engine
    /// through [`AnnEngine::scale_to`] (a no-op `None` for engines without
    /// host-level elasticity). The controller's believed host count is
    /// re-synced with [`AnnEngine::live_hosts`] when the replay starts.
    pub fn with_autoscaler(mut self, autoscaler: Autoscaler) -> Self {
        self.autoscaler = Some(autoscaler);
        self
    }

    /// Replaces the batch policy (e.g. with an
    /// [`SloController`](crate::controller::SloController)). The policy's own
    /// close conditions take over from `config.batcher`.
    pub fn with_policy(mut self, policy: Box<dyn BatchPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Unwraps the service, returning the engine.
    pub fn into_engine(self) -> E {
        self.engine
    }

    /// Replays a timed stream, assigning `options_of(stream_index)` to each
    /// query, and reports sustained QPS, latency percentiles, SLO attainment
    /// and front-end counters. The replay is deterministic.
    ///
    /// The batch policy is consulted for the former's close conditions before
    /// every arrival and observes completion latencies on the simulated
    /// clock **causally**: a completion that finishes at simulated time `t`
    /// is delivered to the policy only once the arrival clock has passed
    /// `t`, exactly as an online controller would see it — feedback from a
    /// batch still executing in the simulated future never steers earlier
    /// arrivals.
    ///
    /// Formed batches queue for the serial engine whole and in close order
    /// by default, size-capped and SLO-urgency-ordered with
    /// [`ServiceConfig::max_chunk`] set. Completions, admission releases
    /// and policy feedback are all driven by *dispatch finishes* (which the
    /// serial engine keeps non-decreasing) rather than close order, so
    /// priority dispatch — where an urgent batch finishes before an earlier-
    /// closed bulk one — keeps the accounting causal.
    ///
    /// When the last arrival has been processed, open groups still close at
    /// their **own deadlines** on the replay clock — the stream ending does
    /// not teleport trailing windows shut, so trailing latencies are
    /// `window + service`, exactly like mid-stream ones.
    ///
    /// Cache entries carry `ready_at` = the answer's finish time, and they
    /// appear as soon as that time is *knowable*: at batch close under
    /// close-order dispatch (FIFO start is fully determined there, so a
    /// repeat of any closed query coalesces onto the pending answer — the
    /// pre-scheduler semantics, unchanged), but only at **dispatch** under
    /// priority dispatch, where a queued chunk's start is genuinely
    /// undetermined until the engine picks it (a more urgent later close
    /// may overtake it). There, a repeat of a still-queued question is
    /// admitted as a fresh query; a repeat of an in-flight one still waits.
    pub fn replay(
        &mut self,
        stream: &QueryStream,
        mut options_of: impl FnMut(usize) -> QueryOptions,
    ) -> ServiceReport {
        let autoscaler = &mut self.autoscaler;
        if let (Some(scaler), Some(hosts)) = (autoscaler.as_mut(), self.engine.live_hosts()) {
            scaler.sync(hosts);
        }
        let mut core = ServingCore::new(
            stream,
            self.config,
            self.policy.as_mut(),
            &self.epoch_schedule,
        );
        let mut sim = SerialEngine {
            engine: &mut self.engine,
            stream,
            next_request_id: &mut self.next_request_id,
            free_at: 0.0,
            execute_at_close: core.order() == DispatchOrder::CloseOrder,
        };
        let mut scale_events = 0usize;
        let mut migration_s = 0.0f64;
        for (arrival, index) in stream.iter() {
            // Deliver every completion the clock has caught up with and let
            // the policy re-steer the close conditions, then run the
            // simulation — batcher deadlines and engine dispatches,
            // interleaved in time order — up to this arrival.
            core.tick(arrival);
            sim.advance(&mut core, arrival);

            // The elasticity loop: deliver the SLO outcomes the clock has
            // caught up with to the autoscaler (causally, like policy
            // feedback) and apply any step it decides through the engine's
            // own scale hook, charging the modeled migration time.
            if let Some(scaler) = autoscaler.as_mut() {
                for (t, missed) in core.take_slo_events(arrival) {
                    scaler.observe(t, missed);
                }
                if let Some(target) = scaler.decide(arrival) {
                    if let Some(cost) = sim.engine.scale_to(target, arrival) {
                        scale_events += 1;
                        migration_s += cost;
                    }
                }
            }

            core.arrive(arrival, index, options_of(index));
            sim.run_closed(&mut core);
        }

        // Stream over — but the replay clock keeps running: every group
        // still open closes at its *own* deadline (`advance` drains the
        // remaining deadlines and dispatches in time order), not at the
        // last arrival.
        sim.advance(&mut core, f64::INFINITY);
        debug_assert_eq!(core.conservation(), (0, 0), "the replay drained the core");
        ServiceReport {
            scale_events,
            migration_s,
            ..core.into_report(self.engine.name())
        }
    }

    /// [`replay`](Self::replay) driven entirely by the stream's own
    /// annotations: each query runs under its tenant's `(k, nprobe)` plan
    /// ([`option_plan`](QueryStream::option_plan)) tagged with its tenant
    /// ([`tenant_of`](QueryStream::tenant_of)) — the natural entry point for
    /// a [`MultiTenantSpec`](annkit::workload::MultiTenantSpec) stream.
    /// Queries without a plan entry fall back to the default options.
    pub fn replay_planned(&mut self, stream: &QueryStream) -> ServiceReport {
        self.replay(stream, |i| {
            let (k, nprobe) = stream
                .option_plan
                .get(i)
                .copied()
                .unwrap_or_else(|| (QueryOptions::default().k, QueryOptions::default().nprobe));
            QueryOptions::new(k, nprobe).with_tenant(stream.tenant(i))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use annkit::ivf::{IvfPqIndex, IvfPqParams};
    use annkit::synthetic::{SyntheticDataset, SyntheticSpec};
    use annkit::workload::StreamSpec;
    use baselines::cpu::CpuFaissEngine;
    use std::sync::OnceLock;

    fn fixture() -> &'static (SyntheticDataset, IvfPqIndex) {
        static FIX: OnceLock<(SyntheticDataset, IvfPqIndex)> = OnceLock::new();
        FIX.get_or_init(|| {
            let dataset = SyntheticSpec::sift_like(1500)
                .with_clusters(12)
                .with_seed(31)
                .generate_with_meta();
            let index = IvfPqIndex::train(
                &dataset.vectors,
                &IvfPqParams::new(12, 16).with_train_size(600),
                3,
            );
            (dataset, index)
        })
    }

    fn stream(n: usize, qps: f64, repeats: f64) -> QueryStream {
        let (dataset, _) = fixture();
        StreamSpec::new(n, qps)
            .with_repeat_fraction(repeats)
            .generate(dataset)
    }

    #[test]
    fn replay_answers_every_query_or_sheds_it() {
        let (_, index) = fixture();
        let mut service = SearchService::new(CpuFaissEngine::new(index), ServiceConfig::default());
        let stream = stream(200, 50_000.0, 0.0);
        let report = service.replay(&stream, |_| QueryOptions::new(10, 4));
        assert_eq!(report.completed + report.shed, 200);
        assert_eq!(report.latencies_s.len(), report.completed);
        assert!(report.batches() > 0);
        assert!(report.sustained_qps() > 0.0);
        assert!(report.makespan_s >= stream.duration() * 0.5);
        assert!(report.engine_busy_s > 0.0);
        // Latencies are sorted, so the percentiles are monotone.
        assert!(report.p50() <= report.p99());
        assert!(report.percentile(0.0) <= report.p50());
    }

    #[test]
    fn replay_results_match_direct_execution() {
        let (_, index) = fixture();
        let mut service = SearchService::new(
            CpuFaissEngine::new(index),
            ServiceConfig {
                queue_capacity: 10_000,
                ..ServiceConfig::default()
            },
        );
        let stream = stream(60, 20_000.0, 0.0);
        let report = service.replay(&stream, |_| QueryOptions::new(5, 6));
        assert_eq!(report.shed, 0);
        let mut engine = CpuFaissEngine::new(index);
        let direct = engine.search_batch(&stream.batch.queries, 6, 5);
        for (served, expected) in report.results.iter().zip(&direct.results) {
            assert_eq!(
                served.iter().map(|n| n.id).collect::<Vec<_>>(),
                expected.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let (_, index) = fixture();
        let mut service = SearchService::new(CpuFaissEngine::new(index), ServiceConfig::default());
        let stream = stream(300, 50_000.0, 0.4);
        let report = service.replay(&stream, |_| QueryOptions::new(10, 4));
        assert!(report.cache_hits > 0, "repeats must hit the cache");
        assert!(report.cache_hit_rate() > 0.05);
        // A cached answer equals the originally computed answer.
        assert_eq!(report.completed + report.shed, 300);
    }

    #[test]
    fn mutation_free_replay_never_invalidates_and_matches_plain_replay() {
        // The satellite-2 regression: without a live-index timeline the
        // epoch machinery must be invisible — zero invalidations and
        // answers identical to the plain replay path.
        let (_, index) = fixture();
        let stream = stream(300, 50_000.0, 0.4);
        let mut plain = SearchService::new(CpuFaissEngine::new(index), ServiceConfig::default());
        let plain_report = plain.replay(&stream, |_| QueryOptions::new(10, 4));
        let frozen = annkit::mutation::SnapshotTimeline::frozen(index);
        let (mut live, accepted) =
            SearchService::new(CpuFaissEngine::new(index), ServiceConfig::default())
                .with_live_index(&frozen);
        assert!(accepted, "the CPU engine accepts timelines");
        let live_report = live.replay(&stream, |_| QueryOptions::new(10, 4));
        assert_eq!(plain_report.cache_invalidated, 0);
        assert_eq!(live_report.cache_invalidated, 0);
        assert_eq!(plain_report.cache_hits, live_report.cache_hits);
        assert_eq!(plain_report.results, live_report.results);
        assert_eq!(plain_report.latencies_s, live_report.latencies_s);
    }

    #[test]
    fn epoch_boundary_invalidates_cached_repeats() {
        use annkit::mutation::{MutableIvf, SnapshotTimeline};
        let (dataset, index) = fixture();
        // One upsert becomes visible mid-stream: repeats that cached an
        // epoch-0 answer and re-arrive after the activation must be
        // invalidated (removed + recomputed), not served stale.
        let mut live = MutableIvf::new(index);
        let mut timeline = SnapshotTimeline::new(live.snapshot());
        live.upsert(dataset.vectors.vector(0), 900_000);
        let stream = stream(400, 50_000.0, 0.5);
        timeline.install(stream.duration() / 2.0, live.snapshot());
        let (mut service, accepted) =
            SearchService::new(CpuFaissEngine::new(index), ServiceConfig::default())
                .with_live_index(&timeline);
        assert!(accepted);
        let report = service.replay(&stream, |_| QueryOptions::new(10, 4));
        assert_eq!(report.completed + report.shed, 400);
        assert!(report.cache_hits > 0, "repeats within an epoch still hit");
        assert!(
            report.cache_invalidated > 0,
            "repeats across the epoch boundary must invalidate"
        );
    }

    #[test]
    fn tiny_queue_sheds_under_overload() {
        let (_, index) = fixture();
        let config = ServiceConfig {
            queue_capacity: 4,
            batcher: BatchFormerConfig {
                max_batch: 64,
                max_delay_s: 10.0, // deadlines never fire mid-stream
            },
            cache_capacity: 0,
            cache_lookup_s: 0.0,
            slo_p99_s: None,
            max_chunk: None,
        };
        let mut service = SearchService::new(CpuFaissEngine::new(index), config);
        let stream = stream(100, 1.0e9, 0.0); // everything arrives at once
        let report = service.replay(&stream, |_| QueryOptions::new(10, 4));
        assert!(report.shed > 0, "overload must shed");
        assert!(report.completed >= 4, "admitted queries still complete");
    }

    #[test]
    #[should_panic(expected = "max_chunk must allow at least one query")]
    fn zero_max_chunk_is_rejected() {
        let (_, index) = fixture();
        let config = ServiceConfig {
            max_chunk: Some(0),
            ..ServiceConfig::default()
        };
        let mut service = SearchService::new(CpuFaissEngine::new(index), config);
        let _ = service.replay(&stream(10, 1000.0, 0.0), |_| QueryOptions::new(10, 4));
    }

    #[test]
    fn fully_shed_run_reports_total_slo_miss() {
        // The shed-accounting regression: a replay that sheds everything must
        // report a 100 % SLO miss fraction — shed queries received no answer,
        // which is the worst possible latency, not a free pass.
        let report = ServiceReport {
            engine: "test".to_string(),
            policy: "fixed".to_string(),
            slo_p99_s: Some(1.0),
            controller_adjustments: 0,
            final_batcher: BatchFormerConfig::default(),
            completed: 0,
            shed: 50,
            cache_hits: 0,
            cache_misses: 0,
            cache_invalidated: 0,
            size_closed_batches: 0,
            deadline_closed_batches: 0,
            dispatched_chunks: 0,
            split_batches: 0,
            engine_busy_s: 0.0,
            makespan_s: 0.0,
            latencies_s: Vec::new(),
            results: Vec::new(),
            outcomes: Vec::new(),
            degraded: 0,
            hedged: 0,
            redispatched: 0,
            scale_events: 0,
            migration_s: 0.0,
            split: LatencySplit::default(),
            tenants: Vec::new(),
        };
        assert_eq!(report.slo_miss_fraction(), 1.0);
        assert!(!report.meets_slo());
        // Sheds count even without an explicit SLO target...
        let unslod = ServiceReport {
            slo_p99_s: None,
            ..report.clone()
        };
        assert_eq!(unslod.slo_miss_fraction(), 1.0);
        // ...though SLO attainment stays vacuous without a target.
        assert!(unslod.meets_slo());
    }

    #[test]
    fn shed_queries_count_as_slo_misses_in_a_replay() {
        let (dataset, index) = fixture();
        let config = ServiceConfig {
            queue_capacity: 4,
            batcher: BatchFormerConfig {
                max_batch: 64,
                max_delay_s: 10.0, // deadlines never fire mid-stream
            },
            cache_capacity: 0,
            cache_lookup_s: 0.0,
            slo_p99_s: None,
            max_chunk: None,
        };
        let mut service = SearchService::new(CpuFaissEngine::new(index), config);
        // Everything arrives at once with a generous SLO: admitted queries
        // complete comfortably, yet the report must still charge every shed.
        let stream = StreamSpec::new(100, 1.0e9)
            .with_slo_p99(1e9)
            .generate(dataset);
        let report = service.replay(&stream, |_| QueryOptions::new(10, 4));
        assert!(report.shed > 0, "overload must shed");
        let expected = report.shed as f64 / (report.completed + report.shed) as f64;
        assert!((report.slo_miss_fraction() - expected).abs() < 1e-12);
        assert!(
            !report.meets_slo(),
            "shedding {} of {} queries cannot meet the SLO",
            report.shed,
            report.completed + report.shed
        );
    }

    #[test]
    fn slo_attainment_is_reported_from_the_stream_annotation() {
        let (dataset, index) = fixture();
        let mut service = SearchService::new(CpuFaissEngine::new(index), ServiceConfig::default());
        // An impossibly tight SLO: everything misses.
        let tight = StreamSpec::new(150, 30_000.0)
            .with_slo_p99(1e-12)
            .generate(dataset);
        let report = service.replay(&tight, |_| QueryOptions::new(10, 4));
        assert_eq!(report.slo_p99_s, Some(1e-12));
        assert_eq!(report.policy, "fixed");
        assert!(!report.meets_slo());
        assert!(report.slo_miss_fraction() > 0.99);
        // An impossibly loose SLO: everything fits.
        let loose = StreamSpec::new(150, 30_000.0)
            .with_slo_p99(1e9)
            .generate(dataset);
        let report = service.replay(&loose, |_| QueryOptions::new(10, 4));
        assert!(report.meets_slo());
        assert_eq!(report.slo_miss_fraction(), 0.0);
        // No SLO anywhere: attainment is vacuous.
        let plain = StreamSpec::new(150, 30_000.0).generate(dataset);
        let report = service.replay(&plain, |_| QueryOptions::new(10, 4));
        assert_eq!(report.slo_p99_s, None);
        assert!(report.meets_slo());
        assert_eq!(report.slo_miss_fraction(), 0.0);
    }

    #[test]
    fn service_config_slo_overrides_the_stream_annotation() {
        let (dataset, index) = fixture();
        let mut service = SearchService::new(
            CpuFaissEngine::new(index),
            ServiceConfig {
                slo_p99_s: Some(2.0),
                ..ServiceConfig::default()
            },
        );
        let stream = StreamSpec::new(60, 30_000.0)
            .with_slo_p99(1e-12)
            .generate(dataset);
        let report = service.replay(&stream, |_| QueryOptions::new(10, 4));
        assert_eq!(report.slo_p99_s, Some(2.0));
    }

    #[test]
    fn adaptive_policy_steers_the_former_and_is_reported() {
        use crate::controller::SloController;
        let (dataset, index) = fixture();
        let slo = 5e-3;
        let mut service = SearchService::new(CpuFaissEngine::new(index), ServiceConfig::default())
            .with_policy(Box::new(SloController::for_slo(slo)));
        let initial = service.policy.current(TenantId::DEFAULT);
        let stream = StreamSpec::new(400, 20_000.0)
            .with_slo_p99(slo)
            .generate(dataset);
        let report = service.replay(&stream, |_| QueryOptions::new(10, 4));
        assert_eq!(report.policy, "adaptive-slo");
        assert_eq!(report.completed + report.shed, 400);
        assert!(
            report.controller_adjustments > 0,
            "the controller never moved"
        );
        assert!(
            report.final_batcher.max_delay_s != initial.max_delay_s,
            "the final window should differ from the initial one"
        );
        // The controller's answers equal the fixed policy's: batching shape
        // changes latency, never correctness.
        let mut fixed = SearchService::new(CpuFaissEngine::new(index), ServiceConfig::default());
        let fixed_report = fixed.replay(&stream, |_| QueryOptions::new(10, 4));
        for (a, b) in report.results.iter().zip(&fixed_report.results) {
            if a.is_empty() || b.is_empty() {
                continue; // shed under one policy but not the other
            }
            assert_eq!(
                a.iter().map(|n| n.id).collect::<Vec<_>>(),
                b.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn multi_tenant_replay_reports_per_tenant_rows() {
        use annkit::workload::{MultiTenantSpec, TenantId, TenantSpec};
        let (dataset, index) = fixture();
        let spec = MultiTenantSpec::new()
            .with_tenant(
                TenantSpec::new(
                    TenantId(1),
                    StreamSpec::new(60, 20_000.0).with_slo_p99(0.05),
                )
                .with_name("tight")
                .with_weight(2)
                .with_option_mix(vec![(10, 4)]),
            )
            .with_tenant(
                TenantSpec::new(
                    TenantId(2),
                    StreamSpec::new(140, 50_000.0).with_slo_p99(5.0),
                )
                .with_name("batchy")
                .with_option_mix(vec![(10, 8), (20, 8)]),
            );
        let stream = spec.generate(dataset);
        let mut service = SearchService::new(CpuFaissEngine::new(index), ServiceConfig::default());
        let report = service.replay_planned(&stream);
        assert_eq!(report.completed + report.shed, 200);
        assert_eq!(report.tenants.len(), 2);
        let t1 = report.tenant(TenantId(1)).expect("tight row");
        let t2 = report.tenant(TenantId(2)).expect("batchy row");
        assert_eq!((t1.name.as_str(), t1.weight), ("tight", 2));
        assert_eq!(t1.slo_p99_s, Some(0.05));
        assert_eq!(t2.slo_p99_s, Some(5.0));
        // Per-tenant conservation, and the rows add up to the aggregate.
        assert_eq!(t1.completed + t1.shed, 60);
        assert_eq!(t2.completed + t2.shed, 140);
        assert_eq!(t1.completed + t2.completed, report.completed);
        assert_eq!(t1.shed + t2.shed, report.shed);
        assert_eq!(t1.latencies_s.len(), t1.completed);
        // The aggregate SLO is the tightest tenant's.
        assert_eq!(report.slo_p99_s, Some(0.05));
        // Answer shape follows each tenant's own option plan.
        let mut seen = vec![0usize; stream.len()];
        for (i, r) in report.results.iter().enumerate() {
            seen[i] = r.len();
            if r.is_empty() {
                continue; // shed
            }
            let expected_k = stream.option_plan[i].0;
            assert_eq!(r.len(), expected_k);
        }
    }

    #[test]
    fn controller_bank_steers_tenant_windows_independently() {
        use crate::controller::ControllerBank;
        use annkit::workload::{MultiTenantSpec, TenantId, TenantSpec};
        let (dataset, index) = fixture();
        let tight_slo = 2e-3;
        let loose_slo = 10.0;
        let spec = MultiTenantSpec::new()
            .with_tenant(
                TenantSpec::new(
                    TenantId(1),
                    StreamSpec::new(150, 30_000.0).with_slo_p99(tight_slo),
                )
                .with_option_mix(vec![(10, 4)]),
            )
            .with_tenant(
                TenantSpec::new(
                    TenantId(2),
                    StreamSpec::new(150, 30_000.0).with_slo_p99(loose_slo),
                )
                .with_option_mix(vec![(10, 8)]),
            );
        let stream = spec.generate(dataset);
        let bank =
            ControllerBank::for_profiles(&stream.tenant_profiles, BatchFormerConfig::default());
        let mut service = SearchService::new(CpuFaissEngine::new(index), ServiceConfig::default())
            .with_policy(Box::new(bank));
        let report = service.replay_planned(&stream);
        assert_eq!(report.policy, "adaptive-tenant");
        let t1 = report.tenant(TenantId(1)).expect("tight row");
        let t2 = report.tenant(TenantId(2)).expect("loose row");
        // Each tenant ends under a window derived from its own SLO: the
        // SLO-derived bounds alone separate them by orders of magnitude.
        assert!(
            t1.final_batcher.max_delay_s <= tight_slo / 2.0 + 1e-12,
            "tight tenant's window {} exceeds its SLO-derived cap",
            t1.final_batcher.max_delay_s
        );
        assert!(
            t2.final_batcher.max_delay_s >= loose_slo / 100.0,
            "loose tenant's window {} fell below its SLO-derived floor",
            t2.final_batcher.max_delay_s
        );
        assert!(t2.final_batcher.max_delay_s > t1.final_batcher.max_delay_s);
    }

    #[test]
    fn trailing_batch_closes_at_its_deadline_not_at_stream_end() {
        // The end-of-stream regression: a batch whose close deadline fires
        // after the final arrival must still close at that deadline on the
        // replay clock — its members' latency is window + service, exactly
        // like mid-stream deadline closes.
        let (dataset, index) = fixture();
        let window = 0.5;
        let config = ServiceConfig {
            batcher: BatchFormerConfig {
                max_batch: 64,
                max_delay_s: window,
            },
            cache_capacity: 0,
            ..ServiceConfig::default()
        };
        let mut service = SearchService::new(CpuFaissEngine::new(index), config);
        let stream = StreamSpec::new(1, 100.0).generate(dataset);
        let report = service.replay(&stream, |_| QueryOptions::new(10, 4));
        assert_eq!(report.completed, 1);
        assert_eq!(report.deadline_closed_batches, 1, "closed by its deadline");
        let latency = report.latencies_s[0];
        assert!(
            latency >= window,
            "the single query must wait out its window: {latency} < {window}"
        );
        assert!(
            latency <= window + 0.1,
            "latency {latency} should be ≈ window + service, not inflated"
        );
        assert!(report.makespan_s >= stream.duration() + window);
    }

    #[test]
    fn unprofiled_tenants_are_not_judged_by_another_tenants_slo() {
        // The reporting regression: a tenant the stream never announced
        // (invented by the options closure) used to inherit the stream-level
        // SLO — the *tightest profiled tenant's* target — poisoning its
        // meets_slo. It must be judged by the explicit config override or
        // not at all.
        use annkit::workload::{MultiTenantSpec, TenantId, TenantSpec};
        let (dataset, index) = fixture();
        let spec = MultiTenantSpec::new().with_tenant(
            TenantSpec::new(
                TenantId(1),
                // An impossibly tight SLO: whoever is judged by it misses.
                StreamSpec::new(80, 30_000.0).with_slo_p99(1e-12),
            )
            .with_name("tight")
            .with_option_mix(vec![(10, 4)]),
        );
        let stream = spec.generate(dataset);
        assert_eq!(
            stream.slo_p99_s,
            Some(1e-12),
            "stream SLO is the tight tenant's"
        );
        let mut service = SearchService::new(CpuFaissEngine::new(index), ServiceConfig::default());
        // Route half the traffic to an invented tenant the stream knows
        // nothing about.
        let report = service.replay(&stream, |i| {
            let tenant = if i % 2 == 0 { TenantId(1) } else { TenantId(9) };
            QueryOptions::new(10, 4).with_tenant(tenant)
        });
        let profiled = report.tenant(TenantId(1)).expect("profiled row");
        let invented = report.tenant(TenantId(9)).expect("invented row");
        assert_eq!(profiled.slo_p99_s, Some(1e-12));
        assert!(!profiled.meets_slo(), "the tight tenant honestly misses");
        assert_eq!(
            invented.slo_p99_s, None,
            "an unprofiled tenant is never judged by the tight tenant's SLO"
        );
        assert!(
            invented.meets_slo(),
            "no target of its own: attainment is vacuous, not poisoned"
        );

        // With an explicit config override, the invented tenant is judged
        // by exactly that override.
        let mut service = SearchService::new(
            CpuFaissEngine::new(index),
            ServiceConfig {
                slo_p99_s: Some(2.0),
                ..ServiceConfig::default()
            },
        );
        let report = service.replay(&stream, |i| {
            let tenant = if i % 2 == 0 { TenantId(1) } else { TenantId(9) };
            QueryOptions::new(10, 4).with_tenant(tenant)
        });
        let invented = report.tenant(TenantId(9)).expect("invented row");
        assert_eq!(invented.slo_p99_s, Some(2.0));
    }

    #[test]
    fn chunked_dispatch_bounds_cross_tenant_head_of_line_blocking() {
        // A bulk tenant's huge batch closes just before a tight tenant's
        // single query. Whole-batch close-order dispatch makes the tight
        // query wait for the entire bulk batch; priority-chunked dispatch
        // bounds its wait to one chunk — and answers stay identical.
        use annkit::workload::{MultiTenantSpec, TenantId, TenantSpec};
        let (dataset, index) = fixture();
        let spec = MultiTenantSpec::new()
            .with_tenant(
                TenantSpec::new(TenantId(1), StreamSpec::new(4, 2.0).with_slo_p99(0.05))
                    .with_name("tight")
                    .with_option_mix(vec![(10, 4)]),
            )
            .with_tenant(
                TenantSpec::new(TenantId(2), StreamSpec::new(400, 400.0))
                    .with_name("bulk")
                    .with_option_mix(vec![(10, 8)]),
            );
        let stream = spec.generate(dataset);
        // A heavy engine (large work scale) makes bulk batches expensive.
        let build = || CpuFaissEngine::new(index).with_work_scale(2e4);
        let config = ServiceConfig {
            batcher: BatchFormerConfig {
                max_batch: 256,
                max_delay_s: 0.5,
            },
            cache_capacity: 0,
            ..ServiceConfig::default()
        };
        let mut fifo = SearchService::new(build(), config);
        let fifo_report = fifo.replay_planned(&stream);
        let mut chunked = SearchService::new(
            build(),
            ServiceConfig {
                max_chunk: Some(16),
                ..config
            },
        );
        let chunked_report = chunked.replay_planned(&stream);
        assert!(chunked_report.policy.ends_with("-chunked"));
        assert!(
            chunked_report.split_batches > 0,
            "bulk batches must actually be split"
        );
        assert!(chunked_report.dispatched_chunks > chunked_report.batches());
        let fifo_tight = fifo_report.tenant(TenantId(1)).expect("tight row");
        let chunked_tight = chunked_report.tenant(TenantId(1)).expect("tight row");
        assert!(
            chunked_tight.p99() < fifo_tight.p99(),
            "chunked dispatch must cut the tight tenant's tail: {} vs {}",
            chunked_tight.p99(),
            fifo_tight.p99()
        );
        // Dispatch shape never changes answers: every query answered under
        // both disciplines got the same neighbors.
        for (a, b) in fifo_report.results.iter().zip(&chunked_report.results) {
            if a.is_empty() || b.is_empty() {
                continue; // shed under one discipline but not the other
            }
            assert_eq!(
                a.iter().map(|n| n.id).collect::<Vec<_>>(),
                b.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn mixed_options_are_batched_separately_but_all_answered() {
        let (_, index) = fixture();
        let mut service = SearchService::new(CpuFaissEngine::new(index), ServiceConfig::default());
        let stream = stream(120, 30_000.0, 0.0);
        let report = service.replay(&stream, |i| {
            if i % 2 == 0 {
                QueryOptions::new(5, 4)
            } else {
                QueryOptions::new(20, 8)
            }
        });
        assert_eq!(report.completed + report.shed, 120);
        for (i, r) in report.results.iter().enumerate() {
            if r.is_empty() {
                continue; // shed
            }
            assert_eq!(r.len(), if i % 2 == 0 { 5 } else { 20 });
        }
    }
}
