//! The serving core: every serving semantic, once, with no clock and no
//! engine.
//!
//! [`ServingCore`] owns the [`AdmissionQueue`], the [`ResultCache`], the
//! [`BatchFormer`], the dispatch [`ChunkQueue`], the per-tenant SLO table,
//! the live-index epoch schedule and the ledger every report is folded from;
//! it borrows the [`BatchPolicy`] that steers it. It never reads a clock and
//! never calls an engine — a *driver* tells it what time it is and hands it
//! engine responses:
//!
//! * [`tick`](ServingCore::tick) — deliver the policy feedback the clock has
//!   caught up with, then re-steer the former from the policy;
//! * [`close_due`](ServingCore::close_due) /
//!   [`next_deadline`](ServingCore::next_deadline) — close batching windows;
//! * [`arrive`](ServingCore::arrive) — release finished seats, then answer
//!   the query from the cache, shed it, or queue it (a size-close submits);
//! * [`pop_chunk`](ServingCore::pop_chunk) / [`request_for`] — the next
//!   chunk to execute and its engine request;
//! * [`complete`](ServingCore::complete) — an engine response, with its
//!   start and finish times. The finish may lie in the driver's future:
//!   cache entries carry it as `ready_at`, and the feedback and the seat
//!   release it causes stay deferred until the clock passes it;
//! * [`into_report`](ServingCore::into_report) — the one report.
//!
//! The ledger is two record types: a `QueryRecord` per offered query,
//! written when its fate is decided (shed, answered from the cache, or
//! answered by a chunk, with its close, start and finish times), and a
//! `ChunkRecord` per completed chunk, in completion order. The report is one
//! fold over both. Policy feedback, seat releases and SLO outcomes wait for
//! the clock in one queue type, `Deferred`, each drained where it is due.
//!
//! Two drivers step it: [`SearchService::replay`] on a simulated clock with
//! one serial virtual engine, and `upanns_runtime::run_pipeline` from one
//! control thread fed by N engine worker threads.
//!
//! [`SearchService::replay`]: crate::service::SearchService::replay

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::vec_deque::{Drain, VecDeque};

use crate::admission::AdmissionQueue;
use crate::batcher::{BatchFormer, CloseReason, FormedBatch, PendingQuery};
use crate::cache::ResultCache;
use crate::controller::BatchPolicy;
use crate::dispatch::{ChunkQueue, DispatchOrder, QueuedChunk};
use crate::service::{LatencySplit, ServiceConfig, ServiceReport, TenantReport};
use annkit::topk::Neighbor;
use annkit::workload::QueryStream;
use baselines::engine::{QueryOptions, SearchRequest, SearchResponse, TenantId};

/// Deliveries held back until the driver's clock passes their time (the
/// causality guarantee of the replay), kept in time order, stable on ties.
struct Deferred<T>(VecDeque<(f64, T)>);

impl<T> Deferred<T> {
    fn push(&mut self, at: f64, item: T) {
        let i = self.0.partition_point(|&(t, _)| t <= at);
        self.0.insert(i, (at, item));
    }

    /// Removes and yields, in time order, every delivery due by `now`.
    fn due(&mut self, now: f64) -> Drain<'_, (f64, T)> {
        let n = self.0.partition_point(|&(t, _)| t <= now);
        self.0.drain(..n)
    }
}

/// A completion a policy observes, routed to its tenant's controller.
#[derive(Clone, Copy)]
enum Observed {
    Query { latency_s: f64 },
    Batch { wait_s: f64 },
}

/// How an offered query ended.
#[derive(Clone, Copy)]
enum Fate {
    Shed,
    Cached {
        finish: f64,
    },
    Chunk {
        closed_at: f64,
        start: f64,
        finish: f64,
    },
}

impl Fate {
    /// When the answer was ready (`None`: no answer).
    fn finish(self) -> Option<f64> {
        match self {
            Fate::Shed => None,
            Fate::Cached { finish } | Fate::Chunk { finish, .. } => Some(finish),
        }
    }
}

/// The ledger's record of one offered query, written when its fate is
/// decided — so the records stand in completion order.
struct QueryRecord {
    index: usize,
    arrival: f64,
    tenant: TenantId,
    fate: Fate,
    neighbors: Vec<Neighbor>,
}

impl QueryRecord {
    fn latency(&self) -> Option<f64> {
        Some(self.fate.finish()? - self.arrival)
    }
}

/// The ledger's record of one completed chunk, in completion order.
struct ChunkRecord {
    /// Its batch's close reason, on the batch's lead chunk only.
    closed: Option<CloseReason>,
    seconds: f64,
    degraded: u64,
    hedged: u64,
    redispatched: u64,
}

/// The engine request of one dispatched chunk. It is stamped with the
/// batch's *close* time — the one timestamp every driver reproduces exactly
/// — so an engine with a fault schedule evaluates host liveness identically
/// under each of them. Per-query arrivals ride along so a live-mutation
/// engine resolves each query's snapshot at its own arrival, keeping every
/// answer a pure function of (query, arrival) no matter how cache timing
/// happened to shape this batch.
pub fn request_for(stream: &QueryStream, chunk: &QueuedChunk, id: u64) -> SearchRequest {
    let members = &chunk.batch.members;
    let indices: Vec<usize> = members.iter().map(|m| m.stream_index).collect();
    SearchRequest::new(
        stream.batch.queries.gather(&indices),
        members.iter().map(|m| m.options).collect(),
    )
    .with_id(id)
    .with_at(chunk.batch.closed_at)
    .with_arrivals(members.iter().map(|m| m.arrival_s).collect())
}

fn sorted(mut latencies: Vec<f64>) -> Vec<f64> {
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    latencies
}

/// The clock-free, engine-free serving state machine — see the module docs.
pub struct ServingCore<'a> {
    stream: &'a QueryStream,
    policy: &'a mut dyn BatchPolicy,
    /// The installed timeline's `(activation, epoch)` schedule — empty for a
    /// frozen index, where every query and cache entry sits at epoch 0.
    epochs: &'a [(f64, u64)],
    config: ServiceConfig,
    queue: AdmissionQueue,
    cache: ResultCache,
    former: BatchFormer,
    dispatch: ChunkQueue,
    /// Tenants whose windows the policy steers: the announced profiles plus
    /// any tenant an arrival's options invent mid-stream.
    tenants_seen: Vec<TenantId>,
    feedback: Deferred<(TenantId, Observed)>,
    /// Admitted queries occupy the waiting room until their chunk
    /// *finishes*, so an engine backlog exerts backpressure on admission.
    releases: Deferred<(TenantId, usize)>,
    /// SLO outcomes (`missed`) no autoscaler has consumed yet.
    slo_events: Deferred<bool>,
    queries: Vec<QueryRecord>,
    chunks: Vec<ChunkRecord>,
}

impl<'a> ServingCore<'a> {
    /// An idle core over `stream`: tenants registered by weight, every
    /// window at the policy's current conditions, dispatch chunked in
    /// SLO-urgency order iff [`ServiceConfig::max_chunk`] is set.
    ///
    /// # Panics
    /// Panics if `config.max_chunk` is `Some(0)`.
    pub fn new(
        stream: &'a QueryStream,
        config: ServiceConfig,
        policy: &'a mut dyn BatchPolicy,
        epochs: &'a [(f64, u64)],
    ) -> Self {
        assert_ne!(
            config.max_chunk,
            Some(0),
            "max_chunk must allow at least one query"
        );
        let mut queue = AdmissionQueue::new(config.queue_capacity);
        let mut former = BatchFormer::new(policy.current(TenantId::DEFAULT));
        for p in &stream.tenant_profiles {
            queue.register(p.id, p.weight);
            former.set_tenant_config(p.id, policy.current(p.id));
        }
        Self {
            stream,
            epochs,
            queue,
            cache: ResultCache::new(config.cache_capacity),
            former,
            dispatch: ChunkQueue::new(match config.max_chunk {
                Some(_) => DispatchOrder::SloUrgency,
                None => DispatchOrder::CloseOrder,
            }),
            tenants_seen: stream.tenant_profiles.iter().map(|p| p.id).collect(),
            feedback: Deferred(VecDeque::new()),
            releases: Deferred(VecDeque::new()),
            slo_events: Deferred(VecDeque::new()),
            queries: Vec::with_capacity(stream.len()),
            chunks: Vec::new(),
            config,
            policy,
        }
    }

    /// Delivers every queued observation the clock has caught up with to
    /// the policy, in completion-time order (engine finishes and cache-hit
    /// times interleave), then lets the policy re-steer every known tenant's
    /// close conditions. The former's default window governs no group:
    /// [`arrive`](Self::arrive) registers a tenant before its first query
    /// reaches the former.
    pub fn tick(&mut self, now: f64) {
        for (at, (tenant, observed)) in self.feedback.due(now) {
            match observed {
                Observed::Query { latency_s } => self.policy.observe(tenant, at, latency_s),
                Observed::Batch { wait_s } => self.policy.observe_batch(tenant, at, wait_s),
            }
        }
        for &t in &self.tenants_seen {
            self.former.set_tenant_config(t, self.policy.current(t));
        }
    }

    /// When the earliest open batching window closes, if any is open.
    pub fn next_deadline(&self) -> Option<f64> {
        self.former.next_deadline()
    }

    /// Closes every window whose deadline is no later than `now` (each at
    /// its own deadline) and submits the batches for dispatch.
    pub fn close_due(&mut self, now: f64) {
        for batch in self.former.due(now) {
            self.submit(batch);
        }
    }

    /// Enqueues a closed batch for dispatch under its tenant's SLO deadline
    /// and the service's chunk cap.
    fn submit(&mut self, batch: FormedBatch) {
        let slo = self.slo_of(batch.options.tenant);
        self.dispatch
            .submit(batch, slo, self.config.max_chunk.unwrap_or(usize::MAX));
    }

    /// The SLO a tenant's dispatch urgency and report row are judged by: its
    /// profile's own target, else the config override — never the
    /// stream-level SLO, which is the tightest *profiled* tenant's target.
    fn slo_of(&self, tenant: TenantId) -> Option<f64> {
        let own = self.stream.profile(tenant).and_then(|p| p.slo_p99_s);
        own.or(self.config.slo_p99_s)
    }

    /// Processes query `index` of the stream arriving at `now`: frees the
    /// waiting room of every chunk finished by now, then answers the query
    /// from the cache (a repeat arriving before the original answer is ready
    /// waits for it; afterwards the hit costs only the lookup), sheds it at
    /// the door, or adds it to its batching window.
    pub fn arrive(&mut self, now: f64, index: usize, options: QueryOptions) {
        for (_, (tenant, n)) in self.releases.due(now) {
            self.queue.release(tenant, n);
        }
        let tenant = options.tenant;
        if !self.tenants_seen.contains(&tenant) {
            self.tenants_seen.push(tenant);
            self.former
                .set_tenant_config(tenant, self.policy.current(tenant));
        }
        if let Some((cached, ready_at)) = self.cache.lookup_at_epoch(
            self.stream.batch.queries.vector(index),
            &options,
            ResultCache::epoch_at(self.epochs, now),
        ) {
            let finish = now.max(ready_at) + self.config.cache_lookup_s;
            self.record(index, tenant, now, Fate::Cached { finish }, cached);
        } else if !self.queue.try_admit(tenant) {
            // Charged to this tenant — and recorded: a query that got no
            // answer is the worst SLO outcome.
            self.record(index, tenant, now, Fate::Shed, Vec::new());
        } else {
            let pending = PendingQuery {
                arrival_s: now,
                stream_index: index,
                options,
            };
            if let Some(batch) = self.former.push(pending, now) {
                self.submit(batch);
            }
        }
    }

    /// Writes one query's fate to the ledger and defers what it causes: an
    /// SLO outcome and, for an answer, the policy's latency observation.
    fn record(
        &mut self,
        index: usize,
        tenant: TenantId,
        arrival: f64,
        fate: Fate,
        neighbors: Vec<Neighbor>,
    ) {
        match fate.finish() {
            Some(finish) => {
                let latency_s = finish - arrival;
                let missed = self.slo_of(tenant).is_some_and(|s| latency_s > s);
                self.slo_events.push(finish, missed);
                self.feedback
                    .push(finish, (tenant, Observed::Query { latency_s }));
            }
            None => self.slo_events.push(arrival, true),
        }
        self.queries.push(QueryRecord {
            index,
            arrival,
            tenant,
            fate,
            neighbors,
        });
    }

    /// The dispatch discipline [`ServiceConfig::max_chunk`] selected.
    pub(crate) fn order(&self) -> DispatchOrder {
        self.dispatch.order()
    }

    /// When the earliest queued chunk became dispatchable
    /// ([`ChunkQueue::next_ready_at`]).
    pub(crate) fn next_ready_at(&self) -> Option<f64> {
        self.dispatch.next_ready_at()
    }

    /// The chunk to execute next among those ready by `ready_by`
    /// ([`ChunkQueue::pop_ready`]).
    pub fn pop_chunk(&mut self, ready_by: f64) -> Option<QueuedChunk> {
        self.dispatch.pop_ready(ready_by)
    }

    /// Accounts one executed chunk that occupied an engine over
    /// `[start, finish]`: the completion, the deferred seat release and
    /// policy feedback, the cache entries (available from `finish` — the
    /// ready-at guard keeps repeats honest) and the per-query answers.
    pub fn complete(
        &mut self,
        chunk: QueuedChunk,
        response: SearchResponse,
        start: f64,
        finish: f64,
    ) {
        let batch = chunk.batch;
        // Chunks are tenant-pure (the former never mixes tenants and the
        // queue splits batches without mixing), so the options name the one
        // tenant all feedback and the admission release belong to.
        let tenant = batch.options.tenant;
        self.chunks.push(ChunkRecord {
            closed: chunk.lead.then_some(batch.reason),
            seconds: response.seconds,
            degraded: response.stats.degraded,
            hedged: response.stats.hedged,
            redispatched: response.stats.redispatched,
        });
        self.releases.push(finish, (tenant, batch.len()));
        // The time the batch sat behind a busy engine after it closed — the
        // saturation signal an adaptive policy steers by. Only the *lead*
        // chunk reports it: trailing chunks queue behind their own
        // siblings, and that self-inflicted wait is not engine saturation
        // (a controller reading it as such would widen the window and make
        // the blocking worse).
        if chunk.lead {
            let wait_s = start - batch.closed_at;
            self.feedback
                .push(finish, (tenant, Observed::Batch { wait_s }));
        }
        let fate = Fate::Chunk {
            closed_at: batch.closed_at,
            start,
            finish,
        };
        for (member, neighbors) in batch.members.iter().zip(response.results) {
            // The answer was computed against the snapshot active at the
            // query's own arrival — stamp the entry with that epoch so a
            // later-epoch arrival invalidates it (and recomputes byte-
            // identically) instead of serving a stale answer.
            self.cache.insert_at_epoch(
                self.stream.batch.queries.vector(member.stream_index),
                &member.options,
                neighbors.clone(),
                finish,
                ResultCache::epoch_at(self.epochs, member.arrival_s),
            );
            self.record(
                member.stream_index,
                tenant,
                member.arrival_s,
                fate,
                neighbors,
            );
        }
    }

    /// Removes and returns, in time order, the `(time, missed)` SLO outcomes
    /// the clock has caught up with — what an autoscaler observes.
    pub(crate) fn take_slo_events(&mut self, now: f64) -> Vec<(f64, bool)> {
        self.slo_events.due(now).collect()
    }

    /// `(lost, duplicated)`: offered queries neither answered nor shed so
    /// far, and answers recorded for an already-answered query. Both are 0
    /// once a correct driver has drained the core.
    pub fn conservation(&self) -> (usize, usize) {
        let mut answered = vec![false; self.stream.len()];
        let (mut distinct, mut duplicated, mut shed) = (0, 0, 0);
        for q in &self.queries {
            match q.fate {
                Fate::Shed => shed += 1,
                _ if std::mem::replace(&mut answered[q.index], true) => duplicated += 1,
                _ => distinct += 1,
            }
        }
        (
            self.stream.len().saturating_sub(distinct + shed),
            duplicated,
        )
    }

    /// Delivers the remaining feedback (so the reported controller state
    /// reflects every observation) and folds the report from the ledger. The
    /// core knows no engine and no autoscaler: `engine` names the former,
    /// and `scale_events` / `migration_s` are left at zero for the driver.
    pub fn into_report(mut self, engine: &str) -> ServiceReport {
        self.tick(f64::INFINITY);
        let mut split = LatencySplit::default();
        for q in &self.queries {
            match q.fate {
                Fate::Shed => {}
                Fate::Cached { finish } => split.cache_s += finish - q.arrival,
                Fate::Chunk {
                    closed_at,
                    start,
                    finish,
                } => {
                    split.batch_wait_s += closed_at - q.arrival;
                    split.dispatch_wait_s += start - closed_at;
                    split.engine_service_s += finish - start;
                }
            }
        }
        // A duplicate answer never overwrites the first: fill from the last
        // record back.
        let mut results = vec![Vec::new(); self.stream.len()];
        for q in self.queries.iter_mut().rev() {
            results[q.index] = std::mem::take(&mut q.neighbors);
        }
        let latencies_of = |tenant: Option<TenantId>| {
            let of = self
                .queries
                .iter()
                .filter(|q| tenant.is_none_or(|t| q.tenant == t));
            sorted(of.filter_map(QueryRecord::latency).collect())
        };
        // Per-tenant rows, in profile order (tenants invented mid-stream
        // follow, in first-seen order).
        let tenants = self
            .tenants_seen
            .iter()
            .map(|&t| {
                let profile = self.stream.profile(t);
                let latencies_s = latencies_of(Some(t));
                TenantReport {
                    id: t,
                    name: profile.map_or_else(|| t.to_string(), |p| p.name.clone()),
                    weight: profile.map_or(1, |p| p.weight),
                    // Every tenant is measured against its own SLO (or the
                    // explicit config override) — never against another
                    // tenant's target; see the field docs and `slo_of`.
                    slo_p99_s: self.slo_of(t),
                    completed: latencies_s.len(),
                    shed: self.queue.shed_of(t) as usize,
                    latencies_s,
                    final_batcher: self.policy.current(t),
                }
            })
            .collect();
        let latencies_s = latencies_of(None);
        let chunks = &self.chunks;
        let closed = |reason| chunks.iter().filter(|c| c.closed == Some(reason)).count();
        ServiceReport {
            engine: engine.to_string(),
            policy: match self.config.max_chunk {
                Some(_) => format!("{}-chunked", self.policy.name()),
                None => self.policy.name().to_string(),
            },
            slo_p99_s: self.config.slo_p99_s.or(self.stream.slo_p99_s),
            controller_adjustments: self.policy.adjustments(),
            final_batcher: self.policy.current(TenantId::DEFAULT),
            completed: latencies_s.len(),
            shed: self.queue.shed() as usize,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_invalidated: self.cache.invalidated(),
            size_closed_batches: closed(CloseReason::Size),
            deadline_closed_batches: closed(CloseReason::Deadline),
            dispatched_chunks: self.dispatch.dispatched_chunks(),
            split_batches: self.dispatch.split_batches(),
            // A fold from +0.0 in completion order (`sum` starts at −0.0).
            engine_busy_s: chunks.iter().fold(0.0, |busy, c| busy + c.seconds),
            makespan_s: self
                .queries
                .iter()
                .filter_map(|q| q.fate.finish())
                .fold(0.0, f64::max),
            latencies_s,
            results,
            outcomes: self
                .queries
                .iter()
                .map(|q| (q.arrival, q.latency()))
                .collect(),
            degraded: chunks.iter().map(|c| c.degraded).sum(),
            hedged: chunks.iter().map(|c| c.hedged).sum(),
            redispatched: chunks.iter().map(|c| c.redispatched).sum(),
            scale_events: 0,
            migration_s: 0.0,
            split,
            tenants,
        }
    }
}
