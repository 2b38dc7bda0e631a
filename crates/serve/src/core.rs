//! The serving core: every serving semantic, once, with no clock and no
//! engine.
//!
//! [`ServingCore`] owns the [`AdmissionQueue`], the [`ResultCache`], the
//! [`BatchFormer`], the dispatch [`ChunkQueue`], the per-tenant SLO table,
//! the live-index epoch schedule and the ledger every report is built from;
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
//! Two drivers step it: [`SearchService::replay`] on a simulated clock with
//! one serial virtual engine, and `upanns_runtime::run_pipeline` from one
//! control thread fed by N engine worker threads.
//!
//! [`SearchService::replay`]: crate::service::SearchService::replay

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;

use crate::admission::AdmissionQueue;
use crate::batcher::{BatchFormer, CloseReason, FormedBatch, PendingQuery};
use crate::cache::ResultCache;
use crate::controller::BatchPolicy;
use crate::dispatch::{ChunkQueue, DispatchOrder, QueuedChunk};
use crate::service::{ServiceConfig, ServiceReport, TenantReport};
use annkit::topk::Neighbor;
use annkit::workload::QueryStream;
use baselines::engine::{QueryOptions, SearchRequest, SearchResponse, TenantId};

/// Policy feedback queued until the driver's clock catches up with the
/// completion it describes (the causality guarantee of the replay). Each
/// observation carries its tenant so a per-tenant policy bank can route it
/// to the owning controller.
#[derive(Clone, Copy)]
struct Feedback {
    at: f64,
    tenant: TenantId,
    observed: Observed,
}

#[derive(Clone, Copy)]
enum Observed {
    Query { latency_s: f64 },
    Batch { len: usize, wait_s: f64 },
}

/// The SLO each tenant's dispatch urgency and report row are judged by:
/// a profiled tenant's own target (or the config override), the config
/// override alone for tenants the stream never announced — never the
/// stream-level SLO, which is the tightest *profiled* tenant's target.
struct SloTable {
    entries: Vec<(TenantId, Option<f64>)>,
    fallback: Option<f64>,
}

impl SloTable {
    fn new(stream: &QueryStream, config_slo: Option<f64>) -> Self {
        Self {
            entries: stream
                .tenant_profiles
                .iter()
                .map(|p| (p.id, p.slo_p99_s.or(config_slo)))
                .collect(),
            fallback: config_slo,
        }
    }

    fn slo_of(&self, tenant: TenantId) -> Option<f64> {
        self.entries
            .iter()
            .find(|(id, _)| *id == tenant)
            .map_or(self.fallback, |(_, slo)| *slo)
    }
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
    chunks: ChunkQueue,
    slos: SloTable,
    /// Tenants whose windows the policy steers: the announced profiles plus
    /// any tenant an arrival's options invent mid-stream.
    tenants_seen: Vec<TenantId>,
    pending_feedback: Vec<Feedback>,
    /// `(finish, tenant, queries)` of every completed chunk, in completion
    /// order. Admitted queries occupy the waiting room until their chunk
    /// *finishes*, so an engine backlog exerts backpressure on admission.
    pending_releases: VecDeque<(f64, TenantId, usize)>,
    /// `(time, missed)` SLO outcomes no autoscaler has consumed yet.
    pending_slo_events: Vec<(f64, bool)>,
    latencies: Vec<f64>,
    tenant_latencies: Vec<(TenantId, f64)>,
    results: Vec<Vec<Neighbor>>,
    answered: Vec<bool>,
    duplicated: usize,
    outcomes: Vec<(f64, Option<f64>)>,
    degraded: u64,
    hedged: u64,
    redispatched: u64,
    busy_s: f64,
    makespan_s: f64,
    size_closed: usize,
    deadline_closed: usize,
}

impl<'a> ServingCore<'a> {
    /// An idle core over `stream`: tenants registered by weight, every
    /// window at the policy's current conditions, dispatch chunked in
    /// SLO-urgency order iff [`ServiceConfig::max_chunk`] is set.
    pub fn new(
        stream: &'a QueryStream,
        config: ServiceConfig,
        policy: &'a mut dyn BatchPolicy,
        epochs: &'a [(f64, u64)],
    ) -> Self {
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
            chunks: ChunkQueue::new(match config.max_chunk {
                Some(_) => DispatchOrder::SloUrgency,
                None => DispatchOrder::CloseOrder,
            }),
            slos: SloTable::new(stream, config.slo_p99_s),
            tenants_seen: stream.tenant_profiles.iter().map(|p| p.id).collect(),
            pending_feedback: Vec::new(),
            pending_releases: VecDeque::new(),
            pending_slo_events: Vec::new(),
            latencies: Vec::with_capacity(stream.len()),
            tenant_latencies: Vec::with_capacity(stream.len()),
            results: vec![Vec::new(); stream.len()],
            answered: vec![false; stream.len()],
            duplicated: 0,
            outcomes: Vec::with_capacity(stream.len()),
            degraded: 0,
            hedged: 0,
            redispatched: 0,
            busy_s: 0.0,
            makespan_s: 0.0,
            size_closed: 0,
            deadline_closed: 0,
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
        let mut due = Vec::new();
        self.pending_feedback.retain(|obs| {
            let is_due = obs.at <= now;
            if is_due {
                due.push(*obs);
            }
            !is_due
        });
        due.sort_by(|a, b| a.at.partial_cmp(&b.at).unwrap_or(std::cmp::Ordering::Equal));
        for Feedback {
            at,
            tenant,
            observed,
        } in due
        {
            match observed {
                Observed::Query { latency_s } => self.policy.observe(tenant, at, latency_s),
                Observed::Batch { len, wait_s } => {
                    self.policy.observe_batch(tenant, at, len, wait_s)
                }
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

    /// Counts the batch's close reason and enqueues it for dispatch, under
    /// its tenant's SLO deadline and effective chunk cap: the policy's
    /// steered cap clamped by the service-level ceiling.
    fn submit(&mut self, batch: FormedBatch) {
        match batch.reason {
            CloseReason::Size => self.size_closed += 1,
            CloseReason::Deadline => self.deadline_closed += 1,
        }
        let tenant = batch.options.tenant;
        let cap = match self.config.max_chunk {
            None => usize::MAX,
            Some(cap) => self
                .policy
                .chunk(tenant)
                .map_or(cap, |c| c.min(cap))
                .max(1),
        };
        self.chunks.submit(batch, self.slos.slo_of(tenant), cap);
    }

    /// Processes query `index` of the stream arriving at `now`: frees the
    /// waiting room of every chunk finished by now, then answers the query
    /// from the cache (a repeat arriving before the original answer is ready
    /// waits for it; afterwards the hit costs only the lookup), sheds it at
    /// the door, or adds it to its batching window.
    pub fn arrive(&mut self, now: f64, index: usize, options: QueryOptions) {
        while let Some(&(finish, tenant, n)) = self.pending_releases.front() {
            if finish > now {
                break;
            }
            self.queue.release(tenant, n);
            self.pending_releases.pop_front();
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
            self.answer(index, tenant, now, finish, cached);
        } else if !self.queue.try_admit(tenant) {
            // Charged to this tenant — and recorded: a query that got no
            // answer is the worst SLO outcome.
            self.outcomes.push((now, None));
            self.pending_slo_events.push((now, true));
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

    /// Records one answered query everywhere an answer is accounted.
    fn answer(
        &mut self,
        index: usize,
        tenant: TenantId,
        arrival: f64,
        finish: f64,
        neighbors: Vec<Neighbor>,
    ) {
        let latency = finish - arrival;
        self.latencies.push(latency);
        self.tenant_latencies.push((tenant, latency));
        self.outcomes.push((arrival, Some(latency)));
        let missed = self.slos.slo_of(tenant).is_some_and(|s| latency > s);
        self.pending_slo_events.push((finish, missed));
        self.pending_feedback.push(Feedback {
            at: finish,
            tenant,
            observed: Observed::Query { latency_s: latency },
        });
        self.makespan_s = self.makespan_s.max(finish);
        if std::mem::replace(&mut self.answered[index], true) {
            self.duplicated += 1;
        } else {
            self.results[index] = neighbors;
        }
    }

    /// The dispatch discipline [`ServiceConfig::max_chunk`] selected.
    pub(crate) fn order(&self) -> DispatchOrder {
        self.chunks.order()
    }

    /// When the earliest queued chunk became dispatchable
    /// ([`ChunkQueue::next_ready_at`]).
    pub(crate) fn next_ready_at(&self) -> Option<f64> {
        self.chunks.next_ready_at()
    }

    /// The chunk to execute next among those ready by `ready_by`
    /// ([`ChunkQueue::pop_ready`]).
    pub fn pop_chunk(&mut self, ready_by: f64) -> Option<QueuedChunk> {
        self.chunks.pop_ready(ready_by)
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
        self.degraded += response.stats.degraded;
        self.hedged += response.stats.hedged;
        self.redispatched += response.stats.redispatched;
        self.busy_s += response.seconds;
        self.pending_releases
            .push_back((finish, tenant, batch.len()));
        // The time the batch sat behind a busy engine after it closed — the
        // saturation signal an adaptive policy steers by. Only the *lead*
        // chunk reports it: trailing chunks queue behind their own
        // siblings, and that self-inflicted wait is not engine saturation
        // (a controller reading it as such would widen the window and make
        // the blocking worse).
        if chunk.lead {
            self.pending_feedback.push(Feedback {
                at: finish,
                tenant,
                observed: Observed::Batch {
                    len: batch.len(),
                    wait_s: start - batch.closed_at,
                },
            });
        }
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
            self.answer(
                member.stream_index,
                tenant,
                member.arrival_s,
                finish,
                neighbors,
            );
        }
    }

    /// Removes and returns, in recording order, the `(time, missed)` SLO
    /// outcomes the clock has caught up with — what an autoscaler observes.
    pub(crate) fn take_slo_events(&mut self, now: f64) -> Vec<(f64, bool)> {
        let (due, later) = self
            .pending_slo_events
            .iter()
            .copied()
            .partition(|&(t, _)| t <= now);
        self.pending_slo_events = later;
        due
    }

    /// `(lost, duplicated)`: offered queries neither answered nor shed so
    /// far, and answers recorded for an already-answered query. Both are 0
    /// once a correct driver has drained the core.
    pub fn conservation(&self) -> (usize, usize) {
        let shed = self.queue.shed() as usize;
        let lost = self
            .stream
            .len()
            .saturating_sub(self.latencies.len() + shed);
        (lost, self.duplicated)
    }

    /// Delivers the remaining feedback (so the reported controller state
    /// reflects every observation) and assembles the report. The core knows
    /// no engine and no autoscaler: `engine` names the former, and
    /// `scale_events` / `migration_s` are left at zero for the driver.
    pub fn into_report(mut self, engine: &str) -> ServiceReport {
        self.tick(f64::INFINITY);
        // Per-tenant rows, in profile order (tenants invented mid-stream
        // follow, in first-seen order).
        let tenants = self
            .tenants_seen
            .iter()
            .map(|&t| {
                let profile = self.stream.profile(t);
                let latencies_s = sorted(
                    self.tenant_latencies
                        .iter()
                        .filter(|(id, _)| *id == t)
                        .map(|(_, l)| *l)
                        .collect(),
                );
                TenantReport {
                    id: t,
                    name: profile.map_or_else(|| t.to_string(), |p| p.name.clone()),
                    weight: profile.map_or(1, |p| p.weight),
                    // Every tenant is measured against its own SLO (or the
                    // explicit config override) — never against another
                    // tenant's target; see the field docs and `SloTable`.
                    slo_p99_s: self.slos.slo_of(t),
                    completed: latencies_s.len(),
                    shed: self.queue.shed_of(t) as usize,
                    latencies_s,
                    final_batcher: self.policy.current(t),
                }
            })
            .collect();
        ServiceReport {
            engine: engine.to_string(),
            policy: match self.config.max_chunk {
                Some(_) => format!("{}-chunked", self.policy.name()),
                None => self.policy.name().to_string(),
            },
            slo_p99_s: self.config.slo_p99_s.or(self.stream.slo_p99_s),
            controller_adjustments: self.policy.adjustments(),
            final_batcher: self.policy.current(TenantId::DEFAULT),
            completed: self.latencies.len(),
            shed: self.queue.shed() as usize,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_invalidated: self.cache.invalidated(),
            size_closed_batches: self.size_closed,
            deadline_closed_batches: self.deadline_closed,
            dispatched_chunks: self.chunks.dispatched_chunks(),
            split_batches: self.chunks.split_batches(),
            engine_busy_s: self.busy_s,
            makespan_s: self.makespan_s,
            latencies_s: sorted(self.latencies),
            results: self.results,
            outcomes: self.outcomes,
            degraded: self.degraded,
            hedged: self.hedged,
            redispatched: self.redispatched,
            scale_events: 0,
            migration_s: 0.0,
            tenants,
        }
    }
}
