//! Engine-level dispatch scheduling: the stage between the batch former and
//! the serial engine that kills cross-tenant head-of-line blocking.
//!
//! The engine is a single serial resource. Before this stage existed, formed
//! batches ran in **close order**: a tight-SLO tenant whose batch closed just
//! after a bulk tenant's large batch waited for the *entire* bulk batch —
//! window-level tenant isolation (per-tenant close conditions) cannot help
//! once the interference moves behind the former. The [`ChunkQueue`] fixes
//! both halves of that problem:
//!
//! * **Priority.** Queued work is dispatched in SLO-urgency order — earliest
//!   `arrival + tenant SLO` deadline first (EDF), FIFO within a tenant (and
//!   between equally urgent chunks) via a submission sequence number. A
//!   tenant with no SLO sorts last: bulk work yields to everyone.
//! * **Chunking.** Bulk batches are split into size-capped *chunks*
//!   (`FormedBatch::into_chunks`) at submission, so an engine is never
//!   committed for more than one chunk's service time. A tight-SLO batch
//!   arriving while a bulk batch drains therefore waits at most one chunk —
//!   not the whole batch. The cap is per-submission (the serving core
//!   passes [`ServiceConfig::max_chunk`](crate::service::ServiceConfig)).
//!
//! [`DispatchOrder::CloseOrder`] keeps the pre-scheduler semantics — whole
//! batches, strict FIFO in close order — and is both the single-tenant
//! default (chunking trades batch amortization for isolation, a bad trade
//! with nobody to isolate) and the baseline the committed head-of-line
//! benchmark scenario compares against.
//!
//! The [`ChunkQueue`] is the one queue: the serving core
//! ([`ServingCore`](crate::core::ServingCore)) owns an instance and both of
//! its drivers dispatch from it. It keeps no clock and never calls an
//! engine: a serial driver (the replay's simulated engine, or the dispatch
//! property tests' model of it) tracks when its engine frees, starts the
//! next chunk at the later of that and
//! [`next_ready_at`](ChunkQueue::next_ready_at), and takes it with
//! [`pop_ready`](ChunkQueue::pop_ready) by that start.
//!
//! # Invariants (of a serial engine in front of the queue)
//!
//! * **Work conservation** — the engine never idles while a submitted chunk
//!   is ready: the next dispatch time is `max(engine free, earliest
//!   ready_at)`.
//! * **No early answers** — a chunk never starts before its batch closed
//!   (`start ≥ closed_at`); the former's close is still the only thing that
//!   releases queries to the engine.
//! * **Serial finishes** — one chunk in flight at a time, so finish times
//!   are non-decreasing in dispatch order even though they are no longer
//!   monotone in *close* order (an urgent late-closing batch overtakes a
//!   bulk one). Downstream consumers (admission release, controller
//!   feedback) must order by finish time, not close time.
//!
//! ```
//! use upanns_serve::batcher::{BatchFormer, BatchFormerConfig, PendingQuery};
//! use upanns_serve::dispatch::{ChunkQueue, DispatchOrder};
//! use baselines::engine::{QueryOptions, TenantId};
//!
//! let mut former = BatchFormer::new(BatchFormerConfig {
//!     max_batch: 4,
//!     max_delay_s: 1.0,
//! });
//! // The tight tenant runs its own close conditions: singleton batches.
//! former.set_tenant_config(TenantId(1), BatchFormerConfig {
//!     max_batch: 1,
//!     max_delay_s: 1.0,
//! });
//! let mut queue = ChunkQueue::new(DispatchOrder::SloUrgency);
//!
//! // A bulk tenant's 4-query batch fills (closing at t=0.75) ...
//! let mut bulk = None;
//! for i in 0..4 {
//!     let options = QueryOptions::new(10, 8).with_tenant(TenantId(2));
//!     let q = PendingQuery { arrival_s: 0.25 * i as f64, stream_index: i, options };
//!     bulk = former.push(q, 0.25 * i as f64).or(bulk);
//! }
//! // ... and is submitted with no SLO, chunked in pairs.
//! queue.submit(bulk.expect("full"), None, 2);
//!
//! // The engine is free, so the first bulk chunk starts the moment it is
//! // ready (t=0.75) and runs for 0.3 s.
//! let start = queue.next_ready_at().expect("work is queued");
//! let first = queue.pop_ready(start).expect("ready by its own close");
//! let engine_free_at = start + 0.3;
//!
//! // A tight-SLO query closes its singleton batch at t=1.0, while that
//! // chunk is still running.
//! let options = QueryOptions::new(10, 8).with_tenant(TenantId(1));
//! let q = PendingQuery { arrival_s: 1.0, stream_index: 4, options };
//! let tight = former.push(q, 1.0).expect("singleton closes on arrival");
//! queue.submit(tight, Some(0.5), 2);
//!
//! // Dispatch is non-preemptive, so the in-flight bulk chunk finishes;
//! // then the tight batch overtakes the second bulk chunk.
//! let second = queue.pop_ready(engine_free_at).expect("both are ready");
//! let third = queue.pop_most_urgent().expect("one left");
//! let tenants = [first, second, third].map(|c| c.batch.options.tenant);
//! assert_eq!(tenants, [TenantId(2), TenantId(1), TenantId(2)]);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::batcher::FormedBatch;

/// How the [`ChunkQueue`] orders queued work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchOrder {
    /// Whole batches, strict FIFO in close order — the serial execute-on-
    /// close semantics the scheduler replaced, kept as the single-tenant
    /// default and the head-of-line baseline.
    CloseOrder,
    /// Size-capped chunks dispatched earliest-deadline-first
    /// (`arrival + tenant SLO`; no SLO sorts last), FIFO within a tenant.
    SloUrgency,
}

/// A chunk waiting for (or leaving) the engine.
#[derive(Debug, Clone)]
pub struct QueuedChunk {
    /// The chunk: a tenant-pure, compat-pure slice of a formed batch
    /// (the whole batch under [`DispatchOrder::CloseOrder`]).
    pub batch: FormedBatch,
    /// The SLO-urgency key: the chunk's earliest member arrival plus its
    /// tenant's p99 SLO (`f64::INFINITY` for tenants without one).
    pub deadline: f64,
    /// Submission order — the FIFO tie-break, and the entire order under
    /// [`DispatchOrder::CloseOrder`].
    pub seq: u64,
    /// Whether this is its batch's first chunk. The lead chunk's dispatch
    /// wait (`start − closed_at`) is the *batch's* genuine cross-batch
    /// queueing delay — the engine-saturation signal adaptive policies
    /// steer by. Trailing chunks queue behind their own siblings, so their
    /// waits are self-inflicted and must not be reported as saturation.
    pub lead: bool,
}

impl QueuedChunk {
    /// When the chunk became dispatchable (its batch's close time).
    pub fn ready_at(&self) -> f64 {
        self.batch.closed_at
    }
}

/// The dispatch queue: formed batches enter as (possibly chunked)
/// [`QueuedChunk`]s at close time and leave in [`DispatchOrder`] — minimum
/// `(deadline, seq)` under [`DispatchOrder::SloUrgency`] (no-SLO chunks sort
/// last, FIFO tie-break), strict submission FIFO under
/// [`DispatchOrder::CloseOrder`].
///
/// The queue is clock-free and occupancy-free: *who* runs a popped chunk and
/// *when* is its owner's business. The serving core owns the one queue both
/// drivers dispatch from — the simulated-clock replay pops chunks ready by
/// its serial engine's next start ([`pop_ready`](Self::pop_ready)), the
/// thread driver hands [`pop_most_urgent`](Self::pop_most_urgent) to
/// whichever worker is idle (a batch reaching it has already closed in real
/// time, so every queued chunk is ready by definition).
#[derive(Debug, Clone)]
pub struct ChunkQueue {
    order: DispatchOrder,
    queue: Vec<QueuedChunk>,
    seq: u64,
    dispatched_chunks: usize,
    split_batches: usize,
}

impl ChunkQueue {
    /// An empty queue under the given discipline.
    pub fn new(order: DispatchOrder) -> Self {
        Self {
            order,
            queue: Vec::new(),
            seq: 0,
            dispatched_chunks: 0,
            split_batches: 0,
        }
    }

    /// The scheduling discipline.
    pub(crate) fn order(&self) -> DispatchOrder {
        self.order
    }

    /// Enqueues a formed batch, split into chunks of at most `max_chunk`
    /// queries (pass `usize::MAX` to keep it whole; under
    /// [`DispatchOrder::CloseOrder`] batches are never split regardless).
    /// `slo_p99_s` is the batch's tenant SLO, from which each chunk's
    /// urgency deadline is derived — chunk-local, so the trailing chunks of
    /// a long batch are less urgent than its head and other tenants' work
    /// interleaves between them.
    ///
    /// # Panics
    /// Panics if the batch is empty or `max_chunk` is zero.
    pub fn submit(&mut self, batch: FormedBatch, slo_p99_s: Option<f64>, max_chunk: usize) {
        assert!(!batch.is_empty(), "the former never emits empty batches");
        let chunks = match self.order {
            DispatchOrder::CloseOrder => vec![batch],
            DispatchOrder::SloUrgency => batch.into_chunks(max_chunk),
        };
        if chunks.len() > 1 {
            self.split_batches += 1;
        }
        for (i, chunk) in chunks.into_iter().enumerate() {
            let deadline = match slo_p99_s {
                Some(slo) => chunk.members[0].arrival_s + slo,
                None => f64::INFINITY,
            };
            self.queue.push(QueuedChunk {
                batch: chunk,
                deadline,
                seq: self.seq,
                lead: i == 0,
            });
            self.seq += 1;
        }
    }

    /// When the earliest queued chunk became ready (under
    /// [`DispatchOrder::CloseOrder`], the head of the FIFO's ready time) —
    /// what a serial engine combines with its own free time to find the
    /// next dispatch start. `None` when empty.
    pub fn next_ready_at(&self) -> Option<f64> {
        match self.order {
            DispatchOrder::CloseOrder => self.queue.first().map(QueuedChunk::ready_at),
            DispatchOrder::SloUrgency => self
                .queue
                .iter()
                .map(QueuedChunk::ready_at)
                .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)),
        }
    }

    /// Removes and returns the chunk to run next among those ready by
    /// `ready_by`: the minimum `(deadline, seq)` under
    /// [`DispatchOrder::SloUrgency`] — chunks that become ready later, even
    /// more urgent ones, cannot claim the slot (dispatch is non-preemptive) —
    /// and the head of the FIFO under [`DispatchOrder::CloseOrder`]. `None`
    /// when no chunk qualifies.
    pub fn pop_ready(&mut self, ready_by: f64) -> Option<QueuedChunk> {
        let index = match self.order {
            DispatchOrder::CloseOrder => (!self.queue.is_empty()).then_some(0),
            DispatchOrder::SloUrgency => self
                .queue
                .iter()
                .enumerate()
                .filter(|(_, c)| c.ready_at() <= ready_by)
                .min_by(|(_, a), (_, b)| {
                    a.deadline
                        .partial_cmp(&b.deadline)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.seq.cmp(&b.seq))
                })
                .map(|(i, _)| i),
        }?;
        self.dispatched_chunks += 1;
        Some(self.queue.remove(index))
    }

    /// [`pop_ready`](Self::pop_ready) with every queued chunk ready — what
    /// an idle worker of the thread driver should run next.
    pub fn pop_most_urgent(&mut self) -> Option<QueuedChunk> {
        self.pop_ready(f64::INFINITY)
    }

    /// Whether no chunk is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Chunks handed out so far.
    pub(crate) fn dispatched_chunks(&self) -> usize {
        self.dispatched_chunks
    }

    /// Submitted batches that were split into more than one chunk.
    pub fn split_batches(&self) -> usize {
        self.split_batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{CloseReason, PendingQuery};
    use baselines::engine::{QueryOptions, TenantId};

    fn batch(tenant: u32, arrivals: &[f64], closed_at: f64) -> FormedBatch {
        let options = QueryOptions::new(10, 8).with_tenant(TenantId(tenant));
        FormedBatch {
            options,
            members: arrivals
                .iter()
                .enumerate()
                .map(|(i, &t)| PendingQuery {
                    arrival_s: t,
                    stream_index: i,
                    options,
                })
                .collect(),
            opened_at: arrivals[0],
            closed_at,
            reason: CloseReason::Deadline,
        }
    }

    #[test]
    fn urgent_chunk_overtakes_bulk_chunks_but_not_the_one_in_flight() {
        let mut q = ChunkQueue::new(DispatchOrder::SloUrgency);
        q.submit(batch(2, &[0.0, 0.1, 0.2, 0.3], 0.4), None, 2);
        // First bulk chunk dispatches at its close (nothing else is ready)
        // and occupies the engine until 1.4...
        let c1 = q.pop_ready(0.4).expect("ready");
        assert_eq!(c1.batch.options.tenant, TenantId(2));
        // ...the tight batch closes while it runs...
        q.submit(batch(1, &[0.5], 0.6), Some(0.25), 2);
        // ...and overtakes the second bulk chunk when the engine frees.
        let c2 = q.pop_ready(1.4).expect("ready");
        assert_eq!(c2.batch.options.tenant, TenantId(1));
        let c3 = q.pop_ready(1.5).expect("ready");
        assert_eq!(c3.batch.options.tenant, TenantId(2));
    }

    #[test]
    fn fifo_breaks_deadline_ties_within_a_tenant() {
        let mut q = ChunkQueue::new(DispatchOrder::SloUrgency);
        // Same deadline (same arrival + SLO): submission order wins.
        q.submit(batch(1, &[0.0], 0.1), Some(1.0), 8);
        q.submit(batch(1, &[0.0], 0.1), Some(1.0), 8);
        assert_eq!(q.pop_most_urgent().expect("ready").seq, 0);
        assert_eq!(q.pop_most_urgent().expect("ready").seq, 1);
    }

    #[test]
    fn no_slo_sorts_after_any_deadline() {
        let mut q = ChunkQueue::new(DispatchOrder::SloUrgency);
        q.submit(batch(2, &[0.0], 0.1), None, 8);
        q.submit(batch(1, &[0.05], 0.1), Some(1e6), 8);
        assert_eq!(
            q.pop_most_urgent().expect("ready").batch.options.tenant,
            TenantId(1),
            "even a huge finite SLO beats no SLO"
        );
    }

    #[test]
    fn a_chunk_is_never_ready_before_its_close() {
        let mut q = ChunkQueue::new(DispatchOrder::SloUrgency);
        q.submit(batch(1, &[0.0], 0.5), Some(1.0), 8);
        assert_eq!(q.next_ready_at(), Some(0.5));
        assert!(q.pop_ready(0.4).is_none(), "not ready yet");
        assert!(q.pop_ready(0.5).is_some(), "ready exactly at the close");
        assert_eq!(q.next_ready_at(), None);
    }

    #[test]
    fn late_closing_urgent_work_cannot_claim_an_earlier_slot() {
        // Non-preemptive, work-conserving: at t=1.0 only the bulk chunk is
        // ready, so it runs even though a more urgent chunk closes at 1.5.
        let mut q = ChunkQueue::new(DispatchOrder::SloUrgency);
        q.submit(batch(2, &[0.0], 1.0), None, 8);
        q.submit(batch(1, &[1.4], 1.5), Some(0.1), 8);
        assert_eq!(q.next_ready_at(), Some(1.0));
        let first = q.pop_ready(1.0).expect("ready");
        assert_eq!(first.batch.options.tenant, TenantId(2));
    }

    #[test]
    fn chunk_queue_pops_in_slo_urgency_order() {
        let mut q = ChunkQueue::new(DispatchOrder::SloUrgency);
        q.submit(batch(2, &[0.0, 0.1, 0.2, 0.3], 0.4), None, 2);
        q.submit(batch(1, &[0.5], 0.6), Some(0.25), 2);
        assert_eq!(
            q.queue.len(),
            3,
            "bulk split in two plus the tight singleton"
        );
        assert_eq!(q.split_batches(), 1);
        let order: Vec<TenantId> = std::iter::from_fn(|| q.pop_most_urgent())
            .map(|c| c.batch.options.tenant)
            .collect();
        // The tight chunk overtakes both bulk chunks; bulk stays FIFO.
        assert_eq!(order, vec![TenantId(1), TenantId(2), TenantId(2)]);
        assert!(q.is_empty());
        assert_eq!(q.dispatched_chunks(), 3);
    }

    #[test]
    fn chunk_queue_close_order_is_fifo_and_never_splits() {
        let mut q = ChunkQueue::new(DispatchOrder::CloseOrder);
        q.submit(batch(2, &[0.0, 0.1, 0.2], 0.3), None, 1);
        q.submit(batch(1, &[0.35], 0.4), Some(0.01), 1);
        let first = q.pop_most_urgent().expect("work queued");
        assert_eq!(first.batch.len(), 3, "never split in close order");
        assert_eq!(first.batch.options.tenant, TenantId(2));
        let second = q.pop_most_urgent().expect("one left");
        assert_eq!(second.batch.options.tenant, TenantId(1));
        assert!(q.pop_most_urgent().is_none());
        assert_eq!(q.split_batches(), 0);
    }
}
