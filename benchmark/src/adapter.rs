//! The benchmark-side [`AnnEngine`] adapter.
//!
//! Every engine handed to `SearchService` or `run_pipeline` is wrapped in an
//! [`Adapter`], which times each `execute` on the host clock and keeps the
//! response's modeled seconds, work counters and (in the traced run) its
//! modeled stage breakdown. That is how the harness splits a replay's host
//! time into "inside the engine" and "the serve layer's own", and a query's
//! modeled latency into batching wait, engine service and queue wait,
//! without any span inside the crates.

use crate::clock;
use annkit::mutation::SnapshotTimeline;
use baselines::engine::{AnnEngine, SearchRequest, SearchResponse};
use baselines::workload_stats::WorkloadStats;
use pim_sim::energy::EnergyModel;
use std::sync::{Arc, Mutex};

/// What the adapter saw of one `execute` call.
#[derive(Debug, Clone)]
pub struct ExecRecord {
    pub request: u64,
    pub host_start: f64,
    pub host_end: f64,
    pub queries: usize,
    pub modeled_s: f64,
    /// Σ over the request's queries of `request.at − arrival_of(i)`: the
    /// modeled seconds its queries spent waiting for the batch to close.
    pub batch_wait_sum_s: f64,
    pub stats: WorkloadStats,
    /// The response's modeled stage breakdown; empty unless the sink is
    /// detailed (the traced run).
    pub stages: Vec<(String, f64)>,
}

impl ExecRecord {
    pub fn host_s(&self) -> f64 {
        self.host_end - self.host_start
    }
}

/// Where adapters put their records. Shared behind a mutex because the
/// threaded pipeline moves each adapter into its own worker thread.
#[derive(Debug, Default)]
pub struct Sink {
    detailed: bool,
    records: Vec<ExecRecord>,
}

/// A cloneable handle to a [`Sink`].
#[derive(Debug, Clone, Default)]
pub struct SinkHandle(Arc<Mutex<Sink>>);

impl SinkHandle {
    /// `detailed` sinks also keep each response's stage breakdown.
    pub fn new(detailed: bool) -> Self {
        Self(Arc::new(Mutex::new(Sink {
            detailed,
            records: Vec::new(),
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Sink> {
        self.0
            .lock()
            .expect("no adapter panics while holding the sink lock")
    }

    /// Removes and returns every record collected so far.
    pub fn drain(&self) -> Vec<ExecRecord> {
        std::mem::take(&mut self.lock().records)
    }
}

/// Totals over a set of records.
#[derive(Debug, Clone, Default)]
pub struct ExecTotals {
    pub calls: usize,
    pub queries: usize,
    pub host_s: f64,
    pub modeled_s: f64,
    pub batch_wait_sum_s: f64,
    /// Σ over calls of `queries × modeled_s`: total modeled service seconds
    /// as experienced per query.
    pub service_sum_s: f64,
    pub stats: WorkloadStats,
}

impl ExecTotals {
    pub fn of(records: &[ExecRecord]) -> Self {
        let mut t = Self::default();
        for r in records {
            t.calls += 1;
            t.queries += r.queries;
            t.host_s += r.host_s();
            t.modeled_s += r.modeled_s;
            t.batch_wait_sum_s += r.batch_wait_sum_s;
            t.service_sum_s += r.queries as f64 * r.modeled_s;
            t.stats.merge(&r.stats);
        }
        t
    }

    /// Adds another set's totals to this one.
    pub fn add(&mut self, other: &Self) {
        self.calls += other.calls;
        self.queries += other.queries;
        self.host_s += other.host_s;
        self.modeled_s += other.modeled_s;
        self.batch_wait_sum_s += other.batch_wait_sum_s;
        self.service_sum_s += other.service_sum_s;
        self.stats.merge(&other.stats);
    }

    /// Queries the engine answered per modeled second it was busy.
    pub fn modeled_qps(&self) -> f64 {
        if self.modeled_s > 0.0 {
            self.queries as f64 / self.modeled_s
        } else {
            0.0
        }
    }
}

/// An engine that reports every `execute` to a [`SinkHandle`].
pub struct Adapter<E> {
    inner: E,
    sink: SinkHandle,
    timeline_preinstalled: bool,
}

impl<E: AnnEngine> Adapter<E> {
    pub fn new(inner: E, sink: SinkHandle) -> Self {
        Self {
            inner,
            sink,
            timeline_preinstalled: false,
        }
    }

    /// Declares that the wrapped engine already serves the timeline the
    /// service is about to install, so later `install_timeline` calls are
    /// answered "accepted" without re-installing.
    /// `SearchService::with_live_index` installs on every construction, and
    /// the engine rebuilds its whole per-epoch state each time; that cost
    /// belongs to set-up, not to each timed replay.
    pub fn with_timeline_preinstalled(mut self) -> Self {
        self.timeline_preinstalled = true;
        self
    }

    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: AnnEngine> AnnEngine for Adapter<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn execute(&mut self, request: &SearchRequest) -> SearchResponse {
        let host_start = clock::now_s();
        let response = self.inner.execute(request);
        let host_end = clock::now_s();
        let batch_wait_sum_s = (0..request.len())
            .map(|i| (request.at - request.arrival_of(i)).max(0.0))
            .sum();
        let mut sink = self.sink.lock();
        let stages = if sink.detailed {
            response.breakdown.entries()
        } else {
            Vec::new()
        };
        sink.records.push(ExecRecord {
            request: request.id,
            host_start,
            host_end,
            queries: request.len(),
            modeled_s: response.seconds,
            batch_wait_sum_s,
            stats: response.stats.clone(),
            stages,
        });
        response
    }

    fn energy_model(&self) -> EnergyModel {
        self.inner.energy_model()
    }

    fn install_timeline(&mut self, timeline: SnapshotTimeline) -> bool {
        if self.timeline_preinstalled {
            return true;
        }
        self.inner.install_timeline(timeline)
    }

    fn scale_to(&mut self, hosts: usize, now: f64) -> Option<f64> {
        self.inner.scale_to(hosts, now)
    }

    fn live_hosts(&self) -> Option<usize> {
        self.inner.live_hosts()
    }
}
