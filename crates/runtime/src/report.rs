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

use std::ops::Deref;

use upanns_serve::service::ServiceReport;

/// What one threaded pipeline run measured: the serving core's report —
/// every field and method of [`ServiceReport`] reads through `Deref`
/// (`report.completed`, `report.p99()`, `&report.results`, …; makespan and
/// latencies are wall-clock seconds in wall mode, arrival-clock seconds in
/// logical mode) — plus what only the thread driver knows.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// The serving core's report of the run. `service.results` is what the
    /// twin byte-diff compares against the replay's.
    pub service: ServiceReport,
    /// `"wall"` or `"logical"` — which clock drove the run.
    pub mode: &'static str,
    /// Engine worker threads the pipeline ran.
    pub workers: usize,
    /// Queries the stream offered.
    pub offered: usize,
    /// Offered queries that were neither answered nor shed when the
    /// pipeline drained — **must be 0**; a nonzero value means the shutdown
    /// protocol dropped work.
    pub lost: usize,
    /// Queries answered more than once — **must be 0**.
    pub duplicated: usize,
    /// Total *modeled* engine seconds across all workers (the emulated
    /// device occupancy; divide by makespan × workers for emulated device
    /// utilization) — the core's `engine_busy_s` under the name the
    /// runtime's consumers read.
    pub busy_modeled_s: f64,
}

impl Deref for RuntimeReport {
    type Target = ServiceReport;

    fn deref(&self) -> &ServiceReport {
        &self.service
    }
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
            busy_modeled_s: service.engine_busy_s,
            service,
            mode,
            workers,
            offered,
            lost,
            duplicated,
        }
    }

    /// Conservation check: every offered query was answered or shed, exactly
    /// once. The pipeline's graceful-shutdown CI gate asserts this.
    pub fn is_conserving(&self) -> bool {
        self.lost == 0 && self.duplicated == 0 && self.completed + self.shed == self.offered
    }
}
