//! The engine abstraction shared by every search backend in the repository.
//!
//! The API is **request-centric**: callers describe a batch of queries as a
//! [`SearchRequest`] carrying one [`QueryOptions`] per query (its `k`,
//! `nprobe` and optional latency budget), and every engine answers it through
//! [`AnnEngine::execute`], returning a [`SearchResponse`] with per-query
//! neighbor lists plus the request's simulated timing, stage breakdown and
//! work counters. The historical positional entry point
//! [`AnnEngine::search_batch`] survives as a thin default-method shim that
//! wraps its arguments in a uniform request, so existing harness code keeps
//! working unchanged.
//!
//! Engines whose native execution path is a *uniform* batch (all queries
//! sharing one `nprobe`/`k` — the CPU/GPU baselines and the single-host PIM
//! engines) implement `execute` via [`execute_grouped`], which partitions the
//! request into compatible option groups, runs each group back-to-back, and
//! reassembles per-query results in request order.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::workload_stats::WorkloadStats;
use annkit::topk::Neighbor;
use annkit::vector::Dataset;
pub use annkit::workload::TenantId;
use pim_sim::energy::EnergyModel;
use pim_sim::stats::{Stage, StageBreakdown};

/// Per-query search parameters inside a [`SearchRequest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryOptions {
    /// Number of nearest neighbors to return.
    pub k: usize,
    /// Number of IVF clusters to probe.
    pub nprobe: usize,
    /// Optional per-query latency budget in (simulated) seconds. It is
    /// carried and compared, and [`compat_key`](Self::compat_key) ignores it
    /// so it never splits a batch; no engine or serve module reads it.
    pub latency_budget_s: Option<f64>,
    /// The tenant (traffic class) this query belongs to. Like the latency
    /// budget, the tenant never changes what an engine answers and never
    /// splits an execution sub-batch; it is the accounting label the serving
    /// layer keys weighted-fair admission, per-tenant batching windows and
    /// per-tenant SLO reporting on.
    pub tenant: TenantId,
}

impl QueryOptions {
    /// Options with the given `k` and `nprobe`, no latency budget, and the
    /// default tenant.
    pub fn new(k: usize, nprobe: usize) -> Self {
        Self {
            k,
            nprobe,
            latency_budget_s: None,
            tenant: TenantId::DEFAULT,
        }
    }

    /// Attaches a latency budget.
    pub fn with_latency_budget(mut self, seconds: f64) -> Self {
        self.latency_budget_s = Some(seconds);
        self
    }

    /// Tags the query with its tenant.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// The execution-compatibility key: two queries can run in the same
    /// uniform sub-batch iff their keys match (latency budgets and tenant
    /// labels never split a batch — budgets steer parameter selection
    /// upstream, tenants steer serving-layer admission and batching).
    pub fn compat_key(&self) -> (usize, usize) {
        (self.k, self.nprobe)
    }
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self::new(10, 8)
    }
}

/// A batch of queries submitted to an engine, with per-query options.
///
/// ```
/// use annkit::vector::Dataset;
/// use baselines::engine::{QueryOptions, SearchRequest, TenantId};
///
/// let mut queries = Dataset::with_capacity(4, 3);
/// for i in 0..3 {
///     queries.push(&[i as f32, 0.0, 0.0, 0.0]);
/// }
///
/// // Per-query options: two compatible queries and one needing more
/// // neighbors. Budgets and tenant labels never split a sub-batch.
/// let request = SearchRequest::new(
///     queries,
///     vec![
///         QueryOptions::new(10, 8),
///         QueryOptions::new(10, 8)
///             .with_latency_budget(5e-3)
///             .with_tenant(TenantId(7)),
///         QueryOptions::new(50, 16),
///     ],
/// )
/// .with_id(42);
///
/// assert_eq!(request.len(), 3);
/// assert_eq!(request.max_k(), 50);
/// assert!(request.uniform_options().is_none(), "mixed ks");
/// // Engines execute compatible groups as uniform sub-batches:
/// let groups = request.option_groups();
/// assert_eq!(groups.len(), 2);
/// assert_eq!(groups[0].1, vec![0, 1]);
/// assert_eq!(groups[1].1, vec![2]);
/// ```
#[derive(Debug, Clone)]
pub struct SearchRequest {
    /// Caller-chosen request identifier, echoed in the response.
    pub id: u64,
    /// Simulated dispatch time of the request on the replay clock, in
    /// seconds. Engines that model host availability (the replicated
    /// multihost tier) evaluate their fault schedule at this instant, and
    /// live-mutation engines charge compaction-window stalls against it;
    /// plain engines ignore it. The serving layers set it to the batch's
    /// close time — the one timestamp that is identical between the
    /// discrete-event replay and its threaded twin. Defaults to 0.0 (the
    /// start of simulated time).
    pub at: f64,
    queries: Dataset,
    options: Vec<QueryOptions>,
    /// Per-query arrival times (see [`with_arrivals`](Self::with_arrivals));
    /// empty means "every query dispatched at [`at`](Self::at)".
    arrivals: Vec<f64>,
}

impl SearchRequest {
    /// A request where every query uses `options`.
    ///
    /// # Panics
    /// Panics if `queries` and `options` lengths differ.
    pub fn new(queries: Dataset, options: Vec<QueryOptions>) -> Self {
        assert_eq!(
            queries.len(),
            options.len(),
            "one QueryOptions per query required"
        );
        Self {
            id: 0,
            at: 0.0,
            queries,
            options,
            arrivals: Vec::new(),
        }
    }

    /// A request where every query shares one `nprobe`/`k` — the shape of the
    /// legacy `search_batch` call.
    pub fn uniform(queries: &Dataset, nprobe: usize, k: usize) -> Self {
        let options = vec![QueryOptions::new(k, nprobe); queries.len()];
        Self::new(queries.clone(), options)
    }

    /// Sets the request id.
    pub fn with_id(mut self, id: u64) -> Self {
        self.id = id;
        self
    }

    /// Sets the simulated dispatch time (see the field docs on
    /// [`at`](Self::at)).
    pub fn with_at(mut self, at: f64) -> Self {
        self.at = at;
        self
    }

    /// Sets each query's own arrival time on the replay clock. Engines
    /// serving a live [`SnapshotTimeline`](annkit::mutation::SnapshotTimeline)
    /// resolve every query's snapshot
    /// at its *arrival* (see [`execute_by_entry`]), so the answer is a pure
    /// function of (query, arrival) — independent of how the serving layer
    /// happened to batch it. Without arrivals every query resolves at
    /// [`at`](Self::at), which on a frozen timeline is the same snapshot
    /// either way.
    ///
    /// # Panics
    /// Panics if `arrivals` is non-empty and its length differs from the
    /// query count.
    pub fn with_arrivals(mut self, arrivals: Vec<f64>) -> Self {
        assert!(
            arrivals.is_empty() || arrivals.len() == self.queries.len(),
            "one arrival per query required"
        );
        self.arrivals = arrivals;
        self
    }

    /// Query `i`'s dispatch time: its own arrival when one was recorded,
    /// the request's [`at`](Self::at) otherwise.
    pub fn arrival_of(&self, i: usize) -> f64 {
        self.arrivals.get(i).copied().unwrap_or(self.at)
    }

    /// The sub-request of the queries at `members`, preserving the id and
    /// batch dispatch time. Per-query arrivals are dropped: subsets are
    /// built by [`execute_by_entry`] to be snapshot-uniform already.
    fn subset(&self, members: &[usize]) -> SearchRequest {
        SearchRequest {
            id: self.id,
            at: self.at,
            queries: self.queries.gather(members),
            options: members.iter().map(|&i| self.options[i]).collect(),
            arrivals: Vec::new(),
        }
    }

    /// The query vectors.
    pub fn queries(&self) -> &Dataset {
        &self.queries
    }

    /// The per-query options (same length as [`queries`](Self::queries)).
    pub fn options(&self) -> &[QueryOptions] {
        &self.options
    }

    /// Number of queries in the request.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the request carries no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// When every query shares one compatibility key, the shared options
    /// (with the first query's budget); `None` for mixed requests.
    pub fn uniform_options(&self) -> Option<QueryOptions> {
        let first = *self.options.first()?;
        self.options
            .iter()
            .all(|o| o.compat_key() == first.compat_key())
            .then_some(first)
    }

    /// Partitions query indices into execution-compatible groups, preserving
    /// first-seen order of the keys and request order within each group.
    pub fn option_groups(&self) -> Vec<(QueryOptions, Vec<usize>)> {
        let mut groups: Vec<(QueryOptions, Vec<usize>)> = Vec::new();
        for (i, opt) in self.options.iter().enumerate() {
            match groups
                .iter_mut()
                .find(|(o, _)| o.compat_key() == opt.compat_key())
            {
                Some((_, members)) => members.push(i),
                None => groups.push((*opt, vec![i])),
            }
        }
        groups
    }

    /// The largest `k` in the request (0 when empty).
    pub fn max_k(&self) -> usize {
        self.options.iter().map(|o| o.k).max().unwrap_or(0)
    }
}

/// An engine's answer to a [`SearchRequest`].
///
/// This is also the single home of the repository's latency/QPS accounting:
/// every division guard lives here, so engines and harnesses share one
/// implementation.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// The id of the request this response answers.
    pub request_id: u64,
    /// Per-query neighbor lists, closest first, in request order.
    pub results: Vec<Vec<Neighbor>>,
    /// Simulated end-to-end seconds for the whole request.
    pub seconds: f64,
    /// Simulated time split by pipeline stage.
    pub breakdown: StageBreakdown,
    /// Work counters collected during the functional execution.
    pub stats: WorkloadStats,
}

impl SearchResponse {
    /// An empty response (no queries, zero time).
    pub fn empty(request_id: u64) -> Self {
        Self {
            request_id,
            results: Vec::new(),
            seconds: 0.0,
            breakdown: StageBreakdown::new(),
            stats: WorkloadStats::default(),
        }
    }

    /// The answer to `request` assembled from answers to disjoint subsets of
    /// its queries: each part is (positions in `request`, the response to
    /// those queries in that order), run back to back. Results scatter to
    /// request order, seconds add up, breakdowns and work counters merge.
    pub(crate) fn gather(
        request: &SearchRequest,
        parts: impl IntoIterator<Item = (Vec<usize>, SearchResponse)>,
    ) -> Self {
        let mut out = Self::empty(request.id);
        out.results = vec![Vec::new(); request.len()];
        for (members, part) in parts {
            for (slot, result) in members.iter().zip(part.results) {
                out.results[*slot] = result;
            }
            out.seconds += part.seconds;
            out.breakdown.merge(&part.breakdown);
            out.stats.merge(&part.stats);
        }
        out
    }

    /// Number of queries answered.
    pub fn batch_size(&self) -> usize {
        self.results.len()
    }

    /// Queries per second implied by the simulated batch time.
    pub fn qps(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.results.len() as f64 / self.seconds
        }
    }

    /// Mean latency per query in seconds (batch time / batch size).
    pub fn mean_latency(&self) -> f64 {
        if self.results.is_empty() {
            0.0
        } else {
            self.seconds / self.results.len() as f64
        }
    }

    /// QPS per watt under `energy`'s peak-power approximation (Figure 12b).
    pub fn qps_per_watt(&self, energy: &EnergyModel) -> f64 {
        energy.qps_per_watt(self.qps())
    }

    /// QPS per dollar of hardware (§5.2's cost-efficiency comparison).
    pub fn qps_per_dollar(&self, energy: &EnergyModel) -> f64 {
        energy.qps_per_dollar(self.qps())
    }
}

/// Runs a mixed-options request on an engine whose native path is a uniform
/// batch. `run_uniform(queries, nprobe, k)` is invoked once per compatible
/// option group (in first-seen order); group times add up, breakdowns and
/// work counters merge, and per-query results are scattered back to request
/// order. Uniform requests skip the regrouping entirely.
pub fn execute_grouped<F>(request: &SearchRequest, mut run_uniform: F) -> SearchResponse
where
    F: FnMut(&Dataset, usize, usize) -> SearchResponse,
{
    if request.is_empty() {
        return SearchResponse::empty(request.id);
    }
    if let Some(opt) = request.uniform_options() {
        let mut response = run_uniform(request.queries(), opt.nprobe, opt.k);
        response.request_id = request.id;
        return response;
    }

    SearchResponse::gather(
        request,
        request.option_groups().into_iter().map(|(opt, members)| {
            let sub = request.queries().gather(&members);
            let group = run_uniform(&sub, opt.nprobe, opt.k);
            (members, group)
        }),
    )
}

/// Runs `request` with every query served by the timeline entry active at
/// that query's own dispatch time ([`SearchRequest::arrival_of`]):
/// `run_entry(entry_index, sub_request)` answers one snapshot-uniform
/// sub-request, results are scattered back to request order, and times add
/// up like [`execute_grouped`]'s option groups. Because each answer depends
/// only on (query, arrival), batching, chunking and cache-hit timing cannot
/// change *what* is answered — the invariant the threaded twin's byte-diff
/// relies on under live mutation.
///
/// Requests without per-query arrivals — or whose arrivals all resolve to
/// one entry, which includes every frozen timeline — take a fast path that
/// is bitwise identical (answers *and* modeled seconds) to running the
/// whole request against one snapshot. The compaction-window stall is
/// charged once at the request's batch dispatch time: the *device* stalls,
/// regardless of which snapshots its queries read.
pub fn execute_by_entry<F>(
    timeline: &annkit::mutation::SnapshotTimeline,
    request: &SearchRequest,
    mut run_entry: F,
) -> SearchResponse
where
    F: FnMut(usize, &SearchRequest) -> SearchResponse,
{
    let entry_of = |i: usize| timeline.index_at(request.arrival_of(i));
    let mut response =
        if request.is_empty() || (1..request.len()).all(|i| entry_of(i) == entry_of(0)) {
            let entry = if request.is_empty() {
                timeline.index_at(request.at)
            } else {
                entry_of(0)
            };
            run_entry(entry, request)
        } else {
            // First-seen entry order, like execute_grouped's option groups.
            let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
            for i in 0..request.len() {
                let entry = entry_of(i);
                match groups.iter_mut().find(|(g, _)| *g == entry) {
                    Some((_, members)) => members.push(i),
                    None => groups.push((entry, vec![i])),
                }
            }
            SearchResponse::gather(
                request,
                groups.into_iter().map(|(entry, members)| {
                    let part = run_entry(entry, &request.subset(&members));
                    (members, part)
                }),
            )
        };
    response.request_id = request.id;
    let stall = timeline.stall_after(request.at);
    if stall > 0.0 {
        response.seconds += stall;
        response.breakdown.add(Stage::CompactionStall, stall);
    }
    response
}

/// A search engine that answers IVFPQ queries and reports simulated timing.
///
/// Implemented by [`CpuFaissEngine`](crate::cpu::CpuFaissEngine),
/// [`GpuFaissEngine`](crate::gpu::GpuFaissEngine), and the PIM engines in the
/// `upanns` crate, so the benchmark harness and the serving front-end can
/// drive all of them uniformly. [`execute`](Self::execute) is the primary
/// entry point; [`search_batch`](Self::search_batch) is a compatibility shim.
pub trait AnnEngine {
    /// Short display name ("Faiss-CPU", "Faiss-GPU", "PIM-naive", "UpANNS").
    fn name(&self) -> &str;

    /// Answers a request, honoring each query's own `k` and `nprobe`.
    fn execute(&mut self, request: &SearchRequest) -> SearchResponse;

    /// Searches a batch of queries that all share one `nprobe` and `k`.
    ///
    /// Default shim over [`execute`](Self::execute); prefer building a
    /// [`SearchRequest`] directly when queries need distinct options. The
    /// shim clones `queries` into the owned request — one memcpy, dwarfed by
    /// the functional search it precedes.
    fn search_batch(&mut self, queries: &Dataset, nprobe: usize, k: usize) -> SearchResponse {
        self.execute(&SearchRequest::uniform(queries, nprobe, k))
    }

    /// The peak-power / price model of the hardware this engine represents.
    fn energy_model(&self) -> EnergyModel;

    /// Installs a live-mutation [`SnapshotTimeline`](annkit::mutation::SnapshotTimeline):
    /// every subsequent query resolves the snapshot active at its own
    /// dispatch time ([`SearchRequest::arrival_of`], via
    /// [`execute_by_entry`]), and requests landing inside a compaction
    /// window are stalled to its end. Returns whether the engine
    /// supports live mutation. There is no default: an engine that declines
    /// (and keeps serving its construction-time index) says so, and why, in
    /// its own implementation.
    fn install_timeline(&mut self, timeline: annkit::mutation::SnapshotTimeline) -> bool;

    /// Asks the engine to resize itself to `hosts` serving hosts at simulated
    /// time `now`, returning the modeled migration seconds the resize costs,
    /// or `None` when the engine has no host-level elasticity (the default —
    /// single-host engines ignore the request). Engines that do support it
    /// (the replicated multihost tier) rebalance their shard→host map and
    /// charge the data movement through their interconnect model; hosts being
    /// migrated onto only start serving once the migration completes.
    fn scale_to(&mut self, hosts: usize, now: f64) -> Option<f64> {
        let _ = (hosts, now);
        None
    }

    /// The number of hosts currently provisioned, or `None` for engines
    /// without host-level elasticity.
    fn live_hosts(&self) -> Option<usize> {
        None
    }
}

/// A boxed engine is an engine, so a caller that picks the engine type at
/// run time can hand `Box<dyn AnnEngine + Send>` to anything generic over
/// `E: AnnEngine`. **Every** method forwards — the optional hooks included:
/// one left to the trait default would silently turn the box's live
/// timeline or host elasticity into a no-op.
impl<E: AnnEngine + ?Sized> AnnEngine for Box<E> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn execute(&mut self, request: &SearchRequest) -> SearchResponse {
        (**self).execute(request)
    }

    fn search_batch(&mut self, queries: &Dataset, nprobe: usize, k: usize) -> SearchResponse {
        (**self).search_batch(queries, nprobe, k)
    }

    fn energy_model(&self) -> EnergyModel {
        (**self).energy_model()
    }

    fn install_timeline(&mut self, timeline: annkit::mutation::SnapshotTimeline) -> bool {
        (**self).install_timeline(timeline)
    }

    fn scale_to(&mut self, hosts: usize, now: f64) -> Option<f64> {
        (**self).scale_to(hosts, now)
    }

    fn live_hosts(&self) -> Option<usize> {
        (**self).live_hosts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers every [`AnnEngine`] method with a value no trait default
    /// produces.
    struct RecordingEngine;

    impl AnnEngine for RecordingEngine {
        fn name(&self) -> &str {
            "recording"
        }

        fn execute(&mut self, request: &SearchRequest) -> SearchResponse {
            response(request.len(), 1.5)
        }

        fn search_batch(&mut self, queries: &Dataset, _nprobe: usize, _k: usize) -> SearchResponse {
            response(queries.len(), 2.5)
        }

        fn energy_model(&self) -> EnergyModel {
            EnergyModel::new("recording-hw", 42.0, 4242.0)
        }

        fn install_timeline(&mut self, _timeline: annkit::mutation::SnapshotTimeline) -> bool {
            true
        }

        fn scale_to(&mut self, hosts: usize, now: f64) -> Option<f64> {
            Some(hosts as f64 + now)
        }

        fn live_hosts(&self) -> Option<usize> {
            Some(7)
        }
    }

    /// Called through the box *and* the vtable: a forwarder missing from
    /// `impl AnnEngine for Box<E>` is a compile error for the four required
    /// methods and answers with the trait default for the other three.
    #[test]
    fn boxed_dyn_engine_forwards_all_seven_methods() {
        use annkit::ivf::{IvfPqIndex, IvfPqParams};
        use annkit::mutation::{MutableIvf, SnapshotTimeline};

        let index = IvfPqIndex::train(&queries(256), &IvfPqParams::new(2, 2), 1);
        let timeline = SnapshotTimeline::new(MutableIvf::new(&index).snapshot());

        let mut engine: Box<dyn AnnEngine + Send> = Box::new(RecordingEngine);
        assert_eq!(engine.name(), "recording");
        assert_eq!(
            engine
                .execute(&SearchRequest::uniform(&queries(3), 4, 2))
                .seconds,
            1.5
        );
        assert_eq!(
            engine.search_batch(&queries(2), 4, 2).seconds,
            2.5,
            "the default shim answers through execute"
        );
        assert_eq!(engine.energy_model().peak_watts, 42.0);
        assert!(
            engine.install_timeline(timeline),
            "the inner engine accepts timelines"
        );
        assert_eq!(
            engine.scale_to(3, 0.5),
            Some(3.5),
            "the default has no elasticity"
        );
        assert_eq!(engine.live_hosts(), Some(7), "the default reports no hosts");
    }

    fn response(batch: usize, seconds: f64) -> SearchResponse {
        SearchResponse {
            request_id: 7,
            results: vec![vec![Neighbor::new(0, 0.0)]; batch],
            seconds,
            breakdown: StageBreakdown::new(),
            stats: WorkloadStats::default(),
        }
    }

    fn queries(n: usize) -> Dataset {
        let mut d = Dataset::with_capacity(4, n);
        for i in 0..n {
            d.push(&[i as f32, 0.0, 0.0, 0.0]);
        }
        d
    }

    #[test]
    fn qps_and_latency() {
        let o = response(1000, 0.5);
        assert_eq!(o.batch_size(), 1000);
        assert!((o.qps() - 2000.0).abs() < 1e-9);
        assert!((o.mean_latency() - 0.0005).abs() < 1e-12);
    }

    #[test]
    fn degenerate_outcomes() {
        let o = response(0, 0.0);
        assert_eq!(o.qps(), 0.0);
        assert_eq!(o.mean_latency(), 0.0);
        let empty = SearchResponse::empty(3);
        assert_eq!(empty.request_id, 3);
        assert_eq!(empty.batch_size(), 0);
    }

    #[test]
    fn efficiency_uses_energy_model() {
        let o = response(300, 1.0);
        let em = EnergyModel::new("x", 150.0, 3000.0);
        assert!((o.qps_per_watt(&em) - 2.0).abs() < 1e-9);
        assert!((o.qps_per_dollar(&em) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn uniform_request_shape() {
        let req = SearchRequest::uniform(&queries(5), 6, 3).with_id(42);
        assert_eq!(req.len(), 5);
        assert_eq!(req.id, 42);
        assert_eq!(req.max_k(), 3);
        let opt = req.uniform_options().expect("uniform");
        assert_eq!(opt.compat_key(), (3, 6));
        assert_eq!(req.option_groups().len(), 1);
    }

    #[test]
    fn mixed_request_groups_by_compat_key() {
        let opts = vec![
            QueryOptions::new(10, 8),
            QueryOptions::new(5, 4),
            QueryOptions::new(10, 8).with_latency_budget(1e-3),
            QueryOptions::new(5, 4),
        ];
        let req = SearchRequest::new(queries(4), opts);
        assert!(req.uniform_options().is_none());
        let groups = req.option_groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1, vec![0, 2]); // budgets don't split a group
        assert_eq!(groups[1].1, vec![1, 3]);
        assert_eq!(req.max_k(), 10);
    }

    #[test]
    fn tenant_labels_do_not_split_compat_groups() {
        let opts = vec![
            QueryOptions::new(10, 8).with_tenant(TenantId(1)),
            QueryOptions::new(10, 8).with_tenant(TenantId(2)),
            QueryOptions::new(5, 4).with_tenant(TenantId(1)),
        ];
        let req = SearchRequest::new(queries(3), opts);
        let groups = req.option_groups();
        assert_eq!(groups.len(), 2, "tenants share execution sub-batches");
        assert_eq!(groups[0].1, vec![0, 1]);
        assert_eq!(
            QueryOptions::new(10, 8)
                .with_tenant(TenantId(3))
                .compat_key(),
            QueryOptions::new(10, 8).compat_key()
        );
        assert_eq!(QueryOptions::default().tenant, TenantId::DEFAULT);
    }

    #[test]
    #[should_panic(expected = "one QueryOptions per query")]
    fn mismatched_options_length_is_rejected() {
        let _ = SearchRequest::new(queries(3), vec![QueryOptions::default(); 2]);
    }

    #[test]
    fn execute_grouped_scatters_results_and_sums_time() {
        let opts = vec![
            QueryOptions::new(1, 2),
            QueryOptions::new(2, 3),
            QueryOptions::new(1, 2),
        ];
        let req = SearchRequest::new(queries(3), opts).with_id(9);
        let mut calls = Vec::new();
        let out = execute_grouped(&req, |qs, nprobe, k| {
            calls.push((qs.len(), nprobe, k));
            SearchResponse {
                request_id: 0,
                // Tag each result with its group's k so scattering is visible.
                results: (0..qs.len())
                    .map(|_| vec![Neighbor::new(k as u64, 0.0); k])
                    .collect(),
                seconds: 0.5,
                breakdown: StageBreakdown::new(),
                stats: WorkloadStats::default(),
            }
        });
        assert_eq!(calls, vec![(2, 2, 1), (1, 3, 2)]);
        assert_eq!(out.request_id, 9);
        assert_eq!(out.results[0].len(), 1);
        assert_eq!(out.results[1].len(), 2);
        assert_eq!(out.results[2].len(), 1);
        assert!((out.seconds - 1.0).abs() < 1e-12);
    }

    #[test]
    fn execute_grouped_uniform_fast_path_keeps_single_call() {
        let req = SearchRequest::uniform(&queries(4), 5, 2);
        let mut calls = 0;
        let out = execute_grouped(&req, |qs, nprobe, k| {
            calls += 1;
            assert_eq!((qs.len(), nprobe, k), (4, 5, 2));
            response(qs.len(), 0.25)
        });
        assert_eq!(calls, 1);
        assert_eq!(out.batch_size(), 4);
    }

    #[test]
    fn empty_request_short_circuits() {
        let req = SearchRequest::new(Dataset::new(4), Vec::new()).with_id(1);
        let out = execute_grouped(&req, |_, _, _| unreachable!("no groups to run"));
        assert_eq!(out.request_id, 1);
        assert_eq!(out.batch_size(), 0);
        assert_eq!(out.seconds, 0.0);
    }
}
