//! The online phase: the `UpAnnsEngine`, answering query batches on the
//! simulated PIM system.
//!
//! Per batch (Figure 5's online half):
//!
//! 1. **Cluster filtering** (host CPU) — select `nprobe` centroids per query.
//! 2. **Query scheduling** (host CPU, Algorithm 2) — map every
//!    (query, cluster) pair onto a DPU holding a replica.
//! 3. **Query transfer** (host → DPU) — residuals + assignment headers,
//!    padded to a uniform per-DPU size so the copy parallelizes across DPUs.
//! 4. **DPU kernel** — LUT construction, combination sums, distance
//!    calculation, pruned top-k (see [`crate::kernel`]).
//! 5. **Result transfer** (DPU → host) — per-DPU result mailboxes.
//! 6. **Host merge** — fold per-DPU partial top-k lists into the final
//!    answer per query.
//!
//! The engine serves a [`SnapshotTimeline`] rather than a frozen index on
//! one PIM fleet: each installed snapshot gets its own epoch state — a
//! placement, combo tables and a per-DPU map of the MRAM regions it reads
//! — and every query runs against the state active at its own arrival
//! time. Epochs share every list a mutation left alone; each DPU's staging
//! pair is the engine's, not an epoch's. A fresh engine holds one entry.
//!
//! The engine implements [`AnnEngine`], so the benchmark harness sweeps it
//! interchangeably with the CPU/GPU baselines.

use crate::builder::{build_fleet, BuildRecipe};
use crate::config::UpAnnsConfig;
use crate::cooccurrence::ComboTable;
use crate::kernel::{
    mailbox_slot_bytes, mailbox_slots, run_batch_kernel, DpuBatchPlan, DpuStore, KernelShared,
};
use crate::placement::Placement;
use crate::scheduling::schedule_queries;
use annkit::ivf::IvfPqIndex;
use annkit::mutation::SnapshotTimeline;
use annkit::topk::TopK;
use annkit::vector::{residual, Dataset};
use baselines::cpu;
use baselines::engine::{
    execute_by_entry, execute_grouped, AnnEngine, SearchRequest, SearchResponse,
};
use baselines::workload_stats::WorkloadStats;
use pim_sim::energy::EnergyModel;
use pim_sim::host::{DpuRead, DpuWrite, ExecReport, PimSystem};
use pim_sim::mram::MramAddr;
use pim_sim::stats::Stage;
use std::collections::HashMap;

/// The kernel's fixed host cost of one assignment in scanned candidates,
/// the unit of a launch's work estimate: its LUT build, combination sums,
/// id reads, charge and bookkeeping. In a traced `batch-scan` under
/// `taskset -c 0` on a 2-vCPU Xeon VM they take 4.5 µs an assignment (the
/// LUT build 3.2) and a candidate 17.3 ns
/// (`upanns.engine.host_ns_per_candidate`), so ≈ 258 candidates.
const ASSIGNMENT_WORK: u64 = 256;

/// What the six-stage pipeline needs to serve one installed snapshot beyond
/// the snapshot (its timeline entry) and the fleet: the placement, combo
/// tables and reduction rates derived from the snapshot, and each DPU's
/// directory of the fleet's regions it reads.
pub(crate) struct EpochState {
    pub(crate) placement: Placement,
    pub(crate) combos: HashMap<usize, ComboTable>,
    /// One per encoded cluster, in ascending cluster order.
    pub(crate) reduction_rates: Vec<f64>,
    pub(crate) stores: Vec<DpuStore>,
}

/// One DPU's staging pair, its query buffer and result mailbox, each an
/// (address, capacity) with 0 bytes for none: the fleet's, not an epoch's.
#[derive(Clone, Copy, Default)]
struct Staging {
    query: (MramAddr, usize),
    mailbox: (MramAddr, usize),
}

impl Staging {
    /// Grows DPU `dpu`'s pair to `query` and `mailbox` bytes, freeing each buffer it outgrew.
    fn grow(&mut self, sys: &mut PimSystem, dpu: usize, query: usize, mailbox: usize) {
        for (buffer, bytes) in [(&mut self.query, query), (&mut self.mailbox, mailbox)] {
            if buffer.1 < bytes {
                if buffer.1 > 0 {
                    sys.mram_free(dpu, buffer.0)
                        .expect("a staging buffer is a live region");
                }
                *buffer = (
                    sys.mram_alloc(dpu, bytes)
                        .expect("MRAM for a staging buffer"),
                    bytes,
                );
            }
        }
    }

    /// Copies the pair into `store`, the kernel's view of it for one launch.
    fn fill(self, store: &mut DpuStore) {
        (store.query_buffer_addr, store.query_buffer_bytes) = self.query;
        (store.mailbox_addr, store.mailbox_bytes) = self.mailbox;
    }
}

fn host_filter_seconds(queries: usize, nlist: usize, dim: usize) -> f64 {
    let flops = queries as f64 * nlist as f64 * dim as f64 * 2.0;
    flops / cpu::COMPUTE_FLOPS
}

fn host_schedule_seconds(assignments: usize, dim: usize) -> f64 {
    // Algorithm 2 is O(|Q| × nprobe) with small constants, plus the
    // residual computation for each assignment.
    let cycles = assignments as f64 * 60.0 + assignments as f64 * dim as f64;
    cycles / cpu::FREQ_HZ
}

/// Host time to merge `elements` (query, neighbor) candidates into the
/// per-query top-k: the engine's Stage 6 and the §5.5 coordinator's merge.
pub(crate) fn host_merge_seconds(elements: usize) -> f64 {
    elements as f64 * 12.0 / cpu::FREQ_HZ
}

/// The UpANNS search engine (also the PIM-naive baseline, depending on the
/// [`UpAnnsConfig`] it was built with).
pub struct UpAnnsEngine {
    timeline: SnapshotTimeline,
    /// The one simulated fleet: every epoch's regions are staged in it.
    sys: PimSystem,
    /// One derived state per timeline entry (parallel to
    /// `timeline.entries()`).
    epochs: Vec<EpochState>,
    staging: Vec<Staging>,
    /// The offline-phase inputs, kept so `install_timeline` can re-run the
    /// build over the installed snapshots.
    recipe: BuildRecipe,
    name: String,
    last_exec_report: Option<ExecReport>,
    last_schedule_ratio: f64,
}

impl UpAnnsEngine {
    /// Assembles an engine from the builder's outputs (use
    /// [`UpAnnsBuilder`](crate::builder::UpAnnsBuilder) rather than calling
    /// this directly).
    pub(crate) fn from_build(
        recipe: BuildRecipe,
        timeline: SnapshotTimeline,
        (sys, epochs): (PimSystem, Vec<EpochState>),
    ) -> Self {
        let config = &recipe.config;
        let name = match (
            config.pim_aware_placement,
            config.cooccurrence_encoding,
            config.topk_pruning,
        ) {
            (true, true, true) => "UpANNS",
            (false, false, false) => "PIM-naive",
            _ => "UpANNS(partial)",
        };
        Self {
            timeline,
            staging: vec![Staging::default(); sys.num_dpus()],
            sys,
            epochs,
            recipe,
            name: name.to_string(),
            last_exec_report: None,
            last_schedule_ratio: 1.0,
        }
    }

    /// The snapshot timeline currently being served.
    pub(crate) fn timeline(&self) -> &SnapshotTimeline {
        &self.timeline
    }

    /// The state of the most recently activated epoch (a fresh engine has
    /// exactly one).
    fn current(&self) -> &EpochState {
        self.epochs.last().expect("an engine always has one epoch")
    }

    /// The offline data placement (of the most recently activated epoch).
    pub fn placement(&self) -> &Placement {
        &self.current().placement
    }

    /// The simulated PIM system: the one fleet that holds every installed
    /// epoch's regions (for energy, configuration and MRAM queries).
    pub fn pim_system(&self) -> &PimSystem {
        &self.sys
    }

    /// Mean co-occurrence length-reduction rate across encoded clusters
    /// (0 when CAE is disabled) — the x-axis quantity of Figure 14.
    ///
    /// Summed in ascending cluster order: an `f64` sum depends on its order.
    pub fn mean_reduction_rate(&self) -> f64 {
        let rates = &self.current().reduction_rates;
        if rates.is_empty() {
            return 0.0;
        }
        rates.iter().sum::<f64>() / rates.len() as f64
    }

    /// The max/avg DPU busy-time ratio of the most recent batch (Figure 11's
    /// metric; 1.0 = perfectly balanced).
    pub fn last_balance_ratio(&self) -> f64 {
        self.last_exec_report
            .as_ref()
            .map(|r| r.max_to_avg_ratio())
            .unwrap_or(1.0)
    }

    /// The max/avg *scheduled workload* ratio of the most recent batch (the
    /// static estimate used by Algorithm 2).
    pub fn last_schedule_ratio(&self) -> f64 {
        self.last_schedule_ratio
    }

    /// Kernel-side execution report of the most recent batch.
    pub fn last_exec_report(&self) -> Option<&ExecReport> {
        self.last_exec_report.as_ref()
    }
}

/// Everything of the engine one launch reads and writes — all of it but the
/// timeline, so [`UpAnnsEngine::execute`] can resolve entries on the
/// timeline by reference while launches mutate the rest.
struct Launcher<'a> {
    sys: &'a mut PimSystem,
    epochs: &'a mut [EpochState],
    staging: &'a mut [Staging],
    config: &'a UpAnnsConfig,
    last_exec_report: &'a mut Option<ExecReport>,
    last_schedule_ratio: &'a mut f64,
}

impl Launcher<'_> {
    /// One uniform sub-batch through the full six-stage PIM pipeline, against
    /// `snapshot` and its epoch state at index `epoch`.
    fn run_uniform(
        &mut self,
        epoch: usize,
        snapshot: &IvfPqIndex,
        queries: &Dataset,
        nprobe: usize,
        k: usize,
    ) -> SearchResponse {
        let (config, sys) = (self.config, &mut *self.sys);
        assert_eq!(queries.dim(), snapshot.dim(), "query dimension mismatch");
        assert!(k > 0, "k must be positive");
        let nprobe = nprobe.min(snapshot.nlist()).max(1);
        let nq = queries.len();
        sys.reset_clock();

        // ---- Stage 1: cluster filtering (host CPU) ------------------------
        // A probed list that is empty (never populated, or emptied by
        // deletes) contributes no candidate and is staged on no DPU, so it
        // is dropped here rather than scheduled.
        let cluster_sizes = snapshot.list_sizes();
        let filtered: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| {
                snapshot
                    .filter_clusters(q, nprobe)
                    .into_iter()
                    .map(|(c, _)| c)
                    .filter(|&c| cluster_sizes[c] > 0)
                    .collect()
            })
            .collect();
        let filter_seconds = host_filter_seconds(nq, snapshot.nlist(), snapshot.dim());
        sys.advance_host(Stage::ClusterFiltering, filter_seconds);

        // ---- Stage 2: query scheduling (host CPU, Algorithm 2) ------------
        let schedule = schedule_queries(&filtered, &self.epochs[epoch].placement, &cluster_sizes);
        *self.last_schedule_ratio = schedule.max_to_avg_workload();
        let total_assignments = schedule.total_assignments();
        let schedule_seconds = host_schedule_seconds(total_assignments, snapshot.dim());
        sys.advance_host(Stage::QueryScheduling, schedule_seconds);

        // ---- Stage 3: query transfer (host → DPU, uniform padded buffers) -
        // A plan per busy DPU, in DPU order. The residual is computed once,
        // into the plan (the kernel's functional input), and serialized
        // from there.
        let record_bytes = 8 + snapshot.dim() * 4; // (query id, cluster id) header + residual
        let uniform_query_bytes = schedule.max_assignments_per_dpu().max(1) * record_bytes;
        let plans: Vec<(usize, DpuBatchPlan)> = schedule
            .per_dpu
            .into_iter()
            .enumerate()
            .filter(|(_, assignments)| !assignments.is_empty())
            .map(|(dpu, assignments)| {
                let mut plan = DpuBatchPlan {
                    residuals: Vec::with_capacity(assignments.len()),
                    ..DpuBatchPlan::default()
                };
                for a in &assignments {
                    let q = queries.vector(a.query);
                    plan.residuals
                        .push(residual(q, snapshot.coarse().centroid(a.cluster)));
                    if !plan.queries.contains(&a.query) {
                        plan.queries.push(a.query);
                    }
                }
                plan.assignments = assignments;
                (dpu, plan)
            })
            .collect();
        // Every busy DPU's query buffer and mailbox hold the launch's
        // uniform sizes, so both transfers run in parallel and no modeled
        // byte depends on what an earlier launch staged.
        let max_queries_per_dpu = plans.iter().map(|(_, p)| p.queries.len()).max();
        let uniform_mailbox = max_queries_per_dpu.unwrap_or(0) * mailbox_slot_bytes(k);
        let (mut writes, mut reads) = (Vec::new(), Vec::new());
        for (dpu, plan) in &plans {
            let pair = &mut self.staging[*dpu];
            pair.grow(sys, *dpu, uniform_query_bytes, uniform_mailbox);
            pair.fill(&mut self.epochs[epoch].stores[*dpu]);
            reads.push(DpuRead::new(*dpu, pair.mailbox.0, uniform_mailbox));
            // Zeroed, so the padding to the uniform size is already there.
            let mut buffer = vec![0; uniform_query_bytes];
            for ((a, res), record) in plan
                .assignments
                .iter()
                .zip(&plan.residuals)
                .zip(buffer.chunks_exact_mut(record_bytes))
            {
                let (header, values) = record.split_at_mut(8);
                header[..4].copy_from_slice(&(a.query as u32).to_le_bytes());
                header[4..].copy_from_slice(&(a.cluster as u32).to_le_bytes());
                for (bytes, x) in values.chunks_exact_mut(4).zip(res) {
                    bytes.copy_from_slice(&x.to_le_bytes());
                }
            }
            writes.push(DpuWrite::new(*dpu, pair.query.0, buffer));
        }
        sys.push_to_dpus(Stage::QueryTransfer, &writes)
            .expect("query buffers fit the launch");

        // ---- Stage 4: DPU kernel -------------------------------------------
        let EpochState { combos, stores, .. } = &self.epochs[epoch];
        let shared = KernelShared {
            pq: snapshot.pq(),
            combos,
            config,
            k,
            scan_backend: annkit::simd::active(),
        };
        // Each DPU's host cost in scanned candidates: its lists plus the
        // fixed cost of each assignment. A DPU with no assignment is idle
        // (0) and the launch does not visit it.
        let mut work = vec![0; sys.num_dpus()];
        for (dpu, plan) in &plans {
            work[*dpu] = plan
                .assignments
                .iter()
                .map(|a| cluster_sizes[a.cluster] as u64 + ASSIGNMENT_WORK)
                .sum();
        }
        let (report, outputs) = sys.execute_scheduled(Stage::DpuSearch, &work, |ctx| {
            let dpu = ctx.dpu_id();
            let slot = plans
                .binary_search_by_key(&dpu, |&(busy, _)| busy)
                .expect("the launch visits busy DPUs only");
            run_batch_kernel(ctx, &stores[dpu], &plans[slot].1, &shared)
        });

        // ---- Stage 5: result transfer (DPU → host) -------------------------
        let mailboxes = sys
            .pull_from_dpus(Stage::ResultTransfer, &reads)
            .expect("mailboxes fit the launch");
        for (dpu, _) in &plans {
            Staging::default().fill(&mut self.epochs[epoch].stores[*dpu]);
        }

        // ---- Stage 6: host merge -------------------------------------------
        let mut merged: Vec<TopK> = (0..nq).map(|_| TopK::new(k)).collect();
        let mut partial_count = 0usize;
        for ((_, plan), bytes) in plans.iter().zip(&mailboxes) {
            for (q, neighbors) in mailbox_slots(bytes, plan.queries.len(), k) {
                partial_count += 1;
                for n in neighbors {
                    merged[q].push(n.id, n.distance);
                }
            }
        }
        sys.advance_host(Stage::HostMerge, host_merge_seconds(partial_count * k));

        // ---- Assemble the outcome ------------------------------------------
        let mut stats = WorkloadStats {
            queries: nq,
            k,
            nprobe,
            centroid_comparisons: (nq * snapshot.nlist()) as u64,
            luts_built: total_assignments as u64,
            lut_entries: (total_assignments * snapshot.m() * 256) as u64,
            ..WorkloadStats::default()
        };
        for work in outputs.iter().map(|o| &o.work) {
            stats.candidates_scanned += work.vectors;
            stats.lut_lookups += work.lut_lookups;
            stats.code_bytes_read += work.code_bytes;
            stats.topk_candidates += work.merge.comparisons + work.merge.pruned;
            stats.topk_insertions += work.merge.insertions;
        }

        // The critical DPU's kernel regions take the place of the launch's
        // opaque total.
        let mut breakdown = *sys.breakdown();
        breakdown.splice(Stage::DpuSearch, &report.breakdown);
        *self.last_exec_report = Some(report);

        SearchResponse {
            request_id: 0,
            results: merged.into_iter().map(|h| h.into_sorted()).collect(),
            seconds: sys.elapsed_seconds(),
            breakdown,
            stats,
        }
    }
}

impl AnnEngine for UpAnnsEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn execute(&mut self, request: &SearchRequest) -> SearchResponse {
        let mut launcher = Launcher {
            sys: &mut self.sys,
            epochs: &mut self.epochs,
            staging: &mut self.staging,
            config: &self.recipe.config,
            last_exec_report: &mut self.last_exec_report,
            last_schedule_ratio: &mut self.last_schedule_ratio,
        };
        let entries = self.timeline.entries();
        execute_by_entry(&self.timeline, request, |epoch, sub| {
            execute_grouped(sub, |queries, nprobe, k| {
                launcher.run_uniform(epoch, &entries[epoch].1, queries, nprobe, k)
            })
        })
    }

    fn energy_model(&self) -> EnergyModel {
        EnergyModel::pim(self.sys.config())
    }

    fn install_timeline(&mut self, timeline: SnapshotTimeline) -> bool {
        // One new fleet for the whole timeline replaces the old one.
        (self.sys, self.epochs) = build_fleet(&timeline, &self.recipe, None);
        self.staging = vec![Staging::default(); self.sys.num_dpus()];
        self.timeline = timeline;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::UpAnnsBuilder;
    use annkit::ivf::IvfPqParams;
    use annkit::recall::recall_at_k;
    use annkit::synthetic::SyntheticSpec;
    use baselines::cpu::CpuFaissEngine;
    use pim_sim::config::PimConfig;
    use std::sync::OnceLock;

    impl UpAnnsEngine {
        /// The per-DPU MRAM directories of the current epoch (the builder's
        /// tests check what it staged).
        pub(crate) fn stores(&self) -> &[DpuStore] {
            &self.current().stores
        }

        /// Every installed epoch's state, in timeline order.
        pub(crate) fn epochs(&self) -> &[EpochState] {
            &self.epochs
        }
    }

    /// Compile-time Send audit: the threaded runtime (`upanns-runtime`)
    /// moves each engine worker into its own thread. The engine's mutable
    /// state (DPU stores, combo tables, the last exec report) is owned, and
    /// the snapshot shares the index via `Arc`, so `Send` holds
    /// structurally; this pins it against future `Rc`/`RefCell` fields.
    #[test]
    fn upanns_engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<UpAnnsEngine>();
    }

    struct Fixture {
        index: IvfPqIndex,
        data: Dataset,
        /// Skewed historical queries (for placement frequencies).
        history: Dataset,
        /// Skewed evaluation queries (the regime Opt1 targets).
        skewed_queries: Dataset,
    }

    fn shared_index() -> &'static Fixture {
        static IX: OnceLock<Fixture> = OnceLock::new();
        IX.get_or_init(|| {
            let meta = SyntheticSpec::sift_like(2000)
                .with_clusters(16)
                .with_seed(44)
                .generate_with_meta();
            let index = IvfPqIndex::train(
                &meta.vectors,
                &IvfPqParams::new(16, 16).with_train_size(800),
                6,
            );
            let history = annkit::workload::WorkloadSpec::new(200)
                .with_seed(5)
                .generate(&meta)
                .queries;
            let skewed_queries = annkit::workload::WorkloadSpec::new(40)
                .with_seed(6)
                .generate(&meta)
                .queries;
            Fixture {
                index,
                data: meta.vectors,
                history,
                skewed_queries,
            }
        })
    }

    fn build(config: UpAnnsConfig, dpus: usize) -> UpAnnsEngine {
        let fix = shared_index();
        UpAnnsBuilder::new(&fix.index)
            .with_config(config)
            .with_pim_config(PimConfig::with_dpus(dpus))
            .with_history(&fix.history, 4)
            .build()
    }

    #[test]
    fn results_match_the_cpu_baseline_exactly_for_plain_encoding() {
        let fix = shared_index();
        let mut pim = build(UpAnnsConfig::pim_naive(), 8);
        let mut cpu = CpuFaissEngine::new(&fix.index);
        let queries = fix.data.gather(&[1, 50, 333, 999, 1500]);
        let a = pim.search_batch(&queries, 4, 10);
        let b = cpu.search_batch(&queries, 4, 10);
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(
                x.iter().map(|n| n.id).collect::<Vec<_>>(),
                y.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
        assert_eq!(pim.name(), "PIM-naive");
    }

    #[test]
    fn upanns_accuracy_equals_pim_naive_accuracy() {
        // "The optimizations in UpANNS do not impact the accuracy" (§5.1).
        let fix = shared_index();
        let mut upanns = build(UpAnnsConfig::upanns(), 8);
        let mut naive = build(UpAnnsConfig::pim_naive(), 8);
        let queries = fix
            .data
            .gather(&(0..30).map(|i| i * 61 % 2000).collect::<Vec<_>>());
        let exact = annkit::flat::FlatIndex::new(&fix.data).search_batch(&queries, 10);
        let r_up = recall_at_k(&upanns.search_batch(&queries, 6, 10).results, &exact, 10);
        let r_naive = recall_at_k(&naive.search_batch(&queries, 6, 10).results, &exact, 10);
        assert!(
            (r_up - r_naive).abs() < 0.05,
            "UpANNS recall {r_up} vs PIM-naive {r_naive}"
        );
        assert_eq!(upanns.name(), "UpANNS");
    }

    #[test]
    fn upanns_is_faster_and_better_balanced_than_pim_naive() {
        let fix = shared_index();
        let queries = fix.skewed_queries.clone();
        let mut upanns = build(UpAnnsConfig::upanns().with_work_scale(200.0), 8);
        let mut naive = build(UpAnnsConfig::pim_naive().with_work_scale(200.0), 8);
        let out_up = upanns.search_batch(&queries, 6, 10);
        let out_naive = naive.search_batch(&queries, 6, 10);
        assert!(
            out_up.qps() > out_naive.qps(),
            "UpANNS {} <= PIM-naive {}",
            out_up.qps(),
            out_naive.qps()
        );
        assert!(
            upanns.last_balance_ratio() <= naive.last_balance_ratio() + 1e-9,
            "balance {} vs {}",
            upanns.last_balance_ratio(),
            naive.last_balance_ratio()
        );
    }

    #[test]
    fn breakdown_contains_all_pipeline_stages() {
        let fix = shared_index();
        let mut engine = build(UpAnnsConfig::upanns(), 8);
        let queries = fix.data.gather(&[0, 10, 20]);
        let out = engine.search_batch(&queries, 4, 10);
        for stage in [
            Stage::ClusterFiltering,
            Stage::QueryScheduling,
            Stage::QueryTransfer,
            Stage::DistanceCalc,
            Stage::LutConstruction,
            Stage::TopK,
            Stage::ResultTransfer,
            Stage::HostMerge,
        ] {
            assert!(
                out.breakdown.seconds(stage) > 0.0,
                "missing stage {stage:?} in breakdown: {}",
                out.breakdown
            );
        }
        assert!(out.seconds > 0.0);
        assert!(out.qps() > 0.0);
        assert!(engine.energy_model().peak_watts > 0.0);
    }

    /// Modeled MRAM of the engine's staging pairs, each buffer rounded up to
    /// 8 bytes like an allocation.
    fn staged_bytes(engine: &UpAnnsEngine) -> usize {
        let bytes = |(_, held): (MramAddr, usize)| held.next_multiple_of(8);
        engine
            .staging
            .iter()
            .map(|pair| bytes(pair.query) + bytes(pair.mailbox))
            .sum()
    }

    #[test]
    fn repeated_batches_reuse_buffers_and_stay_consistent() {
        let fix = shared_index();
        let mut engine = build(UpAnnsConfig::upanns(), 4);
        let built = engine.pim_system().total_mram_allocated();
        let queries = fix.data.gather(&(0..20).collect::<Vec<_>>());
        let many = fix
            .data
            .gather(&(0..400).map(|i| i * 7 % 2000).collect::<Vec<_>>());
        // Small, large, small: the large request outgrows every busy DPU's
        // pair, and the small one after it reuses the grown pair.
        let mut largest = vec![Staging::default(); 4];
        let (mut responses, mut staged) = (Vec::new(), Vec::new());
        for (batch, k) in [(&queries, 5), (&many, 40), (&queries, 5)] {
            responses.push(engine.search_batch(batch, 4, k));
            // Each pair is the largest its DPU needed so far.
            for (pair, before) in engine.staging.iter().zip(&mut largest) {
                assert!(pair.query.1 >= before.query.1 && pair.mailbox.1 >= before.mailbox.1);
                *before = *pair;
            }
            // The MRAM in use is the build's plus the live pairs: a buffer a
            // DPU outgrew was freed.
            staged.push(staged_bytes(&engine));
            assert_eq!(
                engine.pim_system().total_mram_allocated(),
                built + staged_bytes(&engine),
                "k = {k}"
            );
        }
        assert!(
            0 < staged[0] && staged[0] < staged[1] && staged[1] == staged[2],
            "{staged:?}"
        );
        let (first, second) = (&responses[0], &responses[2]);
        assert_eq!(first.results.len(), second.results.len());
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(
                a.iter().map(|n| n.id).collect::<Vec<_>>(),
                b.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
        // Timing is deterministic as well.
        assert!((first.seconds - second.seconds).abs() / first.seconds < 1e-9);
    }

    #[test]
    fn larger_k_returns_more_neighbors() {
        let fix = shared_index();
        let mut engine = build(UpAnnsConfig::upanns(), 4);
        let queries = fix.data.gather(&[5, 15]);
        let small = engine.search_batch(&queries, 4, 5);
        let large = engine.search_batch(&queries, 4, 50);
        assert!(small.results.iter().all(|r| r.len() <= 5));
        assert!(large.results.iter().all(|r| r.len() > 5));
        // The top-5 of the k=50 run must match the k=5 run.
        for (a, b) in small.results.iter().zip(&large.results) {
            assert_eq!(
                a.iter().map(|n| n.id).collect::<Vec<_>>(),
                b.iter().take(5).map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    fn ids(results: &[Vec<annkit::topk::Neighbor>]) -> Vec<Vec<u64>> {
        results
            .iter()
            .map(|r| r.iter().map(|n| n.id).collect())
            .collect()
    }

    #[test]
    fn probing_a_never_populated_list_answers_like_the_reference_search() {
        // Trained on the whole corpus, populated with eight vectors: at
        // least half of the 16 lists are empty, and nprobe = 16 probes them
        // all. (It used to panic: "DPU .. was assigned cluster .. it does
        // not host" — empty lists are staged on no DPU.)
        let fix = shared_index();
        let params = IvfPqParams::new(16, 16).with_train_size(800);
        let mut sparse = IvfPqIndex::train_empty(&fix.data, &params, 6);
        sparse.add(
            &fix.data
                .gather(&(0..8).map(|i| i * 250).collect::<Vec<_>>()),
            0,
        );
        assert!(sparse.list_sizes().contains(&0));
        let mut engine = UpAnnsBuilder::new(&sparse)
            .with_config(UpAnnsConfig::pim_naive())
            .with_pim_config(PimConfig::with_dpus(4))
            .build();
        let queries = fix.data.gather(&[1, 50, 333, 999, 1500]);
        let served = engine.search_batch(&queries, 16, 5);
        assert_eq!(
            ids(&served.results),
            ids(&sparse.search_batch(&queries, 16, 5))
        );
    }

    #[test]
    fn a_list_emptied_by_deletes_answers_like_the_snapshot_search() {
        use annkit::mutation::{MutableIvf, SnapshotTimeline};
        let fix = shared_index();
        // The query sits in list `c`; deleting every vector of that list
        // leaves the query's *first* probe empty from t = 10 on.
        let (c, _) = fix.index.filter_clusters(fix.data.vector(3), 1)[0];
        let mut live = MutableIvf::new(&fix.index);
        let mut timeline = SnapshotTimeline::new(live.snapshot());
        for &id in fix.index.list(c).ids() {
            assert!(live.delete(id));
        }
        timeline.install(10.0, live.snapshot());
        assert_eq!(timeline.at(12.0).list_sizes()[c], 0);
        let mut engine = build(UpAnnsConfig::pim_naive(), 8);
        assert!(engine.install_timeline(timeline.clone()));
        let queries = fix.data.gather(&[3, 77, 1234]);
        let served = engine.execute(&SearchRequest::uniform(&queries, 4, 10).with_at(12.0));
        assert_eq!(
            ids(&served.results),
            ids(&timeline.at(12.0).search_batch(&queries, 4, 10))
        );
    }

    /// Everything a response carries, with floats as bits.
    fn response_bits(r: &SearchResponse) -> impl PartialEq + std::fmt::Debug {
        let answers: Vec<Vec<(u64, u32)>> = r
            .results
            .iter()
            .map(|q| q.iter().map(|n| (n.id, n.distance.to_bits())).collect())
            .collect();
        let breakdown: Vec<(String, u64)> = r
            .breakdown
            .entries()
            .into_iter()
            .map(|(stage, s)| (stage, s.to_bits()))
            .collect();
        (answers, r.seconds.to_bits(), breakdown, r.stats.clone())
    }

    /// An engine built from `snapshot` alone with `recipe`.
    fn built_from(recipe: &BuildRecipe, snapshot: &IvfPqIndex) -> UpAnnsEngine {
        let timeline = SnapshotTimeline::new(snapshot.clone());
        let fleet = build_fleet(&timeline, recipe, None);
        UpAnnsEngine::from_build(recipe.clone(), timeline, fleet)
    }

    /// Every epoch of an installed timeline answers like an engine built
    /// from its snapshot alone, whichever epochs the fleet served before and
    /// however large the requests that grew its staging buffers.
    #[test]
    fn every_installed_epoch_equals_an_engine_built_from_its_snapshot() {
        use annkit::mutation::MutableIvf;
        let fix = shared_index();
        // Five entries, so concurrent builders each get a run of several and
        // a misplaced run would serve the wrong corpus.
        let mut live = MutableIvf::new(&fix.index);
        let mut timeline = SnapshotTimeline::new(live.snapshot());
        for step in 0..4u64 {
            for i in 0..40 {
                let row = (step as usize * 97 + i * 13) % fix.data.len();
                live.upsert(fix.data.vector(row), 50_000 + step * 100 + i as u64);
                live.delete((step * 211 + i as u64 * 7) % 2000);
            }
            timeline.install(10.0 * (step + 1) as f64, live.snapshot());
        }
        let rows: Vec<usize> = (0..24).map(|i| i * 83 % 2000).collect();
        let queries = fix.data.gather(&rows);
        let request = SearchRequest::uniform(&queries, 4, 10);
        let rows: Vec<usize> = (0..160).map(|i| i * 37 % 2000).collect();
        let many = fix.data.gather(&rows);
        let large = SearchRequest::uniform(&many, 8, 40);

        let mut first = build(UpAnnsConfig::upanns(), 8);
        let mut second = build(UpAnnsConfig::upanns(), 8);
        assert!(first.install_timeline(timeline.clone()));
        assert!(second.install_timeline(timeline.clone()));
        let recipe = first.recipe.clone();
        let entries = timeline.entries();
        let mut references = Vec::new();
        for (at, snapshot) in entries {
            let at = at.max(0.0) + 1.0;
            let served = first.execute(&request.clone().with_at(at));
            let again = second.execute(&request.clone().with_at(at));
            assert_eq!(
                response_bits(&served),
                response_bits(&again),
                "two installs, t = {at}"
            );
            let mut scratch = built_from(&recipe, snapshot);
            let reference = scratch.execute(&request);
            assert_eq!(
                response_bits(&served),
                response_bits(&reference),
                "t = {at}"
            );
            references.push((reference, scratch.execute(&large)));
        }

        // A third engine serves the entries last to first, then first to
        // last, the large request after each small one.
        let mut shuffled = build(UpAnnsConfig::upanns(), 8);
        assert!(shuffled.install_timeline(timeline.clone()));
        for i in (0..entries.len()).rev().chain(0..entries.len()) {
            let at = entries[i].0.max(0.0) + 1.0;
            let (small, grown) = &references[i];
            let served = shuffled.execute(&request.clone().with_at(at));
            assert_eq!(response_bits(&served), response_bits(small), "entry {i}");
            let served = shuffled.execute(&large.clone().with_at(at));
            assert_eq!(
                response_bits(&served),
                response_bits(grown),
                "entry {i}, large request"
            );
        }
    }

    #[test]
    fn mean_reduction_rate_is_the_same_bits_in_every_build() {
        let first = build(UpAnnsConfig::upanns(), 8).mean_reduction_rate();
        assert!(first > 0.0);
        for _ in 0..5 {
            let again = build(UpAnnsConfig::upanns(), 8).mean_reduction_rate();
            assert_eq!(again.to_bits(), first.to_bits());
        }
    }

    #[test]
    fn installed_timeline_serves_per_epoch_answers_and_stalls() {
        use annkit::mutation::{MutableIvf, SnapshotTimeline};
        let fix = shared_index();
        let mut engine = build(UpAnnsConfig::upanns(), 8);
        let queries = fix.data.gather(&[3, 77, 1234]);

        // Baseline answers on the frozen single-entry timeline.
        let frozen = engine.execute(&SearchRequest::uniform(&queries, 4, 10));

        // Upsert a duplicate of query 3's vector under a fresh id and
        // install the mutated snapshot at t = 10.
        let mut live = MutableIvf::new(&fix.index);
        let mut timeline = SnapshotTimeline::new(live.snapshot());
        live.upsert(fix.data.vector(3), 90_000);
        timeline.install(10.0, live.snapshot());
        timeline.push_window(20.0, 21.5);
        let as_built = build_fleet(&timeline, &engine.recipe, None)
            .0
            .total_mram_allocated();
        assert!(engine.install_timeline(timeline));
        // The new fleet holds no staging, and the next request stages in it.
        assert_eq!(engine.pim_system().total_mram_allocated(), as_built);
        assert_eq!(staged_bytes(&engine), 0);

        // Before activation the engine still serves the frozen answers.
        let early = engine.execute(&SearchRequest::uniform(&queries, 4, 10).with_at(5.0));
        assert!(staged_bytes(&engine) > 0);
        assert_eq!(
            engine.pim_system().total_mram_allocated(),
            as_built + staged_bytes(&engine)
        );
        for (a, b) in frozen.results.iter().zip(&early.results) {
            assert_eq!(
                a.iter().map(|n| n.id).collect::<Vec<_>>(),
                b.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }

        // After activation the new id is visible.
        let late = engine.execute(&SearchRequest::uniform(&queries, 4, 10).with_at(12.0));
        assert!(late.results[0].iter().any(|n| n.id == 90_000));

        // A request inside the compaction window pays the stall.
        let stalled = engine.execute(&SearchRequest::uniform(&queries, 4, 10).with_at(20.5));
        assert!(stalled.breakdown.seconds(Stage::CompactionStall) > 0.9);
        assert!(stalled.seconds > late.seconds);
    }
}
