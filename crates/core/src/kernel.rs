//! The DPU search kernel: LUT construction, combination sums, distance
//! calculation and pruned top-k, executed per (query, cluster) assignment.
//!
//! This is the code that would be the C "DPU program" on real UPMEM hardware.
//! Here it is ordinary Rust executed against [`pim_sim`]'s kernel context, so
//! it is both *functional* (it reads the actual encoded points resident in
//! MRAM and produces exact ADC results) and *costed* (every MRAM transfer,
//! WRAM access, add and multiply is charged to the cycle model, in parallel
//! regions that follow the Figure 6 barrier structure).

use crate::config::UpAnnsConfig;
use crate::cooccurrence::ComboTable;
use crate::encoding::CaeList;
use crate::scheduling::Assignment;
use crate::topk_prune::{merge_thread_local, MergeStats};
use crate::wram_layout::{WramPlan, WramPlanInput};
use annkit::lut::LookupTable;
use annkit::pq::ProductQuantizer;
use annkit::topk::{Neighbor, TopK};
use pim_sim::mram::MramAddr;
use pim_sim::stats::Stage;
use pim_sim::tasklet::DpuKernelCtx;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

/// How a cluster replica's payload is laid out in MRAM.
#[derive(Debug, Clone)]
pub enum ListEncoding {
    /// Plain packed `u8` PQ codes, `m` bytes per vector (PIM-naive and
    /// CAE-disabled UpANNS).
    PlainU8,
    /// Co-occurrence aware `u16` direct-address stream. The host-side
    /// [`CaeList`] mirror is kept for record-boundary metadata and functional
    /// decoding; the byte stream itself is resident in MRAM. Every replica
    /// of a cluster shares the one mirror its encoding produced.
    CaeU16(Arc<CaeList>),
}

/// One cluster replica resident in a DPU's MRAM.
#[derive(Debug, Clone)]
pub struct ClusterReplica {
    /// Cluster id.
    pub cluster: usize,
    /// Number of vectors stored.
    pub num_vectors: usize,
    /// MRAM address of the id array (`num_vectors × u64` little-endian).
    pub ids_addr: MramAddr,
    /// MRAM address of the code payload.
    pub codes_addr: MramAddr,
    /// Bytes of the code payload.
    pub codes_bytes: usize,
    /// Payload encoding.
    pub encoding: ListEncoding,
}

/// Everything a DPU holds after the offline phase.
#[derive(Debug, Clone, Default)]
pub struct DpuStore {
    /// MRAM address of the (quantized) codebook staged for LUT construction.
    pub codebook_addr: MramAddr,
    /// Bytes of the staged codebook (`dim × 256` at 1 B per component).
    pub codebook_bytes: usize,
    /// Cluster replicas hosted by this DPU, keyed by cluster id.
    pub replicas: HashMap<usize, ClusterReplica>,
    /// MRAM address of the query/residual staging buffer.
    pub query_buffer_addr: MramAddr,
    /// Capacity in bytes of the query staging buffer.
    pub query_buffer_bytes: usize,
    /// MRAM address of the result mailbox.
    pub mailbox_addr: MramAddr,
    /// Capacity in bytes of the result mailbox.
    pub mailbox_bytes: usize,
}

/// Host-side state shared by all DPU kernel instances for one batch.
pub struct KernelShared<'a> {
    /// The trained product quantizer (for functional LUT construction).
    pub pq: &'a ProductQuantizer,
    /// Mined combination tables per cluster (empty map when CAE is off).
    pub combos: &'a HashMap<usize, ComboTable>,
    /// Engine configuration.
    pub config: &'a UpAnnsConfig,
    /// Requested top-k size.
    pub k: usize,
    /// SIMD backend for the top-k pre-filter — and only that: the ADC scan
    /// has a single implementation. The field keeps its old name because the
    /// repo benchmark (`benchmark/src/micro.rs`) builds this struct
    /// literally; rename it at the next benchmark revision. Answers are
    /// bitwise-identical across backends (annkit's equivalence contract), so
    /// this only affects host-side wall-clock speed — never the modeled DPU
    /// cost or the results. Engines pass [`annkit::simd::active()`]; benches
    /// pin one explicitly.
    pub scan_backend: annkit::simd::Backend,
}

/// The work of one DPU for one batch.
#[derive(Debug, Clone, Default)]
pub struct DpuBatchPlan {
    /// (query, cluster) assignments, in execution order.
    pub assignments: Vec<Assignment>,
    /// Residual (`q − centroid`) per assignment.
    pub residuals: Vec<Vec<f32>>,
    /// Distinct query indices handled by this DPU, in mailbox order.
    pub queries: Vec<usize>,
}

impl DpuBatchPlan {
    /// Whether this DPU has nothing to do this batch.
    pub(crate) fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }
}

/// Result of running the kernel on one DPU.
#[derive(Debug, Clone, Default)]
pub struct KernelOutput {
    /// Per-query partial top-k (local to this DPU), keyed by query index.
    pub partials: Vec<(usize, Vec<Neighbor>)>,
    /// Aggregated top-k merge statistics.
    pub merge_stats: MergeStats,
    /// Bytes written to the result mailbox.
    pub mailbox_bytes_written: usize,
    /// Candidate vectors scanned (at actual, unscaled, dataset scale).
    pub candidates_scanned: u64,
    /// LUT/partial-sum lookups performed (actual scale).
    pub lut_lookups: u64,
    /// MRAM code bytes streamed (actual scale).
    pub code_bytes_read: u64,
}

/// Size in bytes of one query's slot in the result mailbox.
pub fn mailbox_slot_bytes(k: usize) -> usize {
    4 + k * 12 // u32 query id + k × (u64 id, f32 distance)
}

/// Host-side buffers the functional half of the kernel reuses across the
/// assignments (and DPUs) it runs on one host thread, so the simulator's
/// steady state allocates nothing per assignment. Holds no state between
/// uses: every buffer is rebuilt before it is read.
#[derive(Debug, Default)]
struct KernelScratch {
    lut: LookupTable,
    /// §4.3's unified WRAM region: the flat LUT followed by the cluster's
    /// combination partial sums, addressed directly by the encoded stream.
    unified: Vec<f32>,
    /// Distances of the records one tasklet scanned.
    distances: Vec<f32>,
    /// The tasklets' local top-k heaps.
    heaps: Vec<TopK>,
}

thread_local! {
    /// One scratch per host thread: a launch runs its DPUs on several.
    static SCRATCH: RefCell<KernelScratch> = RefCell::default();
}

/// Runs the UpANNS batch kernel on one DPU.
///
/// Follows the stage/barrier structure of Figure 6 for every assignment:
/// `lut_construction` → (barrier) → `combo_sum` → (barrier) →
/// `distance_calc` → (barrier) → `topk`, then a single `result_write` at the
/// end of the batch. The host-side buffers are the calling thread's.
pub fn run_batch_kernel(
    ctx: &mut DpuKernelCtx<'_>,
    store: &DpuStore,
    plan: &DpuBatchPlan,
    shared: &KernelShared<'_>,
) -> KernelOutput {
    SCRATCH.with_borrow_mut(|scratch| run_with_scratch(ctx, store, plan, shared, scratch))
}

fn run_with_scratch(
    ctx: &mut DpuKernelCtx<'_>,
    store: &DpuStore,
    plan: &DpuBatchPlan,
    shared: &KernelShared<'_>,
    scratch: &mut KernelScratch,
) -> KernelOutput {
    let mut output = KernelOutput::default();
    if plan.is_empty() {
        return output;
    }
    let config = shared.config;
    let m = shared.pq.m();
    let dsub = shared.pq.dsub();
    let dim = shared.pq.dim();
    let k = shared.k;
    let tasklets = config.tasklets;
    let KernelScratch {
        lut,
        unified,
        distances,
        heaps,
    } = scratch;
    if heaps.first().is_some_and(|h| h.k() != k) {
        heaps.clear();
    }
    heaps.resize_with(tasklets, || TopK::new(k));

    // Verify the WRAM reuse plan fits before doing anything (the layout of
    // Figure 6): the codebook's space is reused by the combination sums, the
    // read buffers and the heaps, and every assignment below follows that one
    // schedule, so its peak is the launch's.
    let max_combos = plan
        .assignments
        .iter()
        .filter_map(|a| shared.combos.get(&a.cluster).map(|t| t.len()))
        .max()
        .unwrap_or(0);
    let read_bytes = kernel_read_bytes(config, m);
    let plan_input = WramPlanInput {
        wram_capacity: ctx.config().wram_bytes,
        ..WramPlanInput::new(dim, m, k, max_combos, tasklets, read_bytes)
    };
    let wplan = WramPlan::plan(&plan_input)
        .unwrap_or_else(|e| panic!("DPU {}: WRAM layout does not fit: {e}", ctx.dpu_id()));
    ctx.record_wram_peak(wplan.peak());

    // Per-query partial heaps, local to this DPU (held in the WRAM heap
    // region; co-located clusters of the same query merge here without any
    // host round-trip — insight 3 of §4.1.1).
    let mut query_heaps: BTreeMap<usize, TopK> = BTreeMap::new();

    for (a_idx, assignment) in plan.assignments.iter().enumerate() {
        let replica = store
            .replicas
            .get(&assignment.cluster)
            .unwrap_or_else(|| {
                panic!(
                    "DPU {} was assigned cluster {} it does not host",
                    ctx.dpu_id(),
                    assignment.cluster
                )
            });
        let residual = &plan.residuals[a_idx];
        let combos = shared
            .combos
            .get(&assignment.cluster)
            .filter(|table| !table.is_empty());

        // ---- Stage 1: LUT construction (Barrier 0/1) --------------------
        //
        // Functionally, an encoded list's LUT holds only the blocks its
        // codes (and so its combinations) can read; the plain payload keeps
        // the dense build. The charge below is the dense table either way:
        // at the modeled scale (`num_vectors × work_scale` codes per list)
        // every block is referenced, so the mask is a reduced-scale saving
        // of the host, not of the DPU.
        match &replica.encoding {
            ListEncoding::CaeU16(cae) => lut.rebuild_masked(shared.pq, residual, cae.code_blocks()),
            ListEncoding::PlainU8 => lut.rebuild(shared.pq, residual),
        }
        let codebook_addr = store.codebook_addr;
        let codebook_bytes = store.codebook_bytes;
        ctx.parallel(Stage::LutConstruction, tasklets, |t| {
            // Read this assignment's residual (q − c) from the staging buffer
            // (tasklet 0 only; staged by the host transfer) and a slice of
            // the codebook, then compute the corresponding LUT entries.
            if t.tasklet_id == 0 {
                t.charge_dma((dim * 4).min(store.query_buffer_bytes.max(8)));
            }
            let share = codebook_bytes.div_ceil(tasklets);
            let offset = t.tasklet_id * share;
            if offset < codebook_bytes {
                let len = share.min(codebook_bytes - offset);
                let _ = t.mram_read(codebook_addr + offset, len);
            }
            let entries = (m * 256).div_ceil(tasklets) as u64;
            t.charge_arith(entries * dsub as u64 * 3, 0);
            t.charge_wram(entries);
        });

        // ---- Stage 2: combination partial sums (Barrier 1/2) ------------
        if let Some(table) = combos {
            let per_tasklet = table.len().div_ceil(tasklets) as u64;
            let avg_len = 3u64;
            ctx.parallel(Stage::ComboSum, tasklets, |t| {
                t.charge_wram(per_tasklet * (avg_len + 1));
                t.charge_arith(per_tasklet * avg_len, 0);
            });
        }
        if let ListEncoding::CaeU16(_) = &replica.encoding {
            unified.clear();
            unified.extend_from_slice(lut.as_flat());
            if let Some(table) = combos {
                table.extend_partial_sums(lut, unified);
            }
        }

        // ---- Stage 3: distance calculation (Barrier 2/3) ----------------
        //
        // The functional scan runs at the stored (reduced) scale so results
        // are exact, while the *charged* cost models the cluster at the
        // modeled scale (`num_vectors × work_scale`): the scaled vector
        // stream is split evenly across the tasklets and read from MRAM in
        // full `read_bytes` chunks, which is exactly what this loop does when
        // the cluster really is that large. Charging the reduced-scale loop
        // and multiplying it would instead project reduced-scale artifacts
        // (per-vector DMA setup latency, idle tasklets on ten-vector
        // clusters) onto the modeled system.
        let n = replica.num_vectors;
        let per_tasklet_vectors = n.div_ceil(tasklets);
        let scaled_vectors = config.modeled(n);
        // Even split of the modeled cluster across tasklets.
        let modeled_share = |tasklet_id: usize, total: u64| -> u64 {
            total / tasklets as u64 + u64::from((tasklet_id as u64) < total % tasklets as u64)
        };
        ctx.parallel(Stage::DistanceCalc, tasklets, |t| {
            let start = (t.tasklet_id * per_tasklet_vectors).min(n);
            let end = ((t.tasklet_id + 1) * per_tasklet_vectors).min(n);
            let heap = &mut heaps[t.tasklet_id];
            heap.clear();
            output.candidates_scanned += (end - start) as u64;
            match &replica.encoding {
                ListEncoding::PlainU8 => {
                    // Functional scan: fixed-size records, read
                    // `read_bytes` worth of codes at a time, then the
                    // blocked ADC scan + batch top-k insert (bitwise
                    // equal to the per-record scalar sum and push on
                    // every backend). `read_bytes >= m` is guaranteed by
                    // `kernel_read_bytes`, so every chunk holds at least
                    // one whole record.
                    let mut v = start;
                    while v < end {
                        let chunk_vectors = (((end - v) * m).min(read_bytes) / m).min(end - v);
                        let len = chunk_vectors * m;
                        let data = t.mram_read_uncharged(replica.codes_addr + v * m, len);
                        lut.adc_scan_into(data, distances);
                        heap.push_batch_with(shared.scan_backend, v as u64, distances);
                        output.code_bytes_read += len as u64;
                        output.lut_lookups += len as u64;
                        v += chunk_vectors;
                    }
                    // Charged cost of this tasklet's modeled share:
                    // full-width DMA chunks; per element one WRAM load of
                    // the code byte, one add to form the LUT address
                    // (`pos·256 + code` — the position base lives in a
                    // register), one WRAM LUT load and one accumulate add;
                    // plus one heap threshold compare per record.
                    let share = modeled_share(t.tasklet_id, scaled_vectors);
                    let share_bytes = share * m as u64;
                    let full_chunks = share_bytes / read_bytes as u64;
                    let tail = (share_bytes % read_bytes as u64) as usize;
                    t.charge_dma_repeated(read_bytes, full_chunks);
                    t.charge_dma(tail);
                    t.charge_wram(share * m as u64 * 2);
                    t.charge_arith(share * (2 * m as u64 + 1), 0);
                }
                ListEncoding::CaeU16(cae) => {
                    // Functional scan: the variable-length records of this
                    // tasklet's range against the unified LUT + combo-sum
                    // table, SCAN_LANES records in flight, then one batch
                    // top-k insert (bitwise equal to a per-record
                    // `adc_distance` + `push`).
                    if start < end {
                        let (first_b, _) = cae.record_byte_range(start);
                        let (_, last_b) = cae.record_byte_range(end - 1);
                        // The stream itself is scanned from the host-side
                        // mirror; this only faults if the range is not
                        // resident in MRAM.
                        let _ = t.mram_read_uncharged(
                            replica.codes_addr + first_b,
                            (last_b - first_b).max(2),
                        );
                        cae.adc_scan_range(unified, start, end, distances);
                        heap.push_batch_with(shared.scan_backend, start as u64, distances);
                        output.code_bytes_read += (last_b - first_b) as u64;
                        // Every u16 of the range is a record's length slot
                        // or an address that was looked up.
                        output.lut_lookups += ((last_b - first_b) / 2 - (end - start)) as u64;
                    }
                    // Charged cost of this tasklet's modeled share of the
                    // co-occurrence-encoded stream: full-width DMA chunks
                    // over the scaled byte volume; per entry one WRAM load
                    // of the *direct address* (no address arithmetic —
                    // that is precisely what §4.3's re-encoding buys), one
                    // WRAM load of the unified LUT/combo-sum region and
                    // one accumulate add; plus one heap compare per record.
                    let share_records = modeled_share(t.tasklet_id, scaled_vectors);
                    let share_bytes = modeled_share(t.tasklet_id, config.modeled(cae.bytes()));
                    let share_entries =
                        modeled_share(t.tasklet_id, config.modeled(cae.total_entries()));
                    let full_chunks = share_bytes / read_bytes as u64;
                    let tail = (share_bytes % read_bytes as u64) as usize;
                    t.charge_dma_repeated(read_bytes, full_chunks);
                    t.charge_dma(tail);
                    t.charge_wram(share_entries * 2);
                    t.charge_arith(share_entries + share_records, 0);
                }
            }
        });

        // ---- Stage 4: pruned top-k merge (Barrier 3) ---------------------
        let (merged_local, stats) = merge_thread_local(heaps, k, config.topk_pruning);
        ctx.sequential(Stage::TopK, |t| {
            for _ in 0..stats.semaphore_ops {
                t.charge_semaphore();
            }
            t.charge_arith(stats.comparisons * 2, 0);
            let sift = (usize::BITS - k.leading_zeros()) as u64 + 1;
            t.charge_wram(stats.insertions * sift);
        });
        output.merge_stats.comparisons += stats.comparisons;
        output.merge_stats.insertions += stats.insertions;
        output.merge_stats.pruned += stats.pruned;
        output.merge_stats.semaphore_ops += stats.semaphore_ops;

        // Translate local vector indices into global ids (k MRAM reads of the
        // id array) and fold into the per-query heap.
        let ids_addr = replica.ids_addr;
        let query_heap = query_heaps
            .entry(assignment.query)
            .or_insert_with(|| TopK::new(k));
        ctx.sequential(Stage::TopK, |t| {
            for n in merged_local.into_sorted() {
                let raw = t.mram_read(ids_addr + (n.id as usize) * 8, 8);
                let Some(&id) = raw.first_chunk() else {
                    unreachable!("an 8-byte MRAM read returns 8 bytes")
                };
                let id = u64::from_le_bytes(id);
                query_heap.push(id, n.distance);
            }
        });
    }

    // ---- Result write-back ------------------------------------------------
    output.partials = query_heaps
        .into_iter()
        .map(|(q, h)| (q, h.into_sorted()))
        .collect();
    let slot = mailbox_slot_bytes(k);
    let mut mailbox = Vec::with_capacity(plan.queries.len() * slot);
    for &q in &plan.queries {
        mailbox.extend_from_slice(&(q as u32).to_le_bytes());
        // `partials` is in ascending query order (it came out of a BTreeMap).
        let sorted = output
            .partials
            .binary_search_by_key(&q, |(query, _)| *query)
            .map_or(&[][..], |i| &output.partials[i].1[..]);
        for i in 0..k {
            if let Some(n) = sorted.get(i) {
                mailbox.extend_from_slice(&n.id.to_le_bytes());
                mailbox.extend_from_slice(&n.distance.to_le_bytes());
            } else {
                mailbox.extend_from_slice(&u64::MAX.to_le_bytes());
                mailbox.extend_from_slice(&f32::INFINITY.to_le_bytes());
            }
        }
    }
    assert!(
        mailbox.len() <= store.mailbox_bytes,
        "DPU {} mailbox overflow: {} > {}",
        ctx.dpu_id(),
        mailbox.len(),
        store.mailbox_bytes
    );
    ctx.mram_write(Stage::ResultWrite, store.mailbox_addr, &mailbox)
        .expect("mailbox region allocated by the builder");
    output.mailbox_bytes_written = mailbox.len();
    output
}

/// Parses a result mailbox produced by [`run_batch_kernel`]: the first
/// `queries` whole slots, each a query id and its neighbors (an id of
/// `u64::MAX` pads a slot that has fewer than `k`).
pub(crate) fn parse_mailbox(bytes: &[u8], queries: usize, k: usize) -> Vec<(usize, Vec<Neighbor>)> {
    bytes
        .chunks_exact(mailbox_slot_bytes(k))
        .take(queries)
        .filter_map(|slot| {
            let (&q, records) = slot.split_first_chunk()?;
            let neighbors = records
                .chunks_exact(12)
                .filter_map(|record| {
                    let (&id, dist) = record.split_first_chunk()?;
                    let id = u64::from_le_bytes(id);
                    let dist = f32::from_le_bytes(*dist.first_chunk()?);
                    (id != u64::MAX).then(|| Neighbor::new(id, dist))
                })
                .collect();
            Some((u32::from_le_bytes(q) as usize, neighbors))
        })
        .collect()
}

/// MRAM read-buffer size (bytes per transfer) implied by the configuration
/// for codes of `m` bytes (plain) — CAE streams use the same buffer size.
///
/// Clamped to at least one whole record: if the configured buffer were
/// smaller than `m`, the scan's chunk computation would floor to zero
/// records and the loop would then issue an `m`-byte read that exceeds the
/// WRAM buffer it charges DMA for, silently under-charging every transfer.
/// Sizing the buffer (and its WRAM allocation and DMA charge) to `m`
/// instead keeps the functional read and the charged model consistent.
pub(crate) fn kernel_read_bytes(config: &UpAnnsConfig, m: usize) -> usize {
    config.mram_read_bytes(m).max(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cooccurrence::{mine_cluster_combos, MiningParams};
    use annkit::ivf::{IvfPqIndex, IvfPqParams};
    use annkit::synthetic::SyntheticSpec;
    use annkit::vector::residual;
    use pim_sim::config::PimConfig;
    use pim_sim::host::PimSystem;
    use std::sync::OnceLock;

    struct Fixture {
        index: IvfPqIndex,
        data: annkit::vector::Dataset,
    }

    fn fixture() -> &'static Fixture {
        static FIX: OnceLock<Fixture> = OnceLock::new();
        FIX.get_or_init(|| {
            let data = SyntheticSpec::sift_like(1500)
                .with_clusters(8)
                .with_seed(33)
                .generate();
            let index =
                IvfPqIndex::train(&data, &IvfPqParams::new(8, 16).with_train_size(700), 3);
            Fixture { index, data }
        })
    }

    /// Builds a single-DPU store holding every cluster of the fixture index.
    fn build_store(
        sys: &mut PimSystem,
        index: &IvfPqIndex,
        cae: bool,
        k: usize,
        max_queries: usize,
    ) -> (DpuStore, HashMap<usize, ComboTable>) {
        let m = index.m();
        let mut store = DpuStore::default();
        let codebook = vec![1u8; index.dim() * 256];
        store.codebook_addr = sys.mram_alloc(0, codebook.len()).unwrap();
        store.codebook_bytes = codebook.len();
        sys.dpu_mut(0).mram_mut().write(store.codebook_addr, &codebook).unwrap();

        let mut combos = HashMap::new();
        for c in 0..index.nlist() {
            let list = index.list(c);
            if list.is_empty() {
                continue;
            }
            let mut ids_bytes = Vec::with_capacity(list.len() * 8);
            for &id in list.ids() {
                ids_bytes.extend_from_slice(&id.to_le_bytes());
            }
            let ids_addr = sys.mram_alloc(0, ids_bytes.len()).unwrap();
            sys.dpu_mut(0).mram_mut().write(ids_addr, &ids_bytes).unwrap();

            let (codes_bytes_vec, encoding) = if cae {
                let table = mine_cluster_combos(list.packed_codes(), m, &MiningParams::default());
                let cae_list = CaeList::encode(list.packed_codes(), m, &table);
                let bytes = cae_list.to_bytes();
                combos.insert(c, table);
                (bytes, ListEncoding::CaeU16(Arc::new(cae_list)))
            } else {
                (list.packed_codes().to_vec(), ListEncoding::PlainU8)
            };
            let codes_addr = sys.mram_alloc(0, codes_bytes_vec.len()).unwrap();
            sys.dpu_mut(0)
                .mram_mut()
                .write(codes_addr, &codes_bytes_vec)
                .unwrap();
            store.replicas.insert(
                c,
                ClusterReplica {
                    cluster: c,
                    num_vectors: list.len(),
                    ids_addr,
                    codes_addr,
                    codes_bytes: codes_bytes_vec.len(),
                    encoding,
                },
            );
        }
        store.query_buffer_bytes = 4096;
        store.query_buffer_addr = sys.mram_alloc(0, store.query_buffer_bytes).unwrap();
        store.mailbox_bytes = max_queries * mailbox_slot_bytes(k);
        store.mailbox_addr = sys.mram_alloc(0, store.mailbox_bytes).unwrap();
        (store, combos)
    }

    fn plan_for_queries(
        index: &IvfPqIndex,
        data: &annkit::vector::Dataset,
        query_ids: &[usize],
        nprobe: usize,
    ) -> DpuBatchPlan {
        let mut plan = DpuBatchPlan::default();
        for (qi, &row) in query_ids.iter().enumerate() {
            let q = data.vector(row);
            for (c, _) in index.filter_clusters(q, nprobe) {
                plan.assignments.push(Assignment {
                    query: qi,
                    cluster: c,
                });
                plan.residuals
                    .push(residual(q, index.coarse().centroid(c)));
            }
            plan.queries.push(qi);
        }
        plan
    }

    fn run(
        cae: bool,
        config: UpAnnsConfig,
        nprobe: usize,
        k: usize,
    ) -> (Vec<(usize, Vec<Neighbor>)>, KernelOutput, f64) {
        let fix = fixture();
        let mut sys = PimSystem::new(PimConfig::with_dpus(1));
        let (store, combos) = build_store(&mut sys, &fix.index, cae, k, 4);
        let plan = plan_for_queries(&fix.index, &fix.data, &[5, 300, 900], nprobe);
        let shared = KernelShared {
            pq: fix.index.pq(),
            combos: &combos,
            config: &config,
            k,
            scan_backend: annkit::simd::active(),
        };
        let (report, mut outputs) = sys.execute(Stage::DpuSearch, |ctx| {
            run_batch_kernel(ctx, &store, &plan, &shared)
        });
        let output = outputs.remove(0);
        (output.partials.clone(), output, report.max_dpu_seconds)
    }

    #[test]
    fn kernel_matches_reference_adc_search_plain() {
        let fix = fixture();
        let (partials, output, _) = run(false, UpAnnsConfig::pim_naive(), 8, 10);
        assert_eq!(partials.len(), 3);
        for (qi, row) in [5usize, 300, 900].iter().enumerate() {
            let reference = fix.index.search(fix.data.vector(*row), 8, 10);
            let got = &partials.iter().find(|(q, _)| *q == qi).unwrap().1;
            assert_eq!(
                got.iter().map(|n| n.id).collect::<Vec<_>>(),
                reference.iter().map(|n| n.id).collect::<Vec<_>>(),
                "query {qi} mismatch"
            );
        }
        assert!(output.candidates_scanned > 0);
        assert!(output.code_bytes_read > 0);
        assert_eq!(output.lut_lookups, output.candidates_scanned * 16);
    }

    #[test]
    fn kernel_matches_reference_adc_search_with_cae() {
        let fix = fixture();
        let (partials, output, _) = run(true, UpAnnsConfig::upanns(), 8, 10);
        for (qi, row) in [5usize, 300, 900].iter().enumerate() {
            let reference = fix.index.search(fix.data.vector(*row), 8, 10);
            let got = &partials.iter().find(|(q, _)| *q == qi).unwrap().1;
            let ref_ids: Vec<u64> = reference.iter().map(|n| n.id).collect();
            let got_ids: Vec<u64> = got.iter().map(|n| n.id).collect();
            // Distances are identical up to float rounding of the combo sums,
            // so the id sets must coincide.
            let overlap = got_ids.iter().filter(|id| ref_ids.contains(id)).count();
            assert!(overlap >= 9, "query {qi}: overlap {overlap}/10");
        }
        // CAE reduces LUT lookups below m per candidate.
        assert!(output.lut_lookups < output.candidates_scanned * 16);
        assert!(output.merge_stats.pruned > 0, "pruning should trigger");
    }

    #[test]
    fn mailbox_roundtrip_matches_partials() {
        let fix = fixture();
        let mut sys = PimSystem::new(PimConfig::with_dpus(1));
        let (store, combos) = build_store(&mut sys, &fix.index, false, 5, 4);
        let plan = plan_for_queries(&fix.index, &fix.data, &[10, 20], 4);
        let config = UpAnnsConfig::pim_naive();
        let shared = KernelShared {
            pq: fix.index.pq(),
            combos: &combos,
            config: &config,
            k: 5,
            scan_backend: annkit::simd::active(),
        };
        let (_, mut outputs) = sys.execute(Stage::DpuSearch, |ctx| {
            run_batch_kernel(ctx, &store, &plan, &shared)
        });
        let output = outputs.remove(0);
        let mailbox = sys
            .dpu(0)
            .mram()
            .read(store.mailbox_addr, output.mailbox_bytes_written)
            .unwrap();
        let parsed = parse_mailbox(mailbox, plan.queries.len(), 5);
        assert_eq!(parsed.len(), output.partials.len());
        for ((pq, pn), (oq, on)) in parsed.iter().zip(&output.partials) {
            assert_eq!(pq, oq);
            assert_eq!(
                pn.iter().map(|n| n.id).collect::<Vec<_>>(),
                on.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn more_tasklets_speed_up_the_kernel_until_11() {
        let mut times = Vec::new();
        for tasklets in [1usize, 4, 11, 16] {
            let config = UpAnnsConfig::pim_naive().with_tasklets(tasklets);
            let (_, _, seconds) = run(false, config, 4, 10);
            times.push(seconds);
        }
        assert!(times[0] > times[1], "1 tasklet should be slower than 4");
        assert!(times[1] > times[2], "4 tasklets should be slower than 11");
        // Beyond 11 the pipeline is saturated.
        let rel = (times[3] - times[2]).abs() / times[2];
        assert!(rel < 0.25, "11 vs 16 tasklets differ by {rel}");
    }

    #[test]
    fn work_scale_increases_simulated_time_not_results() {
        let base_cfg = UpAnnsConfig::pim_naive();
        let scaled_cfg = UpAnnsConfig::pim_naive().with_work_scale(200.0);
        let (res_a, _, t_a) = run(false, base_cfg, 4, 10);
        let (res_b, _, t_b) = run(false, scaled_cfg, 4, 10);
        assert!(t_b > 3.0 * t_a, "scaled {t_b} vs base {t_a}");
        for ((qa, na), (qb, nb)) in res_a.iter().zip(&res_b) {
            assert_eq!(qa, qb);
            assert_eq!(
                na.iter().map(|n| n.id).collect::<Vec<_>>(),
                nb.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn read_buffer_never_smaller_than_one_record() {
        // Regression: for m > the configured DMA ceiling, mram_read_bytes
        // returns a buffer smaller than one code; the scan's old `.max(1)`
        // fallback then read m bytes while charging DMA for read_bytes,
        // under-charging every transfer. kernel_read_bytes must clamp up to
        // a whole record so the functional read, the WRAM allocation, and
        // the DMA charge all agree.
        let config = UpAnnsConfig::pim_naive();
        for m in [8usize, 16, 100, 2048, 3000, 4096] {
            let rb = kernel_read_bytes(&config, m);
            assert!(rb >= m, "read buffer {rb} smaller than one {m}-byte code");
            // For record sizes within the DMA ceiling, the clamp is a no-op.
            if m <= 2048 {
                assert_eq!(rb, config.mram_read_bytes(m));
            }
        }
    }

    #[test]
    fn wram_peak_follows_the_figure_6_reuse_schedule() {
        // Codebook + LUT first; the codebook's space is reused by the
        // combination sums, the per-tasklet read buffers and the heaps, so
        // the launch's peak is the larger of phase 1 and phase 3 — never
        // their sum. A PIM-naive store has no combination sums at all.
        let fix = fixture();
        let m = fix.index.m();
        for (config, k, tasklets) in [
            (UpAnnsConfig::upanns(), 10, 1usize),
            (UpAnnsConfig::upanns(), 10, 11),
            (UpAnnsConfig::upanns(), 10, 24),
            (UpAnnsConfig::upanns(), 100, 11),
            (UpAnnsConfig::pim_naive(), 10, 11),
            (UpAnnsConfig::pim_naive(), 100, 24),
        ] {
            let config = config.with_tasklets(tasklets);
            let cae = config.cooccurrence_encoding;
            let mut sys = PimSystem::new(PimConfig::with_dpus(1));
            let (store, combos) = build_store(&mut sys, &fix.index, cae, k, 4);
            let plan = plan_for_queries(&fix.index, &fix.data, &[5, 300], 8);
            let shared = KernelShared {
                pq: fix.index.pq(),
                combos: &combos,
                config: &config,
                k,
                scan_backend: annkit::simd::active(),
            };
            sys.execute(Stage::DpuSearch, |ctx| {
                run_batch_kernel(ctx, &store, &plan, &shared);
            });
            #[expect(clippy::disallowed_methods, reason = "a max is order-independent")]
            let max_combos = combos.values().map(|t| t.len()).max().unwrap_or(0);
            assert_eq!(max_combos > 0, cae, "only CAE mines combinations");
            let wplan = WramPlan::plan(&WramPlanInput::new(
                fix.index.dim(),
                m,
                k,
                max_combos,
                tasklets,
                kernel_read_bytes(&config, m),
            ))
            .unwrap();
            assert_eq!(wplan.combo_bytes, 2 * max_combos);
            assert_eq!(
                sys.dpu(0).stats().wram_peak_bytes,
                wplan.phase1_peak.max(wplan.phase3_peak),
                "cae {cae}, k {k}, {tasklets} tasklets"
            );
        }
    }

    #[test]
    #[should_panic(expected = "WRAM layout does not fit: WRAM plan overflow in distance_calc")]
    fn a_wram_smaller_than_the_plan_is_refused_by_the_phase_that_overflows() {
        // Phase 1 (32 KB codebook + 8 KB LUT) fits in 41 KB; phase 3 (the LUT
        // + 24 × (256 B read buffer + 1 200 B heap) = 43 136 B) does not.
        let fix = fixture();
        let config = UpAnnsConfig::pim_naive().with_tasklets(24);
        let mut pim = PimConfig::with_dpus(1);
        pim.wram_bytes = 41 * 1024;
        let mut sys = PimSystem::new(pim);
        let (store, combos) = build_store(&mut sys, &fix.index, false, 100, 4);
        let plan = plan_for_queries(&fix.index, &fix.data, &[5], 2);
        let shared = KernelShared {
            pq: fix.index.pq(),
            combos: &combos,
            config: &config,
            k: 100,
            scan_backend: annkit::simd::active(),
        };
        sys.execute(Stage::DpuSearch, |ctx| {
            run_batch_kernel(ctx, &store, &plan, &shared);
        });
    }

    #[test]
    fn empty_plan_is_a_noop() {
        let fix = fixture();
        let mut sys = PimSystem::new(PimConfig::with_dpus(1));
        let (store, combos) = build_store(&mut sys, &fix.index, false, 5, 2);
        let config = UpAnnsConfig::pim_naive();
        let shared = KernelShared {
            pq: fix.index.pq(),
            combos: &combos,
            config: &config,
            k: 5,
            scan_backend: annkit::simd::active(),
        };
        let (_, mut outputs) = sys.execute(Stage::DpuSearch, |ctx| {
            run_batch_kernel(ctx, &store, &DpuBatchPlan::default(), &shared)
        });
        let output = outputs.remove(0);
        assert!(output.partials.is_empty());
        assert_eq!(output.candidates_scanned, 0);
        assert_eq!(output.mailbox_bytes_written, 0);
    }
}
