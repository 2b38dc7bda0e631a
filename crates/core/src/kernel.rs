//! The DPU search kernel: LUT construction, combination sums, distance
//! calculation and pruned top-k, executed per (query, cluster) assignment.
//!
//! This is the code that would be the C "DPU program" on real UPMEM hardware.
//! Here it is ordinary Rust executed against [`pim_sim`]'s kernel context, in
//! two halves that never read each other. The *functional* half reads the
//! encoded points resident in MRAM, produces exact ADC results and counts
//! what each assignment did in an [`AssignmentWork`]. The *charged* half is
//! one pure function, `charge`, that maps those counts to the cycles of
//! the parallel regions of Figure 6's barrier structure; it alone decides
//! every modeled number.
//!
//! The functional half need not execute the structure it counts. Figure 9
//! keeps a top-k heap per tasklet and merges them after the distance
//! barrier; the kernel instead merges each tasklet's range into the DPU
//! heap as soon as the range is scanned (`RangeMerge`, in
//! [`topk_prune`](crate::topk_prune)), which reproduces that merge's heap
//! and [`MergeStats`] range by range without filling the heaps a full DPU
//! heap would prune.
//! [`merge_thread_local`](crate::topk_prune::merge_thread_local) over
//! per-tasklet heaps is the reference the tests hold it to.

use crate::config::UpAnnsConfig;
use crate::cooccurrence::ComboTable;
use crate::encoding::{zeroed_space, AddressSpace, CaeList};
use crate::scheduling::Assignment;
use crate::topk_prune::{MergeStats, RangeMerge};
use crate::wram_layout::{WramPlan, WramPlanInput};
use annkit::lut::{build_masked_into, LookupTable};
use annkit::pq::ProductQuantizer;
use annkit::topk::{Neighbor, TopK};
use pim_sim::config::MAX_TASKLETS;
use pim_sim::cost::{Dma, TaskletCost, ALU_CYCLES, SEMAPHORE_CYCLES, WRAM_ACCESS_CYCLES};
use pim_sim::mram::MramAddr;
use pim_sim::stats::Stage;
use pim_sim::tasklet::DpuKernelCtx;
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::AddAssign;
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

/// One DPU's MRAM as the kernel reads it: an epoch's payloads and the launch's staging.
#[derive(Debug, Clone, Default)]
pub struct DpuStore {
    /// MRAM address of the (quantized) codebook staged for LUT construction.
    pub codebook_addr: MramAddr,
    /// Bytes of the staged codebook (`dim × 256` at 1 B per component).
    pub codebook_bytes: usize,
    /// Cluster replicas hosted by this DPU, keyed by cluster id.
    pub replicas: HashMap<usize, ClusterReplica>,
    /// The query buffer's address: the kernel's view of the launcher's staging.
    pub query_buffer_addr: MramAddr,
    /// The query buffer's capacity in bytes, also the kernel's view of it.
    pub query_buffer_bytes: usize,
    /// The result mailbox's address: the kernel's view of the launcher's staging.
    pub mailbox_addr: MramAddr,
    /// The result mailbox's capacity in bytes, also the kernel's view of it.
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
    /// Distinct query indices handled by this DPU, in mailbox order: every
    /// assignment's query, once.
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
    /// Bytes written to the result mailbox.
    pub mailbox_bytes_written: usize,
    /// What the launch did: the sum of its assignments' work.
    pub work: AssignmentWork,
}

/// What one (query, cluster) assignment did, counted at the functional
/// (stored) scale. `charge` prices it; summed over a launch it is
/// [`KernelOutput::work`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AssignmentWork {
    /// Residual bytes the LUT build reads from the query buffer.
    pub residual_bytes: u64,
    /// Codebook bytes the LUT build streams from MRAM.
    pub codebook_bytes: u64,
    /// LUT entries built: the dense `m × 256`.
    pub lut_entries: u64,
    /// Combinations whose partial sums stage 2 forms.
    pub combos: u64,
    /// Elements of those combinations (2 or 3 each).
    pub combo_elements: u64,
    /// Vectors scanned.
    pub vectors: u64,
    /// Code bytes of the scanned records.
    pub code_bytes: u64,
    /// CAE stream entries, length slots included (0 for plain codes).
    pub cae_entries: u64,
    /// LUT and partial-sum lookups of the scan.
    pub lut_lookups: u64,
    /// The thread-local top-k merge.
    pub merge: MergeStats,
    /// Global ids read from the id array.
    pub id_reads: u64,
}

impl AddAssign for AssignmentWork {
    fn add_assign(&mut self, other: Self) {
        self.residual_bytes += other.residual_bytes;
        self.codebook_bytes += other.codebook_bytes;
        self.lut_entries += other.lut_entries;
        self.combos += other.combos;
        self.combo_elements += other.combo_elements;
        self.vectors += other.vectors;
        self.code_bytes += other.code_bytes;
        self.cae_entries += other.cae_entries;
        self.lut_lookups += other.lut_lookups;
        self.merge += other.merge;
        self.id_reads += other.id_reads;
    }
}

/// The launch-wide inputs of [`charge`] besides the counts: the PQ's `m`
/// (a plain record's bytes) and `dsub`, `k`, the tasklets, the read buffer
/// ([`UpAnnsConfig::mram_read_bytes`]) and the modeled units per functional
/// unit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KernelShape {
    pub m: usize,
    pub dsub: usize,
    pub k: usize,
    pub tasklets: usize,
    pub read_bytes: usize,
    pub work_scale: f64,
}

/// The modeled count of `functional` stored units (vectors, code bytes,
/// code entries): `functional × work_scale`, rounded, never below
/// `functional`.
fn modeled(functional: u64, work_scale: f64) -> u64 {
    let modeled = (functional as f64 * work_scale).round();
    modeled.max(functional as f64) as u64
}

/// The cycle charge of one assignment that did `work` on a list laid out as
/// `encoding`: its regions, each handed to `close` with what every tasklet
/// of it spent, in Figure 6's order — LUT build, combination sums (only
/// when the cluster has combinations), distance calculation, then the top-k
/// merge and the id reads on one tasklet each. The regions depend on the
/// arguments alone.
///
/// Only the distance calculation is charged at the modeled scale: its
/// vectors, code bytes and CAE entries are projected by `work_scale` and
/// split evenly across the tasklets, each streaming its share in full
/// `read_bytes` transfers and a tail, which is what the scan does when the
/// cluster really is that large (multiplying the reduced-scale scan's
/// charge would project its per-vector DMA setup and idle tasklets onto the
/// modeled system). The other stages are charged from the counts as they
/// are.
pub(crate) fn charge(
    work: &AssignmentWork,
    encoding: &ListEncoding,
    shape: &KernelShape,
    mut close: impl FnMut(Stage, &[TaskletCost]),
) {
    let tasklets = shape.tasklets as u64;
    let mut costs = [TaskletCost::default(); MAX_TASKLETS];
    let mut region = |stage, cost: &dyn Fn(u64) -> TaskletCost| {
        let costs = &mut costs[..shape.tasklets];
        for (t, slot) in (0..).zip(costs.iter_mut()) {
            *slot = cost(t);
        }
        close(stage, costs);
    };
    // An even split of `total` across the tasklets.
    let share = |t: u64, total: u64| total / tasklets + u64::from(t < total % tasklets);
    let compute = |adds: u64, wram: u64| adds * ALU_CYCLES + wram * WRAM_ACCESS_CYCLES;

    // Stage 1 (Barrier 0/1): tasklet 0 reads the residual; every tasklet
    // reads its slice of the codebook and computes its share of the dense
    // LUT: three ALU operations per codebook component (`dsub` of them per
    // entry) and one WRAM store per entry.
    let slice = work.codebook_bytes.div_ceil(tasklets);
    let entries = work.lut_entries.div_ceil(tasklets);
    let residual = Dma::of(work.residual_bytes);
    let full_slice = Dma::of(slice);
    region(Stage::LutConstruction, &|t| TaskletCost {
        compute: compute(entries * shape.dsub as u64 * 3, entries),
        dma: match slice.min(work.codebook_bytes.saturating_sub(t * slice)) {
            bytes if bytes == slice => full_slice,
            bytes => Dma::of(bytes),
        } + if t == 0 { residual } else { Dma::default() },
    });

    // Stage 2 (Barrier 1/2): one WRAM load and one add per counted element
    // and one store per combination sum.
    if work.combos > 0 {
        let elements = work.combo_elements.div_ceil(tasklets);
        let combos = work.combos.div_ceil(tasklets);
        region(Stage::ComboSum, &|_| TaskletCost {
            compute: compute(elements, elements + combos),
            dma: Dma::default(),
        });
    }

    // Stage 3 (Barrier 2/3): per entry one WRAM load of the entry, one WRAM
    // load of the table and one accumulate add — plus, for a plain code,
    // one add to form its LUT address (`pos·256 + code`: the position base
    // lives in a register), which is what §4.3's direct addresses save —
    // and one heap threshold compare per record.
    let records = modeled(work.vectors, shape.work_scale);
    let code_bytes = modeled(work.code_bytes, shape.work_scale);
    let cae_entries = modeled(work.cae_entries, shape.work_scale);
    // A tasklet streams its share of the records (plain) or of the code
    // bytes (CAE), so its DMA is one of two sizes: priced once each.
    let (streamed, unit) = match encoding {
        ListEncoding::PlainU8 => (records, shape.m as u64),
        ListEncoding::CaeU16(_) => (code_bytes, 1),
    };
    let read = shape.read_bytes as u64;
    let full_read = Dma::of(read);
    let stream = |units: u64| {
        let bytes = units * unit;
        full_read.times(bytes / read) + Dma::of(bytes % read)
    };
    let streams = [stream(streamed / tasklets), stream(streamed / tasklets + 1)];
    region(Stage::DistanceCalc, &|t| {
        let records = share(t, records);
        let plain = records * shape.m as u64;
        let (entries, address_adds) = match encoding {
            ListEncoding::PlainU8 => (plain, plain),
            ListEncoding::CaeU16(_) => (share(t, cae_entries), 0),
        };
        TaskletCost {
            compute: compute(entries + address_adds + records, 2 * entries),
            dma: streams[usize::from(t < streamed % tasklets)],
        }
    });

    // Stage 4 (Barrier 3): the merge takes a semaphore per contributing
    // tasklet, compares twice per candidate and sifts each insertion down
    // a k-heap; then one 8-byte read per id.
    let sift = u64::from(usize::BITS - shape.k.leading_zeros()) + 1;
    let merge = &work.merge;
    let merge = TaskletCost {
        compute: merge.semaphore_ops * SEMAPHORE_CYCLES
            + compute(merge.comparisons * 2, merge.insertions * sift),
        dma: Dma::default(),
    };
    close(Stage::TopK, &[merge]);
    let ids = Dma::of(8).times(work.id_reads);
    close(
        Stage::TopK,
        &[TaskletCost {
            compute: 0,
            dma: ids,
        }],
    );
}

/// Size in bytes of one query's slot in the result mailbox.
pub fn mailbox_slot_bytes(k: usize) -> usize {
    4 + k * 12 // u32 query id + k × (u64 id, f32 distance)
}

/// The first `queries` whole slots of a result mailbox produced by
/// [`run_batch_kernel`], each a query id and its neighbors (an id of
/// `u64::MAX` pads a slot that has fewer than `k`), read in place.
pub(crate) fn mailbox_slots(
    bytes: &[u8],
    queries: usize,
    k: usize,
) -> impl Iterator<Item = (usize, impl Iterator<Item = Neighbor> + '_)> {
    bytes
        .chunks_exact(mailbox_slot_bytes(k))
        .take(queries)
        .filter_map(|slot| {
            let (&q, records) = slot.split_first_chunk()?;
            let neighbors = records.chunks_exact(12).filter_map(|record| {
                let (&id, dist) = record.split_first_chunk()?;
                let id = u64::from_le_bytes(id);
                let dist = f32::from_le_bytes(*dist.first_chunk()?);
                (id != u64::MAX).then(|| Neighbor::new(id, dist))
            });
            Some((u32::from_le_bytes(q) as usize, neighbors))
        })
}

/// Parses a result mailbox produced by [`run_batch_kernel`]: the first
/// `queries` whole slots, each a query id and its neighbors (an id of
/// `u64::MAX` pads a slot that has fewer than `k`).
pub fn parse_mailbox(bytes: &[u8], queries: usize, k: usize) -> Vec<(usize, Vec<Neighbor>)> {
    mailbox_slots(bytes, queries, k)
        .map(|(q, neighbors)| (q, neighbors.collect()))
        .collect()
}

/// Host-side buffers the functional half of the kernel reuses across the
/// assignments (and DPUs) it runs on one host thread, so the simulator's
/// steady state allocates nothing per assignment or per DPU. Every buffer
/// is rebuilt before it is read, and of the address space an assignment
/// reads only the entries it built: nothing past them is ever read.
#[derive(Debug, Default)]
struct KernelScratch {
    /// The dense LUT of a plain list.
    lut: LookupTable,
    /// §4.3's unified WRAM region of an encoded list, the 64 K entries any
    /// `u16` of its stream addresses: its masked flat LUT, built in place,
    /// then the cluster's combination partial sums. Past those lie an
    /// earlier list's entries, which the stream does not address. Allocated
    /// zeroed on the thread's first encoded list.
    space: Option<Box<AddressSpace>>,
    /// Distances of one `read_bytes` transfer of plain codes.
    chunk: Vec<f32>,
    /// Distances of the records scanned: a plain tasklet range, or a whole
    /// encoded list whose tasklet ranges are cut from it.
    distances: Vec<f32>,
    /// The assignment's DPU heap, into which each tasklet range is merged
    /// as it is scanned, and the counts of Figure 9's merge of the
    /// tasklets' heaps; built for the launch's `k`.
    merge: Option<RangeMerge>,
    /// Each assignment's combination table (`None` when its cluster has
    /// none), looked up once per DPU; empty between DPUs, kept for its
    /// allocation (see [`recycle`]).
    tables: Vec<Option<&'static ComboTable>>,
    /// The DPU's per-query partial heaps, one per query of its plan,
    /// cleared per DPU; built for the launch's `k`.
    query_heaps: Vec<TopK>,
    /// One query heap's neighbors, closest first, as the mailbox holds them.
    ascending: Vec<Neighbor>,
    /// The launch's result mailbox, written back to MRAM at the end.
    mailbox: Vec<u8>,
}

/// `tables`, emptied, with its allocation lent to references of another
/// lifetime: an empty vector collected in place into one of the same
/// layout keeps its buffer.
fn recycle<'b>(mut tables: Vec<Option<&ComboTable>>) -> Vec<Option<&'b ComboTable>> {
    tables.clear();
    tables.into_iter().map(|_| None).collect()
}

thread_local! {
    /// One scratch per host thread: a launch runs its DPUs on several.
    static SCRATCH: RefCell<KernelScratch> = RefCell::default();
}

/// Runs the UpANNS batch kernel on one DPU.
///
/// Charges the stage/barrier structure of Figure 6 for every assignment:
/// `lut_construction` → (barrier) → `combo_sum` → (barrier) →
/// `distance_calc` → (barrier) → `topk`, then a single `result_write` at the
/// end of the batch. Each assignment's functional work is counted, then
/// charged. The distance calculation and the top-k merge run fused: each
/// tasklet range is merged into the DPU heap as soon as it is scanned, with
/// the counts Figure 9's merge of per-tasklet heaps gives
/// ([`merge_thread_local`](crate::topk_prune::merge_thread_local), the
/// reference). The host-side buffers are the calling thread's.
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
    let dim = shared.pq.dim();
    let k = shared.k;
    let tasklets = config.tasklets;
    let KernelScratch {
        lut,
        space,
        chunk,
        distances,
        merge,
        tables,
        query_heaps,
        ascending,
        mailbox,
    } = scratch;
    if merge.as_ref().is_some_and(|m| m.k() != k) {
        *merge = None;
    }
    let merge = merge.get_or_insert_with(|| RangeMerge::new(k));

    // Each assignment's combination table, looked up once: the WRAM plan
    // below needs the largest, the assignment its own.
    let mut combo_tables = recycle(std::mem::take(tables));
    combo_tables.extend(plan.assignments.iter().map(|a| {
        shared
            .combos
            .get(&a.cluster)
            .filter(|table| !table.is_empty())
    }));

    // Verify the WRAM reuse plan fits before doing anything (the layout of
    // Figure 6): the codebook's space is reused by the combination sums, the
    // read buffers and the heaps, and every assignment below follows that one
    // schedule, so its peak is the launch's.
    let max_combos = combo_tables
        .iter()
        .map(|table| table.map_or(0, ComboTable::len))
        .max()
        .unwrap_or(0);
    let read_bytes = config.mram_read_bytes(m);
    let plan_input = WramPlanInput {
        wram_capacity: ctx.config().wram_bytes,
        ..WramPlanInput::new(dim, m, k, max_combos, tasklets, read_bytes)
    };
    let wplan = WramPlan::plan(&plan_input)
        .unwrap_or_else(|e| panic!("DPU {}: WRAM layout does not fit: {e}", ctx.dpu_id()));
    ctx.record_wram_peak(wplan.peak());
    let shape = KernelShape {
        m,
        dsub: shared.pq.dsub(),
        k,
        tasklets,
        read_bytes,
        work_scale: config.work_scale,
    };

    // Per-query partial heaps, local to this DPU, in mailbox order (held in
    // the WRAM heap region; co-located clusters of the same query merge here
    // without any host round-trip — insight 3 of §4.1.1).
    if query_heaps.first().is_some_and(|heap| heap.k() != k) {
        query_heaps.clear();
    }
    if query_heaps.len() < plan.queries.len() {
        query_heaps.resize_with(plan.queries.len(), || TopK::new(k));
    }
    let query_heaps = &mut query_heaps[..plan.queries.len()];
    query_heaps.iter_mut().for_each(TopK::clear);

    for ((assignment, residual), &combos) in plan
        .assignments
        .iter()
        .zip(&plan.residuals)
        .zip(&combo_tables)
    {
        let replica = store.replicas.get(&assignment.cluster).unwrap_or_else(|| {
            panic!(
                "DPU {} was assigned cluster {} it does not host",
                ctx.dpu_id(),
                assignment.cluster
            )
        });
        let n = replica.num_vectors;
        let mut work = AssignmentWork {
            // Staged by the host transfer.
            residual_bytes: (dim * 4) as u64,
            codebook_bytes: store.codebook_bytes as u64,
            lut_entries: (m * 256) as u64,
            combos: combos.map_or(0, |table| table.len() as u64),
            combo_elements: combos.map_or(0, ComboTable::elements),
            vectors: n as u64,
            ..AssignmentWork::default()
        };

        // ---- Stages 1 and 2: LUT construction, combination partial sums --
        //
        // An encoded list's LUT holds only the blocks its codes can read and
        // is built at the head of the address space, its partial sums after
        // it; the work counts the dense table either way, as the modeled
        // list references every block.
        match &replica.encoding {
            ListEncoding::CaeU16(cae) => {
                let space = &mut space.get_or_insert_with(zeroed_space)[..];
                build_masked_into(shared.pq, residual, cae.code_blocks(), space);
                let built = combos.map_or(256 * m, |table| table.write_partial_sums(m, space));
                // The scan reads the space unchecked: every entry the stream
                // can address must be this assignment's, not a stale one.
                assert_eq!(
                    built,
                    cae.addresses(),
                    "DPU {}: cluster {} built {built} entries of the address space its stream reads",
                    ctx.dpu_id(),
                    assignment.cluster
                );
            }
            ListEncoding::PlainU8 => lut.rebuild(shared.pq, residual),
        }
        if store.codebook_bytes > 0 {
            let _ = ctx.mram_read(store.codebook_addr, store.codebook_bytes);
        }

        // ---- Stages 3 and 4: distance calculation, pruned top-k merge ----
        //
        // At the stored (reduced) scale, so results are exact: tasklet `t`
        // scans the `t`-th run of `⌈n / tasklets⌉` vectors, and the run is
        // merged into the DPU heap as soon as it is scanned, with the counts
        // of Figure 9's merge of the tasklets' heaps.
        // At least 1: `step_by` refuses 0, which an empty list would give.
        let per_tasklet_vectors = n.div_ceil(tasklets).max(1);
        let ranges = (0..n)
            .step_by(per_tasklet_vectors)
            .map(|start| start..(start + per_tasklet_vectors).min(n));
        merge.begin(config.topk_pruning);
        match &replica.encoding {
            ListEncoding::PlainU8 => {
                for range in ranges {
                    // `read_bytes` of codes at a time (at least one record,
                    // by `mram_read_bytes`), blocked ADC scan: bitwise the
                    // per-record sum.
                    distances.clear();
                    let mut v = range.start;
                    while v < range.end {
                        let chunk_vectors =
                            (((range.end - v) * m).min(read_bytes) / m).min(range.end - v);
                        let len = chunk_vectors * m;
                        let data = ctx.mram_read(replica.codes_addr + v * m, len);
                        lut.adc_scan_into(data, chunk);
                        distances.extend_from_slice(chunk);
                        v += chunk_vectors;
                    }
                    merge.merge_range(shared.scan_backend, range.start as u64, distances);
                }
                work.code_bytes = (n * m) as u64;
                work.lut_lookups = work.code_bytes;
            }
            ListEncoding::CaeU16(cae) if n > 0 => {
                // The whole list against the address space, SCAN_LANES
                // records in flight: each record is bitwise a per-record
                // `adc_distance` whatever range it is scanned in, so the
                // tasklet ranges are cut from one scan. The stream is
                // scanned from the host-side mirror; the read only faults
                // if the list is not resident in MRAM.
                let (first_b, _) = cae.record_byte_range(0);
                let (_, last_b) = cae.record_byte_range(n - 1);
                let _ = ctx.mram_read(replica.codes_addr + first_b, (last_b - first_b).max(2));
                let space = space.as_deref().expect("stage 1 built the address space");
                cae.adc_scan_range(space, 0, n, distances);
                for range in ranges {
                    let start = range.start as u64;
                    merge.merge_range(shared.scan_backend, start, &distances[range]);
                }
                // Every u16 of the list is a record's length slot or an
                // address that was looked up.
                work.code_bytes = (last_b - first_b) as u64;
                work.cae_entries = work.code_bytes / 2;
                work.lut_lookups = work.cae_entries - n as u64;
            }
            // An empty list scans nothing.
            ListEncoding::CaeU16(_) => {}
        }
        work.merge = merge.stats();

        // Translate local vector indices into global ids (k reads of the id
        // array, read once) and fold into the per-query heap.
        let query_heap = plan
            .queries
            .iter()
            .position(|&q| q == assignment.query)
            .map(|slot| &mut query_heaps[slot])
            .unwrap_or_else(|| {
                panic!(
                    "DPU {} was assigned query {} its plan does not list",
                    ctx.dpu_id(),
                    assignment.query
                )
            });
        let best = merge.sorted();
        if !best.is_empty() {
            let ids = ctx.mram_read(replica.ids_addr, n * 8);
            for nb in best {
                let Some(&id) = ids[nb.id as usize * 8..].first_chunk() else {
                    unreachable!("the id array holds 8 bytes per vector")
                };
                query_heap.push(u64::from_le_bytes(id), nb.distance);
            }
            work.id_reads = best.len() as u64;
        }

        charge(&work, &replica.encoding, &shape, |stage, costs| {
            ctx.close_region(stage, costs);
        });
        output.work += work;
    }

    // ---- Result write-back ------------------------------------------------
    // The mailbox is the kernel's one answer: a slot per query of the plan,
    // in plan order.
    *tables = recycle(combo_tables);
    mailbox.clear();
    for (&q, heap) in plan.queries.iter().zip(query_heaps) {
        mailbox.extend_from_slice(&(q as u32).to_le_bytes());
        ascending.clear();
        ascending.extend_from_slice(heap.as_heap_slice());
        ascending.sort_by(Neighbor::cmp);
        for i in 0..k {
            if let Some(n) = ascending.get(i) {
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
    ctx.mram_write(Stage::ResultWrite, store.mailbox_addr, mailbox)
        .expect("the mailbox is sized by the engine's launch");
    output.mailbox_bytes_written = mailbox.len();
    output
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
    use proptest::prelude::*;
    use std::sync::{Mutex, OnceLock};

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
            let index = IvfPqIndex::train(&data, &IvfPqParams::new(8, 16).with_train_size(700), 3);
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
        sys.dpu_mut(0)
            .mram_mut()
            .write(store.codebook_addr, &codebook)
            .unwrap();

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
            sys.dpu_mut(0)
                .mram_mut()
                .write(ids_addr, &ids_bytes)
                .unwrap();

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
                plan.residuals.push(residual(q, index.coarse().centroid(c)));
            }
            plan.queries.push(qi);
        }
        plan
    }

    /// Runs the kernel on one DPU over queries 5, 300 and 900 and returns
    /// its answers as the engine reads them, parsed from the mailbox it
    /// staged, with its output and modeled seconds.
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
        assert_eq!(
            output.mailbox_bytes_written,
            plan.queries.len() * mailbox_slot_bytes(k)
        );
        let mailbox = sys
            .dpu(0)
            .mram()
            .read(store.mailbox_addr, output.mailbox_bytes_written)
            .unwrap();
        let answers = parse_mailbox(mailbox, plan.queries.len(), k);
        let order: Vec<usize> = answers.iter().map(|(q, _)| *q).collect();
        assert_eq!(order, plan.queries, "one slot per query, in plan order");
        (answers, output, report.max_dpu_seconds)
    }

    #[test]
    fn kernel_matches_reference_adc_search_plain() {
        let fix = fixture();
        let (answers, output, _) = run(false, UpAnnsConfig::pim_naive(), 8, 10);
        assert_eq!(answers.len(), 3);
        for (qi, row) in [5usize, 300, 900].iter().enumerate() {
            let reference = fix.index.search(fix.data.vector(*row), 8, 10);
            let got = &answers.iter().find(|(q, _)| *q == qi).unwrap().1;
            assert_eq!(
                got.iter().map(|n| n.id).collect::<Vec<_>>(),
                reference.iter().map(|n| n.id).collect::<Vec<_>>(),
                "query {qi} mismatch"
            );
        }
        assert!(output.work.vectors > 0);
        assert!(output.work.code_bytes > 0);
        assert_eq!(output.work.lut_lookups, output.work.vectors * 16);
    }

    #[test]
    fn kernel_matches_reference_adc_search_with_cae() {
        let fix = fixture();
        let (answers, output, _) = run(true, UpAnnsConfig::upanns(), 8, 10);
        for (qi, row) in [5usize, 300, 900].iter().enumerate() {
            let reference = fix.index.search(fix.data.vector(*row), 8, 10);
            let got = &answers.iter().find(|(q, _)| *q == qi).unwrap().1;
            let ref_ids: Vec<u64> = reference.iter().map(|n| n.id).collect();
            let got_ids: Vec<u64> = got.iter().map(|n| n.id).collect();
            // Distances are identical up to float rounding of the combo sums,
            // so the id sets must coincide.
            let overlap = got_ids.iter().filter(|id| ref_ids.contains(id)).count();
            assert!(overlap >= 9, "query {qi}: overlap {overlap}/10");
        }
        // CAE reduces LUT lookups below m per candidate.
        assert!(output.work.lut_lookups < output.work.vectors * 16);
        assert!(output.work.merge.pruned > 0, "pruning should trigger");
    }

    /// The address space past what an assignment builds is never read: on
    /// one thread's scratch, an assignment on the list with the most
    /// combinations and then one on the list with the fewest answers the
    /// second exactly as a fresh scratch does.
    #[test]
    fn a_list_after_one_with_more_combinations_answers_like_a_fresh_scratch() {
        let fix = fixture();
        let (k, config) = (10, UpAnnsConfig::upanns());
        let mut sys = PimSystem::new(PimConfig::with_dpus(1));
        let (store, combos) = build_store(&mut sys, &fix.index, true, k, 4);
        let counts: Vec<(usize, usize)> = (0..fix.index.nlist())
            .filter_map(|c| combos.get(&c).map(|table| (table.len(), c)))
            .collect();
        let (Some(&(most, many)), Some(&(fewest, few))) =
            (counts.iter().max(), counts.iter().min())
        else {
            unreachable!("the fixture's lists are not empty")
        };
        assert!(most > fewest, "combinations per list: {counts:?}");
        let shared = KernelShared {
            pq: fix.index.pq(),
            combos: &combos,
            config: &config,
            k,
            scan_backend: annkit::simd::active(),
        };
        let mut run_on = |scratch: &Mutex<KernelScratch>, cluster: usize| {
            let q = fix.data.vector(300);
            let plan = DpuBatchPlan {
                assignments: vec![Assignment { query: 0, cluster }],
                residuals: vec![residual(q, fix.index.coarse().centroid(cluster))],
                queries: vec![0],
            };
            let (_, mut outputs) = sys.execute(Stage::DpuSearch, |ctx| {
                run_with_scratch(ctx, &store, &plan, &shared, &mut scratch.lock().unwrap())
            });
            let output = outputs.remove(0);
            let mram = sys.dpu(0).mram();
            let mailbox = mram.read(store.mailbox_addr, output.mailbox_bytes_written);
            (mailbox.unwrap().to_vec(), output.work)
        };
        let used = Mutex::new(KernelScratch::default());
        let _ = run_on(&used, many);
        let after_many = run_on(&used, few);
        let fresh = run_on(&Mutex::new(KernelScratch::default()), few);
        assert_eq!(parse_mailbox(&fresh.0, 1, k)[0].1.len(), k);
        assert_eq!(after_many, fresh);
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
                config.mram_read_bytes(m),
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
        assert_eq!(output.work.vectors, 0);
        assert_eq!(output.mailbox_bytes_written, 0);
    }

    // ---- The charge ledger ----------------------------------------------
    //
    // Per stage, what `charge` prices and at which scale:
    //
    // * scaled: the distance calculation — its vectors, code bytes and CAE
    //   entries are charged at `modeled(functional)`;
    // * exempt, correctly unscaled: the per-assignment LUT build and the
    //   residual read (one per assignment whatever the list's length), and
    //   the per-query transfers, which the engine charges outside the
    //   kernel;
    // * known offenders, unscaled although they grow with the list: the
    //   top-k merge (and the id reads that follow it), charged from the
    //   reduced-scale heaps; the combination sums, charged per element the
    //   kernel counts but from the table mined at the reduced scale; and the
    //   LUT, charged dense (`m × 256` entries) while the functional build is
    //   masked.

    /// The shape of the hand-computed assignments below.
    const SHAPE: KernelShape = KernelShape {
        m: 16,
        dsub: 8,
        k: 10,
        tasklets: 4,
        read_bytes: 256,
        work_scale: 2.0,
    };

    /// A 100-vector plain list, `dim` 128, after a merge of 4 tasklets.
    const PLAIN: AssignmentWork = AssignmentWork {
        residual_bytes: 512,
        codebook_bytes: 128 * 256,
        lut_entries: 16 * 256,
        combos: 0,
        combo_elements: 0,
        vectors: 100,
        code_bytes: 1600,
        cae_entries: 0,
        lut_lookups: 1600,
        merge: MergeStats {
            comparisons: 40,
            insertions: 12,
            pruned: 3,
            semaphore_ops: 4,
        },
        id_reads: 10,
    };

    /// The same list encoded with 6 combinations (15 elements): 800 lookups
    /// plus 100 length slots.
    const CAE: AssignmentWork = AssignmentWork {
        combos: 6,
        combo_elements: 15,
        code_bytes: 1800,
        cae_entries: 900,
        lut_lookups: 800,
        ..PLAIN
    };

    /// A CAE layout for `charge`, which reads only which encoding a list
    /// has.
    fn cae_layout() -> ListEncoding {
        let list = CaeList::encode(&[0; 16], 16, &ComboTable::empty());
        ListEncoding::CaeU16(Arc::new(list))
    }

    /// The regions `charge` closes, in order.
    fn regions(
        work: &AssignmentWork,
        encoding: &ListEncoding,
        shape: &KernelShape,
    ) -> Vec<(Stage, Vec<TaskletCost>)> {
        let mut regions = Vec::new();
        charge(work, encoding, shape, |stage, costs| {
            regions.push((stage, costs.to_vec()));
        });
        regions
    }

    /// Cycles of each region as a one-DPU launch closes it.
    fn region_cycles(regions: &[(Stage, Vec<TaskletCost>)]) -> Vec<(Stage, u64)> {
        regions
            .iter()
            .map(|(stage, costs)| {
                let mut sys = PimSystem::new(PimConfig::with_dpus(1));
                let (report, _) = sys.execute(Stage::DpuSearch, |ctx| {
                    ctx.close_region(*stage, costs);
                });
                (*stage, report.per_dpu_cycles[0])
            })
            .collect()
    }

    // By hand, with `mram_transfer_cycles` = 77 + ⌈0.5 · bytes⌉ = 81 / 93 /
    // 145 / 205 / 333 / 1 101 at 8 / 32 / 136 / 256 / 512 / 2 048 bytes:
    //
    // * LUT: each tasklet reads an 8 KB codebook slice (4 × 1 101) and
    //   builds 1 024 entries (1 024 × (8 × 3 + 1) = 25 600); tasklet 0 also
    //   reads the residual (333). max(4 × 25 600, 11 × 25 600) + 4 × 32.
    // * Distance (plain): 200 modeled vectors, 50 a tasklet: 800 code bytes
    //   = 3 × 205 + 93 of DMA, 50 + 3 × 800 + 800 = 3 250 cycles.
    //   11 × 3 250 + 128.
    // * Distance (CAE): 50 records, 900 bytes (3 × 205 + 145), 450 entries:
    //   50 + 3 × 450 = 1 400 cycles. 11 × 1 400 + 128.
    // * Combination sums: 15 elements and 6 sums, 4 and 2 a tasklet:
    //   4 adds + 4 loads + 2 stores = 10. 11 × 10 + 128.
    // * Merge: 4 × 16 + 40 × 2 + 12 × 5 (a 10-heap sifts 5 levels) = 204,
    //   on one tasklet: 11 × 204 + 32. Id reads: 10 × 81 + 32.

    #[test]
    fn a_plain_assignment_costs_its_hand_computed_cycles() {
        assert_eq!(
            region_cycles(&regions(&PLAIN, &ListEncoding::PlainU8, &SHAPE)),
            [
                (Stage::LutConstruction, 281_728),
                (Stage::DistanceCalc, 35_878),
                (Stage::TopK, 2_276),
                (Stage::TopK, 842),
            ]
        );
    }

    #[test]
    fn a_cae_assignment_costs_its_hand_computed_cycles() {
        assert_eq!(
            region_cycles(&regions(&CAE, &cae_layout(), &SHAPE)),
            [
                (Stage::LutConstruction, 281_728),
                (Stage::ComboSum, 238),
                (Stage::DistanceCalc, 15_528),
                (Stage::TopK, 2_276),
                (Stage::TopK, 842),
            ]
        );
    }

    #[test]
    fn only_the_distance_stage_is_charged_at_the_modeled_scale() {
        let scale = 37.3;
        for (work, stream) in [(PLAIN, ListEncoding::PlainU8), (CAE, cae_layout())] {
            let stream = &stream;
            let at = |work_scale| KernelShape {
                work_scale,
                ..SHAPE
            };
            let scaled = regions(&work, stream, &at(scale));
            let projected = AssignmentWork {
                vectors: modeled(work.vectors, scale),
                code_bytes: modeled(work.code_bytes, scale),
                cae_entries: modeled(work.cae_entries, scale),
                ..work
            };
            let unscaled = regions(&work, stream, &at(1.0));
            for ((got, at_modeled), at_functional) in scaled
                .iter()
                .zip(regions(&projected, stream, &at(1.0)))
                .zip(unscaled)
            {
                if got.0 == Stage::DistanceCalc {
                    assert_eq!(got, &at_modeled, "{stream:?}");
                    assert_ne!(got, &at_functional, "{stream:?}");
                } else {
                    assert_eq!(got, &at_functional, "{stream:?} {:?}", got.0);
                }
            }
        }
    }

    #[test]
    fn the_work_counts_the_dense_lut_and_every_id_read() {
        let (answers, output, _) = run(true, UpAnnsConfig::upanns(), 8, 10);
        let assignments = 3 * 8;
        assert_eq!(output.work.lut_entries, assignments * 16 * 256);
        let returned: usize = answers.iter().map(|(_, n)| n.len()).sum();
        assert!(output.work.id_reads >= returned as u64);
        assert!(output.work.combo_elements >= 2 * output.work.combos);
        assert!(output.work.combo_elements <= 3 * output.work.combos);
        assert_eq!(
            output.work.cae_entries,
            output.work.lut_lookups + output.work.vectors
        );
        assert_eq!(output.work.code_bytes, 2 * output.work.cae_entries);
    }

    /// A charge's total cycles, as a one-DPU launch closes its regions.
    fn total_cycles(regions: &[(Stage, Vec<TaskletCost>)]) -> u64 {
        region_cycles(regions)
            .iter()
            .map(|(_, cycles)| cycles)
            .sum()
    }

    fn work_of(c: &[u64]) -> AssignmentWork {
        AssignmentWork {
            residual_bytes: c[0],
            codebook_bytes: c[1],
            lut_entries: c[2],
            combos: c[3],
            combo_elements: c[4],
            vectors: c[5],
            code_bytes: c[6],
            cae_entries: c[7],
            lut_lookups: c[8],
            merge: MergeStats {
                comparisons: c[9],
                insertions: c[10],
                pruned: c[11],
                semaphore_ops: c[12],
            },
            id_reads: c[13],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// More of any count, or a larger `work_scale`, never costs fewer
        /// cycles.
        #[test]
        fn the_charge_is_monotone_in_every_count_and_in_work_scale(
            counts in prop::collection::vec(0u64..5_000, 14),
            grown in (0usize..15, 1u64..3_000),
            sizes in (1usize..=24, 1usize..=256, 1usize..=32, 1usize..=16),
            rest in (1usize..=128, 1.0f64..500.0, any::<bool>()),
        ) {
            let ((tasklets, read_units, m, dsub), (k, work_scale, cae)) = (sizes, rest);
            let shape = KernelShape { m, dsub, k, tasklets, read_bytes: read_units * 8, work_scale };
            let stream = &if cae { cae_layout() } else { ListEncoding::PlainU8 };
            let base = total_cycles(&regions(&work_of(&counts), stream, &shape));
            let (field, by) = grown;
            let more = if field == 14 {
                let larger = KernelShape { work_scale: work_scale + by as f64 / 10.0, ..shape };
                total_cycles(&regions(&work_of(&counts), stream, &larger))
            } else {
                let mut counts = counts.clone();
                counts[field] += by;
                total_cycles(&regions(&work_of(&counts), stream, &shape))
            };
            prop_assert!(more >= base, "field {field} + {by}: {more} < {base}");
        }
    }
}
