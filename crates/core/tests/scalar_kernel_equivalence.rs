//! Kernel-level proof that `run_batch_kernel` answers are unchanged by the
//! SIMD routing: this test binary pins the process-wide dispatcher to the
//! scalar fallback (integration tests are separate processes, so the pin
//! cannot leak into other suites), runs the PIM kernel both through the
//! dispatcher and with each backend pinned explicitly, and requires
//! identical ids and bitwise-identical distances everywhere — including
//! against the host-side `IvfPqIndex::search` reference.
//!
//! Both payload encodings are staged: `PlainU8` (PIM-naive) and the `CaeU16`
//! direct-address stream the UpANNS engine actually runs. For the latter the
//! kernel's blocked range scan + batch top-k insert is held against a
//! per-record reference (`CaeList::adc_distance` + `TopK::push` per tasklet
//! range, one `l2_squared` per LUT entry): ids, distance bits and the
//! launch's summed `AssignmentWork` — every count, `MergeStats` included —
//! must all agree. Two list shapes are staged: 150-vector lists, and the
//! serving fixtures' short lists (1–20 vectors, many shorter than `k`, most
//! tasklet ranges one vector or empty).

use annkit::distance::l2_squared;
use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::lut::LookupTable;
use annkit::simd::{self, Backend};
use annkit::synthetic::SyntheticSpec;
use annkit::topk::{Neighbor, TopK};
use annkit::vector::{residual, Dataset};
use pim_sim::config::PimConfig;
use pim_sim::host::PimSystem;
use pim_sim::stats::Stage;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Once};
use upanns::config::UpAnnsConfig;
use upanns::cooccurrence::{mine_cluster_combos, ComboTable, MiningParams};
use upanns::encoding::CaeList;
use upanns::kernel::{
    mailbox_slot_bytes, parse_mailbox, run_batch_kernel, AssignmentWork, ClusterReplica,
    DpuBatchPlan, DpuStore, KernelShared, ListEncoding,
};
use upanns::scheduling::Assignment;
use upanns::topk_prune::merge_thread_local;

const QUERY_ROWS: [usize; 3] = [7, 250, 800];

/// The inverted lists a fixture is trained into: 1 200 vectors drawn around
/// `clusters` centres in `nlist` lists, each query probing 8.
#[derive(Clone, Copy)]
struct Lists {
    clusters: usize,
    nlist: usize,
}

/// 150 vectors a list.
const LONG: Lists = Lists {
    clusters: 8,
    nlist: 8,
};
/// 1–13 vectors in each probed list.
const SHORT: Lists = Lists {
    clusters: 300,
    nlist: 300,
};

fn fixture(lists: Lists) -> (Dataset, IvfPqIndex) {
    let data = SyntheticSpec::sift_like(1200)
        .with_clusters(lists.clusters)
        .with_seed(19)
        .generate();
    let params = IvfPqParams::new(lists.nlist, 16).with_train_size(600);
    let index = IvfPqIndex::train(&data, &params, 3);
    (data, index)
}

/// Pins this process's dispatcher to the fallback before anything else
/// resolves it, whichever test runs first: the engines and the host
/// reference index then run on the scalar path even on AVX2 hardware.
fn pin_scalar() {
    static PIN: Once = Once::new();
    PIN.call_once(|| {
        assert!(
            simd::force_backend(Backend::Scalar),
            "dispatch was resolved before the test could pin it"
        );
    });
    assert_eq!(simd::active(), Backend::Scalar);
}

/// Each query's assignments to the non-empty lists among its 8 probes (the
/// engine stages no empty list).
fn plan_for(data: &Dataset, index: &IvfPqIndex) -> DpuBatchPlan {
    let mut plan = DpuBatchPlan::default();
    for (qi, &row) in QUERY_ROWS.iter().enumerate() {
        let q = data.vector(row);
        for (c, _) in index.filter_clusters(q, 8) {
            if index.list(c).is_empty() {
                continue;
            }
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

/// Mined combination table and encoded list of every non-empty cluster.
fn encode_lists(index: &IvfPqIndex) -> (HashMap<usize, ComboTable>, HashMap<usize, CaeList>) {
    let mut combos = HashMap::new();
    let mut lists = HashMap::new();
    for c in 0..index.nlist() {
        let list = index.list(c);
        if list.is_empty() {
            continue;
        }
        let table = mine_cluster_combos(list.packed_codes(), index.m(), &MiningParams::default());
        lists.insert(c, CaeList::encode(list.packed_codes(), index.m(), &table));
        combos.insert(c, table);
    }
    (combos, lists)
}

/// Per-query answers, in plan order, and the launch's summed work.
type Answers = (Vec<(usize, Vec<Neighbor>)>, AssignmentWork);

/// Runs the kernel and reads its answers as the engine does: parsed from
/// the mailbox it staged.
fn run_kernel(lists: Lists, backend: Backend, k: usize, cae: bool) -> Answers {
    let (data, index) = fixture(lists);
    let (combos, mut cae_lists) = if cae {
        encode_lists(&index)
    } else {
        (HashMap::new(), HashMap::new())
    };

    let mut sys = PimSystem::new(PimConfig::with_dpus(1));
    let mut store = DpuStore::default();
    let codebook = vec![1u8; index.dim() * 256];
    store.codebook_addr = sys.mram_alloc(0, codebook.len()).unwrap();
    store.codebook_bytes = codebook.len();
    sys.dpu_mut(0)
        .mram_mut()
        .write(store.codebook_addr, &codebook)
        .unwrap();
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
        let (codes, encoding) = match cae_lists.remove(&c) {
            Some(cae_list) => (
                cae_list.to_bytes(),
                ListEncoding::CaeU16(Arc::new(cae_list)),
            ),
            None => (list.packed_codes().to_vec(), ListEncoding::PlainU8),
        };
        let codes_addr = sys.mram_alloc(0, codes.len()).unwrap();
        sys.dpu_mut(0).mram_mut().write(codes_addr, &codes).unwrap();
        store.replicas.insert(
            c,
            ClusterReplica {
                cluster: c,
                num_vectors: list.len(),
                ids_addr,
                codes_addr,
                codes_bytes: codes.len(),
                encoding,
            },
        );
    }
    store.query_buffer_bytes = 4096;
    store.query_buffer_addr = sys.mram_alloc(0, store.query_buffer_bytes).unwrap();
    store.mailbox_bytes = 4 * mailbox_slot_bytes(k);
    store.mailbox_addr = sys.mram_alloc(0, store.mailbox_bytes).unwrap();

    let plan = plan_for(&data, &index);
    let config = if cae {
        UpAnnsConfig::upanns()
    } else {
        UpAnnsConfig::pim_naive()
    };
    let shared = KernelShared {
        pq: index.pq(),
        combos: &combos,
        config: &config,
        k,
        scan_backend: backend,
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
    let answers = parse_mailbox(mailbox, plan.queries.len(), k);

    // The host-side reference must agree on ids for every query too (the
    // kernel scans exactly the probed clusters). With combination sums the
    // distances differ from the plain ADC sum by float rounding, so the CAE
    // arm is held to its own per-record reference instead.
    if !cae {
        for (qi, &row) in QUERY_ROWS.iter().enumerate() {
            let reference = index.search(data.vector(row), 8, k);
            let got = &answers.iter().find(|(q, _)| *q == qi).unwrap().1;
            assert_eq!(
                got.iter().map(|n| n.id).collect::<Vec<_>>(),
                reference.iter().map(|n| n.id).collect::<Vec<_>>(),
                "query {qi} disagrees with host reference on {backend:?}"
            );
        }
    }
    (answers, output.work)
}

/// What the kernel must compute on the `CaeU16` arm, one record at a time:
/// every LUT entry its own `l2_squared`, every record `adc_distance` +
/// `push` into its tasklet's heap, then the pruned merge and the id lookup.
fn cae_reference(lists: Lists, k: usize) -> Answers {
    let (data, index) = fixture(lists);
    let (combos, cae_lists) = encode_lists(&index);
    let plan = plan_for(&data, &index);
    let config = UpAnnsConfig::upanns();
    let pq = index.pq();
    let mut total = AssignmentWork::default();
    let mut query_heaps: BTreeMap<usize, TopK> = BTreeMap::new();
    for (assignment, residual) in plan.assignments.iter().zip(&plan.residuals) {
        let table = &combos[&assignment.cluster];
        let mut work = AssignmentWork {
            residual_bytes: (index.dim() * 4) as u64,
            codebook_bytes: (index.dim() * 256) as u64,
            lut_entries: (pq.m() * 256) as u64,
            combos: table.len() as u64,
            combo_elements: table
                .combos()
                .iter()
                .map(|c| c.elements().len() as u64)
                .sum(),
            ..AssignmentWork::default()
        };
        let lut = LookupTable::build(pq, residual);
        for sub in 0..pq.m() {
            let rv = &residual[sub * pq.dsub()..(sub + 1) * pq.dsub()];
            for code in 0..=255u8 {
                assert_eq!(
                    lut.get(sub, code).to_bits(),
                    l2_squared(rv, pq.centroid(sub, code)).to_bits()
                );
            }
        }
        let cae = &cae_lists[&assignment.cluster];
        let sums = table.partial_sums(&lut);
        let n = cae.len();
        let per_tasklet = n.div_ceil(config.tasklets);
        let mut locals = Vec::new();
        for t in 0..config.tasklets {
            let mut heap = TopK::new(k);
            for v in (t * per_tasklet).min(n)..((t + 1) * per_tasklet).min(n) {
                heap.push(v as u64, cae.adc_distance(v, &lut, &sums));
                work.vectors += 1;
                work.lut_lookups += cae.record(v).len() as u64;
                work.cae_entries += cae.record(v).len() as u64 + 1;
                let (first, last) = cae.record_byte_range(v);
                work.code_bytes += (last - first) as u64;
            }
            locals.push(heap);
        }
        let (merged, stats) = merge_thread_local(&locals, k, config.topk_pruning);
        work.merge = stats;
        let ids = index.list(assignment.cluster).ids();
        let heap = query_heaps
            .entry(assignment.query)
            .or_insert_with(|| TopK::new(k));
        for neighbor in merged.into_sorted() {
            heap.push(ids[neighbor.id as usize], neighbor.distance);
            work.id_reads += 1;
        }
        total += work;
    }
    let answers = query_heaps
        .into_iter()
        .map(|(q, h)| (q, h.into_sorted()))
        .collect();
    (answers, total)
}

fn assert_same_answers(a: &[(usize, Vec<Neighbor>)], b: &[(usize, Vec<Neighbor>)], what: &str) {
    assert_eq!(a.len(), b.len());
    for ((qa, na), (qb, nb)) in a.iter().zip(b) {
        assert_eq!(qa, qb);
        assert_eq!(na.len(), nb.len());
        for (x, y) in na.iter().zip(nb) {
            assert_eq!(x.id, y.id, "query {qa}: {what} changed an id");
            assert_eq!(
                x.distance.to_bits(),
                y.distance.to_bits(),
                "query {qa}: {what} changed a distance bit pattern"
            );
        }
    }
}

#[test]
fn kernel_answers_identical_across_backends_and_dispatch() {
    pin_scalar();
    let (scalar, scalar_work) = run_kernel(LONG, Backend::Scalar, 10, false);
    let (vectorized, vectorized_work) = run_kernel(LONG, simd::detect(), 10, false);
    assert_same_answers(&scalar, &vectorized, "SIMD routing");
    assert_eq!(scalar_work, vectorized_work, "SIMD routing changed a count");

    // The CaeU16 arm, on both backends, against the per-record reference.
    let (reference, reference_work) = cae_reference(LONG, 10);
    assert!(
        reference_work.lut_lookups < reference_work.vectors * 16,
        "the fixture must exercise combination entries"
    );
    assert!(
        reference_work.merge.pruned > 0,
        "the fixture must exercise pruning"
    );
    for backend in [Backend::Scalar, simd::detect()] {
        let (got, work) = run_kernel(LONG, backend, 10, true);
        assert_same_answers(&got, &reference, "the blocked CAE scan");
        assert_eq!(work, reference_work, "{backend:?}");
    }
}

/// Lists shorter than `k` and tasklet ranges of one vector: a range that
/// fits the DPU heap's free slots, ranges that fill it part-way, and lists
/// whose ranges are cut from one scan, at k 10 and k 20 on both encodings.
#[test]
fn short_lists_answer_like_both_references() {
    pin_scalar();
    let (data, index) = fixture(SHORT);
    let sizes = index.list_sizes();
    let plan = plan_for(&data, &index);
    let probed: Vec<usize> = plan.assignments.iter().map(|a| sizes[a.cluster]).collect();
    let tasklets = UpAnnsConfig::upanns().tasklets;
    assert!(probed.iter().all(|&n| (1..=20).contains(&n)), "{probed:?}");
    assert!(probed.contains(&1), "a one-vector list");
    assert!(probed.iter().any(|&n| n < 10), "a list shorter than k");
    assert!(
        probed.iter().any(|&n| n > tasklets),
        "a list of multi-vector ranges"
    );
    for k in [10, 20] {
        let (scalar, scalar_work) = run_kernel(SHORT, Backend::Scalar, k, false);
        let (vectorized, vectorized_work) = run_kernel(SHORT, simd::detect(), k, false);
        assert_same_answers(&scalar, &vectorized, "SIMD routing");
        assert_eq!(scalar_work, vectorized_work, "k {k}");
        let (reference, reference_work) = cae_reference(SHORT, k);
        for backend in [Backend::Scalar, simd::detect()] {
            let (got, work) = run_kernel(SHORT, backend, k, true);
            assert_same_answers(&got, &reference, "the blocked CAE scan");
            assert_eq!(work, reference_work, "k {k}, {backend:?}");
        }
    }
}
