//! The code-block masks behind list-masked LUT construction
//! (`annkit::lut::mark_code_blocks`, `LookupTable::rebuild_masked`):
//!
//! 1. **Maintenance** — after a generated mutation stream (upserts, deletes,
//!    compactions) and after cutting shards with
//!    `upanns::multihost::shard_indexes`, every list's mask covers every
//!    `(sub, block)` its codes use, and Faiss-CPU (which builds masked LUTs)
//!    answers bitwise like the dense reference `IvfPqIndex::search`.
//! 2. **Sparsity** — the probe-weighted share of 8-code blocks a masked
//!    build computes per LUT on the three benchmark fixture shapes: most of
//!    the table is skipped on short lists and almost none on long ones.
//!
//! Tier-1 runs in debug, where a masked build fills every skipped block
//! with NaN, so a read the mask failed to cover shows up as a wrong answer.

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::mutation::MutableIvf;
use annkit::synthetic::{SyntheticDataset, SyntheticSpec};
use annkit::workload::{MutationOp, MutationSpec, TenantId, WorkloadSpec};
use baselines::cpu::CpuFaissEngine;
use baselines::engine::AnnEngine;
use upanns::multihost::shard_indexes;

/// Blocks of 8 codes per sub-quantizer: 256 / 8.
const BLOCKS_PER_SUB: u32 = 32;

/// Every `(sub, code)` of every code of every list lies in a set block of
/// that list's mask.
fn assert_masks_cover_codes(index: &IvfPqIndex, what: &str) {
    let m = index.m();
    for (c, list) in index.lists().iter().enumerate() {
        if list.is_empty() {
            continue;
        }
        let mask = list.code_blocks();
        assert_eq!(mask.len(), m, "{what}: list {c} mask length");
        for code in list.packed_codes().chunks_exact(m) {
            for (sub, &byte) in code.iter().enumerate() {
                assert!(
                    mask[sub] & (1 << (byte / 8)) != 0,
                    "{what}: list {c} sub {sub} code {byte} outside its mask"
                );
            }
        }
    }
}

/// Faiss-CPU's answers (masked LUTs) equal the dense reference search in
/// ids and distance bits.
fn assert_faiss_equals_reference(index: &IvfPqIndex, data: &SyntheticDataset, what: &str) {
    let queries = data
        .vectors
        .gather(&(0..24).map(|i| i * 29).collect::<Vec<_>>());
    for nprobe in [1, 4, 16] {
        let got = CpuFaissEngine::new(index)
            .search_batch(&queries, nprobe, 10)
            .results;
        let want = index.search_batch(&queries, nprobe, 10);
        assert_eq!(got.len(), want.len());
        for (q, (g, w)) in got.iter().zip(&want).enumerate() {
            let bits = |a: &[annkit::topk::Neighbor]| {
                a.iter()
                    .map(|n| (n.id, n.distance.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(g), bits(w), "{what}: query {q} at nprobe {nprobe}");
        }
    }
}

#[test]
fn masks_cover_their_codes_after_mutation_and_sharding() {
    let data = SyntheticSpec::sift_like(1200)
        .with_clusters(8)
        .with_seed(21)
        .generate_with_meta();
    let index = IvfPqIndex::train(
        &data.vectors,
        &IvfPqParams::new(16, 16).with_train_size(600),
        4,
    );
    assert_masks_cover_codes(&index, "trained");
    assert_faiss_equals_reference(&index, &data, "trained");

    let stream = MutationSpec::new(4.0)
        .with_tenant(TenantId(0), 60.0, 40.0)
        .with_seed(9)
        .generate(&data, index.ntotal());
    assert!(
        stream.upserts() > 100 && stream.deletes() > 50,
        "a busy stream"
    );
    let mut live = MutableIvf::new(&index);
    for (i, event) in stream.events.iter().enumerate() {
        match &event.op {
            MutationOp::Upsert { id, vector } => live.upsert(vector, *id),
            MutationOp::Delete { id } => {
                live.delete(*id);
            }
        }
        if i % 97 == 96 {
            live.compact();
            assert_masks_cover_codes(&live.snapshot(), "mid-stream");
        }
    }
    live.compact();
    let snapshot = live.snapshot();
    assert_masks_cover_codes(&snapshot, "live");
    assert_faiss_equals_reference(&snapshot, &data, "live");

    for (h, shard) in shard_indexes(&index, &data.vectors, 3).iter().enumerate() {
        let what = format!("shard {h}");
        assert_masks_cover_codes(shard, &what);
        assert_faiss_equals_reference(shard, &data, &what);
    }
}

/// One benchmark fixture shape: corpus size, list count and training
/// sample (the serving fixture S, mutation fixture M and long-list fixture
/// L), built the way the benchmark builds it.
fn block_share(n: usize, nlist: usize, train_size: usize) -> f64 {
    let data = SyntheticSpec::sift_like(n)
        .with_clusters(16)
        .with_seed(7)
        .generate_with_meta();
    let index = IvfPqIndex::train(
        &data.vectors,
        &IvfPqParams::new(nlist, 16).with_train_size(train_size),
        5,
    );
    let queries = WorkloadSpec::new(1000).with_seed(3).generate(&data).queries;
    let full = f64::from(BLOCKS_PER_SUB) * index.m() as f64;
    let (mut built, mut luts) = (0.0, 0usize);
    for q in queries.iter() {
        for (c, _) in index.filter_clusters(q, 8) {
            // An empty list's probe builds no block.
            let mask = index.list(c).code_blocks();
            built += f64::from(mask.iter().map(|b| b.count_ones()).sum::<u32>()) / full;
            luts += 1;
        }
    }
    built / luts as f64
}

/// A count, not a time: the share of the table a masked LUT build computes,
/// averaged over the (query, probed list) pairs of 1 000 queries at nprobe
/// 8 (measured 0.2847, 0.7998 and 0.9648; the build is deterministic, the
/// tolerance only absorbs a retrained fixture's drift). On S's 8-vector
/// lists it is under a third — the host saving on the
/// serving workloads; on L's 1 250-vector lists nearly every block is used,
/// which is why the long-list scan workload gains nothing.
#[test]
fn masked_luts_build_a_shrinking_share_as_lists_grow() {
    let shares = [
        ("S", block_share(4_000, 512, 2_400), 0.285),
        ("M", block_share(8_000, 64, 2_400), 0.800),
        ("L", block_share(40_000, 32, 3_000), 0.965),
    ];
    for (shape, got, want) in shares {
        assert!(
            (got - want).abs() <= 0.005,
            "fixture {shape}: {got:.4} of the blocks built, expected {want} ± 0.005"
        );
    }
}
