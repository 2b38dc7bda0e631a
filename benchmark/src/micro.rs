//! Direct timings of single layers' public functions, in synthetic loops.
//!
//! Each timing repeats a fixed amount of work five times and reports the
//! median, so a stray scheduler hiccup cannot set the number. These feed
//! per-layer metrics only; no end-to-end metric is built from them.

use crate::clock;
use crate::fixtures::{Fixture, DPUS};
use crate::stats;
use annkit::ivf::IvfPqIndex;
use annkit::lut::LookupTable;
use annkit::mutation::MutableIvf;
use annkit::simd::{self, Backend};
use annkit::topk::TopK;
use annkit::vector::{residual, Dataset};
use annkit::workload::{MutationOp, MutationStream, TenantId};
use baselines::engine::QueryOptions;
use pim_sim::config::PimConfig;
use pim_sim::host::{DpuRead, DpuWrite, PimSystem};
use std::collections::HashMap;
use std::hint::black_box;
use upanns::config::UpAnnsConfig;
use upanns::cooccurrence::{mine_cluster_combos, MiningParams};
use upanns::encoding::CaeList;
use upanns::kernel::{
    mailbox_slot_bytes, run_batch_kernel, ClusterReplica, DpuBatchPlan, DpuStore, KernelShared,
    ListEncoding,
};
use upanns::placement::{place_pim_aware, PlacementInput};
use upanns::scheduling::Assignment;
use upanns_serve::admission::AdmissionQueue;
use upanns_serve::batcher::{BatchFormer, BatchFormerConfig, PendingQuery};
use upanns_serve::cache::ResultCache;
use upanns_serve::dispatch::{ChunkQueue, DispatchOrder};

const REPEATS: usize = 5;

/// Median host seconds of `REPEATS` runs of `body`.
fn median_s(mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPEATS).map(|_| clock::timed(&mut body).1).collect();
    stats::median(&samples)
}

/// The longest inverted list of `index` (its cluster id).
fn longest_list(index: &IvfPqIndex) -> usize {
    (0..index.nlist())
        .max_by_key(|&c| index.list(c).len())
        .expect("an index has lists")
}

/// ADC scan and top-k push on the fixture's longest list.
pub struct KernelTimings {
    pub adc_scan_ns_per_code: f64,
    pub adc_scan_simd_over_scalar: f64,
    pub topk_push_ns_per_candidate: f64,
    pub topk_simd_over_scalar: f64,
}

pub fn kernels(index: &IvfPqIndex, queries: &Dataset) -> KernelTimings {
    let cluster = longest_list(index);
    let list = index.list(cluster);
    let packed = list.packed_codes();
    let codes = list.len().max(1);
    let luts: Vec<LookupTable> = (0..queries.len().min(32))
        .map(|q| index.build_lut(queries.vector(q), cluster))
        .collect();
    let rounds = (2_000_000 / (codes * luts.len())).max(1);
    let mut out = Vec::new();
    let mut scan = |backend: Backend| {
        median_s(|| {
            for _ in 0..rounds {
                for lut in &luts {
                    lut.adc_scan_with(backend, packed, &mut out);
                    black_box(out.last().copied());
                }
            }
        })
    };
    let scan_simd = scan(simd::detect());
    let scan_scalar = scan(Backend::Scalar);
    let scanned = (rounds * luts.len() * codes) as f64;

    let distances: Vec<Vec<f32>> = luts.iter().map(|lut| lut.adc_scan(packed)).collect();
    let push = |backend: Backend| {
        median_s(|| {
            for _ in 0..rounds {
                for d in &distances {
                    let mut heap = TopK::new(10);
                    black_box(heap.push_batch_with(backend, 0, d));
                }
            }
        })
    };
    let push_simd = push(simd::detect());
    let push_scalar = push(Backend::Scalar);

    KernelTimings {
        adc_scan_ns_per_code: scan_simd * 1e9 / scanned,
        adc_scan_simd_over_scalar: scan_simd / scan_scalar,
        topk_push_ns_per_candidate: push_simd * 1e9 / scanned,
        topk_simd_over_scalar: push_simd / push_scalar,
    }
}

/// LUT build, cluster filtering and the reference single-query search.
pub struct IvfTimings {
    pub lut_build_us: f64,
    pub filter_clusters_us: f64,
    pub search_us: f64,
}

pub fn ivf(index: &IvfPqIndex, queries: &Dataset) -> IvfTimings {
    let n = queries.len().min(200);
    let probes: Vec<Vec<usize>> = (0..n)
        .map(|q| {
            index
                .filter_clusters(queries.vector(q), 8)
                .into_iter()
                .map(|(c, _)| c)
                .collect()
        })
        .collect();
    let luts: usize = probes.iter().map(Vec::len).sum();
    let lut_s = median_s(|| {
        for (q, clusters) in probes.iter().enumerate() {
            for &c in clusters {
                black_box(index.build_lut(queries.vector(q), c));
            }
        }
    });
    let filter_s = median_s(|| {
        for q in 0..n {
            black_box(index.filter_clusters(queries.vector(q), 8));
        }
    });
    let search_s = median_s(|| {
        for q in 0..n {
            black_box(index.search(queries.vector(q), 8, 10));
        }
    });
    IvfTimings {
        lut_build_us: lut_s * 1e6 / luts.max(1) as f64,
        filter_clusters_us: filter_s * 1e6 / n as f64,
        search_us: search_s * 1e6 / n as f64,
    }
}

/// One no-op `push_to_dpus` / `execute` / `pull_from_dpus` round over the
/// 896-DPU system: the simulator's fixed cost per engine launch.
pub struct PimRound {
    pub push_us: f64,
    pub execute_us: f64,
    pub pull_us: f64,
}

pub fn pim_round() -> PimRound {
    let mut sys = PimSystem::new(PimConfig::with_dpus(DPUS));
    let addrs: Vec<_> = (0..DPUS)
        .map(|d| {
            sys.mram_alloc(d, 64)
                .expect("64 bytes fit in an empty MRAM")
        })
        .collect();
    let writes: Vec<DpuWrite> = addrs
        .iter()
        .enumerate()
        .map(|(d, &a)| DpuWrite::new(d, a, vec![0u8; 8]))
        .collect();
    let reads: Vec<DpuRead> = addrs
        .iter()
        .enumerate()
        .map(|(d, &a)| DpuRead::new(d, a, 8))
        .collect();
    const ROUNDS: usize = 50;
    let push_s = median_s(|| {
        for _ in 0..ROUNDS {
            sys.push_to_dpus("bench_push", &writes)
                .expect("the buffers were allocated above");
        }
    });
    let execute_s = median_s(|| {
        for _ in 0..ROUNDS {
            black_box(sys.execute("bench_execute", |ctx| {
                black_box(ctx.dpu_id());
            }));
        }
    });
    let pull_s = median_s(|| {
        for _ in 0..ROUNDS {
            black_box(
                sys.pull_from_dpus("bench_pull", &reads)
                    .expect("the buffers were allocated above"),
            );
        }
    });
    PimRound {
        push_us: push_s * 1e6 / ROUNDS as f64,
        execute_us: execute_s * 1e6 / ROUNDS as f64,
        pull_us: pull_s * 1e6 / ROUNDS as f64,
    }
}

/// `run_batch_kernel` on one DPU holding the fixture's longest list, eight
/// assignments (the plain-code path, as the `pim_kernel` criterion bench
/// stages it). Returns host milliseconds per launch.
pub fn kernel_run_batch_ms(index: &IvfPqIndex, queries: &Dataset) -> f64 {
    let cluster = longest_list(index);
    let list = index.list(cluster);
    let k = 10;
    let mut sys = PimSystem::new(PimConfig::with_dpus(1));
    let mut store = DpuStore::default();
    let codebook = vec![1u8; index.dim() * 256];
    let alloc = |sys: &mut PimSystem, bytes: &[u8]| {
        let addr = sys
            .mram_alloc(0, bytes.len())
            .expect("one list fits in MRAM");
        sys.dpu_mut(0)
            .mram_mut()
            .write(addr, bytes)
            .expect("write inside the allocation");
        addr
    };
    store.codebook_addr = alloc(&mut sys, &codebook);
    store.codebook_bytes = codebook.len();
    let ids_bytes: Vec<u8> = list.ids().iter().flat_map(|id| id.to_le_bytes()).collect();
    let ids_addr = alloc(&mut sys, &ids_bytes);
    let codes_addr = alloc(&mut sys, list.packed_codes());
    store.replicas.insert(
        cluster,
        ClusterReplica {
            cluster,
            num_vectors: list.len(),
            ids_addr,
            codes_addr,
            codes_bytes: list.packed_codes().len(),
            encoding: ListEncoding::PlainU8,
        },
    );
    store.query_buffer_bytes = 8 * (8 + index.dim() * 4);
    store.query_buffer_addr = sys
        .mram_alloc(0, store.query_buffer_bytes)
        .expect("query buffer fits");
    store.mailbox_bytes = 8 * mailbox_slot_bytes(k);
    store.mailbox_addr = sys
        .mram_alloc(0, store.mailbox_bytes)
        .expect("mailbox fits");

    let mut plan = DpuBatchPlan::default();
    for qi in 0..queries.len().min(8) {
        plan.assignments.push(Assignment { query: qi, cluster });
        plan.residuals.push(residual(
            queries.vector(qi),
            index.coarse().centroid(cluster),
        ));
        plan.queries.push(qi);
    }
    let config = UpAnnsConfig::pim_naive();
    let combos = HashMap::new();
    let shared = KernelShared {
        pq: index.pq(),
        combos: &combos,
        config: &config,
        k,
        scan_backend: simd::active(),
    };
    const LAUNCHES: usize = 10;
    let s = median_s(|| {
        for _ in 0..LAUNCHES {
            sys.execute("bench_kernel", |ctx| {
                black_box(run_batch_kernel(ctx, &store, &plan, &shared).mailbox_bytes_written);
            });
        }
    });
    s * 1e3 / LAUNCHES as f64
}

/// The offline phase's parts as direct calls over the fixture's lists.
pub struct OfflineParts {
    pub place_s: f64,
    pub mine_s: f64,
    pub encode_s: f64,
}

pub fn offline_parts(fixture: &Fixture) -> OfflineParts {
    let index = &fixture.index;
    let m = index.m();
    let frequencies = upanns::builder::frequencies_from_queries(index, &fixture.history, 8);
    let max_dpu_vectors = PimConfig::with_dpus(DPUS).mram_bytes / (m.max(2) * 2 + 8);
    let input = PlacementInput::new(index.list_sizes(), frequencies, DPUS, max_dpu_vectors);
    let (_, place_s) = clock::timed(|| black_box(place_pim_aware(&input)));
    let mining = MiningParams::default();
    let (tables, mine_s) = clock::timed(|| {
        index
            .lists()
            .iter()
            .map(|list| mine_cluster_combos(list.packed_codes(), m, &mining))
            .collect::<Vec<_>>()
    });
    let (_, encode_s) = clock::timed(|| {
        for (list, table) in index.lists().iter().zip(&tables) {
            black_box(CaeList::encode(list.packed_codes(), m, table));
        }
    });
    OfflineParts {
        place_s,
        mine_s,
        encode_s,
    }
}

/// The serve crate's public types in synthetic loops, nanoseconds per
/// operation.
pub struct ServeTimings {
    pub admit_release_ns: f64,
    pub batcher_push_ns: f64,
    pub dispatch_submit_pop_ns: f64,
    pub cache_lookup_ns: f64,
    pub cache_insert_ns: f64,
}

pub fn serve_types(queries: &Dataset) -> ServeTimings {
    const OPS: usize = 20_000;
    let tenant = TenantId::DEFAULT;
    let options = QueryOptions::new(10, 8);

    let mut queue = AdmissionQueue::new(512).with_tenant(tenant, 1);
    let admit_s = median_s(|| {
        for _ in 0..OPS {
            black_box(queue.try_admit(tenant));
            queue.release(tenant, 1);
        }
    });

    let config = BatchFormerConfig {
        max_batch: 256,
        max_delay_s: 25e-3,
    };
    let pending = |i: usize| PendingQuery {
        arrival_s: i as f64 * 1e-4,
        stream_index: i,
        options,
    };
    let push_s = median_s(|| {
        let mut former = BatchFormer::new(config);
        for i in 0..OPS {
            black_box(former.push(pending(i), i as f64 * 1e-4));
        }
    });

    // One 32-query batch per submit, popped whole: one chunk per operation.
    let batches: Vec<_> = {
        let mut former = BatchFormer::new(BatchFormerConfig {
            max_batch: 32,
            max_delay_s: 1.0,
        });
        (0..OPS)
            .filter_map(|i| former.push(pending(i), 0.0))
            .collect()
    };
    let chunks = batches.len().max(1);
    let dispatch_s = median_s(|| {
        let mut chunk_queue = ChunkQueue::new(DispatchOrder::SloUrgency);
        for batch in &batches {
            chunk_queue.submit(batch.clone(), Some(0.7), 32);
            black_box(chunk_queue.pop_most_urgent());
        }
    });

    let n = queries.len();
    let mut cache = ResultCache::new(512);
    for i in 0..n.min(512) {
        cache.insert(queries.vector(i), &options, Vec::new(), 0.0);
    }
    let lookup_s = median_s(|| {
        for i in 0..OPS {
            black_box(cache.lookup(queries.vector(i % n), &options));
        }
    });
    let insert_s = median_s(|| {
        for i in 0..OPS {
            cache.insert(queries.vector(i % n), &options, Vec::new(), 0.0);
        }
    });

    ServeTimings {
        admit_release_ns: admit_s * 1e9 / OPS as f64,
        batcher_push_ns: push_s * 1e9 / OPS as f64,
        dispatch_submit_pop_ns: dispatch_s * 1e9 / chunks as f64,
        cache_lookup_ns: lookup_s * 1e9 / OPS as f64,
        cache_insert_ns: insert_s * 1e9 / OPS as f64,
    }
}

/// `MutableIvf` under the workload's own mutation stream.
pub struct MutationTimings {
    pub upsert_us: f64,
    pub delete_us: f64,
    pub snapshot_us: f64,
    pub compact_ms: f64,
    pub snapshot_search_us: f64,
}

pub fn mutation(index: &IvfPqIndex, events: &MutationStream, queries: &Dataset) -> MutationTimings {
    let mut live = MutableIvf::new(index);
    let (mut upsert_s, mut upserts) = (0.0, 0usize);
    let (mut delete_s, mut deletes) = (0.0, 0usize);
    for event in &events.events {
        match &event.op {
            MutationOp::Upsert { id, vector } => {
                upsert_s += clock::timed(|| live.upsert(vector, *id)).1;
                upserts += 1;
            }
            MutationOp::Delete { id } => {
                delete_s += clock::timed(|| black_box(live.delete(*id))).1;
                deletes += 1;
            }
        }
    }
    let snapshot_s = median_s(|| {
        for _ in 0..20 {
            black_box(live.snapshot());
        }
    });
    let snapshot = live.snapshot();
    let n = queries.len().min(200);
    let search_s = median_s(|| {
        for q in 0..n {
            black_box(snapshot.search(queries.vector(q), 8, 10));
        }
    });
    let (_, compact_s) = clock::timed(|| black_box(live.compact()));
    MutationTimings {
        upsert_us: upsert_s * 1e6 / upserts.max(1) as f64,
        delete_us: delete_s * 1e6 / deletes.max(1) as f64,
        snapshot_us: snapshot_s * 1e6 / 20.0,
        compact_ms: compact_s * 1e3,
        snapshot_search_us: search_s * 1e6 / n.max(1) as f64,
    }
}
