//! Criterion microbenchmark of the PIM simulator itself: MRAM cost-model
//! evaluation, DMA-charged tasklet reads and a full parallel-region launch.
//! These quantify the *simulation* overhead per modeled unit of work, which
//! bounds how large an experiment the harness can run.

use annkit::ivf::{IvfPqIndex, IvfPqParams};
use annkit::synthetic::SyntheticSpec;
use annkit::vector::residual;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pim_sim::config::PimConfig;
use pim_sim::cost::CostModel;
use pim_sim::host::PimSystem;
use std::collections::HashMap;
use upanns::config::UpAnnsConfig;
use upanns::kernel::{
    mailbox_slot_bytes, run_batch_kernel, ClusterReplica, DpuBatchPlan, DpuStore, KernelShared,
    ListEncoding,
};
use upanns::scheduling::Assignment;

fn bench_cost_model(c: &mut Criterion) {
    let cm = CostModel::default();
    let mut group = c.benchmark_group("cost_model");
    group.throughput(Throughput::Elements(2048));
    group.bench_function("mram_transfer_cycles_sweep", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for bytes in (8..=2048).step_by(8) {
                total += cm.mram_transfer_cycles(bytes);
            }
            std::hint::black_box(total)
        });
    });
    group.bench_function("region_compute_cycles", |b| {
        let per_tasklet: Vec<u64> = (0..24).map(|i| 1_000 + i * 37).collect();
        b.iter(|| std::hint::black_box(cm.region_compute_cycles(&per_tasklet)));
    });
    group.finish();
}

fn bench_kernel_launch(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_launch");
    group.sample_size(20);
    for &dpus in &[16usize, 128] {
        let mut sys = PimSystem::new(PimConfig::with_dpus(dpus).scaled_to(dpus));
        let mut addrs = Vec::new();
        for d in 0..dpus {
            let addr = sys.mram_alloc(d, 64 * 1024).unwrap();
            sys.dpu_mut(d)
                .mram_mut()
                .write(addr, &vec![7u8; 64 * 1024])
                .unwrap();
            addrs.push(addr);
        }
        group.throughput(Throughput::Elements(dpus as u64));
        group.bench_with_input(BenchmarkId::from_parameter(dpus), &dpus, |b, &dpus| {
            b.iter(|| {
                let report = sys.execute("bench", |ctx| {
                    let addr = addrs[ctx.dpu_id()];
                    ctx.parallel("scan", 11, |t| {
                        for chunk in 0..16usize {
                            let _ = t.mram_read(addr + chunk * 256, 256);
                            t.charge_arith(256, 0);
                        }
                    });
                });
                std::hint::black_box((report.max_dpu_seconds, dpus))
            });
        });
    }
    group.finish();
}

/// The full batch kernel (LUT build, functional ADC scan, pruned merge,
/// mailbox write) on one DPU, with the host-side top-k pre-filter pinned to
/// either the best detected SIMD backend or the portable scalar fallback
/// (the ADC scan has one implementation). The modeled DPU cost is identical
/// for both — this measures harness wall-clock, i.e. how much simulation
/// throughput the vectorized pre-filter buys.
fn bench_adc_kernel(c: &mut Criterion) {
    let data = SyntheticSpec::sift_like(2_000)
        .with_clusters(8)
        .with_seed(5)
        .generate();
    let index = IvfPqIndex::train(&data, &IvfPqParams::new(8, 16).with_train_size(700), 3);
    let k = 10;

    let mut sys = PimSystem::new(PimConfig::with_dpus(1));
    let mut store = DpuStore::default();
    let codebook = vec![1u8; index.dim() * 256];
    store.codebook_addr = sys.mram_alloc(0, codebook.len()).unwrap();
    store.codebook_bytes = codebook.len();
    sys.dpu_mut(0)
        .mram_mut()
        .write(store.codebook_addr, &codebook)
        .unwrap();
    for cl in 0..index.nlist() {
        let list = index.list(cl);
        if list.is_empty() {
            continue;
        }
        let mut ids_bytes = Vec::with_capacity(list.len() * 8);
        for &id in list.ids() {
            ids_bytes.extend_from_slice(&id.to_le_bytes());
        }
        let ids_addr = sys.mram_alloc(0, ids_bytes.len()).unwrap();
        sys.dpu_mut(0).mram_mut().write(ids_addr, &ids_bytes).unwrap();
        let codes = list.packed_codes().to_vec();
        let codes_addr = sys.mram_alloc(0, codes.len()).unwrap();
        sys.dpu_mut(0).mram_mut().write(codes_addr, &codes).unwrap();
        store.replicas.insert(
            cl,
            ClusterReplica {
                cluster: cl,
                num_vectors: list.len(),
                ids_addr,
                codes_addr,
                codes_bytes: codes.len(),
                encoding: ListEncoding::PlainU8,
            },
        );
    }
    store.query_buffer_bytes = 4096;
    store.query_buffer_addr = sys.mram_alloc(0, store.query_buffer_bytes).unwrap();
    store.mailbox_bytes = 8 * mailbox_slot_bytes(k);
    store.mailbox_addr = sys.mram_alloc(0, store.mailbox_bytes).unwrap();

    let mut plan = DpuBatchPlan::default();
    for (qi, &row) in [3usize, 500, 1200].iter().enumerate() {
        let q = data.vector(row);
        for (cl, _) in index.filter_clusters(q, 8) {
            plan.assignments.push(Assignment { query: qi, cluster: cl });
            plan.residuals.push(residual(q, index.coarse().centroid(cl)));
        }
        plan.queries.push(qi);
    }
    let config = UpAnnsConfig::pim_naive();
    let combos = HashMap::new();

    let mut group = c.benchmark_group("pim_kernel");
    group.sample_size(10);
    group.throughput(Throughput::Elements(plan.assignments.len() as u64));
    for (variant, backend) in [
        ("simd", annkit::simd::detect()),
        ("scalar", annkit::simd::Backend::Scalar),
    ] {
        let shared = KernelShared {
            pq: index.pq(),
            combos: &combos,
            config: &config,
            k,
            scan_backend: backend,
        };
        group.bench_with_input(BenchmarkId::new("adc_kernel", variant), &(), |b, ()| {
            b.iter(|| {
                let mut written = 0usize;
                sys.execute("bench_search", |ctx| {
                    written = run_batch_kernel(ctx, &store, &plan, &shared).mailbox_bytes_written;
                });
                std::hint::black_box(written)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cost_model, bench_kernel_launch, bench_adc_kernel);
criterion_main!(benches);
