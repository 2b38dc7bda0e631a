//! Criterion microbenchmark of the ADC distance-calculation inner loop —
//! the operation that dominates billion-scale IVFPQ (Figure 1 / Figure 19).
//!
//! Measures the actual (host) throughput of the LUT scan over packed PQ codes
//! at several code lengths `m`, plus the co-occurrence-aware decode path.

use annkit::lut::LookupTable;
use annkit::pq::ProductQuantizer;
use annkit::synthetic::SyntheticSpec;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use upanns::cooccurrence::{mine_cluster_combos, MiningParams};
use upanns::encoding::CaeList;

fn bench_adc_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("adc_scan");
    group.sample_size(20);
    for &(m, dim) in &[(8usize, 64usize), (16, 128), (20, 100)] {
        let data = SyntheticSpec::sift_like(3_000)
            .with_clusters(8)
            .with_seed(1)
            .generate();
        // Reuse the SIFT-like generator but re-train PQ at the requested
        // (dim, m) by slicing/padding dimensions via a fresh dataset.
        let data = if dim == data.dim() {
            data
        } else {
            let mut ds = annkit::vector::Dataset::new(dim);
            for v in data.iter() {
                let row: Vec<f32> = (0..dim).map(|i| v[i % v.len()]).collect();
                ds.push(&row);
            }
            ds
        };
        let pq = ProductQuantizer::train(&data, m, 3);
        let codes: Vec<Vec<u8>> = (0..2_000).map(|i| pq.encode(data.vector(i))).collect();
        let packed = annkit::pq::pack_codes(&codes, m);
        let lut = LookupTable::build(&pq, data.vector(0));

        group.throughput(Throughput::Elements(2_000));
        group.bench_with_input(BenchmarkId::new("plain_lut_scan", m), &m, |b, _| {
            b.iter(|| std::hint::black_box(lut.adc_scan(&packed)));
        });

        let combos = mine_cluster_combos(&packed, m, &MiningParams::default());
        let cae = CaeList::encode(&packed, m, &combos);
        // The scan the DPU kernel runs: the encoded stream against the
        // unified LUT ++ combination-sum table.
        let unified = [lut.as_flat(), &combos.partial_sums(&lut)[..]].concat();
        let mut distances = Vec::new();
        group.bench_with_input(BenchmarkId::new("cae_scan", m), &m, |b, _| {
            b.iter(|| {
                cae.adc_scan_range(&unified, 0, cae.len(), &mut distances);
                std::hint::black_box(distances.last().copied())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_adc_scan);
criterion_main!(benches);
