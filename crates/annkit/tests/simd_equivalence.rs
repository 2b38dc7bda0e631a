//! Property proofs that every kernel fast path is *bitwise* equivalent to
//! its scalar reference — the contract that keeps search answers (and
//! therefore the replay twin and every committed bench record) identical
//! across machines with and without AVX2.
//!
//! The column-distance (dense, block-masked and followed by the nearest-row
//! argmin) and top-k tests exercise
//! both `Backend::Scalar` and the runtime-detected backend through the
//! explicit `*_with` entry points, so on AVX2 hardware the AVX2 compilation
//! is proven against the plain one in one process, and on non-AVX2 hardware
//! they degenerate to scalar-vs-scalar. The pair distance
//! (`simd::l2_squared_scalar`) has one implementation and is the oracle.
//! The ADC scan has one implementation (cache-blocked scalar), proven against
//! the naive record-major reference. CI
//! additionally re-runs the whole test suite under `UPANNS_FORCE_SCALAR=1`
//! so the dispatcher's fallback path is exercised end to end.

use annkit::lut::LookupTable;
use annkit::pq::ProductQuantizer;
use annkit::simd::{self, Backend};
use annkit::topk::{Neighbor, TopK};
use annkit::vector::Dataset;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn backends() -> [Backend; 2] {
    [Backend::Scalar, simd::detect()]
}

/// The quantizer's column-major codebooks hold, at
/// `sub * 256 * dsub + j * 256 + code`, component `j` of `centroid(sub, code)`.
fn assert_cols_are_the_transposed_rows(pq: &ProductQuantizer) {
    let dsub = pq.dsub();
    let cols = pq.codebooks_cols();
    assert_eq!(cols.len(), pq.codebooks_flat().len());
    for sub in 0..pq.m() {
        for code in 0..=255u8 {
            for (j, x) in pq.centroid(sub, code).iter().enumerate() {
                let col = cols[sub * 256 * dsub + j * 256 + code as usize];
                assert_eq!(
                    col.to_bits(),
                    x.to_bits(),
                    "sub {sub} code {code} component {j}"
                );
            }
        }
    }
}

/// `to_columns` of a row-major table, checked entry by entry against the
/// layout it promises: component `j` of row `r` at `j * rows + r`.
fn transposed(table: &[f32], dim: usize) -> Vec<f32> {
    let cols = annkit::distance::to_columns(table, dim);
    let rows = table.len() / dim;
    assert_eq!(cols.len(), table.len());
    for (r, row) in table.chunks_exact(dim).enumerate() {
        for (j, x) in row.iter().enumerate() {
            assert_eq!(
                cols[j * rows + r].to_bits(),
                x.to_bits(),
                "row {r} component {j}"
            );
        }
    }
    cols
}

/// What `nearest_centroids` replaced: one distance per centroid, a full sort
/// under `Neighbor`'s total order, the first `n` kept.
fn full_sort_oracle(v: &[f32], centroids: &[f32], dim: usize, n: usize) -> Vec<(usize, f32)> {
    let mut all: Vec<(usize, f32)> = centroids
        .chunks_exact(dim)
        .enumerate()
        .map(|(i, c)| (i, annkit::distance::l2_squared(v, c)))
        .collect();
    all.sort_by(|a, b| Neighbor::new(a.0 as u64, a.1).cmp(&Neighbor::new(b.0 as u64, b.1)));
    all.truncate(n);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ADC scan: the blocked scan reproduces the naive record-major scan
    /// bit for bit, including record counts that leave 1..7-lane tails.
    #[test]
    fn adc_scan_bitwise_equal(
        m in 1usize..24,
        n in 0usize..40,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let table: Vec<f32> = (0..m * 256).map(|_| rng.gen_range(0.0f32..50.0)).collect();
        let packed: Vec<u8> = (0..m * n).map(|_| rng.gen_range(0u8..=255)).collect();
        let mut reference = Vec::new();
        simd::adc_scan_reference(&table, m, &packed, &mut reference);
        let mut got = Vec::new();
        simd::adc_scan_blocked(&table, m, &packed, &mut got);
        prop_assert_eq!(got.len(), reference.len());
        for (g, r) in got.iter().zip(&reference) {
            prop_assert_eq!(g.to_bits(), r.to_bits());
        }
    }

    /// Column kernel: on every backend, each of `rows` distances over the
    /// column-major table is the scalar reference's bits on that row — widths
    /// off the 4-accumulator boundary, row counts off the 8-lane block, and
    /// NaN / ±inf / −0.0 components. Infinities go in the table only:
    /// `inf − inf` in a lane that also holds an input NaN would put two NaN
    /// payloads into one sum, and which of them an add keeps is the
    /// compiler's operand order, not the reduction tree.
    #[test]
    fn column_distances_bitwise_equal(
        dim in 1usize..=40,
        rows in 1usize..=300,
        special_stride in 3usize..50,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut query: Vec<f32> = (0..dim).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
        let mut table: Vec<f32> = (0..dim * rows).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
        let specials = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        for (pick, i) in (0..table.len()).step_by(special_stride).enumerate() {
            table[i] = specials[pick % specials.len()];
        }
        for (pick, i) in (0..dim).step_by(special_stride).enumerate() {
            query[i] = [-0.0, f32::NAN][pick % 2];
        }
        let mut cols = vec![0.0f32; table.len()];
        for (r, row) in table.chunks_exact(dim).enumerate() {
            for (j, &x) in row.iter().enumerate() {
                cols[j * rows + r] = x;
            }
        }
        for backend in backends() {
            let mut out = vec![0.5f32; rows];
            simd::l2_squared_cols_with(backend, &query, &cols, &mut out);
            for (got, row) in out.iter().zip(table.chunks_exact(dim)) {
                prop_assert_eq!(got.to_bits(), simd::l2_squared_scalar(&query, row).to_bits());
            }
        }
    }

    /// Masked column kernel: on every backend, the rows of each set
    /// 8-row block are the dense kernel's bits, and every row of a clear
    /// block is left untouched — masks of no block, every block and random
    /// ones, over widths off the 4-accumulator boundary.
    #[test]
    fn masked_column_kernel_equals_dense_on_set_blocks(
        dim in 1usize..=40,
        mask_pick in 0usize..4,
        random_mask in 0u32..=u32::MAX,
        seed in 0u64..1_000_000,
    ) {
        let rows = simd::MASK_ROWS;
        let mut rng = SmallRng::seed_from_u64(seed);
        let query: Vec<f32> = (0..dim).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
        let cols: Vec<f32> = (0..dim * rows).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
        let mask = [0, u32::MAX, random_mask, random_mask][mask_pick];
        for backend in backends() {
            let mut dense = vec![0.0f32; rows];
            simd::l2_squared_cols_with(backend, &query, &cols, &mut dense);
            let stale = 0.25f32;
            let mut masked = vec![stale; rows];
            simd::l2_squared_cols_blocks_with(backend, &query, &cols, mask, &mut masked);
            for (r, (m, d)) in masked.iter().zip(&dense).enumerate() {
                let set = mask & (1 << (r / simd::SCAN_LANES)) != 0;
                let want = if set { d.to_bits() } else { stale.to_bits() };
                prop_assert_eq!(m.to_bits(), want, "{:?} row {} mask {:#x}", backend, r, mask);
            }
        }
    }

    /// Masked LUT build: `rebuild_masked` equals the dense `build` bit for
    /// bit on every block its mask sets, on masks of no block, every block
    /// and random ones per sub-quantizer — and in debug builds the blocks it
    /// skipped read NaN, so a read outside the mask cannot pass for a value.
    #[test]
    fn masked_lut_equals_the_dense_lut_on_set_blocks(
        dsub_pick in 0usize..5,
        m in 1usize..5,
        mask_pick in 0usize..3,
        random_masks in prop::collection::vec(0u32..=u32::MAX, 4),
        seed in 0u64..1_000_000,
    ) {
        let dsub = [1usize, 3, 4, 8, 12][dsub_pick];
        let mut rng = SmallRng::seed_from_u64(seed);
        let codebooks: Vec<f32> =
            (0..m * 256 * dsub).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
        let pq = ProductQuantizer::from_codebooks(m * dsub, m, codebooks);
        let residual: Vec<f32> = (0..m * dsub).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
        let masks: Vec<u32> = match mask_pick {
            0 => vec![0; m],
            1 => vec![u32::MAX; m],
            _ => random_masks[..m].to_vec(),
        };
        let dense = LookupTable::build(&pq, &residual);
        // Built first over another residual, so a skipped block holds stale
        // entries in release builds.
        let mut masked = LookupTable::build(&pq, &vec![1.0; m * dsub]);
        masked.rebuild_masked(&pq, &residual, &masks);
        for (sub, &bits) in masks.iter().enumerate() {
            for code in 0..=255u8 {
                let got = masked.get(sub, code);
                if bits & (1 << (code / 8)) != 0 {
                    prop_assert_eq!(got.to_bits(), dense.get(sub, code).to_bits());
                } else if cfg!(debug_assertions) {
                    prop_assert!(got.is_nan(), "sub {} code {} skipped but {}", sub, code, got);
                }
            }
        }
    }

    /// `nearest_centroids` (one column-kernel call over the column-major
    /// twin, select the `n` best, sort those) is element for element the
    /// full sort's prefix in ids and distance bits: centroid counts off the
    /// 32-row block width, duplicated centroids (distance ties broken by
    /// index), NaN-poisoned centroids (last) with the NaN in the first or a
    /// middle component, and `n` = 0, 1, in between, at and past the
    /// centroid count. The twin is `to_columns` of the row-major table.
    #[test]
    fn nearest_centroids_equals_the_full_sort(
        dim_pick in 0usize..5,
        rows in 1usize..200,
        n_pick in 0usize..6,
        nan_stride in 2usize..60,
        nan_middle in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let dim = [1usize, 3, 8, 13, 128][dim_pick];
        let mut rng = SmallRng::seed_from_u64(seed);
        let query: Vec<f32> = (0..dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let mut table: Vec<f32> = (0..dim * rows).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        for r in (2..rows).step_by(3) {
            let source = rng.gen_range(0..r);
            table.copy_within(source * dim..(source + 1) * dim, r * dim);
        }
        let poisoned = if nan_middle { dim / 2 } else { 0 };
        for r in (1..rows).step_by(nan_stride) {
            table[r * dim + poisoned] = f32::NAN;
        }
        let cols = transposed(&table, dim);
        let n = [0, 1, rows / 2, rows.saturating_sub(1), rows, rows + 7][n_pick];
        let got = annkit::distance::nearest_centroids(&query, &cols, rows, n);
        let want = full_sort_oracle(&query, &table, dim, n);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.0, w.0);
            prop_assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
    }

    /// `nearest_centroid` (one column-kernel call over the column-major twin)
    /// returns the index and the distance bits of the loop it replaced — one
    /// `l2_squared` per centroid, first minimum wins — with row counts that
    /// run the 32-row blocks, the 1-row tail and a PQ codebook's 256,
    /// duplicated rows (ties) and a NaN row (never selected, never hiding a
    /// later finite row).
    #[test]
    fn nearest_centroid_equals_the_per_pair_loop(
        dim_pick in 0usize..6,
        rows in 1usize..=300,
        nan_row in 0usize..400,
        seed in 0u64..1_000_000,
    ) {
        let dim = [1usize, 2, 7, 8, 12, 128][dim_pick];
        let mut rng = SmallRng::seed_from_u64(seed);
        let query: Vec<f32> = (0..dim).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        let mut table: Vec<f32> = (0..dim * rows).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        // Every third row repeats an earlier one; `nan_row` (when in range)
        // is poisoned.
        for r in (2..rows).step_by(3) {
            let source = rng.gen_range(0..r);
            table.copy_within(source * dim..(source + 1) * dim, r * dim);
        }
        if nan_row < rows {
            table[nan_row * dim] = f32::NAN;
        }
        let mut want = (0usize, f32::INFINITY);
        for (i, row) in table.chunks_exact(dim).enumerate() {
            let d = annkit::distance::l2_squared(&query, row);
            if d < want.1 {
                want = (i, d);
            }
        }
        let mut distances = vec![0.0f32; rows];
        let got =
            annkit::distance::nearest_centroid(&query, &transposed(&table, dim), &mut distances);
        prop_assert_eq!(got.0, want.0);
        prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
    }

    /// The lane-wise argmin after the column kernel, on both backends and
    /// through `nearest_centroid`, returns the serial first-minimum scan's
    /// index and distance bits, and leaves every row's distance in the
    /// scratch: 1–600 rows, so tails fall off the 8-lane grid; components
    /// from a few integers, so distances tie heavily; NaN and +∞ rows among
    /// them (`mode` 0), every row NaN (1), every row +∞ (2), or none (3).
    #[test]
    fn nearest_centroid_argmin_equals_the_serial_scan(
        dim_pick in 0usize..4,
        rows in 1usize..=600,
        levels in 1u32..5,
        mode in 0usize..4,
        special_stride in 2usize..40,
        seed in 0u64..1_000_000,
    ) {
        let dim = [1usize, 2, 8, 13][dim_pick];
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut level = || rng.gen_range(0..levels) as f32;
        let query: Vec<f32> = (0..dim).map(|_| level()).collect();
        let mut table: Vec<f32> = (0..dim * rows).map(|_| level()).collect();
        for (r, row) in table.chunks_exact_mut(dim).enumerate() {
            let special = match mode {
                0 if r % special_stride == 0 => [f32::NAN, f32::INFINITY][r / special_stride % 2],
                1 => f32::NAN,
                2 => f32::INFINITY,
                _ => continue,
            };
            row[r % dim] = special;
        }
        let serial: Vec<f32> = table
            .chunks_exact(dim)
            .map(|row| simd::l2_squared_scalar(&query, row))
            .collect();
        let mut want = (0usize, f32::INFINITY);
        for (i, &d) in serial.iter().enumerate() {
            if d < want.1 {
                want = (i, d);
            }
        }
        let cols = transposed(&table, dim);
        for backend in backends() {
            let mut out = vec![0.5f32; rows];
            let got = simd::l2_squared_cols_argmin_with(backend, &query, &cols, &mut out);
            prop_assert_eq!(got.0, want.0, "{:?}", backend);
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits(), "{:?}", backend);
            for (o, d) in out.iter().zip(&serial) {
                prop_assert_eq!(o.to_bits(), d.to_bits());
            }
        }
        let got = annkit::distance::nearest_centroid(&query, &cols, &mut vec![0.0; rows]);
        prop_assert_eq!(got.0, want.0);
        prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
    }

    /// LUT build: the column-kernel build (one residual sub-vector against
    /// the 256 centroids of its sub-quantizer, a centroid per lane) equals
    /// one `l2_squared_scalar` per entry bit for bit, across
    /// sub-vector widths below, at and above the 4- and 8-lane boundaries —
    /// and the column twin it reads is the transposed row codebooks.
    #[test]
    fn lut_build_equals_per_entry_distance(
        dsub_pick in 0usize..8,
        m in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let dsub = [1usize, 2, 3, 4, 8, 12, 16, 32][dsub_pick];
        let mut rng = SmallRng::seed_from_u64(seed);
        let codebooks: Vec<f32> =
            (0..m * 256 * dsub).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
        let pq = ProductQuantizer::from_codebooks(m * dsub, m, codebooks);
        assert_cols_are_the_transposed_rows(&pq);
        let residual: Vec<f32> = (0..m * dsub).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
        let lut = LookupTable::build(&pq, &residual);
        let mut rebuilt = LookupTable::build(&pq, &vec![0.0; m * dsub]);
        rebuilt.rebuild(&pq, &residual);
        for sub in 0..m {
            let rv = &residual[sub * dsub..(sub + 1) * dsub];
            for code in 0..=255u8 {
                let want = simd::l2_squared_scalar(rv, pq.centroid(sub, code)).to_bits();
                prop_assert_eq!(lut.get(sub, code).to_bits(), want);
                prop_assert_eq!(rebuilt.get(sub, code).to_bits(), want);
            }
        }
    }

    /// push_batch: same final heap (ids and bitwise distances) and the same
    /// offered/accepted counters as sequential push, on every backend,
    /// with NaNs injected to stress the filter's ordering semantics.
    #[test]
    fn push_batch_equals_sequential_push(
        k in 1usize..20,
        distances in prop::collection::vec(-1000.0f32..1000.0, 0..120),
        nan_stride in 2usize..30,
        base_id in 0u64..1_000_000,
    ) {
        let mut distances = distances;
        for i in (0..distances.len()).step_by(nan_stride) {
            // Deterministically poison a subset with NaN.
            if i % (nan_stride * 3) == 0 {
                distances[i] = f32::NAN;
            }
        }
        let mut reference = TopK::new(k);
        for (j, &d) in distances.iter().enumerate() {
            reference.push(base_id + j as u64, d);
        }
        for backend in backends() {
            let mut batched = TopK::new(k);
            batched.push_batch_with(backend, base_id, &distances);
            prop_assert_eq!(batched.offered(), reference.offered());
            prop_assert_eq!(batched.accepted(), reference.accepted());
            let got = batched.into_sorted();
            let want = reference.sorted();
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.id, w.id);
                prop_assert_eq!(g.distance.to_bits(), w.distance.to_bits());
            }
        }
    }
}

/// End-to-end: a LookupTable built from a real trained PQ scans to the same
/// bits through `adc_scan`, `adc_scan_into` and the benchmark-pinned
/// `adc_scan_with` under either backend argument (which it ignores), and
/// `UPANNS_FORCE_SCALAR` still pins the dispatcher the two remaining
/// vectorized kernels consult.
#[test]
fn trained_lut_scan_ignores_the_backend() {
    let mut rng = SmallRng::seed_from_u64(77);
    let dim = 16;
    let mut ds = Dataset::new(dim);
    let mut v = vec![0.0f32; dim];
    for _ in 0..500 {
        for x in v.iter_mut() {
            *x = rng.gen_range(-1.0..1.0);
        }
        ds.push(&v);
    }
    let pq = ProductQuantizer::train(&ds, 8, 5);
    assert_cols_are_the_transposed_rows(&pq);
    let lut = LookupTable::build(&pq, ds.vector(1));
    let codes: Vec<Vec<u8>> = (0..37).map(|i| pq.encode(ds.vector(i))).collect();
    let packed = annkit::pq::pack_codes(&codes, 8);

    let mut into = Vec::new();
    lut.adc_scan_into(&packed, &mut into);
    assert_eq!(into.len(), 37);
    let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&lut.adc_scan(&packed)), bits(&into));
    for backend in backends() {
        let mut out = Vec::new();
        lut.adc_scan_with(backend, &packed, &mut out);
        assert_eq!(bits(&out), bits(&into), "{backend:?}");
    }

    if std::env::var_os("UPANNS_FORCE_SCALAR").is_some_and(|s| s != "0") {
        assert_eq!(
            simd::active(),
            Backend::Scalar,
            "UPANNS_FORCE_SCALAR must pin the dispatcher to the fallback"
        );
    }
}

/// `nearest_centroids` over no centroids at all: nothing to return for any
/// `n`, and `n - 1` is never computed.
#[test]
fn nearest_centroids_of_an_empty_buffer_is_empty() {
    for n in [0, 1, 8] {
        assert!(annkit::distance::nearest_centroids(&[1.0, 2.0], &[], 0, n).is_empty());
    }
}
