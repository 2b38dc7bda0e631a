//! Asymmetric-distance lookup tables (LUTs) and ADC scans.
//!
//! Stage (b) of IVFPQ's online pipeline precomputes, for each sub-quantizer
//! `sub` and each codebook entry `code`, the squared distance between the
//! query's residual sub-vector and that centroid. Stage (c) then approximates
//! the query↔point distance by summing `m` table lookups — the Asymmetric
//! Distance Computation (ADC). The LUT is the central data structure the
//! UpANNS DPU kernel keeps in WRAM (8 KB at `m = 16` with `u16` entries).
//!
//! A list's codes rarely address the whole table: at about 8 vectors per
//! list, a sub-quantizer's codes touch a handful of its 256 centroids. Each
//! list therefore carries a *code-block mask* ([`mark_code_blocks`]): one
//! `u32` per sub-quantizer, bit `b` set when some code of the list may
//! address centroids `8b..8b + 8`. [`LookupTable::rebuild_masked`] computes
//! those blocks only; the dense build ([`LookupTable::rebuild`]) is the same
//! kernel with every bit set, and each entry either build writes is the same
//! bits. Debug builds fill the skipped blocks with NaN, so a read outside
//! the mask turns an answer-identity test red instead of reading a stale
//! entry.

use crate::pq::{ProductQuantizer, KSUB};
use crate::simd::{self, Backend, SCAN_LANES};

/// ORs into `mask` (one `u32` per sub-quantizer, `m = mask.len()`) the
/// block of every code byte of `packed_codes` (`n × m` bytes): bit `b` of
/// `mask[sub]` covers codes `8b..8b + 8` of sub-quantizer `sub`. The one
/// helper behind every list's mask — an inverted list ORs each pushed code
/// in, an encoded list computes its own from the codes it encodes.
///
/// # Panics
/// Panics if `mask` is empty or `packed_codes.len()` is not a multiple of
/// `mask.len()`.
pub fn mark_code_blocks(packed_codes: &[u8], mask: &mut [u32]) {
    let m = mask.len();
    assert!(m > 0, "a code-block mask has one word per sub-quantizer");
    assert!(
        packed_codes.len().is_multiple_of(m),
        "packed code buffer not a multiple of m"
    );
    for code in packed_codes.chunks_exact(m) {
        for (bits, &c) in mask.iter_mut().zip(code) {
            *bits |= 1 << (c as usize / SCAN_LANES);
        }
    }
}

/// A lookup table of `m * 256` partial distances for one (query, cluster)
/// pair. The default is the empty table of zero sub-quantizers, a starting
/// point for [`rebuild`](Self::rebuild).
#[derive(Debug, Clone, Default)]
pub struct LookupTable {
    m: usize,
    /// Row-major: entry `(sub, code)` is at `sub * KSUB + code`.
    table: Vec<f32>,
}

impl LookupTable {
    /// Builds the full LUT for a query residual (`query - centroid`) against
    /// the quantizer's codebooks.
    ///
    /// # Panics
    /// Panics if `residual.len() != pq.dim()`.
    pub fn build(pq: &ProductQuantizer, residual: &[f32]) -> Self {
        let mut lut = Self::default();
        lut.rebuild(pq, residual);
        lut
    }

    /// [`build`](Self::build) into this table's allocation: every block of
    /// [`rebuild_masked`](Self::rebuild_masked), for a list whose codes are
    /// not at hand (the PIM-naive kernel's plain payload, the reference
    /// search).
    ///
    /// # Panics
    /// Panics if `residual.len() != pq.dim()`.
    pub fn rebuild(&mut self, pq: &ProductQuantizer, residual: &[f32]) {
        self.table.resize(pq.m() * KSUB, 0.0);
        build_blocks(pq, residual, std::iter::repeat(u32::MAX), &mut self.table);
        self.m = pq.m();
    }

    /// Rebuilds only the entries a list with code-block mask `mask` (see
    /// [`mark_code_blocks`]) can read, into this table's allocation, for
    /// loops that build one LUT per (query, cluster) pair.
    ///
    /// Each residual sub-vector against the centroids of its sub-quantizer's
    /// set blocks, one centroid per SIMD lane over the quantizer's
    /// column-major codebooks (`simd::l2_squared_cols_blocks`): every built
    /// entry is bitwise one [`l2_squared`](crate::distance::l2_squared).
    /// Entries outside the mask hold whatever they held (NaN in debug
    /// builds) and must not be read.
    ///
    /// # Panics
    /// Panics if `residual.len() != pq.dim()` or `mask.len() != pq.m()`.
    pub fn rebuild_masked(&mut self, pq: &ProductQuantizer, residual: &[f32], mask: &[u32]) {
        self.table.resize(pq.m() * KSUB, 0.0);
        build_masked_into(pq, residual, mask, &mut self.table);
        self.m = pq.m();
    }

    /// Partial distance for `(sub, code)`.
    #[inline]
    pub fn get(&self, sub: usize, code: u8) -> f32 {
        self.table[sub * KSUB + code as usize]
    }

    /// Looks up a *direct address* `sub * 256 + code`, the flattened layout
    /// UpANNS's PIM-friendly encoding addresses to avoid multiplications on
    /// the DPU (§4.3).
    #[inline]
    pub fn get_flat(&self, flat_index: usize) -> f32 {
        self.table[flat_index]
    }

    /// ADC distance of a single PQ code: the sum of `m` table lookups.
    ///
    /// # Panics
    /// Panics if `code.len() != self.m()`.
    #[inline]
    pub fn adc_distance(&self, code: &[u8]) -> f32 {
        assert_eq!(code.len(), self.m, "ADC code length mismatch");
        let mut sum = 0.0f32;
        for (sub, &c) in code.iter().enumerate() {
            sum += self.table[sub * KSUB + c as usize];
        }
        sum
    }

    /// Scans a packed code buffer (`n` codes of `m` bytes each) and returns
    /// the ADC distance of every code. This is the memory-bound inner loop
    /// that dominates billion-scale IVFPQ (Figure 19).
    ///
    /// Runs the one cache-blocked scan, [`simd::adc_scan_blocked`] (8 records
    /// in flight), bitwise-equal to the naive record-major scan.
    ///
    /// # Panics
    /// Panics if `packed_codes.len()` is not a multiple of `m`.
    pub fn adc_scan(&self, packed_codes: &[u8]) -> Vec<f32> {
        let mut out = Vec::new();
        self.adc_scan_into(packed_codes, &mut out);
        out
    }

    /// Allocation-reusing form of [`adc_scan`](Self::adc_scan): clears `out`
    /// and appends one distance per code, letting tight loops (the PIM
    /// kernel's functional scan) reuse one buffer across chunks.
    #[inline]
    pub fn adc_scan_into(&self, packed_codes: &[u8], out: &mut Vec<f32>) {
        simd::adc_scan_blocked(&self.table, self.m, packed_codes, out);
    }

    /// Vestige: [`adc_scan_into`](Self::adc_scan_into); `_backend` is
    /// ignored. There is one scan since the AVX2 gather path was deleted for
    /// losing to it; this name survives only because the repo benchmark
    /// (`benchmark/src/micro.rs`, not editable alongside a code change)
    /// calls it. Drop it at the next benchmark revision.
    pub fn adc_scan_with(&self, _backend: Backend, packed_codes: &[u8], out: &mut Vec<f32>) {
        self.adc_scan_into(packed_codes, out);
    }

    /// The raw table (`m * 256` floats; after
    /// [`rebuild_masked`](Self::rebuild_masked), valid on the mask's blocks
    /// only).
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.table
    }
}

/// [`LookupTable::rebuild_masked`] into a caller's slice: its first
/// `m · 256` entries become the flat table (entry `(sub, code)` at
/// `sub · 256 + code`), valid on the mask's blocks only, and the entries
/// after them are left as they are, so a caller can keep more after the
/// table in the same region (the UpANNS kernel's combination partial sums).
///
/// # Panics
/// Panics if `residual.len() != pq.dim()`, `mask.len() != pq.m()` or
/// `table` is shorter than `m · 256`.
pub fn build_masked_into(pq: &ProductQuantizer, residual: &[f32], mask: &[u32], table: &mut [f32]) {
    assert_eq!(mask.len(), pq.m(), "one mask word per sub-quantizer");
    build_blocks(pq, residual, mask.iter().copied(), table);
}

fn build_blocks(
    pq: &ProductQuantizer,
    residual: &[f32],
    mask: impl Iterator<Item = u32>,
    table: &mut [f32],
) {
    assert_eq!(residual.len(), pq.dim(), "LUT residual dimension mismatch");
    let dsub = pq.dsub();
    let table = &mut table[..pq.m() * KSUB];
    for (((rv, centroids), row), blocks) in residual
        .chunks_exact(dsub)
        .zip(pq.codebooks_cols().chunks_exact(KSUB * dsub))
        .zip(table.chunks_exact_mut(KSUB))
        .zip(mask)
    {
        simd::l2_squared_cols_blocks(rv, centroids, blocks, row);
        #[cfg(debug_assertions)]
        for (b, block) in row.chunks_exact_mut(SCAN_LANES).enumerate() {
            if blocks & (1 << b) == 0 {
                block.fill(f32::NAN);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::l2_squared;
    use crate::vector::Dataset;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn setup(dim: usize, m: usize) -> (ProductQuantizer, Dataset) {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut ds = Dataset::new(dim);
        let mut v = vec![0.0f32; dim];
        for _ in 0..400 {
            for x in v.iter_mut() {
                *x = rng.gen_range(-1.0..1.0);
            }
            ds.push(&v);
        }
        (ProductQuantizer::train(&ds, m, 3), ds)
    }

    #[test]
    fn adc_equals_decoded_distance() {
        // The ADC distance via the LUT must equal the exact distance between
        // the residual and the decoded (reconstructed) code, because both sum
        // the same per-subspace squared distances.
        let (pq, ds) = setup(8, 4);
        let residual = ds.vector(3).to_vec();
        let lut = LookupTable::build(&pq, &residual);
        for i in 0..20 {
            let code = pq.encode(ds.vector(i));
            let adc = lut.adc_distance(&code);
            let exact = l2_squared(&residual, &pq.decode(&code));
            assert!(
                (adc - exact).abs() < 1e-3,
                "ADC {adc} vs exact {exact} at {i}"
            );
        }
    }

    #[test]
    fn scan_matches_individual_lookups() {
        let (pq, ds) = setup(8, 4);
        let lut = LookupTable::build(&pq, ds.vector(0));
        let codes: Vec<Vec<u8>> = (0..10).map(|i| pq.encode(ds.vector(i))).collect();
        let packed = crate::pq::pack_codes(&codes, 4);
        let scanned = lut.adc_scan(&packed);
        assert_eq!(scanned.len(), 10);
        for (i, code) in codes.iter().enumerate() {
            assert_eq!(scanned[i], lut.adc_distance(code));
        }
    }

    #[test]
    fn a_masked_build_into_a_longer_slice_writes_its_head_only() {
        let (pq, ds) = setup(8, 4);
        let mask = [0b1, 0b110, u32::MAX, 1 << 31];
        let mut lut = LookupTable::default();
        lut.rebuild_masked(&pq, ds.vector(2), &mask);
        let mut space = vec![-1.0f32; 4 * KSUB + 3];
        build_masked_into(&pq, ds.vector(2), &mask, &mut space);
        for (sub, &bits) in mask.iter().enumerate() {
            for b in (0..32).filter(|b| bits & (1 << b) != 0) {
                let block = sub * KSUB + b * SCAN_LANES..sub * KSUB + (b + 1) * SCAN_LANES;
                assert_eq!(space[block.clone()], lut.as_flat()[block]);
            }
        }
        assert_eq!(space[4 * KSUB..], [-1.0; 3]);
    }

    #[test]
    fn flat_addressing_matches_2d() {
        let (pq, ds) = setup(8, 4);
        let lut = LookupTable::build(&pq, ds.vector(1));
        for sub in 0..4usize {
            for code in [0u8, 17, 255] {
                assert_eq!(lut.get(sub, code), lut.get_flat(sub * 256 + code as usize));
            }
        }
    }

    #[test]
    fn zero_residual_gives_centroid_norms() {
        let (pq, _) = setup(8, 4);
        let zero = vec![0.0f32; 8];
        let lut = LookupTable::build(&pq, &zero);
        // Distance from zero to each centroid equals its squared norm.
        for sub in 0..4 {
            for code in [0u8, 100, 200] {
                let c = pq.centroid(sub, code);
                let norm: f32 = c.iter().map(|x| x * x).sum();
                assert!((lut.get(sub, code) - norm).abs() < 1e-4);
            }
        }
    }
}
