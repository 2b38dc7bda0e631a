//! Product quantization (PQ): codebook training, encoding and decoding.
//!
//! PQ splits a `dim`-dimensional vector into `m` sub-vectors of `dim/m`
//! components each and quantizes every sub-vector independently against a
//! 256-entry codebook, producing one byte per sub-vector. A 128-d float
//! vector (512 B) becomes a 16-byte code with `m = 16` — the 8× compression
//! quoted in the paper's §2.1 example (it quotes 64 B because it counts the
//! uint8 source representation of SIFT).

use crate::distance::{nearest_centroid, to_columns};
use crate::kmeans::{KMeans, KMeansParams};
use crate::par;
use crate::vector::Dataset;

/// Number of centroids per sub-quantizer. Fixed at 256 so codes fit in `u8`,
/// exactly as in Faiss's `IndexIVFPQ` default and the UpANNS paper.
pub const KSUB: usize = 256;

/// A PQ code: `m` bytes, one codebook index per sub-vector.
pub(crate) type PqCode = Vec<u8>;

/// A trained product quantizer.
#[derive(Debug, Clone)]
pub struct ProductQuantizer {
    dim: usize,
    m: usize,
    dsub: usize,
    /// Codebooks stored as `m` contiguous blocks of `KSUB * dsub` floats:
    /// `codebooks[sub][code]` is at `sub * KSUB * dsub + code * dsub`.
    codebooks: Vec<f32>,
    /// The same centroids column-major within each sub-quantizer:
    /// component `j` of `(sub, code)` is at `sub * KSUB * dsub + j * KSUB +
    /// code`. Built once with the quantizer; what LUT construction and
    /// encode read.
    codebooks_cols: Vec<f32>,
}

impl ProductQuantizer {
    /// Trains a product quantizer with `m` sub-quantizers on `data`.
    ///
    /// # Panics
    /// Panics if `data.dim() % m != 0`, if `m == 0`, or if `data` has fewer
    /// than `KSUB` points (each sub-quantizer needs at least 256 training
    /// sub-vectors).
    pub fn train(data: &Dataset, m: usize, seed: u64) -> Self {
        assert!(m > 0, "m must be positive");
        assert!(
            data.dim().is_multiple_of(m),
            "dimension {} not divisible by m {}",
            data.dim(),
            m
        );
        assert!(
            data.len() >= KSUB,
            "PQ training needs at least {KSUB} points, got {}",
            data.len()
        );
        let dim = data.dim();
        let dsub = dim / m;
        // The sub-quantizers share nothing (each has its own seed), so they
        // train side by side; concatenated in `sub` order the codebooks are
        // the serial loop's.
        let params = KMeansParams::new(KSUB).with_max_iterations(15);
        let trained = par::map_indexed(m, |sub| {
            KMeans::train(
                &data.subspace(m, sub),
                &params,
                seed.wrapping_add(sub as u64),
            )
        });
        let mut codebooks = Vec::with_capacity(m * KSUB * dsub);
        for km in &trained {
            codebooks.extend_from_slice(km.centroids_flat());
        }
        Self::from_codebooks(dim, m, codebooks)
    }

    /// Builds a quantizer from pre-existing codebooks (used by tests and by
    /// synthetic index construction).
    ///
    /// # Panics
    /// Panics if the codebook buffer does not contain exactly
    /// `m * KSUB * (dim/m)` floats.
    pub fn from_codebooks(dim: usize, m: usize, codebooks: Vec<f32>) -> Self {
        assert!(m > 0 && dim.is_multiple_of(m));
        let dsub = dim / m;
        assert_eq!(codebooks.len(), m * KSUB * dsub, "codebook size mismatch");
        let codebooks_cols = codebooks
            .chunks_exact(KSUB * dsub)
            .flat_map(|rows| to_columns(rows, dsub))
            .collect();
        Self {
            dim,
            m,
            dsub,
            codebooks,
            codebooks_cols,
        }
    }

    /// Original vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of sub-quantizers (bytes per code).
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Sub-vector dimensionality (`dim / m`).
    #[inline]
    pub fn dsub(&self) -> usize {
        self.dsub
    }

    /// The centroid for `(sub, code)`.
    #[inline]
    pub fn centroid(&self, sub: usize, code: u8) -> &[f32] {
        let start = sub * KSUB * self.dsub + code as usize * self.dsub;
        &self.codebooks[start..start + self.dsub]
    }

    /// The full flat codebook buffer (`m * 256 * dsub` floats). This is what
    /// gets staged into DPU WRAM during LUT construction (32 KB for SIFT:
    /// 128 dims × 256 entries × 1 B in the paper's uint8 accounting).
    #[inline]
    pub fn codebooks_flat(&self) -> &[f32] {
        &self.codebooks
    }

    /// The codebooks column-major within each sub-quantizer (`m` blocks of
    /// `dsub` columns of 256 floats): component `j` of `(sub, code)` is at
    /// `sub * 256 * dsub + j * 256 + code`. The layout of the column kernel,
    /// so a LUT row is built, and a sub-vector encoded, with one centroid per
    /// SIMD lane.
    #[inline]
    pub fn codebooks_cols(&self) -> &[f32] {
        &self.codebooks_cols
    }

    /// Encodes one vector into an `m`-byte PQ code.
    ///
    /// # Panics
    /// Panics if `v.len() != self.dim()`.
    pub fn encode(&self, v: &[f32]) -> PqCode {
        assert_eq!(v.len(), self.dim, "encode dimension mismatch");
        let mut distances = [0.0f32; KSUB];
        v.chunks_exact(self.dsub)
            .zip(self.codebooks_cols.chunks_exact(KSUB * self.dsub))
            .map(|(sv, cols)| nearest_centroid(sv, cols, &mut distances).0 as u8)
            .collect()
    }

    /// Decodes a code back to its reconstruction (the concatenation of the
    /// selected centroids).
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        assert_eq!(code.len(), self.m, "decode code length mismatch");
        let mut out = Vec::with_capacity(self.dim);
        for (sub, &c) in code.iter().enumerate() {
            out.extend_from_slice(self.centroid(sub, c));
        }
        out
    }
}

/// Packs a slice of PQ codes (each of length `m`) into one contiguous byte
/// buffer, the layout used for MRAM-resident inverted lists.
pub fn pack_codes(codes: &[PqCode], m: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(codes.len() * m);
    for c in codes {
        assert_eq!(c.len(), m, "code length mismatch while packing");
        out.extend_from_slice(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::l2_squared;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        let mut v = vec![0.0f32; dim];
        for _ in 0..n {
            for x in v.iter_mut() {
                *x = rng.gen_range(0.0..255.0);
            }
            ds.push(&v);
        }
        ds
    }

    #[test]
    fn encode_decode_reduces_error_vs_random_code() {
        let ds = random_dataset(600, 16, 1);
        let pq = ProductQuantizer::train(&ds, 4, 7);
        assert_eq!(pq.m(), 4);
        assert_eq!(pq.dsub(), 4);

        let v = ds.vector(5);
        let code = pq.encode(v);
        assert_eq!(code.len(), 4);
        let rec = pq.decode(&code);
        let err = l2_squared(v, &rec);

        // A deliberately wrong code should reconstruct worse on average.
        let wrong = vec![(code[0].wrapping_add(97)), 3, 200, 150];
        let wrong_rec = pq.decode(&wrong);
        let wrong_err = l2_squared(v, &wrong_rec);
        assert!(err <= wrong_err, "{err} vs {wrong_err}");
    }

    #[test]
    fn encode_is_nearest_centroid_per_subspace() {
        let ds = random_dataset(400, 8, 3);
        let pq = ProductQuantizer::train(&ds, 2, 11);
        let v = ds.vector(0);
        let code = pq.encode(v);
        for sub in 0..2 {
            let sv = &v[sub * 4..(sub + 1) * 4];
            let chosen = pq.centroid(sub, code[sub]);
            let chosen_d = l2_squared(sv, chosen);
            // No other centroid in this subspace may be strictly closer.
            for c in 0..=255u8 {
                let d = l2_squared(sv, pq.centroid(sub, c));
                assert!(d >= chosen_d - 1e-3);
            }
        }
    }

    #[test]
    fn reconstruction_mse_is_finite_and_smallish() {
        let ds = random_dataset(512, 16, 5);
        let pq = ProductQuantizer::train(&ds, 8, 5);
        let total: f64 = ds
            .iter()
            .map(|v| l2_squared(v, &pq.decode(&pq.encode(v))) as f64)
            .sum();
        let mse = (total / ds.len() as f64) as f32;
        assert!(mse.is_finite());
        // Uniform data in [0,255): per-dimension variance ≈ 5400; PQ with 256
        // centroids per 2-d subspace should do far better than no quantization
        // at all (variance * dim).
        assert!(mse < 5400.0 * 16.0);
    }

    #[test]
    fn pack_codes_concatenates() {
        let codes = vec![vec![1u8, 2], vec![3, 4], vec![5, 6]];
        assert_eq!(pack_codes(&codes, 2), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_indivisible_dim() {
        let ds = random_dataset(300, 10, 0);
        let _ = ProductQuantizer::train(&ds, 3, 0);
    }

    #[test]
    fn from_codebooks_roundtrip() {
        // dim=2, m=2, dsub=1: codebook entry value equals its index.
        let mut cb = vec![0.0f32; 2 * KSUB];
        for sub in 0..2 {
            for code in 0..KSUB {
                cb[sub * KSUB + code] = code as f32;
            }
        }
        let pq = ProductQuantizer::from_codebooks(2, 2, cb);
        let code = pq.encode(&[42.3, 17.8]);
        assert_eq!(code, vec![42, 18]);
        assert_eq!(pq.decode(&code), vec![42.0, 18.0]);
    }
}
