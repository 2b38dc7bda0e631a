//! Lloyd's k-means with k-means++ initialization.
//!
//! Both the IVF coarse quantizer (|C| clusters over raw vectors) and each PQ
//! sub-quantizer (256 centroids over sub-vectors) are trained with this
//! implementation, mirroring Faiss's `Clustering` object.

use crate::distance::{l2_squared, nearest_centroid, to_columns_into};
use crate::par;
use crate::vector::Dataset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters controlling k-means training.
#[derive(Debug, Clone)]
pub(crate) struct KMeansParams {
    /// Number of centroids to produce.
    pub k: usize,
    /// Maximum number of Lloyd iterations.
    pub max_iterations: usize,
    /// Relative improvement in mean squared error below which training stops
    /// early.
    pub tolerance: f32,
    /// Optional cap on the number of training points (points are sampled
    /// uniformly when the dataset is larger), matching Faiss's
    /// `max_points_per_centroid` behaviour for billion-scale training.
    pub max_training_points: Option<usize>,
}

impl KMeansParams {
    /// Reasonable defaults for `k` centroids: 25 iterations, 1e-4 tolerance,
    /// at most 256 training points per centroid.
    pub(crate) fn new(k: usize) -> Self {
        Self {
            k,
            max_iterations: 25,
            tolerance: 1e-4,
            max_training_points: Some(k.saturating_mul(256)),
        }
    }

    /// Overrides the iteration cap.
    pub(crate) fn with_max_iterations(mut self, it: usize) -> Self {
        self.max_iterations = it;
        self
    }
}

/// A trained k-means model: `k` centroids of dimension `dim`, stored flat.
#[derive(Debug, Clone)]
pub struct KMeans {
    dim: usize,
    centroids: Vec<f32>,
    /// The same centroids column-major
    /// ([`to_columns`](crate::distance::to_columns)): what assignment and
    /// cluster filtering read.
    cols: Vec<f32>,
    /// Mean squared distance of training points to their centroid at the end
    /// of training (a quality indicator surfaced for diagnostics).
    pub final_mse: f32,
    /// Number of Lloyd iterations actually executed.
    pub iterations_run: usize,
}

impl KMeans {
    /// Trains k-means on `data` with the given parameters and RNG seed.
    ///
    /// # Panics
    /// Panics if `data` holds fewer points than `params.k` or `k == 0`.
    pub(crate) fn train(data: &Dataset, params: &KMeansParams, seed: u64) -> Self {
        assert!(params.k > 0, "k must be positive");
        assert!(
            data.len() >= params.k,
            "need at least k={} training points, got {}",
            params.k,
            data.len()
        );
        let mut rng = SmallRng::seed_from_u64(seed);

        // Optional subsampling of the training set.
        let sampled;
        let train: &Dataset = match params.max_training_points {
            Some(cap) if data.len() > cap && cap >= params.k => {
                let idx = sample_indices(data.len(), cap, &mut rng);
                sampled = data.gather(&idx);
                &sampled
            }
            _ => data,
        };

        let dim = train.dim();
        let mut centroids = kmeanspp_init(train, params.k, &mut rng);
        let mut cols = vec![0.0f32; centroids.len()];
        let mut sums = vec![0.0f64; params.k * dim];
        let mut counts = vec![0usize; params.k];
        let mut prev_mse = f32::INFINITY;
        let mut mse = f32::INFINITY;
        let mut iterations_run = 0;

        for _iter in 0..params.max_iterations {
            iterations_run += 1;
            // Assignment step, over this iteration's column-major twin: a
            // `k × dim` copy against the step's `n × k × dim` distances. Rows
            // are independent, so they go out in blocks (serially inside a
            // PQ sub-quantizer's worker); the error is summed in row order.
            to_columns_into(&centroids, dim, &mut cols);
            let nearest = par::map_rows(
                train.len(),
                || vec![0.0f32; params.k],
                |distances, i| nearest_centroid(train.vector(i), &cols, distances),
            );
            let total = nearest.iter().fold(0.0f64, |t, &(_, d)| t + d as f64);
            mse = (total / train.len() as f64) as f32;

            // Update step.
            sums.fill(0.0);
            counts.fill(0);
            for (v, &(c, _)) in train.iter().zip(&nearest) {
                counts[c] += 1;
                for (s, x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(v) {
                    *s += *x as f64;
                }
            }
            for c in 0..params.k {
                if counts[c] == 0 {
                    // Re-seed an empty centroid with a random training point
                    // (the standard fix for dead centroids).
                    let r = rng.gen_range(0..train.len());
                    centroids[c * dim..(c + 1) * dim].copy_from_slice(train.vector(r));
                } else {
                    for (j, s) in sums[c * dim..(c + 1) * dim].iter().enumerate() {
                        centroids[c * dim + j] = (*s / counts[c] as f64) as f32;
                    }
                }
            }

            if prev_mse.is_finite() && (prev_mse - mse).abs() <= params.tolerance * prev_mse.abs() {
                break;
            }
            prev_mse = mse;
        }

        to_columns_into(&centroids, dim, &mut cols);
        Self {
            dim,
            centroids,
            cols,
            final_mse: mse,
            iterations_run,
        }
    }

    /// Centroid `c` as a slice.
    #[inline]
    pub fn centroid(&self, c: usize) -> &[f32] {
        &self.centroids[c * self.dim..(c + 1) * self.dim]
    }

    /// The flat row-major centroid buffer (`k * dim` floats).
    #[inline]
    pub(crate) fn centroids_flat(&self) -> &[f32] {
        &self.centroids
    }

    /// The centroids column-major (`dim` columns of `k` floats).
    #[inline]
    pub(crate) fn centroids_cols(&self) -> &[f32] {
        &self.cols
    }

    /// Number of centroids: the length of [`assign`](Self::assign)'s
    /// scratch.
    #[inline]
    pub(crate) fn k(&self) -> usize {
        self.centroids.len() / self.dim
    }

    /// Assigns a single vector to its nearest centroid, returning
    /// `(centroid index, squared distance)`; `distances` is the caller's
    /// scratch of [`k`](Self::k) floats, reused across calls.
    #[inline]
    pub(crate) fn assign(&self, v: &[f32], distances: &mut [f32]) -> (usize, f32) {
        nearest_centroid(v, &self.cols, distances)
    }
}

/// k-means++ seeding: the first centroid is uniform, each subsequent centroid
/// is sampled proportionally to its squared distance from the closest
/// already-chosen centroid.
fn kmeanspp_init(data: &Dataset, k: usize, rng: &mut SmallRng) -> Vec<f32> {
    let dim = data.dim();
    let n = data.len();
    let mut centroids = Vec::with_capacity(k * dim);

    let first = rng.gen_range(0..n);
    centroids.extend_from_slice(data.vector(first));

    let mut min_dist: Vec<f32> = data
        .iter()
        .map(|v| l2_squared(v, data.vector(first)))
        .collect();

    for _ in 1..k {
        let total: f64 = min_dist.iter().map(|&d| d as f64).sum();
        let chosen = if total <= f64::EPSILON {
            // All points coincide with existing centroids; fall back to uniform.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut picked = n - 1;
            for (i, &d) in min_dist.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    picked = i;
                    break;
                }
            }
            picked
        };
        let start = centroids.len();
        centroids.extend_from_slice(data.vector(chosen));
        let new_c = &centroids[start..start + dim];
        for (i, v) in data.iter().enumerate() {
            let d = l2_squared(v, new_c);
            if d < min_dist[i] {
                min_dist[i] = d;
            }
        }
    }
    centroids
}

/// Samples `count` distinct indices from `0..n` (Floyd's algorithm would be
/// overkill; a partial Fisher-Yates over an index vector is fine at the
/// scales used for training subsets). The one sampler of the crate: k-means
/// and `IvfPqIndex::train_empty` both draw their training subsets here.
pub(crate) fn sample_indices(n: usize, count: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..count.min(n) {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(count.min(n));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::to_columns;

    fn blob_dataset(seed: u64) -> Dataset {
        // Three well-separated 2-D blobs of 50 points each.
        let mut rng = SmallRng::seed_from_u64(seed);
        let centers = [[0.0f32, 0.0], [10.0, 10.0], [-10.0, 10.0]];
        let mut ds = Dataset::new(2);
        for c in &centers {
            for _ in 0..50 {
                ds.push(&[
                    c[0] + rng.gen_range(-1.0f32..1.0),
                    c[1] + rng.gen_range(-1.0f32..1.0),
                ]);
            }
        }
        ds
    }

    #[test]
    fn recovers_separated_blobs() {
        let ds = blob_dataset(3);
        let km = KMeans::train(&ds, &KMeansParams::new(3), 42);
        assert_eq!(km.centroids_flat().len(), 3 * 2);
        // Every learned centroid should be within 2 units of a true center.
        let truth = [[0.0f32, 0.0], [10.0, 10.0], [-10.0, 10.0]];
        for c in 0..3 {
            let cent = km.centroid(c);
            let best = truth
                .iter()
                .map(|t| l2_squared(cent, t))
                .fold(f32::INFINITY, f32::min);
            assert!(best < 4.0, "centroid {cent:?} too far from any true center");
        }
        assert!(km.final_mse < 2.0);
    }

    #[test]
    fn assignment_is_consistent_with_centroids() {
        let ds = blob_dataset(5);
        let km = KMeans::train(&ds, &KMeansParams::new(3), 1);
        let cols = to_columns(km.centroids_flat(), 2);
        assert_eq!(km.centroids_cols(), cols);
        for v in ds.iter() {
            let (c, _) = nearest_centroid(v, &cols, &mut [0.0; 3]);
            assert_eq!(km.assign(v, &mut [0.0; 3]).0, c);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ds = blob_dataset(7);
        let a = KMeans::train(&ds, &KMeansParams::new(4), 99);
        let b = KMeans::train(&ds, &KMeansParams::new(4), 99);
        assert_eq!(a.centroids_flat(), b.centroids_flat());
    }

    #[test]
    fn subsampling_caps_training_points() {
        let ds = blob_dataset(11);
        let params = KMeansParams {
            max_training_points: Some(30),
            ..KMeansParams::new(3)
        };
        let km = KMeans::train(&ds, &params, 0);
        assert_eq!(km.centroids_flat().len(), 3 * 2);
        // Still produces sensible clusters despite sampling.
        assert!(km.final_mse < 50.0);
    }

    #[test]
    #[should_panic(expected = "at least k")]
    fn rejects_too_few_points() {
        let ds = Dataset::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
        let _ = KMeans::train(&ds, &KMeansParams::new(5), 0);
    }

    #[test]
    fn handles_duplicate_points() {
        // All identical points: k-means++ falls back to uniform choice and
        // training must not panic or divide by zero.
        let rows: Vec<Vec<f32>> = (0..20).map(|_| vec![1.0, 2.0, 3.0]).collect();
        let ds = Dataset::from_rows(&rows);
        let km = KMeans::train(&ds, &KMeansParams::new(2), 0);
        assert_eq!(km.centroids_flat().len(), 2 * 3);
        assert!(km.final_mse.abs() < 1e-6);
    }
}
