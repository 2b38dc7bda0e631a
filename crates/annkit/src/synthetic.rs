//! Synthetic dataset generators standing in for SIFT1B / DEEP1B / SPACEV1B.
//!
//! The real billion-scale datasets are unavailable in this environment, so we
//! generate reduced-scale datasets that reproduce the statistical properties
//! the UpANNS evaluation actually depends on:
//!
//! 1. **Cluster structure** — vectors are drawn around well-separated cluster
//!    centers so IVF partitioning is meaningful.
//! 2. **Cluster-size skew** — cluster populations follow a power law
//!    (Figure 4b shows up to 10⁶× size imbalance in SPACEV1B).
//! 3. **Dimensional profile** — SIFT-like: 128-d non-negative "histogram"
//!    coordinates; DEEP-like: 96-d roughly normalized CNN embeddings;
//!    SPACEV-like: 100-d signed int8-ranged text embeddings. The paper
//!    encodes them with M = 16 / 12 / 20 sub-quantizers respectively.
//! 4. **Code co-occurrence** — a tunable fraction of vectors in each cluster
//!    share identical sub-vector patterns on a run of consecutive subspaces,
//!    so their PQ codes contain frequently co-occurring element combinations
//!    (the property Opt3 exploits; cf. the (1, 15, 26) triplet appearing in
//!    5.7 % of SIFT1B vectors).

use crate::vector::Dataset;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which billion-scale dataset the generator mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// SIFT1B: 128-d local image descriptors, non-negative, roughly in
    /// `[0, 255]`.
    SiftLike,
    /// DEEP1B: 96-d deep CNN descriptors, centered, roughly unit norm.
    DeepLike,
    /// SPACEV1B: 100-d text descriptors, signed int8 value range.
    SpacevLike,
}

impl DatasetKind {
    /// Vector dimensionality of the mimicked dataset.
    pub(crate) fn dim(self) -> usize {
        match self {
            DatasetKind::SiftLike => 128,
            DatasetKind::DeepLike => 96,
            DatasetKind::SpacevLike => 100,
        }
    }

    /// Number of PQ sub-quantizers the paper uses for this dataset.
    pub fn pq_m(self) -> usize {
        match self {
            DatasetKind::SiftLike => 16,
            DatasetKind::DeepLike => 12,
            DatasetKind::SpacevLike => 20,
        }
    }

    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::SiftLike => "SIFT-like",
            DatasetKind::DeepLike => "DEEP-like",
            DatasetKind::SpacevLike => "SPACEV-like",
        }
    }

    /// Scale of per-coordinate values (cluster-center spread).
    fn center_scale(self) -> f32 {
        match self {
            DatasetKind::SiftLike => 128.0,
            DatasetKind::DeepLike => 1.0,
            DatasetKind::SpacevLike => 64.0,
        }
    }

    /// Within-cluster noise scale.
    fn noise_scale(self) -> f32 {
        match self {
            DatasetKind::SiftLike => 18.0,
            DatasetKind::DeepLike => 0.15,
            DatasetKind::SpacevLike => 9.0,
        }
    }

    /// Clamp range applied to generated coordinates.
    fn clamp(self) -> (f32, f32) {
        match self {
            DatasetKind::SiftLike => (0.0, 255.0),
            DatasetKind::DeepLike => (-4.0, 4.0),
            DatasetKind::SpacevLike => (-128.0, 127.0),
        }
    }

    /// All three kinds, in the order the paper's figures list them.
    pub fn all() -> [DatasetKind; 3] {
        [
            DatasetKind::DeepLike,
            DatasetKind::SiftLike,
            DatasetKind::SpacevLike,
        ]
    }
}

/// Specification of a synthetic dataset.
#[derive(Debug, Clone)]
pub struct SyntheticSpec {
    /// Which dataset profile to mimic.
    pub kind: DatasetKind,
    /// Number of base vectors to generate.
    pub n: usize,
    /// Number of ground-truth generative clusters.
    pub clusters: usize,
    /// Power-law exponent controlling cluster-size skew (0 = uniform;
    /// ~1.0 reproduces the heavy skew of Figure 4b at reduced scale).
    pub size_skew: f64,
    /// Fraction of vectors per cluster that carry a shared sub-vector
    /// pattern, producing co-occurring PQ codes (Opt3's prerequisite).
    pub cooccurrence_rate: f64,
    /// Number of consecutive PQ subspaces covered by each shared pattern.
    pub pattern_len: usize,
    /// RNG seed; the generator is fully deterministic given the spec.
    pub seed: u64,
}

impl SyntheticSpec {
    /// SIFT1B-like spec with `n` vectors and defaults tuned to reproduce the
    /// paper's skew and co-occurrence properties at reduced scale.
    pub fn sift_like(n: usize) -> Self {
        Self::new(DatasetKind::SiftLike, n)
    }

    /// Generic constructor with default knobs.
    pub fn new(kind: DatasetKind, n: usize) -> Self {
        Self {
            kind,
            n,
            clusters: 64,
            size_skew: 0.9,
            cooccurrence_rate: 0.35,
            pattern_len: 3,
            seed: 0xC0FFEE,
        }
    }

    /// Overrides the number of generative clusters.
    pub fn with_clusters(mut self, clusters: usize) -> Self {
        self.clusters = clusters;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates the dataset (vectors only).
    pub fn generate(&self) -> Dataset {
        self.generate_with_meta().vectors
    }

    /// Generates the dataset together with its ground-truth metadata.
    pub fn generate_with_meta(&self) -> SyntheticDataset {
        assert!(self.n > 0, "n must be positive");
        assert!(
            self.clusters > 0 && self.clusters <= self.n,
            "invalid cluster count"
        );
        let dim = self.kind.dim();
        let mut rng = SmallRng::seed_from_u64(self.seed);

        // Cluster centers: well separated in the kind's value range.
        let mut centers = Dataset::with_capacity(dim, self.clusters);
        let scale = self.kind.center_scale();
        let mut cv = vec![0.0f32; dim];
        for _ in 0..self.clusters {
            for x in cv.iter_mut() {
                *x = rng.gen_range(-1.0f32..1.0) * scale + scale.max(1.0) * 0.5;
            }
            centers.push(&cv);
        }

        // Power-law cluster populations.
        let sizes = power_law_sizes(self.n, self.clusters, self.size_skew, &mut rng);

        // Shared sub-vector patterns per cluster (for code co-occurrence).
        let m = self.kind.pq_m();
        let dsub = dim / m;
        let pattern_len = self.pattern_len.min(m);
        let noise = self.kind.noise_scale();
        let (lo, hi) = self.kind.clamp();

        let mut vectors = Dataset::with_capacity(dim, self.n);
        let mut cluster_of = Vec::with_capacity(self.n);
        let mut v = vec![0.0f32; dim];

        for (c, &size) in sizes.iter().enumerate() {
            // Each cluster gets one dominant pattern: a fixed offset applied to
            // `pattern_len` consecutive subspaces starting at a cluster-specific
            // position. Vectors carrying the pattern have *zero* noise on those
            // subspaces, so their residuals (and hence PQ codes) coincide there.
            let pattern_start = (c * 7) % m.saturating_sub(pattern_len).max(1);
            let pattern: Vec<f32> = (0..pattern_len * dsub)
                .map(|_| rng.gen_range(-1.0f32..1.0) * noise)
                .collect();

            for _ in 0..size {
                let center = centers.vector(c);
                for (j, x) in v.iter_mut().enumerate() {
                    *x = (center[j] + rng.gen_range(-1.0f32..1.0) * noise).clamp(lo, hi);
                }
                if rng.gen_bool(self.cooccurrence_rate) {
                    for (p, &pat) in pattern.iter().enumerate() {
                        let j = pattern_start * dsub + p;
                        v[j] = (centers.vector(c)[j] + pat).clamp(lo, hi);
                    }
                }
                vectors.push(&v);
                cluster_of.push(c);
            }
        }

        SyntheticDataset {
            kind: self.kind,
            vectors,
            centers,
            cluster_of,
            cluster_sizes: sizes,
        }
    }
}

/// A generated dataset plus its ground-truth generative structure.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// Which dataset profile was mimicked.
    pub kind: DatasetKind,
    /// The generated base vectors.
    pub vectors: Dataset,
    /// True generative cluster centers.
    pub centers: Dataset,
    /// True cluster id of each vector.
    pub cluster_of: Vec<usize>,
    /// Number of vectors generated per cluster.
    pub cluster_sizes: Vec<usize>,
}

/// Allocates `n` items over `k` buckets with populations proportional to
/// `1/(rank+1)^skew`, guaranteeing every bucket gets at least one item when
/// `n >= k`. Bucket ranks are shuffled so that cluster id does not correlate
/// with size.
fn power_law_sizes(n: usize, k: usize, skew: f64, rng: &mut SmallRng) -> Vec<usize> {
    let weights: Vec<f64> = (0..k).map(|i| 1.0 / ((i + 1) as f64).powf(skew)).collect();
    let total: f64 = weights.iter().sum();
    let mut sizes: Vec<usize> = weights
        .iter()
        .map(|w| ((w / total) * n as f64).floor() as usize)
        .collect();
    // Ensure non-empty buckets and exact total.
    for s in sizes.iter_mut() {
        if *s == 0 {
            *s = 1;
        }
    }
    let mut assigned: usize = sizes.iter().sum();
    while assigned > n {
        // Trim from the largest bucket.
        let (idx, _) = sizes
            .iter()
            .enumerate()
            .max_by_key(|(_, &s)| s)
            .expect("non-empty sizes");
        if sizes[idx] > 1 {
            sizes[idx] -= 1;
            assigned -= 1;
        } else {
            break;
        }
    }
    while assigned < n {
        let idx = rng.gen_range(0..k);
        sizes[idx] += 1;
        assigned += 1;
    }
    // Shuffle so cluster index order doesn't encode size rank.
    for i in (1..k).rev() {
        let j = rng.gen_range(0..=i);
        sizes.swap(i, j);
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ivf::{IvfPqIndex, IvfPqParams};
    use std::collections::HashMap;

    #[test]
    fn generates_requested_count_and_dim() {
        for kind in DatasetKind::all() {
            let spec = SyntheticSpec::new(kind, 500).with_clusters(10).with_seed(1);
            let ds = spec.generate_with_meta();
            assert_eq!(ds.vectors.len(), 500);
            assert_eq!(ds.vectors.dim(), kind.dim());
            assert_eq!(ds.cluster_of.len(), 500);
            assert_eq!(ds.cluster_sizes.iter().sum::<usize>(), 500);
            assert_eq!(kind.dim() % kind.pq_m(), 0);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = SyntheticSpec::sift_like(300).with_seed(9).generate();
        let b = SyntheticSpec::sift_like(300).with_seed(9).generate();
        assert_eq!(a, b);
        let c = SyntheticSpec::sift_like(300).with_seed(10).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn size_skew_produces_imbalance() {
        let spacev = |size_skew| SyntheticSpec {
            size_skew,
            ..SyntheticSpec::new(DatasetKind::SpacevLike, 2000)
        };
        let skewed = spacev(1.1)
            .with_clusters(32)
            .with_seed(3)
            .generate_with_meta();
        let ratio = |d: &SyntheticDataset| {
            let nonempty = d.cluster_sizes.iter().copied().filter(|&s| s > 0);
            let max = nonempty.clone().max().unwrap_or(1);
            max as f64 / nonempty.min().unwrap_or(1) as f64
        };
        assert!(ratio(&skewed) > 10.0, "ratio {}", ratio(&skewed));

        let uniform = spacev(0.0)
            .with_clusters(32)
            .with_seed(3)
            .generate_with_meta();
        assert!(ratio(&uniform) < 3.0, "ratio {}", ratio(&uniform));
    }

    #[test]
    fn values_respect_kind_ranges() {
        for kind in DatasetKind::all() {
            let range = match kind {
                DatasetKind::SiftLike => 0.0..=255.0,
                DatasetKind::DeepLike => -4.0..=4.0,
                DatasetKind::SpacevLike => -128.0..=127.0,
            };
            let data = SyntheticSpec::new(kind, 200).with_seed(4).generate();
            assert!(
                data.iter().flatten().all(|x| range.contains(x)),
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn cooccurrence_injection_yields_repeated_code_triplets() {
        // Encode the generated data with IVFPQ and check that at least one
        // positioned code triplet repeats far more often than chance.
        let spec = SyntheticSpec {
            cooccurrence_rate: 0.5,
            ..SyntheticSpec::sift_like(1500)
        }
        .with_clusters(8)
        .with_seed(5);
        let ds = spec.generate();
        let index = IvfPqIndex::train(&ds, &IvfPqParams::new(8, 16).with_train_size(800), 2);

        let mut triplet_counts: HashMap<(usize, [u8; 3]), usize> = HashMap::new();
        let mut total_codes = 0usize;
        for list in index.lists() {
            for code in list.packed_codes().chunks_exact(16) {
                total_codes += 1;
                for start in 0..(16 - 3) {
                    let key = (start, [code[start], code[start + 1], code[start + 2]]);
                    *triplet_counts.entry(key).or_default() += 1;
                }
            }
        }
        #[expect(clippy::disallowed_methods, reason = "a max is order-independent")]
        let max_freq =
            triplet_counts.values().copied().max().unwrap_or(0) as f64 / total_codes.max(1) as f64;
        // The paper reports 5.7% for SIFT1B's most frequent triplet; our
        // injection should produce at least a few percent.
        assert!(max_freq > 0.03, "max triplet frequency {max_freq}");
    }

    #[test]
    fn power_law_sizes_sum_and_nonzero() {
        let mut rng = SmallRng::seed_from_u64(0);
        let sizes = power_law_sizes(1000, 37, 1.2, &mut rng);
        assert_eq!(sizes.len(), 37);
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        assert!(sizes.iter().all(|&s| s >= 1));
    }
}
