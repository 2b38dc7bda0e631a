//! Dense vector datasets stored in flat, cache-friendly row-major layout.

/// A dense, row-major collection of `f32` vectors of a fixed dimension.
///
/// The storage is a single contiguous allocation (`len * dim` floats), which
/// matches how billion-scale ANNS systems lay out raw vectors and keeps scans
/// sequential. Vector `i` occupies `data[i*dim .. (i+1)*dim]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    dim: usize,
    data: Vec<f32>,
}

impl Dataset {
    /// Creates an empty dataset of the given dimension.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        Self {
            dim,
            data: Vec::new(),
        }
    }

    /// Creates an empty dataset with capacity reserved for `n` vectors.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        Self {
            dim,
            data: Vec::with_capacity(dim * n),
        }
    }

    /// Builds a dataset from a slice of rows.
    ///
    /// # Panics
    /// Panics if any row has a different length than the first.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "cannot infer dimension from zero rows");
        let dim = rows[0].len();
        let mut ds = Dataset::with_capacity(dim, rows.len());
        for row in rows {
            ds.push(row);
        }
        ds
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of vectors stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Whether the dataset holds no vectors.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one vector.
    ///
    /// # Panics
    /// Panics if `v.len() != self.dim()`.
    #[inline]
    pub fn push(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        self.data.extend_from_slice(v);
    }

    /// Returns vector `i` as a slice.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn vector(&self, i: usize) -> &[f32] {
        let start = i * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Returns a mutable slice of vector `i`.
    #[inline]
    pub(crate) fn vector_mut(&mut self, i: usize) -> &mut [f32] {
        let start = i * self.dim;
        &mut self.data[start..start + self.dim]
    }

    /// Iterates over all vectors in index order.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// Returns a new dataset containing the vectors at `indices`, in order.
    pub fn gather(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::with_capacity(self.dim, indices.len());
        for &i in indices {
            out.push(self.vector(i));
        }
        out
    }

    /// Splits each vector into `m` equally sized sub-vectors and returns the
    /// `sub`-th sub-dataset (used for product quantization training).
    ///
    /// # Panics
    /// Panics if `dim % m != 0` or `sub >= m`.
    pub(crate) fn subspace(&self, m: usize, sub: usize) -> Dataset {
        assert!(
            self.dim.is_multiple_of(m),
            "dim {} not divisible by m {}",
            self.dim,
            m
        );
        assert!(sub < m, "subspace index out of range");
        let dsub = self.dim / m;
        let mut out = Dataset::with_capacity(dsub, self.len());
        for v in self.iter() {
            out.push(&v[sub * dsub..(sub + 1) * dsub]);
        }
        out
    }

    /// Total number of bytes of the raw (uncompressed) vector payload.
    pub fn raw_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// Computes `a - b` into a freshly allocated vector.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn residual(a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    residual_into(a, b, &mut out);
    out
}

/// [`residual`] into `out`'s allocation (cleared first), for loops that
/// form one residual per (query, cluster) pair.
///
/// # Panics
/// Panics if `a` and `b` have different lengths.
#[inline]
pub fn residual_into(a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    assert_eq!(a.len(), b.len(), "residual dimension mismatch");
    out.clear();
    out.extend(a.iter().zip(b).map(|(x, y)| x - y));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::from_rows(&[
            vec![1.0, 2.0, 3.0, 4.0],
            vec![5.0, 6.0, 7.0, 8.0],
            vec![9.0, 10.0, 11.0, 12.0],
        ])
    }

    #[test]
    fn push_and_access() {
        let ds = small();
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.dim(), 4);
        assert!(!ds.is_empty());
        assert_eq!(ds.vector(1), &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(ds.iter().count(), 3);
        assert_eq!(ds.raw_bytes(), 3 * 4 * 4);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_rejects_wrong_dim() {
        let mut ds = Dataset::new(3);
        ds.push(&[1.0, 2.0]);
    }

    #[test]
    fn gather_selects_rows() {
        let ds = small();
        let g = ds.gather(&[2, 0]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.vector(0), ds.vector(2));
        assert_eq!(g.vector(1), ds.vector(0));
    }

    #[test]
    fn subspace_splits_evenly() {
        let ds = small();
        let s0 = ds.subspace(2, 0);
        let s1 = ds.subspace(2, 1);
        assert_eq!(s0.dim(), 2);
        assert_eq!(s0.vector(0), &[1.0, 2.0]);
        assert_eq!(s1.vector(0), &[3.0, 4.0]);
        assert_eq!(s1.vector(2), &[11.0, 12.0]);
    }

    #[test]
    fn residual_subtracts_elementwise() {
        let r = residual(&[3.0, 5.0], &[1.0, 1.0]);
        assert_eq!(r, vec![2.0, 4.0]);
    }
}
