//! Brute-force exact nearest-neighbor search.
//!
//! Used to compute ground truth for recall measurements (the paper evaluates
//! against the datasets' published ground truth; at our synthetic scale the
//! exact answer is cheap to compute directly).

use crate::distance::l2_squared;
use crate::topk::{Neighbor, TopK};
use crate::vector::Dataset;

/// An exact (flat) index that scans every vector for every query.
#[derive(Debug, Clone)]
pub struct FlatIndex<'a> {
    data: &'a Dataset,
}

impl<'a> FlatIndex<'a> {
    /// Creates an exact L2 index over `data` (no copies are made).
    pub fn new(data: &'a Dataset) -> Self {
        Self { data }
    }

    /// Returns the exact `k` nearest neighbors of `query`.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let mut topk = TopK::new(k);
        for (i, v) in self.data.iter().enumerate() {
            topk.push(i as u64, l2_squared(query, v));
        }
        topk.into_sorted()
    }

    /// Exact search for a batch of queries.
    pub fn search_batch(&self, queries: &Dataset, k: usize) -> Vec<Vec<Neighbor>> {
        queries.iter().map(|q| self.search(q, k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Dataset {
        // Points at x = 0, 1, 2, ..., 9 on a line.
        Dataset::from_rows(&(0..10).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>())
    }

    #[test]
    fn finds_exact_neighbors_in_order() {
        let ds = grid();
        let idx = FlatIndex::new(&ds);
        let res = idx.search(&[3.2, 0.0], 3);
        let ids: Vec<u64> = res.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 4, 2]);
        assert!(res[0].distance < res[1].distance);
    }
}
