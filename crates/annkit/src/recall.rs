//! Recall metrics for comparing approximate results with ground truth.

use crate::topk::Neighbor;

/// Computes recall@k between approximate results and exact results
/// (both as [`Neighbor`] lists; only ids are compared): the mean over
/// queries of |approx top-k ∩ exact top-k| / k (capped by the number of
/// available ground-truth entries; a query without any counts as 1).
///
/// # Panics
/// Panics if the two batches have different numbers of queries.
pub fn recall_at_k(approx: &[Vec<Neighbor>], exact: &[Vec<Neighbor>], k: usize) -> f64 {
    assert_eq!(
        approx.len(),
        exact.len(),
        "approx and exact batches differ in query count"
    );
    assert!(k > 0, "k must be positive");
    if approx.is_empty() {
        return 1.0;
    }
    let per_query = approx.iter().zip(exact).map(|(a, e)| {
        let truth: Vec<u64> = e.iter().take(k).map(|n| n.id).collect();
        if truth.is_empty() {
            return 1.0;
        }
        let hits = a.iter().take(k).filter(|n| truth.contains(&n.id)).count();
        hits as f64 / truth.len() as f64
    });
    per_query.sum::<f64>() / approx.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(ids: &[u64]) -> Vec<Neighbor> {
        ids.iter()
            .enumerate()
            .map(|(i, &id)| Neighbor::new(id, i as f32))
            .collect()
    }

    #[test]
    fn perfect_recall() {
        let approx = vec![n(&[1, 2, 3])];
        let exact = vec![n(&[1, 2, 3])];
        assert_eq!(recall_at_k(&approx, &exact, 3), 1.0);
    }

    #[test]
    fn partial_recall() {
        let approx = vec![n(&[1, 9, 3]), n(&[7, 8])];
        let exact = vec![n(&[1, 2, 3]), n(&[5, 6])];
        // Query 0: approx top-2 {1,9} vs truth {1,2} → 0.5. Query 1: 0.0.
        assert_eq!(recall_at_k(&approx[..1], &exact[..1], 2), 0.5);
        assert_eq!(recall_at_k(&approx[1..], &exact[1..], 2), 0.0);
        assert!((recall_at_k(&approx, &exact, 2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn order_within_topk_does_not_matter() {
        let approx = vec![n(&[3, 2, 1])];
        let exact = vec![n(&[1, 2, 3])];
        assert_eq!(recall_at_k(&approx, &exact, 3), 1.0);
    }

    #[test]
    fn empty_truth_counts_as_full_recall() {
        let approx = vec![n(&[1])];
        let exact = vec![n(&[])];
        assert_eq!(recall_at_k(&approx, &exact, 5), 1.0);
        let empty: Vec<Vec<Neighbor>> = vec![];
        assert_eq!(recall_at_k(&empty, &empty, 5), 1.0);
    }

    #[test]
    #[should_panic(expected = "differ in query count")]
    fn mismatched_batches_panic() {
        let _ = recall_at_k(&[n(&[1])], &[], 1);
    }
}
