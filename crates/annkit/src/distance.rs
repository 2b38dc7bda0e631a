//! Distance kernels used throughout the substrate.
//!
//! IVFPQ, the UpANNS paper's three datasets and the PQ look-up table all use
//! L2 distance; it is the one metric here.
//!
//! Two shapes of one question: [`l2_squared`] is one pair (k-means++
//! seeding, exact search), and [`nearest_centroid`] / [`nearest_centroids`]
//! are one vector against many centroids (k-means assignment, PQ encode,
//! cluster filtering) over the centroids' column-major twin
//! ([`to_columns`]), which the column kernel reads a centroid per SIMD lane.
//! The pair is one portable reduction tree, and the column kernel runs
//! that tree per lane on the best runtime-detected backend in
//! [`crate::simd`], bitwise-identical on every backend, so callers (kmeans,
//! `IvfPqIndex::search`, the replay twin) see the same answers on every
//! machine.

use crate::simd;

/// Squared L2 distance between two equal-length vectors:
/// [`simd::l2_squared_scalar`]'s reduction tree, the one each lane of the
/// column kernel runs.
///
/// # Panics
/// Panics (in debug builds) if the lengths differ.
#[inline]
pub fn l2_squared(a: &[f32], b: &[f32]) -> f32 {
    simd::l2_squared_scalar(a, b)
}

/// Finds the index of the closest of `k = distances.len()` centroids to `v`
/// over their *column-major* twin (component `j` of centroid `r` at
/// `cols[j * k + r]`, see [`to_columns`]), returning `(index, distance)`:
/// k-means assignment, PQ encode and `KMeans::assign`. `distances` is the
/// caller's scratch, left holding every centroid's distance.
///
/// The distances come from the column kernel, bitwise what one
/// [`l2_squared`] per centroid returns, and the choice is the serial scan
/// `if d < best.1 { best = (i, d) }` from `(0, ∞)`, run in SIMD lanes
/// (`simd::l2_squared_cols_argmin`) with the same answer:
/// - of several equally close centroids the first is taken (`-0.0` and
///   `0.0` are equally close);
/// - a NaN distance is never selected;
/// - when no distance is below `∞` (all NaN or `∞`), `(0, ∞)` is returned.
///
/// # Panics
/// Panics if `v` or `distances` is empty or `cols.len() != k * v.len()`.
pub fn nearest_centroid(v: &[f32], cols: &[f32], distances: &mut [f32]) -> (usize, f32) {
    assert!(!distances.is_empty(), "no centroids");
    simd::l2_squared_cols_argmin(v, cols, distances)
}

/// Finds the indices of the `n` closest of `k` centroids to `v`, ordered
/// from closest to furthest, over their column-major twin (as in
/// [`nearest_centroid`]): cluster filtering
/// ([`IvfPqIndex::filter_clusters`](crate::ivf::IvfPqIndex::filter_clusters)).
///
/// All distances come from one `simd::l2_squared_cols` call, one centroid
/// per SIMD lane in blocks of [`simd::WIDE_ROWS`]; the `n` best are selected
/// and only those sorted, which is element for element the prefix of a full
/// sort under [`Neighbor`](crate::topk::Neighbor)'s order because that order
/// is total.
///
/// # Panics
/// Panics if `cols.len() != k * v.len()`.
pub fn nearest_centroids(v: &[f32], cols: &[f32], k: usize, n: usize) -> Vec<(usize, f32)> {
    assert_eq!(
        cols.len(),
        k * v.len(),
        "centroid buffer not k columns of dim"
    );
    if n.min(k) == 0 {
        return Vec::new();
    }
    let mut distances = vec![0.0f32; k];
    simd::l2_squared_cols(v, cols, &mut distances);
    select_nearest(&distances, n)
}

/// The row-major table `rows` (rows of `dim` floats) column-major: component
/// `j` of row `r` at `j * rows + r` — the layout of the column kernel.
///
/// # Panics
/// Panics if `dim` is zero or `rows.len()` is not a multiple of `dim`.
pub fn to_columns(rows: &[f32], dim: usize) -> Vec<f32> {
    let mut cols = vec![0.0f32; rows.len()];
    to_columns_into(rows, dim, &mut cols);
    cols
}

/// [`to_columns`] into an existing buffer of `rows.len()` floats, which
/// k-means reuses across its iterations.
pub(crate) fn to_columns_into(rows: &[f32], dim: usize, cols: &mut [f32]) {
    assert!(
        dim > 0 && rows.len().is_multiple_of(dim),
        "rows not a multiple of dim"
    );
    assert_eq!(cols.len(), rows.len(), "column buffer size mismatch");
    let k = rows.len() / dim;
    for (r, row) in rows.chunks_exact(dim).enumerate() {
        for (j, &x) in row.iter().enumerate() {
            cols[j * k + r] = x;
        }
    }
}

/// The `n` smallest of `distances` (at least one), closest first, as
/// `(index, distance)`: the `n` best are selected and only those sorted.
fn select_nearest(distances: &[f32], n: usize) -> Vec<(usize, f32)> {
    let k = distances.len();
    let n = n.min(k);
    let mut keys: Vec<u64> = distances
        .iter()
        .enumerate()
        .map(|(i, &d)| order_key(i, d))
        .collect();
    if n < k {
        keys.select_nth_unstable(n - 1);
        keys.truncate(n);
    }
    keys.sort_unstable();
    keys.into_iter()
        .map(|key| {
            let i = key as u32 as usize; // the key's low half
            (i, distances[i])
        })
        .collect()
}

/// `(index, distance)` as one integer whose order is
/// [`Neighbor::cmp`](crate::topk::Neighbor)'s on
/// `Neighbor::new(index, distance)`: by distance, a NaN distance (e.g. a
/// poisoned centroid) after every number instead of comparing
/// Equal-to-everything — so it can never displace a finite centroid from the
/// probe set — and the index breaking ties, so no two keys are equal. An
/// integer compare has no data-dependent branch, which on unpredictable
/// distances is most of a selection's cost.
fn order_key(index: usize, distance: f32) -> u64 {
    let index = u32::try_from(index).expect("fewer than 2^32 centroids");
    // The usual monotone map of IEEE-754 bits onto unsigned integers, after
    // folding -0.0 into +0.0 (they compare equal) and every NaN into the
    // greatest key.
    let bits = (distance + 0.0).to_bits();
    let rank = if distance.is_nan() {
        u32::MAX
    } else if bits >> 31 == 1 {
        !bits
    } else {
        bits | 1 << 31
    };
    u64::from(rank) << 32 | u64::from(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::Neighbor;

    #[test]
    fn l2_matches_naive() {
        let a: Vec<f32> = (0..13).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..13).map(|i| (i as f32) * -0.25 + 1.0).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        let fast = l2_squared(&a, &b);
        assert!((naive - fast).abs() < 1e-3, "{naive} vs {fast}");
    }

    #[test]
    fn nearest_centroid_picks_minimum() {
        let centroids = vec![
            0.0, 0.0, /* c0 */ 10.0, 10.0, /* c1 */ 2.0, 2.0, /* c2 */
        ];
        let cols = to_columns(&centroids, 2);
        let mut distances = [f32::NAN; 3];
        let (idx, d) = nearest_centroid(&[1.9, 2.1], &cols, &mut distances);
        assert_eq!(idx, 2);
        assert!(d < 0.1);
        assert_eq!(distances[idx].to_bits(), d.to_bits());
    }

    #[test]
    fn nearest_centroids_sorted_and_truncated() {
        let cols = to_columns(&[0.0, 0.0, 10.0, 10.0, 2.0, 2.0, 5.0, 5.0], 2);
        let top = nearest_centroids(&[0.1, 0.1], &cols, 4, 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, 0);
        assert_eq!(top[1].0, 2);
        assert_eq!(top[2].0, 3);
        assert!(top[0].1 <= top[1].1 && top[1].1 <= top[2].1);

        // n larger than the number of centroids is clamped.
        let all = nearest_centroids(&[0.0, 0.0], &cols, 4, 100);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn order_key_is_neighbor_order() {
        let distances = [
            0.0f32,
            -0.0,
            1.5,
            1.5,
            f32::MIN_POSITIVE,
            -2.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            3.0e38,
        ];
        for (i, &a) in distances.iter().enumerate() {
            for (j, &b) in distances.iter().enumerate() {
                assert_eq!(
                    order_key(i, a).cmp(&order_key(j, b)),
                    Neighbor::new(i as u64, a).cmp(&Neighbor::new(j as u64, b)),
                    "({i}, {a}) vs ({j}, {b})"
                );
            }
        }
    }

    #[test]
    fn nan_centroid_never_enters_probe_set() {
        // Regression: the old comparator used partial_cmp(..).unwrap_or(Equal),
        // under which a NaN distance compares Equal to everything and can keep
        // its position ahead of finite centroids. With Neighbor::cmp the
        // poisoned centroid sorts strictly last.
        let cols = to_columns(&[5.0, 5.0, f32::NAN, 0.0, 1.0, 1.0, 3.0, 3.0], 2);
        let top = nearest_centroids(&[0.0, 0.0], &cols, 4, 3);
        assert_eq!(top.iter().map(|t| t.0).collect::<Vec<_>>(), vec![2, 3, 0]);
        assert!(top.iter().all(|t| !t.1.is_nan()));
        // Asking for all of them places the NaN centroid last.
        let all = nearest_centroids(&[0.0, 0.0], &cols, 4, 4);
        assert_eq!(all[3].0, 1);
        assert!(all[3].1.is_nan());
    }

    #[test]
    fn l2_squared_is_the_four_lane_tree_bitwise() {
        // Four lane accumulators fed in chunk order, combined left to
        // right, then the tail in order.
        fn tree(a: &[f32], b: &[f32]) -> f32 {
            let whole = a.len() / 4 * 4;
            let mut lanes = [0.0f32; 4];
            for i in 0..whole {
                let d = a[i] - b[i];
                lanes[i % 4] += d * d;
            }
            let mut sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            for i in whole..a.len() {
                let d = a[i] - b[i];
                sum += d * d;
            }
            sum
        }
        let left_to_right = |a: &[f32], b: &[f32]| {
            a.iter()
                .zip(b)
                .fold(0.0f32, |sum, (x, y)| sum + (x - y) * (x - y))
        };
        for n in [21usize, 33, 130] {
            // One 10⁸ term in lane 0 and ones elsewhere: summed left to
            // right each 1 rounds away against the 10⁸ (its ulp is 8),
            // while lanes 1–3 sum theirs to at least 5 first.
            let a: Vec<f32> = (0..n).map(|i| if i == 0 { 1e4 } else { 1.0 }).collect();
            let b = vec![0.0f32; n];
            assert_ne!(
                tree(&a, &b).to_bits(),
                left_to_right(&a, &b).to_bits(),
                "n {n}: the inputs must tell the two orders apart"
            );
            assert_eq!(
                l2_squared(&a, &b).to_bits(),
                tree(&a, &b).to_bits(),
                "n {n}"
            );
        }
        for n in [1usize, 4, 7, 8, 16, 37, 96, 100] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.83).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.29).cos()).collect();
            assert_eq!(
                l2_squared(&a, &b).to_bits(),
                tree(&a, &b).to_bits(),
                "n {n}"
            );
        }
    }
}
