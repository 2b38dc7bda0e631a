//! Order statistics for the harness: medians, nearest-rank percentiles, and
//! the rule for which percentile a sample can support.

/// How many samples must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts a sample ascending (NaN-safe total order).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank `p`-th percentile of an ascending-sorted sample (0 when
/// empty) — the same rule `ServiceReport::percentile` uses.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest whole percentile that still has at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even the median does not (fewer than
/// 20 samples). 1 200 samples support p99 (12 beyond); 40 support p75.
pub fn highest_supported_percentile(samples: usize) -> Option<u32> {
    (50..=99u32)
        .rev()
        .find(|&p| samples_beyond(samples, f64::from(p)) >= MIN_BEYOND)
}

/// Samples strictly above the nearest-rank `p`-th percentile's rank.
pub fn samples_beyond(samples: usize, p: f64) -> usize {
    if samples == 0 {
        return 0;
    }
    let rank = ((p / 100.0 * samples as f64).ceil() as usize).clamp(1, samples);
    samples - rank
}

/// The tail of an unsorted sample: the highest supported percentile up to
/// `at_most`, its value, and the sample count. A sample too small to
/// support even the median (fewer than 20 values) reports its median.
pub fn supported_tail(values: &[f64], at_most: u32) -> (u32, f64, usize) {
    let p = highest_supported_percentile(values.len())
        .unwrap_or(50)
        .min(at_most);
    let s = sorted(values.to_vec());
    (p, percentile(&s, f64::from(p)), s.len())
}

/// First quartile, median and third quartile by the exclusive method —
/// what Python's `statistics.quantiles(values, n=4)` returns, which is how
/// the acceptance rule measures run-to-run spread.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let at = |q: usize| {
        let pos = q as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// Interquartile distance as a share of the median (0 for fewer than two
/// values or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1).abs() / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(400), Some(97));
        assert_eq!(highest_supported_percentile(1_000), Some(99));
        assert_eq!(highest_supported_percentile(1_200), Some(99));
        assert_eq!(samples_beyond(1_200, 99.0), 12);
        assert_eq!(samples_beyond(40, 75.0), 10);
        assert_eq!(samples_beyond(40, 76.0), 9);
    }

    #[test]
    fn supported_tail_reports_percentile_value_and_count() {
        let values: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(supported_tail(&values, 99), (75, 30.0, 40));
        assert_eq!(supported_tail(&values, 60), (60, 24.0, 40));
        // 26 samples support p61 at most; 10 support nothing, so the median.
        assert_eq!(supported_tail(&values[..26], 75).0, 61);
        assert_eq!(supported_tail(&values[..10], 75), (50, 35.0, 10));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v).expect("ten values");
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
