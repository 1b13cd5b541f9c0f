//! Order statistics over timing samples.

/// Sorted copy of `values`; NaN never occurs in measured samples.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The `p`-th percentile (0..=100) by linear interpolation between closest
/// ranks. Panics on an empty slice: every caller samples at least once.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The highest of the usual tail percentiles that still has at least ten of
/// `n` samples beyond it; `None` when even the median has fewer (n < 20).
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99, 95, 90, 75, 50]
        .into_iter()
        .find(|p| n * (100 - p) >= 10 * 100)
        .map(|p| p as f64)
}

/// How much worse `second` is than `first`, as a share of `first`, for a
/// metric where lower is better (negative = it improved).
pub fn relative_worsening(first: f64, second: f64) -> f64 {
    (second - first) / first
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 75.0), 40.0);
        assert!((percentile(&v, 90.0) - 46.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(12), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }

    #[test]
    fn worsening_is_signed() {
        assert!((relative_worsening(2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!(relative_worsening(2.0, 1.0) < 0.0);
    }
}
