//! Order statistics used to turn raw samples into reported metrics.

/// The median of `values` (the mean of the two middle values for an even count).
///
/// Panics on an empty slice: every reported metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile of `values`, `0 < p < 100`, interpolated linearly between
/// order statistics at rank `p/100 · (n + 1)` and clamped to the sample range.
///
/// Within the sample range this is the "exclusive" method of Python's
/// `statistics.quantiles`, so quartiles of three or more samples agree with a spread
/// check done there.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = p / 100.0 * (n as f64 + 1.0);
    if rank <= 1.0 {
        return sorted[0];
    }
    if rank >= n as f64 {
        return sorted[n - 1];
    }
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// The highest of the p99/p95/p90/p75 percentiles that has at least ten samples above
/// it, or `None` when there are too few samples for any of them.
pub fn tail_percentile(count: usize) -> Option<f64> {
    [99.0, 95.0, 90.0, 75.0].into_iter().find(|p| count as f64 * (1.0 - p / 100.0) >= 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_ignores_input_order() {
        let a = [9.5, 0.25, 7.0, 3.0, 3.0, 100.0];
        let mut b = a;
        b.reverse();
        assert_eq!(median(&a), median(&b));
        assert_eq!(median(&a), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&v, 25.0) - 2.75).abs() < 1e-12);
        assert!((percentile(&v, 50.0) - 5.5).abs() < 1e-12);
        assert!((percentile(&v, 75.0) - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let w = [16.0, 1.0, 8.0, 2.0, 4.0];
        assert!((percentile(&w, 25.0) - 1.5).abs() < 1e-12);
        assert!((percentile(&w, 75.0) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_clamps_to_sample_range() {
        let v = [2.0, 4.0];
        assert_eq!(percentile(&v, 10.0), 2.0);
        assert_eq!(percentile(&v, 99.0), 4.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn percentile_rejects_empty_input() {
        percentile(&[], 50.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(150), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
    }
}
