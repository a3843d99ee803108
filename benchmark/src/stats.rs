//! Order statistics the benchmark reports: medians, percentiles, the tail
//! percentile a sample supports and quartile spread.

/// Percentile `p` (in `[0, 1]`) of `sorted` by the nearest-rank rule: the
/// smallest sample with at least `p` of the samples at or below it.
/// `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the mean of the two middle samples for an even count, so a
/// two-sample median is not simply the larger one.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Samples strictly beyond percentile `p` in a sample of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// The highest of p90/p99/p99.9 that leaves at least ten samples beyond it
/// in a sample of `n`, or `None` when not even p90 does. A workload's tail
/// percentile is fixed in its source, no higher than this rule allows at
/// the nominal run length.
pub fn supported_tail(n: usize) -> Option<f64> {
    [0.90, 0.99, 0.999]
        .into_iter()
        .rev()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Distance between the first and third quartile as a share of the median —
/// the spread figure printed beside every end-to-end metric. Quartiles
/// follow Python's `statistics.quantiles(values, n=4)` (exclusive method),
/// which is what the acceptance check uses. Fewer than two samples, or a
/// zero median, have no spread.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let v = sorted(values);
    let m = v.len();
    let quartile = |i: usize| {
        let pos = (i * (m + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, m - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let mid = median(&v);
    if mid == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p90 leaves n/10 beyond it: 99 samples leave 9, 100 leave 10.
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(0.90));
        assert_eq!(supported_tail(999), Some(0.90));
        assert_eq!(supported_tail(1_000), Some(0.99));
        assert_eq!(supported_tail(9_999), Some(0.99));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(samples_beyond(904, 0.99), 9);
        assert_eq!(samples_beyond(5_424, 0.99), 54);
    }

    #[test]
    fn quartile_spread_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }
}
