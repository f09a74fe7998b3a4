//! Order statistics over small sample sets.

/// Arithmetic mean of `values`; panics on an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Mean of `values` with the lowest and the highest eighth (rounded down)
/// left out: with twelve pieces, one from each end.  This is how a run
/// combines its pieces — an average, because the box's fast and slow
/// stretches have to be mixed in proportion rather than picked between,
/// less the extremes, because one stalled piece should not move it.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 8;
    mean(&v[cut..v.len() - cut])
}

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in 0..=1 (the rule
/// `xorp_harness::stats::percentile` uses, over floats).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).max(1);
    v[rank - 1]
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the default exclusive method) — the acceptance procedure
/// measures spread with exactly that rule.  Needs two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as i64;
    let cut = |i: i64| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1) - j * 4) as f64;
        (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        // Fewer than eight values: nothing is cut.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0]), 3.0);
        // Twelve: the 100 and the 0 go.
        let mut v = vec![5.0; 10];
        v.extend([100.0, 0.0]);
        assert_eq!(trimmed_mean(&v), 5.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(|x| x as f64 * 10.0).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 100.0);
        assert_eq!(percentile(&v, 0.0), 10.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|x| x as f64).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
    }
}
