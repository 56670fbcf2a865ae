//! Order statistics over a handful of repetitions.
//!
//! Nine to a few dozen samples support a median and quartiles and no
//! higher percentile, so that is all there is here.

/// Median of `xs` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one repetition.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// First, second and third quartile by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), which is
/// what the acceptance check of this benchmark is stated in. A single
/// sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(!xs.is_empty(), "quartiles of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m == 1 {
        return [v[0]; 3];
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the bounds are compared against.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
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
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(quartiles(&nine), [2.5, 5.0, 7.5]);
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(spread(&nine), 1.0);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
