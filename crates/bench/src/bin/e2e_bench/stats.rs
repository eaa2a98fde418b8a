//! Order statistics over small samples.

/// Quantile `q ∈ [0, 1]` by linear interpolation between order statistics
/// (`q = 0.5` of two values is their mean). 0.0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median (see [`quantile`]).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method: position `q·(n+1)`), which is
/// what the acceptance rule for the benchmark's spread uses.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |q: f64| {
        let pos = q * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(0.25), at(0.75))
}

/// Interquartile range (exclusive quartiles) as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles_exclusive(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Geometric mean of positive values (0.0 for an empty sample).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    fn exclusive_quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles_exclusive(&[4.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }
}
