//! Order statistics and a least-squares slope.

/// The `q`-quantile of `samples` (nearest rank on the sorted values,
/// interpolating between neighbours). `NaN` for no samples.
pub fn quantile(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
}

/// The median of `samples`.
pub fn median(samples: &[u64]) -> f64 {
    quantile(samples, 0.5)
}

/// The median of `values`; `NaN` for none.
pub fn median_f64(mut sorted: Vec<f64>) -> f64 {
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Least-squares slope of `y` over `x`; 0 when `x` does not vary.
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for &(x, y) in points {
        sxy += (x - mean_x) * (y - mean_y);
        sxx += (x - mean_x) * (x - mean_x);
    }
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let samples = [5, 1, 3, 2, 4];
        assert_eq!(median(&samples), 3.0);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 5.0);
        assert_eq!(quantile(&samples, 0.125), 1.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn slope_of_a_line() {
        let points: Vec<(f64, f64)> = (0..10).map(|x| (x as f64, 3.0 * x as f64 + 7.0)).collect();
        assert!((slope(&points) - 3.0).abs() < 1e-9);
        assert_eq!(slope(&[(1.0, 2.0), (1.0, 5.0)]), 0.0);
    }
}
