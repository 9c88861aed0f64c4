//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The highest order statistic with at least ten samples above it,
/// returned with its percentile (share of samples at or below it).
/// With ten or fewer samples no such statistic exists and the maximum
/// is returned instead, at percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return (0.0, 100.0);
    }
    if n <= 10 {
        return (s[n - 1], 100.0);
    }
    let rank = n - 11;
    (s[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

/// `(max - min) / median`: the relative range of a set of samples.
pub fn relative_range(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let s = sorted(xs);
    (s[s.len() - 1] - s[0]) / m
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (v, pct) = tail(&xs);
        assert_eq!(v, 30.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(pct, 75.0);
        assert_eq!(tail(&[1.0, 5.0, 2.0]), (5.0, 100.0));
    }

    #[test]
    fn relative_range_is_zero_for_repeats() {
        assert_eq!(relative_range(&[7.0, 7.0, 7.0]), 0.0);
        assert_eq!(relative_range(&[1.0, 2.0, 3.0]), 1.0);
    }
}
