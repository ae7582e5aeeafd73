//! Order statistics over timing samples.

/// Sorted copy of `xs` (total order, so a stray NaN cannot panic).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle sample, or the mean of the two middle samples for
/// an even count. `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some(0.5 * (v[n / 2 - 1] + v[n / 2])),
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of all samples at or below it. `p` is clamped to `(0, 100]`; `None`
/// for no samples.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Arithmetic mean; `None` for no samples.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        // 1000 samples: p99 leaves exactly ten samples above it.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(xs.iter().filter(|&&x| x > 990.0).count(), 10);
    }

    #[test]
    fn percentile_edges() {
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[7.0, 8.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Fewer than 100 samples: p99 is the maximum.
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(40.0));
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
