//! Sample statistics: nearest-rank quantiles and the sample-count gate
//! that keeps a reported tail percentile honest.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; fewer would make the "tail" a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples. The small
/// epsilon keeps `0.9 * 100` from rounding up to rank 91.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil()).clamp(1.0, n as f64) as usize
}

/// Nearest-rank quantile of `sorted` (ascending): the smallest sample
/// with at least `q · n` samples at or below it. `None` when empty.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(q, sorted.len()) - 1])
}

/// Median (nearest rank, lower middle for even counts).
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(&sorted(samples), 0.5)
}

/// The `q` quantile of `samples`, refused unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn gated_tail(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    if n == 0 || n - rank(q, n) < MIN_BEYOND {
        return Err(format!(
            "p{:.0} needs at least {:.0} samples ({MIN_BEYOND} beyond it), got {n}",
            q * 100.0,
            (MIN_BEYOND as f64 / (1.0 - q)).ceil()
        ));
    }
    quantile(&sorted(samples), q).ok_or_else(|| "no samples".to_string())
}

/// The fewest samples that leave [`MIN_BEYOND`] beyond the `q` quantile.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| n - rank(q, n) >= MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// An ascending copy of `samples` (total order, so NaN cannot panic).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(5.0));
        assert_eq!(quantile(&v, 0.75), Some(8.0));
        assert_eq!(quantile(&v, 0.9), Some(9.0));
        assert_eq!(quantile(&v, 0.91), Some(10.0));
        assert_eq!(quantile(&v, 1.0), Some(10.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(
            gated_tail(&v, 0.9).is_err(),
            "99 samples leave 9 beyond p90"
        );
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(gated_tail(&v, 0.9), Ok(90.0));
        let err = gated_tail(&v, 0.99).expect_err("p99 of 100 samples");
        assert!(err.contains("1000 samples"), "{err}");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(gated_tail(&v, 0.99), Ok(990.0));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(gated_tail(&v, 0.75), Ok(30.0));
        assert!(gated_tail(&[], 0.5).is_err());
        assert_eq!(min_samples(0.75), 40);
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.95), 200);
        assert_eq!(min_samples(0.99), 1000);
    }
}
