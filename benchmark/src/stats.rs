//! Order statistics over wall-clock samples.
//!
//! Everything here is nearest-rank (the same rule as
//! `pod_eval::TimingStats::percentile`), so a reported percentile is always
//! one of the samples and the two ledgers read the same way.

/// The `q`-quantile (0 < q ≤ 1) of `sorted` by the nearest-rank method.
///
/// # Panics
///
/// Panics when `sorted` is empty or `q` is outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(q > 0.0 && q <= 1.0, "percentile requires 0 < q <= 1");
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Minimum, quartiles and median of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample: the estimate of a deterministic computation's cost
    /// under additive noise.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises a non-empty sample.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary {
            n: sorted.len(),
            min: sorted[0],
            q1: percentile(&sorted, 0.25),
            median: percentile(&sorted, 0.5),
            q3: percentile(&sorted, 0.75),
        }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// `num / den`, or 0 when the denominator is 0 (an idle layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(|v| v as f64 * 10.0).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.95), 100.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.01), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn summary_orders_and_takes_quartiles() {
        let s = Summary::of(&[8.0, 1.0, 5.0, 3.0, 7.0, 2.0, 6.0, 4.0]);
        assert_eq!(s.n, 8);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.q3, 6.0);
        assert_eq!(s.iqr(), 4.0);
    }

    #[test]
    fn summary_of_one_sample_is_that_sample() {
        let s = Summary::of(&[2.5]);
        assert_eq!((s.min, s.q1, s.median, s.q3), (2.5, 2.5, 2.5, 2.5));
    }

    #[test]
    fn ratio_of_an_idle_layer_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
