//! Distribution statistics for diagnosis times (Figure 6).

use pod_sim::SimDuration;

/// Summary statistics plus a histogram over a duration sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimingStats {
    samples: Vec<SimDuration>,
}

impl TimingStats {
    /// Builds stats from a sample (sorted internally).
    pub fn new(mut samples: Vec<SimDuration>) -> TimingStats {
        samples.sort_unstable();
        TimingStats { samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Minimum, or zero when empty.
    pub fn min(&self) -> SimDuration {
        self.samples.first().copied().unwrap_or(SimDuration::ZERO)
    }

    /// Maximum, or zero when empty.
    pub fn max(&self) -> SimDuration {
        self.samples.last().copied().unwrap_or(SimDuration::ZERO)
    }

    /// Arithmetic mean, or zero when empty.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let total: u64 = self.samples.iter().map(|d| d.as_micros()).sum();
        SimDuration::from_micros(total / self.samples.len() as u64)
    }

    /// The `q`-quantile (0 < q ≤ 1) by the nearest-rank method.
    pub fn percentile(&self, q: f64) -> SimDuration {
        assert!(q > 0.0 && q <= 1.0, "percentile requires 0 < q <= 1");
        pod_sim::nearest_rank(&self.samples, q).unwrap_or(SimDuration::ZERO)
    }

    /// Histogram with `buckets` equal-width bins between min and max.
    /// Returns `(bin_start, bin_end, count)` triples.
    pub fn histogram(&self, buckets: usize) -> Vec<(SimDuration, SimDuration, usize)> {
        assert!(buckets > 0, "histogram requires at least one bucket");
        if self.samples.is_empty() {
            return Vec::new();
        }
        let lo = self.min().as_micros();
        let hi = self.max().as_micros().max(lo + 1);
        let width = (hi - lo).div_ceil(buckets as u64).max(1);
        let mut bins = vec![0usize; buckets];
        for s in &self.samples {
            let idx = (((s.as_micros() - lo) / width) as usize).min(buckets - 1);
            bins[idx] += 1;
        }
        bins.into_iter()
            .enumerate()
            .map(|(i, count)| {
                (
                    SimDuration::from_micros(lo + width * i as u64),
                    SimDuration::from_micros(lo + width * (i as u64 + 1)),
                    count,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(ms: &[u64]) -> TimingStats {
        TimingStats::new(ms.iter().map(|m| SimDuration::from_millis(*m)).collect())
    }

    #[test]
    fn basic_stats() {
        let s = stats(&[3000, 1000, 2000]);
        assert_eq!(s.min(), SimDuration::from_millis(1000));
        assert_eq!(s.max(), SimDuration::from_millis(3000));
        assert_eq!(s.mean(), SimDuration::from_millis(2000));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let s = stats(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(s.percentile(0.5), SimDuration::from_millis(50));
        assert_eq!(s.percentile(0.95), SimDuration::from_millis(100));
        assert_eq!(s.percentile(1.0), SimDuration::from_millis(100));
        assert_eq!(s.percentile(0.01), SimDuration::from_millis(10));
    }

    #[test]
    fn histogram_partitions_all_samples() {
        let s = stats(&[100, 200, 300, 400, 500, 600, 700, 800]);
        let h = s.histogram(4);
        assert_eq!(h.len(), 4);
        let total: usize = h.iter().map(|(_, _, c)| c).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn empty_sample_is_safe() {
        let s = TimingStats::new(Vec::new());
        assert!(s.is_empty());
        assert_eq!(s.mean(), SimDuration::ZERO);
        assert_eq!(s.percentile(0.95), SimDuration::ZERO);
        assert!(s.histogram(5).is_empty());
    }

    #[test]
    fn single_sample_histogram() {
        let s = stats(&[42]);
        let h = s.histogram(3);
        let total: usize = h.iter().map(|(_, _, c)| c).sum();
        assert_eq!(total, 1);
    }
}
