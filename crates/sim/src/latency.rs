//! Latency models for simulated API calls and operation steps.
//!
//! The evaluation in the paper reports wall-clock diagnosis times that are
//! dominated by cloud API round-trips (each ≈ 70–90 ms in the paper's sample
//! diagnosis log) plus retries caused by eventual consistency. These models
//! let the simulator reproduce that *shape* without real network calls.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// A distribution over durations.
///
/// # Examples
///
/// ```
/// use pod_sim::{LatencyModel, SimRng};
///
/// let model = LatencyModel::uniform_millis(70, 90);
/// let mut rng = SimRng::seed_from(1);
/// let d = model.sample(&mut rng);
/// assert!(d.as_millis() >= 70 && d.as_millis() < 90);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum LatencyModel {
    /// Always exactly this long.
    Fixed(SimDuration),
    /// Uniform between two bounds (inclusive low, exclusive high).
    Uniform {
        /// Lower bound (inclusive).
        low: SimDuration,
        /// Upper bound (exclusive).
        high: SimDuration,
    },
    /// Lognormal in seconds: `exp(N(mu, sigma))`, the classic heavy-tailed
    /// model for network round trips.
    LogNormal {
        /// Mean of the underlying normal (of ln-seconds).
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean duration.
        mean: SimDuration,
    },
}

impl LatencyModel {
    /// Uniform latency between `low` and `high` milliseconds.
    pub const fn uniform_millis(low: u64, high: u64) -> Self {
        LatencyModel::Uniform {
            low: SimDuration::from_millis(low),
            high: SimDuration::from_millis(high),
        }
    }

    /// Lognormal latency parameterised by its *median* (in milliseconds) and
    /// the sigma of the underlying normal. The median form is easier to
    /// calibrate against observed data than `mu` directly.
    pub fn lognormal_median_millis(median_ms: f64, sigma: f64) -> Self {
        LatencyModel::LogNormal {
            mu: (median_ms / 1000.0).ln(),
            sigma,
        }
    }

    /// Draws one duration from the model.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match self {
            LatencyModel::Fixed(d) => *d,
            LatencyModel::Uniform { low, high } => {
                if high <= low {
                    *low
                } else {
                    SimDuration::from_micros(rng.uniform_u64(low.as_micros(), high.as_micros()))
                }
            }
            LatencyModel::LogNormal { mu, sigma } => {
                SimDuration::from_secs_f64(rng.lognormal(*mu, *sigma))
            }
            LatencyModel::Exponential { mean } => {
                SimDuration::from_secs_f64(rng.exponential(mean.as_secs_f64()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_fixed() {
        let mut rng = SimRng::seed_from(0);
        let m = LatencyModel::Fixed(SimDuration::from_millis(80));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(80));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::seed_from(1);
        let m = LatencyModel::uniform_millis(10, 20);
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= SimDuration::from_millis(10) && d < SimDuration::from_millis(20));
        }
    }

    #[test]
    fn degenerate_uniform_returns_low() {
        let mut rng = SimRng::seed_from(1);
        let m = LatencyModel::Uniform {
            low: SimDuration::from_millis(5),
            high: SimDuration::from_millis(5),
        };
        assert_eq!(m.sample(&mut rng), SimDuration::from_millis(5));
    }

    #[test]
    fn lognormal_median_is_calibrated() {
        let m = LatencyModel::lognormal_median_millis(80.0, 0.3);
        let mut rng = SimRng::seed_from(42);
        let mut samples: Vec<u64> = (0..20_000)
            .map(|_| m.sample(&mut rng).as_millis())
            .collect();
        samples.sort_unstable();
        let ms = crate::nearest_rank(&samples, 0.5).unwrap() as f64;
        assert!((ms - 80.0).abs() < 5.0, "median {ms}ms");
    }
}
