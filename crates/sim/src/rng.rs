//! Deterministic randomness for the simulator.
//!
//! Every scenario derives all of its randomness from a single `u64` seed so
//! experiments are reproducible bit-for-bit. Distribution sampling (normal,
//! lognormal, exponential) is implemented here directly rather than pulling
//! in `rand_distr`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random source with the distribution helpers the simulator needs.
///
/// # Examples
///
/// ```
/// use pod_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.uniform_u64(0, 100), b.uniform_u64(0, 100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    /// Cached second value from the Box–Muller transform.
    spare_normal: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a scenario seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform_u64 requires lo < hi");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        self.inner.gen_range(0..n)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen::<f64>() < p
        }
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1: f64 = 1.0 - self.inner.gen::<f64>();
        let u2: f64 = self.inner.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Lognormal sample: `exp(N(mu, sigma))`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = 1.0 - self.inner.gen::<f64>();
        -mean * u.ln()
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.index(slice.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1_000_000), b.uniform_u64(0, 1_000_000));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn normal_moments_roughly_match() {
        let mut r = SimRng::seed_from(99);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn exponential_mean_roughly_matches() {
        let mut r = SimRng::seed_from(3);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn lognormal_is_positive() {
        let mut r = SimRng::seed_from(4);
        for _ in 0..1000 {
            assert!(r.lognormal(-1.0, 1.5) > 0.0);
        }
    }
}
