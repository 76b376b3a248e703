//! Deterministic randomness for the simulator.
//!
//! Every scenario derives all of its randomness from a single `u64` seed so
//! experiments are reproducible bit-for-bit. The generator is xoshiro256++
//! seeded through splitmix64, and distribution sampling (normal, lognormal,
//! exponential) is implemented here directly. Every same-seed digest and
//! committed baseline depends on this exact algorithm.

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
    /// The xoshiro256++ state.
    s: [u64; 4],
    /// Cached second value from the Box–Muller transform.
    spare_normal: Option<f64>,
}

/// One splitmix64 step: spreads a seed over the generator's state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a scenario seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            spare_normal: None,
        }
    }

    /// The next 64 uniformly distributed bits (one xoshiro256++ step).
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`: 53 uniform bits.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "uniform_u64 requires lo < hi");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index requires a non-empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid ln(0) by sampling u1 from (0, 1].
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
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
        let u = 1.0 - self.unit();
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
        // The splitmix64-seeded xoshiro256++ stream every digest depends on.
        let mut r = SimRng::seed_from(42);
        let draws: Vec<u64> = (0..3).map(|_| r.uniform_u64(0, 1_000_000)).collect();
        assert_eq!(draws, [233_951, 364_753, 481_100]);
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
