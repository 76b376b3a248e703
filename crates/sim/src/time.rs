//! Virtual time primitives.
//!
//! All simulation time is measured in integer **microseconds** from the start
//! of the simulation. Using a fixed integer resolution keeps arithmetic exact
//! and the whole simulation deterministic across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, measured in microseconds since simulation start.
///
/// `SimTime` is ordered, copyable and cheap; it is the timestamp attached to
/// every log event, API call and diagnosis step in the simulator.
///
/// # Examples
///
/// ```
/// use pod_sim::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(1500);
/// assert_eq!(t.as_micros(), 1_500_000);
/// assert_eq!(t.to_string(), "1.500s");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time stamp from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time stamp from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time stamp from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Raw microseconds since simulation start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration elapsed since `earlier`, saturating at zero if `earlier`
    /// is in the future.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_ms = self.0 / 1_000;
        write!(f, "{}.{:03}s", total_ms / 1_000, total_ms % 1_000)
    }
}

/// Error returned when a string is not a recognizable [`SimTime`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTimeError {
    input: String,
}

impl fmt::Display for ParseTimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unparseable sim time {:?}", self.input)
    }
}

impl std::error::Error for ParseTimeError {}

impl std::str::FromStr for SimTime {
    type Err = ParseTimeError;

    /// Parses the [`Display`](fmt::Display) form (`"12.345s"`, fractional
    /// digits optional) or a bare microsecond count (`"12345000"`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseTimeError {
            input: s.to_string(),
        };
        let s = s.trim();
        if let Some(body) = s.strip_suffix('s') {
            let (secs, frac) = match body.split_once('.') {
                Some((secs, frac)) => (secs, frac),
                None => (body, ""),
            };
            if frac.len() > 6 || !frac.chars().all(|c| c.is_ascii_digit()) {
                return Err(err());
            }
            let secs: u64 = secs.parse().map_err(|_| err())?;
            // Right-pad the fraction to microseconds: "5" means 500ms.
            let mut frac_us: u64 = 0;
            for c in frac.chars().chain(std::iter::repeat('0')).take(6) {
                frac_us = frac_us * 10 + (c as u64 - '0' as u64);
            }
            // A count of seconds past `u64` microseconds is no time either.
            secs.checked_mul(1_000_000)
                .and_then(|us| us.checked_add(frac_us))
                .map(SimTime)
                .ok_or_else(err)
        } else {
            s.parse().map(SimTime).map_err(|_| err())
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

/// A span of virtual time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use pod_sim::SimDuration;
///
/// let d = SimDuration::from_millis(2300);
/// assert_eq!(d.as_secs_f64(), 2.3);
/// assert_eq!(d * 2, SimDuration::from_millis(4600));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((s * 1_000_000.0).round() as u64)
        }
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds as a floating point value.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}us", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{}ms", self.0 / 1_000)
        } else {
            let ms = self.0 / 1_000;
            write!(f, "{}.{:03}s", ms / 1_000, ms % 1_000)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl std::ops::Div<u64> for SimDuration {
    type Output = SimDuration;

    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(100);
        let d = SimDuration::from_millis(50);
        assert_eq!((t + d) - t, d);
        assert_eq!(
            t.duration_since(SimTime::ZERO),
            SimDuration::from_millis(100)
        );
    }

    #[test]
    fn duration_since_saturates() {
        let t = SimTime::from_millis(10);
        let later = SimTime::from_millis(20);
        assert_eq!(t.duration_since(later), SimDuration::ZERO);
    }

    #[test]
    fn seconds_past_the_microsecond_range_do_not_parse() {
        // 18 446 744 073 709 s is the last whole second `u64` microseconds hold.
        assert_eq!(
            "18446744073709.551615s".parse::<SimTime>(),
            Ok(SimTime(u64::MAX))
        );
        for bad in [
            "18446744073709.551616s",
            "18446744073710s",
            "99999999999999s",
        ] {
            assert!(bad.parse::<SimTime>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(2300).to_string(), "2.300s");
        assert_eq!(SimDuration::from_micros(800).to_string(), "800us");
        assert_eq!(SimDuration::from_millis(83).to_string(), "83ms");
        assert_eq!(SimDuration::from_millis(10440).to_string(), "10.440s");
    }

    #[test]
    fn parse_round_trips_display() {
        for t in [
            SimTime::ZERO,
            SimTime::from_millis(1_500),
            SimTime::from_secs(82),
        ] {
            let parsed: SimTime = t.to_string().parse().unwrap();
            assert_eq!(parsed, t);
        }
        assert_eq!(
            "2.5s".parse::<SimTime>().unwrap(),
            SimTime::from_millis(2_500)
        );
        assert_eq!("90s".parse::<SimTime>().unwrap(), SimTime::from_secs(90));
        assert_eq!(
            "1500".parse::<SimTime>().unwrap(),
            SimTime::from_micros(1_500)
        );
        for bad in ["", "s", "abc", "1.2345678s", "1.x2s", "-4s"] {
            assert!(bad.parse::<SimTime>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn from_secs_f64_clamps_and_rounds() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(0.0000015),
            SimDuration::from_micros(2)
        );
        assert_eq!(
            SimDuration::from_secs_f64(2.3),
            SimDuration::from_millis(2300)
        );
    }

    #[test]
    fn duration_ops() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d * 3, SimDuration::from_millis(300));
        assert_eq!(d / 4, SimDuration::from_millis(25));
        let total: SimDuration = vec![d, d, d].into_iter().sum();
        assert_eq!(total, SimDuration::from_millis(300));
    }
}
