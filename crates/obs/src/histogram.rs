//! The histogram: log-scale (HDR-style) buckets with tail exemplars.
//!
//! The interesting latencies span five orders of magnitude (≈10 ms
//! conformance calls, 70–90 ms API calls, 1.29–10.44 s diagnoses, minutes
//! of queue wait under overload), so instead of bounds chosen up front a
//! [`Histogram`] uses base-2 buckets with 8 linear sub-buckets per octave:
//! bucket index is computed from the value's bit pattern in O(1) (no
//! bounds search), the relative quantile error is bounded by 1/8 = 12.5%
//! everywhere, and the layout is identical for every instance, so
//! snapshots merge and diff element-wise.
//!
//! Tail observations can carry an **exemplar** — the virtual timestamp,
//! the causal event id and free-form labels (operation, instance, shard) of
//! one concrete observation — so a p99 read from the histogram links
//! straight back to the run that produced it. Exemplar capture is guarded
//! by an atomic bar: once the reservoir is full, observations at or below
//! the smallest retained exemplar value — ties included, which never
//! enter — neither take the lock nor build labels.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pod_sim::SimTime;

/// log2 of the number of linear sub-buckets per octave.
const SUB_BITS: u32 = 3;
/// Linear sub-buckets per octave (8 → ≤ 12.5% relative error).
const SUB: u64 = 1 << SUB_BITS;
/// Octaves above the exact range; the top bound is `(2*SUB << 36) - 1`
/// ≈ 2^40 µs ≈ 12.7 virtual days — far beyond any virtual-time latency.
const OCTAVES: u32 = 37;
/// Bounded buckets (one more overflow bucket follows).
const NUM_BOUNDS: usize = SUB as usize + (OCTAVES as usize) * SUB as usize;
/// Retained tail exemplars per histogram.
pub const EXEMPLAR_CAP: usize = 8;

/// The bucket a value lands in, computed from its bit pattern.
fn index_for(value: u64) -> usize {
    if value < SUB {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let octave = msb - SUB_BITS;
    if octave >= OCTAVES {
        return NUM_BOUNDS; // overflow bucket
    }
    let offset = ((value >> octave) - SUB) as usize;
    SUB as usize + octave as usize * SUB as usize + offset
}

/// The inclusive upper bound of bounded bucket `index` (`< NUM_BOUNDS`):
/// the inverse of [`index_for`].
fn upper_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        return index; // values 0..SUB are exact (unit-width buckets)
    }
    let (octave, m) = ((index - SUB) / SUB, (index - SUB) % SUB);
    ((SUB + m + 1) << octave) - 1
}

/// One concrete tail observation retained alongside a histogram, linking an
/// aggregate quantile back to the run that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// The observed value (same unit as the histogram).
    pub value: u64,
    /// Virtual time of the observation.
    pub at: SimTime,
    /// The causal event the observation belongs to, when known — the hook
    /// into [`crate::incidents`] timelines.
    pub event: Option<u64>,
    /// Free-form labels, e.g. `op`, `instance`, `shard`.
    pub labels: Vec<(String, String)>,
}

#[derive(Debug)]
struct HistogramInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// The smallest value that can enter the exemplar reservoir: 0 while
    /// it has room, then one above the smallest retained value (a tie keeps
    /// the earlier exemplar), so the hot path turns non-tail values and
    /// ties away without the lock or label building.
    admit_from: AtomicU64,
    exemplars: Mutex<Vec<Exemplar>>,
}

/// A log-scale histogram of `u64` observations (microseconds, depths,
/// batch sizes...) with a bounded reservoir of tail [`Exemplar`]s. Cloning
/// shares the cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            buckets: (0..=NUM_BOUNDS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            admit_from: AtomicU64::new(0),
            exemplars: Mutex::new(Vec::new()),
        }))
    }

    /// Records one observation (no exemplar).
    pub fn record(&self, value: u64) {
        let h = &self.0;
        h.buckets[index_for(value)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(value, Ordering::Relaxed);
        h.min.fetch_min(value, Ordering::Relaxed);
        h.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records one observation and offers it to the tail-exemplar
    /// reservoir. `exemplar` is only called when the value is large enough
    /// to enter the reservoir, so label allocation stays off the common
    /// path.
    pub fn record_with<F: FnOnce() -> Exemplar>(&self, value: u64, exemplar: F) {
        self.record(value);
        if value < self.0.admit_from.load(Ordering::Relaxed) {
            return;
        }
        let mut pool = self.0.exemplars.lock();
        if pool.len() >= EXEMPLAR_CAP {
            // Evict the smallest retained exemplar; equal values keep the
            // earlier one (stable under re-observation of the same tail).
            let (weakest, weakest_value) = pool
                .iter()
                .enumerate()
                .map(|(i, e)| (i, e.value))
                .min_by_key(|&(_, v)| v)
                .expect("reservoir is non-empty at capacity");
            if value <= weakest_value {
                return;
            }
            pool.swap_remove(weakest);
        }
        pool.push(exemplar());
        if pool.len() >= EXEMPLAR_CAP {
            let floor = pool.iter().map(|e| e.value).min().unwrap_or(0);
            let admit_from = floor.saturating_add(1);
            self.0.admit_from.store(admit_from, Ordering::Relaxed);
        }
    }

    /// The retained tail exemplars, largest value first.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let mut out = self.0.exemplars.lock().clone();
        out.sort_by(|a, b| b.value.cmp(&a.value).then(a.at.cmp(&b.at)));
        out
    }

    /// Copies the current state.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let h = &self.0;
        HistogramSnapshot {
            buckets: h
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
            min: h.min.load(Ordering::Relaxed),
            max: h.max.load(Ordering::Relaxed),
        }
    }
}

/// The tail quantiles every summary reports, with their field names.
pub const TAIL_QUANTILES: [(&str, f64); 3] = [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)];

/// Immutable copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts over the shared log-scale layout (the
    /// last entry is the overflow bucket).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean observed value; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the buckets.
    ///
    /// **Semantics:** the estimate is the *inclusive upper bound* of the
    /// bucket containing the target rank, clamped to the observed
    /// `[min, max]` — so it is monotone in `q`, never under-reports, and is
    /// always bounded by real observations. `q = 0` returns the exact
    /// `min`, `q = 1` the exact `max`.
    ///
    /// **Error bound:** the estimate exceeds the true quantile by at most
    /// one bucket's width — with 8 sub-buckets per octave a relative error
    /// ≤ 1/8 = 12.5% (values ≥ 2^40 fall in the overflow bucket, where the
    /// estimate is the observed `max`). Returns `None` when the histogram
    /// is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        let mut estimate = self.max;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                if i < NUM_BOUNDS {
                    estimate = upper_bound(i);
                }
                break;
            }
        }
        Some(estimate.clamp(self.min, self.max))
    }

    /// The counts-since `earlier`: buckets, count and sum subtract
    /// (saturating); min/max are kept from `self` since decomposing
    /// extremes is not possible.
    pub(crate) fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(&earlier.buckets)
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
        }
    }

    /// Merges another snapshot into this one (campaign aggregation across
    /// runs), bucket by bucket.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_ascend_and_invert_the_index_function() {
        assert!(
            (1..NUM_BOUNDS).all(|i| upper_bound(i - 1) < upper_bound(i)),
            "bounds must ascend"
        );
        assert_eq!(upper_bound(NUM_BOUNDS - 1), (1 << 40) - 1);
        // A value's bucket is the first whose upper bound reaches it.
        for value in (0..4096u64)
            .chain((0..50).map(|i| 1u64 << (i % 40)))
            .chain([(1 << 40) - 1, 1 << 40, u64::MAX])
        {
            let i = index_for(value);
            assert!(i == NUM_BOUNDS || upper_bound(i) >= value, "value {value}");
            assert!(i == 0 || upper_bound(i - 1) < value, "value {value}");
        }
    }

    #[test]
    fn relative_error_is_bounded_by_an_eighth() {
        for value in [8u64, 100, 999, 70_000, 1_290_000, 10_440_000] {
            let bound = upper_bound(index_for(value));
            assert!(bound >= value);
            let err = (bound - value) as f64 / value as f64;
            assert!(err <= 0.125, "value {value} bound {bound} err {err}");
        }
    }

    #[test]
    fn snapshot_quantiles_track_the_tail() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000);
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        let p50 = snap.quantile(0.5).unwrap();
        assert!((1_000..=1_125).contains(&p50), "p50 {p50}");
        // Rank 99 of 100 is still a 1 ms observation; only the very last
        // rank reaches the 1 s outlier.
        let p99 = snap.quantile(0.99).unwrap();
        assert!((1_000..=1_125).contains(&p99), "p99 {p99}");
        assert_eq!(snap.quantile(0.995), Some(1_000_000));
        assert_eq!(snap.quantile(1.0), Some(1_000_000));
    }

    #[test]
    fn exemplars_keep_the_largest_observations() {
        let h = Histogram::new();
        let mut built = 0u32;
        for v in (0..100u64).rev() {
            h.record_with(v * 10, || {
                built += 1;
                Exemplar {
                    value: v * 10,
                    at: SimTime::from_micros(v),
                    event: Some(v),
                    labels: vec![("op".to_string(), format!("i-{v}"))],
                }
            });
        }
        let tail = h.exemplars();
        assert_eq!(tail.len(), EXEMPLAR_CAP);
        assert_eq!(tail[0].value, 990);
        assert!(tail.iter().all(|e| e.value >= 920), "{tail:?}");
        // The floor keeps label construction off the common path: once the
        // reservoir is full, below-floor values never build an exemplar.
        assert!(
            (built as usize) < 100,
            "floor never engaged: {built} exemplars built"
        );
        let h2 = Histogram::new();
        h2.record_with(5, || Exemplar {
            value: 5,
            at: SimTime::ZERO,
            event: None,
            labels: Vec::new(),
        });
        assert_eq!(h2.exemplars().len(), 1);
    }

    #[test]
    fn a_full_reservoir_turns_ties_away_and_admits_larger_values() {
        let h = Histogram::new();
        let offer = |value: u64, at: u64| {
            let mut built = false;
            h.record_with(value, || {
                built = true;
                Exemplar {
                    value,
                    at: SimTime::from_micros(at),
                    event: None,
                    labels: Vec::new(),
                }
            });
            built
        };
        // A floor of 0 is still a full reservoir's floor.
        for at in 0..EXEMPLAR_CAP as u64 {
            assert!(offer(0, at), "room left: every value enters");
        }
        let full = h.exemplars();
        assert!(!offer(0, 99), "a tie at a floor of 0 builds nothing");
        assert_eq!(h.exemplars(), full, "and leaves the reservoir unchanged");
        // Raise every retained value to 10 000, the replay latency's tie.
        for at in 0..EXEMPLAR_CAP as u64 {
            assert!(offer(10_000, at));
        }
        let full = h.exemplars();
        assert!(full.iter().all(|e| e.value == 10_000));
        for at in 100..200 {
            assert!(!offer(10_000, at), "ties never enter");
        }
        assert_eq!(h.exemplars(), full);
        // A larger value still evicts one of the weakest.
        assert!(offer(10_001, 500));
        let tail = h.exemplars();
        assert_eq!(tail.len(), EXEMPLAR_CAP);
        assert_eq!(
            (tail[0].value, tail[0].at),
            (10_001, SimTime::from_micros(500))
        );
        assert_eq!(
            tail.iter().filter(|e| e.value == 10_000).count(),
            EXEMPLAR_CAP - 1
        );
    }

    #[test]
    fn overflow_values_land_in_the_overflow_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[NUM_BOUNDS], 1);
        assert_eq!(snap.quantile(0.5), Some(u64::MAX));
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let h = Histogram::new();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record_with(t * 1000 + i, || Exemplar {
                            value: t * 1000 + i,
                            at: SimTime::from_micros(i),
                            event: None,
                            labels: Vec::new(),
                        });
                    }
                })
            })
            .collect();
        for j in handles {
            j.join().unwrap();
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 4000);
        assert_eq!(h.exemplars().len(), EXEMPLAR_CAP);
    }
}
