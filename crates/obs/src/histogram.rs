//! The histogram: log-scale (HDR-style) buckets with tail exemplars.
//!
//! The interesting latencies span five orders of magnitude (≈10 ms
//! conformance calls, 70–90 ms API calls, 1.29–10.44 s diagnoses, minutes
//! of queue wait under overload), so instead of bounds chosen up front a
//! [`Histogram`] uses base-2 buckets with 8 linear sub-buckets per octave:
//! bucket index is computed from the value's bit pattern in O(1) (no
//! bounds search), the relative quantile error is bounded by 1/8 = 12.5%
//! everywhere, and the layout is identical for every instance, so a
//! histogram keeps only the buckets it has counted, as a canonical sparse
//! list on that layout that merges and diffs by walking the counted ones.
//!
//! Tail observations can carry an **exemplar** — the virtual timestamp,
//! the causal event id and free-form labels (operation, instance, shard) of
//! one concrete observation — so a p99 read from the histogram links
//! straight back to the run that produced it. Exemplar capture is guarded
//! by an atomic bar: once the reservoir is full, observations at or below
//! the smallest retained exemplar value — ties included, which never
//! enter — neither take the reservoir's lock nor build labels.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pod_sim::SimTime;

use crate::event::AttrValue;

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
    /// Labels, e.g. `op`, `instance`, `shard`: keys are literals and
    /// values are kept as an event attribute keeps them (shared, static or
    /// a count), rendered when read.
    pub labels: Vec<(&'static str, AttrValue)>,
}

#[derive(Debug, Default)]
struct HistogramInner {
    state: Mutex<HistogramSnapshot>,
    /// The smallest value that can enter the exemplar reservoir: 0 while
    /// it has room, then one above the smallest retained value (a tie keeps
    /// the earlier exemplar), so the hot path turns non-tail values and
    /// ties away without the lock or label building.
    admit_from: AtomicU64,
    exemplars: Mutex<Vec<Exemplar>>,
}

/// A log-scale histogram of `u64` observations (microseconds, depths,
/// batch sizes...) with a bounded reservoir of tail [`Exemplar`]s. Cloning
/// shares the cells; `default()` is empty.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one observation (no exemplar).
    pub fn record(&self, value: u64) {
        let mut h = self.0.state.lock();
        h.add(index_for(value), 1);
        h.count += 1;
        h.sum = h.sum.saturating_add(value);
        h.min = h.min.min(value);
        h.max = h.max.max(value);
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
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.state.lock().clone()
    }
}

/// The tail quantiles every summary reports, with their field names.
pub const TAIL_QUANTILES: [(&str, f64); 3] = [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)];

/// Immutable copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// The counted buckets as (index, count): indices strictly ascending,
    /// no count zero, so `==` means "same distribution" (`NUM_BOUNDS` is
    /// the overflow bucket).
    buckets: Vec<(usize, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, saturating at `u64::MAX`.
    pub sum: u64,
    /// Smallest observed value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
}

/// The empty snapshot, the identity of [`HistogramSnapshot::merge`].
impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Adds `n` (> 0) observations to bucket `index`, keeping it canonical.
    fn add(&mut self, index: usize, n: u64) {
        match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(at) => self.buckets[at].1 = self.buckets[at].1.saturating_add(n),
            Err(at) => self.buckets.insert(at, (index, n)),
        }
    }

    /// The count in bucket `index` (0 when it holds none).
    fn bucket(&self, index: usize) -> u64 {
        self.buckets
            .binary_search_by_key(&index, |&(i, _)| i)
            .map_or(0, |at| self.buckets[at].1)
    }

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
        for &(i, n) in &self.buckets {
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
                .map(|&(i, now)| (i, now.saturating_sub(earlier.bucket(i))))
                .filter(|&(_, n)| n > 0)
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: self.min,
            max: self.max,
        }
    }

    /// Merges another snapshot into this one (campaign aggregation across
    /// runs), bucket by bucket; tallies saturate like [`Histogram::record`].
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for &(i, n) in &other.buckets {
            self.add(i, n);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let h = Histogram::default();
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
        let h = Histogram::default();
        let mut built = 0u32;
        for v in (0..100u64).rev() {
            h.record_with(v * 10, || {
                built += 1;
                Exemplar {
                    value: v * 10,
                    at: SimTime::from_micros(v),
                    event: Some(v),
                    labels: vec![("op", format!("i-{v}").into())],
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
        let h2 = Histogram::default();
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
        let h = Histogram::default();
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
        let h = Histogram::default();
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, [(NUM_BOUNDS, 1)]);
        assert_eq!(snap.quantile(0.5), Some(u64::MAX));
    }

    #[test]
    fn concurrent_recording_is_consistent() {
        let h = Histogram::default();
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
        assert_eq!(snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 4000);
        assert_eq!(h.exemplars().len(), EXEMPLAR_CAP);
        fn shared_across_threads<T: Send + Sync>(_: &T) {}
        shared_across_threads(&h);
    }

    #[test]
    fn record_saturates_the_sum() {
        let h = Histogram::default();
        h.record(u64::MAX);
        h.record(2);
        let snap = h.snapshot();
        assert_eq!((snap.count, snap.sum), (2, u64::MAX));
        assert_eq!(snap.mean(), u64::MAX as f64 / 2.0);
    }

    #[test]
    fn merge_saturates_the_sum() {
        let h = Histogram::default();
        h.record(u64::MAX);
        let mut total = h.snapshot();
        total.merge(&h.snapshot());
        assert_eq!((total.count, total.sum), (2, u64::MAX));
        assert_eq!(total.buckets, [(NUM_BOUNDS, 2)]);
    }

    /// The layout the sparse list stands for: one counter per bucket, with
    /// the tallies, extremes, quantile, diff and merge written out densely.
    #[derive(Clone)]
    struct Dense {
        buckets: Vec<u64>,
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    }

    impl Dense {
        fn new() -> Dense {
            Dense {
                buckets: vec![0; NUM_BOUNDS + 1],
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }
        }

        fn record(&mut self, value: u64) {
            self.buckets[index_for(value)] += 1;
            self.count += 1;
            self.sum = self.sum.saturating_add(value);
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }

        fn quantile(&self, q: f64) -> Option<u64> {
            if self.count == 0 {
                return None;
            }
            if q <= 0.0 {
                return Some(self.min);
            }
            if q >= 1.0 {
                return Some(self.max);
            }
            let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
            let mut cumulative = 0;
            let bucket = self.buckets.iter().position(|&n| {
                cumulative += n;
                cumulative >= target
            });
            let estimate = match bucket {
                Some(i) if i < NUM_BOUNDS => upper_bound(i),
                _ => self.max,
            };
            Some(estimate.clamp(self.min, self.max))
        }

        fn diff(&self, earlier: &Dense) -> Dense {
            Dense {
                buckets: self
                    .buckets
                    .iter()
                    .zip(&earlier.buckets)
                    .map(|(now, then)| now.saturating_sub(*then))
                    .collect(),
                count: self.count.saturating_sub(earlier.count),
                sum: self.sum.saturating_sub(earlier.sum),
                ..*self
            }
        }

        fn merge(&mut self, other: &Dense) {
            for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
                *mine += theirs;
            }
            self.count += other.count;
            self.sum = self.sum.saturating_add(other.sum);
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// `sparse` holds what `dense` holds, canonically, and reads the same
    /// quantiles.
    fn assert_same(sparse: &HistogramSnapshot, dense: &Dense, what: &str) {
        assert!(
            sparse.buckets.windows(2).all(|w| w[0].0 < w[1].0),
            "{what}: indices ascend strictly: {:?}",
            sparse.buckets
        );
        assert!(
            sparse.buckets.iter().all(|&(_, n)| n > 0),
            "{what}: no zero counts: {:?}",
            sparse.buckets
        );
        let nonzero: Vec<(usize, u64)> = (0..=NUM_BOUNDS)
            .filter(|&i| dense.buckets[i] > 0)
            .map(|i| (i, dense.buckets[i]))
            .collect();
        assert_eq!(sparse.buckets, nonzero, "{what}: buckets");
        assert_eq!(
            (sparse.count, sparse.sum, sparse.min, sparse.max),
            (dense.count, dense.sum, dense.min, dense.max),
            "{what}: count, sum, min, max"
        );
        for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(sparse.quantile(q), dense.quantile(q), "{what}: q={q}");
        }
    }

    fn value() -> impl Strategy<Value = u64> {
        prop_oneof![
            prop::sample::select(vec![0, 7, 8, (1 << 40) - 1, 1 << 40, u64::MAX]),
            0u64..4096,
            0u64..1 << 41,
            any::<u64>(),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Two histograms recorded from random streams agree with the dense
        /// reference on every read, on `diff` against an earlier snapshot
        /// and on their `merge`.
        #[test]
        fn sparse_buckets_agree_with_a_dense_reference(
            a in prop::collection::vec(value(), 0..40),
            b in prop::collection::vec(value(), 0..40),
            split in 0usize..40,
        ) {
            let split = split.min(a.len());
            let (h, mut dense) = (Histogram::default(), Dense::new());
            for &v in &a[..split] {
                h.record(v);
                dense.record(v);
            }
            let (early, dense_early) = (h.snapshot(), dense.clone());
            assert_same(&early, &dense_early, "early");
            for &v in &a[split..] {
                h.record(v);
                dense.record(v);
            }
            let late = h.snapshot();
            assert_same(&late, &dense, "late");
            assert_same(&late.diff(&early), &dense.diff(&dense_early), "diff");
            assert_same(&early.diff(&late), &dense_early.diff(&dense), "reverse diff");

            let (g, mut dense_b) = (Histogram::default(), Dense::new());
            for &v in &b {
                g.record(v);
                dense_b.record(v);
            }
            let mut merged = late.clone();
            merged.merge(&g.snapshot());
            let mut dense_merged = dense.clone();
            dense_merged.merge(&dense_b);
            assert_same(&merged, &dense_merged, "merge");
        }
    }
}
