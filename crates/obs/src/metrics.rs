//! The metrics registry: counters, gauges, histograms, and point-in-time
//! snapshots with diff/merge support.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::histogram::{Exemplar, Histogram, HistogramSnapshot, EXEMPLAR_CAP};

/// A monotonically increasing counter. Cloning shares the underlying cell,
/// so handles can be cached on hot paths and bumped lock-free.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, open spans, ...).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Point-in-time copy of every metric in a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Tail exemplars by histogram name, largest value first.
    pub exemplars: BTreeMap<String, Vec<Exemplar>>,
}

impl Snapshot {
    /// The named counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The named histogram's tail exemplars (empty when absent).
    pub fn exemplars(&self, name: &str) -> &[Exemplar] {
        self.exemplars.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The change from `earlier` to `self`: counters and histogram
    /// tallies subtract (saturating); gauges keep their current value.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| match earlier.histograms.get(k) {
                Some(e) => (k.clone(), h.diff(e)),
                None => (k.clone(), h.clone()),
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
            exemplars: self.exemplars.clone(),
        }
    }

    /// Accumulates `other` into this snapshot (campaign aggregation):
    /// counters and histograms add; gauges keep the latest value; exemplar
    /// reservoirs combine and keep the largest values.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        for (k, tail) in &other.exemplars {
            let mine = self.exemplars.entry(k.clone()).or_default();
            mine.extend(tail.iter().cloned());
            mine.sort_by(|a, b| b.value.cmp(&a.value).then(a.at.cmp(&b.at)));
            mine.dedup();
            mine.truncate(EXEMPLAR_CAP);
        }
    }
}

/// The metrics of one kind, sorted by name. A name the binary contains is
/// kept as the literal; only a name built at run time is owned.
type Named<M> = Vec<(Cow<'static, str>, M)>;

/// The metric registered under `name` in `metrics`, created on first use:
/// a lookup is a binary search that allocates nothing.
fn named<M: Clone + Default>(metrics: &mut Named<M>, name: Cow<'static, str>) -> M {
    match metrics.binary_search_by(|(k, _)| k.as_ref().cmp(name.as_ref())) {
        Ok(at) => metrics[at].1.clone(),
        Err(at) => {
            let metric = M::default();
            metrics.insert(at, (name, metric.clone()));
            metric
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Named<Counter>,
    gauges: Named<Gauge>,
    histograms: Named<Histogram>,
}

/// The shared metrics registry. Cloning shares the same metric set;
/// handles returned from the accessors stay live after the registry is
/// dropped.
///
/// Each kind is one vector sorted by name. Metric names are literals
/// (`"cloud.api.calls"`), kept as given; the few built at run time (a
/// gateway shard's, a pipeline stage's) are passed as owned strings.
/// Asking again for a registered name copies nothing.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, created on first use.
    pub fn counter(&self, name: impl Into<Cow<'static, str>>) -> Counter {
        named(&mut self.inner.lock().counters, name.into())
    }

    /// The gauge registered under `name`, created on first use.
    pub fn gauge(&self, name: impl Into<Cow<'static, str>>) -> Gauge {
        named(&mut self.inner.lock().gauges, name.into())
    }

    /// The histogram registered under `name`, created on first use.
    /// Snapshots carry its state under [`Snapshot::histograms`] and its
    /// tail exemplars, if any, under [`Snapshot::exemplars`].
    pub fn histogram(&self, name: impl Into<Cow<'static, str>>) -> Histogram {
        named(&mut self.inner.lock().histograms, name.into())
    }

    /// Copies every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock();
        let mut histograms = BTreeMap::new();
        let mut exemplars = BTreeMap::new();
        for (k, h) in &inner.histograms {
            histograms.insert(k.to_string(), h.snapshot());
            let tail = h.exemplars();
            if !tail.is_empty() {
                exemplars.insert(k.to_string(), tail);
            }
        }
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, c)| (k.to_string(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, g)| (k.to_string(), g.get()))
                .collect(),
            histograms,
            exemplars,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.incr();
        c.add(4);
        assert_eq!(reg.counter("x").get(), 5, "handles share the cell");
        let g = reg.gauge("depth");
        g.set(3);
        assert_eq!(reg.gauge("depth").get(), 3);
    }

    #[test]
    fn a_name_is_registered_once_whether_literal_or_built() {
        let reg = Registry::new();
        for name in ["b.two", "a.one", "c.three"] {
            reg.counter(name).incr();
        }
        reg.counter(format!("a.{}", "one")).add(2);
        reg.counter(String::from("d.four")).incr();
        let inner = reg.inner.lock();
        let names: Vec<&str> = inner.counters.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(
            names,
            ["a.one", "b.two", "c.three", "d.four"],
            "sorted, each once"
        );
        assert!(
            matches!(inner.counters[0].0, Cow::Borrowed(_)),
            "a literal stays one"
        );
        assert!(matches!(inner.counters[3].0, Cow::Owned(_)));
        drop(inner);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.one"), 3);
        assert_eq!(snap.counters.len(), 4);
    }

    #[test]
    fn snapshot_diff_subtracts_counters_and_histograms() {
        let reg = Registry::new();
        let c = reg.counter("calls");
        let h = reg.histogram("lat");
        c.add(2);
        h.record(5);
        let before = reg.snapshot();
        c.add(3);
        h.record(50);
        h.record(500);
        let delta = reg.snapshot().diff(&before);
        assert_eq!(delta.counter("calls"), 3);
        let hs = delta.histogram("lat").unwrap();
        assert_eq!(hs.count, 2);
        // The lower rank is the 50 (bucket bound 51), not the subtracted 5.
        assert_eq!(hs.quantile(0.5), Some(51), "the 5 is subtracted");
        assert_eq!(hs.sum, 550);
    }

    #[test]
    fn snapshot_merge_accumulates() {
        let a_reg = Registry::new();
        a_reg.counter("calls").add(2);
        a_reg.histogram("lat").record(4);
        let b_reg = Registry::new();
        b_reg.counter("calls").add(5);
        b_reg.histogram("lat").record(40);
        let mut total = a_reg.snapshot();
        total.merge(&b_reg.snapshot());
        assert_eq!(total.counter("calls"), 7);
        let h = total.histogram("lat").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!((h.min, h.max), (4, 40));
        assert_eq!(h.quantile(0.5), Some(4));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let reg = Registry::new();
        reg.histogram("lat");
        assert_eq!(reg.snapshot().histogram("lat").unwrap().quantile(0.5), None);
        assert!(reg.snapshot().histogram("missing").is_none());
    }

    #[test]
    fn quantiles_are_pinned_on_known_distributions() {
        // Uniform 1..=1000: estimates stay within the documented 12.5%
        // relative error of the true quantile.
        let reg = Registry::new();
        let h = reg.histogram("uniform");
        for v in 1..=1000 {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = snap.histogram("uniform").unwrap();
        assert_eq!(hs.quantile(0.50), Some(511));
        assert_eq!(hs.quantile(0.95), Some(959));
        assert_eq!(hs.quantile(0.99), Some(1000), "clamped to observed max");
        for (q, truth) in [(0.50, 500u64), (0.95, 950), (0.99, 990)] {
            let est = hs.quantile(q).unwrap();
            assert!(est >= truth, "upper-bound semantics");
            assert!(
                (est - truth) as f64 / truth as f64 <= 0.125,
                "q={q}: est {est} vs true {truth}"
            );
        }
    }

    #[test]
    fn snapshot_carries_histogram_exemplars() {
        use pod_sim::SimTime;
        let reg = Registry::new();
        let h = reg.histogram("gateway.queue_wait_us");
        h.record(10);
        h.record_with(9_000, || Exemplar {
            value: 9_000,
            at: SimTime::from_micros(42),
            event: Some(7),
            labels: vec![("op", "i-0042".into())],
        });
        let snap = reg.snapshot();
        let tail = snap.exemplars("gateway.queue_wait_us");
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].value, 9_000);
        assert_eq!(snap.histogram("gateway.queue_wait_us").unwrap().count, 2);
        // merge keeps the largest exemplars from both sides.
        let mut total = snap.clone();
        total.merge(&snap);
        assert_eq!(total.exemplars("gateway.queue_wait_us").len(), 1, "deduped");
    }

    #[test]
    fn concurrent_counter_hammering_loses_nothing() {
        let reg = Registry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = reg.counter("hammered");
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("hammered").get(), threads * per_thread);
    }
}
