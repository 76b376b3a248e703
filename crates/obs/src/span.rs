//! The span/trace layer: nested spans on the virtual clock, one trace per
//! run.

use std::sync::Arc;

use parking_lot::Mutex;
use pod_sim::{Clock, SimDuration, SimTime};

/// Upper bound on retained finished spans per trace; beyond it spans are
/// counted in [`Tracer::dropped`] instead of stored.
const SPAN_CAP: usize = 4096;

/// A completed span.
///
/// `name` and attribute keys are `&'static str`: every call site names
/// them with literals, and per-line spans (`conformance.replay`) must not
/// allocate for strings the binary already contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the trace (ascending in start order).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Span name, e.g. `faulttree.walk` or `cloud.api.call`.
    pub name: &'static str,
    /// Virtual-clock start.
    pub start: SimTime,
    /// Virtual-clock end.
    pub end: SimTime,
    /// Key/value attributes in insertion order.
    pub attrs: Vec<(&'static str, String)>,
}

impl SpanRecord {
    /// The span's virtual duration.
    pub fn duration(&self) -> SimDuration {
        self.end.duration_since(self.start)
    }
}

#[derive(Debug)]
struct OpenSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: SimTime,
    attrs: Vec<(&'static str, String)>,
}

#[derive(Debug, Default)]
struct TracerInner {
    next_id: u64,
    stack: Vec<u64>,
    open: Vec<OpenSpan>,
    finished: Vec<SpanRecord>,
    dropped: u64,
}

/// Records nested spans against a virtual clock. Cloning shares the trace.
#[derive(Debug, Clone)]
pub struct Tracer {
    clock: Clock,
    inner: Arc<Mutex<TracerInner>>,
}

impl Tracer {
    /// Creates a tracer reading timestamps from `clock`.
    pub fn new(clock: Clock) -> Tracer {
        Tracer {
            clock,
            inner: Arc::new(Mutex::new(TracerInner::default())),
        }
    }

    /// Starts a fresh trace, discarding all spans of the previous one.
    pub fn begin_trace(&self) {
        *self.inner.lock() = TracerInner::default();
    }

    /// Opens a span nested under the innermost open span. The span closes
    /// when the returned guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let start = self.clock.now();
        let mut inner = self.inner.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        let parent = inner.stack.last().copied();
        inner.open.push(OpenSpan {
            id,
            parent,
            name,
            start,
            attrs: Vec::new(),
        });
        inner.stack.push(id);
        SpanGuard {
            tracer: Some(self.clone()),
            id,
        }
    }

    /// Records an already-completed span retroactively: it starts at
    /// `started_at`, ends now, and nests under the innermost *open* span.
    ///
    /// This is the cheap half of outcome-conditional tracing: a hot path
    /// notes its virtual start time (a clock read, no lock, no
    /// allocation), runs to completion, and only materialises the span
    /// when the outcome turns out to be anomalous. Because spans measure
    /// *virtual* time, the retroactive record is exactly what an eagerly
    /// opened span would have captured — minus the two lock round-trips
    /// and the allocation every healthy call would otherwise pay.
    /// Returns the span id.
    pub fn record_span(
        &self,
        name: &'static str,
        started_at: SimTime,
        attrs: Vec<(&'static str, String)>,
    ) -> u64 {
        let end = self.clock.now();
        let mut inner = self.inner.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        let parent = inner.stack.last().copied();
        if inner.finished.len() >= SPAN_CAP {
            inner.dropped += 1;
            return id;
        }
        inner.finished.push(SpanRecord {
            id,
            parent,
            name,
            start: started_at,
            end,
            attrs,
        });
        id
    }

    fn set_attr(&self, id: u64, key: &'static str, value: String) {
        let mut inner = self.inner.lock();
        if let Some(open) = inner.open.iter_mut().find(|s| s.id == id) {
            open.attrs.push((key, value));
        }
    }

    fn finish(&self, id: u64) {
        let end = self.clock.now();
        let mut inner = self.inner.lock();
        let Some(pos) = inner.open.iter().position(|s| s.id == id) else {
            return;
        };
        let open = inner.open.remove(pos);
        inner.stack.retain(|&s| s != id);
        if inner.finished.len() >= SPAN_CAP {
            inner.dropped += 1;
            return;
        }
        let record = SpanRecord {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start: open.start,
            end,
            attrs: open.attrs,
        };
        inner.finished.push(record);
    }

    /// All finished spans, in completion order.
    pub fn finished(&self) -> Vec<SpanRecord> {
        self.inner.lock().finished.clone()
    }

    /// Runs `f` over the finished spans without cloning them — the
    /// latency-budget accounting reads every span of a run, and a deep
    /// copy per read would dwarf the cost being measured.
    pub fn with_finished<R>(&self, f: impl FnOnce(&[SpanRecord]) -> R) -> R {
        f(&self.inner.lock().finished)
    }

    /// The id of the innermost open span, if any — used to correlate
    /// causal events with the span they were emitted under.
    pub fn current_span_id(&self) -> Option<u64> {
        self.inner.lock().stack.last().copied()
    }

    /// Spans discarded after the retention cap was reached.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }
}

/// RAII guard for an open span; dropping it closes the span at the
/// clock's current virtual time.
///
/// When telemetry is off ([`crate::TelemetryMode::Off`]) the guard is
/// inert: it holds no tracer, and `attr`/drop are no-ops, so call sites
/// need no mode checks of their own.
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Option<Tracer>,
    id: u64,
}

impl SpanGuard {
    /// An inert guard recording nothing (telemetry off).
    pub(crate) fn disabled() -> SpanGuard {
        SpanGuard {
            tracer: None,
            id: u64::MAX,
        }
    }

    /// Attaches a key/value attribute to the span.
    pub fn attr(&self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(tracer) = &self.tracer {
            tracer.set_attr(self.id, key, value.to_string());
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(tracer) = &self.tracer {
            tracer.finish(self.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn advance(clock: &Clock, ms: u64) {
        clock.advance(SimDuration::from_millis(ms));
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let clock = Clock::new();
        let tracer = Tracer::new(clock.clone());
        tracer.begin_trace();
        {
            let outer = tracer.span("outer");
            advance(&clock, 10);
            {
                let inner = tracer.span("inner");
                inner.attr("k", 3);
                advance(&clock, 5);
            }
            outer.attr("steps", "2");
            advance(&clock, 1);
        }
        let spans = tracer.finished();
        assert_eq!(spans.len(), 2);
        // Completion order: inner finishes first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[0].duration(), SimDuration::from_millis(5));
        assert_eq!(spans[1].duration(), SimDuration::from_millis(16));
        assert_eq!(spans[0].attrs, vec![("k", "3".to_string())]);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let clock = Clock::new();
        let tracer = Tracer::new(clock.clone());
        tracer.begin_trace();
        let root = tracer.span("walk");
        for _ in 0..3 {
            let t = tracer.span("test");
            advance(&clock, 2);
            drop(t);
        }
        drop(root);
        let spans = tracer.finished();
        let root_id = spans.iter().find(|s| s.name == "walk").unwrap().id;
        assert_eq!(
            spans.iter().filter(|s| s.parent == Some(root_id)).count(),
            3
        );
    }

    #[test]
    fn begin_trace_resets_state() {
        let clock = Clock::new();
        let tracer = Tracer::new(clock.clone());
        tracer.begin_trace();
        drop(tracer.span("x"));
        assert_eq!(tracer.finished().len(), 1);
        tracer.begin_trace();
        assert_eq!(tracer.finished().len(), 0);
    }

    #[test]
    fn span_cap_counts_dropped_spans() {
        let clock = Clock::new();
        let tracer = Tracer::new(clock.clone());
        tracer.begin_trace();
        for _ in 0..(SPAN_CAP + 10) {
            drop(tracer.span("s"));
        }
        assert_eq!(tracer.finished().len(), SPAN_CAP);
        assert_eq!(tracer.dropped(), 10);
    }
}
