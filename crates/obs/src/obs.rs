//! The [`Obs`] handle bundling clock, metrics registry and the causal
//! event log, gated by a [`TelemetryMode`].

use std::borrow::Cow;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use pod_sim::Clock;

use crate::event::{EventAttrs, EventId, EventLog, Named, PendingRoot, SpanGuard};
use crate::histogram::Histogram;
use crate::metrics::{Counter, Gauge, Registry, Snapshot};

/// A causal event's name as [`Obs::event`] takes it: converted only once
/// the event is recorded, so a borrowed `&String` is copied then and never
/// under [`TelemetryMode::Off`], and a `&'static str` stays borrowed.
pub trait EventName {
    /// The record's static name and the value it keeps: `attrs` as kept
    /// ([`EventAttrs::keep`]) beside a static name, or `attrs` with a copy
    /// of an owned name, in one shared value that names the record
    /// ([`EventAttrs::root_name`]).
    fn keep_with<A: EventAttrs>(
        self,
        attrs: A,
    ) -> (Option<&'static str>, Option<Arc<dyn EventAttrs>>);
}

impl EventName for &'static str {
    fn keep_with<A: EventAttrs>(
        self,
        attrs: A,
    ) -> (Option<&'static str>, Option<Arc<dyn EventAttrs>>) {
        (Some(self), attrs.keep())
    }
}

impl EventName for &String {
    fn keep_with<A: EventAttrs>(
        self,
        attrs: A,
    ) -> (Option<&'static str>, Option<Arc<dyn EventAttrs>>) {
        let named = Named {
            name: self.as_str().into(),
            attrs,
        };
        (None, Some(Arc::new(named)))
    }
}

/// How much telemetry an [`Obs`] context records.
///
/// Metrics (counters, gauges, histograms) are always on — they are cheap,
/// lock-free and required for correctness accounting. The mode gates the
/// *trace* side (spans and causal events), which takes a ring slot and the
/// event log's lock per record, and is what tail-based sampling decides to
/// keep or discard. A record keeps the values its attributes are rendered
/// from, shared with the emitter, so it copies no strings but an owned
/// name:
///
/// - `Off` — spans and events become no-ops; the baseline for overhead
///   measurement.
/// - `Sampled` — spans/events are recorded per run and retained only when
///   the run's tail-sampling verdict says so (see
///   [`TailSampler`](crate::TailSampler)).
/// - `Full` — everything recorded and retained.
///
/// The mode never changes what the engine *does* — detections and
/// diagnoses are byte-identical across modes under a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// Record nothing on the trace side.
    Off,
    /// Record per run, retain by tail-sampling verdict.
    Sampled,
    /// Record and retain everything.
    #[default]
    Full,
}

impl TelemetryMode {
    fn from_u8(v: u8) -> TelemetryMode {
        match v {
            0 => TelemetryMode::Off,
            1 => TelemetryMode::Sampled,
            _ => TelemetryMode::Full,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            TelemetryMode::Off => 0,
            TelemetryMode::Sampled => 1,
            TelemetryMode::Full => 2,
        }
    }

    /// Whether spans/events are recorded at all in this mode.
    pub fn records_traces(self) -> bool {
        self != TelemetryMode::Off
    }
}

impl std::fmt::Display for TelemetryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TelemetryMode::Off => "off",
            TelemetryMode::Sampled => "sampled",
            TelemetryMode::Full => "full",
        })
    }
}

/// One observability context: a metrics [`Registry`] and a causal
/// [`EventLog`] (spans included), both on the same virtual [`Clock`].
/// Cloning is cheap and shares all state (including the telemetry mode),
/// so a single `Obs` created next to the `Cloud` can be handed to every
/// layer of the pipeline.
#[derive(Debug, Clone)]
pub struct Obs {
    registry: Registry,
    events: EventLog,
    mode: Arc<AtomicU8>,
}

impl Obs {
    /// Creates an observability context on `clock` (mode
    /// [`TelemetryMode::Full`]).
    pub fn new(clock: Clock) -> Obs {
        Obs {
            events: EventLog::new(clock),
            registry: Registry::new(),
            mode: Arc::new(AtomicU8::new(TelemetryMode::Full.as_u8())),
        }
    }

    /// A self-contained context on a fresh clock — the default for
    /// components constructed without a `Cloud` (conformance checker, log
    /// pipeline) until the engine hands them the shared context.
    pub fn detached() -> Obs {
        Obs::new(Clock::new())
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The causal event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The current telemetry mode.
    pub fn mode(&self) -> TelemetryMode {
        TelemetryMode::from_u8(self.mode.load(Ordering::Relaxed))
    }

    /// Sets the telemetry mode, shared by every clone of this context.
    pub fn set_mode(&self, mode: TelemetryMode) {
        self.mode.store(mode.as_u8(), Ordering::Relaxed);
    }

    /// Emits a causal event under `parent`, or the innermost ambient cause
    /// when `None`, correlated with the innermost open span. The record
    /// keeps the value `attrs` returns, landing in the same lock, and
    /// renders it only when read ([`EventAttrs`]). When the mode is
    /// [`TelemetryMode::Off`] it records nothing, never calls `attrs` and
    /// returns `None`; nor does it copy `name` (see [`EventName`]).
    pub fn event<A: EventAttrs>(
        &self,
        parent: Option<EventId>,
        kind: &'static str,
        name: impl EventName,
        attrs: impl FnOnce() -> A,
    ) -> Option<EventId> {
        if !self.mode().records_traces() {
            return None;
        }
        let (name, kept) = name.keep_with(attrs());
        Some(self.events.emit(parent, kind, name, kept))
    }

    /// A *pending root*: a root event of `kind` that shares `root` and is
    /// recorded, keeping it, only when an emitter cites it
    /// ([`PendingRoot::resolve`], or an ambient emission under
    /// [`PendingRoot::scope`]). The engine makes one for every line that
    /// leaves the pipeline and hands it down as a value, without the event
    /// log's lock; only the lines whose triggers produce a verdict, assertion
    /// result, detection or timer record theirs, and dropping the value
    /// otherwise leaves no id, no ring slot and no copy of the root's
    /// strings. A recorded root copies nothing: its name is read from the
    /// value it keeps ([`EventAttrs::root_name`]). Inert when the mode is
    /// [`TelemetryMode::Off`].
    pub fn pending_root<A: EventAttrs>(&self, kind: &'static str, root: &Arc<A>) -> PendingRoot {
        if !self.mode().records_traces() {
            return PendingRoot::default();
        }
        self.events
            .pending_root(kind, Arc::clone(root) as Arc<dyn EventAttrs>)
    }

    /// Starts a fresh run: resets the event log to a new trace. Records do
    /// not carry the run's id — the caller's own record does — so
    /// `_trace_id` only names the run at the call site.
    pub fn begin_run(&self, _trace_id: &str) {
        self.events.begin_trace();
    }

    /// Counter accessor (see [`Registry::counter`]).
    pub fn counter(&self, name: impl Into<Cow<'static, str>>) -> Counter {
        self.registry.counter(name)
    }

    /// Gauge accessor (see [`Registry::gauge`]).
    pub fn gauge(&self, name: impl Into<Cow<'static, str>>) -> Gauge {
        self.registry.gauge(name)
    }

    /// Histogram accessor (see [`Registry::histogram`]).
    pub fn histogram(&self, name: impl Into<Cow<'static, str>>) -> Histogram {
        self.registry.histogram(name)
    }

    /// Opens a guard span named `name`: a record with no cause, enclosing
    /// every record written until the guard drops (see
    /// [`EventRecord::span`](crate::EventRecord::span)). Returns an inert
    /// guard when the mode is [`TelemetryMode::Off`].
    pub fn span(&self, name: &'static str) -> SpanGuard {
        if !self.mode().records_traces() {
            return SpanGuard::disabled();
        }
        self.events.open(name, None, false)
    }

    /// Emits a causal event, as [`Obs::event`] does, that is also a span:
    /// it encloses every record written until the guard drops, which
    /// writes its end. Its name is copied once, and keeps the attributes
    /// the span ends with. Returns an inert guard when the mode is
    /// [`TelemetryMode::Off`].
    pub fn event_span(&self, kind: &'static str, name: &str) -> SpanGuard {
        if !self.mode().records_traces() {
            return SpanGuard::disabled();
        }
        self.events.open(kind, Some(name), true)
    }

    /// Snapshots every metric.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::detached()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrValue;
    use pod_sim::SimDuration;

    #[test]
    fn clones_share_registry_and_tracer() {
        let obs = Obs::detached();
        let copy = obs.clone();
        copy.counter("x").incr();
        obs.begin_run("t");
        drop(copy.span("s"));
        assert_eq!(obs.snapshot().counter("x"), 1);
        assert_eq!(obs.events().records().len(), 1);
    }

    #[test]
    fn events_correlate_with_the_open_span() {
        let obs = Obs::detached();
        obs.begin_run("t");
        let guard = obs.span("upgrade.step");
        let ev = obs.event(None, "conformance.verdict", "conformance:fit", || ());
        let records = obs.events().records();
        assert_eq!(records[1].span(), guard.id().map(EventId::get));
        drop(guard);
        assert_eq!(records[1].parent(), None);
        let child = obs.event(ev, "detection", "conformance-unfit", || {
            [("k", AttrValue::from("v"))]
        });
        assert_eq!(child.map(EventId::get), Some(2));
        let records = obs.events().records();
        assert_eq!(records[2].parent(), ev.map(EventId::get));
        assert_eq!(records[2].span(), None);
        assert_eq!(records[2].attrs(), vec![("k", "v".to_string())]);
    }

    #[test]
    fn begin_run_resets_tracer_and_events_together() {
        let obs = Obs::detached();
        obs.begin_run("a");
        drop(obs.span("s"));
        obs.event(None, "e", "e", || ());
        obs.begin_run("b");
        assert!(obs.events().records().is_empty());
    }

    /// A name that fails the test if it is ever converted.
    struct Unnamed;

    impl EventName for Unnamed {
        fn keep_with<A: EventAttrs>(
            self,
            _: A,
        ) -> (Option<&'static str>, Option<Arc<dyn EventAttrs>>) {
            panic!("Off converts no name")
        }
    }

    #[test]
    fn off_mode_disables_traces_but_not_metrics() {
        let obs = Obs::detached();
        obs.begin_run("t");
        obs.set_mode(TelemetryMode::Off);
        assert_eq!(obs.clone().mode(), TelemetryMode::Off, "clones share mode");
        {
            let span = obs.span("s");
            span.attr("k", "v");
            assert_eq!(span.id(), None, "an inert guard has no id");
            let test = obs.event_span("faulttree.test", "n");
            test.attr("k", "v");
            assert_eq!(test.id(), None);
            let never = || -> [(&str, AttrValue); 1] { panic!("Off builds no attributes") };
            let ev = obs.event(None, "detection", Unnamed, never);
            assert_eq!(ev, None, "Off hands out no id");
            let _scope = obs.events().scope(ev);
            let mut root = obs.pending_root("log.line", &Arc::new(()));
            assert_eq!(root.resolve(), None, "Off records no root");
            obs.event(ev, "diagnosis.cause", Unnamed, never);
        }
        assert!(obs.events().records().is_empty());
        obs.counter("c").incr();
        assert_eq!(obs.snapshot().counter("c"), 1, "metrics stay on");
        obs.set_mode(TelemetryMode::Full);
        drop(obs.span("s2"));
        assert_eq!(obs.events().records().len(), 1);
    }

    #[test]
    fn spans_use_the_shared_clock() {
        let clock = Clock::new();
        let obs = Obs::new(clock.clone());
        obs.begin_run("t");
        {
            let _s = obs.span("s");
            clock.advance(SimDuration::from_millis(7));
        }
        assert_eq!(
            obs.events().records()[0].duration(),
            Some(SimDuration::from_millis(7))
        );
    }
}
