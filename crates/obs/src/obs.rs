//! The [`Obs`] handle bundling clock, metrics registry and the causal
//! event log, gated by a [`TelemetryMode`].

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use pod_sim::Clock;

use crate::event::{CauseScope, Emitted, EventId, EventLog, Parent, SpanGuard};
use crate::histogram::Histogram;
use crate::metrics::{Counter, Gauge, Registry, Snapshot};

/// How much telemetry an [`Obs`] context records.
///
/// Metrics (counters, gauges, histograms) are always on — they are cheap,
/// lock-free and required for correctness accounting. The mode gates the
/// *trace* side (spans and causal events), which allocates strings per
/// record and is what tail-based sampling decides to keep or discard:
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

    /// Emits a causal event parented to the innermost ambient cause and
    /// correlated with the innermost open span. A no-op (inert handle)
    /// when the mode is [`TelemetryMode::Off`].
    pub fn event(&self, kind: &'static str, name: &str) -> Emitted {
        if !self.mode().records_traces() {
            return Emitted::disabled();
        }
        self.events.emit(kind, name, Parent::Ambient)
    }

    /// Emits a causal event with an explicit parent (still correlated with
    /// the innermost open span). A no-op when the mode is
    /// [`TelemetryMode::Off`].
    pub fn event_under(&self, parent: EventId, kind: &'static str, name: &str) -> Emitted {
        if !self.mode().records_traces() {
            return Emitted::disabled();
        }
        self.events.emit(kind, name, Parent::Of(parent))
    }

    /// Hot-path event emission: name and attribute values are moved in and
    /// the event lands in the ring under a single lock, with no `Emitted`
    /// handle constructed. Returns `None` (recording nothing) when the
    /// mode is [`TelemetryMode::Off`] — callers should build `name`/`attrs`
    /// only after checking [`Obs::mode`] so the off baseline pays nothing.
    pub fn event_with(
        &self,
        kind: &'static str,
        name: impl Into<std::borrow::Cow<'static, str>>,
        attrs: Vec<(&'static str, String)>,
    ) -> Option<EventId> {
        if !self.mode().records_traces() {
            return None;
        }
        Some(self.events.emit_with(kind, name, Parent::Ambient, attrs))
    }

    /// Opens a *pending* cause scope (see [`EventLog::scope_pending`]): the
    /// event's ingredients are captured now, but it is only recorded if a
    /// descendant actually emits under the scope. The lazy counterpart of
    /// scoping an [`Obs::event_with`] id — healthy lines leave no trace.
    /// Returns a no-op scope when the mode is [`TelemetryMode::Off`].
    pub fn scope_cause(
        &self,
        kind: &'static str,
        name: impl Into<std::borrow::Cow<'static, str>>,
        attrs: Vec<(&'static str, String)>,
    ) -> CauseScope {
        if !self.mode().records_traces() {
            return self.events.scope(None);
        }
        self.events.scope_pending(kind, name, attrs)
    }

    /// Starts a fresh run: resets the event log to a new trace. Records do
    /// not carry the run's id — the caller's own record does — so
    /// `_trace_id` only names the run at the call site.
    pub fn begin_run(&self, _trace_id: &str) {
        self.events.begin_trace();
    }

    /// Counter accessor (see [`Registry::counter`]).
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// Gauge accessor (see [`Registry::gauge`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(name)
    }

    /// Histogram accessor (see [`Registry::histogram`]).
    pub fn histogram(&self, name: &str) -> Histogram {
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
        self.events.open(name, name.into(), None)
    }

    /// Emits a causal event, as [`Obs::event`] does, that is also a span:
    /// it encloses every record written until the guard drops, which
    /// writes its end. Returns an inert guard when the mode is
    /// [`TelemetryMode::Off`].
    pub fn event_span(&self, kind: &'static str, name: &str) -> SpanGuard {
        if !self.mode().records_traces() {
            return SpanGuard::disabled();
        }
        self.events
            .open(kind, name.to_string().into(), Some(Parent::Ambient))
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
        let ev = obs.event("conformance.verdict", "conformance:fit");
        let records = obs.events().records();
        assert_eq!(records[1].span, Some(guard.id().get()));
        drop(guard);
        assert_eq!(records[1].parent, None);
        let child = obs.event_under(ev.id(), "detection", "conformance-unfit");
        assert_eq!(child.id().get(), 2);
        let records = obs.events().records();
        assert_eq!(records[2].parent, Some(ev.id().get()));
        assert_eq!(records[2].span, None);
    }

    #[test]
    fn begin_run_resets_tracer_and_events_together() {
        let obs = Obs::detached();
        obs.begin_run("a");
        drop(obs.span("s"));
        obs.event("e", "e");
        obs.begin_run("b");
        assert!(obs.events().records().is_empty());
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
            let test = obs.event_span("faulttree.test", "n");
            test.attr("k", "v");
            let ev = obs.event("detection", "x");
            ev.attr("k", "v");
            obs.event_under(ev.id(), "diagnosis.cause", "y");
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
