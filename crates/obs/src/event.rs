//! The causal event log: a ring buffer of instantaneous events with
//! explicit parent links, emitted at every pipeline hand-off.
//!
//! Spans answer *where the time went*; causal events answer *why a
//! diagnosis happened*. Every hand-off in the POD pipeline (a log line
//! raising triggers, a conformance verdict, an assertion result, a
//! consistent-layer retry, a fault-tree test, a diagnosis) emits one
//! [`EventRecord`]. Parent links connect an effect to its cause, so an
//! incident can be replayed hop by hop from the triggering log line to the
//! reported root cause (see the `timeline` module).
//!
//! Causality crosses layer boundaries (the engine calls the evaluator,
//! which calls the consistent API…), so threading explicit parent ids
//! through every signature would be invasive. Instead the log keeps an
//! ambient **cause stack**: a caller pushes the current cause with
//! [`EventLog::scope`] and every event emitted while the scope is alive is
//! parented to it by default. Explicit parents override the stack via
//! [`Parent::Of`].
//!
//! # Examples
//!
//! ```
//! use pod_obs::{EventLog, Parent};
//! use pod_sim::Clock;
//!
//! let log = EventLog::new(Clock::new());
//! log.begin_trace();
//! let line = log.emit("log.line", "asgard.log", Parent::Ambient, None);
//! let _scope = log.scope(Some(line.id()));
//! let verdict = log.emit("conformance.verdict", "conformance:unfit", Parent::Ambient, None);
//! assert_eq!(log.records()[1].parent, Some(line.id().get()));
//! assert_eq!(verdict.id().get(), 1);
//! ```

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use pod_sim::{Clock, SimTime};

/// Upper bound on retained events per trace. The buffer is a true ring:
/// beyond the cap the *oldest* events are evicted (and counted in
/// [`EventLog::dropped`]) so the most recent causality is always available.
const EVENT_CAP: usize = 16_384;

/// Identifier of a causal event within one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// The raw id (ascending in emission order within a trace).
    pub fn get(self) -> u64 {
        self.0
    }
}

/// How an emitted event is linked to its cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    /// Use the innermost active cause scope (none → root event).
    Ambient,
    /// Link to this event explicitly.
    Of(EventId),
}

/// One recorded causal event.
///
/// `kind` and attribute keys are `&'static str`: every call site names
/// them with literals, and the hot path (one event per acted-on log line)
/// must not allocate for strings the binary already contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Unique id within the trace (ascending in emission order).
    pub id: u64,
    /// The causing event, if any.
    pub parent: Option<u64>,
    /// The innermost open span at emission time, if any.
    pub span: Option<u64>,
    /// Virtual-clock emission time.
    pub at: SimTime,
    /// Hand-off kind, e.g. `log.line`, `conformance.verdict`, `detection`.
    pub kind: &'static str,
    /// Short label, e.g. the verdict tag or the fault-tree node id. A
    /// `Cow` so static labels (verdict tags) record without allocating.
    pub name: Cow<'static, str>,
    /// Key/value attributes in insertion order.
    pub attrs: Vec<(&'static str, String)>,
}

/// A cause that has been scoped but not yet recorded: the captured
/// ingredients of a `log.line`-style root event, materialised into the
/// ring only if a descendant event is actually emitted under it.
#[derive(Debug)]
struct PendingCause {
    kind: &'static str,
    name: Cow<'static, str>,
    attrs: Vec<(&'static str, String)>,
    span: Option<u64>,
    at: SimTime,
}

/// One frame of the ambient cause stack.
#[derive(Debug)]
enum CauseFrame {
    /// An already-recorded event id.
    Resolved(u64),
    /// A lazy root: recorded on first use as an ambient parent.
    Pending(PendingCause),
}

#[derive(Debug, Default)]
struct EventLogInner {
    next_id: u64,
    ring: VecDeque<EventRecord>,
    dropped: u64,
    causes: Vec<CauseFrame>,
}

impl EventLogInner {
    fn push(&mut self, record: EventRecord) {
        if self.ring.len() >= EVENT_CAP {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(record);
    }

    /// Resolves the innermost ambient cause, materialising any pending
    /// frames (bottom-up, so a pending frame's own parent is the frame
    /// beneath it) into real ring records first.
    fn resolve_ambient(&mut self) -> Option<u64> {
        for i in 0..self.causes.len() {
            if matches!(self.causes[i], CauseFrame::Pending(_)) {
                let parent = match i.checked_sub(1).map(|j| &self.causes[j]) {
                    Some(CauseFrame::Resolved(id)) => Some(*id),
                    _ => None,
                };
                let id = self.next_id;
                self.next_id += 1;
                let CauseFrame::Pending(pending) =
                    std::mem::replace(&mut self.causes[i], CauseFrame::Resolved(id))
                else {
                    unreachable!("checked above");
                };
                self.push(EventRecord {
                    id,
                    parent,
                    span: pending.span,
                    at: pending.at,
                    kind: pending.kind,
                    name: pending.name,
                    attrs: pending.attrs,
                });
            }
        }
        self.causes.last().map(|frame| match frame {
            CauseFrame::Resolved(id) => *id,
            CauseFrame::Pending(_) => unreachable!("all pending frames resolved above"),
        })
    }
}

/// The shared causal event log. Cloning shares the buffer and cause stack.
#[derive(Debug, Clone)]
pub struct EventLog {
    clock: Clock,
    inner: Arc<Mutex<EventLogInner>>,
}

impl EventLog {
    /// Creates an event log timestamping from `clock`.
    pub fn new(clock: Clock) -> EventLog {
        EventLog {
            clock,
            inner: Arc::new(Mutex::new(EventLogInner::default())),
        }
    }

    /// Starts a fresh trace, discarding all events (and scopes) of the
    /// previous one.
    pub fn begin_trace(&self) {
        *self.inner.lock() = EventLogInner::default();
    }

    /// Emits one event and returns a handle for attaching attributes.
    ///
    /// `span` is the id of the span the event belongs to (callers going
    /// through [`crate::Obs::event`] get the innermost open span filled in
    /// automatically).
    pub fn emit(
        &self,
        kind: &'static str,
        name: &str,
        parent: Parent,
        span: Option<u64>,
    ) -> Emitted {
        let id = self.emit_with(kind, name.to_string(), parent, span, Vec::new());
        Emitted {
            log: Some(self.clone()),
            id,
        }
    }

    /// Emits one event with its attributes attached in a single lock
    /// acquisition and without constructing a handle — the hot-path
    /// variant of [`EventLog::emit`] for per-line call sites (the log
    /// pipeline, the conformance checker). `name` and attribute values are
    /// moved in, so a caller that already owns them pays no extra clone.
    pub fn emit_with(
        &self,
        kind: &'static str,
        name: impl Into<Cow<'static, str>>,
        parent: Parent,
        span: Option<u64>,
        attrs: Vec<(&'static str, String)>,
    ) -> EventId {
        let name = name.into();
        let at = self.clock.now();
        let mut inner = self.inner.lock();
        let parent = match parent {
            Parent::Ambient => inner.resolve_ambient(),
            Parent::Of(p) => Some(p.get()),
        };
        let id = inner.next_id;
        inner.next_id += 1;
        inner.push(EventRecord {
            id,
            parent,
            span,
            at,
            kind,
            name,
            attrs,
        });
        EventId(id)
    }

    /// Pushes `cause` (when present) onto the ambient cause stack; the
    /// returned guard pops it on drop. A `None` cause is a no-op scope, so
    /// call sites can thread `Option<EventId>` without branching.
    pub fn scope(&self, cause: Option<EventId>) -> CauseScope {
        if let Some(cause) = cause {
            self.inner
                .lock()
                .causes
                .push(CauseFrame::Resolved(cause.get()));
        }
        CauseScope {
            log: self.clone(),
            active: cause.is_some(),
        }
    }

    /// Pushes a *pending* cause: the ingredients of a root event (kind,
    /// name, attrs, the current span and clock time) captured now but
    /// recorded only if some event is actually emitted under the scope
    /// with [`Parent::Ambient`].
    ///
    /// This keeps healthy hot paths silent: the log pipeline scopes every
    /// forwarded line as a pending `log.line`, yet only the handful of
    /// lines whose triggers produce a verdict, assertion result, or
    /// detection ever materialise into the ring. When nothing emits under
    /// the scope, dropping the guard discards the frame — no id, no ring
    /// slot, no allocation beyond the moved-in strings.
    pub fn scope_pending(
        &self,
        kind: &'static str,
        name: impl Into<Cow<'static, str>>,
        attrs: Vec<(&'static str, String)>,
        span: Option<u64>,
    ) -> CauseScope {
        let at = self.clock.now();
        self.inner
            .lock()
            .causes
            .push(CauseFrame::Pending(PendingCause {
                kind,
                name: name.into(),
                attrs,
                span,
                at,
            }));
        CauseScope {
            log: self.clone(),
            active: true,
        }
    }

    /// The innermost ambient cause, if a scope is active. Resolving the
    /// cause to a concrete id materialises pending frames, exactly as an
    /// ambient emission would.
    pub fn current_cause(&self) -> Option<EventId> {
        self.inner.lock().resolve_ambient().map(EventId)
    }

    /// All retained events, in emission order.
    pub fn records(&self) -> Vec<EventRecord> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Runs `f` over the retained events without cloning them — the
    /// accounting path ([`crate::incident_count`], journal rendering
    /// decisions) reads thousands of records per run, and a deep copy of
    /// every `String` in the ring would dwarf the cost being measured.
    pub fn with_records<R>(&self, f: impl FnOnce(&[EventRecord]) -> R) -> R {
        let mut inner = self.inner.lock();
        // O(1) unless the ring wrapped, which only happens past EVENT_CAP.
        f(inner.ring.make_contiguous())
    }

    /// Events evicted from the ring after the retention cap was reached.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    fn set_attr(&self, id: u64, key: &'static str, value: String) {
        let mut inner = self.inner.lock();
        // The ring is ordered by id; an evicted event is silently skipped.
        if let Some(record) = inner.ring.iter_mut().rev().find(|e| e.id == id) {
            record.attrs.push((key, value));
        }
    }
}

/// Handle to a just-emitted event.
///
/// When telemetry is off ([`crate::TelemetryMode::Off`]) the handle is
/// inert: it holds no log, `attr` is a no-op and `id` is a dummy, so call
/// sites need no mode checks of their own.
#[derive(Debug)]
pub struct Emitted {
    log: Option<EventLog>,
    id: EventId,
}

impl Emitted {
    /// An inert handle recording nothing (telemetry off).
    pub(crate) fn disabled() -> Emitted {
        Emitted {
            log: None,
            id: EventId(u64::MAX),
        }
    }

    /// Attaches a key/value attribute to the event.
    pub fn attr(&self, key: &'static str, value: impl std::fmt::Display) -> &Emitted {
        if let Some(log) = &self.log {
            log.set_attr(self.id.get(), key, value.to_string());
        }
        self
    }

    /// The event's id, for explicit parent links (`u64::MAX` for an inert
    /// handle).
    pub fn id(&self) -> EventId {
        self.id
    }
}

/// RAII guard for an ambient cause (see [`EventLog::scope`]).
#[derive(Debug)]
pub struct CauseScope {
    log: EventLog,
    active: bool,
}

impl Drop for CauseScope {
    fn drop(&mut self) {
        if self.active {
            self.log.inner.lock().causes.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> EventLog {
        let l = EventLog::new(Clock::new());
        l.begin_trace();
        l
    }

    #[test]
    fn events_link_to_the_ambient_cause() {
        let log = log();
        let root = log.emit("log.line", "asgard.log", Parent::Ambient, None);
        assert_eq!(log.records()[0].parent, None);
        {
            let _scope = log.scope(Some(root.id()));
            let child = log.emit("conformance.verdict", "fit", Parent::Ambient, Some(7));
            assert_eq!(log.current_cause(), Some(root.id()));
            let records = log.records();
            assert_eq!(records[1].parent, Some(root.id().get()));
            assert_eq!(records[1].span, Some(7));
            // Nested scopes stack.
            let _inner = log.scope(Some(child.id()));
            log.emit("detection", "assertion-log", Parent::Ambient, None);
            assert_eq!(log.records()[2].parent, Some(child.id().get()));
        }
        assert_eq!(log.current_cause(), None);
        log.emit("detection", "late", Parent::Ambient, None);
        assert_eq!(log.records()[3].parent, None);
    }

    #[test]
    fn explicit_parent_overrides_the_stack() {
        let log = log();
        let a = log.emit("a", "a", Parent::Ambient, None);
        let b = log.emit("b", "b", Parent::Ambient, None);
        let _scope = log.scope(Some(b.id()));
        let c = log.emit("c", "c", Parent::Of(a.id()), None);
        let records = log.records();
        assert_eq!(records[2].parent, Some(a.id().get()));
        assert_eq!(c.id().get(), 2);
    }

    #[test]
    fn pending_scope_records_nothing_when_unused() {
        let log = log();
        {
            let _scope = log.scope_pending("log.line", "asgard.log", Vec::new(), None);
            // Nothing emitted under the scope: the frame is discarded.
        }
        assert!(log.records().is_empty());
        // Ids were never consumed either.
        let ev = log.emit("e", "e", Parent::Ambient, None);
        assert_eq!(ev.id().get(), 0);
    }

    #[test]
    fn pending_scope_materialises_on_first_ambient_emit() {
        let clock = Clock::new();
        let log = EventLog::new(clock.clone());
        log.begin_trace();
        clock.advance(pod_sim::SimDuration::from_millis(5));
        let _scope = log.scope_pending(
            "log.line",
            "asgard.log",
            vec![("message", "Instance i-aa is ready".to_string())],
            Some(3),
        );
        clock.advance(pod_sim::SimDuration::from_millis(10));
        let child = log.emit(
            "conformance.verdict",
            "conformance:unfit",
            Parent::Ambient,
            None,
        );
        let records = log.records();
        // The root landed first, with the capture-time timestamp and span.
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, "log.line");
        assert_eq!(records[0].at, SimTime::from_millis(5));
        assert_eq!(records[0].span, Some(3));
        assert_eq!(
            records[0].attrs,
            vec![("message", "Instance i-aa is ready".to_string())]
        );
        assert_eq!(records[1].parent, Some(records[0].id));
        assert!(records[0].id < child.id().get());
        // A second emission reuses the already-materialised id.
        log.emit("detection", "conformance-unfit", Parent::Ambient, None);
        assert_eq!(log.records()[2].parent, Some(records[0].id));
        assert_eq!(log.records().len(), 3);
    }

    #[test]
    fn nested_pending_frames_materialise_bottom_up() {
        let log = log();
        let _outer = log.scope_pending("log.line", "outer", Vec::new(), None);
        let _inner = log.scope_pending("log.line", "inner", Vec::new(), None);
        log.emit("detection", "d", Parent::Ambient, None);
        let records = log.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].name, "outer");
        assert_eq!(records[0].parent, None);
        assert_eq!(records[1].name, "inner");
        assert_eq!(records[1].parent, Some(records[0].id));
        assert_eq!(records[2].parent, Some(records[1].id));
    }

    #[test]
    fn current_cause_resolves_pending_frames() {
        let log = log();
        let _scope = log.scope_pending("log.line", "asgard.log", Vec::new(), None);
        let cause = log.current_cause().expect("scope is active");
        // Resolving materialised the root; later ambient emits chain to it.
        assert_eq!(log.records().len(), 1);
        log.emit("assertion.result", "late", Parent::Ambient, None);
        assert_eq!(log.records()[1].parent, Some(cause.get()));
    }

    #[test]
    fn explicit_parent_leaves_pending_frames_untouched() {
        let log = log();
        let a = log.emit("a", "a", Parent::Ambient, None);
        let _scope = log.scope_pending("log.line", "asgard.log", Vec::new(), None);
        log.emit("b", "b", Parent::Of(a.id()), None);
        // An explicit-parent emission does not consult the stack.
        assert_eq!(log.records().len(), 2);
        assert!(log.records().iter().all(|r| r.kind != "log.line"));
    }

    #[test]
    fn none_scope_is_a_no_op() {
        let log = log();
        {
            let _scope = log.scope(None);
            log.emit("x", "x", Parent::Ambient, None);
        }
        assert_eq!(log.records()[0].parent, None);
        assert_eq!(log.current_cause(), None);
    }

    #[test]
    fn attrs_attach_to_the_emitted_event() {
        let log = log();
        let ev = log.emit("assertion.result", "asg-desired", Parent::Ambient, None);
        ev.attr("outcome", "failed").attr("attempts", 3);
        let records = log.records();
        assert_eq!(
            records[0].attrs,
            vec![
                ("outcome", "failed".to_string()),
                ("attempts", "3".to_string())
            ]
        );
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let log = log();
        for i in 0..(EVENT_CAP + 5) {
            log.emit("e", &i.to_string(), Parent::Ambient, None);
        }
        assert_eq!(log.records().len(), EVENT_CAP);
        assert_eq!(log.dropped(), 5);
        // The oldest ids are gone; the newest survive.
        let records = log.records();
        assert_eq!(records.first().unwrap().id, 5);
        assert_eq!(records.last().unwrap().id, (EVENT_CAP + 4) as u64);
    }

    #[test]
    fn begin_trace_resets_everything() {
        let log = log();
        let a = log.emit("a", "a", Parent::Ambient, None);
        let _leaked = log.scope(Some(a.id()));
        log.begin_trace();
        assert!(log.records().is_empty());
        assert_eq!(log.current_cause(), None);
    }

    #[test]
    fn timestamps_come_from_the_clock() {
        let clock = Clock::new();
        let log = EventLog::new(clock.clone());
        log.begin_trace();
        clock.advance(pod_sim::SimDuration::from_millis(42));
        log.emit("e", "e", Parent::Ambient, None);
        assert_eq!(log.records()[0].at, SimTime::from_millis(42));
    }
}
