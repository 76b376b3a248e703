//! The causal event log: one ring of records with explicit parent links,
//! written at every pipeline hand-off. A record with an end is a span.
//!
//! Every hand-off in the POD pipeline (a log line raising triggers, a
//! conformance verdict, an assertion result, a consistent-layer retry, a
//! fault-tree test, a diagnosis) emits one [`EventRecord`]. Parent links
//! connect an effect to its cause, so an incident can be replayed hop by
//! hop from the triggering log line to the reported root cause (see the
//! `timeline` module). A hand-off that takes virtual time — a conformance
//! replay, an assertion, a fault-tree test — records it in the same
//! record: `at` is when the work started and `end` when it finished. A
//! unit of work with no cause of its own (`upgrade.step`,
//! `faulttree.walk`) is a guard span ([`crate::Obs::span`]): a record with
//! no parent, whose end is written when its guard drops. Every record's
//! `span` is the innermost span open when it was written, so the spans
//! nest and their self times add up ([`EventRecord::duration`]).
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
//! let line = log.emit("log.line", "asgard.log", Parent::Ambient);
//! let _scope = log.scope(Some(line.id()));
//! let verdict = log.emit("conformance.verdict", "conformance:unfit", Parent::Ambient);
//! assert_eq!(log.records()[1].parent, Some(line.id().get()));
//! assert_eq!(verdict.id().get(), 1);
//! ```

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use pod_sim::{Clock, SimDuration, SimTime};

/// Upper bound on retained records per trace. The buffer is a true ring:
/// beyond the cap the *oldest* records are evicted (and counted in
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

/// One recorded causal event; with an `end`, a span.
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
    /// The innermost span open when the record was written — for a span,
    /// the span enclosing it.
    pub span: Option<u64>,
    /// Virtual-clock emission time; a span's start.
    pub at: SimTime,
    /// A span's virtual-clock end: `None` for an instant, or a span still
    /// open.
    pub end: Option<SimTime>,
    /// Hand-off kind, e.g. `log.line`, `conformance.verdict`, `detection`;
    /// a guard span's name (`faulttree.walk`).
    pub kind: &'static str,
    /// Short label, e.g. the verdict tag or the fault-tree node id. A
    /// `Cow` so static labels (verdict tags) record without allocating.
    pub name: Cow<'static, str>,
    /// Key/value attributes in insertion order.
    pub attrs: Vec<(&'static str, String)>,
}

impl EventRecord {
    /// A span's virtual duration; `None` for a record without an end.
    pub fn duration(&self) -> Option<SimDuration> {
        Some(self.end?.duration_since(self.at))
    }
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
    /// The open spans' ids, innermost last.
    spans: Vec<u64>,
}

impl EventLogInner {
    /// Records an event and returns its id.
    fn push(
        &mut self,
        span: Option<u64>,
        kind: &'static str,
        name: Cow<'static, str>,
        parent: Option<u64>,
        at: SimTime,
        attrs: Vec<(&'static str, String)>,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if self.ring.len() >= EVENT_CAP {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(EventRecord {
            id,
            parent,
            span,
            at,
            end: None,
            kind,
            name,
            attrs,
        });
        id
    }

    /// The innermost open span.
    fn span(&self) -> Option<u64> {
        self.spans.last().copied()
    }

    /// The retained record `id`: the ring is ordered by id, and an evicted
    /// record is `None`.
    fn get_mut(&mut self, id: u64) -> Option<&mut EventRecord> {
        let pos = self.ring.binary_search_by_key(&id, |e| e.id).ok()?;
        self.ring.get_mut(pos)
    }

    fn parent(&mut self, parent: Parent) -> Option<u64> {
        match parent {
            Parent::Ambient => self.resolve_ambient(),
            Parent::Of(p) => Some(p.get()),
        }
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
                let placeholder = CauseFrame::Resolved(u64::MAX);
                let CauseFrame::Pending(p) = std::mem::replace(&mut self.causes[i], placeholder)
                else {
                    unreachable!("checked above");
                };
                let id = self.push(p.span, p.kind, p.name, parent, p.at, p.attrs);
                self.causes[i] = CauseFrame::Resolved(id);
            }
        }
        self.causes.last().map(|frame| match frame {
            CauseFrame::Resolved(id) => *id,
            CauseFrame::Pending(_) => unreachable!("all pending frames resolved above"),
        })
    }
}

/// The shared causal event log. Cloning shares the buffer, the cause stack
/// and the open spans.
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

    /// Starts a fresh trace, discarding all records, scopes and open spans
    /// of the previous one.
    pub fn begin_trace(&self) {
        *self.inner.lock() = EventLogInner::default();
    }

    /// Emits one event and returns a handle for attaching attributes.
    pub fn emit(&self, kind: &'static str, name: &str, parent: Parent) -> Emitted {
        let id = self.emit_with(kind, name.to_string(), parent, Vec::new());
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
        attrs: Vec<(&'static str, String)>,
    ) -> EventId {
        let name = name.into();
        let at = self.clock.now();
        let mut inner = self.inner.lock();
        let parent = inner.parent(parent);
        let span = inner.span();
        EventId(inner.push(span, kind, name, parent, at, attrs))
    }

    /// Opens a span: records it now and makes it the innermost open span
    /// until the guard drops, which writes its end. With `parent: None` it
    /// is a guard span — no cause, and pending causes stay pending.
    pub(crate) fn open(
        &self,
        kind: &'static str,
        name: Cow<'static, str>,
        parent: Option<Parent>,
    ) -> SpanGuard {
        let at = self.clock.now();
        let mut inner = self.inner.lock();
        let parent = parent.and_then(|p| inner.parent(p));
        let span = inner.span();
        let id = inner.push(span, kind, name, parent, at, Vec::new());
        inner.spans.push(id);
        SpanGuard {
            event: Emitted {
                log: Some(self.clone()),
                id: EventId(id),
            },
        }
    }

    /// Makes the already-recorded event `id` a span of the work that led
    /// to it: its emission time becomes its end, and `start` its `at`.
    pub fn backdate(&self, id: EventId, start: SimTime) {
        if let Some(record) = self.inner.lock().get_mut(id.get()) {
            record.end = Some(record.at);
            record.at = start;
        }
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
    /// name, attrs, the innermost open span and the clock time) captured
    /// now but recorded only if some event is actually emitted under the
    /// scope with [`Parent::Ambient`].
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
    ) -> CauseScope {
        let at = self.clock.now();
        let mut inner = self.inner.lock();
        let span = inner.span();
        inner.causes.push(CauseFrame::Pending(PendingCause {
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

    /// All retained records, in emission order.
    pub fn records(&self) -> Vec<EventRecord> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Runs `f` over the retained records without cloning them — the
    /// accounting path ([`crate::incident_count`], the latency budget)
    /// reads thousands of records per run, and a deep copy of every
    /// `String` in the ring would dwarf the cost being measured.
    pub fn with_records<R>(&self, f: impl FnOnce(&[EventRecord]) -> R) -> R {
        let mut inner = self.inner.lock();
        // O(1) unless the ring wrapped, which only happens past EVENT_CAP.
        f(inner.ring.make_contiguous())
    }

    /// Records evicted from the ring after the retention cap was reached.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    fn set_attr(&self, id: u64, key: &'static str, value: String) {
        if let Some(record) = self.inner.lock().get_mut(id) {
            record.attrs.push((key, value));
        }
    }

    /// Ends the open span `id` now; a span no longer open (the trace was
    /// restarted under it) is left alone.
    fn close(&self, id: u64) {
        let end = self.clock.now();
        let mut inner = self.inner.lock();
        let Some(pos) = inner.spans.iter().rposition(|&s| s == id) else {
            return;
        };
        inner.spans.remove(pos);
        if let Some(record) = inner.get_mut(id) {
            record.end = Some(end);
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

/// RAII guard for an open span; dropping it writes the span's end at the
/// clock's current virtual time. Inert, like [`Emitted`], when telemetry
/// is off.
#[derive(Debug)]
pub struct SpanGuard {
    event: Emitted,
}

impl SpanGuard {
    /// An inert guard recording nothing (telemetry off).
    pub(crate) fn disabled() -> SpanGuard {
        SpanGuard {
            event: Emitted::disabled(),
        }
    }

    /// Attaches a key/value attribute to the span.
    pub fn attr(&self, key: &'static str, value: impl std::fmt::Display) {
        self.event.attr(key, value);
    }

    /// The span's record id, for scoping the events it causes.
    pub fn id(&self) -> EventId {
        self.event.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(log) = &self.event.log {
            log.close(self.event.id.get());
        }
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

    fn advance(clock: &Clock, ms: u64) {
        clock.advance(SimDuration::from_millis(ms));
    }

    /// A guard span, as [`crate::Obs::span`] opens it.
    fn guard(log: &EventLog, name: &'static str) -> SpanGuard {
        log.open(name, Cow::Borrowed(name), None)
    }

    #[test]
    fn events_link_to_the_ambient_cause() {
        let log = log();
        let root = log.emit("log.line", "asgard.log", Parent::Ambient);
        assert_eq!(log.records()[0].parent, None);
        {
            let _scope = log.scope(Some(root.id()));
            let span = guard(&log, "upgrade.step");
            let child = log.emit("conformance.verdict", "fit", Parent::Ambient);
            assert_eq!(log.current_cause(), Some(root.id()));
            let records = log.records();
            assert_eq!(records[2].parent, Some(root.id().get()));
            assert_eq!(records[2].span, Some(span.id().get()));
            // Nested scopes stack.
            let _inner = log.scope(Some(child.id()));
            log.emit("detection", "assertion-log", Parent::Ambient);
            assert_eq!(log.records()[3].parent, Some(child.id().get()));
        }
        assert_eq!(log.current_cause(), None);
        log.emit("detection", "late", Parent::Ambient);
        assert_eq!(log.records()[4].parent, None);
        assert_eq!(log.records()[4].span, None, "the span closed");
    }

    #[test]
    fn explicit_parent_overrides_the_stack() {
        let log = log();
        let a = log.emit("a", "a", Parent::Ambient);
        let b = log.emit("b", "b", Parent::Ambient);
        let _scope = log.scope(Some(b.id()));
        let c = log.emit("c", "c", Parent::Of(a.id()));
        let records = log.records();
        assert_eq!(records[2].parent, Some(a.id().get()));
        assert_eq!(c.id().get(), 2);
    }

    #[test]
    fn pending_scope_records_nothing_when_unused() {
        let log = log();
        {
            let _scope = log.scope_pending("log.line", "asgard.log", Vec::new());
            // Nothing emitted under the scope: the frame is discarded.
        }
        assert!(log.records().is_empty());
        // Ids were never consumed either.
        let ev = log.emit("e", "e", Parent::Ambient);
        assert_eq!(ev.id().get(), 0);
    }

    #[test]
    fn pending_scope_materialises_on_first_ambient_emit() {
        let clock = Clock::new();
        let log = EventLog::new(clock.clone());
        log.begin_trace();
        advance(&clock, 5);
        let step = guard(&log, "upgrade.step");
        let _scope = log.scope_pending(
            "log.line",
            "asgard.log",
            vec![("message", "Instance i-aa is ready".to_string())],
        );
        advance(&clock, 10);
        let child = log.emit("conformance.verdict", "conformance:unfit", Parent::Ambient);
        let records = log.records();
        // The root landed after the span, with the capture-time timestamp
        // and span.
        assert_eq!(records.len(), 3);
        assert_eq!(records[1].kind, "log.line");
        assert_eq!(records[1].at, SimTime::from_millis(5));
        assert_eq!(records[1].span, Some(step.id().get()));
        assert_eq!(
            records[1].attrs,
            vec![("message", "Instance i-aa is ready".to_string())]
        );
        assert_eq!(records[2].parent, Some(records[1].id));
        assert!(records[1].id < child.id().get());
        // A second emission reuses the already-materialised id.
        log.emit("detection", "conformance-unfit", Parent::Ambient);
        assert_eq!(log.records()[3].parent, Some(records[1].id));
        assert_eq!(log.records().len(), 4);
    }

    #[test]
    fn nested_pending_frames_materialise_bottom_up() {
        let log = log();
        let _outer = log.scope_pending("log.line", "outer", Vec::new());
        let _inner = log.scope_pending("log.line", "inner", Vec::new());
        log.emit("detection", "d", Parent::Ambient);
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
        let _scope = log.scope_pending("log.line", "asgard.log", Vec::new());
        let cause = log.current_cause().expect("scope is active");
        // Resolving materialised the root; later ambient emits chain to it.
        assert_eq!(log.records().len(), 1);
        log.emit("assertion.result", "late", Parent::Ambient);
        assert_eq!(log.records()[1].parent, Some(cause.get()));
    }

    #[test]
    fn explicit_parent_leaves_pending_frames_untouched() {
        let log = log();
        let a = log.emit("a", "a", Parent::Ambient);
        let _scope = log.scope_pending("log.line", "asgard.log", Vec::new());
        log.emit("b", "b", Parent::Of(a.id()));
        // An explicit-parent emission does not consult the stack.
        assert_eq!(log.records().len(), 2);
        assert!(log.records().iter().all(|r| r.kind != "log.line"));
    }

    #[test]
    fn guard_span_leaves_a_pending_cause_pending() {
        let log = log();
        let _scope = log.scope_pending("log.line", "asgard.log", Vec::new());
        drop(guard(&log, "faulttree.walk"));
        let records = log.records();
        assert_eq!(records.len(), 1, "only the span: {records:?}");
        assert_eq!(records[0].kind, "faulttree.walk");
        assert_eq!(records[0].parent, None);
        // The cause materialises later, when an event actually needs it.
        log.emit("detection", "d", Parent::Ambient);
        let records = log.records();
        assert_eq!(records[1].kind, "log.line");
        assert_eq!(records[2].parent, Some(records[1].id));
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let clock = Clock::new();
        let log = EventLog::new(clock.clone());
        log.begin_trace();
        {
            let outer = guard(&log, "outer");
            advance(&clock, 10);
            {
                let inner = log.open("faulttree.test", "inner".into(), Some(Parent::Ambient));
                inner.attr("k", 3);
                log.emit("consistent.retry", "retry", Parent::Ambient);
                advance(&clock, 5);
            }
            outer.attr("steps", "2");
            advance(&clock, 1);
        }
        let records = log.records();
        // Emission order: a span is recorded when it opens.
        let [outer, inner, retry] = &records[..] else {
            panic!("three records: {records:?}");
        };
        assert_eq!(inner.span, Some(outer.id));
        assert_eq!(retry.span, Some(inner.id));
        assert_eq!(retry.duration(), None, "an instant");
        assert_eq!(inner.duration(), Some(SimDuration::from_millis(5)));
        assert_eq!(outer.duration(), Some(SimDuration::from_millis(16)));
        assert_eq!(inner.attrs, vec![("k", "3".to_string())]);
        assert_eq!(outer.attrs, vec![("steps", "2".to_string())]);
    }

    #[test]
    fn sibling_spans_share_an_enclosing_span() {
        let clock = Clock::new();
        let log = EventLog::new(clock.clone());
        log.begin_trace();
        let root = guard(&log, "walk");
        for _ in 0..3 {
            let t = guard(&log, "test");
            advance(&clock, 2);
            drop(t);
        }
        drop(root);
        let records = log.records();
        let root_id = records.iter().find(|s| s.kind == "walk").unwrap().id;
        let tests = records.iter().filter(|s| s.span == Some(root_id));
        assert_eq!(tests.count(), 3);
    }

    #[test]
    fn backdate_turns_an_event_into_the_span_of_its_work() {
        let clock = Clock::new();
        let log = EventLog::new(clock.clone());
        log.begin_trace();
        advance(&clock, 3);
        let started = clock.now();
        advance(&clock, 10);
        let id = log.emit_with(
            "assertion.result",
            "asg-desired",
            Parent::Ambient,
            Vec::new(),
        );
        log.backdate(id, started);
        let record = &log.records()[0];
        assert_eq!(record.at, SimTime::from_millis(3));
        assert_eq!(record.end, Some(SimTime::from_millis(13)));
    }

    #[test]
    fn none_scope_is_a_no_op() {
        let log = log();
        {
            let _scope = log.scope(None);
            log.emit("x", "x", Parent::Ambient);
        }
        assert_eq!(log.records()[0].parent, None);
        assert_eq!(log.current_cause(), None);
    }

    #[test]
    fn attrs_attach_to_the_emitted_event() {
        let log = log();
        let ev = log.emit("assertion.result", "asg-desired", Parent::Ambient);
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
            log.emit("e", &i.to_string(), Parent::Ambient);
        }
        assert_eq!(log.records().len(), EVENT_CAP);
        assert_eq!(log.dropped(), 5);
        // The oldest ids are gone; the newest survive.
        let records = log.records();
        assert_eq!(records.first().unwrap().id, 5);
        assert_eq!(records.last().unwrap().id, (EVENT_CAP + 4) as u64);
    }

    #[test]
    fn spans_share_the_ring_cap_and_drop_count() {
        let log = log();
        for _ in 0..(EVENT_CAP + 10) {
            drop(guard(&log, "s"));
        }
        assert_eq!(log.records().len(), EVENT_CAP);
        assert_eq!(log.dropped(), 10);
        // An evicted record's span still closes without a trace.
        let open = guard(&log, "s");
        for i in 0..EVENT_CAP {
            log.emit("e", &i.to_string(), Parent::Ambient);
        }
        open.attr("k", "v");
        drop(open);
        assert!(log.records().iter().all(|r| r.end.is_none()));
    }

    #[test]
    fn begin_trace_resets_everything() {
        let log = log();
        let a = log.emit("a", "a", Parent::Ambient);
        let _leaked = log.scope(Some(a.id()));
        log.begin_trace();
        assert!(log.records().is_empty());
        assert_eq!(log.current_cause(), None);
    }

    #[test]
    fn begin_trace_forgets_the_spans_of_the_previous_trace() {
        let log = log();
        drop(guard(&log, "x"));
        assert_eq!(log.records().len(), 1);
        let stale = guard(&log, "upgrade.run");
        log.begin_trace();
        assert!(log.records().is_empty());
        // A span of the previous trace neither encloses nor ends anything.
        let fresh = log.emit("a", "a", Parent::Ambient);
        assert_eq!(log.records()[0].span, None);
        drop(stale);
        assert_eq!(fresh.id().get(), 0);
        assert_eq!(log.records()[0].end, None);
    }

    #[test]
    fn timestamps_come_from_the_clock() {
        let clock = Clock::new();
        let log = EventLog::new(clock.clone());
        log.begin_trace();
        advance(&clock, 42);
        log.emit("e", "e", Parent::Ambient);
        assert_eq!(log.records()[0].at, SimTime::from_millis(42));
    }
}
