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
//! [`EventLog::scope`] and every event emitted while the scope is alive
//! with a `None` parent is parented to it. An explicit parent id overrides
//! the stack. A log line's root is handed down as a value instead
//! ([`PendingRoot`]): most lines cause nothing, so the line costs no frame
//! and its root is recorded only by the first event that cites it.
//!
//! A record keeps its attributes as the value the emitter already holds —
//! the stored line, the net's unfit context, a detection's shared strings,
//! integer counts — and renders them to `(key, String)` pairs only when a
//! reader asks ([`EventAttrs`], [`EventRecord::attrs`]). A name that is not
//! a static string is read from that value too: a root's from its stored
//! line, an owned name from beside the attributes it was kept with.
//!
//! A record is stored compactly (88 bytes) and read through accessors: an
//! absent parent, span or end takes no tag of its own. The ring grows in
//! bounded steps ([`pod_sim::growth_step`]), so a tenant's ring holds at
//! most one step of room past its last record.
//!
//! Every record is written through [`crate::Obs`], which checks the
//! [`crate::TelemetryMode`] once per write.
//!
//! # Examples
//!
//! ```
//! use pod_obs::Obs;
//!
//! let obs = Obs::detached();
//! obs.begin_run("run-1");
//! let line = obs.event(None, "log.line", "asgard.log", || ());
//! let _scope = obs.events().scope(line);
//! let verdict = obs.event(None, "conformance.verdict", "conformance:unfit", || ());
//! let records = obs.events().records();
//! assert_eq!(records[1].parent(), line.map(|id| id.get()));
//! assert_eq!(verdict.map(|id| id.get()), Some(1));
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use pod_sim::{growth_step, Clock, SimDuration, SimTime};

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

/// An id or a time a record may lack, stored in its eight bytes: no trace
/// numbers this many records, nor runs this many microseconds.
const ABSENT: u64 = u64::MAX;

/// The value `raw` stands for: `None` when it is [`ABSENT`].
fn present(raw: u64) -> Option<u64> {
    (raw != ABSENT).then_some(raw)
}

/// One recorded causal event; with an `end`, a span.
///
/// `kind` and attribute keys are `&'static str`: every call site names
/// them with literals, and the hot path (one event per acted-on log line)
/// must not allocate for strings the binary already contains. The
/// attributes are kept as the value they are rendered from
/// ([`EventAttrs`]) and rendered only when a reader asks
/// ([`EventRecord::attrs`]); a name that is not static is read from that
/// value too ([`EventAttrs::root_name`]). A record is a ring slot for
/// every event a tenant's trace holds, so it is kept compact and read
/// through its accessors.
#[derive(Clone)]
pub struct EventRecord {
    id: u64,
    /// The causing event's id, or [`ABSENT`].
    parent: u64,
    /// The innermost open span's id, or [`ABSENT`].
    span: u64,
    at: SimTime,
    /// A span's end in microseconds, or [`ABSENT`].
    end: u64,
    kind: &'static str,
    /// A static name; `None` reads it from `kept`, else from `kind`.
    name: Option<&'static str>,
    /// What the attributes are rendered from; `None` for a record without
    /// any.
    kept: Option<Arc<dyn EventAttrs>>,
}

impl EventRecord {
    /// Unique id within the trace (ascending in emission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The causing event, if any.
    pub fn parent(&self) -> Option<u64> {
        present(self.parent)
    }

    /// The innermost span open when the record was written — for a span,
    /// the span enclosing it.
    pub fn span(&self) -> Option<u64> {
        present(self.span)
    }

    /// Virtual-clock emission time; a span's start.
    pub fn at(&self) -> SimTime {
        self.at
    }

    /// A span's virtual-clock end: `None` for an instant, or a span still
    /// open.
    pub fn end(&self) -> Option<SimTime> {
        present(self.end).map(SimTime::from_micros)
    }

    /// Hand-off kind, e.g. `log.line`, `conformance.verdict`, `detection`;
    /// a guard span's name (`faulttree.walk`).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// Short label, e.g. the verdict tag, the fault-tree node id or a
    /// root's source log: a static label, else the one the kept value
    /// names, else the kind.
    pub fn name(&self) -> &str {
        match (self.name, &self.kept) {
            (Some(name), _) => name,
            (None, Some(kept)) => kept.root_name().unwrap_or(self.kind),
            (None, None) => self.kind,
        }
    }

    /// A span's virtual duration; `None` for a record without an end.
    pub fn duration(&self) -> Option<SimDuration> {
        Some(self.end()?.duration_since(self.at))
    }

    /// The key/value attributes in insertion order, rendered now from the
    /// value the record keeps.
    pub fn attrs(&self) -> Vec<(&'static str, String)> {
        let mut out = Vec::new();
        if let Some(kept) = &self.kept {
            kept.render_attrs(&mut out);
        }
        out
    }
}

impl std::fmt::Debug for EventRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRecord")
            .field("id", &self.id)
            .field("parent", &self.parent())
            .field("span", &self.span())
            .field("at", &self.at)
            .field("end", &self.end())
            .field("kind", &self.kind)
            .field("name", &self.name())
            .field("kept", &self.kept)
            .finish()
    }
}

/// What a causal event's attributes are rendered from: a value the
/// emitter already holds, shared with the record and rendered to
/// `(key, String)` pairs only when a reader asks ([`EventRecord::attrs`]).
/// A pending root is one too ([`crate::Obs::pending_root`]): the engine's
/// stored log line, so a line's root copies none of its strings, not even
/// its name ([`EventAttrs::root_name`]).
pub trait EventAttrs: std::fmt::Debug + Send + Sync + 'static {
    /// Appends the attributes to `out`, in insertion order.
    fn render_attrs(&self, out: &mut Vec<(&'static str, String)>);

    /// The name of a record that keeps this value and has no static name of
    /// its own: a root's source log, an owned name kept beside the
    /// attributes ([`crate::EventName`]). `None` names it after its kind.
    fn root_name(&self) -> Option<&str> {
        None
    }

    /// The value as a record keeps it: `None` for one that renders nothing.
    fn keep(self) -> Option<Arc<dyn EventAttrs>>
    where
        Self: Sized,
    {
        Some(Arc::new(self))
    }
}

/// No attributes: nothing is kept.
impl EventAttrs for () {
    fn render_attrs(&self, _: &mut Vec<(&'static str, String)>) {}

    fn keep(self) -> Option<Arc<dyn EventAttrs>> {
        None
    }
}

/// Attributes that may be absent: nothing is kept for `None`.
impl<A: EventAttrs> EventAttrs for Option<A> {
    fn render_attrs(&self, out: &mut Vec<(&'static str, String)>) {
        if let Some(attrs) = self {
            attrs.render_attrs(out);
        }
    }

    fn keep(self) -> Option<Arc<dyn EventAttrs>> {
        self.and_then(A::keep)
    }
}

/// Renders each value of `values` under its key.
fn render_values(values: &[(&'static str, AttrValue)], out: &mut Vec<(&'static str, String)>) {
    out.extend(values.iter().map(|(key, value)| (*key, value.to_string())));
}

/// A fixed list of values, e.g. `[("attempts", attempts.into())]`.
impl<const N: usize> EventAttrs for [(&'static str, AttrValue); N] {
    fn render_attrs(&self, out: &mut Vec<(&'static str, String)>) {
        render_values(self, out);
    }
}

/// A list of values an emitter collects.
type Values = Vec<(&'static str, AttrValue)>;

/// A list of values whose length the emitter decides: kept at its exact
/// size, and not at all when empty. Up to four values — every list an
/// emitter or a span collects — are kept as an array, in one block with
/// the count the `Arc` shares; a longer list is a boxed slice behind it.
impl EventAttrs for Values {
    fn render_attrs(&self, out: &mut Vec<(&'static str, String)>) {
        render_values(self, out);
    }

    fn keep(self) -> Option<Arc<dyn EventAttrs>> {
        /// `values` as an array of `N`, or `values` back.
        fn exact<const N: usize>(values: Values) -> Result<Arc<dyn EventAttrs>, Values> {
            <[_; N]>::try_from(values).map(|a| Arc::new(a) as Arc<dyn EventAttrs>)
        }
        if self.is_empty() {
            return None;
        }
        let kept = exact::<1>(self)
            .or_else(exact::<2>)
            .or_else(exact::<3>)
            .or_else(exact::<4>)
            .unwrap_or_else(|values| Arc::new(values.into_boxed_slice()));
        Some(kept)
    }
}

/// A kept list of values.
impl EventAttrs for Box<[(&'static str, AttrValue)]> {
    fn render_attrs(&self, out: &mut Vec<(&'static str, String)>) {
        render_values(self, out);
    }
}

/// A record's owned name, kept beside its attributes in the one value the
/// record shares ([`crate::EventName`] for `&String`, an event span's name).
#[derive(Debug)]
pub(crate) struct Named<A> {
    pub(crate) name: Box<str>,
    pub(crate) attrs: A,
}

impl<A: EventAttrs> EventAttrs for Named<A> {
    fn render_attrs(&self, out: &mut Vec<(&'static str, String)>) {
        self.attrs.render_attrs(out);
    }

    fn root_name(&self) -> Option<&str> {
        Some(&self.name)
    }
}

/// An event span's name and, once it ends, its attributes.
type SpanNamed = Named<Box<[(&'static str, AttrValue)]>>;

impl SpanNamed {
    /// `named` with the span's `attrs`: filled in place when the guard
    /// holds the only share, else a new value with a copy of the name (a
    /// reader cloned the record while the span was open).
    fn fill(mut named: Arc<SpanNamed>, attrs: Box<[(&'static str, AttrValue)]>) -> Arc<SpanNamed> {
        match Arc::get_mut(&mut named) {
            Some(open) => {
                open.attrs = attrs;
                named
            }
            None => Arc::new(Named {
                name: named.name.clone(),
                attrs,
            }),
        }
    }
}

/// One attribute value as a record keeps it: a count stays an integer and
/// a string stays the one the emitter holds, until a reader renders it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// A count or a duration.
    Int(u64),
    /// A string the binary contains.
    Static(&'static str),
    /// A string the emitter shares.
    Shared(Arc<str>),
    /// A string copied for the record.
    Owned(Box<str>),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Int(n) => write!(f, "{n}"),
            AttrValue::Static(s) => f.write_str(s),
            AttrValue::Shared(s) => f.write_str(s),
            AttrValue::Owned(s) => f.write_str(s),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(n: u64) -> AttrValue {
        AttrValue::Int(n)
    }
}

impl From<u32> for AttrValue {
    fn from(n: u32) -> AttrValue {
        AttrValue::Int(n.into())
    }
}

impl From<usize> for AttrValue {
    fn from(n: usize) -> AttrValue {
        AttrValue::Int(n as u64)
    }
}

impl From<&'static str> for AttrValue {
    fn from(s: &'static str) -> AttrValue {
        AttrValue::Static(s)
    }
}

impl From<Arc<str>> for AttrValue {
    fn from(s: Arc<str>) -> AttrValue {
        AttrValue::Shared(s)
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> AttrValue {
        AttrValue::Owned(s.into_boxed_str())
    }
}

/// A string the emitter keeps: copied only when the span is open
/// ([`SpanGuard::attr`] converts after it checks).
impl From<&String> for AttrValue {
    fn from(s: &String) -> AttrValue {
        AttrValue::Owned(s.as_str().into())
    }
}

/// A cause not yet recorded: a `log.line`-style root event's kind and the
/// shared value it is recorded from, with the clock time captured when it
/// was made, materialised into the ring only if an event cites it.
#[derive(Debug, Clone)]
struct PendingCause {
    kind: &'static str,
    root: Arc<dyn EventAttrs>,
    at: SimTime,
}

/// One frame of the ambient cause stack.
#[derive(Debug)]
enum CauseFrame {
    /// An already-recorded event id.
    Resolved(u64),
    /// A lazy root, with the span open when it was scoped: recorded on
    /// first use as an ambient parent.
    Pending(PendingCause, Option<u64>),
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
    /// Records an event and returns its id. A full ring grows by one
    /// bounded step ([`growth_step`]), never past [`EVENT_CAP`].
    fn push(
        &mut self,
        span: Option<u64>,
        kind: &'static str,
        name: Option<&'static str>,
        parent: Option<u64>,
        at: SimTime,
        kept: Option<Arc<dyn EventAttrs>>,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let len = self.ring.len();
        if len >= EVENT_CAP {
            self.ring.pop_front();
            self.dropped += 1;
        } else if len == self.ring.capacity() {
            self.ring
                .reserve_exact(growth_step(len).min(EVENT_CAP - len));
        }
        self.ring.push_back(EventRecord {
            id,
            parent: parent.unwrap_or(ABSENT),
            span: span.unwrap_or(ABSENT),
            at,
            end: ABSENT,
            kind,
            name,
            kept,
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

    /// Records the pending cause `p` under `parent`, keeping its root,
    /// which names it.
    fn record(&mut self, p: PendingCause, span: Option<u64>, parent: Option<u64>) -> u64 {
        self.push(span, p.kind, None, parent, p.at, Some(p.root))
    }

    /// Resolves the innermost ambient cause in one bottom-up pass: each
    /// frame's parent is the id of the frame beneath it, so a pending frame
    /// is recorded under that id and replaced by its own.
    fn resolve_ambient(&mut self) -> Option<u64> {
        let mut below = None;
        for i in 0..self.causes.len() {
            let id = match &self.causes[i] {
                CauseFrame::Resolved(id) => *id,
                CauseFrame::Pending(p, span) => {
                    let (p, span) = (p.clone(), *span);
                    let id = self.record(p, span, below);
                    self.causes[i] = CauseFrame::Resolved(id);
                    id
                }
            };
            below = Some(id);
        }
        below
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
    pub(crate) fn new(clock: Clock) -> EventLog {
        EventLog {
            clock,
            inner: Arc::new(Mutex::new(EventLogInner::default())),
        }
    }

    /// Starts a fresh trace, discarding all records, scopes and open spans
    /// of the previous one.
    pub(crate) fn begin_trace(&self) {
        *self.inner.lock() = EventLogInner::default();
    }

    /// Records one event with the value its attributes are rendered from,
    /// under one lock: parented to `parent`, or the innermost ambient cause
    /// when `None`, and correlated with the innermost open span.
    pub(crate) fn emit(
        &self,
        parent: Option<EventId>,
        kind: &'static str,
        name: Option<&'static str>,
        kept: Option<Arc<dyn EventAttrs>>,
    ) -> EventId {
        let at = self.clock.now();
        let mut inner = self.inner.lock();
        let parent = parent.map(EventId::get).or_else(|| inner.resolve_ambient());
        let span = inner.span();
        EventId(inner.push(span, kind, name, parent, at, kept))
    }

    /// Opens a span: records it now and makes it the innermost open span
    /// until the guard drops, which writes its end. A span is named after
    /// its kind, or `owned`, kept beside the attributes it ends with. A
    /// `caused` span is parented to the innermost ambient cause; otherwise
    /// it is a guard span — no cause, and pending causes stay pending.
    pub(crate) fn open(&self, kind: &'static str, owned: Option<&str>, caused: bool) -> SpanGuard {
        let named = owned.map(|name| {
            Arc::new(Named {
                name: name.into(),
                attrs: Box::default(),
            })
        });
        let (name, kept) = match &named {
            None => (Some(kind), None),
            Some(named) => (None, Some(Arc::clone(named) as Arc<dyn EventAttrs>)),
        };
        let at = self.clock.now();
        let mut inner = self.inner.lock();
        let parent = caused.then(|| inner.resolve_ambient()).flatten();
        let span = inner.span();
        let id = inner.push(span, kind, name, parent, at, kept);
        inner.spans.push(id);
        SpanGuard {
            open: Some((self.clone(), EventId(id))),
            named,
            attrs: RefCell::default(),
        }
    }

    /// Makes the already-recorded event `id` a span of the work that led
    /// to it: its emission time becomes its end, and `start` its `at`.
    pub fn backdate(&self, id: EventId, start: SimTime) {
        if let Some(record) = self.inner.lock().get_mut(id.get()) {
            record.end = record.at.as_micros();
            record.at = start;
        }
    }

    /// Pushes `cause` (when present) onto the ambient cause stack; the
    /// returned guard pops it on drop. A `None` cause is a no-op scope, so
    /// call sites can thread `Option<EventId>` without branching.
    pub fn scope(&self, cause: Option<EventId>) -> CauseScope {
        let Some(cause) = cause else {
            return CauseScope { log: None };
        };
        self.inner
            .lock()
            .causes
            .push(CauseFrame::Resolved(cause.get()));
        CauseScope {
            log: Some(self.clone()),
        }
    }

    /// A pending root of `kind`, recorded from `root` only if an event
    /// cites it (see [`PendingRoot`]); the clock time is captured now.
    pub(crate) fn pending_root(
        &self,
        kind: &'static str,
        root: Arc<dyn EventAttrs>,
    ) -> PendingRoot {
        let at = self.clock.now();
        PendingRoot {
            log: Some(self.clone()),
            pending: Some(PendingCause { kind, root, at }),
            id: None,
        }
    }

    /// All retained records, in emission order.
    pub fn records(&self) -> Vec<EventRecord> {
        self.inner.lock().ring.iter().cloned().collect()
    }

    /// Runs `f` over the retained records without cloning them — the
    /// accounting path ([`crate::incident_count`], the latency budget)
    /// reads thousands of records per run, and copying every record out
    /// of the ring would dwarf the cost being measured.
    pub fn with_records<R>(&self, f: impl FnOnce(&[EventRecord]) -> R) -> R {
        let mut inner = self.inner.lock();
        // O(1) unless the ring wrapped, which only happens past EVENT_CAP.
        f(inner.ring.make_contiguous())
    }

    /// Records evicted from the ring after the retention cap was reached.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Ends the open span `id` now, with the attributes its guard
    /// collected, beside its owned name when it has one; a span no longer
    /// open (the trace was restarted under it) is left alone.
    fn close(&self, id: u64, attrs: Values, named: Option<Arc<SpanNamed>>) {
        let end = self.clock.now();
        let mut inner = self.inner.lock();
        let Some(pos) = inner.spans.iter().rposition(|&s| s == id) else {
            return;
        };
        inner.spans.remove(pos);
        if let Some(record) = inner.get_mut(id) {
            record.end = end.as_micros();
            // The record's share goes first, so the guard's is the only one.
            drop(record.kept.take());
            record.kept = match named {
                None => attrs.keep(),
                Some(named) => Some(SpanNamed::fill(named, attrs.into_boxed_slice())),
            };
        }
    }
}

/// RAII guard for an open span; dropping it writes the span's end at the
/// clock's current virtual time, with the attributes set through
/// [`SpanGuard::attr`]. Inert when telemetry is off
/// ([`crate::TelemetryMode::Off`]): it holds no log and no id, so call sites
/// need no mode checks of their own.
#[derive(Debug)]
pub struct SpanGuard {
    open: Option<(EventLog, EventId)>,
    /// The owned name the record keeps, which takes the attributes when the
    /// span ends; `None` for a span named after its kind.
    named: Option<Arc<SpanNamed>>,
    /// The attributes set so far, written with the span's end.
    attrs: RefCell<Values>,
}

impl SpanGuard {
    /// An inert guard recording nothing (telemetry off).
    pub(crate) fn disabled() -> SpanGuard {
        SpanGuard {
            open: None,
            named: None,
            attrs: RefCell::default(),
        }
    }

    /// Attaches a key/value attribute to the span; it lands in the record
    /// when the span ends. A count stays an integer until it is read.
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        if self.open.is_some() {
            self.attrs.borrow_mut().push((key, value.into()));
        }
    }

    /// The span's record id, for scoping the events it causes; `None` for
    /// an inert guard.
    pub fn id(&self) -> Option<EventId> {
        self.open.as_ref().map(|(_, id)| *id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((log, id)) = &self.open {
            log.close(id.get(), self.attrs.take(), self.named.take());
        }
    }
}

/// RAII guard for an ambient cause (see [`EventLog::scope`]); a no-op
/// scope holds no log.
#[derive(Debug)]
pub struct CauseScope {
    log: Option<EventLog>,
}

impl Drop for CauseScope {
    fn drop(&mut self) {
        if let Some(log) = &self.log {
            log.inner.lock().causes.pop();
        }
    }
}

/// A root cause handed down as a value instead of pushed as an ambient
/// frame: made per log line without taking the event log's lock
/// ([`crate::Obs::pending_root`]), recorded by the first emitter that
/// cites it ([`PendingRoot::resolve`]), and never recorded if none does.
/// Inert when telemetry is off (the default).
#[derive(Debug, Default)]
pub struct PendingRoot {
    /// The event log that made the root, and the only one it is recorded
    /// into; `None` when telemetry is off.
    log: Option<EventLog>,
    /// The cause until it is recorded; `None` once it is, or when
    /// telemetry is off.
    pending: Option<PendingCause>,
    id: Option<EventId>,
}

impl PendingRoot {
    /// The root's event id, recording it on the first call: under the
    /// innermost ambient cause, in the innermost open span, at the time
    /// the root was made. `None` when telemetry is off.
    pub fn resolve(&mut self) -> Option<EventId> {
        if let (Some(log), Some(p)) = (&self.log, self.pending.take()) {
            let mut inner = log.inner.lock();
            let (span, parent) = (inner.span(), inner.resolve_ambient());
            self.id = Some(EventId(inner.record(p, span, parent)));
        }
        self.id
    }

    /// Makes the root the ambient cause of the calls made while the
    /// returned scope lives, for emitters that take no parent of their
    /// own: its id once recorded, else a pending frame that the first of
    /// them to emit records. The root is spent: what the frame records, the
    /// value no longer knows.
    pub fn scope(self) -> CauseScope {
        let Some(log) = self.log else {
            return CauseScope { log: None };
        };
        let Some(p) = self.pending else {
            return log.scope(self.id);
        };
        {
            let mut inner = log.inner.lock();
            let span = inner.span();
            inner.causes.push(CauseFrame::Pending(p, span));
        }
        CauseScope { log: Some(log) }
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

    /// An attribute-free event under `parent` (ambient when `None`).
    fn emit(log: &EventLog, parent: Option<EventId>, kind: &'static str, name: &str) -> EventId {
        let (name, kept) = crate::EventName::keep_with(&name.to_string(), ());
        log.emit(parent, kind, name, kept)
    }

    /// A guard span, as [`crate::Obs::span`] opens it.
    fn guard(log: &EventLog, name: &'static str) -> SpanGuard {
        log.open(name, None, false)
    }

    /// A cause root with a fixed name and attributes.
    #[derive(Debug)]
    struct Root(&'static str, Vec<(&'static str, AttrValue)>);

    impl EventAttrs for Root {
        fn render_attrs(&self, out: &mut Vec<(&'static str, String)>) {
            self.1.render_attrs(out);
        }

        fn root_name(&self) -> Option<&str> {
            Some(self.0)
        }
    }

    /// The innermost ambient cause, resolved as an ambient emission would.
    fn current_cause(log: &EventLog) -> Option<EventId> {
        log.inner.lock().resolve_ambient().map(EventId)
    }

    /// A pending root pushed as an ambient frame.
    fn scope_pending(log: &EventLog, kind: &'static str, root: Arc<dyn EventAttrs>) -> CauseScope {
        log.pending_root(kind, root).scope()
    }

    /// A pending `log.line` root named `name`, without attributes.
    fn line(name: &'static str) -> Arc<dyn EventAttrs> {
        Arc::new(Root(name, Vec::new()))
    }

    #[test]
    fn events_link_to_the_ambient_cause() {
        let log = log();
        let root = emit(&log, None, "log.line", "asgard.log");
        assert_eq!(log.records()[0].parent(), None);
        {
            let _scope = log.scope(Some(root));
            let span = guard(&log, "upgrade.step");
            let child = emit(&log, None, "conformance.verdict", "fit");
            assert_eq!(current_cause(&log), Some(root));
            let records = log.records();
            assert_eq!(records[2].parent(), Some(root.get()));
            assert_eq!(records[2].span(), span.id().map(EventId::get));
            // Nested scopes stack.
            let _inner = log.scope(Some(child));
            emit(&log, None, "detection", "assertion-log");
            assert_eq!(log.records()[3].parent(), Some(child.get()));
        }
        assert_eq!(current_cause(&log), None);
        emit(&log, None, "detection", "late");
        assert_eq!(log.records()[4].parent(), None);
        assert_eq!(log.records()[4].span(), None, "the span closed");
    }

    #[test]
    fn explicit_parent_overrides_the_stack() {
        let log = log();
        let a = emit(&log, None, "a", "a");
        let b = emit(&log, None, "b", "b");
        let _scope = log.scope(Some(b));
        let c = emit(&log, Some(a), "c", "c");
        let records = log.records();
        assert_eq!(records[2].parent(), Some(a.get()));
        assert_eq!(c.get(), 2);
    }

    #[test]
    fn pending_scope_records_nothing_when_unused() {
        let log = log();
        {
            let _scope = scope_pending(&log, "log.line", line("asgard.log"));
            // Nothing emitted under the scope: the frame is discarded.
        }
        assert!(log.records().is_empty());
        // Ids were never consumed either.
        let ev = emit(&log, None, "e", "e");
        assert_eq!(ev.get(), 0);
    }

    #[test]
    fn pending_scope_materialises_on_first_ambient_emit() {
        let clock = Clock::new();
        let log = EventLog::new(clock.clone());
        log.begin_trace();
        advance(&clock, 5);
        let step = guard(&log, "upgrade.step");
        let root = Root(
            "asgard.log",
            vec![("message", "Instance i-aa is ready".into())],
        );
        let _scope = scope_pending(&log, "log.line", Arc::new(root));
        advance(&clock, 10);
        let child = emit(&log, None, "conformance.verdict", "conformance:unfit");
        let records = log.records();
        // The root landed after the span, with the capture-time timestamp
        // and span.
        assert_eq!(records.len(), 3);
        assert_eq!(records[1].kind(), "log.line");
        assert_eq!(records[1].at(), SimTime::from_millis(5));
        assert_eq!(records[1].span(), step.id().map(EventId::get));
        assert_eq!(
            records[1].attrs(),
            vec![("message", "Instance i-aa is ready".to_string())]
        );
        assert_eq!(records[2].parent(), Some(records[1].id()));
        assert!(records[1].id() < child.get());
        // A second emission reuses the already-materialised id.
        emit(&log, None, "detection", "conformance-unfit");
        assert_eq!(log.records()[3].parent(), Some(records[1].id()));
        assert_eq!(log.records().len(), 4);
    }

    #[test]
    fn a_pending_root_is_recorded_once_by_its_first_citer() {
        let clock = Clock::new();
        let log = EventLog::new(clock.clone());
        log.begin_trace();
        drop(log.pending_root("log.line", line("unused")));
        assert!(log.records().is_empty(), "an uncited root records nothing");
        let a = emit(&log, None, "a", "a");
        let _scope = log.scope(Some(a));
        let mut root = log.pending_root("log.line", line("asgard.log"));
        advance(&clock, 10);
        let step = guard(&log, "upgrade.step");
        let id = root.resolve();
        assert_eq!(root.resolve(), id, "resolved once");
        emit(&log, id, "conformance.verdict", "v");
        let records = log.records();
        assert_eq!(records.len(), 4);
        let line = &records[2];
        assert_eq!((line.kind(), line.name()), ("log.line", "asgard.log"));
        assert_eq!(line.parent(), Some(a.get()), "under the ambient cause");
        assert_eq!(line.span(), step.id().map(EventId::get));
        assert_eq!(line.at(), SimTime::ZERO, "made before the clock moved");
        // A resolved root scopes its id.
        let _line = root.scope();
        emit(&log, None, "assertion.result", "r");
        assert_eq!(log.records()[4].parent(), id.map(EventId::get));
    }

    #[test]
    fn nested_pending_frames_materialise_bottom_up() {
        let log = log();
        let _outer = scope_pending(&log, "log.line", line("outer"));
        let _inner = scope_pending(&log, "log.line", line("inner"));
        emit(&log, None, "detection", "d");
        let records = log.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].name(), "outer");
        assert_eq!(records[0].parent(), None);
        assert_eq!(records[1].name(), "inner");
        assert_eq!(records[1].parent(), Some(records[0].id()));
        assert_eq!(records[2].parent(), Some(records[1].id()));
    }

    #[test]
    fn current_cause_resolves_pending_frames() {
        let log = log();
        let _scope = scope_pending(&log, "log.line", line("asgard.log"));
        let cause = current_cause(&log).expect("scope is active");
        // Resolving materialised the root; later ambient emits chain to it.
        assert_eq!(log.records().len(), 1);
        emit(&log, None, "assertion.result", "late");
        assert_eq!(log.records()[1].parent(), Some(cause.get()));
    }

    #[test]
    fn explicit_parent_leaves_pending_frames_untouched() {
        let log = log();
        let a = emit(&log, None, "a", "a");
        let _scope = scope_pending(&log, "log.line", line("asgard.log"));
        emit(&log, Some(a), "b", "b");
        // An explicit-parent emission does not consult the stack.
        assert_eq!(log.records().len(), 2);
        assert!(log.records().iter().all(|r| r.kind() != "log.line"));
    }

    #[test]
    fn guard_span_leaves_a_pending_cause_pending() {
        let log = log();
        let _scope = scope_pending(&log, "log.line", line("asgard.log"));
        drop(guard(&log, "faulttree.walk"));
        let records = log.records();
        assert_eq!(records.len(), 1, "only the span: {records:?}");
        assert_eq!(records[0].kind(), "faulttree.walk");
        assert_eq!(records[0].parent(), None);
        // The cause materialises later, when an event actually needs it.
        emit(&log, None, "detection", "d");
        let records = log.records();
        assert_eq!(records[1].kind(), "log.line");
        assert_eq!(records[2].parent(), Some(records[1].id()));
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
                let inner = log.open("faulttree.test", Some("inner"), true);
                inner.attr("k", 3u64);
                emit(&log, None, "consistent.retry", "retry");
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
        assert_eq!(inner.span(), Some(outer.id()));
        assert_eq!(retry.span(), Some(inner.id()));
        assert_eq!(retry.duration(), None, "an instant");
        assert_eq!(inner.duration(), Some(SimDuration::from_millis(5)));
        assert_eq!(outer.duration(), Some(SimDuration::from_millis(16)));
        assert_eq!(inner.attrs(), vec![("k", "3".to_string())]);
        assert_eq!(outer.attrs(), vec![("steps", "2".to_string())]);
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
        let root_id = records.iter().find(|s| s.kind() == "walk").unwrap().id();
        let tests = records.iter().filter(|s| s.span() == Some(root_id));
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
        let id = emit(&log, None, "assertion.result", "asg-desired");
        log.backdate(id, started);
        let record = &log.records()[0];
        assert_eq!(record.at(), SimTime::from_millis(3));
        assert_eq!(record.end(), Some(SimTime::from_millis(13)));
    }

    #[test]
    fn none_scope_is_a_no_op() {
        let log = log();
        {
            let _scope = log.scope(None);
            emit(&log, None, "x", "x");
        }
        assert_eq!(log.records()[0].parent(), None);
        assert_eq!(current_cause(&log), None);
    }

    #[test]
    fn attrs_attach_to_the_emitted_event() {
        let log = log();
        let attrs: [(&str, AttrValue); 2] =
            [("outcome", "failed".into()), ("attempts", 3u32.into())];
        log.emit(None, "assertion.result", Some("asg-desired"), attrs.keep());
        let rendered = vec![
            ("outcome", "failed".to_string()),
            ("attempts", "3".to_string()),
        ];
        assert_eq!(log.records()[0].attrs(), rendered);
    }

    #[test]
    fn kept_values_render_as_the_strings_they_replace() {
        let log = log();
        let shared: Arc<str> = Arc::from("asg-desired");
        let values: [(&str, AttrValue); 4] = [
            ("tests_run", 7usize.into()),
            ("trigger", "trigger:log".into()),
            ("tree", shared.into()),
            ("task", String::from("t-1").into()),
        ];
        log.emit(None, "diagnosis.verdict", Some("v"), values.keep());
        let span = guard(&log, "faulttree.walk");
        span.attr("tests_run", 3u32);
        span.attr("verdict", "no-root-cause");
        drop(span);
        // Nothing is kept for no attributes.
        assert!(().keep().is_none());
        assert!(None::<[(&str, AttrValue); 1]>.keep().is_none());
        assert!(Vec::<(&str, AttrValue)>::new().keep().is_none());
        let records = log.records();
        let eager = |pairs: &[(&'static str, &str)]| -> Vec<(&'static str, String)> {
            pairs.iter().map(|&(k, v)| (k, v.to_string())).collect()
        };
        assert_eq!(
            records[0].attrs(),
            eager(&[
                ("tests_run", "7"),
                ("trigger", "trigger:log"),
                ("tree", "asg-desired"),
                ("task", "t-1")
            ])
        );
        assert_eq!(
            records[1].attrs(),
            eager(&[("tests_run", "3"), ("verdict", "no-root-cause")])
        );
    }

    #[test]
    fn a_record_takes_at_most_eighty_eight_bytes() {
        assert!(std::mem::size_of::<EventRecord>() <= 88);
    }

    #[test]
    fn the_ring_holds_at_most_one_growth_step_of_spare_room() {
        let log = log();
        for _ in 0..(EVENT_CAP + 100) {
            log.emit(None, "e", Some("e"), None);
            let inner = log.inner.lock();
            let (len, room) = (inner.ring.len(), inner.ring.capacity());
            assert!(room - len <= growth_step(len), "{room} slots for {len}");
            assert!(room <= EVENT_CAP, "{room} slots past the cap");
        }
        assert_eq!(log.dropped(), 100, "eviction is unchanged");
    }

    #[test]
    fn an_owned_name_is_kept_beside_the_attributes() {
        let log = log();
        let name = String::from("wrong-ami");
        let (static_name, kept) = crate::EventName::keep_with(&name, [("k", 1u64.into())]);
        log.emit(None, "diagnosis.cause", static_name, kept);
        let test = log.open("faulttree.test", Some("asg-desired"), true);
        assert_eq!(log.records()[1].name(), "asg-desired", "named while open");
        test.attr("result", "present");
        drop(test);
        let records = log.records();
        assert_eq!(records[0].name(), "wrong-ami");
        assert_eq!(records[0].attrs(), vec![("k", "1".to_string())]);
        assert_eq!(records[1].name(), "asg-desired");
        assert_eq!(records[1].attrs(), vec![("result", "present".to_string())]);
        // A reader holding the open span's record keeps what it read.
        let test = log.open("faulttree.test", Some("elb"), true);
        let open = log.records();
        test.attr("result", "absent");
        drop(test);
        assert_eq!((open[2].name(), open[2].attrs()), ("elb", Vec::new()));
        let closed = &log.records()[2];
        assert_eq!(closed.name(), "elb");
        assert_eq!(closed.attrs(), vec![("result", "absent".to_string())]);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let log = log();
        for i in 0..(EVENT_CAP + 5) {
            emit(&log, None, "e", &i.to_string());
        }
        assert_eq!(log.records().len(), EVENT_CAP);
        assert_eq!(log.dropped(), 5);
        // The oldest ids are gone; the newest survive.
        let records = log.records();
        assert_eq!(records.first().unwrap().id(), 5);
        assert_eq!(records.last().unwrap().id(), (EVENT_CAP + 4) as u64);
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
            emit(&log, None, "e", &i.to_string());
        }
        open.attr("k", "v");
        drop(open);
        assert!(log.records().iter().all(|r| r.end().is_none()));
    }

    #[test]
    fn begin_trace_resets_everything() {
        let log = log();
        let a = emit(&log, None, "a", "a");
        let _leaked = log.scope(Some(a));
        log.begin_trace();
        assert!(log.records().is_empty());
        assert_eq!(current_cause(&log), None);
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
        let fresh = emit(&log, None, "a", "a");
        assert_eq!(log.records()[0].span(), None);
        drop(stale);
        assert_eq!(fresh.get(), 0);
        assert_eq!(log.records()[0].end(), None);
    }

    #[test]
    fn timestamps_come_from_the_clock() {
        let clock = Clock::new();
        let log = EventLog::new(clock.clone());
        log.begin_trace();
        advance(&clock, 42);
        emit(&log, None, "e", "e");
        assert_eq!(log.records()[0].at(), SimTime::from_millis(42));
    }
}
