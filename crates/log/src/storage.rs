//! Central log storage.
//!
//! All "important" lines from distributed nodes, plus the result logs of
//! conformance checking, assertion evaluation and error diagnosis, are
//! merged here. The storage is shared (cheap to clone, internally locked)
//! and supports ad-hoc querying for offline analysis and process
//! discovery. It holds each annotated line as a [`StoredLine`] by `Arc`, so
//! the engine stores the same compact line its conformance and assertion
//! triggers read, and each result as a [`LogRecord`]: what its line is
//! built from, rendered into the line only when a query reads it.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use pod_sim::push_bounded;

use crate::event::LogEvent;
use crate::stored::StoredLine;

/// A result kept in [`LogStorage`] as what its log line is built from, and
/// rendered into that line only when [`LogStorage::query`] reads it.
///
/// A render is pure: it reads only what the writer captured at append time
/// (no clock, no RNG, no storage — a query renders under the store's lock),
/// so every read renders the same event.
pub trait LogRecord: fmt::Debug + Send {
    /// The log line this record stands for.
    fn render(&self) -> LogEvent;
}

/// One stored entry: a shared event, a shared annotated line or a result,
/// the last two rendered when read.
#[derive(Debug)]
enum Entry {
    Event(Arc<LogEvent>),
    Line(Arc<StoredLine>),
    Record(Box<dyn LogRecord>),
}

/// A shared, append-only store of log lines and of [`LogRecord`]s. A line
/// is held by `Arc` (one appended from an `Arc` is shared with its
/// appender, not copied): an event as it is, an annotated line as its
/// compact [`StoredLine`]. Stored lines and records are rendered into their
/// events when a query reads them. Everything keeps one append order.
///
/// # Examples
///
/// ```
/// use pod_log::{LogEvent, LogQuery, LogRecord, LogStorage};
/// use pod_sim::SimTime;
///
/// #[derive(Debug)]
/// struct Verdict(&'static str);
///
/// impl LogRecord for Verdict {
///     fn render(&self) -> LogEvent {
///         LogEvent::new(SimTime::ZERO, "verdict.log", self.0).with_type("verdict")
///     }
/// }
///
/// let storage = LogStorage::new();
/// let tail = storage.clone();
/// storage.append(LogEvent::new(SimTime::ZERO, "asgard.log", "started"));
/// storage.append_record(Verdict("fit"));
/// let events = tail.query(&LogQuery::new());
/// assert_eq!((events.len(), events[1].message.as_str()), (2, "fit"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogStorage {
    entries: Arc<Mutex<Vec<Entry>>>,
}

impl LogStorage {
    /// Creates an empty store.
    pub fn new() -> LogStorage {
        LogStorage::default()
    }

    /// Appends one line: an owned one, or an `Arc` shared with the caller.
    pub fn append(&self, event: impl Into<Arc<LogEvent>>) {
        self.push(Entry::Event(event.into()));
    }

    /// Appends one annotated line in its stored form, shared with the
    /// caller; a query renders it.
    pub fn append_line(&self, line: Arc<StoredLine>) {
        self.push(Entry::Line(line));
    }

    /// Appends one result, to be rendered into its line when read.
    pub fn append_record(&self, record: impl LogRecord + 'static) {
        self.push(Entry::Record(Box::new(record)));
    }

    /// Appends one entry; the store is kept for a tenant's whole run, so
    /// it grows in bounded steps ([`push_bounded`]).
    fn push(&self, entry: Entry) {
        push_bounded(&mut self.entries.lock(), entry);
    }

    /// Runs a query against the current contents in append order, rendering
    /// each stored line and record before it is filtered and returning
    /// copies of the events (a cold path: diagnosis and offline analysis).
    pub fn query(&self, q: &LogQuery) -> Vec<LogEvent> {
        self.entries
            .lock()
            .iter()
            .filter_map(|entry| match entry {
                Entry::Event(event) => q.matches(event).then(|| LogEvent::clone(event)),
                Entry::Line(line) => Some(line.render()).filter(|e| q.matches(e)),
                Entry::Record(record) => Some(record.render()).filter(|e| q.matches(e)),
            })
            .collect()
    }
}

/// A filter over stored events; all set conditions must hold.
///
/// # Examples
///
/// ```
/// use pod_log::{LogEvent, LogQuery, LogStorage, Severity};
/// use pod_sim::SimTime;
///
/// let s = LogStorage::new();
/// s.append(LogEvent::new(SimTime::from_millis(1), "a.log", "ok"));
/// s.append(LogEvent::new(SimTime::from_millis(2), "b.log", "ERROR boom").with_type("assertion"));
///
/// let from_b = s.query(&LogQuery::new().with_source("b.log"));
/// assert_eq!(from_b[0].severity, Severity::Error);
/// let assertions = s.query(&LogQuery::new().with_type("assertion"));
/// assert_eq!(assertions.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogQuery {
    source: Option<String>,
    event_type: Option<String>,
}

impl LogQuery {
    /// An unconstrained query (matches everything).
    pub fn new() -> LogQuery {
        LogQuery::default()
    }

    /// Restricts to one source log.
    pub fn with_source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Restricts to one event type (`@type`).
    pub fn with_type(mut self, t: impl Into<String>) -> Self {
        self.event_type = Some(t.into());
        self
    }

    /// Whether `event` satisfies every set condition.
    pub fn matches(&self, event: &LogEvent) -> bool {
        if let Some(s) = &self.source {
            if event.source != *s {
                return false;
            }
        }
        if let Some(t) = &self.event_type {
            if event.event_type != *t {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_sim::SimTime;

    fn store() -> LogStorage {
        let s = LogStorage::new();
        s.append(LogEvent::new(
            SimTime::from_millis(10),
            "asgard.log",
            "upgrade started",
        ));
        s.append(LogEvent::new(
            SimTime::from_millis(20),
            "assertion.log",
            "ASG has 4 instances",
        ));
        s.append(LogEvent::new(
            SimTime::from_millis(30),
            "asgard.log",
            "ERROR launch failed",
        ));
        s
    }

    #[test]
    fn query_by_source_and_type() {
        let s = store();
        assert_eq!(s.query(&LogQuery::new().with_source("asgard.log")).len(), 2);
        let both = LogQuery::new().with_source("assertion.log");
        let hits = s.query(&both.with_type("operation"));
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("4 instances"));
        assert!(s.query(&LogQuery::new().with_type("assertion")).is_empty());
    }

    #[test]
    fn the_store_holds_at_most_one_growth_step_of_spare_room() {
        let s = LogStorage::new();
        for i in 0..500u64 {
            let at = SimTime::from_millis(i);
            match i % 3 {
                0 => s.append(LogEvent::new(at, "asgard.log", "ready")),
                1 => s.append_record(Outcome {
                    at: i,
                    verdict: "fit",
                }),
                _ => s.append_line(Arc::new(StoredLine::new(
                    LogEvent::new(at, "asgard.log", "ready"),
                    &crate::matcher::RuleBook::new(),
                ))),
            }
            let entries = s.entries.lock();
            let (len, room) = (entries.len(), entries.capacity());
            assert!(room - len <= pod_sim::growth_step(len), "{room} for {len}");
        }
    }

    /// A result that renders a fixed line, as a writer's record does.
    #[derive(Debug)]
    struct Outcome {
        at: u64,
        verdict: &'static str,
    }

    impl LogRecord for Outcome {
        fn render(&self) -> LogEvent {
            LogEvent::new(SimTime::from_millis(self.at), "result.log", self.verdict)
                .with_type("result")
        }
    }

    fn mixed() -> LogStorage {
        let s = store();
        s.append_record(Outcome {
            at: 40,
            verdict: "fit",
        });
        s.append(LogEvent::new(
            SimTime::from_millis(50),
            "asgard.log",
            "done",
        ));
        s.append_record(Outcome {
            at: 60,
            verdict: "ERROR unfit",
        });
        s
    }

    #[test]
    fn lines_and_records_interleave_in_append_order() {
        let messages: Vec<String> = mixed()
            .query(&LogQuery::new())
            .into_iter()
            .map(|e| e.message)
            .collect();
        let expected = [
            "upgrade started",
            "ASG has 4 instances",
            "ERROR launch failed",
            "fit",
            "done",
            "ERROR unfit",
        ];
        assert_eq!(messages, expected);
    }

    #[test]
    fn filters_read_the_rendered_record() {
        let s = mixed();
        let results = s.query(&LogQuery::new().with_source("result.log"));
        let at: Vec<_> = results.iter().map(|e| e.timestamp).collect();
        assert_eq!(at, [SimTime::from_millis(40), SimTime::from_millis(60)]);
        assert_eq!(results[1].severity, crate::Severity::Error);
        assert_eq!(s.query(&LogQuery::new().with_type("result")), results);
        let typed = LogQuery::new()
            .with_source("asgard.log")
            .with_type("result");
        assert!(s.query(&typed).is_empty());
    }

    #[test]
    fn two_reads_render_equal_events() {
        let s = mixed();
        assert_eq!(s.query(&LogQuery::new()), s.query(&LogQuery::new()));
    }

    #[test]
    fn clones_share_contents() {
        let s = store();
        let t = s.clone();
        t.append(LogEvent::new(SimTime::from_millis(99), "y", "shared"));
        assert_eq!(s.query(&LogQuery::new()).len(), 4);
    }
}
