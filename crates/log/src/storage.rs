//! Central log storage.
//!
//! All "important" lines from distributed nodes, plus the result logs of
//! conformance checking, assertion evaluation and error diagnosis, are
//! merged here. The storage is shared (cheap to clone, internally locked)
//! and supports ad-hoc querying for offline analysis and process
//! discovery. It holds each line by `Arc`, so the engine stores the same
//! annotated line its conformance and assertion triggers read, and each
//! result as a [`LogRecord`]: what its line is built from, rendered into
//! the line only when a query reads it.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::LogEvent;

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

/// One stored entry: a shared line, or a result rendered when read.
#[derive(Debug)]
enum Entry {
    Line(Arc<LogEvent>),
    Record(Box<dyn LogRecord>),
}

/// A shared, append-only store of log lines, each held by `Arc` (a line
/// appended from an `Arc` is shared with its appender, not copied), and of
/// [`LogRecord`]s, each rendered into its line when a query reads it.
/// Lines and records keep one append order.
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
        self.entries.lock().push(Entry::Line(event.into()));
    }

    /// Appends one result, to be rendered into its line when read.
    pub fn append_record(&self, record: impl LogRecord + 'static) {
        self.entries.lock().push(Entry::Record(Box::new(record)));
    }

    /// Runs a query against the current contents in append order, rendering
    /// each record before it is filtered and returning copies of the lines
    /// (a cold path: diagnosis and offline analysis).
    pub fn query(&self, q: &LogQuery) -> Vec<LogEvent> {
        self.entries
            .lock()
            .iter()
            .filter_map(|entry| match entry {
                Entry::Line(line) => q.matches(line).then(|| LogEvent::clone(line)),
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
