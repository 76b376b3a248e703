//! Central log storage.
//!
//! All "important" lines from distributed nodes, plus the result logs of
//! conformance checking, assertion evaluation and error diagnosis, are
//! merged here. The storage is shared (cheap to clone, internally locked)
//! and supports ad-hoc querying for offline analysis and process
//! discovery. It holds each line by `Arc`, so the engine stores the same
//! annotated line its conformance and assertion triggers read.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::LogEvent;

/// A shared, append-only store of log events, each held by `Arc`: a line
/// appended from an `Arc` is shared with its appender, not copied.
///
/// # Examples
///
/// ```
/// use pod_log::{LogEvent, LogQuery, LogStorage};
/// use pod_sim::SimTime;
///
/// let storage = LogStorage::new();
/// let tail = storage.clone();
/// storage.append(LogEvent::new(SimTime::ZERO, "asgard.log", "started"));
/// assert_eq!(tail.query(&LogQuery::new()).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogStorage {
    events: Arc<Mutex<Vec<Arc<LogEvent>>>>,
}

impl LogStorage {
    /// Creates an empty store.
    pub fn new() -> LogStorage {
        LogStorage::default()
    }

    /// Appends one event: an owned one, or an `Arc` shared with the caller.
    pub fn append(&self, event: impl Into<Arc<LogEvent>>) {
        self.events.lock().push(event.into());
    }

    /// Runs a query against the current contents, returning copies (a cold
    /// path: diagnosis and offline analysis).
    pub fn query(&self, q: &LogQuery) -> Vec<LogEvent> {
        self.events
            .lock()
            .iter()
            .filter(|e| q.matches(e))
            .map(|e| LogEvent::clone(e))
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
    fn clones_share_contents() {
        let s = store();
        let t = s.clone();
        t.append(LogEvent::new(SimTime::from_millis(99), "y", "shared"));
        assert_eq!(s.query(&LogQuery::new()).len(), 4);
    }
}
