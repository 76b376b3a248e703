//! Central log storage.
//!
//! All "important" lines from distributed nodes, plus the result logs of
//! conformance checking, assertion evaluation and error diagnosis, are
//! merged here. The storage is shared (cheap to clone, internally locked)
//! and supports ad-hoc querying for offline analysis and process
//! discovery.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::{LogEvent, Severity};

/// A shared, append-only store of log events.
///
/// # Examples
///
/// ```
/// use pod_log::{LogEvent, LogStorage};
/// use pod_sim::SimTime;
///
/// let storage = LogStorage::new();
/// let tail = storage.clone();
/// storage.append(LogEvent::new(SimTime::ZERO, "asgard.log", "started"));
/// assert_eq!(tail.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogStorage {
    events: Arc<Mutex<Vec<LogEvent>>>,
}

impl LogStorage {
    /// Creates an empty store.
    pub fn new() -> LogStorage {
        LogStorage::default()
    }

    /// Appends one event.
    pub fn append(&self, event: LogEvent) {
        self.events.lock().push(event);
    }

    /// Appends many events.
    pub fn extend(&self, events: impl IntoIterator<Item = LogEvent>) {
        self.events.lock().extend(events);
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of all events.
    pub fn snapshot(&self) -> Vec<LogEvent> {
        self.events.lock().clone()
    }

    /// Runs a query against the current contents.
    pub fn query(&self, q: &LogQuery) -> Vec<LogEvent> {
        self.events
            .lock()
            .iter()
            .filter(|e| q.matches(e))
            .cloned()
            .collect()
    }

    /// Removes all events (used between experiment runs).
    pub fn clear(&self) {
        self.events.lock().clear();
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
/// s.append(LogEvent::new(SimTime::from_millis(1), "a.log", "ok").with_tag("step1"));
/// s.append(LogEvent::new(SimTime::from_millis(2), "b.log", "ERROR boom"));
///
/// let errors = s.query(&LogQuery::new().with_min_severity(Severity::Error));
/// assert_eq!(errors.len(), 1);
/// let tagged = s.query(&LogQuery::new().with_tag("step1"));
/// assert_eq!(tagged.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LogQuery {
    source: Option<String>,
    tag: Option<String>,
    event_type: Option<String>,
    min_severity: Option<Severity>,
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

    /// Requires a tag.
    pub fn with_tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = Some(tag.into());
        self
    }

    /// Restricts to one event type (`@type`).
    pub fn with_type(mut self, t: impl Into<String>) -> Self {
        self.event_type = Some(t.into());
        self
    }

    /// Requires at least this severity.
    pub fn with_min_severity(mut self, s: Severity) -> Self {
        self.min_severity = Some(s);
        self
    }

    /// Whether `event` satisfies every set condition.
    pub fn matches(&self, event: &LogEvent) -> bool {
        if let Some(s) = &self.source {
            if event.source != *s {
                return false;
            }
        }
        if let Some(t) = &self.tag {
            if !event.has_tag(t) {
                return false;
            }
        }
        if let Some(t) = &self.event_type {
            if event.event_type != *t {
                return false;
            }
        }
        if let Some(min) = self.min_severity {
            if event.severity < min {
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
        s.append(
            LogEvent::new(SimTime::from_millis(10), "asgard.log", "upgrade started")
                .with_tag("start"),
        );
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
    fn query_by_source_and_severity() {
        let s = store();
        assert_eq!(s.query(&LogQuery::new().with_source("asgard.log")).len(), 2);
        let errs = s.query(&LogQuery::new().with_min_severity(Severity::Error));
        assert_eq!(errs.len(), 1);
        assert!(errs[0].message.contains("launch failed"));
    }

    #[test]
    fn clones_share_contents() {
        let s = store();
        let t = s.clone();
        t.append(LogEvent::new(SimTime::from_millis(99), "y", "shared"));
        assert_eq!(s.len(), 4);
        s.clear();
        assert!(t.is_empty());
    }
}
