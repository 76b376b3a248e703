//! The log event model.
//!
//! Events follow the Logstash v1.1-era shape the paper shows in Section IV:
//! `@source`, `@tags`, `@fields`, `@timestamp`, `@message`, `@type`. The
//! local log processor annotates events with *process context* — process id,
//! process-instance (trace) id, step id, cloud-instance id — which is the
//! paper's key contribution and what downstream conformance checking,
//! assertion evaluation and diagnosis consume.

use std::fmt;

use pod_sim::SimTime;

use crate::json::Json;

/// Process context attached to a log line by the log annotator.
///
/// # Examples
///
/// ```
/// use pod_log::ProcessContext;
///
/// let ctx = ProcessContext::new("rolling-upgrade", "run-17")
///     .with_step("step4")
///     .with_cloud_instance("i-7df34041");
/// assert_eq!(ctx.step_id.as_deref(), Some("step4"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProcessContext {
    /// Identifier of the process *model* (e.g. `rolling-upgrade`).
    pub process_id: String,
    /// Identifier of the process *instance* / trace (one concrete upgrade).
    pub process_instance_id: String,
    /// The step (activity) this line belongs to, when known.
    pub step_id: Option<String>,
    /// The cloud instance the line refers to, when one could be extracted.
    pub cloud_instance_id: Option<String>,
}

impl ProcessContext {
    /// Creates a context for a process model and trace.
    pub fn new(process_id: impl Into<String>, process_instance_id: impl Into<String>) -> Self {
        ProcessContext {
            process_id: process_id.into(),
            process_instance_id: process_instance_id.into(),
            step_id: None,
            cloud_instance_id: None,
        }
    }

    /// Sets the step id.
    pub fn with_step(mut self, step: impl Into<String>) -> Self {
        self.step_id = Some(step.into());
        self
    }

    /// Sets the cloud instance id.
    pub fn with_cloud_instance(mut self, id: impl Into<String>) -> Self {
        self.cloud_instance_id = Some(id.into());
        self
    }
}

/// Severity of a log line, inferred from its content.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Routine progress output.
    Info,
    /// Something suspicious but not fatal.
    Warn,
    /// A reported error.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => f.write_str("INFO"),
            Severity::Warn => f.write_str("WARN"),
            Severity::Error => f.write_str("ERROR"),
        }
    }
}

/// One log event flowing through the system.
///
/// # Examples
///
/// ```
/// use pod_log::{LogEvent, Severity};
/// use pod_sim::SimTime;
///
/// let e = LogEvent::new(SimTime::from_millis(500), "asgard.log", "Instance i-1 is ready")
///     .with_field("instanceid", "i-1");
/// assert_eq!(e.field("instanceid"), Some("i-1"));
/// assert_eq!(e.severity, Severity::Info);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogEvent {
    /// Virtual time at which the line was produced.
    pub timestamp: SimTime,
    /// Source log (e.g. `asgard.log`, `assertion-evaluation.log`).
    pub source: String,
    /// Host that produced the line.
    pub source_host: String,
    /// Event type (Logstash `@type`, e.g. `asgard`, `assertion`).
    pub event_type: String,
    /// Free-form tags (Logstash `@tags`), including process-context tags.
    pub tags: Vec<String>,
    /// Extracted fields (Logstash `@fields`), in insertion order.
    pub fields: Vec<(String, String)>,
    /// The original log line (Logstash `@message`).
    pub message: String,
    /// Inferred severity.
    pub severity: Severity,
    /// Structured process context, once annotated.
    pub context: Option<ProcessContext>,
}

impl LogEvent {
    /// Creates an event with defaults for host/type/severity.
    pub fn new(
        timestamp: SimTime,
        source: impl Into<String>,
        message: impl Into<String>,
    ) -> LogEvent {
        LogEvent::stamped(
            timestamp,
            source.into(),
            "sim.local".to_string(),
            "operation".to_string(),
            message.into(),
        )
    }

    /// [`LogEvent::new`] with its final host and type, so a caller that
    /// knows them does not allocate the defaults only to drop them.
    pub(crate) fn stamped(
        timestamp: SimTime,
        source: String,
        source_host: String,
        event_type: String,
        message: String,
    ) -> LogEvent {
        let severity = if message.contains("ERROR") || message.contains("error:") {
            Severity::Error
        } else if message.contains("WARN") {
            Severity::Warn
        } else {
            Severity::Info
        };
        LogEvent {
            timestamp,
            source,
            source_host,
            event_type,
            tags: Vec::new(),
            fields: Vec::new(),
            message,
            severity,
            context: None,
        }
    }

    /// Sets the event type (Logstash `@type`).
    pub fn with_type(mut self, t: impl Into<String>) -> LogEvent {
        self.event_type = t.into();
        self
    }

    /// Adds a field.
    pub fn with_field(mut self, key: impl Into<String>, value: impl Into<String>) -> LogEvent {
        self.fields.push((key.into(), value.into()));
        self
    }

    /// Sets the severity explicitly.
    pub fn with_severity(mut self, severity: Severity) -> LogEvent {
        self.severity = severity;
        self
    }

    /// Attaches process context and mirrors it into tags/fields the way the
    /// paper's annotator does.
    pub fn with_context(mut self, ctx: ProcessContext) -> LogEvent {
        if !self.tags.contains(&ctx.process_id) {
            self.tags.push(ctx.process_id.clone());
        }
        if let Some(step) = &ctx.step_id {
            if !self.tags.contains(step) {
                self.tags.push(step.clone());
            }
        }
        self.fields
            .push(("processinsid".to_string(), ctx.process_instance_id.clone()));
        if let Some(id) = &ctx.cloud_instance_id {
            self.fields.push(("instanceid".to_string(), id.clone()));
        }
        self.context = Some(ctx);
        self
    }

    /// The first value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Serializes the event in the Logstash shape shown in the paper.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("@source", Json::str(&self.source));
        o.set(
            "@tags",
            Json::Array(self.tags.iter().map(Json::str).collect()),
        );
        let mut fields = Json::object();
        for (k, v) in &self.fields {
            fields.set(k, Json::Array(vec![Json::str(v)]));
        }
        o.set("@fields", fields);
        o.set("@timestamp", Json::str(self.timestamp.to_string()));
        o.set("@source_host", Json::str(&self.source_host));
        o.set("@source_path", Json::str(&self.source));
        o.set("@message", Json::str(&self.message));
        o.set("@type", Json::str(&self.event_type));
        o
    }
}

impl fmt::Display for LogEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] [{}] {}", self.timestamp, self.source, self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(msg: &str) -> LogEvent {
        LogEvent::new(SimTime::from_millis(100), "asgard.log", msg)
    }

    #[test]
    fn severity_inference() {
        assert_eq!(event("all good").severity, Severity::Info);
        assert_eq!(event("ERROR: boom").severity, Severity::Error);
        assert_eq!(event("WARN low disk").severity, Severity::Warn);
    }

    #[test]
    fn context_mirrors_into_tags_and_fields() {
        let ctx = ProcessContext::new("rolling-upgrade", "run-1")
            .with_step("step4")
            .with_cloud_instance("i-abc");
        let e = event("instance ready").with_context(ctx);
        assert_eq!(e.tags, ["rolling-upgrade", "step4"]);
        assert_eq!(e.field("processinsid"), Some("run-1"));
        assert_eq!(e.field("instanceid"), Some("i-abc"));
    }

    #[test]
    fn context_tags_not_duplicated() {
        let ctx = ProcessContext::new("p", "t").with_step("s");
        let mut e = event("x");
        e.tags = vec!["p".into(), "s".into()];
        let e = e.with_context(ctx);
        assert_eq!(e.tags.iter().filter(|t| *t == "p").count(), 1);
        assert_eq!(e.tags.iter().filter(|t| *t == "s").count(), 1);
    }

    #[test]
    fn json_shape_matches_logstash() {
        let mut e = event("Instance pm on i-7df34041 is ready for use.")
            .with_field("instanceid", "i-7df34041")
            .with_type("asgard");
        e.tags = vec!["push".into(), "step4".into()];
        let j = e.to_json();
        assert_eq!(j.get("@type").unwrap().as_str(), Some("asgard"));
        assert_eq!(j.get("@tags").unwrap().as_array().unwrap().len(), 2);
        assert!(j
            .get("@message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("i-7df34041"));
        // Round-trips through the parser.
        let parsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn display_is_compact() {
        let e = event("hello");
        assert_eq!(e.to_string(), "[0.100s] [asgard.log] hello");
    }
}
