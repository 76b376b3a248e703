//! Edge parsing of raw log lines for the gateway.
//!
//! The gateway ingests *wire* data: raw text lines from many tenants, some
//! Logstash-shaped JSON, some plaintext, some garbage. This module turns any
//! line into a [`LogEvent`] without ever panicking: valid Logstash JSON is
//! reconstructed faithfully (source, tags, fields, type, timestamp), bare
//! plaintext becomes an ordinary operation line, and anything else —
//! truncated JSON, non-object JSON, empty or whitespace-only input — degrades
//! to the `unclassified` type so downstream stages can count and drop it
//! instead of crashing a shard.

use pod_sim::SimTime;

use crate::event::LogEvent;
use crate::json::Json;

/// The `@type` assigned to lines that could not be classified.
pub const UNCLASSIFIED: &str = "unclassified";

/// How a raw line was recognized by [`parse_line`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineFormat {
    /// A well-formed Logstash-shaped JSON object.
    Json,
    /// A non-empty plaintext line.
    Plain,
    /// Empty/whitespace-only input or malformed JSON; the event is tagged
    /// [`UNCLASSIFIED`] and carries the raw input as its message.
    Unclassified,
}

/// A parsed raw line: the reconstructed event plus how it was recognized.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedLine {
    /// The reconstructed event, ready for a pipeline.
    pub event: LogEvent,
    /// How the raw input was classified.
    pub format: LineFormat,
}

/// Parses one raw line into a [`LogEvent`], never panicking.
///
/// `received_at` is the gateway-side arrival time; it is used as the event
/// timestamp whenever the line does not carry a parseable `@timestamp`.
///
/// # Examples
///
/// ```
/// use pod_log::{parse_line, LineFormat};
/// use pod_sim::SimTime;
///
/// let now = SimTime::from_secs(3);
/// assert_eq!(parse_line("plain text line", now).format, LineFormat::Plain);
/// assert_eq!(parse_line("   ", now).format, LineFormat::Unclassified);
/// assert_eq!(parse_line("{\"@message\": truncated", now).format, LineFormat::Unclassified);
/// ```
pub fn parse_line(raw: &str, received_at: SimTime) -> ParsedLine {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return unclassified(raw, received_at);
    }
    if trimmed.starts_with('{') {
        return match Json::parse(trimmed) {
            Ok(json) => from_logstash(json, received_at)
                .map(|event| ParsedLine {
                    event,
                    format: LineFormat::Json,
                })
                .unwrap_or_else(|| unclassified(raw, received_at)),
            Err(_) => unclassified(raw, received_at),
        };
    }
    let event = LogEvent::new(received_at, "raw.log", trimmed);
    ParsedLine {
        event,
        format: LineFormat::Plain,
    }
}

fn unclassified(raw: &str, received_at: SimTime) -> ParsedLine {
    let event = LogEvent::new(received_at, "gateway.raw", raw.trim()).with_type(UNCLASSIFIED);
    ParsedLine {
        event,
        format: LineFormat::Unclassified,
    }
}

/// Rebuilds a [`LogEvent`] from the Logstash shape emitted by
/// [`LogEvent::to_json`]. Returns `None` when the object is not
/// event-shaped (no `@message`).
fn from_logstash(mut json: Json, received_at: SimTime) -> Option<LogEvent> {
    // The tree is dropped on return: move strings out of it, do not copy.
    let mut take = |key: &str| match &mut json {
        Json::Object(entries) => {
            let entry = entries.iter_mut().find(|(k, _)| k == key)?;
            Some(std::mem::replace(&mut entry.1, Json::Null))
        }
        _ => None,
    };
    let string = |value: Json| match value {
        Json::String(s) => Some(s),
        _ => None,
    };
    let message = take("@message").and_then(string)?;
    let timestamp = take("@timestamp")
        .and_then(string)
        .and_then(|t| t.parse::<SimTime>().ok())
        .unwrap_or(received_at);
    let source = take("@source").and_then(string);
    let source = source.unwrap_or_else(|| "gateway.raw".to_string());
    let host = take("@source_host").and_then(string);
    let event_type = take("@type").and_then(string);
    let mut event = LogEvent::stamped(
        timestamp,
        source,
        host.unwrap_or_else(|| "sim.local".to_string()),
        event_type.unwrap_or_else(|| "operation".to_string()),
        message,
    );
    if let Some(Json::Array(tags)) = take("@tags") {
        event.tags.extend(tags.into_iter().filter_map(string));
    }
    if let Some(Json::Object(entries)) = take("@fields") {
        for (key, value) in entries {
            // `to_json` writes each field as a one-element array; accept
            // bare strings too for hand-written input.
            let value = match value {
                Json::Array(items) => items.into_iter().next(),
                other => Some(other),
            };
            if let Some(value) = value.and_then(string) {
                event.fields.push((key, value));
            }
        }
    }
    Some(event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Severity;

    fn now() -> SimTime {
        SimTime::from_secs(9)
    }

    #[test]
    fn logstash_json_round_trips() {
        let mut original = LogEvent::new(
            SimTime::from_millis(82_500),
            "asgard.log",
            "ERROR: Instance i-7df34041 failed health check",
        )
        .with_field("instanceid", "i-7df34041")
        .with_type("asgard");
        original.tags = vec!["rolling-upgrade".into(), "step4".into()];
        let parsed = parse_line(&original.to_json().to_string(), now());
        assert_eq!(parsed.format, LineFormat::Json);
        let e = parsed.event;
        assert_eq!(e.timestamp, original.timestamp);
        assert_eq!(e.source, "asgard.log");
        assert_eq!(e.event_type, "asgard");
        assert_eq!(e.tags, original.tags);
        assert_eq!(e.field("instanceid"), Some("i-7df34041"));
        assert_eq!(e.message, original.message);
        assert_eq!(e.severity, Severity::Error);
    }

    #[test]
    fn plaintext_becomes_operation_line() {
        let parsed = parse_line("Instance i-1 is ready for use.\n", now());
        assert_eq!(parsed.format, LineFormat::Plain);
        assert_eq!(parsed.event.message, "Instance i-1 is ready for use.");
        assert_eq!(parsed.event.timestamp, now());
        assert_eq!(parsed.event.event_type, "operation");
    }

    #[test]
    fn empty_and_whitespace_lines_degrade_to_unclassified() {
        for raw in ["", "   ", "\t\n", " \r\n "] {
            let parsed = parse_line(raw, now());
            assert_eq!(parsed.format, LineFormat::Unclassified, "input {raw:?}");
            assert_eq!(parsed.event.event_type, UNCLASSIFIED);
        }
    }

    #[test]
    fn truncated_and_invalid_json_degrade_to_unclassified() {
        // The last input nests deeper than any stack: it must be refused,
        // not recursed into.
        let bottomless = "{\"a\":".repeat(200_000);
        for raw in [
            "{\"@message\": \"chopped",
            "{\"@message\" \"no colon\"}",
            "{",
            "{\"@fields\": [}",
            bottomless.as_str(),
        ] {
            let parsed = parse_line(raw, now());
            assert_eq!(parsed.format, LineFormat::Unclassified, "input {raw:?}");
            assert_eq!(parsed.event.event_type, UNCLASSIFIED);
            assert_eq!(parsed.event.message, raw.trim());
            assert_eq!(parsed.event.timestamp, now());
        }
    }

    #[test]
    fn json_without_message_is_unclassified() {
        let parsed = parse_line("{\"@type\": \"asgard\"}", now());
        assert_eq!(parsed.format, LineFormat::Unclassified);
    }

    #[test]
    fn unparseable_timestamp_falls_back_to_arrival_time() {
        let raw = "{\"@message\": \"hello\", \"@timestamp\": \"not-a-time\"}";
        let parsed = parse_line(raw, now());
        assert_eq!(parsed.format, LineFormat::Json);
        assert_eq!(parsed.event.timestamp, now());
    }
}
