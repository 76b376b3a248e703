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

use std::borrow::Cow;

use pod_sim::SimTime;

use crate::event::LogEvent;
use crate::json::{JsonError, JsonParser};

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
        return match read_logstash(trimmed, received_at) {
            Some(event) => ParsedLine {
                event,
                format: LineFormat::Json,
            },
            None => unclassified(raw, received_at),
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

/// Reads a Logstash object, the shape [`LogEvent::write_wire`] writes,
/// straight into a [`LogEvent`], with no `Json` tree in between. Returns
/// `None` when the text is not one JSON document ([`Json::parse`]'s
/// grammar and depth cap: both go through one lexer) or the object is not
/// event-shaped (no string `@message`).
///
/// [`Json::parse`]: crate::Json::parse
fn read_logstash(text: &str, received_at: SimTime) -> Option<LogEvent> {
    let mut wire = Wire::default();
    JsonParser::document(text, |p| p.object(|p, key| wire.entry(p, key))).ok()?;
    wire.into_event(received_at)
}

/// What a Logstash object says about its event, key by key. Each top-level
/// `@` key counts once, at its first occurrence.
#[derive(Default)]
struct Wire<'a> {
    message: Slot<'a>,
    timestamp: Slot<'a>,
    source: Slot<'a>,
    source_host: Slot<'a>,
    event_type: Slot<'a>,
    tags: Option<Vec<String>>,
    fields: Option<Vec<(String, String)>>,
}

/// A string-valued key: `None` until the key is met, then `Some` of its
/// value when that is a string.
type Slot<'a> = Option<Option<Cow<'a, str>>>;

impl<'a> Wire<'a> {
    /// Reads the value of top-level `key`; what the event does not use is
    /// checked and skipped.
    fn entry(&mut self, p: &mut JsonParser<'a>, key: Cow<'a, str>) -> Result<(), JsonError> {
        let slot = match &*key {
            "@message" => &mut self.message,
            "@timestamp" => &mut self.timestamp,
            "@source" => &mut self.source,
            "@source_host" => &mut self.source_host,
            "@type" => &mut self.event_type,
            "@tags" if self.tags.is_none() => {
                let mut tags = Vec::new();
                if p.peek() == Some(b'[') {
                    p.array(|p| {
                        if let Some(tag) = string_or_skip(p)? {
                            tags.push(tag.into_owned());
                        }
                        Ok(())
                    })?;
                } else {
                    p.skip_value()?;
                }
                self.tags = Some(tags);
                return Ok(());
            }
            "@fields" if self.fields.is_none() => {
                let mut fields = Vec::new();
                if p.peek() == Some(b'{') {
                    p.object(|p, key| {
                        if let Some(value) = field_value(p)? {
                            fields.push((key.into_owned(), value.into_owned()));
                        }
                        Ok(())
                    })?;
                } else {
                    p.skip_value()?;
                }
                self.fields = Some(fields);
                return Ok(());
            }
            _ => return p.skip_value(),
        };
        if slot.is_some() {
            return p.skip_value();
        }
        *slot = Some(string_or_skip(p)?);
        Ok(())
    }

    fn into_event(self, received_at: SimTime) -> Option<LogEvent> {
        let message = self.message.flatten()?;
        let timestamp = self
            .timestamp
            .flatten()
            .and_then(|t| t.parse::<SimTime>().ok())
            .unwrap_or(received_at);
        let or = |slot: Slot<'a>, default: &str| {
            slot.flatten()
                .unwrap_or(Cow::Borrowed(default))
                .into_owned()
        };
        let mut event = LogEvent::stamped(
            timestamp,
            or(self.source, "gateway.raw"),
            or(self.source_host, "sim.local"),
            or(self.event_type, "operation"),
            message.into_owned(),
        );
        event.tags = self.tags.unwrap_or_default();
        event.fields = self.fields.unwrap_or_default();
        Some(event)
    }
}

/// A field's value: the first element of an array (the form `write_wire`
/// writes) or a bare string (hand-written input), when that is a string.
fn field_value<'a>(p: &mut JsonParser<'a>) -> Result<Option<Cow<'a, str>>, JsonError> {
    if p.peek() != Some(b'[') {
        return string_or_skip(p);
    }
    let (mut first, mut items) = (None, 0);
    p.array(|p| {
        items += 1;
        if items == 1 {
            first = string_or_skip(p)?;
            Ok(())
        } else {
            p.skip_value()
        }
    })?;
    Ok(first)
}

/// Reads a string value, or checks and skips a value of any other kind.
fn string_or_skip<'a>(p: &mut JsonParser<'a>) -> Result<Option<Cow<'a, str>>, JsonError> {
    if p.peek() == Some(b'"') {
        p.string().map(Some)
    } else {
        p.skip_value().map(|()| None)
    }
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
        let mut wire = String::new();
        original.write_wire(&mut wire).unwrap();
        let parsed = parse_line(&wire, now());
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
    fn a_malformed_number_run_is_unclassified() {
        for raw in [
            r#"{"@message": "x", "n": 1e+-.-5}"#,
            r#"{"@message": "x", "@fields": {"seq": -.e}}"#,
        ] {
            let parsed = parse_line(raw, now());
            assert_eq!(parsed.format, LineFormat::Unclassified, "input {raw:?}");
            assert_eq!(parsed.event.message, raw);
        }
    }

    #[test]
    fn json_without_message_is_unclassified() {
        let parsed = parse_line("{\"@type\": \"asgard\"}", now());
        assert_eq!(parsed.format, LineFormat::Unclassified);
    }

    #[test]
    fn a_timestamp_past_the_clock_falls_back_to_arrival_time() {
        let raw = r#"{"@message":"x","@timestamp":"99999999999999s"}"#;
        let parsed = parse_line(raw, now());
        assert_eq!(parsed.format, LineFormat::Json);
        assert_eq!(parsed.event.timestamp, now());
    }

    #[test]
    fn a_signed_unicode_escape_is_unclassified() {
        let parsed = parse_line(r#"{"@message":"a\u+041b"}"#, now());
        assert_eq!(parsed.format, LineFormat::Unclassified);
        let parsed = parse_line(r#"{"@message":"a\u0041b"}"#, now());
        assert_eq!(parsed.event.message, "aAb");
    }

    #[test]
    fn the_first_of_each_key_wins_and_a_field_is_a_first_element_or_a_bare_string() {
        let raw = concat!(
            r#"{"@type":7,"@type":"late","@message":"m","@message":"n","#,
            r#""@tags":["t",1,["u"]],"@tags":["v"],"x":{"@source":"no"},"#,
            r#""@fields":{"a":["1","2"],"b":"3","c":[4,"5"],"d":[],"a":["6"]}}"#
        );
        let parsed = parse_line(raw, now());
        assert_eq!(parsed.format, LineFormat::Json);
        let e = parsed.event;
        assert_eq!(e.message, "m");
        assert_eq!(e.event_type, "operation");
        assert_eq!(e.source, "gateway.raw");
        assert_eq!(e.tags, ["t"]);
        let fields: Vec<_> = e
            .fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(fields, [("a", "1"), ("b", "3"), ("a", "6")]);
    }

    #[test]
    fn unparseable_timestamp_falls_back_to_arrival_time() {
        let raw = "{\"@message\": \"hello\", \"@timestamp\": \"not-a-time\"}";
        let parsed = parse_line(raw, now());
        assert_eq!(parsed.format, LineFormat::Json);
        assert_eq!(parsed.event.timestamp, now());
    }
}
