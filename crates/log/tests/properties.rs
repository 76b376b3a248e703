//! Property-based tests for JSON round-tripping and log storage, and the
//! wire codec checked against the `Json` tree it replaced: the writer
//! against the tree's printing, the reader against `Json::parse` plus the
//! tree's reading.

use pod_log::{
    parse_line, Json, LineFormat, LogEvent, LogQuery, LogStorage, ParsedLine, UNCLASSIFIED,
};
use pod_sim::SimTime;
use proptest::prelude::*;

/// Strategy for arbitrary JSON values of bounded depth.
fn arb_json() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        // Finite, round-trippable numbers.
        (-1.0e12..1.0e12f64).prop_map(|n| Json::Number((n * 100.0).round() / 100.0)),
        "[ -~]{0,20}".prop_map(Json::str),
        // Long, with multi-byte code points and characters that need escapes.
        "[ -~é日\\n]{0,2000}".prop_map(Json::str),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Json::Array),
            prop::collection::vec(("[a-z@_]{1,8}", inner), 0..5).prop_map(|entries| {
                // Deduplicate keys (objects have unique keys).
                let mut o = Json::object();
                for (k, v) in entries {
                    o.set(k, v);
                }
                o
            }),
        ]
    })
}

proptest! {
    /// Serialize → parse is the identity on the JSON subset.
    #[test]
    fn json_round_trips(v in arb_json()) {
        let text = v.to_string();
        let parsed = Json::parse(&text).unwrap();
        prop_assert_eq!(parsed, v);
    }

    /// Parsing never panics on arbitrary input, a long string literal cut
    /// anywhere short of its closing quote is an error, and so is nesting
    /// past the parser's 128 levels.
    #[test]
    fn json_parse_never_panics(
        s in "[ -~]{0,80}",
        long in "[ -~é日\\n]{0,4000}",
        cut in 0usize..4096,
        depth in 1usize..400,
    ) {
        let _ = Json::parse(&s);
        let nest = "[".repeat(depth) + &"]".repeat(depth);
        prop_assert_eq!(Json::parse(&nest).is_ok(), depth <= 128);
        let text = Json::str(long).to_string();
        let cut = (0..text.len().min(cut + 1)).rev().find(|&i| text.is_char_boundary(i));
        prop_assert!(Json::parse(&text[..cut.unwrap_or(0)]).is_err());
    }

    /// Every stored event is found by an unconstrained query, and
    /// source-filtered queries return exactly that source's subset.
    #[test]
    fn storage_queries_partition(wanted in prop::collection::vec(prop::bool::ANY, 1..30)) {
        let storage = LogStorage::new();
        for (i, wanted) in wanted.iter().enumerate() {
            let source = if *wanted { "wanted.log" } else { "s.log" };
            storage.append(LogEvent::new(SimTime::from_millis(i as u64), source, format!("m{i}")));
        }
        prop_assert_eq!(storage.query(&LogQuery::new()).len(), wanted.len());
        let wanted_count = wanted.iter().filter(|w| **w).count();
        let found = storage.query(&LogQuery::new().with_source("wanted.log"));
        prop_assert_eq!(found.len(), wanted_count);
    }

    /// The Logstash JSON shape of any event parses back.
    #[test]
    fn log_event_json_round_trips(
        msg in "[ -~]{0,60}",
        tags in prop::collection::vec("[a-z0-9:]{1,10}", 0..4),
    ) {
        let mut e = LogEvent::new(SimTime::from_millis(5), "asgard.log", msg);
        e.tags = tags;
        let parsed = Json::parse(&wire(&e)).unwrap();
        prop_assert_eq!(parsed.get("@source").and_then(Json::as_str), Some("asgard.log"));
    }

    /// The wire writer writes the bytes the event's `Json` tree printed.
    #[test]
    fn the_wire_writer_matches_the_tree(e in arb_event()) {
        prop_assert_eq!(wire(&e), tree_json(&e).to_string());
    }

    /// The wire reader reads what the writer wrote as the tree did.
    #[test]
    fn the_wire_reader_matches_the_tree_on_written_lines(e in arb_event(), at in any::<u64>()) {
        let line = wire(&e);
        let received_at = SimTime::from_micros(at);
        prop_assert_eq!(parse_line(&line, received_at), tree_parse_line(&line, received_at));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Objects built from duplicate, non-string and nested `@` keys, bad
    /// escapes and numbers and lone surrogates read as the tree read them.
    #[test]
    fn the_wire_reader_matches_the_tree_on_odd_objects(line in arb_object()) {
        let now = SimTime::from_secs(9);
        prop_assert_eq!(parse_line(&line, now), tree_parse_line(&line, now));
    }

    /// Any text that opens an object reads as the tree read it, and never
    /// panics.
    #[test]
    fn the_wire_reader_matches_the_tree_on_any_text(tail in "[ -~é\\\\\"\\n]{0,80}") {
        let line = format!("{{{tail}");
        let now = SimTime::from_secs(9);
        prop_assert_eq!(parse_line(&line, now), tree_parse_line(&line, now));
    }
}

/// A real line of the `fleet-healthy` feed (seed 2014), as the shipper
/// wrote it.
const FLEET_LINE: &str = r#"{"@source":"asgard.log","@tags":[],"@fields":{"taskid":["run-14412750752135708725"],"seq":["1"]},"@timestamp":"0.000s","@source_host":"sim.local","@source_path":"asgard.log","@message":"Started rolling upgrade task run-14412750752135708725 pushing ami-f45f1189 into group pm--asg for app pm","@type":"asgard"}"#;

#[test]
fn every_prefix_of_a_fleet_line_reads_as_the_tree_read_it() {
    let now = SimTime::from_secs(9);
    let whole = parse_line(FLEET_LINE, now);
    assert_eq!(whole.format, LineFormat::Json);
    assert_eq!(whole, tree_parse_line(FLEET_LINE, now));
    for cut in 0..FLEET_LINE.len() {
        let line = &FLEET_LINE[..cut];
        assert_eq!(
            parse_line(line, now),
            tree_parse_line(line, now),
            "cut at {cut}"
        );
    }
}

#[test]
fn a_bottomless_document_reads_as_the_tree_read_it() {
    let now = SimTime::from_secs(9);
    let bottomless = "{\"a\":".repeat(200_000);
    let parsed = parse_line(&bottomless, now);
    assert_eq!(parsed.format, LineFormat::Unclassified);
    assert_eq!(parsed, tree_parse_line(&bottomless, now));
    // 128 levels are read, 129 are refused, by both.
    for depth in [127, 128, 129] {
        let nest = "[".repeat(depth - 1) + &"]".repeat(depth - 1);
        let line = format!(r#"{{"@message":"m","x":{nest}}}"#);
        let parsed = parse_line(&line, now);
        assert_eq!(
            parsed.format == LineFormat::Json,
            depth <= 128,
            "depth {depth}"
        );
        assert_eq!(parsed, tree_parse_line(&line, now), "depth {depth}");
    }
}

/// Writes `e` with [`LogEvent::write_wire`].
fn wire(e: &LogEvent) -> String {
    let mut out = String::new();
    e.write_wire(&mut out).unwrap();
    out
}

/// Events with every character the escaper treats apart (quotes,
/// backslashes, every control byte), non-ASCII text, empty tags and fields,
/// repeated field keys and any timestamp.
fn arb_event() -> impl Strategy<Value = LogEvent> {
    let text = || "[\u{0}-\u{1f}\"\\\\ -~é日\u{7f}\u{2028}]{0,24}";
    let key = prop::sample::select(vec!["seq", "taskid", "", "k\"\\", "\u{1}é"]);
    (
        (any::<u64>(), text(), text(), text(), text()),
        prop::collection::vec(text(), 0..4),
        prop::collection::vec((key, text()), 0..6),
    )
        .prop_map(|((at, source, host, kind, message), tags, fields)| {
            let mut e = LogEvent::new(SimTime::from_micros(at), source, message).with_type(kind);
            e.source_host = host;
            e.tags = tags;
            e.fields = fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            e
        })
}

/// Objects whose keys repeat, whose `@` keys hold values of every kind or
/// sit one level down, and whose strings and numbers are sometimes bad.
fn arb_object() -> impl Strategy<Value = String> {
    let key = prop::sample::select(vec![
        "@message",
        "@message",
        "@timestamp",
        "@source",
        "@source_host",
        "@type",
        "@tags",
        "@fields",
        "@source_path",
        "x",
        "@mess\\u0061ge",
    ]);
    let value = prop::sample::select(vec![
        r#""m""#,
        r#""ERROR: a\"b\\c\n""#,
        r#""1.500s""#,
        r#""99999999999999s""#,
        r#""\u0041\u00e9""#,
        r#""\uD800 lone""#,
        "7",
        "-2.5e3",
        "01",
        "null",
        "true",
        "[]",
        r#"["t",1,["u"],{"@message":"no"}]"#,
        r#"{"a":["1","2"],"b":"3","c":[4,"5"],"d":[],"a":["6"],"@message":["m"]}"#,
        r#"{"seq":["1"],"t\u0061sk":"t-\"1\"","n":{"@fields":{"a":["b"]}}}"#,
        r#"{"@message":"nested","@tags":["n"]}"#,
    ]);
    let bad = prop::sample::select(vec![
        r#""\u+041""#,
        r#""\x""#,
        r#""\u00""#,
        "1e+-.-5",
        "-.e",
        r#"{"k":"#,
        "[1,]",
    ]);
    let ws = prop::sample::select(vec!["", " ", "\n\t"]);
    let entries = prop::collection::vec((key, ws, value), 0..8);
    // One object in four carries one bad value, at its end.
    (entries, 0u8..4, bad).prop_map(|(entries, spoil, bad)| {
        let mut body: Vec<String> = entries
            .into_iter()
            .map(|(k, ws, v)| format!(r#"{ws}"{k}"{ws}:{ws}{v}"#))
            .collect();
        if spoil == 0 {
            body.push(format!(r#""x":{bad}"#));
        }
        format!("{{{}}}", body.join(","))
    })
}

/// The event as a `Json` tree, as `LogEvent::to_json` built it before the
/// wire writer replaced it: the oracle [`LogEvent::write_wire`] is checked
/// against.
fn tree_json(e: &LogEvent) -> Json {
    let mut o = Json::object();
    o.set("@source", Json::str(&e.source));
    o.set("@tags", Json::Array(e.tags.iter().map(Json::str).collect()));
    let mut fields = Json::object();
    for (k, v) in &e.fields {
        fields.set(k, Json::Array(vec![Json::str(v)]));
    }
    o.set("@fields", fields);
    o.set("@timestamp", Json::str(e.timestamp.to_string()));
    o.set("@source_host", Json::str(&e.source_host));
    o.set("@source_path", Json::str(&e.source));
    o.set("@message", Json::str(&e.message));
    o.set("@type", Json::str(&e.event_type));
    o
}

/// [`parse_line`] as it read a line before the wire reader: through a
/// `Json` tree, then out of it. The oracle the reader is checked against.
fn tree_parse_line(raw: &str, received_at: SimTime) -> ParsedLine {
    let trimmed = raw.trim();
    let unclassified = || ParsedLine {
        event: LogEvent::new(received_at, "gateway.raw", trimmed).with_type(UNCLASSIFIED),
        format: LineFormat::Unclassified,
    };
    if trimmed.is_empty() {
        return unclassified();
    }
    if !trimmed.starts_with('{') {
        return ParsedLine {
            event: LogEvent::new(received_at, "raw.log", trimmed),
            format: LineFormat::Plain,
        };
    }
    match Json::parse(trimmed)
        .ok()
        .and_then(|j| tree_event(j, received_at))
    {
        Some(event) => ParsedLine {
            event,
            format: LineFormat::Json,
        },
        None => unclassified(),
    }
}

/// The event a Logstash `Json` object holds: each `@` key's first entry.
fn tree_event(mut json: Json, received_at: SimTime) -> Option<LogEvent> {
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
    let host = take("@source_host").and_then(string);
    let event_type = take("@type").and_then(string);
    let mut event = LogEvent::new(
        timestamp,
        source.unwrap_or_else(|| "gateway.raw".to_string()),
        message,
    )
    .with_type(event_type.unwrap_or_else(|| "operation".to_string()));
    event.source_host = host.unwrap_or_else(|| "sim.local".to_string());
    if let Some(Json::Array(tags)) = take("@tags") {
        event.tags.extend(tags.into_iter().filter_map(string));
    }
    if let Some(Json::Object(entries)) = take("@fields") {
        for (key, value) in entries {
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
