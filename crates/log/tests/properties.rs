//! Property-based tests for JSON round-tripping and log storage.

use pod_log::{Json, LogEvent, LogQuery, LogStorage};
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
        let parsed = Json::parse(&e.to_json().to_string()).unwrap();
        prop_assert_eq!(parsed.get("@source").and_then(Json::as_str), Some("asgard.log"));
    }
}
