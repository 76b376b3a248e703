//! Smoke test for the trace export: the Chrome trace-event JSON produced
//! from a real diagnosis run must parse and carry the keys the viewer
//! requires.

use pod_diagnosis::eval::{monitor_upgrade, Campaign, CampaignConfig};
use pod_diagnosis::log::Json;

#[test]
fn chrome_trace_parses_and_carries_required_keys() {
    let campaign = Campaign::new(CampaignConfig::clean(99));
    let dump = monitor_upgrade(&campaign.plans()[0]).trace();
    assert!(dump.events.iter().any(|e| e.end.is_some()), "spans");
    assert!(dump.events.iter().any(|e| e.end.is_none()), "instants");
    let doc = Json::parse(&dump.chrome_trace()).expect("chrome trace is valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(events.len() > 10, "only {} trace events", events.len());
    for event in events {
        for key in ["ph", "ts", "pid", "tid", "name"] {
            assert!(
                event.get(key).is_some(),
                "trace event missing {key}: {event:?}"
            );
        }
    }
    // All three record shapes appear: complete spans, instant events and
    // flow arrows binding causes to effects.
    let phases: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
        .collect();
    for ph in ["X", "i", "s", "f", "M"] {
        assert!(phases.contains(&ph), "no {ph:?} phase in export");
    }
    // Every flow arrow that finishes somewhere starts somewhere.
    let flow_ids = |ph: &str| -> Vec<f64> {
        let of_phase = events
            .iter()
            .filter(|e| e.get("ph") == Some(&Json::str(ph)));
        of_phase
            .map(|e| e.get("id").and_then(Json::as_f64).expect("flow id"))
            .collect()
    };
    let starts = flow_ids("s");
    for id in flow_ids("f") {
        assert!(starts.contains(&id), "flow {id} finishes without a start");
    }
}
