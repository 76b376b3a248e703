//! Smoke test for the trace export: the Chrome trace-event JSON produced
//! from a real diagnosis run must parse and carry the keys the viewer
//! requires. The two committed-to traces are pinned byte for byte, so a
//! change that moves a span's nesting, start or end fails here.

use pod_diagnosis::eval::{monitor_upgrade, Campaign, CampaignConfig, RunPlan};
use pod_diagnosis::log::Json;

/// FNV-1a-64 and byte count of `TRACE_campaign.json` as `campaign 5
/// --json` writes it: the trace of the last of its 40 runs.
const CAMPAIGN_TRACE_PIN: (u64, usize) = (0x7616_4f5f_7e81_f2f9, 50_976);

/// FNV-1a-64 and byte count of `TRACE_e6.json`: the trace of the first
/// clean plan at seed 1119, the wrong-AMI run of experiment E6.
const E6_TRACE_PIN: (u64, usize) = (0x0482_1879_fd46_004a, 55_636);

/// 64-bit FNV-1a. Its algorithm is fixed, unlike std's `DefaultHasher`, so
/// a constant pins a trace's bytes across commits and toolchains.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Asserts that `plan`'s Chrome trace has `pin`'s FNV-1a-64 and byte count.
fn assert_trace_matches(plan: &RunPlan, pin: (u64, usize)) {
    let trace = monitor_upgrade(plan).trace().chrome_trace();
    let got = (fnv1a64(trace.as_bytes()), trace.len());
    assert_eq!(got, pin, "{:#018x} over {} bytes", got.0, got.1);
}

#[test]
fn the_campaign_trace_matches_its_pin() {
    let config = CampaignConfig {
        runs_per_fault: 5,
        seed: 2014,
        ..CampaignConfig::default()
    };
    let plans = Campaign::new(config).plans();
    assert_trace_matches(plans.last().expect("40 plans"), CAMPAIGN_TRACE_PIN);
}

#[test]
fn the_e6_trace_matches_its_pin() {
    let plans = Campaign::new(CampaignConfig::clean(1119)).plans();
    assert_trace_matches(&plans[0], E6_TRACE_PIN);
}

#[test]
fn chrome_trace_parses_and_carries_required_keys() {
    let campaign = Campaign::new(CampaignConfig::clean(99));
    let dump = monitor_upgrade(&campaign.plans()[0]).trace();
    assert!(dump.events.iter().any(|e| e.end().is_some()), "spans");
    assert!(dump.events.iter().any(|e| e.end().is_none()), "instants");
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
