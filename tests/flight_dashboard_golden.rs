//! Golden rendering of the flight dashboard during a recovery storm: the
//! shed/admission/queue rows must be present (auto-surfaced, without the
//! caller asking for them) and byte-stable across same-seed runs.

use pod_diagnosis::eval::{collect_streams, replay_with_recovery, SoakConfig};
use pod_diagnosis::gateway::GatewayConfig;
use pod_diagnosis::obs::render_dashboard;
use pod_diagnosis::recovery::StormConfig;
use pod_diagnosis::sim::SimDuration;

fn storm_dashboard() -> String {
    let config = SoakConfig {
        ops: 6,
        seed: 17,
        ..SoakConfig::default()
    };
    // One lane, a short wait cap and zero-tolerance throttling: eager,
    // throttled and deferred repairs all occur in a 6-tenant storm.
    let storm = StormConfig {
        lanes: 1,
        max_lane_wait: SimDuration::from_secs(30),
        throttle_at: 0,
        throttle_penalty: SimDuration::from_secs(2),
    };
    let report = replay_with_recovery(&collect_streams(&config), &GatewayConfig::default(), storm);
    let rec = report.recovery.as_ref().expect("recovery stage ran");
    assert!(rec.none_dropped(), "{rec:#?}");
    render_dashboard(
        &report.flight,
        &[
            "gateway.lines.processed",
            "gateway.queue_wait_us",
            "recovery.storm.concurrent",
        ],
    )
}

#[test]
fn storm_dashboard_surfaces_admission_and_queue_rows() {
    let text = storm_dashboard();
    // The caller asked for three metrics; the storm's admission ledger
    // and backlog rows must be auto-surfaced next to the incident marks.
    for row in [
        "recovery.storm.concurrent",
        "recovery.storm.requests",
        "recovery.storm.admitted",
        "recovery.storm.throttled",
        "recovery.storm.deferred",
        "recovery.storm.swept",
        "recovery.storm.queue_depth",
        "incidents",
    ] {
        assert!(
            text.contains(row),
            "dashboard misses the {row} row:\n{text}"
        );
    }
    // Counter rows carry totals, gauge rows carry levels; both render a
    // sparkline column.
    let requests_row = text
        .lines()
        .find(|l| l.starts_with("recovery.storm.requests"))
        .unwrap();
    assert!(requests_row.contains("| total "), "{requests_row}");
    let depth_row = text
        .lines()
        .find(|l| l.starts_with("recovery.storm.queue_depth"))
        .unwrap();
    assert!(depth_row.contains('|'), "{depth_row}");
}

#[test]
fn storm_dashboard_is_byte_stable_across_same_seed_runs() {
    assert_eq!(
        storm_dashboard(),
        storm_dashboard(),
        "same seed + same interleaving must render the same dashboard"
    );
}
