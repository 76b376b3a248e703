//! Bit-reproducibility and isolation of the gateway soak: the same seed
//! must produce byte-identical detections across independent runs, and no
//! operation's detections may reference another operation's instances.
//! The soak's and a recovery storm's digests are pinned, so a change that
//! moves any detection, diagnosis, gateway count or repair transcript fails
//! here rather than in a comparison made by hand. So is every event
//! central storage renders when read, and every wire line a fleet feed
//! carries. Also the flight recorder's cost bound: frames follow drains,
//! not detections.

use pod_diagnosis::eval::{
    build_engine, build_scenario, collect_streams, monitor_upgrade, replay_telemetry,
    replay_with_recovery, Campaign, CampaignConfig, ScenarioConfig, SoakConfig, SoakReport,
};
use pod_diagnosis::gateway::{GatewayConfig, OverloadPolicy};
use pod_diagnosis::log::{LogEvent, LogQuery};
use pod_diagnosis::obs::TelemetryMode;
use pod_diagnosis::recovery::StormConfig;
use pod_diagnosis::sim::{SimDuration, SimTime};

/// FNV-1a-64 of [`soak_digest`]'s digest (46 678 bytes).
const SOAK_DIGEST_PIN: u64 = 0x97d2_7cf8_0202_d38b;
/// FNV-1a-64 of the six-tenant one-lane recovery storm's digest (42 855
/// bytes).
const STORM_DIGEST_PIN: u64 = 0x0c83_13e5_5fe0_f002;

/// FNV-1a-64 of the `{:?}` of every event [`stored_events`] reads back,
/// in order, and the length of those bytes.
const STORAGE_PIN: (u64, usize) = (0x4314_284b_e7fa_6bad, 1_505_197);

/// FNV-1a-64 over every raw wire line of the seed-2014 64-tenant
/// `fleet-healthy`-shaped feed ([`fleet_feed`]), each followed by a
/// newline, and the length of those bytes: what the shipper writes, byte
/// for byte.
const WIRE_FEED_PIN: (u64, usize) = (0x76de_e5df_8010_9e30, 388_984);

/// 64-bit FNV-1a. Its algorithm is fixed, unlike std's `DefaultHasher`, so
/// a constant pins a digest's bytes across commits and toolchains.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `tick()` runs once per drain and is the only frame site besides the
/// dump's one closing frame, however many detections a drain raises.
fn assert_frames_follow_drains(report: &SoakReport) {
    let flight = &report.flight;
    let taken = flight.frames.len() as u64 + flight.evicted_frames;
    assert!(
        taken <= report.stats.batches + 1,
        "{taken} frames over {} drains",
        report.stats.batches
    );
    let marks = flight.incidents.len() as u64 + flight.dropped_incidents;
    let detections: usize = report.ops.iter().map(|op| op.detections).sum();
    assert!(marks > 0 && marks <= detections as u64, "{marks} marks");
}

fn soak_digest() -> (String, u64) {
    let config = SoakConfig {
        ops: 8,
        seed: 2014,
        ..SoakConfig::default()
    };
    let streams = collect_streams(&config);
    let report = replay_telemetry(&streams, &GatewayConfig::default(), TelemetryMode::Full);
    assert!(
        report.leaks.is_empty(),
        "cross-operation leakage: {:?}",
        report.leaks
    );
    assert_eq!(
        report.stats.lines_processed, streams.lines_total,
        "block policy must deliver every line"
    );
    assert_frames_follow_drains(&report);
    (report.digest(), report.stats.lines_processed)
}

#[test]
fn same_seed_produces_byte_identical_detections() {
    let (digest_a, lines_a) = soak_digest();
    let (digest_b, lines_b) = soak_digest();
    assert!(lines_a > 0);
    assert_eq!(lines_a, lines_b);
    assert!(
        digest_a.contains("run-"),
        "digest names every operation: {digest_a}"
    );
    assert_eq!(
        digest_a, digest_b,
        "same seed and same interleaved input must be bit-reproducible"
    );
}

#[test]
fn the_soak_digest_matches_its_pin() {
    let (digest, _) = soak_digest();
    let hash = fnv1a64(digest.as_bytes());
    assert_eq!(
        hash,
        SOAK_DIGEST_PIN,
        "{hash:#018x} over {} bytes",
        digest.len()
    );
}

#[test]
fn the_recovery_storm_digest_matches_its_pin() {
    // The storm of `recovery_soak_drops_nothing_and_replays_byte_identically`:
    // one lane, a short wait cap and zero-tolerance throttling, so eager,
    // throttled and deferred repairs all occur.
    let config = SoakConfig {
        ops: 6,
        seed: 17,
        ..SoakConfig::default()
    };
    let storm = StormConfig {
        lanes: 1,
        max_lane_wait: SimDuration::from_secs(30),
        throttle_at: 0,
        throttle_penalty: SimDuration::from_secs(2),
    };
    let report = replay_with_recovery(&collect_streams(&config), &GatewayConfig::default(), storm);
    let digest = report.digest();
    let hash = fnv1a64(digest.as_bytes());
    assert_eq!(
        hash,
        STORM_DIGEST_PIN,
        "{hash:#018x} over {} bytes",
        digest.len()
    );
}

#[test]
fn a_detection_storm_costs_at_most_one_frame_per_drain() {
    // Every tenant faulty into 16-line shed-oldest queues drained four
    // lines at a time: more detections than drains (one frame per
    // detection took 438 frames over 383 drains here).
    let config = SoakConfig {
        ops: 16,
        seed: 2014,
        ..SoakConfig::default()
    };
    let gateway = GatewayConfig {
        queue_capacity: 16,
        batch_size: 4,
        flush_interval: SimDuration::from_secs(5),
        overload: OverloadPolicy::ShedOldest,
        ..GatewayConfig::default()
    };
    let report = replay_telemetry(&collect_streams(&config), &gateway, TelemetryMode::Full);
    assert!(report.stats.shed_oldest > 0, "the queues must overflow");
    assert_frames_follow_drains(&report);
}

/// Every raw line of the 64-tenant feed shaped like the ledger's
/// `fleet-healthy` workload (one tenant in eight faulty, 5 % plaintext
/// noise, seed 2014), in tenant order, each followed by a newline.
fn fleet_feed() -> String {
    let streams = collect_streams(&SoakConfig {
        ops: 64,
        seed: 2014,
        noise_rate: 0.05,
        fault_every: 8,
    });
    let mut feed = String::new();
    for (_, raw) in streams.ops.iter().flat_map(|op| &op.lines) {
        feed.push_str(raw);
        feed.push('\n');
    }
    feed
}

#[test]
fn the_wire_feed_matches_its_pin() {
    let feed = fleet_feed();
    let pin = (fnv1a64(feed.as_bytes()), feed.len());
    assert_eq!(pin, WIRE_FEED_PIN, "{:#018x} over {} bytes", pin.0, pin.1);
}

/// What central storage holds after three inputs, read back in append
/// order: the 8-tenant soak of [`soak_digest`], the campaign's 16 runs at
/// seed 2014 with recovery, and one engine fed an operation-start line and
/// a relevant line that no rule or known-error pattern names.
fn stored_events() -> Vec<LogEvent> {
    let all = LogQuery::new();
    let streams = collect_streams(&SoakConfig {
        ops: 8,
        seed: 2014,
        ..SoakConfig::default()
    });
    drop(replay_telemetry(
        &streams,
        &GatewayConfig::default(),
        TelemetryMode::Full,
    ));
    let mut events: Vec<LogEvent> = streams
        .ops
        .iter()
        .flat_map(|op| op.scenario.storage.query(&all))
        .collect();
    let campaign = Campaign::new(CampaignConfig {
        runs_per_fault: 2,
        seed: 2014,
        recovery: true,
        ..CampaignConfig::default()
    });
    for plan in campaign.plans() {
        events.extend(monitor_upgrade(&plan).scenario.storage.query(&all));
    }
    let config = ScenarioConfig::default();
    let scenario = build_scenario(&config);
    let mut engine = build_engine(&scenario, &config);
    let start = "Started rolling upgrade task t-1 pushing ami-0f into group pm--asg";
    engine.ingest(LogEvent::new(SimTime::ZERO, "asgard.log", start));
    let stray = "Instance health report: nothing to do";
    engine.ingest(LogEvent::new(SimTime::from_secs(1), "asgard.log", stray));
    engine.finish();
    events.extend(scenario.storage.query(&all));
    events
}

#[test]
fn what_storage_renders_matches_its_pin_and_reaches_every_branch() {
    let events = stored_events();
    let rendered: String = events.iter().map(|e| format!("{e:?}\n")).collect();
    let pin = (fnv1a64(rendered.as_bytes()), rendered.len());
    assert_eq!(pin, STORAGE_PIN, "{:#018x} over {} bytes", pin.0, pin.1);

    let tagged = |source: &str, tag: &str, text: &str| {
        events.iter().any(|e| {
            e.source == source && e.tags.iter().any(|t| t == tag) && e.message.contains(text)
        })
    };
    for verdict in ["fit", "error", "unclassified"] {
        let tag = format!("conformance:{verdict}");
        assert!(tagged("conformance.log", &tag, ""), "no {tag} line");
    }
    assert!(
        tagged("conformance.log", "conformance:unfit", " expected=["),
        "no conformance:unfit line"
    );
    for trigger in ["log", "oneoff-timer", "periodic-timer"] {
        let tag = format!("trigger:{trigger}");
        for outcome in [" holds", " FAILED: "] {
            assert!(
                tagged("assertion-evaluation.log", &tag, outcome),
                "no{outcome} assertion line under {tag}"
            );
        }
    }
    assert!(events.iter().any(|e| e.source == "diagnosis.log"));
}
