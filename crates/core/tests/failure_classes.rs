//! Tests documenting the paper's false-positive and wrong-diagnosis
//! classes (§VI.A) as engine-level behaviours.

mod common;

use common::{build_world, engine_for, pod_config, run_upgrade, World};
use pod_assert::RetryPolicy;
use pod_core::{DetectionSource, PodEngine};
use pod_faulttree::DiagnosisVerdict;
use pod_sim::{SimDuration, SimTime};

/// An engine on `world` whose step timer fires after `step_timeout`.
fn engine(world: &World, step_timeout: SimDuration) -> PodEngine {
    let mut config = pod_config();
    config.step_timeout = step_timeout;
    config.retry_policy = RetryPolicy {
        max_retries: 3,
        timeout: SimDuration::from_secs(15),
        ..RetryPolicy::default()
    };
    engine_for(world, config)
}

/// FP class 1: "error detection triggered due to timeout. … an operation is
/// running successfully, with late log appearance, which causes the
/// assertion evaluation to fail. However, in all such cases, our diagnosis
/// returned 'No root cause identified'."
#[test]
fn timeout_false_positives_diagnose_to_no_root_cause() {
    let world = build_world(201, 4);
    // A step timeout far below the real replacement duration: every wait
    // "times out" although the upgrade is perfectly healthy.
    let engine = engine(&world, SimDuration::from_secs(20));
    let (summary, _) = run_upgrade(&world, engine, None, |_| {});
    let timer_detections: Vec<_> = summary
        .detections
        .iter()
        .filter(|d| d.source == DetectionSource::AssertionOneOffTimer)
        .collect();
    assert!(
        !timer_detections.is_empty(),
        "the tight timeout must fire during healthy waits"
    );
    for d in &timer_detections {
        if let Some(diag) = &d.diagnosis {
            assert_eq!(
                diag.verdict(),
                DiagnosisVerdict::NoRootCauseIdentified,
                "healthy-system timeout FPs must diagnose to no root cause: {d:#?}"
            );
        }
    }
}

/// FP class 2: "when the assertion evaluation asserts the number of
/// instances, the 'should-be' number is changed by another [operation]" —
/// a legitimate scale-in not yet reflected in the expected environment.
#[test]
fn expectation_race_is_detected_and_attributed_to_the_concurrent_operation() {
    let world = build_world(202, 4);
    let engine = engine(&world, SimDuration::from_secs(300));
    let (summary, _) = run_upgrade(&world, engine, Some(SimTime::from_secs(100)), |world| {
        // A legitimate scale-in by another team; the configuration
        // repository (expected env) is NOT updated.
        let _ = world.cloud.update_asg(
            &world.config.asg,
            pod_cloud::AsgUpdate {
                desired_capacity: Some(3),
                ..pod_cloud::AsgUpdate::default()
            },
        );
    });
    // The periodic process-aware check catches the mismatch...
    let periodic: Vec<_> = summary
        .detections
        .iter()
        .filter(|d| d.source == DetectionSource::AssertionPeriodicTimer)
        .collect();
    assert!(!periodic.is_empty(), "{:#?}", summary.detections);
    // ...and diagnosis attributes it to the concurrent capacity change.
    let attributed = summary
        .detections
        .iter()
        .filter_map(|d| d.diagnosis.as_ref())
        .flat_map(|r| r.root_causes.iter())
        .any(|c| c.node_id == "concurrent-capacity-change" || c.node_id == "concurrent-scale-in");
    assert!(attributed, "{:#?}", summary.detections);
}

/// Acknowledging the legitimate change stops further detections: once the
/// expected environment is updated, the periodic check is quiet again.
#[test]
fn acknowledged_scaling_stops_the_alarms() {
    let world = build_world(203, 4);
    let engine = engine(&world, SimDuration::from_secs(300));
    let (summary, _) = run_upgrade(&world, engine, Some(SimTime::from_secs(80)), |world| {
        let _ = world.cloud.update_asg(
            &world.config.asg,
            pod_cloud::AsgUpdate {
                desired_capacity: Some(3),
                ..pod_cloud::AsgUpdate::default()
            },
        );
        // Immediate operator acknowledgement.
        world.env.update(|e| e.expected_count = 3);
    });
    let periodic_failures = summary
        .detections
        .iter()
        .filter(|d| d.source == DetectionSource::AssertionPeriodicTimer)
        .count();
    assert_eq!(
        periodic_failures, 0,
        "acknowledged changes must not alarm: {:#?}",
        summary.detections
    );
}
