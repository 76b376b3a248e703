//! Tests documenting the paper's false-positive and wrong-diagnosis
//! classes (§VI.A) as engine-level behaviours.

use pod_assert::RetryPolicy;
use pod_cloud::{Cloud, CloudConfig};
use pod_core::{DetectionSource, PodConfig, PodEngine, RunSummary, SharedEnv};
use pod_faulttree::{rolling_upgrade_repository, steps, DiagnosisVerdict};
use pod_log::{LogEvent, LogStorage};
use pod_orchestrator::{process_def, RollingUpgrade, UpgradeConfig, UpgradeObserver};
use pod_sim::{Clock, SimDuration, SimRng, SimTime};

struct World {
    cloud: Cloud,
    config: UpgradeConfig,
    env: SharedEnv,
    storage: LogStorage,
}

fn build_world(seed: u64) -> World {
    let cloud = Cloud::new(
        Clock::new(),
        SimRng::seed_from(seed),
        CloudConfig::default(),
    );
    let ami_v1 = cloud.admin_create_ami("app", "1.0");
    let ami_v2 = cloud.admin_create_ami("app", "2.0");
    let cluster = cloud.admin_create_cluster(ami_v1, "prod", "lc-v1", "pm--asg", 30, 4);
    let config = UpgradeConfig::new(
        "pm",
        cluster.asg.clone(),
        cluster.elb.clone(),
        ami_v2.clone(),
    );
    let env = SharedEnv::new(pod_assert::ExpectedEnv {
        launch_config: pod_cloud::LaunchConfigName::new(format!(
            "{}-run-1",
            config.new_launch_config
        )),
        expected_ami: ami_v2,
        ..pod_assert::ExpectedEnv::for_cluster(cluster, "2.0", 4)
    });
    World {
        cloud,
        config,
        env,
        storage: LogStorage::new(),
    }
}

fn pod_config(step_timeout: SimDuration) -> PodConfig {
    let mut config = PodConfig::new(
        process_def::rolling_upgrade_model(),
        process_def::rolling_upgrade_rules(),
        process_def::rolling_upgrade_assertions(),
        rolling_upgrade_repository(true),
    );
    config.relevance_patterns = process_def::relevance_patterns()
        .into_iter()
        .map(str::to_string)
        .collect();
    config.known_error_patterns = process_def::known_error_patterns()
        .into_iter()
        .map(str::to_string)
        .collect();
    config.operation_start_pattern = process_def::operation_start_pattern().to_string();
    config.operation_end_pattern = process_def::operation_end_pattern().to_string();
    config.wait_activity = Some(steps::WAIT_ASG.to_string());
    config.completion_activity = Some(steps::READY.to_string());
    config.in_flight_activities = vec![
        steps::DEREGISTER.to_string(),
        steps::TERMINATE.to_string(),
        steps::WAIT_ASG.to_string(),
    ];
    config.step_timeout = step_timeout;
    config.retry_policy = RetryPolicy {
        max_retries: 3,
        timeout: SimDuration::from_secs(15),
        ..RetryPolicy::default()
    };
    config
}

/// Runs a healthy upgrade while an optional action fires at a given time.
fn run_with_action(
    world: &World,
    engine: PodEngine,
    action_at: Option<SimTime>,
    action: impl FnMut(&Cloud, &SharedEnv),
) -> RunSummary {
    struct Obs<'e, F: FnMut(&Cloud, &SharedEnv)> {
        engine: PodEngine,
        env: &'e SharedEnv,
        pending: Option<SimTime>,
        action: F,
    }
    impl<F: FnMut(&Cloud, &SharedEnv)> UpgradeObserver for Obs<'_, F> {
        fn on_log(&mut self, event: LogEvent) {
            self.engine.ingest(event);
        }
        fn on_tick(&mut self, cloud: &Cloud, now: SimTime) {
            if let Some(at) = self.pending {
                if now >= at {
                    self.pending = None;
                    (self.action)(cloud, self.env);
                }
            }
            self.engine.poll();
        }
    }
    let mut upgrade = RollingUpgrade::new(world.cloud.clone(), world.config.clone(), "run-1");
    let mut obs = Obs {
        engine,
        env: &world.env,
        pending: action_at,
        action,
    };
    upgrade.run(&mut obs);
    obs.engine.finish()
}

/// FP class 1: "error detection triggered due to timeout. … an operation is
/// running successfully, with late log appearance, which causes the
/// assertion evaluation to fail. However, in all such cases, our diagnosis
/// returned 'No root cause identified'."
#[test]
fn timeout_false_positives_diagnose_to_no_root_cause() {
    let world = build_world(201);
    // A step timeout far below the real replacement duration: every wait
    // "times out" although the upgrade is perfectly healthy.
    let engine = PodEngine::new(
        world.cloud.clone(),
        world.storage.clone(),
        world.env.clone(),
        pod_config(SimDuration::from_secs(20)),
        "run-1",
    )
    .unwrap();
    let summary = run_with_action(&world, engine, None, |_, _| {});
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
    let world = build_world(202);
    let engine = PodEngine::new(
        world.cloud.clone(),
        world.storage.clone(),
        world.env.clone(),
        pod_config(SimDuration::from_secs(300)),
        "run-1",
    )
    .unwrap();
    let asg = world.config.asg.clone();
    let summary = run_with_action(
        &world,
        engine,
        Some(SimTime::from_secs(100)),
        move |cloud, _env| {
            // A legitimate scale-in by another team; the configuration
            // repository (expected env) is NOT updated.
            let _ = cloud.update_asg(
                &asg,
                pod_cloud::AsgUpdate {
                    desired_capacity: Some(3),
                    ..pod_cloud::AsgUpdate::default()
                },
            );
        },
    );
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
    let world = build_world(203);
    let engine = PodEngine::new(
        world.cloud.clone(),
        world.storage.clone(),
        world.env.clone(),
        pod_config(SimDuration::from_secs(300)),
        "run-1",
    )
    .unwrap();
    let asg = world.config.asg.clone();
    let summary = run_with_action(
        &world,
        engine,
        Some(SimTime::from_secs(80)),
        move |cloud, env| {
            let _ = cloud.update_asg(
                &asg,
                pod_cloud::AsgUpdate {
                    desired_capacity: Some(3),
                    ..pod_cloud::AsgUpdate::default()
                },
            );
            // Immediate operator acknowledgement.
            env.update(|e| e.expected_count = 3);
        },
    );
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
