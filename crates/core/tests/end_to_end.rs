//! End-to-end tests: the POD engine monitoring real rolling upgrades on the
//! simulated cloud.

use std::sync::Arc;

use pod_assert::RetryPolicy;
use pod_cloud::{Cloud, CloudConfig};
use pod_core::{DetectionSource, PodConfig, PodEngine, RunSummary, SharedEnv};
use pod_faulttree::rolling_upgrade_repository;
use pod_log::{LogEvent, LogStorage};
use pod_orchestrator::{
    process_def, FaultInjector, FaultType, RollingUpgrade, UpgradeConfig, UpgradeObserver,
};
use pod_sim::{Clock, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

struct World {
    cloud: Cloud,
    config: UpgradeConfig,
    env: SharedEnv,
    storage: LogStorage,
}

fn build_world(seed: u64, n: u32) -> World {
    let cloud = Cloud::new(
        Clock::new(),
        SimRng::seed_from(seed),
        CloudConfig::default(),
    );
    let ami_v1 = cloud.admin_create_ami("app", "1.0");
    let ami_v2 = cloud.admin_create_ami("app", "2.0");
    let cluster = cloud.admin_create_cluster(ami_v1, "prod", "lc-v1", "pm--asg", 30, n);
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
        ..pod_assert::ExpectedEnv::for_cluster(cluster, "2.0", n)
    });
    World {
        cloud,
        config,
        env,
        storage: LogStorage::new(),
    }
}

fn pod_config() -> PodConfig {
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
    config.wait_activity = Some(pod_faulttree::steps::WAIT_ASG.to_string());
    config.completion_activity = Some(pod_faulttree::steps::READY.to_string());
    config.in_flight_activities = vec![
        pod_faulttree::steps::DEREGISTER.to_string(),
        pod_faulttree::steps::TERMINATE.to_string(),
        pod_faulttree::steps::WAIT_ASG.to_string(),
    ];
    config.retry_policy = RetryPolicy {
        max_retries: 4,
        timeout: SimDuration::from_secs(20),
        ..RetryPolicy::default()
    };
    config
}

fn run_upgrade(world: &World, engine: PodEngine) -> (RunSummary, pod_orchestrator::UpgradeReport) {
    run_upgrade_with(world, engine, None)
}

fn run_upgrade_with(
    world: &World,
    engine: PodEngine,
    inject: Option<(SimTime, FaultType)>,
) -> (RunSummary, pod_orchestrator::UpgradeReport) {
    struct Obs<'w> {
        engine: PodEngine,
        world: &'w World,
        inject: Option<(SimTime, FaultInjector)>,
        rng: SimRng,
    }
    impl UpgradeObserver for Obs<'_> {
        fn on_log(&mut self, event: LogEvent) {
            self.engine.ingest(event);
        }
        fn on_tick(&mut self, cloud: &Cloud, now: SimTime) {
            if let Some((at, _)) = &self.inject {
                if now >= *at {
                    let (_, mut injector) = self.inject.take().expect("checked above");
                    let lc = format!("{}-run-1", self.world.config.new_launch_config);
                    injector.inject(cloud, &self.world.config, &lc, &mut self.rng);
                }
            }
            self.engine.poll();
        }
    }
    let mut upgrade = RollingUpgrade::new(world.cloud.clone(), world.config.clone(), "run-1");
    let mut obs = Obs {
        engine,
        world,
        inject: inject.map(|(at, fault)| (at, FaultInjector::new(fault))),
        rng: SimRng::seed_from(777),
    };
    let report = upgrade.run(&mut obs);
    (obs.engine.finish(), report)
}

fn engine_for(world: &World) -> PodEngine {
    PodEngine::new(
        world.cloud.clone(),
        world.storage.clone(),
        world.env.clone(),
        pod_config(),
        "run-1",
    )
    .expect("patterns compile")
}

#[test]
fn healthy_upgrade_produces_no_detections() {
    let world = build_world(101, 4);
    let engine = engine_for(&world);
    let (summary, report) = run_upgrade(&world, engine);
    assert!(report.outcome.is_success());
    assert!(summary.trace_complete, "trace must replay to completion");
    assert!(
        summary.detections.is_empty(),
        "unexpected detections: {:#?}",
        summary
            .detections
            .iter()
            .map(|d| (&d.source, &d.description))
            .collect::<Vec<_>>()
    );
    assert!(summary.conformance_events > 10);
    assert_eq!(summary.conformance_errors, 0);
    assert!(summary.assertions_evaluated >= 12);
}

#[test]
fn wrong_ami_fault_is_detected_and_diagnosed() {
    let world = build_world(102, 4);
    let engine = engine_for(&world);
    // Inject fault type 1 shortly after the upgrade starts (after the LC
    // has been created).
    let inject_at = world.cloud.clock().now() + SimDuration::from_secs(120);
    let (summary, _report) = run_upgrade_with(
        &world,
        engine,
        Some((inject_at, FaultType::AmiChangedDuringUpgrade)),
    );
    assert!(
        !summary.detections.is_empty(),
        "the wrong-AMI fault must be detected"
    );
    // At least one diagnosis identifies the wrong-AMI root cause.
    let diagnosed: Vec<&str> = summary
        .detections
        .iter()
        .filter_map(|d| d.diagnosis.as_ref())
        .flat_map(|r| r.root_causes.iter().map(|c| c.node_id.as_str()))
        .collect();
    assert!(
        diagnosed.contains(&"lc-wrong-ami"),
        "diagnosed causes: {diagnosed:?}"
    );
}

#[test]
fn unavailable_ami_fault_triggers_conformance_and_assertion_detection() {
    let world = build_world(103, 4);
    let mut upgrade_config = world.config.clone();
    upgrade_config.max_wait_per_instance = SimDuration::from_secs(300);
    let world = World {
        config: upgrade_config,
        ..world
    };
    let engine = engine_for(&world);
    let inject_at = world.cloud.clock().now() + SimDuration::from_secs(100);
    let (summary, report) =
        run_upgrade_with(&world, engine, Some((inject_at, FaultType::AmiUnavailable)));
    assert!(!report.outcome.is_success(), "upgrade should stall");
    assert!(!summary.detections.is_empty());
    // The orchestrator surfaces cloud launch failures → conformance flags
    // known-error lines.
    assert!(
        summary.detections.iter().any(|d| d.source.is_conformance()),
        "sources: {:?}",
        summary
            .detections
            .iter()
            .map(|d| d.source)
            .collect::<Vec<_>>()
    );
    let diagnosed: Vec<&str> = summary
        .detections
        .iter()
        .filter_map(|d| d.diagnosis.as_ref())
        .flat_map(|r| r.root_causes.iter().map(|c| c.node_id.as_str()))
        .collect();
    assert!(
        diagnosed.contains(&"ami-unavailable"),
        "diagnosed causes: {diagnosed:?}"
    );
}

#[test]
fn diagnosis_times_are_seconds_scale() {
    let world = build_world(104, 4);
    let engine = engine_for(&world);
    let inject_at = world.cloud.clock().now() + SimDuration::from_secs(120);
    let (summary, _) = run_upgrade_with(
        &world,
        engine,
        Some((inject_at, FaultType::KeyPairManagementFault)),
    );
    let durations: Vec<f64> = summary
        .detections
        .iter()
        .filter_map(|d| d.diagnosis.as_ref())
        .map(|r| r.duration.as_secs_f64())
        .collect();
    assert!(!durations.is_empty());
    for d in &durations {
        assert!(*d > 0.1 && *d < 30.0, "diagnosis took {d}s");
    }
}

#[test]
fn detection_timestamps_are_monotonic() {
    let world = build_world(105, 4);
    let engine = engine_for(&world);
    let inject_at = world.cloud.clock().now() + SimDuration::from_secs(60);
    let (summary, _) = run_upgrade_with(
        &world,
        engine,
        Some((inject_at, FaultType::SecurityGroupConfigurationFault)),
    );
    let mut last = SimTime::ZERO;
    for d in &summary.detections {
        assert!(d.at >= last);
        last = d.at;
    }
}

#[test]
fn configuration_faults_are_invisible_to_conformance() {
    // Fault types 1-4 keep the log output normal; only assertions see them.
    let world = build_world(106, 4);
    let engine = engine_for(&world);
    let inject_at = world.cloud.clock().now() + SimDuration::from_secs(120);
    let (summary, _) = run_upgrade_with(
        &world,
        engine,
        Some((inject_at, FaultType::InstanceTypeChangedDuringUpgrade)),
    );
    assert!(!summary.detections.is_empty(), "fault must be detected");
    assert!(
        summary
            .detections
            .iter()
            .all(|d| !d.source.is_conformance()),
        "configuration faults must not be flagged by conformance: {:?}",
        summary
            .detections
            .iter()
            .map(|d| d.source)
            .collect::<Vec<_>>()
    );
    assert!(summary
        .detections
        .iter()
        .any(|d| d.source == DetectionSource::AssertionLog));
}

#[test]
fn engines_of_one_process_hold_one_compiled_pod() {
    let w = build_world(107, 4);
    let pod = pod_config().compile().expect("patterns compile");
    let engine = |i: u64| {
        let (cloud, storage, env) = (w.cloud.clone(), w.storage.clone(), w.env.clone());
        PodEngine::from_compiled(&pod, cloud, storage, env, format!("run-{i}"), i)
    };
    let engines: Vec<PodEngine> = (0..64).map(engine).collect();
    // One reference each and no private copy: compile once, share by count.
    assert_eq!(Arc::strong_count(&pod), 65);
    drop(engines);
    assert_eq!(Arc::strong_count(&pod), 1);
}

/// Four lines of one sink call — the wait line arms the step timer, each
/// known-error line costs one 10 ms conformance call — through one
/// `ingest_batch` or through one `ingest` each, on a fresh same-seed world.
fn ingest_four_lines(step_timeout: SimDuration, batched: bool) -> RunSummary {
    let w = build_world(11, 4);
    let mut config = pod_config();
    config.step_timeout = step_timeout;
    let (cloud, storage, env) = (w.cloud.clone(), w.storage.clone(), w.env.clone());
    let mut engine = PodEngine::new(cloud, storage, env, config, "run-1").expect("compiles");
    let lines = [
        "Started rolling upgrade task run-1 pushing ami-0a into group pm--asg",
        "Waiting for ASG pm--asg to start a new instance",
        "ERROR: cloud reported: first",
        "ERROR: cloud reported: second",
    ]
    .into_iter()
    .zip(1..)
    .map(|(line, ms)| LogEvent::new(SimTime::from_millis(ms), "asgard.log", line));
    if batched {
        engine.ingest_batch(lines);
    } else {
        lines.for_each(|line| engine.ingest(line));
    }
    engine.finish()
}

#[test]
fn one_batch_equals_per_line_ingests_when_no_timer_falls_due_in_between() {
    let timeout = SimDuration::from_secs(150);
    let batched = ingest_four_lines(timeout, true);
    assert_eq!(batched.detections.len(), 3, "{}", batched.digest());
    assert_eq!(batched.digest(), ingest_four_lines(timeout, false).digest());
}

#[test]
fn a_timer_due_mid_batch_fires_after_its_last_line() {
    use DetectionSource::{AssertionOneOffTimer as Timer, ConformanceKnownError as Line};
    let sources = |s: &RunSummary| Vec::from_iter(s.detections[1..].iter().map(|d| d.source));
    // Armed 5 ms after the wait line's conformance call, so the first error
    // line's call makes it due.
    let timeout = SimDuration::from_millis(5);
    let per_line = ingest_four_lines(timeout, false);
    assert_eq!(sources(&per_line), [Line, Timer, Line]);
    let batched = ingest_four_lines(timeout, true);
    assert_eq!(sources(&batched), [Line, Line, Timer]);
    assert_ne!(batched.digest(), per_line.digest());
}

/// One `End` line: central storage holds the annotated line itself — every
/// field as the annotator's conformance trigger carries it — then the line's
/// conformance line, then its assertion line, in that order.
#[test]
fn storage_keeps_the_annotated_line_before_its_conformance_and_assertion_lines() {
    use pod_log::{LogQuery, ProcessAnnotator, Stage, Trigger};

    let w = build_world(12, 4);
    let (cloud, storage, env) = (w.cloud.clone(), w.storage.clone(), w.env.clone());
    let mut engine = PodEngine::new(cloud, storage, env, pod_config(), "run-1").expect("compiles");
    let line = |ms, text| LogEvent::new(SimTime::from_millis(ms), "asgard.log", text);
    let start = "Started rolling upgrade task run-1 pushing ami-0a into group pm--asg";
    engine.ingest(line(1, start));
    let before = w.storage.query(&LogQuery::new()).len();
    // Out of turn (unfit), and its one assertion fails on an unknown
    // instance: every verdict still writes its line.
    let end = "Terminated old instance i-0dead";
    engine.ingest(line(2, end));

    let stored = w.storage.query(&LogQuery::new());
    let [annotated, conformance, assertion] = &stored[before..] else {
        panic!("{} lines stored for one End line", stored.len() - before)
    };
    let mut annotator = ProcessAnnotator::new(
        process_def::rolling_upgrade_rules(),
        "rolling-upgrade",
        "run-1",
    );
    let Trigger::Conformance(expected) = annotator.process(line(2, end)).triggers.remove(0) else {
        panic!("the annotator hands its line on in its conformance trigger")
    };
    assert_eq!(annotated, &expected);
    let step = |e: &LogEvent| e.context.as_ref().and_then(|c| c.step_id.clone());
    assert_eq!(step(annotated).as_deref(), Some("terminate-old-instance"));
    assert_eq!(conformance.event_type, "conformance");
    assert!(
        conformance.message.ends_with(end),
        "{}",
        conformance.message
    );
    assert_eq!(assertion.event_type, "assertion");
    assert_eq!(step(assertion), step(annotated));
}

// ---------------------------------------------------------------------
// The engine's timers: the periodic check, the step timeout and the
// dispatched diagnoses.
// ---------------------------------------------------------------------

const START: &str = "Started rolling upgrade task run-1 pushing ami-0a into group pm--asg";
const WAIT: &str = "Waiting for ASG pm--asg to start a new instance";
const PERIOD: SimDuration = SimDuration::from_secs(60);

fn log_line(text: &str) -> LogEvent {
    LogEvent::new(SimTime::ZERO, "asgard.log", text)
}

/// Assertion lines in central storage carrying a trigger tag.
fn assertion_lines(storage: &LogStorage, trigger: &str) -> usize {
    let lines = storage.query(&pod_log::LogQuery::new());
    lines
        .iter()
        .filter(|l| l.tags.iter().any(|t| t == trigger))
        .count()
}

#[test]
fn a_second_operation_start_line_re_arms_the_one_periodic_check() {
    let w = build_world(13, 4);
    let mut engine = engine_for(&w);
    engine.ingest(log_line(START));
    engine.ingest(log_line(START));
    engine.ingest(log_line("Rolling upgrade task run-1 completed"));
    w.cloud.clock().advance(PERIOD * 5);
    engine.poll();
    assert_eq!(assertion_lines(&w.storage, "trigger:periodic-timer"), 0);
}

#[test]
fn an_overdue_periodic_check_runs_once_per_elapsed_period() {
    let w = build_world(14, 4);
    let mut engine = engine_for(&w);
    engine.ingest(log_line(START));
    w.cloud.clock().advance(PERIOD + SimDuration::from_secs(1));
    engine.poll();
    let one_check = assertion_lines(&w.storage, "trigger:periodic-timer");
    assert!(one_check > 0);
    // Four more periods elapse before the next poll: four more checks, in
    // that one poll.
    w.cloud.clock().advance(PERIOD * 4);
    engine.poll();
    let checks = assertion_lines(&w.storage, "trigger:periodic-timer");
    assert_eq!(checks, 5 * one_check);
    engine.poll();
    assert_eq!(
        assertion_lines(&w.storage, "trigger:periodic-timer"),
        checks
    );
}

#[test]
fn a_pass_fires_what_was_due_on_entry_not_what_its_diagnosis_makes_due() {
    let w = build_world(15, 4);
    let mut config = pod_config();
    // Due 300 ms after the diagnosis dispatched by the error line before
    // the wait line; a diagnosis costs at least 600 ms.
    config.step_timeout = SimDuration::from_millis(5_300);
    let (cloud, storage, env) = (w.cloud.clone(), w.storage.clone(), w.env.clone());
    let mut engine = PodEngine::new(cloud, storage, env, config, "run-1").expect("compiles");
    engine.ingest(log_line("ERROR: cloud reported: first"));
    engine.ingest(log_line(WAIT));
    w.cloud.clock().advance(SimDuration::from_millis(5_100));
    engine.poll();
    assert!(engine.detections()[0].diagnosis.is_some());
    assert_eq!(assertion_lines(&w.storage, "trigger:oneoff-timer"), 0);
    engine.poll();
    assert_eq!(assertion_lines(&w.storage, "trigger:oneoff-timer"), 1);
}

#[test]
fn finish_runs_pending_diagnoses_and_no_periodic_or_step_check() {
    let w = build_world(16, 4);
    let mut engine = engine_for(&w);
    engine.ingest(log_line(START));
    engine.ingest(log_line(WAIT));
    engine.ingest(log_line("ERROR: cloud reported: first"));
    // Both the periodic check and the step timeout are overdue, but no
    // poll came before the end.
    w.cloud.clock().advance(SimDuration::from_secs(200));
    let summary = engine.finish();
    assert!(summary.detections[0].diagnosis.is_some());
    assert_eq!(assertion_lines(&w.storage, "trigger:periodic-timer"), 0);
    assert_eq!(assertion_lines(&w.storage, "trigger:oneoff-timer"), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// However detections and polls are spaced, each dispatched diagnosis
    /// runs exactly once, in detection order, no earlier than the dispatch
    /// delay after its detection; a detection inside the cooldown of the
    /// previous diagnosed one with the same key is never diagnosed.
    #[test]
    fn each_dispatched_diagnosis_runs_once_in_detection_order(
        steps in prop::collection::vec((0u64..90_000, 0usize..3, prop::bool::ANY), 1..8),
    ) {
        use std::cell::RefCell;
        use std::collections::HashMap;
        use std::rc::Rc;

        /// The engine's per-key diagnosis cooldown.
        const COOLDOWN: SimDuration = SimDuration::from_secs(45);

        // Conformance-only, and unfit with a failing assertion: one or two
        // detections, with different fault-tree keys.
        let lines = [
            "ERROR: cloud reported: boom",
            "Terminated old instance i-0dead",
            "Instance i-0dead is ready",
        ];
        let w = build_world(17, 4);
        let mut engine = engine_for(&w);
        let hooked = Rc::new(RefCell::new(Vec::new()));
        let seen = Rc::clone(&hooked);
        engine.set_diagnosis_hook(move |index, detection| {
            assert!(detection.diagnosis.is_some(), "the hook sees the verdict");
            seen.borrow_mut().push(index);
        });
        for (gap_ms, line, poll) in steps {
            w.cloud.clock().advance(SimDuration::from_millis(gap_ms));
            if poll {
                engine.poll();
            }
            engine.ingest(log_line(lines[line]));
        }
        let summary = engine.finish();

        let hooked = hooked.borrow();
        prop_assert!(!summary.detections.is_empty());
        prop_assert!(hooked.windows(2).all(|w| w[0] < w[1]));
        let diagnosed: Vec<usize> = (0..summary.detections.len())
            .filter(|&i| summary.detections[i].diagnosis.is_some())
            .collect();
        prop_assert_eq!(&*hooked, &diagnosed);
        // The cooldown also restarts when a diagnosis completes, so only
        // the dispatch side is exact: within 45 s of the last dispatch.
        let mut last_diagnosed: HashMap<&str, SimTime> = HashMap::new();
        for d in &summary.detections {
            let cooling = last_diagnosed
                .get(d.key.as_str())
                .is_some_and(|last| d.at.duration_since(*last) < COOLDOWN);
            prop_assert!(!(cooling && d.diagnosis.is_some()));
            if let Some(report) = &d.diagnosis {
                prop_assert!(report.started_at >= d.at + SimDuration::from_secs(5));
                last_diagnosed.insert(&d.key, d.at);
            }
        }
    }
}
