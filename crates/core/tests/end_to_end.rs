//! End-to-end tests: the POD engine monitoring real rolling upgrades on the
//! simulated cloud.

mod common;

use std::sync::Arc;

use common::{build_world, engine_for, pod_config, run_upgrade, World};
use pod_core::{DetectionSource, PodEngine, RunSummary};
use pod_log::{LogEvent, LogStorage};
use pod_orchestrator::{process_def, FaultInjector, FaultType};
use pod_sim::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// Injects `fault` into the world's upgrade.
fn inject(fault: FaultType) -> impl FnMut(&World) {
    let mut rng = SimRng::seed_from(777);
    move |world| {
        let lc = format!("{}-run-1", world.config.new_launch_config);
        FaultInjector::new(fault).inject(&world.cloud, &world.config, &lc, &mut rng);
    }
}

#[test]
fn healthy_upgrade_produces_no_detections() {
    let world = build_world(101, 4);
    let engine = engine_for(&world, pod_config());
    let (summary, report) = run_upgrade(&world, engine, None, |_| {});
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
    let engine = engine_for(&world, pod_config());
    // Inject fault type 1 shortly after the upgrade starts (after the LC
    // has been created).
    let inject_at = world.cloud.clock().now() + SimDuration::from_secs(120);
    let (summary, _report) = run_upgrade(
        &world,
        engine,
        Some(inject_at),
        inject(FaultType::AmiChangedDuringUpgrade),
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

/// A detection names its causal event only when one was recorded: every
/// wrong-AMI detection has an id under `Full` and none under `Off`, where
/// nothing is recorded for it to name.
#[test]
fn telemetry_off_hands_out_no_event_ids() {
    use pod_obs::TelemetryMode;

    let events = |mode| {
        let world = build_world(102, 4);
        world.cloud.obs().set_mode(mode);
        let engine = engine_for(&world, pod_config());
        let inject_at = world.cloud.clock().now() + SimDuration::from_secs(120);
        let fault = inject(FaultType::AmiChangedDuringUpgrade);
        let (summary, _) = run_upgrade(&world, engine, Some(inject_at), fault);
        summary
            .detections
            .iter()
            .map(|d| d.event)
            .collect::<Vec<_>>()
    };
    let full = events(TelemetryMode::Full);
    assert!(!full.is_empty(), "the wrong-AMI fault must be detected");
    assert!(full.iter().all(Option::is_some), "{full:?}");
    let off = events(TelemetryMode::Off);
    assert_eq!(off.len(), full.len(), "the mode changes no detection");
    assert!(off.iter().all(Option::is_none), "{off:?}");
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
    let engine = engine_for(&world, pod_config());
    let inject_at = world.cloud.clock().now() + SimDuration::from_secs(100);
    let (summary, report) = run_upgrade(
        &world,
        engine,
        Some(inject_at),
        inject(FaultType::AmiUnavailable),
    );
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
    let engine = engine_for(&world, pod_config());
    let inject_at = world.cloud.clock().now() + SimDuration::from_secs(120);
    let (summary, _) = run_upgrade(
        &world,
        engine,
        Some(inject_at),
        inject(FaultType::KeyPairManagementFault),
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
    let engine = engine_for(&world, pod_config());
    let inject_at = world.cloud.clock().now() + SimDuration::from_secs(60);
    let (summary, _) = run_upgrade(
        &world,
        engine,
        Some(inject_at),
        inject(FaultType::SecurityGroupConfigurationFault),
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
    let engine = engine_for(&world, pod_config());
    let inject_at = world.cloud.clock().now() + SimDuration::from_secs(120);
    let (summary, _) = run_upgrade(
        &world,
        engine,
        Some(inject_at),
        inject(FaultType::InstanceTypeChangedDuringUpgrade),
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
    let mut engine = engine_for(&w, config);
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
    let mut engine = engine_for(&w, pod_config());
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

/// A line's pending `log.line` root is its stored line: a fit line leaves
/// the ring as it was, a non-fit line's verdict parents on a `log.line`
/// record named after the line's source and carrying its message and step,
/// and with telemetry off nothing is recorded.
#[test]
fn only_a_non_fit_line_records_its_log_line_root() {
    use pod_obs::{EventRecord, TelemetryMode};

    let lines = [
        START,
        "Created launch configuration pm-lc-run-1 with image ami-0a and updated group pm--asg",
        "Terminated old instance i-0dead",
    ];
    let run = |mode| {
        let w = build_world(18, 4);
        let mut config = pod_config();
        // No assertions, so only conformance emits under a line.
        config.bindings = pod_assert::AssertionLibrary::new();
        let obs = w.cloud.obs().clone();
        obs.set_mode(mode);
        let mut engine = engine_for(&w, config);
        lines.map(|line| {
            engine.ingest(log_line(line));
            obs.events().records()
        })
    };
    let [started, fit, unfit] = run(TelemetryMode::Full);
    // Every field of every record, its attributes rendered.
    let seen = |records: &[EventRecord]| {
        let seen = |r: &EventRecord| {
            (
                r.id,
                r.parent,
                r.span,
                r.at,
                r.end,
                r.kind,
                r.name.clone(),
                r.attrs(),
            )
        };
        records.iter().map(seen).collect::<Vec<_>>()
    };
    assert_eq!(seen(&fit), seen(&started), "a fit line records nothing");
    let added = &unfit[started.len()..];
    let root = &added[0];
    assert_eq!((root.kind, &*root.name), ("log.line", "asgard.log"));
    assert_eq!(
        root.attrs(),
        vec![
            ("message", lines[2].to_string()),
            ("step", "terminate-old-instance".to_string())
        ]
    );
    let verdict = added.iter().find(|r| r.kind == "conformance.verdict");
    assert_eq!(verdict.and_then(|v| v.parent), Some(root.id), "{added:?}");
    assert!(run(TelemetryMode::Off).iter().all(Vec::is_empty));
}

/// A causal event keeps what it points at and renders its attributes when
/// read: the line's root, the unfit verdict and the detection render
/// exactly the `(key, String)` pairs their emitters used to build eagerly,
/// here rebuilt from the stored line, the net's `Unfit` and the
/// `Detection`.
#[test]
fn rendered_attributes_equal_the_eagerly_built_ones() {
    use pod_faulttree::steps::{START as STARTED, TERMINATE, UPDATE_LC};
    use pod_obs::TelemetryMode;
    use pod_process::{Conformance, ConformanceChecker};

    let lines = [
        START,
        "Created launch configuration pm-lc-run-1 with image ami-0a and updated group pm--asg",
        "Terminated old instance i-0dead",
    ];
    let w = build_world(18, 4);
    let mut config = pod_config();
    config.bindings = pod_assert::AssertionLibrary::new();
    let model = config.model.clone();
    w.cloud.obs().set_mode(TelemetryMode::Full);
    let mut engine = engine_for(&w, config);
    for line in lines {
        engine.ingest(log_line(line));
    }
    let records = w.cloud.obs().events().records();
    let of_kind = |kind| records.iter().filter(move |r| r.kind == kind);
    let root = of_kind("log.line")
        .next_back()
        .expect("the unfit line's root");
    let step = TERMINATE;
    let eager_root = vec![
        ("message", lines[2].to_string()),
        ("step", step.to_string()),
    ];
    assert_eq!(root.attrs(), eager_root);

    let mut checker = ConformanceChecker::new(&model);
    let steps = [STARTED, UPDATE_LC, step];
    let Some(Conformance::Unfit(unfit)) = steps.map(|s| checker.replay("t", s)).last().cloned()
    else {
        panic!("the third step is unfit")
    };
    let mut eager_verdict = vec![("activity", step.to_string())];
    eager_verdict.push(("expected", unfit.expected.join("|")));
    if !unfit.skipped.is_empty() {
        eager_verdict.push(("skipped", unfit.skipped.join("|")));
    }
    let verdict = of_kind("conformance.verdict").next().expect("one verdict");
    assert_eq!(verdict.attrs(), eager_verdict);

    let detection = &engine.detections()[0];
    let mut eager_detection = vec![("description", detection.description.to_string())];
    eager_detection.extend(detection.step.iter().map(|s| ("step", s.to_string())));
    eager_detection.extend(
        detection
            .instance
            .iter()
            .map(|i| ("instance", i.to_string())),
    );
    let event = of_kind("detection").next().expect("one detection");
    assert_eq!(Some(event.id), detection.event.map(|id| id.get()));
    assert_eq!(event.attrs(), eager_detection);
    assert_eq!(eager_detection.len(), 3, "{eager_detection:?}");
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
    let mut engine = engine_for(&w, pod_config());
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
    let mut engine = engine_for(&w, pod_config());
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
    let mut engine = engine_for(&w, config);
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
    let mut engine = engine_for(&w, pod_config());
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
        let mut engine = engine_for(&w, pod_config());
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
