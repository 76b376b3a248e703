//! Self-monitoring of the recovery loop: recovery operations are
//! themselves sporadic operations, so each run is conformance-checked
//! against its own process model, exactly like the rolling upgrade it
//! repairs.
//!
//! The executor emits Asgard-style log lines ([`crate::RecoveryRun::log`]);
//! [`conformance_check`] replays them through the local log processor and
//! the conformance service, on this module's rules and model. It reads the
//! transcript and the run's `Obs`, never its cloud: an audit makes no API
//! call and moves no clock.

use std::sync::{Arc, OnceLock};

use pod_log::{
    Boundary, LineRule, LogEvent, NoiseFilter, Pipeline, ProcessAnnotator, RuleBook, StoredLine,
    Trigger,
};
use pod_obs::Obs;
use pod_process::{ConformanceChecker, PetriNet, ProcessModel, ProcessModelBuilder};
use pod_regex::RegexSet;

use crate::executor::RecoveryRun;

/// The process id of the recovery operation.
pub const PROCESS_ID: &str = "recovery";

/// Activity names of the recovery process model.
pub mod steps {
    /// Recovery task started (operation boundary).
    pub const START: &str = "start-recovery";
    /// A plan was selected from the library (primary or fallback).
    pub const PLAN: &str = "select-recovery-plan";
    /// One plan step applied successfully.
    pub const STEP: &str = "apply-recovery-step";
    /// Closed-loop re-check of the failed assertions.
    pub const VERIFY: &str = "verify-recovery";
    /// Terminal: repaired and verified.
    pub const COMPLETED: &str = "recovery-completed";
    /// Terminal: handed to an operator.
    pub const ESCALATED: &str = "recovery-escalated";
}

/// Builds the recovery process model:
///
/// ```text
/// start → start-recovery → ⟨x⟩ → select-recovery-plan → ⟨loop⟩
///                            ↘ recovery-escalated (unmapped cause)
/// ⟨loop⟩ → apply-recovery-step → ⟨loop⟩           (next step)
/// ⟨loop⟩ → verify-recovery → ⟨out⟩
/// ⟨loop⟩ → recovery-escalated                     (step budget exhausted)
/// ⟨loop⟩ → select-recovery-plan                   (step failed, fallback)
/// ⟨out⟩  → recovery-completed | recovery-escalated | select-recovery-plan
/// ```
///
/// Every terminal run ends in exactly one of `recovery-completed` /
/// `recovery-escalated` — conformance checking rejects dropped runs.
fn recovery_model() -> ProcessModel {
    let mut b = ProcessModelBuilder::new(PROCESS_ID);
    let start = b.start();
    let t_start = b.task(steps::START);
    let g_start = b.exclusive_gateway();
    let t_plan = b.task(steps::PLAN);
    let g_loop = b.exclusive_gateway();
    let t_step = b.task(steps::STEP);
    let t_verify = b.task(steps::VERIFY);
    let g_out = b.exclusive_gateway();
    let t_completed = b.task(steps::COMPLETED);
    let t_escalated = b.task(steps::ESCALATED);
    let end = b.end();
    b.flow(start, t_start);
    b.flow(t_start, g_start);
    b.flow(g_start, t_plan);
    b.flow(g_start, t_escalated); // unmapped root cause
    b.flow(t_plan, g_loop);
    b.flow(g_loop, t_step);
    b.flow(t_step, g_loop); // step loop
    b.flow(g_loop, t_verify);
    b.flow(g_loop, t_escalated); // step budget exhausted, no fallback
    b.flow(g_loop, t_plan); // step budget exhausted, fallback → replan
    b.flow(t_verify, g_out);
    b.flow(g_out, t_completed); // re-check passed
    b.flow(g_out, t_escalated); // re-check failed, no fallback
    b.flow(g_out, t_plan); // re-check failed, fallback → replan
    b.flow(t_completed, end);
    b.flow(t_escalated, end);
    b.build().expect("the recovery model is valid")
}

/// Transformation rules matching the executor's log lines.
fn recovery_rules() -> RuleBook {
    let mut book = RuleBook::new();
    let mut rule = |activity: &str, boundary, patterns: &[&str]| {
        book.push(
            LineRule::new(activity, boundary, patterns).expect("recovery patterns are valid"),
        );
    };
    rule(
        steps::START,
        Boundary::Start,
        &[r"Started recovery task (?P<taskid>[\w-]+) for root cause (?P<cause>[\w-]+)"],
    );
    rule(
        steps::PLAN,
        Boundary::End,
        &[r"Selected recovery plan (?P<plan>[\w-]+) with \d+ step"],
    );
    rule(
        steps::STEP,
        Boundary::End,
        &[r"Applied recovery step (?P<step>[\w-]+): "],
    );
    rule(steps::VERIFY, Boundary::End, &[r"Re-checked \d+ assertion"]);
    rule(
        steps::COMPLETED,
        Boundary::End,
        &[r"Recovery task (?P<taskid>[\w-]+) completed"],
    );
    rule(
        steps::ESCALATED,
        Boundary::End,
        &[r"Recovery task (?P<taskid>[\w-]+) escalated to operator"],
    );
    book
}

/// Keep-patterns for the noise filter. Retry/abandon chatter from the
/// executor deliberately falls outside these.
fn relevance_patterns() -> Vec<&'static str> {
    vec![
        r"Started recovery task",
        r"Selected recovery plan",
        r"Applied recovery step",
        r"Re-checked \d+ assertion",
        r"Recovery task [\w-]+ completed",
        r"Recovery task [\w-]+ escalated",
    ]
}

/// Verdict of replaying one recovery run against its process model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceReport {
    /// The run followed the playbook: no conformance errors, and the trace
    /// reached the end event.
    pub fit: bool,
    /// Log events submitted to conformance checking.
    pub events: usize,
    /// Conformance errors (unfit / unclassified lines).
    pub errors: usize,
    /// Whether the trace reached a terminal activity.
    pub complete: bool,
}

/// Replays a finished recovery run against the recovery process model —
/// POD-Diagnosis monitoring its own repair: noise filter, annotator, then
/// token replay of each annotated step (a line no rule names is
/// unclassified). Counters land in `obs`. The relevance set, the indexed
/// rule book and the net are compiled once, by the first call.
pub fn conformance_check(obs: &Obs, run: &RecoveryRun) -> ConformanceReport {
    static COMPILED: OnceLock<(Arc<RegexSet>, Arc<RuleBook>, Arc<PetriNet>)> = OnceLock::new();
    let (keep, rules, net) = COMPILED.get_or_init(|| {
        let rules = recovery_rules();
        rules.build_index();
        let keep = RegexSet::new(&relevance_patterns()).expect("recovery patterns are valid");
        let net = PetriNet::compile(&recovery_model());
        (Arc::new(keep), Arc::new(rules), Arc::new(net))
    });
    let trace = run.task_id.as_str();
    let mut pipeline = Pipeline::on(obs);
    pipeline.add_stage(Box::new(NoiseFilter::keep(Arc::clone(keep))));
    let annotator = ProcessAnnotator::new(Arc::clone(rules), PROCESS_ID, trace);
    pipeline.add_stage(Box::new(annotator));
    let mut checker = ConformanceChecker::on(Arc::clone(net), obs);
    let (mut events, mut errors) = (0, 0);
    for line in &run.log {
        let out = pipeline.push(LogEvent::clone(line));
        for trigger in out.triggers {
            let Trigger::Conformance(event) = trigger else {
                continue;
            };
            // A non-fit verdict chains back to the line that caused it.
            let line = Arc::new(StoredLine::new(event, rules));
            let _scope = obs.scope_cause("log.line", line.clone());
            let verdict = match line.step() {
                Some(step) => checker.replay(trace, step),
                None => checker.record_error(trace, false),
            };
            events += 1;
            errors += usize::from(verdict.is_error());
        }
    }
    let complete = checker.is_complete(trace);
    ConformanceReport {
        fit: errors == 0 && complete,
        events,
        errors,
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fixtures, RecoveryExecutor};
    use pod_assert::{AssertionLibrary, ExpectedEnv};
    use pod_cloud::Cloud;
    use pod_core::{PodConfig, PodEngine, SharedEnv};
    use pod_faulttree::rolling_upgrade_repository;
    use pod_log::LogStorage;
    use pod_process::Conformance;
    use pod_sim::SimTime;
    use proptest::prelude::*;

    #[test]
    fn model_replays_the_recovered_arc() {
        let model = recovery_model();
        let mut checker = ConformanceChecker::new(&model);
        let trace = [
            steps::START,
            steps::PLAN,
            steps::STEP,
            steps::STEP,
            steps::STEP,
            steps::VERIFY,
            steps::COMPLETED,
        ];
        for act in trace {
            assert_eq!(checker.replay("t", act), Conformance::Fit, "at {act}");
        }
        assert!(checker.is_complete("t"));
    }

    #[test]
    fn model_replays_fallback_and_escalation_arcs() {
        let model = recovery_model();
        // Verification fails after the primary plan, the fallback plan's
        // step budget is exhausted, and the run escalates.
        let mut checker = ConformanceChecker::new(&model);
        let trace = [
            steps::START,
            steps::PLAN,
            steps::STEP,
            steps::VERIFY,
            steps::PLAN, // fallback after failed re-check
            steps::STEP,
            steps::ESCALATED,
        ];
        for act in trace {
            assert_eq!(checker.replay("t", act), Conformance::Fit, "at {act}");
        }
        assert!(checker.is_complete("t"));

        // Unmapped root cause: straight to escalation.
        let mut checker = ConformanceChecker::new(&model);
        for act in [steps::START, steps::ESCALATED] {
            assert_eq!(checker.replay("u", act), Conformance::Fit, "at {act}");
        }
        assert!(checker.is_complete("u"));
    }

    #[test]
    fn model_rejects_completion_without_verification() {
        let model = recovery_model();
        let mut checker = ConformanceChecker::new(&model);
        for act in [steps::START, steps::PLAN, steps::STEP] {
            checker.replay("t", act);
        }
        assert!(matches!(
            checker.replay("t", steps::COMPLETED),
            Conformance::Unfit { .. }
        ));
    }

    /// One executor line per activity, in [`steps`] order, both re-check
    /// outcomes included.
    const CANONICAL: [&str; 7] = [
        "Started recovery task run-1-r0 for root cause lc-wrong-ami: launch config uses wrong AMI",
        "Selected recovery plan rollback-launch-config with 3 step(s)",
        "Applied recovery step repair-launch-config: rolled launch configuration lc back",
        "Re-checked 2 assertion(s) after plan rollback-launch-config: all passed",
        "Re-checked 2 assertion(s) after plan rollback-launch-config: 1 still failing (asg-has-n-instances-with-version)",
        "Recovery task run-1-r0 completed; root cause lc-wrong-ami repaired",
        "Recovery task run-1-r0 escalated to operator: no recovery plan mapped for root cause concurrent-scale-in",
    ];
    const CHATTER: [&str; 2] = [
        "Recovery attempt 1 of step wait-asg-steady failed: timed out; backing off",
        "Recovery plan register-instance abandoned: step register-instance-with-elb \
         failed after 2 attempt(s): service unavailable",
    ];
    /// Relevant, as it starts like a task start, but matched by no rule.
    const UNMATCHED: &str = "Started recovery task x";

    #[test]
    fn rules_match_executor_lines() {
        use steps::*;
        let activities = [START, PLAN, STEP, VERIFY, VERIFY, COMPLETED, ESCALATED];
        for (line, want) in CANONICAL.into_iter().zip(activities) {
            let m = recovery_rules().match_line(line);
            let got = m.as_ref().map(|m| m.activity.as_str());
            assert_eq!(got, Some(want), "line: {line}");
        }
    }

    #[test]
    fn retry_chatter_is_noise() {
        let set = RegexSet::new(&relevance_patterns()).unwrap();
        for noise in CHATTER {
            assert!(set.first_match(noise).is_none(), "matched noise: {noise}");
        }
    }

    fn run_with(cloud: &Cloud, env: &ExpectedEnv, cause: &str) -> RecoveryRun {
        RecoveryExecutor::new(cloud.clone(), LogStorage::new())
            .recover(&fixtures::request(env, cause, None))
    }

    fn line(message: &str) -> LogEvent {
        LogEvent::new(SimTime::ZERO, "recovery.log", message)
    }

    #[test]
    fn an_audit_never_touches_the_cloud_it_audits() {
        let (cloud, env) = fixtures::wrong_ami(21);
        let mut run = run_with(&cloud, &env, "lc-wrong-ami");
        assert!(conformance_check(cloud.obs(), &run).fit);
        // Unfit twice over: completion without its re-check, and a line no
        // rule classifies.
        run.log.retain(|e| !e.message.starts_with("Re-checked"));
        run.log.push(Arc::new(line(UNMATCHED)));

        let calls = || cloud.obs().snapshot().counter("cloud.api.calls");
        let (now, api_calls) = (cloud.clock().now(), calls());
        let report = conformance_check(cloud.obs(), &run);
        let expected = ConformanceReport {
            fit: false,
            events: 7, // start, plan, three steps, completion, the stray line
            errors: 2,
            complete: false,
        };
        assert_eq!(report, expected);
        assert_eq!(cloud.clock().now(), now, "the audit moved the clock");
        assert_eq!(calls(), api_calls, "the audit called the cloud");
    }

    /// The reference: a whole engine on the recovery model, rules and
    /// relevance patterns, with no assertions and the rolling upgrade's
    /// trees, on a cloud of its own.
    fn engine_replay(lines: &[&str]) -> ConformanceReport {
        let bindings = AssertionLibrary::new();
        let trees = rolling_upgrade_repository(true);
        let mut config = PodConfig::new(recovery_model(), recovery_rules(), bindings, trees);
        config.relevance_patterns = relevance_patterns().into_iter().map(String::from).collect();
        let (cloud, env) = fixtures::cluster(7);
        let mut engine = PodEngine::new(cloud, LogStorage::new(), SharedEnv::new(env), config, "t")
            .expect("recovery patterns are valid");
        engine.ingest_batch(lines.iter().map(|m| line(m)));
        let s = engine.finish();
        ConformanceReport {
            fit: s.conformance_errors == 0 && s.trace_complete && s.detections.is_empty(),
            events: s.conformance_events,
            errors: s.conformance_errors,
            complete: s.trace_complete,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A prefix of the recovered arc, so fit and complete traces occur,
        /// then any mix of executor lines, chatter and the stray line: the
        /// replay and the engine agree on every count.
        #[test]
        fn the_replay_agrees_with_the_engine(
            prefix in 0usize..=5,
            tail in prop::collection::vec(
                prop::sample::select([&CANONICAL[..], &CHATTER, &[UNMATCHED]].concat()),
                0..6,
            ),
        ) {
            let arc = [0, 1, 2, 3, 5].map(|i| CANONICAL[i]);
            let lines: Vec<&str> = arc[..prefix].iter().copied().chain(tail).collect();
            let (cloud, env) = fixtures::cluster(3);
            let mut run = run_with(&cloud, &env, "concurrent-scale-in");
            run.log = lines.iter().map(|m| Arc::new(line(m))).collect();
            let replayed = conformance_check(cloud.obs(), &run);
            prop_assert_eq!(replayed, engine_replay(&lines), "{:?}", lines);
        }
    }
}
