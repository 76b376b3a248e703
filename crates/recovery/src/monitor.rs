//! Self-monitoring of the recovery loop: recovery operations are
//! themselves sporadic operations, so each run is conformance-checked
//! against its own process model, exactly like the rolling upgrade it
//! repairs.
//!
//! The executor emits Asgard-style log lines ([`crate::RecoveryRun::log`]);
//! this module provides the process model, the transformation rules and a
//! ready-made [`pod_core::PodConfig`] so a fresh `PodEngine` can replay a
//! run and vouch that the repair followed its playbook.

use std::sync::{Arc, OnceLock};

use pod_assert::AssertionLibrary;
use pod_cloud::Cloud;
use pod_core::{CompiledPod, PodConfig, PodEngine, SharedEnv};
use pod_log::{Boundary, LineRule, RuleBook};
use pod_process::{ProcessModel, ProcessModelBuilder};
use pod_sim::SimDuration;

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
pub fn recovery_model() -> ProcessModel {
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
pub fn recovery_rules() -> RuleBook {
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
pub fn relevance_patterns() -> Vec<&'static str> {
    vec![
        r"Started recovery task",
        r"Selected recovery plan",
        r"Applied recovery step",
        r"Re-checked \d+ assertion",
        r"Recovery task [\w-]+ completed",
        r"Recovery task [\w-]+ escalated",
    ]
}

/// A [`PodConfig`] for conformance-checking recovery runs. Timers are
/// effectively disabled (a recovery replay is a post-hoc audit, not live
/// detection) and diagnosis dispatch is immediate.
pub fn recovery_pod_config() -> PodConfig {
    let mut config = PodConfig::new(
        recovery_model(),
        recovery_rules(),
        AssertionLibrary::new(),
        pod_faulttree::rolling_upgrade_repository(true),
    );
    config.relevance_patterns = relevance_patterns().into_iter().map(String::from).collect();
    config.operation_start_pattern = r"Started recovery task".to_string();
    config.operation_end_pattern = r"Recovery task [\w-]+ (completed|escalated)".to_string();
    config.step_timeout = SimDuration::from_secs(86_400);
    config.periodic_interval = SimDuration::from_secs(86_400);
    config.diagnosis_dispatch_delay = SimDuration::ZERO;
    config
}

/// Verdict of replaying one recovery run against its process model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceReport {
    /// The run followed the playbook: no conformance errors, no
    /// detections, and the trace reached the end event.
    pub fit: bool,
    /// Log events submitted to conformance checking.
    pub events: usize,
    /// Conformance errors (unfit / unclassified lines).
    pub errors: usize,
    /// Whether the trace reached a terminal activity.
    pub complete: bool,
}

/// Replays a finished recovery run through a fresh `PodEngine` against the
/// recovery process model — POD-Diagnosis monitoring its own repair. The
/// engine is per run; [`recovery_pod_config`] is compiled by the first call
/// and shared by every later one.
pub fn conformance_check(cloud: &Cloud, run: &RecoveryRun) -> ConformanceReport {
    static COMPILED: OnceLock<Arc<CompiledPod>> = OnceLock::new();
    let pod = COMPILED.get_or_init(|| {
        recovery_pod_config()
            .compile()
            .expect("recovery monitor patterns are valid")
    });
    let mut engine = PodEngine::from_compiled(
        pod,
        cloud.clone(),
        pod_log::LogStorage::new(),
        SharedEnv::new(run.env.clone()),
        run.task_id.clone(),
        // `PodConfig`'s default seed: every audit draws the same overheads.
        0,
    );
    engine.ingest_batch(run.log.iter().cloned());
    let summary = engine.finish();
    ConformanceReport {
        fit: summary.conformance_errors == 0
            && summary.trace_complete
            && summary.detections.is_empty(),
        events: summary.conformance_events,
        errors: summary.conformance_errors,
        complete: summary.trace_complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_process::{Conformance, ConformanceChecker};

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

    #[test]
    fn rules_match_executor_lines() {
        let rules = recovery_rules();
        let cases = [
            (
                "Started recovery task run-1-r0 for root cause lc-wrong-ami: launch config uses wrong AMI",
                steps::START,
            ),
            (
                "Selected recovery plan rollback-launch-config with 3 step(s)",
                steps::PLAN,
            ),
            (
                "Applied recovery step repair-launch-config: rolled launch configuration lc back",
                steps::STEP,
            ),
            (
                "Re-checked 2 assertion(s) after plan rollback-launch-config: all passed",
                steps::VERIFY,
            ),
            (
                "Re-checked 2 assertion(s) after plan rollback-launch-config: 1 still failing (asg-has-n-instances-with-version)",
                steps::VERIFY,
            ),
            (
                "Recovery task run-1-r0 completed; root cause lc-wrong-ami repaired",
                steps::COMPLETED,
            ),
            (
                "Recovery task run-1-r0 escalated to operator: no recovery plan mapped for root cause concurrent-scale-in",
                steps::ESCALATED,
            ),
        ];
        for (line, want) in cases {
            let m = rules.match_line(line);
            assert_eq!(
                m.as_ref().map(|m| m.activity.as_str()),
                Some(want),
                "line: {line}"
            );
        }
    }

    #[test]
    fn retry_chatter_is_noise() {
        let set = pod_regex::RegexSet::new(&relevance_patterns()).unwrap();
        for noise in [
            "Recovery attempt 1 of step wait-asg-steady failed: timed out; backing off",
            "Recovery plan register-instance abandoned: step register-instance-with-elb \
             failed after 2 attempt(s): service unavailable",
        ] {
            assert!(set.first_match(noise).is_none(), "matched noise: {noise}");
        }
        let op_end = pod_regex::Regex::new(&recovery_pod_config().operation_end_pattern).unwrap();
        assert!(op_end.is_match("Recovery task r-1 completed; root cause x repaired"));
        assert!(op_end.is_match("Recovery task r-1 escalated to operator: y"));
    }
}
