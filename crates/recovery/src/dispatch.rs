//! The recovery dispatcher: the glue between the engine's diagnosis hook
//! and the executor. One dispatcher serves one operation and owns its
//! incidents.
//!
//! A verdict reaches it once, through [`RecoveryDispatcher::on_diagnosis`],
//! which decides once what the verdict needs:
//!
//! * a **mapped root cause** is repaired at once, mid-operation, with the
//!   plan from the library. Under a [`RecoveryStorm`] the repair first
//!   asks the shared lanes for a grant and charges the wait to this
//!   operation's clock; a repair the storm sheds is parked for
//!   [`RecoveryDispatcher::finish`], which runs it on the quiet path
//!   after the operation ends.
//! * anything else (no root cause identified, or a confirmed-benign
//!   concurrent operation) is deferred to `finish`, which gives it a
//!   step-less `confirm-resolved` plan that re-checks the triggering
//!   assertion: pass means the condition resolved itself (recovered
//!   without paging anyone), fail escalates to the operator.
//!
//! Exactly one run per diagnosed detection rests on the engine's
//! guarantee that every diagnosed detection reaches its diagnosis hook
//! once, in ascending index order; the dispatcher keeps no set of its own.
//! Every run is recorded with the [`RecoveryPath`] it took.

use std::cell::RefCell;
use std::rc::Rc;

use pod_assert::{CloudAssertion, ExpectedEnv};
use pod_cloud::Cloud;
use pod_core::{Detection, SharedEnv};
use pod_log::LogStorage;
use pod_sim::SimDuration;

use crate::executor::{RecoveryExecutor, RecoveryRequest, RecoveryRun};
use crate::plan::RecoveryPlan;
use crate::storm::RecoveryStorm;

/// How a recovery run reached the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPath {
    /// Repaired at its verdict, from the engine hook (through a storm
    /// lane, when there is a storm).
    Eager {
        /// Whether the shared API throttled the repair.
        throttled: bool,
    },
    /// Shed by the storm's lane-wait cap, then executed on the quiet path
    /// after the operation ended — deferred, never dropped.
    DeferredSwept,
    /// A step-less operation-end review that never contended for a lane.
    Review,
}

impl RecoveryPath {
    /// Canonical tag for transcripts and journals.
    pub fn tag(&self) -> &'static str {
        match self {
            RecoveryPath::Eager { throttled: true } => "eager-throttled",
            RecoveryPath::Eager { throttled: false } => "eager",
            RecoveryPath::DeferredSwept => "deferred-swept",
            RecoveryPath::Review => "review",
        }
    }
}

/// One finished recovery run, tagged with its detection index and the
/// path it took.
#[derive(Debug, Clone)]
pub struct DispatchRecord {
    /// The detection index within the operation's run.
    pub detection_index: usize,
    /// How the run reached the executor.
    pub path: RecoveryPath,
    /// The full recovery run.
    pub run: RecoveryRun,
}

/// The recovery dispatcher. Wire [`RecoveryDispatcher::on_diagnosis`] into
/// the `pod-core` engine's `set_diagnosis_hook`, then call
/// [`RecoveryDispatcher::finish`] with the run's detections after the
/// operation ends: it runs what the storm parked, reviews the deferred
/// incidents and returns every run.
#[derive(Debug)]
pub struct RecoveryDispatcher {
    executor: RecoveryExecutor,
    cloud: Cloud,
    env: SharedEnv,
    trace_id: String,
    /// The lanes shared with the other tenants of a storm; `None`: a
    /// repair never waits for one.
    storm: Option<Rc<RefCell<RecoveryStorm>>>,
    /// Detection indices of diagnosed incidents without an actionable
    /// repair, queued for operation-end review.
    deferred: Vec<usize>,
    /// Detection indices whose repair the storm shed, parked for `finish`.
    parked: Vec<usize>,
    /// Finished runs.
    records: Vec<DispatchRecord>,
}

impl RecoveryDispatcher {
    /// Builds a dispatcher executing repairs against `cloud` and logging
    /// to `storage`; with a `storm`, every repair at a verdict needs one of
    /// its lanes.
    pub fn new(
        cloud: Cloud,
        storage: LogStorage,
        env: SharedEnv,
        trace_id: impl Into<String>,
        storm: Option<Rc<RefCell<RecoveryStorm>>>,
    ) -> RecoveryDispatcher {
        RecoveryDispatcher {
            executor: RecoveryExecutor::new(cloud.clone(), storage),
            cloud,
            env,
            trace_id: trace_id.into(),
            storm,
            deferred: Vec::new(),
            parked: Vec::new(),
            records: Vec::new(),
        }
    }

    /// The engine-hook entry point for detection `detection_index`'s
    /// verdict. A verdict whose root cause the plan library maps is
    /// repaired now; any other is deferred for operation-end review. Under
    /// a storm the repair first needs a lane: the lane wait and the
    /// throttle penalty land on this operation's clock before the repair
    /// starts — that is where MTTR-under-load diverges from the quiet path
    /// — and a shed repair is parked for [`RecoveryDispatcher::finish`].
    /// Only repairs contend for a lane.
    pub fn on_diagnosis(&mut self, detection_index: usize, detection: &Detection) {
        let (cause, _) = root_cause_of(detection);
        if !self.executor.library().mapped_causes().contains(&cause) {
            self.deferred.push(detection_index);
            return;
        }
        let Some(storm) = self.storm.clone() else {
            let quiet = RecoveryPath::Eager { throttled: false };
            return self.repair(detection_index, detection, quiet);
        };
        let Some(grant) = storm.borrow_mut().admit() else {
            self.parked.push(detection_index);
            return;
        };
        let start = self.cloud.clock().advance(grant.delay);
        let path = RecoveryPath::Eager {
            throttled: grant.throttled,
        };
        self.repair(detection_index, detection, path);
        let took = self.cloud.clock().now().duration_since(start);
        storm.borrow_mut().occupy(grant, took);
    }

    /// Runs the library's plan for a detection with a mapped root cause,
    /// recording the run under `path`.
    fn repair(&mut self, detection_index: usize, detection: &Detection, path: RecoveryPath) {
        let req = self.request(detection_index, detection);
        let run = self.executor.recover(&req);
        self.record(detection_index, detection, path, run);
    }

    /// Operation-end review of an incident without an actionable repair.
    ///
    /// Two cases, by what the diagnosis concluded:
    ///
    /// * **Confirmed-benign cause** (a concurrent operation by another
    ///   team, or shared-account capacity pressure): the incident is
    ///   explained — there is no fault, and the operation's own outcome
    ///   channel already reports whether the upgrade itself succeeded.
    ///   The review only confirms the interference masks no real
    ///   corruption (every instance from the operation's launch
    ///   configuration is consistent); paging an operator for another
    ///   team's acknowledged scale-in would be a false page.
    /// * **No cause identified**: re-check the assertion that raised the
    ///   incident. Passing means the condition resolved itself (a
    ///   transient) — recovered without paging anyone; still failing
    ///   escalates, because an unexplained, persistent violation needs a
    ///   human.
    fn review(&mut self, detection_index: usize, detection: &Detection) {
        let verify = if is_benign_cause(root_cause_of(detection).0) {
            vec![CloudAssertion::LaunchConfigInstancesConsistent]
        } else {
            vec![confirm_assertion(detection.key, &self.env.snapshot())]
        };
        let plan = RecoveryPlan::confirm_resolved(verify);
        let req = self.request(detection_index, detection);
        let run = self.executor.recover_with(&req, plan);
        self.record(detection_index, detection, RecoveryPath::Review, run);
    }

    fn record(
        &mut self,
        detection_index: usize,
        detection: &Detection,
        path: RecoveryPath,
        mut run: RecoveryRun,
    ) {
        stamp_phases(&mut run, detection);
        self.records.push(DispatchRecord {
            detection_index,
            path,
            run,
        });
    }

    /// Ends the operation's recovery: runs the repairs the storm parked
    /// (in detection order, after reporting them to the storm as swept),
    /// then reviews the deferred incidents (in the order their verdicts
    /// arrived), and returns every run, ordered by detection index.
    pub fn finish(&mut self, detections: &[Detection]) -> Vec<DispatchRecord> {
        let parked = std::mem::take(&mut self.parked);
        if let Some(storm) = &self.storm {
            storm.borrow_mut().swept(parked.len());
        }
        for i in parked {
            self.repair(i, &detections[i], RecoveryPath::DeferredSwept);
        }
        for i in std::mem::take(&mut self.deferred) {
            self.review(i, &detections[i]);
        }
        let mut records = std::mem::take(&mut self.records);
        records.sort_by_key(|r| r.detection_index);
        records
    }

    fn request(&self, detection_index: usize, detection: &Detection) -> RecoveryRequest {
        let (cause, description) = root_cause_of(detection);
        RecoveryRequest {
            task_id: format!("{}-r{}", self.trace_id, detection_index),
            root_cause: cause.to_string(),
            description: description.to_string(),
            detected_at: detection.at,
            instance: detection.instance.clone(),
            env: ExpectedEnv::clone(&self.env.snapshot()),
            parent_event: detection.event,
        }
    }
}

/// Whether a diagnosed root cause is a confirmed-benign one: a legitimate
/// operation by someone else, not a fault in this operation's domain.
/// These node ids come from `pod_faulttree::library`'s interference
/// branches and are deliberately unmapped in the plan library.
fn is_benign_cause(cause: &str) -> bool {
    matches!(
        cause,
        "concurrent-scale-in" | "concurrent-capacity-change" | "instance-limit-reached"
    )
}

/// The confirmed root cause of a diagnosed detection and its description,
/// or `"none"` when the diagnosis excluded every candidate fault.
fn root_cause_of(detection: &Detection) -> (&str, &str) {
    detection
        .diagnosis
        .as_ref()
        .and_then(|report| report.root_causes.first())
        .map_or(("none", "no root cause identified"), |c| {
            (c.node_id.as_str(), c.description.as_str())
        })
}

/// Fills the phase segments the executor cannot know: detection →
/// diagnosis start, the diagnosis itself, and the staging wait between the
/// verdict and the recovery start (the storm lane wait at the verdict,
/// zero without a storm; the whole wait until `finish` otherwise).
fn stamp_phases(run: &mut RecoveryRun, detection: &Detection) {
    if let Some(report) = &detection.diagnosis {
        run.phases.detection = report.started_at.duration_since(detection.at);
        run.phases.diagnosis = report.duration;
        let verdict_at = report.started_at + report.duration;
        run.phases.staging = run.started_at.duration_since(verdict_at);
    } else {
        run.phases.detection = run.started_at.duration_since(detection.at);
        run.phases.diagnosis = SimDuration::ZERO;
    }
}

/// Maps a detection's fault-tree key back to the assertion the
/// operation-end review re-checks.
fn confirm_assertion(key: &str, env: &ExpectedEnv) -> CloudAssertion {
    match key {
        "asg-desired-capacity" => CloudAssertion::AsgDesiredCapacity {
            count: env.expected_count,
        },
        "asg-active-count-at-least" => CloudAssertion::AsgActiveCountAtLeast {
            count: env.expected_count,
        },
        "asg-instance-count" => CloudAssertion::AsgInstanceCount {
            count: env.expected_count,
        },
        "asg-launch-config-correct" => CloudAssertion::AsgLaunchConfigCorrect,
        "launch-config-instances-consistent" => CloudAssertion::LaunchConfigInstancesConsistent,
        "ami-available" => CloudAssertion::AmiAvailable,
        "key-pair-available" => CloudAssertion::KeyPairAvailable,
        "security-group-available" => CloudAssertion::SecurityGroupAvailable,
        "elb-available" => CloudAssertion::ElbAvailable,
        // The master-tree key and anything unrecognised: the paper's
        // flagship whole-system assertion.
        _ => CloudAssertion::AsgHasInstancesWithVersion {
            count: env.expected_count,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{cluster, diagnosed, wrong_ami};
    use crate::storm::StormConfig;
    use pod_obs::Obs;
    use pod_sim::Clock;

    /// A verdict with a mapped root cause is repaired at the verdict,
    /// once, and `attempted == recovered + escalated` holds.
    #[test]
    fn an_actionable_verdict_is_repaired_at_its_verdict() {
        let (cloud, env) = wrong_ami(91);
        let shared = SharedEnv::new(env);
        let mut dispatcher =
            RecoveryDispatcher::new(cloud.clone(), LogStorage::new(), shared, "run-1", None);

        let detection = diagnosed(&cloud, "asg-launch-config-correct", Some("lc-wrong-ami"));
        dispatcher.on_diagnosis(0, &detection);

        let records = dispatcher.finish(std::slice::from_ref(&detection));
        assert_eq!(records.len(), 1, "exactly one recovery per incident");
        let DispatchRecord {
            detection_index,
            path,
            run,
        } = &records[0];
        assert_eq!(*detection_index, 0);
        let recovered = (run.outcome == crate::RecoveryOutcome::Recovered) as usize;
        let escalated = matches!(run.outcome, crate::RecoveryOutcome::Escalated { .. }) as usize;
        assert_eq!(records.len(), recovered + escalated);
        assert_eq!(run.outcome, crate::RecoveryOutcome::Recovered);
        assert_eq!(
            *path,
            RecoveryPath::Eager { throttled: false },
            "no storm: the eager path is never throttled"
        );
        // …and never waits: no lane delay lands on the clock first, and the
        // plan comes straight from the library.
        assert_eq!(run.started_at, detection.at);
        assert_eq!(run.phases.staging, SimDuration::ZERO);
        assert_eq!(run.plans_tried, vec!["rollback-launch-config"]);
    }

    /// An incident without an actionable repair is deferred at its
    /// verdict and reviewed (not repaired) when the operation ends.
    #[test]
    fn unmapped_diagnosis_defers_to_operation_end_review() {
        let (cloud, env) = cluster(92);
        let shared = SharedEnv::new(env);
        let mut dispatcher =
            RecoveryDispatcher::new(cloud.clone(), LogStorage::new(), shared, "run-2", None);

        let detection = diagnosed(&cloud, "asg-desired-capacity", Some("concurrent-scale-in"));
        dispatcher.on_diagnosis(0, &detection);
        assert!(dispatcher.records.is_empty(), "deferred, not run");

        let records = dispatcher.finish(std::slice::from_ref(&detection));
        assert_eq!(records.len(), 1);
        let run = &records[0].run;
        assert_eq!(run.plans_tried, vec!["confirm-resolved"]);
        assert_eq!(records[0].path, RecoveryPath::Review);
        // The desired-capacity expectation (2) is met by the healthy group,
        // so the review confirms the incident resolved itself.
        assert_eq!(run.outcome, crate::RecoveryOutcome::Recovered);
    }

    /// Under a one-lane storm that sheds every wait, `finish` owes one run
    /// per diagnosed detection: the repair the storm parked, the deferred
    /// review and the one repaired at its verdict, in detection order.
    #[test]
    fn finish_runs_the_parked_repairs_and_the_deferred_reviews() {
        let clock = Clock::new();
        let config = StormConfig {
            lanes: 1,
            max_lane_wait: SimDuration::ZERO,
            throttle_at: 8,
            ..StormConfig::default()
        };
        let storm = RecoveryStorm::new(&Obs::new(clock.clone()), clock, config);
        let storm = Rc::new(RefCell::new(storm));
        let (cloud, env) = wrong_ami(93);
        let shared = SharedEnv::new(env);
        let storage = LogStorage::new();
        let mut dispatcher =
            RecoveryDispatcher::new(cloud.clone(), storage, shared, "run-3", Some(storm.clone()));

        let mut undiagnosed = diagnosed(&cloud, "asg-desired-capacity", None);
        undiagnosed.diagnosis = None;
        let detections = [
            diagnosed(&cloud, "asg-launch-config-correct", Some("lc-wrong-ami")),
            undiagnosed,
            diagnosed(&cloud, "asg-desired-capacity", Some("concurrent-scale-in")),
            diagnosed(&cloud, "asg-launch-config-correct", Some("lc-wrong-ami")),
        ];
        for (i, d) in detections.iter().enumerate() {
            if d.diagnosis.is_some() {
                dispatcher.on_diagnosis(i, d);
            }
        }
        assert_eq!(dispatcher.parked, [3], "the lane is busy: shed");
        assert_eq!(dispatcher.deferred, [2]);

        let records = dispatcher.finish(&detections);
        let shape: Vec<_> = records
            .iter()
            .map(|r| (r.detection_index, r.path, r.run.task_id.as_str()))
            .collect();
        assert_eq!(
            shape,
            [
                (0, RecoveryPath::Eager { throttled: false }, "run-3-r0"),
                (2, RecoveryPath::Review, "run-3-r2"),
                (3, RecoveryPath::DeferredSwept, "run-3-r3"),
            ]
        );
        assert_eq!(records[2].run.plans_tried, vec!["rollback-launch-config"]);
        let s = storm.borrow().stats();
        assert_eq!((s.requests, s.deferred), (2, 1));
        assert_eq!(s.swept, s.deferred);
        assert!(
            dispatcher.finish(&detections).is_empty(),
            "nothing owed twice"
        );
    }
}
