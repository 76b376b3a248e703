//! The recovery dispatcher: the fast-path glue between the engine's
//! diagnosis hook and the executor. One dispatcher serves one operation
//! and owns its incidents.
//!
//! Two jobs, in incident order:
//!
//! 1. **Eager dispatch** — on a verdict carrying a mapped root cause it
//!    plans the repair from the library and executes it immediately,
//!    mid-operation, instead of waiting for the end-of-run sweep. Under a
//!    [`RecoveryStorm`] the repair first asks the shared lanes for a grant
//!    and charges the wait to this operation's clock; a shed repair is
//!    parked for the sweep. Diagnoses without an actionable
//!    repair (no root cause identified, or a confirmed-benign concurrent
//!    operation) are queued for operation-end review instead: at the
//!    sweep they get a step-less `confirm-resolved` plan that re-checks
//!    the triggering assertion — pass means the condition resolved itself
//!    (recovered without paging anyone), fail escalates to the operator.
//! 2. **Dedup** — eager dispatch and the end-of-run sweep race on the
//!    same incidents; a handled-set keyed by detection index guarantees
//!    exactly one recovery per diagnosed detection, so
//!    `attempted == recovered + escalated` survives the race.
//!
//! Every run is recorded with the [`RecoveryPath`] it took, fixed when it
//! is dispatched.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use pod_assert::{CloudAssertion, ExpectedEnv};
use pod_cloud::Cloud;
use pod_core::{Detection, SharedEnv};
use pod_log::LogStorage;
use pod_obs::Counter;
use pod_sim::SimDuration;

use crate::executor::{RecoveryExecutor, RecoveryRequest, RecoveryRun};
use crate::plan::RecoveryPlan;
use crate::storm::RecoveryStorm;

/// How a recovery run reached the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPath {
    /// Dispatched eagerly from the engine hook (through a storm lane, when
    /// there is a storm).
    Eager {
        /// Whether the shared API throttled the repair.
        throttled: bool,
    },
    /// Shed to the end-of-operation sweep by the storm's lane-wait cap, then
    /// executed on the quiet path — deferred, never dropped.
    DeferredSwept,
    /// A step-less review (or a sweep-discovered incident) that never
    /// contended for a lane.
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

/// The fast-path recovery dispatcher. Wire
/// [`RecoveryDispatcher::on_diagnosis`] into the `pod-core` engine's
/// `set_diagnosis_hook` for eager dispatch, then call
/// [`RecoveryDispatcher::sweep`] with the run's detections after the
/// operation ends — the sweep recovers anything the eager path did not
/// handle (or everything, when no hook was installed) and reviews the
/// deferred incidents. Collect results with
/// [`RecoveryDispatcher::take_records`].
#[derive(Debug)]
pub struct RecoveryDispatcher {
    executor: RecoveryExecutor,
    cloud: Cloud,
    env: SharedEnv,
    trace_id: String,
    /// The lanes shared with the other tenants of a storm; `None`: a
    /// repair never waits for one.
    storm: Option<Rc<RefCell<RecoveryStorm>>>,
    /// Detection indices already dispatched (the dedup set).
    handled: HashSet<usize>,
    /// Detection indices of diagnosed incidents without an actionable
    /// repair, queued for operation-end review.
    deferred: Vec<usize>,
    /// Detection indices whose repair the storm shed, parked for the sweep.
    parked: Vec<usize>,
    /// Finished runs.
    records: Vec<DispatchRecord>,
    /// Duplicate dispatches the handled-set absorbed.
    dedup: Counter,
}

impl RecoveryDispatcher {
    /// Builds a dispatcher executing repairs against `cloud` and logging
    /// to `storage`; with a `storm`, every eager repair needs one of its
    /// lanes.
    pub fn new(
        cloud: Cloud,
        storage: LogStorage,
        env: SharedEnv,
        trace_id: impl Into<String>,
        storm: Option<Rc<RefCell<RecoveryStorm>>>,
    ) -> RecoveryDispatcher {
        RecoveryDispatcher {
            executor: RecoveryExecutor::new(cloud.clone(), storage),
            dedup: cloud.obs().counter("recovery.dispatch.dedup"),
            cloud,
            env,
            trace_id: trace_id.into(),
            storm,
            handled: HashSet::new(),
            deferred: Vec::new(),
            parked: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Whether dispatching `detection` would execute an actual repair
    /// against the cloud API (its confirmed root cause is mapped in the
    /// plan library), as opposed to queueing a step-less operation-end
    /// review. Only such work contends for a storm lane.
    fn is_actionable(&self, detection: &Detection) -> bool {
        let (cause, _) = root_cause_of(detection);
        self.executor
            .library()
            .mapped_causes()
            .contains(&cause.as_str())
    }

    /// The engine-hook entry point: eager dispatch of detection
    /// `detection_index`'s verdict. Under a storm an actionable repair
    /// first needs a lane: the lane wait and the throttle penalty land on
    /// this operation's clock before the repair starts — that is where
    /// MTTR-under-load diverges from the quiet path — and a shed repair is
    /// parked for the sweep.
    pub fn on_diagnosis(&mut self, detection_index: usize, detection: &Detection) {
        let storm = match &self.storm {
            Some(storm) if self.is_actionable(detection) => Rc::clone(storm),
            _ => {
                let quiet = RecoveryPath::Eager { throttled: false };
                return self.dispatch(detection_index, detection, quiet);
            }
        };
        let Some(grant) = storm.borrow_mut().admit() else {
            self.parked.push(detection_index);
            return;
        };
        let start = self.cloud.clock().advance(grant.delay);
        let path = RecoveryPath::Eager {
            throttled: grant.throttled,
        };
        self.dispatch(detection_index, detection, path);
        let took = self.cloud.clock().now().duration_since(start);
        storm.borrow_mut().occupy(grant, took);
    }

    /// Dispatches one diagnosed detection exactly once (the dedup
    /// guarantee), recording the run under `path`. On an eager path an
    /// unmapped/none cause is deferred for review; at the sweep it is
    /// reviewed now.
    fn dispatch(&mut self, detection_index: usize, detection: &Detection, path: RecoveryPath) {
        if !self.handled.insert(detection_index) {
            self.dedup.incr();
            return;
        }
        if self.is_actionable(detection) {
            let (cause, description) = root_cause_of(detection);
            let req = self.request(detection_index, detection, &cause, &description);
            let mut run = self.executor.recover(&req);
            stamp_phases(&mut run, detection);
            self.records.push(DispatchRecord {
                detection_index,
                path,
                run,
            });
            return;
        }
        if let RecoveryPath::Eager { .. } = path {
            // Mid-operation: queue the incident for operation-end review.
            self.deferred.push(detection_index);
        } else {
            self.review(detection_index, detection, path);
        }
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
    fn review(&mut self, detection_index: usize, detection: &Detection, path: RecoveryPath) {
        let (cause, description) = root_cause_of(detection);
        let verify = if is_benign_cause(&cause) {
            vec![CloudAssertion::LaunchConfigInstancesConsistent]
        } else {
            vec![confirm_assertion(&detection.key, &self.env.snapshot())]
        };
        let plan = RecoveryPlan::confirm_resolved(verify);
        let req = self.request(detection_index, detection, &cause, &description);
        let mut run = self.executor.recover_with(&req, plan);
        stamp_phases(&mut run, detection);
        self.records.push(DispatchRecord {
            detection_index,
            path,
            run,
        });
    }

    /// The end-of-run sweep: recovers every diagnosed detection the eager
    /// path did not handle (all of them when no hook was installed, and
    /// every repair the storm shed), then reviews the deferred incidents.
    /// Dedup makes this idempotent with respect to the eager path.
    pub fn sweep(&mut self, detections: &[Detection]) {
        let parked = std::mem::take(&mut self.parked);
        if let Some(storm) = &self.storm {
            storm.borrow_mut().swept(parked.len());
        }
        for (i, d) in detections.iter().enumerate() {
            if d.diagnosis.is_none() {
                // Suppressed by the diagnosis cooldown — an identical
                // diagnosis just ran; nothing to recover.
                continue;
            }
            let path = if parked.contains(&i) {
                RecoveryPath::DeferredSwept
            } else {
                RecoveryPath::Review
            };
            self.dispatch(i, d, path);
        }
        for i in std::mem::take(&mut self.deferred) {
            self.review(i, &detections[i], RecoveryPath::Review);
        }
    }

    /// Drains the finished runs, ordered by detection index.
    pub fn take_records(&mut self) -> Vec<DispatchRecord> {
        let mut records = std::mem::take(&mut self.records);
        records.sort_by_key(|r| r.detection_index);
        records
    }

    fn request(
        &self,
        detection_index: usize,
        detection: &Detection,
        cause: &str,
        description: &str,
    ) -> RecoveryRequest {
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

/// The confirmed root cause of a diagnosed detection, or `("none", …)`
/// when the diagnosis excluded every candidate fault.
fn root_cause_of(detection: &Detection) -> (String, String) {
    detection
        .diagnosis
        .as_ref()
        .and_then(|report| report.root_causes.first())
        .map(|c| (c.node_id.clone(), c.description.clone()))
        .unwrap_or_else(|| ("none".to_string(), "no root cause identified".to_string()))
}

/// Fills the phase segments the executor cannot know: detection →
/// diagnosis start, the diagnosis itself, and the staging wait between the
/// verdict and the recovery start (the storm lane wait on the eager path,
/// zero without a storm; the whole sweep wait otherwise).
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

    /// Satellite (d): when the eager path and the end-of-run sweep race on
    /// the same incident, exactly one recovery runs, the duplicate is
    /// counted, and `attempted == recovered + escalated` holds.
    #[test]
    fn eager_and_sweep_dedup_to_one_recovery() {
        let (cloud, env) = wrong_ami(91);
        let shared = SharedEnv::new(env);
        let mut dispatcher =
            RecoveryDispatcher::new(cloud.clone(), LogStorage::new(), shared, "run-1", None);

        let detection = diagnosed(&cloud, "asg-launch-config-correct", Some("lc-wrong-ami"));
        dispatcher.on_diagnosis(0, &detection);
        // The sweep races on the same incident; dedup must absorb it.
        dispatcher.sweep(std::slice::from_ref(&detection));

        let records = dispatcher.take_records();
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
        assert_eq!(cloud.obs().counter("recovery.dispatch.dedup").get(), 1);
    }

    /// An incident without an actionable repair is deferred on the eager
    /// path and reviewed (not repaired) at the sweep.
    #[test]
    fn unmapped_diagnosis_defers_to_operation_end_review() {
        let (cloud, env) = cluster(92);
        let shared = SharedEnv::new(env);
        let mut dispatcher =
            RecoveryDispatcher::new(cloud.clone(), LogStorage::new(), shared, "run-2", None);

        let detection = diagnosed(&cloud, "asg-desired-capacity", Some("concurrent-scale-in"));
        dispatcher.on_diagnosis(0, &detection);
        assert!(dispatcher.take_records().is_empty(), "deferred, not run");

        dispatcher.sweep(std::slice::from_ref(&detection));
        let records = dispatcher.take_records();
        assert_eq!(records.len(), 1);
        let run = &records[0].run;
        assert_eq!(run.plans_tried, vec!["confirm-resolved"]);
        assert_eq!(records[0].path, RecoveryPath::Review);
        // The desired-capacity expectation (2) is met by the healthy group,
        // so the review confirms the incident resolved itself.
        assert_eq!(run.outcome, crate::RecoveryOutcome::Recovered);
        assert_eq!(cloud.obs().counter("recovery.dispatch.dedup").get(), 1);
    }
}
