//! The recovery dispatcher: the fast-path glue between the engine's
//! detection hook and the executor. One dispatcher serves one operation
//! and owns its incidents.
//!
//! Three jobs, in incident order:
//!
//! 1. **Speculative pre-staging** — on a `Detected` notice it instantiates
//!    the plans of every still-plausible mapped root cause, so when the
//!    fault-tree walk confirms one, the winning plan starts with zero
//!    staging latency. Speculation is accounted for honestly in the
//!    `recovery.prestage.{staged,hit,waste,miss}` metrics.
//! 2. **Eager dispatch** — on a `Diagnosed` notice carrying a mapped root
//!    cause it executes the repair immediately, mid-operation, instead of
//!    waiting for the end-of-run sweep. Under a [`RecoveryStorm`] the
//!    repair first asks the shared lanes for a grant and charges the wait
//!    to this operation's clock; a shed repair is parked, its staged plans
//!    kept, for the sweep. Diagnoses without an actionable
//!    repair (no root cause identified, or a confirmed-benign concurrent
//!    operation) are queued for operation-end review instead: at the
//!    sweep they get a step-less `confirm-resolved` plan that re-checks
//!    the triggering assertion — pass means the condition resolved itself
//!    (recovered without paging anyone), fail escalates to the operator.
//! 3. **Dedup** — eager dispatch and the end-of-run sweep race on the
//!    same incidents; a handled-set keyed by detection index guarantees
//!    exactly one recovery per diagnosed detection, so
//!    `attempted == recovered + escalated` survives the race.
//!
//! Every run is recorded with the [`RecoveryPath`] it took, fixed when it
//! is dispatched.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use pod_assert::{CloudAssertion, ExpectedEnv};
use pod_cloud::Cloud;
use pod_core::{Detection, EngineNotice, SharedEnv};
use pod_log::LogStorage;
use pod_obs::{Counter, Gauge};
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

/// Cached handles for the dispatcher's own metrics.
#[derive(Debug, Clone)]
struct DispatchMetrics {
    prestage_staged: Counter,
    prestage_hit: Counter,
    prestage_waste: Counter,
    prestage_miss: Counter,
    dedup: Counter,
    queue_depth: Gauge,
}

impl DispatchMetrics {
    fn new(cloud: &Cloud) -> DispatchMetrics {
        let obs = cloud.obs();
        DispatchMetrics {
            prestage_staged: obs.counter("recovery.prestage.staged"),
            prestage_hit: obs.counter("recovery.prestage.hit"),
            prestage_waste: obs.counter("recovery.prestage.waste"),
            prestage_miss: obs.counter("recovery.prestage.miss"),
            dedup: obs.counter("recovery.dispatch.dedup"),
            queue_depth: obs.gauge("recovery.queue.depth"),
        }
    }
}

/// The fast-path recovery dispatcher. Wire [`RecoveryDispatcher::on_notice`]
/// into the `pod-core` engine's `set_detection_hook` for eager dispatch,
/// then call [`RecoveryDispatcher::sweep`] with the run's detections after
/// the operation ends — the sweep recovers anything the eager path did not
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
    /// Pre-staged plans per detection index, by the cause each repairs,
    /// awaiting the verdict.
    staged: HashMap<usize, Vec<(String, RecoveryPlan)>>,
    /// Detection indices already dispatched (the dedup set).
    handled: HashSet<usize>,
    /// Detection indices of diagnosed incidents without an actionable
    /// repair, queued for operation-end review.
    deferred: Vec<usize>,
    /// Detection indices whose repair the storm shed, parked for the sweep.
    parked: Vec<usize>,
    /// Finished runs.
    records: Vec<DispatchRecord>,
    metrics: DispatchMetrics,
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
            metrics: DispatchMetrics::new(&cloud),
            cloud,
            env,
            trace_id: trace_id.into(),
            storm,
            staged: HashMap::new(),
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

    /// The engine-hook entry point: pre-stages plans on `Detected`,
    /// dispatches eagerly on `Diagnosed`.
    pub fn on_notice(&mut self, notice: &EngineNotice) {
        match notice {
            EngineNotice::Detected {
                detection_index,
                instance,
                dispatched,
                candidates,
            } => {
                if *dispatched {
                    self.prestage(*detection_index, candidates, instance.as_ref());
                }
            }
            EngineNotice::Diagnosed {
                detection_index,
                detection,
            } => self.diagnosed(*detection_index, detection),
        }
    }

    /// Eager dispatch of a verdict. Under a storm an actionable repair
    /// first needs a lane: the lane wait and the throttle penalty land on
    /// this operation's clock before the repair starts — that is where
    /// MTTR-under-load diverges from the quiet path — and a shed repair is
    /// parked for the sweep.
    fn diagnosed(&mut self, detection_index: usize, detection: &Detection) {
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

    /// Speculatively stages the plans of every mapped candidate cause
    /// while the diagnosis is still walking the tree.
    fn prestage(
        &mut self,
        detection_index: usize,
        candidates: &[String],
        instance: Option<&pod_cloud::InstanceId>,
    ) {
        let library = self.executor.library();
        let plans: Vec<(String, RecoveryPlan)> = candidates
            .iter()
            .filter_map(|cause| {
                let plan = library.plan_for(cause, instance)?;
                Some((cause.clone(), plan))
            })
            .collect();
        if !plans.is_empty() {
            self.metrics.prestage_staged.add(plans.len() as u64);
            self.staged.insert(detection_index, plans);
            self.update_queue_depth();
        }
    }

    /// Dispatches one diagnosed detection exactly once (the dedup
    /// guarantee), recording the run under `path`. On an eager path an
    /// unmapped/none cause is deferred for review; at the sweep it is
    /// reviewed now.
    fn dispatch(&mut self, detection_index: usize, detection: &Detection, path: RecoveryPath) {
        if !self.handled.insert(detection_index) {
            self.metrics.dedup.incr();
            return;
        }
        let staged = self.staged.remove(&detection_index);
        self.update_queue_depth();
        let (cause, description) = root_cause_of(detection);

        if self.is_actionable(detection) {
            // Prestage accounting: a hit uses the staged plan verbatim;
            // everything staged for the losing candidates was wasted work.
            let mut prepared = None;
            if let Some(mut plans) = staged {
                match plans.iter().position(|(c, _)| *c == cause) {
                    Some(i) => {
                        self.metrics.prestage_hit.incr();
                        self.metrics
                            .prestage_waste
                            .add(plans.len().saturating_sub(1) as u64);
                        prepared = Some(plans.swap_remove(i).1);
                    }
                    None => {
                        self.metrics.prestage_miss.incr();
                        self.metrics.prestage_waste.add(plans.len() as u64);
                    }
                }
            }
            let req = self.request(detection_index, detection, &cause, &description);
            let mut run = self.executor.recover_prepared(&req, prepared);
            stamp_phases(&mut run, detection);
            self.records.push(DispatchRecord {
                detection_index,
                path,
                run,
            });
            return;
        }
        // No actionable repair: everything staged was speculative waste.
        if let Some(plans) = staged {
            self.metrics.prestage_miss.incr();
            self.metrics.prestage_waste.add(plans.len() as u64);
        }
        if let RecoveryPath::Eager { .. } = path {
            // Mid-operation: queue the incident for operation-end review.
            self.deferred.push(detection_index);
            self.update_queue_depth();
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
        self.update_queue_depth();
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

    fn update_queue_depth(&self) {
        self.metrics
            .queue_depth
            .set((self.staged.len() + self.deferred.len()) as i64);
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

/// Fills the detection/diagnosis/staging-wait phase segments the executor
/// cannot know: detection → diagnosis start, the diagnosis itself, and any
/// gap between the verdict and the recovery start (zero on the eager path;
/// the whole sweep wait otherwise).
fn stamp_phases(run: &mut RecoveryRun, detection: &Detection) {
    if let Some(report) = &detection.diagnosis {
        run.phases.detection = report.started_at.duration_since(detection.at);
        run.phases.diagnosis = report.duration;
        let verdict_at = report.started_at + report.duration;
        run.phases.staging += run.started_at.duration_since(verdict_at);
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
        dispatcher.on_notice(&EngineNotice::Detected {
            detection_index: 0,
            instance: None,
            dispatched: true,
            candidates: vec!["lc-wrong-ami".to_string(), "ami-unavailable".to_string()],
        });
        dispatcher.on_notice(&EngineNotice::Diagnosed {
            detection_index: 0,
            detection: detection.clone(),
        });
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
        // …and never waits: no lane delay lands on the clock first.
        assert_eq!(run.started_at, detection.at);

        let obs = cloud.obs();
        assert_eq!(obs.counter("recovery.dispatch.dedup").get(), 1);
        assert_eq!(obs.counter("recovery.prestage.staged").get(), 2);
        assert_eq!(obs.counter("recovery.prestage.hit").get(), 1);
        assert_eq!(obs.counter("recovery.prestage.waste").get(), 1);
        assert_eq!(obs.gauge("recovery.queue.depth").get(), 0);
    }

    /// An eager prestage whose incident is ultimately unrepairable is all
    /// waste, and the incident is reviewed (not repaired) at the sweep.
    #[test]
    fn unmapped_diagnosis_defers_to_operation_end_review() {
        let (cloud, env) = cluster(92);
        let shared = SharedEnv::new(env);
        let mut dispatcher =
            RecoveryDispatcher::new(cloud.clone(), LogStorage::new(), shared, "run-2", None);

        let detection = diagnosed(&cloud, "asg-desired-capacity", Some("concurrent-scale-in"));
        dispatcher.on_notice(&EngineNotice::Diagnosed {
            detection_index: 0,
            detection: detection.clone(),
        });
        assert!(dispatcher.take_records().is_empty(), "deferred, not run");
        assert_eq!(cloud.obs().gauge("recovery.queue.depth").get(), 1);

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
        assert_eq!(cloud.obs().gauge("recovery.queue.depth").get(), 0);
    }
}
