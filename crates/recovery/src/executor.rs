//! The recovery executor: runs plan steps against the cloud through the
//! consistent API layer, verifies the repair closed-loop, and escalates
//! along the plan ladder when budgets run out.

use std::sync::Arc;

use pod_assert::{AssertionOutcome, ConsistentApi, ConsistentError, ExpectedEnv, RetryPolicy};
use pod_cloud::{ApiError, AsgUpdate, Cloud, Instance, InstanceId, InstanceState};
use pod_log::{LogEvent, LogStorage, Severity};
use pod_obs::{Counter, EventId, Histogram, Obs};
use pod_sim::{SimDuration, SimTime};

use crate::plan::{PlanLibrary, RecoveryPlan, RecoveryStep, ResourceKind};

/// Retry policy for individual repair calls (one consistent-layer call
/// per step action).
const STEP_POLICY: RetryPolicy = RetryPolicy {
    max_retries: 4,
    base_backoff: SimDuration::from_millis(200),
    multiplier: 2.0,
    timeout: SimDuration::from_secs(30),
};

/// Retry policy for convergence waits
/// ([`RecoveryStep::WaitLaunchConfigSettled`] and terminate confirmation) —
/// long, because instance relaunches take minutes of virtual time.
const WAIT_POLICY: RetryPolicy = RetryPolicy {
    max_retries: 60,
    base_backoff: SimDuration::from_secs(2),
    multiplier: 1.2,
    timeout: SimDuration::from_secs(600),
};

/// How many times a failed step is re-attempted before the plan is
/// abandoned (fallback or escalation).
const MAX_STEP_ATTEMPTS: u32 = 2;

/// Where a recovered run's repair time went, on the virtual clock. The
/// segments sum to ≈ MTTR and tell future optimisation passes which phase
/// dominates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryPhases {
    /// Detection → diagnosis start (sweep wait + dispatch delay).
    pub detection: SimDuration,
    /// Fault-tree walk, including the diagnosis-service overhead.
    pub diagnosis: SimDuration,
    /// Verdict → recovery start: the storm lane wait on the eager path,
    /// the whole sweep wait otherwise.
    pub staging: SimDuration,
    /// Step execution, measured on the modeled parallel lanes (makespan,
    /// not the sum of step durations).
    pub repair: SimDuration,
    /// Closed-loop assertion re-checks.
    pub verification: SimDuration,
}

/// What a recovery is asked to repair: one confirmed root cause plus the
/// context the diagnosing detection carried.
#[derive(Debug, Clone)]
pub struct RecoveryRequest {
    /// Task id of this recovery operation (also its trace id for
    /// self-conformance-checking).
    pub task_id: String,
    /// The confirmed root-cause node id (e.g. `lc-wrong-ami`).
    pub root_cause: String,
    /// Instantiated root-cause description, for the log.
    pub description: String,
    /// When the underlying error was detected — MTTR counts from here.
    pub detected_at: SimTime,
    /// The offending instance, when the detection carried one.
    pub instance: Option<InstanceId>,
    /// The expected environment to repair towards.
    pub env: ExpectedEnv,
    /// The causal event of the detection (or diagnosis) this recovery
    /// answers; the whole repair chains under it in the event log.
    pub parent_event: Option<EventId>,
}

/// Terminal state of a recovery run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The repair executed and the closed-loop re-check passed.
    Recovered,
    /// The run was handed to the operator.
    Escalated {
        /// Why automation gave up.
        reason: String,
    },
}

impl RecoveryOutcome {
    /// Whether the run ended repaired and verified.
    pub fn is_recovered(&self) -> bool {
        matches!(self, RecoveryOutcome::Recovered)
    }

    /// Canonical tag (`recovered` / `escalated`).
    pub fn tag(&self) -> &'static str {
        match self {
            RecoveryOutcome::Recovered => "recovered",
            RecoveryOutcome::Escalated { .. } => "escalated",
        }
    }
}

/// The full, deterministic record of one recovery run. What each step and
/// each re-check did is in its log: "Applied recovery step …", "Recovery
/// attempt N of step …" and "Re-checked N assertion(s) …".
#[derive(Debug, Clone)]
pub struct RecoveryRun {
    /// Task id (= trace id of the self-monitoring process instance).
    pub task_id: String,
    /// The root cause this run repaired.
    pub root_cause: String,
    /// Terminal state.
    pub outcome: RecoveryOutcome,
    /// Plan ids in ladder order (primary first).
    pub plans_tried: Vec<String>,
    /// When the underlying error was detected.
    pub detected_at: SimTime,
    /// When recovery started executing.
    pub started_at: SimTime,
    /// When the run reached its terminal state (for a recovered run, the
    /// moment the re-check passed), on the modeled parallel timeline.
    pub finished_at: SimTime,
    /// MTTR phase breakdown (detection/diagnosis filled in by the
    /// dispatcher, which knows the diagnosis timings).
    pub phases: RecoveryPhases,
    /// The Asgard-style log lines the run emitted — the input to
    /// [`crate::monitor::conformance_check`] — each shared with central
    /// storage.
    pub log: Vec<Arc<LogEvent>>,
}

impl RecoveryRun {
    /// Mean-time-to-repair contribution: detection to verified repair.
    /// `None` for escalated runs (their repair time is human-bound) and
    /// for step-less reviews (nothing was repaired — the incident resolved
    /// itself, so there is no repair time to measure).
    pub fn mttr(&self) -> Option<SimDuration> {
        (self.outcome.is_recovered() && self.is_repair())
            .then(|| self.finished_at.duration_since(self.detected_at))
    }

    /// Whether this run executed (or attempted) an actual repair, as
    /// opposed to a step-less operation-end review (`confirm-resolved`)
    /// of an incident that needed none.
    pub fn is_repair(&self) -> bool {
        self.plans_tried.iter().any(|p| p != "confirm-resolved")
    }

    /// Canonical transcript: one line per emitted log event, stamped with
    /// virtual time. Same seed ⇒ byte-identical transcript.
    pub fn transcript(&self) -> String {
        self.log
            .iter()
            .map(|e| {
                format!(
                    "{}us|{}|{}",
                    e.timestamp.as_micros(),
                    self.task_id,
                    e.message
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Determinism digest over transcript and outcome.
    pub fn digest(&self) -> String {
        format!("{}\n=> {}", self.transcript(), self.outcome.tag())
    }
}

/// Cached handles for the `recovery.*` metrics.
#[derive(Debug, Clone)]
struct RecoveryMetrics {
    runs: Counter,
    recovered: Counter,
    escalated: Counter,
    steps_applied: Counter,
    steps_retried: Counter,
    fallbacks: Counter,
    verify_failures: Counter,
    mttr_us: Histogram,
}

impl RecoveryMetrics {
    fn new(obs: &Obs) -> RecoveryMetrics {
        RecoveryMetrics {
            runs: obs.counter("recovery.runs"),
            recovered: obs.counter("recovery.recovered"),
            escalated: obs.counter("recovery.escalated"),
            steps_applied: obs.counter("recovery.steps_applied"),
            steps_retried: obs.counter("recovery.steps_retried"),
            fallbacks: obs.counter("recovery.fallbacks"),
            verify_failures: obs.counter("recovery.verify_failures"),
            mttr_us: obs.histogram("recovery.mttr_us"),
        }
    }
}

/// The recovery executor. One executor serves many runs against one cloud.
#[derive(Debug, Clone)]
pub struct RecoveryExecutor {
    api: ConsistentApi,
    wait_api: ConsistentApi,
    library: PlanLibrary,
    storage: LogStorage,
    metrics: RecoveryMetrics,
}

impl RecoveryExecutor {
    /// Builds an executor appending its operation log to `storage`.
    pub fn new(cloud: Cloud, storage: LogStorage) -> RecoveryExecutor {
        let metrics = RecoveryMetrics::new(cloud.obs());
        RecoveryExecutor {
            api: ConsistentApi::new(cloud.clone(), STEP_POLICY),
            wait_api: ConsistentApi::new(cloud, WAIT_POLICY),
            library: PlanLibrary::new(),
            storage,
            metrics,
        }
    }

    /// The plan library this executor selects from.
    pub fn library(&self) -> &PlanLibrary {
        &self.library
    }

    fn now(&self) -> SimTime {
        self.api.cloud().clock().now()
    }

    /// Executes the recovery for one diagnosed root cause: plan selection
    /// from the library, step execution with bounded retries, closed-loop
    /// verification, and the fallback/escalation ladder. Always returns a
    /// terminal run — escalations are explicit, never dropped.
    pub fn recover(&self, req: &RecoveryRequest) -> RecoveryRun {
        let plan = self
            .library
            .plan_for(&req.root_cause, req.instance.as_ref());
        self.recover_inner(req, plan, false)
    }

    /// Runs an explicit plan instead of consulting the library — the
    /// dispatcher's operation-end review uses this with a step-less
    /// [`RecoveryPlan::confirm_resolved`] plan. Verification is *patient*
    /// (the long convergence policy): the review gives the environment the
    /// same settling window the repair plans' wait-steps get, since a group
    /// still relaunching instances at operation end is not yet a failure.
    pub fn recover_with(&self, req: &RecoveryRequest, plan: RecoveryPlan) -> RecoveryRun {
        self.recover_inner(req, Some(plan), true)
    }

    fn recover_inner(
        &self,
        req: &RecoveryRequest,
        plan: Option<RecoveryPlan>,
        patient: bool,
    ) -> RecoveryRun {
        let obs = self.api.cloud().obs().clone();
        self.metrics.runs.incr();
        let started_at = self.now();
        let start_event = match req.parent_event {
            Some(parent) => obs.event_under(parent, "recovery.start", &req.root_cause),
            None => obs.event("recovery.start", &req.root_cause),
        };
        start_event.attr("task", &req.task_id);
        // Everything the run does — repair calls, consistent-layer
        // retries, verification — chains under the start event.
        let _scope = obs.events().scope(Some(start_event.id()));

        let mut run = RecoveryRun {
            task_id: req.task_id.clone(),
            root_cause: req.root_cause.clone(),
            outcome: RecoveryOutcome::Escalated {
                reason: "not executed".to_string(),
            },
            plans_tried: Vec::new(),
            detected_at: req.detected_at,
            started_at,
            finished_at: started_at,
            phases: RecoveryPhases::default(),
            log: Vec::new(),
        };
        // How far the actual (sequential) clock runs ahead of the modeled
        // parallel timeline; every log line is stamped on the modeled
        // timeline.
        let mut lag = SimDuration::ZERO;

        self.log(
            &mut run,
            lag,
            Severity::Info,
            format!(
                "Started recovery task {} for root cause {}: {}",
                req.task_id, req.root_cause, req.description
            ),
        );

        let mut next = plan;
        if next.is_none() {
            let reason = format!("no recovery plan mapped for root cause {}", req.root_cause);
            self.escalate(&mut run, lag, reason);
            self.finish(&obs, &mut run, lag);
            return run;
        }

        while let Some(plan) = next.take() {
            run.plans_tried.push(plan.id.clone());
            self.log(
                &mut run,
                lag,
                Severity::Info,
                format!(
                    "Selected recovery plan {} with {} step(s)",
                    plan.id,
                    plan.steps.len()
                ),
            );
            obs.event("recovery.plan", &plan.id)
                .attr("steps", plan.steps.len());

            // Why this plan did not repair the fault, once it has not.
            let failure = match self.run_steps(&plan, req, &mut run, &mut lag) {
                Err((step_name, error)) => format!(
                    "step {step_name} of plan {} exhausted its retry budget: {error}",
                    plan.id
                ),
                Ok(()) => {
                    // Closed-loop verification: re-evaluate the plan's
                    // assertions through the same assertion machinery that
                    // detected the fault.
                    let verify_started = self.now();
                    let failing = self.verify(&plan, &req.env, patient);
                    run.phases.verification += self.now().duration_since(verify_started);
                    let verify_event = obs.event("recovery.verify", &plan.id);
                    verify_event.attr("checked", plan.verify.len());
                    verify_event.attr("failing", failing.len());
                    if failing.is_empty() {
                        self.log(
                            &mut run,
                            lag,
                            Severity::Info,
                            format!(
                                "Re-checked {} assertion(s) after plan {}: all passed",
                                plan.verify.len(),
                                plan.id
                            ),
                        );
                        self.log(
                            &mut run,
                            lag,
                            Severity::Info,
                            format!(
                                "Recovery task {} completed; root cause {} repaired",
                                req.task_id, req.root_cause
                            ),
                        );
                        run.outcome = RecoveryOutcome::Recovered;
                        break;
                    }
                    self.metrics.verify_failures.incr();
                    self.log(
                        &mut run,
                        lag,
                        Severity::Warn,
                        format!(
                            "Re-checked {} assertion(s) after plan {}: {} still failing ({})",
                            plan.verify.len(),
                            plan.id,
                            failing.len(),
                            failing.join(", ")
                        ),
                    );
                    format!(
                        "verification failed after plan {}: {} still failing",
                        plan.id,
                        failing.join(", ")
                    )
                }
            };
            let Some(fallback) = plan.fallback else {
                self.escalate(&mut run, lag, failure);
                break;
            };
            self.metrics.fallbacks.incr();
            next = Some(*fallback);
        }

        self.finish(&obs, &mut run, lag);
        run
    }

    /// Runs the plan's steps on a dependency-graph schedule: steps whose
    /// resource footprints (see [`footprint`]) are disjoint run on
    /// concurrent modeled lanes of the virtual clock, while execution
    /// itself stays sequential in deterministic (ready-time, step-index)
    /// order — same seed, same transcript. Per-step timeout/backoff
    /// semantics are unchanged; each step's log lines are stamped on its
    /// lane, and `lag` tracks how far the sequential clock has run ahead of
    /// the modeled makespan. Returns the failing step and error when a
    /// budget is exhausted.
    fn run_steps(
        &self,
        plan: &RecoveryPlan,
        req: &RecoveryRequest,
        run: &mut RecoveryRun,
        lag: &mut SimDuration,
    ) -> Result<(), (String, String)> {
        let base = rewind(self.now(), *lag);
        let n = plan.steps.len();
        let mut model_finish: Vec<Option<SimTime>> = vec![None; n];
        let mut makespan = base;
        let mut failed = Ok(());
        for _ in 0..n {
            // Pick the lowest (ready-time, index) step whose conflicting
            // predecessors (earlier plan index, intersecting footprint)
            // have all finished.
            let mut next: Option<(SimTime, usize)> = None;
            for i in 0..n {
                if model_finish[i].is_some() {
                    continue;
                }
                let mut ready = base;
                let mut eligible = true;
                for (j, finish) in model_finish.iter().enumerate().take(i) {
                    if conflicts(&plan.steps[j], &plan.steps[i]) {
                        match finish {
                            Some(f) => ready = ready.max(*f),
                            None => {
                                eligible = false;
                                break;
                            }
                        }
                    }
                }
                if eligible && next.is_none_or(|(t, k)| (ready, i) < (t, k)) {
                    next = Some((ready, i));
                }
            }
            let (ready, idx) = next.expect("an unexecuted step is always eligible");
            let step = &plan.steps[idx];
            let name = step.name();
            // This step's lane starts at `ready` on the modeled timeline.
            *lag = self.now().duration_since(ready);
            let mut attempts = 0u32;
            let outcome = loop {
                attempts += 1;
                match self.execute_step(step, &req.env).map_err(|e| e.to_string()) {
                    Err(error) if attempts < MAX_STEP_ATTEMPTS => {
                        self.metrics.steps_retried.incr();
                        // Deliberately phrased to stay outside the
                        // relevance patterns: retries are noise to the
                        // recovery process model.
                        self.log(
                            run,
                            *lag,
                            Severity::Warn,
                            format!(
                                "Recovery attempt {attempts} of step {name} failed: {error}; \
                                 backing off"
                            ),
                        );
                    }
                    outcome => break outcome,
                }
            };
            let at = rewind(self.now(), *lag);
            model_finish[idx] = Some(at);
            makespan = makespan.max(at);
            let detail = match outcome {
                Ok(detail) => detail,
                Err(error) => {
                    self.log(
                        run,
                        *lag,
                        Severity::Warn,
                        format!(
                            "Recovery plan {} abandoned: step {name} failed after {attempts} \
                             attempt(s): {error}",
                            plan.id
                        ),
                    );
                    failed = Err((name, error));
                    break;
                }
            };
            self.metrics.steps_applied.incr();
            let step_event = self.api.cloud().obs().event("recovery.step", &name);
            step_event.attr("plan", &plan.id);
            step_event.attr("attempts", attempts);
            let applied = format!("Applied recovery step {name}: {detail}");
            self.log(run, *lag, Severity::Info, applied);
        }
        run.phases.repair += makespan.duration_since(base);
        *lag = self.now().duration_since(makespan);
        failed
    }

    /// Re-evaluates the plan's verification assertions; returns the keys
    /// still failing. `patient` swaps in the long convergence policy
    /// (operation-end reviews wait out in-flight relaunches).
    fn verify(&self, plan: &RecoveryPlan, env: &ExpectedEnv, patient: bool) -> Vec<String> {
        let api = if patient { &self.wait_api } else { &self.api };
        plan.verify
            .iter()
            .filter(|a| !matches!(a.evaluate(api, env), AssertionOutcome::Passed))
            .map(|a| a.key().to_string())
            .collect()
    }

    fn escalate(&self, run: &mut RecoveryRun, lag: SimDuration, reason: String) {
        self.log(
            run,
            lag,
            Severity::Error,
            format!(
                "Recovery task {} escalated to operator: {reason}",
                run.task_id
            ),
        );
        run.outcome = RecoveryOutcome::Escalated { reason };
    }

    /// Stamps the terminal state: outcome event, outcome counters, MTTR.
    fn finish(&self, obs: &Obs, run: &mut RecoveryRun, lag: SimDuration) {
        run.finished_at = rewind(self.now(), lag);
        let outcome_event = obs.event("recovery.outcome", run.outcome.tag());
        outcome_event.attr("task", &run.task_id);
        outcome_event.attr("cause", &run.root_cause);
        match &run.outcome {
            RecoveryOutcome::Recovered => {
                self.metrics.recovered.incr();
                if let Some(mttr) = run.mttr() {
                    outcome_event.attr("mttr_ms", mttr.as_millis());
                    self.metrics.mttr_us.record(mttr.as_micros());
                }
            }
            RecoveryOutcome::Escalated { reason } => {
                self.metrics.escalated.incr();
                outcome_event.attr("reason", reason);
            }
        }
    }

    /// Emits one Asgard-style log line for the recovery's own process
    /// model: collected on the run (for conformance checking) and appended
    /// to the shared operation log. Stamped on the modeled parallel
    /// timeline (`lag` behind the sequential clock).
    fn log(&self, run: &mut RecoveryRun, lag: SimDuration, severity: Severity, message: String) {
        // Built with its final host and type, not `LogEvent::new`'s
        // defaults.
        let event = Arc::new(LogEvent {
            timestamp: rewind(self.now(), lag),
            source: "recovery.log".to_string(),
            source_host: "sim.local".to_string(),
            event_type: "recovery".to_string(),
            tags: Vec::new(),
            fields: vec![
                ("taskid".to_string(), run.task_id.clone()),
                ("seq".to_string(), (run.log.len() + 1).to_string()),
            ],
            message,
            severity,
            context: None,
        });
        run.log.push(Arc::clone(&event));
        self.storage.append(event);
    }

    /// Executes one step through the consistent API layer. Returns a
    /// human-readable success detail, or the error that exhausted the
    /// call's own retry budget.
    fn execute_step(
        &self,
        step: &RecoveryStep,
        env: &ExpectedEnv,
    ) -> Result<String, ConsistentError> {
        match step {
            RecoveryStep::RepairLaunchConfig => {
                // Re-created under the same name from the expected values.
                let name = env.launch_config.clone();
                self.recreate_launch_config(&name, env)?;
                Ok(format!(
                    "rolled launch configuration {name} back to the expected configuration"
                ))
            }
            RecoveryStep::SwitchLaunchConfig => {
                let fresh =
                    pod_cloud::LaunchConfigName::new(format!("{}-recovery", env.launch_config));
                self.recreate_launch_config(&fresh, env)?;
                Ok(format!(
                    "switched {} to replacement launch configuration {fresh}",
                    env.asg
                ))
            }
            RecoveryStep::RestoreResource(kind) => {
                self.restore_resource(*kind, env)?;
                Ok(format!(
                    "restored availability of the expected {}",
                    kind.label()
                ))
            }
            RecoveryStep::ReregisterInstances => {
                let instances = self.list_instances(env)?;
                let lost: Vec<InstanceId> = instances
                    .iter()
                    .filter(|i| i.state == InstanceState::InService && !i.registered_with_elb)
                    .map(|i| i.id.clone())
                    .collect();
                for id in &lost {
                    self.api.execute(|c| c.register_with_elb(&env.elb, id))?;
                }
                Ok(format!(
                    "re-registered {} instance(s) with load balancer {}",
                    lost.len(),
                    env.elb
                ))
            }
            RecoveryStep::ReplaceCorruptedInstances => {
                let instances = self.list_instances(env)?;
                // Fault-scoped: only instances the corruption actually
                // produced — launched from the expected launch
                // configuration yet deviating from it. Instances still on
                // an older configuration belong to the running operation's
                // normal replacement churn and are left alone.
                let corrupted: Vec<InstanceId> = instances
                    .iter()
                    .filter(|i| is_corrupted(i, env))
                    .map(|i| i.id.clone())
                    .collect();
                for id in &corrupted {
                    // Deregistration is best-effort: the instance may never
                    // have registered, or the balancer may be the fault.
                    let _ = self.api.execute(|c| c.deregister_from_elb(&env.elb, id));
                    self.api.execute(|c| c.terminate_instance(id, false))?;
                }
                Ok(format!(
                    "terminated {} corrupted instance(s) for relaunch from the repaired \
                     configuration",
                    corrupted.len()
                ))
            }
            RecoveryStep::WaitLaunchConfigSettled => {
                self.wait_api.read_until(
                    |c| c.describe_asg_instances(&env.asg),
                    |instances| !instances.iter().any(|i| is_corrupted(i, env)),
                )?;
                Ok(format!(
                    "no active instance from launch configuration {} deviates from the expected \
                     configuration",
                    env.launch_config
                ))
            }
            RecoveryStep::TerminateInstance(id) => {
                self.api.execute(|c| c.terminate_instance(id, false))?;
                self.wait_api.read_until(
                    |c| c.describe_instance(id),
                    |i| {
                        matches!(
                            i.state,
                            InstanceState::Terminating | InstanceState::Terminated
                        )
                    },
                )?;
                Ok(format!("re-issued terminate for instance {id}"))
            }
            RecoveryStep::RegisterInstanceWithElb(id) => {
                self.api.execute(|c| c.register_with_elb(&env.elb, id))?;
                Ok(format!(
                    "registered instance {id} with load balancer {}",
                    env.elb
                ))
            }
        }
    }

    /// Deletes launch configuration `name` (tolerating a retry that finds
    /// it already gone, or half-created), creates it from the expected
    /// values and points the ASG at it.
    fn recreate_launch_config(
        &self,
        name: &pod_cloud::LaunchConfigName,
        env: &ExpectedEnv,
    ) -> Result<(), ConsistentError> {
        match self.api.execute(|c| c.delete_launch_config(name)) {
            Ok(()) | Err(ConsistentError::Api(ApiError::NotFound { .. })) => {}
            Err(e) => return Err(e),
        }
        self.api.execute(|c| {
            c.create_launch_config(
                name.to_string(),
                env.expected_ami.clone(),
                env.expected_instance_type.clone(),
                env.expected_key_pair.clone(),
                env.expected_security_group.clone(),
            )
        })?;
        self.api.execute(|c| {
            let launch_config = Some(name.clone());
            c.update_asg(
                &env.asg,
                AsgUpdate {
                    launch_config,
                    ..AsgUpdate::default()
                },
            )
        })
    }

    /// Flips the resource back to available (operator-credential action,
    /// still metered through the consistent layer) and waits until reads
    /// observe it.
    fn restore_resource(
        &self,
        kind: ResourceKind,
        env: &ExpectedEnv,
    ) -> Result<(), ConsistentError> {
        match kind {
            ResourceKind::Ami => self.restore(
                |c| c.admin_set_ami_available(&env.expected_ami, true),
                |c| c.describe_ami(&env.expected_ami).map(|a| a.available),
            ),
            ResourceKind::KeyPair => self.restore(
                |c| c.admin_set_key_pair_available(&env.expected_key_pair, true),
                |c| {
                    c.describe_key_pair(&env.expected_key_pair)
                        .map(|k| k.available)
                },
            ),
            ResourceKind::SecurityGroup => self.restore(
                |c| c.admin_set_security_group_available(&env.expected_security_group, true),
                |c| {
                    c.describe_security_group(&env.expected_security_group)
                        .map(|s| s.available)
                },
            ),
            ResourceKind::Elb => self.restore(
                |c| c.admin_set_elb_available(&env.elb, true),
                |c| c.describe_elb(&env.elb).map(|e| e.available),
            ),
        }
    }

    fn restore(
        &self,
        make_available: impl Fn(&Cloud),
        available: impl FnMut(&Cloud) -> Result<bool, ApiError>,
    ) -> Result<(), ConsistentError> {
        self.api.execute(|c| {
            make_available(c);
            Ok(())
        })?;
        self.api.read_until(available, |&available| available)?;
        Ok(())
    }

    fn list_instances(&self, env: &ExpectedEnv) -> Result<Vec<Instance>, ConsistentError> {
        self.api.execute(|c| c.describe_asg_instances(&env.asg))
    }
}

/// Whether an instance was corrupted by the fault under repair: active,
/// launched from the expected launch configuration, yet deviating from the
/// expected configuration.
fn is_corrupted(instance: &Instance, env: &ExpectedEnv) -> bool {
    instance.state.is_active()
        && instance.launch_config.as_ref() == Some(&env.launch_config)
        && !env.matches(instance)
}

/// The cloud resources a step reads or mutates — its dependency footprint
/// for the parallel scheduler. Two steps conflict (keep their plan order)
/// iff their footprints intersect; disjoint steps run on concurrent
/// modeled lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepResource {
    /// The launch-configuration object itself.
    LaunchConfig,
    /// The ASG's configuration: its launch-config pointer and capacity.
    /// Shared by configuration repair and instance replacement, which
    /// keeps "fix the configuration" strictly before "relaunch from it".
    AsgConfig,
    /// The corrupted-instance set (see [`is_corrupted`]).
    CorruptedInstances,
    /// The healthy in-service instances.
    HealthyInstances,
    /// The expected machine image.
    Ami,
    /// The expected key pair.
    KeyPair,
    /// The expected security group.
    SecurityGroup,
    /// The load balancer. Best-effort deregistration of corrupted
    /// instances commutes with balancer work, so
    /// [`RecoveryStep::ReplaceCorruptedInstances`] deliberately does not
    /// claim it.
    Elb,
}

fn footprint(step: &RecoveryStep) -> &'static [StepResource] {
    use StepResource as R;
    match step {
        RecoveryStep::RepairLaunchConfig | RecoveryStep::SwitchLaunchConfig => {
            &[R::LaunchConfig, R::AsgConfig]
        }
        RecoveryStep::RestoreResource(ResourceKind::Ami) => &[R::Ami],
        RecoveryStep::RestoreResource(ResourceKind::KeyPair) => &[R::KeyPair],
        RecoveryStep::RestoreResource(ResourceKind::SecurityGroup) => &[R::SecurityGroup],
        RecoveryStep::RestoreResource(ResourceKind::Elb) => &[R::Elb],
        RecoveryStep::ReplaceCorruptedInstances => &[R::AsgConfig, R::CorruptedInstances],
        RecoveryStep::WaitLaunchConfigSettled => &[R::AsgConfig, R::CorruptedInstances],
        RecoveryStep::ReregisterInstances => &[R::Elb, R::HealthyInstances],
        RecoveryStep::TerminateInstance(_) => &[R::CorruptedInstances],
        RecoveryStep::RegisterInstanceWithElb(_) => &[R::Elb, R::HealthyInstances],
    }
}

fn conflicts(a: &RecoveryStep, b: &RecoveryStep) -> bool {
    footprint(a).iter().any(|r| footprint(b).contains(r))
}

/// Maps a sequential-clock instant back onto the modeled parallel
/// timeline.
fn rewind(t: SimTime, lag: SimDuration) -> SimTime {
    SimTime::from_micros(t.as_micros().saturating_sub(lag.as_micros()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{self, request};
    use crate::monitor;

    /// The fixture cluster with its load balancer up or down.
    fn setup(seed: u64, elb_available: bool) -> (Cloud, ExpectedEnv) {
        let (cloud, env) = fixtures::cluster(seed);
        if !elb_available {
            cloud.admin_set_elb_available(&env.elb, false);
        }
        (cloud, env)
    }

    fn executor(cloud: &Cloud) -> RecoveryExecutor {
        RecoveryExecutor::new(cloud.clone(), LogStorage::new())
    }

    /// The run's log messages that start with `prefix`.
    fn lines<'a>(run: &'a RecoveryRun, prefix: &str) -> Vec<&'a str> {
        let messages = run.log.iter().map(|e| e.message.as_str());
        messages.filter(|m| m.starts_with(prefix)).collect()
    }

    #[test]
    fn repairs_a_corrupted_launch_config_and_verifies() {
        let (cloud, env) = fixtures::wrong_ami(21);
        let run = executor(&cloud).recover(&request(&env, "lc-wrong-ami", None));

        assert_eq!(run.outcome, RecoveryOutcome::Recovered);
        let rechecks = lines(&run, "Re-checked ");
        assert_eq!(
            rechecks,
            ["Re-checked 2 assertion(s) after plan rollback-launch-config: all passed"]
        );
        assert_eq!(run.plans_tried, vec!["rollback-launch-config"]);
        assert!(run.mttr().is_some());
        let lc = cloud
            .admin_describe_launch_config(&env.launch_config)
            .expect("launch config re-created");
        assert_eq!(lc.ami, env.expected_ami);
        let report = monitor::conformance_check(cloud.obs(), &run);
        assert!(report.fit, "recovered run must conform: {report:?}");
    }

    #[test]
    fn unmapped_cause_escalates_and_still_conforms() {
        let (cloud, env) = setup(22, true);
        let run = executor(&cloud).recover(&request(&env, "concurrent-scale-in", None));

        match &run.outcome {
            RecoveryOutcome::Escalated { reason } => {
                assert!(reason.contains("no recovery plan mapped"), "{reason}");
            }
            other => panic!("expected escalation, got {other:?}"),
        }
        assert!(run.plans_tried.is_empty());
        assert!(run.mttr().is_none());
        let report = monitor::conformance_check(cloud.obs(), &run);
        assert!(report.fit, "escalated run must conform: {report:?}");
    }

    #[test]
    fn falls_back_to_restoring_the_elb_before_registering() {
        let (cloud, env) = setup(23, false);
        let instance = cloud
            .describe_asg_instances(&env.asg)
            .unwrap()
            .first()
            .expect("asg launched instances")
            .id
            .clone();

        let req = request(&env, "instance-not-registered", Some(instance.clone()));
        let run = executor(&cloud).recover(&req);

        assert_eq!(run.outcome, RecoveryOutcome::Recovered);
        assert_eq!(
            run.plans_tried,
            vec!["register-instance", "restore-elb-and-register"]
        );
        assert!(
            cloud
                .describe_instance(&instance)
                .unwrap()
                .registered_with_elb
        );
        let report = monitor::conformance_check(cloud.obs(), &run);
        assert!(report.fit, "fallback run must conform: {report:?}");
    }

    #[test]
    fn exhausted_step_without_fallback_escalates() {
        let (cloud, env) = setup(24, true);
        // A terminate plan for an instance that does not exist: the step
        // fails non-retryably, the plan has no fallback, the run must end
        // escalated — never dropped.
        let ghost = InstanceId::new("i-deadbeef");
        let req = request(&env, "instance-still-running", Some(ghost));
        let run = executor(&cloud).recover(&req);

        match &run.outcome {
            RecoveryOutcome::Escalated { reason } => {
                assert!(reason.contains("terminate-instance"), "{reason}");
            }
            other => panic!("expected escalation, got {other:?}"),
        }
        assert!(lines(&run, "Applied recovery step").is_empty());
        let abandoned = "Recovery plan terminate-stuck-instance abandoned: step terminate-instance";
        assert_eq!(lines(&run, abandoned).len(), 1);
        let report = monitor::conformance_check(cloud.obs(), &run);
        assert!(report.fit, "escalated run must conform: {report:?}");
    }

    #[test]
    fn same_seed_produces_byte_identical_transcripts() {
        let mut digests = Vec::new();
        for _ in 0..2 {
            let (cloud, env) = fixtures::wrong_ami(25);
            let run = executor(&cloud).recover(&request(&env, "lc-wrong-ami", None));
            assert_eq!(run.outcome, RecoveryOutcome::Recovered);
            digests.push(run.digest());
        }
        assert_eq!(digests[0], digests[1], "recovery must be deterministic");
        assert!(digests[0].contains("Started recovery task run-1-r0"));
    }

    #[test]
    fn recovery_metrics_are_recorded() {
        let (cloud, env) = setup(26, true);
        executor(&cloud).recover(&request(&env, "concurrent-scale-in", None));
        let snapshot = cloud.obs().snapshot();
        assert_eq!(snapshot.counter("recovery.runs"), 1);
        assert_eq!(snapshot.counter("recovery.escalated"), 1);
        assert_eq!(snapshot.counter("recovery.recovered"), 0);
    }
}
