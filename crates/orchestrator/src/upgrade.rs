//! The Asgard-like rolling-upgrade orchestrator.
//!
//! Executes the process of Figure 2 against the simulated cloud and emits
//! Asgard-style operation-log lines. POD-Diagnosis is non-intrusive: it
//! observes only these log lines and the cloud APIs; the orchestrator knows
//! nothing about conformance checking, assertions or diagnosis.
//!
//! The upgrade is resumable: [`RollingUpgrade::advance`] runs it to its
//! next safe point (between steps, and at every poll while it waits for a
//! new instance) and returns, so its caller acts at that virtual time —
//! injects a fault, starts an interference, fires timers — before resuming
//! it.

use std::ops::ControlFlow::{self, Break, Continue};

use pod_cloud::{ActivityStatus, ApiError, Cloud, Instance, InstanceId, InstanceState};
use pod_log::{LogEvent, Severity};
use pod_obs::SpanGuard;
use pod_sim::{SimDuration, SimTime};

use crate::config::UpgradeConfig;

/// How often the orchestrator polls while waiting for a new instance.
const POLL_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Why an upgrade run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpgradeOutcome {
    /// All instances replaced.
    Completed,
    /// The orchestrator gave up waiting for a replacement instance.
    TimedOutWaitingForInstance {
        /// The instance whose replacement never appeared.
        replacing: InstanceId,
    },
    /// A cloud API call failed irrecoverably.
    ApiFailure {
        /// The failing call's error.
        error: ApiError,
    },
}

impl UpgradeOutcome {
    /// Whether the upgrade finished successfully.
    pub fn is_success(&self) -> bool {
        matches!(self, UpgradeOutcome::Completed)
    }
}

/// Summary of one upgrade run.
#[derive(Debug, Clone)]
pub struct UpgradeReport {
    /// How the run ended.
    pub outcome: UpgradeOutcome,
    /// Total virtual duration.
    pub duration: SimDuration,
}

/// Where [`RollingUpgrade::advance`] stopped.
#[derive(Debug)]
pub enum Advance {
    /// A safe point at this virtual time; the next `advance` resumes.
    SafePoint(SimTime),
    /// The upgrade has ended; every later `advance` returns this report.
    Done(UpgradeReport),
}

/// Where the next [`RollingUpgrade::advance`] picks up.
#[derive(Debug)]
enum Resume {
    Start,
    LaunchConfig,
    Sort,
    /// Ends the previous instance's step, then deregisters the next
    /// instance, or completes the upgrade when none is left.
    Deregister,
    Terminate,
    StartWaiting,
    /// Polls for the replacement, waited for since `since`, with failed
    /// scaling activities surfaced up to `cursor`.
    Poll {
        since: SimTime,
        cursor: SimTime,
    },
    /// The completed line is written; the run ends.
    Complete,
    Done(UpgradeReport),
}

/// What a segment of the upgrade leads to: the safe point before the next
/// segment, or the end.
type Segment = ControlFlow<UpgradeOutcome, Resume>;

/// The rolling-upgrade engine.
#[derive(Debug)]
pub struct RollingUpgrade {
    cloud: Cloud,
    config: UpgradeConfig,
    task_id: String,
    seq: u64,
    resume: Resume,
    started_at: SimTime,
    /// `upgrade.run`, open from the start to the end.
    run: Option<SpanGuard>,
    /// The `replace-instance` step, open across its safe points.
    step: Option<SpanGuard>,
    /// The instances to replace, oldest first; the first `replaced` are.
    victims: Vec<Instance>,
    replaced: usize,
    /// The group's members before the current replacement, to recognise
    /// the new one.
    before: Vec<InstanceId>,
    /// Failed scaling activities before this time are in the log.
    activity_cursor: SimTime,
}

impl RollingUpgrade {
    /// Creates an upgrade task. `task_id` names the process instance (the
    /// trace id in conformance checking).
    pub fn new(cloud: Cloud, config: UpgradeConfig, task_id: impl Into<String>) -> RollingUpgrade {
        RollingUpgrade {
            cloud,
            config,
            task_id: task_id.into(),
            seq: 0,
            resume: Resume::Start,
            started_at: SimTime::ZERO,
            run: None,
            step: None,
            victims: Vec::new(),
            replaced: 0,
            before: Vec::new(),
            activity_cursor: SimTime::ZERO,
        }
    }

    /// Runs the upgrade to its next safe point and returns it, handing
    /// every operation-log line to `on_log` the moment it is written (this
    /// is where POD-Diagnosis taps in).
    pub fn advance(&mut self, on_log: &mut dyn FnMut(LogEvent)) -> Advance {
        let segment = match std::mem::replace(&mut self.resume, Resume::Start) {
            Resume::Start => self.start(on_log),
            Resume::LaunchConfig => self.launch_config(on_log),
            Resume::Sort => self.sort(on_log),
            Resume::Deregister => self.deregister(on_log),
            Resume::Terminate => self.terminate(on_log),
            Resume::StartWaiting => self.start_waiting(on_log),
            Resume::Poll { since, cursor } => self.poll(on_log, since, cursor),
            Resume::Complete => Break(UpgradeOutcome::Completed),
            Resume::Done(report) => {
                self.resume = Resume::Done(report.clone());
                return Advance::Done(report);
            }
        };
        match segment {
            Continue(resume) => {
                self.resume = resume;
                Advance::SafePoint(self.cloud.clock().now())
            }
            Break(outcome) => {
                self.step = None;
                self.run = None;
                let report = UpgradeReport {
                    outcome,
                    duration: self.cloud.clock().now().duration_since(self.started_at),
                };
                self.resume = Resume::Done(report.clone());
                Advance::Done(report)
            }
        }
    }

    fn log(&mut self, on_log: &mut dyn FnMut(LogEvent), severity: Severity, message: String) {
        self.seq += 1;
        let event = LogEvent::new(self.cloud.clock().now(), "asgard.log", message)
            .with_type("asgard")
            .with_severity(severity)
            .with_field("taskid", self.task_id.clone())
            .with_field("seq", self.seq.to_string());
        on_log(event);
    }

    /// Opens an `upgrade.step` span for `step`.
    fn step_span(&self, step: &'static str) -> SpanGuard {
        let span = self.cloud.obs().span("upgrade.step");
        span.attr("step", step);
        span
    }

    fn start(&mut self, on_log: &mut dyn FnMut(LogEvent)) -> Segment {
        self.started_at = self.cloud.clock().now();
        let run = self.cloud.obs().span("upgrade.run");
        run.attr("task", &self.task_id);
        self.run = Some(run);
        let _step = self.step_span("start");
        let cfg = &self.config;
        let message = format!(
            "Started rolling upgrade task {} pushing {} into group {} for app {}",
            self.task_id, cfg.new_ami, cfg.asg, cfg.app_name
        );
        self.log(on_log, Severity::Info, message);
        Continue(Resume::LaunchConfig)
    }

    /// Derives the new launch configuration from the current one, swapping
    /// the AMI, like Asgard.
    fn launch_config(&mut self, on_log: &mut dyn FnMut(LogEvent)) -> Segment {
        let _step = self.step_span("update-launch-config");
        let cfg = &self.config;
        let created = self.cloud.describe_asg(&cfg.asg).and_then(|group| {
            let current = self.cloud.describe_launch_config(&group.launch_config)?;
            let created = self.cloud.create_launch_config(
                format!("{}-{}", cfg.new_launch_config, self.task_id),
                cfg.new_ami.clone(),
                current.instance_type.clone(),
                current.key_pair.clone(),
                current.security_group.clone(),
            )?;
            let update = pod_cloud::AsgUpdate {
                launch_config: Some(created.clone()),
                ..pod_cloud::AsgUpdate::default()
            };
            self.cloud.update_asg(&cfg.asg, update).map(|()| created)
        });
        let message = match created {
            Ok(created) => format!(
                "Created launch configuration {created} with image {} and updated group {}",
                cfg.new_ami, cfg.asg
            ),
            Err(e) => return Break(self.fail(on_log, e)),
        };
        self.log(on_log, Severity::Info, message);
        Continue(Resume::Sort)
    }

    /// Sorts the instances to replace, oldest first, like Asgard.
    fn sort(&mut self, on_log: &mut dyn FnMut(LogEvent)) -> Segment {
        let _step = self.step_span("sort-instances");
        self.victims = match self.cloud.describe_asg_instances(&self.config.asg) {
            Ok(instances) => instances,
            Err(e) => return Break(self.fail(on_log, e)),
        };
        self.victims.retain(|i| i.state.is_active());
        self.victims
            .sort_by(|a, b| a.launched_at.cmp(&b.launched_at).then(a.id.cmp(&b.id)));
        let message = format!(
            "Sorted {} instances of group {} for replacement",
            self.victims.len(),
            self.config.asg
        );
        self.log(on_log, Severity::Info, message);
        Continue(Resume::Deregister)
    }

    /// The instance being replaced.
    fn victim(&self) -> InstanceId {
        self.victims[self.replaced].id.clone()
    }

    fn deregister(&mut self, on_log: &mut dyn FnMut(LogEvent)) -> Segment {
        // The previous instance's step ends after the safe point closing it.
        self.step = None;
        if self.replaced == 0 {
            self.activity_cursor = self.cloud.clock().now();
        }
        if self.replaced == self.victims.len() {
            let _step = self.step_span("completed");
            let message = format!("Rolling upgrade task {} completed", self.task_id);
            self.log(on_log, Severity::Info, message);
            return Continue(Resume::Complete);
        }
        let victim = self.victim();
        let step = self.step_span("replace-instance");
        step.attr("victim", &victim);
        self.step = Some(step);
        let cfg = &self.config;
        let group = self.cloud.describe_asg(&cfg.asg);
        self.before = group.map(|g| g.instances).unwrap_or_default();
        let (severity, message) = match self.cloud.deregister_from_elb(&cfg.elb, &victim) {
            Ok(()) => (
                Severity::Info,
                format!(
                    "Deregistered instance {victim} from load balancer {}",
                    cfg.elb
                ),
            ),
            // Asgard logs the error and carries on: the ASG will still
            // replace the instance; traffic draining is best-effort.
            Err(e) => (
                Severity::Error,
                format!(
                    "ERROR: failed to deregister {victim} from load balancer {}: {e}",
                    cfg.elb
                ),
            ),
        };
        self.log(on_log, severity, message);
        Continue(Resume::Terminate)
    }

    /// Terminates the old instance; the ASG replaces it.
    fn terminate(&mut self, on_log: &mut dyn FnMut(LogEvent)) -> Segment {
        let victim = self.victim();
        if let Err(e) = self.cloud.terminate_instance(&victim, false) {
            return Break(self.fail(on_log, e));
        }
        self.log(
            on_log,
            Severity::Info,
            format!("Terminated old instance {victim}"),
        );
        Continue(Resume::StartWaiting)
    }

    fn start_waiting(&mut self, on_log: &mut dyn FnMut(LogEvent)) -> Segment {
        let cfg = &self.config;
        let message = format!(
            "Waiting for ASG {} to start a new instance of {}",
            cfg.asg, cfg.app_name
        );
        self.log(on_log, Severity::Info, message);
        let since = self.cloud.clock().now();
        self.cloud.sleep(POLL_INTERVAL);
        Continue(Resume::Poll {
            since,
            cursor: since,
        })
    }

    fn poll(
        &mut self,
        on_log: &mut dyn FnMut(LogEvent),
        since: SimTime,
        cursor: SimTime,
    ) -> Segment {
        let cursor = self.surface_cloud_errors(on_log, cursor);
        let instances = match self.cloud.describe_asg_instances(&self.config.asg) {
            Ok(i) => i,
            Err(e) => return Break(self.fail(on_log, e)),
        };
        let fresh = instances.iter().find(|i| {
            i.state == InstanceState::InService
                && !self.before.contains(&i.id)
                && i.registered_with_elb
        });
        if let Some(new_instance) = fresh {
            self.replaced += 1;
            let message = format!(
                "Instance {} on {} is ready for use. {} of {} instance relaunches done.",
                self.config.app_name,
                new_instance.id,
                self.replaced,
                self.victims.len(),
            );
            self.log(on_log, Severity::Info, message);
            self.activity_cursor = self.surface_cloud_errors(on_log, self.activity_cursor);
            return Continue(Resume::Deregister);
        }
        let waited = self.cloud.clock().now().duration_since(since);
        if waited > self.config.max_wait_per_instance {
            let victim = self.victim();
            let message = format!(
                "ERROR: timed out waiting for ASG {} to start a replacement for {victim} after \
                 {waited}",
                self.config.asg
            );
            self.log(on_log, Severity::Error, message);
            return Break(UpgradeOutcome::TimedOutWaitingForInstance { replacing: victim });
        }
        self.cloud.sleep(POLL_INTERVAL);
        Continue(Resume::Poll { since, cursor })
    }

    /// Surfaces the scaling activities that failed since `since` into the
    /// operation log, the way Asgard's task log shows AWS-side errors;
    /// returns the time they are surfaced up to.
    fn surface_cloud_errors(
        &mut self,
        on_log: &mut dyn FnMut(LogEvent),
        since: SimTime,
    ) -> SimTime {
        let now = self.cloud.clock().now();
        // Only the failed activities' messages leave the feed: the log
        // lines are written after the read releases the cloud.
        let failed = self
            .cloud
            .with_scaling_activities(&self.config.asg, since, |activities| {
                let failed = activities.filter_map(|a| match &a.status {
                    ActivityStatus::Failed(msg) => Some(format!("ERROR: cloud reported: {msg}")),
                    _ => None,
                });
                failed.collect::<Vec<_>>()
            });
        for line in failed.into_iter().flatten() {
            self.log(on_log, Severity::Error, line);
        }
        now
    }

    fn fail(&mut self, on_log: &mut dyn FnMut(LogEvent), error: ApiError) -> UpgradeOutcome {
        let message = format!(
            "ERROR: rolling upgrade task {} aborted: {error}",
            self.task_id
        );
        self.log(on_log, Severity::Error, message);
        UpgradeOutcome::ApiFailure { error }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_cloud::CloudConfig;
    use pod_sim::{Clock, SimRng};

    /// Drives `upgrade` to its end; returns its report, its log and the
    /// times of its safe points.
    fn drive(upgrade: &mut RollingUpgrade) -> (UpgradeReport, Vec<LogEvent>, Vec<SimTime>) {
        let (mut events, mut safe_points) = (Vec::new(), Vec::new());
        loop {
            match upgrade.advance(&mut |event| events.push(event)) {
                Advance::SafePoint(at) => safe_points.push(at),
                Advance::Done(report) => return (report, events, safe_points),
            }
        }
    }

    /// Asserts that `upgrade`, ended with `report`, stays ended: `advance`
    /// writes no line and returns the same report.
    fn assert_done_is_sticky(upgrade: &mut RollingUpgrade, report: &UpgradeReport) {
        let Advance::Done(again) = upgrade.advance(&mut |e| panic!("{e} after the end")) else {
            panic!("a safe point after the end");
        };
        assert_eq!(again.outcome, report.outcome);
        assert_eq!(again.duration, report.duration);
    }

    fn setup(n: u32) -> (Cloud, UpgradeConfig) {
        let cloud = Cloud::new(
            Clock::new(),
            SimRng::seed_from(31),
            CloudConfig {
                stale_read_prob: 0.0,
                ..CloudConfig::default()
            },
        );
        let ami_v1 = cloud.admin_create_ami("app", "1.0");
        let ami_v2 = cloud.admin_create_ami("app", "2.0");
        let cluster = cloud.admin_create_cluster(ami_v1, "prod", "lc-v1", "pm--asg", 30, n);
        let config = UpgradeConfig::new("pm", cluster.asg, cluster.elb, ami_v2);
        (cloud, config)
    }

    #[test]
    fn upgrade_replaces_every_instance() {
        let (cloud, config) = setup(4);
        let asg = config.asg.clone();
        let mut upgrade = RollingUpgrade::new(cloud.clone(), config, "run-1");
        let (report, events, _) = drive(&mut upgrade);
        assert!(report.outcome.is_success(), "{:?}", report.outcome);
        let active = cloud.admin_asg_active_instances(&asg);
        assert_eq!(active.len(), 4);
        assert!(active.iter().all(|i| &*i.version == "2.0"));
        assert!(active.iter().all(|i| i.registered_with_elb));
        // Log shape: start, lc, sort, 4 × (dereg, term, wait, ready), done.
        let msgs: Vec<&str> = events.iter().map(|e| e.message.as_str()).collect();
        assert!(msgs[0].contains("Started rolling upgrade"));
        assert!(msgs.last().unwrap().contains("completed"));
        assert_eq!(
            msgs.iter()
                .filter(|m| m.contains("is ready for use"))
                .count(),
            4
        );
        assert_eq!(
            msgs.iter()
                .filter(|m| m.contains("Terminated old instance"))
                .count(),
            4
        );
    }

    #[test]
    fn upgrade_duration_is_realistic() {
        let (cloud, config) = setup(4);
        let (report, _, _) = drive(&mut RollingUpgrade::new(cloud, config, "run-1"));
        // 4 instances × (terminate ≈25s + reconcile ≤10s + boot ≈50s):
        // minutes, not hours.
        let mins = report.duration.as_secs_f64() / 60.0;
        assert!(mins > 2.0 && mins < 30.0, "took {mins} minutes");
    }

    #[test]
    fn unavailable_ami_times_out_with_error_logs() {
        let (cloud, mut config) = setup(2);
        config.max_wait_per_instance = SimDuration::from_secs(120);
        cloud.admin_set_ami_available(&config.new_ami, false);
        let mut upgrade = RollingUpgrade::new(cloud.clone(), config, "run-1");
        let (report, events, _) = drive(&mut upgrade);
        assert!(matches!(
            report.outcome,
            UpgradeOutcome::TimedOutWaitingForInstance { .. }
        ));
        assert!(events
            .iter()
            .any(|e| e.severity == Severity::Error && e.message.contains("AMI")));
        assert!(events
            .iter()
            .any(|e| e.message.contains("timed out waiting")));
        assert_done_is_sticky(&mut upgrade, &report);
    }

    #[test]
    fn elb_unavailable_surfaces_deregistration_error() {
        let (cloud, mut config) = setup(2);
        config.max_wait_per_instance = SimDuration::from_secs(120);
        cloud.admin_set_elb_available(&config.elb, false);
        let mut upgrade = RollingUpgrade::new(cloud.clone(), config, "run-1");
        let (report, events, _) = drive(&mut upgrade);
        assert!(!report.outcome.is_success());
        assert!(events
            .iter()
            .any(|e| e.message.contains("failed to deregister")));
        assert_done_is_sticky(&mut upgrade, &report);
    }

    #[test]
    fn an_unknown_group_aborts_with_an_api_failure() {
        let (cloud, mut config) = setup(2);
        config.asg = pod_cloud::AsgName::new("no-such-asg");
        let mut upgrade = RollingUpgrade::new(cloud, config, "run-1");
        let (report, events, _) = drive(&mut upgrade);
        assert!(matches!(report.outcome, UpgradeOutcome::ApiFailure { .. }));
        assert!(events.last().unwrap().message.contains("aborted"));
        assert_done_is_sticky(&mut upgrade, &report);
    }

    #[test]
    fn safe_points_never_go_back_and_a_run_ends_in_one_done() {
        let (cloud, config) = setup(2);
        let mut upgrade = RollingUpgrade::new(cloud, config, "run-1");
        let (report, _, safe_points) = drive(&mut upgrade);
        assert!(report.outcome.is_success(), "{:?}", report.outcome);
        assert!(safe_points.len() > 5, "{} safe points", safe_points.len());
        assert!(
            safe_points.windows(2).all(|w| w[0] <= w[1]),
            "{safe_points:?}"
        );
        assert_done_is_sticky(&mut upgrade, &report);
    }
}
