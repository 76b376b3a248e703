//! The Asgard-like rolling-upgrade orchestrator.
//!
//! Executes the process of Figure 2 against the simulated cloud and emits
//! Asgard-style operation-log lines. POD-Diagnosis is non-intrusive: it
//! observes only these log lines and the cloud APIs; the orchestrator knows
//! nothing about conformance checking, assertions or diagnosis.

use pod_cloud::{ActivityStatus, ApiError, Cloud, InstanceId, InstanceState};
use pod_log::{LogEvent, Severity};
use pod_sim::{SimDuration, SimTime};

use crate::config::UpgradeConfig;

/// How often the orchestrator polls while waiting for a new instance.
const POLL_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Receives orchestrator output and drives co-located activity.
///
/// `on_log` is called for every operation-log line as it is produced (this
/// is where POD-Diagnosis taps in). `on_tick` is called at every safe point
/// (between steps and at poll iterations) so the experiment harness can
/// inject faults and interference at a chosen virtual time.
pub trait UpgradeObserver {
    /// A new operation-log line.
    fn on_log(&mut self, event: LogEvent);
    /// A safe point; `now` is the current virtual time.
    fn on_tick(&mut self, cloud: &Cloud, now: SimTime);
}

/// An observer that collects logs and does nothing at ticks.
#[derive(Debug, Default)]
pub struct CollectingObserver {
    /// The collected operation log.
    pub events: Vec<LogEvent>,
}

impl UpgradeObserver for CollectingObserver {
    fn on_log(&mut self, event: LogEvent) {
        self.events.push(event);
    }

    fn on_tick(&mut self, _cloud: &Cloud, _now: SimTime) {}
}

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

/// The rolling-upgrade engine.
#[derive(Debug)]
pub struct RollingUpgrade {
    cloud: Cloud,
    config: UpgradeConfig,
    task_id: String,
    seq: u64,
    last_new_instance: Option<InstanceId>,
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
            last_new_instance: None,
        }
    }

    fn log(&mut self, observer: &mut dyn UpgradeObserver, severity: Severity, message: String) {
        self.seq += 1;
        let event = LogEvent::new(self.cloud.clock().now(), "asgard.log", message)
            .with_type("asgard")
            .with_severity(severity)
            .with_field("taskid", self.task_id.clone())
            .with_field("seq", self.seq.to_string());
        observer.on_log(event);
    }

    fn tick(&mut self, observer: &mut dyn UpgradeObserver) {
        let now = self.cloud.clock().now();
        observer.on_tick(&self.cloud, now);
    }

    /// Runs the whole upgrade, emitting logs and ticks to `observer`.
    pub fn run(&mut self, observer: &mut dyn UpgradeObserver) -> UpgradeReport {
        let started_at = self.cloud.clock().now();
        let outcome = self.run_inner(observer);
        UpgradeReport {
            outcome,
            duration: self.cloud.clock().now().duration_since(started_at),
        }
    }

    fn run_inner(&mut self, observer: &mut dyn UpgradeObserver) -> UpgradeOutcome {
        let cfg = self.config.clone();
        let run_span = self.cloud.obs().span("upgrade.run");
        run_span.attr("task", &self.task_id);
        // Step 1: start.
        {
            let step = self.cloud.obs().span("upgrade.step");
            step.attr("step", "start");
            self.log(
                observer,
                Severity::Info,
                format!(
                    "Started rolling upgrade task {} pushing {} into group {} for app {}",
                    self.task_id, cfg.new_ami, cfg.asg, cfg.app_name
                ),
            );
        }
        self.tick(observer);

        // Step 2: update launch configuration.
        {
            let step = self.cloud.obs().span("upgrade.step");
            step.attr("step", "update-launch-config");
            if let Err(e) = self.update_launch_configuration(observer) {
                return self.fail(observer, e);
            }
        }
        self.tick(observer);

        // Step 3: sort instances (oldest first, like Asgard).
        let old = {
            let step = self.cloud.obs().span("upgrade.step");
            step.attr("step", "sort-instances");
            let mut old: Vec<_> = match self.cloud.describe_asg_instances(&cfg.asg) {
                Ok(instances) => instances
                    .into_iter()
                    .filter(|i| i.state.is_active())
                    .collect(),
                Err(e) => return self.fail(observer, e),
            };
            old.sort_by(|a, b| a.launched_at.cmp(&b.launched_at).then(a.id.cmp(&b.id)));
            self.log(
                observer,
                Severity::Info,
                format!(
                    "Sorted {} instances of group {} for replacement",
                    old.len(),
                    cfg.asg
                ),
            );
            old
        };
        self.tick(observer);

        // Step 4: the replacement loop, one instance at a time.
        let total = old.len();
        let mut activity_cursor = self.cloud.clock().now();
        for (done, instance) in old.iter().enumerate() {
            let span = self.cloud.obs().span("upgrade.step");
            span.attr("step", "replace-instance");
            span.attr("victim", &instance.id);
            if let Err(e) = self.replace_one(observer, &instance.id) {
                return e;
            }
            self.log(
                observer,
                Severity::Info,
                format!(
                    "Instance {} on {} is ready for use. {} of {total} instance relaunches \
                     done.",
                    cfg.app_name,
                    self.last_new_instance
                        .clone()
                        .map(|i| i.to_string())
                        .unwrap_or_else(|| "unknown".to_string()),
                    done + 1,
                ),
            );
            self.surface_cloud_errors(observer, &mut activity_cursor);
            self.tick(observer);
        }

        // Step 5: completed.
        {
            let step = self.cloud.obs().span("upgrade.step");
            step.attr("step", "completed");
            self.log(
                observer,
                Severity::Info,
                format!("Rolling upgrade task {} completed", self.task_id),
            );
        }
        self.tick(observer);
        UpgradeOutcome::Completed
    }

    fn update_launch_configuration(
        &mut self,
        observer: &mut dyn UpgradeObserver,
    ) -> Result<(), ApiError> {
        let cfg = self.config.clone();
        // Asgard derives the new LC from the current one, swapping the AMI.
        let group = self.cloud.describe_asg(&cfg.asg)?;
        let current = self.cloud.describe_launch_config(&group.launch_config)?;
        let lc_name = format!("{}-{}", cfg.new_launch_config, self.task_id);
        let created = self.cloud.create_launch_config(
            lc_name,
            cfg.new_ami.clone(),
            current.instance_type.clone(),
            current.key_pair.clone(),
            current.security_group.clone(),
        )?;
        self.cloud.update_asg(
            &cfg.asg,
            pod_cloud::AsgUpdate {
                launch_config: Some(created.clone()),
                ..pod_cloud::AsgUpdate::default()
            },
        )?;
        self.log(
            observer,
            Severity::Info,
            format!(
                "Created launch configuration {created} with image {} and updated group {}",
                cfg.new_ami, cfg.asg
            ),
        );
        Ok(())
    }

    fn replace_one(
        &mut self,
        observer: &mut dyn UpgradeObserver,
        victim: &InstanceId,
    ) -> Result<(), UpgradeOutcome> {
        let cfg = self.config.clone();
        // Known member set before the replacement, to recognise the new one.
        let before: Vec<InstanceId> = self
            .cloud
            .describe_asg(&cfg.asg)
            .map(|g| g.instances)
            .unwrap_or_default();

        // 4a. Deregister from the ELB.
        match self.cloud.deregister_from_elb(&cfg.elb, victim) {
            Ok(()) => self.log(
                observer,
                Severity::Info,
                format!(
                    "Deregistered instance {victim} from load balancer {}",
                    cfg.elb
                ),
            ),
            Err(e) => {
                // Asgard logs the error and carries on: the ASG will still
                // replace the instance; traffic draining is best-effort.
                self.log(
                    observer,
                    Severity::Error,
                    format!(
                        "ERROR: failed to deregister {victim} from load balancer {}: {e}",
                        cfg.elb
                    ),
                );
            }
        }
        self.tick(observer);

        // 4b. Terminate the old instance (ASG replaces it).
        if let Err(e) = self.cloud.terminate_instance(victim, false) {
            return Err(self.fail(observer, e));
        }
        self.log(
            observer,
            Severity::Info,
            format!("Terminated old instance {victim}"),
        );
        self.tick(observer);

        // 4c. Wait for the ASG to start the replacement.
        self.log(
            observer,
            Severity::Info,
            format!(
                "Waiting for ASG {} to start a new instance of {}",
                cfg.asg, cfg.app_name
            ),
        );
        let wait_started = self.cloud.clock().now();
        let mut activity_cursor = wait_started;
        loop {
            self.cloud.sleep(POLL_INTERVAL);
            self.tick(observer);
            self.surface_cloud_errors(observer, &mut activity_cursor);
            let instances = match self.cloud.describe_asg_instances(&cfg.asg) {
                Ok(i) => i,
                Err(e) => return Err(self.fail(observer, e)),
            };
            let fresh = instances.iter().find(|i| {
                i.state == InstanceState::InService
                    && !before.contains(&i.id)
                    && i.registered_with_elb
            });
            if let Some(new_instance) = fresh {
                self.last_new_instance = Some(new_instance.id.clone());
                return Ok(());
            }
            let waited = self.cloud.clock().now().duration_since(wait_started);
            if waited > cfg.max_wait_per_instance {
                self.log(
                    observer,
                    Severity::Error,
                    format!(
                        "ERROR: timed out waiting for ASG {} to start a replacement for \
                         {victim} after {waited}",
                        cfg.asg
                    ),
                );
                return Err(UpgradeOutcome::TimedOutWaitingForInstance {
                    replacing: victim.clone(),
                });
            }
        }
    }

    /// Surfaces failed scaling activities into the operation log, the way
    /// Asgard's task log shows AWS-side errors.
    fn surface_cloud_errors(&mut self, observer: &mut dyn UpgradeObserver, cursor: &mut SimTime) {
        let since = *cursor;
        *cursor = self.cloud.clock().now();
        if let Ok(activities) = self
            .cloud
            .describe_scaling_activities(&self.config.asg, since)
        {
            for a in activities {
                if let ActivityStatus::Failed(msg) = &a.status {
                    self.log(
                        observer,
                        Severity::Error,
                        format!("ERROR: cloud reported: {msg}"),
                    );
                }
            }
        }
    }

    fn fail(&mut self, observer: &mut dyn UpgradeObserver, error: ApiError) -> UpgradeOutcome {
        self.log(
            observer,
            Severity::Error,
            format!(
                "ERROR: rolling upgrade task {} aborted: {error}",
                self.task_id
            ),
        );
        UpgradeOutcome::ApiFailure { error }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_cloud::CloudConfig;
    use pod_sim::{Clock, SimRng};

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
        let mut obs = CollectingObserver::default();
        let report = upgrade.run(&mut obs);
        assert!(report.outcome.is_success(), "{:?}", report.outcome);
        let active = cloud.admin_asg_active_instances(&asg);
        assert_eq!(active.len(), 4);
        assert!(active.iter().all(|i| i.version == "2.0"));
        assert!(active.iter().all(|i| i.registered_with_elb));
        // Log shape: start, lc, sort, 4 × (dereg, term, wait, ready), done.
        let msgs: Vec<&str> = obs.events.iter().map(|e| e.message.as_str()).collect();
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
        let mut upgrade = RollingUpgrade::new(cloud.clone(), config, "run-1");
        let mut obs = CollectingObserver::default();
        let report = upgrade.run(&mut obs);
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
        let mut obs = CollectingObserver::default();
        let report = upgrade.run(&mut obs);
        assert!(matches!(
            report.outcome,
            UpgradeOutcome::TimedOutWaitingForInstance { .. }
        ));
        assert!(obs
            .events
            .iter()
            .any(|e| e.severity == Severity::Error && e.message.contains("AMI")));
        assert!(obs
            .events
            .iter()
            .any(|e| e.message.contains("timed out waiting")));
    }

    #[test]
    fn elb_unavailable_surfaces_deregistration_error() {
        let (cloud, mut config) = setup(2);
        config.max_wait_per_instance = SimDuration::from_secs(120);
        cloud.admin_set_elb_available(&config.elb, false);
        let mut upgrade = RollingUpgrade::new(cloud.clone(), config, "run-1");
        let mut obs = CollectingObserver::default();
        let report = upgrade.run(&mut obs);
        assert!(!report.outcome.is_success());
        assert!(obs
            .events
            .iter()
            .any(|e| e.message.contains("failed to deregister")));
    }

    #[test]
    fn observer_ticks_fire_during_run() {
        struct Counting {
            ticks: usize,
        }
        impl UpgradeObserver for Counting {
            fn on_log(&mut self, _e: LogEvent) {}
            fn on_tick(&mut self, _c: &Cloud, _t: SimTime) {
                self.ticks += 1;
            }
        }
        let (cloud, config) = setup(2);
        let mut upgrade = RollingUpgrade::new(cloud, config, "run-1");
        let mut obs = Counting { ticks: 0 };
        upgrade.run(&mut obs);
        assert!(obs.ticks > 5);
    }
}
