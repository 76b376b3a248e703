//! The pre-defined assertion library.
//!
//! Assertions capture "the expected outcomes of each intermediary step".
//! High-level assertions check the overall system ("assert the system has N
//! instances with the new version"); low-level assertions check one node or
//! one configuration value. Each assertion evaluates cloud state through the
//! consistent API layer and returns a typed outcome.

use pod_cloud::{Instance, InstanceId, InstanceState};

use crate::consistent::{ConsistentApi, ConsistentError};
use crate::env::ExpectedEnv;

/// Whether an assertion inspects the whole system or a single node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssertionLevel {
    /// System-wide ("the ASG has N instances of version V").
    High,
    /// Node- or value-specific ("instance i-x uses AMI a").
    Low,
}

/// The outcome of evaluating one assertion.
#[derive(Debug, Clone, PartialEq)]
pub enum AssertionOutcome {
    /// The asserted condition holds.
    Passed,
    /// The condition does not hold (or evaluation timed out, which the
    /// paper's implementation also counts as a failure).
    Failed {
        /// Human-readable cause, embedded in the assertion log line.
        reason: String,
    },
}

impl AssertionOutcome {
    /// Whether the assertion failed.
    pub fn is_failure(&self) -> bool {
        matches!(self, AssertionOutcome::Failed { .. })
    }
}

/// One assertion from the pre-defined library. Variables (the ASG name, N,
/// the expected AMI, …) are resolved against the [`ExpectedEnv`] at
/// evaluation time, mirroring the paper's fault-tree variable instantiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloudAssertion {
    /// The ASG has at least `count` `InService` instances running the
    /// expected version — the paper's flagship high-level assertion.
    AsgHasInstancesWithVersion {
        /// The required number of up-to-date instances.
        count: u32,
    },
    /// The ASG has exactly `count` active instances.
    AsgInstanceCount {
        /// The required instance count.
        count: u32,
    },
    /// The ASG's desired capacity equals `count` (detects concurrent
    /// scale-in/out operations).
    AsgDesiredCapacity {
        /// The expected desired capacity.
        count: u32,
    },
    /// The ASG has at least `count` active instances — the process-aware
    /// periodic health check (the floor accounts for in-flight
    /// replacements).
    AsgActiveCountAtLeast {
        /// The minimum active-instance count.
        count: u32,
    },
    /// The ASG points at the expected launch configuration.
    AsgLaunchConfigCorrect,
    /// Every active instance launched from the expected launch
    /// configuration matches the full expected configuration (version, AMI,
    /// key pair, security group, instance type). This is the fault-scoped
    /// repair check: it ignores instances from older launch configurations
    /// that a still-running operation has yet to replace, so it can pass
    /// mid-operation — unlike the whole-ASG count assertions.
    LaunchConfigInstancesConsistent,
    /// The launch configuration uses the expected AMI.
    LaunchConfigUsesAmi,
    /// The launch configuration uses the expected key pair.
    LaunchConfigUsesKeyPair,
    /// The launch configuration uses the expected security group.
    LaunchConfigUsesSecurityGroup,
    /// The launch configuration uses the expected instance type.
    LaunchConfigUsesInstanceType,
    /// The expected AMI exists and is available.
    AmiAvailable,
    /// The expected key pair exists.
    KeyPairAvailable,
    /// The expected security group exists.
    SecurityGroupAvailable,
    /// The ELB is up and serving.
    ElbAvailable,
    /// A specific instance runs the expected AMI (low-level double-check).
    InstanceUsesAmi {
        /// The instance to inspect.
        instance: InstanceId,
    },
    /// A specific instance matches the whole expected configuration — AMI,
    /// key pair, security group and instance type (the paper's "check for
    /// subtle errors … in the configuration").
    InstanceConfigurationCorrect {
        /// The instance to inspect.
        instance: InstanceId,
    },
    /// A specific instance is `InService`.
    InstanceInService {
        /// The instance to inspect.
        instance: InstanceId,
    },
    /// A specific instance is registered with the ELB.
    InstanceRegisteredWithElb {
        /// The instance to inspect.
        instance: InstanceId,
    },
    /// A specific instance is no longer registered with the ELB.
    InstanceDeregisteredFromElb {
        /// The instance to inspect.
        instance: InstanceId,
    },
    /// A specific instance has terminated.
    InstanceTerminated {
        /// The instance to inspect.
        instance: InstanceId,
    },
}

impl CloudAssertion {
    /// A stable key identifying the assertion *kind* — the lookup key for
    /// selecting the fault tree when this assertion fails ("there is one
    /// fault tree per assertion").
    pub fn key(&self) -> &'static str {
        match self {
            CloudAssertion::AsgHasInstancesWithVersion { .. } => "asg-has-n-instances-with-version",
            CloudAssertion::AsgInstanceCount { .. } => "asg-instance-count",
            CloudAssertion::AsgDesiredCapacity { .. } => "asg-desired-capacity",
            CloudAssertion::AsgActiveCountAtLeast { .. } => "asg-active-count-at-least",
            CloudAssertion::AsgLaunchConfigCorrect => "asg-launch-config-correct",
            CloudAssertion::LaunchConfigInstancesConsistent => "launch-config-instances-consistent",
            CloudAssertion::LaunchConfigUsesAmi => "launch-config-uses-ami",
            CloudAssertion::LaunchConfigUsesKeyPair => "launch-config-uses-key-pair",
            CloudAssertion::LaunchConfigUsesSecurityGroup => "launch-config-uses-security-group",
            CloudAssertion::LaunchConfigUsesInstanceType => "launch-config-uses-instance-type",
            CloudAssertion::AmiAvailable => "ami-available",
            CloudAssertion::KeyPairAvailable => "key-pair-available",
            CloudAssertion::SecurityGroupAvailable => "security-group-available",
            CloudAssertion::ElbAvailable => "elb-available",
            CloudAssertion::InstanceUsesAmi { .. } => "instance-uses-ami",
            CloudAssertion::InstanceConfigurationCorrect { .. } => "instance-configuration-correct",
            CloudAssertion::InstanceInService { .. } => "instance-in-service",
            CloudAssertion::InstanceRegisteredWithElb { .. } => "instance-registered-with-elb",
            CloudAssertion::InstanceDeregisteredFromElb { .. } => "instance-deregistered-from-elb",
            CloudAssertion::InstanceTerminated { .. } => "instance-terminated",
        }
    }

    /// High- or low-level, per the paper's classification.
    pub fn level(&self) -> AssertionLevel {
        match self {
            CloudAssertion::AsgHasInstancesWithVersion { .. }
            | CloudAssertion::AsgInstanceCount { .. }
            | CloudAssertion::AsgDesiredCapacity { .. }
            | CloudAssertion::AsgActiveCountAtLeast { .. }
            | CloudAssertion::ElbAvailable => AssertionLevel::High,
            _ => AssertionLevel::Low,
        }
    }

    /// A human-readable description with variables instantiated.
    pub fn describe(&self, env: &ExpectedEnv) -> String {
        match self {
            CloudAssertion::AsgHasInstancesWithVersion { count } => format!(
                "the ASG {} has {count} instances with version {}",
                env.asg, env.expected_version
            ),
            CloudAssertion::AsgInstanceCount { count } => {
                format!("the ASG {} has {count} instances", env.asg)
            }
            CloudAssertion::AsgDesiredCapacity { count } => {
                format!("the ASG {} has a desired capacity of {count}", env.asg)
            }
            CloudAssertion::AsgActiveCountAtLeast { count } => {
                format!("the ASG {} has at least {count} active instances", env.asg)
            }
            CloudAssertion::AsgLaunchConfigCorrect => format!(
                "the ASG {} uses launch configuration {}",
                env.asg, env.launch_config
            ),
            CloudAssertion::LaunchConfigInstancesConsistent => format!(
                "every active instance launched from {} matches the expected configuration",
                env.launch_config
            ),
            CloudAssertion::LaunchConfigUsesAmi => format!(
                "the launch configuration {} uses AMI {}",
                env.launch_config, env.expected_ami
            ),
            CloudAssertion::LaunchConfigUsesKeyPair => format!(
                "the launch configuration {} uses key pair {}",
                env.launch_config, env.expected_key_pair
            ),
            CloudAssertion::LaunchConfigUsesSecurityGroup => format!(
                "the launch configuration {} uses security group {}",
                env.launch_config, env.expected_security_group
            ),
            CloudAssertion::LaunchConfigUsesInstanceType => format!(
                "the launch configuration {} uses instance type {}",
                env.launch_config, env.expected_instance_type
            ),
            CloudAssertion::AmiAvailable => format!("the AMI {} is available", env.expected_ami),
            CloudAssertion::KeyPairAvailable => {
                format!("the key pair {} exists", env.expected_key_pair)
            }
            CloudAssertion::SecurityGroupAvailable => {
                format!("the security group {} exists", env.expected_security_group)
            }
            CloudAssertion::ElbAvailable => format!("the ELB {} is available", env.elb),
            CloudAssertion::InstanceUsesAmi { instance } => {
                format!("the instance {instance} uses AMI {}", env.expected_ami)
            }
            CloudAssertion::InstanceConfigurationCorrect { instance } => format!(
                "the instance {instance} matches the expected configuration (AMI {}, key pair \
                 {}, security group {}, type {})",
                env.expected_ami,
                env.expected_key_pair,
                env.expected_security_group,
                env.expected_instance_type
            ),
            CloudAssertion::InstanceInService { instance } => {
                format!("the instance {instance} is in service")
            }
            CloudAssertion::InstanceRegisteredWithElb { instance } => {
                format!("the instance {instance} is registered with ELB {}", env.elb)
            }
            CloudAssertion::InstanceDeregisteredFromElb { instance } => format!(
                "the instance {instance} is deregistered from ELB {}",
                env.elb
            ),
            CloudAssertion::InstanceTerminated { instance } => {
                format!("the instance {instance} is terminating or terminated")
            }
        }
    }

    /// Evaluates the assertion against live cloud state.
    ///
    /// Timeouts and exhausted retries are reported as failures, exactly as
    /// the paper's implementation treats them. The auto-scaling-group
    /// assertions count or check the group in place (`Cloud::with_asg*`):
    /// one metered read each, as a `describe_*` would be, without copying
    /// the group or its instances.
    pub fn evaluate(&self, api: &ConsistentApi, env: &ExpectedEnv) -> AssertionOutcome {
        let result: Result<(), String> = match self {
            CloudAssertion::AsgHasInstancesWithVersion { count } => {
                let needed = *count;
                match api.read_until(
                    |c| c.with_asg_instances(&env.asg, |is| in_service_with_version(is, env)),
                    |&n| n as u32 >= needed,
                ) {
                    Ok(_) => Ok(()),
                    Err(e) => Err(self.observe_version_shortfall(api, env, needed, e)),
                }
            }
            CloudAssertion::AsgInstanceCount { count } => {
                let needed = *count;
                map(api.read_until(
                    |c| c.with_asg(&env.asg, |g| g.instances.len() as u32),
                    |&n| n == needed,
                ))
            }
            CloudAssertion::AsgDesiredCapacity { count } => {
                let needed = *count;
                map(api.read_until(
                    |c| c.with_asg(&env.asg, |g| g.desired_capacity),
                    |&n| n == needed,
                ))
            }
            CloudAssertion::AsgActiveCountAtLeast { count } => {
                let needed = *count as usize;
                map(api.read_until(
                    |c| {
                        c.with_asg_instances(&env.asg, |is| {
                            is.iter().filter(|i| i.state.is_active()).count()
                        })
                    },
                    |&n| n >= needed,
                ))
            }
            CloudAssertion::AsgLaunchConfigCorrect => map(api.read_until(
                |c| c.with_asg(&env.asg, |g| g.launch_config == env.launch_config),
                |&correct| correct,
            )),
            CloudAssertion::LaunchConfigInstancesConsistent => map(api.read_until(
                |c| {
                    c.with_asg_instances(&env.asg, |is| {
                        is.iter()
                            .filter(|i| {
                                i.state.is_active()
                                    && i.launch_config.as_ref() == Some(&env.launch_config)
                            })
                            .all(|i| env.matches(i))
                    })
                },
                |&consistent| consistent,
            )),
            CloudAssertion::LaunchConfigUsesAmi => map(api.read_until(
                |c| c.describe_launch_config(&env.launch_config),
                |lc| lc.ami == env.expected_ami,
            )),
            CloudAssertion::LaunchConfigUsesKeyPair => map(api.read_until(
                |c| c.describe_launch_config(&env.launch_config),
                |lc| lc.key_pair == env.expected_key_pair,
            )),
            CloudAssertion::LaunchConfigUsesSecurityGroup => map(api.read_until(
                |c| c.describe_launch_config(&env.launch_config),
                |lc| lc.security_group == env.expected_security_group,
            )),
            CloudAssertion::LaunchConfigUsesInstanceType => map(api.read_until(
                |c| c.describe_launch_config(&env.launch_config),
                |lc| lc.instance_type == env.expected_instance_type,
            )),
            CloudAssertion::AmiAvailable => {
                map(api.read_until(|c| c.describe_ami(&env.expected_ami), |a| a.available))
            }
            CloudAssertion::KeyPairAvailable => map(api.read_until(
                |c| c.describe_key_pair(&env.expected_key_pair),
                |k| k.available,
            )),
            CloudAssertion::SecurityGroupAvailable => map(api.read_until(
                |c| c.describe_security_group(&env.expected_security_group),
                |s| s.available,
            )),
            CloudAssertion::ElbAvailable => {
                map(api.read_until(|c| c.describe_elb(&env.elb), |e| e.available))
            }
            CloudAssertion::InstanceUsesAmi { instance } => map(api.read_until(
                |c| c.describe_instance(instance),
                |i| i.ami == env.expected_ami,
            )),
            CloudAssertion::InstanceConfigurationCorrect { instance } => map(api.read_until(
                |c| c.describe_instance(instance),
                |i| {
                    i.ami == env.expected_ami
                        && i.key_pair == env.expected_key_pair
                        && i.security_group == env.expected_security_group
                        && i.instance_type == env.expected_instance_type
                },
            )),
            CloudAssertion::InstanceInService { instance } => map(api.read_until(
                |c| c.describe_instance(instance),
                |i| i.state == InstanceState::InService,
            )),
            CloudAssertion::InstanceRegisteredWithElb { instance } => map(api.read_until(
                |c| c.describe_elb(&env.elb),
                |e| e.registered.contains(instance),
            )),
            CloudAssertion::InstanceDeregisteredFromElb { instance } => map(api.read_until(
                |c| c.describe_elb(&env.elb),
                |e| !e.registered.contains(instance),
            )),
            CloudAssertion::InstanceTerminated { instance } => map(api.read_until(
                |c| c.describe_instance(instance),
                |i| {
                    matches!(
                        i.state,
                        InstanceState::Terminating | InstanceState::Terminated
                    )
                },
            )),
        };
        match result {
            Ok(()) => AssertionOutcome::Passed,
            Err(reason) => AssertionOutcome::Failed { reason },
        }
    }

    /// On a version-count failure, fetch one authoritative-ish observation
    /// so the failure reason carries the observed shortfall.
    fn observe_version_shortfall(
        &self,
        api: &ConsistentApi,
        env: &ExpectedEnv,
        needed: u32,
        err: ConsistentError,
    ) -> String {
        let observed = api
            .cloud()
            .with_asg_instances(&env.asg, |is| in_service_with_version(is, env))
            .unwrap_or(0);
        match err {
            ConsistentError::Timeout { elapsed } => format!(
                "evaluation timed out after {elapsed}; observed {observed}/{needed} instances \
                 with version {}",
                env.expected_version
            ),
            _ => format!(
                "observed {observed}/{needed} in-service instances with version {}",
                env.expected_version
            ),
        }
    }
}

/// How many of `instances` are in service with the expected version.
fn in_service_with_version(instances: &[&Instance], env: &ExpectedEnv) -> usize {
    instances
        .iter()
        .filter(|i| i.state == InstanceState::InService && i.version == env.expected_version)
        .count()
}

fn map<T>(r: Result<T, ConsistentError>) -> Result<(), String> {
    match r {
        Ok(_) => Ok(()),
        Err(e) => Err(e.to_string()),
    }
}

/// An assertion bound to a process step, possibly parameterised by fields
/// of the triggering log line (the analyst "links their assertions with the
/// operation processes").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundAssertion {
    /// A fully specified assertion.
    Fixed(CloudAssertion),
    /// "Assert the system has `<field>` instances with the new version",
    /// where the count comes from a field of the triggering log line (e.g.
    /// Asgard's "3 of 4 instance relaunches done" yields `done = 3`).
    VersionCountFromField {
        /// The log field holding the count.
        field: String,
    },
    /// "Assert the system has N instances with the new version", with N
    /// taken from the expected environment at evaluation time — the final
    /// whole-cluster check.
    VersionCountFromEnv,
    /// Per-instance check against the instance id extracted from the
    /// triggering log line.
    InstanceFromContext {
        /// Which per-instance assertion to build.
        kind: InstanceAssertionKind,
    },
}

/// A per-instance assertion waiting for its instance id: from the log
/// context of a triggering line, or from the error context of a diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceAssertionKind {
    /// The instance runs the expected AMI.
    UsesExpectedAmi,
    /// The instance matches the whole expected configuration.
    ConfigurationCorrect,
    /// The instance is in service.
    InService,
    /// The instance is registered with the ELB.
    RegisteredWithElb,
    /// The instance has been deregistered from the ELB.
    DeregisteredFromElb,
    /// The instance has terminated.
    Terminated,
}

impl InstanceAssertionKind {
    /// The concrete assertion about `instance`.
    pub fn on(self, instance: InstanceId) -> CloudAssertion {
        match self {
            Self::UsesExpectedAmi => CloudAssertion::InstanceUsesAmi { instance },
            Self::ConfigurationCorrect => CloudAssertion::InstanceConfigurationCorrect { instance },
            Self::InService => CloudAssertion::InstanceInService { instance },
            Self::RegisteredWithElb => CloudAssertion::InstanceRegisteredWithElb { instance },
            Self::DeregisteredFromElb => CloudAssertion::InstanceDeregisteredFromElb { instance },
            Self::Terminated => CloudAssertion::InstanceTerminated { instance },
        }
    }
}

impl BoundAssertion {
    /// Resolves the binding into a concrete assertion using the triggering
    /// stored line and the current expected instance count. Returns `None`
    /// when a required field or context is missing (e.g. a timer-triggered
    /// evaluation with no log line).
    pub fn resolve(
        &self,
        line: Option<&pod_log::StoredLine>,
        expected_count: u32,
    ) -> Option<CloudAssertion> {
        match self {
            BoundAssertion::Fixed(a) => Some(a.clone()),
            BoundAssertion::VersionCountFromField { field } => {
                let count: u32 = line?.field(field)?.parse().ok()?;
                Some(CloudAssertion::AsgHasInstancesWithVersion { count })
            }
            BoundAssertion::VersionCountFromEnv => {
                Some(CloudAssertion::AsgHasInstancesWithVersion {
                    count: expected_count,
                })
            }
            BoundAssertion::InstanceFromContext { kind } => {
                let line = line?;
                let id = line.cloud_instance().or_else(|| line.field("instanceid"))?;
                Some(kind.on(InstanceId::new(id)))
            }
        }
    }
}

/// Binds assertions to the process activity whose completion triggers them.
#[derive(Debug, Clone)]
pub struct AssertionBinding {
    /// The activity name (must match the rule book / model).
    pub activity: String,
    /// Assertions evaluated when the activity completes.
    pub assertions: Vec<BoundAssertion>,
}

/// The per-process assertion library: activity → assertions.
#[derive(Debug, Clone, Default)]
pub struct AssertionLibrary {
    bindings: Vec<AssertionBinding>,
}

impl AssertionLibrary {
    /// Creates an empty library.
    pub fn new() -> AssertionLibrary {
        AssertionLibrary::default()
    }

    /// Adds a binding.
    pub fn bind(&mut self, activity: impl Into<String>, assertions: Vec<BoundAssertion>) {
        self.bindings.push(AssertionBinding {
            activity: activity.into(),
            assertions,
        });
    }

    /// Assertions bound to an activity (empty slice when none).
    pub fn for_activity(&self, activity: &str) -> &[BoundAssertion] {
        self.bindings
            .iter()
            .find(|b| b.activity == activity)
            .map(|b| b.assertions.as_slice())
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistent::RetryPolicy;
    use pod_cloud::{Cloud, CloudConfig};
    use pod_sim::{Clock, SimRng};

    /// Shared by `Arc` between engines: an `Rc` or `RefCell` inside stops this compiling.
    #[test]
    fn library_is_shareable_across_threads() {
        fn shared<T: Send + Sync>() {}
        shared::<AssertionLibrary>();
    }

    fn setup() -> (ConsistentApi, ExpectedEnv, Cloud) {
        let cloud = Cloud::new(
            Clock::new(),
            SimRng::seed_from(5),
            CloudConfig {
                stale_read_prob: 0.0,
                ..CloudConfig::default()
            },
        );
        let ami = cloud.admin_create_ami("app", "2.0");
        let cluster = cloud.admin_create_cluster(ami, "prod", "lc-v2", "app-asg", 10, 4);
        let env = ExpectedEnv::for_cluster(cluster, "2.0", 4);
        let policy = RetryPolicy {
            max_retries: 3,
            timeout: pod_sim::SimDuration::from_secs(10),
            ..RetryPolicy::default()
        };
        (ConsistentApi::new(cloud.clone(), policy), env, cloud)
    }

    #[test]
    fn healthy_cluster_passes_the_headline_assertion() {
        let (api, env, _cloud) = setup();
        let a = CloudAssertion::AsgHasInstancesWithVersion { count: 4 };
        assert_eq!(a.evaluate(&api, &env), AssertionOutcome::Passed);
        assert_eq!(a.level(), AssertionLevel::High);
    }

    #[test]
    fn version_shortfall_fails_with_observation() {
        let (api, env, cloud) = setup();
        // Kill one instance; the ASG will not have replaced it yet.
        let victim = cloud.admin_describe_asg(&env.asg).unwrap().instances[0].clone();
        cloud.admin_terminate_instance(&victim);
        cloud.sleep(pod_sim::SimDuration::from_secs(60));
        // Freeze reconciliation effects by asserting a count the group
        // cannot reach within the retry budget... the replacement may have
        // booted, so assert more than desired.
        let a = CloudAssertion::AsgHasInstancesWithVersion { count: 5 };
        match a.evaluate(&api, &env) {
            AssertionOutcome::Failed { reason } => {
                assert!(reason.contains("/5"), "reason: {reason}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn launch_config_assertions_detect_misconfiguration() {
        let (api, env, cloud) = setup();
        let wrong_kp = cloud.admin_create_key_pair("attacker-key");
        cloud.admin_update_launch_config(
            &env.launch_config,
            pod_cloud::LaunchConfigUpdate {
                key_pair: Some(wrong_kp),
                ..pod_cloud::LaunchConfigUpdate::default()
            },
        );
        assert!(CloudAssertion::LaunchConfigUsesKeyPair
            .evaluate(&api, &env)
            .is_failure());
        // The others still pass.
        assert_eq!(
            CloudAssertion::LaunchConfigUsesAmi.evaluate(&api, &env),
            AssertionOutcome::Passed
        );
        assert_eq!(
            CloudAssertion::LaunchConfigUsesSecurityGroup.evaluate(&api, &env),
            AssertionOutcome::Passed
        );
        assert_eq!(
            CloudAssertion::LaunchConfigUsesInstanceType.evaluate(&api, &env),
            AssertionOutcome::Passed
        );
    }

    #[test]
    fn resource_availability_assertions() {
        let (api, env, cloud) = setup();
        assert_eq!(
            CloudAssertion::AmiAvailable.evaluate(&api, &env),
            AssertionOutcome::Passed
        );
        cloud.admin_set_ami_available(&env.expected_ami, false);
        assert!(CloudAssertion::AmiAvailable
            .evaluate(&api, &env)
            .is_failure());
        cloud.admin_set_elb_available(&env.elb, false);
        assert!(CloudAssertion::ElbAvailable
            .evaluate(&api, &env)
            .is_failure());
    }

    #[test]
    fn instance_level_assertions() {
        let (api, env, cloud) = setup();
        let id = cloud.admin_describe_asg(&env.asg).unwrap().instances[0].clone();
        assert_eq!(
            CloudAssertion::InstanceInService {
                instance: id.clone()
            }
            .evaluate(&api, &env),
            AssertionOutcome::Passed
        );
        assert_eq!(
            CloudAssertion::InstanceRegisteredWithElb {
                instance: id.clone()
            }
            .evaluate(&api, &env),
            AssertionOutcome::Passed
        );
        assert!(CloudAssertion::InstanceTerminated {
            instance: id.clone()
        }
        .evaluate(&api, &env)
        .is_failure());
        cloud.admin_terminate_instance(&id);
        cloud.sleep(pod_sim::SimDuration::from_secs(120));
        assert_eq!(
            CloudAssertion::InstanceTerminated {
                instance: id.clone()
            }
            .evaluate(&api, &env),
            AssertionOutcome::Passed
        );
        assert_eq!(
            CloudAssertion::InstanceDeregisteredFromElb { instance: id }.evaluate(&api, &env),
            AssertionOutcome::Passed
        );
    }

    #[test]
    fn every_instance_kind_binds_its_own_assertion_to_the_instance() {
        use InstanceAssertionKind::*;
        let id = InstanceId::new("i-1");
        let bound = |kind: InstanceAssertionKind| kind.on(id.clone()).key();
        assert_eq!(bound(UsesExpectedAmi), "instance-uses-ami");
        assert_eq!(
            bound(ConfigurationCorrect),
            "instance-configuration-correct"
        );
        assert_eq!(bound(InService), "instance-in-service");
        assert_eq!(bound(RegisteredWithElb), "instance-registered-with-elb");
        assert_eq!(bound(DeregisteredFromElb), "instance-deregistered-from-elb");
        assert_eq!(bound(Terminated), "instance-terminated");
        let instance = id.clone();
        assert_eq!(
            InService.on(id),
            CloudAssertion::InstanceInService { instance }
        );
    }

    #[test]
    fn descriptions_instantiate_variables() {
        let (_api, env, _cloud) = setup();
        let d = CloudAssertion::AsgHasInstancesWithVersion { count: 4 }.describe(&env);
        assert!(d.contains("app-asg") && d.contains("4") && d.contains("2.0"));
    }

    #[test]
    fn library_lookup() {
        let mut lib = AssertionLibrary::new();
        lib.bind(
            "new-instance-ready",
            vec![BoundAssertion::Fixed(
                CloudAssertion::AsgHasInstancesWithVersion { count: 4 },
            )],
        );
        assert_eq!(lib.for_activity("new-instance-ready").len(), 1);
        assert!(lib.for_activity("unknown").is_empty());
        assert_eq!(lib.bindings.len(), 1);
    }
}
