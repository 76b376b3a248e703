//! Fault injection and interference operations (Section V of the paper).
//!
//! "We injected 8 different types of faults into the clusters … We also
//! injected simultaneous operations (such as legitimate scaling in/out or
//! changes to instances) to confound our diagnosis."

use std::fmt;

use pod_cloud::{AmiId, Cloud, InstanceId, KeyPairName, LaunchConfigUpdate, SecurityGroupId};
use pod_sim::SimRng;

use crate::config::UpgradeConfig;

/// The eight injected fault types of the evaluation (Section V.C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultType {
    /// 1 — AMI changed during upgrade (simultaneous independent push).
    AmiChangedDuringUpgrade,
    /// 2 — key-pair management fault (wrong key configured).
    KeyPairManagementFault,
    /// 3 — security-group configuration fault.
    SecurityGroupConfigurationFault,
    /// 4 — instance type changed during upgrade.
    InstanceTypeChangedDuringUpgrade,
    /// 5 — AMI unavailable during upgrade.
    AmiUnavailable,
    /// 6 — key pair unavailable during upgrade.
    KeyPairUnavailable,
    /// 7 — security group unavailable during upgrade.
    SecurityGroupUnavailable,
    /// 8 — ELB unavailable during upgrade.
    ElbUnavailable,
}

impl FaultType {
    /// All eight types, in the paper's order.
    pub fn all() -> [FaultType; 8] {
        [
            FaultType::AmiChangedDuringUpgrade,
            FaultType::KeyPairManagementFault,
            FaultType::SecurityGroupConfigurationFault,
            FaultType::InstanceTypeChangedDuringUpgrade,
            FaultType::AmiUnavailable,
            FaultType::KeyPairUnavailable,
            FaultType::SecurityGroupUnavailable,
            FaultType::ElbUnavailable,
        ]
    }

    /// Whether the fault is a *configuration* fault whose log output looks
    /// normal (the paper's first four types, invisible to conformance
    /// checking) as opposed to a *resource* fault that disturbs the log.
    pub fn is_configuration_fault(self) -> bool {
        matches!(
            self,
            FaultType::AmiChangedDuringUpgrade
                | FaultType::KeyPairManagementFault
                | FaultType::SecurityGroupConfigurationFault
                | FaultType::InstanceTypeChangedDuringUpgrade
        )
    }

    /// The fault-tree node id that correctly explains this fault — the
    /// ground truth the evaluation scores diagnosis against.
    pub fn expected_root_cause(self) -> &'static str {
        match self {
            FaultType::AmiChangedDuringUpgrade => "lc-wrong-ami",
            FaultType::KeyPairManagementFault => "lc-wrong-key-pair",
            FaultType::SecurityGroupConfigurationFault => "lc-wrong-sg",
            FaultType::InstanceTypeChangedDuringUpgrade => "lc-wrong-instance-type",
            FaultType::AmiUnavailable => "ami-unavailable",
            FaultType::KeyPairUnavailable => "key-pair-unavailable",
            FaultType::SecurityGroupUnavailable => "sg-unavailable",
            FaultType::ElbUnavailable => "elb-unavailable",
        }
    }
}

impl fmt::Display for FaultType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FaultType::AmiChangedDuringUpgrade => "AMI changed during upgrade",
            FaultType::KeyPairManagementFault => "key pair management fault",
            FaultType::SecurityGroupConfigurationFault => "security group configuration fault",
            FaultType::InstanceTypeChangedDuringUpgrade => "instance type changed during upgrade",
            FaultType::AmiUnavailable => "AMI is unavailable during upgrade",
            FaultType::KeyPairUnavailable => "key pair is unavailable during upgrade",
            FaultType::SecurityGroupUnavailable => "security group is unavailable during upgrade",
            FaultType::ElbUnavailable => "ELB is unavailable during upgrade",
        };
        f.write_str(name)
    }
}

/// Injects and (optionally) reverts one fault. Keeps the handles needed to
/// undo the mutation, so the harness can model *transient* faults — the
/// paper's third wrong-diagnosis class is a fault corrected before the
/// on-demand diagnosis test runs.
#[derive(Debug)]
pub struct FaultInjector {
    fault: FaultType,
    /// Resources created for the injection (e.g. the "evil" AMI).
    undo: Option<UndoAction>,
}

#[derive(Debug)]
enum UndoAction {
    LaunchConfig(LaunchConfigUpdate),
    Ami(AmiId),
    KeyPair(KeyPairName),
    SecurityGroup(SecurityGroupId),
    Elb(pod_cloud::ElbName),
}

impl FaultInjector {
    /// Creates an injector for one fault type.
    pub fn new(fault: FaultType) -> FaultInjector {
        FaultInjector { fault, undo: None }
    }

    /// The fault this injector handles.
    pub fn fault(&self) -> FaultType {
        self.fault
    }

    /// Applies the fault to the environment of `config`'s upgrade. The
    /// launch-configuration faults target the LC the upgrade created
    /// (`lc_name`), simulating a concurrent team's push or a
    /// misconfiguration landing mid-upgrade.
    pub fn inject(
        &mut self,
        cloud: &Cloud,
        config: &UpgradeConfig,
        lc_name: &str,
        rng: &mut SimRng,
    ) {
        let lc = pod_cloud::LaunchConfigName::new(lc_name);
        match self.fault {
            FaultType::AmiChangedDuringUpgrade => {
                let rogue = cloud
                    .admin_create_ami("rogue-push", &format!("9.{}.0", rng.uniform_u64(0, 100)));
                self.undo = Some(UndoAction::LaunchConfig(LaunchConfigUpdate {
                    ami: Some(config.new_ami.clone()),
                    ..LaunchConfigUpdate::default()
                }));
                cloud.admin_update_launch_config(
                    &lc,
                    LaunchConfigUpdate {
                        ami: Some(rogue),
                        ..LaunchConfigUpdate::default()
                    },
                );
            }
            FaultType::KeyPairManagementFault => {
                let rogue =
                    cloud.admin_create_key_pair(&format!("stray-key-{}", rng.uniform_u64(0, 1000)));
                let current = cloud.admin_describe_launch_config(&lc);
                self.undo = Some(UndoAction::LaunchConfig(LaunchConfigUpdate {
                    key_pair: current.map(|c| c.key_pair),
                    ..LaunchConfigUpdate::default()
                }));
                cloud.admin_update_launch_config(
                    &lc,
                    LaunchConfigUpdate {
                        key_pair: Some(rogue),
                        ..LaunchConfigUpdate::default()
                    },
                );
            }
            FaultType::SecurityGroupConfigurationFault => {
                let rogue = cloud.admin_create_security_group("misconfigured", &[22]);
                let current = cloud.admin_describe_launch_config(&lc);
                self.undo = Some(UndoAction::LaunchConfig(LaunchConfigUpdate {
                    security_group: current.map(|c| c.security_group),
                    ..LaunchConfigUpdate::default()
                }));
                cloud.admin_update_launch_config(
                    &lc,
                    LaunchConfigUpdate {
                        security_group: Some(rogue),
                        ..LaunchConfigUpdate::default()
                    },
                );
            }
            FaultType::InstanceTypeChangedDuringUpgrade => {
                let current = cloud.admin_describe_launch_config(&lc);
                self.undo = Some(UndoAction::LaunchConfig(LaunchConfigUpdate {
                    instance_type: current.map(|c| c.instance_type.to_string()),
                    ..LaunchConfigUpdate::default()
                }));
                cloud.admin_update_launch_config(
                    &lc,
                    LaunchConfigUpdate {
                        instance_type: Some("m3.2xlarge".to_string()),
                        ..LaunchConfigUpdate::default()
                    },
                );
            }
            FaultType::AmiUnavailable => {
                cloud.admin_set_ami_available(&config.new_ami, false);
                self.undo = Some(UndoAction::Ami(config.new_ami.clone()));
            }
            FaultType::KeyPairUnavailable => {
                if let Some(current) = cloud.admin_describe_launch_config(&lc).map(|c| c.key_pair) {
                    cloud.admin_set_key_pair_available(&current, false);
                    self.undo = Some(UndoAction::KeyPair(current));
                }
            }
            FaultType::SecurityGroupUnavailable => {
                if let Some(current) = cloud
                    .admin_describe_launch_config(&lc)
                    .map(|c| c.security_group)
                {
                    cloud.admin_set_security_group_available(&current, false);
                    self.undo = Some(UndoAction::SecurityGroup(current));
                }
            }
            FaultType::ElbUnavailable => {
                cloud.admin_set_elb_available(&config.elb, false);
                self.undo = Some(UndoAction::Elb(config.elb.clone()));
            }
        }
    }

    /// Reverts the injected fault (for transient-fault scenarios). Returns
    /// `true` if there was something to revert.
    pub fn revert(&mut self, cloud: &Cloud, lc_name: &str) -> bool {
        let lc = pod_cloud::LaunchConfigName::new(lc_name);
        match self.undo.take() {
            Some(UndoAction::LaunchConfig(update)) => {
                cloud.admin_update_launch_config(&lc, update);
                true
            }
            Some(UndoAction::Ami(ami)) => {
                cloud.admin_set_ami_available(&ami, true);
                true
            }
            Some(UndoAction::KeyPair(kp)) => {
                cloud.admin_set_key_pair_available(&kp, true);
                true
            }
            Some(UndoAction::SecurityGroup(sg)) => {
                cloud.admin_set_security_group_available(&sg, true);
                true
            }
            Some(UndoAction::Elb(elb)) => {
                cloud.admin_set_elb_available(&elb, true);
                true
            }
            None => false,
        }
    }
}

/// The simultaneous operations the evaluation runs to confound diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interference {
    /// A legitimate ASG scale-in (desired capacity − 1).
    ScaleIn,
    /// A legitimate scale-out (desired capacity + 1).
    ScaleOut,
    /// A random instance termination outside any operation.
    RandomTermination,
    /// The independent team on the shared account consumes capacity until
    /// the instance limit binds.
    OtherTeamCapacityPressure,
}

impl Interference {
    /// Applies the interference. Returns the standalone instances launched
    /// by capacity pressure (so the harness can release them later).
    pub fn apply(self, cloud: &Cloud, config: &UpgradeConfig, rng: &mut SimRng) -> Vec<InstanceId> {
        match self {
            Interference::ScaleIn | Interference::ScaleOut => {
                if let Some(group) = cloud.admin_describe_asg(&config.asg) {
                    let desired = if self == Interference::ScaleIn {
                        group.desired_capacity.saturating_sub(1).max(group.min_size)
                    } else {
                        (group.desired_capacity + 1).min(group.max_size)
                    };
                    let _ = cloud.update_asg(
                        &config.asg,
                        pod_cloud::AsgUpdate {
                            desired_capacity: Some(desired),
                            ..pod_cloud::AsgUpdate::default()
                        },
                    );
                }
                Vec::new()
            }
            Interference::RandomTermination => {
                let active = cloud.admin_asg_active_instances(&config.asg);
                if !active.is_empty() {
                    let victim = &active[rng.index(active.len())];
                    cloud.admin_terminate_instance(&victim.id);
                }
                Vec::new()
            }
            Interference::OtherTeamCapacityPressure => {
                let other_ami = cloud.admin_create_ami("other-team", "0.1");
                let ids = cloud.admin_launch_standalone(2, &other_ami);
                // The other team has effectively reserved the remaining
                // quota: even a freed slot is snapped up before the ASG can
                // use it. Model this by putting the limit below current
                // usage, so replacement launches stay blocked until the
                // pressure is released.
                let used = cloud.admin_active_instance_count();
                cloud.admin_set_instance_limit(used.saturating_sub(1));
                ids
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_cloud::{CloudConfig, InstanceState};
    use pod_sim::{Clock, SimDuration};

    fn setup() -> (Cloud, UpgradeConfig, String) {
        let cloud = Cloud::new(
            Clock::new(),
            SimRng::seed_from(41),
            CloudConfig {
                stale_read_prob: 0.0,
                ..CloudConfig::default()
            },
        );
        let ami_v2 = cloud.admin_create_ami("app", "2.0");
        let cluster = cloud.admin_create_cluster(ami_v2.clone(), "prod", "lc-up", "pm--asg", 30, 4);
        let config = UpgradeConfig::new("pm", cluster.asg, cluster.elb, ami_v2);
        (cloud, config, cluster.launch_config.to_string())
    }

    #[test]
    fn all_eight_faults_inject_and_revert() {
        for fault in FaultType::all() {
            let (cloud, config, lc) = setup();
            let mut rng = SimRng::seed_from(1);
            let mut injector = FaultInjector::new(fault);
            injector.inject(&cloud, &config, &lc, &mut rng);
            assert!(injector.revert(&cloud, &lc), "revert {fault}");
            assert!(!injector.revert(&cloud, &lc), "second revert is a no-op");
        }
    }

    #[test]
    fn ami_change_fault_alters_launch_config() {
        let (cloud, config, lc) = setup();
        let mut rng = SimRng::seed_from(2);
        let mut injector = FaultInjector::new(FaultType::AmiChangedDuringUpgrade);
        injector.inject(&cloud, &config, &lc, &mut rng);
        let current = cloud
            .admin_describe_launch_config(&pod_cloud::LaunchConfigName::new(&lc))
            .unwrap();
        assert_ne!(current.ami, config.new_ami);
        injector.revert(&cloud, &lc);
        let current = cloud
            .admin_describe_launch_config(&pod_cloud::LaunchConfigName::new(&lc))
            .unwrap();
        assert_eq!(current.ami, config.new_ami);
    }

    #[test]
    fn configuration_classification_matches_paper() {
        let conf: Vec<_> = FaultType::all()
            .into_iter()
            .filter(|f| f.is_configuration_fault())
            .collect();
        assert_eq!(conf.len(), 4);
        assert!(conf.contains(&FaultType::AmiChangedDuringUpgrade));
        assert!(!FaultType::ElbUnavailable.is_configuration_fault());
    }

    #[test]
    fn scale_in_reduces_desired() {
        let (cloud, config, _) = setup();
        let mut rng = SimRng::seed_from(3);
        Interference::ScaleIn.apply(&cloud, &config, &mut rng);
        cloud.sleep(SimDuration::from_secs(1));
        assert_eq!(
            cloud
                .admin_describe_asg(&config.asg)
                .unwrap()
                .desired_capacity,
            3
        );
    }

    #[test]
    fn random_termination_kills_a_member() {
        let (cloud, config, _) = setup();
        let mut rng = SimRng::seed_from(4);
        Interference::RandomTermination.apply(&cloud, &config, &mut rng);
        cloud.sleep(SimDuration::from_secs(5));
        let terminating = cloud
            .admin_describe_asg(&config.asg)
            .unwrap()
            .instances
            .iter()
            .filter(|id| {
                cloud
                    .admin_describe_instance(id)
                    .is_some_and(|i| i.state == InstanceState::Terminating)
            })
            .count();
        assert_eq!(terminating, 1);
    }

    #[test]
    fn capacity_pressure_binds_the_limit() {
        let (cloud, config, _) = setup();
        let mut rng = SimRng::seed_from(5);
        let ids = Interference::OtherTeamCapacityPressure.apply(&cloud, &config, &mut rng);
        assert_eq!(ids.len(), 2);
        // Headroom is zero: count == limit.
        assert_eq!(cloud.admin_active_instance_count(), 6);
    }

    #[test]
    fn expected_root_causes_are_distinct() {
        let mut causes: Vec<&str> = FaultType::all()
            .into_iter()
            .map(|f| f.expected_root_cause())
            .collect();
        causes.sort();
        causes.dedup();
        assert_eq!(causes.len(), 8);
    }
}
