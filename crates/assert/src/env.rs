//! The expected environment: what the configuration repository says the
//! system *should* look like after (each stage of) the operation.

use pod_cloud::{
    AmiId, AsgName, Cluster, ElbName, Instance, KeyPairName, LaunchConfigName, SecurityGroupId,
};

/// Expected state of the upgraded cluster, shared by assertions and
/// diagnostic tests.
///
/// The paper's assertion evaluation consults "configuration repositories to
/// check the configuration values"; this struct is that repository for one
/// operation. The evaluation's second false-positive class — a concurrent
/// thread changing the "should-be" number — is reproduced by mutating
/// [`ExpectedEnv::expected_count`] from an interference operation while an
/// assertion is mid-flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpectedEnv {
    /// The ASG being upgraded.
    pub asg: AsgName,
    /// The load balancer fronting it.
    pub elb: ElbName,
    /// The launch configuration the upgrade installed.
    pub launch_config: LaunchConfigName,
    /// The AMI every new instance must use.
    pub expected_ami: AmiId,
    /// The application version baked into that AMI.
    pub expected_version: String,
    /// The key pair instances must be configured with.
    pub expected_key_pair: KeyPairName,
    /// The security group instances must be in.
    pub expected_security_group: SecurityGroupId,
    /// The instance type new instances must have.
    pub expected_instance_type: String,
    /// The number of instances the cluster should hold (the paper's `N`).
    pub expected_count: u32,
}

impl ExpectedEnv {
    /// The expectation that `cluster` stays exactly as created: `count`
    /// instances running application `version`.
    pub fn for_cluster(cluster: Cluster, version: &str, count: u32) -> ExpectedEnv {
        ExpectedEnv {
            asg: cluster.asg,
            elb: cluster.elb,
            launch_config: cluster.launch_config,
            expected_ami: cluster.ami,
            expected_version: version.to_string(),
            expected_key_pair: cluster.key_pair,
            expected_security_group: cluster.security_group,
            expected_instance_type: cluster.instance_type,
            expected_count: count,
        }
    }

    /// Whether `instance` matches the expected configuration: version and
    /// every launch parameter. What verification checks and what a repair
    /// replaces are both this predicate.
    pub fn matches(&self, instance: &Instance) -> bool {
        instance.version == self.expected_version
            && instance.ami == self.expected_ami
            && instance.key_pair == self.expected_key_pair
            && instance.security_group == self.expected_security_group
            && instance.instance_type == self.expected_instance_type
    }

    /// Renders the instantiation variables used when a fault tree is
    /// selected, e.g. `N` and the ASG name.
    pub fn variables(&self) -> Vec<(String, String)> {
        vec![
            ("ASG".to_string(), self.asg.to_string()),
            ("ELB".to_string(), self.elb.to_string()),
            ("LC".to_string(), self.launch_config.to_string()),
            ("AMI".to_string(), self.expected_ami.to_string()),
            ("VERSION".to_string(), self.expected_version.clone()),
            ("KEYPAIR".to_string(), self.expected_key_pair.to_string()),
            ("SG".to_string(), self.expected_security_group.to_string()),
            ("TYPE".to_string(), self.expected_instance_type.clone()),
            ("N".to_string(), self.expected_count.to_string()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> ExpectedEnv {
        ExpectedEnv {
            asg: AsgName::new("app-asg"),
            elb: ElbName::new("front"),
            launch_config: LaunchConfigName::new("lc-v2"),
            expected_ami: AmiId::new("ami-abc"),
            expected_version: "2.0".into(),
            expected_key_pair: KeyPairName::new("prod"),
            expected_security_group: SecurityGroupId::new("sg-1"),
            expected_instance_type: "m1.small".into(),
            expected_count: 4,
        }
    }

    #[test]
    fn variables_cover_all_parameters() {
        let vars = env().variables();
        assert_eq!(vars.len(), 9);
        assert!(vars.contains(&("N".to_string(), "4".to_string())));
        assert!(vars.contains(&("ASG".to_string(), "app-asg".to_string())));
    }

    #[test]
    fn matches_needs_the_version_and_every_launch_parameter() {
        let env = env();
        let good = Instance {
            id: pod_cloud::InstanceId::new("i-1"),
            state: pod_cloud::InstanceState::InService,
            ami: env.expected_ami.clone(),
            version: env.expected_version.clone(),
            instance_type: env.expected_instance_type.clone(),
            key_pair: env.expected_key_pair.clone(),
            security_group: env.expected_security_group.clone(),
            launch_config: None,
            asg: None,
            registered_with_elb: false,
            launched_at: pod_sim::SimTime::ZERO,
        };
        assert!(env.matches(&good));
        let flips: [fn(&mut Instance); 5] = [
            |i| i.version = "1.0".into(),
            |i| i.ami = AmiId::new("ami-old"),
            |i| i.key_pair = KeyPairName::new("attacker"),
            |i| i.security_group = SecurityGroupId::new("sg-open"),
            |i| i.instance_type = "m1.large".into(),
        ];
        for flip in flips {
            let mut bad = good.clone();
            flip(&mut bad);
            assert!(!env.matches(&bad), "{bad:?}");
        }
    }
}
