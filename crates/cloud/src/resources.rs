//! Resource records for the simulated cloud.

use pod_sim::SimTime;

use crate::ids::{
    AmiId, AsgName, ElbName, InstanceId, KeyPairName, LaunchConfigName, SecurityGroupId,
};

/// A machine image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ami {
    /// The image id.
    pub id: AmiId,
    /// Human-readable name.
    pub name: String,
    /// The application version baked into the image (e.g. `1.1.0`).
    pub version: String,
    /// Whether the image is currently available for launching.
    pub available: bool,
}

/// A security group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SecurityGroup {
    /// The group id.
    pub id: SecurityGroupId,
    /// Human-readable name.
    pub name: String,
    /// Open ingress ports (simplified rule model).
    pub ingress_ports: Vec<u16>,
    /// Whether the group still exists / is usable.
    pub available: bool,
}

/// An SSH key pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPair {
    /// The key name.
    pub name: KeyPairName,
    /// Fingerprint (opaque).
    pub fingerprint: String,
    /// Whether the key still exists.
    pub available: bool,
}

/// A launch configuration: the template an ASG launches instances from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchConfig {
    /// The configuration name.
    pub name: LaunchConfigName,
    /// Image to launch.
    pub ami: AmiId,
    /// Instance type (e.g. `m1.small`).
    pub instance_type: String,
    /// Key pair for SSH access.
    pub key_pair: KeyPairName,
    /// Security group applied to instances.
    pub security_group: SecurityGroupId,
}

/// Lifecycle state of an EC2 instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    /// Requested, still booting.
    Pending,
    /// Booted and passing health checks.
    InService,
    /// Termination requested.
    Terminating,
    /// Gone.
    Terminated,
}

impl InstanceState {
    /// Whether the instance still counts against capacity.
    pub fn is_active(self) -> bool {
        matches!(self, InstanceState::Pending | InstanceState::InService)
    }
}

/// An EC2 instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// The instance id.
    pub id: InstanceId,
    /// Lifecycle state.
    pub state: InstanceState,
    /// The image it was launched from.
    pub ami: AmiId,
    /// The application version of that image at launch time.
    pub version: String,
    /// Instance type.
    pub instance_type: String,
    /// Key pair configured at launch.
    pub key_pair: KeyPairName,
    /// Security group configured at launch.
    pub security_group: SecurityGroupId,
    /// The launch configuration used, if launched by an ASG.
    pub launch_config: Option<LaunchConfigName>,
    /// The owning ASG, if any.
    pub asg: Option<AsgName>,
    /// Whether the instance is registered with its ELB.
    pub registered_with_elb: bool,
    /// Launch request time.
    pub launched_at: SimTime,
}

/// An auto-scaling group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutoScalingGroup {
    /// Group name.
    pub name: AsgName,
    /// Launch configuration new instances use.
    pub launch_config: LaunchConfigName,
    /// Minimum size.
    pub min_size: u32,
    /// Maximum size.
    pub max_size: u32,
    /// Desired capacity; the reconciler drives actual size toward this.
    pub desired_capacity: u32,
    /// Ids of member instances (any active state).
    pub instances: Vec<InstanceId>,
    /// Attached load balancer.
    pub elb: Option<ElbName>,
}

/// An elastic load balancer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Elb {
    /// Balancer name.
    pub name: ElbName,
    /// Instances currently registered.
    pub registered: Vec<InstanceId>,
    /// Whether the service is up (fault type 8 marks it unavailable).
    pub available: bool,
}

/// One entry in the ASG's scaling-activity history (what Asgard polls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalingActivity {
    /// Time the activity was recorded.
    pub at: SimTime,
    /// The ASG concerned.
    pub asg: AsgName,
    /// What happened.
    pub description: String,
    /// Whether it succeeded.
    pub status: ActivityStatus,
}

/// Outcome of a scaling activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ActivityStatus {
    /// Completed successfully.
    Successful,
    /// Failed, with the cloud-side error message.
    Failed(String),
    /// Still in progress.
    InProgress,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_state_activity() {
        assert!(InstanceState::Pending.is_active());
        assert!(InstanceState::InService.is_active());
        assert!(!InstanceState::Terminating.is_active());
        assert!(!InstanceState::Terminated.is_active());
    }
}
