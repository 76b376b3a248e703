//! The authoritative resource state of the simulated cloud.

use std::collections::HashMap;

use pod_sim::SimTime;

use crate::ids::{
    AmiId, AsgName, ElbName, InstanceId, KeyPairName, LaunchConfigName, SecurityGroupId,
};
use crate::resources::{
    Ami, AutoScalingGroup, Elb, Instance, KeyPair, LaunchConfig, ScalingActivity, SecurityGroup,
};
use crate::versioned::Versioned;

/// The account-wide active-instance cap every account starts with (the
/// experimenter moves it with [`crate::Cloud::admin_set_instance_limit`]).
pub const INSTANCE_LIMIT: usize = 40;

/// All resource records, each with version history for eventually-consistent
/// reads. Mutations must go through the [`crate::Cloud`] handle so that
/// versions are stamped with the current virtual time.
#[derive(Debug, Default)]
pub struct CloudState {
    /// Machine images by id.
    pub amis: HashMap<AmiId, Versioned<Ami>>,
    /// Security groups by id.
    pub security_groups: HashMap<SecurityGroupId, Versioned<SecurityGroup>>,
    /// Key pairs by name.
    pub key_pairs: HashMap<KeyPairName, Versioned<KeyPair>>,
    /// Launch configurations by name.
    pub launch_configs: HashMap<LaunchConfigName, Versioned<LaunchConfig>>,
    /// Instances by id (terminated instances are retained).
    pub instances: HashMap<InstanceId, Versioned<Instance>>,
    /// Auto-scaling groups by name.
    pub asgs: HashMap<AsgName, Versioned<AutoScalingGroup>>,
    /// Load balancers by name.
    pub elbs: HashMap<ElbName, Versioned<Elb>>,
    /// Scaling-activity history (append-only).
    pub activities: Vec<ScalingActivity>,
    /// Account-wide cap on active instances.
    pub instance_limit: usize,
}

impl CloudState {
    /// Creates an empty account capped at [`INSTANCE_LIMIT`].
    pub fn new() -> CloudState {
        CloudState {
            instance_limit: INSTANCE_LIMIT,
            ..CloudState::default()
        }
    }

    /// Number of instances currently counting against the limit.
    pub fn active_instance_count(&self) -> usize {
        self.instances
            .values()
            .filter(|v| v.latest().state.is_active())
            .count()
    }

    /// Active member instances of an ASG, as of the authoritative state.
    pub fn asg_active_instances(&self, asg: &AsgName) -> Vec<&Instance> {
        let Some(group) = self.asgs.get(asg) else {
            return Vec::new();
        };
        group
            .latest()
            .instances
            .iter()
            .filter_map(|id| self.instances.get(id))
            .map(|v| v.latest())
            .filter(|i| i.state.is_active())
            .collect()
    }

    /// Records a scaling activity.
    pub fn record_activity(&mut self, activity: ScalingActivity) {
        self.activities.push(activity);
    }

    /// Activities for `asg` at or after `since`.
    pub fn activities_for<'a>(&'a self, asg: &'a AsgName, since: SimTime) -> ScalingActivities<'a> {
        ScalingActivities {
            activities: self.activities.iter(),
            asg,
            since,
        }
    }
}

/// The scaling activities of one ASG from a point in time on, in the
/// order they were recorded, read in place: what
/// [`crate::Cloud::with_scaling_activities`] hands its reader.
#[derive(Debug, Clone)]
pub struct ScalingActivities<'a> {
    activities: std::slice::Iter<'a, ScalingActivity>,
    asg: &'a AsgName,
    since: SimTime,
}

impl<'a> Iterator for ScalingActivities<'a> {
    type Item = &'a ScalingActivity;

    fn next(&mut self) -> Option<&'a ScalingActivity> {
        let (asg, since) = (self.asg, self.since);
        self.activities.find(|a| a.asg == *asg && a.at >= since)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{ActivityStatus, InstanceState};

    fn instance(id: &str, state: InstanceState) -> Instance {
        Instance {
            id: InstanceId::new(id),
            state,
            ami: AmiId::new("ami-1"),
            version: "1.0".into(),
            instance_type: "m1.small".into(),
            key_pair: KeyPairName::new("kp"),
            security_group: SecurityGroupId::new("sg-1"),
            launch_config: None,
            asg: None,
            registered_with_elb: false,
            launched_at: SimTime::ZERO,
        }
    }

    #[test]
    fn active_count_ignores_terminated() {
        let mut s = CloudState::new();
        s.instances.insert(
            InstanceId::new("i-1"),
            Versioned::new(SimTime::ZERO, instance("i-1", InstanceState::InService)),
        );
        s.instances.insert(
            InstanceId::new("i-2"),
            Versioned::new(SimTime::ZERO, instance("i-2", InstanceState::Terminated)),
        );
        s.instances.insert(
            InstanceId::new("i-3"),
            Versioned::new(SimTime::ZERO, instance("i-3", InstanceState::Pending)),
        );
        assert_eq!(s.active_instance_count(), 2);
    }

    #[test]
    fn activities_filter_by_asg_and_time() {
        let mut s = CloudState::new();
        for (t, name) in [(1u64, "a"), (2, "a"), (3, "b")] {
            s.record_activity(ScalingActivity {
                at: SimTime::from_secs(t),
                asg: AsgName::new(name),
                description: "launch".into(),
                status: ActivityStatus::Successful,
            });
        }
        let a = AsgName::new("a");
        assert_eq!(s.activities_for(&a, SimTime::from_secs(2)).count(), 1);
        assert_eq!(s.activities_for(&a, SimTime::ZERO).count(), 2);
    }
}
