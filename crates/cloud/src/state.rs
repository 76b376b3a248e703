//! The authoritative resource state of the simulated cloud.

use std::borrow::Cow;

use pod_sim::{push_bounded, SimTime};

use crate::ids::{
    AmiId, AsgName, ElbName, InstanceId, KeyPairName, LaunchConfigName, SecurityGroupId,
};
use crate::resources::{
    Ami, AutoScalingGroup, Elb, Instance, InstanceState, KeyPair, LaunchConfig, ScalingActivity,
    SecurityGroup,
};
use crate::versioned::Versioned;

/// The account-wide active-instance cap every account starts with (the
/// experimenter moves it with [`crate::Cloud::admin_set_instance_limit`]).
pub const INSTANCE_LIMIT: usize = 40;

/// One kind of resource record, sorted by key: a lookup is a binary search
/// and the table has room for its entries and no more (it grows by one
/// entry at a time; records are filed far more rarely than read). Each
/// entry keeps its key's first eight bytes as an integer beside it, so a
/// search compares integers and reads a key's string only on a tie.
/// Nothing reads a table in an order that could reach an output.
#[derive(Debug)]
pub(crate) struct Table<K, V> {
    entries: Vec<(u64, K, V)>,
}

/// The first eight bytes of `key`, big-endian and zero-padded: ordering by
/// it, then by the key, orders by the key.
fn lead(key: &impl AsRef<str>) -> u64 {
    let bytes = key.as_ref().as_bytes();
    let mut lead = [0; 8];
    let n = bytes.len().min(8);
    lead[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(lead)
}

impl<K, V> Default for Table<K, V> {
    fn default() -> Table<K, V> {
        Table {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord + AsRef<str>, V> Table<K, V> {
    fn find(&self, key: &K) -> Result<usize, usize> {
        let lead = lead(key);
        self.entries
            .binary_search_by(|(l, k, _)| l.cmp(&lead).then_with(|| k.cmp(key)))
    }

    /// The record filed under `key`.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|at| &self.entries[at].2)
    }

    /// The record filed under `key`, to edit.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|at| &mut self.entries[at].2)
    }

    /// Whether a record is filed under `key`.
    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Files `value` under `key`, replacing any record filed there.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        match self.find(&key) {
            Ok(at) => self.entries[at].2 = value,
            Err(at) => {
                self.entries.reserve_exact(1);
                self.entries.insert(at, (lead(&key), key, value));
            }
        }
    }

    /// Takes the record filed under `key` out of the table.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|at| self.entries.remove(at).2)
    }

    /// Every record.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, _, v)| v)
    }

    /// Every record, to edit.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, _, v)| v)
    }
}

/// What changes about an instance after it is launched: the only part of
/// it that is versioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InstanceStatus {
    state: InstanceState,
    registered_with_elb: bool,
}

impl InstanceStatus {
    fn of(instance: &Instance) -> InstanceStatus {
        InstanceStatus {
            state: instance.state,
            registered_with_elb: instance.registered_with_elb,
        }
    }
}

/// An instance as the account files it: its launch facts once, in the
/// newest [`Instance`], and a history of its status alone. A read that
/// lands on the newest status borrows the newest instance; an older one is
/// materialised from the same facts.
#[derive(Debug)]
pub(crate) struct InstanceRecord {
    latest: Instance,
    status: Versioned<InstanceStatus>,
}

impl InstanceRecord {
    /// Files `instance` with its first version at `at`.
    pub(crate) fn new(at: SimTime, instance: Instance) -> InstanceRecord {
        let status = Versioned::new(at, InstanceStatus::of(&instance));
        InstanceRecord {
            latest: instance,
            status,
        }
    }

    /// The newest version.
    pub(crate) fn latest(&self) -> &Instance {
        &self.latest
    }

    /// The newest version, when it is the one effective time `t` sees.
    pub(crate) fn current_at(&self, t: SimTime) -> Option<&Instance> {
        (self.status.at(t) == self.status.latest()).then_some(&self.latest)
    }

    /// The version visible at effective time `t` (see [`Versioned::at`]):
    /// the newest one lent, an older one materialised.
    pub(crate) fn at(&self, t: SimTime) -> Cow<'_, Instance> {
        if let Some(current) = self.current_at(t) {
            return Cow::Borrowed(current);
        }
        let status = self.status.at(t);
        Cow::Owned(Instance {
            state: status.state,
            registered_with_elb: status.registered_with_elb,
            ..self.latest.clone()
        })
    }

    /// Records a new version effective from `at` in lifecycle `state`.
    pub(crate) fn set_state(&mut self, at: SimTime, state: InstanceState) {
        self.set(at, state, self.latest.registered_with_elb);
    }

    /// Records a new version effective from `at` with the ELB registration
    /// `registered`.
    pub(crate) fn set_registered(&mut self, at: SimTime, registered: bool) {
        self.set(at, self.latest.state, registered);
    }

    /// Records a new version effective from `at`.
    pub(crate) fn set(&mut self, at: SimTime, state: InstanceState, registered_with_elb: bool) {
        self.latest.state = state;
        self.latest.registered_with_elb = registered_with_elb;
        self.status.set(at, InstanceStatus::of(&self.latest));
    }

    /// When each kept version took effect, oldest first.
    #[cfg(test)]
    pub(crate) fn stamps(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.status.stamps()
    }
}

/// All resource records, each with version history for eventually-consistent
/// reads. Mutations must go through the [`crate::Cloud`] handle so that
/// versions are stamped with the current virtual time.
#[derive(Debug)]
pub(crate) struct CloudState {
    /// Machine images by id.
    pub(crate) amis: Table<AmiId, Versioned<Ami>>,
    /// Security groups by id.
    pub(crate) security_groups: Table<SecurityGroupId, Versioned<SecurityGroup>>,
    /// Key pairs by name.
    pub(crate) key_pairs: Table<KeyPairName, Versioned<KeyPair>>,
    /// Launch configurations by name.
    pub(crate) launch_configs: Table<LaunchConfigName, Versioned<LaunchConfig>>,
    /// Instances by id (terminated instances are retained).
    pub(crate) instances: Table<InstanceId, InstanceRecord>,
    /// Auto-scaling groups by name.
    pub(crate) asgs: Table<AsgName, Versioned<AutoScalingGroup>>,
    /// Load balancers by name.
    pub(crate) elbs: Table<ElbName, Versioned<Elb>>,
    /// Scaling-activity history (append-only).
    activities: Vec<ScalingActivity>,
    /// Account-wide cap on active instances.
    pub(crate) instance_limit: usize,
}

impl CloudState {
    /// Creates an empty account capped at [`INSTANCE_LIMIT`].
    pub(crate) fn new() -> CloudState {
        CloudState {
            amis: Table::default(),
            security_groups: Table::default(),
            key_pairs: Table::default(),
            launch_configs: Table::default(),
            instances: Table::default(),
            asgs: Table::default(),
            elbs: Table::default(),
            activities: Vec::new(),
            instance_limit: INSTANCE_LIMIT,
        }
    }

    /// Number of instances currently counting against the limit.
    pub(crate) fn active_instance_count(&self) -> usize {
        self.instances
            .values()
            .filter(|r| r.latest().state.is_active())
            .count()
    }

    /// Active member instances of an ASG, as of the authoritative state.
    pub(crate) fn asg_active_instances(&self, asg: &AsgName) -> Vec<&Instance> {
        let Some(group) = self.asgs.get(asg) else {
            return Vec::new();
        };
        group
            .latest()
            .instances
            .iter()
            .filter_map(|id| self.instances.get(id))
            .map(InstanceRecord::latest)
            .filter(|i| i.state.is_active())
            .collect()
    }

    /// Records a scaling activity; the account keeps its activities for
    /// its whole life, so they grow in bounded steps.
    pub(crate) fn record_activity(&mut self, activity: ScalingActivity) {
        push_bounded(&mut self.activities, activity);
    }

    /// Activities for `asg` at or after `since`.
    pub(crate) fn activities_for<'a>(
        &'a self,
        asg: &'a AsgName,
        since: SimTime,
    ) -> ScalingActivities<'a> {
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
    use crate::resources::ActivityStatus;

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
        for (id, state) in [
            ("i-1", InstanceState::InService),
            ("i-2", InstanceState::Terminated),
            ("i-3", InstanceState::Pending),
        ] {
            let record = InstanceRecord::new(SimTime::ZERO, instance(id, state));
            s.instances.insert(InstanceId::new(id), record);
        }
        assert_eq!(s.active_instance_count(), 2);
    }

    #[test]
    fn a_table_finds_what_it_filed_whatever_the_order() {
        // Keys sharing their first eight bytes tie on the lead and are
        // told apart by the whole key.
        let keys = [
            "i-0000000c",
            "i-0000000a",
            "lc-1-rec",
            "lc-1",
            "i-0000000b",
            "i",
        ];
        let mut t = Table::default();
        for (v, k) in keys.iter().enumerate() {
            t.insert(InstanceId::new(k), v);
        }
        t.insert(InstanceId::new("i-0000000b"), 40);
        assert_eq!(
            t.get(&InstanceId::new("i-0000000b")),
            Some(&40),
            "insert replaces"
        );
        assert!(!t.contains_key(&InstanceId::new("i-0000000d")));
        assert!(!t.contains_key(&InstanceId::new("lc-1-re")));
        let ordered: Vec<&str> = t.entries.iter().map(|(_, k, _)| k.as_str()).collect();
        let mut sorted = keys;
        sorted.sort_unstable();
        assert_eq!(ordered, sorted, "lead then key orders as the key does");
        assert_eq!(
            t.entries.capacity(),
            keys.len(),
            "room for its entries and no more"
        );
        assert_eq!(t.remove(&InstanceId::new("i-0000000a")), Some(1));
        assert_eq!(t.remove(&InstanceId::new("i-0000000a")), None);
        *t.get_mut(&InstanceId::new("lc-1")).unwrap() += 10;
        let values: Vec<usize> = t.values().copied().collect();
        assert_eq!(values, [5, 40, 0, 13, 2]);
    }

    #[test]
    fn an_instance_versions_its_status_and_keeps_its_launch_facts() {
        let mut r = InstanceRecord::new(SimTime::ZERO, instance("i-1", InstanceState::Pending));
        r.set(SimTime::from_secs(50), InstanceState::InService, true);
        r.set_state(SimTime::from_secs(90), InstanceState::Terminating);
        let early = r.at(SimTime::from_secs(10));
        assert!(
            matches!(early, Cow::Owned(_)),
            "a stale read is materialised"
        );
        assert_eq!(*early, instance("i-1", InstanceState::Pending));
        let booted = r.at(SimTime::from_secs(60));
        assert_eq!(booted.state, InstanceState::InService);
        assert!(booted.registered_with_elb);
        assert!(matches!(r.at(SimTime::from_secs(90)), Cow::Borrowed(_)));
        assert_eq!(r.latest().state, InstanceState::Terminating);
        assert!(r.latest().registered_with_elb);
        r.set_registered(SimTime::from_secs(90), false);
        assert_eq!(r.stamps().count(), 3, "a same-instant write replaces");
        assert!(!r.at(SimTime::from_secs(95)).registered_with_elb);
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

    #[test]
    fn the_activities_hold_at_most_one_growth_step_of_spare_room() {
        let mut s = CloudState::new();
        for t in 0..500u64 {
            s.record_activity(ScalingActivity {
                at: SimTime::from_secs(t),
                asg: AsgName::new("a"),
                description: "launch".into(),
                status: ActivityStatus::Successful,
            });
            let (len, room) = (s.activities.len(), s.activities.capacity());
            assert!(room - len <= pod_sim::growth_step(len), "{room} for {len}");
        }
    }
}
