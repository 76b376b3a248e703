//! Differential test of the account's version history: every instance,
//! ASG and ELB record of seeded upgrade runs against a full-copy history.
//!
//! The oracle is the history as it was kept before instances filed their
//! launch facts once: every version a whole value, appended and then
//! trimmed to the newest eight. The runs are shaped like campaign runs (a
//! cluster of four, a rolling upgrade onto a new launch configuration, one
//! fault or interference per seed) and drive the cloud through its API
//! only. After every call the test looks at each record: the one write a
//! call made to it is fed to the oracle as its newest stamp and newest
//! value. A record that took two writes at different times in one call
//! cannot be mirrored and is left out (the test checks that few are).
//! Every kept record must then keep the same stamps and read the same at
//! every version boundary and a microsecond either side.

use std::collections::BTreeMap;
use std::fmt::Debug;

use pod_sim::{Clock, SimDuration, SimRng, SimTime};

use crate::state::InstanceRecord;
use crate::{
    AsgUpdate, AutoScalingGroup, Cloud, CloudConfig, Elb, Instance, InstanceState, Versioned,
};

/// The full-copy history: today's `Versioned` before it kept its buffer at
/// eight, and before an instance versioned only its status.
#[derive(Debug)]
struct FullCopy<T> {
    versions: Vec<(SimTime, T)>,
}

impl<T: Clone> FullCopy<T> {
    fn new(at: SimTime, value: T) -> FullCopy<T> {
        FullCopy {
            versions: vec![(at, value)],
        }
    }

    fn set(&mut self, at: SimTime, value: T) {
        if let Some(last) = self.versions.last_mut() {
            assert!(at >= last.0, "versions must be recorded in time order");
            if last.0 == at {
                last.1 = value;
                return;
            }
        }
        self.versions.push((at, value));
        if self.versions.len() > 8 {
            let excess = self.versions.len() - 8;
            self.versions.drain(..excess);
        }
    }

    fn at(&self, t: SimTime) -> &T {
        match self.versions.iter().rev().find(|(from, _)| *from <= t) {
            Some((_, v)) => v,
            None => &self.versions[0].1,
        }
    }

    fn newest(&self) -> &(SimTime, T) {
        self.versions.last().expect("never empty")
    }

    fn stamps(&self) -> Vec<SimTime> {
        self.versions.iter().map(|&(at, _)| at).collect()
    }
}

/// A record as the account keeps it, read the way the oracle is.
trait History {
    type Value: Clone + PartialEq + Debug;
    fn stamps(&self) -> Vec<SimTime>;
    fn newest(&self) -> Self::Value;
    fn read(&self, t: SimTime) -> Self::Value;
}

impl History for InstanceRecord {
    type Value = Instance;
    fn stamps(&self) -> Vec<SimTime> {
        InstanceRecord::stamps(self).collect()
    }
    fn newest(&self) -> Instance {
        self.latest().clone()
    }
    fn read(&self, t: SimTime) -> Instance {
        self.at(t).into_owned()
    }
}

impl<T: Clone + PartialEq + Debug> History for Versioned<T> {
    type Value = T;
    fn stamps(&self) -> Vec<SimTime> {
        Versioned::stamps(self).collect()
    }
    fn newest(&self) -> T {
        self.latest().clone()
    }
    fn read(&self, t: SimTime) -> T {
        self.at(t).clone()
    }
}

/// One record's oracle, or `None` once it took two writes in one call.
type Mirror<T> = Option<FullCopy<T>>;

#[derive(Default)]
struct Oracles {
    instances: BTreeMap<String, Mirror<Instance>>,
    asgs: BTreeMap<String, Mirror<AutoScalingGroup>>,
    elbs: BTreeMap<String, Mirror<Elb>>,
}

/// Feeds the write `record` took since the last look to its oracle.
fn mirror<H: History>(mirrors: &mut BTreeMap<String, Mirror<H::Value>>, key: String, record: &H) {
    let stamps = record.stamps();
    let newest_at = *stamps.last().expect("never empty");
    let Some(slot) = mirrors.get_mut(&key) else {
        let oracle = (stamps.len() == 1).then(|| FullCopy::new(newest_at, record.newest()));
        mirrors.insert(key, oracle);
        return;
    };
    let Some(oracle) = slot else { return };
    let known = oracle.newest().0;
    match stamps.iter().filter(|&&at| at > known).count() {
        // A write at the newest stamp replaced the newest version.
        0 if oracle.newest().1 != record.newest() => oracle.set(known, record.newest()),
        0 => {}
        1 => oracle.set(newest_at, record.newest()),
        _ => *slot = None,
    }
}

fn look(cloud: &Cloud, oracles: &mut Oracles) {
    cloud.with_state(|state| {
        for record in state.instances.values() {
            let key = record.latest().id.to_string();
            mirror(&mut oracles.instances, key, record);
        }
        for record in state.asgs.values() {
            let key = record.latest().name.to_string();
            mirror(&mut oracles.asgs, key, record);
        }
        for record in state.elbs.values() {
            let key = record.latest().name.to_string();
            mirror(&mut oracles.elbs, key, record);
        }
    });
}

/// Checks every mirrored record against its oracle; returns how many were
/// checked and how many were left out.
fn compare<'a, H: History + 'a>(
    mirrors: &BTreeMap<String, Mirror<H::Value>>,
    records: impl Iterator<Item = (String, &'a H)>,
) -> (usize, usize) {
    let (mut checked, mut left_out) = (0, 0);
    for (key, record) in records {
        let Some(oracle) = &mirrors[&key] else {
            left_out += 1;
            continue;
        };
        checked += 1;
        assert_eq!(record.stamps(), oracle.stamps(), "{key}: kept stamps");
        let mut probes = vec![SimTime::ZERO, SimTime::from_secs(1 << 30)];
        for at in oracle.stamps() {
            let us = at.as_micros();
            probes.extend([us.saturating_sub(1), us, us + 1].map(SimTime::from_micros));
        }
        for t in probes {
            assert_eq!(record.read(t), *oracle.at(t), "{key} read at {t}");
        }
    }
    (checked, left_out)
}

/// One seeded run shaped like a campaign run; `look` after every call.
fn upgrade_run(seed: u64) -> (Cloud, Oracles) {
    let cloud = Cloud::new(
        Clock::new(),
        SimRng::seed_from(seed),
        CloudConfig::default(),
    );
    let mut oracles = Oracles::default();
    let old = cloud.admin_create_ami("app", "1.0.0");
    let cluster = cloud.admin_create_cluster(old, "prod-key", "lc-1", "app-asg", 8, 4);
    let new = cloud.admin_create_ami("app", "1.1.0");
    look(&cloud, &mut oracles);
    let lc = cloud
        .create_launch_config(
            "lc-2",
            new.clone(),
            "m1.small",
            cluster.key_pair.clone(),
            cluster.security_group.clone(),
        )
        .unwrap();
    look(&cloud, &mut oracles);
    let update = AsgUpdate {
        launch_config: Some(lc),
        ..AsgUpdate::default()
    };
    cloud.update_asg(&cluster.asg, update).unwrap();
    look(&cloud, &mut oracles);
    let victims = cloud.admin_describe_asg(&cluster.asg).unwrap().instances;
    for (n, victim) in victims.iter().enumerate() {
        // One fault or interference per seed, on the second replacement.
        if n == 1 {
            match seed % 5 {
                1 => cloud.admin_set_ami_available(&new, false),
                2 => cloud.admin_set_elb_available(&cluster.elb, false),
                3 => {
                    let members = cloud.admin_asg_active_instances(&cluster.asg);
                    let pick = seed as usize % members.len();
                    cloud.admin_terminate_instance(&members[pick].id);
                }
                4 => {
                    let taken = cloud.admin_launch_standalone(34, &new);
                    look(&cloud, &mut oracles);
                    cloud.sleep(SimDuration::from_secs(90));
                    cloud.admin_release_standalone(&taken);
                }
                _ => {
                    let shrink = AsgUpdate {
                        desired_capacity: Some(3),
                        ..AsgUpdate::default()
                    };
                    let _ = cloud.update_asg(&cluster.asg, shrink);
                }
            }
            look(&cloud, &mut oracles);
        }
        let _ = cloud.deregister_from_elb(&cluster.elb, victim);
        look(&cloud, &mut oracles);
        let _ = cloud.terminate_instance(victim, false);
        look(&cloud, &mut oracles);
        // Poll like the orchestrator, in small steps, with stale reads.
        for step in 0..600u32 {
            cloud.sleep(SimDuration::from_millis(500));
            look(&cloud, &mut oracles);
            if step % 20 == 0 {
                let _ = cloud.describe_instance(victim);
                look(&cloud, &mut oracles);
                let ready = cloud.with_asg_instances(&cluster.asg, |is| {
                    is.iter()
                        .filter(|i| i.state == InstanceState::InService)
                        .count()
                });
                look(&cloud, &mut oracles);
                if ready.is_ok_and(|ready| ready >= 4) && step > 0 {
                    break;
                }
            }
            if step == 240 {
                cloud.admin_set_ami_available(&new, true);
                cloud.admin_set_elb_available(&cluster.elb, true);
                look(&cloud, &mut oracles);
            }
        }
    }
    (cloud, oracles)
}

#[test]
fn stale_reads_equal_the_full_copy_history_at_every_version_boundary() {
    let mut tally = [0; 2];
    for seed in 0..20 {
        let (cloud, oracles) = upgrade_run(seed);
        cloud.with_state(|state| {
            let instances = state.instances.values();
            let asgs = state.asgs.values();
            let elbs = state.elbs.values();
            for (checked, left_out) in [
                compare(
                    &oracles.instances,
                    instances.map(|r| (r.latest().id.to_string(), r)),
                ),
                compare(
                    &oracles.asgs,
                    asgs.map(|r| (r.latest().name.to_string(), r)),
                ),
                compare(
                    &oracles.elbs,
                    elbs.map(|r| (r.latest().name.to_string(), r)),
                ),
            ] {
                tally[0] += checked;
                tally[1] += left_out;
            }
            for group in state.asgs.values() {
                assert!(group.stamps().count() > 1, "the group moved");
            }
        });
    }
    let [checked, left_out] = tally;
    assert!(checked >= 200, "{checked} records checked");
    assert!(left_out * 10 <= checked, "{left_out} of {checked} left out");
}
