//! The cloud simulator: API front-end, ASG reconciliation engine and
//! eventual consistency.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use parking_lot::Mutex;
use pod_obs::{Counter, Histogram, Obs};
use pod_sim::{Clock, EventQueue, LatencyModel, SimDuration, SimRng, SimTime};

use crate::error::ApiError;
use crate::ids::{
    AmiId, AsgName, ElbName, InstanceId, KeyPairName, LaunchConfigName, SecurityGroupId,
};
use crate::resources::{
    ActivityStatus, Ami, AutoScalingGroup, Elb, Instance, InstanceState, KeyPair, LaunchConfig,
    ScalingActivity, SecurityGroup,
};
use crate::state::{CloudState, InstanceRecord, ScalingActivities, Table};
use crate::versioned::Versioned;

/// Time from launch request to `InService`: lognormal (median ms, sigma).
const BOOT_TIME: (f64, f64) = (50_000.0, 0.25);
/// Time from terminate request to `Terminated`: lognormal (median ms, sigma).
const TERMINATE_TIME: (f64, f64) = (25_000.0, 0.2);
/// How often each ASG reconciles desired vs. actual capacity.
const RECONCILE_INTERVAL: SimDuration = SimDuration::from_secs(10);

/// Round-trip latency of one API call (the paper's diagnosis log shows
/// ≈ 70–90 ms per call).
const API_LATENCY: LatencyModel = LatencyModel::uniform_millis(70, 90);

/// Tunables of the simulated cloud.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// Probability that a describe-call observes a stale view.
    pub stale_read_prob: f64,
    /// How far behind a stale view lags.
    pub consistency_lag: LatencyModel,
}

impl Default for CloudConfig {
    fn default() -> CloudConfig {
        CloudConfig {
            stale_read_prob: 0.08,
            consistency_lag: LatencyModel::Exponential {
                mean: SimDuration::from_millis(1_500),
            },
        }
    }
}

/// Fields of a launch configuration that can be changed by
/// [`Cloud::admin_update_launch_config`] (the fault-injection surface for
/// configuration faults).
#[derive(Debug, Clone, Default)]
pub struct LaunchConfigUpdate {
    /// New AMI, if changing.
    pub ami: Option<AmiId>,
    /// New instance type, if changing.
    pub instance_type: Option<String>,
    /// New key pair, if changing.
    pub key_pair: Option<KeyPairName>,
    /// New security group, if changing.
    pub security_group: Option<SecurityGroupId>,
}

/// Updatable ASG fields for [`Cloud::update_asg`].
#[derive(Debug, Clone, Default)]
pub struct AsgUpdate {
    /// New launch configuration.
    pub launch_config: Option<LaunchConfigName>,
    /// New minimum size.
    pub min_size: Option<u32>,
    /// New maximum size.
    pub max_size: Option<u32>,
    /// New desired capacity.
    pub desired_capacity: Option<u32>,
}

/// The API's error for a `kind` resource that does not exist.
fn not_found(kind: &'static str, id: &impl fmt::Display) -> ApiError {
    ApiError::NotFound {
        kind,
        id: id.to_string(),
    }
}

/// Files `value` under `key` with its first version at `at`; hands the key
/// back.
fn file<K: Ord + AsRef<str> + Clone, T>(
    table: &mut Table<K, Versioned<T>>,
    at: SimTime,
    key: K,
    value: T,
) -> K {
    table.insert(key.clone(), Versioned::new(at, value));
    key
}

/// `members` with `id` appended, in a list of exactly that length.
fn with_member(members: &[InstanceId], id: &InstanceId) -> Arc<[InstanceId]> {
    members.iter().chain([id]).cloned().collect()
}

/// `members` without `id`: a new list of exactly the rest, or the same list
/// shared when `id` is not a member (a list holds each id at most once).
fn without_member(members: &Arc<[InstanceId]>, id: &InstanceId) -> Arc<[InstanceId]> {
    match members.iter().position(|m| m == id) {
        Some(at) => members[..at]
            .iter()
            .chain(&members[at + 1..])
            .cloned()
            .collect(),
        None => Arc::clone(members),
    }
}

/// The API's error for any call on a load balancer whose service is down.
fn elb_down(name: &ElbName) -> ApiError {
    ApiError::ServiceUnavailable {
        service: format!("elb {name}"),
    }
}

#[derive(Debug)]
enum CloudEvent {
    BootComplete(InstanceId),
    TerminateComplete(InstanceId),
    Reconcile(AsgName),
}

#[derive(Debug)]
struct Inner {
    rng: SimRng,
    state: CloudState,
    events: EventQueue<CloudEvent>,
    config: CloudConfig,
    processed_until: SimTime,
    /// Reused to format each scaling activity's description, which the
    /// history then keeps at its exact length.
    render: String,
}

/// The resources of one steady-state cluster, as
/// [`Cloud::admin_create_cluster`] created them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    /// The AMI the launch configuration boots.
    pub ami: AmiId,
    /// The instances' security group.
    pub security_group: SecurityGroupId,
    /// The instances' key pair.
    pub key_pair: KeyPairName,
    /// The load balancer fronting the group.
    pub elb: ElbName,
    /// The group's launch configuration.
    pub launch_config: LaunchConfigName,
    /// The launch configuration's instance type.
    pub instance_type: String,
    /// The auto-scaling group, at its desired capacity.
    pub asg: AsgName,
}

/// A handle to the simulated cloud. Cloning is cheap; all clones share the
/// same account state and virtual clock.
///
/// API methods (`describe_*`, `create_*`, `terminate_*`, …) behave like the
/// real thing: they consume virtual time, return AWS-style errors, and
/// reads may be stale. `admin_*` methods are the experimenter's god-mode —
/// instantaneous, reliable mutations used for environment setup and fault
/// injection.
///
/// # Examples
///
/// ```
/// use pod_cloud::{Cloud, CloudConfig};
/// use pod_sim::{Clock, SimRng};
///
/// let cloud = Cloud::new(Clock::new(), SimRng::seed_from(1), CloudConfig::default());
/// let ami = cloud.admin_create_ami("app", "1.0.0");
/// let sg = cloud.admin_create_security_group("web", &[80]);
/// let kp = cloud.admin_create_key_pair("prod-key");
/// let elb = cloud.admin_create_elb("front");
/// let lc = cloud.admin_create_launch_config("lc-1", ami, "m1.small", kp, sg);
/// let asg = cloud.admin_create_asg("app-asg", lc, 4, 8, 4, Some(elb));
/// assert_eq!(cloud.describe_asg(&asg).unwrap().desired_capacity, 4);
/// ```
#[derive(Debug, Clone)]
pub struct Cloud {
    inner: Arc<Mutex<Inner>>,
    clock: Clock,
    obs: Obs,
    metrics: CloudMetrics,
}

/// Cached handles for the cloud-layer metrics, bumped on the API hot path
/// without touching the registry lock.
#[derive(Debug, Clone)]
struct CloudMetrics {
    calls: Counter,
    stale_reads: Counter,
    latency_us: Histogram,
}

impl CloudMetrics {
    fn new(obs: &Obs) -> CloudMetrics {
        CloudMetrics {
            calls: obs.counter("cloud.api.calls"),
            stale_reads: obs.counter("cloud.api.stale_reads"),
            latency_us: obs.histogram("cloud.api.latency_us"),
        }
    }
}

impl Cloud {
    /// Creates a fresh, empty account.
    pub fn new(clock: Clock, rng: SimRng, config: CloudConfig) -> Cloud {
        let obs = Obs::new(clock.clone());
        let metrics = CloudMetrics::new(&obs);
        Cloud {
            inner: Arc::new(Mutex::new(Inner {
                rng,
                state: CloudState::new(),
                events: EventQueue::new(),
                config,
                processed_until: SimTime::ZERO,
                render: String::new(),
            })),
            clock,
            obs,
            metrics,
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The shared observability context. Every component holding a cloud
    /// handle records its metrics and spans here, so one snapshot covers
    /// the whole pipeline.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Advances the clock by `d` and lets the cloud engine catch up —
    /// the simulation's replacement for `sleep`.
    pub fn sleep(&self, d: SimDuration) {
        let now = self.clock.advance(d);
        self.inner.lock().run_until(now);
    }

    // ---------------------------------------------------------------
    // Metered API calls
    // ---------------------------------------------------------------

    fn call<T>(
        &self,
        f: impl FnOnce(&mut Inner, SimTime) -> Result<T, ApiError>,
    ) -> Result<T, ApiError> {
        // Every call is accounted by the `calls`/`latency_us` metrics (with
        // exemplars); it opens no span.
        let mut inner = self.inner.lock();
        let latency = API_LATENCY.sample(&mut inner.rng);
        let now = self.clock.advance(latency);
        inner.run_until(now);
        self.metrics.calls.incr();
        self.metrics.latency_us.record(latency.as_micros());
        f(&mut inner, now)
    }

    /// The effective time a read resolves against (models eventual
    /// consistency).
    fn read_time(&self, inner: &mut Inner, now: SimTime) -> SimTime {
        if inner.rng.chance(inner.config.stale_read_prob) {
            self.metrics.stale_reads.incr();
            let lag = inner.config.consistency_lag.sample(&mut inner.rng);
            SimTime::from_micros(now.as_micros().saturating_sub(lag.as_micros()))
        } else {
            now
        }
    }

    /// One metered, possibly stale read of the `kind` resource `id` in
    /// `table`, projected in place by `f`.
    fn read<K: Ord + AsRef<str> + fmt::Display, T, R>(
        &self,
        kind: &'static str,
        id: &K,
        table: impl FnOnce(&CloudState) -> &Table<K, Versioned<T>>,
        f: impl FnOnce(&T) -> R,
    ) -> Result<R, ApiError> {
        self.call(|inner, now| {
            let t = self.read_time(inner, now);
            let record = table(&inner.state)
                .get(id)
                .ok_or_else(|| not_found(kind, id))?;
            Ok(f(record.at(t)))
        })
    }

    /// Reads an auto-scaling group (possibly stale) in place: `f` sees the
    /// group without copying it. Metered like [`Cloud::describe_asg`].
    pub fn with_asg<R>(
        &self,
        name: &AsgName,
        f: impl FnOnce(&AutoScalingGroup) -> R,
    ) -> Result<R, ApiError> {
        self.read("auto-scaling-group", name, |s| &s.asgs, f)
    }

    /// Describes an auto-scaling group (possibly stale).
    pub fn describe_asg(&self, name: &AsgName) -> Result<AutoScalingGroup, ApiError> {
        self.with_asg(name, Clone::clone)
    }

    /// Describes a launch configuration (possibly stale).
    pub fn describe_launch_config(
        &self,
        name: &LaunchConfigName,
    ) -> Result<LaunchConfig, ApiError> {
        self.read(
            "launch-configuration",
            name,
            |s| &s.launch_configs,
            Clone::clone,
        )
    }

    /// Describes one instance (possibly stale).
    pub fn describe_instance(&self, id: &InstanceId) -> Result<Instance, ApiError> {
        self.call(|inner, now| {
            let t = self.read_time(inner, now);
            let record = inner.state.instances.get(id);
            let record = record.ok_or_else(|| not_found("instance", id))?;
            Ok(record.at(t).into_owned())
        })
    }

    /// Reads all member instances of an ASG (possibly stale) in place: `f`
    /// sees them without copying any that is current. Metered like
    /// [`Cloud::describe_asg`].
    pub fn with_asg_instances<R>(
        &self,
        name: &AsgName,
        f: impl FnOnce(&[&Instance]) -> R,
    ) -> Result<R, ApiError> {
        self.call(|inner, now| {
            let t = self.read_time(inner, now);
            let state = &inner.state;
            let group = state.asgs.get(name);
            let group = group.ok_or_else(|| not_found("auto-scaling-group", name))?;
            let ids = &group.at(t).instances;
            let members = ids.iter().filter_map(|id| state.instances.get(id));
            // A member whose newest status `t` does not see yet is
            // materialised (rarely any) and lent in its place afterwards.
            let mut stale = Vec::new();
            let mut instances: Vec<&Instance> = Vec::with_capacity(ids.len());
            for (n, record) in members.enumerate() {
                if let Cow::Owned(older) = record.at(t) {
                    stale.push((n, older));
                }
                instances.push(record.latest());
            }
            for (n, older) in &stale {
                instances[*n] = older;
            }
            Ok(f(&instances))
        })
    }

    /// Describes a machine image (possibly stale).
    pub fn describe_ami(&self, id: &AmiId) -> Result<Ami, ApiError> {
        self.read("ami", id, |s| &s.amis, Clone::clone)
    }

    /// Describes a key pair (possibly stale).
    pub fn describe_key_pair(&self, name: &KeyPairName) -> Result<KeyPair, ApiError> {
        self.read("key-pair", name, |s| &s.key_pairs, Clone::clone)
    }

    /// Describes a security group (possibly stale).
    pub fn describe_security_group(&self, id: &SecurityGroupId) -> Result<SecurityGroup, ApiError> {
        self.read("security-group", id, |s| &s.security_groups, Clone::clone)
    }

    /// Describes a load balancer (possibly stale). Fails with
    /// [`ApiError::ServiceUnavailable`] while the ELB service is down.
    pub fn describe_elb(&self, name: &ElbName) -> Result<Elb, ApiError> {
        let elb = self.read("elb", name, |s| &s.elbs, Clone::clone)?;
        if elb.available {
            Ok(elb)
        } else {
            Err(elb_down(name))
        }
    }

    /// Reads the scaling activities for `asg` at or after `since` in place
    /// (authoritative, the activity log is strongly consistent like
    /// CloudTrail's console feed): `f` walks them in order without copying
    /// any. One metered call, like [`Cloud::with_asg_instances`]; `f` runs
    /// under the cloud's lock, so it must not call the cloud.
    pub fn with_scaling_activities<R>(
        &self,
        asg: &AsgName,
        since: SimTime,
        f: impl FnOnce(ScalingActivities<'_>) -> R,
    ) -> Result<R, ApiError> {
        self.call(|inner, _| Ok(f(inner.state.activities_for(asg, since))))
    }

    /// Creates a launch configuration.
    pub fn create_launch_config(
        &self,
        name: impl AsRef<str>,
        ami: AmiId,
        instance_type: impl Into<Arc<str>>,
        key_pair: KeyPairName,
        security_group: SecurityGroupId,
    ) -> Result<LaunchConfigName, ApiError> {
        let name = LaunchConfigName::new(name);
        let instance_type = instance_type.into();
        self.call(move |inner, now| {
            if inner.state.launch_configs.contains_key(&name) {
                return Err(ApiError::Validation(format!(
                    "launch configuration {name} already exists"
                )));
            }
            if !inner.state.amis.contains_key(&ami) {
                return Err(not_found("ami", &ami));
            }
            let lc = LaunchConfig {
                name: name.clone(),
                ami,
                instance_type,
                key_pair,
                security_group,
            };
            Ok(file(&mut inner.state.launch_configs, now, name, lc))
        })
    }

    /// Deletes a launch configuration.
    pub fn delete_launch_config(&self, name: &LaunchConfigName) -> Result<(), ApiError> {
        self.call(|inner, _| {
            let removed = inner.state.launch_configs.remove(name);
            removed
                .map(drop)
                .ok_or_else(|| not_found("launch-configuration", name))
        })
    }

    /// Updates ASG fields (launch config, sizes).
    pub fn update_asg(&self, name: &AsgName, update: AsgUpdate) -> Result<(), ApiError> {
        self.call(|inner, now| {
            if let Some(lc) = &update.launch_config {
                if !inner.state.launch_configs.contains_key(lc) {
                    return Err(not_found("launch-configuration", lc));
                }
            }
            let group = inner.state.asgs.get_mut(name);
            let group = group.ok_or_else(|| not_found("auto-scaling-group", name))?;
            let mut g = group.latest().clone();
            if let Some(lc) = update.launch_config {
                g.launch_config = lc;
            }
            if let Some(min) = update.min_size {
                g.min_size = min;
            }
            if let Some(max) = update.max_size {
                g.max_size = max;
            }
            if let Some(desired) = update.desired_capacity {
                if desired < g.min_size || desired > g.max_size {
                    return Err(ApiError::Validation(format!(
                        "desired capacity {desired} outside [{}, {}]",
                        g.min_size, g.max_size
                    )));
                }
                g.desired_capacity = desired;
            }
            group.set(now, g);
            Ok(())
        })
    }

    /// Terminates an instance in an ASG, optionally decrementing desired
    /// capacity so it is not replaced.
    pub fn terminate_instance(
        &self,
        id: &InstanceId,
        decrement_desired: bool,
    ) -> Result<(), ApiError> {
        self.call(|inner, now| {
            let record = inner.state.instances.get_mut(id);
            let record = record.ok_or_else(|| not_found("instance", id))?;
            if !record.latest().state.is_active() {
                return Err(ApiError::Validation(format!(
                    "instance {id} is not running"
                )));
            }
            let asg = record.latest().asg.clone();
            inner.begin_termination(now, id);
            if let Some(asg_name) = asg {
                if decrement_desired {
                    if let Some(group) = inner.state.asgs.get_mut(&asg_name) {
                        group.update(now, |g| {
                            g.desired_capacity = g.desired_capacity.saturating_sub(1);
                        });
                    }
                }
                let description = format_args!("Terminating EC2 instance: {id}");
                inner.activity(now, &asg_name, ActivityStatus::InProgress, description);
            }
            Ok(())
        })
    }

    /// Deregisters an instance from a load balancer.
    pub fn deregister_from_elb(
        &self,
        elb: &ElbName,
        instance: &InstanceId,
    ) -> Result<(), ApiError> {
        self.call(|inner, now| inner.set_registered(now, elb, instance, false))
    }

    /// Registers an instance with a load balancer.
    pub fn register_with_elb(&self, elb: &ElbName, instance: &InstanceId) -> Result<(), ApiError> {
        self.call(|inner, now| inner.set_registered(now, elb, instance, true))
    }

    // ---------------------------------------------------------------
    // Admin / god-mode (setup and fault injection)
    // ---------------------------------------------------------------

    fn admin<T>(&self, f: impl FnOnce(&mut Inner, SimTime) -> T) -> T {
        let mut inner = self.inner.lock();
        let now = self.clock.now();
        inner.run_until(now);
        f(&mut inner, now)
    }

    /// Registers a new AMI and returns its id.
    pub fn admin_create_ami(&self, name: &str, version: &str) -> AmiId {
        self.admin(|inner, now| {
            let id = AmiId::generate(&mut inner.rng);
            let ami = Ami {
                id: id.clone(),
                name: name.to_string(),
                version: version.into(),
                available: true,
            };
            file(&mut inner.state.amis, now, id, ami)
        })
    }

    /// Creates a security group.
    pub fn admin_create_security_group(&self, name: &str, ports: &[u16]) -> SecurityGroupId {
        self.admin(|inner, now| {
            let id = SecurityGroupId::generate(&mut inner.rng);
            let sg = SecurityGroup {
                id: id.clone(),
                name: name.to_string(),
                ingress_ports: ports.to_vec(),
                available: true,
            };
            file(&mut inner.state.security_groups, now, id, sg)
        })
    }

    /// Creates a key pair.
    pub fn admin_create_key_pair(&self, name: &str) -> KeyPairName {
        self.admin(|inner, now| {
            let kp_name = KeyPairName::new(name);
            let fingerprint = format!("fp-{:016x}", inner.rng.uniform_u64(0, u64::MAX - 1));
            let kp = KeyPair {
                name: kp_name.clone(),
                fingerprint,
                available: true,
            };
            file(&mut inner.state.key_pairs, now, kp_name, kp)
        })
    }

    /// Creates a load balancer.
    pub fn admin_create_elb(&self, name: &str) -> ElbName {
        self.admin(|inner, now| {
            let elb_name = ElbName::new(name);
            let elb = Elb {
                name: elb_name.clone(),
                registered: Arc::new([]),
                available: true,
            };
            file(&mut inner.state.elbs, now, elb_name, elb)
        })
    }

    /// Creates a launch configuration without latency or validation beyond
    /// AMI existence.
    pub fn admin_create_launch_config(
        &self,
        name: &str,
        ami: AmiId,
        instance_type: &str,
        key_pair: KeyPairName,
        security_group: SecurityGroupId,
    ) -> LaunchConfigName {
        self.admin(|inner, now| {
            let lc_name = LaunchConfigName::new(name);
            let lc = LaunchConfig {
                name: lc_name.clone(),
                ami,
                instance_type: instance_type.into(),
                key_pair,
                security_group,
            };
            file(&mut inner.state.launch_configs, now, lc_name, lc)
        })
    }

    /// Creates an ASG already at its desired capacity: `desired` instances
    /// are materialised `InService` and registered with the ELB. This is the
    /// steady-state cluster a rolling upgrade starts from.
    ///
    /// # Panics
    ///
    /// Panics when `launch_config` does not exist: creating the group
    /// first is a set-up mistake of the experimenter, not cloud input.
    pub fn admin_create_asg(
        &self,
        name: &str,
        launch_config: LaunchConfigName,
        min_size: u32,
        max_size: u32,
        desired: u32,
        elb: Option<ElbName>,
    ) -> AsgName {
        self.admin(|inner, now| {
            let asg_name = AsgName::new(name);
            let lc = inner
                .state
                .launch_configs
                .get(&launch_config)
                .expect("launch config must exist before creating an ASG")
                .latest()
                .clone();
            let member = |i: &mut Instance| {
                i.state = InstanceState::InService;
                i.launch_config = Some(launch_config.clone());
                i.asg = Some(asg_name.clone());
                i.registered_with_elb = elb.is_some();
            };
            let ids: Arc<[InstanceId]> = (0..desired)
                .map(|_| inner.spawn(now, &lc, member))
                .collect();
            if let Some(rec) = elb.as_ref().and_then(|n| inner.state.elbs.get_mut(n)) {
                rec.update(now, |e| {
                    e.registered = e.registered.iter().chain(ids.iter()).cloned().collect();
                });
            }
            let group = AutoScalingGroup {
                name: asg_name.clone(),
                launch_config,
                min_size,
                max_size,
                desired_capacity: desired,
                instances: ids,
                elb,
            };
            let asg_name = file(&mut inner.state.asgs, now, asg_name, group);
            inner.events.schedule(
                now + RECONCILE_INTERVAL,
                CloudEvent::Reconcile(asg_name.clone()),
            );
            asg_name
        })
    }

    /// Creates the steady-state cluster a rolling upgrade starts from:
    /// security group `web`, the key pair, load balancer `front`, an
    /// `m1.small` launch configuration on `ami` and an ASG of `desired`
    /// in-service instances (`1..=max_size`) registered with the ELB.
    pub fn admin_create_cluster(
        &self,
        ami: AmiId,
        key_pair: &str,
        launch_config: &str,
        asg: &str,
        max_size: u32,
        desired: u32,
    ) -> Cluster {
        let instance_type = "m1.small";
        let security_group = self.admin_create_security_group("web", &[80, 443]);
        let key_pair = self.admin_create_key_pair(key_pair);
        let elb = self.admin_create_elb("front");
        let launch_config = self.admin_create_launch_config(
            launch_config,
            ami.clone(),
            instance_type,
            key_pair.clone(),
            security_group.clone(),
        );
        let asg = self.admin_create_asg(
            asg,
            launch_config.clone(),
            1,
            max_size,
            desired,
            Some(elb.clone()),
        );
        Cluster {
            ami,
            security_group,
            key_pair,
            elb,
            launch_config,
            instance_type: instance_type.to_string(),
            asg,
        }
    }

    /// Marks an AMI available/unavailable (fault type 5).
    pub fn admin_set_ami_available(&self, id: &AmiId, available: bool) {
        self.admin(|inner, now| {
            if let Some(rec) = inner.state.amis.get_mut(id) {
                rec.update(now, |a| a.available = available);
            }
        });
    }

    /// Marks a key pair available/unavailable (fault type 6).
    pub fn admin_set_key_pair_available(&self, name: &KeyPairName, available: bool) {
        self.admin(|inner, now| {
            if let Some(rec) = inner.state.key_pairs.get_mut(name) {
                rec.update(now, |k| k.available = available);
            }
        });
    }

    /// Marks a security group available/unavailable (fault type 7).
    pub fn admin_set_security_group_available(&self, id: &SecurityGroupId, available: bool) {
        self.admin(|inner, now| {
            if let Some(rec) = inner.state.security_groups.get_mut(id) {
                rec.update(now, |s| s.available = available);
            }
        });
    }

    /// Marks an ELB available/unavailable (fault type 8).
    pub fn admin_set_elb_available(&self, name: &ElbName, available: bool) {
        self.admin(|inner, now| {
            if let Some(rec) = inner.state.elbs.get_mut(name) {
                rec.update(now, |e| e.available = available);
            }
        });
    }

    /// Rewrites launch-configuration fields in place (fault types 1–4:
    /// concurrent AMI push, key-pair / security-group / instance-type
    /// misconfiguration).
    pub fn admin_update_launch_config(&self, name: &LaunchConfigName, update: LaunchConfigUpdate) {
        self.admin(|inner, now| {
            if let Some(rec) = inner.state.launch_configs.get_mut(name) {
                rec.update(now, |lc| {
                    if let Some(ami) = update.ami {
                        lc.ami = ami;
                    }
                    if let Some(it) = update.instance_type {
                        lc.instance_type = it.into();
                    }
                    if let Some(kp) = update.key_pair {
                        lc.key_pair = kp;
                    }
                    if let Some(sg) = update.security_group {
                        lc.security_group = sg;
                    }
                });
            }
        });
    }

    /// Terminates an instance outside any API accounting — the "random
    /// termination" interference of the evaluation.
    pub fn admin_terminate_instance(&self, id: &InstanceId) {
        self.admin(|inner, now| {
            let instance = inner.state.instances.get(id);
            if instance.is_some_and(|rec| rec.latest().state.is_active()) {
                inner.begin_termination(now, id);
            }
        });
    }

    /// Changes the account instance limit (shared-account interference).
    pub fn admin_set_instance_limit(&self, limit: usize) {
        self.admin(|inner, _| inner.state.instance_limit = limit);
    }

    /// Launches `count` standalone instances outside any ASG — the
    /// independent team consuming account capacity.
    pub fn admin_launch_standalone(&self, count: usize, ami: &AmiId) -> Vec<InstanceId> {
        self.admin(|inner, now| {
            let other_team = LaunchConfig {
                name: LaunchConfigName::new("other-team"),
                ami: ami.clone(),
                instance_type: "m1.small".into(),
                key_pair: KeyPairName::new("other-team-key"),
                security_group: SecurityGroupId::new("sg-other"),
            };
            let in_service = |i: &mut Instance| i.state = InstanceState::InService;
            (0..count)
                .map(|_| inner.spawn(now, &other_team, in_service))
                .collect()
        })
    }

    /// Terminates standalone instances (releasing account capacity).
    pub fn admin_release_standalone(&self, ids: &[InstanceId]) {
        self.admin(|inner, now| {
            for id in ids {
                if let Some(rec) = inner.state.instances.get_mut(id) {
                    rec.set_state(now, InstanceState::Terminated);
                }
            }
        });
    }

    /// Runs `f` on the account's records as they stand.
    #[cfg(test)]
    pub(crate) fn with_state<R>(&self, f: impl FnOnce(&CloudState) -> R) -> R {
        f(&self.inner.lock().state)
    }

    /// Authoritative (non-stale) snapshot of an ASG, for test assertions and
    /// ground-truth checks in the evaluation harness.
    pub fn admin_describe_asg(&self, name: &AsgName) -> Option<AutoScalingGroup> {
        self.admin(|inner, _| inner.state.asgs.get(name).map(|v| v.latest().clone()))
    }

    /// Authoritative snapshot of an instance.
    pub fn admin_describe_instance(&self, id: &InstanceId) -> Option<Instance> {
        self.admin(|inner, _| inner.state.instances.get(id).map(|r| r.latest().clone()))
    }

    /// Authoritative snapshot of all active member instances of an ASG.
    pub fn admin_asg_active_instances(&self, name: &AsgName) -> Vec<Instance> {
        self.admin(|inner, _| {
            inner
                .state
                .asg_active_instances(name)
                .into_iter()
                .cloned()
                .collect()
        })
    }

    /// Authoritative count of active instances in the account.
    pub fn admin_active_instance_count(&self) -> usize {
        self.admin(|inner, _| inner.state.active_instance_count())
    }

    /// Authoritative snapshot of a launch configuration.
    pub fn admin_describe_launch_config(&self, name: &LaunchConfigName) -> Option<LaunchConfig> {
        self.admin(|inner, _| {
            inner
                .state
                .launch_configs
                .get(name)
                .map(|v| v.latest().clone())
        })
    }
}

impl Inner {
    /// Adds an instance launched from `lc` at `at` to the account under a
    /// fresh id: `Pending` and unattached, then whatever `shape` makes of it.
    fn spawn(
        &mut self,
        at: SimTime,
        lc: &LaunchConfig,
        shape: impl Fn(&mut Instance),
    ) -> InstanceId {
        let id = InstanceId::generate(&mut self.rng);
        let ami = self.state.amis.get(&lc.ami);
        let mut instance = Instance {
            id: id.clone(),
            state: InstanceState::Pending,
            ami: lc.ami.clone(),
            version: ami.map(|a| a.latest().version.clone()).unwrap_or_default(),
            instance_type: lc.instance_type.clone(),
            key_pair: lc.key_pair.clone(),
            security_group: lc.security_group.clone(),
            launch_config: None,
            asg: None,
            registered_with_elb: false,
            launched_at: at,
        };
        shape(&mut instance);
        let record = InstanceRecord::new(at, instance);
        self.state.instances.insert(id.clone(), record);
        id
    }

    /// Appends one entry to the scaling-activity history of `asg`.
    fn activity(
        &mut self,
        at: SimTime,
        asg: &AsgName,
        status: ActivityStatus,
        description: fmt::Arguments<'_>,
    ) {
        // The history keeps every entry for the account's life, so each
        // description is copied out of the reused buffer at its length.
        self.render.clear();
        let _ = self.render.write_fmt(description);
        self.state.record_activity(ScalingActivity {
            at,
            asg: asg.clone(),
            description: self.render.as_str().into(),
            status,
        });
    }

    /// Moves the (present) instance `id` to `Terminating` and schedules the
    /// completion after a sampled terminate time.
    fn begin_termination(&mut self, at: SimTime, id: &InstanceId) {
        if let Some(rec) = self.state.instances.get_mut(id) {
            rec.set_state(at, InstanceState::Terminating);
        }
        let (median_ms, sigma) = TERMINATE_TIME;
        let delay = LatencyModel::lognormal_median_millis(median_ms, sigma).sample(&mut self.rng);
        self.events
            .schedule(at + delay, CloudEvent::TerminateComplete(id.clone()));
    }

    /// Adds `instance` to (or removes it from) the registration list of
    /// `elb` and mirrors that on the instance record. Fails while the ELB
    /// is missing or unavailable.
    fn set_registered(
        &mut self,
        at: SimTime,
        elb: &ElbName,
        instance: &InstanceId,
        registered: bool,
    ) -> Result<(), ApiError> {
        let record = self.state.elbs.get_mut(elb);
        let record = record.ok_or_else(|| not_found("elb", elb))?;
        if !record.latest().available {
            return Err(elb_down(elb));
        }
        record.update(at, |e| match registered {
            true if e.registered.contains(instance) => {}
            true => e.registered = with_member(&e.registered, instance),
            false => e.registered = without_member(&e.registered, instance),
        });
        if let Some(rec) = self.state.instances.get_mut(instance) {
            rec.set_registered(at, registered);
        }
        Ok(())
    }

    /// Processes all engine events scheduled at or before `now`.
    fn run_until(&mut self, now: SimTime) {
        if now <= self.processed_until {
            return;
        }
        while let Some((at, event)) = self.events.pop_due(now) {
            match event {
                CloudEvent::BootComplete(id) => self.on_boot_complete(at, &id),
                CloudEvent::TerminateComplete(id) => self.on_terminate_complete(at, &id),
                CloudEvent::Reconcile(asg) => self.on_reconcile(at, &asg),
            }
        }
        self.processed_until = now;
    }

    fn on_boot_complete(&mut self, at: SimTime, id: &InstanceId) {
        let Some(rec) = self.state.instances.get_mut(id) else {
            return;
        };
        if rec.latest().state != InstanceState::Pending {
            return;
        }
        rec.set_state(at, InstanceState::InService);
        let Some(asg_name) = rec.latest().asg.clone() else {
            return;
        };
        let description = format_args!("Launched EC2 instance: {id}");
        self.activity(at, &asg_name, ActivityStatus::Successful, description);
        // Auto-register with the attached ELB, like AWS ASG-ELB integration.
        let elb_name = self
            .state
            .asgs
            .get(&asg_name)
            .and_then(|g| g.latest().elb.clone());
        if let Some(elb_name) = elb_name {
            if self.set_registered(at, &elb_name, id, true).is_err() {
                let status = ActivityStatus::Failed("ServiceUnavailable".into());
                let description = format_args!(
                    "Failed to register instance {id} with ELB {elb_name}: ServiceUnavailable"
                );
                self.activity(at, &asg_name, status, description);
            }
        }
    }

    fn on_terminate_complete(&mut self, at: SimTime, id: &InstanceId) {
        let Some(rec) = self.state.instances.get_mut(id) else {
            return;
        };
        if rec.latest().state == InstanceState::Terminated {
            return;
        }
        rec.set(at, InstanceState::Terminated, false);
        if let Some(asg_name) = &rec.latest().asg.clone() {
            if let Some(grec) = self.state.asgs.get_mut(asg_name) {
                grec.update(at, |g| g.instances = without_member(&g.instances, id));
            }
            let description = format_args!("Terminated EC2 instance: {id}");
            self.activity(at, asg_name, ActivityStatus::Successful, description);
        }
        // Remove from any ELB registration.
        for erec in self.state.elbs.values_mut() {
            if erec.latest().registered.contains(id) {
                erec.update(at, |e| e.registered = without_member(&e.registered, id));
            }
        }
    }

    fn on_reconcile(&mut self, at: SimTime, asg_name: &AsgName) {
        let Some(grec) = self.state.asgs.get(asg_name) else {
            return; // ASG deleted; stop rescheduling.
        };
        let desired = grec.latest().desired_capacity as usize;
        let active = self.state.asg_active_instances(asg_name);
        let mut active: Vec<(SimTime, InstanceId)> = active
            .iter()
            .map(|i| (i.launched_at, i.id.clone()))
            .collect();
        for _ in active.len()..desired {
            self.try_launch(at, asg_name);
        }
        // Scale in: newest first, deterministic.
        active.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        for (_, id) in active.iter().take(active.len().saturating_sub(desired)) {
            self.begin_termination(at, id);
            let description = format_args!("Terminating EC2 instance (scale in): {id}");
            self.activity(at, asg_name, ActivityStatus::InProgress, description);
        }
        self.events.schedule(
            at + RECONCILE_INTERVAL,
            CloudEvent::Reconcile(asg_name.clone()),
        );
    }

    /// The launch configuration `group` launches from, or why a launch from
    /// it fails right now.
    fn launchable(&self, group: &AutoScalingGroup) -> Result<LaunchConfig, String> {
        let state = &self.state;
        let name = &group.launch_config;
        let lc = state.launch_configs.get(name).map(Versioned::latest);
        let lc = lc.ok_or_else(|| format!("launch configuration {name} not found"))?;
        let (ami, key_pair) = (state.amis.get(&lc.ami), state.key_pairs.get(&lc.key_pair));
        let security_group = state.security_groups.get(&lc.security_group);
        if !ami.is_some_and(|a| a.latest().available) {
            return Err(format!("AMI {} is unavailable", lc.ami));
        }
        if !key_pair.is_some_and(|k| k.latest().available) {
            return Err(format!("key pair {} does not exist", lc.key_pair));
        }
        if !security_group.is_some_and(|s| s.latest().available) {
            let id = &lc.security_group;
            return Err(format!("security group {id} does not exist"));
        }
        if state.active_instance_count() >= state.instance_limit {
            let limit = state.instance_limit;
            return Err(format!("InstanceLimitExceeded (limit {limit})"));
        }
        Ok(lc.clone())
    }

    /// Attempts to launch one instance into `asg_name`, recording a failed
    /// scaling activity when a referenced resource is missing or a limit is
    /// hit. These activity messages are what the operation node's log later
    /// surfaces as errors.
    fn try_launch(&mut self, at: SimTime, asg_name: &AsgName) {
        let Some(grec) = self.state.asgs.get(asg_name) else {
            return;
        };
        let group = grec.latest().clone();
        let lc = match self.launchable(&group) {
            Ok(lc) => lc,
            Err(reason) => {
                let message = format!("Failed to launch instance: {reason}");
                let description = format_args!("{message}");
                let status = ActivityStatus::Failed(message.clone());
                return self.activity(at, asg_name, status, description);
            }
        };
        let id = self.spawn(at, &lc, |i| {
            i.launch_config = Some(group.launch_config.clone());
            i.asg = Some(asg_name.clone());
        });
        if let Some(grec) = self.state.asgs.get_mut(asg_name) {
            grec.update(at, |g| g.instances = with_member(&g.instances, &id));
        }
        let (median_ms, sigma) = BOOT_TIME;
        let boot = LatencyModel::lognormal_median_millis(median_ms, sigma).sample(&mut self.rng);
        self.events
            .schedule(at + boot, CloudEvent::BootComplete(id.clone()));
        let description = format_args!("Launching a new EC2 instance: {id}");
        self.activity(at, asg_name, ActivityStatus::InProgress, description);
    }
}
