//! Recovery storms: cross-tenant repair arbitration under gateway load.
//!
//! PR 7's eager dispatch fires repairs mid-operation. At gateway scale
//! that means dozens of per-tenant dispatchers repairing *concurrently*
//! against what is operationally one shared, throttled cloud API. The
//! [`RecoveryStorm`] models exactly that contention, deterministically:
//!
//! * **Lane arbitration** — every actionable repair must pass the shared
//!   [`AdmissionGate`], which bounds concurrent
//!   repairs to a fixed lane pool on the *gateway* clock. Queue waits are
//!   charged to the repairing tenant's own virtual clock, so MTTR-under-
//!   load honestly includes the time spent waiting for a lane.
//! * **Throttling** — when the grant overlaps more than `throttle_at`
//!   in-flight repairs, the shared API pushes back: a per-excess-repair
//!   penalty is added to the tenant's clock and the repair is counted in
//!   `recovery.storm.throttled` (exactly once).
//! * **Shed-to-sweep fallback** — a repair whose lane wait would exceed
//!   the cap is *deferred*, never dropped: its detection index is parked
//!   and the per-tenant dispatcher's end-of-operation sweep executes it on
//!   the quiet post-soak path. `recovered + escalated == attempted` holds
//!   across all paths.
//!
//! Storm pressure is visible on the gateway's observability handle:
//! `recovery.storm.{requests,admitted,throttled,deferred,swept}` counters
//! plus the `recovery.storm.concurrent` (in-flight lanes) and
//! `recovery.storm.queue_depth` (shed backlog) gauges — all of which the
//! flight recorder frames during a storm.
//!
//! Everything is arithmetic on virtual clocks: the same seed and the same
//! notice interleaving produce byte-identical recovery transcripts even
//! under maximal contention.

use std::collections::{BTreeMap, BTreeSet};

use pod_cloud::Cloud;
use pod_core::{Detection, EngineNotice, SharedEnv};
use pod_log::LogStorage;
use pod_obs::{Counter, Gauge, Obs};
use pod_sim::{Clock, SimDuration, SimTime};

use crate::admission::{Admission, AdmissionGate};
use crate::dispatch::RecoveryDispatcher;
use crate::executor::RecoveryRun;

/// Contention knobs of a recovery storm.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Concurrent repair lanes against the shared cloud API. Default 2.
    pub lanes: usize,
    /// Maximum time a repair may queue for a lane before it is shed to
    /// the end-of-operation sweep. Default 5s (virtual).
    pub max_lane_wait: SimDuration,
    /// In-flight repairs the shared API serves at full speed; every
    /// repair overlapping more than this is throttled. Default 1.
    pub throttle_at: usize,
    /// Added delay per in-flight repair beyond
    /// [`throttle_at`](StormConfig::throttle_at). Default 3s (virtual).
    pub throttle_penalty: SimDuration,
}

impl Default for StormConfig {
    fn default() -> StormConfig {
        StormConfig {
            lanes: 2,
            max_lane_wait: SimDuration::from_secs(5),
            throttle_at: 1,
            throttle_penalty: SimDuration::from_secs(3),
        }
    }
}

/// Handle to one registered tenant (one operation's dispatcher).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantId(usize);

/// How a recovery run reached the executor during a storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPath {
    /// Dispatched eagerly through an admission-gate lane.
    Eager {
        /// Whether the shared API throttled the repair.
        throttled: bool,
        /// Lane queue wait plus throttle penalty charged to the tenant.
        delayed: SimDuration,
    },
    /// Shed to the end-of-operation sweep by the admission gate, then
    /// executed on the quiet path — deferred, never dropped.
    DeferredSwept,
    /// A step-less review (or a sweep-discovered incident) that never
    /// contended for a lane.
    Review,
}

impl RecoveryPath {
    /// Canonical tag for transcripts and journals.
    pub fn tag(&self) -> &'static str {
        match self {
            RecoveryPath::Eager {
                throttled: true, ..
            } => "eager-throttled",
            RecoveryPath::Eager { .. } => "eager",
            RecoveryPath::DeferredSwept => "deferred-swept",
            RecoveryPath::Review => "review",
        }
    }
}

/// One finished recovery run, tagged with its detection index and the
/// path it took through the storm.
#[derive(Debug, Clone)]
pub struct StormRecord {
    /// The detection index within the tenant's run.
    pub detection_index: usize,
    /// How the run reached the executor.
    pub path: RecoveryPath,
    /// The full recovery run.
    pub run: RecoveryRun,
}

/// Exact accounting of the storm's admission decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StormStats {
    /// Actionable repairs offered to the admission gate.
    pub requests: u64,
    /// Repairs granted a lane (eager path).
    pub admitted: u64,
    /// Admitted repairs the shared API throttled (counted once each).
    pub throttled: u64,
    /// Repairs shed to the sweep by the lane-wait cap.
    pub deferred: u64,
    /// Shed repairs later executed by a sweep (must equal `deferred`
    /// once every tenant swept).
    pub swept: u64,
    /// Highest in-flight lane count any grant observed.
    pub peak_concurrent: usize,
}

/// Cached handles for the `recovery.storm.*` metrics (on the gateway's
/// observability handle, so flight frames capture them).
#[derive(Debug)]
struct StormMetrics {
    requests: Counter,
    admitted: Counter,
    throttled: Counter,
    deferred: Counter,
    swept: Counter,
    concurrent: Gauge,
    queue_depth: Gauge,
}

impl StormMetrics {
    fn new(obs: &Obs) -> StormMetrics {
        StormMetrics {
            requests: obs.counter("recovery.storm.requests"),
            admitted: obs.counter("recovery.storm.admitted"),
            throttled: obs.counter("recovery.storm.throttled"),
            deferred: obs.counter("recovery.storm.deferred"),
            swept: obs.counter("recovery.storm.swept"),
            concurrent: obs.gauge("recovery.storm.concurrent"),
            queue_depth: obs.gauge("recovery.storm.queue_depth"),
        }
    }
}

/// One tenant's slot: its dispatcher plus the storm's bookkeeping about
/// which of its incidents went where.
#[derive(Debug)]
struct TenantSlot {
    dispatcher: RecoveryDispatcher,
    cloud: Cloud,
    /// Detection indices shed to the sweep by the admission gate.
    deferred: Vec<usize>,
    /// Detection indices dispatched eagerly: (throttled, charged delay).
    eager: BTreeMap<usize, (bool, SimDuration)>,
}

/// The shared cross-tenant repair arbiter. One storm serves every tenant
/// of a gateway soak; wire each engine's detection hook to
/// [`RecoveryStorm::on_notice`] and call [`RecoveryStorm::sweep`] per
/// tenant after the gateway finishes.
#[derive(Debug)]
pub struct RecoveryStorm {
    /// The shared arbitration timeline (the gateway clock).
    clock: Clock,
    gate: AdmissionGate,
    config: StormConfig,
    tenants: Vec<TenantSlot>,
    metrics: StormMetrics,
    stats: StormStats,
}

impl RecoveryStorm {
    /// A storm arbitrating on `clock` (the gateway clock) and reporting
    /// into `obs` (the gateway's observability handle).
    pub fn new(obs: &Obs, clock: Clock, config: StormConfig) -> RecoveryStorm {
        RecoveryStorm {
            gate: AdmissionGate::new(config.lanes, config.max_lane_wait),
            metrics: StormMetrics::new(obs),
            clock,
            config,
            tenants: Vec::new(),
            stats: StormStats::default(),
        }
    }

    /// Registers one tenant: its own cloud, log storage, expected
    /// environment and trace id, served by a dedicated dispatcher.
    pub fn register_tenant(
        &mut self,
        cloud: Cloud,
        storage: LogStorage,
        env: SharedEnv,
        trace_id: impl Into<String>,
    ) -> TenantId {
        let id = TenantId(self.tenants.len());
        self.tenants.push(TenantSlot {
            dispatcher: RecoveryDispatcher::new(cloud.clone(), storage, env, trace_id),
            cloud,
            deferred: Vec::new(),
            eager: BTreeMap::new(),
        });
        id
    }

    /// The engine-hook entry point for `tenant`. `Detected` notices pass
    /// straight through (pre-staging is tenant-local and free of shared
    /// API work); `Diagnosed` notices with an actionable repair contend
    /// for an admission-gate lane.
    pub fn on_notice(&mut self, tenant: TenantId, notice: &EngineNotice) {
        match notice {
            EngineNotice::Detected { .. } => self.tenants[tenant.0].dispatcher.on_notice(notice),
            EngineNotice::Diagnosed {
                detection_index,
                detection,
            } => self.diagnosed(tenant, *detection_index, detection, notice),
        }
    }

    fn diagnosed(
        &mut self,
        tenant: TenantId,
        detection_index: usize,
        detection: &Detection,
        notice: &EngineNotice,
    ) {
        if !self.tenants[tenant.0].dispatcher.is_actionable(detection) {
            // A step-less review: no shared-API repair work, no lane.
            self.tenants[tenant.0].dispatcher.on_notice(notice);
            return;
        }
        self.stats.requests += 1;
        self.metrics.requests.incr();
        let now = self.clock.now();
        match self.gate.request(now) {
            Admission::Granted {
                lane,
                start,
                waited,
                in_flight,
            } => {
                self.stats.admitted += 1;
                self.metrics.admitted.incr();
                self.stats.peak_concurrent = self.stats.peak_concurrent.max(in_flight);
                self.metrics.concurrent.set(in_flight as i64);
                let excess = in_flight.saturating_sub(self.config.throttle_at);
                let throttled = excess > 0;
                if throttled {
                    self.stats.throttled += 1;
                    self.metrics.throttled.incr();
                }
                // The lane queue wait and the throttle penalty both land
                // on the tenant's clock before the repair starts — that
                // is where MTTR-under-load diverges from the quiet path.
                let delay = waited + self.config.throttle_penalty * excess as u64;
                let slot = &mut self.tenants[tenant.0];
                if delay > SimDuration::ZERO {
                    slot.cloud.clock().advance(delay);
                }
                let before = slot.cloud.clock().now();
                slot.dispatcher.on_notice(notice);
                let took = slot.cloud.clock().now().duration_since(before);
                slot.eager.insert(detection_index, (throttled, delay));
                self.gate.occupy(lane, start + took);
            }
            Admission::Deferred { .. } => {
                self.stats.deferred += 1;
                self.metrics.deferred.incr();
                self.tenants[tenant.0].deferred.push(detection_index);
                self.update_queue_depth();
            }
        }
    }

    /// Refreshes the in-flight and backlog gauges at `now` — wired to
    /// `pod_gateway::Gateway::set_incident_hook` so every flight frame
    /// forced by a detection carries the storm's current pressure.
    pub fn observe(&mut self, now: SimTime) {
        self.metrics.concurrent.set(self.gate.in_flight(now) as i64);
        self.update_queue_depth();
    }

    /// The per-tenant end-of-operation sweep: executes everything the
    /// eager path did not handle — including every repair the gate shed —
    /// on the quiet post-soak path, and returns the tenant's finished
    /// runs tagged with the path each one took. No incident is dropped.
    pub fn sweep(&mut self, tenant: TenantId, detections: &[Detection]) -> Vec<StormRecord> {
        let shed: BTreeSet<usize> = std::mem::take(&mut self.tenants[tenant.0].deferred)
            .into_iter()
            .collect();
        self.stats.swept += shed.len() as u64;
        self.metrics.swept.add(shed.len() as u64);
        self.update_queue_depth();
        let slot = &mut self.tenants[tenant.0];
        slot.dispatcher.sweep(detections);
        let eager = std::mem::take(&mut slot.eager);
        slot.dispatcher
            .take_records()
            .into_iter()
            .map(|(detection_index, run)| {
                let path = match eager.get(&detection_index) {
                    Some(&(throttled, delayed)) => RecoveryPath::Eager { throttled, delayed },
                    None if shed.contains(&detection_index) => RecoveryPath::DeferredSwept,
                    None => RecoveryPath::Review,
                };
                StormRecord {
                    detection_index,
                    path,
                    run,
                }
            })
            .collect()
    }

    /// The storm's exact admission accounting.
    pub fn stats(&self) -> StormStats {
        self.stats
    }

    /// The contention knobs the storm runs under.
    pub fn config(&self) -> &StormConfig {
        &self.config
    }

    fn update_queue_depth(&self) {
        let backlog: usize = self.tenants.iter().map(|t| t.deferred.len()).sum();
        self.metrics.queue_depth.set(backlog as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use pod_cloud::LaunchConfigUpdate;

    /// A cluster whose upgrade launch configuration points at a stale AMI
    /// — the repairable `lc-wrong-ami` fault the dispatcher tests use.
    fn corrupted_tenant(seed: u64) -> (Cloud, SharedEnv) {
        let (cloud, env) = fixtures::cluster(seed);
        let old = cloud.admin_create_ami("app-old", "1.0");
        cloud.admin_update_launch_config(
            &env.launch_config,
            LaunchConfigUpdate {
                ami: Some(old),
                ..LaunchConfigUpdate::default()
            },
        );
        (cloud, SharedEnv::new(env))
    }

    fn diagnosed(cloud: &Cloud, cause: &str) -> Detection {
        fixtures::diagnosed(cloud, "asg-launch-config-correct", Some(cause))
    }

    fn register(storm: &mut RecoveryStorm, cloud: &Cloud, env: &SharedEnv, id: &str) -> TenantId {
        storm.register_tenant(cloud.clone(), LogStorage::new(), env.clone(), id)
    }

    fn dispatch_one(storm: &mut RecoveryStorm, tenant: TenantId, detection: &Detection) {
        storm.on_notice(
            tenant,
            &EngineNotice::Diagnosed {
                detection_index: 0,
                detection: detection.clone(),
            },
        );
    }

    /// Satellite: quiet-vs-loaded equivalence. The same tenant (same
    /// seed, same corruption) repairs to the same verified end state —
    /// same plan ladder, same verdict, same verification keys — whether
    /// the cloud is quiet or contended; contention only moves the finish
    /// time later on the virtual clock.
    #[test]
    fn loaded_repair_matches_quiet_end_state_only_slower() {
        // Quiet: plenty of lanes, throttle threshold never reached.
        let clock_q = Clock::new();
        let obs_q = Obs::new(clock_q.clone());
        let mut quiet = RecoveryStorm::new(
            &obs_q,
            clock_q,
            StormConfig {
                lanes: 4,
                throttle_at: 8,
                ..StormConfig::default()
            },
        );
        let (cloud_q, env_q) = corrupted_tenant(91);
        let tq = register(&mut quiet, &cloud_q, &env_q, "quiet-1");
        let dq = diagnosed(&cloud_q, "lc-wrong-ami");
        dispatch_one(&mut quiet, tq, &dq);
        let quiet_records = quiet.sweep(tq, std::slice::from_ref(&dq));

        // Loaded: one lane, zero-tolerance throttling, and a contending
        // tenant that grabs the lane first.
        let clock_l = Clock::new();
        let obs_l = Obs::new(clock_l.clone());
        let mut loaded = RecoveryStorm::new(
            &obs_l,
            clock_l,
            StormConfig {
                lanes: 1,
                throttle_at: 0,
                throttle_penalty: SimDuration::from_secs(5),
                max_lane_wait: SimDuration::from_secs(3600),
            },
        );
        let (cloud_a, env_a) = corrupted_tenant(95);
        let ta = register(&mut loaded, &cloud_a, &env_a, "contender");
        let (cloud_b, env_b) = corrupted_tenant(91);
        let tb = register(&mut loaded, &cloud_b, &env_b, "quiet-1");
        let da = diagnosed(&cloud_a, "lc-wrong-ami");
        dispatch_one(&mut loaded, ta, &da);
        let db = diagnosed(&cloud_b, "lc-wrong-ami");
        dispatch_one(&mut loaded, tb, &db);
        loaded.sweep(ta, std::slice::from_ref(&da));
        let loaded_records = loaded.sweep(tb, std::slice::from_ref(&db));

        assert_eq!(quiet_records.len(), 1);
        assert_eq!(loaded_records.len(), 1);
        let q = &quiet_records[0].run;
        let l = &loaded_records[0].run;

        // Same verified end state…
        assert_eq!(q.root_cause, l.root_cause);
        assert_eq!(q.plans_tried, l.plans_tried);
        assert_eq!(q.outcome, l.outcome);
        assert!(q.outcome.is_recovered());
        let keys = |r: &RecoveryRun| {
            r.verifications
                .iter()
                .map(|v| (v.key.clone(), v.passed))
                .collect::<Vec<_>>()
        };
        assert_eq!(keys(q), keys(l));

        // …only later on the virtual clock.
        match loaded_records[0].path {
            RecoveryPath::Eager { throttled, delayed } => {
                assert!(throttled, "1-lane storm with throttle_at=0 must throttle");
                assert!(delayed > SimDuration::ZERO);
            }
            ref other => panic!("expected eager path, got {other:?}"),
        }
        assert!(
            l.finished_at > q.finished_at,
            "loaded repair must finish later: quiet {:?} vs loaded {:?}",
            q.finished_at,
            l.finished_at
        );
        assert!(l.mttr().unwrap() > q.mttr().unwrap());
        assert_eq!(loaded.stats().throttled, 2);
        assert_eq!(obs_l.snapshot().counter("recovery.storm.throttled"), 2);
    }

    /// Shed-to-sweep: a repair the gate cannot serve within the wait cap
    /// is deferred, then executed by the sweep — never dropped, and the
    /// accounting stays exact.
    #[test]
    fn deferred_repair_is_swept_never_dropped() {
        let clock = Clock::new();
        let obs = Obs::new(clock.clone());
        let mut storm = RecoveryStorm::new(
            &obs,
            clock,
            StormConfig {
                lanes: 1,
                max_lane_wait: SimDuration::ZERO,
                throttle_at: 8,
                ..StormConfig::default()
            },
        );
        let (cloud_a, env_a) = corrupted_tenant(21);
        let ta = register(&mut storm, &cloud_a, &env_a, "t-a");
        let (cloud_b, env_b) = corrupted_tenant(22);
        let tb = register(&mut storm, &cloud_b, &env_b, "t-b");

        // Tenant A takes the only lane; tenant B's repair would have to
        // queue past the (zero) cap and is shed to the sweep.
        let da = diagnosed(&cloud_a, "lc-wrong-ami");
        dispatch_one(&mut storm, ta, &da);
        let db = diagnosed(&cloud_b, "lc-wrong-ami");
        dispatch_one(&mut storm, tb, &db);

        let s = storm.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.deferred, 1);
        assert_eq!(s.swept, 0, "not swept yet");
        assert_eq!(
            obs.snapshot().gauges.get("recovery.storm.queue_depth"),
            Some(&1)
        );

        let ra = storm.sweep(ta, std::slice::from_ref(&da));
        let rb = storm.sweep(tb, std::slice::from_ref(&db));
        assert_eq!(ra.len(), 1);
        assert_eq!(rb.len(), 1);
        assert_eq!(ra[0].path.tag(), "eager");
        assert_eq!(rb[0].path.tag(), "deferred-swept");
        assert!(rb[0].run.outcome.is_recovered(), "swept repair still runs");

        let s = storm.stats();
        assert_eq!(s.swept, s.deferred);
        assert_eq!(s.admitted + s.deferred, s.requests);
        assert_eq!(obs.snapshot().counter("recovery.storm.swept"), 1);
        assert_eq!(
            obs.snapshot().gauges.get("recovery.storm.queue_depth"),
            Some(&0)
        );
    }

    /// Non-actionable diagnoses (benign interference, no cause found)
    /// never touch the admission gate: lanes are for real repairs.
    #[test]
    fn reviews_do_not_contend_for_lanes() {
        let clock = Clock::new();
        let obs = Obs::new(clock.clone());
        let mut storm = RecoveryStorm::new(&obs, clock, StormConfig::default());
        let (cloud, env) = corrupted_tenant(31);
        let t = register(&mut storm, &cloud, &env, "t-r");
        let d = diagnosed(&cloud, "concurrent-scale-in");
        dispatch_one(&mut storm, t, &d);
        assert_eq!(storm.stats().requests, 0);
        let records = storm.sweep(t, std::slice::from_ref(&d));
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].path, RecoveryPath::Review);
        assert_eq!(records[0].run.plans_tried, vec!["confirm-resolved"]);
    }
}
