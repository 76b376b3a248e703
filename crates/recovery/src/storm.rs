//! Recovery storms: the repair lanes every tenant of a gateway soak shares.
//!
//! Eager dispatch fires repairs mid-operation. At gateway scale that means
//! dozens of per-tenant dispatchers repairing *concurrently* against what
//! is operationally one shared, rate-limited cloud API. The
//! [`RecoveryStorm`] is the one place that contention is modelled,
//! deterministically, and it holds nothing else: each tenant's
//! [`RecoveryDispatcher`](crate::RecoveryDispatcher) owns its incidents and
//! asks the storm only for a lane, in one short call before its repair
//! (`admit`) and one after it (`occupy`). No repair runs while the storm is
//! borrowed.
//!
//! * **Lane arbitration** — every actionable repair must be granted one
//!   of a fixed pool of lanes, each busy until a time on the *gateway*
//!   clock. A repair gets the lane that frees earliest (ties to the lowest
//!   index). Queue waits are charged to the repairing tenant's own virtual
//!   clock, so MTTR-under-load honestly includes the time spent waiting
//!   for a lane.
//! * **Throttling** — when the grant overlaps more than `throttle_at`
//!   in-flight repairs, the shared API pushes back: a per-excess-repair
//!   penalty is added to the tenant's clock and the repair is counted in
//!   `recovery.storm.throttled` (exactly once).
//! * **Shed-to-sweep fallback** — a repair whose lane wait would exceed
//!   the cap is *deferred*, never dropped, and reserves no lane: the
//!   dispatcher parks its detection index and its own end-of-operation
//!   sweep executes it on the quiet post-soak path (reported back with
//!   `swept`).
//!   `recovered + escalated == attempted` holds across all paths.
//!
//! Storm pressure is visible on the gateway's observability handle:
//! `recovery.storm.{requests,admitted,throttled,deferred,swept}` counters
//! plus the `recovery.storm.concurrent` (in-flight lanes) and
//! `recovery.storm.queue_depth` (shed backlog) gauges — all of which the
//! flight recorder frames during a storm.
//!
//! Everything is arithmetic on virtual clocks: the same seed and the same
//! verdict interleaving produce byte-identical recovery transcripts even
//! under maximal contention.

use pod_obs::{Counter, Gauge, Obs};
use pod_sim::{Clock, SimDuration, SimTime};

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

/// Exact accounting of the storm's admission decisions, read off its
/// `recovery.storm.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StormStats {
    /// Actionable repairs that asked for a lane.
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

/// A lane granted to one repair; hand it back to `occupy` once the
/// repair's duration is known.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Grant {
    lane: usize,
    /// When the lane is free for this repair (≥ the request time).
    start: SimTime,
    /// Whether the shared API throttled the repair.
    pub(crate) throttled: bool,
    /// Lane queue wait plus throttle penalty, charged to the tenant's
    /// clock before the repair starts.
    pub(crate) delay: SimDuration,
}

/// The lane pool every tenant of a gateway soak repairs through. Hand one
/// `Rc<RefCell<RecoveryStorm>>` to every tenant's
/// [`RecoveryDispatcher::new`](crate::RecoveryDispatcher::new).
#[derive(Debug)]
pub struct RecoveryStorm {
    /// The shared arbitration timeline (the gateway clock).
    clock: Clock,
    /// Busy-until time per lane.
    lanes: Vec<SimTime>,
    config: StormConfig,
    metrics: StormMetrics,
    /// Shed repairs not yet swept, across every tenant.
    backlog: usize,
    /// Highest in-flight lane count any grant observed.
    peak_concurrent: usize,
}

impl RecoveryStorm {
    /// A storm arbitrating on `clock` (the gateway clock) and reporting
    /// into `obs` (the gateway's observability handle).
    ///
    /// # Panics
    ///
    /// Panics when `config.lanes` is zero.
    pub fn new(obs: &Obs, clock: Clock, config: StormConfig) -> RecoveryStorm {
        assert!(config.lanes > 0, "a recovery storm needs at least one lane");
        RecoveryStorm {
            lanes: vec![SimTime::ZERO; config.lanes],
            metrics: StormMetrics::new(obs),
            clock,
            config,
            backlog: 0,
            peak_concurrent: 0,
        }
    }

    /// One actionable repair asks for a lane now. `None` means it was
    /// shed: every lane is busy past the wait cap, and the caller parks
    /// the repair for its sweep.
    pub(crate) fn admit(&mut self) -> Option<Grant> {
        self.metrics.requests.incr();
        let now = self.clock.now();
        let (lane, free_at) = self
            .lanes
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(i, at)| (at, i))
            .expect("a storm has at least one lane");
        let start = free_at.max(now);
        let waited = start.duration_since(now);
        if waited > self.config.max_lane_wait {
            self.metrics.deferred.incr();
            self.backlog += 1;
            self.metrics.queue_depth.set(self.backlog as i64);
            return None;
        }
        // Lanes busy at `start`, counting this repair: the concurrency
        // level the shared API actually sees.
        let in_flight = self.in_flight(start) + 1;
        self.metrics.admitted.incr();
        self.peak_concurrent = self.peak_concurrent.max(in_flight);
        self.metrics.concurrent.set(in_flight as i64);
        let excess = in_flight.saturating_sub(self.config.throttle_at);
        if excess > 0 {
            self.metrics.throttled.incr();
        }
        Some(Grant {
            lane,
            start,
            throttled: excess > 0,
            delay: waited + self.config.throttle_penalty * excess as u64,
        })
    }

    /// Holds `grant`'s lane for the `took` its repair ran. An earlier end
    /// never shortens the lane's existing hold.
    pub(crate) fn occupy(&mut self, grant: Grant, took: SimDuration) {
        let busy = &mut self.lanes[grant.lane];
        *busy = (*busy).max(grant.start + took);
    }

    /// Lanes busy at `at`.
    fn in_flight(&self, at: SimTime) -> usize {
        self.lanes.iter().filter(|&&busy| busy > at).count()
    }

    /// A tenant's sweep is about to execute `n` shed repairs.
    pub(crate) fn swept(&mut self, n: usize) {
        self.metrics.swept.add(n as u64);
        self.backlog -= n;
        self.metrics.queue_depth.set(self.backlog as i64);
    }

    /// Refreshes the in-flight and backlog gauges at `now` — wired to
    /// `pod_gateway::Gateway::set_incident_hook` so every flight frame
    /// forced by a detection carries the storm's current pressure.
    pub fn observe(&mut self, now: SimTime) {
        self.metrics.concurrent.set(self.in_flight(now) as i64);
        self.metrics.queue_depth.set(self.backlog as i64);
    }

    /// The storm's exact admission accounting.
    pub fn stats(&self) -> StormStats {
        let m = &self.metrics;
        StormStats {
            requests: m.requests.get(),
            admitted: m.admitted.get(),
            throttled: m.throttled.get(),
            deferred: m.deferred.get(),
            swept: m.swept.get(),
            peak_concurrent: self.peak_concurrent,
        }
    }

    /// The contention knobs the storm runs under.
    pub fn config(&self) -> &StormConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;
    use crate::dispatch::{DispatchRecord, RecoveryDispatcher, RecoveryPath};
    use crate::executor::RecoveryRun;
    use crate::fixtures;
    use pod_cloud::Cloud;
    use pod_core::{Detection, SharedEnv};
    use pod_log::LogStorage;

    /// A [`fixtures::wrong_ami`] cluster and its shared expectation.
    fn corrupted_tenant(seed: u64) -> (Cloud, SharedEnv) {
        let (cloud, env) = fixtures::wrong_ami(seed);
        (cloud, SharedEnv::new(env))
    }

    fn diagnosed(cloud: &Cloud, cause: &str) -> Detection {
        fixtures::diagnosed(cloud, "asg-launch-config-correct", Some(cause))
    }

    fn storm(config: StormConfig) -> (Obs, Rc<RefCell<RecoveryStorm>>) {
        let clock = Clock::new();
        let obs = Obs::new(clock.clone());
        let storm = RecoveryStorm::new(&obs, clock, config);
        (obs, Rc::new(RefCell::new(storm)))
    }

    /// A tenant: its own dispatcher, repairing through the shared lanes.
    fn tenant(
        storm: &Rc<RefCell<RecoveryStorm>>,
        cloud: &Cloud,
        env: &SharedEnv,
        id: &str,
    ) -> RecoveryDispatcher {
        let storm = Some(Rc::clone(storm));
        RecoveryDispatcher::new(cloud.clone(), LogStorage::new(), env.clone(), id, storm)
    }

    fn dispatch_one(tenant: &mut RecoveryDispatcher, detection: &Detection) {
        tenant.on_diagnosis(0, detection);
    }

    fn finish(tenant: &mut RecoveryDispatcher, detection: &Detection) -> Vec<DispatchRecord> {
        tenant.finish(std::slice::from_ref(detection))
    }

    /// Quiet-vs-loaded equivalence. The same tenant (same seed, same
    /// corruption) repairs to the same verified end state — same plan
    /// ladder, same verdict, the same log line for line — whether the
    /// cloud is quiet or contended; contention only moves the run later on
    /// the virtual clock.
    #[test]
    fn loaded_repair_matches_quiet_end_state_only_slower() {
        // Quiet: plenty of lanes, throttle threshold never reached.
        let (_, quiet) = storm(StormConfig {
            lanes: 4,
            throttle_at: 8,
            ..StormConfig::default()
        });
        let (cloud_q, env_q) = corrupted_tenant(91);
        let mut tq = tenant(&quiet, &cloud_q, &env_q, "quiet-1");
        let dq = diagnosed(&cloud_q, "lc-wrong-ami");
        dispatch_one(&mut tq, &dq);
        let quiet_records = finish(&mut tq, &dq);

        // Loaded: one lane, zero-tolerance throttling, and a contending
        // tenant that grabs the lane first.
        let (obs_l, loaded) = storm(StormConfig {
            lanes: 1,
            throttle_at: 0,
            throttle_penalty: SimDuration::from_secs(5),
            max_lane_wait: SimDuration::from_secs(3600),
        });
        let (cloud_a, env_a) = corrupted_tenant(95);
        let mut ta = tenant(&loaded, &cloud_a, &env_a, "contender");
        let (cloud_b, env_b) = corrupted_tenant(91);
        let mut tb = tenant(&loaded, &cloud_b, &env_b, "quiet-1");
        let da = diagnosed(&cloud_a, "lc-wrong-ami");
        dispatch_one(&mut ta, &da);
        let db = diagnosed(&cloud_b, "lc-wrong-ami");
        dispatch_one(&mut tb, &db);
        finish(&mut ta, &da);
        let loaded_records = finish(&mut tb, &db);

        assert_eq!(quiet_records.len(), 1);
        assert_eq!(loaded_records.len(), 1);
        let q = &quiet_records[0].run;
        let l = &loaded_records[0].run;

        // Same verified end state…
        assert_eq!(q.root_cause, l.root_cause);
        assert_eq!(q.plans_tried, l.plans_tried);
        assert_eq!(q.outcome, l.outcome);
        assert!(q.outcome.is_recovered());
        let messages =
            |r: &RecoveryRun| r.log.iter().map(|e| e.message.clone()).collect::<Vec<_>>();
        assert_eq!(messages(q), messages(l));

        // …only later on the virtual clock.
        assert_eq!(
            loaded_records[0].path,
            RecoveryPath::Eager { throttled: true },
            "1-lane storm with throttle_at=0 must throttle"
        );
        assert!(l.started_at > q.started_at, "the lane wait lands first");
        assert!(
            l.finished_at > q.finished_at,
            "loaded repair must finish later: quiet {:?} vs loaded {:?}",
            q.finished_at,
            l.finished_at
        );
        assert!(l.mttr().unwrap() > q.mttr().unwrap());
        assert_eq!(loaded.borrow().stats().throttled, 2);
        assert_eq!(obs_l.snapshot().counter("recovery.storm.throttled"), 2);
    }

    /// A one-lane storm that sheds anything that would have to wait.
    fn zero_wait_storm() -> (Obs, Rc<RefCell<RecoveryStorm>>) {
        storm(StormConfig {
            lanes: 1,
            max_lane_wait: SimDuration::ZERO,
            throttle_at: 8,
            ..StormConfig::default()
        })
    }

    /// Shed-to-sweep: a repair no lane can serve within the wait cap
    /// is deferred, then executed by the sweep — never dropped, and the
    /// accounting stays exact.
    #[test]
    fn deferred_repair_is_swept_never_dropped() {
        let (obs, storm) = zero_wait_storm();
        let (cloud_a, env_a) = corrupted_tenant(21);
        let mut ta = tenant(&storm, &cloud_a, &env_a, "t-a");
        let (cloud_b, env_b) = corrupted_tenant(22);
        let mut tb = tenant(&storm, &cloud_b, &env_b, "t-b");

        // Tenant A takes the only lane; tenant B's repair would have to
        // queue past the (zero) cap and is shed to the sweep.
        let da = diagnosed(&cloud_a, "lc-wrong-ami");
        dispatch_one(&mut ta, &da);
        let db = diagnosed(&cloud_b, "lc-wrong-ami");
        dispatch_one(&mut tb, &db);

        let s = storm.borrow().stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.admitted, 1);
        assert_eq!(s.deferred, 1);
        assert_eq!(s.swept, 0, "not swept yet");
        assert_eq!(
            obs.snapshot().gauges.get("recovery.storm.queue_depth"),
            Some(&1)
        );

        let ra = finish(&mut ta, &da);
        let rb = finish(&mut tb, &db);
        assert_eq!(ra.len(), 1);
        assert_eq!(rb.len(), 1);
        assert_eq!(ra[0].path.tag(), "eager");
        assert_eq!(rb[0].path.tag(), "deferred-swept");
        assert!(rb[0].run.outcome.is_recovered(), "swept repair still runs");
        assert_eq!(rb[0].run.plans_tried, vec!["rollback-launch-config"]);

        let s = storm.borrow().stats();
        assert_eq!(s.swept, s.deferred);
        assert_eq!(s.admitted + s.deferred, s.requests);
        assert_eq!(obs.snapshot().counter("recovery.storm.swept"), 1);
        assert_eq!(
            obs.snapshot().gauges.get("recovery.storm.queue_depth"),
            Some(&0)
        );
    }

    /// Non-actionable diagnoses (benign interference, no cause found)
    /// never ask for a lane: lanes are for real repairs.
    #[test]
    fn reviews_do_not_contend_for_lanes() {
        let (_, storm) = storm(StormConfig::default());
        let (cloud, env) = corrupted_tenant(31);
        let mut t = tenant(&storm, &cloud, &env, "t-r");
        let d = diagnosed(&cloud, "concurrent-scale-in");
        dispatch_one(&mut t, &d);
        assert_eq!(storm.borrow().stats().requests, 0);
        let records = finish(&mut t, &d);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].path, RecoveryPath::Review);
        assert_eq!(records[0].run.plans_tried, vec!["confirm-resolved"]);
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A bare storm of `lanes` lanes on a clock the test moves by hand.
    fn lanes(lanes: usize, max_lane_wait: SimDuration) -> (Clock, RecoveryStorm) {
        let clock = Clock::new();
        let config = StormConfig {
            lanes,
            max_lane_wait,
            ..StormConfig::default()
        };
        let storm = RecoveryStorm::new(&Obs::new(clock.clone()), clock.clone(), config);
        (clock, storm)
    }

    #[test]
    fn grants_idle_lane_immediately() {
        let (clock, mut storm) = lanes(2, SimDuration::from_secs(10));
        clock.advance_to(t(5));
        let grant = storm.admit().expect("an idle lane");
        assert_eq!((grant.lane, grant.start), (0, t(5)));
        assert_eq!(grant.delay, SimDuration::ZERO);
        assert!(!grant.throttled);
    }

    #[test]
    fn queues_on_earliest_lane_and_counts_overlap() {
        let (_, mut storm) = lanes(2, SimDuration::from_secs(100));
        let first = storm.admit().unwrap();
        storm.occupy(first, SimDuration::from_secs(30));
        let second = storm.admit().unwrap();
        storm.occupy(second, SimDuration::from_secs(10));
        // Lane 1 frees first; the repair queues behind it and overlaps the
        // still-busy lane 0, so the shared API throttles it too.
        let grant = storm.admit().unwrap();
        assert_eq!((grant.lane, grant.start), (1, t(10)));
        assert!(grant.throttled, "overlaps lane 0 (busy until 30s)");
        assert_eq!(grant.delay, SimDuration::from_secs(10 + 3));
        assert_eq!(storm.stats().peak_concurrent, 2);
    }

    #[test]
    fn defers_past_the_wait_cap_without_mutating_lanes() {
        let (clock, mut storm) = lanes(1, SimDuration::from_secs(5));
        let grant = storm.admit().unwrap();
        storm.occupy(grant, SimDuration::from_secs(60));
        assert!(storm.admit().is_none());
        // The deferral reserved nothing: a later request (within the cap)
        // still gets the lane at 60s.
        clock.advance_to(t(58));
        assert_eq!(storm.admit().unwrap().start, t(60));
        assert_eq!(storm.stats().deferred, 1);
    }

    #[test]
    fn occupy_is_monotone() {
        let (_, mut storm) = lanes(1, SimDuration::ZERO);
        let grant = storm.admit().unwrap();
        storm.occupy(grant, SimDuration::from_secs(20));
        storm.occupy(grant, SimDuration::from_secs(10));
        assert_eq!(storm.in_flight(t(15)), 1);
        assert_eq!(storm.in_flight(t(20)), 0);
    }

    #[test]
    fn same_request_sequence_same_grants() {
        let drive = || {
            let (clock, mut storm) = lanes(3, SimDuration::from_secs(30));
            let mut trace = Vec::new();
            for i in 0..20u64 {
                clock.advance_to(t(i * 3));
                let grant = storm.admit();
                if let Some(grant) = grant {
                    storm.occupy(grant, SimDuration::from_secs(25));
                }
                trace.push(format!("{grant:?}"));
            }
            trace
        };
        assert_eq!(drive(), drive());
    }
}
