//! Scenario construction: a cluster on the simulated cloud, an upgrade
//! configuration, the expected environment, and the POD engine wired with
//! the rolling-upgrade artefacts.

use std::sync::{Arc, Mutex};

use pod_assert::{ExpectedEnv, RetryPolicy};
use pod_cloud::{Cloud, CloudConfig};
use pod_core::{CompiledPod, PodConfig, PodEngine, SharedEnv};
use pod_faulttree::{rolling_upgrade_repository, steps, TestOrder};
use pod_log::{LogEvent, LogStorage};
use pod_orchestrator::{
    process_def, CollectingObserver, FaultInjector, FaultType, RollingUpgrade, UpgradeConfig,
};
use pod_sim::{Clock, SimDuration, SimRng, SimTime};

/// Everything one experiment run operates on.
#[derive(Debug)]
pub struct Scenario {
    /// The simulated cloud account.
    pub cloud: Cloud,
    /// The upgrade the orchestrator will perform.
    pub upgrade: UpgradeConfig,
    /// The shared expected environment.
    pub env: SharedEnv,
    /// Central log storage.
    pub storage: LogStorage,
    /// The name of the launch configuration the upgrade will create (the
    /// fault-injection target).
    pub upgrade_lc_name: String,
    /// The trace id of the upgrade.
    pub trace_id: String,
}

/// One run's fault injection, as the campaign and the soak both schedule
/// it: the fault lands at the first orchestrator tick at or after `due`,
/// and a configuration fault also waits for the upgrade's launch
/// configuration to exist.
#[derive(Debug)]
pub(crate) struct Injection {
    pub(crate) injector: FaultInjector,
    due: SimTime,
    /// When the fault landed.
    pub(crate) at: Option<SimTime>,
}

impl Injection {
    pub(crate) fn new(fault: FaultType, due: SimTime) -> Injection {
        Injection {
            injector: FaultInjector::new(fault),
            due,
            at: None,
        }
    }

    pub(crate) fn tick(&mut self, scenario: &Scenario, now: SimTime, rng: &mut SimRng) {
        if self.at.is_some() || now < self.due {
            return;
        }
        let cloud = &scenario.cloud;
        let lc = pod_cloud::LaunchConfigName::new(&scenario.upgrade_lc_name);
        if self.injector.fault().is_configuration_fault()
            && cloud.admin_describe_launch_config(&lc).is_none()
        {
            return;
        }
        self.injector
            .inject(cloud, &scenario.upgrade, &scenario.upgrade_lc_name, rng);
        self.at = Some(now);
    }

    /// Runs `attempt` with the injection due at `due`; while it reports the
    /// fault never landed (a fast upgrade ended first) halves `due` and runs
    /// it again, so every run really carries its fault.
    pub(crate) fn retry_earlier<T>(
        mut due: SimTime,
        mut attempt: impl FnMut(SimTime) -> (T, bool),
    ) -> T {
        loop {
            let (result, landed) = attempt(due);
            if landed || due < SimTime::from_secs(10) {
                return result;
            }
            due = SimTime::from_micros(due.as_micros() / 2);
        }
    }
}

/// Scenario knobs.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Cluster size (the paper uses 4 or 20).
    pub cluster_size: u32,
    /// The replacements per wait the engine expects (the paper's `k`: 1
    /// for 4-node, 4 for 20-node). The orchestrator replaces one instance
    /// at a time whatever it is.
    pub batch_size: u32,
    /// RNG seed for the whole run.
    pub seed: u64,
    /// Whether fault trees include the amended instance-limit root cause.
    pub amended_trees: bool,
    /// Sibling visiting order in diagnosis.
    pub test_order: TestOrder,
}

impl Default for ScenarioConfig {
    fn default() -> ScenarioConfig {
        ScenarioConfig {
            cluster_size: 4,
            batch_size: 1,
            seed: 1,
            amended_trees: true,
            test_order: TestOrder::ByProbability,
        }
    }
}

/// Builds a steady-state cluster ready for a rolling upgrade.
pub fn build_scenario(config: &ScenarioConfig) -> Scenario {
    let cloud = Cloud::new(
        Clock::new(),
        SimRng::seed_from(config.seed),
        CloudConfig::default(),
    );
    let ami_v1 = cloud.admin_create_ami("app", "1.0");
    let ami_v2 = cloud.admin_create_ami("app", "2.0");
    let cluster = cloud.admin_create_cluster(
        ami_v1,
        "prod-key",
        "lc-v1",
        "pm--asg",
        (config.cluster_size * 2).max(30),
        config.cluster_size,
    );
    let trace_id = format!("run-{}", config.seed);
    let upgrade = UpgradeConfig::new(
        "pm",
        cluster.asg.clone(),
        cluster.elb.clone(),
        ami_v2.clone(),
    );
    let upgrade_lc_name = format!("{}-{}", upgrade.new_launch_config, trace_id);
    let env = SharedEnv::new(ExpectedEnv {
        launch_config: pod_cloud::LaunchConfigName::new(&upgrade_lc_name),
        expected_ami: ami_v2,
        ..ExpectedEnv::for_cluster(cluster, "2.0", config.cluster_size)
    });
    Scenario {
        cloud,
        upgrade,
        env,
        storage: LogStorage::new(),
        upgrade_lc_name,
        trace_id,
    }
}

/// Runs one fault-free rolling upgrade of a `cluster_size`-instance cluster
/// and returns its operation log: the training input of process mining and
/// timeout calibration.
pub fn healthy_log(seed: u64, cluster_size: u32) -> Vec<LogEvent> {
    let scenario = build_scenario(&ScenarioConfig {
        seed,
        cluster_size,
        ..ScenarioConfig::default()
    });
    let mut upgrade = RollingUpgrade::new(scenario.cloud, scenario.upgrade, scenario.trace_id);
    let mut observer = CollectingObserver::default();
    let outcome = upgrade.run(&mut observer).outcome;
    assert!(outcome.is_success(), "fault-free upgrade: {outcome:?}");
    observer.events
}

/// Builds the POD engine configuration for the rolling upgrade (uncompiled;
/// [`build_engine`] compiles it once per fleet).
pub fn pod_config(config: &ScenarioConfig) -> PodConfig {
    let mut c = PodConfig::new(
        process_def::rolling_upgrade_model(),
        process_def::rolling_upgrade_rules(),
        process_def::rolling_upgrade_assertions(),
        rolling_upgrade_repository(config.amended_trees),
    );
    c.relevance_patterns = process_def::relevance_patterns()
        .into_iter()
        .map(str::to_string)
        .collect();
    c.known_error_patterns = process_def::known_error_patterns()
        .into_iter()
        .map(str::to_string)
        .collect();
    c.operation_start_pattern = process_def::operation_start_pattern().to_string();
    c.operation_end_pattern = process_def::operation_end_pattern().to_string();
    c.wait_activity = Some(steps::WAIT_ASG.to_string());
    c.completion_activity = Some(steps::READY.to_string());
    c.in_flight_activities = vec![
        steps::DEREGISTER.to_string(),
        steps::TERMINATE.to_string(),
        steps::WAIT_ASG.to_string(),
    ];
    c.test_order = config.test_order;
    c.batch_size = config.batch_size;
    // The step timeout is the 95th percentile of the historical replacement
    // duration (terminate ≈ 25 s + reconcile ≤ 10 s + boot, lognormal with a
    // heavy tail). Late-but-healthy replacements beyond p95 become the
    // paper's first false-positive class.
    c.step_timeout = SimDuration::from_millis(82_000);
    // Regression-test assertions at every periodic tick: every referenced
    // resource must still exist.
    c.periodic_assertions = vec![
        pod_assert::CloudAssertion::AmiAvailable,
        pod_assert::CloudAssertion::KeyPairAvailable,
        pod_assert::CloudAssertion::SecurityGroupAvailable,
        pod_assert::CloudAssertion::ElbAvailable,
    ];
    c.retry_policy = RetryPolicy {
        max_retries: 4,
        base_backoff: SimDuration::from_millis(200),
        multiplier: 2.0,
        timeout: SimDuration::from_secs(20),
    };
    c.engine_seed = config.seed;
    c
}

/// [`pod_config`] compiled, once per distinct configuration it can return.
/// The memo sits here because every driver — campaign, soak, the ledger —
/// reaches engines only through [`build_engine`], one call per tenant, and
/// none has a fleet-wide place to hold the compiled form. Its key is exactly
/// what `pod_config` reads besides the seed (which goes to the engine), so
/// it holds the few combinations the drivers use and is never invalidated.
fn compiled_pod(config: &ScenarioConfig) -> Arc<CompiledPod> {
    type Key = (bool, TestOrder, u32);
    static COMPILED: Mutex<Vec<(Key, Arc<CompiledPod>)>> = Mutex::new(Vec::new());
    let key = (config.amended_trees, config.test_order, config.batch_size);
    let mut compiled = COMPILED
        .lock()
        .expect("the rolling-upgrade patterns compile, so no holder panicked");
    if let Some((_, pod)) = compiled.iter().find(|(k, _)| *k == key) {
        return Arc::clone(pod);
    }
    let pod = pod_config(config)
        .compile()
        .expect("rolling-upgrade patterns compile");
    compiled.push((key, Arc::clone(&pod)));
    pod
}

/// Builds the engine for a scenario. Compiles nothing after the first call
/// for a given (`amended_trees`, `test_order`, `batch_size`): every engine
/// of a fleet shares one [`CompiledPod`] and differs in its scenario and
/// seed only.
pub fn build_engine(scenario: &Scenario, config: &ScenarioConfig) -> PodEngine {
    PodEngine::from_compiled(
        &compiled_pod(config),
        scenario.cloud.clone(),
        scenario.storage.clone(),
        scenario.env.clone(),
        scenario.trace_id.clone(),
        config.seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_ready_to_upgrade() {
        let s = build_scenario(&ScenarioConfig::default());
        let g = s.cloud.admin_describe_asg(&s.upgrade.asg).unwrap();
        assert_eq!(g.desired_capacity, 4);
        assert_eq!(s.cloud.admin_asg_active_instances(&s.upgrade.asg).len(), 4);
    }

    #[test]
    fn twenty_node_scenario() {
        let config = ScenarioConfig {
            cluster_size: 20,
            batch_size: 4,
            ..ScenarioConfig::default()
        };
        let s = build_scenario(&config);
        assert_eq!(s.cloud.admin_asg_active_instances(&s.upgrade.asg).len(), 20);
        assert_eq!(pod_config(&config).batch_size, 4);
    }

    #[test]
    fn engine_builds() {
        let cfg = ScenarioConfig::default();
        let s = build_scenario(&cfg);
        let mut e = build_engine(&s, &cfg);
        // The engine runs under the scenario's trace id: its conformance
        // log names it on the first line replayed.
        let line = "Started rolling upgrade task t-1 pushing ami-0f into group pm--asg";
        e.ingest(LogEvent::new(SimTime::ZERO, "asgard.log", line));
        let replayed = pod_log::LogQuery::new().with_source("conformance.log");
        assert!(s.storage.query(&replayed)[0].message.contains("[run-1]"));
    }

    #[test]
    fn compiled_pod_is_shared_by_exactly_what_pod_config_reads() {
        // One configuration per key: the default and each keyed field moved.
        let mut configs = [(); 4].map(|()| ScenarioConfig::default());
        configs[1].amended_trees = false;
        configs[2].test_order = TestOrder::ByCost;
        configs[3].batch_size = 2;
        for (i, cfg) in configs.iter().enumerate() {
            let other_tenant = ScenarioConfig {
                seed: cfg.seed + 41,
                cluster_size: 20,
                ..cfg.clone()
            };
            assert!(
                Arc::ptr_eq(&compiled_pod(cfg), &compiled_pod(&other_tenant)),
                "seed and cluster size are per tenant: {cfg:?}"
            );
            for other_key in &configs[..i] {
                assert!(
                    !Arc::ptr_eq(&compiled_pod(cfg), &compiled_pod(other_key)),
                    "{cfg:?} must not run on the artefacts of {other_key:?}"
                );
            }
        }
    }

    /// Ticks `injection` at each of `secs`; returns when the fault landed.
    fn tick_at(injection: &mut Injection, s: &Scenario, secs: &[u64]) -> Option<SimTime> {
        let mut rng = SimRng::seed_from(1);
        for at in secs {
            injection.tick(s, SimTime::from_secs(*at), &mut rng);
        }
        injection.at
    }

    #[test]
    fn resource_fault_lands_at_the_first_tick_at_or_after_due() {
        let s = build_scenario(&ScenarioConfig::default());
        let mut injection = Injection::new(FaultType::ElbUnavailable, SimTime::from_secs(15));
        let landed = tick_at(&mut injection, &s, &[0, 10, 20, 30]);
        assert_eq!(landed, Some(SimTime::from_secs(20)));
    }

    #[test]
    fn configuration_fault_waits_for_the_upgrade_launch_config() {
        let s = build_scenario(&ScenarioConfig::default());
        let due = SimTime::from_secs(10);
        let mut injection = Injection::new(FaultType::AmiChangedDuringUpgrade, due);
        // Due, but the upgrade has not created its launch configuration yet.
        assert_eq!(tick_at(&mut injection, &s, &[10, 20]), None);
        let v1 = pod_cloud::LaunchConfigName::new("lc-v1");
        let v1 = s.cloud.admin_describe_launch_config(&v1).unwrap();
        let (ami, name) = (s.upgrade.new_ami.clone(), &s.upgrade_lc_name);
        s.cloud
            .admin_create_launch_config(name, ami, "m1.small", v1.key_pair, v1.security_group);
        let landed = tick_at(&mut injection, &s, &[30, 40]);
        assert_eq!(landed, Some(SimTime::from_secs(30)));
    }

    #[test]
    fn retry_earlier_halves_due_until_the_fault_lands() {
        let mut tried = Vec::new();
        let landed_at = Injection::retry_earlier(SimTime::from_secs(200), |due| {
            tried.push(due);
            (due, due <= SimTime::from_secs(50))
        });
        assert_eq!(tried, [200, 100, 50].map(SimTime::from_secs));
        assert_eq!(landed_at, SimTime::from_secs(50));
    }
}
