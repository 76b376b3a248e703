//! The world, the POD configuration and the monitored-upgrade loop the
//! engine-level tests share.

use pod_assert::RetryPolicy;
use pod_cloud::{Cloud, CloudConfig};
use pod_core::{PodConfig, PodEngine, RunSummary, SharedEnv};
use pod_faulttree::{rolling_upgrade_repository, steps};
use pod_log::LogStorage;
use pod_orchestrator::{process_def, Advance, RollingUpgrade, UpgradeConfig, UpgradeReport};
use pod_sim::{Clock, SimDuration, SimRng, SimTime};

/// A cluster on AMI 1.0 with the upgrade to 2.0 configured, its expected
/// environment and central storage.
pub struct World {
    pub cloud: Cloud,
    pub config: UpgradeConfig,
    pub env: SharedEnv,
    pub storage: LogStorage,
}

pub fn build_world(seed: u64, n: u32) -> World {
    let cloud = Cloud::new(
        Clock::new(),
        SimRng::seed_from(seed),
        CloudConfig::default(),
    );
    let ami_v1 = cloud.admin_create_ami("app", "1.0");
    let ami_v2 = cloud.admin_create_ami("app", "2.0");
    let cluster = cloud.admin_create_cluster(ami_v1, "prod", "lc-v1", "pm--asg", 30, n);
    let config = UpgradeConfig::new(
        "pm",
        cluster.asg.clone(),
        cluster.elb.clone(),
        ami_v2.clone(),
    );
    let env = SharedEnv::new(pod_assert::ExpectedEnv {
        launch_config: pod_cloud::LaunchConfigName::new(format!(
            "{}-run-1",
            config.new_launch_config
        )),
        expected_ami: ami_v2,
        ..pod_assert::ExpectedEnv::for_cluster(cluster, "2.0", n)
    });
    World {
        cloud,
        config,
        env,
        storage: LogStorage::new(),
    }
}

/// The rolling upgrade's POD configuration.
pub fn pod_config() -> PodConfig {
    let mut config = PodConfig::new(
        process_def::rolling_upgrade_model(),
        process_def::rolling_upgrade_rules(),
        process_def::rolling_upgrade_assertions(),
        rolling_upgrade_repository(true),
    );
    config.relevance_patterns = process_def::relevance_patterns()
        .into_iter()
        .map(str::to_string)
        .collect();
    config.known_error_patterns = process_def::known_error_patterns()
        .into_iter()
        .map(str::to_string)
        .collect();
    config.operation_start_pattern = process_def::operation_start_pattern().to_string();
    config.operation_end_pattern = process_def::operation_end_pattern().to_string();
    config.wait_activity = Some(steps::WAIT_ASG.to_string());
    config.completion_activity = Some(steps::READY.to_string());
    config.in_flight_activities = vec![
        steps::DEREGISTER.to_string(),
        steps::TERMINATE.to_string(),
        steps::WAIT_ASG.to_string(),
    ];
    config.retry_policy = RetryPolicy {
        max_retries: 4,
        timeout: SimDuration::from_secs(20),
        ..RetryPolicy::default()
    };
    config
}

/// An engine on `world` running `config`.
pub fn engine_for(world: &World, config: PodConfig) -> PodEngine {
    let (cloud, storage, env) = (
        world.cloud.clone(),
        world.storage.clone(),
        world.env.clone(),
    );
    PodEngine::new(cloud, storage, env, config, "run-1").expect("patterns compile")
}

/// Runs the world's upgrade to its end under `engine`: every line into the
/// engine as it is written; at each safe point `action`, once, at the first
/// at or after `action_at`, then the engine's timers.
pub fn run_upgrade(
    world: &World,
    mut engine: PodEngine,
    mut action_at: Option<SimTime>,
    mut action: impl FnMut(&World),
) -> (RunSummary, UpgradeReport) {
    let mut upgrade = RollingUpgrade::new(world.cloud.clone(), world.config.clone(), "run-1");
    loop {
        match upgrade.advance(&mut |event| engine.ingest(event)) {
            Advance::SafePoint(now) => {
                if action_at.take_if(|at| now >= *at).is_some() {
                    action(world);
                }
                engine.poll();
            }
            Advance::Done(report) => return (engine.finish(), report),
        }
    }
}
