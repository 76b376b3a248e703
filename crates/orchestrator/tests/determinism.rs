//! Determinism and behavioural tests of the orchestrator.

use pod_cloud::{Cloud, CloudConfig};
use pod_orchestrator::{
    Advance, FaultInjector, FaultType, NoiseGenerator, RollingUpgrade, UpgradeConfig, UpgradeReport,
};
use pod_sim::{Clock, SimRng, SimTime};

fn build(seed: u64, n: u32) -> (Cloud, UpgradeConfig) {
    let cloud = Cloud::new(
        Clock::new(),
        SimRng::seed_from(seed),
        CloudConfig::default(),
    );
    let ami_v1 = cloud.admin_create_ami("app", "1.0");
    let ami_v2 = cloud.admin_create_ami("app", "2.0");
    let cluster = cloud.admin_create_cluster(ami_v1, "prod", "lc-v1", "pm--asg", 40, n);
    let config = UpgradeConfig::new("pm", cluster.asg, cluster.elb, ami_v2);
    (cloud, config)
}

/// Drives `upgrade` to its end, handing each line to `on_log` and each
/// safe point's time to `at_safe_point`.
fn drive(
    mut upgrade: RollingUpgrade,
    on_log: &mut dyn FnMut(pod_log::LogEvent),
    mut at_safe_point: impl FnMut(SimTime),
) -> UpgradeReport {
    loop {
        match upgrade.advance(on_log) {
            Advance::SafePoint(now) => at_safe_point(now),
            Advance::Done(report) => return report,
        }
    }
}

fn run_log(seed: u64, n: u32) -> Vec<String> {
    let (cloud, config) = build(seed, n);
    let mut log = Vec::new();
    let upgrade = RollingUpgrade::new(cloud, config, "run-1");
    drive(
        upgrade,
        &mut |e| log.push(format!("{} {}", e.timestamp, e.message)),
        |_| {},
    );
    log
}

#[test]
fn identical_seeds_produce_identical_logs() {
    assert_eq!(run_log(7, 4), run_log(7, 4));
}

#[test]
fn different_seeds_produce_different_instance_ids() {
    assert_ne!(run_log(7, 4), run_log(8, 4));
}

#[test]
fn log_volume_scales_with_cluster_size() {
    let small = run_log(3, 2).len();
    let large = run_log(3, 8).len();
    assert!(large > small * 2, "small={small} large={large}");
}

#[test]
fn an_eight_instance_upgrade_under_stale_reads_replaces_everything() {
    let (cloud, config) = build(11, 8);
    let asg = config.asg.clone();
    let upgrade = RollingUpgrade::new(cloud.clone(), config, "run-1");
    let report = drive(upgrade, &mut |_| {}, |_| {});
    assert!(report.outcome.is_success(), "{:?}", report.outcome);
    let active = cloud.admin_asg_active_instances(&asg);
    assert_eq!(active.len(), 8);
    assert!(active.iter().all(|i| &*i.version == "2.0"));
}

#[test]
fn injection_mid_run_changes_later_instances_only() {
    let (cloud, config) = build(13, 4);
    let asg = config.asg.clone();
    let expected_ami = config.new_ami.clone();
    let mut injector = Some(FaultInjector::new(FaultType::AmiChangedDuringUpgrade));
    let mut rng = SimRng::seed_from(1);
    let lc = format!("{}-run-1", config.new_launch_config);
    let upgrade = RollingUpgrade::new(cloud.clone(), config.clone(), "run-1");
    let report = drive(upgrade, &mut |_| {}, |now| {
        if now >= SimTime::from_secs(150) {
            if let Some(mut injector) = injector.take() {
                injector.inject(&cloud, &config, &lc, &mut rng);
            }
        }
    });
    assert!(report.outcome.is_success());
    let active = cloud.admin_asg_active_instances(&asg);
    let wrong = active.iter().filter(|i| i.ami != expected_ami).count();
    // At least one instance was replaced before the injection (correct AMI)
    // and at least one after (rogue AMI).
    assert!(wrong >= 1, "some instance must carry the rogue AMI");
    assert!(
        wrong < 4,
        "the pre-injection replacements keep the right AMI"
    );
}

#[test]
fn noise_generator_is_deterministic_and_rate_bounded() {
    let sample = |seed| -> Vec<String> {
        let mut g = NoiseGenerator::new(SimRng::seed_from(seed), 0.5);
        (0..100)
            .filter_map(|i| g.maybe_emit(SimTime::from_secs(i)))
            .map(|e| e.message)
            .collect()
    };
    assert_eq!(sample(9), sample(9));
    let lines = sample(9);
    assert!(!lines.is_empty() && lines.len() < 100);
}
