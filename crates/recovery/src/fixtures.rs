//! What this crate's unit tests start from.

use pod_assert::ExpectedEnv;
use pod_cloud::{Cloud, CloudConfig, InstanceId, LaunchConfigUpdate};
use pod_core::{Detection, DetectionSource};
use pod_faulttree::{DiagnosedCause, DiagnosisReport};
use pod_sim::{Clock, SimDuration, SimRng, SimTime};

use crate::RecoveryRequest;

/// A two-instance group behind a load balancer on a cloud without
/// stale reads, matching the fault-tree test environment, and the
/// expectation that it stays that way.
pub(crate) fn cluster(seed: u64) -> (Cloud, ExpectedEnv) {
    let cloud = Cloud::new(
        Clock::new(),
        SimRng::seed_from(seed),
        CloudConfig {
            stale_read_prob: 0.0,
            ..CloudConfig::default()
        },
    );
    let ami = cloud.admin_create_ami("app", "2.0");
    let cluster = cloud.admin_create_cluster(ami, "prod", "lc", "g", 10, 2);
    let env = ExpectedEnv::for_cluster(cluster, "2.0", 2);
    (cloud, env)
}

/// The [`cluster`] with its launch configuration pointing at a stale AMI:
/// the repairable `lc-wrong-ami` fault.
pub(crate) fn wrong_ami(seed: u64) -> (Cloud, ExpectedEnv) {
    let (cloud, env) = cluster(seed);
    let update = LaunchConfigUpdate {
        ami: Some(cloud.admin_create_ami("app-old", "1.0")),
        ..LaunchConfigUpdate::default()
    };
    cloud.admin_update_launch_config(&env.launch_config, update);
    (cloud, env)
}

/// Task `run-1-r0`, detected at time zero, asked to repair `cause`.
pub(crate) fn request(
    env: &ExpectedEnv,
    cause: &str,
    instance: Option<InstanceId>,
) -> RecoveryRequest {
    RecoveryRequest {
        task_id: "run-1-r0".to_string(),
        root_cause: cause.to_string(),
        description: format!("diagnosed {cause}"),
        detected_at: SimTime::ZERO,
        instance,
        env: env.clone(),
        parent_event: None,
    }
}

/// A failed `key` assertion at `update-launch-config`, diagnosed to
/// `cause` (or to nothing).
pub(crate) fn diagnosed(cloud: &Cloud, key: &'static str, cause: Option<&str>) -> Detection {
    let at = cloud.clock().now();
    Detection {
        at,
        source: DetectionSource::AssertionLog,
        description: format!("assertion {key} failed").into(),
        step: Some("update-launch-config".into()),
        key,
        instance: None,
        diagnosis: Some(DiagnosisReport {
            root_causes: cause
                .map(|c| {
                    vec![DiagnosedCause {
                        node_id: c.to_string(),
                        description: format!("confirmed {c}"),
                    }]
                })
                .unwrap_or_default(),
            stopped_at: Vec::new(),
            potential_faults: 4,
            excluded: 3,
            tests_run: 4,
            first_cause_after: Some(SimDuration::from_secs(2)),
            started_at: at + SimDuration::from_secs(5),
            duration: SimDuration::from_secs(3),
        }),
        event: None,
    }
}
