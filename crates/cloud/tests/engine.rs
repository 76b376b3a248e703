//! Behavioural tests of the cloud engine: reconciliation, fault injection,
//! eventual consistency and limits.

use pod_cloud::{ApiError, AsgUpdate, Cloud, CloudConfig, InstanceState, LaunchConfigUpdate};
use pod_sim::{Clock, LatencyModel, SimDuration, SimRng};

struct Env {
    cloud: Cloud,
    asg: pod_cloud::AsgName,
    lc: pod_cloud::LaunchConfigName,
    elb: pod_cloud::ElbName,
    ami_v1: pod_cloud::AmiId,
    kp: pod_cloud::KeyPairName,
    sg: pod_cloud::SecurityGroupId,
}

fn env_with(config: CloudConfig, desired: u32) -> Env {
    let cloud = Cloud::new(Clock::new(), SimRng::seed_from(7), config);
    let ami_v1 = cloud.admin_create_ami("app", "1.0.0");
    let cluster = cloud.admin_create_cluster(ami_v1, "prod-key", "lc-v1", "app-asg", 30, desired);
    Env {
        cloud,
        asg: cluster.asg,
        lc: cluster.launch_config,
        elb: cluster.elb,
        ami_v1: cluster.ami,
        kp: cluster.key_pair,
        sg: cluster.security_group,
    }
}

fn env() -> Env {
    env_with(
        CloudConfig {
            stale_read_prob: 0.0,
            ..CloudConfig::default()
        },
        4,
    )
}

#[test]
fn asg_starts_at_desired_capacity_and_registered() {
    let e = env();
    let g = e.cloud.admin_describe_asg(&e.asg).unwrap();
    assert_eq!(g.instances.len(), 4);
    for i in e.cloud.admin_asg_active_instances(&e.asg) {
        assert_eq!(i.state, InstanceState::InService);
        assert!(i.registered_with_elb);
        assert_eq!(i.version, "1.0.0");
    }
}

#[test]
fn terminated_instance_is_replaced_by_reconciler() {
    let e = env();
    let victim = e.cloud.admin_describe_asg(&e.asg).unwrap().instances[0].clone();
    e.cloud.terminate_instance(&victim, false).unwrap();
    // Wait long enough for terminate + reconcile + boot.
    e.cloud.sleep(SimDuration::from_secs(180));
    let active = e.cloud.admin_asg_active_instances(&e.asg);
    assert_eq!(
        active.len(),
        4,
        "ASG should replace the terminated instance"
    );
    assert!(active.iter().all(|i| i.id != victim));
    let replacement = active
        .iter()
        .find(|i| i.state == InstanceState::InService && i.launched_at > pod_sim::SimTime::ZERO);
    assert!(replacement.is_some());
}

#[test]
fn terminate_with_decrement_shrinks_group() {
    let e = env();
    let victim = e.cloud.admin_describe_asg(&e.asg).unwrap().instances[0].clone();
    e.cloud.terminate_instance(&victim, true).unwrap();
    e.cloud.sleep(SimDuration::from_secs(180));
    assert_eq!(e.cloud.admin_asg_active_instances(&e.asg).len(), 3);
    assert_eq!(
        e.cloud.admin_describe_asg(&e.asg).unwrap().desired_capacity,
        3
    );
}

#[test]
fn scale_out_launches_new_instances() {
    let e = env();
    e.cloud
        .update_asg(
            &e.asg,
            AsgUpdate {
                desired_capacity: Some(6),
                ..AsgUpdate::default()
            },
        )
        .unwrap();
    e.cloud.sleep(SimDuration::from_secs(180));
    assert_eq!(e.cloud.admin_asg_active_instances(&e.asg).len(), 6);
}

#[test]
fn scale_in_terminates_excess() {
    let e = env();
    e.cloud
        .update_asg(
            &e.asg,
            AsgUpdate {
                desired_capacity: Some(2),
                ..AsgUpdate::default()
            },
        )
        .unwrap();
    e.cloud.sleep(SimDuration::from_secs(180));
    assert_eq!(e.cloud.admin_asg_active_instances(&e.asg).len(), 2);
}

#[test]
fn desired_outside_bounds_is_rejected() {
    let e = env();
    let err = e
        .cloud
        .update_asg(
            &e.asg,
            AsgUpdate {
                desired_capacity: Some(99),
                ..AsgUpdate::default()
            },
        )
        .unwrap_err();
    assert!(matches!(err, ApiError::Validation(_)));
}

#[test]
fn unavailable_ami_blocks_replacement_with_failed_activity() {
    let e = env();
    e.cloud.admin_set_ami_available(&e.ami_v1, false);
    let victim = e.cloud.admin_describe_asg(&e.asg).unwrap().instances[0].clone();
    let start = e.cloud.clock().now();
    e.cloud.terminate_instance(&victim, false).unwrap();
    e.cloud.sleep(SimDuration::from_secs(120));
    assert_eq!(e.cloud.admin_asg_active_instances(&e.asg).len(), 3);
    let acts = e.cloud.describe_scaling_activities(&e.asg, start).unwrap();
    assert!(acts
        .iter()
        .any(|a| matches!(&a.status, pod_cloud::ActivityStatus::Failed(m) if m.contains("AMI"))));
}

#[test]
fn deleted_key_pair_blocks_launches() {
    let e = env();
    e.cloud.admin_set_key_pair_available(&e.kp, false);
    let start = e.cloud.clock().now();
    e.cloud
        .update_asg(
            &e.asg,
            AsgUpdate {
                desired_capacity: Some(5),
                ..AsgUpdate::default()
            },
        )
        .unwrap();
    e.cloud.sleep(SimDuration::from_secs(60));
    let acts = e.cloud.describe_scaling_activities(&e.asg, start).unwrap();
    assert!(acts.iter().any(
        |a| matches!(&a.status, pod_cloud::ActivityStatus::Failed(m) if m.contains("key pair"))
    ));
}

#[test]
fn unavailable_sg_blocks_launches() {
    let e = env();
    e.cloud.admin_set_security_group_available(&e.sg, false);
    let start = e.cloud.clock().now();
    e.cloud
        .update_asg(
            &e.asg,
            AsgUpdate {
                desired_capacity: Some(5),
                ..AsgUpdate::default()
            },
        )
        .unwrap();
    e.cloud.sleep(SimDuration::from_secs(60));
    let acts = e.cloud.describe_scaling_activities(&e.asg, start).unwrap();
    assert!(acts.iter().any(
        |a| matches!(&a.status, pod_cloud::ActivityStatus::Failed(m) if m.contains("security group"))
    ));
}

#[test]
fn unavailable_elb_blocks_registration() {
    let e = env();
    e.cloud.admin_set_elb_available(&e.elb, false);
    let victim = e.cloud.admin_describe_asg(&e.asg).unwrap().instances[0].clone();
    let start = e.cloud.clock().now();
    e.cloud.terminate_instance(&victim, false).unwrap();
    e.cloud.sleep(SimDuration::from_secs(240));
    // Replacement boots but cannot register.
    let active = e.cloud.admin_asg_active_instances(&e.asg);
    assert_eq!(active.len(), 4);
    let unregistered: Vec<_> = active.iter().filter(|i| !i.registered_with_elb).collect();
    assert_eq!(unregistered.len(), 1);
    let acts = e.cloud.describe_scaling_activities(&e.asg, start).unwrap();
    assert!(acts
        .iter()
        .any(|a| a.description.contains("Failed to register")));
    assert!(matches!(
        e.cloud.describe_elb(&e.elb).unwrap_err(),
        ApiError::ServiceUnavailable { .. }
    ));
}

#[test]
fn changed_launch_config_produces_wrong_version_instances() {
    let e = env();
    // Simulate a concurrent team pushing a different AMI (fault type 1).
    let ami_v2 = e.cloud.admin_create_ami("app", "2.0.0-other");
    e.cloud.admin_update_launch_config(
        &e.lc,
        LaunchConfigUpdate {
            ami: Some(ami_v2.clone()),
            ..LaunchConfigUpdate::default()
        },
    );
    let victim = e.cloud.admin_describe_asg(&e.asg).unwrap().instances[0].clone();
    e.cloud.terminate_instance(&victim, false).unwrap();
    e.cloud.sleep(SimDuration::from_secs(180));
    let active = e.cloud.admin_asg_active_instances(&e.asg);
    assert_eq!(active.len(), 4);
    let wrong: Vec<_> = active.iter().filter(|i| i.ami == ami_v2).collect();
    assert_eq!(wrong.len(), 1, "the replacement uses the wrong AMI");
    assert_eq!(wrong[0].version, "2.0.0-other");
}

#[test]
fn instance_limit_blocks_launches_and_is_reported() {
    let e = env();
    e.cloud.admin_set_instance_limit(4); // exactly current usage
    let start = e.cloud.clock().now();
    e.cloud
        .update_asg(
            &e.asg,
            AsgUpdate {
                desired_capacity: Some(5),
                ..AsgUpdate::default()
            },
        )
        .unwrap();
    e.cloud.sleep(SimDuration::from_secs(60));
    assert_eq!(e.cloud.admin_asg_active_instances(&e.asg).len(), 4);
    let acts = e.cloud.describe_scaling_activities(&e.asg, start).unwrap();
    assert!(acts
        .iter()
        .any(|a| a.description.contains("InstanceLimitExceeded")));
}

#[test]
fn standalone_instances_consume_limit() {
    let e = env();
    let other_ami = e.cloud.admin_create_ami("other-app", "0.9");
    let ids = e.cloud.admin_launch_standalone(10, &other_ami);
    assert_eq!(e.cloud.admin_active_instance_count(), 14);
    e.cloud.admin_release_standalone(&ids);
    assert_eq!(e.cloud.admin_active_instance_count(), 4);
}

#[test]
fn api_calls_consume_virtual_time() {
    let e = env();
    let t0 = e.cloud.clock().now();
    e.cloud.describe_asg(&e.asg).unwrap();
    let dt = e.cloud.clock().now() - t0;
    assert!(dt >= SimDuration::from_millis(70) && dt < SimDuration::from_millis(90));
}

#[test]
fn stale_reads_can_observe_old_state() {
    let config = CloudConfig {
        stale_read_prob: 1.0,
        consistency_lag: LatencyModel::Fixed(SimDuration::from_secs(3600)),
    };
    let e = env_with(config, 2);
    // Write a new desired capacity; a guaranteed-stale read still sees 2.
    e.cloud
        .update_asg(
            &e.asg,
            AsgUpdate {
                desired_capacity: Some(3),
                ..AsgUpdate::default()
            },
        )
        .unwrap();
    let seen = e.cloud.describe_asg(&e.asg).unwrap().desired_capacity;
    assert_eq!(seen, 2, "stale read must observe the pre-write value");
    // Authoritative state has the write.
    assert_eq!(
        e.cloud.admin_describe_asg(&e.asg).unwrap().desired_capacity,
        3
    );
}

#[test]
fn describe_missing_resources_errors() {
    let e = env();
    assert!(matches!(
        e.cloud
            .describe_instance(&pod_cloud::InstanceId::new("i-nope")),
        Err(ApiError::NotFound {
            kind: "instance",
            ..
        })
    ));
    assert!(matches!(
        e.cloud.describe_ami(&pod_cloud::AmiId::new("ami-nope")),
        Err(ApiError::NotFound { .. })
    ));
}

#[test]
fn deregister_and_register_elb_round_trip() {
    let e = env();
    let id = e.cloud.admin_describe_asg(&e.asg).unwrap().instances[0].clone();
    e.cloud.deregister_from_elb(&e.elb, &id).unwrap();
    assert!(
        !e.cloud
            .admin_describe_instance(&id)
            .unwrap()
            .registered_with_elb
    );
    e.cloud.register_with_elb(&e.elb, &id).unwrap();
    assert!(
        e.cloud
            .admin_describe_instance(&id)
            .unwrap()
            .registered_with_elb
    );
}

#[test]
fn create_launch_config_validates_ami() {
    let e = env();
    let err = e
        .cloud
        .create_launch_config(
            "lc-bad",
            pod_cloud::AmiId::new("ami-missing"),
            "m1.small",
            e.kp.clone(),
            e.sg.clone(),
        )
        .unwrap_err();
    assert!(matches!(err, ApiError::NotFound { kind: "ami", .. }));
    // And duplicate names are rejected.
    let err = e
        .cloud
        .create_launch_config(
            "lc-v1",
            e.ami_v1.clone(),
            "m1.small",
            e.kp.clone(),
            e.sg.clone(),
        )
        .unwrap_err();
    assert!(matches!(err, ApiError::Validation(_)));
}

#[test]
fn runs_are_deterministic_under_a_seed() {
    let run = || {
        let e = env();
        let victim = e.cloud.admin_describe_asg(&e.asg).unwrap().instances[0].clone();
        e.cloud.terminate_instance(&victim, false).unwrap();
        e.cloud.sleep(SimDuration::from_secs(200));
        let mut ids: Vec<String> = e
            .cloud
            .admin_asg_active_instances(&e.asg)
            .iter()
            .map(|i| i.id.to_string())
            .collect();
        ids.sort();
        (ids, e.cloud.clock().now())
    };
    assert_eq!(run(), run());
}
