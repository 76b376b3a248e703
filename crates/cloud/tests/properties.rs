//! Property-based invariants of the cloud simulator.

use pod_cloud::{AsgUpdate, Cloud, CloudConfig, InstanceState};
use pod_sim::{Clock, SimDuration, SimRng};
use proptest::prelude::*;

fn cluster(seed: u64, desired: u32, limit: usize) -> (Cloud, pod_cloud::AsgName) {
    let cloud = Cloud::new(
        Clock::new(),
        SimRng::seed_from(seed),
        CloudConfig {
            stale_read_prob: 0.0,
            ..CloudConfig::default()
        },
    );
    cloud.admin_set_instance_limit(limit);
    let ami = cloud.admin_create_ami("app", "1.0");
    let cluster = cloud.admin_create_cluster(ami, "kp", "lc", "g", 25, desired);
    (cloud, cluster.asg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reconciler always converges to the desired capacity (within the
    /// account limit), from any sequence of desired-capacity changes.
    #[test]
    fn asg_converges_to_desired(
        seed in 1u64..1000,
        changes in prop::collection::vec(1u32..10, 1..5),
    ) {
        let (cloud, asg) = cluster(seed, 4, 40);
        let mut last = 4;
        for desired in changes {
            let _ = cloud.update_asg(&asg, AsgUpdate {
                desired_capacity: Some(desired),
                ..AsgUpdate::default()
            });
            if cloud.admin_describe_asg(&asg).unwrap().desired_capacity == desired {
                last = desired;
            }
            cloud.sleep(SimDuration::from_secs(30));
        }
        // Give the engine time to settle fully.
        cloud.sleep(SimDuration::from_secs(300));
        let active = cloud.admin_asg_active_instances(&asg).len();
        prop_assert_eq!(active as u32, last);
        // Everything active is InService by now.
        for i in cloud.admin_asg_active_instances(&asg) {
            prop_assert_eq!(i.state, InstanceState::InService);
        }
    }

    /// The account instance limit is never exceeded, no matter how high
    /// desired capacity is pushed.
    #[test]
    fn instance_limit_is_never_exceeded(seed in 1u64..500, desired in 5u32..25) {
        let (cloud, asg) = cluster(seed, 4, 8);
        let _ = cloud.update_asg(&asg, AsgUpdate {
            desired_capacity: Some(desired),
            ..AsgUpdate::default()
        });
        for _ in 0..20 {
            cloud.sleep(SimDuration::from_secs(20));
            prop_assert!(cloud.admin_active_instance_count() <= 8);
        }
    }

    /// Terminated instances never come back, and membership shrinks
    /// accordingly when desired is decremented.
    #[test]
    fn terminated_instances_stay_terminated(seed in 1u64..500) {
        let (cloud, asg) = cluster(seed, 4, 40);
        let victim = cloud.admin_describe_asg(&asg).unwrap().instances[0].clone();
        cloud.terminate_instance(&victim, true).unwrap();
        for _ in 0..10 {
            cloud.sleep(SimDuration::from_secs(30));
            let state = cloud.admin_describe_instance(&victim).unwrap().state;
            prop_assert!(
                matches!(state, InstanceState::Terminating | InstanceState::Terminated)
            );
        }
        prop_assert!(!cloud
            .admin_describe_asg(&asg)
            .unwrap()
            .instances
            .contains(&victim));
    }

    /// ELB registration is consistent with membership: every in-service,
    /// registered member of a healthy ELB shows up in its registered set.
    #[test]
    fn elb_registration_is_consistent(seed in 1u64..500) {
        let (cloud, asg) = cluster(seed, 4, 40);
        let victim = cloud.admin_describe_asg(&asg).unwrap().instances[0].clone();
        cloud.terminate_instance(&victim, false).unwrap();
        cloud.sleep(SimDuration::from_secs(300));
        let elb = cloud.describe_elb(&pod_cloud::ElbName::new("front")).unwrap();
        for i in cloud.admin_asg_active_instances(&asg) {
            if i.state == InstanceState::InService && i.registered_with_elb {
                prop_assert!(elb.registered.contains(&i.id), "{} missing from ELB", i.id);
            }
        }
        prop_assert!(!elb.registered.contains(&victim));
    }

    /// Stale reads only ever return *past* states: a guaranteed-stale read
    /// of a monotonically increasing value never exceeds the true value.
    #[test]
    fn stale_reads_are_from_the_past(seed in 1u64..500, steps in 1usize..6) {
        let cloud = Cloud::new(
            Clock::new(),
            SimRng::seed_from(seed),
            CloudConfig {
                stale_read_prob: 0.5,
                ..CloudConfig::default()
            },
        );
        let ami = cloud.admin_create_ami("app", "1.0");
        let sg = cloud.admin_create_security_group("web", &[80]);
        let kp = cloud.admin_create_key_pair("kp");
        let lc = cloud.admin_create_launch_config("lc", ami, "m1.small", kp, sg);
        let asg = cloud.admin_create_asg("g", lc, 1, 30, 2, None);
        // Desired capacity only ever increases in this scenario.
        for step in 0..steps {
            let desired = 3 + step as u32;
            cloud.update_asg(&asg, AsgUpdate {
                desired_capacity: Some(desired),
                ..AsgUpdate::default()
            }).unwrap();
            let seen = cloud.describe_asg(&asg).unwrap().desired_capacity;
            prop_assert!(seen <= desired, "read {seen} > true {desired}");
            prop_assert!(seen >= 2, "read {seen} below any historical value");
            cloud.sleep(SimDuration::from_secs(5));
        }
    }
}
