//! The rolling-upgrade fault-tree knowledge base.
//!
//! These trees encode Figure 5 of the paper (the tree under "assert the
//! system has N instances with the new version") plus the smaller trees for
//! the step-level assertions. They cover the eight injected fault types of
//! the evaluation, the scale-in interference, and — in the *amended*
//! version — the shared-account instance-limit root cause the paper added
//! after its fourth wrong-diagnosis class.

use pod_assert::{CloudAssertion, InstanceAssertionKind};

use crate::test::DiagnosticTest;
use crate::tree::{FaultNode, FaultTree, FaultTreeRepository};

/// Activity names of the rolling-upgrade process (Figure 2), shared between
/// the orchestrator, the assertion bindings and the fault trees.
pub mod steps {
    /// Start of the upgrade task.
    pub const START: &str = "start-rolling-upgrade-task";
    /// Update launch configuration.
    pub const UPDATE_LC: &str = "update-launch-configuration";
    /// Sort instances.
    pub const SORT: &str = "sort-instances";
    /// Remove and deregister old instance from ELB.
    pub const DEREGISTER: &str = "remove-and-deregister-old-instance-from-elb";
    /// Terminate old instance.
    pub const TERMINATE: &str = "terminate-old-instance";
    /// Wait for ASG to start a new instance.
    pub const WAIT_ASG: &str = "wait-for-asg-to-start-new-instance";
    /// New instance ready and registered with ELB.
    pub const READY: &str = "new-instance-ready-and-registered-with-elb";
    /// Upgrade task completed.
    pub const COMPLETED: &str = "rolling-upgrade-task-completed";
}

/// Builds the full repository for the rolling-upgrade operation.
///
/// With `amended == false`, the account instance-limit root cause is
/// missing, reproducing the paper's fourth wrong-diagnosis class (diagnosis
/// then stops at "launch failing, cause unknown" when the shared account
/// runs out of capacity).
pub fn rolling_upgrade_repository(amended: bool) -> FaultTreeRepository {
    let mut repo = FaultTreeRepository::new();
    repo.add(version_count_tree(amended));
    repo.add(lc_tree());
    repo.add(deregister_tree());
    repo.add(terminate_tree());
    repo.add(elb_registration_tree());
    repo.add(capacity_tree("asg-instance-count", amended));
    repo.add(capacity_tree("asg-desired-capacity", amended));
    repo.add(capacity_tree("asg-active-count-at-least", amended));
    repo.add(single_cause_tree(
        "launch-config-uses-ami",
        wrong_ami_cause(0.8),
    ));
    repo.add(single_cause_tree(
        "launch-config-uses-key-pair",
        wrong_key_pair_cause(0.8),
    ));
    repo.add(single_cause_tree(
        "launch-config-uses-security-group",
        wrong_sg_cause(0.8),
    ));
    repo.add(single_cause_tree(
        "launch-config-uses-instance-type",
        wrong_instance_type_cause(0.8),
    ));
    repo.add(single_cause_tree("instance-uses-ami", wrong_ami_cause(0.8)));
    repo.add(single_cause_tree(
        "ami-available",
        FaultNode::root_cause(
            "ami-unavailable",
            "the AMI {AMI} is unavailable",
            DiagnosticTest::AssertionFails(CloudAssertion::AmiAvailable),
            0.8,
        ),
    ));
    repo.add(single_cause_tree(
        "key-pair-available",
        FaultNode::root_cause(
            "key-pair-unavailable",
            "the key pair {KEYPAIR} does not exist",
            DiagnosticTest::AssertionFails(CloudAssertion::KeyPairAvailable),
            0.8,
        ),
    ));
    repo.add(single_cause_tree(
        "security-group-available",
        FaultNode::root_cause(
            "sg-unavailable",
            "the security group {SG} does not exist",
            DiagnosticTest::AssertionFails(CloudAssertion::SecurityGroupAvailable),
            0.8,
        ),
    ));
    repo.add(single_cause_tree(
        "elb-available",
        FaultNode::root_cause(
            "elb-unavailable",
            "the ELB {ELB} is unavailable",
            DiagnosticTest::AssertionFails(CloudAssertion::ElbAvailable),
            0.8,
        ),
    ));
    repo.add(FaultTree::new(
        "instance-configuration-correct",
        FaultNode::branch(
            "instance-misconfigured",
            "a new instance of {ASG} does not match the expected configuration",
        )
        .child(wrong_ami_cause(0.5))
        .child(wrong_key_pair_cause(0.3))
        .child(wrong_sg_cause(0.3))
        .child(wrong_instance_type_cause(0.2)),
    ));
    repo
}

/// A tree whose top event has exactly one candidate root cause.
fn single_cause_tree(key: &str, cause: FaultNode) -> FaultTree {
    FaultTree::new(
        key,
        FaultNode::branch(
            format!("{key}-failed"),
            "the step post-condition does not hold",
        )
        .child(cause),
    )
}

/// The `instance-launch-failing` branch: confirmed by failed launch
/// activities in the feed, explained by a missing AMI, key pair or security
/// group — and, when `amended`, by the shared account's instance limit.
fn launch_failing_branch(probability: f64, amended: bool) -> FaultNode {
    let mut launch_failing = FaultNode::branch(
        "instance-launch-failing",
        "the ASG {ASG} cannot launch replacement instances",
    )
    .with_test(DiagnosticTest::failed_activity_matching(
        "Failed to launch instance",
    ))
    .with_probability(probability)
    .child(FaultNode::root_cause(
        "ami-unavailable",
        "the AMI {AMI} is unavailable",
        DiagnosticTest::AssertionFails(CloudAssertion::AmiAvailable),
        0.4,
    ))
    .child(FaultNode::root_cause(
        "key-pair-unavailable",
        "the key pair {KEYPAIR} does not exist",
        DiagnosticTest::AssertionFails(CloudAssertion::KeyPairAvailable),
        0.3,
    ))
    .child(FaultNode::root_cause(
        "sg-unavailable",
        "the security group {SG} does not exist",
        DiagnosticTest::AssertionFails(CloudAssertion::SecurityGroupAvailable),
        0.3,
    ));
    if amended {
        launch_failing = launch_failing.child(FaultNode::root_cause(
            "instance-limit-reached",
            "the shared account reached its instance limit",
            DiagnosticTest::failed_activity_matching("InstanceLimitExceeded"),
            0.1,
        ));
    }
    launch_failing
}

/// The tree for capacity-family assertion failures: a concurrent scale-in,
/// an unexpected termination, or launches failing.
fn capacity_tree(key: &str, amended: bool) -> FaultTree {
    let root = FaultNode::branch(
        format!("{key}-violated"),
        "the ASG {ASG} capacity deviates from the expectation",
    )
    .child(FaultNode::root_cause(
        "concurrent-capacity-change",
        "a concurrent operation changed the desired capacity of {ASG}",
        DiagnosticTest::DesiredCapacityDiffersFromExpected,
        0.55,
    ))
    .child(FaultNode::root_cause(
        "concurrent-scale-in",
        "a concurrent scale-in changed the capacity of {ASG}",
        DiagnosticTest::activity_matching("scale in"),
        0.5,
    ))
    .child(
        FaultNode::branch(
            "instance-terminated-unexpectedly",
            "an instance of {ASG} was terminated outside the upgrade",
        )
        .with_test(DiagnosticTest::UnexpectedTermination)
        .with_probability(0.3),
    )
    .child(launch_failing_branch(0.3, amended));
    FaultTree::new(key, root)
}

/// The Figure-5 tree: failure of "assert the system has N instances with
/// the new version".
pub fn version_count_tree(amended: bool) -> FaultTree {
    let lc_misconfigured = FaultNode::branch(
        "lc-misconfigured",
        "the launch configuration {LC} is incorrect",
    )
    .in_step(steps::UPDATE_LC)
    .with_probability(0.5)
    .child(wrong_ami_cause(0.5))
    .child(wrong_key_pair_cause(0.3))
    .child(wrong_sg_cause(0.3))
    .child(wrong_instance_type_cause(0.2));

    let asg_wrong_version = FaultNode::branch(
        "asg-wrong-version",
        "the ASG {ASG} is not using a correct version",
    )
    .with_probability(0.6)
    .child(wrong_ami_cause(0.5))
    .child(wrong_key_pair_cause(0.3))
    .child(wrong_sg_cause(0.3))
    .child(wrong_instance_type_cause(0.2));

    let elb_problems = FaultNode::branch("elb-problems", "ELB {ELB} problems")
        .with_probability(0.3)
        .child(FaultNode::root_cause(
            "elb-unavailable",
            "the ELB {ELB} is unavailable",
            DiagnosticTest::AssertionFails(CloudAssertion::ElbAvailable),
            0.4,
        ))
        .child(
            FaultNode::root_cause(
                "instance-not-registered",
                "the new instance is not registered with ELB {ELB}",
                DiagnosticTest::InstanceAssertionFails(InstanceAssertionKind::RegisteredWithElb),
                0.3,
            )
            .in_step(steps::READY),
        );

    let capacity_changed = FaultNode::branch(
        "capacity-changed",
        "the ASG {ASG} capacity was changed by a concurrent operation",
    )
    .with_probability(0.35)
    .child(FaultNode::root_cause(
        "concurrent-capacity-change",
        "a concurrent operation changed the desired capacity of {ASG}",
        DiagnosticTest::DesiredCapacityDiffersFromExpected,
        0.55,
    ))
    .child(FaultNode::root_cause(
        "concurrent-scale-in",
        "a concurrent scale-in reduced the capacity of {ASG}",
        DiagnosticTest::activity_matching("scale in"),
        0.5,
    ))
    .child(
        FaultNode::branch(
            "instance-terminated-unexpectedly",
            "an instance of {ASG} was terminated outside the upgrade",
        )
        .with_test(DiagnosticTest::UnexpectedTermination)
        .with_probability(0.3),
        // No children: random external terminations leave no API-call log
        // (the paper could not diagnose these without CloudTrail), so a
        // confirmed test here stops with "cause unknown".
    );

    let root = FaultNode::branch(
        "no-n-instances-with-version",
        "the system does not have {N} instances with version {VERSION}",
    )
    .child(asg_wrong_version)
    .child(lc_misconfigured)
    .child(launch_failing_branch(0.4, amended))
    .child(elb_problems)
    .child(capacity_changed);

    FaultTree::new("asg-has-n-instances-with-version", root)
}

/// Tree for a failed "launch configuration correct" step assertion.
fn lc_tree() -> FaultTree {
    let root = FaultNode::branch("lc-incorrect", "the launch configuration {LC} is incorrect")
        .child(wrong_ami_cause(0.5))
        .child(wrong_key_pair_cause(0.3))
        .child(wrong_sg_cause(0.3))
        .child(wrong_instance_type_cause(0.2));
    FaultTree::new("asg-launch-config-correct", root)
}

/// Tree for a failed deregistration assertion.
fn deregister_tree() -> FaultTree {
    let root = FaultNode::branch(
        "deregister-failed",
        "the old instance was not deregistered from ELB {ELB}",
    )
    .child(FaultNode::root_cause(
        "elb-unavailable",
        "the ELB {ELB} is unavailable",
        DiagnosticTest::AssertionFails(CloudAssertion::ElbAvailable),
        0.6,
    ));
    FaultTree::new("instance-deregistered-from-elb", root)
}

/// Tree for a failed termination assertion.
fn terminate_tree() -> FaultTree {
    let root = FaultNode::branch("terminate-failed", "the old instance did not terminate").child(
        FaultNode::root_cause(
            "instance-still-running",
            "the instance is still in service (terminate call lost or throttled)",
            DiagnosticTest::InstanceAssertionFails(InstanceAssertionKind::InService),
            0.5,
        ),
    );
    FaultTree::new("instance-terminated", root)
}

/// Tree for a failed "instance registered with ELB" assertion.
fn elb_registration_tree() -> FaultTree {
    let root = FaultNode::branch(
        "registration-failed",
        "the new instance failed to register with ELB {ELB}",
    )
    .child(FaultNode::root_cause(
        "elb-unavailable",
        "the ELB {ELB} is unavailable",
        DiagnosticTest::AssertionFails(CloudAssertion::ElbAvailable),
        0.6,
    ))
    .child(FaultNode::root_cause(
        "instance-not-in-service",
        "the new instance never reached in-service state",
        DiagnosticTest::InstanceAssertionFails(InstanceAssertionKind::InService),
        0.3,
    ));
    FaultTree::new("instance-registered-with-elb", root)
}

fn wrong_ami_cause(p: f64) -> FaultNode {
    FaultNode::root_cause(
        "lc-wrong-ami",
        "the launch configuration {LC} uses a wrong AMI (expected {AMI}) — AMI changed during \
         upgrade",
        DiagnosticTest::AssertionFails(CloudAssertion::LaunchConfigUsesAmi),
        p,
    )
}

fn wrong_key_pair_cause(p: f64) -> FaultNode {
    FaultNode::root_cause(
        "lc-wrong-key-pair",
        "the launch configuration {LC} uses a wrong key pair (expected {KEYPAIR})",
        DiagnosticTest::AssertionFails(CloudAssertion::LaunchConfigUsesKeyPair),
        p,
    )
}

fn wrong_sg_cause(p: f64) -> FaultNode {
    FaultNode::root_cause(
        "lc-wrong-sg",
        "the launch configuration {LC} uses a wrong security group (expected {SG})",
        DiagnosticTest::AssertionFails(CloudAssertion::LaunchConfigUsesSecurityGroup),
        p,
    )
}

fn wrong_instance_type_cause(p: f64) -> FaultNode {
    FaultNode::root_cause(
        "lc-wrong-instance-type",
        "the launch configuration {LC} uses a wrong instance type (expected {TYPE})",
        DiagnosticTest::AssertionFails(CloudAssertion::LaunchConfigUsesInstanceType),
        p,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repository_has_a_tree_per_assertion_family() {
        let repo = rolling_upgrade_repository(true);
        for key in [
            "asg-has-n-instances-with-version",
            "asg-launch-config-correct",
            "instance-deregistered-from-elb",
            "instance-terminated",
            "instance-registered-with-elb",
        ] {
            assert!(repo.select(key).is_some(), "missing tree for {key}");
        }
    }

    #[test]
    fn amendment_adds_instance_limit_cause() {
        let amended = rolling_upgrade_repository(true);
        let unamended = rolling_upgrade_repository(false);
        let has_limit = |repo: &FaultTreeRepository| {
            repo.select("asg-has-n-instances-with-version")
                .unwrap()
                .root
                .ids()
                .contains(&"instance-limit-reached")
        };
        assert!(has_limit(&amended));
        assert!(!has_limit(&unamended));
    }

    #[test]
    fn figure_5_tree_covers_all_eight_fault_types() {
        let tree = version_count_tree(true);
        let ids = tree.root.ids();
        for id in [
            "lc-wrong-ami",           // fault 1
            "lc-wrong-key-pair",      // fault 2
            "lc-wrong-sg",            // fault 3
            "lc-wrong-instance-type", // fault 4
            "ami-unavailable",        // fault 5
            "key-pair-unavailable",   // fault 6
            "sg-unavailable",         // fault 7
            "elb-unavailable",        // fault 8
            "concurrent-scale-in",    // interference
        ] {
            assert!(ids.contains(&id), "missing node {id}");
        }
    }

    #[test]
    fn pruning_for_update_lc_step_keeps_lc_branch() {
        let tree = version_count_tree(true);
        let all = tree.root.potential_faults(None);
        let pruned = tree.root.potential_faults(Some(steps::UPDATE_LC));
        assert!(pruned < all);
        assert!(pruned > 0);
    }
}
