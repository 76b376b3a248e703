//! The recovery plan library: a repair plan per diagnosable root cause.
//!
//! The library mirrors the fault-tree knowledge base in
//! `pod_faulttree::library`: every leaf the diagnosis engine can confirm
//! maps to an executable plan. A plan is its steps and its re-checks; both
//! resolve against the expected environment only when the executor runs
//! them, so the same plan serves every run. Root causes without a mapped
//! plan (concurrent interference, account limits, external terminations)
//! are deliberately unmapped — the executor escalates them to the operator
//! instead of guessing.

use pod_assert::CloudAssertion;
use pod_cloud::InstanceId;

/// A cloud resource kind the executor can restore to availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// A machine image.
    Ami,
    /// An SSH key pair.
    KeyPair,
    /// A security group.
    SecurityGroup,
    /// A load balancer.
    Elb,
}

impl ResourceKind {
    /// Short label used in step names and log lines.
    pub fn label(self) -> &'static str {
        match self {
            ResourceKind::Ami => "ami",
            ResourceKind::KeyPair => "key-pair",
            ResourceKind::SecurityGroup => "security-group",
            ResourceKind::Elb => "elb",
        }
    }
}

/// One executable repair step. Steps are parameterised by the expected
/// environment at execution time, so the same plan serves every run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryStep {
    /// Roll the corrupted launch configuration back in place: delete it
    /// and re-create it under the same name from the expected values, then
    /// re-point the ASG at it.
    RepairLaunchConfig,
    /// Create a fresh, uniquely named launch configuration from the
    /// expected values and switch the ASG over — the fallback strategy
    /// when in-place repair fails.
    SwitchLaunchConfig,
    /// Restore a resource the operation depends on to availability.
    RestoreResource(ResourceKind),
    /// Re-register in-service instances the load balancer lost while it
    /// was unavailable.
    ReregisterInstances,
    /// Terminate every active instance the fault actually corrupted: those
    /// launched from the expected launch configuration whose configuration
    /// deviates from the expectation. Instances still on an older launch
    /// configuration are the running operation's business, not the
    /// repair's — scoping the replacement to the fault is what lets a
    /// repair finish in seconds mid-operation instead of re-rolling the
    /// whole group.
    ReplaceCorruptedInstances,
    /// Wait until no active instance launched from the expected launch
    /// configuration deviates from the expected configuration (corrupted
    /// instances are terminating or replaced).
    WaitLaunchConfigSettled,
    /// Terminate one specific instance (re-issues a lost terminate call).
    TerminateInstance(InstanceId),
    /// Register one specific instance with the load balancer.
    RegisterInstanceWithElb(InstanceId),
}

impl RecoveryStep {
    /// Stable step name, used in log lines and transcripts.
    pub fn name(&self) -> String {
        match self {
            RecoveryStep::RepairLaunchConfig => "repair-launch-config".to_string(),
            RecoveryStep::SwitchLaunchConfig => "switch-launch-config".to_string(),
            RecoveryStep::RestoreResource(kind) => format!("restore-{}", kind.label()),
            RecoveryStep::ReregisterInstances => "reregister-instances".to_string(),
            RecoveryStep::ReplaceCorruptedInstances => "replace-corrupted-instances".to_string(),
            RecoveryStep::WaitLaunchConfigSettled => "wait-launch-config-settled".to_string(),
            RecoveryStep::TerminateInstance(_) => "terminate-instance".to_string(),
            RecoveryStep::RegisterInstanceWithElb(_) => "register-instance-with-elb".to_string(),
        }
    }
}

/// An ordered repair recipe with its own closed-loop verification and an
/// optional fallback strategy (the next rung of the escalation ladder).
///
/// A plan may have *zero* steps: the recovery process model allows going
/// straight from planning to verification, which is how the dispatcher's
/// operation-end review confirms that an incident without an actionable
/// root cause (transient blip, legitimate concurrent operation) resolved
/// itself — only a passing re-check counts as recovered.
#[derive(Debug, Clone)]
pub struct RecoveryPlan {
    /// Stable plan id.
    pub id: String,
    /// Steps, in execution order.
    pub steps: Vec<RecoveryStep>,
    /// Assertions that must all pass after execution for the run to count
    /// as [`Recovered`](crate::RecoveryOutcome::Recovered). These are the
    /// same `pod-assert` checks whose failure triggered diagnosis.
    pub verify: Vec<CloudAssertion>,
    /// Strategy tried when a step exhausts its budget or verification
    /// fails; `None` means the next failure escalates to the operator.
    pub fallback: Option<Box<RecoveryPlan>>,
}

impl RecoveryPlan {
    /// A step-less verification plan: re-check the given assertions and
    /// count the incident as recovered only if they all pass now. Used at
    /// operation end for diagnoses without a mapped repair (no root cause
    /// identified, or a confirmed-benign concurrent operation).
    pub fn confirm_resolved(verify: Vec<CloudAssertion>) -> Self {
        RecoveryPlan {
            id: "confirm-resolved".to_string(),
            steps: Vec::new(),
            verify,
            fallback: None,
        }
    }
}

/// The plan library: root-cause node id → instantiated [`RecoveryPlan`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanLibrary;

impl PlanLibrary {
    /// Creates the library.
    pub fn new() -> PlanLibrary {
        PlanLibrary
    }

    /// Root-cause node ids with a mapped plan. Causes outside this list
    /// (concurrent interference, instance limits, unexplained
    /// terminations) always escalate.
    pub fn mapped_causes(&self) -> &'static [&'static str] {
        &[
            "lc-wrong-ami",
            "lc-wrong-key-pair",
            "lc-wrong-sg",
            "lc-wrong-instance-type",
            "ami-unavailable",
            "key-pair-unavailable",
            "sg-unavailable",
            "elb-unavailable",
            "instance-still-running",
            "instance-not-registered",
        ]
    }

    /// Instantiates the plan for a confirmed root cause, or `None` when
    /// the cause is unmapped (or needs an instance context that the
    /// diagnosis did not provide).
    pub fn plan_for(
        &self,
        root_cause: &str,
        instance: Option<&InstanceId>,
    ) -> Option<RecoveryPlan> {
        match root_cause {
            "lc-wrong-ami" => Some(rollback_launch_config(CloudAssertion::LaunchConfigUsesAmi)),
            "lc-wrong-key-pair" => Some(rollback_launch_config(
                CloudAssertion::LaunchConfigUsesKeyPair,
            )),
            "lc-wrong-sg" => Some(rollback_launch_config(
                CloudAssertion::LaunchConfigUsesSecurityGroup,
            )),
            "lc-wrong-instance-type" => Some(rollback_launch_config(
                CloudAssertion::LaunchConfigUsesInstanceType,
            )),
            "ami-unavailable" => Some(restore_resource(
                ResourceKind::Ami,
                CloudAssertion::AmiAvailable,
            )),
            "key-pair-unavailable" => Some(restore_resource(
                ResourceKind::KeyPair,
                CloudAssertion::KeyPairAvailable,
            )),
            "sg-unavailable" => Some(restore_resource(
                ResourceKind::SecurityGroup,
                CloudAssertion::SecurityGroupAvailable,
            )),
            "elb-unavailable" => Some(restore_elb()),
            "instance-still-running" => instance.map(terminate_stuck_instance),
            "instance-not-registered" => instance.map(reregister_instance),
            _ => None,
        }
    }
}

/// The fault-scoped assertion every ASG-level plan re-checks: all active
/// instances launched from the expected launch configuration match the full
/// expected configuration. Unlike the whole-group count assertion it can
/// pass *mid-operation* (instances the upgrade has yet to replace are out
/// of scope), so an eager repair verifies in seconds; group-level
/// convergence remains the operation's own exit criterion.
const CONSISTENT: CloudAssertion = CloudAssertion::LaunchConfigInstancesConsistent;

/// Plan for the four launch-configuration corruption causes: repair the
/// configuration in place, replace the instances launched from the bad
/// one, and wait for the corrupted instances to drain. Falls back to
/// switching the ASG to a freshly created replacement configuration.
fn rollback_launch_config(lc_assertion: CloudAssertion) -> RecoveryPlan {
    RecoveryPlan {
        id: "rollback-launch-config".to_string(),
        steps: vec![
            RecoveryStep::RepairLaunchConfig,
            RecoveryStep::ReplaceCorruptedInstances,
            RecoveryStep::WaitLaunchConfigSettled,
        ],
        verify: vec![lc_assertion, CONSISTENT],
        fallback: Some(Box::new(RecoveryPlan {
            id: "switch-launch-config".to_string(),
            steps: vec![
                RecoveryStep::SwitchLaunchConfig,
                RecoveryStep::ReplaceCorruptedInstances,
                RecoveryStep::WaitLaunchConfigSettled,
            ],
            verify: vec![CONSISTENT],
            fallback: None,
        })),
    }
}

/// Plan for unavailable-resource causes: restore availability, then
/// resume the halted replacement (corrupted instances are replaced and
/// the group settles at the expected version).
fn restore_resource(kind: ResourceKind, availability: CloudAssertion) -> RecoveryPlan {
    RecoveryPlan {
        id: format!("restore-{}-and-resume", kind.label()),
        steps: vec![
            RecoveryStep::RestoreResource(kind),
            RecoveryStep::ReplaceCorruptedInstances,
            RecoveryStep::WaitLaunchConfigSettled,
        ],
        verify: vec![availability, CONSISTENT],
        fallback: None,
    }
}

/// Plan for an unavailable load balancer: restore it, re-register the
/// instances it lost, then resume the replacement.
fn restore_elb() -> RecoveryPlan {
    RecoveryPlan {
        id: "restore-elb-and-resume".to_string(),
        steps: vec![
            RecoveryStep::RestoreResource(ResourceKind::Elb),
            RecoveryStep::ReregisterInstances,
            RecoveryStep::ReplaceCorruptedInstances,
            RecoveryStep::WaitLaunchConfigSettled,
        ],
        verify: vec![CloudAssertion::ElbAvailable, CONSISTENT],
        fallback: None,
    }
}

/// Plan for a terminate call that was lost or throttled: re-issue it.
fn terminate_stuck_instance(instance: &InstanceId) -> RecoveryPlan {
    RecoveryPlan {
        id: "terminate-stuck-instance".to_string(),
        steps: vec![RecoveryStep::TerminateInstance(instance.clone())],
        verify: vec![CloudAssertion::InstanceTerminated {
            instance: instance.clone(),
        }],
        fallback: None,
    }
}

/// Plan for an instance that failed to register with the load balancer:
/// register it directly, falling back to restoring the balancer first.
fn reregister_instance(instance: &InstanceId) -> RecoveryPlan {
    let verify = vec![CloudAssertion::InstanceRegisteredWithElb {
        instance: instance.clone(),
    }];
    RecoveryPlan {
        id: "register-instance".to_string(),
        steps: vec![RecoveryStep::RegisterInstanceWithElb(instance.clone())],
        verify: verify.clone(),
        fallback: Some(Box::new(RecoveryPlan {
            id: "restore-elb-and-register".to_string(),
            steps: vec![
                RecoveryStep::RestoreResource(ResourceKind::Elb),
                RecoveryStep::RegisterInstanceWithElb(instance.clone()),
            ],
            verify,
            fallback: None,
        })),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_injectable_fault_root_cause_has_a_plan() {
        // The eight root causes the evaluation's fault injector can
        // produce (`FaultType::expected_root_cause`), spelled out so this
        // test breaks loudly if the fault-tree node ids drift.
        let library = PlanLibrary::new();
        for cause in [
            "lc-wrong-ami",
            "lc-wrong-key-pair",
            "lc-wrong-sg",
            "lc-wrong-instance-type",
            "ami-unavailable",
            "key-pair-unavailable",
            "sg-unavailable",
            "elb-unavailable",
        ] {
            let plan = library.plan_for(cause, None);
            assert!(plan.is_some(), "no recovery plan for {cause}");
            let plan = plan.unwrap();
            assert!(!plan.steps.is_empty(), "empty plan for {cause}");
            assert!(!plan.verify.is_empty(), "no verification for {cause}");
            assert!(library.mapped_causes().contains(&cause));
        }
    }

    #[test]
    fn library_root_causes_exist_in_the_fault_trees() {
        // Every mapped cause must be a node the diagnosis engine can
        // actually confirm somewhere in the rolling-upgrade repository.
        let repo = pod_faulttree::rolling_upgrade_repository(true);
        let known: Vec<&str> = repo
            .trees()
            .iter()
            .flat_map(|t| t.root.ids())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for cause in PlanLibrary::new().mapped_causes() {
            assert!(
                known.contains(cause),
                "plan library maps {cause}, which no fault tree contains"
            );
        }
    }

    #[test]
    fn interference_causes_stay_unmapped() {
        let library = PlanLibrary::new();
        for cause in [
            "concurrent-capacity-change",
            "concurrent-scale-in",
            "instance-limit-reached",
            "instance-not-in-service",
        ] {
            assert!(
                library.plan_for(cause, None).is_none(),
                "{cause} should escalate, not auto-repair"
            );
        }
    }

    #[test]
    fn instance_plans_need_an_instance_context() {
        let library = PlanLibrary::new();
        assert!(library.plan_for("instance-still-running", None).is_none());
        let id = pod_cloud::InstanceId::new("i-1234");
        let plan = library
            .plan_for("instance-still-running", Some(&id))
            .unwrap();
        assert_eq!(plan.steps, vec![RecoveryStep::TerminateInstance(id)]);
    }

    #[test]
    fn launch_config_plans_carry_a_fallback() {
        let plan = PlanLibrary::new().plan_for("lc-wrong-ami", None).unwrap();
        let fallback = plan.fallback.as_ref().expect("has a fallback");
        assert_eq!(fallback.id, "switch-launch-config");
        assert!(fallback.fallback.is_none(), "ladder ends at the fallback");
    }
}
