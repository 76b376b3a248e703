//! End-to-end reproduction of the paper's wrong-diagnosis classes (§VI.A)
//! at campaign level.

use pod_eval::{execute_run, Campaign, CampaignConfig, RunPlan};
use pod_orchestrator::FaultType;
use pod_sim::SimDuration;

fn base_plans(mutate: impl FnOnce(&mut CampaignConfig)) -> Vec<RunPlan> {
    let mut config = CampaignConfig::clean(97);
    mutate(&mut config);
    Campaign::new(config).plans()
}

/// Class 3: a transient fault — injected, then corrected racing the
/// dispatched diagnosis — is still *detected* (recall holds) but its
/// diagnosis comes back empty-handed.
#[test]
fn transient_fault_is_detected_but_wrongly_diagnosed() {
    let mut plan = base_plans(|_| {})
        .into_iter()
        .find(|p| p.fault == FaultType::KeyPairManagementFault)
        .unwrap();
    plan.transient_after = Some(SimDuration::from_secs(50));
    let record = execute_run(&plan);
    assert!(record.truth.reverted_at.is_some(), "the revert must happen");
    assert!(record.outcome.fault_detected, "{record:#?}");
    assert!(
        !record.outcome.fault_diagnosed_correctly,
        "the on-demand test runs after the revert and finds nothing: {record:#?}"
    );
}

/// The same fault, non-transient, diagnoses correctly — the control for the
/// test above.
#[test]
fn persistent_fault_is_diagnosed_correctly() {
    let plan = base_plans(|_| {})
        .into_iter()
        .find(|p| p.fault == FaultType::KeyPairManagementFault)
        .unwrap();
    let record = execute_run(&plan);
    assert!(record.truth.reverted_at.is_none());
    assert!(record.outcome.fault_detected);
    assert!(record.outcome.fault_diagnosed_correctly, "{record:#?}");
}

/// Class 2: the AMI changes *again* during the diagnosis window. The fault
/// stays detected; the diagnosis still points at a wrong AMI (both rogue
/// AMIs differ from the expected one), so accuracy is preserved — matching
/// the paper's observation that results differ *across* diagnosis rounds.
#[test]
fn ami_changed_again_keeps_detection() {
    let mut plan = base_plans(|_| {})
        .into_iter()
        .find(|p| p.fault == FaultType::AmiChangedDuringUpgrade)
        .unwrap();
    plan.reinject_after = Some(SimDuration::from_secs(40));
    let record = execute_run(&plan);
    assert!(record.outcome.fault_detected, "{record:#?}");
}

/// Class 4 end-to-end: with the un-amended trees and the shared account at
/// its limit, diagnosis stops at "launch failing" — detected interference,
/// wrong (uncredited) diagnosis; the amended trees name the limit.
#[test]
fn unamended_trees_miss_the_limit_cause() {
    let run = |amended: bool| {
        let mut plan = base_plans(move |c| c.amended_trees = amended)
            .into_iter()
            .find(|p| p.fault == FaultType::AmiChangedDuringUpgrade)
            .unwrap();
        plan.interferences = vec![(
            pod_sim::SimTime::from_secs(40),
            pod_orchestrator::Interference::OtherTeamCapacityPressure,
        )];
        execute_run(&plan)
    };
    let unamended = run(false);
    let amended = run(true);
    assert!(
        unamended.outcome.interference_detections >= 1,
        "{unamended:#?}"
    );
    assert!(amended.outcome.interference_detections >= 1, "{amended:#?}");
    // Only the amended trees credit the limit with a *correct* diagnosis.
    assert!(amended.outcome.interference_diagnosed_correctly >= 1);
    assert_eq!(
        unamended.outcome.interference_diagnosed_correctly, 0,
        "{unamended:#?}"
    );
}
