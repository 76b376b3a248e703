//! Repository-level integration tests: the full evaluation pipeline, run
//! small, must reproduce the paper's qualitative results and be
//! deterministic.

use pod_diagnosis::eval::{monitor_upgrade, Campaign, CampaignConfig};
use pod_diagnosis::log::LogQuery;

fn mini_config() -> CampaignConfig {
    CampaignConfig {
        runs_per_fault: 3,
        seed: 777,
        large_cluster_every: 3,
        ..CampaignConfig::default()
    }
}

#[test]
fn mini_campaign_reproduces_the_papers_shape() {
    let report = Campaign::new(mini_config()).run();
    let m = &report.overall;
    assert_eq!(m.runs, 24);
    // Recall is the paper's strongest claim (100%).
    assert!(
        m.detection_recall() >= 0.95,
        "recall {} too low",
        m.detection_recall()
    );
    // Precision and accuracy stay in the paper's regime (>85% on a small
    // sample; the full campaign lands at 90-95%).
    assert!(
        m.detection_precision() >= 0.80,
        "precision {}",
        m.detection_precision()
    );
    assert!(
        m.diagnosis_accuracy_over_detected() >= 0.85,
        "accuracy {}",
        m.diagnosis_accuracy_over_detected()
    );
    // Diagnosis times are seconds-scale with the paper's ordering.
    assert!(!report.timing.is_empty());
    let mean = report.timing.mean().as_secs_f64();
    assert!((0.8..6.0).contains(&mean), "mean diagnosis {mean}s");
    assert!(report.timing.max().as_secs_f64() < 30.0);
    assert!(report.timing.min().as_secs_f64() > 0.2);
}

/// The full 160-run campaign (the paper's exact scale) must land in the
/// paper's bands. This is the headline regression test; it runs the whole
/// evaluation in virtual time (~30 s of debug-build wall clock).
#[test]
fn full_campaign_matches_paper_bands() {
    let report = Campaign::new(CampaignConfig {
        runs_per_fault: 20,
        seed: 2014,
        ..CampaignConfig::default()
    })
    .run();
    let m = &report.overall;
    assert_eq!(m.runs, 160);
    assert_eq!(m.detection_recall(), 1.0, "paper: 100% recall");
    assert!(
        m.detection_precision() >= 0.88,
        "paper: 91.95%; measured {}",
        m.detection_precision()
    );
    assert!(
        m.diagnosis_accuracy_over_detected() >= 0.92,
        "paper: 96.55%; measured {}",
        m.diagnosis_accuracy_over_detected()
    );
    assert!(
        m.accuracy_rate() >= 0.90,
        "paper: 97.13%; measured {}",
        m.accuracy_rate()
    );
    // Figure 6 bands.
    let mean = report.timing.mean().as_secs_f64();
    assert!(
        (1.5..=3.5).contains(&mean),
        "paper mean 2.30s; measured {mean}"
    );
    let p95 = report.timing.percentile(0.95).as_secs_f64();
    assert!(p95 <= 5.0, "paper p95 3.83s; measured {p95}");
    assert!(report.timing.min().as_secs_f64() >= 0.5);
    // Figure 7: recall per fault type stays at 100%.
    for (fault, set) in &report.per_fault {
        assert_eq!(set.detection_recall(), 1.0, "{fault}");
    }
    // §V.D: configuration faults remain invisible to conformance in
    // interference-free runs; resource faults produce erroneous traces.
    assert_eq!(report.conformance.configuration_runs_flagged, 0);
    assert!(report.conformance.resource_runs_flagged_first >= 10);
}

#[test]
fn campaign_is_deterministic() {
    let a = Campaign::new(mini_config()).run();
    let b = Campaign::new(mini_config()).run();
    assert_eq!(a.overall, b.overall);
    assert_eq!(a.timing, b.timing);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.truth.injected_at, rb.truth.injected_at);
        assert_eq!(ra.outcome.raw_detections, rb.outcome.raw_detections);
        assert_eq!(ra.detection_sources, rb.detection_sources);
    }
}

#[test]
fn different_seeds_give_different_runs() {
    let a = Campaign::new(CampaignConfig {
        seed: 1,
        runs_per_fault: 1,
        ..mini_config()
    })
    .run();
    let b = Campaign::new(CampaignConfig {
        seed: 2,
        runs_per_fault: 1,
        ..mini_config()
    })
    .run();
    let inject_a: Vec<_> = a.records.iter().map(|r| r.truth.injected_at).collect();
    let inject_b: Vec<_> = b.records.iter().map(|r| r.truth.injected_at).collect();
    assert_ne!(inject_a, inject_b);
}

#[test]
fn configuration_faults_stay_invisible_to_conformance() {
    // Interference-free campaign: the §V.D claim must hold exactly.
    let report = Campaign::new(CampaignConfig {
        interference_fraction: 0.0,
        transient_fraction: 0.0,
        reinject_fraction: 0.0,
        runs_per_fault: 3,
        seed: 31,
        ..CampaignConfig::default()
    })
    .run();
    for r in &report.records {
        if r.plan.fault.is_configuration_fault() {
            assert!(
                !r.outcome.conformance_any,
                "{:?} flagged by conformance",
                r.plan.fault
            );
        }
    }
    // And a sizable share of resource-fault runs produce erroneous traces.
    assert!(report.conformance.resource_runs_flagged >= report.conformance.resource_runs / 2);
}

#[test]
fn every_fault_type_is_diagnosed_correctly_in_clean_runs() {
    let report = Campaign::new(CampaignConfig::clean(555)).run();
    for r in &report.records {
        assert!(r.outcome.fault_detected, "{:?} not detected", r.plan.fault);
        assert!(
            r.outcome.fault_diagnosed_correctly,
            "{:?} wrongly diagnosed",
            r.plan.fault
        );
        assert_eq!(r.outcome.false_positives, 0, "{:?}", r.plan.fault);
    }
}

/// The §III.B.4 sample diagnosis: a wrong-AMI instance walks the four
/// launch-configuration faults, excludes three and pinpoints the AMI.
#[test]
fn wrong_ami_diagnosis_has_the_papers_transcript_shape() {
    let run = monitor_upgrade(&Campaign::new(CampaignConfig::clean(1119)).plans()[0]);
    let mut diagnoses = (run.summary.detections.iter()).filter_map(|d| d.diagnosis.as_ref());
    let shaped = diagnoses.any(|diag| {
        let causes: Vec<&str> = diag.root_causes.iter().map(|c| &*c.node_id).collect();
        diag.potential_faults == 4 && diag.excluded == 3 && causes == ["lc-wrong-ami"]
    });
    assert!(shaped, "{:#?}", run.summary.detections);
    let transcript = run
        .scenario
        .storage
        .query(&LogQuery::new().with_type("diagnosis"));
    for phrase in ["4 potential faults in total", "3/4 faults excluded"] {
        let logged = transcript.iter().any(|e| e.message.contains(phrase));
        assert!(logged, "no {phrase:?} in the diagnosis log");
    }
}
