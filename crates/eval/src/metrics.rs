//! Evaluation metrics (Table I of the paper) and per-run classification of
//! detections against the injected ground truth.

use pod_core::{Detection, DetectionSource};
use pod_faulttree::DiagnosisVerdict;
use pod_orchestrator::{FaultType, Interference};
use pod_sim::{SimDuration, SimTime};

/// Ground truth of one run, as the harness executed it.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// The injected fault.
    pub fault: FaultType,
    /// When the fault was actually applied.
    pub injected_at: SimTime,
    /// When it was reverted, for transient faults.
    pub reverted_at: Option<SimTime>,
    /// Interference operations applied, with their application times.
    pub interferences: Vec<(SimTime, Interference)>,
}

/// How one run's detections scored against the ground truth.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// The injected fault was detected at least once.
    pub fault_detected: bool,
    /// Some diagnosis of the fault identified the expected root cause.
    pub fault_diagnosed_correctly: bool,
    /// Interference operations credited as (true) detections.
    pub interference_detections: usize,
    /// Interference detections whose diagnosis named the concurrent
    /// operation (or correctly reported it undiagnosable).
    pub interference_diagnosed_correctly: usize,
    /// False-positive detection episodes.
    pub false_positives: usize,
    /// FPs whose diagnosis correctly said "no root cause identified".
    pub fp_diagnosed_as_none: usize,
    /// Raw detection count (before episode grouping).
    pub raw_detections: usize,
    /// Whether conformance checking flagged the run before any assertion.
    pub conformance_first: bool,
    /// Whether any conformance-sourced detection occurred at all.
    pub conformance_any: bool,
    /// Durations of all diagnoses run in this run.
    pub diagnosis_times: Vec<SimDuration>,
    /// Time-to-first-root-cause for diagnoses that confirmed one.
    pub first_cause_latencies: Vec<SimDuration>,
}

/// Classifies a run's detections against its ground truth.
///
/// Attribution rules (documented in `EXPERIMENTS.md`):
///
/// - a diagnosis identifying the fault's expected root cause ⇒ the fault is
///   detected and correctly diagnosed;
/// - `concurrent-scale-in` / `instance-limit-reached` causes (or an
///   `ErrorConfirmedCauseUnknown` verdict while a random termination is in
///   effect) ⇒ a detected interference (credited once per interference
///   operation);
/// - any other detection while the fault is active ⇒ the fault is detected,
///   but (unless already diagnosed correctly elsewhere) wrongly diagnosed —
///   this covers the transient-fault and changed-again wrong-diagnosis
///   classes;
/// - anything else ⇒ a false positive; it still counts as *correctly
///   handled* when its diagnosis said "no root cause identified".
pub fn classify_run(truth: &GroundTruth, detections: &[Detection]) -> RunOutcome {
    let mut outcome = RunOutcome {
        raw_detections: detections.len(),
        ..RunOutcome::default()
    };
    let expected_cause = truth.fault.expected_root_cause();
    // Interference credit bookkeeping: each op can be credited once.
    let mut scale_credit = truth
        .interferences
        .iter()
        .filter(|(_, i)| matches!(i, Interference::ScaleIn | Interference::ScaleOut))
        .count();
    let mut limit_credit = truth
        .interferences
        .iter()
        .filter(|(_, i)| matches!(i, Interference::OtherTeamCapacityPressure))
        .count();
    let mut termination_credit = truth
        .interferences
        .iter()
        .filter(|(_, i)| matches!(i, Interference::RandomTermination))
        .count();
    let mut first_assertion_at: Option<SimTime> = None;
    let mut first_conformance_at: Option<SimTime> = None;
    // FP episode grouping: one per (source, minute).
    let mut fp_buckets: Vec<(DetectionSource, u64)> = Vec::new();
    // Re-detections of an already-credited interference within this window
    // are the same episode, not new false positives.
    const EPISODE_WINDOW: SimDuration = SimDuration::from_secs(240);
    let mut credited: Vec<(&str, SimTime)> = Vec::new();

    for d in detections {
        if d.source.is_conformance() {
            outcome.conformance_any = true;
            first_conformance_at.get_or_insert(d.at);
        } else {
            first_assertion_at.get_or_insert(d.at);
        }
        let Some(report) = &d.diagnosis else {
            // Cooldown-suppressed repeat of a recent diagnosis; the episode
            // it belongs to is already classified.
            continue;
        };
        outcome.diagnosis_times.push(report.duration);
        if let Some(after) = report.first_cause_after {
            outcome.first_cause_latencies.push(after);
        }
        let causes: Vec<&str> = report
            .root_causes
            .iter()
            .map(|c| c.node_id.as_str())
            .collect();
        let fault_active = d.at >= truth.injected_at
            && truth
                .reverted_at
                .is_none_or(|r| d.at < r + SimDuration::from_secs(90));

        let stopped: Vec<&str> = report
            .stopped_at
            .iter()
            .map(|c| c.node_id.as_str())
            .collect();
        let is_scale_cause = causes.contains(&"concurrent-scale-in")
            || causes.contains(&"concurrent-capacity-change");
        let recently_credited = |kind: &str, credited: &[(&str, SimTime)]| {
            credited
                .iter()
                .any(|(k, at)| *k == kind && d.at.duration_since(*at) < EPISODE_WINDOW)
        };
        // A single diagnosis can surface several co-occurring problems
        // (the injected fault AND a concurrent operation); credit each.
        let mut classified = false;
        if causes.contains(&expected_cause) && d.at >= truth.injected_at {
            outcome.fault_detected = true;
            outcome.fault_diagnosed_correctly = true;
            classified = true;
        }
        if is_scale_cause {
            if scale_credit > 0 {
                scale_credit -= 1;
                outcome.interference_detections += 1;
                outcome.interference_diagnosed_correctly += 1;
                credited.push(("scale", d.at));
                classified = true;
            } else if recently_credited("scale", &credited) {
                classified = true;
            }
        }
        if causes.contains(&"instance-limit-reached") {
            if limit_credit > 0 {
                limit_credit -= 1;
                outcome.interference_detections += 1;
                outcome.interference_diagnosed_correctly += 1;
                credited.push(("limit", d.at));
                classified = true;
            } else if recently_credited("limit", &credited) {
                classified = true;
            }
        }
        if stopped.contains(&"instance-terminated-unexpectedly") {
            // "We were able to diagnose when the root cause was ASG
            // scale-in, but not when the root cause was termination of
            // instances": the event is confirmed, the cause correctly
            // reported as unknown.
            if termination_credit > 0 {
                termination_credit -= 1;
                outcome.interference_detections += 1;
                outcome.interference_diagnosed_correctly += 1;
                credited.push(("termination", d.at));
                classified = true;
            } else if recently_credited("termination", &credited) {
                classified = true;
            }
        }
        if stopped.contains(&"instance-launch-failing") {
            // The un-amended tree stops at "launch failing" when the shared
            // account hits its limit — detected, wrongly diagnosed (the
            // paper's fourth wrong-diagnosis class).
            if limit_credit > 0 {
                limit_credit -= 1;
                outcome.interference_detections += 1;
                credited.push(("limit", d.at));
                classified = true;
            } else if recently_credited("limit", &credited) {
                classified = true;
            }
        }
        if classified {
            // Fully attributed.
        } else if fault_active {
            // The fault is live but the diagnosis pointed elsewhere (or
            // found nothing): detected, wrongly diagnosed.
            outcome.fault_detected = true;
        } else {
            // A detection with no live fault and no creditable
            // interference: a false positive.
            let bucket = (d.source, d.at.as_millis() / 60_000);
            if !fp_buckets.contains(&bucket) {
                fp_buckets.push(bucket);
                outcome.false_positives += 1;
                if report.verdict() == DiagnosisVerdict::NoRootCauseIdentified {
                    outcome.fp_diagnosed_as_none += 1;
                }
            }
        }
    }
    outcome.conformance_first = match (first_conformance_at, first_assertion_at) {
        (Some(c), Some(a)) => c < a,
        (Some(_), None) => true,
        _ => false,
    };
    outcome
}

/// Aggregated Table-I metrics over a set of runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricSet {
    /// Runs in the set.
    pub runs: usize,
    /// Injected faults detected (≤ runs).
    pub faults_detected: usize,
    /// Injected faults missed.
    pub faults_missed: usize,
    /// Correct root-cause diagnoses among detected faults.
    pub correct_fault_diagnoses: usize,
    /// Interference operations detected (count toward precision's TP).
    pub interference_detections: usize,
    /// Interference detections with a correct diagnosis.
    pub interference_correct: usize,
    /// False-positive episodes.
    pub false_positives: usize,
    /// FPs correctly diagnosed as "no root cause identified".
    pub fp_diagnosed_as_none: usize,
}

impl MetricSet {
    /// Accumulates one run.
    pub fn add(&mut self, outcome: &RunOutcome) {
        self.runs += 1;
        if outcome.fault_detected {
            self.faults_detected += 1;
        } else {
            self.faults_missed += 1;
        }
        if outcome.fault_diagnosed_correctly {
            self.correct_fault_diagnoses += 1;
        }
        self.interference_detections += outcome.interference_detections;
        self.interference_correct += outcome.interference_diagnosed_correctly;
        self.false_positives += outcome.false_positives;
        self.fp_diagnosed_as_none += outcome.fp_diagnosed_as_none;
    }

    /// True detections: injected faults plus interferences.
    pub fn true_detections(&self) -> usize {
        self.faults_detected + self.interference_detections
    }

    /// `P_det = TP / (TP + FP)`.
    pub fn detection_precision(&self) -> f64 {
        let tp = self.true_detections() as f64;
        let denom = tp + self.false_positives as f64;
        if denom == 0.0 {
            1.0
        } else {
            tp / denom
        }
    }

    /// `R_det = TP / (TP + FN)` over injected faults.
    pub fn detection_recall(&self) -> f64 {
        let denom = (self.faults_detected + self.faults_missed) as f64;
        if denom == 0.0 {
            1.0
        } else {
            self.faults_detected as f64 / denom
        }
    }

    /// Diagnosis accuracy over correctly detected faults (the abstract's
    /// 96.55% figure).
    pub fn diagnosis_accuracy_over_detected(&self) -> f64 {
        if self.faults_detected == 0 {
            1.0
        } else {
            self.correct_fault_diagnoses as f64 / self.faults_detected as f64
        }
    }

    /// `AR = Num_correct / (TP_det + FP_det)` (Table I; the 97.13% figure).
    /// FPs whose diagnosis said "no root cause identified" count as correct,
    /// as do detected interferences (their diagnosis names the concurrent
    /// operation).
    pub fn accuracy_rate(&self) -> f64 {
        let denom = (self.true_detections() + self.false_positives) as f64;
        if denom == 0.0 {
            return 1.0;
        }
        let correct =
            self.correct_fault_diagnoses + self.interference_correct + self.fp_diagnosed_as_none;
        correct as f64 / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_faulttree::{DiagnosedCause, DiagnosisReport};

    fn report(causes: &[&str], stopped: &[&str]) -> DiagnosisReport {
        DiagnosisReport {
            root_causes: causes
                .iter()
                .map(|c| DiagnosedCause {
                    node_id: c.to_string(),
                    description: c.to_string(),
                })
                .collect(),
            stopped_at: stopped
                .iter()
                .map(|c| DiagnosedCause {
                    node_id: c.to_string(),
                    description: c.to_string(),
                })
                .collect(),
            potential_faults: 4,
            excluded: 2,
            tests_run: 3,
            first_cause_after: None,
            started_at: SimTime::ZERO,
            duration: SimDuration::from_millis(2300),
        }
    }

    fn detection(at_s: u64, source: DetectionSource, rep: Option<DiagnosisReport>) -> Detection {
        Detection {
            at: SimTime::from_secs(at_s),
            source,
            description: "d".into(),
            step: None,
            key: "asg-has-instances-with-version",
            instance: None,
            diagnosis: rep,
            event: None,
        }
    }

    fn truth(fault: FaultType, injected_s: u64) -> GroundTruth {
        GroundTruth {
            fault,
            injected_at: SimTime::from_secs(injected_s),
            reverted_at: None,
            interferences: Vec::new(),
        }
    }

    #[test]
    fn correct_diagnosis_counts_as_tp() {
        let t = truth(FaultType::AmiChangedDuringUpgrade, 100);
        let d = vec![detection(
            150,
            DetectionSource::AssertionLog,
            Some(report(&["lc-wrong-ami"], &[])),
        )];
        let o = classify_run(&t, &d);
        assert!(o.fault_detected && o.fault_diagnosed_correctly);
        assert_eq!(o.false_positives, 0);
    }

    #[test]
    fn wrong_cause_while_fault_active_is_detected_but_wrong() {
        let t = truth(FaultType::KeyPairManagementFault, 100);
        let d = vec![detection(
            150,
            DetectionSource::AssertionLog,
            Some(report(&[], &["asg-wrong-version"])),
        )];
        let o = classify_run(&t, &d);
        assert!(o.fault_detected);
        assert!(!o.fault_diagnosed_correctly);
    }

    #[test]
    fn detection_before_injection_is_fp() {
        let t = truth(FaultType::ElbUnavailable, 500);
        let d = vec![detection(
            100,
            DetectionSource::AssertionOneOffTimer,
            Some(report(&[], &[])),
        )];
        let o = classify_run(&t, &d);
        assert!(!o.fault_detected);
        assert_eq!(o.false_positives, 1);
        assert_eq!(
            o.fp_diagnosed_as_none, 1,
            "no-root-cause FP is handled correctly"
        );
    }

    #[test]
    fn scale_in_interference_is_credited_once() {
        let mut t = truth(FaultType::AmiUnavailable, 900);
        t.interferences
            .push((SimTime::from_secs(100), Interference::ScaleIn));
        let rep = || Some(report(&["concurrent-scale-in"], &[]));
        let d = vec![
            detection(120, DetectionSource::AssertionPeriodicTimer, rep()),
            // Within the episode window: folded into the credited episode.
            detection(200, DetectionSource::AssertionPeriodicTimer, rep()),
            // Far beyond the window: a stale re-detection is an FP.
            detection(700, DetectionSource::AssertionPeriodicTimer, rep()),
        ];
        let o = classify_run(&t, &d);
        assert_eq!(o.interference_detections, 1);
        assert_eq!(o.false_positives, 1, "stale re-detection becomes an FP");
    }

    #[test]
    fn termination_interference_detected_via_unknown_cause() {
        let mut t = truth(FaultType::AmiUnavailable, 900);
        t.interferences
            .push((SimTime::from_secs(100), Interference::RandomTermination));
        let d = vec![detection(
            130,
            DetectionSource::AssertionPeriodicTimer,
            Some(report(&[], &["instance-terminated-unexpectedly"])),
        )];
        let o = classify_run(&t, &d);
        assert_eq!(o.interference_detections, 1);
        assert_eq!(o.interference_diagnosed_correctly, 1);
        assert_eq!(o.false_positives, 0);
    }

    #[test]
    fn fp_episodes_group_by_minute() {
        let t = truth(FaultType::ElbUnavailable, 9_000);
        let rep = || Some(report(&[], &[]));
        let d = vec![
            detection(100, DetectionSource::AssertionPeriodicTimer, rep()),
            detection(110, DetectionSource::AssertionPeriodicTimer, rep()), // same minute bucket? 100/60=1, 110/60=1
            detection(200, DetectionSource::AssertionPeriodicTimer, rep()),
        ];
        let o = classify_run(&t, &d);
        assert_eq!(o.false_positives, 2);
    }

    #[test]
    fn metric_formulas_match_table_one() {
        let m = MetricSet {
            runs: 160,
            faults_detected: 160,
            faults_missed: 0,
            correct_fault_diagnoses: 154,
            interference_detections: 46,
            interference_correct: 46,
            false_positives: 18,
            fp_diagnosed_as_none: 18,
        };
        assert!((m.detection_precision() - 206.0 / 224.0).abs() < 1e-9);
        assert_eq!(m.detection_recall(), 1.0);
        assert!((m.diagnosis_accuracy_over_detected() - 154.0 / 160.0).abs() < 1e-9);
        assert!((m.accuracy_rate() - 218.0 / 224.0).abs() < 1e-9);
    }

    use pod_sim::{SimDuration, SimTime};
}
