//! Detections: what the engine reports to the operator.

use std::sync::Arc;

use pod_cloud::InstanceId;
use pod_faulttree::DiagnosisReport;
use pod_sim::SimTime;

/// Which mechanism detected the error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectionSource {
    /// Token replay: a known activity executed out of turn.
    ConformanceUnfit,
    /// A log line matching a known-error pattern.
    ConformanceKnownError,
    /// A log line that could not be classified at all.
    ConformanceUnclassified,
    /// A log-triggered assertion evaluation failed.
    AssertionLog,
    /// A one-off (step-timeout) timer-triggered assertion failed.
    AssertionOneOffTimer,
    /// The periodic health-check assertion failed.
    AssertionPeriodicTimer,
}

impl DetectionSource {
    /// Whether the detection came from conformance checking rather than
    /// assertion evaluation (the §V.D split).
    pub fn is_conformance(self) -> bool {
        matches!(
            self,
            DetectionSource::ConformanceUnfit
                | DetectionSource::ConformanceKnownError
                | DetectionSource::ConformanceUnclassified
        )
    }

    /// The stable tag used for causal events and journal records.
    pub fn tag(self) -> &'static str {
        match self {
            DetectionSource::ConformanceUnfit => "conformance-unfit",
            DetectionSource::ConformanceKnownError => "conformance-known-error",
            DetectionSource::ConformanceUnclassified => "conformance-unclassified",
            DetectionSource::AssertionLog => "assertion-log",
            DetectionSource::AssertionOneOffTimer => "assertion-oneoff-timer",
            DetectionSource::AssertionPeriodicTimer => "assertion-periodic-timer",
        }
    }
}

/// One detected error, with its (possibly skipped) diagnosis.
#[derive(Debug, Clone)]
pub struct Detection {
    /// When the error was detected.
    pub at: SimTime,
    /// The detecting mechanism.
    pub source: DetectionSource,
    /// Human-readable description (assertion text or offending log line),
    /// shared with the detection's causal event.
    pub description: Arc<str>,
    /// The process step the error is associated with, if known; shared
    /// with the line that named it and the detection's causal event.
    pub step: Option<Arc<str>>,
    /// The assertion key that selects the fault tree for this detection
    /// (the master-tree key when the detection did not name an assertion).
    pub key: String,
    /// The cloud instance implicated, if known.
    pub instance: Option<InstanceId>,
    /// The diagnosis report; `None` when diagnosis was suppressed by the
    /// per-key cooldown (an identical diagnosis just ran).
    pub diagnosis: Option<DiagnosisReport>,
    /// The `detection` causal event recorded for this error, anchoring the
    /// incident timeline (see `pod_obs::incidents`).
    pub event: Option<pod_obs::EventId>,
}

impl Detection {
    /// A canonical one-line rendering of this detection.
    ///
    /// The fingerprint covers everything semantically observable — time,
    /// source, description, step, instance, and the diagnosis verdict with
    /// its identified root causes — so two runs are byte-identical exactly
    /// when they detected and diagnosed the same things at the same virtual
    /// times. Transient details (event ids, span ids) are excluded.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write;

        let mut out = String::new();
        let _ = write!(
            out,
            "{}|{}|{}|step={}|instance={}",
            self.at.as_micros(),
            self.source.tag(),
            self.description,
            self.step.as_deref().unwrap_or("-"),
            self.instance.as_ref().map(|i| i.as_str()).unwrap_or("-"),
        );
        match &self.diagnosis {
            None => out.push_str("|diagnosis=skipped"),
            Some(report) => {
                let mut causes: Vec<&str> = report
                    .root_causes
                    .iter()
                    .map(|c| c.node_id.as_str())
                    .collect();
                causes.sort_unstable();
                let _ = write!(
                    out,
                    "|diagnosis={:?}:{}",
                    report.verdict(),
                    causes.join(",")
                );
            }
        }
        out
    }
}

/// Summary statistics of one monitored operation run.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// All detections, in order.
    pub detections: Vec<Detection>,
    /// Log events submitted to conformance checking.
    pub conformance_events: usize,
    /// Conformance events classified as errors (unfit/error/unclassified).
    pub conformance_errors: usize,
    /// Assertion evaluations performed (all triggers).
    pub assertions_evaluated: usize,
    /// Whether the trace reached the process end event.
    pub trace_complete: bool,
}

impl RunSummary {
    /// A canonical multi-line rendering of every detection, in order.
    ///
    /// Two runs of the same operation produced byte-identical digests iff
    /// they behaved identically — the reproducibility property the gateway
    /// soak test asserts.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        for d in &self.detections {
            out.push_str(&d.fingerprint());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_classification() {
        assert!(DetectionSource::ConformanceUnfit.is_conformance());
        assert!(DetectionSource::ConformanceKnownError.is_conformance());
        assert!(!DetectionSource::AssertionLog.is_conformance());
        assert!(!DetectionSource::AssertionPeriodicTimer.is_conformance());
    }

    #[test]
    fn fingerprint_is_canonical_and_digest_joins() {
        let d = Detection {
            at: SimTime::from_millis(82_500),
            source: DetectionSource::AssertionLog,
            description: "instance failed health check".into(),
            step: Some("step4".into()),
            key: "instance-health".into(),
            instance: Some(InstanceId::new("i-7df34041")),
            diagnosis: None,
            event: None,
        };
        assert_eq!(
            d.fingerprint(),
            "82500000|assertion-log|instance failed health check\
             |step=step4|instance=i-7df34041|diagnosis=skipped"
        );
        let summary = RunSummary {
            detections: vec![d.clone(), d],
            ..RunSummary::default()
        };
        assert_eq!(summary.digest().lines().count(), 2);
        // Identical inputs produce byte-identical digests.
        assert_eq!(summary.digest(), summary.digest());
    }
}
