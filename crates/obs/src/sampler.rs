//! Tail-based trace sampling: keep the runs that matter, count the rest.
//!
//! Head-based sampling decides *before* a run whether to record it — and
//! at gateway scale that is exactly backwards, because the runs worth
//! keeping (a detection, an error verdict, a shed warning, a
//! tail-latency exemplar) are the rare ones. The [`TailSampler`] decides
//! *after* a run completes, from its [`RunSignals`]:
//!
//! - any **incident-relevant** signal always keeps the run — an operation
//!   that detected something, errored, or was degraded by the gateway is
//!   never sampled away, so every detection retains its full causal chain;
//! - a **tail-latency exemplar** pointing at the run keeps it, so a p99
//!   read from a histogram links to an actual retained trace;
//! - healthy runs are kept deterministically **1-in-N** (same seed → same
//!   keep set), the rest are discarded.
//!
//! Every decision is accounted: `obs.sampler.kept` + `obs.sampler.discarded`
//! always equals the number of decisions, with per-reason breakdowns under
//! `obs.sampler.kept.*` — no more silent drops of incident-relevant
//! telemetry.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::metrics::{Counter, Registry};

/// Healthy runs are kept one in this many: the 1st, the 11th, the 21st…
const KEEP_ONE_IN: u64 = 10;

/// What a completed run ended with, as seen by the sampler.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSignals {
    /// The run/trace id (journal label only; does not affect the verdict).
    pub trace_id: String,
    /// Detections raised during the run.
    pub detections: usize,
    /// Error verdicts (e.g. conformance errors) during the run.
    pub errors: usize,
    /// Degradation warnings attributable to the run: shard shedding,
    /// event ring drops.
    pub warnings: usize,
    /// Whether a tail-latency exemplar points at this run.
    pub tail_exemplar: bool,
}

/// The sampler's decision for one run, in priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleVerdict {
    /// Kept: the run raised at least one detection.
    KeptDetection,
    /// Kept: the run ended in an error verdict.
    KeptError,
    /// Kept: the run hit a degradation warning (shed, drops).
    KeptWarning,
    /// Kept: a tail-latency exemplar points at the run.
    KeptTailExemplar,
    /// Kept: deterministic 1-in-N keep of a healthy run.
    KeptHealthy,
    /// Discarded: healthy and not selected by the 1-in-N keep.
    Discarded,
}

impl SampleVerdict {
    /// Whether the run's spans/events are retained.
    pub fn keep(self) -> bool {
        self != SampleVerdict::Discarded
    }
}

/// Decides, per completed run, whether its trace is retained, and accounts
/// every decision in the registry. Cloning shares all state.
#[derive(Debug, Clone)]
pub struct TailSampler {
    healthy_seen: Arc<AtomicU64>,
    kept: Counter,
    discarded: Counter,
    kept_detection: Counter,
    kept_error: Counter,
    kept_warning: Counter,
    kept_tail: Counter,
    kept_healthy: Counter,
}

impl TailSampler {
    /// Creates a sampler accounting its decisions in `registry` under
    /// `obs.sampler.*`.
    pub fn new(registry: &Registry) -> TailSampler {
        TailSampler {
            healthy_seen: Arc::new(AtomicU64::new(0)),
            kept: registry.counter("obs.sampler.kept"),
            discarded: registry.counter("obs.sampler.discarded"),
            kept_detection: registry.counter("obs.sampler.kept.detection"),
            kept_error: registry.counter("obs.sampler.kept.error"),
            kept_warning: registry.counter("obs.sampler.kept.warning"),
            kept_tail: registry.counter("obs.sampler.kept.tail-exemplar"),
            kept_healthy: registry.counter("obs.sampler.kept.healthy"),
        }
    }

    /// Decides whether the run described by `signals` is retained. Healthy
    /// runs use a deterministic 1-in-N sequence (first healthy run is
    /// always kept, so small batches retain at least one baseline trace).
    pub fn decide(&self, signals: &RunSignals) -> SampleVerdict {
        let verdict = if signals.detections > 0 {
            SampleVerdict::KeptDetection
        } else if signals.errors > 0 {
            SampleVerdict::KeptError
        } else if signals.warnings > 0 {
            SampleVerdict::KeptWarning
        } else if signals.tail_exemplar {
            SampleVerdict::KeptTailExemplar
        } else {
            let seq = self.healthy_seen.fetch_add(1, Ordering::Relaxed);
            if seq.is_multiple_of(KEEP_ONE_IN) {
                SampleVerdict::KeptHealthy
            } else {
                SampleVerdict::Discarded
            }
        };
        match verdict {
            SampleVerdict::KeptDetection => self.kept_detection.incr(),
            SampleVerdict::KeptError => self.kept_error.incr(),
            SampleVerdict::KeptWarning => self.kept_warning.incr(),
            SampleVerdict::KeptTailExemplar => self.kept_tail.incr(),
            SampleVerdict::KeptHealthy => self.kept_healthy.incr(),
            SampleVerdict::Discarded => {}
        }
        if verdict.keep() {
            self.kept.incr();
        } else {
            self.discarded.incr();
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signals(detections: usize, errors: usize, warnings: usize, tail: bool) -> RunSignals {
        RunSignals {
            trace_id: "op".to_string(),
            detections,
            errors,
            warnings,
            tail_exemplar: tail,
        }
    }

    #[test]
    fn incident_relevant_runs_are_always_kept() {
        let reg = Registry::new();
        let sampler = TailSampler::new(&reg);
        assert_eq!(
            sampler.decide(&signals(1, 0, 0, false)),
            SampleVerdict::KeptDetection
        );
        assert_eq!(
            sampler.decide(&signals(0, 2, 0, false)),
            SampleVerdict::KeptError
        );
        assert_eq!(
            sampler.decide(&signals(0, 0, 1, false)),
            SampleVerdict::KeptWarning
        );
        assert_eq!(
            sampler.decide(&signals(0, 0, 0, true)),
            SampleVerdict::KeptTailExemplar
        );
        assert_eq!(sampler.kept.get(), 4);
        assert_eq!(sampler.discarded.get(), 0);
    }

    #[test]
    fn healthy_runs_keep_one_in_n_deterministically() {
        let reg = Registry::new();
        let sampler = TailSampler::new(&reg);
        let verdicts: Vec<bool> = (0..20)
            .map(|_| sampler.decide(&RunSignals::default()).keep())
            .collect();
        let one_in_ten: Vec<bool> = (0..20).map(|i| i % 10 == 0).collect();
        assert_eq!(verdicts, one_in_ten);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("obs.sampler.kept"), 2);
        assert_eq!(snap.counter("obs.sampler.kept.healthy"), 2);
        assert_eq!(snap.counter("obs.sampler.discarded"), 18);
    }

    #[test]
    fn accounting_breakdown_sums_to_kept() {
        let reg = Registry::new();
        let sampler = TailSampler::new(&reg);
        for i in 0..50usize {
            sampler.decide(&signals(i % 5, i % 3, i % 2, i % 7 == 0));
        }
        let snap = reg.snapshot();
        let reasons = snap.counters.iter();
        let reasons = reasons.filter(|(name, _)| name.starts_with("obs.sampler.kept."));
        let breakdown: u64 = reasons.map(|(_, kept)| kept).sum();
        assert_eq!(breakdown, snap.counter("obs.sampler.kept"));
        assert_eq!(
            snap.counter("obs.sampler.kept") + snap.counter("obs.sampler.discarded"),
            50
        );
    }
}
