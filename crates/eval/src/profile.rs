//! The latency-budget profiler: attributes each run's virtual-clock time
//! across pipeline stages and aggregates per-stage self-time distributions
//! (p50/p95/p99) per fault type — the journal's `latency-budget` records.
//!
//! A *stage* is the kind of a record with an end (`conformance.verdict`,
//! `assertion.result`, `faulttree.walk`, …). A run's budget for a stage is
//! the stage's **self** time: the summed span durations minus the time
//! spent in the spans they enclose, so the budget rows add up to wall
//! (virtual) time instead of double-counting nested work.

use std::collections::BTreeMap;

use pod_obs::EventRecord;
use pod_orchestrator::FaultType;
use pod_sim::{nearest_rank, SimDuration};

/// Computes one run's latency budget: span kind → summed *self* virtual
/// time in microseconds (the time of the spans it encloses subtracted).
/// Records without an end take no time.
pub(crate) fn stage_self_times(records: &[EventRecord]) -> BTreeMap<String, u64> {
    let spans = || {
        records
            .iter()
            .filter_map(|r| Some((r, r.duration()?.as_micros())))
    };
    let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
    for (span, us) in spans() {
        if let Some(enclosing) = span.span() {
            *child_time.entry(enclosing).or_insert(0) += us;
        }
    }
    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    for (span, us) in spans() {
        let own = us.saturating_sub(child_time.get(&span.id()).copied().unwrap_or(0));
        *by_kind.entry(span.kind().to_string()).or_insert(0) += own;
    }
    by_kind
}

/// The per-stage distribution for one fault type.
#[derive(Debug, Clone, Default)]
struct StageSamples {
    /// One self-time sample (µs) per run. Runs where the stage never ran
    /// contribute an explicit zero so quantiles are over *all* runs.
    samples: Vec<u64>,
}

impl StageSamples {
    fn sorted(&self) -> Vec<u64> {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        sorted
    }
}

/// Aggregated latency budgets across a campaign: per fault type, per
/// stage, the p50/p95/p99 of the per-run self time.
#[derive(Debug, Clone, Default)]
pub struct LatencyProfile {
    /// fault → stage → samples.
    per_fault: BTreeMap<String, BTreeMap<String, StageSamples>>,
    /// fault → number of runs recorded.
    runs: BTreeMap<String, usize>,
}

impl LatencyProfile {
    /// An empty profile.
    pub fn new() -> LatencyProfile {
        LatencyProfile::default()
    }

    /// Records one run's stage budget ([`crate::RunRecord::stage_self_us`])
    /// under its fault type.
    pub fn record(&mut self, fault: FaultType, stages: &BTreeMap<String, u64>) {
        let label = fault.to_string();
        let runs_so_far = {
            let n = self.runs.entry(label.clone()).or_insert(0);
            *n += 1;
            *n - 1
        };
        let per_stage = self.per_fault.entry(label).or_default();
        // Stages this fault has seen before but this run did not run.
        for entry in per_stage.values_mut() {
            entry.samples.resize(runs_so_far, 0);
        }
        for (stage, &us) in stages {
            let entry = per_stage.entry(stage.clone()).or_default();
            entry.samples.resize(runs_so_far, 0);
            entry.samples.push(us);
        }
        for entry in per_stage.values_mut() {
            entry.samples.resize(runs_so_far + 1, 0);
        }
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.per_fault.is_empty()
    }

    /// p50/p95/p99 (µs) of a stage's per-run self time for one fault.
    pub fn quantiles(&self, fault: &str, stage: &str) -> Option<(u64, u64, u64)> {
        let sorted = self.per_fault.get(fault)?.get(stage)?.sorted();
        let q = |q| nearest_rank(&sorted, q).unwrap_or(0);
        Some((q(0.50), q(0.95), q(0.99)))
    }

    /// Per fault type, in name order: its label, its run count and every
    /// stage's per-run self times (µs, sorted) — what the journal's
    /// `latency-budget` records summarize.
    pub(crate) fn budgets(&self) -> impl Iterator<Item = (&str, usize, Vec<(&str, Vec<u64>)>)> {
        self.per_fault.iter().map(|(fault, stages)| {
            let runs = self.runs.get(fault).copied().unwrap_or(0);
            let stages = stages
                .iter()
                .map(|(stage, samples)| (stage.as_str(), samples.sorted()))
                .collect();
            (fault.as_str(), runs, stages)
        })
    }

    /// Renders the latency budget as a per-fault ASCII table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        if self.is_empty() {
            return "latency budget: no runs recorded\n".to_string();
        }
        let mut out = String::new();
        for (fault, stages) in &self.per_fault {
            let runs = self.runs.get(fault).copied().unwrap_or(0);
            let _ = writeln!(out, "{fault} ({runs} runs)");
            let _ = writeln!(
                out,
                "  {:<28} {:>12} {:>12} {:>12}",
                "stage", "p50", "p95", "p99"
            );
            let mut rows: Vec<(&String, (u64, u64, u64))> = stages
                .keys()
                .filter_map(|s| self.quantiles(fault, s).map(|q| (s, q)))
                .collect();
            rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
            for (stage, (p50, p95, p99)) in rows {
                let _ = writeln!(
                    out,
                    "  {:<28} {:>12} {:>12} {:>12}",
                    stage,
                    SimDuration::from_micros(p50).to_string(),
                    SimDuration::from_micros(p95).to_string(),
                    SimDuration::from_micros(p99).to_string(),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let clock = pod_sim::Clock::new();
        let obs = pod_obs::Obs::new(clock.clone());
        let advance = |ms| clock.advance(pod_sim::SimDuration::from_millis(ms));
        obs.begin_run("t");
        {
            let _walk = obs.span("faulttree.walk");
            advance(10);
            {
                let _test = obs.span("faulttree.test");
                advance(10);
                obs.event(None, "consistent.retry", "retry", || ());
                advance(20);
            }
            advance(10);
            let test = obs.span("faulttree.test");
            advance(20);
            drop(test);
            advance(30);
        }
        let budget = obs.events().with_records(stage_self_times);
        assert_eq!(budget["faulttree.walk"], 50_000); // 100ms - 50ms children
        assert_eq!(budget["faulttree.test"], 50_000);
        assert!(
            !budget.contains_key("consistent.retry"),
            "an instant takes no time"
        );
    }

    #[test]
    fn missing_stages_count_as_zero_runs() {
        let mut profile = LatencyProfile::new();
        let mut a = BTreeMap::new();
        a.insert("cloud.api.call".to_string(), 100u64);
        profile.record(FaultType::AmiUnavailable, &a);
        let mut b = BTreeMap::new();
        b.insert("faulttree.walk".to_string(), 10u64);
        profile.record(FaultType::AmiUnavailable, &b);
        let fault = FaultType::AmiUnavailable.to_string();
        // Each stage has 2 samples: one real, one implicit zero.
        let (p50, p95, _) = profile.quantiles(&fault, "cloud.api.call").unwrap();
        assert_eq!((p50, p95), (0, 100));
        let (p50, p95, _) = profile.quantiles(&fault, "faulttree.walk").unwrap();
        assert_eq!((p50, p95), (0, 10));
    }

    #[test]
    fn render_lists_stages_per_fault() {
        let mut profile = LatencyProfile::new();
        let mut stages = BTreeMap::new();
        stages.insert("cloud.api.call".to_string(), 1_500_000u64);
        profile.record(FaultType::ElbUnavailable, &stages);
        let text = profile.render();
        assert!(text.contains("ELB is unavailable during upgrade (1 runs)"));
        assert!(text.contains("cloud.api.call"));
        assert!(text.contains("p95"));
    }
}
