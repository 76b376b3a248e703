//! Historical timing profiles mined from operation logs.
//!
//! The paper sets its timer values "based on measured historical timing
//! profiles and process mining", with timeouts "set based on experiments,
//! at the 95% percentile". This module measures, per activity, the gap
//! between an activity's log line and the preceding line of the same trace
//! — the step duration — and derives percentile-based timeout
//! recommendations from a corpus of successful runs.

use std::collections::BTreeMap;

use pod_log::{LogEvent, RuleBook};
use pod_sim::{SimDuration, SimTime};

/// Per-activity duration samples mined from logs.
#[derive(Debug, Clone, Default)]
pub struct ActivityTimings {
    samples: BTreeMap<String, Vec<SimDuration>>,
}

impl ActivityTimings {
    /// Measures step durations from a chronological event stream.
    ///
    /// For every trace (selected by `trace_of`), the duration attributed to
    /// activity `A` is the gap between the line tagged `A` and the previous
    /// tagged line of the same trace — how long the step took to produce
    /// its completion line.
    pub fn measure(
        events: &[LogEvent],
        rules: &RuleBook,
        trace_of: impl Fn(&LogEvent) -> Option<String>,
    ) -> ActivityTimings {
        let mut last_seen: BTreeMap<String, SimTime> = BTreeMap::new();
        let mut timings = ActivityTimings::default();
        for event in events {
            let Some(trace) = trace_of(event) else {
                continue;
            };
            let Some(m) = rules.match_line(&event.message) else {
                continue;
            };
            if let Some(prev) = last_seen.get(&trace) {
                timings
                    .samples
                    .entry(m.activity.clone())
                    .or_default()
                    .push(event.timestamp.duration_since(*prev));
            }
            last_seen.insert(trace, event.timestamp);
        }
        for durations in timings.samples.values_mut() {
            durations.sort_unstable();
        }
        timings
    }

    /// Number of samples for an activity.
    pub fn sample_count(&self, activity: &str) -> usize {
        self.samples.get(activity).map(Vec::len).unwrap_or(0)
    }

    /// Mean duration of an activity, if sampled.
    pub fn mean(&self, activity: &str) -> Option<SimDuration> {
        let s = self.samples.get(activity)?;
        if s.is_empty() {
            return None;
        }
        let total: u64 = s.iter().map(|d| d.as_micros()).sum();
        Some(SimDuration::from_micros(total / s.len() as u64))
    }

    /// The `q`-quantile (0 < q ≤ 1, nearest rank) of an activity's
    /// duration, if sampled.
    pub fn percentile(&self, activity: &str, q: f64) -> Option<SimDuration> {
        assert!(q > 0.0 && q <= 1.0, "percentile requires 0 < q <= 1");
        pod_sim::nearest_rank(self.samples.get(activity)?, q)
    }

    /// The paper's timeout recommendation for a step: the 95th percentile
    /// of its historical duration, plus proportional slack.
    ///
    /// Returns `None` when the activity was never observed.
    pub fn recommended_timeout(&self, activity: &str) -> Option<SimDuration> {
        let p95 = self.percentile(activity, 0.95)?;
        // 10% slack, mirroring "plus some slack time" (§III.B.3).
        Some(SimDuration::from_micros(p95.as_micros() * 11 / 10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_log::{Boundary, LineRule};

    fn rules() -> RuleBook {
        let mut r = RuleBook::new();
        r.push(LineRule::new("a", Boundary::End, &["did A"]).unwrap());
        r.push(LineRule::new("b", Boundary::End, &["did B"]).unwrap());
        r
    }

    fn event(trace: &str, at_ms: u64, msg: &str) -> LogEvent {
        LogEvent::new(SimTime::from_millis(at_ms), "op.log", msg).with_field("t", trace)
    }

    #[test]
    fn measures_gaps_per_trace() {
        let events = vec![
            event("x", 0, "did A"),
            event("y", 5, "did A"),
            event("x", 100, "did B"),
            event("y", 305, "did B"),
            event("x", 150, "did A"), // next loop of trace x
        ];
        let t = ActivityTimings::measure(&events, &rules(), |e| e.field("t").map(str::to_string));
        // b: 100ms (trace x) and 300ms (trace y).
        assert_eq!(t.sample_count("b"), 2);
        assert_eq!(t.mean("b"), Some(SimDuration::from_millis(200)));
        assert_eq!(t.percentile("b", 0.95), Some(SimDuration::from_millis(300)));
        // a: only the second occurrence in trace x has a predecessor (50ms).
        assert_eq!(t.sample_count("a"), 1);
    }

    #[test]
    fn recommended_timeout_adds_slack() {
        let events = vec![event("x", 0, "did A"), event("x", 1000, "did B")];
        let t = ActivityTimings::measure(&events, &rules(), |e| e.field("t").map(str::to_string));
        assert_eq!(
            t.recommended_timeout("b"),
            Some(SimDuration::from_millis(1100))
        );
        assert_eq!(t.recommended_timeout("a"), None, "never measured");
    }

    #[test]
    fn unknown_activities_yield_none() {
        let t = ActivityTimings::default();
        assert!(t.mean("zzz").is_none());
        assert!(t.percentile("zzz", 0.5).is_none());
        assert_eq!(t.sample_count("zzz"), 0);
    }
}
