//! The incident timeline explainer: reconstructs, per detected error, the
//! ordered causal chain from the triggering log line to the reported root
//! cause, with per-hop latency, and renders it as an ASCII timeline.
//!
//! The input is the flat [`EventRecord`] list of one trace. Every event of
//! kind `detection` seeds one [`IncidentChain`]: its ancestor chain (parent
//! links walked to the root — the evidence *leading to* the detection) plus
//! every descendant (the dispatched diagnosis, fault-tree tests, verdict and
//! root causes *explaining* it).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use pod_sim::SimDuration;

use crate::event::EventRecord;

/// The reconstructed causal chain around one `detection` event.
#[derive(Debug, Clone)]
pub struct IncidentChain {
    /// The detection event itself.
    pub detection: EventRecord,
    /// The full chain in emission order: ancestors (root first), the
    /// detection, then every descendant.
    pub hops: Vec<EventRecord>,
    /// The `diagnosis.cause` descendants (reported root causes).
    pub root_causes: Vec<EventRecord>,
    /// Whether the chain's first hop is a `log.line` — i.e. the incident is
    /// traceable back to a concrete line of the operation's log.
    pub anchored: bool,
    /// Whether a `diagnosis.verdict` descendant exists — i.e. the
    /// dispatched diagnosis ran to completion and reported.
    pub diagnosed: bool,
}

impl IncidentChain {
    /// An unbroken chain: anchored at a log line *and* carried through to a
    /// diagnosis verdict.
    pub fn complete(&self) -> bool {
        self.anchored && self.diagnosed
    }

    /// Virtual time from the first hop to the diagnosis verdict (or the
    /// last hop when no verdict exists).
    pub fn elapsed(&self) -> SimDuration {
        let first = match self.hops.first() {
            Some(h) => h.at(),
            None => return SimDuration::from_micros(0),
        };
        let last = self
            .hops
            .iter()
            .rev()
            .find(|h| h.kind() == "diagnosis.verdict")
            .or(self.hops.last())
            .map(|h| h.at())
            .unwrap_or(first);
        last.duration_since(first)
    }
}

/// The number of incident chains [`incidents`] would reconstruct — one
/// per `detection` event — without building them. The per-run accounting
/// in a soak only needs the count, and full reconstruction clones every
/// hop's strings.
pub fn incident_count(records: &[EventRecord]) -> usize {
    records.iter().filter(|e| e.kind() == "detection").count()
}

/// Reconstructs one [`IncidentChain`] per `detection` event in `records`.
pub fn incidents(records: &[EventRecord]) -> Vec<IncidentChain> {
    let by_id: BTreeMap<u64, &EventRecord> = records.iter().map(|e| (e.id(), e)).collect();
    let mut children: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for event in records {
        if let Some(parent) = event.parent() {
            children.entry(parent).or_default().push(event.id());
        }
    }
    let mut chains = Vec::new();
    for event in records.iter().filter(|e| e.kind() == "detection") {
        // Ancestors: walk parent links to the root (or to an evicted id).
        let mut ancestors: Vec<&EventRecord> = Vec::new();
        let mut cursor = event.parent();
        while let Some(id) = cursor {
            let Some(parent) = by_id.get(&id) else {
                break; // evicted from the ring: chain is cut here
            };
            ancestors.push(parent);
            cursor = parent.parent();
        }
        ancestors.reverse();
        // Descendants: everything reachable through child links.
        let mut reached: BTreeSet<u64> = BTreeSet::new();
        let mut frontier = vec![event.id()];
        while let Some(id) = frontier.pop() {
            if let Some(kids) = children.get(&id) {
                for &kid in kids {
                    if reached.insert(kid) {
                        frontier.push(kid);
                    }
                }
            }
        }
        let mut hops: Vec<EventRecord> = ancestors.into_iter().cloned().collect();
        hops.push(event.clone());
        let mut descendants: Vec<EventRecord> = reached
            .iter()
            .filter_map(|id| by_id.get(id).map(|e| (*e).clone()))
            .collect();
        descendants.sort_by_key(|e| (e.at(), e.id()));
        hops.extend(descendants);
        let anchored = hops
            .first()
            .map(|h| h.kind() == "log.line")
            .unwrap_or(false);
        let diagnosed = hops.iter().any(|h| h.kind() == "diagnosis.verdict");
        let root_causes = hops
            .iter()
            .filter(|h| h.kind() == "diagnosis.cause")
            .cloned()
            .collect();
        chains.push(IncidentChain {
            detection: event.clone(),
            hops,
            root_causes,
            anchored,
            diagnosed,
        });
    }
    chains
}

fn attr_summary(event: &EventRecord, width: usize) -> String {
    let mut parts = Vec::new();
    for (k, v) in event.attrs() {
        let v: String = if v.chars().count() > width {
            let cut: String = v.chars().take(width.saturating_sub(1)).collect();
            format!("{cut}…")
        } else {
            v
        };
        parts.push(format!("{k}={v}"));
    }
    parts.join(" ")
}

/// Renders one incident chain as an ASCII timeline: one row per hop with
/// the hop's virtual timestamp, the latency since the previous hop and,
/// for a hop that is a span, how long it took.
fn render_timeline(chain: &IncidentChain) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "incident #{}: {} — {} hops, {} from first evidence to verdict, chain {}",
        chain.detection.id(),
        chain.detection.name(),
        chain.hops.len(),
        chain.elapsed(),
        if chain.complete() {
            "complete (log line -> root cause)"
        } else if chain.anchored {
            "anchored but undiagnosed"
        } else {
            "BROKEN (no log-line anchor)"
        },
    );
    let mut previous = chain.hops.first().map(|h| h.at());
    for (i, hop) in chain.hops.iter().enumerate() {
        let delta = previous
            .map(|p| hop.at().duration_since(p))
            .unwrap_or_else(|| SimDuration::from_micros(0));
        previous = Some(hop.at());
        let marker = if i == 0 { "   " } else { "-> " };
        let took = hop
            .duration()
            .map_or(String::new(), |d| format!("took={d} "));
        let _ = writeln!(
            out,
            "  {:>12}  {:>10}  {}{:<20} {:<28} {took}{}",
            hop.at().to_string(),
            if i == 0 {
                String::new()
            } else {
                format!("+{delta}")
            },
            marker,
            hop.kind(),
            hop.name(),
            attr_summary(hop, 56),
        );
    }
    for cause in &chain.root_causes {
        let _ = writeln!(
            out,
            "  root cause: {} {}",
            cause.name(),
            attr_summary(cause, 120)
        );
    }
    out
}

/// Renders every incident in `records` (see [`incidents`]), separated by
/// blank lines; a fixed message when no detection occurred.
pub fn render_timelines(records: &[EventRecord]) -> String {
    let chains = incidents(records);
    if chains.is_empty() {
        return "no incidents: no detection events in this trace\n".to_string();
    }
    let rendered: Vec<String> = chains.iter().map(render_timeline).collect();
    rendered.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrValue, Obs};
    use pod_sim::SimDuration;

    /// Emits the canonical chain: log.line -> conformance.verdict ->
    /// detection -> diagnosis.dispatch -> faulttree.test* ->
    /// diagnosis.cause + diagnosis.verdict.
    fn canonical_chain() -> Obs {
        let clock = pod_sim::Clock::new();
        let obs = Obs::new(clock.clone());
        let tick = || clock.advance(SimDuration::from_millis(10));
        obs.begin_run("t");
        let line = obs.event(None, "log.line", "asgard.log", || {
            [("message", AttrValue::from("launch configuration updated"))]
        });
        tick();
        let verdict = obs.event(line, "conformance.verdict", "conformance:unfit", || ());
        tick();
        let det = obs.event(verdict, "detection", "conformance-unfit", || ());
        tick();
        let dispatch = obs.event(det, "diagnosis.dispatch", "asg-tree", || ());
        tick();
        let test = {
            let _scope = obs.events().scope(dispatch);
            let test = obs.event_span("faulttree.test", "wrong-ami");
            tick();
            test.id()
        };
        obs.event(test, "diagnosis.cause", "wrong-ami", || {
            let description = "the launch configuration uses a wrong AMI";
            [("description", AttrValue::from(description))]
        });
        obs.event(dispatch, "diagnosis.verdict", "1 root cause(s)", || ());
        obs
    }

    #[test]
    fn reconstructs_an_unbroken_chain() {
        let obs = canonical_chain();
        let chains = incidents(&obs.events().records());
        assert_eq!(chains.len(), 1);
        let chain = &chains[0];
        assert!(chain.anchored);
        assert!(chain.diagnosed);
        assert!(chain.complete());
        assert_eq!(chain.hops.len(), 7);
        assert_eq!(chain.hops[0].kind(), "log.line");
        assert_eq!(chain.root_causes.len(), 1);
        assert_eq!(chain.elapsed(), SimDuration::from_millis(50));
    }

    #[test]
    fn chain_without_log_anchor_is_flagged_broken() {
        let obs = Obs::detached();
        obs.begin_run("t");
        let det = obs.event(None, "detection", "one-off-timer", || ());
        obs.event(det, "diagnosis.dispatch", "asg-tree", || ());
        let chains = incidents(&obs.events().records());
        assert!(!chains[0].anchored);
        assert!(!chains[0].complete());
        assert!(render_timeline(&chains[0]).contains("BROKEN"));
    }

    #[test]
    fn timeline_renders_hops_with_latency() {
        let obs = canonical_chain();
        let out = render_timelines(&obs.events().records());
        assert!(
            out.contains("incident #2: conformance-unfit"),
            "got:\n{out}"
        );
        assert!(
            out.contains("complete (log line -> root cause)"),
            "got:\n{out}"
        );
        assert!(out.contains("+10ms"), "per-hop latency:\n{out}");
        assert!(out.contains("root cause: wrong-ami"), "got:\n{out}");
        assert!(
            out.contains("message=launch configuration updated"),
            "got:\n{out}"
        );
    }

    #[test]
    fn span_rows_show_their_duration() {
        let out = render_timelines(&canonical_chain().events().records());
        let test_row = out.lines().find(|l| l.contains("faulttree.test"));
        assert!(
            test_row.is_some_and(|row| row.contains("wrong-ami") && row.contains("took=10ms")),
            "a span's row shows its duration:\n{out}"
        );
        let verdict_row = out.lines().find(|l| l.contains("conformance.verdict"));
        assert!(
            verdict_row.is_some_and(|row| !row.contains("took=")),
            "an instant's row shows none:\n{out}"
        );
    }

    #[test]
    fn unrelated_events_stay_out_of_the_chain() {
        let obs = canonical_chain();
        obs.event(None, "log.line", "unrelated.log", || ());
        let chains = incidents(&obs.events().records());
        assert_eq!(chains[0].hops.len(), 7);
    }

    #[test]
    fn no_detections_renders_a_fixed_message() {
        let obs = Obs::detached();
        obs.begin_run("t");
        obs.event(None, "log.line", "asgard.log", || ());
        assert!(render_timelines(&obs.events().records()).contains("no incidents"));
    }
}
