//! ASCII rendering of metric snapshots for the evaluation report.

use std::fmt::Write as _;

use pod_sim::SimDuration;

use crate::metrics::Snapshot;

fn fmt_value(name: &str, v: u64) -> String {
    // Histograms of microseconds follow the `*_us` naming convention;
    // everything else (depths, attempt counts) is a plain number.
    if name.ends_with("_us") {
        SimDuration::from_micros(v).to_string()
    } else {
        v.to_string()
    }
}

/// Renders a snapshot as an ASCII summary: counters, gauges, then
/// histograms with count/mean/p50/p95/max columns. Histogram values whose
/// name ends in `_us` are rendered as durations; the rest as plain numbers.
pub fn render_summary(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let counters: Vec<_> = snapshot.counters.iter().filter(|(_, &v)| v > 0).collect();
    if !counters.is_empty() {
        let _ = writeln!(out, "{:<44} {:>12}", "counter", "value");
        for (name, value) in counters {
            let _ = writeln!(out, "{name:<44} {value:>12}");
        }
    }
    let gauges: Vec<_> = snapshot.gauges.iter().filter(|(_, &v)| v != 0).collect();
    if !gauges.is_empty() {
        let _ = writeln!(out, "{:<44} {:>12}", "gauge", "value");
        for (name, value) in gauges {
            let _ = writeln!(out, "{name:<44} {value:>12}");
        }
    }
    let histograms: Vec<_> = snapshot
        .histograms
        .iter()
        .filter(|(_, h)| h.count > 0)
        .collect();
    if !histograms.is_empty() {
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>10} {:>10} {:>10} {:>10}",
            "histogram", "count", "mean", "p50", "p95", "max"
        );
        for (name, h) in histograms {
            let _ = writeln!(
                out,
                "{:<44} {:>8} {:>10} {:>10} {:>10} {:>10}",
                name,
                h.count,
                fmt_value(name, h.mean().round() as u64),
                fmt_value(name, h.quantile(0.50).unwrap_or(0)),
                fmt_value(name, h.quantile(0.95).unwrap_or(0)),
                fmt_value(name, h.max),
            );
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn summary_lists_active_metrics_only() {
        let reg = Registry::new();
        reg.counter("cloud.api.calls").add(12);
        reg.counter("cloud.api.stale_reads"); // zero — hidden
        reg.gauge("queue.depth").set(3);
        let h = reg.histogram("cloud.api.latency_us");
        h.record(70_000);
        h.record(90_000);
        let text = render_summary(&reg.snapshot());
        assert!(text.contains("cloud.api.calls"), "got:\n{text}");
        assert!(!text.contains("stale_reads"), "got:\n{text}");
        assert!(text.contains("queue.depth"), "got:\n{text}");
        assert!(text.contains("cloud.api.latency_us"), "got:\n{text}");
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let text = render_summary(&Registry::new().snapshot());
        assert!(text.contains("no metrics"));
    }
}
