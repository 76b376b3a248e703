//! Rendering of campaign results: the headline numbers, the Figure-6
//! diagnosis-time histogram and the Figure-7 per-fault-type bars, as text.

use std::fmt::Write as _;

use crate::campaign::CampaignReport;
use crate::metrics::MetricSet;

/// Renders a percentage.
fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Renders a fixed-width ASCII bar.
fn bar(fraction: f64, width: usize) -> String {
    let filled = ((fraction.clamp(0.0, 1.0)) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

/// Renders the full campaign report (Table I metrics, Figure 6, Figure 7,
/// §V.D conformance statistics) as plain text.
pub fn render_report(report: &CampaignReport) -> String {
    let mut out = String::new();
    let m = &report.overall;
    let _ = writeln!(out, "== POD-Diagnosis campaign report ==");
    let _ = writeln!(
        out,
        "runs: {} ({} faults detected, {} missed, {} of {} interference operations detected, \
         {} false positives)",
        m.runs,
        m.faults_detected,
        m.faults_missed,
        m.interference_detections,
        report.interference_applied,
        m.false_positives
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "-- Table I metrics (overall) --");
    let _ = writeln!(
        out,
        "precision of detection : {}",
        pct(m.detection_precision())
    );
    let _ = writeln!(
        out,
        "recall of detection    : {}",
        pct(m.detection_recall())
    );
    let _ = writeln!(
        out,
        "diagnosis accuracy (of detected faults) : {}",
        pct(m.diagnosis_accuracy_over_detected())
    );
    let _ = writeln!(
        out,
        "accuracy rate AR = Num_correct/(TP+FP)  : {}",
        pct(m.accuracy_rate())
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "-- Figure 6: distribution of error diagnosis time --");
    let t = &report.timing;
    if t.is_empty() {
        let _ = writeln!(out, "(no diagnoses)");
    } else {
        let _ = writeln!(
            out,
            "n = {}, min = {}, mean = {}, p95 = {}, max = {}",
            t.len(),
            t.min(),
            t.mean(),
            t.percentile(0.95),
            t.max()
        );
        let hist = t.histogram(10);
        let peak = hist.iter().map(|(_, _, c)| *c).max().unwrap_or(1).max(1);
        for (lo, hi, count) in hist {
            let _ = writeln!(
                out,
                "  {:>8} - {:>8} | {:<30} {count}",
                lo.to_string(),
                hi.to_string(),
                bar(count as f64 / peak as f64, 30)
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "-- Figure 7: precision / recall / diagnosis accuracy by fault type --"
    );
    let _ = writeln!(
        out,
        "{:<42} {:>10} {:>10} {:>10}",
        "fault type", "precision", "recall", "accuracy"
    );
    for (fault, set) in &report.per_fault {
        let _ = writeln!(
            out,
            "{:<42} {:>10} {:>10} {:>10}",
            fault.to_string(),
            pct(set.detection_precision()),
            pct(set.detection_recall()),
            pct(set.diagnosis_accuracy_over_detected()),
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "-- Section V.D: conformance checking --");
    let c = &report.conformance;
    let _ = writeln!(
        out,
        "configuration-fault runs (types 1-4): {} — flagged by conformance: {} (paper: 0)",
        c.configuration_runs, c.configuration_runs_flagged
    );
    let _ = writeln!(
        out,
        "resource-fault runs (types 5-8): {} — erroneous log traces seen by conformance: {} \
         (before assertions: {}; paper: 20 of 80)",
        c.resource_runs, c.resource_runs_flagged, c.resource_runs_flagged_first
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "-- Incident timelines: causal-chain coverage (all runs) --"
    );
    let _ = writeln!(
        out,
        "incident chains reconstructed: {} — unbroken (log line -> verdict): {}{}",
        report.incidents_total,
        report.incidents_complete,
        if report.incidents_total > 0 {
            format!(
                " ({})",
                pct(report.incidents_complete as f64 / report.incidents_total as f64)
            )
        } else {
            String::new()
        }
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "-- Recovery loop: automated remediation of diagnosed root causes --"
    );
    let rec = &report.recovery;
    if rec.attempted == 0 {
        let _ = writeln!(out, "(recovery stage disabled)");
    } else {
        let _ = writeln!(
            out,
            "recoveries: {} attempted — {} recovered (verified), {} escalated to operator, \
             {} conformance-fit against the recovery model",
            rec.attempted, rec.recovered, rec.escalated, rec.conformance_fit
        );
        let _ = writeln!(
            out,
            "MTTR (detection -> verified repair): n = {}, p50 = {}, p95 = {}, max = {}",
            rec.mttr.len(),
            rec.mttr.percentile(0.5),
            rec.mttr.percentile(0.95),
            rec.mttr.max()
        );
        let phases = [
            ("detection", &rec.phases.detection),
            ("diagnosis", &rec.phases.diagnosis),
            ("staging", &rec.phases.staging),
            ("repair", &rec.phases.repair),
            ("verification", &rec.phases.verification),
        ];
        if phases.iter().any(|(_, p)| !p.is_empty()) {
            let _ = writeln!(out, "MTTR phase breakdown (recovered repairs):");
            for (name, stats) in phases {
                if stats.is_empty() {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {:<14} p50 = {:>10}, p95 = {:>10}",
                    name,
                    stats.percentile(0.5).to_string(),
                    stats.percentile(0.95).to_string(),
                );
            }
        }
        let _ = writeln!(
            out,
            "{:<42} {:>9} {:>9} {:>9} {:>12} {:>12}",
            "fault type", "attempted", "recovered", "escalated", "MTTR p50", "MTTR p95"
        );
        for (fault, fs) in &rec.per_fault {
            if fs.attempted == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<42} {:>9} {:>9} {:>9} {:>12} {:>12}",
                fault.to_string(),
                fs.attempted,
                fs.recovered,
                fs.escalated,
                fs.mttr.percentile(0.5).to_string(),
                fs.mttr.percentile(0.95).to_string(),
            );
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "-- Latency budget: per-stage self time, p50/p95/p99 per fault type --"
    );
    out.push_str(&report.latency.render());
    let _ = writeln!(out);
    let _ = writeln!(out, "-- Observability: pod-obs metrics (all runs) --");
    if report.events_dropped > 0 {
        let _ = writeln!(
            out,
            "WARNING: retention cap hit — {} causal event(s) dropped; \
             traces and timelines may be incomplete",
            report.events_dropped
        );
    } else {
        let _ = writeln!(out, "causal events dropped: 0");
    }
    out.push_str(&pod_obs::render_summary(&report.obs_totals));
    out
}

/// Renders the gateway section: throughput, backpressure accounting (with
/// an explicit warning when overload shed lines — shed input means the
/// downstream diagnosis saw an incomplete log) and the per-shard table
/// with queue-wait quantiles.
pub fn render_gateway_report(stats: &pod_gateway::GatewayStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- Gateway: sharding, batching, backpressure --");
    let _ = writeln!(
        out,
        "lines: {} submitted, {} processed in {} batches ({:.0} lines/s virtual, {} virtual elapsed)",
        stats.lines_submitted,
        stats.lines_processed,
        stats.batches,
        stats.lines_per_sec_virtual(),
        stats.virtual_elapsed,
    );
    let _ = writeln!(
        out,
        "backpressure: {} producer stall(s), {} line(s) deferred past a full batch, \
         {} registration(s) denied by admission control",
        stats.blocked, stats.deferred, stats.admission_denied
    );
    if stats.total_shed() > 0 {
        let _ = writeln!(
            out,
            "WARNING: overload shed {} line(s) (oldest-first: {}, newest-first: {}); \
             diagnosis may be incomplete",
            stats.total_shed(),
            stats.shed_oldest,
            stats.shed_newest
        );
    } else {
        let _ = writeln!(out, "lines shed: 0");
    }
    let _ = writeln!(
        out,
        "parse: {} json, {} plaintext, {} unclassified",
        stats.parsed_json, stats.parsed_plain, stats.unclassified
    );
    let _ = writeln!(
        out,
        "{:<6} {:>4} {:>8} {:>6} {:>8} {:>12} {:>12} {:>12}",
        "shard", "ops", "lines", "shed", "batches", "wait p50", "wait p95", "wait p99"
    );
    for s in &stats.shards {
        let q = |p: f64| {
            s.queue_wait_us
                .as_ref()
                .and_then(|h| h.quantile(p))
                .map(|us| pod_sim::SimDuration::from_micros(us).to_string())
                .unwrap_or_else(|| "-".to_string())
        };
        let _ = writeln!(
            out,
            "{:<6} {:>4} {:>8} {:>6} {:>8} {:>12} {:>12} {:>12}",
            s.shard,
            s.ops,
            s.lines,
            s.shed,
            s.batches,
            q(0.5),
            q(0.95),
            q(0.99)
        );
    }
    out
}

/// Renders a single metric set as one summary line.
pub fn render_metrics_line(label: &str, m: &MetricSet) -> String {
    format!(
        "{label}: P={} R={} ACC={} AR={} (TP={} IF={} FP={})",
        pct(m.detection_precision()),
        pct(m.detection_recall()),
        pct(m.diagnosis_accuracy_over_detected()),
        pct(m.accuracy_rate()),
        m.faults_detected,
        m.interference_detections,
        m.false_positives,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignConfig};

    #[test]
    fn report_renders_all_sections() {
        let report = Campaign::new(CampaignConfig {
            runs_per_fault: 1,
            large_cluster_every: 0,
            ..CampaignConfig::default()
        })
        .run();
        let text = render_report(&report);
        assert!(text.contains("Table I"));
        assert!(text.contains("Figure 6"));
        assert!(text.contains("Figure 7"));
        assert!(text.contains("conformance"));
        assert!(text.contains("precision of detection"));
        assert!(text.contains("Observability"));
        assert!(text.contains("cloud.api.calls"));
        for fault in pod_orchestrator::FaultType::all() {
            assert!(text.contains(&fault.to_string()), "missing {fault}");
        }
    }

    #[test]
    fn report_covers_the_recovery_stage() {
        let disabled = Campaign::new(CampaignConfig {
            runs_per_fault: 1,
            large_cluster_every: 0,
            ..CampaignConfig::default()
        })
        .run();
        let text = render_report(&disabled);
        assert!(text.contains("(recovery stage disabled)"), "{text}");

        let enabled = Campaign::new(CampaignConfig {
            recovery: true,
            ..CampaignConfig::clean(42)
        })
        .run();
        let text = render_report(&enabled);
        assert!(text.contains("Recovery loop"), "{text}");
        assert!(
            text.contains("MTTR (detection -> verified repair)"),
            "{text}"
        );
        assert!(text.contains("MTTR p95"), "{text}");
        assert!(text.contains("MTTR phase breakdown"), "{text}");
        for phase in [
            "detection",
            "diagnosis",
            "staging",
            "repair",
            "verification",
        ] {
            assert!(text.contains(phase), "missing phase {phase}: {text}");
        }
    }

    #[test]
    fn gateway_report_warns_only_when_lines_were_shed() {
        let hist = {
            let obs = pod_obs::Obs::detached();
            let h = obs.histogram("w");
            h.record(500);
            obs.snapshot().histogram("w").unwrap().clone()
        };
        let mut stats = pod_gateway::GatewayStats {
            shards: vec![pod_gateway::ShardStats {
                shard: 0,
                ops: 2,
                lines: 10,
                shed: 0,
                batches: 3,
                queue_wait_us: Some(hist),
            }],
            lines_submitted: 10,
            lines_processed: 10,
            shed_oldest: 0,
            shed_newest: 0,
            blocked: 1,
            deferred: 2,
            admission_denied: 0,
            batches: 3,
            parsed_json: 8,
            parsed_plain: 1,
            unclassified: 1,
            virtual_elapsed: pod_sim::SimDuration::from_secs(2),
        };
        let clean = render_gateway_report(&stats);
        assert!(clean.contains("lines shed: 0"), "{clean}");
        assert!(clean.contains("wait p99"), "{clean}");
        assert!(!clean.contains("WARNING"), "{clean}");
        stats.shed_oldest = 4;
        stats.shards[0].shed = 4;
        let shedding = render_gateway_report(&stats);
        assert!(
            shedding.contains("WARNING: overload shed 4 line(s)"),
            "{shedding}"
        );
        assert!(
            shedding.contains("diagnosis may be incomplete"),
            "{shedding}"
        );
    }

    #[test]
    fn bar_widths() {
        assert_eq!(bar(0.0, 10), "..........");
        assert_eq!(bar(1.0, 10), "##########");
        assert_eq!(bar(0.5, 10), "#####.....");
    }
}
