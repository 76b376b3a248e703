//! Reproduces the paper's evaluation (Section V): 160 fault-injection runs
//! (8 fault types × 20 runs) of a rolling upgrade on clusters of 4 or 20
//! instances, confounded by concurrent operations — then prints Table I,
//! Figure 6 and Figure 7.
//!
//! Run with `cargo run --release --example fault_injection_campaign`.
//! Pass a number to change runs-per-fault (e.g. `-- 5` for a quick pass).
//! Pass `--json` to also write:
//! - `RUN_campaign.jsonl` — the run record: Table-I metrics, the
//!   aggregated pod-obs snapshot, the latency budget (per-stage
//!   virtual-time self time, p50/p95/p99 per fault type) and the last
//!   run's incident chains as JSON-lines records;
//! - `TRACE_campaign.json` — the last run's spans and causal events as a
//!   Chrome trace-event file (load it in Perfetto / `chrome://tracing`);
//! - `TRACE_campaign_otlp.json` — the same trace as OTLP-style JSON.

use pod_diagnosis::eval::{campaign_lines, render_report, write_journal, Campaign, CampaignConfig};
use pod_diagnosis::obs::{chrome_trace, otlp_json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let runs_per_fault: usize = args.iter().find_map(|a| a.parse().ok()).unwrap_or(20);
    let config = CampaignConfig {
        runs_per_fault,
        seed: 2014, // the year of the paper
        ..CampaignConfig::default()
    };
    eprintln!(
        "running {} upgrades ({} per fault type) — all in virtual time...",
        runs_per_fault * 8,
        runs_per_fault
    );
    let started = std::time::Instant::now();
    let report = Campaign::new(config).run();
    eprintln!("campaign finished in {:.1?} wall-clock", started.elapsed());
    println!("{}", render_report(&report));
    let mut counts = std::collections::BTreeMap::new();
    for r in &report.records {
        for s in &r.detection_sources {
            *counts.entry(format!("{s:?}")).or_insert(0usize) += 1;
        }
    }
    println!("-- raw detection sources --");
    for (k, v) in counts {
        println!("{k:<28} {v}");
    }

    if json {
        let lines = campaign_lines("campaign", &report);
        let path = write_journal("campaign", &lines).expect("write run record");
        eprintln!("wrote {} journal records to {path}", lines.len());

        if let Some(dump) = &report.last_trace {
            let chrome = chrome_trace(&dump.trace_id, &dump.spans, &dump.events);
            std::fs::write("TRACE_campaign.json", chrome).expect("write chrome trace");
            let otlp = otlp_json(&dump.trace_id, &dump.spans, &dump.events);
            std::fs::write("TRACE_campaign_otlp.json", otlp).expect("write otlp trace");
            eprintln!(
                "wrote last run's trace ({} spans, {} events) to TRACE_campaign.json / \
                 TRACE_campaign_otlp.json",
                dump.spans.len(),
                dump.events.len()
            );
        }
    }

    println!("-- paper targets --");
    println!("precision 91.95%, recall 100%, accuracy (of detected) 96.55%, AR 97.13%");
    println!("diagnosis time: min 1.29s, mean 2.30s, p95 <= 3.83s, max 10.44s");
    println!("conformance: 20 of 80 resource-fault runs flagged before assertions");
}
