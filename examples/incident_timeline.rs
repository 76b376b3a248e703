//! Experiment E7: causal incident timelines — for each of the eight fault
//! types, run one faulty rolling upgrade and reconstruct, per detected
//! error, the ordered causal chain from the triggering log line through
//! detection, dispatch and fault-tree tests to the reported root cause,
//! with per-hop virtual-clock latency.
//!
//! Run with `cargo run --release --example incident_timeline`.
//! Pass `--json` to also write `RUN_incidents.jsonl`: one JSON-lines
//! record per incident chain across all eight runs.

use pod_diagnosis::eval::{
    execute_run_traced, incident_lines, write_journal, Campaign, CampaignConfig,
};
use pod_diagnosis::log::Json;
use pod_diagnosis::obs::{incidents, render_timelines};

fn main() {
    let json = std::env::args().skip(1).any(|a| a == "--json");
    // One clean run per fault type: no interference, no transient reverts,
    // so each timeline shows exactly the injected fault's causal story.
    let campaign = Campaign::new(CampaignConfig {
        runs_per_fault: 1,
        seed: 1119, // the date in the paper's sample log
        interference_fraction: 0.0,
        transient_fraction: 0.0,
        reinject_fraction: 0.0,
        large_cluster_every: 0,
        ..CampaignConfig::default()
    });
    let mut journal: Vec<Json> = Vec::new();
    let mut total = 0usize;
    let mut anchored = 0usize;
    let mut complete = 0usize;
    for plan in campaign.plans() {
        let (record, dump) = execute_run_traced(&plan);
        println!("== fault: {} (trace {}) ==", plan.fault, dump.trace_id);
        print!("{}", render_timelines(&dump.events));
        println!();
        let chains = incidents(&dump.events);
        total += chains.len();
        anchored += chains.iter().filter(|c| c.anchored).count();
        complete += chains.iter().filter(|c| c.complete()).count();
        journal.extend(incident_lines(&dump.trace_id, &chains));
        if record.events_dropped > 0 {
            println!(
                "WARNING: {} causal event(s) dropped in this run; chains may be cut",
                record.events_dropped
            );
        }
    }
    println!(
        "== summary: {total} incident chains, {anchored} anchored at a log line, {complete} \
         carried through to a diagnosis verdict (the rest had their diagnosis suppressed by \
         the per-key cooldown) =="
    );
    if json {
        let path = write_journal("incidents", &journal).expect("write run record");
        eprintln!("wrote {} incident records to {path}", journal.len());
    }
}
