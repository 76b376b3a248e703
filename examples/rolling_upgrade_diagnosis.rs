//! Experiment E6: reproduce the paper's sample diagnosis transcript
//! (Section III.B.4) — a wrong-AMI fault whose diagnosis walks the fault
//! tree, excludes the other potential faults one by one, and pinpoints the
//! rogue AMI as the root cause.
//!
//! Run with `cargo run --example rolling_upgrade_diagnosis`.

use pod_diagnosis::eval::{monitor_upgrade, Campaign, CampaignConfig};
use pod_diagnosis::log::LogQuery;
use pod_diagnosis::sim::SimDuration;

fn main() {
    // Seed 1119 (2013-11-19, the date in the paper's sample log); the first
    // clean plan is the wrong-AMI fault — `pod-diagnosis timeline`'s first
    // run.
    let plan = &Campaign::new(CampaignConfig::clean(1119)).plans()[0];
    let run = monitor_upgrade(plan);
    let storage = &run.scenario.storage;

    println!("== operation log (tagged lines forwarded to central storage) ==");
    for e in storage.query(&LogQuery::new().with_source("asgard.log")) {
        println!("{e}");
    }

    println!();
    println!("== assertion-evaluation log ==");
    let assertions = storage.query(&LogQuery::new().with_type("assertion"));
    for e in assertions.iter().take(14) {
        println!("{e}");
    }

    println!();
    println!("== diagnosis transcript (compare with Section III.B.4 of the paper) ==");
    for e in storage.query(&LogQuery::new().with_type("diagnosis")) {
        println!("{e}");
    }

    println!();
    println!("== operator report ==");
    for d in &run.summary.detections {
        if let Some(diag) = &d.diagnosis {
            println!(
                "[{}] detected via {:?} (step {}): {} — {} potential faults, {} excluded, \
                 {} tests run in {}",
                d.at,
                d.source,
                d.step.as_deref().unwrap_or("-"),
                d.description,
                diag.potential_faults,
                diag.excluded,
                diag.tests_run,
                diag.duration,
            );
            for cause in &diag.root_causes {
                println!("    ROOT CAUSE: {}", cause.description);
            }
        }
    }

    let dump = run.trace();
    println!();
    println!("== incident timelines (causal chains, virtual time) ==");
    print!("{}", pod_diagnosis::obs::render_timelines(&dump.events));
    println!();
    println!("== stage self time (virtual) ==");
    for (stage, us) in &run.record.stage_self_us {
        let self_time = SimDuration::from_micros(*us).to_string();
        println!("{stage:<34} {self_time:>12}");
    }
    println!();
    println!("== metrics summary ==");
    print!("{}", pod_diagnosis::obs::render_summary(&run.record.obs));
    let dropped = run.record.events_dropped;
    if dropped > 0 {
        println!(
            "WARNING: retention cap hit — {dropped} causal event(s) dropped; the trace export \
             below is incomplete"
        );
    } else {
        println!("causal events dropped: 0");
    }

    std::fs::write("TRACE_e6.json", dump.chrome_trace()).expect("write chrome trace");
    println!(
        "exported {} causal events, {} of them spans, to TRACE_e6.json (Chrome trace-event)",
        dump.events.len(),
        dump.events.iter().filter(|e| e.end.is_some()).count()
    );
}
