//! Quickstart: monitor one rolling upgrade with POD-Diagnosis.
//!
//! Plans a 4-instance Asgard-style rolling upgrade with a wrong-AMI fault
//! injected mid-flight (what `pod-diagnosis monitor 7 1` runs), hands the
//! plan to the one driver, `monitor_upgrade`, and prints what the engine
//! saw: detections and their diagnosed root causes.
//!
//! Run with `cargo run --example quickstart`.

use pod_diagnosis::eval::{monitor_upgrade, Campaign, CampaignConfig};

fn main() {
    // One unconfounded run per fault type; the first is fault type 1, a
    // concurrent AMI change.
    let plan = &Campaign::new(CampaignConfig::clean(7)).plans()[0];
    let run = monitor_upgrade(plan);
    println!(
        "=== rolling upgrade with {} injected at {} ===",
        plan.fault, run.record.truth.injected_at
    );
    println!(
        "upgrade {:?} in {} (virtual); {} log events checked by conformance, {} assertions \
         evaluated",
        run.upgrade.outcome,
        run.upgrade.duration,
        run.summary.conformance_events,
        run.summary.assertions_evaluated
    );
    println!("{} detection(s):", run.summary.detections.len());
    for d in run.summary.detections.iter().take(4) {
        println!("  [{}] {:?}: {}", d.at, d.source, d.description);
        if let Some(diag) = &d.diagnosis {
            for cause in &diag.root_causes {
                println!(
                    "      -> root cause ({}): {}",
                    diag.duration, cause.description
                );
            }
        }
    }
}
