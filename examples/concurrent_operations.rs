//! Interference demo, the paper's §V design in one run: a rolling upgrade
//! of an 8-instance cluster carrying an injected configuration fault *and*
//! confounded by simultaneous operations — a legitimate scale-in (which
//! the operator acknowledges 75 s later) and a random instance termination
//! — showing how process context separates expected changes from real
//! anomalies, and how diagnosis attributes each detection.
//!
//! Run with `cargo run --example concurrent_operations`.

use pod_diagnosis::eval::{monitor_upgrade, Campaign, CampaignConfig};
use pod_diagnosis::orchestrator::Interference;
use pod_diagnosis::sim::SimTime;

fn main() {
    // The clean wrong-AMI plan, on a larger cluster and with company.
    let mut plan = Campaign::new(CampaignConfig::clean(23)).plans().remove(0);
    plan.scenario.cluster_size = 8;
    plan.interferences = vec![
        (SimTime::from_secs(120), Interference::ScaleIn),
        (SimTime::from_secs(300), Interference::RandomTermination),
    ];
    let run = monitor_upgrade(&plan);
    let truth = &run.record.truth;
    println!(
        ">>> fault injected at {}: {}",
        truth.injected_at, truth.fault
    );
    for (at, kind) in &truth.interferences {
        println!(">>> concurrent operation at {at}: {kind:?}");
    }

    println!(
        "\nupgrade {:?}; {} detections",
        run.upgrade.outcome,
        run.summary.detections.len()
    );
    for d in &run.summary.detections {
        println!("  [{}] {:?}: {}", d.at, d.source, d.description);
        if let Some(diag) = &d.diagnosis {
            for c in &diag.root_causes {
                println!("      root cause: {}", c.description);
            }
            for c in &diag.stopped_at {
                println!("      confirmed but cause unknown: {}", c.description);
            }
            if diag.root_causes.is_empty() && diag.stopped_at.is_empty() {
                println!("      no root cause identified");
            }
        }
    }
}
