//! Closes the diagnosis loop: a fault-injection campaign where every
//! diagnosed root cause is handed to `pod-recovery`, which executes the
//! mapped repair plan against the simulated cloud, re-checks the violated
//! assertions, and conformance-checks its own log against the recovery
//! process model — then prints success/escalation rates and the MTTR
//! (detection → verified repair) distribution per fault type.
//!
//! Run with `cargo run --release --example recovery_loop`.
//! Pass a number to change runs-per-fault (e.g. `-- 5` for a quick pass).
//! Pass `--json` to also write `RUN_recovery-loop.jsonl` — one JSON-lines
//! record for the campaign plus one per fault type, carrying
//! success/escalation rates, MTTR p50/p95 and the MTTR phase breakdown.
//! Pass `--baseline <path>` to regression-gate against a committed
//! `BENCH_recovery.baseline.json`: since the campaign runs in virtual
//! time, same config + seed reproduce the committed numbers exactly, and
//! the gate (`pod-diagnosis diff --gate recovery.mttr_p50_us`) fails when
//! the fresh MTTR p50 exceeds 1.1x the committed one or is missing.

use pod_diagnosis::eval::{
    diff_report, recovery_lines, render_journal, render_report, write_journal, Campaign,
    CampaignConfig,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let baseline = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1).cloned());
    let runs_per_fault: usize = args.iter().find_map(|a| a.parse().ok()).unwrap_or(10);
    let config = CampaignConfig {
        runs_per_fault,
        seed: 2014, // the year of the paper
        recovery: true,
        ..CampaignConfig::default()
    };
    eprintln!(
        "running {} upgrades ({} per fault type) with the recovery stage on — all in virtual \
         time...",
        runs_per_fault * 8,
        runs_per_fault
    );
    let started = std::time::Instant::now();
    let report = Campaign::new(config).run();
    eprintln!("campaign finished in {:.1?} wall-clock", started.elapsed());
    println!("{}", render_report(&report));

    let rec = &report.recovery;
    println!("-- closed-loop invariant --");
    println!(
        "recovered {} + escalated {} == attempted {} (no diagnosed incident dropped: {})",
        rec.recovered,
        rec.escalated,
        rec.attempted,
        rec.recovered + rec.escalated == rec.attempted
    );

    let lines = recovery_lines("recovery-loop", rec);
    if json {
        let path = write_journal("recovery-loop", &lines).expect("write run record");
        eprintln!("wrote {} journal records to {path}", lines.len());
    }

    if let Some(path) = baseline {
        let fresh = render_journal(&lines);
        let (report, code) = diff_report(&path, &fresh, Some("recovery.mttr_p50_us"));
        print!("regression gate vs {path}:\n{report}");
        if code != 0 {
            std::process::exit(code);
        }
    }
}
