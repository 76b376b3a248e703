//! The `pod-diagnosis` command-line tool.
//!
//! ```text
//! pod-diagnosis campaign [runs-per-fault] [seed]   # the paper's evaluation
//! pod-diagnosis discover [runs]                    # mine Figure 2 from logs
//! pod-diagnosis monitor [seed] [fault#]            # one monitored upgrade
//! pod-diagnosis diff OLD NEW [--gate RECORD.FIELD] # what moved between two run records
//! pod-diagnosis help
//! ```

use pod_diagnosis::eval::{diff_report, render_report, Campaign, CampaignConfig};
use pod_diagnosis::mining::{mine_process, MiningConfig};
use pod_diagnosis::orchestrator::FaultType;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    match command {
        "campaign" => campaign(&args[1..]),
        "discover" => discover(&args[1..]),
        "monitor" => monitor(&args[1..]),
        "diff" => diff(&args[1..]),
        _ => help(),
    }
}

fn arg<T: std::str::FromStr>(args: &[String], idx: usize, default: T) -> T {
    args.get(idx)
        .and_then(|a| a.parse().ok())
        .unwrap_or(default)
}

fn help() {
    println!(
        "POD-Diagnosis — error diagnosis of sporadic operations (DSN 2014 reproduction)\n\n\
         USAGE:\n  pod-diagnosis campaign [runs-per-fault=20] [seed=2014]\n\
         \x20   run the fault-injection evaluation and print Table I, Figure 6, Figure 7\n\
         \x20 pod-diagnosis discover [runs=5]\n\
         \x20   mine the rolling-upgrade process model from generated operation logs\n\
         \x20 pod-diagnosis monitor [seed=7] [fault=1..8]\n\
         \x20   run one monitored upgrade with the given fault type injected\n\
         \x20 pod-diagnosis diff OLD NEW [--gate RECORD.FIELD]\n\
         \x20   print what moved between two run records (RUN_*.jsonl); with --gate, exit 1\n\
         \x20   when the field exceeds 1.1x its old value or is missing; exit 2 on a\n\
         \x20   malformed or unreadable journal\n\
         \x20 pod-diagnosis help"
    );
}

fn campaign(args: &[String]) {
    let config = CampaignConfig {
        runs_per_fault: arg(args, 0, 20),
        seed: arg(args, 1, 2014),
        ..CampaignConfig::default()
    };
    eprintln!(
        "running {} upgrades in virtual time...",
        config.runs_per_fault * 8
    );
    let report = Campaign::new(config).run();
    println!("{}", render_report(&report));
}

fn diff(args: &[String]) {
    let gate = args
        .iter()
        .position(|a| a == "--gate")
        .and_then(|i| args.get(i + 1));
    let mut paths = args.iter().filter(|a| *a != "--gate" && Some(*a) != gate);
    let (Some(old), Some(new)) = (paths.next(), paths.next()) else {
        eprintln!("usage: pod-diagnosis diff OLD NEW [--gate RECORD.FIELD]");
        std::process::exit(2);
    };
    let fresh = std::fs::read_to_string(new).unwrap_or_else(|e| {
        eprintln!("cannot read {new}: {e}");
        std::process::exit(2);
    });
    let (report, code) = diff_report(old, &fresh, gate.map(String::as_str));
    print!("{report}");
    std::process::exit(code);
}

fn discover(args: &[String]) {
    use pod_diagnosis::eval::{build_scenario, ScenarioConfig};
    use pod_diagnosis::orchestrator::{CollectingObserver, RollingUpgrade};
    let runs: u64 = arg(args, 0, 5);
    let mut events = Vec::new();
    for seed in 1..=runs {
        let config = ScenarioConfig {
            seed,
            cluster_size: 4 + 2 * (seed % 3) as u32,
            ..ScenarioConfig::default()
        };
        let scenario = build_scenario(&config);
        let mut upgrade = RollingUpgrade::new(
            scenario.cloud.clone(),
            scenario.upgrade.clone(),
            scenario.trace_id.clone(),
        );
        let mut obs = CollectingObserver::default();
        upgrade.run(&mut obs);
        events.extend(obs.events);
    }
    match mine_process(
        &events,
        |e| e.field("taskid").map(str::to_string),
        &MiningConfig {
            model_name: "rolling-upgrade-mined".to_string(),
            ..MiningConfig::default()
        },
    ) {
        Ok(mined) => {
            println!("{}", mined.model.to_dot());
            let fitness =
                pod_diagnosis::process::replay_fitness(&mined.model, &mined.traces).fitness();
            eprintln!(
                "mined {} activities from {} traces; fitness {fitness:.4}",
                mined.model.task_names().len(),
                mined.traces.len()
            );
        }
        Err(e) => {
            eprintln!("discovery failed: {e}");
            std::process::exit(1);
        }
    }
}

fn monitor(args: &[String]) {
    use pod_diagnosis::eval::{execute_run, CampaignConfig};
    let seed: u64 = arg(args, 0, 7);
    let fault_no: usize = arg(args, 1, 1).clamp(1, 8);
    let fault = FaultType::all()[fault_no - 1];
    let campaign = Campaign::new(CampaignConfig {
        runs_per_fault: 1,
        seed,
        interference_fraction: 0.0,
        transient_fraction: 0.0,
        reinject_fraction: 0.0,
        large_cluster_every: 0,
        ..CampaignConfig::default()
    });
    let plan = campaign
        .plans()
        .into_iter()
        .find(|p| p.fault == fault)
        .expect("every fault type has a plan");
    eprintln!("monitoring one upgrade with injected fault: {fault}");
    let record = execute_run(&plan);
    println!(
        "fault injected at {}; detected: {}; diagnosed correctly: {}",
        record.truth.injected_at,
        record.outcome.fault_detected,
        record.outcome.fault_diagnosed_correctly
    );
    println!(
        "detections: {} raw ({} diagnosed); first diagnosis {}",
        record.outcome.raw_detections,
        record.outcome.diagnosis_times.len(),
        record
            .outcome
            .diagnosis_times
            .first()
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".to_string()),
    );
}
