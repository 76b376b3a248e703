//! The `pod-diagnosis` command-line tool — the one front door to the
//! paper's evaluation. `help` prints [`COMMANDS`], which also says what each
//! `--json` run writes. The campaign runs in virtual time, so the same runs
//! and seed reproduce a committed record exactly and the `--baseline` gate
//! fails only on a real regression.

use pod_diagnosis::eval::{
    campaign_lines, diff_report, execute_run, healthy_log, recovery_lines, render_journal,
    render_report, write_journal, Campaign, CampaignConfig,
};
use pod_diagnosis::mining::{mine_process, MiningConfig};
use pod_diagnosis::obs::{chrome_trace, otlp_json};
use pod_diagnosis::orchestrator::FaultType;
use pod_diagnosis::process::replay_fitness;

/// Subcommand, synopsis, description: `help` prints all of it, a bad
/// argument prints its subcommand's synopsis.
const COMMANDS: [(&str, &str, &str); 4] = [
    (
        "campaign",
        "[runs-per-fault=20] [seed=2014] [--recovery] [--json] [--baseline PATH]",
        "run the fault-injection evaluation and print Table I, Figure 6, Figure 7;\n\
         \x20   --recovery hands every diagnosis to pod-recovery and prints MTTR;\n\
         \x20   --json writes RUN_campaign.jsonl + TRACE_campaign{,_otlp}.json, or with\n\
         \x20   --recovery RUN_recovery-loop.jsonl; --baseline (with --recovery) exits 1\n\
         \x20   when MTTR p50 exceeds 1.1x the committed record's",
    ),
    (
        "discover",
        "[runs=5]",
        "mine the rolling-upgrade process model from generated operation logs and\n\
         \x20   replay the training traces and a held-out 12-instance upgrade on it",
    ),
    (
        "monitor",
        "[seed=7] [fault=1..8]",
        "run one monitored upgrade with the given fault type injected",
    ),
    (
        "diff",
        "OLD NEW [--gate RECORD.FIELD]",
        "print what moved between two run records (RUN_*.jsonl); with --gate, exit 1\n\
         \x20   when the field exceeds 1.1x its old value or is missing; exit 2 on a\n\
         \x20   malformed or unreadable journal",
    ),
];

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args {
        rest: argv.collect(),
        command,
    };
    match args.command.as_str() {
        "campaign" => campaign(args),
        "discover" => discover(args),
        "monitor" => monitor(args),
        "diff" => diff(args),
        _ => help(),
    }
}

fn help() {
    println!(
        "POD-Diagnosis — error diagnosis of sporadic operations (DSN 2014 reproduction)\n\nUSAGE:"
    );
    for (command, synopsis, description) in COMMANDS {
        println!("  pod-diagnosis {command} {synopsis}\n    {description}");
    }
    println!("  pod-diagnosis help");
}

/// A subcommand's arguments. Each accessor removes what it recognises, so
/// whatever `finish` still finds — an unknown `--flag`, a surplus
/// positional — is a usage error like an unparsable one, never ignored.
struct Args {
    command: String,
    rest: Vec<String>,
}

impl Args {
    /// Prints the subcommand's synopsis to stderr and exits 2.
    fn usage(&self) -> ! {
        let synopsis = COMMANDS.iter().find(|c| c.0 == self.command);
        let synopsis = synopsis.expect("only listed subcommands are dispatched").1;
        eprintln!("usage: pod-diagnosis {} {synopsis}", self.command);
        std::process::exit(2)
    }

    fn flag(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    fn value(&mut self, name: &str) -> Option<String> {
        let at = self.rest.iter().position(|a| a == name)?;
        if at + 1 == self.rest.len() {
            self.usage();
        }
        self.rest.remove(at);
        Some(self.rest.remove(at))
    }

    fn positional<T: std::str::FromStr>(&mut self) -> Option<T> {
        if self.rest.is_empty() {
            return None;
        }
        let arg = self.rest.remove(0);
        match arg.parse() {
            Ok(value) if !arg.starts_with("--") => Some(value),
            _ => self.usage(),
        }
    }

    fn finish(self) {
        if !self.rest.is_empty() {
            self.usage();
        }
    }
}

fn campaign(mut args: Args) {
    let recovery = args.flag("--recovery");
    let json = args.flag("--json");
    let baseline = args.value("--baseline");
    let config = CampaignConfig {
        runs_per_fault: args.positional().unwrap_or(20),
        seed: args.positional().unwrap_or(2014), // the year of the paper
        recovery,
        ..CampaignConfig::default()
    };
    if baseline.is_some() && !recovery {
        args.usage(); // the gated field is the recovery stage's MTTR
    }
    args.finish();
    eprintln!(
        "running {} upgrades ({} per fault type{}) — all in virtual time...",
        config.runs_per_fault * 8,
        config.runs_per_fault,
        if recovery { ", recovery stage on" } else { "" }
    );
    let started = std::time::Instant::now();
    let report = Campaign::new(config).run();
    eprintln!("campaign finished in {:.1?} wall-clock", started.elapsed());
    println!("{}", render_report(&report));

    let (name, lines) = if recovery {
        let rec = &report.recovery;
        println!("-- closed-loop invariant --");
        println!(
            "recovered {} + escalated {} == attempted {} (no diagnosed incident dropped: {})",
            rec.recovered,
            rec.escalated,
            rec.attempted,
            rec.recovered + rec.escalated == rec.attempted
        );
        ("recovery-loop", recovery_lines("recovery-loop", rec))
    } else {
        let mut counts = std::collections::BTreeMap::new();
        for source in report.records.iter().flat_map(|r| &r.detection_sources) {
            *counts.entry(format!("{source:?}")).or_insert(0usize) += 1;
        }
        println!("-- raw detection sources --");
        for (source, count) in counts {
            println!("{source:<28} {count}");
        }
        println!("-- paper targets --");
        println!("precision 91.95%, recall 100%, accuracy (of detected) 96.55%, AR 97.13%");
        println!("diagnosis time: min 1.29s, mean 2.30s, p95 <= 3.83s, max 10.44s");
        println!("conformance: 20 of 80 resource-fault runs flagged before assertions");
        ("campaign", campaign_lines("campaign", &report))
    };
    if json {
        let path = write_journal(name, &lines).expect("write run record");
        eprintln!("wrote {} journal records to {path}", lines.len());
    }
    if let (true, false, Some(dump)) = (json, recovery, &report.last_trace) {
        let chrome = chrome_trace(&dump.trace_id, &dump.spans, &dump.events);
        std::fs::write("TRACE_campaign.json", chrome).expect("write chrome trace");
        let otlp = otlp_json(&dump.trace_id, &dump.spans, &dump.events);
        std::fs::write("TRACE_campaign_otlp.json", otlp).expect("write otlp trace");
        eprintln!(
            "wrote last run's trace ({} spans, {} events) to TRACE_campaign{{,_otlp}}.json",
            dump.spans.len(),
            dump.events.len()
        );
    }
    if let Some(path) = baseline {
        let fresh = render_journal(&lines);
        let (report, code) = diff_report(&path, &fresh, Some("recovery.mttr_p50_us"));
        print!("regression gate vs {path}:\n{report}");
        std::process::exit(code);
    }
}

fn diff(mut args: Args) {
    let gate = args.value("--gate");
    let (Some(old), Some(new)) = (args.positional::<String>(), args.positional::<String>()) else {
        args.usage()
    };
    args.finish();
    let fresh = std::fs::read_to_string(&new).unwrap_or_else(|e| {
        eprintln!("cannot read {new}: {e}");
        std::process::exit(2);
    });
    let (report, code) = diff_report(&old, &fresh, gate.as_deref());
    print!("{report}");
    std::process::exit(code);
}

fn discover(mut args: Args) {
    let runs: u64 = args.positional().unwrap_or(5);
    args.finish();
    let events: Vec<_> = (1..=runs)
        .flat_map(|seed| healthy_log(seed, 4 + 2 * (seed % 3) as u32))
        .collect();
    let config = MiningConfig {
        model_name: "rolling-upgrade-mined".to_string(),
        ..MiningConfig::default()
    };
    let mined = mine_process(&events, |e| e.field("taskid").map(str::to_string), &config)
        .unwrap_or_else(|e| {
            eprintln!("discovery failed: {e}");
            std::process::exit(1);
        });
    println!("{}", mined.model.to_dot());
    eprintln!(
        "mined {} activities from {} traces; fitness {:.4}",
        mined.model.task_names().len(),
        mined.traces.len(),
        replay_fitness(&mined.model, &mined.traces).fitness()
    );
    let held_out: Vec<String> = healthy_log(99, 12)
        .iter()
        .filter_map(|e| mined.rules.match_line(&e.message).map(|m| m.activity))
        .collect();
    eprintln!(
        "fitness on a held-out 12-instance upgrade: {:.4}",
        replay_fitness(&mined.model, &[held_out]).fitness()
    );
}

fn monitor(mut args: Args) {
    let seed: u64 = args.positional().unwrap_or(7);
    let fault_no: usize = args.positional().unwrap_or(1).clamp(1, 8);
    args.finish();
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
