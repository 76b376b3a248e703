//! The `pod-diagnosis` command-line tool — the one front door to the
//! paper's evaluation. `help` prints [`COMMANDS`], which also says what each
//! `--json` run writes. The campaign runs in virtual time, so the same runs
//! and seed reproduce a committed record exactly and `diff --gate` against
//! it fails only on a real regression.

use pod_diagnosis::eval::{
    campaign_lines, collect_streams, diff_report, flight_json, gateway_line, healthy_log,
    incident_lines, monitor_upgrade, recovery_lines, recovery_soak_lines, render_gateway_report,
    render_report, render_soak_report, replay, replay_with_recovery, soak_lines, wall_line,
    write_journal, Campaign, CampaignConfig, SoakConfig, SoakReport,
};
use pod_diagnosis::gateway::{GatewayConfig, OverloadPolicy};
use pod_diagnosis::log::Json;
use pod_diagnosis::mining::mine_process;
use pod_diagnosis::obs::{incidents, render_dashboard, render_timelines};
use pod_diagnosis::orchestrator::FaultType;
use pod_diagnosis::process::replay_fitness;
use pod_diagnosis::recovery::StormConfig;
use pod_diagnosis::sim::SimDuration;

/// Subcommand, synopsis, description: `help` prints all of it, a bad
/// argument prints its subcommand's synopsis.
const COMMANDS: [(&str, &str, &str); 6] = [
    (
        "campaign",
        "[runs-per-fault=20] [seed=2014] [--recovery] [--json]",
        "run the fault-injection evaluation and print Table I, Figure 6, Figure 7;\n\
         \x20   --recovery hands every diagnosis to pod-recovery and prints MTTR;\n\
         \x20   --json writes RUN_campaign.jsonl + TRACE_campaign.json, or with\n\
         \x20   --recovery RUN_recovery-loop.jsonl",
    ),
    (
        "soak",
        "[ops=64] [--policy block|shed-oldest|shed-newest] [--recovery] [--json]",
        "replay that many interleaved faulty upgrades through one sharded gateway, then\n\
         \x20   overload a 4-line queue; --recovery has every tenant's repairs contend for\n\
         \x20   the admission gate and proves the transcript deterministic; --json writes\n\
         \x20   RUN_gateway-soak.jsonl, or with --recovery RUN_recovery-soak.jsonl",
    ),
    (
        "timeline",
        "[--json]",
        "run one clean faulty upgrade per fault type and print every incident's causal\n\
         \x20   chain with per-hop latency (E7); --json writes RUN_incidents.jsonl",
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
        "soak" => soak(args),
        "timeline" => timeline(args),
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

    fn value<T: std::str::FromStr>(&mut self, name: &str) -> Option<T> {
        let at = self.rest.iter().position(|a| a == name)?;
        if at + 1 == self.rest.len() {
            self.usage();
        }
        self.rest.remove(at);
        match self.rest.remove(at).parse() {
            Ok(value) => Some(value),
            Err(_) => self.usage(),
        }
    }

    /// `[--recovery] [--json]`.
    fn run_flags(&mut self) -> (bool, bool) {
        (self.flag("--recovery"), self.flag("--json"))
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

/// The tail of every subcommand that leaves a run record: with `--json`
/// write `RUN_<name>.jsonl`, which `diff --gate` checks against a committed
/// record.
fn conclude(name: &str, lines: &[Json], json: bool) {
    if json {
        let path = write_journal(name, lines).expect("write run record");
        eprintln!("wrote {} journal records to {path}", lines.len());
    }
}

fn campaign(mut args: Args) {
    let (recovery, json) = args.run_flags();
    let config = CampaignConfig {
        runs_per_fault: args.positional().unwrap_or(20),
        seed: args.positional().unwrap_or(2014), // the year of the paper
        recovery,
        ..CampaignConfig::default()
    };
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
    if let (true, false, Some(dump)) = (json, recovery, &report.last_trace) {
        std::fs::write("TRACE_campaign.json", dump.chrome_trace()).expect("write chrome trace");
        eprintln!(
            "wrote last run's trace ({} events, {} of them spans) to TRACE_campaign.json",
            dump.events.len(),
            dump.events.iter().filter(|e| e.end.is_some()).count()
        );
    }
    conclude(name, &lines, json);
}

fn soak(mut args: Args) {
    let (recovery, json) = args.run_flags();
    let base = GatewayConfig {
        overload: args.value("--policy").unwrap_or(OverloadPolicy::Block),
        ..GatewayConfig::default()
    };
    let config = SoakConfig {
        ops: args.positional().unwrap_or(64),
        ..SoakConfig::default()
    };
    args.finish();
    let (name, lines) = if recovery {
        ("recovery-soak", recovery_soak(&config, &base))
    } else {
        ("gateway-soak", gateway_soak(&config, &base))
    };
    conclude(name, &lines, json);
}

/// Prints one replay's report; a line that crossed operations is fatal.
fn print_soak(report: &SoakReport) {
    println!("{}", render_soak_report(report));
    assert!(
        report.leaks.is_empty(),
        "cross-operation leakage detected: {:?}",
        report.leaks
    );
}

/// Prints the flight recorder's live view under `title`: one sparkline per
/// metric in `rows` across the frame window, with `!` marks where incidents
/// landed.
fn print_dashboard(title: &str, report: &SoakReport, rows: &[&str]) {
    println!("-- {title} --\n{}", render_dashboard(&report.flight, rows));
}

/// Phase A runs every upgrade on its own cloud and serializes its log to
/// raw wire lines; phase B replays the merged feed through one gateway with
/// an engine per operation, then overloads a deliberately tiny queue.
/// Returns the run record.
fn gateway_soak(config: &SoakConfig, base: &GatewayConfig) -> Vec<Json> {
    eprintln!(
        "phase A: running {} faulty upgrades, each on its own cloud...",
        config.ops
    );
    let started = std::time::Instant::now();
    let streams = collect_streams(config);
    eprintln!(
        "collected {} raw lines from {} upgrades in {:.1?} wall-clock",
        streams.lines_total,
        streams.ops.len(),
        started.elapsed()
    );
    eprintln!(
        "phase B: replaying the interleaved feed through {} shards ({} policy)...",
        base.shards, base.overload
    );
    let replay_started = std::time::Instant::now();
    let report = replay(&streams, base);
    let wall_secs = replay_started.elapsed().as_secs_f64();
    print_soak(&report);
    let rows = [
        "gateway.lines.processed",
        "gateway.batches",
        "gateway.deferred",
        "gateway.queue_wait_us",
    ];
    print_dashboard("flight dashboard", &report, &rows);

    // A queue far too small for the burst pattern, shedding oldest-first:
    // every lost line is accounted for.
    let stress_config = GatewayConfig {
        queue_capacity: 4,
        batch_size: 4,
        flush_interval: SimDuration::from_secs(5),
        overload: OverloadPolicy::ShedOldest,
        ..GatewayConfig::default()
    };
    let stress = replay(&streams, &stress_config);
    println!("-- overload stress (capacity 4, shed-oldest) --");
    print!("{}", render_gateway_report(&stress.stats));
    assert_eq!(
        stress.stats.lines_processed + stress.stats.total_shed(),
        streams.lines_total,
        "every line is delivered or counted as shed"
    );

    let mut lines = soak_lines("gateway-soak", &report);
    lines.push(gateway_line("gateway-stress", &stress.stats));
    let processed = report.stats.lines_processed;
    lines.push(wall_line("gateway-soak", wall_secs, processed));
    lines
}

/// The recovery storm: the interleaved replay with every tenant's repairs
/// contending for the shared admission gate, against a lane-per-tenant
/// quiet run, then replayed from the same seed to prove byte-identical
/// transcripts under contention. Returns the run record.
fn recovery_soak(config: &SoakConfig, base: &GatewayConfig) -> Vec<Json> {
    let storm = StormConfig::default();
    eprintln!(
        "recovery storm: {} tenants through {} repair lanes (throttle beyond {} in flight)...",
        config.ops, storm.lanes, storm.throttle_at
    );
    // Repairs mutate the per-tenant clouds, so each same-seed run starts
    // from freshly collected (deterministic) streams.
    let run =
        |storm: &StormConfig| replay_with_recovery(&collect_streams(config), base, storm.clone());
    let started = std::time::Instant::now();
    let report = run(&storm);
    eprintln!(
        "soak + recovery finished in {:.1?} wall-clock",
        started.elapsed()
    );
    print_soak(&report);
    let rec = report.recovery.as_ref().expect("recovery stage ran");
    println!("-- storm invariant --");
    println!(
        "recovered {} + escalated {} == attempted {} (zero dropped: {})",
        rec.recovered,
        rec.escalated,
        rec.attempted,
        rec.none_dropped()
    );
    assert!(rec.none_dropped(), "an incident was dropped: {rec:#?}");
    assert!(rec.attempted > 0, "faulty tenants must raise incidents");
    let rows = [
        "gateway.lines.processed",
        "gateway.queue_wait_us",
        "recovery.storm.concurrent",
    ];
    print_dashboard("flight dashboard (storm)", &report, &rows);

    // Quiet baseline: a lane per tenant and no throttling — the same
    // repairs with zero contention. Same plans, same verdicts; only the
    // virtual clock moves.
    let quiet_report = run(&StormConfig {
        lanes: config.ops.max(1),
        max_lane_wait: SimDuration::from_secs(3600),
        throttle_at: config.ops,
        ..storm.clone()
    });
    let quiet = quiet_report.recovery.as_ref().expect("recovery stage ran");
    assert_eq!(
        (quiet.recovered, quiet.escalated),
        (rec.recovered, rec.escalated),
        "contention must never change outcomes, only timing"
    );
    println!("-- quiet vs storm (same seed, same repairs) --");
    println!(
        "{:<8} {:>9} {:>9} {:>12} {:>12} {:>12}",
        "mode", "throttled", "deferred", "mttr_p50_us", "mttr_p95_us", "mttr_max_us"
    );
    for (name, r) in [("quiet", quiet), ("storm", rec)] {
        println!(
            "{:<8} {:>9} {:>9} {:>12} {:>12} {:>12}",
            name,
            r.throttled,
            r.deferred_swept,
            r.mttr.percentile(0.5).as_micros(),
            r.mttr.percentile(0.95).as_micros(),
            r.mttr.max().as_micros()
        );
    }
    println!();

    eprintln!("replaying the same seed again to prove transcript determinism...");
    let again = run(&storm);
    assert_eq!(
        report.digest(),
        again.digest(),
        "same seed + same interleaving must give a byte-identical report digest"
    );
    let transcript = rec.transcript();
    assert_eq!(
        Some(&transcript),
        again.recovery.map(|r| r.transcript()).as_ref(),
        "recovery transcripts must be byte-identical under contention"
    );
    println!(
        "determinism: two same-seed storms produced byte-identical transcripts ({} bytes)",
        transcript.len()
    );

    let mut lines = recovery_soak_lines("recovery-soak", rec);
    lines.push(flight_json("recovery-soak", &report.flight));
    lines
}

/// Experiment E7: per detected error, the ordered causal chain from the
/// triggering log line through detection, dispatch and fault-tree tests to
/// the reported root cause, with per-hop virtual-clock latency.
fn timeline(mut args: Args) {
    let json = args.flag("--json");
    args.finish();
    let mut journal: Vec<Json> = Vec::new();
    let (mut total, mut anchored, mut complete) = (0, 0, 0);
    // Seed 1119: the date in the paper's sample log.
    for plan in Campaign::new(CampaignConfig::clean(1119)).plans() {
        let run = monitor_upgrade(&plan);
        let dump = run.trace();
        println!("== fault: {} (trace {}) ==", plan.fault, dump.trace_id);
        print!("{}", render_timelines(&dump.events));
        println!();
        let chains = incidents(&dump.events);
        total += chains.len();
        anchored += chains.iter().filter(|c| c.anchored).count();
        complete += chains.iter().filter(|c| c.complete()).count();
        journal.extend(incident_lines(&dump.trace_id, &chains));
        if run.record.events_dropped > 0 {
            println!(
                "WARNING: {} causal event(s) dropped in this run; chains may be cut",
                run.record.events_dropped
            );
        }
    }
    println!(
        "== summary: {total} incident chains, {anchored} anchored at a log line, {complete} \
         carried through to a diagnosis verdict (the rest had their diagnosis suppressed by \
         the per-key cooldown) =="
    );
    conclude("incidents", &journal, json);
}

fn diff(mut args: Args) {
    let gate = args.value::<String>("--gate");
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
    let mined = mine_process(
        &events,
        |e| e.field("taskid").map(str::to_string),
        "rolling-upgrade-mined",
    )
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
    let fault_no: usize = args.positional().unwrap_or(1);
    let Some(fault) = FaultType::all().into_iter().nth(fault_no.wrapping_sub(1)) else {
        args.usage()
    };
    args.finish();
    let plans = Campaign::new(CampaignConfig::clean(seed)).plans();
    let plan = plans.iter().find(|p| p.fault == fault);
    let plan = plan.expect("every fault type has a plan");
    eprintln!("monitoring one upgrade with injected fault: {fault}");
    let record = monitor_upgrade(plan).record;
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
