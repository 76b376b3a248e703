//! The gateway soak: ≥64 interleaved faulty upgrades through `pod-gateway`.
//!
//! Phase A runs every upgrade on its own simulated cloud (one injected
//! fault per operation, shared-account interference on every 4th, plaintext
//! application noise) and serializes the logs to raw wire lines. Phase B
//! merges all streams by arrival time and replays them through one sharded
//! gateway with a fresh POD engine per operation — then sweeps the batch
//! size and demonstrates overload shedding with a deliberately tiny queue.
//!
//! Run with `cargo run --release --example gateway_soak`.
//! Pass a number to change the operation count (e.g. `-- 16`).
//! Pass `--policy shed-oldest|shed-newest|block` for the main replay.
//! Pass `--recovery` to wire the recovery stage in: every tenant engine's
//! detections feed one shared `RecoveryStorm` whose repairs contend for
//! the gateway's admission gate (bounded lanes, shared-API throttling,
//! shed-to-sweep fallback). The run asserts zero dropped incidents and
//! replays a second same-seed soak to prove byte-identical transcripts
//! under maximal contention; `--json` then writes
//! `RUN_recovery-soak.jsonl` (the recovery-storm / recovery-tenant records
//! plus the flight recorder's black box), and `--baseline <path>` gates
//! the storm-mode MTTR p50 at 1.1x a committed baseline
//! (`pod-diagnosis diff --gate recovery-storm.mttr_p50_us`).
//! Pass `--json` (without `--recovery`) to also write
//! `RUN_gateway-soak.jsonl`, the run record: the soak headline, the
//! gateway statistics (per-shard p50/p95/p99 queue waits) of the main and
//! stress replays, the batch-size sweep, the replay latency budget, the
//! telemetry outcome, the gateway's pod-obs snapshot with its tail
//! exemplars, the flight recorder's black box (every periodic frame with
//! counters/gauges/quantiles plus incident marks) and one `wall` record
//! with the wall-clock lines/sec.

use pod_diagnosis::eval::{
    collect_streams, diff_report, flight_json, gateway_line, recovery_soak_lines,
    render_gateway_report, render_journal, render_soak_report, replay, replay_with_recovery,
    soak_lines, sweep_batches, wall_line, write_journal, SoakConfig,
};
use pod_diagnosis::gateway::{GatewayConfig, OverloadPolicy};
use pod_diagnosis::obs::render_dashboard;
use pod_diagnosis::recovery::StormConfig;
use pod_diagnosis::sim::SimDuration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let recovery = args.iter().any(|a| a == "--recovery");
    let baseline = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1).cloned());
    let ops: usize = args.iter().find_map(|a| a.parse().ok()).unwrap_or(64);
    let policy: OverloadPolicy = args
        .iter()
        .position(|a| a == "--policy")
        .and_then(|i| args.get(i + 1))
        .map(|p| p.parse().expect("valid overload policy"))
        .unwrap_or(OverloadPolicy::Block);

    let config = SoakConfig {
        ops,
        seed: 2014,
        ..SoakConfig::default()
    };
    if recovery {
        return recovery_soak(&config, policy, json, baseline);
    }
    eprintln!("phase A: running {ops} faulty upgrades, each on its own cloud...");
    let started = std::time::Instant::now();
    let streams = collect_streams(&config);
    eprintln!(
        "collected {} raw lines from {} upgrades in {:.1?} wall-clock",
        streams.lines_total,
        streams.ops.len(),
        started.elapsed()
    );

    let base = GatewayConfig {
        overload: policy,
        ..GatewayConfig::default()
    };
    eprintln!(
        "phase B: replaying the interleaved feed through {} shards ({} policy)...",
        base.shards, base.overload
    );
    let replay_started = std::time::Instant::now();
    let report = replay(&streams, &base);
    let wall_secs = replay_started.elapsed().as_secs_f64();
    println!("{}", render_soak_report(&report));
    assert!(
        report.leaks.is_empty(),
        "cross-operation leakage detected: {:?}",
        report.leaks
    );

    // The flight recorder's live view: one sparkline per key metric across
    // the frame window, with `!` marks where incidents landed.
    if let Some(flight) = &report.flight {
        println!("-- flight dashboard --");
        println!(
            "{}",
            render_dashboard(
                flight,
                &[
                    "gateway.lines.processed",
                    "gateway.batches",
                    "gateway.deferred",
                    "gateway.queue_wait_us",
                ],
            )
        );
    }

    eprintln!("batch-size sweep...");
    let sweep = sweep_batches(&streams, &base, &[1, 4, 16, 64]);
    println!("-- batch-size sweep (same feed, same policy) --");
    for (batch, stats) in &sweep {
        println!(
            "batch {batch:>3}: {:>9.0} lines/s virtual, {:>6} batches, {:>6} deferred, {:>5} blocked",
            stats.lines_per_sec_virtual(),
            stats.batches,
            stats.deferred,
            stats.blocked
        );
    }
    println!();

    // Overload demonstration: a queue far too small for the burst pattern,
    // shedding oldest-first. Every lost line is accounted for.
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

    if json {
        let mut lines = soak_lines("gateway-soak", &report, &sweep);
        lines.push(gateway_line("gateway-stress", &stress.stats));
        lines.push(wall_line(
            "gateway-soak",
            wall_secs,
            report.stats.lines_processed,
        ));
        let path = write_journal("gateway-soak", &lines).expect("write run record");
        eprintln!(
            "wrote {} journal records ({} ops, {} lines) to {path}",
            lines.len(),
            report.ops.len(),
            report.lines_total
        );
    }
}

/// The recovery storm soak: the interleaved replay with every tenant's
/// repairs contending for the shared admission gate, run twice from the
/// same seed to prove byte-identical transcripts under contention.
fn recovery_soak(
    config: &SoakConfig,
    policy: OverloadPolicy,
    json: bool,
    baseline: Option<String>,
) {
    let base = GatewayConfig {
        overload: policy,
        ..GatewayConfig::default()
    };
    let storm = StormConfig::default();
    eprintln!(
        "recovery storm: {} tenants through {} repair lanes (throttle beyond {} in flight)...",
        config.ops, storm.lanes, storm.throttle_at
    );
    // Repairs mutate the per-tenant clouds, so each same-seed run starts
    // from freshly collected (deterministic) streams.
    let run = || {
        let streams = collect_streams(config);
        replay_with_recovery(&streams, &base, storm.clone())
    };
    let started = std::time::Instant::now();
    let report = run();
    eprintln!(
        "soak + recovery finished in {:.1?} wall-clock",
        started.elapsed()
    );
    println!("{}", render_soak_report(&report));
    assert!(
        report.leaks.is_empty(),
        "cross-operation leakage detected: {:?}",
        report.leaks
    );
    let rec = report.recovery.as_ref().expect("recovery stage ran");
    println!("-- storm invariant --");
    println!(
        "recovered {} + escalated {} == attempted {} (direct {} + {} plus {} deferred-then-swept; \
         zero dropped: {})",
        rec.recovered,
        rec.escalated,
        rec.attempted,
        rec.recovered_direct,
        rec.escalated_direct,
        rec.deferred_swept,
        rec.none_dropped()
    );
    assert!(rec.none_dropped(), "an incident was dropped: {rec:#?}");
    assert!(rec.attempted > 0, "faulty tenants must raise incidents");

    // The flight dashboard during a storm: the shed/admission/queue rows
    // (recovery.storm.* counters and gauges) light up next to incidents.
    if let Some(flight) = &report.flight {
        println!("-- flight dashboard (storm) --");
        println!(
            "{}",
            render_dashboard(
                flight,
                &[
                    "gateway.lines.processed",
                    "gateway.queue_wait_us",
                    "recovery.storm.concurrent",
                ],
            )
        );
    }

    // Quiet baseline: same seed, same tenants, but a lane per tenant and
    // no throttling — the same repairs with zero contention. Same plans,
    // same verdicts; only the virtual clock moves.
    let quiet_cfg = StormConfig {
        lanes: config.ops.max(1),
        max_lane_wait: SimDuration::from_secs(3600),
        throttle_at: config.ops,
        ..storm.clone()
    };
    let quiet_report = replay_with_recovery(&collect_streams(config), &base, quiet_cfg);
    let quiet = quiet_report.recovery.as_ref().unwrap();
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
    let again = run();
    assert_eq!(
        report.digest(),
        again.digest(),
        "same seed + same interleaving must give a byte-identical report digest"
    );
    assert_eq!(
        rec.transcript(),
        again.recovery.as_ref().unwrap().transcript(),
        "recovery transcripts must be byte-identical under contention"
    );
    println!(
        "determinism: two same-seed storms produced byte-identical transcripts ({} bytes)",
        rec.transcript().len()
    );

    let mut lines = recovery_soak_lines("recovery-soak", rec);
    lines.extend(
        report
            .flight
            .iter()
            .map(|f| flight_json("recovery-soak", f)),
    );
    if json {
        let path = write_journal("recovery-soak", &lines).expect("write run record");
        eprintln!("wrote {} journal records to {path}", lines.len());
    }

    if let Some(path) = baseline {
        let fresh = render_journal(&lines);
        let (report, code) = diff_report(&path, &fresh, Some("recovery-storm.mttr_p50_us"));
        print!("regression gate vs {path}:\n{report}");
        if code != 0 {
            std::process::exit(code);
        }
    }
}
