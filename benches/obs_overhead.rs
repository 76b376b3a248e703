//! Telemetry self-overhead: the gateway soak replayed under each
//! `TelemetryMode`, wall-clock timed.
//!
//! The observability layer is only honest if it measures itself: this
//! harness runs the same 64-tenant soak with telemetry `off` (spans and
//! events disabled — the baseline), `sampled` (everything recorded,
//! traces retained by the tail sampler) and `full` (everything retained),
//! and gates the overhead ratios. Detections must be byte-identical across
//! modes — the digest check fails the run otherwise — and in sampled mode
//! every detecting operation's trace must be kept (no incident-relevant
//! telemetry is ever sampled away).
//!
//! Phase A (stream collection) is re-run per replay so every mode starts
//! from identical virtual-clock state, but only the replay is timed.
//!
//! Usage (args pass through `cargo bench --bench obs_overhead -- ...`):
//!   --smoke   fewer tenants and rounds, for CI
//!   --json    write RUN_obs-overhead.jsonl at the workspace root
//!
//! Gates: full overhead < 10% of the off baseline, sampled overhead < 3%.
//! The gated statistic is a *trimmed geometric mean of per-round ratios*:
//! every round times the three modes back-to-back (same ambient
//! conditions, so the within-round ratio cancels machine drift), the mode
//! order rotates per round (so the position bias a replay inherits from
//! its predecessor's heap cancels across a rotation cycle), and the
//! extreme ratios are dropped (so a single preempted replay cannot swing
//! the verdict). A breach triggers one fresh measurement block before the
//! gate fails — a true regression reproduces, a contended window doesn't.

use std::time::Instant;

use pod_eval::{
    collect_streams, replay_telemetry, telemetry_line, write_journal, Record, SoakConfig,
    SoakReport,
};
use pod_gateway::GatewayConfig;
use pod_log::Json;
use pod_obs::TelemetryMode;

const FULL_MAX_OVERHEAD: f64 = 0.10;
const SAMPLED_MAX_OVERHEAD: f64 = 0.03;

/// The replay is deterministic, so timing noise (scheduler, page cache,
/// allocator state) is strictly additive: the minimum over rounds is the
/// most robust estimate of one mode's true cost — reported for reading.
fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nanoseconds this process has spent on-CPU (Linux `/proc/self/schedstat`,
/// maintained by the scheduler at nanosecond resolution). Unlike wall
/// clock, this is immune to preemption on a shared machine — essential for
/// resolving single-digit-percent overheads. `None` off Linux.
///
/// The scheduler only folds the *running* timeslice into
/// `sum_exec_runtime` when the task deschedules or on a tick, so a naive
/// read undercounts by up to one tick (1–4 ms — larger than the whole
/// effect being measured). The short sleep forces a deschedule first,
/// flushing the current slice and making the read microsecond-accurate.
fn cpu_ns() -> Option<u64> {
    std::thread::sleep(std::time::Duration::from_millis(1));
    let text = std::fs::read_to_string("/proc/self/schedstat").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Times one closure call: on-CPU seconds when available, else wall.
fn time_one<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let cpu_before = cpu_ns();
    let wall = Instant::now();
    let out = f();
    let secs = match (cpu_before, cpu_ns()) {
        (Some(a), Some(b)) => (b - a) as f64 / 1e9,
        _ => wall.elapsed().as_secs_f64(),
    };
    (out, secs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let write_json = args.iter().any(|a| a == "--json");

    // The smoke replays half the fleet: at 16 tenants a replay took ≈ 5 ms,
    // too short for the 3 % gate to tell telemetry cost from noise.
    let ops = if smoke { 32 } else { 64 };
    // A multiple of the mode count, so the order rotation below gives
    // every mode every triplet position equally often. Rounds are cheap
    // (~0.4 s each): buying more of them is how single-digit-percent
    // overheads stay resolvable on a shared, noisy machine.
    let rounds = if smoke { 18 } else { 45 };
    // A mostly-healthy fleet (1 faulty tenant in 8): that is the traffic
    // shape where tail sampling earns its budget — healthy traces are
    // discarded, incident-relevant ones are all kept.
    let soak = SoakConfig {
        ops,
        fault_every: 8,
        ..SoakConfig::default()
    };
    let gateway = GatewayConfig::default();
    let modes = [
        TelemetryMode::Off,
        TelemetryMode::Sampled,
        TelemetryMode::Full,
    ];
    println!(
        "obs_overhead: {ops} tenants, {rounds} rounds per mode{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut last: Vec<Option<SoakReport>> = vec![None, None, None];
    let mut reference_digest: Option<String> = None;
    // Untimed warm-up replays so lazily-built state (regex programs, page
    // mappings, allocator arenas) is paid before any timing.
    for _ in 0..2 {
        drop(replay_telemetry(
            &collect_streams(&soak),
            &gateway,
            TelemetryMode::Full,
        ));
    }

    // Measures one block of `rounds` rounds and returns per-mode times.
    let measure = |last: &mut Vec<Option<SoakReport>>,
                   reference_digest: &mut Option<String>|
     -> Vec<Vec<f64>> {
        let mut times: Vec<Vec<f64>> = vec![Vec::new(); modes.len()];
        for round in 0..rounds {
            // Phase A is untimed: it reconstructs identical virtual-clock
            // state for every mode; only the replays below are measured.
            // All three collections happen *before* any timing so the
            // timed triplet runs back-to-back within a few hundred
            // milliseconds — ambient drift (noisy neighbours, frequency
            // scaling) on that timescale hits every mode alike and
            // cancels in the ratio.
            //
            // The order of modes within the triplet rotates each round: a
            // replay's position in the triplet carries a measurable bias
            // (later replays inherit a warmer but more fragmented heap —
            // three *identical* workloads measure several percent apart
            // by position alone), and rotating means each mode occupies
            // each position equally often, so the bias cancels in the
            // geometric mean of per-round ratios over a rotation cycle.
            let per_mode_streams: Vec<_> = modes.iter().map(|_| collect_streams(&soak)).collect();
            // Streams are taken by *slot*, not by mode: the heap layout
            // of a stream set depends on its collection order, and tying
            // that to a fixed mode would be yet another per-mode bias.
            for (slot, streams) in per_mode_streams.iter().enumerate() {
                let m = (slot + round) % modes.len();
                let mode = modes[m];
                let (report, secs) = time_one(|| replay_telemetry(streams, &gateway, mode));
                times[m].push(secs);
                let digest = report.digest();
                match &*reference_digest {
                    None => *reference_digest = Some(digest),
                    Some(reference) => assert_eq!(
                        *reference, digest,
                        "mode {mode} round {round}: detections diverged from the baseline"
                    ),
                }
                last[m] = Some(report);
            }
        }
        times
    };

    // Per-round ratios vs the same round's off baseline, combined as a
    // trimmed geometric mean: within a round the three modes see the same
    // ambient conditions (so the ratio isolates telemetry cost from
    // machine drift), the order rotation makes the triplet-position bias
    // multiply into the ratios symmetrically (cancelling in the geometric
    // mean over each rotation cycle), and trimming the extremes keeps
    // ms-scale contention bursts that land on a single replay from
    // swinging the verdict.
    let ratio = |times: &[Vec<f64>], m: usize| -> f64 {
        let mut ratios: Vec<f64> = times[m]
            .iter()
            .zip(&times[0])
            .map(|(t, off)| t / off.max(1e-9))
            .collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let trim = (ratios.len() / 8).max(1);
        let trimmed = if ratios.len() > 2 * trim {
            &ratios[trim..ratios.len() - trim]
        } else {
            &ratios[..]
        };
        let log_sum: f64 = trimmed.iter().map(|r| r.ln()).sum();
        (log_sum / trimmed.len() as f64).exp()
    };

    // A breach must reproduce in a fresh measurement block before the
    // gate fails: a single block can land in a contended window on a
    // shared machine, and a true regression breaches both blocks anyway.
    let mut attempts = 1;
    let mut times = measure(&mut last, &mut reference_digest);
    let mut sampled_overhead = ratio(&times, 1) - 1.0;
    let mut full_overhead = ratio(&times, 2) - 1.0;
    if sampled_overhead >= SAMPLED_MAX_OVERHEAD || full_overhead >= FULL_MAX_OVERHEAD {
        println!(
            "gate breach at sampled {:+.2}% / full {:+.2}% — re-measuring to rule out a contended window",
            sampled_overhead * 100.0,
            full_overhead * 100.0
        );
        attempts = 2;
        times = measure(&mut last, &mut reference_digest);
        sampled_overhead = ratio(&times, 1) - 1.0;
        full_overhead = ratio(&times, 2) - 1.0;
    }

    // Sampled mode must keep every incident-relevant trace.
    let sampled = last[1].as_ref().unwrap();
    for op in &sampled.ops {
        if op.detections > 0 {
            let verdict = op.verdict.expect("sampled mode decides every op");
            assert!(
                verdict.keep(),
                "{}: a detecting operation's trace was discarded",
                op.trace_id
            );
        }
    }

    let bests: Vec<f64> = times.iter().map(|t| best(t)).collect();
    for (m, &mode) in modes.iter().enumerate() {
        let report = last[m].as_ref().unwrap();
        println!(
            "{:<8} best {:>8.3}s  overhead {:>+7.2}%  kept {:>3}/{} traces, {} incident chains",
            mode.to_string(),
            bests[m],
            (ratio(&times, m) - 1.0) * 100.0,
            report.kept_traces,
            report.ops.len(),
            report.incidents,
        );
    }

    if write_json {
        // Deterministic content first; every timing goes in `wall` records.
        let run = "obs-overhead";
        let mut lines = vec![Record::new("obs-overhead", run)
            .num("ops", ops as u64)
            .num("rounds", rounds as u64)
            .num("lines_total", sampled.lines_total)
            .json("digest_identical", Json::Bool(true))
            .float("full_max_overhead", FULL_MAX_OVERHEAD)
            .float("sampled_max_overhead", SAMPLED_MAX_OVERHEAD)
            .build()];
        for (m, &mode) in modes.iter().enumerate() {
            let rounds = times[m].iter().map(|&t| Json::Number(t)).collect();
            lines.push(telemetry_line(run, last[m].as_ref().unwrap()));
            lines.push(
                Record::new("wall", run)
                    .str("label", mode.to_string())
                    .float("wall_secs_best", bests[m])
                    .json("wall_secs_rounds", Json::Array(rounds))
                    .float("overhead_vs_off", ratio(&times, m) - 1.0)
                    .build(),
            );
        }
        let pass = full_overhead < FULL_MAX_OVERHEAD && sampled_overhead < SAMPLED_MAX_OVERHEAD;
        lines.push(
            Record::new("wall", run)
                .str("label", "gates")
                .num("attempts", attempts)
                .float("full_overhead", full_overhead)
                .float("sampled_overhead", sampled_overhead)
                .json("pass", Json::Bool(pass))
                .build(),
        );
        let path = write_journal(run, &lines).expect("write run record");
        println!("wrote {} journal records to {path}", lines.len());
    }

    println!(
        "overhead gate: sampled {:+.2}% (max {:.0}%), full {:+.2}% (max {:.0}%)",
        sampled_overhead * 100.0,
        SAMPLED_MAX_OVERHEAD * 100.0,
        full_overhead * 100.0,
        FULL_MAX_OVERHEAD * 100.0
    );
    if sampled_overhead >= SAMPLED_MAX_OVERHEAD || full_overhead >= FULL_MAX_OVERHEAD {
        eprintln!("OVERHEAD GATE BREACH: telemetry costs more than its budget");
        std::process::exit(1);
    }
}
