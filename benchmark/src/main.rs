//! The POD-Diagnosis benchmark: one command, five workloads, every metric
//! by name. See `benchmark/README.md`.
//!
//! ```text
//! pod-benchmark [--seed N] [--workload NAME] [--seconds S] [--smoke] [--check-repeat]
//! pod-benchmark --workload NAME --trace 0|1 [--seed N] [--seconds S] [--smoke]
//! pod-benchmark --manifest
//! ```
//!
//! The first form runs every workload (or the named one), each run in a
//! child process of its own: once untraced for the end-to-end metrics and
//! once traced for the per-layer metrics. The second form is one such
//! run, in this process; its last line of output is the result object.

mod campaign;
mod layers;
mod metrics;
mod procfs;
mod rows;
mod soak;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use pod_diagnosis::log::Json;

use metrics::{MetricDef, Report, END_TO_END, PER_LAYER};
use workloads::{Plan, WORKLOADS};

/// How long one run measures by default, and the `run_seconds` of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;
/// The default `--seed`.
const DEFAULT_SEED: u64 = 2014;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    check_repeat: bool,
    manifest: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        check_repeat: false,
        manifest: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload {name:?}; one of {known:?}"));
                }
                out.workload = Some(name.to_string());
            }
            "--seed" => {
                out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds: not a non-negative number")?;
            }
            "--trace" => {
                out.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
                });
            }
            "--smoke" => out.smoke = true,
            "--check-repeat" => out.check_repeat = true,
            "--manifest" => out.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.trace.is_some() && out.workload.is_none() {
        return Err("--trace needs --workload".to_string());
    }
    Ok(out)
}

/// Writes the spans to `out/trace-<workload>.json` beside the benchmark's
/// manifest (where this binary was built from).
fn write_spans(workload: &str, spans: &[trace::Span]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, trace::to_json(spans).to_string())?;
    Ok(path)
}

/// The fastest traced pass by span name, largest self time first (stderr:
/// the ranking the README's "observed top layer" rows are read from).
fn print_self_times(workload: &str, spans: &[trace::Span]) {
    let mut rows: Vec<_> = trace::totals_by_name(spans).into_iter().collect();
    let all: u64 = rows.iter().map(|(_, t)| t.self_ns).sum();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in rows {
        eprintln!(
            "{workload}: {name:<20} {:>7} spans  self {:>9.3} ms  {:>5.1} %",
            t.count,
            t.self_ns as f64 / 1e6,
            100.0 * stats::ratio(t.self_ns as f64, all as f64)
        );
    }
}

/// One workload, one mode, in this process.
fn run_one(workload: &str, args: &Args, traced: bool) -> ExitCode {
    let plan = workloads::plan(workload, args.seed, args.smoke).expect("validated by parse_args");
    // The smoke run exercises the harness, not the machine: one repeat.
    let (seconds, min_repeats) = if args.smoke {
        (0.0, 1)
    } else {
        (args.seconds, 3)
    };
    let (mut report, defs): (Report, &[MetricDef]) = if traced {
        let (mut report, spans) = match &plan {
            Plan::Soak(p) => soak::run_traced(p, seconds, args.smoke),
            Plan::Campaign(c) => campaign::run_traced(c, seconds, args.smoke),
        };
        match write_spans(workload, &spans) {
            Ok(path) => eprintln!("{workload}: {} spans in {}", spans.len(), path.display()),
            Err(e) => report.failures.push(format!("writing the span file: {e}")),
        }
        print_self_times(workload, &spans);
        (report, PER_LAYER)
    } else {
        let report = match &plan {
            Plan::Soak(p) => soak::run_end_to_end(p, seconds, min_repeats),
            Plan::Campaign(c) => campaign::run_end_to_end(c, seconds, min_repeats),
        };
        (report, END_TO_END)
    };
    report.check(report.attempted >= 1, || {
        "nothing was attempted".to_string()
    });
    let result = report.result_json(defs);
    report.print_lines(workload, defs);
    println!("{result}");
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metric values of one child run, by name; `None` when the child
/// failed (it has already said why).
fn run_child(workload: &str, args: &Args, traced: bool) -> Option<BTreeMap<String, f64>> {
    let exe = std::env::current_exe().expect("the benchmark's own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().expect("the child starts");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (lines, result) = match stdout.trim_end().rsplit_once('\n') {
        Some((lines, result)) => (lines, result),
        None => ("", stdout.trim_end()),
    };
    println!("{lines}");
    let parsed = Json::parse(result).ok();
    let correct = parsed
        .as_ref()
        .and_then(|doc| doc.get("correct"))
        .and_then(Json::as_bool)
        .unwrap_or(false);
    if !output.status.success() || !correct {
        println!("{workload} FAILED ({}): {result}", output.status);
        return None;
    }
    let Some(Json::Object(metrics)) = parsed.as_ref().and_then(|doc| doc.get("metrics")) else {
        return None;
    };
    Some(
        metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    )
}

/// One pass over the workload list: every (workload, metric) value, or
/// `None` when any run failed.
fn run_pass(workloads: &[&str], args: &Args) -> Option<BTreeMap<(String, String), f64>> {
    let mut values = BTreeMap::new();
    let mut ok = true;
    for workload in workloads {
        for traced in [false, true] {
            match run_child(workload, args, traced) {
                Some(metrics) => values.extend(
                    metrics
                        .into_iter()
                        .map(|(name, v)| ((workload.to_string(), name), v)),
                ),
                None => ok = false,
            }
        }
    }
    ok.then_some(values)
}

/// Why `(first, second)` of `def` disagree, if they do: exact metrics must
/// repeat bit for bit, end-to-end wall-clock metrics within their bound.
fn disagreement(def: &MetricDef, first: f64, second: f64) -> Option<String> {
    if def.exact {
        return (first.to_bits() != second.to_bits())
            .then(|| format!("{first} then {second}: an exact metric must repeat bit for bit"));
    }
    let bound = def.bound?;
    let apart = (second - first).abs() / first.abs();
    (apart > bound).then(|| format!("{first} then {second}: {apart:.3} apart, bound {bound}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pod-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    if let (Some(workload), Some(traced)) = (&args.workload, args.trace) {
        return run_one(workload, &args, traced);
    }

    let workloads: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.iter().map(|w| w.name).collect(),
    };
    let Some(first) = run_pass(&workloads, &args) else {
        return ExitCode::FAILURE;
    };
    if !args.check_repeat {
        return ExitCode::SUCCESS;
    }
    let Some(second) = run_pass(&workloads, &args) else {
        return ExitCode::FAILURE;
    };
    let mut misses = 0;
    for ((workload, name), a) in &first {
        let def = metrics::lookup(name).expect("children print table metrics only");
        let b = second[&(workload.clone(), name.clone())];
        if let Some(why) = disagreement(def, *a, b) {
            println!("{workload} {name} REPEAT MISS: {why}");
            misses += 1;
        }
    }
    println!(
        "check-repeat: {} values compared, {misses} misses",
        first.len()
    );
    if misses == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "noisy-wire",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("noisy-wire"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, Some(true)));
        let a = args(&[]).unwrap();
        assert_eq!((a.seed, a.trace, a.smoke), (DEFAULT_SEED, None, false));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "1"],
            &["--workload", "campaign", "--trace", "2"],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--frobnicate"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn repeat_check_holds_exact_metrics_to_the_bit_and_wall_clock_to_the_bound() {
        let lines = metrics::lookup("lines_per_s").unwrap();
        let bound = 100.0 * lines.bound.unwrap();
        assert!(disagreement(lines, 100.0, 99.0 + bound).is_none());
        assert!(disagreement(lines, 100.0, 101.0 + bound).is_some());
        assert!(disagreement(lines, 100.0, 99.0 - bound).is_some());
        let recall = metrics::lookup("detect_recall").unwrap();
        assert!(disagreement(recall, 0.984375, 0.984375).is_none());
        assert!(disagreement(recall, 0.984375, 0.984376).is_some());
        // Per-layer wall-clock rows have no bound: they are not compared.
        let parse = metrics::lookup("log.parse_share").unwrap();
        assert!(disagreement(parse, 0.1, 0.9).is_none());
    }
}
