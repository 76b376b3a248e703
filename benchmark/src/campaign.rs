//! The campaign workload: the paper's §V fault-injection experiment with
//! the recovery stage on — the online path (`ingest` per line plus `poll`),
//! with no wire parse and no gateway.

use std::fmt::Write as _;
use std::time::Instant;

use pod_diagnosis::eval::{
    build_scenario, execute_run, Campaign, CampaignConfig, CampaignReport, RunRecord,
};

use crate::layers;
use crate::metrics::Report;
use crate::procfs;
use crate::rows::{cold_pass, counter_rows, coverage_row, rounds, timed, CpuShare};
use crate::stats::{percentile, ratio, Summary};
use crate::trace::{coverage, Span, Tracer};

/// `Campaign::plans` takes tens of microseconds; one set-up sample is the
/// mean of this many calls, so the clock's resolution does not show.
const PLANS_PER_SAMPLE: usize = 64;

/// A canonical rendering of what every run detected, diagnosed and
/// repaired: same seed ⇒ same bytes.
fn digest(records: &[RunRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        let _ = writeln!(
            out,
            "{:?} sources={:?} detected={} correct={} fp={} diag={:?}",
            rec.plan.fault,
            rec.detection_sources,
            rec.outcome.fault_detected,
            rec.outcome.fault_diagnosed_correctly,
            rec.outcome.false_positives,
            rec.outcome.diagnosis_times,
        );
        for recovery in &rec.recoveries {
            out.push_str(&recovery.run.digest());
            out.push('\n');
        }
    }
    out
}

fn check_report(r: &mut Report, report: &CampaignReport, runs: usize) {
    let rec = &report.recovery;
    r.check(report.records.len() == runs, || {
        format!("{} of {runs} planned runs executed", report.records.len())
    });
    r.check(rec.recovered + rec.escalated == rec.attempted, || {
        format!(
            "recovery dropped an incident: {} attempted, {} recovered, {} escalated",
            rec.attempted, rec.recovered, rec.escalated
        )
    });
    let recall = report.overall.detection_recall();
    r.check(recall >= 0.95, || {
        format!("detection recall {recall:.4} < 0.95")
    });
    // Attempts: runs and repairs. A missed fault is a quality result that
    // `detect_recall` carries, not a lost operation.
    r.attempted = (runs + rec.attempted) as u64;
    r.failed = (runs.saturating_sub(report.records.len())
        + rec.attempted.saturating_sub(rec.recovered + rec.escalated)) as u64;
}

/// The untraced run: a discarded cold campaign, then timed warm ones for
/// `seconds` (at least `min_repeats`).
pub fn run_end_to_end(config: &CampaignConfig, seconds: f64, min_repeats: usize) -> Report {
    let mut r = Report::default();
    let campaign = Campaign::new(config.clone());
    let runs = campaign.plans().len();
    let reference = campaign.run();
    check_report(&mut r, &reference, runs);
    let reference_digest = digest(&reference.records);

    let (mut setup, mut wall) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while wall.len() < min_repeats || started.elapsed().as_secs_f64() < seconds {
        let ((), s) = timed(|| {
            for _ in 0..PLANS_PER_SAMPLE {
                std::hint::black_box(campaign.plans());
            }
        });
        setup.push(s / PLANS_PER_SAMPLE as f64);
        let (report, s) = timed(|| campaign.run());
        wall.push(s);
        r.check(digest(&report.records) == reference_digest, || {
            format!("repeat {} changed the campaign digest", wall.len())
        });
    }

    let wall = Summary::of(&wall);
    eprintln!("warm campaigns, wall-seconds: {wall:?}");
    let lines = reference.obs_totals.counter("pipeline.pushed");
    r.set("setup_s", Summary::of(&setup).median);
    r.set("lines_per_s", lines as f64 / wall.median);
    r.set("runs_per_s", runs as f64 / wall.median);
    r.set(
        "peak_rss_mb",
        procfs::peak_rss_kb().unwrap_or(0) as f64 / 1024.0,
    );
    // The orchestrator hands every line straight to the engine: there is
    // no queue to shed from.
    r.set("delivered_share", 1.0);
    r.set("detect_recall", reference.overall.detection_recall());
    r
}

/// The rows read off the product's campaign report.
fn report_rows(r: &mut Report, report: &CampaignReport) {
    let rec = &report.recovery;
    r.set("detect_precision", report.overall.detection_precision());
    r.set(
        "diag_accuracy",
        report.overall.diagnosis_accuracy_over_detected(),
    );
    r.set(
        "diag_time_p50_s",
        report.timing.percentile(0.5).as_secs_f64(),
    );
    r.set(
        "diag_time_p95_s",
        report.timing.percentile(0.95).as_secs_f64(),
    );
    r.set("mttr_p50_s", rec.mttr.percentile(0.5).as_secs_f64());
    r.set("mttr_p95_s", rec.mttr.percentile(0.95).as_secs_f64());
    r.set(
        "recovered_share",
        ratio(rec.recovered as f64, rec.attempted as f64),
    );
    r.set("recovery.attempted", rec.attempted as f64);
    let p = &rec.phases;
    for (name, phase) in [
        ("recovery.phase_detection_p50_s", &p.detection),
        ("recovery.phase_diagnosis_p50_s", &p.diagnosis),
        ("recovery.phase_staging_p50_s", &p.staging),
        ("recovery.phase_repair_p50_s", &p.repair),
        ("recovery.phase_verification_p50_s", &p.verification),
    ] {
        r.set(name, phase.percentile(0.5).as_secs_f64());
    }
}

/// The traced run: product campaigns for the report rows and the timing
/// baseline, then the same plans executed one by one inside spans.
pub fn run_traced(config: &CampaignConfig, seconds: f64, smoke: bool) -> (Report, Vec<Span>) {
    let mut r = Report::default();
    let campaign = Campaign::new(config.clone());
    let plans = campaign.plans();
    let rss_before = procfs::rss_kb().unwrap_or(0);
    let (reference, cold_s) = cold_pass(&mut r, plans.len(), rss_before, || campaign.run());
    check_report(&mut r, &reference, plans.len());
    report_rows(&mut r, &reference);
    let lines = reference.obs_totals.counter("pipeline.pushed");
    counter_rows(&mut r, &reference.obs_totals, lines);
    r.set(
        "orchestrator.lines_per_tenant",
        ratio(lines as f64, plans.len() as f64),
    );
    let reference_digest = digest(&reference.records);

    let rounds = rounds(seconds, 2.5 * cold_s, smoke);
    let (mut product, mut on) = (Vec::new(), Vec::new());
    let mut best_spans: Vec<Span> = Vec::new();
    let mut span_coverage = 0.0f64;
    let cpu_share = CpuShare::start();
    for round in 0..rounds {
        let (report, s) = timed(|| campaign.run());
        product.push(s);
        r.check(digest(&report.records) == reference_digest, || {
            format!("round {round} changed the campaign digest")
        });

        let tracer = Tracer::on();
        let (records, s) = timed(|| {
            tracer.span("bench.campaign", None, || {
                let plans = tracer.span("eval.plans", None, || campaign.plans());
                plans
                    .iter()
                    .enumerate()
                    .map(|(i, plan)| tracer.span("eval.execute_run", Some(i), || execute_run(plan)))
                    .collect::<Vec<_>>()
            })
        });
        r.check(digest(&records) == reference_digest, || {
            format!("round {round}: run-by-run digest differs from Campaign::run's")
        });
        let spans = tracer.spans();
        span_coverage = span_coverage.max(coverage(&spans));
        if on.iter().all(|&best| s < best) {
            best_spans = spans;
        }
        on.push(s);
    }
    cpu_share.record(&mut r);

    let product = Summary::of(&product);
    r.set("eval.replay_median_s", product.median);
    r.set("eval.replay_iqr_s", product.iqr());
    // `Campaign::run` is the run-by-run loop plus the trace dump and the
    // summary: the difference is what reporting costs.
    let on_s = Summary::of(&on).min;
    r.set(
        "eval.report_overhead_share",
        (product.min - on_s) / product.min,
    );
    let mut run_ms: Vec<f64> = best_spans
        .iter()
        .filter(|s| s.name == "eval.execute_run")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    run_ms.sort_by(f64::total_cmp);
    r.set("eval.run_ms_p50", percentile(&run_ms, 0.5));
    r.set("eval.run_ms_p95", percentile(&run_ms, 0.95));
    coverage_row(&mut r, span_coverage);

    // core: what building each run's engine costs, against the whole run.
    let scenarios: Vec<_> = plans
        .iter()
        .take(256)
        .map(|p| (build_scenario(&p.scenario), &p.scenario))
        .collect();
    let build_us = layers::build_us(scenarios.iter().map(|(s, c)| (s, *c)));
    r.set("core.build_us_per_tenant", build_us);
    r.set(
        "core.build_share",
        ratio(build_us * plans.len() as f64 / 1e6, product.min),
    );
    layers::fixture_passes(&mut r, build_us);
    (r, best_spans)
}
