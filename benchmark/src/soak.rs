//! The four soak workloads: a generated multi-tenant feed replayed through
//! the gateway. The untraced run times the product's own replay; the traced
//! run replays the same feed through [`drive`] — `replay_inner`'s steps
//! written against the public API — with a span around every call into a
//! layer.

use std::time::Instant;

use pod_diagnosis::core::{PodEngine, RunSummary};
use pod_diagnosis::eval::{
    build_engine, collect_streams, replay_telemetry, replay_with_recovery, MetricSet, SoakReport,
    SoakStreams,
};
use pod_diagnosis::gateway::{DiagnosisSink, Gateway};
use pod_diagnosis::log::LogEvent;
use pod_diagnosis::obs::Snapshot;

use crate::layers;
use crate::metrics::Report;
use crate::procfs;
use crate::rows::{cold_pass, counter_rows, coverage_row, rounds, timed, CpuShare};
use crate::stats::{ratio, Summary};
use crate::trace::{coverage, totals_by_name, Span, Tracer};
use crate::workloads::SoakPlan;

/// The product's replay, through the workload's entry point.
fn product_replay(plan: &SoakPlan, streams: &SoakStreams) -> SoakReport {
    match &plan.storm {
        Some(storm) => replay_with_recovery(streams, &plan.gateway, storm.clone()),
        None => replay_telemetry(streams, &plan.gateway, plan.mode),
    }
}

/// The output checks every product replay must pass.
fn check_report(r: &mut Report, report: &SoakReport) {
    let s = &report.stats;
    r.check(report.leaks.is_empty(), || {
        format!("cross-tenant leaks: {:?}", report.leaks)
    });
    r.check(
        s.lines_processed + s.total_shed() == s.lines_submitted,
        || {
            format!(
                "{} processed + {} shed != {} submitted",
                s.lines_processed,
                s.total_shed(),
                s.lines_submitted
            )
        },
    );
    r.check(s.admission_denied == 0, || {
        format!("{} registrations denied", s.admission_denied)
    });
    if let Some(rec) = &report.recovery {
        r.check(rec.none_dropped(), || {
            format!(
                "recovery dropped an incident: {} attempted, {} recovered, {} escalated",
                rec.attempted, rec.recovered, rec.escalated
            )
        });
    }
}

/// Attempts and losses: wire lines neither delivered nor counted as shed,
/// plus repairs that ended neither recovered nor escalated. A shed line is
/// the overload policy at work, not a lost operation — `delivered_share`
/// carries its cost.
fn ledger(r: &mut Report, report: &SoakReport) {
    let s = &report.stats;
    r.attempted = s.lines_submitted;
    r.failed = s
        .lines_submitted
        .saturating_sub(s.lines_processed + s.total_shed());
    if let Some(rec) = &report.recovery {
        r.attempted += rec.attempted as u64;
        r.failed += rec.attempted.saturating_sub(rec.recovered + rec.escalated) as u64;
    }
}

/// Faulty tenants with at least one detection ÷ faulty tenants, by the
/// product's own formula (1 when no tenant is faulty: none was missed).
fn detect_recall(report: &SoakReport) -> f64 {
    let mut set = MetricSet::default();
    for op in report.ops.iter().filter(|op| op.fault.is_some()) {
        if op.detections > 0 {
            set.faults_detected += 1;
        } else {
            set.faults_missed += 1;
        }
    }
    set.detection_recall()
}

/// The untraced run: a discarded cold replay, then timed warm replays for
/// `seconds` (at least `min_repeats`), each on a freshly generated feed —
/// a replay advances the tenants' clocks and recovery mutates their clouds.
pub fn run_end_to_end(plan: &SoakPlan, seconds: f64, min_repeats: usize) -> Report {
    let mut r = Report::default();
    let reference = product_replay(plan, &collect_streams(&plan.config));
    check_report(&mut r, &reference);
    let digest = reference.digest();

    let (mut setup, mut replay) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while replay.len() < min_repeats || started.elapsed().as_secs_f64() < seconds {
        let (streams, s) = timed(|| collect_streams(&plan.config));
        setup.push(s);
        let (report, s) = timed(|| product_replay(plan, &streams));
        replay.push(s);
        r.check(report.digest() == digest, || {
            format!("repeat {} changed the report digest", replay.len())
        });
    }

    let replay = Summary::of(&replay);
    eprintln!("warm replays, wall-seconds: {replay:?}");
    let stats = &reference.stats;
    r.set("setup_s", Summary::of(&setup).median);
    r.set("lines_per_s", stats.lines_submitted as f64 / replay.median);
    r.set("runs_per_s", reference.ops.len() as f64 / replay.median);
    r.set(
        "peak_rss_mb",
        procfs::peak_rss_kb().unwrap_or(0) as f64 / 1024.0,
    );
    r.set(
        "delivered_share",
        ratio(stats.lines_processed as f64, stats.lines_submitted as f64),
    );
    r.set("detect_recall", detect_recall(&reference));
    ledger(&mut r, &reference);
    r
}

/// A `PodEngine` whose two gateway-facing calls are spans.
#[derive(Debug)]
struct TimedSink {
    engine: PodEngine,
    tracer: Tracer,
    tenant: usize,
}

impl DiagnosisSink for TimedSink {
    fn ingest_batch(&mut self, events: Vec<LogEvent>) {
        let engine = &mut self.engine;
        self.tracer
            .span("core.ingest_batch", Some(self.tenant), || {
                engine.ingest_batch(events)
            });
    }

    fn finish(&mut self) -> RunSummary {
        let engine = &mut self.engine;
        self.tracer
            .span("core.finish", Some(self.tenant), || engine.finish())
    }

    fn detections(&self) -> usize {
        self.engine.detections().len()
    }
}

/// What one pass of [`drive`] produced.
#[derive(Debug)]
pub struct Driven {
    /// Every tenant's `RunSummary::digest()`, in stream order.
    pub digests: Vec<String>,
    /// Wall-seconds of the whole pass.
    pub wall_s: f64,
}

/// The benchmark's own replay driver: the steps of the product's
/// `replay_inner` (without its sampling, latency attribution, leak check
/// and recovery wiring), through public functions only.
pub fn drive(streams: &SoakStreams, plan: &SoakPlan, tracer: &Tracer) -> Driven {
    let started = Instant::now();
    let reports = tracer.span("bench.replay", None, || {
        let mut gw = tracer.span("gateway.new", None, || {
            let gw = Gateway::new(plan.gateway.clone());
            gw.obs().set_mode(plan.mode);
            gw
        });
        let mut ops = Vec::with_capacity(streams.ops.len());
        for (i, stream) in streams.ops.iter().enumerate() {
            let scenario = &stream.scenario;
            tracer.span("obs.begin_run", Some(i), || {
                scenario.cloud.obs().set_mode(plan.mode);
                scenario.cloud.obs().begin_run(&scenario.trace_id);
            });
            let engine = tracer.span("core.build_engine", Some(i), || {
                build_engine(scenario, &stream.scenario_config)
            });
            ops.push(tracer.span("gateway.register", Some(i), || {
                let process_id = engine.process_id().to_string();
                let sink = Box::new(TimedSink {
                    engine,
                    tracer: tracer.clone(),
                    tenant: i,
                });
                gw.register(process_id, scenario.trace_id.clone(), sink)
                    .expect("admission is open")
            }));
        }
        let merged = tracer.span("bench.merge", None, || layers::merge(streams));
        for (at, i, seq) in merged {
            tracer.span("gateway.submit", Some(i), || {
                gw.submit(ops[i], at, &streams.ops[i].lines[seq].1)
            });
        }
        let reports = tracer.span("gateway.finish", None, || gw.finish());
        tracer.span("gateway.stats", None, || drop(gw.stats()));
        tracer.span("obs.snapshot", None, || drop(gw.obs().snapshot()));
        tracer.span("gateway.drop", None, || drop(gw));
        reports
    });
    Driven {
        digests: reports.iter().map(|op| op.summary.digest()).collect(),
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// Every tenant's detection digest, as the product's replay reported it.
fn op_digests(report: &SoakReport) -> Vec<String> {
    report.ops.iter().map(|op| op.digest.clone()).collect()
}

/// Every tenant's metric registry before a replay, to diff against after.
fn tenant_baselines(streams: &SoakStreams) -> Vec<Snapshot> {
    streams
        .ops
        .iter()
        .map(|o| o.scenario.cloud.obs().snapshot())
        .collect()
}

/// What the replay added to every tenant's registry, merged into `into`.
fn merge_tenant_counters(into: &mut Snapshot, streams: &SoakStreams, before: &[Snapshot]) {
    for (op, before) in streams.ops.iter().zip(before) {
        into.merge(&op.scenario.cloud.obs().snapshot().diff(before));
    }
}

/// The rows read off the product's report structs.
fn report_rows(r: &mut Report, report: &SoakReport) {
    let s = &report.stats;
    let wait_ms = |q| {
        report
            .snapshot
            .histogram("gateway.queue_wait_us")
            .and_then(|h| h.quantile(q))
            .map_or(0.0, |us| us as f64 / 1000.0)
    };
    r.set("queue_wait_p99_ms", wait_ms(0.99));
    r.set(
        "shed_share",
        ratio(s.total_shed() as f64, s.lines_submitted as f64),
    );
    r.set("gateway.queue_wait_p50_ms", wait_ms(0.5));
    r.set("gateway.batches", s.batches as f64);
    r.set(
        "gateway.batch_fill_mean",
        report
            .snapshot
            .histogram("gateway.batch_fill")
            .map_or(0.0, |h| h.mean()),
    );
    r.set("gateway.deferred", s.deferred as f64);
    r.set("gateway.blocked", s.blocked as f64);
    r.set("gateway.shed", s.total_shed() as f64);
    r.set("gateway.admission_denied", s.admission_denied as f64);
    let busiest = s.shards.iter().map(|sh| sh.lines).max().unwrap_or(0);
    r.set(
        "gateway.shard_skew",
        ratio(
            busiest as f64 * s.shards.len() as f64,
            s.lines_processed as f64,
        ),
    );
    r.set("gateway.virtual_elapsed_s", s.virtual_elapsed.as_secs_f64());
    r.set("obs.kept_traces", report.kept_traces as f64);
    r.set("obs.discarded_traces", report.discarded_traces as f64);
    if let Some(rec) = &report.recovery {
        r.set("mttr_p50_s", rec.mttr.percentile(0.5).as_secs_f64());
        r.set("mttr_p95_s", rec.mttr.percentile(0.95).as_secs_f64());
        r.set(
            "recovered_share",
            ratio(rec.recovered as f64, rec.attempted as f64),
        );
        r.set("recovery.attempted", rec.attempted as f64);
        r.set("recovery.deferred_swept", rec.deferred_swept as f64);
        r.set("recovery.throttled", rec.throttled as f64);
    }
}

/// The rows computed from the fastest traced pass's spans.
fn span_rows(r: &mut Report, spans: &[Span], tenants: usize, lines_delivered: u64) {
    let by_name = totals_by_name(spans);
    let total = |name: &str| by_name.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let self_s = |name: &str| by_name.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e9);
    let root = total("bench.replay");
    let gateway: f64 = [
        "gateway.new",
        "gateway.register",
        "gateway.submit",
        "gateway.finish",
        "gateway.stats",
    ]
    .iter()
    .map(|name| self_s(name))
    .sum();
    r.set("gateway.self_s", gateway);
    r.set("gateway.self_share", ratio(gateway, root));
    let build = total("core.build_engine");
    r.set(
        "core.build_us_per_tenant",
        ratio(build * 1e6, tenants as f64),
    );
    r.set("core.build_share", ratio(build, root));
    let ingest = total("core.ingest_batch");
    r.set("core.ingest_s", ingest);
    r.set("core.ingest_share", ratio(ingest, root));
    r.set(
        "core.ingest_us_per_line",
        ratio(ingest * 1e6, lines_delivered as f64),
    );
    r.set("core.finish_s", total("core.finish"));
    r.set("obs.snapshot_ms", total("obs.snapshot") * 1e3);
}

/// The traced run: product replays for the report rows and the timing
/// baseline, the driver with spans off and on, then the isolated passes.
/// Returns the report and the spans of the fastest traced pass.
pub fn run_traced(plan: &SoakPlan, seconds: f64, smoke: bool) -> (Report, Vec<Span>) {
    let mut r = Report::default();
    let tenants = plan.config.ops;
    let rss_before = procfs::rss_kb().unwrap_or(0);

    // Cold product replay: the report rows, the counters and what a first
    // replay in a fresh process costs.
    let (streams, collect_s) = timed(|| collect_streams(&plan.config));
    let mut collect = vec![collect_s];
    let baselines = tenant_baselines(&streams);
    let (reference, cold_s) = cold_pass(&mut r, tenants, rss_before, || {
        product_replay(plan, &streams)
    });
    check_report(&mut r, &reference);
    ledger(&mut r, &reference);
    report_rows(&mut r, &reference);
    let mut counters = reference.snapshot.clone();
    merge_tenant_counters(&mut counters, &streams, &baselines);
    let delivered = reference.stats.lines_processed;
    counter_rows(&mut r, &counters, delivered);
    r.set(
        "orchestrator.lines_per_tenant",
        ratio(streams.lines_total as f64, tenants as f64),
    );
    drop((streams, baselines));
    let digest = reference.digest();
    let reference_digests = op_digests(&reference);
    drop(reference);

    // A round is one product replay, one driver pass with spans off and
    // one with spans on (for recovery, also the product's plain replay);
    // as many rounds as the budget holds, interleaved so that ambient
    // drift falls on every kind alike.
    let kinds = if plan.storm.is_some() { 4.5 } else { 3.5 };
    let rounds = rounds(seconds, kinds * cold_s, smoke);
    let (mut product, mut plain, mut off, mut on) = (vec![], vec![], vec![], vec![]);
    let mut best_spans: Vec<Span> = Vec::new();
    let mut span_coverage = 0.0f64;
    let cpu_share = CpuShare::start();
    for round in 0..rounds {
        let mut fresh = || {
            let (streams, s) = timed(|| collect_streams(&plan.config));
            collect.push(s);
            streams
        };
        // Each pass drops its feed and report before the next starts, so
        // no pass runs against another's 350 kB per tenant of live heap.
        let streams = fresh();
        let (report, s) = timed(|| product_replay(plan, &streams));
        product.push(s);
        r.check(report.digest() == digest, || {
            format!("round {round} changed the report digest")
        });
        drop((streams, report));
        // The driver has no recovery wiring, so on the recovery workload
        // it is compared with the product's plain replay, which also
        // prices the recovery stage by difference.
        let plain_digests = plan.storm.as_ref().map(|_| {
            let streams = fresh();
            let (report, s) = timed(|| replay_telemetry(&streams, &plan.gateway, plan.mode));
            plain.push(s);
            op_digests(&report)
        });
        let expected = plain_digests.as_ref().unwrap_or(&reference_digests);

        let driven = drive(&fresh(), plan, &Tracer::off());
        r.check(driven.digests == *expected, || {
            format!("round {round}, spans off: driver digests differ from the product's")
        });
        off.push(driven.wall_s);

        let tracer = Tracer::on();
        let driven = drive(&fresh(), plan, &tracer);
        r.check(driven.digests == *expected, || {
            format!("round {round}, spans on: driver digests differ from the product's")
        });
        let spans = tracer.spans();
        span_coverage = span_coverage.max(coverage(&spans));
        if on.iter().all(|&s| driven.wall_s < s) {
            best_spans = spans;
        }
        on.push(driven.wall_s);
    }
    cpu_share.record(&mut r);

    let product = Summary::of(&product);
    let (off_s, on_s) = (Summary::of(&off).min, Summary::of(&on).min);
    r.set("eval.replay_median_s", product.median);
    r.set("eval.replay_iqr_s", product.iqr());
    r.set(
        "orchestrator.collect_us_per_tenant",
        ratio(Summary::of(&collect).min * 1e6, tenants as f64),
    );
    // Shares of the product's fastest untraced replay. The driver has no
    // recovery stage, so there the plain replay is what it reproduces and
    // the recovery stage is priced by difference.
    let reproduced = if plain.is_empty() {
        product.min
    } else {
        Summary::of(&plain).min
    };
    let recovery_delta = product.min - reproduced;
    if !plain.is_empty() {
        r.set("recovery.delta_s", recovery_delta);
        r.set("recovery.delta_share", recovery_delta / product.min);
    }
    let report_overhead = (reproduced - off_s) / product.min;
    r.set("eval.report_overhead_share", report_overhead);
    r.set("bench.trace_overhead_share", (on_s - off_s) / off_s);

    span_rows(&mut r, &best_spans, tenants, delivered);
    coverage_row(&mut r, span_coverage);
    // How much of the untraced replay carries a name: the layers' self
    // times, what the product spends outside the steps the driver
    // reproduces, and the recovery stage.
    let root_self = totals_by_name(&best_spans)
        .get("bench.replay")
        .map_or(0.0, |t| t.self_ns as f64 / 1e9);
    r.set(
        "bench.accounted_share",
        (on_s - root_self + recovery_delta) / product.min + report_overhead,
    );

    // Isolated passes over one more fresh feed.
    let streams = collect_streams(&plan.config);
    let build_us = layers::build_us(
        streams
            .ops
            .iter()
            .map(|o| (&o.scenario, &o.scenario_config)),
    );
    let ingest_s = r.get("core.ingest_s").unwrap_or(0.0);
    layers::feed_passes(&mut r, &streams, &plan.gateway, product.min, ingest_s);
    layers::fixture_passes(&mut r, build_us);
    (r, best_spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;
    use crate::workloads::{plan, Plan};

    #[test]
    fn the_driver_detects_what_the_product_replay_detects() {
        let Some(Plan::Soak(mut plan)) = plan("fleet-healthy", 11, true) else {
            panic!("soak plan expected")
        };
        plan.config.ops = 4;
        plan.config.fault_every = 2;
        let product = replay_telemetry(&collect_streams(&plan.config), &plan.gateway, plan.mode);
        assert!(product.ops.iter().any(|op| op.detections > 0));
        let tracer = Tracer::on();
        let driven = drive(&collect_streams(&plan.config), &plan, &tracer);
        assert_eq!(driven.digests, op_digests(&product));
        // The spans name every step and cover the pass.
        let by_name = trace::totals_by_name(&tracer.spans());
        for name in [
            "bench.replay",
            "core.build_engine",
            "gateway.register",
            "bench.merge",
            "gateway.submit",
            "core.ingest_batch",
            "gateway.finish",
            "core.finish",
            "gateway.stats",
        ] {
            assert!(by_name.contains_key(name), "no {name} span");
        }
        assert_eq!(by_name["core.build_engine"].count, 4);
        assert_eq!(
            by_name["gateway.submit"].count,
            product.stats.lines_submitted
        );
        assert!(coverage(&tracer.spans()) > 0.9);
    }
}
