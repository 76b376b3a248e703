//! Rows the soak and the campaign workloads compute the same way.

use std::time::Instant;

use pod_diagnosis::obs::Snapshot;

use crate::metrics::Report;
use crate::procfs;
use crate::stats::ratio;

/// `f`'s result and its wall-seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Runs a process's first pass and records what being first costs: its
/// wall time, the page faults it took, and the resident memory the
/// process gained since `rss_before_kb` per unit (tenant or run).
pub fn cold_pass<T>(
    r: &mut Report,
    units: usize,
    rss_before_kb: u64,
    pass: impl FnOnce() -> T,
) -> (T, f64) {
    let faults_before = procfs::minor_faults().unwrap_or(0);
    let (out, cold_s) = timed(pass);
    r.set("eval.replay_cold_s", cold_s);
    r.set(
        "eval.cold_minor_faults",
        procfs::minor_faults()
            .unwrap_or(0)
            .saturating_sub(faults_before) as f64,
    );
    r.set(
        "eval.rss_kb_per_tenant",
        ratio(
            procfs::peak_rss_kb()
                .unwrap_or(0)
                .saturating_sub(rss_before_kb) as f64,
            units as f64,
        ),
    );
    (out, cold_s)
}

/// How many rounds of `round_s` seconds each the traced run's budget
/// holds: two at least, so that "fastest of" means something, six at most;
/// the smoke run makes one.
pub fn rounds(seconds: f64, round_s: f64, smoke: bool) -> usize {
    if smoke {
        1
    } else {
        ((seconds / round_s) as usize).clamp(2, 6)
    }
}

/// On-CPU time over wall time since `start`: the noise diagnostic.
#[derive(Debug)]
pub struct CpuShare {
    wall: Instant,
    cpu_ns: Option<u64>,
}

impl CpuShare {
    /// Starts both clocks.
    pub fn start() -> CpuShare {
        CpuShare {
            wall: Instant::now(),
            cpu_ns: procfs::cpu_ns(),
        }
    }

    /// Records `eval.cpu_share` over the interval since `start`.
    pub fn record(self, r: &mut Report) {
        if let (Some(a), Some(b)) = (self.cpu_ns, procfs::cpu_ns()) {
            let cpu_s = b.saturating_sub(a) as f64 / 1e9;
            r.set(
                "eval.cpu_share",
                ratio(cpu_s, self.wall.elapsed().as_secs_f64()),
            );
        }
    }
}

/// The counter rows every workload shares, read from the merged snapshot
/// of the gateway's registry and every tenant's.
pub fn counter_rows(r: &mut Report, c: &Snapshot, lines_delivered: u64) {
    let n = |name: &str| c.counter(name) as f64;
    r.set(
        "log.pipeline_dropped_share",
        ratio(n("pipeline.noise-filter.dropped"), n("pipeline.pushed")),
    );
    r.set("core.detections", n("engine.detections"));
    r.set("core.diagnoses", n("engine.diagnoses"));
    r.set(
        "core.detections_per_kline",
        ratio(n("engine.detections") * 1000.0, lines_delivered as f64),
    );
    r.set("process.replays", n("conformance.replays"));
    r.set(
        "process.fit_share",
        ratio(n("conformance.fit"), n("conformance.replays")),
    );
    r.set("assert.consistent_calls", n("consistent.calls"));
    r.set(
        "assert.retry_share",
        ratio(n("consistent.retries"), n("consistent.calls")),
    );
    r.set("assert.timeouts", n("consistent.timeouts"));
    r.set("cloud.api_calls", n("cloud.api.calls"));
    r.set(
        "cloud.api_calls_per_detection",
        ratio(n("cloud.api.calls"), n("engine.detections")),
    );
    r.set("cloud.throttled", n("cloud.api.throttled"));
    r.set("cloud.stale_reads", n("cloud.api.stale_reads"));
    r.set("faulttree.walks", n("faulttree.walks"));
    r.set("faulttree.tests_run", n("faulttree.tests_run"));
    r.set(
        "faulttree.memo_hit_share",
        ratio(
            n("faulttree.memo_hits"),
            n("faulttree.memo_hits") + n("faulttree.tests_run"),
        ),
    );
    r.set(
        "recovery.prestage_hit_share",
        ratio(
            n("recovery.prestage.hit"),
            n("recovery.prestage.hit") + n("recovery.prestage.miss"),
        ),
    );
    r.set("recovery.steps_retried", n("recovery.steps_retried"));
}

/// Records `bench.span_coverage`, the best coverage any traced pass
/// reached, and checks it: work the spans miss is missed by every pass,
/// while a scheduling hiccup between two spans hits one.
pub fn coverage_row(r: &mut Report, span_coverage: f64) {
    r.set("bench.span_coverage", span_coverage);
    r.check(span_coverage >= 0.95, || {
        format!("spans cover only {span_coverage:.3} of the traced pass")
    });
}
