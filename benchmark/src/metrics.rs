//! The metric table — every name the benchmark prints, with its unit,
//! direction and (for end-to-end metrics) regression bound — and the
//! per-workload [`Report`] that is printed against it.
//!
//! `BENCHMARK.json` at the repository root is this table written out
//! (`--manifest` prints it; a unit test keeps the two equal).

use std::collections::BTreeMap;

use pod_diagnosis::log::Json;

use crate::workloads::WORKLOADS;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One row of the metric table.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// The printed name.
    pub name: &'static str,
    /// The printed unit. Virtual-time units end in `_virtual`: they are
    /// outputs of the deterministic model, never throughput.
    pub unit: &'static str,
    /// Which way is better.
    pub better: Better,
    /// `Some(share)` for an end-to-end metric: how far it may worsen,
    /// as a share of the parent's median, before a change is a regression.
    pub bound: Option<f64>,
    /// Bit-identical on the same seed (a count or a virtual-time value).
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        exact,
    }
}

const fn wall(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: defined on every workload, measured with tracing
/// off, each with its regression bound. The bounds of the two exact rows
/// cover their spread across seeds (1–3 % on `overload-shed`); on one
/// seed they repeat bit for bit and `--check-repeat` holds them to that.
/// The wall-clock bounds are as wide as the machine's drift: see the
/// README's "Noise".
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("lines_per_s", "lines/s", Higher, 0.25, false),
    e2e("runs_per_s", "runs/s", Higher, 0.25, false),
    e2e("peak_rss_mb", "MB", Lower, 0.10, false),
    e2e("delivered_share", "ratio", Higher, 0.10, true),
    e2e("detect_recall", "ratio", Higher, 0.05, true),
];

/// Per-layer metrics, printed by the traced run. The first nine are the
/// user-visible results that exist only on some workloads (a queue needs
/// a gateway, MTTR needs a recovery stage, precision needs the campaign's
/// ground truth), so they cannot be rows of [`END_TO_END`]; they read 0
/// where the workload has no such stage.
pub const PER_LAYER: &[MetricDef] = &[
    exact("queue_wait_p99_ms", "ms_virtual", Lower),
    exact("shed_share", "ratio", Lower),
    exact("detect_precision", "ratio", Higher),
    exact("diag_accuracy", "ratio", Higher),
    exact("diag_time_p50_s", "s_virtual", Lower),
    exact("diag_time_p95_s", "s_virtual", Lower),
    exact("mttr_p50_s", "s_virtual", Lower),
    exact("mttr_p95_s", "s_virtual", Lower),
    exact("recovered_share", "ratio", Higher),
    // gateway
    wall("gateway.self_s", "s", Lower),
    wall("gateway.self_share", "ratio", Lower),
    wall("gateway.null_sink_lines_per_s", "lines/s", Higher),
    exact("gateway.batches", "count", Lower),
    exact("gateway.batch_fill_mean", "lines", Higher),
    exact("gateway.deferred", "count", Lower),
    exact("gateway.blocked", "count", Lower),
    exact("gateway.shed", "count", Lower),
    exact("gateway.admission_denied", "count", Lower),
    exact("gateway.queue_wait_p50_ms", "ms_virtual", Lower),
    exact("gateway.shard_skew", "ratio", Lower),
    exact("gateway.virtual_elapsed_s", "s_virtual", Lower),
    // log
    wall("log.parse_lines_per_s", "lines/s", Higher),
    wall("log.parse_share", "ratio", Lower),
    exact("log.parse_json_share", "ratio", Lower),
    exact("log.bytes_per_line", "bytes", Lower),
    wall("log.pipeline_lines_per_s", "lines/s", Higher),
    wall("log.pipeline_share", "ratio", Lower),
    exact("log.pipeline_dropped_share", "ratio", Higher),
    wall("log.rulebook_lines_per_s", "lines/s", Higher),
    // regex
    wall("regex.compile_us_per_engine", "us", Lower),
    wall("regex.compile_share_of_build", "ratio", Lower),
    // core
    wall("core.build_us_per_tenant", "us", Lower),
    wall("core.build_share", "ratio", Lower),
    wall("core.ingest_s", "s", Lower),
    wall("core.ingest_share", "ratio", Lower),
    wall("core.ingest_us_per_line", "us", Lower),
    wall("core.finish_s", "s", Lower),
    wall("core.unattributed_s", "s", Lower),
    exact("core.detections", "count", Lower),
    exact("core.diagnoses", "count", Lower),
    exact("core.detections_per_kline", "1/kline", Lower),
    // process
    wall("process.replay_events_per_s", "events/s", Higher),
    exact("process.replays", "count", Lower),
    exact("process.fit_share", "ratio", Higher),
    // assert
    exact("assert.consistent_calls", "count", Lower),
    exact("assert.retry_share", "ratio", Lower),
    exact("assert.timeouts", "count", Lower),
    wall("assert.eval_us", "us", Lower),
    // cloud
    exact("cloud.api_calls", "count", Lower),
    exact("cloud.api_calls_per_detection", "ratio", Lower),
    exact("cloud.throttled", "count", Lower),
    exact("cloud.stale_reads", "count", Lower),
    // faulttree
    exact("faulttree.walks", "count", Lower),
    exact("faulttree.tests_run", "count", Lower),
    exact("faulttree.memo_hit_share", "ratio", Higher),
    wall("faulttree.walk_us", "us", Lower),
    // recovery
    wall("recovery.delta_s", "s", Lower),
    wall("recovery.delta_share", "ratio", Lower),
    exact("recovery.attempted", "count", Lower),
    exact("recovery.deferred_swept", "count", Lower),
    exact("recovery.throttled", "count", Lower),
    exact("recovery.prestage_hit_share", "ratio", Higher),
    exact("recovery.steps_retried", "count", Lower),
    exact("recovery.phase_detection_p50_s", "s_virtual", Lower),
    exact("recovery.phase_diagnosis_p50_s", "s_virtual", Lower),
    exact("recovery.phase_staging_p50_s", "s_virtual", Lower),
    exact("recovery.phase_repair_p50_s", "s_virtual", Lower),
    exact("recovery.phase_verification_p50_s", "s_virtual", Lower),
    // obs
    exact("obs.kept_traces", "count", Lower),
    exact("obs.discarded_traces", "count", Higher),
    wall("obs.snapshot_ms", "ms", Lower),
    // orchestrator
    wall("orchestrator.collect_us_per_tenant", "us", Lower),
    exact("orchestrator.lines_per_tenant", "lines", Lower),
    // eval
    wall("eval.replay_median_s", "s", Lower),
    wall("eval.replay_iqr_s", "s", Lower),
    wall("eval.replay_cold_s", "s", Lower),
    wall("eval.cold_minor_faults", "count", Lower),
    wall("eval.cpu_share", "ratio", Higher),
    wall("eval.rss_kb_per_tenant", "kB", Lower),
    wall("eval.report_overhead_share", "ratio", Lower),
    wall("eval.run_ms_p50", "ms", Lower),
    wall("eval.run_ms_p95", "ms", Lower),
    // bench
    wall("bench.trace_overhead_share", "ratio", Lower),
    wall("bench.span_coverage", "ratio", Higher),
    wall("bench.accounted_share", "ratio", Higher),
];

/// The table row for `name`, from either list.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// One workload's measured values plus its output checks.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (wire lines, runs, repairs).
    pub attempted: u64,
    /// Operations that were lost: neither completed nor accounted for.
    pub failed: u64,
    /// Output checks that did not hold; empty means the run is correct.
    pub failures: Vec<String>,
}

impl Report {
    /// Records `name = value`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in the metric table or `value` is not
    /// finite: both are bugs in the benchmark, not results.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(lookup(name).is_some(), "metric {name} is not in the table");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.insert(name, value);
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Prints one `<workload> <metric> <value> <unit>` line per recorded
    /// metric of `defs`, in table order, then the attempt ledger.
    pub fn print_lines(&self, workload: &str, defs: &[MetricDef]) {
        for def in defs {
            if let Some(v) = self.get(def.name) {
                println!("{workload} {} {v} {}", def.name, def.unit);
            }
        }
        println!("{workload} ops_attempted {} count", self.attempted);
        println!("{workload} ops_failed {} count", self.failed);
        for failure in &self.failures {
            println!("{workload} CHECK FAILED: {failure}");
        }
    }

    /// The result object the driver reads from the last line of stdout.
    /// An end-to-end metric that was never recorded fails the run; a
    /// per-layer metric of a layer the workload does not use reads 0.
    pub fn result_json(&mut self, defs: &[MetricDef]) -> Json {
        let mut metrics = Json::object();
        for def in defs {
            let value = match (self.get(def.name), def.bound) {
                (Some(v), _) => v,
                (None, None) => 0.0,
                (None, Some(_)) => {
                    self.failures
                        .push(format!("end-to-end metric {} was not measured", def.name));
                    continue;
                }
            };
            let mut m = Json::object();
            m.set("value", Json::Number(value));
            m.set("unit", Json::str(def.unit));
            metrics.set(def.name, m);
        }
        let mut doc = Json::object();
        doc.set("correct", Json::Bool(self.failures.is_empty()));
        doc.set("attempted", Json::Number(self.attempted as f64));
        doc.set("failed", Json::Number(self.failed as f64));
        doc.set("metrics", metrics);
        doc
    }
}

/// `BENCHMARK.json`, generated from the tables.
pub fn manifest() -> String {
    let quoted = |s: &str| Json::str(s).to_string();
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {},\n", crate::RUN_SECONDS));
    let rows = |out: &mut String, key: &str, rows: Vec<String>| {
        out.push_str(&format!(
            "  \"{key}\": [\n    {}\n  ]",
            rows.join(",\n    ")
        ));
    };
    rows(
        &mut out,
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| {
                format!(
                    "{{\"name\": {}, \"why\": {}}}",
                    quoted(w.name),
                    quoted(w.why)
                )
            })
            .collect(),
    );
    out.push_str(",\n");
    let metric = |m: &MetricDef| {
        let mut row = format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}",
            quoted(m.name),
            quoted(m.unit),
            quoted(m.better.label())
        );
        if let Some(bound) = m.bound {
            row.push_str(&format!(", \"bound\": {bound}"));
        }
        row.push('}');
        row
    };
    rows(
        &mut out,
        "end_to_end",
        END_TO_END.iter().map(metric).collect(),
    );
    out.push_str(",\n");
    rows(
        &mut out,
        "per_layer",
        PER_LAYER.iter().map(metric).collect(),
    );
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` may be printed as a metric or workload name: it starts
    /// with a letter or digit and holds at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    /// Whether `unit` may be printed: 1 to 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_validated() {
        for ok in ["setup_s", "gateway.self_s", "fleet-healthy", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "x".repeat(65);
        for bad in [
            "",
            ".hidden",
            "-dash",
            "has space",
            "semi;colon",
            "ünï",
            &too_long,
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "lines/s", "1/kline", "%", "ms_virtual"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "ms virtual", "seventeen-chars-x", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn table_rows_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} is listed twice", m.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} is listed twice", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        let setup = lookup("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "set-up time gets the largest bound"
        );
    }

    #[test]
    fn committed_manifest_is_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&committed).expect("BENCHMARK.json parses");
        assert_eq!(committed, manifest(), "regenerate with --manifest");
        assert!((1..=60).contains(&crate::RUN_SECONDS));
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        for m in END_TO_END {
            r.set(m.name, 1.25);
        }
        r.attempted = 10;
        let doc = r.result_json(END_TO_END);
        let Json::Object(entries) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Object(metrics)) = doc.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert!(!doc.to_string().contains('\n'));
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_fails_the_run_and_an_idle_layer_reads_zero() {
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        let doc = r.result_json(END_TO_END);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        let mut r = Report::default();
        let doc = r.result_json(PER_LAYER);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let batches = doc.get("metrics").unwrap().get("gateway.batches").unwrap();
        assert_eq!(batches.get("value").unwrap().as_f64(), Some(0.0));
    }
}
