//! The run record: one JSON-lines journal per run, one emitter core, one
//! diff.
//!
//! `pod-obs` sits *below* `pod-log` in the dependency order (the log
//! pipeline itself is instrumented), so the JSON encoding of observability
//! data cannot live in `pod-obs` — it lives here, reusing [`pod_log::Json`].
//! One record per line; every record carries a `record` discriminator and
//! the `run` id it belongs to, so journals concatenate losslessly.
//! Everything wall-clock lives in `wall` records: two same-seed runs are
//! byte-identical once those are dropped.
//!
//! Every record kind is a list of fields on the [`Record`] builder, the
//! only place that writes the preamble, a quantile triplet or a
//! [`TimingStats`] block. [`write_journal`] is the only artifact writer and
//! [`diff_journals`] the only comparison — the regression gates are that
//! diff ([`diff_report`]).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use pod_gateway::GatewayStats;
use pod_log::{Json, JsonError};
use pod_obs::{FlightDump, IncidentChain, Snapshot, TAIL_QUANTILES};
use pod_sim::{nearest_rank, SimTime};

use crate::campaign::{CampaignReport, RecoveryStats, TraceDump};
use crate::metrics::MetricSet;
use crate::profile::LatencyProfile;
use crate::soak::{SoakRecoveryReport, SoakReport};
use crate::timing::TimingStats;

fn num(n: u64) -> Json {
    Json::Number(n as f64)
}

fn object<K: Into<String>>(entries: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn strings<S: Into<String>>(items: impl IntoIterator<Item = S>) -> Json {
    Json::Array(items.into_iter().map(Json::str).collect())
}

/// One journal record under construction: fields are appended in call
/// order, so a record kind reads as its field list.
#[derive(Debug, Clone)]
pub struct Record(Vec<(String, Json)>);

impl Record {
    /// Starts a record of `kind` belonging to `run` — the preamble every
    /// journal line opens with.
    pub fn new(kind: &str, run: &str) -> Record {
        Record::nested().str("record", kind).str("run", run)
    }

    /// Starts an object without the preamble, for nesting inside a record.
    pub fn nested() -> Record {
        Record(Vec::new())
    }

    /// Appends an already-encoded value.
    pub fn json(mut self, key: impl Into<String>, value: Json) -> Record {
        self.0.push((key.into(), value));
        self
    }

    /// Appends a count.
    pub fn num(self, key: impl Into<String>, n: u64) -> Record {
        self.json(key, num(n))
    }

    /// Appends a real number.
    pub fn float(self, key: impl Into<String>, x: f64) -> Record {
        self.json(key, Json::Number(x))
    }

    /// Appends a string.
    pub fn str(self, key: impl Into<String>, s: impl Into<String>) -> Record {
        self.json(key, Json::str(s))
    }

    /// Appends `value` unless it is an empty object or array.
    pub fn nonempty(self, key: impl Into<String>, value: Json) -> Record {
        match &value {
            Json::Object(entries) if entries.is_empty() => self,
            Json::Array(items) if items.is_empty() => self,
            _ => self.json(key, value),
        }
    }

    /// Appends the fields `then` adds, only when `value` is present.
    pub fn opt<T>(self, value: Option<T>, then: impl FnOnce(Record, T) -> Record) -> Record {
        match value {
            Some(v) => then(self, v),
            None => self,
        }
    }

    /// Appends the fields `then` adds, only when `cond` holds.
    pub fn when(self, cond: bool, then: impl FnOnce(Record) -> Record) -> Record {
        self.opt(cond.then_some(()), |r, ()| then(r))
    }

    /// Appends the `p50`/`p95`/`p99` triplet, skipping quantiles the
    /// source cannot answer (an empty sample).
    pub fn quantiles(self, quantile: impl Fn(f64) -> Option<u64>) -> Record {
        TAIL_QUANTILES.iter().fold(self, |r, &(key, q)| {
            r.opt(quantile(q), |r, v| r.num(key, v))
        })
    }

    /// Appends a [`TimingStats`] block under `prefix`: `_p50_us` and
    /// `_p95_us`, framed by `_count` / `_mean_us` and `_max_us` when
    /// `summary` is set. An empty sample appends nothing.
    pub fn timing(self, prefix: &str, stats: &TimingStats, summary: bool) -> Record {
        if stats.is_empty() {
            return self;
        }
        let us = |key: &str| format!("{prefix}_{key}_us");
        self.when(summary, |r| {
            r.num(format!("{prefix}_count"), stats.len() as u64)
                .num(us("mean"), stats.mean().as_micros())
        })
        .num(us("p50"), stats.percentile(0.5).as_micros())
        .num(us("p95"), stats.percentile(0.95).as_micros())
        .when(summary, |r| r.num(us("max"), stats.max().as_micros()))
    }

    /// The finished record.
    pub fn build(self) -> Json {
        Json::Object(self.0)
    }
}

/// One record per counter, gauge and histogram in `snapshot`.
pub fn snapshot_lines(run: &str, snapshot: &Snapshot) -> Vec<Json> {
    let named = |kind, name: &String| Record::new(kind, run).str("name", name.as_str());
    let counters = snapshot
        .counters
        .iter()
        .map(|(name, value)| named("counter", name).num("value", *value));
    let gauges = snapshot
        .gauges
        .iter()
        .map(|(name, value)| named("gauge", name).float("value", *value as f64));
    let histograms = snapshot.histograms.iter().map(|(name, h)| {
        named("histogram", name)
            .num("count", h.count)
            .num("sum", h.sum)
            .when(h.count > 0, |r| {
                r.num("min", h.min)
                    .num("max", h.max)
                    .float("mean", h.mean())
                    .quantiles(|q| h.quantile(q))
            })
    });
    counters
        .chain(gauges)
        .chain(histograms)
        .map(Record::build)
        .collect()
}

/// One record per retained tail exemplar in `snapshot`: the concrete
/// observation (value, virtual time, causal event, labels) a histogram's
/// tail quantiles link back to.
pub fn exemplar_lines(run: &str, snapshot: &Snapshot) -> Vec<Json> {
    let mut out = Vec::new();
    for (name, exemplars) in &snapshot.exemplars {
        out.extend(exemplars.iter().map(|e| {
            Record::new("exemplar", run)
                .str("name", name.as_str())
                .num("value", e.value)
                .num("at_us", e.at.as_micros())
                .opt(e.event, |r, event| r.num("event", event))
                .nonempty(
                    "labels",
                    object(
                        e.labels
                            .iter()
                            .map(|&(k, ref v)| (k, Json::str(v.as_str()))),
                    ),
                )
                .build()
        }));
    }
    out
}

/// The flight recorder's black box as one record: every frame with its
/// counters, gauges and histogram quantile summaries, plus the incident
/// marks and eviction accounting.
pub fn flight_json(run: &str, dump: &FlightDump) -> Json {
    let frames = dump.frames.iter().map(|f| {
        let snap = &f.snapshot;
        Record::nested()
            .num("at_us", f.at.as_micros())
            .json(
                "counters",
                object(snap.counters.iter().map(|(n, v)| (n.as_str(), num(*v)))),
            )
            .nonempty(
                "gauges",
                object(
                    snap.gauges
                        .iter()
                        .map(|(n, v)| (n.as_str(), Json::Number(*v as f64))),
                ),
            )
            .nonempty(
                "histograms",
                object(snap.histograms.iter().map(|(n, h)| {
                    let summary = Record::nested()
                        .num("count", h.count)
                        .quantiles(|q| h.quantile(q));
                    (n.as_str(), summary.build())
                })),
            )
            .build()
    });
    let incidents = dump.incidents.iter().map(|inc| {
        Record::nested()
            .num("at_us", inc.at.as_micros())
            .str("label", inc.label.as_str())
            .build()
    });
    Record::new("flight", run)
        .num("evicted_frames", dump.evicted_frames)
        .num("dropped_incidents", dump.dropped_incidents)
        .json("frames", Json::Array(frames.collect()))
        .json("incidents", Json::Array(incidents.collect()))
        .build()
}

/// One record per reconstructed incident chain: the ordered hop kinds,
/// whether the chain is unbroken, and first-evidence-to-verdict latency.
pub fn incident_lines(run: &str, chains: &[IncidentChain]) -> Vec<Json> {
    chains
        .iter()
        .map(|c| {
            Record::new("incident", run)
                .str("detection", &*c.detection.name)
                .num("detection_event", c.detection.id)
                .json("hops", strings(c.hops.iter().map(|h| h.kind)))
                .json("anchored", Json::Bool(c.anchored))
                .json("diagnosed", Json::Bool(c.diagnosed))
                .json("complete", Json::Bool(c.complete()))
                .num("elapsed_us", c.elapsed().as_micros())
                .nonempty(
                    "root_causes",
                    strings(c.root_causes.iter().map(|r| &*r.name)),
                )
                .build()
        })
        .collect()
}

/// The "gateway" record: the preamble plus [`GatewayStats::to_json`] —
/// totals, parse counts and every shard's queue-wait quantiles.
pub fn gateway_line(run: &str, stats: &GatewayStats) -> Json {
    let mut record = Record::new("gateway", run);
    if let Json::Object(fields) = stats.to_json() {
        record.0.extend(fields);
    }
    record.build()
}

/// The recovery counts, rates and MTTR block the "recovery" and
/// "recovery-fault" records share.
fn recovery_counts(
    r: Record,
    [attempted, recovered, escalated, conformance_fit]: [usize; 4],
    mttr: &TimingStats,
) -> Record {
    r.num("attempted", attempted as u64)
        .num("recovered", recovered as u64)
        .num("escalated", escalated as u64)
        .num("conformance_fit", conformance_fit as u64)
        .when(attempted > 0, |r| {
            r.float("success_rate", recovered as f64 / attempted as f64)
                .float("escalation_rate", escalated as f64 / attempted as f64)
        })
        .timing("mttr", mttr, true)
}

/// One "recovery" summary record — success/escalation rates, the MTTR
/// distribution (detection → verified repair) and its phase breakdown —
/// plus one "recovery-fault" record per attempted fault type.
pub fn recovery_lines(run: &str, stats: &RecoveryStats) -> Vec<Json> {
    let phases = [
        ("phase_detection", &stats.phases.detection),
        ("phase_diagnosis", &stats.phases.diagnosis),
        ("phase_staging", &stats.phases.staging),
        ("phase_repair", &stats.phases.repair),
        ("phase_verification", &stats.phases.verification),
    ];
    let summary = recovery_counts(
        Record::new("recovery", run),
        [
            stats.attempted,
            stats.recovered,
            stats.escalated,
            stats.conformance_fit,
        ],
        &stats.mttr,
    );
    let summary = phases
        .iter()
        .fold(summary, |r, (prefix, phase)| r.timing(prefix, phase, false));
    let per_fault = stats
        .per_fault
        .iter()
        .filter(|(_, f)| f.attempted > 0)
        .map(|(fault, f)| {
            recovery_counts(
                Record::new("recovery-fault", run).str("fault", fault.to_string()),
                [f.attempted, f.recovered, f.escalated, f.conformance_fit],
                &f.mttr,
            )
        });
    std::iter::once(summary)
        .chain(per_fault)
        .map(Record::build)
        .collect()
}

/// One "recovery-storm" summary record plus one "recovery-tenant" record
/// per tenant: the storm's admission ledger and the per-tenant
/// MTTR-under-load quantiles (`mttr_p50_us` on the summary is what CI
/// gates).
pub fn recovery_soak_lines(run: &str, rec: &SoakRecoveryReport) -> Vec<Json> {
    let storm = Record::new("recovery-storm", run)
        .num("tenants", rec.tenants.len() as u64)
        .num("lanes", rec.config.lanes as u64)
        .num("throttle_at", rec.config.throttle_at as u64)
        .num("attempted", rec.attempted as u64)
        .num("recovered", rec.recovered as u64)
        .num("escalated", rec.escalated as u64)
        .num("deferred_swept", rec.deferred_swept as u64)
        .num("throttled", rec.throttled as u64)
        .num("requests", rec.stats.requests)
        .num("admitted", rec.stats.admitted)
        .num("deferred", rec.stats.deferred)
        .num("swept", rec.stats.swept)
        .num("peak_concurrent", rec.stats.peak_concurrent as u64)
        .json("none_dropped", Json::Bool(rec.none_dropped()))
        .when(rec.attempted > 0, |r| {
            r.float("success_rate", rec.recovered as f64 / rec.attempted as f64)
        })
        .timing("mttr", &rec.mttr, true);
    let tenants = rec.tenants.iter().map(|t| {
        Record::new("recovery-tenant", run)
            .str("trace_id", t.trace_id.as_str())
            .opt(t.fault, |r, fault| r.str("fault", fault.to_string()))
            .num("attempted", t.attempted as u64)
            .num("recovered", t.recovered as u64)
            .num("escalated", t.escalated as u64)
            .num("deferred_swept", t.deferred_swept as u64)
            .num("throttled", t.throttled as u64)
            .timing("mttr", &t.mttr, false)
    });
    std::iter::once(storm)
        .chain(tenants)
        .map(Record::build)
        .collect()
}

/// The Table-I metrics of one metric set as a single record.
pub fn metrics_line(run: &str, label: &str, m: &MetricSet) -> Json {
    Record::new("metrics", run)
        .str("label", label)
        .num("runs", m.runs as u64)
        .num("faults_detected", m.faults_detected as u64)
        .num("faults_missed", m.faults_missed as u64)
        .num("false_positives", m.false_positives as u64)
        .num("interference_detections", m.interference_detections as u64)
        .float("precision", m.detection_precision())
        .float("recall", m.detection_recall())
        .float("diagnosis_accuracy", m.diagnosis_accuracy_over_detected())
        .float("accuracy_rate", m.accuracy_rate())
        .build()
}

/// One "latency-budget" record per fault type: per stage, the
/// p50/p95/p99, mean and total of the per-run virtual self time (µs).
pub fn latency_lines(run: &str, profile: &LatencyProfile) -> Vec<Json> {
    profile
        .budgets()
        .map(|(fault, runs, stages)| {
            let rows = stages.iter().map(|(stage, sorted)| {
                let total: u64 = sorted.iter().sum();
                Record::nested()
                    .str("stage", *stage)
                    .quantiles(|q| nearest_rank(sorted, q))
                    .float("mean", total as f64 / sorted.len().max(1) as f64)
                    .num("total_us", total)
                    .build()
            });
            Record::new("latency-budget", run)
                .str("fault", fault)
                .num("runs", runs as u64)
                .json("stages", Json::Array(rows.collect()))
                .build()
        })
        .collect()
}

/// The "telemetry" record of one replay: the mode it ran under and what
/// the tail sampler and flight recorder retained.
pub fn telemetry_line(run: &str, report: &SoakReport) -> Json {
    Record::new("telemetry", run)
        .str("mode", report.mode.to_string())
        .num("kept_traces", report.kept_traces as u64)
        .num("discarded_traces", report.discarded_traces as u64)
        .num("incidents", report.incidents as u64)
        .num("flight_frames", report.flight.frames.len() as u64)
        .num("flight_incidents", report.flight.incidents.len() as u64)
        .build()
}

/// The campaign's run record: Table-I metrics overall and per fault type,
/// the aggregated pod-obs snapshot, the latency budget, and the last
/// run's incident chains (under that run's own trace id).
pub fn campaign_lines(run: &str, report: &CampaignReport) -> Vec<Json> {
    let mut lines = vec![metrics_line(run, "overall", &report.overall)];
    for (fault, set) in &report.per_fault {
        lines.push(metrics_line(run, &fault.to_string(), set));
    }
    lines.extend(snapshot_lines(run, &report.obs_totals));
    lines.extend(latency_lines(run, &report.latency));
    if let Some(dump) = &report.last_trace {
        let chains = pod_obs::incidents(&dump.events);
        lines.extend(incident_lines(&dump.trace_id, &chains));
    }
    lines
}

/// The soak's run record: the "soak" headline, the gateway statistics, the
/// replay latency budget, the telemetry outcome, the gateway's pod-obs
/// snapshot with its tail exemplars, and the flight recorder's black box.
pub fn soak_lines(run: &str, report: &SoakReport) -> Vec<Json> {
    let detections: usize = report.ops.iter().map(|o| o.detections).sum();
    let headline = Record::new("soak", run)
        .num("ops", report.ops.len() as u64)
        .num("lines_total", report.lines_total)
        .num("leaks", report.leaks.len() as u64)
        .num("detections_total", detections as u64);
    let mut lines = vec![headline.build(), gateway_line(run, &report.stats)];
    lines.extend(latency_lines(run, &report.latency));
    lines.push(telemetry_line(run, report));
    lines.extend(snapshot_lines(run, &report.snapshot));
    lines.extend(exemplar_lines(run, &report.snapshot));
    lines.push(flight_json(run, &report.flight));
    lines
}

/// The "wall" record of a timed replay: the only place wall-clock
/// readings enter a journal.
pub fn wall_line(run: &str, wall_secs: f64, lines_processed: u64) -> Json {
    Record::new("wall", run)
        .float("wall_secs", wall_secs)
        .when(wall_secs > 0.0, |r| {
            r.float("lines_per_sec_wall", lines_processed as f64 / wall_secs)
        })
        .build()
}

/// Renders records as a JSON-lines document (one record per line, trailing
/// newline).
pub fn render_journal(lines: &[Json]) -> String {
    let mut out = String::new();
    for line in lines {
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

/// Writes `records` to `RUN_<name>.jsonl` in the current directory — the
/// one artifact a `--json` run leaves — and returns the path.
pub fn write_journal(name: &str, records: &[Json]) -> std::io::Result<String> {
    let path = format!("RUN_{name}.jsonl");
    std::fs::write(&path, render_journal(records))?;
    Ok(path)
}

impl TraceDump {
    /// Renders the run as a Chrome trace-event JSON document, loadable in
    /// Perfetto / `chrome://tracing`, one entry per line.
    ///
    /// A record with an end becomes a `ph:"X"` complete event, one without
    /// a `ph:"i"` instant, and every parent→child causal link becomes a
    /// `ph:"s"` / `ph:"f"` flow pair so the evidence chain renders as
    /// arrows. Every entry carries the `ph`, `ts`, `pid`, `tid` and `name`
    /// keys; `ts` and `dur` are virtual-clock microseconds, so under a
    /// fixed seed the document is byte-identical across runs. `events`
    /// must be in ascending id order, as [`pod_obs::EventLog::records`]
    /// returns them.
    pub fn chrome_trace(&self) -> String {
        let entry = |ph: &str, bp: Option<&str>, ts: u64, dur: Option<u64>, name: &str| {
            Record::nested()
                .str("ph", ph)
                .opt(bp, |r, bp| r.str("bp", bp))
                .num("ts", ts)
                .opt(dur, |r, dur| r.num("dur", dur))
                .num("pid", 1)
                .num("tid", 1)
                .str("name", name)
        };
        let mut entries = vec![entry("M", None, 0, None, "process_name").json(
            "args",
            object([("name", Json::str(self.trace_id.as_str()))]),
        )];
        entries.extend(self.events.iter().map(|event| {
            let ids = [
                ("event_id", Some(event.id)),
                ("cause", event.parent),
                ("span_id", event.span),
            ];
            let args = object(
                event
                    .attrs()
                    .into_iter()
                    .map(|(key, value)| (key, Json::str(value)))
                    .chain(
                        ids.iter()
                            .filter_map(|&(key, id)| Some((key, Json::str(id?.to_string())))),
                    ),
            );
            let dur = event.duration().map(|d| d.as_micros());
            // A span is a complete event; an instant is scoped to its thread.
            let (ph, scope) = if dur.is_some() {
                ("X", None)
            } else {
                ("i", Some("t"))
            };
            entry(ph, None, event.at.as_micros(), dur, &event.name)
                .str("cat", event.kind)
                .opt(scope, |r, scope| r.str("s", scope))
                .json("args", args)
        }));
        // Flow arrows for causal links. The flow id is the child event's id
        // (unique, since every event has at most one parent).
        for event in &self.events {
            let by_id = |id| self.events.binary_search_by_key(&id, |e| e.id).ok();
            // A root event, or a parent evicted from the ring, draws no arrow.
            let Some(parent) = event.parent.and_then(by_id) else {
                continue;
            };
            let parent = &self.events[parent];
            let flow = |ph, bp, at: SimTime| {
                entry(ph, bp, at.as_micros(), None, "cause")
                    .str("cat", "cause")
                    .num("id", event.id)
            };
            entries.push(flow("s", None, parent.at));
            entries.push(flow("f", Some("e"), event.at));
        }
        let entries: Vec<String> = entries
            .into_iter()
            .map(|entry| entry.build().to_string())
            .collect();
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            entries.join(",\n")
        )
    }
}

/// The regression bound of every gate: a gated field may not exceed this
/// multiple of its old value.
pub const GATE_RATIO: f64 = 1.1;

/// The string fields that, after `record`, identify a record in a journal.
const KEY_FIELDS: [&str; 5] = ["run", "name", "fault", "trace_id", "label"];

/// A journal line that is not a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalError {
    /// Which side of the comparison the journal was (`"old"` / `"new"`).
    pub journal: &'static str,
    /// 1-based line number.
    pub line: usize,
    /// What was wrong with the line.
    pub error: JsonError,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} journal, line {}: {}",
            self.journal, self.line, self.error
        )
    }
}

impl std::error::Error for JournalError {}

/// A parsed journal: record identity → the record's leaves (numbers,
/// booleans and strings) by dotted path.
type Journal = BTreeMap<String, BTreeMap<String, Json>>;

/// Collects the number, boolean and string leaves under `value`, nested
/// objects and arrays flattened to dotted paths.
fn flatten(path: &str, value: &Json, out: &mut BTreeMap<String, Json>) {
    let child = |key: &str| match path {
        "" => key.to_string(),
        _ => format!("{path}.{key}"),
    };
    match value {
        Json::Number(_) | Json::Bool(_) | Json::String(_) => {
            out.insert(path.to_string(), value.clone());
        }
        Json::Object(entries) => entries.iter().for_each(|(k, v)| flatten(&child(k), v, out)),
        Json::Array(items) => items
            .iter()
            .enumerate()
            .for_each(|(i, v)| flatten(&child(&i.to_string()), v, out)),
        Json::Null => {}
    }
}

/// A leaf as a gate reads it: a number, or a boolean as 0/1; a string has
/// no magnitude.
fn magnitude(leaf: &Json) -> Option<f64> {
    match leaf {
        Json::Number(n) => Some(*n),
        Json::Bool(b) => Some(f64::from(u8::from(*b))),
        _ => None,
    }
}

/// Parses one journal. A record's identity is its kind, then the
/// [`KEY_FIELDS`] it carries, then — among records sharing those — its
/// order of appearance.
fn parse_journal(journal: &'static str, text: &str) -> Result<Journal, JournalError> {
    let mut records = Journal::new();
    for (i, line) in text.lines().enumerate() {
        let fail = |error| JournalError {
            journal,
            line: i + 1,
            error,
        };
        let value = Json::parse(line).map_err(fail)?;
        let kind = value.get("record").and_then(Json::as_str).ok_or_else(|| {
            fail(JsonError {
                position: 0,
                message: "not a journal record: no `record` string".to_string(),
            })
        })?;
        let mut identity = kind.to_string();
        for field in KEY_FIELDS {
            if let Some(v) = value.get(field).and_then(Json::as_str) {
                identity.push_str(&format!(" {field}={v}"));
            }
        }
        let mut key = identity.clone();
        let mut nth = 0;
        while records.contains_key(&key) {
            nth += 1;
            key = format!("{identity} #{nth}");
        }
        flatten("", &value, records.entry(key).or_default());
    }
    Ok(records)
}

/// Two journals matched record by record: what moved between them.
#[derive(Debug, Clone)]
pub struct JournalDiff {
    old: Journal,
    new: Journal,
}

/// Compares two journals. Records are matched on `record` + `run` + the
/// identifying fields (`name`, `fault`, `trace_id`, `label`), then on order
/// of appearance.
///
/// # Errors
///
/// A line that is not a JSON record is a [`JournalError`] carrying its
/// line number — never a skipped line.
pub fn diff_journals(old: &str, new: &str) -> Result<JournalDiff, JournalError> {
    Ok(JournalDiff {
        old: parse_journal("old", old)?,
        new: parse_journal("new", new)?,
    })
}

impl JournalDiff {
    /// The fields — numbers, booleans and strings — that differ in records
    /// both journals have, as `(record, field, old, new)`; `None` is a
    /// field absent on that side.
    pub fn moved(&self) -> Vec<(&str, &str, Option<&Json>, Option<&Json>)> {
        let mut moved = Vec::new();
        for (key, before) in &self.old {
            let Some(after) = self.new.get(key) else {
                continue;
            };
            let fields: BTreeSet<&String> = before.keys().chain(after.keys()).collect();
            for field in fields {
                let (a, b) = (before.get(field), after.get(field));
                if a != b {
                    moved.push((key.as_str(), field.as_str(), a, b));
                }
            }
        }
        moved
    }

    /// The records only the old journal has, then those only the new has.
    pub fn one_sided(&self) -> [Vec<&str>; 2] {
        fn only<'a>(a: &'a Journal, b: &Journal) -> Vec<&'a str> {
            let missing = a.keys().filter(|key| !b.contains_key(*key));
            missing.map(String::as_str).collect()
        }
        [only(&self.old, &self.new), only(&self.new, &self.old)]
    }

    /// The diff as text: one line per moved field and one-sided record,
    /// then the totals.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let show = |v: Option<&Json>| v.map_or("absent".to_string(), Json::to_string);
        let (moved, [only_old, only_new]) = (self.moved(), self.one_sided());
        let mut out = String::new();
        for (record, field, old, new) in &moved {
            let _ = writeln!(out, "{record}: {field} {} -> {}", show(*old), show(*new));
        }
        for (side, keys) in [("old", &only_old), ("new", &only_new)] {
            for key in keys {
                let _ = writeln!(out, "only in {side}: {key}");
            }
        }
        let _ = writeln!(
            out,
            "{} fields moved, {} records only in old, {} only in new",
            moved.len(),
            only_old.len(),
            only_new.len()
        );
        out
    }

    /// Evaluates the gate `RECORD.FIELD`: every old record of that kind
    /// carrying the field as a number must still carry it on the new side,
    /// at no more than [`GATE_RATIO`] × the old value. Returns one line per
    /// failure; a gate that names nothing in the old journal fails too.
    pub fn gate(&self, spec: &str) -> Vec<String> {
        let (kind, field) = spec.split_once('.').unwrap_or((spec, ""));
        let gated: Vec<(&String, f64)> = self
            .old
            .iter()
            .filter(|(key, _)| key.split(' ').next() == Some(kind))
            .filter_map(|(key, fields)| Some((key, magnitude(fields.get(field)?)?)))
            .collect();
        let mut failures: Vec<String> = gated
            .iter()
            .filter_map(|&(key, old)| {
                match self
                    .new
                    .get(key)
                    .and_then(|fields| magnitude(fields.get(field)?))
                {
                    None => Some(format!(
                        "{key}: {field} missing from the new journal (old {old})"
                    )),
                    Some(new) if new > GATE_RATIO * old => Some(format!(
                        "{key}: {field} {new} exceeds {GATE_RATIO}x the old {old}"
                    )),
                    Some(_) => None,
                }
            })
            .collect();
        if gated.is_empty() {
            failures.push(format!("the old journal has no {spec} to gate on"));
        }
        failures
    }
}

/// `pod-diagnosis diff` and every `--baseline` gate: the rendered diff of
/// the journal text `new` against the journal file at `old_path`, plus the
/// exit code — 0, 1 when `gate` fails, 2 when the old journal is
/// unreadable or either one is malformed.
pub fn diff_report(old_path: &str, new: &str, gate: Option<&str>) -> (String, i32) {
    let diff = match std::fs::read_to_string(old_path) {
        Ok(old) => diff_journals(&old, new).map_err(|e| format!("malformed journal: {e}\n")),
        Err(e) => Err(format!("cannot read {old_path}: {e}\n")),
    };
    let diff = match diff {
        Ok(diff) => diff,
        Err(message) => return (message, 2),
    };
    let failures = gate.map_or(Vec::new(), |spec| diff.gate(spec));
    let mut report = diff.render();
    for failure in &failures {
        report.push_str(&format!("REGRESSION: {failure}\n"));
    }
    (report, i32::from(!failures.is_empty()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{FaultRecoveryStats, PhaseStats};
    use pod_gateway::{Gateway, GatewayConfig};
    use pod_obs::{AttrValue, Obs};
    use pod_orchestrator::FaultType;
    use pod_sim::{SimDuration, SimTime};

    /// Re-parses `line` as written and looks a dotted path up in it
    /// (`attrs.k`, `hops.0`); `Json::Null` when absent.
    fn at(line: &Json, path: &str) -> Json {
        let parsed = Json::parse(&line.to_string()).expect("a journal line is JSON");
        let found = path.split('.').try_fold(&parsed, |v, key| match v {
            Json::Array(items) => items.get(key.parse::<usize>().ok()?),
            other => other.get(key),
        });
        found.cloned().unwrap_or(Json::Null)
    }

    #[test]
    fn counter_records_round_trip() {
        let obs = Obs::detached();
        obs.counter("consistent.retries").incr();
        let counter = &snapshot_lines("r", &obs.snapshot())[0];
        assert_eq!(at(counter, "record"), Json::str("counter"));
        assert_eq!(at(counter, "name"), Json::str("consistent.retries"));
        assert_eq!(at(counter, "value"), Json::Number(1.0));
    }

    #[test]
    fn histogram_records_carry_p50_p95_p99() {
        let obs = Obs::detached();
        let h = obs.histogram("lat_us");
        (0..95).for_each(|_| h.record(50));
        (0..5).for_each(|_| h.record(5_000));
        let lines = snapshot_lines("r", &obs.snapshot());
        let hist = &lines[0];
        assert_eq!(at(hist, "record"), Json::str("histogram"));
        assert_eq!(at(hist, "count"), Json::Number(100.0));
        let q = |key| {
            at(hist, key)
                .as_f64()
                .unwrap_or_else(|| panic!("missing {key}"))
        };
        assert!(q("p50") <= q("p95") && q("p95") <= q("p99"), "{hist}");
        assert!(q("p50") < 100.0 && q("p99") >= 4_000.0, "{hist}");
    }

    #[test]
    fn incident_records_round_trip() {
        let obs = Obs::detached();
        obs.begin_run("run-9");
        let line = obs.event(None, "log.line", "asgard.log", || ());
        let det = obs.event(line, "detection", "assertion-log", || ());
        obs.event(det, "diagnosis.verdict", "root-cause-identified", || ());
        let events = obs.events().records();
        let lines = incident_lines("run-9", &pod_obs::incidents(&events));
        assert_eq!(lines.len(), 1);
        assert_eq!(at(&lines[0], "record"), Json::str("incident"));
        assert_eq!(at(&lines[0], "complete"), Json::Bool(true));
        assert_eq!(at(&lines[0], "hops.0"), Json::str("log.line"));
        assert_eq!(at(&lines[0], "hops.2"), Json::str("diagnosis.verdict"));
    }

    #[test]
    fn gateway_records_cover_totals_and_every_shard() {
        #[derive(Debug)]
        struct Null;
        impl pod_gateway::DiagnosisSink for Null {
            fn ingest_batch(&mut self, _events: Vec<pod_log::LogEvent>) {}
            fn finish(&mut self) -> pod_core::RunSummary {
                pod_core::RunSummary::default()
            }
        }
        let mut gw = Gateway::new(GatewayConfig {
            shards: 2,
            ..GatewayConfig::default()
        });
        let op = gw.register("p", "i", Box::new(Null)).unwrap();
        for i in 0..5 {
            gw.submit(op, SimTime::from_millis(i), &format!("line {i}"));
        }
        gw.pump_until_idle();
        let stats = gw.stats();
        let line = gateway_line("soak", &stats);
        assert_eq!(at(&line, "record"), Json::str("gateway"));
        assert_eq!(at(&line, "lines_processed"), Json::Number(5.0));
        assert_eq!(at(&line, "shards.2"), Json::Null, "one entry per shard");
        let busy = stats.shards.iter().position(|s| s.lines == 5).unwrap();
        assert_ne!(
            at(&line, &format!("shards.{busy}.queue_wait_us.p99")),
            Json::Null
        );
        // The record is the preamble plus the struct's own encoding.
        let body = stats.to_json().to_string();
        let written = line.to_string();
        assert!(written.ends_with(&body[1..]), "{written}");
    }

    #[test]
    fn exemplar_and_flight_records_round_trip() {
        let clock = pod_sim::Clock::new();
        let obs = Obs::new(clock.clone());
        obs.histogram("gateway.queue_wait_us")
            .record_with(4_321, || pod_obs::Exemplar {
                value: 4_321,
                at: SimTime::from_millis(7),
                event: Some(3),
                labels: vec![("op", "i-0001".into())],
            });
        let lines = exemplar_lines("soak", &obs.snapshot());
        assert_eq!(lines.len(), 1);
        assert_eq!(at(&lines[0], "record"), Json::str("exemplar"));
        assert_eq!(at(&lines[0], "value"), Json::Number(4321.0));
        assert_eq!(at(&lines[0], "event"), Json::Number(3.0));
        assert_eq!(at(&lines[0], "labels.op"), Json::str("i-0001"));

        let rec = pod_obs::FlightRecorder::new(clock, obs.registry().clone());
        rec.tick();
        rec.mark_incident("i-0001 detection");
        let flight = flight_json("soak", &rec.dump());
        assert_eq!(at(&flight, "record"), Json::str("flight"));
        assert_eq!(at(&flight, "frames.2"), Json::Null, "tick + incident frame");
        let summaries = at(&flight, "frames.0.histograms");
        assert!(summaries
            .get("gateway.queue_wait_us")
            .unwrap()
            .get("p99")
            .is_some());
        assert_eq!(
            at(&flight, "incidents.0.label"),
            Json::str("i-0001 detection")
        );
    }

    #[test]
    fn recovery_records_carry_rates_and_mttr_quantiles() {
        let mttr = TimingStats::new(vec![
            SimDuration::from_millis(100),
            SimDuration::from_millis(300),
        ]);
        let ami = FaultRecoveryStats {
            attempted: 2,
            recovered: 2,
            escalated: 0,
            conformance_fit: 2,
            mttr: mttr.clone(),
        };
        let stats = RecoveryStats {
            attempted: 3,
            recovered: 2,
            escalated: 1,
            conformance_fit: 3,
            mttr,
            phases: PhaseStats::default(),
            per_fault: vec![
                (FaultType::AmiUnavailable, ami),
                (FaultType::ElbUnavailable, FaultRecoveryStats::default()),
            ],
        };
        let lines = recovery_lines("run-3", &stats);
        assert_eq!(lines.len(), 2, "summary + one per attempted fault type");
        assert_eq!(at(&lines[0], "record"), Json::str("recovery"));
        assert_eq!(at(&lines[0], "attempted"), Json::Number(3.0));
        assert_eq!(at(&lines[0], "escalation_rate"), Json::Number(1.0 / 3.0));
        assert_eq!(at(&lines[0], "mttr_p95_us"), Json::Number(300_000.0));
        assert_eq!(at(&lines[0], "phase_detection_p50_us"), Json::Null);
        assert_eq!(at(&lines[1], "record"), Json::str("recovery-fault"));
        let fault = Json::str("AMI is unavailable during upgrade");
        assert_eq!(at(&lines[1], "fault"), fault);
        assert_eq!(at(&lines[1], "success_rate"), Json::Number(1.0));
        assert_eq!(at(&lines[1], "mttr_p50_us"), Json::Number(100_000.0));
    }

    #[test]
    fn metrics_line_carries_table_one() {
        let m = MetricSet {
            runs: 4,
            faults_detected: 3,
            faults_missed: 1,
            ..MetricSet::default()
        };
        let line = metrics_line("campaign", "overall", &m);
        assert_eq!(at(&line, "run"), Json::str("campaign"));
        assert_eq!(at(&line, "label"), Json::str("overall"));
        assert_eq!(at(&line, "runs"), Json::Number(4.0));
        assert_eq!(at(&line, "recall"), Json::Number(0.75));
    }

    #[test]
    fn latency_budget_records_carry_all_quantiles_per_fault() {
        let mut profile = LatencyProfile::new();
        let stages = BTreeMap::from([
            ("cloud.api.call".to_string(), 2_000u64),
            ("assertion.result".to_string(), 500u64),
        ]);
        FaultType::all()
            .into_iter()
            .for_each(|fault| profile.record(fault, &stages));
        let lines = latency_lines("campaign", &profile);
        assert_eq!(lines.len(), 8);
        for line in &lines {
            assert_eq!(at(line, "record"), Json::str("latency-budget"));
            assert_eq!(at(line, "runs"), Json::Number(1.0));
            assert_eq!(at(line, "stages.2"), Json::Null, "two stages");
            assert_eq!(at(line, "stages.0.stage"), Json::str("assertion.result"));
            for key in ["p50", "p95", "p99", "mean", "total_us"] {
                assert_eq!(at(line, &format!("stages.1.{key}")), Json::Number(2000.0));
            }
        }
    }

    #[test]
    fn diff_reports_a_moved_string_and_gates_only_numbers() {
        let old = r#"{"record":"latency-budget","run":"r","stages":[{"stage":"assertion.eval","p50":5}]}"#;
        let new = r#"{"record":"latency-budget","run":"r","stages":[{"stage":"assertion.result","p50":5}]}"#;
        let diff = diff_journals(old, new).expect("both parse");
        let moved = diff.moved();
        let expected = (Json::str("assertion.eval"), Json::str("assertion.result"));
        assert_eq!(
            moved,
            [(
                "latency-budget run=r",
                "stages.0.stage",
                Some(&expected.0),
                Some(&expected.1)
            )]
        );
        let text = diff.render();
        assert!(
            text.contains(r#"stages.0.stage "assertion.eval" -> "assertion.result""#),
            "{text}"
        );
        assert!(text.contains("1 fields moved"), "{text}");
        assert!(diff.gate("latency-budget.stages.0.p50").is_empty());
        let failures = diff.gate("latency-budget.stages.0.stage");
        assert_eq!(
            failures,
            ["the old journal has no latency-budget.stages.0.stage to gate on"]
        );
    }

    #[test]
    fn chrome_trace_has_required_keys_and_escapes_strings() {
        let clock = pod_sim::Clock::new();
        let obs = Obs::new(clock.clone());
        obs.begin_run("run-x");
        {
            let span = obs.span("upgrade.step");
            span.attr("activity", "terminate \"old\" instance");
            let line = obs.event(None, "log.line", "asgard.log", || {
                [("message", AttrValue::from("says \"hi\"\n"))]
            });
            clock.advance(SimDuration::from_millis(10));
            obs.event(line, "conformance.verdict", "conformance:unfit", || ());
        }
        let dump = TraceDump {
            trace_id: "run-x".to_string(),
            events: obs.events().records(),
        };
        let json = dump.chrome_trace();
        for key in ["\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":", "\"name\":"] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(
            json.contains("\"dur\":10000"),
            "span duration in µs:\n{json}"
        );
        assert!(json.contains("says \\\"hi\\\"\\n"), "escaping:\n{json}");
        // One flow pair for the causal link.
        assert!(json.contains("\"ph\":\"s\""), "flow start:\n{json}");
        assert!(json.contains("\"ph\":\"f\""), "flow finish:\n{json}");
        assert!(!json.contains('\u{0}'));
    }
}
