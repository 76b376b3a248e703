//! The JSON-lines run journal: pod-obs snapshots, spans and Table-I
//! metrics as machine-readable records.
//!
//! `pod-obs` sits *below* `pod-log` in the dependency order (the log
//! pipeline itself is instrumented), so the JSON encoding of observability
//! data cannot live in `pod-obs` — it lives here, reusing [`pod_log::Json`].
//! One record per line; every record carries a `record` discriminator and
//! the `run` id it belongs to.

use pod_log::Json;
use pod_obs::{EventRecord, FlightDump, IncidentChain, Snapshot, SpanRecord};

use crate::campaign::{FaultRecoveryStats, PhaseStats, RecoveryStats};
use crate::metrics::MetricSet;
use crate::timing::TimingStats;

fn num(n: u64) -> Json {
    Json::Number(n as f64)
}

/// One record per counter, gauge and histogram in `snapshot`.
pub fn snapshot_lines(run: &str, snapshot: &Snapshot) -> Vec<Json> {
    let mut out = Vec::new();
    for (name, value) in &snapshot.counters {
        let mut o = Json::object();
        o.set("record", Json::str("counter"));
        o.set("run", Json::str(run));
        o.set("name", Json::str(name.clone()));
        o.set("value", num(*value));
        out.push(o);
    }
    for (name, value) in &snapshot.gauges {
        let mut o = Json::object();
        o.set("record", Json::str("gauge"));
        o.set("run", Json::str(run));
        o.set("name", Json::str(name.clone()));
        o.set("value", Json::Number(*value as f64));
        out.push(o);
    }
    for (name, h) in &snapshot.histograms {
        let mut o = Json::object();
        o.set("record", Json::str("histogram"));
        o.set("run", Json::str(run));
        o.set("name", Json::str(name.clone()));
        o.set("count", num(h.count));
        o.set("sum", num(h.sum));
        if h.count > 0 {
            o.set("min", num(h.min));
            o.set("max", num(h.max));
            o.set("mean", Json::Number(h.mean()));
            if let Some(p50) = h.quantile(0.5) {
                o.set("p50", num(p50));
            }
            if let Some(p95) = h.quantile(0.95) {
                o.set("p95", num(p95));
            }
            if let Some(p99) = h.quantile(0.99) {
                o.set("p99", num(p99));
            }
        }
        out.push(o);
    }
    out
}

/// One record per retained tail exemplar in `snapshot`: the concrete
/// observation (value, virtual time, causal event, labels) a histogram's
/// tail quantiles link back to.
pub fn exemplar_lines(run: &str, snapshot: &Snapshot) -> Vec<Json> {
    let mut out = Vec::new();
    for (name, exemplars) in &snapshot.exemplars {
        for e in exemplars {
            let mut o = Json::object();
            o.set("record", Json::str("exemplar"));
            o.set("run", Json::str(run));
            o.set("name", Json::str(name.clone()));
            o.set("value", num(e.value));
            o.set("at_us", num(e.at.as_micros()));
            if let Some(event) = e.event {
                o.set("event", num(event));
            }
            if !e.labels.is_empty() {
                let mut labels = Json::object();
                for (k, v) in &e.labels {
                    labels.set(k.clone(), Json::str(v.clone()));
                }
                o.set("labels", labels);
            }
            out.push(o);
        }
    }
    out
}

/// The `FLIGHT_<op>.json` document: the flight recorder's black box as one
/// JSON object — every frame with its counters, gauges and histogram
/// quantile summaries, plus the incident marks and eviction accounting.
pub fn flight_json(run: &str, dump: &FlightDump) -> Json {
    let mut doc = Json::object();
    doc.set("record", Json::str("flight"));
    doc.set("run", Json::str(run));
    doc.set("evicted_frames", num(dump.evicted_frames));
    doc.set("dropped_incidents", num(dump.dropped_incidents));
    let frames = dump
        .frames
        .iter()
        .map(|f| {
            let mut frame = Json::object();
            frame.set("at_us", num(f.at.as_micros()));
            let mut counters = Json::object();
            for (name, value) in &f.snapshot.counters {
                counters.set(name.clone(), num(*value));
            }
            frame.set("counters", counters);
            if !f.snapshot.gauges.is_empty() {
                let mut gauges = Json::object();
                for (name, value) in &f.snapshot.gauges {
                    gauges.set(name.clone(), Json::Number(*value as f64));
                }
                frame.set("gauges", gauges);
            }
            if !f.snapshot.histograms.is_empty() {
                let mut hists = Json::object();
                for (name, h) in &f.snapshot.histograms {
                    let mut ho = Json::object();
                    ho.set("count", num(h.count));
                    if h.count > 0 {
                        for (key, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                            if let Some(v) = h.quantile(q) {
                                ho.set(key, num(v));
                            }
                        }
                    }
                    hists.set(name.clone(), ho);
                }
                frame.set("histograms", hists);
            }
            frame
        })
        .collect();
    doc.set("frames", Json::Array(frames));
    let incidents = dump
        .incidents
        .iter()
        .map(|inc| {
            let mut o = Json::object();
            o.set("at_us", num(inc.at.as_micros()));
            o.set("label", Json::str(inc.label.clone()));
            o
        })
        .collect();
    doc.set("incidents", Json::Array(incidents));
    doc
}

/// One record per finished span.
pub fn span_lines(run: &str, spans: &[SpanRecord]) -> Vec<Json> {
    spans
        .iter()
        .map(|s| {
            let mut o = Json::object();
            o.set("record", Json::str("span"));
            o.set("run", Json::str(run));
            o.set("id", num(s.id));
            if let Some(parent) = s.parent {
                o.set("parent", num(parent));
            }
            o.set("name", Json::str(s.name));
            o.set("start_us", num(s.start.as_micros()));
            o.set("end_us", num(s.end.as_micros()));
            if !s.attrs.is_empty() {
                let mut attrs = Json::object();
                for (k, v) in &s.attrs {
                    attrs.set(*k, Json::str(v.clone()));
                }
                o.set("attrs", attrs);
            }
            o
        })
        .collect()
}

/// One record per causal event.
pub fn event_lines(run: &str, events: &[EventRecord]) -> Vec<Json> {
    events
        .iter()
        .map(|e| {
            let mut o = Json::object();
            o.set("record", Json::str("event"));
            o.set("run", Json::str(run));
            o.set("id", num(e.id));
            if let Some(parent) = e.parent {
                o.set("cause", num(parent));
            }
            if let Some(span) = e.span {
                o.set("span", num(span));
            }
            o.set("kind", Json::str(e.kind));
            o.set("name", Json::str(e.name.clone()));
            o.set("at_us", num(e.at.as_micros()));
            if !e.attrs.is_empty() {
                let mut attrs = Json::object();
                for (k, v) in &e.attrs {
                    attrs.set(*k, Json::str(v.clone()));
                }
                o.set("attrs", attrs);
            }
            o
        })
        .collect()
}

/// One record per reconstructed incident chain: the ordered hop kinds,
/// whether the chain is unbroken, and first-evidence-to-verdict latency.
pub fn incident_lines(run: &str, chains: &[IncidentChain]) -> Vec<Json> {
    chains
        .iter()
        .map(|c| {
            let mut o = Json::object();
            o.set("record", Json::str("incident"));
            o.set("run", Json::str(run));
            o.set("detection", Json::str(c.detection.name.clone()));
            o.set("detection_event", num(c.detection.id));
            o.set(
                "hops",
                Json::Array(c.hops.iter().map(|h| Json::str(h.kind)).collect()),
            );
            o.set("anchored", Json::Bool(c.anchored));
            o.set("diagnosed", Json::Bool(c.diagnosed));
            o.set("complete", Json::Bool(c.complete()));
            o.set("elapsed_us", num(c.elapsed().as_micros()));
            if !c.root_causes.is_empty() {
                o.set(
                    "root_causes",
                    Json::Array(
                        c.root_causes
                            .iter()
                            .map(|r| Json::str(r.name.clone()))
                            .collect(),
                    ),
                );
            }
            o
        })
        .collect()
}

/// One "gateway" summary record plus one "gateway-shard" record per shard:
/// the machine-readable form of [`pod_gateway::GatewayStats`], including
/// every shed/deferred/blocked line and the per-shard queue-wait quantiles.
pub fn gateway_lines(run: &str, stats: &pod_gateway::GatewayStats) -> Vec<Json> {
    let mut out = Vec::new();
    let mut o = Json::object();
    o.set("record", Json::str("gateway"));
    o.set("run", Json::str(run));
    o.set("lines_submitted", num(stats.lines_submitted));
    o.set("lines_processed", num(stats.lines_processed));
    o.set("shed_oldest", num(stats.shed_oldest));
    o.set("shed_newest", num(stats.shed_newest));
    o.set("blocked", num(stats.blocked));
    o.set("deferred", num(stats.deferred));
    o.set("admission_denied", num(stats.admission_denied));
    o.set("batches", num(stats.batches));
    o.set("virtual_elapsed_us", num(stats.virtual_elapsed.as_micros()));
    o.set(
        "lines_per_sec_virtual",
        Json::Number(stats.lines_per_sec_virtual()),
    );
    out.push(o);
    for shard in &stats.shards {
        let mut o = Json::object();
        o.set("record", Json::str("gateway-shard"));
        o.set("run", Json::str(run));
        o.set("shard", num(shard.shard as u64));
        o.set("ops", num(shard.ops as u64));
        o.set("lines", num(shard.lines));
        o.set("shed", num(shard.shed));
        o.set("batches", num(shard.batches));
        if let Some(h) = &shard.queue_wait_us {
            o.set("queue_wait_count", num(h.count));
            o.set("queue_wait_mean_us", Json::Number(h.mean()));
            for (key, q) in [
                ("queue_wait_p50_us", 0.5),
                ("queue_wait_p95_us", 0.95),
                ("queue_wait_p99_us", 0.99),
            ] {
                if let Some(v) = h.quantile(q) {
                    o.set(key, num(v));
                }
            }
        }
        out.push(o);
    }
    out
}

fn set_recovery_counts(
    o: &mut Json,
    attempted: usize,
    recovered: usize,
    escalated: usize,
    conformance_fit: usize,
    mttr: &TimingStats,
) {
    o.set("attempted", num(attempted as u64));
    o.set("recovered", num(recovered as u64));
    o.set("escalated", num(escalated as u64));
    o.set("conformance_fit", num(conformance_fit as u64));
    if attempted > 0 {
        o.set(
            "success_rate",
            Json::Number(recovered as f64 / attempted as f64),
        );
        o.set(
            "escalation_rate",
            Json::Number(escalated as f64 / attempted as f64),
        );
    }
    if !mttr.is_empty() {
        o.set("mttr_count", num(mttr.len() as u64));
        o.set("mttr_mean_us", num(mttr.mean().as_micros()));
        o.set("mttr_p50_us", num(mttr.percentile(0.5).as_micros()));
        o.set("mttr_p95_us", num(mttr.percentile(0.95).as_micros()));
        o.set("mttr_max_us", num(mttr.max().as_micros()));
    }
}

/// The MTTR phase breakdown (p50/p95 per phase) of recovered runs: where
/// the seconds go between first failing signal and verified repair.
fn set_phase_quantiles(o: &mut Json, phases: &PhaseStats) {
    let named: [(&str, &TimingStats); 5] = [
        ("detection", &phases.detection),
        ("diagnosis", &phases.diagnosis),
        ("staging", &phases.staging),
        ("repair", &phases.repair),
        ("verification", &phases.verification),
    ];
    for (name, stats) in named {
        if stats.is_empty() {
            continue;
        }
        o.set(
            format!("phase_{name}_p50_us"),
            num(stats.percentile(0.5).as_micros()),
        );
        o.set(
            format!("phase_{name}_p95_us"),
            num(stats.percentile(0.95).as_micros()),
        );
    }
}

/// One "recovery" summary record plus one "recovery-fault" record per fault
/// type: success/escalation rates and the MTTR distribution (detection →
/// verified repair) — the `BENCH_recovery.json` content.
pub fn recovery_lines(run: &str, stats: &RecoveryStats) -> Vec<Json> {
    let mut out = Vec::new();
    let mut o = Json::object();
    o.set("record", Json::str("recovery"));
    o.set("run", Json::str(run));
    set_recovery_counts(
        &mut o,
        stats.attempted,
        stats.recovered,
        stats.escalated,
        stats.conformance_fit,
        &stats.mttr,
    );
    set_phase_quantiles(&mut o, &stats.phases);
    out.push(o);
    for (fault, f) in &stats.per_fault {
        let FaultRecoveryStats {
            attempted,
            recovered,
            escalated,
            conformance_fit,
            mttr,
        } = f;
        if *attempted == 0 {
            continue;
        }
        let mut o = Json::object();
        o.set("record", Json::str("recovery-fault"));
        o.set("run", Json::str(run));
        o.set("fault", Json::str(fault.to_string()));
        set_recovery_counts(
            &mut o,
            *attempted,
            *recovered,
            *escalated,
            *conformance_fit,
            mttr,
        );
        out.push(o);
    }
    out
}

/// One "recovery-storm" summary record plus one "recovery-tenant" record
/// per tenant: the storm's admission ledger and the per-tenant
/// MTTR-under-load quantiles — the `BENCH_recovery_soak.json` content
/// (and the CI regression gate's input: `mttr_p50_us` on the summary).
pub fn recovery_soak_lines(run: &str, rec: &crate::soak::SoakRecoveryReport) -> Vec<Json> {
    let mut out = Vec::new();
    let mut o = Json::object();
    o.set("record", Json::str("recovery-storm"));
    o.set("run", Json::str(run));
    o.set("tenants", num(rec.tenants.len() as u64));
    o.set("lanes", num(rec.config.lanes as u64));
    o.set("throttle_at", num(rec.config.throttle_at as u64));
    o.set("attempted", num(rec.attempted as u64));
    o.set("recovered", num(rec.recovered as u64));
    o.set("escalated", num(rec.escalated as u64));
    o.set("deferred_swept", num(rec.deferred_swept as u64));
    o.set("throttled", num(rec.throttled as u64));
    o.set("requests", num(rec.stats.requests));
    o.set("admitted", num(rec.stats.admitted));
    o.set("deferred", num(rec.stats.deferred));
    o.set("swept", num(rec.stats.swept));
    o.set("peak_concurrent", num(rec.stats.peak_concurrent as u64));
    o.set("none_dropped", Json::Bool(rec.none_dropped()));
    if rec.attempted > 0 {
        o.set(
            "success_rate",
            Json::Number(rec.recovered as f64 / rec.attempted as f64),
        );
    }
    if !rec.mttr.is_empty() {
        o.set("mttr_count", num(rec.mttr.len() as u64));
        o.set("mttr_mean_us", num(rec.mttr.mean().as_micros()));
        o.set("mttr_p50_us", num(rec.mttr.percentile(0.5).as_micros()));
        o.set("mttr_p95_us", num(rec.mttr.percentile(0.95).as_micros()));
        o.set("mttr_max_us", num(rec.mttr.max().as_micros()));
    }
    out.push(o);
    for t in &rec.tenants {
        let mut o = Json::object();
        o.set("record", Json::str("recovery-tenant"));
        o.set("run", Json::str(run));
        o.set("trace_id", Json::str(t.trace_id.clone()));
        if let Some(fault) = t.fault {
            o.set("fault", Json::str(fault.to_string()));
        }
        o.set("attempted", num(t.attempted as u64));
        o.set("recovered", num(t.recovered as u64));
        o.set("escalated", num(t.escalated as u64));
        o.set("deferred_swept", num(t.deferred_swept as u64));
        o.set("throttled", num(t.throttled as u64));
        if !t.mttr.is_empty() {
            o.set("mttr_p50_us", num(t.mttr.percentile(0.5).as_micros()));
            o.set("mttr_p95_us", num(t.mttr.percentile(0.95).as_micros()));
        }
        out.push(o);
    }
    out
}

/// The Table-I metrics of one metric set as a single record.
pub fn metrics_line(label: &str, m: &MetricSet) -> Json {
    let mut o = Json::object();
    o.set("record", Json::str("metrics"));
    o.set("label", Json::str(label));
    o.set("runs", num(m.runs as u64));
    o.set("faults_detected", num(m.faults_detected as u64));
    o.set("faults_missed", num(m.faults_missed as u64));
    o.set("false_positives", num(m.false_positives as u64));
    o.set(
        "interference_detections",
        num(m.interference_detections as u64),
    );
    o.set("precision", Json::Number(m.detection_precision()));
    o.set("recall", Json::Number(m.detection_recall()));
    o.set(
        "diagnosis_accuracy",
        Json::Number(m.diagnosis_accuracy_over_detected()),
    );
    o.set("accuracy_rate", Json::Number(m.accuracy_rate()));
    o
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

#[cfg(test)]
mod tests {
    use super::*;
    use pod_obs::Obs;
    use pod_sim::SimTime;

    #[test]
    fn journal_lines_are_valid_json() {
        let obs = Obs::detached();
        obs.tracer().begin_trace("run-7");
        obs.counter("cloud.api.calls").add(3);
        obs.histogram("cloud.api.latency_us").record(250);
        {
            let span = obs.span("upgrade.step");
            span.attr("step", "start");
            obs.clock().advance(pod_sim::SimDuration::from_millis(5));
        }
        let mut lines = snapshot_lines("run-7", &obs.snapshot());
        lines.extend(span_lines("run-7", &obs.tracer().finished()));
        let text = render_journal(&lines);
        assert!(lines.len() >= 3);
        for line in text.lines() {
            let v = Json::parse(line).expect(line);
            assert!(v.get("record").is_some());
        }
    }

    #[test]
    fn counter_and_span_records_round_trip() {
        let obs = Obs::detached();
        obs.counter("consistent.retries").incr();
        let snap_lines = snapshot_lines("r", &obs.snapshot());
        let parsed = Json::parse(&snap_lines[0].to_string()).unwrap();
        assert_eq!(parsed.get("record").unwrap().as_str(), Some("counter"));
        assert_eq!(
            parsed.get("name").unwrap().as_str(),
            Some("consistent.retries")
        );
        assert_eq!(parsed.get("value").unwrap().as_f64(), Some(1.0));

        let spans = [SpanRecord {
            id: 1,
            parent: None,
            name: "x",
            start: SimTime::ZERO,
            end: SimTime::from_millis(2),
            attrs: vec![("k", "v".into())],
        }];
        let line = &span_lines("r", &spans)[0];
        let parsed = Json::parse(&line.to_string()).unwrap();
        assert_eq!(parsed.get("end_us").unwrap().as_f64(), Some(2000.0));
        assert_eq!(
            parsed.get("attrs").unwrap().get("k").unwrap().as_str(),
            Some("v")
        );
    }

    #[test]
    fn histogram_records_carry_p50_p95_p99() {
        let obs = Obs::detached();
        let h = obs.histogram("lat_us");
        for _ in 0..95 {
            h.record(50);
        }
        for _ in 0..5 {
            h.record(5_000);
        }
        let lines = snapshot_lines("r", &obs.snapshot());
        let hist = lines
            .iter()
            .find(|l| l.get("record").and_then(|r| r.as_str()) == Some("histogram"))
            .unwrap();
        let parsed = Json::parse(&hist.to_string()).unwrap();
        for key in ["p50", "p95", "p99"] {
            assert!(parsed.get(key).is_some(), "missing {key}: {parsed:?}");
        }
        assert!(
            parsed.get("p99").unwrap().as_f64() >= parsed.get("p50").unwrap().as_f64(),
            "quantiles out of order: {parsed:?}"
        );
    }

    #[test]
    fn event_and_incident_records_round_trip() {
        let obs = Obs::detached();
        obs.begin_run("run-9");
        let line = obs.event("log.line", "asgard.log");
        let det = obs.event_under(line.id(), "detection", "assertion-log");
        obs.event_under(det.id(), "diagnosis.verdict", "root-cause-identified");
        let events = obs.events().records();
        let lines = event_lines("run-9", &events);
        assert_eq!(lines.len(), 3);
        let parsed = Json::parse(&lines[1].to_string()).unwrap();
        assert_eq!(parsed.get("record").unwrap().as_str(), Some("event"));
        assert_eq!(parsed.get("kind").unwrap().as_str(), Some("detection"));
        assert_eq!(parsed.get("cause").unwrap().as_f64(), Some(0.0));

        let chains = pod_obs::incidents(&events);
        let lines = incident_lines("run-9", &chains);
        assert_eq!(lines.len(), 1);
        let parsed = Json::parse(&lines[0].to_string()).unwrap();
        assert_eq!(parsed.get("record").unwrap().as_str(), Some("incident"));
        assert_eq!(parsed.get("complete"), Some(&Json::Bool(true)));
        let hops = parsed.get("hops").unwrap().as_array().unwrap();
        assert_eq!(hops.len(), 3);
        assert_eq!(hops[0].as_str(), Some("log.line"));
    }

    #[test]
    fn gateway_records_cover_totals_and_every_shard() {
        let mut gw = pod_gateway::Gateway::new(pod_gateway::GatewayConfig {
            shards: 2,
            ..pod_gateway::GatewayConfig::default()
        });
        #[derive(Debug)]
        struct Null;
        impl pod_gateway::DiagnosisSink for Null {
            fn ingest_batch(&mut self, _events: Vec<pod_log::LogEvent>) {}
            fn finish(&mut self) -> pod_core::RunSummary {
                pod_core::RunSummary::default()
            }
        }
        let op = gw.register("p", "i", Box::new(Null)).unwrap();
        for i in 0..5 {
            gw.submit(op, SimTime::from_millis(i), &format!("line {i}"));
        }
        gw.pump_until_idle();
        let lines = gateway_lines("soak", &gw.stats());
        assert_eq!(lines.len(), 3, "one summary + one per shard");
        let parsed = Json::parse(&lines[0].to_string()).unwrap();
        assert_eq!(parsed.get("record").unwrap().as_str(), Some("gateway"));
        assert_eq!(parsed.get("lines_processed").unwrap().as_f64(), Some(5.0));
        let busy = lines[1..]
            .iter()
            .map(|l| Json::parse(&l.to_string()).unwrap())
            .find(|l| l.get("lines").unwrap().as_f64() == Some(5.0))
            .expect("the serving shard is in the journal");
        assert_eq!(busy.get("record").unwrap().as_str(), Some("gateway-shard"));
        assert!(busy.get("queue_wait_p99_us").is_some());
    }

    #[test]
    fn exemplar_and_flight_records_round_trip() {
        let obs = Obs::detached();
        let h = obs.histogram("gateway.queue_wait_us");
        h.record_with(4_321, || pod_obs::Exemplar {
            value: 4_321,
            at: SimTime::from_millis(7),
            event: Some(3),
            labels: vec![("op".into(), "i-0001".into())],
        });
        let lines = exemplar_lines("soak", &obs.snapshot());
        assert_eq!(lines.len(), 1);
        let parsed = Json::parse(&lines[0].to_string()).unwrap();
        assert_eq!(parsed.get("record").unwrap().as_str(), Some("exemplar"));
        assert_eq!(parsed.get("value").unwrap().as_f64(), Some(4321.0));
        assert_eq!(parsed.get("event").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            parsed.get("labels").unwrap().get("op").unwrap().as_str(),
            Some("i-0001")
        );

        let rec = pod_obs::FlightRecorder::new(
            obs.clock().clone(),
            obs.registry().clone(),
            pod_obs::FlightConfig::default(),
        );
        rec.tick();
        rec.mark_incident("i-0001 detection");
        let doc = flight_json("soak", &rec.dump());
        let parsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed.get("record").unwrap().as_str(), Some("flight"));
        let frames = parsed.get("frames").unwrap().as_array().unwrap();
        assert_eq!(frames.len(), 2);
        assert!(frames[0]
            .get("histograms")
            .unwrap()
            .get("gateway.queue_wait_us")
            .unwrap()
            .get("p99")
            .is_some());
        let incidents = parsed.get("incidents").unwrap().as_array().unwrap();
        assert_eq!(
            incidents[0].get("label").unwrap().as_str(),
            Some("i-0001 detection")
        );
    }

    #[test]
    fn recovery_records_carry_rates_and_mttr_quantiles() {
        let mttr = TimingStats::new(vec![
            pod_sim::SimDuration::from_millis(100),
            pod_sim::SimDuration::from_millis(300),
        ]);
        let stats = RecoveryStats {
            attempted: 3,
            recovered: 2,
            escalated: 1,
            conformance_fit: 3,
            mttr: mttr.clone(),
            phases: PhaseStats::default(),
            per_fault: vec![
                (
                    pod_orchestrator::FaultType::AmiUnavailable,
                    FaultRecoveryStats {
                        attempted: 2,
                        recovered: 2,
                        escalated: 0,
                        conformance_fit: 2,
                        mttr,
                    },
                ),
                (
                    pod_orchestrator::FaultType::ElbUnavailable,
                    FaultRecoveryStats::default(),
                ),
            ],
        };
        let lines = recovery_lines("run-3", &stats);
        assert_eq!(lines.len(), 2, "summary + one per attempted fault type");
        let parsed = Json::parse(&lines[0].to_string()).unwrap();
        assert_eq!(parsed.get("record").unwrap().as_str(), Some("recovery"));
        assert_eq!(parsed.get("attempted").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            parsed.get("escalation_rate").unwrap().as_f64(),
            Some(1.0 / 3.0)
        );
        assert_eq!(parsed.get("mttr_p95_us").unwrap().as_f64(), Some(300_000.0));
        let parsed = Json::parse(&lines[1].to_string()).unwrap();
        assert_eq!(
            parsed.get("record").unwrap().as_str(),
            Some("recovery-fault")
        );
        assert_eq!(
            parsed.get("fault").unwrap().as_str(),
            Some("AMI is unavailable during upgrade")
        );
        assert_eq!(parsed.get("success_rate").unwrap().as_f64(), Some(1.0));
        assert_eq!(parsed.get("mttr_p50_us").unwrap().as_f64(), Some(100_000.0));
    }

    #[test]
    fn metrics_line_carries_table_one() {
        let m = MetricSet {
            runs: 4,
            faults_detected: 3,
            faults_missed: 1,
            ..MetricSet::default()
        };
        let parsed = Json::parse(&metrics_line("overall", &m).to_string()).unwrap();
        assert_eq!(parsed.get("runs").unwrap().as_f64(), Some(4.0));
        assert_eq!(parsed.get("recall").unwrap().as_f64(), Some(0.75));
    }
}
