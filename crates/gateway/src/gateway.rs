//! The gateway service: registration, routing, batched draining and
//! backpressure.
//!
//! A [`Gateway`] owns its own deterministic [`Clock`] and [`Obs`] handle.
//! Operations register with a (process id, instance id) key and a
//! [`DiagnosisSink`] (normally a `pod_core::PodEngine`); the key is hashed
//! onto one of N shards, subject to per-shard admission control. Producers
//! then [`submit`](Gateway::submit) raw lines tagged with their arrival
//! time; lines wait in the shard's bounded queue until the shard's wakeup
//! fires, at which point up to `batch_size` lines are parsed
//! ([`pod_log::parse_line`]), grouped per operation and handed to the
//! sinks, one call per group. A drain holds many operations' lines but few
//! of any one (1.1–1.4 per sink call, measured), so only the wakeup's own
//! virtual cost is shared by the batch.
//!
//! All scheduling runs on the gateway clock: wakeups fire in (time, shard
//! id) order, batch service advances the clock by a configurable cost, and
//! queue waits are measured on the same clock. With the same interleaved
//! input the whole service is bit-reproducible.

use std::fmt;
use std::sync::Arc;

use pod_core::{PodEngine, RunSummary};
use pod_log::{parse_line, Json, LineFormat, LogEvent};
use pod_obs::{AttrValue, Counter, Exemplar, FlightRecorder, Histogram, HistogramSnapshot, Obs};
use pod_sim::{Clock, SimDuration, SimTime};

use crate::queue::{BoundedQueue, OverloadPolicy, PushOutcome, QueuedLine};
use crate::shard::shard_for;

/// Where a gateway delivers parsed lines: one sink per registered
/// operation. `pod_core::PodEngine` is the production implementation; tests
/// substitute recording sinks.
pub trait DiagnosisSink: fmt::Debug {
    /// Ingests a batch of parsed events, in order.
    fn ingest_batch(&mut self, events: Vec<LogEvent>);

    /// Finalises the operation and returns its summary.
    fn finish(&mut self) -> RunSummary;

    /// Detections raised so far. The gateway polls this after each sink
    /// call and, when it rose, runs the incident hook and leaves a mark
    /// (not a frame) in its flight recorder; sinks with no detection
    /// concept keep the default.
    fn detections(&self) -> usize {
        0
    }
}

impl DiagnosisSink for PodEngine {
    fn ingest_batch(&mut self, events: Vec<LogEvent>) {
        PodEngine::ingest_batch(self, events);
    }

    fn finish(&mut self) -> RunSummary {
        PodEngine::finish(self)
    }

    fn detections(&self) -> usize {
        PodEngine::detections(self).len()
    }
}

/// Virtual cost of parsing + dispatching one line.
const PER_LINE_COST: SimDuration = SimDuration::from_micros(150);
/// Fixed virtual cost of one wakeup, amortized over the batch.
const PER_BATCH_COST: SimDuration = SimDuration::from_millis(2);

/// Tuning knobs of a [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Number of shards (each with its own queue and wakeup). Default 8.
    pub shards: usize,
    /// Bounded queue capacity per shard, in lines. Default 256.
    pub queue_capacity: usize,
    /// Maximum lines drained per wakeup. Default 16.
    pub batch_size: usize,
    /// Delay between a line arriving at an idle shard and the shard's
    /// wakeup (the batching window). Default 20ms.
    pub flush_interval: SimDuration,
    /// What gives way when a shard queue is full. Default block.
    pub overload: OverloadPolicy,
    /// Admission control: maximum operations per shard. Default 32.
    pub max_ops_per_shard: usize,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            shards: 8,
            queue_capacity: 256,
            batch_size: 16,
            flush_interval: SimDuration::from_millis(20),
            overload: OverloadPolicy::Block,
            max_ops_per_shard: 32,
        }
    }
}

/// Handle to a registered operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct OpId(pub(crate) usize);

/// Errors surfaced by the gateway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayError {
    /// The target shard is at its per-shard operation limit.
    AdmissionDenied {
        /// The shard that refused the registration.
        shard: usize,
        /// The configured per-shard limit.
        limit: usize,
    },
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::AdmissionDenied { shard, limit } => write!(
                f,
                "admission denied: shard {shard} already serves {limit} operations"
            ),
        }
    }
}

impl std::error::Error for GatewayError {}

/// The final report for one operation after [`Gateway::finish`].
#[derive(Debug)]
pub struct OpReport {
    /// The shard that served the operation.
    pub shard: usize,
    /// Lines delivered to the operation's sink.
    pub lines: u64,
    /// The sink's run summary.
    pub summary: RunSummary,
}

/// Point-in-time statistics for one shard.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Operations registered on this shard.
    pub ops: usize,
    /// Lines drained through this shard.
    pub lines: u64,
    /// Lines shed from this shard's queue.
    pub shed: u64,
    /// Batches drained.
    pub batches: u64,
    /// Queue-wait distribution (µs), when any line was drained.
    pub queue_wait_us: Option<HistogramSnapshot>,
}

/// Point-in-time statistics for the whole gateway.
#[derive(Debug, Clone)]
pub struct GatewayStats {
    /// Per-shard breakdown.
    pub shards: Vec<ShardStats>,
    /// Lines offered via [`Gateway::submit`].
    pub lines_submitted: u64,
    /// Lines drained and delivered to sinks.
    pub lines_processed: u64,
    /// Lines dropped under [`OverloadPolicy::ShedOldest`].
    pub shed_oldest: u64,
    /// Lines dropped under [`OverloadPolicy::ShedNewest`].
    pub shed_newest: u64,
    /// Producer stalls under [`OverloadPolicy::Block`].
    pub blocked: u64,
    /// Lines enqueued behind at least one full batch (they could not make
    /// the next wakeup).
    pub deferred: u64,
    /// Registrations refused by admission control.
    pub admission_denied: u64,
    /// Batches drained across all shards.
    pub batches: u64,
    /// Lines recognized as Logstash JSON.
    pub parsed_json: u64,
    /// Lines recognized as plaintext.
    pub parsed_plain: u64,
    /// Lines that degraded to `unclassified`.
    pub unclassified: u64,
    /// Gateway-clock time elapsed since construction.
    pub virtual_elapsed: SimDuration,
}

impl GatewayStats {
    /// Total lines shed under either shedding policy.
    pub fn total_shed(&self) -> u64 {
        self.shed_oldest + self.shed_newest
    }

    /// Drained lines per second of *virtual* time.
    pub fn lines_per_sec_virtual(&self) -> f64 {
        let secs = self.virtual_elapsed.as_secs_f64();
        if secs > 0.0 {
            self.lines_processed as f64 / secs
        } else {
            0.0
        }
    }

    /// The stats as a JSON object (the body of the journal's `gateway`
    /// record, and part of the soak digest).
    pub fn to_json(&self) -> Json {
        let num = |n: u64| Json::Number(n as f64);
        let mut o = Json::object();
        o.set("lines_submitted", num(self.lines_submitted));
        o.set("lines_processed", num(self.lines_processed));
        o.set(
            "lines_per_sec_virtual",
            Json::Number(self.lines_per_sec_virtual()),
        );
        o.set("virtual_elapsed_us", num(self.virtual_elapsed.as_micros()));
        o.set("shed_oldest", num(self.shed_oldest));
        o.set("shed_newest", num(self.shed_newest));
        o.set("blocked", num(self.blocked));
        o.set("deferred", num(self.deferred));
        o.set("admission_denied", num(self.admission_denied));
        o.set("batches", num(self.batches));
        let mut parse = Json::object();
        parse.set("json", num(self.parsed_json));
        parse.set("plain", num(self.parsed_plain));
        parse.set("unclassified", num(self.unclassified));
        o.set("parse", parse);
        let shards = self
            .shards
            .iter()
            .map(|s| {
                let mut so = Json::object();
                so.set("shard", num(s.shard as u64));
                so.set("ops", num(s.ops as u64));
                so.set("lines", num(s.lines));
                so.set("shed", num(s.shed));
                so.set("batches", num(s.batches));
                if let Some(h) = &s.queue_wait_us {
                    let mut ho = Json::object();
                    ho.set("count", num(h.count));
                    ho.set("mean", Json::Number(h.mean()));
                    for (key, q) in pod_obs::TAIL_QUANTILES {
                        if let Some(v) = h.quantile(q) {
                            ho.set(key, num(v));
                        }
                    }
                    so.set("queue_wait_us", ho);
                }
                so
            })
            .collect();
        o.set("shards", Json::Array(shards));
        o
    }
}

/// Who rescheduled a shard after a drain: the worker loop (which keeps
/// draining backlog) or a blocked producer (which must not touch the
/// worker's flush window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reschedule {
    Immediate,
    KeepWindow,
}

#[derive(Debug)]
struct OpSlot {
    instance_id: Arc<str>,
    shard: usize,
    lines: u64,
    /// Detection count last seen by the flight recorder.
    detections_seen: usize,
    sink: Box<dyn DiagnosisSink>,
}

#[derive(Debug)]
struct Shard {
    queue: BoundedQueue,
    /// When this shard should next drain a batch; `Some` iff lines are
    /// queued (or a flush window is open).
    wakeup_at: Option<SimTime>,
    ops: usize,
    lines: u64,
    batches: u64,
    shed_counter: Counter,
    queue_wait: Histogram,
}

/// Per-gateway metric handles, cached so the hot path never locks the
/// registry.
#[derive(Debug)]
struct Metrics {
    submitted: Counter,
    processed: Counter,
    batches: Counter,
    shed_oldest: Counter,
    shed_newest: Counter,
    blocked: Counter,
    deferred: Counter,
    admission_denied: Counter,
    parse_json: Counter,
    parse_plain: Counter,
    parse_unclassified: Counter,
    queue_wait: Histogram,
    stall: Histogram,
    batch_fill: Histogram,
}

/// A callback the gateway fires when a sink's detection count rises
/// during a drain: the dispatcher hookup point for recovery storms. Runs
/// after the sink ingested the batch (so any engine-side diagnosis hooks
/// already fired) with the operation, the gateway-clock time, and the
/// number of new detections.
struct IncidentHook(Box<dyn FnMut(OpId, SimTime, usize)>);

impl fmt::Debug for IncidentHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("IncidentHook(..)")
    }
}

/// The sharded multi-tenant ingestion gateway. See the module docs.
#[derive(Debug)]
pub struct Gateway {
    config: GatewayConfig,
    clock: Clock,
    obs: Obs,
    shards: Vec<Shard>,
    ops: Vec<OpSlot>,
    metrics: Metrics,
    flight: FlightRecorder,
    incident_hook: Option<IncidentHook>,
}

impl Gateway {
    /// Creates a gateway with its own clock and observability handle.
    ///
    /// # Panics
    ///
    /// Panics when `config.shards`, `config.queue_capacity` or
    /// `config.batch_size` is zero.
    pub fn new(config: GatewayConfig) -> Gateway {
        assert!(config.shards > 0, "gateway needs at least one shard");
        assert!(config.batch_size > 0, "batch size must be non-zero");
        let clock = Clock::new();
        let obs = Obs::new(clock.clone());
        obs.begin_run("gateway");
        let shards = (0..config.shards)
            .map(|i| Shard {
                queue: BoundedQueue::new(config.queue_capacity),
                wakeup_at: None,
                ops: 0,
                lines: 0,
                batches: 0,
                shed_counter: obs.counter(format!("gateway.shard.{i}.shed")),
                queue_wait: obs.histogram(format!("gateway.shard.{i}.queue_wait_us")),
            })
            .collect();
        let metrics = Metrics {
            submitted: obs.counter("gateway.lines.submitted"),
            processed: obs.counter("gateway.lines.processed"),
            batches: obs.counter("gateway.batches"),
            shed_oldest: obs.counter("gateway.shed.oldest"),
            shed_newest: obs.counter("gateway.shed.newest"),
            blocked: obs.counter("gateway.backpressure.blocked"),
            deferred: obs.counter("gateway.deferred"),
            admission_denied: obs.counter("gateway.admission.denied"),
            parse_json: obs.counter("gateway.parse.json"),
            parse_plain: obs.counter("gateway.parse.plain"),
            parse_unclassified: obs.counter("gateway.parse.unclassified"),
            queue_wait: obs.histogram("gateway.queue_wait_us"),
            stall: obs.histogram("gateway.backpressure.stall_us"),
            batch_fill: obs.histogram("gateway.batch_fill"),
        };
        let flight = FlightRecorder::new(clock.clone(), obs.registry().clone());
        Gateway {
            config,
            clock,
            obs,
            shards,
            ops: Vec::new(),
            metrics,
            flight,
            incident_hook: None,
        }
    }

    /// Installs the incident hook: called whenever a sink's detection
    /// count rises during a drain, with the operation, the gateway-clock
    /// time, and the number of new detections. This is where a shared
    /// recovery dispatcher observes incidents on the gateway timeline
    /// (e.g. to refresh its in-flight/backlog gauges before the drain's
    /// flight-recorder tick frames them). Replaces any previous hook.
    pub fn set_incident_hook(&mut self, hook: impl FnMut(OpId, SimTime, usize) + 'static) {
        self.incident_hook = Some(IncidentHook(Box::new(hook)));
    }

    /// The gateway's observability handle (metrics live here).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The incident flight recorder: an incident mark per detection, and
    /// metric frames taken by the once-per-drain tick — every 30 virtual
    /// seconds, or one flush window after the last frame while marks are
    /// pending (see [`FlightRecorder`]).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The gateway's deterministic clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The shard a key would route to.
    pub fn route(&self, process_id: &str, instance_id: &str) -> usize {
        shard_for(process_id, instance_id, self.config.shards)
    }

    /// Registers an operation, subject to per-shard admission control.
    pub fn register(
        &mut self,
        process_id: impl Into<String>,
        instance_id: impl Into<String>,
        sink: Box<dyn DiagnosisSink>,
    ) -> Result<OpId, GatewayError> {
        let process_id = process_id.into();
        let instance_id = instance_id.into();
        let shard = self.route(&process_id, &instance_id);
        if self.shards[shard].ops >= self.config.max_ops_per_shard {
            self.metrics.admission_denied.incr();
            return Err(GatewayError::AdmissionDenied {
                shard,
                limit: self.config.max_ops_per_shard,
            });
        }
        self.shards[shard].ops += 1;
        let id = OpId(self.ops.len());
        self.ops.push(OpSlot {
            instance_id: instance_id.into(),
            shard,
            lines: 0,
            detections_seen: 0,
            sink,
        });
        Ok(id)
    }

    /// Submits one raw line for `op`, arriving at `arrival` gateway time.
    ///
    /// Arrival times must be non-decreasing across calls (the clock never
    /// goes backwards; an earlier arrival is treated as "now"). Due shard
    /// wakeups fire before the line is enqueued, so a slow producer sees
    /// the world drained up to its own arrival time.
    pub fn submit(&mut self, op: OpId, arrival: SimTime, raw: &str) {
        self.clock.advance_to(arrival);
        self.run_due();
        self.metrics.submitted.incr();
        let shard_idx = self.ops[op.0].shard;
        if self.shards[shard_idx].queue.len() >= self.config.batch_size {
            self.metrics.deferred.incr();
        }
        let line = QueuedLine {
            op,
            raw: raw.to_string(),
            enqueued_at: self.clock.now(),
        };
        match self.shards[shard_idx]
            .queue
            .offer(line, self.config.overload)
        {
            PushOutcome::Enqueued => {}
            PushOutcome::ShedOldest => {
                self.metrics.shed_oldest.incr();
                self.shards[shard_idx].shed_counter.incr();
            }
            PushOutcome::ShedNewest => {
                self.metrics.shed_newest.incr();
                self.shards[shard_idx].shed_counter.incr();
                // Nothing was enqueued, so no flush window opens.
                return;
            }
            PushOutcome::WouldBlock(mut line) => {
                // Backpressure: stall the producer while the shard drains
                // one batch synchronously, then enqueue the line, stamped
                // after the stall. The queue was full and a batch is at
                // least one line, so the drain made room.
                self.metrics.blocked.incr();
                let stall_start = self.clock.now();
                self.drain_one_batch(shard_idx, Reschedule::KeepWindow);
                self.metrics
                    .stall
                    .record(self.clock.now().duration_since(stall_start).as_micros());
                line.enqueued_at = self.clock.now();
                self.shards[shard_idx].queue.push(line);
            }
        }
        self.schedule_wakeup(shard_idx);
    }

    /// Opens the shard's flush window after an enqueue: the worker wakes
    /// one flush interval after the first line lands in an idle queue.
    fn schedule_wakeup(&mut self, shard_idx: usize) {
        let now = self.clock.now();
        let shard = &mut self.shards[shard_idx];
        if shard.wakeup_at.is_none() {
            shard.wakeup_at = Some(now + self.config.flush_interval);
        }
    }

    /// Fires every due wakeup, earliest (time, shard) first. Draining
    /// advances the clock, which can make further wakeups due.
    fn run_due(&mut self) {
        loop {
            let now = self.clock.now();
            let due = self
                .shards
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.wakeup_at.filter(|w| *w <= now).map(|w| (w, i)))
                .min();
            match due {
                Some((_, idx)) => {
                    self.drain_one_batch(idx, Reschedule::Immediate);
                }
                None => break,
            }
        }
    }

    /// Drains up to one batch from `shard_idx`, charging the batch cost to
    /// the gateway clock and delivering parsed lines to the sinks.
    fn drain_one_batch(&mut self, shard_idx: usize, reschedule: Reschedule) {
        let batch = self.shards[shard_idx]
            .queue
            .pop_batch(self.config.batch_size);
        if batch.is_empty() {
            self.shards[shard_idx].wakeup_at = None;
            return;
        }
        let service_start = self.clock.now();
        self.clock
            .advance(PER_BATCH_COST + PER_LINE_COST * batch.len() as u64);
        self.metrics.batch_fill.record(batch.len() as u64);
        self.metrics.batches.incr();

        // Parse at the edge, then group per operation preserving each
        // operation's line order (first-appearance order across groups).
        // Each group is one sink call: the engine polls its timers once,
        // after the group's last line.
        let mut groups: Vec<(usize, Vec<LogEvent>)> = Vec::new();
        // Parse-format tallies accumulate in locals and flush once per
        // batch: three counter bumps per drain instead of one per line.
        let (mut n_json, mut n_plain, mut n_unclassified) = (0u64, 0u64, 0u64);
        for line in batch {
            let wait = service_start.duration_since(line.enqueued_at).as_micros();
            self.shards[shard_idx].queue_wait.record(wait);
            // Tail waits carry an exemplar naming the operation and shard,
            // so a p99 read from the histogram links back to the run (and
            // its causal chain) that actually waited that long. The label
            // block only runs for reservoir-worthy values.
            let op_slot = &self.ops[line.op.0];
            self.metrics.queue_wait.record_with(wait, || Exemplar {
                value: wait,
                at: service_start,
                event: None,
                labels: vec![
                    ("op", AttrValue::Shared(Arc::clone(&op_slot.instance_id))),
                    ("shard", AttrValue::from(shard_idx)),
                ],
            });
            let parsed = parse_line(&line.raw, line.enqueued_at);
            match parsed.format {
                LineFormat::Json => n_json += 1,
                LineFormat::Plain => n_plain += 1,
                LineFormat::Unclassified => n_unclassified += 1,
            }
            match groups.iter_mut().find(|(op, _)| *op == line.op.0) {
                Some((_, events)) => events.push(parsed.event),
                None => groups.push((line.op.0, vec![parsed.event])),
            }
        }
        if n_json > 0 {
            self.metrics.parse_json.add(n_json);
        }
        if n_plain > 0 {
            self.metrics.parse_plain.add(n_plain);
        }
        if n_unclassified > 0 {
            self.metrics.parse_unclassified.add(n_unclassified);
        }
        for (op, events) in groups {
            let n = events.len() as u64;
            self.ops[op].lines += n;
            self.shards[shard_idx].lines += n;
            self.metrics.processed.add(n);
            self.ops[op].sink.ingest_batch(events);
            let detections = self.ops[op].sink.detections();
            let seen = self.ops[op].detections_seen;
            if detections > seen {
                self.ops[op].detections_seen = detections;
                if let Some(IncidentHook(hook)) = &mut self.incident_hook {
                    hook(OpId(op), self.clock.now(), detections - seen);
                }
                self.flight
                    .mark_incident(format!("{} detection", self.ops[op].instance_id));
            }
        }
        self.flight.tick();

        let shard = &mut self.shards[shard_idx];
        shard.batches += 1;
        match reschedule {
            Reschedule::Immediate => {
                // The shard worker keeps draining its backlog batch by
                // batch before going back to sleep.
                shard.wakeup_at = if shard.queue.is_empty() {
                    None
                } else {
                    Some(self.clock.now())
                };
            }
            Reschedule::KeepWindow => {
                // A blocked producer stole one batch from the worker; the
                // worker's own flush window stays as scheduled.
            }
        }
    }

    /// Drains every queue to empty, advancing the clock through pending
    /// flush windows.
    pub fn pump_until_idle(&mut self) {
        loop {
            self.run_due();
            let next = self
                .shards
                .iter()
                .filter(|s| !s.queue.is_empty())
                .filter_map(|s| s.wakeup_at)
                .min();
            match next {
                Some(t) => {
                    self.clock.advance_to(t);
                }
                None => break,
            }
        }
    }

    /// Drains everything, finalises every sink and returns per-operation
    /// reports in registration order.
    pub fn finish(&mut self) -> Vec<OpReport> {
        self.pump_until_idle();
        self.ops
            .iter_mut()
            .map(|slot| OpReport {
                shard: slot.shard,
                lines: slot.lines,
                summary: slot.sink.finish(),
            })
            .collect()
    }

    /// Point-in-time statistics, read from the gateway's own metric
    /// handles.
    pub fn stats(&self) -> GatewayStats {
        let m = &self.metrics;
        GatewayStats {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardStats {
                    shard: i,
                    ops: s.ops,
                    lines: s.lines,
                    shed: s.shed_counter.get(),
                    batches: s.batches,
                    queue_wait_us: Some(s.queue_wait.snapshot()).filter(|h| h.count > 0),
                })
                .collect(),
            lines_submitted: m.submitted.get(),
            lines_processed: m.processed.get(),
            shed_oldest: m.shed_oldest.get(),
            shed_newest: m.shed_newest.get(),
            blocked: m.blocked.get(),
            deferred: m.deferred.get(),
            admission_denied: m.admission_denied.get(),
            batches: m.batches.get(),
            parsed_json: m.parse_json.get(),
            parsed_plain: m.parse_plain.get(),
            unclassified: m.parse_unclassified.get(),
            virtual_elapsed: self.clock.now().duration_since(SimTime::ZERO),
        }
    }
}
