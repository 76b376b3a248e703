//! The gateway soak: many interleaved faulty upgrades replayed through
//! `pod-gateway` in two phases.
//!
//! **Phase A ([`collect_streams`])** runs each upgrade independently on its
//! own simulated cloud, injecting one fault per operation (cycling through
//! all eight types), applying shared-account interference to every n-th
//! operation and sprinkling plaintext application noise — and serializes
//! every log line to its raw wire form (Logstash JSON for operation lines,
//! bare text for noise).
//!
//! **Phase B ([`replay`])** merges all streams by arrival time into one
//! interleaved feed and pushes it through a single [`Gateway`], with one
//! freshly built `pod_core` engine per operation as the sink. Detections
//! arise at replay time. A tenant's lines arrive seconds apart and the
//! flush window is 20 ms, so a sink call carries 1.1–1.4 lines (measured;
//! DESIGN §7): parsing and token replay are per-line work.
//!
//! Everything runs on deterministic virtual clocks, so the same
//! [`SoakConfig`] always produces a byte-identical [`SoakReport::digest`].
//!
//! [`replay_telemetry`] runs the same replay under an explicit
//! [`TelemetryMode`]: `Off` records no spans/events at all (the overhead
//! baseline), `Sampled` records everything but *retains* per-operation
//! traces only when the tail-based [`TailSampler`] keeps them (detections,
//! errors, degradation warnings and tail-latency exemplars are never
//! discarded), and `Full` retains every trace. The mode never changes the
//! detections — [`SoakReport::digest`] is byte-identical across all three.
//!
//! [`replay_with_recovery`] adds the recovery stage on top: every
//! per-tenant engine's diagnosis hook feeds that tenant's own
//! [`RecoveryDispatcher`], and the dispatchers' repairs contend for the
//! lanes of one shared [`RecoveryStorm`] — the only recovery state the
//! tenants share. Repairs that would queue past the lane-wait cap are
//! parked for the tenant's end-of-operation sweep — deferred, never
//! dropped — and every lane wait and throttle penalty is charged to the
//! repairing tenant's virtual clock, so the per-tenant MTTR honestly
//! reflects the load.
//! The recovery transcript folds into [`SoakReport::digest`]: same seed
//! + same interleaving ⇒ byte-identical even under maximal contention.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use pod_core::Detection;
use pod_gateway::{Gateway, GatewayConfig, GatewayStats, OpId};
use pod_log::LogEvent;
use pod_obs::{FlightDump, RunSignals, SampleVerdict, TailSampler, TelemetryMode};
use pod_orchestrator::{Advance, FaultType, Interference, NoiseGenerator, RollingUpgrade};
use pod_recovery::{
    DispatchRecord, RecoveryDispatcher, RecoveryPath, RecoveryStorm, StormConfig, StormStats,
};
use pod_sim::{SimRng, SimTime};

use crate::campaign::RecoveryTally;
use crate::profile::{stage_self_times, LatencyProfile};
use crate::scenario::{build_engine, build_scenario, Injection, Scenario, ScenarioConfig};
use crate::timing::TimingStats;

/// Knobs of the soak.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Concurrent operations to run and interleave. Default 64.
    pub ops: usize,
    /// Master seed; every operation derives its own.
    pub seed: u64,
    /// Per-tick probability of a plaintext application-noise line.
    pub noise_rate: f64,
    /// Every n-th operation suffers an injected fault (cycling through all
    /// eight types); the rest run healthy. 1 = every operation is faulty
    /// (the default, and the historical behavior), 0 = no faults. A
    /// mostly-healthy mix is what gives tail-based sampling something to
    /// discard — see the `obs_overhead` bench.
    pub fault_every: usize,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            ops: 64,
            seed: 2014,
            noise_rate: 0.05,
            fault_every: 1,
        }
    }
}

/// One operation's phase-A product: its scenario (retained so the replay
/// can build an engine against the same cloud) and its raw line stream.
#[derive(Debug)]
pub struct OpStream {
    /// The fault injected into this operation (`None` = healthy run).
    pub fault: Option<FaultType>,
    /// The scenario the upgrade ran on (cloud state is post-upgrade).
    pub scenario: Scenario,
    /// The scenario's configuration (needed to rebuild the engine).
    pub scenario_config: ScenarioConfig,
    /// Whether the orchestrator completed the upgrade.
    pub upgrade_completed: bool,
    /// The raw wire lines, in arrival order: (arrival time, raw text).
    pub lines: Vec<(SimTime, String)>,
    /// Every `i-…` instance token mentioned in this operation's own lines,
    /// sorted (the ground truth for the cross-operation leak check).
    pub tokens: Box<[Box<str>]>,
}

impl OpStream {
    /// Whether this operation's own lines mention instance `token`.
    pub fn mentions(&self, token: &str) -> bool {
        self.tokens.binary_search_by(|t| (**t).cmp(token)).is_ok()
    }
}

/// The phase-A product: every operation's stream.
#[derive(Debug)]
pub struct SoakStreams {
    /// One stream per operation.
    pub ops: Vec<OpStream>,
    /// Total raw lines across all streams.
    pub lines_total: u64,
}

/// One operation's replay result.
#[derive(Debug)]
pub struct SoakOpResult {
    /// The operation's trace id (its gateway instance id).
    pub trace_id: String,
    /// The injected fault (`None` = healthy run).
    pub fault: Option<FaultType>,
    /// The shard that served the operation.
    pub shard: usize,
    /// Lines the gateway delivered to the operation's engine.
    pub lines_delivered: u64,
    /// Detections the engine raised at replay.
    pub detections: usize,
    /// Whether the phase-A upgrade completed.
    pub upgrade_completed: bool,
    /// The canonical detection digest (see `pod_core::RunSummary::digest`).
    pub digest: String,
    /// The tail-sampling verdict for this operation's trace
    /// ([`TelemetryMode::Sampled`] only; `None` means no sampling ran —
    /// everything retained under `Full`, nothing recorded under `Off`).
    pub verdict: Option<SampleVerdict>,
}

/// The replay result: per-operation outcomes plus gateway-level statistics.
#[derive(Debug)]
pub struct SoakReport {
    /// Per-operation results, in stream order.
    pub ops: Vec<SoakOpResult>,
    /// Gateway statistics (throughput, backpressure, per-shard waits).
    pub stats: GatewayStats,
    /// The gateway's full pod-obs metric snapshot.
    pub snapshot: pod_obs::Snapshot,
    /// Replay-time latency budget per fault type (p50/p95/p99 per stage).
    pub latency: LatencyProfile,
    /// Total raw lines across all streams.
    pub lines_total: u64,
    /// Cross-operation leakage findings (must be empty).
    pub leaks: Vec<String>,
    /// The telemetry mode the replay ran under.
    pub mode: TelemetryMode,
    /// Operation traces retained (all of them under `Full`, the sampler's
    /// keep set under `Sampled`, zero under `Off`).
    pub kept_traces: usize,
    /// Operation traces recorded but discarded by the sampler.
    pub discarded_traces: usize,
    /// Incident chains reconstructed across all retained traces.
    pub incidents: usize,
    /// The gateway's flight-recorder black box.
    pub flight: FlightDump,
    /// The recovery stage's outcome ([`replay_with_recovery`] only).
    pub recovery: Option<SoakRecoveryReport>,
}

impl SoakReport {
    /// A canonical byte string over every operation's detections and the
    /// gateway statistics: two runs from the same seed must match exactly.
    /// When the recovery stage ran, the full recovery transcript (every
    /// tenant's runs, paths and log lines) is part of the digest. A caller
    /// may keep the digest as a reference for a whole run, so it is built
    /// at its length, in one allocation.
    pub fn digest(&self) -> String {
        let heads: Vec<String> = self
            .ops
            .iter()
            .map(|op| {
                format!(
                    "== {} fault={:?} shard={} delivered={} ==\n",
                    op.trace_id, op.fault, op.shard, op.lines_delivered
                )
            })
            .collect();
        let stats = format!("{}\n", self.stats.to_json());
        let storm = self.recovery.as_ref().map(|rec| {
            let s = rec.stats;
            format!(
                "== recovery storm: requests={} admitted={} throttled={} deferred={} swept={} \
                 peak_concurrent={} ==\n",
                s.requests, s.admitted, s.throttled, s.deferred, s.swept, s.peak_concurrent
            )
        });
        let mut parts: Vec<&str> = Vec::new();
        for (head, op) in heads.iter().zip(&self.ops) {
            parts.extend([head, &op.digest, "\n"]);
        }
        parts.push(&stats);
        if let (Some(rec), Some(storm)) = (&self.recovery, &storm) {
            parts.push(storm);
            parts.extend(rec.tenants.iter().map(|t| t.transcript.as_str()));
        }
        parts.concat()
    }
}

/// One tenant's recovery-under-load outcome.
#[derive(Debug)]
pub struct TenantRecoveryResult {
    /// The tenant's trace id (its gateway instance id).
    pub trace_id: String,
    /// The fault injected into the tenant's upgrade.
    pub fault: Option<FaultType>,
    /// Recovery runs owed: one per diagnosed detection.
    pub attempted: usize,
    /// Runs that reached a verified repair.
    pub recovered: usize,
    /// Runs that exhausted the plan ladder and escalated.
    pub escalated: usize,
    /// Runs shed by the admission gate and executed by the sweep.
    pub deferred_swept: usize,
    /// Eager runs the shared API throttled.
    pub throttled: usize,
    /// MTTR-under-load samples (detection → verified repair, including
    /// lane waits and throttle penalties).
    pub mttr: TimingStats,
    /// The tenant's canonical recovery transcript.
    pub transcript: String,
}

/// The recovery stage's aggregate outcome across every tenant.
#[derive(Debug)]
pub struct SoakRecoveryReport {
    /// The contention knobs the storm ran under.
    pub config: StormConfig,
    /// Per-tenant results, in stream order.
    pub tenants: Vec<TenantRecoveryResult>,
    /// Recovery runs owed: one per diagnosed detection, across tenants.
    pub attempted: usize,
    /// Runs that reached a verified repair (any path).
    pub recovered: usize,
    /// Runs that escalated (any path).
    pub escalated: usize,
    /// Runs shed to the sweep — deferred then executed, never dropped.
    pub deferred_swept: usize,
    /// Eager runs the shared API throttled.
    pub throttled: usize,
    /// The storm's exact admission accounting.
    pub stats: StormStats,
    /// MTTR-under-load distribution across all tenants.
    pub mttr: TimingStats,
}

impl SoakRecoveryReport {
    /// The full recovery transcript: every tenant's runs in stream order.
    /// Byte-identical across same-seed replays.
    pub fn transcript(&self) -> String {
        self.tenants.iter().map(|t| t.transcript.as_str()).collect()
    }

    /// The headline storm invariant: no incident is ever dropped.
    /// `recovered + escalated == attempted` (every diagnosed detection
    /// owed a run reached a terminal state), and the gate's own ledger
    /// balances.
    pub fn none_dropped(&self) -> bool {
        self.recovered + self.escalated == self.attempted
            && self.stats.admitted + self.stats.deferred == self.stats.requests
            && self.stats.swept == self.stats.deferred
            && self.stats.throttled <= self.stats.admitted
    }
}

/// Collects every `i-…` instance token in `text` into `out` (used to
/// establish which cloud instances each operation's lines mention).
fn instance_tokens<'a>(text: &'a str, out: &mut BTreeSet<&'a str>) {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find("i-") {
        let start = from + pos;
        let clean_boundary = start == 0 || !bytes[start - 1].is_ascii_alphanumeric();
        let mut end = start + 2;
        while end < bytes.len() && bytes[end].is_ascii_alphanumeric() {
            end += 1;
        }
        if clean_boundary && end > start + 2 {
            out.insert(&text[start..end]);
        }
        from = start + 2;
    }
}

/// Runs one upgrade of phase A: serializes operation lines, injects the
/// fault at orchestrator safe points (configuration faults wait for the
/// upgrade launch configuration, like the campaign) and emits plaintext
/// noise.
struct SoakCollector<'s> {
    scenario: &'s Scenario,
    injection: Option<Injection>,
    interference: Option<(SimTime, Interference)>,
    noise: NoiseGenerator,
    rng: SimRng,
    lines: Vec<(SimTime, String)>,
    /// Reused to render each JSON line, which is then stored at its exact
    /// size rather than at the capacity its rendering grew to.
    render: String,
}

impl SoakCollector<'_> {
    fn on_log(&mut self, event: LogEvent) {
        // Operation lines travel as Logstash JSON, exactly as a shipper
        // would put them on the wire.
        self.render.clear();
        let _ = event.write_wire(&mut self.render);
        self.lines
            .push((event.timestamp, self.render.as_str().into()));
    }

    fn at_safe_point(&mut self, now: SimTime) {
        if let Some(injection) = &mut self.injection {
            injection.tick(self.scenario, now, &mut self.rng);
        }
        if let Some((at, kind)) = self.interference {
            if now >= at {
                kind.apply(&self.scenario.cloud, &self.scenario.upgrade, &mut self.rng);
                self.interference = None;
            }
        }
        // Shared-account application noise arrives as bare plaintext.
        if let Some(noise) = self.noise.maybe_emit(now) {
            self.lines.push((now, noise.message));
        }
    }
}

/// One operation's deterministic plan.
struct OpPlan {
    fault: Option<FaultType>,
    scenario: ScenarioConfig,
    inject_at: SimTime,
    interference: Option<(SimTime, Interference)>,
}

/// Every n-th operation also suffers a shared-account interference
/// operation (scale-out or random termination).
const INTERFERENCE_EVERY: usize = 4;

fn plan_ops(config: &SoakConfig) -> Vec<OpPlan> {
    let mut rng = SimRng::seed_from(config.seed);
    let mut seen_seeds = BTreeSet::new();
    (0..config.ops)
        .map(|i| {
            let mut seed = rng.uniform_u64(1, u64::MAX - 1);
            while !seen_seeds.insert(seed) {
                seed = rng.uniform_u64(1, u64::MAX - 1);
            }
            let interference = (i + 1).is_multiple_of(INTERFERENCE_EVERY).then(|| {
                let kind = if rng.chance(0.5) {
                    Interference::ScaleOut
                } else {
                    Interference::RandomTermination
                };
                (SimTime::from_secs(rng.uniform_u64(30, 160)), kind)
            });
            // Faulty ops cycle through all eight types so every type stays
            // covered regardless of the healthy/faulty mix.
            let fault = (config.fault_every > 0 && i.is_multiple_of(config.fault_every))
                .then(|| FaultType::all()[(i / config.fault_every) % 8]);
            OpPlan {
                fault,
                scenario: ScenarioConfig {
                    seed,
                    ..ScenarioConfig::default()
                },
                inject_at: SimTime::from_secs(rng.uniform_u64(15, 160)),
                interference,
            }
        })
        .collect()
}

fn collect_one(plan: &OpPlan, noise_rate: f64) -> OpStream {
    Injection::retry_earlier(plan.inject_at, |inject_at| {
        let scenario = build_scenario(&plan.scenario);
        scenario.cloud.obs().begin_run(&scenario.trace_id);
        let mut collector = SoakCollector {
            scenario: &scenario,
            injection: plan.fault.map(|fault| Injection::new(fault, inject_at)),
            interference: plan.interference,
            noise: NoiseGenerator::new(SimRng::seed_from(plan.scenario.seed ^ 0x5048), noise_rate),
            rng: SimRng::seed_from(plan.scenario.seed ^ 0xD1A6),
            lines: Vec::new(),
            render: String::new(),
        };
        let mut upgrade = RollingUpgrade::new(
            scenario.cloud.clone(),
            scenario.upgrade.clone(),
            scenario.trace_id.clone(),
        );
        let report = loop {
            match upgrade.advance(&mut |event| collector.on_log(event)) {
                Advance::SafePoint(now) => collector.at_safe_point(now),
                Advance::Done(report) => break report,
            }
        };
        let landed = collector.injection.is_none_or(|i| i.at.is_some());
        // The stream is kept until the replay: at its length, not at the
        // capacity it grew to.
        let mut lines = collector.lines;
        lines.shrink_to_fit();
        let mut mentioned = BTreeSet::new();
        for (_, raw) in &lines {
            instance_tokens(raw, &mut mentioned);
        }
        let tokens = mentioned.into_iter().map(Box::from).collect();
        let stream = OpStream {
            fault: plan.fault,
            scenario,
            scenario_config: plan.scenario.clone(),
            upgrade_completed: report.outcome.is_success(),
            lines,
            tokens,
        };
        (stream, landed)
    })
}

/// Phase A: runs every operation's upgrade on its own cloud and collects
/// the raw line streams.
pub fn collect_streams(config: &SoakConfig) -> SoakStreams {
    let ops: Vec<OpStream> = plan_ops(config)
        .iter()
        .map(|plan| collect_one(plan, config.noise_rate))
        .collect();
    let lines_total = ops.iter().map(|o| o.lines.len() as u64).sum();
    SoakStreams { ops, lines_total }
}

/// Phase B: merges all streams by arrival time and replays them through
/// one gateway, with a freshly built engine per operation as the sink,
/// under `mode`. The mode gates only the trace side (spans, causal
/// events, incident reconstruction); metrics, detections and
/// [`SoakReport::digest`] are byte-identical across modes.
pub fn replay_telemetry(
    streams: &SoakStreams,
    gateway: &GatewayConfig,
    mode: TelemetryMode,
) -> SoakReport {
    replay_inner(streams, gateway, mode, None)
}

/// Phase B with the recovery stage wired in: one [`RecoveryDispatcher`]
/// per tenant, all repairing through the lanes of one shared
/// [`RecoveryStorm`].
/// Repairs mutate the per-tenant clouds, so a second same-seed run needs
/// fresh [`collect_streams`] output — against which the full report
/// digest (recovery transcript included) is byte-identical.
pub fn replay_with_recovery(
    streams: &SoakStreams,
    gateway: &GatewayConfig,
    storm: StormConfig,
) -> SoakReport {
    replay_inner(streams, gateway, TelemetryMode::Full, Some(storm))
}

fn replay_inner(
    streams: &SoakStreams,
    gateway: &GatewayConfig,
    mode: TelemetryMode,
    storm_config: Option<StormConfig>,
) -> SoakReport {
    // A replay registers every stream by construction, so the per-shard
    // admission limit is raised to whatever the input needs.
    let mut gw = Gateway::new(GatewayConfig {
        max_ops_per_shard: gateway.max_ops_per_shard.max(streams.ops.len()),
        ..gateway.clone()
    });
    gw.obs().set_mode(mode);
    let sampler = TailSampler::new(gw.obs().registry());
    // The storm arbitrates on the gateway clock and reports into the
    // gateway's obs handle, so flight frames capture storm pressure.
    let storm = storm_config.map(|cfg| {
        Rc::new(RefCell::new(RecoveryStorm::new(
            gw.obs(),
            gw.clock().clone(),
            cfg,
        )))
    });
    let mut op_ids: Vec<OpId> = Vec::with_capacity(streams.ops.len());
    let mut dispatchers = Vec::with_capacity(streams.ops.len());
    for stream in &streams.ops {
        // A fresh trace per replay so the latency budget covers exactly
        // the replay-time work (conformance, assertions, diagnosis).
        stream.scenario.cloud.obs().set_mode(mode);
        stream
            .scenario
            .cloud
            .obs()
            .begin_run(&stream.scenario.trace_id);
        let mut engine = build_engine(&stream.scenario, &stream.scenario_config);
        if let Some(storm) = &storm {
            let dispatcher = Rc::new(RefCell::new(RecoveryDispatcher::new(
                stream.scenario.cloud.clone(),
                stream.scenario.storage.clone(),
                stream.scenario.env.clone(),
                stream.scenario.trace_id.clone(),
                Some(Rc::clone(storm)),
            )));
            let hook = Rc::clone(&dispatcher);
            engine.set_diagnosis_hook(move |i, d| hook.borrow_mut().on_diagnosis(i, d));
            dispatchers.push(dispatcher);
        }
        let process_id = engine.process_id().to_string();
        let op = gw
            .register(
                process_id,
                stream.scenario.trace_id.clone(),
                Box::new(engine),
            )
            .expect("the admission limit was raised to the stream count");
        op_ids.push(op);
    }
    if let Some(storm) = &storm {
        // Each new detection refreshes the storm's in-flight and backlog
        // gauges before the drain's flight-recorder tick, so the frame
        // that closes the incident window holds them as of its last mark.
        let hook = Rc::clone(storm);
        gw.set_incident_hook(move |_op, now, _new| hook.borrow_mut().observe(now));
    }

    // Merge every stream into one feed ordered by (arrival, op, seq) —
    // the deterministic interleaving of 64 concurrent producers.
    let mut merged: Vec<(SimTime, usize, usize)> = Vec::with_capacity(streams.lines_total as usize);
    for (i, stream) in streams.ops.iter().enumerate() {
        for (seq, (at, _)) in stream.lines.iter().enumerate() {
            merged.push((*at, i, seq));
        }
    }
    merged.sort_unstable();
    for (at, i, seq) in merged {
        gw.submit(op_ids[i], at, &streams.ops[i].lines[seq].1);
    }

    let reports = gw.finish();
    let stats = gw.stats();

    // Recovery stage wrap-up: every tenant's dispatcher runs the repairs
    // the storm shed and its deferred reviews on the quiet post-soak path
    // — before the metric snapshot, so `recovery.storm.*` accounting is
    // final in it.
    let recovery = storm.as_ref().map(|storm| {
        let mut all = RecoveryTally::default();
        let tenants = streams.ops.iter().zip(&reports).zip(&dispatchers);
        let tenants = tenants.map(|((stream, report), dispatcher)| {
            let records = dispatcher.borrow_mut().finish(&report.summary.detections);
            tenant_recovery(stream, &report.summary.detections, &records, &mut all)
        });
        let tenants = tenants.collect();
        storm_report(&storm.borrow(), tenants, all)
    });

    // Operations a gateway tail-latency exemplar points at: their traces
    // are keep-worthy even when otherwise healthy, so a p99 read from the
    // queue-wait histogram always links to a retained trace.
    let tail_ops: BTreeSet<String> = gw
        .obs()
        .histogram("gateway.queue_wait_us")
        .exemplars()
        .iter()
        .filter_map(|e| {
            e.labels
                .iter()
                .find(|&&(k, _)| k == "op")
                .map(|(_, v)| v.to_string())
        })
        .collect();

    let mut latency = LatencyProfile::new();
    let mut ops = Vec::with_capacity(streams.ops.len());
    let mut leaks = Vec::new();
    let mut kept_traces = 0usize;
    let mut discarded_traces = 0usize;
    let mut incidents_total = 0usize;
    for (i, (stream, report)) in streams.ops.iter().zip(&reports).enumerate() {
        let obs = stream.scenario.cloud.obs();
        let trace_id = &stream.scenario.trace_id;
        // Degradation warnings attributable to this operation: shedding on
        // its shard.
        let shard_shed = stats.shards.get(report.shard).map_or(0, |s| s.shed);
        let signals = RunSignals {
            trace_id: trace_id.clone(),
            detections: report.summary.detections.len(),
            errors: report.summary.conformance_errors,
            warnings: (shard_shed > 0) as usize,
            tail_exemplar: tail_ops.contains(trace_id),
        };
        let verdict = match mode {
            TelemetryMode::Sampled => Some(sampler.decide(&signals)),
            TelemetryMode::Off | TelemetryMode::Full => None,
        };
        let retained = match mode {
            TelemetryMode::Off => false,
            TelemetryMode::Sampled => verdict.is_some_and(SampleVerdict::keep),
            TelemetryMode::Full => true,
        };
        // Only retained traces pay for latency attribution and incident
        // reconstruction — that is where sampled mode earns its overhead
        // budget without ever dropping an incident-relevant run.
        if retained {
            if let Some(fault) = stream.fault {
                // Zero-clone accounting: the records are read in place —
                // deep-copying the ring here would cost more than the
                // telemetry being measured.
                latency.record(fault, &obs.events().with_records(stage_self_times));
            }
            incidents_total += obs.events().with_records(pod_obs::incident_count);
            kept_traces += 1;
        } else if mode == TelemetryMode::Sampled {
            discarded_traces += 1;
        }
        let digest = report.summary.digest();
        // Leak check: a detection referencing an instance that only other
        // operations' lines mention means a line crossed operations.
        let mut mentioned = BTreeSet::new();
        instance_tokens(&digest, &mut mentioned);
        for token in mentioned {
            if !stream.mentions(token)
                && streams
                    .ops
                    .iter()
                    .enumerate()
                    .any(|(j, other)| j != i && other.mentions(token))
            {
                leaks.push(format!(
                    "{}: detection references foreign instance {token}",
                    stream.scenario.trace_id
                ));
            }
        }
        ops.push(SoakOpResult {
            trace_id: stream.scenario.trace_id.clone(),
            fault: stream.fault,
            shard: report.shard,
            lines_delivered: report.lines,
            detections: report.summary.detections.len(),
            upgrade_completed: stream.upgrade_completed,
            digest,
            verdict,
        });
    }
    // Snapshot after the sampling pass so `obs.sampler.*` accounting (and
    // the queue-wait tail exemplars) are part of the report.
    let snapshot = gw.obs().snapshot();
    let flight = gw.flight().dump();
    SoakReport {
        ops,
        stats,
        snapshot,
        latency,
        lines_total: streams.lines_total,
        leaks,
        mode,
        kept_traces,
        discarded_traces,
        incidents: incidents_total,
        flight,
        recovery,
    }
}

/// One tenant's recovery wrap-up: its finished runs, in detection order,
/// tallied against the diagnosed detections that each owe one. Adds the
/// tenant's tally to `all`.
fn tenant_recovery(
    stream: &OpStream,
    detections: &[Detection],
    records: &[DispatchRecord],
    all: &mut RecoveryTally,
) -> TenantRecoveryResult {
    use std::fmt::Write as _;
    let mut tally = RecoveryTally {
        attempted: detections.iter().filter(|d| d.diagnosis.is_some()).count(),
        ..RecoveryTally::default()
    };
    all.attempted += tally.attempted;
    let (trace_id, fault) = (stream.scenario.trace_id.clone(), stream.fault);
    let mut transcript = format!("== {trace_id} fault={fault:?} ==\n");
    let (mut deferred_swept, mut throttled) = (0usize, 0usize);
    for rec in records {
        tally.add(&rec.run);
        all.add(&rec.run);
        match rec.path {
            RecoveryPath::DeferredSwept => deferred_swept += 1,
            RecoveryPath::Eager { throttled: true } => throttled += 1,
            _ => {}
        }
        let _ = writeln!(
            transcript,
            "-- incident {} path={} --\n{}",
            rec.detection_index,
            rec.path.tag(),
            rec.run.digest()
        );
    }
    // Kept in the report for the whole run: at its length.
    transcript.shrink_to_fit();
    TenantRecoveryResult {
        trace_id,
        fault,
        attempted: tally.attempted,
        recovered: tally.recovered,
        escalated: tally.escalated,
        deferred_swept,
        throttled,
        mttr: TimingStats::new(tally.mttr),
        transcript,
    }
}

/// The recovery stage's report: every tenant's wrap-up, their sum `all`,
/// and the storm's own ledger.
fn storm_report(
    storm: &RecoveryStorm,
    tenants: Vec<TenantRecoveryResult>,
    all: RecoveryTally,
) -> SoakRecoveryReport {
    SoakRecoveryReport {
        config: storm.config().clone(),
        attempted: all.attempted,
        recovered: all.recovered,
        escalated: all.escalated,
        deferred_swept: tenants.iter().map(|t| t.deferred_swept).sum(),
        throttled: tenants.iter().map(|t| t.throttled).sum(),
        tenants,
        stats: storm.stats(),
        mttr: TimingStats::new(all.mttr),
    }
}

/// Renders the soak result as plain text: headline, per-fault detection
/// counts, the gateway section and the replay latency budget.
pub fn render_soak_report(report: &SoakReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let completed = report.ops.iter().filter(|o| o.upgrade_completed).count();
    let detections: usize = report.ops.iter().map(|o| o.detections).sum();
    let _ = writeln!(out, "== pod-gateway soak report ==");
    let _ = writeln!(
        out,
        "operations: {} ({} upgrades completed), raw lines: {}, detections at replay: {}",
        report.ops.len(),
        completed,
        report.lines_total,
        detections
    );
    match report.leaks.len() {
        0 => {
            let _ = writeln!(out, "cross-operation leakage: none");
        }
        n => {
            let _ = writeln!(out, "cross-operation leakage: {n} FINDING(S)");
            for leak in &report.leaks {
                let _ = writeln!(out, "  LEAK: {leak}");
            }
        }
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "-- detections by fault type --");
    for fault in FaultType::all() {
        let ops: Vec<&SoakOpResult> = report
            .ops
            .iter()
            .filter(|o| o.fault == Some(fault))
            .collect();
        if ops.is_empty() {
            continue;
        }
        let det: usize = ops.iter().map(|o| o.detections).sum();
        let _ = writeln!(
            out,
            "{:<42} {:>3} ops {:>5} detections",
            fault.to_string(),
            ops.len(),
            det
        );
    }
    let healthy: Vec<&SoakOpResult> = report.ops.iter().filter(|o| o.fault.is_none()).collect();
    if !healthy.is_empty() {
        let det: usize = healthy.iter().map(|o| o.detections).sum();
        let _ = writeln!(
            out,
            "{:<42} {:>3} ops {:>5} detections",
            "(healthy, no fault injected)",
            healthy.len(),
            det
        );
    }
    let _ = writeln!(out);
    out.push_str(&crate::report::render_gateway_report(&report.stats));
    let _ = writeln!(out);
    let _ = writeln!(out, "-- telemetry: mode {} --", report.mode);
    let _ = writeln!(
        out,
        "traces retained: {} kept, {} discarded, {} incident chains reconstructed",
        report.kept_traces, report.discarded_traces, report.incidents
    );
    if report.mode == TelemetryMode::Sampled {
        for reason in ["detection", "error", "warning", "tail-exemplar", "healthy"] {
            let n = report
                .snapshot
                .counter(&format!("obs.sampler.kept.{reason}"));
            if n > 0 {
                let _ = writeln!(out, "  kept ({reason}): {n}");
            }
        }
    }
    let tail = report.snapshot.exemplars("gateway.queue_wait_us");
    if !tail.is_empty() {
        let _ = writeln!(out, "queue-wait tail exemplars (worst first):");
        for e in tail.iter().take(4) {
            let labels: Vec<String> = e.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(
                out,
                "  {:>8} us at {} [{}]",
                e.value,
                e.at,
                labels.join(", ")
            );
        }
    }
    let _ = writeln!(
        out,
        "flight recorder: {} frames, {} incident marks ({} frames evicted)",
        report.flight.frames.len(),
        report.flight.incidents.len(),
        report.flight.evicted_frames
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "-- replay latency budget: per-stage self time, p50/p95/p99 per fault type --"
    );
    out.push_str(&report.latency.render());
    if let Some(rec) = &report.recovery {
        let _ = writeln!(out);
        out.push_str(&render_recovery_soak(rec));
    }
    out
}

/// Renders the recovery stage: the no-drop invariant, the admission
/// gate's ledger, the aggregate MTTR-under-load distribution and the most
/// contended tenants.
pub fn render_recovery_soak(rec: &SoakRecoveryReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "-- recovery storm: {} tenants, {} lanes, throttle beyond {} in flight --",
        rec.tenants.len(),
        rec.config.lanes,
        rec.config.throttle_at
    );
    let _ = writeln!(
        out,
        "incidents: {} attempted = {} recovered + {} escalated ({})",
        rec.attempted,
        rec.recovered,
        rec.escalated,
        if rec.none_dropped() {
            "none dropped"
        } else {
            "ACCOUNTING BROKEN"
        }
    );
    let review = rec
        .attempted
        .saturating_sub(rec.stats.admitted as usize)
        .saturating_sub(rec.deferred_swept);
    let _ = writeln!(
        out,
        "paths: {} eager ({} throttled by the shared API), {} deferred then swept, {} step-less \
         reviews",
        rec.stats.admitted, rec.throttled, rec.deferred_swept, review
    );
    let _ = writeln!(
        out,
        "admission gate: {} requests = {} admitted + {} deferred (all {} swept), peak {} \
         repairs in flight",
        rec.stats.requests,
        rec.stats.admitted,
        rec.stats.deferred,
        rec.stats.swept,
        rec.stats.peak_concurrent
    );
    if !rec.mttr.is_empty() {
        let _ = writeln!(
            out,
            "MTTR under load: p50 {}us, p95 {}us, max {}us over {} verified repairs",
            rec.mttr.percentile(0.5).as_micros(),
            rec.mttr.percentile(0.95).as_micros(),
            rec.mttr.max().as_micros(),
            rec.mttr.len()
        );
    }
    let mut contended: Vec<&TenantRecoveryResult> =
        rec.tenants.iter().filter(|t| !t.mttr.is_empty()).collect();
    contended.sort_by_key(|t| std::cmp::Reverse(t.mttr.percentile(0.95)));
    if !contended.is_empty() {
        let _ = writeln!(out, "most contended tenants (MTTR p95, worst first):");
        for t in contended.iter().take(8) {
            let _ = writeln!(
                out,
                "  {:<12} {:>2} incidents ({:>2} swept, {:>2} throttled)  p50 {:>9}us  p95 \
                 {:>9}us  {}",
                t.trace_id,
                t.attempted,
                t.deferred_swept,
                t.throttled,
                t.mttr.percentile(0.5).as_micros(),
                t.mttr.percentile(0.95).as_micros(),
                t.fault.map_or("healthy".to_string(), |f| f.to_string())
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_gateway::OverloadPolicy;
    use pod_sim::SimDuration;

    fn small_config() -> SoakConfig {
        SoakConfig {
            ops: 4,
            seed: 11,
            ..SoakConfig::default()
        }
    }

    #[test]
    fn block_replay_is_lossless_and_leak_free() {
        let streams = collect_streams(&small_config());
        assert_eq!(streams.ops.len(), 4);
        assert!(streams.lines_total > 0);
        let report = replay_telemetry(&streams, &GatewayConfig::default(), TelemetryMode::Full);
        assert!(report.leaks.is_empty(), "{:?}", report.leaks);
        // Block policy: every collected line reaches its engine.
        assert_eq!(report.stats.lines_processed, streams.lines_total);
        assert_eq!(report.stats.total_shed(), 0);
        assert!(report.ops.iter().all(|o| o.lines_delivered > 0));
        // Every op's fault landed: its detections name the fault's root cause.
        for op in &report.ops {
            let cause = op.fault.expect("every op is faulty").expected_root_cause();
            assert!(op.digest.contains(cause), "{}: no {cause}", op.trace_id);
        }
        assert!(!report.latency.is_empty());
        assert!(report.stats.lines_per_sec_virtual() > 0.0);
    }

    /// One tenant's wire lines replayed straight into `engine`, no gateway
    /// between them.
    fn replay_into(mut engine: pod_core::PodEngine, stream: &OpStream) -> pod_core::RunSummary {
        let parsed = stream.lines.iter();
        engine.ingest_batch(parsed.map(|(at, raw)| pod_log::parse_line(raw, *at).event));
        engine.finish()
    }

    #[test]
    fn a_shared_compiled_pod_carries_nothing_between_tenants() {
        // A then B, both on the fleet's one `CompiledPod`.
        let streams = collect_streams(&small_config());
        let shared =
            |t: &OpStream| replay_into(build_engine(&t.scenario, &t.scenario_config), t).digest();
        let (a, b_after_a) = (shared(&streams.ops[0]), shared(&streams.ops[1]));
        // B alone, on a pod compiled for it and never shown another tenant.
        let streams = collect_streams(&small_config());
        let (b, s) = (&streams.ops[1], &streams.ops[1].scenario);
        let own = crate::scenario::pod_config(&b.scenario_config);
        let (cloud, storage, env) = (s.cloud.clone(), s.storage.clone(), s.env.clone());
        let alone = pod_core::PodEngine::new(cloud, storage, env, own, s.trace_id.clone())
            .expect("rolling-upgrade patterns compile");
        assert!(!a.is_empty() && a != b_after_a, "two tenants, two faults");
        assert_eq!(b_after_a, replay_into(alone, b).digest());
    }

    #[test]
    fn replay_admits_more_operations_than_the_default_shard_limit() {
        let config = SoakConfig {
            ops: 40,
            ..SoakConfig::default()
        };
        // One shard, which admits 32 operations by default.
        let gateway = GatewayConfig {
            shards: 1,
            ..GatewayConfig::default()
        };
        let report = replay_telemetry(&collect_streams(&config), &gateway, TelemetryMode::Full);
        assert_eq!(report.ops.len(), 40);
        assert!(report.leaks.is_empty(), "{:?}", report.leaks);
    }

    #[test]
    fn shedding_replay_accounts_for_every_lost_line() {
        let streams = collect_streams(&small_config());
        let config = GatewayConfig {
            queue_capacity: 4,
            batch_size: 4,
            flush_interval: pod_sim::SimDuration::from_secs(5),
            overload: OverloadPolicy::ShedOldest,
            ..GatewayConfig::default()
        };
        let report = replay_telemetry(&streams, &config, TelemetryMode::Full);
        assert!(report.stats.shed_oldest > 0, "tiny queues must overflow");
        assert_eq!(
            report.stats.lines_processed + report.stats.total_shed(),
            streams.lines_total,
            "every line is either delivered or counted as shed"
        );
        let per_shard: u64 = report.stats.shards.iter().map(|s| s.shed).sum();
        assert_eq!(per_shard, report.stats.total_shed());
        let counted = |policy| report.snapshot.counter(&format!("gateway.shed.{policy}"));
        assert_eq!(
            counted("oldest") + counted("newest"),
            report.stats.total_shed()
        );
        let text = render_soak_report(&report);
        assert!(text.contains("WARNING: overload shed"), "{text}");
    }

    #[test]
    fn telemetry_modes_never_change_detections_and_sampling_keeps_incidents() {
        // Collect fresh (deterministic, seed-identical) streams per mode:
        // per-operation virtual clocks advance during a replay, so modes
        // must be compared from identical starting states.
        let config = GatewayConfig::default();
        let full = replay_telemetry(
            &collect_streams(&small_config()),
            &config,
            TelemetryMode::Full,
        );
        let sampled = replay_telemetry(
            &collect_streams(&small_config()),
            &config,
            TelemetryMode::Sampled,
        );
        let off = replay_telemetry(
            &collect_streams(&small_config()),
            &config,
            TelemetryMode::Off,
        );

        // The mode gates telemetry, never behavior.
        assert_eq!(full.digest(), sampled.digest());
        assert_eq!(full.digest(), off.digest());

        // Full retains every trace and reconstructs incidents for each
        // detecting operation; Off records nothing on the trace side.
        assert_eq!(full.mode, TelemetryMode::Full);
        assert_eq!(full.kept_traces, full.ops.len());
        assert!(full.incidents > 0, "faulty ops must yield incident chains");
        assert_eq!(off.kept_traces, 0);
        assert_eq!(off.incidents, 0);
        assert!(off.latency.is_empty(), "off mode records no spans");

        // Sampling never discards an incident-relevant operation, and its
        // accounting covers every decision.
        for op in &sampled.ops {
            if op.detections > 0 {
                let verdict = op.verdict.expect("sampled mode decides every op");
                assert!(verdict.keep(), "{}: detection discarded", op.trace_id);
            }
        }
        assert_eq!(
            sampled.kept_traces + sampled.discarded_traces,
            sampled.ops.len()
        );
        assert_eq!(
            sampled.snapshot.counter("obs.sampler.kept")
                + sampled.snapshot.counter("obs.sampler.discarded"),
            sampled.ops.len() as u64
        );

        // The flight recorder stamped each detection as an incident.
        let flight = &sampled.flight;
        assert!(!flight.frames.is_empty());
        assert!(
            !flight.incidents.is_empty(),
            "detections must stamp incident marks"
        );

        let text = render_soak_report(&sampled);
        assert!(text.contains("telemetry: mode sampled"), "{text}");
        assert!(text.contains("flight recorder:"), "{text}");

        let tel = crate::journal::telemetry_line("soak", &sampled);
        assert_eq!(tel.get("mode").unwrap().as_str(), Some("sampled"));
        assert!(tel.get("flight_frames").is_some());
    }

    #[test]
    fn recovery_soak_drops_nothing_and_replays_byte_identically() {
        let config = SoakConfig {
            ops: 6,
            seed: 17,
            ..SoakConfig::default()
        };
        // Tight storm: one lane, a short wait cap and zero-tolerance
        // throttling, so eager, throttled and deferred paths all occur.
        let storm = StormConfig {
            lanes: 1,
            max_lane_wait: SimDuration::from_secs(30),
            throttle_at: 0,
            throttle_penalty: SimDuration::from_secs(2),
        };
        // Repairs mutate the tenant clouds, so each replay needs freshly
        // collected (same-seed, deterministic) streams.
        let run = || {
            replay_with_recovery(
                &collect_streams(&config),
                &GatewayConfig::default(),
                storm.clone(),
            )
        };
        let report = run();
        let rec = report.recovery.as_ref().expect("recovery stage ran");
        assert!(rec.attempted > 0, "faulty tenants must raise incidents");
        assert!(rec.none_dropped(), "{rec:#?}");
        assert_eq!(rec.recovered + rec.escalated, rec.attempted);
        // The metric mirror on the gateway snapshot matches the exact
        // stats, and throttle/defer pressure actually materialized.
        let s = rec.stats;
        assert!(s.requests > 0);
        let counter = |n: &str| report.snapshot.counter(&format!("recovery.storm.{n}"));
        assert_eq!(counter("requests"), s.requests);
        assert_eq!(counter("admitted"), s.admitted);
        assert_eq!(counter("throttled"), s.throttled);
        assert_eq!(counter("deferred"), s.deferred);
        assert_eq!(counter("swept"), s.swept);
        assert!(!rec.mttr.is_empty(), "verified repairs must record MTTR");

        let text = render_soak_report(&report);
        assert!(text.contains("recovery storm:"), "{text}");
        assert!(text.contains("none dropped"), "{text}");

        // Same seed + same interleaving ⇒ byte-identical transcripts,
        // even under maximal contention.
        let again = run();
        assert_eq!(report.digest(), again.digest());
        assert_eq!(
            rec.transcript(),
            again.recovery.as_ref().unwrap().transcript()
        );
    }

    #[test]
    fn a_missing_record_breaks_the_ledger() {
        let streams = collect_streams(&SoakConfig {
            ops: 1,
            seed: 17,
            ..SoakConfig::default()
        });
        let (stream, s) = (&streams.ops[0], &streams.ops[0].scenario);
        let (cloud, storage, env) = (s.cloud.clone(), s.storage.clone(), s.env.clone());
        let dispatcher = RecoveryDispatcher::new(cloud, storage, env, s.trace_id.clone(), None);
        let dispatcher = Rc::new(RefCell::new(dispatcher));
        let mut engine = build_engine(s, &stream.scenario_config);
        let hook = Rc::clone(&dispatcher);
        engine.set_diagnosis_hook(move |i, d| hook.borrow_mut().on_diagnosis(i, d));
        let detections = replay_into(engine, stream).detections;
        let mut records = dispatcher.borrow_mut().finish(&detections);
        let clock = pod_sim::Clock::new();
        let obs = pod_obs::Obs::new(clock.clone());
        let storm = RecoveryStorm::new(&obs, clock, StormConfig::default());
        let ledger = |records: &[DispatchRecord]| {
            let mut all = RecoveryTally::default();
            let tenant = tenant_recovery(stream, &detections, records, &mut all);
            storm_report(&storm, vec![tenant], all)
        };
        assert!(ledger(&records).none_dropped());
        records.pop().expect("a faulty tenant owes a recovery");
        assert!(
            !ledger(&records).none_dropped(),
            "an owed incident has no run"
        );
    }

    #[test]
    fn instance_tokens_respect_word_boundaries() {
        let mut tokens = BTreeSet::new();
        instance_tokens(
            "Instance i-7df34041 uses ami-00ff and talks to i-abc, not semi-colon",
            &mut tokens,
        );
        assert_eq!(
            tokens.into_iter().collect::<Vec<_>>(),
            ["i-7df34041", "i-abc"]
        );
    }
}
