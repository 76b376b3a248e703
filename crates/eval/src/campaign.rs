//! The fault-injection campaign: 8 fault types × N runs, with confounding
//! simultaneous operations — the experiment of Section V of the paper.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use pod_cloud::{InstanceId, INSTANCE_LIMIT};
use pod_core::PodEngine;
use pod_faulttree::TestOrder;
use pod_obs::EventRecord;
use pod_orchestrator::{
    Advance, FaultInjector, FaultType, Interference, RollingUpgrade, UpgradeReport,
};
use pod_recovery::{
    conformance_check, ConformanceReport, DispatchRecord, RecoveryDispatcher, RecoveryRun,
};
use pod_sim::{SimDuration, SimRng, SimTime};

use crate::metrics::{classify_run, GroundTruth, MetricSet, RunOutcome};
use crate::profile::{stage_self_times, LatencyProfile};
use crate::scenario::{build_engine, build_scenario, Injection, Scenario, ScenarioConfig};
use crate::timing::TimingStats;

/// Campaign knobs. Defaults reproduce the paper's setup: 20 runs per fault
/// type, clusters of 4 (every fifth run: 20), mixed interference, fault
/// trees *without* the instance-limit amendment (the paper added it only
/// after the experiment).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Runs per fault type (paper: 20 → 160 total).
    pub runs_per_fault: usize,
    /// Master seed; every run derives its own.
    pub seed: u64,
    /// Use the amended fault trees (instance-limit root cause present).
    pub amended_trees: bool,
    /// Fraction of runs whose fault is transient (injected, then reverted
    /// before diagnosis can confirm it — wrong-diagnosis class 3).
    pub transient_fraction: f64,
    /// Fraction of AMI-change runs where the AMI changes *again* during
    /// diagnosis (wrong-diagnosis class 2).
    pub reinject_fraction: f64,
    /// Probability that a run carries at least one interference operation.
    pub interference_fraction: f64,
    /// Every `n`-th run uses the 20-instance cluster (batch 4).
    pub large_cluster_every: usize,
    /// Diagnosis sibling order.
    pub test_order: TestOrder,
    /// The interference kinds to draw from.
    pub interference_kinds: Vec<Interference>,
    /// Close the loop: hand every diagnosed detection to `pod-recovery`
    /// at its verdict and record the repair (MTTR, escalations, the
    /// self-conformance verdict).
    pub recovery: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            runs_per_fault: 20,
            seed: 42,
            amended_trees: false,
            transient_fraction: 0.06,
            reinject_fraction: 0.10,
            interference_fraction: 0.40,
            large_cluster_every: 5,
            test_order: TestOrder::ByProbability,
            // Weighted mix: the shared-account limit pressure is the rare
            // event it was in the paper's experiment.
            interference_kinds: vec![
                Interference::ScaleIn,
                Interference::ScaleIn,
                Interference::ScaleOut,
                Interference::ScaleOut,
                Interference::RandomTermination,
                Interference::RandomTermination,
                Interference::OtherTeamCapacityPressure,
            ],
            recovery: false,
        }
    }
}

impl CampaignConfig {
    /// One run per fault type on a 4-instance cluster with nothing else
    /// going on — no interference, no transient reverts, no second AMI
    /// change — so each run shows exactly the injected fault's story.
    pub fn clean(seed: u64) -> CampaignConfig {
        CampaignConfig {
            runs_per_fault: 1,
            seed,
            interference_fraction: 0.0,
            transient_fraction: 0.0,
            reinject_fraction: 0.0,
            large_cluster_every: 0,
            ..CampaignConfig::default()
        }
    }
}

/// The plan of one run, derived deterministically from the campaign seed.
#[derive(Debug, Clone)]
pub struct RunPlan {
    /// The fault to inject.
    pub fault: FaultType,
    /// Scenario parameters (cluster size, seeds…).
    pub scenario: ScenarioConfig,
    /// When to inject, measured from simulation start.
    pub inject_at: SimTime,
    /// Revert the fault this long after injection (transient faults).
    pub transient_after: Option<SimDuration>,
    /// Re-inject (a different rogue AMI) this long after injection.
    pub reinject_after: Option<SimDuration>,
    /// Interference operations and their times.
    pub interferences: Vec<(SimTime, Interference)>,
    /// Hand every verdict to the recovery stage.
    pub recovery: bool,
}

/// One recovery attempt of the campaign's recovery stage, with its
/// self-conformance verdict.
#[derive(Debug, Clone)]
pub struct RecoveryRecord {
    /// The executed recovery run (outcome, transcript, MTTR).
    pub run: RecoveryRun,
    /// The run replayed against its own process model.
    pub conformance: ConformanceReport,
}

/// The causal events and spans of one run, copied out of its event log
/// by [`MonitoredRun::trace`] for the trace-viewer export
/// ([`TraceDump::chrome_trace`]) and the timeline views.
#[derive(Debug, Clone)]
pub struct TraceDump {
    /// The run's trace id.
    pub trace_id: String,
    /// Every retained record of the run, spans included.
    pub events: Vec<EventRecord>,
}

/// The record of one executed run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Sources of every raw detection, in order.
    pub detection_sources: Vec<pod_core::DetectionSource>,
    /// The plan that was executed.
    pub plan: RunPlan,
    /// What actually happened (actual injection time etc.).
    pub truth: GroundTruth,
    /// The classification of the run's detections.
    pub outcome: RunOutcome,
    /// The run's pod-obs metric snapshot (cloud API traffic, retries,
    /// conformance verdicts, fault-tree work, pipeline drops).
    pub obs: pod_obs::Snapshot,
    /// The run's latency budget: span kind → self virtual time (µs).
    pub stage_self_us: BTreeMap<String, u64>,
    /// Incident chains reconstructed from the run's causal events (see
    /// [`pod_obs::incidents`]).
    pub incidents: usize,
    /// …of which were unbroken (log-line anchor through to verdict).
    pub incidents_complete: usize,
    /// Records evicted from the event ring during this run.
    pub events_dropped: u64,
    /// The recovery stage: one record per diagnosed detection (empty when
    /// the stage is disabled).
    pub recoveries: Vec<RecoveryRecord>,
}

/// One monitored upgrade together with the world it ran in: what
/// [`monitor_upgrade`] returns, so a caller that wants to look inside a run
/// (its storage, its detections, its trace) needs no driver of its own.
#[derive(Debug)]
pub struct MonitoredRun {
    /// The classified record the campaign aggregates.
    pub record: RunRecord,
    /// The engine's summary: every detection with its diagnosis.
    pub summary: pod_core::RunSummary,
    /// The orchestrator's report of the upgrade itself.
    pub upgrade: UpgradeReport,
    /// The cloud, central log storage and expected environment the run
    /// left behind.
    pub scenario: Scenario,
}

impl MonitoredRun {
    /// Copies the run's records out of its event log.
    pub fn trace(&self) -> TraceDump {
        TraceDump {
            trace_id: self.scenario.trace_id.clone(),
            events: self.scenario.cloud.obs().events().records(),
        }
    }
}

/// Conformance-checking statistics across the campaign (§V.D).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConformanceStats {
    /// Runs whose fault type is a configuration fault (types 1–4).
    pub configuration_runs: usize,
    /// …of which conformance checking flagged anything.
    pub configuration_runs_flagged: usize,
    /// Runs whose fault type is a resource fault (types 5–8).
    pub resource_runs: usize,
    /// …of which conformance produced an erroneous trace before the first
    /// assertion detection.
    pub resource_runs_flagged_first: usize,
    /// …of which conformance flagged anything at all.
    pub resource_runs_flagged: usize,
}

/// The complete campaign result.
#[derive(Debug)]
pub struct CampaignReport {
    /// Interference operations applied across all runs.
    pub interference_applied: usize,
    /// Every executed run.
    pub records: Vec<RunRecord>,
    /// Overall Table-I metrics.
    pub overall: MetricSet,
    /// Metrics grouped by fault type (Figure 7).
    pub per_fault: Vec<(FaultType, MetricSet)>,
    /// Diagnosis-time distribution (Figure 6).
    pub timing: TimingStats,
    /// Conformance statistics (§V.D).
    pub conformance: ConformanceStats,
    /// pod-obs metrics aggregated (merged) across all runs.
    pub obs_totals: pod_obs::Snapshot,
    /// Per-fault-type latency budgets (p50/p95/p99 per pipeline stage).
    pub latency: LatencyProfile,
    /// The full trace of the last executed run, for export.
    pub last_trace: Option<TraceDump>,
    /// Records evicted from the event ring, summed over all runs.
    pub events_dropped: u64,
    /// Incident chains reconstructed across all runs.
    pub incidents_total: usize,
    /// …of which were unbroken (log-line anchor through to verdict).
    pub incidents_complete: usize,
    /// The recovery stage aggregated (zeroes when disabled).
    pub recovery: RecoveryStats,
}

/// MTTR phase breakdown across recovered runs: where the seconds go
/// between the first failing signal and the verified repair.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// First failing signal → diagnosis start (dispatch delay).
    pub detection: TimingStats,
    /// The fault-tree walk itself.
    pub diagnosis: TimingStats,
    /// Verdict → recovery-start wait (zero for a repair; the whole wait
    /// until the run's end for a review).
    pub staging: TimingStats,
    /// Step execution (the parallel-lane makespan, not the lane sum).
    pub repair: TimingStats,
    /// Closed-loop assertion re-checks.
    pub verification: TimingStats,
}

/// Aggregated recovery-stage statistics for one fault type.
#[derive(Debug, Clone, Default)]
pub struct FaultRecoveryStats {
    /// Recovery runs attempted.
    pub attempted: usize,
    /// …ending `Recovered` with a passing re-check.
    pub recovered: usize,
    /// …ending `Escalated`.
    pub escalated: usize,
    /// …whose self-conformance replay was fit.
    pub conformance_fit: usize,
    /// MTTR distribution (detection → verified repair) of recovered runs.
    pub mttr: TimingStats,
}

/// Aggregated recovery-stage statistics (closed-loop MTTR evaluation).
#[derive(Debug, Clone, Default)]
pub struct RecoveryStats {
    /// All recovery runs attempted across the campaign.
    pub attempted: usize,
    /// …recovered (verified repair).
    pub recovered: usize,
    /// …escalated to the operator.
    pub escalated: usize,
    /// …conformance-fit against the recovery process model.
    pub conformance_fit: usize,
    /// Overall MTTR distribution of recovered runs.
    pub mttr: TimingStats,
    /// MTTR phase breakdown of recovered runs.
    pub phases: PhaseStats,
    /// Per-fault-type breakdown.
    pub per_fault: Vec<(FaultType, FaultRecoveryStats)>,
}

/// The campaign runner.
#[derive(Debug)]
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign.
    pub fn new(config: CampaignConfig) -> Campaign {
        Campaign { config }
    }

    /// Builds the deterministic run plans.
    pub fn plans(&self) -> Vec<RunPlan> {
        let mut rng = SimRng::seed_from(self.config.seed);
        let faults = FaultType::all();
        let mut plans = Vec::with_capacity(faults.len() * self.config.runs_per_fault);
        for fault in faults {
            for i in 0..self.config.runs_per_fault {
                plans.push(self.plan_one(fault, i, &mut rng));
            }
        }
        plans
    }

    fn plan_one(&self, fault: FaultType, index: usize, rng: &mut SimRng) -> RunPlan {
        let large = self.config.large_cluster_every > 0
            && (index + 1).is_multiple_of(self.config.large_cluster_every);
        let (cluster_size, batch_size) = if large { (20, 4) } else { (4, 1) };
        let scenario = ScenarioConfig {
            cluster_size,
            batch_size,
            seed: rng.uniform_u64(1, u64::MAX - 1),
            amended_trees: self.config.amended_trees,
            test_order: self.config.test_order,
        };
        // Rough duration: replacements are sequential per instance, ≈ 62 s
        // each.
        let est = 20 + cluster_size as u64 * 62;
        let inject_at = SimTime::from_secs(rng.uniform_u64(15, est * 6 / 10));
        let transient_after = rng
            .chance(self.config.transient_fraction)
            .then(|| SimDuration::from_secs(rng.uniform_u64(45, 90)));
        let reinject_after = (fault == FaultType::AmiChangedDuringUpgrade
            && rng.chance(self.config.reinject_fraction))
        .then(|| SimDuration::from_secs(rng.uniform_u64(30, 90)));
        let mut interferences = Vec::new();
        if !self.config.interference_kinds.is_empty()
            && rng.chance(self.config.interference_fraction)
        {
            let count = if rng.chance(0.2) { 2 } else { 1 };
            for _ in 0..count {
                let kind = *rng.choose(&self.config.interference_kinds);
                let at = SimTime::from_secs(rng.uniform_u64(30, est * 6 / 10));
                interferences.push((at, kind));
            }
            interferences.sort_by_key(|(at, _)| *at);
        }
        RunPlan {
            fault,
            scenario,
            inject_at,
            transient_after,
            reinject_after,
            interferences,
            recovery: self.config.recovery,
        }
    }

    /// Executes the whole campaign, one run's world alive at a time; only
    /// the last run's trace is copied out.
    pub fn run(&self) -> CampaignReport {
        let plans = self.plans();
        let mut last_trace = None;
        let records = plans
            .iter()
            .enumerate()
            .map(|(i, plan)| {
                let run = monitor_upgrade(plan);
                if i + 1 == plans.len() {
                    last_trace = Some(run.trace());
                }
                run.record
            })
            .collect();
        summarise(records, last_trace)
    }
}

fn summarise(records: Vec<RunRecord>, last_trace: Option<TraceDump>) -> CampaignReport {
    let mut overall = MetricSet::default();
    let mut per_fault: Vec<(FaultType, MetricSet)> = FaultType::all()
        .into_iter()
        .map(|f| (f, MetricSet::default()))
        .collect();
    let mut times = Vec::new();
    let mut conformance = ConformanceStats::default();
    let mut obs_totals = pod_obs::Snapshot::default();
    let mut latency = LatencyProfile::new();
    let mut events_dropped = 0;
    let mut incidents_total = 0;
    let mut incidents_complete = 0;
    for r in &records {
        overall.add(&r.outcome);
        obs_totals.merge(&r.obs);
        latency.record(r.plan.fault, &r.stage_self_us);
        events_dropped += r.events_dropped;
        incidents_total += r.incidents;
        incidents_complete += r.incidents_complete;
        if let Some((_, set)) = per_fault.iter_mut().find(|(f, _)| *f == r.plan.fault) {
            set.add(&r.outcome);
        }
        // Figure 6 reports one diagnosis time per run: the first diagnosis.
        times.extend(r.outcome.diagnosis_times.first().copied());
        if r.plan.fault.is_configuration_fault() {
            // Interference can legitimately disturb the log, so the paper's
            // "invisible to conformance" claim is scored on clean runs.
            if r.truth.interferences.is_empty() {
                conformance.configuration_runs += 1;
                if r.outcome.conformance_any {
                    conformance.configuration_runs_flagged += 1;
                }
            }
        } else {
            conformance.resource_runs += 1;
            if r.outcome.conformance_any {
                conformance.resource_runs_flagged += 1;
            }
            if r.outcome.conformance_first {
                conformance.resource_runs_flagged_first += 1;
            }
        }
    }
    let recovery = aggregate_recovery(&records);
    let interference_applied = records.iter().map(|r| r.truth.interferences.len()).sum();
    CampaignReport {
        interference_applied,
        records,
        overall,
        per_fault,
        timing: TimingStats::new(times),
        conformance,
        obs_totals,
        latency,
        last_trace,
        events_dropped,
        incidents_total,
        incidents_complete,
        recovery,
    }
}

/// Recovery runs owed, the recovered and escalated runs that paid them, and
/// the MTTR samples of the repairs among them: what the campaign's and the
/// soak's recovery wrap-ups both count.
#[derive(Debug, Default)]
pub(crate) struct RecoveryTally {
    /// Diagnosed detections, each owed exactly one recovery run. Counted
    /// from the detections, not the runs, so a dropped incident shows.
    pub(crate) attempted: usize,
    pub(crate) recovered: usize,
    pub(crate) escalated: usize,
    pub(crate) mttr: Vec<SimDuration>,
}

impl RecoveryTally {
    pub(crate) fn add(&mut self, run: &RecoveryRun) {
        if run.outcome.is_recovered() {
            self.recovered += 1;
        } else {
            self.escalated += 1;
        }
        // Step-less reviews of self-resolved incidents have no repair
        // time to sample.
        self.mttr.extend(run.mttr());
    }
}

fn aggregate_recovery(records: &[RunRecord]) -> RecoveryStats {
    let (mut all, mut fit) = (RecoveryTally::default(), 0);
    let mut phase_samples: [Vec<SimDuration>; 5] = Default::default();
    let mut per_fault: Vec<(FaultType, RecoveryTally, usize)> = FaultType::all()
        .into_iter()
        .map(|f| (f, RecoveryTally::default(), 0))
        .collect();
    for r in records {
        let (_, fault, fault_fit) = per_fault
            .iter_mut()
            .find(|(f, ..)| *f == r.plan.fault)
            .expect("all fault types present");
        if r.plan.recovery {
            all.attempted += r.outcome.diagnosis_times.len();
            fault.attempted += r.outcome.diagnosis_times.len();
        }
        for rec in &r.recoveries {
            all.add(&rec.run);
            fault.add(&rec.run);
            // The phase breakdown covers actual repairs, like MTTR.
            if rec.run.mttr().is_some() {
                let p = &rec.run.phases;
                phase_samples[0].push(p.detection);
                phase_samples[1].push(p.diagnosis);
                phase_samples[2].push(p.staging);
                phase_samples[3].push(p.repair);
                phase_samples[4].push(p.verification);
            }
            if rec.conformance.fit {
                fit += 1;
                *fault_fit += 1;
            }
        }
    }
    let [detection, diagnosis, staging, repair, verification] = phase_samples.map(TimingStats::new);
    RecoveryStats {
        attempted: all.attempted,
        recovered: all.recovered,
        escalated: all.escalated,
        conformance_fit: fit,
        mttr: TimingStats::new(all.mttr),
        phases: PhaseStats {
            detection,
            diagnosis,
            staging,
            repair,
            verification,
        },
        per_fault: per_fault
            .into_iter()
            .map(|(f, t, fit)| {
                let stats = FaultRecoveryStats {
                    attempted: t.attempted,
                    recovered: t.recovered,
                    escalated: t.escalated,
                    conformance_fit: fit,
                    mttr: TimingStats::new(t.mttr),
                };
                (f, stats)
            })
            .collect(),
    }
}

/// [`monitor_upgrade`], keeping only the classified record.
pub fn execute_run(plan: &RunPlan) -> RunRecord {
    monitor_upgrade(plan).record
}

/// The one driver of a monitored upgrade: builds the plan's scenario, runs
/// the rolling upgrade through a POD engine with the plan's fault and
/// interference schedule (and recovery stage), and classifies the
/// detections. If the sampled injection time falls after the operation
/// already ended (the upgrade was faster than estimated), the run is
/// retried with an earlier injection so every run really carries its
/// fault, like the paper's campaign.
pub fn monitor_upgrade(plan: &RunPlan) -> MonitoredRun {
    Injection::retry_earlier(plan.inject_at, |inject_at| {
        let plan = RunPlan {
            inject_at,
            ..plan.clone()
        };
        let run = monitor_once(plan);
        let landed = run.record.truth.injected_at < SimTime::from_micros(u64::MAX);
        (run, landed)
    })
}

fn monitor_once(plan: RunPlan) -> MonitoredRun {
    let scenario = build_scenario(&plan.scenario);
    // One trace per run; the baseline diff keeps scenario-setup admin
    // traffic out of the run's metric snapshot. `begin_run` resets the
    // causal-event ring, spans included.
    scenario.cloud.obs().begin_run(&scenario.trace_id);
    let obs_baseline = scenario.cloud.obs().snapshot();
    let mut engine = build_engine(&scenario, &plan.scenario);
    // The recovery dispatcher takes every verdict from the engine's
    // diagnosis hook and owes the rest (reviews) at the run's end.
    let dispatcher = plan.recovery.then(|| {
        let dispatcher = Rc::new(RefCell::new(RecoveryDispatcher::new(
            scenario.cloud.clone(),
            scenario.storage.clone(),
            scenario.env.clone(),
            scenario.trace_id.clone(),
            None,
        )));
        let hook = Rc::clone(&dispatcher);
        engine.set_diagnosis_hook(move |i, d| hook.borrow_mut().on_diagnosis(i, d));
        dispatcher
    });
    let mut observer = CampaignObserver::new(engine, &scenario, &plan);
    let report = observer.run();
    let summary = observer.engine.finish();
    // The recovery stage runs before the trace/metric capture so the whole
    // detection → diagnosis → recovery → verification arc lands in one
    // causal-event ring and one metric snapshot.
    let recoveries = match dispatcher {
        Some(dispatcher) => dispatcher
            .borrow_mut()
            .finish(&summary.detections)
            .into_iter()
            .map(|DispatchRecord { run, .. }| {
                let conformance = conformance_check(scenario.cloud.obs(), &run);
                RecoveryRecord { run, conformance }
            })
            .collect(),
        None => Vec::new(),
    };
    let run_obs = scenario.cloud.obs();
    let obs = run_obs.snapshot().diff(&obs_baseline);
    let (stage_self_us, incidents, incidents_complete) = run_obs.events().with_records(|events| {
        let chains = pod_obs::incidents(events);
        let complete = chains.iter().filter(|c| c.complete()).count();
        (stage_self_times(events), chains.len(), complete)
    });
    let truth = GroundTruth {
        fault: plan.fault,
        injected_at: observer
            .injection
            .at
            .unwrap_or(SimTime::from_micros(u64::MAX)),
        reverted_at: observer.reverted_at,
        interferences: std::mem::take(&mut observer.applied_interferences),
    };
    let outcome = classify_run(&truth, &summary.detections);
    let record = RunRecord {
        detection_sources: summary.detections.iter().map(|d| d.source).collect(),
        plan,
        truth,
        outcome,
        obs,
        stage_self_us,
        incidents,
        incidents_complete,
        events_dropped: run_obs.events().dropped(),
        recoveries,
    };
    MonitoredRun {
        record,
        summary,
        upgrade: report,
        scenario,
    }
}

/// Feeds the engine and executes the injection / interference schedule
/// at orchestrator safe points.
struct CampaignObserver<'s> {
    engine: PodEngine,
    scenario: &'s Scenario,
    plan: &'s RunPlan,
    rng: SimRng,
    injection: Injection,
    reverted_at: Option<SimTime>,
    reinjected: bool,
    pending_interferences: Vec<(SimTime, Interference)>,
    applied_interferences: Vec<(SimTime, Interference)>,
    /// Scale acks pending: (when, new expected count delta).
    pending_env_acks: Vec<(SimTime, i64)>,
    standalone: Vec<InstanceId>,
    capacity_release_at: Option<SimTime>,
}

impl<'s> CampaignObserver<'s> {
    fn new(engine: PodEngine, scenario: &'s Scenario, plan: &'s RunPlan) -> Self {
        CampaignObserver {
            engine,
            scenario,
            plan,
            rng: SimRng::seed_from(plan.scenario.seed ^ 0xD1A6),
            injection: Injection::new(plan.fault, plan.inject_at),
            reverted_at: None,
            reinjected: false,
            pending_interferences: plan.interferences.clone(),
            applied_interferences: Vec::new(),
            pending_env_acks: Vec::new(),
            standalone: Vec::new(),
            capacity_release_at: None,
        }
    }

    /// Runs the scenario's upgrade to its end: every line into the engine
    /// as it is written; at each safe point the schedule, then the
    /// engine's timers.
    fn run(&mut self) -> UpgradeReport {
        let scenario = self.scenario;
        let mut upgrade = RollingUpgrade::new(
            scenario.cloud.clone(),
            scenario.upgrade.clone(),
            scenario.trace_id.clone(),
        );
        loop {
            match upgrade.advance(&mut |event| self.engine.ingest(event)) {
                Advance::SafePoint(now) => {
                    self.drive_schedule(now);
                    self.engine.poll();
                }
                Advance::Done(report) => return report,
            }
        }
    }

    fn drive_schedule(&mut self, now: SimTime) {
        let cloud = &self.scenario.cloud;
        // Fault injection (configuration faults wait for the upgrade LC).
        self.injection.tick(self.scenario, now, &mut self.rng);
        // Transient revert: the fault-injection mechanism corrects the
        // fault "soon after" — shortly after the first detection, racing
        // the dispatched diagnosis (wrong-diagnosis class 3). A fallback
        // deadline reverts even if nothing detected it.
        if let (Some(injected), Some(after)) = (self.injection.at, self.plan.transient_after) {
            if self.reverted_at.is_none() {
                // Only detections the fault itself can plausibly cause
                // (periodic-timer detections are dominated by concurrent
                // operations and must not trigger the revert).
                let detected_at = self
                    .engine
                    .detections()
                    .iter()
                    .find(|d| {
                        d.at >= injected
                            && matches!(
                                d.source,
                                pod_core::DetectionSource::AssertionLog
                                    | pod_core::DetectionSource::ConformanceKnownError
                            )
                    })
                    .map(|d| d.at);
                let due = match detected_at {
                    Some(at) => now >= at + SimDuration::from_secs(2),
                    None => now >= injected + after + SimDuration::from_secs(420),
                };
                if due
                    && self
                        .injection
                        .injector
                        .revert(cloud, &self.scenario.upgrade_lc_name)
                {
                    self.reverted_at = Some(now);
                }
            }
        }
        // Second AMI change mid-diagnosis (wrong-diagnosis class 2).
        if let (Some(injected), Some(after)) = (self.injection.at, self.plan.reinject_after) {
            if !self.reinjected && now >= injected + after && self.reverted_at.is_none() {
                FaultInjector::new(FaultType::AmiChangedDuringUpgrade).inject(
                    cloud,
                    &self.scenario.upgrade,
                    &self.scenario.upgrade_lc_name,
                    &mut self.rng,
                );
                self.reinjected = true;
            }
        }
        // Interferences.
        let due: Vec<(SimTime, Interference)> = {
            let (fire, keep): (Vec<_>, Vec<_>) = self
                .pending_interferences
                .drain(..)
                .partition(|(at, _)| now >= *at);
            self.pending_interferences = keep;
            fire
        };
        for (_, kind) in due {
            let ids = kind.apply(cloud, &self.scenario.upgrade, &mut self.rng);
            self.applied_interferences.push((now, kind));
            match kind {
                Interference::ScaleIn => {
                    // The operator acknowledges the legitimate change a
                    // while later; assertions racing this window reproduce
                    // FP class 2 and give the periodic check time to flag
                    // the interference.
                    self.pending_env_acks
                        .push((now + SimDuration::from_secs(75), -1));
                }
                Interference::ScaleOut => {
                    self.pending_env_acks
                        .push((now + SimDuration::from_secs(75), 1));
                }
                Interference::OtherTeamCapacityPressure => {
                    self.standalone = ids;
                    self.capacity_release_at = Some(now + SimDuration::from_secs(240));
                }
                Interference::RandomTermination => {}
            }
        }
        // Operator acknowledgements of legitimate scaling.
        let acks: Vec<(SimTime, i64)> = {
            let (fire, keep): (Vec<_>, Vec<_>) = self
                .pending_env_acks
                .drain(..)
                .partition(|(at, _)| now >= *at);
            self.pending_env_acks = keep;
            fire
        };
        for (_, delta) in acks {
            self.scenario.env.update(|env| {
                env.expected_count = (env.expected_count as i64 + delta).max(1) as u32;
            });
        }
        // Release the other team's capacity.
        if let Some(at) = self.capacity_release_at {
            if now >= at {
                cloud.admin_release_standalone(&self.standalone);
                cloud.admin_set_instance_limit(INSTANCE_LIMIT);
                self.standalone.clear();
                self.capacity_release_at = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The guard for a `ScenarioConfig` field added to `pod_config` and
    /// forgotten in `build_engine`'s memo key: some tenant would then run on
    /// another configuration's artefacts and part from an engine that
    /// compiled its own. One configuration per key, an AMI lost mid-upgrade.
    #[test]
    fn shared_engine_behaves_as_one_that_compiled_its_own() {
        use crate::scenario::pod_config;
        let digest = |plan: &RunPlan, build: &dyn Fn(&Scenario) -> PodEngine| {
            let scenario = build_scenario(&plan.scenario);
            let mut observer = CampaignObserver::new(build(&scenario), &scenario, plan);
            observer.run();
            observer.engine.finish().digest()
        };
        let mut plan = Campaign::new(CampaignConfig::clean(5))
            .plans()
            .swap_remove(4);
        assert_eq!(plan.fault, FaultType::AmiUnavailable);
        for (amended_trees, test_order, batch_size) in [
            (true, TestOrder::ByProbability, 1),
            (false, TestOrder::ByProbability, 1),
            (true, TestOrder::ByCost, 1),
            (true, TestOrder::ByProbability, 2),
        ] {
            let keyed = (amended_trees, test_order, batch_size);
            plan.scenario = ScenarioConfig {
                amended_trees,
                test_order,
                batch_size,
                ..plan.scenario
            };
            let cfg = &plan.scenario;
            let shared = digest(&plan, &|s| build_engine(s, cfg));
            let own = digest(&plan, &|s| {
                let (cloud, storage, env) = (s.cloud.clone(), s.storage.clone(), s.env.clone());
                PodEngine::new(cloud, storage, env, pod_config(cfg), s.trace_id.clone())
                    .expect("rolling-upgrade patterns compile")
            });
            assert!(!shared.is_empty(), "the lost AMI is detected: {keyed:?}");
            assert_eq!(shared, own, "{keyed:?}");
        }
    }

    #[test]
    fn plans_are_deterministic_and_cover_all_faults() {
        let c = Campaign::new(CampaignConfig {
            runs_per_fault: 3,
            ..CampaignConfig::default()
        });
        let p1 = c.plans();
        let p2 = c.plans();
        assert_eq!(p1.len(), 24);
        assert_eq!(
            p1.iter().map(|p| p.fault).collect::<Vec<_>>(),
            p2.iter().map(|p| p.fault).collect::<Vec<_>>()
        );
        assert_eq!(
            p1.iter().map(|p| p.scenario.seed).collect::<Vec<_>>(),
            p2.iter().map(|p| p.scenario.seed).collect::<Vec<_>>()
        );
        for fault in FaultType::all() {
            assert_eq!(p1.iter().filter(|p| p.fault == fault).count(), 3);
        }
    }

    #[test]
    fn single_run_detects_its_fault() {
        let c = Campaign::new(CampaignConfig::clean(42));
        let plans = c.plans();
        let record = execute_run(&plans[0]);
        assert_eq!(record.plan.fault, FaultType::AmiChangedDuringUpgrade);
        assert!(record.outcome.fault_detected, "{record:#?}");
        assert!(record.outcome.fault_diagnosed_correctly, "{record:#?}");
    }

    #[test]
    fn run_snapshot_covers_the_whole_pipeline() {
        let c = Campaign::new(CampaignConfig::clean(42));
        let record = execute_run(&c.plans()[0]);
        let obs = &record.obs;
        // Cloud API traffic and latency.
        assert!(obs.counter("cloud.api.calls") > 0);
        assert!(obs
            .histogram("cloud.api.latency_us")
            .is_some_and(|h| h.count > 0));
        // Consistent-layer retries.
        assert!(obs.counter("consistent.calls") > 0);
        assert!(obs.counters.contains_key("consistent.retries"));
        // Conformance classifications and replay latency.
        assert!(obs.counter("conformance.replays") > 0);
        assert!(obs.counter("conformance.fit") > 0);
        assert!(obs
            .histogram("conformance.replay_latency_us")
            .is_some_and(|h| h.count > 0));
        // Fault-tree work: tests executed vs memoised.
        assert!(obs.counter("faulttree.tests_run") > 0);
        assert!(obs.counters.contains_key("faulttree.memo_hits"));
        // Detections and per-stage pipeline throughput.
        assert!(obs.counter("engine.detections") > 0);
        assert!(obs.counter("pipeline.pushed") > 0);
        assert!(obs.counter("pipeline.noise-filter.processed") > 0);
    }

    #[test]
    fn every_detected_fault_has_an_unbroken_causal_chain() {
        let c = Campaign::new(CampaignConfig::clean(42));
        for plan in c.plans() {
            let run = monitor_upgrade(&plan);
            if !run.record.outcome.fault_detected {
                continue;
            }
            assert!(
                run.record.incidents_complete > 0,
                "fault {:?}: no unbroken chain among {} incidents\ntimelines:\n{}",
                plan.fault,
                run.record.incidents,
                pod_obs::render_timelines(&run.trace().events),
            );
        }
    }

    #[test]
    fn run_trace_captures_stages_and_events() {
        let c = Campaign::new(CampaignConfig::clean(42));
        let run = monitor_upgrade(&c.plans()[0]);
        let (record, dump) = (&run.record, run.trace());
        assert!(dump.events.iter().any(|e| e.end().is_some()), "spans");
        assert!(dump.events.iter().any(|e| e.end().is_none()), "instants");
        assert!(dump.trace_id.starts_with("run-"));
        // Healthy API calls are counted, not traced (outcome-conditional
        // tracing), so the stage map attributes to the process steps.
        assert!(
            record.stage_self_us.contains_key("upgrade.step"),
            "stages: {:?}",
            record.stage_self_us.keys().collect::<Vec<_>>()
        );
        assert!(record.incidents > 0);
        assert_eq!(record.events_dropped, 0);
    }

    #[test]
    fn recovery_stage_closes_the_loop_for_every_fault_type() {
        let c = Campaign::new(CampaignConfig {
            recovery: true,
            ..CampaignConfig::clean(42)
        });
        let runs: Vec<MonitoredRun> = c.plans().iter().map(monitor_upgrade).collect();
        for run in &runs {
            let (r, trace_id) = (&run.record, &run.scenario.trace_id);
            assert_eq!(
                r.recoveries.len(),
                r.outcome.diagnosis_times.len(),
                "one recovery per diagnosed detection ({:?})",
                r.plan.fault
            );
            // …and it is that detection's: task `{trace}-r{index}`, one
            // per diagnosed index, in detection order.
            let detections = run.summary.detections.iter().enumerate();
            let diagnosed: Vec<String> = detections
                .filter(|(_, d)| d.diagnosis.is_some())
                .map(|(i, _)| format!("{trace_id}-r{i}"))
                .collect();
            let ids: Vec<&str> = r.recoveries.iter().map(|rec| &*rec.run.task_id).collect();
            assert_eq!(ids, diagnosed, "{:?}", r.plan.fault);
            let cause = r.plan.fault.expected_root_cause();
            assert!(
                r.recoveries.iter().any(|rec| rec.run.root_cause == cause),
                "no recovery of {cause} for {:?}",
                r.plan.fault
            );
        }
        let report = summarise(runs.into_iter().map(|run| run.record).collect(), None);
        let stats = &report.recovery;
        assert!(stats.attempted > 0);
        // Every diagnosed incident ends recovered or escalated — never
        // silently dropped.
        assert_eq!(stats.recovered + stats.escalated, stats.attempted);
        // Every recovery run conforms to its own process model.
        assert_eq!(
            stats.conformance_fit, stats.attempted,
            "every recovery run must fit the recovery model"
        );
        // Every injected fault type has a mapped plan, so each must show at
        // least one verified repair, with its MTTR sampled.
        for (fault, fs) in &stats.per_fault {
            assert!(fs.attempted > 0, "no recovery attempted for {fault:?}");
            assert!(
                fs.recovered > 0,
                "no verified repair for {fault:?} ({} escalated)",
                fs.escalated
            );
            assert!(!fs.mttr.is_empty());
        }
        assert!(!stats.mttr.is_empty());
        // The ledger counts what was owed: one missing run shows.
        let mut records = report.records;
        records[0]
            .recoveries
            .pop()
            .expect("a faulty run owes a recovery");
        let short = aggregate_recovery(&records);
        assert_eq!(short.recovered + short.escalated + 1, short.attempted);
    }

    #[test]
    fn recovery_stage_is_deterministic() {
        let c = Campaign::new(CampaignConfig {
            recovery: true,
            ..CampaignConfig::clean(42)
        });
        let plan = &c.plans()[0];
        let digests = |r: &RunRecord| {
            r.recoveries
                .iter()
                .map(|rec| rec.run.digest())
                .collect::<Vec<_>>()
        };
        let first = execute_run(plan);
        let second = execute_run(plan);
        assert!(!first.recoveries.is_empty());
        assert_eq!(
            digests(&first),
            digests(&second),
            "same seed must give byte-identical recovery transcripts"
        );
    }

    #[test]
    fn mini_campaign_has_high_recall() {
        let c = Campaign::new(CampaignConfig {
            runs_per_fault: 2,
            large_cluster_every: 0,
            ..CampaignConfig::default()
        });
        let report = c.run();
        assert_eq!(report.records.len(), 16);
        // Every fault type has a profile, of both its runs.
        let budgets: Vec<_> = report.latency.budgets().collect();
        assert_eq!(budgets.len(), 8);
        let profiled = |(_, runs, stages): &(_, usize, Vec<_>)| *runs == 2 && !stages.is_empty();
        assert!(budgets.iter().all(profiled));
        assert!(report.incidents_total > 0);
        assert!(report
            .last_trace
            .as_ref()
            .is_some_and(|t| !t.events.is_empty()));
        assert!(
            report.overall.detection_recall() >= 0.9,
            "recall {} (missed: {:?})",
            report.overall.detection_recall(),
            report
                .records
                .iter()
                .filter(|r| !r.outcome.fault_detected)
                .map(|r| r.plan.fault)
                .collect::<Vec<_>>()
        );
        assert!(!report.timing.is_empty());
    }
}
