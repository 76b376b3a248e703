//! The POD-Diagnosis engine: local log processor wiring, conformance
//! service, assertion triggering, timers and error diagnosis — the online
//! half of Figure 1 of the paper.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use pod_assert::{
    AssertionContext, AssertionEvaluator, AssertionTrigger, CloudAssertion, ConsistentApi,
    ExpectedEnv, RetryPolicy,
};
use pod_cloud::{Cloud, InstanceId};
use pod_faulttree::{
    DiagnosisContext, DiagnosisEngine, DiagnosisReport, DiagnosisVerdict, FaultTree,
};
use pod_log::{
    LogEvent, LogRecord, LogStorage, NoiseFilter, Pipeline, PipelineOutput, ProcessAnnotator,
    ProcessContext, Severity, StoredLine, TimerSetter, Trigger,
};
use pod_obs::{AttrValue, Counter, EventAttrs, Exemplar, Histogram, Obs, PendingRoot};
use pod_process::{Conformance, ConformanceChecker, Unfit};
use pod_sim::{LatencyModel, SimDuration, SimRng, SimTime};

use crate::config::{CompiledPod, PodConfig, SharedEnv};
use crate::detection::{Detection, DetectionSource, RunSummary};

/// The assertion key of the master fault tree, used as a fallback for
/// detections without a more specific tree.
const MASTER_TREE_KEY: &str = "asg-has-n-instances-with-version";

/// Retry/timeout policy of on-demand diagnostic tests (diagnosis wants
/// quick answers, so this is tighter than the assertion policy).
const DIAGNOSIS_RETRY_POLICY: RetryPolicy = RetryPolicy {
    max_retries: 2,
    base_backoff: SimDuration::from_millis(250),
    multiplier: 2.0,
    timeout: SimDuration::from_secs(12),
};
/// Virtual cost of one conformance-checking call (the paper measured
/// ≈ 10 ms per local call).
const CONFORMANCE_LATENCY: SimDuration = SimDuration::from_millis(10);
/// Minimum spacing between two diagnoses for the same tree key; a
/// detection inside the window is recorded without re-diagnosing.
const DIAGNOSIS_COOLDOWN: SimDuration = SimDuration::from_secs(45);
/// Period of the operation-wide periodic health check.
const PERIODIC_INTERVAL: SimDuration = SimDuration::from_secs(60);
/// Delay between a detection and the start of its diagnosis (the central
/// log processor picks failures up from storage). Transient faults reverted
/// inside this window reproduce the paper's third wrong-diagnosis class.
const DIAGNOSIS_DISPATCH_DELAY: SimDuration = SimDuration::from_secs(5);

/// Service overhead of one diagnosis (selecting and instantiating the tree,
/// pruning, fetching the recent log context): a 600 ms floor plus a
/// lognormal tail of median 500 ms.
fn diagnosis_overhead(rng: &mut SimRng) -> SimDuration {
    SimDuration::from_millis(600) + LatencyModel::lognormal_median_millis(500.0, 0.8).sample(rng)
}

/// A conformance verdict as central storage keeps it: what its
/// `conformance.log` line is built from, rendered when a query reads it.
#[derive(Debug)]
struct ConformanceLine {
    at: SimTime,
    /// The verdict's tag, e.g. `conformance:fit`.
    verdict: &'static str,
    severity: Severity,
    /// What an unfit verdict reports (` expected=[…]
    /// hypothesised-skips=[…]` in the line), shared with the net.
    unfit: Option<Arc<Unfit>>,
    trace_id: Arc<str>,
    /// The line the verdict judged.
    line: Arc<StoredLine>,
}

impl LogRecord for ConformanceLine {
    fn render(&self) -> LogEvent {
        // Built with its final host and type, not `LogEvent::new`'s
        // defaults.
        LogEvent {
            timestamp: self.at,
            source: "conformance.log".to_string(),
            source_host: "sim.local".to_string(),
            event_type: "conformance".to_string(),
            tags: vec![self.verdict.to_string()],
            fields: Vec::new(),
            message: match &self.unfit {
                Some(unfit) => format!(
                    "[conformance] [{}] [{}] expected=[{}] hypothesised-skips=[{}] {}",
                    self.trace_id,
                    self.verdict,
                    unfit.expected.join(","),
                    unfit.skipped.join(","),
                    self.line.message()
                ),
                None => format!(
                    "[conformance] [{}] [{}] {}",
                    self.trace_id,
                    self.verdict,
                    self.line.message()
                ),
            },
            severity: self.severity,
            context: None,
        }
    }
}

impl CompiledPod {
    /// The tree for a failed assertion, else the master tree. On the shared
    /// part, not the engine, so a walk can borrow it beside `&mut` state.
    fn tree(&self, key: &str) -> Option<&FaultTree> {
        let trees = &self.config.trees;
        trees.select(key).or_else(|| trees.select(MASTER_TREE_KEY))
    }
}

/// Cached handles for the engine's own metrics.
#[derive(Debug)]
struct EngineMetrics {
    detections: Counter,
    diagnoses: Counter,
    /// Log-scale so one layout covers both the ≈10 ms common case and the
    /// multi-second diagnosis-coupled tail; tail observations carry an
    /// exemplar naming the run and causal event.
    replay_latency_us: Histogram,
}

impl EngineMetrics {
    fn new(obs: &Obs) -> EngineMetrics {
        EngineMetrics {
            detections: obs.counter("engine.detections"),
            diagnoses: obs.counter("engine.diagnoses"),
            replay_latency_us: obs.histogram("conformance.replay_latency_us"),
        }
    }
}

/// The optional synchronous diagnosis hook (fast-path recovery dispatch).
/// Wrapped so `PodEngine` can keep deriving `Debug`.
type DiagnosisHookFn = Box<dyn FnMut(usize, &Detection)>;

#[derive(Default)]
struct DiagnosisHook(Option<DiagnosisHookFn>);

impl std::fmt::Debug for DiagnosisHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "DiagnosisHook(installed)"
        } else {
            "DiagnosisHook(none)"
        })
    }
}

/// An armed timer: when it falls due, its arm order (timers due at the same
/// instant fire in the order they were armed), and the log line that armed
/// it, so timer-triggered work still chains back to concrete log evidence.
#[derive(Debug, Clone, Copy)]
struct Timer {
    at: SimTime,
    armed: u64,
    cause: Option<pod_obs::EventId>,
}

/// The online POD-Diagnosis engine for one operation execution (one process
/// instance / trace).
///
/// Feed it every operation-log line with [`PodEngine::ingest`]; call
/// [`PodEngine::poll`] at idle moments so timers can fire; collect the
/// [`RunSummary`] with [`PodEngine::finish`].
///
/// Its timers are its own fields: the operation-wide periodic check, the
/// silent step's timeout and the queue of dispatched diagnoses. The engine's
/// next due time is the earliest of the three.
///
/// It compiles nothing: patterns, rules, net, bindings and trees are the
/// process's shared [`CompiledPod`]; its own state is one trace's.
#[derive(Debug)]
pub struct PodEngine {
    pod: Arc<CompiledPod>,
    cloud: Cloud,
    storage: LogStorage,
    env: SharedEnv,
    /// Shared with every conformance record this engine stores.
    trace_id: Arc<str>,
    pipeline: Pipeline,
    conformance: ConformanceChecker,
    evaluator: AssertionEvaluator,
    diag: DiagnosisEngine,
    rng: SimRng,
    op_started: Option<SimTime>,
    /// The periodic health check, armed by the operation-start line.
    periodic: Option<Timer>,
    /// The silent step's timeout, armed by the wait line, with the number of
    /// completed relaunches expected by then.
    step: Option<(Timer, u32)>,
    /// Detections awaiting diagnosis as (arm order, index into
    /// `summary.detections`). Each falls due `DIAGNOSIS_DISPATCH_DELAY` after
    /// its detection, so the queue is in due order.
    dispatched: VecDeque<(u64, usize)>,
    /// Timers armed so far.
    armed: u64,
    last_done: u32,
    last_diagnosis_at: HashMap<&'static str, SimTime>,
    summary: RunSummary,
    metrics: EngineMetrics,
    hook: DiagnosisHook,
}

impl PodEngine {
    /// Builds an engine for one trace from an uncompiled configuration:
    /// [`PodConfig::compile`], then [`PodEngine::from_compiled`] seeded with
    /// `config.engine_seed`. Whoever watches many executions of one process
    /// compiles once and calls `from_compiled` per trace instead.
    ///
    /// # Errors
    ///
    /// Fails if any configured pattern does not compile.
    pub fn new(
        cloud: Cloud,
        storage: LogStorage,
        env: SharedEnv,
        config: PodConfig,
        trace_id: impl Into<String>,
    ) -> Result<PodEngine, pod_regex::ParseError> {
        let (seed, pod) = (config.engine_seed, config.compile()?);
        Ok(PodEngine::from_compiled(
            &pod, cloud, storage, env, trace_id, seed,
        ))
    }

    /// Builds an engine for one trace of an already compiled process: takes
    /// a reference count on `pod`, compiles nothing, and registers every
    /// component's counters on the cloud's observability context, so the
    /// whole run lands in one trace and one metrics registry. `engine_seed`
    /// seeds the engine's own randomness (diagnosis overhead sampling).
    pub fn from_compiled(
        pod: &Arc<CompiledPod>,
        cloud: Cloud,
        storage: LogStorage,
        env: SharedEnv,
        trace_id: impl Into<String>,
        engine_seed: u64,
    ) -> PodEngine {
        let trace_id: Arc<str> = Arc::from(trace_id.into());
        let obs = cloud.obs();
        let mut pipeline = Pipeline::on(obs);
        if let Some(keep) = &pod.noise_filter {
            pipeline.add_stage(Box::new(NoiseFilter::keep(Arc::clone(keep))));
        }
        pipeline.add_stage(Box::new(TimerSetter::new(
            Arc::clone(&pod.operation_start),
            Arc::clone(&pod.operation_end),
            trace_id.to_string(),
        )));
        pipeline.add_stage(Box::new(ProcessAnnotator::new(
            Arc::clone(&pod.config.rules),
            Arc::clone(&pod.process_id),
            Arc::clone(&trace_id),
        )));

        let api = ConsistentApi::new(cloud.clone(), pod.config.retry_policy.clone());
        let evaluator = AssertionEvaluator::new(api, storage.clone());
        let diag_api = ConsistentApi::new(cloud.clone(), DIAGNOSIS_RETRY_POLICY);
        let diag =
            DiagnosisEngine::new(diag_api, storage.clone()).with_order(pod.config.test_order);
        PodEngine {
            metrics: EngineMetrics::new(obs),
            conformance: ConformanceChecker::on(Arc::clone(&pod.net), obs),
            pipeline,
            evaluator,
            diag,
            rng: SimRng::seed_from(engine_seed ^ 0x90D_D1A6),
            pod: Arc::clone(pod),
            cloud,
            storage,
            env,
            trace_id,
            op_started: None,
            periodic: None,
            step: None,
            dispatched: VecDeque::new(),
            armed: 0,
            last_done: 0,
            last_diagnosis_at: HashMap::new(),
            summary: RunSummary::default(),
            hook: DiagnosisHook::default(),
        }
    }

    /// Installs the fast-path diagnosis hook: a closure called
    /// synchronously with a detection's index in `RunSummary::detections`
    /// and the detection itself the moment its diagnosis completes, so a
    /// recovery dispatcher can dispatch repairs eagerly instead of sweeping
    /// `RunSummary::detections` after the operation ends. The hook runs on
    /// the engine's thread and may advance the shared sim clock (e.g. to
    /// execute a repair).
    pub fn set_diagnosis_hook(&mut self, hook: impl FnMut(usize, &Detection) + 'static) {
        self.hook = DiagnosisHook(Some(Box::new(hook)));
    }

    /// Detections so far.
    pub fn detections(&self) -> &[Detection] {
        &self.summary.detections
    }

    /// The process model id this engine monitors (e.g. `rolling-upgrade`).
    pub fn process_id(&self) -> &str {
        self.pod.config.model.name()
    }

    /// The bare process context of this trace (no step, no instance).
    fn context(&self) -> ProcessContext {
        ProcessContext::new(Arc::clone(&self.pod.process_id), Arc::clone(&self.trace_id))
    }

    /// Ingests one raw operation-log line: [`PodEngine::ingest_batch`] of one.
    pub fn ingest(&mut self, event: LogEvent) {
        self.ingest_batch([event]);
    }

    /// Ingests the lines of one sink call in order, each through the
    /// pipeline and its triggers before the next, then lets due timers fire
    /// once, after the last line: a timer that falls due mid-call fires
    /// after the call's last line, not between two of its lines.
    pub fn ingest_batch(&mut self, events: impl IntoIterator<Item = LogEvent>) {
        for event in events {
            let out = self.pipeline.push(event);
            self.handle_pipeline_output(out);
        }
        self.fire_due_timers();
    }

    /// Applies one line's pipeline output. Its triggers are handed the
    /// line's *pending* `log.line` causal root as a value, so conformance
    /// verdicts, assertion results and timer arming all chain back to the
    /// line that caused them. The root only materialises in the event ring
    /// when one of them cites it — healthy lines (fit verdicts, passing
    /// assertions) record nothing, and a line takes no lock of the event
    /// log until then.
    ///
    /// The annotated line arrives in its conformance trigger and becomes
    /// its [`StoredLine`] once, wrapped in an `Arc`: the pending root is
    /// that line, central storage keeps it when it carries process context
    /// (the "important" lines), the conformance and assertion triggers read
    /// the same allocation, and their result records share it. The
    /// triggers run in the pipeline's order: the timer setter's, then the
    /// line's storage and conformance, then its assertion; the timer
    /// writes no storage, so the stored order is line, conformance line,
    /// assertion line.
    fn handle_pipeline_output(&mut self, out: PipelineOutput) {
        let (mut timer, mut event, mut assertion) = (None, None, false);
        for trigger in out.triggers {
            match trigger {
                Trigger::Conformance(line) => event = Some(line),
                Trigger::Assertion => assertion = true,
                start_or_stop => timer = Some(start_or_stop),
            }
        }
        // The annotator, the last stage, hands on every line that reaches
        // it: an output without its conformance trigger raised nothing.
        let Some(event) = event else { return };
        let line = Arc::new(StoredLine::new(event, &self.pod.config.rules));
        let mut root = self.cloud.obs().pending_root("log.line", &line);
        match timer {
            Some(Trigger::PeriodicStart { .. }) => self.on_operation_start(&mut root),
            Some(Trigger::PeriodicStop { .. }) => self.on_operation_end(),
            _ => {}
        }
        if line.is_annotated() {
            self.storage.append_line(Arc::clone(&line));
        }
        self.on_conformance(&line, &mut root);
        if assertion {
            self.on_assertion(&line, root);
        }
    }

    /// Lets due timers fire; call at idle moments (e.g. orchestrator poll
    /// points).
    pub fn poll(&mut self) {
        self.fire_due_timers();
    }

    /// Finalises the run and hands out the summary, leaving the engine's
    /// empty: nothing reads an engine after it finished. Pending dispatched
    /// diagnoses are executed before returning.
    pub fn finish(&mut self) -> RunSummary {
        self.on_operation_end();
        // Let any dispatched-but-not-yet-started diagnosis run.
        self.cloud
            .clock()
            .advance(DIAGNOSIS_DISPATCH_DELAY + SimDuration::from_millis(1));
        self.fire_due_timers();
        self.summary.trace_complete = self.conformance.is_complete(&self.trace_id);
        std::mem::take(&mut self.summary)
    }

    // -----------------------------------------------------------------
    // Conformance
    // -----------------------------------------------------------------

    fn on_conformance(&mut self, line: &Arc<StoredLine>, root: &mut PendingRoot) {
        let replay_started = self.cloud.clock().now();
        self.cloud.clock().advance(CONFORMANCE_LATENCY);
        self.summary.conformance_events += 1;
        let activity = line.step();
        let cause = || root.resolve();
        let verdict = match activity {
            Some(act) => self.conformance.replay_under(&self.trace_id, act, cause),
            None => {
                let known = self.pod.known_errors.first_match(line.message()).is_some();
                self.conformance.record_error(&self.trace_id, known, cause)
            }
        };
        // Outcome-conditional tracing: fit replays are counted by the
        // checker and measured by `replay_latency_us` (with exemplars);
        // only a non-fit replay records its `conformance.verdict`, which
        // then spans the whole service call.
        if let Some(id) = self.conformance.last_verdict_event() {
            self.cloud.obs().events().backdate(id, replay_started);
        }
        let replay_done = self.cloud.clock().now();
        let replay_us = replay_done.duration_since(replay_started).as_micros();
        self.metrics
            .replay_latency_us
            .record_with(replay_us, || Exemplar {
                value: replay_us,
                at: replay_done,
                event: self.conformance.last_verdict_event().map(|id| id.get()),
                labels: vec![
                    ("op", AttrValue::Shared(Arc::clone(&self.trace_id))),
                    ("verdict", AttrValue::Static(verdict.tag())),
                ],
            });
        self.log_conformance(line, &verdict);
        if verdict.is_error() {
            self.summary.conformance_errors += 1;
            let source = match &verdict {
                Conformance::Unfit(_) => DetectionSource::ConformanceUnfit,
                Conformance::Error => DetectionSource::ConformanceKnownError,
                _ => DetectionSource::ConformanceUnclassified,
            };
            let instance = extract_instance(line);
            let step = line.shared_step().cloned().or_else(|| {
                let last = self.conformance.last_activity(&self.trace_id);
                last.map(Arc::from)
            });
            let description = format!("{} [{}]", line.message(), verdict.tag());
            let cause = self.conformance.last_verdict_event();
            self.detect(source, None, description, step, instance, cause);
        }
        // Step-timer management from process context.
        if let Some(act) = activity {
            if self.pod.config.wait_activity.as_deref() == Some(act) {
                self.arm_step_timer(root);
            }
            if self.pod.config.completion_activity.as_deref() == Some(act) {
                self.step = None;
            }
        }
    }

    /// Stores the verdict as a record of what its `conformance.log` line is
    /// built from: the clock reading, the verdict and the line it judged.
    fn log_conformance(&self, line: &Arc<StoredLine>, verdict: &Conformance) {
        let unfit = match verdict {
            Conformance::Unfit(unfit) => Some(Arc::clone(unfit)),
            _ => None,
        };
        self.storage.append_record(ConformanceLine {
            at: self.cloud.clock().now(),
            verdict: verdict.tag(),
            severity: if verdict.is_error() {
                Severity::Error
            } else {
                Severity::Info
            },
            unfit,
            trace_id: Arc::clone(&self.trace_id),
            line: Arc::clone(line),
        });
    }

    // -----------------------------------------------------------------
    // Assertions
    // -----------------------------------------------------------------

    /// Evaluates the post-step assertions of the step `line` ended; each
    /// result record shares the line for its context. The evaluations'
    /// events take no parent of their own, so they run under the line's
    /// root as their ambient cause.
    fn on_assertion(&mut self, line: &Arc<StoredLine>, root: PendingRoot) {
        // The annotator raises an assertion only on a line it named a step.
        let Some(activity) = line.step() else { return };
        let _scope = root.scope();
        if let Some(done) = line.field("done").and_then(|d| d.parse::<u32>().ok()) {
            self.last_done = done;
        }
        let pod = Arc::clone(&self.pod);
        let ctx = AssertionContext::Line(Arc::clone(line));
        for binding in pod.config.bindings.for_activity(activity) {
            let env = self.env.snapshot();
            let Some(assertion) = binding.resolve(Some(line), env.expected_count) else {
                continue;
            };
            let record =
                self.evaluator
                    .evaluate(&assertion, &env, AssertionTrigger::Log, Some(ctx.clone()));
            self.summary.assertions_evaluated += 1;
            if record.is_failure() {
                let instance = extract_instance(line);
                self.detect(
                    DetectionSource::AssertionLog,
                    Some(assertion.key()),
                    format!("assertion failed: {}", record.description),
                    line.shared_step().cloned(),
                    instance,
                    record.event,
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // Timers
    // -----------------------------------------------------------------

    /// The next arm order.
    fn next_arm(&mut self) -> u64 {
        self.armed += 1;
        self.armed
    }

    /// Arms a timer due at `at`, chained to the line being handled.
    fn arm(&mut self, at: SimTime, root: &mut PendingRoot) -> Timer {
        Timer {
            at,
            armed: self.next_arm(),
            cause: root.resolve(),
        }
    }

    /// Arms the periodic check; a second operation-start line re-arms the
    /// one check rather than adding another.
    fn on_operation_start(&mut self, root: &mut PendingRoot) {
        let now = self.cloud.clock().now();
        self.op_started = Some(now);
        self.periodic = Some(self.arm(now + PERIODIC_INTERVAL, root));
    }

    fn on_operation_end(&mut self) {
        self.periodic = None;
        self.step = None;
    }

    fn arm_step_timer(&mut self, root: &mut PendingRoot) {
        let timer = self.arm(
            self.cloud.clock().now() + self.pod.config.step_timeout,
            root,
        );
        self.step = Some((timer, self.last_done + self.pod.config.batch_size));
    }

    /// Fires every timer due at or before the clock on entry, earliest
    /// first, ties in arm order. A periodic check overdue by several periods
    /// fires once per period; a diagnosis advancing the clock makes nothing
    /// else due in the same pass.
    fn fire_due_timers(&mut self) {
        let now = self.cloud.clock().now();
        // A periodic check re-armed in this pass ranks after every timer
        // armed before it and before any timer its firings arm.
        let rearmed = self.next_arm();
        loop {
            let periodic = self.periodic.map(|t| (t.at, t.armed));
            let step = self.step.map(|(t, _)| (t.at, t.armed));
            let diagnosis = self.dispatched.front().map(|&(armed, index)| {
                let detected = self.summary.detections[index].at;
                (detected + DIAGNOSIS_DISPATCH_DELAY, armed)
            });
            let Some(next) = [periodic, step, diagnosis]
                .into_iter()
                .flatten()
                .min()
                .filter(|&(at, _)| at <= now)
            else {
                break;
            };
            if Some(next) == periodic {
                let timer = self.periodic.as_mut().expect("the periodic check is due");
                timer.at += PERIODIC_INTERVAL;
                timer.armed = rearmed;
                let cause = timer.cause;
                self.on_periodic_check(cause);
            } else if Some(next) == step {
                let (timer, expected_done) = self.step.take().expect("the step timeout is due");
                self.on_step_timeout(expected_done, timer.cause);
            } else {
                let (_, index) = self.dispatched.pop_front().expect("a diagnosis is due");
                self.diagnose(index);
            }
        }
    }

    /// Runs the dispatched diagnosis of detection `index`, fills in its
    /// report and tells the hook.
    fn diagnose(&mut self, index: usize) {
        let obs = self.cloud.obs().clone();
        let detection = &self.summary.detections[index];
        let dispatch = obs.event(
            detection.event,
            "diagnosis.dispatch",
            detection.key,
            Vec::new,
        );
        // Fault-tree tests, causes and the verdict chain under the dispatch
        // event.
        let report = {
            let _scope = obs.events().scope(dispatch);
            self.run_diagnosis(index)
        };
        self.summary.detections[index].diagnosis = Some(report);
        if let Some(hook) = self.hook.0.as_mut() {
            hook(index, &self.summary.detections[index]);
        }
    }

    /// A silent step exceeded its 95th-percentile duration: evaluate the
    /// post-step assertion anyway. Late-but-successful runs make this the
    /// paper's first false-positive class.
    fn on_step_timeout(&mut self, expected_done: u32, cause: Option<pod_obs::EventId>) {
        let env = self.env.snapshot();
        let assertion = CloudAssertion::AsgHasInstancesWithVersion {
            count: expected_done,
        };
        let step = self.pod.config.completion_activity.clone();
        let ctx = {
            let mut c = self.context();
            if let Some(s) = &step {
                c = c.with_step(s.clone());
            }
            AssertionContext::Process(Arc::new(c))
        };
        let record = {
            let events = self.cloud.obs().events().clone();
            let _scope = events.scope(cause);
            self.evaluator
                .evaluate(&assertion, &env, AssertionTrigger::OneOffTimer, Some(ctx))
        };
        self.summary.assertions_evaluated += 1;
        if record.is_failure() {
            // Timer-based: no instance id in the context (limited
            // information — the paper's first wrong-diagnosis class).
            self.detect(
                DetectionSource::AssertionOneOffTimer,
                Some(assertion.key()),
                format!("step timeout: {}", record.description),
                step.map(Arc::from),
                None,
                record.event,
            );
        }
    }

    /// The periodic, process-aware health check: desired capacity must
    /// match the expectation and the active count may only dip by the
    /// in-flight replacement batch.
    fn on_periodic_check(&mut self, cause: Option<pod_obs::EventId>) {
        let env = self.env.snapshot();
        let in_flight = self
            .conformance
            .last_activity(&self.trace_id)
            .is_some_and(|act| {
                self.pod
                    .config
                    .in_flight_activities
                    .iter()
                    .any(|a| a == act)
            });
        let floor = if in_flight {
            env.expected_count
                .saturating_sub(self.pod.config.batch_size)
        } else {
            env.expected_count
        };
        let mut checks = vec![
            CloudAssertion::AsgDesiredCapacity {
                count: env.expected_count,
            },
            CloudAssertion::AsgActiveCountAtLeast { count: floor },
        ];
        checks.extend(self.pod.config.periodic_assertions.iter().cloned());
        let ctx = AssertionContext::Process(Arc::new(self.context()));
        for assertion in checks {
            let record = {
                let events = self.cloud.obs().events().clone();
                let _scope = events.scope(cause);
                self.evaluator.evaluate(
                    &assertion,
                    &env,
                    AssertionTrigger::PeriodicTimer,
                    Some(ctx.clone()),
                )
            };
            self.summary.assertions_evaluated += 1;
            if record.is_failure() {
                self.detect(
                    DetectionSource::AssertionPeriodicTimer,
                    Some(assertion.key()),
                    format!("periodic check failed: {}", record.description),
                    None,
                    None,
                    record.event,
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // Detection & diagnosis
    // -----------------------------------------------------------------

    fn detect(
        &mut self,
        source: DetectionSource,
        assertion_key: Option<&'static str>,
        description: String,
        step: Option<Arc<str>>,
        instance: Option<InstanceId>,
        cause: Option<pod_obs::EventId>,
    ) {
        let at = self.cloud.clock().now();
        self.metrics.detections.incr();
        let description: Arc<str> = description.into();
        let event = self
            .cloud
            .obs()
            .event(cause, "detection", source.tag(), || DetectionAttrs {
                description: Arc::clone(&description),
                step: step.clone(),
                instance: instance.clone(),
            });
        // Assertion failures select the tree for the failed assertion;
        // conformance detections use the master tree.
        let key = assertion_key.unwrap_or(MASTER_TREE_KEY);
        let detection_index = self.summary.detections.len();
        // Respect the per-key cooldown, then dispatch the diagnosis with the
        // central-processor delay.
        let cooled_down = self
            .last_diagnosis_at
            .get(key)
            .is_none_or(|last| at.duration_since(*last) >= DIAGNOSIS_COOLDOWN);
        if cooled_down {
            self.last_diagnosis_at.insert(key, at);
            let armed = self.next_arm();
            self.dispatched.push_back((armed, detection_index));
        }
        self.summary.detections.push(Detection {
            at,
            source,
            description,
            step,
            key,
            instance,
            diagnosis: None,
            event,
        });
    }

    fn run_diagnosis(&mut self, index: usize) -> DiagnosisReport {
        let Detection {
            key,
            step,
            instance,
            ..
        } = &self.summary.detections[index];
        let tree = self
            .pod
            .tree(key)
            .expect("repository provides the master tree");
        let ctx = DiagnosisContext {
            env: ExpectedEnv::clone(&self.env.snapshot()),
            step: step.as_deref().map(str::to_string),
            instance: instance.clone(),
            operation_started: self.op_started.unwrap_or(SimTime::ZERO),
        };
        let span = self.cloud.obs().span("engine.diagnosis");
        span.attr("tree", *key);
        self.metrics.diagnoses.incr();
        let overhead = diagnosis_overhead(&mut self.rng);
        let started = self.cloud.clock().now();
        self.cloud.clock().advance(overhead);
        let mut report = self.diag.diagnose(tree, &ctx);
        report.started_at = started;
        report.duration += overhead;
        span.attr(
            "verdict",
            match report.verdict() {
                DiagnosisVerdict::RootCauseIdentified => "root-cause-identified",
                DiagnosisVerdict::ErrorConfirmedCauseUnknown => "cause-unknown",
                DiagnosisVerdict::NoRootCauseIdentified => "no-root-cause",
            },
        );
        // Present: the detection that dispatched this diagnosis set it.
        if let Some(last) = self.last_diagnosis_at.get_mut(key) {
            *last = self.cloud.clock().now();
        }
        report
    }
}

/// A `detection` event's attributes: the strings its [`Detection`] keeps,
/// shared, rendered as `description`, then `step` and `instance` when
/// known.
#[derive(Debug)]
struct DetectionAttrs {
    description: Arc<str>,
    step: Option<Arc<str>>,
    instance: Option<InstanceId>,
}

impl EventAttrs for DetectionAttrs {
    fn render_attrs(&self, out: &mut Vec<(&'static str, String)>) {
        out.push(("description", self.description.to_string()));
        out.extend(self.step.iter().map(|step| ("step", step.to_string())));
        out.extend(self.instance.iter().map(|id| ("instance", id.to_string())));
    }
}

/// Extracts the implicated instance id from an annotated line.
fn extract_instance(line: &StoredLine) -> Option<InstanceId> {
    line.cloud_instance()
        .or_else(|| line.field("instanceid"))
        .map(InstanceId::new)
}
