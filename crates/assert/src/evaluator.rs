//! The assertion-evaluation service: runs assertions, times them, and logs
//! their results to central storage in the paper's assertion-log shape.

use pod_log::{LogEvent, LogRecord, LogStorage, ProcessContext, Severity};
use pod_obs::Counter;
use pod_sim::{SimDuration, SimTime};

use crate::assertion::{AssertionOutcome, CloudAssertion};
use crate::consistent::ConsistentApi;
use crate::env::ExpectedEnv;

/// What triggered an assertion evaluation — used both for the result log
/// and by diagnosis (timer-triggered evaluations carry less context, the
/// paper's first wrong-diagnosis class).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssertionTrigger {
    /// A log line completed an activity.
    Log,
    /// A one-off timer fired (no log line appeared in time).
    OneOffTimer,
    /// The operation-wide periodic timer fired.
    PeriodicTimer,
}

impl AssertionTrigger {
    /// The tag recorded in the assertion log.
    pub fn tag(&self) -> &'static str {
        match self {
            AssertionTrigger::Log => "trigger:log",
            AssertionTrigger::OneOffTimer => "trigger:oneoff-timer",
            AssertionTrigger::PeriodicTimer => "trigger:periodic-timer",
        }
    }
}

/// A completed assertion evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct AssertionRecord {
    /// The evaluated assertion's instantiated description.
    pub description: String,
    /// The outcome.
    pub outcome: AssertionOutcome,
    /// What triggered the evaluation.
    pub trigger: AssertionTrigger,
    /// When evaluation started.
    pub started_at: SimTime,
    /// How long it took (virtual time, dominated by API calls/retries).
    pub duration: SimDuration,
    /// The `assertion.result` causal event emitted for this evaluation, so
    /// the engine can parent a detection on it. `Some` only for failures:
    /// passing evaluations are counted (`assertion.passed`), not traced.
    pub event: Option<pod_obs::EventId>,
}

impl AssertionRecord {
    /// Whether the evaluation failed.
    pub fn is_failure(&self) -> bool {
        self.outcome.is_failure()
    }
}

/// The assertion-evaluation service.
///
/// # Examples
///
/// ```
/// use pod_assert::{
///     AssertionEvaluator, AssertionTrigger, CloudAssertion, ConsistentApi, ExpectedEnv,
///     RetryPolicy,
/// };
/// use pod_cloud::{Cloud, CloudConfig};
/// use pod_log::LogStorage;
/// use pod_sim::{Clock, SimRng};
///
/// let cloud = Cloud::new(Clock::new(), SimRng::seed_from(2), CloudConfig::default());
/// let ami = cloud.admin_create_ami("app", "2.0");
/// let cluster = cloud.admin_create_cluster(ami, "prod", "lc", "g", 10, 2);
/// let env = ExpectedEnv::for_cluster(cluster, "2.0", 2);
/// let storage = LogStorage::new();
/// let eval = AssertionEvaluator::new(
///     ConsistentApi::new(cloud, RetryPolicy::default()), storage.clone());
///
/// let record = eval.evaluate(
///     &CloudAssertion::AsgHasInstancesWithVersion { count: 2 },
///     &env, AssertionTrigger::Log, None);
/// assert!(!record.is_failure());
/// assert_eq!(storage.query(&pod_log::LogQuery::new()).len(), 1); // the result was logged
/// ```
#[derive(Debug, Clone)]
pub struct AssertionEvaluator {
    api: ConsistentApi,
    storage: LogStorage,
    passed: Counter,
}

impl AssertionEvaluator {
    /// Creates an evaluator writing result lines to `storage`.
    pub fn new(api: ConsistentApi, storage: LogStorage) -> AssertionEvaluator {
        let passed = api.cloud().obs().counter("assertion.passed");
        AssertionEvaluator {
            api,
            storage,
            passed,
        }
    }

    /// Evaluates one assertion, stores its result and returns the record.
    /// Central storage keeps what the result's log line is built from (the
    /// trigger, timing, description, outcome and a copy of `context`, the
    /// process context the evaluation runs under) and renders the line
    /// only when a query reads it.
    pub fn evaluate(
        &self,
        assertion: &CloudAssertion,
        env: &ExpectedEnv,
        trigger: AssertionTrigger,
        context: Option<&ProcessContext>,
    ) -> AssertionRecord {
        let obs = self.api.cloud().obs();
        let started_at = self.api.cloud().clock().now();
        let outcome = assertion.evaluate(&self.api, env);
        let finished = self.api.cloud().clock().now();
        let duration = finished.duration_since(started_at);
        // Outcome-conditional tracing: a passing assertion bumps a counter
        // (its latency is already in the API-call histograms) while a
        // failing one records the `assertion.result` event diagnosis
        // parents detections on, spanning the evaluation. At gateway scale
        // passes outnumber failures ten to one, so the healthy path stays
        // allocation-free.
        let event = if outcome.is_failure() {
            let mut attrs = vec![
                ("trigger", trigger.tag().to_string()),
                ("outcome", "failed".to_string()),
            ];
            if let Some(step) = context.and_then(|c| c.step_id.as_deref()) {
                attrs.push(("step", step.to_string()));
            }
            let event = obs.event_with("assertion.result", assertion.key(), attrs);
            if let Some(id) = event {
                obs.events().backdate(id, started_at);
            }
            event
        } else {
            self.passed.incr();
            None
        };
        let record = AssertionRecord {
            description: assertion.describe(env),
            outcome,
            trigger,
            started_at,
            duration,
            event,
        };
        self.storage.append_record(AssertionLine {
            trigger: record.trigger.clone(),
            finished,
            duration,
            description: record.description.clone(),
            outcome: record.outcome.clone(),
            context: context.cloned(),
        });
        record
    }
}

/// An assertion result as central storage keeps it: what its
/// `assertion-evaluation.log` line is built from, rendered when a query
/// reads it.
#[derive(Debug)]
struct AssertionLine {
    trigger: AssertionTrigger,
    finished: SimTime,
    duration: SimDuration,
    description: String,
    outcome: AssertionOutcome,
    context: Option<ProcessContext>,
}

impl LogRecord for AssertionLine {
    /// The paper-style assertion log line, built with its final host and
    /// type.
    fn render(&self) -> LogEvent {
        let (verdict, severity) = match &self.outcome {
            AssertionOutcome::Passed => ("holds".to_string(), Severity::Info),
            AssertionOutcome::Failed { reason } => (format!("FAILED: {reason}"), Severity::Error),
        };
        let message = match &self.context {
            Some(ctx) => format!(
                "[assertion] [Task:{}] [Step:{}] Assertion that {} {verdict}",
                ctx.process_instance_id,
                ctx.step_id.as_deref().unwrap_or("-"),
                self.description,
            ),
            None => format!("[assertion] Assertion that {} {verdict}", self.description),
        };
        let event = LogEvent {
            timestamp: self.finished,
            source: "assertion-evaluation.log".to_string(),
            source_host: "sim.local".to_string(),
            event_type: "assertion".to_string(),
            tags: vec![self.trigger.tag().to_string()],
            fields: vec![(
                "duration_ms".to_string(),
                self.duration.as_millis().to_string(),
            )],
            message,
            severity,
            context: None,
        };
        match &self.context {
            Some(ctx) => event.with_context(ctx.clone()),
            None => event,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistent::RetryPolicy;
    use pod_cloud::{Cloud, CloudConfig};
    use pod_log::LogQuery;
    use pod_sim::{Clock, SimRng};

    fn setup() -> (AssertionEvaluator, ExpectedEnv, Cloud, LogStorage) {
        let cloud = Cloud::new(
            Clock::new(),
            SimRng::seed_from(9),
            CloudConfig {
                stale_read_prob: 0.0,
                ..CloudConfig::default()
            },
        );
        let ami = cloud.admin_create_ami("app", "2.0");
        let cluster = cloud.admin_create_cluster(ami, "prod", "lc", "g", 10, 2);
        let env = ExpectedEnv::for_cluster(cluster, "2.0", 2);
        let storage = LogStorage::new();
        let eval = AssertionEvaluator::new(
            ConsistentApi::new(cloud.clone(), RetryPolicy::default()),
            storage.clone(),
        );
        (eval, env, cloud, storage)
    }

    #[test]
    fn passing_evaluation_logs_info_line() {
        let (eval, env, _cloud, storage) = setup();
        let rec = eval.evaluate(
            &CloudAssertion::AsgInstanceCount { count: 2 },
            &env,
            AssertionTrigger::Log,
            None,
        );
        assert!(!rec.is_failure());
        assert!(rec.duration > SimDuration::ZERO);
        let logged = storage.query(&LogQuery::new());
        assert_eq!(logged.len(), 1);
        assert_eq!(logged[0].event_type, "assertion");
        assert!(logged[0].message.contains("holds"));
        assert!(logged[0].tags.iter().any(|t| t == "trigger:log"));
    }

    #[test]
    fn failing_evaluation_logs_error_line_with_context() {
        let (eval, env, _cloud, storage) = setup();
        let ctx = ProcessContext::new("rolling-upgrade", "run-1").with_step("step4");
        let rec = eval.evaluate(
            &CloudAssertion::AsgInstanceCount { count: 7 },
            &env,
            AssertionTrigger::OneOffTimer,
            Some(&ctx),
        );
        assert!(rec.is_failure());
        let errors = storage.query(&LogQuery::new());
        assert_eq!((errors.len(), errors[0].severity), (1, Severity::Error));
        assert!(errors[0].message.contains("FAILED"));
        assert!(errors[0].message.contains("[Step:step4]"));
        // The verdict is the line's severity; its context is the caller's.
        assert_eq!(errors[0].context.as_ref(), Some(&ctx));
        assert!(errors[0].tags.iter().any(|t| t == "trigger:oneoff-timer"));
    }

    #[test]
    fn evaluation_consumes_virtual_time_from_api_calls() {
        let (eval, env, cloud, _storage) = setup();
        let t0 = cloud.clock().now();
        eval.evaluate(
            &CloudAssertion::AsgHasInstancesWithVersion { count: 2 },
            &env,
            AssertionTrigger::Log,
            None,
        );
        assert!(cloud.clock().now() > t0);
    }
}
