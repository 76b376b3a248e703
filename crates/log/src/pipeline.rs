//! The local log processor pipeline (Figure 3 of the paper).
//!
//! A [`Pipeline`] is an ordered chain of [`Stage`]s. Each raw line from the
//! operation log flows through the stages, which can drop it (noise filter),
//! raise [`Trigger`]s (timer setter) or annotate it and hand it on: the
//! process annotator moves the annotated line into its
//! [`Trigger::Conformance`], and whoever consumes that trigger owns the one
//! copy of the line. The engine forwards that same line to central storage
//! when it carries process context.

use std::fmt;
use std::sync::Arc;

use pod_obs::{Counter, Obs};
use pod_regex::{Regex, RegexSet};

use crate::event::{LogEvent, ProcessContext};
use crate::matcher::{Boundary, RuleBook};

/// A side effect raised by a pipeline stage, consumed by the POD-Diagnosis
/// engine (conformance checking, assertion evaluation, timers).
// The line travels inline: a line raises at most three triggers, and
// boxing it would cost the allocation this variant exists to save.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Trigger {
    /// Send the line to the conformance-checking service. This is the line
    /// itself, not a copy: the stage that raised it has handed it on.
    Conformance(LogEvent),
    /// Evaluate the post-step assertion for the step named by the line of
    /// the same output's [`Trigger::Conformance`], on that line.
    Assertion,
    /// Start the per-process periodic timer (operation began).
    PeriodicStart {
        /// The process instance the timer belongs to.
        process_instance_id: String,
    },
    /// Stop the per-process periodic timer (operation ended).
    PeriodicStop {
        /// The process instance the timer belongs to.
        process_instance_id: String,
    },
}

/// What a stage did with an event.
#[derive(Debug)]
pub struct StageOutput {
    /// The (possibly transformed) event for the next stage; `None` if the
    /// stage dropped it or handed it on in a [`Trigger::Conformance`].
    pub event: Option<LogEvent>,
    /// Triggers raised while processing.
    pub triggers: Vec<Trigger>,
}

impl StageOutput {
    /// Passes the event through unchanged.
    pub fn pass(event: LogEvent) -> StageOutput {
        StageOutput {
            event: Some(event),
            triggers: Vec::new(),
        }
    }

    /// Drops the event.
    pub fn drop_event() -> StageOutput {
        StageOutput {
            event: None,
            triggers: Vec::new(),
        }
    }
}

/// One processing component in the local log processor.
pub trait Stage: fmt::Debug {
    /// Processes one event.
    fn process(&mut self, event: LogEvent) -> StageOutput;

    /// A short stable name used for per-stage pipeline metrics
    /// (`pipeline.<name>.processed` / `pipeline.<name>.dropped`).
    fn name(&self) -> &'static str {
        "stage"
    }
}

/// The result of pushing one raw line through the whole pipeline.
#[derive(Debug, Default)]
pub struct PipelineOutput {
    /// All triggers raised by any stage, in stage order; an annotated line
    /// travels in its [`Trigger::Conformance`].
    pub triggers: Vec<Trigger>,
}

/// An ordered chain of stages.
///
/// # Examples
///
/// ```
/// use pod_log::{
///     Boundary, LineRule, LogEvent, NoiseFilter, Pipeline, ProcessAnnotator, RuleBook, Trigger,
/// };
/// use pod_regex::RegexSet;
/// use pod_sim::SimTime;
///
/// let mut rules = RuleBook::new();
/// rules.push(LineRule::new("start", Boundary::Start, &["upgrade started"]).unwrap());
/// let mut p = Pipeline::new();
/// p.add_stage(Box::new(NoiseFilter::keep(
///     RegexSet::new(&["instance", "upgrade"]).unwrap(),
/// )));
/// p.add_stage(Box::new(ProcessAnnotator::new(rules, "upgrade", "run-1")));
/// let out = p.push(LogEvent::new(SimTime::ZERO, "op.log", "rolling upgrade started"));
/// let Trigger::Conformance(line) = &out.triggers[0] else { panic!() };
/// assert_eq!(line.context.as_ref().unwrap().step_id.as_deref(), Some("start"));
/// let out = p.push(LogEvent::new(SimTime::ZERO, "op.log", "heartbeat tick"));
/// assert!(out.triggers.is_empty());
/// ```
#[derive(Debug)]
pub struct Pipeline {
    obs: Obs,
    stages: Vec<Box<dyn Stage>>,
    stage_metrics: Vec<StageMetrics>,
    pushed: Counter,
    forwarded: Counter,
}

/// Per-stage throughput/drop counters, cached so `push` stays lock-free.
#[derive(Debug)]
struct StageMetrics {
    processed: Counter,
    dropped: Counter,
}

impl StageMetrics {
    fn new(obs: &Obs, stage: &str) -> StageMetrics {
        StageMetrics {
            processed: obs.counter(format!("pipeline.{stage}.processed")),
            dropped: obs.counter(format!("pipeline.{stage}.dropped")),
        }
    }
}

impl Default for Pipeline {
    fn default() -> Pipeline {
        Pipeline::new()
    }
}

impl Pipeline {
    /// Creates an empty pipeline (passes everything through) recording its
    /// metrics into a detached observability context; [`Pipeline::on`]
    /// records into a shared one.
    pub fn new() -> Pipeline {
        Pipeline::on(&Obs::detached())
    }

    /// Creates an empty pipeline whose metrics — its own and those of every
    /// stage added later — land in `obs` (the engine passes the cloud-wide
    /// context, so each counter is registered once, where it is read).
    pub fn on(obs: &Obs) -> Pipeline {
        Pipeline {
            pushed: obs.counter("pipeline.pushed"),
            forwarded: obs.counter("pipeline.forwarded"),
            obs: obs.clone(),
            stages: Vec::new(),
            stage_metrics: Vec::new(),
        }
    }

    /// Appends a stage to the end of the chain.
    pub fn add_stage(&mut self, stage: Box<dyn Stage>) {
        self.stage_metrics
            .push(StageMetrics::new(&self.obs, stage.name()));
        self.stages.push(stage);
    }

    /// Pushes one event through the stages in order, until one drops it or
    /// hands it on in a [`Trigger::Conformance`]. A line that leaves the
    /// stages with process context counts as `pipeline.forwarded`: it is
    /// what central storage keeps.
    pub fn push(&mut self, event: LogEvent) -> PipelineOutput {
        self.pushed.incr();
        let mut out = PipelineOutput::default();
        let mut current = Some(event);
        for (stage, metrics) in self.stages.iter_mut().zip(&self.stage_metrics) {
            let Some(event) = current.take() else { break };
            metrics.processed.incr();
            let result = stage.process(event);
            current = result.event;
            if current.is_none() && handed_on(&result.triggers).is_none() {
                metrics.dropped.incr();
            }
            out.triggers.extend(result.triggers);
        }
        let line = current.as_ref().or(handed_on(&out.triggers));
        if line.is_some_and(|line| line.context.is_some()) {
            self.forwarded.incr();
        }
        out
    }

    /// [`Pipeline::push`] per event, one output per input in order. Kept
    /// only because the ledger's isolated pipeline pass
    /// (`benchmark/src/layers.rs`) calls it; the engine pushes line by line.
    pub fn push_batch(&mut self, events: Vec<LogEvent>) -> Vec<PipelineOutput> {
        events.into_iter().map(|event| self.push(event)).collect()
    }
}

/// The line a stage handed on, in its [`Trigger::Conformance`].
fn handed_on(triggers: &[Trigger]) -> Option<&LogEvent> {
    triggers.iter().find_map(|t| match t {
        Trigger::Conformance(line) => Some(line),
        _ => None,
    })
}

/// Drops lines that are not relevant to the current operation.
#[derive(Debug)]
pub struct NoiseFilter {
    keep: Arc<RegexSet>,
}

impl NoiseFilter {
    /// Keeps only lines matching any of `keep`: a set of the filter's own,
    /// or an `Arc` of one compiled once for many filters.
    pub fn keep(keep: impl Into<Arc<RegexSet>>) -> NoiseFilter {
        NoiseFilter { keep: keep.into() }
    }
}

impl Stage for NoiseFilter {
    fn process(&mut self, event: LogEvent) -> StageOutput {
        if self.keep.is_empty() || self.keep.first_match(&event.message).is_some() {
            StageOutput::pass(event)
        } else {
            StageOutput::drop_event()
        }
    }

    fn name(&self) -> &'static str {
        "noise-filter"
    }
}

/// Annotates events with process context using a [`RuleBook`] and raises
/// conformance / assertion triggers — combining the paper's *log annotator*
/// and *trigger* components. Every line it sees leaves it inside its
/// [`Trigger::Conformance`], matched or not: the annotator hands the line
/// on instead of copying it, so it is the last stage a line reaches.
#[derive(Debug)]
pub struct ProcessAnnotator {
    rules: Arc<RuleBook>,
    process_id: Arc<str>,
    process_instance_id: Arc<str>,
}

impl ProcessAnnotator {
    /// Creates an annotator bound to one process instance. The rules are
    /// per process, not per instance: pass an `Arc` to share one indexed
    /// book between every instance's annotator. The two ids are shared
    /// with every line's [`ProcessContext`]: pass `Arc`s to share them
    /// further.
    pub fn new(
        rules: impl Into<Arc<RuleBook>>,
        process_id: impl Into<Arc<str>>,
        process_instance_id: impl Into<Arc<str>>,
    ) -> ProcessAnnotator {
        ProcessAnnotator {
            rules: rules.into(),
            process_id: process_id.into(),
            process_instance_id: process_instance_id.into(),
        }
    }
}

impl Stage for ProcessAnnotator {
    fn process(&mut self, event: LogEvent) -> StageOutput {
        let Some(m) = self.rules.match_line(&event.message) else {
            // Unmatched lines still flow to conformance, which will classify
            // them as unknown/error — that is a detection signal.
            return StageOutput {
                event: None,
                triggers: vec![Trigger::Conformance(event)],
            };
        };
        let assertion = (m.boundary == Boundary::End).then_some(Trigger::Assertion);
        let mut ctx = ProcessContext::new(
            Arc::clone(&self.process_id),
            Arc::clone(&self.process_instance_id),
        )
        .with_step(m.activity);
        if let Some((_, id)) = m.fields.iter().find(|(k, _)| k == "instanceid") {
            ctx = ctx.with_cloud_instance(id.clone());
        }
        let mut event = event.with_context(ctx);
        for (k, v) in m.fields {
            if event.field(&k).is_none() {
                event.fields.push((k, v));
            }
        }
        StageOutput {
            event: None,
            triggers: std::iter::once(Trigger::Conformance(event))
                .chain(assertion)
                .collect(),
        }
    }

    fn name(&self) -> &'static str {
        "process-annotator"
    }
}

/// Starts the periodic timer on the operation-start line and stops it on the
/// operation-end line (the paper's *timer setter*).
#[derive(Debug)]
pub struct TimerSetter {
    start: Arc<Regex>,
    end: Arc<Regex>,
    process_instance_id: String,
}

impl TimerSetter {
    /// Creates a timer setter for one process instance; the two patterns
    /// may be its own or `Arc`s shared with every other instance's.
    pub fn new(
        start: impl Into<Arc<Regex>>,
        end: impl Into<Arc<Regex>>,
        process_instance_id: impl Into<String>,
    ) -> TimerSetter {
        TimerSetter {
            start: start.into(),
            end: end.into(),
            process_instance_id: process_instance_id.into(),
        }
    }
}

impl Stage for TimerSetter {
    fn process(&mut self, event: LogEvent) -> StageOutput {
        let mut out = StageOutput::pass(event);
        let msg = &out.event.as_ref().expect("pass keeps event").message;
        if self.start.is_match(msg) {
            out.triggers.push(Trigger::PeriodicStart {
                process_instance_id: self.process_instance_id.clone(),
            });
        } else if self.end.is_match(msg) {
            out.triggers.push(Trigger::PeriodicStop {
                process_instance_id: self.process_instance_id.clone(),
            });
        }
        out
    }

    fn name(&self) -> &'static str {
        "timer-setter"
    }
}

/// Passes only "important" lines — those tagged with an activity — and
/// drops the rest. No line reaches it behind a [`ProcessAnnotator`], which
/// hands every line on; the engine applies the same predicate where it
/// stores the annotated line. Kept only because the ledger's isolated
/// pipeline pass (`benchmark/src/layers.rs`) still adds it.
#[derive(Debug, Default)]
pub struct ImportantLineForwarder;

impl Stage for ImportantLineForwarder {
    fn process(&mut self, event: LogEvent) -> StageOutput {
        if event.context.is_some() {
            StageOutput::pass(event)
        } else {
            StageOutput::drop_event()
        }
    }

    fn name(&self) -> &'static str {
        "important-line-forwarder"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::LineRule;
    use pod_sim::SimTime;

    fn event(msg: &str) -> LogEvent {
        LogEvent::new(SimTime::from_millis(1), "asgard.log", msg)
    }

    fn rules() -> RuleBook {
        let mut b = RuleBook::new();
        b.push(
            LineRule::new("start-task", Boundary::Start, &[r"Started rolling upgrade"]).unwrap(),
        );
        b.push(
            LineRule::new(
                "new-instance-ready",
                Boundary::End,
                &[r"Instance (?P<instanceid>i-[0-9a-f]+) is ready"],
            )
            .unwrap(),
        );
        b
    }

    #[test]
    fn annotator_attaches_context_and_triggers() {
        let mut a = ProcessAnnotator::new(rules(), "rolling-upgrade", "run-9");
        let out = a.process(event("Instance i-77 is ready for use."));
        assert!(out.event.is_none(), "the line leaves in its trigger");
        assert_eq!(out.triggers.len(), 2);
        let e = handed_on(&out.triggers).unwrap();
        assert_eq!(e.message, "Instance i-77 is ready for use.");
        let ctx = e.context.as_ref().unwrap();
        assert_eq!(ctx.step_id.as_deref(), Some("new-instance-ready"));
        assert_eq!(ctx.cloud_instance_id.as_deref(), Some("i-77"));
        assert_eq!(e.field("instanceid"), Some("i-77"));
        assert_eq!(
            e.fields.iter().filter(|(k, _)| k == "instanceid").count(),
            1
        );
        assert_eq!(out.triggers[1], Trigger::Assertion);
    }

    #[test]
    fn start_boundary_does_not_trigger_assertion() {
        let mut a = ProcessAnnotator::new(rules(), "rolling-upgrade", "run-9");
        let out = a.process(event("Started rolling upgrade"));
        assert_eq!(out.triggers.len(), 1);
        assert!(matches!(out.triggers[0], Trigger::Conformance(_)));
    }

    #[test]
    fn unmatched_line_still_goes_to_conformance() {
        let mut a = ProcessAnnotator::new(rules(), "rolling-upgrade", "run-9");
        let out = a.process(event("some totally unknown output"));
        assert!(out.event.is_none(), "the line leaves in its trigger");
        assert_eq!(out.triggers.len(), 1);
        let e = handed_on(&out.triggers).unwrap();
        assert_eq!(e.message, "some totally unknown output");
        assert!(e.context.is_none());
    }

    #[test]
    fn timer_setter_raises_start_and_stop() {
        let mut t = TimerSetter::new(
            Regex::new("upgrade task started").unwrap(),
            Regex::new("upgrade task completed").unwrap(),
            "run-1",
        );
        let out = t.process(event("upgrade task started"));
        assert!(matches!(out.triggers[0], Trigger::PeriodicStart { .. }));
        let out = t.process(event("upgrade task completed"));
        assert!(matches!(out.triggers[0], Trigger::PeriodicStop { .. }));
        let out = t.process(event("nothing"));
        assert!(out.triggers.is_empty());
    }

    #[test]
    fn full_pipeline_filters_annotates_forwards() {
        let obs = Obs::detached();
        let mut p = Pipeline::on(&obs);
        p.add_stage(Box::new(NoiseFilter::keep(
            RegexSet::new(&["Instance", "upgrade"]).unwrap(),
        )));
        p.add_stage(Box::new(ProcessAnnotator::new(
            rules(),
            "rolling-upgrade",
            "run-1",
        )));
        let forwarded = || obs.snapshot().counter("pipeline.forwarded");

        // Noise: dropped before annotation, no triggers.
        let out = p.push(event("jvm gc pause 12ms"));
        assert!(out.triggers.is_empty());
        assert_eq!(forwarded(), 0);

        // Known activity: handed on with context, so forwarded.
        let out = p.push(event("Instance i-aa is ready for use"));
        assert_eq!(out.triggers.len(), 2);
        assert!(handed_on(&out.triggers).unwrap().context.is_some());
        assert_eq!(forwarded(), 1);

        // Relevant but unknown: conformance trigger, not forwarded.
        let out = p.push(event("upgrade hit unexpected state"));
        assert_eq!(out.triggers.len(), 1);
        assert!(handed_on(&out.triggers).unwrap().context.is_none());
        assert_eq!(forwarded(), 1);
    }

    #[test]
    fn pipeline_records_per_stage_metrics() {
        let obs = Obs::detached();
        let mut p = Pipeline::on(&obs);
        p.add_stage(Box::new(NoiseFilter::keep(
            RegexSet::new(&["Instance", "upgrade"]).unwrap(),
        )));
        p.add_stage(Box::new(ProcessAnnotator::new(
            rules(),
            "rolling-upgrade",
            "run-1",
        )));
        p.add_stage(Box::new(ImportantLineForwarder));

        p.push(event("jvm gc pause 12ms"));
        p.push(event("Instance i-aa is ready for use"));
        p.push(event("upgrade hit unexpected state"));

        let snap = obs.snapshot();
        assert_eq!(snap.counter("pipeline.pushed"), 3);
        assert_eq!(snap.counter("pipeline.noise-filter.processed"), 3);
        assert_eq!(snap.counter("pipeline.noise-filter.dropped"), 1);
        assert_eq!(snap.counter("pipeline.process-annotator.processed"), 2);
        // Handing a line on in a trigger is not dropping it, and no line
        // gets past the annotator.
        assert_eq!(snap.counter("pipeline.process-annotator.dropped"), 0);
        assert_eq!(
            snap.counter("pipeline.important-line-forwarder.processed"),
            0
        );
        assert_eq!(snap.counter("pipeline.forwarded"), 1);
    }

    #[test]
    fn push_batch_equals_per_line_pushes() {
        let build = || {
            let mut p = Pipeline::new();
            p.add_stage(Box::new(NoiseFilter::keep(
                RegexSet::new(&["Instance", "upgrade"]).unwrap(),
            )));
            p.add_stage(Box::new(ProcessAnnotator::new(
                rules(),
                "rolling-upgrade",
                "run-1",
            )));
            p.add_stage(Box::new(ImportantLineForwarder));
            p
        };
        let lines = [
            "jvm gc pause 12ms",
            "Instance i-aa is ready for use",
            "upgrade hit unexpected state",
            "Started rolling upgrade",
        ];
        let mut singly = build();
        let expected: Vec<PipelineOutput> = lines.iter().map(|l| singly.push(event(l))).collect();
        let mut batched = build();
        let got = batched.push_batch(lines.iter().map(|l| event(l)).collect());
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.triggers, e.triggers);
        }
    }
}
