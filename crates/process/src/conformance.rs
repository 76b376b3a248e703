//! The conformance-checking service (Section III.B.2 of the paper).
//!
//! The service receives, per log line, the process model id, the trace id
//! (process-instance id) and the activity the line was classified as. It
//! replays the activity against the model by token replay and classifies the
//! line as *fit*, *unfit*, *error* or *unclassified*. Any classification
//! other than *fit* is a detected error and carries the error context needed
//! by diagnosis: the last valid activity, what was expected instead, and the
//! hypothesised skipped activities.

use std::collections::HashMap;
use std::sync::Arc;

use pod_obs::{Counter, EventAttrs, EventId, Obs};

use crate::model::ProcessModel;
use crate::petri::{PetriNet, State, Step};

/// How a checked log line relates to the process model — the paper's four
/// conformance tags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Conformance {
    /// The activity was expected in the current state.
    Fit,
    /// The activity belongs to the model but executed out of turn. The
    /// context is the net's, shared by every verdict on the same marking
    /// and activity.
    Unfit(Arc<Unfit>),
    /// The line matched a known-error pattern.
    Error,
    /// The line could not be classified at all.
    Unclassified,
}

impl Conformance {
    /// Whether this classification is a detected error (everything but fit).
    pub fn is_error(&self) -> bool {
        !matches!(self, Conformance::Fit)
    }

    /// The tag string used in the annotated logs, e.g. `conformance:fit`.
    pub fn tag(&self) -> &'static str {
        match self {
            Conformance::Fit => "conformance:fit",
            Conformance::Unfit(_) => "conformance:unfit",
            Conformance::Error => "conformance:error",
            Conformance::Unclassified => "conformance:unclassified",
        }
    }
}

/// The error context of an unfit verdict, worked out once per (marking,
/// activity) by the net.
#[derive(Debug, PartialEq, Eq)]
pub struct Unfit {
    /// Activities the model expected instead.
    pub expected: Vec<String>,
    /// Activities that would have to be skipped for this one to occur,
    /// when a forward-skip explains the observation.
    pub skipped: Vec<String>,
}

impl Unfit {
    pub(crate) fn new(expected: Vec<String>, skipped: Vec<String>) -> Unfit {
        Unfit { expected, skipped }
    }
}

/// An unfit verdict's `conformance.verdict` attributes: the activity, then
/// what the net's [`Unfit`] reports, `expected` and, when not empty,
/// `skipped`, each `|`-joined when read.
#[derive(Debug)]
struct UnfitAttrs {
    activity: Arc<str>,
    unfit: Arc<Unfit>,
}

impl EventAttrs for UnfitAttrs {
    fn render_attrs(&self, out: &mut Vec<(&'static str, String)>) {
        out.push(("activity", self.activity.to_string()));
        out.push(("expected", self.unfit.expected.join("|")));
        if !self.unfit.skipped.is_empty() {
            out.push(("skipped", self.unfit.skipped.join("|")));
        }
    }
}

/// The state of one process instance (trace) being checked.
#[derive(Debug, Clone)]
struct InstanceState {
    marking: State,
    /// The last successfully replayed activity, its buffer reused.
    last: Option<String>,
}

/// The conformance-checking service: one [`ProcessModel`], many traces.
///
/// # Examples
///
/// ```
/// use pod_process::{Conformance, ConformanceChecker, ProcessModelBuilder};
///
/// let mut b = ProcessModelBuilder::new("demo");
/// let s = b.start();
/// let a = b.task("a");
/// let t = b.task("b");
/// let e = b.end();
/// b.flow(s, a);
/// b.flow(a, t);
/// b.flow(t, e);
/// let mut checker = ConformanceChecker::new(&b.build().unwrap());
///
/// assert_eq!(checker.replay("run-1", "a"), Conformance::Fit);
/// assert!(matches!(checker.replay("run-1", "a"), Conformance::Unfit { .. }));
/// assert_eq!(checker.replay("run-1", "b"), Conformance::Fit);
/// assert!(checker.is_complete("run-1"));
/// ```
#[derive(Debug)]
pub struct ConformanceChecker {
    net: Arc<PetriNet>,
    instances: HashMap<String, InstanceState>,
    metrics: ConformanceMetrics,
    obs: Obs,
    last_event: Option<pod_obs::EventId>,
}

/// Cached classification counters. The replay hot path must stay well
/// under the paper's ≈10 ms envelope, so instrumentation here is counter
/// bumps and one causal-event emission only — replay *latency* is recorded
/// by the engine from virtual time, off this path.
#[derive(Debug, Clone)]
struct ConformanceMetrics {
    replays: Counter,
    fit: Counter,
    unfit: Counter,
    error: Counter,
    unclassified: Counter,
}

impl ConformanceMetrics {
    fn new(obs: &Obs) -> ConformanceMetrics {
        ConformanceMetrics {
            replays: obs.counter("conformance.replays"),
            fit: obs.counter("conformance.fit"),
            unfit: obs.counter("conformance.unfit"),
            error: obs.counter("conformance.error"),
            unclassified: obs.counter("conformance.unclassified"),
        }
    }
}

impl ConformanceChecker {
    /// Compiles `model` into a checker of its own with a detached
    /// observability context (see [`ConformanceChecker::on`]).
    pub fn new(model: &ProcessModel) -> ConformanceChecker {
        ConformanceChecker::on(PetriNet::compile(model), &Obs::detached())
    }

    /// Creates a checker over an already compiled net — its own, or an
    /// `Arc` shared with other checkers — whose classification counters and
    /// causal events land in `obs` (the engine passes the cloud-wide one).
    pub fn on(net: impl Into<Arc<PetriNet>>, obs: &Obs) -> ConformanceChecker {
        ConformanceChecker {
            net: net.into(),
            instances: HashMap::new(),
            metrics: ConformanceMetrics::new(obs),
            obs: obs.clone(),
            last_event: None,
        }
    }

    /// Emits the `conformance.verdict` causal event for a classification
    /// just made, under the parent `cause` names (called only then; `None`
    /// leaves it to the ambient cause), remembering its id for
    /// [`last_verdict_event`].
    ///
    /// [`last_verdict_event`]: ConformanceChecker::last_verdict_event
    fn emit_verdict(
        &mut self,
        activity: Option<&str>,
        verdict: &Conformance,
        cause: impl FnOnce() -> Option<EventId>,
    ) {
        // Outcome-conditional tracing: fit verdicts — the overwhelming
        // majority at fleet scale — are already counted (`conformance.fit`
        // in the replay path), so they are not traced. Detections only
        // ever parent on non-fit verdicts (`Conformance::is_error`), so
        // every incident chain stays complete. No `trace` attribute: the
        // event ring is per-trace already, so repeating the id per verdict
        // only burned an allocation per line. An unfit verdict's record
        // shares the net's label and `Unfit`; a bare verdict keeps nothing.
        self.last_event = if verdict.is_error() {
            self.obs
                .event(cause(), "conformance.verdict", verdict.tag(), || {
                    match (verdict, activity) {
                        (Conformance::Unfit(unfit), Some(activity)) => Some(UnfitAttrs {
                            activity: match self.net.label(activity) {
                                Some(label) => Arc::clone(label),
                                None => Arc::from(activity),
                            },
                            unfit: Arc::clone(unfit),
                        }),
                        _ => None,
                    }
                })
        } else {
            None
        };
    }

    /// The causal event of the most recent verdict (replay or recorded
    /// error), so the engine can parent its detection on it.
    pub fn last_verdict_event(&self) -> Option<EventId> {
        self.last_event
    }

    /// The state of `trace_id`, created on first contact (the only time
    /// the id is copied). Takes fields, not `self`, so `replay` can read
    /// the net while it holds the state.
    fn instance<'a>(
        instances: &'a mut HashMap<String, InstanceState>,
        net: &PetriNet,
        trace_id: &str,
    ) -> &'a mut InstanceState {
        if !instances.contains_key(trace_id) {
            let state = InstanceState {
                marking: net.initial_state(),
                last: None,
            };
            instances.insert(trace_id.to_string(), state);
        }
        instances.get_mut(trace_id).expect("inserted above")
    }

    /// Replays one classified activity for a trace, creating the trace on
    /// first contact. Returns the conformance verdict; on [`Conformance::Unfit`]
    /// the instance state is left unchanged (the paper does not advance the
    /// token replay on unfit events). The net answers (see
    /// [`PetriNet`]): a pair of marking and activity any checker of it has
    /// replayed before costs a table read.
    pub fn replay(&mut self, trace_id: &str, activity: &str) -> Conformance {
        self.replay_under(trace_id, activity, || None)
    }

    /// [`ConformanceChecker::replay`], tracing a non-fit verdict under the
    /// parent `cause` names, which is called only then: the engine hands
    /// down its line's pending root this way.
    pub fn replay_under(
        &mut self,
        trace_id: &str,
        activity: &str,
        cause: impl FnOnce() -> Option<EventId>,
    ) -> Conformance {
        let net: &PetriNet = &self.net;
        self.metrics.replays.incr();
        let inst = Self::instance(&mut self.instances, net, trace_id);
        let verdict = match net.step(&inst.marking, activity) {
            Step::Fire(next) => {
                inst.marking = next;
                let last = inst.last.get_or_insert_with(String::new);
                last.clear();
                last.push_str(activity);
                self.metrics.fit.incr();
                Conformance::Fit
            }
            Step::Unfit(unfit) => {
                self.metrics.unfit.incr();
                Conformance::Unfit(unfit)
            }
        };
        self.emit_verdict(Some(activity), &verdict, cause);
        verdict
    }

    /// Marks a non-replay error (known-error line or unclassified line)
    /// against the trace, creating it on first contact, and returns the
    /// matching verdict, traced under the parent `cause` names (as for
    /// [`ConformanceChecker::replay_under`]).
    pub fn record_error(
        &mut self,
        trace_id: &str,
        known_error: bool,
        cause: impl FnOnce() -> Option<EventId>,
    ) -> Conformance {
        self.metrics.replays.incr();
        Self::instance(&mut self.instances, &self.net, trace_id);
        let verdict = if known_error {
            self.metrics.error.incr();
            Conformance::Error
        } else {
            self.metrics.unclassified.incr();
            Conformance::Unclassified
        };
        self.emit_verdict(None, &verdict, cause);
        verdict
    }

    /// The last successfully replayed activity of a trace.
    pub fn last_activity(&self, trace_id: &str) -> Option<&str> {
        self.instances.get(trace_id)?.last.as_deref()
    }

    /// Whether a trace has reached the end event.
    pub fn is_complete(&self, trace_id: &str) -> bool {
        self.instances
            .get(trace_id)
            .is_some_and(|i| self.net.is_complete(&i.marking))
    }

    /// Number of traces currently tracked.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ProcessModelBuilder;

    fn model() -> ProcessModel {
        // start -> a -> join -> b -> c -> split -> (join | end)
        let mut bld = ProcessModelBuilder::new("loop");
        let s = bld.start();
        let a = bld.task("a");
        let join = bld.exclusive_gateway();
        let b = bld.task("b");
        let c = bld.task("c");
        let split = bld.exclusive_gateway();
        let e = bld.end();
        bld.flow(s, a);
        bld.flow(a, join);
        bld.flow(join, b);
        bld.flow(b, c);
        bld.flow(c, split);
        bld.flow(split, join);
        bld.flow(split, e);
        bld.build().unwrap()
    }

    fn checker() -> ConformanceChecker {
        ConformanceChecker::new(&model())
    }

    #[test]
    fn fit_sequence_completes() {
        let mut ch = checker();
        for act in ["a", "b", "c", "b", "c"] {
            assert_eq!(ch.replay("t", act), Conformance::Fit);
        }
        assert!(ch.is_complete("t"));
        assert_eq!(ch.last_activity("t"), Some("c"));
    }

    #[test]
    fn skipped_activity_is_unfit_with_context() {
        let mut ch = checker();
        assert_eq!(ch.replay("t", "a"), Conformance::Fit);
        // Skipping b: c is unfit, expected=[b], skipped=[b].
        match ch.replay("t", "c") {
            Conformance::Unfit(unfit) => {
                assert_eq!(unfit.expected, ["b"]);
                assert_eq!(unfit.skipped, ["b"]);
            }
            other => panic!("expected unfit, got {other:?}"),
        }
        // State unchanged: b still replays fine.
        assert_eq!(ch.replay("t", "b"), Conformance::Fit);
    }

    #[test]
    fn traces_are_independent() {
        let mut ch = checker();
        assert_eq!(ch.replay("t1", "a"), Conformance::Fit);
        // t2 starts fresh: "b" first is unfit there.
        assert!(ch.replay("t2", "b").is_error());
        assert_eq!(ch.instance_count(), 2);
    }

    #[test]
    fn record_error_classifications() {
        let mut ch = checker();
        assert_eq!(ch.record_error("t", true, || None), Conformance::Error);
        let unclassified = ch.record_error("t", false, || None);
        assert_eq!(unclassified, Conformance::Unclassified);
    }

    #[test]
    fn verdicts_emit_causal_events_parented_to_the_ambient_cause() {
        let obs = Obs::detached();
        obs.begin_run("t");
        let mut ch = ConformanceChecker::on(PetriNet::compile(&model()), &obs);
        let line = obs.event(None, "log.line", "asgard.log", || ());
        let _scope = obs.events().scope(line);
        // Outcome-conditional tracing: a fit replay is counted, not traced.
        ch.replay("t", "a");
        assert_eq!(ch.last_verdict_event(), None);
        assert_eq!(obs.snapshot().counter("conformance.fit"), 1);
        match ch.replay("t", "c") {
            Conformance::Unfit(_) => {}
            other => panic!("expected unfit, got {other:?}"),
        }
        let verdict_event = ch
            .last_verdict_event()
            .expect("unfit replay emits an event");
        let records = obs.events().records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].id, verdict_event.get());
        assert_eq!(records[1].kind, "conformance.verdict");
        assert_eq!(records[1].name, "conformance:unfit");
        assert_eq!(records[1].parent, line.map(|id| id.get()));
        assert!(records[1].attrs().contains(&("expected", "b".to_string())));
    }

    #[test]
    fn a_cause_is_asked_for_only_when_a_verdict_is_traced() {
        let obs = Obs::detached();
        obs.begin_run("t");
        let mut ch = ConformanceChecker::on(PetriNet::compile(&model()), &obs);
        let line = obs.event(None, "log.line", "asgard.log", || ());
        let fit = ch.replay_under("t", "a", || panic!("a fit verdict cites no cause"));
        assert_eq!(fit, Conformance::Fit);
        ch.replay_under("t", "c", || line);
        ch.record_error("t", false, || line);
        let records = obs.events().records();
        assert_eq!(records.len(), 3);
        assert!(records[1..]
            .iter()
            .all(|r| r.parent == line.map(|id| id.get())));
        let rendered = records[1].attrs();
        assert_eq!(rendered[0], ("activity", "c".to_string()));
        assert!(
            records[2].attrs().is_empty(),
            "a bare verdict keeps nothing"
        );
    }

    #[test]
    fn conformance_tags_match_paper() {
        assert_eq!(Conformance::Fit.tag(), "conformance:fit");
        assert_eq!(Conformance::Error.tag(), "conformance:error");
        assert_eq!(Conformance::Unclassified.tag(), "conformance:unclassified");
        assert_eq!(
            Conformance::Unfit(Arc::new(Unfit::new(vec![], vec![]))).tag(),
            "conformance:unfit"
        );
        assert!(!Conformance::Fit.is_error());
        assert!(Conformance::Error.is_error());
    }
}
