//! Engine configuration as authored ([`PodConfig`]) and as compiled once per
//! process ([`CompiledPod`]), and the shared expected-environment handle.

use std::sync::Arc;

use parking_lot::Mutex;
use pod_assert::{AssertionLibrary, CloudAssertion, ExpectedEnv, RetryPolicy};
use pod_faulttree::{FaultTreeRepository, TestOrder};
use pod_log::RuleBook;
use pod_process::{PetriNet, ProcessModel};
use pod_regex::{ParseError, Regex, RegexSet};
use pod_sim::SimDuration;

/// The expected environment, shared between the engine and the operator /
/// experiment harness. Legitimate concurrent operations (a deliberate
/// scale-in) update it; an assertion evaluation that snapshotted the old
/// expectation mid-flight reproduces the paper's second false-positive
/// class. Copy-on-write: a snapshot is a reference count, and an update
/// copies the expectation only while some snapshot still holds it.
#[derive(Debug, Clone)]
pub struct SharedEnv {
    inner: Arc<Mutex<Arc<ExpectedEnv>>>,
}

impl SharedEnv {
    /// Wraps an initial expectation.
    pub fn new(env: ExpectedEnv) -> SharedEnv {
        SharedEnv {
            inner: Arc::new(Mutex::new(Arc::new(env))),
        }
    }

    /// The current expectation, unaffected by later updates.
    pub fn snapshot(&self) -> Arc<ExpectedEnv> {
        Arc::clone(&self.inner.lock())
    }

    /// Applies a mutation (e.g. the operator acknowledging a scale-in).
    pub fn update(&self, f: impl FnOnce(&mut ExpectedEnv)) {
        f(Arc::make_mut(&mut self.inner.lock()));
    }
}

/// Static configuration of a [`crate::PodEngine`], patterns still text;
/// [`PodConfig::compile`] turns it into the form engines run on.
#[derive(Debug)]
pub struct PodConfig {
    /// The process model conformance checks against.
    pub model: ProcessModel,
    /// Transformation rules annotating log lines with process context; by
    /// `Arc` because every execution's annotator holds this one book.
    pub rules: Arc<RuleBook>,
    /// Noise-filter keep patterns.
    pub relevance_patterns: Vec<String>,
    /// Patterns of known-error log lines.
    pub known_error_patterns: Vec<String>,
    /// Pattern marking operation start (starts the periodic timer).
    pub operation_start_pattern: String,
    /// Pattern marking operation end (stops the timers).
    pub operation_end_pattern: String,
    /// Assertion bindings per activity.
    pub bindings: AssertionLibrary,
    /// Fault trees per assertion key.
    pub trees: FaultTreeRepository,
    /// Retry/timeout policy of the consistent API layer (post-step
    /// assertion evaluation).
    pub retry_policy: RetryPolicy,
    /// Seed for the engine's own randomness (diagnosis overhead sampling).
    /// The one per-execution value here: [`crate::PodEngine::new`] reads it
    /// and [`PodConfig::compile`] does not.
    pub engine_seed: u64,
    /// Visiting order of fault-tree siblings.
    pub test_order: TestOrder,
    /// The activity that starts a silent wait (arms the step timer).
    pub wait_activity: Option<String>,
    /// The activity whose log line completes the wait (cancels the timer).
    pub completion_activity: Option<String>,
    /// Activities during which one in-flight replacement is expected (the
    /// process-aware floor of the periodic capacity check).
    pub in_flight_activities: Vec<String>,
    /// Timeout for the step timer — "set based on experiments, at the 95%
    /// percentile" of historical step durations.
    pub step_timeout: SimDuration,
    /// Extra assertions evaluated at every periodic tick, besides the
    /// process-aware capacity checks — the paper's "regression test"
    /// assertions (e.g. resource availability).
    pub periodic_assertions: Vec<CloudAssertion>,
    /// How many instances are replaced at a time (the upgrade's `k`).
    pub batch_size: u32,
}

impl PodConfig {
    /// A configuration with engine defaults; the caller supplies the
    /// process artefacts (model, rules, bindings, trees, patterns).
    pub fn new(
        model: ProcessModel,
        rules: impl Into<Arc<RuleBook>>,
        bindings: AssertionLibrary,
        trees: FaultTreeRepository,
    ) -> PodConfig {
        PodConfig {
            model,
            rules: rules.into(),
            relevance_patterns: Vec::new(),
            known_error_patterns: Vec::new(),
            operation_start_pattern: "^$".to_string(),
            operation_end_pattern: "^$".to_string(),
            bindings,
            trees,
            retry_policy: RetryPolicy::default(),
            engine_seed: 0,
            test_order: TestOrder::ByProbability,
            wait_activity: None,
            completion_activity: None,
            in_flight_activities: Vec::new(),
            step_timeout: SimDuration::from_secs(150),
            periodic_assertions: Vec::new(),
            batch_size: 1,
        }
    }

    /// Compiles what an engine derives from this configuration whatever
    /// execution it watches — patterns, the rule book's literal index, the
    /// Petri net — once per process; every engine built from the result
    /// ([`crate::PodEngine::from_compiled`]) shares it and compiles nothing.
    ///
    /// # Errors
    ///
    /// Fails if any configured pattern does not compile.
    pub fn compile(self) -> Result<Arc<CompiledPod>, ParseError> {
        let noise_filter = match self.relevance_patterns.as_slice() {
            [] => None,
            patterns => Some(Arc::new(RegexSet::new(patterns)?)),
        };
        self.rules.build_index();
        Ok(Arc::new(CompiledPod {
            noise_filter,
            operation_start: Arc::new(Regex::new(&self.operation_start_pattern)?),
            operation_end: Arc::new(Regex::new(&self.operation_end_pattern)?),
            known_errors: RegexSet::new(&self.known_error_patterns)?,
            net: Arc::new(PetriNet::compile(&self.model)),
            config: self,
        }))
    }
}

/// A [`PodConfig`] compiled: what every execution of one process shares.
/// Immutable and `Send + Sync` (matching scratch lives in thread-locals), so
/// a fleet's engines hold one allocation by `Arc`; what differs per execution
/// is an argument of [`crate::PodEngine::from_compiled`].
#[derive(Debug)]
pub struct CompiledPod {
    /// What it was compiled from: engines read the settings, bindings, trees
    /// and the (now indexed) rule book in place. `engine_seed` is unused.
    pub(crate) config: PodConfig,
    /// `None` when no relevance pattern is configured: no filter stage.
    pub(crate) noise_filter: Option<Arc<RegexSet>>,
    pub(crate) operation_start: Arc<Regex>,
    pub(crate) operation_end: Arc<Regex>,
    pub(crate) known_errors: RegexSet,
    pub(crate) net: Arc<PetriNet>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Engines on different threads will hold one `CompiledPod`.
    #[test]
    fn compiled_pod_is_shareable_across_threads() {
        fn shared<T: Send + Sync>() {}
        shared::<CompiledPod>();
    }
}
