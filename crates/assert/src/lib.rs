//! Assertion evaluation for POD-Diagnosis.
//!
//! Implements Section III.B.3 and the relevant part of Section IV of the
//! paper:
//!
//! - [`ConsistentApi`] — the consistent AWS-API layer: exponential retry on
//!   transient errors and on unexpected (presumed stale) reads, plus a
//!   timeout mechanism calibrated "at the 95% percentile";
//! - [`CloudAssertion`] — the pre-defined assertion library, high-level
//!   (whole-system) and low-level (per-node / per-value) checks whose
//!   variables are instantiated from the [`ExpectedEnv`] configuration
//!   repository;
//! - [`AssertionLibrary`] — bindings from process activities to the
//!   assertions their completion triggers;
//! - [`AssertionEvaluator`] — the service that runs assertions, measures
//!   their (virtual-time) duration and writes paper-style assertion log
//!   lines to central storage, tagged with their [`AssertionTrigger`]: a
//!   log line, a one-off timer or the periodic timer. The timers themselves
//!   are the engine's (`pod_core::PodEngine`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod assertion;
mod consistent;
mod env;
mod evaluator;

pub use assertion::{
    AssertionBinding, AssertionLevel, AssertionLibrary, AssertionOutcome, BoundAssertion,
    CloudAssertion, InstanceAssertionKind,
};
pub use consistent::{ConsistentApi, ConsistentError, RetryPolicy};
pub use env::ExpectedEnv;
pub use evaluator::{AssertionContext, AssertionEvaluator, AssertionRecord, AssertionTrigger};
