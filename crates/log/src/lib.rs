//! Log infrastructure for POD-Diagnosis: events, transformation rules, the
//! local log-processor pipeline and central log storage.
//!
//! This crate reproduces the role Logstash plays in the paper's
//! implementation (Section IV): log lines are modelled as Logstash-shaped
//! events ([`LogEvent`]), matched against per-activity regular expressions
//! ([`RuleBook`]), annotated with process context ([`ProcessContext`]) and
//! pushed through a [`Pipeline`] of stages — noise filter, timer setter,
//! annotator-and-trigger. The annotator hands each line on inside its
//! conformance [`Trigger`] instead of copying it; the engine then forwards
//! that same line, by `Arc`, to the shared [`LogStorage`] when it is
//! "important" (annotated with process context). Conformance verdicts,
//! assertion results and diagnosis steps go to the same storage as
//! [`LogRecord`]s, rendered into their lines only when a query reads them.
//! Figure 1's central log processor — the consumer that triggers diagnosis
//! on a failure line — is `pod-core`'s engine, which reacts inline on the
//! virtual clock.
//!
//! Who compiles when: a [`RuleBook`] and the stages' patterns are per
//! *process*, a [`Pipeline`] per *execution*. The pattern-holding stages
//! take `impl Into<Arc<_>>`: whoever watches many executions compiles (and
//! [`RuleBook::build_index`]es) once and hands every pipeline an `Arc`; a
//! caller with one pipeline passes the value.
//!
//! JSON serialization of events is hand-rolled in [`Json`] so the workspace
//! carries no external serialization dependency.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod json;
mod matcher;
mod parse;
mod pipeline;
mod storage;

pub use event::{LogEvent, ProcessContext, Severity};
pub use json::{Json, JsonError};
pub use matcher::{Boundary, LineRule, RuleBook, RuleMatch};
pub use parse::{parse_line, LineFormat, ParsedLine, UNCLASSIFIED};
pub use pipeline::{
    ImportantLineForwarder, LineCause, NoiseFilter, Pipeline, PipelineOutput, ProcessAnnotator,
    Stage, StageOutput, TimerSetter, Trigger,
};
pub use storage::{LogQuery, LogRecord, LogStorage};
