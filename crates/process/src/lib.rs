//! Process models and conformance checking for POD-Diagnosis.
//!
//! This crate implements the process side of the paper:
//!
//! - [`ProcessModel`] — a validated BPMN subset (start/end events, tasks,
//!   exclusive and parallel gateways) built with [`ProcessModelBuilder`];
//!   the rolling-upgrade model of Figure 2 is an instance of it;
//! - [`PetriNet`] — the model compiled to a labelled Petri net, following
//!   the paper's adaptation of token replay from Petri nets to BPMN
//!   semantics;
//! - [`ConformanceChecker`] — the near-real-time conformance service: one
//!   model, many traces, classifying each event as fit / unfit / error /
//!   unclassified ([`Conformance`]) and tracking the error context (last
//!   valid activity, expected activities, hypothesised skips) that error
//!   diagnosis consumes;
//! - [`replay_fitness`] — the token-replay fitness metric used to evaluate
//!   models discovered by process mining.
//!
//! Who compiles when: [`PetriNet::compile`] once per model. The net is
//! immutable, so every checker of one model can hold the same `Arc` of it
//! ([`ConformanceChecker::on`]); [`ConformanceChecker::new`] compiles its own.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod conformance;
mod fitness;
mod model;
mod petri;

pub use conformance::{Conformance, ConformanceChecker, Unfit};
pub use fitness::{replay_fitness, ReplayCounts};
pub use model::{
    Flow, FlowId, GatewayKind, ModelError, Node, NodeId, NodeKind, ProcessModel,
    ProcessModelBuilder,
};
pub use petri::{Marking, PetriNet};
