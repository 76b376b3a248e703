//! POD-Diagnosis: the paper's primary contribution, assembled.
//!
//! This crate wires the substrates into the online engine of Figure 1:
//! operation-log lines flow through the local log processor (noise filter →
//! timer setter → process annotator → forwarder); annotated lines trigger
//! token-replay **conformance checking** and post-step **assertion
//! evaluation**; one-off and periodic **timers** cover silent steps and the
//! whole operation; any detected error selects the **fault tree** for the
//! failed assertion, instantiates and prunes it with the process context,
//! and runs on-demand diagnostic tests until root causes are confirmed.
//!
//! The engine is non-intrusive: it consumes log lines and cloud APIs only.
//!
//! Key types: [`PodEngine`] (one per operation execution), [`PodConfig`]
//! (the offline artefacts: model, rules, bindings, trees, patterns),
//! [`CompiledPod`] (those artefacts compiled), [`SharedEnv`] (the mutable
//! expected environment), [`Detection`] and [`RunSummary`] (what the
//! operator gets).
//!
//! Who compiles when: as in the paper, once per process, offline.
//! [`PodConfig::compile`] yields an immutable `Arc<CompiledPod>` (patterns,
//! indexed rule book, Petri net, bindings, trees, settings);
//! [`PodEngine::from_compiled`] runs once per execution, takes a reference
//! count and compiles nothing. [`PodEngine::new`] is the two in a row, for
//! a caller with one execution to watch.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod detection;
mod engine;

pub use config::{CompiledPod, PodConfig, SharedEnv};
pub use detection::{Detection, DetectionSource, RunSummary};
pub use engine::PodEngine;
