//! The operation side of the reproduction: an Asgard-like rolling-upgrade
//! orchestrator, the Figure-2 process definition, fault injection and
//! interference operations.
//!
//! POD-Diagnosis is non-intrusive: the [`RollingUpgrade`] engine knows
//! nothing about diagnosis. It executes the upgrade against the simulated
//! cloud, hands each Asgard-style operation-log line to its caller as it is
//! written (where the POD engine taps in) and stops at safe points
//! ([`Advance::SafePoint`]) where the evaluation harness injects the
//! paper's eight fault types ([`FaultType`], [`FaultInjector`]) and the
//! confounding simultaneous operations ([`Interference`]).
//!
//! [`process_def`] holds the curated offline artefacts for this operation:
//! the Figure-2 [`pod_process::ProcessModel`], the transformation rules,
//! noise/error patterns and default assertion bindings.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod injection;
mod noise;
pub mod process_def;
mod upgrade;

pub use config::UpgradeConfig;
pub use injection::{FaultInjector, FaultType, Interference};
pub use noise::NoiseGenerator;
pub use upgrade::{Advance, RollingUpgrade, UpgradeOutcome, UpgradeReport};
