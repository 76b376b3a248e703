//! Automated remediation of diagnosed root causes — the "POD-Recovery"
//! follow-up the paper defers to future work.
//!
//! POD-Diagnosis walks a fault tree to a confirmed root cause and stops.
//! This crate closes the loop: a `pod_faulttree::DiagnosisReport` root
//! cause becomes an executed, verified repair. Five layers:
//!
//! 1. **Plan library** ([`PlanLibrary`]) — maps each diagnosable root cause
//!    in `pod_faulttree::library` (wrong launch-configuration values,
//!    unavailable resources, stuck or unregistered instances) to a
//!    [`RecoveryPlan`]: its steps and re-checks, parameterised only by the
//!    offending instance. The executor resolves them against the expected
//!    environment ([`pod_assert::ExpectedEnv`]) when it runs them.
//! 2. **Executor** ([`RecoveryExecutor`]) — runs plan steps against
//!    [`pod_cloud::Cloud`] through the consistent API layer
//!    ([`pod_assert::ConsistentApi`]): per-step timeout, exponential
//!    backoff, bounded retries. A step that exhausts its budget escalates
//!    to the plan's fallback, and finally to
//!    [`RecoveryOutcome::Escalated`] — never silently dropped.
//! 3. **Closed-loop verification** — after execution the plan's assertions
//!    are re-evaluated via `pod-assert`; only a passing re-check yields
//!    [`RecoveryOutcome::Recovered`].
//! 4. **Self-monitoring** ([`monitor`]) — recovery operations are
//!    themselves sporadic operations, so each run emits Asgard-style log
//!    lines for its own process model, and [`conformance_check`] replays
//!    them through the `pod-log` noise filter and annotator into a
//!    `pod-process` conformance checker, as the paper checks any
//!    operation's log. The audit reads the run's transcript, never its
//!    cloud. The whole arc (detection →
//!    diagnosis → recovery → verification) is one causal chain in
//!    `pod-obs`, under new `recovery.*` metrics.
//! 5. **Storm arbitration** ([`RecoveryStorm`]) — at gateway scale many
//!    tenants repair concurrently against one shared, rate-limited cloud
//!    API, and the storm is where that contention is modelled. Each
//!    tenant's [`RecoveryDispatcher`] still owns its incidents; the storm
//!    is only the bounded lane pool they share (each lane's busy-until
//!    time). A dispatcher asks it for a lane in one short call
//!    before a repair and reports the lane's hold time after, charges the
//!    lane wait and throttle penalty to its own MTTR, and parks an
//!    over-cap repair for its end-of-operation sweep so nothing is
//!    dropped.
//!
//! A run is its transcript ([`RecoveryRun::transcript`]): what each step
//! and each re-check did is in the log lines the run emitted, which the
//! audit and the digest read. Everything runs in virtual time: same seed ⇒
//! byte-identical transcripts.

mod dispatch;
mod executor;
pub mod monitor;
mod plan;
mod storm;

pub use dispatch::{DispatchRecord, RecoveryDispatcher, RecoveryPath};
pub use executor::{
    RecoveryExecutor, RecoveryOutcome, RecoveryPhases, RecoveryRequest, RecoveryRun,
};
pub use monitor::{conformance_check, ConformanceReport};
pub use plan::{PlanLibrary, RecoveryPlan, RecoveryStep, ResourceKind};
pub use storm::{RecoveryStorm, StormConfig, StormStats};

#[cfg(test)]
mod fixtures;
