//! Fault trees and error diagnosis for POD-Diagnosis.
//!
//! Implements Section III.B.4 of the paper:
//!
//! - [`FaultTree`] / [`FaultNode`] — one tree per assertion, structuring
//!   known errors, intermediate events and root-cause faults, with `{VAR}`
//!   placeholders instantiated from the runtime request and per-node
//!   process-step contexts used for pruning;
//! - [`DiagnosticTest`] — the on-demand checks bound to tree nodes:
//!   inverted assertions, per-instance checks (inconclusive without an
//!   instance id in the error context), and scaling-activity-feed queries;
//! - [`DiagnosisEngine`] — top-down traversal ordered by fault probability
//!   (or test cost), with memoised test results and a paper-style
//!   transcript ("4 potential faults in total … 2/4 faults are excluded …
//!   One root cause is identified") written to central log storage;
//! - [`rolling_upgrade_repository`] — the knowledge base for the rolling
//!   upgrade case study, covering the evaluation's eight fault types, the
//!   scale-in interference and (in the amended version) the shared-account
//!   instance-limit cause.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod library;
mod test;
mod tree;

pub use engine::{DiagnosedCause, DiagnosisEngine, DiagnosisReport, DiagnosisVerdict, TestOrder};
pub use library::{rolling_upgrade_repository, steps, version_count_tree};
pub use test::{DiagnosisContext, DiagnosticTest, TestResult};
pub use tree::{FaultNode, FaultTree, FaultTreeRepository};
