//! Process mining for POD-Diagnosis (the offline half of the approach).
//!
//! The paper discovers the rolling-upgrade process model from Asgard logs:
//! lines are clustered by string distance, clusters are named and turned
//! into regular expressions (transformation rules), the tagged log is fed
//! to a discovery algorithm, and the result is the BPMN model of Figure 2.
//! This crate implements the full pipeline, replacing the off-the-shelf
//! Disco tool the paper used:
//!
//! - [`normalized_token_distance`] / [`token_levenshtein`] — string distances;
//! - [`mask_line`] / [`Template`] — variable masking and template
//!   derivation with typed named captures;
//! - [`cluster_lines`] — leader-based agglomerative clustering;
//! - [`Dfg`] — the directly-follows graph with frequencies;
//! - [`discover_model`] — DFG → validated BPMN model;
//! - [`mine_process`] — the end-to-end pipeline from raw
//!   [`pod_log::LogEvent`]s to a [`MinedProcess`] (model + rule book +
//!   traces), evaluated with [`pod_process::replay_fitness`];
//! - [`ActivityTimings`] — historical per-step timing profiles, from which
//!   the paper's "95% percentile" timeout values are derived.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cluster;
mod dfg;
mod discovery;
mod distance;
mod pipeline;
mod template;
mod timing;

pub use cluster::{cluster_lines, Cluster, ClusterConfig};
pub use dfg::Dfg;
pub use discovery::{discover_model, DiscoveryError};
pub use distance::{normalized_token_distance, token_levenshtein};
pub use pipeline::{mine_process, MinedProcess, MiningError};
pub use template::{mask_line, Template, TemplateToken, VariableKind};
pub use timing::ActivityTimings;
