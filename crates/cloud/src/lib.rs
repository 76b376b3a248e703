//! A simulated AWS-like cloud: the substrate POD-Diagnosis operates on.
//!
//! The paper evaluates on real AWS (EC2 instances in an auto-scaling group
//! behind an elastic load balancer, launched from launch configurations that
//! reference AMIs, security groups and key pairs). POD-Diagnosis observes
//! that environment *only* through API reads and logs, so this crate
//! reproduces exactly those observable surfaces:
//!
//! - the resource model ([`Ami`], [`SecurityGroup`], [`KeyPair`],
//!   [`LaunchConfig`], [`Instance`], [`AutoScalingGroup`], [`Elb`]);
//! - a metered API ([`Cloud`]) with per-call latency and AWS-style error
//!   codes ([`ApiError`]);
//! - **eventual consistency**: describe-calls may observe a stale view
//!   (bounded version history per resource, [`Versioned`]);
//! - the ASG **reconciliation engine**: desired-capacity convergence,
//!   asynchronous boots and terminations, ELB auto-registration, and a
//!   scaling-activity history ([`ScalingActivity`]) — the feed an
//!   Asgard-like orchestrator polls;
//! - `admin_*` god-mode mutations used by the evaluation for environment
//!   setup, fault injection (the paper's 8 fault types) and interference
//!   (scale-in, random terminations, a second team consuming the shared
//!   account's instance limit).
//!
//! Everything runs on virtual time from [`pod_sim`] and is deterministic
//! under a seed.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cloud;
mod error;
mod ids;
mod resources;
mod state;
mod versioned;

pub use cloud::{AsgUpdate, Cloud, CloudConfig, Cluster, LaunchConfigUpdate};
pub use error::ApiError;
pub use ids::{
    AmiId, AsgName, ElbName, InstanceId, KeyPairName, LaunchConfigName, SecurityGroupId,
};
pub use resources::{
    ActivityStatus, Ami, AutoScalingGroup, Elb, Instance, InstanceState, KeyPair, LaunchConfig,
    ScalingActivity, SecurityGroup,
};
pub use state::{CloudState, INSTANCE_LIMIT};
pub use versioned::Versioned;
