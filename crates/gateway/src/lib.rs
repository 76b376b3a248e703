//! pod-gateway: a sharded, multi-tenant online diagnosis service.
//!
//! The paper's online half (Figure 1) monitors *one* sporadic operation per
//! call stack. This crate turns that into a service: raw log lines from
//! many concurrent operations enter one [`Gateway`], are routed by a stable
//! (process id, instance id) hash onto shards ([`shard_for`]), wait in
//! bounded per-shard queues and drain in batches into per-operation
//! `pod_core` engines (behind the [`DiagnosisSink`] trait).
//!
//! Three properties matter at scale and all three are explicit here:
//!
//! * **Backpressure** — queues are bounded; an [`OverloadPolicy`] decides
//!   whether the producer blocks or which line is shed, and every shed or
//!   deferred line is counted in `pod-obs` metrics.
//! * **Batching** — a shard wakes one flush interval after a line lands
//!   in its idle queue and drains up to `batch_size` lines, grouped per
//!   operation: one wakeup cost per drain, one sink call per group.
//! * **Determinism** — the whole service runs on one `pod_sim` clock;
//!   wakeups fire in (time, shard) order, so the same interleaved input
//!   always produces byte-identical detections.
//!
//! [`Gateway::set_incident_hook`] is the dispatcher hookup for recovery
//! storms: it fires on the gateway timeline whenever a sink raises new
//! detections.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod gateway;
mod queue;
mod shard;

pub use gateway::{
    DiagnosisSink, Gateway, GatewayConfig, GatewayError, GatewayStats, OpId, OpReport, ShardStats,
};
pub use queue::OverloadPolicy;
pub use shard::shard_for;
