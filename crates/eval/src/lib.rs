//! The evaluation harness: reproduces Section V of the paper.
//!
//! - [`build_scenario`] / [`build_engine`] — a steady-state cluster on the
//!   simulated cloud plus a wired POD engine;
//! - [`monitor_upgrade`] — the one driver of a monitored upgrade: a
//!   [`RunPlan`] in, a [`MonitoredRun`] out (the classified [`RunRecord`],
//!   the engine's summary, the orchestrator's report and the [`Scenario`]
//!   it ran in; [`MonitoredRun::trace`] copies its trace out on demand);
//! - [`Campaign`] — the fault-injection campaign: the 8 fault types × N
//!   runs of that driver, clusters of 4 or 20 instances, confounded by
//!   concurrent scale-in/out, random terminations and a second team
//!   exhausting the shared account ([`CampaignConfig::clean`]: no
//!   confounders, one run per fault type);
//! - [`classify_run`] / [`MetricSet`] — per-run attribution of detections
//!   to ground truth and the Table-I formulas (precision, recall, accuracy
//!   rate);
//! - [`TimingStats`] — the Figure-6 diagnosis-time distribution;
//! - [`render_report`] — plain-text rendering of every table and figure;
//! - [`LatencyProfile`] — the latency-budget profiler: every run's
//!   per-stage self virtual time ([`RunRecord::stage_self_us`]),
//!   p50/p95/p99 per fault type;
//! - [`collect_streams`] / [`replay`] — the gateway soak: many interleaved
//!   faulty upgrades serialized to raw lines, then replayed through one
//!   `pod-gateway` with per-operation engines;
//! - [`RecoveryStats`] — the recovery loop: the campaign's optional
//!   remediation stage hands every diagnosed root cause to `pod-recovery`
//!   and aggregates the per-fault MTTR distribution plus
//!   success/escalation rates;
//! - [`replay_telemetry`] — the same soak under an explicit
//!   `TelemetryMode` (off/sampled/full), with tail-based trace sampling,
//!   queue-wait tail exemplars and the gateway's flight-recorder dump;
//! - [`replay_with_recovery`] — the soak with the recovery stage wired
//!   in: every tenant engine's diagnosis hook feeds that tenant's own
//!   `pod_recovery::RecoveryDispatcher`, whose repairs contend for the
//!   lanes of one shared `pod_recovery::RecoveryStorm`, with per-tenant
//!   MTTR-under-load;
//! - the run record — one JSON-lines journal per run, every record built
//!   on [`Record`] and written by [`write_journal`] as `RUN_<name>.jsonl`:
//!   [`campaign_lines`] ([`metrics_line`], [`snapshot_lines`],
//!   [`latency_lines`], [`incident_lines`]), [`soak_lines`]
//!   ([`gateway_line`], [`telemetry_line`], [`exemplar_lines`],
//!   [`flight_json`]), [`recovery_lines`], [`recovery_soak_lines`] and
//!   [`wall_line`] (the only wall-clock record);
//! - [`TraceDump::chrome_trace`] — the one trace export: a run's spans,
//!   causal events and cause arrows as Chrome trace-event JSON
//!   (Perfetto-loadable), written with the same [`pod_log::Json`] as the
//!   run record;
//! - [`diff_journals`] / [`diff_report`] — what moved between two run
//!   records; `pod-diagnosis diff` and every `--baseline` gate are this
//!   one comparison.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod campaign;
mod journal;
mod metrics;
mod profile;
mod report;
mod scenario;
mod soak;
mod timing;

pub use campaign::{
    execute_run, monitor_upgrade, Campaign, CampaignConfig, CampaignReport, ConformanceStats,
    FaultRecoveryStats, MonitoredRun, RecoveryRecord, RecoveryStats, RunPlan, RunRecord, TraceDump,
};
pub use journal::{
    campaign_lines, diff_journals, diff_report, exemplar_lines, flight_json, gateway_line,
    incident_lines, latency_lines, metrics_line, recovery_lines, recovery_soak_lines,
    render_journal, snapshot_lines, soak_lines, telemetry_line, wall_line, write_journal,
    JournalDiff, JournalError, Record, GATE_RATIO,
};
pub use metrics::{classify_run, GroundTruth, MetricSet, RunOutcome};
pub use profile::LatencyProfile;
pub use report::{render_gateway_report, render_metrics_line, render_report};
pub use scenario::{
    build_engine, build_scenario, healthy_log, pod_config, Scenario, ScenarioConfig,
};
pub use soak::{
    collect_streams, render_recovery_soak, render_soak_report, replay, replay_telemetry,
    replay_with_recovery, OpStream, SoakConfig, SoakOpResult, SoakRecoveryReport, SoakReport,
    SoakStreams, TenantRecoveryResult,
};
pub use timing::TimingStats;
