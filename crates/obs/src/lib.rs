//! Observability substrate for POD-Diagnosis.
//!
//! The paper's whole evaluation (§V–VI) is measurement: detection
//! precision/recall, the 1.29–10.44 s diagnosis-time distribution, ≈10 ms
//! conformance calls, retry counts in the consistent-API layer. This crate
//! gives the running system the telemetry those numbers come from:
//!
//! - a **metrics registry** ([`Registry`]) of counters, gauges and
//!   log-scale histograms with cheaply cloneable handles and
//!   [`Snapshot`] / diff / merge support;
//! - a **span layer** ([`Tracer`]) recording nested spans (upgrade step →
//!   conformance replay → assertion eval → fault-tree walk → diagnostic
//!   test → cloud API call) with virtual-clock start/end times and
//!   key/value attributes, one trace per run id;
//! - a **causal event log** ([`EventLog`]) — ring-buffered instantaneous
//!   events with explicit parent links and span/trace correlation, emitted
//!   at every pipeline hand-off so each incident carries its evidence
//!   chain;
//! - an **incident timeline explainer** ([`incidents`],
//!   [`render_timelines`]) reconstructing, per detection, the ordered
//!   causal chain from the triggering log line to the reported root cause
//!   with per-hop latency;
//! - an **ASCII sink**: the metrics summary table ([`render_summary`]).
//!
//! Each question about a trace has one view: *why a detection happened* is
//! the incident timeline above; *where the virtual time went* is
//! `pod_eval::RunRecord::stage_self_us`, summed over
//! [`Tracer::with_finished`]; *nesting* is
//! the trace-viewer export. Timestamps come from the `pod-sim` virtual
//! [`Clock`], so under a fixed seed two runs produce byte-identical traces.
//! The run record and the trace-viewer export live in `pod-eval`, on the
//! `pod-log` JSON writer: this crate sits *below* `pod-log` in the
//! dependency order so the log pipeline itself can be instrumented, and
//! writes no JSON of its own.
//!
//! # Examples
//!
//! ```
//! use pod_obs::Obs;
//! use pod_sim::{Clock, SimDuration};
//!
//! let clock = Clock::new();
//! let obs = Obs::new(clock.clone());
//! obs.begin_run("run-7");
//!
//! let calls = obs.counter("cloud.api.calls");
//! {
//!     let span = obs.span("cloud.api.call");
//!     span.attr("op", "DescribeAsg");
//!     calls.incr();
//!     clock.advance(SimDuration::from_millis(80));
//! }
//!
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("cloud.api.calls"), 1);
//! assert_eq!(obs.tracer().finished()[0].name, "cloud.api.call");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod event;
mod flight;
mod histogram;
mod metrics;
mod obs;
mod render;
mod sampler;
mod span;
mod timeline;

pub use event::{CauseScope, Emitted, EventId, EventLog, EventRecord, Parent};
pub use flight::{
    render_dashboard, FlightDump, FlightFrame, FlightRecorder, IncidentMark, FRAME_CAP,
};
pub use histogram::{Exemplar, Histogram, HistogramSnapshot, EXEMPLAR_CAP, TAIL_QUANTILES};
pub use metrics::{Counter, Gauge, Registry, Snapshot};
pub use obs::{Obs, TelemetryMode};
pub use render::render_summary;
pub use sampler::{RunSignals, SampleVerdict, TailSampler};
pub use span::{SpanGuard, SpanRecord, Tracer};
pub use timeline::{incident_count, incidents, render_timelines, IncidentChain};
