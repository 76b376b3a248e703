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
//! - a **causal event log** ([`EventLog`]) — one ring of records with
//!   explicit parent links, emitted at every pipeline hand-off so each
//!   incident carries its evidence chain. A record with an end is a span
//!   (upgrade step → fault-tree walk → diagnostic test → assertion
//!   result) on the virtual clock, and every record names the span that
//!   encloses it, so one record carries both a hand-off's cause and its
//!   duration;
//! - an **incident timeline explainer** ([`incidents`],
//!   [`render_timelines`]) reconstructing, per detection, the ordered
//!   causal chain from the triggering log line to the reported root cause
//!   with per-hop latency;
//! - an **ASCII sink**: the metrics summary table ([`render_summary`]).
//!
//! Each question about a trace has one view: *why a detection happened* is
//! the incident timeline above; *where the virtual time went* is
//! `pod_eval::RunRecord::stage_self_us`, summed over the records with an
//! end ([`EventLog::with_records`]); *nesting* is the trace-viewer export.
//! Timestamps come from the `pod-sim` virtual [`Clock`], so under a fixed
//! seed two runs produce byte-identical traces.
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
//! let walks = obs.counter("faulttree.walks");
//! {
//!     let span = obs.span("faulttree.walk");
//!     span.attr("tree", "asg");
//!     walks.incr();
//!     clock.advance(SimDuration::from_millis(80));
//! }
//!
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("faulttree.walks"), 1);
//! let walk = &obs.events().records()[0];
//! assert_eq!(walk.kind, "faulttree.walk");
//! assert_eq!(walk.duration(), Some(SimDuration::from_millis(80)));
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
mod timeline;

pub use event::{CauseScope, Emitted, EventId, EventLog, EventRecord, Parent, SpanGuard};
pub use flight::{
    render_dashboard, FlightDump, FlightFrame, FlightRecorder, IncidentMark, FRAME_CAP,
};
pub use histogram::{Exemplar, Histogram, HistogramSnapshot, EXEMPLAR_CAP, TAIL_QUANTILES};
pub use metrics::{Counter, Gauge, Registry, Snapshot};
pub use obs::{Obs, TelemetryMode};
pub use render::render_summary;
pub use sampler::{RunSignals, SampleVerdict, TailSampler};
pub use timeline::{incident_count, incidents, render_timelines, IncidentChain};
