//! Discrete-event simulation substrate for POD-Diagnosis.
//!
//! This crate provides the virtual-time foundation every other crate in the
//! workspace builds on:
//!
//! - [`SimTime`] / [`SimDuration`] — integer-microsecond virtual time;
//! - [`Clock`] — a cheaply clonable shared handle to the current time;
//! - [`EventQueue`] — a deterministic future-event list for discrete-event
//!   simulation, generic over the event payload;
//! - [`SimRng`] — seeded randomness with normal / lognormal / exponential
//!   samplers implemented in-crate;
//! - [`LatencyModel`] — calibrated latency distributions for simulated cloud
//!   API calls;
//! - [`nearest_rank`] — the one quantile definition every report uses;
//! - [`push_bounded`] / [`growth_step`] — the one growth rule for the
//!   buffers a run keeps for its whole life.
//!
//! Everything is deterministic under a seed: two runs with the same seed
//! produce identical logs, identical diagnosis transcripts and identical
//! metric tables. This is what lets the evaluation replay the paper's
//! 160-run fault-injection campaign in milliseconds.
//!
//! # Examples
//!
//! ```
//! use pod_sim::{Clock, EventQueue, LatencyModel, SimRng, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { ApiReply, Timeout }
//!
//! let clock = Clock::new();
//! let mut rng = SimRng::seed_from(42);
//! let mut queue = EventQueue::new();
//! let api = LatencyModel::uniform_millis(70, 90);
//!
//! queue.schedule(clock.now() + api.sample(&mut rng), Ev::ApiReply);
//! queue.schedule(SimTime::from_secs(30), Ev::Timeout);
//!
//! let (t, ev) = queue.pop().unwrap();
//! clock.advance_to(t);
//! assert_eq!(ev, Ev::ApiReply);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod events;
mod grow;
mod latency;
mod rng;
mod stats;
mod time;

pub use clock::Clock;
pub use events::EventQueue;
pub use grow::{growth_step, push_bounded};
pub use latency::LatencyModel;
pub use rng::SimRng;
pub use stats::nearest_rank;
pub use time::{ParseTimeError, SimDuration, SimTime};
