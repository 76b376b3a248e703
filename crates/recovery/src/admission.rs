//! The repair admission gate: a deterministic virtual-time lane arbiter
//! for bounded concurrent work against one shared backend.
//!
//! The recovery storm bounds how many repairs may run concurrently
//! against the shared cloud API: the gate models `lanes`
//! parallel service lanes, each with a busy-until time on the shared
//! clock. A request is granted the lane that frees earliest — possibly
//! after a queue wait — unless that wait exceeds the configured cap, in
//! which case the request is *deferred*: the caller must fall back to a
//! later, quieter path (the recovery storm's shed-to-sweep fallback), so
//! nothing is ever dropped, only delayed.
//!
//! Everything is pure arithmetic on [`SimTime`]: same request sequence ⇒
//! same grants, waits and in-flight counts, which is what keeps recovery
//! storms byte-deterministic.

use pod_sim::{SimDuration, SimTime};

/// The arbiter's answer to one admission request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Admitted on `lane`, starting at `start` (now + `waited`).
    Granted {
        /// The lane the work was granted; pass it back to
        /// [`AdmissionGate::occupy`] when the work's duration is known.
        lane: usize,
        /// When the lane is free for this work (≥ the request time).
        start: SimTime,
        /// Queue wait until `start` (zero when a lane was idle).
        waited: SimDuration,
        /// Lanes busy at `start`, counting this work: the concurrency
        /// level the shared backend actually sees.
        in_flight: usize,
    },
    /// Every lane is busy beyond the wait cap; the caller must take its
    /// fallback path.
    Deferred,
}

/// A deterministic virtual-time admission gate over a fixed lane pool.
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    /// Busy-until time per lane.
    lanes: Vec<SimTime>,
    max_wait: SimDuration,
}

impl AdmissionGate {
    /// A gate with `lanes` concurrent lanes; requests that would wait
    /// longer than `max_wait` for a lane are deferred.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is zero.
    pub fn new(lanes: usize, max_wait: SimDuration) -> AdmissionGate {
        assert!(lanes > 0, "admission gate needs at least one lane");
        AdmissionGate {
            lanes: vec![SimTime::ZERO; lanes],
            max_wait,
        }
    }

    /// Requests admission at `now`. Ties between equally free lanes break
    /// to the lowest index, so the grant sequence is a pure function of
    /// the request sequence.
    pub fn request(&mut self, now: SimTime) -> Admission {
        let (lane, free_at) = self
            .lanes
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(i, at)| (at, i))
            .expect("gate has at least one lane");
        let start = free_at.max(now);
        let waited = start.duration_since(now);
        if waited > self.max_wait {
            return Admission::Deferred;
        }
        let in_flight = self.lanes.iter().filter(|&&busy| busy > start).count() + 1;
        Admission::Granted {
            lane,
            start,
            waited,
            in_flight,
        }
    }

    /// Marks `lane` busy until `until` (monotone: an earlier end never
    /// shortens an existing occupation). Call once per grant, after the
    /// admitted work's duration is known.
    pub fn occupy(&mut self, lane: usize, until: SimTime) {
        let busy = &mut self.lanes[lane];
        *busy = (*busy).max(until);
    }

    /// Lanes busy at `at`.
    pub fn in_flight(&self, at: SimTime) -> usize {
        self.lanes.iter().filter(|&&busy| busy > at).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn grants_idle_lane_immediately() {
        let mut gate = AdmissionGate::new(2, SimDuration::from_secs(10));
        match gate.request(t(5)) {
            Admission::Granted {
                lane,
                start,
                waited,
                in_flight,
            } => {
                assert_eq!(lane, 0);
                assert_eq!(start, t(5));
                assert_eq!(waited, SimDuration::ZERO);
                assert_eq!(in_flight, 1);
            }
            other => panic!("expected grant, got {other:?}"),
        }
    }

    #[test]
    fn queues_on_earliest_lane_and_counts_overlap() {
        let mut gate = AdmissionGate::new(2, SimDuration::from_secs(100));
        gate.occupy(0, t(30));
        gate.occupy(1, t(10));
        // Lane 1 frees first; the work queues behind it and overlaps the
        // still-busy lane 0.
        match gate.request(t(0)) {
            Admission::Granted {
                lane,
                start,
                waited,
                in_flight,
            } => {
                assert_eq!(lane, 1);
                assert_eq!(start, t(10));
                assert_eq!(waited, SimDuration::from_secs(10));
                assert_eq!(in_flight, 2, "overlaps lane 0 (busy until 30s)");
            }
            other => panic!("expected grant, got {other:?}"),
        }
    }

    #[test]
    fn defers_past_the_wait_cap_without_mutating_lanes() {
        let mut gate = AdmissionGate::new(1, SimDuration::from_secs(5));
        gate.occupy(0, t(60));
        assert_eq!(gate.request(t(0)), Admission::Deferred);
        // The deferral reserved nothing: a later request (within the cap)
        // still gets the lane at 60s.
        match gate.request(t(58)) {
            Admission::Granted { start, .. } => assert_eq!(start, t(60)),
            other => panic!("expected grant, got {other:?}"),
        }
    }

    #[test]
    fn occupy_is_monotone() {
        let mut gate = AdmissionGate::new(1, SimDuration::ZERO);
        gate.occupy(0, t(20));
        gate.occupy(0, t(10));
        assert_eq!(gate.in_flight(t(15)), 1);
        assert_eq!(gate.in_flight(t(20)), 0);
    }

    #[test]
    fn same_request_sequence_same_grants() {
        let drive = || {
            let mut gate = AdmissionGate::new(3, SimDuration::from_secs(30));
            let mut trace = Vec::new();
            for i in 0..20u64 {
                let now = t(i * 3);
                let a = gate.request(now);
                if let Admission::Granted { lane, start, .. } = a {
                    gate.occupy(lane, start + SimDuration::from_secs(25));
                }
                trace.push(format!("{a:?}"));
            }
            trace
        };
        assert_eq!(drive(), drive());
    }
}
