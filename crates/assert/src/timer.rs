//! One-off and periodic timers (Section III.B.3 of the paper).
//!
//! Assertion evaluation is triggered by logs, but "sometimes there is no log
//! line indicating the completion of a certain step. In such cases, we set a
//! timer to trigger the corresponding assertion evaluation after a period of
//! time." Periodic timers run for the whole operation.

use std::collections::HashSet;

use pod_sim::{EventQueue, SimDuration, SimTime};

/// Identifier of a scheduled timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

#[derive(Debug)]
struct Entry<T> {
    id: TimerId,
    payload: T,
    period: Option<SimDuration>,
}

/// A virtual-time timer wheel with one-off and periodic timers.
///
/// The owner polls [`TimerService::due`] as the clock advances; periodic
/// timers automatically reschedule.
///
/// # Examples
///
/// ```
/// use pod_assert::TimerService;
/// use pod_sim::{SimDuration, SimTime};
///
/// let mut timers = TimerService::new();
/// timers.schedule_once(SimTime::from_secs(5), "check-step-3");
/// timers.schedule_periodic(SimTime::from_secs(10), SimDuration::from_secs(10), "health");
///
/// assert!(timers.due(SimTime::from_secs(4)).is_empty());
/// let fired = timers.due(SimTime::from_secs(10));
/// assert_eq!(fired.len(), 2);
/// // The periodic timer rescheduled itself for t=20s.
/// assert_eq!(timers.due(SimTime::from_secs(20)).len(), 1);
/// ```
#[derive(Debug)]
pub struct TimerService<T> {
    queue: EventQueue<Entry<T>>,
    cancelled: HashSet<TimerId>,
    next_id: u64,
}

impl<T> Default for TimerService<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerService<T> {
    /// Creates an empty timer service.
    pub fn new() -> TimerService<T> {
        TimerService {
            queue: EventQueue::new(),
            cancelled: HashSet::new(),
            next_id: 0,
        }
    }
}

impl<T: Clone> TimerService<T> {
    fn fresh_id(&mut self) -> TimerId {
        let id = TimerId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Schedules a one-off timer firing at `at`.
    pub fn schedule_once(&mut self, at: SimTime, payload: T) -> TimerId {
        let id = self.fresh_id();
        self.queue.schedule(
            at,
            Entry {
                id,
                payload,
                period: None,
            },
        );
        id
    }

    /// Schedules a periodic timer first firing at `first`, then every
    /// `every` thereafter until cancelled.
    pub fn schedule_periodic(&mut self, first: SimTime, every: SimDuration, payload: T) -> TimerId {
        assert!(every > SimDuration::ZERO, "period must be positive");
        let id = self.fresh_id();
        self.queue.schedule(
            first,
            Entry {
                id,
                payload,
                period: Some(every),
            },
        );
        id
    }

    /// Cancels a timer (one-off or periodic). Safe to call twice.
    pub fn cancel(&mut self, id: TimerId) {
        self.cancelled.insert(id);
    }

    /// Returns all timers due at or before `now`, rescheduling periodic
    /// ones. Fired entries report their id, due time and payload.
    pub fn due(&mut self, now: SimTime) -> Vec<(TimerId, SimTime, T)> {
        let mut fired = Vec::new();
        while let Some(at) = self.queue.peek_time() {
            if at > now {
                break;
            }
            let (at, entry) = self.queue.pop().expect("peeked entry");
            if self.cancelled.remove(&entry.id) {
                // Dropped for good, periodic or not: its id is never queued
                // again, so the set need not remember it either.
                continue;
            }
            fired.push((entry.id, at, entry.payload.clone()));
            if let Some(period) = entry.period {
                self.queue.schedule(at + period, entry);
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_off_fires_once() {
        let mut t = TimerService::new();
        t.schedule_once(SimTime::from_secs(1), "x");
        assert_eq!(t.due(SimTime::from_secs(2)).len(), 1);
        assert!(t.due(SimTime::from_secs(10)).is_empty());
    }

    #[test]
    fn periodic_reschedules() {
        let mut t = TimerService::new();
        t.schedule_periodic(SimTime::from_secs(1), SimDuration::from_secs(2), "p");
        let fired = t.due(SimTime::from_secs(6));
        // t=1, 3, 5.
        assert_eq!(fired.len(), 3);
        assert_eq!(fired[2].1, SimTime::from_secs(5));
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let mut t = TimerService::new();
        let a = t.schedule_once(SimTime::from_secs(1), "a");
        let b = t.schedule_periodic(SimTime::from_secs(1), SimDuration::from_secs(1), "b");
        t.cancel(a);
        t.cancel(b);
        assert!(t.due(SimTime::from_secs(100)).is_empty());
    }

    #[test]
    fn cancel_periodic_mid_flight() {
        let mut t = TimerService::new();
        let id = t.schedule_periodic(SimTime::from_secs(1), SimDuration::from_secs(1), "b");
        assert_eq!(t.due(SimTime::from_secs(2)).len(), 2);
        t.cancel(id);
        assert!(t.due(SimTime::from_secs(10)).is_empty());
    }

    #[test]
    fn a_fired_cancellation_is_forgotten() {
        let mut t = TimerService::new();
        for i in 0..1000u64 {
            let at = SimTime::from_secs(1 + i % 7);
            let id = match i % 2 {
                0 => t.schedule_once(at, i),
                _ => t.schedule_periodic(at, SimDuration::from_secs(1), i),
            };
            t.schedule_once(at, 1000 + i);
            t.cancel(id);
        }
        let fired = t.due(SimTime::from_secs(60));
        assert_eq!(fired.len(), 1000);
        assert!(fired.iter().all(|(_, _, payload)| *payload >= 1000));
        assert!(t.cancelled.is_empty());
    }

    #[test]
    fn due_order_is_chronological() {
        let mut t = TimerService::new();
        t.schedule_once(SimTime::from_secs(3), 3);
        t.schedule_once(SimTime::from_secs(1), 1);
        t.schedule_once(SimTime::from_secs(2), 2);
        let fired: Vec<i32> = t
            .due(SimTime::from_secs(5))
            .into_iter()
            .map(|f| f.2)
            .collect();
        assert_eq!(fired, vec![1, 2, 3]);
    }
}
