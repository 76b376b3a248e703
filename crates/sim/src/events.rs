//! A deterministic discrete-event queue.
//!
//! The queue is generic over the event payload so each simulation layer can
//! define its own event enum and keep full ownership of its state while the
//! queue only orders *when* things happen. Ties at the same virtual time are
//! broken by insertion order, which keeps runs reproducible.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic future-event list for discrete-event simulation.
///
/// # Examples
///
/// ```
/// use pod_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(20), "b");
/// q.schedule(SimTime::from_millis(10), "a");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from_millis(10), "a"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at virtual time `at`.
    ///
    /// Events scheduled for the same instant fire in the order they were
    /// scheduled.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, payload });
    }

    /// Removes and returns the earliest pending event. Returns `None` when
    /// the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (s.at, s.payload))
    }

    /// Removes and returns the earliest pending event if it is due at or
    /// before `now`; `None` when the queue is exhausted or the earliest
    /// event lies in the future (it stays queued).
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.at > now {
            return None;
        }
        self.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.schedule(t, "first");
        q.schedule(t, "second");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop_due(SimTime::from_secs(1)), None);
    }

    #[test]
    fn pop_due_leaves_future_events_queued() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(20), "later");
        q.schedule(SimTime::from_millis(10), "due");
        let now = SimTime::from_millis(10);
        assert_eq!(q.pop_due(now), Some((now, "due")));
        assert_eq!(q.pop_due(now), None);
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), "later")));
    }
}
