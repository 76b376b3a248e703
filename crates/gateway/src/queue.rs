//! The bounded per-shard work queue and its overload policies.
//!
//! Each shard owns one [`BoundedQueue`] of raw lines. When the queue is
//! full the configured [`OverloadPolicy`] decides what gives way: the
//! producer ([`OverloadPolicy::Block`]), the oldest queued line
//! ([`OverloadPolicy::ShedOldest`]) or the incoming line
//! ([`OverloadPolicy::ShedNewest`]). The queue itself never drops silently —
//! every outcome is reported to the caller so the gateway can count it.

use std::collections::VecDeque;
use std::fmt;

use pod_sim::SimTime;

use crate::gateway::OpId;

/// What to do when a shard's bounded queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Apply backpressure: the producer stalls while the shard drains one
    /// batch synchronously, then the line is enqueued. No line is lost.
    #[default]
    Block,
    /// Drop the oldest queued line to make room (keep the freshest data).
    ShedOldest,
    /// Drop the incoming line (keep the oldest, preserve history).
    ShedNewest,
}

impl OverloadPolicy {
    /// Stable lowercase label, used in metrics, reports and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::ShedOldest => "shed-oldest",
            OverloadPolicy::ShedNewest => "shed-newest",
        }
    }
}

impl fmt::Display for OverloadPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for OverloadPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "block" => Ok(OverloadPolicy::Block),
            "shed-oldest" => Ok(OverloadPolicy::ShedOldest),
            "shed-newest" => Ok(OverloadPolicy::ShedNewest),
            other => Err(format!(
                "unknown overload policy {other:?} (expected block, shed-oldest or shed-newest)"
            )),
        }
    }
}

/// One raw line waiting in a shard queue.
#[derive(Debug)]
pub(crate) struct QueuedLine {
    /// The operation the line belongs to.
    pub(crate) op: OpId,
    /// The raw wire text.
    pub(crate) raw: String,
    /// Gateway-clock time at which the line was accepted.
    pub(crate) enqueued_at: SimTime,
}

/// Result of offering a line to a full-capacity-aware queue.
#[derive(Debug)]
pub(crate) enum PushOutcome {
    /// The line was enqueued; the queue had room.
    Enqueued,
    /// The queue was full; the *oldest* line was dropped to admit this one.
    ShedOldest,
    /// The queue was full; the *incoming* line was dropped.
    ShedNewest,
    /// The queue was full and the policy is [`OverloadPolicy::Block`]: the
    /// line is handed back so the caller can drain a batch and re-offer.
    WouldBlock(QueuedLine),
}

/// A bounded FIFO of raw lines.
#[derive(Debug)]
pub(crate) struct BoundedQueue {
    capacity: usize,
    items: VecDeque<QueuedLine>,
}

impl BoundedQueue {
    /// Creates an empty queue holding at most `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> BoundedQueue {
        assert!(capacity > 0, "queue capacity must be non-zero");
        BoundedQueue {
            capacity,
            items: VecDeque::with_capacity(capacity),
        }
    }

    /// Lines currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue holds no lines.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Offers a line under `policy`. Never drops silently: every shed is
    /// reported in the outcome so the caller can count it.
    pub fn offer(&mut self, line: QueuedLine, policy: OverloadPolicy) -> PushOutcome {
        if !self.is_full() {
            self.items.push_back(line);
            return PushOutcome::Enqueued;
        }
        match policy {
            OverloadPolicy::Block => PushOutcome::WouldBlock(line),
            OverloadPolicy::ShedOldest => {
                self.items.pop_front();
                self.items.push_back(line);
                PushOutcome::ShedOldest
            }
            OverloadPolicy::ShedNewest => PushOutcome::ShedNewest,
        }
    }

    /// Pops up to `max` lines from the front, preserving order.
    pub fn pop_batch(&mut self, max: usize) -> Vec<QueuedLine> {
        let n = max.min(self.items.len());
        self.items.drain(..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(op: usize, raw: &str) -> QueuedLine {
        QueuedLine {
            op: OpId(op),
            raw: raw.to_string(),
            enqueued_at: SimTime::ZERO,
        }
    }

    fn fill(policy: OverloadPolicy) -> (BoundedQueue, Vec<PushOutcome>) {
        let mut q = BoundedQueue::new(4);
        let outcomes = (0..10)
            .map(|i| q.offer(line(0, &format!("l{i}")), policy))
            .collect();
        (q, outcomes)
    }

    #[test]
    fn shed_oldest_drops_six_and_keeps_newest_four() {
        let (mut q, outcomes) = fill(OverloadPolicy::ShedOldest);
        let shed = outcomes
            .iter()
            .filter(|o| matches!(o, PushOutcome::ShedOldest))
            .count();
        assert_eq!(shed, 6, "10 offers into capacity 4 shed exactly 6");
        let kept: Vec<String> = q.pop_batch(10).into_iter().map(|l| l.raw).collect();
        assert_eq!(kept, ["l6", "l7", "l8", "l9"]);
    }

    #[test]
    fn shed_newest_drops_six_and_keeps_oldest_four() {
        let (mut q, outcomes) = fill(OverloadPolicy::ShedNewest);
        let shed = outcomes
            .iter()
            .filter(|o| matches!(o, PushOutcome::ShedNewest))
            .count();
        assert_eq!(shed, 6);
        let kept: Vec<String> = q.pop_batch(10).into_iter().map(|l| l.raw).collect();
        assert_eq!(kept, ["l0", "l1", "l2", "l3"]);
    }

    #[test]
    fn block_hands_the_line_back_without_dropping() {
        let (q, outcomes) = fill(OverloadPolicy::Block);
        let blocked = outcomes
            .iter()
            .filter(|o| matches!(o, PushOutcome::WouldBlock(_)))
            .count();
        assert_eq!(blocked, 6);
        assert_eq!(q.len(), 4, "queue keeps the first four, loses nothing");
    }

    #[test]
    fn pop_batch_preserves_fifo_order() {
        let mut q = BoundedQueue::new(8);
        for i in 0..5 {
            q.offer(line(i, &format!("l{i}")), OverloadPolicy::Block);
        }
        let batch = q.pop_batch(3);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].raw, "l0");
        assert_eq!(batch[2].raw, "l2");
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn policy_labels_parse_back() {
        for p in [
            OverloadPolicy::Block,
            OverloadPolicy::ShedOldest,
            OverloadPolicy::ShedNewest,
        ] {
            assert_eq!(p.label().parse::<OverloadPolicy>(), Ok(p));
        }
        assert!("drop-everything".parse::<OverloadPolicy>().is_err());
    }
}
