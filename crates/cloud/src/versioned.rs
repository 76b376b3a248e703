//! Version history for eventually-consistent reads.
//!
//! AWS describe-calls are eventually consistent: a read shortly after a write
//! may return the previous state. The simulator reproduces this by keeping a
//! bounded version history per resource; a stale read resolves against a
//! past effective time instead of "now".

use pod_sim::SimTime;

/// How many past versions to retain per resource. Staleness windows are a
/// few seconds while writes are much rarer, so a small bound suffices.
const MAX_VERSIONS: usize = 8;

/// A value with a bounded modification history.
///
/// # Examples
///
/// ```
/// use pod_cloud::Versioned;
/// use pod_sim::SimTime;
///
/// let mut v = Versioned::new(SimTime::ZERO, "v1");
/// v.set(SimTime::from_secs(10), "v2");
/// assert_eq!(*v.latest(), "v2");
/// assert_eq!(*v.at(SimTime::from_secs(5)), "v1");
/// assert_eq!(*v.at(SimTime::from_secs(10)), "v2");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Versioned<T> {
    /// `(effective_from, value)`, sorted ascending by time.
    versions: Vec<(SimTime, T)>,
}

impl<T> Versioned<T> {
    /// Creates a history with one initial version.
    pub fn new(at: SimTime, value: T) -> Versioned<T> {
        Versioned {
            versions: vec![(at, value)],
        }
    }

    /// Records a new version effective from `at`. Versions must be recorded
    /// in non-decreasing time order; same-instant writes replace.
    pub fn set(&mut self, at: SimTime, value: T) {
        if let Some(last) = self.versions.last() {
            debug_assert!(at >= last.0, "versions must be recorded in time order");
            if last.0 == at {
                let last = self.versions.last_mut().expect("non-empty");
                last.1 = value;
                return;
            }
        }
        self.versions.push((at, value));
        if self.versions.len() > MAX_VERSIONS {
            let excess = self.versions.len() - MAX_VERSIONS;
            self.versions.drain(..excess);
        }
    }

    /// Records a new version effective from `at`: the newest value with
    /// `edit` applied.
    pub(crate) fn update(&mut self, at: SimTime, edit: impl FnOnce(&mut T))
    where
        T: Clone,
    {
        let mut value = self.latest().clone();
        edit(&mut value);
        self.set(at, value);
    }

    /// The newest value.
    pub fn latest(&self) -> &T {
        &self.versions.last().expect("history is never empty").1
    }

    /// The value visible at effective time `t`: the newest version whose
    /// effective-from is `<= t`, or the oldest retained version if `t`
    /// precedes the whole history.
    pub fn at(&self, t: SimTime) -> &T {
        match self.versions.iter().rev().find(|(from, _)| *from <= t) {
            Some((_, v)) => v,
            None => &self.versions.first().expect("history is never empty").1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stale_reads_see_old_versions() {
        let mut v = Versioned::new(SimTime::from_secs(0), 1);
        v.set(SimTime::from_secs(10), 2);
        v.set(SimTime::from_secs(20), 3);
        assert_eq!(*v.at(SimTime::from_secs(0)), 1);
        assert_eq!(*v.at(SimTime::from_secs(15)), 2);
        assert_eq!(*v.at(SimTime::from_secs(25)), 3);
        assert_eq!(*v.latest(), 3);
    }

    #[test]
    fn same_instant_write_replaces() {
        let mut v = Versioned::new(SimTime::from_secs(1), "a");
        v.set(SimTime::from_secs(1), "b");
        assert_eq!(*v.latest(), "b");
        assert_eq!(*v.at(SimTime::from_secs(1)), "b");
    }

    #[test]
    fn history_is_bounded() {
        let mut v = Versioned::new(SimTime::ZERO, 0);
        for i in 1..100u64 {
            v.set(SimTime::from_secs(i), i);
        }
        assert_eq!(*v.latest(), 99);
        // A read far in the past resolves to the oldest retained version.
        assert_eq!(*v.at(SimTime::ZERO), 92);
    }
}
