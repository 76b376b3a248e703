//! The directly-follows graph (DFG) — the core statistic of discovery.

use std::collections::BTreeMap;

/// A directly-follows graph over activity names, with frequencies.
///
/// # Examples
///
/// ```
/// use pod_mining::Dfg;
///
/// let traces = vec![
///     vec!["a".to_string(), "b".to_string(), "c".to_string()],
///     vec!["a".to_string(), "b".to_string(), "b".to_string(), "c".to_string()],
/// ];
/// let dfg = Dfg::from_traces(&traces);
/// assert!(dfg.edges().contains(&("a", "b", 2)));
/// assert!(dfg.edges().contains(&("b", "b", 1)));
/// assert_eq!(dfg.start_activities(), vec!["a"]);
/// assert_eq!(dfg.end_activities(), vec!["c"]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dfg {
    edges: BTreeMap<(String, String), usize>,
    starts: BTreeMap<String, usize>,
    ends: BTreeMap<String, usize>,
    activity_counts: BTreeMap<String, usize>,
}

impl Dfg {
    /// Builds the DFG from traces (sequences of activity names). Empty
    /// traces are ignored.
    pub fn from_traces(traces: &[Vec<String>]) -> Dfg {
        let mut dfg = Dfg::default();
        for trace in traces {
            if trace.is_empty() {
                continue;
            }
            *dfg.starts.entry(trace[0].clone()).or_default() += 1;
            *dfg.ends.entry(trace[trace.len() - 1].clone()).or_default() += 1;
            for act in trace {
                *dfg.activity_counts.entry(act.clone()).or_default() += 1;
            }
            for pair in trace.windows(2) {
                *dfg.edges
                    .entry((pair[0].clone(), pair[1].clone()))
                    .or_default() += 1;
            }
        }
        dfg
    }

    /// All activities, sorted.
    pub fn activities(&self) -> Vec<&str> {
        self.activity_counts.keys().map(String::as_str).collect()
    }

    /// Directed edges `(from, to, frequency)`, sorted.
    pub fn edges(&self) -> Vec<(&str, &str, usize)> {
        self.edges
            .iter()
            .map(|((a, b), f)| (a.as_str(), b.as_str(), *f))
            .collect()
    }

    /// Activities that begin traces, sorted.
    pub fn start_activities(&self) -> Vec<&str> {
        self.starts.keys().map(String::as_str).collect()
    }

    /// Activities that end traces, sorted.
    pub fn end_activities(&self) -> Vec<&str> {
        self.ends.keys().map(String::as_str).collect()
    }

    /// Successors of one activity, sorted.
    pub fn successors(&self, activity: &str) -> Vec<&str> {
        self.edges
            .keys()
            .filter(|(a, _)| a == activity)
            .map(|(_, b)| b.as_str())
            .collect()
    }

    /// Predecessors of one activity, sorted.
    pub fn predecessors(&self, activity: &str) -> Vec<&str> {
        let mut preds: Vec<&str> = self
            .edges
            .keys()
            .filter(|(_, b)| b == activity)
            .map(|(a, _)| a.as_str())
            .collect();
        preds.sort();
        preds
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.activity_counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traces(specs: &[&[&str]]) -> Vec<Vec<String>> {
        specs
            .iter()
            .map(|t| t.iter().map(|s| s.to_string()).collect())
            .collect()
    }

    #[test]
    fn builds_loop_edges() {
        let dfg = Dfg::from_traces(&traces(&[&["a", "b", "c", "b", "c", "d"]]));
        assert!(dfg.edges().contains(&("c", "b", 1)));
        assert!(dfg.edges().contains(&("b", "c", 2)));
        assert_eq!(dfg.successors("c"), vec!["b", "d"]);
        assert_eq!(dfg.predecessors("b"), vec!["a", "c"]);
    }

    #[test]
    fn tracks_start_and_end_frequencies() {
        let dfg = Dfg::from_traces(&traces(&[&["a", "b"], &["a", "c"], &["x", "b"]]));
        assert_eq!(dfg.start_activities(), vec!["a", "x"]);
        assert_eq!(dfg.end_activities(), vec!["b", "c"]);
    }

    #[test]
    fn empty_traces_ignored() {
        let dfg = Dfg::from_traces(&traces(&[&[]]));
        assert!(dfg.is_empty());
    }
}
