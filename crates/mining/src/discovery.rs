//! Process discovery: directly-follows graph → BPMN model.
//!
//! "From a set of event traces, the algorithms derive causal dependencies
//! between events … by putting all such dependencies together, a process
//! model such as the one shown in Figure 2 can be derived." This module
//! implements that step: every activity becomes a task; activities with
//! multiple successors get an exclusive split gateway, activities with
//! multiple predecessors an exclusive join gateway; loops fall out of the
//! back-edges of the DFG, exactly like the upgrade loop of Figure 2.
//!
//! The construction mines sequential/loop control flow (operations
//! processes are overwhelmingly sequential); concurrency is represented as
//! exclusive choice, a standard simplification of DFG-based miners.

use std::collections::HashMap;

use pod_process::{ModelError, NodeId, ProcessModel, ProcessModelBuilder};

use crate::dfg::Dfg;

/// An error from [`discover_model`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiscoveryError {
    /// The DFG contained no activities.
    EmptyLog,
    /// The constructed model failed validation.
    Model(ModelError),
}

impl std::fmt::Display for DiscoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiscoveryError::EmptyLog => f.write_str("cannot discover a model from an empty log"),
            DiscoveryError::Model(e) => write!(f, "discovered model is invalid: {e}"),
        }
    }
}

impl std::error::Error for DiscoveryError {}

impl From<ModelError> for DiscoveryError {
    fn from(e: ModelError) -> Self {
        DiscoveryError::Model(e)
    }
}

/// Discovers a [`ProcessModel`] named `name` from a directly-follows graph.
///
/// # Errors
///
/// Fails on an empty DFG or if the resulting model does not validate (e.g.
/// the filtered DFG leaves activities with no path to an end).
///
/// # Examples
///
/// ```
/// use pod_mining::{discover_model, Dfg};
///
/// let traces = vec![
///     vec!["start".into(), "work".into(), "work".into(), "done".into()],
///     vec!["start".into(), "work".into(), "done".into()],
/// ];
/// let model = discover_model("mined", &Dfg::from_traces(&traces)).unwrap();
/// // Tasks come out in alphabetical (DFG) order.
/// assert_eq!(model.task_names(), vec!["done", "start", "work"]);
///
/// // The mined model replays its own traces perfectly.
/// let counts = pod_process::replay_fitness(&model, &traces);
/// assert_eq!(counts.fitness(), 1.0);
/// ```
pub fn discover_model(name: &str, dfg: &Dfg) -> Result<ProcessModel, DiscoveryError> {
    if dfg.is_empty() {
        return Err(DiscoveryError::EmptyLog);
    }
    let mut b = ProcessModelBuilder::new(name);
    let start_event = b.start();
    let end_event = b.end();

    // Task node per activity, in trace-frequency order for stable output.
    let mut task_nodes: HashMap<String, NodeId> = HashMap::new();
    for act in dfg.activities() {
        task_nodes.insert(act.to_string(), b.task(act));
    }

    // Entry point of an activity: a join gateway if it has multiple inbound
    // connections (predecessors plus possibly the start event), else the
    // task itself.
    let starts = dfg.start_activities();
    let ends = dfg.end_activities();
    let mut entry: HashMap<String, NodeId> = HashMap::new();
    for act in dfg.activities() {
        let inbound = dfg.predecessors(act).len() + usize::from(starts.contains(&act));
        let task = task_nodes[act];
        if inbound > 1 {
            let join = b.exclusive_gateway();
            b.flow(join, task);
            entry.insert(act.to_string(), join);
        } else {
            entry.insert(act.to_string(), task);
        }
    }
    // Exit point: a split gateway if multiple outbound connections
    // (successors plus possibly the end event).
    let mut exit: HashMap<String, NodeId> = HashMap::new();
    for act in dfg.activities() {
        let outbound = dfg.successors(act).len() + usize::from(ends.contains(&act));
        let task = task_nodes[act];
        if outbound > 1 {
            let split = b.exclusive_gateway();
            b.flow(task, split);
            exit.insert(act.to_string(), split);
        } else {
            exit.insert(act.to_string(), task);
        }
    }

    // Start event → entry of each start activity (via a split gateway when
    // there are several, since a BPMN start event forks all outgoing flows).
    if starts.len() > 1 {
        let split = b.exclusive_gateway();
        b.flow(start_event, split);
        for s in &starts {
            b.flow(split, entry[*s]);
        }
    } else {
        b.flow(start_event, entry[starts[0]]);
    }

    // DFG edges.
    for (from, to, _freq) in dfg.edges() {
        b.flow(exit[from], entry[to]);
    }

    // End activities → end event.
    for e in &ends {
        b.flow(exit[*e], end_event);
    }

    Ok(b.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_process::replay_fitness;

    fn traces(specs: &[&[&str]]) -> Vec<Vec<String>> {
        specs
            .iter()
            .map(|t| t.iter().map(|s| s.to_string()).collect())
            .collect()
    }

    #[test]
    fn discovers_linear_model() {
        let t = traces(&[&["a", "b", "c"], &["a", "b", "c"], &["a", "b", "c"]]);
        let model = discover_model("lin", &Dfg::from_traces(&t)).unwrap();
        assert_eq!(model.task_names(), vec!["a", "b", "c"]);
        assert_eq!(replay_fitness(&model, &t).fitness(), 1.0);
    }

    #[test]
    fn discovers_loop_like_figure_2() {
        // Mirrors the rolling-upgrade shape: setup, then a per-instance loop,
        // then completion.
        let t = traces(&[
            &[
                "update-lc",
                "sort",
                "remove",
                "terminate",
                "wait",
                "ready",
                "remove",
                "terminate",
                "wait",
                "ready",
                "completed",
            ],
            &[
                "update-lc",
                "sort",
                "remove",
                "terminate",
                "wait",
                "ready",
                "completed",
            ],
        ]);
        let dfg = Dfg::from_traces(&t);
        assert!(dfg.edges().contains(&("ready", "remove", 1)), "back-edge");
        let model = discover_model("upgrade", &dfg).unwrap();
        assert_eq!(replay_fitness(&model, &t).fitness(), 1.0);
        // Longer loops still replay.
        let long = traces(&[&[
            "update-lc",
            "sort",
            "remove",
            "terminate",
            "wait",
            "ready",
            "remove",
            "terminate",
            "wait",
            "ready",
            "remove",
            "terminate",
            "wait",
            "ready",
            "completed",
        ]]);
        assert_eq!(replay_fitness(&model, &long).fitness(), 1.0);
    }

    #[test]
    fn discovers_choice() {
        let t = traces(&[&["a", "b", "d"], &["a", "c", "d"]]);
        let model = discover_model("choice", &Dfg::from_traces(&t)).unwrap();
        assert_eq!(replay_fitness(&model, &t).fitness(), 1.0);
        // But not the unobserved interleaving b-then-c.
        let bad = traces(&[&["a", "b", "c", "d"]]);
        assert!(replay_fitness(&model, &bad).fitness() < 1.0);
    }

    #[test]
    fn multiple_start_and_end_activities() {
        let t = traces(&[&["a", "m", "x"], &["b", "m", "y"]]);
        let model = discover_model("multi", &Dfg::from_traces(&t)).unwrap();
        assert_eq!(replay_fitness(&model, &t).fitness(), 1.0);
    }

    #[test]
    fn empty_log_is_an_error() {
        assert_eq!(
            discover_model("e", &Dfg::default()).unwrap_err(),
            DiscoveryError::EmptyLog
        );
    }

    #[test]
    fn model_rejects_out_of_order_replay() {
        let t = traces(&[&["a", "b", "c"], &["a", "b", "c"]]);
        let model = discover_model("lin", &Dfg::from_traces(&t)).unwrap();
        let mut checker = pod_process::ConformanceChecker::new(&model);
        assert!(checker.replay("t", "b").is_error());
    }
}
