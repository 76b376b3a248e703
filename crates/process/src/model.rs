//! A BPMN-subset process model.
//!
//! The paper models sporadic operations (Figure 2: rolling upgrade) in BPMN.
//! The subset implemented here covers what operations processes need: start
//! and end events, tasks (activities), and exclusive (XOR) / parallel (AND)
//! gateways, connected by sequence flows. Loops are expressed with XOR
//! gateways, exactly like the upgrade loop in Figure 2.

use std::collections::HashMap;
use std::fmt;

/// Index of a node within its model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// Index of a sequence flow within its model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub(crate) usize);

/// The two gateway semantics supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatewayKind {
    /// Exclusive (XOR): route one token along exactly one branch.
    Exclusive,
    /// Parallel (AND): synchronise all incoming, fork all outgoing.
    Parallel,
}

/// What a node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The process start event.
    Start,
    /// A process end event.
    End,
    /// An activity, identified by its (unique) name.
    Task(String),
    /// A gateway.
    Gateway(GatewayKind),
}

/// One node of the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The node's id.
    pub id: NodeId,
    /// Its kind.
    pub kind: NodeKind,
}

/// A directed sequence flow between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// The flow's id.
    pub id: FlowId,
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
}

/// A validation problem found by [`ProcessModelBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The model has no start event.
    MissingStart,
    /// The model has no end event.
    MissingEnd,
    /// More than one start event.
    MultipleStarts,
    /// A node is unreachable from the start event.
    Unreachable(String),
    /// Two tasks share a name.
    DuplicateTaskName(String),
    /// A node has no outgoing flow but is not an end event.
    DeadEnd(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::MissingStart => f.write_str("model has no start event"),
            ModelError::MissingEnd => f.write_str("model has no end event"),
            ModelError::MultipleStarts => f.write_str("model has more than one start event"),
            ModelError::Unreachable(n) => write!(f, "node `{n}` is unreachable from start"),
            ModelError::DuplicateTaskName(n) => write!(f, "duplicate task name `{n}`"),
            ModelError::DeadEnd(n) => write!(f, "non-end node `{n}` has no outgoing flow"),
        }
    }
}

impl std::error::Error for ModelError {}

/// An immutable, validated process model. Build one with
/// [`ProcessModelBuilder`].
///
/// # Examples
///
/// ```
/// use pod_process::ProcessModelBuilder;
///
/// // start -> a -> (loop: b -> c -> xor) -> end
/// let mut b = ProcessModelBuilder::new("demo");
/// let start = b.start();
/// let a = b.task("a");
/// let join = b.exclusive_gateway();
/// let t_b = b.task("b");
/// let t_c = b.task("c");
/// let split = b.exclusive_gateway();
/// let end = b.end();
/// b.flow(start, a);
/// b.flow(a, join);
/// b.flow(join, t_b);
/// b.flow(t_b, t_c);
/// b.flow(t_c, split);
/// b.flow(split, join); // loop back
/// b.flow(split, end);
/// let model = b.build().unwrap();
/// assert_eq!(model.task_names(), vec!["a", "b", "c"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessModel {
    name: String,
    nodes: Vec<Node>,
    flows: Vec<Flow>,
}

impl ProcessModel {
    /// The model's name (process id).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All sequence flows.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Task names in node order.
    pub fn task_names(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Task(name) => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Incoming flows of a node.
    pub fn incoming(&self, id: NodeId) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|f| f.to == id)
            .map(|f| f.id)
            .collect()
    }

    /// Outgoing flows of a node.
    pub fn outgoing(&self, id: NodeId) -> Vec<FlowId> {
        self.flows
            .iter()
            .filter(|f| f.from == id)
            .map(|f| f.id)
            .collect()
    }

    /// Renders the model in Graphviz DOT format (tasks as boxes, gateways as
    /// diamonds) — the shape Figure 2 is drawn in.
    pub fn to_dot(&self) -> String {
        let mut out = format!("digraph \"{}\" {{\n  rankdir=TB;\n", self.name);
        for n in &self.nodes {
            let (shape, label) = match &n.kind {
                NodeKind::Start => ("circle", "start".to_string()),
                NodeKind::End => ("doublecircle", "end".to_string()),
                NodeKind::Task(t) => ("box", t.clone()),
                NodeKind::Gateway(GatewayKind::Exclusive) => ("diamond", "X".to_string()),
                NodeKind::Gateway(GatewayKind::Parallel) => ("diamond", "+".to_string()),
            };
            out.push_str(&format!(
                "  n{} [shape={shape}, label=\"{label}\"];\n",
                n.id.0
            ));
        }
        for f in &self.flows {
            out.push_str(&format!("  n{} -> n{};\n", f.from.0, f.to.0));
        }
        out.push_str("}\n");
        out
    }
}

/// Builder for [`ProcessModel`].
#[derive(Debug, Clone)]
pub struct ProcessModelBuilder {
    name: String,
    nodes: Vec<Node>,
    flows: Vec<Flow>,
}

impl ProcessModelBuilder {
    /// Starts building a model with the given name.
    pub fn new(name: impl Into<String>) -> ProcessModelBuilder {
        ProcessModelBuilder {
            name: name.into(),
            nodes: Vec::new(),
            flows: Vec::new(),
        }
    }

    fn add(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { id, kind });
        id
    }

    /// Adds the start event.
    pub fn start(&mut self) -> NodeId {
        self.add(NodeKind::Start)
    }

    /// Adds an end event.
    pub fn end(&mut self) -> NodeId {
        self.add(NodeKind::End)
    }

    /// Adds a task (activity).
    pub fn task(&mut self, name: impl Into<String>) -> NodeId {
        self.add(NodeKind::Task(name.into()))
    }

    /// Adds an exclusive (XOR) gateway.
    pub fn exclusive_gateway(&mut self) -> NodeId {
        self.add(NodeKind::Gateway(GatewayKind::Exclusive))
    }

    /// Adds a parallel (AND) gateway.
    pub fn parallel_gateway(&mut self) -> NodeId {
        self.add(NodeKind::Gateway(GatewayKind::Parallel))
    }

    /// Connects two nodes with a sequence flow.
    pub fn flow(&mut self, from: NodeId, to: NodeId) -> FlowId {
        let id = FlowId(self.flows.len());
        self.flows.push(Flow { id, from, to });
        id
    }

    /// Validates and freezes the model.
    ///
    /// # Errors
    ///
    /// Returns the first [`ModelError`] found: missing/multiple start,
    /// missing end, duplicate task names, unreachable nodes, or dead ends.
    pub fn build(self) -> Result<ProcessModel, ModelError> {
        let starts: Vec<_> = self
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Start)
            .collect();
        if starts.is_empty() {
            return Err(ModelError::MissingStart);
        }
        if starts.len() > 1 {
            return Err(ModelError::MultipleStarts);
        }
        if !self.nodes.iter().any(|n| n.kind == NodeKind::End) {
            return Err(ModelError::MissingEnd);
        }
        let mut names: HashMap<&str, usize> = HashMap::new();
        for n in &self.nodes {
            if let NodeKind::Task(t) = &n.kind {
                *names.entry(t.as_str()).or_default() += 1;
            }
        }
        if let Some((name, _)) = names.iter().find(|(_, c)| **c > 1) {
            return Err(ModelError::DuplicateTaskName(name.to_string()));
        }
        // Reachability from the start event.
        let start = starts[0].id;
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![start];
        seen[start.0] = true;
        while let Some(n) = stack.pop() {
            for f in self.flows.iter().filter(|f| f.from == n) {
                if !seen[f.to.0] {
                    seen[f.to.0] = true;
                    stack.push(f.to);
                }
            }
        }
        for (i, reached) in seen.iter().enumerate() {
            if !reached {
                return Err(ModelError::Unreachable(describe(&self.nodes[i])));
            }
        }
        // Every non-end node needs an outgoing flow.
        for n in &self.nodes {
            if n.kind != NodeKind::End && !self.flows.iter().any(|f| f.from == n.id) {
                return Err(ModelError::DeadEnd(describe(n)));
            }
        }
        Ok(ProcessModel {
            name: self.name,
            nodes: self.nodes,
            flows: self.flows,
        })
    }
}

fn describe(n: &Node) -> String {
    match &n.kind {
        NodeKind::Start => "start".to_string(),
        NodeKind::End => format!("end#{}", n.id.0),
        NodeKind::Task(t) => t.clone(),
        NodeKind::Gateway(_) => format!("gateway#{}", n.id.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear() -> ProcessModel {
        let mut b = ProcessModelBuilder::new("linear");
        let s = b.start();
        let a = b.task("a");
        let t_b = b.task("b");
        let e = b.end();
        b.flow(s, a);
        b.flow(a, t_b);
        b.flow(t_b, e);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_queries_linear_model() {
        let m = linear();
        assert_eq!(m.task_names(), vec!["a", "b"]);
        let is_a = |n: &&Node| n.kind == NodeKind::Task("a".into());
        let a = m.nodes().iter().find(is_a).unwrap().id;
        assert_eq!(m.incoming(a).len(), 1);
        assert_eq!(m.outgoing(a).len(), 1);
    }

    #[test]
    fn missing_start_is_rejected() {
        let mut b = ProcessModelBuilder::new("x");
        let a = b.task("a");
        let e = b.end();
        b.flow(a, e);
        assert_eq!(b.build().unwrap_err(), ModelError::MissingStart);
    }

    #[test]
    fn missing_end_is_rejected() {
        let mut b = ProcessModelBuilder::new("x");
        let s = b.start();
        let a = b.task("a");
        b.flow(s, a);
        b.flow(a, s); // cycle, no end
        assert_eq!(b.build().unwrap_err(), ModelError::MissingEnd);
    }

    #[test]
    fn duplicate_task_names_are_rejected() {
        let mut b = ProcessModelBuilder::new("x");
        let s = b.start();
        let a1 = b.task("a");
        let a2 = b.task("a");
        let e = b.end();
        b.flow(s, a1);
        b.flow(a1, a2);
        b.flow(a2, e);
        assert_eq!(
            b.build().unwrap_err(),
            ModelError::DuplicateTaskName("a".into())
        );
    }

    #[test]
    fn unreachable_node_is_rejected() {
        let mut b = ProcessModelBuilder::new("x");
        let s = b.start();
        let a = b.task("a");
        let orphan = b.task("orphan");
        let e = b.end();
        b.flow(s, a);
        b.flow(a, e);
        b.flow(orphan, e);
        assert_eq!(
            b.build().unwrap_err(),
            ModelError::Unreachable("orphan".into())
        );
    }

    #[test]
    fn dead_end_is_rejected() {
        let mut b = ProcessModelBuilder::new("x");
        let s = b.start();
        let a = b.task("a");
        let e = b.end();
        b.flow(s, a);
        b.flow(s, e);
        // `a` has no outgoing flow.
        assert_eq!(b.build().unwrap_err(), ModelError::DeadEnd("a".into()));
    }

    #[test]
    fn dot_output_contains_all_tasks() {
        let dot = linear().to_dot();
        assert!(dot.contains("label=\"a\""));
        assert!(dot.contains("label=\"b\""));
        assert!(dot.contains("->"));
    }
}
