//! Fault-tree structures (Section III.B.4 of the paper).
//!
//! "The events including possible failures/errors, their associated
//! potential faults, and on-demand assertions can be naturally organized
//! into tree-like structures. … In contrast to traditional fault tree
//! analysis for hardware architectures, the fault trees here are constructed
//! from and based on application system functions and knowledge of their
//! possible faults. Note that the fault trees are not employed for FTA;
//! instead we use them to structure data in a repository."
//!
//! There is **one fault tree per assertion**; node descriptions may contain
//! `{VAR}` placeholders instantiated from the runtime request.

use crate::test::DiagnosticTest;

/// One node of a fault tree: an (intermediate) error event or a root-cause
/// fault, with an optional on-demand diagnostic test.
#[derive(Debug, Clone)]
pub struct FaultNode {
    /// Stable identifier, used for test-result caching.
    pub id: String,
    /// Description; `{VAR}` placeholders are instantiated at diagnosis time.
    pub description: String,
    /// Child events / faults, ordered arbitrarily (the engine re-orders).
    pub children: Vec<FaultNode>,
    /// When set, the node is only relevant if the error's process context
    /// matches this activity — the pruning key.
    pub step_context: Option<String>,
    /// The on-demand check confirming or excluding this event. Nodes
    /// without a test are structural and are visited through their children.
    pub test: Option<DiagnosticTest>,
    /// Prior fault probability, used to order sibling visits.
    pub probability: f64,
    /// Whether confirming this node identifies an actionable root cause.
    pub is_root_cause: bool,
}

impl FaultNode {
    /// Creates a structural (untested) node.
    pub fn branch(id: impl Into<String>, description: impl Into<String>) -> FaultNode {
        FaultNode {
            id: id.into(),
            description: description.into(),
            children: Vec::new(),
            step_context: None,
            test: None,
            probability: 0.5,
            is_root_cause: false,
        }
    }

    /// Creates a testable leaf that, when confirmed, is a root cause.
    pub fn root_cause(
        id: impl Into<String>,
        description: impl Into<String>,
        test: DiagnosticTest,
        probability: f64,
    ) -> FaultNode {
        FaultNode {
            id: id.into(),
            description: description.into(),
            children: Vec::new(),
            step_context: None,
            test: Some(test),
            probability,
            is_root_cause: true,
        }
    }

    /// Attaches a diagnostic test to a branch node.
    pub fn with_test(mut self, test: DiagnosticTest) -> FaultNode {
        self.test = Some(test);
        self
    }

    /// Restricts the node (and its subtree) to one process step.
    pub fn in_step(mut self, activity: impl Into<String>) -> FaultNode {
        self.step_context = Some(activity.into());
        self
    }

    /// Sets the prior probability.
    pub fn with_probability(mut self, p: f64) -> FaultNode {
        self.probability = p;
        self
    }

    /// Adds a child.
    pub fn child(mut self, node: FaultNode) -> FaultNode {
        self.children.push(node);
        self
    }

    /// Instantiates `{VAR}` placeholders in the description.
    pub fn instantiate(&self, variables: &[(String, String)]) -> String {
        let mut text = self.description.clone();
        for (k, v) in variables {
            text = text.replace(&format!("{{{k}}}"), v);
        }
        text
    }

    /// Number of testable leaves under (and including) this node, after
    /// pruning against an optional step context.
    pub fn potential_faults(&self, step: Option<&str>) -> usize {
        if !self.relevant_for(step) {
            return 0;
        }
        if self.children.is_empty() {
            usize::from(self.test.is_some())
        } else {
            self.children.iter().map(|c| c.potential_faults(step)).sum()
        }
    }

    /// Whether the node survives pruning for `step`.
    pub fn relevant_for(&self, step: Option<&str>) -> bool {
        match (&self.step_context, step) {
            (Some(required), Some(actual)) => required == actual,
            // No step context on the node, or no context in the request:
            // keep (the paper only prunes when both sides are known).
            _ => true,
        }
    }

    /// Depth-first iterator over all node ids (for tests/tooling).
    pub fn ids(&self) -> Vec<&str> {
        let mut out = vec![self.id.as_str()];
        for c in &self.children {
            out.extend(c.ids());
        }
        out
    }
}

/// A fault tree: the repository entry for one assertion.
#[derive(Debug, Clone)]
pub struct FaultTree {
    /// The assertion key this tree is selected by (one tree per assertion).
    pub assertion_key: String,
    /// The top event (the failed assertion itself).
    pub root: FaultNode,
}

impl FaultTree {
    /// Creates a tree for an assertion key.
    pub fn new(assertion_key: impl Into<String>, root: FaultNode) -> FaultTree {
        FaultTree {
            assertion_key: assertion_key.into(),
            root,
        }
    }
}

/// The repository of fault trees, selected by assertion key.
#[derive(Debug, Clone, Default)]
pub struct FaultTreeRepository {
    trees: Vec<FaultTree>,
}

impl FaultTreeRepository {
    /// Creates an empty repository.
    pub fn new() -> FaultTreeRepository {
        FaultTreeRepository::default()
    }

    /// Adds a tree.
    pub fn add(&mut self, tree: FaultTree) {
        self.trees.push(tree);
    }

    /// Selects the tree for a failed assertion.
    pub fn select(&self, assertion_key: &str) -> Option<&FaultTree> {
        self.trees.iter().find(|t| t.assertion_key == assertion_key)
    }

    /// All trees, read-only: what the library-wide invariant tests walk.
    pub fn trees(&self) -> &[FaultTree] {
        &self.trees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test::DiagnosticTest;
    use pod_assert::CloudAssertion;

    /// Shared by `Arc` between engines: an `Rc` or `RefCell` inside stops this compiling.
    #[test]
    fn repository_is_shareable_across_threads() {
        fn shared<T: Send + Sync>() {}
        shared::<FaultTreeRepository>();
    }

    fn leaf(id: &str, p: f64) -> FaultNode {
        FaultNode::root_cause(
            id,
            format!("{id} of {{ASG}}"),
            DiagnosticTest::AssertionFails(CloudAssertion::AmiAvailable),
            p,
        )
    }

    #[test]
    fn builder_shapes_tree() {
        let tree = FaultNode::branch("root", "top event")
            .child(leaf("a", 0.3).in_step("step1"))
            .child(leaf("b", 0.7));
        assert_eq!(tree.ids(), vec!["root", "a", "b"]);
        assert_eq!(tree.potential_faults(None), 2);
    }

    #[test]
    fn pruning_by_step_context() {
        let tree = FaultNode::branch("root", "top")
            .child(leaf("a", 0.3).in_step("step1"))
            .child(leaf("b", 0.7).in_step("step2"))
            .child(leaf("c", 0.5));
        assert_eq!(tree.potential_faults(Some("step1")), 2); // a + unconstrained c
        assert_eq!(tree.potential_faults(Some("step2")), 2); // b + c
        assert_eq!(tree.potential_faults(None), 3);
    }

    #[test]
    fn instantiation_replaces_variables() {
        let n = leaf("a", 0.1);
        let text = n.instantiate(&[("ASG".to_string(), "pm--asg".to_string())]);
        assert_eq!(text, "a of pm--asg");
    }

    #[test]
    fn repository_selects_by_assertion() {
        let mut repo = FaultTreeRepository::new();
        repo.add(FaultTree::new("k1", FaultNode::branch("r1", "t1")));
        repo.add(FaultTree::new("k2", FaultNode::branch("r2", "t2")));
        assert_eq!(repo.select("k2").unwrap().root.id, "r2");
        assert!(repo.select("k3").is_none());
        assert_eq!(repo.trees().len(), 2);
    }
}
