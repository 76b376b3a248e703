//! Property-based tests on fault-tree structure, pruning and instantiation.

use pod_assert::{CloudAssertion, ExpectedEnv};
use pod_cloud::{AmiId, AsgName, ElbName, KeyPairName, LaunchConfigName, SecurityGroupId};
use pod_eval::{build_scenario, collect_streams, Campaign, CampaignConfig, SoakConfig};
use pod_faulttree::{DiagnosticTest, FaultNode, FaultTree, FaultTreeRepository};
use proptest::prelude::*;

/// The instantiation `FaultNode::instantiate` replaced, kept as its
/// oracle: one `str::replace` per variable, in this order, each over the
/// text the one before left.
fn sequential_replace(description: &str, env: &ExpectedEnv) -> String {
    let variables = [
        ("ASG", env.asg.to_string()),
        ("ELB", env.elb.to_string()),
        ("LC", env.launch_config.to_string()),
        ("AMI", env.expected_ami.to_string()),
        ("VERSION", env.expected_version.to_string()),
        ("KEYPAIR", env.expected_key_pair.to_string()),
        ("SG", env.expected_security_group.to_string()),
        ("TYPE", env.expected_instance_type.to_string()),
        ("N", env.expected_count.to_string()),
    ];
    let mut text = description.to_string();
    for (k, v) in variables {
        text = text.replace(&format!("{{{k}}}"), &v);
    }
    text
}

/// An environment whose ASG is named `asg` and whose count is `n`.
fn env_named(asg: &str, n: u32) -> ExpectedEnv {
    ExpectedEnv {
        asg: AsgName::new(asg),
        elb: ElbName::new("front"),
        launch_config: LaunchConfigName::new("lc-v2"),
        expected_ami: AmiId::new("ami-750c9e4f"),
        expected_version: "2.0".into(),
        expected_key_pair: KeyPairName::new("prod"),
        expected_security_group: SecurityGroupId::new("sg-1"),
        expected_instance_type: "m1.small".into(),
        expected_count: n,
    }
}

/// Every node of `node`'s subtree, parents first.
fn nodes(node: &FaultNode) -> Vec<&FaultNode> {
    let mut out = vec![node];
    for child in &node.children {
        out.extend(nodes(child));
    }
    out
}

/// Builds a random two-level tree: `branches` top branches, each with the
/// given number of leaves, each leaf optionally step-constrained.
fn build_tree(leaf_spec: &[Vec<Option<u8>>]) -> FaultTree {
    let mut root = FaultNode::branch("root", "top event on {ASG}");
    for (bi, leaves) in leaf_spec.iter().enumerate() {
        let mut branch = FaultNode::branch(format!("b{bi}"), format!("branch {bi}"));
        for (li, step) in leaves.iter().enumerate() {
            let mut leaf = FaultNode::root_cause(
                format!("b{bi}-l{li}"),
                "leaf {N}",
                DiagnosticTest::AssertionFails(CloudAssertion::AmiAvailable),
                0.1 + li as f64 * 0.05,
            );
            if let Some(s) = step {
                leaf = leaf.in_step(format!("step{s}"));
            }
            branch = branch.child(leaf);
        }
        root = root.child(branch);
    }
    FaultTree::new("k", root)
}

proptest! {
    /// Pruned potential-fault counts never exceed the unpruned count, and
    /// pruning with a step keeps exactly the unconstrained leaves plus the
    /// matching ones.
    #[test]
    fn pruning_counts_are_exact(
        leaf_spec in prop::collection::vec(
            prop::collection::vec(prop::option::of(0u8..3), 1..4),
            1..4,
        ),
        step in 0u8..3,
    ) {
        let tree = build_tree(&leaf_spec);
        let all: usize = leaf_spec.iter().map(|b| b.len()).sum();
        prop_assert_eq!(tree.root.potential_faults(None), all);
        let step_name = format!("step{step}");
        let expected: usize = leaf_spec
            .iter()
            .flatten()
            .filter(|s| s.is_none() || s.map(|v| format!("step{v}")) == Some(step_name.clone()))
            .count();
        prop_assert_eq!(tree.root.potential_faults(Some(&step_name)), expected);
    }

    /// Instantiation replaces exactly the known variables and leaves
    /// unknown placeholders untouched; over descriptions mixing text,
    /// placeholders, unknown names and stray braces, and values without
    /// braces, it equals the sequential-replace oracle.
    #[test]
    fn instantiation_is_targeted(
        value in "[a-z0-9-]{1,12}",
        pieces in prop::collection::vec(prop::sample::select(vec![
            "the ASG ", "{ASG}", "{N}", "{VERSION}", "{LC}", "{UNKNOWN}", "{X}", "{", "}",
            "{{", "}}", "{}", "{N", "ASG}", " of ", "-",
        ]), 0..12),
    ) {
        let env = env_named(&value, 4);
        let node = FaultNode::branch("n", "the ASG {ASG} and the mystery {UNKNOWN}");
        let text = node.instantiate(&env);
        prop_assert!(text.contains(&value));
        let unresolved = "{UNKNOWN}";
        let resolved = "{ASG}";
        prop_assert!(text.contains(unresolved));
        prop_assert!(!text.contains(resolved));
        let node = FaultNode::branch("n", pieces.concat());
        prop_assert_eq!(node.instantiate(&env), sequential_replace(&node.description, &env));
    }

    /// `ids()` enumerates every node exactly once, parents before children.
    #[test]
    fn ids_cover_the_tree(
        leaf_spec in prop::collection::vec(
            prop::collection::vec(prop::option::of(0u8..2), 1..3),
            1..4,
        ),
    ) {
        let tree = build_tree(&leaf_spec);
        let ids = tree.root.ids();
        let expected = 1 + leaf_spec.len() + leaf_spec.iter().map(|b| b.len()).sum::<usize>();
        prop_assert_eq!(ids.len(), expected);
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), expected, "ids are unique");
        prop_assert_eq!(ids[0], "root");
    }

    /// Repository lookup returns the tree that was stored under the key.
    #[test]
    fn repository_is_a_map(keys in prop::collection::vec("[a-z-]{1,10}", 1..6)) {
        let mut repo = FaultTreeRepository::new();
        let mut deduped = keys.clone();
        deduped.sort();
        deduped.dedup();
        for key in &deduped {
            repo.add(FaultTree::new(key.clone(), FaultNode::branch(format!("r-{key}"), "t")));
        }
        for key in &deduped {
            let expected = format!("r-{key}");
            prop_assert_eq!(repo.select(key).unwrap().root.id.clone(), expected);
        }
        prop_assert!(repo.select("definitely-not-a-key").is_none());
    }
}

#[test]
fn rolling_upgrade_repository_trees_have_unique_keys() {
    let repo = pod_faulttree::rolling_upgrade_repository(true);
    let mut keys: Vec<&str> = repo
        .trees()
        .iter()
        .map(|t| t.assertion_key.as_str())
        .collect();
    let n = keys.len();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), n, "duplicate assertion keys in the repository");
}

#[test]
fn every_library_tree_has_at_least_one_testable_fault() {
    for amended in [true, false] {
        let repo = pod_faulttree::rolling_upgrade_repository(amended);
        for tree in repo.trees() {
            assert!(
                tree.root.potential_faults(None) > 0,
                "tree {} has nothing to test",
                tree.assertion_key
            );
        }
    }
}

/// Every node of every library tree, instantiated from every expected
/// environment the seed-2014 campaign (20 runs per fault) and the
/// 64-tenant soak build, reads exactly what the sequential replace read.
#[test]
fn instantiation_equals_the_sequential_replace_on_every_library_node() {
    let campaign = Campaign::new(CampaignConfig {
        runs_per_fault: 20,
        seed: 2014,
        ..CampaignConfig::default()
    });
    let mut envs: Vec<ExpectedEnv> = campaign
        .plans()
        .iter()
        .map(|plan| ExpectedEnv::clone(&build_scenario(&plan.scenario).env.snapshot()))
        .collect();
    let soak = collect_streams(&SoakConfig {
        ops: 64,
        seed: 2014,
        ..SoakConfig::default()
    });
    envs.extend(
        soak.ops
            .iter()
            .map(|op| ExpectedEnv::clone(&op.scenario.env.snapshot())),
    );
    assert_eq!(envs.len(), 160 + 64);
    let mut placeholders = 0;
    for amended in [true, false] {
        for tree in pod_faulttree::rolling_upgrade_repository(amended).trees() {
            for node in nodes(&tree.root) {
                placeholders += node.description.matches('{').count();
                for env in &envs {
                    assert_eq!(
                        node.instantiate(env),
                        sequential_replace(&node.description, env),
                        "node {} of tree {}",
                        node.id,
                        tree.assertion_key
                    );
                }
            }
        }
    }
    assert!(placeholders > 0, "the library has placeholders to fill");
}

/// The hostile cases, where one pass and the sequential replace part: a
/// value goes in as it is, so a placeholder inside a value stays
/// (the replace loop filled it if its variable came later in its order).
/// An unknown name, an empty pair and unmatched braces stay as written,
/// as they did.
#[test]
fn instantiation_inserts_values_verbatim() {
    let env = env_named("pm{N}-{ASG}", 4);
    let node = FaultNode::branch("n", "group {ASG} of {N}");
    assert_eq!(node.instantiate(&env), "group pm{N}-{ASG} of 4");
    assert_eq!(
        sequential_replace(&node.description, &env),
        "group pm4-{ASG} of 4"
    );
    let env = env_named("pm--asg", 4);
    for (description, instantiated) in [
        ("{X} and {UNKNOWN}", "{X} and {UNKNOWN}"),
        ("{} {", "{} {"),
        ("{ASG", "{ASG"),
        ("ASG}", "ASG}"),
        ("}{ASG}{", "}pm--asg{"),
        ("{{ASG}}", "{pm--asg}"),
        ("{A{N}", "{A4"),
        ("{N}{N}", "44"),
    ] {
        let node = FaultNode::branch("n", description);
        assert_eq!(node.instantiate(&env), instantiated, "{description}");
        assert_eq!(
            sequential_replace(description, &env),
            instantiated,
            "{description}"
        );
    }
}
