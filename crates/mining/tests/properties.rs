//! Property-based tests on clustering, masking and discovery.

use pod_mining::{
    cluster_lines, discover_model, mask_line, normalized_token_distance, ClusterConfig, Dfg,
    Template,
};
use pod_process::replay_fitness;
use pod_regex::Regex;
use proptest::prelude::*;

proptest! {
    /// Masking is idempotent: masking a masked line changes nothing.
    #[test]
    fn masking_is_idempotent(line in "[ -~]{0,80}") {
        let once = mask_line(&line);
        let twice = mask_line(&once);
        prop_assert_eq!(once, twice);
    }

    /// Lines differing only in ids and numbers mask identically and land in
    /// one cluster.
    #[test]
    fn id_variants_share_a_cluster(
        ids in prop::collection::vec("[0-9a-f]{8}", 2..8),
        count in 1u32..100,
    ) {
        let lines: Vec<String> = ids
            .iter()
            .map(|id| format!("Terminated instance i-{id} after {count} retries"))
            .collect();
        let first = mask_line(&lines[0]);
        for l in &lines {
            prop_assert_eq!(mask_line(l), first.clone());
        }
        let clusters = cluster_lines(&lines, &ClusterConfig::default());
        prop_assert_eq!(clusters.len(), 1);
        prop_assert_eq!(clusters[0].members.len(), lines.len());
    }

    /// Clustering is a partition: every line lands in exactly one cluster.
    #[test]
    fn clustering_partitions_the_input(lines in prop::collection::vec("[a-z ]{1,40}", 0..30)) {
        let clusters = cluster_lines(&lines, &ClusterConfig::default());
        let mut members: Vec<usize> = clusters.iter().flat_map(|c| c.members.clone()).collect();
        members.sort_unstable();
        prop_assert_eq!(members, (0..lines.len()).collect::<Vec<_>>());
    }

    /// The normalised token distance is a bounded, symmetric pseudo-metric
    /// with identity.
    #[test]
    fn distance_properties(a in "[a-z ]{0,40}", b in "[a-z ]{0,40}") {
        let dab = normalized_token_distance(&a, &b);
        let dba = normalized_token_distance(&b, &a);
        prop_assert!((0.0..=1.0).contains(&dab));
        prop_assert_eq!(dab, dba);
        prop_assert_eq!(normalized_token_distance(&a, &a), 0.0);
    }

    /// A template derived from a cluster matches every line in the cluster.
    #[test]
    fn templates_match_their_own_lines(
        ids in prop::collection::vec("[0-9a-f]{6,8}", 1..6),
    ) {
        let lines: Vec<String> = ids
            .iter()
            .map(|id| format!("Deregistered instance i-{id} from load balancer front"))
            .collect();
        let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
        let template = Template::derive(&refs);
        let re = Regex::new(&template.to_pattern()).unwrap();
        for l in &lines {
            prop_assert!(re.is_match(l), "template {:?} misses {l}", template.to_pattern());
        }
    }

    /// Models discovered from loop traces replay those traces perfectly,
    /// for any mix of loop counts.
    #[test]
    fn discovery_is_self_consistent(loop_counts in prop::collection::vec(1usize..6, 1..6)) {
        let traces: Vec<Vec<String>> = loop_counts
            .iter()
            .map(|n| {
                let mut t = vec!["setup".to_string()];
                for _ in 0..*n {
                    t.push("work".to_string());
                    t.push("verify".to_string());
                }
                t.push("finish".to_string());
                t
            })
            .collect();
        let model = discover_model("p", &Dfg::from_traces(&traces)).unwrap();
        prop_assert_eq!(replay_fitness(&model, &traces).fitness(), 1.0);
        // And — provided the training data exhibited the loop at all — it
        // generalises to a longer loop than any seen.
        if loop_counts.iter().any(|n| *n >= 2) {
            let mut long = vec!["setup".to_string()];
            for _ in 0..10 {
                long.push("work".to_string());
                long.push("verify".to_string());
            }
            long.push("finish".to_string());
            prop_assert_eq!(replay_fitness(&model, &[long]).fitness(), 1.0);
        }
    }

    /// DFG edge frequencies equal the number of adjacent occurrences.
    #[test]
    fn dfg_counts_adjacencies(trace in prop::collection::vec(0u8..4, 2..40)) {
        let named: Vec<String> = trace.iter().map(|a| format!("a{a}")).collect();
        let dfg = Dfg::from_traces(std::slice::from_ref(&named));
        let edges = dfg.edges();
        for x in 0..4u8 {
            for y in 0..4u8 {
                let (from, to) = (format!("a{x}"), format!("a{y}"));
                let expected = named.windows(2).filter(|w| w[0] == from && w[1] == to).count();
                let edge = edges.iter().find(|e| (e.0, e.1) == (from.as_str(), to.as_str()));
                prop_assert_eq!(edge.map_or(0, |e| e.2), expected);
            }
        }
    }
}
