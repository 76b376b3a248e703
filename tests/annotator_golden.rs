//! Golden test for the annotator's candidate dispatch: over the full E1
//! rolling-upgrade log (operation lines interleaved with application
//! noise), the literal-index fast path must classify every line exactly
//! like the naive match-each-pattern loop.

use pod_log::{RuleBook, RuleMatch};
use pod_orchestrator::process_def::rolling_upgrade_rules;
use pod_orchestrator::NoiseGenerator;
use pod_regex::RegexSet;
use pod_sim::{SimRng, SimTime};

/// The operation log of a clean E1 rolling upgrade with four deterministic
/// application-noise lines after every operation line.
fn upgrade_log_lines(seed: u64) -> Vec<String> {
    let mut noise = NoiseGenerator::new(SimRng::seed_from(seed ^ 0x9e37_79b9), 1.0);
    let mut lines = Vec::new();
    for event in pod_eval::healthy_log(seed, 4) {
        lines.push(event.message);
        lines.extend((0..4).map(|_| noise.emit(SimTime::ZERO).message));
    }
    lines
}

/// The unindexed reference: every pattern of every rule, in order.
fn match_each_pattern(rules: &RuleBook, line: &str) -> Option<RuleMatch> {
    rules.rules().iter().find_map(|rule| {
        rule.patterns.iter().find_map(|re| {
            let caps = re.captures(line)?;
            Some(RuleMatch {
                activity: rule.activity.clone(),
                boundary: rule.boundary,
                fields: re
                    .capture_names()
                    .filter_map(|n| Some((n.to_string(), caps.name(n)?.to_string())))
                    .collect(),
            })
        })
    })
}

#[test]
fn fast_path_annotation_matches_naive_over_e1_log() {
    let rules = rolling_upgrade_rules();
    let lines = upgrade_log_lines(7);
    assert!(lines.len() > 50, "fixture log is suspiciously short");
    assert_eq!(lines, upgrade_log_lines(7), "same seed, same fixture");
    assert!(lines.iter().any(|l| l.contains("Started rolling upgrade")));
    assert!(lines.iter().any(|l| l.contains("is ready for use")));
    let mut operation_hits = 0usize;
    let mut noise_misses = 0usize;
    for line in &lines {
        let fast = rules.match_line(line);
        let naive = match_each_pattern(&rules, line);
        assert_eq!(fast, naive, "divergence on line: {line}");
        match fast {
            Some(_) => operation_hits += 1,
            None => noise_misses += 1,
        }
    }
    // The E1 log must exercise both outcomes heavily: every operation
    // phase line is tagged, every noise line falls through.
    assert!(operation_hits >= 10, "only {operation_hits} lines tagged");
    assert!(noise_misses >= 40, "only {noise_misses} lines untagged");
}

#[test]
fn relevance_set_agrees_with_per_pattern_scan_over_e1_log() {
    let patterns = pod_orchestrator::process_def::relevance_patterns();
    let set = RegexSet::new(&patterns).unwrap();
    let regexes: Vec<pod_regex::Regex> = patterns
        .iter()
        .map(|p| pod_regex::Regex::new(p).unwrap())
        .collect();
    for line in upgrade_log_lines(11) {
        let via_set = set.matches(&line);
        let via_loop: Vec<usize> = regexes
            .iter()
            .enumerate()
            .filter(|(_, re)| re.is_match(&line))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(via_set, via_loop, "divergence on line: {line}");
    }
}
