//! Differential tests: the prefiltered Pike-VM fast path must be
//! observationally identical to the original backtracking engine.
//!
//! Random patterns are generated from the supported dialect's grammar and
//! run against random inputs three ways — [`Regex::exec`] (prefilter +
//! Pike VM, the path `captures` ships), [`pike::exec`] with no prefilter,
//! and the backtracking [`vm::exec`] retried at every start offset — on
//! one shared compiled program; `is_match`, the overall find span, and every capture group's
//! span must agree. The backtracker is the reference semantics; cases where
//! it exhausts its step budget (so there is no reference answer) are
//! skipped.

use proptest::prelude::*;

use crate::pike::{self, ByteSlots, StartPolicy};
use crate::{vm, CandidateIndex, Regex};

/// Random pattern strings from the supported grammar. Leaves draw from a
/// small alphabet (so random inputs actually collide with them) plus the
/// shorthand classes; composites add concatenation, alternation, capture
/// groups and greedy/lazy repetition.
fn pattern_strategy() -> BoxedStrategy<String> {
    let leaf = prop::sample::select(vec![
        "a", "b", "c", "1", " ", "ab", "bc", "a1", r"\d", r"\w", r"\s", r"\.", ".", "[ab]", "[^a]",
        "[a-c]", "[b1 ]",
    ])
    .prop_map(str::to_string)
    .boxed();
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            // Concatenation.
            prop::collection::vec(inner.clone(), 2..4).prop_map(|parts| parts.concat()),
            // Alternation, grouped so precedence stays local.
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("(?:{a}|{b})")),
            // Capturing group (named groups only change lookup, not spans).
            inner.clone().prop_map(|p| format!("({p})")),
            // Repetition over a grouped operand, greedy and lazy.
            (
                inner.clone(),
                prop::sample::select(vec![
                    "*", "+", "?", "{2}", "{1,3}", "{0,2}", "*?", "+?", "??",
                ]),
            )
                .prop_map(|(p, op)| format!("(?:{p}){op}")),
            // Anchored variant.
            inner.prop_map(|p| format!("^{p}")),
        ]
    })
}

/// The reference answer: the backtracking VM retried at every start
/// offset, its char-index slots converted to byte offsets. `Err` when it
/// exhausted its step budget.
fn backtrack(re: &Regex, text: &str) -> Result<Option<ByteSlots>, ()> {
    let chars: Vec<char> = text.chars().collect();
    // Byte offset of each char index, plus the end offset.
    let mut offsets = Vec::with_capacity(chars.len() + 1);
    let mut off = 0;
    for c in &chars {
        offsets.push(off);
        off += c.len_utf8();
    }
    offsets.push(off);
    for start in 0..=chars.len() {
        match vm::exec(&re.prog, &chars, start) {
            vm::ExecOutcome::Match(slots) => {
                return Ok(Some(slots.iter().map(|s| s.map(|i| offsets[i])).collect()));
            }
            vm::ExecOutcome::NoMatch => {}
            vm::ExecOutcome::StepLimit => return Err(()),
        }
    }
    Ok(None)
}

/// Asserts that the shipped path and the bare Pike VM both produce exactly
/// the backtracker's answer for `re` on `input`: same match/no-match and
/// the same span for every capture group (group 0 included).
fn assert_engines_agree(re: &Regex, input: &str, pattern: &str) {
    let Ok(reference) = backtrack(re, input) else {
        return;
    };
    let policy = if re.anchored {
        StartPolicy::Zero
    } else {
        StartPolicy::All
    };
    for (engine, got) in [
        ("prefilter + pike", re.exec(input)),
        ("pike", pike::exec(&re.prog, input, policy)),
    ] {
        assert_eq!(
            reference, got,
            "{engine} diverged from backtracking: {pattern:?} on {input:?}"
        );
    }
}

/// Hand-picked production-shaped cases, independent of the generators.
#[test]
fn engines_agree_on_fixture_patterns() {
    let cases = [
        (
            r"Terminated instance (?P<id>i-[0-9a-f]+)",
            "... Terminated instance i-7df34041 ...",
        ),
        (r"Terminated instance i-\w+", "nothing relevant here"),
        (r"[Rr]olling upgrade", "Started rolling upgrade task"),
        (r"\d+ of \d+ instances", "saw 3 of 12 instances in service"),
        (r"^\[task\] done$", "[task] done"),
        (r"x+y?z*", "wxxyzz!"),
    ];
    for (pattern, text) in cases {
        assert_engines_agree(&Regex::new(pattern).unwrap(), text, pattern);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Prefilter + Pike VM and bare Pike VM agree with the backtracker on
    /// random (pattern, input) pairs.
    #[test]
    fn random_patterns_agree_across_engines(
        pattern in pattern_strategy(),
        input in "[abc1 ]{0,14}",
    ) {
        let re = Regex::new(&pattern).expect("generated pattern must parse");
        assert_engines_agree(&re, &input, &pattern);
    }

    /// Same property against inputs biased to contain full pattern leaves,
    /// so matches (not just rejections) are exercised heavily.
    #[test]
    fn match_heavy_inputs_agree_across_engines(
        pattern in pattern_strategy(),
        head in "[abc1 ]{0,6}",
        tail in "[abc1 ]{0,6}",
    ) {
        let re = Regex::new(&pattern).expect("generated pattern must parse");
        for middle in ["ab", "abc", "a1 b", "ccc"] {
            let input = format!("{head}{middle}{tail}");
            assert_engines_agree(&re, &input, &pattern);
        }
    }

    /// The production rule patterns agree across engines on random lines.
    #[test]
    fn fixture_like_patterns_agree(
        pattern in prop::sample::select(vec![
            r"Terminated instance (?P<id>i-[0-9a-f]+)",
            r"[Rr]olling upgrade",
            r"Waiting for ASG (?P<asg>[\w-]+)",
            r"(?P<n>\d+) of (?P<m>\d+) instances",
            r"^\[(?P<ts>\d{4})\]",
            r"ERROR",
        ]),
        line in "[a-z0-9 \\[\\]:,.-]{0,40}",
    ) {
        let re = Regex::new(pattern).unwrap();
        for input in [
            line.clone(),
            format!("{line} Terminated instance i-7df34041"),
            format!("[2013] Rolling upgrade: 3 of 12 instances, ERROR {line}"),
        ] {
            assert_engines_agree(&re, &input, pattern);
        }
    }

    /// The shared literal index never prunes a pattern that matches: over
    /// random pattern sets filed under sparse keys, the candidates for a
    /// text are ascending, duplicate-free and include every matching key.
    #[test]
    fn index_candidates_cover_every_match(
        patterns in prop::collection::vec(pattern_strategy(), 1..6),
        head in "[abc1 ]{0,8}",
        middle in prop::sample::select(vec!["", "ab", "a1 b", "ccc"]),
    ) {
        let text = format!("{head}{middle}");
        let regexes: Vec<Regex> = patterns.iter().map(|p| Regex::new(p).unwrap()).collect();
        let key = |i: usize| (i as u64) << 32 | 7;
        let index = CandidateIndex::new(regexes.iter().enumerate().map(|(i, re)| (key(i), re)));
        let candidates = index.with_candidates(&text, |keys| keys.to_vec());
        prop_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "{candidates:?}");
        for (i, re) in regexes.iter().enumerate() {
            prop_assert!(
                !re.is_match(&text) || candidates.contains(&key(i)),
                "{:?} matches {text:?} but is no candidate of {patterns:?}",
                patterns[i]
            );
        }
    }
}
