//! Property-based tests for the regex engine.

use pod_regex::{Regex, RegexSet};
use proptest::prelude::*;

/// Escapes a literal string so it can be embedded in a pattern verbatim.
fn escape(lit: &str) -> String {
    let mut out = String::new();
    for c in lit.chars() {
        if "\\.+*?()|[]{}^$".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

proptest! {
    /// An escaped literal always matches itself.
    #[test]
    fn escaped_literal_matches_itself(s in "[ -~]{0,40}") {
        let re = Regex::new(&escape(&s)).unwrap();
        prop_assert!(re.is_match(&s));
    }

    /// An anchored escaped literal matches exactly and only itself.
    #[test]
    fn anchored_literal_is_exact(s in "[a-zA-Z0-9 _-]{1,30}", extra in "[a-zA-Z0-9]{1,5}") {
        let re = Regex::new(&format!("^{}$", escape(&s))).unwrap();
        prop_assert!(re.is_match(&s));
        let suffixed = format!("{s}{extra}");
        let prefixed = format!("{extra}{s}");
        prop_assert!(!re.is_match(&suffixed));
        prop_assert!(!re.is_match(&prefixed));
    }

    /// Star never fails: `x*` matches every string.
    #[test]
    fn star_matches_everything(hay in "[ -~]{0,50}") {
        let re = Regex::new("x*").unwrap();
        prop_assert!(re.is_match(&hay));
    }

    /// Alternation is the union of its branches.
    #[test]
    fn alternation_is_union(hay in "[a-f]{0,20}") {
        let left = Regex::new("ab").unwrap();
        let right = Regex::new("cd").unwrap();
        let both = Regex::new("ab|cd").unwrap();
        prop_assert_eq!(both.is_match(&hay), left.is_match(&hay) || right.is_match(&hay));
    }

    /// A bounded repeat `a{m,n}` matches iff the run length is within bounds
    /// (for fully-anchored input).
    #[test]
    fn bounded_repeat_counts(n in 0usize..12) {
        let hay: String = "a".repeat(n);
        let re = Regex::new("^a{2,5}$").unwrap();
        prop_assert_eq!(re.is_match(&hay), (2..=5).contains(&n));
    }

    /// RegexSet::matches agrees with matching each pattern individually.
    #[test]
    fn set_agrees_with_individuals(hay in "[a-e]{0,20}") {
        let pats = ["ab", "cd", "e+", "a$"];
        let set = RegexSet::new(&pats).unwrap();
        let expected: Vec<usize> = pats
            .iter()
            .enumerate()
            .filter(|(_, p)| Regex::new(p).unwrap().is_match(&hay))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(set.matches(&hay), expected);
    }

    /// The engine never panics on arbitrary (possibly invalid) patterns.
    #[test]
    fn parser_never_panics(pat in "[ -~]{0,30}") {
        let _ = Regex::new(&pat); // Ok or Err, but no panic
    }

    /// Valid random patterns built from a safe grammar never hang or panic
    /// when run against random input.
    #[test]
    fn safe_patterns_terminate(
        pat in prop::sample::select(vec![
            r"(a|b)*c",
            r"a+b+c?",
            r"(x*)*y",
            r"[a-m]{1,4}[n-z]*",
            r"(?:ab|ba)+",
            r"(?P<g>a(b|c)d)e?",
            r".*z.*",
        ]),
        hay in "[a-z]{0,40}",
    ) {
        let re = Regex::new(pat).unwrap();
        let _ = re.captures(&hay);
    }
}
