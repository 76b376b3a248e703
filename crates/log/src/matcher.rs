//! Transformation rules: regex → activity tag + extracted fields.
//!
//! The paper derives, per activity, a set of regular expressions from the
//! clustered log lines and forms transformation rules: *"if (regex_i or
//! regex_i+1 or …) matches, add tag `[activity name]` to the line"*. A
//! [`RuleBook`] holds those rules and classifies raw lines.

use std::sync::{Arc, OnceLock};

use pod_regex::{CandidateIndex, Captures, Regex};

/// Where in an activity's lifetime a matching line falls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// The line marks the start of the activity.
    Start,
    /// The line marks the end of the activity — the usual assertion trigger.
    End,
}

/// One transformation rule: any of `patterns` matching tags the line with
/// `activity`.
#[derive(Debug, Clone)]
pub struct LineRule {
    /// The activity name this rule tags lines with.
    pub activity: String,
    /// Which boundary of the activity a match represents.
    pub boundary: Boundary,
    /// The alternative patterns (logical OR).
    pub patterns: Vec<Regex>,
}

impl LineRule {
    /// Builds a rule from pattern strings.
    ///
    /// # Errors
    ///
    /// Fails if any pattern does not compile.
    pub fn new<S: AsRef<str>>(
        activity: impl Into<String>,
        boundary: Boundary,
        patterns: &[S],
    ) -> Result<LineRule, pod_regex::ParseError> {
        Ok(LineRule {
            activity: activity.into(),
            boundary,
            patterns: patterns
                .iter()
                .map(|p| Regex::new(p.as_ref()))
                .collect::<Result<_, _>>()?,
        })
    }
}

/// The result of matching a line against a rule book.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleMatch {
    /// The tagged activity.
    pub activity: String,
    /// The boundary the matching rule represents.
    pub boundary: Boundary,
    /// Named-capture fields extracted from the line, in capture order.
    pub fields: Vec<(String, String)>,
}

/// An ordered collection of transformation rules.
///
/// Rules are tried in insertion order and the first match wins, mirroring a
/// Logstash filter chain. Classification dispatches through a shared
/// literal index ([`CandidateIndex`], keyed `rule << 32 | pattern`): one
/// scan over the line selects the candidate `(rule, pattern)` pairs, and
/// only those run their regex.
///
/// # Examples
///
/// ```
/// use pod_log::{Boundary, LineRule, RuleBook};
///
/// let mut book = RuleBook::new();
/// book.push(LineRule::new(
///     "terminate-old-instance",
///     Boundary::End,
///     &[r"Terminated instance (?P<instanceid>i-[0-9a-f]+)"],
/// ).unwrap());
///
/// let m = book.match_line("... Terminated instance i-7df34041.").unwrap();
/// assert_eq!(m.activity, "terminate-old-instance");
/// assert_eq!(m.fields, vec![("instanceid".to_string(), "i-7df34041".to_string())]);
/// assert!(book.match_line("unrelated noise").is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RuleBook {
    rules: Vec<LineRule>,
    /// Each activity's name once, shared with every stored line it tags.
    steps: Vec<Arc<str>>,
    /// Built by [`RuleBook::build_index`], or else by the first
    /// `match_line` after the last `push`.
    index: OnceLock<CandidateIndex>,
}

impl RuleBook {
    /// Creates an empty rule book.
    pub fn new() -> RuleBook {
        RuleBook::default()
    }

    /// Appends a rule; later rules have lower priority.
    pub fn push(&mut self, rule: LineRule) {
        if self.step(&rule.activity).is_none() {
            self.steps.push(Arc::from(rule.activity.as_str()));
        }
        self.rules.push(rule);
        self.index = OnceLock::new();
    }

    /// Builds the literal index now, not inside the first `match_line`: for
    /// a finished book many holders share, so none pays for it mid-stream.
    pub fn build_index(&self) {
        self.index();
    }

    /// The literal index over every pattern of every rule.
    fn index(&self) -> &CandidateIndex {
        self.index.get_or_init(|| {
            CandidateIndex::new(self.rules.iter().enumerate().flat_map(|(r, rule)| {
                let keyed = rule.patterns.iter().enumerate();
                keyed.map(move |(p, re)| ((r as u64) << 32 | p as u64, re))
            }))
        })
    }

    /// The book's shared copy of `activity`'s name, if a rule tags lines
    /// with it.
    pub(crate) fn step(&self, activity: &str) -> Option<&Arc<str>> {
        self.steps.iter().find(|step| ***step == *activity)
    }

    /// The rules in priority order: what the unindexed reference in
    /// `tests/annotator_golden.rs` walks to check `match_line` against.
    pub fn rules(&self) -> &[LineRule] {
        &self.rules
    }

    /// Classifies `line`, returning the first matching rule's activity and
    /// any named-capture fields.
    ///
    /// One shared literal scan selects the candidate `(rule, pattern)`
    /// pairs; only those are confirmed with their regex, in rule order, so
    /// first-rule-wins semantics are preserved exactly (a pattern absent
    /// from the candidates is guaranteed not to match).
    pub fn match_line(&self, line: &str) -> Option<RuleMatch> {
        self.index().with_candidates(line, |keys| {
            keys.iter().find_map(|&key| {
                let rule = &self.rules[(key >> 32) as usize];
                let re = &rule.patterns[key as u32 as usize];
                let caps = re.captures(line)?;
                Some(Self::rule_match(rule, re, &caps))
            })
        })
    }

    /// Builds the [`RuleMatch`] for a confirmed pattern.
    fn rule_match(rule: &LineRule, re: &Regex, caps: &Captures<'_>) -> RuleMatch {
        let fields = re
            .capture_names()
            .filter_map(|name| Some((name.to_string(), caps.name(name)?.to_string())))
            .collect();
        RuleMatch {
            activity: rule.activity.clone(),
            boundary: rule.boundary,
            fields,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared by `Arc` between engines: an `Rc` or `RefCell` inside stops this compiling.
    #[test]
    fn rule_book_is_shareable_across_threads() {
        fn shared<T: Send + Sync>() {}
        shared::<RuleBook>();
    }

    fn book() -> RuleBook {
        let mut b = RuleBook::new();
        b.push(
            LineRule::new(
                "update-launch-config",
                Boundary::End,
                &[r"Created launch configuration (?P<lc>lc-[\w-]+)"],
            )
            .unwrap(),
        );
        b.push(
            LineRule::new(
                "terminate-old-instance",
                Boundary::End,
                &[
                    r"Terminated instance (?P<instanceid>i-[0-9a-f]+)",
                    r"Instance (?P<instanceid>i-[0-9a-f]+) is shutting down",
                ],
            )
            .unwrap(),
        );
        b
    }

    #[test]
    fn first_rule_wins() {
        let mut b = RuleBook::new();
        b.push(LineRule::new("a", Boundary::End, &["x"]).unwrap());
        b.push(LineRule::new("b", Boundary::End, &["x"]).unwrap());
        assert_eq!(b.match_line("x").unwrap().activity, "a");
    }

    #[test]
    fn alternative_patterns_share_activity() {
        let b = book();
        let m1 = b.match_line("Terminated instance i-1a").unwrap();
        let m2 = b.match_line("Instance i-2b is shutting down").unwrap();
        assert_eq!(m1.activity, "terminate-old-instance");
        assert_eq!(m2.activity, "terminate-old-instance");
        assert_eq!(m2.fields[0].1, "i-2b");
    }

    #[test]
    fn no_match_returns_none() {
        assert!(book().match_line("something else entirely").is_none());
    }

    #[test]
    fn invalid_pattern_is_an_error() {
        assert!(LineRule::new("bad", Boundary::Start, &["("]).is_err());
    }

    /// A book mixing literal-bearing and literal-free patterns, with
    /// overlapping rules, for candidate-dispatch tests.
    fn dispatch_book() -> RuleBook {
        let mut b = RuleBook::new();
        b.push(
            LineRule::new(
                "start",
                Boundary::Start,
                &[r"[Ss]tarting rolling upgrade (?P<task>task-\d+)"],
            )
            .unwrap(),
        );
        b.push(
            LineRule::new(
                "terminate",
                Boundary::End,
                &[
                    r"Terminated instance (?P<instanceid>i-[0-9a-f]+)",
                    r"Instance (?P<instanceid>i-[0-9a-f]+) is shutting down",
                ],
            )
            .unwrap(),
        );
        // Also matches "Terminated instance …" lines but has lower
        // priority than "terminate".
        b.push(LineRule::new("any-terminated", Boundary::Start, &["Terminated"]).unwrap());
        // No derivable literal: always a candidate.
        b.push(LineRule::new("digits", Boundary::Start, &[r"^\d+\s\d+$"]).unwrap());
        b
    }

    /// The unindexed reference: every pattern of every rule, in order.
    fn match_each_pattern(book: &RuleBook, line: &str) -> Option<RuleMatch> {
        book.rules().iter().find_map(|rule| {
            rule.patterns.iter().find_map(|re| {
                let caps = re.captures(line)?;
                Some(RuleBook::rule_match(rule, re, &caps))
            })
        })
    }

    #[test]
    fn candidate_dispatch_matches_naive_for_zero_one_many() {
        let b = dispatch_book();
        let lines = [
            // Zero candidate rules.
            "completely unrelated line",
            // Exactly one rule's literals occur.
            "Starting rolling upgrade task-17",
            "Instance i-0badf00d is shutting down",
            // Multiple rules are candidates; first must win.
            "Terminated instance i-7df34041",
            // Literal occurs but the full pattern fails to confirm.
            "Terminated nothing in particular",
            // Only the literal-free rule can match.
            "12 34",
            "",
        ];
        for line in lines {
            assert_eq!(
                b.match_line(line),
                match_each_pattern(&b, line),
                "dispatch diverged on {line:?}"
            );
        }
        assert!(b.match_line("completely unrelated line").is_none());
        assert_eq!(
            b.match_line("Terminated instance i-7df34041")
                .unwrap()
                .activity,
            "terminate"
        );
        assert_eq!(
            b.match_line("Terminated nothing in particular")
                .unwrap()
                .activity,
            "any-terminated"
        );
        assert_eq!(b.match_line("12 34").unwrap().activity, "digits");
    }

    #[test]
    fn index_preserves_fields_and_boundaries() {
        let b = dispatch_book();
        let fast = b.match_line("x Starting rolling upgrade task-3 y").unwrap();
        let naive = match_each_pattern(&b, "x Starting rolling upgrade task-3 y").unwrap();
        assert_eq!(fast, naive);
        assert_eq!(fast.boundary, Boundary::Start);
        assert_eq!(
            fast.fields,
            vec![("task".to_string(), "task-3".to_string())]
        );
    }

    #[test]
    fn literal_free_book_confirms_every_pattern_in_rule_order() {
        // No pattern yields a literal, so every pattern is a candidate for
        // every line.
        let mut b = RuleBook::new();
        b.push(LineRule::new("count", Boundary::Start, &[r"(?P<n>\d+)\s\w+"]).unwrap());
        b.push(LineRule::new("pair", Boundary::End, &[r"^\w+$", r"\w+\s\w+"]).unwrap());
        let candidates = b.index().with_candidates("!?", |keys| keys.to_vec());
        assert_eq!(candidates, vec![0, 1 << 32, 1 << 32 | 1]);
        let m = b.match_line("7 dwarves").unwrap();
        assert_eq!(m.activity, "count", "first rule wins");
        assert_eq!(m.fields, vec![("n".to_string(), "7".to_string())]);
        assert_eq!(b.match_line("snow white").unwrap().activity, "pair");
        assert_eq!(b.match_line("grumpy").unwrap().activity, "pair");
        for line in ["7 dwarves", "snow white", "grumpy", "", "!?"] {
            assert_eq!(b.match_line(line), match_each_pattern(&b, line));
        }
        assert!(b.match_line("!?").is_none());
    }
}
