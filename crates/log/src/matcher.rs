//! Transformation rules: regex → activity tag + extracted fields.
//!
//! The paper derives, per activity, a set of regular expressions from the
//! clustered log lines and forms transformation rules: *"if (regex_i or
//! regex_i+1 or …) matches, add tag `[activity name]` to the line"*. A
//! [`RuleBook`] holds those rules and classifies raw lines.

use std::cell::RefCell;

use pod_regex::{Captures, LiteralScanner, Regex};

thread_local! {
    /// Reusable candidate buffer: `(rule, pattern)` pairs whose required
    /// literals occurred in the current line.
    static RULE_CANDIDATES: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
}

/// Where in an activity's lifetime a matching line falls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundary {
    /// The line marks the start of the activity.
    Start,
    /// The line marks the end of the activity — the usual assertion trigger.
    End,
    /// A progress line during the activity.
    During,
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

/// The shared prefilter over every pattern of every rule: one literal scan
/// per line yields the only `(rule, pattern)` pairs whose regex could
/// match, so confirmation cost is proportional to the candidates — not to
/// the size of the book.
#[derive(Debug, Clone, Default)]
struct RuleIndex {
    /// Scanner over the union of all patterns' required literals; `None`
    /// when no pattern yields literals (index would admit everything).
    scanner: Option<LiteralScanner>,
    /// `(rule, pattern)` owning each scanner literal id.
    lit_owner: Vec<(u32, u32)>,
    /// Patterns with no derivable literal requirement: always candidates.
    always: Vec<(u32, u32)>,
}

impl RuleIndex {
    fn build(rules: &[LineRule]) -> RuleIndex {
        let mut literals: Vec<String> = Vec::new();
        let mut lit_owner = Vec::new();
        let mut always = Vec::new();
        for (r, rule) in rules.iter().enumerate() {
            for (p, re) in rule.patterns.iter().enumerate() {
                match re.required_literals() {
                    Some(req) => {
                        for lit in req {
                            literals.push(lit.clone());
                            lit_owner.push((r as u32, p as u32));
                        }
                    }
                    None => always.push((r as u32, p as u32)),
                }
            }
        }
        let scanner = if lit_owner.is_empty() {
            None
        } else {
            Some(LiteralScanner::new(&literals))
        };
        RuleIndex {
            scanner,
            lit_owner,
            always,
        }
    }
}

/// An ordered collection of transformation rules.
///
/// Rules are tried in insertion order and the first match wins, mirroring a
/// Logstash filter chain. Classification dispatches through a shared
/// literal index (see [`RuleIndex`]): one scan over the line selects the
/// candidate `(rule, pattern)` pairs, and only those run their regex.
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
    index: RuleIndex,
}

impl RuleBook {
    /// Creates an empty rule book.
    pub fn new() -> RuleBook {
        RuleBook {
            rules: Vec::new(),
            index: RuleIndex::default(),
        }
    }

    /// Appends a rule; later rules have lower priority. The literal index
    /// is rebuilt (books are small and built once at startup).
    pub fn push(&mut self, rule: LineRule) {
        self.rules.push(rule);
        self.index = RuleIndex::build(&self.rules);
    }

    /// The rules in priority order.
    pub fn rules(&self) -> &[LineRule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the book has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Classifies `line`, returning the first matching rule's activity and
    /// any named-capture fields.
    ///
    /// One shared literal scan selects the candidate `(rule, pattern)`
    /// pairs; only those are confirmed with their regex, in rule order, so
    /// first-rule-wins semantics are preserved exactly (a pattern absent
    /// from the candidates is guaranteed not to match).
    pub fn match_line(&self, line: &str) -> Option<RuleMatch> {
        let confirm = |cands: &[(u32, u32)]| {
            cands.iter().find_map(|&(r, p)| {
                let rule = &self.rules[r as usize];
                let re = &rule.patterns[p as usize];
                let caps = re.captures(line)?;
                Some(Self::rule_match(rule, re, &caps))
            })
        };
        let Some(scanner) = self.index.scanner.as_ref() else {
            // No pattern yields literals: every pattern is in `always`.
            return confirm(&self.index.always);
        };
        RULE_CANDIDATES.with(|buf| {
            let mut fallback = Vec::new();
            let mut guard = buf.try_borrow_mut().ok();
            let cands = guard.as_deref_mut().unwrap_or(&mut fallback);
            cands.clear();
            cands.extend_from_slice(&self.index.always);
            scanner.scan(line, |lit, _| cands.push(self.index.lit_owner[lit]));
            cands.sort_unstable();
            cands.dedup();
            confirm(cands)
        })
    }

    /// Builds the [`RuleMatch`] for a confirmed pattern.
    fn rule_match(rule: &LineRule, re: &Regex, caps: &Captures<'_>) -> RuleMatch {
        let fields = re
            .capture_names()
            .filter_map(|name| {
                caps.name(name)
                    .map(|m| (name.to_string(), m.as_str().to_string()))
            })
            .collect();
        RuleMatch {
            activity: rule.activity.clone(),
            boundary: rule.boundary,
            fields,
        }
    }

    /// All activities known to the book, deduplicated, in rule order.
    pub fn activities(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for rule in &self.rules {
            if !seen.contains(&rule.activity.as_str()) {
                seen.push(rule.activity.as_str());
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn activities_deduplicated() {
        let b = book();
        assert_eq!(
            b.activities(),
            vec!["update-launch-config", "terminate-old-instance"]
        );
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
        b.push(LineRule::new("any-terminated", Boundary::During, &["Terminated"]).unwrap());
        // No derivable literal: always a candidate.
        b.push(LineRule::new("digits", Boundary::During, &[r"^\d+\s\d+$"]).unwrap());
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
        // No pattern yields a literal, so there is no scanner and the
        // `always` list is the whole candidate set.
        let mut b = RuleBook::new();
        b.push(LineRule::new("count", Boundary::During, &[r"(?P<n>\d+)\s\w+"]).unwrap());
        b.push(LineRule::new("pair", Boundary::End, &[r"^\w+$", r"\w+\s\w+"]).unwrap());
        assert!(b.index.scanner.is_none());
        assert_eq!(b.index.always, vec![(0, 0), (1, 0), (1, 1)]);
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
