//! A small, dependency-free regular-expression engine.
//!
//! POD-Diagnosis is driven end-to-end by regular expressions: Logstash-style
//! noise filters, activity matchers derived by process mining, and the
//! process-context annotators all match log lines against patterns. This
//! crate provides the engine, hand-rolled for the offline build environment.
//!
//! The dialect covers what the system needs: literals, `.`, escapes,
//! shorthand classes (`\d \w \s` and negations), bracketed classes with
//! ranges and negation, anchors (`^`, `$`), greedy and lazy repetition
//! (`* + ? {m} {m,} {m,n}`), alternation, and capturing / non-capturing /
//! named groups (`(?P<name>...)`).
//!
//! # Matching fast path
//!
//! Since most lines fed to the pipeline match none of the patterns, the
//! engine is built to reject cheaply:
//!
//! 1. **Literal prefilter** — at compile time the AST is analysed for
//!    required literals. At match time an Aho-Corasick substring scan
//!    either rejects the line outright or yields the only byte offsets a
//!    match could start at; [`CandidateIndex`] shares one such scan among
//!    many patterns.
//! 2. **Memoized backtracker** — each candidate start is confirmed by one
//!    depth-first walk that remembers every (join instruction, byte
//!    offset) state it has failed from: at most `insts × (len + 1)` steps
//!    per call. The dialect has no back-references, so this is the only
//!    engine: there is no step budget to exhaust and every match attempt
//!    yields a definite answer.
//!
//! The original unmemoized backtracker survives only under `cfg(test)`,
//! as the reference semantics the differential property tests compare
//! against.
//!
//! # Examples
//!
//! ```
//! use pod_regex::Regex;
//!
//! let re = Regex::new(r"Instance (?P<app>\w+) on (?P<id>i-[0-9a-f]+) is ready").unwrap();
//! let caps = re.captures("... Instance pm on i-7df34041 is ready for use.").unwrap();
//! assert_eq!(caps.name("id"), Some("i-7df34041"));
//! assert_eq!(caps.name("app"), Some("pm"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod ast;
mod backtrack;
mod compile;
mod literal;
mod parser;
#[cfg(test)]
mod vm;

#[cfg(test)]
mod differential;

pub use parser::ParseError;

use std::cell::RefCell;
use std::sync::Arc;

use backtrack::StartPolicy;
use compile::Program;
use literal::{LiteralInfo, LiteralScanner};

thread_local! {
    /// Reusable buffer for prefilter candidate start offsets.
    static START_BUF: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    /// Reusable buffer for `CandidateIndex` candidate keys.
    static CANDIDATE_BUF: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The compiled prefilter of one pattern.
#[derive(Debug, Clone)]
enum Prefilter {
    /// Every match starts with one of the scanner's literals.
    Prefixes(LiteralScanner),
    /// Every match contains one of the scanner's literals somewhere.
    Inner(LiteralScanner),
    /// No literal requirement: scan every offset.
    None,
}

/// A compiled regular expression.
///
/// Matching is *unanchored* by default: [`Regex::captures`] scans for the
/// leftmost match. Use `^` / `$` in the pattern to anchor.
#[derive(Debug, Clone)]
pub struct Regex {
    prog: Program,
    /// Shared with every [`Captures`] this pattern produces: a match costs
    /// a reference-count bump, not a copy of the table.
    names: Arc<[(u32, String)]>,
    anchored: bool,
    prefilter: Prefilter,
    /// The literal requirement derived from the pattern, if any: every
    /// match contains at least one of these strings.
    literals: Option<Vec<String>>,
}

impl Regex {
    /// Compiles a pattern.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the position and cause if the
    /// pattern is not valid in the supported dialect.
    pub fn new(pattern: &str) -> Result<Regex, ParseError> {
        let parsed = parser::parse(pattern)?;
        let prog = compile::compile(&parsed.ast, parsed.capture_count);
        let anchored = literal::anchored_at_start(&parsed.ast);
        let info = literal::literal_info(&parsed.ast);
        let literals = info.literals().map(<[String]>::to_vec);
        let prefilter = match &info {
            // An anchored pattern already restricts the start to offset 0;
            // the scanner would be pure overhead.
            _ if anchored => Prefilter::None,
            LiteralInfo::Prefixes(lits) => Prefilter::Prefixes(LiteralScanner::new(lits)),
            LiteralInfo::Inner(lits) => Prefilter::Inner(LiteralScanner::new(lits)),
            LiteralInfo::None => Prefilter::None,
        };
        Ok(Regex {
            prog,
            names: parsed.capture_names.into(),
            anchored,
            prefilter,
            literals,
        })
    }

    /// Whether the pattern matches anywhere in `text`.
    pub fn is_match(&self, text: &str) -> bool {
        self.search(text, |policy| {
            backtrack::is_match(&self.prog, text, policy).then_some(())
        })
        .is_some()
    }

    /// Finds the leftmost match and returns all capture groups.
    pub fn captures<'t>(&self, text: &'t str) -> Option<Captures<'t>> {
        self.exec(text).map(|slots| Captures {
            text,
            slots,
            names: Arc::clone(&self.names),
        })
    }

    /// The leftmost-first match's capture slots.
    fn exec(&self, text: &str) -> Option<backtrack::ByteSlots> {
        self.search(text, |policy| backtrack::captures(&self.prog, text, policy))
    }

    /// Prefilter, then `run` over the candidate starts.
    fn search<T>(&self, text: &str, run: impl FnOnce(StartPolicy<'_>) -> Option<T>) -> Option<T> {
        if self.anchored {
            return run(StartPolicy::Zero);
        }
        match &self.prefilter {
            Prefilter::Prefixes(scanner) => START_BUF.with(|buf| {
                let mut fallback = Vec::new();
                let mut guard = buf.try_borrow_mut().ok();
                let starts = guard.as_deref_mut().unwrap_or(&mut fallback);
                starts.clear();
                scanner.scan(text, |_, at| starts.push(at));
                if starts.is_empty() {
                    return None;
                }
                starts.sort_unstable();
                starts.dedup();
                run(StartPolicy::At(starts))
            }),
            Prefilter::Inner(scanner) => {
                if !scanner.matches_any(text) {
                    return None;
                }
                run(StartPolicy::All)
            }
            Prefilter::None => run(StartPolicy::All),
        }
    }

    /// The names of the named capture groups, in index order.
    pub fn capture_names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|(_, n)| n.as_str())
    }
}

/// The capture groups of a successful match. Group 0 is the whole match.
/// Slots are byte offsets into the searched text.
#[derive(Debug, Clone)]
pub struct Captures<'t> {
    text: &'t str,
    slots: Vec<Option<usize>>,
    names: Arc<[(u32, String)]>,
}

impl<'t> Captures<'t> {
    /// The text of capture group `i`, if it participated.
    fn get(&self, i: usize) -> Option<&'t str> {
        let s = (*self.slots.get(2 * i)?)?;
        let e = (*self.slots.get(2 * i + 1)?)?;
        Some(&self.text[s..e])
    }

    /// The text the named group `name` matched, if it participated.
    pub fn name(&self, name: &str) -> Option<&'t str> {
        let idx = self
            .names
            .iter()
            .find(|(_, n)| n == name)
            .map(|(i, _)| *i as usize)?;
        self.get(idx)
    }
}

/// One literal prefilter shared by many patterns, each filed under a
/// caller-chosen key: a single scan over a line yields the keys of the
/// only patterns that could match it, so confirmation cost is proportional
/// to the candidates — not to the number of patterns. The index holds no
/// regex; the caller confirms candidates against its own compiled copies.
///
/// # Examples
///
/// ```
/// use pod_regex::{CandidateIndex, Regex};
///
/// let patterns = [Regex::new("ERROR").unwrap(), Regex::new(r"^\d+$").unwrap()];
/// let index = CandidateIndex::new(patterns.iter().enumerate().map(|(i, re)| (i as u64, re)));
/// // `^\d+$` requires no literal, so it is a candidate for every line.
/// assert_eq!(index.with_candidates("all quiet", |keys| keys.to_vec()), vec![1]);
/// assert_eq!(index.with_candidates("ERROR 42", |keys| keys.to_vec()), vec![0, 1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CandidateIndex {
    /// One scanner over the union of every pattern's required literals;
    /// absent when no pattern yields any (a prefilter that admits
    /// everything is pure overhead).
    scanner: Option<LiteralScanner>,
    /// Key owning each of the scanner's literal ids.
    lit_owner: Vec<u64>,
    /// Keys of the patterns with no literal requirement: always
    /// candidates. Ascending.
    always: Vec<u64>,
}

impl CandidateIndex {
    /// Files each pattern's required literals under its key.
    pub fn new<'r>(patterns: impl IntoIterator<Item = (u64, &'r Regex)>) -> CandidateIndex {
        let mut index = CandidateIndex::default();
        let mut literals: Vec<&str> = Vec::new();
        for (key, re) in patterns {
            match &re.literals {
                Some(lits) => {
                    literals.extend(lits.iter().map(String::as_str));
                    index.lit_owner.resize(literals.len(), key);
                }
                None => index.always.push(key),
            }
        }
        index.always.sort_unstable();
        index.scanner = (!literals.is_empty()).then(|| LiteralScanner::new(&literals));
        index
    }

    /// Computes the candidate keys for `text` (ascending, deduplicated; a
    /// pattern whose key is not listed is guaranteed not to match) into
    /// reusable scratch and hands them to `f`.
    pub fn with_candidates<T>(&self, text: &str, f: impl FnOnce(&[u64]) -> T) -> T {
        let Some(scanner) = &self.scanner else {
            return f(&self.always);
        };
        CANDIDATE_BUF.with(|buf| {
            let mut fallback = Vec::new();
            let mut guard = buf.try_borrow_mut().ok();
            let out = guard.as_deref_mut().unwrap_or(&mut fallback);
            out.clear();
            out.extend_from_slice(&self.always);
            scanner.scan(text, |lit, _| out.push(self.lit_owner[lit]));
            out.sort_unstable();
            out.dedup();
            f(out)
        })
    }
}

/// A set of patterns matched together, used by the log pipeline's noise
/// filter and the activity matchers.
///
/// Membership tests run as a true multi-pattern engine: one shared literal
/// scan over the line ([`CandidateIndex`], keyed by pattern index) yields
/// the candidate patterns, and only those are confirmed with their full
/// regex.
///
/// # Examples
///
/// ```
/// use pod_regex::RegexSet;
///
/// let set = RegexSet::new(&[r"ERROR", r"instance i-\w+ terminated"]).unwrap();
/// assert_eq!(set.first_match("instance i-abc123 terminated"), Some(1));
/// assert!(set.matches("all quiet").is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RegexSet {
    regexes: Vec<Regex>,
    index: CandidateIndex,
}

impl RegexSet {
    /// Compiles every pattern; fails on the first invalid one.
    pub fn new<S: AsRef<str>>(patterns: &[S]) -> Result<RegexSet, ParseError> {
        let regexes = patterns
            .iter()
            .map(|p| Regex::new(p.as_ref()))
            .collect::<Result<Vec<_>, _>>()?;
        let index = CandidateIndex::new(regexes.iter().enumerate().map(|(i, re)| (i as u64, re)));
        Ok(RegexSet { regexes, index })
    }

    /// The pattern index behind candidate `key`, if that pattern matches.
    fn confirm(&self, key: u64, text: &str) -> Option<usize> {
        let idx = key as usize;
        self.regexes[idx].is_match(text).then_some(idx)
    }

    /// Indices of all patterns that match `text`.
    pub fn matches(&self, text: &str) -> Vec<usize> {
        let confirm_all =
            |keys: &[u64]| keys.iter().filter_map(|&k| self.confirm(k, text)).collect();
        self.index.with_candidates(text, confirm_all)
    }

    /// Index of the first (lowest-index) matching pattern.
    pub fn first_match(&self, text: &str) -> Option<usize> {
        let confirm_first = |keys: &[u64]| keys.iter().find_map(|&k| self.confirm(k, text));
        self.index.with_candidates(text, confirm_first)
    }

    /// Whether the set contains no patterns.
    pub fn is_empty(&self) -> bool {
        self.regexes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared by `Arc` between engines: an `Rc` or `RefCell` inside stops this compiling.
    #[test]
    fn compiled_patterns_are_shareable_across_threads() {
        fn shared<T: Send + Sync>() {}
        shared::<Regex>();
        shared::<RegexSet>();
    }

    #[test]
    fn unanchored_find_locates_leftmost() {
        let re = Regex::new(r"\d+").unwrap();
        let caps = re.captures("abc 123 def 456").unwrap();
        assert_eq!(caps.get(0), Some("123"));
        assert_eq!(caps.slots[..2], [Some(4), Some(7)]);
    }

    #[test]
    fn named_captures() {
        let re = Regex::new(r"\[(?P<level>INFO|ERROR)\] (?P<msg>.*)$").unwrap();
        let caps = re.captures("[ERROR] instance launch failed").unwrap();
        assert_eq!(caps.name("level"), Some("ERROR"));
        assert_eq!(caps.name("msg"), Some("instance launch failed"));
        assert!(caps.name("missing").is_none());
    }

    #[test]
    fn optional_group_is_none_when_absent() {
        let re = Regex::new(r"a(b)?c").unwrap();
        let caps = re.captures("ac").unwrap();
        assert!(caps.get(1).is_none());
    }

    #[test]
    fn unicode_text_offsets_are_bytes() {
        let re = Regex::new("b").unwrap();
        let caps = re.captures("äb").unwrap();
        assert_eq!(caps.slots[0], Some(2));
        assert_eq!(caps.get(0), Some("b"));
    }

    #[test]
    fn realistic_asgard_pattern() {
        let re = Regex::new(
            r"Pushing (?P<ami>ami-[0-9a-f]+) into group (?P<asg>[\w-]+) for app (?P<app>\w+)",
        )
        .unwrap();
        let line =
            "[2013-10-24 11:41:48,312] [Task:Pushing ami-750c9e4f into group pm--asg for app pm]";
        let caps = re.captures(line).unwrap();
        assert_eq!(caps.name("ami"), Some("ami-750c9e4f"));
        assert_eq!(caps.name("asg"), Some("pm--asg"));
    }

    #[test]
    fn timestamp_pattern() {
        let re = Regex::new(r"^\[(?P<ts>\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2},\d{3})\]").unwrap();
        let caps = re
            .captures("[2013-11-19 11:48:01,100] [diagnosis] ...")
            .unwrap();
        assert_eq!(caps.name("ts"), Some("2013-11-19 11:48:01,100"));
    }

    #[test]
    fn alternation_prefers_left_branch() {
        let re = Regex::new("ab|a").unwrap();
        assert_eq!(re.captures("ab").unwrap().get(0), Some("ab"));
    }

    #[test]
    fn set_reports_all_matches() {
        let set = RegexSet::new(&["a", "b", "c"]).unwrap();
        assert_eq!(set.matches("cab"), vec![0, 1, 2]);
        assert_eq!(set.matches("b"), vec![1]);
    }

    #[test]
    fn set_prefilter_confirms_candidates_only() {
        let set = RegexSet::new(&[
            r"ERROR",
            r"Terminated instance i-\w+",
            r"\d+\s\w+", // no derivable literal: always a candidate
        ])
        .unwrap();
        assert_eq!(set.matches("ERROR: Terminated instance i-1"), vec![0, 1]);
        assert_eq!(set.matches("7 dwarves"), vec![2]);
        assert_eq!(set.first_match("Terminated instance i-9 ERROR"), Some(0));
        assert_eq!(set.first_match("all quiet"), None);
        assert!(set.matches("all quiet").is_empty());
    }
}
