//! Literal prefilters: extracting required literals from a pattern's AST
//! and scanning for them with a multi-pattern Aho-Corasick automaton.
//!
//! The log pipeline matches every line against many patterns, and almost
//! every (line, pattern) pair is a non-match. Running the VM to discover
//! that is wasteful: most patterns *require* some literal text ("Terminated
//! instance ", "ERROR: ", …) that a plain substring scan can rule out in a
//! fraction of the cost. This module derives those requirements:
//!
//! * [`literal_info`] analyses an AST and reports either a set of literal
//!   *prefixes* (every match starts with one of them — the VM only needs to
//!   run at their occurrences) or a set of required *inner* literals (every
//!   match contains at least one — their absence rejects the line outright).
//! * [`LiteralScanner`] is the shared multi-literal searcher: an
//!   Aho-Corasick trie over the literal bytes with a dense root fan-out, so
//!   one left-to-right pass reports every occurrence of every literal.
//!
//! The same extraction feeds three layers: single-pattern prefilters in
//! [`crate::Regex`], the multi-pattern candidate scan in
//! [`crate::RegexSet`], and the rule-level index `pod-log` builds over its
//! transformation rules.

use crate::ast::{Ast, ClassItem};

/// Caps on the extracted literal sets: more or longer literals than this
/// stop paying for themselves.
const MAX_LITERALS: usize = 16;
/// Longest literal kept; longer required text is truncated (still sound:
/// a truncated prefix/substring is still required).
const MAX_LITERAL_LEN: usize = 24;
/// Largest character class expanded into per-character literals.
const MAX_CLASS_EXPANSION: usize = 4;
/// Inner (containment-only) literals shorter than this produce too many
/// false candidates to be useful.
const MIN_INNER_LEN: usize = 2;

/// The literal requirement derived from a pattern, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LiteralInfo {
    /// Every match starts with one of these (non-empty) literals.
    Prefixes(Vec<String>),
    /// Every match contains at least one of these literals somewhere.
    Inner(Vec<String>),
    /// No useful literal requirement could be derived.
    None,
}

impl LiteralInfo {
    /// The literal set, regardless of kind.
    pub(crate) fn literals(&self) -> Option<&[String]> {
        match self {
            LiteralInfo::Prefixes(l) | LiteralInfo::Inner(l) => Some(l),
            LiteralInfo::None => None,
        }
    }
}

/// Derives the strongest literal requirement for `ast`.
pub(crate) fn literal_info(ast: &Ast) -> LiteralInfo {
    let mut items = Vec::new();
    flatten(ast, &mut items);
    if let Some(set) = prefixes_of_seq(&items) {
        let lits = set.lits;
        if !lits.is_empty() && lits.len() <= MAX_LITERALS && lits.iter().all(|l| !l.is_empty()) {
            return LiteralInfo::Prefixes(cap_lengths(lits));
        }
    }
    match required_of_seq(&items) {
        Some(lits)
            if !lits.is_empty()
                && lits.len() <= MAX_LITERALS
                && lits.iter().all(|l| l.chars().count() >= MIN_INNER_LEN) =>
        {
            LiteralInfo::Inner(cap_lengths(lits))
        }
        _ => LiteralInfo::None,
    }
}

/// Whether every match of `ast` must begin at the start of the input
/// (i.e. the pattern is start-anchored on every alternation path).
pub(crate) fn anchored_at_start(ast: &Ast) -> bool {
    match ast {
        Ast::StartAnchor => true,
        Ast::Concat(items) => {
            for item in items {
                match item {
                    Ast::Empty => continue,
                    other => return anchored_at_start(other),
                }
            }
            false
        }
        Ast::Alternate(branches) => branches.iter().all(anchored_at_start),
        Ast::Group { node, .. } | Ast::NonCapturing(node) => anchored_at_start(node),
        Ast::Repeat { node, min, .. } => *min >= 1 && anchored_at_start(node),
        _ => false,
    }
}

/// Truncates literals to [`MAX_LITERAL_LEN`] characters (sound for both
/// prefix and containment requirements) and deduplicates.
fn cap_lengths(lits: Vec<String>) -> Vec<String> {
    let mut out: Vec<String> = lits
        .into_iter()
        .map(|l| l.chars().take(MAX_LITERAL_LEN).collect())
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Flattens concatenations and (non-)capturing group wrappers into a flat
/// item sequence; alternations and repeats stay as single items.
fn flatten<'a>(ast: &'a Ast, out: &mut Vec<&'a Ast>) {
    match ast {
        Ast::Concat(items) => {
            for item in items {
                flatten(item, out);
            }
        }
        Ast::Group { node, .. } | Ast::NonCapturing(node) => flatten(node, out),
        other => out.push(other),
    }
}

/// A set of possible prefixes for a (sub)sequence. Invariant: every string
/// the sequence matches starts with one of `lits`. When `exact` is set the
/// sequence matches *exactly* the strings in `lits`, so a following item
/// may extend them.
#[derive(Debug, Clone)]
struct PrefixSet {
    lits: Vec<String>,
    exact: bool,
}

impl PrefixSet {
    fn empty_exact() -> PrefixSet {
        PrefixSet {
            lits: vec![String::new()],
            exact: true,
        }
    }
}

/// Prefix analysis of a flattened item sequence. `None` means "no claim".
fn prefixes_of_seq(items: &[&Ast]) -> Option<PrefixSet> {
    let Some((&first, rest)) = items.split_first() else {
        return Some(PrefixSet::empty_exact());
    };
    match first {
        // Zero-width items are transparent to prefixes.
        Ast::Empty | Ast::StartAnchor | Ast::EndAnchor => prefixes_of_seq(rest),
        Ast::Repeat {
            node, min: 0, max, ..
        } => {
            // Either the repeat is skipped (prefix comes from the rest) or
            // entered at least once (prefix comes from the body). Both
            // cases must yield literals for the union to be sound.
            let skipped = prefixes_of_seq(rest)?;
            let mut body_items = Vec::new();
            flatten(node, &mut body_items);
            let mut entered = prefixes_of_seq(&body_items)?;
            if *max == Some(1) && entered.exact {
                // `x?y`: the entered branch continues straight into the
                // rest, so its exact prefixes extend.
                entered = cross(entered, rest)?;
            } else {
                entered.exact = false;
            }
            union_sets(skipped, entered)
        }
        Ast::Repeat { node, min, max, .. } => {
            // At least one mandatory iteration: the body's prefixes hold.
            // Only a single fixed iteration keeps the set exact.
            let mut body_items = Vec::new();
            flatten(node, &mut body_items);
            let mut set = prefixes_of_seq(&body_items)?;
            if *min == 1 && *max == Some(1) && set.exact {
                return cross(set, rest);
            }
            set.exact = false;
            Some(set)
        }
        other => {
            let set = prefixes_of_atom(other)?;
            if set.exact {
                cross(set, rest)
            } else {
                Some(set)
            }
        }
    }
}

/// Extends an exact prefix set with the analysis of the remaining items.
/// When the tail yields no claim (e.g. it starts with `\w+`), the
/// accumulated strings are still valid prefixes — just no longer exact.
fn cross(acc: PrefixSet, rest: &[&Ast]) -> Option<PrefixSet> {
    debug_assert!(acc.exact);
    let Some(tail) = prefixes_of_seq(rest) else {
        return Some(PrefixSet {
            lits: acc.lits,
            exact: false,
        });
    };
    if acc.lits.len().saturating_mul(tail.lits.len()) > MAX_LITERALS {
        // Too many combinations: stop extending, keep what we have. The
        // accumulated strings are still valid (non-exact) prefixes.
        return Some(PrefixSet {
            lits: acc.lits,
            exact: false,
        });
    }
    let mut lits = Vec::with_capacity(acc.lits.len() * tail.lits.len());
    let mut truncated = false;
    for a in &acc.lits {
        for t in &tail.lits {
            let mut s = a.clone();
            if s.chars().count() >= MAX_LITERAL_LEN {
                truncated = true;
            } else {
                s.push_str(t);
            }
            lits.push(s);
        }
    }
    lits.sort();
    lits.dedup();
    Some(PrefixSet {
        lits,
        exact: tail.exact && !truncated,
    })
}

/// Union of two sound prefix sets (sound: a match starts with a member of
/// either). The union is never exact-extendable.
fn union_sets(a: PrefixSet, b: PrefixSet) -> Option<PrefixSet> {
    let mut lits = a.lits;
    lits.extend(b.lits);
    lits.sort();
    lits.dedup();
    if lits.len() > MAX_LITERALS {
        return None;
    }
    Some(PrefixSet { lits, exact: false })
}

/// Prefix analysis of a single non-transparent atom.
fn prefixes_of_atom(ast: &Ast) -> Option<PrefixSet> {
    match ast {
        Ast::Literal(c) => Some(PrefixSet {
            lits: vec![c.to_string()],
            exact: true,
        }),
        Ast::Class(class) if !class.negated => {
            let chars = expand_class_items(&class.items)?;
            Some(PrefixSet {
                lits: chars.into_iter().map(|c| c.to_string()).collect(),
                exact: true,
            })
        }
        Ast::Alternate(branches) => {
            let mut acc: Option<PrefixSet> = None;
            for branch in branches {
                let mut items = Vec::new();
                flatten(branch, &mut items);
                let set = prefixes_of_seq(&items)?;
                acc = Some(match acc {
                    None => set,
                    Some(prev) => {
                        // Keep exactness when *all* branches are exact so a
                        // following literal can still extend the union.
                        let exact = prev.exact && set.exact;
                        let mut merged = union_sets(prev, set)?;
                        merged.exact = exact;
                        merged
                    }
                });
            }
            acc
        }
        _ => None,
    }
}

/// Expands small, non-negated class item lists into their characters.
fn expand_class_items(items: &[ClassItem]) -> Option<Vec<char>> {
    let mut chars = Vec::new();
    for item in items {
        match item {
            ClassItem::Char(c) => chars.push(*c),
            ClassItem::Range(lo, hi) => {
                let span = (*hi as u32).saturating_sub(*lo as u32) as usize + 1;
                if chars.len() + span > MAX_CLASS_EXPANSION {
                    return None;
                }
                for cp in (*lo as u32)..=(*hi as u32) {
                    chars.push(char::from_u32(cp)?);
                }
            }
            ClassItem::Perl(_) => return None,
        }
        if chars.len() > MAX_CLASS_EXPANSION {
            return None;
        }
    }
    if chars.is_empty() {
        None
    } else {
        Some(chars)
    }
}

/// Containment analysis: a set of literals such that every match of the
/// sequence contains at least one of them. Picks the best candidate
/// (longest minimum length, then fewest alternatives) along the sequence.
fn required_of_seq(items: &[&Ast]) -> Option<Vec<String>> {
    let mut best: Option<Vec<String>> = None;
    let mut run = String::new();
    let consider = |cand: Vec<String>, best: &mut Option<Vec<String>>| {
        if cand.is_empty() || cand.len() > MAX_LITERALS {
            return;
        }
        let score = |set: &[String]| {
            let min_len = set.iter().map(|l| l.chars().count()).min().unwrap_or(0);
            (min_len, usize::MAX - set.len())
        };
        if best.as_deref().is_none_or(|b| score(&cand) > score(b)) {
            *best = Some(cand);
        }
    };
    for &item in items {
        match item {
            Ast::Literal(c) => {
                run.push(*c);
                continue;
            }
            Ast::Alternate(branches) => {
                // Every branch must require a literal for the union to be
                // a requirement of the alternation.
                let mut set = Vec::new();
                let mut ok = true;
                for branch in branches {
                    let mut branch_items = Vec::new();
                    flatten(branch, &mut branch_items);
                    match required_of_seq(&branch_items) {
                        Some(lits) => set.extend(lits),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    set.sort();
                    set.dedup();
                    consider(set, &mut best);
                }
            }
            Ast::Repeat { node, min, .. } if *min >= 1 => {
                let mut body_items = Vec::new();
                flatten(node, &mut body_items);
                if let Some(lits) = required_of_seq(&body_items) {
                    consider(lits, &mut best);
                }
            }
            _ => {}
        }
        // The current literal run ended at this item.
        if !run.is_empty() {
            consider(vec![std::mem::take(&mut run)], &mut best);
        }
    }
    if !run.is_empty() {
        consider(vec![run], &mut best);
    }
    best
}

// ---------------------------------------------------------------------------
// Multi-literal scanner (Aho-Corasick).
// ---------------------------------------------------------------------------

/// Sentinel for "no child" in the dense root table.
const NO_CHILD: u32 = u32::MAX;

#[derive(Debug, Clone, Default)]
struct TrieNode {
    /// Sparse byte → child edges (kept sorted by byte).
    edges: Vec<(u8, u32)>,
    /// Failure link (longest proper suffix that is also a trie prefix).
    fail: u32,
    /// Literal ids whose occurrence ends at this node (own + inherited).
    out: Vec<u32>,
}

impl TrieNode {
    fn child(&self, b: u8) -> Option<u32> {
        self.edges
            .binary_search_by_key(&b, |(byte, _)| *byte)
            .ok()
            .map(|i| self.edges[i].1)
    }
}

/// A multi-literal substring searcher: one pass over the haystack reports
/// every occurrence of every needle. This is the prefilter behind
/// [`crate::Regex`] and, shared among many patterns, behind
/// [`crate::CandidateIndex`] — which is how code outside the crate
/// reaches it.
///
/// # Examples
///
/// ```
/// use pod_regex::RegexSet;
///
/// // One scan for "ERROR" and "Terminated" selects the patterns to confirm.
/// let set = RegexSet::new(&["ERROR", "Terminated"]).unwrap();
/// assert_eq!(set.matches("ERROR: instance i-1 Terminated"), vec![0, 1]);
/// assert!(set.matches("all quiet").is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct LiteralScanner {
    nodes: Vec<TrieNode>,
    /// Dense fan-out for the root state: byte → child (or [`NO_CHILD`]).
    root: Box<[u32; 256]>,
    /// Byte length of each literal, indexed by literal id.
    lit_lens: Vec<usize>,
}

impl LiteralScanner {
    /// Builds a scanner over `literals`. Empty literals are ignored (they
    /// would match everywhere and carry no information).
    pub fn new<S: AsRef<str>>(literals: &[S]) -> LiteralScanner {
        let mut nodes = vec![TrieNode::default()];
        let mut lit_lens = Vec::with_capacity(literals.len());
        for (id, lit) in literals.iter().enumerate() {
            let bytes = lit.as_ref().as_bytes();
            lit_lens.push(bytes.len());
            if bytes.is_empty() {
                continue;
            }
            let mut state = 0u32;
            for &b in bytes {
                state = match nodes[state as usize].child(b) {
                    Some(next) => next,
                    None => {
                        let next = nodes.len() as u32;
                        nodes.push(TrieNode::default());
                        let edges = &mut nodes[state as usize].edges;
                        let pos = edges.partition_point(|(byte, _)| *byte < b);
                        edges.insert(pos, (b, next));
                        next
                    }
                };
            }
            nodes[state as usize].out.push(id as u32);
        }
        // Breadth-first failure links; outputs are inherited from the fail
        // chain so scanning never has to walk it.
        let mut queue = std::collections::VecDeque::new();
        let mut root = Box::new([NO_CHILD; 256]);
        for &(b, child) in &nodes[0].edges.clone() {
            root[b as usize] = child;
            nodes[child as usize].fail = 0;
            queue.push_back(child);
        }
        while let Some(state) = queue.pop_front() {
            let edges = nodes[state as usize].edges.clone();
            for (b, child) in edges {
                let mut f = nodes[state as usize].fail;
                let fail = loop {
                    if let Some(next) = nodes[f as usize].child(b) {
                        break next;
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = nodes[f as usize].fail;
                };
                nodes[child as usize].fail = fail;
                let inherited = nodes[fail as usize].out.clone();
                nodes[child as usize].out.extend(inherited);
                queue.push_back(child);
            }
        }
        // Built once per pattern (or per tenant's rule book) and kept for
        // its lifetime: do not keep the growth slack.
        nodes.shrink_to_fit();
        LiteralScanner {
            nodes,
            root,
            lit_lens,
        }
    }

    /// Calls `on_hit(literal_id, start_byte_offset)` for every occurrence
    /// of every literal in `haystack`, left to right by end position.
    pub fn scan(&self, haystack: &str, mut on_hit: impl FnMut(usize, usize)) {
        let bytes = haystack.as_bytes();
        let mut state = 0u32;
        for (i, &b) in bytes.iter().enumerate() {
            state = self.step(state, b);
            let node = &self.nodes[state as usize];
            for &lit in &node.out {
                let len = self.lit_lens[lit as usize];
                on_hit(lit as usize, i + 1 - len);
            }
        }
    }

    /// Whether any literal occurs in `haystack` (early exit on first hit).
    pub fn matches_any(&self, haystack: &str) -> bool {
        let bytes = haystack.as_bytes();
        let mut state = 0u32;
        for &b in bytes {
            state = self.step(state, b);
            if !self.nodes[state as usize].out.is_empty() {
                return true;
            }
        }
        false
    }

    #[inline]
    fn step(&self, mut state: u32, b: u8) -> u32 {
        loop {
            if state == 0 {
                let next = self.root[b as usize];
                return if next == NO_CHILD { 0 } else { next };
            }
            if let Some(next) = self.nodes[state as usize].child(b) {
                return next;
            }
            state = self.nodes[state as usize].fail;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn info(pattern: &str) -> LiteralInfo {
        literal_info(&parse(pattern).unwrap().ast)
    }

    #[test]
    fn plain_literal_prefix() {
        assert_eq!(
            info("Terminated instance "),
            LiteralInfo::Prefixes(vec!["Terminated instance ".into()])
        );
    }

    #[test]
    fn prefix_stops_at_first_wildcard() {
        match info(r"Instance \w+ is ready") {
            LiteralInfo::Prefixes(lits) => assert_eq!(lits, vec!["Instance ".to_string()]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn class_alternation_expands() {
        match info(r"[Rr]olling upgrade") {
            LiteralInfo::Prefixes(mut lits) => {
                lits.sort();
                assert_eq!(lits, vec!["Rolling upgrade", "rolling upgrade"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn alternation_unions_branch_prefixes() {
        match info("abc|xy|q0") {
            LiteralInfo::Prefixes(mut lits) => {
                lits.sort();
                assert_eq!(lits, vec!["abc", "q0", "xy"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn optional_head_unions_skip_and_enter() {
        match info(r"(?:re)?started") {
            LiteralInfo::Prefixes(mut lits) => {
                lits.sort();
                assert_eq!(lits, vec!["restarted", "started"]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn leading_wildcard_falls_back_to_inner_literal() {
        match info(r"\d+ instances of group") {
            LiteralInfo::Inner(lits) => {
                assert_eq!(lits, vec![" instances of group".to_string()]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pure_wildcards_have_no_literals() {
        assert_eq!(info(r"\d+\s\w+"), LiteralInfo::None);
        assert_eq!(info(".*"), LiteralInfo::None);
    }

    #[test]
    fn anchored_start_detected() {
        assert!(anchored_at_start(&parse("^abc").unwrap().ast));
        assert!(anchored_at_start(&parse("^a|^b").unwrap().ast));
        assert!(!anchored_at_start(&parse("a^b|^c").unwrap().ast));
        assert!(!anchored_at_start(&parse("abc").unwrap().ast));
    }

    #[test]
    fn group_wrappers_are_transparent() {
        match info(r"(?P<id>i-[0-9a-f]+) terminated") {
            LiteralInfo::Prefixes(lits) => assert_eq!(lits, vec!["i-".to_string()]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn scanner_reports_all_hits() {
        let scanner = LiteralScanner::new(&["he", "she", "his", "hers"]);
        let mut hits = Vec::new();
        scanner.scan("ushers", |lit, start| hits.push((lit, start)));
        // "she" at 1, "he" at 2, "hers" at 2.
        assert_eq!(hits, vec![(1, 1), (0, 2), (3, 2)]);
    }

    #[test]
    fn scanner_overlapping_and_miss() {
        let scanner = LiteralScanner::new(&["aba"]);
        let mut hits = Vec::new();
        scanner.scan("ababa", |_, start| hits.push(start));
        assert_eq!(hits, vec![0, 2]);
        assert!(!scanner.matches_any("bbbb"));
        assert!(scanner.matches_any("xxabay"));
    }

    #[test]
    fn scanner_handles_unicode_haystacks() {
        let scanner = LiteralScanner::new(&["ready"]);
        let mut hits = Vec::new();
        scanner.scan("ünïcode ready", |_, start| hits.push(start));
        assert_eq!(hits, vec!["ünïcode ".len()]);
    }
}
