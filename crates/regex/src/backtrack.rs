//! The execution engine for compiled programs: a memoized depth-first walk.
//!
//! For each allowed start offset in turn, the walk follows the program in
//! priority order — a `Split` continues at its first target and leaves the
//! second on a job stack — and returns at the first `Match`: the
//! leftmost-first answer, with the capture spans of the test-only reference
//! backtracker (`vm`). Unlike that backtracker it remembers every (join
//! instruction, byte offset) state it has entered, and abandons a state
//! entered again from this start or any later one: with no back-references,
//! whether a state leads to a match does not depend on the path to it.
//! Only joins (two or more incoming edges) need a bit, since a straight run
//! of instructions is entered only through its head. So no state is walked
//! twice, a call takes at most `insts × (len + 1)` steps and there is no
//! step budget. `Mark` is a no-op and `IfProgress` a split that prefers
//! another loop iteration. Capture slots are **byte offsets**.

use std::cell::RefCell;

use crate::compile::{Inst, Program};

/// Capture slots in byte offsets (`None` = group did not participate).
pub type ByteSlots = Vec<Option<usize>>;

/// Which byte offsets a match may start at.
#[derive(Debug, Clone, Copy)]
pub enum StartPolicy<'a> {
    /// Any char boundary (classic unanchored search).
    All,
    /// Only position 0 (the pattern is start-anchored).
    Zero,
    /// Only the given positions (sorted, deduplicated byte offsets from a
    /// literal prefilter; all must lie on char boundaries).
    At(&'a [usize]),
}

/// Scratch that grew past this many bytes is released after the call, so
/// one very long line does not keep its memory on the thread.
const RETAINED_BYTES: usize = 64 << 10;

/// One entry of the walk's job stack.
#[derive(Clone, Copy)]
enum Job {
    /// Walk on from instruction `pc` at byte offset `at`.
    Step { pc: usize, at: usize },
    /// Put capture slot `slot` back to `old`: a failed branch undoes its
    /// `Save`.
    Restore { slot: usize, old: Option<usize> },
}

/// Reusable per-OS-thread scratch.
#[derive(Default)]
struct Scratch {
    jobs: Vec<Job>,
    /// One bit per (join instruction, byte offset), row-major by join.
    visited: Vec<u64>,
    slots: ByteSlots,
}

impl Scratch {
    fn bytes(&self) -> usize {
        self.jobs.capacity() * std::mem::size_of::<Job>()
            + self.visited.capacity() * std::mem::size_of::<u64>()
            + self.slots.capacity() * std::mem::size_of::<Option<usize>>()
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `prog` over `text`, returning the leftmost-first match's capture
/// slots (byte offsets), or `None`.
pub(crate) fn captures(prog: &Program, text: &str, policy: StartPolicy<'_>) -> Option<ByteSlots> {
    with_scratch(|s| run::<true>(prog, text, policy, s).then(|| s.slots.clone()))
}

/// Whether `prog` matches `text` anywhere `policy` allows. Keeps no
/// capture slots.
pub(crate) fn is_match(prog: &Program, text: &str, policy: StartPolicy<'_>) -> bool {
    with_scratch(|s| run::<false>(prog, text, policy, s))
}

fn with_scratch<T>(f: impl FnOnce(&mut Scratch) -> T) -> T {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            let out = f(&mut scratch);
            if scratch.bytes() > RETAINED_BYTES {
                *scratch = Scratch::default();
            }
            out
        }
        // Re-entrant call (e.g. from a panic hook or nested matching):
        // fall back to fresh buffers rather than aliasing the scratch.
        Err(_) => f(&mut Scratch::default()),
    })
}

fn run<const SLOTS: bool>(
    prog: &Program,
    text: &str,
    policy: StartPolicy<'_>,
    s: &mut Scratch,
) -> bool {
    // Shared by every start: a state that failed from one start fails
    // from all of them.
    let bits = prog.n_joins * (text.len() + 1);
    s.visited.clear();
    s.visited.resize(bits.div_ceil(64), 0);
    s.jobs.clear();
    if SLOTS {
        s.slots.clear();
        s.slots.resize(prog.n_slots, None);
    }
    match policy {
        StartPolicy::Zero => walk::<SLOTS>(prog, text, 0, s),
        StartPolicy::At(starts) => starts.iter().any(|&at| walk::<SLOTS>(prog, text, at, s)),
        StartPolicy::All => (0..=text.len())
            .filter(|&at| text.is_char_boundary(at))
            .any(|at| walk::<SLOTS>(prog, text, at, s)),
    }
}

/// The width in bytes of the character at byte offset `at` if `accept`
/// takes it; `None` otherwise and at the end of `text`. ASCII is read
/// straight from the byte.
fn eat(text: &str, at: usize, accept: impl FnOnce(char) -> bool) -> Option<usize> {
    let byte = *text.as_bytes().get(at)?;
    let (c, width) = if byte.is_ascii() {
        (char::from(byte), 1)
    } else {
        let c = text.get(at..)?.chars().next()?;
        (c, c.len_utf8())
    };
    accept(c).then_some(width)
}

/// Walks `prog` from instruction 0 at byte offset `start` in priority
/// order. On a match, returns `true` with the match's slots in `s.slots`
/// (when `SLOTS`); otherwise returns `false` with every slot restored.
fn walk<const SLOTS: bool>(prog: &Program, text: &str, start: usize, s: &mut Scratch) -> bool {
    let row = text.len() + 1;
    s.jobs.push(Job::Step { pc: 0, at: start });
    while let Some(job) = s.jobs.pop() {
        let (mut pc, mut at) = match job {
            Job::Step { pc, at } => (pc, at),
            Job::Restore { slot, old } => {
                s.slots[slot] = old;
                continue;
            }
        };
        loop {
            if let Some(join) = prog.joins[pc] {
                let bit = join as usize * row + at;
                let (word, mask) = (bit / 64, 1u64 << (bit % 64));
                if s.visited[word] & mask != 0 {
                    break;
                }
                s.visited[word] |= mask;
            }
            let (next, width) = match &prog.insts[pc] {
                Inst::Char(c) => (pc + 1, eat(text, at, |ch| ch == *c)),
                Inst::Any => (pc + 1, eat(text, at, |ch| ch != '\n')),
                Inst::Class(class) => (pc + 1, eat(text, at, |ch| class.matches(ch))),
                Inst::Perl(p) => (pc + 1, eat(text, at, |ch| p.matches(ch))),
                Inst::Split(first, second) => {
                    s.jobs.push(Job::Step { pc: *second, at });
                    (*first, Some(0))
                }
                Inst::IfProgress { target, .. } => {
                    s.jobs.push(Job::Step { pc: pc + 1, at });
                    (*target, Some(0))
                }
                Inst::Jump(target) => (*target, Some(0)),
                Inst::Save(slot) => {
                    if SLOTS {
                        let old = s.slots[*slot].replace(at);
                        s.jobs.push(Job::Restore { slot: *slot, old });
                    }
                    (pc + 1, Some(0))
                }
                Inst::Mark(_) => (pc + 1, Some(0)),
                Inst::AssertStart => (pc + 1, (at == 0).then_some(0)),
                Inst::AssertEnd => (pc + 1, (at == text.len()).then_some(0)),
                Inst::Match => return true,
            };
            let Some(width) = width else { break };
            (pc, at) = (next, at + width);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;
    use crate::Regex;

    fn program(pattern: &str) -> Program {
        let parsed = parse(pattern).unwrap();
        compile(&parsed.ast, parsed.capture_count)
    }

    fn find(pattern: &str, text: &str) -> Option<ByteSlots> {
        captures(&program(pattern), text, StartPolicy::All)
    }

    fn span(pattern: &str, text: &str) -> Option<(usize, usize)> {
        find(pattern, text).map(|s| (s[0].unwrap(), s[1].unwrap()))
    }

    #[test]
    fn literal_and_miss() {
        assert_eq!(span("abc", "xxabcy"), Some((2, 5)));
        assert_eq!(span("abc", "xxaby"), None);
    }

    #[test]
    fn leftmost_first_priority() {
        // Alternation prefers the left branch even when the right branch
        // also matches at the same offset.
        assert_eq!(span("ab|a", "ab"), Some((0, 2)));
        // Leftmost beats longest: a later, longer match does not win.
        assert_eq!(span("ab|bcd", "xabcd"), Some((1, 3)));
        assert_eq!(span("a|bb", "cbba"), Some((1, 3)));
    }

    #[test]
    fn captures_are_byte_offsets() {
        let slots = find(r"(\w+)=(\w+)", "ün k=v").unwrap();
        // `k` is char index 3 but byte offset 4 (`ü` is 2 bytes).
        assert_eq!((slots[0], slots[1]), (Some(4), Some(7)));
        assert_eq!((slots[2], slots[3]), (Some(4), Some(5)));
        assert_eq!((slots[4], slots[5]), (Some(6), Some(7)));
    }

    #[test]
    fn greedy_vs_lazy() {
        assert_eq!(span("a.*c", "abcbc"), Some((0, 5)));
        assert_eq!(span("a.*?c", "abcbc"), Some((0, 3)));
    }

    #[test]
    fn empty_loop_terminates_and_records_slots() {
        let slots = find("(a*)*", "b").unwrap();
        assert_eq!((slots[0], slots[1]), (Some(0), Some(0)));
        assert_eq!((slots[2], slots[3]), (Some(0), Some(0)));
    }

    #[test]
    fn anchored_policies() {
        let prog = program("ab");
        assert!(captures(&prog, "xxab", StartPolicy::Zero).is_none());
        assert!(captures(&prog, "abxx", StartPolicy::Zero).is_some());
        assert_eq!(
            captures(&prog, "xxab", StartPolicy::At(&[2])).map(|s| s[0]),
            Some(Some(2))
        );
        assert!(captures(&prog, "xxab", StartPolicy::At(&[1])).is_none());
    }

    #[test]
    fn catastrophic_pattern_is_linear() {
        // The reference backtracker exhausts its step budget on this; the
        // memoized walk answers definitively (and quickly).
        let prog = program("(a+)+b");
        let text = "a".repeat(64);
        assert!(captures(&prog, &text, StartPolicy::All).is_none());
        let text = format!("{}b", "a".repeat(64));
        assert!(captures(&prog, &text, StartPolicy::All).is_some());
    }

    #[test]
    fn end_anchor_and_empty_match() {
        assert_eq!(span("x*", "abc"), Some((0, 0)));
        assert_eq!(span("c$", "abc"), Some((2, 3)));
        assert_eq!(span("^$", ""), Some((0, 0)));
        assert_eq!(span("^$", "a"), None);
    }

    fn assert_scratch_released() {
        let kept = SCRATCH.with(|cell| cell.borrow().bytes());
        assert!(kept <= RETAINED_BYTES, "{kept} bytes of scratch kept");
    }

    #[test]
    fn long_line_of_prefix_hits_is_answered_and_released() {
        // Every filler word is a hit of the pattern's prefix literal, so
        // this is the worst case for candidate starts.
        let re = Regex::new(
            r"Instance \w+ on (?P<instanceid>i-[0-9a-f]+) is ready for use. (?P<done>\d+) of (?P<total>\d+) instance relaunches done",
        )
        .unwrap();
        let mut line = "Instance x ".repeat((1 << 20) / "Instance x ".len());
        line.push_str(
            "Instance pm on i-887b51aa is ready for use. 3 of 4 instance relaunches done.",
        );
        let caps = re.captures(&line).unwrap();
        assert_eq!(caps.name("instanceid"), Some("i-887b51aa"));
        assert_scratch_released();
        assert!(re.is_match(&line));
        assert_scratch_released();
    }

    #[test]
    fn nested_repeat_on_a_long_line_is_a_definite_no() {
        // Straight to the engine: the literal prefilter would reject the
        // line for its missing `b` before any walk.
        let prog = program("(a+)+b");
        let text = "a".repeat(64 << 10);
        assert!(!is_match(&prog, &text, StartPolicy::All));
        assert_scratch_released();
        assert!(captures(&prog, &text, StartPolicy::All).is_none());
        assert_scratch_released();
    }
}
