//! A non-backtracking (Pike-style) execution engine for compiled programs.
//!
//! A backtracking VM (the test-only `vm` module, kept as the reference
//! semantics) clones the full capture-slot and register state into a frame
//! on every `Split` and re-runs from every start offset, which makes
//! worst-case cost exponential and even the common case allocation-heavy.
//! This engine simulates the NFA instead: it advances a
//! *thread list* through the input one character at a time, deduplicating
//! threads with a per-position visited set, so cost is bounded by
//! `O(input.len() × program.len())` with no per-step allocation (scratch
//! buffers are thread-local and reused across calls).
//!
//! Threads are kept in priority order (first = preferred), which reproduces
//! the backtracker's leftmost-first (Perl-style) semantics: when a `Match`
//! thread is reached, lower-priority threads are cut, while higher-priority
//! threads live on and may replace the recorded match with a preferred one.
//!
//! Unlike the backtracker, which tries a single start offset, this
//! engine scans the whole input in one pass; [`StartPolicy`] restricts
//! which offsets may begin a match (all of them, only offset zero for
//! anchored patterns, or only prefilter candidate offsets).
//!
//! Capture slots produced here are **byte offsets** into the input.

use std::cell::RefCell;

use crate::compile::{Inst, Program};

/// Capture slots in byte offsets (`None` = group did not participate).
pub type ByteSlots = Vec<Option<usize>>;

/// Which byte offsets a match may start at.
#[derive(Debug, Clone, Copy)]
pub enum StartPolicy<'a> {
    /// Any position (classic unanchored search).
    All,
    /// Only position 0 (the pattern is start-anchored).
    Zero,
    /// Only the given positions (sorted, deduplicated byte offsets from a
    /// literal prefilter; all must lie on char boundaries).
    At(&'a [usize]),
}

/// One NFA thread: a program counter plus its capture slots.
struct Thread {
    pc: usize,
    slots: ByteSlots,
}

/// Reusable per-OS-thread scratch: the two thread lists, the visited set
/// (generation-stamped so clearing is O(1)), a slot-buffer pool and the
/// working slot buffer used while computing epsilon closures.
#[derive(Default)]
struct Scratch {
    clist: Vec<Thread>,
    nlist: Vec<Thread>,
    seen: Vec<u64>,
    pool: Vec<ByteSlots>,
    work: ByteSlots,
    gen: u64,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `prog` over `text`, returning the leftmost-first match's capture
/// slots (byte offsets), or `None`. Never backtracks, so there is no step
/// limit to hit.
pub(crate) fn exec(prog: &Program, text: &str, policy: StartPolicy<'_>) -> Option<ByteSlots> {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => run(prog, text, policy, &mut scratch),
        // Re-entrant call (e.g. from a panic hook or nested matching):
        // fall back to fresh buffers rather than aliasing the scratch.
        Err(_) => run(prog, text, policy, &mut Scratch::default()),
    })
}

/// Adds the epsilon closure of `pc` (at input byte `at`) to `list` in
/// priority (depth-first) order. `work` holds the capture slots of the
/// thread being extended; `Save` entries are written before recursing and
/// restored after, so sibling branches see the original values.
#[allow(clippy::too_many_arguments)]
fn add_thread(
    prog: &Program,
    pc: usize,
    at: usize,
    len: usize,
    work: &mut ByteSlots,
    list: &mut Vec<Thread>,
    seen: &mut [u64],
    gen: u64,
    pool: &mut Vec<ByteSlots>,
) {
    if seen[pc] == gen {
        return;
    }
    seen[pc] = gen;
    match &prog.insts[pc] {
        Inst::Jump(target) => add_thread(prog, *target, at, len, work, list, seen, gen, pool),
        Inst::Split(first, second) => {
            add_thread(prog, *first, at, len, work, list, seen, gen, pool);
            add_thread(prog, *second, at, len, work, list, seen, gen, pool);
        }
        Inst::Save(slot) => {
            let old = work[*slot];
            work[*slot] = Some(at);
            add_thread(prog, pc + 1, at, len, work, list, seen, gen, pool);
            work[*slot] = old;
        }
        // Progress registers exist to stop the *backtracker* re-running an
        // empty loop body forever; here the visited set already guarantees
        // each pc is expanded once per position, so `Mark` is a no-op and
        // `IfProgress` degrades to a prioritized split: try another loop
        // iteration first (`target`), else fall through to the loop exit.
        Inst::Mark(_) => add_thread(prog, pc + 1, at, len, work, list, seen, gen, pool),
        Inst::IfProgress { target, .. } => {
            add_thread(prog, *target, at, len, work, list, seen, gen, pool);
            add_thread(prog, pc + 1, at, len, work, list, seen, gen, pool);
        }
        Inst::AssertStart => {
            if at == 0 {
                add_thread(prog, pc + 1, at, len, work, list, seen, gen, pool);
            }
        }
        Inst::AssertEnd => {
            if at == len {
                add_thread(prog, pc + 1, at, len, work, list, seen, gen, pool);
            }
        }
        // Consuming instructions and Match park a thread in the list with
        // its own copy of the slots (drawn from the pool, not allocated).
        Inst::Char(_) | Inst::Any | Inst::Class(_) | Inst::Perl(_) | Inst::Match => {
            let mut slots = pool.pop().unwrap_or_default();
            slots.clone_from(work);
            list.push(Thread { pc, slots });
        }
    }
}

fn run(prog: &Program, text: &str, policy: StartPolicy<'_>, s: &mut Scratch) -> Option<ByteSlots> {
    let len = text.len();
    let n_insts = prog.insts.len();
    if s.seen.len() < n_insts {
        s.seen.resize(n_insts, 0);
    }
    let Scratch {
        clist,
        nlist,
        seen,
        pool,
        work,
        gen,
    } = s;
    clist.clear();
    nlist.clear();
    work.clear();
    work.resize(prog.n_slots, None);

    let mut matched: Option<ByteSlots> = None;
    let mut starts_idx = 0usize;
    *gen += 1;
    let mut cur_gen = *gen;
    let mut at = 0usize;
    loop {
        let ch = text[at..].chars().next();
        // Seed a new start at this offset, unless a (leftmost) match is
        // already recorded or the policy excludes it. Seeds go at the end
        // of the list: earlier starts keep higher priority.
        let seed = matched.is_none()
            && match policy {
                StartPolicy::All => true,
                StartPolicy::Zero => at == 0,
                StartPolicy::At(starts) => {
                    while starts_idx < starts.len() && starts[starts_idx] < at {
                        starts_idx += 1;
                    }
                    starts.get(starts_idx) == Some(&at)
                }
            };
        if seed {
            work.iter_mut().for_each(|v| *v = None);
            add_thread(prog, 0, at, len, work, clist, seen, cur_gen, pool);
        }

        *gen += 1;
        let next_gen = *gen;
        let width = ch.map_or(0, char::len_utf8);
        let mut idx = 0;
        while idx < clist.len() {
            let consumes = match &prog.insts[clist[idx].pc] {
                Inst::Char(c) => ch == Some(*c),
                Inst::Any => ch.is_some_and(|c| c != '\n'),
                Inst::Class(class) => ch.is_some_and(|c| class.matches(c)),
                Inst::Perl(p) => ch.is_some_and(|c| p.matches(c)),
                Inst::Match => {
                    // Record this match and cut the lower-priority threads
                    // behind it. Higher-priority threads already advanced
                    // into `nlist` and may still replace this result.
                    matched = Some(std::mem::take(&mut clist[idx].slots));
                    break;
                }
                _ => unreachable!("epsilon instruction parked in thread list"),
            };
            if consumes {
                let thread = &mut clist[idx];
                std::mem::swap(work, &mut thread.slots);
                add_thread(
                    prog,
                    thread.pc + 1,
                    at + width,
                    len,
                    work,
                    nlist,
                    seen,
                    next_gen,
                    pool,
                );
                std::mem::swap(work, &mut clist[idx].slots);
            }
            idx += 1;
        }
        // Recycle this position's slot buffers and promote the next list.
        pool.extend(clist.drain(..).map(|t| t.slots));
        std::mem::swap(clist, nlist);
        cur_gen = next_gen;

        if clist.is_empty() {
            // No live thread: done if a match is recorded or no start can
            // ever be seeded at a later offset.
            let more_starts = matched.is_none()
                && match policy {
                    StartPolicy::All => at < len,
                    StartPolicy::Zero => false,
                    StartPolicy::At(starts) => starts_idx < starts.len(),
                };
            if !more_starts {
                break;
            }
        }
        if at >= len {
            break;
        }
        at += width;
    }
    pool.extend(clist.drain(..).map(|t| t.slots));
    matched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse;

    fn find(pattern: &str, text: &str) -> Option<ByteSlots> {
        let parsed = parse(pattern).unwrap();
        let prog = compile(&parsed.ast, parsed.capture_count);
        exec(&prog, text, StartPolicy::All)
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
        let parsed = parse("ab").unwrap();
        let prog = compile(&parsed.ast, parsed.capture_count);
        assert!(exec(&prog, "xxab", StartPolicy::Zero).is_none());
        assert!(exec(&prog, "abxx", StartPolicy::Zero).is_some());
        assert_eq!(
            exec(&prog, "xxab", StartPolicy::At(&[2])).map(|s| s[0]),
            Some(Some(2))
        );
        assert!(exec(&prog, "xxab", StartPolicy::At(&[1])).is_none());
    }

    #[test]
    fn catastrophic_pattern_is_linear() {
        // The backtracker exhausts its step budget on this; the Pike VM
        // answers definitively (and quickly).
        let parsed = parse("(a+)+b").unwrap();
        let prog = compile(&parsed.ast, parsed.capture_count);
        let text = "a".repeat(64);
        assert!(exec(&prog, &text, StartPolicy::All).is_none());
        let text = format!("{}b", "a".repeat(64));
        assert!(exec(&prog, &text, StartPolicy::All).is_some());
    }

    #[test]
    fn end_anchor_and_empty_match() {
        assert_eq!(span("x*", "abc"), Some((0, 0)));
        assert_eq!(span("c$", "abc"), Some((2, 3)));
        assert_eq!(span("^$", ""), Some((0, 0)));
        assert_eq!(span("^$", "a"), None);
    }
}
