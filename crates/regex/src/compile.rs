//! Compilation of the AST into a small VM program.

use crate::ast::{Ast, CharClass, PerlClass};

/// One VM instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Match exactly this character.
    Char(char),
    /// Match any character except `\n`.
    Any,
    /// Match a bracketed class.
    Class(CharClass),
    /// Match a shorthand class.
    Perl(PerlClass),
    /// Try `first`; on failure backtrack to `second`.
    Split(usize, usize),
    /// Unconditional jump.
    Jump(usize),
    /// Record the current position into slot `n`.
    Save(usize),
    /// Record the current position into progress register `n` (loop guard).
    Mark(usize),
    /// If the position advanced since `Mark(reg)`, jump to `target`;
    /// otherwise fall through (breaking out of an empty-match loop).
    IfProgress {
        /// Progress register to compare against.
        reg: usize,
        /// Loop head to jump to when progress was made.
        target: usize,
    },
    /// Assert start of input.
    AssertStart,
    /// Assert end of input.
    AssertEnd,
    /// Successful match.
    Match,
}

/// A compiled program.
#[derive(Debug, Clone)]
pub struct Program {
    /// Instruction sequence.
    pub insts: Vec<Inst>,
    /// Number of capture slots (two per group, including group 0).
    pub n_slots: usize,
    /// Number of progress registers used by loop guards. Only the
    /// test-only reference backtracker allocates them; the engine's
    /// visited set makes loop guards unnecessary.
    #[cfg_attr(not(test), allow(dead_code))]
    pub n_regs: usize,
    /// Each instruction's row in the engine's visited set: `Some` for a
    /// join (see `number_joins`), `None` for any other instruction.
    pub joins: Vec<Option<u32>>,
    /// Number of join instructions.
    pub n_joins: usize,
}

struct Compiler {
    insts: Vec<Inst>,
    n_regs: usize,
}

/// Compiles a parsed AST (with its capture count) into a program.
pub fn compile(ast: &Ast, capture_count: u32) -> Program {
    let mut c = Compiler {
        insts: Vec::new(),
        n_regs: 0,
    };
    c.insts.push(Inst::Save(0));
    c.emit(ast);
    c.insts.push(Inst::Save(1));
    c.insts.push(Inst::Match);
    let joins = number_joins(&c.insts);
    Program {
        n_joins: joins.iter().flatten().count(),
        joins,
        insts: c.insts,
        n_slots: 2 * (capture_count as usize + 1),
        n_regs: c.n_regs,
    }
}

/// Numbers the instructions with two or more incoming edges (the program
/// entry counts as one). Every cycle passes through one, and any other
/// instruction is entered only from its single predecessor, so visited
/// bits for the joins alone stop the engine walking a state twice.
fn number_joins(insts: &[Inst]) -> Vec<Option<u32>> {
    let mut incoming = vec![0u32; insts.len()];
    incoming[0] = 1;
    for (pc, inst) in insts.iter().enumerate() {
        let targets = match inst {
            Inst::Jump(target) => [Some(*target), None],
            Inst::Split(first, second) => [Some(*first), Some(*second)],
            Inst::IfProgress { target, .. } => [Some(*target), Some(pc + 1)],
            Inst::Match => [None, None],
            _ => [Some(pc + 1), None],
        };
        for target in targets.into_iter().flatten() {
            incoming[target] += 1;
        }
    }
    let mut next = 0;
    incoming
        .iter()
        .map(|&n| {
            let join = (n >= 2).then_some(next);
            next += u32::from(n >= 2);
            join
        })
        .collect()
}

impl Compiler {
    fn emit(&mut self, ast: &Ast) {
        match ast {
            Ast::Empty => {}
            Ast::Literal(c) => self.insts.push(Inst::Char(*c)),
            Ast::AnyChar => self.insts.push(Inst::Any),
            Ast::Class(c) => self.insts.push(Inst::Class(c.clone())),
            Ast::Perl(p) => self.insts.push(Inst::Perl(*p)),
            Ast::StartAnchor => self.insts.push(Inst::AssertStart),
            Ast::EndAnchor => self.insts.push(Inst::AssertEnd),
            Ast::Concat(items) => {
                for item in items {
                    self.emit(item);
                }
            }
            Ast::Alternate(branches) => self.emit_alternate(branches),
            Ast::Repeat {
                node,
                min,
                max,
                greedy,
            } => self.emit_repeat(node, *min, *max, *greedy),
            Ast::Group { index, node, .. } => {
                let slot = 2 * (*index as usize);
                self.insts.push(Inst::Save(slot));
                self.emit(node);
                self.insts.push(Inst::Save(slot + 1));
            }
            Ast::NonCapturing(node) => self.emit(node),
        }
    }

    fn emit_alternate(&mut self, branches: &[Ast]) {
        // split b1, (split b2, (... bn))
        let mut jump_ends = Vec::new();
        for (i, branch) in branches.iter().enumerate() {
            if i + 1 < branches.len() {
                let split_at = self.insts.len();
                self.insts.push(Inst::Split(0, 0)); // patched below
                self.emit(branch);
                jump_ends.push(self.insts.len());
                self.insts.push(Inst::Jump(0)); // patched below
                let next = self.insts.len();
                self.insts[split_at] = Inst::Split(split_at + 1, next);
            } else {
                self.emit(branch);
            }
        }
        let end = self.insts.len();
        for j in jump_ends {
            self.insts[j] = Inst::Jump(end);
        }
    }

    fn emit_repeat(&mut self, node: &Ast, min: u32, max: Option<u32>, greedy: bool) {
        // Mandatory prefix.
        for _ in 0..min {
            self.emit(node);
        }
        match max {
            Some(max) => {
                // (max - min) optional copies.
                let mut splits = Vec::new();
                for _ in min..max {
                    let split_at = self.insts.len();
                    self.insts.push(Inst::Split(0, 0));
                    splits.push(split_at);
                    self.emit(node);
                }
                let end = self.insts.len();
                for s in splits {
                    self.insts[s] = if greedy {
                        Inst::Split(s + 1, end)
                    } else {
                        Inst::Split(end, s + 1)
                    };
                }
            }
            None => {
                // Unbounded tail: loop with an empty-match guard.
                let reg = self.n_regs;
                self.n_regs += 1;
                let head = self.insts.len();
                self.insts.push(Inst::Split(0, 0)); // patched below
                self.insts.push(Inst::Mark(reg));
                self.emit(node);
                self.insts.push(Inst::IfProgress { reg, target: head });
                let end = self.insts.len();
                self.insts[head] = if greedy {
                    Inst::Split(head + 1, end)
                } else {
                    Inst::Split(end, head + 1)
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn prog(pattern: &str) -> Program {
        let p = parse(pattern).unwrap();
        compile(&p.ast, p.capture_count)
    }

    #[test]
    fn literal_program_shape() {
        let p = prog("ab");
        assert_eq!(
            p.insts,
            vec![
                Inst::Save(0),
                Inst::Char('a'),
                Inst::Char('b'),
                Inst::Save(1),
                Inst::Match
            ]
        );
    }

    #[test]
    fn star_uses_progress_guard() {
        let p = prog("a*");
        assert!(p.insts.iter().any(|i| matches!(i, Inst::IfProgress { .. })));
        assert_eq!(p.n_regs, 1);
    }

    #[test]
    fn bounded_repeat_expands() {
        let p = prog("a{3}");
        let chars = p
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Char('a')))
            .count();
        assert_eq!(chars, 3);
        assert_eq!(p.n_regs, 0);
    }

    #[test]
    fn joins_are_the_loop_head_and_exit() {
        // 0 Save(0), 1 Split(2, 5), 2 Mark, 3 Char(a), 4 IfProgress(1),
        // 5 Char(b), ...: the loop head (entered from 0 and 4) and the
        // loop exit (entered from 1 and 4) are the only joins.
        let p = prog("a*b");
        assert_eq!((p.n_joins, p.joins[1], p.joins[5]), (2, Some(0), Some(1)));
        assert_eq!(prog("ab").n_joins, 0);
    }

    #[test]
    fn groups_allocate_slots() {
        let p = prog("(a)(b)");
        assert_eq!(p.n_slots, 6);
    }
}
