//! ANF normalization and canonical forms for `λ_A` programs.
//!
//! The evaluation harness must decide whether a synthesized candidate *is*
//! the benchmark's gold solution. Textual equality is too brittle (variable
//! names and benign statement orderings differ), so we compare programs by
//! a **canonical ANF form**:
//!
//! 1. flatten the program to A-Normal Form (every operand a variable,
//!    aliases removed) — the same representation the synthesizer's
//!    `Progs(π)` uses (paper Appendix B.3);
//! 2. deterministically re-schedule statements respecting data
//!    dependencies (greedy, smallest canonical key first);
//! 3. number variables in schedule order.
//!
//! Two programs are [`alpha_eq`] iff their canonical forms are equal. The
//! construction never equates programs with different dataflow; it may (in
//! principle) fail to equate programs containing two *identical* duplicated
//! statements whose results are used asymmetrically, which does not occur in
//! synthesized or gold programs.
//!
//! A free variable (one no binder or parameter introduces) is a leaf of
//! its own, recorded by name in [`AnfProgram::free`]: uses of one name
//! share it, and programs that use different free names never compare
//! equal. Synthesized candidates are always closed.
//!
//! The implementation works on numbered variables throughout: flattening
//! resolves each name once, under a scoped binder stack, and scheduling
//! computes a statement's key once, when all of its operands are numbered
//! (a canonical number never changes after it is assigned). Strings are
//! only allocated for the returned [`AnfProgram`].

use std::cmp::Ordering;
use std::ops::Range;

use crate::ast::{Expr, Program};

/// A canonicalized, alpha-renamed ANF program.
///
/// Variables are `usize` indices: parameters are `0..n_params`, the free
/// variables follow in the order of [`AnfProgram::free`], and each
/// statement that binds a value assigns the next index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AnfProgram {
    /// Number of lambda parameters.
    pub n_params: usize,
    /// The distinct free variable names, sorted; empty for a closed
    /// program. They are numbered `n_params..n_params + free.len()`.
    pub free: Vec<String>,
    /// Statements in canonical schedule order.
    pub stmts: Vec<AnfStmt>,
    /// The variable returned by the program.
    pub result: usize,
}

/// A canonical ANF statement.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AnfStmt {
    /// `let dst = method(name=var, ...)` — args sorted by name.
    Call {
        /// Destination variable.
        dst: usize,
        /// Method name.
        method: String,
        /// Named arguments (sorted by name).
        args: Vec<(String, usize)>,
    },
    /// `let dst = base.label`.
    Proj {
        /// Destination variable.
        dst: usize,
        /// Base variable.
        base: usize,
        /// Projected field.
        label: String,
    },
    /// `let dst = {name=var, ...}` — fields sorted by name.
    Record {
        /// Destination variable.
        dst: usize,
        /// Record fields (sorted by name).
        fields: Vec<(String, usize)>,
    },
    /// `let dst = return val`.
    Ret {
        /// Destination variable.
        dst: usize,
        /// The wrapped variable.
        val: usize,
    },
    /// `dst ← src` (monadic binding over the array `src`).
    Bind {
        /// The iteration variable.
        dst: usize,
        /// The array being iterated.
        src: usize,
    },
    /// `if lhs = rhs` — operands ordered with the smaller index first
    /// (guard equality is symmetric).
    Guard {
        /// Smaller operand.
        lhs: usize,
        /// Larger operand.
        rhs: usize,
    },
}

/// Computes the canonical ANF form of a program.
pub fn canonicalize(program: &Program) -> AnfProgram {
    let mut flat = Flat::default();
    let mut scope: Vec<(&str, Ref)> = program
        .params
        .iter()
        .enumerate()
        .map(|(i, p)| (p.as_str(), Ref::Param(i)))
        .collect();
    let result = flat.expr(&program.body, &mut scope);
    flat.schedule(program.params.len(), result)
}

/// True iff two programs are equal modulo variable renaming and benign
/// (dependency-respecting) statement reordering.
///
/// ```
/// use apiphany_lang::{anf::alpha_eq, parse_program};
/// let a = parse_program(r"\u → { let x = f(user=u) return x.id }").unwrap();
/// let b = parse_program(r"\w → { let q = f(user=w) return q.id }").unwrap();
/// assert!(alpha_eq(&a, &b));
/// ```
pub fn alpha_eq(a: &Program, b: &Program) -> bool {
    canonicalize(a) == canonicalize(b)
}

// ---------------------------------------------------------------------------
// Phase 1: flattening to numbered ANF.

/// A flattened operand: a parameter, a free variable (by first
/// appearance), or the value of the `k`-th flattened statement.
#[derive(Debug, Clone, Copy)]
enum Ref {
    Param(usize),
    Free(usize),
    Stmt(usize),
}

/// A flattened statement. Named operands (call arguments, record fields)
/// live in [`Flat::named`].
#[derive(Debug)]
enum Op<'p> {
    Call(&'p str, Range<usize>),
    Proj(&'p str, Ref),
    Record(Range<usize>),
    Ret(Ref),
    Bind(Ref),
    Guard(Ref, Ref),
}

#[derive(Debug, Default)]
struct Flat<'p> {
    stmts: Vec<Op<'p>>,
    named: Vec<(&'p str, Ref)>,
    pending: Vec<(&'p str, Ref)>,
    /// Distinct free names, by first appearance.
    free: Vec<&'p str>,
}

impl<'p> Flat<'p> {
    fn emit(&mut self, op: Op<'p>) -> Ref {
        self.stmts.push(op);
        Ref::Stmt(self.stmts.len() - 1)
    }

    /// Flattens named operands into one range of [`Flat::named`], in
    /// source order.
    fn named(
        &mut self,
        items: &'p [(String, Expr)],
        scope: &mut Vec<(&'p str, Ref)>,
    ) -> Range<usize> {
        // A nested operand flattens (and claims its own range) before
        // this one's range is laid down, so stage the refs on a stack.
        let base = self.pending.len();
        for (name, value) in items {
            let r = self.expr(value, scope);
            self.pending.push((name, r));
        }
        let start = self.named.len();
        self.named.extend(self.pending.drain(base..));
        start..self.named.len()
    }

    /// Flattens `e`, returning the operand holding its value.
    fn expr(&mut self, e: &'p Expr, scope: &mut Vec<(&'p str, Ref)>) -> Ref {
        match e {
            Expr::Var(x) => match scope.iter().rev().find(|(name, _)| name == x) {
                Some(&(_, r)) => r,
                None => match self.free.iter().position(|f| f == x) {
                    Some(j) => Ref::Free(j),
                    None => {
                        self.free.push(x);
                        Ref::Free(self.free.len() - 1)
                    }
                },
            },
            Expr::Proj(base, label) => {
                let b = self.expr(base, scope);
                self.emit(Op::Proj(label, b))
            }
            Expr::Call(method, args) => {
                let args = self.named(args, scope);
                self.emit(Op::Call(method, args))
            }
            Expr::Record(fields) => {
                let fields = self.named(fields, scope);
                self.emit(Op::Record(fields))
            }
            Expr::Return(inner) => {
                let v = self.expr(inner, scope);
                self.emit(Op::Ret(v))
            }
            Expr::Let(x, rhs, body) => {
                let v = self.expr(rhs, scope);
                scope.push((x, v));
                let r = self.expr(body, scope);
                scope.pop();
                r
            }
            Expr::Bind(x, rhs, body) => {
                let src = self.expr(rhs, scope);
                let dst = self.emit(Op::Bind(src));
                scope.push((x, dst));
                let r = self.expr(body, scope);
                scope.pop();
                r
            }
            Expr::Guard(lhs, rhs, body) => {
                let l = self.expr(lhs, scope);
                let r = self.expr(rhs, scope);
                self.emit(Op::Guard(l, r));
                self.expr(body, scope)
            }
        }
    }

    // -----------------------------------------------------------------------
    // Phase 2 + 3: canonical scheduling and renaming.

    /// Greedily schedules the ready statement with the least (key,
    /// position), numbering each bound variable as it is scheduled.
    fn schedule(self, n_params: usize, result: Ref) -> AnfProgram {
        let mut free = self.free.clone();
        free.sort_unstable();
        let free_num: Vec<usize> = self
            .free
            .iter()
            .map(|f| n_params + free.binary_search(f).expect("a collected name"))
            .collect();
        let mut sched = Scheduler {
            flat: &self,
            free_num,
            slots: vec![Slot::default(); self.stmts.len()],
            operands: Vec::new(),
        };
        let mut next = n_params + free.len();
        let mut out: Vec<AnfStmt> = Vec::with_capacity(self.stmts.len());
        for _ in 0..self.stmts.len() {
            let mut best: Option<usize> = None;
            for k in 0..self.stmts.len() {
                if sched.slots[k].done || !sched.ready(k) {
                    continue;
                }
                if best.is_none_or(|b| sched.cmp_keys(k, b) == Ordering::Less) {
                    best = Some(k);
                }
            }
            // Operands only name parameters, free leaves and earlier
            // statements, so the first unscheduled statement is ready.
            let k = best.expect("an unscheduled statement is always ready");
            out.push(sched.emit(k, &mut next));
        }
        let result = sched.num(result).expect("every statement is scheduled");
        AnfProgram {
            n_params,
            free: free.into_iter().map(str::to_string).collect(),
            stmts: out,
            result,
        }
    }
}

/// A statement's scheduling key: `(kind, head, operands)`, with the
/// operands (sorted) in [`Scheduler::operands`]. Keys compare
/// lexicographically, operands as `(name, canonical number)` pairs.
#[derive(Debug, Clone)]
struct Key<'p> {
    kind: u8,
    head: &'p str,
    operands: Range<usize>,
}

/// Scheduling state of one flattened statement.
#[derive(Debug, Clone, Default)]
struct Slot<'p> {
    /// The key, computed once when the operands are all numbered.
    key: Option<Key<'p>>,
    /// The canonical number of the value, once scheduled.
    num: Option<usize>,
    done: bool,
}

struct Scheduler<'f, 'p> {
    flat: &'f Flat<'p>,
    /// Canonical number of each free variable, by first appearance.
    free_num: Vec<usize>,
    slots: Vec<Slot<'p>>,
    /// The keys' sorted operands.
    operands: Vec<(&'p str, usize)>,
}

impl<'p> Scheduler<'_, 'p> {
    fn num(&self, r: Ref) -> Option<usize> {
        match r {
            Ref::Param(i) => Some(i),
            Ref::Free(j) => Some(self.free_num[j]),
            Ref::Stmt(k) => self.slots[k].num,
        }
    }

    /// Whether statement `k`'s operands are all numbered. The first time
    /// they are, this computes its key.
    fn ready(&mut self, k: usize) -> bool {
        if self.slots[k].key.is_some() {
            return true;
        }
        let start = self.operands.len();
        let (kind, head) = match self.flat.stmts[k] {
            Op::Call(method, ref args) => {
                if !self.push_named(args.clone()) {
                    return false;
                }
                (0, method)
            }
            Op::Proj(label, base) => {
                if !self.push_unary(base) {
                    return false;
                }
                (1, label)
            }
            Op::Record(ref fields) => {
                if !self.push_named(fields.clone()) {
                    return false;
                }
                (2, "")
            }
            Op::Ret(val) => {
                if !self.push_unary(val) {
                    return false;
                }
                (3, "")
            }
            Op::Bind(src) => {
                if !self.push_unary(src) {
                    return false;
                }
                (4, "")
            }
            Op::Guard(lhs, rhs) => {
                let (Some(a), Some(b)) = (self.num(lhs), self.num(rhs)) else {
                    return false;
                };
                self.operands.extend([("", a.min(b)), ("", a.max(b))]);
                (5, "")
            }
        };
        self.slots[k].key = Some(Key { kind, head, operands: start..self.operands.len() });
        true
    }

    fn push_unary(&mut self, r: Ref) -> bool {
        let Some(n) = self.num(r) else { return false };
        self.operands.push(("", n));
        true
    }

    /// Pushes named operands sorted by (name, number), or nothing when
    /// one is not numbered yet.
    fn push_named(&mut self, range: Range<usize>) -> bool {
        let start = self.operands.len();
        for &(name, r) in &self.flat.named[range] {
            let Some(n) = self.num(r) else {
                self.operands.truncate(start);
                return false;
            };
            self.operands.push((name, n));
        }
        self.operands[start..].sort_unstable();
        true
    }

    /// Orders two ready statements by (key, position).
    fn cmp_keys(&self, a: usize, b: usize) -> Ordering {
        let (Some(ka), Some(kb)) = (&self.slots[a].key, &self.slots[b].key) else {
            unreachable!("only ready statements are compared");
        };
        ka.kind
            .cmp(&kb.kind)
            .then_with(|| ka.head.cmp(kb.head))
            .then_with(|| {
                self.operands[ka.operands.clone()].cmp(&self.operands[kb.operands.clone()])
            })
            .then(a.cmp(&b))
    }

    /// Schedules ready statement `k`: numbers its value (if it binds one)
    /// and returns its canonical statement.
    fn emit(&mut self, k: usize, next: &mut usize) -> AnfStmt {
        let slot = &mut self.slots[k];
        slot.done = true;
        let Some(key) = &slot.key else {
            unreachable!("only ready statements are scheduled");
        };
        let operands = &self.operands[key.operands.clone()];
        let owned = || -> Vec<(String, usize)> {
            operands.iter().map(|&(name, n)| (name.to_string(), n)).collect()
        };
        let dst = *next;
        let stmt = match self.flat.stmts[k] {
            Op::Guard(..) => {
                return AnfStmt::Guard { lhs: operands[0].1, rhs: operands[1].1 };
            }
            Op::Call(method, _) => AnfStmt::Call { dst, method: method.to_string(), args: owned() },
            Op::Proj(label, _) => AnfStmt::Proj { dst, base: operands[0].1, label: label.to_string() },
            Op::Record(_) => AnfStmt::Record { dst, fields: owned() },
            Op::Ret(_) => AnfStmt::Ret { dst, val: operands[0].1 },
            Op::Bind(_) => AnfStmt::Bind { dst, src: operands[0].1 },
        };
        *next += 1;
        self.slots[k].num = Some(dst);
        stmt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    /// Fig. 2 (compact form) vs Fig. 11-right (fully let-bound lifted form):
    /// the same program written two ways must canonicalize identically.
    #[test]
    fn fig2_matches_fig11_lifted_form() {
        let fig2 = parse_program(
            r"\channel_name → {
                c ← c_list()
                if c.name = channel_name
                uid ← c_members(channel=c.id)
                let u = u_info(user=uid)
                return u.profile.email
            }",
        )
        .unwrap();
        let fig11 = parse_program(
            r"\channel_name → {
                let x1 = c_list()
                x1' ← x1
                let x2 = x1'.name
                if x2 = channel_name
                let x3 = x1'.id
                let x4 = c_members(channel=x3)
                x4' ← x4
                let x5 = u_info(user=x4')
                let x6 = x5.profile
                let x7 = x6.email
                let x7' = return x7
                x7'
            }",
        )
        .unwrap();
        assert!(alpha_eq(&fig2, &fig11));
    }

    #[test]
    fn renaming_is_ignored() {
        let a = parse_program(r"\u → { let x = f(user=u) return x.id }").unwrap();
        let b = parse_program(r"\v → { let y = f(user=v) return y.id }").unwrap();
        assert!(alpha_eq(&a, &b));
    }

    #[test]
    fn different_methods_differ() {
        let a = parse_program(r"\u → { let x = f(user=u) return x.id }").unwrap();
        let b = parse_program(r"\u → { let x = g(user=u) return x.id }").unwrap();
        assert!(!alpha_eq(&a, &b));
    }

    #[test]
    fn different_dataflow_differs() {
        // Projecting name-vs-id out of the same call.
        let a = parse_program(r"\ → { let x = f() return x.name }").unwrap();
        let b = parse_program(r"\ → { let x = f() return x.id }").unwrap();
        assert!(!alpha_eq(&a, &b));
    }

    #[test]
    fn guard_orientation_is_symmetric() {
        let a = parse_program(r"\n → { x ← f() if x.name = n return x }").unwrap();
        let b = parse_program(r"\n → { x ← f() if n = x.name return x }").unwrap();
        assert!(alpha_eq(&a, &b));
    }

    #[test]
    fn independent_statement_order_is_ignored() {
        let a = parse_program(
            r"\u c → { let x = f(user=u) let y = g(chan=c) let z = h(a=x.id, b=y.id) return z }",
        )
        .unwrap();
        let b = parse_program(
            r"\u c → { let y = g(chan=c) let x = f(user=u) let z = h(b=y.id, a=x.id) return z }",
        )
        .unwrap();
        assert!(alpha_eq(&a, &b));
    }

    #[test]
    fn param_order_matters() {
        let a = parse_program(r"\u c → { let z = h(a=u, b=c) return z }").unwrap();
        let b = parse_program(r"\c u → { let z = h(a=u, b=c) return z }").unwrap();
        assert!(!alpha_eq(&a, &b));
    }

    #[test]
    fn alias_lets_are_transparent() {
        let a = parse_program(r"\u → { let v = u let x = f(user=v) return x }").unwrap();
        let b = parse_program(r"\u → { let x = f(user=u) return x }").unwrap();
        assert!(alpha_eq(&a, &b));
    }

    #[test]
    fn bind_vs_let_differ() {
        let a = parse_program(r"\u → { x ← f(user=u) return x }").unwrap();
        let b = parse_program(r"\u → { let x = f(user=u) return x }").unwrap();
        assert!(!alpha_eq(&a, &b));
    }

    /// A free variable used as an operand used to leave its statement
    /// never ready ("dependency cycle"); it is now a leaf of its own.
    #[test]
    fn free_operands_canonicalize() {
        let p = parse_program(r"\ → { let x = f(user=u) return x }").unwrap();
        let c = canonicalize(&p);
        assert_eq!(c.free, vec!["u".to_string()]);
        assert_eq!(
            c.stmts,
            vec![
                AnfStmt::Call { dst: 1, method: "f".into(), args: vec![("user".into(), 0)] },
                AnfStmt::Ret { dst: 2, val: 1 },
            ]
        );
        assert_eq!(c.result, 2);
    }

    #[test]
    fn equal_free_names_match() {
        let a = parse_program(r"\ → { let x = f(user=u) let y = g(a=u, b=x) return y }").unwrap();
        let b = parse_program(r"\ → { let q = f(user=u) let r = g(b=q, a=u) return r }").unwrap();
        assert!(alpha_eq(&a, &b));
        // Free leaves are numbered by name, not by first use.
        let c = parse_program(r"\ → { let x = f(a=v, b=u) return x }").unwrap();
        let d = parse_program(r"\ → { let x = f(b=u, a=v) return x }").unwrap();
        assert!(alpha_eq(&c, &d));
    }

    /// Two different free results used to share one "never equal"
    /// sentinel, and compared equal.
    #[test]
    fn different_free_names_differ() {
        let u = parse_program(r"\ → { u }").unwrap();
        let v = parse_program(r"\ → { v }").unwrap();
        assert!(!alpha_eq(&u, &v));
        assert!(alpha_eq(&u, &parse_program(r"\ → { u }").unwrap()));
        let a = parse_program(r"\ → { let x = f(user=u) return x }").unwrap();
        let b = parse_program(r"\ → { let x = f(user=w) return x }").unwrap();
        assert!(!alpha_eq(&a, &b));
        // A free name never matches a parameter of the same name.
        let c = parse_program(r"\u → { let x = f(user=u) return x }").unwrap();
        assert!(!alpha_eq(&a, &c));
        // Each name is its own leaf.
        let d = parse_program(r"\ → { let x = f(a=u, b=v) return x }").unwrap();
        let e = parse_program(r"\ → { let x = f(a=v, b=u) return x }").unwrap();
        assert!(!alpha_eq(&d, &e));
    }

    #[test]
    fn closed_programs_have_no_free_leaves() {
        let p = parse_program(r"\u → { let x = f(user=u) return x.id }").unwrap();
        let c = canonicalize(&p);
        assert!(c.free.is_empty());
        assert_eq!(c.n_params, 1);
        assert_eq!(c.result, 3);
    }

    #[test]
    fn record_field_order_is_ignored() {
        let a = parse_program(r"\u v → { let r = {a=u, b=v} return r }").unwrap();
        let b = parse_program(r"\u v → { let r = {b=v, a=u} return r }").unwrap();
        assert!(alpha_eq(&a, &b));
    }
}
