//! Lifting array-oblivious programs into well-typed `λ_A` programs
//! (paper §5 "Lifting array-oblivious programs", Appendix B.3, Fig. 18).
//!
//! Lifting type-checks the ANF program "line by line"; whenever it
//! encounters a mismatch between an actual type `[..[t̂]..]` and an
//! expected type `t̂` it inserts monadic bindings (`x' ← x`, rule
//! L-Var-Down), reusing the *mapping variable* `x'` on later uses of `x`
//! (L-Var-Repeat); the opposite mismatch inserts `return` (L-Var-Up).
//!
//! Lifting tracks variables by number and types by reference (a count of
//! array layers around a type borrowed from the query or the library),
//! and borrows method signatures. Names are printed once per variable,
//! into the [`Program`] it returns.

use std::borrow::Cow;
use std::fmt;

use apiphany_lang::{Expr, Program};
use apiphany_mining::{Query, SemLib};
use apiphany_spec::SemTy;

use crate::progs::{AStmt, AnfProg, ArgValue, Var};
use crate::ty::{core, Ty};

/// A lifting failure (the program cannot be made well-typed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiftError {
    /// Description of the mismatch.
    pub message: String,
}

impl fmt::Display for LiftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lift error: {}", self.message)
    }
}

impl std::error::Error for LiftError {}

fn err(message: impl Into<String>) -> LiftError {
    LiftError { message: message.into() }
}

/// The `k`-th inserted variable's name, derived from `base`'s: `x5'1`.
fn fresh_name(k: &mut usize, base: &str) -> Cow<'static, str> {
    *k += 1;
    Cow::Owned(format!("{base}'{k}"))
}

/// One variable of the lifted program.
#[derive(Debug)]
struct Slot<'a> {
    name: Cow<'a, str>,
    /// `Γ(x)`; `None` for a record argument, which is never lifted.
    ty: Option<Ty<'a>>,
    /// The mapping variable `x' :_x t̂'` of L-Var-Down, once created.
    mapped: Option<usize>,
}

/// A lifted statement over slots (binds and guards inserted).
enum LStmt<'p> {
    Let(usize, LExpr<'p>),
    Bind(usize, usize),
    Guard(usize, usize),
}

enum LExpr<'p> {
    Call(&'p str, Vec<(&'p str, usize)>),
    Proj(usize, &'p str),
    Ret(usize),
    Record(Vec<(&'p str, usize)>),
}

/// `Lift(Λ̂, ŝ, E)` (Fig. 10 line 6): lifts an array-oblivious ANF program
/// to a well-typed `λ_A` program of the query type. [`Var::Param`] `i`
/// is the query's `i`-th parameter and [`Var::X`] `n` is printed `xn`;
/// a variable lifting inserts is printed after the one it derives from,
/// as in `x5'1`.
///
/// # Errors
///
/// Returns [`LiftError`] when a type mismatch is not of the array-depth
/// kind.
pub fn lift(semlib: &SemLib, query: &Query, prog: &AnfProg<'_>) -> Result<Program, LiftError> {
    let n_params = query.params.len();
    // Room for every parameter and statement, and as many inserted binds
    // and returns.
    let room = n_params + 2 * prog.stmts.len() + 1;
    let mut l = Lifter {
        semlib,
        n_params,
        slots: Vec::with_capacity(room),
        var_slot: Vec::with_capacity(room),
        out: Vec::with_capacity(room),
        fresh: 0,
    };
    for (i, (name, ty)) in query.params.iter().enumerate() {
        l.slots.push(Slot { name: Cow::Borrowed(name), ty: Some(Ty::of(ty)), mapped: None });
        l.var_slot.push(i);
    }
    for stmt in &prog.stmts {
        l.stmt(stmt)?;
    }
    // The top-level return type is an array type (lifted programs can only
    // return arrays); a scalar query type is array-wrapped here and
    // handled at the ranking stage by preferring singleton results (§5).
    let target = match &query.output {
        t @ SemTy::Array(_) => Ty::of(t),
        t => Ty::of(t).wrapped(),
    };
    let result = l.slot_of(prog.result)?;
    let result = l.lift_var(result, &target)?;
    Ok(Program {
        params: query.params.iter().map(|(n, _)| n.clone()).collect(),
        body: l.into_body(result),
    })
}

struct Lifter<'a, 'p> {
    semlib: &'a SemLib,
    n_params: usize,
    /// `Γ` and the names: the query's parameters first, then the
    /// program's variables and the inserted ones as they appear.
    slots: Vec<Slot<'a>>,
    /// The slot of each program variable: parameter `i` at `i`, `xₙ` at
    /// `n_params + n` (`usize::MAX` while unbound).
    var_slot: Vec<usize>,
    out: Vec<LStmt<'p>>,
    fresh: usize,
}

impl<'a, 'p> Lifter<'a, 'p> {
    fn index_of(&self, v: Var) -> Option<usize> {
        match v {
            Var::Param(i) => (i < self.n_params).then_some(i),
            Var::X(n) => Some(self.n_params + n),
        }
    }

    fn slot_of(&self, v: Var) -> Result<usize, LiftError> {
        match self.index_of(v).and_then(|i| self.var_slot.get(i)) {
            Some(&s) if s != usize::MAX => Ok(s),
            _ => Err(err(format!("unbound variable {}", self.name_of(v)))),
        }
    }

    /// The printed name of a program variable.
    fn name_of(&self, v: Var) -> Cow<'a, str> {
        match v {
            Var::Param(i) if i < self.n_params => self.slots[i].name.clone(),
            Var::Param(i) => Cow::Owned(format!("parameter {i}")),
            Var::X(n) => Cow::Owned(format!("x{n}")),
        }
    }

    fn ty_of(&self, s: usize) -> Result<Ty<'a>, LiftError> {
        let slot = &self.slots[s];
        slot.ty.clone().ok_or_else(|| err(format!("unbound variable {}", slot.name)))
    }

    fn push_slot(&mut self, name: Cow<'a, str>, ty: Option<Ty<'a>>) -> usize {
        self.slots.push(Slot { name, ty, mapped: None });
        self.slots.len() - 1
    }


    /// Binds program variable `dst` to a new slot of type `ty`.
    fn define(&mut self, dst: Var, ty: Ty<'a>) -> Result<usize, LiftError> {
        let Some(index) = self.index_of(dst) else {
            return Err(err(format!("unbound variable {}", self.name_of(dst))));
        };
        let s = self.push_slot(self.name_of(dst), Some(ty));
        if index >= self.var_slot.len() {
            self.var_slot.resize(index + 1, usize::MAX);
        }
        self.var_slot[index] = s;
        Ok(s)
    }

    /// The term-lifting judgment `Γ ⊢ x ↑ t̂ { σ; x' ⊣ Γ'`.
    ///
    /// One refinement over the literal Fig. 18 rules: if a *mapping
    /// variable* `x' :_x t̂'` already exists, the array-oblivious variable
    /// `x` denotes the element being iterated, so every later use of `x`
    /// resolves through `x'` — even when the use-site type happens to
    /// equal `Γ(x)`. This is what makes the lifted form of
    /// `... if x.l = y; x` return the *filtered element* (wrapped by
    /// `return`) rather than the whole array, matching the paper's gold
    /// solutions (e.g. 2.4, 3.9).
    fn lift_var(&mut self, mut x: usize, target: &Ty<'a>) -> Result<usize, LiftError> {
        loop {
            if let Some(x2) = self.slots[x].mapped {
                x = x2;
                continue;
            }
            let tx = self.ty_of(x)?;
            if tx.same(target) {
                return Ok(x); // L-Var
            }
            if tx.core() != target.core() {
                return Err(err(format!(
                    "core type mismatch: {} has {}, expected {}",
                    self.slots[x].name,
                    self.semlib.display_ty(&tx.to_sem()),
                    self.semlib.display_ty(&target.to_sem())
                )));
            }
            let name = fresh_name(&mut self.fresh, &self.slots[x].name);
            x = if tx.depth() > target.depth() {
                // L-Var-Down / L-Var-Repeat: iterate over the array.
                // No mapping variable exists (checked above): create one.
                let elem = tx.elem().unwrap_or_else(|_| unreachable!("depth > 0 implies array"));
                let x2 = self.push_slot(name, Some(elem));
                self.out.push(LStmt::Bind(x2, x));
                self.slots[x].mapped = Some(x2);
                x2
            } else {
                // L-Var-Up: wrap in return.
                let x2 = self.push_slot(name, Some(tx.wrapped()));
                self.out.push(LStmt::Let(x2, LExpr::Ret(x)));
                x2
            };
        }
    }

    /// Field type of a downgraded (object or record) type.
    fn field_ty(&self, ty: &Ty<'a>, label: &str) -> Result<Ty<'a>, LiftError> {
        ty.field(self.semlib, label).map_err(|e| LiftError {
            message: e.unwrap_or_else(|| {
                format!("projection from non-object type {}", self.semlib.display_ty(&ty.to_sem()))
            }),
        })
    }

    fn stmt(&mut self, stmt: &AStmt<'p>) -> Result<(), LiftError> {
        match *stmt {
            // L-Proj: lift the base to its fully downgraded type, then
            // project.
            AStmt::Proj { dst, base, label } => {
                let b = self.slot_of(base)?;
                let base_ty = self.ty_of(b)?.core_ty();
                let b2 = self.lift_var(b, &base_ty)?;
                let fty = self.field_ty(&base_ty, label)?;
                let d = self.define(dst, fty)?;
                self.out.push(LStmt::Let(d, LExpr::Proj(b2, label)));
                Ok(())
            }
            // L-Guard: both operands become scalars.
            AStmt::Guard { lhs, rhs } => {
                let l = self.slot_of(lhs)?;
                let lt = self.ty_of(l)?.core_ty();
                let l2 = self.lift_var(l, &lt)?;
                let r = self.slot_of(rhs)?;
                let rt = self.ty_of(r)?.core_ty();
                let r2 = self.lift_var(r, &rt)?;
                self.out.push(LStmt::Guard(l2, r2));
                Ok(())
            }
            // L-Call: every argument is lifted to its declared type.
            AStmt::Call { dst, method, ref args } => {
                let semlib = self.semlib;
                let sig = semlib
                    .methods
                    .get(method)
                    .ok_or_else(|| err(format!("unknown method {method}")))?;
                let mut lifted_args: Vec<(&'p str, usize)> = Vec::with_capacity(args.len());
                for &(name, ref value) in args {
                    let declared = sig
                        .params
                        .field(name)
                        .map(|f| &f.ty)
                        .ok_or_else(|| err(format!("{method} has no parameter {name}")))?;
                    match value {
                        ArgValue::Var(v) => {
                            let s = self.slot_of(*v)?;
                            lifted_args.push((name, self.lift_var(s, &Ty::of(declared))?));
                        }
                        ArgValue::Record(fields) => {
                            let SemTy::Record(record) = core(declared) else {
                                return Err(err(format!(
                                    "parameter {name} of {method} is {}, not a record",
                                    semlib.display_ty(core(declared))
                                )));
                            };
                            let mut lifted_fields: Vec<(&'p str, usize)> =
                                Vec::with_capacity(fields.len());
                            for &(fname, fvar) in fields {
                                let fdecl = record.field(fname).map(|f| &f.ty).ok_or_else(|| {
                                    err(format!("record parameter has no field {fname}"))
                                })?;
                                let s = self.slot_of(fvar)?;
                                lifted_fields.push((fname, self.lift_var(s, &Ty::of(fdecl))?));
                            }
                            // The record is only ever an argument, so its
                            // variable needs no type.
                            let dst_name = self.name_of(dst);
                            let rec_name = fresh_name(&mut self.fresh, &dst_name);
                            let rec_var = self.push_slot(rec_name, None);
                            self.out.push(LStmt::Let(rec_var, LExpr::Record(lifted_fields)));
                            lifted_args.push((name, rec_var));
                        }
                    }
                }
                let d = self.define(dst, Ty::of(&sig.response))?;
                self.out.push(LStmt::Let(d, LExpr::Call(method, lifted_args)));
                Ok(())
            }
        }
    }

    fn var(&self, s: usize) -> Expr {
        Expr::Var(self.slots[s].name.to_string())
    }

    /// The lifted program's body. Each variable is used only after its
    /// binder, so building from the last statement back, a binder can
    /// take its name.
    fn into_body(mut self, result: usize) -> Expr {
        let mut body = self.var(result);
        for stmt in std::mem::take(&mut self.out).into_iter().rev() {
            body = match stmt {
                LStmt::Let(x, rhs) => {
                    let rhs = self.expr(rhs);
                    Expr::Let(self.take_name(x), Box::new(rhs), Box::new(body))
                }
                LStmt::Bind(x, src) => {
                    let src = self.var(src);
                    Expr::Bind(self.take_name(x), Box::new(src), Box::new(body))
                }
                LStmt::Guard(a, b) => {
                    Expr::Guard(Box::new(self.var(a)), Box::new(self.var(b)), Box::new(body))
                }
            };
        }
        body
    }

    fn take_name(&mut self, s: usize) -> String {
        std::mem::take(&mut self.slots[s].name).into_owned()
    }

    fn expr(&self, e: LExpr<'p>) -> Expr {
        match e {
            LExpr::Call(name, args) => Expr::Call(
                name.to_string(),
                args.into_iter().map(|(k, v)| (k.to_string(), self.var(v))).collect(),
            ),
            LExpr::Proj(base, label) => Expr::Proj(Box::new(self.var(base)), label.to_string()),
            LExpr::Ret(v) => Expr::Return(Box::new(self.var(v))),
            LExpr::Record(fields) => Expr::Record(
                fields.into_iter().map(|(k, v)| (k.to_string(), self.var(v))).collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progs::Var::{Param, X};
    use apiphany_lang::anf::alpha_eq;
    use apiphany_lang::parse_program;
    use apiphany_mining::{mine_types, parse_query, MiningConfig};
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};

    fn semlib() -> SemLib {
        mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default())
    }

    /// The paper's worked example: lifting Fig. 11 (left) yields Fig. 11
    /// (right), which is alpha-equivalent to the Fig. 2 solution.
    #[test]
    fn lifts_fig11_left_to_fig2() {
        let sl = semlib();
        let q = parse_query(&sl, "{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let prog = AnfProg {
            stmts: vec![
                AStmt::Call { dst: X(1), method: "c_list", args: vec![] },
                AStmt::Proj { dst: X(2), base: X(1), label: "name" },
                AStmt::Guard { lhs: X(2), rhs: Param(0) },
                AStmt::Proj { dst: X(3), base: X(1), label: "id" },
                AStmt::Call {
                    dst: X(4),
                    method: "c_members",
                    args: vec![("channel", ArgValue::Var(X(3)))],
                },
                AStmt::Call {
                    dst: X(5),
                    method: "u_info",
                    args: vec![("user", ArgValue::Var(X(4)))],
                },
                AStmt::Proj { dst: X(6), base: X(5), label: "profile" },
                AStmt::Proj { dst: X(7), base: X(6), label: "email" },
            ],
            result: X(7),
        };
        let lifted = lift(&sl, &q, &prog).unwrap();
        // Inserted variables are named after the variable they derive
        // from, numbered in insertion order.
        assert_eq!(
            lifted.to_string(),
            "\\channel_name → {\n  let x1 = c_list()\n  x1'1 ← x1\n  let x2 = x1'1.name\n  \
             if x2 = channel_name\n  let x3 = x1'1.id\n  let x4 = c_members(channel=x3)\n  \
             x4'2 ← x4\n  let x5 = u_info(user=x4'2)\n  let x6 = x5.profile\n  \
             let x7 = x6.email\n  let x7'3 = return x7\n  x7'3\n}"
        );
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
        assert!(
            alpha_eq(&lifted, &fig2),
            "lifted:\n{lifted}\nexpected (Fig. 2):\n{fig2}"
        );
    }

    /// Mapping variables are reused (L-Var-Repeat): both `name` and `id`
    /// projections of the channel array use the same iteration variable.
    #[test]
    fn mapping_variables_are_reused() {
        let sl = semlib();
        let q = parse_query(&sl, "{ channel_name: Channel.name } → [Channel.id]").unwrap();
        let prog = AnfProg {
            stmts: vec![
                AStmt::Call { dst: X(1), method: "c_list", args: vec![] },
                AStmt::Proj { dst: X(2), base: X(1), label: "name" },
                AStmt::Guard { lhs: X(2), rhs: Param(0) },
                AStmt::Proj { dst: X(3), base: X(1), label: "id" },
            ],
            result: X(3),
        };
        let lifted = lift(&sl, &q, &prog).unwrap();
        // Exactly one monadic binding over x1 despite two projections.
        let text = lifted.to_string();
        assert_eq!(text.matches('←').count(), 1, "{text}");
    }

    /// L-Var-Up: a scalar result is wrapped in `return`.
    #[test]
    fn scalar_results_get_returned() {
        let sl = semlib();
        let q = parse_query(&sl, "{ uid: User.id } → User.name").unwrap();
        let prog = AnfProg {
            stmts: vec![
                AStmt::Call {
                    dst: X(1),
                    method: "u_info",
                    args: vec![("user", ArgValue::Var(Param(0)))],
                },
                AStmt::Proj { dst: X(2), base: X(1), label: "name" },
            ],
            result: X(2),
        };
        let lifted = lift(&sl, &q, &prog).unwrap();
        assert!(lifted.to_string().contains("return x2"), "{lifted}");
    }

    #[test]
    fn rejects_core_mismatch() {
        let sl = semlib();
        let q = parse_query(&sl, "{ uid: User.id } → User.name").unwrap();
        let prog = AnfProg {
            stmts: vec![AStmt::Call {
                dst: X(1),
                method: "c_members",
                args: vec![("channel", ArgValue::Var(Param(0)))],
            }],
            result: X(1),
        };
        assert!(lift(&sl, &q, &prog).is_err());
    }
}
