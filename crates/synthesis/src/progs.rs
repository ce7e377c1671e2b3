//! `Progs(π)` (paper Fig. 10 line 5, Appendix B.3): convert a TTN path
//! into the set of array-oblivious ANF programs it denotes.
//!
//! A path fixes the *sequence* of operations but not which variable feeds
//! which argument: "the TTN does not distinguish different arguments of the
//! same type, and hence we must try all their combinations". We replay the
//! path over a pool of *tokens*, each carrying the variable that produced
//! it, and enumerate all injective assignments of tokens to the consuming
//! slots of every firing.
//!
//! The replay formats no names and clones no strings. Variables are
//! numbered ([`Var`]), statements borrow method names, labels and
//! argument names from the net, and every emitted program is a view of
//! the one statement stack the replay grows and shrinks. [`crate::lift`]
//! prints the names.

use apiphany_ttn::{Firing, ParamSpec, PlaceId, TransKind, Ttn};

/// A variable of an array-oblivious program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Var {
    /// The query's `i`-th parameter.
    Param(usize),
    /// `xₙ`: the value of the path's `n`-th binding statement (from 0).
    X(usize),
}

/// An argument value in an ANF call: a variable or a record literal of
/// variables (for record-typed parameters flattened into the net).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgValue<'a> {
    /// A plain variable.
    Var(Var),
    /// A record literal `{field = var, ...}`.
    Record(Vec<(&'a str, Var)>),
}

/// One array-oblivious ANF statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AStmt<'a> {
    /// `let dst = method(name = arg, ...)`.
    Call {
        /// Bound variable.
        dst: Var,
        /// Method name.
        method: &'a str,
        /// Named arguments.
        args: Vec<(&'a str, ArgValue<'a>)>,
    },
    /// `let dst = base.label`.
    Proj {
        /// Bound variable.
        dst: Var,
        /// Base variable.
        base: Var,
        /// Field label.
        label: &'a str,
    },
    /// `if lhs = rhs`.
    Guard {
        /// Left operand.
        lhs: Var,
        /// Right operand.
        rhs: Var,
    },
}

/// An array-oblivious ANF program: statements plus the result variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnfProg<'a> {
    /// The statements, in order.
    pub stmts: Vec<AStmt<'a>>,
    /// The variable whose value the program returns.
    pub result: Var,
}

#[derive(Debug, Clone, Copy)]
struct Token {
    place: PlaceId,
    var: Var,
}

/// Enumerates the ANF programs of one path. `params` are the query's
/// parameters, in order, with their (downgraded) places; the programs
/// name them [`Var::Param`] by position. At most `cap` programs are
/// emitted; `emit` returns `false` to stop early.
///
/// Returns `false` if `emit` stopped the enumeration.
pub fn enumerate_programs<'n>(
    net: &'n Ttn,
    path: &[Firing],
    params: &[(String, PlaceId)],
    cap: usize,
    emit: &mut dyn FnMut(&AnfProg<'n>) -> bool,
) -> bool {
    let mut replay = Replay {
        net,
        path,
        tokens: params
            .iter()
            .enumerate()
            .map(|(i, &(_, place))| Token { place, var: Var::Param(i) })
            .collect(),
        removed: Vec::new(),
        prog: AnfProg { stmts: Vec::new(), result: Var::Param(0) },
        budget: cap,
        emit,
    };
    replay.step(0, 0)
}

/// The replay state of one path.
struct Replay<'n, 'e> {
    net: &'n Ttn,
    path: &'e [Firing],
    tokens: Vec<Token>,
    /// Tokens a call consumed, with their positions, until it is undone.
    removed: Vec<(usize, Token)>,
    /// The statements so far; the result is set when a program is emitted.
    prog: AnfProg<'n>,
    budget: usize,
    emit: &'e mut dyn FnMut(&AnfProg<'n>) -> bool,
}

impl<'n> Replay<'n, '_> {
    /// Whether token `i` is at `place` and no earlier token there carries
    /// the same variable (choices differing only in such a token denote
    /// the same program).
    fn first_at(&self, i: usize, place: PlaceId) -> bool {
        let t = self.tokens[i];
        t.place == place && !self.tokens[..i].iter().any(|u| u.place == place && u.var == t.var)
    }

    /// Replays firing `idx` onwards, binding `x{next}` next; returns
    /// `false` to abort the whole enumeration.
    fn step(&mut self, idx: usize, next: usize) -> bool {
        if self.budget == 0 {
            return true;
        }
        if idx == self.path.len() {
            // A valid path's final marking holds exactly one token (the
            // program result); anything else is a caller error — skip quietly.
            if self.tokens.len() != 1 {
                return true;
            }
            self.prog.result = self.tokens[0].var;
            self.budget -= 1;
            return (self.emit)(&self.prog);
        }
        let net = self.net;
        let firing = &self.path[idx];
        let trans = net.transition(firing.trans);
        match &trans.kind {
            TransKind::Copy { place } => {
                // Choose which token to duplicate (distinct variables only).
                for i in 0..self.tokens.len() {
                    if !self.first_at(i, *place) {
                        continue;
                    }
                    self.tokens.push(self.tokens[i]);
                    let ok = self.step(idx + 1, next);
                    self.tokens.pop();
                    if !ok {
                        return false;
                    }
                }
                true
            }
            TransKind::Proj { base, label } => {
                let out_place = trans.outputs[0].0;
                for i in 0..self.tokens.len() {
                    if !self.first_at(i, *base) {
                        continue;
                    }
                    let dst = Var::X(next);
                    let removed = self.tokens.remove(i);
                    self.tokens.push(Token { place: out_place, var: dst });
                    self.prog.stmts.push(AStmt::Proj { dst, base: removed.var, label });
                    let ok = self.step(idx + 1, next + 1);
                    self.prog.stmts.pop();
                    self.tokens.pop();
                    self.tokens.insert(i, removed);
                    if !ok {
                        return false;
                    }
                }
                true
            }
            TransKind::Filter { base, path: proj_path } => {
                let key_place = trans
                    .inputs
                    .iter()
                    .find(|&&(p, _)| p != *base)
                    .map(|&(p, _)| p)
                    .unwrap_or(*base);
                // Choose the base token and the key token (distinct indices).
                let mut tried: Vec<(Var, Var)> = Vec::new();
                for bi in 0..self.tokens.len() {
                    if self.tokens[bi].place != *base {
                        continue;
                    }
                    for ki in 0..self.tokens.len() {
                        if ki == bi || self.tokens[ki].place != key_place {
                            continue;
                        }
                        let pair = (self.tokens[bi].var, self.tokens[ki].var);
                        if tried.contains(&pair) {
                            continue;
                        }
                        tried.push(pair);
                        let (base_var, key_var) = pair;
                        // Remove key and base (higher index first), keep base's
                        // variable alive on the produced token.
                        let (hi, lo) = if bi > ki { (bi, ki) } else { (ki, bi) };
                        let t_hi = self.tokens.remove(hi);
                        let t_lo = self.tokens.remove(lo);
                        self.tokens.push(Token { place: *base, var: base_var });
                        // Expand filter into projection steps plus the guard.
                        let mut fresh = next;
                        let mut cur = base_var;
                        let n_stmts_before = self.prog.stmts.len();
                        for label in proj_path {
                            let dst = Var::X(fresh);
                            fresh += 1;
                            self.prog.stmts.push(AStmt::Proj { dst, base: cur, label });
                            cur = dst;
                        }
                        self.prog.stmts.push(AStmt::Guard { lhs: cur, rhs: key_var });
                        let ok = self.step(idx + 1, fresh);
                        self.prog.stmts.truncate(n_stmts_before);
                        self.tokens.pop();
                        self.tokens.insert(lo, t_lo);
                        self.tokens.insert(hi, t_hi);
                        if !ok {
                            return false;
                        }
                    }
                }
                true
            }
            TransKind::Method(name) => {
                // Build the slot list: required params plus the chosen optional
                // params (per-place counts from the firing).
                let required: Vec<&'n ParamSpec> =
                    trans.params.iter().filter(|p| !p.optional).collect();
                let mut optional_choices: Vec<Vec<&'n ParamSpec>> = vec![Vec::new()];
                for (oi, &(place, _)) in trans.optionals.iter().enumerate() {
                    let count = firing.optional_taken.get(oi).copied().unwrap_or(0) as usize;
                    if count == 0 {
                        continue;
                    }
                    let pool: Vec<&'n ParamSpec> = trans
                        .params
                        .iter()
                        .filter(|p| p.optional && p.place == place)
                        .collect();
                    let combos = combinations(&pool, count);
                    let mut extended = Vec::new();
                    for prefix in &optional_choices {
                        for combo in &combos {
                            let mut v = prefix.clone();
                            v.extend(combo.iter().copied());
                            extended.push(v);
                        }
                    }
                    optional_choices = extended;
                }
                let out_place = trans.outputs[0].0;
                let mut assignment: Vec<usize> = Vec::new();
                for opt_slots in &optional_choices {
                    let mut slots: Vec<&'n ParamSpec> = required.clone();
                    slots.extend(opt_slots.iter().copied());
                    if !self.assign_slots(idx, next, name, &slots, &mut assignment, out_place) {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Enumerates injective token assignments for the call's slots, then
    /// emits the call statement and recurses.
    fn assign_slots(
        &mut self,
        idx: usize,
        next: usize,
        method: &'n str,
        slots: &[&'n ParamSpec],
        assignment: &mut Vec<usize>,
        out_place: PlaceId,
    ) -> bool {
        if assignment.len() == slots.len() {
            // All slots assigned: build the call.
            let dst = Var::X(next);
            let mut args: Vec<(&'n str, ArgValue<'n>)> = Vec::with_capacity(slots.len());
            for (&spec, &i) in slots.iter().zip(assignment.iter()) {
                let var = self.tokens[i].var;
                match &spec.record_field {
                    None => args.push((&spec.arg_name, ArgValue::Var(var))),
                    Some(field) => {
                        // Accumulate record fields under one argument name.
                        if let Some((_, ArgValue::Record(fields))) =
                            args.iter_mut().find(|(n, v)| {
                                *n == spec.arg_name && matches!(v, ArgValue::Record(_))
                            })
                        {
                            fields.push((field, var));
                        } else {
                            args.push((&spec.arg_name, ArgValue::Record(vec![(field, var)])));
                        }
                    }
                }
            }
            // Remove consumed tokens (largest index first), produce the result.
            let mark = self.removed.len();
            for i in (0..self.tokens.len()).rev() {
                if assignment.contains(&i) {
                    let t = self.tokens.remove(i);
                    self.removed.push((i, t));
                }
            }
            self.tokens.push(Token { place: out_place, var: dst });
            self.prog.stmts.push(AStmt::Call { dst, method, args });
            let ok = self.step(idx + 1, next + 1);
            self.prog.stmts.pop();
            self.tokens.pop();
            while self.removed.len() > mark {
                let (i, t) = self.removed.pop().expect("above the mark");
                self.tokens.insert(i, t);
            }
            return ok;
        }
        let spec = slots[assignment.len()];
        for i in 0..self.tokens.len() {
            let t = self.tokens[i];
            if t.place != spec.place || assignment.contains(&i) {
                continue;
            }
            // Skip a variable an earlier free token already offered.
            if (0..i).any(|j| {
                let u = self.tokens[j];
                u.place == spec.place && u.var == t.var && !assignment.contains(&j)
            }) {
                continue;
            }
            assignment.push(i);
            let ok = self.assign_slots(idx, next, method, slots, assignment, out_place);
            assignment.pop();
            if !ok {
                return false;
            }
        }
        true
    }
}

/// All `k`-element combinations of a slice (preserving order).
fn combinations<'a, T>(pool: &[&'a T], k: usize) -> Vec<Vec<&'a T>> {
    if k == 0 {
        return vec![Vec::new()];
    }
    if pool.len() < k {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, first) in pool.iter().enumerate() {
        for mut rest in combinations(&pool[i + 1..], k - 1) {
            rest.insert(0, *first);
            out.push(rest);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiphany_mining::{mine_types, parse_query, MiningConfig};
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
    use apiphany_ttn::{build_ttn, enumerate_paths, query_markings, BuildOptions, SearchConfig};

    /// End-to-end on the running example: the bold path of Fig. 9 yields
    /// exactly the array-oblivious program of Fig. 11 (left).
    #[test]
    fn bold_path_yields_fig11_left() {
        let sl = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default());
        let net = build_ttn(&sl, &BuildOptions::default());
        let q = parse_query(&sl, "{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let (init, fin) = query_markings(&net, &q).unwrap();
        let params: Vec<(String, PlaceId)> = q
            .params
            .iter()
            .map(|(n, t)| (n.clone(), net.place_of(t).unwrap()))
            .collect();

        let mut programs: Vec<AnfProg> = Vec::new();
        let cfg = SearchConfig { max_len: 7, ..SearchConfig::default() };
        enumerate_paths(&net, &init, &fin, &cfg, &mut |path| {
            if path.len() == 7 {
                enumerate_programs(&net, path, &params, 16, &mut |p| {
                    programs.push(p.clone());
                    true
                });
            }
            true
        });
        assert_eq!(programs.len(), 1, "the length-7 path denotes one program");
        let p = &programs[0];
        let name = |v: &Var| match *v {
            Var::Param(i) => params[i].0.clone(),
            Var::X(n) => format!("x{n}"),
        };
        let rendered: Vec<String> = p
            .stmts
            .iter()
            .map(|s| match s {
                AStmt::Call { dst, method, .. } => format!("{}={method}(..)", name(dst)),
                AStmt::Proj { dst, base, label } => {
                    format!("{}={}.{label}", name(dst), name(base))
                }
                AStmt::Guard { lhs, rhs } => format!("if {}={}", name(lhs), name(rhs)),
            })
            .collect();
        assert_eq!(
            rendered,
            vec![
                "x0=c_list(..)",
                "x1=x0.name",
                "if x1=channel_name",
                "x2=x0.id",
                "x3=c_members(..)",
                "x4=u_info(..)",
                "x5=x4.profile",
                "x6=x5.email",
            ]
        );
        assert_eq!(p.result, Var::X(6));
    }

    #[test]
    fn copy_paths_reuse_variables() {
        // copy(Channel); proj name; filter by name; proj id — a valid path
        // whose two Channel tokens must carry the same variable.
        let sl = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default());
        let net = build_ttn(&sl, &BuildOptions::default());
        let chan = net.place_of(&apiphany_spec::SemTy::object("Channel")).unwrap();
        let find = |pred: &dyn Fn(&apiphany_ttn::Transition) -> bool| {
            net.transitions().find(|(_, t)| pred(t)).map(|(id, _)| id).unwrap()
        };
        let copy_id = find(&|t| t.kind == TransKind::Copy { place: chan });
        let proj_name = find(&|t| {
            matches!(&t.kind, TransKind::Proj { base, label } if *base == chan && label == "name")
        });
        let proj_id = find(&|t| {
            matches!(&t.kind, TransKind::Proj { base, label } if *base == chan && label == "id")
        });
        let filter_name = find(&|t| {
            matches!(&t.kind, TransKind::Filter { base, path } if *base == chan && path == &vec!["name".to_string()])
        });
        let path = vec![
            apiphany_ttn::Firing::plain(copy_id),
            apiphany_ttn::Firing::plain(proj_name),
            apiphany_ttn::Firing::plain(filter_name),
            apiphany_ttn::Firing::plain(proj_id),
        ];
        let params = vec![("c".to_string(), chan)];
        let mut seen = 0;
        enumerate_programs(&net, &path, &params, 16, &mut |p| {
            seen += 1;
            for s in &p.stmts {
                if let AStmt::Proj { base, .. } = s {
                    assert_eq!(*base, Var::Param(0), "all projections start from the copied var");
                }
            }
            true
        });
        assert!(seen >= 1);
    }

    #[test]
    fn combinations_enumerate() {
        let a = 1;
        let b = 2;
        let c = 3;
        let pool: Vec<&i32> = vec![&a, &b, &c];
        assert_eq!(combinations(&pool, 2).len(), 3);
        assert_eq!(combinations(&pool, 0).len(), 1);
        assert_eq!(combinations(&pool, 4).len(), 0);
    }
}
