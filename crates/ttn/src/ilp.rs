//! The ILP encoding of TTN reachability (paper Appendix B.2) and a small
//! bounded-integer branch-and-bound solver to enumerate its solutions.
//!
//! The paper replaces the SAT/SMT encodings of prior work with an ILP
//! because it "has native support for enumerating multiple solutions"; it
//! uses Gurobi. This reproduction substitutes a self-contained solver:
//! interval (bounds) propagation plus depth-first branching over the `fire`
//! variables, streaming every solution.
//!
//! The synthesizer searches with the DFS of `crate::search`; this
//! encoding is its independent oracle. [`enumerate_ilp_paths`] solves one
//! path length at a time, and the differential tests compare its paths
//! with the DFS's.
//!
//! One deviation from the paper's text, documented in DESIGN.md: constraint
//! (2) as printed ranges over *every* transition, which (taken literally)
//! freezes any place touched by an unfired transition. We use the intended
//! sum form — exact under constraint (3) ("exactly one transition fires per
//! step"):
//!
//! ```text
//! tok[k+1][p] ≥ tok[k][p] − Σ_τ (E(p,τ)+O(p,τ)−E(τ,p))·fire[k][τ]
//! tok[k+1][p] ≤ tok[k][p] − Σ_τ (E(p,τ)−E(τ,p))·fire[k][τ]
//! ```
//!
//! The optional-argument relaxation is kept (consumption anywhere between
//! `E` and `E+O`), including its documented unsoundness; solutions are
//! *concretized* by replaying the transition sequence and enumerating the
//! feasible optional-consumption vectors, which drops the spurious ones.

use crate::marking::{apply, can_fire, Firing, Marking};
use crate::net::{PlaceId, TransId, Ttn};

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `Σ terms ≤ rhs`
    Le,
    /// `Σ terms = rhs`
    Eq,
}

/// A linear constraint `Σ coefᵢ · xᵢ  cmp  rhs`.
#[derive(Debug, Clone)]
pub struct LinCon {
    /// `(variable index, coefficient)` pairs.
    pub terms: Vec<(usize, i64)>,
    /// The comparison.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: i64,
}

/// A bounded-integer linear program.
#[derive(Debug, Clone, Default)]
pub struct Lp {
    /// Inclusive variable bounds `[lo, hi]`.
    pub bounds: Vec<(i64, i64)>,
    /// The constraints.
    pub constraints: Vec<LinCon>,
}

impl Lp {
    /// Adds a variable, returning its index.
    pub fn var(&mut self, lo: i64, hi: i64) -> usize {
        self.bounds.push((lo, hi));
        self.bounds.len() - 1
    }

    /// Adds a constraint.
    pub fn con(&mut self, terms: Vec<(usize, i64)>, cmp: Cmp, rhs: i64) {
        self.constraints.push(LinCon { terms, cmp, rhs });
    }
}

/// Result of bounds propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Prop {
    Consistent,
    Infeasible,
}

/// Interval propagation to fixpoint. Exact for this encoding's structure
/// (each `tok` chain constraint couples two variables with ±1
/// coefficients).
fn propagate(lp: &Lp, bounds: &mut [(i64, i64)]) -> Prop {
    loop {
        let mut changed = false;
        for c in &lp.constraints {
            // min/max of the LHS under current bounds.
            let mut lo_sum = 0i64;
            let mut hi_sum = 0i64;
            for &(v, coef) in &c.terms {
                let (lo, hi) = bounds[v];
                if coef >= 0 {
                    lo_sum += coef * lo;
                    hi_sum += coef * hi;
                } else {
                    lo_sum += coef * hi;
                    hi_sum += coef * lo;
                }
            }
            if lo_sum > c.rhs {
                return Prop::Infeasible;
            }
            if c.cmp == Cmp::Eq && hi_sum < c.rhs {
                return Prop::Infeasible;
            }
            for &(v, coef) in &c.terms {
                let (lo, hi) = bounds[v];
                let (term_lo, term_hi) =
                    if coef >= 0 { (coef * lo, coef * hi) } else { (coef * hi, coef * lo) };
                // Tighten from `Σ ≤ rhs`: coef·x ≤ rhs − (lo_sum − term_lo).
                let rest_lo = lo_sum - term_lo;
                let max_term = c.rhs - rest_lo;
                let (mut new_lo, mut new_hi) = (lo, hi);
                if coef > 0 {
                    // coef·x ≤ max_term  ⇒  x ≤ ⌊max_term / coef⌋.
                    new_hi = new_hi.min(max_term.div_euclid(coef));
                } else if coef < 0 {
                    // coef·x ≤ max_term  ⇒  x ≥ ⌈max_term / coef⌉.
                    new_lo = new_lo.max(ceil_div(max_term, coef));
                }
                if c.cmp == Cmp::Eq {
                    // Also tighten from `Σ ≥ rhs`:
                    // coef·x ≥ rhs − (hi_sum − term_hi).
                    let rest_hi = hi_sum - term_hi;
                    let min_term = c.rhs - rest_hi;
                    if coef > 0 {
                        new_lo = new_lo.max(ceil_div(min_term, coef));
                    } else if coef < 0 {
                        new_hi = new_hi.min(min_term.div_euclid(coef));
                    }
                }
                if new_lo > new_hi {
                    return Prop::Infeasible;
                }
                if (new_lo, new_hi) != (lo, hi) {
                    bounds[v] = (new_lo, new_hi);
                    changed = true;
                }
            }
        }
        if !changed {
            return Prop::Consistent;
        }
    }
}

fn ceil_div(a: i64, b: i64) -> i64 {
    // Truncating division rounds toward zero; bump when the exact quotient
    // is positive (same signs) and inexact.
    let q = a / b;
    if a % b != 0 && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Consumer of enumerated solutions: receives the fully propagated bounds
/// and returns `false` to stop the search.
pub type OnSolution<'a> = dyn FnMut(&[(i64, i64)]) -> bool + 'a;

/// Enumerates all assignments of `branch_vars` admitting a feasible
/// completion, invoking `on_solution` with the (fully propagated) bounds.
/// Returns `false` if the consumer stopped the search.
pub fn solve_all(lp: &Lp, branch_vars: &[usize], on_solution: &mut OnSolution<'_>) -> bool {
    let mut bounds = lp.bounds.clone();
    if propagate(lp, &mut bounds) == Prop::Infeasible {
        return true;
    }
    branch(lp, branch_vars, 0, &mut bounds, on_solution)
}

fn branch(
    lp: &Lp,
    branch_vars: &[usize],
    idx: usize,
    bounds: &mut [(i64, i64)],
    on_solution: &mut OnSolution<'_>,
) -> bool {
    // Find the next unfixed branch variable.
    let mut i = idx;
    while i < branch_vars.len() {
        let v = branch_vars[i];
        if bounds[v].0 != bounds[v].1 {
            break;
        }
        i += 1;
    }
    if i == branch_vars.len() {
        return on_solution(bounds);
    }
    let v = branch_vars[i];
    let (lo, hi) = bounds[v];
    // Try larger values first so `fire = 1` is explored before `fire = 0`.
    for val in (lo..=hi).rev() {
        let mut child: Vec<(i64, i64)> = bounds.to_vec();
        child[v] = (val, val);
        if propagate(lp, &mut child) == Prop::Infeasible {
            continue;
        }
        if !branch(lp, branch_vars, i + 1, &mut child, on_solution) {
            return false;
        }
    }
    true
}

/// Builds the Appendix B.2 encoding for paths of exactly `len` firings
/// and streams every concrete path (transition sequence plus a feasible
/// optional-consumption vector per step) to `on_path`, which returns
/// `false` to stop. Returns `false` if the consumer stopped.
///
/// This is the test oracle for the DFS search: the same net, markings,
/// and length must yield the same paths, up to the DFS's symmetry
/// breaking of commuting no-input firings.
pub fn enumerate_ilp_paths(
    net: &Ttn,
    init: &Marking,
    fin: &Marking,
    len: usize,
    on_path: &mut dyn FnMut(&[Firing]) -> bool,
) -> bool {
    let n_places = net.n_places();
    let n_trans = net.n_transitions();
    if n_trans == 0 {
        return true;
    }
    let max_prod: i64 = net
        .transitions()
        .map(|(_, t)| t.outputs.iter().map(|&(_, c)| i64::from(c)).sum::<i64>())
        .max()
        .unwrap_or(0);
    let token_cap = i64::from(init.total()) + max_prod * len as i64;

    let mut lp = Lp::default();
    // tok[k][p] for k in 0..=len.
    let tok = |k: usize, p: usize| k * n_places + p;
    for _ in 0..=(len) {
        for _ in 0..n_places {
            lp.var(0, token_cap);
        }
    }
    // fire[k][t] for k in 0..len.
    let fire_base = (len + 1) * n_places;
    let fire = |k: usize, t: usize| fire_base + k * n_trans + t;
    for _ in 0..len {
        for _ in 0..n_trans {
            lp.var(0, 1);
        }
    }

    // (5) initial marking; (6) final marking.
    for p in 0..n_places {
        lp.con(vec![(tok(0, p), 1)], Cmp::Eq, i64::from(init.tokens(PlaceId(p as u32))));
        lp.con(vec![(tok(len, p), 1)], Cmp::Eq, i64::from(fin.tokens(PlaceId(p as u32))));
    }
    // (3) exactly one transition per step.
    for k in 0..len {
        let terms: Vec<(usize, i64)> = (0..n_trans).map(|t| (fire(k, t), 1)).collect();
        lp.con(terms, Cmp::Eq, 1);
    }
    // (1) required tokens present when fired: E(p,τ)·fire − tok ≤ 0.
    for k in 0..len {
        for (tid, t) in net.transitions() {
            for &(p, c) in &t.inputs {
                lp.con(
                    vec![(fire(k, tid.0 as usize), i64::from(c)), (tok(k, p.0 as usize), -1)],
                    Cmp::Le,
                    0,
                );
            }
        }
    }
    // (2) marking update (sum form; see module docs), per place:
    //   tok[k+1][p] − tok[k][p] + Σ_τ (E(p,τ) − E(τ,p))·fire[k][τ] ≤ 0
    //   tok[k][p] − tok[k+1][p] − Σ_τ (E(p,τ)+O(p,τ)−E(τ,p))·fire[k][τ] ≤ 0
    for k in 0..len {
        for p in 0..n_places {
            let mut upper: Vec<(usize, i64)> =
                vec![(tok(k + 1, p), 1), (tok(k, p), -1)];
            let mut lower: Vec<(usize, i64)> =
                vec![(tok(k, p), 1), (tok(k + 1, p), -1)];
            for (tid, t) in net.transitions() {
                let pid = PlaceId(p as u32);
                let e_in: i64 = t
                    .inputs
                    .iter()
                    .filter(|&&(q, _)| q == pid)
                    .map(|&(_, c)| i64::from(c))
                    .sum();
                let o_in: i64 = t
                    .optionals
                    .iter()
                    .filter(|&&(q, _)| q == pid)
                    .map(|&(_, c)| i64::from(c))
                    .sum();
                let e_out: i64 = t
                    .outputs
                    .iter()
                    .filter(|&&(q, _)| q == pid)
                    .map(|&(_, c)| i64::from(c))
                    .sum();
                if e_in - e_out != 0 {
                    upper.push((fire(k, tid.0 as usize), e_in - e_out));
                }
                if e_in + o_in - e_out != 0 {
                    lower.push((fire(k, tid.0 as usize), -(e_in + o_in - e_out)));
                }
            }
            lp.con(upper, Cmp::Le, 0);
            lp.con(lower, Cmp::Le, 0);
        }
    }

    let branch_vars: Vec<usize> =
        (0..len).flat_map(|k| (0..n_trans).map(move |t| fire(k, t))).collect();

    solve_all(&lp, &branch_vars, &mut |bounds| {
        // Decode the transition sequence.
        let mut seq: Vec<TransId> = Vec::with_capacity(len);
        for k in 0..len {
            let t = (0..n_trans)
                .find(|&t| bounds[fire(k, t)].0 == 1)
                .expect("constraint (3) guarantees one fired transition");
            seq.push(TransId(t as u32));
        }
        // Concretize optional consumption (drops relaxation-only paths).
        concretize(net, &mut init.clone(), fin, &seq, 0, &mut Vec::new(), on_path)
    })
}

/// Replays `seq`, enumerating every feasible optional-consumption vector;
/// emits each completed concrete path. Returns `false` if the consumer
/// stopped.
fn concretize(
    net: &Ttn,
    m: &mut Marking,
    fin: &Marking,
    seq: &[TransId],
    idx: usize,
    acc: &mut Vec<Firing>,
    on_path: &mut dyn FnMut(&[Firing]) -> bool,
) -> bool {
    if idx == seq.len() {
        if m == fin {
            return on_path(acc);
        }
        return true;
    }
    let tid = seq[idx];
    let t = net.transition(tid);
    if !can_fire(m, t) {
        return true; // spurious relaxation path
    }
    let mut avail: Vec<u32> = Vec::with_capacity(t.optionals.len());
    for &(p, cap) in &t.optionals {
        let required_here: u32 =
            t.inputs.iter().filter(|&&(q, _)| q == p).map(|&(_, c)| c).sum();
        avail.push(cap.min(m.tokens(p).saturating_sub(required_here)));
    }
    let mut choice = vec![0u32; t.optionals.len()];
    loop {
        // Canonical form: all-zero optional vectors become empty, so both
        // backends' firings compare equal (see `Firing::with_optionals`).
        let firing = Firing::with_optionals(tid, choice.clone());
        let saved = m.clone();
        apply(m, net, &firing);
        acc.push(firing);
        let cont = concretize(net, m, fin, seq, idx + 1, acc, on_path);
        acc.pop();
        *m = saved;
        if !cont {
            return false;
        }
        if !advance(&mut choice, &avail) {
            return true;
        }
    }
}

fn advance(choice: &mut [u32], maxima: &[u32]) -> bool {
    for i in 0..choice.len() {
        if choice[i] < maxima[i] {
            choice[i] += 1;
            for c in &mut choice[..i] {
                *c = 0;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn propagation_solves_chains() {
        // x + y = 3, x ≤ 1, over [0,3]²: propagation gives y ∈ [2,3].
        let mut lp = Lp::default();
        let x = lp.var(0, 3);
        let y = lp.var(0, 3);
        lp.con(vec![(x, 1), (y, 1)], Cmp::Eq, 3);
        lp.con(vec![(x, 1)], Cmp::Le, 1);
        let mut bounds = lp.bounds.clone();
        assert_eq!(propagate(&lp, &mut bounds), Prop::Consistent);
        assert_eq!(bounds[y], (2, 3));
    }

    #[test]
    fn propagation_detects_infeasible() {
        let mut lp = Lp::default();
        let x = lp.var(0, 1);
        lp.con(vec![(x, 1)], Cmp::Eq, 5);
        let mut bounds = lp.bounds.clone();
        assert_eq!(propagate(&lp, &mut bounds), Prop::Infeasible);
    }

    #[test]
    fn solve_all_enumerates_binary_solutions() {
        // x + y + z = 2 over {0,1}³ has exactly 3 solutions.
        let mut lp = Lp::default();
        let vars: Vec<usize> = (0..3).map(|_| lp.var(0, 1)).collect();
        lp.con(vars.iter().map(|&v| (v, 1)).collect(), Cmp::Eq, 2);
        let mut n = 0;
        solve_all(&lp, &vars, &mut |bounds| {
            assert_eq!(bounds.iter().map(|b| b.0).sum::<i64>(), 2);
            n += 1;
            true
        });
        assert_eq!(n, 3);
    }

    #[test]
    fn negative_coefficients_propagate() {
        // x - y ≤ -2 over [0,3]²: x ≤ 1 when y ≤ 3, and y ≥ 2.
        let mut lp = Lp::default();
        let x = lp.var(0, 3);
        let y = lp.var(0, 3);
        lp.con(vec![(x, 1), (y, -1)], Cmp::Le, -2);
        let mut bounds = lp.bounds.clone();
        assert_eq!(propagate(&lp, &mut bounds), Prop::Consistent);
        assert_eq!(bounds[x].1, 1);
        assert_eq!(bounds[y].0, 2);
    }

    #[test]
    fn ceil_div_matches_definition() {
        assert_eq!(ceil_div(7, 2), 4);
        assert_eq!(ceil_div(-7, 2), -3);
        assert_eq!(ceil_div(7, -2), -3);
        assert_eq!(ceil_div(-7, -2), 4);
        assert_eq!(ceil_div(6, 3), 2);
    }
}
