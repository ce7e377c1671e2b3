//! RE-based candidate ranking (paper §6 "Cost computation").
//!
//! Each candidate is executed retrospectively several times; its cost is
//! its AST size plus penalties for always failing, always returning an
//! empty array, or mismatching the requested result multiplicity.
//! Candidates are ordered from lowest to highest cost.

use std::time::{Duration, Instant};

use apiphany_lang::Program;
use apiphany_mining::Query;
use apiphany_spec::SemTy;

use crate::exec::ReContext;

/// Penalty weights and the number of RE rounds.
#[derive(Debug, Clone)]
pub struct CostParams {
    /// RE rounds per candidate (the paper uses 15).
    pub rounds: usize,
    /// Large penalty: all executions failed.
    pub fail_penalty: f64,
    /// Medium penalty: all executions returned an empty array.
    pub empty_penalty: f64,
    /// Small penalty: result multiplicity disagrees with the query.
    pub multiplicity_penalty: f64,
    /// Base seed; round `i` runs with `seed + i`.
    pub seed: u64,
}

impl Default for CostParams {
    fn default() -> CostParams {
        CostParams {
            rounds: 15,
            fail_penalty: 1000.0,
            empty_penalty: 100.0,
            multiplicity_penalty: 10.0,
            seed: 0,
        }
    }
}

/// The cost of one candidate, with its components.
#[derive(Debug, Clone, PartialEq)]
pub struct Cost {
    /// AST-size base cost.
    pub base: f64,
    /// Penalty added on top of the base.
    pub penalty: f64,
    /// Number of rounds that failed.
    pub n_failed: usize,
    /// Number of rounds that returned an empty array.
    pub n_empty: usize,
    /// Time spent executing.
    pub re_time: Duration,
}

impl Cost {
    /// Total cost (base + penalty).
    pub fn total(&self) -> f64 {
        self.base + self.penalty
    }
}

/// Runs RE `params.rounds` times and computes the paper's cost.
///
/// The candidate is compiled once for all its rounds (variables become
/// slots, call sites resolve their witness lookups), and each round runs
/// on values shared with the witnesses and the value bank. The penalties
/// read only each round's array length, so no round's result is copied.
pub fn cost_of(
    ctx: &ReContext<'_>,
    program: &Program,
    query: &Query,
    params: &CostParams,
) -> Cost {
    let start = Instant::now();
    let compiled = ctx.compile(program, query);
    // Each result's shape: its array length, or `None` for a non-array.
    let mut shapes: Vec<Option<usize>> = Vec::with_capacity(params.rounds);
    let mut n_failed = 0;
    for i in 0..params.rounds {
        match compiled.round(params.seed.wrapping_add(i as u64)) {
            Ok(v) => shapes.push(v.array_len()),
            Err(_) => n_failed += 1,
        }
    }
    let base = program.metrics().ast_nodes as f64;
    let n_empty = shapes.iter().filter(|&&s| s == Some(0)).count();
    let penalty = if shapes.is_empty() {
        // res = ∅: all executions failed.
        params.fail_penalty
    } else if n_empty == shapes.len() {
        // res = {[]}: every execution returned an empty array.
        params.empty_penalty
    } else {
        let lens: Vec<usize> = shapes.into_iter().flatten().collect();
        multiplicity_penalty(&lens, &query.output, params)
    };
    Cost { base, penalty, n_failed, n_empty, re_time: start.elapsed() }
}

/// The multiplicity check of §6 item 4 over the lengths of the array
/// results: a scalar query type penalizes results with more than one
/// element; an array query type penalizes the candidate when *all*
/// (non-empty) results are singletons.
fn multiplicity_penalty(lens: &[usize], output: &SemTy, params: &CostParams) -> f64 {
    match output {
        SemTy::Array(_) => {
            if !lens.is_empty() && lens.iter().all(|&l| l <= 1) {
                params.multiplicity_penalty
            } else {
                0.0
            }
        }
        _ => {
            if lens.iter().any(|&l| l > 1) {
                params.multiplicity_penalty
            } else {
                0.0
            }
        }
    }
}

/// A candidate with its cost, as tracked by the [`Ranker`].
#[derive(Debug, Clone)]
pub struct RankedEntry<T> {
    /// The caller's payload (typically the synthesized candidate).
    pub item: T,
    /// Generation index (insertion order).
    pub index: usize,
    /// Computed cost.
    pub cost: Cost,
}

/// An incrementally ranked candidate list, ordered by (cost, generation
/// index). Tracks both the paper's `r_RE` (rank at insertion time) and
/// `r_RE^TO` (rank at timeout, via [`Ranker::rank_of_index`]).
#[derive(Debug, Default)]
pub struct Ranker<T> {
    entries: Vec<RankedEntry<T>>,
    total_re_time: Duration,
}

impl<T> Ranker<T> {
    /// An empty ranking.
    pub fn new() -> Ranker<T> {
        Ranker { entries: Vec::new(), total_re_time: Duration::ZERO }
    }

    /// Inserts a candidate with its cost; returns its 1-based rank at
    /// insertion time (the paper's `r_RE` when this is the gold solution).
    pub fn insert(&mut self, item: T, index: usize, cost: Cost) -> usize {
        self.total_re_time += cost.re_time;
        let key = (cost.total(), index);
        let pos = self
            .entries
            .partition_point(|e| (e.cost.total(), e.index) <= key);
        self.entries.insert(pos, RankedEntry { item, index, cost });
        pos + 1
    }

    /// The 1-based rank an entry with this cost and generation index
    /// would take if inserted now (without inserting it).
    pub fn rank_if_inserted(&self, cost: &Cost, index: usize) -> usize {
        let key = (cost.total(), index);
        self.entries.partition_point(|e| (e.cost.total(), e.index) <= key) + 1
    }

    /// The current 1-based rank of the entry with a generation index.
    pub fn rank_of_index(&self, index: usize) -> Option<usize> {
        self.entries.iter().position(|e| e.index == index).map(|p| p + 1)
    }

    /// Entries in rank order.
    pub fn entries(&self) -> &[RankedEntry<T>] {
        &self.entries
    }

    /// Consumes the ranker, yielding the entries in rank order. This moves
    /// the payloads out instead of cloning them — the intended way to turn
    /// a finished ranking into a result list.
    pub fn into_entries(self) -> Vec<RankedEntry<T>> {
        self.entries
    }

    /// The top `k` entries.
    pub fn top(&self, k: usize) -> &[RankedEntry<T>] {
        &self.entries[..k.min(self.entries.len())]
    }

    /// Total time spent in retrospective execution (the paper reports this
    /// is ~1% of synthesis time).
    pub fn total_re_time(&self) -> Duration {
        self.total_re_time
    }

    /// Number of ranked candidates.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no candidate has been ranked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiphany_lang::parse_program;
    use apiphany_mining::{mine_types, parse_query, MiningConfig};
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
    use apiphany_spec::Witness;

    fn setup() -> (apiphany_mining::SemLib, Vec<Witness>) {
        let w = fig4_witnesses();
        let sl = mine_types(&fig7_library(), &w, &MiningConfig::default());
        (sl, w)
    }

    /// §2.3: the Fig. 2 solution must rank above the Fig. 5 "creator"
    /// distractor, because the latter always returns a single email while
    /// the query asks for an array.
    #[test]
    fn fig2_beats_creator_variant() {
        let (sl, w) = setup();
        let ctx = ReContext::new(&sl, &w);
        let q = parse_query(&sl, "{ channel_name: Channel.name } → [Profile.email]").unwrap();
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
        let creator = parse_program(
            r"\channel_name → {
                c ← c_list()
                if c.name = channel_name
                let u = u_info(user=c.creator)
                return u.profile.email
            }",
        )
        .unwrap();
        let p = CostParams::default();
        let c_fig2 = cost_of(&ctx, &fig2, &q, &p);
        let c_creator = cost_of(&ctx, &creator, &q, &p);
        assert!(
            c_fig2.total() < c_creator.total(),
            "fig2 {} vs creator {}",
            c_fig2.total(),
            c_creator.total()
        );
        // Despite the creator variant being *smaller*.
        assert!(c_creator.base < c_fig2.base);
    }

    /// A program that always fails (no witness for its method) receives
    /// the large penalty.
    #[test]
    fn always_failing_gets_large_penalty() {
        let (sl, _) = setup();
        let w_empty: Vec<Witness> = Vec::new();
        let ctx = ReContext::new(&sl, &w_empty);
        let q = parse_query(&sl, "{ } → [Channel]").unwrap();
        let p = parse_program(r"\ → { let c = c_list() c }").unwrap();
        let cost = cost_of(&ctx, &p, &q, &CostParams::default());
        assert_eq!(cost.n_failed, 15);
        assert!(cost.penalty >= 1000.0);
    }

    #[test]
    fn always_empty_gets_medium_penalty() {
        let (sl, w) = setup();
        let ctx = ReContext::new(&sl, &w);
        let q = parse_query(&sl, "{ } → [Profile.email]").unwrap();
        // c.name never equals c.id: always empty.
        let p = parse_program(
            r"\ → {
                c ← c_list()
                if c.name = c.id
                let u = u_info(user=c.creator)
                return u.profile.email
            }",
        )
        .unwrap();
        let cost = cost_of(&ctx, &p, &q, &CostParams::default());
        assert_eq!(cost.n_empty, 15 - cost.n_failed);
        assert!((cost.penalty - 100.0).abs() < f64::EPSILON);
    }

    #[test]
    fn scalar_query_penalizes_multi_results() {
        let (sl, w) = setup();
        let ctx = ReContext::new(&sl, &w);
        // Query asks for a single Channel; returning all channels gets the
        // multiplicity penalty.
        let q = parse_query(&sl, "{ } → Channel").unwrap();
        let all = parse_program(r"\ → { c ← c_list() return c }").unwrap();
        let cost = cost_of(&ctx, &all, &q, &CostParams::default());
        assert!((cost.penalty - 10.0).abs() < f64::EPSILON, "{cost:?}");
    }

    #[test]
    fn ranker_orders_by_cost_then_index() {
        let mk = |base: f64| Cost {
            base,
            penalty: 0.0,
            n_failed: 0,
            n_empty: 0,
            re_time: Duration::ZERO,
        };
        let mut r: Ranker<&str> = Ranker::new();
        assert_eq!(r.insert("a", 0, mk(10.0)), 1);
        assert_eq!(r.insert("b", 1, mk(5.0)), 1); // cheaper: takes rank 1
        assert_eq!(r.insert("c", 2, mk(10.0)), 3); // ties break by index
        assert_eq!(r.rank_of_index(0), Some(2));
        assert_eq!(r.rank_of_index(2), Some(3));
        assert_eq!(r.top(2).len(), 2);
        assert_eq!(r.top(2)[0].item, "b");
    }

    #[test]
    fn into_entries_moves_items_in_rank_order() {
        // A non-Clone payload proves the entries are moved, not cloned.
        struct NoClone(&'static str);
        let mk = |base: f64| Cost {
            base,
            penalty: 0.0,
            n_failed: 0,
            n_empty: 0,
            re_time: Duration::ZERO,
        };
        let mut r: Ranker<NoClone> = Ranker::new();
        r.insert(NoClone("a"), 0, mk(10.0));
        r.insert(NoClone("b"), 1, mk(5.0));
        let items: Vec<&str> = r.into_entries().into_iter().map(|e| e.item.0).collect();
        assert_eq!(items, vec!["b", "a"]);
    }
}
