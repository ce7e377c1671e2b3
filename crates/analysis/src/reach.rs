//! Forward reachability over the type-transition net.
//!
//! A fixpoint over the hypergraph, ignoring token multiplicities: a place
//! is *producible* when a seed covers it or some live transition outputs
//! it; a transition is *live* when every required input place is
//! producible. This over-approximates the net's true behavior — a live
//! transition may still never fire for multiplicity reasons — which is
//! exactly the right direction for its two uses:
//!
//! * **dead-transition pruning**: a *dead* transition has a required
//!   input place that never holds a token at any reachable marking, so it
//!   can never fire on any path. Removing it from the net preserves the
//!   DFS search tree (and therefore the emitted event stream)
//!   bit-identically;
//! * **distance bounds**: `distance(p)` is a lower bound on the number of
//!   firings any sequence needs before a token can exist at `p`, so a
//!   query whose output place has distance `d` cannot be solved by a path
//!   shorter than `d` — iterative deepening can start there.
//!
//! Both feed one query's [`SearchPlan`]. The part that does not depend on
//! the query — the seedless fixpoint and the net it prunes — is the
//! net's [`LiveCore`], computed once per net; a query plans over it
//! whenever its inputs add no producible place.

use std::borrow::Cow;

use apiphany_ttn::{PlaceId, TransId, Transition, Ttn};

/// The result of a forward-reachability fixpoint from a seed set.
#[derive(Debug, Clone)]
pub struct Reachability {
    producible: Vec<bool>,
    live: Vec<bool>,
    /// `distance[p]`: lower bound on firings needed to produce a token at
    /// `p` (`Some(0)` for seeds, `None` for unproducible places).
    distance: Vec<Option<u32>>,
}

impl Reachability {
    /// Runs the fixpoint from `seeds` (places assumed to hold tokens at
    /// the start — a query's input marking, or the witnessed value
    /// banks).
    ///
    /// The relaxation is Bellman–Ford-style: a live transition `t`
    /// produces its outputs at cost `1 + max over required inputs
    /// distance(q)` (`1` for zero-required transitions), and each place
    /// keeps the minimum cost over its producers. Rounds repeat until no
    /// distance improves; each round is `O(|T| · degree)` and at most
    /// `|T| + 1` rounds run, so the whole pass is microseconds even at
    /// the evaluation nets' size.
    pub fn compute(net: &Ttn, seeds: impl IntoIterator<Item = PlaceId>) -> Reachability {
        let mut r = Reachability {
            producible: vec![false; net.n_places()],
            live: vec![false; net.n_transitions()],
            distance: vec![None; net.n_places()],
        };
        for p in seeds {
            r.producible[p.0 as usize] = true;
            r.distance[p.0 as usize] = Some(0);
        }
        loop {
            let mut changed = false;
            for (tid, t) in net.transitions() {
                let Some(cost) = r.firing_cost(t) else { continue };
                r.live[tid.0 as usize] = true;
                for &(p, _) in &t.outputs {
                    let slot = &mut r.distance[p.0 as usize];
                    if slot.is_none_or(|d| d > cost) {
                        *slot = Some(cost);
                        r.producible[p.0 as usize] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        r
    }

    /// The cost of the cheapest firing of `t` given current distances:
    /// `1 + max over required inputs distance(q)`, or `None` while some
    /// required input is unproducible. Optional inputs don't gate firing.
    fn firing_cost(&self, t: &Transition) -> Option<u32> {
        let mut worst = 0u32;
        for &(q, _) in &t.inputs {
            worst = worst.max(self.distance[q.0 as usize]?);
        }
        Some(worst.saturating_add(1))
    }

    /// Whether a token can ever exist at `p`.
    pub fn producible(&self, p: PlaceId) -> bool {
        self.producible[p.0 as usize]
    }

    /// Whether `t` can ever fire (all required inputs producible).
    pub fn live(&self, t: TransId) -> bool {
        self.live[t.0 as usize]
    }

    /// Lower bound on the number of firings before a token can exist at
    /// `p`: `Some(0)` for seeds, `None` when `p` is unproducible.
    pub fn distance(&self, p: PlaceId) -> Option<u32> {
        self.distance[p.0 as usize]
    }

    /// The dead transitions, in id order.
    pub fn dead_transitions<'a>(
        &'a self,
        net: &'a Ttn,
    ) -> impl Iterator<Item = TransId> + 'a {
        net.transitions().map(|(tid, _)| tid).filter(|&tid| !self.live(tid))
    }

    /// Number of dead transitions.
    pub fn n_dead(&self) -> usize {
        self.live.iter().filter(|&&l| !l).count()
    }

    /// Rebuilds `net` without its dead transitions.
    ///
    /// The pruned net shares `net`'s place table
    /// ([`Ttn::with_places_of`]), so every [`PlaceId`] — and with it
    /// every marking, fingerprint, and query marking — stays valid
    /// against it, and the rebuild copies only the live transitions.
    /// They are added in their original relative order, so candidate
    /// ordering and the search's symmetry-breaking comparisons are
    /// preserved; a DFS over the pruned net visits the exact nodes the
    /// full net's DFS visits (dead transitions never pass `can_fire`) and
    /// emits a bit-identical event stream.
    ///
    /// The synthesizer prunes once per net ([`LiveCore`]), and per query
    /// only for a query with an input the seedless fixpoint cannot
    /// produce.
    pub fn prune(&self, net: &Ttn) -> Ttn {
        let mut pruned = Ttn::with_places_of(net);
        for (tid, t) in net.transitions() {
            if self.live(tid) {
                pruned.add_transition(t.clone());
            }
        }
        pruned
    }
}

/// The net and first level one query's search uses, as decided by the
/// reachability stage.
#[derive(Debug)]
pub struct SearchPlan<'a> {
    /// The net to search: the planned-over net without the transitions
    /// that are dead from the query's inputs (borrowed when none is).
    pub net: Cow<'a, Ttn>,
    /// The output place's distance bound: no shorter path exists, so
    /// iterative deepening starts here (≥ 1).
    pub start_len: usize,
}

impl<'a> SearchPlan<'a> {
    /// The per-query reachability stage over `net`: the fixpoint seeded
    /// with the query's input places `seeds`, then
    /// [`Reachability::prune`] when some transition is dead. `None` when
    /// the `output` place is unproducible from the seeds: no path of any
    /// length exists.
    pub fn new(net: &'a Ttn, seeds: &[PlaceId], output: PlaceId) -> Option<SearchPlan<'a>> {
        let reach = Reachability::compute(net, seeds.iter().copied());
        let distance = reach.distance(output)?;
        let net = if reach.n_dead() > 0 {
            Cow::Owned(reach.prune(net))
        } else {
            Cow::Borrowed(net)
        };
        Some(SearchPlan { net, start_len: (distance as usize).max(1) })
    }
}

/// A net's seedless live core: the net without the transitions the
/// seedless fixpoint marks dead. It depends only on the net, so it is
/// computed once per net, like the net itself.
///
/// A query whose input places are all producible without seeds makes no
/// further place producible, so its seeded fixpoint kills exactly the
/// core's dead transitions: [`LiveCore::plan`] then plans over the core,
/// where the seeded fixpoint (still needed for the distance bound) finds
/// nothing dead and nothing is rebuilt. A query with an input nothing
/// else produces may revive transitions the core dropped, so it is
/// planned over the full net, exactly as [`SearchPlan::new`] does.
#[derive(Debug)]
pub struct LiveCore {
    seedless: Reachability,
    /// The pruned net; `None` when nothing is dead (the core is the full
    /// net).
    core: Option<Ttn>,
}

impl LiveCore {
    /// Runs the seedless fixpoint over `net` and prunes it.
    pub fn new(net: &Ttn) -> LiveCore {
        let seedless = Reachability::compute(net, std::iter::empty());
        let core = (seedless.n_dead() > 0).then(|| seedless.prune(net));
        LiveCore { seedless, core }
    }

    /// Plans one query over `net`, the net this core was computed from:
    /// the same plan as [`SearchPlan::new`]`(net, seeds, output)` — the
    /// same transitions in the same order and the same `start_len` — but
    /// borrowed from the core whenever every seed is producible without
    /// seeds.
    pub fn plan<'a>(
        &'a self,
        net: &'a Ttn,
        seeds: &[PlaceId],
        output: PlaceId,
    ) -> Option<SearchPlan<'a>> {
        let base = match &self.core {
            Some(core) if seeds.iter().all(|&p| self.seedless.producible(p)) => core,
            _ => net,
        };
        SearchPlan::new(base, seeds, output)
    }
}
