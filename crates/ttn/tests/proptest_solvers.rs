//! Differential property tests: the DFS enumerator must agree with the
//! ILP branch-and-bound oracle and with an unpruned reference enumerator
//! on every random small net.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use apiphany_spec::{GroupId, SemTy};
use apiphany_ttn::ilp::enumerate_ilp_paths;
use apiphany_ttn::{
    apply, can_fire, enumerate_paths, Firing, Marking, PlaceId, SearchConfig, TransKind,
    Transition, Ttn,
};
use proptest::prelude::*;

/// A random small net over `n_places` group places. Each transition
/// consumes up to two places, maybe takes an optional edge, and produces
/// one of four output shapes: one token, a copy (its required place back
/// twice), two tokens at two places, or nothing (a sink). The last place
/// is never a required input, so it is consumed only through optional
/// edges.
fn arb_net(n_places: usize, n_trans: usize) -> impl Strategy<Value = Ttn> {
    let trans = prop::collection::vec(
        (
            prop::collection::vec(0..n_places - 1, 0..=2), // required inputs
            prop::option::of(0..n_places),                 // optional input
            0..n_places,                                   // output
            0..n_places,                                   // second output
            0..6u8,                                        // output shape
        ),
        1..=n_trans,
    );
    trans.prop_map(move |specs| {
        let mut net = Ttn::new();
        let places: Vec<PlaceId> = (0..n_places)
            .map(|i| net.intern_place(SemTy::Group(GroupId(i as u32))))
            .collect();
        for (i, (inputs, optional, output, second, shape)) in specs.into_iter().enumerate() {
            let mut required: Vec<(PlaceId, u32)> = Vec::new();
            for p in inputs {
                if let Some(slot) = required.iter_mut().find(|(q, _)| *q == places[p]) {
                    slot.1 += 1;
                } else {
                    required.push((places[p], 1));
                }
            }
            required.sort();
            let outputs = match shape {
                // A sink. One with no inputs would be a no-op, so it
                // consumes its output place instead (or the place below,
                // keeping the last place optional-only).
                0 => {
                    if required.is_empty() {
                        required.push((places[output.min(n_places - 2)], 1));
                    }
                    Vec::new()
                }
                // A copy: one token of a required place in, two out.
                1 => match required.first() {
                    Some(&(p, _)) => vec![(p, 2)],
                    None => vec![(places[output], 1)],
                },
                2 if output != second => vec![(places[output], 1), (places[second], 1)],
                _ => vec![(places[output], 1)],
            };
            net.add_transition(Transition {
                kind: TransKind::Method(format!("m{i}")),
                inputs: required,
                optionals: optional.map(|p| (places[p], 1)).into_iter().collect(),
                outputs,
                params: Vec::new(),
            });
        }
        net
    })
}

fn sorted(mut paths: Vec<Vec<Firing>>) -> Vec<Vec<Firing>> {
    paths.sort_by_key(|p| {
        (p.len(), p.iter().map(|f| (f.trans.0, f.optional_taken.clone())).collect::<Vec<_>>())
    });
    paths
}

fn collect(net: &Ttn, init: &Marking, fin: &Marking) -> Vec<Vec<Firing>> {
    let cfg = SearchConfig { max_len: 4, max_paths: 2000, ..SearchConfig::default() };
    let mut out: Vec<Vec<Firing>> = Vec::new();
    enumerate_paths(net, init, fin, &cfg, &mut |p| {
        out.push(p.to_vec());
        true
    });
    sorted(out)
}

/// The ILP oracle over the same lengths and path cap as [`collect`].
fn collect_ilp(net: &Ttn, init: &Marking, fin: &Marking) -> Vec<Vec<Firing>> {
    let mut out: Vec<Vec<Firing>> = Vec::new();
    for len in 1..=4 {
        let more = enumerate_ilp_paths(net, init, fin, len, &mut |p| {
            out.push(p.to_vec());
            out.len() < 2000
        });
        if !more {
            break;
        }
    }
    sorted(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DFS (with symmetry breaking disabled by construction being
    /// irrelevant to correctness of the *set modulo commuting prefixes*)
    /// and ILP agree on the set of valid paths.
    #[test]
    fn dfs_and_ilp_enumerate_the_same_paths(
        net in arb_net(4, 5),
        init_tokens in prop::collection::vec(0..4usize, 0..=2),
        fin_place in 0..4usize,
    ) {
        let mut init = Marking::empty(net.n_places());
        for p in init_tokens {
            init.add(PlaceId(p as u32), 1);
        }
        let mut fin = Marking::empty(net.n_places());
        fin.add(PlaceId(fin_place as u32), 1);

        let dfs = collect(&net, &init, &fin);
        let ilp = collect_ilp(&net, &init, &fin);
        // The DFS applies sound symmetry breaking on consecutive no-input
        // firings, so its set can be a subset; verify every ILP path is a
        // genuine firing sequence and that both agree modulo that
        // canonicalization.
        for p in &ilp {
            let end = apiphany_ttn::replay(&net, &init, p).expect("ILP path must replay");
            prop_assert_eq!(end, fin.clone());
        }
        let canon = |paths: &[Vec<Firing>]| {
            let mut seen: Vec<Vec<Firing>> = Vec::new();
            for p in paths {
                let mut q = p.clone();
                // Sort maximal runs of zero-required plain firings (they
                // commute); this is the DFS's canonical form.
                let mut i = 0;
                while i < q.len() {
                    let mut j = i;
                    while j < q.len() {
                        let t = net.transition(q[j].trans);
                        // Members of a commuting run: no required inputs and
                        // no optional consumption actually taken (matching
                        // the DFS's symmetry-breaking side condition).
                        if t.inputs.is_empty() && q[j].optional_taken.iter().all(|&c| c == 0) {
                            j += 1;
                        } else {
                            break;
                        }
                    }
                    q[i..j].sort_by_key(|f| f.trans.0);
                    i = j.max(i + 1);
                }
                if !seen.contains(&q) {
                    seen.push(q);
                }
            }
            seen.sort_by_key(|p| {
                (p.len(), p.iter().map(|f| (f.trans.0, f.optional_taken.clone())).collect::<Vec<_>>())
            });
            seen
        };
        prop_assert_eq!(canon(&dfs), canon(&ilp));
    }

    /// The parallel DFS determinism guarantee: for every thread count the
    /// emitted path *sequence* (order included) and the final
    /// [`SearchOutcome`] are identical to the serial enumeration, on
    /// random Fig. 7-style nets and queries.
    #[test]
    fn parallel_dfs_is_bit_identical_to_serial(
        net in arb_net(4, 6),
        init_tokens in prop::collection::vec(0..4usize, 0..=3),
        fin_place in 0..4usize,
    ) {
        use apiphany_ttn::{enumerate_search, CancelToken, SearchEvent};

        let mut init = Marking::empty(net.n_places());
        for p in init_tokens {
            init.add(PlaceId(p as u32), 1);
        }
        let mut fin = Marking::empty(net.n_places());
        fin.add(PlaceId(fin_place as u32), 1);

        let enumerate = |threads: usize| {
            let cfg = SearchConfig {
                max_len: 5,
                max_paths: 3000,
                threads,
                ..SearchConfig::default()
            };
            let mut paths: Vec<Vec<Firing>> = Vec::new();
            let report =
                enumerate_search(&net, &init, &fin, &cfg, &CancelToken::new(), &mut |e| {
                    if let SearchEvent::Path(p) = e {
                        paths.push(p.to_vec());
                    }
                    true
                });
            (paths, report.outcome)
        };
        let (serial_paths, serial_outcome) = enumerate(1);
        for threads in [2usize, 4, 8] {
            let (par_paths, par_outcome) = enumerate(threads);
            prop_assert_eq!(&par_paths, &serial_paths);
            prop_assert_eq!(par_outcome, serial_outcome);
        }
    }

    /// The shared concurrent dead-set under pressure: with a cap tiny
    /// enough that every shard keeps rotating epochs while several
    /// workers insert and probe concurrently, the emitted sequence is
    /// still bit-identical to an *uncapped serial* run — eviction and
    /// races may only forget dead facts (re-exploring path-free
    /// subtrees), never invent one.
    #[test]
    fn tiny_shared_dead_set_is_bit_identical_under_threads(
        net in arb_net(4, 6),
        init_tokens in prop::collection::vec(0..4usize, 0..=3),
        fin_place in 0..4usize,
        cap in 0usize..32,
    ) {
        use apiphany_ttn::{enumerate_search, CancelToken, SearchEvent};

        let mut init = Marking::empty(net.n_places());
        for p in init_tokens {
            init.add(PlaceId(p as u32), 1);
        }
        let mut fin = Marking::empty(net.n_places());
        fin.add(PlaceId(fin_place as u32), 1);

        let enumerate = |threads: usize, cap: usize| {
            let cfg = SearchConfig {
                max_len: 5,
                max_paths: 3000,
                threads,
                dead_set_cap: cap,
                ..SearchConfig::default()
            };
            let mut paths: Vec<Vec<Firing>> = Vec::new();
            let report =
                enumerate_search(&net, &init, &fin, &cfg, &CancelToken::new(), &mut |e| {
                    if let SearchEvent::Path(p) = e {
                        paths.push(p.to_vec());
                    }
                    true
                });
            (paths, report.outcome)
        };
        let (reference_paths, reference_outcome) = enumerate(1, 2_000_000);
        for threads in [2usize, 4] {
            let (paths, outcome) = enumerate(threads, cap);
            prop_assert_eq!(&paths, &reference_paths);
            prop_assert_eq!(outcome, reference_outcome);
        }
    }

    /// Every DFS path replays to exactly the final marking.
    #[test]
    fn dfs_paths_are_valid_firing_sequences(
        net in arb_net(5, 6),
        init_tokens in prop::collection::vec(0..5usize, 0..=3),
        fin_place in 0..5usize,
    ) {
        let mut init = Marking::empty(net.n_places());
        for p in init_tokens {
            init.add(PlaceId(p as u32), 1);
        }
        let mut fin = Marking::empty(net.n_places());
        fin.add(PlaceId(fin_place as u32), 1);
        for p in collect(&net, &init, &fin) {
            let end = apiphany_ttn::replay(&net, &init, &p).expect("path must replay");
            prop_assert_eq!(end, fin.clone());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(ORACLE_CASES))]

    /// The pruned DFS against the unpruned reference: at every thread
    /// count, [`enumerate_search`](apiphany_ttn::enumerate_search) emits
    /// exactly [`reference_paths`]'s sequence, order included, on random
    /// nets with copies, sinks, optional-only places and one- or
    /// two-token final markings. The token window, the dead-set and the
    /// cost-to-go bound may only ever skip path-free subtrees.
    #[test]
    fn pruned_dfs_matches_the_unpruned_reference(
        net in arb_net(5, 6),
        init_tokens in prop::collection::vec(0..5usize, 0..=3),
        walk in prop::collection::vec(0..64usize, 1..=5),
        fin_tokens in prop::collection::vec(0..5usize, 1..=2),
        max_len in 1..=5usize,
    ) {
        use apiphany_ttn::{enumerate_search, CancelToken, SearchEvent, SearchOutcome};

        let mut init = Marking::empty(net.n_places());
        for p in init_tokens {
            init.add(PlaceId(p as u32), 1);
        }
        // The final marking is where a random walk of at most `max_len`
        // firings from `init` ends, so most cases have paths; when the
        // walk ends on zero or more than two tokens, a random one- or
        // two-token marking instead.
        let mut fin = init.clone();
        for &pick in walk.iter().take(max_len) {
            let enabled: Vec<_> =
                net.transitions().filter(|(_, t)| can_fire(&fin, t)).map(|(id, _)| id).collect();
            if enabled.is_empty() {
                break;
            }
            apply(&mut fin, &net, &Firing::plain(enabled[pick % enabled.len()]));
        }
        if !(1..=2).contains(&fin.total()) {
            fin = Marking::empty(net.n_places());
            for p in fin_tokens {
                fin.add(PlaceId(p as u32), 1);
            }
        }
        let reference = reference_paths(&net, &init, &fin, max_len);
        for threads in [1usize, 2, 4] {
            let cfg = SearchConfig { max_len, threads, ..SearchConfig::default() };
            let mut paths: Vec<Vec<Firing>> = Vec::new();
            let report =
                enumerate_search(&net, &init, &fin, &cfg, &CancelToken::new(), &mut |e| {
                    if let SearchEvent::Path(p) = e {
                        paths.push(p.to_vec());
                    }
                    true
                });
            prop_assert_eq!(report.outcome, SearchOutcome::Exhausted);
            prop_assert_eq!(&paths, &reference);
            if threads == 1 {
                ORACLE_BOUND_PRUNED.fetch_add(report.stats.bound_pruned, Ordering::Relaxed);
            }
        }
        // Not vacuous: over all cases, the bound must have cut something.
        if ORACLE_CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == ORACLE_CASES {
            prop_assert!(ORACLE_BOUND_PRUNED.load(Ordering::Relaxed) > 0);
        }
    }
}

/// Cases of [`pruned_dfs_matches_the_unpruned_reference`], and what its
/// serial runs' `bound_pruned` counters sum to so far.
const ORACLE_CASES: u32 = 128;
static ORACLE_CASES_RUN: AtomicU32 = AtomicU32::new(0);
static ORACLE_BOUND_PRUNED: AtomicU64 = AtomicU64::new(0);

/// Every path from `init` to `fin` of length `1..=max_len`, in the DFS's
/// emission order, by brute force: lengths in increasing order, then
/// transitions in id order with the same zero-required symmetry rule,
/// optional-consumption odometer and canonical [`Firing`]s as the DFS,
/// but no token window, dead-set or cost-to-go bound.
fn reference_paths(net: &Ttn, init: &Marking, fin: &Marking, max_len: usize) -> Vec<Vec<Firing>> {
    fn walk(
        net: &Ttn,
        m: &Marking,
        fin: &Marking,
        remaining: usize,
        path: &mut Vec<Firing>,
        out: &mut Vec<Vec<Firing>>,
    ) {
        if remaining == 0 {
            if m == fin {
                out.push(path.clone());
            }
            return;
        }
        // Consecutive zero-required plain firings commute: only their
        // nondecreasing-id order is a path.
        let prev_zero_required = path
            .last()
            .filter(|f| net.transition(f.trans).inputs.is_empty() && f.optional_taken.is_empty())
            .map(|f| f.trans);
        for (tid, t) in net.transitions() {
            if !can_fire(m, t) {
                continue;
            }
            if t.inputs.is_empty()
                && t.optionals.is_empty()
                && prev_zero_required.is_some_and(|prev| tid < prev)
            {
                continue;
            }
            let avail: Vec<u32> = t
                .optionals
                .iter()
                .zip(net.optional_overlap(tid))
                .map(|(&(p, cap), &overlap)| cap.min(m.tokens(p).saturating_sub(overlap)))
                .collect();
            let mut choice = vec![0u32; avail.len()];
            loop {
                let firing = Firing::with_optionals(tid, choice.clone());
                let mut child = m.clone();
                apply(&mut child, net, &firing);
                path.push(firing);
                walk(net, &child, fin, remaining - 1, path, out);
                path.pop();
                // Odometer, lowest digit first.
                let Some(i) = (0..choice.len()).find(|&i| choice[i] < avail[i]) else {
                    break;
                };
                choice[i] += 1;
                choice[..i].fill(0);
            }
        }
    }
    let mut out = Vec::new();
    for len in 1..=max_len {
        walk(net, init, fin, len, &mut Vec::new(), &mut out);
    }
    out
}
