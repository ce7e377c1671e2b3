//! Differential property test of the live-core search plan: on random
//! nets and random seed sets, a query planned over the net's seedless
//! live core ([`LiveCore::plan`]), the per-query fixpoint and prune
//! ([`SearchPlan::new`]) and an unpruned search of the full net (what
//! `SynthesisConfig::prune = false` runs) emit the same event stream at
//! 1 and 2 threads. The two pruned plans search the same net from the
//! same level, so a serial search of either reports equal
//! [`SearchStats`] too. (At 2 threads the counters depend on which
//! worker proves a dead state first, even for one plan searched twice,
//! so there only the path count is compared. The unpruned search also
//! visits the levels below the distance bound and the transitions the
//! prune removes, so only its stream is compared.)

use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, Ordering};

use apiphany_repro::analysis::{LiveCore, Reachability, SearchPlan};
use apiphany_repro::spec::{GroupId, SemTy};
use apiphany_repro::ttn::{
    apply, can_fire, enumerate_search, CancelToken, Firing, Marking, PlaceId, SearchConfig,
    SearchEvent, SearchOutcome, SearchStats, TransKind, Transition, Ttn,
};
use proptest::prelude::*;

const N_PLACES: usize = 6;
const MAX_LEN: usize = 5;

/// A random small net. Each transition consumes up to two places, maybe
/// takes an optional edge, and outputs one token, two tokens, or none.
/// About a third of the transitions need no input, so the seedless
/// fixpoint usually keeps part of the net and kills the rest: the
/// transitions behind a place no live transition produces.
fn arb_net() -> impl Strategy<Value = Ttn> {
    let trans = prop::collection::vec(
        (
            prop::collection::vec(0..N_PLACES, 0..=2), // required inputs
            prop::option::of(0..N_PLACES),             // optional input
            0..N_PLACES,                               // output
            0..N_PLACES,                               // second output
            0..5u8,                                    // output shape
        ),
        2..=8,
    );
    trans.prop_map(|specs| {
        let mut net = Ttn::new();
        let places: Vec<PlaceId> = (0..N_PLACES)
            .map(|i| net.intern_place(SemTy::Group(GroupId(i as u32))))
            .collect();
        for (i, (inputs, optional, output, second, shape)) in specs.into_iter().enumerate() {
            let mut required: Vec<(PlaceId, u32)> = Vec::new();
            for p in inputs {
                match required.iter_mut().find(|(q, _)| *q == places[p]) {
                    Some(slot) => slot.1 += 1,
                    None => required.push((places[p], 1)),
                }
            }
            required.sort();
            let outputs = match shape {
                // A sink; one with no inputs would be a no-op.
                0 if !required.is_empty() => Vec::new(),
                1 if output != second => vec![(places[output], 1), (places[second], 1)],
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

/// One search event, with firings named by transition so that streams
/// over differently numbered nets compare.
#[derive(Debug, PartialEq)]
enum Step {
    Path(Vec<(String, Vec<u32>)>),
    Depth(usize),
}

/// Searches a plan the way `Synthesizer::synthesize` does: `None` (an
/// unproducible output) reports every level exhausted without a search.
fn search(
    plan: Option<&SearchPlan<'_>>,
    init: &Marking,
    fin: &Marking,
    threads: usize,
) -> (Vec<Step>, SearchStats, SearchOutcome) {
    let Some(plan) = plan else {
        let steps = (1..=MAX_LEN).map(Step::Depth).collect();
        return (steps, SearchStats::default(), SearchOutcome::Exhausted);
    };
    let net = &*plan.net;
    let cfg = SearchConfig {
        max_len: MAX_LEN,
        start_len: plan.start_len,
        max_paths: 3000,
        threads,
        ..SearchConfig::default()
    };
    let mut steps = Vec::new();
    let report = enumerate_search(net, init, fin, &cfg, &CancelToken::new(), &mut |event| {
        steps.push(match event {
            SearchEvent::Path(path) => Step::Path(
                path.iter()
                    .map(|f: &Firing| (net.transition_label(f.trans), f.optional_taken.clone()))
                    .collect(),
            ),
            SearchEvent::DepthExhausted { depth } => Step::Depth(depth),
        });
        true
    });
    (steps, report.stats, report.outcome)
}

/// Cases run so far, and how many planned over a real core, fell back
/// to the full net, and revived a transition the core dropped.
const CASES: u32 = 128;
static CASES_RUN: AtomicU32 = AtomicU32::new(0);
static CORE_PATH: AtomicU32 = AtomicU32::new(0);
static FALLBACK: AtomicU32 = AtomicU32::new(0);
static REVIVED: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn core_path_per_query_prune_and_unpruned_search_agree(
        net in arb_net(),
        seeds in prop::collection::vec(0..N_PLACES, 0..=2),
        walk in prop::collection::vec(0..64usize, 1..=MAX_LEN),
        output in 0..N_PLACES,
    ) {
        let seeds: Vec<PlaceId> = seeds.into_iter().map(|p| PlaceId(p as u32)).collect();
        let mut init = Marking::empty(net.n_places());
        for &p in &seeds {
            init.add(p, 1);
        }
        // The output is where a random walk from the seeds ends when it
        // ends on one token, so most cases have paths.
        let mut end = init.clone();
        for &pick in &walk {
            let enabled: Vec<_> =
                net.transitions().filter(|(_, t)| can_fire(&end, t)).map(|(id, _)| id).collect();
            if enabled.is_empty() {
                break;
            }
            apply(&mut end, &net, &Firing::plain(enabled[pick % enabled.len()]));
        }
        let output = match end.nonzero().collect::<Vec<_>>()[..] {
            [(p, 1)] => p,
            _ => PlaceId(output as u32),
        };
        let mut fin = Marking::empty(net.n_places());
        fin.add(output, 1);

        let core = LiveCore::new(&net);
        let planned = core.plan(&net, &seeds, output);
        let per_query = SearchPlan::new(&net, &seeds, output);
        let unpruned = SearchPlan { net: Cow::Borrowed(&net), start_len: 1 };

        let seedless = Reachability::compute(&net, std::iter::empty());
        let kinds = |plan: &SearchPlan<'_>| {
            plan.net.transitions().map(|(_, t)| t.kind.clone()).collect::<Vec<_>>()
        };
        prop_assert_eq!(planned.is_some(), per_query.is_some());
        if let (Some(planned), Some(per_query)) = (&planned, &per_query) {
            prop_assert_eq!(kinds(planned), kinds(per_query));
            prop_assert_eq!(planned.start_len, per_query.start_len);
            if seedless.n_dead() > 0 {
                if seeds.iter().all(|&p| seedless.producible(p)) {
                    // The core itself, borrowed: nothing was rebuilt.
                    prop_assert!(matches!(planned.net, Cow::Borrowed(_)));
                    prop_assert_eq!(
                        planned.net.n_transitions(),
                        net.n_transitions() - seedless.n_dead()
                    );
                    CORE_PATH.fetch_add(1, Ordering::Relaxed);
                } else {
                    FALLBACK.fetch_add(1, Ordering::Relaxed);
                    if planned.net.n_transitions() > net.n_transitions() - seedless.n_dead() {
                        REVIVED.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }

        let (reference, _, reference_outcome) = search(Some(&unpruned), &init, &fin, 1);
        for threads in [1usize, 2] {
            let (core_steps, core_stats, core_outcome) =
                search(planned.as_ref(), &init, &fin, threads);
            let (query_steps, query_stats, query_outcome) =
                search(per_query.as_ref(), &init, &fin, threads);
            let (unpruned_steps, _, unpruned_outcome) =
                search(Some(&unpruned), &init, &fin, threads);
            prop_assert_eq!(&core_steps, &reference);
            prop_assert_eq!(&query_steps, &reference);
            prop_assert_eq!(&unpruned_steps, &reference);
            if threads == 1 {
                prop_assert_eq!(core_stats, query_stats);
            }
            prop_assert_eq!(core_stats.paths, query_stats.paths);
            prop_assert_eq!(core_outcome, reference_outcome);
            prop_assert_eq!(query_outcome, reference_outcome);
            prop_assert_eq!(unpruned_outcome, reference_outcome);
        }

        // Not vacuous: over all cases, each branch of the plan ran, and
        // some query's seeds revived a transition the core dropped.
        if CASES_RUN.fetch_add(1, Ordering::Relaxed) + 1 == CASES {
            prop_assert!(CORE_PATH.load(Ordering::Relaxed) > 0);
            prop_assert!(FALLBACK.load(Ordering::Relaxed) > 0);
            prop_assert!(REVIVED.load(Ordering::Relaxed) > 0);
        }
    }
}
