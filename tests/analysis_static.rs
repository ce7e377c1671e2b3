//! Cross-crate tests of the static-analysis subsystem: dead-transition
//! pruning is provably stream-preserving, the distance lower bound never
//! exceeds a real solution's length, and an unreachable query is rejected
//! structurally without entering the search.

use std::time::Instant;

use apiphany_repro::analysis::{precheck_query, Precheck, Reachability};
use apiphany_repro::benchmarks::{benchmark, default_run_config, prepare_api, Api};
use apiphany_repro::core::{Budget, Engine, EngineError, Event, QuerySpec, RunConfig};
use apiphany_repro::mining::AnalyzeConfig;
use apiphany_repro::spec::fixtures::{fig4_witnesses, fig7_library};
use apiphany_repro::spec::{CancelToken, LibraryBuilder, SynTy};
use apiphany_repro::synth::{SynthEvent, SynthesisConfig};
use proptest::prelude::*;

/// A synthesis event stream, flattened for exact comparison: candidates
/// carry their canonical form, generation index, and path length; depth
/// markers carry the level.
#[derive(Debug, PartialEq)]
enum Step {
    Candidate { canonical: String, index: usize, path_len: usize },
    Depth(usize),
}

fn stream(engine: &Engine, query_text: &str, cfg: &SynthesisConfig) -> (Vec<Step>, String) {
    let query = engine.query(query_text).unwrap();
    let mut steps = Vec::new();
    let stats = engine.synthesizer().synthesize(
        &query,
        cfg,
        &CancelToken::new(),
        &mut |event| {
            steps.push(match event {
                SynthEvent::Candidate(c) => Step::Candidate {
                    canonical: format!("{:?}", c.canonical),
                    index: c.index,
                    path_len: c.path_len,
                },
                SynthEvent::DepthExhausted { depth } => Step::Depth(depth),
            });
            true
        },
    );
    (steps, format!("{:?}", stats.outcome))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole guarantee: dead-transition pruning plus the
    /// distance-bound deepening start leave the synthesis event stream
    /// bit-identical, at every thread count.
    #[test]
    fn pruning_preserves_event_streams_at_all_thread_counts(
        depth in 3usize..8,
        query_idx in 0usize..3,
    ) {
        let engine = Engine::from_witnesses(fig7_library(), fig4_witnesses());
        let query_text = [
            "{ channel_name: Channel.name } → [Profile.email]",
            "{ } → [Channel]",
            "{ channel_name: Channel.name } → [User.id]",
        ][query_idx];
        let base = SynthesisConfig {
            budget: Budget::depth(depth),
            ..SynthesisConfig::default()
        };
        let reference = stream(
            &engine,
            query_text,
            &SynthesisConfig { prune: false, ..base.clone() },
        );
        prop_assert!(
            reference.0.iter().any(|s| matches!(s, Step::Depth(_))),
            "the unpruned run must at least finish its levels"
        );
        for threads in [1usize, 2, 4] {
            let pruned = stream(
                &engine,
                query_text,
                &SynthesisConfig { prune: true, threads, ..base.clone() },
            );
            prop_assert_eq!(&pruned.0, &reference.0);
            prop_assert_eq!(&pruned.1, &reference.1);
        }
    }
}

/// The distance bound is a true lower bound on fig7: iterative deepening
/// starting at `start_len` never skips a level that held a solution.
#[test]
fn fig7_distance_bound_is_below_the_shortest_solution() {
    let engine = Engine::from_witnesses(fig7_library(), fig4_witnesses());
    let query = engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
    let mut cfg = RunConfig::default();
    cfg.synthesis.budget = Budget::depth(7);
    let result = engine.run(&query, &cfg);
    let shortest = result.ranked.iter().map(|r| r.path_len).min().expect("solutions exist");
    match engine.precheck(&query) {
        Precheck::Feasible { start_len } => {
            assert!(
                start_len <= shortest,
                "bound {start_len} skips the shortest solution at {shortest}"
            );
        }
        other => panic!("expected feasible, got {other:?}"),
    }
}

/// Same pinning on the three full-scale services: for one solvable
/// benchmark per API, the pre-check bound stays at or below the length
/// of every found solution (light analysis budgets keep this
/// debug-friendly).
#[test]
fn service_distance_bounds_are_below_found_solutions() {
    let analyze = AnalyzeConfig {
        max_rounds: 1,
        attempts_per_subset: 1,
        max_subsets_per_method: 2,
        ..AnalyzeConfig::default()
    };
    for (api, id) in [(Api::Slack, "1.1"), (Api::Stripe, "2.1"), (Api::Square, "3.1")] {
        let prepared = prepare_api(api, &analyze);
        let bench = benchmark(id).unwrap();
        let Ok(query) = prepared.engine.query(bench.query) else {
            panic!("{id}: benchmark query must resolve under full mining");
        };
        let Precheck::Feasible { start_len } = prepared.engine.precheck(&query) else {
            panic!("{id}: a solvable benchmark must pass the pre-check");
        };
        let result = prepared.engine.run(&query, &default_run_config(20, 4));
        let Some(shortest) = result.ranked.iter().map(|r| r.path_len).min() else {
            // Depth 4 found nothing for this benchmark; the bound is
            // then only required to be consistent with that.
            assert!(start_len >= 1);
            continue;
        };
        assert!(
            start_len <= shortest,
            "{id}: bound {start_len} skips a found solution at {shortest}"
        );
    }
}

/// The acceptance criterion for the pre-check: a statically unreachable
/// query is rejected with a structured explanation in well under 10 ms,
/// without ever entering the DFS.
#[test]
fn unreachable_query_is_rejected_structurally_and_fast() {
    // `make_thing` needs a secret no operation produces, so `Thing` is
    // unreachable from an empty input record.
    let lib = LibraryBuilder::new("demo")
        .object("Thing", |o| o.field("id", SynTy::Str))
        .method("make_thing", |m| {
            m.param("secret", SynTy::Str).returns(SynTy::object("Thing"))
        })
        .build();
    let engine = Engine::from_witnesses(lib, Vec::new());
    let spec = QuerySpec::output("Thing").depth(8);
    let start = Instant::now();
    let err = engine.open(&spec).expect_err("Thing from {} is unreachable");
    let elapsed = start.elapsed();
    let EngineError::Unreachable { missing_types, blocked_ops } = err else {
        panic!("expected Unreachable, got {err:?}");
    };
    assert_eq!(blocked_ops, vec!["make_thing".to_string()]);
    assert!(
        missing_types.iter().any(|t| t.contains("secret")),
        "the unproducible type is named: {missing_types:?}"
    );
    assert!(
        elapsed.as_millis() < 10,
        "pre-check took {elapsed:?}; it must not enter the search"
    );

    // The same shape through the synthesizer: a pruned run on an
    // unreachable output emits only its depth markers and exhausts.
    let query = engine.query("{ } → Thing").unwrap();
    assert!(matches!(
        precheck_query(engine.synthesizer().net(), engine.semlib(), &query),
        Precheck::Unreachable { .. }
    ));
    let mut events = Vec::new();
    let stats = engine.synthesizer().synthesize(
        &query,
        &SynthesisConfig { budget: Budget::depth(5), ..SynthesisConfig::default() },
        &CancelToken::new(),
        &mut |event| {
            events.push(matches!(event, SynthEvent::Candidate(_)));
            true
        },
    );
    assert_eq!(events.len(), 5, "one DepthExhausted per level, nothing else");
    assert!(events.iter().all(|is_candidate| !is_candidate));
    assert_eq!(stats.search.nodes, 0, "the DFS never ran");
}

/// An input only the query supplies revives a method the engine's
/// live core drops: the query still solves through that method, with
/// the stream of an unpruned search.
#[test]
fn query_only_input_revives_a_method_the_live_core_drops() {
    let lib = LibraryBuilder::new("demo")
        .object("Thing", |o| o.field("id", SynTy::Str))
        .method("make_thing", |m| {
            m.param("secret", SynTy::Str).returns(SynTy::object("Thing"))
        })
        .method("list_things", |m| m.returns(SynTy::array(SynTy::object("Thing"))))
        .build();
    let engine = Engine::from_witnesses(lib, Vec::new());
    let net = engine.synthesizer().net();
    let seedless = Reachability::compute(net, std::iter::empty());
    let dropped: Vec<String> =
        seedless.dead_transitions(net).map(|t| net.transition_label(t)).collect();
    assert!(dropped.contains(&"make_thing".to_string()), "{dropped:?}");

    let query = "{ s: make_thing.in.secret } → Thing";
    let base = SynthesisConfig { budget: Budget::depth(3), ..SynthesisConfig::default() };
    let reference = stream(&engine, query, &SynthesisConfig { prune: false, ..base.clone() });
    assert!(
        reference.0.iter().any(|step| matches!(
            step,
            Step::Candidate { canonical, .. } if canonical.contains("make_thing")
        )),
        "{reference:?}"
    );
    for threads in [1usize, 2] {
        let pruned = stream(&engine, query, &SynthesisConfig { threads, ..base.clone() });
        assert_eq!(pruned, reference, "threads = {threads}");
    }
}

/// Catalog-routed sessions surface the same structured rejection.
#[test]
fn catalog_open_reports_unreachable_queries() {
    use apiphany_repro::core::ServiceCatalog;
    let lib = LibraryBuilder::new("demo")
        .object("Thing", |o| o.field("id", SynTy::Str))
        .method("make_thing", |m| {
            m.param("secret", SynTy::Str).returns(SynTy::object("Thing"))
        })
        .build();
    let catalog = ServiceCatalog::new();
    catalog.register_spec("demo", lib, Vec::new()).unwrap();
    let spec = QuerySpec::output("Thing").service("demo").depth(8);
    match catalog.open(&spec) {
        Err(EngineError::Unreachable { blocked_ops, .. }) => {
            assert_eq!(blocked_ops, vec!["make_thing".to_string()]);
        }
        other => panic!("expected Unreachable, got {other:?}"),
    }
}

/// Engines carry their lint diagnostics, and saved artifacts persist them
/// byte-for-byte across the JSON roundtrip.
#[test]
fn diagnostics_survive_the_artifact_roundtrip() {
    let engine = Engine::from_witnesses(fig7_library(), fig4_witnesses());
    // fig7's round-tripped document and witnessed net are clean, so pick
    // a library with a known defect to make the list non-empty.
    let lib = LibraryBuilder::new("demo")
        .object("Used", |o| o.field("id", SynTy::Str))
        .object("Orphan", |o| o.field("x", SynTy::Int))
        .method("make", |m| m.returns(SynTy::object("Used")))
        .build();
    let dirty = Engine::from_witnesses(lib, Vec::new());
    assert!(
        dirty.diagnostics().iter().any(|d| d.location == "Orphan"),
        "{:?}",
        dirty.diagnostics()
    );
    for e in [&engine, &dirty] {
        let reloaded = Engine::load_analysis(&e.save_analysis().to_json()).unwrap();
        assert_eq!(reloaded.save_analysis().diagnostics, e.diagnostics());
    }
}

/// A full `Event` stream (search + RE ranking) is also unchanged by
/// pruning — the engine-level restatement of the tentpole guarantee.
#[test]
fn session_streams_are_identical_with_and_without_pruning() {
    let engine = Engine::from_witnesses(fig7_library(), fig4_witnesses());
    let query = engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
    let collect = |prune: bool, threads: usize| {
        let mut cfg = RunConfig::default();
        cfg.synthesis.budget = Budget::depth(7);
        cfg.synthesis.prune = prune;
        cfg.synthesis.threads = threads;
        engine
            .session(&query, &cfg)
            .unwrap()
            .filter_map(|e| match e {
                Event::CandidateFound { canonical, r_orig, r_re_now, cost, .. } => {
                    Some(format!("{canonical:?}|{r_orig}|{r_re_now}|{cost}"))
                }
                Event::DepthExhausted { depth } => Some(format!("depth:{depth}")),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    let reference = collect(false, 1);
    assert!(!reference.is_empty());
    for threads in [1usize, 2, 4] {
        assert_eq!(collect(true, threads), reference, "threads = {threads}");
    }
}
