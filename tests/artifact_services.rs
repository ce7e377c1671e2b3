//! `AnalysisArtifact` save/load roundtrips for all three bundled services
//! at their real Table 1 sizes, plus the acceptance scenario of the
//! serving layer: two sessions against two *different* catalog services
//! running concurrently over one shared pool, each matching its
//! dedicated-engine run.

use apiphany_repro::core::{Engine, Event, JobRuntime, QuerySpec, ServiceCatalog};
use apiphany_repro::services::{Slack, Square, Stripe};
use apiphany_repro::spec::Service;

/// Mines an engine from a service's library + scripted scenario (the
/// cheap witnesses-only analysis; the full `AnalyzeAPI` loop is
/// exercised in `services_e2e.rs`).
fn mined_engine(library: apiphany_repro::spec::Library, witnesses: Vec<apiphany_repro::spec::Witness>) -> Engine {
    Engine::from_witnesses(library, witnesses)
}

fn roundtrip(name: &str, library: apiphany_repro::spec::Library, witnesses: Vec<apiphany_repro::spec::Witness>) {
    let engine = mined_engine(library, witnesses);
    let artifact = engine.save_analysis().named(name);
    let json = artifact.to_json();
    // `to_json` prints the body once and appends the digest pair; the
    // bytes are exactly those of the encoded value.
    assert_eq!(json, artifact.to_value().to_json(), "{name}");
    // One changed byte of the body fails the digest check.
    let service = format!("\"service\":\"{name}\"");
    let tampered = json.replacen(&service, &format!("\"service\":\"{name}X\""), 1);
    assert_ne!(tampered, json, "{name}");
    let err = apiphany_repro::core::AnalysisArtifact::from_json(&tampered).unwrap_err();
    assert!(err.to_string().contains("digest mismatch"), "{name}: {err}");
    let back = apiphany_repro::core::AnalysisArtifact::from_json(&json)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(back.service.as_deref(), Some(name));
    assert_eq!(back.semlib.n_groups(), engine.semlib().n_groups(), "{name}");
    assert_eq!(back.witnesses.len(), engine.witnesses().len(), "{name}");
    // The reloaded artifact drives a working engine with the same mined
    // library (group count and method coverage agree).
    let reloaded = Engine::load_analysis(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(reloaded.semlib().n_groups(), engine.semlib().n_groups(), "{name}");
    assert_eq!(
        reloaded.semlib().lib.stats().n_methods,
        engine.semlib().lib.stats().n_methods,
        "{name}"
    );
}

#[test]
fn slack_artifact_roundtrips() {
    let mut svc = Slack::new();
    let w = svc.scenario();
    roundtrip("slack", svc.library().clone(), w);
}

#[test]
fn stripe_artifact_roundtrips() {
    let mut svc = Stripe::new();
    let w = svc.scenario();
    roundtrip("stripe", svc.library().clone(), w);
}

#[test]
fn square_artifact_roundtrips() {
    let mut svc = Square::new();
    let w = svc.scenario();
    roundtrip("square", svc.library().clone(), w);
}

/// The semantic fingerprint of an event stream (wall-clock excluded).
fn fingerprint(events: &[Event]) -> Vec<String> {
    events
        .iter()
        .map(|e| match e {
            Event::CandidateFound { canonical, r_orig, r_re_now, cost, .. } => {
                format!("cand {r_orig} {r_re_now} {cost:.9} {canonical:?}")
            }
            Event::DepthExhausted { depth } => format!("depth {depth}"),
            Event::BudgetExhausted => "budget".into(),
            Event::Finished(result) => format!(
                "finished {:?} {:?}",
                result.stats.outcome,
                result
                    .ranked
                    .iter()
                    .map(|r| (r.gen_index, r.rank_at_generation))
                    .collect::<Vec<_>>()
            ),
        })
        .collect()
}

/// ISSUE 4 acceptance: two sessions against two different real catalog
/// services (Slack and Square), concurrent over one shared pool, each
/// yielding the dedicated single-engine stream.
#[test]
fn two_real_services_serve_concurrently_over_one_pool() {
    let catalog = ServiceCatalog::new();
    {
        let mut svc = Slack::new();
        let w = svc.scenario();
        catalog.register_spec("slack", svc.library().clone(), w).unwrap();
    }
    {
        let mut svc = Square::new();
        let w = svc.scenario();
        catalog.register_spec("square", svc.library().clone(), w).unwrap();
    }
    // Benchmark-style queries (1.x / 3.1 type vocabularies); short
    // depths keep the search CI-sized.
    let slack_spec = QuerySpec::output("[objs_conversation]")
        .service("slack")
        .depth(3)
        .top_k(5);
    let square_spec = QuerySpec::output("[Invoice]")
        .service("square")
        .input("location_id", "Location.id")
        .depth(3)
        .top_k(5);

    let dedicated_slack = fingerprint(
        &catalog.engine("slack").unwrap().open(&slack_spec).unwrap().collect::<Vec<_>>(),
    );
    let dedicated_square = fingerprint(
        &catalog
            .engine("square")
            .unwrap()
            .open(&square_spec)
            .unwrap()
            .collect::<Vec<_>>(),
    );
    assert!(
        dedicated_slack.iter().any(|e| e.starts_with("cand")),
        "slack query finds candidates: {dedicated_slack:?}"
    );
    assert!(
        dedicated_square.iter().any(|e| e.starts_with("cand")),
        "square query finds candidates: {dedicated_square:?}"
    );

    let runtime = JobRuntime::new(2);
    let mut slack_session = runtime.submit_catalog(&catalog, &slack_spec).unwrap();
    let mut square_session = runtime.submit_catalog(&catalog, &square_spec).unwrap();
    // Interleave the two streams by alternating polls — both sessions
    // are genuinely in flight at once on the shared pool.
    let mut slack_events = Vec::new();
    let mut square_events = Vec::new();
    while !(slack_session.is_finished() && square_session.is_finished()) {
        if let Some(e) = slack_session.try_next() {
            slack_events.push(e);
        }
        if let Some(e) = square_session.try_next() {
            square_events.push(e);
        }
    }
    assert_eq!(fingerprint(&slack_events), dedicated_slack);
    assert_eq!(fingerprint(&square_events), dedicated_square);
}
