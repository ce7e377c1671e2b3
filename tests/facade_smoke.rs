//! Smoke test for the workspace façade: every crate re-exported by
//! `apiphany_repro` must be reachable under its short name, and the
//! cross-crate seams they expose must still line up.

use apiphany_repro::spec::Service;
use apiphany_repro::{benchmarks, core, json, lang, mining, re, services, spec, synth, ttn};

#[test]
fn every_reexported_crate_is_reachable() {
    // json: value model + parser.
    let v = json::parse(r#"{"ok": true}"#).unwrap();
    assert_eq!(v.get("ok").and_then(json::Value::as_bool), Some(true));

    // spec: fixture library from the paper's Fig. 7.
    let lib = spec::fixtures::fig7_library();
    assert!(!lib.methods.is_empty());

    // lang: parse a λ_A program.
    let p = lang::parse_program(r"\x → { c ← c_list() return c.id }").unwrap();
    assert!(!p.to_string().is_empty());

    // mining: mine semantic types from the Fig. 4 witnesses.
    let semlib = mining::mine_types(
        &lib,
        &spec::fixtures::fig4_witnesses(),
        &mining::MiningConfig::default(),
    );
    assert!(semlib.n_groups() > 0);

    // ttn: build a net over the mined library.
    let net = ttn::build_ttn(&semlib, &ttn::BuildOptions::default());
    assert!(net.n_transitions() > 0);

    // synth: construct a synthesizer over the same library.
    let synthesizer = synth::Synthesizer::new(semlib.clone(), &ttn::BuildOptions::default());
    assert!(synthesizer.semlib().n_groups() == semlib.n_groups());

    // re: retrospective-execution context over the witnesses.
    let witnesses = spec::fixtures::fig4_witnesses();
    let _ctx = re::ReContext::new(&semlib, &witnesses);

    // services: the three simulated APIs with their Table 1 sizes.
    assert_eq!(services::Slack::new().library().stats().n_methods, 174);
    assert_eq!(services::Stripe::new().library().stats().n_methods, 300);
    assert_eq!(services::Square::new().library().stats().n_methods, 175);

    // benchmarks: the Table 2 suite definitions.
    assert_eq!(benchmarks::benchmarks().len(), 32);

    // core: the top-level engine wired from all of the above; the
    // builder, the session stream, and the analysis artifact are the
    // primary surface.
    let engine: core::Engine = core::Engine::from_witnesses(
        spec::fixtures::fig7_library(),
        spec::fixtures::fig4_witnesses(),
    );
    let query = engine
        .query("{ channel_name: Channel.name } → [Profile.email]")
        .expect("query resolves");
    let mut cfg = core::RunConfig::default();
    cfg.synthesis.budget = core::Budget::depth(7);
    let session = engine.session(&query, &cfg).expect("budget is valid");
    assert!(matches!(session.last(), Some(core::Event::Finished(_))));

    // Builder + artifact: reload through JSON and answer the same query.
    let reloaded = core::Engine::builder()
        .build_options(ttn::BuildOptions::default())
        .from_artifact(
            core::AnalysisArtifact::from_json(&engine.save_analysis().to_json()).unwrap(),
        );
    assert!(reloaded.query("{ } → [Channel]").is_ok());
}
