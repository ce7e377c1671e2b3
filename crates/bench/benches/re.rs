//! Retrospective-execution throughput: candidates ranked per second
//! (the paper reports cost computation takes ~1% of synthesis time).
//!
//! `re_cost_15_rounds` and `re_single_run` time the Fig. 2 program on the
//! Fig. 4 witnesses; `re_cost_deep_1_3` times `cost_of` over all 28 depth-6
//! candidates of Table 2's query 1.3 on the prepared Slack engine, the RE
//! work of one pass of perfbench's `deep` workload.

use apiphany_benchmarks::{
    benchmark, default_analyze_config, default_run_config, prepare_api, Api,
};
use apiphany_lang::parse_program;
use apiphany_mining::{mine_types, parse_query, MiningConfig};
use apiphany_re::{cost_of, CostParams, ReContext};
use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
use apiphany_synth::Budget;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_re(c: &mut Criterion) {
    let witnesses = fig4_witnesses();
    let semlib = mine_types(&fig7_library(), &witnesses, &MiningConfig::default());
    let ctx = ReContext::new(&semlib, &witnesses);
    let q = parse_query(&semlib, "{ channel_name: Channel.name } → [Profile.email]").unwrap();
    let program = parse_program(
        r"\channel_name → {
            c ← c_list()
            if c.name = channel_name
            uid ← c_members(channel=c.id)
            let u = u_info(user=uid)
            return u.profile.email
        }",
    )
    .unwrap();
    c.bench_function("re_cost_15_rounds", |b| {
        b.iter(|| cost_of(&ctx, &program, &q, &CostParams::default()))
    });
    c.bench_function("re_single_run", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            ctx.run(&program, &q, seed)
        })
    });
}

fn bench_re_deep(c: &mut Criterion) {
    let prepared = prepare_api(Api::Slack, &default_analyze_config());
    let engine = &prepared.engine;
    let query = engine
        .query(benchmark("1.3").expect("Table 2 has 1.3").query)
        .unwrap();
    // Bounded by depth alone, as in perfbench.
    let mut cfg = default_run_config(60, 6);
    cfg.synthesis.budget = Budget::depth(6);
    cfg.synthesis.threads = 1;
    let candidates: Vec<_> = engine
        .run(&query, &cfg)
        .ranked
        .into_iter()
        .map(|r| r.program)
        .collect();
    assert_eq!(candidates.len(), 28, "1.3 has 28 candidates at depth 6");
    let ctx = ReContext::new(engine.semlib(), engine.witnesses());
    let params = CostParams::default();
    c.bench_function("re_cost_deep_1_3", |b| {
        b.iter(|| {
            candidates
                .iter()
                .map(|p| cost_of(&ctx, p, &query, &params).total())
                .sum::<f64>()
        })
    });
}

criterion_group!(benches, bench_re, bench_re_deep);
criterion_main!(benches);
