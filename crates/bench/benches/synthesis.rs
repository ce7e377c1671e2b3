//! End-to-end synthesis (search → Progs → Lift → type check) on
//! representative easy benchmarks (Table 2's sub-second rows), and the
//! post-search stages alone on every Table 2 query.
//!
//! `post_search_table2_depth4` runs `Progs`, lift, type check,
//! canonicalize and dedupe over the 247 paths of the 32 Table 2 queries
//! up to depth 4, found once beforehand: the post-search work of one
//! perfbench `table2` pass (265 programs). It type-checks every program,
//! as perfbench's traced pipeline does; `Synthesizer::synthesize` checks
//! only new canonical forms.

use std::collections::HashSet;

use apiphany_benchmarks::{benchmarks, default_analyze_config, prepare_api, Api, Prepared};
use apiphany_lang::anf::canonicalize;
use apiphany_mining::parse_query;
use apiphany_mining::{mine_types, MiningConfig, Query};
use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
use apiphany_synth::{
    enumerate_programs, lift, type_check, Budget, CancelToken, SynthEvent, SynthesisConfig,
    Synthesizer,
};
use apiphany_ttn::{enumerate_paths, query_markings, BuildOptions, Firing, PlaceId, SearchConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_synthesis(c: &mut Criterion) {
    let semlib = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default());
    let synth = Synthesizer::new(semlib, &BuildOptions::default());
    let mut group = c.benchmark_group("synthesize_fig7");
    group.sample_size(10);
    for (name, query) in [
        ("emails_of_channel", "{ channel_name: Channel.name } → [Profile.email]"),
        ("all_channels", "{ } → [Channel]"),
        ("user_name", "{ uid: User.id } → User.name"),
    ] {
        let q = parse_query(synth.semlib(), query).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                let cfg = SynthesisConfig { budget: Budget::depth(7), ..SynthesisConfig::default() };
                let mut candidates = Vec::new();
                synth.synthesize(&q, &cfg, &CancelToken::new(), &mut |event| {
                    if let SynthEvent::Candidate(c) = event {
                        candidates.push(c);
                    }
                    true
                });
                candidates.len()
            })
        });
    }
    group.finish();
}

/// One Table 2 query with its depth-4 paths.
struct PostSearchJob {
    /// Index into the prepared APIs.
    api: usize,
    query: Query,
    params: Vec<(String, PlaceId)>,
    paths: Vec<Vec<Firing>>,
}

fn bench_post_search(c: &mut Criterion) {
    let prepared: Vec<Prepared> =
        Api::ALL.into_iter().map(|api| prepare_api(api, &default_analyze_config())).collect();
    let mut jobs: Vec<PostSearchJob> = Vec::new();
    for bench in benchmarks() {
        let api = prepared.iter().position(|p| p.api == bench.api).expect("prepared");
        let engine = &prepared[api].engine;
        let net = engine.synthesizer().net();
        let query = engine.query(bench.query).expect("Table 2 queries resolve");
        let (init, fin) = query_markings(net, &query).expect("Table 2 queries have markings");
        let params = query
            .params
            .iter()
            .map(|(n, t)| (n.clone(), net.place_of(t).expect("a place per input")))
            .collect();
        let mut paths = Vec::new();
        let cfg = SearchConfig { max_len: 4, ..SearchConfig::default() };
        enumerate_paths(net, &init, &fin, &cfg, &mut |path| {
            paths.push(path.to_vec());
            true
        });
        jobs.push(PostSearchJob { api, query, params, paths });
    }
    assert_eq!(jobs.iter().map(|j| j.paths.len()).sum::<usize>(), 247, "depth-4 paths");
    let per_path = SynthesisConfig::default().programs_per_path;
    c.bench_function("post_search_table2_depth4", |b| {
        b.iter(|| {
            let mut candidates = 0usize;
            for job in &jobs {
                let engine = &prepared[job.api].engine;
                let (semlib, net) = (engine.semlib(), engine.synthesizer().net());
                let mut seen = HashSet::new();
                for path in &job.paths {
                    enumerate_programs(net, path, &job.params, per_path, &mut |anf| {
                        let Ok(lifted) = lift(semlib, &job.query, anf) else { return true };
                        if type_check(semlib, &lifted, &job.query).is_ok()
                            && seen.insert(canonicalize(&lifted))
                        {
                            candidates += 1;
                        }
                        true
                    });
                }
            }
            candidates
        })
    });
}

criterion_group!(benches, bench_synthesis, bench_post_search);
criterion_main!(benches);
