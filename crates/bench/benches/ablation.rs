//! Design-choice ablations: type-granularity (Fig. 13's variants) and the
//! array-oblivious encoding's net-size effect (copies on/off).

use apiphany_mining::{mine_types, parse_query, Granularity, MiningConfig};
use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
use apiphany_synth::{Budget, CancelToken, SynthEvent, SynthesisConfig, Synthesizer};
use apiphany_ttn::{build_ttn, BuildOptions};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_granularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13_granularity_fig7");
    group.sample_size(10);
    for granularity in [Granularity::Mined, Granularity::LocationOnly, Granularity::Syntactic] {
        let cfg = MiningConfig { granularity, ..MiningConfig::default() };
        let semlib = mine_types(&fig7_library(), &fig4_witnesses(), &cfg);
        let synth = Synthesizer::new(semlib, &BuildOptions::default());
        let Ok(q) =
            parse_query(synth.semlib(), "{ channel_name: Channel.name } → [Profile.email]")
        else {
            continue;
        };
        group.bench_function(format!("{granularity:?}"), |b| {
            b.iter(|| {
                let cfg = SynthesisConfig {
                    budget: Budget { max_candidates: Some(200), ..Budget::depth(7) },
                    ..SynthesisConfig::default()
                };
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

fn bench_net_size(c: &mut Criterion) {
    let semlib = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default());
    let mut group = c.benchmark_group("build_options");
    for (name, opts) in [
        ("with_copies", BuildOptions::default()),
        ("without_copies", BuildOptions { with_copies: false, ..BuildOptions::default() }),
        ("filter_depth_2", BuildOptions { max_filter_depth: 2, ..BuildOptions::default() }),
    ] {
        group.bench_function(name, |b| b.iter(|| build_ttn(&semlib, &opts).n_transitions()));
    }
    group.finish();
}

criterion_group!(benches, bench_granularity, bench_net_size);
criterion_main!(benches);
