//! End-to-end synthesis (search → Progs → Lift → type check) on
//! representative easy benchmarks (Table 2's sub-second rows).

use apiphany_mining::parse_query;
use apiphany_synth::{Budget, CancelToken, SynthEvent, SynthesisConfig, Synthesizer};
use apiphany_ttn::BuildOptions;
use apiphany_mining::{mine_types, MiningConfig};
use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
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

criterion_group!(benches, bench_synthesis);
criterion_main!(benches);
