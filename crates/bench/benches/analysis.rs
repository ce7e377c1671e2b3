//! Table 1 path: witness mining throughput per API (spec + scenario
//! witnesses → semantic library), and loading the saved result:
//! `artifact_decode` times `AnalysisArtifact::from_json` plus dropping the
//! artifact, on each Table 2 API's prepared engine's saved artifact (the
//! files perfbench's `synthd` workload registers by path).

use apiphany_benchmarks::{default_analyze_config, prepare_api, scenario_witnesses, Api};
use apiphany_core::AnalysisArtifact;
use apiphany_mining::{mine_types, MiningConfig};
use apiphany_services::{Slack, Square, Stripe};
use apiphany_spec::Service;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_mining(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_mine_types");
    group.sample_size(10);
    for api in Api::ALL {
        let lib = match api {
            Api::Slack => Slack::new().library().clone(),
            Api::Stripe => Stripe::new().library().clone(),
            Api::Square => Square::new().library().clone(),
        };
        let witnesses = scenario_witnesses(api);
        group.bench_function(api.name(), |b| {
            b.iter(|| mine_types(&lib, &witnesses, &MiningConfig::default()))
        });
    }
    group.finish();
}

fn bench_artifact_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("artifact_decode");
    for api in Api::ALL {
        let text = prepare_api(api, &default_analyze_config()).engine.save_analysis().to_json();
        group.bench_function(format!("{} ({} KB)", api.name(), text.len() / 1024), |b| {
            b.iter(|| AnalysisArtifact::from_json(&text).expect("a saved artifact decodes"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_mining, bench_artifact_decode);
criterion_main!(benches);
