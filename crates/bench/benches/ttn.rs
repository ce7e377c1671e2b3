//! TTN construction and path enumeration; mirrors the paper's solver
//! comparison (§5: "the ILP solver is much more efficient" at enumerating
//! many paths) as DFS vs branch-and-bound ILP on the Fig. 7 net.

use apiphany_mining::{mine_types, parse_query, MiningConfig};
use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
use apiphany_ttn::ilp::enumerate_ilp_paths;
use apiphany_ttn::{build_ttn, enumerate_paths, query_markings, BuildOptions, SearchConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_ttn(c: &mut Criterion) {
    let semlib = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default());
    c.bench_function("build_ttn_fig7", |b| {
        b.iter(|| build_ttn(&semlib, &BuildOptions::default()))
    });

    let net = build_ttn(&semlib, &BuildOptions::default());
    let q = parse_query(&semlib, "{ channel_name: Channel.name } → [Profile.email]").unwrap();
    let (init, fin) = query_markings(&net, &q).unwrap();
    let mut group = c.benchmark_group("enumerate_paths_fig7_len6");
    group.sample_size(10);
    group.bench_function("Dfs", |b| {
        b.iter(|| {
            let cfg = SearchConfig { max_len: 6, ..SearchConfig::default() };
            let mut n = 0u32;
            enumerate_paths(&net, &init, &fin, &cfg, &mut |_| {
                n += 1;
                true
            });
            n
        })
    });
    group.bench_function("Ilp", |b| {
        b.iter(|| {
            let mut n = 0u32;
            for len in 1..=6 {
                enumerate_ilp_paths(&net, &init, &fin, len, &mut |_| {
                    n += 1;
                    true
                });
            }
            n
        })
    });
    group.finish();

    // Parallel DFS: same workload, varying thread counts (the output is
    // bit-identical by construction; this measures the pool overhead /
    // speedup tradeoff on the host).
    let mut group = c.benchmark_group("enumerate_paths_fig7_len6_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("threads{threads}"), |b| {
            b.iter(|| {
                let cfg = SearchConfig { max_len: 6, threads, ..SearchConfig::default() };
                let mut n = 0u32;
                enumerate_paths(&net, &init, &fin, &cfg, &mut |_| {
                    n += 1;
                    true
                });
                n
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ttn);
criterion_main!(benches);
