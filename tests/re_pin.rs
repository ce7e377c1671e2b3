//! Pins retrospective execution on the paper's tasks, in two sections:
//! every Table 2 query at depth 3, then 1.1–1.3 at depth 6 (the `deep`
//! workload's candidates; only these reach nested binds, `return` of a
//! witness array and guards that set lazy inputs). For each candidate, in
//! generation order, its RE cost parts (`base`, `penalty`, `n_failed`,
//! `n_empty`) and a digest of the values its rounds return, and each
//! query's final rank order, must equal the table checked in beside this
//! file, `re_pin_table2.txt`. The queries run serially and again on two
//! threads, and both runs must produce that one table: the thread count
//! is not part of it. Only the depth-6 section starts the search's worker
//! team; a search below depth 4 runs serially whatever the thread count.
//!
//! Any change to RE's value handling, witness indexing or RNG draws that
//! alters a single round's outcome shows up here as a changed line. When
//! a change is *meant* to move these numbers, regenerate the table with
//! `cargo test --test re_pin -- --ignored` and review the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use apiphany_repro::benchmarks::{benchmarks, default_analyze_config, prepare_api, Api, Prepared};
use apiphany_repro::core::{Budget, RunConfig};
use apiphany_repro::lang::Program;
use apiphany_repro::mining::Query;
use apiphany_repro::re::{cost_of, ReContext};

/// The pinned sections: a title, the search depth, and the queries
/// (`None`: all of Table 2).
const SECTIONS: [(&str, usize, Option<&[&str]>); 2] = [
    ("all Table 2 queries", 3, None),
    ("the deep workload", 6, Some(&["1.1", "1.2", "1.3"])),
];

fn table_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("re_pin_table2.txt")
}

/// 64-bit FNV-1a over the results of `ReContext::run` with seeds
/// `0..rounds`, each written as its compact JSON or `ERR <reason>` and
/// ended by a newline.
fn values_digest(ctx: &ReContext<'_>, program: &Program, query: &Query, rounds: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for seed in 0..rounds {
        let text = match ctx.run(program, query, seed) {
            Ok(v) => v.to_json(),
            Err(e) => format!("ERR {}", e.reason),
        };
        for byte in text.bytes().chain([b'\n']) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Every API's engine, prepared once for all the tables a test builds.
fn prepare_apis() -> Vec<(Api, Prepared)> {
    Api::ALL
        .into_iter()
        .map(|api| (api, prepare_api(api, &default_analyze_config())))
        .collect()
}

/// The table the current code produces with the search on `threads`
/// threads: a header line per section (`# depth <d>: <title>`), one line
/// per candidate (`<id> <gen> <base> <penalty> <n_failed> <n_empty>
/// <digest>`) and one rank line per query (`<id> rank <gen>...`, best
/// first).
fn observed_table(prepared: &[(Api, Prepared)], threads: usize) -> String {
    let mut out = String::new();
    for (title, depth, ids) in SECTIONS {
        writeln!(out, "# depth {depth}: {title}").unwrap();
        let mut cfg = RunConfig::default();
        cfg.synthesis.budget = Budget::depth(depth);
        cfg.synthesis.threads = threads;
        for (api, prepared) in prepared {
            let engine = &prepared.engine;
            let ctx = ReContext::new(engine.semlib(), engine.witnesses());
            let pinned = benchmarks()
                .into_iter()
                .filter(|b| b.api == *api && ids.is_none_or(|ids| ids.contains(&b.id)));
            for bench in pinned {
                let id = bench.id;
                let Ok(query) = engine.query(bench.query) else {
                    writeln!(out, "{id} unresolved").unwrap();
                    continue;
                };
                let result = engine.run(&query, &cfg);
                let mut by_gen: Vec<_> = result.ranked.iter().collect();
                by_gen.sort_by_key(|r| r.gen_index);
                for r in by_gen {
                    let cost = cost_of(&ctx, &r.program, &query, &cfg.cost);
                    assert_eq!(
                        cost.total(),
                        r.cost,
                        "{id} #{}: session cost differs",
                        r.gen_index
                    );
                    let digest = values_digest(&ctx, &r.program, &query, cfg.cost.rounds as u64);
                    writeln!(
                        out,
                        "{id} {} {} {} {} {} {digest:016x}",
                        r.gen_index, cost.base, cost.penalty, cost.n_failed, cost.n_empty
                    )
                    .unwrap();
                }
                write!(out, "{id} rank").unwrap();
                for r in &result.ranked {
                    write!(out, " {}", r.gen_index).unwrap();
                }
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn re_costs_and_ranks_match_the_pinned_table2_table() {
    let expected = std::fs::read_to_string(table_path()).expect("pinned table is checked in");
    let prepared = prepare_apis();
    for threads in [1, 2] {
        let observed = observed_table(&prepared, threads);
        let mismatches: Vec<String> = expected
            .lines()
            .zip(observed.lines())
            .filter(|(e, o)| e != o)
            .take(10)
            .map(|(e, o)| format!("  expected `{e}`\n  observed `{o}`"))
            .collect();
        assert!(
            mismatches.is_empty() && expected.lines().count() == observed.lines().count(),
            "the table at {threads} search threads diverged from the pinned one ({} expected \
             lines, {} observed); first differences:\n{}",
            expected.lines().count(),
            observed.lines().count(),
            mismatches.join("\n")
        );
    }
}

/// Rewrites the pinned table from the current code, searching serially.
#[test]
#[ignore = "regenerates tests/re_pin_table2.txt; run on purpose and review the diff"]
fn regenerate_re_pin_table() {
    std::fs::write(table_path(), observed_table(&prepare_apis(), 1)).expect("write pinned table");
}
