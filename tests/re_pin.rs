//! Pins retrospective execution on the paper's tasks: every Table 2
//! query runs serially at depth 3, and each candidate's RE cost parts
//! (`base`, `penalty`, `n_failed`, `n_empty`, in generation order) and
//! the final rank order must equal the table checked in beside this file,
//! `re_pin_table2.txt`.
//!
//! Any change to RE's value handling, witness indexing or RNG draws that
//! alters a single round's outcome shows up here as a changed line. When
//! a change is *meant* to move these numbers, regenerate the table with
//! `cargo test --test re_pin -- --ignored` and review the diff.

use std::fmt::Write as _;
use std::path::PathBuf;

use apiphany_repro::benchmarks::{benchmarks, default_analyze_config, prepare_api, Api};
use apiphany_repro::core::{Budget, RunConfig};
use apiphany_repro::re::{cost_of, ReContext};

/// The search depth of every pinned query.
const DEPTH: usize = 3;

fn table_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("re_pin_table2.txt")
}

/// One line per candidate (`<id> <gen> <base> <penalty> <n_failed>
/// <n_empty>`) and one rank line per query (`<id> rank <gen>...`, best
/// first).
fn observed_table() -> String {
    let mut cfg = RunConfig::default();
    cfg.synthesis.budget = Budget::depth(DEPTH);
    cfg.synthesis.threads = 1;
    let mut out = String::new();
    for api in Api::ALL {
        let prepared = prepare_api(api, &default_analyze_config());
        let engine = &prepared.engine;
        let ctx = ReContext::new(engine.semlib(), engine.witnesses());
        for bench in benchmarks().into_iter().filter(|b| b.api == api) {
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
                writeln!(
                    out,
                    "{id} {} {} {} {} {}",
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
    out
}

#[test]
fn re_costs_and_ranks_match_the_pinned_table2_table() {
    let expected = std::fs::read_to_string(table_path()).expect("pinned table is checked in");
    let observed = observed_table();
    let mismatches: Vec<String> = expected
        .lines()
        .zip(observed.lines())
        .filter(|(e, o)| e != o)
        .take(10)
        .map(|(e, o)| format!("  expected `{e}`\n  observed `{o}`"))
        .collect();
    assert!(
        mismatches.is_empty() && expected.lines().count() == observed.lines().count(),
        "RE diverged from the pinned table ({} expected lines, {} observed); first \
         differences:\n{}",
        expected.lines().count(),
        observed.lines().count(),
        mismatches.join("\n")
    );
}

/// Rewrites the pinned table from the current code.
#[test]
#[ignore = "regenerates tests/re_pin_table2.txt; run on purpose and review the diff"]
fn regenerate_re_pin_table() {
    std::fs::write(table_path(), observed_table()).expect("write pinned table");
}
