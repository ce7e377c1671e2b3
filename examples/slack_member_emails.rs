//! The paper's §1 motivating task on the full simulated Slack API
//! (174 methods): "How do I retrieve all member emails from a Slack
//! channel with a given name?"
//!
//! Runs the whole Fig. 1 pipeline: scripted scenario capture, the
//! `AnalyzeAPI` enrichment loop, TTN construction over mined types, and
//! RE-ranked synthesis.
//!
//! Run with: `cargo run --release --example slack_member_emails`
//! (an intermediate task is shown first, then every path up to 9
//! transitions for the member-emails task).

use apiphany_benchmarks::{default_analyze_config, prepare_api, Api};
use apiphany_core::{Budget, Event, RunConfig};
use std::time::Duration;

fn main() {
    println!("analysis phase: capturing scenario + random testing ...");
    let prepared = prepare_api(Api::Slack, &default_analyze_config());
    println!(
        "collected {} witnesses covering {} of {} methods; {} semantic types\n",
        prepared.analysis.n_witnesses,
        prepared.analysis.n_covered_methods,
        prepared.library.stats().n_methods,
        prepared.engine.semlib().n_groups(),
    );

    // A quick warm-up query: messages of a channel with a given name (1.7).
    let engine = &prepared.engine;
    let query = engine
        .query("{ channel: objs_conversation.name } → objs_message")
        .unwrap();
    let mut cfg = RunConfig::default();
    cfg.synthesis.budget =
        Budget { wall_clock: Some(Duration::from_secs(40)), ..Budget::depth(7) };
    let result = engine.run(&query, &cfg);
    println!(
        "query objs_conversation.name → objs_message: {} candidates, top:",
        result.ranked.len()
    );
    if let Some(top) = result.ranked.first() {
        println!("{}\n", top.program);
    }

    // The full member-emails task (benchmark 1.1), consumed as a live
    // event stream: candidates print the moment they are generated and
    // ranked, long before the budget runs out.
    let query = engine
        .query("{ channel_name: objs_conversation.name } → [objs_user_profile.email]")
        .unwrap();
    let mut cfg = RunConfig::default();
    cfg.synthesis.budget =
        Budget { wall_clock: Some(Duration::from_secs(120)), ..Budget::depth(9) };
    println!(
        "synthesizing member-emails task (budget {:?}) ...",
        cfg.synthesis.budget.wall_clock
    );
    let session = engine.session(&query, &cfg).expect("budget is valid");
    for event in session {
        match event {
            Event::CandidateFound { r_orig, r_re_now, cost, elapsed, .. } => {
                println!(
                    "  candidate #{r_orig} after {elapsed:.1?} (cost {cost:.0}, RE rank now {r_re_now})"
                );
            }
            Event::BudgetExhausted => println!("  budget exhausted"),
            Event::Finished(result) => {
                println!("{} candidates; top 3:", result.ranked.len());
                for r in result.ranked.iter().take(3) {
                    println!("--- cost {:.0} ---\n{}", r.cost, r.program);
                }
            }
            Event::DepthExhausted { .. } => {}
        }
    }
}
