//! Serving quickstart: one `JobRuntime` under a `ServiceCatalog` and a
//! `Scheduler`, so analyze-once phases and synthesis sessions schedule
//! through the same two-lane pool; one thread consumes every stream by
//! blocking on a single channel that the sessions' wake hooks post to —
//! the same building blocks the `synthd` serving loop is made of.
//!
//! Run with: `cargo run --release --example catalog_server`

use std::sync::mpsc;

use apiphany_repro::core::{Event, JobRuntime, QuerySpec, Scheduler, ServiceCatalog};
use apiphany_repro::services::Square;
use apiphany_repro::spec::fixtures::{fig4_witnesses, fig7_library};
use apiphany_repro::spec::Service;

fn main() {
    // One job runtime: `slots` workers shared by Search jobs (sessions)
    // and Analysis jobs (mining + TTN build), with per-kind fairness so
    // mining never occupies every slot.
    let runtime = JobRuntime::new(2);
    let scheduler = Scheduler::with_runtime(runtime.clone());

    // A catalog on the same runtime registers services by name; the
    // analyze-once work runs as a cancellable background job. Add
    // `.with_cache_dir(...)` to persist artifacts across restarts.
    let catalog = ServiceCatalog::new().with_runtime(runtime.clone());
    catalog
        .register_spec("demo", fig7_library(), fig4_witnesses())
        .expect("fresh name");
    let mut square = Square::new();
    let witnesses = square.scenario();
    catalog
        .register_spec("square", square.library().clone(), witnesses)
        .expect("fresh name");

    // Prewarm: start both analysis jobs now instead of on first query.
    let jobs: Vec<_> = catalog
        .names()
        .iter()
        .map(|name| catalog.prewarm(name).expect("registered"))
        .collect();
    for job in &jobs {
        println!("submitted {} {} for '{}'", job.kind().name(), job.id(), job.label());
    }
    for info in catalog.list() {
        println!(
            "registered {}: {} methods, {} witnesses (job state: {})",
            info.name,
            info.n_methods,
            info.n_witnesses,
            info.job.as_ref().map_or("settled".to_string(), |j| j.state.name().to_string()),
        );
    }

    // Queries are typed QuerySpecs routed by service name; the scheduler
    // multiplexes any number of sessions over the runtime's slots.
    let queries = [
        (
            "demo/email",
            QuerySpec::output("[Profile.email]")
                .service("demo")
                .input("channel_name", "Channel.name")
                .depth(7)
                .top_k(3),
        ),
        (
            "square/invoices",
            QuerySpec::output("[Invoice]")
                .service("square")
                .input("location_id", "Location.id")
                .depth(3)
                .top_k(3),
        ),
    ];

    // Each session's wake hook posts its index once per buffered event
    // (events buffered before the hook went in are posted at once).
    let (wake, woken) = mpsc::channel();
    let mut sessions = Vec::new();
    for (i, (tag, spec)) in queries.iter().enumerate() {
        let session = scheduler
            .submit_catalog(&catalog, spec)
            .expect("service registered and types resolve");
        let post = wake.clone();
        session.set_wake_hook(move || {
            let _ = post.send(i);
        });
        sessions.push(session);
        println!("submitted {tag}: {}", spec.to_text());
    }

    // Events of both sessions interleave, tagged; each session's own
    // stream is identical to a dedicated Engine::session run.
    let mut live = sessions.len();
    while live > 0 {
        let i = woken.recv().expect("a live session announces its events");
        let tag = queries[i].0;
        match sessions[i].try_next().expect("an announced event is buffered") {
            Event::CandidateFound { r_orig, r_re_now, cost, .. } => {
                println!("[{tag}] candidate #{r_orig} (cost {cost:.0}, RE rank now {r_re_now})");
            }
            Event::DepthExhausted { depth } => {
                println!("[{tag}] depth {depth} exhausted");
            }
            Event::BudgetExhausted => println!("[{tag}] budget exhausted"),
            Event::Finished(result) => {
                live -= 1;
                println!(
                    "[{tag}] finished: {} candidates in {:.1?}",
                    result.ranked.len(),
                    result.total_time
                );
                if let Some(best) = result.ranked.first() {
                    println!("[{tag}] top-ranked program:\n{}", best.program);
                }
            }
        }
    }

    // The analyze-once cost stays inspectable per service.
    for info in catalog.list() {
        if let (Some(stats), Some(t)) = (&info.analysis, info.analyze_time) {
            println!(
                "{}: mined {} witnesses / {} covered methods in {:.1?}",
                info.name, stats.n_witnesses, stats.n_covered_methods, t
            );
        }
    }
    println!("all sessions drained; {} services stay warm for the next query", catalog.list().len());
}
