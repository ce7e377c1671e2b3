//! Job-runtime integration: the catalog's analyze-once work as
//! first-class cancellable jobs racing eviction, cancellation, and
//! scheduling — the cross-layer invariants the `synthd` daemon relies on.
//!
//! The load-bearing one is the eviction invariant: **eviction frees the
//! name immediately but never destroys analysis work in flight**.
//! Evicting a service whose analysis job is *running* lets the job
//! finish (already-subscribed waiters still get the engine), and the
//! job's publication no-ops because publication is keyed by job id — so
//! the service can never resurrect itself in a half-registered state.
//! Evicting one whose job is still *queued* cancels it promptly without
//! it ever running.

use std::time::{Duration, Instant};

use apiphany_repro::core::{
    Budget, EngineError, JobOutcome, JobRuntime, JobState, QuerySpec, ServiceCatalog,
};
use apiphany_repro::services::Slack;
use apiphany_repro::spec::fixtures::{fig4_witnesses, fig7_library};
use apiphany_repro::spec::Service;

/// Polls `f` until it holds or `ms` elapse; returns whether it held.
fn eventually(ms: u64, f: impl Fn() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_millis(ms);
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::yield_now();
    }
    false
}

/// Evict racing a *running* analysis job: the name frees instantly, the
/// job completes, subscribers that were already waiting still receive
/// the engine, and the job's publication no-ops — the service is never
/// resurrected (the condvar-era bug this invariant guards against).
#[test]
fn evict_races_in_flight_analysis_without_losing_subscribers() {
    let runtime = JobRuntime::new(2);
    let catalog = ServiceCatalog::new().with_runtime(runtime);
    let mut slack = Slack::new();
    let witnesses = slack.scenario();
    catalog.register_spec("slack", slack.library().clone(), witnesses).unwrap();

    // The job handle is a subscriber to the in-flight analysis.
    let job = catalog.prewarm("slack").unwrap();
    // Catch the job mid-run (slack mining is the slow part); if it
    // outraces us the evict simply takes the warm path — the assertions
    // below hold on either path.
    let _ = eventually(5_000, || job.state() == JobState::Running);
    assert!(catalog.evict("slack"), "the name was registered");
    // The name frees instantly: gone from the registry and
    // re-registrable before the old job has even settled.
    assert!(catalog.inspect("slack").is_none());
    assert!(matches!(
        catalog.engine("slack"),
        Err(EngineError::UnknownService(_))
    ));
    catalog.register_spec("slack", fig7_library(), fig4_witnesses()).unwrap();
    // The evicted job ran to completion (an evict never destroys running
    // work) and still delivers the engine to its subscribers …
    match job.wait_outcome() {
        JobOutcome::Done(engine) => assert!(engine.semlib().n_groups() > 0),
        other => panic!("evicted analysis still completes, got {other:?}"),
    }
    // … but its publication is a no-op: the re-registered (unanalyzed)
    // entry is never clobbered by the evicted job's engine.
    let info = catalog.inspect("slack").unwrap();
    assert!(!info.analyzed, "the evicted job must not resurrect over the new entry");
    assert!(catalog.engine("slack").is_ok());
}

/// Evict of a service whose analysis job is still *queued* (the single
/// slot is occupied by a search): the job is cancelled, never runs, and
/// subscribers get a structured cancellation instead of hanging.
#[test]
fn evict_of_a_queued_analysis_cancels_promptly() {
    let runtime = JobRuntime::new(1);
    let catalog = ServiceCatalog::new().with_runtime(runtime.clone());
    catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();

    // Occupy the only slot: a deep search whose events nobody pulls (the
    // worker parks on its full event buffer, holding the slot).
    let blocker_engine =
        apiphany_repro::core::Engine::from_witnesses(fig7_library(), fig4_witnesses());
    let blocker_spec = QuerySpec::output("[Profile.email]")
        .input("channel_name", "Channel.name")
        .budget(Budget::depth(12));
    let blocker = runtime.submit(&blocker_engine, &blocker_spec).unwrap();
    assert!(
        eventually(5_000, || runtime.stats().running == 1),
        "blocker occupies the slot"
    );

    let job = catalog.prewarm("demo").unwrap();
    assert_eq!(job.state(), JobState::Queued);
    assert_eq!(runtime.stats().queued_analysis, 1);
    // While queued, inspect reports the live job.
    let info = catalog.inspect("demo").unwrap();
    assert_eq!(info.job.as_ref().map(|j| j.id), Some(job.id()));

    assert!(catalog.evict("demo"));
    // Free the slot so the pool reaches the (now cancelled) job.
    blocker.cancel();
    let _ = blocker.drain();
    assert_eq!(job.wait(), JobState::Cancelled, "a queued job cancels without running");
    assert!(
        eventually(5_000, || catalog.inspect("demo").is_none()),
        "cancelled analysis unregisters the name"
    );
}

/// One runtime, both kinds of job: analysis occupancy is visible in the
/// runtime stats and analysis can never fill every slot of a multi-slot
/// pool (the fairness cap).
#[test]
fn runtime_stats_track_both_job_kinds() {
    let runtime = JobRuntime::new(2);
    let catalog = ServiceCatalog::new().with_runtime(runtime.clone());
    for name in ["a", "b", "c"] {
        catalog.register_spec(name, fig7_library(), fig4_witnesses()).unwrap();
    }
    let jobs: Vec<_> = ["a", "b", "c"]
        .iter()
        .map(|n| catalog.prewarm(n).unwrap())
        .collect();
    // The analysis cap on a 2-slot pool is 1: at no point may both slots
    // mine at once.
    assert!(runtime.stats().analysis_running <= 1);
    for job in &jobs {
        assert_eq!(job.wait(), JobState::Done);
    }
    let spec = QuerySpec::output("[Profile.email]")
        .service("a")
        .input("channel_name", "Channel.name")
        .depth(7);
    let result = runtime.submit_catalog(&catalog, &spec).unwrap().drain();
    assert_eq!(result.ranked.len(), 2);
    assert_eq!(runtime.stats().slots, 2);
    // The worker decrements its slot just after the drained session's
    // final send, so idle is reached asynchronously.
    assert!(eventually(5_000, || {
        let stats = runtime.stats();
        stats.queued_search + stats.queued_analysis + stats.running == 0
    }));
}
