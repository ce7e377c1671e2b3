//! The serving layer's headline guarantee, property-tested: a session
//! served through the `ServiceCatalog` + `Scheduler` front door yields an
//! event stream bit-identical to a dedicated `Engine::session` run of the
//! same query — for every slot count, under oversubscription, and under
//! randomized concurrent interleaving of the consuming side.
//!
//! "Bit-identical" covers every semantic field: the candidates, their
//! canonical forms, generation and RE ranks, costs, depth markers,
//! budget markers, and the final ranking. Wall-clock measurements
//! (`elapsed`, `re_time`, `total_time`) are excluded — they differ
//! between any two runs of anything.

use std::sync::mpsc;
use std::time::Duration;

use apiphany_repro::core::{Budget, Engine, Event, QuerySpec, Scheduler, ServiceCatalog};
use apiphany_repro::spec::fixtures::{fig4_witnesses, fig7_library};
use proptest::prelude::*;

/// The semantic fingerprint of one event (wall-clock fields dropped).
fn fingerprint(event: &Event) -> String {
    match event {
        Event::CandidateFound { canonical, r_orig, r_re_now, cost, .. } => {
            format!("cand {r_orig} rank{r_re_now} cost{cost:.9} {canonical:?}")
        }
        Event::DepthExhausted { depth } => format!("depth {depth}"),
        Event::BudgetExhausted => "budget".into(),
        Event::Finished(result) => format!(
            "finished {:?} {:?}",
            result.stats.outcome,
            result
                .ranked
                .iter()
                .map(|r| (r.gen_index, r.rank_at_generation, format!("{:.9}", r.cost)))
                .collect::<Vec<_>>()
        ),
    }
}

fn stream_of(events: &[Event]) -> Vec<String> {
    events.iter().map(fingerprint).collect()
}

/// A catalog with two *different* services mined from the same library:
/// "demo" sees every Fig. 4 witness, "demo-lite" only a prefix, so their
/// mined semantic libraries (and engines) genuinely differ.
fn two_service_catalog(lite_witnesses: usize) -> ServiceCatalog {
    let catalog = ServiceCatalog::new();
    catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
    let lite: Vec<_> = fig4_witnesses().into_iter().take(lite_witnesses).collect();
    catalog.register_spec("demo-lite", fig7_library(), lite).unwrap();
    catalog
}

fn email_spec(service: &str) -> QuerySpec {
    QuerySpec::output("[Profile.email]")
        .service(service)
        .input("channel_name", "Channel.name")
        .depth(7)
}

fn channels_spec(service: &str) -> QuerySpec {
    QuerySpec::output("[Channel]").service(service).depth(5)
}

/// A tiny deterministic PRNG (xorshift64*) for interleaving schedules —
/// the vendored `rand` stays out of the dependency graph here.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Catalog+scheduler-served streams equal dedicated-engine streams,
    /// for every slot count and search thread count, with two different
    /// services in flight and a *random* poll interleaving on the
    /// consumer side.
    #[test]
    fn scheduled_streams_are_bit_identical_under_interleaving(
        seed in 0u64..10_000,
        slots in 1usize..5,
        lite_witnesses in 1usize..5,
        threads in 1usize..3,
    ) {
        let catalog = two_service_catalog(lite_witnesses);
        let specs = [
            email_spec("demo").threads(threads),
            channels_spec("demo-lite").threads(threads),
            email_spec("demo").threads(threads),
        ];
        // Reference streams: dedicated engine sessions, no scheduler.
        let reference: Vec<Vec<String>> = specs
            .iter()
            .map(|spec| {
                let engine = catalog.engine(spec.service.as_deref().unwrap()).unwrap();
                stream_of(&engine.open(spec).unwrap().collect::<Vec<_>>())
            })
            .collect();
        // Served streams: one shared pool, random consumer interleaving.
        let scheduler = Scheduler::new(slots);
        let mut sessions: Vec<_> = specs
            .iter()
            .map(|spec| Some(scheduler.submit_catalog(&catalog, spec).unwrap()))
            .collect();
        let mut served: Vec<Vec<String>> = specs.iter().map(|_| Vec::new()).collect();
        let mut rng = XorShift(seed.wrapping_mul(2).wrapping_add(1));
        let mut live = sessions.len();
        while live > 0 {
            // Pick a random live session and poll it non-blockingly. (A
            // *blocking* pull could deadlock under oversubscription: a
            // queued session starts only after a running one finishes,
            // and a running one with a full event buffer waits to be
            // pulled.)
            let pick = rng.below(sessions.len());
            let Some(session) = sessions[pick].as_mut() else {
                std::thread::yield_now();
                continue;
            };
            if let Some(event) = session.try_next() {
                let done = matches!(event, Event::Finished(_));
                served[pick].push(fingerprint(&event));
                if done {
                    sessions[pick] = None;
                    live -= 1;
                }
            } else {
                std::thread::yield_now();
            }
        }
        for (got, want) in served.iter().zip(&reference) {
            prop_assert_eq!(got, want);
        }
    }

    /// A consumer blocked on one channel fed by the sessions' wake hooks
    /// drains an oversubscribed scheduler with every stream intact,
    /// whatever the slot count.
    #[test]
    fn oversubscribed_multiplexer_preserves_streams(
        slots in 1usize..4,
        n_sessions in 2usize..6,
    ) {
        let catalog = two_service_catalog(3);
        let engine = catalog.engine("demo").unwrap();
        let spec = email_spec("demo");
        let reference = stream_of(&engine.open(&spec).unwrap().collect::<Vec<_>>());
        let scheduler = Scheduler::new(slots);
        let (wake, woken) = mpsc::channel();
        let mut sessions = Vec::new();
        for id in 0..n_sessions {
            let session = scheduler.submit_catalog(&catalog, &spec).unwrap();
            let post = wake.clone();
            session.set_wake_hook(move || {
                let _ = post.send(id);
            });
            sessions.push(Some(session));
        }
        let mut streams: Vec<Vec<String>> = (0..n_sessions).map(|_| Vec::new()).collect();
        while sessions.iter().any(Option::is_some) {
            // A lost wakeup fails here instead of hanging the test.
            let id = woken.recv_timeout(Duration::from_secs(60)).expect("lost wakeup");
            let session = sessions[id].as_mut().expect("no announcement after Finished");
            let event = session.try_next().expect("an announced event is buffered");
            if matches!(event, Event::Finished(_)) {
                sessions[id] = None;
            }
            streams[id].push(fingerprint(&event));
        }
        for stream in &streams {
            prop_assert_eq!(stream, &reference);
        }
    }

    /// A budget-capped spec behaves identically served or dedicated
    /// (including the BudgetExhausted marker placement).
    #[test]
    fn capped_budgets_served_and_dedicated_agree(cap in 1usize..3) {
        let catalog = two_service_catalog(3);
        let engine = catalog.engine("demo").unwrap();
        let spec = email_spec("demo").budget(Budget {
            max_candidates: Some(cap),
            ..Budget::depth(7)
        });
        let dedicated = stream_of(&engine.open(&spec).unwrap().collect::<Vec<_>>());
        let scheduler = Scheduler::new(2);
        let served = stream_of(
            &scheduler
                .submit_catalog(&catalog, &spec)
                .unwrap()
                .collect::<Vec<_>>(),
        );
        prop_assert_eq!(served, dedicated);
    }
}

/// The two catalog services really are different engines with different
/// mined libraries (the interleaving property would be vacuous over two
/// copies of the same service).
#[test]
fn catalog_services_differ() {
    let catalog = two_service_catalog(2);
    let full = catalog.engine("demo").unwrap();
    let lite = catalog.engine("demo-lite").unwrap();
    assert!(
        full.semlib().n_groups() != lite.semlib().n_groups()
            || full.witnesses().len() != lite.witnesses().len()
    );
}

/// Sessions submitted to a scheduler whose pool is shared with another
/// scheduler still complete (slots are a shared resource, not an
/// identity).
#[test]
fn schedulers_can_share_one_pool() {
    let catalog = two_service_catalog(3);
    let a = Scheduler::new(2);
    let b = Scheduler::with_pool(a.pool().clone());
    assert_eq!(b.slots(), 2);
    let ra = a.submit_catalog(&catalog, &email_spec("demo")).unwrap().drain();
    let rb = b.submit_catalog(&catalog, &channels_spec("demo-lite")).unwrap().drain();
    assert_eq!(ra.ranked.len(), 2);
    assert!(!rb.ranked.is_empty());
}

/// An engine loaded from a catalog artifact and the catalog's own engine
/// serve the same results (analyze-once across the two entry styles).
#[test]
fn catalog_engine_matches_artifact_reload() {
    let catalog = two_service_catalog(3);
    let engine = catalog.engine("demo").unwrap();
    let artifact_json = engine.save_analysis().to_json();
    let reloaded = Engine::load_analysis(&artifact_json).unwrap();
    let spec = email_spec("demo");
    let a = stream_of(&engine.open(&spec).unwrap().collect::<Vec<_>>());
    let b = stream_of(&reloaded.open(&spec).unwrap().collect::<Vec<_>>());
    assert_eq!(a, b);
}
