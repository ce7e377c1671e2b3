//! Sessions on the job runtime: many concurrent queries over one bounded
//! pool.
//!
//! An [`Engine::session`](crate::Engine::session) gives every query a
//! dedicated worker thread — fine for one caller, unbounded for a
//! serving front door. [`JobRuntime::submit`] instead runs every session
//! as a `Search` [`Job`] on the runtime's fixed number of slots: at most
//! `slots` jobs execute at once, later search submissions queue FIFO, and
//! each freed slot goes to the oldest waiting session (alternating fairly
//! with any analysis jobs a [`ServiceCatalog::with_runtime`] catalog
//! queues on the same runtime). Budgets stay per-session (a session's
//! wall-clock starts when its job starts, not while it waits), and
//! cancellation works exactly as for dedicated sessions — cancelling a
//! *queued* session makes its job a prompt no-op.
//!
//! The runtime changes **where** a session runs, never **what** it
//! emits: a scheduled session's event stream — candidates, their order,
//! every rank and cost, the depth markers, the final ranking — is
//! identical to a dedicated [`Engine::session`](crate::Engine::session)
//! run of the same query and config (only the wall-clock `elapsed` /
//! `re_time` measurements differ, as they do between any two runs).
//! `tests/serving.rs` property-tests this guarantee, including under
//! concurrent interleaving.
//!
//! A consumer that serves many sessions from one thread blocks on one
//! channel instead of polling them: each session's wake hook
//! ([`Session::set_wake_hook`]) posts to it once per buffered event, and
//! the consumer answers every post with one [`Session::try_next`].
//!
//! ```
//! use std::sync::mpsc;
//! use apiphany_core::{Engine, Event, JobRuntime, QuerySpec};
//! use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
//!
//! let engine = Engine::from_witnesses(fig7_library(), fig4_witnesses());
//! let runtime = JobRuntime::new(2);
//! let spec = QuerySpec::output("[Profile.email]")
//!     .input("channel_name", "Channel.name")
//!     .depth(7);
//! let (wake, woken) = mpsc::channel();
//! let mut sessions = Vec::new();
//! for id in 0..3 {
//!     let session = runtime.submit(&engine, &spec).unwrap();
//!     let post = wake.clone();
//!     session.set_wake_hook(move || {
//!         let _ = post.send(id);
//!     });
//!     sessions.push(session);
//! }
//! let mut finished = 0;
//! while finished < 3 {
//!     let id = woken.recv().unwrap();
//!     if let Some(Event::Finished(_)) = sessions[id].try_next() {
//!         finished += 1;
//!     }
//! }
//! ```

use std::sync::Arc;

use crate::job::{Job, JobKind, JobOutcome, JobRuntime};
use crate::session::Host;
use crate::{Engine, EngineError, QuerySpec, ServiceCatalog, ServiceLookup, Session};

/// How [`JobRuntime::submit_catalog_async`] dispatched a query.
#[derive(Debug)]
pub enum CatalogSubmission {
    /// The service was warm: the session was submitted synchronously.
    Started(Session),
    /// The service is cold: the query is queued behind this analysis
    /// [`Job`] and the session will reach the `deliver` callback when it
    /// settles.
    Pending(Job<Engine>),
}

impl JobRuntime {
    /// Submits a typed query against an explicit engine; returns the
    /// streaming [`Session`] immediately (its worker occupies a slot once
    /// one frees up). The session is tracked as a `Search` job —
    /// [`Session::job_state`] observes it, and cancelling the session
    /// cancels the job.
    ///
    /// # Errors
    ///
    /// [`EngineError::Query`] when a type fails to resolve,
    /// [`EngineError::Budget`] when the spec's budget is invalid.
    pub fn submit(&self, engine: &Engine, spec: &QuerySpec) -> Result<Session, EngineError> {
        let query = spec.resolve(engine.semlib())?;
        let mut cfg = spec.run_config();
        cfg.synthesis.budget.validate()?;
        cfg.synthesis.telemetry = self.telemetry().clone();
        let label = spec.service.clone().unwrap_or_default();
        let host = Host::Runtime { runtime: self, job: self.new_job(JobKind::Search, label) };
        Ok(Session::spawn(host, Arc::clone(&engine.inner), query, cfg))
    }

    /// Submits a catalog-routed spec: looks the service up (**blocking**
    /// on its analyze-once job if this is first use), then submits as
    /// [`JobRuntime::submit`]. For the non-blocking twin see
    /// [`JobRuntime::submit_catalog_async`].
    ///
    /// # Errors
    ///
    /// Additionally [`EngineError::Spec`] when the spec names no service,
    /// [`EngineError::UnknownService`] for unregistered names, and
    /// [`EngineError::Analysis`] when the analysis job fails.
    pub fn submit_catalog(
        &self,
        catalog: &ServiceCatalog,
        spec: &QuerySpec,
    ) -> Result<Session, EngineError> {
        let name = spec
            .service
            .as_deref()
            .ok_or_else(|| EngineError::Spec("catalog queries must name a service".into()))?;
        self.submit(&catalog.engine(name)?, spec)
    }

    /// The never-blocking catalog submission: a warm service's session is
    /// submitted immediately ([`CatalogSubmission::Started`]); a cold
    /// service's query **enqueues behind its analysis job** — when the
    /// job settles, the continuation submits the session (or produces the
    /// analysis error) and hands it to `deliver`.
    ///
    /// `deliver` runs on the thread that settles the analysis job, and it
    /// runs *before* that worker picks its next job — so the queued query
    /// enters the search lane ahead of any analysis job submitted after
    /// it, which is what makes "warm queries stream while a cold service
    /// mines" an ordering guarantee rather than a timing one.
    ///
    /// # Errors
    ///
    /// Synchronously: [`EngineError::Spec`] (no service named),
    /// [`EngineError::UnknownService`], and — for warm services — the
    /// [`JobRuntime::submit`] errors. Cold-service resolution/budget
    /// errors arrive through `deliver`.
    pub fn submit_catalog_async(
        &self,
        catalog: &ServiceCatalog,
        spec: &QuerySpec,
        deliver: impl FnOnce(Result<Session, EngineError>) + Send + 'static,
    ) -> Result<CatalogSubmission, EngineError> {
        let name = spec
            .service
            .as_deref()
            .ok_or_else(|| EngineError::Spec("catalog queries must name a service".into()))?;
        match catalog.lookup(name)? {
            ServiceLookup::Ready(engine) => {
                Ok(CatalogSubmission::Started(self.submit(&engine, spec)?))
            }
            ServiceLookup::Pending(job) => {
                let runtime = self.clone();
                let spec = spec.clone();
                let service = name.to_string();
                job.on_terminal(move |outcome| {
                    let submitted = match outcome {
                        JobOutcome::Done(engine) => runtime.submit(engine, &spec),
                        JobOutcome::Failed(reason) => Err(EngineError::Analysis {
                            service,
                            reason: reason.clone(),
                        }),
                        JobOutcome::Cancelled => Err(EngineError::Analysis {
                            service,
                            reason: "analysis cancelled".into(),
                        }),
                    };
                    deliver(submitted);
                });
                Ok(CatalogSubmission::Pending(job))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
    use std::sync::mpsc;
    use std::time::Duration;

    fn engine() -> Engine {
        Engine::from_witnesses(fig7_library(), fig4_witnesses())
    }

    fn email_spec() -> QuerySpec {
        QuerySpec::output("[Profile.email]").input("channel_name", "Channel.name").depth(7)
    }

    /// The semantic fingerprint of an event stream: everything except the
    /// wall-clock measurements.
    fn fingerprint(events: &[Event]) -> Vec<String> {
        events
            .iter()
            .map(|e| match e {
                Event::CandidateFound { canonical, r_orig, r_re_now, cost, .. } => {
                    format!("cand {r_orig} {r_re_now} {cost:.6} {canonical:?}")
                }
                Event::DepthExhausted { depth } => format!("depth {depth}"),
                Event::BudgetExhausted => "budget".to_string(),
                Event::Finished(result) => format!(
                    "finished {:?} {:?}",
                    result.stats.outcome,
                    result
                        .ranked
                        .iter()
                        .map(|r| (r.gen_index, r.rank_at_generation))
                        .collect::<Vec<_>>()
                ),
            })
            .collect()
    }

    #[test]
    fn scheduled_sessions_match_dedicated_sessions() {
        let engine = engine();
        let spec = email_spec();
        let dedicated: Vec<Event> = engine.open(&spec).unwrap().collect();
        let runtime = JobRuntime::new(2);
        let scheduled: Vec<Event> = runtime.submit(&engine, &spec).unwrap().collect();
        assert_eq!(fingerprint(&scheduled), fingerprint(&dedicated));
    }

    /// Consumes sessions only through their wake hooks: one channel, one
    /// `try_next` per announcement. A lost wakeup fails at the timeout
    /// instead of hanging the test.
    fn drain_by_wakes(sessions: Vec<Session>) -> Vec<Vec<Event>> {
        let (wake, woken) = mpsc::channel();
        let mut live: Vec<Option<Session>> = Vec::new();
        for (id, session) in sessions.into_iter().enumerate() {
            let post = wake.clone();
            session.set_wake_hook(move || {
                let _ = post.send(id);
            });
            live.push(Some(session));
        }
        let mut streams = vec![Vec::new(); live.len()];
        while live.iter().any(Option::is_some) {
            let id = woken.recv_timeout(Duration::from_secs(60)).expect("lost wakeup");
            let session = live[id].as_mut().expect("no announcement after Finished");
            let event = session.try_next().expect("an announced event is buffered");
            if matches!(event, Event::Finished(_)) {
                live[id] = None;
            }
            streams[id].push(event);
        }
        streams
    }

    /// More sessions than slots: everyone completes, each stream intact.
    #[test]
    fn oversubscribed_scheduler_completes_every_session() {
        let engine = engine();
        let spec = email_spec();
        let reference = fingerprint(&engine.open(&spec).unwrap().collect::<Vec<_>>());
        let runtime = JobRuntime::new(2);
        let sessions = (0..6).map(|_| runtime.submit(&engine, &spec).unwrap()).collect();
        for (id, stream) in drain_by_wakes(sessions).iter().enumerate() {
            assert_eq!(fingerprint(stream), reference, "session {id}");
        }
    }

    /// A stream buffered in full before its consumer registers is
    /// announced by the registration itself: nothing is lost to the gap.
    #[test]
    fn a_stream_buffered_before_registration_still_reaches_finished() {
        let engine = engine();
        let spec = email_spec();
        let reference = fingerprint(&engine.open(&spec).unwrap().collect::<Vec<_>>());
        assert!(reference.len() <= crate::session::EVENT_BUFFER, "the stream fits the buffer");
        let runtime = JobRuntime::new(1);
        let session = runtime.submit(&engine, &spec).unwrap();
        // The job settles only after its worker has buffered `Finished`.
        assert_eq!(session.job().unwrap().wait(), crate::JobState::Done);
        let streams = drain_by_wakes(vec![session]);
        assert_eq!(fingerprint(&streams[0]), reference);
    }

    #[test]
    fn cancelling_a_queued_session_is_prompt() {
        let engine = engine();
        // One slot, occupied by a deep session; the queued one is
        // cancelled before it ever starts.
        let runtime = JobRuntime::new(1);
        let deep = email_spec().depth(12);
        let running = runtime.submit(&engine, &deep).unwrap();
        let queued = runtime.submit(&engine, &deep).unwrap();
        queued.cancel();
        // Unblock the slot.
        running.cancel();
        let drained = running.drain();
        assert_eq!(drained.stats.outcome, apiphany_synth::Outcome::Cancelled);
        let result = queued.drain();
        assert_eq!(result.stats.outcome, apiphany_synth::Outcome::Cancelled);
        assert!(result.ranked.is_empty());
    }

    #[test]
    fn submit_validates_spec_and_budget() {
        let engine = engine();
        let runtime = JobRuntime::new(1);
        let bad_type = QuerySpec::output("[Nope]").depth(7);
        assert!(matches!(
            runtime.submit(&engine, &bad_type),
            Err(EngineError::Query(_))
        ));
        let bad_budget = email_spec().depth(0);
        assert!(matches!(
            runtime.submit(&engine, &bad_budget),
            Err(EngineError::Budget(_))
        ));
    }

    #[test]
    fn submit_catalog_routes_by_name() {
        let catalog = ServiceCatalog::new();
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        let runtime = JobRuntime::new(2);
        let spec = email_spec().service("demo");
        let result = runtime.submit_catalog(&catalog, &spec).unwrap().drain();
        assert_eq!(result.ranked.len(), 2);
        assert!(matches!(
            runtime.submit_catalog(&catalog, &email_spec().service("nope")),
            Err(EngineError::UnknownService(_))
        ));
        assert!(matches!(
            runtime.submit_catalog(&catalog, &email_spec()),
            Err(EngineError::Spec(_))
        ));
    }

    /// Scheduled sessions are tracked as `Search` jobs: the job state
    /// mirrors the session lifecycle and shares its cancel token.
    #[test]
    fn sessions_are_tracked_as_search_jobs() {
        use crate::job::JobState;
        let engine = engine();
        let runtime = JobRuntime::new(1);
        let session = runtime.submit(&engine, &email_spec()).unwrap();
        let job = session.job().expect("scheduled sessions carry a job").clone();
        assert_eq!(job.kind().name(), "search");
        let result = session.drain();
        assert_eq!(result.ranked.len(), 2);
        assert_eq!(job.wait(), JobState::Done);
        // A cancelled session's job settles Cancelled.
        let deep = runtime.submit(&engine, &email_spec().depth(12)).unwrap();
        let deep_job = deep.job().unwrap().clone();
        deep.cancel();
        let _ = deep.drain();
        assert_eq!(deep_job.wait(), JobState::Cancelled);
    }

    /// An injected worker-start panic settles the session's job `Failed`
    /// with a structured reason — subscribers observe why the stream
    /// stopped instead of hanging on a worker that died silently.
    #[test]
    fn panicking_search_worker_settles_its_job_failed() {
        use crate::job::JobState;
        let engine = engine();
        let runtime = JobRuntime::new(1)
            .with_fault(crate::FaultPlane::parse(1, "worker_start=panic").unwrap());
        let session = runtime.submit(&engine, &email_spec()).unwrap();
        let job = session.job().unwrap().clone();
        let events: Vec<Event> = session.collect();
        assert!(
            events.iter().all(|e| !matches!(e, Event::Finished(_))),
            "a dead worker delivers no Finished"
        );
        match job.wait() {
            JobState::Failed(reason) => assert!(reason.contains("injected fault"), "{reason}"),
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    /// A warm service submits synchronously; a cold one enqueues behind
    /// its analysis job and the continuation delivers the session.
    #[test]
    fn submit_catalog_async_chains_on_analysis() {
        let runtime = JobRuntime::new(2);
        let catalog = ServiceCatalog::new().with_runtime(runtime.clone());
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        let spec = email_spec().service("demo");
        let (tx, rx) = mpsc::channel();
        let submission = runtime
            .submit_catalog_async(&catalog, &spec, move |res| tx.send(res).unwrap())
            .unwrap();
        let CatalogSubmission::Pending(job) = submission else {
            panic!("cold service must go through its analysis job");
        };
        assert_eq!(job.label(), "demo");
        let session = rx.recv().unwrap().expect("analysis succeeds, session submits");
        assert_eq!(session.drain().ranked.len(), 2);
        // Now warm: the same call starts synchronously.
        let (tx2, _rx2) = mpsc::channel();
        match runtime
            .submit_catalog_async(&catalog, &spec, move |res| tx2.send(res).unwrap())
            .unwrap()
        {
            CatalogSubmission::Started(session) => {
                assert_eq!(session.drain().ranked.len(), 2);
            }
            CatalogSubmission::Pending(_) => panic!("warm service must start synchronously"),
        }
    }

    /// Cancelling the analysis job a query is queued behind delivers a
    /// structured error instead of a session.
    #[test]
    fn cancelled_analysis_fails_queued_queries() {
        // One slot, held by a long search the consumer never pulls past
        // its first event: the analysis job behind it stays queued.
        let runtime = JobRuntime::new(1);
        let catalog = ServiceCatalog::new().with_runtime(runtime.clone());
        catalog.register_spec("demo", fig7_library(), fig4_witnesses()).unwrap();
        let blocker_engine = engine();
        let blocker = runtime.submit(&blocker_engine, &email_spec().depth(12)).unwrap();
        let (tx, rx) = mpsc::channel();
        let submission = runtime
            .submit_catalog_async(&catalog, &email_spec().service("demo"), move |res| {
                tx.send(res).unwrap()
            })
            .unwrap();
        let CatalogSubmission::Pending(job) = submission else {
            panic!("cold service must be pending");
        };
        job.cancel();
        // Unblock the slot so the runtime reaches the cancelled job.
        blocker.cancel();
        let _ = blocker.drain();
        match rx.recv().unwrap() {
            Err(EngineError::Analysis { service, reason }) => {
                assert_eq!(service, "demo");
                assert!(reason.contains("cancelled"));
            }
            other => panic!("expected cancelled-analysis error, got {other:?}"),
        }
        // The cancelled job unregistered the cold service.
        assert!(catalog.inspect("demo").is_none());
    }

    /// `top_k` is a reporting cap, not a search cap: the underlying run
    /// is identical, the caller just truncates.
    #[test]
    fn top_k_trims_reporting_only() {
        let engine = engine();
        let spec = email_spec().top_k(1);
        let result = engine.open(&spec).unwrap().drain();
        assert_eq!(result.ranked.len(), 2);
        assert_eq!(result.top(spec.top_k.unwrap()).len(), 1);
    }
}
