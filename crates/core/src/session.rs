//! Synthesis sessions: a pull-based event stream over one synthesis run.
//!
//! A [`Session`] is created by [`crate::Engine::session`] and implements
//! `Iterator<Item = Event>`: candidates arrive as they are generated and
//! RE-ranked (paper Fig. 1, right half), interleaved with progress markers,
//! and the final [`Event::Finished`] carries the complete
//! [`RunResult`]. The stream is *live* — the first
//! [`Event::CandidateFound`] is observable long before the budget elapses —
//! and *bounded*: the search runs on a worker that buffers a few events
//! ahead of the consumer ([`EVENT_BUFFER`]), then waits for it. The
//! worker is a dedicated thread for [`crate::Engine::session`] and a
//! worker slot of a [`JobRuntime`] for [`JobRuntime::submit`]; both run
//! the same body.
//!
//! A consumer serving many sessions from one thread does not poll them:
//! it installs a wake hook ([`Session::set_wake_hook`]), and the worker
//! announces every event it buffers, so the consumer can block on one
//! channel for all of its sources.
//!
//! Cancellation is cooperative: [`Session::cancel`] (or any clone of
//! [`Session::cancel_token`]) flips a flag the TTN search polls at every
//! node. A cancelled session still delivers its final `Finished` event with
//! everything ranked so far, and dropping a session mid-stream cancels and
//! reaps the worker.

use std::sync::mpsc::{sync_channel, Receiver, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use apiphany_lang::anf::AnfProgram;
use apiphany_lang::Program;
use apiphany_mining::Query;
use apiphany_re::{cost_of, ReContext, Ranker};
use apiphany_synth::{CancelToken, Outcome, SynthEvent};
use apiphany_telemetry::Telemetry;

use crate::fault::{FaultPlane, FaultPoint};
use crate::job::{panic_message, Job, JobId, JobKind, JobOutcome, JobRuntime, JobState};
use crate::{EngineInner, RankedProgram, RunConfig, RunResult};

/// One notification from a [`Session`].
#[derive(Debug, Clone)]
pub enum Event {
    /// A distinct well-typed candidate, ranked by retrospective execution
    /// at the moment it was generated.
    CandidateFound {
        /// The synthesized, well-typed `λ_A` program.
        program: Program,
        /// The canonical (alpha-renamed ANF) form of `program`, computed
        /// once during synthesis — compare against a canonicalized gold
        /// instead of re-canonicalizing the streamed program.
        canonical: AnfProgram,
        /// 1-based generation rank (the paper's `r_orig`).
        r_orig: usize,
        /// 1-based RE rank at this moment (the paper's `r_RE`).
        r_re_now: usize,
        /// Total cost (AST size + penalties).
        cost: f64,
        /// Time since the session started when the candidate appeared.
        elapsed: Duration,
    },
    /// Every TTN path of length `depth` has been processed; any further
    /// candidate comes from a longer path.
    DepthExhausted {
        /// The completed iterative-deepening level.
        depth: usize,
    },
    /// The budget ran out (wall-clock elapsed or candidate cap reached).
    /// Followed by the final `Finished` event.
    BudgetExhausted,
    /// The run is over; carries the final ranking. Always the last event.
    Finished(RunResult),
}

/// How many events a session's worker buffers ahead of its consumer
/// before it waits: enough that a consumer woken per event does not hold
/// up the search, few enough that a consumer that stops pulling parks the
/// worker within a few events.
pub(crate) const EVENT_BUFFER: usize = 16;

/// A cancellable, streaming synthesis run: an `Iterator<Item = Event>`
/// over one query's candidates, created by [`crate::Engine::session`].
#[derive(Debug)]
pub struct Session {
    rx: Option<Receiver<Event>>,
    wake: Arc<Wake>,
    cancel: CancelToken,
    worker: Option<JoinHandle<()>>,
    /// The runtime-tracked job, when the session runs on a
    /// [`JobRuntime`] rather than a dedicated thread.
    job: Option<Job<()>>,
    finished: bool,
}

/// Where a session's worker body runs: a dedicated thread the session
/// joins on drop ([`crate::Engine::session`]), or a search-lane slot of a
/// [`JobRuntime`], tracked as `job` ([`JobRuntime::submit`]). A session
/// on the runtime waits FIFO for a free slot, and its wall-clock budget
/// starts only once its job does.
///
/// `Engine::session` keeps its own thread on purpose: a caller can hold
/// any number of undrained sessions and still drain them in any order,
/// since each one makes progress on its own thread. On a bounded
/// runtime, a caller holding `slots` undrained sessions while it drains
/// another would wait forever.
pub(crate) enum Host<'a> {
    Thread,
    Runtime { runtime: &'a JobRuntime, job: Job<()> },
}

type WakeHook = Box<dyn Fn() + Send>;

/// The worker's side of [`Session::set_wake_hook`]: the hook, or the
/// number of announcements made before one was installed.
#[derive(Default)]
struct Wake(Mutex<(Option<WakeHook>, usize)>);

impl Wake {
    fn announce(&self) {
        let mut wake = self.0.lock().expect("wake lock");
        match &wake.0 {
            Some(hook) => hook(),
            None => wake.1 += 1,
        }
    }
}

impl std::fmt::Debug for Wake {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Wake")
    }
}

impl Session {
    /// Starts a session on `host`. Every host runs the same body: mark
    /// the job running, trip the `worker_start` fault, stream the run,
    /// and settle the job — `Cancelled` if the token was raised or the
    /// consumer dropped the stream, `Failed` (with the panic's message)
    /// if the body panicked, `Done` otherwise. The job and the session
    /// share one cancellation token. A dedicated thread's job is
    /// untracked: it belongs to no runtime, and [`Session::job`] does not
    /// expose it.
    pub(crate) fn spawn(
        host: Host<'_>,
        inner: Arc<EngineInner>,
        query: Query,
        cfg: RunConfig,
    ) -> Session {
        let (job, fault, runtime) = match host {
            Host::Thread => (
                Job::new(JobId(0), JobKind::Search, "", Telemetry::default()),
                FaultPlane::disabled(),
                None,
            ),
            Host::Runtime { runtime, job } => (job, runtime.fault().clone(), Some(runtime)),
        };
        let (tx, rx) = sync_channel(EVENT_BUFFER);
        let wake = Arc::new(Wake::default());
        let cancel = job.cancel_token();
        let worker_job = job.clone();
        let worker_wake = Arc::clone(&wake);
        let body = move || {
            // A cancelled-while-queued session still runs its body: the
            // search observes the token immediately and the consumer gets
            // its final `Finished` event (outcome `Cancelled`).
            worker_job.mark_running();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // The worker-start injection point: a panic here is a
                // worker dying before it streams anything.
                fault.trip(FaultPoint::WorkerStart);
                let send = |event| tx.send(event).map(|()| worker_wake.announce()).is_ok();
                run_worker(&inner, &query, &cfg, &worker_job.cancel_token(), send)
            }));
            let finished = matches!(outcome, Ok(Some(_)));
            worker_job.settle(match outcome {
                // An abandoned stream (consumer dropped mid-run) counts
                // as cancelled: the run did not complete.
                Ok(Some(Outcome::Cancelled) | None) => JobOutcome::Cancelled,
                Ok(Some(_)) => JobOutcome::Done(()),
                Err(payload) => {
                    JobOutcome::Failed(panic_message(payload.as_ref()))
                }
            });
            // A worker that dies without `Finished` still wakes its
            // consumer, after closing the stream so the woken consumer
            // sees the end rather than an empty buffer.
            drop(tx);
            if !finished {
                worker_wake.announce();
            }
        };
        let (worker, job) = match runtime {
            // No JoinHandle: the runtime owns the thread. Dropping the
            // session cancels the token and closes the channel, which
            // makes the job finish promptly and free its slot.
            Some(runtime) => {
                runtime.spawn(job.kind(), body);
                (None, Some(job))
            }
            None => (Some(std::thread::spawn(body)), None),
        };
        Session { rx: Some(rx), wake, cancel, worker, job, finished: false }
    }

    /// The state of the session's [`Job`], when it was submitted through
    /// [`JobRuntime::submit`] (`None` for dedicated-thread sessions,
    /// which are not scheduled units).
    pub fn job_state(&self) -> Option<JobState> {
        self.job.as_ref().map(Job::state)
    }

    /// The session's runtime job handle, when it has one.
    pub fn job(&self) -> Option<&Job<()>> {
        self.job.as_ref()
    }

    /// Installs the hook that announces this session's events to a
    /// consumer serving many sources from one channel: the worker calls
    /// `hook` once after each event it buffers, and once when it exits
    /// without delivering [`Event::Finished`] (a panic). Each call is
    /// answered by one [`Session::try_next`]: the next event, or `None`
    /// with [`Session::is_finished`] set for a dead worker. Events
    /// buffered before the hook went in are announced right here, on the
    /// calling thread. Both sides take one lock, so no announcement is
    /// lost or made twice; `hook` runs under it, so it must only post.
    pub fn set_wake_hook(&self, hook: impl Fn() + Send + 'static) {
        let mut wake = self.wake.0.lock().expect("wake lock");
        for _ in 0..std::mem::take(&mut wake.1) {
            hook();
        }
        wake.0 = Some(Box::new(hook));
    }

    /// Non-blocking pull: the next buffered event, or `None` when the
    /// worker is still searching — or still waiting for a runtime slot.
    /// Returns `None` forever once [`Event::Finished`] has been
    /// delivered.
    pub fn try_next(&mut self) -> Option<Event> {
        if self.finished {
            return None;
        }
        let got = match self.rx.as_ref()?.try_recv() {
            Err(TryRecvError::Empty) => return None,
            got => got.ok(),
        };
        self.record(got)
    }

    /// Passes a received event on, marking the stream finished at
    /// `Finished` — or at `None`: a worker that died without one.
    fn record(&mut self, got: Option<Event>) -> Option<Event> {
        self.finished = got.as_ref().is_none_or(|e| matches!(e, Event::Finished(_)));
        got
    }

    /// Whether the final [`Event::Finished`] has been delivered (the
    /// iterator and [`Session::try_next`] will yield nothing more).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Requests cooperative cancellation. The session keeps yielding any
    /// in-flight events and then delivers [`Event::Finished`] with
    /// everything ranked so far (its stats report
    /// [`Outcome::Cancelled`]).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// A clonable handle for cancelling this session from elsewhere (a
    /// request handler's shutdown hook, another thread, a timeout reaper).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Consumes the rest of the stream and returns the final result.
    ///
    /// # Panics
    ///
    /// Panics if the session's worker terminated abnormally (a bug — the
    /// worker always delivers `Finished`, even when cancelled).
    pub fn drain(mut self) -> RunResult {
        for event in &mut self {
            if let Event::Finished(result) = event {
                return result;
            }
        }
        panic!("session worker terminated without a Finished event");
    }
}

impl Iterator for Session {
    type Item = Event;

    /// The next event, blocking until the worker buffers one; `None`
    /// after `Finished`, or when the worker panicked (`drain()` panics).
    fn next(&mut self) -> Option<Event> {
        if self.finished {
            return None;
        }
        let got = self.rx.as_ref()?.recv().ok();
        self.record(got)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.cancel.cancel();
        // Close the channel first so a worker blocked on a full buffer
        // unblocks immediately, then reap it.
        self.rx.take();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The session body: synthesize, rank each candidate as it appears, stream
/// events, and finish with the complete ranking. Returns the synthesis
/// outcome, or `None` when the consumer abandoned the stream mid-run.
fn run_worker(
    inner: &EngineInner,
    query: &Query,
    cfg: &RunConfig,
    cancel: &CancelToken,
    send: impl Fn(Event) -> bool,
) -> Option<Outcome> {
    let start = Instant::now();
    let ctx =
        ReContext::with_index(inner.synthesizer.semlib(), &inner.witnesses, &inner.witness_index);
    let mut ranker: Ranker<RankedProgram> = Ranker::new();
    let mut abandoned = false;
    let stats = inner.synthesizer.synthesize(query, &cfg.synthesis, cancel, &mut |event| {
        let to_send = match event {
            SynthEvent::Candidate(cand) => {
                let cost = cost_of(&ctx, &cand.program, query, &cfg.cost);
                let rank_now = ranker.rank_if_inserted(&cost, cand.index);
                let notification = Event::CandidateFound {
                    program: cand.program.clone(),
                    canonical: cand.canonical.clone(),
                    r_orig: cand.index + 1,
                    r_re_now: rank_now,
                    cost: cost.total(),
                    elapsed: cand.elapsed,
                };
                let entry = RankedProgram {
                    program: cand.program,
                    canonical: cand.canonical,
                    gen_index: cand.index,
                    rank_at_generation: rank_now,
                    cost: cost.total(),
                    path_len: cand.path_len,
                    elapsed: cand.elapsed,
                };
                let index = cand.index;
                ranker.insert(entry, index, cost);
                notification
            }
            SynthEvent::DepthExhausted { depth } => Event::DepthExhausted { depth },
        };
        if !send(to_send) {
            // Consumer dropped the session: stop working.
            abandoned = true;
            return false;
        }
        true
    });
    if abandoned {
        return None;
    }
    let re_time = ranker.total_re_time();
    let ranked: Vec<RankedProgram> =
        ranker.into_entries().into_iter().map(|entry| entry.item).collect();
    let candidate_cap_hit = cfg
        .synthesis
        .budget
        .max_candidates
        .is_some_and(|cap| stats.candidates >= cap);
    // A cancel can race the cap check: if the outcome says Cancelled,
    // report cancellation, not budget exhaustion.
    let budget_exhausted = stats.outcome == Outcome::TimedOut
        || (stats.outcome == Outcome::Stopped && candidate_cap_hit);
    let outcome = stats.outcome;
    let result = RunResult { ranked, stats, re_time, total_time: start.elapsed() };
    if budget_exhausted && !send(Event::BudgetExhausted) {
        return None;
    }
    if !send(Event::Finished(result)) {
        return None;
    }
    Some(outcome)
}
