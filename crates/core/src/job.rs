//! The job runtime: every unit of scheduled work — a synthesis run or a
//! service's analyze-once phase — as a first-class, observable,
//! cancellable **job**.
//!
//! A [`Job`] is a cheap, clonable handle on one scheduled unit of work
//! with a stable [`JobId`], a [`JobKind`] (`Analysis` or `Search`), and a
//! state machine `Queued → Running → Done | Failed | Cancelled`. Anyone
//! holding the handle can:
//!
//! * **observe** progress ([`Job::state`], non-blocking) or block until a
//!   terminal state ([`Job::wait`] / [`Job::wait_outcome`]);
//! * **subscribe** a continuation ([`Job::on_terminal`]) that runs
//!   exactly once when the job settles — the serving layer uses this to
//!   chain "submit the query" onto "its service's analysis finished"
//!   without any thread ever blocking — or one that runs when it starts
//!   ([`Job::on_running`]);
//! * **cancel** cooperatively ([`Job::cancel`]): a queued job becomes a
//!   prompt no-op, a running one is interrupted at its next cancellation
//!   point (synthesis polls the token at every search node; the analysis
//!   phase runs to completion — mining has no safe midpoint).
//!
//! Jobs execute on the [`SharedPool`]'s two lanes: [`JobKind::Search`]
//! maps to the FIFO search lane, [`JobKind::Analysis`] to the capped,
//! alternating analysis lane — so a backlog of mining work can never
//! occupy every slot and starve running sessions (see
//! [`apiphany_ttn::pool::Lane`]). [`JobRuntime`] bundles the pool with a
//! job-id allocator and per-kind accounting; one runtime is shared by the
//! [`crate::Scheduler`] (search jobs) and the [`crate::ServiceCatalog`]
//! (analysis jobs), which is what makes "analysis as a schedulable unit"
//! a single-queue property rather than three ad-hoc thread mechanisms.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use apiphany_telemetry::Telemetry;
use apiphany_ttn::pool::{Lane, SharedPool};
use apiphany_ttn::CancelToken;

/// Renders a caught panic payload as the job's failure reason.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// The stable identity of one job, unique within its [`JobRuntime`] (or
/// within a runtime-less catalog's local allocator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// What kind of work a job performs (also selects its pool [`Lane`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// A service's analyze-once phase: type mining + TTN construction
    /// (or an artifact reload + TTN construction).
    Analysis,
    /// One synthesis run: TTN path search + RE ranking, streamed as a
    /// [`crate::Session`].
    Search,
}

impl JobKind {
    /// The wire/display name.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Analysis => "analysis",
            JobKind::Search => "search",
        }
    }

    fn lane(self) -> Lane {
        match self {
            JobKind::Analysis => Lane::Analysis,
            JobKind::Search => Lane::Search,
        }
    }
}

/// A snapshot of a job's position in its state machine.
///
/// `Queued → Running → Done | Failed | Cancelled`; the three right-hand
/// states are terminal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, waiting for a pool slot (or for its lane's turn).
    Queued,
    /// Executing on a pool worker.
    Running,
    /// Finished successfully; the job's product is available.
    Done,
    /// The work itself errored (message preserved for reporting).
    Failed(String),
    /// Cancelled before completing (queued jobs cancel without running).
    Cancelled,
}

impl JobState {
    /// Whether the state is terminal (`Done` / `Failed` / `Cancelled`).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }

    /// The wire/display name (the `Failed` message is carried separately).
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed(_) => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// How a job settled, with its product on success. Handed (by reference)
/// to [`Job::on_terminal`] subscribers and (by value) to
/// [`Job::wait_outcome`] callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The work completed; `T` is its product (an engine for analysis
    /// jobs, `()` for search jobs, whose product is the session stream).
    Done(T),
    /// The work errored.
    Failed(String),
    /// The job was cancelled before it could complete.
    Cancelled,
}

impl<T> JobOutcome<T> {
    /// The state-machine state this outcome corresponds to.
    pub fn state(&self) -> JobState {
        match self {
            JobOutcome::Done(_) => JobState::Done,
            JobOutcome::Failed(msg) => JobState::Failed(msg.clone()),
            JobOutcome::Cancelled => JobState::Cancelled,
        }
    }
}

type Callback<T> = Box<dyn FnOnce(&JobOutcome<T>) + Send>;
type StartCallback = Box<dyn FnOnce() + Send>;

/// Pre-terminal phases carry their subscriber lists; each transition
/// takes its list and runs it exactly once.
enum Phase<T> {
    Queued(Vec<Callback<T>>, Vec<StartCallback>),
    Running(Vec<Callback<T>>),
    Terminal(JobOutcome<T>),
}

struct JobInner<T> {
    id: JobId,
    kind: JobKind,
    /// What the job is about, for reporting (a service name for analysis
    /// jobs, a query tag for search jobs).
    label: String,
    cancel: CancelToken,
    phase: Mutex<Phase<T>>,
    changed: Condvar,
    /// When the job was created (queue latency = created → running).
    created: Instant,
    /// When the job entered `Running` (run time = running → settled).
    started: Mutex<Option<Instant>>,
    /// Observability plane: queue/run latency histograms, terminal-state
    /// counters, and one flight-recorder event per state transition
    /// (which is how a post-mortem dump names the affected job ids).
    telemetry: Telemetry,
}

/// A clonable handle on one scheduled unit of work. See the module docs.
pub struct Job<T> {
    inner: Arc<JobInner<T>>,
}

impl<T> Clone for Job<T> {
    fn clone(&self) -> Job<T> {
        Job { inner: Arc::clone(&self.inner) }
    }
}

impl<T> std::fmt::Debug for Job<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.inner.id)
            .field("kind", &self.inner.kind)
            .field("label", &self.inner.label)
            .field("state", &self.state())
            .finish()
    }
}

impl<T> Job<T> {
    /// A fresh job in `Queued` with its own cancellation token.
    pub(crate) fn new(
        id: JobId,
        kind: JobKind,
        label: impl Into<String>,
        telemetry: Telemetry,
    ) -> Job<T> {
        Job {
            inner: Arc::new(JobInner {
                id,
                kind,
                label: label.into(),
                cancel: CancelToken::new(),
                phase: Mutex::new(Phase::Queued(Vec::new(), Vec::new())),
                changed: Condvar::new(),
                created: Instant::now(),
                started: Mutex::new(None),
                telemetry,
            }),
        }
    }

    /// The job's stable identity.
    pub fn id(&self) -> JobId {
        self.inner.id
    }

    /// What kind of work this job performs.
    pub fn kind(&self) -> JobKind {
        self.inner.kind
    }

    /// What the job is about (a service name for analysis jobs).
    pub fn label(&self) -> &str {
        &self.inner.label
    }

    /// A snapshot of the job's current state.
    pub fn state(&self) -> JobState {
        match &*self.inner.phase.lock().expect("job lock") {
            Phase::Queued(..) => JobState::Queued,
            Phase::Running(_) => JobState::Running,
            Phase::Terminal(outcome) => outcome.state(),
        }
    }

    /// Requests cooperative cancellation. A queued job settles
    /// `Cancelled` without running; a running search job stops at its
    /// next poll; a running analysis job aborts its mining at the next
    /// cancellation check and settles `Cancelled` (its partial product
    /// is discarded, never published or persisted).
    pub fn cancel(&self) {
        self.inner.cancel.cancel();
    }

    /// Cancels the job only if it has not started running yet; returns
    /// whether the cancel was issued. The check-and-cancel is atomic
    /// with respect to the pool worker's queued→running transition, so a
    /// job this method declines to cancel runs with an untouched token —
    /// `evict` uses this to free a name without destroying work in
    /// flight.
    pub fn cancel_if_queued(&self) -> bool {
        let phase = self.inner.phase.lock().expect("job lock");
        if matches!(&*phase, Phase::Queued(..)) {
            self.inner.cancel.cancel();
            true
        } else {
            false
        }
    }

    /// The job's cancellation token (shared with the work it runs; for a
    /// search job this is the session's own token).
    pub fn cancel_token(&self) -> CancelToken {
        self.inner.cancel.clone()
    }

    /// Blocks until the job settles; returns the terminal [`JobState`].
    pub fn wait(&self) -> JobState {
        let mut phase = self.inner.phase.lock().expect("job lock");
        loop {
            if let Phase::Terminal(outcome) = &*phase {
                return outcome.state();
            }
            phase = self.inner.changed.wait(phase).expect("job lock");
        }
    }

    /// Subscribes `f` to the job's start: it runs once, on the worker,
    /// when the job enters `Running` — or right away on the calling
    /// thread if the job is running already. A job that settles without
    /// running, or has settled already, never calls it.
    pub fn on_running(&self, f: impl FnOnce() + Send + 'static) {
        let mut phase = self.inner.phase.lock().expect("job lock");
        match &mut *phase {
            Phase::Queued(_, starts) => starts.push(Box::new(f)),
            Phase::Running(_) => {
                drop(phase);
                f();
            }
            Phase::Terminal(_) => {}
        }
    }

    /// Marks the job `Running` and runs its start subscribers (no-op if it
    /// already settled — a cancelled queued job may have been settled by
    /// its own body's early-out).
    pub(crate) fn mark_running(&self) {
        let mut phase = self.inner.phase.lock().expect("job lock");
        if let Phase::Queued(subs, starts) = &mut *phase {
            let starts = std::mem::take(starts);
            *phase = Phase::Running(std::mem::take(subs));
            drop(phase);
            self.inner.changed.notify_all();
            let telemetry = &self.inner.telemetry;
            if telemetry.is_enabled() {
                let now = Instant::now();
                *self.inner.started.lock().expect("job started lock") = Some(now);
                telemetry
                    .histogram("jobs.queue_us")
                    .record_duration(now.duration_since(self.inner.created));
                telemetry.record(
                    "job",
                    [
                        ("id", self.inner.id.to_string()),
                        ("kind", self.inner.kind.name().to_string()),
                        ("label", self.inner.label.clone()),
                        ("state", "running".to_string()),
                    ],
                );
            }
            for f in starts {
                f();
            }
        }
    }
}

impl<T: Clone> Job<T> {
    /// A job born already settled (e.g. a `prewarm` of a service that is
    /// already warm reports an instant `Done`).
    pub(crate) fn settled(
        id: JobId,
        kind: JobKind,
        label: impl Into<String>,
        outcome: JobOutcome<T>,
        telemetry: Telemetry,
    ) -> Job<T> {
        let job = Job::new(id, kind, label, telemetry);
        job.settle(outcome);
        job
    }

    /// Blocks until the job settles; returns a clone of the outcome
    /// (including the product on `Done`).
    pub fn wait_outcome(&self) -> JobOutcome<T> {
        let mut phase = self.inner.phase.lock().expect("job lock");
        loop {
            if let Phase::Terminal(outcome) = &*phase {
                return outcome.clone();
            }
            phase = self.inner.changed.wait(phase).expect("job lock");
        }
    }

    /// Subscribes a continuation that runs exactly once with the job's
    /// outcome: on the settling thread if the job is still in flight, or
    /// immediately on the calling thread if it has already settled.
    ///
    /// Continuations registered before the job settles run *before* the
    /// pool worker picks its next job — the serving layer leans on this
    /// ordering so a query queued behind its service's analysis enters
    /// the search lane ahead of any later analysis job.
    pub fn on_terminal(&self, f: impl FnOnce(&JobOutcome<T>) + Send + 'static) {
        let mut phase = self.inner.phase.lock().expect("job lock");
        match &mut *phase {
            Phase::Queued(subs, _) | Phase::Running(subs) => {
                subs.push(Box::new(f));
            }
            Phase::Terminal(outcome) => {
                // Run outside the lock: the callback may inspect the job.
                let outcome = outcome.clone();
                drop(phase);
                f(&outcome);
            }
        }
    }

    /// Settles the job: stores the outcome, wakes every waiter, and runs
    /// every subscribed continuation (on this thread, outside the lock).
    /// Idempotent — only the first settle takes effect.
    pub(crate) fn settle(&self, outcome: JobOutcome<T>) {
        let callbacks = {
            let mut phase = self.inner.phase.lock().expect("job lock");
            match &mut *phase {
                Phase::Terminal(_) => return,
                Phase::Queued(subs, _) | Phase::Running(subs) => {
                    // Count the settle *before* the phase flips: a waiter
                    // released by the flip may snapshot the registry
                    // immediately, and must find this job already counted.
                    self.record_settle(&outcome);
                    let subs = std::mem::take(subs);
                    *phase = Phase::Terminal(outcome.clone());
                    subs
                }
            }
        };
        self.inner.changed.notify_all();
        for cb in callbacks {
            cb(&outcome);
        }
    }

    /// The settle-side telemetry: run duration, the terminal counter, and
    /// the flight-recorder `job` event. Called exactly once, under the
    /// phase lock (the telemetry plane takes no job locks, so the nesting
    /// cannot invert).
    fn record_settle(&self, outcome: &JobOutcome<T>) {
        let telemetry = &self.inner.telemetry;
        if !telemetry.is_enabled() {
            return;
        }
        let state = outcome.state();
        if let Some(started) = *self.inner.started.lock().expect("job started lock") {
            telemetry.histogram("jobs.run_us").record_duration(started.elapsed());
        }
        telemetry
            .counter(match state {
                JobState::Failed(_) => "jobs.failed",
                JobState::Cancelled => "jobs.cancelled",
                _ => "jobs.completed",
            })
            .inc();
        let mut fields = vec![
            ("id", self.inner.id.to_string()),
            ("kind", self.inner.kind.name().to_string()),
            ("label", self.inner.label.clone()),
            ("state", state.name().to_string()),
        ];
        if let JobState::Failed(reason) = &state {
            fields.push(("reason", reason.clone()));
        }
        telemetry.record("job", fields);
    }
}

/// Live queue/slot accounting of a [`JobRuntime`] (see
/// [`JobRuntime::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Worker slots in the underlying pool.
    pub slots: usize,
    /// Search jobs waiting for a slot.
    pub queued_search: usize,
    /// Analysis jobs waiting for a slot (or for analysis capacity).
    pub queued_analysis: usize,
    /// Jobs of either kind currently executing.
    pub running: usize,
    /// Analysis jobs currently executing (capped at `max(1, slots - 1)`).
    pub analysis_running: usize,
    /// The analysis lane's concurrency cap (`max(1, slots - 1)`): at most
    /// this many analysis jobs run at once, so mining backlogs can never
    /// occupy every slot.
    pub analysis_cap: usize,
    /// Transient analysis failures retried so far (the supervised-retry
    /// counter the catalog bumps once per re-attempt).
    pub analysis_retries: u64,
}

/// A [`SharedPool`] plus job bookkeeping: the execution substrate shared
/// by the [`crate::Scheduler`] (search jobs) and any
/// [`crate::ServiceCatalog`] configured with
/// [`crate::ServiceCatalog::with_runtime`] (analysis jobs). Cloning the
/// runtime shares the pool, the id allocator, and the accounting.
#[derive(Clone)]
pub struct JobRuntime {
    pool: SharedPool,
    ids: Arc<AtomicU64>,
    retries: Arc<AtomicU64>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for JobRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRuntime").field("slots", &self.pool.slots()).finish()
    }
}

impl JobRuntime {
    /// A runtime with its own pool of `slots` worker threads.
    pub fn new(slots: usize) -> JobRuntime {
        JobRuntime::with_pool(SharedPool::new(slots))
    }

    /// A runtime over an existing pool (to share slots with other pool
    /// users).
    pub fn with_pool(pool: SharedPool) -> JobRuntime {
        JobRuntime {
            pool,
            ids: Arc::new(AtomicU64::new(1)),
            retries: Arc::new(AtomicU64::new(0)),
            telemetry: Telemetry::default(),
        }
    }

    /// The same runtime reporting into `telemetry`: every job it creates
    /// records its queue/run latency and state transitions there, and
    /// [`JobRuntime::stats`] publishes the lane-occupancy gauges.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> JobRuntime {
        self.telemetry = telemetry;
        self
    }

    /// The observability plane this runtime reports into (the disabled
    /// plane unless [`JobRuntime::with_telemetry`] installed one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The shared supervised-retry counter: bumped by the
    /// [`crate::ServiceCatalog`] each time a transient analysis failure
    /// is re-attempted, surfaced in [`RuntimeStats::analysis_retries`].
    pub(crate) fn retry_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.retries)
    }

    /// The underlying pool handle.
    pub fn pool(&self) -> &SharedPool {
        &self.pool
    }

    /// Worker slots in the underlying pool.
    pub fn slots(&self) -> usize {
        self.pool.slots()
    }

    /// Allocates the next [`JobId`].
    pub(crate) fn next_id(&self) -> JobId {
        JobId(self.ids.fetch_add(1, Ordering::Relaxed))
    }

    /// Creates a fresh `Queued` job tracked by this runtime's id space.
    pub(crate) fn new_job<T: Clone>(&self, kind: JobKind, label: impl Into<String>) -> Job<T> {
        Job::new(self.next_id(), kind, label, self.telemetry.clone())
    }

    /// Submits a job body to the pool lane matching `kind`. The body owns
    /// its job's state transitions (`mark_running` / `settle`).
    pub(crate) fn spawn(&self, kind: JobKind, body: impl FnOnce() + Send + 'static) {
        self.pool.spawn_lane(kind.lane(), body);
    }

    /// A snapshot of queue and slot occupancy. When a telemetry plane is
    /// installed the per-lane occupancy gauges (`pool.queued_search`,
    /// `pool.queued_analysis`, `pool.running`, `pool.analysis_running`)
    /// and the `jobs.retries` counter-gauge are refreshed from the same
    /// numbers, so a metrics snapshot taken right after agrees with the
    /// report.
    pub fn stats(&self) -> RuntimeStats {
        let stats = RuntimeStats {
            slots: self.pool.slots(),
            queued_search: self.pool.queued_lane(Lane::Search),
            queued_analysis: self.pool.queued_lane(Lane::Analysis),
            running: self.pool.in_flight(),
            analysis_running: self.pool.analysis_in_flight(),
            analysis_cap: self.pool.slots().saturating_sub(1).max(1),
            analysis_retries: self.retries.load(Ordering::Relaxed),
        };
        if self.telemetry.is_enabled() {
            let as_i64 = |v: usize| i64::try_from(v).unwrap_or(i64::MAX);
            self.telemetry.gauge("pool.slots").set(as_i64(stats.slots));
            self.telemetry.gauge("pool.queued_search").set(as_i64(stats.queued_search));
            self.telemetry.gauge("pool.queued_analysis").set(as_i64(stats.queued_analysis));
            self.telemetry.gauge("pool.running").set(as_i64(stats.running));
            self.telemetry.gauge("pool.analysis_running").set(as_i64(stats.analysis_running));
            self.telemetry
                .gauge("jobs.retries")
                .set(i64::try_from(stats.analysis_retries).unwrap_or(i64::MAX));
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_machine_walks_queued_running_done() {
        let job: Job<u32> = Job::new(JobId(1), JobKind::Search, "t", Telemetry::default());
        assert_eq!(job.state(), JobState::Queued);
        assert!(!job.state().is_terminal());
        job.mark_running();
        assert_eq!(job.state(), JobState::Running);
        job.settle(JobOutcome::Done(7));
        assert_eq!(job.state(), JobState::Done);
        assert!(job.state().is_terminal());
        assert_eq!(job.wait_outcome(), JobOutcome::Done(7));
        // Settling is idempotent: a late cancel does not overwrite Done.
        job.settle(JobOutcome::Cancelled);
        assert_eq!(job.state(), JobState::Done);
    }

    #[test]
    fn subscribers_run_exactly_once_in_flight_or_late() {
        use std::sync::atomic::AtomicUsize;
        let job: Job<u32> = Job::new(JobId(2), JobKind::Analysis, "svc", Telemetry::default());
        let early = Arc::new(AtomicUsize::new(0));
        let e = Arc::clone(&early);
        job.on_terminal(move |outcome| {
            assert_eq!(outcome, &JobOutcome::Done(9));
            e.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(early.load(Ordering::SeqCst), 0);
        job.settle(JobOutcome::Done(9));
        assert_eq!(early.load(Ordering::SeqCst), 1);
        // Late subscription runs immediately on this thread.
        let late = Arc::new(AtomicUsize::new(0));
        let l = Arc::clone(&late);
        job.on_terminal(move |_| {
            l.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(late.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn start_subscribers_run_once_and_only_for_jobs_that_run() {
        let (tx, rx) = std::sync::mpsc::channel();
        let job: Job<u32> = Job::new(JobId(5), JobKind::Analysis, "svc", Telemetry::default());
        let post = tx.clone();
        job.on_running(move || post.send("queued").unwrap());
        job.mark_running();
        job.mark_running();
        // Already running: the subscriber runs right away.
        let post = tx.clone();
        job.on_running(move || post.send("running").unwrap());
        // A job cancelled while queued never starts.
        let skipped: Job<u32> = Job::new(JobId(6), JobKind::Analysis, "svc", Telemetry::default());
        skipped.on_running(move || tx.send("skipped").unwrap());
        skipped.settle(JobOutcome::Cancelled);
        assert_eq!(rx.iter().collect::<Vec<_>>(), ["queued", "running"]);
    }

    #[test]
    fn wait_blocks_until_settled_across_threads() {
        let job: Job<&'static str> =
            Job::new(JobId(3), JobKind::Analysis, "svc", Telemetry::default());
        let waiter = job.clone();
        let handle = std::thread::spawn(move || waiter.wait_outcome());
        std::thread::sleep(std::time::Duration::from_millis(5));
        job.mark_running();
        job.settle(JobOutcome::Done("engine"));
        assert_eq!(handle.join().unwrap(), JobOutcome::Done("engine"));
    }

    #[test]
    fn cancel_is_a_shared_token() {
        let job: Job<()> = Job::new(JobId(4), JobKind::Search, "q", Telemetry::default());
        let token = job.cancel_token();
        assert!(!token.is_cancelled());
        job.cancel();
        assert!(token.is_cancelled());
        // The state machine is settled by the body, not the token.
        assert_eq!(job.state(), JobState::Queued);
        job.settle(JobOutcome::Cancelled);
        assert_eq!(job.wait(), JobState::Cancelled);
    }

    /// Every state transition of an instrumented job lands in the flight
    /// recorder with the job's id, and the latency histograms and
    /// terminal counters fill in.
    #[test]
    fn instrumented_jobs_record_transitions_latencies_and_counters() {
        let telemetry = Telemetry::enabled();
        let done: Job<u32> = Job::new(JobId(9), JobKind::Search, "q1", telemetry.clone());
        done.mark_running();
        done.settle(JobOutcome::Done(1));
        let failed: Job<u32> = Job::new(JobId(10), JobKind::Analysis, "svc", telemetry.clone());
        failed.mark_running();
        failed.settle(JobOutcome::Failed("boom".into()));
        let cancelled: Job<u32> = Job::new(JobId(11), JobKind::Search, "q2", telemetry.clone());
        cancelled.settle(JobOutcome::Cancelled); // cancelled while queued

        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("jobs.completed"), Some(1));
        assert_eq!(snap.counter("jobs.failed"), Some(1));
        assert_eq!(snap.counter("jobs.cancelled"), Some(1));
        // Two jobs ran; the queued-cancelled one has no run-time sample.
        assert_eq!(snap.histogram("jobs.queue_us").unwrap().count(), 2);
        assert_eq!(snap.histogram("jobs.run_us").unwrap().count(), 2);
        let dump = telemetry.recorder_dump();
        let of = |id: &str, state: &str| {
            dump.iter().any(|e| {
                e.kind == "job" && e.field("id") == Some(id) && e.field("state") == Some(state)
            })
        };
        assert!(of("job-9", "running") && of("job-9", "done"), "{dump:?}");
        assert!(of("job-10", "failed"));
        assert!(
            dump.iter().any(|e| e.field("id") == Some("job-10")
                && e.field("reason") == Some("boom")),
            "failure reason must be recorded"
        );
        assert!(of("job-11", "cancelled") && !of("job-11", "running"));
    }

    #[test]
    fn runtime_stats_publish_occupancy_gauges() {
        let telemetry = Telemetry::enabled();
        let runtime = JobRuntime::new(2).with_telemetry(telemetry.clone());
        let _ = runtime.stats();
        let snap = telemetry.snapshot();
        assert_eq!(snap.gauge("pool.slots"), Some(2));
        assert_eq!(snap.gauge("pool.running"), Some(0));
        assert_eq!(snap.gauge("pool.queued_search"), Some(0));
    }

    #[test]
    fn runtime_allocates_distinct_ids_and_reports_stats() {
        let runtime = JobRuntime::new(2);
        let a: Job<()> = runtime.new_job(JobKind::Search, "a");
        let b: Job<()> = runtime.new_job(JobKind::Analysis, "b");
        assert_ne!(a.id(), b.id());
        assert_eq!(b.kind().name(), "analysis");
        let stats = runtime.stats();
        assert_eq!(stats.slots, 2);
        assert_eq!(stats.queued_search + stats.queued_analysis + stats.running, 0);
    }
}
