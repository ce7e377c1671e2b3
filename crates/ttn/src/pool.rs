//! Worker pools: a scoped team with deterministic, in-order result
//! delivery for the parallel path search, and a persistent shared pool
//! for the serving layer.
//!
//! The parallel path search needs one property above all: *run
//! independent jobs on K threads, and hand each result to a single
//! consumer in job order* — the job order is what makes the parallel
//! search bit-identical to the serial one. [`team_scope`] provides it on
//! plain [`std::thread::scope`] with no external dependencies: a
//! persistent team of workers that a coordinator feeds jobs *while it is
//! still discovering them* (the search pushes frontier branches as
//! expansion reaches them, so branch search overlaps expansion instead of
//! barrier-syncing), then drains in push order — stealing queued jobs
//! itself whenever the one it is waiting on is already running
//! elsewhere. One team serves many push/drain rounds, so a whole
//! iterative-deepening search spawns its threads exactly once.
//!
//! The coordinator can stop a round early — a shared stop flag is
//! raised, and workers observe it both between jobs and (through the
//! reference passed to the producer) *inside* long-running jobs, so
//! cancellation is prompt.
//!
//! [`SharedPool`] is the other primitive: long-lived threads serving
//! owned `'static` jobs from two FIFO lanes, over which the serving
//! layer multiplexes whole synthesis sessions.
//!
//! ```
//! use apiphany_ttn::pool::team_scope;
//!
//! let squares = team_scope(4, |job: usize, _worker, _stop| job * job, |team| {
//!     for job in 0..8 {
//!         team.push(job);
//!     }
//!     let mut squares = Vec::new();
//!     while let Some(sq) = team.next() {
//!         squares.push(sq);
//!     }
//!     squares
//! });
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Shared state of a [`team_scope`] run: the seq-tagged job queue, the
/// reorder buffer, and the delivery cursors.
struct TeamState<J, R> {
    /// Jobs pushed but not yet claimed, in push order (so every claim —
    /// worker or coordinator — takes the oldest unclaimed job, and the
    /// claimed set is always a prefix of the pushed sequence).
    queue: VecDeque<(usize, J)>,
    /// Completed results waiting for their in-order turn.
    buffered: BTreeMap<usize, R>,
    /// Jobs pushed so far (the next job's sequence number).
    pushed: usize,
    /// Results handed to the coordinator so far (the sequence number
    /// [`Team::next`] waits on).
    delivered: usize,
    /// Jobs claimed but not yet buffered.
    in_flight: usize,
    /// Raised when the scope body returns; workers drain and exit.
    shutdown: bool,
}

struct TeamShared<J, R> {
    state: Mutex<TeamState<J, R>>,
    /// Workers park here between jobs.
    job_ready: Condvar,
    /// The coordinator parks here when the result it waits on is mid-run
    /// on a worker.
    result_ready: Condvar,
    /// Raised by [`Team::stop_and_drain`]; producers poll it inside long
    /// jobs so early termination stays prompt.
    stop: AtomicBool,
}

/// The coordinator's handle inside a [`team_scope`]: push jobs as they
/// are discovered, then drain the results in push order.
pub struct Team<'a, J, R> {
    shared: &'a TeamShared<J, R>,
    produce: &'a (dyn Fn(J, usize, &AtomicBool) -> R + Sync),
}

impl<J, R> std::fmt::Debug for Team<'_, J, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock().expect("team lock");
        f.debug_struct("Team")
            .field("pushed", &state.pushed)
            .field("delivered", &state.delivered)
            .field("in_flight", &state.in_flight)
            .finish()
    }
}

impl<J: Send, R: Send> Team<'_, J, R> {
    /// Enqueues a job; an idle worker picks it up immediately. Results
    /// come back from [`Team::next`] in push order regardless of
    /// completion order.
    pub fn push(&self, job: J) {
        let mut state = self.shared.state.lock().expect("team lock");
        let seq = state.pushed;
        state.pushed += 1;
        state.queue.push_back((seq, job));
        drop(state);
        self.shared.job_ready.notify_one();
    }

    /// Delivers the next result in push order, or `None` when every
    /// pushed job's result has been delivered (the team is then ready for
    /// another push/drain round).
    ///
    /// While the awaited result is still being produced elsewhere, the
    /// coordinator does not idle: it steals the oldest *unclaimed* job
    /// and runs it inline (as producer index `0`). Because every claim
    /// takes the queue front, the claimed set is a prefix of the pushed
    /// sequence — the awaited job is always either buffered, running on
    /// a worker, or the next steal, so this never deadlocks.
    pub fn next(&self) -> Option<R> {
        let mut state = self.shared.state.lock().expect("team lock");
        loop {
            if state.delivered == state.pushed {
                return None;
            }
            let turn = state.delivered;
            if let Some(result) = state.buffered.remove(&turn) {
                state.delivered += 1;
                return Some(result);
            }
            if let Some((seq, job)) = state.queue.pop_front() {
                state.in_flight += 1;
                drop(state);
                let result = (self.produce)(job, 0, &self.shared.stop);
                state = self.shared.state.lock().expect("team lock");
                state.buffered.insert(seq, result);
                state.in_flight -= 1;
                continue;
            }
            state = self.shared.result_ready.wait(state).expect("team lock");
        }
    }

    /// Aborts the current round: raises the stop flag (in-flight
    /// producers bail promptly), discards every queued job and every
    /// undelivered result, and returns once no job is running. The team
    /// is reusable afterwards — the flag is lowered again.
    pub fn stop_and_drain(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        let mut state = self.shared.state.lock().expect("team lock");
        state.queue.clear();
        while state.in_flight > 0 {
            state = self.shared.result_ready.wait(state).expect("team lock");
        }
        state.buffered.clear();
        state.delivered = state.pushed;
        self.shared.stop.store(false, Ordering::Relaxed);
    }
}

/// Runs `body` with a persistent team of `threads` worker threads (see
/// the module docs).
///
/// `produce` runs a job to its result; it receives the producer index —
/// `0` for the coordinator's inline steals, `1..=threads` for the
/// workers, stable for the team's lifetime so callers can pin per-worker
/// scratch state — and the stop flag to poll inside long jobs. The
/// workers live until `body` returns; one team serves arbitrarily many
/// push/drain rounds.
pub fn team_scope<J, R, T, P, F>(threads: usize, produce: P, body: F) -> T
where
    J: Send,
    R: Send,
    P: Fn(J, usize, &AtomicBool) -> R + Sync,
    F: FnOnce(&Team<'_, J, R>) -> T,
{
    let shared = TeamShared {
        state: Mutex::new(TeamState {
            queue: VecDeque::new(),
            buffered: BTreeMap::new(),
            pushed: 0,
            delivered: 0,
            in_flight: 0,
            shutdown: false,
        }),
        job_ready: Condvar::new(),
        result_ready: Condvar::new(),
        stop: AtomicBool::new(false),
    };
    let produce: &(dyn Fn(J, usize, &AtomicBool) -> R + Sync) = &produce;
    let shared = &shared;
    /// Raises the team's shutdown flag when dropped, so the workers exit
    /// and the scope can join them even if `body` panics.
    struct Shutdown<'a, J, R>(&'a TeamShared<J, R>);
    impl<J, R> Drop for Shutdown<'_, J, R> {
        fn drop(&mut self) {
            self.0.state.lock().expect("team lock").shutdown = true;
            self.0.job_ready.notify_all();
        }
    }
    std::thread::scope(|scope| {
        for worker in 1..=threads.max(1) {
            scope.spawn(move || loop {
                let (seq, job) = {
                    let mut state = shared.state.lock().expect("team lock");
                    loop {
                        if let Some(claim) = state.queue.pop_front() {
                            state.in_flight += 1;
                            break claim;
                        }
                        if state.shutdown {
                            return;
                        }
                        state = shared.job_ready.wait(state).expect("team lock");
                    }
                };
                let result = produce(job, worker, &shared.stop);
                let mut state = shared.state.lock().expect("team lock");
                state.buffered.insert(seq, result);
                state.in_flight -= 1;
                drop(state);
                shared.result_ready.notify_one();
            });
        }
        let _shutdown = Shutdown(shared);
        body(&Team { shared, produce })
    })
}

/// Which of a [`SharedPool`]'s two queues a job waits in.
///
/// The serving layer runs two very different job populations over one
/// pool: interactive synthesis sessions (`Search`) and the much coarser
/// analyze-once work — type mining plus TTN construction — of a cold
/// service (`Analysis`). A single FIFO would let a burst of analysis
/// jobs occupy every slot and stall all event streaming, so the pool
/// keeps one queue per lane and picks between them fairly (see
/// [`SharedPool::spawn_lane`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Interactive synthesis runs: FIFO among themselves (the oldest
    /// waiting session always gets the next search-lane slot).
    Search,
    /// Analyze-once jobs: FIFO among themselves, capped so they can never
    /// occupy every slot of a multi-slot pool.
    Analysis,
}

/// A persistent, shareable worker pool: `slots` long-lived threads serving
/// two FIFO job lanes with per-lane fairness.
///
/// Where [`team_scope`] is the *intra-run* primitive (split one search
/// level across scoped threads, borrow freely), `SharedPool` is the
/// *inter-run* primitive the serving layer multiplexes whole synthesis
/// sessions over: each submitted job is an owned `'static` closure (a
/// session worker body), at most `slots` of them run at once, and queued
/// jobs start in submission order as slots free up — the oldest waiting
/// session always gets the next search-lane slot, so a burst of queries
/// drains fairly instead of starving the early ones.
///
/// Jobs land in one of two [`Lane`]s. Each lane is FIFO on its own; when
/// both lanes have work, a freed slot alternates between them (whichever
/// kind ran last yields to the other), and at most `max(1, slots - 1)`
/// analysis jobs execute concurrently — so on any pool with two or more
/// slots, at least one slot is always available to searches and mining
/// can never starve query traffic.
///
/// Cloning the handle shares the same threads and queue (an explicit
/// handle count, not `Arc::strong_count`, decides shutdown — the count
/// would race concurrent drops). The pool shuts down when the last handle
/// is dropped: workers finish the jobs already queued and exit.
///
/// ```
/// use apiphany_ttn::pool::SharedPool;
/// use std::sync::mpsc;
///
/// let pool = SharedPool::new(2);
/// let (tx, rx) = mpsc::channel();
/// for i in 0..8 {
///     let tx = tx.clone();
///     pool.spawn(move || tx.send(i * i).unwrap());
/// }
/// drop(tx);
/// let mut squares: Vec<i32> = rx.iter().collect();
/// squares.sort_unstable();
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub struct SharedPool {
    inner: Arc<SharedQueue>,
}

/// The queue every worker and every handle shares.
struct SharedQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    slots: usize,
    /// Concurrent-analysis cap: `max(1, slots - 1)`.
    analysis_cap: usize,
    /// Live external handles; the drop that takes this to zero shuts the
    /// pool down.
    handles: AtomicUsize,
}

struct QueueState {
    search: VecDeque<Box<dyn FnOnce() + Send>>,
    analysis: VecDeque<Box<dyn FnOnce() + Send>>,
    /// Set when the last external handle drops; workers drain and exit.
    shutdown: bool,
    /// Jobs currently executing on a worker (for [`SharedPool::in_flight`]).
    running: usize,
    /// Analysis jobs currently executing (bounded by `analysis_cap`).
    analysis_running: usize,
    /// When both lanes have an eligible job, take the analysis one iff
    /// this is set; every take flips preference to the *other* lane, so
    /// mixed backlogs drain alternately instead of one kind monopolizing
    /// freed slots.
    prefer_analysis: bool,
    /// Worker join handles, reaped by the last external handle's drop.
    workers: Vec<JoinHandle<()>>,
}

impl QueueState {
    /// Picks the next job a worker should run, honoring the analysis cap
    /// and the lane-alternation preference. `None` = nothing eligible.
    fn take_job(&mut self, analysis_cap: usize) -> Option<(Box<dyn FnOnce() + Send>, Lane)> {
        let analysis_ok =
            !self.analysis.is_empty() && self.analysis_running < analysis_cap;
        let lane = match (!self.search.is_empty(), analysis_ok) {
            (false, false) => return None,
            (true, false) => Lane::Search,
            (false, true) => Lane::Analysis,
            (true, true) => {
                if self.prefer_analysis {
                    Lane::Analysis
                } else {
                    Lane::Search
                }
            }
        };
        self.prefer_analysis = lane == Lane::Search;
        self.running += 1;
        let job = match lane {
            Lane::Search => self.search.pop_front().expect("lane checked non-empty"),
            Lane::Analysis => {
                self.analysis_running += 1;
                self.analysis.pop_front().expect("lane checked non-empty")
            }
        };
        Some((job, lane))
    }
}

impl std::fmt::Debug for SharedPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPool").field("slots", &self.inner.slots).finish()
    }
}

impl SharedPool {
    /// Starts a pool with `slots` worker threads (clamped to at least 1).
    pub fn new(slots: usize) -> SharedPool {
        let slots = slots.max(1);
        let inner = Arc::new(SharedQueue {
            state: Mutex::new(QueueState {
                search: VecDeque::new(),
                analysis: VecDeque::new(),
                shutdown: false,
                running: 0,
                analysis_running: 0,
                prefer_analysis: false,
                workers: Vec::new(),
            }),
            available: Condvar::new(),
            slots,
            analysis_cap: slots.saturating_sub(1).max(1),
            handles: AtomicUsize::new(1),
        });
        let mut workers = Vec::with_capacity(slots);
        for _ in 0..slots {
            let queue = Arc::clone(&inner);
            workers.push(std::thread::spawn(move || worker_loop(&queue)));
        }
        inner.state.lock().expect("pool lock").workers = workers;
        SharedPool { inner }
    }

    /// The number of concurrently running jobs this pool allows.
    pub fn slots(&self) -> usize {
        self.inner.slots
    }

    /// Jobs submitted but not yet started (waiting for a free slot),
    /// summed over both lanes.
    pub fn queued(&self) -> usize {
        let state = self.inner.state.lock().expect("pool lock");
        state.search.len() + state.analysis.len()
    }

    /// Jobs waiting in one specific [`Lane`].
    pub fn queued_lane(&self, lane: Lane) -> usize {
        let state = self.inner.state.lock().expect("pool lock");
        match lane {
            Lane::Search => state.search.len(),
            Lane::Analysis => state.analysis.len(),
        }
    }

    /// Jobs currently executing on a worker.
    pub fn in_flight(&self) -> usize {
        self.inner.state.lock().expect("pool lock").running
    }

    /// Analysis-lane jobs currently executing (never exceeds
    /// `max(1, slots - 1)`).
    pub fn analysis_in_flight(&self) -> usize {
        self.inner.state.lock().expect("pool lock").analysis_running
    }

    /// Submits a search-lane job. It starts immediately if a slot is
    /// free, otherwise it waits in FIFO order behind earlier search-lane
    /// submissions. (Shorthand for [`SharedPool::spawn_lane`] with
    /// [`Lane::Search`].)
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.spawn_lane(Lane::Search, job);
    }

    /// Submits a job into a specific [`Lane`]. Within a lane jobs start
    /// in submission order; across lanes a freed slot alternates between
    /// the two backlogs, and concurrent analysis jobs are capped at
    /// `max(1, slots - 1)` so mining can never occupy every slot of a
    /// multi-slot pool.
    pub fn spawn_lane(&self, lane: Lane, job: impl FnOnce() + Send + 'static) {
        let mut state = self.inner.state.lock().expect("pool lock");
        match lane {
            Lane::Search => state.search.push_back(Box::new(job)),
            Lane::Analysis => state.analysis.push_back(Box::new(job)),
        }
        drop(state);
        self.inner.available.notify_one();
    }
}

fn worker_loop(queue: &SharedQueue) {
    loop {
        let (job, lane) = {
            let mut state = queue.state.lock().expect("pool lock");
            loop {
                if let Some(taken) = state.take_job(queue.analysis_cap) {
                    break taken;
                }
                if state.shutdown {
                    return;
                }
                state = queue.available.wait(state).expect("pool lock");
            }
        };
        // A panicking job must not take the worker (and its slot) down
        // with it: the queue behind it would never drain. The payload is
        // swallowed — a job owns its own error reporting.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        let mut state = queue.state.lock().expect("pool lock");
        state.running -= 1;
        if lane == Lane::Analysis {
            state.analysis_running -= 1;
            // Freeing analysis capacity can make a queued analysis job
            // eligible for a *parked* worker (this worker may take a
            // search job instead under alternation); wake one.
            if !state.analysis.is_empty() {
                queue.available.notify_one();
            }
        }
    }
}

impl Clone for SharedPool {
    fn clone(&self) -> SharedPool {
        self.inner.handles.fetch_add(1, Ordering::Relaxed);
        SharedPool { inner: Arc::clone(&self.inner) }
    }
}

impl Drop for SharedPool {
    fn drop(&mut self) {
        if self.inner.handles.fetch_sub(1, Ordering::AcqRel) != 1 {
            return; // other external handles remain
        }
        let workers = {
            let mut state = self.inner.state.lock().expect("pool lock");
            state.shutdown = true;
            std::mem::take(&mut state.workers)
        };
        self.inner.available.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn team_delivers_streamed_jobs_in_push_order() {
        for threads in [1, 2, 4, 8] {
            let got = team_scope(
                threads,
                // Later jobs finish first to exercise the reorder buffer.
                |job: usize, _, _| {
                    std::thread::sleep(std::time::Duration::from_micros(
                        (32 - job as u64) * 50,
                    ));
                    job * 10
                },
                |team| {
                    for job in 0..32usize {
                        team.push(job);
                    }
                    let mut got = Vec::new();
                    while let Some(r) = team.next() {
                        got.push(r);
                    }
                    got
                },
            );
            let expect: Vec<usize> = (0..32).map(|j| j * 10).collect();
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    /// One team survives several push/drain rounds — the property the
    /// search relies on to spawn its threads once per query, not once per
    /// iterative-deepening level.
    #[test]
    fn team_is_reusable_across_rounds() {
        team_scope(
            3,
            |job: usize, _, _| job + 1,
            |team| {
                for round in 0..5usize {
                    for job in 0..10usize {
                        team.push(round * 100 + job);
                    }
                    let mut got = Vec::new();
                    while let Some(r) = team.next() {
                        got.push(r);
                    }
                    let expect: Vec<usize> =
                        (0..10).map(|j| round * 100 + j + 1).collect();
                    assert_eq!(got, expect, "round = {round}");
                }
            },
        );
    }

    /// The coordinator steals unclaimed jobs while waiting. One job
    /// blocks the single worker until the coordinator's first steal, so
    /// the round can only complete (in order) if stealing works.
    #[test]
    fn coordinator_steals_queued_jobs_while_waiting() {
        use std::sync::atomic::AtomicUsize;
        let by_coordinator = AtomicUsize::new(0);
        let release = AtomicBool::new(false);
        let got = team_scope(
            1,
            |job: usize, who, _| {
                if who == 0 {
                    // A coordinator steal (set *before* any spin below, so
                    // a coordinator-claimed job 0 can't deadlock itself).
                    by_coordinator.fetch_add(1, Ordering::Relaxed);
                    release.store(true, Ordering::Release);
                }
                if job == 0 {
                    // Job 0 parks until the first steal happens: if the
                    // worker claimed it, the coordinator must steal job 1
                    // (the queue front) instead of idling on job 0's turn.
                    while !release.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                job
            },
            |team| {
                for job in 0..16usize {
                    team.push(job);
                }
                let mut got = Vec::new();
                while let Some(r) = team.next() {
                    got.push(r);
                }
                got
            },
        );
        assert_eq!(got, (0..16).collect::<Vec<_>>());
        assert!(by_coordinator.load(Ordering::Relaxed) >= 1);
    }

    /// `stop_and_drain` discards queued jobs and undelivered results,
    /// interrupts in-flight producers via the stop flag, and leaves the
    /// team reusable.
    #[test]
    fn team_stop_and_drain_discards_and_stays_usable() {
        team_scope(
            2,
            |job: usize, _, stop: &AtomicBool| {
                if job < 100 {
                    // First-round jobs spin until stopped: the drain must
                    // interrupt them promptly rather than hang.
                    while !stop.load(Ordering::Relaxed) {
                        std::thread::yield_now();
                    }
                }
                job
            },
            |team| {
                for job in 0..50usize {
                    team.push(job);
                }
                team.stop_and_drain();
                assert!(team.next().is_none(), "drained team must be empty");
                // Second round on the same team works normally.
                for job in 100..110usize {
                    team.push(job);
                }
                let mut got = Vec::new();
                while let Some(r) = team.next() {
                    got.push(r);
                }
                assert_eq!(got, (100..110).collect::<Vec<_>>());
            },
        );
    }

    #[test]
    fn empty_team_round_returns_none() {
        team_scope(2, |job: usize, _, _| job, |team| {
            assert!(team.next().is_none());
        });
    }

    #[test]
    fn shared_pool_runs_every_job() {
        let pool = SharedPool::new(3);
        assert_eq!(pool.slots(), 3);
        let (tx, rx) = mpsc::channel();
        for i in 0..50usize {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn shared_pool_caps_concurrency_at_slots() {
        let pool = SharedPool::new(2);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..16 {
            let (live, peak, tx) = (Arc::clone(&live), Arc::clone(&peak), tx.clone());
            pool.spawn(move || {
                let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(2));
                live.fetch_sub(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 16);
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn shared_pool_serves_queued_jobs_in_submission_order() {
        // One slot: start order must equal submission order exactly.
        let pool = SharedPool::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..20usize {
            let tx = tx.clone();
            pool.spawn(move || tx.send(i).unwrap());
        }
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn shared_pool_survives_panicking_jobs() {
        let pool = SharedPool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.spawn(|| panic!("job blew up"));
        // The single worker must still be alive to run the next job.
        // (`in_flight` is not asserted: the worker decrements it after
        // the send, so the count is racy from here.)
        pool.spawn(move || tx.send(42).unwrap());
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)), Ok(42));
    }

    /// The analysis cap: on a 2-slot pool at most one analysis job runs,
    /// so a search job always finds a slot even under an analysis backlog.
    #[test]
    fn analysis_lane_never_occupies_every_slot() {
        let pool = SharedPool::new(2);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let (done_tx, done_rx) = mpsc::channel::<&'static str>();
        for _ in 0..2 {
            let rx = Arc::clone(&release_rx);
            let done = done_tx.clone();
            pool.spawn_lane(Lane::Analysis, move || {
                rx.lock().unwrap().recv().unwrap();
                done.send("analysis").unwrap();
            });
        }
        pool.spawn(move || done_tx.send("search").unwrap());
        // Both analysis jobs are blocked/queued; the search job must
        // complete anyway because the cap keeps one slot analysis-free.
        assert_eq!(
            done_rx.recv_timeout(std::time::Duration::from_secs(10)),
            Ok("search")
        );
        assert!(pool.analysis_in_flight() <= 1);
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        assert_eq!(done_rx.iter().take(2).count(), 2);
    }

    /// Lane alternation is deterministic: after an analysis job, a freed
    /// slot prefers the search backlog (and vice versa) — the property
    /// the serving layer relies on so a query queued behind its service's
    /// analysis streams before the *next* analysis job starts.
    #[test]
    fn freed_slots_alternate_between_lanes() {
        let pool = SharedPool::new(1);
        let (tx, rx) = mpsc::channel::<&'static str>();
        let inner_pool = pool.clone();
        let inner_tx = tx.clone();
        pool.spawn_lane(Lane::Analysis, move || {
            inner_tx.send("analysis-1").unwrap();
            // Submit one job per lane from inside the running analysis
            // job (the continuation pattern): the single worker must pick
            // the search job first.
            let t1 = inner_tx.clone();
            inner_pool.spawn(move || t1.send("search").unwrap());
            let t2 = inner_tx.clone();
            inner_pool.spawn_lane(Lane::Analysis, move || t2.send("analysis-2").unwrap());
        });
        drop(tx);
        let order: Vec<&str> = rx.iter().collect();
        assert_eq!(order, vec!["analysis-1", "search", "analysis-2"]);
    }

    #[test]
    fn queued_counts_are_per_lane() {
        let pool = SharedPool::new(1);
        let (hold_tx, hold_rx) = mpsc::channel::<()>();
        pool.spawn(move || hold_rx.recv().unwrap());
        // Give the blocker time to occupy the single slot, then queue one
        // job per lane behind it.
        while pool.in_flight() == 0 {
            std::thread::yield_now();
        }
        pool.spawn(|| {});
        pool.spawn_lane(Lane::Analysis, || {});
        assert_eq!(pool.queued_lane(Lane::Search), 1);
        assert_eq!(pool.queued_lane(Lane::Analysis), 1);
        assert_eq!(pool.queued(), 2);
        hold_tx.send(()).unwrap();
    }

    #[test]
    fn shared_pool_drop_drains_queued_jobs() {
        let done = Arc::new(AtomicUsize::new(0));
        {
            let pool = SharedPool::new(1);
            for _ in 0..10 {
                let done = Arc::clone(&done);
                pool.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    done.fetch_add(1, Ordering::SeqCst);
                });
            }
            let clone = pool.clone();
            drop(clone); // dropping a non-final handle must not shut down
        }
        // The final drop joins the workers after the queue drained.
        assert_eq!(done.load(Ordering::SeqCst), 10);
    }
}
