//! The parallel path search's worker team: a scoped pool with
//! deterministic, in-order result delivery.
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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
