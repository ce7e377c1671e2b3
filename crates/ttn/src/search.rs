//! Path enumeration in the TTN (paper Fig. 10, `Paths(N, I, F)`).
//!
//! The paper enumerates all valid paths of increasing length with an ILP
//! solver (Gurobi). This reproduction searches with a direct depth-first
//! enumerator over markings: for every length `L = 1, 2, ...` it yields
//! every firing sequence that moves the initial marking `I` exactly to
//! the final marking `F` (one token at the output type, nothing anywhere
//! else). The paper's 0-1 ILP encoding (Appendix B.2) survives in
//! [`crate::ilp`] as the test oracle this search is checked against.
//!
//! # Pruning
//!
//! The first three rules below only ever skip subtrees that hold no
//! path, so they never change the emitted stream; the fourth only skips
//! reorderings of a path it keeps. A brute-force reference enumerator
//! with the same symmetry rule and none of the others pins the stream,
//! order included (`crates/ttn/tests/proptest_solvers.rs`):
//!
//! - **Token-count window.** A firing changes the token total by a
//!   bounded amount, so a node whose total cannot reach `|F|` in the
//!   remaining firings is cut.
//! - **Backward cost-to-go.** Every token must end as a final token or be
//!   consumed, and consuming it fires a transition whose output tokens
//!   each need their own later chain. A per-place lower bound on that
//!   chain (a fixpoint over the net, computed once per
//!   [`enumerate_search`] call against `F`) cuts a node when some marked
//!   place's bound exceeds the remaining length, and skips a firing
//!   whose outputs already exceed its child's budget before it is
//!   applied. On the Table 2 nets this is what makes depth 6 and beyond
//!   tractable: it removes almost every subtree that holds a token the
//!   remaining firings can never consume.
//! - **Dead-state memo.** Subtrees proven path-free are remembered by
//!   `(marking, remaining)` (see *Parallel search*).
//! - **Symmetry breaking.** Consecutive no-input firings commute, so only
//!   their nondecreasing-id order is explored (see `Dfs::expand`).
//!
//! # Parallel search
//!
//! With [`SearchConfig::threads`] > 1 the search runs each deep
//! iterative-deepening level on a streaming worker team
//! ([`crate::pool::team_scope`], spawned once per query): the
//! coordinator expands a shallow *frontier* (every distinct firing
//! prefix of a small depth, enumerated in exactly the serial visit
//! order) and pushes each branch to the team the moment expansion
//! reaches it, so branch search overlaps expansion instead of
//! barrier-syncing; the per-branch path lists are then stitched back
//! together in frontier order. Because the frontier order equals the
//! serial DFS prefix order, branch-local sub-enumeration is serial, and
//! dead-set memoization only ever prunes subtrees that contain *no*
//! paths, the emitted path stream is **bit-identical to the serial
//! enumeration for every thread count** — parallelism is a pure
//! wall-clock optimization, never a semantic knob. Cancellation and
//! deadlines stay cooperative: every worker polls the [`CancelToken`],
//! the deadline, and the team's stop flag at every node.
//!
//! Every participant — the coordinator's expansion pass included —
//! probes and populates **one shared concurrent dead-set**
//! ([`crate::dead`]): dead verdicts are monotone truths of the search,
//! so a verdict proven by any worker prunes the same subtree for all of
//! them, for the whole query. This is what keeps the parallel node count
//! at parity with serial — with per-worker memos (PR 3–9), every worker
//! re-proved subtrees its siblings had already killed, and the explored
//! node count *grew* with the thread count faster than the threads could
//! absorb it. Stale reads are safe (a missed fact only re-explores a
//! path-free subtree), so probes are lock-free. Each worker also keeps
//! one persistent [`DfsScratch`] across branches and levels, so steady-
//! state search allocates nothing per branch.
//!
//! Tradeoff: a parallel level buffers each branch's path list until its
//! in-order turn, so peak memory grows with the level's path count
//! (bounded by [`SearchConfig::max_paths`] per branch) instead of the
//! serial enumerator's O(depth) — on path-dense nets with an unbounded
//! `max_paths`, prefer serial search or set a cap.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use apiphany_spec::CancelToken;
use apiphany_telemetry::{Counter, Gauge, Histogram, Telemetry};
use crate::dead::{Probe, SharedDeadSet};
use crate::marking::{apply, can_fire, unapply, Firing, Marking};
use crate::net::{TokenBounds, TransId, Transition, Ttn};
use crate::pool::{team_scope, Team};

/// Search configuration.
///
/// The pruning bounds (see the module docs) have no knob: they never
/// change the emitted stream, so they are always on. Only the dead-set's
/// size is configurable ([`SearchConfig::dead_set_cap`]).
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Maximum path length for iterative deepening.
    pub max_len: usize,
    /// First level actually searched. Levels below it are *reported* (a
    /// [`SearchEvent::DepthExhausted`] per level, preserving the event
    /// stream shape) but not explored — the caller asserts, typically via
    /// a reachability distance bound, that they cannot contain a path.
    /// `1` (the default) searches every level.
    pub start_len: usize,
    /// Stop after this many paths.
    pub max_paths: usize,
    /// Wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Worker threads (`1` = fully serial, the default). The emitted path
    /// stream is bit-identical for every value; see the module docs for
    /// why.
    pub threads: usize,
    /// Capacity of the dead-state memo (entries); `0` disables
    /// memoization entirely. The memo is **one shared concurrent set**
    /// (`crates/ttn/src/dead.rs`) probed and populated by the serial enumerator,
    /// the frontier expansion, and every pool worker alike — a verdict
    /// proven anywhere prunes everywhere. The cap is split across the
    /// set's shards; when a shard fills, it evicts its oldest epoch
    /// (half its entries) instead of rejecting inserts, so deep searches
    /// keep memoizing their current frontier. Memory follows the entries
    /// actually stored: each shard's tables start at one 4 KiB page and
    /// grow ×4 as they fill, so a short search allocates a few pages per
    /// shard it touches. The cap only bounds the worst case: at the
    /// default it is 85 MiB (the full-size tables, 64 MiB, plus the
    /// smaller levels they grew through, kept until the search ends).
    /// Hit/miss/shared-hit/evicted counts are reported through
    /// [`SearchStats`].
    pub dead_set_cap: usize,
    /// Observability plane the search reports into: counters
    /// `search.nodes` / `search.paths` / `search.bound_pruned` /
    /// `search.dead_hits` / `search.dead_shared_hits` /
    /// `search.dead_misses` / `search.dead_evicted`, the
    /// `search.dead_set_entries` occupancy
    /// gauge, plus the per-level
    /// `search.depth_us` wall-time histogram. Flushed once per
    /// iterative-deepening level, so the hot DFS loop keeps its plain
    /// non-atomic counters. Telemetry **observes, never steers** — no
    /// search decision branches on it, which preserves the bit-identical
    /// stream guarantee with telemetry enabled. The default is the
    /// disabled plane (every flush is a handful of no-op branches).
    pub telemetry: Telemetry,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            max_len: 8,
            start_len: 1,
            max_paths: usize::MAX,
            deadline: None,
            threads: 1,
            dead_set_cap: 2_000_000,
            telemetry: Telemetry::default(),
        }
    }
}

/// Why enumeration stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchOutcome {
    /// All paths up to `max_len` were enumerated.
    Exhausted,
    /// The consumer asked to stop or `max_paths` was reached.
    Stopped,
    /// The deadline was reached.
    TimedOut,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

/// Counters accumulated by the search (summed over all levels and, in a
/// parallel search, over all workers). When a parallel search stops
/// early (cap, cancel, deadline), counters from workers whose results
/// were discarded are not included — treat the numbers as a lower bound
/// on work performed in that case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Search nodes visited (states expanded past the budget polls).
    pub nodes: u64,
    /// Paths emitted (including any the consumer rejected).
    pub paths: u64,
    /// Cuts made by the backward cost-to-go bound (see the module docs):
    /// firings skipped before they were applied, plus visited nodes cut
    /// because a marked place's bound exceeded the remaining length.
    pub bound_pruned: u64,
    /// Dead-set lookups that pruned a subtree.
    pub dead_hits: u64,
    /// The subset of [`SearchStats::dead_hits`] whose verdict was
    /// inserted by a *different* worker — the measure of how much
    /// pruning knowledge actually amortizes across the pool (always `0`
    /// in a serial search).
    pub dead_shared_hits: u64,
    /// Dead-set lookups that missed.
    pub dead_misses: u64,
    /// Dead facts discarded by epoch eviction: when the memo reaches
    /// [`SearchConfig::dead_set_cap`] its oldest epoch (half the entries)
    /// is cleared to make room, so deep searches keep memoizing their
    /// current frontier instead of freezing on stale shallow states.
    /// Eviction only forgets facts — it can re-explore a subtree, never
    /// drop a path.
    pub dead_evicted: u64,
}

impl SearchStats {
    /// Adds `other`'s counters into these.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.nodes += other.nodes;
        self.paths += other.paths;
        self.bound_pruned += other.bound_pruned;
        self.dead_hits += other.dead_hits;
        self.dead_shared_hits += other.dead_shared_hits;
        self.dead_misses += other.dead_misses;
        self.dead_evicted += other.dead_evicted;
    }
}

/// Cached telemetry handles for the search series. Flushed with
/// per-level [`SearchStats`] deltas so instrumentation costs a handful
/// of relaxed adds per *level*, not per node — the DFS hot path keeps
/// its plain non-atomic counters.
struct LevelMetrics {
    nodes: Counter,
    paths: Counter,
    bound_pruned: Counter,
    dead_hits: Counter,
    dead_shared_hits: Counter,
    dead_misses: Counter,
    dead_evicted: Counter,
    /// Live entries across the shared dead-set's shards, sampled at each
    /// level boundary (occupancy is summed under the shard locks, so it
    /// is never read on the probe path).
    dead_entries: Gauge,
    depth_us: Histogram,
    /// Totals already published, so each flush adds only the growth.
    reported: SearchStats,
}

impl LevelMetrics {
    fn new(telemetry: &Telemetry) -> LevelMetrics {
        LevelMetrics {
            nodes: telemetry.counter("search.nodes"),
            paths: telemetry.counter("search.paths"),
            bound_pruned: telemetry.counter("search.bound_pruned"),
            dead_hits: telemetry.counter("search.dead_hits"),
            dead_shared_hits: telemetry.counter("search.dead_shared_hits"),
            dead_misses: telemetry.counter("search.dead_misses"),
            dead_evicted: telemetry.counter("search.dead_evicted"),
            dead_entries: telemetry.gauge("search.dead_set_entries"),
            depth_us: telemetry.histogram("search.depth_us"),
            reported: SearchStats::default(),
        }
    }

    fn flush(&mut self, stats: &SearchStats, dead: &SharedDeadSet) {
        self.nodes.add(stats.nodes - self.reported.nodes);
        self.paths.add(stats.paths - self.reported.paths);
        self.bound_pruned.add(stats.bound_pruned - self.reported.bound_pruned);
        self.dead_hits.add(stats.dead_hits - self.reported.dead_hits);
        self.dead_shared_hits
            .add(stats.dead_shared_hits - self.reported.dead_shared_hits);
        self.dead_misses.add(stats.dead_misses - self.reported.dead_misses);
        self.dead_evicted.add(stats.dead_evicted - self.reported.dead_evicted);
        self.dead_entries.set(dead.occupancy() as i64);
        self.reported = *stats;
    }
}

/// The result of [`enumerate_search`]: how the search ended plus the DFS
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchReport {
    /// Why enumeration stopped.
    pub outcome: SearchOutcome,
    /// Accumulated search counters.
    pub stats: SearchStats,
}

/// One notification from [`enumerate_search`].
#[derive(Debug)]
pub enum SearchEvent<'a> {
    /// A valid path from the initial to the final marking.
    Path(&'a [Firing]),
    /// Every path of length `depth` has been enumerated (the iterative
    /// deepening level completed without hitting a limit).
    DepthExhausted {
        /// The completed length level.
        depth: usize,
    },
}

/// Enumerates valid paths from `init` to `fin` in order of increasing
/// length, invoking `on_event` for each [`SearchEvent`]: every path, plus a
/// [`SearchEvent::DepthExhausted`] marker when a length level completes.
/// The callback returns `false` to stop; `cancel` stops the search
/// cooperatively from another thread (polled at every search node).
///
/// With [`SearchConfig::threads`] > 1 each level runs on a worker pool;
/// the event stream (paths *and* their order) is bit-identical to the
/// serial run. `on_event` itself always runs on the calling thread.
pub fn enumerate_search(
    net: &Ttn,
    init: &Marking,
    fin: &Marking,
    cfg: &SearchConfig,
    cancel: &CancelToken,
    on_event: &mut dyn FnMut(SearchEvent<'_>) -> bool,
) -> SearchReport {
    let index = NetIndex::new(net, fin);
    // One shared dead-set for the whole query: dead facts are keyed by
    // `(marking, remaining)` and hold for the whole search regardless of
    // path prefix, deepening level, or which worker proved them, so the
    // serial enumerator, the frontier expansion, and every pool worker
    // probe and populate the same set — iterative deepening re-explores
    // shallow prefixes, and the memo is what keeps that from going
    // exponential.
    let dead = SharedDeadSet::new(cfg.dead_set_cap);
    // Deep levels split at length >= 4; a search that never reaches one
    // runs serially without spawning the team at all.
    let parallel = cfg.threads > 1 && cfg.max_len >= 4;
    // Persistent per-participant scratch (path buffer + DFS frames),
    // index 0 the coordinator, 1..=threads the team workers. Pinning the
    // scratch to the worker keeps steady-state search allocation-free —
    // the locks are per-participant and therefore uncontended.
    let scratches: Vec<Mutex<DfsScratch>> = (0..if parallel { cfg.threads + 1 } else { 1 })
        .map(|_| Mutex::new(DfsScratch::with_capacity(cfg.max_len)))
        .collect();
    let ctx = LevelCtx {
        net,
        init,
        fin,
        cfg,
        cancel,
        index: &index,
        dead: &dead,
        scratches: &scratches,
    };
    if parallel {
        // The branch producer shared by the team workers and the
        // coordinator's inline steals: search one frontier branch to the
        // level's full length, buffering its paths for in-order
        // delivery. `who` doubles as the scratch index and the dead-set
        // owner id.
        let produce = |branch: Branch, who: usize, stop: &AtomicBool| {
            let mut scratch = ctx.scratches[who].lock().expect("scratch lock");
            let mut dfs = Dfs::new(
                ctx.net,
                ctx.fin,
                ctx.index,
                ctx.cfg,
                ctx.cancel,
                Some(stop),
                ctx.dead,
                who as u8,
                &mut scratch,
            );
            let mut paths: Vec<Vec<Firing>> = Vec::new();
            let outcome = dfs.run_seeded(
                &branch.prefix,
                branch.marking,
                branch.remaining,
                &mut |p| {
                    paths.push(p.to_vec());
                    // At most `max_paths` paths of any single branch can
                    // ever be emitted (the global cap), so a worker can
                    // stop buffering there without changing the stream —
                    // bounds memory and work for small-cap searches.
                    paths.len() < ctx.cfg.max_paths
                },
            );
            BranchOut { paths, outcome, stats: dfs.stats }
        };
        team_scope(cfg.threads, produce, |team| run_levels(&ctx, Some(team), on_event))
    } else {
        run_levels(&ctx, None, on_event)
    }
}

/// Everything a level run borrows from [`enumerate_search`], bundled so
/// the level loop can be one function whether or not a worker team is
/// attached.
struct LevelCtx<'a> {
    net: &'a Ttn,
    init: &'a Marking,
    fin: &'a Marking,
    cfg: &'a SearchConfig,
    cancel: &'a CancelToken,
    index: &'a NetIndex,
    dead: &'a SharedDeadSet,
    /// Per-participant scratch; index 0 is the coordinator's.
    scratches: &'a [Mutex<DfsScratch>],
}

/// The iterative-deepening level loop. With a team attached, levels deep
/// enough to split run pipelined on it.
fn run_levels(
    ctx: &LevelCtx<'_>,
    team: Option<&Team<'_, Branch, BranchOut>>,
    on_event: &mut dyn FnMut(SearchEvent<'_>) -> bool,
) -> SearchReport {
    let cfg = ctx.cfg;
    let mut emitted = 0usize;
    let mut stats = SearchStats::default();
    let mut metrics = LevelMetrics::new(&cfg.telemetry);
    for len in 1..=cfg.max_len {
        if len < cfg.start_len {
            // Provably path-free level (the caller's distance bound):
            // emit the depth marker without searching, so consumers see
            // the exact same event stream as a full run.
            if !on_event(SearchEvent::DepthExhausted { depth: len }) {
                return SearchReport { outcome: SearchOutcome::Stopped, stats };
            }
            continue;
        }
        let level_started = Instant::now();
        let mut on_path = |path: &[Firing]| {
            emitted += 1;
            on_event(SearchEvent::Path(path)) && emitted < cfg.max_paths
        };
        // Shallow levels finish in microseconds; the team only pays off
        // once a level is deep enough to split.
        let outcome = match team {
            Some(team) if len >= 4 => {
                run_level_pipelined(ctx, team, len, &mut on_path, &mut stats)
            }
            _ => {
                let mut scratch = ctx.scratches[0].lock().expect("scratch lock");
                let mut dfs = Dfs::new(
                    ctx.net,
                    ctx.fin,
                    ctx.index,
                    cfg,
                    ctx.cancel,
                    None,
                    ctx.dead,
                    0,
                    &mut scratch,
                );
                let outcome = dfs.run(ctx.init.clone(), len, &mut on_path);
                stats.absorb(&dfs.stats);
                outcome
            }
        };
        metrics.depth_us.record_duration(level_started.elapsed());
        metrics.flush(&stats, ctx.dead);
        match outcome {
            StepOutcome::Done => {
                if !on_event(SearchEvent::DepthExhausted { depth: len }) {
                    return SearchReport { outcome: SearchOutcome::Stopped, stats };
                }
            }
            StepOutcome::Stopped => {
                return SearchReport { outcome: SearchOutcome::Stopped, stats }
            }
            StepOutcome::TimedOut => {
                return SearchReport { outcome: SearchOutcome::TimedOut, stats }
            }
            StepOutcome::Cancelled => {
                return SearchReport { outcome: SearchOutcome::Cancelled, stats }
            }
        }
    }
    SearchReport { outcome: SearchOutcome::Exhausted, stats }
}

/// Enumerates valid paths from `init` to `fin` in order of increasing
/// length, invoking `on_path` for each. `on_path` returns `false` to stop.
///
/// This is the plain-path convenience over [`enumerate_search`] (no depth
/// notifications, no cancellation, no stats).
pub fn enumerate_paths(
    net: &Ttn,
    init: &Marking,
    fin: &Marking,
    cfg: &SearchConfig,
    on_path: &mut dyn FnMut(&[Firing]) -> bool,
) -> SearchOutcome {
    enumerate_search(net, init, fin, cfg, &CancelToken::new(), &mut |event| match event {
        SearchEvent::Path(path) => on_path(path),
        SearchEvent::DepthExhausted { .. } => true,
    })
    .outcome
}

/// Outcome of enumerating one length level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepOutcome {
    /// Level fully enumerated.
    Done,
    /// Consumer stopped the search.
    Stopped,
    /// Deadline hit.
    TimedOut,
    /// Cancelled via the token.
    Cancelled,
}

/// The backward cost-to-go of every place against the final marking
/// `fin`: a lower bound on the firings that can turn a token there into a
/// final token or consume it. `0` at the places `fin` marks; elsewhere the
/// minimum, over the transitions consuming the place as a required or an
/// optional input, of `1 + ` the largest cost over that transition's
/// outputs (`1` for a transition with no outputs); `u32::MAX` when no
/// chain exists. Iterated to a fixpoint, Bellman–Ford style.
///
/// Admissible: a token off `fin` must be consumed by some firing, and
/// each output token of that firing then needs its own chain of later
/// firings, so no path finishes from a marking with a token whose cost
/// exceeds the remaining length.
fn cost_to_go(net: &Ttn, fin: &Marking) -> Vec<u32> {
    let mut cost = vec![u32::MAX; net.n_places()];
    for (p, _) in fin.nonzero() {
        cost[p.0 as usize] = 0;
    }
    loop {
        let mut changed = false;
        for (_, t) in net.transitions() {
            let via = output_cost(&cost, t).saturating_add(1);
            for &(p, _) in t.inputs.iter().chain(&t.optionals) {
                let slot = &mut cost[p.0 as usize];
                if via < *slot {
                    *slot = via;
                    changed = true;
                }
            }
        }
        if !changed {
            return cost;
        }
    }
}

/// The largest `cost` over `t`'s outputs (`0` when it has none).
fn output_cost(cost: &[u32], t: &Transition) -> u32 {
    t.outputs.iter().map(|&(p, _)| cost[p.0 as usize]).max().unwrap_or(0)
}

/// Read-only per-search indexes, built once per [`enumerate_search`] call
/// and shared by every level and every worker. Only what depends on the
/// final marking is computed here; the query-independent indexes
/// (candidate lists, token deltas, token bounds) live on the [`Ttn`].
struct NetIndex {
    /// The net's bounds on one firing's token-count change.
    bounds: TokenBounds,
    fin_total: i64,
    /// Per place: the fewest firings that can turn a token there into a
    /// final token or consume it (`u32::MAX` when no chain exists). See
    /// [`cost_to_go`].
    cost_to_go: Vec<u32>,
    /// Per transition: the largest [`NetIndex::cost_to_go`] over its
    /// outputs — the fewest firings still needed after it fires.
    out_cost: Vec<u32>,
}

impl NetIndex {
    fn new(net: &Ttn, fin: &Marking) -> NetIndex {
        let cost_to_go = cost_to_go(net, fin);
        let out_cost = net.transitions().map(|(_, t)| output_cost(&cost_to_go, t)).collect();
        NetIndex {
            bounds: net.token_bounds(),
            fin_total: i64::from(fin.total()),
            cost_to_go,
            out_cost,
        }
    }

    /// The child-side cost-to-go verdict: can every token of `m` still
    /// reach a final token or be consumed within `remaining` firings?
    #[inline]
    fn within_cost_to_go(&self, m: &Marking, remaining: usize) -> bool {
        m.nonzero().all(|(p, _)| self.cost_to_go[p.0 as usize] as usize <= remaining)
    }

    /// The child-side token-count verdict, computed parent-side: would a
    /// child node with `child_total` tokens and `child_rem` firings left
    /// be worth visiting? Mirrors the checks the child itself performs
    /// (`total != fin_total` at `remaining == 0` can never reach `fin`;
    /// otherwise the feasibility window of `step`), so skipping the child
    /// entirely — no apply/undo, no recursion — changes no emission.
    #[inline]
    fn child_feasible(&self, child_total: i64, child_rem: i64) -> bool {
        if child_rem == 0 {
            return child_total == self.fin_total;
        }
        child_total + child_rem * self.bounds.max_inc >= self.fin_total
            && child_total - child_rem * self.bounds.max_dec <= self.fin_total
    }
}

/// Reusable per-depth scratch: the candidate list, the optional
/// availability bounds, and the odometer digits. One frame per recursion
/// depth, so the hot loop never allocates after the first descent.
#[derive(Default)]
struct Frame {
    cands: Vec<TransId>,
    avail: Vec<u32>,
    choice: Vec<u32>,
}

/// One frontier branch of a parallel level: the firing prefix (in serial
/// visit order), the marking it leads to, and how many firings remain
/// below it. Branches are the jobs pushed to the worker team.
struct Branch {
    prefix: Vec<Firing>,
    marking: Marking,
    remaining: usize,
}

/// A searched branch's buffered output, delivered in frontier order.
struct BranchOut {
    paths: Vec<Vec<Firing>>,
    outcome: StepOutcome,
    stats: SearchStats,
}

/// The allocation-heavy state of a [`Dfs`], split out so each search
/// participant keeps one instance alive across branches *and* levels —
/// `Dfs` construction is then free of allocation, which is what took the
/// parallel search from ~86× the serial allocations per node back to
/// parity (a fresh `Dfs` per branch re-grew the path buffer and every
/// per-depth frame, tens of thousands of times per level).
struct DfsScratch {
    /// Firing stack; the live prefix length lives in [`Dfs::plen`].
    /// Slots above the live prefix keep their `optional_taken`
    /// allocations for reuse.
    path: Vec<Firing>,
    frames: Vec<Frame>,
}

impl DfsScratch {
    /// Scratch pre-sized for paths up to `max_len` firings, so steady-
    /// state search never grows either buffer.
    fn with_capacity(max_len: usize) -> DfsScratch {
        let mut frames = Vec::new();
        frames.resize_with(max_len + 1, Frame::default);
        DfsScratch { path: Vec::with_capacity(max_len), frames }
    }
}

/// The callbacks a traversal reports into: every completed path, and —
/// in frontier mode — every captured branch.
struct Sink<'s> {
    on_path: &'s mut dyn FnMut(&[Firing]) -> bool,
    on_branch: &'s mut dyn FnMut(&[Firing], &Marking),
}

struct Dfs<'a> {
    net: &'a Ttn,
    fin: &'a Marking,
    index: &'a NetIndex,
    deadline: Option<Instant>,
    cancel: &'a CancelToken,
    /// Stop flag shared with the worker team (parallel workers only).
    stop: Option<&'a AtomicBool>,
    /// The query's shared dead-state memo. Keys are exact 128-bit
    /// fingerprints of `(marking, remaining)` ([`Marking::dead_key`]):
    /// 64 bits is not enough here — at millions of memoized states a
    /// birthday collision would unsoundly prune a live state and
    /// silently drop a valid program.
    dead: &'a SharedDeadSet,
    /// This participant's dead-set owner id (coordinator 0, team workers
    /// 1..): hits on other owners' verdicts count as
    /// [`SearchStats::dead_shared_hits`].
    me: u8,
    /// Worker-pinned reusable buffers (see [`DfsScratch`]).
    scratch: &'a mut DfsScratch,
    /// Live prefix length within `scratch.path`.
    plen: usize,
    /// When non-zero: capture `(prefix, marking)` branches at this
    /// `remaining` value instead of recursing further (frontier mode).
    capture_remaining: usize,
    stats: SearchStats,
    /// Set when the deadline fires mid-search.
    timed_out: bool,
    /// Set when the cancel token fires mid-search.
    cancelled: bool,
}

impl<'a> Dfs<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        net: &'a Ttn,
        fin: &'a Marking,
        index: &'a NetIndex,
        cfg: &SearchConfig,
        cancel: &'a CancelToken,
        stop: Option<&'a AtomicBool>,
        dead: &'a SharedDeadSet,
        me: u8,
        scratch: &'a mut DfsScratch,
    ) -> Dfs<'a> {
        Dfs {
            net,
            fin,
            index,
            deadline: cfg.deadline,
            cancel,
            stop,
            dead,
            me,
            scratch,
            plen: 0,
            capture_remaining: 0,
            stats: SearchStats::default(),
            timed_out: false,
            cancelled: false,
        }
    }

    fn run(
        &mut self,
        init: Marking,
        len: usize,
        on_path: &mut dyn FnMut(&[Firing]) -> bool,
    ) -> StepOutcome {
        let mut m = init;
        self.plen = 0;
        self.reserve_frames(len);
        let mut sink = Sink { on_path, on_branch: &mut |_: &[Firing], _: &Marking| {} };
        let flow = self.step(&mut m, len, &mut sink);
        self.finish(flow)
    }

    /// Runs the search from a frontier branch: the firing prefix is
    /// installed as the live path (so symmetry breaking sees it) and the
    /// search continues for `remaining` more firings from `seed`.
    fn run_seeded(
        &mut self,
        prefix: &[Firing],
        seed: Marking,
        remaining: usize,
        on_path: &mut dyn FnMut(&[Firing]) -> bool,
    ) -> StepOutcome {
        self.scratch.path.clear();
        self.scratch.path.extend_from_slice(prefix);
        self.plen = prefix.len();
        self.reserve_frames(remaining);
        let mut m = seed;
        let mut sink = Sink { on_path, on_branch: &mut |_: &[Firing], _: &Marking| {} };
        let flow = self.step(&mut m, remaining, &mut sink);
        self.finish(flow)
    }

    /// Frontier expansion: traverses the first `len - capture_remaining`
    /// levels exactly like the full search and hands every reached
    /// `(prefix, marking)` to `on_branch`, in serial visit order — the
    /// caller streams them straight to the worker team, so branch search
    /// overlaps the rest of the expansion.
    fn expand_frontier(
        &mut self,
        init: Marking,
        len: usize,
        capture_remaining: usize,
        on_branch: &mut dyn FnMut(&[Firing], &Marking),
    ) -> StepOutcome {
        debug_assert!(capture_remaining >= 1 && capture_remaining < len);
        self.capture_remaining = capture_remaining;
        let mut m = init;
        self.plen = 0;
        self.reserve_frames(len);
        let mut sink = Sink { on_path: &mut |_: &[Firing]| true, on_branch };
        let flow = self.step(&mut m, len, &mut sink);
        self.capture_remaining = 0;
        self.finish(flow)
    }

    fn reserve_frames(&mut self, len: usize) {
        if self.scratch.frames.len() <= len {
            self.scratch.frames.resize_with(len + 1, Frame::default);
        }
    }

    fn finish(&self, flow: Flow) -> StepOutcome {
        match flow {
            Flow::Stop if self.cancelled => StepOutcome::Cancelled,
            Flow::Stop if self.timed_out => StepOutcome::TimedOut,
            Flow::Stop => StepOutcome::Stopped,
            Flow::Continue | Flow::Pruned => StepOutcome::Done,
        }
    }

    fn step(&mut self, m: &mut Marking, remaining: usize, sink: &mut Sink<'_>) -> Flow {
        if remaining == 0 {
            if m == self.fin {
                self.stats.paths += 1;
                if !(sink.on_path)(&self.scratch.path[..self.plen]) {
                    return Flow::Stop;
                }
                return Flow::Continue;
            }
            // A mismatched leaf is a fully explored, path-free subtree:
            // reporting `Pruned` (not `Continue`) lets every ancestor
            // whose subtrees all fail enter the dead-set. The seed
            // treated this case as `Continue`, which silently kept most
            // of the search space out of the memo.
            return Flow::Pruned;
        }
        if self.capture_remaining != 0 && remaining == self.capture_remaining {
            (sink.on_branch)(&self.scratch.path[..self.plen], m);
            // Treated as "may emit": keeps ancestors out of the dead-set,
            // whose verdicts expansion cannot know.
            return Flow::Continue;
        }
        // Poll cancellation, the pool stop flag, and the clock once per
        // node; nodes are cheap and plentiful, so every stop condition
        // takes effect promptly on every worker.
        if self.cancel.is_cancelled() {
            self.cancelled = true;
            return Flow::Stop;
        }
        if let Some(stop) = self.stop {
            if stop.load(Ordering::Relaxed) {
                return Flow::Stop;
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.timed_out = true;
                return Flow::Stop;
            }
        }
        self.stats.nodes += 1;
        // Token-count feasibility pruning.
        let total = i64::from(m.total());
        let rem = remaining as i64;
        if total + rem * self.index.bounds.max_inc < self.index.fin_total
            || total - rem * self.index.bounds.max_dec > self.index.fin_total
        {
            return Flow::Pruned;
        }
        // Backward cost-to-go: some token can no longer reach a final
        // token or be consumed in time. The verdict depends only on the
        // state, so ancestors may still enter the dead-set.
        if !self.index.within_cost_to_go(m, remaining) {
            self.stats.bound_pruned += 1;
            return Flow::Pruned;
        }
        let key = m.dead_key(remaining);
        if self.dead.enabled() {
            match self.dead.probe(key, self.me) {
                Probe::Hit { shared } => {
                    self.stats.dead_hits += 1;
                    if shared {
                        self.stats.dead_shared_hits += 1;
                    }
                    return Flow::Pruned;
                }
                Probe::Miss => self.stats.dead_misses += 1,
            }
        }
        // The symmetry-breaking restriction (see `expand`) depends on the
        // *prefix*, not just the state: a node entered right after a
        // zero-required firing skips some zero-required siblings, so its
        // "no paths" verdict only holds for that context. Memoizing it
        // under the prefix-independent `(marking, remaining)` key would
        // unsoundly prune the same state reached through a canonical
        // prefix, silently dropping valid programs (caught by the
        // `dead_set_respects_symmetry_breaking_context` regression).
        // Verdicts from *unrestricted* nodes are exact dead facts, so
        // only those are stored — and looking one up is then sound from
        // any context ("truly dead" implies dead under every
        // restriction).
        let prev_zero_required = self.prev_zero_required();
        let flow = self.expand(m, remaining, prev_zero_required, sink);
        if flow == Flow::Pruned && self.dead.enabled() && prev_zero_required.is_none() {
            // Fully explored, unrestricted, no success: remember as dead
            // (epoch rotation makes room by forgetting the oldest facts).
            self.stats.dead_evicted += self.dead.insert(key, self.me);
        }
        flow
    }

    /// The symmetry-breaking context of the current node: the previous
    /// firing's transition when it was a zero-required, no-optional
    /// firing (whose lower-id zero-required siblings are then skipped).
    fn prev_zero_required(&self) -> Option<TransId> {
        if self.plen == 0 {
            return None;
        }
        let f = &self.scratch.path[self.plen - 1];
        let t = self.net.transition(f.trans);
        (t.inputs.is_empty() && f.optional_taken.iter().all(|&c| c == 0)).then_some(f.trans)
    }

    /// Expands one search node: iterates the enabled firings (with their
    /// optional-consumption odometers) in canonical order and recurses.
    /// Allocation-free on the hot path — the candidate list, availability
    /// bounds, and odometer live in per-depth scratch frames, and the
    /// path slot's `optional_taken` buffer is reused across siblings.
    fn expand(
        &mut self,
        m: &mut Marking,
        remaining: usize,
        // Symmetry breaking: two *consecutive* firings of transitions with
        // no required inputs always commute (neither consumes anything the
        // other produced), so only the nondecreasing-id order is explored.
        // This collapses the permutations of "junk" no-arg method prefixes
        // without losing any distinct program. Computed by the caller
        // because it also gates dead-set storage.
        prev_zero_required: Option<TransId>,
        sink: &mut Sink<'_>,
    ) -> Flow {
        let net = self.net;
        let total = i64::from(m.total());
        let child_rem = (remaining - 1) as i64;
        let mut any_emitted = false;
        // Candidate transitions for the marking: the zero-required set
        // plus those whose first required place is marked, in id order.
        let mut frame = std::mem::take(&mut self.scratch.frames[remaining]);
        frame.cands.clear();
        frame.cands.extend_from_slice(net.zero_required());
        for (place, _) in m.nonzero() {
            frame.cands.extend_from_slice(net.by_first_input(place));
        }
        frame.cands.sort_unstable();
        let mut stopped = false;
        'cands: for ci in 0..frame.cands.len() {
            let tid = frame.cands[ci];
            let t = net.transition(tid);
            if !can_fire(m, t) {
                continue;
            }
            if t.inputs.is_empty() {
                if let Some(prev) = prev_zero_required {
                    if tid < prev && t.optionals.is_empty() {
                        continue;
                    }
                }
            }
            // Parent-side cost-to-go: the firing's own outputs cannot
            // finish in the child's budget, so the child's cost-to-go
            // check would cut it under every optional choice — skip the
            // odometer, apply/undo and recursion altogether.
            if self.index.out_cost[tid.0 as usize] as usize > remaining - 1 {
                self.stats.bound_pruned += 1;
                continue;
            }
            // Optional-consumption bounds: 0 ..= min(cap, avail) per
            // optional place, after required consumption (the overlap is
            // precomputed on the net).
            let overlap = net.optional_overlap(tid);
            frame.avail.clear();
            for (i, &(p, cap)) in t.optionals.iter().enumerate() {
                frame.avail.push(cap.min(m.tokens(p).saturating_sub(overlap[i])));
            }
            frame.choice.clear();
            frame.choice.resize(t.optionals.len(), 0);
            let base_delta = net.delta(tid);
            loop {
                // Parent-side feasibility filter: children the token-count
                // check would prune anyway are skipped without paying for
                // apply/undo and the recursion (on deep searches this is
                // the vast majority of children). Provably
                // emission-neutral: the verdict is the child's own check,
                // computed from the same numbers.
                let choice_sum: i64 =
                    frame.choice.iter().map(|&c| i64::from(c)).sum();
                if !self.index.child_feasible(total + base_delta - choice_sum, child_rem) {
                    if !next_choice(&mut frame.choice, &frame.avail) {
                        break;
                    }
                    continue;
                }
                // Install the firing in the path slot, reusing the slot's
                // buffer; all-zero optional vectors canonicalize to empty
                // (see [`Firing::with_optionals`]).
                if self.scratch.path.len() == self.plen {
                    self.scratch.path.push(Firing::plain(tid));
                }
                let slot = &mut self.scratch.path[self.plen];
                slot.trans = tid;
                slot.optional_taken.clear();
                if frame.choice.iter().any(|&c| c != 0) {
                    slot.optional_taken.extend_from_slice(&frame.choice);
                }
                apply(m, net, &self.scratch.path[self.plen]);
                self.plen += 1;
                let flow = self.step(m, remaining - 1, sink);
                self.plen -= 1;
                unapply(m, net, &self.scratch.path[self.plen]);
                match flow {
                    Flow::Stop => {
                        stopped = true;
                        break 'cands;
                    }
                    Flow::Continue => any_emitted = true,
                    Flow::Pruned => {}
                }
                // Next optional-consumption vector (odometer).
                if !next_choice(&mut frame.choice, &frame.avail) {
                    break;
                }
            }
        }
        self.scratch.frames[remaining] = frame;
        if stopped {
            Flow::Stop
        } else if any_emitted {
            Flow::Continue
        } else {
            Flow::Pruned
        }
    }
}

/// Runs one iterative-deepening level pipelined on the worker team: the
/// coordinator expands the frontier and pushes each branch to the team
/// the moment expansion reaches it — workers search early branches while
/// later ones are still being discovered — then delivers the buffered
/// branch outputs in frontier order, stealing queued branches itself
/// whenever the next delivery is still running elsewhere. Because the
/// frontier is walked exactly once at a fixed depth and everyone shares
/// the dead-set, the level's total explored nodes equal the serial
/// level's (modulo in-flight verdict timing), instead of growing with
/// the thread count.
fn run_level_pipelined(
    ctx: &LevelCtx<'_>,
    team: &Team<'_, Branch, BranchOut>,
    len: usize,
    on_path: &mut dyn FnMut(&[Firing]) -> bool,
    stats: &mut SearchStats,
) -> StepOutcome {
    // Deep levels split two firings down — thousands of branches on a
    // realistic net, plenty for work stealing to balance, while keeping
    // the per-branch overhead (prefix + marking allocation, queue and
    // reorder-buffer traffic) far below the per-node work. Depth 3 was
    // measured to cost ~40× more allocations for <1% better parity.
    let depth = (len - 3).clamp(1, 2);
    let remaining = len - depth;
    let expansion = {
        let mut scratch = ctx.scratches[0].lock().expect("scratch lock");
        let mut dfs = Dfs::new(
            ctx.net, ctx.fin, ctx.index, ctx.cfg, ctx.cancel, None, ctx.dead, 0, &mut scratch,
        );
        let outcome = dfs.expand_frontier(ctx.init.clone(), len, remaining, &mut |prefix, m| {
            team.push(Branch { prefix: prefix.to_vec(), marking: m.clone(), remaining });
        });
        stats.absorb(&dfs.stats);
        outcome
    };
    if expansion != StepOutcome::Done {
        // Cancelled or timed out mid-expansion: the level is over for
        // every branch already pushed too.
        team.stop_and_drain();
        return expansion;
    }
    let mut level_outcome = StepOutcome::Done;
    let mut consumer_stopped = false;
    while let Some(out) = team.next() {
        // `paths` counts *emitted* paths (serial semantics: one per
        // `on_path` invocation); the worker counted at buffering time,
        // so zero it out and re-count at delivery — a stopped delivery
        // must not count the undelivered tail.
        let mut branch_stats = out.stats;
        branch_stats.paths = 0;
        stats.absorb(&branch_stats);
        for path in &out.paths {
            stats.paths += 1;
            if !on_path(path) {
                consumer_stopped = true;
                break;
            }
        }
        match out.outcome {
            StepOutcome::Cancelled => level_outcome = StepOutcome::Cancelled,
            StepOutcome::TimedOut => {
                if level_outcome == StepOutcome::Done {
                    level_outcome = StepOutcome::TimedOut;
                }
            }
            // `Stopped` from a branch only echoes the team's stop flag.
            StepOutcome::Stopped | StepOutcome::Done => {}
        }
        if consumer_stopped || level_outcome != StepOutcome::Done {
            // Undelivered branches are moot; counters from them are not
            // absorbed (the documented lower-bound caveat on
            // [`SearchStats`]).
            team.stop_and_drain();
            break;
        }
    }
    if consumer_stopped {
        StepOutcome::Stopped
    } else {
        level_outcome
    }
}

/// Advances an odometer over per-digit maxima; returns `false` on wrap.
fn next_choice(choice: &mut [u32], maxima: &[u32]) -> bool {
    for i in 0..choice.len() {
        if choice[i] < maxima[i] {
            choice[i] += 1;
            for c in &mut choice[..i] {
                *c = 0;
            }
            return true;
        }
    }
    false
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    /// Subtree contained at least one emitted path.
    Continue,
    /// Subtree fully explored, no paths.
    Pruned,
    /// Abort the whole search.
    Stop,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_ttn, query_markings, BuildOptions};
    use crate::ilp::enumerate_ilp_paths;
    use crate::marking::replay;
    use apiphany_mining::{mine_types, parse_query, MiningConfig};
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};

    fn setup() -> (Ttn, Marking, Marking) {
        let sl = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default());
        let net = build_ttn(&sl, &BuildOptions::default());
        let q = parse_query(&sl, "{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let (init, fin) = query_markings(&net, &q).unwrap();
        (net, init, fin)
    }

    #[test]
    fn finds_the_bold_path_of_fig9() {
        let (net, init, fin) = setup();
        // The running example's path has 7 transitions: c_list,
        // filter_Channel.name, proj_Channel.id, c_members, u_info,
        // proj_User.profile, proj_Profile.email.
        let mut found = false;
        let cfg = SearchConfig { max_len: 7, ..SearchConfig::default() };
        enumerate_paths(&net, &init, &fin, &cfg, &mut |path| {
            let labels: Vec<String> =
                path.iter().map(|f| net.transition_label(f.trans)).collect();
            if labels
                == vec![
                    "c_list",
                    "filter_Channel.name",
                    "proj_Channel.id",
                    "c_members",
                    "u_info",
                    "proj_User.profile",
                    "proj_Profile.email",
                ]
            {
                found = true;
            }
            true
        });
        assert!(found, "bold path of Fig. 9 not enumerated");
    }

    #[test]
    fn all_paths_replay_to_the_final_marking() {
        let (net, init, fin) = setup();
        let cfg = SearchConfig { max_len: 7, max_paths: 500, ..SearchConfig::default() };
        let mut n = 0;
        enumerate_paths(&net, &init, &fin, &cfg, &mut |path| {
            let end = replay(&net, &init, path).expect("emitted path must be enabled");
            assert_eq!(end, fin, "path must end exactly at the final marking");
            n += 1;
            true
        });
        assert!(n > 0);
    }

    #[test]
    fn paths_come_in_length_order() {
        let (net, init, fin) = setup();
        let cfg = SearchConfig { max_len: 7, max_paths: 200, ..SearchConfig::default() };
        let mut lengths = Vec::new();
        enumerate_paths(&net, &init, &fin, &cfg, &mut |path| {
            lengths.push(path.len());
            true
        });
        let mut sorted = lengths.clone();
        sorted.sort_unstable();
        assert_eq!(lengths, sorted);
    }

    #[test]
    fn max_paths_stops_enumeration() {
        // The Fig. 7 library admits exactly two paths up to length 7 for
        // this query: the Fig. 5 "creator" variant (length 6) and the
        // Fig. 2 solution (length 7); capping at 2 must report Stopped.
        let (net, init, fin) = setup();
        let cfg = SearchConfig { max_len: 7, max_paths: 2, ..SearchConfig::default() };
        let mut n = 0;
        let outcome = enumerate_paths(&net, &init, &fin, &cfg, &mut |_| {
            n += 1;
            true
        });
        assert_eq!(n, 2);
        assert_eq!(outcome, SearchOutcome::Stopped);
    }

    #[test]
    fn exactly_two_paths_up_to_length_seven() {
        let (net, init, fin) = setup();
        let cfg = SearchConfig { max_len: 7, ..SearchConfig::default() };
        let mut lens = Vec::new();
        let outcome = enumerate_paths(&net, &init, &fin, &cfg, &mut |p| {
            lens.push(p.len());
            true
        });
        assert_eq!(lens, vec![6, 7]);
        assert_eq!(outcome, SearchOutcome::Exhausted);
    }

    /// The DFS against the ILP oracle on the Fig. 7 net, through length
    /// 7: both find the Fig. 5 "creator" variant (length 6) and the
    /// Fig. 2 gold path (length 7).
    #[test]
    fn dfs_and_ilp_agree_on_fig7() {
        let (net, init, fin) = setup();
        let mut ilp: Vec<Vec<Firing>> = Vec::new();
        for len in 1..=7 {
            enumerate_ilp_paths(&net, &init, &fin, len, &mut |p| {
                ilp.push(p.to_vec());
                true
            });
        }
        let (mut dfs, _) = collect_with_threads(&net, &init, &fin, 7, 1);
        for paths in [&mut dfs, &mut ilp] {
            paths.sort_by_key(|p| {
                (p.len(), p.iter().map(|f| f.trans.0).collect::<Vec<_>>())
            });
        }
        assert_eq!(dfs, ilp);
        assert_eq!(dfs.len(), 2);
    }

    #[test]
    fn deadline_stops_enumeration() {
        let (net, init, fin) = setup();
        let cfg = SearchConfig {
            max_len: 12,
            deadline: Some(Instant::now()),
            ..SearchConfig::default()
        };
        let outcome = enumerate_paths(&net, &init, &fin, &cfg, &mut |_| true);
        assert_eq!(outcome, SearchOutcome::TimedOut);
    }

    #[test]
    fn pre_cancelled_token_stops_enumeration() {
        let (net, init, fin) = setup();
        let cancel = CancelToken::new();
        cancel.cancel();
        let cfg = SearchConfig { max_len: 7, ..SearchConfig::default() };
        let mut n = 0;
        let report = enumerate_search(&net, &init, &fin, &cfg, &cancel, &mut |e| {
            if matches!(e, SearchEvent::Path(_)) {
                n += 1;
            }
            true
        });
        assert_eq!(report.outcome, SearchOutcome::Cancelled);
        assert_eq!(n, 0);
    }

    #[test]
    fn cancelling_mid_stream_yields_cancelled() {
        let (net, init, fin) = setup();
        let cancel = CancelToken::new();
        let cfg = SearchConfig { max_len: 7, ..SearchConfig::default() };
        let mut n = 0;
        let report = enumerate_search(&net, &init, &fin, &cfg, &cancel, &mut |e| {
            if matches!(e, SearchEvent::Path(_)) {
                n += 1;
                // Cancel from "outside" after the first path arrives.
                cancel.cancel();
            }
            true
        });
        assert_eq!(report.outcome, SearchOutcome::Cancelled);
        assert_eq!(n, 1);
    }

    #[test]
    fn depth_exhausted_events_come_in_order() {
        let (net, init, fin) = setup();
        let cfg = SearchConfig { max_len: 7, ..SearchConfig::default() };
        let mut depths = Vec::new();
        let report =
            enumerate_search(&net, &init, &fin, &cfg, &CancelToken::new(), &mut |e| {
                if let SearchEvent::DepthExhausted { depth } = e {
                    depths.push(depth);
                }
                true
            });
        assert_eq!(report.outcome, SearchOutcome::Exhausted);
        assert_eq!(depths, vec![1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn no_input_query_works() {
        let sl = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default());
        let net = build_ttn(&sl, &BuildOptions::default());
        let q = parse_query(&sl, "{ } → [Channel]").unwrap();
        let (init, fin) = query_markings(&net, &q).unwrap();
        let mut shortest: Option<Vec<String>> = None;
        let cfg = SearchConfig { max_len: 3, ..SearchConfig::default() };
        enumerate_paths(&net, &init, &fin, &cfg, &mut |path| {
            if shortest.is_none() {
                shortest =
                    Some(path.iter().map(|f| net.transition_label(f.trans)).collect());
            }
            true
        });
        assert_eq!(shortest, Some(vec!["c_list".to_string()]));
    }

    /// Collects every path (and the final outcome) for a thread count.
    fn collect_with_threads(
        net: &Ttn,
        init: &Marking,
        fin: &Marking,
        max_len: usize,
        threads: usize,
    ) -> (Vec<Vec<Firing>>, SearchOutcome) {
        let cfg = SearchConfig { max_len, threads, ..SearchConfig::default() };
        let mut paths: Vec<Vec<Firing>> = Vec::new();
        let outcome = enumerate_paths(net, init, fin, &cfg, &mut |p| {
            paths.push(p.to_vec());
            true
        });
        (paths, outcome)
    }

    /// The determinism guarantee of the parallel search: for every thread
    /// count the emitted path *sequence* (order included) and the outcome
    /// are bit-identical to the serial enumeration.
    #[test]
    fn parallel_enumeration_is_bit_identical_to_serial() {
        let (net, init, fin) = setup();
        let (serial, serial_outcome) = collect_with_threads(&net, &init, &fin, 7, 1);
        assert!(!serial.is_empty());
        for threads in [2, 4, 8] {
            let (par, par_outcome) = collect_with_threads(&net, &init, &fin, 7, threads);
            assert_eq!(par, serial, "threads = {threads}");
            assert_eq!(par_outcome, serial_outcome, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_respects_max_paths() {
        let (net, init, fin) = setup();
        let cfg =
            SearchConfig { max_len: 7, max_paths: 2, threads: 4, ..SearchConfig::default() };
        let mut n = 0;
        let outcome = enumerate_paths(&net, &init, &fin, &cfg, &mut |_| {
            n += 1;
            true
        });
        assert_eq!(n, 2);
        assert_eq!(outcome, SearchOutcome::Stopped);
    }

    /// Cancellation must propagate to every pool worker promptly: cancel
    /// after the first path of a deep parallel search and the whole run
    /// reports `Cancelled` without first exhausting the space.
    #[test]
    fn cancel_mid_parallel_search_is_prompt_on_every_worker() {
        let (net, init, fin) = setup();
        let cancel = CancelToken::new();
        let cfg = SearchConfig { max_len: 12, threads: 8, ..SearchConfig::default() };
        let started = Instant::now();
        let mut n = 0;
        let report = enumerate_search(&net, &init, &fin, &cfg, &cancel, &mut |e| {
            if matches!(e, SearchEvent::Path(_)) {
                n += 1;
                cancel.cancel();
            }
            true
        });
        assert_eq!(report.outcome, SearchOutcome::Cancelled);
        assert!(n >= 1);
        // Depth 12 on this net would take far longer than this bound if
        // any worker kept searching past the cancellation.
        assert!(started.elapsed() < std::time::Duration::from_secs(30));
    }

    /// The backward cost-to-go along the Fig. 2 chain: each firing's
    /// output needs the rest of the chain, except that a `Channel` takes
    /// the Fig. 5 `creator` shortcut (4 firings, not 5). A place nothing
    /// consumes has no chain at all, and neither does a firing into it.
    #[test]
    fn cost_to_go_pins_the_fig2_chain() {
        use apiphany_spec::SemTy;
        use crate::net::TransKind;

        let (mut net, init, fin) = setup();
        let trans = |net: &Ttn, label: &str| {
            net.transitions()
                .map(|(id, _)| id)
                .find(|&id| net.transition_label(id) == label)
                .expect("Fig. 7 transition")
        };
        let chain = [
            ("c_list", 4),
            ("filter_Channel.name", 4),
            ("proj_Channel.id", 4),
            ("c_members", 3),
            ("u_info", 2),
            ("proj_User.profile", 1),
            ("proj_Profile.email", 0),
        ];
        let check_chain = |net: &Ttn, index: &NetIndex| {
            for (label, want) in chain {
                let id = trans(net, label);
                assert_eq!(index.out_cost[id.0 as usize], want, "{label}");
                let (out, _) = net.transition(id).outputs[0];
                assert_eq!(index.cost_to_go[out.0 as usize], want, "output of {label}");
            }
        };
        let index = NetIndex::new(&net, &fin);
        check_chain(&net, &index);
        // The query's `Channel.name` input: the filter, then a `Channel`.
        let (input, _) = init.nonzero().next().expect("one input token");
        assert_eq!(index.cost_to_go[input.0 as usize], 5);

        let channel = net.place_of(&SemTy::object("Channel")).expect("Channel place");
        let orphan = net.intern_place(SemTy::object("Orphan"));
        let into_orphan = net.add_transition(Transition {
            kind: TransKind::Method("orphan".into()),
            inputs: vec![(channel, 1)],
            optionals: Vec::new(),
            outputs: vec![(orphan, 1)],
            params: Vec::new(),
        });
        let mut wide_fin = Marking::empty(net.n_places());
        for (p, c) in fin.nonzero() {
            wide_fin.add(p, c);
        }
        let index = NetIndex::new(&net, &wide_fin);
        assert_eq!(index.cost_to_go[orphan.0 as usize], u32::MAX);
        assert_eq!(index.out_cost[into_orphan.0 as usize], u32::MAX);
        check_chain(&net, &index);
    }

    /// Soundness regression for dead-state memoization: pruning must only
    /// ever skip path-free subtrees, so enumeration with the memo
    /// disabled (`dead_set_cap: 0`) yields exactly the same paths.
    #[test]
    fn dead_set_memoization_never_drops_paths() {
        let (net, init, fin) = setup();
        let collect = |cap: usize| {
            let cfg = SearchConfig { max_len: 7, dead_set_cap: cap, ..SearchConfig::default() };
            let mut paths: Vec<Vec<Firing>> = Vec::new();
            enumerate_paths(&net, &init, &fin, &cfg, &mut |p| {
                paths.push(p.to_vec());
                true
            });
            paths
        };
        assert_eq!(collect(2_000_000), collect(0));
    }

    /// Regression (PR 3 review): a state first explored *under the
    /// zero-required symmetry restriction* must not poison the memo for
    /// the same state reached through a canonical prefix. With
    /// `t0: ()→A`, `t1: ()→B`, `t2: A+B→OUT`, `t3: A→B`, the level-3
    /// probe reaches `({B}, rem 2)` via `[t1]` (where `t0` is
    /// symmetry-skipped) and finds nothing; the level-4 canonical path
    /// `[t0, t3, t0, t2]` reaches the same state via `t3` and used to be
    /// unsoundly pruned by the stale dead entry.
    #[test]
    fn dead_set_respects_symmetry_breaking_context() {
        use crate::net::{TransKind, Transition};
        use apiphany_spec::{GroupId, SemTy};

        let mut net = Ttn::new();
        let a = net.intern_place(SemTy::Group(GroupId(0)));
        let b = net.intern_place(SemTy::Group(GroupId(1)));
        let out = net.intern_place(SemTy::Group(GroupId(2)));
        let mk = |name: &str, inputs: Vec<(crate::net::PlaceId, u32)>, output| Transition {
            kind: TransKind::Method(name.into()),
            inputs,
            optionals: Vec::new(),
            outputs: vec![(output, 1)],
            params: Vec::new(),
        };
        net.add_transition(mk("t0", Vec::new(), a));
        net.add_transition(mk("t1", Vec::new(), b));
        net.add_transition(mk("t2", vec![(a, 1), (b, 1)], out));
        net.add_transition(mk("t3", vec![(a, 1)], b));
        let init = Marking::empty(net.n_places());
        let mut fin = Marking::empty(net.n_places());
        fin.add(out, 1);

        let collect = |cap: usize, threads: usize| {
            let cfg = SearchConfig {
                max_len: 4,
                dead_set_cap: cap,
                threads,
                ..SearchConfig::default()
            };
            let mut paths: Vec<Vec<Firing>> = Vec::new();
            enumerate_paths(&net, &init, &fin, &cfg, &mut |p| {
                paths.push(p.to_vec());
                true
            });
            paths
        };
        let with_memo = collect(2_000_000, 1);
        let without_memo = collect(0, 1);
        assert_eq!(with_memo, without_memo);
        // The canonical [t0, t3, t0, t2] path must be present.
        let canonical: Vec<u32> = vec![0, 3, 0, 2];
        assert!(
            with_memo.iter().any(|p| {
                p.iter().map(|f| f.trans.0).collect::<Vec<_>>() == canonical
            }),
            "canonical path dropped: {with_memo:?}"
        );
        // The shared concurrent set must uphold the same rule: no worker
        // may store a verdict proven under the symmetry restriction, or
        // a sibling reaching the state canonically would lose the path.
        for threads in [2, 4, 8] {
            assert_eq!(collect(2_000_000, threads), with_memo, "threads = {threads}");
        }
    }

    /// Fig. 7 depth for the dead-set tests below. The cost-to-go bound
    /// leaves about a hundred nodes at depth 7, too few to evict from a
    /// tiny memo or to share verdicts reliably; depth 10 keeps the
    /// dead-set under load (214 paths).
    const DEAD_SET_DEPTH: usize = 10;

    /// A serial search by definition reports no verdict shared across
    /// workers, and a parallel search's shared hits are a subset of all
    /// its hits. Whether a worker probes a verdict another stored first
    /// depends on the interleaving, which a search this small does not
    /// force; `tests/search_parity.rs` requires shared hits on the full
    /// Slack net.
    #[test]
    fn parallel_search_shares_dead_verdicts_across_workers() {
        let (net, init, fin) = setup();
        let run = |threads: usize| {
            let cfg = SearchConfig { max_len: DEAD_SET_DEPTH, threads, ..SearchConfig::default() };
            enumerate_search(&net, &init, &fin, &cfg, &CancelToken::new(), &mut |_| true)
        };
        let serial = run(1);
        assert_eq!(serial.stats.dead_shared_hits, 0, "{:?}", serial.stats);
        let parallel = run(4);
        // Shared hits are a subset of all hits.
        assert!(parallel.stats.dead_shared_hits <= parallel.stats.dead_hits);
    }

    /// Epoch eviction under concurrency: a tiny cap keeps every shard
    /// rotating while several workers insert and probe at once, and the
    /// emitted stream still matches an uncapped serial run exactly.
    #[test]
    fn dead_set_cap_eviction_under_concurrency_keeps_the_stream() {
        let (net, init, fin) = setup();
        let collect = |cap: usize, threads: usize| {
            let cfg = SearchConfig {
                max_len: DEAD_SET_DEPTH,
                dead_set_cap: cap,
                threads,
                ..SearchConfig::default()
            };
            let mut paths: Vec<Vec<Firing>> = Vec::new();
            let report =
                enumerate_search(&net, &init, &fin, &cfg, &CancelToken::new(), &mut |e| {
                    if let SearchEvent::Path(p) = e {
                        paths.push(p.to_vec());
                    }
                    true
                });
            (paths, report)
        };
        let (reference, _) = collect(2_000_000, 1);
        for threads in [2, 4, 8] {
            let (paths, report) = collect(16, threads);
            assert_eq!(report.outcome, SearchOutcome::Exhausted, "threads = {threads}");
            assert_eq!(paths, reference, "threads = {threads}");
            assert!(report.stats.dead_evicted > 0, "threads = {threads}: {:?}", report.stats);
        }
    }

    #[test]
    fn stats_count_nodes_paths_and_dead_set_traffic() {
        let (net, init, fin) = setup();
        let cfg = SearchConfig { max_len: DEAD_SET_DEPTH, ..SearchConfig::default() };
        let report = enumerate_search(&net, &init, &fin, &cfg, &CancelToken::new(), &mut |_| true);
        assert_eq!(report.outcome, SearchOutcome::Exhausted);
        assert_eq!(report.stats.paths, 214);
        assert!(report.stats.nodes > 0);
        assert!(report.stats.bound_pruned > 0, "{:?}", report.stats);
        assert!(report.stats.dead_hits > 0, "{:?}", report.stats);
        assert!(report.stats.dead_misses > 0);
        assert_eq!(report.stats.dead_evicted, 0);
    }

    /// A memo far smaller than the search keeps evicting epochs — and the
    /// emitted paths stay exactly those of an uncapped run, because
    /// forgetting a dead fact only ever re-explores a path-free subtree.
    #[test]
    fn tiny_dead_set_cap_evicts_epochs_without_changing_output() {
        let (net, init, fin) = setup();
        let collect = |cap: usize| {
            let cfg = SearchConfig {
                max_len: DEAD_SET_DEPTH,
                dead_set_cap: cap,
                ..SearchConfig::default()
            };
            let mut paths: Vec<Vec<Firing>> = Vec::new();
            let report = enumerate_search(&net, &init, &fin, &cfg, &CancelToken::new(), &mut |e| {
                if let SearchEvent::Path(p) = e {
                    paths.push(p.to_vec());
                }
                true
            });
            (paths, report)
        };
        let (tiny_paths, tiny) = collect(4);
        let (full_paths, full) = collect(2_000_000);
        assert_eq!(tiny.outcome, SearchOutcome::Exhausted);
        assert_eq!(tiny.stats.paths, 214);
        assert!(tiny.stats.dead_evicted > 0, "{:?}", tiny.stats);
        assert_eq!(full.stats.dead_evicted, 0);
        assert_eq!(tiny_paths, full_paths);
        // Evicting costs pruning quality (more misses), never soundness.
        assert!(tiny.stats.dead_misses >= full.stats.dead_misses);
    }

    /// Satellite regression: the DFS emits canonical firings — a firing
    /// that takes no optional tokens carries an *empty* vector and thus
    /// compares equal to [`Firing::plain`] of the same transition.
    #[test]
    fn emitted_firings_are_canonical() {
        let (net, init, fin) = setup();
        let cfg = SearchConfig { max_len: 7, ..SearchConfig::default() };
        let mut seen_any = false;
        enumerate_paths(&net, &init, &fin, &cfg, &mut |path| {
            for f in path {
                if f.optional_taken.iter().all(|&c| c == 0) {
                    seen_any = true;
                    assert_eq!(f, &Firing::plain(f.trans), "non-canonical firing: {f:?}");
                }
            }
            true
        });
        assert!(seen_any);
    }

    /// The telemetry counters published at level boundaries must agree
    /// exactly with the [`SearchReport`] the caller gets back.
    #[test]
    fn telemetry_counters_match_the_search_report() {
        let (net, init, fin) = setup();
        let telemetry = Telemetry::enabled();
        let cfg =
            SearchConfig { max_len: 7, telemetry: telemetry.clone(), ..SearchConfig::default() };
        let report = enumerate_search(&net, &init, &fin, &cfg, &CancelToken::new(), &mut |_| true);
        assert_eq!(report.outcome, SearchOutcome::Exhausted);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("search.nodes"), Some(report.stats.nodes));
        assert_eq!(snap.counter("search.paths"), Some(report.stats.paths));
        assert_eq!(snap.counter("search.bound_pruned"), Some(report.stats.bound_pruned));
        assert_eq!(snap.counter("search.dead_hits"), Some(report.stats.dead_hits));
        assert_eq!(
            snap.counter("search.dead_shared_hits"),
            Some(report.stats.dead_shared_hits)
        );
        assert_eq!(snap.counter("search.dead_misses"), Some(report.stats.dead_misses));
        assert_eq!(snap.counter("search.dead_evicted"), Some(report.stats.dead_evicted));
        // The occupancy gauge carries the shared set's final fill level.
        assert!(snap.gauge("search.dead_set_entries").unwrap() > 0);
        // One wall-time sample per searched level.
        assert_eq!(snap.histogram("search.depth_us").unwrap().count(), 7);
    }

    /// Telemetry observes, never steers: the emitted stream with an
    /// enabled plane is bit-identical to the uninstrumented parallel run.
    #[test]
    fn enabled_telemetry_preserves_the_bit_identical_stream() {
        let (net, init, fin) = setup();
        let (plain, plain_outcome) = collect_with_threads(&net, &init, &fin, 7, 4);
        let cfg = SearchConfig {
            max_len: 7,
            threads: 4,
            telemetry: Telemetry::enabled(),
            ..SearchConfig::default()
        };
        let mut paths: Vec<Vec<Firing>> = Vec::new();
        let outcome = enumerate_paths(&net, &init, &fin, &cfg, &mut |p| {
            paths.push(p.to_vec());
            true
        });
        assert_eq!(paths, plain);
        assert_eq!(outcome, plain_outcome);
    }
}
