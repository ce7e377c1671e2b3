//! The top-level synthesis algorithm (paper Fig. 10): TTN search →
//! `Progs(π)` → `Lift` → canonical-form dedupe → type check, streaming
//! candidates to the caller.

use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::time::{Duration, Instant};

use apiphany_analysis::{LiveCore, SearchPlan};
use apiphany_lang::anf::{canonicalize, AnfProgram};
use apiphany_lang::Program;
use apiphany_mining::{Query, SemLib};
use apiphany_telemetry::Telemetry;
use apiphany_ttn::{
    build_ttn, enumerate_search, query_markings, Budget, BuildOptions, CancelToken, PlaceId,
    SearchConfig, SearchEvent, SearchOutcome, SearchStats, Ttn,
};

use crate::lift::lift;
use crate::progs::{enumerate_programs, AnfProg};
use crate::typecheck::type_check;

/// Configuration for [`Synthesizer::synthesize`].
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// The unified search budget: wall-clock limit, candidate cap, and TTN
    /// path-depth bound (the paper uses 150 s and depth 8).
    pub budget: Budget,
    /// Cap on ANF programs enumerated per path (argument combinations).
    pub programs_per_path: usize,
    /// Worker threads for the TTN search (`1` = fully serial, the
    /// default), forwarded to [`SearchConfig::threads`] for the per-level
    /// parallel DFS. `Progs`, lift, dedupe, type check and RE ranking
    /// run on the calling thread. Candidates, their order, and all ranks
    /// are identical for every value — parallelism only changes
    /// wall-clock time.
    pub threads: usize,
    /// Dead-state memo capacity forwarded to
    /// [`SearchConfig::dead_set_cap`] (`0` disables memoization).
    pub dead_set_cap: usize,
    /// Static pruning (default `true`): the search runs on the net
    /// without the transitions that can never fire from the query's
    /// inputs, and iterative deepening starts at the output type's
    /// distance lower bound. When the API alone produces every input
    /// type, that net is the [`Synthesizer`]'s live core, pruned once at
    /// construction; otherwise a reachability fixpoint seeded with the
    /// query's inputs prunes the full net for this query. Pruning never
    /// changes the emitted event stream — dead transitions appear on no
    /// valid path and skipped levels are provably path-free — it only
    /// removes wasted work; a statically unreachable output
    /// short-circuits the whole search. `false` runs the search on the
    /// full net (the property tests compare the streams).
    pub prune: bool,
    /// Observability plane, forwarded to [`SearchConfig::telemetry`] so
    /// the TTN search reports its counters and per-level wall times.
    /// Telemetry observes, never steers: candidates and their order are
    /// unchanged by enabling it. The default is the disabled plane.
    pub telemetry: Telemetry,
}

impl Default for SynthesisConfig {
    fn default() -> SynthesisConfig {
        let search = SearchConfig::default();
        SynthesisConfig {
            budget: Budget::default(),
            programs_per_path: 64,
            threads: 1,
            dead_set_cap: search.dead_set_cap,
            prune: true,
            telemetry: Telemetry::default(),
        }
    }
}

/// A well-typed candidate program.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The lifted, well-typed `λ_A` program.
    pub program: Program,
    /// The canonical (alpha-renamed ANF) form of `program`, computed once
    /// for deduplication and reused by consumers for gold matching.
    pub canonical: AnfProgram,
    /// Zero-based generation index (the basis of the paper's `r_orig`).
    pub index: usize,
    /// Length of the TTN path that produced the candidate.
    pub path_len: usize,
    /// Time since the start of synthesis when the candidate was produced.
    pub elapsed: Duration,
}

/// One notification from [`Synthesizer::synthesize`].
#[derive(Debug, Clone)]
pub enum SynthEvent {
    /// A distinct well-typed candidate, in generation order.
    Candidate(Candidate),
    /// Every TTN path of length `depth` has been processed.
    DepthExhausted {
        /// The completed iterative-deepening level.
        depth: usize,
    },
}

/// Statistics of one synthesis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynthesisStats {
    /// Valid TTN paths enumerated.
    pub paths: usize,
    /// ANF programs generated from those paths.
    pub programs: usize,
    /// Distinct well-typed candidates emitted.
    pub candidates: usize,
    /// Programs rejected by the type checker, counting each program whose
    /// canonical form an earlier program already failed with.
    pub ill_typed: usize,
    /// Programs whose lifting failed (relaxation artifacts).
    pub lift_failures: usize,
    /// Well-typed programs removed by canonical-form deduplication.
    pub duplicates: usize,
    /// Whether the search space was exhausted, stopped, or timed out.
    pub outcome: Outcome,
    /// TTN search counters (nodes visited, dead-set hit/miss/rejected) —
    /// reported to session consumers through the final result.
    pub search: SearchStats,
}

/// How a synthesis run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Outcome {
    /// All paths up to the length bound were processed.
    #[default]
    Exhausted,
    /// The candidate cap was reached or the consumer stopped.
    Stopped,
    /// The wall-clock budget was exhausted.
    TimedOut,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

/// A reusable synthesizer: builds the TTN once per semantic library and
/// answers any number of queries against it.
///
/// Construction also does the query-independent half of the
/// reachability stage: the seedless fixpoint and its pruned net, the
/// [`LiveCore`]. A query whose inputs are all producible without seeds
/// (every Table 2 query) searches that core directly; only a query with
/// an input nothing in the API produces re-runs the fixpoint and the
/// prune over the full net.
#[derive(Debug)]
pub struct Synthesizer {
    semlib: SemLib,
    net: Ttn,
    core: LiveCore,
}

impl Synthesizer {
    /// Builds the TTN for a semantic library and its live core.
    pub fn new(semlib: SemLib, build: &BuildOptions) -> Synthesizer {
        let net = build_ttn(&semlib, build);
        let core = LiveCore::new(&net);
        Synthesizer { semlib, net, core }
    }

    /// The semantic library.
    pub fn semlib(&self) -> &SemLib {
        &self.semlib
    }

    /// The underlying net.
    pub fn net(&self) -> &Ttn {
        &self.net
    }

    /// Runs `Synthesize(Λ̂, ŝ)` (Fig. 10), invoking `on_event` with each
    /// distinct well-typed candidate in generation order plus a
    /// [`SynthEvent::DepthExhausted`] marker when an iterative-deepening
    /// level completes. The callback returns `false` to stop; `cancel`
    /// stops the search cooperatively from another thread (polled at every
    /// search node), which is how engine sessions implement cancellation.
    pub fn synthesize(
        &self,
        query: &Query,
        cfg: &SynthesisConfig,
        cancel: &CancelToken,
        on_event: &mut dyn FnMut(SynthEvent) -> bool,
    ) -> SynthesisStats {
        let start = Instant::now();
        let mut stats = SynthesisStats::default();
        let Some((init, fin)) = query_markings(&self.net, query) else {
            // A query type that no method produces/consumes has no
            // programs at all.
            return stats;
        };
        let params: Vec<(String, PlaceId)> = match query
            .params
            .iter()
            .map(|(n, t)| self.net.place_of(t).map(|p| (n.clone(), p)))
            .collect::<Option<Vec<_>>>()
        {
            Some(p) => p,
            None => return stats,
        };

        // Static analysis before any search: drop transitions that can
        // never fire from this query's inputs and start deepening at the
        // output's distance bound. Both are stream-preserving (see
        // `apiphany_analysis::Reachability`). A query whose inputs the
        // API already produces searches the engine's live core as is;
        // an unreachable output short-circuits the whole run.
        let plan = if cfg.prune {
            let seeds: Vec<PlaceId> = params.iter().map(|&(_, p)| p).collect();
            let out_place = self.net.place_of(&query.output).expect("query_markings resolved it");
            let Some(plan) = self.core.plan(&self.net, &seeds, out_place) else {
                // Statically unreachable: report the exact event stream
                // an exhausted search would have produced.
                for depth in 1..=cfg.budget.max_depth {
                    if !on_event(SynthEvent::DepthExhausted { depth }) {
                        stats.outcome = Outcome::Stopped;
                        return stats;
                    }
                }
                stats.outcome = Outcome::Exhausted;
                return stats;
            };
            plan
        } else {
            SearchPlan { net: Cow::Borrowed(&self.net), start_len: 1 }
        };
        let net = &*plan.net;

        // The type verdict of every canonical form seen so far.
        let mut verdicts: HashMap<AnfProgram, bool> = HashMap::new();
        let deadline = cfg.budget.deadline_from(start);
        let max_candidates = cfg.budget.max_candidates.unwrap_or(usize::MAX);
        let search = SearchConfig {
            max_len: cfg.budget.max_depth,
            start_len: plan.start_len,
            max_paths: usize::MAX,
            deadline,
            threads: cfg.threads,
            dead_set_cap: cfg.dead_set_cap,
            telemetry: cfg.telemetry.clone(),
        };
        let mut stopped = false;
        let report = enumerate_search(net, &init, &fin, &search, cancel, &mut |event| {
            let path = match event {
                SearchEvent::Path(path) => path,
                SearchEvent::DepthExhausted { depth } => {
                    return on_event(SynthEvent::DepthExhausted { depth });
                }
            };
            stats.paths += 1;
            let cont = enumerate_programs(
                net,
                path,
                &params,
                cfg.programs_per_path,
                &mut |anf| {
                    stats.programs += 1;
                    if cancel.is_cancelled() {
                        return false;
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return false;
                    }
                    let (lifted, canonical) =
                        match post_search(&self.semlib, query, anf, &mut verdicts) {
                            PostSearch::LiftFailed => {
                                stats.lift_failures += 1;
                                return true;
                            }
                            PostSearch::IllTyped => {
                                stats.ill_typed += 1;
                                return true;
                            }
                            PostSearch::Duplicate => {
                                stats.duplicates += 1;
                                return true;
                            }
                            PostSearch::New(lifted, canonical) => (lifted, canonical),
                        };
                    let candidate = Candidate {
                        program: lifted,
                        canonical,
                        index: stats.candidates,
                        path_len: path.len(),
                        elapsed: start.elapsed(),
                    };
                    stats.candidates += 1;
                    let keep_going = on_event(SynthEvent::Candidate(candidate));
                    if !keep_going || stats.candidates >= max_candidates {
                        stopped = true;
                        return false;
                    }
                    true
                },
            );
            cont && !stopped
        });
        stats.search = report.stats;
        stats.outcome = match report.outcome {
            SearchOutcome::TimedOut => Outcome::TimedOut,
            SearchOutcome::Cancelled => Outcome::Cancelled,
            SearchOutcome::Exhausted => Outcome::Exhausted,
            // The search reports Stopped whenever a callback returned
            // `false`, which covers three distinct situations: the program
            // enumerator observed cancellation or the deadline mid-path
            // (the TTN-level outcome cannot see that), the candidate cap
            // was hit, or the consumer stopped. Reclassify from the cause.
            SearchOutcome::Stopped => {
                if cancel.is_cancelled() {
                    Outcome::Cancelled
                } else if deadline.is_some_and(|d| Instant::now() >= d) {
                    Outcome::TimedOut
                } else {
                    Outcome::Stopped
                }
            }
        };
        stats
    }
}

/// What the post-search stages make of one program of `Progs(π)`.
#[derive(Debug)]
enum PostSearch {
    LiftFailed,
    IllTyped,
    /// A well-typed program whose canonical form was seen before.
    Duplicate,
    /// A new, well-typed canonical form, with the lifted program.
    New(Program, AnfProgram),
}

/// The post-search stages for one array-oblivious program: lift, then
/// canonicalize, then dedupe against `verdicts`. Only a new canonical
/// form is type-checked (and cloned); a repeated one gets the verdict
/// its first program got.
///
/// That is exact, because a lifted program's verdict depends only on its
/// canonical form. A lifted program is closed and in ANF: every operand
/// is a variable, record arguments are let-bound, and no `let` aliases
/// another variable. So every variable's type follows from its dataflow:
/// a parameter's from the query, a call's from its method, a
/// projection's from its base and label, and a `return`'s or bind's from
/// its operand. The canonical form keeps that dataflow (statement kinds,
/// methods, labels, argument and field names, and which variable feeds
/// which operand) and the result. It forgets only the order of
/// independent statements, arguments and fields, and a guard's
/// orientation. Those change which error the checker reports first,
/// never whether it reports one. So the `ill_typed` and `duplicates`
/// counts equal those of type-checking every program before the dedupe.
fn post_search(
    semlib: &SemLib,
    query: &Query,
    anf: &AnfProg<'_>,
    verdicts: &mut HashMap<AnfProgram, bool>,
) -> PostSearch {
    let Ok(lifted) = lift(semlib, query, anf) else {
        return PostSearch::LiftFailed;
    };
    match verdicts.entry(canonicalize(&lifted)) {
        Entry::Occupied(seen) if *seen.get() => PostSearch::Duplicate,
        Entry::Occupied(_) => PostSearch::IllTyped,
        Entry::Vacant(new) => {
            if type_check(semlib, &lifted, query).is_err() {
                new.insert(false);
                return PostSearch::IllTyped;
            }
            let canonical = new.key().clone();
            new.insert(true);
            PostSearch::New(lifted, canonical)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiphany_lang::anf::alpha_eq;
    use apiphany_lang::parse_program;
    use apiphany_mining::{mine_types, parse_query, MiningConfig};
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};

    fn synthesizer() -> Synthesizer {
        let sl = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default());
        Synthesizer::new(sl, &BuildOptions::default())
    }

    fn depth7() -> SynthesisConfig {
        SynthesisConfig { budget: Budget::depth(7), ..SynthesisConfig::default() }
    }

    /// Every candidate within the budget, in generation order.
    fn collect(
        synth: &Synthesizer,
        q: &Query,
        cfg: &SynthesisConfig,
    ) -> (Vec<Candidate>, SynthesisStats) {
        let mut out = Vec::new();
        let stats = synth.synthesize(q, cfg, &CancelToken::new(), &mut |event| {
            if let SynthEvent::Candidate(c) = event {
                out.push(c);
            }
            true
        });
        (out, stats)
    }

    #[test]
    fn solves_the_running_example() {
        let synth = synthesizer();
        let q = parse_query(synth.semlib(), "{ channel_name: Channel.name } → [Profile.email]")
            .unwrap();
        let cfg = depth7();
        let (candidates, stats) = collect(&synth, &q, &cfg);
        assert!(stats.candidates >= 2, "{stats:?}");
        let gold = parse_program(
            r"\channel_name → {
                c ← c_list()
                if c.name = channel_name
                uid ← c_members(channel=c.id)
                let u = u_info(user=uid)
                return u.profile.email
            }",
        )
        .unwrap();
        let hit = candidates.iter().find(|c| alpha_eq(&c.program, &gold));
        assert!(hit.is_some(), "gold not among candidates");
        // The Fig. 5 "creator" distractor is also found (shorter path).
        let creator = parse_program(
            r"\channel_name → {
                c ← c_list()
                if c.name = channel_name
                let u = u_info(user=c.creator)
                return u.profile.email
            }",
        )
        .unwrap();
        assert!(candidates.iter().any(|c| alpha_eq(&c.program, &creator)));
        // Shorter paths come first.
        let hit = hit.unwrap();
        let creator_hit =
            candidates.iter().find(|c| alpha_eq(&c.program, &creator)).unwrap();
        assert!(creator_hit.index < hit.index);
    }

    #[test]
    fn all_candidates_type_check_and_are_distinct() {
        let synth = synthesizer();
        let q = parse_query(synth.semlib(), "{ channel_name: Channel.name } → [Profile.email]")
            .unwrap();
        let (candidates, _) = collect(&synth, &q, &depth7());
        let mut canon = std::collections::HashSet::new();
        for c in &candidates {
            crate::typecheck::type_check(synth.semlib(), &c.program, &q).unwrap();
            assert!(canon.insert(apiphany_lang::anf::canonicalize(&c.program)));
        }
    }

    #[test]
    fn candidate_cap_stops() {
        let synth = synthesizer();
        let q = parse_query(synth.semlib(), "{ channel_name: Channel.name } → [Profile.email]")
            .unwrap();
        let cfg = SynthesisConfig {
            budget: Budget { max_candidates: Some(1), ..Budget::depth(7) },
            ..SynthesisConfig::default()
        };
        let (candidates, stats) = collect(&synth, &q, &cfg);
        assert_eq!(candidates.len(), 1);
        assert_eq!(stats.outcome, Outcome::Stopped);
    }

    #[test]
    fn cancel_token_stops_synthesis() {
        let synth = synthesizer();
        let q = parse_query(synth.semlib(), "{ channel_name: Channel.name } → [Profile.email]")
            .unwrap();
        let cancel = CancelToken::new();
        let mut n = 0;
        let stats = synth.synthesize(&q, &depth7(), &cancel, &mut |event| {
            if matches!(event, SynthEvent::Candidate(_)) {
                n += 1;
                cancel.cancel();
            }
            true
        });
        assert_eq!(n, 1);
        assert_eq!(stats.outcome, Outcome::Cancelled);
    }

    #[test]
    fn depth_events_bracket_candidates() {
        // Fig. 7 admits the creator variant at depth 6 and the Fig. 2
        // solution at depth 7: each candidate must arrive before its
        // depth's DepthExhausted marker.
        let synth = synthesizer();
        let q = parse_query(synth.semlib(), "{ channel_name: Channel.name } → [Profile.email]")
            .unwrap();
        let mut log: Vec<(bool, usize)> = Vec::new(); // (is_candidate, depth)
        synth.synthesize(&q, &depth7(), &CancelToken::new(), &mut |event| {
            match event {
                SynthEvent::Candidate(c) => log.push((true, c.path_len)),
                SynthEvent::DepthExhausted { depth } => log.push((false, depth)),
            }
            true
        });
        let depth_markers: Vec<usize> =
            log.iter().filter(|(c, _)| !c).map(|&(_, d)| d).collect();
        assert_eq!(depth_markers, vec![1, 2, 3, 4, 5, 6, 7]);
        for (i, &(is_cand, depth)) in log.iter().enumerate() {
            if is_cand {
                // No DepthExhausted marker for `depth` may precede it.
                assert!(
                    log[..i].iter().all(|&(c, d)| c || d < depth),
                    "candidate at depth {depth} emitted after its marker"
                );
            }
        }
    }

    /// The determinism guarantee at the synthesis layer: a parallel run
    /// produces the same candidates, in the same order, with the same
    /// stats as the serial run.
    #[test]
    fn parallel_synthesis_is_identical_to_serial() {
        let synth = synthesizer();
        let q = parse_query(synth.semlib(), "{ channel_name: Channel.name } → [Profile.email]")
            .unwrap();
        let (serial, serial_stats) = collect(&synth, &q, &depth7());
        assert!(!serial.is_empty());
        for threads in [2usize, 4] {
            let cfg = SynthesisConfig { threads, ..depth7() };
            let (par, par_stats) = collect(&synth, &q, &cfg);
            assert_eq!(par.len(), serial.len(), "threads = {threads}");
            for (p, s) in par.iter().zip(&serial) {
                assert_eq!(p.canonical, s.canonical);
                assert_eq!(p.index, s.index);
                assert_eq!(p.path_len, s.path_len);
            }
            assert_eq!(par_stats.outcome, serial_stats.outcome);
            assert_eq!(par_stats.paths, serial_stats.paths);
            assert_eq!(par_stats.programs, serial_stats.programs);
            assert_eq!(par_stats.candidates, serial_stats.candidates);
        }
    }

    #[test]
    fn synthesis_stats_carry_search_counters() {
        let synth = synthesizer();
        let q = parse_query(synth.semlib(), "{ channel_name: Channel.name } → [Profile.email]")
            .unwrap();
        let (_, stats) = collect(&synth, &q, &depth7());
        assert!(stats.search.nodes > 0);
        assert_eq!(stats.search.paths as usize, stats.paths);
        assert!(stats.search.dead_hits > 0);
    }

    #[test]
    fn candidates_carry_their_canonical_form() {
        let synth = synthesizer();
        let q = parse_query(synth.semlib(), "{ channel_name: Channel.name } → [Profile.email]")
            .unwrap();
        let (candidates, _) = collect(&synth, &q, &depth7());
        assert!(!candidates.is_empty());
        for c in &candidates {
            assert_eq!(c.canonical, apiphany_lang::anf::canonicalize(&c.program));
        }
    }

    /// An ill-typed program submitted twice counts as ill-typed both
    /// times: the second gets the first's verdict, and is neither a
    /// duplicate nor a candidate.
    #[test]
    fn repeated_ill_typed_programs_stay_ill_typed() {
        use crate::progs::{AStmt, Var::X};
        let synth = synthesizer();
        let q = parse_query(synth.semlib(), "{ } → [Channel]").unwrap();
        // A guard comparing a channel's name with its id lifts, but
        // does not type-check.
        let anf = AnfProg {
            stmts: vec![
                AStmt::Call { dst: X(0), method: "c_list", args: vec![] },
                AStmt::Proj { dst: X(1), base: X(0), label: "name" },
                AStmt::Proj { dst: X(2), base: X(0), label: "id" },
                AStmt::Guard { lhs: X(1), rhs: X(2) },
            ],
            result: X(0),
        };
        let lifted = lift(synth.semlib(), &q, &anf).unwrap();
        let e = type_check(synth.semlib(), &lifted, &q).unwrap_err();
        assert!(e.message.starts_with("guard compares"), "{e}");
        let mut verdicts = HashMap::new();
        for _ in 0..2 {
            let step = post_search(synth.semlib(), &q, &anf, &mut verdicts);
            assert!(matches!(step, PostSearch::IllTyped), "{step:?}");
        }
        assert_eq!(verdicts.len(), 1);

        // Without the guard it is well typed: new, then a duplicate.
        let anf = AnfProg { stmts: anf.stmts[..1].to_vec(), result: X(0) };
        let step = post_search(synth.semlib(), &q, &anf, &mut verdicts);
        let PostSearch::New(program, canonical) = step else { panic!("{step:?}") };
        assert_eq!(canonical, canonicalize(&program));
        let step = post_search(synth.semlib(), &q, &anf, &mut verdicts);
        assert!(matches!(step, PostSearch::Duplicate), "{step:?}");
        assert_eq!(verdicts.len(), 2);
    }

    #[test]
    fn unknown_query_type_yields_nothing() {
        let synth = synthesizer();
        // Build a query against a different semlib so the group ids do not
        // exist as places (simulates an unproducible type).
        let empty = mine_types(&fig7_library(), &[], &MiningConfig::default());
        let q = parse_query(&empty, "{ x: u_info.in.user } → [Profile.email]").unwrap();
        let (candidates, stats) = collect(&synth, &q, &SynthesisConfig::default());
        let _ = stats;
        // Either no place or no path; never a panic, never a candidate
        // using the wrong groups.
        assert!(candidates.iter().all(|c| {
            crate::typecheck::type_check(synth.semlib(), &c.program, &q).is_ok()
        }));
    }
}
