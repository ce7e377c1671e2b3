//! **APIphany** — type-directed program synthesis for RESTful APIs.
//!
//! A from-scratch Rust reproduction of the PLDI 2022 paper by Guo, Cao,
//! Tjong, Yang, Schlesinger, and Polikarpova. This crate is the facade
//! assembling the paper's Fig. 1 pipeline behind a serving-oriented API:
//!
//! * **analysis phase** (once per API): collect witnesses against a
//!   sandboxed service and mine semantic types (paper §4 / Appendix D),
//!   producing a reusable [`AnalysisArtifact`] that serializes to JSON
//!   ([`Engine::save_analysis`] / [`Engine::load_analysis`]) — analyze
//!   once, serve from many processes;
//! * **synthesis phase** (per query): a cancellable, streaming
//!   [`Session`] over the TTN search (paper §5) and
//!   retrospective-execution ranking (paper §6) — candidates arrive as
//!   [`Event`]s the moment they are generated and ranked, bounded by a
//!   unified [`Budget`] and stoppable through a [`CancelToken`].
//!
//! The substrate crates are re-exported under short names
//! ([`json`], [`spec`], [`lang`], [`mining`], [`ttn`], [`synth`], [`re`]).
//!
//! # Quickstart
//!
//! ```
//! use apiphany_core::{Budget, Engine, Event, RunConfig};
//! use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
//!
//! // Analysis phase (here from pre-recorded witnesses).
//! let engine = Engine::from_witnesses(fig7_library(), fig4_witnesses());
//! // Synthesis phase: the paper's running example, as an event stream.
//! let query = engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
//! let mut cfg = RunConfig::default();
//! cfg.synthesis.budget = Budget::depth(7);
//! let session = engine.session(&query, &cfg).unwrap();
//! for event in session {
//!     match event {
//!         // Candidates stream in as they are generated and RE-ranked.
//!         Event::CandidateFound { r_orig, r_re_now, .. } => {
//!             assert!(r_re_now <= r_orig);
//!         }
//!         // The last event carries the final ranking.
//!         Event::Finished(result) => {
//!             // The top-ranked program is the Fig. 2 solution.
//!             println!("{}", result.ranked[0].program);
//!         }
//!         _ => {}
//!     }
//! }
//! ```
//!
//! # Analyze once, serve many
//!
//! ```
//! use apiphany_core::Engine;
//! use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
//!
//! let engine = Engine::from_witnesses(fig7_library(), fig4_witnesses());
//! // One process saves the analysis artifact ...
//! let json = engine.save_analysis().to_json();
//! // ... any number of serving processes reload it without re-mining.
//! let serving = Engine::load_analysis(&json).unwrap();
//! assert!(serving.query("{ } → [Channel]").is_ok());
//! ```

pub use apiphany_analysis as analysis;
pub use apiphany_json as json;
pub use apiphany_lang as lang;
pub use apiphany_mining as mining;
pub use apiphany_re as re;
pub use apiphany_spec as spec;
pub use apiphany_synth as synth;
pub use apiphany_telemetry as telemetry;
pub use apiphany_ttn as ttn;

mod artifact;
mod catalog;
mod error;
pub mod fault;
mod job;
mod queryspec;
mod sched;
mod session;

pub use apiphany_telemetry::Telemetry;
pub use apiphany_ttn::{Budget, CancelToken, InvalidBudget};
pub use artifact::AnalysisArtifact;
pub use catalog::{
    AnalysisSource, JobInfo, RetryPolicy, ServiceCatalog, ServiceInfo, ServiceLookup,
};
pub use error::EngineError;
pub use fault::{FaultKind, FaultPlane, FaultPoint, FaultRule};
pub use job::{Job, JobId, JobKind, JobOutcome, JobRuntime, JobState, RuntimeStats};
pub use queryspec::QuerySpec;
pub use sched::CatalogSubmission;
pub use session::{Event, Session};

use std::sync::Arc;
use std::time::Duration;

use apiphany_analysis::{lint_service, precheck_query, Diagnostic, Precheck};
use apiphany_lang::anf::AnfProgram;
use apiphany_lang::Program;
use apiphany_mining::{
    analyze_api, mine_types, mine_types_cancellable, parse_query, AnalyzeConfig, AnalyzeStats,
    MiningConfig, Query, SemLib,
};
use apiphany_re::{CostParams, WitnessIndex};
use apiphany_spec::{Library, Service, Witness};
use apiphany_synth::{SynthesisConfig, SynthesisStats, Synthesizer};
use apiphany_ttn::BuildOptions;
use session::Host;

/// Configuration of one synthesis run (search + ranking).
#[derive(Debug, Clone, Default)]
pub struct RunConfig {
    /// Search-side configuration: the [`Budget`] plus enumeration knobs.
    pub synthesis: SynthesisConfig,
    /// Ranking-side configuration (RE rounds, penalties).
    pub cost: CostParams,
}

/// One ranked program in a [`RunResult`].
#[derive(Debug, Clone)]
pub struct RankedProgram {
    /// The synthesized, well-typed `λ_A` program.
    pub program: Program,
    /// The canonical (alpha-renamed ANF) form of `program`, computed once
    /// during synthesis and reused for every equality check (see
    /// [`RunResult::ranks_of`]).
    pub canonical: AnfProgram,
    /// Generation index (order of discovery; the paper's `r_orig` is
    /// `gen_index + 1`).
    pub gen_index: usize,
    /// 1-based RE rank at the moment the candidate was generated
    /// (the paper's `r_RE`).
    pub rank_at_generation: usize,
    /// Total cost (AST size + penalties).
    pub cost: f64,
    /// TTN path length that produced the program.
    pub path_len: usize,
    /// Time since the start of the run when the candidate appeared.
    pub elapsed: Duration,
}

/// The outcome of a synthesis run: candidates in final rank order.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Candidates ordered by final (timeout-time) RE rank — the paper's
    /// `r_RE^TO` is the 1-based position in this list.
    pub ranked: Vec<RankedProgram>,
    /// Search statistics.
    pub stats: SynthesisStats,
    /// Total time spent in retrospective execution (the paper reports
    /// ≈1% of synthesis time).
    pub re_time: Duration,
    /// Wall-clock duration of the whole run.
    pub total_time: Duration,
}

impl RunResult {
    /// Finds the candidate equal (modulo renaming and benign reordering)
    /// to `gold`, returning `(r_orig, r_RE, r_RE^TO)` — the paper's three
    /// rank columns, all 1-based.
    ///
    /// `gold` is canonicalized once per call; the candidates' canonical
    /// forms were cached at generation time, so repeated calls (the
    /// benchmark harness asks per gold program) do not re-canonicalize the
    /// whole list.
    pub fn ranks_of(&self, gold: &Program) -> Option<(usize, usize, usize)> {
        let canon_gold = apiphany_lang::anf::canonicalize(gold);
        self.ranked
            .iter()
            .enumerate()
            .find(|(_, r)| r.canonical == canon_gold)
            .map(|(pos, r)| (r.gen_index + 1, r.rank_at_generation, pos + 1))
    }

    /// The programs of the top `k` candidates.
    pub fn top(&self, k: usize) -> &[RankedProgram] {
        &self.ranked[..k.min(self.ranked.len())]
    }
}

/// The shared, immutable state of an engine: the mined semantic library
/// (inside the synthesizer, with its TTN and live core) and the witness
/// set used for retrospective execution, indexed once for every session.
/// Sessions hold an `Arc` of this so the engine can be dropped while
/// sessions are still streaming.
#[derive(Debug)]
pub(crate) struct EngineInner {
    pub(crate) synthesizer: Synthesizer,
    pub(crate) witnesses: Vec<Witness>,
    pub(crate) witness_index: WitnessIndex,
    pub(crate) analysis_stats: Option<AnalyzeStats>,
    pub(crate) diagnostics: Vec<Diagnostic>,
}

/// The APIphany engine: a mined semantic library, its TTN, and the witness
/// set used for retrospective execution.
///
/// Construct one with [`Engine::builder`] (or the
/// [`Engine::from_witnesses`] / [`Engine::analyze`] shorthands), then
/// answer queries by opening streaming [`Session`]s. The engine is an
/// `Arc`-backed handle: sessions keep the underlying state alive, and
/// cloning the engine is cheap.
#[derive(Clone, Debug)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

/// Configures and constructs an [`Engine`].
///
/// ```
/// use apiphany_core::Engine;
/// use apiphany_mining::MiningConfig;
/// use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
///
/// let engine = Engine::builder()
///     .mining(MiningConfig::location_only())
///     .from_witnesses(fig7_library(), fig4_witnesses());
/// assert!(engine.semlib().n_groups() > 0);
/// ```
#[derive(Debug, Default)]
pub struct EngineBuilder {
    mining: MiningConfig,
    build: BuildOptions,
    cancel: CancelToken,
}

impl EngineBuilder {
    /// Sets the type-mining configuration (granularity ablations, merge
    /// policy).
    pub fn mining(mut self, mining: MiningConfig) -> EngineBuilder {
        self.mining = mining;
        self
    }

    /// Sets the TTN construction options.
    pub fn build_options(mut self, build: BuildOptions) -> EngineBuilder {
        self.build = build;
        self
    }

    /// Sets the cancellation token the analysis phase polls. A cancelled
    /// token makes [`EngineBuilder::from_witnesses`] /
    /// [`EngineBuilder::analyze`] stop mining early and return a
    /// structurally complete engine mined from whatever was finished —
    /// callers that cancel (the job runtime) discard the result anyway.
    pub fn cancel_token(mut self, cancel: CancelToken) -> EngineBuilder {
        self.cancel = cancel;
        self
    }

    /// Builds an engine by mining semantic types from a pre-recorded
    /// witness set (no live service). The engine's
    /// [`Engine::analysis_stats`] report the witness/coverage counts of
    /// the mined set (with `rounds = 0` — no live testing loop ran), so
    /// serving layers can surface per-service mining cost uniformly.
    pub fn from_witnesses(self, lib: Library, witnesses: Vec<Witness>) -> Engine {
        let stats = AnalyzeStats::of_witnesses(&witnesses, 0);
        let semlib = mine_types_cancellable(&lib, &witnesses, &self.mining, &self.cancel)
            .unwrap_or_else(|| mine_types(&lib, &[], &self.mining));
        Engine::from_parts(Synthesizer::new(semlib, &self.build), witnesses, Some(stats))
    }

    /// Builds an engine from a saved [`AnalysisArtifact`] — the mined
    /// library is reused as-is, no re-mining happens.
    pub fn from_artifact(self, artifact: AnalysisArtifact) -> Engine {
        Engine::from_parts(
            Synthesizer::new(artifact.semlib, &self.build),
            artifact.witnesses,
            artifact.stats,
        )
    }

    /// Builds an engine by running the analysis phase against a live
    /// (sandboxed) service: alternates type mining and type-directed
    /// random testing (paper Fig. 20).
    pub fn analyze(
        self,
        service: &mut dyn Service,
        initial_witnesses: &[Witness],
        analyze: &AnalyzeConfig,
    ) -> Engine {
        let result = analyze_api(service, initial_witnesses, &self.mining, analyze, &self.cancel);
        Engine::from_parts(
            Synthesizer::new(result.semlib, &self.build),
            result.witnesses,
            Some(result.stats),
        )
    }
}

impl Engine {
    /// Starts configuring a new engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    fn from_parts(
        synthesizer: Synthesizer,
        witnesses: Vec<Witness>,
        analysis_stats: Option<AnalyzeStats>,
    ) -> Engine {
        // Lint once at construction: every consumer (catalog inspect,
        // synthd `lint`, saved artifacts) reads the same diagnostics.
        let diagnostics = lint_service(synthesizer.semlib(), synthesizer.net());
        let witness_index = WitnessIndex::new(&witnesses);
        Engine {
            inner: Arc::new(EngineInner {
                synthesizer,
                witnesses,
                witness_index,
                analysis_stats,
                diagnostics,
            }),
        }
    }

    /// Analysis phase against a live (sandboxed) service with explicit
    /// mining/TTN options (shorthand for the builder).
    pub fn analyze(
        service: &mut dyn Service,
        initial_witnesses: &[Witness],
        mining: &MiningConfig,
        analyze: &AnalyzeConfig,
        build: &BuildOptions,
    ) -> Engine {
        Engine::builder()
            .mining(mining.clone())
            .build_options(build.clone())
            .analyze(service, initial_witnesses, analyze)
    }

    /// Analysis phase from a pre-recorded witness set (no live service).
    pub fn from_witnesses(lib: Library, witnesses: Vec<Witness>) -> Engine {
        Engine::builder().from_witnesses(lib, witnesses)
    }

    /// Like [`Engine::from_witnesses`] with explicit mining / TTN
    /// options (used by the granularity ablations of §7.2).
    pub fn from_witnesses_with(
        lib: Library,
        witnesses: Vec<Witness>,
        mining: &MiningConfig,
        build: &BuildOptions,
    ) -> Engine {
        Engine::builder()
            .mining(mining.clone())
            .build_options(build.clone())
            .from_witnesses(lib, witnesses)
    }

    /// Packages the engine's analysis outputs (mined semantic library +
    /// witness set + statistics) as a reusable, JSON-serializable
    /// [`AnalysisArtifact`].
    pub fn save_analysis(&self) -> AnalysisArtifact {
        AnalysisArtifact {
            semlib: self.semlib().clone(),
            witnesses: self.inner.witnesses.clone(),
            stats: self.inner.analysis_stats.clone(),
            service: None,
            diagnostics: self.inner.diagnostics.clone(),
        }
    }

    /// Reconstructs an engine from a JSON artifact produced by
    /// [`Engine::save_analysis`], with default TTN options (use
    /// [`EngineBuilder::from_artifact`] for custom options).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Json`] / [`EngineError::Artifact`] when the
    /// text is not a valid artifact.
    pub fn load_analysis(json: &str) -> Result<Engine, EngineError> {
        Ok(Engine::builder().from_artifact(AnalysisArtifact::from_json(json)?))
    }

    /// The mined semantic library.
    pub fn semlib(&self) -> &SemLib {
        self.inner.synthesizer.semlib()
    }

    /// The witness set used for retrospective execution.
    pub fn witnesses(&self) -> &[Witness] {
        &self.inner.witnesses
    }

    /// Statistics of the analysis phase: witness/coverage counts, plus
    /// the testing-loop round count when the analysis ran against a live
    /// service (`rounds = 0` for witness-mined engines). `None` only for
    /// engines reloaded from a pre-stats artifact.
    pub fn analysis_stats(&self) -> Option<&AnalyzeStats> {
        self.inner.analysis_stats.as_ref()
    }

    /// The underlying synthesizer (TTN access for diagnostics/benches).
    pub fn synthesizer(&self) -> &Synthesizer {
        &self.inner.synthesizer
    }

    /// The spec/TTN lint diagnostics, computed once at engine
    /// construction (see [`apiphany_analysis::lint_service`]).
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.inner.diagnostics
    }

    /// Statically decides whether `query` is solvable, without searching:
    /// the reachability pre-check of [`apiphany_analysis::precheck_query`]
    /// on this engine's TTN. [`Engine::open`] runs it automatically;
    /// this surface lets callers ask ahead of time.
    pub fn precheck(&self, query: &Query) -> Precheck {
        precheck_query(self.inner.synthesizer.net(), self.semlib(), query)
    }

    /// Parses a type query against the mined library.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Query`] when the syntax is malformed or a
    /// type name does not resolve.
    pub fn query(&self, text: &str) -> Result<Query, EngineError> {
        Ok(parse_query(self.semlib(), text)?)
    }

    /// Opens a streaming synthesis [`Session`] for a query: candidates are
    /// generated by the TTN search and ranked by retrospective execution
    /// as they appear, and arrive as [`Event`]s through the returned
    /// iterator. The session is cancellable ([`Session::cancel`]) and
    /// bounded by `cfg.synthesis.budget`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Budget`] when the budget is misconfigured
    /// (zero depth or a zero candidate cap).
    pub fn session(&self, query: &Query, cfg: &RunConfig) -> Result<Session, EngineError> {
        cfg.synthesis.budget.validate()?;
        Ok(Session::spawn(Host::Thread, Arc::clone(&self.inner), query.clone(), cfg.clone()))
    }

    /// Opens a streaming session for a typed [`QuerySpec`] — the
    /// builder-first twin of [`Engine::session`] (which it matches
    /// event-for-event for an equivalent query and config). The spec's
    /// `service` field is ignored here; use [`ServiceCatalog::open`] or
    /// [`JobRuntime::submit_catalog`] for name-routed queries.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Query`] when one of the spec's types does
    /// not resolve (the message names the failing part),
    /// [`EngineError::Budget`] for an invalid budget, and
    /// [`EngineError::Unreachable`] when the static pre-check proves the
    /// output can never be produced from the inputs — in microseconds,
    /// without spawning a search.
    pub fn open(&self, spec: &QuerySpec) -> Result<Session, EngineError> {
        let query = spec.resolve(self.semlib())?;
        let cfg = spec.run_config();
        cfg.synthesis.budget.validate()?;
        if let Precheck::Unreachable { missing_types, blocked_ops } = self.precheck(&query) {
            return Err(EngineError::Unreachable { missing_types, blocked_ops });
        }
        Ok(Session::spawn(Host::Thread, Arc::clone(&self.inner), query, cfg))
    }

    /// The blocking synthesis phase: validates the budget, opens a
    /// [`Session`], and drains it — identical results to consuming the
    /// session by hand, at every thread count.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.synthesis.budget` is invalid; use
    /// [`Engine::session`] for the non-panicking surface.
    pub fn run(&self, query: &Query, cfg: &RunConfig) -> RunResult {
        self.session(query, cfg).expect("RunConfig carries an invalid budget").drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiphany_lang::parse_program;
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};

    fn engine() -> Engine {
        Engine::from_witnesses(fig7_library(), fig4_witnesses())
    }

    fn run_cfg() -> RunConfig {
        let mut cfg = RunConfig::default();
        cfg.synthesis.budget = Budget::depth(7);
        cfg
    }

    fn gold() -> Program {
        parse_program(
            r"\channel_name → {
                c ← c_list()
                if c.name = channel_name
                uid ← c_members(channel=c.id)
                let u = u_info(user=uid)
                return u.profile.email
            }",
        )
        .unwrap()
    }

    #[test]
    fn running_example_ranks_fig2_first() {
        let engine = engine();
        let query =
            engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let result = engine.run(&query, &run_cfg());
        assert_eq!(result.ranked.len(), 2);
        let (r_orig, r_re, r_to) = result.ranks_of(&gold()).unwrap();
        // Generated second (longer path), but ranked first by RE: the
        // creator variant always returns a single email.
        assert_eq!(r_orig, 2);
        assert_eq!(r_re, 1);
        assert_eq!(r_to, 1);
    }

    /// The engine-level determinism guarantee: a multi-threaded run
    /// (parallel path search) produces exactly the ranking of the serial
    /// run.
    #[test]
    fn parallel_run_matches_serial_run() {
        let engine = engine();
        let query =
            engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let serial = engine.run(&query, &run_cfg());
        for threads in [2usize, 4] {
            let mut cfg = run_cfg();
            cfg.synthesis.threads = threads;
            let par = engine.run(&query, &cfg);
            assert_eq!(par.ranked.len(), serial.ranked.len(), "threads = {threads}");
            for (p, s) in par.ranked.iter().zip(&serial.ranked) {
                assert_eq!(p.canonical, s.canonical);
                assert_eq!(p.gen_index, s.gen_index);
                assert_eq!(p.rank_at_generation, s.rank_at_generation);
                assert!((p.cost - s.cost).abs() < f64::EPSILON);
            }
            assert_eq!(par.stats.outcome, serial.stats.outcome);
            assert_eq!(par.ranks_of(&gold()), serial.ranks_of(&gold()));
        }
    }

    /// Search counters (nodes, dead-set traffic) surface to session
    /// consumers through the final `Finished` event's stats.
    #[test]
    fn search_stats_reach_session_consumers() {
        let engine = engine();
        let query =
            engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let result = engine.session(&query, &run_cfg()).unwrap().drain();
        assert!(result.stats.search.nodes > 0);
        assert!(result.stats.search.dead_hits > 0);
        assert_eq!(result.stats.search.paths as usize, result.stats.paths);
    }

    /// Sessions with a thread pool stream the same events as serial ones.
    #[test]
    fn parallel_session_streams_identical_candidates() {
        let engine = engine();
        let query =
            engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let collect = |threads: usize| {
            let mut cfg = run_cfg();
            cfg.synthesis.threads = threads;
            let session = engine.session(&query, &cfg).unwrap();
            session
                .filter_map(|e| match e {
                    Event::CandidateFound { canonical, r_orig, r_re_now, .. } => {
                        Some((canonical, r_orig, r_re_now))
                    }
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        let serial = collect(1);
        assert!(!serial.is_empty());
        assert_eq!(collect(4), serial);
    }

    #[test]
    fn re_time_is_bounded_by_total() {
        let engine = engine();
        let query =
            engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let result = engine.run(&query, &run_cfg());
        assert!(result.re_time <= result.total_time);
    }

    /// The invariant must also hold with a parallel path search.
    #[test]
    fn parallel_run_re_time_is_bounded_by_total() {
        let engine = engine();
        let query =
            engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let mut cfg = run_cfg();
        cfg.synthesis.threads = 4;
        let result = engine.run(&query, &cfg);
        assert!(result.re_time <= result.total_time);
    }

    #[test]
    fn ranks_of_missing_gold_is_none() {
        let engine = engine();
        let query = engine.query("{ } → [Channel]").unwrap();
        let result = engine.run(&query, &run_cfg());
        let unrelated =
            parse_program(r"\ → { c ← c_list() return c.name }").unwrap();
        assert_eq!(result.ranks_of(&unrelated), None);
    }

    #[test]
    fn query_errors_are_structured() {
        let engine = engine();
        let err = engine.query("{ x: Nope.y } → [Channel]").unwrap_err();
        assert!(matches!(err, EngineError::Query(_)));
        assert!(err.to_string().contains("Nope.y"));
    }

    #[test]
    fn session_streams_candidates_then_finishes() {
        let engine = engine();
        let query =
            engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let session = engine.session(&query, &run_cfg()).unwrap();
        let events: Vec<Event> = session.collect();
        let n_candidates = events
            .iter()
            .filter(|e| matches!(e, Event::CandidateFound { .. }))
            .count();
        assert_eq!(n_candidates, 2);
        // Depth markers for every level and a final Finished event.
        assert!(events.iter().any(|e| matches!(e, Event::DepthExhausted { depth: 7 })));
        let Some(Event::Finished(result)) = events.last() else {
            panic!("stream must end with Finished");
        };
        assert_eq!(result.ranked.len(), 2);
        // Event ranks match the drained result's generation-time ranks.
        for event in &events {
            if let Event::CandidateFound { r_orig, r_re_now, .. } = event {
                let by_gen = result
                    .ranked
                    .iter()
                    .find(|r| r.gen_index + 1 == *r_orig)
                    .expect("every event candidate is in the final ranking");
                assert_eq!(by_gen.rank_at_generation, *r_re_now);
            }
        }
    }

    #[test]
    fn session_cancel_stops_the_run() {
        let engine = engine();
        // A query with a huge search space at depth 8 on the tiny library
        // would still finish fast; what matters is that cancel ends the
        // stream with a Cancelled outcome and a Finished event.
        let query =
            engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let mut cfg = run_cfg();
        cfg.synthesis.budget = Budget::depth(12); // deep: would take a while
        let mut session = engine.session(&query, &cfg).unwrap();
        let first = session.next().expect("at least one event");
        session.cancel();
        let mut finished = None;
        for event in &mut session {
            if let Event::Finished(result) = event {
                finished = Some(result);
            }
        }
        let result = finished.expect("cancelled session still finishes");
        assert_eq!(result.stats.outcome, apiphany_synth::Outcome::Cancelled);
        // The pre-cancellation event is part of the ranked output.
        if let Event::CandidateFound { r_orig, .. } = first {
            assert!(result.ranked.iter().any(|r| r.gen_index + 1 == r_orig));
        }
    }

    #[test]
    fn dropping_a_session_mid_stream_reaps_the_worker() {
        let engine = engine();
        let query =
            engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let mut cfg = run_cfg();
        cfg.synthesis.budget = Budget::depth(12);
        let mut session = engine.session(&query, &cfg).unwrap();
        let _ = session.next();
        drop(session); // must not hang or leak the worker
    }

    #[test]
    fn zero_budget_is_rejected_structurally() {
        let engine = engine();
        let query = engine.query("{ } → [Channel]").unwrap();
        let mut cfg = run_cfg();
        cfg.synthesis.budget.max_depth = 0;
        assert!(matches!(
            engine.session(&query, &cfg),
            Err(EngineError::Budget(_))
        ));
        cfg.synthesis.budget = Budget { max_candidates: Some(0), ..Budget::depth(7) };
        assert!(matches!(
            engine.session(&query, &cfg),
            Err(EngineError::Budget(_))
        ));
    }

    #[test]
    fn artifact_roundtrip_preserves_ranking() {
        let engine = engine();
        let json = engine.save_analysis().to_json();
        let reloaded = Engine::load_analysis(&json).unwrap();
        let query =
            reloaded.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let result = reloaded.run(&query, &run_cfg());
        let (r_orig, r_re, r_to) = result.ranks_of(&gold()).unwrap();
        assert_eq!((r_orig, r_re, r_to), (2, 1, 1));
    }

    #[test]
    fn artifact_decode_errors_are_structured() {
        assert!(matches!(
            Engine::load_analysis("not json at all"),
            Err(EngineError::Json(_))
        ));
        assert!(matches!(
            Engine::load_analysis("{\"format\": \"something-else\"}"),
            Err(EngineError::Artifact(_))
        ));
    }

    #[test]
    fn analysis_against_service_feeds_synthesis() {
        use apiphany_json::Value;
        use apiphany_spec::CallError;

        struct Mini {
            lib: Library,
        }
        impl Service for Mini {
            fn name(&self) -> &str {
                "mini"
            }
            fn library(&self) -> &Library {
                &self.lib
            }
            fn call(
                &mut self,
                method: &str,
                args: &[(String, Value)],
            ) -> Result<Value, CallError> {
                let ws = fig4_witnesses();
                for w in ws {
                    if w.method == method && w.args == args {
                        return Ok(w.output);
                    }
                }
                // Fall back: exact replay of any same-name witness.
                fig4_witnesses()
                    .into_iter()
                    .find(|w| w.method == method)
                    .map(|w| w.output)
                    .ok_or_else(|| CallError::new("unknown"))
            }
            fn reset(&mut self) {}
        }
        let mut svc = Mini { lib: fig7_library() };
        let engine = Engine::analyze(
            &mut svc,
            &fig4_witnesses(),
            &MiningConfig::default(),
            &AnalyzeConfig { max_rounds: 2, ..AnalyzeConfig::default() },
            &BuildOptions::default(),
        );
        assert!(engine.analysis_stats().unwrap().n_witnesses >= 5);
        // Stats survive the artifact roundtrip.
        let reloaded = Engine::load_analysis(&engine.save_analysis().to_json()).unwrap();
        assert_eq!(reloaded.analysis_stats(), engine.analysis_stats());
        let query =
            engine.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let result = engine.run(&query, &run_cfg());
        assert!(!result.ranked.is_empty());
    }
}
