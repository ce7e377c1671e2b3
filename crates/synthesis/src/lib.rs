//! Type-directed program synthesis (paper §5): from a mined semantic
//! library and a semantic type query to a stream of well-typed `λ_A`
//! candidate programs.
//!
//! The pipeline is exactly the paper's Fig. 10:
//!
//! 1. `BuildTTN(Λ̂)` — done once per library by [`Synthesizer::new`],
//!    which also prunes the net to its live core for the queries'
//!    reachability stage;
//! 2. `Paths(N, I, F)` — iterative-deepening path enumeration
//!    (`apiphany_ttn`);
//! 3. `Progs(π)` — all argument assignments of each path
//!    ([`enumerate_programs`]);
//! 4. `Lift(Λ̂, ŝ, E)` — insertion of monadic binds and returns
//!    ([`lift`]);
//! 5. deduplication by canonical form
//!    ([`apiphany_lang::anf::canonicalize`]);
//! 6. the semantic type check (Fig. 16) as the final gate
//!    ([`type_check`]), run once per new canonical form: a lifted
//!    program's verdict depends only on its canonical form, so a
//!    repeated form reuses the first one's verdict.
//!
//! Steps 3–6 work on numbered variables and borrowed types; strings are
//! allocated only for the lifted [`Program`](apiphany_lang::Program) and
//! its canonical form.
//!
//! ```
//! use apiphany_mining::{mine_types, parse_query, MiningConfig};
//! use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
//! use apiphany_synth::{Budget, CancelToken, SynthEvent, Synthesizer, SynthesisConfig};
//! use apiphany_ttn::BuildOptions;
//!
//! let semlib = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default());
//! let synth = Synthesizer::new(semlib, &BuildOptions::default());
//! let query = parse_query(synth.semlib(), "{ channel_name: Channel.name } → [Profile.email]")
//!     .unwrap();
//! let cfg = SynthesisConfig { budget: Budget::depth(7), ..SynthesisConfig::default() };
//! let mut candidates = Vec::new();
//! synth.synthesize(&query, &cfg, &CancelToken::new(), &mut |event| {
//!     if let SynthEvent::Candidate(c) = event {
//!         candidates.push(c);
//!     }
//!     true
//! });
//! assert!(!candidates.is_empty());
//! ```
//!
//! Search limits come from the unified [`Budget`] (wall-clock, candidate
//! cap, path depth) and a [`CancelToken`] provides cooperative
//! cancellation — both re-exported from `apiphany_ttn`.

mod engine;
mod lift;
mod progs;
mod ty;
mod typecheck;

pub use apiphany_ttn::{Budget, CancelToken, InvalidBudget};
pub use engine::{Candidate, Outcome, SynthEvent, SynthesisConfig, SynthesisStats, Synthesizer};
pub use lift::{lift, LiftError};
pub use progs::{enumerate_programs, AStmt, AnfProg, ArgValue, Var};
pub use typecheck::{type_check, TypeError};
