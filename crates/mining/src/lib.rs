//! Type mining for RESTful APIs — the first contribution of the APIphany
//! paper (PLDI 2022, §4 and Appendix A/D).
//!
//! Given a syntactic library `Λ` (an OpenAPI spec) and a set of witnesses
//! (observed successful calls), type mining produces a *semantic library*
//! `Λ̂` in which every primitive-typed location carries a fine-grained
//! loc-set type: locations that share values anywhere in the witness set
//! are merged into one type via a disjoint-set over `(location, value)`
//! pairs.
//!
//! The crate also implements the paper's top-level analysis loop
//! ([`analyze_api`]): alternate mining with type-directed random test
//! generation against a sandboxed [`apiphany_spec::Service`] until
//! convergence, exactly as described in Appendix D.
//!
//! # Example
//!
//! ```
//! use apiphany_mining::{mine_types, MiningConfig};
//! use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
//! use apiphany_spec::Loc;
//!
//! let semlib = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default());
//! // The paper's Fig. 4: u_info's parameter and User.id share a value, so
//! // they were merged into the same semantic type.
//! let is_obj = |n: &str| semlib.lib.is_object(n);
//! let a = semlib.group_of(&Loc::parse("u_info.in.user", is_obj).unwrap());
//! let b = semlib.group_of(&Loc::parse("User.id", is_obj).unwrap());
//! assert_eq!(a, b);
//! ```

mod analyze;
mod codec;
mod dsu;
mod infer;
mod mine;
mod query;
mod sample;
mod semlib;

pub use analyze::{analyze_api, generate_tests, AnalysisResult, AnalyzeConfig, AnalyzeStats};
pub use dsu::{PairDsu, ScalarKey};
pub use infer::{canonical_scalar_loc, fold, lookup_ctx, lookup_step, Folded};
pub use mine::{mine_types, mine_types_cancellable, Granularity, MiningConfig};
pub use query::{parse_query, parse_sem_ty, Query, QueryParseError};
pub use sample::{sample, sample_value, Sample};
pub use semlib::{GroupData, SemLib, SemMethodSig};
