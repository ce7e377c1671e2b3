//! Type-transition nets (TTNs): the search-space encoding of APIphany's
//! type-directed synthesis (paper §5 and Appendix B.1–B.2).
//!
//! A TTN is a Petri net whose places are *array-oblivious* (downgraded)
//! semantic types and whose transitions are API methods, projections,
//! filters, and copies. Programs of the target DSL correspond to paths from
//! the query's input marking to a final marking with exactly one token at
//! the output type.
//!
//! ```
//! use apiphany_mining::{mine_types, parse_query, MiningConfig};
//! use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
//! use apiphany_ttn::{build_ttn, enumerate_paths, query_markings, BuildOptions, SearchConfig};
//!
//! let semlib = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default());
//! let net = build_ttn(&semlib, &BuildOptions::default());
//! let query = parse_query(&semlib, "{ channel_name: Channel.name } → [Profile.email]").unwrap();
//! let (init, fin) = query_markings(&net, &query).unwrap();
//! let mut n_paths = 0;
//! let cfg = SearchConfig { max_len: 7, max_paths: 100, ..SearchConfig::default() };
//! enumerate_paths(&net, &init, &fin, &cfg, &mut |_path| {
//!     n_paths += 1;
//!     true
//! });
//! assert!(n_paths > 0);
//! ```

mod budget;
mod build;
mod dead;
pub mod ilp;
mod marking;
mod net;
pub mod pool;
mod search;

pub use apiphany_spec::CancelToken;
pub use apiphany_telemetry::Telemetry;
pub use budget::{Budget, InvalidBudget};
pub use build::{build_ttn, query_markings, BuildOptions};
pub use marking::{apply, can_fire, replay, Firing, Marking};
pub use net::{ParamSpec, PlaceId, TransId, TransKind, Transition, Ttn};
pub use search::{
    enumerate_paths, enumerate_search, SearchConfig, SearchEvent, SearchOutcome, SearchReport,
    SearchStats,
};
