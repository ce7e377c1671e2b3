//! Retrospective execution (RE) and RE-based ranking — the third
//! contribution of the APIphany paper (PLDI 2022, §6).
//!
//! RE simulates candidate programs by replaying previously collected
//! witnesses instead of calling the live API (which would be rate-limited
//! and side-effecting). Inputs are sampled lazily so that guards are
//! biased toward success; calls replay exact witness matches first and
//! fall back to approximate matches (same method and argument names).
//! Ranking runs RE several times per candidate and orders candidates by
//! AST size plus failure/emptiness/multiplicity penalties.
//!
//! ```
//! use apiphany_mining::{mine_types, parse_query, MiningConfig};
//! use apiphany_re::{cost_of, CostParams, ReContext};
//! use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
//! use apiphany_lang::parse_program;
//!
//! let witnesses = fig4_witnesses();
//! let semlib = mine_types(&fig7_library(), &witnesses, &MiningConfig::default());
//! let ctx = ReContext::new(&semlib, &witnesses);
//! let query = parse_query(&semlib, "{ channel_name: Channel.name } → [Profile.email]").unwrap();
//! let program = parse_program(
//!     r"\channel_name → {
//!         c ← c_list()
//!         if c.name = channel_name
//!         uid ← c_members(channel=c.id)
//!         let u = u_info(user=uid)
//!         return u.profile.email
//!     }",
//! )
//! .unwrap();
//! let cost = cost_of(&ctx, &program, &query, &CostParams::default());
//! assert_eq!(cost.n_failed, 0);
//! ```

mod exec;
mod rank;

pub use exec::{ReContext, ReFailure, WitnessIndex};
pub use rank::{cost_of, Cost, CostParams, RankedEntry, Ranker};
