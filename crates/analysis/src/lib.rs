//! Static analysis over API specs and type-transition nets.
//!
//! Three passes, all running *before* any search:
//!
//! 1. **Spec lints** ([`lint_openapi`], [`lint_semantics`],
//!    [`lint_service`]): actionable per-operation diagnostics with stable
//!    codes ([`codes`]) — path-template mismatches, duplicate operation
//!    ids, parameter types nothing produces, orphan schemas, operations
//!    the witnessed banks can never enable.
//! 2. **TTN reachability** ([`Reachability`]): a forward fixpoint over
//!    the net's hypergraph computing producible places, dead transitions,
//!    and per-place shortest-production distance; [`Reachability::prune`]
//!    rebuilds the net without its dead transitions while preserving the
//!    DFS event stream bit-identically. A query's [`SearchPlan`] is the
//!    pruned net plus the first level worth searching; [`LiveCore`] keeps
//!    the seedless fixpoint's pruned net once per net, so most queries
//!    plan without a rebuild.
//! 3. **Query pre-check** ([`precheck_query`]): decide output
//!    unreachability statically — with a structured explanation — in
//!    microseconds instead of burning a search budget, and bound the
//!    first feasible iterative-deepening level when the query is
//!    solvable.
//!
//! ```
//! use apiphany_analysis::{precheck_query, Precheck};
//! use apiphany_mining::{mine_types, parse_query, MiningConfig};
//! use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
//! use apiphany_ttn::{build_ttn, BuildOptions};
//!
//! let semlib = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default());
//! let net = build_ttn(&semlib, &BuildOptions::default());
//! let query = parse_query(&semlib, "{ channel_name: Channel.name } → [Profile.email]").unwrap();
//! let Precheck::Feasible { start_len } = precheck_query(&net, &semlib, &query) else {
//!     panic!("the Fig. 7 query is solvable");
//! };
//! assert!(start_len >= 1);
//! ```

mod diag;
mod lint;
mod precheck;
mod reach;

pub use diag::{codes, Diagnostic, DiagnosticSummary, Severity};
pub use lint::{lint_openapi, lint_semantics, lint_service};
pub use precheck::{precheck_query, Precheck};
pub use reach::{LiveCore, Reachability, SearchPlan};

#[cfg(test)]
mod tests {
    use super::*;
    use apiphany_json::parse;
    use apiphany_mining::{mine_types, parse_query, MiningConfig, SemLib};
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
    use apiphany_ttn::{build_ttn, BuildOptions, TransKind, Ttn};

    fn fig7_net() -> (SemLib, Ttn) {
        let semlib = mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default());
        let net = build_ttn(&semlib, &BuildOptions::default());
        (semlib, net)
    }

    #[test]
    fn reachability_marks_everything_live_on_fig7_from_witness_banks() {
        let (semlib, net) = fig7_net();
        let diags = lint_semantics(&semlib, &net);
        // Every Fig. 7 method is witnessed, so AP203 never fires.
        assert!(
            diags.iter().all(|d| d.code != codes::OP_NEVER_FIRES),
            "unexpected AP203: {diags:?}"
        );
    }

    #[test]
    fn distance_is_zero_at_seeds_and_grows_along_productions() {
        let (semlib, net) = fig7_net();
        let query =
            parse_query(&semlib, "{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let seeds = query.params.iter().filter_map(|(_, ty)| net.place_of(ty));
        let reach = Reachability::compute(&net, seeds);
        let seed_place = net.place_of(&query.params[0].1).unwrap();
        assert_eq!(reach.distance(seed_place), Some(0));
        let out = net.place_of(&query.output).unwrap();
        // Channel.name → … → Profile.email takes several firings; the
        // known shortest solution has 6 (see the search tests), and the
        // bound must stay at or below it.
        let d = reach.distance(out).expect("output is reachable");
        assert!(d >= 1, "the output is not a seed");
        assert!(d <= 6, "lower bound exceeded the actual shortest path: {d}");
    }

    #[test]
    fn pruning_keeps_places_and_relative_transition_order() {
        let (semlib, net) = fig7_net();
        let query =
            parse_query(&semlib, "{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let seeds = query.params.iter().filter_map(|(_, ty)| net.place_of(ty));
        let reach = Reachability::compute(&net, seeds);
        let pruned = reach.prune(&net);
        assert_eq!(pruned.n_places(), net.n_places());
        assert_eq!(
            pruned.n_transitions(),
            net.n_transitions() - reach.n_dead(),
        );
        // The surviving transitions appear in their original order.
        let live_kinds: Vec<_> = net
            .transitions()
            .filter(|(tid, _)| reach.live(*tid))
            .map(|(_, t)| t.kind.clone())
            .collect();
        let pruned_kinds: Vec<_> = pruned.transitions().map(|(_, t)| t.kind.clone()).collect();
        assert_eq!(live_kinds, pruned_kinds);
    }

    #[test]
    fn precheck_rejects_unreachable_output_with_explanation() {
        use apiphany_spec::{LibraryBuilder, SynTy};
        // make_thing needs a secret nothing produces, so Thing is
        // unreachable from an empty input record.
        let lib = LibraryBuilder::new("demo")
            .object("Thing", |o| o.field("id", SynTy::Str))
            .method("make_thing", |m| {
                m.param("secret", SynTy::Str).returns(SynTy::object("Thing"))
            })
            .build();
        let semlib = mine_types(&lib, &[], &MiningConfig::default());
        let net = build_ttn(&semlib, &BuildOptions::default());
        let query = parse_query(&semlib, "{} → Thing").unwrap();
        match precheck_query(&net, &semlib, &query) {
            Precheck::Unreachable { missing_types, blocked_ops } => {
                assert_eq!(blocked_ops, vec!["make_thing".to_string()]);
                assert!(
                    missing_types.iter().any(|t| t.contains("secret")),
                    "the unproducible secret type should be named: {missing_types:?}"
                );
            }
            Precheck::Feasible { .. } => panic!("Thing from {{}} must be unreachable"),
        }
    }

    #[test]
    fn fig7_is_fully_reachable_from_no_inputs() {
        // c_list needs no arguments, so from an empty input record the
        // whole Fig. 7 net unfolds: the pre-check must NOT reject.
        let (semlib, net) = fig7_net();
        let query = parse_query(&semlib, "{} → User").unwrap();
        assert!(matches!(
            precheck_query(&net, &semlib, &query),
            Precheck::Feasible { .. }
        ));
    }

    #[test]
    fn precheck_accepts_the_fig7_query_with_a_nontrivial_bound() {
        let (semlib, net) = fig7_net();
        let query =
            parse_query(&semlib, "{ channel_name: Channel.name } → [Profile.email]").unwrap();
        match precheck_query(&net, &semlib, &query) {
            Precheck::Feasible { start_len } => {
                assert!((1..=6).contains(&start_len), "bound {start_len}");
                assert!(start_len > 1, "several firings separate the input from the output");
            }
            other => panic!("expected feasible, got {other:?}"),
        }
    }

    #[test]
    fn openapi_lints_fire_on_crafted_defects() {
        let doc = parse(
            r#"{
              "paths": {
                "/users/{id}": {
                  "get": {
                    "operationId": "get_user",
                    "parameters": [
                      {"name": "verbose", "in": "path", "schema": {"type": "string"}}
                    ]
                  }
                },
                "/users.list": {
                  "get": {"operationId": "get_user"}
                }
              }
            }"#,
        )
        .unwrap();
        let diags = lint_openapi(&doc);
        let codes_seen: Vec<&str> = diags.iter().map(|d| d.code.as_str()).collect();
        // {id} undeclared (error), 'verbose' not in template (warning),
        // duplicate operationId (error).
        assert_eq!(
            codes_seen,
            vec![
                codes::PATH_PARAM_MISMATCH,
                codes::PATH_PARAM_MISMATCH,
                codes::DUPLICATE_OPERATION_ID
            ],
            "{diags:?}"
        );
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[1].severity, Severity::Warning);
        let summary = DiagnosticSummary::of(&diags);
        assert_eq!((summary.errors, summary.warnings), (2, 1));
    }

    #[test]
    fn orphan_schema_and_unproduced_param_are_reported() {
        use apiphany_spec::{LibraryBuilder, SynTy};
        let lib = LibraryBuilder::new("demo")
            .object("Used", |o| o.field("id", SynTy::Str))
            .object("Orphan", |o| o.field("x", SynTy::Int))
            .method("make", |m| m.returns(SynTy::object("Used")))
            .method("take", |m| {
                m.param("used_id", SynTy::Str).param("count", SynTy::Int).returns(SynTy::Bool)
            })
            .build();
        let semlib = mine_types(&lib, &[], &MiningConfig::default());
        let net = build_ttn(&semlib, &BuildOptions::default());
        let diags = lint_semantics(&semlib, &net);
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::ORPHAN_SCHEMA && d.location == "Orphan"),
            "{diags:?}"
        );
        // With no witnesses every location is its own unproduced
        // singleton type, so 'take' trips AP201.
        assert!(
            diags
                .iter()
                .any(|d| d.code == codes::PARAM_NEVER_PRODUCED && d.location == "take"),
            "{diags:?}"
        );
        // And with empty banks nothing can fire: AP203 on both methods.
        assert!(
            diags.iter().any(|d| d.code == codes::OP_NEVER_FIRES),
            "{diags:?}"
        );
    }

    #[test]
    fn diagnostics_roundtrip_through_json() {
        let d = Diagnostic::new(codes::ORPHAN_SCHEMA, Severity::Warning, "X", "unused");
        let read = |v: apiphany_json::Value| {
            Diagnostic::from_reader(&mut apiphany_json::Reader::new(&v.to_json())).unwrap()
        };
        assert_eq!(read(d.to_value()), Some(d.clone()));
        assert!(read(apiphany_json::Value::obj::<&str>([])).is_none());
        assert_eq!(d.to_string(), "warning [AP202] X: unused");
    }

    #[test]
    fn dead_transition_listing_matches_liveness() {
        let (_, net) = fig7_net();
        let reach = Reachability::compute(&net, std::iter::empty());
        // Zero-required transitions are always live; every live
        // transition has all required inputs producible.
        for (tid, t) in net.transitions() {
            if t.inputs.is_empty() {
                assert!(reach.live(tid), "{:?}", t.kind);
            }
            if reach.live(tid) {
                assert!(t.inputs.iter().all(|&(q, _)| reach.producible(q)), "{:?}", t.kind);
            } else {
                assert!(t.inputs.iter().any(|&(q, _)| !reach.producible(q)), "{:?}", t.kind);
            }
        }
        let dead: Vec<_> = reach.dead_transitions(&net).collect();
        assert_eq!(dead.len(), reach.n_dead());
        // c_list takes no inputs: it stays live even from nothing.
        assert!(net
            .transitions()
            .any(|(tid, t)| matches!(&t.kind, TransKind::Method(m) if m == "c_list")
                && reach.live(tid)));
    }
}
