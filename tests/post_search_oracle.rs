//! Differential oracle for the post-search stages. `canonicalize` and
//! `type_check` were rewritten to work on numbered variables, a binding
//! stack and borrowed types. The modules at the end of this file keep
//! the previous implementations verbatim, as references. The new code
//! must give equal canonical forms, and equal verdicts with equal
//! messages, on every program lifted from every Table 2 query up to
//! depth 5, on the 32 gold programs, and on the random programs of
//! `proptest_invariants.rs`. Two ill-typed relatives of each lifted
//! program (binds turned into `let`s, `return`s dropped) take the
//! checker down its error paths.
//!
//! The last test checks the synthesizer's pipeline order: it dedupes by
//! canonical form first and type-checks only new forms. On every Table 2
//! query at depth 4, 3.5 at depth 5 (which has ill-typed programs) and
//! the Fig. 7 query at depth 7, its candidates and counts must equal a
//! composition that type-checks every program before the dedupe.

use std::collections::HashSet;
use std::sync::OnceLock;

use apiphany_repro::benchmarks::{
    benchmark, benchmarks, default_analyze_config, prepare_api, Api, Prepared,
};
use apiphany_repro::core::Engine;
use apiphany_repro::lang::anf::{canonicalize, AnfProgram};
use apiphany_repro::lang::{parse_program, Expr, Program};
use apiphany_repro::mining::{parse_query, Query, SemLib};
use apiphany_repro::spec::fixtures::{fig4_witnesses, fig7_library};
use apiphany_repro::synth::{
    enumerate_programs, lift, type_check, Budget, CancelToken, SynthEvent, SynthesisConfig,
};
use apiphany_repro::ttn::{enumerate_paths, query_markings, PlaceId, SearchConfig};
use proptest::prelude::*;

/// The three APIs, prepared once for every test in this file.
fn prepared() -> &'static [Prepared] {
    static PREPARED: OnceLock<Vec<Prepared>> = OnceLock::new();
    PREPARED.get_or_init(|| {
        Api::ALL.into_iter().map(|api| prepare_api(api, &default_analyze_config())).collect()
    })
}

fn engine_of(api: Api) -> &'static Engine {
    &prepared().iter().find(|p| p.api == api).expect("every API is prepared").engine
}

/// Asserts that the library and the reference agree on `program`.
fn assert_agrees(semlib: &SemLib, query: &Query, program: &Program) {
    let new = canonicalize(program);
    let old = reference_canonicalize::canonicalize(program);
    assert!(new.free.is_empty(), "a closed program has no free leaves:\n{program}");
    assert_eq!(
        (new.n_params, &new.stmts, new.result),
        (old.n_params, &old.stmts, old.result),
        "canonical forms differ:\n{program}"
    );
    assert_eq!(
        type_check(semlib, program, query),
        reference_type_check::type_check(semlib, program, query),
        "type verdicts differ:\n{program}"
    );
}

/// Ill-typed relatives of a lifted program, for the checker's error
/// paths: every bind turned into a `let`, and every `return` dropped
/// (which leaves alias `let`s).
fn variants(program: &Program) -> [Program; 2] {
    fn binds_as_lets(e: &Expr) -> Expr {
        match e {
            Expr::Bind(x, rhs, body) => {
                Expr::Let(x.clone(), Box::new(binds_as_lets(rhs)), Box::new(binds_as_lets(body)))
            }
            Expr::Let(x, rhs, body) => {
                Expr::Let(x.clone(), Box::new(binds_as_lets(rhs)), Box::new(binds_as_lets(body)))
            }
            Expr::Guard(l, r, body) => Expr::Guard(l.clone(), r.clone(), Box::new(binds_as_lets(body))),
            other => other.clone(),
        }
    }
    fn no_returns(e: &Expr) -> Expr {
        match e {
            Expr::Return(inner) => no_returns(inner),
            Expr::Let(x, rhs, body) => {
                Expr::Let(x.clone(), Box::new(no_returns(rhs)), Box::new(no_returns(body)))
            }
            Expr::Bind(x, rhs, body) => {
                Expr::Bind(x.clone(), Box::new(no_returns(rhs)), Box::new(no_returns(body)))
            }
            Expr::Guard(l, r, body) => Expr::Guard(l.clone(), r.clone(), Box::new(no_returns(body))),
            other => other.clone(),
        }
    }
    [
        Program { params: program.params.clone(), body: binds_as_lets(&program.body) },
        Program { params: program.params.clone(), body: no_returns(&program.body) },
    ]
}

/// Runs `each` on every program `Progs` and lift produce for `query` on
/// paths up to `depth`, in search order, and returns the number of
/// programs (lift failures included).
fn for_each_lifted(
    engine: &Engine,
    query: &Query,
    depth: usize,
    each: &mut dyn FnMut(Option<Program>, usize),
) -> usize {
    let net = engine.synthesizer().net();
    let Some((init, fin)) = query_markings(net, query) else { return 0 };
    let params: Vec<(String, PlaceId)> = query
        .params
        .iter()
        .map(|(n, t)| (n.clone(), net.place_of(t).expect("query_markings resolved it")))
        .collect();
    let cfg = SearchConfig { max_len: depth, ..SearchConfig::default() };
    let per_path = SynthesisConfig::default().programs_per_path;
    let mut n = 0;
    enumerate_paths(net, &init, &fin, &cfg, &mut |path| {
        enumerate_programs(net, path, &params, per_path, &mut |anf| {
            n += 1;
            each(lift(engine.semlib(), query, anf).ok(), path.len());
            true
        });
        true
    });
    n
}

#[test]
fn lifted_table2_programs_match_the_reference() {
    let mut programs = 0;
    let mut errors: HashSet<String> = HashSet::new();
    for bench in benchmarks() {
        let engine = engine_of(bench.api);
        let query = engine.query(bench.query).expect("Table 2 queries resolve");
        programs += for_each_lifted(engine, &query, 5, &mut |lifted, _| {
            let lifted = lifted.expect("Table 2 programs lift");
            assert_agrees(engine.semlib(), &query, &lifted);
            for variant in variants(&lifted) {
                assert_agrees(engine.semlib(), &query, &variant);
                if let Err(e) = type_check(engine.semlib(), &variant, &query) {
                    errors.insert(e.message.split(' ').take(2).collect::<Vec<_>>().join(" "));
                }
            }
        });
    }
    assert_eq!(programs, 1748, "Table 2 up to depth 5");
    // The variants reach the checker's error paths.
    assert!(errors.len() >= 4, "{errors:?}");
}

#[test]
fn golds_match_the_reference() {
    for bench in benchmarks() {
        let engine = engine_of(bench.api);
        let query = engine.query(bench.query).expect("Table 2 queries resolve");
        let gold = parse_program(bench.gold).expect("golds parse");
        assert_agrees(engine.semlib(), &query, &gold);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `canonicalization_is_stable`'s programs, parsed and re-parsed.
    #[test]
    fn random_programs_match_the_reference(rename in "[a-z]{2,8}") {
        if matches!(rename.as_str(), "let" | "if" | "return") {
            return Ok(());
        }
        let semlib = apiphany_repro::mining::mine_types(
            &fig7_library(),
            &fig4_witnesses(),
            &apiphany_repro::mining::MiningConfig::default(),
        );
        let query = parse_query(&semlib, &format!("{{ {rename}: Channel.name }} → [Channel.id]"))
            .unwrap();
        let text = format!(
            "\\{rename} → {{\n  c ← c_list()\n  if c.name = {rename}\n  return c.id\n}}"
        );
        let p = parse_program(&text).unwrap();
        let q = parse_program(&p.to_string()).unwrap();
        assert_agrees(&semlib, &query, &p);
        assert_agrees(&semlib, &query, &q);
        prop_assert_eq!(type_check(&semlib, &p, &query), Ok(()));
    }
}

/// A candidate as the test compares it.
type Cand = (AnfProgram, usize, usize);

/// Candidates and `[programs, lift_failures, ill_typed, duplicates,
/// candidates]`, type-checking every program before the dedupe.
fn check_first(engine: &Engine, query: &Query, depth: usize) -> (Vec<Cand>, [usize; 5]) {
    let mut seen: HashSet<AnfProgram> = HashSet::new();
    let mut out: Vec<Cand> = Vec::new();
    let [mut lift_failures, mut ill_typed, mut duplicates] = [0; 3];
    let programs = for_each_lifted(engine, query, depth, &mut |lifted, path_len| {
        let Some(lifted) = lifted else {
            lift_failures += 1;
            return;
        };
        if type_check(engine.semlib(), &lifted, query).is_err() {
            ill_typed += 1;
            return;
        }
        let canonical = canonicalize(&lifted);
        if !seen.insert(canonical.clone()) {
            duplicates += 1;
            return;
        }
        out.push((canonical, out.len(), path_len));
    });
    let n = out.len();
    (out, [programs, lift_failures, ill_typed, duplicates, n])
}

/// The same through `Synthesizer::synthesize`.
fn synthesized(engine: &Engine, query: &Query, depth: usize) -> (Vec<Cand>, [usize; 5]) {
    let cfg = SynthesisConfig { budget: Budget::depth(depth), ..SynthesisConfig::default() };
    let mut out: Vec<Cand> = Vec::new();
    let stats = engine.synthesizer().synthesize(query, &cfg, &CancelToken::new(), &mut |e| {
        if let SynthEvent::Candidate(c) = e {
            out.push((c.canonical, c.index, c.path_len));
        }
        true
    });
    let counts =
        [stats.programs, stats.lift_failures, stats.ill_typed, stats.duplicates, stats.candidates];
    (out, counts)
}

#[test]
fn dedupe_before_type_check_matches_check_first() {
    let mut runs: Vec<(String, &Engine, Query, usize)> = Vec::new();
    for bench in benchmarks() {
        let engine = engine_of(bench.api);
        let query = engine.query(bench.query).expect("Table 2 queries resolve");
        runs.push((bench.id.to_string(), engine, query, 4));
    }
    let b = benchmark("3.5").expect("Table 2 has 3.5");
    let engine = engine_of(b.api);
    runs.push(("3.5".into(), engine, engine.query(b.query).unwrap(), 5));
    let fig7 = Engine::from_witnesses(fig7_library(), fig4_witnesses());
    let query = fig7.query("{ channel_name: Channel.name } → [Profile.email]").unwrap();
    runs.push(("Fig. 7".into(), &fig7, query, 7));

    let mut ill_typed = 0;
    for (id, engine, query, depth) in &runs {
        let (want, want_counts) = check_first(engine, query, *depth);
        let (got, got_counts) = synthesized(engine, query, *depth);
        assert_eq!(got_counts, want_counts, "{id} at depth {depth}");
        assert_eq!(got, want, "{id} at depth {depth}");
        ill_typed += want_counts[2];
    }
    assert!(ill_typed > 0, "some run repeats an ill-typed form");
}

/// The parent's `canonicalize`: String names, a cloned map per binder,
/// and every key rebuilt in every scheduling round.
mod reference_canonicalize {
    use std::collections::HashMap;

    use apiphany_repro::lang::anf::AnfStmt;
    use apiphany_repro::lang::{Expr, Program};

    /// A canonicalized, alpha-renamed ANF program.
    ///
    /// Variables are `usize` indices: parameters are `0..n_params`, and each
    /// statement that binds a value assigns the next index.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    pub struct AnfProgram {
        /// Number of lambda parameters.
        pub n_params: usize,
        /// Statements in canonical schedule order.
        pub stmts: Vec<AnfStmt>,
        /// The variable returned by the program.
        pub result: usize,
    }

    /// Computes the canonical ANF form of a program.
    pub fn canonicalize(program: &Program) -> AnfProgram {
        let flat = Flattener::run(program);
        schedule(flat)
    }

    // ---------------------------------------------------------------------------
    // Phase 1: flattening to named ANF.

    #[derive(Debug, Clone)]
    enum FlatRhs {
        Call(String, Vec<(String, String)>),
        Proj(String, String),
        Record(Vec<(String, String)>),
        Ret(String),
    }

    #[derive(Debug, Clone)]
    enum FlatStmt {
        Let(String, FlatRhs),
        Bind(String, String),
        Guard(String, String),
    }

    struct FlatProgram {
        params: Vec<String>,
        stmts: Vec<FlatStmt>,
        result: String,
    }

    struct Flattener {
        stmts: Vec<FlatStmt>,
        fresh: usize,
    }

    impl Flattener {
        fn run(program: &Program) -> FlatProgram {
            let mut f = Flattener { stmts: Vec::new(), fresh: 0 };
            let mut env: HashMap<String, String> = HashMap::new();
            for p in &program.params {
                env.insert(p.clone(), format!("%p_{p}"));
            }
            let result = f.expr(&program.body, &env);
            FlatProgram {
                params: program.params.iter().map(|p| format!("%p_{p}")).collect(),
                stmts: f.stmts,
                result,
            }
        }

        fn fresh(&mut self) -> String {
            let name = format!("%t{}", self.fresh);
            self.fresh += 1;
            name
        }

        fn emit(&mut self, rhs: FlatRhs) -> String {
            let dst = self.fresh();
            self.stmts.push(FlatStmt::Let(dst.clone(), rhs));
            dst
        }

        /// Flattens `e`, returning the variable holding its value.
        fn expr(&mut self, e: &Expr, env: &HashMap<String, String>) -> String {
            match e {
                Expr::Var(x) => env.get(x).cloned().unwrap_or_else(|| format!("%free_{x}")),
                Expr::Proj(base, label) => {
                    let b = self.expr(base, env);
                    self.emit(FlatRhs::Proj(b, label.clone()))
                }
                Expr::Call(method, args) => {
                    let flat_args: Vec<(String, String)> =
                        args.iter().map(|(k, v)| (k.clone(), self.expr(v, env))).collect();
                    self.emit(FlatRhs::Call(method.clone(), flat_args))
                }
                Expr::Record(fields) => {
                    let flat: Vec<(String, String)> =
                        fields.iter().map(|(k, v)| (k.clone(), self.expr(v, env))).collect();
                    self.emit(FlatRhs::Record(flat))
                }
                Expr::Return(inner) => {
                    let v = self.expr(inner, env);
                    self.emit(FlatRhs::Ret(v))
                }
                Expr::Let(x, rhs, body) => {
                    let v = self.expr(rhs, env);
                    let mut env2 = env.clone();
                    env2.insert(x.clone(), v);
                    self.expr(body, &env2)
                }
                Expr::Bind(x, rhs, body) => {
                    let src = self.expr(rhs, env);
                    let dst = self.fresh();
                    self.stmts.push(FlatStmt::Bind(dst.clone(), src));
                    let mut env2 = env.clone();
                    env2.insert(x.clone(), dst);
                    self.expr(body, &env2)
                }
                Expr::Guard(lhs, rhs, body) => {
                    let l = self.expr(lhs, env);
                    let r = self.expr(rhs, env);
                    self.stmts.push(FlatStmt::Guard(l, r));
                    self.expr(body, env)
                }
            }
        }
    }

    // ---------------------------------------------------------------------------
    // Phase 2 + 3: canonical scheduling and renaming.

    /// A totally ordered key describing a ready statement with all of its
    /// operands already canonically numbered.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct Key {
        kind: u8,
        head: String,
        operands: Vec<(String, usize)>,
    }

    fn schedule(flat: FlatProgram) -> AnfProgram {
        // Canonical index assignment: params first.
        let mut canon: HashMap<String, usize> = HashMap::new();
        for (i, p) in flat.params.iter().enumerate() {
            canon.insert(p.clone(), i);
        }
        let mut next = flat.params.len();

        let uses = |s: &FlatStmt| -> Vec<String> {
            match s {
                FlatStmt::Let(_, FlatRhs::Call(_, args)) => {
                    args.iter().map(|(_, v)| v.clone()).collect()
                }
                FlatStmt::Let(_, FlatRhs::Proj(b, _)) => vec![b.clone()],
                FlatStmt::Let(_, FlatRhs::Record(fs)) => fs.iter().map(|(_, v)| v.clone()).collect(),
                FlatStmt::Let(_, FlatRhs::Ret(v)) => vec![v.clone()],
                FlatStmt::Bind(_, src) => vec![src.clone()],
                FlatStmt::Guard(l, r) => vec![l.clone(), r.clone()],
            }
        };

        let mut remaining: Vec<FlatStmt> = flat.stmts;
        let mut out: Vec<AnfStmt> = Vec::new();

        while !remaining.is_empty() {
            // Find all ready statements and compute their keys.
            let mut best: Option<(Key, usize)> = None;
            for (i, s) in remaining.iter().enumerate() {
                if !uses(s).iter().all(|v| canon.contains_key(v)) {
                    continue;
                }
                let key = key_of(s, &canon);
                match &best {
                    Some((bk, _)) if *bk <= key => {}
                    _ => best = Some((key, i)),
                }
            }
            let (_, idx) = best.expect("dependency cycle in ANF statements (impossible)");
            let stmt = remaining.remove(idx);
            // Assign a canonical index to the bound variable (if any) and emit.
            match stmt {
                FlatStmt::Let(dst, rhs) => {
                    let d = next;
                    next += 1;
                    canon.insert(dst, d);
                    out.push(match rhs {
                        FlatRhs::Call(m, args) => {
                            let mut args: Vec<(String, usize)> =
                                args.into_iter().map(|(k, v)| (k, canon[&v])).collect();
                            args.sort();
                            AnfStmt::Call { dst: d, method: m, args }
                        }
                        FlatRhs::Proj(b, l) => AnfStmt::Proj { dst: d, base: canon[&b], label: l },
                        FlatRhs::Record(fs) => {
                            let mut fields: Vec<(String, usize)> =
                                fs.into_iter().map(|(k, v)| (k, canon[&v])).collect();
                            fields.sort();
                            AnfStmt::Record { dst: d, fields }
                        }
                        FlatRhs::Ret(v) => AnfStmt::Ret { dst: d, val: canon[&v] },
                    });
                }
                FlatStmt::Bind(dst, src) => {
                    let d = next;
                    next += 1;
                    let s = canon[&src];
                    canon.insert(dst, d);
                    out.push(AnfStmt::Bind { dst: d, src: s });
                }
                FlatStmt::Guard(l, r) => {
                    let (a, b) = (canon[&l], canon[&r]);
                    out.push(AnfStmt::Guard { lhs: a.min(b), rhs: a.max(b) });
                }
            }
        }

        let result = *canon
            .get(&flat.result)
            .unwrap_or(&usize::MAX); // free/unbound result: sentinel, never equal
        AnfProgram { n_params: flat.params.len(), stmts: out, result }
    }

    fn key_of(s: &FlatStmt, canon: &HashMap<String, usize>) -> Key {
        match s {
            FlatStmt::Let(_, FlatRhs::Call(m, args)) => {
                let mut operands: Vec<(String, usize)> =
                    args.iter().map(|(k, v)| (k.clone(), canon[v])).collect();
                operands.sort();
                Key { kind: 0, head: m.clone(), operands }
            }
            FlatStmt::Let(_, FlatRhs::Proj(b, l)) => {
                Key { kind: 1, head: l.clone(), operands: vec![(String::new(), canon[b])] }
            }
            FlatStmt::Let(_, FlatRhs::Record(fs)) => {
                let mut operands: Vec<(String, usize)> =
                    fs.iter().map(|(k, v)| (k.clone(), canon[v])).collect();
                operands.sort();
                Key { kind: 2, head: String::new(), operands }
            }
            FlatStmt::Let(_, FlatRhs::Ret(v)) => {
                Key { kind: 3, head: String::new(), operands: vec![(String::new(), canon[v])] }
            }
            FlatStmt::Bind(_, src) => {
                Key { kind: 4, head: String::new(), operands: vec![(String::new(), canon[src])] }
            }
            FlatStmt::Guard(l, r) => {
                let (a, b) = (canon[l], canon[r]);
                Key {
                    kind: 5,
                    head: String::new(),
                    operands: vec![(String::new(), a.min(b)), (String::new(), a.max(b))],
                }
            }
        }
    }
}

/// The parent's `type_check`: a `HashMap` environment cloned at every
/// binder, and owned types throughout.
mod reference_type_check {
    use std::collections::HashMap;

    use apiphany_repro::lang::{Expr, Program};
    use apiphany_repro::mining::{Query, SemLib};
    use apiphany_repro::spec::{SemRecordTy, SemTy};
    use apiphany_repro::synth::TypeError;

    fn err<T>(message: impl Into<String>) -> Result<T, TypeError> {
        Err(TypeError { message: message.into() })
    }

    /// Checks `Λ̂ ⊢ E :: ŝ` for the query type `ŝ` (T-Top), with the output
    /// array-adjusted exactly as in lifting.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] describing the first violation found.
    pub fn type_check(semlib: &SemLib, program: &Program, query: &Query) -> Result<(), TypeError> {
        if program.params.len() != query.params.len() {
            return err("parameter count differs from query");
        }
        let mut env: HashMap<String, SemTy> = HashMap::new();
        for (name, (qname, ty)) in program.params.iter().zip(&query.params) {
            if name != qname {
                return err(format!("parameter {name} does not match query parameter {qname}"));
            }
            env.insert(name.clone(), ty.clone());
        }
        let expected = match &query.output {
            t @ SemTy::Array(_) => t.clone(),
            t => SemTy::array(t.clone()),
        };
        let actual = check(semlib, &env, &program.body)?;
        if actual != expected {
            return err(format!(
                "program has type {}, query expects {}",
                semlib.display_ty(&actual),
                semlib.display_ty(&expected)
            ));
        }
        Ok(())
    }

    /// Infers the semantic type of an expression (the rules of Fig. 16).
    pub fn check(
        semlib: &SemLib,
        env: &HashMap<String, SemTy>,
        e: &Expr,
    ) -> Result<SemTy, TypeError> {
        match e {
            // T-Var.
            Expr::Var(x) => match env.get(x) {
                Some(t) => Ok(t.clone()),
                None => err(format!("unbound variable {x}")),
            },
            // T-Proj, with T-Obj folding object names to their definitions.
            Expr::Proj(base, label) => {
                let t = check(semlib, env, base)?;
                match t {
                    SemTy::Object(o) => semlib
                        .objects
                        .get(&o)
                        .and_then(|r| r.field(label))
                        .map(|f| f.ty.clone())
                        .map_or_else(|| err(format!("object {o} has no field {label}")), Ok),
                    SemTy::Record(r) => r
                        .field(label)
                        .map(|f| f.ty.clone())
                        .map_or_else(|| err(format!("record has no field {label}")), Ok),
                    other => err(format!(
                        "projection .{label} from non-object type {}",
                        semlib.display_ty(&other)
                    )),
                }
            }
            // T-Call: all required arguments present, all provided arguments
            // declared with matching types.
            Expr::Call(method, args) => {
                let Some(sig) = semlib.methods.get(method) else {
                    return err(format!("unknown method {method}"));
                };
                for field in sig.params.required() {
                    if !args.iter().any(|(n, _)| n == &field.name) {
                        return err(format!(
                            "call to {method} is missing required argument {}",
                            field.name
                        ));
                    }
                }
                for (name, value) in args {
                    let Some(field) = sig.params.field(name) else {
                        return err(format!("{method} has no parameter {name}"));
                    };
                    check_against(semlib, env, value, &field.ty)?;
                }
                Ok(sig.response.clone())
            }
            // T-Let.
            Expr::Let(x, rhs, body) => {
                let t = check(semlib, env, rhs)?;
                let mut env2 = env.clone();
                env2.insert(x.clone(), t);
                check(semlib, &env2, body)
            }
            // T-Bind: both sides must have array types.
            Expr::Bind(x, rhs, body) => {
                let t = check(semlib, env, rhs)?;
                let SemTy::Array(elem) = t else {
                    return err(format!(
                        "monadic bind over non-array type {}",
                        semlib.display_ty(&t)
                    ));
                };
                let mut env2 = env.clone();
                env2.insert(x.clone(), *elem);
                let body_t = check(semlib, &env2, body)?;
                match body_t {
                    SemTy::Array(_) => Ok(body_t),
                    other => err(format!(
                        "bind body must have array type, got {}",
                        semlib.display_ty(&other)
                    )),
                }
            }
            // T-If: operands share one loc-set type; body is an array.
            Expr::Guard(lhs, rhs, body) => {
                let lt = check(semlib, env, lhs)?;
                let rt = check(semlib, env, rhs)?;
                if !lt.is_group() || lt != rt {
                    return err(format!(
                        "guard compares {} with {}",
                        semlib.display_ty(&lt),
                        semlib.display_ty(&rt)
                    ));
                }
                let body_t = check(semlib, env, body)?;
                match body_t {
                    SemTy::Array(_) => Ok(body_t),
                    other => err(format!(
                        "guard body must have array type, got {}",
                        semlib.display_ty(&other)
                    )),
                }
            }
            // T-Ret.
            Expr::Return(inner) => Ok(SemTy::array(check(semlib, env, inner)?)),
            // Record literals are only typeable against a declared record (see
            // `check_against`); a free-standing record gets a structural type.
            Expr::Record(fields) => {
                let mut r = SemRecordTy::default();
                for (name, v) in fields {
                    r.fields.push(apiphany_spec::SemFieldTy {
                        name: name.clone(),
                        optional: false,
                        ty: check(semlib, env, v)?,
                    });
                }
                Ok(SemTy::Record(r))
            }
        }
    }

    /// Checks an argument expression against a declared parameter type.
    /// Record literals are checked field-wise against declared record types
    /// (field names must be declared, types must match).
    fn check_against(
        semlib: &SemLib,
        env: &HashMap<String, SemTy>,
        value: &Expr,
        declared: &SemTy,
    ) -> Result<(), TypeError> {
        if let (Expr::Record(fields), SemTy::Record(decl)) = (value, &declared.downgrade()) {
            for (name, v) in fields {
                let Some(field) = decl.field(name) else {
                    return err(format!("record literal has undeclared field {name}"));
                };
                check_against(semlib, env, v, &field.ty)?;
            }
            return Ok(());
        }
        let actual = check(semlib, env, value)?;
        if !arg_compatible(&actual, declared) {
            return err(format!(
                "argument has type {}, declared {}",
                semlib.display_ty(&actual),
                semlib.display_ty(declared)
            ));
        }
        Ok(())
    }

    /// Structural compatibility of an argument type with a declared parameter
    /// type: exact equality except for records, where the provided record may
    /// omit optional declared fields (a record literal's structural type has
    /// all fields required).
    fn arg_compatible(actual: &SemTy, declared: &SemTy) -> bool {
        if actual == declared {
            return true;
        }
        match (actual, declared) {
            (SemTy::Record(a), SemTy::Record(d)) => {
                a.fields
                    .iter()
                    .all(|f| d.field(&f.name).is_some_and(|df| arg_compatible(&f.ty, &df.ty)))
                    && d.required().all(|df| a.fields.iter().any(|f| f.name == df.name))
            }
            (SemTy::Array(a), SemTy::Array(d)) => arg_compatible(a, d),
            _ => false,
        }
    }
}
