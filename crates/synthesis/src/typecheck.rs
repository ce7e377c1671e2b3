//! The semantic typing judgment `Λ̂; Γ ⊢ e :: t̂` (paper Fig. 16,
//! Appendix B).
//!
//! [`type_check`] is the final gate of the synthesis pipeline: a lifted
//! program is reported only if it checks against the query type. Lifting
//! already inserts the binds and returns the rules ask for, so the check
//! rejects few programs: none of a depth-4 pass over Table 2, and at
//! greater depths calls that miss a required argument. The synthesizer
//! runs it once per new canonical form, not once per program (see
//! `Synthesizer::synthesize`). The relaxed ILP encoding, whose paths
//! "simply [get] rejected by the type checker" (Appendix B.2), survives
//! only as a test oracle for the DFS search, so no such path reaches the
//! checker.
//!
//! The checker allocates little. Γ is a stack of bindings, pushed at each
//! binder and popped after its body; lookups scan from the top, so an
//! inner binding shadows an outer one. Types are borrowed from the query
//! and the library, and an array type that `return` builds is a count of
//! array layers around a borrowed type (`crate::ty::Ty`).

use std::fmt;

use apiphany_lang::{Expr, Program};
use apiphany_mining::{Query, SemLib};
use apiphany_spec::{SemFieldTy, SemRecordTy, SemTy};

use crate::ty::{core, Ty};

/// A type error with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.message)
    }
}

impl std::error::Error for TypeError {}

fn err<T>(message: impl Into<String>) -> Result<T, TypeError> {
    Err(TypeError { message: message.into() })
}

/// `Γ`: the bindings in scope, innermost last.
type Env<'p, 'a> = Vec<(&'p str, Ty<'a>)>;

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
    let mut env: Env = Vec::with_capacity(program.params.len() + 8);
    for (name, (qname, ty)) in program.params.iter().zip(&query.params) {
        if name != qname {
            return err(format!("parameter {name} does not match query parameter {qname}"));
        }
        env.push((name, Ty::of(ty)));
    }
    let expected = match &query.output {
        t @ SemTy::Array(_) => Ty::of(t),
        t => Ty::of(t).wrapped(),
    };
    let actual = check(semlib, &mut env, &program.body)?;
    if !actual.same(&expected) {
        return err(format!(
            "program has type {}, query expects {}",
            semlib.display_ty(&actual.to_sem()),
            semlib.display_ty(&expected.to_sem())
        ));
    }
    Ok(())
}

/// Infers the semantic type of an expression (the rules of Fig. 16).
fn check<'p, 'a>(
    semlib: &'a SemLib,
    env: &mut Env<'p, 'a>,
    e: &'p Expr,
) -> Result<Ty<'a>, TypeError> {
    match e {
        // T-Var.
        Expr::Var(x) => match env.iter().rev().find(|(name, _)| *name == x) {
            Some((_, t)) => Ok(t.clone()),
            None => err(format!("unbound variable {x}")),
        },
        // T-Proj, with T-Obj folding object names to their definitions.
        Expr::Proj(base, label) => {
            let t = check(semlib, env, base)?;
            t.field(semlib, label).map_err(|e| TypeError {
                message: e.unwrap_or_else(|| {
                    format!(
                        "projection .{label} from non-object type {}",
                        semlib.display_ty(&t.to_sem())
                    )
                }),
            })
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
            Ok(Ty::of(&sig.response))
        }
        // T-Let.
        Expr::Let(x, rhs, body) => {
            let t = check(semlib, env, rhs)?;
            env.push((x, t));
            let body_t = check(semlib, env, body);
            env.pop();
            body_t
        }
        // T-Bind: both sides must have array types.
        Expr::Bind(x, rhs, body) => {
            let elem = match check(semlib, env, rhs)?.elem() {
                Ok(elem) => elem,
                Err(t) => {
                    return err(format!(
                        "monadic bind over non-array type {}",
                        semlib.display_ty(&t.to_sem())
                    ))
                }
            };
            env.push((x, elem));
            let body_t = check(semlib, env, body);
            env.pop();
            array_body(semlib, body_t?, "bind")
        }
        // T-If: operands share one loc-set type; body is an array.
        Expr::Guard(lhs, rhs, body) => {
            let lt = check(semlib, env, lhs)?;
            let rt = check(semlib, env, rhs)?;
            if !lt.is_group() || !lt.same(&rt) {
                return err(format!(
                    "guard compares {} with {}",
                    semlib.display_ty(&lt.to_sem()),
                    semlib.display_ty(&rt.to_sem())
                ));
            }
            let body_t = check(semlib, env, body)?;
            array_body(semlib, body_t, "guard")
        }
        // T-Ret.
        Expr::Return(inner) => Ok(check(semlib, env, inner)?.wrapped()),
        // Record literals are only typeable against a declared record (see
        // `check_against`); a free-standing record gets a structural type.
        Expr::Record(fields) => {
            let mut r = SemRecordTy::default();
            for (name, v) in fields {
                r.fields.push(SemFieldTy {
                    name: name.clone(),
                    optional: false,
                    ty: check(semlib, env, v)?.to_sem(),
                });
            }
            Ok(Ty::owned(SemTy::Record(r)))
        }
    }
}

/// The body of a bind or guard must have an array type.
fn array_body<'a>(semlib: &SemLib, body_t: Ty<'a>, what: &str) -> Result<Ty<'a>, TypeError> {
    if body_t.is_array() {
        return Ok(body_t);
    }
    err(format!(
        "{what} body must have array type, got {}",
        semlib.display_ty(&body_t.to_sem())
    ))
}

/// Checks an argument expression against a declared parameter type.
/// Record literals are checked field-wise against declared record types
/// (field names must be declared, types must match).
fn check_against<'p, 'a>(
    semlib: &'a SemLib,
    env: &mut Env<'p, 'a>,
    value: &'p Expr,
    declared: &SemTy,
) -> Result<(), TypeError> {
    if let (Expr::Record(fields), SemTy::Record(decl)) = (value, core(declared)) {
        for (name, v) in fields {
            let Some(field) = decl.field(name) else {
                return err(format!("record literal has undeclared field {name}"));
            };
            check_against(semlib, env, v, &field.ty)?;
        }
        return Ok(());
    }
    let actual = check(semlib, env, value)?;
    let (base, wraps) = actual.parts();
    if !compatible(base, wraps, declared) {
        return err(format!(
            "argument has type {}, declared {}",
            semlib.display_ty(&actual.to_sem()),
            semlib.display_ty(declared)
        ));
    }
    Ok(())
}

/// [`arg_compatible`] for `wraps` array layers around `base`.
fn compatible(base: &SemTy, wraps: usize, declared: &SemTy) -> bool {
    match (wraps, declared) {
        (0, _) => arg_compatible(base, declared),
        (_, SemTy::Array(d)) => compatible(base, wraps - 1, d),
        _ => false,
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use apiphany_lang::parse_program;
    use apiphany_mining::{mine_types, parse_query, MiningConfig};
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};

    fn semlib() -> SemLib {
        mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default())
    }

    #[test]
    fn fig2_type_checks() {
        let sl = semlib();
        let q = parse_query(&sl, "{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let p = parse_program(
            r"\channel_name → {
                c ← c_list()
                if c.name = channel_name
                uid ← c_members(channel=c.id)
                let u = u_info(user=uid)
                return u.profile.email
            }",
        )
        .unwrap();
        type_check(&sl, &p, &q).unwrap();
    }

    #[test]
    fn array_oblivious_program_fails() {
        // Fig. 11 (left): projecting .name from an array is ill-typed.
        let sl = semlib();
        let q = parse_query(&sl, "{ channel_name: Channel.name } → [Profile.email]").unwrap();
        let p = parse_program(
            r"\channel_name → {
                let x1 = c_list()
                let x2 = x1.name
                if x2 = channel_name
                let x3 = x1.id
                let x4 = c_members(channel=x3)
                let x5 = u_info(user=x4)
                let x6 = x5.profile
                let x7 = x6.email
                x7
            }",
        )
        .unwrap();
        let e = type_check(&sl, &p, &q).unwrap_err();
        assert!(e.message.contains("non-object"), "{e}");
    }

    #[test]
    fn guard_on_different_groups_fails() {
        let sl = semlib();
        let q = parse_query(&sl, "{ uid: User.id } → [Channel]").unwrap();
        let p = parse_program(
            r"\uid → {
                c ← c_list()
                if c.name = uid
                return c
            }",
        )
        .unwrap();
        assert!(type_check(&sl, &p, &q).is_err());
    }

    #[test]
    fn missing_required_argument_fails() {
        let sl = semlib();
        let q = parse_query(&sl, "{ } → [User]").unwrap();
        let p = parse_program(r"\ → { let u = u_info() return u }").unwrap();
        let e = type_check(&sl, &p, &q).unwrap_err();
        assert!(e.message.contains("missing required"), "{e}");
    }

    #[test]
    fn wrong_output_type_fails() {
        let sl = semlib();
        let q = parse_query(&sl, "{ channel_name: Channel.name } → [User]").unwrap();
        let p = parse_program(
            r"\channel_name → {
                c ← c_list()
                if c.name = channel_name
                return c
            }",
        )
        .unwrap();
        let e = type_check(&sl, &p, &q).unwrap_err();
        assert!(e.message.contains("query expects"), "{e}");
    }

    #[test]
    fn scalar_queries_are_array_adjusted() {
        let sl = semlib();
        // Query asks for a scalar; program returning a singleton array of
        // that scalar is accepted (§5 "If the user requests a scalar...").
        let q = parse_query(&sl, "{ uid: User.id } → User.name").unwrap();
        let p = parse_program(r"\uid → { let u = u_info(user=uid) return u.name }").unwrap();
        type_check(&sl, &p, &q).unwrap();
    }

    #[test]
    fn unused_inputs_are_still_type_correct() {
        // The *type system* does not enforce relevance (that is the TTN's
        // job); an unused parameter type-checks.
        let sl = semlib();
        let q = parse_query(&sl, "{ uid: User.id } → [Channel]").unwrap();
        let p = parse_program(r"\uid → { c ← c_list() return c }").unwrap();
        type_check(&sl, &p, &q).unwrap();
    }
}
