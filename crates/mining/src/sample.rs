//! Sampling values from the mined value banks (`Λ̂.V` in the paper's
//! Fig. 20, and `W(t̂)` in the retrospective-execution rules of Fig. 19).

use apiphany_json::Value;
use apiphany_spec::SemTy;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::semlib::SemLib;

/// A value drawn from the value bank without copying it: the bank's
/// values by reference, with the arrays and records of a composite type
/// built around them.
#[derive(Debug, Clone, PartialEq)]
pub enum Sample<'a> {
    /// A value in the bank: a group's scalar or an observed object.
    Bank(&'a Value),
    /// An array of element samples.
    Array(Vec<Sample<'a>>),
    /// A record of field samples, in declaration order.
    Record(Vec<(&'a str, Sample<'a>)>),
}

impl Sample<'_> {
    /// The sampled value as an owned [`Value`].
    pub fn to_value(&self) -> Value {
        match self {
            Sample::Bank(v) => (*v).clone(),
            Sample::Array(items) => Value::Array(items.iter().map(Sample::to_value).collect()),
            Sample::Record(fields) => Value::Object(
                fields
                    .iter()
                    .map(|(name, v)| ((*name).to_string(), v.to_value()))
                    .collect(),
            ),
        }
    }
}

/// Samples a random value of the given semantic type from the value bank,
/// borrowing the bank's values.
///
/// * loc-set types sample uniformly from the group's observed values;
/// * object types sample from observed full objects;
/// * arrays are built from one to three element samples;
/// * records are built field-wise (required fields only).
///
/// Returns `None` when the bank has no values of (a component of) the type
/// — the caller treats this as "cannot generate an input", like the paper's
/// test generator skipping methods with unobserved parameter types. A
/// composite stops drawing at its first component without values.
pub fn sample<'a>(semlib: &'a SemLib, ty: &'a SemTy, rng: &mut impl Rng) -> Option<Sample<'a>> {
    match ty {
        SemTy::Group(g) => semlib.group(*g).values.choose(rng).map(Sample::Bank),
        SemTy::Object(o) => semlib.object_values(o).choose(rng).map(Sample::Bank),
        SemTy::Array(elem) => {
            let n = rng.gen_range(1..=3);
            let items: Option<Vec<Sample<'a>>> =
                (0..n).map(|_| sample(semlib, elem, rng)).collect();
            items.map(Sample::Array)
        }
        SemTy::Record(record) => {
            let mut fields = Vec::new();
            for f in record.required() {
                fields.push((f.name.as_str(), sample(semlib, &f.ty, rng)?));
            }
            Some(Sample::Record(fields))
        }
    }
}

/// [`sample`] as an owned value: the same draws, with the bank's values
/// copied out.
pub fn sample_value(semlib: &SemLib, ty: &SemTy, rng: &mut impl Rng) -> Option<Value> {
    sample(semlib, ty, rng).map(|s| s.to_value())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine::{mine_types, MiningConfig};
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
    use apiphany_spec::{SemFieldTy, SemRecordTy};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn semlib() -> SemLib {
        mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default())
    }

    /// Every group, object, array and record type of a library: each
    /// group and object, an array of each, and each method's parameter
    /// record and object's field record.
    fn every_type(sl: &SemLib) -> Vec<SemTy> {
        let mut tys: Vec<SemTy> = sl.groups_iter().map(|(g, _)| SemTy::Group(g)).collect();
        tys.extend(sl.objects.keys().map(SemTy::object));
        let arrays: Vec<SemTy> = tys.iter().cloned().map(SemTy::array).collect();
        tys.extend(arrays);
        tys.extend(sl.methods.values().map(|m| SemTy::Record(m.params.clone())));
        tys.extend(sl.objects.values().cloned().map(SemTy::Record));
        tys
    }

    /// An owned sampler written directly over [`Value`]s, as the rules
    /// above state them: the reference the borrowing sampler must match.
    fn owned_reference(sl: &SemLib, ty: &SemTy, rng: &mut StdRng) -> Option<Value> {
        match ty {
            SemTy::Group(g) => sl.group(*g).values.choose(rng).cloned(),
            SemTy::Object(o) => sl.object_values(o).choose(rng).cloned(),
            SemTy::Array(elem) => {
                let n = rng.gen_range(1..=3);
                (0..n)
                    .map(|_| owned_reference(sl, elem, rng))
                    .collect::<Option<_>>()
                    .map(Value::Array)
            }
            SemTy::Record(record) => {
                let mut fields = Vec::new();
                for f in record.required() {
                    fields.push((f.name.clone(), owned_reference(sl, &f.ty, rng)?));
                }
                Some(Value::Object(fields))
            }
        }
    }

    /// From equal seeds, [`sample`], [`sample_value`] and the owned
    /// reference return the same value (same JSON, so same field order)
    /// and leave the RNG in the same state, on every type of Fig. 7.
    #[test]
    fn borrowing_and_owned_samplers_draw_alike() {
        let sl = semlib();
        let tys = every_type(&sl);
        let mut drawn = [0usize; 4];
        for ty in &tys {
            for seed in 0..8 {
                let mut rngs = [0, 1, 2].map(|_| StdRng::seed_from_u64(seed));
                let borrowed = sample(&sl, ty, &mut rngs[0]).map(|s| s.to_value());
                let owned = sample_value(&sl, ty, &mut rngs[1]);
                let reference = owned_reference(&sl, ty, &mut rngs[2]);
                let json = |v: &Option<Value>| v.as_ref().map(Value::to_json);
                assert_eq!(json(&borrowed), json(&owned), "{ty:?} seed {seed}");
                assert_eq!(json(&owned), json(&reference), "{ty:?} seed {seed}");
                let next = rngs.map(|mut rng| rng.next_u64());
                assert!(
                    next[0] == next[1] && next[1] == next[2],
                    "{ty:?} seed {seed}: RNG states differ"
                );
                if borrowed.is_some() {
                    drawn[match ty {
                        SemTy::Group(_) => 0,
                        SemTy::Object(_) => 1,
                        SemTy::Array(_) => 2,
                        SemTy::Record(_) => 3,
                    }] += 1;
                }
            }
        }
        assert!(
            drawn.iter().all(|&n| n > 0),
            "some kind never drew a value: {drawn:?}"
        );
    }

    /// The borrowing sampler hands out the bank's own values.
    #[test]
    fn samples_borrow_the_bank() {
        let sl = semlib();
        let mut rng = StdRng::seed_from_u64(7);
        let user = SemTy::object("User");
        let Some(Sample::Bank(v)) = sample(&sl, &user, &mut rng) else {
            panic!("an object type samples one bank value");
        };
        assert!(sl.object_values("User").iter().any(|u| std::ptr::eq(u, v)));
    }

    #[test]
    fn samples_come_from_the_bank() {
        let sl = semlib();
        let mut rng = StdRng::seed_from_u64(7);
        let email_ty = sl.resolve_named_ty("Profile.email").unwrap();
        for _ in 0..20 {
            let v = sample_value(&sl, &email_ty, &mut rng).unwrap();
            let s = v.as_str().unwrap();
            assert!(s.contains('@'), "sampled non-email {s}");
        }
    }

    #[test]
    fn object_samples_are_full_objects() {
        let sl = semlib();
        let mut rng = StdRng::seed_from_u64(7);
        let v = sample_value(&sl, &SemTy::object("User"), &mut rng).unwrap();
        assert!(v.get("id").is_some());
    }

    #[test]
    fn arrays_have_one_to_three_elements() {
        let sl = semlib();
        let mut rng = StdRng::seed_from_u64(7);
        let ty = SemTy::array(sl.resolve_named_ty("User.id").unwrap());
        for _ in 0..20 {
            let v = sample_value(&sl, &ty, &mut rng).unwrap();
            let n = v.as_array().unwrap().len();
            assert!((1..=3).contains(&n));
        }
    }

    #[test]
    fn records_fill_required_fields_only() {
        let sl = semlib();
        let mut rng = StdRng::seed_from_u64(7);
        let ty = SemTy::Record(SemRecordTy {
            fields: vec![
                SemFieldTy {
                    name: "user".into(),
                    optional: false,
                    ty: sl.resolve_named_ty("User.id").unwrap(),
                },
                SemFieldTy {
                    name: "tz".into(),
                    optional: true,
                    ty: sl.resolve_named_ty("User.name").unwrap(),
                },
            ],
        });
        let v = sample_value(&sl, &ty, &mut rng).unwrap();
        assert!(v.get("user").is_some());
        assert!(v.get("tz").is_none());
    }

    #[test]
    fn empty_bank_yields_none() {
        let sl = mine_types(&fig7_library(), &[], &MiningConfig::default());
        let mut rng = StdRng::seed_from_u64(7);
        let ty = sl.resolve_named_ty("Profile.email").unwrap();
        assert_eq!(sample_value(&sl, &ty, &mut rng), None);
    }
}
