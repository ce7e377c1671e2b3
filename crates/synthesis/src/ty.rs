//! Semantic types as lifting and the type checker track them: a count of
//! array layers around a type borrowed from the query or the library, so
//! that neither clones a type to wrap or unwrap an array.

use std::borrow::Cow;

use apiphany_mining::SemLib;
use apiphany_spec::SemTy;

/// `wraps` array layers around `base`. `base` is borrowed from the query
/// or the library, unless a record literal built it.
#[derive(Debug, Clone)]
pub(crate) struct Ty<'a> {
    base: Cow<'a, SemTy>,
    wraps: usize,
}

impl<'a> Ty<'a> {
    pub(crate) fn of(t: &'a SemTy) -> Ty<'a> {
        Ty { base: Cow::Borrowed(t), wraps: 0 }
    }

    pub(crate) fn owned(t: SemTy) -> Ty<'a> {
        Ty { base: Cow::Owned(t), wraps: 0 }
    }

    /// `[self]`.
    pub(crate) fn wrapped(self) -> Ty<'a> {
        Ty { base: self.base, wraps: self.wraps + 1 }
    }

    pub(crate) fn is_array(&self) -> bool {
        self.wraps > 0 || matches!(*self.base, SemTy::Array(_))
    }

    pub(crate) fn is_group(&self) -> bool {
        self.wraps == 0 && self.base.is_group()
    }

    /// Number of array layers around the core.
    pub(crate) fn depth(&self) -> usize {
        self.wraps + self.base.array_depth()
    }

    /// `⌊t̂⌋`: the type without any array layer.
    pub(crate) fn core(&self) -> &SemTy {
        core(&self.base)
    }

    /// `⌊t̂⌋` as a type.
    pub(crate) fn core_ty(&self) -> Ty<'a> {
        match &self.base {
            Cow::Borrowed(t) => Ty::of(core(t)),
            Cow::Owned(t) => Ty::owned(core(t).clone()),
        }
    }

    /// The element type of an array type, or the type itself back.
    pub(crate) fn elem(self) -> Result<Ty<'a>, Ty<'a>> {
        if self.wraps > 0 {
            return Ok(Ty { base: self.base, wraps: self.wraps - 1 });
        }
        match self.base {
            Cow::Borrowed(SemTy::Array(inner)) => Ok(Ty::of(inner)),
            Cow::Owned(SemTy::Array(inner)) => Ok(Ty::owned(*inner)),
            base => Err(Ty { base, wraps: 0 }),
        }
    }

    /// Type equality, however the two spread their array layers.
    pub(crate) fn same(&self, other: &Ty<'_>) -> bool {
        if self.wraps >= other.wraps {
            peel(&other.base, self.wraps - other.wraps) == Some(&*self.base)
        } else {
            peel(&self.base, other.wraps - self.wraps) == Some(&*other.base)
        }
    }

    /// The type of field `label` of an object or record type. A missing
    /// field is `Err(Some(message))`; a type that is neither is
    /// `Err(None)`.
    pub(crate) fn field(&self, semlib: &'a SemLib, label: &str) -> Result<Ty<'a>, Option<String>> {
        let found = match self.base {
            _ if self.wraps > 0 => return Err(None),
            Cow::Borrowed(SemTy::Object(o)) => return object_field(semlib, o, label),
            Cow::Owned(SemTy::Object(ref o)) => return object_field(semlib, o, label),
            Cow::Borrowed(SemTy::Record(r)) => r.field(label).map(|f| Ty::of(&f.ty)),
            Cow::Owned(SemTy::Record(ref r)) => r.field(label).map(|f| Ty::owned(f.ty.clone())),
            _ => return Err(None),
        };
        found.ok_or_else(|| Some(format!("record has no field {label}")))
    }

    /// The type spelled out, for messages and structural records.
    pub(crate) fn to_sem(&self) -> SemTy {
        self.base.clone().into_owned().wrap_arrays(self.wraps)
    }

    /// `base` and `wraps`, for a walk that peels the layers one by one.
    pub(crate) fn parts(&self) -> (&SemTy, usize) {
        (&self.base, self.wraps)
    }
}

fn object_field<'a>(semlib: &'a SemLib, o: &str, label: &str) -> Result<Ty<'a>, Option<String>> {
    semlib
        .objects
        .get(o)
        .and_then(|r| r.field(label))
        .map(|f| Ty::of(&f.ty))
        .ok_or_else(|| Some(format!("object {o} has no field {label}")))
}

/// `t` without its outer `n` array layers, if it has that many.
fn peel(mut t: &SemTy, n: usize) -> Option<&SemTy> {
    for _ in 0..n {
        let SemTy::Array(inner) = t else { return None };
        t = inner;
    }
    Some(t)
}

/// `⌊t⌋` by reference: `t` without any of its array layers.
pub(crate) fn core(mut t: &SemTy) -> &SemTy {
    while let SemTy::Array(inner) = t {
        t = inner;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiphany_spec::GroupId;

    /// One type spelled with its layers in the base, in `wraps`, or split.
    #[test]
    fn equality_ignores_where_the_layers_are() {
        let g = SemTy::Group(GroupId(1));
        let gg = SemTy::array(SemTy::array(g.clone()));
        let g_in_one = SemTy::array(g.clone());
        let spellings = [
            Ty::of(&gg),
            Ty::of(&g_in_one).wrapped(),
            Ty::of(&g).wrapped().wrapped(),
            Ty::owned(gg.clone()),
        ];
        for a in &spellings {
            assert_eq!(a.to_sem(), gg);
            assert_eq!(a.depth(), 2);
            assert_eq!(a.core(), &g);
            for b in &spellings {
                assert!(a.same(b));
            }
            assert!(!a.same(&Ty::of(&g_in_one)));
            assert!(!a.same(&Ty::of(&g).wrapped().wrapped().wrapped()));
            assert!(!a.is_group() && a.is_array());
        }
        let elem = Ty::of(&g).wrapped().elem().unwrap();
        assert!(elem.same(&Ty::of(&g)) && elem.is_group());
        assert!(Ty::of(&g).elem().is_err());
    }
}
