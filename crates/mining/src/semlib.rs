//! The semantic library `Λ̂` (paper Fig. 7 right-hand side): object and
//! method definitions over semantic types, plus the mined group data
//! (loc-sets and value banks) that gives meaning to [`GroupId`]s.

use std::collections::{BTreeMap, HashMap};

use apiphany_json::Value;
use apiphany_spec::{GroupId, Library, Loc, Root, SemRecordTy, SemTy};

use crate::infer::canonical_scalar_loc;

/// A mined semantic method signature `f : t̂_in → t̂_out`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemMethodSig {
    /// The parameter record (argument names, optionality, semantic types).
    pub params: SemRecordTy,
    /// The response type.
    pub response: SemTy,
}

/// One disjoint-set group: a loc-set plus the value bank observed at those
/// locations.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupData {
    /// All locations in the group, sorted.
    pub locs: Vec<Loc>,
    /// Distinct scalar values observed at any location of the group.
    pub values: Vec<Value>,
    /// Human-readable representative (e.g. `User.id`).
    pub display: String,
}

/// A semantic library: the output of type mining (paper Fig. 8's `Λ̂`),
/// with the group tables needed by TTN construction, retrospective
/// execution, and test generation.
#[derive(Debug, Clone)]
pub struct SemLib {
    /// The underlying syntactic library.
    pub lib: Library,
    /// Semantic object definitions.
    pub objects: BTreeMap<String, SemRecordTy>,
    /// Semantic method definitions.
    pub methods: BTreeMap<String, SemMethodSig>,
    pub(crate) groups: Vec<GroupData>,
    pub(crate) loc_to_group: HashMap<Loc, GroupId>,
    pub(crate) object_bank: HashMap<String, Vec<Value>>,
}

impl SemLib {
    /// Number of mined groups (distinct loc-set types).
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// The data of one group.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    pub fn group(&self, id: GroupId) -> &GroupData {
        &self.groups[id.0 as usize]
    }

    /// The group of a location, canonicalizing it first.
    pub fn group_of(&self, loc: &Loc) -> Option<GroupId> {
        let canon = canonical_scalar_loc(&self.lib, loc);
        self.loc_to_group.get(&canon).copied()
    }

    /// Values observed for an object type (used for input sampling).
    pub fn object_values(&self, object: &str) -> &[Value] {
        self.object_bank.get(object).map_or(&[], Vec::as_slice)
    }

    /// Resolves a dotted location string (e.g. `"Channel.name"`) or a bare
    /// object name to a semantic type, interpreting loc-set types through
    /// the mined groups. This is how users name types in queries — "the
    /// user is free to refer to this semantic type via any of its
    /// representative locations" (paper §2.1).
    pub fn resolve_named_ty(&self, text: &str) -> Option<SemTy> {
        let loc = Loc::parse(text, |n| self.lib.is_object(n)).ok()?;
        if loc.path.is_empty() {
            if let Root::Object(o) = &loc.root {
                if self.lib.is_object(o) {
                    return Some(SemTy::Object(o.clone()));
                }
            }
            return None;
        }
        self.group_of(&loc).map(SemTy::Group)
    }

    /// A human-readable rendering of a semantic type, using group
    /// representatives (e.g. `[User.id]` rather than `[g17]`).
    pub fn display_ty(&self, ty: &SemTy) -> String {
        match ty {
            SemTy::Group(g) => self.group(*g).display.clone(),
            SemTy::Object(o) => o.clone(),
            SemTy::Array(t) => format!("[{}]", self.display_ty(t)),
            SemTy::Record(r) => {
                let fields: Vec<String> = r
                    .fields
                    .iter()
                    .map(|f| {
                        format!(
                            "{}{}: {}",
                            if f.optional { "?" } else { "" },
                            f.name,
                            self.display_ty(&f.ty)
                        )
                    })
                    .collect();
                format!("{{{}}}", fields.join(", "))
            }
        }
    }

    /// Iterates over all groups with their ids.
    pub fn groups_iter(&self) -> impl Iterator<Item = (GroupId, &GroupData)> {
        self.groups.iter().enumerate().map(|(i, g)| (GroupId(i as u32), g))
    }

    /// The number of methods covered by at least one witness-derived value
    /// (the `n_cov` column of Table 1 is computed by the analysis loop; this
    /// helper reports methods whose *response* group bank is non-empty or
    /// whose response is a non-scalar type with observed objects).
    pub fn method_has_response_values(&self, method: &str) -> bool {
        let Some(sig) = self.methods.get(method) else { return false };
        self.ty_has_values(&sig.response)
    }

    fn ty_has_values(&self, ty: &SemTy) -> bool {
        match ty {
            SemTy::Group(g) => !self.group(*g).values.is_empty(),
            SemTy::Object(o) => !self.object_values(o).is_empty(),
            SemTy::Array(t) => self.ty_has_values(t),
            SemTy::Record(r) => r.fields.iter().any(|f| self.ty_has_values(&f.ty)),
        }
    }
}

/// Picks the display representative for a loc-set: object-rooted locations
/// first, then shortest path, then lexicographic.
pub(crate) fn pick_display(locs: &[Loc]) -> String {
    locs.iter()
        .min_by_key(|l| {
            (
                match l.root {
                    Root::Object(_) => 0u8,
                    Root::Method(_) => 1u8,
                },
                l.path.len(),
                l.to_string(),
            )
        })
        .map(ToString::to_string)
        .unwrap_or_else(|| "<empty>".to_string())
}
