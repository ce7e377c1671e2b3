//! The type-transition net (TTN) representation (paper Appendix B.1).
//!
//! A TTN is a Petri net `(P, T, E, O)`: places are (array-oblivious,
//! downgraded) semantic types, transitions are API methods, projections,
//! filters, and copies; `E` gives required edge multiplicities and `O`
//! optional multiplicities (for optional method arguments).

use std::collections::HashMap;
use std::sync::Arc;

use apiphany_spec::SemTy;

/// Index of a place (a downgraded semantic type).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaceId(pub u32);

/// Index of a transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransId(pub u32);

/// What a transition does, for converting paths back into programs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransKind {
    /// An API method call.
    Method(String),
    /// A projection `proj_{base.label}` from a place holding objects or
    /// records to the field's place.
    Proj {
        /// The place being projected from.
        base: PlaceId,
        /// The field label.
        label: String,
    },
    /// A filter `filter_{base.path}`: consumes a `base` token and a key
    /// token, produces the `base` token back (paper's C-Filter /
    /// C-Filter-Obj; `path` may traverse nested objects).
    Filter {
        /// The place being filtered.
        base: PlaceId,
        /// The projection path from the base object to the compared scalar.
        path: Vec<String>,
    },
    /// A copy transition: one token in, two tokens out (relevant typing,
    /// as in SyPet/TYGAR).
    Copy {
        /// The copied place.
        place: PlaceId,
    },
}

/// How one method argument maps onto net places (used when converting a
/// path back into a call expression).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamSpec {
    /// The argument name as it appears in the call.
    pub arg_name: String,
    /// For record-typed arguments flattened into the net, the field inside
    /// the record this spec stands for; `None` for plain arguments.
    pub record_field: Option<String>,
    /// The place this argument consumes from.
    pub place: PlaceId,
    /// Whether the argument (or record field) is optional.
    pub optional: bool,
}

/// One transition with its edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    /// What the transition stands for.
    pub kind: TransKind,
    /// Required consumption: `E(p, τ)` as (place, multiplicity) pairs.
    pub inputs: Vec<(PlaceId, u32)>,
    /// Optional consumption caps: `O(p, τ)`.
    pub optionals: Vec<(PlaceId, u32)>,
    /// Production: `E(τ, p)`.
    pub outputs: Vec<(PlaceId, u32)>,
    /// Method parameter layout (empty for non-method transitions).
    pub params: Vec<ParamSpec>,
}

/// The interned places of a net: each downgraded type once, in
/// interning order.
#[derive(Debug, Clone, Default)]
struct Places {
    tys: Vec<SemTy>,
    ids: HashMap<SemTy, PlaceId>,
}

/// Bounds on the token-count change of one firing, over every transition
/// of a net (`0` for an empty net).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TokenBounds {
    /// Max net token increase of any single firing.
    pub(crate) max_inc: i64,
    /// Max net token decrease of any single firing (optional consumption
    /// included).
    pub(crate) max_dec: i64,
}

/// The net itself.
///
/// Besides the places and transitions, a net keeps the search's
/// query-independent indexes — the transitions with no required input,
/// the candidate lists by first required input, each transition's token
/// delta, and the bounds on one firing's token-count change — which
/// [`Ttn::add_transition`] extends as each transition arrives, so no
/// search rebuilds them.
#[derive(Debug, Clone, Default)]
pub struct Ttn {
    /// Shared with the nets built by [`Ttn::with_places_of`]: a pruned
    /// net reuses its source's table until it interns a new place, which
    /// copies the table first.
    places: Arc<Places>,
    transitions: Vec<Transition>,
    /// Per transition, aligned with its `optionals` list: how many tokens
    /// the transition's *required* inputs consume at that optional place.
    /// Precomputed here so the DFS inner loop does not rescan `inputs` for
    /// every optional place at every search node.
    optional_overlaps: Vec<Vec<u32>>,
    /// Transitions with no required inputs, in id order.
    zero_required: Vec<TransId>,
    /// Per place: the transitions whose first (smallest) required input
    /// it is, in id order. Places past the end have none.
    by_first_input: Vec<Vec<TransId>>,
    /// Per transition: net token change of firing it with no optional
    /// consumption (`produced - required`).
    delta: Vec<i64>,
    bounds: TokenBounds,
}

impl Ttn {
    /// An empty net.
    pub fn new() -> Ttn {
        Ttn::default()
    }

    /// An empty net over `net`'s places: the same [`PlaceId`]s, sharing
    /// `net`'s place table instead of copying it (the table is copied
    /// only if the new net interns a place of its own). Adding a subset
    /// of `net`'s transitions builds a pruned net in time proportional to
    /// the transitions alone.
    pub fn with_places_of(net: &Ttn) -> Ttn {
        Ttn { places: Arc::clone(&net.places), ..Ttn::default() }
    }

    /// Interns a (downgraded) type as a place.
    ///
    /// # Panics
    ///
    /// Panics if handed an array type — places are always array-oblivious.
    pub fn intern_place(&mut self, ty: SemTy) -> PlaceId {
        assert!(
            !matches!(ty, SemTy::Array(_)),
            "TTN places must be downgraded (array-oblivious)"
        );
        if let Some(&id) = self.places.ids.get(&ty) {
            return id;
        }
        let places = Arc::make_mut(&mut self.places);
        let id = PlaceId(places.tys.len() as u32);
        places.tys.push(ty.clone());
        places.ids.insert(ty, id);
        id
    }

    /// The place of a type, if it exists (the type is downgraded first).
    pub fn place_of(&self, ty: &SemTy) -> Option<PlaceId> {
        self.places.ids.get(&ty.downgrade()).copied()
    }

    /// The type of a place.
    pub fn place_ty(&self, id: PlaceId) -> &SemTy {
        &self.places.tys[id.0 as usize]
    }

    /// Number of places.
    pub fn n_places(&self) -> usize {
        self.places.tys.len()
    }

    /// Number of transitions.
    pub fn n_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Adds a transition, returning its id.
    pub fn add_transition(&mut self, t: Transition) -> TransId {
        let id = TransId(self.transitions.len() as u32);
        let overlap = t
            .optionals
            .iter()
            .map(|&(p, _)| {
                t.inputs.iter().filter(|&&(q, _)| q == p).map(|&(_, c)| c).sum()
            })
            .collect();
        self.optional_overlaps.push(overlap);
        match t.inputs.first() {
            None => self.zero_required.push(id),
            Some(&(p, _)) => {
                let p = p.0 as usize;
                if self.by_first_input.len() <= p {
                    self.by_first_input.resize_with(p + 1, Vec::new);
                }
                self.by_first_input[p].push(id);
            }
        }
        let cons: i64 = t.inputs.iter().map(|&(_, c)| i64::from(c)).sum();
        let opt: i64 = t.optionals.iter().map(|&(_, c)| i64::from(c)).sum();
        let prod: i64 = t.outputs.iter().map(|&(_, c)| i64::from(c)).sum();
        self.delta.push(prod - cons);
        self.bounds.max_inc = self.bounds.max_inc.max(prod - cons);
        self.bounds.max_dec = self.bounds.max_dec.max(cons + opt - prod);
        self.transitions.push(t);
        id
    }

    /// Transitions with no required inputs (enabled at every marking), in
    /// id order.
    pub(crate) fn zero_required(&self) -> &[TransId] {
        &self.zero_required
    }

    /// Transitions whose first (smallest) required input place is `p`,
    /// in id order: a transition is only enabled when that place is
    /// marked, so the search scans these lists instead of every
    /// transition.
    pub(crate) fn by_first_input(&self, p: PlaceId) -> &[TransId] {
        self.by_first_input.get(p.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Net token change of firing `id` with no optional consumption
    /// (`produced - required`).
    pub(crate) fn delta(&self, id: TransId) -> i64 {
        self.delta[id.0 as usize]
    }

    /// Bounds on the token-count change of any single firing.
    pub(crate) fn token_bounds(&self) -> TokenBounds {
        self.bounds
    }

    /// For each optional place of a transition (aligned with its
    /// `optionals` list), the number of tokens the transition's *required*
    /// inputs already consume there. Precomputed at construction time; the
    /// search uses it to bound optional consumption without rescanning the
    /// input list per node.
    pub fn optional_overlap(&self, id: TransId) -> &[u32] {
        &self.optional_overlaps[id.0 as usize]
    }

    /// The transition data.
    pub fn transition(&self, id: TransId) -> &Transition {
        &self.transitions[id.0 as usize]
    }

    /// Iterates over transitions with ids.
    pub fn transitions(&self) -> impl Iterator<Item = (TransId, &Transition)> {
        self.transitions.iter().enumerate().map(|(i, t)| (TransId(i as u32), t))
    }

    /// A short human-readable label for a transition (for debugging and the
    /// bench reports).
    pub fn transition_label(&self, id: TransId) -> String {
        match &self.transition(id).kind {
            TransKind::Method(name) => name.clone(),
            TransKind::Proj { base, label } => {
                format!("proj_{}.{}", self.place_ty(*base), label)
            }
            TransKind::Filter { base, path } => {
                format!("filter_{}.{}", self.place_ty(*base), path.join("."))
            }
            TransKind::Copy { place } => format!("copy_{}", self.place_ty(*place)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiphany_spec::GroupId;

    #[test]
    fn interning_is_idempotent() {
        let mut net = Ttn::new();
        let a = net.intern_place(SemTy::object("User"));
        let b = net.intern_place(SemTy::object("User"));
        assert_eq!(a, b);
        assert_eq!(net.n_places(), 1);
        let c = net.intern_place(SemTy::Group(GroupId(0)));
        assert_ne!(a, c);
    }

    #[test]
    fn place_of_downgrades() {
        let mut net = Ttn::new();
        let p = net.intern_place(SemTy::object("User"));
        let arr = SemTy::array(SemTy::array(SemTy::object("User")));
        assert_eq!(net.place_of(&arr), Some(p));
    }

    #[test]
    #[should_panic(expected = "array-oblivious")]
    fn interning_arrays_panics() {
        let mut net = Ttn::new();
        net.intern_place(SemTy::array(SemTy::object("User")));
    }

    #[test]
    fn optional_overlap_counts_required_consumption_per_optional_place() {
        let mut net = Ttn::new();
        let a = net.intern_place(SemTy::Group(GroupId(0)));
        let b = net.intern_place(SemTy::Group(GroupId(1)));
        let id = net.add_transition(Transition {
            kind: TransKind::Method("f".into()),
            inputs: vec![(a, 2)],
            // `a` overlaps the required inputs, `b` does not.
            optionals: vec![(a, 1), (b, 3)],
            outputs: vec![(b, 1)],
            params: Vec::new(),
        });
        assert_eq!(net.optional_overlap(id), &[2, 0]);
        let plain = net.add_transition(Transition {
            kind: TransKind::Method("g".into()),
            inputs: vec![(b, 1)],
            optionals: Vec::new(),
            outputs: vec![(a, 1)],
            params: Vec::new(),
        });
        assert_eq!(net.optional_overlap(plain), &[] as &[u32]);
    }

    /// The search indexes grow with every added transition, including
    /// one whose first input is a place interned after other transitions.
    #[test]
    fn search_indexes_track_added_transitions() {
        let mut net = Ttn::new();
        let a = net.intern_place(SemTy::Group(GroupId(0)));
        let b = net.intern_place(SemTy::Group(GroupId(1)));
        let mk = |inputs: Vec<(PlaceId, u32)>, optionals, outputs| Transition {
            kind: TransKind::Method("m".into()),
            inputs,
            optionals,
            outputs,
            params: Vec::new(),
        };
        let t0 = net.add_transition(mk(Vec::new(), Vec::new(), vec![(a, 1)]));
        let t1 = net.add_transition(mk(vec![(b, 2)], vec![(a, 1)], Vec::new()));
        let late = net.intern_place(SemTy::Group(GroupId(2)));
        let t2 = net.add_transition(mk(vec![(late, 1), (a, 1)], Vec::new(), vec![(b, 3)]));
        let t3 = net.add_transition(mk(vec![(b, 1)], Vec::new(), vec![(b, 2)]));
        assert_eq!(net.zero_required(), &[t0]);
        assert_eq!(net.by_first_input(a), &[] as &[TransId]);
        assert_eq!(net.by_first_input(b), &[t1, t3]);
        assert_eq!(net.by_first_input(late), &[t2]);
        assert_eq!(net.by_first_input(PlaceId(7)), &[] as &[TransId]);
        let deltas: Vec<i64> = [t0, t1, t2, t3].iter().map(|&t| net.delta(t)).collect();
        assert_eq!(deltas, vec![1, -2, 1, 1]);
        let bounds = net.token_bounds();
        assert_eq!((bounds.max_inc, bounds.max_dec), (1, 3));
    }

    /// A net built over another's places shares its table (same ids, no
    /// copy) until it interns a place of its own, which copies the table
    /// and leaves the source untouched.
    #[test]
    fn with_places_of_shares_the_table_until_a_write() {
        let mut net = Ttn::new();
        let user = net.intern_place(SemTy::object("User"));
        let group = net.intern_place(SemTy::Group(GroupId(0)));
        let mut pruned = Ttn::with_places_of(&net);
        assert!(Arc::ptr_eq(&net.places, &pruned.places));
        assert_eq!(pruned.n_places(), 2);
        assert_eq!(pruned.n_transitions(), 0);
        assert_eq!(pruned.place_of(&SemTy::object("User")), Some(user));
        assert_eq!(pruned.intern_place(SemTy::Group(GroupId(0))), group);
        assert!(Arc::ptr_eq(&net.places, &pruned.places), "a lookup does not copy");
        let extra = pruned.intern_place(SemTy::object("Extra"));
        assert_eq!(extra, PlaceId(2));
        assert!(!Arc::ptr_eq(&net.places, &pruned.places));
        assert_eq!(net.n_places(), 2);
        assert_eq!(net.place_of(&SemTy::object("Extra")), None);
    }
}
