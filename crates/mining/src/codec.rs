//! JSON codec for the mined semantic library ([`SemLib`]).
//!
//! Type mining (paper §4) is the expensive, once-per-API half of the
//! pipeline; serializing its output lets one analysis run feed any number
//! of synthesis processes. The encoding is self-contained: it carries the
//! underlying syntactic library, the semantic object and method
//! signatures, the full group table (loc-sets, value banks, display
//! names), the canonical-location index, and the object value bank — so a
//! decoded `SemLib` is observationally identical to the one that was
//! encoded (same group ids, same query resolution, same TTN, same RE
//! sampling banks). The decoder reads the encoding straight from JSON
//! text with a [`Reader`]; only the value banks become [`Value`]s.

use std::collections::{BTreeMap, HashMap};

use apiphany_json::{ReadError, Reader, Slot, Value};
use apiphany_spec::codec::{
    group_id_from_reader, library_from_reader, library_to_value, loc_from_reader, loc_to_value,
    read_list, read_string, sem_record_ty_from_reader, sem_record_ty_to_value, sem_ty_from_reader,
    sem_ty_to_value,
};
use apiphany_spec::{GroupId, Loc, SemTy};

use crate::semlib::{GroupData, SemLib, SemMethodSig};

/// The value of `slot`, or `semlib: missing field '{key}'` when its key
/// never came.
fn field<T>(slot: Slot<T>, key: &str) -> Result<T, ReadError> {
    slot.unwrap_or_else(|| Err(ReadError::Shape(format!("semlib: missing field '{key}'"))))
}

/// Reads a value bank: an array of values, kept as [`Value`]s;
/// `not_array` is the error when the value is not an array.
fn values(r: &mut Reader<'_>, not_array: &str) -> Result<Vec<Value>, ReadError> {
    read_list(r, not_array, |r| Ok(r.value()?))
}

/// The `[loc, group]` entries of the `loc_to_group` index up to its first
/// malformed one, and that entry's error. The group range check of the
/// entries before it comes first, as in a loop that checks each entry as
/// it reads it; it waits for the group table, which may come later in the
/// text.
type LocIndex = (Vec<(Loc, GroupId)>, Option<ReadError>);

fn loc_index(r: &mut Reader<'_>) -> Result<LocIndex, ReadError> {
    let mut entries = Vec::new();
    let read = r.array(|r| {
        entries.push(loc_index_entry(r)?);
        Ok(())
    });
    match read {
        Ok(true) => Ok((entries, None)),
        Ok(false) => Err(ReadError::shape("loc_to_group: expected array")),
        Err(ReadError::Shape(message)) => Ok((entries, Some(ReadError::Shape(message)))),
        Err(syntax) => Err(syntax),
    }
}

/// One `[loc, group]` entry; its length is checked before its items.
fn loc_index_entry(r: &mut Reader<'_>) -> Result<(Loc, GroupId), ReadError> {
    let (mut loc, mut gid, mut len) = (None, None, 0);
    let is_array = r.array(|r| {
        match len {
            0 => r.first(&mut loc, loc_from_reader)?,
            1 => r.first(&mut gid, group_id_from_reader)?,
            _ => r.skip()?,
        }
        len += 1;
        Ok(())
    })?;
    if !is_array {
        return Err(ReadError::shape("loc_to_group entry: expected array"));
    }
    match (len, loc, gid) {
        (2, Some(loc), Some(gid)) => Ok((loc?, gid?)),
        _ => Err(ReadError::shape("loc_to_group entry: expected [loc, group]")),
    }
}

/// Checks that every loc-set type inside `ty` points into the decoded
/// group table — a dangling [`GroupId`] would otherwise surface later as
/// an index panic (e.g. in `SemLib::group`) instead of a decode error.
fn check_group_refs(ty: &SemTy, n_groups: usize, what: &str) -> Result<(), ReadError> {
    match ty {
        SemTy::Group(g) => {
            if (g.0 as usize) < n_groups {
                Ok(())
            } else {
                Err(ReadError::Shape(format!(
                    "{what}: group {g} out of range ({n_groups} groups)"
                )))
            }
        }
        SemTy::Object(_) => Ok(()),
        SemTy::Array(elem) => check_group_refs(elem, n_groups, what),
        SemTy::Record(rec) => rec
            .fields
            .iter()
            .try_for_each(|f| check_group_refs(&f.ty, n_groups, what)),
    }
}

impl SemLib {
    /// Encodes the semantic library to a JSON value.
    ///
    /// Hash-map components (the canonical-location index and the object
    /// bank) are emitted in sorted order, so the encoding is deterministic
    /// and diff-friendly.
    pub fn to_value(&self) -> Value {
        let objects: Vec<Value> = self
            .objects
            .iter()
            .map(|(name, rec)| {
                Value::obj([
                    ("name", Value::from(name.as_str())),
                    ("fields", sem_record_ty_to_value(rec)),
                ])
            })
            .collect();
        let methods: Vec<Value> = self
            .methods
            .iter()
            .map(|(name, sig)| {
                Value::obj([
                    ("name", Value::from(name.as_str())),
                    ("params", sem_record_ty_to_value(&sig.params)),
                    ("response", sem_ty_to_value(&sig.response)),
                ])
            })
            .collect();
        let groups: Vec<Value> = self
            .groups
            .iter()
            .map(|g| {
                Value::obj([
                    ("locs", Value::Array(g.locs.iter().map(loc_to_value).collect())),
                    ("values", Value::Array(g.values.clone())),
                    ("display", Value::from(g.display.as_str())),
                ])
            })
            .collect();
        let mut loc_index: Vec<(&Loc, GroupId)> =
            self.loc_to_group.iter().map(|(l, &g)| (l, g)).collect();
        loc_index.sort();
        let loc_to_group: Vec<Value> = loc_index
            .into_iter()
            .map(|(l, g)| Value::arr([loc_to_value(l), Value::from(g.0)]))
            .collect();
        let mut bank_index: Vec<(&String, &Vec<Value>)> = self.object_bank.iter().collect();
        bank_index.sort_by(|a, b| a.0.cmp(b.0));
        let object_bank: Vec<Value> = bank_index
            .into_iter()
            .map(|(name, values)| {
                Value::obj([
                    ("object", Value::from(name.as_str())),
                    ("values", Value::Array(values.clone())),
                ])
            })
            .collect();
        Value::obj([
            ("library", library_to_value(&self.lib)),
            ("objects", Value::Array(objects)),
            ("methods", Value::Array(methods)),
            ("groups", Value::Array(groups)),
            ("loc_to_group", Value::Array(loc_to_group)),
            ("object_bank", Value::Array(object_bank)),
        ])
    }

    /// Reads a semantic library from the JSON text of
    /// [`SemLib::to_value`]. Every check of the object's fields runs in
    /// the order of its encoding (library, objects, methods, groups,
    /// `loc_to_group`, object bank), then every group reference in the
    /// signatures is resolved, whatever order the text has the fields in.
    ///
    /// # Errors
    ///
    /// A syntax error, or a shape error when a field is missing,
    /// malformed, or a group reference points outside the decoded group
    /// table.
    pub fn from_reader(r: &mut Reader<'_>) -> Result<SemLib, ReadError> {
        let (mut library, mut objects, mut methods) = (None, None, None);
        let (mut groups, mut index, mut bank) = (None, None, None);
        r.object(|r, key| match key {
            "library" => r.first(&mut library, library_from_reader),
            "objects" => r.first(&mut objects, |r| {
                read_list(r, "semlib objects: expected array", |r| {
                    let (mut name, mut fields) = (None, None);
                    r.object(|r, key| match key {
                        "name" => r.first(&mut name, |r| read_string(r, "object name")),
                        "fields" => r.first(&mut fields, sem_record_ty_from_reader),
                        _ => r.skip(),
                    })?;
                    Ok((field(name, "name")?, field(fields, "fields")?))
                })
            }),
            "methods" => r.first(&mut methods, |r| {
                read_list(r, "semlib methods: expected array", |r| {
                    let (mut name, mut params, mut response) = (None, None, None);
                    r.object(|r, key| match key {
                        "name" => r.first(&mut name, |r| read_string(r, "method name")),
                        "params" => r.first(&mut params, sem_record_ty_from_reader),
                        "response" => r.first(&mut response, sem_ty_from_reader),
                        _ => r.skip(),
                    })?;
                    let name = field(name, "name")?;
                    let sig = SemMethodSig {
                        params: field(params, "params")?,
                        response: field(response, "response")?,
                    };
                    Ok((name, sig))
                })
            }),
            "groups" => r.first(&mut groups, |r| {
                read_list(r, "semlib groups: expected array", |r| {
                    let (mut locs, mut values_slot, mut display) = (None, None, None);
                    r.object(|r, key| match key {
                        "locs" => r.first(&mut locs, |r| {
                            read_list(r, "group locs: expected array", loc_from_reader)
                        }),
                        "values" => r.first(&mut values_slot, |r| {
                            values(r, "group values: expected array")
                        }),
                        "display" => r.first(&mut display, |r| read_string(r, "group display")),
                        _ => r.skip(),
                    })?;
                    Ok(GroupData {
                        locs: field(locs, "locs")?,
                        values: field(values_slot, "values")?,
                        display: field(display, "display")?,
                    })
                })
            }),
            "loc_to_group" => r.first(&mut index, loc_index),
            "object_bank" => r.first(&mut bank, |r| {
                read_list(r, "object_bank: expected array", |r| {
                    let (mut object, mut values_slot) = (None, None);
                    r.object(|r, key| match key {
                        "object" => r.first(&mut object, |r| read_string(r, "bank object name")),
                        "values" => r.first(&mut values_slot, |r| {
                            values(r, "bank values: expected array")
                        }),
                        _ => r.skip(),
                    })?;
                    Ok((field(object, "object")?, field(values_slot, "values")?))
                })
            }),
            _ => r.skip(),
        })?;
        let lib = field(library, "library")?;
        let objects: BTreeMap<_, _> = field(objects, "objects")?.into_iter().collect();
        let methods: BTreeMap<_, _> = field(methods, "methods")?.into_iter().collect();
        let groups: Vec<GroupData> = field(groups, "groups")?;
        let (entries, malformed) = field(index, "loc_to_group")?;
        let mut loc_to_group = HashMap::with_capacity(entries.len());
        for (loc, gid) in entries {
            if gid.0 as usize >= groups.len() {
                return Err(ReadError::Shape(format!(
                    "loc_to_group entry: group {gid} out of range ({} groups)",
                    groups.len()
                )));
            }
            loc_to_group.insert(loc, gid);
        }
        if let Some(e) = malformed {
            return Err(e);
        }
        let object_bank: HashMap<_, _> = field(bank, "object_bank")?.into_iter().collect();
        // Every group reference in the semantic signatures must resolve
        // against the decoded group table.
        for (name, rec) in &objects {
            for f in &rec.fields {
                check_group_refs(&f.ty, groups.len(), &format!("object {name}.{}", f.name))?;
            }
        }
        for (name, sig) in &methods {
            for f in &sig.params.fields {
                check_group_refs(&f.ty, groups.len(), &format!("method {name} param {}", f.name))?;
            }
            check_group_refs(&sig.response, groups.len(), &format!("method {name} response"))?;
        }
        Ok(SemLib { lib, objects, methods, groups, loc_to_group, object_bank })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mine::{mine_types, MiningConfig};
    use apiphany_spec::fixtures::{fig4_witnesses, fig7_library};
    use apiphany_spec::SemTy;

    fn semlib() -> SemLib {
        mine_types(&fig7_library(), &fig4_witnesses(), &MiningConfig::default())
    }

    /// Decodes the printed `v`.
    fn decode(v: &Value) -> Result<SemLib, ReadError> {
        SemLib::from_reader(&mut Reader::new(&v.to_json()))
    }

    #[test]
    fn semlib_roundtrips_through_json_text() {
        let sl = semlib();
        let text = sl.to_value().to_json();
        let back = SemLib::from_reader(&mut Reader::new(&text)).unwrap();
        assert_eq!(back.lib, sl.lib);
        assert_eq!(back.objects, sl.objects);
        assert_eq!(back.methods, sl.methods);
        assert_eq!(back.n_groups(), sl.n_groups());
        for (id, g) in sl.groups_iter() {
            assert_eq!(back.group(id), g);
        }
    }

    #[test]
    fn decoded_semlib_resolves_queries_identically() {
        let sl = semlib();
        let back = decode(&sl.to_value()).unwrap();
        for name in ["Channel.name", "User.id", "Profile.email", "u_info.in.user", "User"] {
            assert_eq!(back.resolve_named_ty(name), sl.resolve_named_ty(name), "{name}");
        }
        // Group merging is preserved: the Fig. 4 merge of u_info's
        // parameter with User.id survives the roundtrip.
        let a = back.resolve_named_ty("u_info.in.user").unwrap();
        let b = back.resolve_named_ty("User.id").unwrap();
        assert_eq!(a, b);
        assert!(matches!(a, SemTy::Group(_)));
    }

    #[test]
    fn decoded_semlib_keeps_value_banks() {
        let sl = semlib();
        let back = decode(&sl.to_value()).unwrap();
        for (id, g) in sl.groups_iter() {
            assert_eq!(back.group(id).values, g.values);
        }
        for name in sl.lib.objects.keys() {
            assert_eq!(back.object_values(name), sl.object_values(name));
        }
    }

    #[test]
    fn decode_rejects_out_of_range_group() {
        let sl = semlib();
        let mut v = sl.to_value();
        // Corrupt the loc index to point at a non-existent group.
        if let Value::Object(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "loc_to_group" {
                    if let Value::Array(pairs) = val {
                        if let Some(Value::Array(pair)) = pairs.first_mut() {
                            pair[1] = Value::from(9_999);
                        }
                    }
                }
            }
        }
        assert!(decode(&v).is_err());
    }

    #[test]
    fn decode_rejects_missing_fields() {
        assert!(decode(&apiphany_json::json!({"library": {}})).is_err());
    }

    /// Sets every `{"group": N}` reference under `v` to 9 999.
    fn corrupt_group_refs(v: &mut Value) {
        match v {
            Value::Object(fields) => {
                for (k, val) in fields.iter_mut() {
                    if k == "group" && val.as_int().is_some() {
                        *val = Value::from(9_999);
                    } else {
                        corrupt_group_refs(val);
                    }
                }
            }
            Value::Array(items) => items.iter_mut().for_each(corrupt_group_refs),
            _ => {}
        }
    }

    #[test]
    fn decode_rejects_dangling_groups_in_signatures() {
        let sl = semlib();
        // Corrupt the method signatures only (not loc_to_group).
        let mut v = sl.to_value();
        if let Value::Object(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "methods" {
                    corrupt_group_refs(val);
                }
            }
        }
        let err = decode(&v).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");

        // Same for object signatures.
        let mut v = sl.to_value();
        if let Value::Object(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "objects" {
                    corrupt_group_refs(val);
                }
            }
        }
        assert!(decode(&v).is_err());
    }
}
