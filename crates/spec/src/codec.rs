//! JSON codecs for the specification model: syntactic and semantic types,
//! locations, and whole libraries.
//!
//! These are the building blocks of the engine's *analysis artifact* — the
//! serialized output of the once-per-API analysis phase (paper §4), saved
//! by one process and reloaded by many serving processes. Every encoder has
//! a matching decoder and the pair round-trips exactly. Decoders read the
//! encoding straight from JSON text with a [`Reader`], building no
//! [`Value`] tree, and return a shape error instead of panicking on
//! malformed input. Each object's fields are read in whatever order the
//! text has them, and its errors are reported in the decoder's own fixed
//! order (the order its field list gives), so a reordered file fails with
//! the same message as the canonical one.
//!
//! Locations are encoded *structurally* (root kind + label list) rather
//! than as dotted strings: real APIs may have fields literally named `in`,
//! `out`, or `0`, which the textual form could not distinguish from the
//! reserved labels.

use std::borrow::Cow;
use std::fmt;

use apiphany_json::{Kind, ReadError, Reader, Slot, Value};

use crate::library::{Library, MethodSig};
use crate::loc::{Label, Loc, Root};
use crate::ty::{FieldTy, GroupId, RecordTy, SemFieldTy, SemRecordTy, SemTy, SynTy};

/// Error produced by the decoders in this module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// The value of `slot`, or `{what}: missing field '{key}'` when its key
/// never came.
fn field<T>(slot: Slot<T>, key: &str, what: &str) -> Result<T, ReadError> {
    slot.unwrap_or_else(|| Err(ReadError::Shape(format!("{what}: missing field '{key}'"))))
}

/// Reads a string, or fails with `{what}: expected string`.
///
/// # Errors
///
/// A syntax error, or that shape error.
pub fn read_string(r: &mut Reader<'_>, what: &str) -> Result<String, ReadError> {
    r.str()?
        .map(Cow::into_owned)
        .ok_or_else(|| ReadError::Shape(format!("{what}: expected string")))
}

/// Reads an array with `item` per element, or fails with the shape error
/// `not_array` when the value is not an array; the first element that
/// fails fails the list.
///
/// # Errors
///
/// A syntax error, `not_array`, or the first element's shape error.
pub fn read_list<'a, T>(
    r: &mut Reader<'a>,
    not_array: &str,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, ReadError>,
) -> Result<Vec<T>, ReadError> {
    let mut items = Vec::new();
    if r.array(|r| {
        items.push(item(r)?);
        Ok(())
    })? {
        Ok(items)
    } else {
        Err(ReadError::shape(not_array))
    }
}

/// Reads a group id, or fails with `group id: expected u32`.
///
/// # Errors
///
/// A syntax error, or that shape error.
pub fn group_id_from_reader(r: &mut Reader<'_>) -> Result<GroupId, ReadError> {
    r.int()?
        .filter(|&i| i >= 0 && i <= i64::from(u32::MAX))
        .map(|i| GroupId(i as u32))
        .ok_or_else(|| ReadError::shape("group id: expected u32"))
}

/// Decodes the JSON text of `v` with `read`: the entry point for callers
/// that hold an already-parsed value.
pub(crate) fn decode_value<T>(
    v: &Value,
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, ReadError>,
) -> Result<T, ReadError> {
    let text = v.to_json();
    let mut r = Reader::new(&text);
    let decoded = read(&mut r)?;
    r.finish()?;
    Ok(decoded)
}

/// Encodes a syntactic type.
pub fn syn_ty_to_value(ty: &SynTy) -> Value {
    match ty {
        SynTy::Str => Value::from("string"),
        SynTy::Int => Value::from("int"),
        SynTy::Bool => Value::from("bool"),
        SynTy::Float => Value::from("float"),
        SynTy::Object(name) => Value::obj([("object", Value::from(name.as_str()))]),
        SynTy::Array(elem) => Value::obj([("array", syn_ty_to_value(elem))]),
        SynTy::Record(rec) => Value::obj([("record", record_ty_to_value(rec))]),
    }
}

/// Decodes a syntactic type.
///
/// # Errors
///
/// A syntax error, or a shape error on malformed input.
pub fn syn_ty_from_reader(r: &mut Reader<'_>) -> Result<SynTy, ReadError> {
    if r.kind()? == Kind::String {
        return match &*r.str()?.unwrap_or_default() {
            "string" => Ok(SynTy::Str),
            "int" => Ok(SynTy::Int),
            "bool" => Ok(SynTy::Bool),
            "float" => Ok(SynTy::Float),
            other => Err(ReadError::Shape(format!("unknown primitive type '{other}'"))),
        };
    }
    let (mut object, mut array, mut record) = (None, None, None);
    r.object(|r, key| match key {
        "object" => r.first(&mut object, |r| read_string(r, "object type")),
        "array" => r.first(&mut array, syn_ty_from_reader),
        "record" => r.first(&mut record, record_ty_from_reader),
        _ => r.skip(),
    })?;
    if let Some(name) = object {
        return name.map(SynTy::Object);
    }
    if let Some(elem) = array {
        return elem.map(SynTy::array);
    }
    if let Some(rec) = record {
        return rec.map(SynTy::Record);
    }
    Err(ReadError::shape("unrecognized syntactic type"))
}

/// Encodes a record type as an array of field objects.
pub fn record_ty_to_value(rec: &RecordTy) -> Value {
    Value::Array(
        rec.fields
            .iter()
            .map(|f| {
                Value::obj([
                    ("name", Value::from(f.name.as_str())),
                    ("optional", Value::from(f.optional)),
                    ("ty", syn_ty_to_value(&f.ty)),
                ])
            })
            .collect(),
    )
}

/// Reads the fields of a record type, each field's type with `ty`;
/// `not_array` is the error when the value is not an array.
fn record_fields<'a, T>(
    r: &mut Reader<'a>,
    not_array: &str,
    ty: fn(&mut Reader<'a>) -> Result<T, ReadError>,
) -> Result<Vec<(String, bool, T)>, ReadError> {
    read_list(r, not_array, |r| {
        let (mut name, mut optional, mut field_ty) = (None, None, None);
        r.object(|r, key| match key {
            "name" => r.first(&mut name, |r| read_string(r, "field name")),
            "optional" => r.first(&mut optional, |r| {
                r.bool()?.ok_or_else(|| ReadError::shape("field optional: expected bool"))
            }),
            "ty" => r.first(&mut field_ty, ty),
            _ => r.skip(),
        })?;
        Ok((
            field(name, "name", "record field")?,
            field(optional, "optional", "record field")?,
            field(field_ty, "ty", "record field")?,
        ))
    })
}

/// Decodes a record type.
///
/// # Errors
///
/// A syntax error, or a shape error on malformed input.
pub fn record_ty_from_reader(r: &mut Reader<'_>) -> Result<RecordTy, ReadError> {
    let fields = record_fields(r, "record type: expected array", syn_ty_from_reader)?;
    Ok(RecordTy {
        fields: fields
            .into_iter()
            .map(|(name, optional, ty)| FieldTy { name, optional, ty })
            .collect(),
    })
}

/// Encodes a semantic type. Loc-set types are encoded by [`GroupId`]
/// number, so a semantic type is only meaningful alongside the group table
/// of the `SemLib` it came from.
pub fn sem_ty_to_value(ty: &SemTy) -> Value {
    match ty {
        SemTy::Group(g) => Value::obj([("group", Value::from(g.0))]),
        SemTy::Object(name) => Value::obj([("object", Value::from(name.as_str()))]),
        SemTy::Array(elem) => Value::obj([("array", sem_ty_to_value(elem))]),
        SemTy::Record(rec) => Value::obj([("record", sem_record_ty_to_value(rec))]),
    }
}

/// Decodes a semantic type.
///
/// # Errors
///
/// A syntax error, or a shape error on malformed input.
pub fn sem_ty_from_reader(r: &mut Reader<'_>) -> Result<SemTy, ReadError> {
    let (mut group, mut object, mut array, mut record) = (None, None, None, None);
    r.object(|r, key| match key {
        "group" => r.first(&mut group, group_id_from_reader),
        "object" => r.first(&mut object, |r| read_string(r, "object type")),
        "array" => r.first(&mut array, sem_ty_from_reader),
        "record" => r.first(&mut record, sem_record_ty_from_reader),
        _ => r.skip(),
    })?;
    if let Some(id) = group {
        return id.map(SemTy::Group);
    }
    if let Some(name) = object {
        return name.map(SemTy::Object);
    }
    if let Some(elem) = array {
        return elem.map(SemTy::array);
    }
    if let Some(rec) = record {
        return rec.map(SemTy::Record);
    }
    Err(ReadError::shape("unrecognized semantic type"))
}

/// Encodes a semantic record type as an array of field objects.
pub fn sem_record_ty_to_value(rec: &SemRecordTy) -> Value {
    Value::Array(
        rec.fields
            .iter()
            .map(|f| {
                Value::obj([
                    ("name", Value::from(f.name.as_str())),
                    ("optional", Value::from(f.optional)),
                    ("ty", sem_ty_to_value(&f.ty)),
                ])
            })
            .collect(),
    )
}

/// Decodes a semantic record type.
///
/// # Errors
///
/// A syntax error, or a shape error on malformed input.
pub fn sem_record_ty_from_reader(r: &mut Reader<'_>) -> Result<SemRecordTy, ReadError> {
    let fields = record_fields(r, "semantic record type: expected array", sem_ty_from_reader)?;
    Ok(SemRecordTy {
        fields: fields
            .into_iter()
            .map(|(name, optional, ty)| SemFieldTy { name, optional, ty })
            .collect(),
    })
}

/// Encodes a location structurally (root kind, root name, label list).
pub fn loc_to_value(loc: &Loc) -> Value {
    let (kind, name) = match &loc.root {
        Root::Object(n) => ("object", n.as_str()),
        Root::Method(n) => ("method", n.as_str()),
    };
    let path: Vec<Value> = loc
        .path
        .iter()
        .map(|label| match label {
            Label::Named(n) => Value::obj([("named", Value::from(n.as_str()))]),
            Label::In => Value::from("in"),
            Label::Out => Value::from("out"),
            Label::Elem => Value::from("elem"),
        })
        .collect();
    Value::obj([
        ("kind", Value::from(kind)),
        ("name", Value::from(name)),
        ("path", Value::Array(path)),
    ])
}

/// Decodes a location.
///
/// # Errors
///
/// A syntax error, or a shape error on malformed input.
pub fn loc_from_reader(r: &mut Reader<'_>) -> Result<Loc, ReadError> {
    let (mut name, mut kind, mut path) = (None, None, None);
    r.object(|r, key| match key {
        "name" => r.first(&mut name, |r| read_string(r, "location name")),
        "kind" => r.first(&mut kind, |r| {
            r.str()?.ok_or_else(|| ReadError::shape("location kind: expected string"))
        }),
        "path" => r.first(&mut path, |r| {
            read_list(r, "location path: expected array", label_from_reader)
        }),
        _ => r.skip(),
    })?;
    let name = field(name, "name", "location")?;
    let root = match &*field(kind, "kind", "location")? {
        "object" => Root::Object(name),
        "method" => Root::Method(name),
        other => return Err(ReadError::Shape(format!("unknown location kind '{other}'"))),
    };
    let path = field(path, "path", "location")?;
    Ok(Loc { root, path })
}

/// Decodes one label of a location's path: `{"named": …}` or a reserved
/// label's name.
fn label_from_reader(r: &mut Reader<'_>) -> Result<Label, ReadError> {
    if r.kind()? == Kind::Object {
        let mut named = None;
        r.object(|r, key| match key {
            "named" => r.first(&mut named, |r| read_string(r, "named label")),
            _ => r.skip(),
        })?;
        return named
            .unwrap_or_else(|| Err(ReadError::shape("location label: expected string")))
            .map(Label::Named);
    }
    match r.str()?.as_deref() {
        Some("in") => Ok(Label::In),
        Some("out") => Ok(Label::Out),
        Some("elem") => Ok(Label::Elem),
        Some(other) => Err(ReadError::Shape(format!("unknown label '{other}'"))),
        None => Err(ReadError::shape("location label: expected string")),
    }
}

/// Encodes a library (name, object definitions, method definitions).
pub fn library_to_value(lib: &Library) -> Value {
    let objects: Vec<Value> = lib
        .objects
        .iter()
        .map(|(name, rec)| {
            Value::obj([
                ("name", Value::from(name.as_str())),
                ("fields", record_ty_to_value(rec)),
            ])
        })
        .collect();
    let methods: Vec<Value> = lib
        .methods
        .iter()
        .map(|(name, sig)| {
            Value::obj([
                ("name", Value::from(name.as_str())),
                ("params", record_ty_to_value(&sig.params)),
                ("response", syn_ty_to_value(&sig.response)),
                ("doc", Value::from(sig.doc.as_str())),
            ])
        })
        .collect();
    Value::obj([
        ("name", Value::from(lib.name.as_str())),
        ("objects", Value::Array(objects)),
        ("methods", Value::Array(methods)),
    ])
}

/// Decodes a library.
///
/// # Errors
///
/// A syntax error, or a shape error on malformed input.
pub fn library_from_reader(r: &mut Reader<'_>) -> Result<Library, ReadError> {
    let (mut name, mut objects, mut methods) = (None, None, None);
    r.object(|r, key| match key {
        "name" => r.first(&mut name, |r| read_string(r, "library name")),
        "objects" => r.first(&mut objects, |r| {
            read_list(r, "library objects: expected array", |r| {
                let (mut name, mut fields) = (None, None);
                r.object(|r, key| match key {
                    "name" => r.first(&mut name, |r| read_string(r, "object name")),
                    "fields" => r.first(&mut fields, record_ty_from_reader),
                    _ => r.skip(),
                })?;
                Ok((field(name, "name", "object")?, field(fields, "fields", "object")?))
            })
        }),
        "methods" => r.first(&mut methods, |r| {
            read_list(r, "library methods: expected array", |r| {
                let (mut name, mut params, mut response, mut doc) = (None, None, None, None);
                r.object(|r, key| match key {
                    "name" => r.first(&mut name, |r| read_string(r, "method name")),
                    "params" => r.first(&mut params, record_ty_from_reader),
                    "response" => r.first(&mut response, syn_ty_from_reader),
                    "doc" => r.first(&mut doc, |r| read_string(r, "method doc")),
                    _ => r.skip(),
                })?;
                let name = field(name, "name", "method")?;
                let sig = MethodSig {
                    params: field(params, "params", "method")?,
                    response: field(response, "response", "method")?,
                    doc: field(doc, "doc", "method")?,
                };
                Ok((name, sig))
            })
        }),
        _ => r.skip(),
    })?;
    let mut lib = Library::new(field(name, "name", "library")?);
    lib.objects.extend(field(objects, "objects", "library")?);
    lib.methods.extend(field(methods, "methods", "library")?);
    Ok(lib)
}

/// Decodes a library from an already-parsed value, by printing it and
/// reading the text with [`library_from_reader`].
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input.
pub fn library_from_value(v: &Value) -> Result<Library, DecodeError> {
    decode_value(v, library_from_reader).map_err(|e| DecodeError(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig7_library;

    #[test]
    fn syn_ty_roundtrips() {
        let tys = [
            SynTy::Str,
            SynTy::Int,
            SynTy::Bool,
            SynTy::Float,
            SynTy::object("User"),
            SynTy::array(SynTy::array(SynTy::object("Channel"))),
            SynTy::Record(RecordTy {
                fields: vec![FieldTy {
                    name: "x".into(),
                    optional: true,
                    ty: SynTy::array(SynTy::Str),
                }],
            }),
        ];
        for ty in tys {
            assert_eq!(decode_value(&syn_ty_to_value(&ty), syn_ty_from_reader), Ok(ty));
        }
    }

    #[test]
    fn sem_ty_roundtrips() {
        let tys = [
            SemTy::Group(GroupId(17)),
            SemTy::object("User"),
            SemTy::array(SemTy::Group(GroupId(0))),
            SemTy::Record(SemRecordTy {
                fields: vec![SemFieldTy {
                    name: "y".into(),
                    optional: false,
                    ty: SemTy::Group(GroupId(3)),
                }],
            }),
        ];
        for ty in tys {
            assert_eq!(decode_value(&sem_ty_to_value(&ty), sem_ty_from_reader), Ok(ty));
        }
    }

    #[test]
    fn loc_roundtrips_including_reserved_field_names() {
        // A field literally called "in" must not decode as `Label::In` —
        // the structural encoding keeps them apart.
        let tricky = Loc::object("Weird").field("in").field("0");
        let back = decode_value(&loc_to_value(&tricky), loc_from_reader).unwrap();
        assert_eq!(back, tricky);
        let loc = Loc::method("c_list").child(Label::Out).elem().field("creator");
        assert_eq!(decode_value(&loc_to_value(&loc), loc_from_reader), Ok(loc));
    }

    #[test]
    fn library_roundtrips() {
        let lib = fig7_library();
        let back = library_from_value(&library_to_value(&lib)).unwrap();
        assert_eq!(back, lib);
    }

    #[test]
    fn decode_rejects_malformed() {
        use apiphany_json::json;
        assert!(decode_value(&json!("nope"), syn_ty_from_reader).is_err());
        assert!(decode_value(&json!(42), syn_ty_from_reader).is_err());
        assert!(decode_value(&json!({"group": -1}), sem_ty_from_reader).is_err());
        let loc = json!({"kind": "x", "name": "y", "path": []});
        assert!(decode_value(&loc, loc_from_reader).is_err());
        assert!(library_from_value(&json!({"name": "x"})).is_err());
    }
}
