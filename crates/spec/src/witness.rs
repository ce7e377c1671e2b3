//! Witnesses: observed successful API method invocations (paper §2.1).
//!
//! A witness is a triple `⟨f, v_in, v_out⟩` of method name, argument record,
//! and response value. Witness sets are serialized as JSON arrays so they
//! can be inspected, checked in, or re-used across runs (the reproduction's
//! stand-in for the paper's HAR captures).

use std::fmt;

use apiphany_json::{ReadError, Reader, Value};

/// One observed method invocation `⟨f, v_in, v_out⟩`.
#[derive(Debug, Clone, PartialEq)]
pub struct Witness {
    /// The method that was called.
    pub method: String,
    /// Named arguments (multiple arguments form a record).
    pub args: Vec<(String, Value)>,
    /// The response value.
    pub output: Value,
}

impl Witness {
    /// Creates a witness from a method name, arguments, and output.
    pub fn new(
        method: impl Into<String>,
        args: impl IntoIterator<Item = (impl Into<String>, Value)>,
        output: Value,
    ) -> Witness {
        Witness {
            method: method.into(),
            args: args.into_iter().map(|(k, v)| (k.into(), v)).collect(),
            output,
        }
    }

    /// The argument names, sorted (the key used for the paper's
    /// "approximate match": same method, same argument *names*).
    pub fn arg_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.args.iter().map(|(k, _)| k.as_str()).collect();
        names.sort_unstable();
        names
    }

    /// Looks up an argument by name.
    pub fn arg(&self, name: &str) -> Option<&Value> {
        self.args.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// The arguments as a JSON object value (`v_in`).
    pub fn args_value(&self) -> Value {
        Value::Object(self.args.clone())
    }

    /// Serializes to a JSON object.
    pub fn to_value(&self) -> Value {
        Value::obj([
            ("method", Value::from(self.method.as_str())),
            ("args", self.args_value()),
            ("output", self.output.clone()),
        ])
    }

    /// Reads a witness from the JSON text of a [`Witness::to_value`]
    /// object. Its arguments and output are stored as [`Value`]s.
    ///
    /// # Errors
    ///
    /// A syntax error, or a shape error (`missing method`, `missing args`
    /// or `missing output`) when a field is missing or of the wrong type.
    pub fn from_reader(r: &mut Reader<'_>) -> Result<Witness, ReadError> {
        let (mut method, mut args, mut output) = (None, None, None);
        r.object(|r, key| match key {
            "method" => r.first(&mut method, |r| Ok(r.str()?)),
            "args" => r.first(&mut args, |r| Ok(r.value()?)),
            "output" => r.first(&mut output, |r| Ok(r.value()?)),
            _ => r.skip(),
        })?;
        let Some(Ok(Some(method))) = method else {
            return Err(ReadError::shape("missing method"));
        };
        let Some(Ok(Value::Object(args))) = args else {
            return Err(ReadError::shape("missing args"));
        };
        let Some(Ok(output)) = output else {
            return Err(ReadError::shape("missing output"));
        };
        Ok(Witness { method: method.into_owned(), args, output })
    }
}

/// Error decoding a [`Witness`] from JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessDecodeError(pub String);

impl fmt::Display for WitnessDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "witness decode error: {}", self.0)
    }
}

impl std::error::Error for WitnessDecodeError {}

/// Serializes a witness set to a JSON array value.
pub fn witnesses_to_json(witnesses: &[Witness]) -> Value {
    Value::Array(witnesses.iter().map(Witness::to_value).collect())
}

/// Reads a witness set: a JSON array of witness objects.
///
/// # Errors
///
/// A syntax error, `expected array`, or the first malformed witness's
/// shape error.
pub fn witnesses_from_reader(r: &mut Reader<'_>) -> Result<Vec<Witness>, ReadError> {
    crate::codec::read_list(r, "expected array", Witness::from_reader)
}

/// Deserializes a witness set from an already-parsed JSON array value, by
/// printing it and reading the text with [`witnesses_from_reader`].
///
/// # Errors
///
/// Returns [`WitnessDecodeError`] if the value is not an array of valid
/// witness objects.
pub fn witnesses_from_json(v: &Value) -> Result<Vec<Witness>, WitnessDecodeError> {
    crate::codec::decode_value(v, witnesses_from_reader)
        .map_err(|e| WitnessDecodeError(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apiphany_json::json;

    #[test]
    fn roundtrip() {
        let w = Witness::new(
            "u_info",
            [("user", Value::from("UJ5RHEG4S"))],
            json!({"id": "UJ5RHEG4S", "name": "x"}),
        );
        let set = vec![w.clone()];
        let back = witnesses_from_json(&witnesses_to_json(&set)).unwrap();
        assert_eq!(back, set);
        assert_eq!(back[0].arg("user").unwrap().as_str(), Some("UJ5RHEG4S"));
    }

    #[test]
    fn arg_names_sorted() {
        let w = Witness::new(
            "f",
            [("zeta", Value::Null), ("alpha", Value::Null)],
            Value::Null,
        );
        assert_eq!(w.arg_names(), vec!["alpha", "zeta"]);
    }

    #[test]
    fn decode_rejects_malformed() {
        let witness = |v: Value| Witness::from_reader(&mut Reader::new(&v.to_json()));
        assert!(witness(json!({"method": "f"})).is_err());
        assert!(witness(json!({"args": {}, "output": null})).is_err());
        assert!(witnesses_from_json(&json!({"not": "array"})).is_err());
    }
}
