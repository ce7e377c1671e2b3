//! A minimal JSON implementation: the [`Value`] model shared by the whole
//! APIphany reproduction, plus a strict parser ([`parse`]) and printers
//! ([`Value::to_json`], [`Value::to_json_pretty`]).
//!
//! The reproduction deliberately avoids `serde_json` (not in the allowed
//! offline dependency set); OpenAPI specs, witnesses, and retrospective
//! execution all operate on this [`Value`].
//!
//! # Examples
//!
//! ```
//! use apiphany_json::{parse, Value};
//!
//! let v = parse(r#"{"name": "general", "members": ["U1", "U2"]}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Value::as_str), Some("general"));
//! assert_eq!(v.get("members").unwrap().as_array().unwrap().len(), 2);
//! ```

mod parse;
mod print;

pub use parse::{parse, ParseJsonError};
pub use print::write_json_string;

/// A JSON value.
///
/// Object fields preserve insertion order (important for witness
/// round-tripping and for stable, reproducible output). Equality is
/// structural and, for objects, *order-insensitive* on keys so that
/// semantically equal API responses compare equal regardless of field order.
#[derive(Debug, Clone)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (JSON numbers without fraction/exponent).
    Int(i64),
    /// A floating point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: ordered list of `(key, value)` pairs.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// An empty object.
    pub fn empty_object() -> Value {
        Value::Object(Vec::new())
    }

    /// Builds an object from `(key, value)` pairs.
    ///
    /// ```
    /// use apiphany_json::Value;
    /// let v = Value::obj([("id", Value::from("C1")), ("ok", Value::from(true))]);
    /// assert_eq!(v.get("id").and_then(Value::as_str), Some("C1"));
    /// ```
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array from values.
    pub fn arr(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Array(items.into_iter().collect())
    }

    /// Returns the value of field `key` if `self` is an object with it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Returns the `i`-th element if `self` is an array.
    pub fn idx(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Array(items) => items.get(i),
            _ => None,
        }
    }

    /// Returns the string slice if `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer if `self` is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean if `self` is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the float if `self` is a number (ints are widened).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Returns the elements if `self` is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Returns the fields if `self` is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// True iff `self` is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True iff `self` is a scalar (null, bool, number, or string).
    pub fn is_scalar(&self) -> bool {
        !matches!(self, Value::Array(_) | Value::Object(_))
    }

    /// Inserts (or replaces) a field on an object. Panics if `self` is not an
    /// object — callers construct objects explicitly.
    pub fn set(&mut self, key: &str, value: Value) {
        match self {
            Value::Object(fields) => {
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
            }
            _ => panic!("Value::set on non-object"),
        }
    }

    /// Follows a `.`-separated path of field names and array indices.
    ///
    /// ```
    /// use apiphany_json::parse;
    /// let v = parse(r#"{"a": [{"b": 1}]}"#).unwrap();
    /// assert_eq!(v.path(&["a", "0", "b"]).unwrap().as_int(), Some(1));
    /// ```
    pub fn path(&self, segments: &[&str]) -> Option<&Value> {
        let mut cur = self;
        for seg in segments {
            cur = match cur {
                Value::Object(_) => cur.get(seg)?,
                Value::Array(_) => cur.idx(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Total number of nodes in the value tree (used in size heuristics).
    pub fn node_count(&self) -> usize {
        match self {
            Value::Array(items) => 1 + items.iter().map(Value::node_count).sum::<usize>(),
            Value::Object(fields) => 1 + fields.iter().map(|(_, v)| v.node_count()).sum::<usize>(),
            _ => 1,
        }
    }

    /// Maximum nesting depth (a scalar has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            Value::Array(items) => 1 + items.iter().map(Value::depth).max().unwrap_or(0),
            Value::Object(fields) => {
                1 + fields.iter().map(|(_, v)| v.depth()).max().unwrap_or(0)
            }
            _ => 1,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                *a as f64 == *b
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => a == b,
            (Value::Object(a), Value::Object(b)) => {
                // Key-order-insensitive comparison; duplicate keys compare
                // positionally among themselves (first occurrence wins in
                // `get`, and witnesses never contain duplicates).
                a.len() == b.len()
                    && a.iter().all(|(k, v)| {
                        other.get(k).is_some_and(|w| v == w)
                    })
                    && b.iter().all(|(k, v)| self.get(k).is_some_and(|w| v == w))
            }
            _ => false,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i64::from(i))
    }
}

impl From<u32> for Value {
    fn from(i: u32) -> Value {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Value {
        Value::Int(i as i64)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Array(items)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        match v {
            Some(v) => v.into(),
            None => Value::Null,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// Builds a [`Value`] from a JSON-like literal.
///
/// Object values and array elements may be nested literals or arbitrary
/// Rust expressions implementing `Into<Value>` (a tt-muncher in the style
/// of `serde_json::json!`).
///
/// ```
/// use apiphany_json::{json, Value};
/// let id = "C024BE91L";
/// let v = json!({ "ok": true, "channel": { "id": id, "num_members": 3 } });
/// assert_eq!(v.path(&["channel", "id"]).unwrap().as_str(), Some("C024BE91L"));
/// ```
#[macro_export]
macro_rules! json {
    ($($json:tt)+) => { $crate::json_internal!($($json)+) };
}

/// Implementation detail of [`json!`].
#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    // ----- array element munching -----
    (@array [$($elems:expr,)*]) => { ::std::vec![$($elems,)*] };
    (@array [$($elems:expr),*]) => { ::std::vec![$($elems),*] };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // ----- object entry munching -----
    (@object $object:ident () () ()) => {};
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        $object.push((($($key)+).into(), $value));
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        $object.push((($($key)+).into(), $value));
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    (@object $object:ident () ($key:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($key) ($($rest)*) ($($rest)*));
    };

    // ----- primary entry points -----
    (null) => { $crate::Value::Null };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_internal!(@array [] $($tt)+)) };
    ({}) => { $crate::Value::Object(::std::vec::Vec::new()) };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            #![allow(clippy::vec_init_then_push)]
            let mut object: ::std::vec::Vec<(::std::string::String, $crate::Value)> =
                ::std::vec::Vec::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => { $crate::Value::from($other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_and_path() {
        let v = json!({"a": {"b": [1, 2, {"c": "x"}]}});
        assert_eq!(v.path(&["a", "b", "2", "c"]).unwrap().as_str(), Some("x"));
        assert_eq!(v.path(&["a", "nope"]), None);
        assert_eq!(v.path(&["a", "b", "9"]), None);
    }

    #[test]
    fn object_equality_is_order_insensitive() {
        let a = json!({"x": 1, "y": 2});
        let b = json!({"y": 2, "x": 1});
        assert_eq!(a, b);
        let c = json!({"x": 1, "y": 3});
        assert_ne!(a, c);
        let d = json!({"x": 1});
        assert_ne!(a, d);
    }

    #[test]
    fn numbers_compare_across_int_float() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn set_replaces_and_appends() {
        let mut v = Value::empty_object();
        v.set("a", Value::from(1));
        v.set("b", Value::from(2));
        v.set("a", Value::from(10));
        assert_eq!(v.get("a").unwrap().as_int(), Some(10));
        assert_eq!(v.as_object().unwrap().len(), 2);
    }

    #[test]
    fn node_count_and_depth() {
        let v = json!({"a": [1, 2], "b": "s"});
        assert_eq!(v.node_count(), 5);
        assert_eq!(v.depth(), 3);
        assert_eq!(Value::Null.depth(), 1);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some("y")), Value::Str("y".into()));
    }

    #[test]
    fn is_scalar() {
        assert!(Value::Null.is_scalar());
        assert!(Value::from("s").is_scalar());
        assert!(!json!([1]).is_scalar());
        assert!(!json!({}).is_scalar());
    }
}
