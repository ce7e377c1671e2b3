//! JSON serialization: compact and pretty printers.

use crate::Value;

impl Value {
    /// Serializes to compact JSON (no whitespace).
    ///
    /// ```
    /// use apiphany_json::json;
    /// assert_eq!(json!({"a": [1, true]}).to_json(), r#"{"a":[1,true]}"#);
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the compact JSON of [`Value::to_json`] to `out`, for
    /// callers that reuse one buffer across many values.
    pub fn write_json(&self, out: &mut String) {
        write_value(out, self, None, 0);
    }

    /// Serializes to human-readable JSON with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        write_value(&mut out, self, Some(2), 0);
        out
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(out, *f),
        Value::Str(s) => write_json_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_json_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_float(out: &mut String, f: f64) {
    if f.is_nan() || f.is_infinite() {
        // JSON has no NaN/Inf; emit null like most tolerant printers.
        out.push_str("null");
    } else if f == f.trunc() && f.abs() < 1e15 {
        // Keep a trailing ".0" so the value round-trips as a float.
        out.push_str(&format!("{f:.1}"));
    } else {
        out.push_str(&format!("{f}"));
    }
}

/// Appends `s` as a compact-JSON string literal, quoted and escaped as
/// [`Value::write_json`] writes strings, for callers that print
/// structures of their own.
pub fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use crate::{json, parse, Value};

    #[test]
    fn compact_roundtrip() {
        let v = json!({"s": "a\"b\\c\nd", "n": [1, 2.5, null, true]});
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn pretty_is_parseable_and_indented() {
        let v = json!({"a": {"b": [1]}});
        let text = v.to_json_pretty();
        assert!(text.contains("\n  "));
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn float_formatting_roundtrips_as_float() {
        let v = Value::Float(3.0);
        assert_eq!(v.to_json(), "3.0");
        assert!(matches!(parse("3.0").unwrap(), Value::Float(_)));
    }

    #[test]
    fn control_chars_escaped() {
        let v = Value::Str("\u{0001}".into());
        assert_eq!(v.to_json(), "\"\\u0001\"");
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn nan_prints_as_null() {
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
    }
}
