//! [`parse`]: a whole JSON document into a [`Value`], read by the
//! crate's one tokenizer, [`Reader`].

use crate::{Reader, Value};

/// An error produced by [`parse`], with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJsonError {
    /// Byte offset at which the error was detected.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseJsonError {}

/// Parses a complete JSON document: [`Reader::value`] plus a check that
/// nothing but whitespace follows.
///
/// # Errors
///
/// Returns [`ParseJsonError`] on malformed input, trailing garbage, or
/// nesting deeper than 200 levels.
///
/// ```
/// use apiphany_json::parse;
/// assert!(parse("[1, 2, 3]").is_ok());
/// assert!(parse("[1, 2,]").is_err());
/// ```
pub fn parse(input: &str) -> Result<Value, ParseJsonError> {
    let mut reader = Reader::untracked(input);
    let v = reader.value()?;
    reader.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("3.5").unwrap(), Value::Float(3.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn containers() {
        assert_eq!(parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), Value::Object(vec![]));
        assert_eq!(
            parse(r#"{"a": [1, {"b": null}]}"#).unwrap(),
            json!({"a": [1, {"b": null}]})
        );
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\/d\n\tA""#).unwrap(),
            Value::Str("a\"b\\c/d\n\tA".into())
        );
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("😀".into()));
        assert_eq!(parse("\"héllo\"").unwrap(), Value::Str("héllo".into()));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "", "tru", "[1,]", "{\"a\":}", "{a: 1}", "\"unterminated", "01", "1.",
            "1e", "[1] extra", "\"\\q\"", "\"\u{0001}\"", "+1", "--1", "\"\\uD800\"",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(300) + &"]".repeat(300);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn i64_overflow_falls_back_to_float() {
        let v = parse("99999999999999999999").unwrap();
        assert!(matches!(v, Value::Float(_)));
    }
}
