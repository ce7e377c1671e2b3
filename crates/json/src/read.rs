//! [`Reader`]: the strict pull reader behind [`parse`](crate::parse) and
//! the typed decoders.

use std::borrow::Cow;

use crate::print::write_float;
use crate::{ParseJsonError, Value};

/// Maximum nesting depth the reader accepts.
const MAX_DEPTH: usize = 200;

/// Why a typed read failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The text is not JSON: the error [`parse`](crate::parse) reports.
    Syntax(ParseJsonError),
    /// The JSON does not have the shape the decoder expects.
    Shape(String),
}

impl ReadError {
    /// A shape error with the given message.
    pub fn shape(message: impl Into<String>) -> ReadError {
        ReadError::Shape(message.into())
    }
}

impl From<ParseJsonError> for ReadError {
    fn from(e: ParseJsonError) -> ReadError {
        ReadError::Syntax(e)
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Syntax(e) => e.fmt(f),
            ReadError::Shape(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for ReadError {}

/// One decoded field of an object: `None` until its key is read, then
/// the value or the shape error its read returned (see [`Reader::first`]).
pub type Slot<T> = Option<Result<T, ReadError>>;

/// The JSON type of the next value (see [`Reader::kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` or `false`
    Bool,
    /// A number.
    Number,
    /// A string.
    String,
    /// An array.
    Array,
    /// An object.
    Object,
}

/// A strict pull reader over JSON text: the one tokenizer behind
/// [`parse`](crate::parse) and behind the typed decoders that build model
/// structs straight from text, without a [`Value`] tree in between.
///
/// The reader accepts exactly the JSON grammar (RFC 8259): no comments,
/// no trailing commas, no leading `+`, no bare control characters inside
/// strings. Nesting deeper than 200 levels is refused wherever it
/// occurs, so recursion stays safe on adversarial inputs. Every error
/// carries the byte offset at which it was detected.
///
/// A decoder pulls one value at a time: [`Reader::object`] and
/// [`Reader::array`] walk containers, [`Reader::str`], [`Reader::int`] and
/// [`Reader::bool`] read scalars, [`Reader::value`] builds a [`Value`]
/// where a model stores one, and [`Reader::skip`] passes over anything
/// else. Every read consumes exactly one whole value, also when the value
/// has another shape than the decoder wants: a scalar read of another
/// type skips the value and returns `None`, a container read of another
/// type skips it, and a shape error raised inside an array is returned
/// only once the array is consumed. An object's fields go through
/// [`Reader::first`], which keeps each field's shape error in a [`Slot`],
/// so a decoder reads on and reports its errors in an order of its own;
/// only a syntax error ends the read at once.
///
/// ```
/// use apiphany_json::{ReadError, Reader, Slot};
///
/// let mut r = Reader::new(r#"{"ids": [3, 4], "name": "general"}"#);
/// let (mut name, mut ids): (Slot<String>, Slot<Vec<i64>>) = (None, None);
/// r.object(|r, key| match key {
///     "name" => r.first(&mut name, |r| {
///         let name = r.str()?.map(|s| s.into_owned());
///         name.ok_or_else(|| ReadError::shape("name: expected string"))
///     }),
///     "ids" => r.first(&mut ids, |r| {
///         let mut ids = Vec::new();
///         r.array(|r| {
///             ids.push(r.int()?.ok_or_else(|| ReadError::shape("id: expected int"))?);
///             Ok(())
///         })?;
///         Ok(ids)
///     }),
///     _ => r.skip(),
/// })
/// .unwrap();
/// r.finish().unwrap();
/// assert_eq!(name, Some(Ok("general".to_string())));
/// assert_eq!(ids, Some(Ok(vec![3, 4])));
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers currently open through [`Reader::object`] and
    /// [`Reader::array`].
    depth: usize,
    /// Whether everything read so far is exactly what
    /// [`Value::write_json`] prints for it.
    canonical: bool,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader { text, pos: 0, depth: 0, canonical: true }
    }

    /// A reader that does not track [`Reader::is_canonical`], for
    /// [`parse`](crate::parse), which never asks.
    pub(crate) fn untracked(text: &'a str) -> Reader<'a> {
        Reader { canonical: false, ..Reader::new(text) }
    }

    /// Whether the text read so far is byte for byte what
    /// [`Value::write_json`] prints for the values it holds: no
    /// whitespace between tokens, only the escapes the printer writes,
    /// and numbers in the printer's form. On such text the compact print
    /// of a parsed value is the text itself, so a hash of the text stands
    /// for a hash of the print.
    pub fn is_canonical(&self) -> bool {
        self.canonical
    }

    /// Checks that only whitespace follows the value read.
    ///
    /// # Errors
    ///
    /// `trailing characters after JSON value` otherwise.
    pub fn finish(&mut self) -> Result<(), ParseJsonError> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after JSON value"))
        }
    }

    /// The type of the next value, after skipping whitespace; nothing of
    /// the value is consumed.
    ///
    /// # Errors
    ///
    /// A syntax error when no value can start here, or when it would
    /// nest deeper than 200 levels.
    pub fn kind(&mut self) -> Result<Kind, ParseJsonError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => Ok(Kind::Object),
            Some(b'[') => Ok(Kind::Array),
            Some(b'"') => Ok(Kind::String),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Reads the next value into a [`Value`].
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn value(&mut self) -> Result<Value, ParseJsonError> {
        self.skip_ws();
        self.value_at(self.depth)
    }

    /// Skips the next value, checking its syntax.
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn skip(&mut self) -> Result<(), ParseJsonError> {
        self.value().map(drop)
    }

    /// Reads the next value if it is a string, borrowing it from the text
    /// when it has no escapes; skips it and returns `None` otherwise.
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn str(&mut self) -> Result<Option<Cow<'a, str>>, ParseJsonError> {
        if self.kind()? == Kind::String {
            self.string().map(Some)
        } else {
            self.skip().map(|()| None)
        }
    }

    /// Reads the next value; returns it if it is an integer, as
    /// [`Value::as_int`] would (a number with a fraction or an exponent,
    /// or one beyond `i64`, is not).
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn int(&mut self) -> Result<Option<i64>, ParseJsonError> {
        Ok(self.value()?.as_int())
    }

    /// Reads the next value; returns it if it is a boolean.
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn bool(&mut self) -> Result<Option<bool>, ParseJsonError> {
        Ok(self.value()?.as_bool())
    }

    /// Reads the next value as an object, calling `field` with each key;
    /// `field` must read the key's value. A value that is not an object
    /// is skipped, as an object with no keys.
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str) -> Result<(), ParseJsonError>,
    ) -> Result<(), ParseJsonError> {
        if self.kind()? != Kind::Object {
            return self.skip();
        }
        self.pos += 1;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                field(self, &key)?;
                self.skip_ws();
                match self.bump() {
                    Some(b',') => {}
                    Some(b'}') => break,
                    _ => return Err(self.err("expected ',' or '}' in object")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads the next value as an array, calling `item` once per element;
    /// `item` must read the element. Returns `false`, having skipped the
    /// value, when it is not an array. When `item` returns a shape error,
    /// the remaining elements are skipped and the error is returned after
    /// the array's closing bracket.
    ///
    /// # Errors
    ///
    /// A syntax error, or the first shape error `item` returned.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), ReadError>,
    ) -> Result<bool, ReadError> {
        if self.kind()? != Kind::Array {
            self.skip()?;
            return Ok(false);
        }
        self.pos += 1;
        self.depth += 1;
        let mut failed = None;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                if failed.is_some() {
                    self.skip()?;
                } else {
                    match item(self) {
                        Ok(()) => {}
                        Err(ReadError::Shape(message)) => failed = Some(message),
                        Err(syntax) => return Err(syntax),
                    }
                }
                self.skip_ws();
                match self.bump() {
                    Some(b',') => {}
                    Some(b']') => break,
                    _ => return Err(self.err("expected ',' or ']' in array").into()),
                }
            }
        }
        self.depth -= 1;
        failed.map_or(Ok(true), |message| Err(ReadError::Shape(message)))
    }

    /// Reads the next value into `slot` with `read`, unless the slot is
    /// already filled, when the value is skipped: of two equal keys the
    /// first wins, as with [`Value::get`]. A shape error is kept in the
    /// slot, for the decoder to report in its own order.
    ///
    /// # Errors
    ///
    /// A syntax error.
    pub fn first<T>(
        &mut self,
        slot: &mut Slot<T>,
        read: impl FnOnce(&mut Self) -> Result<T, ReadError>,
    ) -> Result<(), ParseJsonError> {
        if slot.is_some() {
            return self.skip();
        }
        match read(self) {
            Err(ReadError::Syntax(e)) => Err(e),
            read => {
                *slot = Some(read);
                Ok(())
            }
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseJsonError {
        ParseJsonError { offset: self.pos, message: msg.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        let start = self.pos;
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        if self.pos != start {
            self.canonical = false;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseJsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    /// The value starting here (after whitespace), nested `depth` deep.
    fn value_at(&mut self, depth: usize) -> Result<Value, ParseJsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object_value(depth),
            Some(b'[') => self.array_value(depth),
            Some(b'"') => Ok(Value::Str(self.string()?.into_owned())),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn keyword(&mut self, kw: &str, v: Value) -> Result<Value, ParseJsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected keyword '{kw}'")))
        }
    }

    fn object_value(&mut self, depth: usize) -> Result<Value, ParseJsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?.into_owned();
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value_at(depth + 1)?;
            fields.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(fields)),
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array_value(&mut self, depth: usize) -> Result<Value, ParseJsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value_at(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    /// The string starting here: borrowed from the text up to its closing
    /// quote when it holds no escape, built char by char from the first
    /// escape on otherwise.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseJsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let mut end = start;
        loop {
            match bytes.get(end) {
                None => {
                    self.pos = end;
                    return Err(self.err("unterminated string"));
                }
                Some(b'"') => {
                    self.pos = end + 1;
                    return Ok(Cow::Borrowed(&self.text[start..end]));
                }
                Some(b'\\') => break,
                Some(&c) if c < 0x20 => {
                    self.pos = end + 1;
                    return Err(self.err("bare control character in string"));
                }
                Some(_) => end += 1,
            }
        }
        let mut out = String::from(&self.text[start..end]);
        self.pos = end;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(Cow::Owned(out)),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => {
                        // The printer writes '/' bare.
                        self.canonical = false;
                        out.push('/');
                    }
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let digits = self.pos;
                        let hi = self.hex4()?;
                        let ch = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require a following \uXXXX low half.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("unpaired surrogate escape"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                        } else if (0xDC00..0xE000).contains(&hi) {
                            return Err(self.err("unexpected low surrogate"));
                        } else {
                            char::from_u32(hi).ok_or_else(|| self.err("invalid code point"))?
                        };
                        // The printer writes `\u` only for control characters
                        // without a short escape, in lowercase hex.
                        if self.canonical {
                            let mut printed = String::new();
                            crate::write_json_string(&mut printed, &ch.to_string());
                            self.canonical = printed[1..printed.len() - 1]
                                == self.text[digits - 2..self.pos];
                        }
                        out.push(ch);
                    }
                    _ => return Err(self.err("invalid escape sequence")),
                },
                Some(c) if c < 0x20 => {
                    return Err(self.err("bare control character in string"));
                }
                Some(c) if c < 0x80 => out.push(c as char),
                Some(first) => {
                    // Multi-byte UTF-8: the input is a &str so the bytes are
                    // valid; reassemble the char from its encoded length.
                    let len = utf8_len(first);
                    let start = self.pos - 1;
                    self.pos = start + len;
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseJsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, ParseJsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        let value = if is_float {
            Value::Float(text.parse::<f64>().map_err(|_| self.err("number out of range"))?)
        } else {
            match text.parse::<i64>() {
                Ok(i) => Value::Int(i),
                // Fall back to float for integers that overflow i64.
                Err(_) => Value::Float(
                    text.parse::<f64>().map_err(|_| self.err("number out of range"))?,
                ),
            }
        };
        if self.canonical {
            self.canonical = match value {
                Value::Float(f) => {
                    let mut printed = String::new();
                    write_float(&mut printed, f);
                    printed == text
                }
                _ => text != "-0",
            };
        }
        Ok(value)
    }
}

fn utf8_len(first: u8) -> usize {
    if first >= 0xF0 {
        4
    } else if first >= 0xE0 {
        3
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// Reads `text` as an object of `{"n": int}` members, returning the
    /// slot of its `n` key.
    fn read_n(text: &str) -> Result<Slot<i64>, ReadError> {
        let mut r = Reader::new(text);
        let mut n = None;
        r.object(|r, key| match key {
            "n" => r.first(&mut n, |r| r.int()?.ok_or_else(|| ReadError::shape("n: expected int"))),
            _ => r.skip(),
        })?;
        r.finish()?;
        Ok(n)
    }

    #[test]
    fn the_first_of_two_equal_keys_wins() {
        assert_eq!(read_n(r#"{"n": 1, "n": "x"}"#), Ok(Some(Ok(1))));
        assert_eq!(
            read_n(r#"{"n": "x", "n": 1}"#),
            Ok(Some(Err(ReadError::shape("n: expected int"))))
        );
    }

    #[test]
    fn a_wrong_shape_is_consumed_whole() {
        // The wrong-typed value is skipped, and the reader goes on to the
        // end of the object and of the text.
        assert_eq!(
            read_n(r#"{"n": {"deep": [1, {"x": null}]}, "m": 2}"#),
            Ok(Some(Err(ReadError::shape("n: expected int"))))
        );
        // A non-object reads as an object without keys.
        assert_eq!(read_n("[1, 2]"), Ok(None));
    }

    #[test]
    fn a_shape_error_inside_an_array_waits_for_its_end() {
        let mut r = Reader::new("[1, \"x\", 3, [4]] ");
        let mut seen = Vec::new();
        let read = r.array(|r| {
            seen.push(r.int()?.ok_or_else(|| ReadError::shape("expected int"))?);
            Ok(())
        });
        assert_eq!(read, Err(ReadError::shape("expected int")));
        assert_eq!(seen, vec![1]);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn syntax_errors_match_parse_and_come_first() {
        for text in [
            r#"{"n": "x" "m": 1}"#,
            r#"{"n": 1, "m": [1,]}"#,
            r#"{"n": tru}"#,
            r#"{"n": 1} x"#,
            r#"{"n": "\q"}"#,
            "{\"n\": \"\u{0001}\"}",
            r#"{"n": 1"#,
            "",
        ] {
            let expected = parse(text).unwrap_err();
            assert_eq!(read_n(text), Err(ReadError::Syntax(expected)), "{text:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_in_typed_reads_as_in_parse() {
        fn nest(r: &mut Reader<'_>) -> Result<usize, ReadError> {
            let mut depth = None;
            r.object(|r, key| match key {
                "a" => r.first(&mut depth, nest),
                _ => r.skip(),
            })?;
            Ok(depth.unwrap_or(Ok(0))? + 1)
        }
        for n in [150, 200, 201, 10_000] {
            let text = format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n));
            let typed = nest(&mut Reader::new(&text)).map_err(|e| e.to_string());
            match parse(&text) {
                Ok(_) => assert_eq!(typed, Ok(n + 1), "{n}"),
                Err(e) => assert_eq!(typed, Err(e.to_string()), "{n}"),
            }
        }
    }

    #[test]
    fn strings_borrow_when_they_hold_no_escape() {
        let mut r = Reader::new(r#"["plain", "esc\"aped", "hé"]"#);
        let mut read = Vec::new();
        r.array(|r| {
            read.push(r.str()?.unwrap());
            Ok(())
        })
        .unwrap();
        assert!(matches!(read[0], Cow::Borrowed("plain")));
        assert_eq!(read[1], "esc\"aped");
        assert_eq!(read[2], "hé");
    }

    #[test]
    fn canonical_means_the_printer_would_write_these_bytes() {
        let canonical = |text: &str| {
            let mut r = Reader::new(text);
            r.value().unwrap();
            r.finish().unwrap();
            r.is_canonical()
        };
        for text in [
            r#"{"a":[1,-2,0.5,3.0,true,null],"b":"x\"\\\n\u0001y"}"#,
            "100000000000000000000",
            "[]",
        ] {
            assert_eq!(parse(text).unwrap().to_json() == text, canonical(text), "{text}");
            assert!(canonical(text), "{text}");
        }
        for text in [
            r#"{"a": 1}"#,
            " 1",
            "-0",
            "1.50",
            "1E5",
            r#""\/""#,
            r#""\u0041""#,
            r#""\u001F""#,
            r#""\ud83d\ude00""#,
            "1e300",
            "1e400",
        ] {
            assert_ne!(parse(text).unwrap().to_json(), text, "{text}");
            assert!(!canonical(text), "{text}");
        }
    }
}
