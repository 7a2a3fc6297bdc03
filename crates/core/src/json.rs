//! The workspace's one JSON reader, string escaper and [`Time`] codec.
//!
//! The build environment vendors no serde, so every JSON document the
//! workspace writes — bench reports and the trend ledger, lint and verify
//! findings, `spacetime-obs/1` traces — is written by hand and read back
//! through [`Json::parse`]. Writers keep their own byte layouts; they
//! share [`escape`] for strings and one codec for spike times: a finite
//! time is its tick count, `∞` ("no spike") is `null`
//! (`Json::from(time)` and [`Json::as_time`]).
//!
//! The reader is strict and total. Any input ends in `Ok` or `Err`,
//! never a panic or a stack overflow:
//!
//! * integers are held exactly ([`Json::Int`]): every `u64` and every
//!   `i64` reads back as itself;
//! * arrays and objects nest at most [`MAX_DEPTH`] deep;
//! * an object may not repeat a key;
//! * numbers follow the JSON grammar (no leading zeros, no bare `.5`),
//!   strings may not hold raw control characters, and `\u` escapes must
//!   name a scalar value (surrogate pairs are not decoded).
//!
//! ```
//! use st_core::json::{escape, Json};
//! use st_core::Time;
//!
//! let doc = Json::parse(r#"{"at": 18446744073709551614, "end": null}"#)?;
//! assert_eq!(doc.get("at").and_then(Json::as_time), Some(Time::MAX_FINITE));
//! assert_eq!(doc.get("end").and_then(Json::as_time), Some(Time::INFINITY));
//! assert_eq!(Json::from(Time::INFINITY).to_string(), "null");
//! assert_eq!(escape("a\"b").to_string(), r#""a\"b""#);
//! # Ok::<(), String>(())
//! ```
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt::{self, Write as _};

use crate::Time;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts: a
/// document of 128 nested arrays parses, one of 129 is an error. The
/// workspace's deepest document (a bench report) nests 5 levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent, held exactly.
    Int(i128),
    /// Any other number. An integral `Float` prints as an integer, so it
    /// reads back as [`Json::Int`].
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. `BTreeMap` prints keys sorted, so output is
    /// deterministic whatever order fields were inserted in.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an integer of type `T`, if it is an integer within
    /// `T`'s range.
    #[must_use]
    pub fn as_int<T: TryFrom<i128>>(&self) -> Option<T> {
        match self {
            Json::Int(n) => T::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Float(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a spike time: `null` is `∞`, an integer below
    /// `u64::MAX` is that many ticks, and anything else is `None`.
    #[must_use]
    pub fn as_time(&self) -> Option<Time> {
        match self {
            Json::Null => Some(Time::INFINITY),
            _ => self.as_int().and_then(Time::try_finite),
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks a field up in an object (`None` for non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj().and_then(|o| o.get(key))
    }

    /// Renders with two-space indentation (diff-friendly for committed
    /// baselines). Equivalent to `Display` modulo whitespace.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.pretty_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn pretty_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(depth + 1));
                    item.pretty_into(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push(']');
            }
            Json::Obj(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&"  ".repeat(depth + 1));
                    let _ = write!(out, "{}: ", escape(key));
                    value.pretty_into(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }

    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first problem:
    /// malformed syntax, an out-of-range number, nesting deeper than
    /// [`MAX_DEPTH`], a repeated object key, or trailing characters.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }
}

/// A spike time as JSON: its ticks, or `null` for `∞`.
impl From<Time> for Json {
    fn from(t: Time) -> Json {
        t.value().map_or(Json::Null, |v| Json::Int(v.into()))
    }
}

/// Displays `s` as a JSON string literal, quotes included.
#[must_use]
pub fn escape(s: &str) -> impl fmt::Display + '_ {
    Escaped(s)
}

struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
                c => f.write_char(c)?,
            }
        }
        f.write_str("\"")
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(n) => write!(f, "{n}"),
            Json::Float(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write!(f, "{}", escape(s)),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}:{value}", escape(key))?;
                }
                write!(f, "}}")
            }
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the cursor.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `b` if it is next.
    fn eat(&mut self, b: u8) -> bool {
        let found = self.peek() == Some(b);
        self.pos += usize::from(found);
        found
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected character {:?} at byte {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(0..=0x1f) => {
                    return Err(format!("control character in string at byte {start}"))
                }
                Some(b'\\') => {
                    self.pos += 2;
                    match self.bytes.get(start + 1) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let c = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| format!("bad \\u escape at byte {start}"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {start}")),
                    }
                }
                Some(_) => {
                    // Copy up to the next quote, escape or control byte.
                    // The input is a `&str` and those bytes are ASCII, so
                    // the run ends on a character boundary.
                    while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    /// Counts the ASCII digits at the cursor, consuming them.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        self.eat(b'-');
        let int_start = self.pos;
        let int_digits = self.digits();
        let mut well_formed = int_digits == 1 || (int_digits > 1 && self.bytes[int_start] != b'0');
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            well_formed &= self.digits() > 0;
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            well_formed &= self.digits() > 0;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if !well_formed {
            return Err(format!("bad number {text:?} at byte {start}"));
        }
        if integral {
            if let Ok(n) = text.parse() {
                return Ok(Json::Int(n));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Float(n)),
            _ => Err(format!("number {text} out of range at byte {start}")),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or ']' at byte {}", self.pos));
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = BTreeMap::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            match fields.entry(key) {
                Entry::Occupied(e) => {
                    return Err(format!("repeated key {:?} at byte {at}", e.key()))
                }
                Entry::Vacant(e) => {
                    e.insert(value);
                }
            }
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(fields));
            }
            if !self.eat(b',') {
                return Err(format!("expected ',' or '}}' at byte {}", self.pos));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested(depth: usize) -> String {
        format!("{}{}", "[".repeat(depth), "]".repeat(depth))
    }

    #[test]
    fn parses_the_schema_subset() {
        let doc = r#"{"schema": "spacetime-bench/1", "n": 42, "pi": 3.5,
                      "ok": true, "none": null, "tags": ["a", "b"],
                      "nested": {"x": -1}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some("spacetime-bench/1"));
        assert_eq!(v.get("n").unwrap().as_int::<u64>(), Some(42));
        assert_eq!(v.get("pi").unwrap().as_f64(), Some(3.5));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("none"), Some(&Json::Null));
        assert_eq!(v.get("tags").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("nested").unwrap().get("x"), Some(&Json::Int(-1)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2,,]",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "{1: 2}",
            "42 garbage",
            "\"unterminated",
            "\"raw\ttab\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\"\\ud800\"",
            "nul",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "1e999",
            "+1",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn nesting_at_the_bound_parses_and_one_past_it_is_an_error() {
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).is_err());
        // Far past the bound is an error too, not a stack overflow.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn integers_read_exactly_over_u64_and_i64() {
        let n = Json::parse("9007199254740993").unwrap();
        assert_eq!(n.as_int::<u64>(), Some((1 << 53) + 1));
        assert_eq!(n.to_string(), "9007199254740993");
        let max = Json::parse("18446744073709551615").unwrap();
        assert_eq!(max.as_int::<u64>(), Some(u64::MAX));
        assert_eq!(max.as_int::<i64>(), None);
        let min = Json::parse("-9223372036854775808").unwrap();
        assert_eq!(min.as_int::<i64>(), Some(i64::MIN));
        assert_eq!(min.as_int::<u64>(), None);
        assert_eq!(Json::parse("3.5").unwrap().as_int::<u64>(), None);
        assert_eq!(Json::parse("12.0").unwrap().as_int::<u64>(), None);
    }

    #[test]
    fn a_repeated_key_is_an_error() {
        let err = Json::parse(r#"{"a": 1, "b": 2, "a": 1}"#).unwrap_err();
        assert!(err.contains("repeated key \"a\""), "{err}");
        assert!(Json::parse(r#"{"a": {"a": 1}}"#).is_ok());
    }

    #[test]
    fn times_map_infinity_to_null_and_reject_the_reserved_encoding() {
        for t in [
            Time::ZERO,
            Time::finite(7),
            Time::MAX_FINITE,
            Time::INFINITY,
        ] {
            let text = Json::from(t).to_string();
            assert_eq!(Json::parse(&text).unwrap().as_time(), Some(t), "{text}");
        }
        assert_eq!(Json::from(Time::finite(3)).to_string(), "3");
        assert_eq!(Json::from(Time::INFINITY).to_string(), "null");
        for bad in ["18446744073709551615", "-1", "1.5", "\"inf\""] {
            assert_eq!(Json::parse(bad).unwrap().as_time(), None, "{bad}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "a \"quoted\" line\nwith\ttabs \\ and unicode µ \u{1} \r";
        let rendered = escape(original).to_string();
        assert_eq!(
            rendered,
            "\"a \\\"quoted\\\" line\\nwith\\ttabs \\\\ and unicode µ \\u0001 \\r\""
        );
        assert_eq!(Json::parse(&rendered).unwrap().as_str(), Some(original));
        assert_eq!(
            Json::parse(r#""\/\b\f\u00b5""#).unwrap().as_str(),
            Some("/\u{8}\u{c}µ")
        );
    }

    #[test]
    fn display_and_pretty_round_trip() {
        let doc = r#"{"b": [1, 2.5, true, null, -7], "a": "x", "k": {"e": [], "o": {}}}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
        assert_eq!(
            v.to_string(),
            r#"{"a":"x","b":[1,2.5,true,null,-7],"k":{"e":[],"o":{}}}"#
        );
    }

    #[test]
    fn integral_floats_print_as_integers() {
        assert_eq!(Json::Float(78006.0).to_string(), "78006");
        assert_eq!(Json::Float(25246.4).to_string(), "25246.4");
        assert_eq!(Json::parse("78006").unwrap().as_f64(), Some(78006.0));
    }
}
