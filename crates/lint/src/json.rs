//! JSON rendering and parsing for [`Report`]s.
//!
//! The build environment vendors no serde, so this module carries a small
//! hand-written emitter and a strict recursive-descent parser for the one
//! document shape we need. The shape is stable:
//!
//! ```json
//! {
//!   "version": 1,
//!   "summary": { "errors": 1, "warnings": 0, "infos": 2 },
//!   "diagnostics": [
//!     {
//!       "code": "STA001",
//!       "severity": "error",
//!       "location": { "kind": "gate", "index": 4 },
//!       "message": "…",
//!       "hint": null
//!     }
//!   ]
//! }
//! ```
//!
//! `Report::from_json(report.to_json())` reconstructs the report exactly;
//! the CLI's `--json` output round-trips through this parser in tests.

use crate::diag::{Code, Diagnostic, Location, Report, Severity};

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

impl Report {
    /// Renders the report as a JSON document (the shape documented in
    /// `docs/lint.md`, § JSON shape).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n  \"version\": 1,\n  \"summary\": { ");
        let _ = write!(
            out,
            "\"errors\": {}, \"warnings\": {}, \"infos\": {} }},\n  \"diagnostics\": [",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        );
        for (i, d) in self.diagnostics().iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{ \"code\": \"{}\", \"severity\": \"{}\", \"location\": {{ \"kind\": \"{}\"",
                d.code,
                d.severity,
                d.location.kind()
            );
            if let Some(index) = d.location.index() {
                let _ = write!(out, ", \"index\": {index}");
            }
            out.push_str(" }, \"message\": \"");
            escape_into(&mut out, &d.message);
            out.push_str("\", \"hint\": ");
            match &d.hint {
                Some(h) => {
                    out.push('"');
                    escape_into(&mut out, h);
                    out.push('"');
                }
                None => out.push_str("null"),
            }
            out.push_str(" }");
        }
        if self.diagnostics().is_empty() {
            out.push_str("]\n}\n");
        } else {
            out.push_str("\n  ]\n}\n");
        }
        out
    }

    /// Parses a document produced by [`Report::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first syntactic or semantic
    /// problem (unknown code, bad severity, malformed location, …).
    pub fn from_json(text: &str) -> Result<Report, String> {
        let value = Parser::new(text).parse_document()?;
        let object = value.as_object().ok_or("top level must be an object")?;
        let diags = get(object, "diagnostics")?
            .as_array()
            .ok_or("`diagnostics` must be an array")?;
        let mut report = Report::new();
        for (i, d) in diags.iter().enumerate() {
            let d = d
                .as_object()
                .ok_or_else(|| format!("diagnostic {i} must be an object"))?;
            let code = get(d, "code")?
                .as_str()
                .and_then(Code::parse)
                .ok_or_else(|| format!("diagnostic {i}: bad code"))?;
            let severity = get(d, "severity")?
                .as_str()
                .and_then(Severity::parse)
                .ok_or_else(|| format!("diagnostic {i}: bad severity"))?;
            let loc = get(d, "location")?
                .as_object()
                .ok_or_else(|| format!("diagnostic {i}: location must be an object"))?;
            let kind = get(loc, "kind")?
                .as_str()
                .ok_or_else(|| format!("diagnostic {i}: location kind must be a string"))?;
            let index = match loc.iter().find(|(k, _)| k == "index") {
                Some((_, v)) => Some(
                    v.as_u64()
                        .ok_or_else(|| format!("diagnostic {i}: bad location index"))?
                        as usize,
                ),
                None => None,
            };
            let location = Location::from_parts(kind, index)
                .ok_or_else(|| format!("diagnostic {i}: bad location"))?;
            let message = get(d, "message")?
                .as_str()
                .ok_or_else(|| format!("diagnostic {i}: message must be a string"))?
                .to_owned();
            let hint = match get(d, "hint")? {
                Value::Null => None,
                Value::String(h) => Some(h.clone()),
                _ => return Err(format!("diagnostic {i}: hint must be a string or null")),
            };
            report.push(Diagnostic {
                code,
                severity,
                location,
                message,
                hint,
            });
        }
        Ok(report)
    }
}

fn get<'a>(object: &'a [(String, Value)], key: &str) -> Result<&'a Value, String> {
    object
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// A parsed JSON value (the subset the report shape needs: no floats).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Null,
    Bool(bool),
    Number(u64),
    String(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn parse_document(mut self) -> Result<Value, String> {
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing content at byte {}", self.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_owned())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn parse_value(&mut self) -> Result<Value, String> {
        match self.peek()? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Ok(Value::String(self.parse_string()?)),
            b'0'..=b'9' => self.parse_number(),
            b't' | b'f' | b'n' => self.parse_keyword(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                char::from(other),
                self.pos
            )),
        }
    }

    fn parse_keyword(&mut self) -> Result<Value, String> {
        for (word, value) in [
            ("null", Value::Null),
            ("true", Value::Bool(true)),
            ("false", Value::Bool(false)),
        ] {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(value);
            }
        }
        Err(format!("unknown keyword at byte {}", self.pos))
    }

    fn parse_number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let digits = core::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}: not ascii"))?;
        digits
            .parse()
            .map(Value::Number)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = core::str::from_utf8(&self.bytes[self.pos..])
                .map_err(|_| "invalid UTF-8".to_owned())?;
            let mut chars = rest.chars();
            let c = chars
                .next()
                .ok_or_else(|| "unterminated string".to_owned())?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let esc = chars
                        .next()
                        .ok_or_else(|| "unterminated escape".to_owned())?;
                    self.pos += esc.len_utf8();
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_owned())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(cp)
                                    .ok_or_else(|| format!("bad code point {cp:#x}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape \\{other}")),
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' but found {:?} at byte {}",
                        char::from(other),
                        self.pos
                    ))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' but found {:?} at byte {}",
                        char::from(other),
                        self.pos
                    ))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new();
        r.push(Diagnostic::new(
            Code::Cycle,
            Severity::Error,
            Location::Gate(4),
            "combinational cycle g4 → g2 → g4",
        ));
        r.push(
            Diagnostic::new(
                Code::DeadGate,
                Severity::Warning,
                Location::Output(0),
                "output line never fires: \"∞\" saturated\nsecond line\ttabbed",
            )
            .with_hint("set μ=∞ (enable) or delete the tap"),
        );
        r.push(Diagnostic::new(
            Code::NonMinimalBasis,
            Severity::Info,
            Location::Module,
            "uses max",
        ));
        r
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = sample();
        let json = report.to_json();
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back, report);
        // And re-rendering the parsed report is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = Report::new();
        let back = Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn summary_counts_are_emitted() {
        let json = sample().to_json();
        assert!(json.contains("\"errors\": 1, \"warnings\": 1, \"infos\": 1"));
        assert!(json.contains("\"version\": 1"));
    }

    #[test]
    fn escapes_survive() {
        let json = sample().to_json();
        assert!(json.contains("\\\"∞\\\" saturated\\nsecond line\\ttabbed"));
    }

    #[test]
    fn parse_errors_are_located() {
        assert!(Report::from_json("").is_err());
        assert!(Report::from_json("[]").is_err());
        assert!(Report::from_json("{\"diagnostics\": 3}").is_err());
        assert!(Report::from_json("{\"diagnostics\": []} trailing").is_err());
        let bad_code = "{\"diagnostics\": [{ \"code\": \"STA999\", \"severity\": \"error\", \
                        \"location\": {\"kind\": \"module\"}, \"message\": \"m\", \"hint\": null }]}";
        assert!(Report::from_json(bad_code)
            .unwrap_err()
            .contains("bad code"));
    }
}
