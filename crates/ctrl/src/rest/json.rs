//! A small, strict JSON parser and serializer.
//!
//! The demo's controller speaks a REST/JSON dialect; the approved
//! dependency list has no JSON crate, so this module implements the
//! subset of RFC 8259 the interface needs (in fact, all of JSON minus
//! some float edge cases): objects, arrays, strings with escapes,
//! numbers, booleans, null. Errors carry byte offsets and a structured
//! [`JsonErrorKind`].
//!
//! Every dimension of parser work is bounded ([`ParseLimits`]):
//! document size, nesting depth, object fields, array elements and
//! string length. [`parse`] applies permissive defaults (depth only);
//! the REST request layer parses with much tighter limits so a hostile
//! request body costs bounded memory and CPU before rejection.

use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth accepted by the parser.
pub const MAX_DEPTH: usize = 64;

/// Work/memory bounds applied while parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum document size in bytes (checked before scanning).
    pub max_bytes: usize,
    /// Maximum nesting depth.
    pub max_depth: usize,
    /// Maximum object fields across the whole document.
    pub max_fields: usize,
    /// Maximum array elements across the whole document.
    pub max_elements: usize,
    /// Maximum decoded length of any single string, in bytes.
    pub max_string_bytes: usize,
}

impl Default for ParseLimits {
    /// The permissive defaults [`parse`] uses: depth-bounded only.
    fn default() -> Self {
        ParseLimits {
            max_bytes: usize::MAX,
            max_depth: MAX_DEPTH,
            max_fields: usize::MAX,
            max_elements: usize::MAX,
            max_string_bytes: usize::MAX,
        }
    }
}

/// What a [`JsonError`] structurally is — callers branch on this
/// instead of matching message strings (and the REST layer maps limit
/// kinds to backpressure-style responses rather than syntax errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Malformed JSON.
    Syntax,
    /// Document exceeds [`ParseLimits::max_bytes`].
    TooLarge,
    /// Nesting exceeds [`ParseLimits::max_depth`].
    TooDeep,
    /// Object fields exceed [`ParseLimits::max_fields`].
    TooManyFields,
    /// Array elements exceed [`ParseLimits::max_elements`].
    TooManyElements,
    /// A string exceeds [`ParseLimits::max_string_bytes`].
    StringTooLong,
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as f64, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order preserved by BTreeMap's key sort).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Value as u64 if it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Value as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Value as str.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Value as array slice.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Value as bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            // `fract()` of a non-finite value is NaN: test finiteness
            // first, or NaN and infinity fall through as `NaN`/`inf`.
            Json::Num(n) if !n.is_finite() => out.push_str("null"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse errors with byte offsets and a structured kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub at: usize,
    /// Structured classification.
    pub kind: JsonErrorKind,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected) under the permissive default limits.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    parse_with(input, &ParseLimits::default())
}

/// Parse under explicit work/memory bounds.
pub fn parse_with(input: &str, limits: &ParseLimits) -> Result<Json, JsonError> {
    if input.len() > limits.max_bytes {
        return Err(JsonError {
            at: 0,
            kind: JsonErrorKind::TooLarge,
            reason: format!(
                "document is {} bytes, limit {}",
                input.len(),
                limits.max_bytes
            ),
        });
    }
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        limits: *limits,
        fields: 0,
        elements: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    limits: ParseLimits,
    fields: usize,
    elements: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> JsonError {
        self.err_kind(JsonErrorKind::Syntax, reason)
    }

    fn err_kind(&self, kind: JsonErrorKind, reason: &str) -> JsonError {
        JsonError {
            at: self.pos,
            kind,
            reason: reason.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > self.limits.max_depth {
            return Err(self.err_kind(JsonErrorKind::TooDeep, "nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.fields += 1;
            if self.fields > self.limits.max_fields {
                return Err(self.err_kind(JsonErrorKind::TooManyFields, "too many object fields"));
            }
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(map)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.elements += 1;
            if self.elements > self.limits.max_elements {
                return Err(
                    self.err_kind(JsonErrorKind::TooManyElements, "too many array elements")
                );
            }
            let v = self.value(depth + 1)?;
            items.push(v);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            if s.len() > self.limits.max_string_bytes {
                return Err(self.err_kind(JsonErrorKind::StringTooLong, "string too long"));
            }
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'b') => s.push('\u{08}'),
                    Some(b'f') => s.push('\u{0c}'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // surrogate pairs
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.err("missing low surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let combined =
                                0x10000 + (((cp - 0xD800) as u32) << 10) + (lo - 0xDC00) as u32;
                            char::from_u32(combined)
                        } else {
                            char::from_u32(cp as u32)
                        };
                        match c {
                            Some(c) => s.push(c),
                            None => return Err(self.err("invalid code point")),
                        }
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) => {
                    // re-assemble UTF-8 multibyte sequences
                    if b < 0x80 {
                        s.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = utf8_width(b);
                        let end = start + width;
                        if width == 0 || end > self.bytes.len() {
                            return Err(self.err("invalid UTF-8"));
                        }
                        match std::str::from_utf8(&self.bytes[start..end]) {
                            Ok(chunk) => {
                                s.push_str(chunk);
                                self.pos = end;
                            }
                            Err(_) => return Err(self.err("invalid UTF-8")),
                        }
                    }
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => b - b'0',
                b'a'..=b'f' => b - b'a' + 10,
                b'A'..=b'F' => b - b'A' + 10,
                _ => return Err(self.err("invalid hex digit")),
            };
            v = (v << 4) | d as u16;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

fn utf8_width(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF7 => 4,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-3.5").unwrap(), Json::Num(-3.5));
        assert_eq!(parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_demo_request_shape() {
        let doc = r#"{
            "oldpath":[1,2,3,4,5,6,12],
            "newpath":[1,7,3,8,9,10,11,12],
            "wp":3,
            "interval":100
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("wp").and_then(Json::as_u64), Some(3));
        let old = v.get("oldpath").and_then(Json::as_array).unwrap();
        assert_eq!(old.len(), 7);
        assert_eq!(old[0].as_u64(), Some(1));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse(r#""a\"b\\c\nd\t/""#).unwrap(),
            Json::Str("a\"b\\c\nd\t/".into())
        );
        assert_eq!(parse(r#""\u0041\tb""#).unwrap(), Json::Str("A\tb".into()));
    }

    #[test]
    fn surrogate_pairs() {
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(parse("\"⟨s1⟩\"").unwrap(), Json::Str("⟨s1⟩".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("+1").is_err());
    }

    #[test]
    fn rejects_deep_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let e = parse(&deep).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
    }

    fn tight_limits() -> ParseLimits {
        ParseLimits {
            max_bytes: 64,
            max_depth: 3,
            max_fields: 4,
            max_elements: 5,
            max_string_bytes: 8,
        }
    }

    #[test]
    fn limit_document_size() {
        let doc = format!("[{}]", "1,".repeat(40) + "1");
        let e = parse_with(&doc, &tight_limits()).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooLarge);
    }

    #[test]
    fn limit_field_count() {
        let e = parse_with(r#"{"a":1,"b":2,"c":3,"d":4,"e":5}"#, &tight_limits()).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooManyFields);
        assert!(parse_with(r#"{"a":1,"b":2,"c":3,"d":4}"#, &tight_limits()).is_ok());
    }

    #[test]
    fn limit_element_count() {
        let e = parse_with("[1,2,3,4,5,6]", &tight_limits()).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooManyElements);
        assert!(parse_with("[1,2,3,4,5]", &tight_limits()).is_ok());
    }

    #[test]
    fn limit_element_count_is_global_across_nesting() {
        let e = parse_with("[[1,2],[3,4,5,6]]", &tight_limits()).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooManyElements);
    }

    #[test]
    fn limit_string_length() {
        let e = parse_with(r#""aaaaaaaaaaaaaaaaaa""#, &tight_limits()).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::StringTooLong);
        assert!(parse_with(r#""aaaa""#, &tight_limits()).is_ok());
    }

    #[test]
    fn limit_depth() {
        let e = parse_with("[[[[1]]]]", &tight_limits()).unwrap_err();
        assert_eq!(e.kind, JsonErrorKind::TooDeep);
        assert!(parse_with("[[[1]]]", &tight_limits()).is_ok());
    }

    #[test]
    fn syntax_errors_keep_syntax_kind() {
        assert_eq!(parse("{").unwrap_err().kind, JsonErrorKind::Syntax);
        assert_eq!(parse("[1,]").unwrap_err().kind, JsonErrorKind::Syntax);
    }

    #[test]
    fn error_reports_offset() {
        let e = parse("{\"a\": @}").unwrap_err();
        assert_eq!(e.at, 6);
        assert!(e.to_string().contains("byte 6"));
    }

    #[test]
    fn render_roundtrip() {
        let doc = r#"{"b":[1,2,{"c":null}],"a":"x\ny\"z\\","n":-2.5,"t":true}"#;
        let v = parse(doc).unwrap();
        let rendered = v.render();
        let reparsed = parse(&rendered).unwrap();
        assert_eq!(v, reparsed);
    }

    #[test]
    fn render_integers_without_fraction() {
        assert_eq!(Json::Num(100.0).render(), "100");
        assert_eq!(Json::Num(0.5).render(), "0.5");
    }

    #[test]
    fn render_non_finite_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).render(), "null");
    }

    #[test]
    fn object_accessors() {
        let v = parse(r#"{"x": 1, "s": "y", "b": false, "a": [1]}"#).unwrap();
        assert_eq!(v.get("x").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("s").unwrap().as_str(), Some("y"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 1);
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("x").is_none());
        assert_eq!(v.get("x").unwrap().as_f64(), Some(1.0));
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
    }
}
