//! The workspace's one JSON codec.
//!
//! The workspace builds fully offline (no serde), so every JSON
//! document it reads or writes goes through this module:
//!
//! - [`Json::parse`] is a strict RFC 8259 recursive-descent parser for
//!   untrusted input (wire request lines, baselines, scraped debug
//!   routes): it never panics, bounds nesting depth, and keeps integer
//!   literals in the `i64`/`u64` range exact, so a 64-bit id or trace
//!   id survives the round trip;
//! - [`Json::render`] writes one compact line and [`Json::pretty`] an
//!   indented document (the bench and table reports); both keep object
//!   keys in insertion order, because the golden protocol tests pin
//!   response bytes;
//! - [`escape_into`] is the one string escaper, shared with the direct
//!   writers that run once per span or log record
//!   ([`crate::chrome_trace`], [`crate::Snapshot::to_json`],
//!   [`crate::LogRecord::render_json`]).

use std::fmt;

/// A parsed JSON value.
///
/// Numbers compare by value: `Json::Int(7) == Json::Num(7.0)`.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer in the `i64` or `u64` range, held exactly.
    Int(i128),
    /// Any other number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Int(a), Json::Int(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            // `as` saturates, so both casts must agree for exact equality.
            (Json::Int(i), Json::Num(x)) | (Json::Num(x), Json::Int(i)) => {
                *i as f64 == *x && *x as i128 == *i
            }
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

/// Where and why parsing a JSON document failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub position: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid JSON at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Is `s` exactly one valid JSON document? Tests and the CI smoke use
/// it to check emitted reports and traces.
pub fn validate_json(s: &str) -> bool {
    Json::parse(s).is_ok()
}

impl Json {
    /// Parse one JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the JSON value"));
        }
        Ok(value)
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is exactly
    /// one that `u64` holds.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            // `u64::MAX as f64` rounds up to 2^64, which is out of range.
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render compactly on one line (no spaces, insertion-order keys).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Render with two-space indentation, `": "` after keys, `[]` / `{}`
    /// for empty containers, and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Append the value; `indent` is the pretty nesting level, `None`
    /// for the compact form.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(x) => {
                if x.is_finite() {
                    out.push_str(&x.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Arr(items) => write_seq(out, indent, ['[', ']'], items, |item, out, inner| {
                item.write(out, inner)
            }),
            Json::Obj(pairs) => write_seq(out, indent, ['{', '}'], pairs, |(k, v), out, inner| {
                escape_into(k, out);
                out.push_str(if inner.is_some() { ": " } else { ":" });
                v.write(out, inner);
            }),
        }
    }
}

/// Write a bracketed, comma-separated sequence; pretty elements go one
/// per line, one level deeper than the brackets.
fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    [open, close]: [char; 2],
    items: &[T],
    mut write_item: impl FnMut(&T, &mut String, Option<usize>),
) {
    out.push(open);
    let inner = indent.map(|level| level + 1);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        write_item(item, out, inner);
    }
    if !items.is_empty() {
        newline(out, indent);
    }
    out.push(close);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(level) = indent {
        out.push('\n');
        for _ in 0..level {
            out.push_str("  ");
        }
    }
}

/// Append `s` as a JSON string literal, quotes included.
pub fn escape_into(s: &str, out: &mut String) {
    out.push('"');
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
    out.push('"');
}

/// Nesting depth bound: a hostile request cannot blow the stack.
const MAX_DEPTH: usize = 64;

/// The range of [`Json::Int`]: every `i64` and every `u64`.
const INT_RANGE: std::ops::RangeInclusive<i128> = i64::MIN as i128..=u64::MAX as i128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonError {
        JsonError {
            position: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(what))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: require the low half.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let second = self.hex4()?;
                                    let combined = 0x10000
                                        + ((first - 0xD800) << 10)
                                        + (second.wrapping_sub(0xDC00) & 0x3FF);
                                    char::from_u32(combined).unwrap_or('\u{FFFD}')
                                } else {
                                    '\u{FFFD}'
                                }
                            } else {
                                char::from_u32(first).unwrap_or('\u{FFFD}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy the run up to the next quote, escape or
                    // control byte at once: those are ASCII, so the run
                    // ends on a character boundary (the input is a
                    // &str), and each byte is validated once.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in \\u escape"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    /// Consume a run of ASCII digits; how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// RFC 8259 `number`: no leading zeros, no `+`, and at least one
    /// digit after `-`, `.` and the exponent marker.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.bytes[self.pos - int_digits] == b'0') {
            return Err(self.error("invalid number"));
        }
        let mut integer = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            integer = false;
            if self.digits() == 0 {
                return Err(self.error("invalid number"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            integer = false;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.error("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.error("invalid number"))?;
        if integer {
            // `-0` stays a float so that it renders back as `-0`.
            match text.parse::<i128>() {
                Ok(i) if INT_RANGE.contains(&i) && (i != 0 || !text.starts_with('-')) => {
                    return Ok(Json::Int(i))
                }
                _ => {}
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips() {
        for text in [
            r#"{"id":1,"cmd":"query","kb":"office","q":"b"}"#,
            r#"[1,2.5,-3,true,false,null,"x"]"#,
            r#"{"nested":{"a":[{"b":[]}]},"s":"\"quoted\"\n"}"#,
            "{}",
            "[]",
            "null",
            "true",
            "false",
            "0",
            "-12.5e3",
            "\"hi\\n\\u00e9\"",
            "[1,2,3]",
            "{\"a\":{\"b\":[1,null,\"x\"]},\"c\":-0.5}",
            "  { \"k\" : [ true , false ] }  ",
        ] {
            let parsed = Json::parse(text).unwrap();
            let rendered = parsed.render();
            assert_eq!(Json::parse(&rendered).unwrap(), parsed, "{text}");
        }
    }

    #[test]
    fn rejects_malformed() {
        for text in [
            "",
            "{",
            "}",
            r#"{"a"}"#,
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            "[1,",
            "nul",
            r#""unterminated"#,
            "1 2",
            "\u{1}",
            r#"{"a":1} trailing"#,
            "NaN",
            "01",
            "-01",
            "1.",
            "1.e5",
            "1e",
            "-",
            "+1",
            "[1,]",
            "{\"a\" 1}",
            "{a:1}",
            "\"bad\\q\"",
            "\"ctrl\u{0}\"",
        ] {
            assert!(Json::parse(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn deep_nesting_is_bounded_not_fatal() {
        let hostile = "[".repeat(100_000);
        assert!(Json::parse(&hostile).is_err());
    }

    #[test]
    fn depth_cap() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 2)).is_err());
    }

    #[test]
    fn integers_are_exact() {
        for text in [
            "9007199254740993",
            "18446744073709551615",
            "-9223372036854775808",
            "-0",
        ] {
            assert_eq!(Json::parse(text).unwrap().render(), text);
        }
        let at = |text: &str| Json::parse(text).unwrap().as_u64();
        assert_eq!(at("9007199254740993"), Some(9_007_199_254_740_993));
        assert_eq!(at("18446744073709551615"), Some(u64::MAX));
        // 2^64 is one past u64::MAX: refused, not saturated.
        assert_eq!(at("18446744073709551616"), None);
        assert_eq!(Json::Num(u64::MAX as f64).as_u64(), None);
        assert_eq!(at("1e3"), Some(1000));
        // Integers compare by value with floats.
        assert_eq!(Json::parse("7").unwrap(), Json::Num(7.0));
        assert_ne!(
            Json::parse("9007199254740993").unwrap(),
            Json::Num(9007199254740992.0)
        );
    }

    #[test]
    fn long_strings_parse_in_one_pass() {
        // Runs of plain characters, multi-byte ones included, between
        // escapes: a megabyte parses at once, not in quadratic time.
        let run = "aé∀".repeat(100_000);
        let text = format!(r#""{run}\n{run}\"x""#);
        let expected = format!("{run}\n{run}\"x");
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(expected));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(Json::parse(r#""Aé""#).unwrap(), Json::Str("Aé".to_string()));
        // Surrogate pair for 😀 (U+1F600).
        assert_eq!(Json::parse(r#""😀""#).unwrap(), Json::Str("😀".to_string()));
        // A lone high surrogate degrades to U+FFFD instead of failing.
        assert_eq!(
            Json::parse(r#""\ud83dx""#).unwrap(),
            Json::Str("\u{FFFD}x".to_string())
        );
        // Raw multi-byte characters pass through.
        assert_eq!(Json::parse(r#""日本""#).unwrap(), Json::Str("日本".into()));
    }

    #[test]
    fn accessors() {
        let j = Json::parse(r#"{"n":3,"s":"x","b":true,"a":[1],"neg":-1,"f":1.5}"#).unwrap();
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(j.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            j.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(j.get("neg").and_then(Json::as_u64), None);
        assert_eq!(j.get("f").and_then(Json::as_u64), None);
        assert_eq!(j.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn control_chars_escaped_on_render() {
        let s = Json::Str("a\u{1}b".to_string());
        assert_eq!(s.render(), "\"a\\u0001b\"");
        let v = Json::str("a\"b\\c\nd\u{1}");
        assert_eq!(v.pretty(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn pretty_renders_nested() {
        let v = Json::obj([
            ("n", Json::Num(1.5)),
            ("ok", Json::Bool(true)),
            ("xs", Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("empty", Json::Arr(vec![])),
            ("none", Json::Obj(vec![])),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"n\": 1.5,\n  \"ok\": true,\n  \"xs\": [\n    1,\n    null\n  ],\n  \"empty\": [],\n  \"none\": {}\n}\n"
        );
        assert_eq!(Json::parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_are_null() {
        assert_eq!(Json::Num(f64::NAN).pretty(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }
}
