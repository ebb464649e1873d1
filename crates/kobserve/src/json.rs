//! A small hand-rolled JSON value type with a serializer and a parser.
//!
//! The workspace must build offline, so run reports cannot use serde.
//! This module covers exactly what the reports need: the six JSON value
//! kinds, deterministic member order (objects are ordered vectors, not
//! maps), full string escaping, and a strict recursive-descent parser so
//! reports can be read back. Every reader of a workspace document walks
//! the parsed value through [`Node`]'s typed accessors and rejects a bad
//! file with one [`DocError`] that names the path of the bad value.

use std::collections::HashSet;
use std::fmt;

/// A JSON value.
///
/// Objects preserve insertion order so serialized reports are
/// byte-stable run to run.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Non-finite floats serialize as `null` (JSON has
    /// no NaN/Infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object as an ordered list of `(key, value)` members.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn object(members: impl IntoIterator<Item = (String, JsonValue)>) -> Self {
        JsonValue::Object(members.into_iter().collect())
    }

    /// Looks up a member of an object by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integral number
    /// below 2^64.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which does not fit.
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Serializes to an indented JSON string (2-space indent).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => write_number(out, *n),
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Writes a number the shortest way that round-trips: integers without a
/// fraction, everything else via Rust's shortest-representation `{}`.
fn write_number(out: &mut String, n: f64) {
    use fmt::Write;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    use fmt::Write;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse error, with the byte offset where parsing failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Why a document was rejected: the one error every JSON reader in the
/// workspace returns. Each case but [`DocError::NotJson`] names the path
/// of the offending value from the document root, e.g.
/// `runs[2].frames[5][3]`: member names joined by `.`, array indices in
/// brackets, and a name that is not a plain word quoted as `['a.b']`. It
/// displays as `path: what is wrong` (`missing "path"` for an absent
/// member; just the rule for one that concerns the whole document).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DocError {
    /// The text is not JSON.
    NotJson(JsonError),
    /// A required member is absent.
    Missing {
        /// Path of the absent member.
        path: String,
    },
    /// A value has the wrong JSON type or is out of range.
    Wrong {
        /// Path of the value.
        path: String,
        /// What it must be, e.g. `must be a non-negative integer`.
        expected: &'static str,
    },
    /// The document breaks one of its own rules (a sum, an order, a floor).
    Rule {
        /// Path of the value that breaks it (empty for the whole document).
        path: String,
        /// The rule and how it is broken.
        message: String,
    },
}

impl DocError {
    /// The path the error names; `None` when the text is not JSON.
    #[must_use]
    pub fn path(&self) -> Option<&str> {
        match self {
            DocError::NotJson(_) => None,
            DocError::Missing { path }
            | DocError::Wrong { path, .. }
            | DocError::Rule { path, .. } => Some(path),
        }
    }
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (path, what) = match self {
            DocError::NotJson(e) => return write!(f, "not JSON: {e}"),
            DocError::Missing { path } => return write!(f, "missing \"{path}\""),
            DocError::Wrong { path, expected } => (path, *expected),
            DocError::Rule { path, message } => (path, message.as_str()),
        };
        if path.is_empty() {
            f.write_str(what)
        } else {
            write!(f, "{path}: {what}")
        }
    }
}

impl std::error::Error for DocError {}

impl From<JsonError> for DocError {
    fn from(e: JsonError) -> Self {
        DocError::NotJson(e)
    }
}

/// A value inside a parsed document together with its path from the
/// root: the typed accessors the document readers share. Each accessor
/// returns the value or a [`DocError`] naming the path.
#[derive(Clone, Debug)]
pub struct Node<'a> {
    /// The value.
    pub value: &'a JsonValue,
    path: String,
}

impl<'a> Node<'a> {
    /// The document root.
    #[must_use]
    pub fn root(value: &'a JsonValue) -> Self {
        Self {
            value,
            path: String::new(),
        }
    }

    fn member_path(&self, key: &str) -> String {
        let plain = !key.is_empty() && key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_');
        match (plain, self.path.is_empty()) {
            (true, true) => key.to_owned(),
            (true, false) => format!("{}.{key}", self.path),
            (false, _) => format!("{}['{key}']", self.path),
        }
    }

    /// The required member `key`, or [`DocError::Missing`].
    pub fn member(&self, key: &str) -> Result<Node<'a>, DocError> {
        let path = self.member_path(key);
        match self.value.get(key) {
            Some(value) => Ok(Node { value, path }),
            None => Err(DocError::Missing { path }),
        }
    }

    /// The value as a `u64` ([`JsonValue::as_u64`]), or [`DocError::Wrong`].
    pub fn u64(&self) -> Result<u64, DocError> {
        self.value
            .as_u64()
            .ok_or_else(|| self.wrong("must be a non-negative integer"))
    }

    /// The value as an `f64`, or [`DocError::Wrong`].
    pub fn f64(&self) -> Result<f64, DocError> {
        self.value
            .as_f64()
            .ok_or_else(|| self.wrong("must be a number"))
    }

    /// The value as a string, or [`DocError::Wrong`].
    pub fn str(&self) -> Result<&'a str, DocError> {
        self.value
            .as_str()
            .ok_or_else(|| self.wrong("must be a string"))
    }

    /// The elements of an array with their paths, or [`DocError::Wrong`].
    pub fn items(&self) -> Result<impl ExactSizeIterator<Item = Node<'a>> + '_, DocError> {
        let items = self
            .value
            .as_array()
            .ok_or_else(|| self.wrong("must be an array"))?;
        Ok(items.iter().enumerate().map(|(i, value)| {
            let path = format!("{}[{i}]", self.path);
            Node { value, path }
        }))
    }

    /// An object's members in document order with their paths, or
    /// [`DocError::Wrong`].
    pub fn members(&self) -> Result<impl Iterator<Item = (&'a str, Node<'a>)> + '_, DocError> {
        let JsonValue::Object(members) = self.value else {
            return Err(self.wrong("must be an object"));
        };
        Ok(members.iter().map(|(key, value)| {
            let path = self.member_path(key);
            (key.as_str(), Node { value, path })
        }))
    }

    /// A [`DocError::Wrong`] at this value.
    #[must_use]
    pub fn wrong(&self, expected: &'static str) -> DocError {
        DocError::Wrong {
            path: self.path.clone(),
            expected,
        }
    }

    /// A [`DocError::Rule`] at this value.
    #[must_use]
    pub fn rule(&self, message: impl Into<String>) -> DocError {
        DocError::Rule {
            path: self.path.clone(),
            message: message.into(),
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The documents this
/// workspace writes nest at most six levels; the bound keeps a hostile
/// file from overflowing the parser's stack.
pub const MAX_DEPTH: usize = 256;

/// Parses a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
///
/// # Errors
///
/// Returns a [`JsonError`] describing the first malformed construct, or
/// the first array/object nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    // Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        // Keys seen so far: a repeated key is an error, since `get` and
        // `Node::member` would silently read only its first value.
        let mut seen = HashSet::new();
        loop {
            self.skip_ws();
            let at = self.pos;
            let key = self.string()?;
            if !seen.insert(key.clone()) {
                return Err(JsonError {
                    message: format!("repeated key {}", JsonValue::Str(key).to_json()),
                    offset: at,
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // Input is valid UTF-8 (it's a &str) and we only stopped
                // on ASCII sentinels, so this slice is valid UTF-8 too.
                out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let Some(b) = self.peek() else {
            return Err(self.err("unterminated escape"));
        };
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'b' => out.push('\u{08}'),
            b'f' => out.push('\u{0C}'),
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else {
                    hi
                };
                match char::from_u32(code) {
                    Some(c) => out.push(c),
                    None => return Err(self.err("invalid unicode escape")),
                }
            }
            _ => return Err(self.err("invalid escape character")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.err("truncated \\u escape"));
            };
            let d = match b {
                b'0'..=b'9' => u32::from(b - b'0'),
                b'a'..=b'f' => u32::from(b - b'a') + 10,
                b'A'..=b'F' => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid hex digit in \\u escape")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        for v in [
            JsonValue::Null,
            JsonValue::Bool(true),
            JsonValue::Bool(false),
            JsonValue::Num(0.0),
            JsonValue::Num(-17.0),
            JsonValue::Num(3.25),
            JsonValue::Num(1e-9),
            JsonValue::Str("plain".into()),
        ] {
            assert_eq!(parse(&v.to_json()).unwrap(), v);
        }
    }

    #[test]
    fn round_trip_escaped_strings() {
        for s in [
            "quote \" backslash \\ slash /",
            "newline\n tab\t return\r",
            "control \u{01}\u{1f} chars",
            "unicode: é 中文 🚀",
            "",
        ] {
            let v = JsonValue::Str(s.to_owned());
            assert_eq!(parse(&v.to_json()).unwrap(), v, "string {s:?}");
        }
    }

    #[test]
    fn parses_unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""é🚀""#).unwrap(), JsonValue::Str("é🚀".into()));
    }

    #[test]
    fn round_trip_nested_structure() {
        let v = JsonValue::object([
            ("name".to_owned(), JsonValue::Str("run".into())),
            (
                "metrics".to_owned(),
                JsonValue::Array(vec![
                    JsonValue::Num(1.0),
                    JsonValue::Null,
                    JsonValue::object([("k".to_owned(), JsonValue::Bool(true))]),
                ]),
            ),
        ]);
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        assert_eq!(parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn object_preserves_member_order() {
        let v = parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        match &v {
            JsonValue::Object(m) => {
                let keys: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["z", "a", "m"]);
            }
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn rejects_a_repeated_key_by_name() {
        let err = parse(r#"{"a": 1, "b": {"x\"y": 2, "x\"y": 3}}"#).unwrap_err();
        assert_eq!(err.message, r#"repeated key "x\"y""#);
        assert_eq!(err.offset, 26, "the offset of the repeated key");
        // The same key in sibling or nested objects is not a repeat.
        assert!(parse(r#"{"a": {"a": 1}, "b": [{"a": 1}, {"a": 2}]}"#).is_ok());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "\"unterminated",
            "tru",
            "1 2",
            "{\"a\": }",
            "\"bad \\x escape\"",
            "\"lone \\ud800 surrogate\"",
        ] {
            assert!(parse(bad).is_err(), "input {bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let err = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        // Far past any stack: an error, not an abort.
        assert!(parse(&"[{\"a\":".repeat(200_000)).is_err());
        assert!(parse(&nest(200_000)).is_err());
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(JsonValue::Num(f64::NAN).to_json(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n": 4, "s": "x", "a": [1]}"#).unwrap();
        assert_eq!(v.get("n").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(
            parse("18446744073709549568").unwrap().as_u64(),
            Some(18_446_744_073_709_549_568)
        );
        assert_eq!(v.get("n").and_then(JsonValue::as_f64), Some(4.0));
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(
            v.get("a").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(1)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn doc_errors_name_the_path() {
        let v = parse(r#"{"runs": [{"a.b": [1, "x"]}]}"#).unwrap();
        let root = Node::root(&v);
        let run = root
            .member("runs")
            .unwrap()
            .items()
            .unwrap()
            .next()
            .unwrap();
        let cell = run.member("a.b").unwrap().items().unwrap().nth(1).unwrap();
        let err = cell.u64().unwrap_err();
        assert_eq!(err.path(), Some("runs[0]['a.b'][1]"));
        assert_eq!(
            err.to_string(),
            "runs[0]['a.b'][1]: must be a non-negative integer"
        );
        let err = run.member("gone").unwrap_err();
        assert_eq!(err.to_string(), "missing \"runs[0].gone\"");
        assert_eq!(cell.str(), Ok("x"));
        assert!(cell.f64().is_err() && cell.items().is_err() && cell.members().is_err());
        assert_eq!(root.rule("no runs").to_string(), "no runs");
        let err = DocError::from(parse("[").unwrap_err());
        assert_eq!(err.path(), None);
        assert!(err.to_string().starts_with("not JSON: "), "{err}");
    }
}
