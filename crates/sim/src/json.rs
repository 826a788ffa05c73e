//! The workspace's one JSON reader: a dependency-free RFC 8259 parser.
//!
//! The workspace builds without a crates registry, so instead of serde
//! this module hand-rolls the small slice of JSON the repo needs: the
//! planner daemon parses one request object per line into a [`Value`]
//! tree and reads typed fields out of it, and
//! [`validate_json`](crate::observe::validate_json) checks exported
//! traces and metrics with the same parser. Output JSON is *written*
//! with plain `format!`, using [`escape`] for string contents.
//!
//! The grammar is strict RFC 8259 (objects, arrays, strings with
//! escapes, numbers, booleans, null): numbers must match
//! `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` (so `01`, `1.` and a
//! bare `-` are rejected), and strings may not contain raw control
//! characters. `\u` escapes must name a Unicode scalar value — surrogate
//! escapes are rejected rather than paired, since nothing in the repo
//! emits them. Numbers are kept as `f64`, which is exact for every
//! integer the request format uses (batch sizes, device ranks, thread
//! counts — all far below 2^53).
//!
//! Nesting is capped at [`MAX_DEPTH`] arrays and objects, so hostile
//! input (a line of 50,000 `[`) fails with a [`ParseError`] instead of
//! overflowing the parser's stack.

use std::collections::BTreeMap;
use std::fmt;

/// The deepest nesting of arrays and objects a document may have. Deeper
/// input fails with a [`ParseError`] at the first bracket past the cap,
/// which bounds the recursion of both parsing and dropping a [`Value`].
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] carrying the byte offset of the first
    /// syntax error, or of the first bracket nested deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// The field `key` of an object, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a non-negative integer (rejects fractions and
    /// negatives rather than truncating them silently).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// This value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Where and why parsing failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    /// Byte offset of the next unread byte; always a char boundary of
    /// `text`, since every step consumes ASCII or one whole scalar.
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
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

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if self.peek() == Some(b'{') {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by any
                            // caller; reject rather than mangle.
                            let ch = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(ch);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    let ch = self.text[self.pos..]
                        .chars()
                        .next()
                        .expect("non-empty by peek");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.skip_digits(),
            _ => return Err(self.err("malformed number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("malformed fraction"));
            }
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("malformed exponent"));
            }
            self.skip_digits();
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

/// Escapes `s` for embedding in a JSON string literal (the writer-side
/// helper for request ids, error text, trace names and metric keys).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_request_shaped_object() {
        let v = Value::parse(
            r#"{"id":"r1","model":"bert-52b","gpus":64,"batch":512,
                "straggler":{"device":3,"factor":1.5},"quick":true,
                "tags":["a","b"],"note":null}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").and_then(Value::as_str), Some("r1"));
        assert_eq!(v.get("gpus").and_then(Value::as_u64), Some(64));
        assert_eq!(v.get("quick").and_then(Value::as_bool), Some(true));
        assert_eq!(
            v.get("straggler")
                .and_then(|s| s.get("factor"))
                .and_then(Value::as_f64),
            Some(1.5)
        );
        assert_eq!(v.get("note"), Some(&Value::Null));
        assert_eq!(
            v.get("tags"),
            Some(&Value::Arr(vec![
                Value::Str("a".into()),
                Value::Str("b".into())
            ]))
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn strings_unescape_and_escape_round_trips() {
        let v = Value::parse(r#""a\"b\\c\nA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nA"));
        let quoted = format!("\"{}\"", escape("a\"b\\c\nA\t\u{1}"));
        let back = Value::parse(&quoted).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nA\t\u{1}"));
        assert_eq!(Value::parse(r#""é""#).unwrap().as_str(), Some("é"));
    }

    #[test]
    fn numbers_parse_and_integer_coercion_is_strict() {
        assert_eq!(Value::parse("3.25").unwrap().as_f64(), Some(3.25));
        assert_eq!(Value::parse("-2e3").unwrap().as_f64(), Some(-2000.0));
        assert_eq!(Value::parse("0.5E+1").unwrap().as_f64(), Some(5.0));
        assert_eq!(Value::parse("-0").unwrap().as_f64(), Some(-0.0));
        assert_eq!(Value::parse("512").unwrap().as_u64(), Some(512));
        assert_eq!(Value::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Value::parse("-4").unwrap().as_u64(), None);
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for bad in [
            "01", "-01", "1.", "-", "+1", ".5", "1e", "1e+", "1.e3", "0x10", "--1",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn strings_reject_raw_controls_and_surrogates() {
        let e = Value::parse("\"bad\u{1}ctl\"").unwrap_err();
        assert_eq!(e.at, 4, "{e}");
        assert!(Value::parse("\"tab\there\"").is_err());
        assert!(Value::parse(r#""\ud800""#).is_err(), "lone surrogate");
        assert!(Value::parse(r#""\u+041""#).is_err(), "four hex digits");
        assert!(Value::parse(r#""\x""#).is_err());
    }

    #[test]
    fn malformed_documents_error_with_position() {
        for bad in [
            "", "{", "{\"a\":}", "[1,]", "tru", "\"open", "1 2", "{'a':1}",
        ] {
            let e = Value::parse(bad).unwrap_err();
            assert!(!e.msg.is_empty(), "{bad:?} -> {e}");
        }
        let e = Value::parse("[1, @]").unwrap_err();
        assert_eq!(e.at, 4);
    }

    #[test]
    fn whitespace_and_nesting_are_tolerated() {
        let v = Value::parse(" { \"a\" : [ { \"b\" : [ 1 , 2 ] } ] } ").unwrap();
        let inner = v.get("a").and_then(|a| match a {
            Value::Arr(items) => items.first(),
            _ => None,
        });
        assert_eq!(
            inner.and_then(|o| o.get("b")),
            Some(&Value::Arr(vec![Value::Num(1.0), Value::Num(2.0)]))
        );
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let e = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH, "offset of the first bracket past the cap");
        assert!(e.msg.contains("nesting"), "{e}");
        // Objects count toward the same cap.
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(Value::parse(&objects).unwrap_err().at, 5 * MAX_DEPTH);
        // Far deeper input fails at the same offset, without recursing.
        let e = Value::parse(&"[".repeat(50_000)).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH);
    }
}
