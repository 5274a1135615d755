//! A minimal JSON reader for the restricted grammar the exporters emit.
//!
//! The workspace deliberately vendors no serde; artifacts and traces are
//! hand-emitted. This module closes the loop on the *reading* side with a
//! small recursive-descent parser covering exactly what our emitters
//! produce — objects, arrays, unsigned integers, `-`-signed integers and
//! simple floats (accepted, surfaced as [`Value::Num`] via truncation for
//! integers only when exact), strings without escape sequences, booleans
//! and `null`. It is the workspace's one JSON reader — run artifacts,
//! their `SimStats` and obs reports all parse through it —
//! and doubles as the JSON well-formedness linter used by the
//! trace-export self-check in CI.

use std::fmt;

/// A parsed JSON value (restricted grammar; see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An unsigned integer.
    Num(u64),
    /// A float (anything with `.`, `e`, or a sign that is not a u64).
    Float(f64),
    /// A string (no escape sequences).
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array.
    Arr(Vec<Value>),
    /// An object, preserving key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number of either kind.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as object fields, if it is one.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A parse failure with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the failure was detected at.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            msg: msg.into(),
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'n') => self.keyword("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => self.err(format!("unexpected byte '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected '{word}'"))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| ParseError {
                            at: start,
                            msg: "invalid UTF-8 in string".into(),
                        })?
                        .to_string();
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => return self.err("escape sequences are not supported"),
                Some(_) => self.pos += 1,
                None => return self.err("unterminated string"),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Num(n));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Value::Float(f)),
            Err(_) => self.err(format!("malformed number '{text}'")),
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
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage after document");
    }
    Ok(v)
}

/// Checks that `input` is a syntactically valid JSON document under this
/// module's grammar. Used by the trace-export self-check.
pub fn validate_json(input: &str) -> Result<(), ParseError> {
    parse(input).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":1,"b":[2,3,{"c":"x y"}],"d":{"e":[]},"f":true,"g":null}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        let b = v.get("b").and_then(Value::as_arr).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b[2].get("c").and_then(Value::as_str), Some("x y"));
        assert_eq!(v.get("f"), Some(&Value::Bool(true)));
        assert_eq!(v.get("g"), Some(&Value::Null));
    }

    #[test]
    fn parses_floats_and_negatives() {
        let v = parse(r#"[1.5,-2,3e4]"#).unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0], Value::Float(1.5));
        assert_eq!(a[1], Value::Float(-2.0));
        assert_eq!(a[2], Value::Float(30000.0));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\":1").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unclosed").is_err());
        assert!(validate_json("[[[]]").is_err());
    }

    #[test]
    fn validates_whole_documents_only() {
        assert!(validate_json(" {\"ok\":[1,2,3]} \n").is_ok());
    }
}
