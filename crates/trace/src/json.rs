//! A minimal JSON value type with writer and parser.
//!
//! The workspace is offline (no serde); telemetry export needs exactly
//! this much JSON: objects, arrays, strings, numbers, booleans, null.
//! The writer escapes strings per RFC 8259; the parser accepts anything
//! the writer emits (plus ordinary whitespace), which is what the
//! round-trip tests and the `trace-check` CI gate rely on.
//!
//! Numbers are stored as `f64`. Counter values above 2^53 would lose
//! precision; telemetry counts stay far below that.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers are written without a fractional part).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys are sorted (BTreeMap), so output is deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (String, Value)>) -> Value {
        Value::Obj(pairs.into_iter().collect())
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number, if this is a non-negative integer: the strict reading
    /// every `u64` field of the telemetry formats uses (`2.5` and `-1`
    /// are `None`, not truncated).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_num()
            .filter(|x| x.is_finite() && *x >= 0.0 && x.fract() == 0.0)
            .map(|x| x as u64)
    }

    /// The boolean, if this is `true` or `false`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::Num(v as f64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(x) => {
                if !x.is_finite() {
                    // JSON has no NaN/Infinity literal; `null` is the
                    // only representable degradation (and the parser
                    // rejects non-finite numbers anyway).
                    write!(f, "null")
                } else if x.fract() == 0.0 && x.abs() < 9e15 {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Obj(map) => {
                write!(f, "{{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// [`ParseError`] with the byte offset of the first offending input.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing input after document"));
    }
    Ok(v)
}

/// Maximum container nesting the parser accepts. The recursive-descent
/// parser uses one stack frame per `[`/`{` level; bounding it turns
/// adversarial inputs like `"[".repeat(1 << 20)` into a [`ParseError`]
/// instead of a stack overflow.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// Bumps the container nesting depth, failing past [`MAX_DEPTH`].
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        Ok(())
    }

    /// Reads exactly four hex digits at the cursor (the payload of a
    /// `\u` escape) and advances past them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
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
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1; // past 'u'
                            let unit = self.hex4()?;
                            let c = if (0xD800..=0xDBFF).contains(&unit) {
                                // High surrogate: combine with a
                                // following \uXXXX low surrogate;
                                // unpaired → replacement char.
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let save = self.pos;
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if (0xDC00..=0xDFFF).contains(&low) {
                                        let cp = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                        char::from_u32(cp).unwrap_or('\u{fffd}')
                                    } else {
                                        self.pos = save;
                                        '\u{fffd}'
                                    }
                                } else {
                                    '\u{fffd}'
                                }
                            } else {
                                // Lone low surrogates are also unpaired.
                                char::from_u32(unit).unwrap_or('\u{fffd}')
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        let x = text.parse::<f64>().map_err(|_| self.err("bad number"))?;
        if !x.is_finite() {
            // `1e999` overflows to +inf; JSON numbers must stay finite.
            return Err(ParseError {
                offset: start,
                message: "non-finite number".to_string(),
            });
        }
        Ok(Value::Num(x))
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Num(0.0),
            Value::Num(-17.0),
            Value::Num(2.5),
            Value::Str("hello".into()),
            Value::Str("quotes \" and \\ and\nnewline\ttab\u{1}ctl".into()),
        ] {
            let text = v.to_string();
            assert_eq!(parse(&text).expect("parses"), v, "text: {text}");
        }
    }

    #[test]
    fn roundtrip_nested() {
        let v = Value::obj([
            (
                "list".to_string(),
                Value::Arr(vec![1u64.into(), 2u64.into()]),
            ),
            (
                "nested".to_string(),
                Value::obj([("k".to_string(), Value::Str("v|,\"".into()))]),
            ),
            ("flag".to_string(), true.into()),
            ("nothing".to_string(), Value::Null),
        ]);
        assert_eq!(parse(&v.to_string()).expect("parses"), v);
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let v = parse(" { \"a\" : [ 1 , \"π ≤ 4\" ] , \"b\" : null } ").expect("parses");
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.as_arr())
                .and_then(|a| a[1].as_str()),
            Some("π ≤ 4")
        );
    }

    #[test]
    fn rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn error_carries_offset() {
        let err = parse("[1, @]").expect_err("must fail");
        assert_eq!(err.offset, 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn rejects_malformed_escapes() {
        for bad in [
            r#""\x""#,
            r#""\u12""#,
            r#""\u12zz""#,
            r#""\u""#,
            "\"\\",
            r#""\"#,
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn decodes_surrogate_pairs() {
        // U+1D11E (musical G clef) = 𝄞.
        let v = parse(r#""𝄞""#).expect("parses");
        assert_eq!(v.as_str(), Some("\u{1D11E}"));
        // Unpaired high surrogate → replacement char, rest of string kept.
        let v = parse(r#""\ud834x""#).expect("parses");
        assert_eq!(v.as_str(), Some("\u{fffd}x"));
        // High surrogate followed by a non-surrogate escape: replacement
        // char, then the decoded escape.
        let v = parse(r#""\ud834A""#).expect("parses");
        assert_eq!(v.as_str(), Some("\u{fffd}A"));
        // Lone low surrogate → replacement char.
        let v = parse(r#""\udd1e""#).expect("parses");
        assert_eq!(v.as_str(), Some("\u{fffd}"));
    }

    #[test]
    fn bounds_recursion_depth() {
        // Just inside the bound parses; one level past it fails cleanly.
        let ok = format!("{}0{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!(
            "{}0{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        let err = parse(&deep).expect_err("too deep");
        assert!(err.message.contains("MAX_DEPTH"), "msg: {}", err.message);
        // An adversarial prefix with no closers must not overflow the
        // stack either.
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn rejects_non_finite_numbers() {
        for bad in ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
        // The writer degrades non-finite values to null rather than
        // emitting text the parser would reject.
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
        let arr = Value::Arr(vec![Value::Num(f64::NEG_INFINITY), Value::Num(1.0)]);
        assert_eq!(
            parse(&arr.to_string())
                .expect("parses")
                .as_arr()
                .map(<[Value]>::len),
            Some(2)
        );
    }
}
