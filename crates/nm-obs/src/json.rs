//! Hand-rolled minimal JSON: enough for the newline-delimited wire
//! protocol, trace-line parsing, and the `results/` row files, with no
//! external deps. (Moved here from nm-serve so the observability stack
//! can *read* its own trace schema; nm-serve re-exports it unchanged.)
//! [`Json::fields`] is the strict object accessor every nm-obs
//! artifact reader goes through.
//!
//! Supported: objects, arrays, strings (with `\uXXXX` escapes),
//! finite numbers, booleans, null. Input depth is bounded so a
//! malicious client cannot overflow the parser stack.

use std::fmt::Write as _;

const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered key/value pairs (duplicates keep first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: s.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value(0)?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Serializes to compact JSON.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => out.push_str(&escape(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(k));
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric field as a non-negative integer (rejects fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Reads this value as an object whose every key is in `allowed`:
    /// the one strictness check behind every nm-obs artifact reader.
    /// `what` names the object in every error, here and in the
    /// [`Fields`] getters.
    pub fn fields<'a>(
        &'a self,
        what: impl Into<String>,
        allowed: &[&str],
    ) -> Result<Fields<'a>, String> {
        let what = what.into();
        let Json::Obj(pairs) = self else {
            return Err(format!("{what} is not a JSON object"));
        };
        if let Some((k, _)) = pairs.iter().find(|(k, _)| !allowed.contains(&k.as_str())) {
            return Err(format!("unknown field {k:?} on {what}"));
        }
        Ok(Fields { what, pairs })
    }
}

/// An object checked by [`Json::fields`]. Each typed getter fails with
/// an error naming the object and the field when the field is missing
/// or has the wrong type.
pub struct Fields<'a> {
    what: String,
    pairs: &'a [(String, Json)],
}

impl<'a> Fields<'a> {
    /// The field's value, if present (for optional fields).
    pub fn get(&self, key: &str) -> Option<&'a Json> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The field's value, whatever its type (for a nested object that
    /// its own field table reads).
    pub fn value(&self, key: &str) -> Result<&'a Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?} on {}", self.what))
    }

    fn typed<T>(
        &self,
        key: &str,
        want: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        read(self.value(key)?).ok_or_else(|| {
            format!(
                "field {key:?} on {} has the wrong type: not {want}",
                self.what
            )
        })
    }

    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "a non-negative integer", Json::as_u64)
    }

    pub fn f64(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", Json::as_f64)
    }

    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        self.typed(key, "a string", Json::as_str)
    }

    pub fn bool(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a boolean", Json::as_bool)
    }

    pub fn arr(&self, key: &str) -> Result<&'a [Json], String> {
        self.typed(key, "an array", Json::as_arr)
    }

    /// An array of non-negative integers.
    pub fn u64s(&self, key: &str) -> Result<Vec<u64>, String> {
        self.typed(key, "an array of non-negative integers", |v| {
            v.as_arr()?.iter().map(Json::as_u64).collect()
        })
    }

    /// The key/value pairs of an object-valued field.
    pub fn obj(&self, key: &str) -> Result<&'a [(String, Json)], String> {
        self.typed(key, "an object", Json::as_obj)
    }
}

/// Quotes and escapes a string for JSON output.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}",
                c as char,
                self.i.min(self.b.len())
            ))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let v = self.value(depth + 1)?;
            pairs.push((key, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value(depth + 1)?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
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
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.i += 4;
                            // Surrogate pairs are not needed by this
                            // protocol; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = &self.b[self.i..];
                    // SAFETY: `self.b` is the byte view of the `&str`
                    // input and `self.i` only advances by whole scalar
                    // widths, so `rest` is valid UTF-8 at a boundary.
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let Some(c) = s.chars().next() else {
                        return Err("unterminated string".into());
                    };
                    if (c as u32) < 0x20 {
                        return Err("raw control character in string".into());
                    }
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.i += 1;
        }
        // The scanned range is ASCII digits/signs, so UTF-8 always holds.
        let text = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| "non-utf8 number literal".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number '{text}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_object() {
        let src = r#"{"op":"topk","user":5,"domain":"a","k":10,"flag":true,"x":null}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.get("op").unwrap().as_str(), Some("topk"));
        assert_eq!(v.get("user").unwrap().as_u64(), Some(5));
        assert_eq!(v.get("flag").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("x"), Some(&Json::Null));
        let re = Json::parse(&v.encode()).unwrap();
        assert_eq!(re, v);
    }

    #[test]
    fn parse_nested_arrays_and_numbers() {
        let v = Json::parse("[1, -2.5, [3e2, 0.125], []]").unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_arr().unwrap()[0].as_f64(), Some(300.0));
        assert!(a[3].as_arr().unwrap().is_empty());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line1\nline2\t\"quoted\" \\ slash \u{1F600}";
        let enc = escape(original);
        let v = Json::parse(&enc).unwrap();
        assert_eq!(v.as_str(), Some(original));
        let u = Json::parse(r#""Aé""#).unwrap();
        assert_eq!(u.as_str(), Some("Aé"));
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{\"a\":1} extra",
            "01a",
            "[1,]2",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn rejects_excessive_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::Num(3.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
    }
}
