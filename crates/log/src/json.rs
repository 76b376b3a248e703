//! A minimal JSON value type with serialization and parsing.
//!
//! The paper's log processors exchange Logstash events, which are JSON
//! documents (`@source`, `@tags`, `@fields`, `@message`, ...). This module
//! implements exactly the JSON subset those events need, keeping the
//! workspace free of external serialization dependencies. Object key order
//! is preserved so emitted events are stable and diffable.

use std::fmt;

/// A JSON value.
///
/// # Examples
///
/// ```
/// use pod_log::Json;
///
/// let v = Json::parse(r#"{"@tags":["push","step4"],"n":4}"#).unwrap();
/// assert_eq!(v.get("n").and_then(Json::as_f64), Some(4.0));
/// assert_eq!(v.get("@tags").unwrap().as_array().unwrap().len(), 2);
/// let round = Json::parse(&v.to_string()).unwrap();
/// assert_eq!(round, v);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// Creates an empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Inserts or replaces a key in an object; panics on non-objects.
    pub fn set(&mut self, key: impl Into<String>, value: Json) {
        match self {
            Json::Object(entries) => {
                let key = key.into();
                if let Some(e) = entries.iter_mut().find(|(k, _)| *k == key) {
                    e.1 = value;
                } else {
                    entries.push((key, value));
                }
            }
            _ => panic!("Json::set called on a non-object"),
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] with the byte position of the first problem.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = JsonParser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::String(s) => write_escaped(f, s),
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(entries) => {
                f.write_str("{")?;
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

use std::fmt::Write as _;

/// An error from [`Json::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte position of the error.
    pub position: usize,
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting [`Json::parse`] accepts. Logstash events nest three or
/// four levels; the parser recurses per level, so an unbounded document
/// from the wire would overflow the stack and abort the process.
const MAX_DEPTH: usize = 128;

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.error(format!("unexpected `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one array or object a level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, kw: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{kw}`")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        // The run is ASCII, so this borrows; it cannot fail either way.
        let s = String::from_utf8_lossy(&self.bytes[start..self.pos]);
        s.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| self.error(format!("invalid number `{s}`")))
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.error("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(self.error(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape in one step.
                    let rest = &self.bytes[self.pos..];
                    let end = rest.iter().position(|b| matches!(b, b'"' | b'\\'));
                    let run = std::str::from_utf8(&rest[..end.unwrap_or(rest.len())])
                        .map_err(|_| self.error("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += run.len();
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-2.5e2").unwrap(), Json::Number(-250.0));
        assert_eq!(Json::parse(r#""hi""#).unwrap(), Json::str("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0], Json::Number(1.0));
        assert_eq!(a[1].get("b"), Some(&Json::Null));
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = Json::str("line1\nline2\t\"quoted\" \\slash\u{1}");
        let text = original.to_string();
        assert_eq!(Json::parse(&text).unwrap(), original);
    }

    #[test]
    fn long_strings_round_trip_and_truncations_are_errors() {
        // 64 KiB of multi-byte code points with an escape every few hundred
        // bytes and a trailing `é`.
        let mut long = String::new();
        while long.len() < 64 * 1024 {
            long.push_str(&"日本語 wire line — ".repeat(12));
            long.push_str("\"quoted\"\n\\\u{1}");
        }
        long.push('é');
        let text = Json::str(long.as_str()).to_string();
        assert_eq!(Json::parse(&text).unwrap(), Json::str(long));
        // Cut mid-string, mid-escape and mid-`\u`: an error, never a panic.
        let escape = text.find('\\').expect("the text carries escapes");
        let unicode = text.find("\\u").expect("the text carries a \\u escape");
        for cut in [text.len() - 1, escape + 1, unicode + 3] {
            assert!(Json::parse(&text[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn unicode_escape_parses() {
        assert_eq!(Json::parse(r#""A""#).unwrap(), Json::str("A"));
    }

    #[test]
    fn object_order_is_preserved() {
        let mut o = Json::object();
        o.set("z", Json::Number(1.0));
        o.set("a", Json::Number(2.0));
        assert_eq!(o.to_string(), r#"{"z":1,"a":2}"#);
        o.set("z", Json::Number(3.0));
        assert_eq!(o.to_string(), r#"{"z":3,"a":2}"#);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn whole_numbers_print_without_fraction() {
        assert_eq!(Json::Number(4.0).to_string(), "4");
        assert_eq!(Json::Number(2.5).to_string(), "2.5");
    }

    #[test]
    fn paper_log_event_parses() {
        // Abridged version of the Logstash entry shown in Section IV.
        let text = r#"{"@source":"asgard.log","@tags":["push","asg","step4"],"@fields":{"time":["2013-10-24 11:41:48, 312"],"amiid":["ami-750c9e4f"],"num":["4"]},"@timestamp":"2013-10-24T00:41:48.855Z","@message":"Instance pm on i-7df34041 is ready for use.","@type":"asgard"}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("@source").unwrap().as_str(), Some("asgard.log"));
        assert_eq!(v.get("@tags").unwrap().as_array().unwrap().len(), 3);
        let fields = v.get("@fields").unwrap();
        assert_eq!(
            fields.get("amiid").unwrap().as_array().unwrap()[0],
            Json::str("ami-750c9e4f")
        );
    }
}
