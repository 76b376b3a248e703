//! A minimal JSON value type with serialization and parsing.
//!
//! The paper's log processors exchange Logstash events, which are JSON
//! documents (`@source`, `@tags`, `@fields`, `@message`, ...). This module
//! implements exactly the JSON subset those events need, keeping the
//! workspace free of external serialization dependencies. Object key order
//! is preserved so emitted events are stable and diffable.

use std::borrow::Cow;
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
        JsonParser::document(input, JsonParser::parse_value)
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

/// Writes `s` as a quoted JSON string: `"`, `\`, newline, carriage
/// return and tab as two-character escapes, every other byte below 0x20
/// as `\u00xx`, and each run between escapes with one `write_str`. The
/// one escaper of the crate: [`Json`]'s `Display` and
/// [`LogEvent::write_wire`](crate::LogEvent::write_wire) both use it.
pub(crate) fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut run = 0;
    // Every byte that needs an escape is ASCII, so `run` and `i` always
    // fall on character boundaries.
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.write_str(&s[run..i])?;
        if escape.is_empty() {
            write!(out, "\\u{b:04x}")?;
        } else {
            out.write_str(escape)?;
        }
        run = i + 1;
    }
    out.write_str(&s[run..])?;
    out.write_char('"')
}

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

/// The JSON lexer. It has two consumers: [`Json::parse`], which builds a
/// tree, and the wire reader of [`parse_line`](crate::parse_line), which
/// reads a Logstash object straight into a `LogEvent`, borrowing what it
/// can and skipping what it does not read. Both see the same grammar, the
/// same depth cap and the same errors.
pub(crate) struct JsonParser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> JsonParser<'a> {
    /// Reads one whole document from `input` with `read`: leading and
    /// trailing whitespace is allowed, anything else after it is an error.
    pub(crate) fn document<T>(
        input: &'a str,
        read: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        let mut p = JsonParser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = read(&mut p)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters"));
        }
        Ok(v)
    }

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

    pub(crate) fn peek(&self) -> Option<u8> {
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
            Some(b'{') => {
                let mut entries = Vec::new();
                self.object(|p, key| {
                    entries.push((key.into_owned(), p.parse_value()?));
                    Ok(())
                })?;
                Ok(Json::Object(entries))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array(|p| {
                    items.push(p.parse_value()?);
                    Ok(())
                })?;
                Ok(Json::Array(items))
            }
            Some(b'"') => Ok(Json::String(self.string()?.into_owned())),
            Some(b't') => self.keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.keyword("false").map(|()| Json::Bool(false)),
            Some(b'n') => self.keyword("null").map(|()| Json::Null),
            Some(b'-') | Some(b'0'..=b'9') => self.number().map(Json::Number),
            Some(c) => Err(self.error(format!("unexpected `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Checks one value of any kind and steps over it, allocating nothing
    /// unless it holds an object key with an escape.
    pub(crate) fn skip_value(&mut self) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'{') => self.object(|p, _| p.skip_value()),
            Some(b'[') => self.array(Self::skip_value),
            Some(b'"') => self.lex_string(None).map(drop),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            Some(b'n') => self.keyword("null"),
            Some(b'-') | Some(b'0'..=b'9') => self.number().map(drop),
            Some(c) => Err(self.error(format!("unexpected `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Reads one object a level deeper, handing `entry` each key with the
    /// parser at its value, which `entry` must consume.
    pub(crate) fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.sequence(b'{', b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            entry(p, key)
        })
    }

    /// Reads one array a level deeper, handing `item` the parser at each
    /// element, which `item` must consume.
    pub(crate) fn array(
        &mut self,
        item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.sequence(b'[', b']', item)
    }

    /// Reads one comma-separated `open … close` sequence a level deeper,
    /// refusing past [`MAX_DEPTH`], with `item` consuming each element. An
    /// error abandons the whole document, so only a success restores the
    /// depth.
    fn sequence(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => return Err(self.error(format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`")))
        }
    }

    fn number(&mut self) -> Result<f64, JsonError> {
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
        // The run is ASCII, so it is a character boundary on both ends.
        let s = &self.text[start..self.pos];
        s.parse::<f64>()
            .map_err(|_| self.error(format!("invalid number `{s}`")))
    }

    /// Reads one string literal: borrowed from the input when it holds no
    /// escape, decoded into a new `String` when it does.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let mut decoded = String::new();
        Ok(match self.lex_string(Some(&mut decoded))? {
            Some(s) => Cow::Borrowed(s),
            None => Cow::Owned(decoded),
        })
    }

    /// Lexes one string literal, checking every escape. Returns it borrowed
    /// when it holds no escape; otherwise returns `None`, having decoded it
    /// into `decoded` when one is given.
    fn lex_string(
        &mut self,
        mut decoded: Option<&mut String>,
    ) -> Result<Option<&'a str>, JsonError> {
        self.expect(b'"')?;
        let mut escaped = false;
        loop {
            // The run up to the next quote or escape, in one step. Both are
            // ASCII, so each run starts and ends on a character boundary;
            // `get` checks that rather than trusting it.
            let rest = &self.bytes[self.pos..];
            let end = self.pos
                + rest
                    .iter()
                    .position(|b| matches!(b, b'"' | b'\\'))
                    .unwrap_or(rest.len());
            let run = self
                .text
                .get(self.pos..end)
                .ok_or_else(|| self.error("invalid UTF-8"))?;
            self.pos = end;
            let at_escape = self.peek() == Some(b'\\');
            escaped |= at_escape;
            if let Some(out) = decoded.as_deref_mut().filter(|_| escaped) {
                out.push_str(run);
            }
            if !at_escape {
                if self.peek().is_none() {
                    return Err(self.error("unterminated string"));
                }
                self.pos += 1;
                return Ok((!escaped).then_some(run));
            }
            self.pos += 1;
            let c = self.escape()?;
            if let Some(out) = decoded.as_deref_mut() {
                out.push(c);
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
        let esc = self.peek().ok_or_else(|| self.error("dangling escape"))?;
        self.pos += 1;
        Ok(match esc {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| self.error("truncated \\u escape"))?;
                // Four hex digits exactly: no sign, no shorter run.
                if !hex.iter().all(u8::is_ascii_hexdigit) {
                    return Err(self.error("invalid \\u escape"));
                }
                let code = hex.iter().fold(0, |code, &b| {
                    code * 16 + (b as char).to_digit(16).unwrap_or_default()
                });
                self.pos += 4;
                char::from_u32(code).unwrap_or('\u{fffd}')
            }
            other => return Err(self.error(format!("invalid escape `\\{}`", other as char))),
        })
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
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::str("A"));
        assert_eq!(Json::parse(r#""a\u0041\u00e9""#).unwrap(), Json::str("aAé"));
    }

    #[test]
    fn a_unicode_escape_is_four_hex_digits() {
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u041""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad}");
        }
        // A lone surrogate decodes to the replacement character.
        assert_eq!(Json::parse(r#""\uD83D""#).unwrap(), Json::str("\u{fffd}"));
    }

    #[test]
    fn escapes_are_the_five_short_forms_and_lowercase_hex_below_0x20() {
        let s = "plain\"q\\b\n\r\t\u{1}\u{1f}é\u{7f}/";
        assert_eq!(
            Json::str(s).to_string(),
            "\"plain\\\"q\\\\b\\n\\r\\t\\u0001\\u001fé\u{7f}/\""
        );
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
