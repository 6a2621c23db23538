//! Hand-rolled JSON: a tree value with a writer and a recursive-descent
//! parser. The repo carries no external dependencies, so the serving
//! layer brings its own (small, strict) JSON implementation.

use std::fmt;

/// A JSON value.
///
/// Objects preserve insertion order (they are association lists, not
/// maps), which keeps rendered responses deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered association list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` on other variants).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Renders to compact JSON text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(*v, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes a number. JSON has no NaN/infinity, so non-finite values
/// render as `null`; finite values use Rust's shortest round-trip
/// formatting, with integral values printed without a fraction.
fn write_number(v: f64, out: &mut String) {
    use fmt::Write as _;
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Writes `s` as a quoted JSON string with the mandatory escapes.
fn write_escaped(s: &str, out: &mut String) {
    use fmt::Write as _;
    out.push('"');
    for ch in s.chars() {
        match ch {
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
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so without a cap a small body of
/// `[[[[…` could exhaust a worker thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Why a document was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// The text is not JSON.
    Syntax,
    /// Arrays/objects nest deeper than [`MAX_DEPTH`].
    TooDeep,
}

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
    /// Which class of failure this is.
    pub kind: JsonErrorKind,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document (trailing whitespace allowed, trailing
/// content rejected). The grammar is RFC 8259's; arrays and objects
/// may nest at most [`MAX_DEPTH`] deep.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed or too deeply nested input.
pub fn parse(src: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src,
        bytes: src.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            message: message.to_string(),
            kind: JsonErrorKind::Syntax,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Runs `container` one nesting level down, refusing to go past
    /// [`MAX_DEPTH`] (the error points at the opening bracket).
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(JsonError {
                kind: JsonErrorKind::TooDeep,
                ..self.err(&format!("nesting deeper than {MAX_DEPTH}"))
            });
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
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
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one go. Those delimiters are all ASCII, so the
            // run starts and ends on char boundaries of the `&str`.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.src[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            let code = self.hex4().ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are out of scope for the
                            // serving protocol; replace them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// The code unit spelled by exactly four hex digits at `pos`.
    fn hex4(&self) -> Option<u32> {
        let digits = self.bytes.get(self.pos..self.pos + 4)?;
        digits
            .iter()
            .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
    }

    /// Advances over `[0-9]*`, returning how many digits it passed.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// RFC 8259: `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zero in number"));
                }
            }
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("malformed number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

/// Shorthand for building an object.
#[must_use]
pub fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let src = r#"{"spec":{"class":"fake","seed":7},"include_map":false,"xs":[1,2.5,-3e2],"note":"a\"b\\c\n"}"#;
        let v = parse(src).expect("valid");
        assert_eq!(
            v.get("spec")
                .and_then(|s| s.get("seed"))
                .and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(v.get("include_map").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("note").and_then(Json::as_str), Some("a\"b\\c\n"));
        let reparsed = parse(&v.render()).expect("render is valid json");
        assert_eq!(v, reparsed);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "tru",
            "\"unterminated",
            "1 2",
            // \u takes exactly four hex digits, no sign.
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u00g1""#,
            r#""\u12""#,
            // RFC 8259 numbers: no leading zeros, no bare dots, no
            // empty fraction or exponent.
            "01",
            "-01",
            "5.",
            "-.5",
            ".5",
            "-",
            "1e",
            "1e+",
            "1.e3",
            "+1",
            "[1.]",
        ] {
            let error = parse(bad).expect_err(bad);
            assert_eq!(error.kind, JsonErrorKind::Syntax, "{bad:?}");
        }
    }

    #[test]
    fn accepts_rfc_8259_numbers() {
        for (text, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("0.5", 0.5),
            ("-12.25e-1", -1.225),
            ("1E3", 1000.0),
            ("7e+2", 700.0),
            ("10", 10.0),
        ] {
            assert_eq!(parse(text).expect(text), Json::Num(value), "{text}");
        }
    }

    #[test]
    fn errors_carry_exact_byte_offsets() {
        let filler = "é中🦀x".repeat(100_000);
        // A control byte deep inside a long string.
        let src = format!("{{\"netlist\":\"{filler}\u{1}tail\"}}");
        let at = src.find('\u{1}').expect("control byte");
        let error = parse(&src).expect_err("control byte");
        assert_eq!(
            (error.pos, error.message.as_str()),
            (at, "control character in string")
        );
        // An unterminated quote reports the end of input.
        let src = format!("{{\"netlist\":\"{filler}");
        let error = parse(&src).expect_err("unterminated");
        assert_eq!(
            (error.pos, error.message.as_str()),
            (src.len(), "unterminated string")
        );
        // A bad escape points just past the escape letter.
        let src = format!("[\"{filler}\\q\"]");
        let error = parse(&src).expect_err("bad escape");
        assert_eq!(
            (error.pos, error.message.as_str()),
            (src.len() - 2, "unknown escape")
        );
        // Trailing content points at its first byte.
        let src = format!("\"{filler}\" x");
        let error = parse(&src).expect_err("trailing");
        assert_eq!(error.pos, src.len() - 1);
    }

    #[test]
    fn body_sized_string_round_trips() {
        // A string as large as a request body may be, with every escape
        // the grammar has and one- to four-byte UTF-8. A parser that
        // does per-character work proportional to the rest of the input
        // takes minutes here.
        let chunk_text = r#"ab\"\\\/\b\f\n\r\t\u0041\u00e9\u4e2dé中🦀"#;
        let chunk_value = "ab\"\\/\u{8}\u{c}\n\r\tAé中é中🦀";
        let reps = crate::http::MAX_BODY_BYTES / chunk_text.len();
        let src = format!("\"{}\"", chunk_text.repeat(reps));
        assert!(src.len() + chunk_text.len() > crate::http::MAX_BODY_BYTES);
        let parsed = parse(&src).expect("valid");
        let expected = chunk_value.repeat(reps);
        assert_eq!(parsed.as_str(), Some(expected.as_str()));
        assert_eq!(parse(&parsed.render()).expect("render is valid"), parsed);
    }

    #[test]
    fn nesting_is_capped() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let error = parse(&nest(MAX_DEPTH + 1)).expect_err("too deep");
        assert_eq!((error.kind, error.pos), (JsonErrorKind::TooDeep, MAX_DEPTH));
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(
            parse(&objects).expect_err("too deep").kind,
            JsonErrorKind::TooDeep
        );
        // Deep enough to overflow a 2 MiB stack without the cap; the
        // parse stops at the first level past it.
        let hostile = format!("{{\"netlist\":{}", "[".repeat(1_000_000));
        assert_eq!(
            parse(&hostile).expect_err("too deep").kind,
            JsonErrorKind::TooDeep
        );
    }

    #[test]
    fn numbers_render_without_noise() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(0.25).render(), "0.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(parse("0.25").expect("num"), Json::Num(0.25));
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = parse(r#""Aé""#).expect("valid");
        assert_eq!(v.as_str(), Some("Aé"));
        let esc = parse(r#""\u0041z""#).expect("valid");
        assert_eq!(esc.as_str(), Some("Az"));
    }
}
