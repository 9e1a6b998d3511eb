//! Hand-rolled JSON emission and parsing helpers.
//!
//! The workspace serializes JSON by hand (no serde — see the crate-level
//! determinism note), so the escape rules live here once and every sink
//! (figures, lint findings, SARIF, the service's wire responses) shares
//! them. [`parse`] is the counterpart: a small recursive-descent parser
//! producing a [`Value`] tree with typed [`JsonError`]s, used by the
//! `perilsd` request/response plumbing and by test suites that assert
//! emitted documents *structurally* instead of by substring.

/// Appends `s` to `out` as a JSON string literal (quotes included),
/// escaping per RFC 8259: `"`/`\\`, the common control shorthands, and
/// `\u00XX` for the remaining C0 controls.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    push_json_escaped(out, s);
    out.push('"');
}

/// Appends `s` escaped as the body of a JSON string literal, without the
/// quotes — for callers that assemble one literal from several pieces.
/// Runs that need no escaping are copied in one piece.
pub fn push_json_escaped(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut start = 0;
    // Every byte that needs escaping is ASCII, so each split lands on a
    // char boundary; multibyte UTF-8 (all bytes >= 0x80) is copied as is.
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xF)]));
        } else {
            out.push_str(short);
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// JSON-escapes, in place, what was appended to `out` since byte
/// `start`: for callers that write a value's words straight into the
/// body of a string literal. When nothing needs escaping, the common
/// case, nothing is copied.
pub fn escape_json_from(out: &mut String, start: usize) {
    if out.as_bytes()[start..]
        .iter()
        .any(|&b| b == b'"' || b == b'\\' || b < 0x20)
    {
        let raw = out.split_off(start);
        push_json_escaped(out, &raw);
    }
}

/// A parsed JSON document node.
///
/// Objects keep their members in **document order** (duplicate keys are
/// kept verbatim; [`Value::get`] returns the first), so a parse →
/// inspect round trip never reorders what a sink emitted — the property
/// the structural golden tests rely on.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; the grammar is validated before
    /// conversion, so `1e999` style overflow yields `inf`, never a panic).
    Number(f64),
    /// A string with all escapes decoded (including surrogate pairs).
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, members in document order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match, document order). `None` for
    /// non-objects and absent keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if this is a number
    /// with an exact non-negative integral value.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // `u64::MAX as f64` rounds up to 2^64, which is not
            // representable as a u64 — strict `<` keeps the cast in range.
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Maximum container nesting depth [`parse`] accepts. Recursion depth
/// is bounded by input nesting, so without a cap a small hostile
/// document (~30k bytes of `[`) overflows the stack of whatever thread
/// called `parse` — and the service feeds network bodies straight in.
/// 128 is far beyond any document the workspace emits.
pub const MAX_DEPTH: usize = 128;

/// What went wrong at [`JsonError::offset`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// No value where one was required.
    ExpectedValue,
    /// Containers nested deeper than [`MAX_DEPTH`].
    DepthLimitExceeded,
    /// A specific punctuation byte was required (`:`/`,`/`}`/`]`/...).
    ExpectedToken(char),
    /// `true`/`false`/`null` started but did not finish.
    MalformedLiteral,
    /// A number token violated the JSON grammar.
    MalformedNumber,
    /// A `\\u` escape without four hex digits, or a lone surrogate.
    MalformedEscape,
    /// A raw control character inside a string.
    ControlInString,
    /// The document ended inside a string.
    UnterminatedString,
    /// Bytes beyond the first complete document.
    TrailingContent,
    /// The input is not valid UTF-8 at this offset.
    InvalidUtf8,
}

impl std::fmt::Display for JsonErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonErrorKind::ExpectedValue => write!(f, "expected a JSON value"),
            JsonErrorKind::DepthLimitExceeded => {
                write!(f, "nesting deeper than {MAX_DEPTH} levels")
            }
            JsonErrorKind::ExpectedToken(c) => write!(f, "expected {c:?}"),
            JsonErrorKind::MalformedLiteral => write!(f, "malformed literal"),
            JsonErrorKind::MalformedNumber => write!(f, "malformed number"),
            JsonErrorKind::MalformedEscape => write!(f, "malformed escape"),
            JsonErrorKind::ControlInString => write!(f, "raw control character in string"),
            JsonErrorKind::UnterminatedString => write!(f, "unterminated string"),
            JsonErrorKind::TrailingContent => write!(f, "trailing content"),
            JsonErrorKind::InvalidUtf8 => write!(f, "invalid UTF-8"),
        }
    }
}

/// A typed parse failure: what was wrong and the byte offset it was
/// detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// The failure class.
    pub kind: JsonErrorKind,
}

impl JsonError {
    fn at(offset: usize, kind: JsonErrorKind) -> JsonError {
        JsonError { offset, kind }
    }
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.kind, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Parses `s` as exactly one JSON document (nothing but whitespace after
/// it) into a [`Value`] tree.
pub fn parse(s: &str) -> Result<Value, JsonError> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError::at(pos, JsonErrorKind::TrailingContent));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, token: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == token {
        *pos += 1;
        Ok(())
    } else {
        Err(JsonError::at(
            *pos,
            JsonErrorKind::ExpectedToken(token as char),
        ))
    }
}

/// `depth` counts enclosing containers: `0` at the top level, `+1` per
/// `[`/`{`. At [`MAX_DEPTH`] the parse fails instead of recursing —
/// the recursion depth here is attacker-controlled otherwise.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    skip_ws(bytes, pos);
    if depth >= MAX_DEPTH {
        return Err(JsonError::at(*pos, JsonErrorKind::DepthLimitExceeded));
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, b"true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(JsonError::at(*pos, JsonErrorKind::ExpectedValue)),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &[u8],
    value: Value,
) -> Result<Value, JsonError> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(JsonError::at(*pos, JsonErrorKind::MalformedLiteral))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    expect(bytes, pos, b'{')?;
    skip_ws(bytes, pos);
    let mut members = Vec::new();
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            _ => return Err(JsonError::at(*pos, JsonErrorKind::ExpectedToken('}'))),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, JsonError> {
    expect(bytes, pos, b'[')?;
    skip_ws(bytes, pos);
    let mut items = Vec::new();
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(JsonError::at(*pos, JsonErrorKind::ExpectedToken(']'))),
        }
    }
}

/// Parses a string literal, decoding every escape. `\uXXXX` escapes
/// decode through surrogate pairs; a lone surrogate is a typed error
/// (JSON text is required to be valid Unicode).
fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err(JsonError::at(*pos, JsonErrorKind::UnterminatedString));
        };
        match c {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        *pos += 1;
                        let unit = parse_hex4(bytes, pos)?;
                        let scalar = if (0xD800..0xDC00).contains(&unit) {
                            // High surrogate: a low surrogate escape must
                            // follow immediately.
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let low = parse_hex4(bytes, pos)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(JsonError::at(
                                        *pos,
                                        JsonErrorKind::MalformedEscape,
                                    ));
                                }
                                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                return Err(JsonError::at(*pos, JsonErrorKind::MalformedEscape));
                            }
                        } else if (0xDC00..0xE000).contains(&unit) {
                            return Err(JsonError::at(*pos, JsonErrorKind::MalformedEscape));
                        } else {
                            unit
                        };
                        out.push(
                            char::from_u32(scalar)
                                .ok_or(JsonError::at(*pos, JsonErrorKind::MalformedEscape))?,
                        );
                        continue; // parse_hex4 already advanced past the digits
                    }
                    _ => return Err(JsonError::at(*pos, JsonErrorKind::MalformedEscape)),
                }
                *pos += 1;
            }
            c if c < 0x20 => return Err(JsonError::at(*pos, JsonErrorKind::ControlInString)),
            _ => {
                // Copy one whole UTF-8 scalar (the input is a &str, so
                // boundaries are trustworthy; the check is belt-and-braces
                // for sliced inputs).
                let len = utf8_len(c);
                let end = *pos + len;
                let chunk = bytes
                    .get(*pos..end)
                    .and_then(|b| std::str::from_utf8(b).ok())
                    .ok_or(JsonError::at(*pos, JsonErrorKind::InvalidUtf8))?;
                out.push_str(chunk);
                *pos = end;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let mut value = 0u32;
    for _ in 0..4 {
        let digit = bytes
            .get(*pos)
            .and_then(|c| (*c as char).to_digit(16))
            .ok_or(JsonError::at(*pos, JsonErrorKind::MalformedEscape))?;
        value = value * 16 + digit;
        *pos += 1;
    }
    Ok(value)
}

/// Parses a number token per the JSON grammar (`-?int frac? exp?`), then
/// converts through `f64`.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, JsonError> {
    let start = *pos;
    let fail = |at: usize| JsonError::at(at, JsonErrorKind::MalformedNumber);
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // Integer part: one zero, or a nonzero digit run.
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(c) if c.is_ascii_digit() => {
            while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
        }
        _ => return Err(fail(start)),
    }
    // Fraction.
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            return Err(fail(start));
        }
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
    }
    // Exponent.
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            return Err(fail(start));
        }
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number token");
    text.parse::<f64>()
        .map(Value::Number)
        .map_err(|_| fail(start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The char-by-char escaper `push_json_string` used to be: the oracle
    /// the run-copying escaper must match byte for byte.
    fn push_json_string_oracle(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    proptest! {
        #[test]
        fn run_copying_escaper_matches_the_char_oracle(
            chars in proptest::collection::vec(
                proptest::sample::select(
                    ['a', 'Z', '0', ' ', '.', '"', '\\', '/', '\n', '\r', '\t', '\0',
                     '\u{1}', '\u{8}', '\u{c}', '\u{1b}', '\u{1f}', '\u{7f}', 'é', 'ζ',
                     '→', '☃', '😀']
                    .to_vec(),
                ),
                0..48,
            )
        ) {
            let s: String = chars.into_iter().collect();
            let mut fast = String::from("prefix");
            push_json_string(&mut fast, &s);
            let mut oracle = String::from("prefix");
            push_json_string_oracle(&mut oracle, &s);
            prop_assert_eq!(&fast, &oracle);
            prop_assert_eq!(parse(&fast["prefix".len()..]), Ok(Value::String(s.clone())));

            // Escaping in place what was appended writes the same body.
            let mut in_place = String::from("prefix\"");
            let start = in_place.len();
            in_place.push_str(&s);
            escape_json_from(&mut in_place, start);
            in_place.push('"');
            prop_assert_eq!(&in_place, &oracle);
        }
    }

    #[test]
    fn escapes_round_trip_through_the_validator() {
        let mut out = String::new();
        push_json_string(&mut out, "plain");
        assert_eq!(out, "\"plain\"");

        let mut out = String::new();
        push_json_string(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        parse(&out).expect("escaped string is valid JSON");
    }

    #[test]
    fn escapes_round_trip_through_the_parser() {
        for original in ["plain", "a\"b\\c\nd\te\u{1}", "unicode ζ→☃", ""] {
            let mut out = String::new();
            push_json_string(&mut out, original);
            assert_eq!(
                parse(&out),
                Ok(Value::String(original.to_string())),
                "{original:?}"
            );
        }
    }

    #[test]
    fn accepts_well_formed_documents() {
        for doc in [
            "null",
            "true",
            "-12.5e3",
            "\"x\"",
            "[]",
            "[1, 2, [3]]",
            "{}",
            r#"{"a": {"b": [1, null, "cA"]}, "d": false}"#,
            "  {\n\"k\": 1\n}  ",
        ] {
            parse(doc).unwrap_or_else(|e| panic!("{doc:?}: {e}"));
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'a': 1}",
            "[\"\u{1}\"]",
            "01",
            "1.",
            "1e",
            "-",
            "\"\\ud800\"",
            "\"\\udc00 lone low\"",
            "\"\\uZZZZ\"",
        ] {
            assert!(parse(doc).is_err(), "{doc:?} should fail");
        }
    }

    #[test]
    fn parses_structured_documents() {
        let doc = r#"{"name": "www.fbi.gov", "tcb": 14, "safe": 92.5,
                      "cut": null, "tags": ["a", "b"], "ok": true}"#;
        let value = parse(doc).expect("parses");
        assert_eq!(
            value.get("name").and_then(Value::as_str),
            Some("www.fbi.gov")
        );
        assert_eq!(value.get("tcb").and_then(Value::as_u64), Some(14));
        assert_eq!(value.get("safe").and_then(Value::as_f64), Some(92.5));
        assert_eq!(value.get("cut"), Some(&Value::Null));
        assert_eq!(value.get("ok").and_then(Value::as_bool), Some(true));
        let tags = value.get("tags").and_then(Value::as_array).expect("array");
        assert_eq!(tags.len(), 2);
        assert_eq!(tags[0].as_str(), Some("a"));
        assert_eq!(value.get("absent"), None);
    }

    #[test]
    fn object_members_keep_document_order() {
        let value = parse(r#"{"z": 1, "a": 2, "z": 3}"#).expect("parses");
        let members = value.as_object().expect("object");
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a", "z"]);
        // get() returns the first duplicate.
        assert_eq!(value.get("z").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            parse("\"\\ud83d\\ude00\""),
            Ok(Value::String("😀".to_string()))
        );
    }

    #[test]
    fn errors_are_typed_with_offsets() {
        let err = parse("{\"a\": }").unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::ExpectedValue);
        assert_eq!(err.offset, 6);
        let err = parse("[1, 2").unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::ExpectedToken(']'));
        let err = parse("null null").unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::TrailingContent);
        assert_eq!(err.to_string(), "trailing content at byte 5");
    }

    #[test]
    fn nesting_is_capped_instead_of_recursing_unboundedly() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.kind, JsonErrorKind::DepthLimitExceeded);
        // Objects hit the same cap.
        let deep_obj = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert_eq!(
            parse(&deep_obj).unwrap_err().kind,
            JsonErrorKind::DepthLimitExceeded
        );
        // The attack shape: a 60 KB document of open brackets must be a
        // typed error, not a stack overflow (this would abort the whole
        // process before the cap existed).
        let bomb = "[".repeat(60 * 1024);
        assert_eq!(
            parse(&bomb).unwrap_err().kind,
            JsonErrorKind::DepthLimitExceeded
        );
    }

    #[test]
    fn numbers_parse_by_value() {
        for (doc, expected) in [
            ("0", 0.0),
            ("-0", 0.0),
            ("12.25", 12.25),
            ("-3e2", -300.0),
            ("1.5E-1", 0.15),
        ] {
            assert_eq!(parse(doc), Ok(Value::Number(expected)), "{doc}");
        }
        assert_eq!(parse("18446744073709551615").unwrap().as_u64(), None); // not exact in f64
        assert_eq!(parse("4503599627370496").unwrap().as_u64(), Some(1 << 52));
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }
}
