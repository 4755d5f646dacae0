//! A minimal JSON document model with a writer and a parser.
//!
//! The workspace is hermetic (no external crates), so telemetry exports
//! carry their own JSON support. The model is deliberately small:
//!
//! - Objects preserve insertion order (exports are diffable).
//! - All numbers are `f64`; integers survive exactly up to 2^53, which
//!   covers every counter the simulator produces.
//! - Non-finite floats (`NaN`, `±inf`) have no JSON spelling and are
//!   written as `null`, the same convention browsers' `JSON.stringify`
//!   uses.
//!
//! The parser exists so tests (and `dbpreport --check`, which gates CI's
//! exported artifacts) can validate what the writer produced; it
//! accepts exactly RFC 8259 documents.
//!
//! [`JsonValue`] ties a type to its one JSON spelling, and `json_record!`
//! derives a struct's writer and reader from its field list, so no record
//! in this crate spells its keys more than once.

use std::fmt::Write as _;

/// 2^53: the largest integer up to which every integer is an exact `f64`.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers, integral or not. Non-finite values render as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key-value pairs in insertion order (keys are not deduplicated).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array from values.
    pub fn arr(values: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(values.into_iter().collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned integer (exact up to 2^53).
    pub fn uint(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// A float value.
    pub fn num(v: f64) -> Json {
        Json::Num(v)
    }

    /// Look up a key in an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (`None` on non-arrays).
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean value (`None` on non-booleans).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value (`None` on non-numbers).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value (`None` on non-strings).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer: `None` unless it is a finite,
    /// non-negative, integral number no larger than 2^53 (the range in
    /// which the `f64` model is exact), so a reader never casts `-3` to 0
    /// or `1e30` to `u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_num()?;
        ((0.0..=MAX_EXACT_INT).contains(&v) && v == v.trunc()).then_some(v as u64)
    }

    /// The required field `key`, whatever its type.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key).ok_or_else(|| format!("missing `{key}`"))
    }

    /// The required array field `key`, borrowed.
    ///
    /// # Errors
    ///
    /// Names the key when it is absent or not an array.
    pub fn req_arr(&self, key: &str) -> Result<&[Json], String> {
        self.req(key)?.as_arr().ok_or_else(|| format!("`{key}` must be an array"))
    }

    /// The field `key` read as a `T`. An absent key reads as `null`, which
    /// only an `Option` accepts (how the writers spell a missing value).
    ///
    /// # Errors
    ///
    /// Names the key when it is absent or does not hold a `T`.
    pub fn field<T: JsonValue>(&self, key: &str) -> Result<T, String> {
        match self.get(key) {
            Some(v) => T::from_json(v).map_err(|e| format!("`{key}` {e}")),
            None => T::from_json(&Json::Null).map_err(|_| format!("missing `{key}`")),
        }
    }

    /// Serialise to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Append the compact serialisation to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_str(s, out),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// A value with one JSON spelling, written and read back by the same
/// type. Scalars, `Option`, `Vec` and every `json_record!` struct
/// implement it, so a record's reader and writer both follow from its
/// field list. Reader errors say what the value "must be"; the enclosing
/// [`Json::field`] / `Vec` prefixes the key or index that held it.
pub trait JsonValue: Sized {
    /// The value as JSON.
    fn to_json(&self) -> Json;

    /// Read the value back.
    ///
    /// # Errors
    ///
    /// Returns what `v` must be instead.
    fn from_json(v: &Json) -> Result<Self, String>;
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl JsonValue for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
            fn from_json(v: &Json) -> Result<Self, String> {
                let n = v.as_u64().ok_or("must be a non-negative integer")?;
                <$t>::try_from(n).map_err(|_| format!("{n} does not fit {}", stringify!($t)))
            }
        }
    )*};
}
json_uint!(u64, u32, usize, u128);

impl JsonValue for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_num().ok_or_else(|| "must be a number".to_string())
    }
}

impl JsonValue for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_str().map(str::to_owned).ok_or_else(|| "must be a string".to_string())
    }
}

/// `None` is `null`; anything else must be a `T`.
impl<T: JsonValue> JsonValue for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            v => T::from_json(v).map(Some),
        }
    }
}

impl<T: JsonValue> JsonValue for Vec<T> {
    fn to_json(&self) -> Json {
        Json::arr(self.iter().map(T::to_json))
    }
    fn from_json(v: &Json) -> Result<Self, String> {
        let items = v.as_arr().ok_or("must be an array")?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_json(item).map_err(|e| format!("[{i}] {e}")))
            .collect()
    }
}

/// Declare structs whose JSON object has exactly their fields, in
/// declaration order, as keys (`pub field as "key": T` renames one): the
/// one field list yields the struct, its writer and its reader.
macro_rules! json_record {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* pub $field:ident $(as $key:literal)? : $ty:ty ),* $(,)?
        }
    )+) => {$(
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty ),*
        }

        impl $crate::json::JsonValue for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::obj([
                    $( (
                        $crate::json::json_record!(@key $field $($key)?),
                        $crate::json::JsonValue::to_json(&self.$field),
                    ) ),*
                ])
            }
            fn from_json(v: &$crate::json::Json) -> Result<Self, String> {
                Ok($name {
                    $( $field: v.field($crate::json::json_record!(@key $field $($key)?))? ),*
                })
            }
        }
    )+};
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
}
pub(crate) use json_record;

fn write_num(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9e15 {
        // Integral: render without the trailing ".0" Rust would produce.
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_str(s: &str, out: &mut String) {
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
}

/// Why a parse failed, with the byte offset it failed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// Returns the first syntax violation with its byte offset.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { offset: self.pos, message: message.into() }
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
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain UTF-8 up to the next escape/quote.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            s.push(c);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Read exactly four hex digits, advancing past them.
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: "0" or [1-9][0-9]*.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("number out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) -> Json {
        parse(&v.to_json()).expect("writer output must parse")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::num(0.0),
            Json::num(-17.25),
            Json::uint(9_007_199_254_740_992), // 2^53
            Json::str("plain"),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote \" backslash \\ newline \n tab \t cr \r bell \u{7} unicode \u{1F600}";
        let v = Json::str(nasty);
        assert_eq!(round_trip(&v), v);
        // The writer must not emit raw control bytes.
        let text = v.to_json();
        assert!(!text.bytes().any(|b| b < 0x20));
        assert!(text.contains("\\u0007"));
    }

    #[test]
    fn nested_arrays_and_objects_round_trip() {
        let v = Json::obj([
            ("empty_arr", Json::arr([])),
            ("empty_obj", Json::obj::<&str>([])),
            (
                "nested",
                Json::arr([
                    Json::obj([("k", Json::arr([Json::num(1.0), Json::Null]))]),
                    Json::arr([Json::arr([Json::Bool(false)])]),
                ]),
            ),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn object_key_order_is_preserved() {
        let v = Json::obj([("z", Json::uint(1)), ("a", Json::uint(2))]);
        assert_eq!(v.to_json(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn non_finite_floats_write_as_null() {
        assert_eq!(Json::num(f64::NAN).to_json(), "null");
        assert_eq!(Json::num(f64::INFINITY).to_json(), "null");
        assert_eq!(Json::num(f64::NEG_INFINITY).to_json(), "null");
        // And the document they are embedded in still parses.
        let doc = Json::arr([Json::num(f64::NAN), Json::num(1.5)]);
        assert_eq!(parse(&doc.to_json()).unwrap(), Json::arr([Json::Null, Json::num(1.5)]));
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::uint(42).to_json(), "42");
        assert_eq!(Json::num(-3.0).to_json(), "-3");
        assert_eq!(Json::num(2.5).to_json(), "2.5");
    }

    #[test]
    fn parser_accepts_standard_syntax() {
        let v = parse(r#" { "a" : [ 1 , 2.5e2 , -0.5 , "x\u0041\ud83d\ude00" ] , "b" : null } "#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 4);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::num(250.0));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[3].as_str().unwrap(), "xA\u{1F600}");
        assert_eq!(v.get("b"), Some(&Json::Null));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "nul",
            "[1] garbage",
            "{'a':1}",
            "\"\\q\"",
            "\"\\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parser_rejects_malformed_string_escapes() {
        for bad in [
            r#""\u""#,           // \u with no digits
            r#""\u12""#,         // \u with too few digits
            r#""\u12g4""#,       // non-hex digit
            r#""\u123"#,         // escape truncated with the document
            r#""\udc00""#,       // lone low surrogate
            r#""\ud800A""#,      // high surrogate + non-surrogate
            r#""\ud800\ud800""#, // high surrogate + high surrogate
            r#""\ud83d"#,        // high surrogate, then EOF
            r#""\ud83dx""#,      // high surrogate not followed by \u
            r#""\x41""#,         // invalid escape letter
            "\"\\\"",            // backslash, then EOF
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        // The adjacent well-formed spellings all still parse.
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn parser_rejects_every_truncation_of_a_valid_document() {
        // This document only becomes valid JSON at its final byte, so
        // every strict prefix must be rejected — the "writer died
        // mid-flush" shape `dbpreport --check` exists to catch. All-ASCII, so every
        // byte offset is a char boundary.
        let doc = r#"{"a":[1,true,"xA"],"b":{"c":null,"d":-2.5e-1}}"#;
        assert!(parse(doc).is_ok());
        for cut in 0..doc.len() {
            assert!(parse(&doc[..cut]).is_err(), "prefix {:?} must not parse", &doc[..cut]);
        }
    }

    #[test]
    fn parser_rejects_runaway_nesting() {
        let deep = "[".repeat(500) + &"]".repeat(500);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::obj([("n", Json::num(1.5)), ("s", Json::str("x"))]);
        assert_eq!(v.get("n").unwrap().as_num(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.as_num(), None);
        assert_eq!(Json::num(1.0).get("k"), None);
    }

    #[test]
    fn field_names_the_key_and_refuses_lossy_integers() {
        let v = parse(
            r#"{"n":3,"neg":-3,"frac":1.5,"huge":1e30,"wide":4294967304,"s":"x","a":[1,"y"],"nil":null}"#,
        )
        .unwrap();
        assert_eq!(v.field::<u64>("n"), Ok(3));
        assert_eq!(v.field::<f64>("frac"), Ok(1.5));
        assert_eq!(v.field::<String>("s"), Ok("x".to_string()));
        assert_eq!(v.req_arr("a").map(<[Json]>::len), Ok(2));
        assert_eq!(v.field::<Option<u64>>("n"), Ok(Some(3)));
        assert_eq!(v.field::<Option<u64>>("nil"), Ok(None));
        assert_eq!(v.field::<Option<u64>>("absent"), Ok(None));
        assert_eq!(v.req("nil"), Ok(&Json::Null));
        assert_eq!(v.req("absent").unwrap_err(), "missing `absent`");
        assert_eq!(v.field::<u64>("absent").unwrap_err(), "missing `absent`");
        for key in ["neg", "frac", "huge", "s", "nil"] {
            assert!(
                v.field::<u64>(key).unwrap_err().contains(&format!("`{key}` must be")),
                "{key}"
            );
        }
        // Narrower integers are range-checked, never cast.
        assert_eq!(v.field::<u64>("wide"), Ok(4_294_967_304));
        assert_eq!(v.field::<u32>("wide").unwrap_err(), "`wide` 4294967304 does not fit u32");
        // `Option` forgives absence, not a mistyped value.
        assert!(v.field::<Option<u64>>("neg").unwrap_err().contains("`neg`"));
        assert!(v.field::<Option<f64>>("s").unwrap_err().contains("`s` must be a number"));
        assert!(v.field::<String>("n").unwrap_err().contains("`n`"));
        assert!(v.req_arr("n").unwrap_err().contains("`n`"));
        assert_eq!(v.field::<Vec<u64>>("a").unwrap_err(), "`a` [1] must be a non-negative integer");
        assert_eq!(Json::uint(1 << 53).as_u64(), Some(1 << 53));
    }
}
