//! A minimal JSON reader and writer.
//!
//! The workspace builds offline (no serde), but the exporter's output
//! must be *provably* valid JSON — the integration tests parse every
//! exported trace with this module. It is a strict recursive-descent
//! parser for the subset of JSON the exporter emits plus everything a
//! hand-edited trace could contain; it is not a performance target.
//!
//! [`to_string`] is the matching pretty-printer: object keys come out
//! in `BTreeMap` order, so serialized documents (bench results,
//! `RunReport`s) are deterministic and diffable across runs.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number: every fraction, exponent, negative, and integer up
    /// to 2^53, the range in which an `f64` holds each integer exactly.
    Num(f64),
    /// A non-negative integer literal past 2^53, kept exact: as an
    /// `f64` it would round, and trace and span ids use all 64 bits.
    UInt(u64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object member lookup; `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Json>> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The exact value if this is a non-negative integer: a
    /// [`Json::UInt`], or a [`Json::Num`] no larger than 2^53.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            Json::Num(n) if n.fract() == 0.0 && (0.0..=MAX_EXACT as f64).contains(n) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// 2^53: every integer up to here is exact as an `f64`.
const MAX_EXACT: u64 = 1 << 53;

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => Ok(Json::Str(string(b, pos)?)),
        Some(b't') => literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => literal(b, pos, "null", Json::Null),
        Some(_) => number(b, pos),
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let v = value(b, pos)?;
        map.insert(key, v);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    *pos += 1; // '"'
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        // Surrogate pairs are not emitted by our
                        // exporter; map lone surrogates to U+FFFD.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so
                // boundaries are valid).
                let s = &b[*pos..];
                let ch_len = utf8_len(s[0]);
                let chunk = std::str::from_utf8(&s[..ch_len]).map_err(|e| e.to_string())?;
                out.push_str(chunk);
                *pos += ch_len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    match text.parse::<u64>() {
        Ok(n) if n > MAX_EXACT => return Ok(Json::UInt(n)),
        _ => {}
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

/// Serialize a [`Json`] value (pretty, two-space indent, keys in
/// `BTreeMap` order — deterministic across runs). Ends with a newline.
pub fn to_string(v: &Json) -> String {
    let mut out = String::new();
    emit(v, 0, &mut out);
    out.push('\n');
    out
}

fn emit(v: &Json, indent: usize, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Json::UInt(n) => out.push_str(&n.to_string()),
        Json::Str(s) => emit_str(s, out),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
                emit(item, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Json::Obj(m) => {
            if m.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, val)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
                emit_str(k, out);
                out.push_str(": ");
                emit(val, indent + 1, out);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
    }
}

fn emit_str(s: &str, out: &mut String) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serializer_round_trips_through_the_parser() {
        let mut obj = BTreeMap::new();
        obj.insert("a \"x\"\n".to_string(), Json::Num(1.5));
        obj.insert(
            "b".to_string(),
            Json::Arr(vec![Json::Null, Json::Bool(true)]),
        );
        obj.insert("c".to_string(), Json::Obj(BTreeMap::new()));
        let v = Json::Obj(obj);
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn integers_serialize_without_fraction() {
        let mut s = String::new();
        emit(&Json::Num(12345.0), 0, &mut s);
        assert_eq!(s, "12345");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse(" -12.5e2 ").unwrap(), Json::Num(-1250.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
    }

    #[test]
    fn integers_past_2_53_parse_exactly() {
        let big = "[9007199254740992,9007199254740993,11400714819323198485,18446744073709551615]";
        let v = parse(big).unwrap();
        let got: Vec<Option<u64>> = v.as_array().unwrap().iter().map(Json::as_u64).collect();
        assert_eq!(
            got,
            [
                Some(1 << 53),
                Some((1 << 53) + 1),
                Some(11_400_714_819_323_198_485),
                Some(u64::MAX)
            ]
            .to_vec()
        );
        // Up to 2^53 a number stays a `Num`; past it, only integer
        // literals become exact.
        assert_eq!(
            parse("9007199254740992").unwrap(),
            Json::Num(9007199254740992.0)
        );
        assert_eq!(parse("-9007199254740993").unwrap().as_u64(), None);
        assert!(matches!(parse("1e19").unwrap(), Json::Num(_)));
        assert!(matches!(
            parse("18446744073709551616").unwrap(),
            Json::Num(_)
        ));
        assert_eq!(parse("2.5").unwrap().as_u64(), None);
        assert_eq!(to_string(&v).replace([' ', '\n'], ""), big);
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a":[1,{"b":"c"},[]],"d":{}}"#).unwrap();
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("c"));
        assert_eq!(arr[2].as_array().map(Vec::len), Some(0));
        assert_eq!(v.get("d"), Some(&Json::Obj(BTreeMap::new())));
    }

    #[test]
    fn unicode_and_escapes() {
        let v = parse("\"caf\u{e9} \\u0041\"").unwrap();
        assert_eq!(v.as_str(), Some("café A"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}
