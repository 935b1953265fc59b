//! Minimal JSON building blocks, a syntax validator, and a small
//! value-returning parser.
//!
//! The artifact writers assemble JSON by hand (no serde in an offline
//! build); these helpers keep the escaping and number formatting in one
//! audited place, [`validate`] lets tests and CI assert that an emitted
//! artifact parses without any external tooling, and [`parse`] returns a
//! [`Json`] tree for consumers (like the scenario loader) that need to
//! read hand-written JSON documents.

/// Escapes and quotes a string as a JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Formats an `f64` as a JSON number; non-finite values become `null`
/// (JSON has no Infinity/NaN).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `{}` on a finite f64 never produces exponent syntax in Rust,
        // and always round-trips; integers print without a dot, which
        // is still a valid JSON number.
        s
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value.
///
/// Objects preserve insertion order (a plain key/value list, not a map):
/// the documents this crate reads are small, and order preservation keeps
/// round-trip diagnostics readable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// The `null` literal.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number (JSON numbers are parsed as `f64`).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array of values.
    Array(Vec<Json>),
    /// An object as an ordered key/value list.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric member interpreted as `u64` (must be a non-negative
    /// integer representable without rounding).
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        if v >= 0.0 && v <= 2f64.powi(53) && v.fract() == 0.0 {
            Some(v as u64)
        } else {
            None
        }
    }

    /// The value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as `&str` if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice of items if it is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as ordered members if it is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(members) => Some(members),
            _ => None,
        }
    }

    /// Whether the value is the `null` literal.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Parses one complete JSON document (optional surrounding whitespace)
/// into a [`Json`] tree. Errors carry the byte offset of the failure.
pub fn parse(s: &str) -> Result<Json, String> {
    let b = s.as_bytes();
    let mut pos = 0;
    skip_ws(b, &mut pos);
    let v = value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

/// Checks that `s` is one complete JSON value (with optional
/// surrounding whitespace). Returns the byte offset of the first
/// error.
pub fn validate(s: &str) -> Result<(), String> {
    parse(s).map(|_| ())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string_lit(b, pos).map(Json::Str),
        Some(b't') => literal(b, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => literal(b, pos, "false").map(|()| Json::Bool(false)),
        Some(b'n') => literal(b, pos, "null").map(|()| Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}", pos = *pos)),
        None => Err(format!("unexpected end of input at {pos}", pos = *pos)),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let mut members = Vec::new();
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(members));
    }
    loop {
        skip_ws(b, pos);
        let key = string_lit(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        skip_ws(b, pos);
        let v = value(b, pos)?;
        members.push((key, v));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let mut items = Vec::new();
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        skip_ws(b, pos);
        items.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn string_lit(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    let mut run = *pos; // start of the current escape-free byte run
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                out.push_str(raw_str(b, run, *pos));
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                out.push_str(raw_str(b, run, *pos));
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hi = hex4(b, pos)?;
                        let ch = if (0xD800..0xDC00).contains(&hi) {
                            // High surrogate: require a \uXXXX low half.
                            if b.get(*pos + 1) == Some(&b'\\') && b.get(*pos + 2) == Some(&b'u') {
                                *pos += 2;
                                let lo = hex4(b, pos)?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(format!(
                                        "unpaired surrogate at byte {pos}",
                                        pos = *pos
                                    ));
                                }
                                let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                // A combined surrogate pair always lands
                                // in 0x10000..0x110000, a valid scalar.
                                char::from_u32(c)
                                    .expect("surrogate pair combines to a valid scalar")
                            } else {
                                return Err(format!(
                                    "unpaired surrogate at byte {pos}",
                                    pos = *pos
                                ));
                            }
                        } else {
                            char::from_u32(hi).ok_or_else(|| {
                                format!("unpaired surrogate at byte {pos}", pos = *pos)
                            })?
                        };
                        out.push(ch);
                        // hex4 leaves `pos` on the final hex digit; the
                        // shared advance below moves past it.
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
                run = *pos;
            }
            c if c < 0x20 => {
                return Err(format!("raw control byte in string at {pos}", pos = *pos))
            }
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

/// The input is a `&str`, so any escape-free run between two byte
/// offsets is valid UTF-8.
fn raw_str(b: &[u8], start: usize, end: usize) -> &str {
    std::str::from_utf8(&b[start..end]).expect("JSON input is a &str")
}

/// Reads the 4 hex digits of a `\u` escape. On entry `pos` is at the
/// `u`; on success it is left on the final hex digit.
fn hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let mut v = 0u32;
    for i in 1..=4 {
        let d = b
            .get(*pos + i)
            .and_then(|c| (*c as char).to_digit(16))
            .ok_or_else(|| format!("bad \\u escape at byte {pos}", pos = *pos))?;
        v = v * 16 + d;
    }
    *pos += 4;
    Ok(v)
}

fn number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    let text = raw_str(b, start, *pos);
    let v: f64 = text.parse().map_err(|_| format!("bad number at byte {start}"))?;
    // JSON has no infinity: a literal beyond `f64` (`1e999`) is an
    // error, not +∞.
    if !v.is_finite() {
        return Err(format!("number out of range at byte {start}"));
    }
    Ok(Json::Num(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_through_validation() {
        let s = string("a\"b\\c\nd\te\u{1}f");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
        validate(&s).unwrap();
    }

    #[test]
    fn num_handles_non_finite() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(-0.001), "-0.001");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        validate(&num(1e-30)).unwrap();
    }

    #[test]
    fn validator_accepts_well_formed_documents() {
        for doc in [
            "null",
            "true",
            "-12.5e-3",
            "\"hi\"",
            "[]",
            "[1, [2, {\"a\": null}], \"x\"]",
            "{\"k\": {\"nested\": [1.0, 2e9]}, \"s\": \"\\u00e9\"}",
            "  { \"ws\" : [ ] }  ",
        ] {
            validate(doc).unwrap_or_else(|e| panic!("{doc}: {e}"));
        }
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "\"unterminated",
            "01e",
            "1 2",
            "{'single': 1}",
            "[Infinity]",
            "{\"bad\\q\": 1}",
            "\"lone \\ud800 surrogate\"",
        ] {
            assert!(validate(doc).is_err(), "accepted malformed {doc:?}");
        }
    }

    #[test]
    fn parse_builds_the_expected_tree() {
        let doc = r#"{"name": "fig2", "hops": [2, 5, 10], "sim": {"on": true, "eps": 1e-3}, "note": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("name").and_then(Json::as_str), Some("fig2"));
        let hops: Vec<u64> = v
            .get("hops")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|h| h.as_u64().unwrap())
            .collect();
        assert_eq!(hops, [2, 5, 10]);
        let sim = v.get("sim").unwrap();
        assert_eq!(sim.get("on").and_then(Json::as_bool), Some(true));
        assert_eq!(sim.get("eps").and_then(Json::as_f64), Some(1e-3));
        assert!(v.get("note").unwrap().is_null());
        assert!(v.get("missing").is_none());
        assert_eq!(v.as_object().unwrap().len(), 4);
    }

    #[test]
    fn parse_decodes_escapes_and_surrogate_pairs() {
        let v = parse(r#""tab\there \u00e9 pair \ud83d\ude00 end""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\there \u{e9} pair \u{1f600} end"));
        // Builder output round-trips through the parser.
        let original = "a\"b\\c\nd\te\u{1}f\u{1f600}";
        assert_eq!(parse(&string(original)).unwrap().as_str(), Some(original));
    }

    #[test]
    fn numbers_beyond_f64_are_rejected() {
        for doc in ["1e999", "-1e999", "{\"u_stop\": 1e999}", "[1, 2e400]"] {
            let err = parse(doc).expect_err(doc);
            assert!(err.contains("out of range"), "{doc}: {err}");
        }
        // Underflow rounds to zero, which is finite.
        assert_eq!(parse("1e-999").unwrap().as_f64(), Some(0.0));
        assert_eq!(parse("1.7976931348623157e308").unwrap().as_f64(), Some(f64::MAX));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("42.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("\"42\"").unwrap().as_u64(), None);
    }
}
