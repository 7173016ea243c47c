//! A minimal reader for the JSON this workspace writes.
//!
//! The workspace vendors no JSON library. The trace format is
//! deliberately restricted to one-line objects with scalar values
//! (string / number / bool / null); [`parse_flat_object`] covers
//! exactly what [`crate::report`] needs and still rejects nesting — by
//! construction the tracer never emits it. The bench baselines
//! (`results/BENCH_*.json`) do nest, so [`parse_json`] additionally
//! accepts arbitrary arrays and objects.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// A JSON string (unescaped).
    Str(String),
    /// Any JSON number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// An array (only produced by [`parse_json`]).
    Arr(Vec<JsonValue>),
    /// An object (only produced by [`parse_json`]).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The value as an `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Self::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object, if an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            Self::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Looks up `key` in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_obj().and_then(|m| m.get(key))
    }
}

/// Why a line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Reads `text` from byte `pos`, which only ever advances over ASCII
/// bytes or over whole runs of characters, so it always sits on a char
/// boundary and slicing `text` at it cannot panic.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err<T>(&self, message: &str) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.pos,
            message: message.to_string(),
        })
    }

    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected {:?}", b as char))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'u') => {
                            let c = self.unicode_escape()?;
                            out.push(c);
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or escape at once;
                    // both are ASCII, so the run ends on a char boundary.
                    let rest = &self.text[self.pos..];
                    let run = rest
                        .bytes()
                        .position(|b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    /// Decodes the `\u` escape whose `u` is at `pos`, leaving `pos` on its
    /// last hex digit. A UTF-16 surrogate pair (`\ud83d\ude00`) is one
    /// character; a surrogate without its partner is an error.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let Some(unit) = self.hex4(self.pos + 1) else {
            return self.err("bad \\u escape");
        };
        self.pos += 4;
        let code = match unit {
            0xD800..=0xDBFF => {
                let low = match self.text.get(self.pos + 1..self.pos + 3) {
                    Some("\\u") => self.hex4(self.pos + 3),
                    _ => None,
                };
                match low {
                    Some(low @ 0xDC00..=0xDFFF) => {
                        self.pos += 6;
                        0x1_0000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                    }
                    _ => return self.err("unpaired surrogate in \\u escape"),
                }
            }
            0xDC00..=0xDFFF => return self.err("unpaired surrogate in \\u escape"),
            _ => unit,
        };
        match char::from_u32(code) {
            Some(c) => Ok(c),
            None => self.err("bad \\u escape"),
        }
    }

    /// The four hex digits at byte `at` as one UTF-16 code unit; `None`
    /// unless all four are hex digits (`from_str_radix` alone would take
    /// a leading `+`).
    fn hex4(&self, at: usize) -> Option<u32> {
        let digits = self.text.get(at..at + 4)?;
        if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u32::from_str_radix(digits, 16).ok()
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map_err(|_| ParseError {
                at: start,
                message: "bad number".to_string(),
            })
    }

    fn literal(&mut self, word: &str) -> bool {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't' | b'f' | b'n') => {
                for (word, value) in [
                    ("true", JsonValue::Bool(true)),
                    ("false", JsonValue::Bool(false)),
                    ("null", JsonValue::Null),
                ] {
                    if self.literal(word) {
                        return Ok(value);
                    }
                }
                self.err("expected a scalar value")
            }
            Some(b'-' | b'0'..=b'9') => Ok(JsonValue::Num(self.number()?)),
            Some(b'{' | b'[') => self.err("nested values are not supported"),
            _ => self.err("expected a scalar value"),
        }
    }

    /// Recursion depth cap for [`parse_json`] — bounds stack use on
    /// adversarial input.
    const MAX_DEPTH: usize = 64;

    fn any_value(&mut self, depth: usize) -> Result<JsonValue, ParseError> {
        if depth >= Self::MAX_DEPTH {
            return self.err("too deeply nested");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth).map(JsonValue::Obj),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                loop {
                    items.push(self.any_value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Arr(items));
                        }
                        _ => return self.err("expected ',' or ']'"),
                    }
                }
            }
            _ => self.value(),
        }
    }

    fn object(&mut self, depth: usize) -> Result<BTreeMap<String, JsonValue>, ParseError> {
        let mut out = BTreeMap::new();
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(out);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            out.insert(key, self.any_value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses one complete JSON value, nesting allowed.
///
/// # Errors
///
/// Fails on malformed JSON, trailing input, or nesting deeper than an
/// internal cap.
pub fn parse_json(text: &str) -> Result<JsonValue, ParseError> {
    let mut c = Cursor { text, pos: 0 };
    let value = c.any_value(0)?;
    c.skip_ws();
    if c.pos != c.text.len() {
        return c.err("trailing input after value");
    }
    Ok(value)
}

/// Parses one flat JSON object line into key → scalar pairs.
///
/// # Errors
///
/// Fails on anything that is not a single flat object of scalar values
/// (see module docs).
pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonValue>, ParseError> {
    let mut c = Cursor { text: line, pos: 0 };
    let mut out = BTreeMap::new();
    c.skip_ws();
    c.expect(b'{')?;
    c.skip_ws();
    if c.peek() == Some(b'}') {
        c.pos += 1;
    } else {
        loop {
            c.skip_ws();
            let key = c.string()?;
            c.skip_ws();
            c.expect(b':')?;
            let value = c.value()?;
            out.insert(key, value);
            c.skip_ws();
            match c.peek() {
                Some(b',') => c.pos += 1,
                Some(b'}') => {
                    c.pos += 1;
                    break;
                }
                _ => return c.err("expected ',' or '}'"),
            }
        }
    }
    c.skip_ws();
    if c.pos != c.text.len() {
        return c.err("trailing input after object");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_tracer_output() {
        use crate::trace::{TraceEvent, Value};
        let e = TraceEvent {
            slot: 42,
            kind: "arm_eliminated".to_string(),
            fields: vec![
                ("shard", Value::U64(2)),
                ("value_mhz", Value::F64(437.5)),
                ("note", Value::Str("a \"b\"\nc".to_string())),
                ("ok", Value::Bool(false)),
            ],
        };
        let parsed = parse_flat_object(&e.to_json_line()).unwrap();
        assert_eq!(parsed["slot"].as_u64(), Some(42));
        assert_eq!(parsed["kind"].as_str(), Some("arm_eliminated"));
        assert_eq!(parsed["shard"].as_u64(), Some(2));
        assert_eq!(parsed["value_mhz"].as_f64(), Some(437.5));
        assert_eq!(parsed["note"].as_str(), Some("a \"b\"\nc"));
        assert_eq!(parsed["ok"], JsonValue::Bool(false));
    }

    #[test]
    fn handles_empty_and_whitespace() {
        assert!(parse_flat_object("{}").unwrap().is_empty());
        let m = parse_flat_object(" { \"a\" : 1 , \"b\" : null } ").unwrap();
        assert_eq!(m["a"].as_u64(), Some(1));
        assert_eq!(m["b"], JsonValue::Null);
    }

    #[test]
    fn rejects_nesting_and_garbage() {
        assert!(parse_flat_object("{\"a\":[1]}").is_err());
        assert!(parse_flat_object("{\"a\":{\"b\":1}}").is_err());
        assert!(parse_flat_object("{\"a\":1} extra").is_err());
        assert!(parse_flat_object("not json").is_err());
        assert!(parse_flat_object("{\"a\":1").is_err());
    }

    #[test]
    fn parse_json_accepts_nested_structures() {
        let v = parse_json(
            "{\"bench\":\"lp\",\"machine\":{\"cpus\":8},\
             \"results\":[{\"name\":\"a\",\"median_ns\":1500.0},{\"name\":\"b\"}]}",
        )
        .unwrap();
        assert_eq!(v.get("bench").and_then(JsonValue::as_str), Some("lp"));
        assert_eq!(
            v.get("machine")
                .and_then(|m| m.get("cpus"))
                .and_then(JsonValue::as_u64),
            Some(8)
        );
        let results = v.get("results").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(
            results[0].get("median_ns").and_then(JsonValue::as_f64),
            Some(1500.0)
        );
        assert_eq!(
            parse_json("[1,[2,[3]]]").unwrap().as_arr().unwrap().len(),
            2
        );
    }

    #[test]
    fn parse_json_rejects_malformed_and_bottomless_input() {
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("[1 2]").is_err());
        assert!(parse_json("{\"a\":1} extra").is_err());
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_json(&deep).is_err());
    }

    #[test]
    fn numbers_parse_with_exponents_and_sign() {
        let m = parse_flat_object("{\"a\":-1.5e2,\"b\":0.25,\"c\":12}").unwrap();
        assert_eq!(m["a"].as_f64(), Some(-150.0));
        assert_eq!(m["b"].as_f64(), Some(0.25));
        assert_eq!(m["c"].as_u64(), Some(12));
        assert_eq!(m["a"].as_u64(), None);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Multi-byte characters and escapes throughout, > 512 KiB raw.
        let unit = r#"abc é€😀 \"q\" \\ \u00e9\n"#;
        let decoded_unit = "abc é€😀 \"q\" \\ é\n";
        let repeats = 512 * 1024 / unit.len() + 1;
        let raw = unit.repeat(repeats);
        let decoded = decoded_unit.repeat(repeats);
        assert!(raw.len() >= 512 * 1024);
        let started = std::time::Instant::now();
        let value = parse_json(&format!("{{\"big\":\"{raw}\",\"n\":[1,2]}}")).unwrap();
        assert_eq!(
            value.get("big").and_then(JsonValue::as_str),
            Some(&*decoded)
        );
        let line = parse_flat_object(&format!("{{\"slot\":1,\"note\":\"{raw}\"}}")).unwrap();
        assert_eq!(line["note"].as_str(), Some(&*decoded));
        assert_eq!(line["slot"].as_u64(), Some(1));
        let elapsed = started.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "two 512 KiB strings took {elapsed:?}"
        );
    }

    #[test]
    fn unicode_escapes_decode_pairs_and_reject_strays() {
        let decode = |raw: &str| {
            parse_flat_object(&format!("{{\"s\":\"{raw}\"}}"))
                .map(|m| m["s"].as_str().map(str::to_string))
        };
        assert_eq!(decode(r"\u00e9\u00C9"), Ok(Some("éÉ".to_string())));
        assert_eq!(decode(r"\ud83d\ude00"), Ok(Some("😀".to_string())));
        assert_eq!(
            decode(r"a\udbff\udfffb"),
            Ok(Some("a\u{10FFFF}b".to_string()))
        );
        let value = parse_json(r#"["\ud83d\ude00"]"#).unwrap();
        assert_eq!(
            value,
            JsonValue::Arr(vec![JsonValue::Str("😀".to_string())])
        );
        for bad in [
            r"\ud83d",       // high surrogate at the end
            r"\ud83dx",      // high surrogate, then a plain character
            r"\ud83d\u0041", // high surrogate, then a non-surrogate
            r"\ud83d\ud83d", // two high surrogates
            r"\ude00",       // low surrogate first
            r"\ude00\ud83d", // a pair in the wrong order
            r"\u+0e9",       // sign instead of a digit
            r"\u-0e9",
            r"\u00g9",
            r"\u00e",
        ] {
            assert!(decode(bad).is_err(), "{bad} must not parse");
            assert!(
                parse_json(&format!("[\"{bad}\"]")).is_err(),
                "{bad} must not parse"
            );
        }
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        /// Fragments that steer random input towards JSON-shaped text.
        const FRAGMENTS: [&str; 27] = [
            "{",
            "}",
            "[",
            "]",
            "\"",
            "\\",
            ":",
            ",",
            " ",
            "\n",
            "-",
            "+",
            ".",
            "e",
            "0",
            "7",
            "true",
            "false",
            "null",
            "\\u",
            "\\u00e9",
            "\"k\":",
            "é",
            "😀",
            "\\ud83d",
            "\\ude00",
            "\\udbff\\udfff",
        ];

        /// Arbitrary text: JSON fragments mixed with any Unicode scalar.
        fn text() -> impl Strategy<Value = String> {
            prop::collection::vec((0..FRAGMENTS.len() + 1, 0u32..0x11_0000), 0..48).prop_map(
                |parts| {
                    let mut s = String::new();
                    for (i, code) in parts {
                        match FRAGMENTS.get(i) {
                            Some(f) => s.push_str(f),
                            None => s.push(char::from_u32(code).unwrap_or('\u{FFFD}')),
                        }
                    }
                    s
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2_000))]

            #[test]
            fn parsers_never_panic(input in text()) {
                let _ = parse_json(&input);
                let _ = parse_flat_object(&input);
                // A well-formed prefix must not turn a torn tail into a panic.
                let line = format!("{{\"k\":{input}");
                let _ = parse_json(&line);
                let _ = parse_flat_object(&line);
            }
        }
    }
}
