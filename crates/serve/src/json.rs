//! A minimal flat-JSON codec for the newline-delimited wire protocol.
//!
//! The protocol only ever exchanges one-level JSON objects whose values are
//! strings, numbers, booleans or null — no arrays, no nesting — so the
//! workspace's no-external-deps rule is satisfied by ~150 lines of codec
//! instead of a serde stack. Encoding is canonical (insertion order, no
//! whitespace), which is what makes "bit-identical responses" testable as
//! string equality on response lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON scalar value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON string (unescaped).
    Str(String),
    /// A plain non-negative integer literal that fits `u64`, kept exact.
    Int(u64),
    /// Any other JSON number.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl Value {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is exactly one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => Some(*n),
            // `u64::MAX as f64` rounds up to 2^64, which no `u64` is, so the
            // bound is strict.
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x < u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (an integer above 2^53
    /// rounds).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }
}

/// Incrementally builds one canonical single-line JSON object.
#[derive(Debug, Default)]
pub struct ObjectBuilder {
    body: String,
}

impl ObjectBuilder {
    /// An empty object.
    pub fn new() -> Self {
        ObjectBuilder::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        push_escaped(&mut self.body, key);
        self.body.push(':');
    }

    /// Appends a string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        push_escaped(&mut self.body, value);
        self
    }

    /// Appends an integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    /// Appends a float field (finite values only; the protocol carries
    /// non-finite cycles as bit strings instead).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.body, "{value}");
        } else {
            self.body.push_str("null");
        }
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    /// Renders the object as one line.
    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn push_escaped(out: &mut String, s: &str) {
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

/// Parses one flat JSON object line into a key → scalar map.
///
/// # Errors
///
/// A position-free message naming the malformed construct; nested objects
/// and arrays are rejected (the protocol never produces them).
pub fn parse_object(line: &str) -> Result<BTreeMap<String, Value>, String> {
    let text = line.trim();
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let map = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err("trailing characters after JSON object".into());
    }
    Ok(map)
}

struct Parser<'a> {
    text: &'a str,
    /// `text`'s bytes; `pos` indexes both and only stops on a character
    /// boundary.
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}`", b as char))
        }
    }

    fn object(&mut self) -> Result<BTreeMap<String, Value>, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(map);
                }
                _ => return Err("expected `,` or `}` in object".into()),
            }
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b.is_ascii_digit() || *b == b'-' => self.number(),
            Some(b'{') | Some(b'[') => Err("nested values are not part of the protocol".into()),
            _ => Err("expected a JSON value".into()),
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("malformed literal (expected `{lit}`)"))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let literal = &self.text[start..self.pos];
        // A plain integer literal is read exactly: through `f64` a seed above
        // 2^53 would come back as its neighbour.
        if literal.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(n) = literal.parse() {
                return Ok(Value::Int(n));
            }
        }
        literal
            .parse::<f64>()
            .map(Value::Num)
            .map_err(|_| "malformed number".into())
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("malformed \\u escape")?;
                            out.push(char::from_u32(hex).ok_or("surrogate \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return Err("unknown escape".into()),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // The run up to the next quote or backslash passes
                    // through as it is: both are ASCII, so the run ends on a
                    // character boundary.
                    let rest = &self.text[self.pos..];
                    let run = rest.find(['"', '\\']).unwrap_or(rest.len());
                    out.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_scalars_and_escapes() {
        let line = ObjectBuilder::new()
            .str("op", "explore")
            .str("spec", "gmm:64x64x64")
            .u64("deadline_ms", 500)
            .f64("cycles", 123.5)
            .bool("draining", false)
            .finish();
        let map = parse_object(&line).unwrap();
        assert_eq!(map["op"].as_str(), Some("explore"));
        assert_eq!(map["deadline_ms"].as_u64(), Some(500));
        assert_eq!(map["cycles"].as_f64(), Some(123.5));
        assert_eq!(map["draining"], Value::Bool(false));

        let tricky = "a\"b\\c\nd\tπ";
        let line = ObjectBuilder::new().str("m", tricky).finish();
        assert_eq!(parse_object(&line).unwrap()["m"].as_str(), Some(tricky));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":[1]}",
            "{\"a\":{\"b\":1}}",
            "{\"a\":1} x",
            "{\"a\":tru}",
        ] {
            assert!(parse_object(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn encoding_is_canonical() {
        let a = ObjectBuilder::new().str("k", "v").u64("n", 3).finish();
        let b = ObjectBuilder::new().str("k", "v").u64("n", 3).finish();
        assert_eq!(a, b);
        assert_eq!(a, "{\"k\":\"v\",\"n\":3}");
    }

    #[test]
    fn integer_literals_are_exact_and_2_pow_64_is_not_a_u64() {
        let int = |text: &str| parse_object(&format!("{{\"n\":{text}}}")).unwrap()["n"].as_u64();
        assert_eq!(int("9007199254740993"), Some((1 << 53) + 1));
        assert_eq!(int("18446744073709551615"), Some(u64::MAX));
        assert_eq!(int("18446744073709551616"), None);
        assert_eq!(int("1.8446744073709552e19"), None);
        assert_eq!(int("1e3"), Some(1000));
        assert_eq!(int("2.5"), None);
        assert_eq!(int("-1"), None);
    }

    use proptest::prelude::*;

    /// One field as the builder was given it.
    #[derive(Debug, Clone)]
    enum Field {
        Str(String),
        U64(u64),
        F64(f64),
        Bool(bool),
        Null,
    }

    impl Field {
        fn append(&self, b: ObjectBuilder, key: &str) -> ObjectBuilder {
            match self {
                Field::Str(s) => b.str(key, s),
                Field::U64(n) => b.u64(key, *n),
                Field::F64(x) => b.f64(key, *x),
                Field::Bool(v) => b.bool(key, *v),
                // The builder writes a non-finite float as `null`.
                Field::Null => b.f64(key, f64::NAN),
            }
        }

        /// Whether `v` reads back as this field through its accessor.
        fn reads_back(&self, v: &Value) -> bool {
            match self {
                Field::Str(s) => v.as_str() == Some(s),
                Field::U64(n) => v.as_u64() == Some(*n),
                Field::F64(x) => v.as_f64().map(f64::to_bits) == Some(x.to_bits()),
                Field::Bool(b) => *v == Value::Bool(*b),
                Field::Null => *v == Value::Null,
            }
        }
    }

    /// Quotes, backslashes, control characters and 1- to 4-byte UTF-8.
    fn text(max_chars: usize) -> impl Strategy<Value = String> {
        let scalar = |lo: u32, hi: u32| (lo..hi).prop_map(|c| char::from_u32(c).expect("scalar"));
        let ch = prop_oneof![
            prop::strategy::Just('"'),
            prop::strategy::Just('\\'),
            scalar(0, 0x20),
            scalar(0x20, 0x80),
            scalar(0x80, 0x800),
            scalar(0x800, 0xd800),
            scalar(0x10000, 0x11_0000),
        ];
        prop::collection::vec(ch, 0..=max_chars).prop_map(String::from_iter)
    }

    fn field(max_chars: usize) -> impl Strategy<Value = Field> {
        prop_oneof![
            text(max_chars).prop_map(Field::Str),
            (0..=u64::MAX).prop_map(Field::U64),
            // Every finite bit pattern; a non-finite one is folded onto an
            // integer-valued float.
            (0..=u64::MAX).prop_map(|bits| {
                let x = f64::from_bits(bits);
                Field::F64(if x.is_finite() { x } else { bits as f64 })
            }),
            prop::bool::ANY.prop_map(Field::Bool),
            prop::strategy::Just(Field::Null),
        ]
    }

    fn encode(fields: &[(String, Field)]) -> String {
        fields
            .iter()
            .fold(ObjectBuilder::new(), |b, (k, f)| f.append(b, k))
            .finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn flat_objects_round_trip(
            fields in prop::collection::vec((text(12), field(3000)), 0..8),
        ) {
            let line = encode(&fields);
            let map = parse_object(&line).map_err(|e| TestCaseError::fail(format!("{e}: {line}")))?;
            // A repeated key keeps its last value, as in the parsed map.
            let expected: BTreeMap<&String, &Field> = fields.iter().map(|(k, f)| (k, f)).collect();
            prop_assert_eq!(map.len(), expected.len());
            for (key, field) in expected {
                let got = map.get(key);
                prop_assert!(got.is_some_and(|v| field.reads_back(v)), "{key:?}: {field:?} read as {got:?}");
            }
        }

        #[test]
        fn prefixes_and_corrupted_bytes_never_panic(
            fields in prop::collection::vec((text(4), field(24)), 0..4),
            fill in 0u8..=255,
        ) {
            let line = encode(&fields);
            for (at, _) in line.char_indices() {
                let _ = parse_object(&line[..at]);
            }
            let mut bytes = line.into_bytes();
            for at in 0..bytes.len() {
                let kept = std::mem::replace(&mut bytes[at], fill);
                let _ = parse_object(&String::from_utf8_lossy(&bytes));
                bytes[at] = kept;
            }
        }
    }
}
