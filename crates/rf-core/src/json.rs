//! A minimal JSON value type, writer, and parser.
//!
//! The workspace is hermetic — no crates.io access — so the handful of
//! places that serialize results (the `repro` harness, the bench
//! harness) and deserialize scenario configs use this module instead of
//! `serde_json`. It supports exactly the JSON the workspace emits:
//! objects, arrays, strings, finite numbers, booleans, and null.
//!
//! Number fidelity: values are written with Rust's shortest round-trip
//! `f64` formatting, so `parse(write(x)) == x` bit-for-bit for every
//! finite `f64` including `-0.0` and extreme exponents. Non-finite
//! numbers have no JSON representation and are written as `null`
//! (matching `serde_json`'s lossy default) by
//! [`Json::to_json_string`]; [`Json::try_to_json_string`] refuses them
//! instead, for callers that must read back exactly what they wrote.
//!
//! Integer fast path: an integer-valued number below 2^53 in magnitude
//! (other than `-0.0`) is written by a plain digit loop instead of the
//! float formatter. It produces the same bytes `{}` would — the
//! checkpoint documents are mostly integer indices, so this is where
//! their serialization time goes — and a unit sweep pins the two
//! against each other. The parser mirrors it: a number of at most 15
//! integer digits is accumulated directly instead of going through
//! `str::parse`, giving the same bits.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON document fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (always carried as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Keys are sorted (BTreeMap) so output is canonical —
    /// the same value always serializes to the same bytes.
    Obj(BTreeMap<String, Json>),
}

/// A parse error: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Build an object from key/value pairs.
    pub fn obj<I, K>(pairs: I) -> Json
    where
        I: IntoIterator<Item = (K, Json)>,
        K: Into<String>,
    {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Build an array by mapping `f` over `items`.
    pub fn arr<T, I, F>(items: I, f: F) -> Json
    where
        I: IntoIterator<Item = T>,
        F: Fn(T) -> Json,
    {
        Json::Arr(items.into_iter().map(f).collect())
    }

    /// A string value.
    pub fn str<S: Into<String>>(s: S) -> Json {
        Json::Str(s.into())
    }

    /// A number value.
    pub fn num(x: f64) -> Json {
        Json::Num(x)
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
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

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Fetch a required numeric field from an object.
    pub fn req_f64(&self, key: &str) -> Result<f64, JsonError> {
        self.get(key).and_then(Json::as_f64).ok_or_else(|| JsonError {
            message: format!("missing or non-numeric field `{key}`"),
            offset: 0,
        })
    }

    /// Serialize to a compact JSON string. Non-finite numbers are
    /// written as `null` (see the module docs).
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    /// Serialize to a compact JSON string, refusing instead of writing
    /// `null` when the value holds a NaN or infinite number — so the
    /// result always parses back to exactly `self`.
    pub fn try_to_json_string(&self) -> Result<String, NonFiniteNumber> {
        let mut out = String::new();
        if self.write_to(&mut out) {
            Ok(out)
        } else {
            Err(NonFiniteNumber)
        }
    }

    /// [`to_json_string`](Self::to_json_string) of an object with its
    /// top-level `key` left out: the same bytes as removing the key from
    /// a clone and serializing that, without the clone. Non-objects
    /// serialize whole.
    pub fn to_json_string_without(&self, key: &str) -> String {
        let mut out = String::new();
        match self {
            Json::Obj(map) => {
                write_object(map.iter().filter(|(k, _)| k.as_str() != key), &mut out);
            }
            v => {
                v.write_to(&mut out);
            }
        }
        out
    }

    /// Append the canonical serialization to `out`; `false` if a
    /// non-finite number had to be written as `null`.
    fn write_to(&self, out: &mut String) -> bool {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => return write_number(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                let mut exact = true;
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    exact &= item.write_to(out);
                }
                out.push(']');
                return exact;
            }
            Json::Obj(map) => return write_object(map.iter(), out),
        }
        true
    }

    /// Parse a JSON document. The whole input must be one value (plus
    /// surrounding whitespace).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(v)
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_json_string())
    }
}

/// The refusal of [`Json::try_to_json_string`]: the value holds a NaN
/// or infinite number, which JSON cannot represent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonFiniteNumber;

impl std::fmt::Display for NonFiniteNumber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("value holds a NaN or infinite number, which JSON cannot represent")
    }
}

impl std::error::Error for NonFiniteNumber {}

fn write_object<'a>(
    entries: impl Iterator<Item = (&'a String, &'a Json)>,
    out: &mut String,
) -> bool {
    let mut exact = true;
    out.push('{');
    for (i, (k, v)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(k, out);
        out.push(':');
        exact &= v.write_to(out);
    }
    out.push('}');
    exact
}

/// 2^53: every integer of smaller magnitude is exactly an `f64`.
const EXACT_INT_BOUND: f64 = 9_007_199_254_740_992.0;

/// Append `x`; `false` (after writing `null`) if it is not finite.
fn write_number(x: f64, out: &mut String) -> bool {
    // Integer fast path. Checkpoints are mostly integer indices, and
    // for an integer-valued `f64` below 2^53 `{}` prints exactly its
    // decimal digits (no exponent, no `.0`), so formatting the integer
    // gives the same bytes far faster. `-0.0` prints `-0` and takes the
    // general path; NaN and ±∞ fail the round trip through `i64`.
    let n = x as i64;
    if n as f64 == x && x.abs() < EXACT_INT_BOUND && x.to_bits() != (-0.0f64).to_bits() {
        write_int(n, out);
        return true;
    }
    if !x.is_finite() {
        out.push_str("null");
        return false;
    }
    // Rust's `{}` for f64 is the shortest string that parses back to the
    // same bits — ideal for fidelity. It writes `-0` for negative zero
    // and never produces a leading `.` or `+`, so it is always valid
    // JSON except for the exponent-free rendering of huge values, which
    // is also valid JSON (just long).
    let _ = write!(out, "{x}");
    true
}

fn write_int(n: i64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut m = n.unsigned_abs();
    loop {
        i -= 1;
        digits[i] = b'0' + (m % 10) as u8;
        m /= 10;
        if m == 0 {
            break;
        }
    }
    if n < 0 {
        out.push('-');
    }
    out.extend(digits[i..].iter().map(|&d| d as char));
}

fn write_escaped(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Containers may nest at most this deep. The parser recurses once per
/// `[`/`{` level, so hostile input like `[[[[…` would otherwise turn a
/// parse call into a stack overflow (an abort, not a catchable error).
/// 128 levels is far beyond any document this workspace writes — the
/// checkpoint format nests 5 deep — while keeping worst-case stack use
/// a few tens of kilobytes.
const MAX_DEPTH: usize = 128;

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Json::Null),
            Some(b't') => self.eat_literal("true", Json::Bool(true)),
            Some(b'f') => self.eat_literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Run one container parse a level deeper, bounding total recursion.
    fn nested(
        &mut self,
        f: fn(&mut Parser<'a>) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast-forward over the plain (unescaped, ASCII-or-UTF-8) run.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uXXXX` with a low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined =
                                        0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    return Err(self.err("unpaired high surrogate"));
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid code point"))?);
                            // hex4 advanced pos already; skip the +1 below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int_start = self.pos;
        let mut int = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            int = int.wrapping_mul(10).wrapping_add((d - b'0') as u64);
            self.pos += 1;
        }
        // Integer fast path, the mirror of the writer's: up to 15
        // digits is below 2^53, so the value is exact as an f64 and the
        // same one `str::parse` would produce (`-0` included).
        let int_digits = self.pos - int_start;
        if (1..=15).contains(&int_digits)
            && !matches!(self.peek(), Some(b'.') | Some(b'e') | Some(b'E'))
        {
            let x = int as f64;
            return Ok(Json::Num(if negative { -x } else { x }));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { message: format!("invalid number `{text}`"), offset: start })
    }
}

/// Types that can serialize themselves to a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Types that can reconstruct themselves from a [`Json`] value.
pub trait FromJson: Sized {
    /// Parse `self` out of a JSON value.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<f64, JsonError> {
        v.as_f64().ok_or_else(|| JsonError { message: "expected number".into(), offset: 0 })
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) -> Json {
        Json::parse(&v.to_json_string()).expect("self-written JSON must parse")
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // Inside the limit: parses fine (round-trips, even).
        let deep_ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&deep_ok).is_ok());

        // One level past the limit: a typed error, not a stack overflow.
        let over = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = Json::parse(&over).unwrap_err();
        assert!(err.message.contains("nesting"), "got: {err}");

        // Hostile depth (would overflow the stack without the limit);
        // mixed container kinds both count toward the same budget.
        let hostile = "[{\"k\":".repeat(50_000) + "null" + &"}]".repeat(50_000);
        let err = Json::parse(&hostile).unwrap_err();
        assert!(err.message.contains("nesting"), "got: {err}");

        // Siblings at the same level do not consume depth budget.
        let wide = format!("[{}]", vec!["[1]"; 10_000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn scalars_round_trip() {
        for v in [Json::Null, Json::Bool(true), Json::Bool(false), Json::Num(3.5)] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn f64_fidelity_including_negative_zero_and_extremes() {
        for x in [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            5e-324, // smallest subnormal
            1e300,
            -2.2250738585072014e-308,
            std::f64::consts::PI,
            6.02214076e23,
        ] {
            let back = round_trip(&Json::Num(x));
            let y = back.as_f64().unwrap();
            assert_eq!(y.to_bits(), x.to_bits(), "fidelity lost for {x:e}: got {y:e}");
        }
    }

    #[test]
    fn non_finite_numbers_write_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_json_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_json_string(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_json_string(), "null");
    }

    #[test]
    fn exact_writer_refuses_non_finite_numbers() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let nested = Json::obj([("a", Json::Arr(vec![Json::Num(1.0), Json::Num(bad)]))]);
            assert_eq!(nested.try_to_json_string(), Err(NonFiniteNumber));
        }
        let fine = Json::obj([("a", Json::Arr(vec![Json::Num(1.5), Json::Null]))]);
        assert_eq!(fine.try_to_json_string().as_deref(), Ok(r#"{"a":[1.5,null]}"#));
    }

    #[test]
    fn write_number_matches_display_formatting() {
        fn check(x: f64) {
            let mut out = String::new();
            assert!(write_number(x, &mut out));
            assert_eq!(out, format!("{x}"), "bits {:#x}", x.to_bits());
        }
        // 0..10^6, sampled with a stride coprime to 10 so every digit
        // count and trailing digit shows up.
        for i in (0..1_000_000u32).step_by(7) {
            check(i as f64);
            check(-(i as f64));
        }
        // Both sides of the 2^53 fast-path boundary.
        for k in 0..=64u64 {
            for n in [(1u64 << 53) - k, (1u64 << 53) + k] {
                check(n as f64);
                check(-(n as f64));
            }
        }
        // 10^15 to 10^16: the longest integers the fast path takes.
        let mut x = 1e15;
        while x <= 1e16 {
            check(x);
            check(x + 1.0);
            x += 1.23e12;
        }
        for x in [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1e16,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            5e-324,
            f64::MAX,
            f64::MIN,
        ] {
            check(x);
        }
    }

    #[test]
    fn integer_parse_fast_path_matches_str_parse() {
        let mut texts: Vec<String> = Vec::new();
        for i in (0..1_000_000u64).step_by(7) {
            texts.push(i.to_string());
        }
        for k in 0..=64u64 {
            texts.push((999_999_999_999_999 - k).to_string()); // 15 digits: fast path
            texts.push((1_000_000_000_000_000 + k).to_string()); // 16 digits: general path
            texts.push(((1u64 << 53) + k).to_string());
        }
        texts.extend(["0", "00", "007", "0.5", "1e3", "12E-1", "9.0"].map(String::from));
        for text in texts {
            for t in [text.clone(), format!("-{text}")] {
                let want: f64 = t.parse().expect("valid number text");
                let got = Json::parse(&t).expect("parses").as_f64().expect("number");
                assert_eq!(got.to_bits(), want.to_bits(), "{t}");
            }
        }
    }

    #[test]
    fn without_key_matches_remove_then_write() {
        let v = Json::obj([
            ("crc", Json::Num(7.0)),
            ("format", Json::str("x")),
            ("payload", Json::Arr(vec![Json::Num(-0.0), Json::Num(f64::NAN)])),
        ]);
        let mut stripped = v.clone();
        if let Json::Obj(map) = &mut stripped {
            map.remove("crc");
        }
        assert_eq!(v.to_json_string_without("crc"), stripped.to_json_string());
        assert_eq!(v.to_json_string_without("absent"), v.to_json_string());
        assert_eq!(Json::Num(3.0).to_json_string_without("crc"), "3");
    }

    #[test]
    fn strings_escape_and_round_trip() {
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\backslash\\",
            "line\nbreak\ttab\rreturn",
            "control \u{1} char",
            "unicode: λ/2 ≈ 16 cm, 完全",
            "emoji \u{1F600} pair",
        ] {
            let v = Json::str(s);
            assert_eq!(round_trip(&v), v, "string {s:?}");
        }
    }

    #[test]
    fn parses_foreign_escapes() {
        let v = Json::parse(r#""aAé😀\/b\f\b""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "aAé😀/b\u{c}\u{8}");
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::obj([
            ("id", Json::str("fig13")),
            ("accuracy", Json::Num(0.914)),
            (
                "rows",
                Json::Arr(vec![
                    Json::Arr(vec![Json::str("A"), Json::Num(-0.0)]),
                    Json::Arr(vec![Json::str("B"), Json::Num(1e300)]),
                ]),
            ),
            ("nested", Json::obj([("deep", Json::obj([("x", Json::Null)]))])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::obj(Vec::<(&str, Json)>::new())),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn canonical_output_is_stable() {
        let a = Json::obj([("b", Json::Num(2.0)), ("a", Json::Num(1.0))]);
        let b = Json::obj([("a", Json::Num(1.0)), ("b", Json::Num(2.0))]);
        assert_eq!(a.to_json_string(), b.to_json_string());
        assert_eq!(a.to_json_string(), r#"{"a":1,"b":2}"#);
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" \n\t{ \"k\" : [ 1 , 2.5e1 , -3 ] }\r\n").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap(),
            &[Json::Num(1.0), Json::Num(25.0), Json::Num(-3.0)]
        );
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'single':1}",
            "[1] trailing",
            "\"bad \\x escape\"",
            "nan",
        ] {
            assert!(Json::parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn accessors_behave() {
        let v = Json::parse(r#"{"x": 2.5, "s": "hi", "b": true, "a": [null]}"#).unwrap();
        assert_eq!(v.req_f64("x").unwrap(), 2.5);
        assert!(v.req_f64("s").is_err());
        assert!(v.req_f64("missing").is_err());
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(v.get("a").unwrap().as_f64(), None);
    }
}
