//! Minimal JSON support shared across the workspace: a recursive-descent
//! reader (objects, arrays, strings, numbers, booleans, null) and the one
//! streaming [`Writer`] every renderer in the workspace goes through.
//!
//! This started life inside [`crate::baseline`] as the metrics-dump
//! parser; the serve daemon's wire protocol decodes through the same
//! reader so the workspace carries exactly one JSON implementation. The
//! writer half is the only code that escapes a string or formats a float:
//! [`escape`] and [`fmt_f64`] are thin wrappers over it, and
//! [`push_escaped`] and [`push_f64`] append the same text to a caller's
//! buffer for a renderer that lays out its own keys (the daemon's
//! `candidates` answer).
//!
//! Parsed values keep object fields in document order (`Vec`, not a map),
//! which makes round-trip tests and deterministic re-rendering easy.

use std::fmt::{Display, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl Json {
    /// Looks up `key` in an object (first match, document order).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Moves the string out of the field [`Json::get`] finds for `key`,
    /// leaving an empty string behind; `None` when that field is missing
    /// or not a string.
    pub fn take_str(&mut self, key: &str) -> Option<String> {
        match self {
            Json::Object(fields) => match fields.iter_mut().find(|(k, _)| k == key) {
                Some((_, Json::Str(s))) => Some(std::mem::take(s)),
                _ => None,
            },
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value as `u64`; rejects negatives and fractional values.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 1.9e19 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_u64_array(&self) -> Option<Vec<u64>> {
        match self {
            Json::Array(items) => items.iter().map(|i| i.as_f64().map(|f| f as u64)).collect(),
            _ => None,
        }
    }
}

/// Parses one JSON value from `s`, requiring nothing but trailing
/// whitespace after it.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax problem;
/// containers nested deeper than 64 are one.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut r = Reader::new(s);
    let v = r.value()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(r.err("trailing data after value"));
    }
    Ok(v)
}

/// Whether `b` must be escaped inside a JSON string literal.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Appends `s` escaped for a JSON string literal (quotes, backslashes and
/// control characters; everything else, non-ASCII included, verbatim).
/// One scan finds the first byte to escape: a string without one — every
/// qualified function name — is copied whole.
pub fn push_escaped(out: &mut String, s: &str) {
    match s.bytes().position(needs_escape) {
        None => out.push_str(s),
        Some(first) => {
            out.push_str(&s[..first]);
            escape_each(out, &s[first..]);
        }
    }
}

/// The escaping path of [`push_escaped`]: copies the runs between escaped
/// bytes and writes each escape.
fn escape_each(out: &mut String, s: &str) {
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[clean_from..i]);
        clean_from = i + 1;
        if esc.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(esc);
        }
    }
    out.push_str(&s[clean_from..]);
}

/// Appends `x` as a JSON number. JSON has no NaN/Infinity, so non-finite
/// values render as `0`; integral floats print without a fraction so
/// counters round-trip exactly.
pub fn push_f64(out: &mut String, x: f64) {
    if !x.is_finite() || x == 0.0 {
        out.push('0');
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Escapes `s` for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Formats a float the way the [`Writer`] does.
pub fn fmt_f64(x: f64) -> String {
    let mut out = String::new();
    push_f64(&mut out, x);
    out
}

/// A streaming JSON writer: values append straight into one `String`, the
/// writer places the commas. Misuse (a value where a key is due, unbalanced
/// `end_*`) is a caller bug and produces malformed text, not a panic.
///
/// The default layout is compact (`{"a":1,"b":[2,3]}`). [`Writer::spaced`]
/// separates with `", "` / `": "`, and [`Writer::indent`] starts the next
/// item (or closing bracket) on its own line — together they reproduce the
/// hand-laid-out fuzz summaries and metrics dump byte for byte.
pub struct Writer {
    out: String,
    /// Bit `depth` is set once the container open at `depth` holds an item.
    has_item: u64,
    depth: u32,
    after_key: bool,
    spaced: bool,
    line_break: Option<usize>,
}

impl Writer {
    /// A compact writer over a buffer of `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer {
            out: String::with_capacity(capacity),
            has_item: 0,
            depth: 0,
            after_key: false,
            spaced: false,
            line_break: None,
        }
    }

    /// A writer that puts a space after every `,` and `:`.
    pub fn spaced() -> Writer {
        Writer { spaced: true, ..Writer::with_capacity(256) }
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Puts the next item — or, when none follows, the closing bracket — on
    /// a new line indented by `spaces`.
    pub fn indent(&mut self, spaces: usize) -> &mut Writer {
        self.line_break = Some(spaces);
        self
    }

    fn flush_line_break(&mut self) {
        if let Some(spaces) = self.line_break.take() {
            self.out.push('\n');
            self.out.extend(std::iter::repeat_n(' ', spaces));
        }
    }

    /// Separator before a key or value.
    fn item(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let bit = 1u64 << self.depth;
        if self.has_item & bit != 0 {
            self.out.push(',');
            if self.spaced && self.line_break.is_none() {
                self.out.push(' ');
            }
        }
        self.has_item |= bit;
        self.flush_line_break();
    }

    fn open(&mut self, bracket: char) -> &mut Writer {
        self.item();
        self.out.push(bracket);
        self.depth += 1;
        self.has_item &= !(1u64 << self.depth);
        self
    }

    fn close(&mut self, bracket: char) -> &mut Writer {
        self.flush_line_break();
        self.out.push(bracket);
        self.depth -= 1;
        self
    }

    pub fn begin_object(&mut self) -> &mut Writer {
        self.open('{')
    }

    pub fn end_object(&mut self) -> &mut Writer {
        self.close('}')
    }

    pub fn begin_array(&mut self) -> &mut Writer {
        self.open('[')
    }

    pub fn end_array(&mut self) -> &mut Writer {
        self.close(']')
    }

    /// An object key; the next call must write its value.
    pub fn key(&mut self, key: &str) -> &mut Writer {
        self.str(key);
        self.out.push(':');
        if self.spaced {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    pub fn str(&mut self, s: &str) -> &mut Writer {
        self.item();
        self.out.push('"');
        push_escaped(&mut self.out, s);
        self.out.push('"');
        self
    }

    pub fn f64(&mut self, x: f64) -> &mut Writer {
        self.item();
        push_f64(&mut self.out, x);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Writer {
        self.raw(v)
    }

    pub fn bool(&mut self, v: bool) -> &mut Writer {
        self.raw(v)
    }

    /// Anything whose `Display` output is already a JSON value: signed or
    /// `usize` integers, fixed-point `format_args!`, a pre-rendered document.
    pub fn raw(&mut self, v: impl Display) -> &mut Writer {
        self.item();
        let _ = write!(self.out, "{v}");
        self
    }

    pub fn null(&mut self) -> &mut Writer {
        self.raw("null")
    }
}

/// `0x01` in every byte of a word.
const LANES: u64 = u64::from_le_bytes([1; 8]);

/// Sets the top bit of the lowest zero byte of `word`. Bytes above it may
/// be flagged falsely (a borrow runs up from a zero byte), those below
/// never are, so the lowest set bit is exact.
fn zero_byte_bits(word: u64) -> u64 {
    word.wrapping_sub(LANES) & !word & (LANES << 7)
}

/// Offset of the first `byte` in `bytes` at or after `from`, eight bytes a
/// step.
#[inline]
fn find_byte(bytes: &[u8], from: usize, byte: u8) -> Option<usize> {
    let pattern = LANES * u64::from(byte);
    let rest = bytes.get(from..)?;
    let mut words = rest.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let word = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
        let hits = zero_byte_bits(word ^ pattern);
        if hits != 0 {
            return Some(from + i * 8 + (hits.trailing_zeros() / 8) as usize);
        }
    }
    let tail = words.remainder();
    let tail_at = from + rest.len() - tail.len();
    tail.iter().position(|&b| b == byte).map(|i| tail_at + i)
}

/// [`find_byte`] for a byte that is rare in `bytes`, such as the quote
/// that closes a long string: 32 bytes a step, and the step with a match
/// in it searched again a word at a time.
fn find_rare_byte(bytes: &[u8], from: usize, byte: u8) -> Option<usize> {
    let pattern = LANES * u64::from(byte);
    let rest = bytes.get(from..)?;
    let mut blocks = rest.chunks_exact(32);
    for (i, block) in blocks.by_ref().enumerate() {
        let hits = block.chunks_exact(8).fold(0, |hits, word| {
            let word = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
            hits | zero_byte_bits(word ^ pattern)
        });
        if hits != 0 {
            return find_byte(block, 0, byte).map(|at| from + i * 32 + at);
        }
    }
    find_byte(bytes, from + rest.len() - blocks.remainder().len(), byte)
}

/// The value of exactly four hex digits.
fn hex4(hex: &[u8]) -> Option<u32> {
    let digits: &[u8; 4] = hex.try_into().ok()?;
    digits.iter().try_fold(0, |acc, &b| Some(acc << 4 | char::from(b).to_digit(16)?))
}

/// Deepest container nesting the reader follows: the width of [`Writer`]'s
/// `has_item` bitmask, so whatever the writer can nest reads back. It
/// bounds the recursion of [`Reader::value`] on hostile input.
const MAX_DEPTH: u32 = u64::BITS;

struct Reader<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: u32,
    /// Decode strings with the decoder [`Reader::string`] replaced.
    #[cfg(test)]
    reference: bool,
}

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Reader<'a> {
        Reader {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
            #[cfg(test)]
            reference: false,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' | b'[' if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            open @ (b'{' | b'[') => {
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// Decodes a string at memory speed. One pass finds the closing quote,
    /// which sizes the buffer once; a second finds each backslash before
    /// it a word at a time, and the run up to that escape is copied as one
    /// slice of the input. A run ends at an ASCII `\` or `"`, so it is
    /// whole characters of the already-valid `&str`: nothing is validated
    /// again, and a string without escapes is a single copy.
    fn string(&mut self) -> Result<String, String> {
        #[cfg(test)]
        if self.reference {
            return self.reference_string();
        }
        self.expect(b'"')?;
        let end = self.closing_quote();
        let mut out = String::with_capacity(end.map_or(0, |end| end - self.pos));
        let body = &self.bytes[..end.unwrap_or(self.bytes.len())];
        while let Some(at) = find_byte(body, self.pos, b'\\') {
            out.push_str(&self.src[self.pos..at]);
            self.pos = at + 1;
            out.push(self.decode_escape()?);
            self.pos += 1;
        }
        let Some(end) = end else {
            self.pos = self.bytes.len();
            return Err(self.err("unterminated string"));
        };
        out.push_str(&self.src[self.pos..end]);
        self.pos = end + 1;
        Ok(out)
    }

    /// Offset of the quote that closes the string whose body starts at
    /// `pos`: the first `"` behind an even run of backslashes. Only escapes
    /// hold a `\` or `"`, so up to the first malformed escape this is the
    /// quote a left-to-right decode stops at, and the decoded text is no
    /// longer than the bytes before it.
    fn closing_quote(&self) -> Option<usize> {
        let mut from = self.pos;
        loop {
            let at = find_rare_byte(self.bytes, from, b'"')?;
            let escaped = self.bytes[self.pos..at].iter().rev().take_while(|&&b| b == b'\\');
            if escaped.count() % 2 == 0 {
                return Some(at);
            }
            from = at + 1;
        }
    }

    /// Decodes the escape whose `\` precedes `pos`, leaving `pos` on its
    /// last byte. A `\u` escape takes exactly four hex digits; a UTF-16
    /// surrogate pair written as two of them decodes to one `char`, and a
    /// surrogate without its partner is an error at its `u`.
    fn decode_escape(&mut self) -> Result<char, String> {
        let c = match self.bytes.get(self.pos).copied() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = self
                    .bytes
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                let unit = hex4(hex).ok_or_else(|| self.err("bad \\u escape"))?;
                let (code, digits) = match unit {
                    0xD800..=0xDBFF => {
                        let low = match self.bytes.get(self.pos + 5..self.pos + 11) {
                            Some([b'\\', b'u', low @ ..]) => hex4(low),
                            _ => None,
                        };
                        let low = low
                            .filter(|low| (0xDC00..=0xDFFF).contains(low))
                            .ok_or_else(|| self.err("unpaired surrogate in \\u escape"))?;
                        (0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00), 10)
                    }
                    0xDC00..=0xDFFF => return Err(self.err("unpaired surrogate in \\u escape")),
                    _ => (unit, 4),
                };
                let c = char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?;
                self.pos += digits;
                c
            }
            _ => return Err(self.err("unsupported escape")),
        };
        Ok(c)
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("invalid number"))
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values() {
        let v = parse(r#"{"a":[1,2,3],"b":{"c":"x","d":null},"e":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64_array(), Some(vec![1, 2, 3]));
        assert_eq!(v.get("a").unwrap().as_array().map(<[Json]>::len), Some(3));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn take_str_moves_the_field_get_finds() {
        let mut v = parse(r#"{"s":"first","n":1,"s":"second"}"#).unwrap();
        assert_eq!(v.take_str("s").as_deref(), Some("first"));
        assert_eq!(v.get("s").and_then(Json::as_str), Some(""), "left empty, still first");
        assert_eq!((v.take_str("n"), v.take_str("missing")), (None, None));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(1), "a number stays");
        assert_eq!(parse(r#""s""#).unwrap().take_str("s"), None);
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let raw = "line1\nline2\t\"quoted\" \\slash\\ \u{1}unicode: déjà";
        let doc = format!("{{\"s\":\"{}\"}}", escape(raw));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(raw));
    }

    #[test]
    fn as_u64_rejects_fractional_and_negative() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-1").unwrap().as_u64(), None);
        assert_eq!(parse("\"7\"").unwrap().as_u64(), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,2",
            "\"unterminated",
            "{\"a\":1} trailing",
            "nul",
            "{\"a\" 1}",
        ] {
            assert!(parse(bad).is_err(), "expected parse error for {bad:?}");
        }
    }

    /// A frame is untrusted input: nesting past [`MAX_DEPTH`] is an error,
    /// not a stack overflow (which would abort this test binary).
    #[test]
    fn nesting_is_bounded() {
        for (open, leaf, close) in [("[", "1", "]"), ("{\"a\":", "1", "}")] {
            let nest = |n: usize| open.repeat(n) + leaf + &close.repeat(n);
            assert!(parse(&nest(MAX_DEPTH as usize)).is_ok());
            let e = parse(&nest(MAX_DEPTH as usize + 1)).unwrap_err();
            assert!(e.starts_with("nesting deeper than 64 at byte "), "{e}");
            assert!(parse(&nest(1_000_000)).is_err());
            assert!(parse(&open.repeat(1_000_000)).is_err());
        }
    }

    /// A string of multi-byte characters decodes in time linear in its
    /// length; a decoder that re-validates the rest of the input per
    /// character takes seconds here.
    #[test]
    fn multi_byte_strings_decode_in_linear_time() {
        let wide: String = "é関😀\"\\x".repeat(40_000);
        let doc = format!("{{\"s\":\"{}\",\"t\":\"{}\"}}", escape(&wide), "ü".repeat(100_000));
        let t0 = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(v.get("s").unwrap().as_str(), Some(wide.as_str()));
        assert_eq!(v.get("t").unwrap().as_str().map(str::len), Some(200_000));
        assert!(elapsed < std::time::Duration::from_secs(1), "{} kB took {elapsed:?}", doc.len() >> 10);
        assert!(parse("\"é关").unwrap_err().starts_with("unterminated string at byte 6"));
    }

    /// A character outside the BMP arrives as a UTF-16 surrogate pair, as
    /// Python's `json.dumps` writes it.
    #[test]
    fn surrogate_pair_decodes_to_one_char() {
        assert_eq!(parse(r#""m\ud83d\ude00""#), Ok(Json::Str("m\u{1F600}".into())));
        let ends = Json::Str("\u{10000}\u{10FFFF}".into());
        assert_eq!(parse(r#""\uD800\uDC00\uDBFF\uDFFF""#), Ok(ends));
        let escaped: String = "a😀é𝄞".encode_utf16().map(|u| format!("\\u{u:04x}")).collect();
        assert_eq!(parse(&format!("\"{escaped}\"")), Ok(Json::Str("a😀é𝄞".into())));
    }

    #[test]
    fn lone_surrogate_is_refused_at_its_escape() {
        let unpaired = |at: usize| Err(format!("unpaired surrogate in \\u escape at byte {at}"));
        assert_eq!(parse(r#""m\ud83d""#), unpaired(3));
        assert_eq!(parse(r#""m\ud83dx\ude00""#), unpaired(3));
        assert_eq!(parse(r#""m\ud83d\u0041""#), unpaired(3), "high then a non-surrogate");
        assert_eq!(parse(r#""m\ud83d\ud83d""#), unpaired(3), "high then high");
        assert_eq!(parse(r#""ab\ude00\ud83d""#), unpaired(4), "low before high");
        assert_eq!(parse(r#""\ud83d\u""#), unpaired(2), "a truncated partner");
    }

    /// `from_str_radix` takes a sign; a `\u` escape takes four hex digits.
    #[test]
    fn unicode_escape_takes_exactly_four_hex_digits() {
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004g""#, r#""\u00é""#] {
            assert_eq!(parse(bad), Err("bad \\u escape at byte 2".into()), "{bad}");
        }
        assert_eq!(parse(r#""\u004""#), Err("bad \\u escape at byte 2".into()));
        assert_eq!(parse(r#""\u004"#), Err("truncated \\u escape at byte 2".into()));
        assert_eq!(parse(r#""\u0041\u00e9\uFFFF""#), Ok(Json::Str("Aé\u{FFFF}".into())));
    }

    /// The word scan finds a byte at every offset of a word, behind bytes
    /// whose top bit is set and beside the byte one above it (a borrow
    /// would flag it falsely).
    #[test]
    fn word_scan_finds_the_first_match() {
        for len in 0..72 {
            for at in 0..=len {
                for byte in [b'"', b'\\'] {
                    let mut bytes: Vec<u8> =
                        (0..len).map(|i| [b'a', 0xC3, 0xA9, byte + 1][i % 4]).collect();
                    let want = (at < len).then(|| {
                        bytes[at] = byte;
                        at
                    });
                    for from in 0..=at.min(len) {
                        assert_eq!(find_byte(&bytes, from, byte), want, "{len} {at} {from}");
                        assert_eq!(find_rare_byte(&bytes, from, byte), want, "{len} {at} {from}");
                    }
                    assert_eq!(find_byte(&bytes, len + 1, byte), None);
                    assert_eq!(find_rare_byte(&bytes, len + 1, byte), None);
                }
            }
        }
    }

    /// The buffer is reserved once, to the string's length in the document:
    /// an upper bound on its decoded length, which growth by doubling would
    /// not land on.
    #[test]
    fn string_buffer_is_reserved_once() {
        let ir = "define @f() -> void {\nbb0:\n  ret\n}\n\"q\"\\".repeat(500);
        let escaped = escape(&ir);
        let Json::Str(s) = parse(&format!("\"{escaped}\"")).unwrap() else { panic!() };
        assert_eq!((s.as_str(), s.capacity()), (ir.as_str(), escaped.len()));
        let Json::Str(s) = parse(r#""\u00e9\ud83d\ude00 x\\\"""#).unwrap() else { panic!() };
        assert_eq!((s.as_str(), s.capacity()), ("é😀 x\\\"", 24));
    }

    /// The one-scan fast path writes what the escaping path writes, on
    /// random strings with and without bytes to escape, wherever in the
    /// string the first one falls.
    #[test]
    fn push_escaped_fast_path_matches_the_escaping_path() {
        const ALPHABET: &[&str] = &[
            "a", "Z", "0", ".", "_", " ", "é", "関", "\u{1F600}", "\u{7f}", // never escaped
            "\"", "\\", "\n", "\t", "\u{0}", "\u{1f}",
        ];
        let mut state = 0x5EED_u64;
        let mut next = |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            ((z ^ (z >> 29)) % bound as u64) as usize
        };
        let mut clean = 0;
        for _ in 0..4000 {
            // Half the strings draw from the bytes that never escape.
            let pool = if next(2) == 0 { 10 } else { ALPHABET.len() };
            let s: String = (0..next(40)).map(|_| ALPHABET[next(pool)]).collect();
            clean += usize::from(!s.bytes().any(needs_escape));
            let (mut fast, mut slow) = ("<".to_string(), "<".to_string());
            push_escaped(&mut fast, &s);
            escape_each(&mut slow, &s);
            assert_eq!(fast, slow, "{s:?}");
            assert_eq!(parse(&format!("\"{}\"", &fast[1..])).unwrap(), Json::Str(s));
        }
        assert!((1000..3000).contains(&clean), "both paths are exercised: {clean} clean");
    }

    #[test]
    fn fmt_f64_prints_integers_exactly() {
        assert_eq!(fmt_f64(1234.0), "1234");
        assert_eq!(fmt_f64(-7.0), "-7");
        assert_eq!(fmt_f64(9e15), "9000000000000000");
        assert_eq!(fmt_f64(0.25), "0.25");
        assert_eq!(fmt_f64(-0.0), "0");
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(fmt_f64(x), "0");
        }
    }

    #[test]
    fn writer_escapes_every_control_character_and_round_trips() {
        let mut raw: String = (0u8..0x20).map(char::from).collect();
        raw.push_str("\"quoted\" \\slash\\ déjà 関数 \u{1F600} \u{7f}");
        let mut w = Writer::with_capacity(0);
        w.begin_object().key(&raw).str(&raw).end_object();
        let doc = w.finish();
        assert!(doc.bytes().all(|b| b >= 0x20), "raw control byte in {doc:?}");
        assert!(doc.contains("\\u0000\\u0001") && doc.contains("\\t\\n\\u000b"), "{doc}");
        assert!(doc.contains("déjà 関数 \u{1F600} \u{7f}"), "non-ASCII is written verbatim: {doc}");
        assert_eq!(parse(&doc).unwrap(), Json::Object(vec![(raw.clone(), Json::Str(raw))]));
    }

    #[test]
    fn writer_places_commas_and_nests_empty_containers() {
        let mut w = Writer::with_capacity(0);
        w.begin_object().key("a").begin_array().end_array();
        w.key("b").begin_object().end_object();
        w.key("c").begin_array().begin_array().end_array().begin_object().end_object().end_array();
        w.key("n").null().key("t").bool(true).key("i").raw(-3).key("u").u64(u64::MAX);
        w.key("x").f64(f64::NAN).key("y").f64(2.0).key("z").f64(-0.5).end_object();
        let doc = w.finish();
        assert_eq!(
            doc,
            r#"{"a":[],"b":{},"c":[[],{}],"n":null,"t":true,"i":-3,"u":18446744073709551615,"x":0,"y":2,"z":-0.5}"#
        );
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("c").unwrap().as_array().map(<[Json]>::len), Some(2));
        assert_eq!(v.get("y").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn spaced_and_indented_layouts() {
        let mut w = Writer::spaced();
        w.begin_object();
        w.indent(2).key("a").u64(1);
        w.indent(2).key("m").begin_object().key("x").u64(1).key("y").u64(2).end_object();
        w.indent(2).key("empty").begin_array().end_array();
        w.indent(2).key("rows").begin_array();
        w.indent(4).begin_array().u64(1).u64(2).end_array();
        w.indent(4).str("s");
        w.indent(2).end_array().indent(0).end_object();
        let doc = w.finish();
        assert_eq!(
            doc,
            "{\n  \"a\": 1,\n  \"m\": {\"x\": 1, \"y\": 2},\n  \"empty\": [],\n  \"rows\": [\n    [1, 2],\n    \"s\"\n  ]\n}"
        );
        assert!(parse(&doc).is_ok());
    }
}
