//! The string decoder [`Reader::string`] replaced, kept as the reference it
//! is held to: a byte-serial scan for the next `"` or `\`, and a `String`
//! that grows as the runs are copied in.
//!
//! [`decoder_matches_the_reference`] requires [`super::parse`] to return
//! what a parse through this decoder returns, value or error message, on
//! generated documents. The only inputs left out are those with a `\u`
//! escape the new decoder reads differently on purpose: a surrogate, or
//! four bytes that are not all hex digits but that `from_str_radix`
//! accepts (`\u+041`).

use super::{Json, Reader};

impl Reader<'_> {
    /// Decodes a string in time linear in its length: each run between
    /// escapes is copied as one slice of the input. A run ends at an ASCII
    /// `"` or `\`, so it is whole characters of the already-valid `&str`.
    pub(super) fn reference_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes[self.pos..].iter().position(|&b| b == b'"' || b == b'\\');
            let Some(run) = run else {
                self.pos = self.bytes.len();
                return Err(self.err("unterminated string"));
            };
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            match self.bytes.get(self.pos).copied() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let hex = self
                        .bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                        16,
                    )
                    .map_err(|_| self.err("bad \\u escape"))?;
                    out.push(char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?);
                    self.pos += 4;
                }
                _ => return Err(self.err("unsupported escape")),
            }
            self.pos += 1;
        }
    }
}

/// [`super::parse`] with every string decoded by the reference decoder.
pub fn parse(s: &str) -> Result<Json, String> {
    let mut r = Reader::new(s);
    r.reference = true;
    let v = r.value()?;
    r.skip_ws();
    if r.pos != r.bytes.len() {
        return Err(r.err("trailing data after value"));
    }
    Ok(v)
}

/// Whether `doc` holds a `\u` escape the two decoders read differently on
/// purpose: a UTF-16 surrogate, or four bytes that are not all hex digits
/// but parse as hex with a sign.
fn changed_on_purpose(doc: &str) -> bool {
    let bytes = doc.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] != b'\\' {
            i += 1;
            continue;
        }
        if bytes[i + 1] == b'u' {
            if let Some(hex) = bytes.get(i + 2..i + 6) {
                let digits = std::str::from_utf8(hex).ok();
                match digits.map(|d| u32::from_str_radix(d, 16)) {
                    Some(Ok(code)) if hex[0] == b'+' || (0xD800..=0xDFFF).contains(&code) => {
                        return true
                    }
                    _ => {}
                }
            }
        }
        i += 2;
    }
    false
}

/// A seeded splitmix64 stream: `next(bound)` draws from `0..bound`.
fn rng(seed: u64) -> impl FnMut(usize) -> usize {
    let mut state = seed;
    move |bound| {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    }
}

/// Escapes and raw text a generated string body is made of.
const PIECES: &[&str] =
    &["\\n", "\\\"", "\\\\", "\\/", "\\t", "\\r", "é", "関数", "\u{1F600}", "ü", "\u{7f}"];

/// Malformed escapes, and the ones the new decoder reads differently on
/// purpose (left out by [`changed_on_purpose`]).
const BROKEN: &[&str] = &[
    "\\q",
    "\\x41",
    "\\u12",
    "\\uZZ00",
    "\\u00g0",
    "\\u0é",
    "\\",
    "\\u",
    "\\u+041",
    "\\ud800",
    "\\udc00x",
    "\\ud83d\\ude00",
    "\\ud83dx",
    "\\U0041",
];

/// One string body: runs of plain ASCII, escapes, BMP `\uXXXX` escapes and
/// multi-byte characters, dense enough that most words hold an escape.
fn body(next: &mut impl FnMut(usize) -> usize, broken: bool) -> String {
    const PLAIN: &[u8] = b"abcXYZ019 .,_%@{}[]:-";
    let mut s = String::new();
    for _ in 0..next(12) {
        match next(8) {
            0..=2 => s.extend((0..next(18)).map(|_| char::from(PLAIN[next(PLAIN.len())]))),
            3..=5 => s.push_str(PIECES[next(PIECES.len())]),
            6 => {
                let code = loop {
                    let c = next(0x1_0000) as u32;
                    if !(0xD800..=0xDFFF).contains(&c) {
                        break c;
                    }
                };
                let hex = format!("{code:04x}");
                s.push_str("\\u");
                s.push_str(&if next(2) == 0 { hex } else { hex.to_uppercase() });
            }
            _ if broken => s.push_str(BROKEN[next(BROKEN.len())]),
            _ => {}
        }
    }
    s
}

/// A document of strings: keys and values, nested in arrays, now and then
/// cut short at a character boundary.
fn document(next: &mut impl FnMut(usize) -> usize) -> String {
    let broken = next(4) == 0;
    let mut doc = String::from("{");
    for f in 0..next(4) {
        if f > 0 {
            doc.push(',');
        }
        let broken_key = broken && next(3) == 0;
        doc.push('"');
        doc.push_str(&body(next, broken_key));
        doc.push_str("\":");
        if next(3) == 0 {
            doc.push('[');
            for i in 0..next(4) {
                if i > 0 {
                    doc.push(',');
                }
                doc.push('"');
                doc.push_str(&body(next, broken));
                doc.push('"');
            }
            doc.push(']');
        } else {
            doc.push('"');
            doc.push_str(&body(next, broken));
            doc.push('"');
        }
    }
    doc.push('}');
    if next(5) == 0 {
        let mut cut = next(doc.len() + 1);
        while !doc.is_char_boundary(cut) {
            cut -= 1;
        }
        doc.truncate(cut);
    }
    doc
}

/// Both decoders on one document: the same value or the same message.
fn assert_same(doc: &str) {
    assert_eq!(super::parse(doc), parse(doc), "{doc:?}");
}

#[test]
fn decoder_matches_the_reference() {
    let docs = if cfg!(debug_assertions) { 3_000 } else { 60_000 };
    let mut next = rng(0xDEC0DE);
    let (mut compared, mut errors, mut skipped) = (0, 0, 0);
    for _ in 0..docs {
        let doc = document(&mut next);
        if changed_on_purpose(&doc) {
            skipped += 1;
            continue;
        }
        assert_same(&doc);
        compared += 1;
        errors += usize::from(parse(&doc).is_err());
    }
    // Both outcomes are exercised, and the exclusion stays a minority.
    assert!(errors * 10 > compared && errors * 2 < compared, "{errors} of {compared} failed");
    assert!(skipped * 10 < docs, "{skipped} of {docs} left out");

    // A special byte at every offset modulo 8, before and after a
    // multi-byte run, inside a string that is whole, empty, unterminated
    // or ends in a truncated escape.
    let specials = PIECES.iter().chain(BROKEN).filter(|p| !changed_on_purpose(p));
    for special in specials {
        for pad in 0..17 {
            for lead in ["", "é", "関"] {
                let text = format!("{lead}{}{special}{}", "a".repeat(pad), "b".repeat(pad % 9));
                for doc in [
                    format!("\"{text}\""),
                    format!("[\"{text}\",\"\"]"),
                    format!("\"{text}"),
                    format!("{{\"{text}\":\"{text}\\u00e"),
                    format!("\"\"{text}"),
                ] {
                    assert_same(&doc);
                }
            }
        }
    }
    let edges =
        ["\"\"", "\"", "[\"\",\"\"]", "{\"\":\"\"}", "\"\\", "\"\\u", "\"\\u004", "\"\\u0041"];
    for doc in edges {
        assert_same(doc);
    }
}

#[test]
fn exclusion_names_only_the_escapes_read_differently() {
    for doc in ["\"\\u+041\"", "\"\\ud800\"", "\"\\uDFFF\"", "\"\\ud83d\\ude00\""] {
        assert!(changed_on_purpose(doc), "{doc}");
        assert_ne!(super::parse(doc), parse(doc), "{doc}");
    }
    for doc in ["\"\\u0041\"", "\"\\\\ud800\"", "\"\\u-041\"", "\"\\uD7FF\\uE000\"", "\"\\u12\""] {
        assert!(!changed_on_purpose(doc), "{doc}");
        assert_same(doc);
    }
}
