//! Architecture guards, read from the source: each names a file, the part
//! of it that is product code and a pattern that must not appear there. A
//! design that comes back (a second header grammar, a token vector, a
//! printer building strings of its own) fails here, not in review. A
//! guarded file that is missing fails its guard, so renaming a file cannot
//! retire one silently. Each guard has a fixture that shows it fires.

use std::path::Path;

/// A pattern that must not appear in a file.
#[derive(Clone, Copy)]
struct Guard {
    /// Path from the workspace root.
    file: &'static str,
    /// Read only up to the first line that holds `#[cfg(test)]` (that line
    /// included): the product code above the tests.
    product_only: bool,
    /// Whether a line breaks the rule.
    hits: fn(&str) -> bool,
    /// The rule, as a failure states it.
    rule: &'static str,
}

impl Guard {
    /// The lines of `text` in the guard's scope that break its rule, with
    /// their line numbers.
    fn hits_in<'t>(&self, text: &'t str) -> Vec<(usize, &'t str)> {
        let mut out = Vec::new();
        for (n, line) in text.lines().enumerate() {
            if (self.hits)(line) {
                out.push((n + 1, line));
            }
            if self.product_only && line.contains("#[cfg(test)]") {
                break;
            }
        }
        out
    }

    fn check(&self) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(self.file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("guarded file {} is missing: {e}", self.file));
        let hits = self.hits_in(&text);
        assert!(hits.is_empty(), "{}: {}: {hits:?}", self.file, self.rule);
    }
}

/// Whether `line` holds `word` with no word character after it (`word\b`).
fn has_word(line: &str, word: &str) -> bool {
    let ends_word = |rest: &str| !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_');
    line.match_indices(word).any(|(at, _)| ends_word(&line[at + word.len()..]))
}

/// One header grammar: the parser reads `global`, `declare` and `define`
/// headers in one production each, and steps over bodies by brace
/// matching. A second, skip-only copy of a production breaks it.
const SINGLE_HEADER_GRAMMAR: Guard = Guard {
    file: "crates/ir/src/parser.rs",
    product_only: false,
    hits: |line| has_word(line, "fn predeclare") || has_word(line, "fn declare_skip"),
    rule: "one header grammar: parse the header where it is registered",
};

/// The parser lexes on demand through one cursor, and steps over a body
/// with a byte skim: an `update` lexes the one body it reads. The token
/// vector the cursor is held to lives in `parser/reference.rs`, under
/// `#[cfg(test)]`.
const NO_TOKEN_VECTOR: Guard = Guard {
    file: "crates/ir/src/parser.rs",
    product_only: false,
    hits: |line| line.contains("Vec<(Tok"),
    rule: "lex on demand through the cursor; no token vector in the parser",
};

/// Every printer entry point drives one `Printer` that appends to a single
/// `String`: no per-operand or per-line string, and no list joined from a
/// `Vec<String>`. The printer that built them lives in
/// `printer/reference.rs`, under `#[cfg(test)]`.
const ONE_OUTPUT_BUFFER: Guard = Guard {
    file: "crates/ir/src/printer.rs",
    product_only: true,
    hits: |line| ["format!(", ".join(", "Vec<String>"].iter().any(|p| line.contains(p)),
    rule: "the printer appends to one buffer: no format!, join or Vec<String>",
};

#[test]
fn single_header_grammar() {
    SINGLE_HEADER_GRAMMAR.check();
}

#[test]
fn no_token_vector() {
    NO_TOKEN_VECTOR.check();
}

#[test]
fn one_output_buffer() {
    ONE_OUTPUT_BUFFER.check();
}

#[test]
fn each_guard_fires_on_its_fixture() {
    let lines = |guard: Guard, text| guard.hits_in(text).iter().map(|h| h.0).collect::<Vec<_>>();

    let grammar = "fn header(&mut self) {}\n    fn predeclare(&mut self) {}\n\
                   fn declare_skip<'s>() {}\n";
    assert_eq!(lines(SINGLE_HEADER_GRAMMAR, grammar), [2, 3]);
    assert_eq!(lines(SINGLE_HEADER_GRAMMAR, "fn predeclared() {}\nfn declare_skips() {}\n"), []);

    let tokens = "struct Cursor<'s> { at: usize }\nlet toks: Vec<(Tok<'s>, u32)> = lex(src);\n";
    assert_eq!(lines(NO_TOKEN_VECTOR, tokens), [2]);

    let printer = "out.push_str(name);\nlet s = format!(\"%{n}\");\nparts.join(\", \")\n\
                   let v: Vec<String> = x;\n#[cfg(test)]\nfn t() -> String { format!(\"{}\", 1) }\n";
    assert_eq!(lines(ONE_OUTPUT_BUFFER, printer), [2, 3, 4]);
}

#[test]
fn a_missing_guarded_file_fails() {
    for guard in [SINGLE_HEADER_GRAMMAR, NO_TOKEN_VECTOR, ONE_OUTPUT_BUFFER] {
        let renamed = Guard { file: "crates/ir/src/renamed.rs", ..guard };
        assert!(std::panic::catch_unwind(|| renamed.check()).is_err(), "{}", guard.rule);
    }
}
