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

/// Both snapshot sums are XXH64, which folds four 8-byte lanes a step.
/// Byte-serial FNV-1a over the whole file was most of a bulk restore;
/// FNV-1a stays the fingerprint hash, but not in the snapshot code.
const WORD_PARALLEL_SNAPSHOT_CHECKSUM: Guard = Guard {
    file: "crates/fingerprint/src/snapshot.rs",
    product_only: true,
    hits: |line| line.contains("fnv1a"),
    rule: "the snapshot sums are XXH64: no fnv1a in snapshot.rs",
};

/// A corpus entry's qualified name is one `Arc<str>`, and every answer
/// naming the entry bumps its reference count: no per-answer copy.
const SHARED_ANSWER_NAMES: Guard = Guard {
    file: "crates/core/src/corpus.rs",
    product_only: false,
    hits: |line| line.contains("qualified.clone()") || line.contains("qualified: String"),
    rule: "answers share the entry's Arc<str> name: no per-answer copies",
};

/// The pass searches the shrink-only `FlatIndex`; inserting into,
/// removing from or probing the corpus's mutable `LshIndex` is the
/// daemon's.
const PASS_USES_THE_FLAT_INDEX: Guard = Guard {
    file: "crates/core/src/rank.rs",
    product_only: false,
    hits: |line| {
        ["insert_with_keys", "remove_with_keys", "probe_keys_into"].iter().any(|w| has_word(line, w))
    },
    rule: "the pass's search goes through FlatIndex, not LshIndex",
};

/// A connection reassembles frames in one flat inbox and reads a large
/// payload straight into the `Vec` it hands on; a byte deque drained into
/// a fresh `Vec` per frame was most of the frame layer.
const ONE_FRAME_BUFFER: Guard = Guard {
    file: "crates/serve/src/conn.rs",
    product_only: false,
    hits: |line| {
        let drained = line.find("drain(").is_some_and(|at| line[at..].contains(").collect("));
        line.contains("VecDeque<u8>") || drained
    },
    rule: "reassemble frames in one flat buffer: no VecDeque<u8>, no drain().collect()",
};

/// The corpus's `LshIndex` keeps every bucket's members in one pool. The
/// map of per-bucket `Vec`s it replaced lives in `lsh/reference.rs`,
/// under `#[cfg(test)]`.
const ONE_BUCKET_POOL: Guard = Guard {
    file: "crates/fingerprint/src/lsh.rs",
    product_only: true,
    hits: |line| line.contains("HashMap<BandKey, Vec"),
    rule: "one bucket pool: no map of per-bucket Vecs in lsh.rs",
};

/// A bulk restore reads the meta region into buffers of its own and
/// streams the pools through one bounded chunk, never holding the file
/// whole.
const STREAMING_SNAPSHOT_READ: Guard = Guard {
    file: "crates/fingerprint/src/snapshot.rs",
    product_only: true,
    hits: |line| line.contains("fs::read("),
    rule: "stream the snapshot: no whole-file fs::read in snapshot.rs",
};

/// Every guard, for the checks that run them all.
const GUARDS: [Guard; 9] = [
    SINGLE_HEADER_GRAMMAR,
    NO_TOKEN_VECTOR,
    ONE_OUTPUT_BUFFER,
    WORD_PARALLEL_SNAPSHOT_CHECKSUM,
    SHARED_ANSWER_NAMES,
    PASS_USES_THE_FLAT_INDEX,
    ONE_FRAME_BUFFER,
    ONE_BUCKET_POOL,
    STREAMING_SNAPSHOT_READ,
];

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
fn word_parallel_snapshot_checksum() {
    WORD_PARALLEL_SNAPSHOT_CHECKSUM.check();
}

#[test]
fn shared_answer_names() {
    SHARED_ANSWER_NAMES.check();
}

#[test]
fn pass_uses_the_flat_index() {
    PASS_USES_THE_FLAT_INDEX.check();
}

#[test]
fn one_frame_buffer() {
    ONE_FRAME_BUFFER.check();
}

#[test]
fn one_bucket_pool() {
    ONE_BUCKET_POOL.check();
}

#[test]
fn streaming_snapshot_read() {
    STREAMING_SNAPSHOT_READ.check();
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

    let checksum = "let sum = xxh64(&buf);\nlet old = fnv1a(&buf);\n#[cfg(test)]\nfnv1a(&x);\n";
    assert_eq!(lines(WORD_PARALLEL_SNAPSHOT_CHECKSUM, checksum), [2]);

    let names = "name: Arc::clone(&e.qualified),\nname: e.qualified.clone(),\n\
                 struct A { qualified: String }\n#[cfg(test)]\nlet n = e.qualified.clone();\n";
    assert_eq!(lines(SHARED_ANSWER_NAMES, names), [2, 3, 5]);

    let rank = "flat.probe(&keys);\nidx.insert_with_keys(r, &k);\nidx.remove_with_keys(r, &k);\n\
                idx.probe_keys_into(&k, &mut out);\nfn probe_keys_into_flat() {}\n";
    assert_eq!(lines(PASS_USES_THE_FLAT_INDEX, rank), [2, 3, 4]);

    let conn = "inbox: Vec<u8>,\nqueue: VecDeque<u8>,\nlet f = q.drain(..n).collect();\n\
                let f: Vec<u8> = q.drain(0..n).map(g).collect();\nq.drain(..n);\nlet v: Vec<_> = x.collect();\n";
    assert_eq!(lines(ONE_FRAME_BUFFER, conn), [2, 3, 4]);

    let lsh = "pool: Vec<u32>,\nmap: HashMap<BandKey, Vec<u32>>,\n#[cfg(test)]\n\
               map: HashMap<BandKey, Vec<u32>>,\n";
    assert_eq!(lines(ONE_BUCKET_POOL, lsh), [2]);

    let snapshot = "file.read_exact(&mut buf)?;\nlet all = std::fs::read(path)?;\n#[cfg(test)]\n\
                    let all = fs::read(path)?;\n";
    assert_eq!(lines(STREAMING_SNAPSHOT_READ, snapshot), [2]);
}

#[test]
fn a_missing_guarded_file_fails() {
    for guard in GUARDS {
        let renamed = Guard { file: "crates/ir/src/renamed.rs", ..guard };
        assert!(std::panic::catch_unwind(|| renamed.check()).is_err(), "{}", guard.rule);
    }
}
