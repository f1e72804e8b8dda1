//! Architecture guards, read from the source: each names a file or a
//! directory, the part of it that is product code and a pattern that must
//! not appear there (or must appear an exact number of times). A design
//! that comes back (a second header grammar, a token vector, a printer
//! building strings of its own) fails here, not in review. A guarded file
//! or directory that is missing fails its guard, so renaming one cannot
//! retire a guard silently. Each guard has a fixture that shows it fires.

use std::path::Path;

/// A pattern that must not appear in a file, or in any file under a
/// directory — or that must appear exactly `count` times.
#[derive(Clone, Copy)]
struct Guard {
    /// Path from the workspace root: a file, or a directory whose files are
    /// all read, subdirectories included. A `*` component stands for every
    /// entry of the directory before it (`crates/*/src`).
    file: &'static str,
    /// Files under `file` the rule does not read, from the workspace root.
    except: &'static [&'static str],
    /// Read only up to the first line that starts with `#[cfg(test)]` (that
    /// line included): the product code above the tests.
    product_only: bool,
    /// Whether a line breaks the rule (or, with a `count`, is one of the
    /// lines counted).
    hits: fn(&str) -> bool,
    /// How many lines in scope may hit: exactly this many.
    count: usize,
    /// The rule, as a failure states it.
    rule: &'static str,
}

/// What every guard starts from: the whole file, no exceptions, no hits.
const WHOLE: Guard =
    Guard { file: "", except: &[], product_only: false, hits: |_| false, count: 0, rule: "" };

impl Guard {
    /// The lines of `text` in the guard's scope that break its rule, with
    /// their line numbers.
    fn hits_in<'t>(&self, text: &'t str) -> Vec<(usize, &'t str)> {
        let mut out = Vec::new();
        for (n, line) in text.lines().enumerate() {
            if (self.hits)(line) {
                out.push((n + 1, line));
            }
            if self.product_only && line.starts_with("#[cfg(test)]") {
                break;
            }
        }
        out
    }

    fn check(&self) {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut hits = Vec::new();
        for file in files(&root, self.file) {
            if self.except.contains(&file.as_str()) {
                continue;
            }
            let text = std::fs::read_to_string(root.join(&file))
                .unwrap_or_else(|e| panic!("guarded file {file} is unreadable: {e}"));
            hits.extend(self.hits_in(&text).into_iter().map(|(n, line)| format!("{file}:{n}: {line}")));
        }
        assert!(hits.len() == self.count, "{}: {}: {hits:#?}", self.file, self.rule);
    }
}

/// The files `path` names under `root`, by path from `root`: the file
/// itself, or every file under the directory, in name order; a `*`
/// component expands to each entry of its directory.
///
/// # Panics
///
/// When `path`, or a directory a `*` expands to, does not exist.
fn files(root: &Path, path: &str) -> Vec<String> {
    let entries = |dir: &str| {
        let mut names: Vec<String> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("guarded path {dir} is missing: {e}"))
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    if let Some((dir, rest)) = path.split_once("/*/") {
        return entries(dir).iter().flat_map(|name| files(root, &format!("{dir}/{name}/{rest}"))).collect();
    }
    match std::fs::metadata(root.join(path)) {
        Ok(meta) if meta.is_dir() => {
            entries(path).iter().flat_map(|name| files(root, &format!("{path}/{name}"))).collect()
        }
        Ok(_) => vec![path.to_string()],
        Err(e) => panic!("guarded path {path} is missing: {e}"),
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
    ..WHOLE
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
    ..WHOLE
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
    ..WHOLE
};

/// Both snapshot sums are XXH64, which folds four 8-byte lanes a step.
/// Byte-serial FNV-1a over the whole file was most of a bulk restore;
/// FNV-1a stays the fingerprint hash, but not in the snapshot code.
const WORD_PARALLEL_SNAPSHOT_CHECKSUM: Guard = Guard {
    file: "crates/fingerprint/src/snapshot.rs",
    product_only: true,
    hits: |line| line.contains("fnv1a"),
    rule: "the snapshot sums are XXH64: no fnv1a in snapshot.rs",
    ..WHOLE
};

/// A corpus entry's qualified name is one `Arc<str>`, and every answer
/// naming the entry bumps its reference count: no per-answer copy.
const SHARED_ANSWER_NAMES: Guard = Guard {
    file: "crates/core/src/corpus.rs",
    product_only: false,
    hits: |line| line.contains("qualified.clone()") || line.contains("qualified: String"),
    rule: "answers share the entry's Arc<str> name: no per-answer copies",
    ..WHOLE
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
    ..WHOLE
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
    ..WHOLE
};

/// The corpus's `LshIndex` keeps every bucket's members in one pool. The
/// map of per-bucket `Vec`s it replaced lives in `lsh/reference.rs`,
/// under `#[cfg(test)]`.
const ONE_BUCKET_POOL: Guard = Guard {
    file: "crates/fingerprint/src/lsh.rs",
    product_only: true,
    hits: |line| line.contains("HashMap<BandKey, Vec"),
    rule: "one bucket pool: no map of per-bucket Vecs in lsh.rs",
    ..WHOLE
};

/// A bulk restore reads the meta region into buffers of its own and
/// streams the pools through one bounded chunk, never holding the file
/// whole.
const STREAMING_SNAPSHOT_READ: Guard = Guard {
    file: "crates/fingerprint/src/snapshot.rs",
    product_only: true,
    hits: |line| line.contains("fs::read("),
    rule: "stream the snapshot: no whole-file fs::read in snapshot.rs",
    ..WHOLE
};

/// One JSON producer: `f3m_trace::json` is the only place a string is
/// escaped or a float formatted for JSON. A renderer that grows its own
/// helper again fails here.
const SINGLE_JSON_WRITER: Guard = Guard {
    file: "crates/*/src",
    except: &["crates/trace/src/json.rs"],
    hits: |line| ["fn escape", "fn json_escape", "fn json_f64"].iter().any(|w| has_word(line, w)),
    rule: "JSON escaping and float formatting belong to crates/trace/src/json.rs",
    ..WHOLE
};

/// One profitability gate: `Committer::attempt` is the only caller of the
/// alignment-profit estimate and the fixed-cost model, and
/// `Committer::try_commit` the only reader of the merged-size lower bound.
/// A driver that re-types the gate or consults the bound on its own fails
/// here; the two definitions outside `commit.rs` are not calls.
const SINGLE_PROFITABILITY_GATE: Guard = Guard {
    file: "crates/*/src",
    except: &["crates/core/src/commit.rs"],
    hits: |line| {
        let defines = ["pub fn", "pub(crate) fn"].iter().any(|vis| {
            ["estimated_savings(", "size_lower_bound("].iter().any(|f| line.contains(&format!("{vis} {f}")))
        });
        let calls = ["estimated_savings(", "fixed_overhead(", "size_lower_bound("].iter().any(|f| line.contains(f));
        calls && !defines
    },
    rule: "the profitability gate belongs to crates/core/src/commit.rs",
    ..WHOLE
};

/// One CFG per merged build: the merged CFG is final once the layout is
/// emitted, so the code generator computes its CFG and dominator tree once
/// and every phi rebuild and repair round reads them. A helper that
/// recomputes either per repaired value fails here. (The verifier keeps
/// its own: it is the check, not the mechanism.)
const ONE_CFG_PER_MERGED_BUILD: Guard = Guard {
    file: "crates/core/src/codegen.rs",
    product_only: true,
    hits: |line| line.contains("Cfg::compute("),
    count: 1,
    rule: "codegen.rs computes the merged CFG once outside tests",
    ..WHOLE
};

/// ... and its dominator tree once.
const ONE_DOMTREE_PER_MERGED_BUILD: Guard = Guard {
    hits: |line| line.contains("DomTree::compute("),
    rule: "codegen.rs computes the merged dominator tree once outside tests",
    ..ONE_CFG_PER_MERGED_BUILD
};

/// One similarity leaf: `rank.rs` holds the ranking kernel (the one place
/// that decides a candidate needs its signature compared) and the
/// exhaustive reference it is tested against; `analysis.rs` evaluates the
/// metric itself. A driver that scores signatures on its own fails here.
const SINGLE_SIMILARITY_LEAF: Guard = Guard {
    file: "crates/core/src",
    except: &["crates/core/src/rank.rs", "crates/core/src/analysis.rs"],
    hits: |line| ["signature_similarity(", "equal_slots(", "equal_bytes("].iter().any(|f| line.contains(f)),
    rule: "signature comparison belongs to crates/core/src/rank.rs",
    ..WHOLE
};

/// Untrusted text is keyed with std's randomly seeded hasher: the IR
/// parser and the daemon's request path hash words and labels a client
/// chose, so a fixed-key hasher there would let one frame pick its
/// collisions.
const NO_FIXED_KEY_HASHERS_IN_IR: Guard = Guard {
    file: "crates/ir/src",
    hits: |line| line.contains("BuildHasherDefault") || line.contains("FxHash"),
    rule: "keep std's RandomState for maps filled from IR text or frames",
    ..WHOLE
};

/// ... in the daemon's crate too.
const NO_FIXED_KEY_HASHERS_IN_SERVE: Guard =
    Guard { file: "crates/serve/src", ..NO_FIXED_KEY_HASHERS_IN_IR };

/// One structural import: an update and the combined corpus move a
/// function between modules with `import_function`, so the text splice
/// (re-parsing a printed definition against a module, and the line count
/// that placed its errors in the module's rendering) stays gone.
const ONE_STRUCTURAL_IMPORT: Guard = Guard {
    file: "crates/*/src",
    hits: |line| has_word(line, "parse_replacement") || has_word(line, "lines_before"),
    rule: "move functions between modules with import_function, not by text",
    ..WHOLE
};

/// The corpus parses module text in one place outside its tests: the
/// deferred source of a snapshot-restored module (`LazyModule::get`). The
/// combined corpus is built by import, not by a parse of its print.
const CORPUS_PARSES_ONCE: Guard = Guard {
    file: "crates/core/src/corpus.rs",
    product_only: true,
    hits: |line| line.contains("parse_module("),
    count: 1,
    rule: "corpus.rs parses a whole module only in LazyModule::get",
    ..WHOLE
};

/// ... and prints a whole module in one place: a module's canonical
/// source (`LazyModule::source`).
const CORPUS_PRINTS_ONCE: Guard = Guard {
    hits: |line| line.contains("print_module("),
    rule: "corpus.rs prints a whole module only in LazyModule::source",
    ..CORPUS_PARSES_ONCE
};

/// Every guard, for the checks that run them all.
const GUARDS: [Guard; 19] = [
    SINGLE_HEADER_GRAMMAR,
    NO_TOKEN_VECTOR,
    ONE_OUTPUT_BUFFER,
    WORD_PARALLEL_SNAPSHOT_CHECKSUM,
    SHARED_ANSWER_NAMES,
    PASS_USES_THE_FLAT_INDEX,
    ONE_FRAME_BUFFER,
    ONE_BUCKET_POOL,
    STREAMING_SNAPSHOT_READ,
    SINGLE_JSON_WRITER,
    SINGLE_PROFITABILITY_GATE,
    ONE_CFG_PER_MERGED_BUILD,
    ONE_DOMTREE_PER_MERGED_BUILD,
    SINGLE_SIMILARITY_LEAF,
    NO_FIXED_KEY_HASHERS_IN_IR,
    NO_FIXED_KEY_HASHERS_IN_SERVE,
    ONE_STRUCTURAL_IMPORT,
    CORPUS_PARSES_ONCE,
    CORPUS_PRINTS_ONCE,
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
fn single_json_writer() {
    SINGLE_JSON_WRITER.check();
}

#[test]
fn single_profitability_gate() {
    SINGLE_PROFITABILITY_GATE.check();
}

#[test]
fn one_cfg_per_merged_build() {
    ONE_CFG_PER_MERGED_BUILD.check();
    ONE_DOMTREE_PER_MERGED_BUILD.check();
}

#[test]
fn single_similarity_leaf() {
    SINGLE_SIMILARITY_LEAF.check();
}

#[test]
fn no_fixed_key_hashers_on_untrusted_input() {
    NO_FIXED_KEY_HASHERS_IN_IR.check();
    NO_FIXED_KEY_HASHERS_IN_SERVE.check();
}

#[test]
fn one_structural_import() {
    ONE_STRUCTURAL_IMPORT.check();
}

#[test]
fn corpus_parses_and_prints_one_module_source() {
    CORPUS_PARSES_ONCE.check();
    CORPUS_PRINTS_ONCE.check();
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

    let json = "pub fn escape(s: &str) -> String {\nfn json_escape_all() {}\nfn json_f64(x: f64) {}\n\
                fn escaped() {}\nw.str(&escape(s));\n";
    assert_eq!(lines(SINGLE_JSON_WRITER, json), [1, 3]);

    let gate = "let s = p.estimated_savings(fixed);\npub fn estimated_savings(&self) -> i64 {\n\
                pub(crate) fn size_lower_bound(&self) -> u64 {\nfixed_overhead(&m)\nb.size_lower_bound()\n";
    assert_eq!(lines(SINGLE_PROFITABILITY_GATE, gate), [1, 4, 5]);

    let codegen = "let cfg = Cfg::compute(&f);\nlet dom = DomTree::compute(&f, &cfg);\n\
                   #[cfg(test)]\nlet again = Cfg::compute(&f);\n";
    assert_eq!(lines(ONE_CFG_PER_MERGED_BUILD, codegen), [1]);
    assert_eq!(lines(ONE_DOMTREE_PER_MERGED_BUILD, codegen), [2]);

    let leaf = "let s = signature_similarity(a, b);\nequal_slots(a, b)\nequal_bytes(a, b)\nlet equal = 3;\n";
    assert_eq!(lines(SINGLE_SIMILARITY_LEAF, leaf), [1, 2, 3]);

    let hashers = "HashMap<&str, u32>\nHashMap<u32, u32, BuildHasherDefault<H>>\nuse rustc_hash::FxHashMap;\n";
    assert_eq!(lines(NO_FIXED_KEY_HASHERS_IN_IR, hashers), [2, 3]);
    assert_eq!(lines(NO_FIXED_KEY_HASHERS_IN_SERVE, hashers), [2, 3]);

    let splice = "parse_replacement(&m, id, text)\ne.line += lines_before(m, id);\n\
                  fn parse_replacements() {}\n";
    assert_eq!(lines(ONE_STRUCTURAL_IMPORT, splice), [1, 2]);

    let corpus = "parse_module(src)\nparse_module_for(text, f)\nprint_module(m)\n\
                  print_function(m, id)\n    #[cfg(test)]\nparse_module(&text)\n#[cfg(test)]\nprint_module(m)\n";
    assert_eq!(lines(CORPUS_PARSES_ONCE, corpus), [1, 6]);
    assert_eq!(lines(CORPUS_PRINTS_ONCE, corpus), [3]);
}

#[test]
fn a_missing_guarded_file_fails() {
    for guard in GUARDS {
        for missing in ["crates/ir/src/renamed.rs", "crates/renamed", "crates/*/renamed"] {
            let renamed = Guard { file: missing, ..guard };
            assert!(std::panic::catch_unwind(|| renamed.check()).is_err(), "{missing}: {}", guard.rule);
        }
    }
}
