//! Robustness tests: the parser must never panic or overflow the stack,
//! only return errors, no matter how mangled its input is. Driven by
//! `f3m-prng` seeded sweeps (the workspace builds offline, so no proptest);
//! CI runs them a second time in release, where they draw more cases.

use f3m_ir::parser::parse_module;
use f3m_prng::SmallRng;

const VALID: &str = r#"
module "t" {
declare @ext(i32) -> i32
define @f(i32 %0, i32 %1) -> i32 {
bb0:
  %2 = add i32 %0, %1
  %3 = icmp slt i32 %2, 10
  condbr %3, bb1, bb2
bb1:
  %4 = call i32 @ext(i32 %2)
  ret i32 %4
bb2:
  %5 = phi i32 [ %2, bb0 ]
  ret i32 %5
}
}
"#;

/// Cases a seeded sweep draws: a few hundred under `cargo test`, many more
/// in the release run of CI's "Parser robustness" step.
const SWEEP: usize = if cfg!(debug_assertions) { 256 } else { 20_000 };

/// Random printable-ASCII string (space..tilde plus newline), length 0..max.
fn random_ascii(rng: &mut SmallRng, max: usize) -> String {
    let len = rng.gen_range(0..=max);
    (0..len)
        .map(|_| {
            // 1-in-16 newline, otherwise a printable byte.
            if rng.gen_bool(1.0 / 16.0) {
                '\n'
            } else {
                rng.gen_range(0x20..=0x7Eu8) as char
            }
        })
        .collect()
}

#[test]
fn arbitrary_ascii_never_panics() {
    let mut rng = SmallRng::seed_from_u64(0x1D0);
    for _ in 0..SWEEP {
        let input = random_ascii(&mut rng, 200);
        let _ = parse_module(&input);
    }
}

#[test]
fn truncated_valid_module_never_panics() {
    // VALID is ASCII, so every byte offset is a char boundary; sweep all
    // prefixes exhaustively rather than sampling.
    for cut in 0..=VALID.len() {
        let _ = parse_module(&VALID[..cut]);
    }
}

#[test]
fn single_token_mutations_never_panic() {
    let mut rng = SmallRng::seed_from_u64(0x1D1);
    for _ in 0..SWEEP {
        let pos = rng.gen_range(0..VALID.len());
        let replacement = random_ascii(&mut rng, 3);
        let mut s = String::with_capacity(VALID.len() + 3);
        s.push_str(&VALID[..pos]);
        s.push_str(&replacement);
        if pos + 1 < VALID.len() {
            s.push_str(&VALID[pos + 1..]);
        }
        let _ = parse_module(&s);
    }
}

#[test]
fn line_deletions_never_panic() {
    let lines: Vec<&str> = VALID.lines().collect();
    for skip in 0..lines.len() {
        let mutated: Vec<&str> = lines
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, l)| *l)
            .collect();
        let _ = parse_module(&mutated.join("\n"));
    }
}

#[test]
fn line_duplications_never_panic() {
    let lines: Vec<&str> = VALID.lines().collect();
    for dup in 0..lines.len() {
        let mut mutated = lines.clone();
        mutated.insert(dup, lines[dup]);
        let _ = parse_module(&mutated.join("\n"));
    }
}

#[test]
fn duplicate_items_are_errors() {
    let f = "define @x() -> void {\nbb0:\n  ret\n}";
    let cases = [
        (format!("module \"t\" {{\n{f}\n{f}\n}}"), 6),
        (format!("module \"t\" {{\ndeclare @x() -> void\n{f}\n}}"), 3),
        (format!("module \"t\" {{\n{f}\ndeclare @x() -> void\n}}"), 6),
        ("module \"t\" {\nglobal @x : i8 = [1]\n\nglobal @x : i64 = [2]\n}".into(), 4),
    ];
    for (src, line) in cases {
        let err = parse_module(&src).unwrap_err();
        assert_eq!((err.line, err.msg.as_str()), (line, "duplicate definition of @x"), "{src}");
    }
    // Functions and globals are separate namespaces.
    assert!(parse_module(&format!("module \"t\" {{\nglobal @x : i8 = [1]\n{f}\n}}")).is_ok());
    // A label repeated within one body names the second label's line,
    // while other bodies may reuse it.
    let twice = "define @y() -> void {\nbb0:\n  br bb1\nbb1:\n  br bb0\nbb0:\n  ret\n}";
    let err = parse_module(&format!("module \"t\" {{\n{f}\n{twice}\n}}")).unwrap_err();
    assert_eq!((err.line, err.msg.as_str()), (11, "duplicate label `bb0`"));
}

#[test]
fn helpful_errors_for_common_mistakes() {
    let cases = [
        ("module \"t\" { define @f() -> void {\nbb0:\n  retx\n}\n}", "unknown mnemonic"),
        ("module \"t\" { define @f() -> void {\nbb0:\n  %1 = add i99999 1, 2\n  ret\n}\n}", "bad int width"),
        ("module \"t\" { define @f() -> void {\nbb0:\n  br nowhere\n  ret\n}\n}", "unknown label"),
        ("module \"t\" { define @f(i32 %0) -> i32 {\nbb0:\n  ret i32 %7\n}\n}", "undefined value"),
    ];
    for (src, needle) in cases {
        let err = parse_module(src).unwrap_err();
        assert!(
            err.msg.contains(needle),
            "expected `{needle}` in error for {src:?}, got: {err}"
        );
    }
}

#[test]
fn deeply_nested_types_do_not_overflow() {
    // [1 x [1 x [1 x ... i32]]] — recursion in the type parser should be
    // fine at reasonable depths.
    let mut ty = String::from("i32");
    for _ in 0..64 {
        ty = format!("[1 x {ty}]");
    }
    let src = format!(
        "module \"t\" {{\ndefine @f() -> i32 {{\nbb0:\n  %1 = alloca {ty}\n  %2 = load i32, %1\n  ret i32 %2\n}}\n}}"
    );
    assert!(parse_module(&src).is_ok());
}

/// The parser's `MAX_TYPE_DEPTH`.
const MAX_TYPE_DEPTH: usize = 128;

/// Past the bound a type is an error on its own line; a regression recurses
/// until the stack overflows, which aborts this test binary.
#[test]
fn type_nesting_is_bounded() {
    let module = |ty: &str| {
        let body = format!("bb0:\n  %0 = alloca {ty}\n  ret\n");
        format!("module \"t\" {{\ndefine @f() -> void {{\n{body}}}\n}}")
    };
    let shapes = [("[1 x ", "]"), ("{", "}"), ("fn(", ") -> void"), ("fn() -> ", "")];
    for (open, close) in shapes {
        let nest = |n: usize| format!("{}i32{}", open.repeat(n), close.repeat(n));
        assert!(parse_module(&module(&nest(MAX_TYPE_DEPTH))).is_ok(), "{open}");
        for deep in [MAX_TYPE_DEPTH + 1, 200_000] {
            let err = parse_module(&module(&nest(deep))).unwrap_err();
            assert_eq!((err.line, err.msg.as_str()), (4, "type nesting deeper than 128"), "{open}");
        }
        // Unclosed and in a header, as a hostile frame might send it.
        let err = parse_module(&format!("module \"t\" {{\ndeclare @f({}", open.repeat(200_000)));
        assert_eq!(err.unwrap_err().msg, "type nesting deeper than 128", "{open}");
    }
}
