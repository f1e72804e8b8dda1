//! Robustness tests: the parser must never panic or overflow the stack,
//! only return errors, no matter how mangled its input is. Driven by
//! `f3m-prng` seeded sweeps (the workspace builds offline, so no proptest);
//! CI runs them a second time in release, where they draw more cases.

use std::time::{Duration, Instant};

use f3m_ir::parser::{parse_module, parse_module_for};
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

/// A `@symbol` operand is a reference, always of type `ptr`: used as any
/// other type it is an error on its line, through every entry point that
/// builds a body: a whole module, and one definition of it as the
/// daemon's `update` reads one.
#[test]
fn symbol_operands_are_ptr() {
    let module = |body: &str| {
        format!(
            "module \"t\" {{\ndeclare @ext(i64) -> i64\nglobal @g : i64 = [0]\n\
             define @f(i64 %0) -> i64 {{\nbb0:\n{body}\n}}\n}}"
        )
    };
    let good = "  %1 = call i64 @ext(i64 %0)\n  ret i64 %1";
    assert!(parse_module(&module(good)).is_ok());
    let cases = [
        ("  %1 = add i64 @ext, 1\n  %2 = call i64 @ext(i64 %1)\n  ret i64 %2", "@ext used as i64"),
        ("  %1 = add i64 %0, @g\n  ret i64 %1", "@g used as i64"),
        ("  %1 = call i64 @ext(i64 @g)\n  ret i64 %1", "@g used as i64"),
    ];
    for (body, needle) in cases {
        let src = module(body);
        for err in [
            parse_module(&src).unwrap_err(),
            parse_module_for(&src, "f").unwrap_err(),
        ] {
            assert_eq!(err.line, 6, "{src}");
            assert!(err.msg.contains(needle), "expected `{needle}`, got: {err}");
        }
    }
}

/// No instruction has a function type: a `call` typed with one, named or
/// not, is an error on its line through every entry point that builds a
/// body, and so is any other instruction typed so. A function may still
/// return one.
#[test]
fn function_typed_instructions_are_refused() {
    let module = |body: &str| {
        format!(
            "module \"t\" {{\ndeclare @g() -> fn(i32) -> i32\n\
             define @f(ptr %0) -> void {{\nbb0:\n{body}\n}}\n}}"
        )
    };
    assert!(parse_module(&module("  ret")).is_ok());
    let cases = [
        ("  call fn(i32) -> i32 @g()\n  ret", "call of function type fn(i32) -> i32"),
        ("  %1 = call fn(i32) -> i32 @g()\n  ret", "call of function type fn(i32) -> i32"),
        ("  %1 = load fn() -> void, %0\n  ret", "load of function type fn() -> void"),
    ];
    for (body, want) in cases {
        let src = module(body);
        for err in [parse_module(&src).unwrap_err(), parse_module_for(&src, "f").unwrap_err()] {
            assert_eq!((err.line, err.msg.as_str()), (5, want), "{src}");
        }
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

/// A newline inside a string counts: every error after it names its line.
#[test]
fn lines_count_inside_strings() {
    let err = parse_module("module \"a\nb\" {\nfoo\n}").unwrap_err();
    assert_eq!((err.line, err.msg.as_str()), (3, "expected `global`, `declare`, `define` or `}`"));
}

/// A module whose `@other` has `line` as the second line of its body, and
/// whose `@f` is well formed.
fn with_other_body(line: &str) -> String {
    format!(
        "module \"t\" {{\ndefine @other(i32 %0) -> i32 {{\nbb0:\n{line}\n  ret i32 %0\n}}\n\
         define @f(i32 %0) -> i32 {{\nbb0:\n  %1 = add i32 %0, 1\n  ret i32 %1\n}}\n}}\n"
    )
}

/// `parse_module_for` reads `name`'s body and steps over the others
/// without lexing them.
fn reads_f_alone(src: &str) {
    let (m, id) = parse_module_for(src, "f").unwrap_or_else(|e| panic!("{e}: {src}"));
    assert_eq!(m.function(id.unwrap()).num_linked_insts(), 2, "{src}");
    assert_eq!(m.function(m.lookup_function("other").unwrap()).num_blocks(), 0, "{src}");
}

/// A body `parse_module_for` steps over is not lexed: what does not lex
/// there is no error, while `parse_module`, and `parse_module_for` for
/// that body, still refuse it as they always did.
#[test]
fn a_skipped_body_is_not_lexed() {
    let cases = [
        ("  $", "unexpected character `$`"),
        ("  %1 = add i32 %, 1", "expected number after `%`"),
        ("  %1 = add i32 %0, 99999999999999999999", "integer overflow `99999999999999999999`"),
    ];
    for (line, msg) in cases {
        let src = with_other_body(line);
        reads_f_alone(&src);
        for err in [parse_module(&src).unwrap_err(), parse_module_for(&src, "other").unwrap_err()] {
            assert_eq!((err.line, err.msg.as_str()), (4, msg), "{src}");
        }
    }
}

/// The skim that steps over a body matches its braces as the tokens do:
/// a brace in a `;` comment or a string is not one, a struct type's are.
#[test]
fn the_skim_matches_braces_as_the_tokens_do() {
    let cases = [
        ("  ; } {", None),
        ("  ; {{{", None),
        ("  \"} ; {\"", Some("expected label or instruction")),
        ("  \"{\" ; \"}\"", Some("expected label or instruction")),
        ("  %1 = alloca { i32, { i64 } }", None),
    ];
    for (line, refusal) in cases {
        let src = with_other_body(line);
        reads_f_alone(&src);
        let parsed = parse_module(&src).map(|_| ()).map_err(|e| (e.line, e.msg));
        assert_eq!(parsed, refusal.map_or(Ok(()), |msg| Err((4, msg.to_string()))), "{src}");
    }
}

/// Input that ends inside a body reports the end of input on the line of
/// the last token, whether the body is skipped or read.
#[test]
fn input_ending_in_a_skipped_body() {
    let cases = [
        ("module \"t\" {\ndefine @g(i32 %0) -> i32 {\nbb0:\n  %1 = add i32 %0, 1 ; {\n\n; }\n", 4),
        ("module \"t\" {\ndefine @g() -> void {\n\n  ; bb0:\n", 2),
        ("module \"t\" {\ndefine @g() -> void {\nbb0: \"}\n\" ; }\n", 3),
        ("module \"t\" {\ndefine @g() -> void {\nbb0:\n  %1 = alloca { i32,\n { i64 }", 5),
    ];
    for (src, line) in cases {
        for name in ["g", "nowhere"] {
            let err = parse_module_for(src, name).unwrap_err();
            assert_eq!((err.line, err.msg.as_str()), (line, "unexpected end of input"), "{src}");
        }
        let err = parse_module(src).unwrap_err();
        assert_eq!((err.line, err.msg.as_str()), (line, "unexpected end of input"), "{src}");
    }
}

/// A skipped body of a megabyte of `{`, of comment, or after an
/// unterminated string is stepped over in linear time, as is the same
/// body read by `parse_module`: each is refused or read within the
/// bound `chaos.rs` gives a hostile frame.
#[test]
fn hostile_skipped_bodies_stay_linear() {
    const MB: usize = 1 << 20;
    let cases = [
        ("a megabyte of `{`", "{".repeat(MB), false),
        ("a megabyte of `{` on lines", "{\n".repeat(MB / 2), false),
        ("a megabyte of comment", format!("  ; {}", "}".repeat(MB)), true),
        ("a megabyte of comments", "  ; {\n".repeat(MB / 6), true),
        ("an unterminated string", format!("  \"{}", "} {\n".repeat(MB / 4)), false),
    ];
    for (what, line, reads) in cases {
        let src = with_other_body(&line);
        let t0 = Instant::now();
        let parsed = parse_module_for(&src, "f");
        assert_eq!(parsed.is_ok(), reads, "{what}: {:?}", parsed.err());
        if reads {
            reads_f_alone(&src);
        }
        let module = parse_module(&src);
        assert_eq!(module.is_ok(), reads, "{what}: {:?}", module.err());
        let elapsed = t0.elapsed();
        assert!(elapsed < Duration::from_secs(5), "{what}: took {elapsed:?}");
    }
}
