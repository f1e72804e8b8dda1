//! Textual IR parser.
//!
//! Parses the syntax produced by [`crate::printer`]. A hand-written
//! recursive-descent parser reads the text through a cursor that lexes on
//! demand — tokens borrow from the text, and no token vector is built —
//! in two loops: the first parses every top-level item — `global` lines,
//! `declare`/`define` headers — and steps over each definition's body by a
//! byte-level brace skim that lexes nothing; the second seeks to each body
//! and lexes it as it parses it into the function its header created.
//! With every header registered before any body is read, calls resolve
//! forward references. A body is first staged — every instruction,
//! operand and target label appended to flat buffers the parser reuses
//! from body to body — and then built in two phases, so that phi-nodes can
//! reference values defined later (back edges).
//!
//! A one-function edit of a resident module reads its text with
//! [`parse_module_for`], for that one definition: the second loop visits
//! its body alone, and no other body is lexed.
//!
//! The first error in reading order wins and carries its 1-based line:
//! the top level first — the headers and the skim over each body — then
//! each body read, in order. One exception: a token where a top-level
//! item should start (a stray token, a lexical error or the end of input)
//! is reported after the bodies, since it usually means a brace went
//! astray in the body before it. Text the parser does not read — after
//! the module's `}`, or in a body [`parse_module_for`] steps over — is
//! not lexed, so it cannot be an error. No input panics.
//!
//! # Examples
//!
//! ```
//! use f3m_ir::parser::parse_module;
//!
//! let m = parse_module(r#"
//! module "demo" {
//! define @inc(i32 %0) -> i32 {
//! bb0:
//!   %1 = add i32 %0, 1
//!   ret i32 %1
//! }
//! }
//! "#).unwrap();
//! assert_eq!(m.num_functions(), 1);
//! ```

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;

use crate::ids::{BlockId, FuncId, InstId, ValueId};
use crate::inst::{FloatPredicate, Instruction, IntPredicate, Opcode, Predicate};
use crate::function::{Function, Linkage};
use crate::module::{Global, Module};
use crate::printer::print_module;
use crate::types::{TypeId, TypeStore};
use crate::verify::{verify_function, verify_module, VerifyError};
use crate::value::{Value, ValueKind};

/// Parse failure with a line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, msg: impl Into<String>) -> ParseError {
    ParseError { line, msg: msg.into() }
}

/// Parses a module and verifies it.
///
/// # Errors
///
/// Returns a [`ParseError`] for syntax errors; verifier failures are
/// reported as a parse error on line 0 listing the problems.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    Parser::new(src).verified_module()
}

/// Verifier failures as the parse error every entry point reports them
/// as: line 0, every problem listed.
pub fn verification_failed(errs: &[VerifyError]) -> ParseError {
    let errs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
    err(0, format!("verification failed: {}", errs.join("; ")))
}

/// Parses module text `src` for its definition of `name` alone: its top
/// level is parsed as [`parse_module`] does, every other definition's body
/// is stepped over by the brace skim and neither lexed nor read (the
/// function keeps its header and no blocks), and `name`'s body is parsed
/// and verified. Returns the module and `name`'s id — `None` when `src`
/// has no definition of `name`.
///
/// # Errors
///
/// What [`parse_module`] reports for an error at the top level or in
/// `name`'s body (verifier failures of `name` on line 0). Inside another
/// definition's braces only the braces, comments and strings are looked
/// at, so what does not lex there is no error; an unterminated string, or
/// the input ending there, is.
pub fn parse_module_for(src: &str, name: &str) -> Result<(Module, Option<FuncId>), ParseError> {
    Parser::new(src).module_for(name)
}

/// The print→parse→print fixpoint every merge oracle checks: `printed`
/// (a [`print_module`] output) must reparse, and the reparsed module must
/// print back to exactly `printed`.
///
/// # Errors
///
/// Returns which half failed: the reparse, or the second printing.
pub fn check_print_fixpoint(printed: &str) -> Result<(), String> {
    match parse_module(printed) {
        Ok(m) if print_module(&m) == printed => Ok(()),
        Ok(_) => Err("reprinted module differs from first printing".to_string()),
        Err(e) => Err(format!("reparse failed: {e:?}")),
    }
}

/// Parses a module without running the verifier (useful in tests that
/// construct deliberately invalid IR).
///
/// # Errors
///
/// Returns a [`ParseError`] for syntax errors.
pub fn parse_module_unverified(src: &str) -> Result<Module, ParseError> {
    Parser::new(src).module(None, Parser::body)
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

/// One token; the variants that carry text borrow it from the source.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tok<'s> {
    /// Bare word: mnemonics, type names, labels, `module`, `define`...
    Word(&'s str),
    /// `%N` local value reference.
    Local(u32),
    /// `@name` symbol reference.
    Sym(&'s str),
    /// Integer literal (possibly negative).
    Int(i64),
    /// `0fXXXXXXXXXXXXXXXX` float bit pattern.
    FloatBits(u64),
    /// Quoted string.
    Str(&'s str),
    LBrace,
    RBrace,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Comma,
    Colon,
    Eq,
    Arrow,
}

/// End of the run of bytes satisfying `keep` that starts at `from`.
fn run(bytes: &[u8], from: usize, keep: impl Fn(u8) -> bool) -> usize {
    from + bytes[from..].iter().take_while(|&&b| keep(b)).count()
}

/// The end of the run of decimal digits at `from`, and the number they
/// spell — `None` past `u64::MAX`.
fn digits(bytes: &[u8], from: usize) -> (usize, Option<u64>) {
    let (mut i, mut value) = (from, Some(0u64));
    while let Some(&b) = bytes.get(i).filter(|b| b.is_ascii_digit()) {
        value = value.and_then(|v| v.checked_mul(10)?.checked_add(u64::from(b - b'0')));
        i += 1;
    }
    (i, value)
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
}

/// Newlines in `bytes`, counted in runs of 255 bytes so that each run's
/// count fits the byte-wide sum the compiler vectorizes.
fn newlines(bytes: &[u8]) -> usize {
    let count = |run: &[u8]| run.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'));
    bytes.chunks(255).map(|run| usize::from(count(run))).sum()
}

/// Whether the skim over a body stops at `b`: a brace, or the start of
/// a comment or a string.
fn is_stop(b: u8) -> bool {
    (b == b'{') | (b == b'}') | (b == b';') | (b == b'"')
}

/// The first byte at or after `from` the skim stops at. Chunks without
/// one are passed over whole, tested by a byte-wide fold the compiler
/// vectorizes.
fn next_stop(bytes: &[u8], mut from: usize) -> Option<usize> {
    const CHUNK: usize = 32;
    while let Some(chunk) = bytes[from..].first_chunk::<CHUNK>() {
        if chunk.iter().fold(0u8, |stops, &b| stops | u8::from(is_stop(b))) != 0 {
            break;
        }
        from += CHUNK;
    }
    bytes[from..].iter().position(|&b| is_stop(b)).map(|k| from + k)
}

/// Where the parser's tokens come from: a [`Cursor`] over the source, or
/// — in tests — the token vector it replaced.
trait Tokens<'s> {
    /// Where a definition's body starts, to come back to.
    type Mark: Copy;

    /// The token `n` (0 or 1) ahead of the cursor and its 1-based line;
    /// `None` past the end of input.
    fn ahead(&mut self, n: usize) -> Result<Option<(Tok<'s>, usize)>, ParseError>;

    /// Consumes the token `ahead(0)` returned.
    fn bump(&mut self);

    /// `ahead(0)`, consumed.
    fn next(&mut self) -> Result<Option<(Tok<'s>, usize)>, ParseError>;

    /// Line of the token before the cursor; 0 before the first.
    fn cur_line(&self) -> usize;

    /// Steps over a definition's body, from after its `{` (just consumed)
    /// to after the `}` that matches it, and returns where the body
    /// starts.
    fn skip_body(&mut self) -> Result<Self::Mark, ParseError>;

    /// Puts the cursor back at `mark`.
    fn seek(&mut self, mark: Self::Mark);
}

/// The lexer: a cursor over the source that tokenizes only what the parser
/// reads, holding the two tokens of lookahead the grammar needs. Every
/// slice boundary is next to an ASCII byte, so slicing the source cannot
/// split a character.
struct Cursor<'s> {
    src: &'s str,
    /// Byte offset and line where the next token not in `ahead` starts
    /// (or the whitespace before it).
    at: usize,
    line: usize,
    /// Tokens lexed ahead of the cursor: the first `buffered` slots.
    ahead: [(Tok<'s>, usize); 2],
    buffered: usize,
    /// Line of the last token consumed.
    last: usize,
}

impl<'s> Cursor<'s> {
    fn new(src: &'s str) -> Self {
        Cursor { src, at: 0, line: 1, ahead: [(Tok::Comma, 0); 2], buffered: 0, last: 0 }
    }

    /// Lexes the token at the cursor and moves past it; `None` at the end
    /// of input. On an error the cursor stays where it was.
    #[inline(always)]
    fn lex(&mut self) -> Result<Option<(Tok<'s>, usize)>, ParseError> {
        let (src, bytes) = (self.src, self.src.as_bytes());
        let (mut i, mut line) = (self.at, self.line);
        loop {
            match bytes.get(i) {
                None => {
                    (self.at, self.line) = (i, line);
                    return Ok(None);
                }
                Some(b'\n') => line += 1,
                Some(b' ' | b'\t' | b'\r') => {}
                Some(b';') => {
                    i = run(bytes, i, |b| b != b'\n');
                    continue;
                }
                Some(_) => break,
            }
            i += 1;
        }
        let start = i;
        let tok = match bytes[i] {
            b'-' if bytes.get(i + 1) == Some(&b'>') => {
                i += 2;
                Tok::Arrow
            }
            b'-' => {
                let magnitude;
                (i, magnitude) = digits(bytes, i + 1);
                let value = magnitude.filter(|_| i > start + 1);
                match value.and_then(|m| 0i64.checked_sub_unsigned(m)) {
                    Some(v) => Tok::Int(v),
                    None => return Err(err(line, format!("bad integer `{}`", &src[start..i]))),
                }
            }
            b'"' => {
                let end = run(bytes, i + 1, |b| b != b'"');
                if end == bytes.len() {
                    return Err(err(line, "unterminated string"));
                }
                i = end + 1;
                Tok::Str(&src[start + 1..end])
            }
            b'%' => {
                let n;
                (i, n) = digits(bytes, i + 1);
                if i == start + 1 {
                    return Err(err(line, "expected number after `%`"));
                }
                match n.and_then(|n| u32::try_from(n).ok()) {
                    Some(n) => Tok::Local(n),
                    None => return Err(err(line, "bad local number")),
                }
            }
            b'@' => {
                i = run(bytes, i + 1, is_name_byte);
                if i == start + 1 {
                    return Err(err(line, "expected name after `@`"));
                }
                Tok::Sym(&src[start + 1..i])
            }
            b'0' if bytes.get(i + 1) == Some(&b'f') => {
                i = run(bytes, i + 2, |b| b.is_ascii_hexdigit());
                let bits = u64::from_str_radix(&src[start + 2..i], 16);
                Tok::FloatBits(bits.map_err(|_| err(line, "bad float bits"))?)
            }
            b'0'..=b'9' => {
                let value;
                (i, value) = digits(bytes, i);
                match value.and_then(|v| i64::try_from(v).ok()) {
                    Some(v) => Tok::Int(v),
                    None => return Err(err(line, format!("integer overflow `{}`", &src[start..i]))),
                }
            }
            b if b.is_ascii_alphabetic() || b == b'_' => {
                i = run(bytes, i, is_name_byte);
                Tok::Word(&src[start..i])
            }
            b => {
                i += 1;
                match b {
                    b'{' => Tok::LBrace,
                    b'}' => Tok::RBrace,
                    b'(' => Tok::LParen,
                    b')' => Tok::RParen,
                    b'[' => Tok::LBracket,
                    b']' => Tok::RBracket,
                    b',' => Tok::Comma,
                    b':' => Tok::Colon,
                    b'=' => Tok::Eq,
                    _ => return Err(err(line, format!("unexpected character `{}`", b as char))),
                }
            }
        };
        // A string is the one token that can span lines: it has the line
        // it starts on, and the cursor moves on by the lines it spans.
        let spanned = if let Tok::Str(s) = tok { newlines(s.as_bytes()) } else { 0 };
        (self.at, self.line) = (i, line + spanned);
        Ok(Some((tok, line)))
    }

    /// Line of the last token in the text from the cursor on — `last`
    /// when there is none: what an end of input inside a skimmed body
    /// reports.
    fn last_token_line(&self) -> usize {
        let bytes = self.src.as_bytes();
        let (mut i, mut line, mut last) = (self.at, self.line, self.last);
        while i < bytes.len() {
            match bytes[i] {
                b'\n' => line += 1,
                b' ' | b'\t' | b'\r' => {}
                b';' => {
                    i = run(bytes, i, |b| b != b'\n');
                    continue;
                }
                b'"' => {
                    last = line;
                    let end = run(bytes, i + 1, |b| b != b'"');
                    line += newlines(&bytes[i..end]);
                    i = end;
                }
                _ => last = line,
            }
            i += 1;
        }
        last
    }
}

impl<'s> Tokens<'s> for Cursor<'s> {
    /// The byte offset after the body's `{`, and its line.
    type Mark = (usize, usize);

    #[inline]
    fn ahead(&mut self, n: usize) -> Result<Option<(Tok<'s>, usize)>, ParseError> {
        while self.buffered <= n {
            let Some(tok) = self.lex()? else {
                return Ok(None);
            };
            self.ahead[self.buffered] = tok;
            self.buffered += 1;
        }
        Ok(Some(self.ahead[n]))
    }

    #[inline]
    fn bump(&mut self) {
        debug_assert!(self.buffered > 0, "bump without a token ahead");
        self.last = self.ahead[0].1;
        self.ahead[0] = self.ahead[1];
        self.buffered -= 1;
    }

    /// Lexes straight to the caller when no token is buffered.
    #[inline]
    fn next(&mut self) -> Result<Option<(Tok<'s>, usize)>, ParseError> {
        if self.buffered > 0 {
            let tok = self.ahead[0];
            self.bump();
            return Ok(Some(tok));
        }
        let tok = self.lex()?;
        if let Some((_, line)) = tok {
            self.last = line;
        }
        Ok(tok)
    }

    fn cur_line(&self) -> usize {
        self.last
    }

    /// Skims the body's bytes for braces without tokenizing them. Braces
    /// in a `;` comment or a string are stepped over as [`Cursor::lex`]
    /// steps over them, so on text that lexes the skim ends at the `}`
    /// the token walk would; nothing else in the body is looked at.
    fn skip_body(&mut self) -> Result<Self::Mark, ParseError> {
        debug_assert_eq!(self.buffered, 0, "a body starts after a consumed `{{`");
        let bytes = self.src.as_bytes();
        let mark = (self.at, self.line);
        let (mut i, mut depth) = (self.at, 1usize);
        while depth > 0 {
            let Some(stop) = next_stop(bytes, i) else {
                return Err(err(self.last_token_line(), "unexpected end of input"));
            };
            i = match bytes[stop] {
                b'{' => {
                    depth += 1;
                    stop + 1
                }
                b'}' => {
                    depth -= 1;
                    stop + 1
                }
                b';' => run(bytes, stop, |b| b != b'\n'),
                _ => {
                    let end = run(bytes, stop + 1, |b| b != b'"');
                    if end == bytes.len() {
                        let line = self.line + newlines(&bytes[self.at..stop]);
                        return Err(err(line, "unterminated string"));
                    }
                    end + 1
                }
            };
        }
        self.line += newlines(&bytes[self.at..i]);
        (self.at, self.last) = (i, self.line);
        Ok(mark)
    }

    fn seek(&mut self, (at, line): Self::Mark) {
        (self.at, self.line, self.last, self.buffered) = (at, line, line, 0);
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Deepest nesting of array, struct and function types the reader follows.
/// It bounds the recursion of [`Parser::ty`] on hostile input, and with it
/// every later recursion over the type it would have built.
const MAX_TYPE_DEPTH: usize = 128;

/// Operand placeholder resolved in phase B of body construction.
#[derive(Clone, Copy, Debug)]
enum RawOperand<'s> {
    Local(u32),
    Int(TypeId, i64),
    Float(TypeId, u64),
    Undef(TypeId),
    Sym(TypeId, &'s str),
}

/// One instruction as [`Parser::raw_inst`] read it, staged until its body
/// is built. Its operands and target labels are runs of
/// [`Stage::operands`] and [`Stage::targets`]: each starts where the
/// previous instruction's ends and ends where this one records.
#[derive(Clone, Copy, Debug)]
struct Staged {
    line: usize,
    op: Opcode,
    ty: TypeId,
    aux_ty: Option<TypeId>,
    pred: Option<Predicate>,
    result_name: Option<u32>,
    operands_end: usize,
    targets_end: usize,
}

/// The flat buffers one definition's body is staged in before it is
/// built. The parser owns them and clears them for each body, so a module
/// parse grows them a handful of times instead of allocating two vectors
/// per instruction.
#[derive(Default)]
struct Stage<'s> {
    /// Each block's label, the line of the label and the block's first
    /// instruction in `insts`.
    blocks: Vec<(&'s str, usize, usize)>,
    insts: Vec<Staged>,
    operands: Vec<RawOperand<'s>>,
    targets: Vec<&'s str>,
    /// Label → block of the body being built ([`label_blocks`]).
    labels: HashMap<&'s str, BlockId>,
    names: Names,
}

/// The values a body names, `%n` → value. A body of `a` arguments and `i`
/// instructions that numbers its values as the printer does — `%0`
/// upward, one per argument and result — names them in a dense table of
/// `a + i` slots; any other name (sparse numbering, or a hostile
/// `%4294967295`) goes to std's `HashMap`, so the table is never larger
/// than the body.
#[derive(Default)]
struct Names {
    dense: Vec<Option<ValueId>>,
    sparse: HashMap<u32, ValueId>,
}

impl Names {
    /// Empties the table for a body of `f` with `insts` instructions, the
    /// arguments named by position.
    fn reset(&mut self, f: &Function, insts: usize) {
        let len = f.num_args() + insts;
        self.dense.clear();
        self.dense.reserve_exact(len);
        self.dense.extend((0..f.num_args()).map(|i| Some(f.arg(i))));
        self.dense.resize(len, None);
        self.sparse.clear();
    }

    /// Names `v` `%n`; `false` if `%n` already named a value.
    fn define(&mut self, n: u32, v: ValueId) -> bool {
        match self.dense.get_mut(n as usize) {
            Some(slot) => slot.replace(v).is_none(),
            None => self.sparse.insert(n, v).is_none(),
        }
    }

    /// The value named `%n`, if any.
    fn get(&self, n: u32) -> Option<ValueId> {
        match self.dense.get(n as usize) {
            Some(slot) => *slot,
            None => self.sparse.get(&n).copied(),
        }
    }
}

/// What reads one definition's body, after its `{`, into its function
/// ([`Parser::body`]; tests pass the reference builder).
type BodyReader<'s, T> =
    fn(&mut Parser<'s, T>, &Module, &mut TypeStore, &mut Function) -> Result<(), ParseError>;

struct Parser<'s, T> {
    toks: T,
    /// Where [`Parser::body`] stages the definition it reads.
    stage: Stage<'s>,
}

impl<'s> Parser<'s, Cursor<'s>> {
    /// A parser at the start of `src`.
    fn new(src: &'s str) -> Self {
        Parser { toks: Cursor::new(src), stage: Stage::default() }
    }
}

impl<'s, T: Tokens<'s>> Parser<'s, T> {
    /// [`parse_module`]'s work.
    fn verified_module(mut self) -> Result<Module, ParseError> {
        let m = self.module(None, Parser::body)?;
        verify_module(&m).map_err(|errs| verification_failed(&errs))?;
        Ok(m)
    }

    /// [`parse_module_for`]'s work.
    fn module_for(mut self, name: &str) -> Result<(Module, Option<FuncId>), ParseError> {
        let m = self.module(Some(name), Parser::body)?;
        let id = m.lookup_function(name).filter(|&id| !m.function(id).is_declaration);
        if let Some(id) = id {
            verify_function(&m, id).map_err(|errs| verification_failed(&errs))?;
        }
        Ok((m, id))
    }

    /// A whole module, each body read by `body`; with `only`, the body of
    /// that definition alone.
    fn module(&mut self, only: Option<&str>, body: BodyReader<'s, T>) -> Result<Module, ParseError> {
        self.expect_word("module")?;
        let name = match self.next()? {
            (Tok::Str(s), _) => s,
            (_, line) => return Err(err(line, "expected module name")),
        };
        self.expect(Tok::LBrace)?;
        let mut m = Module::new(name);

        // First loop: every top-level item up to the module's `}` is parsed
        // and registered; a definition's body is stepped over by brace
        // matching ([`Tokens::skip_body`]) and where it starts is kept. A
        // token that starts no item (or a lexical error or the input ending
        // there) usually means a brace went astray in the body before it,
        // so that error waits for the second loop: the body names the line
        // where it went wrong.
        let mut bodies = Vec::new();
        let stray = loop {
            match self.next() {
                Ok((Tok::RBrace, _)) => break None,
                Ok((Tok::Word("global"), _)) => self.global(&mut m)?,
                Ok((Tok::Word("declare"), _)) => {
                    self.header(&mut m, false)?;
                }
                Ok((Tok::Word("define"), _)) => {
                    let fid = self.header(&mut m, true)?;
                    self.expect(Tok::LBrace)?;
                    let at = self.toks.skip_body()?;
                    if only.is_none_or(|name| name == m.function(fid).name) {
                        bodies.push((fid, at));
                    }
                }
                Ok((_, line)) => {
                    break Some(err(line, "expected `global`, `declare`, `define` or `}`"))
                }
                Err(end_of_input) => break Some(end_of_input),
            }
        };
        // Second loop: each body, now that every symbol it can name exists.
        // The types are lent out of the module for it, and each function is
        // swapped for an allocation-free stand-in while its body is built:
        // the module answers the symbol lookups meanwhile.
        let mut types = std::mem::take(&mut m.types);
        for (fid, at) in bodies {
            self.toks.seek(at);
            let stand_in = Function::new_declaration("", Vec::new(), TypeId::VOID);
            let mut f = std::mem::replace(m.function_mut(fid), stand_in);
            body(self, &m, &mut types, &mut f)?;
            *m.function_mut(fid) = f;
        }
        m.types = types;
        stray.map_or(Ok(m), Err)
    }

    /// `global @name : T = [byte, ...]`, after the keyword.
    fn global(&mut self, m: &mut Module) -> Result<(), ParseError> {
        let (name, line) = self.sym()?;
        if m.lookup_global(name).is_some() {
            return Err(err(line, format!("duplicate definition of @{name}")));
        }
        self.expect(Tok::Colon)?;
        let ty = self.ty(&mut m.types)?;
        self.expect(Tok::Eq)?;
        self.expect(Tok::LBracket)?;
        let init = self.list(Tok::RBracket, |p| match p.next()? {
            (Tok::Int(v), _) => u8::try_from(v).map_err(|_| err(line, "global byte out of range")),
            (_, line) => Err(err(line, "bad global init")),
        })?;
        m.add_global(Global { name: name.to_string(), ty, init });
        Ok(())
    }

    /// `declare @f(T, ...) -> T` or `define [internal] @f(T %n, ...) -> T`,
    /// after the keyword; registers the function.
    fn header(&mut self, m: &mut Module, define: bool) -> Result<FuncId, ParseError> {
        let internal = define && matches!(self.peek(), Ok((Tok::Word("internal"), _)));
        if internal {
            self.toks.bump();
        }
        let (name, line) = self.sym()?;
        if m.lookup_function(name).is_some() {
            return Err(err(line, format!("duplicate definition of @{name}")));
        }
        self.expect(Tok::LParen)?;
        let params = self.list(Tok::RParen, |p| {
            let ty = p.ty(&mut m.types)?;
            // Definitions name their parameters.
            if define && matches!(p.peek(), Ok((Tok::Local(_), _))) {
                p.toks.bump();
            }
            Ok(ty)
        })?;
        self.expect(Tok::Arrow)?;
        let ret = self.ty(&mut m.types)?;
        let mut f = Function::new(name, params, ret);
        f.is_declaration = !define;
        if internal {
            f.linkage = Linkage::Internal;
        }
        Ok(m.add_function(f))
    }

    /// The labelled blocks of one definition, from after its `{` to its
    /// `}`, staged and then built into `f`: types intern into `types`,
    /// symbols resolve among `syms`'s.
    fn body(
        &mut self,
        syms: &Module,
        types: &mut TypeStore,
        f: &mut Function,
    ) -> Result<(), ParseError> {
        self.stage.clear();
        loop {
            let (result_name, line) = match self.peek()? {
                (Tok::RBrace, _) => {
                    self.toks.bump();
                    break;
                }
                (Tok::Word(w), line) => {
                    // Either a label `bbN:` or an instruction mnemonic.
                    if self.peek_ahead(1)?.0 == Tok::Colon && Opcode::from_mnemonic(w).is_none() {
                        self.toks.bump();
                        self.toks.bump();
                        self.stage.blocks.push((w, line, self.stage.insts.len()));
                        continue;
                    }
                    (None, line)
                }
                (Tok::Local(n), _) => {
                    self.toks.bump();
                    self.expect(Tok::Eq)?;
                    (Some(n), self.cur_line())
                }
                (_, line) => return Err(err(line, "expected label or instruction")),
            };
            if self.stage.blocks.is_empty() {
                return Err(err(line, "instruction before first label"));
            }
            self.raw_inst(types, result_name)?;
        }
        self.stage.build(f, types, syms)
    }

    /// One instruction, from its mnemonic on, staged: its operands and
    /// target labels are appended to the stage's vectors.
    fn raw_inst(
        &mut self,
        types: &mut TypeStore,
        result_name: Option<u32>,
    ) -> Result<(), ParseError> {
        let (word, line) = match self.next()? {
            (Tok::Word(w), line) => (w, line),
            (_, line) => return Err(err(line, "expected instruction mnemonic")),
        };
        let op = Opcode::from_mnemonic(word)
            .ok_or_else(|| err(line, format!("unknown mnemonic `{word}`")))?;
        let (boolean, ptr) = (TypeId::BOOL, TypeId::PTR);
        let (mut ty, mut aux_ty, mut pred) = (TypeId::VOID, None, None);
        match op {
            Opcode::Ret => {
                // `ret` or `ret T opnd` — lookahead: next token a type word?
                if self.at_type() {
                    let t = self.ty(types)?;
                    self.stage_operand(t)?;
                }
            }
            Opcode::Br => self.stage_target()?,
            Opcode::CondBr => {
                self.stage_operand(boolean)?;
                self.expect(Tok::Comma)?;
                self.stage_target()?;
                self.expect(Tok::Comma)?;
                self.stage_target()?;
            }
            Opcode::Unreachable => {}
            Opcode::Invoke | Opcode::Call => {
                ty = self.ty(types)?;
                self.stage_operand(ptr)?; // callee
                self.expect(Tok::LParen)?;
                self.each(Tok::RParen, |p| {
                    let t = p.ty(types)?;
                    p.stage_operand(t)
                })?;
                if op == Opcode::Invoke {
                    self.expect_word("to")?;
                    self.stage_target()?;
                    self.expect_word("unwind")?;
                    self.stage_target()?;
                }
            }
            Opcode::FNeg => {
                ty = self.ty(types)?;
                self.stage_operand(ty)?;
            }
            o if o.is_binary() => {
                ty = self.ty(types)?;
                self.stage_operand(ty)?;
                self.expect(Tok::Comma)?;
                self.stage_operand(ty)?;
            }
            Opcode::Alloca => {
                aux_ty = Some(self.ty(types)?);
                ty = ptr;
            }
            Opcode::Load => {
                ty = self.ty(types)?;
                self.expect(Tok::Comma)?;
                self.stage_operand(ptr)?;
            }
            Opcode::Store => {
                let t = self.ty(types)?;
                self.stage_operand(t)?;
                self.expect(Tok::Comma)?;
                self.stage_operand(ptr)?;
            }
            Opcode::Gep => {
                aux_ty = Some(self.ty(types)?);
                ty = ptr;
                self.expect(Tok::Comma)?;
                self.stage_operand(ptr)?;
                self.expect(Tok::Comma)?;
                let idx_t = self.ty(types)?;
                self.stage_operand(idx_t)?;
            }
            o if o.is_cast() => {
                let from = self.ty(types)?;
                self.stage_operand(from)?;
                self.expect_word("to")?;
                ty = self.ty(types)?;
            }
            Opcode::ICmp | Opcode::FCmp => {
                pred = Some(self.predicate(op)?);
                let t = self.ty(types)?;
                ty = boolean;
                self.stage_operand(t)?;
                self.expect(Tok::Comma)?;
                self.stage_operand(t)?;
            }
            Opcode::Select => {
                self.stage_operand(boolean)?;
                self.expect(Tok::Comma)?;
                ty = self.ty(types)?;
                self.stage_operand(ty)?;
                self.expect(Tok::Comma)?;
                self.stage_operand(ty)?;
            }
            Opcode::Phi => {
                ty = self.ty(types)?;
                loop {
                    self.expect(Tok::LBracket)?;
                    self.stage_operand(ty)?;
                    self.expect(Tok::Comma)?;
                    self.stage_target()?;
                    self.expect(Tok::RBracket)?;
                    if self.peek()?.0 != Tok::Comma {
                        break;
                    }
                    self.toks.bump();
                }
            }
            o => return Err(err(line, format!("cannot parse opcode {o:?}"))),
        }
        inst_type(types, line, op, ty)?;
        let stage = &mut self.stage;
        stage.insts.push(Staged {
            line,
            op,
            ty,
            aux_ty,
            pred,
            result_name,
            operands_end: stage.operands.len(),
            targets_end: stage.targets.len(),
        });
        Ok(())
    }

    /// An operand of type `ty`, appended to the stage.
    fn stage_operand(&mut self, ty: TypeId) -> Result<(), ParseError> {
        let operand = self.operand(ty)?;
        self.stage.operands.push(operand);
        Ok(())
    }

    /// A target label, appended to the stage.
    fn stage_target(&mut self) -> Result<(), ParseError> {
        let label = self.label()?;
        self.stage.targets.push(label);
        Ok(())
    }

    /// The predicate word of an `icmp` (`op` = [`Opcode::ICmp`]) or `fcmp`.
    fn predicate(&mut self, op: Opcode) -> Result<Predicate, ParseError> {
        let (pw, pline) = match self.next()? {
            (Tok::Word(w), line) => (w, line),
            (_, line) => return Err(err(line, "expected predicate")),
        };
        Ok(if op == Opcode::ICmp {
            Predicate::Int(
                IntPredicate::from_mnemonic(pw)
                    .ok_or_else(|| err(pline, format!("bad int predicate `{pw}`")))?,
            )
        } else {
            Predicate::Float(
                FloatPredicate::from_mnemonic(pw)
                    .ok_or_else(|| err(pline, format!("bad float predicate `{pw}`")))?,
            )
        })
    }

    // ---- token helpers ----------------------------------------------------

    fn peek_ahead(&mut self, n: usize) -> Result<(Tok<'s>, usize), ParseError> {
        match self.toks.ahead(n)? {
            Some(tok) => Ok(tok),
            None => Err(err(self.cur_line(), "unexpected end of input")),
        }
    }

    fn peek(&mut self) -> Result<(Tok<'s>, usize), ParseError> {
        self.peek_ahead(0)
    }

    fn next(&mut self) -> Result<(Tok<'s>, usize), ParseError> {
        match self.toks.next()? {
            Some(tok) => Ok(tok),
            None => Err(err(self.cur_line(), "unexpected end of input")),
        }
    }

    /// Line of the token before the cursor.
    fn cur_line(&self) -> usize {
        self.toks.cur_line()
    }

    fn expect(&mut self, want: Tok<'s>) -> Result<(), ParseError> {
        match self.next()? {
            (got, _) if got == want => Ok(()),
            (got, line) => Err(err(line, format!("expected {want:?}, found {got:?}"))),
        }
    }

    fn expect_word(&mut self, w: &str) -> Result<(), ParseError> {
        match self.next()? {
            (Tok::Word(s), _) if s == w => Ok(()),
            (other, line) => Err(err(line, format!("expected `{w}`, found {other:?}"))),
        }
    }

    fn sym(&mut self) -> Result<(&'s str, usize), ParseError> {
        match self.next()? {
            (Tok::Sym(s), line) => Ok((s, line)),
            (other, line) => Err(err(line, format!("expected `@name`, found {other:?}"))),
        }
    }

    fn label(&mut self) -> Result<&'s str, ParseError> {
        match self.next()? {
            (Tok::Word(w), _) => Ok(w),
            (other, line) => Err(err(line, format!("expected label, found {other:?}"))),
        }
    }

    /// Items up to `close`, which is consumed, each read by `item`. Commas
    /// separate the items but, as the printer always writes them, are not
    /// insisted on.
    fn each(
        &mut self,
        close: Tok<'s>,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        loop {
            let tok = self.peek()?.0;
            if tok == close {
                self.toks.bump();
                return Ok(());
            }
            if tok == Tok::Comma {
                self.toks.bump();
            } else {
                item(self)?;
            }
        }
    }

    /// The items [`Parser::each`] reads, collected.
    fn list<I>(
        &mut self,
        close: Tok<'s>,
        mut item: impl FnMut(&mut Self) -> Result<I, ParseError>,
    ) -> Result<Vec<I>, ParseError> {
        let mut items = Vec::new();
        self.each(close, |p| {
            items.push(item(p)?);
            Ok(())
        })?;
        Ok(items)
    }

    fn at_type(&mut self) -> bool {
        match self.peek() {
            Ok((Tok::Word(w), _)) => {
                let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
                matches!(w, "void" | "ptr" | "f32" | "f64" | "fn")
                    || w.strip_prefix('i').is_some_and(digits)
            }
            Ok((Tok::LBracket | Tok::LBrace, _)) => true,
            _ => false,
        }
    }

    fn ty(&mut self, types: &mut TypeStore) -> Result<TypeId, ParseError> {
        self.ty_at(types, 0)
    }

    /// A type written inside `depth` enclosing types.
    fn ty_at(&mut self, types: &mut TypeStore, depth: usize) -> Result<TypeId, ParseError> {
        let (tok, line) = self.next()?;
        if depth > MAX_TYPE_DEPTH {
            return Err(err(line, format!("type nesting deeper than {MAX_TYPE_DEPTH}")));
        }
        if let Tok::Word(w) = tok {
            if let Some(scalar) = TypeId::scalar(w) {
                return Ok(scalar);
            }
        }
        let inner = depth + 1;
        match tok {
            Tok::Word("fn") => {
                self.expect(Tok::LParen)?;
                let params = self.list(Tok::RParen, |p| p.ty_at(types, inner))?;
                self.expect(Tok::Arrow)?;
                let ret = self.ty_at(types, inner)?;
                Ok(types.func(params, ret))
            }
            Tok::Word(w) if w.starts_with('i') => {
                let bits: u32 = w[1..].parse().map_err(|_| err(line, format!("bad type `{w}`")))?;
                if bits == 0 || bits > 128 {
                    return Err(err(line, format!("bad int width `{w}`")));
                }
                Ok(types.int(bits))
            }
            Tok::Word(w) => Err(err(line, format!("unknown type `{w}`"))),
            Tok::LBracket => {
                let len = match self.next()? {
                    (Tok::Int(v), _) if v >= 0 => v as u64,
                    (_, line) => return Err(err(line, "bad array length")),
                };
                self.expect_word("x")?;
                let elem = self.ty_at(types, inner)?;
                self.expect(Tok::RBracket)?;
                Ok(types.array(elem, len))
            }
            Tok::LBrace => {
                let fields = self.list(Tok::RBrace, |p| p.ty_at(types, inner))?;
                Ok(types.strukt(fields))
            }
            other => Err(err(line, format!("expected type, found {other:?}"))),
        }
    }

    fn operand(&mut self, ty: TypeId) -> Result<RawOperand<'s>, ParseError> {
        match self.next()? {
            (Tok::Local(n), _) => Ok(RawOperand::Local(n)),
            (Tok::Int(v), _) => Ok(RawOperand::Int(ty, v)),
            (Tok::FloatBits(b), _) => Ok(RawOperand::Float(ty, b)),
            (Tok::Word("undef"), _) => Ok(RawOperand::Undef(ty)),
            (Tok::Sym(s), _) => Ok(RawOperand::Sym(ty, s)),
            (other, line) => Err(err(line, format!("expected operand, found {other:?}"))),
        }
    }
}

/// Creates `f`'s blocks in label order and maps each label to its block in
/// `labels`: the label step every body builder takes first. A label used
/// twice is an error on the line of its second use.
fn label_blocks<'s>(
    f: &mut Function,
    labels: &mut HashMap<&'s str, BlockId>,
    blocks: impl IntoIterator<Item = (&'s str, usize)>,
) -> Result<(), ParseError> {
    labels.clear();
    for (label, line) in blocks {
        match labels.entry(label) {
            Entry::Occupied(_) => return Err(err(line, format!("duplicate label `{label}`"))),
            Entry::Vacant(slot) => {
                slot.insert(f.add_block());
            }
        }
    }
    Ok(())
}

/// Refuses an instruction `op` of type `ty` on `line` when `ty` is a
/// function type: such an instruction would have a result by
/// [`Function::result`]'s rule but no value to give. The type step every
/// instruction reader shares.
fn inst_type(types: &TypeStore, line: usize, op: Opcode, ty: TypeId) -> Result<(), ParseError> {
    if ty == TypeId::VOID || types.is_first_class(ty) {
        return Ok(());
    }
    Err(err(line, format!("{} of function type {}", op.mnemonic(), types.display(ty))))
}

/// The value a `@name` operand of type `ty` on `line` stands for: a
/// reference to the function or global `syms` names so, which is always of
/// type `ptr`. The symbol step every body builder shares.
fn sym_ref(
    f: &mut Function,
    types: &TypeStore,
    syms: &Module,
    line: usize,
    ty: TypeId,
    name: &str,
) -> Result<ValueId, ParseError> {
    let kind = if let Some(callee) = syms.lookup_function(name) {
        ValueKind::FuncRef(callee)
    } else if let Some(g) = syms.lookup_global(name) {
        ValueKind::GlobalRef(g)
    } else {
        return Err(err(line, format!("unknown symbol @{name}")));
    };
    if ty != TypeId::PTR {
        return Err(err(line, format!("symbol @{name} used as {}, not ptr", types.display(ty))));
    }
    Ok(f.push_const(Value { kind, ty }))
}

impl Stage<'_> {
    /// Forgets the body staged last.
    fn clear(&mut self) {
        self.blocks.clear();
        self.insts.clear();
        self.operands.clear();
        self.targets.clear();
    }

    /// Builds the staged body into `f` in two phases (see module docs):
    /// phase A appends every instruction, block by block in label order,
    /// and names its result; phase B resolves the operands, instruction by
    /// instruction, adding a value for each constant. The order fixes every
    /// id the body gets, so it is the order of the builder this one
    /// replaced, which the reference in `parser::reference` keeps. Symbols
    /// resolve among `syms`'s.
    fn build(
        &mut self,
        f: &mut Function,
        types: &TypeStore,
        syms: &Module,
    ) -> Result<(), ParseError> {
        let Stage { blocks, insts, operands, targets, labels, names } = self;
        // Every operand that is not a local is a constant of its own.
        let constants = operands.iter().filter(|o| !matches!(o, RawOperand::Local(_))).count();
        f.reserve(blocks.len(), insts.len(), constants, operands.len(), targets.len());
        let first_block = f.block_arena_len();
        label_blocks(f, labels, blocks.iter().map(|&(label, line, _)| (label, line)))?;
        names.reset(f, insts.len());

        // Phase A: append instructions with their targets but no operands
        // yet, recording result names.
        let first_inst = f.num_insts();
        let mut target = 0;
        for (b, &(_, _, start)) in blocks.iter().enumerate() {
            let end = blocks.get(b + 1).map_or(insts.len(), |next| next.2);
            let bb = BlockId::from_index(first_block + b);
            f.block_mut(bb).insts.reserve_exact(end - start);
            for s in &insts[start..end] {
                let inst =
                    Instruction { pred: s.pred, aux_ty: s.aux_ty, ..Instruction::new(s.op, s.ty, &[], &[]) };
                let (id, result) = f.append_inst(bb, inst);
                for label in &targets[target..s.targets_end] {
                    let to = labels.get(label).copied();
                    f.push_block(id, to.ok_or_else(|| err(s.line, format!("unknown label `{label}`")))?);
                }
                target = s.targets_end;
                match (result, s.result_name) {
                    (Some(v), Some(n)) => {
                        if !names.define(n, v) {
                            return Err(err(s.line, format!("%{n} defined twice")));
                        }
                    }
                    // A value-producing instruction without a result name is
                    // tolerated: the result is simply unused.
                    (_, None) => {}
                    (None, Some(n)) => {
                        return Err(err(s.line, format!("%{n} = <void instruction>")));
                    }
                }
            }
        }
        // Phase B: resolve operands, in the order phase A appended their
        // instructions, each straight into the operand pool.
        let mut operand = 0;
        for (i, s) in insts.iter().enumerate() {
            let id = InstId::from_index(first_inst + i);
            for &o in &operands[operand..s.operands_end] {
                let v = match o {
                    RawOperand::Local(n) => names
                        .get(n)
                        .ok_or_else(|| err(s.line, format!("use of undefined value %{n}")))?,
                    RawOperand::Int(ty, v) => f.const_int(types, ty, v),
                    RawOperand::Float(ty, bits) => f.const_float(ty, f64::from_bits(bits)),
                    RawOperand::Undef(ty) => f.undef(ty),
                    RawOperand::Sym(ty, name) => sym_ref(f, types, syms, s.line, ty, name)?,
                };
                f.push_operand(id, v);
            }
            operand = s.operands_end;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::printer::print_module;

    #[test]
    fn parses_simple_function() {
        let m = parse_module(
            r#"
module "t" {
define @max(i32 %0, i32 %1) -> i32 {
bb0:
  %2 = icmp sgt i32 %0, %1
  %3 = select %2, i32 %0, %1
  ret i32 %3
}
}
"#,
        )
        .unwrap();
        let f = m.function(m.lookup_function("max").unwrap());
        assert_eq!(f.num_linked_insts(), 3);
        assert_eq!(f.num_blocks(), 1);
    }

    #[test]
    fn parses_control_flow_and_phi() {
        let m = parse_module(
            r#"
module "t" {
define @abs(i32 %0) -> i32 {
bb0:
  %1 = icmp slt i32 %0, 0
  condbr %1, bb1, bb2
bb1:
  %2 = sub i32 0, %0
  br bb2
bb2:
  %3 = phi i32 [ %2, bb1 ], [ %0, bb0 ]
  ret i32 %3
}
}
"#,
        )
        .unwrap();
        let f = m.function(m.lookup_function("abs").unwrap());
        assert_eq!(f.num_blocks(), 3);
    }

    #[test]
    fn parses_loops_with_back_edge_phi() {
        let m = parse_module(
            r#"
module "t" {
define @sum(i32 %0) -> i32 {
bb0:
  br bb1
bb1:
  %1 = phi i32 [ 0, bb0 ], [ %3, bb2 ]
  %2 = phi i32 [ 0, bb0 ], [ %4, bb2 ]
  %5 = icmp slt i32 %2, %0
  condbr %5, bb2, bb3
bb2:
  %3 = add i32 %1, %2
  %4 = add i32 %2, 1
  br bb1
bb3:
  ret i32 %1
}
}
"#,
        )
        .unwrap();
        let f = m.function(m.lookup_function("sum").unwrap());
        assert_eq!(f.num_blocks(), 4);
    }

    #[test]
    fn parses_calls_and_declarations() {
        let m = parse_module(
            r#"
module "t" {
declare @sink(i64) -> void
define @go(i64 %0) -> i64 {
bb0:
  call void @sink(i64 %0)
  %1 = call i64 @go(i64 %0)
  ret i64 %1
}
}
"#,
        )
        .unwrap();
        assert_eq!(m.num_functions(), 2);
    }

    #[test]
    fn parses_memory_and_geps() {
        let m = parse_module(
            r#"
module "t" {
define @mem(i64 %0) -> i32 {
bb0:
  %1 = alloca [8 x i32]
  %2 = gep i32, %1, i64 %0
  store i32 7, %2
  %3 = load i32, %2
  ret i32 %3
}
}
"#,
        )
        .unwrap();
        let f = m.function(m.lookup_function("mem").unwrap());
        assert_eq!(f.num_linked_insts(), 5);
    }

    #[test]
    fn round_trips_through_printer() {
        let src = r#"
module "t" {
global @g : i64 = [1, 2, 3, 4, 5, 6, 7, 8]
declare @ext(f64) -> f64
define @poly(f64 %0) -> f64 {
bb0:
  %1 = fmul f64 %0, %0
  %2 = fadd f64 %1, 0f3FF0000000000000
  %3 = call f64 @ext(f64 %2)
  %4 = fcmp olt f64 %3, %0
  condbr %4, bb1, bb2
bb1:
  ret f64 %3
bb2:
  %5 = fneg f64 %3
  ret f64 %5
}
}
"#;
        let m1 = parse_module(src).unwrap();
        let p1 = print_module(&m1);
        let m2 = parse_module(&p1).unwrap();
        let p2 = print_module(&m2);
        assert_eq!(p1, p2, "printer must be a fixpoint under reparsing");
    }

    #[test]
    fn rejects_unknown_symbol() {
        let err = parse_module(
            r#"
module "t" {
define @f() -> void {
bb0:
  call void @missing()
  ret
}
}
"#,
        )
        .unwrap_err();
        assert!(err.msg.contains("unknown symbol"), "{err}");
    }

    #[test]
    fn rejects_double_definition_of_local() {
        let err = parse_module(
            r#"
module "t" {
define @f(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %1 = add i32 %0, 2
  ret i32 %1
}
}
"#,
        )
        .unwrap_err();
        assert!(err.msg.contains("defined twice"), "{err}");
    }

    #[test]
    fn rejects_syntax_error_with_line() {
        let err = parse_module("module \"t\" {\n???\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn verifier_runs_on_parse() {
        // Uses a value that does not dominate its use.
        let err = parse_module(
            r#"
module "t" {
define @f(i32 %0) -> i32 {
bb0:
  condbr 1, bb1, bb2
bb1:
  %1 = add i32 %0, 1
  br bb3
bb2:
  br bb3
bb3:
  ret i32 %1
}
}
"#,
        )
        .unwrap_err();
        assert!(err.msg.contains("verification failed"), "{err}");
    }

    #[test]
    fn parse_module_for_reads_one_body() {
        let src = r#"
module "t" {
declare @ext(i32) -> i32
define @other(i32 %0) -> i32 {
bb0:
  bogus i32 %0
}
define @f(i32 %0) -> i32 {
bb0:
  %1 = call i32 @ext(i32 %0)
  %2 = call i32 @other(i32 %1)
  ret i32 %2
}
}
"#;
        assert!(parse_module(src).is_err(), "a module parse reads @other's body");
        let (m, id) = parse_module_for(src, "f").unwrap();
        let f = m.function(id.unwrap());
        assert_eq!((f.num_blocks(), f.num_linked_insts()), (1, 3));
        let other = m.function(m.lookup_function("other").unwrap());
        assert_eq!(other.num_blocks(), 0, "stepped over, never read");
        assert_eq!(parse_module_for(src, "ext").unwrap().1, None, "declared, not defined");
        assert_eq!(parse_module_for(src, "nowhere").unwrap().1, None);
        let err = parse_module_for(src, "other").unwrap_err();
        assert_eq!((err.line, err.msg.as_str()), (6, "unknown mnemonic `bogus`"));
    }

    #[test]
    fn parses_invoke() {
        let m = parse_module(
            r#"
module "t" {
declare @may_throw(i32) -> i32
define @f(i32 %0) -> i32 {
bb0:
  %1 = invoke i32 @may_throw(i32 %0) to bb1 unwind bb2
bb1:
  ret i32 %1
bb2:
  ret i32 0
}
}
"#,
        )
        .unwrap();
        let f = m.function(m.lookup_function("f").unwrap());
        let term = f.terminator(f.entry()).unwrap().1;
        assert_eq!(term.op, Opcode::Invoke);
        assert_eq!(term.successors().len(), 2);
    }
}
