//! Textual IR parser.
//!
//! Parses the syntax produced by [`crate::printer`]. The parser is a
//! hand-written recursive-descent parser over a small token stream; function
//! bodies are built in two phases so that phi-nodes can reference values
//! defined later in the body (back edges).
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

use std::collections::HashMap;
use std::fmt;

use crate::ids::{BlockId, ValueId};
use crate::inst::{FloatPredicate, Instruction, IntPredicate, Opcode, Predicate};
use crate::function::{Function, Linkage};
use crate::module::{Global, Module};
use crate::printer::print_module;
use crate::types::TypeId;
use crate::verify::verify_module;

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

/// Parses a module and verifies it.
///
/// # Errors
///
/// Returns a [`ParseError`] for syntax errors; verifier failures are
/// reported as a parse error on line 0 listing the problems.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let m = parse_module_unverified(src)?;
    verify_module(&m).map_err(|errs| ParseError {
        line: 0,
        msg: format!(
            "verification failed: {}",
            errs.iter().map(|e| e.to_string()).collect::<Vec<_>>().join("; ")
        ),
    })?;
    Ok(m)
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
    Parser::new(src).module()
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    /// Bare word: mnemonics, type names, labels, `module`, `define`...
    Word(String),
    /// `%N` local value reference.
    Local(u32),
    /// `@name` symbol reference.
    Sym(String),
    /// Integer literal (possibly negative).
    Int(i64),
    /// `0fXXXXXXXXXXXXXXXX` float bit pattern.
    FloatBits(u64),
    /// Quoted string.
    Str(String),
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

#[derive(Clone, Debug)]
struct SpannedTok {
    tok: Tok,
    line: usize,
}

fn lex(src: &str) -> Result<Vec<SpannedTok>, ParseError> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let bytes = src.as_bytes();
    let mut i = 0;
    let err = |line: usize, msg: String| ParseError { line, msg };
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            ';' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '{' => {
                toks.push(SpannedTok { tok: Tok::LBrace, line });
                i += 1;
            }
            '}' => {
                toks.push(SpannedTok { tok: Tok::RBrace, line });
                i += 1;
            }
            '(' => {
                toks.push(SpannedTok { tok: Tok::LParen, line });
                i += 1;
            }
            ')' => {
                toks.push(SpannedTok { tok: Tok::RParen, line });
                i += 1;
            }
            '[' => {
                toks.push(SpannedTok { tok: Tok::LBracket, line });
                i += 1;
            }
            ']' => {
                toks.push(SpannedTok { tok: Tok::RBracket, line });
                i += 1;
            }
            ',' => {
                toks.push(SpannedTok { tok: Tok::Comma, line });
                i += 1;
            }
            ':' => {
                toks.push(SpannedTok { tok: Tok::Colon, line });
                i += 1;
            }
            '=' => {
                toks.push(SpannedTok { tok: Tok::Eq, line });
                i += 1;
            }
            '-' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    toks.push(SpannedTok { tok: Tok::Arrow, line });
                    i += 2;
                } else {
                    // negative integer
                    let start = i;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text = &src[start..i];
                    let v: i64 = text
                        .parse()
                        .map_err(|_| err(line, format!("bad integer `{text}`")))?;
                    toks.push(SpannedTok { tok: Tok::Int(v), line });
                }
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(err(line, "unterminated string".into()));
                }
                toks.push(SpannedTok { tok: Tok::Str(src[start..j].to_string()), line });
                i = j + 1;
            }
            '%' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                if j == start {
                    return Err(err(line, "expected number after `%`".into()));
                }
                let v: u32 = src[start..j]
                    .parse()
                    .map_err(|_| err(line, "bad local number".into()))?;
                toks.push(SpannedTok { tok: Tok::Local(v), line });
                i = j;
            }
            '@' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len()
                    && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_' || bytes[j] == b'.')
                {
                    j += 1;
                }
                if j == start {
                    return Err(err(line, "expected name after `@`".into()));
                }
                toks.push(SpannedTok { tok: Tok::Sym(src[start..j].to_string()), line });
                i = j;
            }
            '0' if i + 1 < bytes.len() && bytes[i + 1] == b'f' => {
                let start = i + 2;
                let mut j = start;
                while j < bytes.len() && bytes[j].is_ascii_hexdigit() {
                    j += 1;
                }
                let v = u64::from_str_radix(&src[start..j], 16)
                    .map_err(|_| err(line, "bad float bits".into()))?;
                toks.push(SpannedTok { tok: Tok::FloatBits(v), line });
                i = j;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let v: i64 = text
                    .parse()
                    .map_err(|_| err(line, format!("integer overflow `{text}`")))?;
                toks.push(SpannedTok { tok: Tok::Int(v), line });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'.')
                {
                    i += 1;
                }
                toks.push(SpannedTok { tok: Tok::Word(src[start..i].to_string()), line });
            }
            other => return Err(err(line, format!("unexpected character `{other}`"))),
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Operand placeholder resolved in phase B of body construction.
#[derive(Clone, Debug)]
enum RawOperand {
    Local(u32),
    Int(TypeId, i64),
    Float(TypeId, u64),
    Undef(TypeId),
    Sym(TypeId, String),
}

#[derive(Clone, Debug)]
struct RawInst {
    line: usize,
    op: Opcode,
    ty: TypeId,
    aux_ty: Option<TypeId>,
    pred: Option<Predicate>,
    operands: Vec<RawOperand>,
    blocks: Vec<String>,
    result_name: Option<u32>,
}

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Parser {
        match lex(src) {
            Ok(toks) => Parser { toks, pos: 0 },
            Err(e) => Parser {
                toks: vec![SpannedTok { tok: Tok::Str(e.msg.clone()), line: e.line }],
                pos: usize::MAX, // poisoned; module() surfaces the error
            },
        }
    }

    fn module(&mut self) -> Result<Module, ParseError> {
        if self.pos == usize::MAX {
            // Lexing failed; reproduce the error.
            let line = self.toks[0].line;
            if let Tok::Str(msg) = &self.toks[0].tok {
                return Err(ParseError { line, msg: msg.clone() });
            }
            unreachable!()
        }
        self.expect_word("module")?;
        let name = match self.next()? {
            (Tok::Str(s), _) => s,
            (_, line) => return Err(ParseError { line, msg: "expected module name".into() }),
        };
        self.expect(Tok::LBrace)?;
        let mut m = Module::new(name);

        // First pass over declarations so call operands can resolve symbols
        // lazily: we simply parse in order, but create constant FuncRef
        // operands by name at body-build time, when the whole symbol table
        // exists. To allow forward references, we scan the token stream for
        // all `define`/`declare` headers up front.
        self.predeclare(&mut m)?;

        loop {
            match self.peek()? {
                (Tok::RBrace, _) => {
                    self.next()?;
                    break;
                }
                (Tok::Word(w), _) if w == "global" => self.global(&mut m)?,
                (Tok::Word(w), _) if w == "declare" => self.declare_skip(&mut m)?,
                (Tok::Word(w), _) if w == "define" => self.define(&mut m)?,
                (_, line) => {
                    return Err(ParseError {
                        line,
                        msg: "expected `global`, `declare`, `define` or `}`".into(),
                    })
                }
            }
        }
        Ok(m)
    }

    /// Pre-scan: register every function (and global) symbol with its
    /// signature so that references resolve regardless of order.
    fn predeclare(&mut self, m: &mut Module) -> Result<(), ParseError> {
        let saved = self.pos;
        loop {
            match self.peek() {
                Err(_) => break,
                Ok((Tok::RBrace, _)) => break,
                Ok((Tok::Word(w), _)) if w == "global" => {
                    self.next()?;
                    let (name, line) = self.sym()?;
                    self.expect(Tok::Colon)?;
                    let ty = self.ty(m)?;
                    self.expect(Tok::Eq)?;
                    self.expect(Tok::LBracket)?;
                    let mut init = Vec::new();
                    loop {
                        match self.next()? {
                            (Tok::RBracket, _) => break,
                            (Tok::Int(v), _) => {
                                init.push(u8::try_from(v).map_err(|_| ParseError {
                                    line,
                                    msg: "global byte out of range".into(),
                                })?)
                            }
                            (Tok::Comma, _) => {}
                            (_, line) => {
                                return Err(ParseError { line, msg: "bad global init".into() })
                            }
                        }
                    }
                    m.add_global(Global { name, ty, init });
                }
                Ok((Tok::Word(w), _)) if w == "declare" || w == "define" => {
                    let is_decl = w == "declare";
                    self.next()?;
                    if !is_decl {
                        if let (Tok::Word(w2), _) = self.peek()? {
                            if w2 == "internal" {
                                self.next()?;
                            }
                        }
                    }
                    let (name, _) = self.sym()?;
                    self.expect(Tok::LParen)?;
                    let mut params = Vec::new();
                    loop {
                        match self.peek()? {
                            (Tok::RParen, _) => {
                                self.next()?;
                                break;
                            }
                            (Tok::Comma, _) => {
                                self.next()?;
                            }
                            _ => {
                                params.push(self.ty(m)?);
                                // Parameter name in definitions.
                                if let (Tok::Local(_), _) = self.peek()? {
                                    self.next()?;
                                }
                            }
                        }
                    }
                    self.expect(Tok::Arrow)?;
                    let ret = self.ty(m)?;
                    let f = if is_decl {
                        Function::new_declaration(name, params, ret)
                    } else {
                        Function::new(name, params, ret)
                    };
                    m.add_function(f);
                    // Skip over the body if present.
                    if let Ok((Tok::LBrace, _)) = self.peek() {
                        let mut depth = 0usize;
                        loop {
                            match self.next()? {
                                (Tok::LBrace, _) => depth += 1,
                                (Tok::RBrace, _) => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                        }
                    }
                }
                Ok(_) => {
                    self.next()?;
                }
            }
        }
        self.pos = saved;
        Ok(())
    }

    /// Skips a `global` line in the main pass (already handled in predeclare).
    fn global(&mut self, m: &mut Module) -> Result<(), ParseError> {
        self.next()?; // global
        self.sym()?;
        self.expect(Tok::Colon)?;
        self.ty(m)?;
        self.expect(Tok::Eq)?;
        self.expect(Tok::LBracket)?;
        loop {
            if let (Tok::RBracket, _) = self.next()? {
                break;
            }
        }
        Ok(())
    }

    /// Skips a `declare` line in the main pass.
    fn declare_skip(&mut self, m: &mut Module) -> Result<(), ParseError> {
        self.next()?; // declare
        self.sym()?;
        self.expect(Tok::LParen)?;
        loop {
            match self.peek()? {
                (Tok::RParen, _) => {
                    self.next()?;
                    break;
                }
                (Tok::Comma, _) => {
                    self.next()?;
                }
                _ => {
                    self.ty(m)?;
                }
            }
        }
        self.expect(Tok::Arrow)?;
        self.ty(m)?;
        Ok(())
    }

    fn define(&mut self, m: &mut Module) -> Result<(), ParseError> {
        self.next()?; // define
        let mut linkage = Linkage::External;
        if let (Tok::Word(w), _) = self.peek()? {
            if w == "internal" {
                linkage = Linkage::Internal;
                self.next()?;
            }
        }
        let (name, line) = self.sym()?;
        // Header already registered during predeclare; skip to `{`.
        self.expect(Tok::LParen)?;
        loop {
            if let (Tok::RParen, _) = self.next()? { break }
        }
        self.expect(Tok::Arrow)?;
        self.ty(m)?;
        self.expect(Tok::LBrace)?;

        let fid = m.lookup_function(&name).ok_or_else(|| ParseError {
            line,
            msg: format!("function @{name} not predeclared"),
        })?;
        m.function_mut(fid).linkage = linkage;

        // Parse body: labels + raw instructions.
        let mut labels: Vec<String> = Vec::new();
        let mut body: Vec<(usize, Vec<RawInst>)> = Vec::new(); // (label idx, insts)
        loop {
            match self.peek()? {
                (Tok::RBrace, _) => {
                    self.next()?;
                    break;
                }
                (Tok::Word(w), line) => {
                    // Either a label `bbN:` or an instruction mnemonic.
                    if let (Tok::Colon, _) = self.peek_ahead(1)? {
                        if Opcode::from_mnemonic(&w).is_none() {
                            self.next()?;
                            self.next()?;
                            labels.push(w.clone());
                            body.push((labels.len() - 1, Vec::new()));
                            continue;
                        }
                    }
                    if body.is_empty() {
                        return Err(ParseError {
                            line,
                            msg: "instruction before first label".into(),
                        });
                    }
                    let inst = self.raw_inst(m, None)?;
                    body.last_mut().unwrap().1.push(inst);
                }
                (Tok::Local(n), _) => {
                    self.next()?;
                    self.expect(Tok::Eq)?;
                    if body.is_empty() {
                        return Err(ParseError {
                            line: self.cur_line(),
                            msg: "instruction before first label".into(),
                        });
                    }
                    let inst = self.raw_inst(m, Some(n))?;
                    body.last_mut().unwrap().1.push(inst);
                }
                (_, line) => {
                    return Err(ParseError { line, msg: "expected label or instruction".into() })
                }
            }
        }

        build_body(m, fid, &labels, &body)?;
        Ok(())
    }

    fn raw_inst(&mut self, m: &mut Module, result_name: Option<u32>) -> Result<RawInst, ParseError> {
        let (tok, line) = self.next()?;
        let word = match tok {
            Tok::Word(w) => w,
            _ => return Err(ParseError { line, msg: "expected instruction mnemonic".into() }),
        };
        let op = Opcode::from_mnemonic(&word)
            .ok_or_else(|| ParseError { line, msg: format!("unknown mnemonic `{word}`") })?;
        let void = m.types.void();
        let boolean = m.types.bool();
        let ptr = m.types.ptr();
        let mut inst = RawInst {
            line,
            op,
            ty: void,
            aux_ty: None,
            pred: None,
            operands: Vec::new(),
            blocks: Vec::new(),
            result_name,
        };
        match op {
            Opcode::Ret => {
                // `ret` or `ret T opnd` — lookahead: next token a type word?
                if self.at_type() {
                    let t = self.ty(m)?;
                    let o = self.operand(t)?;
                    inst.operands.push(o);
                }
            }
            Opcode::Br => inst.blocks.push(self.label()?),
            Opcode::CondBr => {
                inst.operands.push(self.operand(boolean)?);
                self.expect(Tok::Comma)?;
                inst.blocks.push(self.label()?);
                self.expect(Tok::Comma)?;
                inst.blocks.push(self.label()?);
            }
            Opcode::Unreachable => {}
            Opcode::Invoke | Opcode::Call => {
                let ret = self.ty(m)?;
                inst.ty = ret;
                inst.operands.push(self.operand(ptr)?); // callee
                self.expect(Tok::LParen)?;
                loop {
                    match self.peek()? {
                        (Tok::RParen, _) => {
                            self.next()?;
                            break;
                        }
                        (Tok::Comma, _) => {
                            self.next()?;
                        }
                        _ => {
                            let t = self.ty(m)?;
                            let o = self.operand(t)?;
                            inst.operands.push(o);
                        }
                    }
                }
                if op == Opcode::Invoke {
                    self.expect_word("to")?;
                    inst.blocks.push(self.label()?);
                    self.expect_word("unwind")?;
                    inst.blocks.push(self.label()?);
                }
            }
            Opcode::FNeg => {
                let t = self.ty(m)?;
                inst.ty = t;
                inst.operands.push(self.operand(t)?);
            }
            o if o.is_binary() => {
                let t = self.ty(m)?;
                inst.ty = t;
                inst.operands.push(self.operand(t)?);
                self.expect(Tok::Comma)?;
                inst.operands.push(self.operand(t)?);
            }
            Opcode::Alloca => {
                let t = self.ty(m)?;
                inst.aux_ty = Some(t);
                inst.ty = ptr;
            }
            Opcode::Load => {
                let t = self.ty(m)?;
                inst.ty = t;
                self.expect(Tok::Comma)?;
                inst.operands.push(self.operand(ptr)?);
            }
            Opcode::Store => {
                let t = self.ty(m)?;
                inst.operands.push(self.operand(t)?);
                self.expect(Tok::Comma)?;
                inst.operands.push(self.operand(ptr)?);
            }
            Opcode::Gep => {
                let elem = self.ty(m)?;
                inst.aux_ty = Some(elem);
                inst.ty = ptr;
                self.expect(Tok::Comma)?;
                inst.operands.push(self.operand(ptr)?);
                self.expect(Tok::Comma)?;
                let idx_t = self.ty(m)?;
                inst.operands.push(self.operand(idx_t)?);
            }
            o if o.is_cast() => {
                let from = self.ty(m)?;
                inst.operands.push(self.operand(from)?);
                self.expect_word("to")?;
                inst.ty = self.ty(m)?;
            }
            Opcode::ICmp | Opcode::FCmp => {
                let (ptok, pline) = self.next()?;
                let pw = match ptok {
                    Tok::Word(w) => w,
                    _ => return Err(ParseError { line: pline, msg: "expected predicate".into() }),
                };
                inst.pred = Some(if op == Opcode::ICmp {
                    Predicate::Int(IntPredicate::from_mnemonic(&pw).ok_or_else(|| ParseError {
                        line: pline,
                        msg: format!("bad int predicate `{pw}`"),
                    })?)
                } else {
                    Predicate::Float(FloatPredicate::from_mnemonic(&pw).ok_or_else(|| {
                        ParseError { line: pline, msg: format!("bad float predicate `{pw}`") }
                    })?)
                });
                let t = self.ty(m)?;
                inst.ty = boolean;
                inst.operands.push(self.operand(t)?);
                self.expect(Tok::Comma)?;
                inst.operands.push(self.operand(t)?);
            }
            Opcode::Select => {
                inst.operands.push(self.operand(boolean)?);
                self.expect(Tok::Comma)?;
                let t = self.ty(m)?;
                inst.ty = t;
                inst.operands.push(self.operand(t)?);
                self.expect(Tok::Comma)?;
                inst.operands.push(self.operand(t)?);
            }
            Opcode::Phi => {
                let t = self.ty(m)?;
                inst.ty = t;
                loop {
                    self.expect(Tok::LBracket)?;
                    inst.operands.push(self.operand(t)?);
                    self.expect(Tok::Comma)?;
                    inst.blocks.push(self.label()?);
                    self.expect(Tok::RBracket)?;
                    if let (Tok::Comma, _) = self.peek()? {
                        self.next()?;
                    } else {
                        break;
                    }
                }
            }
            o => {
                return Err(ParseError { line, msg: format!("cannot parse opcode {o:?}") });
            }
        }
        Ok(inst)
    }

    // ---- token helpers ----------------------------------------------------

    fn next(&mut self) -> Result<(Tok, usize), ParseError> {
        let t = self.toks.get(self.pos).cloned().ok_or(ParseError {
            line: self.cur_line(),
            msg: "unexpected end of input".into(),
        })?;
        self.pos += 1;
        Ok((t.tok, t.line))
    }

    fn peek(&self) -> Result<(Tok, usize), ParseError> {
        self.toks
            .get(self.pos)
            .cloned()
            .map(|t| (t.tok, t.line))
            .ok_or(ParseError { line: self.cur_line(), msg: "unexpected end of input".into() })
    }

    fn peek_ahead(&self, n: usize) -> Result<(Tok, usize), ParseError> {
        self.toks
            .get(self.pos + n)
            .cloned()
            .map(|t| (t.tok, t.line))
            .ok_or(ParseError { line: self.cur_line(), msg: "unexpected end of input".into() })
    }

    fn cur_line(&self) -> usize {
        self.toks.get(self.pos.saturating_sub(1)).map(|t| t.line).unwrap_or(0)
    }

    fn expect(&mut self, want: Tok) -> Result<(), ParseError> {
        let (got, line) = self.next()?;
        if got == want {
            Ok(())
        } else {
            Err(ParseError { line, msg: format!("expected {want:?}, found {got:?}") })
        }
    }

    fn expect_word(&mut self, w: &str) -> Result<(), ParseError> {
        let (got, line) = self.next()?;
        match got {
            Tok::Word(s) if s == w => Ok(()),
            other => Err(ParseError { line, msg: format!("expected `{w}`, found {other:?}") }),
        }
    }

    fn sym(&mut self) -> Result<(String, usize), ParseError> {
        let (got, line) = self.next()?;
        match got {
            Tok::Sym(s) => Ok((s, line)),
            other => Err(ParseError { line, msg: format!("expected `@name`, found {other:?}") }),
        }
    }

    fn label(&mut self) -> Result<String, ParseError> {
        let (got, line) = self.next()?;
        match got {
            Tok::Word(w) => Ok(w),
            other => Err(ParseError { line, msg: format!("expected label, found {other:?}") }),
        }
    }

    fn at_type(&self) -> bool {
        match self.peek() {
            Ok((Tok::Word(w), _)) => {
                w == "void"
                    || w == "ptr"
                    || w == "f32"
                    || w == "f64"
                    || w == "fn"
                    || (w.starts_with('i') && w[1..].chars().all(|c| c.is_ascii_digit()) && w.len() > 1)
            }
            Ok((Tok::LBracket, _)) | Ok((Tok::LBrace, _)) => true,
            _ => false,
        }
    }

    fn ty(&mut self, m: &mut Module) -> Result<TypeId, ParseError> {
        let (tok, line) = self.next()?;
        match tok {
            Tok::Word(w) => match w.as_str() {
                "void" => Ok(m.types.void()),
                "ptr" => Ok(m.types.ptr()),
                "f32" => Ok(m.types.f32()),
                "f64" => Ok(m.types.f64()),
                "fn" => {
                    self.expect(Tok::LParen)?;
                    let mut params = Vec::new();
                    loop {
                        match self.peek()? {
                            (Tok::RParen, _) => {
                                self.next()?;
                                break;
                            }
                            (Tok::Comma, _) => {
                                self.next()?;
                            }
                            _ => params.push(self.ty(m)?),
                        }
                    }
                    self.expect(Tok::Arrow)?;
                    let ret = self.ty(m)?;
                    Ok(m.types.func(params, ret))
                }
                _ if w.starts_with('i') => {
                    let bits: u32 = w[1..]
                        .parse()
                        .map_err(|_| ParseError { line, msg: format!("bad type `{w}`") })?;
                    if bits == 0 || bits > 128 {
                        return Err(ParseError { line, msg: format!("bad int width `{w}`") });
                    }
                    Ok(m.types.int(bits))
                }
                _ => Err(ParseError { line, msg: format!("unknown type `{w}`") }),
            },
            Tok::LBracket => {
                let (n, nline) = self.next()?;
                let len = match n {
                    Tok::Int(v) if v >= 0 => v as u64,
                    _ => return Err(ParseError { line: nline, msg: "bad array length".into() }),
                };
                self.expect_word("x")?;
                let elem = self.ty(m)?;
                self.expect(Tok::RBracket)?;
                Ok(m.types.array(elem, len))
            }
            Tok::LBrace => {
                let mut fields = Vec::new();
                loop {
                    match self.peek()? {
                        (Tok::RBrace, _) => {
                            self.next()?;
                            break;
                        }
                        (Tok::Comma, _) => {
                            self.next()?;
                        }
                        _ => fields.push(self.ty(m)?),
                    }
                }
                Ok(m.types.strukt(fields))
            }
            other => Err(ParseError { line, msg: format!("expected type, found {other:?}") }),
        }
    }

    fn operand(&mut self, ty: TypeId) -> Result<RawOperand, ParseError> {
        let (tok, line) = self.next()?;
        Ok(match tok {
            Tok::Local(n) => RawOperand::Local(n),
            Tok::Int(v) => RawOperand::Int(ty, v),
            Tok::FloatBits(b) => RawOperand::Float(ty, b),
            Tok::Word(w) if w == "undef" => RawOperand::Undef(ty),
            Tok::Sym(s) => RawOperand::Sym(ty, s),
            other => {
                return Err(ParseError { line, msg: format!("expected operand, found {other:?}") })
            }
        })
    }
}

/// Phase A+B body construction (see module docs).
fn build_body(
    m: &mut Module,
    fid: crate::ids::FuncId,
    labels: &[String],
    body: &[(usize, Vec<RawInst>)],
) -> Result<(), ParseError> {
    // Create blocks in label order.
    let mut label_map: HashMap<&str, BlockId> = HashMap::new();
    {
        let f = m.function_mut(fid);
        for label in labels {
            let bb = f.add_block(label.clone());
            label_map.insert(label.as_str(), bb);
        }
    }
    // Phase A: append instructions with placeholder operands, recording
    // result names.
    let mut name_map: HashMap<u32, ValueId> = HashMap::new();
    {
        for i in 0..m.function(fid).num_args() {
            let v = m.function(fid).arg(i);
            name_map.insert(i as u32, v);
        }
    }
    let mut created: Vec<(crate::ids::InstId, &RawInst)> = Vec::new();
    for (label_idx, insts) in body {
        let bb = label_map[labels[*label_idx].as_str()];
        for raw in insts {
            let blocks: Result<Vec<BlockId>, ParseError> = raw
                .blocks
                .iter()
                .map(|l| {
                    label_map.get(l.as_str()).copied().ok_or_else(|| ParseError {
                        line: raw.line,
                        msg: format!("unknown label `{l}`"),
                    })
                })
                .collect();
            let inst = Instruction {
                op: raw.op,
                ty: raw.ty,
                operands: Vec::new(),
                blocks: blocks?,
                pred: raw.pred,
                aux_ty: raw.aux_ty,
                parent: bb,
                result: None,
            };
            let (f, types) = m.func_mut_and_types(fid);
            let (iid, res) = f.append_inst(types, bb, inst);
            match (res, raw.result_name) {
                (Some(v), Some(n)) => {
                    if name_map.insert(n, v).is_some() {
                        return Err(ParseError {
                            line: raw.line,
                            msg: format!("%{n} defined twice"),
                        });
                    }
                }
                (Some(_), None) => {
                    // Value-producing instruction without a result name:
                    // tolerated (result is simply unused/unnamed).
                }
                (None, Some(n)) => {
                    return Err(ParseError {
                        line: raw.line,
                        msg: format!("%{n} = <void instruction>"),
                    });
                }
                (None, None) => {}
            }
            created.push((iid, raw));
        }
    }
    // Phase B: resolve operands.
    for (iid, raw) in created {
        let mut resolved = Vec::with_capacity(raw.operands.len());
        for o in &raw.operands {
            let v = match o {
                RawOperand::Local(n) => *name_map.get(n).ok_or_else(|| ParseError {
                    line: raw.line,
                    msg: format!("use of undefined value %{n}"),
                })?,
                RawOperand::Int(ty, v) => {
                    let (f, types) = m.func_mut_and_types(fid);
                    f.const_int(types, *ty, *v)
                }
                RawOperand::Float(ty, bits) => {
                    m.function_mut(fid).const_float(*ty, f64::from_bits(*bits))
                }
                RawOperand::Undef(ty) => m.function_mut(fid).undef(*ty),
                RawOperand::Sym(ty, name) => {
                    if let Some(callee) = m.lookup_function(name) {
                        m.function_mut(fid).func_ref(callee, *ty)
                    } else if let Some(g) = m.lookup_global(name) {
                        m.function_mut(fid).global_ref(g, *ty)
                    } else {
                        return Err(ParseError {
                            line: raw.line,
                            msg: format!("unknown symbol @{name}"),
                        });
                    }
                }
            };
            resolved.push(v);
        }
        m.function_mut(fid).inst_mut(iid).operands = resolved;
    }
    Ok(())
}

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
