//! What the parser replaced, kept as the references it is held to.
//!
//! - The body builder the staged one replaced: every instruction read
//!   into a [`RawInst`] with an operand vector and a target vector of its
//!   own, the blocks into a vector of those, then built in the same two
//!   phases through a label map and a name map. Only the label step
//!   ([`label_blocks`]) is shared, so both report a repeated label alike.
//! - The token vector the cursor replaced: [`lex`] splits the whole text
//!   into tokens up front, and [`TokenVec`] walks them, stepping over a
//!   body by counting brace tokens.
//!
//! The tests below run the staged and the reference builder over the same
//! text, and the cursor and the token vector, and require the same
//! module — printed alike, and numbered alike: every value, instruction,
//! block and type id, constants in the same order — or the same
//! `(line, msg)`.

use super::*;

/// Splits `src` into tokens, each with the 1-based line it starts on, up
/// to the first lexical error, which comes with them.
fn lex(src: &str) -> (Vec<(Tok<'_>, usize)>, Option<ParseError>) {
    let mut toks = Vec::new();
    let end = lex_into(src, &mut toks);
    (toks, end.err())
}

/// [`lex`]'s work: the tokens are pushed to `toks`.
fn lex_into<'s>(src: &'s str, toks: &mut Vec<(Tok<'s>, usize)>) -> Result<(), ParseError> {
    let bytes = src.as_bytes();
    let (mut i, mut line) = (0, 1);
    while i < bytes.len() {
        let start = i;
        let tok = match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
            b';' => {
                i = run(bytes, i, |b| b != b'\n');
                continue;
            }
            b'-' if bytes.get(i + 1) == Some(&b'>') => {
                i += 2;
                Tok::Arrow
            }
            b'-' => {
                i = run(bytes, i + 1, |b| b.is_ascii_digit());
                let text = &src[start..i];
                Tok::Int(text.parse().map_err(|_| err(line, format!("bad integer `{text}`")))?)
            }
            b'"' => {
                let end = run(bytes, i + 1, |b| b != b'"');
                if end == bytes.len() {
                    return Err(err(line, "unterminated string"));
                }
                i = end + 1;
                toks.push((Tok::Str(&src[start + 1..end]), line));
                // The lines a string spans count.
                line += newlines(&bytes[start..end]);
                continue;
            }
            b'%' => {
                i = run(bytes, i + 1, |b| b.is_ascii_digit());
                if i == start + 1 {
                    return Err(err(line, "expected number after `%`"));
                }
                Tok::Local(src[start + 1..i].parse().map_err(|_| err(line, "bad local number"))?)
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
                i = run(bytes, i, |b| b.is_ascii_digit());
                let text = &src[start..i];
                Tok::Int(text.parse().map_err(|_| err(line, format!("integer overflow `{text}`")))?)
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
        toks.push((tok, line));
    }
    Ok(())
}

/// The tokens [`lex`] made of a whole text, walked by index.
struct TokenVec<'s> {
    toks: Vec<(Tok<'s>, usize)>,
    pos: usize,
}

impl<'s> Tokens<'s> for TokenVec<'s> {
    /// The index of the body's first token.
    type Mark = usize;

    fn ahead(&mut self, n: usize) -> Result<Option<(Tok<'s>, usize)>, ParseError> {
        Ok(self.toks.get(self.pos + n).copied())
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn next(&mut self) -> Result<Option<(Tok<'s>, usize)>, ParseError> {
        let tok = self.toks.get(self.pos).copied();
        self.pos += usize::from(tok.is_some());
        Ok(tok)
    }

    fn cur_line(&self) -> usize {
        self.toks.get(self.pos.saturating_sub(1)).map_or(0, |t| t.1)
    }

    /// Counts brace tokens to the one that closes the body.
    fn skip_body(&mut self) -> Result<usize, ParseError> {
        let at = self.pos;
        let mut depth = 1;
        while depth > 0 {
            let Some(&(tok, _)) = self.toks.get(self.pos) else {
                return Err(err(self.cur_line(), "unexpected end of input"));
            };
            match tok {
                Tok::LBrace => depth += 1,
                Tok::RBrace => depth -= 1,
                _ => {}
            }
            self.pos += 1;
        }
        Ok(at)
    }

    fn seek(&mut self, at: usize) {
        self.pos = at;
    }
}

impl<'s> Parser<'s, TokenVec<'s>> {
    /// A parser over `src` lexed whole: its first lexical error before
    /// anything is parsed.
    fn over_vector(src: &'s str) -> Result<Self, ParseError> {
        match lex(src) {
            (toks, None) => Ok(Parser { toks: TokenVec { toks, pos: 0 }, stage: Stage::default() }),
            (_, Some(e)) => Err(e),
        }
    }
}

#[derive(Clone, Debug)]
struct RawInst<'s> {
    line: usize,
    op: Opcode,
    ty: TypeId,
    aux_ty: Option<TypeId>,
    pred: Option<Predicate>,
    operands: Vec<RawOperand<'s>>,
    blocks: Vec<&'s str>,
    result_name: Option<u32>,
}

/// [`parse_module_unverified`](super::parse_module_unverified) with every
/// body read by the reference builder.
fn parse_module_unverified(src: &str) -> Result<Module, ParseError> {
    Parser::new(src).module(None, Parser::reference_body)
}

impl<'s, T: Tokens<'s>> Parser<'s, T> {
    /// [`Parser::body`] as it was: a `RawInst` per instruction.
    fn reference_body(
        &mut self,
        syms: &Module,
        types: &mut TypeStore,
        f: &mut Function,
    ) -> Result<(), ParseError> {
        let mut blocks: Vec<(&str, usize, Vec<RawInst>)> = Vec::new();
        loop {
            let (result_name, line) = match self.peek()? {
                (Tok::RBrace, _) => {
                    self.toks.bump();
                    break;
                }
                (Tok::Word(w), line) => {
                    if self.peek_ahead(1)?.0 == Tok::Colon && Opcode::from_mnemonic(w).is_none() {
                        self.toks.bump();
                        self.toks.bump();
                        blocks.push((w, line, Vec::new()));
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
            let Some((_, _, insts)) = blocks.last_mut() else {
                return Err(err(line, "instruction before first label"));
            };
            insts.push(self.reference_inst(types, result_name)?);
        }
        build_body(f, types, syms, &blocks)
    }

    /// [`Parser::raw_inst`] as it was: one `RawInst` with its own vectors.
    fn reference_inst(
        &mut self,
        types: &mut TypeStore,
        result_name: Option<u32>,
    ) -> Result<RawInst<'s>, ParseError> {
        let (word, line) = match self.next()? {
            (Tok::Word(w), line) => (w, line),
            (_, line) => return Err(err(line, "expected instruction mnemonic")),
        };
        let op = Opcode::from_mnemonic(word)
            .ok_or_else(|| err(line, format!("unknown mnemonic `{word}`")))?;
        let (void, boolean, ptr) = (TypeId::VOID, TypeId::BOOL, TypeId::PTR);
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
                if self.at_type() {
                    let t = self.ty(types)?;
                    inst.operands.push(self.operand(t)?);
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
                inst.ty = self.ty(types)?;
                inst.operands.push(self.operand(ptr)?);
                self.expect(Tok::LParen)?;
                inst.operands.extend(self.list(Tok::RParen, |p| {
                    let t = p.ty(types)?;
                    p.operand(t)
                })?);
                if op == Opcode::Invoke {
                    self.expect_word("to")?;
                    inst.blocks.push(self.label()?);
                    self.expect_word("unwind")?;
                    inst.blocks.push(self.label()?);
                }
            }
            Opcode::FNeg => {
                let t = self.ty(types)?;
                inst.ty = t;
                inst.operands.push(self.operand(t)?);
            }
            o if o.is_binary() => {
                let t = self.ty(types)?;
                inst.ty = t;
                inst.operands.push(self.operand(t)?);
                self.expect(Tok::Comma)?;
                inst.operands.push(self.operand(t)?);
            }
            Opcode::Alloca => {
                inst.aux_ty = Some(self.ty(types)?);
                inst.ty = ptr;
            }
            Opcode::Load => {
                inst.ty = self.ty(types)?;
                self.expect(Tok::Comma)?;
                inst.operands.push(self.operand(ptr)?);
            }
            Opcode::Store => {
                let t = self.ty(types)?;
                inst.operands.push(self.operand(t)?);
                self.expect(Tok::Comma)?;
                inst.operands.push(self.operand(ptr)?);
            }
            Opcode::Gep => {
                inst.aux_ty = Some(self.ty(types)?);
                inst.ty = ptr;
                self.expect(Tok::Comma)?;
                inst.operands.push(self.operand(ptr)?);
                self.expect(Tok::Comma)?;
                let idx_t = self.ty(types)?;
                inst.operands.push(self.operand(idx_t)?);
            }
            o if o.is_cast() => {
                let from = self.ty(types)?;
                inst.operands.push(self.operand(from)?);
                self.expect_word("to")?;
                inst.ty = self.ty(types)?;
            }
            Opcode::ICmp | Opcode::FCmp => {
                inst.pred = Some(self.predicate(op)?);
                let t = self.ty(types)?;
                inst.ty = boolean;
                inst.operands.push(self.operand(t)?);
                self.expect(Tok::Comma)?;
                inst.operands.push(self.operand(t)?);
            }
            Opcode::Select => {
                inst.operands.push(self.operand(boolean)?);
                self.expect(Tok::Comma)?;
                let t = self.ty(types)?;
                inst.ty = t;
                inst.operands.push(self.operand(t)?);
                self.expect(Tok::Comma)?;
                inst.operands.push(self.operand(t)?);
            }
            Opcode::Phi => {
                let t = self.ty(types)?;
                inst.ty = t;
                loop {
                    self.expect(Tok::LBracket)?;
                    inst.operands.push(self.operand(t)?);
                    self.expect(Tok::Comma)?;
                    inst.blocks.push(self.label()?);
                    self.expect(Tok::RBracket)?;
                    if self.peek()?.0 != Tok::Comma {
                        break;
                    }
                    self.toks.bump();
                }
            }
            o => return Err(err(line, format!("cannot parse opcode {o:?}"))),
        }
        inst_type(types, line, op, inst.ty)?;
        Ok(inst)
    }
}

/// Phase A+B construction of `f`'s body through a label map and a name
/// map; symbols resolve among `syms`'s.
fn build_body(
    f: &mut Function,
    types: &TypeStore,
    syms: &Module,
    blocks: &[(&str, usize, Vec<RawInst<'_>>)],
) -> Result<(), ParseError> {
    let mut label_map = HashMap::new();
    label_blocks(f, &mut label_map, blocks.iter().map(|(label, line, _)| (*label, *line)))?;
    let mut name_map: HashMap<u32, ValueId> = HashMap::new();
    for i in 0..f.num_args() {
        name_map.insert(i as u32, f.arg(i));
    }
    let mut created: Vec<(InstId, &RawInst)> = Vec::new();
    for (label, _, insts) in blocks {
        let bb = label_map[label];
        for raw in insts {
            let targets: Result<Vec<BlockId>, ParseError> = raw
                .blocks
                .iter()
                .map(|l| {
                    let bb = label_map.get(l).copied();
                    bb.ok_or_else(|| err(raw.line, format!("unknown label `{l}`")))
                })
                .collect();
            let targets = targets?;
            let inst = Instruction {
                pred: raw.pred,
                aux_ty: raw.aux_ty,
                ..Instruction::new(raw.op, raw.ty, &[], &targets)
            };
            let (iid, res) = f.append_inst(bb, inst);
            match (res, raw.result_name) {
                (Some(v), Some(n)) => {
                    if name_map.insert(n, v).is_some() {
                        return Err(err(raw.line, format!("%{n} defined twice")));
                    }
                }
                (_, None) => {}
                (None, Some(n)) => {
                    return Err(err(raw.line, format!("%{n} = <void instruction>")));
                }
            }
            created.push((iid, raw));
        }
    }
    for (iid, raw) in created {
        let mut resolved = Vec::with_capacity(raw.operands.len());
        for o in &raw.operands {
            let v = match *o {
                RawOperand::Local(n) => *name_map
                    .get(&n)
                    .ok_or_else(|| err(raw.line, format!("use of undefined value %{n}")))?,
                RawOperand::Int(ty, v) => f.const_int(types, ty, v),
                RawOperand::Float(ty, bits) => f.const_float(ty, f64::from_bits(bits)),
                RawOperand::Undef(ty) => f.undef(ty),
                RawOperand::Sym(ty, name) => sym_ref(f, types, syms, raw.line, ty, name)?,
            };
            resolved.push(v);
        }
        f.set_operands(iid, &resolved);
    }
    Ok(())
}

pub(crate) mod tests {
    use std::collections::BTreeSet;
    use std::fmt::Write as _;
    use std::time::{Duration, Instant};

    use f3m_prng::SmallRng;

    use super::*;

    /// Every id a parse assigns, in arena order: each function's
    /// constants (one per operand, in operand order), instructions and
    /// blocks, with every type they name by index and by structure.
    fn numbering(m: &Module) -> String {
        let mut out = format!("{} types\n", m.types.len());
        for (id, f) in m.functions() {
            number_function(&mut out, &m.types, id, f);
        }
        out
    }

    /// [`numbering`]'s lines for function `id`, `f`, whose types live in
    /// `types`.
    fn number_function(out: &mut String, types: &TypeStore, id: FuncId, f: &Function) {
        let ty = |t: TypeId| format!("{t:?}={}", types.display(t));
        let params: Vec<String> = f.params.iter().map(|&t| ty(t)).collect();
        let _ = writeln!(out, "{id:?} {:?} @{} {params:?} -> {}", f.linkage, f.name, ty(f.ret_ty));
        for (v, value) in f.constants() {
            let _ = writeln!(out, "  {v:?} {:?} {}", value.kind, ty(value.ty));
        }
        for i in 0..f.num_insts() {
            let inst = f.inst(InstId::from_index(i));
            let aux = inst.aux_ty.map(ty);
            let _ = writeln!(out, "  {inst:?} {} {aux:?}", ty(inst.ty));
        }
        for b in 0..f.block_arena_len() {
            let _ = writeln!(out, "  {:?}", f.block(BlockId::from_index(b)));
        }
        let _ = writeln!(out, "  {:?}", f.block_order);
    }

    /// What a parse made of one text: the module's print and numbering,
    /// or the error.
    fn outcome(parsed: &Result<Module, ParseError>) -> Result<(String, String), ParseError> {
        parsed.as_ref().map(|m| (print_module(m), numbering(m))).map_err(Clone::clone)
    }

    /// Requires two outcomes to be the same module, printed and numbered
    /// alike, or the same error; `what` names the check on failure.
    fn same(what: &str, got: Result<(String, String), ParseError>, want: Result<(String, String), ParseError>) {
        match (got, want) {
            (Ok((print, ids)), Ok((want_print, want_ids))) => {
                assert_eq!(print, want_print, "{what}: printed module");
                let diff = ids.lines().zip(want_ids.lines()).enumerate().find(|(_, (a, b))| a != b);
                assert_eq!(diff, None, "{what}: id numbering, (line, (got, want))");
                assert_eq!(ids.lines().count(), want_ids.lines().count(), "{what}: id numbering");
            }
            (got, want) => assert_eq!(got.err(), want.err(), "{what}: parse error"),
        }
    }

    /// Parses `src` with both builders, requires the same outcome and
    /// returns the staged parse, the stage as it left it and the time the
    /// staged parse took.
    fn agree<'s>(src: &'s str, what: &str) -> (Stage<'s>, Result<Module, ParseError>, Duration) {
        let t0 = Instant::now();
        let mut p = Parser::new(src);
        let staged = p.module(None, Parser::body);
        let stage = p.stage;
        let elapsed = t0.elapsed();
        same(what, outcome(&staged), outcome(&parse_module_unverified(src)));
        (stage, staged, elapsed)
    }

    /// Draws per check: the release run of CI's "Parser reference
    /// differential" step draws many more than `cargo test` does.
    const DRAWS: usize = if cfg!(debug_assertions) { 4 } else { 32 };

    /// Every Table I row, generated at small scale and printed; then the
    /// checked-in corpus seeds.
    fn modules() -> Vec<(String, String)> {
        let functions = if cfg!(debug_assertions) { 12.0 } else { 200.0 };
        let mut out: Vec<(String, String)> = f3m_workloads::table1()
            .iter()
            .map(|spec| {
                let spec = spec.scaled((functions / spec.functions as f64).min(1.0));
                // The module the generator builds belongs to the library
                // build of this crate, so its own printer prints it.
                (spec.name.to_string(), f3m_ir::printer::print_module(&f3m_workloads::build_module(&spec)))
            })
            .collect();
        let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
        let mut seeds: Vec<_> = std::fs::read_dir(corpus)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "ir"))
            .collect();
        seeds.sort();
        assert!(!seeds.is_empty(), "the corpus has seed modules");
        for path in seeds {
            out.push((path.display().to_string(), std::fs::read_to_string(&path).unwrap()));
        }
        out
    }

    /// Tokens a mutation inserts or puts in place of another: enough of
    /// the grammar to reach every error the builder reports — unknown and
    /// repeated labels, undefined and twice-defined values, void results,
    /// unknown symbols — and the syntax errors before it. A symbol used as
    /// a non-pointer takes a draw of its own ([`symbol_retyped`]).
    const TOKENS: &[&str] = &[
        "%0", "%1", "%2", "%3", "%7", "%40", "%4294967295", "bb0", "bb1", "bb2", "bb9", "bb0:",
        "bb1:", "%5 =", "%1 =", "store", "br", "ret", "add", "phi", "call", "i1", "i32", "i64",
        "ptr", "[4 x i8]", "undef", "0", "-1", "0f3FF0000000000000", "@ext", "@nowhere", ",",
        ":", "=", "(", ")", "[", "]", "{", "}", "\n",
    ];

    /// Tokens that reach the lexer and the skim: braces in a comment, in
    /// a string and in a struct type, a string over two lines, an
    /// unterminated string, and characters and numbers that do not lex.
    const LEXICAL: &[&str] = &[
        "; {", "; }", "\"}\"", "\"{ ;\"", "\"a\nb\"", "{ i32, { i64 } }", "\"", "$", "%",
        "99999999999999999999",
    ];

    /// The hostile mutations of the parser robustness sweep, drawn over
    /// `text`'s lines, bytes and whitespace-separated tokens.
    fn hostile_mutations(text: &str, rng: &mut SmallRng) -> Vec<(String, String)> {
        let lines: Vec<&str> = text.lines().collect();
        let joined = |lines: &[&str]| lines.join("\n");
        let line = |rng: &mut SmallRng| rng.gen_range(0..lines.len());
        let mut out = Vec::new();
        for _ in 0..DRAWS {
            let (a, b) = (line(rng), line(rng));
            let mut deleted = lines.clone();
            deleted.remove(a);
            out.push((format!("line {a} deleted"), joined(&deleted)));
            let mut duplicated = lines.clone();
            duplicated.insert(a, lines[a]);
            out.push((format!("line {a} duplicated"), joined(&duplicated)));
            let mut swapped = lines.clone();
            swapped.swap(a, b);
            out.push((format!("lines {a} and {b} swapped"), joined(&swapped)));
            let cut = rng.gen_range(0..=text.len());
            out.push((format!("truncated at byte {cut}"), text[..cut].to_string()));
            out.extend(token_mutations(text, TOKENS, rng));
            out.extend(symbol_retyped(text, rng));
        }
        out
    }

    /// One of `text`'s symbols put in place of a local operand typed
    /// other than `ptr` (`i64 %3` becomes `i64 @ext`): a `@symbol` used
    /// as a type a reference never has. `None` where `text` names no
    /// symbol or has no such operand.
    fn symbol_retyped(text: &str, rng: &mut SmallRng) -> Option<(String, String)> {
        let mut words: Vec<&str> = text.split(' ').collect();
        let name_end = |w: &str| w.find(|c: char| !(c.is_alphanumeric() || "_.".contains(c)));
        let symbols: Vec<&str> = words
            .iter()
            .filter_map(|w| w.strip_prefix('@'))
            .map(|w| &w[..name_end(w).unwrap_or(w.len())])
            .filter(|name| !name.is_empty())
            .collect();
        let scalar = ["i1", "i8", "i16", "i32", "i64", "f32", "f64"];
        let locals: Vec<usize> = (1..words.len())
            .filter(|&w| words[w].starts_with('%') && scalar.contains(&words[w - 1]))
            .collect();
        if symbols.is_empty() || locals.is_empty() {
            return None;
        }
        let symbol = symbols[rng.gen_range(0..symbols.len())];
        let w = locals[rng.gen_range(0..locals.len())];
        let local = words[w];
        let digits = 1 + local[1..].find(|c: char| !c.is_ascii_digit()).unwrap_or(local.len() - 1);
        let retyped = format!("@{symbol}{}", &local[digits..]);
        words[w] = &retyped;
        let what = format!("word {w} `{} {local}` retyped to `{} @{symbol}`", words[w - 1], words[w - 1]);
        Some((what, words.join(" ")))
    }

    /// A token of `tokens` inserted at a byte of `text`, and one put in
    /// place of a whitespace-separated word.
    fn token_mutations(text: &str, tokens: &[&str], rng: &mut SmallRng) -> [(String, String); 2] {
        let at = rng.gen_range(0..=text.len());
        let inserted = tokens[rng.gen_range(0..tokens.len())];
        let text_with = format!("{} {inserted} {}", &text[..at], &text[at..]);
        let mut words: Vec<&str> = text.split(' ').collect();
        let w = rng.gen_range(0..words.len());
        let replaced = tokens[rng.gen_range(0..tokens.len())];
        words[w] = replaced;
        [
            (format!("{inserted:?} inserted at byte {at}"), text_with),
            (format!("word {w} replaced by {replaced:?}"), words.join(" ")),
        ]
    }

    /// Visits every text the differentials read, in order: each module
    /// [`modules`] lists, as printed, then each of its hostile mutations
    /// and its [`LEXICAL`] token mutations (drawn apart, so they leave
    /// the hostile draws as they were); then modules the fuzzer's
    /// structural mutators changed, each step printed. The visitor gets
    /// what the text is, the text, and whether it is a printed module —
    /// which must parse.
    pub(crate) fn each_input(seed: u64, mut visit: impl FnMut(&str, &str, bool)) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut lexical = SmallRng::seed_from_u64(!seed);
        for (name, text) in modules() {
            visit(&name, &text, true);
            let lexical = (0..DRAWS).flat_map(|_| token_mutations(&text, LEXICAL, &mut lexical));
            for (how, mutated) in hostile_mutations(&text, &mut rng).into_iter().chain(lexical) {
                visit(&format!("{name}, {how}"), &mutated, false);
            }
        }
        let rows = if cfg!(debug_assertions) { 3 } else { 23 };
        for spec in f3m_workloads::table1().iter().take(rows) {
            let spec = spec.scaled(24.0 / spec.functions as f64);
            let mut m = f3m_workloads::build_module(&spec);
            for step in 0..DRAWS * 2 {
                let Some(mutator) = f3m_fuzz::mutate::apply_random(&mut m, &mut rng, 8) else {
                    continue;
                };
                let what = format!("{}, mutation {step} ({mutator})", spec.name);
                visit(&what, &f3m_ir::printer::print_module(&m), true);
            }
        }
    }

    /// The staged builder is the reference builder, exactly: the same
    /// module and numbering, or the same error, over every Table I row at
    /// small scale and the corpus seeds, over modules the fuzzer's
    /// structural mutators changed, and over the hostile mutations of each
    /// text — lines deleted, duplicated and swapped, truncations, tokens
    /// inserted and replaced.
    #[test]
    fn staged_builder_matches_the_reference() {
        let mut refusals = BTreeSet::new();
        each_input(INPUTS, |what, text, printed| match agree(text, what).1 {
            Ok(_) => {}
            Err(e) => {
                assert!(!printed, "{what} parses: {e:?}");
                refusals.insert(e.msg);
            }
        });
        for kind in
            ["duplicate label", "unknown label", "use of undefined value", "defined twice", "unknown symbol", "not ptr"]
        {
            let reached = refusals.iter().any(|msg| msg.contains(kind));
            assert!(reached, "no mutation reached `{kind}`: {refusals:?}");
        }
    }

    /// The seed both differentials draw their inputs with.
    pub(crate) const INPUTS: u64 = 0x5_7A6E;

    /// The tokens the cursor yields for `src`, each with its line, up to
    /// its first lexical error, which comes with them. They are taken by
    /// turns through [`Tokens::next`] and through `ahead(0)` and `bump`.
    fn cursor_tokens(src: &str) -> (Vec<(Tok<'_>, usize)>, Option<ParseError>) {
        let mut cursor = Cursor::new(src);
        let mut toks = Vec::new();
        loop {
            let tok = if toks.len() % 2 == 0 {
                cursor.next()
            } else {
                let tok = cursor.ahead(0);
                if let Ok(Some(_)) = tok {
                    cursor.bump();
                }
                tok
            };
            match tok {
                Ok(Some(tok)) => toks.push(tok),
                Ok(None) => return (toks, None),
                Err(e) => return (toks, Some(e)),
            }
        }
    }

    /// The names `src`'s `define` lines give.
    fn defined_names(src: &str) -> Vec<&str> {
        src.lines()
            .filter_map(|l| l.strip_prefix("define "))
            .filter_map(|l| l.trim_start_matches("internal ").strip_prefix('@'))
            .filter_map(|l| l.split('(').next())
            .collect()
    }

    /// [`parse_module_for`]'s outcome: the module's print and numbering
    /// with the id it found, or the error.
    fn outcome_for(parsed: Result<(Module, Option<FuncId>), ParseError>) -> Result<(String, String), ParseError> {
        parsed.map(|(m, id)| (print_module(&m), format!("{id:?}\n{}", numbering(&m))))
    }

    /// The cursor is the token vector it replaced, exactly, over every
    /// input of [`staged_builder_matches_the_reference`]: it yields
    /// [`lex`]'s tokens and lines up to the first lexical error, then the
    /// same error; and on every text that lexes, [`parse_module`] and
    /// [`parse_module_for`] — for a name the text defines, and for one it
    /// does not, so that every body is skimmed — give what the parser
    /// over the token vector gives.
    #[test]
    fn cursor_matches_the_token_vector() {
        let mut rng = SmallRng::seed_from_u64(0xC0_2504);
        let mut lexical = BTreeSet::new();
        each_input(INPUTS, |what, text, _| {
            let (toks, error) = cursor_tokens(text);
            let (want_toks, want_error) = lex(text);
            let diff = toks.iter().zip(&want_toks).position(|(a, b)| a != b);
            assert_eq!(diff, None, "{what}: first token that differs");
            assert_eq!(toks.len(), want_toks.len(), "{what}: tokens before the end or the error");
            assert_eq!(error, want_error, "{what}: lexical error");
            if let Some(e) = error {
                lexical.insert(e.msg);
                return;
            }
            let vector = || Parser::over_vector(text).unwrap();
            let got = outcome(&parse_module(text));
            same(&format!("{what}: parse_module"), got, outcome(&vector().verified_module()));
            let names = defined_names(text);
            let defined = names.get(rng.gen_range(0..names.len().max(1))).copied();
            for name in defined.into_iter().chain(["__nowhere"]) {
                let got = outcome_for(parse_module_for(text, name));
                let want = outcome_for(vector().module_for(name));
                same(&format!("{what}: parse_module_for {name}"), got, want);
            }
        });
        for kind in ["unexpected character", "expected number after `%`", "integer overflow", "unterminated string"] {
            let reached = lexical.iter().any(|msg| msg.contains(kind));
            assert!(reached, "no mutation reached `{kind}`: {lexical:?}");
        }
    }

    /// Names, labels and constants a hostile body can hold in any number:
    /// value names up to `%4294967295`, sparse numbering, 100 000 labels and
    /// 100 000 distinct constants. Each parses in time linear in its size —
    /// within the bound `chaos.rs` gives a hostile frame — agrees with the
    /// reference, and leaves the dense name table no larger than its body.
    #[test]
    fn hostile_names_labels_and_constants_stay_linear() {
        const N: usize = 100_000;
        let module = |body: &str| format!("module \"t\" {{\ndefine @f(i64 %0) -> i64 {{\n{body}}}\n}}\n");
        // (what, text, the error it must be refused with)
        let mut cases = vec![
            (
                "names far beyond the body".to_string(),
                module(
                    "bb0:\n  %4294967295 = add i64 %0, 1\n  %4294967294 = add i64 %4294967295, 2\n  \
                     ret i64 %4294967294\n",
                ),
                None,
            ),
            (
                "an undefined far name".to_string(),
                module("bb0:\n  %1 = add i64 %0, 1\n  ret i64 %4294967295\n"),
                Some((5, "use of undefined value %4294967295")),
            ),
            (
                "a far name defined twice".to_string(),
                module("bb0:\n  %4294967295 = add i64 %0, 1\n  %4294967295 = add i64 %0, 2\n  ret i64 %0\n"),
                Some((5, "%4294967295 defined twice")),
            ),
        ];
        let draws = if cfg!(debug_assertions) { 1 } else { 8 };
        let mut rng = SmallRng::seed_from_u64(0x5_9A25E);
        for draw in 0..draws {
            // Increasing, so each name is defined before its use, and spread
            // over the whole of `u32`.
            let mut names: Vec<u32> = (0..N).map(|_| rng.gen_range(1..u32::MAX)).collect();
            names.sort_unstable();
            names.dedup();
            let mut body = String::from("bb0:\n");
            let mut last = 0;
            for &n in &names {
                let _ = writeln!(body, "  %{n} = add i64 %{last}, 1");
                last = n;
            }
            let _ = writeln!(body, "  ret i64 %{last}");
            cases.push((format!("sparse numbering, draw {draw}"), module(&body), None));
        }
        let mut labels = String::new();
        for i in 0..N {
            let _ = writeln!(labels, "bb{i}:\n  br bb{}", i + 1);
        }
        let _ = writeln!(labels, "bb{N}:\n  ret i64 %0");
        cases.push((format!("{N} labels"), module(&labels), None));
        let mut constants = String::from("bb0:\n");
        for i in 1..=N {
            let _ = writeln!(constants, "  %{i} = add i64 %{}, {}", i - 1, 3 * i);
        }
        let _ = writeln!(constants, "  ret i64 %{N}");
        cases.push((format!("{N} distinct constants"), module(&constants), None));

        for (what, src, refusal) in &cases {
            let (stage, result, elapsed) = agree(src, what);
            let kb = src.len() >> 10;
            assert!(elapsed < Duration::from_secs(5), "{what}: {kb} kB took {elapsed:?}");
            let body = 1 + stage.insts.len();
            let table = stage.names.dense.capacity();
            assert!(table <= body, "{what}: a name table of {table} for a body of {body}");
            match result {
                Ok(m) => {
                    assert_eq!(*refusal, None, "{what}");
                    let f = m.function(m.lookup_function("f").unwrap());
                    assert_eq!(f.num_insts(), stage.insts.len(), "{what}");
                }
                Err(e) => assert_eq!(Some((e.line, e.msg.as_str())), *refusal, "{what}"),
            }
        }
    }
}
