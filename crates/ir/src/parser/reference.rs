//! The body builder the staged one replaced, kept as the reference the
//! staged builder is held to: every instruction read into a [`RawInst`]
//! with an operand vector and a target vector of its own, the blocks
//! into a vector of those, then built in the same two phases through a
//! label map and a name map. Only the label step ([`label_blocks`]) is
//! shared, so both report a repeated label alike.
//!
//! The tests below run both builders over the same text and require the
//! same module — printed alike, and numbered alike: every value,
//! instruction, block and type id, constants in the same order — or the
//! same `(line, msg)`.

use super::*;

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
    Parser::new(src)?.module(None, Parser::reference_body)
}

impl<'s> Parser<'s> {
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
                    self.pos += 1;
                    break;
                }
                (Tok::Word(w), line) => {
                    if self.peek_ahead(1)?.0 == Tok::Colon && Opcode::from_mnemonic(w).is_none() {
                        self.pos += 2;
                        blocks.push((w, line, Vec::new()));
                        continue;
                    }
                    (None, line)
                }
                (Tok::Local(n), _) => {
                    self.pos += 1;
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
                    self.pos += 1;
                }
            }
            o => return Err(err(line, format!("cannot parse opcode {o:?}"))),
        }
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
            let inst = Instruction {
                op: raw.op,
                ty: raw.ty,
                operands: Vec::new(),
                blocks: targets?,
                pred: raw.pred,
                aux_ty: raw.aux_ty,
                parent: bb,
                result: None,
            };
            let (iid, res) = f.append_inst(types, bb, inst);
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
                RawOperand::Sym(ty, name) => {
                    if let Some(callee) = syms.lookup_function(name) {
                        f.func_ref(callee, ty)
                    } else if let Some(g) = syms.lookup_global(name) {
                        f.global_ref(g, ty)
                    } else {
                        return Err(err(raw.line, format!("unknown symbol @{name}")));
                    }
                }
            };
            resolved.push(v);
        }
        f.inst_mut(iid).operands = resolved;
    }
    Ok(())
}

mod tests {
    use std::collections::BTreeSet;
    use std::fmt::Write as _;
    use std::time::{Duration, Instant};

    use f3m_prng::SmallRng;

    use super::*;

    /// Every id a parse assigns, in arena order: each function's values
    /// (constants in interning order), instructions and blocks, with every
    /// type they name by index and by structure.
    fn numbering(m: &Module) -> String {
        let ty = |t: TypeId| format!("{t:?}={}", m.types.display(t));
        let mut out = format!("{} types\n", m.types.len());
        for (id, f) in m.functions() {
            let params: Vec<String> = f.params.iter().map(|&t| ty(t)).collect();
            let _ = writeln!(out, "{id:?} @{} {params:?} -> {}", f.name, ty(f.ret_ty));
            for (v, value) in f.values() {
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
        out
    }

    /// What a builder made of one text: the module's print and numbering,
    /// or the error.
    fn outcome(parsed: &Result<Module, ParseError>) -> Result<(String, String), ParseError> {
        parsed.as_ref().map(|m| (print_module(m), numbering(m))).map_err(Clone::clone)
    }

    /// Parses `src` with both builders, requires the same outcome and
    /// returns the staged parse, the stage as it left it and the time the
    /// staged parse took.
    fn agree<'s>(src: &'s str, what: &str) -> (Stage<'s>, Result<Module, ParseError>, Duration) {
        let t0 = Instant::now();
        let (stage, staged) = match Parser::new(src) {
            Ok(mut p) => {
                let m = p.module(None, Parser::body);
                (p.stage, m)
            }
            Err(lex) => (Stage::default(), Err(lex)),
        };
        let elapsed = t0.elapsed();
        let reference = parse_module_unverified(src);
        match (outcome(&staged), outcome(&reference)) {
            (Ok((print, ids)), Ok((want_print, want_ids))) => {
                assert_eq!(print, want_print, "{what}: printed module");
                let diff = ids.lines().zip(want_ids.lines()).enumerate().find(|(_, (a, b))| a != b);
                assert_eq!(diff, None, "{what}: id numbering, (line, (staged, reference))");
                assert_eq!(ids.lines().count(), want_ids.lines().count(), "{what}: id numbering");
            }
            (got, want) => {
                assert_eq!(got.err(), want.err(), "{what}: parse error");
            }
        }
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
    /// unknown symbols — and the syntax errors before it.
    const TOKENS: &[&str] = &[
        "%0", "%1", "%2", "%3", "%7", "%40", "%4294967295", "bb0", "bb1", "bb2", "bb9", "bb0:",
        "bb1:", "%5 =", "%1 =", "store", "br", "ret", "add", "phi", "call", "i1", "i32", "i64",
        "ptr", "[4 x i8]", "undef", "0", "-1", "0f3FF0000000000000", "@ext", "@nowhere", ",",
        ":", "=", "(", ")", "[", "]", "{", "}", "\n",
    ];

    /// The hostile mutations of the parser robustness sweep, drawn over
    /// `text`'s lines, bytes and whitespace-separated tokens.
    fn hostile_mutations(text: &str, rng: &mut SmallRng) -> Vec<(String, String)> {
        let lines: Vec<&str> = text.lines().collect();
        let joined = |lines: &[&str]| lines.join("\n");
        let line = |rng: &mut SmallRng| rng.gen_range(0..lines.len());
        let token = |rng: &mut SmallRng| TOKENS[rng.gen_range(0..TOKENS.len())];
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
            let at = rng.gen_range(0..=text.len());
            let inserted = token(rng);
            let text_with = format!("{} {inserted} {}", &text[..at], &text[at..]);
            out.push((format!("{inserted:?} inserted at byte {at}"), text_with));
            let words: Vec<&str> = text.split(' ').collect();
            let w = rng.gen_range(0..words.len());
            let replaced = token(rng);
            let mut replaced_words = words.clone();
            replaced_words[w] = replaced;
            out.push((format!("word {w} replaced by {replaced:?}"), replaced_words.join(" ")));
        }
        out
    }

    /// The staged builder is the reference builder, exactly: the same
    /// module and numbering, or the same error, over every Table I row at
    /// small scale and the corpus seeds, over modules the fuzzer's
    /// structural mutators changed, and over the hostile mutations of each
    /// text — lines deleted, duplicated and swapped, truncations, tokens
    /// inserted and replaced.
    #[test]
    fn staged_builder_matches_the_reference() {
        let mut rng = SmallRng::seed_from_u64(0x5_7A6E);
        let mut refusals = BTreeSet::new();
        for (name, text) in modules() {
            let (_, result, _) = agree(&text, &name);
            assert!(result.is_ok(), "{name} parses: {:?}", result.err());
            for (how, mutated) in hostile_mutations(&text, &mut rng) {
                if let Err(e) = agree(&mutated, &format!("{name}, {how}")).1 {
                    refusals.insert(e.msg);
                }
            }
        }
        // Structural mutations: the fuzzer's mutators over generated
        // modules, each step printed and parsed by both builders.
        let rows = if cfg!(debug_assertions) { 3 } else { 23 };
        for spec in f3m_workloads::table1().iter().take(rows) {
            let spec = spec.scaled(24.0 / spec.functions as f64);
            let mut m = f3m_workloads::build_module(&spec);
            for step in 0..DRAWS * 2 {
                let Some(mutator) = f3m_fuzz::mutate::apply_random(&mut m, &mut rng, 8) else {
                    continue;
                };
                let what = format!("{}, mutation {step} ({mutator})", spec.name);
                let text = f3m_ir::printer::print_module(&m);
                assert!(agree(&text, &what).1.is_ok(), "{what} parses");
            }
        }
        for kind in
            ["duplicate label", "unknown label", "use of undefined value", "defined twice", "unknown symbol"]
        {
            let reached = refusals.iter().any(|msg| msg.contains(kind));
            assert!(reached, "no mutation reached `{kind}`: {refusals:?}");
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
