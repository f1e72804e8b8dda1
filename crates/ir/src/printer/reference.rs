//! The printer [`super`] replaced, kept as the reference it is held to:
//! every operand, type name, instruction and function rendered into a
//! `String` of its own, lists joined from a `Vec<String>`, each copied
//! into its parent.
//!
//! [`printer_matches_the_reference`] requires the one-buffer printer to
//! print every module, function, global and declaration byte for byte as
//! this one does.

use std::fmt::Write as _;

use crate::ids::{BlockId, FuncId, InstId, ValueId};
use crate::inst::{Instruction, Opcode, Predicate};
use crate::function::{Function, Linkage};
use crate::module::{Global, Module};
use crate::value::ValueKind;

use crate::parser::reference::tests::{each_input, INPUTS};
use f3m_core::pass::PassConfig;

/// Prints a whole module.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "module \"{}\" {{", m.name);
    for (_, g) in m.globals() {
        let _ = writeln!(out, "{}", print_global(m, g));
    }
    if m.num_globals() > 0 {
        out.push('\n');
    }
    for (id, f) in m.functions() {
        if f.is_declaration {
            let _ = writeln!(out, "{}", print_declaration(m, f));
        } else {
            out.push_str(&print_function(m, id));
        }
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

/// Prints one global as its `global @name : ty = [bytes]` line (no
/// trailing newline).
pub fn print_global(m: &Module, g: &Global) -> String {
    let bytes: Vec<String> = g.init.iter().map(|b| b.to_string()).collect();
    format!("global @{} : {} = [{}]", g.name, m.types.display(g.ty), bytes.join(", "))
}

/// Prints one external declaration as its `declare @name(params) -> ret`
/// line (no trailing newline).
pub fn print_declaration(m: &Module, f: &Function) -> String {
    let params: Vec<String> = f.params.iter().map(|&p| m.types.display(p)).collect();
    format!("declare @{}({}) -> {}", f.name, params.join(", "), m.types.display(f.ret_ty))
}

/// Prints one function definition.
pub fn print_function(m: &Module, id: FuncId) -> String {
    let f = m.function(id);
    let names = ValueNames::assign(f);
    let mut out = String::new();
    let params: Vec<String> = f
        .params
        .iter()
        .enumerate()
        .map(|(i, &p)| format!("{} %{}", m.types.display(p), i))
        .collect();
    let kw = match f.linkage {
        Linkage::External => "define",
        Linkage::Internal => "define internal",
    };
    let _ = writeln!(
        out,
        "{} @{}({}) -> {} {{",
        kw,
        f.name,
        params.join(", "),
        m.types.display(f.ret_ty)
    );
    for &bb in &f.block_order {
        let _ = writeln!(out, "bb{}:", bb.index());
        for (id, inst) in f.block_insts(bb) {
            let _ = writeln!(out, "  {}", print_inst(m, f, id, inst, &names));
        }
    }
    out.push_str("}\n");
    out
}

/// Assigns printable `%N` names to instruction results; argument `i` is
/// `%i`.
pub struct ValueNames {
    /// By [`InstId`].
    names: Vec<Option<u32>>,
}

impl ValueNames {
    /// Numbers the values of `f`: arguments first, then results in block
    /// order.
    pub fn assign(f: &Function) -> ValueNames {
        let mut names = vec![None; f.num_insts()];
        let mut next = f.num_args() as u32;
        for (id, _) in f.linked_insts() {
            if f.result(id).is_some() {
                names[id.index()] = Some(next);
                next += 1;
            }
        }
        ValueNames { names }
    }

    /// Printable name of instruction `id`'s result, if it was assigned one.
    pub fn get(&self, id: InstId) -> Option<u32> {
        self.names[id.index()]
    }
}

fn operand(m: &Module, f: &Function, names: &ValueNames, v: ValueId) -> String {
    let val = f.value(v);
    match val.kind {
        ValueKind::Arg(i) => format!("%{i}"),
        ValueKind::Inst(id) => match names.get(id) {
            Some(n) => format!("%{n}"),
            None => format!("%?{}", id.index()), // unlinked def; diagnostic only
        },
        ValueKind::ConstInt(x) => format!("{x}"),
        ValueKind::ConstFloat(bits) => format!("0f{bits:016X}"),
        ValueKind::Undef => "undef".to_string(),
        ValueKind::FuncRef(fid) => format!("@{}", m.function(fid).name),
        ValueKind::GlobalRef(gid) => format!("@{}", m.global(gid).name),
    }
}

fn bb(b: BlockId) -> String {
    format!("bb{}", b.index())
}

/// Prints a single instruction (without trailing newline).
pub fn print_inst(
    m: &Module,
    f: &Function,
    id: InstId,
    inst: Instruction,
    names: &ValueNames,
) -> String {
    let op = |i: usize| operand(m, f, names, inst.operands[i]);
    let ty = |t| m.types.display(t);
    let res = names.get(id).map(|n| format!("%{n} = ")).unwrap_or_default();
    match inst.op {
        Opcode::Ret => {
            if inst.operands.is_empty() {
                "ret".to_string()
            } else {
                format!("ret {} {}", ty(f.value(inst.operands[0]).ty), op(0))
            }
        }
        Opcode::Br => format!("br {}", bb(inst.blocks[0])),
        Opcode::CondBr => {
            format!("condbr {}, {}, {}", op(0), bb(inst.blocks[0]), bb(inst.blocks[1]))
        }
        Opcode::Unreachable => "unreachable".to_string(),
        Opcode::Invoke => {
            let args: Vec<String> = inst.operands[1..]
                .iter()
                .map(|&a| format!("{} {}", ty(f.value(a).ty), operand(m, f, names, a)))
                .collect();
            format!(
                "{res}invoke {} {}({}) to {} unwind {}",
                ty(inst.ty),
                op(0),
                args.join(", "),
                bb(inst.blocks[0]),
                bb(inst.blocks[1])
            )
        }
        Opcode::FNeg => format!("{res}fneg {} {}", ty(inst.ty), op(0)),
        o if o.is_binary() => {
            format!("{res}{} {} {}, {}", o.mnemonic(), ty(inst.ty), op(0), op(1))
        }
        Opcode::Alloca => format!("{res}alloca {}", ty(inst.aux_ty.expect("alloca aux_ty"))),
        Opcode::Load => format!("{res}load {}, {}", ty(inst.ty), op(0)),
        Opcode::Store => {
            format!("store {} {}, {}", ty(f.value(inst.operands[0]).ty), op(0), op(1))
        }
        Opcode::Gep => format!(
            "{res}gep {}, {}, {} {}",
            ty(inst.aux_ty.expect("gep aux_ty")),
            op(0),
            ty(f.value(inst.operands[1]).ty),
            op(1)
        ),
        o if o.is_cast() => format!(
            "{res}{} {} {} to {}",
            o.mnemonic(),
            ty(f.value(inst.operands[0]).ty),
            op(0),
            ty(inst.ty)
        ),
        Opcode::ICmp | Opcode::FCmp => {
            let pred = match inst.pred.expect("cmp predicate") {
                Predicate::Int(p) => p.mnemonic(),
                Predicate::Float(p) => p.mnemonic(),
            };
            format!(
                "{res}{} {} {} {}, {}",
                inst.op.mnemonic(),
                pred,
                ty(f.value(inst.operands[0]).ty),
                op(0),
                op(1)
            )
        }
        Opcode::Select => format!("{res}select {}, {} {}, {}", op(0), ty(inst.ty), op(1), op(2)),
        Opcode::Phi => {
            let arms: Vec<String> = inst
                .operands
                .iter()
                .zip(inst.blocks.iter())
                .map(|(&v, &b)| format!("[ {}, {} ]", operand(m, f, names, v), bb(b)))
                .collect();
            format!("{res}phi {} {}", ty(inst.ty), arms.join(", "))
        }
        Opcode::Call => {
            let args: Vec<String> = inst.operands[1..]
                .iter()
                .map(|&a| format!("{} {}", ty(f.value(a).ty), operand(m, f, names, a)))
                .collect();
            format!("{res}call {} {}({})", ty(inst.ty), op(0), args.join(", "))
        }
        o => unreachable!("unhandled opcode in printer: {o:?}"),
    }
}

/// Requires the one-buffer printer to print `m` as the reference does:
/// the module, and each function, global and declaration on its own;
/// `what` names the module on failure.
fn same_print(what: &str, m: &Module) {
    assert_eq!(super::print_module(m), print_module(m), "{what}: module");
    for (id, f) in m.functions() {
        if f.is_declaration {
            assert_eq!(super::print_declaration(m, f), print_declaration(m, f), "{what}: @{}", f.name);
        } else {
            assert_eq!(super::print_function(m, id), print_function(m, id), "{what}: @{}", f.name);
        }
    }
    for (_, g) in m.globals() {
        assert_eq!(super::print_global(m, g), print_global(m, g), "{what}: @{}", g.name);
    }
}

/// A module that reaches what the generated ones may not: `i64::MIN`
/// and negative constants, float bit patterns, an unlinked definition
/// (`%?N`), array, struct and `fn` types, a global with no initializer
/// bytes, `invoke`, `phi`, internal linkage and a `void` declaration
/// with no parameters.
fn corner_module() -> Module {
    use crate::builder::FunctionBuilder;
    use crate::inst::IntPredicate;

    let mut m = Module::new("corners");
    let (i8t, i16t, i32t, i64t) = (m.types.int(8), m.types.int(16), m.types.int(32), m.types.int(64));
    let (f32t, f64t, ptr, void) = (m.types.f32(), m.types.f64(), m.types.ptr(), m.types.void());
    let arr = m.types.array(i16t, 3);
    let ptrs = m.types.array(ptr, 2);
    let st = m.types.strukt(vec![i8t, ptrs]);
    let empty = m.types.strukt(vec![]);
    let fnty = m.types.func(vec![i32t, st], void);
    let none = m.types.array(i8t, 0);
    m.add_global(Global { name: "nothing".into(), ty: none, init: vec![] });
    m.add_global(Global { name: "table".into(), ty: st, init: vec![0, 1, 128, 255] });
    m.add_global(Global { name: "shape".into(), ty: fnty, init: vec![7] });
    let nop = m.add_function(Function::new_declaration("nop", vec![], void));
    let ext = m.add_function(Function::new_declaration("ext", vec![i64t, ptr], i64t));
    let global = m.lookup_global("table").unwrap();

    let mut helper = Function::new("helper", vec![f32t, empty], f32t);
    helper.linkage = Linkage::Internal;
    {
        let mut b = FunctionBuilder::new(&mut m.types, &mut helper);
        let entry = b.create_block();
        b.position_at_end(entry);
        let x = b.func().arg(0);
        let bits = b.func_mut().push_const(crate::value::Value {
            kind: ValueKind::ConstFloat(0x7FC0_0000_DEAD_BEEF),
            ty: f32t,
        });
        let y = b.fneg(x);
        let z = b.binary(Opcode::FAdd, y, bits);
        b.ret(Some(z));
    }
    m.add_function(helper);

    let mut f = Function::new("main", vec![i64t, f64t, ptr], i64t);
    let unlinked;
    {
        let mut b = FunctionBuilder::new(&mut m.types, &mut f);
        let entry = b.create_block();
        let normal = b.create_block();
        let unwind = b.create_block();
        let join = b.create_block();
        b.position_at_end(entry);
        let (a, x, p) = (b.func().arg(0), b.func().arg(1), b.func().arg(2));
        let min = b.const_int(i64t, i64::MIN);
        let neg = b.const_int(i64t, -42);
        let max = b.const_int(i64t, i64::MAX);
        let dead = b.add(a, neg);
        let uses_dead = b.mul(dead, min);
        unlinked = dead;
        let slot = b.alloca(arr);
        let idx = b.const_int(i32t, -1);
        let elem = b.gep(arr, slot, idx);
        let small = b.const_int(i16t, -32768);
        b.store(small, elem);
        let zero = b.const_float(f64t, -0.0);
        let tiny = b.const_float(f64t, f64::from_bits(1));
        let c = b.fcmp(crate::inst::FloatPredicate::Olt, x, zero);
        let s = b.select(c, x, tiny);
        let t = b.cast(Opcode::FPToSI, s, i64t);
        let g = b.func_mut().global_ref(global);
        let callee = b.func_mut().func_ref(ext);
        let nop_ref = b.func_mut().func_ref(nop);
        b.call(nop_ref, &[], void);
        let u = b.func_mut().undef(i64t);
        let r = b.invoke(callee, &[t, g], i64t, normal, unwind).unwrap();
        b.position_at_end(normal);
        let cmp = b.icmp(IntPredicate::Slt, r, uses_dead);
        b.cond_br(cmp, join, unwind);
        b.position_at_end(unwind);
        let l = b.load(i64t, p);
        b.br(join);
        b.position_at_end(join);
        let phi = b.phi(i64t, &[(max, normal), (l, unwind), (u, entry)]);
        b.ret(Some(phi));
    }
    let ValueKind::Inst(iid) = f.value(unlinked).kind else { unreachable!("an add's result") };
    f.unlink_inst(f.entry(), iid);
    m.add_function(f);
    m
}

/// The one-buffer printer prints every module as the reference does:
/// each printed module the parser differentials visit — Table I rows,
/// corpus seeds and modules the fuzzer's structural mutators changed —
/// as parsed, and after a pass under each strategy, and a hand-built
/// module of corner cases.
#[test]
fn printer_matches_the_reference() {
    let corners = corner_module();
    let text = print_module(&corners);
    for want in ["%?", "-9223372036854775808", "0f7FC00000DEADBEEF", "= []", "fn(i32, {i8, [2 x ptr]}) -> void"]
    {
        assert!(text.contains(want), "the corner module prints `{want}`:\n{text}");
    }
    same_print("corner module", &corners);

    let mut modules = 0;
    each_input(INPUTS, |what, text, printed| {
        if !printed {
            return;
        }
        modules += 1;
        same_print(what, &crate::parser::parse_module(text).unwrap());
        // The pass runs on the library build's `Module`; its print parses
        // into this build's.
        for strategy in PassConfig::STRATEGY_NAMES {
            let config = PassConfig::from_strategy_name(strategy).unwrap();
            let mut merged = f3m_ir::parser::parse_module(text).unwrap();
            f3m_core::pass::run_pass(&mut merged, &config);
            let merged = crate::parser::parse_module(&f3m_ir::printer::print_module(&merged)).unwrap();
            same_print(&format!("{what}, after {strategy}"), &merged);
        }
    });
    assert!(modules > 0, "the differentials visit printed modules");
}
