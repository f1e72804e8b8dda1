//! Textual IR printer.
//!
//! The output is a stable, LLVM-flavoured syntax that
//! [`crate::parser`] parses back; `parse(print(m))` is structurally
//! equivalent to `m` (same blocks, instructions, operand structure), which
//! is checked by round-trip property tests.
//!
//! Instruction results and arguments are printed as `%N` in numbering
//! order: arguments first, then every value-producing instruction in block
//! order. Constants are printed inline at their use sites.

use std::fmt::Write as _;

use crate::ids::{BlockId, FuncId, ValueId};
use crate::inst::{Instruction, Opcode, Predicate};
use crate::function::{Function, Linkage};
use crate::module::{Global, Module};
use crate::value::ValueKind;

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
        for (_, inst) in f.block_insts(bb) {
            let _ = writeln!(out, "  {}", print_inst(m, f, inst, &names));
        }
    }
    out.push_str("}\n");
    out
}

/// Assigns printable `%N` names to arguments and instruction results.
pub struct ValueNames {
    names: Vec<Option<u32>>,
}

impl ValueNames {
    /// Numbers the values of `f`: arguments first, then results in block
    /// order.
    pub fn assign(f: &Function) -> ValueNames {
        let mut names = vec![None; f.num_values()];
        let mut next = 0u32;
        for i in 0..f.num_args() {
            names[f.arg(i).index()] = Some(next);
            next += 1;
        }
        for (_, inst) in f.linked_insts() {
            if let Some(r) = inst.result {
                names[r.index()] = Some(next);
                next += 1;
            }
        }
        ValueNames { names }
    }

    /// Printable name of `v`, if it was assigned one.
    pub fn get(&self, v: ValueId) -> Option<u32> {
        self.names.get(v.index()).copied().flatten()
    }
}

fn operand(m: &Module, f: &Function, names: &ValueNames, v: ValueId) -> String {
    let val = f.value(v);
    match val.kind {
        ValueKind::Arg(_) | ValueKind::Inst(_) => match names.get(v) {
            Some(n) => format!("%{n}"),
            None => format!("%?{}", v.index()), // unlinked def; diagnostic only
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
pub fn print_inst(m: &Module, f: &Function, inst: &Instruction, names: &ValueNames) -> String {
    let op = |i: usize| operand(m, f, names, inst.operands[i]);
    let ty = |t| m.types.display(t);
    let res = inst
        .result
        .and_then(|r| names.get(r))
        .map(|n| format!("%{n} = "))
        .unwrap_or_default();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::IntPredicate;

    fn demo_module() -> Module {
        let mut m = Module::new("demo");
        let i32t = m.types.int(32);
        let mut f = Function::new("max", vec![i32t, i32t], i32t);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f);
            let entry = b.create_block("entry");
            b.position_at_end(entry);
            let c = b.icmp(IntPredicate::Sgt, b.func().arg(0), b.func().arg(1));
            let r = b.select(c, b.func().arg(0), b.func().arg(1));
            b.ret(Some(r));
        }
        m.add_function(f);
        m
    }

    #[test]
    fn prints_expected_shape() {
        let m = demo_module();
        let text = print_module(&m);
        assert!(text.contains("define @max(i32 %0, i32 %1) -> i32 {"), "{text}");
        assert!(text.contains("%2 = icmp sgt i32 %0, %1"), "{text}");
        assert!(text.contains("%3 = select %2, i32 %0, %1"), "{text}");
        assert!(text.contains("ret i32 %3"), "{text}");
    }

    #[test]
    fn prints_constants_inline() {
        let mut m = Module::new("c");
        let i32t = m.types.int(32);
        let mut f = Function::new("inc", vec![i32t], i32t);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f);
            let entry = b.create_block("entry");
            b.position_at_end(entry);
            let one = b.const_int(i32t, 1);
            let r = b.add(b.func().arg(0), one);
            b.ret(Some(r));
        }
        m.add_function(f);
        let text = print_module(&m);
        assert!(text.contains("%1 = add i32 %0, 1"), "{text}");
    }

    #[test]
    fn prints_declarations() {
        let mut m = Module::new("d");
        let i64t = m.types.int(64);
        m.add_function(Function::new_declaration("ext", vec![i64t], i64t));
        let text = print_module(&m);
        assert!(text.contains("declare @ext(i64) -> i64"), "{text}");
    }

    #[test]
    fn prints_float_constants_as_bits() {
        let mut m = Module::new("f");
        let f64t = m.types.f64();
        let mut f = Function::new("one", vec![], f64t);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f);
            let entry = b.create_block("entry");
            b.position_at_end(entry);
            let one = b.const_float(f64t, 1.0);
            b.ret(Some(one));
        }
        m.add_function(f);
        let text = print_module(&m);
        assert!(text.contains("ret f64 0f3FF0000000000000"), "{text}");
    }
}
