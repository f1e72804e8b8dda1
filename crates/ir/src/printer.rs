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
//!
//! Every entry point drives one private `Printer`, which appends to a single
//! output buffer: a type is spelled once per call and copied from then
//! on, integers are written digit by digit, and the value numbers live in
//! one vector reused from function to function. No operand, instruction
//! or function gets a string of its own.

use crate::function::{Function, Linkage};
use crate::ids::{BlockId, FuncId, InstId, ValueId};
use crate::inst::{Instruction, Opcode, Predicate};
use crate::module::{Global, Module};
use crate::types::TypeId;
use crate::value::ValueKind;

/// Prints a whole module.
pub fn print_module(m: &Module) -> String {
    let mut p = Printer::new(m);
    p.module();
    p.out
}

/// Prints one global as its `global @name : ty = [bytes]` line (no
/// trailing newline).
pub fn print_global(m: &Module, g: &Global) -> String {
    let mut p = Printer::new(m);
    p.global(g);
    p.out
}

/// Prints one external declaration as its `declare @name(params) -> ret`
/// line (no trailing newline).
pub fn print_declaration(m: &Module, f: &Function) -> String {
    let mut p = Printer::new(m);
    p.declaration(f);
    p.out
}

/// Prints one function definition.
pub fn print_function(m: &Module, id: FuncId) -> String {
    let mut p = Printer::new(m);
    p.function(m.function(id));
    p.out
}

/// An instruction with no number: it has no result, or is unlinked.
const UNNAMED: u32 = u32::MAX;

/// The one printer behind every entry point.
struct Printer<'m> {
    m: &'m Module,
    /// The text printed so far.
    out: String,
    /// The spellings of the types met so far, back to back.
    spelled: String,
    /// Each type's `start..end` in `spelled`, by index; `start == end`
    /// until it is met (no type spells as the empty string).
    spans: Vec<(u32, u32)>,
    /// The current function's `%N` number of each instruction's result,
    /// by [`InstId`], or [`UNNAMED`].
    names: Vec<u32>,
}

impl<'m> Printer<'m> {
    fn new(m: &'m Module) -> Printer<'m> {
        Printer {
            m,
            out: String::new(),
            spelled: String::new(),
            spans: vec![(0, 0); m.types.len()],
            names: Vec::new(),
        }
    }

    fn module(&mut self) {
        let m = self.m;
        // A printed instruction line is about 30 bytes.
        self.out.reserve(m.total_insts() * 32);
        self.s("module \"").s(&m.name).s("\" {\n");
        for (_, g) in m.globals() {
            self.global(g).c('\n');
        }
        if m.num_globals() > 0 {
            self.c('\n');
        }
        for (_, f) in m.functions() {
            if f.is_declaration {
                self.declaration(f).c('\n');
            } else {
                self.function(f);
            }
            self.c('\n');
        }
        self.s("}\n");
    }

    fn global(&mut self, g: &Global) -> &mut Self {
        self.s("global @").s(&g.name).s(" : ").ty(g.ty).s(" = [");
        for (i, &b) in g.init.iter().enumerate() {
            self.comma(i).uint(u64::from(b));
        }
        self.c(']')
    }

    fn declaration(&mut self, f: &Function) -> &mut Self {
        self.s("declare @").s(&f.name).c('(');
        for (i, &p) in f.params.iter().enumerate() {
            self.comma(i).ty(p);
        }
        self.s(") -> ").ty(f.ret_ty)
    }

    fn function(&mut self, f: &Function) {
        self.number(f);
        let kw = match f.linkage {
            Linkage::External => "define @",
            Linkage::Internal => "define internal @",
        };
        self.s(kw).s(&f.name).c('(');
        for (i, &p) in f.params.iter().enumerate() {
            self.comma(i).ty(p).s(" %").uint(i as u64);
        }
        self.s(") -> ").ty(f.ret_ty).s(" {\n");
        for &bb in &f.block_order {
            self.label(bb).s(":\n");
            for (id, inst) in f.block_insts(bb) {
                self.s("  ");
                self.inst(f, id, inst);
                self.c('\n');
            }
        }
        self.s("}\n");
    }

    /// Numbers the values of `f`: arguments first, by position, then
    /// results in block order.
    fn number(&mut self, f: &Function) {
        self.names.clear();
        self.names.resize(f.num_insts(), UNNAMED);
        let mut next = f.num_args() as u32;
        for (id, _) in f.linked_insts() {
            if f.result(id).is_some() {
                self.names[id.index()] = next;
                next += 1;
            }
        }
    }

    /// One instruction, without indent or newline.
    fn inst(&mut self, f: &Function, id: InstId, inst: Instruction) {
        let (ops, blocks) = (inst.operands, inst.blocks);
        match inst.op {
            Opcode::Ret => {
                self.s("ret");
                if let Some(&v) = ops.first() {
                    self.c(' ').typed(f, v);
                }
            }
            Opcode::Br => {
                self.s("br ").label(blocks[0]);
            }
            Opcode::CondBr => {
                self.s("condbr ").operand(f, ops[0]).s(", ").label(blocks[0]).s(", ").label(blocks[1]);
            }
            Opcode::Unreachable => {
                self.s("unreachable");
            }
            Opcode::Invoke => {
                self.result(id).s("invoke ").ty(inst.ty).c(' ').operand(f, ops[0]).args(f, &ops[1..]);
                self.s(" to ").label(blocks[0]).s(" unwind ").label(blocks[1]);
            }
            Opcode::FNeg => {
                self.result(id).s("fneg ").ty(inst.ty).c(' ').operand(f, ops[0]);
            }
            o if o.is_binary() => {
                self.result(id).s(o.mnemonic()).c(' ').ty(inst.ty).c(' ');
                self.operand(f, ops[0]).s(", ").operand(f, ops[1]);
            }
            Opcode::Alloca => {
                self.result(id).s("alloca ").ty(inst.aux_ty.expect("alloca aux_ty"));
            }
            Opcode::Load => {
                self.result(id).s("load ").ty(inst.ty).s(", ").operand(f, ops[0]);
            }
            Opcode::Store => {
                self.s("store ").typed(f, ops[0]).s(", ").operand(f, ops[1]);
            }
            Opcode::Gep => {
                self.result(id).s("gep ").ty(inst.aux_ty.expect("gep aux_ty")).s(", ");
                self.operand(f, ops[0]).s(", ").typed(f, ops[1]);
            }
            o if o.is_cast() => {
                self.result(id).s(o.mnemonic()).c(' ').typed(f, ops[0]).s(" to ").ty(inst.ty);
            }
            Opcode::ICmp | Opcode::FCmp => {
                let pred = match inst.pred.expect("cmp predicate") {
                    Predicate::Int(p) => p.mnemonic(),
                    Predicate::Float(p) => p.mnemonic(),
                };
                self.result(id).s(inst.op.mnemonic()).c(' ').s(pred).c(' ').typed(f, ops[0]);
                self.s(", ").operand(f, ops[1]);
            }
            Opcode::Select => {
                self.result(id).s("select ").operand(f, ops[0]).s(", ").ty(inst.ty).c(' ');
                self.operand(f, ops[1]).s(", ").operand(f, ops[2]);
            }
            Opcode::Phi => {
                self.result(id).s("phi ").ty(inst.ty).c(' ');
                for (i, (&v, &b)) in ops.iter().zip(blocks).enumerate() {
                    self.comma(i).s("[ ").operand(f, v).s(", ").label(b).s(" ]");
                }
            }
            Opcode::Call => {
                self.result(id).s("call ").ty(inst.ty).c(' ').operand(f, ops[0]).args(f, &ops[1..]);
            }
            o => unreachable!("unhandled opcode in printer: {o:?}"),
        }
    }

    /// `%N = ` for an instruction whose result has a number.
    fn result(&mut self, id: InstId) -> &mut Self {
        match self.names[id.index()] {
            UNNAMED => self,
            n => self.c('%').uint(u64::from(n)).s(" = "),
        }
    }

    /// A call's or invoke's `(ty a, ty b, ...)`.
    fn args(&mut self, f: &Function, args: &[ValueId]) -> &mut Self {
        self.c('(');
        for (i, &a) in args.iter().enumerate() {
            self.comma(i).typed(f, a);
        }
        self.c(')')
    }

    /// `ty v`: `v` after its type.
    fn typed(&mut self, f: &Function, v: ValueId) -> &mut Self {
        self.ty(f.value(v).ty).c(' ').operand(f, v)
    }

    /// One use of `v`: its number, or the constant or symbol inline.
    fn operand(&mut self, f: &Function, v: ValueId) -> &mut Self {
        let m = self.m;
        match f.value(v).kind {
            ValueKind::Arg(i) => self.c('%').uint(u64::from(i)),
            ValueKind::Inst(id) => match self.names[id.index()] {
                // An unlinked definition; diagnostic only.
                UNNAMED => self.s("%?").uint(id.index() as u64),
                n => self.c('%').uint(u64::from(n)),
            },
            ValueKind::ConstInt(x) => {
                if x < 0 {
                    self.c('-');
                }
                self.uint(x.unsigned_abs())
            }
            ValueKind::ConstFloat(bits) => {
                self.s("0f");
                for shift in (0..64).step_by(4).rev() {
                    self.c(char::from(b"0123456789ABCDEF"[(bits >> shift) as usize & 0xF]));
                }
                self
            }
            ValueKind::Undef => self.s("undef"),
            ValueKind::FuncRef(fid) => self.c('@').s(&m.function(fid).name),
            ValueKind::GlobalRef(gid) => self.c('@').s(&m.global(gid).name),
        }
    }

    fn label(&mut self, b: BlockId) -> &mut Self {
        self.s("bb").uint(b.index() as u64)
    }

    /// The `, ` before every item of a list but its first.
    fn comma(&mut self, i: usize) -> &mut Self {
        if i > 0 {
            self.s(", ");
        }
        self
    }

    /// Appends one character.
    fn c(&mut self, ch: char) -> &mut Self {
        self.out.push(ch);
        self
    }

    /// Appends `text`.
    fn s(&mut self, text: &str) -> &mut Self {
        self.out.push_str(text);
        self
    }

    /// `n` in decimal.
    fn uint(&mut self, mut n: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.s(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
    }

    /// `t`'s spelling: spelled on first use, copied from then on.
    fn ty(&mut self, t: TypeId) -> &mut Self {
        let (start, end) = self.spans[t.index()];
        if start < end {
            self.out.push_str(&self.spelled[start as usize..end as usize]);
            return self;
        }
        let start = self.spelled.len();
        self.m.types.display_into(t, &mut self.spelled);
        self.out.push_str(&self.spelled[start..]);
        self.spans[t.index()] = (start as u32, self.spelled.len() as u32);
        self
    }
}

#[cfg(test)]
mod reference;

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
            let entry = b.create_block();
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
            let entry = b.create_block();
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
            let entry = b.create_block();
            b.position_at_end(entry);
            let one = b.const_float(f64t, 1.0);
            b.ret(Some(one));
        }
        m.add_function(f);
        let text = print_module(&m);
        assert!(text.contains("ret f64 0f3FF0000000000000"), "{text}");
    }
}
