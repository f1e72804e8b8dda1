//! Instruction encoding.
//!
//! Section III-B of the paper: "we translate each instruction into a 32-bit
//! integer that encodes the four most important properties with regards to
//! merging: opcode, result type, number of operands, and operand types."
//! Two instructions receive the same code exactly when the alignment
//! strategy could merge them (same opcode, same result type, same operand
//! shape), regardless of *which* values the operands are.
//!
//! Layout of the 32-bit code:
//!
//! ```text
//!  31        24 23     20 19          14 13             0
//! +------------+---------+--------------+----------------+
//! |   opcode   | #opnds  | result type  | operand types  |
//! +------------+---------+--------------+----------------+
//! ```
//!
//! The operand-type field is the product of the operand types' encoding
//! numbers (as in the paper), folded into 14 bits; comparison predicates
//! are mixed into the same field so that `icmp slt` and `icmp eq` do not
//! merge.

use f3m_ir::inst::Instruction;
use f3m_ir::function::Function;
use f3m_ir::types::TypeStore;

/// Encodes one instruction into its 32-bit merge-compatibility code.
pub fn encode_inst(f: &Function, inst: Instruction) -> u32 {
    let opcode = inst.op.code() & 0xFF;
    let nops = (inst.operands.len() as u32).min(0xF);
    let result_ty = inst.ty.encoding_number() % 64;
    let mut operand_field: u32 = 1;
    for &op in inst.operands {
        let t = f.value(op).ty.encoding_number();
        operand_field = operand_field.wrapping_mul(t);
    }
    if let Some(aux) = inst.aux_ty {
        operand_field = operand_field.wrapping_mul(aux.encoding_number());
    }
    if let Some(pred) = inst.pred {
        operand_field = operand_field.wrapping_mul(0x101).wrapping_add(pred.code());
    }
    (opcode << 24) | (nops << 20) | (result_ty << 14) | (operand_field % (1 << 14))
}

/// Encodes a whole function into its linear `u32` instruction stream, in
/// block order — the representation MinHash shingles are drawn from.
pub fn encode_function(ts: &TypeStore, f: &Function) -> Vec<u32> {
    let _ = ts;
    f.linked_insts().map(|(_, inst)| encode_inst(f, inst)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3m_ir::builder::FunctionBuilder;
    use f3m_ir::inst::IntPredicate;
    use f3m_ir::module::Module;
    use f3m_ir::function::Function;

    fn encode_simple(build: impl FnOnce(&mut FunctionBuilder<'_>)) -> Vec<u32> {
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let mut f = Function::new("f", vec![i32t, i32t], i32t);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f);
            let entry = b.create_block();
            b.position_at_end(entry);
            build(&mut b);
        }
        encode_function(&m.types, &f)
    }

    #[test]
    fn identical_instructions_get_identical_codes() {
        let codes = encode_simple(|b| {
            let (x, y) = (b.func().arg(0), b.func().arg(1));
            let a = b.add(x, y);
            let c = b.add(y, a); // different operands, same shape
            b.ret(Some(c));
        });
        assert_eq!(codes[0], codes[1], "operand identity must not matter");
    }

    #[test]
    fn different_opcodes_differ() {
        let codes = encode_simple(|b| {
            let (x, y) = (b.func().arg(0), b.func().arg(1));
            let a = b.add(x, y);
            let s = b.sub(x, y);
            let c = b.mul(a, s);
            b.ret(Some(c));
        });
        assert_ne!(codes[0], codes[1]);
        assert_ne!(codes[1], codes[2]);
    }

    #[test]
    fn different_types_differ() {
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let i64t = m.types.int(64);
        let mut f = Function::new("f", vec![i32t, i32t, i64t, i64t], i32t);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f);
            let entry = b.create_block();
            b.position_at_end(entry);
            let a32 = b.add(b.func().arg(0), b.func().arg(1));
            let _a64 = b.add(b.func().arg(2), b.func().arg(3));
            b.ret(Some(a32));
        }
        let codes = encode_function(&m.types, &f);
        assert_ne!(codes[0], codes[1], "i32 add vs i64 add must differ");
    }

    #[test]
    fn predicates_differ() {
        let codes = encode_simple(|b| {
            let (x, y) = (b.func().arg(0), b.func().arg(1));
            let c1 = b.icmp(IntPredicate::Slt, x, y);
            let c2 = b.icmp(IntPredicate::Eq, x, y);
            let r = b.select(c1, x, y);
            let r2 = b.select(c2, x, r);
            b.ret(Some(r2));
        });
        assert_ne!(codes[0], codes[1], "icmp slt vs icmp eq must differ");
    }

    #[test]
    fn returns_of_different_types_differ() {
        // The paper notes (Section IV-B) that functions containing a lone
        // `ret` of different types must not look identical: the type is
        // encoded.
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let i64t = m.types.int(64);
        let mut f1 = Function::new("a", vec![i32t], i32t);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f1);
            let e = b.create_block();
            b.position_at_end(e);
            let a = b.func().arg(0);
            b.ret(Some(a));
        }
        let mut f2 = Function::new("b", vec![i64t], i64t);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f2);
            let e = b.create_block();
            b.position_at_end(e);
            let a = b.func().arg(0);
            b.ret(Some(a));
        }
        let c1 = encode_function(&m.types, &f1);
        let c2 = encode_function(&m.types, &f2);
        assert_ne!(c1, c2);
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = encode_simple(|b| {
            let s = b.add(b.func().arg(0), b.func().arg(1));
            b.ret(Some(s));
        });
        let b2 = encode_simple(|b| {
            let s = b.add(b.func().arg(0), b.func().arg(1));
            b.ret(Some(s));
        });
        assert_eq!(a, b2);
    }
}
