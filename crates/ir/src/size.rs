//! Code-size model.
//!
//! The paper measures *linked object file size*. We do not lower to machine
//! code, so we estimate the encoded size of each IR instruction with
//! per-opcode byte weights calibrated to x86-64, plus a fixed per-function
//! overhead for prologue/epilogue and alignment padding. Only *relative*
//! sizes matter for the evaluation (reductions are reported as
//! percentages), so any consistent linear model preserves the paper's
//! comparisons.

use crate::inst::Opcode;
use crate::function::Function;
use crate::module::Module;

/// Fixed per-function overhead in bytes (prologue, epilogue, padding).
pub const FUNCTION_OVERHEAD: u64 = 12;

/// Estimated encoded size in bytes of one instruction with opcode `op`:
/// the model reads nothing else of an instruction, which is what lets a
/// merged function be sized before it exists.
pub fn inst_size(op: Opcode) -> u64 {
    match op {
        // Phis become register moves on edges; most are coalesced away.
        Opcode::Phi => 1,
        Opcode::Ret => 1,
        Opcode::Unreachable => 1,
        Opcode::Br => 2,
        Opcode::CondBr => 4, // test + jcc
        Opcode::Invoke => 9, // call + landing metadata
        Opcode::Call => 5,
        Opcode::Select => 4, // cmov + setup
        Opcode::ICmp | Opcode::FCmp => 3,
        Opcode::Alloca => 4,
        Opcode::Load | Opcode::Store => 4,
        Opcode::Gep => 4, // lea
        Opcode::FNeg => 3,
        op if op.is_float_binary() => 4,
        op if op.is_int_binary() => 3,
        op if op.is_cast() => 3,
        _ => 3,
    }
}

/// Estimated size of a function definition in bytes (0 for declarations).
pub fn function_size(f: &Function) -> u64 {
    if f.is_declaration {
        return 0;
    }
    FUNCTION_OVERHEAD
        + f.linked_insts().map(|(_, i)| inst_size(i.op)).sum::<u64>()
}

/// Estimated size of the whole module's text section in bytes.
pub fn module_size(m: &Module) -> u64 {
    m.functions().map(|(_, f)| function_size(f)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Function;
    use crate::module::Module;

    #[test]
    fn declarations_are_free() {
        let mut m = Module::new("t");
        let v = m.types.void();
        m.add_function(Function::new_declaration("ext", vec![], v));
        assert_eq!(module_size(&m), 0);
    }

    #[test]
    fn size_grows_with_instructions() {
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let mut small = Function::new("small", vec![i32t], i32t);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut small);
            let e = b.create_block();
            b.position_at_end(e);
            let a = b.func().arg(0);
            b.ret(Some(a));
        }
        let mut big = Function::new("big", vec![i32t], i32t);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut big);
            let e = b.create_block();
            b.position_at_end(e);
            let mut acc = b.func().arg(0);
            for _ in 0..10 {
                acc = b.add(acc, acc);
            }
            b.ret(Some(acc));
        }
        assert!(function_size(&big) > function_size(&small));
        let s = m.add_function(small);
        let before = module_size(&m);
        m.add_function(big);
        assert!(module_size(&m) > before);
        let _ = s;
    }

    #[test]
    fn every_opcode_has_positive_size() {
        for op in Opcode::iter() {
            assert!(inst_size(op) > 0, "{op:?}");
        }
    }
}
