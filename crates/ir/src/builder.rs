//! Ergonomic construction of IR.
//!
//! [`FunctionBuilder`] keeps a current insertion block and exposes one
//! method per instruction kind, handling result-value creation and typing.
//!
//! # Examples
//!
//! ```
//! use f3m_ir::builder::FunctionBuilder;
//! use f3m_ir::function::Function;
//! use f3m_ir::types::TypeStore;
//!
//! let mut ts = TypeStore::new();
//! let i32t = ts.int(32);
//! let mut f = Function::new("add3", vec![i32t, i32t, i32t], i32t);
//! let mut b = FunctionBuilder::new(&mut ts, &mut f);
//! let entry = b.create_block();
//! b.position_at_end(entry);
//! let t0 = b.add(b.func().arg(0), b.func().arg(1));
//! let t1 = b.add(t0, b.func().arg(2));
//! b.ret(Some(t1));
//! assert_eq!(f.num_linked_insts(), 3);
//! ```

use crate::ids::{BlockId, InstId, ValueId};
use crate::inst::{FloatPredicate, Instruction, IntPredicate, Opcode, Predicate};
use crate::function::Function;
use crate::types::{TypeId, TypeStore};

/// Builder for one function's body.
pub struct FunctionBuilder<'a> {
    ts: &'a mut TypeStore,
    f: &'a mut Function,
    cur: Option<BlockId>,
}

impl<'a> FunctionBuilder<'a> {
    /// Creates a builder over `f`, with no insertion point yet.
    pub fn new(ts: &'a mut TypeStore, f: &'a mut Function) -> Self {
        FunctionBuilder { ts, f, cur: None }
    }

    /// The function under construction.
    pub fn func(&self) -> &Function {
        self.f
    }

    /// Mutable access to the function under construction, for operations
    /// the builder does not wrap (constant interning, phi patching).
    pub fn func_mut(&mut self) -> &mut Function {
        self.f
    }

    /// The type store.
    pub fn types(&mut self) -> &mut TypeStore {
        self.ts
    }

    /// Appends a new block (does not change the insertion point).
    pub fn create_block(&mut self) -> BlockId {
        self.f.add_block()
    }

    /// Sets the insertion point to the end of `bb`.
    pub fn position_at_end(&mut self, bb: BlockId) {
        self.cur = Some(bb);
    }

    /// Current insertion block.
    ///
    /// # Panics
    ///
    /// Panics if no insertion point was set.
    pub fn current_block(&self) -> BlockId {
        self.cur.expect("no insertion point set")
    }

    fn emit(&mut self, inst: Instruction) -> (InstId, Option<ValueId>) {
        let bb = self.current_block();
        self.f.append_inst(bb, inst)
    }

    fn emit_valued(&mut self, inst: Instruction) -> ValueId {
        let op = inst.op;
        self.emit(inst).1.unwrap_or_else(|| panic!("{op:?} produced no value"))
    }

    // ---- constants (forwarded to the function, for convenience) ---------

    /// Integer constant of type `ty`.
    pub fn const_int(&mut self, ty: TypeId, v: i64) -> ValueId {
        self.f.const_int(self.ts, ty, v)
    }

    /// Float constant of type `ty`.
    pub fn const_float(&mut self, ty: TypeId, v: f64) -> ValueId {
        self.f.const_float(ty, v)
    }

    // ---- arithmetic -------------------------------------------------------

    /// Generic binary operation; the result type is the lhs type.
    pub fn binary(&mut self, op: Opcode, lhs: ValueId, rhs: ValueId) -> ValueId {
        assert!(op.is_binary(), "binary() with non-binary opcode {op:?}");
        let ty = self.f.value(lhs).ty;
        self.emit_valued(Instruction::new(op, ty, &[lhs, rhs], &[]))
    }

    /// `add`.
    pub fn add(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.binary(Opcode::Add, l, r)
    }

    /// `sub`.
    pub fn sub(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.binary(Opcode::Sub, l, r)
    }

    /// `mul`.
    pub fn mul(&mut self, l: ValueId, r: ValueId) -> ValueId {
        self.binary(Opcode::Mul, l, r)
    }

    /// `fneg`.
    pub fn fneg(&mut self, x: ValueId) -> ValueId {
        let ty = self.f.value(x).ty;
        self.emit_valued(Instruction::new(Opcode::FNeg, ty, &[x], &[]))
    }

    // ---- comparisons ------------------------------------------------------

    /// `icmp <pred>`; result is `i1`.
    pub fn icmp(&mut self, pred: IntPredicate, lhs: ValueId, rhs: ValueId) -> ValueId {
        let b = self.ts.bool();
        self.emit_valued(Instruction {
            pred: Some(Predicate::Int(pred)),
            ..Instruction::new(Opcode::ICmp, b, &[lhs, rhs], &[])
        })
    }

    /// `fcmp <pred>`; result is `i1`.
    pub fn fcmp(&mut self, pred: FloatPredicate, lhs: ValueId, rhs: ValueId) -> ValueId {
        let b = self.ts.bool();
        self.emit_valued(Instruction {
            pred: Some(Predicate::Float(pred)),
            ..Instruction::new(Opcode::FCmp, b, &[lhs, rhs], &[])
        })
    }

    /// `select cond, if_true, if_false`.
    pub fn select(&mut self, cond: ValueId, t: ValueId, e: ValueId) -> ValueId {
        let ty = self.f.value(t).ty;
        self.emit_valued(Instruction::new(Opcode::Select, ty, &[cond, t, e], &[]))
    }

    // ---- memory -------------------------------------------------------------

    /// `alloca ty` — stack slot; result is `ptr`.
    pub fn alloca(&mut self, ty: TypeId) -> ValueId {
        let p = self.ts.ptr();
        self.emit_valued(Instruction {
            aux_ty: Some(ty),
            ..Instruction::new(Opcode::Alloca, p, &[], &[])
        })
    }

    /// `load ty, ptr`.
    pub fn load(&mut self, ty: TypeId, ptr: ValueId) -> ValueId {
        self.emit_valued(Instruction::new(Opcode::Load, ty, &[ptr], &[]))
    }

    /// `store value, ptr`.
    pub fn store(&mut self, value: ValueId, ptr: ValueId) {
        let v = self.ts.void();
        self.emit(Instruction::new(Opcode::Store, v, &[value, ptr], &[]));
    }

    /// `gep elem_ty, ptr, index` — computes `ptr + index * sizeof(elem_ty)`.
    pub fn gep(&mut self, elem_ty: TypeId, ptr: ValueId, index: ValueId) -> ValueId {
        let p = self.ts.ptr();
        self.emit_valued(Instruction {
            aux_ty: Some(elem_ty),
            ..Instruction::new(Opcode::Gep, p, &[ptr, index], &[])
        })
    }

    // ---- casts ---------------------------------------------------------------

    /// Generic cast to `ty`.
    pub fn cast(&mut self, op: Opcode, x: ValueId, ty: TypeId) -> ValueId {
        assert!(op.is_cast(), "cast() with non-cast opcode {op:?}");
        self.emit_valued(Instruction::new(op, ty, &[x], &[]))
    }

    // ---- control flow ----------------------------------------------------------

    /// Unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        let v = self.ts.void();
        self.emit(Instruction::new(Opcode::Br, v, &[], &[target]));
    }

    /// Conditional branch on an `i1`.
    pub fn cond_br(&mut self, cond: ValueId, then_bb: BlockId, else_bb: BlockId) {
        let v = self.ts.void();
        self.emit(Instruction::new(Opcode::CondBr, v, &[cond], &[then_bb, else_bb]));
    }

    /// Return (with a value, or `None` for `ret void`).
    pub fn ret(&mut self, value: Option<ValueId>) {
        let v = self.ts.void();
        self.emit(Instruction::new(Opcode::Ret, v, value.as_slice(), &[]));
    }

    /// `unreachable`.
    pub fn unreachable(&mut self) {
        let v = self.ts.void();
        self.emit(Instruction::new(Opcode::Unreachable, v, &[], &[]));
    }

    /// `phi ty [v, bb]...`.
    pub fn phi(&mut self, ty: TypeId, incomings: &[(ValueId, BlockId)]) -> ValueId {
        let (ops, bbs): (Vec<_>, Vec<_>) = incomings.iter().copied().unzip();
        self.emit_valued(Instruction::new(Opcode::Phi, ty, &ops, &bbs))
    }

    /// Direct or indirect call; `ret_ty` is the callee's return type.
    /// Returns `None` when `ret_ty` is `void`.
    pub fn call(&mut self, callee: ValueId, args: &[ValueId], ret_ty: TypeId) -> Option<ValueId> {
        let ops: Vec<_> = std::iter::once(callee).chain(args.iter().copied()).collect();
        self.emit(Instruction::new(Opcode::Call, ret_ty, &ops, &[])).1
    }

    /// `invoke callee(args) to normal unwind exceptional`. Terminator.
    /// Returns the result value when `ret_ty` is first-class.
    pub fn invoke(
        &mut self,
        callee: ValueId,
        args: &[ValueId],
        ret_ty: TypeId,
        normal: BlockId,
        unwind: BlockId,
    ) -> Option<ValueId> {
        let ops: Vec<_> = std::iter::once(callee).chain(args.iter().copied()).collect();
        self.emit(Instruction::new(Opcode::Invoke, ret_ty, &ops, &[normal, unwind])).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TypeStore, Function) {
        let mut ts = TypeStore::new();
        let i32t = ts.int(32);
        let f = Function::new("t", vec![i32t, i32t], i32t);
        (ts, f)
    }

    #[test]
    fn builds_diamond_cfg() {
        let (mut ts, mut f) = setup();
        let mut b = FunctionBuilder::new(&mut ts, &mut f);
        let entry = b.create_block();
        let then_bb = b.create_block();
        let else_bb = b.create_block();
        let join = b.create_block();
        b.position_at_end(entry);
        let c = b.icmp(IntPredicate::Slt, b.func().arg(0), b.func().arg(1));
        b.cond_br(c, then_bb, else_bb);
        b.position_at_end(then_bb);
        let x = b.add(b.func().arg(0), b.func().arg(1));
        b.br(join);
        b.position_at_end(else_bb);
        let y = b.sub(b.func().arg(0), b.func().arg(1));
        b.br(join);
        b.position_at_end(join);
        let p = b.phi(b.func().value(x).ty, &[(x, then_bb), (y, else_bb)]);
        b.ret(Some(p));
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.num_linked_insts(), 8);
        let term = f.terminator(f.entry()).unwrap().1;
        assert_eq!(term.op, Opcode::CondBr);
        assert_eq!(term.successors().len(), 2);
    }

    #[test]
    fn call_void_returns_none() {
        let (mut ts, mut f) = setup();
        let void = ts.void();
        let mut b = FunctionBuilder::new(&mut ts, &mut f);
        let entry = b.create_block();
        b.position_at_end(entry);
        let callee = b.f.func_ref(crate::ids::FuncId::from_index(0));
        let r = b.call(callee, &[], void);
        assert!(r.is_none());
    }

    #[test]
    fn memory_ops_type_correctly() {
        let (mut ts, mut f) = setup();
        let i32t = ts.int(32);
        let mut b = FunctionBuilder::new(&mut ts, &mut f);
        let entry = b.create_block();
        b.position_at_end(entry);
        let slot = b.alloca(i32t);
        b.store(b.func().arg(0), slot);
        let v = b.load(i32t, slot);
        b.ret(Some(v));
        let slot_ty = b.func().value(slot).ty;
        let v_ty = b.func().value(v).ty;
        assert!(ts.is_ptr(slot_ty));
        assert_eq!(v_ty, i32t);
    }

    #[test]
    #[should_panic(expected = "non-binary opcode")]
    fn binary_rejects_non_binary() {
        let (mut ts, mut f) = setup();
        let mut b = FunctionBuilder::new(&mut ts, &mut f);
        let entry = b.create_block();
        b.position_at_end(entry);
        b.binary(Opcode::ICmp, b.func().arg(0), b.func().arg(1));
    }
}
