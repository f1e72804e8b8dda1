//! Functions and basic blocks.
//!
//! A [`Function`] owns three arenas — constants, instructions and blocks —
//! and two id pools, plus its parameter types and the ordered list of its
//! blocks (entry first). A value is named by a [`ValueId`] that says what it is: the
//! `i`-th argument is its parameter, an instruction's result is the
//! instruction, and only constants live in the constant arena, one per
//! operand that names one (nothing looks one up by content). So nothing
//! links a result back to its instruction, and [`Function::result`] is
//! the one rule for which instructions have one. Nothing links an
//! instruction to its block either: the block lists are the one record of
//! where each instruction is, and [`Function::placement`] reads them.
//!
//! An instruction's operand and target lists live in the function's two id
//! pools, one of values and one of blocks; the instruction holds a
//! `(start, len)` span of each. An edit that keeps or shrinks a list writes
//! it in place, and one that grows it moves it to its pool's end (a push
//! onto the pool's last list grows it where it is), leaving its old cells
//! dead. [`Function::inst`] lends an [`Instruction`] whose lists are
//! slices of the pools.

use crate::ids::{BlockId, FuncId, GlobalId, InstId, ValueId, ValueSlot};
use crate::inst::{Instruction, Opcode, Predicate};
use crate::types::{TypeId, TypeStore};
use crate::value::{normalize_int, Value, ValueKind};

/// Linkage of a function, which decides whether the merging pass may delete
/// or rewrite it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Linkage {
    /// Visible outside the module; body may be replaced by a thunk but the
    /// symbol must survive.
    #[default]
    External,
    /// Module-private; may be removed entirely once unused.
    Internal,
}

/// A basic block: an ordered list of instructions, the last of which is a
/// terminator (once the function is complete). A block is named by its
/// [`BlockId`] alone: the printer labels it `bbN` from the id, and the
/// labels of a parsed text live only while its body is parsed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Block {
    /// Instructions in execution order.
    pub insts: Vec<InstId>,
}

/// Where each instruction of a function is, as [`Function::placement`]
/// read it from the block lists; an edit to a list makes it stale.
#[derive(Clone, Debug)]
pub struct Placement(Vec<Option<(BlockId, usize)>>);

impl Placement {
    /// The block that lists `id` and its position there, or `None` if no
    /// block of the block order does (an unlinked instruction, or one
    /// added since).
    pub fn of(&self, id: InstId) -> Option<(BlockId, usize)> {
        self.0.get(id.index()).copied().flatten()
    }
}

/// A function definition or declaration.
#[derive(Clone, Debug)]
pub struct Function {
    /// Symbol name, unique within the module.
    pub name: String,
    /// Parameter types.
    pub params: Vec<TypeId>,
    /// Return type (`void` allowed).
    pub ret_ty: TypeId,
    /// Linkage.
    pub linkage: Linkage,
    /// `true` if the function has no body (external declaration).
    pub is_declaration: bool,
    /// Ordered blocks; the first is the entry block.
    pub block_order: Vec<BlockId>,
    constants: Vec<Value>,
    insts: Vec<Inst>,
    blocks: Vec<Block>,
    /// Every instruction's value operands, each list a span.
    operand_pool: Vec<ValueId>,
    /// Every instruction's block operands, each list a span.
    target_pool: Vec<BlockId>,
}

/// An instruction as its function stores it: each list is a span of the
/// pool of its kind.
#[derive(Clone, Debug)]
struct Inst {
    op: Opcode,
    pred: Option<Predicate>,
    ty: TypeId,
    aux_ty: Option<TypeId>,
    operands: Span,
    blocks: Span,
}

/// The list `pool[start..start + len]`.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }

    /// Writes `ids` as the list: in place if they fit, else at the end
    /// of `pool`.
    fn write<T: Copy>(&mut self, pool: &mut Vec<T>, ids: &[T]) {
        let old = self.range();
        if ids.len() <= old.len() {
            pool[old.start..old.start + ids.len()].copy_from_slice(ids);
        } else {
            self.start = pool_index(pool.len());
            pool.extend_from_slice(ids);
        }
        self.len = pool_index(ids.len());
    }

    /// Appends `id` to the list, moving the list to the end of `pool`
    /// first unless it is there.
    fn push<T: Copy>(&mut self, pool: &mut Vec<T>, id: T) {
        let old = self.range();
        if old.end != pool.len() {
            self.start = pool_index(pool.len());
            pool.extend_from_within(old);
        }
        pool.push(id);
        self.len += 1;
    }
}

/// A pool position or length as a span stores it.
fn pool_index(i: usize) -> u32 {
    u32::try_from(i).expect("id pool overflow")
}

impl Function {
    /// Creates an empty function definition; its arguments are
    /// [`Function::arg`]`(i)` for each parameter `i`.
    pub fn new(name: impl Into<String>, params: Vec<TypeId>, ret_ty: TypeId) -> Self {
        Function {
            name: name.into(),
            params,
            ret_ty,
            linkage: Linkage::External,
            is_declaration: false,
            block_order: Vec::new(),
            constants: Vec::new(),
            insts: Vec::new(),
            blocks: Vec::new(),
            operand_pool: Vec::new(),
            target_pool: Vec::new(),
        }
    }

    /// Creates an external declaration (no body).
    pub fn new_declaration(name: impl Into<String>, params: Vec<TypeId>, ret_ty: TypeId) -> Self {
        let mut f = Function::new(name, params, ret_ty);
        f.is_declaration = true;
        f
    }

    // ---- values ---------------------------------------------------------

    /// The value representing the `i`-th parameter.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn arg(&self, i: usize) -> ValueId {
        assert!(i < self.params.len(), "argument {i} of a function with {}", self.params.len());
        ValueId::arg(i)
    }

    /// The value `inst` produces, if it produces one: every instruction
    /// but a store has a result unless its type is `void`. The one rule
    /// for which instructions have results; an instruction never has a
    /// function type (the parser and the verifier refuse one).
    pub fn result(&self, inst: InstId) -> Option<ValueId> {
        let i = &self.insts[inst.index()];
        (i.ty != TypeId::VOID && i.op != Opcode::Store).then(|| ValueId::inst(inst))
    }

    /// Number of parameters.
    pub fn num_args(&self) -> usize {
        self.params.len()
    }

    /// What `id` names: an argument with its parameter's type, an
    /// instruction's result with the instruction's type, or a constant.
    #[inline]
    pub fn value(&self, id: ValueId) -> Value {
        match id.try_slot().expect("an id a function made") {
            ValueSlot::Arg(i) => Value { kind: ValueKind::Arg(i as u32), ty: self.params[i] },
            ValueSlot::Inst(i) => Value { kind: ValueKind::Inst(i), ty: self.insts[i.index()].ty },
            ValueSlot::Const(c) => self.constants[c],
        }
    }

    /// Number of constants in the arena (including any that only unlinked
    /// instructions name).
    pub fn num_constants(&self) -> usize {
        self.constants.len()
    }

    /// Iterates over the constant arena's `(id, value)` pairs.
    pub fn constants(&self) -> impl Iterator<Item = (ValueId, &Value)> {
        self.constants.iter().enumerate().map(|(i, v)| (ValueId::constant(i), v))
    }

    /// Adds an integer constant of type `ty` (an integer or pointer type),
    /// normalizing the payload to the type's width.
    pub fn const_int(&mut self, ts: &TypeStore, ty: TypeId, value: i64) -> ValueId {
        let value = match ts.int_bits(ty) {
            Some(bits) => normalize_int(value, bits),
            None => value,
        };
        self.push_const(Value { kind: ValueKind::ConstInt(value), ty })
    }

    /// Adds a floating-point constant of type `ty`.
    pub fn const_float(&mut self, ty: TypeId, value: f64) -> ValueId {
        self.push_const(Value { kind: ValueKind::ConstFloat(value.to_bits()), ty })
    }

    /// Adds `undef` of type `ty`.
    pub fn undef(&mut self, ty: TypeId) -> ValueId {
        self.push_const(Value { kind: ValueKind::Undef, ty })
    }

    /// Adds a reference to a function, of type `ptr`.
    pub fn func_ref(&mut self, f: FuncId) -> ValueId {
        self.push_const(Value { kind: ValueKind::FuncRef(f), ty: TypeId::PTR })
    }

    /// Adds a reference to a global, of type `ptr`.
    pub fn global_ref(&mut self, g: GlobalId) -> ValueId {
        self.push_const(Value { kind: ValueKind::GlobalRef(g), ty: TypeId::PTR })
    }

    /// Adds an arbitrary constant-like value, a new value on each call. A
    /// `ConstInt` must already be normalized to its type's width, as one
    /// copied from a value [`Function::const_int`] made is.
    ///
    /// # Panics
    ///
    /// Panics if the value is not constant-like.
    pub fn push_const(&mut self, v: Value) -> ValueId {
        assert!(v.is_constant_like(), "push_const on non-constant value");
        let id = ValueId::constant(self.constants.len());
        self.constants.push(v);
        id
    }

    // ---- blocks -----------------------------------------------------------

    /// Appends a new empty block at the end of the block order.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(Block::default());
        self.block_order.push(id);
        id
    }

    /// Looks up a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable block access. Its list is where its instructions are, and
    /// the verifier refuses one that two lists (or two slots) hold.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// The entry block.
    ///
    /// # Panics
    ///
    /// Panics if the function has no blocks (a declaration).
    pub fn entry(&self) -> BlockId {
        self.block_order[0]
    }

    /// Number of blocks linked into the function (the executable ones).
    pub fn num_blocks(&self) -> usize {
        self.block_order.len()
    }

    /// Size of the block arena, including blocks that were unlinked (e.g.
    /// by unreachable-block pruning). Analyses that index tables by
    /// [`BlockId`] must size them with this, not [`Function::num_blocks`].
    pub fn block_arena_len(&self) -> usize {
        self.blocks.len()
    }

    // ---- instructions ----------------------------------------------------

    /// Reserves room for exactly `blocks` more blocks, `insts` more
    /// instructions, `constants` more constants, `operands` more operands
    /// and `targets` more block operands: what a reader that has counted a
    /// body asks for before building it, so no arena or pool regrows on the
    /// way.
    pub(crate) fn reserve(
        &mut self,
        blocks: usize,
        insts: usize,
        constants: usize,
        operands: usize,
        targets: usize,
    ) {
        self.blocks.reserve_exact(blocks);
        self.block_order.reserve_exact(blocks);
        self.insts.reserve_exact(insts);
        self.constants.reserve_exact(constants);
        self.operand_pool.reserve_exact(operands);
        self.target_pool.reserve_exact(targets);
    }

    /// Appends `inst` to block `bb`. Returns it and its
    /// [`Function::result`].
    pub fn append_inst(&mut self, bb: BlockId, inst: Instruction) -> (InstId, Option<ValueId>) {
        let pos = self.blocks[bb.index()].insts.len();
        self.insert_inst(bb, pos, inst)
    }

    /// Inserts `inst` into block `bb` at position `pos` (0 = front).
    /// Returns it and its [`Function::result`].
    pub fn insert_inst(
        &mut self,
        bb: BlockId,
        pos: usize,
        inst: Instruction,
    ) -> (InstId, Option<ValueId>) {
        let id = InstId::from_index(self.insts.len());
        let (mut operands, mut blocks) = (Span::default(), Span::default());
        operands.write(&mut self.operand_pool, inst.operands);
        blocks.write(&mut self.target_pool, inst.blocks);
        let Instruction { op, ty, pred, aux_ty, .. } = inst;
        self.insts.push(Inst { op, pred, ty, aux_ty, operands, blocks });
        self.blocks[bb.index()].insts.insert(pos, id);
        (id, self.result(id))
    }

    /// Looks up an instruction.
    #[inline]
    pub fn inst(&self, id: InstId) -> Instruction<'_> {
        let i = &self.insts[id.index()];
        Instruction {
            op: i.op,
            ty: i.ty,
            operands: &self.operand_pool[i.operands.range()],
            blocks: &self.target_pool[i.blocks.range()],
            pred: i.pred,
            aux_ty: i.aux_ty,
        }
    }

    /// Replaces the operands of `id` with `ops`.
    pub fn set_operands(&mut self, id: InstId, ops: &[ValueId]) {
        self.insts[id.index()].operands.write(&mut self.operand_pool, ops);
    }

    /// Replaces the block operands of `id` with `blocks`.
    pub fn set_blocks(&mut self, id: InstId, blocks: &[BlockId]) {
        self.insts[id.index()].blocks.write(&mut self.target_pool, blocks);
    }

    /// Appends `v` to the operands of `id`.
    pub fn push_operand(&mut self, id: InstId, v: ValueId) {
        self.insts[id.index()].operands.push(&mut self.operand_pool, v);
    }

    /// Appends `bb` to the block operands of `id`.
    pub fn push_block(&mut self, id: InstId, bb: BlockId) {
        self.insts[id.index()].blocks.push(&mut self.target_pool, bb);
    }

    /// The operands of `id`, to write in place.
    pub fn operands_mut(&mut self, id: InstId) -> &mut [ValueId] {
        &mut self.operand_pool[self.insts[id.index()].operands.range()]
    }

    /// The block operands of `id`, to write in place.
    pub fn blocks_mut(&mut self, id: InstId) -> &mut [BlockId] {
        &mut self.target_pool[self.insts[id.index()].blocks.range()]
    }

    /// Sets the opcode of `id`.
    pub fn set_op(&mut self, id: InstId, op: Opcode) {
        self.insts[id.index()].op = op;
    }

    /// Sets the result type of `id`.
    pub fn set_ty(&mut self, id: InstId, ty: TypeId) {
        self.insts[id.index()].ty = ty;
    }

    /// Sets the comparison predicate of `id`.
    pub fn set_pred(&mut self, id: InstId, pred: Option<Predicate>) {
        self.insts[id.index()].pred = pred;
    }

    /// The lengths of the operand and the target pool: the cells of every
    /// instruction's lists, and the dead cells lists that grew left behind.
    pub fn pool_lens(&self) -> (usize, usize) {
        (self.operand_pool.len(), self.target_pool.len())
    }

    /// Bytes an instruction takes in the arena, its lists' pool cells
    /// aside.
    pub const INST_BYTES: usize = std::mem::size_of::<Inst>();

    /// Total number of instructions in the arena (including any that were
    /// unlinked from their blocks).
    pub fn num_insts(&self) -> usize {
        self.insts.len()
    }

    /// Number of instructions currently linked into blocks — the size used
    /// for fingerprints and the paper's "number of instructions" counts.
    pub fn num_linked_insts(&self) -> usize {
        self.block_order.iter().map(|&b| self.block(b).insts.len()).sum()
    }

    /// Iterates over instructions of a block in order.
    pub fn block_insts(&self, bb: BlockId) -> impl Iterator<Item = (InstId, Instruction<'_>)> {
        self.blocks[bb.index()].insts.iter().map(move |&i| (i, self.inst(i)))
    }

    /// Iterates over all instructions in block order.
    pub fn linked_insts(&self) -> impl Iterator<Item = (InstId, Instruction<'_>)> {
        self.block_order.iter().flat_map(move |&b| self.block_insts(b))
    }

    /// Where each instruction is, in one walk of the block order.
    ///
    /// # Errors
    ///
    /// The first instruction, in block order, that a block lists a second
    /// time (in another block or in the same one).
    pub fn placement(&self) -> Result<Placement, InstId> {
        let mut at = vec![None; self.insts.len()];
        for &bb in &self.block_order {
            for (pos, &i) in self.blocks[bb.index()].insts.iter().enumerate() {
                if at[i.index()].replace((bb, pos)).is_some() {
                    return Err(i);
                }
            }
        }
        Ok(Placement(at))
    }

    /// The terminator of `bb`, if the block is non-empty and ends in one.
    pub fn terminator(&self, bb: BlockId) -> Option<(InstId, Instruction<'_>)> {
        let last = *self.block(bb).insts.last()?;
        let inst = self.inst(last);
        inst.is_terminator().then_some((last, inst))
    }

    /// Position of the first non-phi instruction in `bb` — the "first legal
    /// point after the definition" for phi-defined values (Section III-E
    /// bug fix #1).
    pub fn first_non_phi(&self, bb: BlockId) -> usize {
        self.block(bb)
            .insts
            .iter()
            .position(|&i| self.inst(i).op != Opcode::Phi)
            .unwrap_or(self.block(bb).insts.len())
    }

    /// Removes `id` from the list of `bb`, the block that lists it. The
    /// arena entry remains (handles stay valid), but the instruction no
    /// longer executes or prints, and the verifier refuses a use of it: the
    /// caller must first redirect them, e.g. via [`Function::replace_all_uses`].
    pub fn unlink_inst(&mut self, bb: BlockId, id: InstId) {
        self.blocks[bb.index()].insts.retain(|&i| i != id);
    }

    /// Splits `bb` at instruction position `pos`: instructions from `pos`
    /// onward (including the terminator) move to a new block appended at
    /// the end of the block order, and `bb` is re-terminated with an
    /// unconditional branch to it. Phi incoming entries anywhere in the
    /// function that named `bb` are retargeted to the new block, since
    /// every edge the old terminator carried now leaves from the tail.
    ///
    /// Returns the new block.
    ///
    /// # Panics
    ///
    /// Panics if `pos` falls inside the leading phi group or past the last
    /// instruction (the split must leave a terminator to move).
    pub fn split_block(&mut self, bb: BlockId, pos: usize) -> BlockId {
        assert!(pos >= self.first_non_phi(bb), "cannot split inside the phi group");
        assert!(pos < self.block(bb).insts.len(), "split must leave a terminator to move");
        let tail = self.blocks[bb.index()].insts.split_off(pos);
        let new_bb = self.add_block();
        self.blocks[new_bb.index()].insts = tail;
        // The moved terminator's edges now originate from `new_bb`; phis in
        // its successors (including `bb` itself, for self-loops) track that.
        // `new_bb` holds no phis (the phi group stayed behind), so a global
        // rewrite of incoming-block entries is exact.
        for inst in self.insts.iter().filter(|i| i.op == Opcode::Phi) {
            for b in &mut self.target_pool[inst.blocks.range()] {
                if *b == bb {
                    *b = new_bb;
                }
            }
        }
        self.append_inst(bb, Instruction::new(Opcode::Br, TypeId::VOID, &[], &[new_bb]));
        new_bb
    }

    /// Replaces every use of `from` with `to` across all instructions (and
    /// in the operand pool's dead cells, which nothing reads).
    pub fn replace_all_uses(&mut self, from: ValueId, to: ValueId) {
        for op in &mut self.operand_pool {
            if *op == from {
                *op = to;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3m_prng::SmallRng;

    fn setup() -> (TypeStore, Function) {
        let mut ts = TypeStore::new();
        let i32t = ts.int(32);
        let f = Function::new("test", vec![i32t, i32t], i32t);
        (ts, f)
    }

    #[test]
    fn args_have_values() {
        let (_, f) = setup();
        assert_eq!(f.num_args(), 2);
        let a0 = f.value(f.arg(0));
        assert_eq!(a0.kind, ValueKind::Arg(0));
    }

    #[test]
    fn each_constant_is_its_own_value() {
        let (mut ts, mut f) = setup();
        let i32t = ts.int(32);
        let a = f.const_int(&ts, i32t, 7);
        let b = f.const_int(&ts, i32t, 7);
        assert_ne!(a, b);
        assert_eq!(f.value(a), f.value(b));
        let c = f.const_int(&ts, i32t, 8);
        assert_ne!(f.value(a), f.value(c));
    }

    #[test]
    fn const_int_normalizes_to_width() {
        let mut ts = TypeStore::new();
        let i8t = ts.int(8);
        let mut f = Function::new("t", vec![], i8t);
        let a = f.const_int(&ts, i8t, 255);
        let b = f.const_int(&ts, i8t, -1);
        assert_eq!(f.value(a), f.value(b), "255 and -1 are the same i8 pattern");
    }

    #[test]
    fn append_creates_results_for_first_class_types() {
        let (mut ts, mut f) = setup();
        let i32t = ts.int(32);
        let void = ts.void();
        let bb = f.add_block();
        let (a, b) = (f.arg(0), f.arg(1));
        let (_, res) = f.append_inst(
            bb,
            Instruction::new(Opcode::Add, i32t, &[a, b], &[]),
        );
        assert!(res.is_some());
        let (_, no_res) = f.append_inst(
            bb,
            Instruction::new(Opcode::Ret, void, &[res.unwrap()], &[]),
        );
        assert!(no_res.is_none());
        assert_eq!(f.num_linked_insts(), 2);
        assert!(f.terminator(bb).is_some());
    }

    #[test]
    fn first_non_phi_skips_leading_phis() {
        let (mut ts, mut f) = setup();
        let i32t = ts.int(32);
        let bb = f.add_block();
        let a = f.arg(0);
        let (ops, incoming) = ([a, a], [bb, bb]);
        let phi = Instruction::new(Opcode::Phi, i32t, &ops, &incoming);
        f.append_inst(bb, phi);
        f.append_inst(bb, phi);
        f.append_inst(bb, Instruction::new(Opcode::Add, i32t, &[a, a], &[]));
        assert_eq!(f.first_non_phi(bb), 2);
    }

    #[test]
    fn replace_all_uses_rewrites_operands() {
        let (mut ts, mut f) = setup();
        let i32t = ts.int(32);
        let bb = f.add_block();
        let (a, b) = (f.arg(0), f.arg(1));
        let (i, res) = f.append_inst(
            bb,
            Instruction::new(Opcode::Add, i32t, &[a, a], &[]),
        );
        f.replace_all_uses(a, b);
        assert_eq!(f.inst(i).operands[..], [b, b]);
        let _ = res;
    }

    #[test]
    fn unlink_inst_removes_from_block_only() {
        let (mut ts, mut f) = setup();
        let i32t = ts.int(32);
        let bb = f.add_block();
        let a = f.arg(0);
        let ops = [a, a];
        let add = Instruction::new(Opcode::Add, i32t, &ops, &[]);
        let (i0, _) = f.append_inst(bb, add);
        let (i1, _) = f.append_inst(bb, add);
        f.unlink_inst(bb, i0);
        assert_eq!(f.block(bb).insts, vec![i1]);
        let placed = f.placement().unwrap();
        assert_eq!((placed.of(i0), placed.of(i1)), (None, Some((bb, 0))));
        assert_eq!(f.num_insts(), 2, "arena entry survives unlinking");
    }

    #[test]
    fn split_block_moves_tail_and_rewires_phis() {
        // bb0: v = add; condbr -> bb1 / bb0 (self loop).
        // bb1 has a phi with incoming from bb0; after splitting bb0 past
        // the add, the edge into bb1 (and the self-loop edge) must come
        // from the new tail block.
        let mut ts = TypeStore::new();
        let i32t = ts.int(32);
        let boolt = ts.bool();
        let void = ts.void();
        let mut f = Function::new("t", vec![i32t], i32t);
        let bb0 = f.add_block();
        let bb1 = f.add_block();
        let a = f.arg(0);
        let (_, add) = f.append_inst(
            bb0,
            Instruction::new(Opcode::Add, i32t, &[a, a], &[]),
        );
        let (_, cond) = f.append_inst(
            bb0,
            Instruction { pred: Some(crate::inst::Predicate::Int(crate::inst::IntPredicate::Slt)), ..Instruction::new(Opcode::ICmp, boolt, &[a, add.unwrap()], &[]) },
        );
        f.append_inst(
            bb0,
            Instruction::new(Opcode::CondBr, void, &[cond.unwrap()], &[bb1, bb0]),
        );
        let (_, phi) = f.insert_inst(
            bb1,
            0,
            Instruction::new(Opcode::Phi, i32t, &[add.unwrap()], &[bb0]),
        );
        f.append_inst(
            bb1,
            Instruction::new(Opcode::Ret, void, &[phi.unwrap()], &[]),
        );
        let new_bb = f.split_block(bb0, 1);
        // bb0 keeps [add, br new_bb]; new_bb holds [icmp, condbr].
        assert_eq!(f.block(bb0).insts.len(), 2);
        assert_eq!(f.terminator(bb0).unwrap().1.blocks[..], [new_bb]);
        assert_eq!(f.block(new_bb).insts.len(), 2);
        let placed = f.placement().unwrap();
        for &i in &f.block(new_bb).insts {
            assert_eq!(placed.of(i).map(|(bb, _)| bb), Some(new_bb));
        }
        // The condbr's self-loop edge still points at bb0...
        assert_eq!(f.terminator(new_bb).unwrap().1.blocks[..], [bb1, bb0]);
        // ...and the phi in bb1 now names new_bb as its incoming.
        let (_, phi_inst) = f.block_insts(bb1).next().unwrap();
        assert_eq!(phi_inst.blocks[..], [new_bb]);
    }

    #[test]
    #[should_panic(expected = "phi group")]
    fn split_block_rejects_phi_group_positions() {
        let mut ts = TypeStore::new();
        let i32t = ts.int(32);
        let void = ts.void();
        let mut f = Function::new("t", vec![i32t], i32t);
        let bb = f.add_block();
        let a = f.arg(0);
        f.append_inst(
            bb,
            Instruction::new(Opcode::Phi, i32t, &[a], &[bb]),
        );
        f.append_inst(
            bb,
            Instruction::new(Opcode::Ret, void, &[a], &[]),
        );
        f.split_block(bb, 0);
    }

    #[test]
    fn linked_insts_follow_block_order() {
        let (mut ts, mut f) = setup();
        let void = ts.void();
        let bb0 = f.add_block();
        let bb1 = f.add_block();
        let (i0, _) = f.append_inst(bb0, Instruction::new(Opcode::Br, void, &[], &[bb1]));
        let (i1, _) = f.append_inst(
            bb1,
            Instruction::new(Opcode::Unreachable, void, &[], &[]),
        );
        assert_eq!(f.linked_insts().map(|(id, _)| id).collect::<Vec<_>>(), vec![i0, i1]);
    }

    /// The lists of one instruction, as the reference keeps them.
    type Lists = (Vec<ValueId>, Vec<BlockId>);

    /// One random edit, made to `f` and to `model` (each arena
    /// instruction's lists, by id): append, insert, a list set shorter,
    /// equal or longer, a slot write, a phi grown by one incoming (as
    /// `fuzz::mutate` grows one), an unlink, a use replaced, or a clone.
    fn pool_step(rng: &mut SmallRng, f: &mut Function, model: &mut Vec<Lists>) {
        let v = |rng: &mut SmallRng| ValueId::constant(rng.gen_range(0..64usize));
        let b = |rng: &mut SmallRng| BlockId::from_index(rng.gen_range(0..4usize));
        let bb = BlockId::from_index(rng.gen_range(0..f.block_arena_len()));
        let step = rng.gen_range(0..9u32);
        if model.is_empty() && (2..=5).contains(&step) {
            return;
        }
        let id = InstId::from_index(rng.gen_range(0..model.len().max(1)));
        let pools = f.pool_lens();
        match step {
            0 | 1 => {
                let ops: Vec<_> = (0..rng.gen_range(0..=5)).map(|_| v(rng)).collect();
                let bbs: Vec<_> = (0..rng.gen_range(0..=3)).map(|_| b(rng)).collect();
                let inst = Instruction::new(Opcode::Call, TypeId::VOID, &ops, &bbs);
                let new = if step == 0 {
                    f.append_inst(bb, inst).0
                } else {
                    let pos = rng.gen_range(0..=f.block(bb).insts.len());
                    f.insert_inst(bb, pos, inst).0
                };
                assert_eq!(new.index(), model.len());
                model.push((ops, bbs));
            }
            2 => {
                let len = (model[id.index()].0.len() + rng.gen_range(0..5usize)).saturating_sub(2);
                let ops: Vec<_> = (0..len).map(|_| v(rng)).collect();
                f.set_operands(id, &ops);
                if len <= model[id.index()].0.len() {
                    assert_eq!(f.pool_lens(), pools, "a list that does not grow stays in place");
                }
                model[id.index()].0 = ops;
            }
            3 => {
                let len = (model[id.index()].1.len() + rng.gen_range(0..5usize)).saturating_sub(2);
                let bbs: Vec<_> = (0..len).map(|_| b(rng)).collect();
                f.set_blocks(id, &bbs);
                if len <= model[id.index()].1.len() {
                    assert_eq!(f.pool_lens(), pools, "a list that does not grow stays in place");
                }
                model[id.index()].1 = bbs;
            }
            4 => {
                let (ops, bbs) = &mut model[id.index()];
                if !ops.is_empty() {
                    let (k, x) = (rng.gen_range(0..ops.len()), v(rng));
                    f.operands_mut(id)[k] = x;
                    ops[k] = x;
                }
                if !bbs.is_empty() {
                    let (k, x) = (rng.gen_range(0..bbs.len()), b(rng));
                    f.blocks_mut(id)[k] = x;
                    bbs[k] = x;
                }
            }
            5 => {
                let (x, y) = (b(rng), v(rng));
                f.push_block(id, x);
                f.push_operand(id, y);
                model[id.index()].1.push(x);
                model[id.index()].0.push(y);
            }
            6 => {
                if let Some(&i) = f.block(bb).insts.first() {
                    f.unlink_inst(bb, i);
                }
            }
            7 => {
                let (from, to) = (v(rng), v(rng));
                f.replace_all_uses(from, to);
                for op in model.iter_mut().flat_map(|(ops, _)| ops) {
                    if *op == from {
                        *op = to;
                    }
                }
            }
            _ => *f = f.clone(),
        }
    }

    /// Every arena instruction of `f` reads the lists `model` holds for it.
    fn pool_check(f: &Function, model: &[Lists], what: &str) {
        assert_eq!(f.num_insts(), model.len(), "{what}");
        for (i, (ops, bbs)) in model.iter().enumerate() {
            let inst = f.inst(InstId::from_index(i));
            assert_eq!((inst.operands, inst.blocks), (&ops[..], &bbs[..]), "{what}: inst {i}");
        }
        let live = model.iter().map(|(ops, bbs)| ops.len() + bbs.len()).sum::<usize>();
        let (operands, targets) = f.pool_lens();
        assert!(operands + targets >= live, "{what}: pools shorter than their lists");
    }

    /// The id pools against a `Vec` of lists per instruction, under random
    /// edits of every kind.
    ///
    /// Mutation check (scratch copy): a list that grows where it is, a
    /// push that forgets to move the list, or a `replace_all_uses` that
    /// skips the pool's last cell, each fail this test.
    #[test]
    fn pools_match_vecs() {
        let seeds = if cfg!(debug_assertions) { 1_000 } else { 10_000 };
        for seed in 0..seeds {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (_, mut f) = setup();
            for _ in 0..4 {
                f.add_block();
            }
            let mut model = Vec::new();
            for i in 0..40 {
                pool_step(&mut rng, &mut f, &mut model);
                pool_check(&f, &model, &format!("seed {seed} step {i}"));
            }
        }
    }

    /// An instruction is its opcode, predicate, two types and two spans:
    /// its lists are cells of the function's pools, not fields of its own.
    #[test]
    fn instructions_hold_spans_of_pools() {
        assert_eq!(Function::INST_BYTES, 36);
    }
}
