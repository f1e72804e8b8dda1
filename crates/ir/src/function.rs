//! Functions and basic blocks.
//!
//! A [`Function`] keeps its body flat: a constant arena, parallel arrays
//! indexed by [`InstId`] (opcode, type, and the instruction's list in the
//! operand pool), one span per block, and three id pools — of values, of
//! branch targets and of block lists — plus its parameter types and the
//! ordered list of its blocks (entry first). A value is named by a
//! [`ValueId`] that says what it is: the `i`-th argument is its parameter,
//! an instruction's result is the instruction, and only constants live in
//! the constant arena, one per operand that names one (nothing looks one
//! up by content). So nothing links a result back to its instruction, and
//! [`Function::result`] is the one rule for which instructions have one.
//! Nothing links an instruction to its block either: the block lists are
//! the one record of where each instruction is, and
//! [`Function::placement`] reads them.
//!
//! An instruction's list in the operand pool starts with its side cells —
//! the span of its targets in the target pool, its predicate, its
//! auxiliary type, each only if it has one — and goes on with its
//! operands, so the few instructions that have a target, a predicate or an
//! auxiliary type pay for it and the others do not. Every list, a block's
//! included, is a span of its pool. An edit that keeps or shrinks a list
//! writes it in place, and one that grows it moves it to its pool's end (a
//! push onto the pool's last list grows it where it is), leaving its old
//! cells dead; a clone compacts the pools. [`Function::inst`] lends an
//! [`Instruction`] whose lists are slices of the pools, and
//! [`Function::block`] a [`Block`] whose list is one.

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

/// A basic block, as [`Function::block`] lends it: an ordered list of
/// instructions, the last of which is a terminator (once the function is
/// complete). A block is named by its [`BlockId`] alone: the printer labels
/// it `bbN` from the id, and the labels of a parsed text live only while
/// its body is parsed. Its list is a span of the function's block pool,
/// edited through the function ([`Function::set_block_insts`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Block<'a> {
    /// Instructions in execution order.
    pub insts: &'a [InstId],
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
#[derive(Debug)]
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
    /// Each instruction's opcode.
    ops: Vec<Opcode>,
    /// Each instruction's result type.
    tys: Vec<TypeId>,
    /// Each instruction's list in `operand_pool`: side cells, operands.
    lists: Vec<List>,
    /// Every instruction's side cells and value operands.
    operand_pool: Vec<ValueId>,
    /// Every instruction's block operands, each list a span.
    target_pool: Vec<BlockId>,
    /// Each block's list in `block_pool`, by block id.
    blocks: Vec<Span>,
    /// Every block's instructions, each list a span.
    block_pool: Vec<InstId>,
}

/// The list `pool[start..start + len]`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    #[inline]
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

    /// Moves the list to the end of `pool` unless it is there, so that it
    /// can grow where it is.
    fn move_to_end<T: Copy>(&mut self, pool: &mut Vec<T>) {
        let old = self.range();
        if old.end != pool.len() {
            self.start = pool_index(pool.len());
            pool.extend_from_within(old);
        }
    }

    /// Inserts `id` at position `pos` of the list.
    fn insert<T: Copy>(&mut self, pool: &mut Vec<T>, pos: usize, id: T) {
        assert!(pos <= self.len as usize, "position {pos} past a list of {}", self.len);
        self.move_to_end(pool);
        pool.insert(self.start as usize + pos, id);
        self.len += 1;
    }

    /// Appends `id` to the list.
    fn push<T: Copy>(&mut self, pool: &mut Vec<T>, id: T) {
        self.move_to_end(pool);
        pool.push(id);
        self.len += 1;
    }
}

/// A pool position or length as a span stores it.
fn pool_index(i: usize) -> u32 {
    u32::try_from(i).expect("id pool overflow")
}

/// An instruction's list in the operand pool: from `start`, the side
/// cells its `flags` name, then `len` operands.
#[derive(Clone, Copy, Debug, Default)]
struct List {
    start: u32,
    /// The operand count, with the side flags in the top bits.
    meta: u32,
}

impl List {
    const LEN_BITS: u32 = 29;

    #[inline]
    fn flags(self) -> u32 {
        self.meta >> Self::LEN_BITS
    }

    #[inline]
    fn len(self) -> usize {
        (self.meta & ((1 << Self::LEN_BITS) - 1)) as usize
    }

    fn new(start: usize, flags: u32, len: usize) -> List {
        assert!(len < 1 << Self::LEN_BITS, "an operand list of {len}");
        List { start: pool_index(start), meta: flags << Self::LEN_BITS | len as u32 }
    }

    /// Side cells and operands.
    #[inline]
    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + Side::cells(self.flags()) + self.len()
    }

    /// The operands alone.
    #[inline]
    fn operands(self) -> std::ops::Range<usize> {
        let start = self.start as usize + Side::cells(self.flags());
        start..start + self.len()
    }
}

/// What an instruction holds besides its opcode, type and operands. Each
/// part it has is kept as cells at the head of its list: the target span
/// as two, the predicate as one, the auxiliary type as two.
#[derive(Clone, Copy, Default)]
struct Side {
    targets: Option<Span>,
    pred: Option<Predicate>,
    aux_ty: Option<TypeId>,
}

impl Side {
    const TARGETS: u32 = 1;
    const PRED: u32 = 2;
    const AUX_TY: u32 = 4;
    /// The most cells a side takes.
    const MAX_CELLS: usize = 5;

    /// The cells a side with `flags` takes.
    #[inline]
    fn cells(flags: u32) -> usize {
        2 * (flags & Self::TARGETS) as usize
            + (flags & Self::PRED != 0) as usize
            + 2 * (flags & Self::AUX_TY != 0) as usize
    }

    /// The flags of a side with targets, a predicate and an auxiliary
    /// type as these say.
    fn flags_of(targets: bool, pred: bool, aux_ty: bool) -> u32 {
        (u32::from(targets) * Self::TARGETS)
            | (u32::from(pred) * Self::PRED)
            | (u32::from(aux_ty) * Self::AUX_TY)
    }

    fn flags(&self) -> u32 {
        Self::flags_of(self.targets.is_some(), self.pred.is_some(), self.aux_ty.is_some())
    }

    /// The side a list with `flags` keeps in its head `cells`. Reading
    /// cannot fail, so a reader that uses no part of the side pays nothing
    /// for it.
    #[inline(always)]
    fn read(flags: u32, cells: &[ValueId]) -> Side {
        let word = |k: usize| cells.get(k).map_or(0, |v| v.0);
        let at_pred = 2 * (flags & Self::TARGETS) as usize;
        let at_aux = at_pred + (flags & Self::PRED != 0) as usize;
        let targets = (flags & Self::TARGETS != 0).then(|| Span { start: word(0), len: word(1) });
        let pred = (flags & Self::PRED != 0).then(|| Predicate::from_code(word(at_pred)));
        let aux_ty = (flags & Self::AUX_TY != 0)
            .then(|| TypeId::from_words([word(at_aux), word(at_aux + 1)]));
        Side { targets, pred, aux_ty }
    }

    /// The side's cells, as [`Side::read`] reads them, and how many.
    fn write(&self) -> ([ValueId; Self::MAX_CELLS], usize) {
        let mut cells = [ValueId(0); Self::MAX_CELLS];
        let mut n = 0;
        let mut put = |words: &[u32]| {
            for &w in words {
                cells[n] = ValueId(w);
                n += 1;
            }
        };
        if let Some(span) = self.targets {
            put(&[span.start, span.len]);
        }
        if let Some(pred) = self.pred {
            put(&[pred.code()]);
        }
        if let Some(ty) = self.aux_ty {
            put(&ty.to_words());
        }
        (cells, n)
    }
}

impl Clone for Function {
    /// A copy whose pools hold no dead cell: each list moves to its pool
    /// in id order.
    fn clone(&self) -> Self {
        let mut f = Function {
            name: self.name.clone(),
            params: self.params.clone(),
            ret_ty: self.ret_ty,
            linkage: self.linkage,
            is_declaration: self.is_declaration,
            block_order: self.block_order.clone(),
            constants: self.constants.clone(),
            ops: self.ops.clone(),
            tys: self.tys.clone(),
            lists: Vec::new(),
            operand_pool: Vec::new(),
            target_pool: Vec::new(),
            blocks: Vec::new(),
            block_pool: Vec::new(),
        };
        let [operands, targets, insts] = self.live_cells();
        if [operands, targets, insts] == self.pool_lens() {
            f.lists.clone_from(&self.lists);
            f.operand_pool.clone_from(&self.operand_pool);
            f.target_pool.clone_from(&self.target_pool);
            f.blocks.clone_from(&self.blocks);
            f.block_pool.clone_from(&self.block_pool);
            return f;
        }
        f.lists.reserve_exact(self.lists.len());
        f.operand_pool.reserve_exact(operands);
        f.target_pool.reserve_exact(targets);
        for i in 0..self.num_insts() {
            let list = f.push_lists(&self.inst(InstId::from_index(i)));
            f.lists.push(list);
        }
        f.blocks.reserve_exact(self.blocks.len());
        f.block_pool.reserve_exact(insts);
        for &span in &self.blocks {
            let start = f.block_pool.len();
            f.block_pool.extend_from_slice(&self.block_pool[span.range()]);
            f.blocks.push(Span { start: pool_index(start), len: span.len });
        }
        f
    }
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
            ops: Vec::new(),
            tys: Vec::new(),
            lists: Vec::new(),
            operand_pool: Vec::new(),
            target_pool: Vec::new(),
            blocks: Vec::new(),
            block_pool: Vec::new(),
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
    #[inline]
    pub fn result(&self, inst: InstId) -> Option<ValueId> {
        let (op, ty) = (self.ops[inst.index()], self.tys[inst.index()]);
        (ty != TypeId::VOID && op != Opcode::Store).then(|| ValueId::inst(inst))
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
            ValueSlot::Inst(i) => Value { kind: ValueKind::Inst(i), ty: self.tys[i.index()] },
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
        self.blocks.push(Span::default());
        self.block_order.push(id);
        id
    }

    /// Looks up a block.
    #[inline]
    pub fn block(&self, id: BlockId) -> Block<'_> {
        Block { insts: &self.block_pool[self.blocks[id.index()].range()] }
    }

    /// Replaces the list of `bb` with `insts`. The list is where its
    /// instructions are, and the verifier refuses one that two lists (or
    /// two slots) hold.
    pub fn set_block_insts(&mut self, bb: BlockId, insts: &[InstId]) {
        self.blocks[bb.index()].write(&mut self.block_pool, insts);
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
    /// instructions (and as many block list cells), `constants` more
    /// constants, `cells` more operand pool cells (operands and side cells,
    /// see [`Function::side_cells`]) and `targets` more block operands:
    /// what a reader that has counted a body asks for before building it,
    /// so no array or pool regrows on the way.
    pub(crate) fn reserve(
        &mut self,
        blocks: usize,
        insts: usize,
        constants: usize,
        cells: usize,
        targets: usize,
    ) {
        self.blocks.reserve_exact(blocks);
        self.block_order.reserve_exact(blocks);
        self.ops.reserve_exact(insts);
        self.tys.reserve_exact(insts);
        self.lists.reserve_exact(insts);
        self.block_pool.reserve_exact(insts);
        self.constants.reserve_exact(constants);
        self.operand_pool.reserve_exact(cells);
        self.target_pool.reserve_exact(targets);
    }

    /// The operand pool cells, besides its operands, of an instruction
    /// that has targets, a predicate and an auxiliary type as these say.
    pub(crate) fn side_cells(targets: bool, pred: bool, aux_ty: bool) -> usize {
        Side::cells(Side::flags_of(targets, pred, aux_ty))
    }

    /// Appends `inst` to block `bb`. Returns it and its
    /// [`Function::result`].
    pub fn append_inst(&mut self, bb: BlockId, inst: Instruction) -> (InstId, Option<ValueId>) {
        let pos = self.blocks[bb.index()].len as usize;
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
        let id = InstId::from_index(self.ops.len());
        let list = self.push_lists(&inst);
        self.lists.push(list);
        self.ops.push(inst.op);
        self.tys.push(inst.ty);
        self.link_inst(bb, pos, id);
        (id, self.result(id))
    }

    /// Appends the lists of `inst` to the pools — its targets, then its
    /// side cells and operands — and returns its list record.
    fn push_lists(&mut self, inst: &Instruction) -> List {
        let targets = (!inst.blocks.is_empty()).then(|| {
            let start = pool_index(self.target_pool.len());
            self.target_pool.extend_from_slice(inst.blocks);
            Span { start, len: pool_index(inst.blocks.len()) }
        });
        let side = Side { targets, pred: inst.pred, aux_ty: inst.aux_ty };
        let (cells, n) = side.write();
        let start = self.operand_pool.len();
        self.operand_pool.extend_from_slice(&cells[..n]);
        self.operand_pool.extend_from_slice(inst.operands);
        List::new(start, side.flags(), inst.operands.len())
    }

    /// Lists `id` in block `bb` at position `pos` (0 = front): the undo of
    /// [`Function::unlink_inst`].
    pub fn link_inst(&mut self, bb: BlockId, pos: usize, id: InstId) {
        self.blocks[bb.index()].insert(&mut self.block_pool, pos, id);
    }

    /// The side `list` keeps in its head cells.
    #[inline(always)]
    fn side_of(&self, list: List) -> Side {
        match list.flags() {
            0 => Side::default(),
            flags => Side::read(flags, self.operand_pool.get(list.start as usize..).unwrap_or(&[])),
        }
    }

    /// Looks up an instruction.
    #[inline(always)]
    pub fn inst(&self, id: InstId) -> Instruction<'_> {
        let i = id.index();
        let list = self.lists[i];
        let side = self.side_of(list);
        Instruction {
            op: self.ops[i],
            ty: self.tys[i],
            operands: &self.operand_pool[list.operands()],
            blocks: side.targets.and_then(|span| self.target_pool.get(span.range())).unwrap_or(&[]),
            pred: side.pred,
            aux_ty: side.aux_ty,
        }
    }

    /// Writes `side` as the side of `id`, with its operands: in place if
    /// the list does not grow, else where it grows (at the pool's end).
    fn set_side(&mut self, id: InstId, side: Side) {
        let list = self.lists[id.index()];
        let (old, operands) = (list.range(), list.operands());
        let (cells, n) = side.write();
        let start = if n <= operands.start - old.start {
            self.operand_pool.copy_within(operands, old.start + n);
            old.start
        } else {
            let start = self.operand_pool.len();
            self.operand_pool.resize(start + n, ValueId(0));
            self.operand_pool.extend_from_within(operands);
            start
        };
        self.operand_pool[start..start + n].copy_from_slice(&cells[..n]);
        self.lists[id.index()] = List::new(start, side.flags(), list.len());
    }

    /// Replaces the operands of `id` with `ops`.
    pub fn set_operands(&mut self, id: InstId, ops: &[ValueId]) {
        let list = &mut self.lists[id.index()];
        let old = list.range();
        let head = list.operands().start;
        let start = if head + ops.len() <= old.end {
            self.operand_pool[head..head + ops.len()].copy_from_slice(ops);
            old.start
        } else {
            let start = self.operand_pool.len();
            self.operand_pool.extend_from_within(old.start..head);
            self.operand_pool.extend_from_slice(ops);
            start
        };
        *list = List::new(start, list.flags(), ops.len());
    }

    /// Replaces the block operands of `id` with `blocks`.
    pub fn set_blocks(&mut self, id: InstId, blocks: &[BlockId]) {
        let mut side = self.side_of(self.lists[id.index()]);
        if side.targets.is_none() && blocks.is_empty() {
            return;
        }
        side.targets.get_or_insert_default().write(&mut self.target_pool, blocks);
        self.set_side(id, side);
    }

    /// Appends `v` to the operands of `id`.
    pub fn push_operand(&mut self, id: InstId, v: ValueId) {
        let list = &mut self.lists[id.index()];
        let old = list.range();
        let mut start = old.start;
        if old.end != self.operand_pool.len() {
            start = self.operand_pool.len();
            self.operand_pool.extend_from_within(old);
        }
        self.operand_pool.push(v);
        *list = List::new(start, list.flags(), list.len() + 1);
    }

    /// Appends `bb` to the block operands of `id`.
    pub fn push_block(&mut self, id: InstId, bb: BlockId) {
        let mut side = self.side_of(self.lists[id.index()]);
        side.targets.get_or_insert_default().push(&mut self.target_pool, bb);
        self.set_side(id, side);
    }

    /// The operands of `id`, to write in place.
    pub fn operands_mut(&mut self, id: InstId) -> &mut [ValueId] {
        &mut self.operand_pool[self.lists[id.index()].operands()]
    }

    /// The block operands of `id`, to write in place.
    pub fn blocks_mut(&mut self, id: InstId) -> &mut [BlockId] {
        match self.side_of(self.lists[id.index()]).targets {
            Some(span) => &mut self.target_pool[span.range()],
            None => &mut [],
        }
    }

    /// Sets the opcode of `id`; its lists, predicate and auxiliary type
    /// stay as they are.
    pub fn set_op(&mut self, id: InstId, op: Opcode) {
        self.ops[id.index()] = op;
    }

    /// Sets the result type of `id`.
    pub fn set_ty(&mut self, id: InstId, ty: TypeId) {
        self.tys[id.index()] = ty;
    }

    /// Sets the comparison predicate of `id`.
    pub fn set_pred(&mut self, id: InstId, pred: Option<Predicate>) {
        let side = Side { pred, ..self.side_of(self.lists[id.index()]) };
        self.set_side(id, side);
    }

    /// Sets the auxiliary type of `id`.
    pub fn set_aux_ty(&mut self, id: InstId, aux_ty: Option<TypeId>) {
        let side = Side { aux_ty, ..self.side_of(self.lists[id.index()]) };
        self.set_side(id, side);
    }

    /// The lengths of the operand, target and block pools: the cells of
    /// every list, and the dead cells lists that grew left behind.
    pub fn pool_lens(&self) -> [usize; 3] {
        [self.operand_pool.len(), self.target_pool.len(), self.block_pool.len()]
    }

    /// The live cells of the operand, target and block pools: those of
    /// every instruction's lists (linked or not) and of every block's.
    pub fn live_cells(&self) -> [usize; 3] {
        let mut cells = [0, 0, 0];
        for &list in &self.lists {
            cells[0] += list.range().len();
            cells[1] += self.side_of(list).targets.map_or(0, |span| span.len as usize);
        }
        cells[2] = self.blocks.iter().map(|span| span.len as usize).sum();
        cells
    }

    /// Bytes an instruction takes in the arrays (opcode, type and list
    /// span), its lists' pool cells aside.
    pub const INST_BYTES: usize = std::mem::size_of::<Opcode>()
        + std::mem::size_of::<TypeId>()
        + std::mem::size_of::<List>();

    /// Total number of instructions in the arena (including any that were
    /// unlinked from their blocks).
    pub fn num_insts(&self) -> usize {
        self.ops.len()
    }

    /// Number of instructions currently linked into blocks — the size used
    /// for fingerprints and the paper's "number of instructions" counts.
    pub fn num_linked_insts(&self) -> usize {
        self.block_order.iter().map(|&b| self.blocks[b.index()].len as usize).sum()
    }

    /// Iterates over instructions of a block in order.
    #[inline]
    pub fn block_insts(&self, bb: BlockId) -> impl Iterator<Item = (InstId, Instruction<'_>)> {
        self.block(bb).insts.iter().map(move |&i| (i, self.inst(i)))
    }

    /// Iterates over all instructions in block order.
    #[inline]
    pub fn linked_insts(&self) -> impl Iterator<Item = (InstId, Instruction<'_>)> {
        let ids = self.block_order.iter().flat_map(move |&b| self.block(b).insts);
        ids.map(move |&i| (i, self.inst(i)))
    }

    /// Where each instruction is, in one walk of the block order.
    ///
    /// # Errors
    ///
    /// The first instruction, in block order, that a block lists a second
    /// time (in another block or in the same one).
    pub fn placement(&self) -> Result<Placement, InstId> {
        let mut at = vec![None; self.num_insts()];
        for &bb in &self.block_order {
            for (pos, &i) in self.block(bb).insts.iter().enumerate() {
                if at[i.index()].replace((bb, pos)).is_some() {
                    return Err(i);
                }
            }
        }
        Ok(Placement(at))
    }

    /// The terminator of `bb`, if the block is non-empty and ends in one.
    #[inline]
    pub fn terminator(&self, bb: BlockId) -> Option<(InstId, Instruction<'_>)> {
        let last = *self.block(bb).insts.last()?;
        let inst = self.inst(last);
        inst.is_terminator().then_some((last, inst))
    }

    /// Position of the first non-phi instruction in `bb` — the "first legal
    /// point after the definition" for phi-defined values (Section III-E
    /// bug fix #1).
    #[inline]
    pub fn first_non_phi(&self, bb: BlockId) -> usize {
        let insts = self.block(bb).insts;
        insts.iter().position(|&i| self.ops[i.index()] != Opcode::Phi).unwrap_or(insts.len())
    }

    /// Removes `id` from the list of `bb`, the block that lists it. The
    /// arena entry remains (handles stay valid), but the instruction no
    /// longer executes or prints, and the verifier refuses a use of it: the
    /// caller must first redirect them, e.g. via [`Function::replace_all_uses`].
    pub fn unlink_inst(&mut self, bb: BlockId, id: InstId) {
        let span = &mut self.blocks[bb.index()];
        let list = &mut self.block_pool[span.range()];
        let mut kept = 0;
        for k in 0..list.len() {
            if list[k] != id {
                list[kept] = list[k];
                kept += 1;
            }
        }
        span.len = pool_index(kept);
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
        let head = self.blocks[bb.index()];
        assert!(pos < head.len as usize, "split must leave a terminator to move");
        let new_bb = self.add_block();
        // The tail is copied to the pool's end, and the head keeps its cells.
        let tail = head.start as usize + pos..head.range().end;
        let moved = Span { start: pool_index(self.block_pool.len()), len: pool_index(tail.len()) };
        self.block_pool.extend_from_within(tail);
        self.blocks[new_bb.index()] = moved;
        self.blocks[bb.index()].len = pool_index(pos);
        // The moved terminator's edges now originate from `new_bb`; phis in
        // its successors (including `bb` itself, for self-loops) track that.
        // `new_bb` holds no phis (the phi group stayed behind), so a global
        // rewrite of incoming-block entries is exact.
        for i in 0..self.num_insts() {
            if self.ops[i] == Opcode::Phi {
                for b in self.blocks_mut(InstId::from_index(i)) {
                    if *b == bb {
                        *b = new_bb;
                    }
                }
            }
        }
        self.append_inst(bb, Instruction::new(Opcode::Br, TypeId::VOID, &[], &[new_bb]));
        new_bb
    }

    /// Replaces every use of `from` with `to` across all instructions,
    /// linked or not.
    pub fn replace_all_uses(&mut self, from: ValueId, to: ValueId) {
        for list in &self.lists {
            for op in &mut self.operand_pool[list.operands()] {
                if *op == from {
                    *op = to;
                }
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
        assert_eq!(f.block(bb).insts, [i1]);
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
        for &i in f.block(new_bb).insts {
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

    /// One instruction as the reference keeps it.
    #[derive(Clone, Debug, PartialEq)]
    struct Model {
        op: Opcode,
        ops: Vec<ValueId>,
        bbs: Vec<BlockId>,
        pred: Option<Predicate>,
        aux_ty: Option<TypeId>,
    }

    /// Every arena instruction, by id, and every block's list, by id.
    #[derive(Default)]
    struct Reference {
        insts: Vec<Model>,
        blocks: Vec<Vec<InstId>>,
    }

    /// Opcodes of every kind the edits move an instruction between: a
    /// branch, an `alloca`, a compare, a phi, a call.
    const KINDS: [Opcode; 6] =
        [Opcode::Br, Opcode::CondBr, Opcode::Alloca, Opcode::ICmp, Opcode::Phi, Opcode::Call];

    fn some_pred(rng: &mut SmallRng) -> Option<Predicate> {
        use crate::inst::{FloatPredicate as Fp, IntPredicate as Ip};
        match rng.gen_range(0..3u32) {
            0 => None,
            1 => Some(Predicate::Int([Ip::Eq, Ip::Sle, Ip::Ugt][rng.gen_range(0..3usize)])),
            _ => Some(Predicate::Float([Fp::Oeq, Fp::Ole][rng.gen_range(0..2usize)])),
        }
    }

    fn some_ty(rng: &mut SmallRng, types: &[TypeId]) -> Option<TypeId> {
        rng.gen_bool(0.5).then(|| types[rng.gen_range(0..types.len())])
    }

    /// One random edit, made to `f` and to `model`: append or insert an
    /// instruction of any kind, set a list shorter, equal or longer, write
    /// a slot, grow a phi by one incoming (as `fuzz::mutate` grows one),
    /// unlink, relink, set or split a block list, replace a use, turn an
    /// instruction into another kind or give it another predicate or
    /// auxiliary type, or clone.
    fn pool_step(
        rng: &mut SmallRng,
        f: &mut Function,
        model: &mut Reference,
        types: &[TypeId],
    ) {
        // Arguments are ids with tag 0, whose words a side cell may hold
        // too: a rewrite that strays into side cells shows.
        let v = |rng: &mut SmallRng| match rng.gen_range(0..2u32) {
            0 => ValueId::arg(rng.gen_range(0..8usize)),
            _ => ValueId::constant(rng.gen_range(0..64usize)),
        };
        let b = |rng: &mut SmallRng| BlockId::from_index(rng.gen_range(0..4usize));
        let bb = BlockId::from_index(rng.gen_range(0..f.block_arena_len()));
        let step = rng.gen_range(0..15u32);
        if model.insts.is_empty() && step >= 2 {
            return;
        }
        let id = InstId::from_index(rng.gen_range(0..model.insts.len().max(1)));
        let pools = f.pool_lens();
        let at = |rng: &mut SmallRng, model: &Reference| {
            rng.gen_range(0..=model.blocks[bb.index()].len())
        };
        match step {
            0 | 1 => {
                let ops: Vec<_> = (0..rng.gen_range(0..=5)).map(|_| v(rng)).collect();
                let bbs: Vec<_> = (0..rng.gen_range(0..=3)).map(|_| b(rng)).collect();
                let (op, pred, aux_ty) =
                    (KINDS[rng.gen_range(0..KINDS.len())], some_pred(rng), some_ty(rng, types));
                let inst =
                    Instruction { pred, aux_ty, ..Instruction::new(op, TypeId::VOID, &ops, &bbs) };
                let pos = if step == 0 { model.blocks[bb.index()].len() } else { at(rng, model) };
                let new = f.insert_inst(bb, pos, inst).0;
                assert_eq!(new.index(), model.insts.len());
                model.insts.push(Model { op, ops, bbs, pred, aux_ty });
                model.blocks[bb.index()].insert(pos, new);
            }
            2 => {
                let old = model.insts[id.index()].ops.len();
                let len = (old + rng.gen_range(0..5usize)).saturating_sub(2);
                let ops: Vec<_> = (0..len).map(|_| v(rng)).collect();
                f.set_operands(id, &ops);
                if len <= old {
                    assert_eq!(f.pool_lens(), pools, "a list that does not grow stays in place");
                }
                model.insts[id.index()].ops = ops;
            }
            3 => {
                let old = model.insts[id.index()].bbs.len();
                let len = (old + rng.gen_range(0..5usize)).saturating_sub(2);
                let bbs: Vec<_> = (0..len).map(|_| b(rng)).collect();
                f.set_blocks(id, &bbs);
                if len <= old {
                    assert_eq!(f.pool_lens(), pools, "a list that does not grow stays in place");
                }
                model.insts[id.index()].bbs = bbs;
            }
            4 => {
                let m = &mut model.insts[id.index()];
                if !m.ops.is_empty() {
                    let (k, x) = (rng.gen_range(0..m.ops.len()), v(rng));
                    f.operands_mut(id)[k] = x;
                    m.ops[k] = x;
                }
                if !m.bbs.is_empty() {
                    let (k, x) = (rng.gen_range(0..m.bbs.len()), b(rng));
                    f.blocks_mut(id)[k] = x;
                    m.bbs[k] = x;
                }
            }
            5 => {
                let (x, y) = (b(rng), v(rng));
                f.push_block(id, x);
                f.push_operand(id, y);
                model.insts[id.index()].bbs.push(x);
                model.insts[id.index()].ops.push(y);
            }
            6 => {
                if let Some(&i) = model.blocks[bb.index()].first() {
                    f.unlink_inst(bb, i);
                    model.blocks[bb.index()].retain(|&j| j != i);
                }
            }
            7 => {
                let (from, to) = (v(rng), v(rng));
                f.replace_all_uses(from, to);
                for op in model.insts.iter_mut().flat_map(|m| &mut m.ops) {
                    if *op == from {
                        *op = to;
                    }
                }
            }
            8 => {
                let op = KINDS[rng.gen_range(0..KINDS.len())];
                f.set_op(id, op);
                model.insts[id.index()].op = op;
            }
            9 => {
                let pred = some_pred(rng);
                f.set_pred(id, pred);
                model.insts[id.index()].pred = pred;
            }
            10 => {
                let aux_ty = some_ty(rng, types);
                f.set_aux_ty(id, aux_ty);
                model.insts[id.index()].aux_ty = aux_ty;
            }
            11 => {
                let pos = at(rng, model);
                f.link_inst(bb, pos, id);
                model.blocks[bb.index()].insert(pos, id);
            }
            12 => {
                let list = &model.blocks[bb.index()];
                let len = (list.len() + rng.gen_range(0..4usize)).saturating_sub(2);
                let n = model.insts.len();
                let insts: Vec<_> =
                    (0..len).map(|_| InstId::from_index(rng.gen_range(0..n))).collect();
                f.set_block_insts(bb, &insts);
                if len <= list.len() {
                    assert_eq!(f.pool_lens(), pools, "a list that does not grow stays in place");
                }
                model.blocks[bb.index()] = insts;
            }
            13 => {
                let list = &model.blocks[bb.index()];
                let phis = list.iter().take_while(|i| model.insts[i.index()].op == Opcode::Phi);
                let first = phis.count();
                if first >= list.len() {
                    return;
                }
                let pos = rng.gen_range(first..list.len());
                let new_bb = f.split_block(bb, pos);
                assert_eq!(new_bb.index(), model.blocks.len());
                let tail = model.blocks[bb.index()].split_off(pos);
                model.blocks.push(tail);
                for m in model.insts.iter_mut().filter(|m| m.op == Opcode::Phi) {
                    for t in &mut m.bbs {
                        if *t == bb {
                            *t = new_bb;
                        }
                    }
                }
                let br = InstId::from_index(model.insts.len());
                model.insts.push(Model {
                    op: Opcode::Br,
                    ops: vec![],
                    bbs: vec![new_bb],
                    pred: None,
                    aux_ty: None,
                });
                model.blocks[bb.index()].push(br);
            }
            _ => {
                *f = f.clone();
                assert_eq!(f.pool_lens(), f.live_cells(), "a clone holds no dead cell");
            }
        }
    }

    /// Every arena instruction and every block of `f` reads what `model`
    /// holds for it.
    fn pool_check(f: &Function, model: &Reference, what: &str) {
        assert_eq!(f.num_insts(), model.insts.len(), "{what}");
        for (i, m) in model.insts.iter().enumerate() {
            let inst = f.inst(InstId::from_index(i));
            let got = Model {
                op: inst.op,
                ops: inst.operands.to_vec(),
                bbs: inst.blocks.to_vec(),
                pred: inst.pred,
                aux_ty: inst.aux_ty,
            };
            assert_eq!(&got, m, "{what}: inst {i}");
        }
        assert_eq!(f.block_arena_len(), model.blocks.len(), "{what}");
        for (b, list) in model.blocks.iter().enumerate() {
            assert_eq!(f.block(BlockId::from_index(b)).insts, &list[..], "{what}: block {b}");
        }
        let live = f.live_cells();
        let lens = f.pool_lens();
        assert!((0..3).all(|k| lens[k] >= live[k]), "{what}: pools shorter than their lists");
        let targets = model.insts.iter().map(|m| m.bbs.len()).sum::<usize>();
        let insts = model.blocks.iter().map(Vec::len).sum::<usize>();
        assert_eq!((live[1], live[2]), (targets, insts), "{what}: live cells");
    }

    /// The flat body against a `Vec` per list and a struct per
    /// instruction, under random edits of every kind.
    ///
    /// Mutation check (on a copy of the code): a block list that grows
    /// where it is, a `replace_all_uses` that writes a side cell, a side
    /// that keeps a part it lost, or a split that forgets the phis, each
    /// fail this test.
    #[test]
    fn pools_match_vecs() {
        let seeds = if cfg!(debug_assertions) { 1_000 } else { 10_000 };
        let mut ts = TypeStore::new();
        let i8t = ts.int(8);
        let types = [ts.int(32), i8t, TypeId::PTR, ts.array(i8t, 3)];
        for seed in 0..seeds {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (_, mut f) = setup();
            let mut model = Reference::default();
            for _ in 0..4 {
                f.add_block();
                model.blocks.push(Vec::new());
            }
            for i in 0..40 {
                pool_step(&mut rng, &mut f, &mut model, &types);
                pool_check(&f, &model, &format!("seed {seed} step {i}"));
            }
        }
    }

    /// A branch turned into an `alloca` and back reads what it was given,
    /// and no part it lost comes back.
    #[test]
    fn kinds_keep_no_stale_parts() {
        let (mut ts, mut f) = setup();
        let i8t = ts.int(8);
        let (bb0, bb1) = (f.add_block(), f.add_block());
        let (br, _) = f.append_inst(bb0, Instruction::new(Opcode::Br, TypeId::VOID, &[], &[bb1]));
        f.set_op(br, Opcode::Alloca);
        f.set_blocks(br, &[]);
        f.set_aux_ty(br, Some(i8t));
        f.set_ty(br, TypeId::PTR);
        let alloca = f.inst(br);
        assert_eq!((alloca.op, alloca.blocks, alloca.aux_ty), (Opcode::Alloca, &[][..], Some(i8t)));
        f.set_op(br, Opcode::Br);
        f.set_ty(br, TypeId::VOID);
        f.set_aux_ty(br, None);
        f.set_blocks(br, &[bb0]);
        assert_eq!(f.inst(br), Instruction::new(Opcode::Br, TypeId::VOID, &[], &[bb0]));
        assert_eq!(f.clone().inst(br), f.inst(br));
    }

    /// An instruction is its opcode, type and list span: its predicate,
    /// auxiliary type and targets are cells of its list, and its lists'
    /// cells are the pools', not fields of its own.
    #[test]
    fn instructions_hold_spans_of_pools() {
        assert_eq!(Function::INST_BYTES, 17);
    }
}
