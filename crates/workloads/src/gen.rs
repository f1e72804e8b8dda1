//! Random function generation with controlled mutation.
//!
//! The key trick for producing realistic *function families* (clones that
//! drifted apart, template instantiations, copy-pasted handlers — the
//! redundancy function merging exploits) is to split randomness into two
//! streams:
//!
//! - the **structure stream**, seeded per family, drives every decision
//!   about CFG shape, opcode choice and operand selection;
//! - the **mutation stream**, seeded per member, perturbs individual
//!   decisions (opcode substitutions, constant changes, inserted or
//!   deleted instructions, integer-width retyping) at a configurable rate.
//!
//! Two members of the same family therefore have aligned structure with
//! divergence exactly where mutations hit — mirroring how similar
//! functions differ in real programs (cf. Figure 5 of the paper).

use f3m_prng::SmallRng;

use f3m_ir::builder::FunctionBuilder;
use f3m_ir::ids::{FuncId, ValueId};
use f3m_ir::inst::{FloatPredicate, IntPredicate, Opcode};
use f3m_ir::function::{Function, Linkage};
use f3m_ir::types::{TypeId, TypeStore};


/// Counter-based structural RNG.
///
/// Every draw advances the state by exactly one SplitMix64 step regardless
/// of the requested range, so two generation runs stay in lock-step even
/// when mutation-induced pool-size differences change the *values* being
/// requested. (`rand`'s `gen_range` uses rejection sampling, whose draw
/// count depends on the range — that would let siblings slip out of
/// alignment.)
#[derive(Clone, Debug)]
pub struct StreamRng {
    state: u64,
}

impl StreamRng {
    /// Creates a stream from a seed.
    pub fn new(seed: u64) -> StreamRng {
        StreamRng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (one draw).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn range(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform `i64` in `lo..=hi` (one draw).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        let span = (hi - lo + 1) as u64;
        lo + (self.next_u64() % span) as i64
    }

    /// Uniform float in `[0, 1)` (one draw).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw (one draw).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Mutation rates applied to one family member.
#[derive(Clone, Copy, Debug, Default)]
pub struct MutationProfile {
    /// Probability that an arithmetic opcode is substituted within its
    /// class.
    pub substitute: f64,
    /// Probability that an extra instruction is inserted after a slot.
    pub insert: f64,
    /// Probability that a non-essential instruction is skipped.
    pub delete: f64,
    /// Probability that a constant operand is perturbed.
    pub const_perturb: f64,
    /// Whether the whole function is retyped to the alternate integer
    /// width (i32 <-> i64) — the "same shape, different types" case.
    pub retype: bool,
    /// Whether straight-line runs are emitted in a member-specific order.
    /// Produces the Figure 5 trap: identical opcode histograms (so HyFM's
    /// fingerprint distance is ~0) with poor sequence alignment.
    pub shuffle: bool,
}

impl MutationProfile {
    /// No mutations: an exact clone.
    pub fn identical() -> Self {
        MutationProfile::default()
    }

    /// A lightly drifted clone (a few constants and opcodes differ).
    pub fn light() -> Self {
        MutationProfile {
            substitute: 0.04,
            insert: 0.03,
            delete: 0.02,
            const_perturb: 0.10,
            retype: false,
            shuffle: false,
        }
    }

    /// Noticeable drift; still profitably mergeable most of the time.
    pub fn medium() -> Self {
        MutationProfile {
            substitute: 0.12,
            insert: 0.08,
            delete: 0.06,
            const_perturb: 0.25,
            retype: false,
            shuffle: false,
        }
    }

    /// Same instruction multiset, different order: confuses frequency
    /// fingerprints but not MinHash.
    pub fn shuffled() -> Self {
        MutationProfile { shuffle: true, ..MutationProfile::identical() }
    }

    /// Heavy drift; alignment should often reject these.
    pub fn heavy() -> Self {
        MutationProfile {
            substitute: 0.30,
            insert: 0.20,
            delete: 0.15,
            const_perturb: 0.50,
            retype: false,
            shuffle: false,
        }
    }
}

/// Structural parameters of one generated function.
#[derive(Clone, Copy, Debug)]
pub struct ShapeParams {
    /// Approximate number of instructions to generate (pre-mutation).
    pub target_insts: usize,
    /// Integer width theme of the function (8/16/32/64). Families with
    /// different widths have disjoint instruction encodings, which keeps
    /// cross-family Jaccard similarity realistically low.
    pub int_bits: u32,
    /// Number of integer parameters.
    pub int_params: usize,
    /// Number of float parameters.
    pub float_params: usize,
    /// Fraction of arithmetic done in floating point.
    pub float_mix: f64,
    /// Probability of a control-flow region (diamond or loop) between
    /// straight-line runs.
    pub cfg_density: f64,
    /// Probability that a slot is a call to an external source.
    pub call_density: f64,
    /// Probability that a slot touches memory (alloca'd scratch).
    pub mem_density: f64,
    /// Whether the function may end a block with `invoke` instead of a
    /// plain call.
    pub allow_invoke: bool,
}

impl Default for ShapeParams {
    fn default() -> Self {
        ShapeParams {
            target_insts: 24,
            int_bits: 32,
            int_params: 2,
            float_params: 0,
            float_mix: 0.15,
            cfg_density: 0.25,
            call_density: 0.08,
            mem_density: 0.10,
            allow_invoke: false,
        }
    }
}

/// External declarations a generated module must contain.
/// `(name, int param?, returns)` — see [`declare_externals`].
pub const EXTERNALS: &[(&str, &str)] = &[
    ("ext_src_i32", "i32->i32"),
    ("ext_src_i64", "i64->i64"),
    ("ext_src_f64", "f64->f64"),
    ("ext_sink_i32", "i32->void"),
    ("ext_sink_i64", "i64->void"),
    ("ext_sink_f64", "f64->void"),
];

/// Adds the standard external declarations to a module and returns their
/// ids in [`EXTERNALS`] order.
pub fn declare_externals(m: &mut f3m_ir::module::Module) -> Vec<FuncId> {
    let i32t = m.types.int(32);
    let i64t = m.types.int(64);
    let f64t = m.types.f64();
    let void = m.types.void();
    let sigs: Vec<(&str, Vec<TypeId>, TypeId)> = vec![
        ("ext_src_i32", vec![i32t], i32t),
        ("ext_src_i64", vec![i64t], i64t),
        ("ext_src_f64", vec![f64t], f64t),
        ("ext_sink_i32", vec![i32t], void),
        ("ext_sink_i64", vec![i64t], void),
        ("ext_sink_f64", vec![f64t], void),
    ];
    sigs.into_iter()
        .map(|(name, params, ret)| {
            m.lookup_function(name).unwrap_or_else(|| {
                m.add_function(Function::new_declaration(name, params, ret))
            })
        })
        .collect()
}

/// Pools of generated values, by type class.
struct Pool {
    ints: Vec<ValueId>,
    floats: Vec<ValueId>,
}

/// Generator state for one function.
struct GenCtx<'a, 'b> {
    b: &'a mut FunctionBuilder<'b>,
    srng: StreamRng,
    mrng: SmallRng,
    profile: MutationProfile,
    pool: Pool,
    int_ty: TypeId,
    f64_ty: TypeId,
    externals: &'a [FuncId],
    scratch: Option<ValueId>,
    emitted: usize,
    unwind_block: Option<f3m_ir::ids::BlockId>,
    /// When set, operand picks only see pool entries below these marks —
    /// used in shuffle mode to keep a run's slots independent so they can
    /// be permuted without breaking SSA.
    pool_cap: Option<(usize, usize)>,
    /// The family's opcode dialect: the subset of [`INT_OPS`] this
    /// function draws from (mutation substitutions still use the full
    /// set, modelling one-off divergence).
    palette: Vec<Opcode>,
    /// The family's comparison-predicate dialect.
    pred_palette: Vec<IntPredicate>,
    /// A secondary integer width the family occasionally computes in,
    /// reached through casts (cast shingles are family-specific because
    /// both widths are encoded).
    sec_ty: TypeId,
    /// Length of the family's scratch array (its type is encoded into
    /// every `alloca` shingle).
    scratch_len: i64,
}

const INT_OPS: &[Opcode] = &[
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
    Opcode::Shl,
    Opcode::LShr,
    Opcode::AShr,
];

const FLOAT_OPS: &[Opcode] = &[Opcode::FAdd, Opcode::FSub, Opcode::FMul];

impl<'a, 'b> GenCtx<'a, 'b> {
    fn pick_int(&mut self) -> ValueId {
        let n = self.pool_cap.map_or(self.pool.ints.len(), |c| c.0);
        let i = self.srng.range(n);
        self.pool.ints[i]
    }

    fn pick_float(&mut self) -> ValueId {
        let n = self.pool_cap.map_or(self.pool.floats.len(), |c| c.1);
        let i = self.srng.range(n);
        self.pool.floats[i]
    }

    fn gen_const_int(&mut self) -> i64 {
        let mut c = self.srng.range_i64(-64, 64);
        if self.mrng.gen_bool(self.profile.const_perturb) {
            c = c.wrapping_add(self.mrng.gen_range(1..=16i64));
        }
        c
    }

    /// Emits one pseudo-random instruction slot.
    ///
    /// Structure-stream draws happen unconditionally so that a *deleted*
    /// slot (a mutation) keeps siblings aligned: only the emission and the
    /// pool push are skipped.
    fn emit_slot(&mut self, shape: &ShapeParams) {
        let deleted = self.mrng.gen_bool(self.profile.delete);
        let roll: f64 = self.srng.unit();
        if roll < shape.call_density {
            // Calls have side effects; deletion does not apply.
            self.emit_call(shape);
        } else if roll < shape.call_density + shape.mem_density {
            self.emit_mem(deleted);
        } else if self.srng.chance(shape.float_mix) {
            self.emit_float_op(deleted);
        } else if self.srng.chance(0.18) {
            self.emit_width_excursion(deleted);
        } else {
            self.emit_int_op(deleted);
        }
        // Mutation: extra inserted instruction drawn from the mutation
        // stream only.
        if self.mrng.gen_bool(self.profile.insert) {
            let limit = self.pool_cap.map_or(self.pool.ints.len(), |c| c.0);
            let a = self.pool.ints[self.mrng.gen_range(0..limit)];
            let c = self.mrng.gen_range(-31..=31i64);
            let cv = self.b.const_int(self.int_ty, c);
            let v = self.b.binary(
                INT_OPS[self.mrng.gen_range(0..INT_OPS.len())],
                a,
                cv,
            );
            // Inserted instructions are mutations: they do not advance the
            // structural slot counter, so siblings stay aligned.
            self.pool.ints.push(v);
        }
    }

    fn substituted(&mut self, ops: &[Opcode], chosen: usize) -> Opcode {
        if self.mrng.gen_bool(self.profile.substitute) {
            ops[self.mrng.gen_range(0..ops.len())]
        } else {
            ops[chosen]
        }
    }

    fn emit_int_op(&mut self, deleted: bool) {
        let chosen = self.srng.range(self.palette.len());
        let op = self.palette[chosen];
        let op = if self.mrng.gen_bool(self.profile.substitute) {
            INT_OPS[self.mrng.gen_range(0..INT_OPS.len())]
        } else {
            op
        };
        let a = self.pick_int();
        // Half the time combine with a constant, half with a pool value.
        let b = if self.srng.chance(0.5) {
            let c = self.gen_const_int();
            self.b.const_int(self.int_ty, c)
        } else {
            self.pick_int()
        };
        if !deleted {
            let v = self.b.binary(op, a, b);
            self.pool.ints.push(v);
        }
        self.emitted += 1;
        // Occasionally derive a comparison + select chain.
        if self.srng.chance(0.15) {
            let x = self.pick_int();
            let y = self.pick_int();
            let p = self.pred_palette[self.srng.range(self.pred_palette.len())];
            if !deleted {
                let c = self.b.icmp(p, x, y);
                let s = self.b.select(c, x, y);
                self.pool.ints.push(s);
            }
            self.emitted += 2;
        }
    }

    /// Computes briefly in the family's secondary integer width and casts
    /// back — cast shingles encode both widths, so they are family-unique.
    fn emit_width_excursion(&mut self, deleted: bool) {
        let chosen = self.srng.range(self.palette.len());
        let op = self.palette[chosen];
        let a = self.pick_int();
        let c = self.gen_const_int();
        self.emitted += 4;
        let _ = (op, a, c);
        if deleted || self.sec_ty == self.int_ty {
            return;
        }
        let prim_bits = self.b.types().int_bits(self.int_ty).expect("int theme");
        let sec_bits = self.b.types().int_bits(self.sec_ty).expect("sec width");
        let widen_op = if sec_bits > prim_bits { Opcode::SExt } else { Opcode::Trunc };
        let back_op = if sec_bits > prim_bits { Opcode::Trunc } else { Opcode::ZExt };
        let sec_ty = self.sec_ty;
        let wa = self.b.cast(widen_op, a, sec_ty);
        let cv = self.b.const_int(sec_ty, c);
        let r = self.b.binary(op, wa, cv);
        let int_ty = self.int_ty;
        let back = self.b.cast(back_op, r, int_ty);
        self.pool.ints.push(back);
    }

    fn emit_float_op(&mut self, deleted: bool) {
        let chosen = self.srng.range(FLOAT_OPS.len());
        let op = self.substituted(FLOAT_OPS, chosen);
        let a = self.pick_float();
        let b = if self.srng.chance(0.5) {
            let mut c: f64 = -8.0 + 16.0 * self.srng.unit();
            if self.mrng.gen_bool(self.profile.const_perturb) {
                c += 0.5;
            }
            self.b.const_float(self.f64_ty, c)
        } else {
            self.pick_float()
        };
        let chain = self.srng.chance(0.1);
        let x = if chain { Some(self.pick_float()) } else { None };
        self.emitted += 1 + if chain { 2 } else { 0 };
        if deleted {
            return;
        }
        let v = self.b.binary(op, a, b);
        self.pool.floats.push(v);
        if let Some(x) = x {
            let c = self.b.fcmp(FloatPredicate::Olt, v, x);
            let s = self.b.select(c, v, x);
            self.pool.floats.push(s);
        }
    }

    fn emit_mem(&mut self, deleted: bool) {
        let idx = self.srng.range_i64(0, self.scratch_len - 1);
        let is_store = self.srng.chance(0.5);
        let v = self.pick_int();
        self.emitted += 2;
        let slot = match self.scratch {
            Some(s) => s,
            None => return, // scratch allocated only in the entry block
        };
        if deleted {
            return;
        }
        let iv = self.b.const_int(self.int_ty, idx);
        let p = self.b.gep(self.int_ty, slot, iv);
        if is_store {
            self.b.store(v, p);
        } else {
            let l = self.b.load(self.int_ty, p);
            self.pool.ints.push(l);
        }
    }

    fn emit_call(&mut self, shape: &ShapeParams) {
        // ext_src of the function's integer width, or f64.
        let use_float = self.srng.chance(shape.float_mix);
        if use_float {
            let arg = self.pick_float();
            let callee_id = self.externals[2];
            let callee = self.b.func_mut().func_ref(callee_id);
            let v = self.b.call(callee, &[arg], self.f64_ty).expect("f64 src");
            self.pool.floats.push(v);
        } else {
            let raw = self.pick_int();
            let bits = self
                .b
                .types()
                .int_bits(self.int_ty)
                .expect("integer theme");
            // ext_src comes in i32 and i64 flavours; narrower themes cast
            // through i32 (adding realistic cast traffic).
            let (callee_id, call_ty, arg) = if bits == 64 {
                (self.externals[1], self.b.types().int(64), raw)
            } else if bits == 32 {
                (self.externals[0], self.b.types().int(32), raw)
            } else {
                let i32t = self.b.types().int(32);
                let widened = self.b.cast(Opcode::SExt, raw, i32t);
                self.emitted += 1;
                (self.externals[0], i32t, widened)
            };
            let callee = self.b.func_mut().func_ref(callee_id);
            if shape.allow_invoke && self.srng.chance(0.25) {
                // Invoke: terminator; continue in the normal block.
                let normal = self.b.create_block();
                let unwind = self.unwind_block.expect("unwind block pre-created");
                let v = self
                    .b
                    .invoke(callee, &[arg], call_ty, normal, unwind)
                    .expect("int src");
                self.b.position_at_end(normal);
                self.push_int_result(v, call_ty);
                self.emitted += 1;
                return;
            }
            let v = self.b.call(callee, &[arg], call_ty).expect("int src");
            self.push_int_result(v, call_ty);
        }
        self.emitted += 1;
    }

    /// Pushes a call result into the integer pool, narrowing back to the
    /// function's integer theme when the external was wider.
    fn push_int_result(&mut self, v: ValueId, call_ty: TypeId) {
        if call_ty == self.int_ty {
            self.pool.ints.push(v);
        } else {
            let narrowed = self.b.cast(Opcode::Trunc, v, self.int_ty);
            self.emitted += 1;
            self.pool.ints.push(narrowed);
        }
    }
}

/// Generates one function.
///
/// `struct_seed` fixes the family structure; `member_seed` drives
/// mutations under `profile`. Callers pass the same `struct_seed` for all
/// members of a family.
#[allow(clippy::too_many_arguments)]
pub fn generate_function(
    ts: &mut TypeStore,
    externals: &[FuncId],
    name: &str,
    shape: &ShapeParams,
    struct_seed: u64,
    member_seed: u64,
    profile: &MutationProfile,
    linkage: Linkage,
) -> Function {
    let bits = if profile.retype {
        // The "same shape, different types" clone: one width over.
        match shape.int_bits {
            8 => 16,
            16 => 32,
            32 => 64,
            _ => 32,
        }
    } else {
        shape.int_bits
    };
    let int_ty = ts.int(bits);
    let f64_ty = ts.f64();
    let mut params: Vec<TypeId> = Vec::new();
    for _ in 0..shape.int_params.max(1) {
        params.push(int_ty);
    }
    for _ in 0..shape.float_params {
        params.push(f64_ty);
    }
    let mut f = Function::new(name, params.clone(), int_ty);
    f.linkage = linkage;

    let mut b = FunctionBuilder::new(ts, &mut f);
    let entry = b.create_block();
    b.position_at_end(entry);

    let mut ctx = {
        let mut pool = Pool { ints: Vec::new(), floats: Vec::new() };
        for (i, _) in params.iter().enumerate().take(shape.int_params.max(1)) {
            pool.ints.push(b.func().arg(i));
        }
        for i in 0..shape.float_params {
            pool.floats.push(b.func().arg(shape.int_params.max(1) + i));
        }
        GenCtx {
            b: &mut b,
            srng: StreamRng::new(struct_seed),
            mrng: SmallRng::seed_from_u64(member_seed),
            profile: *profile,
            pool,
            int_ty,
            f64_ty,
            externals,
            scratch: None,
            emitted: 0,
            unwind_block: None,
            pool_cap: None,
            palette: Vec::new(),
            pred_palette: Vec::new(),
            sec_ty: int_ty,
            scratch_len: 8,
        }
    };
    // Draw the family dialect: 4-7 integer opcodes out of the full set,
    // two comparison predicates, a secondary width and a scratch shape.
    {
        let count = 4 + ctx.srng.range(4);
        let mut pool: Vec<Opcode> = INT_OPS.to_vec();
        for _ in 0..count.min(pool.len()) {
            let i = ctx.srng.range(pool.len());
            ctx.palette.push(pool.swap_remove(i));
        }
        const ALL_PREDS: [IntPredicate; 10] = [
            IntPredicate::Eq,
            IntPredicate::Ne,
            IntPredicate::Ugt,
            IntPredicate::Uge,
            IntPredicate::Ult,
            IntPredicate::Ule,
            IntPredicate::Sgt,
            IntPredicate::Sge,
            IntPredicate::Slt,
            IntPredicate::Sle,
        ];
        let p1 = ctx.srng.range(ALL_PREDS.len());
        let p2 = ctx.srng.range(ALL_PREDS.len());
        ctx.pred_palette = vec![ALL_PREDS[p1], ALL_PREDS[p2]];
        let widths = [8u32, 16, 32, 64];
        let w = widths[ctx.srng.range(widths.len())];
        ctx.sec_ty = ctx.b.types().int(w);
        ctx.scratch_len = 3 + ctx.srng.range(21) as i64;
    }

    // Seed the pools with a couple of constants so operand picks always
    // succeed.
    let c1 = ctx.srng.range_i64(1, 9);
    let c1v = ctx.b.const_int(int_ty, c1);
    ctx.pool.ints.push(c1v);
    if shape.float_mix > 0.0 {
        let fc = ctx.b.const_float(f64_ty, 1.5);
        ctx.pool.floats.push(fc);
    }

    // Scratch buffer for memory traffic; its length (hence its array
    // type, hence the alloca shingle) is a family trait.
    if shape.mem_density > 0.0 {
        let arr = {
            let len = ctx.scratch_len as u64;
            let t = ctx.b.types().array(int_ty, len);
            ctx.b.alloca(t)
        };
        ctx.scratch = Some(arr);
        ctx.emitted += 1;
    }
    // Pre-create the unwind sink when invokes are allowed.
    if shape.allow_invoke {
        let uw = ctx.b.create_block();
        ctx.unwind_block = Some(uw);
    }

    // Main generation loop: straight-line runs interleaved with regions.
    while ctx.emitted < shape.target_insts {
        let run = 2 + ctx.srng.range(4);
        let run_block = ctx.b.current_block();
        let run_start = ctx.b.func().block(run_block).insts.len();
        if profile.shuffle {
            ctx.pool_cap = Some((ctx.pool.ints.len(), ctx.pool.floats.len()));
        }
        let mut groups: Vec<usize> = Vec::with_capacity(run + 1);
        groups.push(run_start);
        for _ in 0..run {
            ctx.emit_slot(shape);
            if ctx.b.current_block() == run_block {
                groups.push(ctx.b.func().block(run_block).insts.len());
            }
        }
        ctx.pool_cap = None;
        // Shuffle mode: permute the slot groups of this run (each group's
        // instructions only read pre-run values, so any order is valid
        // SSA). Skipped when an invoke moved emission to another block.
        if profile.shuffle
            && ctx.b.current_block() == run_block
            && groups.len() > 2
        {
            let slice: Vec<Vec<f3m_ir::ids::InstId>> = groups
                .windows(2)
                .map(|w| ctx.b.func().block(run_block).insts[w[0]..w[1]].to_vec())
                .collect();
            let mut order: Vec<usize> = (0..slice.len()).collect();
            // Fisher–Yates with the member-specific stream.
            for i in (1..order.len()).rev() {
                let j = ctx.mrng.gen_range(0..=i);
                order.swap(i, j);
            }
            let mut rebuilt = Vec::new();
            for &g in &order {
                rebuilt.extend_from_slice(&slice[g]);
            }
            let f = ctx.b.func_mut();
            let insts = &mut f.block_mut(run_block).insts;
            insts.truncate(run_start);
            insts.extend(rebuilt);
        }
        if ctx.emitted >= shape.target_insts {
            break;
        }
        if ctx.srng.chance(shape.cfg_density) {
            if ctx.srng.chance(0.35) {
                emit_loop(&mut ctx, shape);
            } else {
                emit_diamond(&mut ctx, shape);
            }
        }
    }

    // Return a value folding several pool entries together, so most of
    // the computation is live (random expression trees otherwise leave a
    // lot of dead code, which would inflate merge savings for free).
    let mut ret = ctx.pick_int();
    for _ in 0..3 {
        let v = ctx.pick_int();
        ret = ctx.b.binary(Opcode::Xor, ret, v);
    }
    if shape.float_mix > 0.0 {
        let fv = ctx.pick_float();
        let as_int = ctx.b.cast(Opcode::FPToSI, fv, int_ty);
        ret = ctx.b.binary(Opcode::Add, ret, as_int);
    }
    ctx.b.ret(Some(ret));

    // Terminate the unwind sink (never executed).
    if let Some(uw) = ctx.unwind_block {
        ctx.b.position_at_end(uw);
        ctx.b.unreachable();
    }

    f
}

/// Emits an if/else diamond with small bodies and a phi join.
fn emit_diamond(ctx: &mut GenCtx<'_, '_>, shape: &ShapeParams) {
    let x = ctx.pick_int();
    let y = ctx.pick_int();
    let p = ctx.pred_palette[ctx.srng.range(ctx.pred_palette.len())];
    let cond = ctx.b.icmp(p, x, y);
    let then_bb = ctx.b.create_block();
    let else_bb = ctx.b.create_block();
    let join = ctx.b.create_block();
    ctx.b.cond_br(cond, then_bb, else_bb);
    ctx.emitted += 2;

    ctx.b.position_at_end(then_bb);
    let n_then = 1 + ctx.srng.range(3);
    let int_mark = ctx.pool.ints.len();
    let float_mark = ctx.pool.floats.len();
    for _ in 0..n_then {
        ctx.emit_slot(shape);
    }
    let tv = ctx.pick_int();
    ctx.b.br(join);
    ctx.emitted += 1;
    let then_end = ctx.b.current_block();

    // Values defined in the then-branch do not dominate the join; restrict
    // the pools to pre-branch values for the else side and afterwards.
    ctx.pool.ints.truncate(int_mark);
    ctx.pool.floats.truncate(float_mark);

    ctx.b.position_at_end(else_bb);
    let n_else = 1 + ctx.srng.range(3);
    for _ in 0..n_else {
        ctx.emit_slot(shape);
    }
    let ev = ctx.pick_int();
    ctx.b.br(join);
    ctx.emitted += 1;
    let else_end = ctx.b.current_block();
    ctx.pool.ints.truncate(int_mark);
    ctx.pool.floats.truncate(float_mark);

    ctx.b.position_at_end(join);
    let phi = ctx.b.phi(ctx.int_ty, &[(tv, then_end), (ev, else_end)]);
    ctx.pool.ints.push(phi);
    ctx.emitted += 1;
}

/// Emits a bounded counting loop whose body folds pool values into an
/// accumulator.
fn emit_loop(ctx: &mut GenCtx<'_, '_>, shape: &ShapeParams) {
    let _ = shape;
    let trip = ctx.srng.range_i64(2, 6);
    let pre = ctx.b.current_block();
    let header = ctx.b.create_block();
    let body = ctx.b.create_block();
    let exit = ctx.b.create_block();

    let init = ctx.pick_int();
    let zero = ctx.b.const_int(ctx.int_ty, 0);
    let tripv = ctx.b.const_int(ctx.int_ty, trip);
    ctx.b.br(header);

    // header: phi for counter and accumulator.
    ctx.b.position_at_end(header);
    // Placeholder incomings for the back edge are patched after the body.
    let counter = ctx.b.phi(ctx.int_ty, &[(zero, pre), (zero, body)]);
    let acc = ctx.b.phi(ctx.int_ty, &[(init, pre), (init, body)]);
    let cmp = ctx.b.icmp(IntPredicate::Slt, counter, tripv);
    ctx.b.cond_br(cmp, body, exit);
    ctx.emitted += 4;

    // body
    ctx.b.position_at_end(body);
    let step = ctx.pick_int();
    let ops = [Opcode::Add, Opcode::Xor, Opcode::Sub];
    let op = {
        let chosen = ctx.srng.range(ops.len());
        ctx.substituted(&ops, chosen)
    };
    let acc2 = ctx.b.binary(op, acc, step);
    let one = ctx.b.const_int(ctx.int_ty, 1);
    let counter2 = ctx.b.add(counter, one);
    ctx.b.br(header);
    ctx.emitted += 3;

    // Patch the back-edge incomings.
    {
        let f = ctx.b.func_mut();
        let hdr_insts: Vec<_> = f.block(header).insts.clone();
        let counter_phi = hdr_insts[0];
        let acc_phi = hdr_insts[1];
        f.operands_mut(counter_phi)[1] = counter2;
        f.operands_mut(acc_phi)[1] = acc2;
    }

    ctx.b.position_at_end(exit);
    ctx.pool.ints.push(acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3m_ir::module::Module;
    use f3m_ir::verify::verify_module;

    fn gen_into_module(
        shape: &ShapeParams,
        struct_seed: u64,
        member_seed: u64,
        profile: &MutationProfile,
    ) -> Module {
        let mut m = Module::new("g");
        let ext = declare_externals(&mut m);
        let f = generate_function(
            &mut m.types,
            &ext,
            "gen0",
            shape,
            struct_seed,
            member_seed,
            profile,
            Linkage::External,
        );
        m.add_function(f);
        m
    }

    #[test]
    fn generated_functions_verify() {
        for seed in 0..30u64 {
            let shape = ShapeParams::default();
            let m = gen_into_module(&shape, seed, seed * 7 + 1, &MutationProfile::light());
            verify_module(&m).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        }
    }

    #[test]
    fn generated_functions_with_heavy_cfg_verify() {
        for seed in 0..20u64 {
            let shape = ShapeParams {
                target_insts: 60,
                cfg_density: 0.6,
                float_mix: 0.3,
                mem_density: 0.2,
                ..ShapeParams::default()
            };
            let m = gen_into_module(&shape, seed, seed, &MutationProfile::medium());
            verify_module(&m).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        }
    }

    #[test]
    fn invoke_generation_verifies() {
        for seed in 0..20u64 {
            let shape = ShapeParams {
                target_insts: 40,
                call_density: 0.3,
                allow_invoke: true,
                ..ShapeParams::default()
            };
            let m = gen_into_module(&shape, seed, seed, &MutationProfile::identical());
            verify_module(&m).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        }
    }

    #[test]
    fn same_seeds_generate_identical_functions() {
        let shape = ShapeParams::default();
        let m1 = gen_into_module(&shape, 42, 1, &MutationProfile::identical());
        let m2 = gen_into_module(&shape, 42, 2, &MutationProfile::identical());
        let p1 = f3m_ir::printer::print_module(&m1);
        let p2 = f3m_ir::printer::print_module(&m2);
        assert_eq!(p1, p2, "no mutations => member seed is irrelevant");
    }

    #[test]
    fn mutations_create_divergence() {
        let shape = ShapeParams::default();
        let m1 = gen_into_module(&shape, 42, 1, &MutationProfile::medium());
        let m2 = gen_into_module(&shape, 42, 2, &MutationProfile::medium());
        let p1 = f3m_ir::printer::print_module(&m1);
        let p2 = f3m_ir::printer::print_module(&m2);
        assert_ne!(p1, p2, "different member seeds must diverge");
    }

    #[test]
    fn family_members_are_highly_similar() {
        use f3m_fingerprint::encode::encode_function;
        use f3m_fingerprint::fnv::xor_constants;
        use f3m_fingerprint::minhash::minhash_signature;
        use f3m_fingerprint::signature_similarity;
        let shape = ShapeParams { target_insts: 40, ..ShapeParams::default() };
        let m1 = gen_into_module(&shape, 7, 100, &MutationProfile::light());
        let m2 = gen_into_module(&shape, 7, 200, &MutationProfile::light());
        let mx = gen_into_module(&shape, 8, 100, &MutationProfile::light());
        let enc = |m: &Module| {
            let id = m.lookup_function("gen0").unwrap();
            encode_function(&m.types, m.function(id))
        };
        let fp1 = minhash_signature(&xor_constants(200), &enc(&m1));
        let fp2 = minhash_signature(&xor_constants(200), &enc(&m2));
        let fpx = minhash_signature(&xor_constants(200), &enc(&mx));
        let within = signature_similarity(&fp1, &fp2);
        let across = signature_similarity(&fp1, &fpx);
        assert!(
            within > across,
            "family similarity {within:.3} must exceed cross-family {across:.3}"
        );
        assert!(within > 0.4, "light mutations keep members similar: {within:.3}");
    }

    #[test]
    fn generated_functions_are_executable() {
        use f3m_interp::{Interpreter, Limits, Val};
        for seed in 0..10u64 {
            let shape = ShapeParams { target_insts: 30, cfg_density: 0.4, ..Default::default() };
            let m = gen_into_module(&shape, seed, seed, &MutationProfile::light());
            let mut i = Interpreter::with_limits(
                &m,
                Limits { fuel: 100_000, memory: 1 << 20, max_depth: 32 },
            );
            let out = i.call_by_name("gen0", &[Val::Int(5), Val::Int(-3)]);
            assert!(out.is_ok(), "seed {seed}: {out:?}");
        }
    }

    #[test]
    fn retype_flag_switches_integer_width() {
        let shape = ShapeParams::default();
        let profile = MutationProfile { retype: true, ..MutationProfile::identical() };
        let m = gen_into_module(&shape, 3, 3, &profile);
        let f = m.function(m.lookup_function("gen0").unwrap());
        let mut ts = TypeStore::new();
        assert_eq!(f.ret_ty, ts.int(64));
    }
}

#[cfg(test)]
mod shuffle_tests {
    use super::*;
    use f3m_ir::module::Module;
    use f3m_ir::verify::verify_module;
    use f3m_fingerprint::encode::encode_function;
    use f3m_fingerprint::opcode_freq::OpcodeFingerprint;
    use f3m_core::align::needleman_wunsch;

    fn gen_pair(shape: &ShapeParams, profile: &MutationProfile) -> (Module, Vec<u32>, Vec<u32>) {
        let mut m = Module::new("s");
        let ext = declare_externals(&mut m);
        let f1 = generate_function(
            &mut m.types, &ext, "base", shape, 99, 0, &MutationProfile::identical(),
            Linkage::External);
        let f2 = generate_function(
            &mut m.types, &ext, "clone", shape, 99, 7, profile, Linkage::External);
        let e1 = encode_function(&m.types, &f1);
        let e2 = encode_function(&m.types, &f2);
        m.add_function(f1);
        m.add_function(f2);
        (m, e1, e2)
    }

    #[test]
    fn shuffled_clones_verify() {
        for seed in 0..15u64 {
            let mut m = Module::new("s");
            let ext = declare_externals(&mut m);
            let shape = ShapeParams { target_insts: 40, cfg_density: 0.3, ..Default::default() };
            let f = generate_function(
                &mut m.types, &ext, "sh", &shape, seed, seed + 1,
                &MutationProfile::shuffled(), Linkage::External);
            m.add_function(f);
            verify_module(&m).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        }
    }

    #[test]
    fn shuffled_clones_keep_opcode_histogram_but_lose_alignment() {
        let shape = ShapeParams {
            target_insts: 50,
            cfg_density: 0.0, // pure straight-line maximizes the effect
            call_density: 0.0,
            mem_density: 0.0,
            ..Default::default()
        };
        let (m, e1, e2) = gen_pair(&shape, &MutationProfile::shuffled());
        let ids = m.defined_functions();
        let fp1 = OpcodeFingerprint::of(m.function(ids[0]));
        let fp2 = OpcodeFingerprint::of(m.function(ids[1]));
        assert_eq!(fp1.distance(&fp2), 0, "identical opcode multiset");
        let align = needleman_wunsch(&e1, &e2);
        assert!(
            align.ratio() < 0.9,
            "shuffling must degrade alignment: {:.3}",
            align.ratio()
        );
    }

    #[test]
    fn shuffle_is_member_specific() {
        let shape = ShapeParams { target_insts: 40, cfg_density: 0.0, ..Default::default() };
        let mut m = Module::new("s");
        let ext = declare_externals(&mut m);
        let a = generate_function(&mut m.types, &ext, "a", &shape, 5, 1,
            &MutationProfile::shuffled(), Linkage::External);
        let b = generate_function(&mut m.types, &ext, "b", &shape, 5, 2,
            &MutationProfile::shuffled(), Linkage::External);
        let ea = encode_function(&m.types, &a);
        let eb = encode_function(&m.types, &b);
        assert_ne!(ea, eb, "different member seeds give different orders");
        let mut sa = ea.clone();
        let mut sb = eb.clone();
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb, "same multiset regardless of order");
    }
}
