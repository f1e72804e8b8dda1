//! The interpreter proper.
//!
//! Executes IR functions over the flat [`Memory`] model, counting every
//! dynamically executed instruction. The count is the architecture-neutral
//! stand-in for runtime used by the Fig. 17 experiment: merged functions
//! execute extra guards/selects/branches, and that overhead shows up
//! directly in the step count.

use f3m_ir::ids::{BlockId, FuncId, InstId, ValueId};
use f3m_ir::inst::{FloatPredicate, Instruction, IntPredicate, Opcode, Predicate};
use f3m_ir::function::Function;
use f3m_ir::module::Module;
use f3m_ir::types::{TypeId, TypeKind};
use f3m_ir::value::{normalize_int, ValueKind};

use crate::memory::Memory;
use crate::trap::Trap;
use crate::value::Val;

/// Tunable execution limits.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Maximum dynamically executed instructions.
    pub fuel: u64,
    /// Maximum bytes of data memory.
    pub memory: u64,
    /// Maximum call depth.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { fuel: 50_000_000, memory: 1 << 24, max_depth: 256 }
    }
}

/// Result of a top-level call.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Outcome {
    /// Return value (`None` for `void`).
    pub ret: Option<Val>,
    /// Instructions executed by this call (including callees).
    pub steps: u64,
    /// Checksum accumulated by `ext_sink` calls during this call.
    pub checksum: u64,
}

/// An interpreter instance bound to a module.
///
/// # Examples
///
/// ```
/// use f3m_ir::parser::parse_module;
/// use f3m_interp::interp::Interpreter;
/// use f3m_interp::value::Val;
///
/// let m = parse_module(r#"
/// module "t" {
/// define @double(i32 %0) -> i32 {
/// bb0:
///   %1 = add i32 %0, %0
///   ret i32 %1
/// }
/// }
/// "#).unwrap();
/// let mut interp = Interpreter::new(&m);
/// let out = interp.call_by_name("double", &[Val::Int(21)]).unwrap();
/// assert_eq!(out.ret, Some(Val::Int(42)));
/// assert_eq!(out.steps, 2);
/// ```
pub struct Interpreter<'m> {
    module: &'m Module,
    mem: Memory,
    limits: Limits,
    fuel_left: u64,
    steps: u64,
    checksum: u64,
    per_func: Vec<u64>,
    global_addrs: Vec<u64>,
    depth: usize,
    /// Set when the globals did not fit the memory limit at construction;
    /// every subsequent call reports this trap instead of running.
    init_error: Option<Trap>,
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter with default limits; globals are allocated
    /// and initialized immediately.
    pub fn new(module: &'m Module) -> Self {
        Self::with_limits(module, Limits::default())
    }

    /// Creates an interpreter with explicit limits. If the module's globals
    /// do not fit within `limits.memory`, construction still succeeds and
    /// every call returns [`Trap::OutOfMemory`] (callers treat that like
    /// any other resource trap instead of a panic).
    pub fn with_limits(module: &'m Module, limits: Limits) -> Self {
        let mut mem = Memory::new(limits.memory);
        let mut global_addrs = Vec::new();
        let mut init_error = None;
        for (_, g) in module.globals() {
            let size = module.types.size_of(g.ty).max(g.init.len() as u64);
            match mem.alloc(size).and_then(|addr| mem.write(addr, &g.init).map(|()| addr)) {
                Ok(addr) => global_addrs.push(addr),
                Err(t) => {
                    init_error.get_or_insert(t);
                    global_addrs.push(0);
                }
            }
        }
        Interpreter {
            module,
            mem,
            limits,
            fuel_left: limits.fuel,
            steps: 0,
            checksum: 0,
            per_func: vec![0; module.num_functions()],
            global_addrs,
            depth: 0,
            init_error,
        }
    }

    /// Instructions executed inside the body of `f` (not counting callees).
    pub fn func_steps(&self, f: FuncId) -> u64 {
        self.per_func[f.index()]
    }

    /// Calls a function by name.
    ///
    /// # Errors
    ///
    /// Traps propagate; an unknown name is a [`Trap::UnknownExternal`].
    pub fn call_by_name(&mut self, name: &str, args: &[Val]) -> Result<Outcome, Trap> {
        let fid = self
            .module
            .lookup_function(name)
            .ok_or_else(|| Trap::UnknownExternal { name: name.to_string() })?;
        self.call(fid, args)
    }

    /// Calls a function by id.
    ///
    /// # Errors
    ///
    /// Any [`Trap`] raised during execution.
    pub fn call(&mut self, fid: FuncId, args: &[Val]) -> Result<Outcome, Trap> {
        if let Some(t) = &self.init_error {
            return Err(t.clone());
        }
        let steps_before = self.steps;
        let sum_before = self.checksum;
        let ret = self.run(fid, args)?;
        Ok(Outcome {
            ret,
            steps: self.steps - steps_before,
            checksum: self.checksum.wrapping_sub(sum_before),
        })
    }

    fn run(&mut self, fid: FuncId, args: &[Val]) -> Result<Option<Val>, Trap> {
        let f = self.module.function(fid);
        if f.is_declaration {
            return self.external(f, args);
        }
        if args.len() != f.params.len() {
            return Err(Trap::CallMismatch {
                detail: format!("@{} called with {} args", f.name, args.len()),
            });
        }
        if self.depth >= self.limits.max_depth {
            return Err(Trap::StackOverflow);
        }
        self.depth += 1;
        let watermark = self.mem.watermark();
        let result = self.run_body(fid, f, args);
        self.mem.rollback(watermark);
        self.depth -= 1;
        result
    }

    fn run_body(&mut self, fid: FuncId, f: &'m Function, args: &[Val]) -> Result<Option<Val>, Trap> {
        // One register per argument, then one per instruction.
        let mut regs: Vec<Option<Val>> = vec![None; f.num_args() + f.num_insts()];
        for (i, &a) in args.iter().enumerate() {
            regs[i] = Some(a.normalize(&self.module.types, f.params[i]));
        }
        let mut block = f.entry();
        let mut prev: Option<BlockId> = None;
        'blocks: loop {
            let insts = &f.block(block).insts;
            // Phis evaluate in parallel against the incoming edge.
            let first_non_phi = f.first_non_phi(block);
            if first_non_phi > 0 {
                let from = prev.expect("phi in entry block");
                let mut staged: Vec<(InstId, Val)> = Vec::with_capacity(first_non_phi);
                for &iid in &insts[..first_non_phi] {
                    let inst = f.inst(iid);
                    self.tick(fid)?;
                    let mut picked = None;
                    for (bb, v) in inst.phi_incomings() {
                        if bb == from {
                            picked = Some(self.eval(f, &regs, v)?);
                            break;
                        }
                    }
                    let val = picked.ok_or(Trap::CallMismatch {
                        detail: format!("phi in {:?} missing incoming for {:?}", block, from),
                    })?;
                    staged.push((iid, val));
                }
                for (iid, v) in staged {
                    regs[register(f, iid)] = Some(v.normalize(&self.module.types, f.inst(iid).ty));
                }
            }
            for &iid in &insts[first_non_phi..] {
                let inst = f.inst(iid);
                self.tick(fid)?;
                match inst.op {
                    Opcode::Ret => {
                        return if let Some(&v) = inst.operands.first() {
                            Ok(Some(self.eval(f, &regs, v)?))
                        } else {
                            Ok(None)
                        };
                    }
                    Opcode::Br => {
                        prev = Some(block);
                        block = inst.blocks[0];
                        continue 'blocks;
                    }
                    Opcode::CondBr => {
                        let c = self.eval(f, &regs, inst.operands[0])?;
                        let taken = match c {
                            Val::Int(x) => x != 0,
                            Val::Undef => {
                                return Err(Trap::UndefUsed { context: "branch condition" })
                            }
                            _ => {
                                return Err(Trap::CallMismatch {
                                    detail: "non-integer branch condition".into(),
                                })
                            }
                        };
                        prev = Some(block);
                        block = if taken { inst.blocks[0] } else { inst.blocks[1] };
                        continue 'blocks;
                    }
                    Opcode::Unreachable => return Err(Trap::UnreachableExecuted),
                    Opcode::Invoke => {
                        let v = self.exec_call(f, &regs, inst)?;
                        if let (Some(_), Some(v)) = (f.result(iid), v) {
                            regs[register(f, iid)] = Some(v);
                        }
                        // Invokes never unwind in this model.
                        prev = Some(block);
                        block = inst.blocks[0];
                        continue 'blocks;
                    }
                    Opcode::Call => {
                        let v = self.exec_call(f, &regs, inst)?;
                        if let (Some(_), Some(v)) = (f.result(iid), v) {
                            regs[register(f, iid)] = Some(v);
                        }
                    }
                    _ => {
                        let v = self.exec_simple(f, &regs, inst)?;
                        if f.result(iid).is_some() {
                            regs[register(f, iid)] = Some(v.normalize(&self.module.types, inst.ty));
                        }
                    }
                }
            }
            // A verified function never falls through (last inst is a
            // terminator handled above).
            unreachable!("block fell through without terminator");
        }
    }

    fn tick(&mut self, fid: FuncId) -> Result<(), Trap> {
        if self.fuel_left == 0 {
            return Err(Trap::OutOfFuel);
        }
        self.fuel_left -= 1;
        self.steps += 1;
        self.per_func[fid.index()] += 1;
        Ok(())
    }

    fn eval(&self, f: &Function, regs: &[Option<Val>], v: ValueId) -> Result<Val, Trap> {
        let unassigned = || Trap::UndefUsed { context: "unassigned register" };
        Ok(match f.value(v).kind {
            ValueKind::Arg(i) => regs[i as usize].ok_or_else(unassigned)?,
            ValueKind::Inst(id) => regs[register(f, id)].ok_or_else(unassigned)?,
            ValueKind::ConstInt(x) => Val::Int(x),
            ValueKind::ConstFloat(bits) => Val::Float(f64::from_bits(bits)),
            ValueKind::Undef => Val::Undef,
            ValueKind::FuncRef(fid) => Val::Ptr(Memory::func_addr(fid.index())),
            ValueKind::GlobalRef(gid) => Val::Ptr(self.global_addrs[gid.index()]),
        })
    }

    fn exec_call(
        &mut self,
        f: &Function,
        regs: &[Option<Val>],
        inst: Instruction,
    ) -> Result<Option<Val>, Trap> {
        let callee = self.eval(f, regs, inst.operands[0])?;
        let addr = match callee {
            Val::Ptr(a) => a,
            Val::Undef => return Err(Trap::UndefUsed { context: "call target" }),
            _ => return Err(Trap::BadIndirectCall { addr: 0 }),
        };
        let idx = Memory::addr_to_func(addr).ok_or(Trap::BadIndirectCall { addr })?;
        if idx >= self.module.num_functions() {
            return Err(Trap::BadIndirectCall { addr });
        }
        let mut args = Vec::with_capacity(inst.operands.len() - 1);
        for &a in &inst.operands[1..] {
            args.push(self.eval(f, regs, a)?);
        }
        self.run(FuncId::from_index(idx), &args)
    }

    fn exec_simple(
        &mut self,
        f: &Function,
        regs: &[Option<Val>],
        inst: Instruction,
    ) -> Result<Val, Trap> {
        let ts = &self.module.types;
        let op = |i: usize| self.eval(f, regs, inst.operands[i]);
        match inst.op {
            o if o.is_int_binary() => {
                let (a, b) = (op(0)?, op(1)?);
                let bits = ts.int_bits(inst.ty).unwrap_or(64);
                int_binary(o, a, b, bits)
            }
            o if o.is_float_binary() => {
                let (a, b) = (op(0)?, op(1)?);
                let (x, y) = match (a, b) {
                    (Val::Float(x), Val::Float(y)) => (x, y),
                    (Val::Undef, _) | (_, Val::Undef) => return Ok(Val::Undef),
                    _ => {
                        return Err(Trap::CallMismatch { detail: "float op on non-float".into() })
                    }
                };
                let r = match o {
                    Opcode::FAdd => x + y,
                    Opcode::FSub => x - y,
                    Opcode::FMul => x * y,
                    Opcode::FDiv => x / y,
                    Opcode::FRem => x % y,
                    _ => unreachable!(),
                };
                Ok(Val::Float(round_to(ts, inst.ty, r)))
            }
            Opcode::FNeg => match op(0)? {
                Val::Float(x) => Ok(Val::Float(-x)),
                Val::Undef => Ok(Val::Undef),
                _ => Err(Trap::CallMismatch { detail: "fneg on non-float".into() }),
            },
            Opcode::ICmp => {
                let (a, b) = (op(0)?, op(1)?);
                let pred = match inst.pred {
                    Some(Predicate::Int(p)) => p,
                    _ => return Err(Trap::CallMismatch { detail: "icmp without predicate".into() }),
                };
                let src_ty = f.value(inst.operands[0]).ty;
                icmp(ts, src_ty, pred, a, b)
            }
            Opcode::FCmp => {
                let (a, b) = (op(0)?, op(1)?);
                let pred = match inst.pred {
                    Some(Predicate::Float(p)) => p,
                    _ => return Err(Trap::CallMismatch { detail: "fcmp without predicate".into() }),
                };
                let (x, y) = match (a, b) {
                    (Val::Float(x), Val::Float(y)) => (x, y),
                    _ => return Ok(Val::Undef),
                };
                let r = match pred {
                    FloatPredicate::Oeq => x == y,
                    FloatPredicate::One => x != y && !x.is_nan() && !y.is_nan(),
                    FloatPredicate::Ogt => x > y,
                    FloatPredicate::Oge => x >= y,
                    FloatPredicate::Olt => x < y,
                    FloatPredicate::Ole => x <= y,
                };
                Ok(Val::Int(bool_val(r)))
            }
            Opcode::Select => {
                let c = op(0)?;
                match c {
                    Val::Int(x) => {
                        if x != 0 {
                            op(1)
                        } else {
                            op(2)
                        }
                    }
                    Val::Undef => Err(Trap::UndefUsed { context: "select condition" }),
                    _ => Err(Trap::CallMismatch { detail: "select on non-i1".into() }),
                }
            }
            Opcode::Alloca => {
                let size = ts.size_of(inst.aux_ty.expect("alloca type"));
                Ok(Val::Ptr(self.mem.alloc(size)?))
            }
            Opcode::Load => {
                let addr = ptr_of(op(0)?, "load address")?;
                load_typed(ts, &self.mem, inst.ty, addr)
            }
            Opcode::Store => {
                let v = op(0)?;
                let addr = ptr_of(op(1)?, "store address")?;
                let ty = f.value(inst.operands[0]).ty;
                store_typed(ts, &mut self.mem, ty, addr, v)?;
                Ok(Val::Undef) // no result; ignored by caller
            }
            Opcode::Gep => {
                let base = ptr_of(op(0)?, "gep base")?;
                let idx = match op(1)? {
                    Val::Int(x) => x,
                    Val::Undef => return Err(Trap::UndefUsed { context: "gep index" }),
                    _ => return Err(Trap::CallMismatch { detail: "gep index not int".into() }),
                };
                let elem = ts.size_of(inst.aux_ty.expect("gep type")) as i64;
                Ok(Val::Ptr((base as i64).wrapping_add(idx.wrapping_mul(elem)) as u64))
            }
            o if o.is_cast() => {
                let x = op(0)?;
                let from_ty = f.value(inst.operands[0]).ty;
                cast(ts, o, x, from_ty, inst.ty)
            }
            o => Err(Trap::CallMismatch { detail: format!("unhandled opcode {o:?}") }),
        }
    }

    /// Dispatches a call to an external declaration.
    ///
    /// Two families of intrinsics are recognized:
    /// - `ext_src*`: deterministic pure sources mixing their integer/float
    ///   inputs into a value of the return type,
    /// - `ext_sink*`: accumulate operands into the interpreter checksum.
    fn external(&mut self, f: &'m Function, args: &[Val]) -> Result<Option<Val>, Trap> {
        if f.name.starts_with("ext_sink") {
            for a in args {
                self.checksum = mix(self.checksum ^ a.checksum());
            }
            return Ok(None);
        }
        if f.name.starts_with("ext_src") {
            let mut h = 0xA076_1D64_78BD_642Fu64;
            for (i, a) in args.iter().enumerate() {
                h = mix(h ^ a.checksum().wrapping_add(i as u64));
            }
            let ts = &self.module.types;
            let v = match ts.kind(f.ret_ty) {
                TypeKind::Int(bits) => Val::Int(normalize_int(h as i64, *bits)),
                TypeKind::F32 | TypeKind::F64 => {
                    Val::Float(round_to(ts, f.ret_ty, (h >> 11) as f64 / (1u64 << 53) as f64))
                }
                TypeKind::Void => return Ok(None),
                _ => Val::Undef,
            };
            return Ok(Some(v));
        }
        Err(Trap::UnknownExternal { name: f.name.clone() })
    }
}

/// SplitMix64 finalizer; the deterministic mixing used by externals.
/// The register of instruction `id`'s result: after one per argument.
fn register(f: &Function, id: InstId) -> usize {
    f.num_args() + id.index()
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn bool_val(b: bool) -> i64 {
    // i1 true is all-ones in the normalized representation.
    if b {
        normalize_int(1, 1)
    } else {
        0
    }
}

fn ptr_of(v: Val, context: &'static str) -> Result<u64, Trap> {
    match v {
        Val::Ptr(a) => Ok(a),
        Val::Undef => Err(Trap::UndefUsed { context }),
        Val::Int(x) => Ok(x as u64), // inttoptr round trips
        Val::Float(_) => Err(Trap::CallMismatch { detail: format!("float as {context}") }),
    }
}

fn unsigned(x: i64, bits: u32) -> u64 {
    if bits >= 64 {
        x as u64
    } else {
        (x as u64) & ((1u64 << bits) - 1)
    }
}

fn int_binary(op: Opcode, a: Val, b: Val, bits: u32) -> Result<Val, Trap> {
    let (x, y) = match (a, b) {
        (Val::Int(x), Val::Int(y)) => (x, y),
        (Val::Undef, _) | (_, Val::Undef) => return Ok(Val::Undef),
        _ => return Err(Trap::CallMismatch { detail: "int op on non-int".into() }),
    };
    let r = match op {
        Opcode::Add => x.wrapping_add(y),
        Opcode::Sub => x.wrapping_sub(y),
        Opcode::Mul => x.wrapping_mul(y),
        Opcode::UDiv => {
            if y == 0 {
                return Err(Trap::DivideByZero);
            }
            (unsigned(x, bits) / unsigned(y, bits)) as i64
        }
        Opcode::SDiv => {
            if y == 0 {
                return Err(Trap::DivideByZero);
            }
            x.wrapping_div(y)
        }
        Opcode::URem => {
            if y == 0 {
                return Err(Trap::DivideByZero);
            }
            (unsigned(x, bits) % unsigned(y, bits)) as i64
        }
        Opcode::SRem => {
            if y == 0 {
                return Err(Trap::DivideByZero);
            }
            x.wrapping_rem(y)
        }
        Opcode::Shl => x.wrapping_shl(shift_amt(y, bits)),
        Opcode::LShr => (unsigned(x, bits) >> shift_amt(y, bits)) as i64,
        Opcode::AShr => x >> shift_amt(y, bits),
        Opcode::And => x & y,
        Opcode::Or => x | y,
        Opcode::Xor => x ^ y,
        _ => unreachable!(),
    };
    Ok(Val::Int(normalize_int(r, bits)))
}

/// Deterministic total semantics for shifts: the amount is taken modulo the
/// width (LLVM would make over-shifts poison; we need reproducible results
/// for differential testing).
fn shift_amt(y: i64, bits: u32) -> u32 {
    (y as u64 % bits as u64) as u32
}

fn icmp(
    ts: &f3m_ir::types::TypeStore,
    src_ty: TypeId,
    pred: IntPredicate,
    a: Val,
    b: Val,
) -> Result<Val, Trap> {
    let bits = ts.int_bits(src_ty).unwrap_or(64);
    let (x, y) = match (a, b) {
        (Val::Int(x), Val::Int(y)) => (x, y),
        (Val::Ptr(x), Val::Ptr(y)) => (x as i64, y as i64),
        (Val::Ptr(x), Val::Int(y)) | (Val::Int(y), Val::Ptr(x)) => (x as i64, y),
        (Val::Undef, _) | (_, Val::Undef) => {
            return Err(Trap::UndefUsed { context: "icmp operand" })
        }
        _ => return Err(Trap::CallMismatch { detail: "icmp on floats".into() }),
    };
    let (ux, uy) = (unsigned(x, bits), unsigned(y, bits));
    let r = match pred {
        IntPredicate::Eq => x == y,
        IntPredicate::Ne => x != y,
        IntPredicate::Ugt => ux > uy,
        IntPredicate::Uge => ux >= uy,
        IntPredicate::Ult => ux < uy,
        IntPredicate::Ule => ux <= uy,
        IntPredicate::Sgt => x > y,
        IntPredicate::Sge => x >= y,
        IntPredicate::Slt => x < y,
        IntPredicate::Sle => x <= y,
    };
    Ok(Val::Int(bool_val(r)))
}

fn round_to(ts: &f3m_ir::types::TypeStore, ty: TypeId, x: f64) -> f64 {
    match ts.kind(ty) {
        TypeKind::F32 => x as f32 as f64,
        _ => x,
    }
}

fn cast(
    ts: &f3m_ir::types::TypeStore,
    op: Opcode,
    x: Val,
    from: TypeId,
    to: TypeId,
) -> Result<Val, Trap> {
    if matches!(x, Val::Undef) {
        return Ok(Val::Undef);
    }
    let to_bits = ts.int_bits(to);
    let from_bits = ts.int_bits(from);
    Ok(match op {
        Opcode::Trunc => Val::Int(normalize_int(
            x.as_int().ok_or(Trap::CallMismatch { detail: "trunc non-int".into() })?,
            to_bits.unwrap_or(64),
        )),
        Opcode::ZExt => {
            let v = x.as_int().ok_or(Trap::CallMismatch { detail: "zext non-int".into() })?;
            Val::Int(normalize_int(
                unsigned(v, from_bits.unwrap_or(64)) as i64,
                to_bits.unwrap_or(64),
            ))
        }
        Opcode::SExt => Val::Int(normalize_int(
            x.as_int().ok_or(Trap::CallMismatch { detail: "sext non-int".into() })?,
            to_bits.unwrap_or(64),
        )),
        Opcode::FPTrunc | Opcode::FPExt => Val::Float(round_to(
            ts,
            to,
            x.as_float().ok_or(Trap::CallMismatch { detail: "fp cast non-float".into() })?,
        )),
        Opcode::FPToUI | Opcode::FPToSI => {
            let f = x.as_float().ok_or(Trap::CallMismatch { detail: "fptoi non-float".into() })?;
            // Saturating conversion (total semantics).
            let v = if f.is_nan() { 0 } else { f as i64 };
            Val::Int(normalize_int(v, to_bits.unwrap_or(64)))
        }
        Opcode::UIToFP => {
            let v = x.as_int().ok_or(Trap::CallMismatch { detail: "itofp non-int".into() })?;
            Val::Float(round_to(ts, to, unsigned(v, from_bits.unwrap_or(64)) as f64))
        }
        Opcode::SIToFP => {
            let v = x.as_int().ok_or(Trap::CallMismatch { detail: "itofp non-int".into() })?;
            Val::Float(round_to(ts, to, v as f64))
        }
        Opcode::PtrToInt => Val::Int(normalize_int(
            x.as_ptr().ok_or(Trap::CallMismatch { detail: "ptrtoint non-ptr".into() })? as i64,
            to_bits.unwrap_or(64),
        )),
        Opcode::IntToPtr => Val::Ptr(
            x.as_int().ok_or(Trap::CallMismatch { detail: "inttoptr non-int".into() })? as u64,
        ),
        Opcode::BitCast => match x {
            Val::Int(v) => {
                if ts.is_float(to) {
                    Val::Float(f64::from_bits(v as u64))
                } else {
                    x
                }
            }
            Val::Float(fv) => {
                if ts.is_int(to) {
                    Val::Int(normalize_int(fv.to_bits() as i64, to_bits.unwrap_or(64)))
                } else {
                    x
                }
            }
            other => other,
        },
        _ => unreachable!("non-cast opcode"),
    })
}

fn load_typed(
    ts: &f3m_ir::types::TypeStore,
    mem: &Memory,
    ty: TypeId,
    addr: u64,
) -> Result<Val, Trap> {
    match ts.kind(ty) {
        TypeKind::Int(bits) => {
            let len = (*bits as u64).div_ceil(8);
            let raw = mem.read_uint(addr, len)?;
            Ok(Val::Int(normalize_int(raw as i64, *bits)))
        }
        TypeKind::F32 => {
            let raw = mem.read_uint(addr, 4)? as u32;
            Ok(Val::Float(f32::from_bits(raw) as f64))
        }
        TypeKind::F64 => Ok(Val::Float(f64::from_bits(mem.read_uint(addr, 8)?))),
        TypeKind::Ptr => Ok(Val::Ptr(mem.read_uint(addr, 8)?)),
        other => Err(Trap::CallMismatch { detail: format!("load of aggregate {other:?}") }),
    }
}

fn store_typed(
    ts: &f3m_ir::types::TypeStore,
    mem: &mut Memory,
    ty: TypeId,
    addr: u64,
    v: Val,
) -> Result<(), Trap> {
    match ts.kind(ty) {
        TypeKind::Int(bits) => {
            let len = (*bits as u64).div_ceil(8);
            let x = v.as_int().unwrap_or(0); // storing undef stores zero
            mem.write_uint(addr, x as u64, len)
        }
        TypeKind::F32 => {
            let x = v.as_float().unwrap_or(0.0) as f32;
            mem.write_uint(addr, x.to_bits() as u64, 4)
        }
        TypeKind::F64 => mem.write_uint(addr, v.as_float().unwrap_or(0.0).to_bits(), 8),
        TypeKind::Ptr => mem.write_uint(addr, v.as_ptr().unwrap_or(0), 8),
        other => Err(Trap::CallMismatch { detail: format!("store of aggregate {other:?}") }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3m_ir::parser::parse_module;

    fn run(src: &str, f: &str, args: &[Val]) -> Result<Outcome, Trap> {
        let m = parse_module(src).unwrap();
        let mut i = Interpreter::new(&m);
        i.call_by_name(f, args)
    }

    #[test]
    fn arithmetic_and_branches() {
        let out = run(
            r#"
module "t" {
define @abs(i32 %0) -> i32 {
bb0:
  %1 = icmp slt i32 %0, 0
  condbr %1, bb1, bb2
bb1:
  %2 = sub i32 0, %0
  br bb2
bb2:
  %3 = phi i32 [ %2, bb1 ], [ %0, bb0 ]
  ret i32 %3
}
}
"#,
            "abs",
            &[Val::Int(-5)],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Val::Int(5)));
    }

    #[test]
    fn loop_sum() {
        let out = run(
            r#"
module "t" {
define @sum(i32 %0) -> i32 {
bb0:
  br bb1
bb1:
  %1 = phi i32 [ 0, bb0 ], [ %3, bb2 ]
  %2 = phi i32 [ 0, bb0 ], [ %4, bb2 ]
  %5 = icmp slt i32 %2, %0
  condbr %5, bb2, bb3
bb2:
  %3 = add i32 %1, %2
  %4 = add i32 %2, 1
  br bb1
bb3:
  ret i32 %1
}
}
"#,
            "sum",
            &[Val::Int(10)],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Val::Int(45)));
        assert!(out.steps > 30, "loop actually iterated: {}", out.steps);
    }

    #[test]
    fn memory_round_trip() {
        let out = run(
            r#"
module "t" {
define @mem(i32 %0) -> i32 {
bb0:
  %1 = alloca [4 x i32]
  %2 = gep i32, %1, i64 2
  store i32 %0, %2
  %3 = load i32, %2
  ret i32 %3
}
}
"#,
            "mem",
            &[Val::Int(77)],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Val::Int(77)));
    }

    #[test]
    fn divide_by_zero_traps() {
        let err = run(
            r#"
module "t" {
define @f(i32 %0) -> i32 {
bb0:
  %1 = sdiv i32 %0, 0
  ret i32 %1
}
}
"#,
            "f",
            &[Val::Int(1)],
        )
        .unwrap_err();
        assert_eq!(err, Trap::DivideByZero);
    }

    #[test]
    fn fuel_limits_infinite_loops() {
        let m = parse_module(
            r#"
module "t" {
define @spin() -> void {
bb0:
  br bb1
bb1:
  br bb1
}
}
"#,
        )
        .unwrap();
        let mut i = Interpreter::with_limits(
            &m,
            Limits { fuel: 1000, memory: 1 << 16, max_depth: 16 },
        );
        assert_eq!(i.call_by_name("spin", &[]).unwrap_err(), Trap::OutOfFuel);
    }

    #[test]
    fn recursion_depth_limited() {
        let m = parse_module(
            r#"
module "t" {
define @r(i64 %0) -> i64 {
bb0:
  %1 = call i64 @r(i64 %0)
  ret i64 %1
}
}
"#,
        )
        .unwrap();
        let mut i = Interpreter::with_limits(
            &m,
            Limits { fuel: 1_000_000, memory: 1 << 16, max_depth: 32 },
        );
        assert_eq!(i.call_by_name("r", &[Val::Int(0)]).unwrap_err(), Trap::StackOverflow);
    }

    #[test]
    fn calls_and_externals() {
        let out = run(
            r#"
module "t" {
declare @ext_src_i64(i64) -> i64
declare @ext_sink_i64(i64) -> void
define @go(i64 %0) -> i64 {
bb0:
  %1 = call i64 @ext_src_i64(i64 %0)
  call void @ext_sink_i64(i64 %1)
  ret i64 %1
}
}
"#,
            "go",
            &[Val::Int(3)],
        )
        .unwrap();
        assert!(out.ret.is_some());
        assert_ne!(out.checksum, 0, "sink recorded the value");
        // Determinism.
        let out2 = run(
            r#"
module "t" {
declare @ext_src_i64(i64) -> i64
declare @ext_sink_i64(i64) -> void
define @go(i64 %0) -> i64 {
bb0:
  %1 = call i64 @ext_src_i64(i64 %0)
  call void @ext_sink_i64(i64 %1)
  ret i64 %1
}
}
"#,
            "go",
            &[Val::Int(3)],
        )
        .unwrap();
        assert_eq!(out.ret, out2.ret);
        assert_eq!(out.checksum, out2.checksum);
    }

    #[test]
    fn indirect_calls_through_function_pointers() {
        let out = run(
            r#"
module "t" {
define @target(i32 %0) -> i32 {
bb0:
  %1 = mul i32 %0, 3
  ret i32 %1
}
define @go(i32 %0) -> i32 {
bb0:
  %1 = alloca ptr
  store ptr @target, %1
  %2 = load ptr, %1
  %3 = call i32 %2(i32 %0)
  ret i32 %3
}
}
"#,
            "go",
            &[Val::Int(7)],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Val::Int(21)));
    }

    #[test]
    fn invoke_takes_normal_edge() {
        let out = run(
            r#"
module "t" {
define @callee(i32 %0) -> i32 {
bb0:
  ret i32 %0
}
define @f(i32 %0) -> i32 {
bb0:
  %1 = invoke i32 @callee(i32 %0) to bb1 unwind bb2
bb1:
  ret i32 %1
bb2:
  ret i32 -1
}
}
"#,
            "f",
            &[Val::Int(9)],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Val::Int(9)));
    }

    #[test]
    fn unknown_external_traps() {
        let err = run(
            r#"
module "t" {
declare @mystery() -> void
define @f() -> void {
bb0:
  call void @mystery()
  ret
}
}
"#,
            "f",
            &[],
        )
        .unwrap_err();
        assert!(matches!(err, Trap::UnknownExternal { .. }));
    }

    #[test]
    fn globals_are_initialized() {
        let out = run(
            r#"
module "t" {
global @g : i32 = [42, 0, 0, 0]
define @f() -> i32 {
bb0:
  %1 = load i32, @g
  ret i32 %1
}
}
"#,
            "f",
            &[],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Val::Int(42)));
    }

    #[test]
    fn casts_behave() {
        let out = run(
            r#"
module "t" {
define @f(i64 %0) -> i64 {
bb0:
  %1 = trunc i64 %0 to i8
  %2 = zext i8 %1 to i64
  %3 = sext i8 %1 to i64
  %4 = add i64 %2, %3
  ret i64 %4
}
}
"#,
            "f",
            &[Val::Int(0xFF)],
        )
        .unwrap();
        // trunc 0xFF -> i8 = -1; zext -> 255; sext -> -1; sum = 254.
        assert_eq!(out.ret, Some(Val::Int(254)));
    }

    #[test]
    fn float_ops() {
        let out = run(
            r#"
module "t" {
define @f(f64 %0) -> f64 {
bb0:
  %1 = fmul f64 %0, %0
  %2 = fadd f64 %1, 0f3FF0000000000000
  ret f64 %2
}
}
"#,
            "f",
            &[Val::Float(3.0)],
        )
        .unwrap();
        assert_eq!(out.ret, Some(Val::Float(10.0)));
    }

    #[test]
    fn step_counting_attributes_to_functions() {
        let m = parse_module(
            r#"
module "t" {
define @leaf(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  ret i32 %1
}
define @top(i32 %0) -> i32 {
bb0:
  %1 = call i32 @leaf(i32 %0)
  ret i32 %1
}
}
"#,
        )
        .unwrap();
        let mut i = Interpreter::new(&m);
        let out = i.call_by_name("top", &[Val::Int(0)]).unwrap();
        assert_eq!(out.steps, 4);
        let leaf = m.lookup_function("leaf").unwrap();
        let top = m.lookup_function("top").unwrap();
        assert_eq!(i.func_steps(leaf), 2);
        assert_eq!(i.func_steps(top), 2);
    }
}
