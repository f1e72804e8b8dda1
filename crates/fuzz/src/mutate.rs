//! Structural IR mutators.
//!
//! Each mutator takes an arbitrary *valid* module and perturbs it while
//! keeping it verifier-clean. Mutators are free to change observable
//! behaviour (the oracle compares the mutated module against its own merged
//! form, not against the unmutated original), but they must never produce a
//! module that `verify_module` rejects or that fails the printer/parser
//! round-trip — a mutator that breaks validity poisons every downstream
//! check of the campaign.
//!
//! The catalogue deliberately targets the merging pipeline's assumptions:
//! block splits and edge splits reshape the CFG that alignment linearizes,
//! clones create near-identical merge candidates, phi rewiring and opcode
//! substitution create *almost*-alignable bodies, and call insertion grows
//! the call graph the thunk machinery must preserve.

use f3m_ir::ids::{BlockId, FuncId, InstId};
use f3m_ir::function::Linkage;
use f3m_ir::inst::{
    FloatPredicate, Instruction, IntPredicate, Opcode, Predicate,
};
use f3m_ir::module::Module;
use f3m_ir::types::TypeId;
use f3m_ir::value::ValueKind;
use f3m_prng::SmallRng;

/// A structural mutator: returns `true` if it changed the module.
pub type Mutator = fn(&mut Module, &mut SmallRng) -> bool;

/// The mutator catalogue, as `(name, function)` pairs. Names are stable —
/// they key the campaign's coverage histogram and appear in corpus
/// metadata.
pub const MUTATORS: &[(&str, Mutator)] = &[
    ("split-block", mut_split_block),
    ("split-edge", mut_split_edge),
    ("swap-condbr", mut_swap_condbr),
    ("clone-function", mut_clone_function),
    ("rewire-phi", mut_rewire_phi),
    ("subst-opcode", mut_subst_opcode),
    ("perturb-const", mut_perturb_const),
    ("cast-round-trip", mut_cast_round_trip),
    ("insert-call", mut_insert_call),
];

/// Applies a randomly chosen mutator, retrying with fresh choices up to
/// `attempts` times if the drawn mutator finds nothing to do on this
/// module. Returns the name of the mutator that fired.
pub fn apply_random(
    m: &mut Module,
    rng: &mut SmallRng,
    attempts: usize,
) -> Option<&'static str> {
    for _ in 0..attempts {
        let (name, f) = MUTATORS[rng.gen_range(0..MUTATORS.len())];
        if f(m, rng) {
            return Some(name);
        }
    }
    None
}

/// Picks a random merge-eligible function definition.
fn pick_func(m: &Module, rng: &mut SmallRng) -> Option<FuncId> {
    let cands = m.merge_eligible();
    if cands.is_empty() {
        return None;
    }
    Some(cands[rng.gen_range(0..cands.len())])
}

/// Splits a random block at a random legal position. The tail (including
/// the terminator) moves to a new block; the head is re-terminated with an
/// unconditional branch. Semantics-preserving.
fn mut_split_block(m: &mut Module, rng: &mut SmallRng) -> bool {
    let Some(fid) = pick_func(m, rng) else { return false };
    let f = m.function(fid);
    let cands: Vec<(BlockId, usize, usize)> = f
        .block_order
        .iter()
        .filter(|&&bb| f.terminator(bb).is_some())
        .map(|&bb| (bb, f.first_non_phi(bb), f.block(bb).insts.len()))
        .collect();
    if cands.is_empty() {
        return false;
    }
    let (bb, lo, len) = cands[rng.gen_range(0..cands.len())];
    let pos = rng.gen_range(lo..len);
    m.function_mut(fid).split_block(bb, pos);
    true
}

/// Splits a random CFG edge by routing it through a fresh trampoline block
/// holding a single unconditional branch. Semantics-preserving; phis in the
/// old target are rewired (or extended, when the source keeps a parallel
/// edge to the same target) so that incoming blocks still match the
/// deduplicated predecessor set.
fn mut_split_edge(m: &mut Module, rng: &mut SmallRng) -> bool {
    let Some(fid) = pick_func(m, rng) else { return false };
    let f = m.function_mut(fid);
    let mut edges: Vec<(BlockId, InstId, usize)> = Vec::new();
    for &bb in &f.block_order {
        if let Some((tid, inst)) = f.terminator(bb) {
            for si in 0..inst.blocks.len() {
                edges.push((bb, tid, si));
            }
        }
    }
    if edges.is_empty() {
        return false;
    }
    let (bb, tid, si) = edges[rng.gen_range(0..edges.len())];
    let succ = f.inst(tid).blocks[si];
    let tramp = f.add_block();
    f.append_inst(
        tramp,
        Instruction::new(Opcode::Br, TypeId::VOID, &[], &[succ]),
    );
    f.blocks_mut(tid)[si] = tramp;
    // Does bb still reach succ through another terminator slot (e.g. a
    // condbr with both arms on the same target)? Then bb stays a
    // predecessor and the phi needs an *additional* entry for the
    // trampoline; otherwise the bb entry is renamed to the trampoline.
    let still_pred = f.inst(tid).blocks.contains(&succ);
    let phi_ids: Vec<InstId> = f
        .block(succ)
        .insts
        .iter()
        .copied()
        .take_while(|&i| f.inst(i).op == Opcode::Phi)
        .collect();
    for pid in phi_ids {
        if still_pred {
            let inst = f.inst(pid);
            if let Some(k) = inst.blocks.iter().position(|&b| b == bb) {
                let v = inst.operands[k];
                f.push_block(pid, tramp);
                f.push_operand(pid, v);
            }
        } else {
            for b in f.blocks_mut(pid) {
                if *b == bb {
                    *b = tramp;
                }
            }
        }
    }
    true
}

/// Swaps the two targets of a random conditional branch. Changes behaviour
/// (intentionally — the oracle compares against the merged form of the
/// *mutated* module) but never validity: the successor set is unchanged.
fn mut_swap_condbr(m: &mut Module, rng: &mut SmallRng) -> bool {
    let Some(fid) = pick_func(m, rng) else { return false };
    let cands: Vec<InstId> = m
        .function(fid)
        .linked_insts()
        .filter(|(_, i)| i.op == Opcode::CondBr)
        .map(|(id, _)| id)
        .collect();
    if cands.is_empty() {
        return false;
    }
    let id = cands[rng.gen_range(0..cands.len())];
    m.function_mut(fid).blocks_mut(id).swap(0, 1);
    true
}

/// Clones a random definition under a fresh internal name. The clone is an
/// exact duplicate — prime merge bait — and internal linkage lets the pass
/// delete it once merged.
fn mut_clone_function(m: &mut Module, rng: &mut SmallRng) -> bool {
    let cands: Vec<FuncId> = m
        .defined_functions()
        .into_iter()
        .filter(|&f| {
            let n = m.function(f).num_linked_insts();
            n > 0 && n <= 200
        })
        .collect();
    if cands.is_empty() {
        return false;
    }
    let fid = cands[rng.gen_range(0..cands.len())];
    let mut g = m.function(fid).clone();
    g.name = m.fresh_name("fuzz.clone");
    g.linkage = Linkage::Internal;
    m.add_function(g);
    true
}

/// Replaces a random phi incoming value with a constant of the phi's type
/// (or `undef` for non-scalar types). Constants dominate everything, so
/// validity is unconditional.
fn mut_rewire_phi(m: &mut Module, rng: &mut SmallRng) -> bool {
    let Some(fid) = pick_func(m, rng) else { return false };
    let (f, ts) = m.func_mut_and_types(fid);
    let phis: Vec<InstId> = f
        .linked_insts()
        .filter(|(_, i)| i.op == Opcode::Phi)
        .map(|(id, _)| id)
        .collect();
    if phis.is_empty() {
        return false;
    }
    let pid = phis[rng.gen_range(0..phis.len())];
    let n = f.inst(pid).operands.len();
    let k = rng.gen_range(0..n);
    let ty = f.inst(pid).ty;
    let newv = if ts.is_int(ty) {
        let v = rng.gen_range(-8..=8i64);
        f.const_int(ts, ty, v)
    } else if ts.is_float(ty) {
        let v = rng.gen_range(-4.0..4.0);
        f.const_float(ty, v)
    } else {
        f.undef(ty)
    };
    f.operands_mut(pid)[k] = newv;
    true
}

const INT_POOL: [Opcode; 13] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::UDiv,
    Opcode::SDiv,
    Opcode::URem,
    Opcode::SRem,
    Opcode::Shl,
    Opcode::LShr,
    Opcode::AShr,
    Opcode::And,
    Opcode::Or,
    Opcode::Xor,
];

const FLOAT_POOL: [Opcode; 5] =
    [Opcode::FAdd, Opcode::FSub, Opcode::FMul, Opcode::FDiv, Opcode::FRem];

const INT_PREDS: [IntPredicate; 10] = [
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

const FLOAT_PREDS: [FloatPredicate; 6] = [
    FloatPredicate::Oeq,
    FloatPredicate::One,
    FloatPredicate::Ogt,
    FloatPredicate::Oge,
    FloatPredicate::Olt,
    FloatPredicate::Ole,
];

/// Substitutes the opcode of a random binary operation within its type
/// family, or the predicate of a random comparison. All members of each
/// pool share the same shape and type rules, so validity is preserved.
fn mut_subst_opcode(m: &mut Module, rng: &mut SmallRng) -> bool {
    let Some(fid) = pick_func(m, rng) else { return false };
    let f = m.function_mut(fid);
    let cands: Vec<InstId> = f
        .linked_insts()
        .filter(|(_, i)| i.op.is_binary() || matches!(i.op, Opcode::ICmp | Opcode::FCmp))
        .map(|(id, _)| id)
        .collect();
    if cands.is_empty() {
        return false;
    }
    let id = cands[rng.gen_range(0..cands.len())];
    let op = f.inst(id).op;
    if op.is_int_binary() {
        f.set_op(id, INT_POOL[rng.gen_range(0..INT_POOL.len())]);
    } else if op.is_float_binary() {
        f.set_op(id, FLOAT_POOL[rng.gen_range(0..FLOAT_POOL.len())]);
    } else if op == Opcode::ICmp {
        let pred = Predicate::Int(INT_PREDS[rng.gen_range(0..INT_PREDS.len())]);
        f.set_pred(id, Some(pred));
    } else {
        let pred = Predicate::Float(FLOAT_PREDS[rng.gen_range(0..FLOAT_PREDS.len())]);
        f.set_pred(id, Some(pred));
    }
    true
}

/// Replaces a random constant operand with a perturbed constant of the same
/// type. Callee slots of calls/invokes are left alone (they hold function
/// references, and perturbing them is `insert-call`'s job).
fn mut_perturb_const(m: &mut Module, rng: &mut SmallRng) -> bool {
    let Some(fid) = pick_func(m, rng) else { return false };
    let (f, ts) = m.func_mut_and_types(fid);
    let mut cands: Vec<(InstId, usize)> = Vec::new();
    for (id, inst) in f.linked_insts() {
        let skip_callee = matches!(inst.op, Opcode::Call | Opcode::Invoke);
        for (k, &op) in inst.operands.iter().enumerate() {
            if skip_callee && k == 0 {
                continue;
            }
            if matches!(f.value(op).kind, ValueKind::ConstInt(_) | ValueKind::ConstFloat(_)) {
                cands.push((id, k));
            }
        }
    }
    if cands.is_empty() {
        return false;
    }
    let (id, k) = cands[rng.gen_range(0..cands.len())];
    let old = f.inst(id).operands[k];
    let ty = f.value(old).ty;
    let newv = match f.value(old).kind {
        ValueKind::ConstInt(v) => {
            let mut delta = rng.gen_range(-16..=16i64);
            if delta == 0 {
                delta = 1;
            }
            f.const_int(ts, ty, v.wrapping_add(delta))
        }
        ValueKind::ConstFloat(bits) => {
            let old_val = f64::from_bits(bits);
            let base = if old_val.is_finite() { old_val } else { 0.0 };
            // Keep the perturbation finite; downstream arithmetic may still
            // produce NaN/inf, which the oracle compares bit-for-bit.
            let v = base * 0.5 + rng.gen_range(-8.0..8.0);
            f.const_float(ty, v)
        }
        _ => unreachable!("candidate filter admits only constants"),
    };
    if newv == old {
        return false;
    }
    f.operands_mut(id)[k] = newv;
    true
}

/// Routes a random integer-valued instruction result through a widening /
/// narrowing cast pair, replacing all its uses with the casted-back value.
/// Identity for widths below 64 (sext then trunc); intentionally lossy for
/// `i64` (trunc to `i32` then sext back).
fn mut_cast_round_trip(m: &mut Module, rng: &mut SmallRng) -> bool {
    let Some(fid) = pick_func(m, rng) else { return false };
    let i64t = m.types.int(64);
    let i32t = m.types.int(32);
    let (f, ts) = m.func_mut_and_types(fid);
    let mut cands: Vec<(BlockId, usize)> = Vec::new();
    for &bb in &f.block_order {
        for (p, (iid, inst)) in f.block_insts(bb).enumerate() {
            if inst.is_terminator() || f.result(iid).is_none() {
                continue;
            }
            match ts.int_bits(inst.ty) {
                Some(bits) if bits <= 64 => cands.push((bb, p)),
                _ => {}
            }
        }
    }
    if cands.is_empty() {
        return false;
    }
    let (bb, p) = cands[rng.gen_range(0..cands.len())];
    let inst_id = f.block(bb).insts[p];
    let r = f.result(inst_id).expect("candidate has a result");
    let ty = f.inst(inst_id).ty;
    let bits = ts.int_bits(ty).expect("candidate is integer-typed");
    // Phi results must not have non-phi instructions inserted into the
    // leading phi group; the first legal point still sees the def.
    let pos = (p + 1).max(f.first_non_phi(bb));
    let (wide_op, wide_ty, back_op) = if bits < 64 {
        (Opcode::SExt, i64t, Opcode::Trunc)
    } else {
        (Opcode::Trunc, i32t, Opcode::SExt)
    };
    let (wide_id, wide_res) = f.insert_inst(bb, pos, Instruction::new(wide_op, wide_ty, &[r], &[]));
    let wide = [wide_res.unwrap()];
    let (_, back_res) = f.insert_inst(bb, pos + 1, Instruction::new(back_op, ty, &wide, &[]));
    f.replace_all_uses(r, back_res.unwrap());
    // replace_all_uses also rewired the widening cast's own input; undo
    // that one edge to break the cycle.
    f.operands_mut(wide_id)[0] = r;
    true
}

/// True if `from`'s body references `target` (transitively) through
/// function-reference constants. Overapproximates by scanning the whole
/// constant arena, which can only reject more call insertions than
/// necessary.
fn reaches(m: &Module, from: FuncId, target: FuncId) -> bool {
    let mut seen = vec![false; m.num_functions()];
    let mut work = vec![from];
    seen[from.index()] = true;
    while let Some(f) = work.pop() {
        if f == target {
            return true;
        }
        for (_, v) in m.function(f).constants() {
            if let ValueKind::FuncRef(g) = v.kind {
                if !seen[g.index()] {
                    seen[g.index()] = true;
                    work.push(g);
                }
            }
        }
    }
    false
}

/// Inserts a call to a random function with constant arguments into a
/// random block of another function. The callee is rejected if it can
/// (transitively) reach the caller, so the call graph stays acyclic and no
/// unbounded recursion appears.
fn mut_insert_call(m: &mut Module, rng: &mut SmallRng) -> bool {
    let Some(caller) = pick_func(m, rng) else { return false };
    let callees: Vec<FuncId> = m
        .functions()
        .filter(|&(id, f)| {
            id != caller
                && f.params
                    .iter()
                    .all(|&p| m.types.is_int(p) || m.types.is_float(p) || m.types.is_ptr(p))
                && !reaches(m, id, caller)
        })
        .map(|(id, _)| id)
        .collect();
    if callees.is_empty() {
        return false;
    }
    let callee = callees[rng.gen_range(0..callees.len())];
    let params = m.function(callee).params.clone();
    let ret_ty = m.function(callee).ret_ty;
    let (f, ts) = m.func_mut_and_types(caller);
    let fref = f.func_ref(callee);
    let mut operands = Vec::with_capacity(1 + params.len());
    operands.push(fref);
    for &p in &params {
        let arg = if ts.is_int(p) {
            let v = rng.gen_range(-100..=100i64);
            f.const_int(ts, p, v)
        } else if ts.is_float(p) {
            let v = rng.gen_range(-16.0..16.0);
            f.const_float(p, v)
        } else {
            f.undef(p)
        };
        operands.push(arg);
    }
    let blocks: Vec<BlockId> =
        f.block_order.iter().copied().filter(|&bb| f.terminator(bb).is_some()).collect();
    if blocks.is_empty() {
        return false;
    }
    let bb = blocks[rng.gen_range(0..blocks.len())];
    let pos = rng.gen_range(f.first_non_phi(bb)..f.block(bb).insts.len());
    f.insert_inst(
        bb,
        pos,
        Instruction::new(Opcode::Call, ret_ty, &operands, &[]),
    );
    true
}
