//! IR verifier: structural, type and SSA-dominance checks.
//!
//! The verifier is the safety net for the merged-function code generator.
//! The paper (Section III-E) describes how HyFM's dominance repair had two
//! bugs that produced invalid SSA and silently broke binaries; in this
//! reproduction, every merged function is verified, so such bugs surface as
//! [`VerifyError::DominanceViolation`] instead of miscompiles.

use std::fmt;

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::ids::{BlockId, FuncId, InstId, ValueId};
use crate::inst::{Opcode, Predicate};
use crate::function::{Function, Placement};
use crate::module::Module;
use crate::types::{TypeId, TypeKind, TypeStore};
use crate::value::ValueKind;

/// A single verification failure.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyError {
    /// A function definition has no blocks.
    EmptyFunction { func: String },
    /// A block has no terminator, or has one before its end.
    BadTerminator { func: String, block: BlockId, detail: String },
    /// A phi is not in the leading phi group of its block.
    MisplacedPhi { func: String, inst: InstId },
    /// Phi incoming blocks disagree with the CFG predecessors.
    PhiIncomingMismatch { func: String, inst: InstId, detail: String },
    /// An operand's definition does not dominate its use.
    DominanceViolation { func: String, inst: InstId, operand: ValueId },
    /// An instruction is badly typed.
    TypeError { func: String, inst: InstId, detail: String },
    /// Malformed operand/target counts for an opcode, or an instruction
    /// that blocks list more than once.
    Malformed { func: String, inst: InstId, detail: String },
    /// The entry block has predecessors.
    EntryHasPreds { func: String },
    /// A call or invoke references a callee with a mismatched signature.
    SignatureMismatch { func: String, inst: InstId, detail: String },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::EmptyFunction { func } => write!(f, "{func}: definition has no blocks"),
            VerifyError::BadTerminator { func, block, detail } => {
                write!(f, "{func}/{block:?}: bad terminator: {detail}")
            }
            VerifyError::MisplacedPhi { func, inst } => {
                write!(f, "{func}/{inst:?}: phi after non-phi instruction")
            }
            VerifyError::PhiIncomingMismatch { func, inst, detail } => {
                write!(f, "{func}/{inst:?}: phi incoming mismatch: {detail}")
            }
            VerifyError::DominanceViolation { func, inst, operand } => {
                write!(f, "{func}/{inst:?}: operand {operand:?} does not dominate use")
            }
            VerifyError::TypeError { func, inst, detail } => {
                write!(f, "{func}/{inst:?}: type error: {detail}")
            }
            VerifyError::Malformed { func, inst, detail } => {
                write!(f, "{func}/{inst:?}: malformed: {detail}")
            }
            VerifyError::EntryHasPreds { func } => {
                write!(f, "{func}: entry block has predecessors")
            }
            VerifyError::SignatureMismatch { func, inst, detail } => {
                write!(f, "{func}/{inst:?}: signature mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole module.
///
/// # Errors
///
/// Returns every problem found across all function definitions.
pub fn verify_module(m: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errs = Vec::new();
    for (id, f) in m.functions() {
        if f.is_declaration {
            continue;
        }
        if let Err(mut e) = verify_function(m, id) {
            errs.append(&mut e);
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Verifies one function definition.
///
/// # Errors
///
/// Returns every problem found. An empty function body is reported as a
/// single [`VerifyError::EmptyFunction`].
pub fn verify_function(m: &Module, id: FuncId) -> Result<(), Vec<VerifyError>> {
    verify_body(&m.types, &|callee| m.function(callee), m.function(id))
}

/// Verifies `m` as if its definition `id` were replaced by `f`, whose types
/// live in `types` — `m.types` or an extension of it. Only what the
/// replacement can break is looked at: `f` itself and, when its parameter
/// or return types differ from the definition it replaces, every other
/// definition that references `id`. For an `m` that verified, the result
/// is what [`verify_module`] says of `m` with `f` installed, errors in the
/// same order.
///
/// # Errors
///
/// Returns every problem found, in module order.
pub fn verify_replacement(
    m: &Module,
    types: &TypeStore,
    id: FuncId,
    f: &Function,
) -> Result<(), Vec<VerifyError>> {
    let old = m.function(id);
    let resigned = old.params != f.params || old.ret_ty != f.ret_ty;
    let refers = |g: &Function| g.constants().any(|(_, v)| v.kind == ValueKind::FuncRef(id));
    let callee = |c: FuncId| if c == id { f } else { m.function(c) };
    let mut errs = Vec::new();
    for (gid, g) in m.functions().filter(|(_, g)| !g.is_declaration) {
        let body = if gid == id {
            f
        } else if resigned && refers(g) {
            g
        } else {
            continue;
        };
        if let Err(mut e) = verify_body(types, &callee, body) {
            errs.append(&mut e);
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Verifies definition `f` whose types live in `ts`; `callee` gives the
/// functions its direct calls name.
fn verify_body<'m>(
    ts: &TypeStore,
    callee: &dyn Fn(FuncId) -> &'m Function,
    f: &Function,
) -> Result<(), Vec<VerifyError>> {
    let fname = f.name.clone();
    let mut errs: Vec<VerifyError> = Vec::new();

    if f.block_order.is_empty() {
        return Err(vec![VerifyError::EmptyFunction { func: fname }]);
    }

    // Structural checks per block.
    for &bb in &f.block_order {
        let insts = &f.block(bb).insts;
        if insts.is_empty() {
            errs.push(VerifyError::BadTerminator {
                func: fname.clone(),
                block: bb,
                detail: "empty block".into(),
            });
            continue;
        }
        for (pos, &i) in insts.iter().enumerate() {
            let inst = f.inst(i);
            let last = pos + 1 == insts.len();
            if inst.is_terminator() && !last {
                errs.push(VerifyError::BadTerminator {
                    func: fname.clone(),
                    block: bb,
                    detail: format!("terminator {:?} not at block end", inst.op),
                });
            }
            if last && !inst.is_terminator() {
                errs.push(VerifyError::BadTerminator {
                    func: fname.clone(),
                    block: bb,
                    detail: format!("block ends with non-terminator {:?}", inst.op),
                });
            }
            // No instruction has a function type: `Function::result`
            // would give it a result that no text can name.
            if inst.ty != TypeId::VOID && !ts.is_first_class(inst.ty) {
                errs.push(VerifyError::TypeError {
                    func: fname.clone(),
                    inst: i,
                    detail: format!("{} of function type {}", inst.op.mnemonic(), ts.display(inst.ty)),
                });
            }
        }
        // Phi grouping.
        let first_non_phi = f.first_non_phi(bb);
        for &i in &insts[first_non_phi..] {
            if f.inst(i).op == Opcode::Phi {
                errs.push(VerifyError::MisplacedPhi { func: fname.clone(), inst: i });
            }
        }
    }

    // The block lists are where each instruction is; one listed twice has
    // no one place. CFG-derived checks below assume structural sanity.
    let placed = match f.placement() {
        Ok(placed) if errs.is_empty() => placed,
        Ok(_) => return Err(errs),
        Err(inst) => {
            errs.push(VerifyError::Malformed { func: fname, inst, detail: "listed twice".into() });
            return Err(errs);
        }
    };

    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);

    if !cfg.preds(f.entry()).is_empty() {
        errs.push(VerifyError::EntryHasPreds { func: fname.clone() });
    }

    for &bb in &f.block_order {
        if !cfg.is_reachable(bb) {
            continue; // unreachable code is tolerated, like in LLVM
        }
        for (iid, inst) in f.block_insts(bb) {
            check_shape(callee, f, &fname, iid, inst, &mut errs);
            check_types(ts, f, &fname, iid, inst, &mut errs);
            if inst.op == Opcode::Phi {
                check_phi(f, cfg.preds(bb), &dt, &placed, &fname, iid, &mut errs);
            } else {
                // Dominance for ordinary uses.
                for &op in inst.operands {
                    if let ValueKind::Inst(def) = f.value(op).kind {
                        if !dt.dominates_inst(&placed, def, iid) {
                            errs.push(VerifyError::DominanceViolation {
                                func: fname.clone(),
                                inst: iid,
                                operand: op,
                            });
                        }
                    }
                }
            }
        }
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

fn check_phi(
    f: &Function,
    preds: &[BlockId],
    dt: &DomTree,
    placed: &Placement,
    fname: &str,
    iid: InstId,
    errs: &mut Vec<VerifyError>,
) {
    let inst = f.inst(iid);
    if inst.operands.len() != inst.blocks.len() {
        errs.push(VerifyError::PhiIncomingMismatch {
            func: fname.to_string(),
            inst: iid,
            detail: format!(
                "{} values vs {} blocks",
                inst.operands.len(),
                inst.blocks.len()
            ),
        });
        return;
    }
    // One incoming entry per distinct predecessor (duplicate edges from a
    // conditional branch with identical targets count once).
    let mut preds: Vec<BlockId> = preds.to_vec();
    preds.sort();
    preds.dedup();
    let mut incoming: Vec<BlockId> = inst.blocks.to_vec();
    incoming.sort();
    incoming.dedup();
    if preds != incoming {
        errs.push(VerifyError::PhiIncomingMismatch {
            func: fname.to_string(),
            inst: iid,
            detail: format!("incoming blocks {incoming:?} != preds {preds:?}"),
        });
    }
    // Dominance of each incoming value at the end of its incoming block.
    for (block, val) in inst.phi_incomings() {
        if let ValueKind::Inst(def) = f.value(val).kind {
            if !dt.dominates_phi_use(placed, def, block) {
                errs.push(VerifyError::DominanceViolation {
                    func: fname.to_string(),
                    inst: iid,
                    operand: val,
                });
            }
        }
    }
}

fn check_shape<'m>(
    callee: &dyn Fn(FuncId) -> &'m Function,
    f: &Function,
    fname: &str,
    iid: InstId,
    inst: crate::inst::Instruction,
    errs: &mut Vec<VerifyError>,
) {
    let mut bad = |detail: String| {
        errs.push(VerifyError::Malformed { func: fname.to_string(), inst: iid, detail });
    };
    let nops = inst.operands.len();
    let nblocks = inst.blocks.len();
    match inst.op {
        Opcode::Ret
            if (nops > 1 || nblocks != 0) => {
                bad(format!("ret with {nops} operands / {nblocks} targets"));
            }
        Opcode::Br
            if (nops != 0 || nblocks != 1) => {
                bad(format!("br with {nops} operands / {nblocks} targets"));
            }
        Opcode::CondBr
            if (nops != 1 || nblocks != 2) => {
                bad(format!("condbr with {nops} operands / {nblocks} targets"));
            }
        Opcode::Invoke
            if (nops < 1 || nblocks != 2) => {
                bad(format!("invoke with {nops} operands / {nblocks} targets"));
            }
        Opcode::Unreachable
            if (nops != 0 || nblocks != 0) => {
                bad("unreachable with operands".into());
            }
        Opcode::Alloca
            if (nops != 0 || inst.aux_ty.is_none()) => {
                bad("alloca needs zero operands and an allocated type".into());
            }
        Opcode::Load
            if nops != 1 => {
                bad(format!("load with {nops} operands"));
            }
        Opcode::Store
            if nops != 2 => {
                bad(format!("store with {nops} operands"));
            }
        Opcode::Gep
            if (nops != 2 || inst.aux_ty.is_none()) => {
                bad("gep needs [ptr, index] and an element type".into());
            }
        Opcode::ICmp | Opcode::FCmp => {
            if nops != 2 || inst.pred.is_none() {
                bad("cmp needs two operands and a predicate".into());
            }
            match (inst.op, inst.pred) {
                (Opcode::ICmp, Some(Predicate::Float(_))) => {
                    bad("icmp with float predicate".into())
                }
                (Opcode::FCmp, Some(Predicate::Int(_))) => bad("fcmp with int predicate".into()),
                _ => {}
            }
        }
        Opcode::Select
            if nops != 3 => {
                bad(format!("select with {nops} operands"));
            }
        Opcode::Call
            if nops < 1 => {
                bad("call without callee".into());
            }
        Opcode::Phi
            if nops == 0 => {
                bad("phi with no incomings".into());
            }
        Opcode::FNeg
            if nops != 1 => {
                bad(format!("fneg with {nops} operands"));
            }
        op if op.is_binary()
            && nops != 2 => {
                bad(format!("{op:?} with {nops} operands"));
            }
        op if op.is_cast()
            && nops != 1 => {
                bad(format!("{op:?} with {nops} operands"));
            }
        _ => {}
    }
    // Call/invoke signature checks against direct callees.
    if matches!(inst.op, Opcode::Call | Opcode::Invoke) && !inst.operands.is_empty() {
        if let ValueKind::FuncRef(id) = f.value(inst.operands[0]).kind {
            let callee_f = callee(id);
            let args = &inst.operands[1..];
            if args.len() != callee_f.params.len() {
                errs.push(VerifyError::SignatureMismatch {
                    func: fname.to_string(),
                    inst: iid,
                    detail: format!(
                        "{} args to @{} expecting {}",
                        args.len(),
                        callee_f.name,
                        callee_f.params.len()
                    ),
                });
            } else {
                for (k, (&a, &p)) in args.iter().zip(callee_f.params.iter()).enumerate() {
                    if f.value(a).ty != p {
                        errs.push(VerifyError::SignatureMismatch {
                            func: fname.to_string(),
                            inst: iid,
                            detail: format!("arg {k} type mismatch calling @{}", callee_f.name),
                        });
                    }
                }
                if inst.ty != callee_f.ret_ty {
                    errs.push(VerifyError::SignatureMismatch {
                        func: fname.to_string(),
                        inst: iid,
                        detail: format!("return type mismatch calling @{}", callee_f.name),
                    });
                }
            }
        }
    }
}

fn check_types(
    ts: &TypeStore,
    f: &Function,
    fname: &str,
    iid: InstId,
    inst: crate::inst::Instruction,
    errs: &mut Vec<VerifyError>,
) {
    let mut bad = |detail: String| {
        errs.push(VerifyError::TypeError { func: fname.to_string(), inst: iid, detail });
    };
    let vty = |v: ValueId| f.value(v).ty;
    // The text writes no type for these: the one it implies is theirs.
    let implied = match inst.op {
        Opcode::Ret | Opcode::Br | Opcode::CondBr | Opcode::Unreachable | Opcode::Store => {
            Some(TypeId::VOID)
        }
        Opcode::Alloca | Opcode::Gep => Some(TypeId::PTR),
        _ => None,
    };
    if let Some(ty) = implied.filter(|&ty| ty != inst.ty) {
        bad(format!("{} must be of type {}", inst.op.mnemonic(), ts.display(ty)));
    }
    match inst.op {
        op if op.is_int_binary()
            && inst.operands.len() == 2 => {
                let (a, b) = (vty(inst.operands[0]), vty(inst.operands[1]));
                if a != b || a != inst.ty {
                    bad("int binary operand/result types differ".into());
                } else if !ts.is_int(a) {
                    bad("int binary on non-integer type".into());
                }
            }
        op if op.is_float_binary()
            && inst.operands.len() == 2 => {
                let (a, b) = (vty(inst.operands[0]), vty(inst.operands[1]));
                if a != b || a != inst.ty {
                    bad("float binary operand/result types differ".into());
                } else if !ts.is_float(a) {
                    bad("float binary on non-float type".into());
                }
            }
        Opcode::FNeg
            if inst.operands.len() == 1 => {
                let a = vty(inst.operands[0]);
                if a != inst.ty || !ts.is_float(a) {
                    bad("fneg type mismatch".into());
                }
            }
        Opcode::ICmp
            if inst.operands.len() == 2 => {
                let (a, b) = (vty(inst.operands[0]), vty(inst.operands[1]));
                if a != b {
                    bad("icmp operand types differ".into());
                } else if !(ts.is_int(a) || ts.is_ptr(a)) {
                    bad("icmp on non-integer/pointer type".into());
                }
                if !ts.is_bool(inst.ty) {
                    bad("icmp result must be i1".into());
                }
            }
        Opcode::FCmp
            if inst.operands.len() == 2 => {
                let (a, b) = (vty(inst.operands[0]), vty(inst.operands[1]));
                if a != b || !ts.is_float(a) {
                    bad("fcmp operand types invalid".into());
                }
                if !ts.is_bool(inst.ty) {
                    bad("fcmp result must be i1".into());
                }
            }
        Opcode::Select
            if inst.operands.len() == 3 => {
                if !ts.is_bool(vty(inst.operands[0])) {
                    bad("select condition must be i1".into());
                }
                let (t, e) = (vty(inst.operands[1]), vty(inst.operands[2]));
                if t != e || t != inst.ty {
                    bad("select arm/result types differ".into());
                }
            }
        Opcode::CondBr
            if inst.operands.len() == 1 && !ts.is_bool(vty(inst.operands[0])) => {
                bad("condbr condition must be i1".into());
            }
        Opcode::Ret => {
            let want_void = ts.is_void(f.ret_ty);
            match (inst.operands.first(), want_void) {
                (None, true) => {}
                (None, false) => bad("ret void in non-void function".into()),
                (Some(_), true) => bad("ret value in void function".into()),
                (Some(&v), false) => {
                    if vty(v) != f.ret_ty {
                        bad("ret value type != function return type".into());
                    }
                }
            }
        }
        Opcode::Load
            if inst.operands.len() == 1 && !ts.is_ptr(vty(inst.operands[0])) => {
                bad("load address must be ptr".into());
            }
        Opcode::Store
            if inst.operands.len() == 2 && !ts.is_ptr(vty(inst.operands[1])) => {
                bad("store address must be ptr".into());
            }
        Opcode::Gep
            if inst.operands.len() == 2 => {
                if !ts.is_ptr(vty(inst.operands[0])) {
                    bad("gep base must be ptr".into());
                }
                if !ts.is_int(vty(inst.operands[1])) {
                    bad("gep index must be an integer".into());
                }
            }
        Opcode::Phi => {
            for &v in inst.operands {
                if vty(v) != inst.ty {
                    bad("phi incoming value type mismatch".into());
                    break;
                }
            }
        }
        op if op.is_cast()
            && inst.operands.len() == 1 => {
                let from = vty(inst.operands[0]);
                let to = inst.ty;
                let valid = match op {
                    Opcode::Trunc => int_widths(ts, from, to).is_some_and(|(a, b)| a > b),
                    Opcode::ZExt | Opcode::SExt => {
                        int_widths(ts, from, to).is_some_and(|(a, b)| a < b)
                    }
                    Opcode::FPTrunc | Opcode::FPExt => {
                        ts.is_float(from) && ts.is_float(to) && from != to
                    }
                    Opcode::FPToUI | Opcode::FPToSI => ts.is_float(from) && ts.is_int(to),
                    Opcode::UIToFP | Opcode::SIToFP => ts.is_int(from) && ts.is_float(to),
                    Opcode::PtrToInt => ts.is_ptr(from) && ts.is_int(to),
                    Opcode::IntToPtr => ts.is_int(from) && ts.is_ptr(to),
                    Opcode::BitCast => ts.size_of(from) == ts.size_of(to) && from != to,
                    _ => true,
                };
                if !valid {
                    bad(format!(
                        "invalid {} from {} to {}",
                        op.mnemonic(),
                        ts.display(from),
                        ts.display(to)
                    ));
                }
            }
        _ => {}
    }
}

fn int_widths(
    ts: &crate::types::TypeStore,
    from: crate::types::TypeId,
    to: crate::types::TypeId,
) -> Option<(u32, u32)> {
    match (ts.kind(from), ts.kind(to)) {
        (TypeKind::Int(a), TypeKind::Int(b)) => Some((*a, *b)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Function;
    use crate::inst::{Instruction, IntPredicate};
    use crate::module::Module;

    fn simple_module() -> Module {
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let mut f = Function::new("ok", vec![i32t, i32t], i32t);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f);
            let entry = b.create_block();
            b.position_at_end(entry);
            let s = b.add(b.func().arg(0), b.func().arg(1));
            b.ret(Some(s));
        }
        m.add_function(f);
        m
    }

    #[test]
    fn accepts_valid_function() {
        let m = simple_module();
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let mut f = Function::new("bad", vec![i32t], i32t);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f);
            let entry = b.create_block();
            b.position_at_end(entry);
            b.add(b.func().arg(0), b.func().arg(0));
            // no ret
        }
        let id = m.add_function(f);
        let errs = verify_function(&m, id).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::BadTerminator { .. })), "{errs:?}");
    }

    #[test]
    fn rejects_type_mismatch_in_ret() {
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let i64t = m.types.int(64);
        let mut f = Function::new("bad", vec![i64t], i32t);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f);
            let entry = b.create_block();
            b.position_at_end(entry);
            let a = b.func().arg(0);
            b.ret(Some(a));
        }
        let id = m.add_function(f);
        let errs = verify_function(&m, id).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, VerifyError::TypeError { .. })), "{errs:?}");
    }

    #[test]
    fn rejects_dominance_violation() {
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let void = m.types.void();
        let mut f = Function::new("bad", vec![i32t], i32t);
        let entry = f.add_block();
        let other = f.add_block();
        // entry: ret uses a value defined in `other`, which does not
        // dominate entry.
        let arg = f.arg(0);
        let (_, late) = f.append_inst(
            other,
            Instruction::new(Opcode::Add, i32t, &[arg, arg], &[]),
        );
        // Make `other` reachable: entry condbr -> other / exit path.
        f.append_inst(
            entry,
            Instruction::new(Opcode::Ret, void, &[late.unwrap()], &[]),
        );
        f.append_inst(
            other,
            Instruction::new(Opcode::Unreachable, void, &[], &[]),
        );
        let id = m.add_function(f);
        let errs = verify_function(&m, id).unwrap_err();
        assert!(
            errs.iter().any(|e| matches!(e, VerifyError::DominanceViolation { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_phi_incoming_mismatch() {
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let mut f = Function::new("bad", vec![i32t], i32t);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f);
            let entry = b.create_block();
            let next = b.create_block();
            b.position_at_end(entry);
            b.br(next);
            b.position_at_end(next);
            // Phi claims an incoming from `next` itself, but the only pred
            // is `entry`.
            let a = b.func().arg(0);
            let p = b.phi(i32t, &[(a, next)]);
            b.ret(Some(p));
        }
        let id = m.add_function(f);
        let errs = verify_function(&m, id).unwrap_err();
        assert!(
            errs.iter().any(|e| matches!(e, VerifyError::PhiIncomingMismatch { .. })),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_misplaced_phi() {
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let void = m.types.void();
        let mut f = Function::new("bad", vec![i32t], i32t);
        let entry = f.add_block();
        let arg = f.arg(0);
        let (_, add) = f.append_inst(entry, Instruction::new(Opcode::Add, i32t, &[arg, arg], &[]));
        // Phi after a non-phi; also give it a bogus incoming to keep shape valid.
        f.append_inst(entry, Instruction::new(Opcode::Phi, i32t, &[arg], &[entry]));
        f.append_inst(entry, Instruction::new(Opcode::Ret, void, &[add.unwrap()], &[]));
        let id = m.add_function(f);
        let errs = verify_function(&m, id).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, VerifyError::MisplacedPhi { .. })), "{errs:?}");
    }

    /// A function-typed instruction that an API built is refused, as the
    /// parser refuses one it reads.
    #[test]
    fn rejects_function_typed_instructions() {
        let mut m = simple_module();
        let i32t = m.types.int(32);
        let fnty = m.types.func(vec![i32t], i32t);
        let mut f = Function::new("caller", vec![], m.types.void());
        let callee = f.func_ref(m.lookup_function("ok").unwrap());
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f);
            let entry = b.create_block();
            b.position_at_end(entry);
            b.call(callee, &[], fnty);
            b.ret(None);
        }
        let id = m.add_function(f);
        let errs = verify_function(&m, id).unwrap_err();
        let want = "call of function type fn(i32) -> i32";
        assert!(
            errs.iter().any(|e| matches!(e, VerifyError::TypeError { detail, .. } if detail == want)),
            "{errs:?}"
        );
    }

    /// A type the text does not write is the one it implies: a `br` typed
    /// `i32` would be numbered by the printer and renumber every later
    /// value of the reparse, and an `alloca` typed `i64` would read back
    /// as a `ptr`.
    #[test]
    fn rejects_a_type_the_text_implies_otherwise() {
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let mut f = Function::new("f", vec![], m.types.void());
        let (slot, br) = {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f);
            let entry = b.create_block();
            let exit = b.create_block();
            b.position_at_end(entry);
            let slot = b.alloca(i32t);
            b.br(exit);
            b.position_at_end(exit);
            b.ret(None);
            (slot, b.func().block(entry).insts[1])
        };
        let ValueKind::Inst(slot) = f.value(slot).kind else { unreachable!() };
        f.set_ty(slot, m.types.int(64));
        f.set_ty(br, i32t);
        let id = m.add_function(f);
        let errs = verify_function(&m, id).unwrap_err();
        let details: Vec<_> = errs
            .iter()
            .filter_map(|e| match e {
                VerifyError::TypeError { detail, .. } => Some(detail.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(details, ["alloca must be of type ptr", "br must be of type void"], "{errs:?}");
    }

    #[test]
    fn rejects_signature_mismatch() {
        let mut m = simple_module();
        let i32t = m.types.int(32);
        let i64t = m.types.int(64);
        let callee = m.lookup_function("ok").unwrap();
        let mut f = Function::new("caller", vec![i64t], i32t);
        let fr = f.func_ref(callee);
        {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f);
            let entry = b.create_block();
            b.position_at_end(entry);
            // Pass an i64 where `ok` expects two i32 params: both an arity
            // and a type mismatch.
            let v = b.func().arg(0);
            let _ = b.call(fr, &[v], i32t);
            let z = b.const_int(i32t, 0);
            b.ret(Some(z));
        }
        let id = m.add_function(f);
        let errs = verify_function(&m, id).unwrap_err();
        assert!(
            errs.iter().any(|e| matches!(e, VerifyError::SignatureMismatch { .. })),
            "{errs:?}"
        );
    }

    /// `entry: %x = add a, a; br next` and `next: %y = mul %x, %x; ret %y`,
    /// a function that verifies, after `edit(f, x, [entry, next])`: `x`
    /// and what the verifier says of the edited function, whose printed
    /// text does not reparse.
    fn edited(
        edit: impl FnOnce(&mut Function, InstId, [BlockId; 2]),
    ) -> (InstId, Vec<VerifyError>) {
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let mut f = Function::new("edited", vec![i32t], i32t);
        let blocks = {
            let mut b = FunctionBuilder::new(&mut m.types, &mut f);
            let (entry, next) = (b.create_block(), b.create_block());
            b.position_at_end(entry);
            let x = b.add(b.func().arg(0), b.func().arg(0));
            b.br(next);
            b.position_at_end(next);
            let y = b.mul(x, x);
            b.ret(Some(y));
            [entry, next]
        };
        let x = f.block(blocks[0]).insts[0];
        edit(&mut f, x, blocks);
        let id = m.add_function(f);
        let text = crate::printer::print_module(&m);
        assert!(crate::parser::parse_module(&text).is_err(), "the text reparses:\n{text}");
        (x, verify_function(&m, id).unwrap_err())
    }

    fn refuses_use_of(x: InstId, errs: &[VerifyError]) {
        let op = ValueId::inst(x);
        let refused = |e: &VerifyError| {
            matches!(e, VerifyError::DominanceViolation { operand, .. } if *operand == op)
        };
        assert!(errs.iter().any(refused), "{errs:?}");
    }

    /// An unlinked definition dominates nothing, though the block that
    /// listed it dominates the use.
    #[test]
    fn rejects_use_of_unlinked_definition() {
        let (x, errs) = edited(|f, x, [entry, _]| f.unlink_inst(entry, x));
        refuses_use_of(x, &errs);
    }

    /// A definition moved after its use, into the use's block, is a use
    /// before definition, whichever block it came from.
    #[test]
    fn rejects_definition_moved_after_its_use() {
        let (x, errs) = edited(|f, x, [entry, next]| {
            f.block_mut(entry).insts.retain(|&i| i != x);
            f.block_mut(next).insts.insert(1, x);
        });
        refuses_use_of(x, &errs);
    }

    /// An instruction listed in two blocks is in no one place.
    #[test]
    fn rejects_instruction_listed_in_two_blocks() {
        let (x, errs) = edited(|f, x, [_, next]| f.block_mut(next).insts.insert(0, x));
        let malformed = matches!(&errs[..], [VerifyError::Malformed { inst, .. }] if *inst == x);
        assert!(malformed, "{errs:?}");
    }

    #[test]
    fn icmp_result_must_be_bool() {
        // Constructed via the builder, icmp is always well-typed; build a raw
        // one to check the verifier path.
        let mut m = Module::new("t");
        let i32t = m.types.int(32);
        let void = m.types.void();
        let mut f = Function::new("bad", vec![i32t], i32t);
        let entry = f.add_block();
        let arg = f.arg(0);
        let (_, c) = f.append_inst(
            entry,
            Instruction {
                pred: Some(Predicate::Int(IntPredicate::Eq)),
                // The type should be i1.
                ..Instruction::new(Opcode::ICmp, i32t, &[arg, arg], &[])
            },
        );
        f.append_inst(
            entry,
            Instruction::new(Opcode::Ret, void, &[c.unwrap()], &[]),
        );
        let id = m.add_function(f);
        let errs = verify_function(&m, id).unwrap_err();
        assert!(errs.iter().any(|e| matches!(e, VerifyError::TypeError { .. })), "{errs:?}");
    }
}
