//! Delta-debugging reducer for failing modules.
//!
//! Classic ddmin-style loop specialized to the IR's structure. Each probe
//! builds a candidate module, checks it still verifies, and keeps it only
//! if the caller's predicate says the original failure still reproduces.
//! Reduction proceeds coarse to fine, repeated until a fixpoint:
//!
//! 1. **Stub functions** — replace whole bodies with a single `ret 0`.
//! 2. **Gut blocks** — empty a non-entry block down to `unreachable`,
//!    detaching its phis and edges.
//! 3. **Drop instructions** — unlink single instructions, replacing their
//!    results with `undef` (only once the module is small; this phase is
//!    quadratic-ish). Dropping calls is what makes callees unreferenced.
//! 4. **Strip functions** — textually delete definitions/declarations no
//!    linked instruction references anymore, via print → cut → reparse
//!    (unlinking a definition in place would leave dangling function
//!    references in the arena).
//!
//! The predicate fully decides semantics: the reducer never assumes which
//! functions matter, so e.g. the driver survives only because removing it
//! makes the failure disappear.

use std::collections::HashSet;

use f3m_ir::function::Function;
use f3m_ir::ids::{BlockId, FuncId, InstId};
use f3m_ir::inst::{Instruction, Opcode};
use f3m_ir::module::Module;
use f3m_ir::parser::parse_module;
use f3m_ir::printer::print_module;
use f3m_ir::value::ValueKind;
use f3m_ir::verify::verify_module;

/// Upper bound on coarse-to-fine sweeps; reduction almost always reaches a
/// fixpoint in two or three.
const MAX_ROUNDS: usize = 6;

/// Instruction-dropping is per-instruction probing; gate it on module size
/// so reduction time stays bounded on large reproducers.
const DROP_INST_LIMIT: usize = 600;

/// Size of the module before and after reduction.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReductionStats {
    /// Function definitions in the failing module.
    pub functions_before: usize,
    /// Function definitions in the reduced module.
    pub functions_after: usize,
    /// Linked instructions in the failing module.
    pub insts_before: usize,
    /// Linked instructions in the reduced module.
    pub insts_after: usize,
    /// Sweeps that committed at least one simplification.
    pub rounds: usize,
}

impl ReductionStats {
    /// Instruction-count ratio after/before (1.0 when nothing reduced).
    pub fn ratio(&self) -> f64 {
        if self.insts_before == 0 {
            1.0
        } else {
            self.insts_after as f64 / self.insts_before as f64
        }
    }
}

fn accept(cand: &Module, still_fails: &dyn Fn(&Module) -> bool) -> bool {
    verify_module(cand).is_ok() && still_fails(cand)
}

/// Minimizes `start` while `still_fails` keeps returning `true`.
///
/// `still_fails` must be deterministic and must return `true` for `start`
/// itself; otherwise the reducer simply returns `start` unchanged.
pub fn reduce(
    start: &Module,
    still_fails: &dyn Fn(&Module) -> bool,
) -> (Module, ReductionStats) {
    let mut stats = ReductionStats {
        functions_before: start.defined_functions().len(),
        insts_before: start.total_insts(),
        ..Default::default()
    };
    let mut cur = start.clone();
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        // Phase 1: whole-function stubs.
        for fid in cur.defined_functions() {
            if cur.function(fid).num_linked_insts() <= 1 {
                continue;
            }
            let cand = stub_candidate(&cur, fid);
            if accept(&cand, still_fails) {
                cur = cand;
                changed = true;
            }
        }
        // Phase 2: gut non-entry blocks.
        for fid in cur.defined_functions() {
            let blocks: Vec<BlockId> =
                cur.function(fid).block_order.iter().skip(1).copied().collect();
            for bb in blocks {
                let f = cur.function(fid);
                let insts = &f.block(bb).insts;
                if insts.len() == 1 && f.inst(insts[0]).op == Opcode::Unreachable {
                    continue; // already gutted
                }
                let cand = gut_candidate(&cur, fid, bb);
                if accept(&cand, still_fails) {
                    cur = cand;
                    changed = true;
                }
            }
        }
        // Phase 3: drop single instructions.
        if cur.total_insts() <= DROP_INST_LIMIT {
            for fid in cur.defined_functions() {
                let sites = linked_where(cur.function(fid), |i| !i.is_terminator());
                for (bb, iid) in sites {
                    if !cur.function(fid).block(bb).insts.contains(&iid) {
                        continue; // unlinked by an earlier commit this round
                    }
                    let cand = drop_candidate(&cur, fid, bb, iid);
                    if accept(&cand, still_fails) {
                        cur = cand;
                        changed = true;
                    }
                }
            }
        }
        // Phase 4: strip unreferenced functions until none is strippable.
        loop {
            let referenced = referenced_names(&cur);
            let orphans: Vec<String> = cur
                .functions()
                .filter(|(_, f)| !referenced.contains(&f.name))
                .map(|(_, f)| f.name.clone())
                .collect();
            let mut stripped = false;
            for name in orphans {
                if let Some(cand) = strip_candidate(&cur, &name) {
                    if accept(&cand, still_fails) {
                        cur = cand;
                        stripped = true;
                        changed = true;
                    }
                }
            }
            if !stripped {
                break;
            }
        }
        if !changed {
            break;
        }
        stats.rounds += 1;
    }
    stats.functions_after = cur.defined_functions().len();
    stats.insts_after = cur.total_insts();
    (cur, stats)
}

/// Candidate with `fid`'s body replaced by a single trivial return.
fn stub_candidate(m: &Module, fid: FuncId) -> Module {
    let mut cand = m.clone();
    let void = cand.types.void();
    let f = cand.function(fid);
    let (name, params, ret_ty, linkage) =
        (f.name.clone(), f.params.clone(), f.ret_ty, f.linkage);
    let mut stub = Function::new(name, params, ret_ty);
    stub.linkage = linkage;
    let bb = stub.add_block();
    let ts = &cand.types;
    let mut operands = Vec::new();
    if !ts.is_void(ret_ty) {
        let v = if ts.is_int(ret_ty) {
            stub.const_int(ts, ret_ty, 0)
        } else if ts.is_float(ret_ty) {
            stub.const_float(ret_ty, 0.0)
        } else {
            stub.undef(ret_ty)
        };
        operands.push(v);
    }
    stub.append_inst(
        bb,
        Instruction::new(Opcode::Ret, void, &operands, &[]),
    );
    cand.replace_function(fid, stub);
    cand
}

/// Candidate with block `bb` of `fid` emptied down to `unreachable`. The
/// block's results are replaced with `undef` and phi entries naming `bb`
/// as an incoming predecessor are detached everywhere, since `bb` no
/// longer has successors.
fn gut_candidate(m: &Module, fid: FuncId, bb: BlockId) -> Module {
    let mut cand = m.clone();
    let void = cand.types.void();
    let f = cand.function_mut(fid);
    let insts: Vec<InstId> = f.block(bb).insts.clone();
    for &i in &insts {
        undef_uses(f, i);
    }
    f.block_mut(bb).insts.clear();
    f.append_inst(
        bb,
        Instruction::new(Opcode::Unreachable, void, &[], &[]),
    );
    for (phi_bb, pid) in linked_where(f, |i| i.op == Opcode::Phi) {
        if !f.inst(pid).blocks.contains(&bb) {
            continue;
        }
        let (blocks, operands): (Vec<_>, Vec<_>) =
            f.inst(pid).phi_incomings().filter(|&(b, _)| b != bb).unzip();
        if blocks.is_empty() {
            // Every incoming came through bb; the phi is dead.
            undef_uses(f, pid);
            f.unlink_inst(phi_bb, pid);
        } else {
            f.set_blocks(pid, &blocks);
            f.set_operands(pid, &operands);
        }
    }
    cand
}

/// Candidate with instruction `iid` unlinked from block `bb`, its result
/// (if any) replaced by `undef`.
fn drop_candidate(m: &Module, fid: FuncId, bb: BlockId, iid: InstId) -> Module {
    let mut cand = m.clone();
    let f = cand.function_mut(fid);
    undef_uses(f, iid);
    f.unlink_inst(bb, iid);
    cand
}

/// The linked instructions of `f` that `keep` accepts, each with the block
/// that lists it, in block order.
fn linked_where(f: &Function, keep: impl Fn(Instruction) -> bool) -> Vec<(BlockId, InstId)> {
    let listed = f.block_order.iter().flat_map(|&bb| f.block_insts(bb).map(move |x| (bb, x)));
    listed.filter(|&(_, (_, i))| keep(i)).map(|(bb, (id, _))| (bb, id)).collect()
}

/// Replaces every use of `iid`'s result, if it has one, with `undef`.
fn undef_uses(f: &mut Function, iid: InstId) {
    if let Some(r) = f.result(iid) {
        let u = f.undef(f.inst(iid).ty);
        f.replace_all_uses(r, u);
    }
}

/// Names of functions referenced by at least one linked instruction
/// operand anywhere in the module.
fn referenced_names(m: &Module) -> HashSet<String> {
    let mut out = HashSet::new();
    for (_, f) in m.functions() {
        for (_, inst) in f.linked_insts() {
            for &op in inst.operands {
                if let ValueKind::FuncRef(g) = f.value(op).kind {
                    out.insert(m.function(g).name.clone());
                }
            }
        }
    }
    out
}

/// Candidate with the named function removed, by cutting its printed form
/// out of the module text and reparsing. Returns `None` if the definition
/// can't be located or the stripped text no longer parses.
fn strip_candidate(m: &Module, name: &str) -> Option<Module> {
    let text = print_module(m);
    let lines: Vec<&str> = text.lines().collect();
    let needle = format!("@{name}(");
    let start = lines.iter().position(|l| {
        let t = l.trim_start();
        (t.starts_with("declare ") || t.starts_with("define ")) && l.contains(&needle)
    })?;
    let end = if lines[start].trim_start().starts_with("declare ") {
        start
    } else {
        // A definition closes at the first column-0 "}" after its header.
        (start + 1..lines.len()).find(|&j| lines[j] == "}")?
    };
    let mut kept: Vec<&str> = Vec::with_capacity(lines.len());
    kept.extend_from_slice(&lines[..start]);
    kept.extend_from_slice(&lines[end + 1..]);
    let mut new_text = kept.join("\n");
    new_text.push('\n');
    parse_module(&new_text).ok()
}
