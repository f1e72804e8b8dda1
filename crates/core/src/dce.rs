//! Dead-code elimination.
//!
//! A small cleanup pass run after merging (real pipelines run DCE and
//! `simplifycfg` after the merger too): deletes instructions whose results
//! are unused and that have no side effects, plus blocks that became
//! unreachable. Guard diamonds and dominance repair occasionally leave
//! such residue behind (e.g. a cloned computation whose only use was on
//! the other side's path).

use std::collections::HashSet;

use f3m_ir::cfg::Cfg;
use f3m_ir::ids::{FuncId, InstId};
use f3m_ir::inst::Opcode;
use f3m_ir::module::Module;
use f3m_ir::value::ValueKind;

/// Whether an instruction can be deleted when its result is unused.
fn is_removable(op: Opcode) -> bool {
    !(op.is_terminator()
        || matches!(op, Opcode::Store | Opcode::Call | Opcode::Invoke))
}

/// Removes dead instructions from one function. Returns the number of
/// instructions deleted.
pub fn dce_function(m: &mut Module, fid: FuncId) -> usize {
    let mut removed_total = 0;
    loop {
        let f = m.function(fid);
        if f.is_declaration {
            return removed_total;
        }
        // Which instructions' results are used, by `InstId`.
        let mut used = vec![false; f.num_insts()];
        for (_, inst) in f.linked_insts() {
            for &op in inst.operands {
                if let ValueKind::Inst(def) = f.value(op).kind {
                    used[def.index()] = true;
                }
            }
        }
        // Find dead instructions: removable ones whose result, if they
        // have one, is unused.
        let dead: Vec<InstId> = f
            .linked_insts()
            .filter(|&(iid, inst)| is_removable(inst.op) && !used[iid.index()])
            .map(|(iid, _)| iid)
            .collect();
        if dead.is_empty() {
            return removed_total;
        }
        removed_total += dead.len();
        let dead_set: HashSet<InstId> = dead.into_iter().collect();
        let f = m.function_mut(fid);
        let blocks: Vec<_> = f.block_order.clone();
        for bb in blocks {
            let kept: Vec<InstId> =
                f.block(bb).insts.iter().copied().filter(|i| !dead_set.contains(i)).collect();
            f.set_block_insts(bb, &kept);
        }
        // Iterate: removing uses may make more instructions dead.
    }
}

/// Removes unreachable blocks from one function (they cannot execute, and
/// pruning them lets the size model credit the cleanup). Returns the
/// number of blocks removed.
pub fn prune_unreachable(m: &mut Module, fid: FuncId) -> usize {
    let f = m.function(fid);
    if f.is_declaration || f.block_order.is_empty() {
        return 0;
    }
    let cfg = Cfg::compute(f);
    let dead: Vec<_> = f.block_order.iter().copied().filter(|&b| !cfg.is_reachable(b)).collect();
    if dead.is_empty() {
        return 0;
    }
    let n = dead.len();
    let f = m.function_mut(fid);
    // Unlink the blocks and empty them so their instructions no longer
    // count as linked.
    f.block_order.retain(|b| !dead.contains(b));
    for b in dead {
        f.set_block_insts(b, &[]);
    }
    // Phis may reference removed predecessors; the verifier's pred sets
    // shrink identically because the edges are gone, so remaining phis
    // stay consistent (unreachable incoming blocks no longer appear as
    // preds nor as phi entries — they were only reachable *from* the dead
    // blocks).
    n
}

/// Runs DCE + unreachable-block pruning over every function. Returns
/// `(instructions removed, blocks removed)`.
pub fn dce_module(m: &mut Module) -> (usize, usize) {
    let mut insts = 0;
    let mut blocks = 0;
    for fid in m.defined_functions() {
        blocks += prune_unreachable(m, fid);
        insts += dce_function(m, fid);
    }
    (insts, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3m_ir::parser::parse_module;
    use f3m_ir::verify::verify_module;

    #[test]
    fn removes_unused_pure_instructions() {
        let mut m = parse_module(
            r#"
module "t" {
define @f(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %2 = mul i32 %0, 99
  %3 = xor i32 %2, 5
  ret i32 %1
}
}
"#,
        )
        .unwrap();
        let fid = m.lookup_function("f").unwrap();
        let removed = dce_function(&mut m, fid);
        assert_eq!(removed, 2, "the mul/xor chain is dead");
        verify_module(&m).unwrap();
        assert_eq!(m.function(fid).num_linked_insts(), 2);
    }

    #[test]
    fn keeps_side_effects() {
        let mut m = parse_module(
            r#"
module "t" {
declare @ext_sink_i32(i32) -> void
define @f(i32 %0) -> i32 {
bb0:
  %1 = alloca i32
  store i32 %0, %1
  call void @ext_sink_i32(i32 %0)
  %2 = call i32 @f(i32 %0)
  ret i32 %0
}
}
"#,
        )
        .unwrap();
        let fid = m.lookup_function("f").unwrap();
        let before = m.function(fid).num_linked_insts();
        dce_function(&mut m, fid);
        // The unused call result must not be deleted (calls may have side
        // effects); stores likewise. Only nothing here is deletable.
        assert_eq!(m.function(fid).num_linked_insts(), before);
        verify_module(&m).unwrap();
    }

    #[test]
    fn dce_is_transitive() {
        let mut m = parse_module(
            r#"
module "t" {
define @f(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %2 = mul i32 %1, 2
  %3 = xor i32 %2, 3
  ret i32 %0
}
}
"#,
        )
        .unwrap();
        let fid = m.lookup_function("f").unwrap();
        assert_eq!(dce_function(&mut m, fid), 3, "whole chain dies bottom-up");
        verify_module(&m).unwrap();
    }

    #[test]
    fn prunes_unreachable_blocks() {
        let mut m = parse_module(
            r#"
module "t" {
define @f(i32 %0) -> i32 {
bb0:
  ret i32 %0
bb1:
  %1 = add i32 %0, 1
  ret i32 %1
}
}
"#,
        )
        .unwrap();
        let fid = m.lookup_function("f").unwrap();
        let before = f3m_ir::size::function_size(m.function(fid));
        assert_eq!(prune_unreachable(&mut m, fid), 1);
        verify_module(&m).unwrap();
        assert!(f3m_ir::size::function_size(m.function(fid)) < before);
    }

    #[test]
    fn module_level_dce_covers_all_functions() {
        let mut m = parse_module(
            r#"
module "t" {
define @a(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 2
  ret i32 %0
}
define @b(i32 %0) -> i32 {
bb0:
  %1 = mul i32 %0, 2
  ret i32 %0
}
}
"#,
        )
        .unwrap();
        let (insts, blocks) = dce_module(&mut m);
        assert_eq!(insts, 2);
        assert_eq!(blocks, 0);
        verify_module(&m).unwrap();
    }
}

#[cfg(test)]
mod prune_regression_tests {
    use super::*;
    use f3m_ir::parser::parse_module;
    use f3m_ir::verify::verify_module;

    /// Regression: pruning a block in the *middle* of the arena used to
    /// leave CFG/dominator tables sized by the shortened block order while
    /// still indexed by arena ids, panicking on the next analysis.
    #[test]
    fn pruning_middle_blocks_keeps_analyses_working() {
        let mut m = parse_module(
            r#"
module "t" {
define @f(i32 %0) -> i32 {
bb0:
  br bb2
bb1:
  %1 = add i32 %0, 1
  ret i32 %1
bb2:
  %2 = mul i32 %0, 2
  ret i32 %2
}
}
"#,
        )
        .unwrap();
        let fid = m.lookup_function("f").unwrap();
        assert_eq!(prune_unreachable(&mut m, fid), 1);
        // All analyses must still work on the pruned function.
        verify_module(&m).unwrap();
        let f = m.function(fid);
        let cfg = f3m_ir::cfg::Cfg::compute(f);
        let dt = f3m_ir::dom::DomTree::compute(f, &cfg);
        assert!(dt.dominates(f.entry(), f.block_order[1]));
        assert_eq!(f.num_blocks(), 2);
        assert_eq!(f.block_arena_len(), 3);
    }
}
