//! Dominator analysis.
//!
//! Implements the Cooper–Harvey–Kennedy "simple, fast dominance algorithm".
//! The merging code generator uses [`DomTree::dominates_inst`] to detect SSA
//! dominance violations introduced by cross-function code reuse, which it
//! then repairs with phi-nodes or stack demotion (paper Section III-E).

use crate::cfg::Cfg;
use crate::ids::{BlockId, InstId};
use crate::function::{Function, Placement};

/// Dominator tree for one function.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// `idom[b] = immediate dominator` (entry maps to itself);
    /// `None` for unreachable blocks.
    idom: Vec<Option<BlockId>>,
    entry: BlockId,
}

impl DomTree {
    /// Computes the dominator tree from a CFG.
    pub fn compute(f: &Function, cfg: &Cfg) -> DomTree {
        let n = f.block_arena_len();
        let entry = f.entry();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[entry.index()] = Some(entry);

        // Iterate to fixpoint over the reverse post-order.
        let mut changed = true;
        while changed {
            changed = false;
            for &bb in cfg.rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in cfg.preds(bb) {
                    if idom[p.index()].is_none() {
                        continue; // unprocessed or unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => Self::intersect(&idom, cfg, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[bb.index()] != Some(ni) {
                        idom[bb.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        DomTree { idom, entry }
    }

    fn intersect(idom: &[Option<BlockId>], cfg: &Cfg, mut a: BlockId, mut b: BlockId) -> BlockId {
        let rpo = |x: BlockId| cfg.rpo_index(x).expect("reachable");
        while a != b {
            while rpo(a) > rpo(b) {
                a = idom[a.index()].expect("processed");
            }
            while rpo(b) > rpo(a) {
                b = idom[b.index()].expect("processed");
            }
        }
        a
    }

    /// Immediate dominator of `bb` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, bb: BlockId) -> Option<BlockId> {
        if bb == self.entry {
            return None;
        }
        self.idom[bb.index()]
    }

    /// Whether block `a` dominates block `b`. A block dominates itself.
    /// Unreachable blocks dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.idom[b.index()].is_none() || self.idom[a.index()].is_none() {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == self.entry {
                return false;
            }
            cur = self.idom[cur.index()].expect("reachable chain");
        }
    }

    /// Whether the *definition* `def` dominates the ordinary use in
    /// `use_inst`, both where `placed` puts them: its block dominates the
    /// use's, or it comes first in the same block. An instruction no block
    /// lists dominates nothing. Phi uses are [`DomTree::dominates_phi_use`]'s.
    pub fn dominates_inst(&self, placed: &Placement, def: InstId, use_inst: InstId) -> bool {
        match (placed.of(def), placed.of(use_inst)) {
            (Some((db, dpos)), Some((ub, upos))) if db == ub => dpos < upos,
            (Some((db, _)), Some((ub, _))) => self.dominates(db, ub),
            _ => false,
        }
    }

    /// Dominance check for a phi use: the definition must dominate the end
    /// of the incoming block `incoming`, which one listed in that block
    /// does wherever it is.
    pub fn dominates_phi_use(&self, placed: &Placement, def: InstId, incoming: BlockId) -> bool {
        placed.of(def).is_some_and(|(db, _)| db == incoming || self.dominates(db, incoming))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Function;
    use crate::inst::IntPredicate;
    use crate::types::TypeStore;

    /// entry -> {a, b}; a -> c; b -> c; c -> {d(loop back to c? no)}.
    fn build() -> (Function, Vec<BlockId>) {
        let mut ts = TypeStore::new();
        let i32t = ts.int(32);
        let mut f = Function::new("g", vec![i32t, i32t], i32t);
        let mut b = FunctionBuilder::new(&mut ts, &mut f);
        let entry = b.create_block();
        let ba = b.create_block();
        let bb = b.create_block();
        let bc = b.create_block();
        b.position_at_end(entry);
        let c = b.icmp(IntPredicate::Eq, b.func().arg(0), b.func().arg(1));
        b.cond_br(c, ba, bb);
        b.position_at_end(ba);
        let x = b.add(b.func().arg(0), b.func().arg(1));
        b.br(bc);
        b.position_at_end(bb);
        let y = b.mul(b.func().arg(0), b.func().arg(1));
        b.br(bc);
        b.position_at_end(bc);
        let p = b.phi(i32t, &[(x, ba), (y, bb)]);
        b.ret(Some(p));
        (f, vec![entry, ba, bb, bc])
    }

    #[test]
    fn idoms_of_diamond() {
        let (f, bs) = build();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let (entry, a, b, c) = (bs[0], bs[1], bs[2], bs[3]);
        assert_eq!(dt.idom(entry), None);
        assert_eq!(dt.idom(a), Some(entry));
        assert_eq!(dt.idom(b), Some(entry));
        assert_eq!(dt.idom(c), Some(entry));
    }

    #[test]
    fn dominates_is_reflexive_and_respects_tree() {
        let (f, bs) = build();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let (entry, a, _b, c) = (bs[0], bs[1], bs[2], bs[3]);
        assert!(dt.dominates(entry, c));
        assert!(dt.dominates(a, a));
        assert!(!dt.dominates(a, c), "a does not dominate the join");
        assert!(!dt.dominates(c, entry));
    }

    #[test]
    fn same_block_instruction_order() {
        let (f, bs) = build();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let entry = bs[0];
        let insts = f.block(entry).insts.to_vec();
        let placed = f.placement().unwrap();
        assert!(dt.dominates_inst(&placed, insts[0], insts[1]));
        assert!(!dt.dominates_inst(&placed, insts[1], insts[0]));
        assert!(!dt.dominates_inst(&placed, insts[0], insts[0]));
    }

    #[test]
    fn cross_block_dominance() {
        let (f, bs) = build();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let (entry, a, _, c) = (bs[0], bs[1], bs[2], bs[3]);
        let cmp = f.block(entry).insts[0];
        let phi = f.block(c).insts[0];
        let placed = f.placement().unwrap();
        assert!(dt.dominates_inst(&placed, cmp, phi));
        let add = f.block(a).insts[0];
        assert!(!dt.dominates_inst(&placed, phi, add));
    }

    #[test]
    fn phi_uses_checked_at_incoming_block_end() {
        let (f, bs) = build();
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        let (_, a, b, _) = (bs[0], bs[1], bs[2], bs[3]);
        let add_in_a = f.block(a).insts[0];
        let placed = f.placement().unwrap();
        assert!(dt.dominates_phi_use(&placed, add_in_a, a));
        assert!(!dt.dominates_phi_use(&placed, add_in_a, b));
    }

    #[test]
    fn loop_idoms() {
        // entry -> header; header -> {body, exit}; body -> header.
        let mut ts = TypeStore::new();
        let i32t = ts.int(32);
        let mut f = Function::new("l", vec![i32t], i32t);
        let mut bld = FunctionBuilder::new(&mut ts, &mut f);
        let entry = bld.create_block();
        let header = bld.create_block();
        let body = bld.create_block();
        let exit = bld.create_block();
        bld.position_at_end(entry);
        bld.br(header);
        bld.position_at_end(header);
        let zero = bld.const_int(i32t, 0);
        let c = bld.icmp(IntPredicate::Sgt, bld.func().arg(0), zero);
        bld.cond_br(c, body, exit);
        bld.position_at_end(body);
        bld.br(header);
        bld.position_at_end(exit);
        let r = bld.const_int(i32t, 0);
        bld.ret(Some(r));
        let cfg = Cfg::compute(&f);
        let dt = DomTree::compute(&f, &cfg);
        assert_eq!(dt.idom(header), Some(entry));
        assert_eq!(dt.idom(body), Some(header));
        assert_eq!(dt.idom(exit), Some(header));
        assert!(dt.dominates(header, body));
        assert!(!dt.dominates(body, exit));
    }
}
