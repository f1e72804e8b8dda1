//! Control-flow graph utilities: successors, predecessors, reachability and
//! reverse post-order.

use crate::ids::BlockId;
use crate::function::Function;

/// Predecessor/successor maps plus a reverse post-order for one function.
#[derive(Clone, Debug)]
pub struct Cfg {
    preds: Vec<Vec<BlockId>>,
    succs: Vec<Vec<BlockId>>,
    /// Blocks in reverse post-order from the entry. Unreachable blocks are
    /// absent.
    pub rpo: Vec<BlockId>,
    rpo_index: Vec<Option<u32>>,
}

impl Cfg {
    /// Computes the CFG of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a declaration (has no blocks).
    pub fn compute(f: &Function) -> Cfg {
        let n = f.block_arena_len();
        assert!(f.num_blocks() > 0, "cannot compute CFG of a declaration");
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for &bb in &f.block_order {
            if let Some((_, term)) = f.terminator(bb) {
                for &s in term.successors() {
                    succs[bb.index()].push(s);
                    preds[s.index()].push(bb);
                }
            }
        }
        // Iterative DFS computing post-order.
        let entry = f.entry();
        let mut visited = vec![false; n];
        let mut post: Vec<BlockId> = Vec::with_capacity(n);
        // Stack of (block, next successor index to visit).
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        visited[entry.index()] = true;
        while let Some(&mut (bb, ref mut next)) = stack.last_mut() {
            let ss = &succs[bb.index()];
            if *next < ss.len() {
                let s = ss[*next];
                *next += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(bb);
                stack.pop();
            }
        }
        post.reverse();
        let mut rpo_index = vec![None; n];
        for (i, &bb) in post.iter().enumerate() {
            rpo_index[bb.index()] = Some(i as u32);
        }
        Cfg { preds, succs, rpo: post, rpo_index }
    }

    /// Predecessors of `bb` (with duplicates if a predecessor branches to
    /// `bb` on several edges).
    pub fn preds(&self, bb: BlockId) -> &[BlockId] {
        &self.preds[bb.index()]
    }

    /// Successors of `bb`.
    pub fn succs(&self, bb: BlockId) -> &[BlockId] {
        &self.succs[bb.index()]
    }

    /// Whether `bb` is reachable from the entry.
    pub fn is_reachable(&self, bb: BlockId) -> bool {
        self.rpo_index[bb.index()].is_some()
    }

    /// Position of `bb` in the reverse post-order, if reachable.
    pub fn rpo_index(&self, bb: BlockId) -> Option<u32> {
        self.rpo_index[bb.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::function::Function;
    use crate::inst::IntPredicate;
    use crate::types::TypeStore;

    fn diamond() -> (Function, BlockId, BlockId, BlockId, BlockId) {
        let mut ts = TypeStore::new();
        let i32t = ts.int(32);
        let mut f = Function::new("d", vec![i32t, i32t], i32t);
        let mut b = FunctionBuilder::new(&mut ts, &mut f);
        let entry = b.create_block();
        let t = b.create_block();
        let e = b.create_block();
        let j = b.create_block();
        b.position_at_end(entry);
        let c = b.icmp(IntPredicate::Slt, b.func().arg(0), b.func().arg(1));
        b.cond_br(c, t, e);
        b.position_at_end(t);
        let x = b.add(b.func().arg(0), b.func().arg(1));
        b.br(j);
        b.position_at_end(e);
        let y = b.sub(b.func().arg(0), b.func().arg(1));
        b.br(j);
        b.position_at_end(j);
        let p = b.phi(i32t, &[(x, t), (y, e)]);
        b.ret(Some(p));
        (f, entry, t, e, j)
    }

    #[test]
    fn diamond_edges() {
        let (f, entry, t, e, j) = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.succs(entry), &[t, e]);
        assert_eq!(cfg.preds(j).len(), 2);
        assert!(cfg.preds(j).contains(&t) && cfg.preds(j).contains(&e));
        assert!(cfg.preds(entry).is_empty());
    }

    #[test]
    fn rpo_starts_at_entry_and_ends_at_exit() {
        let (f, entry, _, _, j) = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.rpo.first(), Some(&entry));
        assert_eq!(cfg.rpo.last(), Some(&j));
        assert_eq!(cfg.rpo.len(), 4);
    }

    #[test]
    fn unreachable_blocks_excluded_from_rpo() {
        let mut ts = TypeStore::new();
        let i32t = ts.int(32);
        let mut f = Function::new("u", vec![], i32t);
        let mut b = FunctionBuilder::new(&mut ts, &mut f);
        let entry = b.create_block();
        let dead = b.create_block();
        b.position_at_end(entry);
        let c0 = b.const_int(i32t, 1);
        b.ret(Some(c0));
        b.position_at_end(dead);
        b.unreachable();
        let cfg = Cfg::compute(&f);
        assert!(cfg.is_reachable(entry));
        assert!(!cfg.is_reachable(dead));
        assert_eq!(cfg.rpo_index(dead), None);
    }

    #[test]
    fn rpo_respects_topological_order_in_dags() {
        let (f, entry, t, e, j) = diamond();
        let cfg = Cfg::compute(&f);
        let idx = |b| cfg.rpo_index(b).unwrap();
        assert!(idx(entry) < idx(t));
        assert!(idx(entry) < idx(e));
        assert!(idx(t) < idx(j));
        assert!(idx(e) < idx(j));
    }
}
