//! Pairing basic blocks between two candidate functions.
//!
//! HyFM aligns code at the basic-block level: blocks of the two functions
//! are paired by similarity and each pair is aligned with the cheap linear
//! strategy ([`crate::align::linear_block_align`]). Blocks with no good
//! counterpart stay unpaired and are cloned verbatim into the merged
//! function, guarded by the function identifier.
//!
//! The pass encodes a pair's blocks into [`FunctionParts`] when it aligns
//! the pair, from the bodies as they stand then: a commit earlier in the
//! loop may have redirected a call site in either function, so an encoding
//! made before the loop could plan from code that is no longer there.

use f3m_fingerprint::encode::encode_inst;
use f3m_ir::ids::{BlockId, FuncId, InstId};
use f3m_ir::inst::Opcode;
use f3m_ir::function::Function;
use f3m_ir::module::Module;

use crate::align::{linear_block_align_with, AlignScratch, Alignment};

/// Decomposition of one block into phi prefix / body / terminator.
#[derive(Clone, Debug)]
pub struct BlockParts {
    /// Leading phi instructions.
    pub phis: Vec<InstId>,
    /// Non-phi, non-terminator instructions.
    pub body: Vec<InstId>,
    /// Encoded body (parallel to `body`).
    pub body_codes: Vec<u32>,
    /// The terminator.
    pub term: InstId,
    /// Encoded terminator.
    pub term_code: u32,
}

/// Appends `bb`'s phis to `phis` and its other non-terminator instructions
/// to `body`, and returns its terminator: the one rule for which
/// instruction a body index of an [`Alignment`] names, shared by the
/// planner and the code generator.
///
/// # Panics
///
/// Panics if the block has no terminator (unverified function).
pub(crate) fn split_block(
    f: &Function,
    bb: BlockId,
    phis: &mut Vec<InstId>,
    body: &mut Vec<InstId>,
) -> InstId {
    let (&term, rest) = f.block(bb).insts.split_last().expect("empty block");
    assert!(f.inst(term).is_terminator(), "block without terminator");
    for &i in rest {
        if f.inst(i).op == Opcode::Phi { &mut *phis } else { &mut *body }.push(i);
    }
    term
}

/// Splits a block into parts.
///
/// # Panics
///
/// Panics if the block has no terminator (unverified function).
pub fn block_parts(f: &Function, bb: BlockId) -> BlockParts {
    let (mut phis, mut body) = (Vec::new(), Vec::new());
    let term = split_block(f, bb, &mut phis, &mut body);
    let body_codes = body.iter().map(|&i| encode_inst(f, f.inst(i))).collect();
    BlockParts {
        phis,
        body,
        body_codes,
        term,
        term_code: encode_inst(f, f.inst(term)),
    }
}

/// All of one function's blocks split into [`BlockParts`], in block order.
#[derive(Clone, Debug)]
pub struct FunctionParts {
    /// `(block, parts)` for every block, in `block_order`.
    pub blocks: Vec<(BlockId, BlockParts)>,
}

/// Splits every block of `f`.
pub fn function_parts(f: &Function) -> FunctionParts {
    FunctionParts {
        blocks: f.block_order.iter().map(|&b| (b, block_parts(f, b))).collect(),
    }
}

/// A planned pairing of two blocks.
#[derive(Clone, Debug)]
pub struct BlockPairPlan {
    /// Block from the first function.
    pub b1: BlockId,
    /// Block from the second function.
    pub b2: BlockId,
    /// Number of leading phi pairs (phi counts must be equal).
    pub phi_pairs: usize,
    /// Alignment of the two bodies.
    pub body: Alignment,
    /// Whether the terminators are mergeable.
    pub term_match: bool,
}

/// The complete block-level merge plan for a function pair.
#[derive(Clone, Debug, Default)]
pub struct PairPlan {
    /// Paired blocks with their alignments.
    pub pairs: Vec<BlockPairPlan>,
    /// Blocks of the first function with no counterpart.
    pub unpaired1: Vec<BlockId>,
    /// Blocks of the second function with no counterpart.
    pub unpaired2: Vec<BlockId>,
}

impl PairPlan {
    /// Total number of matched instructions across all pairs (phis and
    /// terminators included).
    pub fn matched_insts(&self) -> usize {
        self.pairs
            .iter()
            .map(|p| p.phi_pairs + p.body.matches + usize::from(p.term_match))
            .sum()
    }

    /// Number of guard diamonds the code generator will need: one per
    /// maximal mismatched run inside a paired block, plus one per
    /// unmergeable terminator pair.
    pub fn guard_diamonds(&self) -> usize {
        let mut diamonds = 0;
        for p in &self.pairs {
            let mut in_mismatch = false;
            for e in &p.body.entries {
                match e {
                    crate::align::AlignEntry::Match(_, _) => in_mismatch = false,
                    _ => {
                        if !in_mismatch {
                            diamonds += 1;
                            in_mismatch = true;
                        }
                    }
                }
            }
            if !p.term_match {
                diamonds += 1;
            }
        }
        diamonds
    }

    /// Optimistic profitability estimate in bytes, before any code is
    /// generated — HyFM's "if deemed profitable" gate. Matched
    /// instructions are emitted once instead of twice (≈3 bytes saved
    /// each); guard diamonds cost a conditional branch plus two jumps.
    /// Fixed costs (function overhead, entry dispatch, thunks) are passed
    /// in by the caller, which knows the linkage situation.
    pub fn estimated_savings(&self, fixed_costs: i64) -> i64 {
        3 * self.matched_insts() as i64 - 8 * self.guard_diamonds() as i64 - fixed_costs
    }
}

/// Whether two phi *prefixes* are pairwise compatible (same count, same
/// types). Required because phis cannot be split across guard diamonds.
fn phis_compatible(f1: &Function, p1: &[InstId], f2: &Function, p2: &[InstId]) -> bool {
    p1.len() == p2.len()
        && p1
            .iter()
            .zip(p2.iter())
            .all(|(&a, &b)| f1.inst(a).ty == f2.inst(b).ty)
}

/// Whether two instructions can be emitted as one merged instruction.
///
/// Stricter than encoding equality: operand types are compared slot-wise
/// (the encoding folds them into a product, which can collide), predicates
/// and auxiliary types must agree exactly, and target counts must match.
pub fn insts_mergeable(f1: &Function, a: InstId, f2: &Function, b: InstId) -> bool {
    let (ia, ib) = (f1.inst(a), f2.inst(b));
    ia.op == ib.op
        && ia.ty == ib.ty
        && ia.pred == ib.pred
        && ia.aux_ty == ib.aux_ty
        && ia.operands.len() == ib.operands.len()
        && ia.blocks.len() == ib.blocks.len()
        && ia
            .operands
            .iter()
            .zip(ib.operands.iter())
            .all(|(&x, &y)| f1.value(x).ty == f2.value(y).ty)
}

/// Similarity score used to rank candidate block pairs: matched
/// instructions from a linear alignment of the bodies (plus terminator).
/// Scores through the scratch view, so no per-candidate allocation.
fn pair_score(scratch: &mut AlignScratch, parts1: &BlockParts, parts2: &BlockParts) -> (bool, usize) {
    let matches =
        linear_block_align_with(scratch, &parts1.body_codes, &parts2.body_codes).matches;
    let term_match = parts1.term_code == parts2.term_code;
    let score = matches * 2 + usize::from(term_match);
    (term_match, score)
}

/// Builds a greedy block-level merge plan for `(f1, f2)`.
///
/// Blocks of `f1` are visited in order; each takes the highest-scoring
/// still-unpaired block of `f2` whose phi prefix is compatible, provided
/// the pair shares at least one matched instruction.
pub fn plan_blocks(m: &Module, f1: FuncId, f2: FuncId) -> PairPlan {
    let parts1 = function_parts(m.function(f1));
    let parts2 = function_parts(m.function(f2));
    plan_blocks_with(m, f1, f2, &parts1, &parts2, &mut AlignScratch::new())
}

/// [`plan_blocks`] over the pair's [`FunctionParts`] and a reusable
/// [`AlignScratch`]: the pass's align step, which encodes the pair itself
/// and plans on the merge loop's one scratch. Candidate block pairs are
/// *scored* through the scratch
/// (no entries materialized); only each winning pair's alignment is
/// re-run and copied out into the plan.
pub fn plan_blocks_with(
    m: &Module,
    f1: FuncId,
    f2: FuncId,
    parts1: &FunctionParts,
    parts2: &FunctionParts,
    scratch: &mut AlignScratch,
) -> PairPlan {
    let fa = m.function(f1);
    let fb = m.function(f2);
    let parts1 = &parts1.blocks;
    let parts2 = &parts2.blocks;

    let mut taken2 = vec![false; parts2.len()];
    let mut plan = PairPlan::default();

    for (b1, p1) in parts1 {
        let mut best: Option<(usize, bool, usize)> = None; // (idx2, term, score)
        for (idx2, (_, p2)) in parts2.iter().enumerate() {
            if taken2[idx2] {
                continue;
            }
            if !phis_compatible(fa, &p1.phis, fb, &p2.phis) {
                continue;
            }
            let (term_match, score) = pair_score(scratch, p1, p2);
            if score == 0 {
                continue;
            }
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((idx2, term_match, score));
            }
        }
        match best {
            Some((idx2, term_match, _)) => {
                taken2[idx2] = true;
                // Re-align the winner to materialize its entries — one
                // owned alignment per paired block instead of one per
                // candidate considered.
                let body = linear_block_align_with(
                    scratch,
                    &p1.body_codes,
                    &parts2[idx2].1.body_codes,
                )
                .to_owned();
                plan.pairs.push(BlockPairPlan {
                    b1: *b1,
                    b2: parts2[idx2].0,
                    phi_pairs: p1.phis.len(),
                    body,
                    term_match,
                });
            }
            None => plan.unpaired1.push(*b1),
        }
    }
    for (idx2, (b2, _)) in parts2.iter().enumerate() {
        if !taken2[idx2] {
            plan.unpaired2.push(*b2);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3m_ir::parser::parse_module;

    fn two_funcs(src: &str) -> (Module, FuncId, FuncId) {
        let m = parse_module(src).unwrap();
        let ids = m.defined_functions();
        (m, ids[0], ids[1])
    }

    #[test]
    fn identical_functions_pair_every_block() {
        let (m, f1, f2) = two_funcs(
            r#"
module "t" {
define @a(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %2 = icmp sgt i32 %1, 10
  condbr %2, bb1, bb2
bb1:
  ret i32 %1
bb2:
  %3 = mul i32 %1, 2
  ret i32 %3
}
define @b(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %2 = icmp sgt i32 %1, 10
  condbr %2, bb1, bb2
bb1:
  ret i32 %1
bb2:
  %3 = mul i32 %1, 2
  ret i32 %3
}
}
"#,
        );
        let plan = plan_blocks(&m, f1, f2);
        assert_eq!(plan.pairs.len(), 3);
        assert!(plan.unpaired1.is_empty());
        assert!(plan.unpaired2.is_empty());
        assert!(plan.pairs.iter().all(|p| p.term_match));
        // 3 in bb0 (add, icmp, condbr) + 1 in bb1 (ret) + 2 in bb2.
        assert_eq!(plan.matched_insts(), 6);
    }

    #[test]
    fn dissimilar_functions_stay_unpaired() {
        let (m, f1, f2) = two_funcs(
            r#"
module "t" {
define @a(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  ret i32 %1
}
define @b(f64 %0) -> f64 {
bb0:
  %1 = fmul f64 %0, %0
  %2 = fadd f64 %1, %0
  %3 = fdiv f64 %2, %1
  %4 = call f64 @b(f64 %3)
  ret f64 %4
}
}
"#,
        );
        let plan = plan_blocks(&m, f1, f2);
        // Different types everywhere: nothing aligns.
        assert!(plan.pairs.is_empty());
        assert_eq!(plan.unpaired1.len(), 1);
        assert_eq!(plan.unpaired2.len(), 1);
    }

    #[test]
    fn phi_prefix_compatibility_gates_pairing() {
        let (m, f1, f2) = two_funcs(
            r#"
module "t" {
define @a(i32 %0) -> i32 {
bb0:
  condbr 1, bb1, bb2
bb1:
  br bb2
bb2:
  %1 = phi i32 [ %0, bb0 ], [ 7, bb1 ]
  ret i32 %1
}
define @b(i32 %0) -> i32 {
bb0:
  condbr 1, bb1, bb2
bb1:
  br bb2
bb2:
  ret i32 %0
}
}
"#,
        );
        let plan = plan_blocks(&m, f1, f2);
        // The phi-bearing bb2 of @a cannot pair with the phi-less bb2 of
        // @b; the rest can still pair.
        for p in &plan.pairs {
            let pa = block_parts(m.function(f1), p.b1);
            let pb = block_parts(m.function(f2), p.b2);
            assert_eq!(pa.phis.len(), pb.phis.len());
        }
    }

    #[test]
    fn mergeable_requires_slotwise_operand_types() {
        let (m, f1, f2) = two_funcs(
            r#"
module "t" {
declare @sink2(i32, i64) -> void
declare @sink2b(i64, i32) -> void
define @a(i32 %0, i64 %1) -> void {
bb0:
  call void @sink2(i32 %0, i64 %1)
  ret
}
define @b(i32 %0, i64 %1) -> void {
bb0:
  call void @sink2b(i64 %1, i32 %0)
  ret
}
}
"#,
        );
        let fa = m.function(f1);
        let fb = m.function(f2);
        let c1 = fa.block(fa.entry()).insts[0];
        let c2 = fb.block(fb.entry()).insts[0];
        assert!(
            !insts_mergeable(fa, c1, fb, c2),
            "swapped argument types must not be mergeable even though the \
             encoding product collides"
        );
    }

    #[test]
    fn partial_overlap_produces_partial_alignment() {
        let (m, f1, f2) = two_funcs(
            r#"
module "t" {
define @a(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %2 = mul i32 %1, 3
  %3 = sub i32 %2, %0
  ret i32 %3
}
define @b(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %2 = xor i32 %1, 3
  %3 = sub i32 %2, %0
  ret i32 %3
}
}
"#,
        );
        let plan = plan_blocks(&m, f1, f2);
        assert_eq!(plan.pairs.len(), 1);
        let p = &plan.pairs[0];
        assert_eq!(p.body.matches, 2, "add and sub match; mul vs xor does not");
        assert!(p.term_match);
    }
}
