//! Merged-function code generation.
//!
//! Given two functions and a block-level merge plan, builds a single
//! function that behaves as either original depending on a leading `i1`
//! *function identifier* parameter (`false` = first function, `true` =
//! second), as in HyFM/SalSSA:
//!
//! - paired blocks become chains of shared segments; runs of mismatched
//!   instructions are placed in guard diamonds (`condbr %fid`),
//! - matched instructions whose operands map to different merged values
//!   read through `select %fid` instructions,
//! - terminators whose targets diverge branch through per-edge dispatch
//!   blocks,
//! - phi-nodes are rebuilt against the merged CFG, inserting selects at
//!   predecessor exits where the two sides disagree,
//! - SSA dominance violations introduced by cross-side code reuse are
//!   repaired by demoting values to stack slots (`alloca`/`store`/`load`).
//!
//! The demotion step implements the two bug fixes of Section III-E of the
//! paper; [`RepairMode::LegacyBuggy`] reproduces HyFM's original buggy
//! store placement so tests can demonstrate the miscompilation the paper
//! reports.
//!
//! The first three rules are decided by one structure walk, [`Layout`],
//! which emits nothing: it lays out the merged blocks, says which original
//! instruction(s) each merged instruction stands for, and adds up the
//! bytes. The builder materialises a function from it; the commit path
//! reads its byte count first — a lower bound on the built function's
//! size — and does not build a pair the count already proves too big.

use f3m_ir::cfg::Cfg;
use f3m_ir::dom::DomTree;
use f3m_ir::function::{Function, Placement};
use f3m_ir::ids::{BlockId, FuncId, InstId, ValueId};
use f3m_ir::inst::{Instruction, Opcode};
use f3m_ir::module::Module;
use f3m_ir::size::{inst_size, FUNCTION_OVERHEAD};
use f3m_ir::types::TypeId;
use f3m_ir::value::ValueKind;

use crate::align::AlignEntry;
use crate::block_pairing::{insts_mergeable, split_block, BlockPairPlan, PairPlan};

/// How SSA dominance violations are repaired.
///
/// Section III-E of the paper: "While most such violations are resolved by
/// inserting new phi-nodes, a small number of them is resolved by breaking
/// the use-def chains of variables via the stack memory."
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RepairMode {
    /// SSA reconstruction: phi-nodes are inserted along the merged CFG so
    /// every use sees the reaching definition (with `undef` on the phantom
    /// cross-side paths that execution can never take). The cheapest
    /// repair, and the default.
    #[default]
    Phi,
    /// Stack demotion with the paper's *corrected* store placement
    /// (Section III-E): stores go to the first legal point after the
    /// definition, and only violating uses are rewritten.
    Stack,
    /// HyFM's original buggy stack demotion: the store goes to the *end*
    /// of the defining block while every use in that block is still
    /// rewritten to a load — same-block uses then read a stale value.
    /// Provided so tests and benches can reproduce the miscompilation the
    /// paper describes.
    LegacyBuggy,
}

/// Code generation options.
#[derive(Clone, Copy, Debug, Default)]
pub struct MergeConfig {
    /// Dominance-repair behaviour.
    pub repair: RepairMode,
}

/// Why a merge could not be generated.
#[derive(Clone, Debug, PartialEq)]
pub enum MergeError {
    /// The functions' return types differ; thunking cannot reconcile them.
    IncompatibleReturnTypes,
    /// Dominance repair did not converge (internal invariant failure).
    RepairFailed(String),
    /// Internal inconsistency while rebuilding phis.
    Internal(String),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::IncompatibleReturnTypes => write!(f, "return types differ"),
            MergeError::RepairFailed(d) => write!(f, "dominance repair failed: {d}"),
            MergeError::Internal(d) => write!(f, "internal merge error: {d}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// A merged function, not yet added to any module.
#[derive(Debug)]
pub struct MergedFunction {
    /// The function body. Parameter 0 is the `i1` function identifier.
    pub func: Function,
    /// Maps each parameter index of the first function to its merged
    /// argument index.
    pub param_map1: Vec<usize>,
    /// Same for the second function.
    pub param_map2: Vec<usize>,
    /// Number of `select` instructions inserted (guard overhead metric).
    pub selects_inserted: usize,
    /// Number of values demoted to stack slots during repair.
    pub demotions: usize,
    /// Bytes the structure walk counted before anything was emitted:
    /// `function_size(&func)` minus what phi-edge selects and dominance
    /// repair added, so a lower bound on it under every [`RepairMode`].
    pub layout_size: u64,
    /// Operand selects the structure walk counted: `selects_inserted`
    /// minus the phi-edge selects.
    pub operand_selects: usize,
}

/// The original instruction(s) one merged instruction stands for. Sides are
/// indexes into [`Layout::sides`]: 0 is the first function, 1 the second.
#[derive(Clone, Copy, Debug)]
enum Src {
    Merged(InstId, InstId),
    Own(usize, InstId),
}

/// How a merged block ends.
#[derive(Clone, Copy, Debug)]
enum End {
    /// In its last [`Src`], an original terminator, whose merged targets
    /// are the next entries of [`Layout::targets`]; `from` is the original
    /// block that terminator ends, per side.
    Term { from: [Option<BlockId>; 2] },
    /// `condbr %fid, side2, side1`.
    Guard { side1: u32, side2: u32 },
    /// `br` to the block.
    Br(u32),
}

struct LayoutBlock {
    /// For a dispatch block — where a target of a merged terminator
    /// diverges — the merged block that terminator ends.
    dispatch_of: Option<u32>,
    /// One past the block's last slot in [`Layout::srcs`]; its first is
    /// where the block before it ends.
    srcs_end: u32,
    end: End,
}

/// One original function as the layout sees it.
struct Side<'m> {
    f: &'m Function,
    /// Merged argument index of each parameter.
    param_map: Vec<usize>,
    /// By `InstId`: the slot of [`Layout::srcs`] that carries the
    /// instruction, [`NONE`] for one linked into no planned block.
    slot: Vec<u32>,
}

const NONE: u32 = u32::MAX;

/// The structure of the merged function for one pair under one plan,
/// before any of it exists: blocks in creation order (block 0 is the entry
/// dispatch), the instructions copied from the originals in emission
/// order, every terminator's merged targets, and the bytes all of that
/// will take.
///
/// Computed from the bodies as they are *now* — a commit earlier in the
/// merge loop may have redirected call sites inside either function, which
/// changes operand counts and with them what [`insts_mergeable`] says — so
/// a layout is good for one attempt and is never cached or speculated.
pub(crate) struct Layout<'m> {
    sides: [Side<'m>; 2],
    params: Vec<TypeId>,
    blocks: Vec<LayoutBlock>,
    srcs: Vec<Src>,
    targets: Vec<u32>,
    size: u64,
    operand_selects: usize,
}

/// The merged parameter list — the `i1` function identifier, the first
/// function's parameters, then each of the second's that finds no unshared
/// slot of its type — with both functions' parameter maps into it.
fn merge_params(fa: &Function, fb: &Function) -> (Vec<TypeId>, Vec<usize>, Vec<usize>) {
    let mut merged: Vec<TypeId> = vec![TypeId::BOOL];
    let mut map1 = Vec::with_capacity(fa.params.len());
    for &p in &fa.params {
        map1.push(merged.len());
        merged.push(p);
    }
    let mut used2 = vec![false; merged.len()];
    used2[0] = true; // fid slot never shared
    let mut map2 = Vec::with_capacity(fb.params.len());
    for &p in &fb.params {
        match (1..merged.len()).find(|&i| !used2[i] && merged[i] == p) {
            Some(i) => {
                used2[i] = true;
                map2.push(i);
            }
            None => {
                map2.push(merged.len());
                merged.push(p);
                used2.push(true);
            }
        }
    }
    (merged, map1, map2)
}

/// A paired block's instructions as the plan's alignment indexes them.
#[derive(Default)]
struct Parts {
    phis: Vec<InstId>,
    body: Vec<InstId>,
}

impl Parts {
    /// Splits `bb` the way the planner did, minus the encoding, and
    /// returns its terminator.
    fn split(&mut self, f: &Function, bb: BlockId) -> InstId {
        self.phis.clear();
        self.body.clear();
        split_block(f, bb, &mut self.phis, &mut self.body)
    }
}

impl<'m> Layout<'m> {
    /// Walks `plan` over `(f1, f2)`.
    ///
    /// # Errors
    ///
    /// [`MergeError::IncompatibleReturnTypes`] when the return types differ.
    pub(crate) fn new(
        m: &'m Module,
        f1: FuncId,
        f2: FuncId,
        plan: &PairPlan,
    ) -> Result<Layout<'m>, MergeError> {
        let (fa, fb) = (m.function(f1), m.function(f2));
        if fa.ret_ty != fb.ret_ty {
            return Err(MergeError::IncompatibleReturnTypes);
        }
        let (params, map1, map2) = merge_params(fa, fb);
        let side =
            |f: &'m Function, param_map| Side { f, param_map, slot: vec![NONE; f.num_insts()] };
        let mut lay = Layout {
            sides: [side(fa, map1), side(fb, map2)],
            params,
            blocks: Vec::new(),
            srcs: Vec::with_capacity(fa.num_linked_insts() + fb.num_linked_insts()),
            targets: Vec::new(),
            size: FUNCTION_OVERHEAD,
            operand_selects: 0,
        };
        // Merged entry block of each original block, by `BlockId`.
        let mut entry = [vec![NONE; fa.block_arena_len()], vec![NONE; fb.block_arena_len()]];

        // The entry dispatch comes first and is decided last.
        lay.open();
        lay.close(End::Term { from: [None; 2] });
        let mut parts = (Parts::default(), Parts::default());
        let mut mismatch = (Vec::new(), Vec::new());
        for pair in &plan.pairs {
            let head = lay.walk_pair(pair, &mut parts, &mut mismatch);
            entry[0][pair.b1.index()] = head;
            entry[1][pair.b2.index()] = head;
        }
        for (s, unpaired) in [&plan.unpaired1, &plan.unpaired2].into_iter().enumerate() {
            for &bb in unpaired {
                entry[s][bb.index()] = lay.open();
                for &i in lay.sides[s].f.block(bb).insts {
                    lay.push(Src::Own(s, i));
                }
                lay.close(End::Term { from: [(s == 0).then_some(bb), (s == 1).then_some(bb)] });
            }
        }

        let (h1, h2) = (entry_of(&entry[0], fa.entry()), entry_of(&entry[1], fb.entry()));
        let dispatch = if h1 == h2 { End::Br(h1) } else { End::Guard { side1: h1, side2: h2 } };
        lay.blocks[0].end = dispatch;
        lay.size += end_size(dispatch);
        lay.resolve_targets(&entry);
        lay.count_operand_selects();
        Ok(lay)
    }

    /// The layout's byte count: `function_size` of the function
    /// [`build`](Layout::build) would return, short of what phi-edge
    /// selects and dominance repair add to it. Both only ever add
    /// instructions, so this is a lower bound under every [`RepairMode`],
    /// and exact for a build that needs neither.
    pub(crate) fn size_lower_bound(&self) -> u64 {
        self.size
    }

    // ---- the structure walk ----------------------------------------------

    /// Starts a block: what is pushed from now on belongs to it.
    fn open(&mut self) -> u32 {
        let end = End::Term { from: [None; 2] };
        self.blocks.push(LayoutBlock { dispatch_of: None, srcs_end: NONE, end });
        self.blocks.len() as u32 - 1
    }

    /// Ends the open block.
    fn close(&mut self, end: End) {
        let b = self.blocks.last_mut().expect("a block is open");
        b.srcs_end = self.srcs.len() as u32;
        b.end = end;
        self.size += end_size(end);
    }

    fn push(&mut self, src: Src) {
        let slot = self.srcs.len() as u32;
        let (s, i) = match src {
            Src::Merged(i1, i2) => {
                self.sides[1].slot[i2.index()] = slot;
                (0, i1)
            }
            Src::Own(s, i) => (s, i),
        };
        self.sides[s].slot[i.index()] = slot;
        self.size += inst_size(self.sides[s].f.inst(i).op);
        self.srcs.push(src);
    }

    /// Puts a pending mismatch run into a guard diamond below the open
    /// block — one arm per side, both rejoining — and opens the join. No
    /// run, no diamond.
    fn diamond(&mut self, mismatch: &mut (Vec<InstId>, Vec<InstId>)) {
        if mismatch.0.is_empty() && mismatch.1.is_empty() {
            return;
        }
        let split = self.blocks.len() as u32 - 1;
        let (side1, side2, join) = (split + 1, split + 2, split + 3);
        self.close(End::Guard { side1, side2 });
        self.open();
        for i in mismatch.0.drain(..) {
            self.push(Src::Own(0, i));
        }
        self.close(End::Br(join));
        self.open();
        for j in mismatch.1.drain(..) {
            self.push(Src::Own(1, j));
        }
        self.close(End::Br(join));
        self.open();
    }

    /// Lays out one paired block and returns its head: the merged phi
    /// prefix, then the body as shared segments with a guard diamond per
    /// maximal mismatch run, then the terminator.
    fn walk_pair(
        &mut self,
        pair: &BlockPairPlan,
        (p1, p2): &mut (Parts, Parts),
        mismatch: &mut (Vec<InstId>, Vec<InstId>),
    ) -> u32 {
        let (fa, fb) = (self.sides[0].f, self.sides[1].f);
        let (t1, t2) = (p1.split(fa, pair.b1), p2.split(fb, pair.b2));
        let head = self.open();
        for k in 0..pair.phi_pairs {
            self.push(Src::Merged(p1.phis[k], p2.phis[k]));
        }
        // The alignment matched on encodings; a match is shared only if it
        // passes the strict slot-wise compatibility check.
        for entry in &pair.body.entries {
            match *entry {
                AlignEntry::Match(i, j) => {
                    let (i1, i2) = (p1.body[i], p2.body[j]);
                    if insts_mergeable(fa, i1, fb, i2) {
                        self.diamond(mismatch);
                        self.push(Src::Merged(i1, i2));
                    } else {
                        mismatch.0.push(i1);
                        mismatch.1.push(i2);
                    }
                }
                AlignEntry::GapRight(i) => mismatch.0.push(p1.body[i]),
                AlignEntry::GapLeft(j) => mismatch.1.push(p2.body[j]),
            }
        }
        if pair.term_match && insts_mergeable(fa, t1, fb, t2) {
            self.diamond(mismatch);
            self.push(Src::Merged(t1, t2));
            self.close(End::Term { from: [Some(pair.b1), Some(pair.b2)] });
        } else {
            // Fold the trailing mismatch run and both terminators into one
            // final diamond that never rejoins.
            let split = self.blocks.len() as u32 - 1;
            self.close(End::Guard { side1: split + 1, side2: split + 2 });
            self.open();
            for i in mismatch.0.drain(..) {
                self.push(Src::Own(0, i));
            }
            self.push(Src::Own(0, t1));
            self.close(End::Term { from: [Some(pair.b1), None] });
            self.open();
            for j in mismatch.1.drain(..) {
                self.push(Src::Own(1, j));
            }
            self.push(Src::Own(1, t2));
            self.close(End::Term { from: [None, Some(pair.b2)] });
        }
        head
    }

    /// Maps every original terminator's targets into the merged function,
    /// in block order. Where the two sides of a merged terminator go to
    /// different merged blocks, the target is a dispatch block on `%fid`.
    fn resolve_targets(&mut self, entry: &[Vec<u32>; 2]) {
        let [fa, fb] = [self.sides[0].f, self.sides[1].f];
        for b in 0..self.blocks.len() {
            let Some(term) = self.terminator_of(b) else { continue };
            match term {
                Src::Merged(t1, t2) => {
                    let targets = fa.inst(t1).blocks.iter().zip(fb.inst(t2).blocks);
                    for (&o1, &o2) in targets {
                        let (m1, m2) = (entry_of(&entry[0], o1), entry_of(&entry[1], o2));
                        if m1 != m2 {
                            let d = self.open();
                            self.blocks[d as usize].dispatch_of = Some(b as u32);
                            self.close(End::Guard { side1: m1, side2: m2 });
                        }
                        let target = if m1 == m2 { m1 } else { self.blocks.len() as u32 - 1 };
                        self.targets.push(target);
                    }
                }
                Src::Own(s, t) => {
                    let mapped =
                        self.sides[s].f.inst(t).blocks.iter().map(|&o| entry_of(&entry[s], o));
                    self.targets.extend(mapped);
                }
            }
        }
    }

    /// The original terminator(s) block `b` ends in, if it ends in one.
    fn terminator_of(&self, b: usize) -> Option<Src> {
        let block = &self.blocks[b];
        matches!(block.end, End::Term { .. }).then(|| self.srcs[block.srcs_end as usize - 1])
    }

    /// Counts the operand slots of merged non-phi instructions whose two
    /// sides resolve to different merged values — each costs a `select`.
    fn count_operand_selects(&mut self) {
        let [a, b] = &self.sides;
        let mut selects = 0;
        for &src in &self.srcs {
            let Src::Merged(i1, i2) = src else { continue };
            let (i1, i2) = (a.f.inst(i1), b.f.inst(i2));
            if i1.op == Opcode::Phi {
                continue;
            }
            let slots = i1.operands.iter().zip(i2.operands);
            selects += slots.filter(|&(&v1, &v2)| !self.same_merged_value(v1, v2)).count();
        }
        self.operand_selects = selects;
        self.size += selects as u64 * inst_size(Opcode::Select);
    }

    /// Whether `v1` of the first function and `v2` of the second resolve to
    /// one merged value: parameters sharing a slot, results of one merged
    /// instruction, or equal constants. The one rule for both the select
    /// count and the build: where it holds, one side's value serves both.
    fn same_merged_value(&self, v1: ValueId, v2: ValueId) -> bool {
        let [a, b] = &self.sides;
        let (v1, v2) = (a.f.value(v1), b.f.value(v2));
        match (v1.kind, v2.kind) {
            (ValueKind::Arg(i), ValueKind::Arg(j)) => {
                a.param_map[i as usize] == b.param_map[j as usize]
            }
            (ValueKind::Inst(d1), ValueKind::Inst(d2)) => a.slot[d1.index()] == b.slot[d2.index()],
            // Two constants, or values of different kinds, which differ.
            _ => v1 == v2,
        }
    }

    /// Which original predecessor block(s) the merged edge `pred -> head`
    /// stands for, per side: the block(s) whose original terminator `pred`
    /// ends in, or, out of a dispatch block, the one side it sends to `head`.
    /// Nothing for the edges out of guards and the entry dispatch, which
    /// no original edge corresponds to.
    fn edge_origin(&self, pred: BlockId, head: BlockId) -> [Option<BlockId>; 2] {
        let origin = |b: usize| match self.blocks[b].end {
            End::Term { from } => from,
            _ => [None; 2],
        };
        let block = &self.blocks[pred.index()];
        match (block.dispatch_of, block.end) {
            (Some(from), End::Guard { side1, side2 }) => {
                let [o1, o2] = origin(from as usize);
                let head = head.index() as u32;
                [o1.filter(|_| head == side1), o2.filter(|_| head == side2)]
            }
            _ => origin(pred.index()),
        }
    }

    // ---- materialising -----------------------------------------------------

    /// Builds the merged function the layout describes.
    ///
    /// # Errors
    ///
    /// [`MergeError::RepairFailed`] if the dominance repair loop does not
    /// converge (which would indicate a bug — it is bounded but always
    /// converges on valid input); [`MergeError::Internal`] if a phi cannot
    /// be rebuilt.
    pub(crate) fn build(
        mut self,
        cfg: MergeConfig,
        name: String,
    ) -> Result<MergedFunction, MergeError> {
        let params = std::mem::take(&mut self.params);
        let nf = Function::new(name, params, self.sides[0].f.ret_ty);
        let mut b = MergeBuilder {
            lay: &self,
            nf,
            cfg,
            insts: Vec::with_capacity(self.srcs.len()),
            selects_inserted: 0,
            demotions: 0,
        };
        b.emit();
        b.resolve_operands();
        debug_assert_eq!(b.selects_inserted, self.operand_selects);
        // The merged CFG is final here: selects, repair phis and stack
        // slots add no block and no edge, so one of each analysis serves
        // the rest of the build.
        let graph = Graph::of(&b.nf);
        b.resolve_phis(&graph)?;
        b.repair_dominance(&graph)?;
        let MergeBuilder { nf, selects_inserted, demotions, .. } = b;
        let [side1, side2] = self.sides;
        Ok(MergedFunction {
            func: nf,
            param_map1: side1.param_map,
            param_map2: side2.param_map,
            selects_inserted,
            demotions,
            layout_size: self.size,
            operand_selects: self.operand_selects,
        })
    }
}

fn end_size(end: End) -> u64 {
    match end {
        End::Term { .. } => 0,
        End::Guard { .. } => inst_size(Opcode::CondBr),
        End::Br(_) => inst_size(Opcode::Br),
    }
}

/// The merged entry block of original block `bb`.
fn entry_of(entry: &[u32], bb: BlockId) -> u32 {
    let head = entry[bb.index()];
    assert_ne!(head, NONE, "branch to {bb:?}, which the plan does not cover");
    head
}

/// Builds the merged function for `(f1, f2)` under `plan`.
///
/// # Errors
///
/// [`MergeError::IncompatibleReturnTypes`] when the return types differ;
/// [`MergeError::RepairFailed`] if the dominance repair loop does not
/// converge (which would indicate a bug — it is bounded but always
/// converges on valid input).
pub fn build_merged(
    m: &Module,
    f1: FuncId,
    f2: FuncId,
    plan: &PairPlan,
    cfg: MergeConfig,
    name: String,
) -> Result<MergedFunction, MergeError> {
    Layout::new(m, f1, f2, plan)?.build(cfg, name)
}

/// The analyses of the merged CFG, computed once per build.
struct Graph {
    cfg: Cfg,
    dom: DomTree,
    /// Each block's distinct predecessors in ascending order — what a phi
    /// lists — as one flat list with per-block offsets.
    pred_list: Vec<BlockId>,
    pred_off: Vec<u32>,
}

impl Graph {
    fn of(f: &Function) -> Graph {
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let (mut pred_list, mut distinct) = (Vec::new(), Vec::new());
        let mut pred_off = Vec::with_capacity(f.block_arena_len() + 1);
        for b in 0..f.block_arena_len() {
            pred_off.push(pred_list.len() as u32);
            distinct.clear();
            distinct.extend_from_slice(cfg.preds(BlockId::from_index(b)));
            distinct.sort_unstable();
            distinct.dedup();
            pred_list.extend_from_slice(&distinct);
        }
        pred_off.push(pred_list.len() as u32);
        Graph { cfg, dom, pred_list, pred_off }
    }

    fn preds(&self, bb: BlockId) -> &[BlockId] {
        let b = bb.index();
        &self.pred_list[self.pred_off[b] as usize..self.pred_off[b + 1] as usize]
    }
}

struct MergeBuilder<'l, 'm> {
    lay: &'l Layout<'m>,
    nf: Function,
    cfg: MergeConfig,
    /// The emitted instruction of each layout slot, with its block.
    insts: Vec<(BlockId, InstId)>,
    selects_inserted: usize,
    demotions: usize,
}

impl MergeBuilder<'_, '_> {
    fn fid(&self) -> ValueId {
        self.nf.arg(0)
    }

    // ---- phase 1: the layout's blocks, instructions and branches ----------

    fn append(&mut self, bb: BlockId, inst: Instruction) -> InstId {
        self.nf.append_inst(bb, inst).0
    }

    fn emit(&mut self) {
        let lay = self.lay;
        for _ in &lay.blocks {
            self.nf.add_block();
        }
        let block_id = |b: u32| BlockId::from_index(b as usize);
        let mut targets = lay.targets.iter().map(|&t| block_id(t));
        let mut to = Vec::new();
        for (b, block) in lay.blocks.iter().enumerate() {
            let bb = BlockId::from_index(b);
            while self.insts.len() < block.srcs_end as usize {
                let (s, i) = match lay.srcs[self.insts.len()] {
                    Src::Merged(i1, _) => (0, i1),
                    Src::Own(s, i) => (s, i),
                };
                let proto = lay.sides[s].f.inst(i);
                // Operands wait for phase 2, which writes each list over
                // the prototype's (a phi's grows, so it starts empty); the
                // terminator's targets are the layout's.
                let operands = if proto.op == Opcode::Phi { &[] } else { proto.operands };
                to.clear();
                let last = self.insts.len() + 1 == block.srcs_end as usize;
                if last && matches!(block.end, End::Term { .. }) {
                    to.extend(targets.by_ref().take(proto.blocks.len()));
                }
                let new_id = self.append(bb, Instruction { operands, blocks: &to, ..proto });
                self.insts.push((bb, new_id));
            }
            match block.end {
                End::Term { .. } => {}
                End::Guard { side1, side2 } => {
                    let to = [block_id(side2), block_id(side1)];
                    self.append(bb, Instruction::new(Opcode::CondBr, TypeId::VOID, &[self.fid()], &to));
                }
                End::Br(to) => {
                    self.append(bb, Instruction::new(Opcode::Br, TypeId::VOID, &[], &[block_id(to)]));
                }
            }
        }
    }

    // ---- phase 2a: ordinary operands ---------------------------------------

    /// The merged value of `v`, a value of side `s`: a constant enters
    /// the merged function as it is.
    fn resolve(&mut self, s: usize, v: ValueId) -> ValueId {
        let side = &self.lay.sides[s];
        let val = side.f.value(v);
        match val.kind {
            ValueKind::Arg(i) => self.nf.arg(side.param_map[i as usize]),
            ValueKind::Inst(def) => {
                let slot = side.slot[def.index()];
                assert_ne!(slot, NONE, "unmapped instruction value {v:?}");
                self.nf.result(self.insts[slot as usize].1).expect("a used instruction has one")
            }
            _ => self.nf.push_const(val),
        }
    }

    /// Inserts `select %fid, v2, v1` immediately before position `pos` of
    /// `bb` and returns its value.
    fn insert_select(&mut self, bb: BlockId, pos: usize, v1: ValueId, v2: ValueId) -> ValueId {
        let ty = self.nf.value(v1).ty;
        let fid = self.fid();
        let (_, val) = self.nf.insert_inst(
            bb,
            pos,
            Instruction::new(Opcode::Select, ty, &[fid, v2, v1], &[]),
        );
        self.selects_inserted += 1;
        val.expect("select produces a value")
    }

    fn resolve_operands(&mut self) {
        let lay = self.lay;
        let mut out = Vec::new();
        for (slot, &src) in lay.srcs.iter().enumerate() {
            let (bb, new_id) = self.insts[slot];
            if self.nf.inst(new_id).op == Opcode::Phi {
                continue;
            }
            out.clear();
            match src {
                Src::Merged(i1, i2) => {
                    let ops1 = lay.sides[0].f.inst(i1).operands;
                    let ops2 = lay.sides[1].f.inst(i2).operands;
                    for (&v1, &v2) in ops1.iter().zip(ops2) {
                        if lay.same_merged_value(v1, v2) {
                            out.push(self.resolve(0, v1));
                        } else {
                            let (m1, m2) = (self.resolve(0, v1), self.resolve(1, v2));
                            let pos = self
                                .nf
                                .block(bb)
                                .insts
                                .iter()
                                .position(|&i| i == new_id)
                                .expect("inst in its block");
                            out.push(self.insert_select(bb, pos, m1, m2));
                        }
                    }
                }
                Src::Own(s, i) => {
                    let ops = lay.sides[s].f.inst(i).operands;
                    out.extend(ops.iter().map(|&v| self.resolve(s, v)));
                }
            }
            self.nf.set_operands(new_id, &out);
        }
    }

    // ---- phase 2b: phis -----------------------------------------------------

    fn resolve_phis(&mut self, graph: &Graph) -> Result<(), MergeError> {
        let lay = self.lay;
        let mut in_vals = Vec::new();
        for (slot, &src) in lay.srcs.iter().enumerate() {
            let (h, new_id) = self.insts[slot];
            if self.nf.inst(new_id).op != Opcode::Phi {
                continue;
            }
            let preds = graph.preds(h);
            in_vals.clear();
            for &p in preds {
                let origin = lay.edge_origin(p, h);
                let incoming = |s: usize, phi| match origin[s] {
                    Some(x) => incoming_of(lay.sides[s].f, phi, x).map(Some),
                    None => Ok(None),
                };
                let val = match src {
                    Src::Merged(p1, p2) => match (incoming(0, p1)?, incoming(1, p2)?) {
                        (Some(v1), Some(v2)) if lay.same_merged_value(v1, v2) => {
                            Some(self.resolve(0, v1))
                        }
                        (Some(v1), Some(v2)) => {
                            // Select at the end of the shared predecessor.
                            let (m1, m2) = (self.resolve(0, v1), self.resolve(1, v2));
                            let pos = self.nf.block(p).insts.len() - 1;
                            Some(self.insert_select(p, pos, m1, m2))
                        }
                        (Some(v1), None) => Some(self.resolve(0, v1)),
                        (None, Some(v2)) => Some(self.resolve(1, v2)),
                        (None, None) => None,
                    },
                    Src::Own(s, phi) => incoming(s, phi)?.map(|v| self.resolve(s, v)),
                };
                in_vals.push(val.ok_or_else(|| {
                    MergeError::Internal(format!(
                        "edge into phi block {h:?} from {p:?} has no usable attribution"
                    ))
                })?);
            }
            self.nf.set_operands(new_id, &in_vals);
            self.nf.set_blocks(new_id, preds);
        }
        Ok(())
    }

    // ---- phase 3: dominance repair ---------------------------------------

    fn repair_dominance(&mut self, graph: &Graph) -> Result<(), MergeError> {
        let mut memo = Vec::new();
        for _round in 0..16 {
            // A repair adds instructions and moves none, so the blocks this
            // placement gives hold for the whole round; its positions do
            // not.
            let placed = self.nf.placement().expect("the build lists each instruction once");
            let mut violations = find_violations(&self.nf, &placed, graph);
            if violations.is_empty() {
                return Ok(());
            }
            // Group violating uses by defining instruction; the sort is
            // stable, so each definition's uses stay in scan order.
            violations.sort_by_key(|&(def, _)| def);
            for uses in violations.chunk_by(|a, b| a.0 == b.0) {
                let def = uses[0].0;
                let (block, _) = placed.of(def).expect("the build unlinks nothing");
                let uses = uses.iter().map(|&(_, site)| site);
                match self.cfg.repair {
                    RepairMode::Phi => self.reconstruct_ssa(def, block, uses, graph, &mut memo),
                    RepairMode::Stack | RepairMode::LegacyBuggy => self.demote(def, block, uses),
                }
            }
        }
        Err(MergeError::RepairFailed("did not converge in 16 rounds".into()))
    }

    /// Phi-based SSA reconstruction for one dominance-violating value:
    /// walks the merged CFG backwards from each violating use, inserting
    /// phi-nodes at join points (Braun-style on-the-fly construction with
    /// operandless placeholder phis to break cycles). Paths the definition
    /// cannot reach contribute `undef` — those are exactly the cross-side
    /// paths execution never takes for the side that owns the value.
    ///
    /// `memo` is scratch: the reaching value at the end of each block, by
    /// `BlockId`, for this one definition.
    fn reconstruct_ssa(
        &mut self,
        def: InstId,
        def_block: BlockId,
        uses: impl Iterator<Item = UseSite>,
        graph: &Graph,
        memo: &mut Vec<Option<ValueId>>,
    ) {
        self.demotions += 1; // counted as a repaired value either way
        let def_val = self.nf.result(def).expect("repairing a valued instruction");
        let reach = Reach { def_val, def_block, ty: self.nf.value(def_val).ty };
        memo.clear();
        memo.resize(self.nf.block_arena_len(), None);
        for site in uses {
            // A use inside `ub` that the definition does not dominate
            // reads the value reaching `ub`'s entry, which equals the value
            // at its end because the definition is not in `ub`.
            let (inst, slot, at_end_of) = match site {
                UseSite::Operand { inst, slot, block } => {
                    debug_assert_ne!(
                        block, reach.def_block,
                        "same-block use-before-def cannot occur in merged code"
                    );
                    (inst, slot, block)
                }
                UseSite::PhiIncoming { inst, slot, block } => (inst, slot, block),
            };
            let v = self.read_at_end(at_end_of, reach, graph, memo);
            self.nf.operands_mut(inst)[slot] = v;
        }
    }

    /// The reaching value of `reach`'s definition at the end of `bb`.
    fn read_at_end(
        &mut self,
        bb: BlockId,
        reach: Reach,
        graph: &Graph,
        memo: &mut Vec<Option<ValueId>>,
    ) -> ValueId {
        if bb == reach.def_block {
            return reach.def_val;
        }
        if let Some(v) = memo[bb.index()] {
            return v;
        }
        let preds = graph.preds(bb);
        let v = if !graph.cfg.is_reachable(bb) || preds.is_empty() {
            self.nf.undef(reach.ty)
        } else if let [pred] = *preds {
            // No join: forward through the single predecessor. Memoize
            // *after* the recursive call; single-pred chains cannot cycle
            // back into themselves without passing a multi-pred block.
            self.read_at_end(pred, reach, graph, memo)
        } else {
            // Join point: place a placeholder phi first to break cycles.
            let (phi_id, phi_val) = self.nf.insert_inst(
                bb,
                0,
                Instruction::new(Opcode::Phi, reach.ty, &[], &[]),
            );
            let phi_val = phi_val.expect("phi value");
            memo[bb.index()] = Some(phi_val);
            let vals: Vec<ValueId> =
                preds.iter().map(|&p| self.read_at_end(p, reach, graph, memo)).collect();
            self.nf.set_operands(phi_id, &vals);
            self.nf.set_blocks(phi_id, preds);
            phi_val
        };
        memo[bb.index()] = Some(v);
        v
    }

    /// Demotes `def`'s value, defined in `def_block`, to a stack slot,
    /// rewriting the given uses to loads. Implements the Section III-E
    /// store-placement rules.
    fn demote(&mut self, def: InstId, def_block: BlockId, uses: impl Iterator<Item = UseSite>) {
        self.demotions += 1;
        let def_val = self.nf.result(def).expect("demoting a valued instruction");
        let slot_ty = self.nf.value(def_val).ty;
        // Slot in the entry block (dominates everything).
        let entry = self.nf.entry();
        let (_, slot) = self.nf.insert_inst(
            entry,
            0,
            Instruction { aux_ty: Some(slot_ty), ..Instruction::new(Opcode::Alloca, TypeId::PTR, &[], &[]) },
        );
        let slot = slot.expect("alloca value");

        // Store placement.
        let (store_block, store_pos) = match self.cfg.repair {
            RepairMode::LegacyBuggy => {
                // Bug #1: store at the end of the block (before the
                // terminator), even when the definition is a phi followed
                // by other phis and uses within the block.
                (def_block, self.nf.block(def_block).insts.len() - 1)
            }
            RepairMode::Phi | RepairMode::Stack => {
                let def_inst = self.nf.inst(def);
                if def_inst.op == Opcode::Phi {
                    // Fix #1: first legal point after the definition — after
                    // the whole phi group.
                    (def_block, self.nf.first_non_phi(def_block))
                } else if def_inst.is_terminator() {
                    // Invoke: the first legal point is in the normal
                    // successor, after its phis (fix #2 applies only to
                    // phi uses, which never violate dominance here).
                    let normal = def_inst.blocks[0];
                    (normal, self.nf.first_non_phi(normal))
                } else {
                    let pos = self
                        .nf
                        .block(def_block)
                        .insts
                        .iter()
                        .position(|&i| i == def)
                        .expect("def in its block");
                    (def_block, pos + 1)
                }
            }
        };
        self.nf.insert_inst(
            store_block,
            store_pos,
            Instruction::new(Opcode::Store, TypeId::VOID, &[def_val, slot], &[]),
        );

        // Rewrite uses.
        let mut sites: Vec<UseSite> = uses.collect();
        if self.cfg.repair == RepairMode::LegacyBuggy {
            // Legacy HyFM also rewrote non-violating uses inside the
            // defining block — those now load *before* the store runs.
            for (iid, inst) in self.nf.block_insts(def_block) {
                if inst.op == Opcode::Store && inst.operands[..] == [def_val, slot] {
                    continue;
                }
                for (slot_idx, &op) in inst.operands.iter().enumerate() {
                    if op == def_val && inst.op != Opcode::Phi {
                        sites.push(UseSite::Operand { inst: iid, slot: slot_idx, block: def_block });
                    }
                }
            }
            sites.sort();
            sites.dedup();
        }
        for site in sites {
            match site {
                UseSite::Operand { inst, slot: slot_idx, block: bb } => {
                    let pos = self
                        .nf
                        .block(bb)
                        .insts
                        .iter()
                        .position(|&i| i == inst)
                        .expect("use in its block");
                    let (_, load) = self.nf.insert_inst(
                        bb,
                        pos,
                        Instruction::new(Opcode::Load, slot_ty, &[slot], &[]),
                    );
                    self.nf.operands_mut(inst)[slot_idx] = load.expect("load value");
                }
                UseSite::PhiIncoming { inst, slot: slot_idx, block } => {
                    // Load at the end of the incoming block.
                    let pos = self.nf.block(block).insts.len() - 1;
                    let (_, load) = self.nf.insert_inst(
                        block,
                        pos,
                        Instruction::new(Opcode::Load, slot_ty, &[slot], &[]),
                    );
                    self.nf.operands_mut(inst)[slot_idx] = load.expect("load value");
                }
            }
        }
    }
}

/// The value under dominance repair: what [`MergeBuilder::read_at_end`]
/// looks for.
#[derive(Clone, Copy)]
struct Reach {
    def_val: ValueId,
    def_block: BlockId,
    ty: TypeId,
}

/// A use of a value that violates SSA dominance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum UseSite {
    /// Ordinary operand `slot` of `inst`, which `block` lists.
    Operand { inst: InstId, slot: usize, block: BlockId },
    /// Incoming `slot` of phi `inst` arriving from `block`.
    PhiIncoming { inst: InstId, slot: usize, block: BlockId },
}

/// Scans a function, whose instructions are where `placed` says, for SSA
/// dominance violations.
fn find_violations(f: &Function, placed: &Placement, graph: &Graph) -> Vec<(InstId, UseSite)> {
    let (cfg, dt) = (&graph.cfg, &graph.dom);
    let mut out = Vec::new();
    for &bb in &f.block_order {
        if !cfg.is_reachable(bb) {
            continue;
        }
        for (iid, inst) in f.block_insts(bb) {
            if inst.op == Opcode::Phi {
                for (slot, (in_bb, v)) in inst.phi_incomings().enumerate() {
                    if let ValueKind::Inst(def) = f.value(v).kind {
                        if !dt.dominates_phi_use(placed, def, in_bb) {
                            out.push((def, UseSite::PhiIncoming { inst: iid, slot, block: in_bb }));
                        }
                    }
                }
            } else {
                for (slot, &v) in inst.operands.iter().enumerate() {
                    if let ValueKind::Inst(def) = f.value(v).kind {
                        if !dt.dominates_inst(placed, def, iid) {
                            out.push((def, UseSite::Operand { inst: iid, slot, block: bb }));
                        }
                    }
                }
            }
        }
    }
    out
}

fn incoming_of(f: &Function, phi: InstId, pred: BlockId) -> Result<ValueId, MergeError> {
    f.inst(phi)
        .phi_incomings()
        .find(|(bb, _)| *bb == pred)
        .map(|(_, v)| v)
        .ok_or_else(|| MergeError::Internal(format!("phi {phi:?} has no incoming for {pred:?}")))
}

/// Builds the thunk that redirects `orig` into `merged`.
///
/// The thunk keeps `orig`'s exact signature and linkage: it passes the
/// function identifier (`fid_value`) plus its own arguments mapped through
/// `param_map`, filling unshared merged parameters with `undef`.
pub fn build_thunk(
    m: &Module,
    orig: FuncId,
    merged: FuncId,
    fid_value: bool,
    param_map: &[usize],
) -> Function {
    let of = m.function(orig);
    let mf = m.function(merged);
    let mut t = Function::new(of.name.clone(), of.params.clone(), of.ret_ty);
    t.linkage = of.linkage;
    let bb = t.add_block();
    let callee = t.func_ref(merged);
    let fid = t.const_int(&m.types, TypeId::BOOL, i64::from(fid_value));
    let mut call_ops = Vec::with_capacity(1 + mf.params.len());
    call_ops.push(callee);
    call_ops.push(fid);
    for (slot, &ty) in mf.params.iter().enumerate().skip(1) {
        match param_map.iter().position(|&s| s == slot) {
            Some(orig_idx) => call_ops.push(t.arg(orig_idx)),
            None => {
                let u = t.undef(ty);
                call_ops.push(u);
            }
        }
    }
    let (_, ret_val) = t.append_inst(
        bb,
        Instruction::new(Opcode::Call, of.ret_ty, &call_ops, &[]),
    );
    t.append_inst(
        bb,
        Instruction::new(Opcode::Ret, TypeId::VOID, ret_val.as_slice(), &[]),
    );
    t
}
