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

use std::collections::HashMap;

use f3m_ir::cfg::Cfg;
use f3m_ir::dom::DomTree;
use f3m_ir::ids::{BlockId, FuncId, InstId, ValueId};
use f3m_ir::inst::{Instruction, Opcode};
use f3m_ir::function::Function;
use f3m_ir::module::Module;
use f3m_ir::types::{TypeId, TypeStore};
use f3m_ir::value::ValueKind;

use crate::align::AlignEntry;
use crate::block_pairing::{block_parts, insts_mergeable, PairPlan};

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
}

#[derive(Clone, Copy, Debug)]
enum Src {
    Merged(InstId, InstId),
    Side1(InstId),
    Side2(InstId),
}

/// Original-edge attribution: which original predecessor block(s) a final
/// CFG edge corresponds to, per side.
type EdgeMap = HashMap<(BlockId, BlockId), (Option<BlockId>, Option<BlockId>)>;

struct MergeBuilder<'m> {
    m: &'m Module,
    fa: &'m Function,
    fb: &'m Function,
    nf: Function,
    cfg: MergeConfig,
    void_ty: TypeId,
    ptr_ty: TypeId,
    param_map1: Vec<usize>,
    param_map2: Vec<usize>,
    map1: HashMap<ValueId, ValueId>,
    map2: HashMap<ValueId, ValueId>,
    entry1: HashMap<BlockId, BlockId>,
    entry2: HashMap<BlockId, BlockId>,
    exit1: HashMap<BlockId, BlockId>,
    exit2: HashMap<BlockId, BlockId>,
    pendings: Vec<(InstId, Src)>,
    edges: EdgeMap,
    selects_inserted: usize,
    demotions: usize,
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
    let fa = m.function(f1);
    let fb = m.function(f2);
    if fa.ret_ty != fb.ret_ty {
        return Err(MergeError::IncompatibleReturnTypes);
    }

    // Pre-interned scalar ids are stable across stores, so a scratch store
    // gives us bool/void/ptr without mutating the module.
    let mut scratch = TypeStore::new();
    let bool_ty = scratch.bool();
    let void_ty = scratch.void();
    let ptr_ty = scratch.ptr();

    // ---- merged parameter list -----------------------------------------
    let mut merged_params: Vec<TypeId> = vec![bool_ty];
    let mut param_map1 = Vec::with_capacity(fa.params.len());
    for &p in &fa.params {
        param_map1.push(merged_params.len());
        merged_params.push(p);
    }
    let mut used2 = vec![false; merged_params.len()];
    used2[0] = true; // fid slot never shared
    let mut param_map2 = Vec::with_capacity(fb.params.len());
    for &p in &fb.params {
        let reuse = merged_params
            .iter()
            .enumerate()
            .position(|(i, &t)| !used2[i] && i > 0 && t == p);
        match reuse {
            Some(i) => {
                used2[i] = true;
                param_map2.push(i);
            }
            None => {
                param_map2.push(merged_params.len());
                merged_params.push(p);
                used2.push(true);
            }
        }
    }

    let nf = Function::new(name, merged_params, fa.ret_ty);
    let mut b = MergeBuilder {
        m,
        fa,
        fb,
        nf,
        cfg,
        void_ty,
        ptr_ty,
        param_map1,
        param_map2,
        map1: HashMap::new(),
        map2: HashMap::new(),
        entry1: HashMap::new(),
        entry2: HashMap::new(),
        exit1: HashMap::new(),
        exit2: HashMap::new(),
        pendings: Vec::new(),
        edges: EdgeMap::new(),
        selects_inserted: 0,
        demotions: 0,
    };
    b.build(plan)?;
    Ok(MergedFunction {
        func: b.nf,
        param_map1: b.param_map1,
        param_map2: b.param_map2,
        selects_inserted: b.selects_inserted,
        demotions: b.demotions,
    })
}

impl<'m> MergeBuilder<'m> {
    fn fid(&self) -> ValueId {
        self.nf.arg(0)
    }

    fn build(&mut self, plan: &PairPlan) -> Result<(), MergeError> {
        let entry0 = self.nf.add_block("entry");

        // ---- phase 1: structure ----------------------------------------
        for pair in &plan.pairs {
            self.emit_pair(pair);
        }
        for &b1 in &plan.unpaired1 {
            self.emit_clone(b1, true);
        }
        for &b2 in &plan.unpaired2 {
            self.emit_clone(b2, false);
        }

        // Entry dispatch.
        let h1 = self.entry1[&self.fa.entry()];
        let h2 = self.entry2[&self.fb.entry()];
        if h1 == h2 {
            self.append_raw(entry0, Opcode::Br, self.void_ty, vec![], vec![h1]);
        } else {
            let fid = self.fid();
            self.append_raw(entry0, Opcode::CondBr, self.void_ty, vec![fid], vec![h2, h1]);
        }

        // ---- phase 2a: terminator targets ------------------------------
        self.resolve_terminators();
        // ---- phase 2b: ordinary operands --------------------------------
        self.resolve_operands();
        // ---- phase 2c: phis ---------------------------------------------
        self.resolve_phis()?;
        // ---- phase 3: dominance repair ----------------------------------
        self.repair_dominance()?;
        Ok(())
    }

    // ---- emission helpers ----------------------------------------------

    fn append_raw(
        &mut self,
        bb: BlockId,
        op: Opcode,
        ty: TypeId,
        operands: Vec<ValueId>,
        blocks: Vec<BlockId>,
    ) -> Option<ValueId> {
        self.nf
            .append_inst(
                &self.m.types,
                bb,
                Instruction {
                    op,
                    ty,
                    operands,
                    blocks,
                    pred: None,
                    aux_ty: None,
                    parent: bb,
                    result: None,
                },
            )
            .1
    }

    fn emit_pending(&mut self, bb: BlockId, src: Src) {
        let (proto_f, proto_id) = match src {
            Src::Merged(i1, _) | Src::Side1(i1) => (self.fa, i1),
            Src::Side2(i2) => (self.fb, i2),
        };
        let proto = proto_f.inst(proto_id);
        let inst = Instruction {
            op: proto.op,
            ty: proto.ty,
            operands: Vec::new(),
            blocks: Vec::new(),
            pred: proto.pred,
            aux_ty: proto.aux_ty,
            parent: bb,
            result: None,
        };
        let (new_id, result) = self.nf.append_inst(&self.m.types, bb, inst);
        if let Some(r) = result {
            match src {
                Src::Merged(i1, i2) => {
                    if let Some(r1) = self.fa.inst(i1).result {
                        self.map1.insert(r1, r);
                    }
                    if let Some(r2) = self.fb.inst(i2).result {
                        self.map2.insert(r2, r);
                    }
                }
                Src::Side1(i1) => {
                    if let Some(r1) = self.fa.inst(i1).result {
                        self.map1.insert(r1, r);
                    }
                }
                Src::Side2(i2) => {
                    if let Some(r2) = self.fb.inst(i2).result {
                        self.map2.insert(r2, r);
                    }
                }
            }
        }
        self.pendings.push((new_id, src));
    }

    fn emit_pair(&mut self, pair: &crate::block_pairing::BlockPairPlan) {
        let parts1 = block_parts(self.fa, pair.b1);
        let parts2 = block_parts(self.fb, pair.b2);
        let head = self.nf.add_block(format!("pair.{}.{}", pair.b1.index(), pair.b2.index()));
        self.entry1.insert(pair.b1, head);
        self.entry2.insert(pair.b2, head);

        // Merged phi prefix.
        for k in 0..pair.phi_pairs {
            self.emit_pending(head, Src::Merged(parts1.phis[k], parts2.phis[k]));
        }

        // Body runs: group alignment entries, validating matches with the
        // strict slot-wise compatibility check.
        let mut current = head;
        let mut pending_mismatch: (Vec<InstId>, Vec<InstId>) = (Vec::new(), Vec::new());
        let flush =
            |this: &mut Self, current: &mut BlockId, mm: &mut (Vec<InstId>, Vec<InstId>)| {
                if mm.0.is_empty() && mm.1.is_empty() {
                    return;
                }
                let s1 = this.nf.add_block(format!("side1.{}", current.index()));
                let s2 = this.nf.add_block(format!("side2.{}", current.index()));
                let join = this.nf.add_block(format!("join.{}", current.index()));
                let fid = this.fid();
                this.append_raw(*current, Opcode::CondBr, this.void_ty, vec![fid], vec![s2, s1]);
                for &i in &mm.0 {
                    this.emit_pending(s1, Src::Side1(i));
                }
                for &j in &mm.1 {
                    this.emit_pending(s2, Src::Side2(j));
                }
                this.append_raw(s1, Opcode::Br, this.void_ty, vec![], vec![join]);
                this.append_raw(s2, Opcode::Br, this.void_ty, vec![], vec![join]);
                mm.0.clear();
                mm.1.clear();
                *current = join;
            };
        for entry in &pair.body.entries {
            match *entry {
                AlignEntry::Match(i, j) => {
                    let (i1, i2) = (parts1.body[i], parts2.body[j]);
                    if insts_mergeable(self.fa, i1, self.fb, i2) {
                        flush(self, &mut current, &mut pending_mismatch);
                        self.emit_pending(current, Src::Merged(i1, i2));
                    } else {
                        pending_mismatch.0.push(i1);
                        pending_mismatch.1.push(i2);
                    }
                }
                AlignEntry::GapRight(i) => pending_mismatch.0.push(parts1.body[i]),
                AlignEntry::GapLeft(j) => pending_mismatch.1.push(parts2.body[j]),
            }
        }

        // Terminator.
        let term_ok = pair.term_match
            && insts_mergeable(self.fa, parts1.term, self.fb, parts2.term);
        if term_ok {
            flush(self, &mut current, &mut pending_mismatch);
            self.emit_pending(current, Src::Merged(parts1.term, parts2.term));
            self.exit1.insert(pair.b1, current);
            self.exit2.insert(pair.b2, current);
        } else {
            // Fold the trailing mismatch run and both terminators into one
            // final diamond that never rejoins.
            let s1 = self.nf.add_block(format!("term1.{}", current.index()));
            let s2 = self.nf.add_block(format!("term2.{}", current.index()));
            let fid = self.fid();
            self.append_raw(current, Opcode::CondBr, self.void_ty, vec![fid], vec![s2, s1]);
            let (mm1, mm2) = std::mem::take(&mut pending_mismatch);
            for i in mm1 {
                self.emit_pending(s1, Src::Side1(i));
            }
            for j in mm2 {
                self.emit_pending(s2, Src::Side2(j));
            }
            self.emit_pending(s1, Src::Side1(parts1.term));
            self.emit_pending(s2, Src::Side2(parts2.term));
            self.exit1.insert(pair.b1, s1);
            self.exit2.insert(pair.b2, s2);
        }
    }

    fn emit_clone(&mut self, bb: BlockId, side1: bool) {
        let f = if side1 { self.fa } else { self.fb };
        let nb = self
            .nf
            .add_block(format!("clone{}.{}", if side1 { 1 } else { 2 }, bb.index()));
        if side1 {
            self.entry1.insert(bb, nb);
            self.exit1.insert(bb, nb);
        } else {
            self.entry2.insert(bb, nb);
            self.exit2.insert(bb, nb);
        }
        let insts: Vec<InstId> = f.block(bb).insts.clone();
        for i in insts {
            self.emit_pending(nb, if side1 { Src::Side1(i) } else { Src::Side2(i) });
        }
    }

    // ---- phase 2a -------------------------------------------------------

    fn record_edge(&mut self, head: BlockId, pred: BlockId, o1: Option<BlockId>, o2: Option<BlockId>) {
        let e = self.edges.entry((head, pred)).or_insert((None, None));
        if o1.is_some() {
            e.0 = o1;
        }
        if o2.is_some() {
            e.1 = o2;
        }
    }

    fn resolve_terminators(&mut self) {
        let pendings = self.pendings.clone();
        for (new_id, src) in pendings {
            if !self.nf.inst(new_id).op.is_terminator() {
                continue;
            }
            let parent = self.nf.inst(new_id).parent;
            match src {
                Src::Merged(t1, t2) => {
                    let (b1src, b2src) =
                        (self.fa.inst(t1).parent, self.fb.inst(t2).parent);
                    let targets1 = self.fa.inst(t1).blocks.clone();
                    let targets2 = self.fb.inst(t2).blocks.clone();
                    let mut new_targets = Vec::with_capacity(targets1.len());
                    for (k, &o1) in targets1.iter().enumerate() {
                        let o2 = targets2[k];
                        let m1 = self.entry1[&o1];
                        let m2 = self.entry2[&o2];
                        if m1 == m2 {
                            self.record_edge(m1, parent, Some(b1src), Some(b2src));
                            new_targets.push(m1);
                        } else {
                            let d = self
                                .nf
                                .add_block(format!("dispatch.{}.{}", parent.index(), k));
                            let fid = self.fid();
                            self.append_raw(
                                d,
                                Opcode::CondBr,
                                self.void_ty,
                                vec![fid],
                                vec![m2, m1],
                            );
                            self.record_edge(m1, d, Some(b1src), None);
                            self.record_edge(m2, d, None, Some(b2src));
                            new_targets.push(d);
                        }
                    }
                    self.nf.inst_mut(new_id).blocks = new_targets;
                }
                Src::Side1(t1) => {
                    let b1src = self.fa.inst(t1).parent;
                    let targets: Vec<BlockId> = self.fa.inst(t1).blocks.clone();
                    let mapped: Vec<BlockId> =
                        targets.iter().map(|t| self.entry1[t]).collect();
                    for &mt in &mapped {
                        self.record_edge(mt, parent, Some(b1src), None);
                    }
                    self.nf.inst_mut(new_id).blocks = mapped;
                }
                Src::Side2(t2) => {
                    let b2src = self.fb.inst(t2).parent;
                    let targets: Vec<BlockId> = self.fb.inst(t2).blocks.clone();
                    let mapped: Vec<BlockId> =
                        targets.iter().map(|t| self.entry2[t]).collect();
                    for &mt in &mapped {
                        self.record_edge(mt, parent, None, Some(b2src));
                    }
                    self.nf.inst_mut(new_id).blocks = mapped;
                }
            }
        }
    }

    // ---- phase 2b -------------------------------------------------------

    fn resolve1(&mut self, v: ValueId) -> ValueId {
        resolve_side(
            self.m,
            self.fa,
            &mut self.nf,
            &self.map1,
            &self.param_map1,
            self.ptr_ty,
            v,
        )
    }

    fn resolve2(&mut self, v: ValueId) -> ValueId {
        resolve_side(
            self.m,
            self.fb,
            &mut self.nf,
            &self.map2,
            &self.param_map2,
            self.ptr_ty,
            v,
        )
    }

    /// Inserts `select %fid, v2, v1` immediately before position `pos` of
    /// `bb` and returns its value.
    fn insert_select(&mut self, bb: BlockId, pos: usize, v1: ValueId, v2: ValueId) -> ValueId {
        let ty = self.nf.value(v1).ty;
        let fid = self.fid();
        let (_, val) = self.nf.insert_inst(
            &self.m.types,
            bb,
            pos,
            Instruction {
                op: Opcode::Select,
                ty,
                operands: vec![fid, v2, v1],
                blocks: vec![],
                pred: None,
                aux_ty: None,
                parent: bb,
                result: None,
            },
        );
        self.selects_inserted += 1;
        val.expect("select produces a value")
    }

    fn resolve_operands(&mut self) {
        let pendings = self.pendings.clone();
        for (new_id, src) in pendings {
            if self.nf.inst(new_id).op == Opcode::Phi {
                continue;
            }
            let resolved = match src {
                Src::Merged(i1, i2) => {
                    let ops1 = self.fa.inst(i1).operands.clone();
                    let ops2 = self.fb.inst(i2).operands.clone();
                    let mut out = Vec::with_capacity(ops1.len());
                    for (&v1, &v2) in ops1.iter().zip(ops2.iter()) {
                        let m1 = self.resolve1(v1);
                        let m2 = self.resolve2(v2);
                        if m1 == m2 {
                            out.push(m1);
                        } else {
                            let bb = self.nf.inst(new_id).parent;
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
                    out
                }
                Src::Side1(i1) => {
                    let ops = self.fa.inst(i1).operands.clone();
                    ops.into_iter().map(|v| self.resolve1(v)).collect()
                }
                Src::Side2(i2) => {
                    let ops = self.fb.inst(i2).operands.clone();
                    ops.into_iter().map(|v| self.resolve2(v)).collect()
                }
            };
            self.nf.inst_mut(new_id).operands = resolved;
        }
    }

    // ---- phase 2c -------------------------------------------------------

    fn resolve_phis(&mut self) -> Result<(), MergeError> {
        let cfg = Cfg::compute(&self.nf);
        let pendings = self.pendings.clone();
        for (new_id, src) in pendings {
            if self.nf.inst(new_id).op != Opcode::Phi {
                continue;
            }
            let h = self.nf.inst(new_id).parent;
            let mut preds: Vec<BlockId> = cfg.preds(h).to_vec();
            preds.sort();
            preds.dedup();
            let mut in_vals = Vec::with_capacity(preds.len());
            let mut in_blocks = Vec::with_capacity(preds.len());
            for p in preds {
                let &(o1, o2) = self.edges.get(&(h, p)).ok_or_else(|| {
                    MergeError::Internal(format!(
                        "no edge attribution for {:?} -> {:?}",
                        p, h
                    ))
                })?;
                let val = match (src, o1, o2) {
                    (Src::Merged(p1, p2), Some(x1), Some(x2)) => {
                        let v1 = incoming_of(self.fa, p1, x1)?;
                        let v2 = incoming_of(self.fb, p2, x2)?;
                        let m1 = self.resolve1(v1);
                        let m2 = self.resolve2(v2);
                        if m1 == m2 {
                            m1
                        } else {
                            // Select at the end of the shared predecessor.
                            let pos = self.nf.block(p).insts.len() - 1;
                            self.insert_select(p, pos, m1, m2)
                        }
                    }
                    (Src::Merged(p1, _) | Src::Side1(p1), Some(x1), None) => {
                        let v1 = incoming_of(self.fa, p1, x1)?;
                        self.resolve1(v1)
                    }
                    (Src::Merged(_, p2) | Src::Side2(p2), None, Some(x2)) => {
                        let v2 = incoming_of(self.fb, p2, x2)?;
                        self.resolve2(v2)
                    }
                    (Src::Side1(p1), Some(x1), Some(_)) => {
                        let v1 = incoming_of(self.fa, p1, x1)?;
                        self.resolve1(v1)
                    }
                    (Src::Side2(p2), Some(_), Some(x2)) => {
                        let v2 = incoming_of(self.fb, p2, x2)?;
                        self.resolve2(v2)
                    }
                    _ => {
                        return Err(MergeError::Internal(format!(
                            "edge into phi block {h:?} from {p:?} has no usable attribution"
                        )))
                    }
                };
                in_vals.push(val);
                in_blocks.push(p);
            }
            let inst = self.nf.inst_mut(new_id);
            inst.operands = in_vals;
            inst.blocks = in_blocks;
        }
        Ok(())
    }

    // ---- phase 3: dominance repair ---------------------------------------

    fn repair_dominance(&mut self) -> Result<(), MergeError> {
        for _round in 0..16 {
            let violations = find_violations(&self.nf);
            if violations.is_empty() {
                return Ok(());
            }
            // Group violating uses by defining instruction.
            let mut by_def: HashMap<InstId, Vec<UseSite>> = HashMap::new();
            for (def, site) in violations {
                by_def.entry(def).or_default().push(site);
            }
            let mut defs: Vec<InstId> = by_def.keys().copied().collect();
            defs.sort();
            for def in defs {
                match self.cfg.repair {
                    RepairMode::Phi => self.reconstruct_ssa(def, &by_def[&def]),
                    RepairMode::Stack | RepairMode::LegacyBuggy => {
                        self.demote(def, &by_def[&def])
                    }
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
    fn reconstruct_ssa(&mut self, def: InstId, uses: &[UseSite]) {
        self.demotions += 1; // counted as a repaired value either way
        let def_val = self.nf.inst(def).result.expect("repairing a valued instruction");
        let ty = self.nf.value(def_val).ty;
        let def_block = self.nf.inst(def).parent;
        let cfg = Cfg::compute(&self.nf);
        let mut memo: HashMap<BlockId, ValueId> = HashMap::new();
        for site in uses {
            match *site {
                UseSite::Operand { inst, slot } => {
                    let ub = self.nf.inst(inst).parent;
                    debug_assert_ne!(
                        ub, def_block,
                        "same-block use-before-def cannot occur in merged code"
                    );
                    let v = self.read_at_entry(ub, def_val, def_block, ty, &cfg, &mut memo);
                    self.nf.inst_mut(inst).operands[slot] = v;
                }
                UseSite::PhiIncoming { inst, slot, block } => {
                    let v = self.read_at_end(block, def_val, def_block, ty, &cfg, &mut memo);
                    self.nf.inst_mut(inst).operands[slot] = v;
                }
            }
        }
    }

    /// The reaching value of `def` at the end of `bb`.
    #[allow(clippy::too_many_arguments)]
    fn read_at_end(
        &mut self,
        bb: BlockId,
        def_val: ValueId,
        def_block: BlockId,
        ty: TypeId,
        cfg: &Cfg,
        memo: &mut HashMap<BlockId, ValueId>,
    ) -> ValueId {
        if bb == def_block {
            return def_val;
        }
        if let Some(&v) = memo.get(&bb) {
            return v;
        }
        if !cfg.is_reachable(bb) {
            let u = self.nf.undef(ty);
            memo.insert(bb, u);
            return u;
        }
        let mut preds: Vec<BlockId> = cfg.preds(bb).to_vec();
        preds.sort();
        preds.dedup();
        if preds.is_empty() {
            let u = self.nf.undef(ty);
            memo.insert(bb, u);
            return u;
        }
        if preds.len() == 1 {
            // No join: forward through the single predecessor. Memoize
            // *after* the recursive call; single-pred chains cannot cycle
            // back into themselves without passing a multi-pred block.
            let v = self.read_at_end(preds[0], def_val, def_block, ty, cfg, memo);
            memo.insert(bb, v);
            return v;
        }
        // Join point: place a placeholder phi first to break cycles.
        let (phi_id, phi_val) = self.nf.insert_inst(
            &self.m.types,
            bb,
            0,
            Instruction {
                op: Opcode::Phi,
                ty,
                operands: vec![],
                blocks: vec![],
                pred: None,
                aux_ty: None,
                parent: bb,
                result: None,
            },
        );
        let phi_val = phi_val.expect("phi value");
        memo.insert(bb, phi_val);
        let vals: Vec<ValueId> = preds
            .iter()
            .map(|&p| self.read_at_end(p, def_val, def_block, ty, cfg, memo))
            .collect();
        let phi = self.nf.inst_mut(phi_id);
        phi.operands = vals;
        phi.blocks = preds;
        phi_val
    }

    /// The reaching value of `def` at the entry of `bb` (for a use inside
    /// `bb` that the definition does not dominate).
    #[allow(clippy::too_many_arguments)]
    fn read_at_entry(
        &mut self,
        bb: BlockId,
        def_val: ValueId,
        def_block: BlockId,
        ty: TypeId,
        cfg: &Cfg,
        memo: &mut HashMap<BlockId, ValueId>,
    ) -> ValueId {
        // Entry value equals the end value of the same block whenever the
        // def is not in `bb`, which `reconstruct_ssa` asserts.
        self.read_at_end(bb, def_val, def_block, ty, cfg, memo)
    }

    /// Demotes `def`'s value to a stack slot, rewriting the given uses to
    /// loads. Implements the Section III-E store-placement rules.
    fn demote(&mut self, def: InstId, uses: &[UseSite]) {
        self.demotions += 1;
        let def_val = self.nf.inst(def).result.expect("demoting a valued instruction");
        let slot_ty = self.nf.value(def_val).ty;
        // Slot in the entry block (dominates everything).
        let entry = self.nf.entry();
        let (_, slot) = self.nf.insert_inst(
            &self.m.types,
            entry,
            0,
            Instruction {
                op: Opcode::Alloca,
                ty: self.ptr_ty,
                operands: vec![],
                blocks: vec![],
                pred: None,
                aux_ty: Some(slot_ty),
                parent: entry,
                result: None,
            },
        );
        let slot = slot.expect("alloca value");

        // Store placement.
        let def_block = self.nf.inst(def).parent;
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
            &self.m.types,
            store_block,
            store_pos,
            Instruction {
                op: Opcode::Store,
                ty: self.void_ty,
                operands: vec![def_val, slot],
                blocks: vec![],
                pred: None,
                aux_ty: None,
                parent: store_block,
                result: None,
            },
        );

        // Rewrite uses.
        let mut sites: Vec<UseSite> = uses.to_vec();
        if self.cfg.repair == RepairMode::LegacyBuggy {
            // Legacy HyFM also rewrote non-violating uses inside the
            // defining block — those now load *before* the store runs.
            for (iid, inst) in self.nf.block_insts(def_block) {
                if inst.op == Opcode::Store && inst.operands == vec![def_val, slot] {
                    continue;
                }
                for (slot_idx, &op) in inst.operands.iter().enumerate() {
                    if op == def_val && inst.op != Opcode::Phi {
                        sites.push(UseSite::Operand { inst: iid, slot: slot_idx });
                    }
                }
            }
            sites.sort();
            sites.dedup();
        }
        for site in sites {
            match site {
                UseSite::Operand { inst, slot: slot_idx } => {
                    let bb = self.nf.inst(inst).parent;
                    let pos = self
                        .nf
                        .block(bb)
                        .insts
                        .iter()
                        .position(|&i| i == inst)
                        .expect("use in its block");
                    let (_, load) = self.nf.insert_inst(
                        &self.m.types,
                        bb,
                        pos,
                        Instruction {
                            op: Opcode::Load,
                            ty: slot_ty,
                            operands: vec![slot],
                            blocks: vec![],
                            pred: None,
                            aux_ty: None,
                            parent: bb,
                            result: None,
                        },
                    );
                    self.nf.inst_mut(inst).operands[slot_idx] = load.expect("load value");
                }
                UseSite::PhiIncoming { inst, slot: slot_idx, block } => {
                    // Load at the end of the incoming block.
                    let pos = self.nf.block(block).insts.len() - 1;
                    let (_, load) = self.nf.insert_inst(
                        &self.m.types,
                        block,
                        pos,
                        Instruction {
                            op: Opcode::Load,
                            ty: slot_ty,
                            operands: vec![slot],
                            blocks: vec![],
                            pred: None,
                            aux_ty: None,
                            parent: block,
                            result: None,
                        },
                    );
                    self.nf.inst_mut(inst).operands[slot_idx] = load.expect("load value");
                }
            }
        }
    }
}

/// A use of a value that violates SSA dominance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum UseSite {
    /// Ordinary operand `slot` of `inst`.
    Operand { inst: InstId, slot: usize },
    /// Incoming `slot` of phi `inst` arriving from `block`.
    PhiIncoming { inst: InstId, slot: usize, block: BlockId },
}

/// Scans a function for SSA dominance violations.
fn find_violations(f: &Function) -> Vec<(InstId, UseSite)> {
    let cfg = Cfg::compute(f);
    let dt = DomTree::compute(f, &cfg);
    let mut out = Vec::new();
    for &bb in &f.block_order {
        if !cfg.is_reachable(bb) {
            continue;
        }
        for (iid, inst) in f.block_insts(bb) {
            if inst.op == Opcode::Phi {
                for (slot, (in_bb, v)) in inst.phi_incomings().enumerate() {
                    if let ValueKind::Inst(def) = f.value(v).kind {
                        if !dt.dominates_phi_use(f, def, in_bb) {
                            out.push((
                                def,
                                UseSite::PhiIncoming { inst: iid, slot, block: in_bb },
                            ));
                        }
                    }
                }
            } else {
                for (slot, &v) in inst.operands.iter().enumerate() {
                    if let ValueKind::Inst(def) = f.value(v).kind {
                        if !dt.dominates_inst(f, def, iid) {
                            out.push((def, UseSite::Operand { inst: iid, slot }));
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
        .ok_or_else(|| {
            MergeError::Internal(format!("phi {phi:?} has no incoming for {pred:?}"))
        })
}

fn resolve_side(
    m: &Module,
    orig: &Function,
    nf: &mut Function,
    map: &HashMap<ValueId, ValueId>,
    param_map: &[usize],
    ptr_ty: TypeId,
    v: ValueId,
) -> ValueId {
    let val = orig.value(v);
    match val.kind {
        ValueKind::Arg(i) => nf.arg(param_map[i as usize]),
        ValueKind::Inst(_) => *map
            .get(&v)
            .unwrap_or_else(|| panic!("unmapped instruction value {v:?}")),
        ValueKind::ConstInt(x) => nf.const_int(&m.types, val.ty, x),
        ValueKind::ConstFloat(bits) => nf.const_float(val.ty, f64::from_bits(bits)),
        ValueKind::Undef => nf.undef(val.ty),
        ValueKind::FuncRef(f) => nf.func_ref(f, ptr_ty),
        ValueKind::GlobalRef(g) => nf.global_ref(g, ptr_ty),
    }
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
    let mut scratch = TypeStore::new();
    let ptr_ty = scratch.ptr();
    let void_ty = scratch.void();
    let bool_ty = scratch.bool();

    let mut t = Function::new(of.name.clone(), of.params.clone(), of.ret_ty);
    t.linkage = of.linkage;
    let bb = t.add_block("entry");
    let callee = t.func_ref(merged, ptr_ty);
    let fid = t.const_int(&m.types, bool_ty, i64::from(fid_value));
    let mut args: Vec<ValueId> = Vec::with_capacity(mf.params.len());
    args.push(fid);
    for (slot, &ty) in mf.params.iter().enumerate().skip(1) {
        match param_map.iter().position(|&s| s == slot) {
            Some(orig_idx) => args.push(t.arg(orig_idx)),
            None => {
                let u = t.undef(ty);
                args.push(u);
            }
        }
    }
    let mut call_ops = vec![callee];
    call_ops.extend(args);
    let (_, ret_val) = t.append_inst(
        &m.types,
        bb,
        Instruction {
            op: Opcode::Call,
            ty: of.ret_ty,
            operands: call_ops,
            blocks: vec![],
            pred: None,
            aux_ty: None,
            parent: bb,
            result: None,
        },
    );
    t.append_inst(
        &m.types,
        bb,
        Instruction {
            op: Opcode::Ret,
            ty: void_ty,
            operands: ret_val.into_iter().collect(),
            blocks: vec![],
            pred: None,
            aux_ty: None,
            parent: bb,
            result: None,
        },
    );
    t
}
