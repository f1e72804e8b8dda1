//! The pair-attempt seam: the module-wide reference index, the
//! alignment-profit gate and the size-checked commit of a planned merge.
//!
//! [`Committer::attempt`] is the one place a ranked, aligned pair's fate is
//! decided, and its [`Verdict`] is all the pass needs for its
//! bookkeeping. Past the gate, the merged
//! function is laid out but not built until the layout's byte count — an
//! exact lower bound on what the build would measure — leaves room for a
//! profit. Committing is the only stage
//! that mutates the module: the merged function is appended, every call
//! site of the originals is redirected, and each original is replaced by a
//! thunk (or dropped to a declaration when module-private and never
//! address-taken). [`Committer`] owns all of that state so the pass stays
//! a pure pipeline over immutable queries.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use f3m_fingerprint::par::par_map_indexed;
use f3m_ir::function::{Function, Linkage};
use f3m_ir::ids::{FuncId, InstId};
use f3m_ir::inst::Opcode;
use f3m_ir::module::Module;
use f3m_ir::size::{function_size, inst_size, FUNCTION_OVERHEAD};
use f3m_ir::types::TypeId;
use f3m_ir::value::ValueKind;
use f3m_ir::verify::verify_function;

use crate::block_pairing::PairPlan;
use crate::codegen::{build_thunk, Layout, MergeConfig};

/// Module-wide reference index, maintained incrementally across commits so
/// that call-site redirection does not rescan the whole module per merge
/// (which would reintroduce a quadratic term the paper works to remove).
struct RefIndex {
    /// callee -> call/invoke sites `(owner function, instruction, owner
    /// version at recording time)`.
    call_sites: HashMap<FuncId, Vec<(FuncId, InstId, u32)>>,
    /// Functions whose address escapes a direct-call position; these must
    /// keep a thunk.
    address_taken: HashSet<FuncId>,
    /// Version per function; bumped when a body is replaced wholesale,
    /// invalidating recorded sites inside it.
    versions: HashMap<FuncId, u32>,
}

/// Function references found in one function body: direct-call sites and
/// address-escaping uses. The per-owner scan is side-effect free so the
/// initial index build can fan out across threads.
struct ScanResult {
    owner: FuncId,
    sites: Vec<(FuncId, InstId)>,
    address_taken: Vec<FuncId>,
}

/// Every function reference in `f`'s body, in instruction order, as
/// `(instruction, target, callee)`: `callee` marks a direct call site
/// (slot 0 of a `Call` or `Invoke`), and any other slot is a use that
/// takes the target's address. The one callee-position rule, shared by
/// the reference index and `global_merge`'s caller map.
pub(crate) fn func_refs(f: &Function) -> impl Iterator<Item = (InstId, FuncId, bool)> + '_ {
    f.linked_insts().flat_map(move |(iid, inst)| {
        let call = matches!(inst.op, Opcode::Call | Opcode::Invoke);
        inst.operands.iter().enumerate().filter_map(move |(slot, &op)| match f.value(op).kind {
            ValueKind::FuncRef(target) => Some((iid, target, call && slot == 0)),
            _ => None,
        })
    })
}

fn scan_one(m: &Module, owner: FuncId) -> ScanResult {
    let mut res = ScanResult { owner, sites: Vec::new(), address_taken: Vec::new() };
    let f = m.function(owner);
    if f.is_declaration {
        return res;
    }
    for (iid, target, callee) in func_refs(f) {
        if callee {
            res.sites.push((target, iid));
        } else {
            res.address_taken.push(target);
        }
    }
    res
}

impl RefIndex {
    /// Scans every function body, using up to `jobs` threads. The partial
    /// results are merged in function order, so the index is identical for
    /// any job count.
    fn build(m: &Module, jobs: usize) -> RefIndex {
        let owners: Vec<FuncId> = m.functions().map(|(id, _)| id).collect();
        let partials = par_map_indexed(owners.len(), jobs, |i| scan_one(m, owners[i]));
        let mut idx = RefIndex {
            call_sites: HashMap::new(),
            address_taken: HashSet::new(),
            versions: HashMap::new(),
        };
        for p in partials {
            // All versions are 0 at build time.
            for (target, iid) in p.sites {
                idx.call_sites.entry(target).or_default().push((p.owner, iid, 0));
            }
            idx.address_taken.extend(p.address_taken);
        }
        idx
    }

    fn version(&self, f: FuncId) -> u32 {
        self.versions.get(&f).copied().unwrap_or(0)
    }

    /// Records every function reference inside `owner`'s current body.
    fn scan_function(&mut self, m: &Module, owner: FuncId) {
        let res = scan_one(m, owner);
        let version = self.version(owner);
        for (target, iid) in res.sites {
            self.call_sites.entry(target).or_default().push((owner, iid, version));
        }
        self.address_taken.extend(res.address_taken);
    }

    /// Invalidates all recorded sites inside `owner` (its body is being
    /// replaced).
    fn invalidate_owner(&mut self, owner: FuncId) {
        *self.versions.entry(owner).or_insert(0) += 1;
    }

    /// Rewrites every live call site of `target` to call `merged` with the
    /// function identifier and remapped arguments, re-registering the
    /// rewritten sites under `merged`.
    fn redirect(
        &mut self,
        m: &mut Module,
        target: FuncId,
        merged: FuncId,
        fid_value: bool,
        param_map: &[usize],
    ) {
        let merged_params = m.function(merged).params.clone();
        let sites = self.call_sites.remove(&target).unwrap_or_default();
        let mut moved = Vec::with_capacity(sites.len());
        let (mut old, mut new_ops) = (Vec::new(), Vec::with_capacity(1 + merged_params.len()));
        for (owner, iid, version) in sites {
            if version != self.version(owner) {
                continue; // stale: the owner's body was replaced
            }
            let (f, types) = m.func_mut_and_types(owner);
            // `[callee, args...]`: the old call's arguments are `old[1..]`.
            old.clear();
            old.extend_from_slice(f.inst(iid).operands);
            let callee = f.func_ref(merged);
            let fid_const = f.const_int(types, TypeId::BOOL, i64::from(fid_value));
            new_ops.clear();
            new_ops.push(callee);
            new_ops.push(fid_const);
            for (slot, &ty) in merged_params.iter().enumerate().skip(1) {
                match param_map.iter().position(|&s| s == slot) {
                    Some(orig_idx) => new_ops.push(old[1 + orig_idx]),
                    None => {
                        let u = f.undef(ty);
                        new_ops.push(u);
                    }
                }
            }
            f.set_operands(iid, &new_ops);
            moved.push((owner, iid, version));
        }
        self.call_sites.entry(merged).or_default().extend(moved);
    }
}

/// Size of the thunk [`build_thunk`] leaves in place of an original that
/// must keep its symbol: one block, a call and a `ret`, whatever the
/// signature.
fn thunk_size() -> u64 {
    FUNCTION_OVERHEAD + inst_size(Opcode::Call) + inst_size(Opcode::Ret)
}

/// Bytes the surviving thunks of a commit take: one per original that
/// cannot be dropped.
fn thunks_size(drop1: bool, drop2: bool) -> u64 {
    (u64::from(!drop1) + u64::from(!drop2)) * thunk_size()
}

/// Fixed size overhead of committing a merge: merged-function overhead +
/// entry dispatch + one thunk per non-droppable original, minus the two
/// eliminated original-function overheads. Used by the
/// alignment-profitability gate before any code is generated.
fn fixed_overhead(drop1: bool, drop2: bool) -> i64 {
    let added = FUNCTION_OVERHEAD + inst_size(Opcode::Br) + thunks_size(drop1, drop2);
    added as i64 - 2 * FUNCTION_OVERHEAD as i64
}

/// The stage that turned a pair down past the gate (deterministic for a
/// fixed workload: commit walks are serial).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reject {
    /// The code generator could not build a merged body for the plan.
    Build,
    /// The merged body failed verification (a codegen bug; the candidate
    /// is dropped rather than corrupting the module).
    Verify,
    /// The merged body would not shrink the module: it was built, verified
    /// and measured, or its layout already proved it too big. (A pair
    /// proven too big is never built, so one that would also have failed
    /// to build or verify is reported here.)
    Size,
}

/// How one pair attempt ended; only `Committed` mutates the module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The alignment-profit gate said no before any code was generated.
    Unprofitable,
    /// The pair got past the gate and was then turned down.
    Rejected(Reject),
    /// The merge was committed; `saved` is the pair's (positive)
    /// `size_before - size_after`.
    Committed { saved: i64 },
}

/// Owns the reference index and decides every pair's fate.
pub struct Committer {
    refs: RefIndex,
    /// [`Reject::Size`] verdicts the layout's byte count decided, with no
    /// code generated.
    bounded: u64,
}

impl Committer {
    /// Builds the initial reference index over `m` (parallel across up to
    /// `jobs` threads, deterministic for any job count).
    pub fn build(m: &Module, jobs: usize) -> Committer {
        Committer { refs: RefIndex::build(m, jobs), bounded: 0 }
    }

    /// How many pairs so far were turned down as [`Reject::Size`] by the
    /// merged-size lower bound alone, before any code was generated.
    pub(crate) fn bounded(&self) -> u64 {
        self.bounded
    }

    /// The whole pair pipeline for `(f1, f2)` under `plan`: the
    /// alignment-profit gate, then [`try_commit`](Committer::try_commit).
    /// Returns the verdict and, when the pair got past the gate, the time
    /// spent bounding, generating, checking and committing code.
    ///
    /// The gate is HyFM's: skip code generation when even an optimistic
    /// estimate (every matched instruction shared, ignoring operand
    /// selects) cannot pay for the fixed costs — where most unprofitable
    /// pairs die cheaply. It is the paper's policy and is written down
    /// here only; the exact bound in [`try_commit`](Committer::try_commit)
    /// sits behind it and changes no decision.
    ///
    /// The gate stays in front of the bound on purpose. Letting the bound
    /// decide alone was measured (EXPERIMENTS.md, "Gate or bound"): the
    /// few pairs the gate turns down that the bound would build move
    /// `size_reduction_pct` by +0.003 points on the ledger's `large` and
    /// by nothing on `small`; dropping the zero-match test with it lets
    /// pairs that share no instruction commit for one function header's
    /// worth of bytes, which takes both functions away from better
    /// partners and loses 0.018 points on `small` (0.1 % of the reading:
    /// inside the ledger's 1 % bound, and still a loss).
    pub fn attempt(
        &mut self,
        m: &mut Module,
        f1: FuncId,
        f2: FuncId,
        plan: &PairPlan,
        config: MergeConfig,
    ) -> (Verdict, Option<Duration>) {
        let fixed = fixed_overhead(self.droppable(m, f1), self.droppable(m, f2));
        if plan.matched_insts() == 0 || plan.estimated_savings(fixed) <= 0 {
            return (Verdict::Unprofitable, None);
        }
        let t = Instant::now();
        let verdict = self.try_commit(m, f1, f2, plan, config);
        (verdict, Some(t.elapsed()))
    }

    /// Whether `f`'s original symbol can disappear entirely after a merge:
    /// module-private and never referenced outside a direct-call position.
    pub(crate) fn droppable(&self, m: &Module, f: FuncId) -> bool {
        m.function(f).linkage == Linkage::Internal && !self.refs.address_taken.contains(&f)
    }

    /// [`attempt`](Committer::attempt) without the gate (so never
    /// `Unprofitable`): lays out the merged function for `(f1, f2)` under
    /// `plan`, and unless the layout alone proves the post-merge size
    /// (merged body + surviving thunks) cannot beat the pair's current
    /// size, generates it, verifies it, and commits it if the measured
    /// size does. On success the module is rewritten (call sites
    /// redirected, originals replaced); on any rejection it is left
    /// unchanged.
    pub fn try_commit(
        &mut self,
        m: &mut Module,
        f1: FuncId,
        f2: FuncId,
        plan: &PairPlan,
        config: MergeConfig,
    ) -> Verdict {
        let drop1 = self.droppable(m, f1);
        let drop2 = self.droppable(m, f2);
        let Ok(layout) = Layout::new(m, f1, f2, plan) else {
            return Verdict::Rejected(Reject::Build);
        };
        let size_before = function_size(m.function(f1)) + function_size(m.function(f2));
        if layout.size_lower_bound() + thunks_size(drop1, drop2) >= size_before {
            self.bounded += 1;
            return Verdict::Rejected(Reject::Size);
        }
        let name = m.fresh_name("__merged");
        let Ok(mf) = layout.build(config, name) else {
            return Verdict::Rejected(Reject::Build);
        };
        let merged_size = function_size(&mf.func);
        let merged_id = m.add_function(mf.func);
        if verify_function(m, merged_id).is_err() {
            // A verifier failure here is a code generator bug; drop the
            // candidate rather than corrupt the module.
            m.remove_last_function(merged_id);
            return Verdict::Rejected(Reject::Verify);
        }
        // A function whose address is never taken has all its call sites
        // redirected into the merged body; if it is also module-private,
        // the original symbol disappears entirely. Otherwise a thunk
        // preserves the symbol.
        let thunk1 = build_thunk(m, f1, merged_id, false, &mf.param_map1);
        let thunk2 = build_thunk(m, f2, merged_id, true, &mf.param_map2);
        let after1 = if drop1 { 0 } else { function_size(&thunk1) };
        let after2 = if drop2 { 0 } else { function_size(&thunk2) };
        let size_after = merged_size + after1 + after2;
        if size_after >= size_before {
            m.remove_last_function(merged_id);
            return Verdict::Rejected(Reject::Size);
        }
        // Register the merged body's own call sites first so recursive
        // references to f1/f2 get redirected too.
        self.refs.scan_function(m, merged_id);
        self.refs.redirect(m, f1, merged_id, false, &mf.param_map1);
        self.refs.redirect(m, f2, merged_id, true, &mf.param_map2);
        self.refs.invalidate_owner(f1);
        self.refs.invalidate_owner(f2);
        for (f, dropped, thunk) in [(f1, drop1, thunk1), (f2, drop2, thunk2)] {
            if dropped {
                let old = m.function(f);
                m.replace_function(
                    f,
                    Function::new_declaration(old.name.clone(), old.params.clone(), old.ret_ty),
                );
            } else {
                m.replace_function(f, thunk);
            }
        }
        // Thunk bodies call the merged function; register those new sites
        // under the bumped versions.
        self.refs.scan_function(m, f1);
        self.refs.scan_function(m, f2);
        Verdict::Committed { saved: size_before as i64 - size_after as i64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_pairing::plan_blocks;
    use crate::codegen::build_merged;
    use f3m_ir::parser::parse_module_unverified as parse_module;
    use f3m_ir::printer::print_module;
    use f3m_ir::size::module_size;
    use f3m_ir::verify::verify_module;

    /// `@name(i32) -> ret_ty`: a chain of `ops` integer instructions whose
    /// constants start at `salt`, then `tail` (which sees the chain's last
    /// value as `%{ops}`).
    fn chain(name: &str, ret_ty: &str, ops: usize, salt: usize, tail: &str) -> String {
        wide_chain(name, 1, ret_ty, ops, salt, tail)
    }

    /// [`chain`] with `params` `i32` parameters, of which the chain reads
    /// the first; its last value is `%{params - 1 + ops}`.
    fn wide_chain(
        name: &str,
        params: usize,
        ret_ty: &str,
        ops: usize,
        salt: usize,
        tail: &str,
    ) -> String {
        let sig: Vec<String> = (0..params).map(|i| format!("i32 %{i}")).collect();
        let mut body = String::new();
        for i in 1..=ops {
            let op = ["add", "mul", "xor", "sub"][i % 4];
            let (dst, src) = (params + i - 1, if i == 1 { 0 } else { params + i - 2 });
            body += &format!("  %{dst} = {op} i32 %{src}, {}\n", salt + i);
        }
        format!("define @{name}({}) -> {ret_ty} {{\nbb0:\n{body}{tail}}}\n", sig.join(", "))
    }

    /// One [`Committer::attempt`] on a module's first two definitions.
    struct Tried {
        verdict: Verdict,
        codegen: Option<Duration>,
        /// `plan.matched_insts()` of the attempted plan.
        matched: usize,
        /// Whether the merged-size lower bound decided it.
        bounded: bool,
        before: Module,
        after: Module,
    }

    impl Tried {
        /// Whether the attempt left the printed module byte-identical and
        /// no function behind.
        fn unchanged(&self) -> bool {
            print_module(&self.before) == print_module(&self.after)
                && self.before.functions().count() == self.after.functions().count()
        }
    }

    /// (The parse is unverified so a fixture can carry a deliberately bad
    /// call.)
    fn attempt(defs: &str) -> Tried {
        let mut m = parse_module(&format!("module \"t\" {{\n{defs}}}\n")).unwrap();
        let ids = m.defined_functions();
        let plan = plan_blocks(&m, ids[0], ids[1]);
        let before = m.clone();
        let mut committer = Committer::build(&m, 1);
        let (verdict, codegen) =
            committer.attempt(&mut m, ids[0], ids[1], &plan, MergeConfig::default());
        let bounded = committer.bounded() == 1;
        Tried { verdict, codegen, matched: plan.matched_insts(), bounded, before, after: m }
    }

    #[test]
    fn gate_turns_down_a_pair_with_nothing_matched() {
        let ints = chain("a", "i32", 12, 0, "  ret i32 %12\n");
        let floats = "define @b(f64 %0) -> f64 {\nbb0:\n  %1 = fmul f64 %0, %0\n  \
                      %2 = fadd f64 %1, %0\n  ret f64 %2\n}\n";
        let t = attempt(&format!("{ints}{floats}"));
        assert_eq!(t.matched, 0);
        assert_eq!((t.verdict, t.codegen), (Verdict::Unprofitable, None));
        assert!(t.unchanged());
    }

    #[test]
    fn gate_turns_down_a_match_too_small_to_pay_the_fixed_costs() {
        let t = attempt(
            &(chain("a", "i32", 2, 0, "  ret i32 %2\n") + &chain("b", "i32", 2, 0, "  ret i32 %2\n")),
        );
        assert!(t.matched > 0);
        assert_eq!((t.verdict, t.codegen), (Verdict::Unprofitable, None));
        assert!(t.unchanged());
    }

    #[test]
    fn unbuildable_pair_is_rejected_at_build() {
        // Same bodies, different return types: the gate passes, the code
        // generator refuses.
        let defs = chain("a", "i32", 30, 0, "  ret i32 %30\n")
            + &chain("b", "i64", 30, 0, "  %31 = zext i32 %30 to i64\n  ret i64 %31\n");
        let t = attempt(&defs);
        assert_eq!(t.verdict, Verdict::Rejected(Reject::Build));
        assert!(t.codegen.is_some(), "the pair got past the gate");
        assert!(t.unchanged() && !t.bounded, "no return type, no layout to bound");
    }

    #[test]
    fn unverifiable_merged_body_is_rejected_at_verify() {
        // Both originals call `@ext` with one argument too many; the
        // merged body inherits the bad call and fails verification.
        let tail = "  %21 = call i32 @ext(i32 %20, i32 %0)\n  ret i32 %21\n";
        let defs = format!(
            "declare @ext(i32) -> i32\n{}{}",
            chain("a", "i32", 20, 0, tail),
            chain("b", "i32", 20, 0, tail)
        );
        let t = attempt(&defs);
        assert_eq!(t.verdict, Verdict::Rejected(Reject::Verify));
        assert!(t.codegen.is_some());
        assert!(t.unchanged() && !t.bounded);
    }

    #[test]
    fn merged_body_that_does_not_shrink_is_rejected_at_size() {
        // Every instruction matches, so the optimistic gate passes — but
        // every constant differs, and the operand selects eat the saving.
        // The layout counts those selects, so nothing is built.
        let defs = chain("a", "i32", 12, 0, "  ret i32 %12\n")
            + &chain("b", "i32", 12, 1000, "  ret i32 %12\n");
        let t = attempt(&defs);
        assert_eq!(t.verdict, Verdict::Rejected(Reject::Size));
        assert!(t.codegen.is_some(), "bounding is codegen-stage time");
        assert!(t.unchanged() && t.bounded);
    }

    #[test]
    fn pair_is_bounded_from_the_bodies_its_attempt_sees() {
        // `@c` calls `@a` where `@d` calls `@e`: a match when both are
        // planned. Then `@a` merges with the wider `@b`, its call site in
        // `@c` is redirected (`call @__merged(0, %10, undef)`), and the
        // two calls no longer share a shape: a guard diamond and a select
        // on the result where there was one call and a select on the
        // callee.
        let wide = wide_chain("b", 2, "i32", 20, 0, "  ret i32 %21\n");
        let caller = |name, callee| {
            let tail = format!("  %11 = call i32 @{callee}(i32 %10)\n  ret i32 %11\n");
            chain(name, "i32", 10, 0, &tail)
        };
        let defs = chain("a", "i32", 20, 0, "  ret i32 %20\n")
            + &wide
            + &chain("e", "i32", 1, 0, "  ret i32 %1\n")
            + &caller("c", "a")
            + &caller("d", "e");
        let mut m = parse_module(&format!("module \"t\" {{\n{defs}}}\n")).unwrap();
        verify_module(&m).unwrap();
        let ids = m.defined_functions();
        let (a, b, c, d) = (ids[0], ids[1], ids[3], ids[4]);
        let (plan_ab, plan_cd) = (plan_blocks(&m, a, b), plan_blocks(&m, c, d));
        let bound = |m: &Module| Layout::new(m, c, d, &plan_cd).unwrap().size_lower_bound();
        let planned = bound(&m);

        let mut committer = Committer::build(&m, 1);
        let config = MergeConfig::default();
        let (verdict, _) = committer.attempt(&mut m, a, b, &plan_ab, config);
        assert!(matches!(verdict, Verdict::Committed { .. }), "{verdict:?}");

        // As planned the pair would have paid; as it is now it cannot.
        let size_before = function_size(m.function(c)) + function_size(m.function(d));
        let attempted = bound(&m);
        let thunks = thunks_size(false, false);
        assert!(planned + thunks < size_before && size_before <= attempted + thunks);
        // Building it anyway agrees, and pays two repair phis on top: each
        // call's result has to reach the select below the diamond.
        let built = build_merged(&m, c, d, &plan_cd, config, "__probe".into()).unwrap();
        assert_eq!((built.layout_size, built.demotions), (attempted, 2));
        assert_eq!(function_size(&built.func), attempted + 2 * inst_size(Opcode::Phi));

        let before = print_module(&m);
        let (verdict, codegen) = committer.attempt(&mut m, c, d, &plan_cd, config);
        assert_eq!(verdict, Verdict::Rejected(Reject::Size));
        assert!(codegen.is_some() && committer.bounded() == 1);
        assert_eq!(print_module(&m), before);
    }

    #[test]
    fn size_model_is_derived_from_the_instruction_sizes() {
        // What the constants spelled before they were derived.
        assert_eq!(thunk_size(), 18);
        let overheads = [(true, true), (false, true), (true, false), (false, false)]
            .map(|(drop1, drop2)| fixed_overhead(drop1, drop2));
        assert_eq!(overheads, [14 - 24, 14 + 18 - 24, 14 + 18 - 24, 14 + 18 + 18 - 24]);

        // Every thunk is `thunk_size()` bytes, which is what lets the bound
        // price the survivors of a merge it does not build.
        for params in [0, 1, 6] {
            for (ret_ty, ret) in [("i32", "  ret i32 7\n"), ("void", "  ret\n")] {
                let def = |name| wide_chain(name, params, ret_ty, 0, 0, ret);
                let text = format!("module \"t\" {{\n{}{}}}\n", def("a"), def("b"));
                let mut m = parse_module(&text).unwrap();
                let ids = m.defined_functions();
                let (a, b) = (ids[0], ids[1]);
                let plan = plan_blocks(&m, a, b);
                let mf = build_merged(&m, a, b, &plan, MergeConfig::default(), "m".into()).unwrap();
                let merged = m.add_function(mf.func);
                for (orig, fid, map) in [(a, false, &mf.param_map1), (b, true, &mf.param_map2)] {
                    let thunk = build_thunk(&m, orig, merged, fid, map);
                    assert_eq!(function_size(&thunk), thunk_size(), "{params} x {ret_ty}");
                }
            }
        }
    }

    #[test]
    fn profitable_pair_is_committed() {
        let defs = chain("a", "i32", 20, 0, "  ret i32 %20\n")
            + &chain("b", "i32", 20, 0, "  ret i32 %20\n");
        let t = attempt(&defs);
        let Verdict::Committed { saved } = t.verdict else { panic!("{:?}", t.verdict) };
        assert!(t.codegen.is_some() && !t.unchanged());
        assert!(saved > 0);
        assert_eq!(module_size(&t.before) - module_size(&t.after), saved as u64);
        verify_module(&t.after).unwrap();
    }
}
