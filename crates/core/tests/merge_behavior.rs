//! Differential tests of the merged-function code generator.
//!
//! Every test builds a module, snapshots the observable behaviour of each
//! function (return value, `ext_sink` checksum, or trap) over a grid of
//! inputs, runs the merging pass, and checks that behaviour is unchanged
//! while the module shrank (or stayed put). This is the strongest check we
//! have that guard insertion, operand selects, dispatch blocks, phi
//! reconstruction and dominance repair are semantics-preserving.

use f3m_core::codegen::{build_merged, build_thunk, MergeConfig, MergeError, RepairMode};
use f3m_core::block_pairing::plan_blocks;
use f3m_core::pass::{run_pass, PassConfig};
use f3m_interp::{Interpreter, Limits, Trap, Val};
use f3m_ir::module::Module;
use f3m_ir::parser::parse_module;
use f3m_ir::size::module_size;
use f3m_ir::verify::verify_module;

const TEST_INPUTS: [i64; 7] = [-17, -1, 0, 1, 7, 100, 9999];

/// Snapshot of one function's behaviour over the input grid.
type Behaviour = Vec<Result<(Option<Val>, u64), Trap>>;

fn behaviour_of(m: &Module, name: &str) -> Behaviour {
    let f = m.function(m.lookup_function(name).unwrap());
    TEST_INPUTS
        .iter()
        .map(|&x| {
            let mut interp = Interpreter::with_limits(
                m,
                Limits { fuel: 1_000_000, memory: 1 << 20, max_depth: 64 },
            );
            let args: Vec<Val> = f
                .params
                .iter()
                .map(|&p| {
                    let mut scratch = f3m_ir::types::TypeStore::new();
                    if scratch.f64() == p || scratch.f32() == p {
                        Val::Float(x as f64 * 0.5)
                    } else if scratch.ptr() == p {
                        Val::Ptr(0) // null; functions under test avoid derefs
                    } else {
                        Val::Int(x)
                    }
                })
                .collect();
            interp.call_by_name(name, &args).map(|o| (o.ret, o.checksum))
        })
        .collect()
}

/// Prepares a module for differential testing: every defined function is
/// made module-private (so profitable merges can drop the originals, as a
/// linker would) and gains an external `__drv_<name>` wrapper through which
/// behaviour is observed before and after merging.
fn with_drivers(src: &str) -> (Module, Vec<String>) {
    let mut m = parse_module(src).unwrap();
    let targets: Vec<(f3m_ir::ids::FuncId, String)> = m
        .functions()
        .filter(|(_, f)| !f.is_declaration)
        .map(|(id, f)| (id, f.name.clone()))
        .collect();
    let mut scratch = f3m_ir::types::TypeStore::new();
    let void_ty = scratch.void();
    let mut drivers = Vec::new();
    for (id, name) in targets {
        m.function_mut(id).linkage = f3m_ir::function::Linkage::Internal;
        let (params, ret_ty) = {
            let f = m.function(id);
            (f.params.clone(), f.ret_ty)
        };
        let mut d = f3m_ir::function::Function::new(format!("__drv_{name}"), params.clone(), ret_ty);
        let bb = d.add_block();
        let callee = d.func_ref(id);
        let ops: Vec<_> =
            std::iter::once(callee).chain((0..params.len()).map(|i| d.arg(i))).collect();
        let (_, r) = d.append_inst(
            bb,
            f3m_ir::inst::Instruction::new(f3m_ir::inst::Opcode::Call, ret_ty, &ops, &[]),
        );
        d.append_inst(
            bb,
            f3m_ir::inst::Instruction::new(f3m_ir::inst::Opcode::Ret, void_ty, r.as_slice(), &[]),
        );
        let dname = d.name.clone();
        m.add_function(d);
        drivers.push(dname);
    }
    verify_module(&m).expect("driver-augmented module must verify");
    (m, drivers)
}

/// Runs the pass and asserts behaviour preservation (observed through the
/// external drivers) for all functions present before the merge.
fn assert_merge_preserves(src: &str, expect_merges: usize) -> Module {
    let (mut m, drivers) = with_drivers(src);
    let before: Vec<Behaviour> = drivers.iter().map(|n| behaviour_of(&m, n)).collect();
    let size_before = module_size(&m);

    let report = run_pass(&mut m, &PassConfig::f3m());
    assert_eq!(
        report.stats.merges_committed, expect_merges,
        "unexpected merge count; attempts: {:#?}",
        report.attempts
    );
    verify_module(&m).expect("merged module must verify");

    for (name, old) in drivers.iter().zip(before.iter()) {
        let new = behaviour_of(&m, name);
        assert_eq!(&new, old, "behaviour of @{name} changed after merging");
    }
    if expect_merges > 0 {
        assert!(
            module_size(&m) < size_before,
            "committed merges must shrink the module: {} -> {}",
            size_before,
            module_size(&m)
        );
    }
    m
}

#[test]
fn merges_identical_straightline_functions() {
    assert_merge_preserves(
        r#"
module "t" {
define @a(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %2 = mul i32 %1, 3
  %3 = xor i32 %2, 255
  %4 = sub i32 %3, %0
  %5 = shl i32 %4, 2
  %6 = add i32 %5, %1
  ret i32 %6
}
define @b(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %2 = mul i32 %1, 3
  %3 = xor i32 %2, 255
  %4 = sub i32 %3, %0
  %5 = shl i32 %4, 2
  %6 = add i32 %5, %1
  ret i32 %6
}
}
"#,
        1,
    );
}

#[test]
fn merges_functions_with_different_constants_via_selects() {
    assert_merge_preserves(
        r#"
module "t" {
define @scale10(i32 %0) -> i32 {
bb0:
  %1 = mul i32 %0, 10
  %2 = add i32 %1, 7
  %3 = xor i32 %2, 96
  %4 = sub i32 %3, %0
  %5 = mul i32 %4, %1
  ret i32 %5
}
define @scale12(i32 %0) -> i32 {
bb0:
  %1 = mul i32 %0, 12
  %2 = add i32 %1, 9
  %3 = xor i32 %2, 96
  %4 = sub i32 %3, %0
  %5 = mul i32 %4, %1
  ret i32 %5
}
}
"#,
        1,
    );
}

#[test]
fn merges_diamond_cfgs_with_phis() {
    assert_merge_preserves(
        r#"
module "t" {
define @abs1(i32 %0) -> i32 {
bb0:
  %1 = icmp slt i32 %0, 0
  condbr %1, bb1, bb2
bb1:
  %2 = sub i32 0, %0
  br bb3
bb2:
  %3 = add i32 %0, 0
  br bb3
bb3:
  %4 = phi i32 [ %2, bb1 ], [ %3, bb2 ]
  %5 = mul i32 %4, 3
  ret i32 %5
}
define @abs2(i32 %0) -> i32 {
bb0:
  %1 = icmp slt i32 %0, 0
  condbr %1, bb1, bb2
bb1:
  %2 = sub i32 0, %0
  br bb3
bb2:
  %3 = add i32 %0, 0
  br bb3
bb3:
  %4 = phi i32 [ %2, bb1 ], [ %3, bb2 ]
  %5 = mul i32 %4, 5
  ret i32 %5
}
}
"#,
        1,
    );
}

#[test]
fn merges_loops() {
    assert_merge_preserves(
        r#"
module "t" {
define @sum3(i32 %0) -> i32 {
bb0:
  br bb1
bb1:
  %1 = phi i32 [ 0, bb0 ], [ %4, bb2 ]
  %2 = phi i32 [ 0, bb0 ], [ %5, bb2 ]
  %3 = icmp slt i32 %2, %0
  condbr %3, bb2, bb3
bb2:
  %4 = add i32 %1, 3
  %5 = add i32 %2, 1
  br bb1
bb3:
  ret i32 %1
}
define @sum4(i32 %0) -> i32 {
bb0:
  br bb1
bb1:
  %1 = phi i32 [ 0, bb0 ], [ %4, bb2 ]
  %2 = phi i32 [ 0, bb0 ], [ %5, bb2 ]
  %3 = icmp slt i32 %2, %0
  condbr %3, bb2, bb3
bb2:
  %4 = add i32 %1, 4
  %5 = add i32 %2, 1
  br bb1
bb3:
  ret i32 %1
}
}
"#,
        1,
    );
}

#[test]
fn merges_with_mismatched_instruction_runs() {
    // Middle instructions differ in opcode: guard diamonds are required.
    assert_merge_preserves(
        r#"
module "t" {
define @f1(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %2 = mul i32 %1, 3
  %3 = shl i32 %2, 1
  %4 = sub i32 %3, %0
  %5 = xor i32 %4, 11
  ret i32 %5
}
define @f2(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %2 = udiv i32 %1, 3
  %3 = ashr i32 %2, 1
  %4 = sub i32 %3, %0
  %5 = xor i32 %4, 11
  ret i32 %5
}
}
"#,
        1,
    );
}

#[test]
fn merges_with_divergent_branch_targets() {
    // Same terminators but structurally different successors exercise the
    // dispatch-block machinery and cross-side dominance repair.
    assert_merge_preserves(
        r#"
module "t" {
define @g1(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  br bb1
bb1:
  %2 = mul i32 %1, %1
  %3 = add i32 %2, 5
  br bb2
bb2:
  %4 = add i32 %3, 7
  %5 = mul i32 %4, 3
  ret i32 %5
}
define @g2(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  br bb2
bb2:
  %4 = add i32 %1, 7
  %5 = mul i32 %4, 3
  ret i32 %5
}
}
"#,
        1,
    );
}

#[test]
fn merges_functions_calling_externals() {
    assert_merge_preserves(
        r#"
module "t" {
declare @ext_src_i64(i64) -> i64
declare @ext_sink_i64(i64) -> void
define @p1(i64 %0) -> i64 {
bb0:
  %1 = call i64 @ext_src_i64(i64 %0)
  %2 = add i64 %1, 17
  call void @ext_sink_i64(i64 %2)
  %3 = mul i64 %2, 3
  ret i64 %3
}
define @p2(i64 %0) -> i64 {
bb0:
  %1 = call i64 @ext_src_i64(i64 %0)
  %2 = add i64 %1, 23
  call void @ext_sink_i64(i64 %2)
  %3 = mul i64 %2, 3
  ret i64 %3
}
}
"#,
        1,
    );
}

#[test]
fn merges_functions_with_different_callees_via_select() {
    assert_merge_preserves(
        r#"
module "t" {
define @leaf_a(i64 %0) -> i64 {
bb0:
  %1 = add i64 %0, 100
  %2 = mul i64 %1, 3
  %3 = xor i64 %2, 5
  %4 = sub i64 %3, %0
  ret i64 %4
}
define @leaf_b(i64 %0) -> i64 {
bb0:
  %1 = add i64 %0, 200
  %2 = mul i64 %1, 3
  %3 = xor i64 %2, 5
  %4 = sub i64 %3, %0
  ret i64 %4
}
define @call_a(i64 %0) -> i64 {
bb0:
  %1 = mul i64 %0, 7
  %2 = call i64 @leaf_a(i64 %1)
  %3 = add i64 %2, 1
  ret i64 %3
}
define @call_b(i64 %0) -> i64 {
bb0:
  %1 = mul i64 %0, 7
  %2 = call i64 @leaf_b(i64 %1)
  %3 = add i64 %2, 1
  ret i64 %3
}
}
"#,
        2,
    );
}

#[test]
fn merges_memory_heavy_functions() {
    assert_merge_preserves(
        r#"
module "t" {
define @mem1(i64 %0) -> i32 {
bb0:
  %1 = alloca [8 x i32]
  %2 = trunc i64 %0 to i32
  %3 = gep i32, %1, i64 3
  store i32 %2, %3
  %4 = load i32, %3
  %5 = add i32 %4, 9
  ret i32 %5
}
define @mem2(i64 %0) -> i32 {
bb0:
  %1 = alloca [8 x i32]
  %2 = trunc i64 %0 to i32
  %3 = gep i32, %1, i64 5
  store i32 %2, %3
  %4 = load i32, %3
  %5 = add i32 %4, 11
  ret i32 %5
}
}
"#,
        1,
    );
}

#[test]
fn rejects_mismatched_return_types() {
    let m = parse_module(
        r#"
module "t" {
define @r32(i32 %0) -> i32 {
bb0:
  ret i32 %0
}
define @r64(i64 %0) -> i64 {
bb0:
  ret i64 %0
}
}
"#,
    )
    .unwrap();
    let ids = m.defined_functions();
    let plan = plan_blocks(&m, ids[0], ids[1]);
    let err = build_merged(&m, ids[0], ids[1], &plan, MergeConfig::default(), "x".into())
        .unwrap_err();
    assert_eq!(err, MergeError::IncompatibleReturnTypes);
}

#[test]
fn tiny_external_functions_are_not_merged() {
    // External one-instruction functions must keep their symbols, so the
    // fid dispatch + two thunks cost more than the shared `ret`.
    let mut m = parse_module(
        r#"
module "t" {
define @t1(i32 %0) -> i32 {
bb0:
  ret i32 %0
}
define @t2(i32 %0) -> i32 {
bb0:
  ret i32 %0
}
}
"#,
    )
    .unwrap();
    let report = run_pass(&mut m, &PassConfig::f3m());
    assert_eq!(report.stats.merges_committed, 0);
    assert_eq!(report.stats.size_before, report.stats.size_after);
}

#[test]
fn tiny_internal_functions_merge_and_originals_drop() {
    // The same pair with internal linkage: all call sites are redirected
    // and the originals disappear, so even a trivial merge is profitable.
    let m = assert_merge_preserves(
        r#"
module "t" {
define @t1(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 2
  ret i32 %1
}
define @t2(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 2
  ret i32 %1
}
}
"#,
        1,
    );
    let t1 = m.lookup_function("t1").unwrap();
    assert!(m.function(t1).is_declaration, "internal original dropped");
}

#[test]
fn merged_params_carry_both_sides_unshared_types() {
    let (mut m, drivers) = with_drivers(
        r#"
module "t" {
define @u1(i32 %0, i64 %1) -> i32 {
bb0:
  %2 = trunc i64 %1 to i32
  %3 = add i32 %0, %2
  %4 = mul i32 %3, 3
  %5 = xor i32 %4, 21
  ret i32 %5
}
define @u2(i32 %0, f64 %1) -> i32 {
bb0:
  %2 = fptosi f64 %1 to i32
  %3 = add i32 %0, %2
  %4 = mul i32 %3, 3
  %5 = xor i32 %4, 21
  ret i32 %5
}
}
"#,
    );
    let before: Vec<Behaviour> = drivers.iter().map(|n| behaviour_of(&m, n)).collect();
    let report = run_pass(&mut m, &PassConfig::f3m());
    assert_eq!(report.stats.merges_committed, 1, "{:#?}", report.attempts);
    verify_module(&m).unwrap();
    for (n, old) in drivers.iter().zip(before.iter()) {
        assert_eq!(&behaviour_of(&m, n), old, "@{n}");
    }
    // The merged function must carry both the i64 and the f64 param.
    let merged = m
        .functions()
        .find(|(_, f)| f.name.starts_with("__merged"))
        .expect("merged function added");
    assert_eq!(merged.1.params.len(), 4, "fid + shared i32 + i64 + f64");
}

#[test]
fn legacy_repair_mode_reproduces_hyfm_miscompile() {
    // Section III-E bug #1: a value defined in a guarded (side-only) block,
    // used both inside its block and in a later shared block. The legacy
    // repair stores it at the end of its block while rewriting the
    // same-block use to a load, which then reads a stale slot.
    // @v1's bb1 computes %2 and uses it *in the same block* (%3 = %2 + %1);
    // both %2 and %3 are also used by the shared tail block, so both get
    // demoted when merged with @v2 (whose CFG skips bb1). Legacy placement
    // stores %2 at the end of bb1, after %3's use was rewritten to a load —
    // so %3 reads the uninitialized slot.
    let src = r#"
module "t" {
define @v1(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  br bb1
bb1:
  %2 = mul i32 %1, %1
  %3 = add i32 %2, %1
  br bb2
bb2:
  %4 = add i32 %2, %3
  %5 = mul i32 %4, 3
  %6 = xor i32 %5, 9
  ret i32 %6
}
define @v2(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  br bb2
bb2:
  %4 = add i32 %1, %1
  %5 = mul i32 %4, 3
  %6 = xor i32 %5, 9
  ret i32 %6
}
}
"#;
    // Build the merged function under each repair mode and call it
    // directly with fid = false (acting as @v1), comparing against the
    // original's behaviour — profitability does not gate this check.
    let merged_behaviour = |mode: RepairMode| -> (Behaviour, bool) {
        let mut m = parse_module(src).unwrap();
        let ids = m.defined_functions();
        let plan = plan_blocks(&m, ids[0], ids[1]);
        let mf =
            build_merged(&m, ids[0], ids[1], &plan, MergeConfig { repair: mode }, "mm".into())
                .unwrap();
        assert!(mf.demotions > 0, "this shape must trigger dominance repair");
        let param_slot = mf.param_map1[0];
        let merged = m.add_function(mf.func);
        let verify_ok = f3m_ir::verify::verify_function(&m, merged).is_ok();
        let behaviour = TEST_INPUTS
            .iter()
            .map(|&x| {
                let mut interp = Interpreter::with_limits(
                    &m,
                    Limits { fuel: 1_000_000, memory: 1 << 20, max_depth: 64 },
                );
                let mut args = vec![Val::Int(0); param_slot + 1];
                args[0] = Val::Int(0); // fid = false -> act as @v1
                args[param_slot] = Val::Int(x);
                interp.call(merged, &args).map(|o| (o.ret, o.checksum))
            })
            .collect();
        (behaviour, verify_ok)
    };

    let m0 = parse_module(src).unwrap();
    let original = behaviour_of(&m0, "v1");

    let (phi_b, phi_ok) = merged_behaviour(RepairMode::Phi);
    assert!(phi_ok);
    assert_eq!(phi_b, original, "phi reconstruction must preserve @v1");

    let (stack_b, stack_ok) = merged_behaviour(RepairMode::Stack);
    assert!(stack_ok);
    assert_eq!(stack_b, original, "fixed stack demotion must preserve @v1");

    // Legacy mode: still valid SSA — the bug is a silent miscompile, not a
    // verifier failure (which is why it went unnoticed in HyFM).
    let (legacy_b, legacy_ok) = merged_behaviour(RepairMode::LegacyBuggy);
    assert!(legacy_ok);
    assert_ne!(legacy_b, original, "legacy store placement must miscompile @v1");
}

#[test]
fn thunk_construction_is_well_typed() {
    let mut m = parse_module(
        r#"
module "t" {
define @orig(i32 %0, i64 %1) -> i32 {
bb0:
  %2 = trunc i64 %1 to i32
  %3 = add i32 %0, %2
  ret i32 %3
}
}
"#,
    )
    .unwrap();
    let orig = m.lookup_function("orig").unwrap();
    // Build a fake "merged" target with the fid + same params.
    let merged_src = {
        let mut scratch = f3m_ir::types::TypeStore::new();
        let b = scratch.bool();
        let i32t = scratch.int(32);
        let i64t = scratch.int(64);
        let mut f = f3m_ir::function::Function::new("m", vec![b, i32t, i64t], i32t);
        let bb = f.add_block();
        let arg = f.arg(1);
        f.append_inst(
            bb,
            f3m_ir::inst::Instruction::new(f3m_ir::inst::Opcode::Ret, scratch.void(), &[arg], &[]),
        );
        f
    };
    let merged = m.add_function(merged_src);
    let thunk = build_thunk(&m, orig, merged, false, &[1, 2]);
    assert_eq!(thunk.name, "orig");
    assert_eq!(thunk.params.len(), 2);
    // Swap in and verify.
    m.replace_function(orig, thunk);
    verify_module(&m).unwrap();
}

#[test]
fn merged_module_of_many_variants_passes_differential_grid() {
    // Six variants of the same function with distinct constants; the pass
    // should find several profitable merges and preserve all behaviours.
    let mut src = String::from("module \"t\" {\n");
    for (i, c) in [3i64, 5, 7, 11, 13, 17].iter().enumerate() {
        src.push_str(&format!(
            r#"define @w{i}(i32 %0) -> i32 {{
bb0:
  %1 = mul i32 %0, {c}
  %2 = add i32 %1, {c}
  %3 = xor i32 %2, 77
  %4 = sub i32 %3, %0
  %5 = shl i32 %4, 1
  %6 = add i32 %5, %1
  ret i32 %6
}}
"#
        ));
    }
    src.push_str("}\n");
    let (mut m, drivers) = with_drivers(&src);
    let before: Vec<Behaviour> = drivers.iter().map(|n| behaviour_of(&m, n)).collect();
    let report = run_pass(&mut m, &PassConfig::f3m());
    assert!(report.stats.merges_committed >= 2, "{:#?}", report.stats);
    verify_module(&m).unwrap();
    for (n, old) in drivers.iter().zip(before.iter()) {
        assert_eq!(&behaviour_of(&m, n), old, "@{n}");
    }
    assert!(report.stats.size_reduction() > 0.0);
}
