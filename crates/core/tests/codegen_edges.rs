//! Edge-case tests of the merged-function code generator: invoke
//! terminators, parameter-list merging, guard accounting, and attempt
//! bookkeeping.

use f3m_core::block_pairing::plan_blocks;
use f3m_core::codegen::{build_merged, build_thunk, MergeConfig};
use f3m_core::pass::{run_pass, PassConfig};
use f3m_interp::{Interpreter, Limits, Val};
use f3m_ir::function::Function;
use f3m_ir::inst::Opcode;
use f3m_ir::parser::parse_module;
use f3m_ir::value::{Value, ValueKind};
use f3m_ir::verify::verify_function;

/// Argument `i` is the value of kind `Arg(i)` with the `i`-th parameter's
/// type, and no other argument's id.
fn assert_args_by_position(f: &Function) {
    assert_eq!(f.num_args(), f.params.len(), "@{}", f.name);
    for i in 0..f.num_args() {
        let want = Value { kind: ValueKind::Arg(i as u32), ty: f.params[i] };
        assert_eq!(f.value(f.arg(i)), want, "@{} arg {i}", f.name);
        assert!((0..i).all(|j| f.arg(j) != f.arg(i)), "@{} arg {i}", f.name);
    }
}

#[test]
fn merges_functions_with_invokes() {
    let m = parse_module(
        r#"
module "t" {
declare @ext_src_i32(i32) -> i32
define @i1f(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 3
  %2 = invoke i32 @ext_src_i32(i32 %1) to bb1 unwind bb2
bb1:
  %3 = mul i32 %2, 5
  ret i32 %3
bb2:
  ret i32 -1
}
define @i2f(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 4
  %2 = invoke i32 @ext_src_i32(i32 %1) to bb1 unwind bb2
bb1:
  %3 = mul i32 %2, 5
  ret i32 %3
bb2:
  ret i32 -1
}
}
"#,
    )
    .unwrap();
    let ids = m.defined_functions();
    let plan = plan_blocks(&m, ids[0], ids[1]);
    assert!(plan.pairs.len() >= 2, "{plan:?}");
    let mf = build_merged(&m, ids[0], ids[1], &plan, MergeConfig::default(), "mm".into())
        .unwrap();
    assert!(mf.selects_inserted >= 1, "the +3/+4 constant needs a select");
    let mut m = m;
    let param_slot = mf.param_map1[0];
    let merged = m.add_function(mf.func);
    verify_function(&m, merged).unwrap();
    // Differential on both sides.
    for (fid, orig_idx) in [(0i64, 0usize), (1, 1)] {
        for x in [-3i64, 0, 9] {
            let mut i = Interpreter::new(&m);
            let orig = i.call(ids[orig_idx], &[Val::Int(x)]).unwrap();
            let mut args = vec![Val::Int(0); 2];
            args[0] = Val::Int(fid);
            args[param_slot] = Val::Int(x);
            let mut i2 = Interpreter::new(&m);
            let merged_out = i2.call(merged, &args).unwrap();
            assert_eq!(orig.ret, merged_out.ret, "fid={fid} x={x}");
        }
    }
}

#[test]
fn param_merging_shares_compatible_slots() {
    let m = parse_module(
        r#"
module "t" {
define @p1(i32 %0, i32 %1, f64 %2) -> i32 {
bb0:
  %3 = add i32 %0, %1
  ret i32 %3
}
define @p2(i32 %0, f64 %1) -> i32 {
bb0:
  %2 = add i32 %0, %0
  ret i32 %2
}
}
"#,
    )
    .unwrap();
    let ids = m.defined_functions();
    let plan = plan_blocks(&m, ids[0], ids[1]);
    let mf =
        build_merged(&m, ids[0], ids[1], &plan, MergeConfig::default(), "mm".into()).unwrap();
    // fid + (i32, i32, f64) with p2's (i32, f64) sharing slots.
    assert_eq!(mf.func.params.len(), 4, "all of p2's params fit in p1's slots");
    assert_eq!(mf.param_map1, vec![1, 2, 3]);
    assert_eq!(mf.param_map2[0], 1, "first i32 shared");
    assert_eq!(mf.param_map2[1], 3, "f64 shared");
    // The merged function and both thunks hold their arguments by position.
    assert_args_by_position(&mf.func);
    let mut m = m;
    let merged = m.add_function(mf.func);
    for (orig, fid, map) in [(ids[0], false, &mf.param_map1), (ids[1], true, &mf.param_map2)] {
        let thunk = build_thunk(&m, orig, merged, fid, map);
        assert_eq!(thunk.params, m.function(orig).params);
        assert_args_by_position(&thunk);
    }
}

#[test]
fn param_merging_appends_unshared_types() {
    let m = parse_module(
        r#"
module "t" {
define @q1(i32 %0) -> i32 {
bb0:
  ret i32 %0
}
define @q2(i64 %0) -> i32 {
bb0:
  %1 = trunc i64 %0 to i32
  ret i32 %1
}
}
"#,
    )
    .unwrap();
    let ids = m.defined_functions();
    let plan = plan_blocks(&m, ids[0], ids[1]);
    let mf =
        build_merged(&m, ids[0], ids[1], &plan, MergeConfig::default(), "mm".into()).unwrap();
    assert_eq!(mf.func.params.len(), 3, "fid + i32 + i64 (nothing shared)");
}

#[test]
fn attempt_records_track_similarity_ordering() {
    // A module with one very similar pair and one dissimilar singleton:
    // the pair's attempt must carry higher similarity than any attempt
    // involving the singleton.
    let mut m = parse_module(
        r#"
module "t" {
define @s1(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %2 = mul i32 %1, 3
  %3 = xor i32 %2, 9
  %4 = sub i32 %3, %0
  %5 = shl i32 %4, 1
  %6 = or i32 %5, 1
  %7 = and i32 %6, 255
  %8 = add i32 %7, %1
  %9 = xor i32 %8, %0
  %10 = or i32 %9, 3
  ret i32 %10
}
define @s2(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %2 = mul i32 %1, 3
  %3 = xor i32 %2, 9
  %4 = sub i32 %3, %0
  %5 = shl i32 %4, 1
  %6 = or i32 %5, 1
  %7 = and i32 %6, 255
  %8 = add i32 %7, %1
  %9 = xor i32 %8, %0
  %10 = or i32 %9, 3
  ret i32 %10
}
define @other(f64 %0) -> f64 {
bb0:
  %1 = fmul f64 %0, %0
  %2 = fadd f64 %1, %0
  %3 = fsub f64 %2, 0f3FF0000000000000
  ret f64 %3
}
}
"#,
    )
    .unwrap();
    let report = run_pass(&mut m, &PassConfig::f3m());
    let committed: Vec<_> = report.attempts.iter().filter(|a| a.committed).collect();
    assert_eq!(committed.len(), 1);
    assert!(committed[0].similarity > 0.99, "{:?}", committed[0]);
    assert_eq!(committed[0].align_ratio, 1.0);
}

#[test]
fn unreachable_original_blocks_are_tolerated() {
    // Unreachable code in an input function must not derail merging.
    let m = parse_module(
        r#"
module "t" {
define @u1(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 5
  ret i32 %1
bb1:
  unreachable
}
define @u2(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 5
  ret i32 %1
bb1:
  unreachable
}
}
"#,
    )
    .unwrap();
    let ids = m.defined_functions();
    let plan = plan_blocks(&m, ids[0], ids[1]);
    let mf =
        build_merged(&m, ids[0], ids[1], &plan, MergeConfig::default(), "mm".into()).unwrap();
    let mut m = m;
    let merged = m.add_function(mf.func);
    verify_function(&m, merged).unwrap();
}

#[test]
fn merged_function_reports_guard_statistics() {
    let differ = r#"
module "t" {
define @g1(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 10
  %2 = mul i32 %1, 20
  ret i32 %2
}
define @g2(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 11
  %2 = mul i32 %1, 22
  ret i32 %2
}
}
"#;
    // The same constant repeats in matched slots, phi incomings included;
    // only the last `xor` differs.
    let repeat = r#"
module "t" {
define @k1(i32 %0, i1 %1) -> i32 {
bb0:
  %2 = add i32 %0, 10
  condbr %1, bb1, bb2
bb1:
  %3 = mul i32 %2, 10
  br bb2
bb2:
  %4 = phi i32 [ 10, bb0 ], [ %3, bb1 ]
  %5 = xor i32 %4, 10
  ret i32 %5
}
define @k2(i32 %0, i1 %1) -> i32 {
bb0:
  %2 = add i32 %0, 10
  condbr %1, bb1, bb2
bb1:
  %3 = mul i32 %2, 10
  br bb2
bb2:
  %4 = phi i32 [ 10, bb0 ], [ %3, bb1 ]
  %5 = xor i32 %4, 11
  ret i32 %5
}
}
"#;
    for (src, selects) in [(differ, 2), (repeat, 1)] {
        let m = parse_module(src).unwrap();
        let ids = m.defined_functions();
        let plan = plan_blocks(&m, ids[0], ids[1]);
        let mf =
            build_merged(&m, ids[0], ids[1], &plan, MergeConfig::default(), "mm".into()).unwrap();
        assert_eq!(mf.selects_inserted, selects, "one select a differing constant");
        assert_eq!(mf.demotions, 0, "the merge needs no repair");
        let f = &mf.func;
        for (_, inst) in f.linked_insts().filter(|(_, i)| i.op == Opcode::Select) {
            let (v1, v2) = (f.value(inst.operands[1]), f.value(inst.operands[2]));
            assert!(v1 != v2 || !v1.is_constant_like(), "select between equal constants");
        }
    }
}

#[test]
fn interpreting_merged_functions_counts_guard_overhead() {
    // The merged body executes strictly more instructions than either
    // original (selects + dispatch) — the Fig. 17 effect in miniature.
    let m = parse_module(
        r#"
module "t" {
define @h1(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 10
  %2 = mul i32 %1, 20
  %3 = xor i32 %2, 7
  ret i32 %3
}
define @h2(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 11
  %2 = mul i32 %1, 20
  %3 = xor i32 %2, 9
  ret i32 %3
}
}
"#,
    )
    .unwrap();
    let ids = m.defined_functions();
    let plan = plan_blocks(&m, ids[0], ids[1]);
    let mf =
        build_merged(&m, ids[0], ids[1], &plan, MergeConfig::default(), "mm".into()).unwrap();
    let param_slot = mf.param_map1[0];
    let mut m = m;
    let merged = m.add_function(mf.func);
    let mut i = Interpreter::new(&m);
    let orig_steps = i.call(ids[0], &[Val::Int(5)]).unwrap().steps;
    let mut args = vec![Val::Int(0); 2];
    args[param_slot] = Val::Int(5);
    let merged_steps = i.call(merged, &args).unwrap().steps;
    assert!(
        merged_steps > orig_steps,
        "guards cost dynamic instructions: {merged_steps} vs {orig_steps}"
    );
    let limits = Limits::default();
    let _ = limits;
}
