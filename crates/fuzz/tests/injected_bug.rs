//! The oracle's own end-to-end self-test: a deliberately buggy merge step
//! (every integer comparison inside merged functions gets its predicate
//! negated) must be caught by the differential oracle, and the reducer
//! must shrink the reproducer to a handful of functions.

use f3m_core::pass::{run_pass, PassConfig};
use f3m_fuzz::campaign::{run_campaign_with, CampaignConfig};
use f3m_fuzz::oracle::{OracleConfig, StrategyKind};
use f3m_ir::inst::{IntPredicate, Opcode, Predicate};
use f3m_ir::module::Module;

fn negate(p: IntPredicate) -> IntPredicate {
    match p {
        IntPredicate::Eq => IntPredicate::Ne,
        IntPredicate::Ne => IntPredicate::Eq,
        IntPredicate::Ugt => IntPredicate::Ule,
        IntPredicate::Uge => IntPredicate::Ult,
        IntPredicate::Ult => IntPredicate::Uge,
        IntPredicate::Ule => IntPredicate::Ugt,
        IntPredicate::Sgt => IntPredicate::Sle,
        IntPredicate::Sge => IntPredicate::Slt,
        IntPredicate::Slt => IntPredicate::Sge,
        IntPredicate::Sle => IntPredicate::Sgt,
    }
}

/// The real pass followed by an injected codegen bug: negate every icmp
/// predicate inside freshly created merged functions (this corrupts both
/// the discriminator guards and any compares that were part of the
/// originals' bodies).
fn buggy_merge(m: &mut Module, cfg: &PassConfig) {
    run_pass(m, cfg);
    for fid in m.defined_functions() {
        if !m.function(fid).name.starts_with("__merged") {
            continue;
        }
        let f = m.function_mut(fid);
        let cmps: Vec<_> = f
            .linked_insts()
            .filter(|(_, i)| i.op == Opcode::ICmp)
            .map(|(id, _)| id)
            .collect();
        for id in cmps {
            if let Some(Predicate::Int(p)) = f.inst(id).pred {
                f.set_pred(id, Some(Predicate::Int(negate(p))));
            }
        }
    }
}

#[test]
fn injected_codegen_bug_is_caught_and_reduced() {
    let corpus = std::env::temp_dir().join(format!("f3m-fuzz-selftest-{}", std::process::id()));
    // Debug builds interpret ~20x slower; three iterations still catch the
    // injected bug on this seed and keep `cargo test` under control.
    let iterations = if cfg!(debug_assertions) { 3 } else { 6 };
    let cfg = CampaignConfig {
        iterations,
        seed: 0x0BAD_C0DE,
        corpus_dir: Some(corpus.clone()),
        oracle: OracleConfig {
            strategies: vec![StrategyKind::F3m],
            jobs_levels: vec![1],
            // One driver argument keeps the reducer's many predicate
            // evaluations cheap; negated guards diverge on almost any input.
            args: vec![17],
            ..OracleConfig::default()
        },
        ..CampaignConfig::default()
    };
    let summary = run_campaign_with(&cfg, buggy_merge);
    assert!(
        summary.failures.iter().all(|f| f.kind != "mutator-invalid"),
        "mutators must stay valid regardless of the merge step: {:?}",
        summary.failures
    );
    let diffs: Vec<_> =
        summary.failures.iter().filter(|f| f.kind == "differential").collect();
    assert!(
        !diffs.is_empty(),
        "injected predicate bug was never caught in {} iterations",
        cfg.iterations
    );
    let best = diffs.iter().min_by_key(|f| f.functions_after).unwrap();
    assert!(
        best.functions_after <= 10,
        "reducer left {} functions (from {})",
        best.functions_after,
        best.functions_before
    );
    assert!(
        best.insts_after < best.insts_before,
        "reducer made no instruction-level progress: {} -> {}",
        best.insts_before,
        best.insts_after
    );
    // The reproducer and its metadata were written and replay cleanly.
    let artifact = best.artifact.as_ref().expect("corpus dir was configured");
    let text = std::fs::read_to_string(artifact).expect("reproducer written");
    let reduced = f3m_ir::parser::parse_module(&text).expect("reproducer parses");
    f3m_ir::verify::verify_module(&reduced).expect("reproducer verifies");
    let meta = std::fs::read_to_string(artifact.replace(".ir", ".meta.json"))
        .expect("metadata written");
    assert!(meta.contains("\"kind\": \"differential\""), "{meta}");
    let outcome = f3m_fuzz::check_module_with(
        &reduced,
        &cfg.oracle.narrowed(StrategyKind::F3m, 1),
        buggy_merge,
    );
    assert!(
        outcome.failure.is_some(),
        "written reproducer no longer reproduces the injected bug"
    );
    let _ = std::fs::remove_dir_all(&corpus);
}
