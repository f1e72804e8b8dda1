//! The merged-size lower bound against the build it stands in for.
//!
//! `Committer::try_commit` turns a pair down as `Reject::Size` without
//! generating code when the layout's byte count plus the surviving thunks
//! already reaches the pair's current size. That is only the parent's
//! decision if the count never exceeds `function_size` of the function the
//! builder would have produced — and it saves the most when it is exact.
//! Both are checked here on every pair the pass attempts, replayed in
//! commit order so each is seen with the bodies its attempt saw (an earlier
//! commit may have redirected call sites inside either function).

use f3m_core::block_pairing::plan_blocks;
use f3m_core::codegen::{build_merged, MergeConfig, RepairMode};
use f3m_core::commit::{Committer, Reject, Verdict};
use f3m_core::pass::{run_pass, PassConfig};
use f3m_ir::module::Module;
use f3m_ir::size::function_size;
use f3m_workloads::{build_module, mini_suite, table1, SizeClass, WorkloadSpec};

/// Size of a thunk (`commit::tests` pins it to `build_thunk`'s output).
const THUNK: u64 = 18;

/// What one replay saw.
#[derive(Default)]
struct Tally {
    /// Pairs built and compared.
    pairs: u64,
    /// Of those, builds that added nothing to the layout, where the bound
    /// must be the size.
    exact: u64,
    /// Of the rest, builds that dominance repair grew.
    repaired: u64,
    /// `commits_bounded` of the pass run.
    bounded: u64,
    /// `commits_rejected_size` of the pass run.
    size_rejects: u64,
}

/// Runs the pass over `pristine` under `config`, then replays its attempt
/// log on a second copy: each pair is built from the bodies its attempt
/// saw, measured against the layout's count, and handed to the committer
/// so the next pair sees what this one left.
fn replay(pristine: &Module, config: &PassConfig, what: &str, tally: &mut Tally) {
    let mut merged = pristine.clone();
    let report = run_pass(&mut merged, config);
    let s = &report.stats;
    assert!(s.commits_bounded <= s.commits_rejected_size, "{what}");
    tally.bounded += s.commits_bounded;
    tally.size_rejects += s.commits_rejected_size;

    let mut m = pristine.clone();
    let mut committer = Committer::build(&m, 1);
    for a in &report.attempts {
        let plan = plan_blocks(&m, a.f1, a.f2);
        let pair = format!("{what}: @{} + @{}", m.function(a.f1).name, m.function(a.f2).name);
        let before = function_size(m.function(a.f1)) + function_size(m.function(a.f2));
        let built = build_merged(&m, a.f1, a.f2, &plan, config.merge, "__probe".into());
        let (verdict, _) = committer.attempt(&mut m, a.f1, a.f2, &plan, config.merge);
        assert_eq!(matches!(verdict, Verdict::Committed { .. }), a.committed, "{pair}");
        let Ok(mf) = built else {
            // Unbuildable — the return types differ, or stack repair does
            // not converge — so never committed: the gate says so, or the
            // build, or a layout already too big before repair was tried.
            assert!(!a.committed, "{pair}: {verdict:?}");
            continue;
        };
        let size = function_size(&mf.func);
        assert!(mf.layout_size <= size, "{pair}: bound {} > built {size}", mf.layout_size);
        assert!(mf.operand_selects <= mf.selects_inserted, "{pair}");
        tally.pairs += 1;
        if mf.selects_inserted == mf.operand_selects && mf.demotions == 0 {
            assert_eq!(mf.layout_size, size, "{pair}: nothing added, yet the bound is loose");
            tally.exact += 1;
        } else if mf.demotions > 0 {
            tally.repaired += 1;
        }
        match verdict {
            // The commit measured this build: the merged body plus what
            // now stands where the originals stood (a thunk or nothing).
            Verdict::Committed { saved } => {
                let left = function_size(m.function(a.f1)) + function_size(m.function(a.f2));
                assert_eq!(saved, before as i64 - (size + left) as i64, "{pair}");
            }
            // Whether each original keeps a thunk is the committer's to
            // know; with both kept the pair must still not have paid.
            Verdict::Rejected(Reject::Size) => assert!(size + 2 * THUNK >= before, "{pair}"),
            _ => {}
        }
    }
    assert_eq!(
        f3m_ir::printer::print_module(&m),
        f3m_ir::printer::print_module(&merged),
        "{what}: the replay is the pass"
    );
}

fn strategies() -> [PassConfig; 3] {
    [PassConfig::hyfm(), PassConfig::f3m(), PassConfig::f3m_adaptive()]
}

const REPAIRS: [RepairMode; 3] = [RepairMode::Phi, RepairMode::Stack, RepairMode::LegacyBuggy];

fn sweep(specs: &[WorkloadSpec]) -> Tally {
    let mut tally = Tally::default();
    for spec in specs {
        let pristine = build_module(spec);
        for (config, name) in strategies().into_iter().zip(PassConfig::STRATEGY_NAMES) {
            for repair in REPAIRS {
                let config = PassConfig { merge: MergeConfig { repair }, ..config.clone() };
                let what = format!("{} seed {} {name} {repair:?}", spec.name, spec.seed);
                replay(&pristine, &config, &what, &mut tally);
            }
        }
    }
    tally
}

#[test]
fn bound_never_exceeds_the_built_size_and_is_exact_without_phi_selects_or_repair() {
    let tally = sweep(&mini_suite());
    assert!(tally.pairs > 0 && tally.exact > 0 && tally.repaired > 0);
    assert!(tally.exact < tally.pairs, "some build must add to its layout");
    assert!(0 < tally.bounded && tally.bounded < tally.size_rejects);
}

/// Table I small-class shapes under fresh seeds: two quarter-scale rows in
/// a debug build, every row at full size under two seeds in release (CI's
/// "Profit bound exactness" step).
#[test]
fn bound_holds_on_seeded_small_class_modules() {
    let small = table1().into_iter().filter(|s| s.class == SizeClass::Small);
    let specs: Vec<WorkloadSpec> = if cfg!(debug_assertions) {
        small.take(2).map(|s| WorkloadSpec { seed: s.seed + 1000, ..s.scaled(0.25) }).collect()
    } else {
        small
            .flat_map(|s| {
                [1000, 2000].map(|bump| WorkloadSpec { seed: s.seed + bump, ..s.clone() })
            })
            .collect()
    };
    let tally = sweep(&specs);
    assert!(tally.pairs > 0 && tally.exact > 0);
    assert!(tally.bounded > 0);
}
