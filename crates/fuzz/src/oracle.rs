//! The merge oracle: decides whether one module survives merging intact.
//!
//! Three checks per (strategy, jobs) cell, in order:
//!
//! 1. **Verifier**: the merged module must pass `verify_module`.
//! 2. **Round-trip**: printing the merged module must be a fixpoint under
//!    reparse (`print(parse(print(m))) == print(m)`).
//! 3. **Differential**: for each driver argument, the merged module must
//!    observe identically to the base module — same return value (floats
//!    compared bit-for-bit), same `ext_sink` checksum, or the same trap
//!    class. Cells where either side hits a resource limit are skipped,
//!    not failed: merging legitimately changes fuel/memory/depth use.
//!
//! A fourth cross-cell check catches scheduling bugs: within one strategy,
//! every `--jobs` level must print the identical merged module
//! (**jobs-divergence**), since `--jobs` parallelizes only the preprocess
//! and the merge loop is serial.
//!
//! A fifth, once per strategy, guards the shortcut the commit path takes:
//! it turns a pair down unbuilt when the merged function's layout already
//! counts too many bytes, which is only sound if that count never exceeds
//! what a build would measure (**size-bound**).

use f3m_core::block_pairing::plan_blocks;
use f3m_core::codegen::build_merged;
use f3m_core::commit::Committer;
use f3m_core::pass::{run_pass, PassConfig};
use f3m_interp::oracle::{observe, Observation};
use f3m_interp::{Limits, Val};
use f3m_ir::module::Module;
use f3m_ir::parser::check_print_fixpoint;
use f3m_ir::printer::print_module;
use f3m_ir::size::function_size;
use f3m_ir::verify::verify_module;

/// Candidate-selection strategies the oracle exercises, declared in
/// [`PassConfig::STRATEGY_NAMES`] order (the discriminant indexes it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrategyKind {
    /// HyFM opcode-frequency baseline.
    Hyfm,
    /// F3M with static MinHash parameters.
    F3m,
    /// F3M with size-adaptive parameters (Eqs. 3–4).
    Adaptive,
}

impl StrategyKind {
    /// Every strategy, in reporting order.
    pub const ALL: [StrategyKind; 3] =
        [StrategyKind::Hyfm, StrategyKind::F3m, StrategyKind::Adaptive];

    /// Stable name used in failure records and corpus metadata: the
    /// pass's canonical strategy name.
    pub fn name(self) -> &'static str {
        PassConfig::STRATEGY_NAMES[self as usize]
    }

    /// The pass configuration for this strategy at a worker count.
    pub fn config(self, jobs: usize) -> PassConfig {
        PassConfig::from_strategy_name(self.name()).expect("canonical name").with_jobs(jobs)
    }
}

/// What the oracle runs per module.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Entry point called for the differential check.
    pub driver: String,
    /// Arguments fed to the driver, one observation each.
    pub args: Vec<i64>,
    /// Execution limits for every observation.
    pub limits: Limits,
    /// Strategies to exercise.
    pub strategies: Vec<StrategyKind>,
    /// Worker counts per strategy; all must produce identical output.
    pub jobs_levels: Vec<usize>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            driver: "__driver".to_string(),
            args: vec![1, -9, 4242],
            limits: Limits::default(),
            strategies: StrategyKind::ALL.to_vec(),
            jobs_levels: vec![1, 8],
        }
    }
}

impl OracleConfig {
    /// Narrows the oracle to a single (strategy, jobs) cell — the shape the
    /// reducer uses so every probe re-checks only the failing
    /// configuration.
    pub fn narrowed(&self, strategy: StrategyKind, jobs: usize) -> OracleConfig {
        OracleConfig {
            strategies: vec![strategy],
            jobs_levels: vec![jobs],
            ..self.clone()
        }
    }
}

/// Which oracle check failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The merged module does not verify.
    MergedInvalid,
    /// Base and merged modules observed differently.
    Differential,
    /// The merged module's printed form is not a reparse fixpoint.
    RoundTrip,
    /// Two worker counts produced different merged modules.
    JobsDivergence,
    /// The merged-size lower bound exceeded the size of the function it
    /// bounds, or missed it where nothing was added to the layout.
    SizeBound,
}

impl FailureKind {
    /// Stable name used in JSON summaries and corpus metadata.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::MergedInvalid => "merged-invalid",
            FailureKind::Differential => "differential",
            FailureKind::RoundTrip => "round-trip",
            FailureKind::JobsDivergence => "jobs-divergence",
            FailureKind::SizeBound => "size-bound",
        }
    }
}

/// A concrete oracle failure: what broke, where, and how.
#[derive(Clone, Debug)]
pub struct OracleFailure {
    /// The check that failed.
    pub kind: FailureKind,
    /// Strategy under which it failed.
    pub strategy: StrategyKind,
    /// Worker count under which it failed.
    pub jobs: usize,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

/// Result of running the oracle over one module.
#[derive(Clone, Debug, Default)]
pub struct OracleOutcome {
    /// The first failure found, if any.
    pub failure: Option<OracleFailure>,
    /// Differential cells skipped because either side hit a resource limit.
    pub resource_skips: usize,
}

/// Runs the full oracle with the production merge pass.
pub fn check_module(base: &Module, oc: &OracleConfig) -> OracleOutcome {
    check_module_with(base, oc, |m, cfg| {
        run_pass(m, cfg);
    })
}

/// Replays the pairs the production pass attempts on `base` under `config`,
/// in commit order so each is seen with the bodies its attempt saw, and
/// holds the layout's byte count against a build of each pair: never above
/// the built function's size, and equal to it when the build added no
/// phi-edge select and repaired nothing.
fn check_size_bound(base: &Module, config: &PassConfig) -> Result<(), String> {
    let report = run_pass(&mut base.clone(), config);
    let mut m = base.clone();
    let mut committer = Committer::build(&m, 1);
    for a in &report.attempts {
        let plan = plan_blocks(&m, a.f1, a.f2);
        if let Ok(mf) = build_merged(&m, a.f1, a.f2, &plan, config.merge, "__bound".into()) {
            let size = function_size(&mf.func);
            let added = mf.selects_inserted != mf.operand_selects || mf.demotions > 0;
            if mf.layout_size > size || (!added && mf.layout_size != size) {
                return Err(format!(
                    "@{} + @{}: the layout counts {} bytes, the build measures {size} \
                     ({} of {} selects on operands, {} values repaired)",
                    m.function(a.f1).name,
                    m.function(a.f2).name,
                    mf.layout_size,
                    mf.operand_selects,
                    mf.selects_inserted,
                    mf.demotions
                ));
            }
        }
        committer.attempt(&mut m, a.f1, a.f2, &plan, config.merge);
    }
    Ok(())
}

/// Runs the oracle with an injectable merge step. The campaign's
/// self-test threads a deliberately buggy merge through here to prove the
/// oracle catches real codegen bugs.
pub fn check_module_with<F: Fn(&mut Module, &PassConfig)>(
    base: &Module,
    oc: &OracleConfig,
    merge: F,
) -> OracleOutcome {
    let mut outcome = OracleOutcome::default();
    let baseline: Vec<Observation> = oc
        .args
        .iter()
        .map(|&a| observe(base, &oc.driver, &[Val::Int(a)], oc.limits))
        .collect();
    for &strategy in &oc.strategies {
        if let Err(detail) = check_size_bound(base, &strategy.config(1)) {
            let kind = FailureKind::SizeBound;
            outcome.failure = Some(OracleFailure { kind, strategy, jobs: 1, detail });
            return outcome;
        }
        let mut printed_per_jobs: Vec<(usize, String)> = Vec::new();
        for &jobs in &oc.jobs_levels {
            let fail = |kind, detail| OracleFailure { kind, strategy, jobs, detail };
            let mut m = base.clone();
            merge(&mut m, &strategy.config(jobs));
            if let Err(errs) = verify_module(&m) {
                outcome.failure =
                    Some(fail(FailureKind::MergedInvalid, format!("{:?}", errs[0])));
                return outcome;
            }
            let p1 = print_module(&m);
            if let Err(detail) = check_print_fixpoint(&p1) {
                outcome.failure = Some(fail(FailureKind::RoundTrip, detail));
                return outcome;
            }
            for (i, base_obs) in baseline.iter().enumerate() {
                let merged_obs = observe(&m, &oc.driver, &[Val::Int(oc.args[i])], oc.limits);
                let Some(agree) = base_obs.agrees(&merged_obs) else {
                    outcome.resource_skips += 1;
                    continue;
                };
                if !agree {
                    outcome.failure = Some(fail(
                        FailureKind::Differential,
                        format!(
                            "driver({}) base {:?} vs merged {:?}",
                            oc.args[i], base_obs, merged_obs
                        ),
                    ));
                    return outcome;
                }
            }
            printed_per_jobs.push((jobs, p1));
        }
        if let Some((j0, p0)) = printed_per_jobs.first() {
            for (j, p) in &printed_per_jobs[1..] {
                if p != p0 {
                    outcome.failure = Some(OracleFailure {
                        kind: FailureKind::JobsDivergence,
                        strategy,
                        jobs: *j,
                        detail: format!("merged module differs between --jobs {j0} and {j}"),
                    });
                    return outcome;
                }
            }
        }
    }
    outcome
}
