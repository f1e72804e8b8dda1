//! Cross-module fuzzing of [`global_merge`].
//!
//! Each iteration builds *several* modules at once — some sharing a
//! family seed so cross-module twins are guaranteed, some drawing fresh
//! families — stacks random structural mutations on each, and then runs
//! [`global_merge`] over a resident corpus holding all of them. The
//! oracle enforces, per iteration:
//!
//! 1. **Jobs byte-identity**: the merged module and report JSON are
//!    identical at every jobs level (1, 2 and 8 by default).
//! 2. **Verifier + round-trip**: the merged module verifies and its
//!    printed form is a reparse fixpoint.
//! 3. **Cross-module differential**: every module's `__driver` entry
//!    point observes identically (return value, `ext_sink` checksum, or
//!    trap class) in the pristine combined module and the globally
//!    merged one — semantics preservation across module boundaries.
//!    Cells where either side hits a resource limit are skipped.
//!
//! Like the protocol fuzzer, reproducers are *case seeds*: every
//! iteration's module set is a pure function of its derived seed, so
//! `corpus/global/seeds.txt` plus [`replay_global_case`] replays any
//! finding without shipping IR text.

use std::fs;
use std::path::PathBuf;

use f3m_core::corpus::{combine_modules, Corpus, CorpusConfig};
use f3m_core::{global_merge, GlobalMergeReport, GlobalPlanConfig};
use f3m_interp::oracle::{observe, Observation};
use f3m_interp::{Limits, Val};
use f3m_ir::module::Module;
use f3m_ir::parser::check_print_fixpoint;
use f3m_ir::printer::print_module;
use f3m_ir::verify::verify_module;
use f3m_prng::SmallRng;
use f3m_trace::json::Writer;
use f3m_trace::stats::{self, Stat, Value::*};
use f3m_trace::MetricsRegistry;
use f3m_workloads::{build_module, table1};

use crate::campaign::{iteration_seed, summary_json};
use crate::mutate::apply_random;

/// Parameters of a global-merge fuzzing campaign.
#[derive(Clone, Debug)]
pub struct GlobalCampaignConfig {
    /// Number of generate–mutate–check iterations.
    pub iterations: usize,
    /// Campaign seed; every module set derives from it.
    pub seed: u64,
    /// Where to write reproducer seeds and module sets (`None` = don't).
    pub corpus_dir: Option<PathBuf>,
    /// Maximum mutations stacked per module (0 is allowed per draw).
    pub max_mutations: usize,
    /// `global_merge` jobs levels; all must produce byte-identical output.
    pub jobs_levels: Vec<usize>,
    /// Driver arguments, one differential observation each.
    pub args: Vec<i64>,
    /// Execution limits for every observation.
    pub limits: Limits,
}

impl Default for GlobalCampaignConfig {
    fn default() -> Self {
        GlobalCampaignConfig {
            iterations: 40,
            seed: 0x61F3,
            corpus_dir: None,
            max_mutations: 3,
            jobs_levels: vec![1, 2, 8],
            args: vec![1, -9, 4242],
            limits: Limits::default(),
        }
    }
}

/// One oracle failure of the global campaign.
#[derive(Clone, Debug)]
pub struct GlobalFailure {
    /// Iteration index that produced the failure.
    pub iteration: usize,
    /// The iteration's derived seed (replays the module set).
    pub iter_seed: u64,
    /// Failure kind (`mutator-invalid`, `merge-error`,
    /// `jobs-divergence`, `merged-invalid`, `round-trip`,
    /// `differential`).
    pub kind: String,
    /// `global_merge` jobs level under which it failed (0 when not
    /// cell-bound).
    pub jobs: usize,
    /// Mismatch description.
    pub detail: String,
    /// Modules in the failing set.
    pub modules: usize,
}

/// Aggregate result of a global campaign. Everything rendered by
/// [`GlobalCampaignSummary::to_json`] is a pure function of the
/// campaign seed.
#[derive(Clone, Debug, Default)]
pub struct GlobalCampaignSummary {
    /// Iterations executed.
    pub iterations: usize,
    /// Modules built across all iterations.
    pub modules_built: usize,
    /// Mutations applied across all modules.
    pub mutations_applied: usize,
    /// Differential cells skipped on resource-limit observations.
    pub resource_skips: usize,
    /// Merges that passed global verification.
    pub verified_total: u64,
    /// Verified merges that crossed a module boundary.
    pub cross_module_merges_total: u64,
    /// All failures found.
    pub failures: Vec<GlobalFailure>,
}

/// Every summary counter, in [`GlobalCampaignSummary::to_json`] order; the
/// one place a counter is named besides its field.
const GLOBAL_CAMPAIGN_STATS: &[Stat<GlobalCampaignSummary>] = &[
    Stat::det("iterations", "iterations", |s| Count(s.iterations as u64)),
    Stat::det("modules_built", "modules", |s| Count(s.modules_built as u64)),
    Stat::det("mutations_applied", "mutations", |s| Count(s.mutations_applied as u64)),
    Stat::det("resource_skips", "cells", |s| Count(s.resource_skips as u64)),
    Stat::det("verified_total", "merges", |s| Count(s.verified_total)),
    Stat::det("cross_module_merges_total", "merges", |s| Count(s.cross_module_merges_total)),
    Stat::new("failure_count", "failures", "failures", true, 0, |s| Count(s.failures.len() as u64)),
];

impl GlobalCampaignSummary {
    /// Renders the summary as deterministic JSON (the `f3m fuzz
    /// --global` output).
    pub fn to_json(&self) -> String {
        summary_json(GLOBAL_CAMPAIGN_STATS, self, &self.failures, |w, f| {
            w.begin_object().key("iteration").raw(f.iteration);
            w.key("seed").str(&format!("{:#x}", f.iter_seed)).key("kind").str(&f.kind);
            w.key("jobs").raw(f.jobs).key("modules").raw(f.modules);
            w.key("detail").str(&f.detail).end_object();
        })
    }

    /// Registers and populates the summary as deterministic metrics
    /// under `<prefix>.`.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        stats::export(reg, prefix, GLOBAL_CAMPAIGN_STATS, self);
    }
}

/// Deterministically reconstructs iteration `iter_seed`'s module set:
/// 2–4 modules named `gm0..`, the first always drawing the shared
/// family seed and later ones flipping a coin between the shared seed
/// (cross-module twins) and a fresh family, each then carrying up to
/// `max_mutations` random structural mutations.
pub fn build_module_set(iter_seed: u64, max_mutations: usize) -> (Vec<Module>, usize) {
    let mut rng = SmallRng::seed_from_u64(iter_seed);
    let n = rng.gen_range(2..=4usize);
    let mut spec = table1()[0].clone();
    spec.functions = rng.gen_range(6..=14usize);
    spec.mean_insts = rng.gen_range(10..=24usize);
    let shared_seed = rng.next_u64() % 100_000;
    let mut mods = Vec::new();
    let mut mutations = 0;
    for i in 0..n {
        let mut s = spec.clone();
        s.seed = if i == 0 || rng.gen_range(0..2u32) == 0 {
            shared_seed
        } else {
            rng.next_u64() % 100_000
        };
        let mut m = build_module(&s);
        m.name = format!("gm{i}");
        for _ in 0..rng.gen_range(0..=max_mutations) {
            if apply_random(&mut m, &mut rng, 12).is_some() {
                mutations += 1;
            }
        }
        mods.push(m);
    }
    (mods, mutations)
}

/// Outcome of the global oracle over one module set.
#[derive(Debug, Default)]
pub struct GlobalOutcome {
    /// First failure found, as `(kind, jobs, detail)`.
    pub failure: Option<(String, usize, String)>,
    /// Differential cells skipped on resource limits.
    pub resource_skips: usize,
    /// The report of the first jobs level, when the merge succeeded.
    pub report: Option<GlobalMergeReport>,
}

/// Runs the global oracle over one module set: mutator validity,
/// `global_merge` at every jobs level with byte-identity, verifier,
/// round-trip fixpoint, and the cross-module driver differential.
pub fn check_module_set(mods: &[Module], cfg: &GlobalCampaignConfig) -> GlobalOutcome {
    let mut out = GlobalOutcome::default();
    let fail = |kind: &str, jobs: usize, detail: String| Some((kind.to_string(), jobs, detail));
    for m in mods {
        if let Err(errs) = verify_module(m) {
            out.failure = fail("mutator-invalid", 0, format!("{}: {:?}", m.name, errs[0]));
            return out;
        }
    }
    let refs: Vec<&Module> = mods.iter().collect();
    let pristine = match combine_modules(&refs) {
        Ok(m) => m,
        Err(e) => {
            out.failure = fail("merge-error", 0, format!("combine: {e}"));
            return out;
        }
    };
    let baseline: Vec<(String, Vec<Observation>)> = mods
        .iter()
        .map(|m| {
            let driver = format!("{}.__driver", m.name);
            let obs = cfg
                .args
                .iter()
                .map(|&a| observe(&pristine, &driver, &[Val::Int(a)], cfg.limits))
                .collect();
            (driver, obs)
        })
        .collect();

    let corpus = Corpus::new(CorpusConfig { jobs: 2, ..Default::default() });
    for m in mods {
        if let Err(e) = corpus.ingest(m.clone()) {
            out.failure = fail("merge-error", 0, format!("ingest {}: {e}", m.name));
            return out;
        }
    }
    let mut first: Option<(String, String)> = None;
    let mut merged_first: Option<Module> = None;
    for &jobs in &cfg.jobs_levels {
        let merge_cfg = GlobalPlanConfig { jobs, limits: cfg.limits };
        let (report, merged, _epoch) = match global_merge(&corpus, &merge_cfg) {
            Ok(r) => r,
            Err(e) => {
                out.failure = fail("merge-error", jobs, e);
                return out;
            }
        };
        let printed = print_module(&merged);
        let rendered = report.to_json();
        match &first {
            None => {
                if let Err(errs) = verify_module(&merged) {
                    out.failure = fail("merged-invalid", jobs, format!("{:?}", errs[0]));
                    return out;
                }
                if let Err(detail) = check_print_fixpoint(&printed) {
                    out.failure = fail("round-trip", jobs, detail);
                    return out;
                }
                out.report = Some(report);
                merged_first = Some(merged);
                first = Some((printed, rendered));
            }
            Some((p0, r0)) => {
                if printed != *p0 || rendered != *r0 {
                    out.failure = fail(
                        "jobs-divergence",
                        jobs,
                        format!(
                            "global merge output differs between --jobs {} and {jobs}",
                            cfg.jobs_levels[0]
                        ),
                    );
                    return out;
                }
            }
        }
    }
    let merged = merged_first.expect("jobs_levels is non-empty");
    for (driver, base_obs) in &baseline {
        for (i, b) in base_obs.iter().enumerate() {
            let m = observe(&merged, driver, &[Val::Int(cfg.args[i])], cfg.limits);
            let Some(agree) = b.agrees(&m) else {
                out.resource_skips += 1;
                continue;
            };
            if !agree {
                out.failure = fail(
                    "differential",
                    cfg.jobs_levels[0],
                    format!("{driver}({}) pristine {b:?} vs merged {m:?}", cfg.args[i]),
                );
                return out;
            }
        }
    }
    out
}

/// Runs a global campaign: seed in, deterministic JSON summary out.
/// Failing iterations write their module set (plus a seeds file entry)
/// to the corpus directory for replay.
pub fn run_global_campaign(cfg: &GlobalCampaignConfig) -> GlobalCampaignSummary {
    let mut summary =
        GlobalCampaignSummary { iterations: cfg.iterations, ..Default::default() };
    if let Some(dir) = &cfg.corpus_dir {
        let _ = fs::create_dir_all(dir);
    }
    for i in 0..cfg.iterations {
        let iter_seed = iteration_seed(cfg.seed, i) ^ 0x610B_A1F3;
        let (mods, mutations) = build_module_set(iter_seed, cfg.max_mutations);
        summary.modules_built += mods.len();
        summary.mutations_applied += mutations;
        let outcome = check_module_set(&mods, cfg);
        summary.resource_skips += outcome.resource_skips;
        if let Some(report) = &outcome.report {
            summary.verified_total += report.stats.verified_merges;
            summary.cross_module_merges_total +=
                report.merges.iter().filter(|r| r.cross_module).count() as u64;
        }
        if let Some((kind, jobs, detail)) = outcome.failure {
            let record = GlobalFailure {
                iteration: i,
                iter_seed,
                kind,
                jobs,
                detail,
                modules: mods.len(),
            };
            if let Some(dir) = &cfg.corpus_dir {
                for m in &mods {
                    let _ = fs::write(
                        dir.join(format!("gfail-{:05}-{}.ir", i, m.name)),
                        print_module(m),
                    );
                }
                let mut meta = Writer::spaced();
                meta.begin_object().key("seed").str(&format!("{:#x}", record.iter_seed));
                meta.key("kind").str(&record.kind).key("jobs").raw(record.jobs);
                meta.key("detail").str(&record.detail).end_object();
                let _ = fs::write(dir.join(format!("gfail-{:05}.meta.json", i)), meta.finish());
            }
            summary.failures.push(record);
        }
    }
    summary
}

/// Replays one seeded case against the full global oracle. Returns a
/// short scenario description on success, the failure on violation —
/// the shape `corpus/global/seeds.txt` entries are replayed through.
pub fn replay_global_case(iter_seed: u64) -> Result<String, String> {
    let cfg = GlobalCampaignConfig::default();
    let (mods, mutations) = build_module_set(iter_seed, cfg.max_mutations);
    let outcome = check_module_set(&mods, &cfg);
    if let Some((kind, jobs, detail)) = outcome.failure {
        return Err(format!("{kind} (jobs {jobs}): {detail}"));
    }
    let report = outcome.report.ok_or("global merge produced no report")?;
    Ok(format!(
        "modules={} mutations={} verified={} cross_module={}",
        mods.len(),
        mutations,
        report.stats.verified_merges,
        report.merges.iter().filter(|r| r.cross_module).count(),
    ))
}
