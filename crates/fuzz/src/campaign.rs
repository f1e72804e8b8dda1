//! Deterministic fuzzing campaigns.
//!
//! Each iteration derives its own RNG from the campaign seed, generates a
//! base workload module, stacks one to four random mutations on it, and
//! runs the merge oracle over every configured (strategy, jobs) cell.
//! Failures are delta-reduced and written to the corpus directory with
//! enough metadata (`seed`, mutation trace, failing cell) to replay them.
//!
//! The whole campaign is a pure function of its configuration: same seed,
//! same modules, same mutations, same verdicts.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use f3m_core::pass::{run_pass, PassConfig};
use f3m_ir::module::Module;
use f3m_ir::parser::check_print_fixpoint;
use f3m_ir::printer::print_module;
use f3m_ir::verify::verify_module;
use f3m_prng::SmallRng;
use f3m_trace::json::Writer;
use f3m_trace::stats::{self, Stat, Value::*};
use f3m_trace::{span_on, MetricsRegistry, Tracer};
use f3m_workloads::{build_module, table1};

use crate::mutate::{apply_random, MUTATORS};
use crate::oracle::{check_module_with, OracleConfig};
use crate::reduce::reduce;

/// Per-iteration seed derivation: golden-ratio stride over the campaign
/// seed, so iteration streams are decorrelated but reproducible.
pub fn iteration_seed(campaign_seed: u64, iteration: usize) -> u64 {
    campaign_seed ^ (iteration as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Number of generate–mutate–check iterations.
    pub iterations: usize,
    /// Campaign seed; every module and mutation derives from it.
    pub seed: u64,
    /// Where to write reduced reproducers (`None` = don't write).
    pub corpus_dir: Option<PathBuf>,
    /// The oracle run on every mutated module.
    pub oracle: OracleConfig,
    /// Maximum mutations stacked per iteration (at least 1 is applied).
    pub max_mutations: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            iterations: 500,
            seed: 0xF3F3,
            corpus_dir: None,
            oracle: OracleConfig::default(),
            max_mutations: 4,
        }
    }
}

/// One reduced oracle failure.
#[derive(Clone, Debug)]
pub struct FailureRecord {
    /// Iteration index that produced the failure.
    pub iteration: usize,
    /// The iteration's derived seed (replays the module + mutations).
    pub iter_seed: u64,
    /// Failure kind name (`differential`, `round-trip`, ... or
    /// `mutator-invalid` when a mutator itself broke validity).
    pub kind: String,
    /// Strategy cell that failed (`none` for mutator bugs).
    pub strategy: String,
    /// Jobs cell that failed (0 for mutator bugs).
    pub jobs: usize,
    /// Mismatch description.
    pub detail: String,
    /// Names of the mutations applied this iteration, in order.
    pub mutations: Vec<&'static str>,
    /// Function definitions before reduction.
    pub functions_before: usize,
    /// Function definitions in the reduced reproducer.
    pub functions_after: usize,
    /// Linked instructions before reduction.
    pub insts_before: usize,
    /// Linked instructions in the reduced reproducer.
    pub insts_after: usize,
    /// Path of the written `.ir` reproducer, if a corpus dir was set.
    pub artifact: Option<String>,
}

/// Aggregate campaign result.
#[derive(Clone, Debug, Default)]
pub struct CampaignSummary {
    /// Iterations executed.
    pub iterations: usize,
    /// Total mutations applied across all iterations.
    pub mutations_applied: usize,
    /// Times each mutator fired, in catalogue order.
    pub histogram: Vec<(&'static str, usize)>,
    /// Wall-clock nanoseconds spent inside each mutator, in catalogue
    /// order. Deliberately excluded from [`CampaignSummary::to_json`],
    /// which stays a pure function of the campaign seed; exported as
    /// nondeterministic metrics by [`CampaignSummary::export_metrics`].
    pub mutator_time_ns: Vec<(&'static str, u64)>,
    /// Differential cells skipped on resource-limit observations.
    pub resource_skips: usize,
    /// All failures, reduced.
    pub failures: Vec<FailureRecord>,
}

/// Every summary counter, in [`CampaignSummary::to_json`] order; the one
/// place a counter is named besides its field.
const CAMPAIGN_STATS: &[Stat<CampaignSummary>] = &[
    Stat::det("iterations", "iterations", |s| Count(s.iterations as u64)),
    Stat::det("mutations_applied", "mutations", |s| Count(s.mutations_applied as u64)),
    Stat::new("mutator_histogram", "mutations", "mutations", true, 0, |s| {
        Map(s.histogram.iter().map(|&(name, n)| (name, n as u64)).collect())
    }),
    Stat::det("resource_skips", "cells", |s| Count(s.resource_skips as u64)),
    Stat::new("failure_count", "failures", "failures", true, 0, |s| Count(s.failures.len() as u64)),
    Stat::new("", "mutator_ns", "ns", false, 1, |s| Map(s.mutator_time_ns.clone())),
];

/// The layout shared by the `f3m fuzz` and `f3m fuzz --global` summaries:
/// one counter per line, then the failures one per line.
pub(crate) fn summary_json<S, F>(
    table: &[Stat<S>],
    summary: &S,
    failures: &[F],
    write_failure: fn(&mut Writer, &F),
) -> String {
    let mut w = Writer::spaced();
    w.begin_object();
    for row in table {
        row.write(w.indent(2), summary);
    }
    w.indent(2).key("failures").begin_array();
    for f in failures {
        write_failure(w.indent(4), f);
    }
    if !failures.is_empty() {
        w.indent(2);
    }
    w.end_array().indent(0).end_object();
    w.finish()
}

impl CampaignSummary {
    /// Renders the summary as a JSON object (the `f3m fuzz` output).
    pub fn to_json(&self) -> String {
        summary_json(CAMPAIGN_STATS, self, &self.failures, write_failure)
    }

    /// Registers and populates the summary as metrics under `<prefix>.`.
    /// Seed-determined quantities (iterations, mutation counts, failures)
    /// are tagged deterministic; mutator wall-clock times are not.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        stats::export(reg, prefix, CAMPAIGN_STATS, self);
    }
}

fn write_failure(w: &mut Writer, f: &FailureRecord) {
    let ratio = if f.insts_before == 0 {
        1.0
    } else {
        f.insts_after as f64 / f.insts_before as f64
    };
    w.begin_object().key("iteration").raw(f.iteration);
    w.key("seed").str(&format!("{:#x}", f.iter_seed));
    w.key("kind").str(&f.kind).key("strategy").str(&f.strategy).key("jobs").raw(f.jobs);
    w.key("detail").str(&f.detail).key("mutations").begin_array();
    for m in &f.mutations {
        w.str(m);
    }
    w.end_array().key("functions_before").raw(f.functions_before);
    w.key("functions_after").raw(f.functions_after);
    w.key("insts_before").raw(f.insts_before).key("insts_after").raw(f.insts_after);
    w.key("reduction_ratio").raw(format_args!("{ratio:.4}")).key("artifact");
    match &f.artifact {
        Some(p) => w.str(p),
        None => w.null(),
    };
    w.end_object();
}

/// Runs a campaign against the production merge pass.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignSummary {
    run_campaign_traced(cfg, None)
}

/// [`run_campaign`] with optional structured tracing: one span per
/// iteration plus per-mutator timing accumulated into
/// [`CampaignSummary::mutator_time_ns`].
pub fn run_campaign_traced(
    cfg: &CampaignConfig,
    tracer: Option<&Tracer>,
) -> CampaignSummary {
    run_campaign_impl(
        cfg,
        |m, c| {
            run_pass(m, c);
        },
        tracer,
    )
}

/// Runs a campaign with an injectable merge step (used by the oracle's own
/// self-test, which threads in a deliberately buggy merge).
pub fn run_campaign_with<F: Fn(&mut Module, &PassConfig)>(
    cfg: &CampaignConfig,
    merge: F,
) -> CampaignSummary {
    run_campaign_impl(cfg, merge, None)
}

fn run_campaign_impl<F: Fn(&mut Module, &PassConfig)>(
    cfg: &CampaignConfig,
    merge: F,
    tracer: Option<&Tracer>,
) -> CampaignSummary {
    let mut summary = CampaignSummary {
        iterations: cfg.iterations,
        histogram: MUTATORS.iter().map(|&(name, _)| (name, 0)).collect(),
        mutator_time_ns: MUTATORS.iter().map(|&(name, _)| (name, 0)).collect(),
        ..Default::default()
    };
    if let Some(dir) = &cfg.corpus_dir {
        let _ = fs::create_dir_all(dir);
    }
    for i in 0..cfg.iterations {
        let mut iter_span = span_on(tracer, "fuzz", format!("iteration {i}"));
        let iter_seed = iteration_seed(cfg.seed, i);
        let mut rng = SmallRng::seed_from_u64(iter_seed);
        let mut spec = table1()[0].clone();
        spec.functions = rng.gen_range(8..=36usize);
        spec.mean_insts = rng.gen_range(10..=28usize);
        spec.seed = rng.next_u64() % 100_000;
        let mut base = build_module(&spec);
        let planned = rng.gen_range(1..=cfg.max_mutations.max(1));
        let mut applied: Vec<&'static str> = Vec::new();
        for _ in 0..planned {
            let t_mutate = Instant::now();
            let fired = apply_random(&mut base, &mut rng, 12);
            let mutate_ns = t_mutate.elapsed().as_nanos() as u64;
            if let Some(name) = fired {
                applied.push(name);
                summary.mutations_applied += 1;
                if let Some(slot) = summary.histogram.iter_mut().find(|(n, _)| *n == name) {
                    slot.1 += 1;
                }
                if let Some(slot) =
                    summary.mutator_time_ns.iter_mut().find(|(n, _)| *n == name)
                {
                    slot.1 += mutate_ns;
                }
                if let Some(t) = tracer {
                    t.instant("fuzz", name, vec![("iteration", i as u64), ("ns", mutate_ns)]);
                }
            }
        }
        iter_span.arg("mutations", applied.len() as u64);
        // Mutator contract gate: the mutated base itself must stay
        // verifier-clean and round-trippable, before any merging happens.
        let base_broken = match verify_module(&base) {
            Err(errs) => Some(format!("{:?}", errs[0])),
            Ok(()) if check_print_fixpoint(&print_module(&base)).is_err() => {
                Some("mutated base fails printer round-trip".to_string())
            }
            Ok(()) => None,
        };
        if let Some(detail) = base_broken {
            let mut record = FailureRecord {
                iteration: i,
                iter_seed,
                kind: "mutator-invalid".to_string(),
                strategy: "none".to_string(),
                jobs: 0,
                detail,
                mutations: applied,
                functions_before: base.defined_functions().len(),
                functions_after: base.defined_functions().len(),
                insts_before: base.total_insts(),
                insts_after: base.total_insts(),
                artifact: None,
            };
            record.artifact = write_artifact(cfg, &record, &base);
            summary.failures.push(record);
            continue;
        }
        let outcome = check_module_with(&base, &cfg.oracle, |m, c| merge(m, c));
        summary.resource_skips += outcome.resource_skips;
        if let Some(failure) = outcome.failure {
            let narrowed = cfg.oracle.narrowed(failure.strategy, failure.jobs);
            let kind = failure.kind;
            let predicate = |m: &Module| {
                check_module_with(m, &narrowed, |mm, c| merge(mm, c))
                    .failure
                    .is_some_and(|g| g.kind == kind)
            };
            let (reduced, stats) = reduce(&base, &predicate);
            let mut record = FailureRecord {
                iteration: i,
                iter_seed,
                kind: kind.as_str().to_string(),
                strategy: failure.strategy.name().to_string(),
                jobs: failure.jobs,
                detail: failure.detail,
                mutations: applied,
                functions_before: stats.functions_before,
                functions_after: stats.functions_after,
                insts_before: stats.insts_before,
                insts_after: stats.insts_after,
                artifact: None,
            };
            record.artifact = write_artifact(cfg, &record, &reduced);
            summary.failures.push(record);
        }
    }
    summary
}

/// Writes the reproducer plus a `.meta.json` sidecar (seed, mutation
/// trace, failing cell — everything needed to replay) into the corpus
/// directory. Returns the `.ir` path, or `None` when no corpus dir is
/// configured.
fn write_artifact(
    cfg: &CampaignConfig,
    record: &FailureRecord,
    m: &Module,
) -> Option<String> {
    let dir = cfg.corpus_dir.as_ref()?;
    let stem = format!("fail-{:05}-{}", record.iteration, record.kind);
    let ir_path = dir.join(format!("{stem}.ir"));
    let _ = fs::write(&ir_path, print_module(m));
    let mut meta = Writer::spaced();
    write_failure(&mut meta, record);
    let _ = fs::write(dir.join(format!("{stem}.meta.json")), meta.finish());
    Some(ir_path.display().to_string())
}
