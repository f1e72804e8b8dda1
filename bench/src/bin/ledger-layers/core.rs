//! Probes of `f3m_core`: the pass's stage breakdown and counts, the
//! rank → pair → align → codegen → commit steps called one by one, and
//! the resident corpus driven in-process the way the daemon drives it.

use std::path::Path;

use f3m_core::align::{needleman_wunsch, AlignScratch};
use f3m_core::block_pairing::{function_parts, plan_blocks_with, PairPlan};
use f3m_core::codegen::{build_merged, MergeConfig};
use f3m_core::commit::Committer;
use f3m_core::corpus::{Corpus, CorpusConfig};
use f3m_core::pass::{run_pass, run_pass_traced, MergeStats, PassConfig, Strategy};
use f3m_core::rank::{build_search, QueryCounters, SearchScratch};
use f3m_fingerprint::encode::encode_function;
use f3m_ir::ids::FuncId;
use f3m_ir::module::Module;
use f3m_ir::parser::parse_module;
use f3m_ledger::irtext::body_swap;
use f3m_ledger::pass::{check_merged, Reference};
use f3m_ledger::report::{Read, Report};
use f3m_ledger::serve::{edit_site, QUERY_K};
use f3m_ledger::workload::Rng;

use crate::spans::{timed, Spans};
use crate::Data;

/// Pairs the step-by-step probes build, align, generate and commit.
const PAIR_CAP: usize = 300;
/// Rank queries timed one by one.
const QUERY_CAP: usize = 2000;
/// Edits the write replay applies.
const REPLAY_EDITS: usize = 8;

fn secs(d: std::time::Duration) -> f64 {
    d.as_secs_f64()
}

/// One sweep of the pass over fresh clones of the pass modules; summed
/// pass wall, the per-module stats, and the merged modules.
fn sweep(data: &Data, jobs: usize, spans: Option<&Spans>) -> (f64, Vec<MergeStats>, Vec<Module>) {
    let cfg = PassConfig::f3m_adaptive().with_jobs(jobs);
    let mut wall = 0.0;
    let mut stats = Vec::new();
    let mut merged = Vec::new();
    for m in &data.pass_modules {
        let mut m = m.clone();
        if let Some(s) = spans {
            s.next_request();
        }
        let (report, t) = timed(spans, "core.pass.run_pass", || match spans {
            Some(s) => run_pass_traced(&mut m, &cfg, Some(s.tracer())),
            None => run_pass(&mut m, &cfg),
        });
        wall += t;
        stats.push(report.stats);
        merged.push(m);
    }
    (wall, stats, merged)
}

/// Stage breakdown and counts of one traced sweep, plus the interpreter's
/// side of the oracle. Returns `(untraced, traced)` sweep walls.
pub fn probe_pass(data: &Data, spans: &Spans, report: &mut Report) -> (f64, f64) {
    sweep(data, 1, None); // warm-up
    let (untraced, plain_stats, _) = sweep(data, 1, None);
    let (traced, stats, merged) = sweep(data, 1, Some(spans));
    let (jobs2, _, _) = sweep(data, 2, None);

    let sum = |f: &dyn Fn(&MergeStats) -> f64| stats.iter().map(f).sum::<f64>();
    let (pre, rank, align, codegen) = (
        sum(&|s| secs(s.preprocess)),
        sum(&|s| secs(s.rank.total())),
        sum(&|s| secs(s.align.total())),
        sum(&|s| secs(s.codegen.total())),
    );
    report.value("core.pass.preprocess_s", "s", pre);
    report.value("core.pass.rank_s", "s", rank);
    report.value("core.pass.align_s", "s", align);
    report.value("core.pass.codegen_s", "s", codegen);
    report.value(
        "core.pass.other_s",
        "s",
        traced - (pre + rank + align + codegen),
    );
    let functions = sum(&|s| s.functions as f64);
    let pairs = sum(&|s| s.pairs_attempted as f64);
    let merges = sum(&|s| s.merges_committed as f64);
    report.value("core.pass.pairs_attempted", "count", pairs);
    report.value("core.pass.merges_committed", "count", merges);
    report.value("core.pass.commit_yield", "ratio", merges / pairs);
    report.value(
        "core.pass.aligns_wasted_share",
        "ratio",
        sum(&|s| s.aligns_wasted as f64) / sum(&|s| s.aligns_speculative as f64),
    );
    report.value("core.pass.waves", "count", sum(&|s| s.waves as f64));
    report.value(
        "core.pass.candidates_examined_per_fn",
        "count",
        sum(&|s| s.candidates_examined as f64) / functions,
    );
    report.value(
        "core.pass.comparisons_per_fn",
        "count",
        sum(&|s| s.fingerprint_comparisons as f64) / functions,
    );
    report.value(
        "core.pass.align_cells_per_pair",
        "count",
        sum(&|s| s.align_cells as f64) / pairs,
    );
    report.value(
        "core.pass.rejects_size_share",
        "ratio",
        sum(&|s| s.commits_rejected_size as f64) / pairs,
    );
    report.value("core.pass.jobs2_wall_ratio", "ratio", jobs2 / untraced);

    // Tracing must not change what the pass does.
    let key = |s: &MergeStats| {
        (
            s.pairs_attempted,
            s.merges_committed,
            s.size_after,
            s.candidates_examined,
            s.align_cells,
        )
    };
    let same = plain_stats.iter().map(key).eq(stats.iter().map(key));
    report.tally.check(same, || {
        "traced and untraced sweeps disagree on the pass counts".into()
    });

    let mut rng = Rng::new(data.seed, 1);
    let (reference, t) = timed(Some(spans), "interp.call_by_name", || {
        Reference::observe(&data.pass_modules, &mut rng)
    });
    report.value("interp.steps_per_s", "1/s", reference.steps() as f64 / t);
    let after: u64 = merged
        .iter()
        .enumerate()
        .map(|(mi, m)| check_merged(m, mi, &reference, &mut report.tally))
        .sum();
    report.value(
        "interp.driver_steps_before",
        "count",
        reference.steps() as f64,
    );
    report.value("interp.driver_steps_after", "count", after as f64);
    (untraced, traced)
}

/// The pass's inner steps called one at a time on each pass module:
/// build the search, rank, plan the block pairing, align, generate,
/// commit. Pairs are chosen as the pass chooses them (best available
/// candidate, each function used once).
pub fn probe_steps(data: &Data, spans: &Spans, report: &mut Report) {
    let s = Some(spans);
    let mut build_ms = 0.0;
    let (mut query_us, mut plan_us, mut align_ns, mut build_us, mut commit_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for m in &data.pass_modules {
        let funcs: Vec<FuncId> = m
            .defined_functions()
            .into_iter()
            .filter(|&f| m.function(f).num_linked_insts() > 0)
            .collect();
        let (search, t) = timed(s, "core.rank.build_search", || {
            build_search(m, &funcs, &Strategy::F3mAdaptive, 1)
        });
        build_ms += t * 1e3;

        let mut available = vec![true; funcs.len()];
        let mut scratch = SearchScratch::new();
        let mut pairs: Vec<(FuncId, FuncId)> = Vec::new();
        for i in 0..funcs.len().min(QUERY_CAP) {
            let mut counters = QueryCounters::default();
            let (set, t) = timed(s, "core.rank.best_candidates", || {
                search.best_candidates(i, &available, &mut counters, &mut scratch)
            });
            query_us.push(t * 1e6);
            if let Some((j, _)) = set.choose(None, |idx| funcs[idx]) {
                if available[i] && available[j] && pairs.len() < PAIR_CAP {
                    available[i] = false;
                    available[j] = false;
                    pairs.push((funcs[i], funcs[j]));
                }
            }
        }

        let mut align_scratch = AlignScratch::new();
        let mut plans: Vec<(FuncId, FuncId, PairPlan)> = Vec::new();
        for &(f1, f2) in &pairs {
            let (p1, p2) = (
                function_parts(m.function(f1)),
                function_parts(m.function(f2)),
            );
            let (plan, t) = timed(s, "core.block_pairing.plan_blocks_with", || {
                plan_blocks_with(m, f1, f2, &p1, &p2, &mut align_scratch)
            });
            plan_us.push(t * 1e6);
            let (e1, e2) = (
                encode_function(&m.types, m.function(f1)),
                encode_function(&m.types, m.function(f2)),
            );
            let (alignment, t) = timed(s, "core.align.needleman_wunsch", || {
                needleman_wunsch(&e1, &e2)
            });
            std::hint::black_box(alignment);
            align_ns.push(t * 1e9);
            let name = m.fresh_name("__probe");
            let (built, t) = timed(s, "core.codegen.build_merged", || {
                build_merged(m, f1, f2, &plan, MergeConfig::default(), name)
            });
            std::hint::black_box(built.is_ok());
            build_us.push(t * 1e6);
            plans.push((f1, f2, plan));
        }

        let mut scratch_module = m.clone();
        let mut committer = Committer::build(&scratch_module, 1);
        for (f1, f2, plan) in &plans {
            let (saved, t) = timed(s, "core.commit.try_commit", || {
                committer.try_commit(&mut scratch_module, *f1, *f2, plan, MergeConfig::default())
            });
            std::hint::black_box(saved);
            commit_us.push(t * 1e6);
        }
    }
    report.value("core.rank.build_ms", "ms", build_ms);
    report.samples("core.rank.query_us", "us", Read::Median, &query_us);
    report.samples("core.align.ns_per_pair", "ns", Read::Median, &align_ns);
    report.samples(
        "core.block_pairing.plan_us_per_pair",
        "us",
        Read::Median,
        &plan_us,
    );
    report.samples(
        "core.codegen.build_us_per_pair",
        "us",
        Read::Median,
        &build_us,
    );
    report.samples("core.commit.try_commit_us", "us", Read::Median, &commit_us);
}

/// What the corpus replays measured, for the probes that build on them.
pub struct CorpusProbe {
    /// In-process seconds of one warm `query_module`, averaged over the
    /// read corpus.
    pub warm_query_s: f64,
    /// A module-wide answer, for the response-rendering probe.
    pub answer: (u64, Vec<f3m_core::corpus::QueryResult>),
    /// Seconds the replays spent inside timed corpus calls.
    pub timed_s: f64,
}

fn corpus() -> Corpus {
    // The daemon's configuration with one worker.
    Corpus::new(CorpusConfig {
        jobs: 1,
        ..CorpusConfig::default()
    })
}

fn parsed(name: &str, text: &str) -> Result<Module, String> {
    let mut m = parse_module(text).map_err(|e| format!("{name}: {e:?}"))?;
    m.name = name.to_string();
    Ok(m)
}

/// Read replay, in the order the read leg drives a daemon: the read
/// corpus ingested and saved, restored from the snapshot, queried cold,
/// queried warm — the calls behind the serve set-up, `restart_s`,
/// `query_cold_ms` and `serve.query_module_warm_ms`.
pub fn replay_read(
    data: &Data,
    snapshot: &Path,
    spans: Option<&Spans>,
    report: Option<&mut Report>,
) -> Result<CorpusProbe, String> {
    let built = corpus();
    let mut functions = 0;
    let mut ingest_s = 0.0;
    for (name, text) in &data.read_corpus {
        let m = parsed(name, text)?;
        let (r, t) = timed(spans, "core.corpus.ingest", || built.ingest(m));
        functions += r?.functions;
        ingest_s += t;
    }
    let (saved, save_s) = timed(spans, "core.corpus.save_snapshot", || {
        built.save_snapshot(snapshot)
    });
    saved.map_err(|e| format!("{e:?}"))?;
    drop(built);
    let cfg = CorpusConfig {
        jobs: 1,
        ..CorpusConfig::default()
    };
    let (loaded, load_s) = timed(spans, "core.corpus.load_snapshot", || {
        Corpus::load_snapshot(snapshot, cfg)
    });
    let c = loaded.map_err(|e| format!("{e:?}"))?;
    let sweep = |label: &'static str| -> Result<(f64, (u64, Vec<_>)), String> {
        let mut total = 0.0;
        let mut last = None;
        for (name, _) in &data.read_corpus {
            if let Some(s) = spans {
                s.next_request();
            }
            let (r, t) = timed(spans, label, || c.query_module(name, QUERY_K));
            total += t;
            last = Some(r?);
        }
        Ok((total, last.expect("the read corpus has modules")))
    };
    let (cold_s, answer) = sweep("core.corpus.query_module.miss")?;
    let (warm_s, _) = sweep("core.corpus.query_module.hit")?;
    if let Some(report) = report {
        report.value(
            "core.corpus.ingest_ms_per_kfn",
            "ms",
            ingest_s * 1e3 / (functions as f64 / 1e3),
        );
        report.value("core.corpus.save_snapshot_ms", "ms", save_s * 1e3);
        report.value("core.corpus.load_snapshot_ms", "ms", load_s * 1e3);
        report.value(
            "core.corpus.query_fn_miss_us",
            "us",
            cold_s * 1e6 / functions as f64,
        );
        report.value(
            "core.corpus.query_fn_hit_us",
            "us",
            warm_s * 1e6 / functions as f64,
        );
    }
    let warm_query_s = warm_s / data.read_corpus.len() as f64;
    Ok(CorpusProbe {
        warm_query_s,
        answer,
        timed_s: ingest_s + save_s + load_s + cold_s + warm_s,
    })
}

/// Write replay: the write corpus ingested and warmed, then a few of the
/// run's edits each followed by a sweep, then one evict — the calls
/// behind `update_ms`, `requery_ms` and `ingest_fn_per_s`. Returns the
/// seconds spent inside timed corpus calls.
pub fn replay_write(
    data: &Data,
    spans: Option<&Spans>,
    report: Option<&mut Report>,
) -> Result<f64, String> {
    let c = corpus();
    let names: Vec<&String> = data.write_corpus.iter().map(|(n, _)| n).collect();
    let mut texts: Vec<String> = data.write_corpus.iter().map(|(_, t)| t.clone()).collect();
    for (name, text) in names.iter().zip(&texts) {
        c.ingest(parsed(name, text)?)?;
    }
    let sweep = |label: &'static str| -> Result<f64, String> {
        let mut total = 0.0;
        for name in &names {
            let (r, t) = timed(spans, label, || c.query_module(name, QUERY_K));
            r?;
            total += t;
        }
        Ok(total)
    };
    sweep("core.corpus.query_module.miss")?;

    let before = c.stats();
    let (mut update_ms, mut invalidated, mut timed_s) = (Vec::new(), 0, 0.0);
    let (dst, sources) = edit_site(&texts[0]).ok_or("module 0 has no function to edit")?;
    for edit in 0..REPLAY_EDITS {
        if let Some(s) = spans {
            s.next_request();
        }
        let patched =
            body_swap(&texts[0], &dst, &sources[edit % 2]).ok_or("the edit does not apply")?;
        let (r, t) = timed(spans, "core.corpus.update_function", || {
            c.update_function(names[0], &dst, Some(&patched))
        });
        invalidated += r?.funcs_invalidated;
        update_ms.push(t * 1e3);
        texts[0] = patched;
        timed_s += t + sweep("core.corpus.query_module.requery")?;
    }
    let after = c.stats();
    let (evicted, evict_s) = timed(spans, "core.corpus.evict", || c.evict(names[0]));
    evicted?;
    timed_s += evict_s;
    if let Some(report) = report {
        let (hits, misses) = (
            after.memo_hits - before.memo_hits,
            after.memo_misses - before.memo_misses,
        );
        report.samples("core.corpus.update_ms", "ms", Read::Median, &update_ms);
        report.value(
            "core.corpus.invalidated_per_update",
            "count",
            invalidated as f64 / REPLAY_EDITS as f64,
        );
        report.value(
            "core.corpus.recomputed_per_requery",
            "count",
            misses as f64 / REPLAY_EDITS as f64,
        );
        report.value(
            "core.corpus.memo_hit_rate",
            "ratio",
            hits as f64 / (hits + misses) as f64,
        );
        report.value("core.corpus.evict_ms", "ms", evict_s * 1e3);
    }
    Ok(timed_s)
}
