//! The function-merging pass.
//!
//! Drives the full pipeline of Figure 1 of the paper as a wave-based loop:
//!
//! ```text
//! preprocess (CandidateSearch + Committer + BlockPartsCache, parallel)
//! loop (wave):
//!   rank + align every still-available function   (parallel, speculative)
//!   walk the wave in fixed index order, committing serially
//! ```
//!
//! Each wave snapshots the availability mask, then ranks every remaining
//! function and aligns its chosen pair speculatively on the worker pool
//! (`--jobs`). The serial walk then revisits the wave in index order: a
//! pair whose member was consumed by an earlier commit in the same wave is
//! discarded (the function itself was merged away) or deferred to the next
//! wave for re-ranking (only its partner was taken). All module mutation
//! and all counter accumulation happen in the walk, so the merged module
//! and every [`MergeReport`] counter are **byte-identical for every
//! `jobs` value** — parallelism changes wall-clock time only.
//!
//! Three strategies are provided, all running through the
//! [`CandidateSearch`](crate::rank::CandidateSearch) seam:
//!
//! - [`Strategy::Hyfm`] — the baseline: opcode-frequency fingerprints with
//!   an exhaustive nearest-neighbour scan (quadratic ranking),
//! - [`Strategy::F3m`] — MinHash fingerprints with LSH bucket search under
//!   explicit [`MergeParams`],
//! - [`Strategy::F3mAdaptive`] — F3M with the threshold and band count
//!   scaled to the program size (Equations 3 and 4).
//!
//! Timing is recorded per stage, split into *success* and *fail* buckets
//! exactly as in the paper's Figures 3 and 13 (stage times sum per-pair
//! durations, so they exceed wall-clock when waves run wide).

use std::time::{Duration, Instant};

use f3m_fingerprint::adaptive::MergeParams;
use f3m_fingerprint::par::par_map_indexed_with;
use f3m_ir::ids::FuncId;
use f3m_ir::module::Module;
use f3m_ir::size::module_size;
use f3m_trace::{span_on, Tracer};

use crate::align::AlignScratch;
use crate::block_pairing::{function_parts, plan_blocks_with, BlockPartsCache, PairPlan};
use crate::codegen::MergeConfig;
use crate::commit::{fixed_overhead, Committer};
use crate::profile::Profile;
use crate::rank::{build_search, QueryCounters, SearchScratch};

pub use crate::report::{AttemptRecord, MergeReport, MergeStats, StageTime};

/// Candidate-selection strategy.
#[derive(Clone, Debug, Default)]
pub enum Strategy {
    /// HyFM baseline: opcode-frequency fingerprints, exhaustive
    /// nearest-neighbour ranking.
    #[default]
    Hyfm,
    /// F3M with explicit parameters (the paper's *static* variant uses
    /// [`MergeParams::static_default`]).
    F3m(MergeParams),
    /// F3M with parameters derived from the number of functions.
    F3mAdaptive,
}

/// Pass configuration.
#[derive(Clone, Debug, Default)]
pub struct PassConfig {
    /// Candidate selection strategy.
    pub strategy: Strategy,
    /// Code-generation options (dominance repair mode).
    pub merge: MergeConfig,
    /// Optional execution profile: near-tied candidates are resolved
    /// toward the coldest function (the paper's Section IV-F proposal).
    pub profile: Option<Profile>,
    /// Worker threads for the preprocess stage *and* the wave loop's
    /// speculative rank/align phase. `0` and `1` both mean fully
    /// sequential; any value produces the same merged module.
    pub jobs: usize,
}

impl PassConfig {
    /// HyFM baseline configuration.
    pub fn hyfm() -> PassConfig {
        PassConfig { strategy: Strategy::Hyfm, ..Default::default() }
    }

    /// F3M static configuration (`k=200, r=2, b=100, t=0.0`).
    pub fn f3m() -> PassConfig {
        PassConfig {
            strategy: Strategy::F3m(MergeParams::static_default()),
            ..Default::default()
        }
    }

    /// F3M adaptive configuration.
    pub fn f3m_adaptive() -> PassConfig {
        PassConfig { strategy: Strategy::F3mAdaptive, ..Default::default() }
    }

    /// Attaches an execution profile for performance-aware selection.
    pub fn with_profile(mut self, profile: Profile) -> PassConfig {
        self.profile = Some(profile);
        self
    }

    /// Sets the preprocess worker-thread count.
    pub fn with_jobs(mut self, jobs: usize) -> PassConfig {
        self.jobs = jobs;
        self
    }
}

/// One wave member's speculative result, produced on the worker pool and
/// consumed by the serial commit walk.
struct WaveOutcome {
    /// Ranking counters for this query.
    counters: QueryCounters,
    /// Wall-clock of the rank query.
    rank_time: Duration,
    /// The chosen candidate `(index, similarity)`, if any.
    best: Option<(usize, f64)>,
    /// The speculative alignment plan and its matched-instruction count.
    plan: Option<(PairPlan, usize)>,
    /// Wall-clock of the speculative alignment.
    align_time: Duration,
    /// Cache slots that had to be re-encoded (0, 1 or 2).
    cache_misses: u32,
    /// Alignment work (DP cells + linear positions) for this member. A
    /// per-pair quantity, so summing it stays job-count independent.
    align_cells: u64,
    /// Scratch-buffer growths while aligning this member. Depends on what
    /// the worker's scratch processed before, so jobs-DEPENDENT: exported
    /// to the tracer only, never into [`MergeStats`].
    scratch_grows: u64,
}

/// Runs the function-merging pass over `m`, mutating it in place
/// (committed merges replace the originals with thunks and append the
/// merged function).
pub fn run_pass(m: &mut Module, config: &PassConfig) -> MergeReport {
    run_pass_traced(m, config, None)
}

/// [`run_pass`] with optional structured tracing. With `Some(tracer)`,
/// spans cover every stage seam (fingerprint/index build, per-pair rank
/// and align, each commit, the serial walk) and one cumulative
/// `wave_counters` sample is emitted per wave. With `None` every
/// instrumentation point is skipped — the untraced path does no extra
/// work beyond the counters [`MergeStats`] always carried.
///
/// Track layout: track 0 is the serial driver (preprocess, commit walk,
/// commits); track 1 replays the speculative per-pair rank/align
/// durations end-to-end in commit-walk order, since the real executions
/// overlap on a worker pool and have no stable wall-clock placement.
pub fn run_pass_traced(
    m: &mut Module,
    config: &PassConfig,
    tracer: Option<&Tracer>,
) -> MergeReport {
    let mut report = MergeReport::default();
    report.stats.size_before = module_size(m);
    let jobs = config.jobs.max(1);

    let funcs: Vec<FuncId> = m
        .defined_functions()
        .into_iter()
        .filter(|&f| m.function(f).num_linked_insts() > 0)
        .collect();
    let n = funcs.len();
    report.stats.functions = n;

    // ---- preprocess: fingerprints + search structure + reference index
    // ---- + encoded block parts, all fanned out across `jobs` threads ---
    let t0 = Instant::now();
    let mut pre_span = span_on(tracer, "pass", "preprocess");
    pre_span.arg("functions", n as u64);
    let mut search = {
        let mut s = span_on(tracer, "preprocess", "fingerprint");
        s.arg("functions", n as u64);
        let search = build_search(m, &funcs, &config.strategy, jobs);
        let idx = search.index_stats();
        s.arg("lsh_buckets", idx.buckets as u64);
        s.arg("lsh_max_bucket", idx.max_bucket as u64);
        report.stats.lsh_buckets = idx.buckets as u64;
        report.stats.lsh_max_bucket = idx.max_bucket as u64;
        report.stats.soa_bytes_per_fn = idx.bytes_per_fn as u64;
        report.lsh_bucket_sizes = idx.bucket_sizes;
        search
    };
    let mut committer = {
        let _s = span_on(tracer, "preprocess", "ref_index");
        Committer::build(m, jobs)
    };
    let mut parts_cache = {
        let _s = span_on(tracer, "preprocess", "block_parts");
        BlockPartsCache::build(m, &funcs, jobs)
    };
    pre_span.finish();
    report.stats.preprocess = t0.elapsed();

    // ---- wave loop: speculative parallel rank+align, serial commit ------
    // `available[i]`: not yet consumed by a merge. `processed[i]`: the
    // walk reached a final verdict for i (committed, failed, or candidate-
    // less); deferred conflicts keep `processed` false and re-enter the
    // next wave.
    let mut available = vec![true; n];
    let mut processed = vec![false; n];
    // droppable() answers, memoized per function until a commit (epoch
    // bump) can change them.
    let mut droppable_memo: Vec<Option<bool>> = vec![None; n];
    let mut memo_epoch = committer.epoch();

    loop {
        let members: Vec<usize> =
            (0..n).filter(|&i| available[i] && !processed[i]).collect();
        if members.is_empty() {
            break;
        }
        report.stats.waves += 1;
        let mut wave_span = span_on(tracer, "pass", format!("wave {}", report.stats.waves));
        wave_span.arg("members", members.len() as u64);

        // Speculative phase: rank every member against the wave-entry
        // snapshot of `available`, then align its chosen pair, in index
        // order across the worker pool. Everything here is read-only on
        // the module and the search structure; each worker owns one
        // reusable alignment scratch.
        let m_ro: &Module = m;
        let search_ro = &*search;
        let members_ro = &members;
        let available_ro = &available;
        let parts_ro = &parts_cache;
        let funcs_ro = &funcs;
        let mut spec_span = span_on(tracer, "pass", "speculate");
        let outcomes: Vec<WaveOutcome> = par_map_indexed_with(
            members.len(),
            jobs,
            || (AlignScratch::new(), SearchScratch::new()),
            |(scratch, search_scratch), mi| {
                let i = members_ro[mi];
                let t_rank = Instant::now();
                let mut counters = QueryCounters::default();
                let set =
                    search_ro.best_candidates(i, available_ro, &mut counters, search_scratch);
                let best = set.choose(config.profile.as_ref(), |idx| funcs_ro[idx]);
                let rank_time = t_rank.elapsed();
                let stats_before = scratch.stats();
                let (plan, align_time, cache_misses) = match best {
                    Some((j, _)) => {
                        let t_align = Instant::now();
                        let mut misses = 0u32;
                        let rebuilt1;
                        let parts1 = match parts_ro.get(i) {
                            Some(p) => p,
                            None => {
                                misses += 1;
                                rebuilt1 = function_parts(m_ro.function(funcs_ro[i]));
                                &rebuilt1
                            }
                        };
                        let rebuilt2;
                        let parts2 = match parts_ro.get(j) {
                            Some(p) => p,
                            None => {
                                misses += 1;
                                rebuilt2 = function_parts(m_ro.function(funcs_ro[j]));
                                &rebuilt2
                            }
                        };
                        let plan = plan_blocks_with(
                            m_ro,
                            funcs_ro[i],
                            funcs_ro[j],
                            parts1,
                            parts2,
                            scratch,
                        );
                        let matched = plan.matched_insts();
                        (Some((plan, matched)), t_align.elapsed(), misses)
                    }
                    None => (None, Duration::ZERO, 0),
                };
                let delta = scratch.stats();
                WaveOutcome {
                    counters,
                    rank_time,
                    best,
                    plan,
                    align_time,
                    cache_misses,
                    align_cells: delta.cells - stats_before.cells,
                    scratch_grows: delta.dp_grows - stats_before.dp_grows,
                }
            });
        spec_span.arg("members", members.len() as u64);
        spec_span.arg(
            "scratch_grows",
            outcomes.iter().map(|o| o.scratch_grows).sum(),
        );
        spec_span.finish();

        // Replay the speculative per-pair durations end-to-end on track 1
        // (they ran concurrently; see the function docs for the layout).
        let mut lane_cursor = tracer.map(|t| t.now_ns()).unwrap_or(0);
        let mut walk_span = span_on(tracer, "pass", "commit_walk");
        walk_span.arg("members", members.len() as u64);

        // Serial commit walk in fixed index order: the only place that
        // mutates the module, the masks, or the report — identical for
        // every job count.
        for (mi, out) in outcomes.into_iter().enumerate() {
            let i = members[mi];
            report.stats.fingerprint_comparisons += out.counters.comparisons;
            report.stats.candidates_examined += out.counters.examined;
            report.stats.candidates_returned += out.counters.returned;
            report.stats.bucket_evictions += out.counters.evicted;
            report.stats.probe_collisions += out.counters.collisions;
            report.stats.lsh_allocs_saved += out.counters.saved_allocs;
            report.stats.align_cells += out.align_cells;
            if let Some(t) = tracer {
                let rank_ns = out.rank_time.as_nanos() as u64;
                t.complete(
                    "rank",
                    "rank",
                    1,
                    lane_cursor,
                    rank_ns,
                    vec![
                        ("member", i as u64),
                        ("examined", out.counters.examined),
                        ("returned", out.counters.returned),
                        ("evicted", out.counters.evicted),
                    ],
                );
                lane_cursor += rank_ns;
                if out.plan.is_some() {
                    let align_ns = out.align_time.as_nanos() as u64;
                    t.complete(
                        "align",
                        "align",
                        1,
                        lane_cursor,
                        align_ns,
                        vec![("member", i as u64), ("cells", out.align_cells)],
                    );
                    lane_cursor += align_ns;
                }
            }

            let Some((j, similarity)) = out.best else {
                report.stats.rank.fail += out.rank_time;
                processed[i] = true;
                continue;
            };
            report.stats.aligns_speculative += 1;
            report.stats.block_parts_cache_misses += u64::from(out.cache_misses);
            report.stats.block_parts_cache_hits += u64::from(2 - out.cache_misses);

            if !available[i] {
                // An earlier commit in this wave consumed i as a partner;
                // its speculative work is wasted and i is done for good.
                report.stats.aligns_wasted += 1;
                report.stats.rank.fail += out.rank_time;
                report.stats.align.fail += out.align_time;
                processed[i] = true;
                continue;
            }
            if !available[j] {
                // Only the partner was consumed: defer i to the next wave,
                // where it is re-ranked against the updated availability.
                report.stats.aligns_wasted += 1;
                report.stats.wave_conflicts += 1;
                report.stats.rank.fail += out.rank_time;
                report.stats.align.fail += out.align_time;
                continue;
            }
            report.stats.aligns_reused += 1;

            let (plan, matched) = out.plan.expect("aligned pair has a plan");
            let (f1, f2) = (funcs[i], funcs[j]);
            report.stats.pairs_attempted += 1;
            let total_insts =
                m.function(f1).num_linked_insts() + m.function(f2).num_linked_insts();
            let align_ratio =
                if total_insts == 0 { 0.0 } else { 2.0 * matched as f64 / total_insts as f64 };
            // HyFM's alignment-profitability gate: skip code generation when
            // even an optimistic estimate (every matched instruction shared,
            // ignoring operand selects) cannot pay for the fixed costs. This
            // is where most unprofitable pairs die cheaply.
            if committer.epoch() != memo_epoch {
                droppable_memo.fill(None);
                memo_epoch = committer.epoch();
            }
            let drop1 =
                *droppable_memo[i].get_or_insert_with(|| committer.droppable(m, f1));
            let drop2 =
                *droppable_memo[j].get_or_insert_with(|| committer.droppable(m, f2));
            let fixed = fixed_overhead(drop1, drop2);
            if matched == 0 || plan.estimated_savings(fixed) <= 0 {
                report.stats.rank.fail += out.rank_time;
                report.stats.align.fail += out.align_time;
                report.attempts.push(AttemptRecord {
                    f1,
                    f2,
                    similarity,
                    align_ratio,
                    committed: false,
                    size_delta: 0,
                    time: out.align_time,
                });
                processed[i] = true;
                continue;
            }

            // Codegen + profitability + commit.
            let t_cg = Instant::now();
            let mut commit_span = span_on(tracer, "commit", "commit");
            commit_span.arg("f1", f1.index() as u64);
            commit_span.arg("f2", f2.index() as u64);
            let outcome = committer.try_commit(m, f1, f2, &plan, config.merge);
            commit_span.arg("committed", u64::from(outcome.is_some()));
            commit_span.finish();
            let cg_elapsed = t_cg.elapsed();
            processed[i] = true;
            match outcome {
                Some(size_delta) => {
                    search.invalidate(i);
                    search.invalidate(j);
                    parts_cache.invalidate(i);
                    parts_cache.invalidate(j);
                    available[i] = false;
                    available[j] = false;
                    report.stats.merges_committed += 1;
                    report.stats.rank.success += out.rank_time;
                    report.stats.align.success += out.align_time;
                    report.stats.codegen.success += cg_elapsed;
                    report.attempts.push(AttemptRecord {
                        f1,
                        f2,
                        similarity,
                        align_ratio,
                        committed: true,
                        size_delta,
                        time: out.align_time + cg_elapsed,
                    });
                }
                None => {
                    report.stats.rank.fail += out.rank_time;
                    report.stats.align.fail += out.align_time;
                    report.stats.codegen.fail += cg_elapsed;
                    report.attempts.push(AttemptRecord {
                        f1,
                        f2,
                        similarity,
                        align_ratio,
                        committed: false,
                        size_delta: 0,
                        time: out.align_time + cg_elapsed,
                    });
                }
            }
        }
        walk_span.finish();
        if let Some(t) = tracer {
            // Cumulative samples: each series is monotone non-decreasing
            // across waves (asserted by the observability tests).
            t.counter(
                "pass",
                "wave_counters",
                vec![
                    ("merges_committed", report.stats.merges_committed as u64),
                    ("aligns_speculative", report.stats.aligns_speculative),
                    ("aligns_wasted", report.stats.aligns_wasted),
                    ("wave_conflicts", report.stats.wave_conflicts),
                    ("cache_hits", report.stats.block_parts_cache_hits),
                    ("cache_misses", report.stats.block_parts_cache_misses),
                ],
            );
        }
        wave_span.finish();
    }

    let rejects = committer.rejects();
    report.stats.commits_rejected_build = rejects.build;
    report.stats.commits_rejected_verify = rejects.verify;
    report.stats.commits_rejected_size = rejects.size;
    report.stats.size_after = module_size(m);
    report
}
