//! The function-merging pass: a thin wave-loop driver over the pipeline of
//! Figure 1 of the paper.
//!
//! ```text
//! preprocess   search structure + Committer + BlockPartsCache  (parallel)
//! loop (wave):
//!   speculate  rank + align every still-available function     (parallel)
//!   walk       classify each member, attempt, account          (serial)
//! ```
//!
//! Each wave snapshots the availability mask, then ranks every remaining
//! function and aligns its chosen pair speculatively on the worker pool
//! (`--jobs`). The serial walk revisits the wave in index order: a member
//! consumed by an earlier commit in the same wave is discarded, one whose
//! partner was taken is deferred to the next wave for re-ranking, and an
//! intact pair goes to [`Committer::attempt`], which alone decides its
//! fate. All module mutation and all counter accumulation happen in the
//! walk, so the merged module and every [`MergeReport`] counter are
//! **byte-identical for every `jobs` value**.
//!
//! Three strategies run through the
//! [`CandidateSearch`](crate::rank::CandidateSearch) seam: [`Strategy::Hyfm`]
//! (opcode-frequency fingerprints, exhaustive quadratic ranking),
//! [`Strategy::F3m`] (MinHash + LSH buckets under explicit [`MergeParams`])
//! and [`Strategy::F3mAdaptive`] (threshold and band count scaled to the
//! program size, Equations 3 and 4).
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
use crate::block_pairing::{BlockPartsCache, PairPlan};
use crate::codegen::MergeConfig;
use crate::commit::{Committer, Reject, Verdict};
use crate::profile::Profile;
use crate::rank::{build_search, CandidateSearch, QueryCounters, SearchScratch};

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

    /// The canonical strategy names, in evaluation order: what reports,
    /// figures and the wire protocol print.
    pub const STRATEGY_NAMES: [&'static str; 3] = ["hyfm", "f3m", "f3m-adaptive"];

    /// The default configuration of the strategy called `name`: one of
    /// [`STRATEGY_NAMES`](PassConfig::STRATEGY_NAMES), or `adaptive` as an
    /// alias of `f3m-adaptive`. `None` for anything else. Every front end
    /// (CLI, daemon, fuzzer, figure binaries) resolves names here.
    pub fn from_strategy_name(name: &str) -> Option<PassConfig> {
        match name {
            "hyfm" => Some(PassConfig::hyfm()),
            "f3m" => Some(PassConfig::f3m()),
            "f3m-adaptive" | "adaptive" => Some(PassConfig::f3m_adaptive()),
            _ => None,
        }
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

/// What `preprocess` builds and the waves share: read-only in `speculate`,
/// mutated only by the serial `walk`. Every index is into `funcs`.
struct PassState {
    funcs: Vec<FuncId>,
    search: Box<dyn CandidateSearch + Send + Sync>,
    committer: Committer,
    parts: BlockPartsCache,
    /// Not yet consumed by a merge.
    available: Vec<bool>,
    /// The walk reached a final verdict (committed, failed, or no
    /// candidate); a deferred member stays false and re-enters next wave.
    processed: Vec<bool>,
}

/// One wave member's speculative result, produced on the worker pool and
/// consumed by the serial commit walk.
struct WaveOutcome {
    /// Ranking counters for this query.
    counters: QueryCounters,
    /// Wall-clock of the rank query.
    rank_time: Duration,
    /// The chosen candidate's index and similarity with the speculative
    /// alignment plan for the pair, if ranking found one.
    pair: Option<(usize, f64, PairPlan)>,
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

/// What the commit walk decided for one wave member.
enum Fate {
    /// Ranking found no candidate; the member is done.
    NoCandidate,
    /// An earlier commit this wave consumed the member as a partner: its
    /// speculative work is wasted and it is done for good.
    SelfConsumed,
    /// Only the partner was consumed: deferred to the next wave, where it
    /// is re-ranked against the updated availability.
    Deferred,
    /// The pair reached [`Committer::attempt`].
    Attempted {
        f1: FuncId,
        f2: FuncId,
        similarity: f64,
        align_ratio: f64,
        verdict: Verdict,
        /// A `Rejected(Size)` that the merged-size lower bound decided,
        /// with no code generated.
        bounded: bool,
        /// Zero unless the pair got past the gate.
        codegen: Duration,
    },
}

impl MergeReport {
    /// Books one wave member: the only place the pass attributes stage
    /// time to the success/fail buckets, bumps the wave, attempt and
    /// reject counters, or writes the attempt log.
    fn account(&mut self, out: &WaveOutcome, fate: Fate) {
        let s = &mut self.stats;
        s.fingerprint_comparisons += out.counters.comparisons;
        s.sketch_comparisons += out.counters.sketch_comparisons;
        s.full_comparisons += out.counters.full_comparisons;
        s.candidates_examined += out.counters.examined;
        s.candidates_returned += out.counters.returned;
        s.bucket_evictions += out.counters.evicted;
        s.probe_collisions += out.counters.collisions;
        s.lsh_allocs_saved += out.counters.saved_allocs;
        s.align_cells += out.align_cells;
        if out.pair.is_some() {
            s.aligns_speculative += 1;
            s.block_parts_cache_misses += u64::from(out.cache_misses);
            s.block_parts_cache_hits += u64::from(2 - out.cache_misses);
        }
        let (mut committed, mut codegen_time) = (false, Duration::ZERO);
        match fate {
            Fate::NoCandidate => {}
            Fate::SelfConsumed => s.aligns_wasted += 1,
            Fate::Deferred => {
                s.aligns_wasted += 1;
                s.wave_conflicts += 1;
            }
            Fate::Attempted { f1, f2, similarity, align_ratio, verdict, bounded, codegen } => {
                s.aligns_reused += 1;
                s.pairs_attempted += 1;
                s.commits_bounded += u64::from(bounded);
                let mut size_delta = 0;
                match verdict {
                    Verdict::Unprofitable => {}
                    Verdict::Rejected(Reject::Build) => s.commits_rejected_build += 1,
                    Verdict::Rejected(Reject::Verify) => s.commits_rejected_verify += 1,
                    Verdict::Rejected(Reject::Size) => s.commits_rejected_size += 1,
                    Verdict::Committed { saved } => {
                        s.merges_committed += 1;
                        (committed, size_delta) = (true, saved);
                    }
                }
                codegen_time = codegen;
                self.attempts.push(AttemptRecord {
                    f1,
                    f2,
                    similarity,
                    align_ratio,
                    committed,
                    size_delta,
                    time: out.align_time + codegen,
                });
            }
        }
        // Figures 3 and 13: a member's whole stage time goes to the bucket
        // its attempt ended in; only a committed merge is a success.
        let spent = [out.rank_time, out.align_time, codegen_time];
        for (stage, spent) in [&mut s.rank, &mut s.align, &mut s.codegen].into_iter().zip(spent) {
            let bucket = if committed { &mut stage.success } else { &mut stage.fail };
            *bucket += spent;
        }
    }
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
    let mut st = preprocess(m, config, tracer, &mut report);

    // Wave loop: speculative parallel rank+align, then the serial walk.
    loop {
        let members: Vec<usize> =
            (0..st.funcs.len()).filter(|&i| st.available[i] && !st.processed[i]).collect();
        if members.is_empty() {
            break;
        }
        report.stats.waves += 1;
        let mut wave_span = span_on(tracer, "pass", format!("wave {}", report.stats.waves));
        wave_span.arg("members", members.len() as u64);
        let outcomes = speculate(m, &st, &members, config, tracer);
        walk(m, &mut st, &members, outcomes, config, tracer, &mut report);
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

    report.stats.size_after = module_size(m);
    report
}

/// Builds fingerprints + search structure, the reference index and the
/// encoded block parts, all fanned out across `jobs` threads, and records
/// the index shape and the stage time in `report`.
fn preprocess(
    m: &Module,
    config: &PassConfig,
    tracer: Option<&Tracer>,
    report: &mut MergeReport,
) -> PassState {
    let jobs = config.jobs.max(1);
    let funcs = m.merge_eligible();
    let n = funcs.len();
    report.stats.functions = n;

    let t0 = Instant::now();
    let mut pre_span = span_on(tracer, "pass", "preprocess");
    pre_span.arg("functions", n as u64);
    let search = {
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
    let committer = {
        let _s = span_on(tracer, "preprocess", "ref_index");
        Committer::build(m, jobs)
    };
    let parts = {
        let _s = span_on(tracer, "preprocess", "block_parts");
        BlockPartsCache::build(m, &funcs, jobs)
    };
    pre_span.finish();
    report.stats.preprocess = t0.elapsed();
    let (available, processed) = (vec![true; n], vec![false; n]);
    PassState { funcs, search, committer, parts, available, processed }
}

/// The speculative phase of one wave: ranks every member against the
/// wave-entry snapshot of `available`, then aligns its chosen pair, in
/// index order across the worker pool. Everything here is read-only on the
/// module and the pass state; each worker owns one reusable alignment
/// scratch.
fn speculate(
    m: &Module,
    st: &PassState,
    members: &[usize],
    config: &PassConfig,
    tracer: Option<&Tracer>,
) -> Vec<WaveOutcome> {
    let mut spec_span = span_on(tracer, "pass", "speculate");
    let outcomes: Vec<WaveOutcome> = par_map_indexed_with(
        members.len(),
        config.jobs.max(1),
        || (AlignScratch::new(), SearchScratch::new()),
        |(scratch, search_scratch), mi| {
            let i = members[mi];
            let t_rank = Instant::now();
            let mut counters = QueryCounters::default();
            let set = st.search.best_candidates(i, &st.available, &mut counters, search_scratch);
            let best = set.choose(config.profile.as_ref(), |idx| st.funcs[idx]);
            let rank_time = t_rank.elapsed();
            let before = scratch.stats();
            let (pair, align_time, cache_misses) = match best {
                Some((j, similarity)) => {
                    let t_align = Instant::now();
                    let (plan, misses) = st.parts.plan(m, &st.funcs, i, j, scratch);
                    (Some((j, similarity, plan)), t_align.elapsed(), misses)
                }
                None => (None, Duration::ZERO, 0),
            };
            let after = scratch.stats();
            WaveOutcome {
                counters,
                rank_time,
                pair,
                align_time,
                cache_misses,
                align_cells: after.cells - before.cells,
                scratch_grows: after.dp_grows - before.dp_grows,
            }
        },
    );
    spec_span.arg("members", members.len() as u64);
    spec_span.arg("scratch_grows", outcomes.iter().map(|o| o.scratch_grows).sum());
    spec_span.finish();
    outcomes
}

/// The serial commit walk of one wave, in fixed index order: the only
/// place that mutates the module, the masks, or the report — identical
/// for every job count. Each member is classified into a [`Fate`] and
/// booked through [`MergeReport::account`].
fn walk(
    m: &mut Module,
    st: &mut PassState,
    members: &[usize],
    outcomes: Vec<WaveOutcome>,
    config: &PassConfig,
    tracer: Option<&Tracer>,
    report: &mut MergeReport,
) {
    // Replay the speculative per-pair durations end-to-end on track 1
    // (they ran concurrently; see `run_pass_traced` for the layout).
    let mut lane_cursor = tracer.map(|t| t.now_ns()).unwrap_or(0);
    let mut walk_span = span_on(tracer, "pass", "commit_walk");
    walk_span.arg("members", members.len() as u64);
    for (&i, out) in members.iter().zip(outcomes) {
        if let Some(t) = tracer {
            lane_cursor = replay_on_lane(t, lane_cursor, i, &out);
        }
        let fate = match &out.pair {
            None => Fate::NoCandidate,
            Some(_) if !st.available[i] => Fate::SelfConsumed,
            Some((j, ..)) if !st.available[*j] => Fate::Deferred,
            Some((j, similarity, plan)) => {
                attempt_pair(m, st, (i, *j), *similarity, plan, config, tracer)
            }
        };
        st.processed[i] = !matches!(fate, Fate::Deferred);
        report.account(&out, fate);
    }
    walk_span.finish();
}

/// Hands the still-intact pair `(i, j)` to [`Committer::attempt`] and, on
/// a commit, retires both functions from the search structure, the parts
/// cache and the availability mask. A `commit` span is recorded only when
/// the pair got past the gate.
fn attempt_pair(
    m: &mut Module,
    st: &mut PassState,
    (i, j): (usize, usize),
    similarity: f64,
    plan: &PairPlan,
    config: &PassConfig,
    tracer: Option<&Tracer>,
) -> Fate {
    let (f1, f2) = (st.funcs[i], st.funcs[j]);
    let matched = plan.matched_insts() as f64;
    let total_insts = m.function(f1).num_linked_insts() + m.function(f2).num_linked_insts();
    let align_ratio = if total_insts == 0 { 0.0 } else { 2.0 * matched / total_insts as f64 };
    let bounded_before = st.committer.bounded();
    let (verdict, codegen) = st.committer.attempt(m, f1, f2, plan, config.merge);
    let bounded = st.committer.bounded() > bounded_before;
    let committed = matches!(verdict, Verdict::Committed { .. });
    if let (Some(t), Some(spent)) = (tracer, codegen) {
        let dur_ns = spent.as_nanos() as u64;
        let args = vec![
            ("f1", f1.index() as u64),
            ("f2", f2.index() as u64),
            ("committed", u64::from(committed)),
            ("bounded", u64::from(bounded)),
        ];
        t.complete("commit", "commit", 0, t.now_ns().saturating_sub(dur_ns), dur_ns, args);
    }
    if committed {
        for idx in [i, j] {
            st.search.invalidate(idx);
            st.parts.invalidate(idx);
            st.available[idx] = false;
        }
    }
    let codegen = codegen.unwrap_or_default();
    Fate::Attempted { f1, f2, similarity, align_ratio, verdict, bounded, codegen }
}

/// Lays one member's rank (and, if it aligned, align) duration on the
/// replay track starting at `cursor`; returns the advanced cursor.
fn replay_on_lane(t: &Tracer, mut cursor: u64, member: usize, out: &WaveOutcome) -> u64 {
    let rank_ns = out.rank_time.as_nanos() as u64;
    let args = vec![
        ("member", member as u64),
        ("examined", out.counters.examined),
        ("returned", out.counters.returned),
        ("evicted", out.counters.evicted),
    ];
    t.complete("rank", "rank", 1, cursor, rank_ns, args);
    cursor += rank_ns;
    if out.pair.is_some() {
        let align_ns = out.align_time.as_nanos() as u64;
        let args = vec![("member", member as u64), ("cells", out.align_cells)];
        t.complete("align", "align", 1, cursor, align_ns, args);
        cursor += align_ns;
    }
    cursor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_pairing::plan_blocks;
    use crate::codegen::{build_merged, build_thunk};
    use f3m_ir::printer::print_module;
    use f3m_ir::size::function_size;
    use f3m_ir::verify::verify_function;

    /// What the commit path decided before there was a bound: build the
    /// merged function, verify it, build both thunks, compare sizes. Leaves
    /// `m` as it found it.
    fn build_and_compare(
        m: &mut Module,
        (f1, f2): (FuncId, FuncId),
        [drop1, drop2]: [bool; 2],
        plan: &PairPlan,
        config: MergeConfig,
    ) -> Verdict {
        let name = m.fresh_name("__merged");
        let Ok(mf) = build_merged(m, f1, f2, plan, config, name) else {
            return Verdict::Rejected(Reject::Build);
        };
        let size_before = function_size(m.function(f1)) + function_size(m.function(f2));
        let merged_size = function_size(&mf.func);
        let merged_id = m.add_function(mf.func);
        let verified = verify_function(m, merged_id).is_ok();
        let thunks = [(f1, false, drop1, &mf.param_map1), (f2, true, drop2, &mf.param_map2)]
            .map(|(f, fid, dropped, map)| {
                if dropped { 0 } else { function_size(&build_thunk(m, f, merged_id, fid, map)) }
            });
        m.remove_last_function(merged_id);
        let size_after = merged_size + thunks[0] + thunks[1];
        if !verified {
            Verdict::Rejected(Reject::Verify)
        } else if size_after >= size_before {
            Verdict::Rejected(Reject::Size)
        } else {
            Verdict::Committed { saved: size_before as i64 - size_after as i64 }
        }
    }

    /// Replaying the attempt log through [`Committer::attempt`] on a fresh
    /// copy reproduces every verdict, the per-verdict tallies are exactly
    /// what the report counted, and every verdict past the gate is the one
    /// building and measuring the pair arrives at — the bound in front of
    /// the build decides sooner, never differently.
    #[test]
    fn verdict_tallies_match_the_report_counters() {
        for (spec, config) in f3m_workloads::mini_suite().iter().zip([
            PassConfig::hyfm(),
            PassConfig::f3m(),
            PassConfig::f3m_adaptive().with_jobs(4),
        ]) {
            let pristine = f3m_workloads::build_module(spec);
            let mut merged = pristine.clone();
            let report = run_pass(&mut merged, &config);
            let s = &report.stats;
            assert!(s.merges_committed > 0 && s.commits_rejected_size > 0, "{}", spec.name);
            // Both ways of rejecting on size happen: by the bound, and by
            // measuring a build the bound let through.
            assert!(0 < s.commits_bounded && s.commits_bounded < s.commits_rejected_size);

            let mut replay = pristine;
            let mut committer = Committer::build(&replay, 1);
            let (mut unprofitable, mut committed) = (0, 0);
            let (mut build, mut verify, mut size) = (0, 0, 0);
            for a in &report.attempts {
                let plan = plan_blocks(&replay, a.f1, a.f2);
                let pair = (a.f1, a.f2);
                let drops = [a.f1, a.f2].map(|f| committer.droppable(&replay, f));
                let measured = build_and_compare(&mut replay, pair, drops, &plan, config.merge);
                let (verdict, codegen) =
                    committer.attempt(&mut replay, a.f1, a.f2, &plan, config.merge);
                assert_eq!(codegen.is_some(), verdict != Verdict::Unprofitable);
                match verdict {
                    Verdict::Unprofitable => unprofitable += 1,
                    Verdict::Rejected(Reject::Build) => build += 1,
                    Verdict::Rejected(Reject::Verify) => verify += 1,
                    Verdict::Rejected(Reject::Size) => size += 1,
                    Verdict::Committed { saved } => {
                        committed += 1;
                        assert_eq!((a.committed, a.size_delta), (true, saved));
                    }
                }
                if verdict != Verdict::Unprofitable {
                    assert_eq!(verdict, measured, "{}: {:?} + {:?}", spec.name, a.f1, a.f2);
                }
                assert_eq!(a.committed, matches!(verdict, Verdict::Committed { .. }));
            }
            assert_eq!(committer.bounded(), s.commits_bounded);
            assert_eq!(print_module(&replay), print_module(&merged), "{}", spec.name);
            assert_eq!(committed, s.merges_committed);
            let rejects =
                (s.commits_rejected_build, s.commits_rejected_verify, s.commits_rejected_size);
            assert_eq!((build, verify, size), rejects);
            let rejected = (build + verify + size) as usize;
            assert_eq!(unprofitable + rejected + committed, s.pairs_attempted);
            assert_eq!(s.aligns_reused as usize, s.pairs_attempted);
            assert_eq!(s.aligns_speculative, s.aligns_reused + s.aligns_wasted);
        }
    }

    #[test]
    fn strategy_names_resolve_to_their_configurations() {
        let strategy = |name| PassConfig::from_strategy_name(name).map(|c| c.strategy);
        assert!(matches!(strategy("hyfm"), Some(Strategy::Hyfm)));
        assert!(matches!(strategy("f3m"), Some(Strategy::F3m(_))));
        assert!(matches!(strategy("f3m-adaptive"), Some(Strategy::F3mAdaptive)));
        assert!(matches!(strategy("adaptive"), Some(Strategy::F3mAdaptive)));
        assert!(strategy("F3M").is_none() && strategy("").is_none());
        assert!(PassConfig::STRATEGY_NAMES.iter().all(|n| strategy(n).is_some()));
    }
}
