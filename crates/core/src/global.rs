//! Cross-module global merging: the optimistic two-phase engine over the
//! resident corpus.
//!
//! Per-module merging (the classic pass) can only deduplicate functions
//! that happen to live in the same translation unit. At fleet scale the
//! big wins sit *across* modules — N build targets each carrying their
//! own copy of the same helper — which is exactly the shape the corpus's
//! LSH index already sees globally. Following the optimistic
//! global function merging recipe, [`GlobalMergePlanner`] runs two
//! phases:
//!
//! 1. **Optimistic phase** — draw candidate pairs from the corpus-global
//!    index ([`Corpus::global_candidates`]), speculatively align every
//!    pair in parallel against the pristine combined module, then commit
//!    greedily in pair-priority order through the same
//!    [`Committer`] seam the per-module pass uses. Everything the pass
//!    guarantees (serial commit walk, jobs-count byte-identity) carries
//!    over.
//! 2. **Verification phase** — re-check every speculative merge
//!    globally: a profitability floor over all referencing modules (the
//!    committed saving already prices call-site rewrites and thunk
//!    retention corpus-wide), the module verifier, a print→parse
//!    fixpoint, and an interpreter differential probing each merge's
//!    thunks and direct callers against the pristine corpus. Losers are
//!    **rolled back by transactional replay**: they join an excluded-pair
//!    set and the optimistic phase re-runs from a pristine combined
//!    module, so an undone merge leaves no ghost state — the final
//!    corpus is byte-identical to a run that excluded the losers up
//!    front. The excluded set grows monotonically, so the replay loop
//!    terminates.
//!
//! All [`GlobalStats`] counters are deterministic (no wall clock), so
//! [`GlobalMergeReport::to_json`] doubles as the determinism key for the
//! daemon's `global_merge` verb and the regression gate.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use f3m_fingerprint::par::par_map_indexed_with;
use f3m_interp::oracle::observe;
use f3m_interp::{Limits, Val};
use f3m_ir::ids::FuncId;
use f3m_ir::inst::Opcode;
use f3m_ir::module::Module;
use f3m_ir::size::module_size;
use f3m_ir::types::TypeKind;
use f3m_ir::value::ValueKind;
use f3m_trace::json::Writer;
use f3m_trace::stats::{self, Stat, Value::*};
use f3m_trace::MetricsRegistry;

use crate::align::AlignScratch;
use crate::block_pairing::{BlockPartsCache, PairPlan};
use crate::codegen::MergeConfig;
use crate::commit::{Committer, Verdict};
use crate::corpus::{Corpus, GlobalPair};

/// Deterministic integer salts for the differential probes. Each probe
/// calls an entry point with per-parameter values derived from one salt,
/// in both the pristine and the merged corpus, and compares the folded
/// [`Observation`](f3m_interp::oracle::Observation)s.
const PROBE_SALTS: [i64; 3] = [0, 7, -9];

/// Configuration of a [`GlobalMergePlanner`] run.
#[derive(Clone, Debug)]
pub struct GlobalPlanConfig {
    /// Code-generation options forwarded to the committer.
    pub merge: MergeConfig,
    /// Worker threads for the speculative alignment fan-out. Any value
    /// produces the same merged module and report.
    pub jobs: usize,
    /// Candidates drawn per resident function from the global index.
    pub k: usize,
    /// Verification-phase profitability floor: a surviving merge must
    /// save at least this many bytes across all referencing modules.
    pub min_profit: i64,
    /// Execution limits for the differential probes.
    pub limits: Limits,
    /// Replay-round safety bound (the excluded set grows every round, so
    /// the loop converges long before this in practice).
    pub max_rounds: usize,
    /// Pairs (qualified names, either order) excluded before the first
    /// optimistic round — the rollback-soundness test replays a run with
    /// its losers pre-excluded through this.
    pub excluded: Vec<(String, String)>,
}

impl Default for GlobalPlanConfig {
    fn default() -> GlobalPlanConfig {
        GlobalPlanConfig {
            merge: MergeConfig::default(),
            jobs: 1,
            k: 4,
            min_profit: 1,
            limits: Limits::default(),
            max_rounds: 16,
            excluded: Vec::new(),
        }
    }
}

impl GlobalPlanConfig {
    /// Sets the speculative-phase worker-thread count.
    pub fn with_jobs(mut self, jobs: usize) -> GlobalPlanConfig {
        self.jobs = jobs;
        self
    }
}

/// Deterministic counters of one global merge. Every field is a pure
/// function of the resident corpus and the [`GlobalPlanConfig`] — no
/// wall clock, no job-count dependence — so the rendered JSON is the
/// determinism key.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GlobalStats {
    /// Live resident functions when candidates were drawn.
    pub functions: u64,
    /// Live resident modules.
    pub modules: u64,
    /// Candidate pairs drawn from the global index (after symmetric
    /// dedup, before exclusion).
    pub pairs_considered: u64,
    /// Candidate pairs whose endpoints live in different modules.
    pub cross_module_pairs: u64,
    /// Merges committed by the *first* optimistic round — before any
    /// verification verdicts.
    pub optimistic_merges: u64,
    /// Merges surviving the final verification round.
    pub verified_merges: u64,
    /// Optimistic merges rolled back across all replay rounds.
    pub rolled_back: u64,
    /// Optimistic+verification rounds executed (1 = no rollback).
    pub rounds: u64,
    /// Differential probe comparisons performed.
    pub differential_probes: u64,
    /// Probes skipped because either side hit a resource limit.
    pub differential_skips: u64,
    /// Bytes saved by the surviving merges, summed corpus-wide.
    pub global_profit_bytes: u64,
    /// Combined-module size before any merging.
    pub size_before: u64,
    /// Combined-module size after the surviving merges.
    pub size_after: u64,
}

/// Every counter, in [`GlobalStats::to_json`] order: the one place a
/// counter is named besides its field.
const GLOBAL_STATS: &[Stat<GlobalStats>] = &[
    Stat::det("functions", "functions", |s| Count(s.functions)),
    Stat::det("modules", "modules", |s| Count(s.modules)),
    Stat::det("pairs_considered", "pairs", |s| Count(s.pairs_considered)),
    Stat::det("cross_module_pairs", "pairs", |s| Count(s.cross_module_pairs)),
    Stat::det("optimistic_merges", "merges", |s| Count(s.optimistic_merges)),
    Stat::det("verified_merges", "merges", |s| Count(s.verified_merges)),
    Stat::det("rolled_back", "merges", |s| Count(s.rolled_back)),
    Stat::det("rounds", "rounds", |s| Count(s.rounds)),
    Stat::det("differential_probes", "probes", |s| Count(s.differential_probes)),
    Stat::det("differential_skips", "probes", |s| Count(s.differential_skips)),
    Stat::det("global_profit_bytes", "bytes", |s| Count(s.global_profit_bytes)),
    Stat::det("size_before", "bytes", |s| Count(s.size_before)),
    Stat::det("size_after", "bytes", |s| Count(s.size_after)),
    Stat::json_only("size_reduction", |s| Real(s.size_reduction())),
];

/// Exact top-level key set (and order) of [`GlobalStats::to_json`]. The
/// regression gate and the CI smoke greps consume these names.
pub const GLOBAL_STATS_JSON_KEYS: &[&str] =
    &stats::keys::<_, { GLOBAL_STATS.len() }>(GLOBAL_STATS);

impl GlobalStats {
    /// Fraction of the combined size removed by the surviving merges.
    pub fn size_reduction(&self) -> f64 {
        if self.size_before == 0 {
            0.0
        } else {
            1.0 - self.size_after as f64 / self.size_before as f64
        }
    }

    /// Renders the stats as a JSON object with exactly
    /// [`GLOBAL_STATS_JSON_KEYS`] in order.
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(512);
        stats::write_object(&mut w, GLOBAL_STATS, self);
        w.finish()
    }

    /// Registers every counter as a deterministic metric under
    /// `<prefix>.` for the perf-regression gate.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        stats::export(reg, prefix, GLOBAL_STATS, self);
    }
}

/// One surviving merge: the two qualified originals and the bytes the
/// commit saved corpus-wide.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalMergeRecord {
    /// Lexicographically smaller qualified endpoint.
    pub a: String,
    /// Lexicographically larger qualified endpoint.
    pub b: String,
    /// Bytes saved by this commit (merged body + surviving thunks vs the
    /// two originals, with every call site already rewritten).
    pub saved: i64,
    /// Whether the endpoints live in different resident modules.
    pub cross_module: bool,
}

/// The result of a [`GlobalMergePlanner`] run.
#[derive(Clone, Debug, Default)]
pub struct GlobalMergeReport {
    /// Deterministic counters.
    pub stats: GlobalStats,
    /// Surviving merges, in commit order of the final round.
    pub merges: Vec<GlobalMergeRecord>,
    /// Pairs rolled back by verification, in rollback order across
    /// rounds. Feeding these into [`GlobalPlanConfig::excluded`] and
    /// re-running reproduces the final module byte-for-byte.
    pub rolled_back_pairs: Vec<(String, String)>,
}

impl GlobalMergeReport {
    /// Renders the report as one JSON object: `stats` (exactly
    /// [`GLOBAL_STATS_JSON_KEYS`]), `merges`, and `rolled_back`. Every
    /// field is deterministic, so this string is the `global_merge`
    /// determinism key.
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(512 + self.merges.len() * 96);
        stats::write_object(w.begin_object().key("stats"), GLOBAL_STATS, &self.stats);
        w.key("merges").begin_array();
        for rec in &self.merges {
            w.begin_object().key("a").str(&rec.a).key("b").str(&rec.b);
            w.key("saved").raw(rec.saved).key("cross_module").bool(rec.cross_module).end_object();
        }
        w.end_array().key("rolled_back").begin_array();
        for (a, b) in &self.rolled_back_pairs {
            w.begin_array().str(a).str(b).end_array();
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Registers the stats counters under `<prefix>.`.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        self.stats.export_metrics(reg, prefix);
    }
}

/// A merge committed by one optimistic round, before verification.
struct Speculative {
    key: (String, String),
    saved: i64,
    cross_module: bool,
    /// The pair's `FuncId`s in the pristine combined module.
    f1: FuncId,
    f2: FuncId,
}

/// The two-phase cross-module merge engine. See the module docs for the
/// phase structure and the rollback rule.
pub struct GlobalMergePlanner<'c> {
    corpus: &'c Corpus,
    cfg: GlobalPlanConfig,
}

impl<'c> GlobalMergePlanner<'c> {
    pub fn new(corpus: &'c Corpus, cfg: GlobalPlanConfig) -> GlobalMergePlanner<'c> {
        GlobalMergePlanner { corpus, cfg }
    }

    /// Runs both phases to fixpoint and returns the report, the merged
    /// combined module, and the epoch the candidate pairs were drawn at.
    /// The resident corpus is never mutated — callers decide what to do
    /// with the merged module (and whether a raced epoch supersedes it).
    pub fn run(&self) -> Result<(GlobalMergeReport, Module, u64), String> {
        let (epoch, pairs) = self.corpus.global_candidates(self.cfg.k)?;
        let snapshot = self.corpus.stats();

        let mut report = GlobalMergeReport::default();
        report.stats.functions = snapshot.functions_live as u64;
        report.stats.modules = snapshot.modules_live as u64;
        report.stats.pairs_considered = pairs.len() as u64;
        report.stats.cross_module_pairs =
            pairs.iter().filter(|p| p.cross_module).count() as u64;

        let pristine = self.corpus.combined_module()?;
        report.stats.size_before = module_size(&pristine) as u64;

        let mut excluded: HashSet<(String, String)> =
            self.cfg.excluded.iter().map(|(a, b)| pair_key(a, b)).collect();

        loop {
            report.stats.rounds += 1;
            if report.stats.rounds > self.cfg.max_rounds as u64 {
                return Err(format!(
                    "global merge failed to converge after {} rounds",
                    self.cfg.max_rounds
                ));
            }
            let mut m = pristine.clone();
            let committed = self.optimistic_phase(&mut m, &pairs, &excluded)?;
            if report.stats.rounds == 1 {
                report.stats.optimistic_merges = committed.len() as u64;
            }
            let losers = self.verification_phase(&pristine, &m, &committed, &mut report.stats);
            if losers.is_empty() {
                report.stats.verified_merges = committed.len() as u64;
                report.stats.global_profit_bytes =
                    committed.iter().map(|s| s.saved.max(0) as u64).sum();
                report.stats.size_after = module_size(&m) as u64;
                report.merges = committed
                    .into_iter()
                    .map(|s| GlobalMergeRecord {
                        a: s.key.0,
                        b: s.key.1,
                        saved: s.saved,
                        cross_module: s.cross_module,
                    })
                    .collect();
                return Ok((report, m, epoch));
            }
            report.stats.rolled_back += losers.len() as u64;
            for key in losers {
                excluded.insert(key.clone());
                report.rolled_back_pairs.push(key);
            }
        }
    }

    /// One optimistic round: speculative parallel alignment of every
    /// non-excluded pair against the pristine `m`, then a serial commit
    /// walk in pair-priority order. Mirrors the per-module pass's
    /// speculate/commit split, so the merged module and the returned
    /// commit list are byte-identical for every `jobs` value.
    fn optimistic_phase(
        &self,
        m: &mut Module,
        pairs: &[GlobalPair],
        excluded: &HashSet<(String, String)>,
    ) -> Result<Vec<Speculative>, String> {
        let jobs = self.cfg.jobs.max(1);
        let funcs = m.merge_eligible();
        let index_of: HashMap<&str, usize> =
            funcs.iter().enumerate().map(|(i, &f)| (m.function(f).name.as_str(), i)).collect();

        // Resolve pairs to function indexes, dropping excluded pairs and
        // any endpoint that is no longer merge-eligible in the combined
        // module (e.g. raced away — the caller re-checks the epoch).
        let work: Vec<(usize, usize, (String, String), bool)> = pairs
            .iter()
            .filter(|p| !excluded.contains(&(p.a.clone(), p.b.clone())))
            .filter_map(|p| {
                let i = *index_of.get(p.a.as_str())?;
                let j = *index_of.get(p.b.as_str())?;
                Some((i, j, (p.a.clone(), p.b.clone()), p.cross_module))
            })
            .collect();

        // Speculative phase: plan every pair against the pristine module
        // on the worker pool. Read-only, so job count changes wall-clock
        // time only.
        let parts = BlockPartsCache::build(m, &funcs, jobs);
        let m_ro: &Module = m;
        let plans: Vec<PairPlan> =
            par_map_indexed_with(work.len(), jobs, AlignScratch::new, |scratch, wi| {
                let (i, j, _, _) = work[wi];
                parts.plan(m_ro, &funcs, i, j, scratch).0
            });

        // Serial commit walk in pair-priority order: the only mutation
        // point, identical for every job count.
        let mut committer = Committer::build(m, jobs);
        let mut available = vec![true; funcs.len()];
        let mut committed = Vec::new();
        for ((i, j, key, cross_module), plan) in work.into_iter().zip(plans) {
            if !available[i] || !available[j] {
                continue; // an earlier commit consumed an endpoint
            }
            let (f1, f2) = (funcs[i], funcs[j]);
            if let (Verdict::Committed { saved }, _) =
                committer.attempt(m, f1, f2, &plan, self.cfg.merge)
            {
                available[i] = false;
                available[j] = false;
                committed.push(Speculative { key, saved, cross_module, f1, f2 });
            }
        }
        Ok(committed)
    }

    /// The verification phase over one optimistic round: returns the pair
    /// keys to roll back (empty = the round stands).
    ///
    /// Checks, in order:
    /// 1. profitability — a merge must save at least `min_profit` bytes
    ///    corpus-wide (the committed delta already prices every rewritten
    ///    call site and retained thunk),
    /// 2. the module verifier plus a print→parse fixpoint over the whole
    ///    merged corpus,
    /// 3. an interpreter differential: each merge's endpoints (through
    ///    their thunks, when retained) and every pristine direct caller
    ///    of an endpoint are probed with [`PROBE_SALTS`] in the pristine
    ///    and merged corpus, and the folded observations must agree.
    ///
    /// A failing probe rolls back every merge it can implicate: the
    /// merges whose endpoints the probed function calls directly (or is).
    /// A whole-module failure (verifier, fixpoint) implicates the entire
    /// round — conservative, sound, and still convergent.
    fn verification_phase(
        &self,
        pristine: &Module,
        merged: &Module,
        committed: &[Speculative],
        stats: &mut GlobalStats,
    ) -> Vec<(String, String)> {
        if committed.is_empty() {
            return Vec::new();
        }
        let mut losers: BTreeSet<(String, String)> = BTreeSet::new();

        // 1. Global profitability floor.
        for s in committed {
            if s.saved < self.cfg.min_profit {
                losers.insert(s.key.clone());
            }
        }

        // 2. Whole-module verifier + print→parse fixpoint. `try_commit`
        // verifies each merged function already, so a failure here means
        // a cross-merge interaction — attribute it to the whole round.
        let all_keys = || committed.iter().map(|s| s.key.clone()).collect::<Vec<_>>();
        if f3m_ir::verify::verify_module(merged).is_err() {
            return all_keys();
        }
        let printed = f3m_ir::printer::print_module(merged);
        if f3m_ir::parser::check_print_fixpoint(&printed).is_err() {
            return all_keys();
        }

        // 3. Interpreter differential. Probe entry points: each merge's
        // endpoints plus their pristine direct callers — the functions
        // whose behaviour the commit could have changed. `blame` maps an
        // entry point back to the merges it can implicate.
        let callers = direct_callers(pristine);
        let endpoint_of: HashMap<&str, usize> = committed
            .iter()
            .enumerate()
            .flat_map(|(n, s)| [(s.key.0.as_str(), n), (s.key.1.as_str(), n)])
            .collect();
        let mut blame: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
        for (n, s) in committed.iter().enumerate() {
            for &f in &[s.f1, s.f2] {
                let name = &pristine.function(f).name;
                blame.entry(name.clone()).or_default().insert(n);
                for caller in callers.get(&f).into_iter().flatten() {
                    let caller_name = pristine.function(*caller).name.clone();
                    let mut implicated: BTreeSet<usize> = BTreeSet::new();
                    implicated.insert(n);
                    // The caller may reach endpoints of other merges too.
                    if let Some(&other) = endpoint_of.get(caller_name.as_str()) {
                        implicated.insert(other);
                    }
                    blame.entry(caller_name).or_default().extend(implicated);
                }
            }
        }

        for (entry, implicated) in &blame {
            if implicated.iter().all(|&n| losers.contains(&committed[n].key)) {
                continue; // every implicated merge is already rolled back
            }
            let Some(pf) = pristine.lookup_function(entry) else { continue };
            // Dropped originals become declarations in the merged module;
            // their behaviour is covered through their callers.
            let defined_in_merged = merged
                .lookup_function(entry)
                .is_some_and(|f| !merged.function(f).is_declaration);
            if !defined_in_merged {
                continue;
            }
            for salt in PROBE_SALTS {
                let args = probe_args(pristine, pf, salt);
                let base = observe(pristine, entry, &args, self.cfg.limits);
                let obs = observe(merged, entry, &args, self.cfg.limits);
                let Some(agree) = base.agrees(&obs) else {
                    stats.differential_skips += 1;
                    continue;
                };
                stats.differential_probes += 1;
                if !agree {
                    for &n in implicated {
                        losers.insert(committed[n].key.clone());
                    }
                    break;
                }
            }
        }

        losers.into_iter().collect()
    }
}

/// Normalizes a pair to its canonical `(min, max)` name order.
pub fn pair_key(a: &str, b: &str) -> (String, String) {
    if a <= b {
        (a.to_string(), b.to_string())
    } else {
        (b.to_string(), a.to_string())
    }
}

/// Deterministic per-parameter probe values for one salt.
fn probe_args(m: &Module, f: FuncId, salt: i64) -> Vec<Val> {
    m.function(f)
        .params
        .iter()
        .enumerate()
        .map(|(i, &ty)| match m.types.kind(ty) {
            TypeKind::Int(_) => Val::Int(salt.wrapping_add(i as i64)).normalize(&m.types, ty),
            TypeKind::F32 | TypeKind::F64 => Val::Float(salt as f64 * 0.5 + i as f64),
            TypeKind::Ptr => Val::Ptr(0),
            _ => Val::Undef,
        })
        .collect()
}

/// Map from callee to the defined functions that call it directly (the
/// same callee-position scan the commit index performs).
fn direct_callers(m: &Module) -> HashMap<FuncId, Vec<FuncId>> {
    let mut callers: HashMap<FuncId, Vec<FuncId>> = HashMap::new();
    for (owner, f) in m.functions() {
        if f.is_declaration {
            continue;
        }
        let mut seen: HashSet<FuncId> = HashSet::new();
        for (_, inst) in f.linked_insts() {
            if !matches!(inst.op, Opcode::Call | Opcode::Invoke) {
                continue;
            }
            if let Some(&op) = inst.operands.first() {
                if let ValueKind::FuncRef(target) = f.value(op).kind {
                    if seen.insert(target) {
                        callers.entry(target).or_default().push(owner);
                    }
                }
            }
        }
    }
    callers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use f3m_interp::oracle::Observation;
    use f3m_workloads::WorkloadSpec;

    fn workload(name: &str, seed: u64, functions: usize) -> Module {
        let mut spec = f3m_workloads::mini_suite()[0].clone();
        spec.functions = functions;
        spec.seed = seed;
        let mut m = f3m_workloads::build_module(&spec);
        m.name = name.to_string();
        m
    }

    fn corpus_of(mods: &[Module]) -> Corpus {
        let c = Corpus::new(CorpusConfig { jobs: 2, ..CorpusConfig::default() });
        for m in mods {
            c.ingest(m.clone()).unwrap();
        }
        c
    }

    /// Two modules generated from the same seed are function-for-function
    /// twins across the module boundary: global merging must find
    /// cross-module pairs and commit verified merges.
    #[test]
    fn global_merge_finds_cross_module_twins() {
        let mods = [workload("m0", 41, 18), workload("m1", 41, 18)];
        let c = corpus_of(&mods);
        let planner = GlobalMergePlanner::new(&c, GlobalPlanConfig::default());
        let (report, merged, _) = planner.run().unwrap();
        assert!(report.stats.cross_module_pairs > 0, "twins must collide in the index");
        assert!(report.stats.verified_merges > 0, "twins must merge");
        assert!(
            report.merges.iter().any(|r| r.cross_module),
            "at least one surviving merge must cross the module boundary"
        );
        assert!(report.stats.size_after < report.stats.size_before);
        f3m_ir::verify::verify_module(&merged).unwrap();
        assert_eq!(
            report.stats.global_profit_bytes,
            report.merges.iter().map(|r| r.saved.max(0) as u64).sum::<u64>()
        );
    }

    /// The economics of going global: a per-module pass cannot see a twin
    /// that lives in another module, so over three modules of which two
    /// share a seed the global plan saves strictly more bytes than the sum
    /// of the ordinary F3M pass over each — and on the same split of the
    /// scaled Table I `chrome-scale` spec, whose families mostly fold
    /// inside a module already, never fewer.
    #[test]
    fn global_plan_saves_more_than_per_module_passes() {
        let mut twinned = f3m_workloads::mini_suite()[0].clone();
        (twinned.functions, twinned.seed) = (12, 4321);
        let chrome = f3m_workloads::table1().pop().expect("chrome-scale is the last row");
        for (spec, strictly) in [(twinned, true), (chrome.scaled(0.0002), false)] {
            let mods: Vec<Module> = (0..3u64)
                .map(|i| {
                    let seed = if i < 2 { spec.seed } else { spec.seed + 1000 + i };
                    let mut m = f3m_workloads::build_module(&WorkloadSpec { seed, ..spec.clone() });
                    m.name = format!("m{i}");
                    m
                })
                .collect();
            let per_module: u64 = mods
                .iter()
                .map(|m| {
                    let stats = crate::run_pass(&mut m.clone(), &crate::PassConfig::f3m()).stats;
                    stats.size_before - stats.size_after
                })
                .sum();
            // Each function competes for draws with its in-module family
            // and its cross-module twins: `k` grows with the module count.
            let cfg = GlobalPlanConfig { k: 10, ..GlobalPlanConfig::default() };
            let corpus = corpus_of(&mods);
            let (report, merged, _) = GlobalMergePlanner::new(&corpus, cfg).run().unwrap();
            f3m_ir::verify::verify_module(&merged).unwrap();
            let global = report.stats.size_before - report.stats.size_after;
            assert!(
                if strictly { global > per_module } else { global >= per_module },
                "{}: global {global} bytes vs per-module {per_module}",
                spec.name
            );
        }
    }

    /// The merged module and the full report are byte-identical for any
    /// jobs value (the speculative phase is read-only; commits are a
    /// serial walk).
    #[test]
    fn global_merge_is_jobs_invariant() {
        let mods = [workload("m0", 51, 16), workload("m1", 51, 16), workload("m2", 77, 12)];
        let c = corpus_of(&mods);
        let mut renders = Vec::new();
        for jobs in [1, 2, 8] {
            let cfg = GlobalPlanConfig::default().with_jobs(jobs);
            let (report, merged, _) = GlobalMergePlanner::new(&c, cfg).run().unwrap();
            renders.push((report.to_json(), f3m_ir::printer::print_module(&merged)));
        }
        assert_eq!(renders[0], renders[1], "jobs 1 vs 2");
        assert_eq!(renders[0], renders[2], "jobs 1 vs 8");
    }

    /// Re-running on the same corpus is deterministic end to end.
    #[test]
    fn global_merge_is_deterministic_across_runs() {
        let mods = [workload("m0", 63, 14), workload("m1", 63, 14)];
        let c = corpus_of(&mods);
        let run = || {
            let (report, merged, _) =
                GlobalMergePlanner::new(&c, GlobalPlanConfig::default()).run().unwrap();
            (report.to_json(), f3m_ir::printer::print_module(&merged))
        };
        assert_eq!(run(), run());
    }

    /// An unreachable profitability floor rolls everything back and the
    /// replay converges to the pristine module.
    #[test]
    fn verification_floor_rolls_back_to_pristine() {
        let mods = [workload("m0", 41, 14), workload("m1", 41, 14)];
        let c = corpus_of(&mods);
        let cfg = GlobalPlanConfig { min_profit: i64::MAX, ..GlobalPlanConfig::default() };
        let (report, merged, _) = GlobalMergePlanner::new(&c, cfg).run().unwrap();
        assert_eq!(report.stats.verified_merges, 0);
        assert!(report.stats.rolled_back > 0, "the optimistic merges must be rolled back");
        assert!(report.stats.rounds > 1);
        let pristine = c.combined_module().unwrap();
        assert_eq!(
            f3m_ir::printer::print_module(&merged),
            f3m_ir::printer::print_module(&pristine),
            "full rollback must leave no ghost state"
        );
        assert_eq!(report.stats.size_before, report.stats.size_after);
    }

    /// Verification-phase rollback is sound: replaying the run with the
    /// rolled-back pairs excluded up front converges in one round to the
    /// byte-identical merged module — the losers leave no ghost state.
    #[test]
    fn rollback_replay_matches_upfront_exclusion() {
        let mods = [workload("m0", 41, 16), workload("m1", 41, 16)];
        let c = corpus_of(&mods);
        // Probe the profit distribution, then set the floor at its top
        // so some merges survive verification and the rest roll back.
        let (probe, _, _) =
            GlobalMergePlanner::new(&c, GlobalPlanConfig::default()).run().unwrap();
        let max = probe.merges.iter().map(|r| r.saved).max().expect("twins must merge");
        let min = probe.merges.iter().map(|r| r.saved).min().unwrap();
        assert!(min < max, "workload must produce a profit spread");
        let cfg = GlobalPlanConfig { min_profit: max, ..GlobalPlanConfig::default() };
        let (a, merged_a, _) = GlobalMergePlanner::new(&c, cfg.clone()).run().unwrap();
        assert!(a.stats.verified_merges > 0, "the floor must keep the top merges");
        assert!(a.stats.rolled_back > 0, "the floor must roll back the rest");
        assert!(a.stats.rounds > 1);

        let replay = GlobalPlanConfig { excluded: a.rolled_back_pairs.clone(), ..cfg };
        let (b, merged_b, _) = GlobalMergePlanner::new(&c, replay).run().unwrap();
        assert_eq!(b.stats.rolled_back, 0, "pre-excluded losers cannot roll back again");
        assert_eq!(b.stats.rounds, 1, "upfront exclusion must converge immediately");
        assert_eq!(a.merges, b.merges, "surviving merges must be identical");
        assert_eq!(
            f3m_ir::printer::print_module(&merged_a),
            f3m_ir::printer::print_module(&merged_b),
            "rollback must be equivalent to never having tried the losers"
        );
    }

    /// Twins whose probes return NaN agree with themselves: the observation
    /// comparison is bit-for-bit, so verification must not roll the merge
    /// back as a differential mismatch.
    #[test]
    fn nan_returning_twins_survive_verification() {
        let twin = |name: &str| {
            f3m_ir::parser::parse_module(&format!(
                r#"
module "{name}" {{
define @nan(f64 %0) -> f64 {{
bb0:
  %1 = fmul f64 %0, %0
  %2 = fadd f64 %1, %0
  %3 = fmul f64 %2, %1
  %4 = fadd f64 %3, %2
  %5 = fmul f64 %4, %3
  %6 = fadd f64 %5, %4
  %7 = fsub f64 %6, %6
  %8 = fdiv f64 %7, %7
  ret f64 %8
}}
}}
"#
            ))
            .unwrap()
        };
        let c = corpus_of(&[twin("m0"), twin("m1")]);
        let pristine = c.combined_module().unwrap();
        let probe = observe(&pristine, "m0.nan", &[Val::Float(3.5)], Limits::default());
        assert!(
            matches!(probe, Observation::Completed { ret: Some(Val::Float(x)), .. } if x.is_nan()),
            "the fixture must return NaN: {probe:?}"
        );
        let (report, merged, _) =
            GlobalMergePlanner::new(&c, GlobalPlanConfig::default()).run().unwrap();
        assert_eq!(report.stats.optimistic_merges, 1, "the twins must merge");
        assert!(report.stats.differential_probes > 0, "the merge must have been probed");
        assert_eq!(report.stats.rolled_back, 0, "NaN == NaN bit-for-bit is not a mismatch");
        assert_eq!(report.stats.verified_merges, 1);
        f3m_ir::verify::verify_module(&merged).unwrap();
    }

    /// The corpus-global candidate pull feeding the planner is memoized:
    /// a warm pull recomputes nothing, and after `update_function` only
    /// the entries whose memoized list the edit could change are
    /// re-ranked — a subsequent global merge re-verifies only plans whose
    /// candidate lists intersect that set.
    #[test]
    fn global_candidates_recompute_only_what_an_update_invalidates() {
        let mods = [workload("m0", 41, 14), workload("m1", 41, 14)];
        let c = corpus_of(&mods);
        let (_, cold) = c.global_candidates(4).unwrap();
        let miss_warmed = c.stats().memo_misses;
        let (_, warm) = c.global_candidates(4).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(c.stats().memo_misses, miss_warmed, "warm global pull recomputes nothing");

        // Touch one function: semantically a no-op, but it dirties itself
        // and whichever lists it could have moved in.
        let touched = mods[0]
            .merge_eligible()
            .into_iter()
            .map(|f| mods[0].function(f).name.clone())
            .find(|n| n != "__driver")
            .unwrap();
        let up = c.update_function("m0", &touched, None).unwrap();
        let miss_before = c.stats().memo_misses;
        let (epoch, after) = c.global_candidates(4).unwrap();
        assert_eq!(epoch, up.epoch);
        assert_eq!(after, warm, "a touch must not change the candidate plan");
        let recomputed = c.stats().memo_misses - miss_before;
        assert_eq!(
            recomputed, up.funcs_invalidated,
            "only the invalidated entries are re-ranked"
        );
        assert!(
            recomputed < c.stats().functions_live as u64,
            "a touch must not flush the whole memo"
        );

        // The post-update plan is exactly what a cold corpus over the
        // same modules produces — memo reuse can't perturb the merge.
        let (report, merged, _) =
            GlobalMergePlanner::new(&c, GlobalPlanConfig::default()).run().unwrap();
        let fresh = corpus_of(&mods);
        let (fresh_report, fresh_merged, _) =
            GlobalMergePlanner::new(&fresh, GlobalPlanConfig::default()).run().unwrap();
        assert_eq!(report.to_json(), fresh_report.to_json());
        assert_eq!(
            f3m_ir::printer::print_module(&merged),
            f3m_ir::printer::print_module(&fresh_merged)
        );
    }

    /// `GlobalStats::to_json`, `GLOBAL_STATS_JSON_KEYS` and
    /// `export_metrics` all come out of one table, and that table holds
    /// exactly the documented key set, in order (mirrors the `MergeStats`
    /// contract test).
    #[test]
    fn global_stats_json_emits_exactly_the_documented_key_set() {
        const GOLDEN_KEYS: [&str; 14] = [
            "functions",
            "modules",
            "pairs_considered",
            "cross_module_pairs",
            "optimistic_merges",
            "verified_merges",
            "rolled_back",
            "rounds",
            "differential_probes",
            "differential_skips",
            "global_profit_bytes",
            "size_before",
            "size_after",
            "size_reduction",
        ];
        assert_eq!(GLOBAL_STATS_JSON_KEYS, GOLDEN_KEYS);
        let stats = GlobalStats::default();
        match f3m_trace::json::parse(&stats.to_json()).unwrap() {
            f3m_trace::Json::Object(fields) => {
                assert_eq!(fields.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), GOLDEN_KEYS)
            }
            other => panic!("not an object: {other:?}"),
        }
        // Every key but the derived fraction is a deterministic metric.
        let mut reg = MetricsRegistry::new();
        stats.export_metrics(&mut reg, "global");
        let snaps = reg.snapshots();
        let names: Vec<&str> = snaps.iter().map(|s| &s.name["global.".len()..]).collect();
        assert_eq!(names, GOLDEN_KEYS[..13]);
        assert!(snaps.iter().all(|s| s.deterministic));
    }
}
