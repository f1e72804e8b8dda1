//! Cross-module global merging: the F3M pass over the combined corpus,
//! then whole-corpus verification.
//!
//! Per-module merging (the classic pass) can only deduplicate functions
//! that happen to live in the same translation unit. At fleet scale the
//! big wins sit *across* modules — N build targets each carrying their
//! own copy of the same helper. The corpus's combined module holds every
//! live definition under its qualified name, so the ordinary pass over it
//! sees every pair, cross-module ones included. [`global_merge`] is that
//! pass plus the checks a merged corpus must pass before it is reported:
//!
//! 1. **One cut** — the combined module, its epoch and the module each
//!    function came from, read under one table read guard
//!    ([`Corpus::combined_module`] is the same cut without the owners).
//! 2. **The pass** — [`run_pass`] with [`PassConfig::f3m`] at the
//!    caller's `jobs`. Its [`Committer`](crate::commit::Committer)
//!    verifies every merged body and refuses any merge that does not
//!    shrink the module, so every commit already saves bytes corpus-wide.
//! 3. **Verification** — the module verifier and a print→parse fixpoint
//!    over the whole merged corpus, then an interpreter differential
//!    probing each merge's endpoints and their pristine direct callers
//!    against the pristine combined module. A failed check fails the
//!    request with an error naming the check and the implicated pairs:
//!    nothing is published, the way offline `f3m merge` exits on
//!    `verification failed`.
//!
//! All [`GlobalStats`] counters are deterministic (no wall clock), so
//! [`GlobalMergeReport::to_json`] doubles as the determinism key for the
//! daemon's `global_merge` verb and the regression gate.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use f3m_interp::oracle::observe;
use f3m_interp::{Limits, Val};
use f3m_ir::ids::FuncId;
use f3m_ir::module::Module;
use f3m_ir::types::TypeKind;
use f3m_trace::json::Writer;
use f3m_trace::stats::{self, Stat, Value::*};
use f3m_trace::MetricsRegistry;

use crate::commit::func_refs;
use crate::corpus::{Corpus, Cut};
use crate::pass::{run_pass, PassConfig};

/// Deterministic integer salts for the differential probes. Each probe
/// calls an entry point with per-parameter values derived from one salt,
/// in both the pristine and the merged corpus, and compares the folded
/// [`Observation`](f3m_interp::oracle::Observation)s.
const PROBE_SALTS: [i64; 3] = [0, 7, -9];

/// Configuration of a [`global_merge`].
#[derive(Clone, Debug)]
pub struct GlobalPlanConfig {
    /// Worker threads for the pass. Any value produces the same merged
    /// module and report.
    pub jobs: usize,
    /// Execution limits for the differential probes.
    pub limits: Limits,
}

impl Default for GlobalPlanConfig {
    fn default() -> GlobalPlanConfig {
        GlobalPlanConfig { jobs: 1, limits: Limits::default() }
    }
}

impl GlobalPlanConfig {
    /// Sets the pass's worker-thread count.
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
    /// Merge-eligible functions in the combined module.
    pub functions: u64,
    /// Live resident modules.
    pub modules: u64,
    /// Merges the pass committed; a report exists only if all of them
    /// passed verification.
    pub verified_merges: u64,
    /// Differential probe comparisons performed.
    pub differential_probes: u64,
    /// Probes skipped because either side hit a resource limit.
    pub differential_skips: u64,
    /// Bytes saved by the merges, summed corpus-wide.
    pub global_profit_bytes: u64,
    /// Combined-module size before any merging.
    pub size_before: u64,
    /// Combined-module size after the merges.
    pub size_after: u64,
}

/// Every counter, in [`GlobalStats::to_json`] order: the one place a
/// counter is named besides its field.
const GLOBAL_STATS: &[Stat<GlobalStats>] = &[
    Stat::det("functions", "functions", |s| Count(s.functions)),
    Stat::det("modules", "modules", |s| Count(s.modules)),
    Stat::det("verified_merges", "merges", |s| Count(s.verified_merges)),
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
    /// Fraction of the combined size removed by the merges.
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

/// One committed merge: the two qualified originals and the bytes the
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

/// The result of a [`global_merge`].
#[derive(Clone, Debug, Default)]
pub struct GlobalMergeReport {
    /// Deterministic counters.
    pub stats: GlobalStats,
    /// Committed merges, in the pass's commit order.
    pub merges: Vec<GlobalMergeRecord>,
}

impl GlobalMergeReport {
    /// Renders the report as one JSON object: `stats` (exactly
    /// [`GLOBAL_STATS_JSON_KEYS`]) and `merges`. Every field is
    /// deterministic, so this string is the `global_merge` determinism
    /// key.
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(512 + self.merges.len() * 96);
        stats::write_object(w.begin_object().key("stats"), GLOBAL_STATS, &self.stats);
        w.key("merges").begin_array();
        for rec in &self.merges {
            w.begin_object().key("a").str(&rec.a).key("b").str(&rec.b);
            w.key("saved").raw(rec.saved).key("cross_module").bool(rec.cross_module).end_object();
        }
        w.end_array().end_object();
        w.finish()
    }

    /// Registers the stats counters under `<prefix>.`.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        self.stats.export_metrics(reg, prefix);
    }
}

/// Merges the live corpus as one module: the F3M pass over the combined
/// module, then [`verify`]. Returns the report, the merged combined
/// module and the epoch of the cut it was computed from. The resident
/// corpus is never mutated — callers decide what to do with the merged
/// module (and whether a raced epoch supersedes it).
///
/// # Errors
///
/// The corpus cannot be combined, or a verification check fails; the
/// message names the check and the implicated pairs.
pub fn global_merge(
    corpus: &Corpus,
    cfg: &GlobalPlanConfig,
) -> Result<(GlobalMergeReport, Module, u64), String> {
    let cut = corpus.combined_cut()?;
    merge_cut(&cut, cfg).map(|(report, merged)| (report, merged, cut.0))
}

/// [`global_merge`]'s work on one cut of the corpus.
pub(crate) fn merge_cut(
    (_, modules, module_of, pristine): &Cut,
    cfg: &GlobalPlanConfig,
) -> Result<(GlobalMergeReport, Module), String> {
    let mut merged = pristine.clone();
    let pass = run_pass(&mut merged, &PassConfig::f3m().with_jobs(cfg.jobs));
    let merges: Vec<GlobalMergeRecord> = pass
        .attempts
        .iter()
        .filter(|at| at.committed)
        .map(|at| {
            let [x, y] = [at.f1, at.f2].map(|f| pristine.function(f).name.clone());
            let cross_module = module_of.get(&x) != module_of.get(&y);
            let (a, b) = if x <= y { (x, y) } else { (y, x) };
            GlobalMergeRecord { a, b, saved: at.size_delta, cross_module }
        })
        .collect();
    let mut stats = GlobalStats {
        functions: pass.stats.functions as u64,
        modules: *modules as u64,
        verified_merges: merges.len() as u64,
        global_profit_bytes: merges.iter().map(|r| r.saved.max(0) as u64).sum(),
        size_before: pass.stats.size_before,
        size_after: pass.stats.size_after,
        ..GlobalStats::default()
    };
    verify(pristine, &merged, &merges, cfg.limits, &mut stats)?;
    Ok((GlobalMergeReport { stats, merges }, merged))
}

/// The checks a merged corpus must pass, in order:
/// 1. the module verifier over the whole merged corpus,
/// 2. a print→parse fixpoint of it,
/// 3. an interpreter differential: each merge's endpoints (through their
///    thunks, when retained) and every pristine direct caller of an
///    endpoint are called with [`PROBE_SALTS`] in the pristine and the
///    merged corpus, and the folded observations must agree.
///
/// The first failure is the error. A differential failure names the
/// probed function and every merge it implicates: those it is an
/// endpoint of or calls an endpoint of directly.
fn verify(
    pristine: &Module,
    merged: &Module,
    merges: &[GlobalMergeRecord],
    limits: Limits,
    stats: &mut GlobalStats,
) -> Result<(), String> {
    if let Err(errs) = f3m_ir::verify::verify_module(merged) {
        return Err(format!("verification failed: verifier: {}", errs[0]));
    }
    let printed = f3m_ir::printer::print_module(merged);
    if let Err(e) = f3m_ir::parser::check_print_fixpoint(&printed) {
        return Err(format!("verification failed: print/parse fixpoint: {e}"));
    }

    // Probe entry points: each merge's endpoints plus their pristine
    // direct callers — the functions whose behaviour a commit could have
    // changed — each with the merges it implicates.
    let callers = direct_callers(pristine);
    let mut blame: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for (n, rec) in merges.iter().enumerate() {
        for name in [&rec.a, &rec.b] {
            blame.entry(name).or_default().insert(n);
            let Some(f) = pristine.lookup_function(name) else { continue };
            for &caller in callers.get(&f).into_iter().flatten() {
                blame.entry(&pristine.function(caller).name).or_default().insert(n);
            }
        }
    }

    for (&entry, implicated) in &blame {
        let Some(pf) = pristine.lookup_function(entry) else { continue };
        // Dropped originals become declarations in the merged module;
        // their behaviour is covered through their callers.
        let defined_in_merged =
            merged.lookup_function(entry).is_some_and(|f| !merged.function(f).is_declaration);
        if !defined_in_merged {
            continue;
        }
        for salt in PROBE_SALTS {
            let args = probe_args(pristine, pf, salt);
            let base = observe(pristine, entry, &args, limits);
            let obs = observe(merged, entry, &args, limits);
            let Some(agree) = base.agrees(&obs) else {
                stats.differential_skips += 1;
                continue;
            };
            stats.differential_probes += 1;
            if !agree {
                let pairs: Vec<String> =
                    implicated.iter().map(|&n| format!("{} + {}", merges[n].a, merges[n].b)).collect();
                return Err(format!(
                    "verification failed: differential: @{entry}{args:?} observed {base:?} \
                     before and {obs:?} after merging {}",
                    pairs.join(", ")
                ));
            }
        }
    }
    Ok(())
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
/// callee positions the commit index records, by the same walk).
fn direct_callers(m: &Module) -> HashMap<FuncId, Vec<FuncId>> {
    let mut callers: HashMap<FuncId, Vec<FuncId>> = HashMap::new();
    for (owner, f) in m.functions() {
        if f.is_declaration {
            continue;
        }
        let mut seen: HashSet<FuncId> = HashSet::new();
        for (_, target, callee) in func_refs(f) {
            if callee && seen.insert(target) {
                callers.entry(target).or_default().push(owner);
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
    use f3m_ir::parser::parse_module;
    use f3m_ir::printer::print_module;
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

    /// `global_merge` at the default configuration.
    fn merge_default(c: &Corpus) -> (GlobalMergeReport, Module) {
        let (report, merged, _) = global_merge(c, &GlobalPlanConfig::default()).unwrap();
        (report, merged)
    }

    /// Two modules generated from the same seed are function-for-function
    /// twins across the module boundary: global merging must commit
    /// verified merges, some of them across the boundary.
    #[test]
    fn global_merge_finds_cross_module_twins() {
        let mods = [workload("m0", 41, 18), workload("m1", 41, 18)];
        let c = corpus_of(&mods);
        let (report, merged) = merge_default(&c);
        assert!(report.stats.verified_merges > 0, "twins must merge");
        assert!(
            report.merges.iter().any(|r| r.cross_module),
            "at least one merge must cross the module boundary"
        );
        assert!(report.stats.size_after < report.stats.size_before);
        f3m_ir::verify::verify_module(&merged).unwrap();
        assert_eq!(
            report.stats.global_profit_bytes,
            report.merges.iter().map(|r| r.saved.max(0) as u64).sum::<u64>()
        );
        let live = c.stats();
        assert_eq!(report.stats.functions, live.functions_live as u64);
        assert_eq!(report.stats.modules, live.modules_live as u64);
    }

    /// The economics of going global: a per-module pass cannot see a twin
    /// that lives in another module, so over three modules of which two
    /// share a seed the global merge saves strictly more bytes than the
    /// sum of the ordinary F3M pass over each — and on the same split of
    /// the scaled Table I `chrome-scale` spec, whose families mostly fold
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
                    let stats = run_pass(&mut m.clone(), &PassConfig::f3m()).stats;
                    stats.size_before - stats.size_after
                })
                .sum();
            let (report, merged) = merge_default(&corpus_of(&mods));
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
    /// jobs value, because the pass's merged module is.
    #[test]
    fn global_merge_is_jobs_invariant() {
        let mods = [workload("m0", 51, 16), workload("m1", 51, 16), workload("m2", 77, 12)];
        let c = corpus_of(&mods);
        let mut renders = Vec::new();
        for jobs in [1, 2, 8] {
            let cfg = GlobalPlanConfig::default().with_jobs(jobs);
            let (report, merged, _) = global_merge(&c, &cfg).unwrap();
            renders.push((report.to_json(), print_module(&merged)));
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
            let (report, merged) = merge_default(&c);
            (report.to_json(), print_module(&merged))
        };
        assert_eq!(run(), run());
    }

    /// A module `name` holding the one definition `body`; the tests below
    /// ingest it twice, as `m0` and `m1`, to get a twin pair.
    fn twin(name: &str, body: &str) -> Module {
        parse_module(&format!("module \"{name}\" {{\n{body}}}\n")).unwrap()
    }

    const NAN_BODY: &str = "define @nan(f64 %0) -> f64 {
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
}
";

    /// Straight-line integer code whose result moves with its last
    /// constant, `1000`.
    const INT_BODY: &str = "define @f(i32 %0) -> i32 {
bb0:
  %1 = mul i32 %0, 3
  %2 = add i32 %1, 7
  %3 = xor i32 %2, %0
  %4 = mul i32 %3, 5
  %5 = sub i32 %4, %1
  %6 = add i32 %5, %2
  %7 = mul i32 %6, 11
  %8 = xor i32 %7, %3
  %9 = sub i32 %8, %4
  %10 = add i32 %9, 1000
  ret i32 %10
}
";

    /// Twins whose probes return NaN agree with themselves: the observation
    /// comparison is bit-for-bit, so verification must not fail the merge
    /// as a differential mismatch.
    #[test]
    fn nan_returning_twins_survive_verification() {
        let c = corpus_of(&[twin("m0", NAN_BODY), twin("m1", NAN_BODY)]);
        let (_, pristine) = c.combined_module().unwrap();
        let probe = observe(&pristine, "m0.nan", &[Val::Float(3.5)], Limits::default());
        assert!(
            matches!(probe, Observation::Completed { ret: Some(Val::Float(x)), .. } if x.is_nan()),
            "the fixture must return NaN: {probe:?}"
        );
        let (report, merged) = merge_default(&c);
        assert_eq!(report.stats.verified_merges, 1, "the twins must merge and verify");
        assert!(report.stats.differential_probes > 0, "the merge must have been probed");
        f3m_ir::verify::verify_module(&merged).unwrap();
    }

    /// Verification is fail-stop: a merged corpus that breaks a check is
    /// an error naming the check — and, for the differential, the pair
    /// whose merged body changed behaviour — never a report.
    #[test]
    fn verification_fails_stop_naming_the_check() {
        let c = corpus_of(&[twin("m0", INT_BODY), twin("m1", INT_BODY)]);
        let (report, merged) = merge_default(&c);
        assert_eq!(report.merges.len(), 1, "the twins must merge");
        let (_, pristine) = c.combined_module().unwrap();
        let check = |m: &Module| {
            verify(&pristine, m, &report.merges, Limits::default(), &mut GlobalStats::default())
        };
        check(&merged).unwrap();

        // One constant of the merged body changed: the module still
        // verifies and round-trips, so only the differential can see it.
        let text = print_module(&merged);
        let at = text.find("define @__merged").expect("the pass appends a merged body");
        let tampered = format!("{}{}", &text[..at], text[at..].replacen(", 1000", ", 1001", 1));
        assert_ne!(tampered, text, "the merged body carries the constant");
        let err = check(&parse_module(&tampered).unwrap()).unwrap_err();
        assert!(err.contains("differential"), "{err}");
        assert!(err.contains("m0.f + m1.f"), "{err}");

        // A block without its terminator fails the verifier.
        let unverified = f3m_ir::parser::parse_module_unverified(
            "module \"corpus\" {\ndefine @m0.f(i32 %0) -> i32 {\nbb0:\n  %1 = add i32 %0, 1\n}\n}\n",
        )
        .unwrap();
        let err = check(&unverified).unwrap_err();
        assert!(err.contains("verifier"), "{err}");
    }

    /// A `global_merge` after an `update_function` touch answers at the
    /// touch's epoch, and exactly what a fresh corpus over the same
    /// modules answers.
    #[test]
    fn global_merge_after_a_touch_matches_a_fresh_corpus() {
        let mods = [workload("m0", 41, 14), workload("m1", 41, 14)];
        let c = corpus_of(&mods);
        let touched = mods[0]
            .merge_eligible()
            .into_iter()
            .map(|f| mods[0].function(f).name.clone())
            .find(|n| n != "__driver")
            .unwrap();
        let up = c.update_function("m0", &touched, None).unwrap();
        let (report, merged, epoch) = global_merge(&c, &GlobalPlanConfig::default()).unwrap();
        assert_eq!(epoch, up.epoch);
        let (fresh_report, fresh_merged) = merge_default(&corpus_of(&mods));
        assert_eq!(report.to_json(), fresh_report.to_json());
        assert_eq!(print_module(&merged), print_module(&fresh_merged));
    }

    /// `GlobalStats::to_json`, `GLOBAL_STATS_JSON_KEYS` and
    /// `export_metrics` all come out of one table, and that table holds
    /// exactly the documented key set, in order (mirrors the `MergeStats`
    /// contract test).
    #[test]
    fn global_stats_json_emits_exactly_the_documented_key_set() {
        const GOLDEN_KEYS: [&str; 9] = [
            "functions",
            "modules",
            "verified_merges",
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
        assert_eq!(names, GOLDEN_KEYS[..8]);
        assert!(snaps.iter().all(|s| s.deterministic));
    }
}
