//! Candidate search behind a strategy seam.
//!
//! The *preprocess* and *rank* stages of the pipeline differ per strategy
//! (HyFM scans opcode-frequency fingerprints exhaustively; F3M queries an
//! LSH index over signature fingerprints) but the driver does not care: it
//! asks a [`CandidateSearch`] for the best available candidates of one
//! function and tells it when a pair leaves the pool. Each implementation
//! owns its fingerprints, its query structure, and its post-commit
//! invalidation, and builds them in parallel across `jobs` threads with
//! deterministic (job-count-independent) results.
//!
//! The LSH search is generic over [fingerprint
//! backends](f3m_fingerprint::backend) per `MergeParams::backend` and
//! keeps its signatures and band keys in a [`PackedFingerprintStore`].
//! The resident corpus drives its own index and epochs but ranks through
//! the same leaves: [`PackedFingerprintStore::of_functions`] for rows,
//! `widened_keys` for the probed key list and `sort_ranked` for the
//! order of a full ranking.

use f3m_fingerprint::adaptive::MergeParams;
use f3m_fingerprint::backend::{backend_for, signature_similarity};
use f3m_fingerprint::lsh::{probe_keys_for, BandKey, LshIndex, LshQueryStats, QueryScratch};
use f3m_fingerprint::opcode_freq::OpcodeFingerprint;
use f3m_fingerprint::par::par_map_indexed;
use f3m_fingerprint::store::PackedFingerprintStore;
use f3m_ir::ids::FuncId;
use f3m_ir::module::Module;

use crate::pass::Strategy;
use crate::profile::CandidateSet;

/// Near-tie tolerance for profile-guided selection (no effect without a
/// profile: the plain maximum is chosen).
const NEAR_TIE_EPS: f64 = 0.05;

/// Counters for one ranking query, accumulated into
/// [`MergeStats`](crate::report::MergeStats) by the driver.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryCounters {
    /// Fingerprint-to-fingerprint similarity computations.
    pub comparisons: u64,
    /// Search-structure entries examined (bucket entries for LSH, scan
    /// length for the exhaustive baseline).
    pub examined: u64,
    /// Distinct candidates the structure returned, before availability and
    /// threshold filtering.
    pub returned: u64,
    /// Bucket entries skipped by the LSH `bucket_cap` (always zero for the
    /// exhaustive baseline). Deterministic because buckets are sorted.
    pub evicted: u64,
    /// Cross-band duplicate bucket hits during LSH probes (an entry found
    /// again in a later band of the same query).
    pub collisions: u64,
    /// Allocations avoided by answering the query from a reusable scratch
    /// buffer instead of a fresh dedup set + candidate vector (one per
    /// scratch-served probe, so the count is job-count independent).
    pub saved_allocs: u64,
}

/// A point-in-time description of a search structure, for observability
/// exports (metric registry, trace args). All values are deterministic for
/// a fixed workload and strategy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IndexStats {
    /// Non-empty buckets in the structure (0 for the exhaustive baseline).
    pub buckets: usize,
    /// Population of the fullest bucket.
    pub max_bucket: usize,
    /// Sizes of all non-empty buckets, for occupancy histograms.
    pub bucket_sizes: Vec<usize>,
    /// Fixed per-function bytes of the packed fingerprint storage (0 for
    /// structures without packed storage).
    pub bytes_per_fn: usize,
}

/// Reusable per-worker buffers for [`CandidateSearch::best_candidates`] —
/// the [`QueryScratch`] a corpus query carries too. One scratch lives
/// beside each wave worker's alignment scratch, so the hot rank loop
/// performs no per-query allocation.
pub type SearchScratch = QueryScratch<usize>;

/// Strategy seam between the pass driver and a candidate-search structure.
///
/// Implementations are built once per pass over the function list (the
/// *preprocess* stage) and queried once per unmerged function (the *rank*
/// stage). After a commit the driver calls [`invalidate`] for both merged
/// functions so later queries no longer surface them.
///
/// [`invalidate`]: CandidateSearch::invalidate
pub trait CandidateSearch {
    /// Number of functions indexed.
    fn num_functions(&self) -> usize;

    /// Collects the best available merge candidates for function `i` as a
    /// near-tie [`CandidateSet`] (so a profile can bias the final choice).
    /// `available[j]` is false for functions already consumed by a merge;
    /// implementations must never return such candidates, nor `i` itself.
    /// `scratch` is the caller's reusable query buffer (one per worker).
    fn best_candidates(
        &self,
        i: usize,
        available: &[bool],
        counters: &mut QueryCounters,
        scratch: &mut SearchScratch,
    ) -> CandidateSet;

    /// Removes function `idx` from the search structure after its pair was
    /// committed. (The driver additionally masks it in `available`; for
    /// structures with no retained state this may be a no-op.)
    fn invalidate(&mut self, idx: usize);

    /// Describes the current search structure for observability exports.
    /// The default (for structures with no retained index) is all-zero.
    fn index_stats(&self) -> IndexStats {
        IndexStats::default()
    }
}

/// The one ordering rule of a full ranking, offline and resident:
/// similarity descending, then function name ascending, then index
/// ascending as the (unreachable while names are unique) final fallback.
/// Similarities are multiples of `1/k`, so exact ties are common; names
/// break them the same way in every corpus holding the same functions,
/// where index order would depend on how ids were assigned. (The
/// candidate *set* still depends on ingest order wherever a probed
/// bucket exceeds `bucket_cap` — see `QueryResult::candidates`.)
pub(crate) fn sort_ranked<'a>(ranked: &mut [(usize, f64)], name: impl Fn(usize) -> &'a str) {
    ranked.sort_by(|a, b| {
        b.1.total_cmp(&a.1).then_with(|| name(a.0).cmp(name(b.0))).then(a.0.cmp(&b.0))
    });
}

/// The key list a ranking probes for a row with signature `sig`: the
/// widened multi-probe list, or `None` under classic single-probe
/// (`params.probes == 0`), where the row's stored band keys are probed
/// directly without allocating.
pub(crate) fn widened_keys(params: &MergeParams, sig: &[u64]) -> Option<Vec<BandKey>> {
    (params.probes > 0).then(|| probe_keys_for(params.lsh, sig, params.probes))
}

/// Builds the search structure for `strategy` over `funcs`, fanning the
/// per-function fingerprint work out across up to `jobs` threads.
///
/// The returned structure is `Send + Sync`: queries take `&self`, so the
/// wave loop can rank many functions concurrently against one snapshot of
/// the availability mask (mutation — `invalidate` — stays confined to the
/// serial commit walk).
pub fn build_search(
    m: &Module,
    funcs: &[FuncId],
    strategy: &Strategy,
    jobs: usize,
) -> Box<dyn CandidateSearch + Send + Sync> {
    match strategy {
        Strategy::Hyfm => Box::new(ExhaustiveOpcodeSearch::build(m, funcs, jobs)),
        Strategy::F3m(p) => Box::new(LshBackendSearch::build(m, funcs, *p, jobs)),
        Strategy::F3mAdaptive => {
            let p = MergeParams::adaptive(funcs.len());
            Box::new(LshBackendSearch::build(m, funcs, p, jobs))
        }
    }
}

/// HyFM baseline: opcode-frequency fingerprints, exhaustive quadratic
/// nearest-neighbour ranking.
pub struct ExhaustiveOpcodeSearch {
    fps: Vec<OpcodeFingerprint>,
}

impl ExhaustiveOpcodeSearch {
    /// Fingerprints every function (in parallel for `jobs > 1`).
    pub fn build(m: &Module, funcs: &[FuncId], jobs: usize) -> ExhaustiveOpcodeSearch {
        let fps = par_map_indexed(funcs.len(), jobs, |i| {
            OpcodeFingerprint::of(m.function(funcs[i]))
        });
        ExhaustiveOpcodeSearch { fps }
    }
}

impl CandidateSearch for ExhaustiveOpcodeSearch {
    fn num_functions(&self) -> usize {
        self.fps.len()
    }

    fn best_candidates(
        &self,
        i: usize,
        available: &[bool],
        counters: &mut QueryCounters,
        _scratch: &mut SearchScratch,
    ) -> CandidateSet {
        let mut set = CandidateSet::new(NEAR_TIE_EPS);
        for (j, av) in available.iter().enumerate() {
            if !*av || j == i {
                continue;
            }
            counters.comparisons += 1;
            counters.examined += 1;
            counters.returned += 1;
            set.push(j, self.fps[i].similarity(&self.fps[j]));
        }
        set
    }

    fn invalidate(&mut self, _idx: usize) {
        // The exhaustive scan consults `available` directly; there is no
        // retained structure to update.
    }
}

/// F3M: signature fingerprints (MinHash by default, SimHash or TLSH-style
/// via `MergeParams::backend`) queried through a banded LSH index, with
/// the similarity threshold applied after the bucket lookup. Signatures
/// and band keys live in a [`PackedFingerprintStore`], so both the index
/// build and every probe walk contiguous memory.
pub struct LshBackendSearch {
    params: MergeParams,
    store: PackedFingerprintStore,
    names: Vec<String>,
    index: LshIndex<usize>,
}

impl LshBackendSearch {
    /// Fingerprints every function into packed rows (see
    /// [`PackedFingerprintStore::of_functions`]), then populates the
    /// index sequentially in function order so bucket contents are
    /// identical for any job count.
    pub fn build(m: &Module, funcs: &[FuncId], params: MergeParams, jobs: usize) -> LshBackendSearch {
        let backend = backend_for(params.backend, params.k);
        let store = PackedFingerprintStore::of_functions(m, funcs, &*backend, params.lsh, jobs);
        let mut index = LshIndex::new(params.lsh);
        for i in 0..store.len() {
            index.insert_with_keys(i, store.keys(i));
        }
        let names = funcs.iter().map(|&f| m.function(f).name.clone()).collect();
        LshBackendSearch { params, store, names, index }
    }

    /// Estimated similarity of functions `i` and `j` under the backend.
    fn similarity(&self, i: usize, j: usize) -> f64 {
        signature_similarity(self.store.sig(i), self.store.sig(j))
    }

    /// Probes the index for row `i`'s candidates into `scratch`.
    fn probe(&self, i: usize, scratch: &mut QueryScratch<usize>) -> LshQueryStats {
        match widened_keys(&self.params, self.store.sig(i)) {
            Some(keys) => self.index.probe_keys_into(&keys, i, scratch),
            None => self.index.probe_keys_into(self.store.keys(i), i, scratch),
        }
    }

    /// The top-`k` available candidates for function `i`, as
    /// `(index, similarity)` pairs in `sort_ranked` order. Unlike
    /// [`CandidateSearch::best_candidates`] this exposes the full ranking
    /// (not just the near-tie head); it is the offline reference that
    /// corpus and daemon `query` answers are tested against.
    pub fn ranked_candidates(&self, i: usize, available: &[bool], k: usize) -> Vec<(usize, f64)> {
        let mut scratch = QueryScratch::new();
        self.probe(i, &mut scratch);
        let mut ranked: Vec<(usize, f64)> = scratch
            .out
            .iter()
            .filter(|&&j| available[j])
            .map(|&j| (j, self.similarity(i, j)))
            .filter(|&(_, sim)| sim >= self.params.threshold)
            .collect();
        sort_ranked(&mut ranked, |j| &self.names[j]);
        ranked.truncate(k);
        ranked
    }
}

impl CandidateSearch for LshBackendSearch {
    fn num_functions(&self) -> usize {
        self.store.len()
    }

    fn best_candidates(
        &self,
        i: usize,
        available: &[bool],
        counters: &mut QueryCounters,
        scratch: &mut SearchScratch,
    ) -> CandidateSet {
        let qstats = self.probe(i, scratch);
        counters.examined += qstats.examined as u64;
        counters.evicted += qstats.evicted as u64;
        counters.collisions += qstats.collisions as u64;
        counters.returned += scratch.out.len() as u64;
        // One similarity computation per distinct candidate — the quantity
        // the paper's bucket cap bounds.
        counters.comparisons += scratch.out.len() as u64;
        // One dedup set + one candidate vector that were *not* allocated
        // because the scratch served this probe.
        counters.saved_allocs += 1;
        let mut set = CandidateSet::new(NEAR_TIE_EPS);
        for &j in &scratch.out {
            if !available[j] {
                continue;
            }
            let sim = self.similarity(i, j);
            if sim < self.params.threshold {
                continue;
            }
            set.push(j, sim);
        }
        set
    }

    fn invalidate(&mut self, idx: usize) {
        // The packed row stays (ids are positional); only the index entry
        // goes away.
        self.index.remove_with_keys(idx, self.store.keys(idx));
    }

    fn index_stats(&self) -> IndexStats {
        // HashMap iteration order is unstable; sort so the stats compare
        // equal across runs and job counts.
        let mut bucket_sizes = self.index.bucket_sizes();
        bucket_sizes.sort_unstable();
        IndexStats {
            buckets: self.index.num_buckets(),
            max_bucket: self.index.max_bucket_size(),
            bucket_sizes,
            bytes_per_fn: self.store.bytes_per_fn(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3m_fingerprint::backend::BackendKind;

    /// A generated module and its merge-eligible functions.
    fn workload(functions: usize, seed: u64) -> (Module, Vec<FuncId>) {
        let mut spec = f3m_workloads::mini_suite()[0].clone();
        spec.functions = functions;
        spec.seed = seed;
        let m = f3m_workloads::build_module(&spec);
        let funcs = m
            .defined_functions()
            .into_iter()
            .filter(|&f| m.function(f).num_linked_insts() > 0)
            .collect();
        (m, funcs)
    }

    /// Every backend builds a working search over the same module, and
    /// each finds the planted family pairs among its top candidates.
    #[test]
    fn all_backends_rank_family_members_first() {
        let (m, funcs) = workload(32, 11);
        let n = funcs.len();
        let available = vec![true; n];
        for kind in BackendKind::ALL {
            let params = MergeParams::static_default().with_backend(kind);
            let search = LshBackendSearch::build(&m, &funcs, params, 2);
            let found = (0..n)
                .filter(|&i| !search.ranked_candidates(i, &available, 3).is_empty())
                .count();
            assert!(
                found > n / 4,
                "{}: only {found}/{n} functions have candidates",
                kind.name()
            );
        }
    }

    /// The scratch-based query path is deterministic across job counts
    /// and matches a fresh-scratch query exactly.
    #[test]
    fn scratch_queries_are_job_count_independent() {
        let (m, funcs) = workload(24, 13);
        let n = funcs.len();
        let params = MergeParams::static_default();
        let s1 = LshBackendSearch::build(&m, &funcs, params, 1);
        let s8 = LshBackendSearch::build(&m, &funcs, params, 8);
        let available = vec![true; n];
        let mut warm = SearchScratch::new();
        for i in 0..n {
            let mut c_warm = QueryCounters::default();
            let mut c_fresh = QueryCounters::default();
            let a = s1.best_candidates(i, &available, &mut c_warm, &mut warm);
            let b = s8.best_candidates(i, &available, &mut c_fresh, &mut SearchScratch::new());
            assert_eq!(
                a.choose(None, |idx| funcs[idx]),
                b.choose(None, |idx| funcs[idx]),
                "function {i}"
            );
            assert_eq!(c_warm.examined, c_fresh.examined);
            assert_eq!(c_warm.collisions, c_fresh.collisions);
            assert_eq!(c_warm.saved_allocs, 1, "one saved alloc per probe");
        }
    }
}
