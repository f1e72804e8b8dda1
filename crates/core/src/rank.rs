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
//! a row's stored band keys as the probed key list and the ranking kernel
//! below for everything after the probe.
//!
//! ## The ranking kernel
//!
//! Similarity is `e / k` for an integer equal-slot count `e`, so "is this
//! candidate still interesting" is an integer question: does `e` reach the
//! current *floor*. `Kernel::score` is the one place that decides
//! whether a candidate needs its full signature compared, through two
//! exact upper bounds on `e` (the band bound from the probe's hit counts,
//! then the low-byte sketch); the two selections — `near_tie_head` for
//! the pass, `top_k` for the corpus — only differ in how their floor
//! rises. [`LshBackendSearch::ranked_candidates`] deliberately does none
//! of this: it scores every candidate and sorts, and is the reference the
//! kernel is tested against. DESIGN.md ("Ranking kernel") has the
//! arguments.

use std::collections::BinaryHeap;

use f3m_fingerprint::adaptive::MergeParams;
use f3m_fingerprint::backend::{backend_for, equal_bytes, equal_slots, signature_similarity};
use f3m_fingerprint::lsh::{FlatIndex, LshParams, LshQueryStats, QueryScratch};
use f3m_fingerprint::opcode_freq::OpcodeFingerprint;
use f3m_fingerprint::par::par_map_indexed;
use f3m_fingerprint::store::{PackedFingerprintStore, RowRef};
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
    /// Distinct candidates the search had to decide — one similarity
    /// question each, however cheaply the kernel answered it.
    pub comparisons: u64,
    /// Candidates whose low-byte sketch was compared (bound ii).
    pub sketch_comparisons: u64,
    /// Candidates whose full signature was compared.
    pub full_comparisons: u64,
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

/// Reusable buffers for [`CandidateSearch::best_candidates`] — the
/// [`QueryScratch`] a corpus query carries too, over the `u32` row ids of
/// the pass's [`FlatIndex`]. The merge loop keeps one beside its alignment
/// scratch, so the rank step performs no per-query allocation.
pub type SearchScratch = QueryScratch<u32>;

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
    /// `scratch` is the caller's reusable query buffer.
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

/// The `k + 1` similarities two `k`-slot signatures can have:
/// `sims[e] = e / k`, the very float [`signature_similarity`] returns for
/// `e` equal slots. Floors are read off this table with the float
/// comparison the plain filter would have applied to the similarity, so
/// an integer floor admits exactly the candidates that filter admitted.
pub(crate) struct SimTable(Vec<f64>);

impl SimTable {
    pub(crate) fn new(k: usize) -> SimTable {
        SimTable((0..=k).map(|e| e as f64 / k as f64).collect())
    }

    /// The similarity of `equal` equal slots.
    pub(crate) fn sim(&self, equal: usize) -> f64 {
        self.0[equal]
    }

    /// The smallest equal-slot count whose similarity `keeps`; `k + 1`
    /// when none does. `keeps` must be monotone (false, then true) in the
    /// similarity.
    pub(crate) fn floor(&self, keeps: impl Fn(f64) -> bool) -> usize {
        self.0.partition_point(|&sim| !keeps(sim))
    }
}

/// One query row against its probed candidates.
pub(crate) struct Kernel<'q> {
    /// The query row's signature and sketch.
    sig: &'q [u64],
    sketch: &'q [u8],
    /// Bound (i) before the candidate's own hits: of the `k` slots, each
    /// band whose key differs holds at least one differing slot, and each
    /// truncated bucket may hide a matching band.
    slack: usize,
}

impl<'q> Kernel<'q> {
    /// The kernel for `query`, whose probe under `lsh` reported `probe`.
    pub(crate) fn new(query: &'q RowRef<'q>, lsh: LshParams, probe: &LshQueryStats) -> Kernel<'q> {
        let slack = query.sig().len() - lsh.bands + probe.truncated;
        Kernel { sig: query.sig(), sketch: query.sketch(), slack }
    }

    /// The kernel for a `query` row set against rows no probe produced —
    /// the corpus's invalidation test asks whether one named row reaches
    /// a memoized list's floor. There are no hit counts to bound with
    /// (pass `hits = 0` to [`Kernel::score`]), so bound (i) never prunes
    /// and the sketch bound alone sits in front of the full compare.
    pub(crate) fn unprobed(query: &'q RowRef<'q>) -> Kernel<'q> {
        Kernel { sig: query.sig(), sketch: query.sketch(), slack: query.sig().len() }
    }

    /// The equal-slot count of the candidate found in `hits` probed
    /// buckets, if it reaches `floor` — `None` as soon as an upper bound
    /// on it falls short: (i) `slack + hits`, from the probe alone, then
    /// (ii) the equal bytes of the two rows' sketches. `row`
    /// fetches the candidate's row, or `None` for a candidate the driver
    /// does not want (consumed, not visible); it runs only past bound
    /// (i), so a candidate pruned there costs no memory access.
    pub(crate) fn score<'r>(
        &self,
        floor: usize,
        hits: u32,
        row: impl FnOnce() -> Option<RowRef<'r>>,
        counters: &mut QueryCounters,
    ) -> Option<usize> {
        if self.slack + (hits as usize) < floor {
            return None;
        }
        let row = row()?;
        counters.sketch_comparisons += 1;
        if equal_bytes(self.sketch, row.sketch()) < floor {
            return None;
        }
        counters.full_comparisons += 1;
        let equal = equal_slots(self.sig, row.sig());
        (equal >= floor).then_some(equal)
    }
}

/// The pass's selection: the [`CandidateSet`] a plain loop pushing every
/// candidate of `cands` at or above `threshold_floor` would end with. The
/// floor is the smallest count clearing both the threshold and the set's
/// near-tie cut, which only rises; a candidate below it would have been
/// dropped by `push` or by a later prune. `cands` must come in the
/// probe's discovery order: `choose` resolves equal similarities by
/// position, so the order is part of the merge decision.
pub(crate) fn near_tie_head(
    sims: &SimTable,
    threshold_floor: usize,
    cands: impl Iterator<Item = usize>,
    mut score: impl FnMut(usize, usize) -> Option<usize>,
) -> CandidateSet {
    let mut set = CandidateSet::new(NEAR_TIE_EPS);
    let mut floor = threshold_floor;
    for j in cands {
        if let Some(equal) = score(j, floor) {
            set.push(j, sims.sim(equal));
            let cut = set.near_tie_cut();
            floor = floor.max(sims.floor(|sim| sim >= cut));
        }
    }
    set
}

/// A scored candidate under [`sort_ranked`]'s total order, on the integer
/// count: `a < b` iff `a` ranks before `b`.
#[derive(PartialEq, Eq)]
struct Ranked<'n> {
    equal: usize,
    name: &'n str,
    id: usize,
}

impl Ord for Ranked<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.equal.cmp(&self.equal))
            .then_with(|| self.name.cmp(other.name))
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Ranked<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The corpus's selection: the first `k` entries of the [`sort_ranked`]
/// order over every candidate of `cands` at or above `threshold_floor`,
/// as `(id, similarity)`. A bounded heap keeps the `k` best so far with
/// the `k`-th on top; once it is full, its count is the floor. A
/// candidate *at* the floor must still be scored: its name may rank it
/// before the current `k`-th. The result does not depend on the order of
/// `cands`, only the work does.
pub(crate) fn top_k<'n>(
    sims: &SimTable,
    k: usize,
    threshold_floor: usize,
    cands: impl Iterator<Item = usize>,
    mut score: impl FnMut(usize, usize) -> Option<usize>,
    name: impl Fn(usize) -> &'n str,
) -> Vec<(usize, f64)> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<Ranked<'n>> = BinaryHeap::new();
    for id in cands {
        let full = heap.len() == k;
        let floor = if full { heap.peek().map_or(0, |kth| kth.equal) } else { threshold_floor };
        let Some(equal) = score(id, floor) else { continue };
        let cand = Ranked { equal, name: name(id), id };
        if !full {
            heap.push(cand);
        } else if let Some(mut kth) = heap.peek_mut() {
            if cand < *kth {
                *kth = cand;
            }
        }
    }
    heap.into_sorted_vec().into_iter().map(|r| (r.id, sims.sim(r.equal))).collect()
}

/// Builds the search structure for `strategy` over `funcs`, fanning the
/// per-function fingerprint work out across up to `jobs` threads. The
/// merge loop queries it and invalidates merged functions, one turn at a
/// time.
pub fn build_search(
    m: &Module,
    funcs: &[FuncId],
    strategy: &Strategy,
    jobs: usize,
) -> Box<dyn CandidateSearch> {
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

/// F3M: signature fingerprints (MinHash by default, SimHash or the
/// function embedding via `MergeParams::backend`) queried through a
/// banded LSH index, with the similarity threshold applied after the
/// bucket lookup. Signatures
/// and band keys live in a [`PackedFingerprintStore`], and the index is a
/// [`FlatIndex`] over its key pool, so the build, every probe and every
/// removal walk contiguous memory and hash nothing.
pub struct LshBackendSearch {
    params: MergeParams,
    store: PackedFingerprintStore,
    names: Vec<String>,
    index: FlatIndex,
    sims: SimTable,
    /// Smallest equal-slot count whose similarity is not below the
    /// threshold.
    threshold_floor: usize,
}

impl LshBackendSearch {
    /// Fingerprints every function into packed rows (see
    /// [`PackedFingerprintStore::of_functions`]) and indexes them; the
    /// store, and so the index, is identical for any job count.
    pub fn build(m: &Module, funcs: &[FuncId], params: MergeParams, jobs: usize) -> LshBackendSearch {
        let backend = backend_for(params.backend, params.k);
        let store = PackedFingerprintStore::of_functions(m, funcs, &*backend, params.lsh, jobs);
        let names = funcs.iter().map(|&f| m.function(f).name.clone()).collect();
        LshBackendSearch::over(params, store, names)
    }

    /// The search over `store`'s rows, row `i` named `names[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the store's band keys do not fit the index's `u32` slot
    /// numbers — so every row id fits the `u32` ids cast below.
    fn over(
        params: MergeParams,
        store: PackedFingerprintStore,
        names: Vec<String>,
    ) -> LshBackendSearch {
        let index = FlatIndex::build(params.lsh, store.key_pool());
        let sims = SimTable::new(params.k);
        // "Not below", not "at or above": the filter this replaces skipped
        // `sim < threshold`, which keeps everything under a NaN threshold.
        let threshold_floor =
            sims.floor(|sim| sim.partial_cmp(&params.threshold) != Some(std::cmp::Ordering::Less));
        LshBackendSearch { params, store, names, index, sims, threshold_floor }
    }

    /// Estimated similarity of functions `i` and `j` under the backend.
    fn similarity(&self, i: usize, j: usize) -> f64 {
        signature_similarity(self.store.sig(i), self.store.sig(j))
    }

    /// Probes the buckets row `i` is stored in for its candidates, into
    /// `scratch`.
    fn probe(&self, i: usize, scratch: &mut SearchScratch) -> LshQueryStats {
        self.index.probe_into(i as u32, scratch)
    }

    /// The top-`k` available candidates for function `i`, as
    /// `(index, similarity)` pairs in `sort_ranked` order. Unlike
    /// [`CandidateSearch::best_candidates`] this exposes the full ranking
    /// (not just the near-tie head), and it scores every probed candidate
    /// with [`signature_similarity`] and sorts them all: it is the offline
    /// reference that the kernel, and corpus and daemon `query` answers,
    /// are tested against.
    pub fn ranked_candidates(&self, i: usize, available: &[bool], k: usize) -> Vec<(usize, f64)> {
        let mut scratch = SearchScratch::new();
        self.probe(i, &mut scratch);
        let mut ranked: Vec<(usize, f64)> = scratch
            .out
            .iter()
            .map(|&j| j as usize)
            .filter(|&j| available[j])
            .map(|j| (j, self.similarity(i, j)))
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
        // One similarity question per distinct candidate — the quantity
        // the paper's bucket cap bounds.
        counters.comparisons += scratch.out.len() as u64;
        let query = self.store.row(i);
        let kernel = Kernel::new(&query, self.params.lsh, &qstats);
        near_tie_head(
            &self.sims,
            self.threshold_floor,
            scratch.out.iter().map(|&j| j as usize),
            |j, floor| {
                let row = || available[j].then(|| self.store.row(j));
                kernel.score(floor, scratch.hits(j as u32), row, counters)
            },
        )
    }

    fn invalidate(&mut self, idx: usize) {
        // The packed row stays (ids are positional); only the index entry
        // goes away.
        self.index.remove(idx as u32);
    }

    fn index_stats(&self) -> IndexStats {
        let mut bucket_sizes: Vec<usize> = self.index.bucket_sizes().collect();
        bucket_sizes.sort_unstable();
        IndexStats {
            buckets: bucket_sizes.len(),
            max_bucket: bucket_sizes.last().copied().unwrap_or(0),
            bucket_sizes,
            bytes_per_fn: self.store.bytes_per_fn(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use f3m_fingerprint::backend::BackendKind;
    use f3m_fingerprint::lsh::band_keys_for;
    use f3m_prng::SmallRng;
    use std::collections::HashMap;

    /// The pass's selection without the kernel: every probed candidate
    /// scored, pushed in discovery order.
    fn naive_near_tie_head(search: &LshBackendSearch, i: usize, available: &[bool]) -> CandidateSet {
        let mut scratch = SearchScratch::new();
        search.probe(i, &mut scratch);
        let mut set = CandidateSet::new(NEAR_TIE_EPS);
        for j in scratch.out.iter().map(|&j| j as usize).filter(|&j| available[j]) {
            let sim = search.similarity(i, j);
            if sim < search.params.threshold {
                continue;
            }
            set.push(j, sim);
        }
        set
    }

    /// The corpus's selection over an offline search: `top_k` driven the
    /// way `Corpus::ranked` drives it, with `available` as the filter.
    fn kernel_top_k(
        search: &LshBackendSearch,
        i: usize,
        available: &[bool],
        k: usize,
        counters: &mut QueryCounters,
    ) -> Vec<(usize, f64)> {
        let mut scratch = SearchScratch::new();
        let probe = search.probe(i, &mut scratch);
        let query = search.store.row(i);
        let kernel = Kernel::new(&query, search.params.lsh, &probe);
        let threshold = search.params.threshold;
        top_k(
            &search.sims,
            k,
            search.sims.floor(|sim| sim >= threshold),
            scratch.out.iter().map(|&j| j as usize),
            |j, floor| {
                let row = || available[j].then(|| search.store.row(j));
                kernel.score(floor, scratch.hits(j as u32), row, counters)
            },
            |j| &search.names[j],
        )
    }

    fn bits(ranked: &[(usize, f64)]) -> Vec<(usize, u64)> {
        ranked.iter().map(|&(j, sim)| (j, sim.to_bits())).collect()
    }

    /// Exactness: on every backend, bucket cap and banding, under random
    /// availability masks and thresholds, the kernel makes the decision
    /// of the naive loop — the same near-tie set (so the
    /// same `choose`, with and without a profile, index and similarity
    /// bits) and the same top-`k` lists.
    #[test]
    fn kernel_selections_equal_the_score_everything_reference() {
        let cases = if cfg!(debug_assertions) { 1 } else { 48 };
        let (mut pruned, mut decided) = (0u64, 0u64);
        for case in 0..cases {
            let mut rng = SmallRng::seed_from_u64(0x5EA1 + case);
            let (m, funcs) = workload(40, 900 + case);
            let n = funcs.len();
            let names: Vec<String> = funcs.iter().map(|&f| m.function(f).name.clone()).collect();
            let profile =
                Profile::from_counts(funcs.iter().map(|&f| (f, rng.gen_range(0..4u64))));
            for kind in BackendKind::ALL {
                for (k, rows) in [(200, 2), (114, 2), (64, 4)] {
                    let lsh = MergeParams::custom(k, rows, 0.0, usize::MAX).lsh;
                    let backend = backend_for(kind, k);
                    let store = PackedFingerprintStore::of_functions(&m, &funcs, &*backend, lsh, 1);
                    for bucket_cap in [3, 100, usize::MAX] {
                        let threshold = [0.0, 0.25, 0.6][rng.gen_range(0..3usize)];
                        let params =
                            MergeParams::custom(k, rows, threshold, bucket_cap).with_backend(kind);
                        let search = LshBackendSearch::over(params, store.clone(), names.clone());
                        let what = format!(
                            "case {case} {} k={k} rows={rows} cap={bucket_cap} t={threshold}",
                            kind.name()
                        );
                        let mask: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.7)).collect();
                        let mut scratch = SearchScratch::new();
                        for available in [vec![true; n], mask] {
                            for i in (0..n).step_by(3) {
                                let mut c = QueryCounters::default();
                                let head = search.best_candidates(i, &available, &mut c, &mut scratch);
                                let naive = naive_near_tie_head(&search, i, &available);
                                assert_eq!(format!("{head:?}"), format!("{naive:?}"), "{what} fn {i}");
                                for profile in [None, Some(&profile)] {
                                    let pick = |set: &CandidateSet| {
                                        set.choose(profile, |j| funcs[j])
                                            .map(|(j, sim)| (j, sim.to_bits()))
                                    };
                                    assert_eq!(pick(&head), pick(&naive), "{what} fn {i}");
                                }
                                for top in [1, 5, 50] {
                                    assert_eq!(
                                        bits(&kernel_top_k(&search, i, &available, top, &mut c)),
                                        bits(&search.ranked_candidates(i, &available, top)),
                                        "{what} fn {i} top-{top}"
                                    );
                                }
                                assert!(c.full_comparisons <= 4 * c.comparisons, "{what} fn {i}");
                                decided += 4 * c.comparisons;
                                pruned += 4 * c.comparisons - c.full_comparisons;
                            }
                        }
                    }
                }
            }
        }
        assert!(pruned * 2 > decided, "the bounds pruned only {pruned} of {decided} candidates");
    }

    /// Bound (i) must count truncated buckets. Every decoy equals the
    /// query in all bands but the last and has a lower id than the
    /// near-duplicate, so under a cap of 3 they hide the duplicate in all
    /// the bands they share; it shows up in the last band alone, with one
    /// hit, after the decoys have lifted the floor far above
    /// `k − bands + 1`.
    #[test]
    fn near_duplicate_hidden_by_the_cap_is_still_returned() {
        let params = MergeParams::custom(32, 2, 0.0, 3);
        let mut rng = SmallRng::seed_from_u64(0xD0_0B1E);
        let query: Vec<u64> = (0..32).map(|_| rng.next_u64()).collect();
        let decoy = |salt: u64| {
            let mut sig = query.clone();
            sig[30] ^= salt;
            sig[31] ^= salt;
            sig
        };
        let mut duplicate = query.clone();
        duplicate[0] ^= 1; // differs in the first band only: 31 of 32 slots equal
        let sigs: Vec<Vec<u64>> =
            [query.clone(), decoy(1), decoy(2), decoy(3), decoy(4), duplicate].into();
        let mut store = PackedFingerprintStore::with_capacity(32, params.lsh.bands, sigs.len());
        for sig in &sigs {
            store.push_with_keys(sig, &band_keys_for(params.lsh, sig));
        }
        let names = (0..sigs.len()).map(|i| format!("f{i}")).collect();
        let search = LshBackendSearch::over(params, store, names);

        let available = vec![true; sigs.len()];
        let mut scratch = SearchScratch::new();
        let probe = search.probe(0, &mut scratch);
        assert_eq!(scratch.out, [1, 2, 5], "decoys first, the duplicate from the last band");
        assert_eq!((scratch.hits(5), probe.truncated), (1, 15));

        let mut counters = QueryCounters::default();
        let head = search.best_candidates(0, &available, &mut counters, &mut scratch);
        assert_eq!(head.choose(None, FuncId::from_index), Some((5, 31.0 / 32.0)));
        assert_eq!(kernel_top_k(&search, 0, &available, 1, &mut counters), [(5, 31.0 / 32.0)]);
    }

    /// A generated module and its merge-eligible functions.
    fn workload(functions: usize, seed: u64) -> (Module, Vec<FuncId>) {
        let mut spec = f3m_workloads::mini_suite()[0].clone();
        spec.functions = functions;
        spec.seed = seed;
        let m = f3m_workloads::build_module(&spec);
        let funcs = m.merge_eligible();
        (m, funcs)
    }

    /// Every backend builds a working search over the same module, and
    /// each finds the planted family pairs among its top candidates; the
    /// default backend's probes recall at least 0.90 of a larger module's
    /// planted families.
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
        // Planted ground truth: generated names are `f<family>_<member>`,
        // and probing a function that has a sibling should return one
        // (drifted, retyped and shuffled clones included).
        let (m, funcs) = workload(400, 11);
        let search = LshBackendSearch::build(&m, &funcs, MergeParams::static_default(), 2);
        let family =
            |i: usize| search.names[i].rsplit_once('_').map_or("", |(family, _)| family);
        let mut members: HashMap<&str, usize> = HashMap::new();
        for i in 0..funcs.len() {
            *members.entry(family(i)).or_default() += 1;
        }
        let planted: Vec<usize> = (0..funcs.len()).filter(|&i| members[family(i)] > 1).collect();
        let mut scratch = SearchScratch::new();
        let recalled = planted
            .iter()
            .filter(|&&i| {
                search.probe(i, &mut scratch);
                scratch.out.iter().any(|&j| family(j as usize) == family(i))
            })
            .count();
        assert!(planted.len() > 300, "most of the module is planted: {}", planted.len());
        assert!(
            recalled * 10 >= planted.len() * 9,
            "MinHash recall {recalled}/{} fell below 0.90",
            planted.len()
        );
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
        }
    }
}
