//! Corpus-level candidate search: the resident, incrementally-updated
//! state behind the `f3m-serve` daemon.
//!
//! A [`Corpus`] holds every ingested module plus one fingerprint entry per
//! merge-eligible function ([`Module::merge_eligible`], the filter
//! [`run_pass`] applies), indexed in one [`LshIndex`] of `u32` entry
//! ids held by the table for the corpus lifetime — the mutable index,
//! where the offline pass builds a shrink-only
//! [`FlatIndex`](f3m_fingerprint::lsh::FlatIndex) per sweep; both fold a
//! probed bucket by the same rule. Ingesting a module fingerprints *only*
//! that module's functions and inserts them; evicting removes the module's
//! band keys and frees its body — what stays of an evicted module is a
//! tombstone record and its dead entries. Neither ever rebuilds the
//! index.
//!
//! The corpus drives the rank step, it does not re-implement it: it owns
//! the epoch, the namespace and the `QueryCache`, and ranks
//! through the kernel of [`crate::rank`] — the one the offline pass runs
//! on. [`LshBackendSearch::ranked_candidates`](crate::rank::LshBackendSearch::ranked_candidates)
//! stays a separate, exhaustive driver because it is the reference these
//! answers are tested against.
//!
//! ## Fingerprint rows
//!
//! An entry records one `row` number into the table's
//! [`PackedFingerprintStore`]: fresh ingests append, a bulk snapshot load
//! adopts the decoded store whole (and the decoded bucket directory,
//! whose flat `u32` member array becomes the index's bucket pool as it
//! is, [`LshIndex::from_directory`]), an update overwrites its
//! fixed-width row in place.
//! [`Corpus::load_snapshot_resident`] puts a read-only
//! [`ResidentStore`] *base* under it: row numbers below its `len()` are
//! rows of the snapshot file, read in shard by shard (restore cost is
//! O(touched rows)), numbers from there up are heap rows, and updating a
//! base row — the base is read-only — re-points the entry at a new heap
//! row. [`RowRef`] is the one view of either.
//!
//! ## Namespacing
//!
//! Different translation units freely reuse symbol names (every generated
//! workload has an `f0_0` and a `__driver`), so corpus-level identity is
//! the *qualified* name `<module>.<function>` — `.` because the IR symbol
//! lexer accepts only `[A-Za-z0-9_.]`. Call sites reference callees
//! through `FuncId`s, never names, so qualifying is a pure rename
//! ([`Module::rename_function`]) and instruction encodings — and hence
//! fingerprints — are unchanged. [`combine_modules`] builds the combined
//! corpus module that [`global_merge`](crate::global::global_merge) runs
//! the pass over, importing each definition from its live module.
//!
//! ## Epochs and consistency
//!
//! Every corpus operation is one critical section under the table guard,
//! and the table holds the epoch — the corpus's one clock. A mutation —
//! `ingest`, `evict` or `update_function` — installs its entries or row,
//! applies its index delta, removes the memoized lists it can change and
//! advances the epoch under a single write guard. A read — a function or
//! module query, the combined module, `stats`, a snapshot save — reads
//! the epoch and ranks under a single read guard. A reader therefore sees
//! each mutation whole or not at all, its answer is the answer at the
//! epoch it returns, and an id found in a bucket is live by construction:
//! eviction removes an entry's band keys in the same critical section
//! that marks it dead. The index lives in the table, so the borrow
//! checker holds writers to the write guard and readers to the read
//! guard; no lock of its own. Lock order is table → cache.
//!
//! Evicted entries stay in the table, dead, until a snapshot save and
//! restore compacts them.
//!
//! ## Incremental recompute (memoized ranks)
//!
//! Ranked-candidate queries are memoized in a [`QueryCache`]. A memo is
//! valid while present; a mutation removes, under its write guard, every
//! memo it can change. So a cached list serves a query iff it exists and
//! holds enough candidates: it was computed for at least as many as are
//! asked for now, or came out shorter than it was allowed to be, which
//! makes it the whole list. Nothing records when a list was computed:
//! the ranking that leaves it runs under one read guard, so no mutation
//! lands between the ranking and the memo.
//!
//! **Granularity is chosen by the verb, not by a knob.** Whole-module
//! `ingest`/`evict` go through [`LshIndex::apply_delta`] and
//! invalidate the *band-collision neighborhood*: every entry sharing a
//! bucket with any touched key, old or new. The index computes that set
//! in the one batched pass that applies the delta — one lookup per
//! distinct key, ids marked in a dense table, no bucket copied — so a
//! 600-function module's index work (8.5–10.7 ms on a shared 2 vCPU host,
//! DESIGN.md "One index and the epoch model") is a fraction of a
//! re-ingest that is mostly parse. The set is sound, and for hundreds of
//! changed rows it is also the cheap answer — one estimate per (changed
//! row, neighbor) pair would cost twice the request.
//!
//! The one function-grained write ([`Corpus::update_function`]: a
//! replacement, or a touch) uses the neighborhood only as the *candidate
//! set* of a test. An entry probes exactly the buckets it is stored in —
//! an invariant of the index, there is no other probe — and sees their
//! first `bucket_cap` ids, so a memoized list `L(q)` with floor `s_q` —
//! the score of its last entry, or the threshold when it came out shorter
//! than asked — can change through an edit of row `x` in four ways only,
//! all read off the touched buckets by
//! [`LshIndex::apply_row_delta`]:
//!
//! 1. `x ∈ L(q)`: it left, or its score changed.
//! 2. `x` is inside the visible window of a bucket `q` shares with `x`'s
//!    *new* keys and `sim(q, x) ≥ s_q`. `≥`, not `>`: at the floor the
//!    name tie-break may still rank `x` before the `k`-th entry.
//! 3. `x` left the window of an *old* bucket longer than the cap, so the
//!    entry just behind the cut **entered** it: every member `q` gains
//!    that candidate `y` — dirty if `y ∉ L(q)` and `sim(q, y) ≥ s_q`.
//! 4. `x` joined the window of an already-full *new* bucket, so the last
//!    visible entry **left** it: every member `q` may lose that candidate
//!    `z` — dirty if `z ∈ L(q)`.
//!
//! An edit moves at most one other entry across the cap per touched
//! bucket, which is what keeps the test exact under id-ordered
//! truncation. `x` itself is always dirty; everything else keeps its
//! memo; an entry without a memo has nothing to lose. The similarity
//! question is the ranking kernel's (`Kernel::score` against the floor,
//! sketch bound first). `funcs_invalidated` counts the dirty entries that
//! were live before and after the mutation, `funcs_spared` the memoized
//! neighbors that were tested and kept (both jobs-invariant, like
//! `memo_hits`/`memo_misses`).
//!
//! An edit is exactly as wide as its row. Type codes are structural
//! (`TypeId::encoding_number` is a function of the type alone), so a body
//! that introduces or drops a type changes no other function's encoding,
//! and the edited function is spliced into the resident module in place:
//! only its definition is parsed out of the replacement text, imported
//! into the module's symbols and types, verified with its callers when
//! its signature changed, and installed — no render, no module parse.
//!
//! Sparing neighbors rests on the one consistency rule above. An edit's
//! new row, index delta, memo removals and epoch bump happen under one
//! write guard, and a ranking and the memo it leaves happen under one
//! read guard, so no reader can rank against half an edit and keep the
//! list.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

use f3m_fingerprint::adaptive::MergeParams;
use f3m_fingerprint::backend::{backend_for, BackendKind, FingerprintBackend};
use f3m_fingerprint::lsh::{BandKey, BucketDirectory, Crossed, LshIndex, LshParams, QueryScratch};
use f3m_fingerprint::pager::PagerKind;
use f3m_fingerprint::resident::{ResidencyCounters, ResidentStore};
use f3m_fingerprint::snapshot::{self, Reader, SnapshotError, SnapshotHeader, Writer};
use f3m_fingerprint::store::{PackedFingerprintStore, RowRef};
use f3m_ir::function::Function;
use f3m_ir::ids::FuncId;
use f3m_ir::module::{import_function, Global, Module};
use f3m_ir::parser::{parse_module, parse_module_for, verification_failed};
use f3m_ir::printer::{print_declaration, print_function, print_global, print_module};
use f3m_ir::types::{TypeId, TypeStore};
use f3m_ir::verify::{verify_module, verify_replacement};
use f3m_trace::stats::{Stat, Value::*};

use crate::rank::{top_k, Kernel, QueryCounters, SimTable};

/// One consistent cut of the live corpus: `(epoch, live modules, module
/// of each merge-eligible function by qualified name, combined module)`
/// (see [`Corpus::combined_cut`]).
pub(crate) type Cut = (u64, usize, HashMap<String, usize>, Module);

/// Configuration of a [`Corpus`].
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    /// Fingerprint/LSH parameters shared by every entry. Fixed for the
    /// corpus lifetime: changing `k` or the banding would invalidate every
    /// resident fingerprint.
    pub params: MergeParams,
    /// Worker threads for per-module fingerprinting at ingest.
    pub jobs: usize,
}

impl Default for CorpusConfig {
    fn default() -> CorpusConfig {
        CorpusConfig { params: MergeParams::static_default(), jobs: 1 }
    }
}

/// What `ingest` did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IngestSummary {
    /// Module name as registered (the qualification prefix).
    pub module: String,
    /// Merge-eligible functions fingerprinted and indexed.
    pub functions: usize,
    /// Definitions skipped (no linked instructions).
    pub skipped: usize,
    /// Epoch at which the module became visible.
    pub epoch: u64,
}

/// What `evict` did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvictSummary {
    pub module: String,
    /// Entries removed from the index.
    pub functions: usize,
    /// Epoch at which the module stopped being visible.
    pub epoch: u64,
}

/// What `update_function` (or a `touch`) did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateSummary {
    pub module: String,
    /// Unqualified name of the updated function.
    pub func: String,
    /// Epoch at which the new body became visible.
    pub epoch: u64,
    /// Whether the replacement body differed from the resident one
    /// (`false` for a pure `touch`, which only re-fingerprints).
    pub changed: bool,
    /// Surviving resident functions whose memoized ranks this mutation
    /// invalidated — the changed function plus the entries whose memoized
    /// list the edit could change.
    pub funcs_invalidated: u64,
}

/// One ranked candidate of a query.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedCandidate {
    /// Qualified name of the candidate function, shared with the
    /// corpus entry (see [`QueryResult`]).
    pub func: Arc<str>,
    /// Estimated Jaccard similarity to the queried function.
    pub similarity: f64,
}

/// Top-k candidates of one queried function.
///
/// The names are `Arc<str>`s shared with the corpus's entries: an answer
/// bumps a reference count per name instead of copying it, and a name
/// stays valid after its module is evicted (the answer holds it). Both
/// compare and print as the plain `<module>.<function>` text.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// Qualified name of the queried function.
    pub func: Arc<str>,
    /// Candidates, best first: similarity descending, qualified name
    /// ascending on ties. The list is a function of the live functions
    /// *and their latest-ingest order*: a corpus rebuilt by ingesting the
    /// surviving modules in the order they were last ingested ranks
    /// identically, whatever internal entry ids it assigns. Ingest
    /// order matters because a probed bucket larger than `bucket_cap` is
    /// truncated to its lowest entry ids, so evicting and re-ingesting
    /// one module can change another module's k-th candidate. While no
    /// probed bucket exceeds the cap, the list depends on the live
    /// functions alone.
    pub candidates: Vec<RankedCandidate>,
}

/// A point-in-time corpus/index snapshot for `stats` responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusStats {
    /// Epoch visible to readers when the snapshot was taken.
    pub epoch: u64,
    /// Modules currently visible.
    pub modules_live: usize,
    /// Modules ever ingested (live + evicted).
    pub modules_total: usize,
    /// Function entries currently visible.
    pub functions_live: usize,
    /// Function entries ever created, live and evicted.
    pub entries_total: usize,
    /// Non-empty index buckets.
    pub index_buckets: usize,
    /// Fullest index bucket.
    pub index_max_bucket: usize,
    /// Ranked-candidate queries answered from the memo cache.
    pub memo_hits: u64,
    /// Ranked-candidate queries that had to recompute.
    pub memo_misses: u64,
    /// Surviving entries whose memoized ranks mutations invalidated: the
    /// entries whose memoized list the edit could change.
    pub funcs_invalidated: u64,
    /// Bucket neighbors of row-level edits whose memoized list was tested
    /// against the edit and kept.
    pub funcs_spared: u64,
    /// Requests answered `superseded`: a stale `if_epoch`, or a global
    /// plan a mutation raced.
    pub queries_superseded: u64,
    /// Candidates whose low-byte sketch a ranking compared.
    pub sketch_comparisons: u64,
    /// Candidates whose full signature a ranking compared.
    pub full_comparisons: u64,
    /// Pager backend of the resident fingerprint store (`None` when
    /// every row is a heap row: fresh, or bulk-loaded).
    pub resident_pager: Option<&'static str>,
    /// Snapshot pool bytes currently resident in the file-backed store.
    pub resident_bytes: u64,
    /// Shards faulted in by the residency manager since load.
    pub shard_faults: u64,
    /// Shards spilled by the residency manager to enforce its budget.
    pub shard_spills: u64,
}

/// Every [`CorpusStats`] counter, in `stats` response order; the one place
/// a counter is named besides its field. Metric names and sections lay out
/// the daemon's `--metrics` artefact (see `f3m-serve`'s `render_metrics`).
#[rustfmt::skip]
pub const CORPUS_STATS: &[Stat<CorpusStats>] = &[
    //        JSON key              metric name                  unit       det.  section
    Stat::det("epoch", "count", |s| Count(s.epoch)),
    Stat::json_only("modules_live", |s| Count(s.modules_live as u64)),
    Stat::json_only("modules_total", |s| Count(s.modules_total as u64)),
    Stat::json_only("functions_live", |s| Count(s.functions_live as u64)),
    Stat::new("entries_total",      "corpus.entries_total",      "count",   true,  3, |s| Count(s.entries_total as u64)),
    Stat::new("index_buckets",      "index.buckets",             "buckets", true,  2, |s| Count(s.index_buckets as u64)),
    Stat::new("index_max_bucket",   "index.max_bucket",          "buckets", true,  2, |s| Count(s.index_max_bucket as u64)),
    // Incremental recompute: jobs-invariant and, for a synchronous client,
    // fully deterministic.
    Stat::new("memo_hits",          "corpus.memo_hits",          "count",   true,  1, |s| Count(s.memo_hits)),
    Stat::new("memo_misses",        "corpus.memo_misses",        "count",   true,  1, |s| Count(s.memo_misses)),
    Stat::new("funcs_invalidated",  "corpus.funcs_invalidated",  "count",   true,  1, |s| Count(s.funcs_invalidated)),
    Stat::new("funcs_spared",       "corpus.funcs_spared",       "count",   true,  1, |s| Count(s.funcs_spared)),
    Stat::new("queries_superseded", "corpus.queries_superseded", "count",   true,  1, |s| Count(s.queries_superseded)),
    // Ranking work: a function of the durable state and the query
    // sequence — never of jobs. Over a resident base a
    // ranking visits its candidates in row order, so a resident restore
    // can book other counts than its bulk twin.
    Stat::new("sketch_comparisons", "corpus.sketch_comparisons", "count",   true,  1, |s| Count(s.sketch_comparisons)),
    Stat::new("full_comparisons",   "corpus.full_comparisons",   "count",   true,  1, |s| Count(s.full_comparisons)),
    // Residency: fault/spill totals depend on worker interleaving when
    // `jobs > 1`, so they are observability, not determinism, surface.
    Stat::new("resident_pager",     "resident.active",           "count",   false, 1, |s| Label(s.resident_pager)),
    Stat::new("resident_bytes",     "resident.bytes",            "count",   false, 1, |s| Count(s.resident_bytes)),
    Stat::new("shard_faults",       "resident.faults",           "count",   false, 1, |s| Count(s.shard_faults)),
    Stat::new("shard_spills",       "resident.spills",           "count",   false, 1, |s| Count(s.shard_spills)),
];

struct Entry {
    /// `<module>.<func>`, the corpus-wide identity; every answer naming
    /// this entry shares it.
    qualified: Arc<str>,
    /// Where the original (unqualified) function name starts in
    /// `qualified`.
    func_at: usize,
    /// Fingerprint row (signature + band keys): below the resident
    /// base's `len()` a row of the snapshot file, from there up a row of
    /// [`Table::rows`].
    row: u32,
    /// Whether its module is still resident; `false` once evicted.
    live: bool,
}

impl Entry {
    /// A live entry of `module`'s function `func` at fingerprint row `row`.
    fn new(module: &str, func: &str, row: usize) -> Entry {
        let qualified = Arc::from(format!("{module}.{func}"));
        Entry { qualified, func_at: module.len() + 1, row: row as u32, live: true }
    }

    /// Original (unqualified) function name.
    fn func(&self) -> &str {
        &self.qualified[self.func_at..]
    }
}

struct ModuleRecord {
    name: String,
    /// The module as ingested (unqualified names) while the record is
    /// live; `None` is a tombstone — `evict` frees the body, and what
    /// stays is what `modules_total` counts.
    body: Option<LazyModule>,
    entry_ids: Vec<usize>,
}

/// A module body that may still be IR source text.
///
/// Snapshot restore defers parsing: queries never touch module bodies
/// (they run on the resident signatures alone), so a restored daemon is
/// serving after one bulk read, and each module parses on first touch —
/// an update, a merge, or a source render. Ingested modules are born
/// parsed.
struct LazyModule {
    /// Source to parse on first touch; `None` once parsed eagerly.
    src: Option<String>,
    cell: OnceLock<Module>,
}

impl LazyModule {
    fn parsed(m: Module) -> LazyModule {
        LazyModule { src: None, cell: OnceLock::from(m) }
    }

    fn deferred(src: String) -> LazyModule {
        LazyModule { src: Some(src), cell: OnceLock::new() }
    }

    /// The parsed module, parsing the deferred source on first touch.
    /// Snapshot payloads are checksummed, so a non-parsing source means
    /// the writer produced garbage — a bug, not an input condition.
    fn get(&self) -> &Module {
        self.cell.get_or_init(|| {
            let src = self.src.as_ref().expect("deferred module has source");
            parse_module(src).expect("checksummed snapshot module source parses")
        })
    }

    /// The parsed module for an in-place edit; the deferred source, which
    /// would no longer describe it, is dropped.
    fn get_mut(&mut self) -> &mut Module {
        self.get();
        self.src = None;
        self.cell.get_mut().expect("parsed just above")
    }

    /// The canonical IR source: the deferred source, borrowed, if it was
    /// never parsed (printing is the identity on printed sources),
    /// printed otherwise.
    fn source(&self) -> Cow<'_, str> {
        match (self.cell.get(), &self.src) {
            (None, Some(src)) => Cow::Borrowed(src),
            (m, _) => Cow::Owned(print_module(m.expect("parsed or deferred"))),
        }
    }
}

struct Table {
    entries: Vec<Entry>,
    modules: Vec<ModuleRecord>,
    /// Heap fingerprint rows (see the module docs).
    rows: PackedFingerprintStore,
    /// Every live entry id under its row's band keys: written under the
    /// write guard, probed under the read guard. Ids are `u32`, the width
    /// of a snapshot's bucket members, so a restore moves each directory
    /// bucket in as it is; `ingest` refuses an entry whose id would not
    /// fit, so every table id converts at this boundary.
    index: LshIndex<u32>,
    /// Mutations applied so far (resumed from a snapshot's header): the
    /// epoch every read under this guard answers at.
    epoch: u64,
}

impl Table {
    /// Index and body of the live module `name`.
    fn live_body(&self, name: &str) -> Result<(usize, &LazyModule), String> {
        self.live_modules()
            .find(|&(mi, _)| self.modules[mi].name == name)
            .ok_or_else(|| format!("module `{name}` is not resident"))
    }

    /// Index of the live module `name`.
    fn live_module(&self, name: &str) -> Result<usize, String> {
        self.live_body(name).map(|(mi, _)| mi)
    }

    /// The live modules as `(index, body)`, in ingest order.
    fn live_modules(&self) -> impl Iterator<Item = (usize, &LazyModule)> {
        self.modules.iter().enumerate().filter_map(|(mi, rec)| Some((mi, rec.body.as_ref()?)))
    }

    /// Entry id of module `mi`'s merge-eligible function `func`.
    fn entry_of(&self, mi: usize, func: &str) -> Result<usize, String> {
        let rec = &self.modules[mi];
        rec.entry_ids.iter().copied().find(|&id| self.entries[id].func() == func).ok_or_else(|| {
            format!("module `{}` has no merge-eligible function `{func}`", rec.name)
        })
    }
}

/// One memoized ranked-candidate list: the best `k` candidates of an
/// entry (threshold-filtered, in ranking order). It is valid while it
/// exists: every mutation that could change it removes it.
struct CachedRank {
    /// How many candidates were asked for.
    k: usize,
    ranked: Vec<(usize, f64)>,
}

impl CachedRank {
    /// Whether the list holds the best `k` candidates: it was computed
    /// for at least that many, or the entry has no more than it lists.
    fn covers(&self, k: usize) -> bool {
        k <= self.k || self.ranked.len() < self.k
    }

    /// Whether `id` is one of the listed candidates.
    fn lists(&self, id: usize) -> bool {
        self.ranked.iter().any(|&(j, _)| j == id)
    }

    /// The equal-slot count below which a newcomer cannot enter the list:
    /// the count of its last entry when it is full — *at* that count the
    /// name tie-break may still rank a newcomer before the `k`-th — and
    /// the threshold's when it came out shorter than `k`. A list asked to
    /// hold nothing admits nothing.
    fn floor(&self, sims: &SimTable, threshold_floor: usize) -> usize {
        if self.ranked.len() < self.k {
            return threshold_floor;
        }
        self.ranked.last().map_or(usize::MAX, |&(_, kth)| sims.floor(|sim| sim >= kth))
    }
}

/// Memo layer over per-entry ranked candidates. Lock order is always
/// table before cache.
type QueryCache = RwLock<HashMap<usize, CachedRank>>;

#[derive(Default)]
struct CorpusCounters {
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    funcs_invalidated: AtomicU64,
    funcs_spared: AtomicU64,
    queries_superseded: AtomicU64,
    sketch_comparisons: AtomicU64,
    full_comparisons: AtomicU64,
}

/// The resident corpus: ingested modules + their fingerprint index.
///
/// All operations take `&self`. Reads proceed concurrently, each under
/// one table read guard; each mutation holds one table write guard (see
/// the module docs, "Epochs and consistency").
pub struct Corpus {
    cfg: CorpusConfig,
    backend: Box<dyn FingerprintBackend>,
    table: RwLock<Table>,
    cache: QueryCache,
    counters: CorpusCounters,
    sims: SimTable,
    /// Smallest equal-slot count whose similarity clears the threshold.
    threshold_floor: usize,
    /// Warm query scratches. A query checks one out and returns it, so
    /// the dense probe table is allocated once per concurrent reader,
    /// not once per query.
    scratches: Mutex<Vec<QueryScratch<u32>>>,
    /// Read-only base of the row space (rows below its `len()`); `None`
    /// for fresh and bulk-loaded corpora.
    resident: Option<ResidentStore>,
    /// Serializes writers: `update_function` validates and fingerprints
    /// under a read guard before it takes the write guard, and no other
    /// mutation may land in between.
    mutate: Mutex<()>,
    /// Table guards taken, read and write (see [`Corpus::read_table`]).
    #[cfg(test)]
    table_guards: [AtomicU64; 2],
}

/// True if `s` is non-empty and lexable as an IR symbol (`@name`), i.e.
/// usable as a module/qualification prefix.
pub fn symbol_safe(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new(cfg: CorpusConfig) -> Corpus {
        let backend = backend_for(cfg.params.backend, cfg.params.k);
        let rows = PackedFingerprintStore::with_capacity(cfg.params.k, cfg.params.lsh.bands, 0);
        let index = LshIndex::new(cfg.params.lsh);
        let sims = SimTable::new(cfg.params.k);
        let threshold = cfg.params.threshold;
        Corpus {
            threshold_floor: sims.floor(|sim| sim >= threshold),
            sims,
            scratches: Mutex::new(Vec::new()),
            cfg,
            backend,
            table: RwLock::new(Table {
                entries: Vec::new(),
                modules: Vec::new(),
                rows,
                index,
                epoch: 0,
            }),
            cache: RwLock::new(HashMap::new()),
            counters: CorpusCounters::default(),
            resident: None,
            mutate: Mutex::new(()),
            #[cfg(test)]
            table_guards: Default::default(),
        }
    }

    /// First heap row number: the resident base's length.
    fn heap_base(&self) -> usize {
        self.resident.as_ref().map_or(0, ResidentStore::len)
    }

    /// One entry's fingerprint row, wherever it lives: the resident base,
    /// or `rows`, the table's heap rows. Faults the owning shard of a
    /// resident row in (and may spill a cold shard under the budget) as a
    /// side effect.
    fn row<'t>(&'t self, rows: &'t PackedFingerprintStore, e: &Entry) -> RowRef<'t> {
        let row = e.row as usize;
        match &self.resident {
            Some(base) if row < base.len() => base.row(row),
            _ => rows.row(row - self.heap_base()),
        }
    }

    /// Runs `query` with a scratch checked out of the pool.
    fn with_scratch<R>(&self, query: impl FnOnce(&mut QueryScratch<u32>) -> R) -> R {
        let pool = || self.scratches.lock().expect("no query panics holding the scratch pool");
        let mut scratch = pool().pop().unwrap_or_default();
        let result = query(&mut scratch);
        pool().push(scratch);
        result
    }

    /// Residency counters of the backing resident store, if any.
    pub fn residency(&self) -> Option<(&'static str, ResidencyCounters)> {
        self.resident.as_ref().map(|s| (s.pager_name(), s.counters()))
    }

    /// The current epoch: how many mutations the corpus has applied.
    pub fn epoch(&self) -> u64 {
        self.read_table().epoch
    }

    /// Registers `m` under its own `name`, fingerprints its
    /// merge-eligible functions (in parallel for `jobs > 1`) and indexes
    /// them. No existing entry is rewritten — cost is proportional to the
    /// new module and the buckets its rows join (plus, for a name that
    /// extends or is extended by a resident module's across a dot, that
    /// module's entries).
    pub fn ingest(&self, m: Module) -> Result<IngestSummary, String> {
        let name = m.name.clone();
        if !symbol_safe(&name) {
            return Err(format!(
                "module name `{name}` is not usable as a symbol prefix \
                 (allowed: A-Z a-z 0-9 _ .)"
            ));
        }
        let funcs = m.merge_eligible();
        let skipped = m.defined_functions().len() - funcs.len();
        let rows = PackedFingerprintStore::of_functions(
            &m,
            &funcs,
            &*self.backend,
            self.cfg.params.lsh,
            self.cfg.jobs,
        );

        let _writer = self.mutate.lock().unwrap();
        let mut t = self.write_table();
        if t.live_module(&name).is_ok() {
            return Err(format!("module `{name}` is already ingested (evict it first)"));
        }
        // Live module names are unique, so two qualified names can only
        // coincide across a dot: `a` + `b.c` against `a.b` + `c`.
        let dotted = |short: &str, long: &str| {
            long.strip_prefix(short).is_some_and(|rest| rest.starts_with('.'))
        };
        let rivals: HashSet<&str> = t
            .live_modules()
            .map(|(mi, _)| &t.modules[mi])
            .filter(|rec| dotted(&rec.name, &name) || dotted(&name, &rec.name))
            .flat_map(|rec| rec.entry_ids.iter().map(|&id| &*t.entries[id].qualified))
            .collect();
        if !rivals.is_empty() {
            for &f in &funcs {
                let q = format!("{name}.{}", m.function(f).name);
                if rivals.contains(q.as_str()) {
                    return Err(format!("qualified name `{q}` collides with a resident function"));
                }
            }
        }
        let first_id = t.entries.len();
        let first_row = self.heap_base() + t.rows.len();
        check_entry_ids(first_id.max(first_row), funcs.len())?;
        t.rows.extend_from(&rows);
        for (i, &f) in funcs.iter().enumerate() {
            t.entries.push(Entry::new(&name, &m.function(f).name, first_row + i));
        }
        t.modules.push(ModuleRecord {
            name: name.clone(),
            body: Some(LazyModule::parsed(m)),
            entry_ids: (first_id..first_id + funcs.len()).collect(),
        });
        let inserted: Vec<(u32, Vec<BandKey>)> =
            (0..funcs.len()).map(|i| ((first_id + i) as u32, rows.keys(i).to_vec())).collect();
        let epoch = self.publish(&mut t, &[], &inserted);
        Ok(IngestSummary { module: name, functions: inserted.len(), skipped, epoch })
    }

    /// Removes module `name` from the corpus: marks its entries evicted,
    /// deletes their band keys from the index and frees the module's
    /// body. Cost is proportional to the module's own entries and the
    /// buckets they leave — the index is never rebuilt.
    pub fn evict(&self, name: &str) -> Result<EvictSummary, String> {
        let _writer = self.mutate.lock().unwrap();
        let mut t = self.write_table();
        let mi = t.live_module(name)?;
        let body = t.modules[mi].body.take();
        let ids = t.modules[mi].entry_ids.clone();
        let removed: Vec<(u32, Vec<BandKey>)> = ids
            .iter()
            .map(|&id| {
                t.entries[id].live = false;
                (id as u32, self.row(&t.rows, &t.entries[id]).keys().to_vec())
            })
            .collect();
        let epoch = self.publish(&mut t, &removed, &[]);
        drop(t);
        // Freed outside the table guard: readers do not wait for it.
        drop(body);
        Ok(EvictSummary { module: name.to_string(), functions: removed.len(), epoch })
    }

    /// Replaces (or, with `replacement_ir == None`, merely *touches*) one
    /// resident merge-eligible function without evicting its module — the
    /// one function-grained write.
    ///
    /// `replacement_ir` is module-wrapped IR text containing a definition
    /// of `func`. Only that definition is read: the text's top level is
    /// parsed, every other body is stepped over by a brace skim that
    /// neither lexes nor reads it, and `func`'s body is lexed, parsed and
    /// verified — a malformed body of another function in the text is
    /// ignored, even one that does not lex
    /// ([`parse_module_for`](f3m_ir::parser::parse_module_for)). So the
    /// parse costs what the top level and `func`'s body cost, not what
    /// the whole text does. The definition is then imported into a copy
    /// of the resident module's types, each symbol it names resolved by
    /// name among the resident module's (one it lacks is refused by name),
    /// and verified as the module would verify with it installed (itself,
    /// and its callers when its signature changed).
    /// The new function is installed into the resident module in place —
    /// no render, no module parse — and only its own fingerprint is
    /// recomputed: type codes are structural, so no other row can move.
    /// The index is updated by delta — old band keys out, new keys in — and
    /// only the entries whose memoized list the edit could change lose it
    /// (module docs, "Incremental recompute"). A replacement that prints
    /// like the resident body, and a `touch`, re-fingerprint the resident
    /// body and run the same test without changing any IR.
    pub fn update_function(
        &self,
        module: &str,
        func: &str,
        replacement_ir: Option<&str>,
    ) -> Result<UpdateSummary, String> {
        let _writer = self.mutate.lock().unwrap();

        // Everything up to the install runs under a read guard, and
        // readers keep being served.
        let t = self.read_table();
        let (mi, resident) = t.live_body(module)?;
        let resident = resident.get();
        let entry_id = t.entry_of(mi, func)?;
        let fid = resident.lookup_function(func).expect("an entry names a function");
        let replacement = match replacement_ir {
            Some(text) => replacement_for(resident, fid, text)?,
            None => None,
        };
        let (sig, keys) = {
            let (types, f) = match &replacement {
                Some((f, types)) => (types, f),
                None => (&resident.types, resident.function(fid)),
            };
            PackedFingerprintStore::row_of(types, f, &*self.backend, self.cfg.params.lsh)
        };
        drop(t);

        // One critical section (module docs, "Epochs and consistency"):
        // the new body and row go in, the index delta runs, the memos it
        // can change are removed and the epoch advances under a single
        // table write guard. The cache is only ever touched under a table
        // guard, so taking it here waits for nobody.
        let mut t = self.write_table();
        let mut cache = self.cache.write().unwrap();
        let changed = replacement.is_some();
        if let Some((f, types)) = replacement {
            let m = t.modules[mi].body.as_mut().expect("the module is live").get_mut();
            // An extension of the resident store: every id keeps its type.
            m.types = types;
            m.replace_function(fid, f);
        }
        let old_keys = self.rewrite_row(&mut t, entry_id, &sig, &keys);
        let (dirty, spared) = self.reindex_row(&mut t, &cache, entry_id, &old_keys);
        // Every entry the test names is live and was live before.
        let funcs_invalidated = self.invalidate(&mut cache, dirty, |_| true);
        self.counters.funcs_spared.fetch_add(spared, Ordering::Relaxed);
        t.epoch += 1;
        Ok(UpdateSummary {
            module: module.to_string(),
            func: func.to_string(),
            epoch: t.epoch,
            changed,
            funcs_invalidated,
        })
    }

    /// Gives resident entry `id` a recomputed row and returns the band
    /// keys it had.
    fn rewrite_row(&self, t: &mut Table, id: usize, sig: &[u64], keys: &[BandKey]) -> Vec<BandKey> {
        let old_keys = self.row(&t.rows, &t.entries[id]).keys().to_vec();
        match (t.entries[id].row as usize).checked_sub(self.heap_base()) {
            Some(heap_row) => t.rows.set_row(heap_row, sig, keys),
            // The resident base is read-only: re-point the entry at a new
            // heap row.
            None => {
                t.entries[id].row = (self.heap_base() + t.rows.push_with_keys(sig, keys)) as u32
            }
        }
        old_keys
    }

    /// The table read guard of a read. Unit tests count the acquisitions
    /// of both guards: a read takes one read guard, a mutation one write
    /// guard.
    fn read_table(&self) -> RwLockReadGuard<'_, Table> {
        #[cfg(test)]
        self.table_guards[0].fetch_add(1, Ordering::Relaxed);
        self.table.read().unwrap()
    }

    /// The table write guard of a mutation (see [`Self::read_table`]).
    fn write_table(&self) -> RwLockWriteGuard<'_, Table> {
        #[cfg(test)]
        self.table_guards[1].fetch_add(1, Ordering::Relaxed);
        self.table.write().unwrap()
    }

    /// Moves entry `x` — whose new row is already installed in `t` — from
    /// `old_keys` to its row's keys in the index, and decides from the
    /// touched buckets which memoized lists the edit can change: the four
    /// rules of the module docs. Returns those entries (`x` first) and how
    /// many memoized bucket neighbors were tested and spared.
    fn reindex_row(
        &self,
        t: &mut Table,
        cache: &HashMap<usize, CachedRank>,
        x: usize,
        old_keys: &[BandKey],
    ) -> (Vec<usize>, u64) {
        const SEEN: u8 = 1;
        const SEES_ROW: u8 = 2;
        const DIRTY: u8 = 4;
        // The visitor reads rows while the index moves `x`'s keys.
        let Table { entries, rows, index, .. } = t;
        let row = |q: usize| self.row(rows, &entries[q]);
        let mut state = vec![0u8; entries.len()];
        let mut neighbors = Vec::new();
        // Whether `q`'s row reaches the floor of `q`'s `memo` against the
        // kernel's row. Not booked as ranking work: no list is ranked.
        let reaches = |kernel: &Kernel, q: usize, memo: &CachedRank| {
            let floor = memo.floor(&self.sims, self.threshold_floor);
            kernel.score(floor, 0, || Some(row(q)), &mut QueryCounters::default()).is_some()
        };

        let x_row = row(x);
        index.apply_row_delta(x as u32, old_keys, x_row.keys(), |bucket| {
            for q in bucket.members.iter().map(|&q| q as usize) {
                if state[q] & SEEN == 0 {
                    neighbors.push(q);
                }
                state[q] |= SEEN | if bucket.visible { SEES_ROW } else { 0 };
            }
            // Rules 3 and 4: the one other id the step moved across the cap
            // is a candidate every member gained, or may have lost.
            let (other, entered) = match bucket.crossed {
                Some(Crossed::Entered(y)) => (y as usize, true),
                Some(Crossed::Left(z)) => (z as usize, false),
                None => return,
            };
            let other_row = entered.then(|| row(other));
            let kernel = other_row.as_ref().map(Kernel::unprobed);
            for q in bucket.members.iter().map(|&q| q as usize) {
                if q == x || q == other || state[q] & DIRTY != 0 {
                    continue;
                }
                let Some(memo) = cache.get(&q) else { continue };
                let changed = match &kernel {
                    Some(kernel) => !memo.lists(other) && reaches(kernel, q, memo),
                    None => memo.lists(other),
                };
                if changed {
                    state[q] |= DIRTY;
                }
            }
        });

        // Rules 1 and 2, once per neighbor. Row order for the same reason
        // as in `ranked`: under a resident budget each shard faults once.
        if self.resident.is_some() {
            neighbors.sort_unstable();
        }
        let kernel = Kernel::unprobed(&x_row);
        let (mut dirty, mut spared) = (vec![x], 0);
        for q in neighbors.into_iter().filter(|&q| q != x) {
            let Some(memo) = cache.get(&q) else { continue };
            if state[q] & DIRTY != 0
                || memo.lists(x)
                || (state[q] & SEES_ROW != 0 && reaches(&kernel, q, memo))
            {
                dirty.push(q);
            } else {
                spared += 1;
            }
        }
        (dirty, spared)
    }

    /// Removes the memoized ranks of `dirty`, the entries a mutation can
    /// change — the one thing that keeps a stale list from being served.
    /// Returns how many of them `survive` the mutation, live before and
    /// after it: an entry it created or evicted had no reusable memo to
    /// lose and is not counted.
    fn invalidate(
        &self,
        cache: &mut HashMap<usize, CachedRank>,
        dirty: impl IntoIterator<Item = usize>,
        survives: impl Fn(usize) -> bool,
    ) -> u64 {
        let mut invalidated = 0u64;
        for id in dirty {
            cache.remove(&id);
            invalidated += u64::from(survives(id));
        }
        self.counters.funcs_invalidated.fetch_add(invalidated, Ordering::Relaxed);
        invalidated
    }

    /// Finishes a module-level mutation under its table write guard:
    /// applies its index delta, invalidates the touched band-collision
    /// neighborhood (see [`Self::invalidate`]) and advances the epoch.
    /// Returns the mutation's epoch. The evicted entries in `removes` are
    /// already marked dead; the ids in `inserts` are the newest entries.
    fn publish(
        &self,
        t: &mut Table,
        removes: &[(u32, Vec<BandKey>)],
        inserts: &[(u32, Vec<BandKey>)],
    ) -> u64 {
        let dirty = t.index.apply_delta(removes, inserts);
        let first_new = inserts.first().map_or(t.entries.len(), |&(id, _)| id as usize);
        let survives = |id: usize| id < first_new && t.entries[id].live;
        let dirty = dirty.into_iter().map(|id| id as usize);
        self.invalidate(&mut self.cache.write().unwrap(), dirty, survives);
        t.epoch += 1;
        t.epoch
    }

    /// Top-`k` resident candidates for one function, by qualified
    /// identity (`module` + unqualified `func` name).
    pub fn query_function(
        &self,
        module: &str,
        func: &str,
        k: usize,
    ) -> Result<(u64, QueryResult), String> {
        let t = self.read_table();
        let id = t.entry_of(t.live_module(module)?, func)?;
        Ok((t.epoch, self.with_scratch(|scratch| self.ranked(&t, id, k, scratch))))
    }

    /// Top-`k` resident candidates for every merge-eligible function of
    /// `module`, in function order, and the epoch they answer at: one pass
    /// under one table read guard, which writers wait out.
    pub fn query_module(&self, module: &str, k: usize) -> Result<(u64, Vec<QueryResult>), String> {
        let t = self.read_table();
        let rec = &t.modules[t.live_module(module)?];
        let results = self.with_scratch(|scratch| {
            rec.entry_ids.iter().map(|&id| self.ranked(&t, id, k, scratch)).collect()
        });
        Ok((t.epoch, results))
    }

    /// The current epoch if it has moved past `pinned` — a caller's stale
    /// `if_epoch`, or a plan a mutation raced — counted in
    /// `queries_superseded`; `None` while the corpus is still at `pinned`.
    pub fn superseded_since(&self, pinned: u64) -> Option<u64> {
        let epoch = self.epoch();
        (epoch != pinned).then(|| {
            self.counters.queries_superseded.fetch_add(1, Ordering::Relaxed);
            epoch
        })
    }

    /// Ranks the best `k` candidates of entry `i`: probe the index
    /// into the query's `scratch`, then let the ranking kernel select,
    /// among the candidates at or above the similarity threshold, the
    /// first `k` in ranking order — the list
    /// `LshBackendSearch::ranked_candidates` computes exhaustively, so
    /// daemon queries agree with the offline search over
    /// [`combine_modules`]. The caller holds the table guard `t` across
    /// the ranking, so every id the probe finds is live.
    ///
    /// The list is memoized in the [`QueryCache`]: a cached list serves
    /// iff it exists — every mutation that could change it removes it —
    /// and it [covers](CachedRank::covers) `k`.
    fn ranked(
        &self,
        t: &Table,
        i: usize,
        k: usize,
        scratch: &mut QueryScratch<u32>,
    ) -> QueryResult {
        let ent = &t.entries[i];
        if let Some(c) = self.cache.read().unwrap().get(&i).filter(|c| c.covers(k)) {
            self.counters.memo_hits.fetch_add(1, Ordering::Relaxed);
            return Self::render_result(t, ent, &c.ranked, k);
        }
        self.counters.memo_misses.fetch_add(1, Ordering::Relaxed);
        let params = &self.cfg.params;
        let row = self.row(&t.rows, ent);
        let probe = t.index.probe_keys_into(row.keys(), i as u32, scratch);
        // The selection does not depend on the visiting order, the cost
        // does. Discovery order is free; row order costs a sort of every
        // candidate id, and pays only where rows can fault: under a
        // resident budget it makes each shard fault at most once per
        // ranking.
        if self.resident.is_some() {
            scratch.out.sort_unstable();
        }
        let kernel = Kernel::new(&row, params.lsh, &probe);
        let mut counters = QueryCounters::default();
        let ranked = top_k(
            &self.sims,
            k,
            self.threshold_floor,
            scratch.out.iter().map(|&j| j as usize),
            |j, floor| {
                let e = &t.entries[j];
                debug_assert!(e.live, "an id in a bucket is live");
                let hits = scratch.hits(j as u32);
                kernel.score(floor, hits, || Some(self.row(&t.rows, e)), &mut counters)
            },
            |j| &*t.entries[j].qualified,
        );
        self.counters.sketch_comparisons.fetch_add(counters.sketch_comparisons, Ordering::Relaxed);
        self.counters.full_comparisons.fetch_add(counters.full_comparisons, Ordering::Relaxed);
        let result = Self::render_result(t, ent, &ranked, k);
        self.cache.write().unwrap().insert(i, CachedRank { k, ranked });
        result
    }

    fn render_result(t: &Table, ent: &Entry, ranked: &[(usize, f64)], k: usize) -> QueryResult {
        QueryResult {
            func: Arc::clone(&ent.qualified),
            candidates: ranked
                .iter()
                .take(k)
                .map(|&(j, similarity)| RankedCandidate {
                    func: Arc::clone(&t.entries[j].qualified),
                    similarity,
                })
                .collect(),
        }
    }

    /// Snapshot of corpus and index occupancy.
    pub fn stats(&self) -> CorpusStats {
        let t = self.read_table();
        let residency = self.residency();
        let rc = residency.map(|(_, c)| c).unwrap_or_default();
        CorpusStats {
            resident_pager: residency.map(|(name, _)| name),
            resident_bytes: rc.resident_bytes,
            shard_faults: rc.shard_faults,
            shard_spills: rc.shard_spills,
            epoch: t.epoch,
            modules_live: t.live_modules().count(),
            modules_total: t.modules.len(),
            functions_live: t.entries.iter().filter(|e| e.live).count(),
            entries_total: t.entries.len(),
            index_buckets: t.index.num_buckets(),
            index_max_bucket: t.index.max_bucket_size(),
            memo_hits: self.counters.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.counters.memo_misses.load(Ordering::Relaxed),
            funcs_invalidated: self.counters.funcs_invalidated.load(Ordering::Relaxed),
            funcs_spared: self.counters.funcs_spared.load(Ordering::Relaxed),
            queries_superseded: self.counters.queries_superseded.load(Ordering::Relaxed),
            sketch_comparisons: self.counters.sketch_comparisons.load(Ordering::Relaxed),
            full_comparisons: self.counters.full_comparisons.load(Ordering::Relaxed),
        }
    }

    /// IR text of one resident module as currently held — including any
    /// function-level surgery applied by [`Corpus::update_function`].
    /// Re-ingesting this text into a fresh corpus reproduces the module's
    /// resident state exactly.
    pub fn module_source(&self, module: &str) -> Result<String, String> {
        let t = self.read_table();
        Ok(t.live_body(module)?.1.source().into_owned())
    }

    /// The combined module over all live modules, in ingest order, with
    /// every definition under its qualified name (see [`combine_modules`]),
    /// and the epoch it is the answer at: one cut under one table read
    /// guard.
    pub fn combined_module(&self) -> Result<(u64, Module), String> {
        let (epoch, _, _, m) = self.combined_cut()?;
        Ok((epoch, m))
    }

    /// [`Corpus::combined_module`] plus, from the same read guard, the
    /// number of live modules and the live module (by table index) of each
    /// merge-eligible function, keyed by qualified name — what a
    /// cross-module merge reports beside its merges.
    pub(crate) fn combined_cut(&self) -> Result<Cut, String> {
        let t = self.read_table();
        let mut module_of = HashMap::new();
        let mut live = Vec::new();
        for (mi, body) in t.live_modules() {
            for &id in &t.modules[mi].entry_ids {
                module_of.insert(t.entries[id].qualified.to_string(), mi);
            }
            live.push(body.get());
        }
        Ok((t.epoch, live.len(), module_of, combine_modules(&live)?))
    }

    /// Persists the live corpus as one contiguous snapshot file: packed
    /// signature and band-key pools, the bucket directory of the
    /// index, and a payload carrying module sources plus each row's
    /// module and function. [`Corpus::load_snapshot`] restores the whole
    /// thing in O(file size) — no re-fingerprinting, no index rebuild.
    ///
    /// Evicted modules and entries are compacted away; the restored
    /// corpus is equivalent to a fresh one holding exactly the live
    /// state (`modules_total`/`entries_total` restart at the live
    /// counts, memo counters at zero). The file is written under one
    /// table read guard, so the table, the index and the epoch are one
    /// consistent cut.
    pub fn save_snapshot(&self, path: &Path) -> Result<(), SnapshotError> {
        let t = self.read_table();

        // Compact live entries to dense snapshot rows (entry order, so
        // bucket member lists stay ascending after remapping).
        let live: Vec<usize> = (0..t.entries.len()).filter(|&i| t.entries[i].live).collect();
        let mut row_of = vec![u32::MAX; t.entries.len()];
        for (row, &id) in live.iter().enumerate() {
            row_of[id] = row as u32;
        }
        let mut store = PackedFingerprintStore::with_capacity(
            self.cfg.params.k,
            self.cfg.params.lsh.bands,
            live.len(),
        );
        for &id in &live {
            let row = self.row(&t.rows, &t.entries[id]);
            store.push_with_keys(row.sig(), row.keys());
        }

        // The bucket directory: the index's buckets laid out flat in key
        // order, entry ids renumbered to snapshot rows in place.
        let buckets = t.index.export_directory().map(|id| row_of[id as usize]);
        debug_assert!(
            buckets.iter().all(|(_, rows)| rows.windows(2).all(|w| w[0] <= w[1])),
            "live rows preserve entry order"
        );

        // Payload: live module sources, then per-row metadata.
        let live_modules: Vec<(usize, &LazyModule)> = t.live_modules().collect();
        let mut entry_module = vec![u32::MAX; t.entries.len()];
        for (mrow, &(mi, _)) in live_modules.iter().enumerate() {
            for &id in &t.modules[mi].entry_ids {
                entry_module[id] = mrow as u32;
            }
        }
        let mut payload = Writer::default();
        payload.u32(live_modules.len() as u32);
        for &(mi, body) in &live_modules {
            payload.str(&t.modules[mi].name);
            payload.str(&body.source());
        }
        for &id in &live {
            debug_assert_ne!(entry_module[id], u32::MAX, "live entry belongs to a live module");
            payload.u32(entry_module[id]);
            payload.str(t.entries[id].func());
        }

        let header = SnapshotHeader {
            backend: self.cfg.params.backend,
            k: self.cfg.params.k,
            lsh: self.cfg.params.lsh,
            threshold: self.cfg.params.threshold,
            epoch: t.epoch,
            entries: live.len(),
        };
        snapshot::save_snapshot(path, &header, &store, &buckets, &payload.buf)
    }

    /// Restores a corpus saved by [`Corpus::save_snapshot`] in one bulk
    /// read: the decoded packed store becomes the table's row store as
    /// is, the index takes the decoded directory over as its pool, and
    /// the epoch resumes where the snapshot left off. Module bodies are NOT
    /// parsed here — queries run on the resident signatures, so restore
    /// cost is I/O + decode, and each body parses on first touch (an
    /// update, a merge, or a source render).
    ///
    /// `cfg.params` must match the snapshot header exactly — resident
    /// fingerprints are only valid under the parameters they were
    /// computed with — otherwise [`SnapshotError::Mismatch`].
    pub fn load_snapshot(path: &Path, cfg: CorpusConfig) -> Result<Corpus, SnapshotError> {
        let snap = snapshot::open_snapshot(path)?;
        Self::restore(cfg, snap.header, snap.buckets, &snap.payload, snap.store, None)
    }

    /// Restores a snapshot *without* reading the fingerprint pools:
    /// validates and decodes only the meta prefix (header, bucket
    /// directory, payload), opens the file as a [`ResidentStore`], and
    /// leaves every entry's row in the file. Rows are read in
    /// shard-by-shard as queries touch them, and `resident_budget`
    /// (0 = unlimited) caps how many snapshot pool bytes stay hot at
    /// once — restart cost becomes O(touched), not O(corpus).
    /// `PagerKind::Auto` is the only pager.
    ///
    /// Answers are byte-identical to [`Corpus::load_snapshot`] under any
    /// budget; only the residency counters, RSS and the ranking-work
    /// counters differ. Rejects the same files and mismatches.
    pub fn load_snapshot_resident(
        path: &Path,
        cfg: CorpusConfig,
        pager: PagerKind,
        resident_budget: u64,
    ) -> Result<Corpus, SnapshotError> {
        let (meta, base) = ResidentStore::open(path, pager, resident_budget)?;
        let heap = PackedFingerprintStore::with_capacity(base.k(), base.bands(), 0);
        Self::restore(cfg, meta.header, meta.buckets, &meta.payload, heap, Some(base))
    }

    /// `cfg.params` must match the snapshot header exactly — resident
    /// fingerprints are only valid under the parameters they were
    /// computed with.
    fn check_snapshot_params(h: &SnapshotHeader, params: &MergeParams) -> Result<(), SnapshotError> {
        let describe = |backend: BackendKind, k: usize, lsh: LshParams, threshold: f64| {
            let (name, bands, rows) = (backend.name(), lsh.bands, lsh.rows);
            format!("backend={name} k={k} bands={bands} rows={rows} threshold={threshold}")
        };
        if (h.backend, h.k, h.lsh, h.threshold.to_bits())
            != (params.backend, params.k, params.lsh, params.threshold.to_bits())
        {
            return Err(SnapshotError::Mismatch(format!(
                "snapshot was written under {}; the corpus is configured for {}",
                describe(h.backend, h.k, h.lsh, h.threshold),
                describe(params.backend, params.k, params.lsh, params.threshold),
            )));
        }
        Ok(())
    }

    /// Shared tail of the two snapshot loaders: check the parameters,
    /// decode the payload, build the table (entry `i` is snapshot row `i`
    /// — of `rows`, or of the `resident` base when there is one and
    /// `rows` is empty), restore the bucket directory and resume the
    /// epoch.
    fn restore(
        cfg: CorpusConfig,
        header: SnapshotHeader,
        buckets: BucketDirectory<u32>,
        payload: &[u8],
        rows: PackedFingerprintStore,
        resident: Option<ResidentStore>,
    ) -> Result<Corpus, SnapshotError> {
        Self::check_snapshot_params(&header, &cfg.params)?;
        let payload = decode_corpus_payload(payload, header.entries)?;
        let mut corpus = Corpus::new(cfg);
        corpus.resident = resident;
        {
            let t = corpus.table.get_mut().unwrap();
            t.rows = rows;
            t.epoch = header.epoch;
            let mut entry_ids: Vec<Vec<usize>> = vec![Vec::new(); payload.modules.len()];
            for (row, (mi, entry)) in payload.entries.into_iter().enumerate() {
                entry_ids[mi].push(row);
                t.entries.push(entry);
            }
            // Module bodies stay as deferred source text: queries run on
            // the resident signatures alone, so the daemon serves after
            // this one bulk read and each body parses on first touch.
            for ((name, src), ids) in payload.modules.into_iter().zip(entry_ids) {
                t.modules.push(ModuleRecord {
                    name,
                    body: Some(LazyModule::deferred(src)),
                    entry_ids: ids,
                });
            }
            // Entry `i` is row `i`, and the index holds `u32` ids like the
            // directory: the index takes the directory over as its pool.
            t.index = LshIndex::from_directory(header.lsh, buckets);
        }
        Ok(corpus)
    }
}

/// Checks that `n` entries (or rows) numbered from `first` get ids the
/// index can hold. The index holds `u32` ids and a corpus at most
/// `u32::MAX` entries, so `u32::MAX` is never an id — it stays the
/// snapshot writer's no-row mark.
fn check_entry_ids(first: usize, n: usize) -> Result<(), String> {
    match first.checked_add(n) {
        Some(end) if end <= u32::MAX as usize => Ok(()),
        _ => Err(format!(
            "the corpus holds at most {} entries; this module would pass it",
            u32::MAX
        )),
    }
}

/// The decoded snapshot payload.
struct CorpusPayload {
    /// Live modules as `(name, IR source)`, ingest order.
    modules: Vec<(String, String)>,
    /// One `(module index, entry)` per snapshot row; entry `i` has row `i`.
    entries: Vec<(usize, Entry)>,
}

fn decode_corpus_payload(bytes: &[u8], entries: usize) -> Result<CorpusPayload, SnapshotError> {
    let mut r = Reader::new(bytes);
    let mut decode = || {
        let num_modules = r.u32()? as usize;
        let mut modules = Vec::with_capacity(num_modules.min(bytes.len() / 8 + 1));
        for _ in 0..num_modules {
            modules.push((r.str()?, r.str()?));
        }
        // A hostile header can claim any entry count; each record is at
        // least 8 bytes, so cap the preallocation by what could possibly
        // still be encoded (the loop then fails with a clean truncation).
        let mut out = Vec::with_capacity(entries.min(bytes.len() / 8 + 1));
        for row in 0..entries {
            let (mi, func) = (r.u32()? as usize, r.str()?);
            let Some((module, _)) = modules.get(mi) else {
                return Err(SnapshotError::Corrupt("entry references a missing module"));
            };
            out.push((mi, Entry::new(module, &func, row)));
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupt("corpus payload has trailing bytes"));
        }
        Ok(CorpusPayload { modules, entries: out })
    };
    // The payload sits inside the checksummed meta region, so running off
    // its end means the writer lied about it: `Corrupt`, not `Truncated`.
    decode().map_err(|e| match e {
        SnapshotError::Truncated => SnapshotError::Corrupt("corpus payload truncated"),
        other => other,
    })
}

/// The new definition of `resident`'s function `fid` that `text` — module-
/// wrapped IR defining it — carries, imported into a copy of `resident`'s
/// types (see [`Corpus::update_function`]); `None` when it prints like the
/// resident body.
fn replacement_for(
    resident: &Module,
    fid: FuncId,
    text: &str,
) -> Result<Option<(Function, TypeStore)>, String> {
    let func = &resident.function(fid).name;
    let (incoming, id) =
        parse_module_for(text, func).map_err(|e| format!("update: replacement does not parse: {e}"))?;
    let id = id.ok_or_else(|| format!("update: replacement does not define `{func}`"))?;
    if incoming.function(id).num_linked_insts() == 0 {
        return Err(format!(
            "update: replacement `{func}` has no linked instructions \
             (would become merge-ineligible)"
        ));
    }
    if print_function(resident, fid) == print_function(&incoming, id) {
        return Ok(None);
    }
    let mut types = resident.types.clone();
    let funcs = |g| resident.lookup_function(&incoming.function(g).name);
    let globals = |g| resident.lookup_global(&incoming.global(g).name);
    let spliced = import_function(&incoming, id, &mut types, funcs, globals).and_then(|f| {
        verify_replacement(resident, &types, fid, &f).map_err(|e| verification_failed(&e).to_string())?;
        Ok(Some((f, types)))
    });
    spliced.map_err(|e| format!("update: spliced module does not verify: {e}"))
}

/// Combines modules into one, qualifying every definition as
/// `<module>.<function>` and deduplicating shared globals and external
/// declarations by name. A declaration is dropped when any module
/// *defines* that exact symbol; conflicting duplicate globals or
/// declarations (same name, different printed line) are errors, as are
/// qualified-name collisions.
///
/// The result holds the shared globals and the surviving declarations in
/// first-seen order, then the definitions in module order, each brought
/// in by [`import_function`] with its references resolved by name — every
/// id a parse of the modules' concatenated prints would give — and is
/// verified as that parse would verify it.
pub fn combine_modules(mods: &[&Module]) -> Result<Module, String> {
    let (mut seen_globals, mut globals) = (HashMap::new(), Vec::new());
    let (mut seen_declares, mut declares) = (HashMap::new(), Vec::new());
    let (mut defined, mut definitions) = (HashSet::new(), Vec::new());
    for (mi, &m) in mods.iter().enumerate() {
        if !symbol_safe(&m.name) {
            return Err(format!("module name `{}` is not a valid symbol prefix", m.name));
        }
        // Qualifying renames the definitions in order: a qualified name
        // collides with a declaration or a definition not yet renamed.
        for id in m.defined_functions() {
            let q = format!("{}.{}", m.name, m.function(id).name);
            if m.lookup_function(&q).is_some_and(|o| o > id || m.function(o).is_declaration) {
                return Err(format!("qualified name `{q}` collides inside module `{}`", m.name));
            }
        }
        for (gid, g) in m.globals() {
            let line = print_global(m, g);
            if seen_globals.get(g.name.as_str()).is_some_and(|seen| *seen != line) {
                return Err(format!("global `@{}` redefined with a different type or initializer", g.name));
            }
            if seen_globals.insert(g.name.as_str(), line).is_none() {
                globals.push((mi, gid));
            }
        }
        for (id, f) in m.functions() {
            if !f.is_declaration {
                let q = format!("{}.{}", m.name, f.name);
                if !defined.insert(q.clone()) {
                    return Err(format!("qualified name `{q}` defined twice"));
                }
                definitions.push((mi, id, q));
                continue;
            }
            let line = print_declaration(m, f);
            if seen_declares.get(f.name.as_str()).is_some_and(|seen| *seen != line) {
                return Err(format!("external `@{}` declared with conflicting signatures", f.name));
            }
            if seen_declares.insert(f.name.as_str(), line).is_none() {
                declares.push((mi, id));
            }
        }
    }

    // The store is lent out: the imports intern into it while their maps
    // look names up in `out`.
    let mut out = Module::new("corpus");
    let mut types = std::mem::take(&mut out.types);
    for (mi, g) in globals {
        let g = mods[mi].global(g);
        let ty = types.import(&mods[mi].types, g.ty);
        out.add_global(Global { name: g.name.clone(), ty, init: g.init.clone() });
    }
    for (mi, id) in declares {
        if !defined.contains(&mods[mi].function(id).name) {
            out.add_function(import_function(mods[mi], id, &mut types, |_| None, |_| None)?);
        }
    }
    // Every definition is named before any body names it.
    for (_, _, q) in &definitions {
        out.add_function(Function::new_declaration(q.clone(), Vec::new(), TypeId::VOID));
    }
    for (mi, id, q) in definitions {
        let m = mods[mi];
        let name = |f: &Function| {
            if f.is_declaration { f.name.clone() } else { format!("{}.{}", m.name, f.name) }
        };
        let funcs = |g| out.lookup_function(&name(m.function(g)));
        let globals = |g| out.lookup_global(&m.global(g).name);
        let mut f = import_function(m, id, &mut types, funcs, globals).map_err(|e| format!("combine: {e}"))?;
        let at = out.lookup_function(&q).expect("named above");
        f.name = q;
        out.replace_function(at, f);
    }
    out.types = types;
    verify_module(&out).map_err(|errs| format!("combine: {}", verification_failed(&errs)))?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{global_merge, GlobalPlanConfig};
    use crate::pass::{run_pass, PassConfig};
    use crate::rank::LshBackendSearch;
    use f3m_fingerprint::backend::BackendKind;

    fn workload(name: &str, seed: u64) -> Module {
        let mut spec = f3m_workloads::mini_suite()[0].clone();
        spec.functions = 24;
        spec.seed = seed;
        let mut m = f3m_workloads::build_module(&spec);
        m.name = name.to_string();
        m
    }

    fn corpus() -> Corpus {
        Corpus::new(CorpusConfig { jobs: 2, ..CorpusConfig::default() })
    }

    /// Every generated workload is named as a symbol prefix allows, so
    /// the generator's own output ingests (a global merge and a daemon
    /// take modules through the same door).
    #[test]
    fn generated_modules_are_named_as_symbol_prefixes() {
        for spec in f3m_workloads::table1().iter().chain(&f3m_workloads::mini_suite()) {
            let name = f3m_workloads::build_module(&spec.scaled(0.0)).name;
            assert!(symbol_safe(&name), "{} is generated as `{name}`", spec.name);
        }
        let linux = f3m_workloads::table1().into_iter().find(|s| s.name == "linux-scale");
        let m = f3m_workloads::build_module(&linux.expect("a linux-scale row").scaled(0.001));
        assert_eq!(m.name, "linux_scale");
        let summary = corpus().ingest(m).expect("a generated module ingests");
        assert!(summary.functions > 0);
    }

    /// The daemon's answers equal the offline search's over the combined
    /// module — where nothing filters (threshold 0.0, single probe) and
    /// where the threshold cuts lists short and multi-probe widens them,
    /// under both a slot-equality and a sign-bit backend.
    #[test]
    fn ingest_query_matches_offline_seam_on_combined_module() {
        let m1 = workload("alpha", 11);
        let m2 = workload("beta", 22);
        let combined = combine_modules(&[&m1, &m2]).unwrap();
        let funcs = combined.merge_eligible();
        let available = vec![true; funcs.len()];

        for backend in [BackendKind::MinHash, BackendKind::Embed] {
            for threshold in [0.0, 0.3] {
                let params = MergeParams { threshold, ..MergeParams::static_default() }
                    .with_backend(backend);
                let case = format!("{} t={threshold}", backend.name());
                let c = Corpus::new(CorpusConfig { params, jobs: 2 });
                c.ingest(m1.clone()).unwrap();
                c.ingest(m2.clone()).unwrap();
                let search = LshBackendSearch::build(&combined, &funcs, params, 1);

                let (_, results) = c.query_module("alpha", 5).unwrap();
                assert!(!results.is_empty());
                let mut nonempty = 0;
                for (i, r) in results.iter().enumerate() {
                    let offline_names: Vec<(String, f64)> = search
                        .ranked_candidates(i, &available, 5)
                        .into_iter()
                        .map(|(j, s)| (combined.function(funcs[j]).name.clone(), s))
                        .collect();
                    let daemon_names: Vec<(String, f64)> =
                        r.candidates.iter().map(|c| (c.func.to_string(), c.similarity)).collect();
                    assert_eq!(daemon_names, offline_names, "{case}: function {i} ({})", r.func);
                    nonempty += usize::from(!r.candidates.is_empty());
                }
                assert!(nonempty > 0, "{case}: workload families must produce candidates");
            }
        }
    }

    /// The memo rule: a list computed for `k` serves any `k' ≤ k`, and any
    /// `k'` at all when it came out shorter than `k` (it is the whole
    /// list); otherwise the ranking is recomputed for the larger `k`.
    /// Every step is booked as exactly one hit or one miss.
    #[test]
    fn memo_serves_the_requests_its_list_covers() {
        let params = MergeParams { threshold: 0.3, ..MergeParams::static_default() };
        let build = || {
            let c = Corpus::new(CorpusConfig { params, jobs: 2 });
            c.ingest(workload("alpha", 11)).unwrap();
            c.ingest(workload("beta", 22)).unwrap();
            c
        };
        let (_, reference) = build().query_module("alpha", 50).unwrap();
        let c = build();
        let (mut long, mut short) = (0, 0);
        for full in &reference {
            let func = full.func.strip_prefix("alpha.").unwrap();
            let total = full.candidates.len();
            assert!(total < 50, "k = 50 must list every candidate of {func}");
            // (k asked for, whether the list memoized so far covers it)
            let steps = [
                (2, false),
                (5, total < 2),
                (1, true),
                (50, total < 5),
                (5, true),
            ];
            for (k, hit) in steps {
                let before = c.stats();
                let (_, got) = c.query_function("alpha", func, k).unwrap();
                let fresh = &full.candidates[..k.min(total)];
                assert_eq!(got.candidates, fresh, "{func} k={k} equals a fresh corpus's answer");
                let after = c.stats();
                let booked = (after.memo_hits - before.memo_hits, after.memo_misses - before.memo_misses);
                assert_eq!(booked, if hit { (1, 0) } else { (0, 1) }, "{func} ({total} candidates) k={k}");
            }
            long += usize::from(total >= 5);
            short += usize::from(total < 2);
        }
        assert!(long > 0 && short > 0, "need long ({long}) and complete ({short}) lists");
    }

    /// Entry ids are the index's `u32` ids: an ingest that would number
    /// an entry `u32::MAX` or past it is refused, not wrapped.
    #[test]
    fn entry_ids_stop_below_u32_max() {
        let max = u32::MAX as usize;
        assert!(check_entry_ids(0, 600).is_ok());
        assert!(check_entry_ids(max - 600, 600).is_ok(), "the last id is u32::MAX - 1");
        assert!(check_entry_ids(max - 600, 601).is_err());
        assert!(check_entry_ids(max, 0).is_ok(), "an empty module takes no id");
        assert!(check_entry_ids(usize::MAX, 1).is_err(), "no overflow on the way");
    }

    /// A cold single-function query checks a warm scratch out of the
    /// corpus instead of allocating a probe table of its own.
    #[test]
    fn cold_function_queries_reuse_the_pooled_scratch() {
        let c = corpus();
        let alpha = workload("alpha", 11);
        c.ingest(alpha.clone()).unwrap();
        c.ingest(workload("beta", 22)).unwrap();
        c.query_module("alpha", 5).unwrap();
        c.query_module("beta", 5).unwrap();
        let pool = || -> Vec<u64> {
            c.scratches.lock().unwrap().iter().map(QueryScratch::grows).collect()
        };
        let warm = pool();
        assert_eq!(warm.len(), 1, "sequential queries share one scratch");
        assert!(warm[0] > 0, "the sweep sized the probe table");

        let (dst, _) = family_pair(&alpha);
        c.update_function("alpha", &dst, None).unwrap();
        let misses = c.stats().memo_misses;
        c.query_function("alpha", &dst, 5).unwrap();
        assert_eq!(c.stats().memo_misses, misses + 1, "the touched function ranks cold");
        assert_eq!(pool(), warm, "and allocates no table doing so");
    }

    #[test]
    fn evict_hides_candidates_without_rebuild() {
        let c = corpus();
        c.ingest(workload("alpha", 11)).unwrap();
        c.ingest(workload("beta", 11)).unwrap(); // same seed: cross-module twins
        let (_, before) = c.query_module("alpha", 10).unwrap();
        assert!(before
            .iter()
            .any(|r| r.candidates.iter().any(|cand| cand.func.starts_with("beta."))));

        let before_stats = c.stats();
        let summary = c.evict("beta").unwrap();
        assert!(summary.functions > 0);
        let after_stats = c.stats();
        assert_eq!(after_stats.epoch, before_stats.epoch + 1);
        assert_eq!(after_stats.modules_live, 1);
        assert_eq!(after_stats.modules_total, 2);
        assert!(after_stats.functions_live < before_stats.functions_live);

        let (_, after) = c.query_module("alpha", 10).unwrap();
        for r in &after {
            assert!(
                r.candidates.iter().all(|cand| cand.func.starts_with("alpha.")),
                "evicted module still surfaced: {r:?}"
            );
        }
        // The name is free again.
        c.ingest(workload("beta", 33)).unwrap();
        assert_eq!(c.stats().modules_live, 2);
    }

    #[test]
    fn duplicate_module_and_bad_names_are_rejected() {
        let c = corpus();
        c.ingest(workload("alpha", 1)).unwrap();
        assert!(c.ingest(workload("alpha", 2)).unwrap_err().contains("already ingested"));
        assert!(c.ingest(workload("no spaces", 3)).unwrap_err().contains("symbol prefix"));
        assert!(c.evict("ghost").unwrap_err().contains("not resident"));
        assert!(c.query_module("ghost", 1).is_err());
        assert!(c.query_function("alpha", "nosuch", 1).is_err());

        // Module names are unique; qualified names still collide where one
        // module's name continues across a dot into the other's functions.
        let module = |name: &str, func: &str| {
            let body = "(i32 %0) -> i32 {\nbb0:\n  %1 = add i32 %0, 1\n  ret i32 %1\n}";
            parse_module(&format!("module \"{name}\" {{\ndefine @{func}{body}\n}}\n")).unwrap()
        };
        for (resident, incoming) in [(("a", "b.c"), ("a.b", "c")), (("a.b", "c"), ("a", "b.c"))] {
            let c = corpus();
            c.ingest(module(resident.0, resident.1)).unwrap();
            c.ingest(module("a.bc", "c")).unwrap();
            let err = c.ingest(module(incoming.0, incoming.1)).unwrap_err();
            assert_eq!(err, "qualified name `a.b.c` collides with a resident function");
            c.ingest(module(incoming.0, "d")).unwrap();
            c.evict(incoming.0).unwrap();
            c.evict(resident.0).unwrap();
            c.ingest(module(incoming.0, incoming.1)).unwrap();
        }
    }

    /// A tombstone holds no body, and nothing that answers from the live
    /// modules can tell: a corpus that evicted and re-ingested `beta`
    /// renders, merges, snapshots and counts like one that is asked the
    /// same things of the same live state.
    #[test]
    fn evict_frees_the_module_body() {
        let c = corpus();
        c.ingest(workload("alpha", 11)).unwrap();
        c.ingest(workload("beta", 22)).unwrap();
        let bodies = || -> Vec<bool> {
            c.table.read().unwrap().modules.iter().map(|rec| rec.body.is_some()).collect()
        };
        c.evict("beta").unwrap();
        assert_eq!(bodies(), [true, false]);
        assert!(c.module_source("beta").unwrap_err().contains("not resident"));
        c.ingest(workload("beta", 33)).unwrap();
        assert_eq!(bodies(), [true, false, true]);

        let fresh = corpus();
        fresh.ingest(workload("alpha", 11)).unwrap();
        fresh.ingest(workload("beta", 33)).unwrap();
        for name in ["alpha", "beta"] {
            assert_eq!(c.module_source(name).unwrap(), fresh.module_source(name).unwrap());
            assert_eq!(c.query_module(name, 5).unwrap().1, fresh.query_module(name, 5).unwrap().1);
        }
        let merged = |c: &Corpus| {
            let (_, mut m) = c.combined_module().unwrap();
            let report = run_pass(&mut m, &PassConfig::f3m());
            (report.stats.merges_committed, f3m_ir::printer::print_module(&m))
        };
        assert_eq!(merged(&c), merged(&fresh));
        let stats = c.stats();
        assert_eq!((stats.modules_live, stats.modules_total), (2, 3));
        assert_eq!(stats.functions_live, fresh.stats().functions_live);

        let dir = std::env::temp_dir().join(format!("f3m_corpus_tombstone_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.f3msnap");
        c.save_snapshot(&path).unwrap();
        let cfg = CorpusConfig { jobs: 2, ..CorpusConfig::default() };
        let restored = Corpus::load_snapshot(&path, cfg).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let stats = restored.stats();
        assert_eq!((stats.modules_live, stats.modules_total), (2, 2));
        for name in ["alpha", "beta"] {
            assert_eq!(restored.module_source(name).unwrap(), c.module_source(name).unwrap());
            assert_eq!(restored.query_module(name, 5).unwrap().1, c.query_module(name, 5).unwrap().1);
        }
    }

    /// The pass runs over the combined corpus: one cut, answered at the
    /// epoch it was read at.
    #[test]
    fn merge_runs_over_combined_corpus() {
        let c = corpus();
        c.ingest(workload("alpha", 5)).unwrap();
        c.ingest(workload("beta", 5)).unwrap();
        let (epoch, mut merged) = c.combined_module().unwrap();
        assert_eq!(epoch, c.epoch());
        let report = run_pass(&mut merged, &PassConfig::f3m());
        assert!(report.stats.merges_committed > 0, "twin modules must merge");
        assert!(merged.lookup_function("alpha.__driver").is_some());
        assert!(merged.lookup_function("beta.__driver").is_some());
        // Resident state is untouched by the pass.
        assert_eq!(c.stats().modules_live, 2);
    }

    /// Two merge-eligible members of the same workload family in `m`
    /// (same generated signature, different bodies), as (name_a, name_b).
    fn family_pair(m: &Module) -> (String, String) {
        let eligible: Vec<String> =
            m.merge_eligible().into_iter().map(|f| m.function(f).name.clone()).collect();
        for a in &eligible {
            let Some((fam, member)) = a.rsplit_once('_') else { continue };
            if member != "0" {
                continue;
            }
            let b = format!("{fam}_1");
            if eligible.contains(&b) {
                return (a.clone(), b);
            }
        }
        panic!("workload has no eligible family pair");
    }

    /// IR text of `m` with `dst`'s body replaced by `src`'s (same
    /// signature — they are family members), leaving `src` intact.
    fn body_swap_patch(m: &Module, dst: &str, src: &str) -> String {
        let mut patched = m.clone();
        let d = patched.lookup_function(dst).unwrap();
        let s = patched.lookup_function(src).unwrap();
        patched.rename_function(d, format!("{dst}__old"));
        patched.rename_function(s, dst.to_string());
        // Only `dst` is looked up in the patch; the leftover `__old`
        // definition and the missing `src` are ignored by update.
        f3m_ir::printer::print_module(&patched)
    }

    #[test]
    fn update_function_swaps_body_and_requeries_incrementally() {
        let c = corpus();
        let alpha = workload("alpha", 11);
        c.ingest(alpha.clone()).unwrap();
        c.ingest(workload("beta", 22)).unwrap();
        let (dst, src) = family_pair(&alpha);

        // Warm the memo: second identical query is all hits.
        let (_, cold) = c.query_module("alpha", 5).unwrap();
        c.query_module("beta", 5).unwrap();
        let miss_after_warm = c.stats().memo_misses;
        let (_, warm) = c.query_module("alpha", 5).unwrap();
        assert_eq!(cold, warm);
        let s = c.stats();
        assert_eq!(s.memo_misses, miss_after_warm, "warm query must not recompute");
        assert!(s.memo_hits >= cold.len() as u64);

        let patch = body_swap_patch(&alpha, &dst, &src);
        let up = c.update_function("alpha", &dst, Some(&patch)).unwrap();
        assert!(up.changed);
        assert!(up.funcs_invalidated >= 1, "at least the updated function is dirtied");
        assert_eq!(up.epoch, c.epoch());

        // The new body is byte-identical to its source sibling, so the
        // source is now a similarity-1.0 candidate of the updated
        // function.
        let (_, qr) = c.query_function("alpha", &dst, 5).unwrap();
        let top = qr.candidates.first().expect("swapped body must have candidates");
        assert_eq!(top.similarity, 1.0, "identical body ranks at 1.0: {qr:?}");
        assert!(
            qr.candidates.iter().any(|cand| *cand.func == format!("alpha.{src}")),
            "source sibling must surface: {qr:?}"
        );

        // O(changed): with every live entry warmed, re-querying both
        // modules recomputes exactly the invalidated entries.
        c.query_module("alpha", 5).unwrap();
        c.query_module("beta", 5).unwrap();
        let miss_before = c.stats().memo_misses;
        c.query_module("alpha", 5).unwrap();
        c.query_module("beta", 5).unwrap();
        assert_eq!(c.stats().memo_misses, miss_before, "all entries warm again");

        // The resident module really carries the new body.
        let (_, combined) = c.combined_module().unwrap();
        let patched_alpha_body = print_function(
            &combined,
            combined.lookup_function(&format!("alpha.{dst}")).unwrap(),
        );
        let src_body =
            print_function(&combined, combined.lookup_function(&format!("alpha.{src}")).unwrap());
        assert_eq!(
            patched_alpha_body.lines().skip(1).collect::<Vec<_>>(),
            src_body.lines().skip(1).collect::<Vec<_>>(),
            "updated body equals the source body modulo the header line"
        );
    }

    /// Type codes are structural. `f` introduces `[3 x i32]` ahead of
    /// `g`'s `[5 x i32]` and `[7 x i32]`, and an update that stops
    /// introducing it — under arrival numbering, a renumbering of both of
    /// `g`'s array types — leaves `g`'s row bit-identical. What the edit
    /// dirties is then what the four rules say: `g`'s list does not name
    /// `f` and `f`'s new row shares no bucket with `g`, so `f` alone loses
    /// its memo and `g` is answered from its own.
    #[test]
    fn update_leaves_rows_of_untouched_functions_bit_identical() {
        let define = |name: &str, allocas: &[u32], op: &str| {
            let n = allocas.len();
            let allocas: String = allocas
                .iter()
                .enumerate()
                .map(|(i, len)| format!("  %{} = alloca [{len} x i32]\n", i + 1))
                .collect();
            let ops: String =
                (n + 1..n + 11).map(|i| format!("  %{i} = {op} i32 %0, {i}\n")).collect();
            format!(
                "define @{name}(i32 %0) -> i32 {{\nbb0:\n{allocas}{ops}  ret i32 %{}\n}}\n",
                n + 10
            )
        };
        let src = format!(
            "module \"m\" {{\n{}{}}}\n",
            define("f", &[3], "mul"),
            define("g", &[5, 7, 5, 7], "add")
        );
        let patch = format!("module \"p\" {{\n{}}}\n", define("f", &[], "xor"));

        let c = corpus();
        c.ingest(parse_module(&src).unwrap()).unwrap();
        let g_sig = || {
            let t = c.table.read().unwrap();
            let id = t.entry_of(t.live_module("m").unwrap(), "g").unwrap();
            c.row(&t.rows, &t.entries[id]).sig().to_vec()
        };
        let before = g_sig();
        let (_, listed) = c.query_function("m", "g", 5).unwrap();
        assert!(listed.candidates.is_empty(), "`g` lists nothing, `f` included: {listed:?}");

        let up = c.update_function("m", "f", Some(&patch)).unwrap();
        assert!(up.changed);
        assert!(g_sig() == before, "`g`'s row is untouched, bit for bit");
        let (_, f_list) = c.query_function("m", "f", 5).unwrap();
        assert!(f_list.candidates.is_empty(), "`f`'s new row shares no bucket with `g`");
        assert_eq!(up.funcs_invalidated, 1, "the edited row alone");
        let hits = c.stats().memo_hits;
        let (_, live) = c.query_function("m", "g", 5).unwrap();
        assert_eq!(c.stats().memo_hits, hits + 1, "`g` kept its memo");

        let fresh = corpus();
        fresh.ingest(parse_module(&c.module_source("m").unwrap()).unwrap()).unwrap();
        assert_eq!(live, fresh.query_function("m", "g", 5).unwrap().1);
        assert_eq!(f_list, fresh.query_function("m", "f", 5).unwrap().1);
    }

    #[test]
    fn touch_invalidates_without_changing_results() {
        let c = corpus();
        c.ingest(workload("alpha", 11)).unwrap();
        let (_, before) = c.query_module("alpha", 5).unwrap();
        let (dst, _) = family_pair(&workload("alpha", 11));

        let up = c.update_function("alpha", &dst, None).unwrap();
        assert!(!up.changed, "touch never changes IR");
        assert!(up.funcs_invalidated >= 1);
        let invalidated_total = c.stats().funcs_invalidated;
        assert!(invalidated_total >= up.funcs_invalidated);

        let miss_before = c.stats().memo_misses;
        let (_, after) = c.query_module("alpha", 5).unwrap();
        assert_eq!(before, after, "touch is semantically a no-op");
        let recomputed = c.stats().memo_misses - miss_before;
        assert_eq!(recomputed, up.funcs_invalidated, "touch recomputes exactly the dirty set");
        let stats = c.stats();
        assert!(stats.funcs_spared > 0, "a no-op edit keeps some bucket neighbor's list");
        assert!(
            up.funcs_invalidated + stats.funcs_spared < before.len() as u64,
            "and entries outside its buckets are not even tested"
        );
    }

    /// Every corpus operation is one critical section: a mutation installs
    /// its rows, applies its index delta, removes memos and advances the
    /// epoch under a single table write guard, and a read ranks under a single
    /// read guard — so no reader sees half a mutation. (An update also
    /// takes a read guard first, to parse and fingerprint the new body.)
    #[test]
    fn every_operation_takes_one_table_guard() {
        let c = corpus();
        let alpha = workload("alpha", 11);
        let (dst, src) = family_pair(&alpha);
        // (read guards, write guards) taken by `op`.
        let guards = |op: &dyn Fn()| {
            let count = || c.table_guards.each_ref().map(|n| n.load(Ordering::Relaxed));
            let before = count();
            op();
            let after = count();
            (after[0] - before[0], after[1] - before[1])
        };
        assert_eq!(guards(&|| drop(c.ingest(alpha.clone()).unwrap())), (0, 1));
        assert_eq!(guards(&|| drop(c.ingest(workload("beta", 22)).unwrap())), (0, 1));
        assert_eq!(guards(&|| drop(c.query_module("alpha", 5).unwrap())), (1, 0));
        assert_eq!(guards(&|| drop(c.query_function("alpha", &dst, 5).unwrap())), (1, 0));
        assert_eq!(guards(&|| drop(c.combined_module().unwrap())), (1, 0));
        let global = || drop(global_merge(&c, &GlobalPlanConfig::default()).unwrap());
        assert_eq!(guards(&global), (1, 0));
        assert_eq!(guards(&|| { c.stats(); }), (1, 0));
        let path = std::env::temp_dir().join(format!("f3m_corpus_guards_{}", std::process::id()));
        assert_eq!(guards(&|| c.save_snapshot(&path).unwrap()), (1, 0));
        std::fs::remove_file(&path).unwrap();

        let patch = body_swap_patch(&alpha, &dst, &src);
        let update = || drop(c.update_function("alpha", &dst, Some(&patch)).unwrap());
        assert_eq!(guards(&update), (1, 1));
        assert_eq!(guards(&|| drop(c.update_function("alpha", &dst, None).unwrap())), (1, 1));
        assert_eq!(guards(&|| drop(c.evict("alpha").unwrap())), (0, 1));
    }

    #[test]
    fn update_rejects_bad_replacements() {
        let c = corpus();
        let alpha = workload("alpha", 11);
        c.ingest(alpha.clone()).unwrap();
        let (dst, _) = family_pair(&alpha);

        assert!(c
            .update_function("ghost", &dst, None)
            .unwrap_err()
            .contains("not resident"));
        assert!(c
            .update_function("alpha", "nosuch", None)
            .unwrap_err()
            .contains("no merge-eligible function"));
        let empty = "module \"p\" {\n}\n";
        assert!(c
            .update_function("alpha", &dst, Some(empty))
            .unwrap_err()
            .contains("does not define"));
        assert!(c
            .update_function("alpha", &dst, Some("module \"p\" { define @x( }"))
            .unwrap_err()
            .contains("does not parse"));
        // The patch parses on its own (it declares its callee) but the
        // spliced body references a symbol alpha does not have, so the
        // rebuilt module fails verification and the corpus is untouched.
        let dangling = format!(
            "module \"p\" {{\ndeclare @__nowhere() -> i32\n\
             define @{dst}() -> i32 {{\nbb0:\n  %0 = call i32 @__nowhere()\n  ret i32 %0\n}}\n}}\n"
        );
        assert!(c
            .update_function("alpha", &dst, Some(&dangling))
            .unwrap_err()
            .contains("does not verify"));
        // Nothing above mutated the corpus.
        assert_eq!(c.epoch(), 1);
    }

    /// The update this PR replaced, kept as the reference the in-place
    /// splice is held to: the whole replacement text parsed and verified,
    /// then the resident module re-rendered with the printed definition
    /// spliced in and re-parsed whole. `None` is a touch.
    fn spliced_by_reparse(resident: &Module, func: &str, text: &str) -> Result<Option<Module>, String> {
        let incoming =
            parse_module(text).map_err(|e| format!("update: replacement does not parse: {e}"))?;
        let id = incoming
            .lookup_function(func)
            .filter(|&f| !incoming.function(f).is_declaration)
            .ok_or_else(|| format!("update: replacement does not define `{func}`"))?;
        let fn_text = print_function(&incoming, id);
        let old_text = print_function(resident, resident.lookup_function(func).unwrap());
        if fn_text == old_text {
            return Ok(None);
        }
        let src = print_module(resident).replacen(&old_text, &fn_text, 1);
        parse_module(&src)
            .map(Some)
            .map_err(|e| format!("update: spliced module does not verify: {e}"))
    }

    /// A refusal of [`spliced_by_reparse`] in the words of the import: a
    /// symbol the resident module lacks is named, without the line it has
    /// in a rendering of the module that no client sent.
    fn symbol_by_name(refusal: String) -> String {
        let stage = "update: spliced module does not verify";
        let named = refusal
            .strip_prefix(stage)
            .and_then(|rest| rest.strip_prefix(": parse error at line "))
            .and_then(|rest| rest.split_once(": unknown symbol "));
        match named {
            Some((_, symbol)) => format!("{stage}: unknown symbol {symbol}"),
            None => refusal,
        }
    }

    /// `patch` with every `alloca`'d array resized to `len` elements.
    fn resize_arrays(patch: &str, len: u32) -> String {
        let resize = |line: &str| match (line.find("alloca ["), line.find(" x ")) {
            (Some(open), Some(x)) => format!("{}alloca [{len}{}\n", &line[..open], &line[x..]),
            _ => format!("{line}\n"),
        };
        patch.lines().map(resize).collect()
    }

    /// What one update did, by kind of outcome.
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum Verdict {
        Touched,
        Spliced { resigned: bool, relinked: bool },
        /// The refusal's message up to its first line number, the
        /// verifier's verdict cut where the problems start.
        Refused(String),
    }

    /// Applies `text` to `module.func` of `c` in place and holds every
    /// outcome to [`spliced_by_reparse`]: the same verdict and error text,
    /// an untouched corpus on refusal, and otherwise the same printed
    /// module and the same row for every one of its entries.
    fn update_like_the_reference(c: &Corpus, module: &str, func: &str, text: &str) -> Verdict {
        let resident = c.table.read().unwrap().live_body(module).unwrap().1.get().clone();
        let reference = spliced_by_reparse(&resident, func, text).map_err(symbol_by_name);
        let epoch = c.epoch();
        let got = c.update_function(module, func, Some(text));
        let expected = match (reference, got) {
            (Err(want), Err(got)) => {
                assert_eq!(got, want, "{module}.{func}: refusal text");
                assert_eq!(c.epoch(), epoch, "a refused update mutates nothing");
                let cut = got.find(" at line ").unwrap_or(got.len());
                let stage = got[..cut].to_string();
                let verified = got.contains("verification failed");
                return Verdict::Refused(stage + if verified { ": verification failed" } else { "" });
            }
            (Ok(expected), Ok(up)) => {
                assert_eq!(up.changed, expected.is_some(), "{module}.{func}: touch or splice");
                expected
            }
            (want, got) => panic!(
                "{module}.{func}: the reference {} where the splice {}",
                want.map_or_else(|e| format!("refused ({e})"), |_| "accepted".into()),
                got.map_or_else(|e| format!("refused ({e})"), |_| "accepted".into()),
            ),
        };
        let verdict = match &expected {
            None => Verdict::Touched,
            Some(m) => {
                let header = |m: &Module| {
                    let f = m.function(m.lookup_function(func).unwrap());
                    let types: Vec<String> = f.params.iter().map(|&p| m.types.display(p)).collect();
                    (types, m.types.display(f.ret_ty), f.linkage)
                };
                let (old, new) = (header(&resident), header(m));
                Verdict::Spliced {
                    resigned: (&old.0, &old.1) != (&new.0, &new.1),
                    relinked: old.2 != new.2,
                }
            }
        };
        let expected = expected.unwrap_or(resident);
        let t = c.table.read().unwrap();
        let (mi, body) = t.live_body(module).unwrap();
        assert_eq!(print_module(body.get()), print_module(&expected), "{module}.{func}: module");
        let ids = &t.modules[mi].entry_ids;
        let funcs: Vec<FuncId> = ids
            .iter()
            .map(|&id| expected.lookup_function(t.entries[id].func()).unwrap())
            .collect();
        let rows = PackedFingerprintStore::of_functions(
            &expected,
            &funcs,
            &*c.backend,
            c.cfg.params.lsh,
            1,
        );
        for (i, &id) in ids.iter().enumerate() {
            let row = c.row(&t.rows, &t.entries[id]);
            let name = t.entries[id].func();
            assert!(row.sig() == rows.sig(i), "{module}.{func}: signature of {name}");
            assert_eq!(row.keys(), rows.keys(i), "{module}.{func}: band keys of {name}");
        }
        verdict
    }

    /// The in-place splice is the re-parse it replaced, exactly: generated
    /// modules × every eligible function × three donor bodies — a family
    /// sibling where there is one and two strangers, so signatures change,
    /// and callers either still verify or refuse the edit — each as it is,
    /// with its arrays resized and with its linkage flipped; then the
    /// refusals of `update_rejects_bad_replacements` at every function, and
    /// a replacement that names a symbol the module lacks, refused by the
    /// symbol's name (the reference's refusal also carries a line of the
    /// module's rendering; [`symbol_by_name`] drops it).
    /// The edits land one after another, so later ones splice into modules
    /// earlier ones changed in place.
    #[test]
    fn in_place_splice_matches_the_reparse_reference() {
        use std::collections::HashSet;
        let seeds = if cfg!(debug_assertions) { 1..2 } else { 1..9 };
        let mut seen = HashSet::new();
        for seed in seeds {
            let c = corpus();
            let generated = workload("m", seed);
            c.ingest(parse_module(&print_module(&generated)).unwrap()).unwrap();
            let names: Vec<String> = {
                let t = c.table.read().unwrap();
                let (mi, _) = t.live_body("m").unwrap();
                t.modules[mi].entry_ids.iter().map(|&id| t.entries[id].func().to_string()).collect()
            };
            let resident = || c.table.read().unwrap().live_body("m").unwrap().1.get().clone();
            for (i, dst) in names.iter().enumerate() {
                let sibling = names.iter().find(|n| {
                    *n != dst && n.rsplit_once('_').map(|p| p.0) == dst.rsplit_once('_').map(|p| p.0)
                });
                let strangers = [&names[(i + 1) % names.len()], &names[(i + 7) % names.len()]];
                for donor in sibling.into_iter().chain(strangers) {
                    let resident = resident();
                    let internal = resident.function(resident.lookup_function(dst).unwrap()).linkage
                        == f3m_ir::function::Linkage::Internal;
                    // The donor's body under `dst`'s name, `internal` or not.
                    let patch = |internal: bool| {
                        let kw = if internal { "define internal @" } else { "define @" };
                        body_swap_patch(&resident, dst, donor)
                            .replace(&format!("define internal @{dst}("), &format!("define @{dst}("))
                            .replace(&format!("define @{dst}("), &format!("{kw}{dst}("))
                    };
                    let len = 3 + i as u32 % 20;
                    for text in [patch(internal), resize_arrays(&patch(internal), len), patch(!internal)] {
                        seen.insert(update_like_the_reference(&c, "m", dst, &text));
                    }
                }
                let dangling = format!(
                    "module \"p\" {{\ndeclare @__nowhere() -> i32\n\
                     define @{dst}() -> i32 {{\nbb0:\n  %0 = call i32 @__nowhere()\n  ret i32 %0\n}}\n}}\n"
                );
                for text in ["module \"p\" {\n}\n", "module \"p\" { define @x( }", &dangling] {
                    seen.insert(update_like_the_reference(&c, "m", dst, text));
                }
            }
        }
        let refused = |stage: &str| Verdict::Refused(format!("update: {stage}"));
        for kind in [
            Verdict::Touched,
            refused("replacement does not define `f0_0`"),
            refused("replacement does not parse: parse error"),
            refused("spliced module does not verify: unknown symbol @__nowhere"),
            refused("spliced module does not verify: parse error: verification failed"),
            Verdict::Spliced { resigned: false, relinked: false },
            Verdict::Spliced { resigned: false, relinked: true },
            Verdict::Spliced { resigned: true, relinked: false },
        ] {
            assert!(seen.contains(&kind), "no update came out {kind:?}: {seen:?}");
        }
    }

    /// The replacement text is read for `func`'s definition: a lexical
    /// error anywhere, an error at the top level and an error in `func`'s
    /// body are refused in the words a whole-module parse uses.
    #[test]
    fn update_refuses_what_it_reads_as_a_module_parse_would() {
        let c = corpus();
        let alpha = workload("alpha", 11);
        c.ingest(alpha.clone()).unwrap();
        let (dst, src) = family_pair(&alpha);
        let patch = body_swap_patch(&alpha, &dst, &src);
        let (head, tail) = patch.split_at(patch.find(&format!("@{dst}(")).unwrap());
        let body_start = head.len() + tail.find("bb0:\n").unwrap() + 5;
        let in_dst = |line: &str| format!("{}{line}\n{}", &patch[..body_start], &patch[body_start..]);
        let broken = [
            // Lexical: a stray byte where a top-level item starts, and in
            // `dst`'s own body.
            (patch.replacen("declare ", "$declare ", 1), "unexpected character `$`"),
            (in_dst("  ret $"), "unexpected character `$`"),
            // Top level: a token that starts no item.
            (patch.replacen("declare ", "declared ", 1), "expected `global`"),
            // `dst`'s own body.
            (in_dst("  bogus i32 0"), "unknown mnemonic `bogus`"),
        ];
        for (text, why) in &broken {
            let whole = parse_module(text).unwrap_err();
            assert!(whole.msg.starts_with(why), "{whole}");
            let got = c.update_function("alpha", &dst, Some(text)).unwrap_err();
            assert_eq!(got, format!("update: replacement does not parse: {whole}"));
        }
        assert_eq!(c.epoch(), 1, "nothing was installed");
    }

    /// ... and nothing inside another definition's braces is read, or
    /// even lexed: a body a module parse refuses does not stop the update
    /// of `func`.
    #[test]
    fn update_ignores_other_bodies_of_the_replacement() {
        let c = corpus();
        let alpha = workload("alpha", 11);
        c.ingest(alpha.clone()).unwrap();
        let (dst, src) = family_pair(&alpha);
        let patch = body_swap_patch(&alpha, &dst, &src);
        let text = patch.replacen("}\n", "}\ndefine @broken() -> i32 {\nbb0:\n  bogus i32 0\n}\n", 1);
        assert!(parse_module(&text).is_err(), "a module parse refuses the text");
        let up = c.update_function("alpha", &dst, Some(&text)).unwrap();
        assert!(up.changed);
        // A stray byte in the first body, which is not `dst`'s.
        let unlexed = patch.replacen("ret ", "ret $", 1);
        assert!(!patch[..patch.find("ret ").unwrap()].contains(&format!("@{dst}(")));
        let err = parse_module(&unlexed).unwrap_err();
        assert_eq!(err.msg, "unexpected character `$`", "a module parse refuses it");
        let up = c.update_function("alpha", &dst, Some(&unlexed)).unwrap();
        assert!(!up.changed, "the same body as the update before");
        let fresh = corpus();
        fresh.ingest(parse_module(&patch).unwrap()).unwrap();
        let printed = |c: &Corpus| {
            let t = c.table.read().unwrap();
            let m = t.live_body(t.modules[0].name.as_str()).unwrap().1.get();
            print_function(m, m.lookup_function(&dst).unwrap())
        };
        assert_eq!(printed(&c), printed(&fresh), "the update took `{dst}` from the text");
    }

    /// The combine [`combine_modules`] replaced, kept as the reference the
    /// import is held to: each module cloned and qualified, its pieces
    /// printed into one module text, and that text parsed.
    fn combined_by_reparse(mods: &[&Module]) -> Result<Module, String> {
        fn share(
            seen: &mut HashMap<String, String>,
            order: &mut Vec<(String, String)>,
            name: &str,
            line: String,
        ) -> bool {
            match seen.get(name) {
                Some(prev) => *prev == line,
                None => {
                    seen.insert(name.to_string(), line.clone());
                    order.push((name.to_string(), line));
                    true
                }
            }
        }
        let (mut seen_globals, mut globals) = (HashMap::new(), Vec::new());
        let (mut seen_declares, mut declares) = (HashMap::new(), Vec::new());
        let mut defined: HashSet<String> = HashSet::new();
        let mut bodies = String::new();
        for &m in mods {
            if !symbol_safe(&m.name) {
                return Err(format!("module name `{}` is not a valid symbol prefix", m.name));
            }
            let mut ns = m.clone();
            for id in ns.defined_functions() {
                let q = format!("{}.{}", m.name, ns.function(id).name);
                if ns.lookup_function(&q).is_some() {
                    return Err(format!("qualified name `{q}` collides inside module `{}`", m.name));
                }
                ns.rename_function(id, q);
            }
            for (_, g) in ns.globals() {
                if !share(&mut seen_globals, &mut globals, &g.name, print_global(&ns, g)) {
                    return Err(format!(
                        "global `@{}` redefined with a different type or initializer",
                        g.name
                    ));
                }
            }
            for (id, f) in ns.functions() {
                if f.is_declaration {
                    if !share(&mut seen_declares, &mut declares, &f.name, print_declaration(&ns, f)) {
                        return Err(format!("external `@{}` declared with conflicting signatures", f.name));
                    }
                } else {
                    if !defined.insert(f.name.clone()) {
                        return Err(format!("qualified name `{}` defined twice", f.name));
                    }
                    bodies.push_str(&print_function(&ns, id));
                    bodies.push('\n');
                }
            }
        }
        let mut text = String::from("module \"corpus\" {\n");
        for (_, line) in &globals {
            text.push_str(line);
            text.push('\n');
        }
        if !globals.is_empty() {
            text.push('\n');
        }
        for (name, line) in &declares {
            if !defined.contains(name) {
                text.push_str(line);
                text.push('\n');
            }
        }
        text.push_str(&bodies);
        text.push_str("}\n");
        parse_module(&text).map_err(|e| format!("combine: {e}"))
    }

    /// The import is the text combine it replaced, exactly. On
    /// builder-born modules as the tests here ingest them, on their
    /// printed-and-reparsed twins, and on the global fuzzer's mutated
    /// module sets, the combined module prints the same, and
    /// `global_merge`'s work over it gives the same report and merged
    /// module. On sets that conflict, and on hand-written sets whose
    /// declarations resolve to definitions of other modules, the two give
    /// the same module or the same error.
    #[test]
    fn combine_matches_the_reparse_reference() {
        use crate::global::merge_cut;
        let printed = |mods: &[&Module]| combine_modules(mods).map(|m| print_module(&m));
        let reference = |mods: &[&Module]| combined_by_reparse(mods).map(|m| print_module(&m));
        let twin = |m: &Module| parse_module(&print_module(m)).unwrap();

        let born = vec![workload("alpha", 11), workload("beta", 22), workload("gamma", 11)];
        let reparsed: Vec<Module> = born.iter().map(twin).collect();
        let seeds = if cfg!(debug_assertions) { 0..2 } else { 0..24 };
        let max_mutations = f3m_fuzz::global::GlobalCampaignConfig::default().max_mutations;
        let fuzzed = seeds.map(|seed| f3m_fuzz::global::build_module_set(seed, max_mutations).0);
        for mods in [born.clone(), reparsed].into_iter().chain(fuzzed) {
            let refs: Vec<&Module> = mods.iter().collect();
            let what: Vec<&str> = mods.iter().map(|m| m.name.as_str()).collect();
            let (got, want) = (combine_modules(&refs).unwrap(), combined_by_reparse(&refs).unwrap());
            assert_eq!(print_module(&got), print_module(&want), "{what:?}: combined module");
            let c = corpus();
            for m in &mods {
                c.ingest(m.clone()).unwrap();
            }
            let mut cut = c.combined_cut().unwrap();
            let mut merge = |pristine: Module| {
                cut.3 = pristine;
                let merged = merge_cut(&cut, &GlobalPlanConfig::default());
                merged.map(|(report, merged)| (report.to_json(), print_module(&merged)))
            };
            assert_eq!(merge(got), merge(want), "{what:?}: global merge");
        }

        let text = |name: &str, items: &str| {
            parse_module(&format!("module \"{name}\" {{\n{items}}}\n")).unwrap()
        };
        let define = |name: &str, body: &str| format!("define @{name}(i32 %0) -> i32 {{\nbb0:\n{body}}}\n");
        let def = |name: &str| define(name, "  ret i32 %0\n");
        let call = |name: &str, callee: &str| {
            define(name, &format!("  %1 = call i32 @{callee}(i32 %0)\n  ret i32 %1\n"))
        };
        let e = "declare @e(i32) -> i32\n";
        let mut renamed = born[0].clone();
        renamed.name = "al pha".into();
        let mut clashing = born[1].clone();
        let first = clashing.function(clashing.defined_functions()[0]).name.clone();
        clashing.add_function(Function::new_declaration(format!("beta.{first}"), vec![], TypeId::VOID));
        // Each set, and whether it conflicts.
        let sets = [
            (true, vec![born[0].clone(), renamed]),
            (true, vec![clashing, born[0].clone()]),
            // Qualifying renames in order: `a.b` is renamed before `b`
            // takes its name, and not the other way round.
            (false, vec![text("a", &(def("a.b") + &def("b")))]),
            (true, vec![text("a", &(def("b") + &def("a.b")))]),
            (true, vec![text("a", &def("b.c")), text("a.b", &def("c"))]),
            (true, vec![text("x", "global @g : i32 = [1]\n"), text("y", "global @g : i32 = [2]\n")]),
            (false, vec![text("x", "global @g : i32 = [1]\n"), text("y", "global @g : i32 = [1]\n")]),
            (true, vec![text("x", "declare @e(i32) -> i32\n"), text("y", "declare @e(i64) -> i32\n")]),
            // A declaration that a definition of another module answers,
            // one that stays shared, and a global.
            (
                false,
                vec![
                    text("x", &format!("declare @y.f(i32) -> i32\n{e}{}", call("g", "y.f"))),
                    text("y", &format!("global @k : [2 x i64] = [7]\n{e}{}", call("f", "e"))),
                ],
            ),
        ];
        for (conflicts, mods) in &sets {
            let refs: Vec<&Module> = mods.iter().collect();
            let what: Vec<&str> = mods.iter().map(|m| m.name.as_str()).collect();
            let got = printed(&refs);
            assert_eq!(got, reference(&refs), "{what:?}");
            assert_eq!(got.is_err(), *conflicts, "{what:?}: {got:?}");
        }
    }

    #[test]
    fn combine_rejects_conflicting_globals() {
        let mut a = Module::new("a");
        let i32t = a.types.int(32);
        a.add_global(f3m_ir::module::Global { name: "g".into(), ty: i32t, init: vec![1] });
        let mut b = Module::new("b");
        let i32t_b = b.types.int(32);
        b.add_global(f3m_ir::module::Global { name: "g".into(), ty: i32t_b, init: vec![2] });
        let err = combine_modules(&[&a, &b]).unwrap_err();
        assert!(err.contains("different type or initializer"), "{err}");
        // Identical globals deduplicate fine.
        let mut b2 = Module::new("b2");
        let i32t_b2 = b2.types.int(32);
        b2.add_global(f3m_ir::module::Global { name: "g".into(), ty: i32t_b2, init: vec![1] });
        let combined = combine_modules(&[&a, &b2]).unwrap();
        assert_eq!(combined.num_globals(), 1);
    }
}
