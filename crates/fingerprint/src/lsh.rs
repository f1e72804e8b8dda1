//! Locality Sensitive Hashing over fingerprint signatures.
//!
//! Section III-C of the paper: a fingerprint of `k` hashes is split into
//! `b` non-overlapping bands of `r` rows (`k = b × r`); each band is hashed
//! into a bucket. Two functions are compared only if at least one band
//! matches. The probability of comparison at Jaccard similarity `s` is
//! `1 - (1 - s^r)^b` ([`collision_probability`]).
//!
//! Band keys are 32-bit ([`BandKey`]): the 64-bit FNV band hash is folded
//! to 32 bits so the packed key arrays in
//! [`PackedFingerprintStore`](crate::store::PackedFingerprintStore) and the
//! on-disk [snapshot](crate::snapshot) stay half the size. At 100 bands
//! over a million functions (~10⁸ keys) the fold adds only benign extra
//! bucket collisions — the per-bucket comparison cap already bounds their
//! cost.
//!
//! The index is signature-agnostic: any [fingerprint
//! backend](crate::backend) that produces a `k`-slot `u64` signature bands
//! through the same [`band_keys_for`] path (MinHash slots, SimHash and
//! embedding projection bytes).
//!
//! Over-populated buckets (caused by very common instruction subsequences)
//! are tamed by capping the number of entries taken per bucket
//! (Section III-C / Figure 16); the cap is applied where a probe folds a
//! bucket into its [`QueryScratch`].
//!
//! Two structures serve the two drivers, with one probe rule. The
//! offline pass builds a [`FlatIndex`] per sweep: one sort lays its
//! buckets out in a single id pool, each row remembers its bucket
//! numbers, and the sweep only removes. `f3m-core`'s resident corpus owns
//! an [`LshIndex`] for its lifetime — buckets that ingest, evict, update
//! and restore write in place — read and written only under its table
//! guard. Both fold each probed bucket into a [`QueryScratch`] by the one
//! rule in `QueryScratch::visit_bucket`, so the cap window, the querier
//! skip, the hit counts and discovery order cannot differ, and `LshIndex`
//! is the reference the flat index is tested against. Neither stores more
//! than ids — no version, no lock.
//!
//! ## The bucket pool
//!
//! An [`LshIndex`] keeps every bucket's members in one pool. Each bucket
//! has a record — key, start, length and room — and an open-addressed,
//! linear-probing table maps a key to its record. Band keys come from
//! client IR, so the table hashes with std's `RandomState`, seeded per
//! index; it is never more than three quarters full, and is rebuilt
//! larger, dropping the records of emptied buckets, when a new bucket
//! would pass that. A bucket's members sit ascending in the first `len`
//! cells of its room. A bucket that outgrows its room moves to the end of
//! the pool with double the room (one that already ends the pool grows
//! where it is), and its old cells die; so do an emptied bucket's. When
//! the dead cells outnumber the members, the pool is compacted: every
//! bucket is laid out anew, with the room it had. A snapshot restore
//! takes the directory's flat arrays ([`BucketDirectory`]) over as the
//! pool — one record per bucket, one table fill, no allocation per bucket
//! — and a save writes them back in key order. The map of per-bucket
//! `Vec`s the pool replaced is kept as `reference` under `#[cfg(test)]`,
//! and the pool is held to it under random writes.
//!
//! The corpus writes in two grains. A module-level delta
//! ([`LshIndex::apply_delta`]) is one batched pass: its `(key, op, id)`
//! triples are sorted once, each distinct key costs one bucket lookup, and
//! the ids met are marked in a dense table — the cost is the rows that
//! move plus the members of the buckets they move through, with no bucket
//! copied. A one-row delta ([`LshIndex::apply_row_delta`]) hands each
//! touched bucket to a visitor instead, so its caller can judge neighbors
//! one by one.

use std::hash::{BuildHasher, RandomState};
use std::ops::Range;

use crate::fnv::fnv1a_u64s;

/// A banded bucket key. 32-bit by design — see the module docs.
pub type BandKey = u32;

/// Banding parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LshParams {
    /// Rows per band (`r`). The paper's adaptive policy always uses 2.
    pub rows: usize,
    /// Number of bands (`b`).
    pub bands: usize,
    /// Maximum candidates taken from any single bucket (paper: 100).
    /// `usize::MAX` disables the cap.
    pub bucket_cap: usize,
}

impl LshParams {
    /// The fingerprint size `k = b × r` implied by these parameters.
    pub fn fingerprint_size(&self) -> usize {
        self.rows * self.bands
    }
}

/// Probability that two items with Jaccard similarity `s` share at least
/// one band (Equation 2 of the paper).
///
/// # Examples
///
/// ```
/// use f3m_fingerprint::lsh::collision_probability;
/// // Highly similar pairs are almost always discovered with the static
/// // configuration (r = 2, b = 100).
/// assert!(collision_probability(0.8, 2, 100) > 0.999);
/// // Dissimilar pairs rarely collide.
/// assert!(collision_probability(0.05, 2, 100) < 0.3);
/// ```
pub fn collision_probability(s: f64, rows: usize, bands: usize) -> f64 {
    1.0 - (1.0 - s.powi(rows as i32)).powi(bands as i32)
}

/// Folds a 64-bit band hash into a [`BandKey`], mixing both halves so the
/// truncation keeps the full hash's entropy.
#[inline]
fn fold_key(h: u64) -> BandKey {
    (h ^ (h >> 32)) as BandKey
}

/// Band bucket keys of a signature under `params`, as a standalone
/// function so they can be computed off-index (e.g. on worker threads
/// during a parallel bulk build) and fed to [`LshIndex::insert_with_keys`].
/// `sig` is the `k`-slot signature words of any fingerprint backend (for
/// MinHash, [`minhash_signature`](crate::minhash::minhash_signature)).
///
/// # Panics
///
/// Panics if the signature is smaller than `k = rows × bands`.
pub fn band_keys_for(params: LshParams, sig: &[u64]) -> Vec<BandKey> {
    let r = params.rows;
    assert!(sig.len() >= params.fingerprint_size(), "fingerprint too small for banding");
    (0..params.bands)
        .map(|j| {
            let band = &sig[j * r..(j + 1) * r];
            // Mix the band index in so identical sub-vectors in different
            // bands do not alias.
            fold_key(
                fnv1a_u64s(band).wrapping_add((j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            )
        })
        .collect()
}

/// Buckets laid out flat: bucket `i` holds band key `keys[i]` and the
/// members from `members[starts[i]]` up to the next bucket's start (the
/// last bucket runs to the end of `members`), each ascending — a row whose
/// bands fold to one key is in that bucket once per band. It is the
/// image of a snapshot's bucket directory:
/// [`LshIndex::export_directory`] writes one in key order, and
/// [`LshIndex::from_directory`] takes one over as its pool.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BucketDirectory<T> {
    /// Each bucket's key, ascending.
    pub(crate) keys: Vec<BandKey>,
    /// Where each bucket's members start in `members`, ascending.
    pub(crate) starts: Vec<u32>,
    /// Every bucket's members, bucket after bucket.
    pub(crate) members: Vec<T>,
}

impl<T> BucketDirectory<T> {
    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether there are no buckets.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Bucket `i`'s members.
    fn bucket(&self, i: usize) -> &[T] {
        let end = self.starts.get(i + 1).map_or(self.members.len(), |&e| e as usize);
        &self.members[self.starts[i] as usize..end]
    }

    /// `(key, members)` of every bucket, in order.
    pub fn iter(&self) -> impl Iterator<Item = (BandKey, &[T])> + '_ {
        self.keys.iter().enumerate().map(|(i, &key)| (key, self.bucket(i)))
    }

    /// The same buckets with every member mapped through `f`.
    pub fn map<U>(self, f: impl FnMut(T) -> U) -> BucketDirectory<U> {
        let BucketDirectory { keys, starts, members } = self;
        BucketDirectory { keys, starts, members: members.into_iter().map(f).collect() }
    }
}

/// One bucket of an [`LshIndex`]: its members sit at
/// `pool[start..start + len]`, ascending, inside the `room` cells from
/// `start` that are reserved for it. A bucket that empties gives its
/// room up and keeps its key (`len == room == 0`) until the table is next
/// rebuilt.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    key: BandKey,
    start: u32,
    len: u32,
    room: u32,
}

/// A table slot that holds no bucket.
const VACANT: u32 = u32::MAX;

/// The smallest table, in slots.
const MIN_TABLE: usize = 16;

/// An LSH index mapping band hashes to buckets of items: one pool of
/// members, one record per bucket, and an open-addressed table from key
/// to record (see the module docs).
#[derive(Clone, Debug)]
pub struct LshIndex<T> {
    params: LshParams,
    /// Every bucket's members, each bucket in its own run of cells.
    pool: Vec<T>,
    /// One record per bucket, in no particular order.
    buckets: Vec<Bucket>,
    /// Linear-probing table of record numbers, a power of two long and at
    /// most three quarters full; [`VACANT`] marks a free slot.
    table: Vec<u32>,
    /// Band keys come from client IR, so the table is keyed per index.
    hasher: RandomState,
    /// Members over all buckets.
    live: usize,
    /// Buckets holding at least one member.
    nonempty: usize,
    /// Pool cells outside every bucket's room.
    dead: usize,
}

/// Per-query work counts reported by [`LshIndex::candidates_counted`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LshQueryStats {
    /// Bucket entries examined (the paper's "fingerprint comparisons").
    pub examined: usize,
    /// Entries skipped because their bucket overflowed `bucket_cap`
    /// (summed over all queried bands).
    pub evicted: usize,
    /// Examined entries that were already collected from an earlier band
    /// of the same query — cross-band duplicate hits. `examined` minus
    /// `collisions` is the number of distinct candidates returned.
    pub collisions: usize,
    /// Probed buckets longer than `bucket_cap`. Each may hide a collision
    /// with any candidate behind the cut, so a bound on a candidate's
    /// matching bands is its [`QueryScratch::hits`] plus this.
    pub truncated: usize,
}

/// One step of a one-row delta on a single bucket (see
/// [`LshIndex::row_delta`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RowOp {
    /// The row's key for this band changed away from the bucket's.
    Remove,
    /// The row's key for this band changed to the bucket's.
    Insert,
    /// The row's key for this band is unchanged; the bucket is only read.
    Keep,
}

/// The one *other* member a step of [`LshIndex::apply_row_delta`] moved
/// across the `bucket_cap` boundary of a bucket. A bucket shows its first
/// `bucket_cap` ids, so taking a row out of that window pulls exactly one
/// id in from behind the cut, and putting a row into a full window pushes
/// exactly one out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crossed<T> {
    /// Was just behind the cut and is now the last visible id.
    Entered(T),
    /// Was the last visible id and is now just behind the cut.
    Left(T),
}

/// What one step of [`LshIndex::apply_row_delta`] did to one bucket, as
/// seen by the bucket's members — exactly the items that probe it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketDelta<'b, T> {
    /// The bucket after the step, ascending (empty if the step emptied it).
    pub members: &'b [T],
    /// Whether the row is among the first `bucket_cap` ids after the step
    /// (never, for a bucket it left).
    pub visible: bool,
    /// The member the step moved across the cap, if any.
    pub crossed: Option<Crossed<T>>,
}

/// An item id that indexes [`QueryScratch`]'s dense table directly.
pub trait DenseId: Copy + Ord {
    /// The id as a table index.
    fn index(self) -> usize;
}

impl DenseId for usize {
    fn index(self) -> usize {
        self
    }
}

impl DenseId for u32 {
    fn index(self) -> usize {
        self as usize
    }
}

/// One id's state in [`QueryScratch`]: live for the current probe iff
/// `stamp` equals the scratch's generation.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    stamp: u32,
    hits: u32,
}

/// Reusable per-query buffers for [`LshIndex::probe_keys_into`] and
/// [`FlatIndex::probe_into`]: a
/// generation-stamped table indexed by candidate id — it dedups the
/// probe and counts, per candidate, the probed buckets it was found in —
/// and the candidate list. Both survive across queries (a new probe bumps
/// the generation instead of clearing), so a warm scratch answers every
/// probe without allocating. The table grows on demand from the ids a
/// probe actually meets.
#[derive(Debug, Default)]
pub struct QueryScratch<T> {
    table: Vec<Slot>,
    generation: u32,
    grows: u64,
    /// Distinct candidates of the last probe, in discovery (band) order.
    pub out: Vec<T>,
}

impl<T: DenseId> QueryScratch<T> {
    /// Creates an empty scratch.
    pub fn new() -> QueryScratch<T> {
        QueryScratch { table: Vec::new(), generation: 0, grows: 0, out: Vec::new() }
    }

    /// A scratch whose next probe runs under generation `generation + 1`.
    #[cfg(test)]
    pub(crate) fn at_generation(generation: u32) -> QueryScratch<T> {
        QueryScratch { generation, ..QueryScratch::new() }
    }

    /// Starts a new probe: forgets the last one, keeping every buffer.
    pub fn reset(&mut self) {
        self.out.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamps of 2³² probes ago would read as live again.
            self.table.fill(Slot::default());
            self.generation = 1;
        }
    }

    /// Probed buckets of the last probe that `item` was found in (0 for
    /// an item the probe did not return).
    pub fn hits(&self, item: T) -> u32 {
        match self.table.get(item.index()) {
            Some(slot) if slot.stamp == self.generation => slot.hits,
            _ => 0,
        }
    }

    /// How many times the table had to be enlarged. A warm scratch stops
    /// growing, which is what makes it worth keeping.
    pub fn grows(&self) -> u64 {
        self.grows
    }

    /// Folds one probed bucket into the current probe: at most `cap`
    /// entries are taken, `exclude` (the querier) is skipped before
    /// anything is recorded, a first sighting joins `out`, every sighting
    /// counts as a hit.
    fn visit_bucket(
        &mut self,
        bucket: &[T],
        cap: usize,
        exclude: T,
        stats: &mut LshQueryStats,
    ) {
        let cut = bucket.len().saturating_sub(cap);
        stats.evicted += cut;
        stats.truncated += usize::from(cut > 0);
        for &item in &bucket[..bucket.len() - cut] {
            if item == exclude {
                continue;
            }
            stats.examined += 1;
            let i = item.index();
            if i >= self.table.len() {
                self.table.resize((i + 1).next_power_of_two(), Slot::default());
                self.grows += 1;
            }
            let slot = &mut self.table[i];
            if slot.stamp == self.generation {
                slot.hits = slot.hits.saturating_add(1);
                stats.collisions += 1;
            } else {
                *slot = Slot { stamp: self.generation, hits: 1 };
                self.out.push(item);
            }
        }
    }
}

impl<T: DenseId> LshIndex<T> {
    /// Creates an empty index.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `bands` is zero.
    pub fn new(params: LshParams) -> LshIndex<T> {
        assert!(params.rows > 0 && params.bands > 0, "rows/bands must be positive");
        LshIndex {
            params,
            pool: Vec::new(),
            buckets: Vec::new(),
            table: vec![VACANT; MIN_TABLE],
            hasher: RandomState::new(),
            live: 0,
            nonempty: 0,
            dead: 0,
        }
    }

    /// An index whose buckets are `dir`'s, taking its member array over as
    /// the pool: one record per bucket, each with exactly its own room,
    /// and one table fill. `dir` must hold non-empty buckets under
    /// distinct keys — snapshot loaders validate before calling.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `bands` is zero, or if `dir` holds `u32::MAX`
    /// members or more.
    pub fn from_directory(params: LshParams, dir: BucketDirectory<T>) -> LshIndex<T> {
        let BucketDirectory { keys, starts, members } = dir;
        debug_assert!(keys.is_sorted(), "directory keys are ascending");
        assert!(members.len() < u32::MAX as usize, "the pool holds fewer than 2³² cells");
        let ends = starts.iter().skip(1).copied().chain([members.len() as u32]);
        let mut index = LshIndex::new(params);
        index.buckets = keys
            .iter()
            .zip(&starts)
            .zip(ends)
            .map(|((&key, &start), end)| {
                debug_assert!(start < end, "directory buckets are non-empty");
                Bucket { key, start, len: end - start, room: end - start }
            })
            .collect();
        index.live = members.len();
        index.pool = members;
        index.rebuild_table(keys.len());
        index
    }

    /// The banding parameters.
    pub fn params(&self) -> LshParams {
        self.params
    }

    /// Band bucket keys of a signature.
    ///
    /// # Panics
    ///
    /// Panics if the signature is smaller than `k = rows × bands`.
    pub fn band_keys<'a>(&'a self, sig: &'a [u64]) -> impl Iterator<Item = BandKey> + 'a {
        band_keys_for(self.params, sig).into_iter()
    }

    /// Inserts an item under all its bands.
    pub fn insert(&mut self, id: T, sig: &[u64]) {
        let keys: Vec<BandKey> = self.band_keys(sig).collect();
        self.insert_with_keys(id, &keys);
    }

    /// Inserts an item under pre-computed band keys (as produced by
    /// [`band_keys_for`] with the same parameters). This is the
    /// parallel-friendly half of a bulk build: worker threads hash bands,
    /// then a single sequential loop populates the buckets in item order
    /// so the bucket contents are identical to one-by-one insertion.
    ///
    /// Buckets are kept sorted by item id, so the set of entries surviving
    /// the `bucket_cap` truncation in [`Self::candidates`] — and therefore
    /// the candidate list and every derived counter — is independent of
    /// insertion order. ([`FlatIndex::build`] lays out the same sorted
    /// buckets in one sort; this path is for callers that insert one row
    /// at a time, in any order.)
    pub fn insert_with_keys(&mut self, id: T, keys: &[BandKey]) {
        for &key in keys {
            let b = self.bucket_for(key);
            self.insert_one(b, id);
        }
        self.settle();
    }

    /// Removes an item from all its bands (no-op for absent entries).
    pub fn remove(&mut self, id: T, sig: &[u64]) {
        let keys: Vec<BandKey> = self.band_keys(sig).collect();
        self.remove_with_keys(id, &keys);
    }

    /// Removes an item under pre-computed band keys — the eviction
    /// counterpart of [`Self::insert_with_keys`]. Cost is proportional to
    /// the item's own band count, never to index size, which is what makes
    /// rebuild-free eviction possible for a resident index.
    pub fn remove_with_keys(&mut self, id: T, keys: &[BandKey]) {
        for &key in keys {
            if let Some(b) = self.find(key) {
                if let Ok(pos) = self.members(b).binary_search(&id) {
                    self.remove_one(b, pos);
                }
            }
        }
        self.settle();
    }

    /// Applies a batch of removals then insertions and returns the union
    /// of the band-collision neighborhoods touched — every item (old or
    /// new) that shared a bucket with any removed or inserted key, before
    /// or after the change. The set is sorted and deduplicated.
    ///
    /// This is the delta primitive behind module-level corpus writes: the
    /// dirty set an incremental caller must invalidate when entries under
    /// these keys change, since any item whose candidate list the change
    /// could affect shares at least one of the touched buckets.
    ///
    /// The batch is one pass: every `(key, op, id)` of both lists is
    /// sorted once, and each distinct key costs one bucket lookup
    /// (`key_delta`) that marks the members it meets in a dense
    /// table — no bucket is copied and nothing larger than the dirty set
    /// is sorted. The index ends up as [`Self::remove_with_keys`] per
    /// removal followed by [`Self::insert_with_keys`] per insertion would
    /// leave it.
    pub fn apply_delta(
        &mut self,
        removes: &[(T, Vec<BandKey>)],
        inserts: &[(T, Vec<BandKey>)],
    ) -> Vec<T> {
        // `false < true`: within a key, removals sort before insertions.
        let mut ops: Vec<(BandKey, bool, T)> = Vec::new();
        for (rows, insert) in [(removes, false), (inserts, true)] {
            for (id, keys) in rows {
                ops.extend(keys.iter().map(|&key| (key, insert, *id)));
            }
        }
        ops.sort_unstable();
        let ids: Vec<T> = ops.iter().map(|&(_, _, id)| id).collect();

        let (mut marked, mut dirty) = (Vec::new(), Vec::new());
        let mut mark = |id: T| {
            let i = id.index();
            if i >= marked.len() {
                marked.resize((i + 1).next_power_of_two(), false);
            }
            if !std::mem::replace(&mut marked[i], true) {
                dirty.push(id);
            }
        };
        let mut at = 0;
        for run in ops.chunk_by(|a, b| a.0 == b.0) {
            let (removed, inserted) =
                ids[at..at + run.len()].split_at(run.partition_point(|op| !op.1));
            self.key_delta(run[0].0, removed, inserted, &mut mark);
            at += run.len();
        }
        self.settle();
        dirty.sort_unstable();
        dirty
    }

    /// The one-row form of [`Self::apply_delta`]: moves row `id` from its
    /// `old` band keys to its `new` ones, leaving the index as
    /// `apply_delta(&[(id, old)], &[(id, new)])` would, and instead of
    /// collecting the touched neighborhoods calls `visit` once per touched
    /// bucket with a [`BucketDelta`] — borrowed from the index, no bucket
    /// is copied. A band whose key did not change is visited once and left
    /// alone; a band whose key changed is visited as the bucket the row
    /// left, then as the bucket it joined.
    ///
    /// An item probes exactly the buckets it is a member of and sees
    /// their first `bucket_cap` ids, so the visits name everything the
    /// delta can change in anybody's candidate set: the row itself where
    /// it is visible, and per bucket the one id that crossed the cap.
    ///
    /// # Panics
    ///
    /// Panics if `old` and `new` differ in length.
    pub fn apply_row_delta(
        &mut self,
        id: T,
        old: &[BandKey],
        new: &[BandKey],
        mut visit: impl FnMut(BucketDelta<'_, T>),
    ) {
        assert_eq!(old.len(), new.len(), "old and new keys band for band");
        for (&was, &key) in old.iter().zip(new) {
            if was == key {
                visit(self.row_delta(id, key, RowOp::Keep));
            } else {
                visit(self.row_delta(id, was, RowOp::Remove));
                visit(self.row_delta(id, key, RowOp::Insert));
            }
        }
    }

    /// Applies one step of a one-row delta — row `id` leaves, joins or
    /// stays in the bucket under `key` — and reports what the step changed
    /// for the items probing that bucket: who they are, whether they can
    /// see the row, and which other id the step moved across the cap.
    /// The bucket ends up exactly as [`Self::insert_with_keys`] /
    /// [`Self::remove_with_keys`] leave it: sorted, emptied buckets
    /// reclaimed, untouched by the removal of an absent id.
    fn row_delta(&mut self, id: T, key: BandKey, op: RowOp) -> BucketDelta<'_, T> {
        let cap = self.params.bucket_cap;
        let first = |bucket: &[T]| bucket.partition_point(|&m| m < id);
        let unchanged = BucketDelta { members: &[], visible: false, crossed: None };
        let (b, visible, crossed) = match op {
            RowOp::Remove => {
                let Some(b) = self.find(key) else { return unchanged };
                let pos = first(self.members(b));
                if self.members(b).get(pos) != Some(&id) {
                    (b, false, None)
                } else {
                    self.remove_one(b, pos);
                    let bucket = self.members(b);
                    // The id that was just behind the cut slid into the
                    // window.
                    let crossed = (pos < cap && bucket.len() >= cap)
                        .then(|| Crossed::Entered(bucket[cap - 1]));
                    (b, false, crossed)
                }
            }
            RowOp::Insert => {
                let b = self.bucket_for(key);
                let pos = self.insert_one(b, id);
                let visible = pos < cap;
                let bucket = self.members(b);
                // The last visible id was pushed just behind the cut.
                let crossed = (visible && bucket.len() > cap).then(|| Crossed::Left(bucket[cap]));
                (b, visible, crossed)
            }
            RowOp::Keep => {
                let Some(b) = self.find(key) else { return unchanged };
                let members = self.members(b);
                let pos = first(members);
                (b, pos < cap && members.get(pos) == Some(&id), None)
            }
        };
        self.settle();
        BucketDelta { members: self.members(b), visible, crossed }
    }

    /// Applies everything a batch does to the bucket under `key` in one
    /// lookup — `removes` first, one occurrence per listed id, then
    /// `inserts`, both ascending — and calls `visit` for every member the
    /// bucket held before and for every inserted id: the union of the
    /// bucket's contents before and after, which is what the batch can
    /// change for anyone probing it. The bucket ends up exactly as
    /// [`Self::remove_with_keys`] per removal followed by
    /// [`Self::insert_with_keys`] per insertion leave it: sorted, reclaimed
    /// once empty, untouched by the removal of an absent id, and holding an
    /// id once per time it was inserted (two bands of one row can fold to
    /// the same key). Nothing is copied but the members that move: the
    /// survivors close up in place, and the insertions merge in from the
    /// back of the bucket's room.
    fn key_delta(
        &mut self,
        key: BandKey,
        removes: &[T],
        inserts: &[T],
        mut visit: impl FnMut(T),
    ) {
        debug_assert!(removes.is_sorted() && inserts.is_sorted(), "batches are ascending");
        let b = match self.find(key) {
            Some(b) => b,
            None if inserts.is_empty() => return,
            None => self.bucket_for(key),
        };
        let Bucket { start, len: was, .. } = self.buckets[b];
        let cells = &mut self.pool[start as usize..(start + was) as usize];
        // One walk visits the members and drops the removed ones.
        let mut gone = removes.iter().peekable();
        let mut kept = 0;
        for i in 0..cells.len() {
            let m = cells[i];
            visit(m);
            while gone.next_if(|&&g| g < m).is_some() {}
            if gone.next_if(|&&g| g == m).is_none() {
                cells[kept] = m;
                kept += 1;
            }
        }
        self.buckets[b].len = kept as u32;
        if let Some(&first) = inserts.first() {
            self.make_room(b, inserts.len(), first);
            let start = self.buckets[b].start as usize;
            let cells = &mut self.pool[start..start + kept + inserts.len()];
            // Merge from the back: each step writes the larger of the two
            // tails into the last free cell. Insertions that sort after
            // the bucket's last id — a module ingest's always do — are a
            // plain copy.
            let (mut i, mut j) = (kept, inserts.len());
            while j > 0 {
                if i > 0 && cells[i - 1] > inserts[j - 1] {
                    cells[i + j - 1] = cells[i - 1];
                    i -= 1;
                } else {
                    cells[i + j - 1] = inserts[j - 1];
                    j -= 1;
                }
            }
            self.buckets[b].len += inserts.len() as u32;
        }
        self.booked(b, was as usize);
        inserts.iter().copied().for_each(visit);
    }

    /// The sorted contents of the bucket under one band key (`None` when
    /// empty).
    pub fn probe_key(&self, key: BandKey) -> Option<&[T]> {
        self.find(key).map(|b| self.members(b)).filter(|members| !members.is_empty())
    }

    /// All buckets as `(key, sorted items)`, ordered by key — the bucket
    /// directory order the snapshot writer stores them in.
    pub fn export_buckets(&self) -> Vec<(BandKey, Vec<T>)> {
        self.export_directory().iter().map(|(key, items)| (key, items.to_vec())).collect()
    }

    /// All buckets laid out flat in key order, as the snapshot writer
    /// stores them: one copy of the members, no per-bucket allocation.
    pub fn export_directory(&self) -> BucketDirectory<T> {
        let mut order: Vec<Bucket> = self.buckets.iter().filter(|b| b.len > 0).copied().collect();
        order.sort_unstable_by_key(|b| b.key);
        let mut dir = BucketDirectory {
            keys: Vec::with_capacity(order.len()),
            starts: Vec::with_capacity(order.len()),
            members: Vec::with_capacity(self.live),
        };
        for b in order {
            dir.keys.push(b.key);
            dir.starts.push(dir.members.len() as u32);
            dir.members.extend_from_slice(&self.pool[b.start as usize..(b.start + b.len) as usize]);
        }
        dir
    }

    /// Total entries across all buckets (an item counts once per band it
    /// occupies).
    pub fn num_entries(&self) -> usize {
        self.live
    }

    /// Collects the distinct candidates sharing at least one band with
    /// `sig`, skipping `exclude` (the query item itself). At most
    /// `bucket_cap` entries are taken from each bucket; the total number of
    /// *entries examined* (the paper's "fingerprint comparisons") is
    /// returned alongside the candidates.
    pub fn candidates(&self, sig: &[u64], exclude: T) -> (Vec<T>, usize) {
        let (out, stats) = self.candidates_counted(sig, exclude);
        (out, stats.examined)
    }

    /// Like [`Self::candidates`], but also reports how many bucket entries
    /// were *evicted* — skipped because their bucket overflowed
    /// `bucket_cap`. Eviction counts are deterministic for a given index
    /// content regardless of insertion order, because buckets are sorted
    /// (see [`Self::insert_with_keys`]).
    pub fn candidates_counted(&self, sig: &[u64], exclude: T) -> (Vec<T>, LshQueryStats) {
        let keys: Vec<BandKey> = self.band_keys(sig).collect();
        let mut scratch = QueryScratch::new();
        let stats = self.probe_keys_into(&keys, exclude, &mut scratch);
        (scratch.out, stats)
    }

    /// The allocation-free query path: probes pre-computed band keys
    /// into `scratch`. Candidates are left in `scratch.out`, in the same
    /// order [`Self::candidates_counted`] returns them, and their
    /// per-candidate bucket counts in [`QueryScratch::hits`]. A warm
    /// scratch services every query of a pass without allocating.
    ///
    /// The keys are looked up a chunk at a time before any of the chunk's
    /// buckets is folded: the lookups do not depend on each other, so
    /// their cache misses overlap instead of each waiting on the fold
    /// before it. The buckets still fold in key order.
    pub fn probe_keys_into(
        &self,
        keys: &[BandKey],
        exclude: T,
        scratch: &mut QueryScratch<T>,
    ) -> LshQueryStats {
        const CHUNK: usize = 32;
        scratch.reset();
        let mut stats = LshQueryStats::default();
        for chunk in keys.chunks(CHUNK) {
            let mut buckets: [&[T]; CHUNK] = [&[]; CHUNK];
            for (bucket, &key) in buckets.iter_mut().zip(chunk) {
                *bucket = self.find(key).map_or(&[], |b| self.members(b));
            }
            for bucket in &buckets[..chunk.len()] {
                scratch.visit_bucket(bucket, self.params.bucket_cap, exclude, &mut stats);
            }
        }
        stats
    }

    /// Sizes of all non-empty buckets (for the Figure 16 style analysis of
    /// over-populated buckets).
    pub fn bucket_sizes(&self) -> Vec<usize> {
        self.buckets.iter().filter(|b| b.len > 0).map(|b| b.len as usize).collect()
    }

    /// Number of non-empty buckets.
    pub fn num_buckets(&self) -> usize {
        self.nonempty
    }

    /// Size of the fullest bucket (0 for an empty index). Over-populated
    /// buckets are where the `bucket_cap` truncation bites.
    pub fn max_bucket_size(&self) -> usize {
        self.buckets.iter().map(|b| b.len as usize).max().unwrap_or(0)
    }

    /// The table slot `key` hashes to.
    fn home(&self, key: BandKey) -> usize {
        self.hasher.hash_one(key) as usize & (self.table.len() - 1)
    }

    /// The record of the bucket under `key`, empty or not.
    #[inline]
    fn find(&self, key: BandKey) -> Option<usize> {
        let mask = self.table.len() - 1;
        let mut slot = self.home(key);
        loop {
            match self.table[slot] {
                VACANT => return None,
                b if self.buckets[b as usize].key == key => return Some(b as usize),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The record of the bucket under `key`, made (empty, with no room)
    /// if there is none. Adding a record to a table three quarters full
    /// rebuilds the table first.
    fn bucket_for(&mut self, key: BandKey) -> usize {
        if let Some(b) = self.find(key) {
            return b;
        }
        if (self.buckets.len() + 1) * 4 > self.table.len() * 3 {
            self.rebuild_table(self.nonempty + 1);
        }
        let b = self.buckets.len();
        self.buckets.push(Bucket { key, start: 0, len: 0, room: 0 });
        self.place(b);
        b
    }

    /// Puts record `b` into the first free slot from its key's home.
    fn place(&mut self, b: usize) {
        let mask = self.table.len() - 1;
        let mut slot = self.home(self.buckets[b].key);
        while self.table[slot] != VACANT {
            slot = (slot + 1) & mask;
        }
        self.table[slot] = b as u32;
    }

    /// Drops the records of emptied buckets and lays the table out anew,
    /// sized for `buckets` non-empty ones at most two thirds full.
    fn rebuild_table(&mut self, buckets: usize) {
        self.buckets.retain(|b| b.len > 0);
        self.nonempty = self.buckets.len();
        let slots = (buckets.max(self.nonempty) * 3 / 2 + 1).next_power_of_two().max(MIN_TABLE);
        self.table.clear();
        self.table.resize(slots, VACANT);
        for b in 0..self.buckets.len() {
            self.place(b);
        }
    }

    /// Bucket `b`'s members.
    fn members(&self, b: usize) -> &[T] {
        let Bucket { start, len, .. } = self.buckets[b];
        &self.pool[start as usize..(start + len) as usize]
    }

    /// Makes bucket `b`'s room hold `more` members beyond its current
    /// ones. A bucket that ends the pool grows where it is; any other
    /// moves to the end of the pool with double the room (at least the
    /// room it needs, at least four), and its old cells die. `fill` stands
    /// in the new cells until they are written.
    fn make_room(&mut self, b: usize, more: usize, fill: T) {
        let Bucket { start, len, room, .. } = self.buckets[b];
        let (start, len, room) = (start as usize, len as usize, room as usize);
        if len + more <= room {
            return;
        }
        let grown = (len + more).max(2 * room).max(4);
        if start + room == self.pool.len() {
            self.pool.resize(start + grown, fill);
        } else {
            let to = self.pool.len();
            self.pool.extend_from_within(start..start + len);
            self.pool.resize(to + grown, fill);
            self.buckets[b].start = to as u32;
            self.dead += room;
        }
        self.check_pool();
        self.buckets[b].room = grown as u32;
    }

    /// Inserts `id` into bucket `b` in order and returns its position.
    fn insert_one(&mut self, b: usize, id: T) -> usize {
        let was = self.buckets[b].len as usize;
        self.make_room(b, 1, id);
        let start = self.buckets[b].start as usize;
        let cells = &mut self.pool[start..start + was + 1];
        let pos = cells[..was].partition_point(|&m| m < id);
        cells.copy_within(pos..was, pos + 1);
        cells[pos] = id;
        self.buckets[b].len += 1;
        self.booked(b, was);
        pos
    }

    /// Takes the member at `pos` out of bucket `b`.
    fn remove_one(&mut self, b: usize, pos: usize) {
        let Bucket { start, len, .. } = self.buckets[b];
        let (start, len) = (start as usize, len as usize);
        self.pool.copy_within(start + pos + 1..start + len, start + pos);
        self.buckets[b].len -= 1;
        self.booked(b, len);
    }

    /// Books bucket `b`'s change from `was` members to the ones it holds
    /// now: an emptied bucket gives its room up, its cells die.
    fn booked(&mut self, b: usize, was: usize) {
        let bucket = &mut self.buckets[b];
        let now = bucket.len as usize;
        self.live = self.live - was + now;
        if was > 0 && now == 0 {
            self.dead += bucket.room as usize;
            bucket.room = 0;
            self.nonempty -= 1;
        } else if was == 0 && now > 0 {
            self.nonempty += 1;
        }
    }

    /// Cell positions are `u32`s.
    fn check_pool(&self) {
        assert!(self.pool.len() < u32::MAX as usize, "the pool holds fewer than 2³² cells");
    }

    /// Compacts the pool once its dead cells outnumber its members.
    fn settle(&mut self) {
        if self.dead > self.live {
            self.compact();
        }
    }

    /// Lays every non-empty bucket out anew, record after record, each
    /// with the room it had; the dead cells are gone.
    fn compact(&mut self) {
        let mut pool = Vec::with_capacity(self.pool.len() - self.dead);
        for bucket in &mut self.buckets {
            let (start, len, room) = (bucket.start as usize, bucket.len as usize, bucket.room);
            bucket.start = pool.len() as u32;
            if len > 0 {
                pool.extend_from_slice(&self.pool[start..start + len]);
                pool.resize((bucket.start + room) as usize, self.pool[start]);
            }
        }
        self.pool = pool;
        self.dead = 0;
    }
}

/// The offline pass's band index: built once from a key pool, then only
/// shrunk. Its buckets are the ones [`LshIndex::insert_with_keys`] builds
/// from the same rows, stored as slices of one id pool, and every row
/// keeps the bucket number of each of its bands, so neither a probe nor a
/// removal hashes a key. Probes fold buckets through the same
/// [`QueryScratch`] rule as [`LshIndex::probe_keys_into`].
#[derive(Clone, Debug)]
pub struct FlatIndex {
    bands: usize,
    bucket_cap: usize,
    /// Every bucket's rows, bucket after bucket, each ascending.
    ids: Vec<u32>,
    /// Bucket `b` holds `ids[starts[b]..ends[b]]`; a removal lowers its
    /// end, and a bucket never grows back.
    starts: Vec<u32>,
    ends: Vec<u32>,
    /// The bucket of row `r`'s band `j`, at `r × bands + j`.
    bucket_of: Vec<u32>,
}

impl FlatIndex {
    /// Indexes `key_pool`: rows of `params.bands` keys laid end to end, as
    /// a [`PackedFingerprintStore`](crate::store::PackedFingerprintStore)
    /// holds them, row `r` at `r × bands`. One sort of `(key, slot)` words
    /// groups the slots by key, and within a key by row; the walk over
    /// the sorted words lays out the buckets and records each slot's
    /// bucket. A row whose bands fold to one key sits in that bucket once
    /// per band, as it would in an [`LshIndex`].
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `bands` is zero, if the pool does not hold
    /// whole rows, or if it holds `u32::MAX` keys or more.
    pub fn build(params: LshParams, key_pool: &[BandKey]) -> FlatIndex {
        let bands = params.bands;
        assert!(params.rows > 0 && bands > 0, "rows/bands must be positive");
        assert!(key_pool.len().is_multiple_of(bands), "the key pool holds whole rows");
        assert!(key_pool.len() < u32::MAX as usize, "slot numbers must fit in u32");
        let mut words: Vec<u64> =
            key_pool.iter().zip(0u64..).map(|(&key, slot)| u64::from(key) << 32 | slot).collect();
        words.sort_unstable();
        let mut ids = Vec::with_capacity(words.len());
        let mut starts = Vec::new();
        let mut bucket_of = vec![0; words.len()];
        let mut last = None;
        for word in words {
            let (key, slot) = ((word >> 32) as BandKey, word as u32 as usize);
            if last != Some(key) {
                last = Some(key);
                starts.push(ids.len() as u32);
            }
            bucket_of[slot] = starts.len() as u32 - 1;
            ids.push((slot / bands) as u32);
        }
        let ends = starts.iter().skip(1).copied().chain([ids.len() as u32]).collect();
        FlatIndex { bands, bucket_cap: params.bucket_cap, ids, starts, ends, bucket_of }
    }

    /// Takes `row` out of the bucket of each of its bands: once per band,
    /// so a row listed twice in one bucket leaves it twice. Removing a row
    /// that is not there is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `row` was not in the key pool.
    pub fn remove(&mut self, row: u32) {
        let at = row as usize * self.bands;
        for &b in &self.bucket_of[at..at + self.bands] {
            let Range { start, end } = self.span(b);
            if let Ok(pos) = self.ids[start..end].binary_search(&row) {
                self.ids.copy_within(start + pos + 1..end, start + pos);
                self.ends[b as usize] -= 1;
            }
        }
    }

    /// Probes the buckets of `row`'s bands into `scratch`, skipping the row
    /// itself: what [`LshIndex::probe_keys_into`] answers for the row's
    /// keys over the same rows.
    ///
    /// # Panics
    ///
    /// Panics if `row` was not in the key pool.
    pub fn probe_into(&self, row: u32, scratch: &mut QueryScratch<u32>) -> LshQueryStats {
        scratch.reset();
        let mut stats = LshQueryStats::default();
        let at = row as usize * self.bands;
        for &b in &self.bucket_of[at..at + self.bands] {
            scratch.visit_bucket(&self.ids[self.span(b)], self.bucket_cap, row, &mut stats);
        }
        stats
    }

    /// Where bucket `b`'s rows sit in `ids`.
    fn span(&self, b: u32) -> Range<usize> {
        self.starts[b as usize] as usize..self.ends[b as usize] as usize
    }

    /// Sizes of the non-empty buckets, in key order.
    pub fn bucket_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.starts.iter().zip(&self.ends).map(|(&s, &e)| (e - s) as usize).filter(|&n| n > 0)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv::xor_constants;
    use crate::minhash::minhash_signature;

    fn sig(stream: &[u32], k: usize) -> Vec<u64> {
        minhash_signature(&xor_constants(k), stream)
    }

    fn params() -> LshParams {
        LshParams { rows: 2, bands: 16, bucket_cap: 100 }
    }

    #[test]
    fn identical_items_share_all_bands() {
        let mut idx = LshIndex::new(params());
        let s: Vec<u32> = (0..20).collect();
        let f1 = sig(&s, 32);
        idx.insert(1u32, &f1);
        let (cands, _) = idx.candidates(&f1, 0);
        assert_eq!(cands, vec![1]);
    }

    #[test]
    fn query_excludes_self() {
        let mut idx = LshIndex::new(params());
        let s: Vec<u32> = (0..20).collect();
        let f1 = sig(&s, 32);
        idx.insert(7u32, &f1);
        let (cands, _) = idx.candidates(&f1, 7);
        assert!(cands.is_empty());
    }

    #[test]
    fn similar_items_likely_share_a_band() {
        let mut idx = LshIndex::new(params());
        let a: Vec<u32> = (0..40).collect();
        let mut b = a.clone();
        b[39] = 999; // tiny difference
        let fa = sig(&a, 32);
        let fb = sig(&b, 32);
        idx.insert(1u32, &fa);
        let (cands, _) = idx.candidates(&fb, 2);
        assert_eq!(cands, vec![1], "near-identical functions must collide");
    }

    #[test]
    fn dissimilar_items_rarely_collide() {
        let mut idx = LshIndex::new(params());
        let a: Vec<u32> = (0..40).collect();
        let b: Vec<u32> = (1000..1040).collect();
        idx.insert(1u32, &sig(&a, 32));
        let (cands, _) = idx.candidates(&sig(&b, 32), 2);
        assert!(cands.is_empty(), "disjoint shingle sets must not collide");
    }

    #[test]
    fn remove_makes_item_unfindable() {
        let mut idx = LshIndex::new(params());
        let s: Vec<u32> = (0..20).collect();
        let f1 = sig(&s, 32);
        idx.insert(1u32, &f1);
        idx.remove(1u32, &f1);
        let (cands, _) = idx.candidates(&f1, 0);
        assert!(cands.is_empty());
        assert_eq!(idx.num_buckets(), 0, "empty buckets are reclaimed");
    }

    #[test]
    fn bucket_cap_limits_examined_entries() {
        let mut idx = LshIndex::new(LshParams { rows: 2, bands: 1, bucket_cap: 5 });
        let s: Vec<u32> = (0..10).collect();
        let f1 = sig(&s, 2);
        for id in 0..50u32 {
            idx.insert(id, &f1);
        }
        let (cands, examined) = idx.candidates(&f1, u32::MAX);
        assert!(cands.len() <= 5);
        assert!(examined <= 5);
    }

    #[test]
    fn candidates_are_deduplicated_across_bands() {
        let mut idx = LshIndex::new(params());
        let s: Vec<u32> = (0..20).collect();
        let f1 = sig(&s, 32);
        idx.insert(1u32, &f1);
        let (cands, stats) = idx.candidates_counted(&f1, 0);
        assert_eq!(cands, vec![1]);
        assert!(stats.examined >= 16, "entry examined once per matching band");
        // One distinct candidate: every further hit is a cross-band
        // collision, and the counter accounts for each of them.
        assert_eq!(stats.collisions, stats.examined - cands.len());
    }

    #[test]
    fn collision_probability_matches_montecarlo_shape() {
        // p is monotone in s, and steeper with more bands.
        let p1 = collision_probability(0.3, 2, 10);
        let p2 = collision_probability(0.6, 2, 10);
        assert!(p2 > p1);
        let few = collision_probability(0.3, 2, 5);
        let many = collision_probability(0.3, 2, 50);
        assert!(many > few);
        // Equation check: r=1, b=1 -> p = s.
        assert!((collision_probability(0.42, 1, 1) - 0.42).abs() < 1e-12);
    }

    #[test]
    fn precomputed_key_insertion_matches_direct_insertion() {
        let s: Vec<u32> = (0..30).collect();
        let f1 = sig(&s, 32);
        let mut direct = LshIndex::new(params());
        direct.insert(4u32, &f1);
        let mut bulk = LshIndex::new(params());
        let keys = band_keys_for(params(), &f1);
        bulk.insert_with_keys(4u32, &keys);
        assert_eq!(direct.num_buckets(), bulk.num_buckets());
        assert_eq!(direct.candidates(&f1, 0), bulk.candidates(&f1, 0));
    }

    #[test]
    fn scratch_reuse_matches_fresh_queries() {
        let p = params();
        let mut idx = LshIndex::new(p);
        let streams: Vec<Vec<u32>> = (0..8u32).map(|i| (i..i + 24).collect()).collect();
        let sigs: Vec<Vec<u64>> = streams.iter().map(|s| sig(s, 32)).collect();
        for (i, f) in sigs.iter().enumerate() {
            idx.insert(i as u32, f);
        }
        let mut scratch = QueryScratch::new();
        for (i, f) in sigs.iter().enumerate() {
            let keys = band_keys_for(p, f);
            let stats = idx.probe_keys_into(&keys, i as u32, &mut scratch);
            let (fresh, fresh_stats) = idx.candidates_counted(f, i as u32);
            assert_eq!(scratch.out, fresh, "query {i}");
            assert_eq!(stats, fresh_stats, "query {i}");
        }
    }

    /// An index of overlapping shingle windows under a cap of 3: probes
    /// dedup, collide across bands and meet truncated buckets.
    fn crowded_index() -> (LshIndex<u32>, Vec<Vec<u64>>) {
        let p = LshParams { bucket_cap: 3, ..params() };
        let sigs: Vec<Vec<u64>> =
            (0..40u32).map(|i| sig(&(i % 9..i % 9 + 24).collect::<Vec<u32>>(), 32)).collect();
        let mut idx = LshIndex::new(p);
        for (i, f) in sigs.iter().enumerate() {
            idx.insert(i as u32, f);
        }
        (idx, sigs)
    }

    #[test]
    fn hits_count_the_probed_buckets_a_candidate_was_found_in() {
        let (idx, sigs) = crowded_index();
        let p = idx.params();
        let mut scratch = QueryScratch::new();
        let mut truncated = 0;
        for (i, f) in sigs.iter().enumerate() {
            let keys = band_keys_for(p, f);
            let stats = idx.probe_keys_into(&keys, i as u32, &mut scratch);
            // Recount from the buckets themselves.
            let mut hits = std::collections::BTreeMap::new();
            let mut cut = 0;
            for key in &keys {
                let bucket = idx.probe_key(*key).unwrap_or(&[]);
                cut += usize::from(bucket.len() > p.bucket_cap);
                for &id in bucket.iter().take(p.bucket_cap).filter(|&&id| id != i as u32) {
                    *hits.entry(id).or_insert(0u32) += 1;
                }
            }
            assert_eq!(stats.truncated, cut, "query {i}");
            assert_eq!(stats.examined, hits.values().sum::<u32>() as usize, "query {i}");
            let mut out = scratch.out.clone();
            out.sort_unstable();
            assert_eq!(out, hits.keys().copied().collect::<Vec<_>>(), "query {i}");
            for (&id, &n) in &hits {
                assert_eq!(scratch.hits(id), n, "query {i} candidate {id}");
            }
            assert_eq!(scratch.hits(i as u32), 0, "the querier is never recorded");
            truncated += stats.truncated;
        }
        assert!(truncated > 0, "the cap of 3 must cut some probed bucket");
    }

    #[test]
    fn generation_wrap_answers_like_a_fresh_scratch() {
        let (idx, sigs) = crowded_index();
        let mut wrapping = QueryScratch::at_generation(u32::MAX - 1);
        for (i, f) in sigs.iter().enumerate().take(3) {
            let keys = band_keys_for(idx.params(), f);
            let mut fresh = QueryScratch::new();
            let expected = idx.probe_keys_into(&keys, i as u32, &mut fresh);
            assert_eq!(idx.probe_keys_into(&keys, i as u32, &mut wrapping), expected, "probe {i}");
            assert_eq!(wrapping.out, fresh.out, "probe {i}");
            for id in 0..sigs.len() as u32 {
                assert_eq!(wrapping.hits(id), fresh.hits(id), "probe {i} candidate {id}");
            }
        }
        assert_eq!(wrapping.generation, 2, "the three probes ran under MAX, 1 and 2");
    }

    #[test]
    fn warm_scratch_stops_growing_and_ignores_the_excluded_id() {
        let (idx, sigs) = crowded_index();
        let mut scratch = QueryScratch::new();
        let mut sweep = || {
            for f in &sigs {
                // `u32::MAX` excludes nothing real; were it stamped, the
                // table would have to cover the whole id space.
                idx.probe_keys_into(&band_keys_for(idx.params(), f), u32::MAX, &mut scratch);
            }
            (scratch.grows(), scratch.table.len())
        };
        let (cold_grows, cold_len) = sweep();
        assert!(cold_grows > 0 && cold_len <= 64, "40 ids need at most 64 slots, got {cold_len}");
        assert_eq!(sweep(), (cold_grows, cold_len), "a warm scratch allocates nothing");
    }

    #[test]
    fn from_directory_reproduces_exported_index() {
        let p = params();
        let mut idx = LshIndex::new(p);
        let streams: Vec<Vec<u32>> = (0..6u32).map(|i| (i % 3..i % 3 + 20).collect()).collect();
        let sigs: Vec<Vec<u64>> = streams.iter().map(|s| sig(s, 32)).collect();
        for (i, f) in sigs.iter().enumerate() {
            idx.insert(i as u32, f);
        }
        // A row whose bands all fold to one key sits in its bucket once
        // per band, twice in a row.
        let key = idx.band_keys(&sigs[0]).next().unwrap();
        idx.insert_with_keys(6, &vec![key; p.bands]);
        let restored = LshIndex::from_directory(p, idx.export_directory());
        assert_eq!(restored.export_buckets(), idx.export_buckets());
        assert_eq!(restored.num_buckets(), idx.num_buckets());
        assert_eq!(restored.num_entries(), idx.num_entries());
        for (i, f) in sigs.iter().enumerate() {
            assert_eq!(
                restored.candidates_counted(f, i as u32),
                idx.candidates_counted(f, i as u32)
            );
        }
    }

    #[test]
    fn bucket_cap_overflow_is_deterministic_across_insertion_orders() {
        let p = LshParams { rows: 2, bands: 1, bucket_cap: 3 };
        let s: Vec<u32> = (0..10).collect();
        let f1 = sig(&s, 2);
        let mut ascending = LshIndex::new(p);
        for id in 0..8u32 {
            ascending.insert(id, &f1);
        }
        let mut shuffled = LshIndex::new(p);
        for id in [5u32, 0, 7, 2, 6, 1, 4, 3] {
            shuffled.insert(id, &f1);
        }
        let (ca, sa) = ascending.candidates_counted(&f1, u32::MAX);
        let (cs, ss) = shuffled.candidates_counted(&f1, u32::MAX);
        assert_eq!(ca, cs, "surviving candidates must not depend on insertion order");
        assert_eq!(ca, vec![0, 1, 2], "sorted buckets keep the lowest ids under the cap");
        assert_eq!(sa, ss);
    }

    #[test]
    fn eviction_counter_matches_observed_drops() {
        let p = LshParams { rows: 2, bands: 1, bucket_cap: 3 };
        let s: Vec<u32> = (0..10).collect();
        let f1 = sig(&s, 2);
        let mut idx = LshIndex::new(p);
        for id in 0..8u32 {
            idx.insert(id, &f1);
        }
        let (cands, stats) = idx.candidates_counted(&f1, u32::MAX);
        // 8 in the bucket, cap 3: exactly 5 entries dropped, and the drop
        // count equals bucket population minus returned candidates.
        assert_eq!(stats.evicted, 5);
        assert_eq!(stats.evicted, idx.max_bucket_size() - cands.len());
        assert_eq!(stats.examined, 3);
        // Uncapped index over the same content evicts nothing.
        let mut uncapped = LshIndex::new(LshParams { bucket_cap: usize::MAX, ..p });
        for id in 0..8u32 {
            uncapped.insert(id, &f1);
        }
        let (all, stats) = uncapped.candidates_counted(&f1, u32::MAX);
        assert_eq!(stats.evicted, 0);
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn eviction_counts_exclude_self_and_sum_over_bands() {
        // Two bands over the same fingerprint double the per-bucket drops.
        let p = LshParams { rows: 1, bands: 2, bucket_cap: 2 };
        let s: Vec<u32> = (0..10).collect();
        let f1 = sig(&s, 2);
        let mut idx = LshIndex::new(p);
        for id in 0..5u32 {
            idx.insert(id, &f1);
        }
        let (_, stats) = idx.candidates_counted(&f1, 0);
        // Each band bucket holds 5 entries, cap 2 -> 3 evicted per band.
        assert_eq!(stats.evicted, 6);
        // id 0 survives the cap then is excluded as self: 1 examined/band.
        assert_eq!(stats.examined, 2);
        // Band two re-finds band one's survivor: one cross-band collision.
        assert_eq!(stats.collisions, 1);
    }

    #[test]
    fn remove_keeps_buckets_sorted() {
        let p = LshParams { rows: 2, bands: 1, bucket_cap: 2 };
        let s: Vec<u32> = (0..10).collect();
        let f1 = sig(&s, 2);
        let mut idx = LshIndex::new(p);
        for id in [3u32, 1, 4, 0, 2] {
            idx.insert(id, &f1);
        }
        idx.remove(1, &f1);
        idx.remove(9, &f1); // never inserted: a no-op
        let (cands, _) = idx.candidates_counted(&f1, u32::MAX);
        assert_eq!(cands, vec![0, 2], "cap keeps the lowest surviving ids");
        assert_eq!(idx.num_entries(), 4);
    }

    /// The flat index is the mutable one under removal: random key pools
    /// are built both ways — `FlatIndex::build` over the pool,
    /// `insert_with_keys` row by row — and after every step of a random
    /// removal sequence (repeats included) every row's probe must match
    /// `probe_keys_into` on its keys: the same `out` order, the same hits
    /// per candidate, the same stats, and the same bucket sizes overall.
    /// Keys come from alphabets of 2 to 12 letters, so buckets outgrow
    /// every cap in {1, 3, 100, ∞} but the last, and one row in six has all
    /// its bands on one key.
    ///
    /// Mutation check (scratch copy): dropping `ends[b] -= 1` from
    /// `FlatIndex::remove`, or removing a row once per distinct bucket
    /// instead of once per band, fails this test.
    #[test]
    fn flat_index_matches_lsh_index_under_removals() {
        use f3m_prng::SmallRng;
        const BANDS: usize = 4;
        let seeds = if cfg!(debug_assertions) { 6 } else { 64 };
        // Removals of a row holding one key twice; probes cut at cap 100.
        let (mut folded, mut cut_at_100) = (0, 0);
        for seed in 0..seeds {
            for bucket_cap in [1, 3, 100, usize::MAX] {
                let mut rng = SmallRng::seed_from_u64(seed * 100 + bucket_cap.min(99) as u64);
                let p = LshParams { rows: 2, bands: BANDS, bucket_cap };
                let alphabet: Vec<BandKey> =
                    (0..2 + seed % 11).map(|_| rng.next_u32()).collect();
                let mut pool = Vec::new();
                for _ in 0..rng.gen_range(1..=160) {
                    let one = alphabet[rng.gen_range(0..alphabet.len())];
                    let all_one = rng.gen_bool(1.0 / 6.0);
                    pool.extend((0..BANDS).map(|_| {
                        if all_one { one } else { alphabet[rng.gen_range(0..alphabet.len())] }
                    }));
                }
                let n = pool.len() / BANDS;
                let keys = |row: u32| &pool[row as usize * BANDS..(row as usize + 1) * BANDS];
                let mut flat = FlatIndex::build(p, &pool);
                let mut reference = LshIndex::new(p);
                for row in 0..n as u32 {
                    reference.insert_with_keys(row, keys(row));
                }
                let (mut got, mut expected) = (QueryScratch::new(), QueryScratch::new());
                for step in 0..=n {
                    let case = format!("seed {seed} cap {bucket_cap} step {step}");
                    if step > 0 {
                        let row = rng.gen_range(0..n as u32);
                        flat.remove(row);
                        reference.remove_with_keys(row, keys(row));
                        let mut sorted = keys(row).to_vec();
                        sorted.sort_unstable();
                        folded += usize::from(sorted.windows(2).any(|w| w[0] == w[1]));
                    }
                    let mut sizes: Vec<usize> = flat.bucket_sizes().collect();
                    sizes.sort_unstable();
                    let mut want = reference.bucket_sizes();
                    want.sort_unstable();
                    assert_eq!(sizes, want, "{case}");
                    for row in 0..n as u32 {
                        let stats = flat.probe_into(row, &mut got);
                        assert_eq!(
                            stats,
                            reference.probe_keys_into(keys(row), row, &mut expected),
                            "row {row} of {case}"
                        );
                        assert_eq!(got.out, expected.out, "row {row} of {case}");
                        for &c in &got.out {
                            assert_eq!(got.hits(c), expected.hits(c), "row {row} of {case}");
                        }
                        cut_at_100 += usize::from(bucket_cap == 100 && stats.truncated > 0);
                    }
                }
            }
        }
        assert!(folded > 0 && cut_at_100 > 0, "folded rows {folded}, cut at 100 {cut_at_100}");
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn banding_requires_large_enough_fingerprint() {
        let idx: LshIndex<u32> = LshIndex::new(LshParams { rows: 4, bands: 10, bucket_cap: 100 });
        let f = sig(&[1, 2, 3], 8); // needs 40 slots
        let _ = idx.band_keys(&f).count();
    }

    impl<T: DenseId> LshIndex<T> {
        /// Distinct items resident in the buckets under `keys`, ascending —
        /// the band-collision neighborhood of those keys, by copying and
        /// sorting every bucket: the definition `apply_delta` is tested
        /// against.
        fn members_of_keys(&self, keys: &[BandKey]) -> Vec<T> {
            let mut members: Vec<T> =
                keys.iter().flat_map(|&key| self.probe_key(key).unwrap_or(&[])).copied().collect();
            members.sort_unstable();
            members.dedup();
            members
        }

        /// `apply_delta` by its definition: the neighborhood before, each
        /// removal then each insertion in order, the neighborhood after.
        fn apply_delta_sequentially(
            &mut self,
            removes: &[(T, Vec<BandKey>)],
            inserts: &[(T, Vec<BandKey>)],
        ) -> Vec<T> {
            let touched: Vec<BandKey> =
                removes.iter().chain(inserts).flat_map(|(_, keys)| keys.iter().copied()).collect();
            let mut dirty = self.members_of_keys(&touched);
            for (id, keys) in removes {
                self.remove_with_keys(*id, keys);
            }
            for (id, keys) in inserts {
                self.insert_with_keys(*id, keys);
            }
            dirty.extend(self.members_of_keys(&touched));
            dirty.sort_unstable();
            dirty.dedup();
            dirty
        }
    }

    /// A 32-slot signature of one of seven overlapping shingle windows.
    fn fp(seed: u32) -> Vec<u64> {
        sig(&(0..24).map(|i| i + seed % 7).collect::<Vec<u32>>(), 32)
    }

    /// `members_of_keys` returns exactly the items resident under the
    /// probed buckets, and `apply_delta` returns the union of old and new
    /// neighborhoods while leaving the index identical to direct
    /// removal + insertion.
    #[test]
    fn apply_delta_returns_collision_neighborhood() {
        let p = LshParams { bucket_cap: 3, ..params() };
        let items: Vec<(u32, Vec<u64>)> = (0..10).map(|i| (i, fp(i))).collect();
        let mut idx = LshIndex::new(p);
        for (id, f) in &items {
            idx.insert(*id, f);
        }
        // The neighborhood of an item's own keys contains at least itself.
        for (id, f) in &items {
            let members = idx.members_of_keys(&band_keys_for(p, f));
            assert!(members.contains(id), "item {id} missing from its own neighborhood");
            assert!(members.windows(2).all(|w| w[0] < w[1]), "sorted and deduplicated");
        }

        // Move item 3 to a new fingerprint via a delta.
        let old_keys = band_keys_for(p, &items[3].1);
        let new_fp = fp(3 + 100);
        let new_keys = band_keys_for(p, &new_fp);
        let before_old = idx.members_of_keys(&old_keys);
        let dirty = idx.apply_delta(&[(3u32, old_keys.clone())], &[(3u32, new_keys.clone())]);
        // The dirty set covers the item itself plus both neighborhoods.
        assert!(dirty.contains(&3));
        for m in before_old {
            assert!(dirty.contains(&m), "old neighbor {m} missing from dirty set");
        }
        for m in idx.members_of_keys(&new_keys) {
            assert!(dirty.contains(&m), "new neighbor {m} missing from dirty set");
        }

        // The index state matches a from-scratch build with the new keys.
        let mut flat = LshIndex::new(p);
        for (id, f) in &items {
            flat.insert(*id, if *id == 3 { &new_fp } else { f });
        }
        for (id, f) in &items {
            let f = if *id == 3 { &new_fp } else { f };
            assert_eq!(idx.candidates_counted(f, *id), flat.candidates_counted(f, *id));
        }
    }

    /// Random batches against the sequential definition, on the returned
    /// set, on every bucket and on every resident row's probe. Keys come
    /// from a ten-letter alphabet, so buckets collide and a row's four
    /// bands repeat a key; ids come from a pool of 48, so a round inserts
    /// below resident ids (the non-append path) as well as above them. A
    /// round moves rows (removed under their keys, inserted under new ones
    /// sharing some), removes some whole and some from one band, inserts
    /// some, removes ids that are not there, and lists rows with no keys at
    /// all.
    #[test]
    fn apply_delta_matches_sequential_removal_and_insertion() {
        use f3m_prng::SmallRng;
        use std::collections::BTreeMap;
        type Rows = Vec<(u32, Vec<BandKey>)>;
        type Resident = BTreeMap<u32, Vec<BandKey>>;
        const BANDS: usize = 4;

        // Batch shapes met: moved rows, absent removals, insertions below a
        // resident id, rows listing a key twice.
        let mut met = [0usize; 4];
        let mut batch = |rng: &mut SmallRng, alphabet: &[BandKey], resident: &mut Resident| {
            let row_keys = |rng: &mut SmallRng| -> Vec<BandKey> {
                let bands = if rng.gen_bool(0.1) { 0 } else { BANDS };
                (0..bands).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect()
            };
            let (mut removes, mut inserts): (Rows, Rows) = (Vec::new(), Vec::new());
            for _ in 0..rng.gen_range(0..24) {
                let id = rng.gen_range(0..48u32);
                if removes.iter().chain(&inserts).any(|&(listed, _)| listed == id) {
                    continue;
                }
                match (resident.remove(&id), rng.gen_range(0..4)) {
                    (Some(old), 0) => removes.push((id, old)),
                    // One band only: of a key the row lists twice, one
                    // copy stays.
                    (Some(mut old), 1) if !old.is_empty() => {
                        let key = old.swap_remove(rng.gen_range(0..old.len()));
                        removes.push((id, vec![key]));
                        resident.insert(id, old);
                    }
                    (Some(old), _) => {
                        let mut new = row_keys(rng);
                        for (key, &was) in new.iter_mut().zip(&old) {
                            *key = if rng.gen_bool(0.5) { was } else { *key };
                        }
                        removes.push((id, old));
                        inserts.push((id, new.clone()));
                        resident.insert(id, new);
                        met[0] += 1;
                    }
                    (None, 0) => {
                        removes.push((id, row_keys(rng)));
                        met[1] += 1;
                    }
                    (None, _) => {
                        let keys = row_keys(rng);
                        let twice = |k| keys.iter().filter(|&o| o == k).count() > 1;
                        met[2] += usize::from(resident.range(id..).next().is_some());
                        met[3] += usize::from(keys.iter().any(twice));
                        inserts.push((id, keys.clone()));
                        resident.insert(id, keys);
                    }
                }
            }
            (removes, inserts)
        };

        let seeds = if cfg!(debug_assertions) { 6 } else { 300 };
        let cells = (0..seeds).flat_map(|seed| [1, 2, 3, 100].map(|cap| (seed, cap)));
        for (seed, bucket_cap) in cells {
            let mut rng = SmallRng::seed_from_u64(seed * 100 + bucket_cap as u64);
            let p = LshParams { rows: 2, bands: BANDS, bucket_cap };
            let (mut batched, mut reference) = (LshIndex::new(p), LshIndex::new(p));
            let alphabet: Vec<BandKey> = (0..10).map(|_| rng.next_u32()).collect();
            let mut resident = BTreeMap::new();
            for round in 0..5 {
                let (removes, inserts) = batch(&mut rng, &alphabet, &mut resident);
                let case = || {
                    format!("seed {seed} cap {bucket_cap} round {round}: -{removes:?} +{inserts:?}")
                };
                assert_eq!(
                    batched.apply_delta(&removes, &inserts),
                    reference.apply_delta_sequentially(&removes, &inserts),
                    "{}",
                    case()
                );
                assert_eq!(batched.export_buckets(), reference.export_buckets(), "{}", case());
                let (mut got, mut expected) = (QueryScratch::new(), QueryScratch::new());
                for (&id, keys) in &resident {
                    assert_eq!(
                        batched.probe_keys_into(keys, id, &mut got),
                        reference.probe_keys_into(keys, id, &mut expected),
                        "row {id} of {}",
                        case()
                    );
                    assert_eq!(got.out, expected.out, "row {id} of {}", case());
                }
            }
        }
        assert!(met.iter().all(|&n| n > 0), "every batch shape occurs: {met:?}");
    }

    /// An item whose keys share no bucket with the delta is not dirtied —
    /// invalidation is O(neighborhood), not O(index).
    #[test]
    fn apply_delta_spares_disjoint_items() {
        let p = LshParams { rows: 2, bands: 4, bucket_cap: 8 };
        let mut idx: LshIndex<u32> = LshIndex::new(p);
        // Disjoint shingle streams → disjoint buckets.
        let far = sig(&(5000..5024).collect::<Vec<u32>>(), 32);
        let near = fp(1);
        let near_twin = fp(1);
        idx.insert(1, &near);
        idx.insert(9, &far);
        let dirty = idx.apply_delta(&[], &[(2u32, band_keys_for(p, &near_twin))]);
        assert!(dirty.contains(&2));
        assert!(dirty.contains(&1), "co-bucketed twin must be dirtied");
        assert!(!dirty.contains(&9), "disjoint item must not be dirtied");
    }

    /// `apply_row_delta` leaves the index as `apply_delta` does, and its
    /// visits name every change to a touched bucket's visible window: the
    /// row where it is visible, and exactly the ids that a brute-force
    /// before/after comparison of the window finds entering or leaving.
    #[test]
    fn apply_row_delta_reports_every_window_change() {
        for bucket_cap in [1, 2, 3, 8, usize::MAX] {
            let p = LshParams { bucket_cap, ..params() };
            let window = |idx: &LshIndex<u32>, key: BandKey| -> Vec<u32> {
                idx.members_of_keys(&[key]).into_iter().take(bucket_cap).collect()
            };
            let (mut entered, mut left) = (0, 0);
            // Every row in turn moves three families on.
            for id in 0..40u32 {
                let (mut by_row, mut by_batch) = (LshIndex::new(p), LshIndex::new(p));
                for i in 0..40u32 {
                    by_row.insert(i, &fp(i));
                    by_batch.insert(i, &fp(i));
                }
                let old = band_keys_for(p, &fp(id));
                let new = band_keys_for(p, &fp(id + 3));
                // The steps the delta takes, band by band.
                let mut steps: Vec<BandKey> = Vec::new();
                for (&was, &key) in old.iter().zip(&new) {
                    if was != key {
                        steps.push(was);
                    }
                    steps.push(key);
                }
                let before: Vec<Vec<u32>> = steps.iter().map(|&k| window(&by_row, k)).collect();

                let mut visits = Vec::new();
                by_row.apply_row_delta(id, &old, &new, |b| {
                    visits.push((b.members.to_vec(), b.visible, b.crossed));
                });
                by_batch.apply_delta(&[(id, old.clone())], &[(id, new.clone())]);
                assert_eq!(by_row.export_buckets(), by_batch.export_buckets());

                assert_eq!(visits.len(), steps.len(), "one visit per step");
                let stepped = steps.iter().zip(&before).zip(&visits);
                for ((&key, was), (members, visible, crossed)) in stepped {
                    let what = format!("cap {bucket_cap} row {id} key {key:#x}");
                    assert_eq!(members, &by_row.members_of_keys(&[key]), "{what}");
                    let now = window(&by_row, key);
                    assert_eq!(*visible, now.contains(&id), "{what}");
                    let others =
                        |w: &[u32]| -> Vec<u32> { w.iter().copied().filter(|&m| m != id).collect() };
                    let (was, now) = (others(was), others(&now));
                    let came: Vec<u32> = now.iter().copied().filter(|m| !was.contains(m)).collect();
                    let went: Vec<u32> = was.iter().copied().filter(|m| !now.contains(m)).collect();
                    let expected = match (&came[..], &went[..]) {
                        ([], []) => None,
                        ([y], []) => Some(Crossed::Entered(*y)),
                        ([], [z]) => Some(Crossed::Left(*z)),
                        _ => panic!("{what}: a one-row delta moved {came:?} in and {went:?} out"),
                    };
                    assert_eq!(*crossed, expected, "{what}");
                    entered += usize::from(matches!(crossed, Some(Crossed::Entered(_))));
                    left += usize::from(matches!(crossed, Some(Crossed::Left(_))));
                }
            }
            let truncates = bucket_cap != usize::MAX;
            assert_eq!((entered > 0, left > 0), (truncates, truncates), "cap {bucket_cap}");
        }
    }
}
