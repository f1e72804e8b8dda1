//! The map-of-`Vec`s index [`super::LshIndex`] replaced, kept verbatim as
//! the reference it is held to: one `HashMap` entry per bucket, each
//! bucket its own `Vec`.
//!
//! [`pool_matches_the_map_of_vecs`] drives the flat bucket pool and this
//! index through the same random sequences — module ingests and
//! evictions, one-row moves, restores and exports, with compactions
//! forced between steps — and requires the same answers from both at
//! every step.

use std::collections::hash_map::{Entry, HashMap};

use super::{
    band_keys_for, BandKey, BucketDelta, Crossed, DenseId, LshParams, LshQueryStats,
    QueryScratch, RowOp,
};

/// An LSH index mapping band hashes to buckets of items.
#[derive(Clone, Debug)]
pub struct LshIndex<T> {
    params: LshParams,
    buckets: HashMap<BandKey, Vec<T>>,
}

impl<T: DenseId> LshIndex<T> {
    /// Creates an empty index.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `bands` is zero.
    pub fn new(params: LshParams) -> LshIndex<T> {
        assert!(params.rows > 0 && params.bands > 0, "rows/bands must be positive");
        LshIndex { params, buckets: HashMap::new() }
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
            let bucket = self.buckets.entry(key).or_default();
            let pos = bucket.binary_search(&id).unwrap_or_else(|p| p);
            bucket.insert(pos, id);
        }
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
        for key in keys {
            if let Some(v) = self.buckets.get_mut(key) {
                if let Ok(pos) = v.binary_search(&id) {
                    v.remove(pos);
                    if v.is_empty() {
                        self.buckets.remove(key);
                    }
                }
            }
        }
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
    /// [`Self::remove_with_keys`] leave it — sorted, reclaimed once
    /// empty, untouched by the removal of an absent id — which stay
    /// separate as the plain one-row forms the batched delta and
    /// [`FlatIndex`] are tested against, with no use for the report.
    fn row_delta(&mut self, id: T, key: BandKey, op: RowOp) -> BucketDelta<'_, T> {
        let cap = self.params.bucket_cap;
        let first = |bucket: &[T]| bucket.partition_point(|&m| m < id);
        let unchanged = |members| BucketDelta { members, visible: false, crossed: None };
        match op {
            RowOp::Remove => {
                let Entry::Occupied(mut slot) = self.buckets.entry(key) else {
                    return unchanged(&[]);
                };
                let bucket = slot.get_mut();
                let pos = first(bucket);
                if bucket.get(pos) != Some(&id) {
                    return unchanged(slot.into_mut());
                }
                bucket.remove(pos);
                if bucket.is_empty() {
                    slot.remove();
                    return unchanged(&[]);
                }
                // The id that was just behind the cut slid into the window.
                let crossed =
                    (pos < cap && bucket.len() >= cap).then(|| Crossed::Entered(bucket[cap - 1]));
                BucketDelta { members: slot.into_mut(), visible: false, crossed }
            }
            RowOp::Insert => {
                let bucket = self.buckets.entry(key).or_default();
                let pos = first(bucket);
                bucket.insert(pos, id);
                let visible = pos < cap;
                // The last visible id was pushed just behind the cut.
                let crossed = (visible && bucket.len() > cap).then(|| Crossed::Left(bucket[cap]));
                BucketDelta { members: bucket, visible, crossed }
            }
            RowOp::Keep => {
                let members = self.probe_key(key).unwrap_or(&[]);
                let pos = first(members);
                let visible = pos < cap && members.get(pos) == Some(&id);
                BucketDelta { members, visible, crossed: None }
            }
        }
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
    /// the same key). Nothing is copied; insertions that sort after the
    /// bucket's last id — a module ingest's always do — are appended.
    fn key_delta(
        &mut self,
        key: BandKey,
        removes: &[T],
        inserts: &[T],
        mut visit: impl FnMut(T),
    ) {
        debug_assert!(removes.is_sorted() && inserts.is_sorted(), "batches are ascending");
        match self.buckets.entry(key) {
            Entry::Vacant(slot) => {
                if !inserts.is_empty() {
                    slot.insert(inserts.to_vec());
                }
            }
            Entry::Occupied(mut slot) => {
                let bucket = slot.get_mut();
                // One walk visits the members and drops the removed ones.
                let mut gone = removes.iter().peekable();
                bucket.retain(|&m| {
                    visit(m);
                    while gone.next_if(|&&g| g < m).is_some() {}
                    gone.next_if(|&&g| g == m).is_none()
                });
                match inserts.first() {
                    Some(&first) if bucket.last().is_some_and(|&last| last > first) => {
                        for &id in inserts {
                            bucket.insert(bucket.partition_point(|&m| m < id), id);
                        }
                    }
                    _ => bucket.extend_from_slice(inserts),
                }
                if bucket.is_empty() {
                    slot.remove();
                }
            }
        }
        inserts.iter().copied().for_each(visit);
    }

    /// The sorted contents of the bucket under one band key (`None` when
    /// empty).
    pub fn probe_key(&self, key: BandKey) -> Option<&[T]> {
        self.buckets.get(&key).map(Vec::as_slice)
    }

    /// All buckets as `(key, sorted items)`, ordered by key — the bucket
    /// directory order the snapshot writer stores them in.
    pub fn export_buckets(&self) -> Vec<(BandKey, Vec<T>)> {
        let mut out: Vec<(BandKey, Vec<T>)> =
            self.buckets.iter().map(|(&k, v)| (k, v.clone())).collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Total entries across all buckets (an item counts once per band it
    /// occupies).
    pub fn num_entries(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
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
            for (bucket, key) in buckets.iter_mut().zip(chunk) {
                *bucket = self.buckets.get(key).map_or(&[], Vec::as_slice);
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
        self.buckets.values().map(|v| v.len()).collect()
    }

    /// Number of non-empty buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Size of the fullest bucket (0 for an empty index). Over-populated
    /// buckets are where the `bucket_cap` truncation bites.
    pub fn max_bucket_size(&self) -> usize {
        self.buckets.values().map(|v| v.len()).max().unwrap_or(0)
    }
}

use std::collections::BTreeMap;

use f3m_prng::SmallRng;

use super::BucketDirectory;

/// The pool's invariants, read off its fields: every live bucket's room
/// lies inside the pool and overlaps no other, the dead cells are the
/// rest, the counters add up, and the table finds every record.
fn assert_pool_invariants(pool: &super::LshIndex<u32>, case: &str) {
    let live: Vec<_> = pool.buckets.iter().filter(|b| b.len > 0).collect();
    let mut rooms: Vec<(usize, usize)> =
        live.iter().map(|b| (b.start as usize, (b.start + b.room) as usize)).collect();
    rooms.sort_unstable();
    assert!(rooms.windows(2).all(|w| w[0].1 <= w[1].0), "{case}: rooms overlap");
    assert!(rooms.last().is_none_or(|r| r.1 <= pool.pool.len()), "{case}: room past the pool");
    let owned: usize = rooms.iter().map(|r| r.1 - r.0).sum();
    assert_eq!(pool.pool.len(), owned + pool.dead, "{case}: dead cells");
    assert!(live.iter().all(|b| b.len <= b.room), "{case}: a bucket outgrew its room");
    assert!(pool.buckets.iter().all(|b| b.len > 0 || b.room == 0), "{case}: empty room kept");
    assert_eq!(pool.live, live.iter().map(|b| b.len as usize).sum::<usize>(), "{case}");
    assert_eq!(pool.nonempty, live.len(), "{case}");
    assert!(pool.buckets.len() * 4 <= pool.table.len() * 3, "{case}: table too full");
    for (i, b) in pool.buckets.iter().enumerate() {
        assert_eq!(pool.find(b.key), Some(i), "{case}: record {i} lost from the table");
    }
}

/// Every observable of the pool against the reference: the exports,
/// the counts, each resident row's probe (order, hits and stats) and each
/// of its buckets.
fn assert_same(
    pool: &super::LshIndex<u32>,
    map: &LshIndex<u32>,
    resident: &BTreeMap<u32, Vec<BandKey>>,
    case: &str,
) {
    assert_pool_invariants(pool, case);
    let exported = map.export_buckets();
    assert_eq!(pool.export_buckets(), exported, "{case}");
    assert_eq!(pool.export_directory(), directory(&exported), "{case}");
    assert_eq!(pool.num_entries(), map.num_entries(), "{case}");
    assert_eq!(pool.num_buckets(), map.num_buckets(), "{case}");
    assert_eq!(pool.max_bucket_size(), map.max_bucket_size(), "{case}");
    let sorted = |mut sizes: Vec<usize>| {
        sizes.sort_unstable();
        sizes
    };
    assert_eq!(sorted(pool.bucket_sizes()), sorted(map.bucket_sizes()), "{case}");
    let (mut got, mut want) = (QueryScratch::new(), QueryScratch::new());
    for (&id, keys) in resident {
        let stats = pool.probe_keys_into(keys, id, &mut got);
        assert_eq!(stats, map.probe_keys_into(keys, id, &mut want), "row {id} of {case}");
        assert_eq!(got.out, want.out, "row {id} of {case}");
        for &c in &got.out {
            assert_eq!(got.hits(c), want.hits(c), "row {id} of {case}");
        }
        for &key in keys {
            assert_eq!(pool.probe_key(key), map.probe_key(key), "row {id} of {case}");
        }
    }
}

/// The reference's export as a flat directory.
fn directory(buckets: &[(BandKey, Vec<u32>)]) -> BucketDirectory<u32> {
    let mut dir = BucketDirectory::default();
    for (key, members) in buckets {
        dir.keys.push(*key);
        dir.starts.push(dir.members.len() as u32);
        dir.members.extend_from_slice(members);
    }
    dir
}

/// The flat pool is the map of `Vec`s under every write it takes. Random
/// sequences at caps 1, 3, 100 and unbounded mix module ingests and
/// evictions and mixed batches (`apply_delta`, dirty sets compared),
/// one-row moves (`apply_row_delta`, every `BucketDelta` compared),
/// one-row inserts and removals, restores (`from_directory`, folded rows
/// included) and compactions forced between steps. After every step every observable
/// must agree ([`assert_same`]) and the pool's invariants hold. Keys come
/// from alphabets of 2 to 12 letters, so buckets outgrow cap 100, and
/// one row in six has all its bands on one key.
///
/// Mutation check (scratch copy): growing a full bucket in place instead
/// of moving it, a compaction that skips a bucket, or a relocation that
/// leaves the record's old start each fail this test.
#[test]
fn pool_matches_the_map_of_vecs() {
    const BANDS: usize = 4;
    let seeds = if cfg!(debug_assertions) { 4 } else { 48 };
    // Step kinds met, rows whose bands fold to one key, probes cut at
    // cap 100.
    let (mut met, mut folded, mut cut_at_100) = ([0usize; 8], 0, 0);
    for seed in 0..seeds {
        for bucket_cap in [1, 3, 100, usize::MAX] {
            let mut rng = SmallRng::seed_from_u64(seed * 1000 + bucket_cap.min(999) as u64);
            let p = LshParams { rows: 2, bands: BANDS, bucket_cap };
            let alphabet: Vec<BandKey> = (0..2 + seed % 11).map(|_| rng.next_u32()).collect();
            let mut row_keys = |rng: &mut SmallRng| -> Vec<BandKey> {
                let one = alphabet[rng.gen_range(0..alphabet.len())];
                if rng.gen_bool(1.0 / 6.0) {
                    folded += 1;
                    return vec![one; BANDS];
                }
                (0..BANDS).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect()
            };
            let (mut pool, mut map) = (super::LshIndex::new(p), LshIndex::new(p));
            let mut resident: BTreeMap<u32, Vec<BandKey>> = BTreeMap::new();
            for step in 0..60 {
                let kind = rng.gen_range(0..8usize);
                met[kind] += 1;
                let case = format!("seed {seed} cap {bucket_cap} step {step} kind {kind}");
                match kind {
                    // A module ingest: fresh ids, some below resident ones.
                    0 | 1 => {
                        let mut inserts = Vec::new();
                        for _ in 0..rng.gen_range(1..=40) {
                            let id = rng.gen_range(0..240u32);
                            if let std::collections::btree_map::Entry::Vacant(slot) =
                                resident.entry(id)
                            {
                                let keys = row_keys(&mut rng);
                                inserts.push((id, keys.clone()));
                                slot.insert(keys);
                            }
                        }
                        assert_eq!(
                            pool.apply_delta(&[], &inserts),
                            map.apply_delta(&[], &inserts),
                            "{case}"
                        );
                    }
                    // A module eviction, or a batch of moves.
                    2 | 3 => {
                        let (mut removes, mut inserts) = (Vec::new(), Vec::new());
                        let ids: Vec<u32> = resident.keys().copied().collect();
                        for _ in 0..rng.gen_range(0..=ids.len().min(30)) {
                            let id = ids[rng.gen_range(0..ids.len())];
                            let Some(old) = resident.remove(&id) else { continue };
                            if kind == 3 {
                                let new = row_keys(&mut rng);
                                resident.insert(id, new.clone());
                                inserts.push((id, new));
                            }
                            removes.push((id, old));
                        }
                        assert_eq!(
                            pool.apply_delta(&removes, &inserts),
                            map.apply_delta(&removes, &inserts),
                            "{case}"
                        );
                    }
                    // One-row moves, every visit compared.
                    4 => {
                        let ids: Vec<u32> = resident.keys().copied().collect();
                        for _ in 0..rng.gen_range(0..=ids.len().min(8)) {
                            let id = ids[rng.gen_range(0..ids.len())];
                            let old = resident[&id].clone();
                            let mut new = row_keys(&mut rng);
                            for (key, &was) in new.iter_mut().zip(&old) {
                                *key = if rng.gen_bool(0.4) { was } else { *key };
                            }
                            let (mut got, mut want) = (Vec::new(), Vec::new());
                            pool.apply_row_delta(id, &old, &new, |b| {
                                got.push((b.members.to_vec(), b.visible, b.crossed));
                            });
                            map.apply_row_delta(id, &old, &new, |b| {
                                want.push((b.members.to_vec(), b.visible, b.crossed));
                            });
                            assert_eq!(got, want, "row {id} of {case}");
                            resident.insert(id, new);
                        }
                    }
                    // One-row inserts and removals, absent ids included.
                    5 => {
                        let id = rng.gen_range(0..240u32);
                        match resident.remove(&id) {
                            Some(keys) => {
                                pool.remove_with_keys(id, &keys);
                                map.remove_with_keys(id, &keys);
                            }
                            None if rng.gen_bool(0.3) => {
                                let keys = row_keys(&mut rng);
                                pool.remove_with_keys(id, &keys);
                                map.remove_with_keys(id, &keys);
                            }
                            None => {
                                let keys = row_keys(&mut rng);
                                pool.insert_with_keys(id, &keys);
                                map.insert_with_keys(id, &keys);
                                resident.insert(id, keys);
                            }
                        }
                    }
                    // A restore from the reference's export.
                    6 => {
                        pool = super::LshIndex::from_directory(p, directory(&map.export_buckets()));
                    }
                    // A compaction forced between writes.
                    _ => pool.compact(),
                }
                assert_same(&pool, &map, &resident, &case);
                if bucket_cap == 100 {
                    let mut scratch = QueryScratch::new();
                    cut_at_100 += resident
                        .iter()
                        .filter(|&(&id, keys)| {
                            pool.probe_keys_into(keys, id, &mut scratch).truncated > 0
                        })
                        .count();
                }
            }
        }
    }
    assert!(
        met.iter().all(|&n| n > 0) && folded > 0 && cut_at_100 > 0,
        "steps met {met:?}, folded rows {folded}, probes cut at 100 {cut_at_100}"
    );
}

/// The signature-level entry points agree too: rows inserted and removed
/// by signature, and candidates queried by signature.
#[test]
fn signature_entry_points_agree() {
    use crate::fnv::xor_constants;
    use crate::minhash::minhash_signature;
    let p = LshParams { rows: 2, bands: 16, bucket_cap: 3 };
    let sig = |i: u32| {
        minhash_signature(&xor_constants(32), &(i % 5..i % 5 + 24).collect::<Vec<u32>>())
    };
    let (mut pool, mut map) = (super::LshIndex::new(p), LshIndex::new(p));
    assert_eq!(pool.params(), map.params());
    for i in 0..30u32 {
        assert!(pool.band_keys(&sig(i)).eq(map.band_keys(&sig(i))));
        pool.insert(i, &sig(i));
        map.insert(i, &sig(i));
    }
    for i in (0..30u32).step_by(4) {
        pool.remove(i, &sig(i));
        map.remove(i, &sig(i));
    }
    for i in 0..30u32 {
        assert_eq!(pool.candidates(&sig(i), i), map.candidates(&sig(i), i), "row {i}");
        assert_eq!(pool.candidates_counted(&sig(i), i), map.candidates_counted(&sig(i), i));
    }
}
