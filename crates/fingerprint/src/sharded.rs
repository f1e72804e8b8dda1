//! A sharded wrapper around [`LshIndex`] for resident (daemon) use.
//!
//! The band-key space is split into `n` contiguous ranges, each owning a
//! private [`LshIndex`] behind its own `RwLock`, so the bare index is safe
//! to share between threads. A key `k` lives in shard `⌊k·n / 2³²⌋` — a
//! multiply-shift that partitions the 32-bit [`BandKey`] space into equal
//! contiguous ranges without division.
//!
//! **Shard-transparency invariant:** because each band key is owned by
//! exactly one shard, probing the owning shard per key reproduces the
//! bucket contents — and therefore the candidate list, the `bucket_cap`
//! truncation, and the examined/evicted counts — of a single unsharded
//! [`LshIndex`] holding the same entries. Tests pin this equivalence.
//!
//! The index stores only ids and keeps no version of its own. A caller
//! that needs a batch of writes to appear at once serializes the index
//! under a lock of its own: `f3m-core`'s corpus reads and writes it only
//! under its table guard, which also holds the corpus epoch.
//!
//! Writes come in two grains. A module-level delta
//! ([`ShardedLshIndex::apply_delta`]) is one batched pass: its
//! `(key, op, id)` triples are sorted once, each shard is write-locked
//! once, each distinct key costs one bucket lookup, and the ids met are
//! marked in a dense table — the cost is the rows that move plus the
//! members of the buckets they move through, with no bucket copied. A
//! one-row delta ([`ShardedLshIndex::apply_row_delta`]) hands each touched
//! bucket to a visitor instead, so its caller can judge neighbors one by
//! one.

use std::sync::RwLock;

use crate::lsh::{
    BandKey, BucketDelta, DenseId, LshIndex, LshParams, LshQueryStats, QueryScratch, RowOp,
};

/// Occupancy counters for one shard, surfaced through the daemon's
/// `stats` response and the server metrics registry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Non-empty buckets in this shard.
    pub num_buckets: usize,
    /// Size of the fullest bucket (0 when empty).
    pub max_bucket_size: usize,
    /// Total bucket entries (an item counts once per resident band).
    pub entries: usize,
}

/// A fixed-width set of [`LshIndex`] shards.
///
/// All mutating operations take `&self`; the per-shard locks keep them
/// safe to call from server worker threads. Callers that must not
/// interleave batches (e.g. two module ingests), or must not let a reader
/// see half of one, serialize *outside* this type — the index only
/// guarantees per-shard consistency.
#[derive(Debug)]
pub struct ShardedLshIndex<T> {
    params: LshParams,
    shards: Vec<RwLock<LshIndex<T>>>,
}

impl<T: DenseId> ShardedLshIndex<T> {
    /// Creates an empty index with `num_shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or the params are degenerate.
    pub fn new(params: LshParams, num_shards: usize) -> ShardedLshIndex<T> {
        assert!(num_shards > 0, "need at least one shard");
        let shards = (0..num_shards).map(|_| RwLock::new(LshIndex::new(params))).collect();
        ShardedLshIndex { params, shards }
    }

    /// The banding parameters shared by every shard.
    pub fn params(&self) -> LshParams {
        self.params
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning band key `key`: `⌊key·n / 2³²⌋`, i.e. contiguous
    /// equal-width key ranges.
    pub fn shard_of(&self, key: BandKey) -> usize {
        ((key as u64 * self.shards.len() as u64) >> 32) as usize
    }

    /// Inserts an item under pre-computed band keys (see
    /// [`crate::lsh::band_keys_for`]). Locks each touched shard once.
    pub fn insert_with_keys(&self, id: T, keys: &[BandKey]) {
        self.for_each_shard_batch(keys, |shard, batch| {
            let mut idx = shard.write().unwrap();
            idx.insert_with_keys(id, batch);
        });
    }

    /// Removes an item under pre-computed band keys. Cost is proportional
    /// to the item's band count — eviction never rebuilds anything.
    pub fn remove_with_keys(&self, id: T, keys: &[BandKey]) {
        self.for_each_shard_batch(keys, |shard, batch| {
            let mut idx = shard.write().unwrap();
            idx.remove_with_keys(id, batch);
        });
    }

    /// Groups `keys` by owning shard and invokes `f` once per touched
    /// shard with that shard's key batch, preserving relative key order.
    fn for_each_shard_batch(
        &self,
        keys: &[BandKey],
        mut f: impl FnMut(&RwLock<LshIndex<T>>, &[BandKey]),
    ) {
        let mut batches: Vec<Vec<BandKey>> = vec![Vec::new(); self.shards.len()];
        for &key in keys {
            batches[self.shard_of(key)].push(key);
        }
        for (s, batch) in batches.iter().enumerate() {
            if !batch.is_empty() {
                f(&self.shards[s], batch);
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
    /// sorted once, each shard is write-locked once, and each distinct key
    /// costs one bucket lookup ([`LshIndex::key_delta`]) that marks the
    /// members it meets in a dense table — no bucket is copied and nothing
    /// larger than the dirty set is sorted. The index ends up as
    /// [`Self::remove_with_keys`] per removal followed by
    /// [`Self::insert_with_keys`] per insertion would leave it.
    ///
    /// The caller is responsible for serializing batches against other
    /// writers and readers (as with [`Self::insert_with_keys`]).
    pub fn apply_delta(
        &self,
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
        // `shard_of` is monotone in the key, so a shard's keys are one run.
        let mut at = 0;
        let mut runs = ops.chunk_by(|a, b| a.0 == b.0).peekable();
        while let Some(run) = runs.peek() {
            let owner = self.shard_of(run[0].0);
            let mut shard = self.shards[owner].write().unwrap();
            while let Some(run) = runs.next_if(|run| self.shard_of(run[0].0) == owner) {
                let (removed, inserted) =
                    ids[at..at + run.len()].split_at(run.partition_point(|op| !op.1));
                shard.key_delta(run[0].0, removed, inserted, &mut mark);
                at += run.len();
            }
        }
        dirty.sort_unstable();
        dirty
    }

    /// The one-row form of [`Self::apply_delta`]: moves row `id` from its
    /// `old` band keys to its `new` ones, leaving the index as
    /// `apply_delta(&[(id, old)], &[(id, new)])` would, and instead of
    /// collecting the touched neighborhoods calls
    /// `visit` once per touched bucket with a [`BucketDelta`] — borrowed
    /// under the owning shard's lock, no bucket is copied. A band whose
    /// key did not change is visited once and left alone; a band whose
    /// key changed is visited as the bucket the row left, then as the
    /// bucket it joined.
    ///
    /// An item probes exactly the buckets it is a member of and sees
    /// their first `bucket_cap` ids, so the visits name everything the
    /// delta can change in anybody's candidate set: the row itself where
    /// it is visible, and per bucket the one id that crossed the cap.
    /// Callers serialize it as they serialize `apply_delta`.
    ///
    /// # Panics
    ///
    /// Panics if `old` and `new` differ in length.
    pub fn apply_row_delta(
        &self,
        id: T,
        old: &[BandKey],
        new: &[BandKey],
        mut visit: impl FnMut(BucketDelta<'_, T>),
    ) {
        assert_eq!(old.len(), new.len(), "old and new keys band for band");
        let mut step = |key: BandKey, op: RowOp| {
            let mut shard = self.shards[self.shard_of(key)].write().unwrap();
            visit(shard.row_delta(id, key, op));
        };
        for (&was, &key) in old.iter().zip(new) {
            if was == key {
                step(key, RowOp::Keep);
            } else {
                step(was, RowOp::Remove);
                step(key, RowOp::Insert);
            }
        }
    }

    /// Distinct candidates sharing at least one band with the querier,
    /// with the same bucket-cap truncation, self-exclusion, dedup and
    /// work counting as [`LshIndex::candidates_counted`] — probing each
    /// key's owning shard under a read lock.
    ///
    /// Keys are visited in band order, so the output order matches the
    /// unsharded implementation exactly.
    pub fn candidates_counted(&self, keys: &[BandKey], exclude: T) -> (Vec<T>, LshQueryStats) {
        let mut scratch = QueryScratch::new();
        let stats = self.probe_keys_into(keys, exclude, &mut scratch);
        (scratch.out, stats)
    }

    /// The allocation-free variant of [`Self::candidates_counted`]:
    /// candidates are left in `scratch.out`, and a warm scratch answers
    /// the query without allocating.
    pub fn probe_keys_into(
        &self,
        keys: &[BandKey],
        exclude: T,
        scratch: &mut QueryScratch<T>,
    ) -> LshQueryStats {
        scratch.reset();
        let mut stats = LshQueryStats::default();
        for &key in keys {
            let shard = self.shards[self.shard_of(key)].read().unwrap();
            if let Some(bucket) = shard.probe_key(key) {
                scratch.visit_bucket(bucket, self.params.bucket_cap, exclude, &mut stats);
            }
        }
        stats
    }

    /// All buckets of one shard as `(key, sorted members)`, ordered by
    /// key — the snapshot writer's per-shard serialization unit.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn export_shard(&self, shard: usize) -> Vec<(BandKey, Vec<T>)> {
        self.shards[shard].read().unwrap().export_buckets()
    }

    /// Installs one whole bucket as restored from a snapshot. The key is
    /// routed to its owning shard; `items` must be sorted and non-empty
    /// (validated by the snapshot loader).
    pub fn restore_bucket(&self, key: BandKey, items: Vec<T>) {
        self.shards[self.shard_of(key)].write().unwrap().restore_bucket(key, items);
    }

    /// Per-shard occupancy snapshot, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let idx = s.read().unwrap();
                ShardStats {
                    num_buckets: idx.num_buckets(),
                    max_bucket_size: idx.max_bucket_size(),
                    entries: idx.num_entries(),
                }
            })
            .collect()
    }

    /// Non-empty buckets across all shards.
    pub fn num_buckets(&self) -> usize {
        self.shard_stats().iter().map(|s| s.num_buckets).sum()
    }

    /// Fullest bucket across all shards.
    pub fn max_bucket_size(&self) -> usize {
        self.shard_stats().iter().map(|s| s.max_bucket_size).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsh::band_keys_for;
    use crate::fnv::xor_constants;
    use crate::minhash::minhash_signature;
    use std::sync::Arc;

    fn params() -> LshParams {
        LshParams { rows: 2, bands: 16, bucket_cap: 3 }
    }

    impl<T: DenseId> ShardedLshIndex<T> {
        /// Distinct items resident in the buckets under `keys`, ascending —
        /// the band-collision neighborhood of those keys, by copying and
        /// sorting every bucket: the definition `apply_delta` is tested
        /// against.
        fn members_of_keys(&self, keys: &[BandKey]) -> Vec<T> {
            let mut members: Vec<T> = Vec::new();
            self.for_each_shard_batch(keys, |shard, batch| {
                let idx = shard.read().unwrap();
                for &key in batch {
                    members.extend_from_slice(idx.probe_key(key).unwrap_or(&[]));
                }
            });
            members.sort_unstable();
            members.dedup();
            members
        }

        /// `apply_delta` by its definition: the neighborhood before, each
        /// removal then each insertion in order, the neighborhood after.
        fn apply_delta_sequentially(
            &self,
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

    fn fp(seed: u32) -> Vec<u64> {
        let stream: Vec<u32> = (0..24).map(|i| i + seed % 7).collect();
        minhash_signature(&xor_constants(32), &stream)
    }

    /// Inserting the same items into 1..=5 shards yields identical
    /// candidate lists and work counts as a plain `LshIndex`.
    #[test]
    fn sharded_query_matches_unsharded_index() {
        let p = params();
        let items: Vec<(u32, Vec<u64>)> = (0..12).map(|i| (i, fp(i))).collect();
        let mut flat = LshIndex::new(p);
        for (id, f) in &items {
            flat.insert(*id, f);
        }
        for n in 1..=5 {
            let sharded = ShardedLshIndex::new(p, n);
            for (id, f) in &items {
                sharded.insert_with_keys(*id, &band_keys_for(p, f));
            }
            let (mut across, mut within) = (QueryScratch::new(), QueryScratch::new());
            for (id, f) in &items {
                let keys = band_keys_for(p, f);
                assert_eq!(
                    sharded.probe_keys_into(&keys, *id, &mut across),
                    flat.probe_keys_into(&keys, *id, &mut within),
                    "shards={n} query={id}"
                );
                assert_eq!(across.out, within.out, "shards={n} query={id}");
                for (cand, _) in &items {
                    assert_eq!(across.hits(*cand), within.hits(*cand), "shards={n} query={id}");
                }
            }
            let stats = sharded.shard_stats();
            assert_eq!(stats.iter().map(|s| s.num_buckets).sum::<usize>(), flat.num_buckets());
            assert_eq!(
                stats.iter().map(|s| s.max_bucket_size).max().unwrap(),
                flat.max_bucket_size()
            );
        }
    }

    #[test]
    fn remove_with_keys_matches_unsharded_removal() {
        let p = params();
        let items: Vec<(u32, Vec<u64>)> = (0..10).map(|i| (i, fp(i))).collect();
        let mut flat = LshIndex::new(p);
        let sharded = ShardedLshIndex::new(p, 4);
        for (id, f) in &items {
            flat.insert(*id, f);
            sharded.insert_with_keys(*id, &band_keys_for(p, f));
        }
        for (id, f) in items.iter().filter(|(id, _)| id % 2 == 0) {
            flat.remove(*id, f);
            sharded.remove_with_keys(*id, &band_keys_for(p, f));
        }
        for (id, f) in &items {
            let keys = band_keys_for(p, f);
            assert_eq!(sharded.candidates_counted(&keys, *id), flat.candidates_counted(f, *id));
        }
        assert_eq!(sharded.num_buckets(), flat.num_buckets());
    }

    #[test]
    fn shard_of_partitions_key_space_contiguously() {
        let idx: ShardedLshIndex<u32> = ShardedLshIndex::new(params(), 4);
        assert_eq!(idx.shard_of(0), 0);
        assert_eq!(idx.shard_of(u32::MAX), 3);
        // Monotone: higher keys never map to lower shards.
        let mut last = 0;
        for k in (0..u32::MAX - 1).step_by(u32::MAX as usize / 64) {
            let s = idx.shard_of(k);
            assert!(s >= last);
            assert!(s < 4);
            last = s;
        }
    }

    /// `members_of_keys` returns exactly the items resident under the
    /// probed buckets, and `apply_delta` returns the union of old and new
    /// neighborhoods while leaving the index identical to direct
    /// removal + insertion.
    #[test]
    fn apply_delta_returns_collision_neighborhood() {
        let p = params();
        let items: Vec<(u32, Vec<u64>)> = (0..10).map(|i| (i, fp(i))).collect();
        let sharded = ShardedLshIndex::new(p, 3);
        for (id, f) in &items {
            sharded.insert_with_keys(*id, &band_keys_for(p, f));
        }
        // The neighborhood of an item's own keys contains at least itself.
        for (id, f) in &items {
            let members = sharded.members_of_keys(&band_keys_for(p, f));
            assert!(members.contains(id), "item {id} missing from its own neighborhood");
            assert!(members.windows(2).all(|w| w[0] < w[1]), "sorted and deduplicated");
        }

        // Move item 3 to a new fingerprint via a delta.
        let old_keys = band_keys_for(p, &items[3].1);
        let new_fp = fp(3 + 100);
        let new_keys = band_keys_for(p, &new_fp);
        let before_old = sharded.members_of_keys(&old_keys);
        let dirty = sharded.apply_delta(
            &[(3u32, old_keys.clone())],
            &[(3u32, new_keys.clone())],
        );
        // The dirty set covers the item itself plus both neighborhoods.
        assert!(dirty.contains(&3));
        for m in before_old {
            assert!(dirty.contains(&m), "old neighbor {m} missing from dirty set");
        }
        for m in sharded.members_of_keys(&new_keys) {
            assert!(dirty.contains(&m), "new neighbor {m} missing from dirty set");
        }

        // The index state matches a from-scratch build with the new keys.
        let mut flat = LshIndex::new(p);
        for (id, f) in &items {
            if *id == 3 {
                flat.insert(*id, &new_fp);
            } else {
                flat.insert(*id, f);
            }
        }
        for (id, f) in &items {
            let f = if *id == 3 { &new_fp } else { f };
            let keys = band_keys_for(p, f);
            assert_eq!(sharded.candidates_counted(&keys, *id), flat.candidates_counted(f, *id));
        }
    }

    /// Random batches against the sequential definition, on the returned
    /// set, on every bucket of every shard and on every resident row's
    /// probe. Keys come from a ten-letter alphabet, so buckets collide and
    /// a row's four bands repeat a key; ids come from a pool of 48, so a
    /// round inserts below resident ids (the non-append path) as well as
    /// above them. A round moves rows (removed under their keys, inserted
    /// under new ones sharing some), removes some whole and some from one
    /// band, inserts some, removes ids that are not there, and lists rows
    /// with no keys at all.
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
        for (seed, shards, bucket_cap) in (0..seeds)
            .flat_map(|seed| (1..=5).map(move |shards| (seed, shards)))
            .flat_map(|(seed, shards)| [1, 2, 3, 100].map(|cap| (seed, shards, cap)))
        {
            let mut rng =
                SmallRng::seed_from_u64((seed * 5 + shards as u64) * 100 + bucket_cap as u64);
            let p = LshParams { rows: 2, bands: BANDS, bucket_cap };
            let (batched, reference) =
                (ShardedLshIndex::new(p, shards), ShardedLshIndex::new(p, shards));
            let alphabet: Vec<BandKey> = (0..10).map(|_| rng.next_u32()).collect();
            let mut resident = BTreeMap::new();
            for round in 0..5 {
                let (removes, inserts) = batch(&mut rng, &alphabet, &mut resident);
                let case = || {
                    format!(
                        "seed {seed} shards {shards} cap {bucket_cap} round {round}: \
                         -{removes:?} +{inserts:?}"
                    )
                };
                assert_eq!(
                    batched.apply_delta(&removes, &inserts),
                    reference.apply_delta_sequentially(&removes, &inserts),
                    "{}",
                    case()
                );
                for shard in 0..shards {
                    assert_eq!(
                        batched.export_shard(shard),
                        reference.export_shard(shard),
                        "{}",
                        case()
                    );
                }
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
        let sharded: ShardedLshIndex<u32> = ShardedLshIndex::new(p, 2);
        // Disjoint shingle streams → disjoint buckets.
        let far_stream: Vec<u32> = (5000..5024).collect();
        let far = minhash_signature(&xor_constants(32), &far_stream);
        let near = fp(1);
        let near_twin = fp(1);
        sharded.insert_with_keys(1, &band_keys_for(p, &near));
        sharded.insert_with_keys(9, &band_keys_for(p, &far));
        let dirty =
            sharded.apply_delta(&[], &[(2u32, band_keys_for(p, &near_twin))]);
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
        use crate::lsh::Crossed;
        for bucket_cap in [1, 2, 3, 8, usize::MAX] {
            let p = LshParams { bucket_cap, ..params() };
            let window = |idx: &ShardedLshIndex<u32>, key: BandKey| -> Vec<u32> {
                let members = idx.members_of_keys(&[key]);
                members.into_iter().take(bucket_cap).collect()
            };
            let (mut entered, mut left) = (0, 0);
            // Every row in turn moves three families on.
            for id in 0..40u32 {
                let (by_row, by_batch) = (ShardedLshIndex::new(p, 3), ShardedLshIndex::new(p, 3));
                for i in 0..40u32 {
                    by_row.insert_with_keys(i, &band_keys_for(p, &fp(i)));
                    by_batch.insert_with_keys(i, &band_keys_for(p, &fp(i)));
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
                for shard in 0..3 {
                    assert_eq!(by_row.export_shard(shard), by_batch.export_shard(shard));
                }

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

    /// Export + restore over all shards reproduces the index exactly,
    /// even when shard counts differ between writer and reader.
    #[test]
    fn export_restore_roundtrip_across_shard_counts() {
        let p = params();
        let items: Vec<(u32, Vec<u64>)> = (0..12).map(|i| (i, fp(i))).collect();
        let source = ShardedLshIndex::new(p, 4);
        for (id, f) in &items {
            source.insert_with_keys(*id, &band_keys_for(p, f));
        }
        for n in 1..=5 {
            let restored: ShardedLshIndex<u32> = ShardedLshIndex::new(p, n);
            for s in 0..source.num_shards() {
                for (key, members) in source.export_shard(s) {
                    restored.restore_bucket(key, members);
                }
            }
            for (id, f) in &items {
                let keys = band_keys_for(p, f);
                assert_eq!(
                    restored.candidates_counted(&keys, *id),
                    source.candidates_counted(&keys, *id),
                    "restore shards={n} query={id}"
                );
            }
            assert_eq!(restored.num_buckets(), source.num_buckets());
        }
    }

    /// Concurrent ingest and query never panic, and every item inserted
    /// is findable after the writers join.
    #[test]
    fn concurrent_ingest_and_query_smoke() {
        let p = params();
        let idx: Arc<ShardedLshIndex<u32>> = Arc::new(ShardedLshIndex::new(p, 4));
        let writers: Vec<_> = (0..3u32)
            .map(|w| {
                let idx = Arc::clone(&idx);
                std::thread::spawn(move || {
                    for i in 0..20 {
                        let id = w * 100 + i;
                        idx.insert_with_keys(id, &band_keys_for(p, &fp(id)));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2u32)
            .map(|_| {
                let idx = Arc::clone(&idx);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let keys = band_keys_for(p, &fp(i));
                        let _ = idx.candidates_counted(&keys, u32::MAX);
                        let _ = idx.shard_stats();
                    }
                })
            })
            .collect();
        for t in writers.into_iter().chain(readers) {
            t.join().unwrap();
        }
        let (cands, _)= idx.candidates_counted(&band_keys_for(p, &fp(5)), u32::MAX);
        assert!(cands.contains(&5));
    }
}
