//! Lazy, budgeted residency for snapshot SoA pools.
//!
//! [`ResidentStore`] is the read side of a
//! [`PackedFingerprintStore`](crate::store::PackedFingerprintStore)
//! served straight from a snapshot file instead of from anonymous
//! memory. The pools never get bulk-read at open: the store validates
//! the snapshot's meta prefix ([`open_snapshot_meta`]), attaches a
//! [`Pager`] over the file, and faults pool bytes in *per shard* the
//! first time a query touches a row in that shard. A restart costs
//! O(meta) + O(rows actually touched), not O(total pool bytes).
//!
//! ## Shards, faults, spills
//!
//! Rows are partitioned into fixed row-range shards of roughly
//! [`TARGET_SHARD_BYTES`] each — the residency granule. A `--resident-
//! budget` caps the sum of logical shard bytes kept hot; exceeding it
//! spills least-recently-used cold shards:
//!
//! - mmap pager: spill = `madvise(MADV_DONTNEED)` over the shard's
//!   whole-granule interior. On a read-only file-backed mapping that
//!   only drops clean pages from RSS; a later touch refaults from the
//!   file, so outstanding zero-copy slices remain valid.
//! - file pager: spill = dropping the shard's heap buffer (readers that
//!   are mid-row hold an `Arc` clone, so their view stays alive until
//!   they finish).
//!
//! The shard just touched is never the victim, so a budget smaller than
//! one shard degrades to "exactly one hot shard", never a livelock.
//!
//! ## Counter determinism
//!
//! `resident_bytes` / `shard_faults` / `shard_spills` count *manager
//! decisions* in logical pool bytes, not kernel page state — so for a
//! given access sequence they are byte-identical across pager backends
//! and across runs, which is what lets the regression gate band them.

use std::marker::PhantomData;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::lsh::BandKey;
use crate::pager::{new_pager, Pager, PagerKind};
use crate::snapshot::{le_u32s, le_u64s, open_snapshot_meta, SnapshotError, SnapshotMeta};

/// Aimed-for shard size in pool bytes. Small enough that a spill frees
/// memory in useful increments, large enough that the per-shard
/// bookkeeping and fault syscalls amortize.
pub const TARGET_SHARD_BYTES: usize = 256 << 10;

/// A snapshot of the residency counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidencyCounters {
    /// Logical pool bytes currently resident (sum over hot shards).
    pub resident_bytes: u64,
    /// Shards faulted in since open.
    pub shard_faults: u64,
    /// Shards spilled to enforce the budget since open.
    pub shard_spills: u64,
}

/// Heap copy of one shard's rows (file-pager path).
struct ShardBuf {
    sigs: Vec<u64>,
    keys: Vec<u32>,
}

enum ShardState {
    /// Not resident; first touch faults it in.
    Absent,
    /// Served zero-copy from the pager's mapping.
    Mapped,
    /// Served from a heap buffer (no mapping available).
    Buffered(Arc<ShardBuf>),
}

struct ResidencyState {
    shards: Vec<ShardState>,
    /// Tick of the last touch, per shard; 0 = never.
    last_used: Vec<u64>,
    tick: u64,
    counters: ResidencyCounters,
}

/// A packed fingerprint store whose pools live in a snapshot file and
/// become resident on demand, under an optional byte budget.
pub struct ResidentStore {
    k: usize,
    bands: usize,
    entries: usize,
    /// Absolute file offset of the signature pool.
    sig_off: usize,
    /// Absolute file offset of the band-key pool.
    key_off: usize,
    rows_per_shard: usize,
    /// 0 = unlimited.
    budget_bytes: u64,
    pager: Box<dyn Pager>,
    state: Mutex<ResidencyState>,
}

/// Zero-copy view of one row's signature and band keys — the one
/// borrowed row type, whether the row lives in a heap
/// [`PackedFingerprintStore`](crate::store::PackedFingerprintStore) or
/// in a [`ResidentStore`]. Holds the backing shard buffer alive on the
/// buffered path; on the mapped and heap paths the owning store outlives
/// `'a` by construction.
pub struct RowRef<'a> {
    sig_ptr: *const u64,
    key_ptr: *const u32,
    k: usize,
    bands: usize,
    /// The row's slot low bytes. Only heap rows have them: the sketch
    /// pool is derived, not part of the snapshot file a resident row is
    /// served from.
    sketch: Option<&'a [u8]>,
    _buf: Option<Arc<ShardBuf>>,
    _store: PhantomData<&'a ()>,
}

impl<'a> RowRef<'a> {
    /// A view of slices that already outlive `'a` (a heap store's row).
    pub(crate) fn borrowed(sig: &'a [u64], keys: &'a [BandKey], sketch: &'a [u8]) -> RowRef<'a> {
        RowRef {
            sig_ptr: sig.as_ptr(),
            key_ptr: keys.as_ptr(),
            k: sig.len(),
            bands: keys.len(),
            sketch: Some(sketch),
            _buf: None,
            _store: PhantomData,
        }
    }

    /// The low byte of each signature slot, for rows that carry a sketch.
    pub fn sketch(&self) -> Option<&'a [u8]> {
        self.sketch
    }

    /// The row's `k` signature slots.
    pub fn sig(&self) -> &[u64] {
        unsafe { std::slice::from_raw_parts(self.sig_ptr, self.k) }
    }
    /// The row's `bands` band keys.
    pub fn keys(&self) -> &[BandKey] {
        unsafe { std::slice::from_raw_parts(self.key_ptr, self.bands) }
    }
}

impl ResidentStore {
    /// Opens `path` for lazy serving: validates the meta prefix (header
    /// checksum, bucket directory, payload — but no pool bytes), checks
    /// the file length against the header's implied geometry, and
    /// attaches a pager. `budget_bytes == 0` means unlimited.
    pub fn open(
        path: &Path,
        kind: PagerKind,
        budget_bytes: u64,
    ) -> Result<(SnapshotMeta, ResidentStore), SnapshotError> {
        let meta = open_snapshot_meta(path)?;
        let pager = new_pager(kind, path)?;
        if pager.len() != meta.layout.file_len {
            // The file changed between the meta read and the map; the
            // save path is atomic-rename, so this means a torn writer.
            return Err(SnapshotError::Truncated);
        }
        let store = ResidentStore::from_meta(&meta, pager, budget_bytes);
        Ok((meta, store))
    }

    fn from_meta(meta: &SnapshotMeta, pager: Box<dyn Pager>, budget_bytes: u64) -> ResidentStore {
        let k = meta.header.k;
        let bands = meta.header.lsh.bands;
        let entries = meta.header.entries;
        let bytes_per_fn = 8 * k + 4 * bands;
        let rows_per_shard = (TARGET_SHARD_BYTES / bytes_per_fn).max(1);
        let num_shards = entries.div_ceil(rows_per_shard);
        ResidentStore {
            k,
            bands,
            entries,
            sig_off: meta.layout.pool_start,
            key_off: meta.layout.pool_start + meta.layout.sig_pool_bytes,
            rows_per_shard,
            budget_bytes,
            pager,
            state: Mutex::new(ResidencyState {
                shards: (0..num_shards).map(|_| ShardState::Absent).collect(),
                last_used: vec![0; num_shards],
                tick: 0,
                counters: ResidencyCounters::default(),
            }),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries
    }
    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }
    /// Signature slots per row.
    pub fn k(&self) -> usize {
        self.k
    }
    /// Band keys per row.
    pub fn bands(&self) -> usize {
        self.bands
    }
    /// Logical bytes per row.
    pub fn bytes_per_fn(&self) -> usize {
        8 * self.k + 4 * self.bands
    }
    /// Residency granule in rows.
    pub fn rows_per_shard(&self) -> usize {
        self.rows_per_shard
    }
    /// Number of residency shards.
    pub fn num_shards(&self) -> usize {
        self.state.lock().unwrap().shards.len()
    }
    /// The attached pager's backend name (`"mmap"` / `"file"`).
    pub fn pager_name(&self) -> &'static str {
        self.pager.backend_name()
    }
    /// The configured budget (0 = unlimited).
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }
    /// Current counter values.
    pub fn counters(&self) -> ResidencyCounters {
        self.state.lock().unwrap().counters
    }

    /// Row range `[start, end)` of `shard`.
    fn shard_rows(&self, shard: usize) -> (usize, usize) {
        let start = shard * self.rows_per_shard;
        (start, (start + self.rows_per_shard).min(self.entries))
    }

    /// Logical pool bytes of `shard`.
    fn shard_bytes(&self, shard: usize) -> u64 {
        let (start, end) = self.shard_rows(shard);
        ((end - start) * self.bytes_per_fn()) as u64
    }

    /// File ranges of `shard`'s slices of the two pools.
    fn shard_ranges(&self, shard: usize) -> ((usize, usize), (usize, usize)) {
        let (start, end) = self.shard_rows(shard);
        let n = end - start;
        (
            (self.sig_off + start * self.k * 8, n * self.k * 8),
            (self.key_off + start * self.bands * 4, n * self.bands * 4),
        )
    }

    fn fault(&self, st: &mut ResidencyState, shard: usize) {
        let ((sig_off, sig_len), (key_off, key_len)) = self.shard_ranges(shard);
        st.shards[shard] = if self.pager.mapped().is_some() {
            self.pager.advise_need(sig_off, sig_len);
            self.pager.advise_need(key_off, key_len);
            ShardState::Mapped
        } else {
            let mut raw = vec![0u8; sig_len];
            // The geometry was validated at open; a failed read here is
            // real I/O loss mid-serving, as unrecoverable as a SIGBUS
            // would be on the mapped path.
            self.pager.read_at(sig_off as u64, &mut raw).expect("snapshot sig pool read");
            let sigs = le_u64s(&raw);
            let mut raw = vec![0u8; key_len];
            self.pager.read_at(key_off as u64, &mut raw).expect("snapshot key pool read");
            let keys = le_u32s(&raw);
            ShardState::Buffered(Arc::new(ShardBuf { sigs, keys }))
        };
        st.counters.resident_bytes += self.shard_bytes(shard);
        st.counters.shard_faults += 1;
    }

    fn spill(&self, st: &mut ResidencyState, shard: usize) {
        match std::mem::replace(&mut st.shards[shard], ShardState::Absent) {
            ShardState::Absent => unreachable!("spilling an absent shard"),
            ShardState::Mapped => {
                let ((sig_off, sig_len), (key_off, key_len)) = self.shard_ranges(shard);
                self.pager.advise_dontneed(sig_off, sig_len);
                self.pager.advise_dontneed(key_off, key_len);
            }
            // Dropping the store's Arc frees the buffer once in-flight
            // RowRefs release their clones.
            ShardState::Buffered(_) => {}
        }
        st.counters.resident_bytes -= self.shard_bytes(shard);
        st.counters.shard_spills += 1;
    }

    /// Evicts LRU shards (never `protect`) until the budget holds.
    fn enforce_budget(&self, st: &mut ResidencyState, protect: usize) {
        if self.budget_bytes == 0 {
            return;
        }
        while st.counters.resident_bytes > self.budget_bytes {
            let victim = st
                .shards
                .iter()
                .enumerate()
                .filter(|(i, s)| *i != protect && !matches!(s, ShardState::Absent))
                .min_by_key(|(i, _)| st.last_used[*i])
                .map(|(i, _)| i);
            match victim {
                Some(v) => self.spill(st, v),
                None => break,
            }
        }
    }

    /// Access to row `i`'s signature and band keys, faulting its shard
    /// in (and spilling cold shards) as needed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn row(&self, i: usize) -> RowRef<'_> {
        assert!(i < self.entries, "row {i} out of range ({} entries)", self.entries);
        let shard = i / self.rows_per_shard;
        let mut st = self.state.lock().unwrap();
        st.tick += 1;
        st.last_used[shard] = st.tick;
        if matches!(st.shards[shard], ShardState::Absent) {
            self.fault(&mut st, shard);
            self.enforce_budget(&mut st, shard);
        }
        match &st.shards[shard] {
            ShardState::Mapped => {
                // Safety: the mapping spans the whole validated file and
                // lives as long as `self`; `pool_start` is 8-aligned in
                // the v2 format and the base is page-aligned, so the
                // u64 view is aligned.
                let base = self.pager.mapped().unwrap().as_ptr();
                let sig_ptr = unsafe { base.add(self.sig_off + i * self.k * 8) } as *const u64;
                debug_assert_eq!(sig_ptr as usize % 8, 0, "sig pool misaligned");
                let key_ptr = unsafe { base.add(self.key_off + i * self.bands * 4) } as *const u32;
                RowRef {
                    sig_ptr,
                    key_ptr,
                    k: self.k,
                    bands: self.bands,
                    sketch: None,
                    _buf: None,
                    _store: PhantomData,
                }
            }
            ShardState::Buffered(buf) => {
                let local = i - shard * self.rows_per_shard;
                let buf = Arc::clone(buf);
                let sig_ptr = buf.sigs[local * self.k..].as_ptr();
                let key_ptr = buf.keys[local * self.bands..].as_ptr();
                RowRef {
                    sig_ptr,
                    key_ptr,
                    k: self.k,
                    bands: self.bands,
                    sketch: None,
                    _buf: Some(buf),
                    _store: PhantomData,
                }
            }
            ShardState::Absent => unreachable!("shard faulted above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::lsh::{band_keys_for, LshParams};
    use crate::fnv::xor_constants;
    use crate::minhash::minhash_signature;
    use crate::snapshot::{save_snapshot, SnapshotHeader};
    use crate::store::PackedFingerprintStore;

    fn build_snapshot(n: u32, name: &str) -> (std::path::PathBuf, PackedFingerprintStore) {
        let p = LshParams { rows: 2, bands: 16, bucket_cap: 100 };
        let mut store = PackedFingerprintStore::with_capacity(32, p.bands, n as usize);
        for i in 0..n {
            let stream: Vec<u32> = (i % 7..i % 7 + 40).collect();
            let sig = minhash_signature(&xor_constants(32), &stream);
            let keys = band_keys_for(p, &sig);
            store.push_with_keys(&sig, &keys);
        }
        let header = SnapshotHeader {
            backend: BackendKind::MinHash,
            k: 32,
            lsh: p,
            threshold: 0.25,
            shards: 4,
            epoch: 3,
            entries: n as usize,
        };
        let dir = std::env::temp_dir().join("f3m-resident-test");
        let path = dir.join(name);
        save_snapshot(&path, &header, &store, &[], b"payload").expect("save");
        (path, store)
    }

    fn kinds() -> Vec<PagerKind> {
        vec![PagerKind::File, PagerKind::Auto]
    }

    #[test]
    fn every_row_matches_the_packed_store() {
        let (path, packed) = build_snapshot(500, "parity.f3msnap");
        for kind in kinds() {
            let (meta, store) = ResidentStore::open(&path, kind, 0).expect("open");
            assert_eq!(meta.header.entries, 500);
            assert_eq!(store.len(), packed.len());
            for i in 0..store.len() {
                let row = store.row(i);
                assert_eq!(row.sig(), packed.sig(i), "sig row {i} ({kind})");
                assert_eq!(row.keys(), packed.keys(i), "keys row {i} ({kind})");
            }
            let c = store.counters();
            assert_eq!(c.shard_spills, 0, "unlimited budget never spills");
            assert_eq!(c.shard_faults as usize, store.num_shards());
            assert_eq!(
                c.resident_bytes as usize,
                store.len() * store.bytes_per_fn(),
                "everything resident"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiny_budget_spills_but_stays_correct() {
        let (path, packed) = build_snapshot(5_000, "budget.f3msnap");
        for kind in kinds() {
            // Budget ≈ two shards: touching every row front-to-back and
            // then again must spill, and every read must still agree.
            let (_, store) = ResidentStore::open(&path, kind, 2 * TARGET_SHARD_BYTES as u64)
                .expect("open");
            assert!(store.num_shards() > 3, "workload must span several shards");
            for pass in 0..2 {
                for i in 0..store.len() {
                    let row = store.row(i);
                    assert_eq!(row.sig(), packed.sig(i), "pass {pass} row {i} ({kind})");
                    assert_eq!(row.keys(), packed.keys(i), "pass {pass} row {i} ({kind})");
                }
            }
            let c = store.counters();
            assert!(c.shard_spills > 0, "tiny budget must spill ({kind})");
            assert!(
                c.resident_bytes <= 2 * TARGET_SHARD_BYTES as u64,
                "budget enforced ({kind}): {} resident",
                c.resident_bytes
            );
            assert!(c.shard_faults > store.num_shards() as u64, "refaults happened");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counters_are_identical_across_pager_backends() {
        let (path, _) = build_snapshot(1_500, "counters.f3msnap");
        // A fixed, mildly adversarial access sequence.
        let seq: Vec<usize> = (0..3_000).map(|i| (i * 977) % 1_500).collect();
        let mut seen: Option<ResidencyCounters> = None;
        for kind in kinds() {
            let (_, store) =
                ResidentStore::open(&path, kind, TARGET_SHARD_BYTES as u64).expect("open");
            for &i in &seq {
                let _ = store.row(i);
            }
            let c = store.counters();
            match &seen {
                None => seen = Some(c),
                Some(prev) => assert_eq!(*prev, c, "counters diverge across pagers"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_smaller_than_one_shard_keeps_exactly_the_hot_shard() {
        let (path, packed) = build_snapshot(1_000, "onehot.f3msnap");
        let (_, store) = ResidentStore::open(&path, PagerKind::File, 1).expect("open");
        for i in [0usize, 999, 1, 998, 500] {
            let row = store.row(i);
            assert_eq!(row.sig(), packed.sig(i));
        }
        let c = store.counters();
        let hot = 500 / store.rows_per_shard();
        assert_eq!(c.resident_bytes, store.shard_bytes(hot), "exactly one shard stays hot");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_garbage() {
        let dir = std::env::temp_dir().join("f3m-resident-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.f3msnap");
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        assert!(ResidentStore::open(&path, PagerKind::Auto, 0).is_err());
        std::fs::remove_file(&path).ok();
    }
}
