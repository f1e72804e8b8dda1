//! Lazy, budgeted residency for snapshot SoA pools.
//!
//! [`ResidentStore`] serves the rows of a snapshot file without reading
//! its pools at open: it validates the snapshot's meta prefix
//! ([`open_snapshot_meta`]), opens a [`FilePager`] over the file, and
//! reads pool bytes in *per shard* the first time a query touches a row
//! in that shard. A restart costs O(meta) + O(rows actually touched),
//! not O(total pool bytes).
//!
//! ## Shards, faults, spills
//!
//! Rows are partitioned into fixed row-range shards of roughly
//! [`TARGET_SHARD_BYTES`] each — the residency granule. A fault reads the
//! shard's slice of each pool with one positioned read and decodes the
//! two into a [`PackedFingerprintStore`], which derives the sketch: a
//! resident row is a packed-store row like any heap row. A `--resident-
//! budget` caps the bytes kept hot; exceeding it spills the least
//! recently used shards by dropping the store's `Arc` to them. A reader
//! mid-row holds its own clone, so its view stays alive until it
//! finishes.
//!
//! The shard just touched is never the victim, so a budget smaller than
//! one shard degrades to "exactly one hot shard", never a livelock.
//!
//! ## What the budget counts
//!
//! Shard geometry, the budget and `resident_bytes` count *snapshot pool
//! bytes*, `8k + 4b` a row. A hot shard's heap footprint is `9k + 4b` a
//! row, because its store also holds the `k`-byte sketch.
//!
//! ## Counter determinism
//!
//! `resident_bytes` / `shard_faults` / `shard_spills` count *manager
//! decisions*, so for a given access sequence they are identical across
//! runs, which is what lets the regression gate band them.
//!
//! ## A file that changes under the store
//!
//! The file's length is checked against its header at open. Snapshot
//! saves replace the file by rename, so an open store keeps reading the
//! file it opened. A file truncated in place anyway makes the next fault
//! past its new end a panic in the faulting reader, not a signal that
//! kills the process.

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::pager::{FilePager, PagerKind};
use crate::snapshot::{le_u32s, le_u64s, open_snapshot_meta, SnapshotError, SnapshotMeta};
use crate::store::{PackedFingerprintStore, RowRef};

/// Aimed-for shard size in snapshot pool bytes. Small enough that a
/// spill frees memory in useful increments, large enough that the
/// per-shard bookkeeping and reads amortize.
pub const TARGET_SHARD_BYTES: usize = 256 << 10;

/// A snapshot of the residency counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResidencyCounters {
    /// Snapshot pool bytes currently resident (sum over hot shards).
    pub resident_bytes: u64,
    /// Shards faulted in since open.
    pub shard_faults: u64,
    /// Shards spilled to enforce the budget since open.
    pub shard_spills: u64,
}

struct ResidencyState {
    /// Each shard's rows while it is hot; `None` = not resident, the
    /// first touch faults it in.
    shards: Vec<Option<Arc<PackedFingerprintStore>>>,
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
    pager: FilePager,
    state: Mutex<ResidencyState>,
}

impl ResidentStore {
    /// Opens `path` for lazy serving: validates the meta prefix (header
    /// checksum, bucket directory, payload — but no pool bytes), checks
    /// the file length against the header's implied geometry, and opens
    /// a pager. `budget_bytes == 0` means unlimited. `PagerKind::Auto` is
    /// the only pager.
    pub fn open(
        path: &Path,
        _pager: PagerKind,
        budget_bytes: u64,
    ) -> Result<(SnapshotMeta, ResidentStore), SnapshotError> {
        let meta = open_snapshot_meta(path)?;
        let pager = FilePager::open(path)?;
        if pager.len() != meta.layout.file_len {
            // The file changed between the meta read and the open; the
            // save path is atomic-rename, so this means a torn writer.
            return Err(SnapshotError::Truncated);
        }
        let store = ResidentStore::from_meta(&meta, pager, budget_bytes);
        Ok((meta, store))
    }

    fn from_meta(meta: &SnapshotMeta, pager: FilePager, budget_bytes: u64) -> ResidentStore {
        let k = meta.header.k;
        let bands = meta.header.lsh.bands;
        let entries = meta.header.entries;
        let rows_per_shard = (TARGET_SHARD_BYTES / (8 * k + 4 * bands)).max(1);
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
                shards: vec![None; num_shards],
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
    /// Snapshot pool bytes per row.
    pub fn bytes_per_fn(&self) -> usize {
        8 * self.k + 4 * self.bands
    }
    /// Residency granule in rows.
    pub fn rows_per_shard(&self) -> usize {
        self.rows_per_shard
    }
    /// Number of residency shards.
    pub fn num_shards(&self) -> usize {
        self.entries.div_ceil(self.rows_per_shard)
    }
    /// The pager's name, for metrics and stats: positioned reads,
    /// `"file"`.
    pub fn pager_name(&self) -> &'static str {
        "file"
    }
    /// The configured budget (0 = unlimited).
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }
    /// Current counter values.
    pub fn counters(&self) -> ResidencyCounters {
        self.state().counters
    }

    /// The residency state. A fault that panicked (see the module docs)
    /// poisoned it, and every later access panics too.
    fn state(&self) -> MutexGuard<'_, ResidencyState> {
        self.state.lock().expect("no earlier shard fault panicked")
    }

    /// Row range `[start, end)` of `shard`.
    fn shard_rows(&self, shard: usize) -> (usize, usize) {
        let start = shard * self.rows_per_shard;
        (start, (start + self.rows_per_shard).min(self.entries))
    }

    /// Snapshot pool bytes of `shard`.
    fn shard_bytes(&self, shard: usize) -> u64 {
        let (start, end) = self.shard_rows(shard);
        ((end - start) * self.bytes_per_fn()) as u64
    }

    /// Reads `shard`'s slice of each pool and decodes the two into a
    /// packed store.
    ///
    /// # Panics
    ///
    /// Panics if a read fails. The geometry was validated at open, so a
    /// failure here is I/O lost mid-serving: the file truncated in place
    /// or its storage gone.
    fn fault(&self, shard: usize) -> Arc<PackedFingerprintStore> {
        let (start, end) = self.shard_rows(shard);
        let read = |off: usize, len: usize| {
            let mut raw = vec![0u8; len];
            if let Err(e) = self.pager.read_at(off as u64, &mut raw) {
                panic!("snapshot shard {shard}: pool read at byte {off} failed: {e}");
            }
            raw
        };
        let sigs = le_u64s(&read(self.sig_off + start * self.k * 8, (end - start) * self.k * 8));
        let keys =
            le_u32s(&read(self.key_off + start * self.bands * 4, (end - start) * self.bands * 4));
        let rows = PackedFingerprintStore::from_pools(self.k, self.bands, sigs, keys)
            .expect("a shard's pool slices hold whole rows");
        Arc::new(rows)
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
                .filter(|(i, s)| *i != protect && s.is_some())
                .min_by_key(|(i, _)| st.last_used[*i])
                .map(|(i, _)| i);
            let Some(victim) = victim else { break };
            st.shards[victim] = None;
            st.counters.resident_bytes -= self.shard_bytes(victim);
            st.counters.shard_spills += 1;
        }
    }

    /// Access to row `i`'s signature, band keys and sketch, faulting its
    /// shard in (and spilling cold shards) as needed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`, or if faulting the shard in fails (see
    /// the module docs).
    pub fn row(&self, i: usize) -> RowRef<'_> {
        assert!(i < self.entries, "row {i} out of range ({} entries)", self.entries);
        let shard = i / self.rows_per_shard;
        let mut st = self.state();
        st.tick += 1;
        st.last_used[shard] = st.tick;
        let rows = match &st.shards[shard] {
            Some(rows) => Arc::clone(rows),
            None => {
                let rows = self.fault(shard);
                st.shards[shard] = Some(Arc::clone(&rows));
                st.counters.resident_bytes += self.shard_bytes(shard);
                st.counters.shard_faults += 1;
                self.enforce_budget(&mut st, shard);
                rows
            }
        };
        RowRef::shared(rows, i - shard * self.rows_per_shard)
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
            epoch: 3,
            entries: n as usize,
        };
        let dir = std::env::temp_dir().join("f3m-resident-test");
        let path = dir.join(name);
        save_snapshot(&path, &header, &store, &[], b"payload").expect("save");
        (path, store)
    }

    fn open(path: &Path, budget: u64) -> ResidentStore {
        ResidentStore::open(path, PagerKind::Auto, budget).expect("open").1
    }

    #[test]
    fn every_row_matches_the_packed_store() {
        let (path, packed) = build_snapshot(500, "parity.f3msnap");
        let (meta, store) = ResidentStore::open(&path, PagerKind::Auto, 0).expect("open");
        assert_eq!(meta.header.entries, 500);
        assert_eq!(store.len(), packed.len());
        for i in 0..store.len() {
            let row = store.row(i);
            assert_eq!(row.sig(), packed.sig(i), "sig row {i}");
            assert_eq!(row.keys(), packed.keys(i), "keys row {i}");
            assert_eq!(row.sketch(), packed.sketch(i), "sketch row {i}");
        }
        let c = store.counters();
        assert_eq!(c.shard_spills, 0, "unlimited budget never spills");
        assert_eq!(c.shard_faults as usize, store.num_shards());
        assert_eq!(
            c.resident_bytes as usize,
            store.len() * store.bytes_per_fn(),
            "everything resident"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiny_budget_spills_but_stays_correct() {
        let (path, packed) = build_snapshot(5_000, "budget.f3msnap");
        // Budget ≈ two shards: touching every row front-to-back and then
        // again must spill, and every read must still agree.
        let store = open(&path, 2 * TARGET_SHARD_BYTES as u64);
        assert!(store.num_shards() > 3, "workload must span several shards");
        for pass in 0..2 {
            for i in 0..store.len() {
                let row = store.row(i);
                assert_eq!(row.sig(), packed.sig(i), "pass {pass} row {i}");
                assert_eq!(row.keys(), packed.keys(i), "pass {pass} row {i}");
            }
        }
        let c = store.counters();
        assert!(c.shard_spills > 0, "tiny budget must spill");
        assert!(
            c.resident_bytes <= 2 * TARGET_SHARD_BYTES as u64,
            "budget enforced: {} resident",
            c.resident_bytes
        );
        assert!(c.shard_faults > store.num_shards() as u64, "refaults happened");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn budget_smaller_than_one_shard_keeps_exactly_the_hot_shard() {
        let (path, packed) = build_snapshot(1_000, "onehot.f3msnap");
        let store = open(&path, 1);
        for i in [0usize, 999, 1, 998, 500] {
            let row = store.row(i);
            assert_eq!(row.sig(), packed.sig(i));
        }
        let c = store.counters();
        let hot = 500 / store.rows_per_shard();
        assert_eq!(c.resident_bytes, store.shard_bytes(hot), "exactly one shard stays hot");
        std::fs::remove_file(&path).ok();
    }

    /// A reader keeps its row after the shard it came from is spilled:
    /// the row shares the shard's store, the spill drops only the
    /// manager's reference.
    #[test]
    fn a_row_outlives_the_spill_of_its_shard() {
        let (path, packed) = build_snapshot(1_000, "outlives.f3msnap");
        let store = open(&path, 1);
        let held = store.row(0);
        let last = store.len() - 1;
        assert_ne!(last / store.rows_per_shard(), 0, "rows 0 and {last} share a shard");
        let _ = store.row(last);
        assert_eq!(store.counters().shard_spills, 1, "touching row {last} spills row 0's shard");
        assert_eq!(held.sig(), packed.sig(0));
        assert_eq!(held.sketch(), packed.sketch(0));
        std::fs::remove_file(&path).ok();
    }

    /// A file truncated in place under an open store: the next fault
    /// past the new end is a panic the caller can contain, not a signal
    /// that takes the process down. Rows already hot keep serving.
    #[test]
    fn a_fault_after_truncation_is_a_contained_panic() {
        let (path, packed) = build_snapshot(1_000, "truncated.f3msnap");
        let (meta, store) = ResidentStore::open(&path, PagerKind::Auto, 0).expect("open");
        assert!(store.num_shards() > 1, "workload must span several shards");
        let hot = store.row(0);
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(meta.layout.pool_start as u64).unwrap();
        let cold = store.len() - 1;
        let fault = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.row(cold).sig()[0]
        }));
        let message = *fault.expect_err("a fault past the end must panic").downcast::<String>().unwrap();
        assert!(message.contains("pool read at byte"), "{message}");
        assert_eq!(hot.sig(), packed.sig(0), "a row read before the truncation still serves");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_empty_snapshot_opens_with_no_shards() {
        let (path, _) = build_snapshot(0, "empty.f3msnap");
        let store = open(&path, 1);
        assert!(store.is_empty());
        assert_eq!(store.num_shards(), 0);
        assert_eq!(store.counters(), ResidencyCounters::default());
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
