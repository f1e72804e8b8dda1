//! Packed struct-of-arrays fingerprint storage: the one row store.
//!
//! Every holder of fingerprints — the offline pass's LSH search, the
//! resident corpus, the snapshot writer — keeps them here, as three
//! contiguous pools indexed by row id, instead of one `Vec<u64>`
//! signature plus one key list *per function* (two heap allocations and
//! two pointer chases per entry):
//!
//! ```text
//! sigs:   [ fn0 slot0..k | fn1 slot0..k | ... ]   n × k  u64 words
//! keys:   [ fn0 band0..b | fn1 band0..b | ... ]   n × b  u32 band keys
//! sketch: [ fn0 low0..k  | fn1 low0..k  | ... ]   n × k  bytes
//! ```
//!
//! Index build walks `keys` linearly; a probe reads one `k`-slot row and
//! one `b`-key row, both contiguous. The first two pools are also exactly
//! what the [snapshot](crate::snapshot) writes — serialization is two bulk
//! copies, and a bulk load hands the decoded store to the corpus as is.
//! The third is derived: the low byte of every signature slot, which
//! ranking compares first ([`equal_bytes`](crate::backend::equal_bytes))
//! to skip most full-signature compares. It is rebuilt from `sigs`
//! wherever rows enter the store and never serialized. Rows are
//! fixed-width, so a changed function overwrites its row in place
//! ([`PackedFingerprintStore::set_row`]). [`RowRef`] is the view of one
//! row, whether the store is a heap store or one shard of the file-backed
//! [`ResidentStore`](crate::resident::ResidentStore).

use std::sync::Arc;

use f3m_ir::function::Function;
use f3m_ir::ids::FuncId;
use f3m_ir::module::Module;
use f3m_ir::types::TypeStore;

use crate::backend::FingerprintBackend;
use crate::encode::encode_function;
use crate::lsh::{band_keys_for, BandKey, LshParams};

/// Contiguous signature, band-key and sketch pools, indexed by function
/// id.
///
/// Row ids are positional: id `i` is the `i`-th pushed function. Callers
/// that interleave ids with other tables (e.g. the corpus) own the id
/// mapping.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedFingerprintStore {
    k: usize,
    bands: usize,
    sigs: Vec<u64>,
    keys: Vec<BandKey>,
    sketch: Vec<u8>,
}

/// The sketch bytes of signature slots: each slot's low byte.
fn sketch_of(sig: &[u64]) -> impl Iterator<Item = u8> + '_ {
    sig.iter().map(|&slot| slot as u8)
}

impl PackedFingerprintStore {
    /// An empty store for signatures of width `k` banded into `bands`
    /// keys, with room for `capacity` functions.
    ///
    /// # Panics
    ///
    /// Panics if `k` or `bands` is zero.
    pub fn with_capacity(k: usize, bands: usize, capacity: usize) -> PackedFingerprintStore {
        assert!(k > 0 && bands > 0, "degenerate row widths");
        PackedFingerprintStore {
            k,
            bands,
            sigs: Vec::with_capacity(capacity * k),
            keys: Vec::with_capacity(capacity * bands),
            sketch: Vec::with_capacity(capacity * k),
        }
    }

    /// The fingerprint step shared by the pass and the corpus: encodes,
    /// fingerprints and band-hashes every function of `funcs`, writing
    /// each row straight into its place in the pools, so no row is held
    /// twice. With `jobs > 1` each worker fills one contiguous run of rows
    /// (`backend` is shared across workers); row `i` is `funcs[i]`'s, so
    /// the store is identical for any job count.
    pub fn of_functions(
        m: &Module,
        funcs: &[FuncId],
        backend: &dyn FingerprintBackend,
        params: LshParams,
        jobs: usize,
    ) -> PackedFingerprintStore {
        let (k, bands, n) = (backend.k(), params.bands, funcs.len());
        assert!(k > 0 && bands > 0, "degenerate row widths");
        let mut store = PackedFingerprintStore {
            k,
            bands,
            sigs: vec![0; n * k],
            keys: vec![0; n * bands],
            sketch: vec![0; n * k],
        };
        let fill = |first: usize, mut rows: RowsMut<'_>| {
            for (i, &fid) in funcs[first..first + rows.len()].iter().enumerate() {
                let (sig, keys) = Self::row_of(&m.types, m.function(fid), backend, params);
                rows.set(i, &sig, &keys);
            }
        };
        let workers = jobs.clamp(1, n.max(1));
        let mut rest = store.rows_mut();
        if workers == 1 {
            fill(0, rest);
            return store;
        }
        let chunk = n.div_ceil(workers);
        std::thread::scope(|s| {
            for first in (0..n).step_by(chunk) {
                let (rows, tail) = rest.split_at(chunk.min(n - first));
                rest = tail;
                let fill = &fill;
                s.spawn(move || fill(first, rows));
            }
        });
        store
    }

    /// One function's row — signature and band keys — computed as
    /// [`Self::of_functions`] computes each of its rows. The encoding reads
    /// structural type codes only, so `f` need not belong to a module yet.
    pub fn row_of(
        ts: &TypeStore,
        f: &Function,
        backend: &dyn FingerprintBackend,
        params: LshParams,
    ) -> (Vec<u64>, Vec<BandKey>) {
        let sig = backend.signature(&encode_function(ts, f));
        let keys = band_keys_for(params, &sig);
        (sig, keys)
    }

    /// Appends a pre-computed row (signature + band keys), as produced on
    /// a worker thread or decoded from a snapshot. Returns the row id.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn push_with_keys(&mut self, sig: &[u64], keys: &[BandKey]) -> usize {
        assert_eq!(sig.len(), self.k, "signature width mismatch");
        assert_eq!(keys.len(), self.bands, "band count mismatch");
        self.sigs.extend_from_slice(sig);
        self.keys.extend_from_slice(keys);
        self.sketch.extend(sketch_of(sig));
        self.len() - 1
    }

    /// Appends every row of `other`, in order; the first lands at the
    /// current [`Self::len`].
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn extend_from(&mut self, other: &PackedFingerprintStore) {
        assert_eq!((other.k, other.bands), (self.k, self.bands), "row width mismatch");
        self.sigs.extend_from_slice(&other.sigs);
        self.keys.extend_from_slice(&other.keys);
        self.sketch.extend_from_slice(&other.sketch);
    }

    /// Overwrites row `i` in place (rows are fixed-width).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or if `i` is out of range.
    pub fn set_row(&mut self, i: usize, sig: &[u64], keys: &[BandKey]) {
        self.rows_mut().set(i, sig, keys);
    }

    /// Every row, to write in place.
    fn rows_mut(&mut self) -> RowsMut<'_> {
        let (k, bands) = (self.k, self.bands);
        RowsMut { k, bands, sigs: &mut self.sigs, keys: &mut self.keys, sketch: &mut self.sketch }
    }

    /// Number of functions stored.
    pub fn len(&self) -> usize {
        self.keys.len() / self.bands
    }

    /// Whether the store holds no functions.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Signature width `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Band keys per function.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Function `i`'s signature slots.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sig(&self, i: usize) -> &[u64] {
        &self.sigs[i * self.k..(i + 1) * self.k]
    }

    /// Function `i`'s band keys.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn keys(&self, i: usize) -> &[BandKey] {
        &self.keys[i * self.bands..(i + 1) * self.bands]
    }

    /// The low byte of each of function `i`'s signature slots.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sketch(&self, i: usize) -> &[u8] {
        &self.sketch[i * self.k..(i + 1) * self.k]
    }

    /// Borrowed view of row `i`. Its accessors panic if `i` is out of
    /// range.
    pub fn row(&self, i: usize) -> RowRef<'_> {
        RowRef { rows: Rows::Borrowed(self), i }
    }

    /// The whole signature pool (snapshot serialization order).
    pub fn sig_pool(&self) -> &[u64] {
        &self.sigs
    }

    /// The whole band-key pool (snapshot serialization order).
    pub fn key_pool(&self) -> &[BandKey] {
        &self.keys
    }

    /// Reconstructs a store directly from its pools (the snapshot load
    /// path). Returns `None` if the pool lengths are inconsistent with
    /// the row widths.
    pub fn from_pools(
        k: usize,
        bands: usize,
        sigs: Vec<u64>,
        keys: Vec<BandKey>,
    ) -> Option<PackedFingerprintStore> {
        if k == 0 || bands == 0 || !sigs.len().is_multiple_of(k) || !keys.len().is_multiple_of(bands)
        {
            return None;
        }
        if sigs.len() / k != keys.len() / bands {
            return None;
        }
        let sketch = sketch_of(&sigs).collect();
        Some(PackedFingerprintStore { k, bands, sigs, keys, sketch })
    }

    /// Fixed per-function footprint of the packed layout in bytes:
    /// `9k + 4b`, independent of corpus size (no per-entry headers).
    pub fn bytes_per_fn(&self) -> usize {
        self.k * (std::mem::size_of::<u64>() + 1) + self.bands * std::mem::size_of::<BandKey>()
    }

    /// Total pool footprint in bytes.
    pub fn total_bytes(&self) -> usize {
        std::mem::size_of_val(self.sigs.as_slice())
            + std::mem::size_of_val(self.keys.as_slice())
            + self.sketch.len()
    }
}

/// A run of a store's rows, borrowed to write in place: each of the three
/// pools' cells of those rows.
struct RowsMut<'a> {
    k: usize,
    bands: usize,
    sigs: &'a mut [u64],
    keys: &'a mut [BandKey],
    sketch: &'a mut [u8],
}

impl<'a> RowsMut<'a> {
    fn len(&self) -> usize {
        self.keys.len() / self.bands
    }

    /// The first `rows` rows and the rest.
    fn split_at(self, rows: usize) -> (RowsMut<'a>, RowsMut<'a>) {
        let RowsMut { k, bands, sigs, keys, sketch } = self;
        let (sigs, sigs_tail) = sigs.split_at_mut(rows * k);
        let (keys, keys_tail) = keys.split_at_mut(rows * bands);
        let (sketch, sketch_tail) = sketch.split_at_mut(rows * k);
        (
            RowsMut { k, bands, sigs, keys, sketch },
            RowsMut { k, bands, sigs: sigs_tail, keys: keys_tail, sketch: sketch_tail },
        )
    }

    /// Writes row `i` of the run.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or if `i` is out of range.
    fn set(&mut self, i: usize, sig: &[u64], keys: &[BandKey]) {
        let (k, bands) = (self.k, self.bands);
        self.sigs[i * k..(i + 1) * k].copy_from_slice(sig);
        self.keys[i * bands..(i + 1) * bands].copy_from_slice(keys);
        for (byte, low) in self.sketch[i * k..(i + 1) * k].iter_mut().zip(sketch_of(sig)) {
            *byte = low;
        }
    }
}

/// One row of a [`PackedFingerprintStore`]: its signature slots, band
/// keys and sketch. A heap store's row borrows the store; a resident
/// shard's row shares the shard, so a spill cannot free it mid-read.
pub struct RowRef<'a> {
    rows: Rows<'a>,
    i: usize,
}

enum Rows<'a> {
    Borrowed(&'a PackedFingerprintStore),
    Shared(Arc<PackedFingerprintStore>),
}

impl RowRef<'_> {
    /// Row `i` of a shared store. Its accessors panic if `i` is out of
    /// range.
    pub(crate) fn shared(rows: Arc<PackedFingerprintStore>, i: usize) -> RowRef<'static> {
        RowRef { rows: Rows::Shared(rows), i }
    }

    fn store(&self) -> &PackedFingerprintStore {
        match &self.rows {
            Rows::Borrowed(store) => store,
            Rows::Shared(store) => store,
        }
    }

    /// The row's `k` signature slots.
    pub fn sig(&self) -> &[u64] {
        self.store().sig(self.i)
    }

    /// The row's `bands` band keys.
    pub fn keys(&self) -> &[BandKey] {
        self.store().keys(self.i)
    }

    /// The low byte of each of the row's signature slots.
    pub fn sketch(&self) -> &[u8] {
        self.store().sketch(self.i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv::xor_constants;
    use crate::minhash::minhash_signature;

    fn params() -> LshParams {
        LshParams { rows: 2, bands: 16, bucket_cap: 100 }
    }

    fn sig(seed: u32) -> Vec<u64> {
        let stream: Vec<u32> = (seed..seed + 30).collect();
        minhash_signature(&xor_constants(32), &stream)
    }

    #[test]
    fn rows_round_trip_per_function_data() {
        let p = params();
        let mut store = PackedFingerprintStore::with_capacity(32, p.bands, 8);
        let sigs: Vec<Vec<u64>> = (0..8).map(sig).collect();
        for (i, s) in sigs.iter().enumerate() {
            assert_eq!(store.push_with_keys(s, &band_keys_for(p, s)), i);
        }
        assert_eq!(store.len(), 8);
        for (i, s) in sigs.iter().enumerate() {
            assert_eq!(store.sig(i), s.as_slice(), "signature row {i}");
            assert_eq!(store.keys(i), band_keys_for(p, s).as_slice(), "key row {i}");
        }
    }

    /// Rows written in place, by any number of workers, make the store
    /// that pushing each function's [`PackedFingerprintStore::row_of`]
    /// makes, for every backend.
    #[test]
    fn rows_written_in_place_match_rows_pushed() {
        let p = params();
        for spec in f3m_workloads::mini_suite() {
            let m = f3m_workloads::build_module(&spec);
            let funcs = m.defined_functions();
            for kind in crate::backend::BackendKind::ALL {
                let backend = crate::backend::backend_for(kind, 32);
                let mut pushed = PackedFingerprintStore::with_capacity(32, p.bands, funcs.len());
                for &f in &funcs {
                    let (sig, keys) =
                        PackedFingerprintStore::row_of(&m.types, m.function(f), &*backend, p);
                    pushed.push_with_keys(&sig, &keys);
                }
                for jobs in [1, 2, 8] {
                    let store = PackedFingerprintStore::of_functions(&m, &funcs, &*backend, p, jobs);
                    assert!(store == pushed, "{} {} jobs={jobs}", spec.name, kind.name());
                }
            }
        }
    }

    #[test]
    fn pool_reconstruction_is_lossless() {
        let p = params();
        let mut store = PackedFingerprintStore::with_capacity(32, p.bands, 4);
        for i in 0..4 {
            store.push_with_keys(&sig(i), &band_keys_for(p, &sig(i)));
        }
        let rebuilt = PackedFingerprintStore::from_pools(
            store.k(),
            store.bands(),
            store.sig_pool().to_vec(),
            store.key_pool().to_vec(),
        )
        .expect("consistent pools");
        assert_eq!(rebuilt, store);
    }

    #[test]
    fn from_pools_rejects_inconsistent_lengths() {
        assert!(PackedFingerprintStore::from_pools(4, 2, vec![0; 7], vec![0; 4]).is_none());
        assert!(PackedFingerprintStore::from_pools(4, 2, vec![0; 8], vec![0; 3]).is_none());
        // Row counts must agree between the two pools.
        assert!(PackedFingerprintStore::from_pools(4, 2, vec![0; 8], vec![0; 6]).is_none());
        assert!(PackedFingerprintStore::from_pools(0, 2, vec![], vec![]).is_none());
    }

    #[test]
    fn footprint_is_exact_and_size_independent() {
        let p = params();
        let mut store = PackedFingerprintStore::with_capacity(32, p.bands, 2);
        assert_eq!(store.bytes_per_fn(), 32 * 9 + 16 * 4);
        store.push_with_keys(&sig(0), &band_keys_for(p, &sig(0)));
        let one = store.total_bytes();
        store.push_with_keys(&sig(1), &band_keys_for(p, &sig(1)));
        assert_eq!(store.total_bytes(), 2 * one, "no per-entry overhead");
        assert_eq!(one, store.bytes_per_fn());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_signature_width_panics() {
        let p = params();
        let mut store = PackedFingerprintStore::with_capacity(16, p.bands, 1);
        store.push_with_keys(&sig(0), &[0; 16]); // sig has 32 slots
    }
}
