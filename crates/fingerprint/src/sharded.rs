//! `ShardedLshIndex`: the name of an index type the daemon no longer has.
//!
//! The resident corpus owns one [`LshIndex`] and reads and writes it only
//! under its table guard, so the shard layer that once split the key space
//! over per-shard locks — a shard count that, by construction, changed no
//! answer — is gone. The benchmark ledger (`bench/`, its own workspace)
//! still times its `fingerprint.sharded.*` rows through this type, so it
//! survives as five one-line forwards to one [`LshIndex`], driven from one
//! thread: no lock, no delta logic of its own. It goes when those rows
//! do; `fingerprint.lsh.*` time the same index directly.

use std::cell::RefCell;

use crate::lsh::{BandKey, DenseId, LshIndex, LshParams, LshQueryStats, QueryScratch};

/// One [`LshIndex`] behind `&self` methods (see the module docs).
#[derive(Debug)]
pub struct ShardedLshIndex<T>(RefCell<LshIndex<T>>);

impl<T: DenseId> ShardedLshIndex<T> {
    /// An empty index. `num_shards` is checked and otherwise unused.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is zero or the params are degenerate.
    pub fn new(params: LshParams, num_shards: usize) -> ShardedLshIndex<T> {
        assert!(num_shards > 0, "need at least one shard");
        ShardedLshIndex(RefCell::new(LshIndex::new(params)))
    }

    /// [`LshIndex::insert_with_keys`].
    pub fn insert_with_keys(&self, id: T, keys: &[BandKey]) {
        self.0.borrow_mut().insert_with_keys(id, keys);
    }

    /// [`LshIndex::remove_with_keys`].
    pub fn remove_with_keys(&self, id: T, keys: &[BandKey]) {
        self.0.borrow_mut().remove_with_keys(id, keys);
    }

    /// [`LshIndex::apply_delta`].
    pub fn apply_delta(
        &self,
        removes: &[(T, Vec<BandKey>)],
        inserts: &[(T, Vec<BandKey>)],
    ) -> Vec<T> {
        self.0.borrow_mut().apply_delta(removes, inserts)
    }

    /// [`LshIndex::probe_keys_into`].
    pub fn probe_keys_into(
        &self,
        keys: &[BandKey],
        exclude: T,
        scratch: &mut QueryScratch<T>,
    ) -> LshQueryStats {
        self.0.borrow().probe_keys_into(keys, exclude, scratch)
    }
}
