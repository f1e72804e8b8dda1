//! # f3m-fingerprint — function fingerprints and LSH candidate search
//!
//! Implements both fingerprints compared by the paper:
//!
//! - [`opcode_freq::OpcodeFingerprint`] — the HyFM baseline: a vector of
//!   instruction opcode frequencies compared by Manhattan distance;
//! - [`minhash::minhash_signature`] — F3M's contribution: MinHash over
//!   shingles of [encoded instructions](encode), whose slot-equality ratio
//!   estimates the Jaccard index of the functions' instruction
//!   subsequences.
//!
//! [`lsh`] provides the banded approximate nearest-neighbour search with
//! the per-bucket comparison cap, as two structures with one probe rule:
//! [`lsh::FlatIndex`], which the offline pass builds once per sweep and
//! only shrinks, and [`lsh::LshIndex`], which the resident corpus writes in
//! place for its lifetime. [`adaptive`] implements
//! the paper's Equations 3 and 4 for scaling the similarity threshold and
//! band count with program size.

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod backend;
pub mod encode;
pub mod fnv;
pub mod lsh;
pub mod minhash;
pub mod opcode_freq;
pub mod pager;
pub mod par;
pub mod resident;
pub mod sharded;
pub mod snapshot;
pub mod store;

pub use adaptive::MergeParams;
pub use backend::{backend_for, signature_similarity, BackendKind, FingerprintBackend};
pub use lsh::{BandKey, FlatIndex, LshIndex, LshParams, QueryScratch};
pub use pager::PagerKind;
pub use resident::{ResidencyCounters, ResidentStore};
pub use minhash::minhash_signature;
pub use opcode_freq::OpcodeFingerprint;
pub use snapshot::{SnapshotError, SnapshotFile, SnapshotHeader, SnapshotLayout, SnapshotMeta};
pub use store::{PackedFingerprintStore, RowRef};
