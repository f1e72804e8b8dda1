//! Corpus snapshot round-trip and rejection behavior.
//!
//! A daemon that restarts from a snapshot must be indistinguishable from
//! one that never stopped: identical query answers at the same epoch,
//! and a save of the restored corpus reproduces the file bit-for-bit
//! (save/load is a fixpoint). Snapshots that cannot be restored — written
//! under different search parameters, truncated or corrupted — are
//! rejected with typed errors, and the caller starts empty.

use std::io::Read;
use std::mem::discriminant;
use std::path::PathBuf;

use f3m_core::corpus::{Corpus, CorpusConfig};
use f3m_fingerprint::snapshot::{decode_snapshot, open_snapshot_meta, read_snapshot};
use f3m_fingerprint::{BackendKind, MergeParams, SnapshotError, SnapshotFile};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("f3m_corpus_snap_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("corpus.f3msnap")
}

fn populated_corpus(cfg: CorpusConfig, modules: usize) -> Corpus {
    let corpus = Corpus::new(cfg);
    for i in 0..modules {
        let mut spec = f3m_workloads::mini_suite()[0].clone();
        spec.functions = 40;
        spec.seed = 900 + i as u64;
        let mut m = f3m_workloads::build_module(&spec);
        m.name = format!("snap_m{i}");
        corpus.ingest(m).expect("ingest");
    }
    corpus
}

fn query_dump(c: &Corpus, modules: usize) -> Vec<(u64, String)> {
    (0..modules)
        .map(|i| {
            let (epoch, rs) = c.query_module(&format!("snap_m{i}"), 4).expect("query");
            (epoch, format!("{rs:?}"))
        })
        .collect()
}

#[test]
fn snapshot_roundtrip_preserves_queries_and_is_a_fixpoint() {
    let cfg = || CorpusConfig { jobs: 1, ..CorpusConfig::default() };
    let corpus = populated_corpus(cfg(), 3);
    let path = tmp("roundtrip");
    corpus.save_snapshot(&path).expect("save");

    let restored = Corpus::load_snapshot(&path, cfg()).expect("load");
    assert_eq!(restored.epoch(), corpus.epoch(), "epoch resumes");
    assert_eq!(query_dump(&restored, 3), query_dump(&corpus, 3));

    // Sources survive verbatim, so the daemon's module_source endpoint
    // answers identically without ever parsing.
    for i in 0..3 {
        let name = format!("snap_m{i}");
        assert_eq!(
            restored.module_source(&name).unwrap(),
            corpus.module_source(&name).unwrap()
        );
    }

    // Save-of-load is bit-identical: the snapshot is a fixpoint, so
    // periodic re-saves of an idle daemon never churn the file.
    let path2 = tmp("roundtrip2");
    restored.save_snapshot(&path2).expect("re-save");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&path2).unwrap(),
        "save(load(s)) == s"
    );
    for p in [&path, &path2] {
        let _ = std::fs::remove_dir_all(p.parent().unwrap());
    }
}

/// A restored corpus is not read-only: ingest/evict/query keep working,
/// with epochs continuing from the snapshot's.
#[test]
fn restored_corpus_accepts_mutations() {
    let cfg = || CorpusConfig { jobs: 1, ..CorpusConfig::default() };
    let corpus = populated_corpus(cfg(), 2);
    let path = tmp("mutate");
    corpus.save_snapshot(&path).expect("save");
    let restored = Corpus::load_snapshot(&path, cfg()).expect("load");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());

    let epoch0 = restored.epoch();
    let mut spec = f3m_workloads::mini_suite()[0].clone();
    spec.functions = 24;
    spec.seed = 777;
    let mut m = f3m_workloads::build_module(&spec);
    m.name = "snap_new".into();
    let s = restored.ingest(m).expect("ingest into restored corpus");
    assert_eq!(s.epoch, epoch0 + 1);
    restored.query_module("snap_new", 3).expect("query new module");
    restored.evict("snap_m0").expect("evict restored module");
    assert_eq!(restored.epoch(), epoch0 + 2);
}

#[test]
fn mismatched_parameters_are_rejected() {
    let cfg = CorpusConfig { jobs: 1, ..CorpusConfig::default() };
    let corpus = populated_corpus(cfg, 1);
    let path = tmp("mismatch");
    corpus.save_snapshot(&path).expect("save");

    let wrong_backend = CorpusConfig {
        jobs: 1,
        params: MergeParams::static_default().with_backend(BackendKind::SimHash),
    };
    match Corpus::load_snapshot(&path, wrong_backend) {
        Err(SnapshotError::Mismatch(msg)) => {
            assert!(msg.contains("minhash") && msg.contains("simhash"), "names both: {msg}")
        }
        Err(other) => panic!("expected Mismatch, got {other:?}"),
        Ok(_) => panic!("mismatched parameters must not load"),
    }

    let wrong_k = CorpusConfig {
        jobs: 1,
        params: MergeParams::custom(64, 2, 0.0, 100),
    };
    assert!(matches!(
        Corpus::load_snapshot(&path, wrong_k).err(),
        Some(SnapshotError::Mismatch(_))
    ));
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// The truncation depths [`truncated_and_corrupted_files_are_rejected`]
/// cuts a snapshot of `len` bytes at.
fn cut_depths(len: usize) -> [usize; 3] {
    [4, len / 2, len - 1]
}

/// One byte in each region of a snapshot whose rows have `k` slots —
/// header, both sum fields, directory, payload, both pools — named, and
/// whether it lies in the meta region.
fn flip_sites(bytes: &[u8], k: usize) -> [(&'static str, usize, bool); 7] {
    let field = |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()) as usize;
    let (payload_len, dir_len, entries) = (field(57), field(65), field(49));
    let meta_end = 89 + dir_len + payload_len;
    let pool_start = meta_end.next_multiple_of(8);
    let key_pool = pool_start + entries * k * 8;
    assert!(key_pool < bytes.len(), "the fixture has a key pool");
    [
        ("header field k", 13, true),
        ("meta_sum", 73, true),
        ("pool_sum", 81, true),
        ("bucket directory", 89 + dir_len / 2, true),
        ("payload", 89 + dir_len + payload_len / 2, true),
        ("sig pool", (pool_start + key_pool) / 2, false),
        ("key pool", (key_pool + bytes.len()) / 2, false),
    ]
}

#[test]
fn truncated_and_corrupted_files_are_rejected() {
    let cfg = || CorpusConfig { jobs: 1, ..CorpusConfig::default() };
    let corpus = populated_corpus(cfg(), 1);
    let path = tmp("corrupt");
    corpus.save_snapshot(&path).expect("save");
    let bytes = std::fs::read(&path).unwrap();

    // Truncation at any of a few depths.
    for cut in cut_depths(bytes.len()) {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(
            matches!(
                Corpus::load_snapshot(&path, cfg()).err(),
                Some(
                    SnapshotError::Truncated
                        | SnapshotError::ChecksumMismatch
                        | SnapshotError::BadMagic
                )
            ),
            "cut at {cut} must be rejected"
        );
    }

    // One bit flipped in each region trips a checksum: the meta sum for
    // the header, both sum fields, the directory and the payload, the
    // pool sum for the pools. A meta-only open reads no pool byte, so it
    // refuses every meta flip and accepts the pool flips.
    for (region, pos, in_meta) in flip_sites(&bytes, cfg().params.k) {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0x40;
        std::fs::write(&path, &flipped).unwrap();
        let loaded = Corpus::load_snapshot(&path, cfg());
        assert!(
            matches!(loaded.err(), Some(SnapshotError::ChecksumMismatch)),
            "a flip in the {region} (byte {pos}) must be a checksum mismatch"
        );
        let meta = open_snapshot_meta(&path);
        if in_meta {
            assert!(
                matches!(meta, Err(SnapshotError::ChecksumMismatch)),
                "a meta-only open must refuse the {region} flip (byte {pos})"
            );
        } else {
            assert!(meta.is_ok(), "a meta-only open reads no {region} byte");
        }
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// A reader over bytes that hands them out 1 to 7 at a time and fails
/// every fifth call with `Interrupted`, as a slow pipe or a signal would.
struct Stutter<'a> {
    bytes: &'a [u8],
    calls: usize,
}

impl Read for Stutter<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls.is_multiple_of(5) {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        let n = (1 + self.calls % 7).min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

fn read_stuttering(bytes: &[u8]) -> Result<SnapshotFile, SnapshotError> {
    read_snapshot(Stutter { bytes, calls: 0 }, bytes.len() as u64)
}

/// The streaming reader does not depend on how its reads arrive: a
/// corpus snapshot read through short and interrupted reads decodes to
/// the same store, directory and payload as the whole bytes, and each
/// damaged copy of [`truncated_and_corrupted_files_are_rejected`] is
/// refused with the same error either way — the error that test expects.
#[test]
fn stuttering_reads_decode_like_whole_reads() {
    let cfg = || CorpusConfig { jobs: 1, ..CorpusConfig::default() };
    let path = tmp("stutter");
    populated_corpus(cfg(), 1).save_snapshot(&path).expect("save");
    let bytes = std::fs::read(&path).unwrap();

    let (got, want) = (read_stuttering(&bytes).expect("read"), decode_snapshot(&bytes).unwrap());
    assert_eq!(got.header, want.header);
    assert_eq!(got.store, want.store);
    assert_eq!(got.buckets, want.buckets);
    assert_eq!(got.payload, want.payload);
    assert!(!got.buckets.is_empty() && !got.store.is_empty(), "the fixture is populated");

    let same_error = |damaged: &[u8], what: &str| -> SnapshotError {
        let got = read_stuttering(damaged).err().unwrap_or_else(|| panic!("{what} was accepted"));
        let want = decode_snapshot(damaged).expect_err(what);
        assert_eq!(discriminant(&got), discriminant(&want), "{what}: {got} vs {want}");
        got
    };
    for cut in cut_depths(bytes.len()) {
        let err = same_error(&bytes[..cut], &format!("cut at {cut}"));
        assert!(
            matches!(
                err,
                SnapshotError::Truncated | SnapshotError::ChecksumMismatch | SnapshotError::BadMagic
            ),
            "cut at {cut}: {err}"
        );
    }
    for (region, pos, _) in flip_sites(&bytes, cfg().params.k) {
        let mut flipped = bytes.clone();
        flipped[pos] ^= 0x40;
        let err = same_error(&flipped, &format!("a flip in the {region} (byte {pos})"));
        assert!(matches!(err, SnapshotError::ChecksumMismatch), "{region}: {err}");
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
