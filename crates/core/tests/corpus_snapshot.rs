//! Corpus snapshot round-trip and rejection behavior.
//!
//! A daemon that restarts from a snapshot must be indistinguishable from
//! one that never stopped: identical query answers at the same epoch,
//! and a save of the restored corpus reproduces the file bit-for-bit
//! (save/load is a fixpoint). Snapshots that cannot be trusted — written
//! under different search parameters, or stamped with an epoch older
//! than their own entries — are rejected with typed errors so the caller
//! can fall back to re-ingesting the embedded sources.

use std::path::PathBuf;

use f3m_core::corpus::{Corpus, CorpusConfig};
use f3m_fingerprint::{BackendKind, MergeParams, SnapshotError};

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

#[test]
fn stale_epoch_is_rejected_but_sources_remain_usable() {
    let cfg = || CorpusConfig { jobs: 1, ..CorpusConfig::default() };
    let corpus = populated_corpus(cfg(), 2);
    let path = tmp("stale");
    // Stamp the header one epoch behind the entries: the index cannot be
    // trusted to reflect the entry revisions.
    corpus.save_snapshot_stamped(&path, corpus.epoch() - 1).expect("save stamped");

    match Corpus::load_snapshot(&path, cfg()) {
        Err(SnapshotError::StaleEpoch { snapshot, newest_entry }) => {
            assert!(newest_entry > snapshot, "{newest_entry} > {snapshot}")
        }
        Err(other) => panic!("expected StaleEpoch, got {other:?}"),
        Ok(_) => panic!("stale snapshot must not load"),
    }

    // The fallback path: the embedded sources re-ingest into a corpus
    // that answers exactly like the original.
    let sources = Corpus::snapshot_sources(&path).expect("sources readable");
    assert_eq!(sources.len(), 2);
    let rebuilt = Corpus::new(cfg());
    for (_, src) in &sources {
        let m = f3m_ir::parser::parse_module(src).expect("source parses");
        rebuilt.ingest(m).expect("re-ingest");
    }
    let dump = |c: &Corpus| {
        let (_, rs) = c.query_module("snap_m0", 4).expect("query");
        format!("{rs:?}")
    };
    assert_eq!(dump(&rebuilt), dump(&corpus));
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn truncated_and_corrupted_files_are_rejected() {
    let cfg = || CorpusConfig { jobs: 1, ..CorpusConfig::default() };
    let corpus = populated_corpus(cfg(), 1);
    let path = tmp("corrupt");
    corpus.save_snapshot(&path).expect("save");
    let bytes = std::fs::read(&path).unwrap();

    // Truncation at any of a few depths.
    for cut in [4usize, bytes.len() / 2, bytes.len() - 1] {
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

    // A single flipped payload byte trips the checksum.
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    assert!(matches!(
        Corpus::load_snapshot(&path, cfg()).err(),
        Some(SnapshotError::ChecksumMismatch)
    ));
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
