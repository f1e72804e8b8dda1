//! Daemon restart from an index snapshot, end-to-end over TCP.
//!
//! A daemon configured with `snapshot_path` saves its corpus on shutdown
//! and reopens it at the next bind. The restarted daemon must answer
//! queries byte-identically to the one that wrote the snapshot — without
//! any ingest traffic. A snapshot that cannot be restored — corrupt, or
//! written in another format version — starts the daemon empty, and its
//! shutdown replaces the file with one the next life restores.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;

use f3m_core::corpus::{Corpus, CorpusConfig};
use f3m_ir::module::Module;
use f3m_serve::protocol::{Request, RequestEnvelope};
use f3m_serve::{Client, ServeConfig, Server};

fn workload(name: &str, seed: u64) -> Module {
    let mut spec = f3m_workloads::mini_suite()[0].clone();
    spec.functions = 24;
    spec.seed = seed;
    let mut m = f3m_workloads::build_module(&spec);
    m.name = name.to_string();
    m
}

fn tmp_snap(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("f3m_daemon_snap_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("index.f3msnap")
}

fn start(snapshot: PathBuf) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServeConfig {
        jobs: 1,
        snapshot_path: Some(snapshot),
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run()))
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let mut c = Client::connect(addr).unwrap();
    c.request(&RequestEnvelope::of(Request::Shutdown)).unwrap();
    handle.join().unwrap().unwrap();
}

fn query(addr: SocketAddr, module: &str) -> String {
    let mut c = Client::connect(addr).unwrap();
    let json = c
        .call_expect(
            Request::Query { module: module.into(), func: None, k: 3, if_epoch: None },
            "candidates",
        )
        .unwrap();
    format!("{json:?}")
}

#[test]
fn restarted_daemon_serves_identical_queries_from_snapshot() {
    let snap = tmp_snap("restart");

    // First life: ingest two modules, record answers, shut down (saves).
    let (addr, handle) = start(snap.clone());
    let mut c = Client::connect(addr).unwrap();
    for (name, seed) in [("sm_a", 41u64), ("sm_b", 42)] {
        let ir = f3m_ir::printer::print_module(&workload(name, seed));
        c.call_expect(Request::Ingest { name: None, ir }, "ingested").unwrap();
    }
    let before_a = query(addr, "sm_a");
    let before_b = query(addr, "sm_b");
    drop(c);
    shutdown(addr, handle);
    assert!(snap.exists(), "shutdown saved the snapshot");

    // Second life: no ingest traffic, same answers (same epochs too —
    // the query JSON embeds the epoch, so string equality covers it).
    let (addr2, handle2) = start(snap.clone());
    assert_eq!(query(addr2, "sm_a"), before_a);
    assert_eq!(query(addr2, "sm_b"), before_b);

    // The restored daemon still accepts mutations.
    let mut c = Client::connect(addr2).unwrap();
    let ir = f3m_ir::printer::print_module(&workload("sm_c", 43));
    c.call_expect(Request::Ingest { name: None, ir }, "ingested").unwrap();
    drop(c);
    shutdown(addr2, handle2);
    let _ = std::fs::remove_dir_all(snap.parent().unwrap());
}

/// A snapshot the daemon cannot restore starts it empty: the module it
/// holds is unknown. It still works as a fresh daemon, and shutdown
/// replaces the file with a valid snapshot the next life restores.
fn unusable_snapshot_starts_empty_and_is_replaced(name: &str, contents: &[u8], module: &str) {
    let snap = tmp_snap(name);
    std::fs::write(&snap, contents).unwrap();

    let (addr, handle) = start(snap.clone());
    let mut c = Client::connect(addr).unwrap();
    let r = c
        .call(Request::Query { module: module.into(), func: None, k: 3, if_epoch: None })
        .unwrap();
    use f3m_trace::Json;
    assert_eq!(
        r.get("type").and_then(Json::as_str),
        Some("error"),
        "unknown module errors: {r:?}"
    );

    let ir = f3m_ir::printer::print_module(&workload("cr_a", 61));
    c.call_expect(Request::Ingest { name: None, ir }, "ingested").unwrap();
    let before = query(addr, "cr_a");
    drop(c);
    shutdown(addr, handle);
    let saved = std::fs::read(&snap).unwrap();
    let version = u32::from_le_bytes(saved[8..12].try_into().unwrap());
    assert_eq!(version, f3m_fingerprint::snapshot::SNAPSHOT_VERSION);

    let (addr2, handle2) = start(snap.clone());
    assert_eq!(query(addr2, "cr_a"), before, "next life loads the repaired snapshot");
    shutdown(addr2, handle2);
    let _ = std::fs::remove_dir_all(snap.parent().unwrap());
}

#[test]
fn corrupt_snapshot_starts_empty_and_recovers_on_next_save() {
    unusable_snapshot_starts_empty_and_is_replaced("corrupt", b"not a snapshot at all", "ghost");
}

/// A snapshot as a v4 writer sealed it. v5 kept v4's layout and changed
/// only the two sums, which v4 computed as byte-serial FNV-1a: `meta_fnv`
/// over `[0,73)` continued over `[81,meta_end)`, `pool_fnv` over
/// `[meta_end,file_len)`.
fn as_v4(v5: &[u8]) -> Vec<u8> {
    use f3m_fingerprint::fnv::{fnv1a, FNV_OFFSET, FNV_PRIME};
    let fnv = |seed: u64, bytes: &[u8]| {
        bytes.iter().fold(seed, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
    };
    assert_eq!(fnv(FNV_OFFSET, b"foobar"), fnv1a(b"foobar"), "the fold is FNV-1a");
    let mut v4 = v5.to_vec();
    v4[8..12].copy_from_slice(&4u32.to_le_bytes());
    let field = |off: usize| u64::from_le_bytes(v5[off..off + 8].try_into().unwrap()) as usize;
    let meta_end = 89 + field(65) + field(57);
    let pool_fnv = fnv(FNV_OFFSET, &v4[meta_end..]);
    v4[81..89].copy_from_slice(&pool_fnv.to_le_bytes());
    let meta_fnv = fnv(fnv(FNV_OFFSET, &v4[..73]), &v4[81..meta_end]);
    v4[73..81].copy_from_slice(&meta_fnv.to_le_bytes());
    v4
}

/// A file of another format version is refused before anything else in
/// it is read (a v3 file's header is laid out differently, a v4 file's
/// sums are computed differently): the daemon starts empty and writes
/// the current version on shutdown.
#[test]
fn older_format_version_starts_empty_and_is_saved_in_the_current_one() {
    let path = tmp_snap("old-source");
    let corpus = Corpus::new(CorpusConfig { jobs: 1, ..CorpusConfig::default() });
    corpus.ingest(workload("old_a", 51)).unwrap();
    corpus.save_snapshot(&path).unwrap();
    let current = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
    assert_eq!(f3m_fingerprint::snapshot::SNAPSHOT_VERSION, 5);

    let mut v3 = current.clone();
    v3[8..12].copy_from_slice(&3u32.to_le_bytes());
    let v4 = as_v4(&current);
    for (name, old, version) in [("v3", v3, 3), ("v4", v4, 4)] {
        let err = f3m_fingerprint::snapshot::decode_snapshot(&old).expect_err(name);
        assert!(
            matches!(err, f3m_fingerprint::SnapshotError::BadVersion(v) if v == version),
            "{name}: {err}"
        );
        unusable_snapshot_starts_empty_and_is_replaced(name, &old, "old_a");
    }
}
