//! Daemon restart from an index snapshot, end-to-end over TCP.
//!
//! A daemon configured with `snapshot_path` saves its corpus on shutdown
//! and reopens it at the next bind. The restarted daemon must answer
//! queries byte-identically to the one that wrote the snapshot — without
//! any ingest traffic. Snapshots that cannot be trusted exercise the two
//! fallbacks: a stale one (entry stamps newer than the header epoch)
//! rebuilds from the module sources embedded in the payload, a corrupt
//! one starts empty.

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

#[test]
fn stale_snapshot_rebuilds_from_embedded_sources() {
    let snap = tmp_snap("stale");

    // Craft a stale snapshot offline: header epoch one behind the
    // entries, exactly what a crashed writer could leave behind.
    let cfg = || CorpusConfig {
        jobs: 1,
        params: f3m_fingerprint::MergeParams::static_default(),
    };
    let corpus = Corpus::new(cfg());
    for (name, seed) in [("st_a", 51u64), ("st_b", 52)] {
        corpus.ingest(workload(name, seed)).unwrap();
    }
    corpus.save_snapshot_stamped(&snap, corpus.epoch() - 1).unwrap();

    // The daemon must come up serving both modules via the source
    // fallback, with the same candidate sets a direct ingest produces.
    let (addr, handle) = start(snap.clone());
    let direct = {
        let fresh = Corpus::new(cfg());
        for (name, seed) in [("st_a", 51u64), ("st_b", 52)] {
            fresh.ingest(workload(name, seed)).unwrap();
        }
        let (_, rs) = fresh.query_module("st_a", 3).unwrap();
        rs
    };
    let served = query(addr, "st_a");
    for r in &direct {
        for cand in &r.candidates {
            assert!(
                served.contains(&cand.func),
                "rebuilt daemon must rank {} for {}",
                cand.func,
                r.func
            );
        }
    }
    shutdown(addr, handle);
    let _ = std::fs::remove_dir_all(snap.parent().unwrap());
}

#[test]
fn corrupt_snapshot_starts_empty_and_recovers_on_next_save() {
    let snap = tmp_snap("corrupt");
    std::fs::write(&snap, b"not a snapshot at all").unwrap();

    let (addr, handle) = start(snap.clone());
    let mut c = Client::connect(addr).unwrap();
    // Empty corpus: the module is unknown.
    let r = c
        .call(Request::Query { module: "ghost".into(), func: None, k: 3, if_epoch: None })
        .unwrap();
    use f3m_trace::Json;
    assert_eq!(
        r.get("type").and_then(Json::as_str),
        Some("error"),
        "unknown module errors: {r:?}"
    );

    // It still works as a fresh daemon, and shutdown replaces the
    // garbage file with a valid snapshot.
    let ir = f3m_ir::printer::print_module(&workload("cr_a", 61));
    c.call_expect(Request::Ingest { name: None, ir }, "ingested").unwrap();
    let before = query(addr, "cr_a");
    drop(c);
    shutdown(addr, handle);

    let (addr2, handle2) = start(snap.clone());
    assert_eq!(query(addr2, "cr_a"), before, "next life loads the repaired snapshot");
    shutdown(addr2, handle2);
    let _ = std::fs::remove_dir_all(snap.parent().unwrap());
}
