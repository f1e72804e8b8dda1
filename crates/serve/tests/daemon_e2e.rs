//! End-to-end daemon tests over real TCP sockets: ingest a multi-module
//! corpus, check `query` against the offline `CandidateSearch` seam,
//! evict without a rebuild, merge the resident corpus, verify responses
//! are byte-identical across worker counts, and shut down gracefully.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::Duration;

use f3m_core::corpus::combine_modules;
use f3m_core::rank::LshBackendSearch;
use f3m_fingerprint::adaptive::MergeParams;
use f3m_ir::ids::FuncId;
use f3m_ir::module::Module;
use f3m_serve::protocol::{read_frame, render_request, write_frame, Request, RequestEnvelope};
use f3m_serve::{Client, ServeConfig, Server};
use f3m_trace::Json;

fn workload(name: &str, seed: u64) -> Module {
    let mut spec = f3m_workloads::mini_suite()[0].clone();
    spec.functions = 24;
    spec.seed = seed;
    let mut m = f3m_workloads::build_module(&spec);
    m.name = name.to_string();
    m
}

fn ir_text(m: &Module) -> String {
    f3m_ir::printer::print_module(m)
}

fn start(jobs: usize) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServeConfig { jobs, ..ServeConfig::default() })
        .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run()))
}

fn ingest(c: &mut Client, m: &Module) -> Json {
    c.call_expect(Request::Ingest { name: None, ir: ir_text(m) }, "ingested").unwrap()
}

/// Two merge-eligible members of the same generated family (same
/// signature, different bodies) — update fodder.
fn family_pair(m: &Module) -> (String, String) {
    let eligible: Vec<String> = m
        .defined_functions()
        .into_iter()
        .filter(|&f| m.function(f).num_linked_insts() > 0)
        .map(|f| m.function(f).name.clone())
        .collect();
    for a in &eligible {
        if let Some((fam, "0")) = a.rsplit_once('_') {
            let b = format!("{fam}_1");
            if eligible.contains(&b) {
                return (a.clone(), b);
            }
        }
    }
    panic!("workload has no eligible family pair");
}

/// IR text of `m` with `dst`'s body replaced by `src`'s.
fn body_swap_patch(m: &Module, dst: &str, src: &str) -> String {
    let mut patched = m.clone();
    let d = patched.lookup_function(dst).unwrap();
    let s = patched.lookup_function(src).unwrap();
    patched.rename_function(d, format!("{dst}__old"));
    patched.rename_function(s, dst.to_string());
    ir_text(&patched)
}

#[test]
fn ingest_query_evict_merge_over_a_real_socket() {
    let (addr, h) = start(2);
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let mods = [workload("alpha", 11), workload("beta", 22), workload("gamma", 33)];
    for (i, m) in mods.iter().enumerate() {
        let v = ingest(&mut c, m);
        assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(i as u64 + 1));
        assert!(v.get("functions").and_then(Json::as_u64).unwrap() > 0);
    }

    // `query` must agree with the offline seam over the combined corpus:
    // same candidates, same similarities, same order.
    let combined = combine_modules(&[&mods[0], &mods[1], &mods[2]]).unwrap();
    let funcs: Vec<FuncId> = combined
        .defined_functions()
        .into_iter()
        .filter(|&f| combined.function(f).num_linked_insts() > 0)
        .collect();
    let search = LshBackendSearch::build(&combined, &funcs, MergeParams::static_default(), 1);
    let available = vec![true; funcs.len()];

    let v = c
        .call_expect(
            Request::Query { module: "alpha".into(), func: None, k: 5, if_epoch: None },
            "candidates",
        )
        .unwrap();
    assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(3));
    let results = v.get("results").and_then(Json::as_array).unwrap();
    assert!(!results.is_empty());
    let mut nonempty = 0;
    for (i, r) in results.iter().enumerate() {
        // `alpha` was ingested first, so its entries are the seam's first
        // indices in the same order.
        let offline: Vec<(String, f64)> = search
            .ranked_candidates(i, &available, 5)
            .into_iter()
            .map(|(j, s)| (combined.function(funcs[j]).name.clone(), s))
            .collect();
        let daemon: Vec<(String, f64)> = r
            .get("candidates")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|cand| {
                (
                    cand.get("func").and_then(Json::as_str).unwrap().to_string(),
                    cand.get("similarity").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        assert_eq!(daemon, offline, "function {i}");
        nonempty += usize::from(!daemon.is_empty());
    }
    assert!(nonempty > 0, "workload families must produce candidates");

    // A twin of alpha (same seed) gives the resident merge something to
    // commit.
    ingest(&mut c, &workload("delta", 11));
    let v = c
        .call_expect(Request::Merge { strategy: "f3m".into(), jobs: None }, "report")
        .unwrap();
    let committed = v
        .get("report")
        .and_then(|r| r.get("stats"))
        .and_then(|s| s.get("merges_committed"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(committed > 0, "twin modules must merge");
    // One strategy vocabulary: the canonical `f3m-adaptive` and its CLI
    // alias `adaptive` are the same request, and an unknown name is
    // refused with the wire text scripts already match on.
    let merge_raw = |c: &mut Client, strategy: &str| {
        let req = Request::Merge { strategy: strategy.into(), jobs: None };
        c.request_raw(&RequestEnvelope::of(req)).unwrap()
    };
    assert_eq!(merge_raw(&mut c, "f3m-adaptive"), merge_raw(&mut c, "adaptive"));
    assert!(merge_raw(&mut c, "f3m-adaptive").contains("\"type\":\"report\""));
    assert!(merge_raw(&mut c, "nonsense").contains("unknown strategy `nonsense`"));

    // Evict is incremental: epoch advances, no rebuild, and the evicted
    // module's functions stop appearing as candidates.
    let v = c.call_expect(Request::Evict { name: "beta".into() }, "evicted").unwrap();
    assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(5));
    let v = c.call_expect(Request::Stats, "stats").unwrap();
    let corpus = v.get("corpus").unwrap();
    assert_eq!(corpus.get("epoch").and_then(Json::as_u64), Some(5));
    assert_eq!(corpus.get("modules_live").and_then(Json::as_u64), Some(3));
    assert_eq!(corpus.get("modules_total").and_then(Json::as_u64), Some(4));
    let occupied = |key| corpus.get(key).and_then(Json::as_u64).is_some_and(|n| n > 0);
    assert!(occupied("index_buckets") && occupied("index_max_bucket"), "the index holds alpha");

    let v = c
        .call_expect(
            Request::Query { module: "alpha".into(), func: None, k: 8, if_epoch: None },
            "candidates",
        )
        .unwrap();
    for r in v.get("results").and_then(Json::as_array).unwrap() {
        for cand in r.get("candidates").and_then(Json::as_array).unwrap() {
            let name = cand.get("func").and_then(Json::as_str).unwrap();
            assert!(!name.starts_with("beta."), "evicted module leaked candidate {name}");
        }
    }

    // Unknown modules are an error response, not a dead connection.
    let v = c.call(Request::Evict { name: "nope".into() }).unwrap();
    assert_eq!(v.get("type").and_then(Json::as_str), Some("error"));

    c.call_expect(Request::Shutdown, "bye").unwrap();
    h.join().unwrap().expect("clean shutdown");
}

/// The same synchronous request sequence, byte for byte, at any worker
/// count: corpus state transitions are totally ordered and responses are
/// rendered with fixed field order (merge reports with wall-clock fields
/// zeroed).
#[test]
fn responses_are_byte_identical_across_worker_counts() {
    fn scenario(jobs: usize) -> Vec<String> {
        let (addr, h) = start(jobs);
        let mut c = Client::connect(addr).unwrap();
        c.set_timeout(Some(Duration::from_secs(60))).unwrap();
        let mods = [workload("alpha", 11), workload("beta", 22), workload("gamma", 33)];
        let mut raw = Vec::new();
        for m in &mods {
            raw.push(
                c.request_raw(&RequestEnvelope::of(Request::Ingest {
                    name: None,
                    ir: ir_text(m),
                }))
                .unwrap(),
            );
        }
        for m in ["alpha", "beta", "gamma"] {
            raw.push(
                c.request_raw(&RequestEnvelope::of(Request::Query {
                    module: m.into(),
                    func: None,
                    k: 4,
                    if_epoch: None,
                }))
                .unwrap(),
            );
        }
        // An in-place edit plus a touch: the memo counters these bump
        // ride the stats response below, folding the incremental layer
        // into the byte-identity check.
        let (dst, src) = family_pair(&mods[0]);
        raw.push(
            c.request_raw(&RequestEnvelope::of(Request::Update {
                module: "alpha".into(),
                func: dst.clone(),
                ir: Some(body_swap_patch(&mods[0], &dst, &src)),
            }))
            .unwrap(),
        );
        raw.push(
            c.request_raw(&RequestEnvelope::of(Request::Update {
                module: "alpha".into(),
                func: src.clone(),
                ir: None,
            }))
            .unwrap(),
        );
        raw.push(
            c.request_raw(&RequestEnvelope::of(Request::Query {
                module: "alpha".into(),
                func: None,
                k: 4,
                if_epoch: None,
            }))
            .unwrap(),
        );
        // A stale epoch precondition is answered `superseded`, again
        // deterministically.
        raw.push(
            c.request_raw(&RequestEnvelope::of(Request::Query {
                module: "alpha".into(),
                func: None,
                k: 4,
                if_epoch: Some(1),
            }))
            .unwrap(),
        );
        raw.push(
            c.request_raw(&RequestEnvelope::of(Request::Merge {
                strategy: "f3m".into(),
                jobs: None,
            }))
            .unwrap(),
        );
        raw.push(c.request_raw(&RequestEnvelope::of(Request::Evict { name: "beta".into() })).unwrap());
        raw.push(
            c.request_raw(&RequestEnvelope::of(Request::Query {
                module: "alpha".into(),
                func: Some("f0_0".into()),
                k: 4,
                if_epoch: None,
            }))
            .unwrap(),
        );
        raw.push(c.request_raw(&RequestEnvelope::of(Request::Stats)).unwrap());
        c.call_expect(Request::Shutdown, "bye").unwrap();
        h.join().unwrap().expect("clean shutdown");
        raw
    }

    let serial = scenario(1);
    for jobs in [2, 8] {
        let parallel = scenario(jobs);
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a, b, "response {i} differs between --jobs 1 and --jobs {jobs}");
        }
    }
}

/// The event loop under many clients: every connection is open before
/// the first request is sent and stays open until the last is answered,
/// each request of the mixed traffic gets its verb's own answer — no
/// error, no refusal — and the server reports having held all of them
/// open together.
#[test]
fn concurrent_clients_are_all_held_open_and_all_answered() {
    const CLIENTS: usize = 64;
    const REQUESTS: usize = 8;
    let server = Server::bind(ServeConfig { jobs: 2, queue_cap: 256, ..ServeConfig::default() })
        .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let h = std::thread::spawn(move || server.run());
    let mut admin = Client::connect(addr).unwrap();
    ingest(&mut admin, &workload("soak", 7));

    let all = Barrier::new(CLIENTS);
    let client = |ci: usize| -> Result<(), String> {
        let connected = Client::connect(addr).map_err(|e| e.to_string());
        all.wait(); // every connection is open before traffic starts
        let answered = connected.and_then(|mut c| {
            c.set_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
            for q in 0..REQUESTS {
                let (body, answer) = match (ci + q) % 8 {
                    0 => (Request::Stats, "stats"),
                    1 => {
                        let module = "soak".into();
                        (Request::Query { module, func: None, k: 3, if_epoch: None }, "candidates")
                    }
                    _ => (Request::Ping, "pong"),
                };
                c.call_expect(body, answer).map_err(|e| format!("request {q}: {e}"))?;
            }
            Ok(c)
        });
        all.wait(); // and none closes before every client is done
        answered.map(drop)
    };
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS).map(|ci| s.spawn(move || client(ci))).collect();
        for (ci, c) in clients.into_iter().enumerate() {
            c.join().unwrap().unwrap_or_else(|e| panic!("client {ci}: {e}"));
        }
    });

    let v = admin.call_expect(Request::Stats, "stats").unwrap();
    let server = v.get("server").unwrap();
    let count = |key: &str| server.get(key).and_then(Json::as_u64).unwrap();
    assert!(count("conns_open_hwm") > CLIENTS as u64, "clients and the admin: {server:?}");
    assert_eq!((count("errors"), count("sheds"), count("rejects_busy")), (0, 0, 0));
    admin.call_expect(Request::Shutdown, "bye").unwrap();
    h.join().unwrap().expect("clean shutdown");
}

/// `shutdown` rides the queue: everything accepted before it still gets
/// a response, then the daemon exits cleanly.
#[test]
fn shutdown_drains_already_accepted_requests() {
    let (addr, h) = start(1);
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let send = |s: &mut std::net::TcpStream, id: u64, body: Request| {
        let env = RequestEnvelope { id: Some(id), deadline_ms: None, body };
        write_frame(s, render_request(&env).as_bytes()).unwrap();
    };
    // Pipeline: a slow job, two pings, then shutdown — all queued before
    // the worker finishes the sleep.
    send(&mut s, 1, Request::Sleep { ms: 200 });
    std::thread::sleep(Duration::from_millis(50));
    send(&mut s, 2, Request::Ping);
    send(&mut s, 3, Request::Ping);
    send(&mut s, 4, Request::Shutdown);
    let mut types = Vec::new();
    for _ in 0..4 {
        let payload = read_frame(&mut s).unwrap().expect("drained response");
        let v = f3m_serve::protocol::parse_response(&payload).unwrap();
        types.push((
            v.get("id").and_then(Json::as_u64).unwrap(),
            v.get("type").and_then(Json::as_str).unwrap().to_string(),
        ));
    }
    assert_eq!(
        types,
        vec![
            (1, "slept".to_string()),
            (2, "pong".to_string()),
            (3, "pong".to_string()),
            (4, "bye".to_string()),
        ]
    );
    h.join().unwrap().expect("run() returns Ok after graceful shutdown");
}
