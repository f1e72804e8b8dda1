//! Wire-level protocol tests against a live daemon: framing abuse,
//! malformed payloads, backpressure, queue-wait deadlines, and the
//! incremental `update`/`if_epoch` surface. Every failure mode must
//! produce an `error`/`busy`/`superseded` frame (or a clean drop),
//! never a panic or a hang.

use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use f3m_ir::module::Module;
use f3m_serve::protocol::{
    read_frame, render_request, write_frame, Request, RequestEnvelope, MAX_FRAME,
};
use f3m_serve::{Client, ServeConfig, Server};
use f3m_trace::Json;

fn start(jobs: usize, queue_cap: usize) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServeConfig {
        jobs,
        queue_cap,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run()))
}

fn stop(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let mut c = Client::connect(addr).unwrap();
    c.call_expect(Request::Shutdown, "bye").unwrap();
    handle.join().unwrap().expect("server run() returns Ok after shutdown");
}

/// Sends `env` as a frame on a raw stream (no response read).
fn send(stream: &mut TcpStream, env: &RequestEnvelope) {
    write_frame(stream, render_request(env).as_bytes()).unwrap();
}

fn recv(stream: &mut TcpStream) -> Json {
    let payload = read_frame(stream).unwrap().expect("response frame");
    f3m_serve::protocol::parse_response(&payload).unwrap()
}

fn with_id(id: u64, body: Request) -> RequestEnvelope {
    RequestEnvelope { id: Some(id), deadline_ms: None, body }
}

#[test]
fn ping_round_trips_and_echoes_id() {
    let (addr, h) = start(2, 8);
    let mut c = Client::connect(addr).unwrap();
    let v = c
        .request(&RequestEnvelope { id: Some(42), deadline_ms: None, body: Request::Ping })
        .unwrap();
    assert_eq!(v.get("type").and_then(Json::as_str), Some("pong"));
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(42));
    stop(addr, h);
}

#[test]
fn malformed_json_gets_error_frame_and_connection_survives() {
    let (addr, h) = start(1, 8);
    let mut c = Client::connect(addr).unwrap();
    for bad in [&b"{ not json"[..], b"[1,2,3]", b"{\"type\":\"warp\"}", b"\xff\xfe"] {
        let raw = c.send_raw(bad).unwrap();
        let v = f3m_serve::protocol::parse_response(raw.as_bytes()).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("error"), "payload {bad:?}");
    }
    // The retired `merge` verb is an unknown request type, not a pass.
    let raw = c.send_raw(b"{\"type\":\"merge\",\"strategy\":\"f3m\"}").unwrap();
    assert!(raw.contains("unknown request type `merge`"), "{raw}");
    // Same connection still serves well-formed requests.
    c.call_expect(Request::Ping, "pong").unwrap();
    stop(addr, h);
}

#[test]
fn truncated_frame_drops_connection_without_wedging_the_server() {
    let (addr, h) = start(1, 8);
    {
        let mut s = TcpStream::connect(addr).unwrap();
        // Claim 100 bytes, deliver 10, hang up mid-frame.
        std::io::Write::write_all(&mut s, &100u32.to_be_bytes()).unwrap();
        std::io::Write::write_all(&mut s, b"0123456789").unwrap();
    }
    // A half-delivered length prefix is the same story.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        std::io::Write::write_all(&mut s, &[0u8, 0]).unwrap();
    }
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(10))).unwrap();
    c.call_expect(Request::Ping, "pong").unwrap();
    stop(addr, h);
}

#[test]
fn oversized_length_prefix_is_refused_with_an_error_frame() {
    let (addr, h) = start(1, 8);
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    std::io::Write::write_all(&mut s, &(MAX_FRAME + 1).to_be_bytes()).unwrap();
    let v = recv(&mut s);
    assert_eq!(v.get("type").and_then(Json::as_str), Some("error"));
    let msg = v.get("message").and_then(Json::as_str).unwrap();
    assert!(msg.contains("exceeds maximum"), "unexpected message: {msg}");
    // The stream is desynchronized, so the server closes it.
    assert!(read_frame(&mut s).unwrap().is_none(), "connection should be closed");
    stop(addr, h);
}

#[test]
fn full_queue_answers_busy_without_dropping_accepted_work() {
    let (addr, h) = start(1, 1);
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Occupy the single worker...
    send(&mut s, &with_id(1, Request::Sleep { ms: 300 }));
    std::thread::sleep(Duration::from_millis(100));
    // ...fill the queue (cap 1)...
    send(&mut s, &with_id(2, Request::Sleep { ms: 10 }));
    // ...and overflow it.
    send(&mut s, &with_id(3, Request::Ping));
    let mut by_id = std::collections::HashMap::new();
    for _ in 0..3 {
        let v = recv(&mut s);
        let id = v.get("id").and_then(Json::as_u64).unwrap();
        by_id.insert(id, v.get("type").and_then(Json::as_str).unwrap().to_string());
    }
    assert_eq!(by_id[&1], "slept");
    assert_eq!(by_id[&2], "slept", "accepted work must still complete");
    assert_eq!(by_id[&3], "busy");
    stop(addr, h);
}

#[test]
fn deadline_expired_in_queue_is_answered_with_an_error() {
    let (addr, h) = start(1, 8);
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    send(&mut s, &with_id(1, Request::Sleep { ms: 250 }));
    std::thread::sleep(Duration::from_millis(50));
    send(
        &mut s,
        &RequestEnvelope { id: Some(2), deadline_ms: Some(50), body: Request::Ping },
    );
    let first = recv(&mut s);
    assert_eq!(first.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(first.get("type").and_then(Json::as_str), Some("slept"));
    let second = recv(&mut s);
    assert_eq!(second.get("id").and_then(Json::as_u64), Some(2));
    assert_eq!(second.get("type").and_then(Json::as_str), Some("error"));
    let msg = second.get("message").and_then(Json::as_str).unwrap();
    assert!(msg.contains("deadline"), "unexpected message: {msg}");
    stop(addr, h);
}

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

/// Two merge-eligible members of the same generated family (same
/// signature, different bodies) — update fodder.
fn family_pair(m: &Module) -> (String, String) {
    let eligible: Vec<String> =
        m.merge_eligible().into_iter().map(|f| m.function(f).name.clone()).collect();
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
fn update_and_touch_round_trip_over_the_wire() {
    let (addr, h) = start(2, 8);
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let alpha = workload("alpha", 11);
    let (dst, src) = family_pair(&alpha);
    c.call_expect(Request::Ingest { name: None, ir: ir_text(&alpha) }, "ingested").unwrap();

    // Warm the memoized ranks, then edit one function in place.
    c.call_expect(
        Request::Query { module: "alpha".into(), func: None, k: 3, if_epoch: None },
        "candidates",
    )
    .unwrap();
    let v = c
        .call_expect(
            Request::Update {
                module: "alpha".into(),
                func: dst.clone(),
                ir: Some(body_swap_patch(&alpha, &dst, &src)),
            },
            "updated",
        )
        .unwrap();
    assert_eq!(v.get("module").and_then(Json::as_str), Some("alpha"));
    assert_eq!(v.get("func").and_then(Json::as_str), Some(dst.as_str()));
    assert_eq!(v.get("changed").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(2));
    assert!(v.get("funcs_invalidated").and_then(Json::as_u64).unwrap() >= 1);

    // The edited function's body is now its sibling's: they rank each
    // other at similarity 1.0.
    let q = c
        .call_expect(
            Request::Query {
                module: "alpha".into(),
                func: Some(dst.clone()),
                k: 1,
                if_epoch: None,
            },
            "candidates",
        )
        .unwrap();
    let results = q.get("results").and_then(Json::as_array).unwrap();
    let top = results[0].get("candidates").and_then(Json::as_array).unwrap()[0].clone();
    assert_eq!(top.get("func").and_then(Json::as_str), Some(format!("alpha.{src}")).as_deref());
    assert!((top.get("similarity").and_then(Json::as_f64).unwrap() - 1.0).abs() < 1e-12);

    // `ir` absent = touch: re-fingerprint without an IR change.
    let t = c
        .call_expect(
            Request::Update { module: "alpha".into(), func: dst.clone(), ir: None },
            "updated",
        )
        .unwrap();
    assert_eq!(t.get("changed").and_then(Json::as_bool), Some(false));
    assert_eq!(t.get("epoch").and_then(Json::as_u64), Some(3));

    // Memo counters surface in stats, and the mutations were counted.
    let s = c.call_expect(Request::Stats, "stats").unwrap();
    let corpus = s.get("corpus").unwrap();
    assert!(corpus.get("memo_hits").and_then(Json::as_u64).is_some());
    assert!(corpus.get("memo_misses").and_then(Json::as_u64).unwrap() > 0);
    assert!(corpus.get("funcs_invalidated").and_then(Json::as_u64).unwrap() >= 2);
    let reqs = s.get("server").unwrap().get("requests").unwrap();
    assert_eq!(reqs.get("update").and_then(Json::as_u64), Some(2));
    stop(addr, h);
}

#[test]
fn update_error_paths_answer_error_frames_and_survive() {
    let (addr, h) = start(1, 8);
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let alpha = workload("alpha", 11);
    let (dst, _) = family_pair(&alpha);
    c.call_expect(Request::Ingest { name: None, ir: ir_text(&alpha) }, "ingested").unwrap();

    let cases: [(Request, &str); 3] = [
        (
            Request::Update { module: "ghost".into(), func: dst.clone(), ir: None },
            "not resident",
        ),
        (
            Request::Update { module: "alpha".into(), func: "no_such_fn".into(), ir: None },
            "no merge-eligible function",
        ),
        (
            Request::Update {
                module: "alpha".into(),
                func: dst.clone(),
                ir: Some("module \"p\" { define @x( }".into()),
            },
            "parse",
        ),
    ];
    for (req, needle) in cases {
        let v = c.call(req).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("error"));
        let msg = v.get("message").and_then(Json::as_str).unwrap();
        assert!(msg.contains(needle), "expected {needle:?} in {msg:?}");
    }
    // Failed updates never advance the epoch or wedge the connection.
    let s = c.call_expect(Request::Stats, "stats").unwrap();
    assert_eq!(s.get("corpus").unwrap().get("epoch").and_then(Json::as_u64), Some(1));
    c.call_expect(Request::Ping, "pong").unwrap();
    stop(addr, h);
}

#[test]
fn stale_if_epoch_is_answered_superseded_without_ranking() {
    let (addr, h) = start(1, 8);
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();

    c.call_expect(Request::Ingest { name: None, ir: ir_text(&workload("alpha", 11)) }, "ingested")
        .unwrap();

    // Wrong precondition → deterministic `superseded`, no candidates.
    let v = c
        .call_expect(
            Request::Query { module: "alpha".into(), func: None, k: 3, if_epoch: Some(7) },
            "superseded",
        )
        .unwrap();
    assert_eq!(v.get("started").and_then(Json::as_u64), Some(7));
    assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(1));

    // Matching precondition → normal candidates at that epoch.
    let ok = c
        .call_expect(
            Request::Query { module: "alpha".into(), func: None, k: 3, if_epoch: Some(1) },
            "candidates",
        )
        .unwrap();
    assert_eq!(ok.get("epoch").and_then(Json::as_u64), Some(1));

    // The precondition miss was counted as a superseded query.
    let s = c.call_expect(Request::Stats, "stats").unwrap();
    assert_eq!(
        s.get("corpus").unwrap().get("queries_superseded").and_then(Json::as_u64),
        Some(1)
    );
    stop(addr, h);
}

#[test]
fn rejections_show_up_in_server_counters() {
    let (addr, h) = start(1, 1);
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    send(&mut s, &with_id(1, Request::Sleep { ms: 200 }));
    std::thread::sleep(Duration::from_millis(50));
    send(&mut s, &with_id(2, Request::Sleep { ms: 1 }));
    send(&mut s, &with_id(3, Request::Ping)); // overflows → busy
    for _ in 0..3 {
        recv(&mut s);
    }
    let mut c = Client::connect(addr).unwrap();
    let v = c.call_expect(Request::Stats, "stats").unwrap();
    let server = v.get("server").unwrap();
    assert_eq!(server.get("rejects_busy").and_then(Json::as_u64), Some(1));
    assert!(server.get("queue_depth_hwm").and_then(Json::as_u64).unwrap() >= 1);
    let reqs = server.get("requests").unwrap();
    assert_eq!(reqs.get("sleep").and_then(Json::as_u64), Some(2));
    stop(addr, h);
}
