//! Chaos and disconnect tests: clients die mid-frame, mid-response, and
//! mid-drain, and the daemon must shrug — no panics, no wedged event
//! loop, no stuck threads, artefacts still flushed on shutdown.
//!
//! Every test ends with `join_within`, so a daemon that deadlocks fails
//! the test instead of hanging the suite.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use f3m_serve::protocol::{parse_response, render_request, Request, RequestEnvelope};
use f3m_serve::{Client, PollerKind, ServeConfig, Server};

fn start(cfg: ServeConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(cfg).expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    (addr, std::thread::spawn(move || server.run()))
}

fn quick() -> ServeConfig {
    ServeConfig { jobs: 2, ..ServeConfig::default() }
}

/// Joins the daemon thread with a deadline — the "no stuck threads"
/// oracle. Panics with a diagnostic if the daemon does not exit in time.
fn join_within(h: JoinHandle<std::io::Result<()>>, deadline: Duration) {
    let t0 = Instant::now();
    while !h.is_finished() {
        assert!(
            t0.elapsed() < deadline,
            "daemon did not shut down within {deadline:?} — stuck thread"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    h.join().expect("daemon thread must not panic").expect("daemon run() must return Ok");
}

fn shutdown(addr: SocketAddr) {
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(20))).unwrap();
    c.call_expect(Request::Shutdown, "bye").unwrap();
}

fn framed(body: Request) -> Vec<u8> {
    let text = render_request(&RequestEnvelope::of(body));
    let mut out = (text.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(text.as_bytes());
    out
}

/// Clients that vanish mid-frame (a few prefix bytes, half a payload)
/// leave no residue: later clients are served normally.
#[test]
fn death_mid_frame_does_not_wedge_the_daemon() {
    let (addr, h) = start(quick());
    for cut in [1usize, 2, 3, 4, 9] {
        let mut s = TcpStream::connect(addr).unwrap();
        let bytes = framed(Request::Stats);
        s.write_all(&bytes[..cut.min(bytes.len() - 1)]).unwrap();
        drop(s); // dead mid-frame
    }
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(20))).unwrap();
    c.call_expect(Request::Ping, "pong").unwrap();
    shutdown(addr);
    join_within(h, Duration::from_secs(20));
}

/// A client that sends a request and dies before reading the response:
/// the worker still runs the job, the completion finds the connection
/// gone, and nothing leaks.
#[test]
fn death_mid_response_drops_the_answer_not_the_server() {
    let (addr, h) = start(quick());
    for _ in 0..5 {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&framed(Request::Sleep { ms: 30 })).unwrap();
        drop(s); // dead before the response exists
    }
    // Give the sleeps time to complete against dead sockets.
    std::thread::sleep(Duration::from_millis(200));
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(20))).unwrap();
    let stats = c.call_expect(Request::Stats, "stats").unwrap();
    let slept = stats
        .get("server")
        .and_then(|s| s.get("requests"))
        .and_then(|r| r.get("sleep"))
        .and_then(f3m_trace::Json::as_u64)
        .unwrap();
    assert_eq!(slept, 5, "jobs for dead clients still run to completion");
    shutdown(addr);
    join_within(h, Duration::from_secs(20));
}

/// Clients that are mid-pipeline when `shutdown` lands: accepted work
/// drains, the shutdown client gets `bye`, and a client that dies during
/// the drain doesn't stall it.
#[test]
fn death_mid_drain_does_not_stall_shutdown() {
    let (addr, h) = start(ServeConfig { jobs: 1, ..quick() });
    // A victim pipelines slow work and dies immediately.
    let mut victim = TcpStream::connect(addr).unwrap();
    for _ in 0..3 {
        victim.write_all(&framed(Request::Sleep { ms: 50 })).unwrap();
    }
    drop(victim);
    // A survivor pipelines a ping, then shutdown.
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(30))).unwrap();
    c.send_frame(render_request(&RequestEnvelope::of(Request::Ping)).as_bytes()).unwrap();
    c.send_frame(render_request(&RequestEnvelope::of(Request::Shutdown)).as_bytes()).unwrap();
    let first = c.recv_frame().unwrap().expect("ping answered during drain");
    assert!(String::from_utf8(first).unwrap().contains("\"pong\""));
    let second = c.recv_frame().unwrap().expect("shutdown answered");
    assert!(String::from_utf8(second).unwrap().contains("\"bye\""));
    join_within(h, Duration::from_secs(30));
}

/// Graceful shutdown still flushes the metrics artefact when chaos
/// clients died earlier in the daemon's life.
#[test]
fn artefacts_flush_after_chaos() {
    let dir = std::env::temp_dir().join(format!("f3m_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics_path = dir.join("chaos_metrics.json");
    let (addr, h) = start(ServeConfig {
        metrics_path: Some(metrics_path.clone()),
        ..quick()
    });
    let mut s = TcpStream::connect(addr).unwrap();
    let bytes = framed(Request::Ping);
    s.write_all(&bytes[..3]).unwrap();
    drop(s);
    shutdown(addr);
    join_within(h, Duration::from_secs(20));
    let dump = std::fs::read_to_string(&metrics_path).expect("metrics artefact written");
    for key in ["serve.conns_total", "serve.frames_reassembled", "serve.readiness_wakeups"] {
        assert!(dump.contains(key), "metrics artefact missing `{key}`:\n{dump}");
    }
    // The artefact's layout is frozen: name, unit and determinism tag of
    // every metric, in this order. The list is a literal so a
    // counter-table edit that moves or renames a row shows up here.
    let layout: Vec<String> = f3m_trace::parse_metrics(&dump)
        .unwrap()
        .iter()
        .map(|m| format!("{} {} {}", m.name, m.unit, m.deterministic))
        .collect();
    let expected = [
        "serve.requests.ingest requests true",
        "serve.requests.evict requests true",
        "serve.requests.query requests true",
        "serve.requests.update requests true",
        "serve.requests.global_merge requests true",
        "serve.requests.stats requests true",
        "serve.requests.ping requests true",
        "serve.requests.sleep requests true",
        "serve.requests.shutdown requests true",
        "serve.errors count true",
        "serve.epoch count true",
        "serve.jobs count true",
        "serve.corpus.memo_hits count true",
        "serve.corpus.memo_misses count true",
        "serve.corpus.funcs_invalidated count true",
        "serve.corpus.funcs_spared count true",
        "serve.corpus.queries_superseded count true",
        "serve.corpus.sketch_comparisons count true",
        "serve.corpus.full_comparisons count true",
        "serve.resident.active count false",
        "serve.resident.bytes count false",
        "serve.resident.faults count false",
        "serve.resident.spills count false",
        "serve.rejects_busy count false",
        "serve.rejects_deadline count false",
        "serve.queue_depth_hwm count false",
        "serve.conns_open count false",
        "serve.conns_open_hwm count false",
        "serve.conns_total count false",
        "serve.frames_reassembled count false",
        "serve.sheds count false",
        "serve.slow_closes count false",
        "serve.readiness_wakeups count false",
        "serve.snapshot.load_ms count false",
        "serve.snapshot.loaded count false",
        "serve.snapshot.entries count false",
        "serve.snapshot.saved count false",
        "serve.index.buckets buckets true",
        "serve.index.max_bucket buckets true",
        "serve.corpus.entries_total count true",
    ];
    assert_eq!(layout, expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// A slowloris connection (incomplete frame, no progress) is reaped by
/// the read-deadline sweep and counted in `slow_closes`, while a healthy
/// connection on the same daemon is untouched.
#[test]
fn slowloris_is_reaped_and_counted() {
    let (addr, h) = start(ServeConfig { read_deadline_ms: 150, ..quick() });
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    loris.write_all(&[0, 0]).unwrap(); // two bytes of prefix, forever
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(20))).unwrap();
    // Wait out the deadline; the healthy connection stays alive because
    // idle_timeout is far longer.
    std::thread::sleep(Duration::from_millis(400));
    let stats = c.call_expect(Request::Stats, "stats").unwrap();
    let slow = stats
        .get("server")
        .and_then(|s| s.get("slow_closes"))
        .and_then(f3m_trace::Json::as_u64)
        .unwrap();
    assert!(slow >= 1, "slowloris connection should have been reaped (slow_closes={slow})");
    // The loris socket is dead from the server side.
    let mut buf = [0u8; 1];
    use std::io::Read;
    assert_eq!(loris.read(&mut buf).unwrap_or(0), 0, "server should have closed the loris");
    shutdown(addr);
    join_within(h, Duration::from_secs(20));
}

/// A client that floods pipelined requests, tails them with an oversized
/// frame, and then never reads: the close-after-flush connection must be
/// resolved within a bounded window (reaped once its outbox flushes, or
/// dropped by the flush deadline if the peer's refusal to read leaves it
/// unflushable) — it must not pin the event loop or survive shutdown.
#[test]
fn oversized_nonreader_is_resolved_within_deadline() {
    let (addr, h) = start(quick());
    let mut loris = TcpStream::connect(addr).unwrap();
    // Enough responses (pongs, sheds, busys) to plausibly overrun the
    // socket buffers of a peer that never reads.
    let ping = framed(Request::Ping);
    let mut burst = Vec::with_capacity(ping.len() * 40_000);
    for _ in 0..40_000 {
        burst.extend_from_slice(&ping);
    }
    loris.write_all(&burst).unwrap();
    // Oversized length prefix: the server answers with an error and
    // marks the connection close-after-flush.
    loris.write_all(&u32::MAX.to_be_bytes()).unwrap();
    // The loris never reads. Within the flush-deadline window the server
    // must have resolved the connection: either it flushed and was
    // reaped (conns drop) or the deadline sweep charged a slow close.
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(20))).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let resolved = loop {
        // The flood may answer `busy` while the queue is saturated;
        // only a well-formed stats response advances the check.
        let reply = c.call(Request::Stats).unwrap();
        if reply.get("type").and_then(f3m_trace::Json::as_str) == Some("stats") {
            let server = reply.get("server").unwrap();
            let slow = server.get("slow_closes").and_then(f3m_trace::Json::as_u64).unwrap();
            let open = server.get("conns_open").and_then(f3m_trace::Json::as_u64).unwrap();
            // Two live conns are the loris and this stats client.
            if slow >= 1 || open <= 1 {
                break true;
            }
        }
        if Instant::now() >= deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(resolved, "oversized non-reading connection was never resolved");
    // The daemon stayed responsive throughout and shuts down cleanly.
    c.call_expect(Request::Ping, "pong").unwrap();
    drop(loris);
    shutdown(addr);
    join_within(h, Duration::from_secs(20));
}

/// The payloads that used to take the daemon down — a function defined
/// twice (a panic under the corpus's writer lock, which stayed poisoned), a
/// type nested 200 000 deep and a frame of 3 MB of `[` (stack overflows,
/// which abort the process) — or to tie up a worker — 600 kB of multi-byte
/// text in a string field (decoded in time quadratic in its length) — are
/// answered promptly as plain errors, and the write verbs still work
/// afterwards.
#[test]
fn hostile_payloads_are_errors_and_the_daemon_keeps_mutating() {
    let (addr, h) = start(quick());
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(20))).unwrap();
    let f = "define @f(i32 %0) -> i32 {\nbb0:\n  %1 = add i32 %0, 1\n  ret i32 %1\n}\n";
    let module = |body: &str| format!("module \"m\" {{\n{body}}}\n");
    c.call_expect(Request::Ingest { name: None, ir: module(f) }, "ingested").unwrap();

    let twice = Some(module(&f.repeat(2)));
    let twice = Request::Update { module: "m".into(), func: "f".into(), ir: twice };
    let deep = "[1 x ".repeat(200_000);
    let deep = format!("define @g() -> void {{\nbb0:\n  %0 = alloca {deep}\n  ret\n}}\n");
    let deep = Request::Ingest { name: Some("deep".into()), ir: module(&deep) };
    let wide = Some("é関😀\"".repeat(50_000));
    let wide = Request::Update { module: "m".into(), func: "f".into(), ir: wide };
    let frames = [
        render_request(&RequestEnvelope::of(twice)).into_bytes(),
        render_request(&RequestEnvelope::of(deep)).into_bytes(),
        vec![b'['; 3 << 20],
        render_request(&RequestEnvelope::of(wide)).into_bytes(),
    ];
    for frame in &frames {
        let t0 = Instant::now();
        let reply = parse_response(c.send_raw(frame).unwrap().as_bytes()).unwrap();
        let elapsed = t0.elapsed();
        let message = reply.get("message").and_then(f3m_trace::Json::as_str).unwrap_or_default();
        assert_eq!(reply.get("type").and_then(f3m_trace::Json::as_str), Some("error"), "{reply:?}");
        assert!(!message.is_empty() && !message.starts_with("internal panic"), "{message}");
        let kb = frame.len() >> 10;
        assert!(elapsed < Duration::from_secs(5), "a {kb} kB frame took {elapsed:?}: {message}");
    }

    let touch = Request::Update { module: "m".into(), func: "f".into(), ir: None };
    c.call_expect(touch, "updated").unwrap();
    c.call_expect(Request::Evict { name: "m".into() }, "evicted").unwrap();
    c.call_expect(Request::Ping, "pong").unwrap();
    shutdown(addr);
    join_within(h, Duration::from_secs(20));
}

/// The portable fallback poller serves the same protocol (a smoke that
/// non-Linux builds aren't broken by construction).
#[test]
fn fallback_poller_serves_requests() {
    let (addr, h) = start(ServeConfig { poller: PollerKind::Fallback, ..quick() });
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(20))).unwrap();
    c.call_expect(Request::Ping, "pong").unwrap();
    c.call_expect(Request::Stats, "stats").unwrap();
    shutdown(addr);
    join_within(h, Duration::from_secs(20));
}

/// EOF from a client with responses still buffered: the daemon flushes
/// what it owes before reaping (half-close handling).
#[test]
fn half_close_still_receives_pipelined_responses() {
    let (addr, h) = start(quick());
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(20))).unwrap();
    for _ in 0..4 {
        c.send_frame(render_request(&RequestEnvelope::of(Request::Ping)).as_bytes()).unwrap();
    }
    c.shutdown_write().unwrap(); // EOF before reading anything
    for i in 0..4 {
        let frame = c.recv_frame().unwrap().unwrap_or_else(|| panic!("response {i} after EOF"));
        assert!(String::from_utf8(frame).unwrap().contains("\"pong\""));
    }
    assert!(c.recv_frame().unwrap().is_none(), "clean close after the owed responses");
    shutdown(addr);
    join_within(h, Duration::from_secs(20));
}
