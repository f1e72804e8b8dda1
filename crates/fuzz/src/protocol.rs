//! Protocol-level fuzzing of the serve daemon.
//!
//! Where [`crate::campaign`] attacks the merge pipeline with mutated IR,
//! this module attacks the daemon's *transport*: a live in-process
//! server is bombarded with seeded scenarios — random well-formed frame
//! interleavings, truncated and oversized length prefixes, garbage
//! payloads, mid-request disconnects, byte-at-a-time slowloris dribbles,
//! and pipelined bursts across multiple connections. Some well-formed
//! requests carry non-ASCII text in every string field.
//!
//! ## Oracle contract
//!
//! 1. **No panics**: the daemon thread finishes `run()` cleanly at the
//!    end of the campaign (an event-loop panic would poison the run), and
//!    no response is the `internal panic handling …` error a worker's
//!    `catch_unwind` answers with: the panic was contained, but it may have
//!    poisoned a lock every later request needs, so it is a finding.
//! 2. **No deadlocks**: every probe that is owed a response receives it
//!    within [`ProtocolCampaignConfig::deadline`], and the daemon joins
//!    within the same bound after `shutdown`.
//! 3. **Well-formed in, well-formed out**: every syntactically complete
//!    frame the fuzzer sends is answered by a complete frame that parses
//!    as a JSON object with a known `type` — malformed *content* earns a
//!    well-formed `error`, never silence or garbage.
//!
//! Malformed *transport* (truncated frames, dead sockets) may earn
//! anything except a wedged server; after each such scenario a
//! fresh-connection `ping` asserts the daemon still serves.
//!
//! The campaign is a pure function of its seed: failures are recorded
//! with the per-case seed, and [`replay_case`] re-runs a single case
//! against a fresh daemon — the reproducer corpus under
//! `corpus/protocol/` is just a list of case seeds.

use std::path::PathBuf;
use std::time::Duration;

use f3m_prng::SmallRng;
use f3m_serve::protocol::{parse_response, render_request, Request, RequestEnvelope, MAX_FRAME};
use f3m_serve::{AdmissionConfig, Client, ServeConfig, Server};
use f3m_trace::json::Writer;
use f3m_trace::stats::{self, Stat, Value::*};
use f3m_trace::Json;

use crate::campaign::iteration_seed;

/// The scenarios a case can draw; the name is recorded in failures and
/// reproducer entries.
const SCENARIOS: [&str; 7] = [
    "pipelined-burst",
    "truncated-prefix",
    "oversized-prefix",
    "garbage-payload",
    "mid-request-disconnect",
    "slowloris",
    "interleaved-conns",
];

/// Protocol-campaign parameters.
#[derive(Clone, Debug)]
pub struct ProtocolCampaignConfig {
    /// Number of seeded scenarios to run.
    pub cases: usize,
    /// Campaign seed; each case derives its own stream from it.
    pub seed: u64,
    /// Where to append reproducer entries (`None` = don't write).
    pub corpus_dir: Option<PathBuf>,
    /// Worker threads for the daemon under test.
    pub jobs: usize,
    /// Queue capacity for the daemon under test (small, so `busy` and
    /// shed paths get exercised too).
    pub queue_cap: usize,
    /// Oracle deadline: a response (or the daemon's shutdown join)
    /// taking longer than this is reported as a deadlock.
    pub deadline: Duration,
}

impl Default for ProtocolCampaignConfig {
    fn default() -> Self {
        ProtocolCampaignConfig {
            cases: 200,
            seed: 0xF3F3,
            corpus_dir: None,
            jobs: 2,
            queue_cap: 8,
            deadline: Duration::from_secs(10),
        }
    }
}

/// One oracle violation.
#[derive(Clone, Debug)]
pub struct ProtocolFailure {
    pub case: usize,
    /// The case's derived seed — feed to [`replay_case`] to reproduce.
    pub case_seed: u64,
    pub scenario: &'static str,
    pub detail: String,
}

/// Campaign result.
#[derive(Clone, Debug, Default)]
pub struct ProtocolSummary {
    pub cases: usize,
    pub frames_sent: u64,
    pub responses_checked: u64,
    pub failures: Vec<ProtocolFailure>,
    /// Scenario name → times drawn.
    pub scenario_counts: Vec<(&'static str, u64)>,
}

/// Every summary counter, in [`ProtocolSummary::to_json`] order; the one
/// place a counter is named besides its field.
const PROTOCOL_STATS: &[Stat<ProtocolSummary>] = &[
    Stat::json_only("cases", |s| Count(s.cases as u64)),
    Stat::json_only("frames_sent", |s| Count(s.frames_sent)),
    Stat::json_only("responses_checked", |s| Count(s.responses_checked)),
    Stat::json_only("scenarios", |s| Map(s.scenario_counts.clone())),
];

impl ProtocolSummary {
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(256);
        w.begin_object();
        stats::write_fields(&mut w, PROTOCOL_STATS, self);
        w.key("failures").begin_array();
        for f in &self.failures {
            w.begin_object().key("case").raw(f.case).key("case_seed").u64(f.case_seed);
            w.key("scenario").str(f.scenario).key("detail").str(&f.detail).end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

/// A tiny valid module source for `ingest` traffic; the body varies with
/// the seed so eviction/re-ingest cycles see distinct content.
fn tiny_module_src(rng: &mut SmallRng) -> (String, String) {
    let mut spec = f3m_workloads::mini_suite()[0].clone();
    spec.functions = 4;
    spec.seed = rng.next_u64();
    let name = format!("fuzzmod_{}", rng.gen_range(0..1_000_000u32));
    let mut m = f3m_workloads::build_module(&spec);
    m.name = name.clone();
    (name, f3m_ir::printer::print_module(&m))
}

/// A random well-formed request body (biased toward cheap ones).
fn random_request(rng: &mut SmallRng, ingested: &mut Vec<String>) -> Request {
    match rng.gen_range(0..10u32) {
        0 | 1 => Request::Ping,
        2 | 3 => Request::Stats,
        4 => {
            let (name, src) = tiny_module_src(rng);
            ingested.push(name);
            Request::Ingest { name: None, ir: src }
        }
        5 => match ingested.last() {
            Some(m) => Request::Query {
                module: m.clone(),
                func: None,
                k: rng.gen_range(1..5u32) as usize,
                if_epoch: None,
            },
            None => Request::Ping,
        },
        6 => match (ingested.len() > 1).then(|| ingested.remove(0)) {
            Some(m) => Request::Evict { name: m },
            None => Request::Stats,
        },
        7 => Request::Sleep { ms: rng.gen_range(0..3u32) as u64 },
        8 => Request::Query {
            // Unknown module: exercises the error path, still well-formed.
            module: format!("no_such_module_{}", rng.gen_range(0..100u32)),
            func: None,
            k: 2,
            if_epoch: None,
        },
        _ => with_non_ascii_strings(random_request(rng, &mut Vec::new()), rng),
    }
}

/// Rewrites every string field of `req` — names, and the IR of an update
/// — to text mixing ASCII, escaped characters and two- to four-byte
/// characters, so the frame reader decodes multi-byte runs of every
/// width. No module or symbol name may hold such text, so each answer is
/// a well-formed `error`. A request without string fields becomes a
/// query naming such a module.
fn with_non_ascii_strings(req: Request, rng: &mut SmallRng) -> Request {
    const CHARS: [char; 6] = ['a', '"', '\\', 'é', '関', '😀'];
    let mut text = || -> String {
        let n = rng.gen_range(0..512u32);
        let tail = (0..n).map(|_| CHARS[rng.gen_range(0..CHARS.len() as u32) as usize]);
        std::iter::once('é').chain(tail).collect()
    };
    match req {
        Request::Ingest { ir, .. } => Request::Ingest { name: Some(text()), ir },
        Request::Evict { .. } => Request::Evict { name: text() },
        Request::Update { .. } => Request::Update { module: text(), func: text(), ir: Some(text()) },
        Request::Query { func, k, if_epoch, .. } => {
            Request::Query { module: text(), func: func.map(|_| text()), k, if_epoch }
        }
        _ => Request::Query { module: text(), func: Some(text()), k: 2, if_epoch: None },
    }
}

/// Checks one response frame against oracle rules 1 and 3.
fn check_response(raw: &[u8]) -> Result<(), String> {
    let v: Json = parse_response(raw).map_err(|e| format!("unparseable response: {e}"))?;
    if v.get("type").and_then(Json::as_str).is_none() {
        return Err("response JSON has no `type` field".to_string());
    }
    match v.get("message").and_then(Json::as_str) {
        Some(m) if m.starts_with("internal panic") => Err(format!("worker panicked: {m}")),
        _ => Ok(()),
    }
}

/// Collects `n` pipelined responses from `client`, enforcing oracle
/// rules 2 and 3 (and, through [`check_response`], rule 1).
fn drain_responses(client: &mut Client, n: usize, summary: &mut ProtocolSummary) -> Result<(), String> {
    for i in 0..n {
        let frame = client
            .recv_frame()
            .map_err(|e| format!("response {i}/{n}: {e}"))?
            .ok_or_else(|| format!("connection closed before response {i}/{n}"))?;
        check_response(&frame)?;
        summary.responses_checked += 1;
    }
    Ok(())
}

struct Harness {
    addr: std::net::SocketAddr,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
}

fn start_daemon(cfg: &ProtocolCampaignConfig) -> std::io::Result<Harness> {
    let server = Server::bind(ServeConfig {
        jobs: cfg.jobs.max(1),
        queue_cap: cfg.queue_cap.max(1),
        shards: 4,
        // Short read deadline so slowloris victims are reaped within the
        // campaign, proving the sweep works; idle timeout stays long so
        // healthy probes never trip it.
        read_deadline_ms: 250,
        admission: AdmissionConfig { max_inflight_per_conn: 32, ..AdmissionConfig::default() },
        ..ServeConfig::default()
    })?;
    let addr = server.local_addr()?;
    let handle = std::thread::spawn(move || server.run());
    Ok(Harness { addr, handle })
}

/// Joins the daemon thread with a deadline — oracle rule 2 for shutdown.
fn join_with_deadline(
    handle: std::thread::JoinHandle<std::io::Result<()>>,
    deadline: Duration,
) -> Result<(), String> {
    let t0 = std::time::Instant::now();
    while !handle.is_finished() {
        if t0.elapsed() > deadline {
            return Err(format!("daemon did not shut down within {deadline:?}"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    match handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("daemon run() returned error: {e}")),
        Err(_) => Err("daemon thread panicked".to_string()),
    }
}

/// Runs one seeded case against a live daemon. Returns `Err(detail)` on
/// an oracle violation.
fn run_case(
    addr: std::net::SocketAddr,
    case_seed: u64,
    deadline: Duration,
    summary: &mut ProtocolSummary,
    ingested: &mut Vec<String>,
) -> Result<&'static str, (&'static str, String)> {
    let mut rng = SmallRng::seed_from_u64(case_seed);
    let scenario = SCENARIOS[rng.gen_range(0..SCENARIOS.len() as u32) as usize];
    let connect = |rng: &mut SmallRng| -> Result<Client, String> {
        let _ = rng; // connection setup draws nothing, kept for symmetry
        let c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
        c.set_timeout(Some(deadline)).map_err(|e| format!("set_timeout: {e}"))?;
        Ok(c)
    };
    let result: Result<(), String> = (|| {
        match scenario {
            "pipelined-burst" => {
                let mut c = connect(&mut rng)?;
                let n = rng.gen_range(1..12u32) as usize;
                for _ in 0..n {
                    let body = random_request(&mut rng, ingested);
                    let text = render_request(&RequestEnvelope::of(body));
                    c.send_frame(text.as_bytes()).map_err(|e| format!("send: {e}"))?;
                    summary.frames_sent += 1;
                }
                drain_responses(&mut c, n, summary)
            }
            "truncated-prefix" => {
                let mut c = connect(&mut rng)?;
                // 1–3 bytes of a length prefix, or a prefix with a
                // partial payload; then vanish.
                let declared = rng.gen_range(1..1024u32);
                let prefix = declared.to_be_bytes();
                let cut = rng.gen_range(1..4u32) as usize;
                let body_bytes = rng.gen_range(0..declared) as usize;
                if rng.gen_bool(0.5) {
                    c.write_bytes(&prefix[..cut]).map_err(|e| format!("write: {e}"))?;
                } else {
                    c.write_bytes(&prefix).map_err(|e| format!("write: {e}"))?;
                    c.write_bytes(&vec![b'x'; body_bytes]).map_err(|e| format!("write: {e}"))?;
                }
                drop(c); // mid-frame disconnect
                Ok(())
            }
            "oversized-prefix" => {
                let mut c = connect(&mut rng)?;
                let over = MAX_FRAME as u64 + 1 + rng.gen_range(0..1_000_000u32) as u64;
                let len = u32::try_from(over).unwrap_or(u32::MAX);
                c.write_bytes(&len.to_be_bytes()).map_err(|e| format!("write: {e}"))?;
                summary.frames_sent += 1;
                // Contract: a well-formed `error` response, then close.
                let frame = c
                    .recv_frame()
                    .map_err(|e| format!("oversized: {e}"))?
                    .ok_or("oversized: closed without the error response")?;
                check_response(&frame)?;
                summary.responses_checked += 1;
                match c.recv_frame() {
                    Ok(None) => Ok(()),
                    Ok(Some(_)) => Err("oversized: server kept talking past the close".into()),
                    // Server-side close can also surface as reset.
                    Err(_) => Ok(()),
                }
            }
            "garbage-payload" => {
                let mut c = connect(&mut rng)?;
                let n = rng.gen_range(1..64u32) as usize;
                let junk: Vec<u8> = (0..n).map(|_| rng.gen_range(0..256u32) as u8).collect();
                summary.frames_sent += 1;
                let resp = c.send_raw(&junk).map_err(|e| format!("garbage: {e}"))?;
                check_response(resp.as_bytes())?;
                summary.responses_checked += 1;
                Ok(())
            }
            "mid-request-disconnect" => {
                let mut c = connect(&mut rng)?;
                // A valid frame, then half of another, then vanish.
                let text = render_request(&RequestEnvelope::of(Request::Ping));
                c.send_frame(text.as_bytes()).map_err(|e| format!("send: {e}"))?;
                summary.frames_sent += 1;
                let text2 = render_request(&RequestEnvelope::of(Request::Stats));
                let bytes = text2.as_bytes();
                let len = (bytes.len() as u32).to_be_bytes();
                c.write_bytes(&len).map_err(|e| format!("write: {e}"))?;
                c.write_bytes(&bytes[..bytes.len() / 2]).map_err(|e| format!("write: {e}"))?;
                drop(c);
                Ok(())
            }
            "slowloris" => {
                let mut c = connect(&mut rng)?;
                let text = render_request(&RequestEnvelope::of(Request::Ping));
                let bytes = text.as_bytes();
                let mut framed = (bytes.len() as u32).to_be_bytes().to_vec();
                framed.extend_from_slice(bytes);
                let complete = rng.gen_bool(0.5);
                let dribble = if complete { framed.len() } else { framed.len() / 2 };
                for &b in &framed[..dribble] {
                    c.write_bytes(&[b]).map_err(|e| format!("dribble: {e}"))?;
                    std::thread::sleep(Duration::from_millis(1));
                }
                if complete {
                    summary.frames_sent += 1;
                    let frame = c
                        .recv_frame()
                        .map_err(|e| format!("slowloris complete: {e}"))?
                        .ok_or("slowloris: completed frame got no response")?;
                    check_response(&frame)?;
                    summary.responses_checked += 1;
                }
                // Incomplete dribblers are the read-deadline sweep's
                // problem; we just leave.
                Ok(())
            }
            "interleaved-conns" => {
                let mut a = connect(&mut rng)?;
                let mut b = connect(&mut rng)?;
                let n = rng.gen_range(1..6u32) as usize;
                let mut owed_a = 0;
                let mut owed_b = 0;
                for _ in 0..n {
                    let body = random_request(&mut rng, ingested);
                    let text = render_request(&RequestEnvelope::of(body));
                    if rng.gen_bool(0.5) {
                        a.send_frame(text.as_bytes()).map_err(|e| format!("send a: {e}"))?;
                        owed_a += 1;
                    } else {
                        b.send_frame(text.as_bytes()).map_err(|e| format!("send b: {e}"))?;
                        owed_b += 1;
                    }
                    summary.frames_sent += 1;
                }
                drain_responses(&mut a, owed_a, summary)?;
                drain_responses(&mut b, owed_b, summary)
            }
            _ => unreachable!(),
        }
    })();
    match result {
        Ok(()) => Ok(scenario),
        Err(detail) => Err((scenario, detail)),
    }
}

/// Fresh-connection liveness probe (oracle rule 2 between cases).
fn probe(addr: std::net::SocketAddr, deadline: Duration) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
    c.set_timeout(Some(deadline)).map_err(|e| format!("probe timeout: {e}"))?;
    c.call_expect(Request::Ping, "pong").map_err(|e| format!("probe ping: {e}"))?;
    Ok(())
}

/// Runs a full seeded campaign against one in-process daemon.
pub fn run_protocol_campaign(cfg: &ProtocolCampaignConfig) -> ProtocolSummary {
    let mut summary = ProtocolSummary { cases: cfg.cases, ..ProtocolSummary::default() };
    let mut counts: Vec<(&'static str, u64)> = SCENARIOS.iter().map(|&s| (s, 0)).collect();
    let harness = match start_daemon(cfg) {
        Ok(h) => h,
        Err(e) => {
            summary.failures.push(ProtocolFailure {
                case: 0,
                case_seed: cfg.seed,
                scenario: "startup",
                detail: format!("daemon failed to start: {e}"),
            });
            return summary;
        }
    };
    let mut ingested: Vec<String> = Vec::new();
    for case in 0..cfg.cases {
        let case_seed = iteration_seed(cfg.seed, case);
        match run_case(harness.addr, case_seed, cfg.deadline, &mut summary, &mut ingested) {
            Ok(scenario) => {
                if let Some(c) = counts.iter_mut().find(|(s, _)| *s == scenario) {
                    c.1 += 1;
                }
            }
            Err((scenario, detail)) => {
                if let Some(c) = counts.iter_mut().find(|(s, _)| *s == scenario) {
                    c.1 += 1;
                }
                record_failure(cfg, &mut summary, case, case_seed, scenario, detail);
            }
        }
        // After transport-abuse scenarios, assert the daemon still
        // serves a clean connection.
        if case % 16 == 15 {
            if let Err(detail) = probe(harness.addr, cfg.deadline) {
                record_failure(cfg, &mut summary, case, case_seed, "liveness-probe", detail);
                break;
            }
        }
    }
    // Graceful shutdown and a bounded join complete oracle rules 1–2.
    match Client::connect(harness.addr) {
        Ok(mut c) => {
            let _ = c.set_timeout(Some(cfg.deadline));
            if let Err(e) = c.call_expect(Request::Shutdown, "bye") {
                record_failure(cfg, &mut summary, cfg.cases, cfg.seed, "shutdown", e);
            }
        }
        Err(e) => {
            record_failure(
                cfg,
                &mut summary,
                cfg.cases,
                cfg.seed,
                "shutdown",
                format!("connect for shutdown: {e}"),
            );
        }
    }
    if let Err(detail) = join_with_deadline(harness.handle, cfg.deadline) {
        record_failure(cfg, &mut summary, cfg.cases, cfg.seed, "join", detail);
    }
    summary.scenario_counts = counts;
    summary
}

fn record_failure(
    cfg: &ProtocolCampaignConfig,
    summary: &mut ProtocolSummary,
    case: usize,
    case_seed: u64,
    scenario: &'static str,
    detail: String,
) {
    if let Some(dir) = &cfg.corpus_dir {
        let _ = std::fs::create_dir_all(dir);
        let path = dir.join(format!("proto_{case_seed:016x}.txt"));
        let body = format!(
            "scenario: {scenario}\ncase: {case}\ncase_seed: {case_seed}\n\
             campaign_seed: {}\ndetail: {detail}\n\
             replay: f3m-fuzz::protocol::replay_case({case_seed})\n",
            cfg.seed
        );
        let _ = std::fs::write(path, body);
    }
    summary.failures.push(ProtocolFailure { case, case_seed, scenario, detail });
}

/// Replays a single case seed against a fresh daemon — the reproducer
/// entry point used by the checked-in corpus tests. Returns the
/// scenario the seed maps to.
pub fn replay_case(case_seed: u64) -> Result<&'static str, String> {
    let cfg = ProtocolCampaignConfig::default();
    let harness = start_daemon(&cfg).map_err(|e| format!("daemon failed to start: {e}"))?;
    let mut summary = ProtocolSummary::default();
    let mut ingested = Vec::new();
    let outcome = run_case(harness.addr, case_seed, cfg.deadline, &mut summary, &mut ingested);
    let live = probe(harness.addr, cfg.deadline);
    let mut c = Client::connect(harness.addr).map_err(|e| format!("shutdown connect: {e}"))?;
    let _ = c.set_timeout(Some(cfg.deadline));
    c.call_expect(Request::Shutdown, "bye").map_err(|e| format!("shutdown: {e}"))?;
    join_with_deadline(harness.handle, cfg.deadline)?;
    let scenario = outcome.map_err(|(scenario, detail)| format!("{scenario}: {detail}"))?;
    live?;
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_campaign_is_clean_and_deterministic() {
        let cfg = ProtocolCampaignConfig { cases: 24, seed: 7, ..Default::default() };
        let a = run_protocol_campaign(&cfg);
        assert!(a.failures.is_empty(), "failures: {:?}", a.failures);
        assert!(a.frames_sent > 0);
        assert!(a.responses_checked > 0);
        let b = run_protocol_campaign(&cfg);
        // Scenario draws are a pure function of the seed.
        assert_eq!(a.scenario_counts, b.scenario_counts);
        assert_eq!(a.frames_sent, b.frames_sent);
    }

    #[test]
    fn contained_panic_is_a_finding_other_errors_are_not() {
        use f3m_serve::protocol::{render_response, Response};
        let error =
            |message: &str| render_response(None, &Response::Error { message: message.into() });
        assert!(check_response(error("unknown request type `x`").as_bytes()).is_ok());
        let caught = check_response(error("internal panic handling `update`").as_bytes());
        assert!(caught.unwrap_err().contains("worker panicked"));
    }

    #[test]
    fn non_ascii_requests_survive_the_wire_and_name_nothing() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..64 {
            let req = with_non_ascii_strings(random_request(&mut rng, &mut Vec::new()), &mut rng);
            let names: Vec<&str> = match &req {
                Request::Ingest { name, .. } => vec![name.as_deref().unwrap()],
                Request::Evict { name } => vec![name],
                Request::Update { module, func, ir } => vec![module, func, ir.as_deref().unwrap()],
                Request::Query { module, .. } => vec![module],
                other => panic!("a {} request carries no string field", other.type_name()),
            };
            assert!(names.iter().all(|s| !s.is_ascii()), "{names:?}");
            let text = render_request(&RequestEnvelope::of(req.clone()));
            let parsed = f3m_serve::protocol::parse_request(text.as_bytes()).unwrap();
            assert_eq!(parsed.body, req, "{text}");
        }
    }

    #[test]
    fn replay_single_case_succeeds() {
        let seed = iteration_seed(7, 3);
        replay_case(seed).expect("replay should pass");
    }

    #[test]
    fn summary_json_shape() {
        let s = ProtocolSummary {
            cases: 2,
            frames_sent: 5,
            responses_checked: 4,
            failures: vec![ProtocolFailure {
                case: 1,
                case_seed: 42,
                scenario: "slowloris",
                detail: "x \"quoted\"".into(),
            }],
            scenario_counts: vec![("slowloris", 2)],
        };
        let j = s.to_json();
        assert!(j.contains("\"cases\":2"));
        assert!(j.contains("\"slowloris\":2"));
        assert!(j.contains("\"case_seed\":42"));
    }
}
