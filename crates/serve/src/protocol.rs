//! The wire protocol: length-prefixed JSON frames and the typed
//! request/response vocabulary.
//!
//! ## Framing
//!
//! Every message is one frame: a 4-byte big-endian payload length
//! followed by exactly that many bytes of UTF-8 JSON. Lengths above
//! [`MAX_FRAME`] are rejected before any payload is read, so a malicious
//! or corrupt prefix cannot make the server allocate unboundedly.
//!
//! ## Grammar
//!
//! Requests are JSON objects dispatched on `"type"`:
//!
//! ```json
//! {"type":"ingest","ir":"module \"m\" { ... }","name":"m2"}
//! {"type":"evict","name":"m"}
//! {"type":"query","module":"m","func":"f0_0","k":3,"if_epoch":7}
//! {"type":"update","module":"m","func":"f0_0","ir":"module \"p\" { ... }"}
//! {"type":"merge","strategy":"f3m","jobs":2}
//! {"type":"global_merge","jobs":2,"if_epoch":7}
//! {"type":"stats"}  {"type":"ping"}  {"type":"shutdown"}
//! {"type":"sleep","ms":100}
//! ```
//!
//! `update` replaces one resident function's body in place (no module
//! evict; only the changed function is re-fingerprinted and only the
//! memoized rankings the edit could change are invalidated); omitting
//! `"ir"` makes it a *touch* — re-fingerprint and run the same
//! invalidation test without changing IR. A
//! `query` carrying `"if_epoch"` is answered with `superseded` instead
//! of candidates when the corpus epoch has moved past that value — the
//! incremental client's cheap way to notice its snapshot is stale.
//! `global_merge` runs the two-phase cross-module
//! [`GlobalMergePlanner`](f3m_core::GlobalMergePlanner) over the whole
//! resident corpus; it honours `"if_epoch"` with the same `superseded`
//! semantics as `query` (both before planning and after — a mutation
//! that lands while the planner runs supersedes the stale plan rather
//! than publishing it).
//!
//! Any request may carry `"id"` (an opaque integer echoed in the
//! response, for correlating pipelined requests) and `"deadline_ms"`
//! (maximum queue wait; expired requests answer an error instead of
//! occupying a worker). Responses mirror the request types (`ingested`,
//! `evicted`, `candidates`, `updated`, `report`, `stats`, `pong`,
//! `slept`, `bye`), plus `superseded` — the answer to a stale `if_epoch`
//! and to a `global_merge` plan a mutation raced, never to a query the
//! daemon cancelled (every corpus read is one critical section, so none
//! is) — and three refusals:
//!
//! - `busy` — the bounded queue itself was full at enqueue time. Carries
//!   the observed `queue_depth` and a monotone `shed_seq` so a client
//!   (or a test) can order refusals and prove a retry-after-drain
//!   succeeded.
//! - `overloaded` — the admission controller refused *before* touching
//!   the queue (queue-depth or in-flight thresholds exceeded). Carries
//!   `queue_depth`, `in_flight`, `shed_seq` and a `retry_after_ms` hint.
//! - `error` — parse or handler failure, with a `message`.
//!
//! All response rendering uses fixed field order, so responses to the
//! same corpus state are byte-identical — the determinism tests compare
//! raw frames across `--jobs` settings.

use std::io::{Read, Write};

use f3m_core::corpus::{
    CorpusStats, EvictSummary, IngestSummary, QueryResult, UpdateSummary, CORPUS_STATS,
};
use f3m_trace::json::{self, Json, Writer};
use f3m_trace::stats::{self, Stat, Value::*};

/// Maximum frame payload size (64 MiB) — comfortably above any workload
/// module text, far below memory exhaustion.
pub const MAX_FRAME: u32 = 64 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Transport error, including truncation mid-frame.
    Io(std::io::Error),
    /// The length prefix exceeded [`MAX_FRAME`].
    Oversized(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io: {e}"),
            FrameError::Oversized(n) => {
                write!(f, "frame length {n} exceeds maximum {MAX_FRAME}")
            }
        }
    }
}

/// Writes one frame (length prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "payload exceeds u32")
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` on clean EOF at a frame boundary;
/// truncation mid-frame is an [`FrameError::Io`] with `UnexpectedEof`.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    // A clean close between frames shows up as EOF on the first byte.
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(FrameError::Io(e)),
    }
    r.read_exact(&mut len_buf[1..]).map_err(FrameError::Io)?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    Ok(Some(payload))
}

/// A request body.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Register a module (IR text). `name` overrides the module's own
    /// name as the corpus qualification prefix.
    Ingest { name: Option<String>, ir: String },
    /// Drop a resident module.
    Evict { name: String },
    /// Top-k candidates for one function (`func` set) or every function
    /// of a module (`func` absent). With `if_epoch` set, answered
    /// `superseded` when the corpus epoch no longer matches.
    Query { module: String, func: Option<String>, k: usize, if_epoch: Option<u64> },
    /// Replace one resident function's body (`ir` set) or merely touch
    /// it (`ir` absent): re-fingerprint, invalidate the rankings the
    /// edit could change, leave the rest of the module resident.
    Update { module: String, func: String, ir: Option<String> },
    /// Run the full pass over the combined resident corpus.
    Merge { strategy: String, jobs: Option<usize> },
    /// Run the two-phase cross-module global merge planner over the
    /// resident corpus. With `if_epoch` set, answered `superseded` when
    /// the corpus epoch no longer matches (checked both before planning
    /// and again before publishing the result).
    GlobalMerge { jobs: Option<usize>, if_epoch: Option<u64> },
    Stats,
    Ping,
    /// Hold a worker for `ms` milliseconds (testing aid for backpressure
    /// and deadline behaviour).
    Sleep { ms: u64 },
    /// Graceful shutdown: drain the queue, flush metrics, exit 0.
    Shutdown,
}

impl Request {
    /// The wire `"type"` tag.
    pub fn type_name(&self) -> &'static str {
        match self {
            Request::Ingest { .. } => "ingest",
            Request::Evict { .. } => "evict",
            Request::Query { .. } => "query",
            Request::Update { .. } => "update",
            Request::Merge { .. } => "merge",
            Request::GlobalMerge { .. } => "global_merge",
            Request::Stats => "stats",
            Request::Ping => "ping",
            Request::Sleep { .. } => "sleep",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A request plus its per-request metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestEnvelope {
    /// Echoed verbatim in the response, if present.
    pub id: Option<u64>,
    /// Maximum time the request may wait in the queue before being
    /// answered with an error instead of processed.
    pub deadline_ms: Option<u64>,
    pub body: Request,
}

impl RequestEnvelope {
    /// Bare envelope (no id, no deadline).
    pub fn of(body: Request) -> RequestEnvelope {
        RequestEnvelope { id: None, deadline_ms: None, body }
    }
}

/// Default `k` for `query` requests that omit it.
pub const DEFAULT_QUERY_K: usize = 3;

/// Parses a request frame payload.
///
/// # Errors
///
/// Returns a message naming the first syntax or schema problem; the
/// server relays it in an `error` response rather than dropping the
/// connection.
pub fn parse_request(payload: &[u8]) -> Result<RequestEnvelope, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "request is not UTF-8".to_string())?;
    let v = json::parse(text)?;
    let ty = v.get("type").and_then(Json::as_str).ok_or("missing `type` field")?;
    let str_field = |name: &str| -> Result<String, String> {
        v.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("`{ty}` request: missing string field `{name}`"))
    };
    let opt_str = |name: &str| v.get(name).and_then(Json::as_str).map(str::to_string);
    let opt_u64 = |name: &str| -> Result<Option<u64>, String> {
        match v.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(x) => x
                .as_u64()
                .map(Some)
                .ok_or(format!("`{ty}` request: `{name}` must be a non-negative integer")),
        }
    };
    let body = match ty {
        "ingest" => Request::Ingest { name: opt_str("name"), ir: str_field("ir")? },
        "evict" => Request::Evict { name: str_field("name")? },
        "query" => Request::Query {
            module: str_field("module")?,
            func: opt_str("func"),
            k: opt_u64("k")?.map(|k| k as usize).unwrap_or(DEFAULT_QUERY_K),
            if_epoch: opt_u64("if_epoch")?,
        },
        "update" => Request::Update {
            module: str_field("module")?,
            func: str_field("func")?,
            ir: opt_str("ir"),
        },
        "merge" => Request::Merge {
            strategy: opt_str("strategy").unwrap_or_else(|| "f3m".to_string()),
            jobs: opt_u64("jobs")?.map(|j| j as usize),
        },
        "global_merge" => Request::GlobalMerge {
            jobs: opt_u64("jobs")?.map(|j| j as usize),
            if_epoch: opt_u64("if_epoch")?,
        },
        "stats" => Request::Stats,
        "ping" => Request::Ping,
        "sleep" => Request::Sleep {
            ms: opt_u64("ms")?.ok_or("`sleep` request: missing `ms`")?,
        },
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown request type `{other}`")),
    };
    Ok(RequestEnvelope { id: opt_u64("id")?, deadline_ms: opt_u64("deadline_ms")?, body })
}

/// Writes `"key":value` when the optional field is set.
fn opt_u64(w: &mut Writer, key: &str, v: Option<u64>) {
    if let Some(v) = v {
        w.key(key).u64(v);
    }
}

fn opt_str(w: &mut Writer, key: &str, v: &Option<String>) {
    if let Some(v) = v {
        w.key(key).str(v);
    }
}

/// Renders a request envelope (the client half of the round trip).
pub fn render_request(env: &RequestEnvelope) -> String {
    let mut w = Writer::with_capacity(64);
    w.begin_object().key("type").str(env.body.type_name());
    opt_u64(&mut w, "id", env.id);
    opt_u64(&mut w, "deadline_ms", env.deadline_ms);
    match &env.body {
        Request::Ingest { name, ir } => {
            opt_str(&mut w, "name", name);
            w.key("ir").str(ir);
        }
        Request::Evict { name } => {
            w.key("name").str(name);
        }
        Request::Query { module, func, k, if_epoch } => {
            w.key("module").str(module);
            opt_str(&mut w, "func", func);
            w.key("k").raw(k);
            opt_u64(&mut w, "if_epoch", *if_epoch);
        }
        Request::Update { module, func, ir } => {
            w.key("module").str(module).key("func").str(func);
            opt_str(&mut w, "ir", ir);
        }
        Request::Merge { strategy, jobs } => {
            w.key("strategy").str(strategy);
            opt_u64(&mut w, "jobs", jobs.map(|j| j as u64));
        }
        Request::GlobalMerge { jobs, if_epoch } => {
            opt_u64(&mut w, "jobs", jobs.map(|j| j as u64));
            opt_u64(&mut w, "if_epoch", *if_epoch);
        }
        Request::Sleep { ms } => {
            w.key("ms").u64(*ms);
        }
        Request::Stats | Request::Ping | Request::Shutdown => {}
    }
    w.end_object();
    w.finish()
}

/// Server-side request/work counters included in `stats` responses and
/// the exported metrics.
///
/// Everything here except `readiness_wakeups` is a pure function of the
/// request history for a synchronous single-connection client, so the
/// `stats` rendering below is part of the daemon's determinism key (the
/// byte-identity tests compare raw stats frames across `--jobs`
/// settings). `readiness_wakeups` counts poller returns — pure timing —
/// and is therefore exported only through the wall-clock-tagged metrics
/// artefact, never rendered into a response.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerCounters {
    /// Completed requests by type, in the fixed order of
    /// [`REQUEST_TYPES`].
    pub requests: [u64; REQUEST_TYPES.len()],
    /// Requests refused with `busy` (bounded queue full).
    pub rejects_busy: u64,
    /// Requests expired in the queue past their `deadline_ms`.
    pub rejects_deadline: u64,
    /// Requests answered with an `error` response (parse or handler).
    pub errors: u64,
    /// Highest queue depth observed.
    pub queue_depth_hwm: u64,
    /// Currently open connections.
    pub conns_open: u64,
    /// Highest simultaneous connection count observed.
    pub conns_open_hwm: u64,
    /// Connections accepted over the daemon's lifetime.
    pub conns_total: u64,
    /// Complete frames reassembled from the byte stream.
    pub frames_reassembled: u64,
    /// Requests refused with `overloaded` by the admission controller.
    pub sheds: u64,
    /// Connections dropped by the read-deadline (slowloris) or idle
    /// sweeps.
    pub slow_closes: u64,
    /// Poller wakeups that delivered at least one readiness event.
    /// Timing-dependent: metrics artefact only, never in `stats`.
    pub readiness_wakeups: u64,
}

/// Every [`ServerCounters`] counter, in `stats` response order; the one
/// place a counter is named besides its field. The metrics artefact tags
/// only the request history deterministic — how full the queue got, what
/// was refused or shed and connection churn all depend on timing there.
pub const SERVER_COUNTERS: &[Stat<ServerCounters>] = &[
    Stat::det("requests", "requests", |c| {
        Map(REQUEST_TYPES.iter().copied().zip(c.requests).collect())
    }),
    Stat::wall("rejects_busy", "count", |c| Count(c.rejects_busy)),
    Stat::wall("rejects_deadline", "count", |c| Count(c.rejects_deadline)),
    Stat::det("errors", "count", |c| Count(c.errors)),
    Stat::wall("queue_depth_hwm", "count", |c| Count(c.queue_depth_hwm)),
    Stat::wall("conns_open", "count", |c| Count(c.conns_open)),
    Stat::wall("conns_open_hwm", "count", |c| Count(c.conns_open_hwm)),
    Stat::wall("conns_total", "count", |c| Count(c.conns_total)),
    Stat::wall("frames_reassembled", "count", |c| Count(c.frames_reassembled)),
    Stat::wall("sheds", "count", |c| Count(c.sheds)),
    Stat::wall("slow_closes", "count", |c| Count(c.slow_closes)),
    Stat::new("", "readiness_wakeups", "count", false, 1, |c| Count(c.readiness_wakeups)),
];

/// Wire request types in counter order.
pub const REQUEST_TYPES: &[&str] = &[
    "ingest",
    "evict",
    "query",
    "update",
    "merge",
    "global_merge",
    "stats",
    "ping",
    "sleep",
    "shutdown",
];

impl ServerCounters {
    /// Bumps the per-type completion counter.
    pub fn count_request(&mut self, type_name: &str) {
        if let Some(i) = REQUEST_TYPES.iter().position(|t| *t == type_name) {
            self.requests[i] += 1;
        }
    }
}

/// A response body. Rendering (see [`render_response`]) uses fixed field
/// order and deterministic number formatting.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    Ingested(IngestSummary),
    Evicted(EvictSummary),
    Updated(UpdateSummary),
    Candidates { epoch: u64, results: Vec<QueryResult> },
    /// A request pinned at epoch `started` — by its `if_epoch`, or by the
    /// candidates a global plan was drawn from — was overtaken by a
    /// mutation; `epoch` is current.
    Superseded { started: u64, epoch: u64 },
    /// `report` is the pre-rendered `MergeReport::to_json` object (spliced
    /// verbatim; the pass serializer already emits deterministic JSON).
    Report { epoch: u64, report: String },
    /// Boxed: the two stat blocks dwarf every other variant, and
    /// responses spend their life behind one match before rendering.
    Stats { corpus: Box<CorpusStats>, server: Box<ServerCounters> },
    Pong,
    Slept { ms: u64 },
    Bye,
    /// The bounded queue was full (or closed during shutdown) when this
    /// request reached it.
    Busy { queue_depth: u64, shed_seq: u64 },
    /// The admission controller refused before the queue was attempted:
    /// queue-depth or in-flight thresholds exceeded, or this connection
    /// has too many requests in flight.
    Overloaded { queue_depth: u64, in_flight: u64, shed_seq: u64, retry_after_ms: u64 },
    Error { message: String },
}

impl Response {
    /// The wire `"type"` tag.
    pub fn type_name(&self) -> &'static str {
        match self {
            Response::Ingested(_) => "ingested",
            Response::Evicted(_) => "evicted",
            Response::Updated(_) => "updated",
            Response::Candidates { .. } => "candidates",
            Response::Superseded { .. } => "superseded",
            Response::Report { .. } => "report",
            Response::Stats { .. } => "stats",
            Response::Pong => "pong",
            Response::Slept { .. } => "slept",
            Response::Bye => "bye",
            Response::Busy { .. } => "busy",
            Response::Overloaded { .. } => "overloaded",
            Response::Error { .. } => "error",
        }
    }
}

/// Renders a response, echoing the request `id` when present.
pub fn render_response(id: Option<u64>, resp: &Response) -> String {
    let mut w = Writer::with_capacity(128);
    w.begin_object().key("type").str(resp.type_name());
    opt_u64(&mut w, "id", id);
    match resp {
        Response::Ingested(s) => {
            w.key("module").str(&s.module).key("functions").raw(s.functions);
            w.key("skipped").raw(s.skipped).key("epoch").u64(s.epoch);
        }
        Response::Evicted(s) => {
            w.key("module").str(&s.module).key("functions").raw(s.functions);
            w.key("epoch").u64(s.epoch);
        }
        Response::Updated(s) => {
            w.key("module").str(&s.module).key("func").str(&s.func).key("epoch").u64(s.epoch);
            w.key("changed").bool(s.changed).key("funcs_invalidated").u64(s.funcs_invalidated);
        }
        Response::Superseded { started, epoch } => {
            w.key("started").u64(*started).key("epoch").u64(*epoch);
        }
        Response::Candidates { epoch, results } => {
            w.key("epoch").u64(*epoch).key("results").begin_array();
            for r in results {
                w.begin_object().key("func").str(&r.func).key("candidates").begin_array();
                for c in &r.candidates {
                    w.begin_object().key("func").str(&c.func);
                    w.key("similarity").f64(c.similarity).end_object();
                }
                w.end_array().end_object();
            }
            w.end_array();
        }
        Response::Report { epoch, report } => {
            w.key("epoch").u64(*epoch).key("report").raw(report);
        }
        Response::Stats { corpus, server } => {
            stats::write_object(w.key("corpus"), CORPUS_STATS, corpus);
            stats::write_object(w.key("server"), SERVER_COUNTERS, server);
        }
        Response::Slept { ms } => {
            w.key("ms").u64(*ms);
        }
        Response::Busy { queue_depth, shed_seq } => {
            w.key("queue_depth").u64(*queue_depth).key("shed_seq").u64(*shed_seq);
        }
        Response::Overloaded { queue_depth, in_flight, shed_seq, retry_after_ms } => {
            w.key("queue_depth").u64(*queue_depth).key("in_flight").u64(*in_flight);
            w.key("shed_seq").u64(*shed_seq).key("retry_after_ms").u64(*retry_after_ms);
        }
        Response::Error { message } => {
            w.key("message").str(message);
        }
        Response::Pong | Response::Bye => {}
    }
    w.end_object();
    w.finish()
}

/// Parses a response frame into generic [`Json`] (clients pick fields
/// out of the document rather than reconstructing typed values).
pub fn parse_response(payload: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "response is not UTF-8".to_string())?;
    json::parse(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_render_parse_round_trips_every_type() {
        let reqs = [
            RequestEnvelope {
                id: Some(7),
                deadline_ms: Some(250),
                body: Request::Ingest {
                    name: Some("m2".into()),
                    ir: "module \"m\" {\n}\n".into(),
                },
            },
            RequestEnvelope::of(Request::Ingest { name: None, ir: "x".into() }),
            RequestEnvelope::of(Request::Evict { name: "m".into() }),
            RequestEnvelope {
                id: Some(1),
                deadline_ms: None,
                body: Request::Query {
                    module: "m".into(),
                    func: Some("f".into()),
                    k: 5,
                    if_epoch: None,
                },
            },
            RequestEnvelope::of(Request::Query {
                module: "m".into(),
                func: None,
                k: 3,
                if_epoch: Some(12),
            }),
            RequestEnvelope::of(Request::Update {
                module: "m".into(),
                func: "f".into(),
                ir: Some("module \"p\" {\n}\n".into()),
            }),
            RequestEnvelope::of(Request::Update { module: "m".into(), func: "f".into(), ir: None }),
            RequestEnvelope::of(Request::Merge { strategy: "f3m".into(), jobs: Some(2) }),
            RequestEnvelope::of(Request::Merge { strategy: "hyfm".into(), jobs: None }),
            RequestEnvelope::of(Request::GlobalMerge { jobs: Some(2), if_epoch: Some(9) }),
            RequestEnvelope::of(Request::GlobalMerge { jobs: None, if_epoch: None }),
            RequestEnvelope::of(Request::Stats),
            RequestEnvelope::of(Request::Ping),
            RequestEnvelope::of(Request::Sleep { ms: 12 }),
            RequestEnvelope::of(Request::Shutdown),
        ];
        for req in reqs {
            let text = render_request(&req);
            let parsed = parse_request(text.as_bytes()).unwrap();
            assert_eq!(parsed, req, "round trip failed for {text}");
        }
    }

    #[test]
    fn query_k_defaults_when_omitted() {
        let env = parse_request(br#"{"type":"query","module":"m"}"#).unwrap();
        assert_eq!(
            env.body,
            Request::Query { module: "m".into(), func: None, k: DEFAULT_QUERY_K, if_epoch: None }
        );
    }

    #[test]
    fn update_without_ir_is_a_touch() {
        let env = parse_request(br#"{"type":"update","module":"m","func":"f"}"#).unwrap();
        assert_eq!(env.body, Request::Update { module: "m".into(), func: "f".into(), ir: None });
        assert!(parse_request(br#"{"type":"update","module":"m"}"#).is_err(), "func is required");
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        for bad in [
            &b"not json"[..],
            b"{}",
            b"{\"type\":\"warp\"}",
            b"{\"type\":\"evict\"}",
            b"{\"type\":\"query\"}",
            b"{\"type\":\"sleep\"}",
            b"{\"type\":\"query\",\"module\":\"m\",\"k\":-1}",
            b"{\"type\":\"ping\",\"id\":1.5}",
            b"\xff\xfe",
        ] {
            assert!(parse_request(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn response_rendering_round_trips_through_json() {
        use f3m_core::corpus::RankedCandidate;
        let resps = [
            Response::Ingested(IngestSummary {
                module: "m".into(),
                functions: 9,
                skipped: 1,
                epoch: 3,
            }),
            Response::Evicted(EvictSummary { module: "m".into(), functions: 9, epoch: 4 }),
            Response::Updated(UpdateSummary {
                module: "m".into(),
                func: "f".into(),
                epoch: 6,
                changed: true,
                funcs_invalidated: 4,
            }),
            Response::Superseded { started: 5, epoch: 7 },
            Response::Candidates {
                epoch: 4,
                results: vec![QueryResult {
                    func: "m.f".into(),
                    candidates: vec![RankedCandidate { func: "m.g".into(), similarity: 0.75 }],
                }],
            },
            Response::Report { epoch: 2, report: "{\"stats\":{},\"attempts\":[]}".into() },
            Response::Stats {
                corpus: Box::new(CorpusStats {
                    epoch: 5,
                    modules_live: 2,
                    modules_total: 3,
                    functions_live: 18,
                    entries_total: 27,
                    index_buckets: 40,
                    index_max_bucket: 4,
                    memo_hits: 11,
                    memo_misses: 5,
                    funcs_invalidated: 3,
                    funcs_spared: 7,
                    queries_superseded: 1,
                    sketch_comparisons: 30,
                    full_comparisons: 4,
                    resident_pager: Some("file"),
                    resident_bytes: 4096,
                    shard_faults: 2,
                    shard_spills: 1,
                }),
                server: Box::new(ServerCounters { rejects_busy: 1, ..Default::default() }),
            },
            Response::Pong,
            Response::Slept { ms: 5 },
            Response::Bye,
            Response::Busy { queue_depth: 7, shed_seq: 3 },
            Response::Overloaded { queue_depth: 8, in_flight: 12, shed_seq: 4, retry_after_ms: 25 },
            Response::Error { message: "boom \"quoted\"".into() },
        ];
        for resp in &resps {
            let text = render_response(Some(9), resp);
            let v = parse_response(text.as_bytes()).unwrap();
            assert_eq!(v.get("type").and_then(Json::as_str), Some(resp.type_name()), "{text}");
            assert_eq!(v.get("id").and_then(Json::as_u64), Some(9), "{text}");
        }
        // Spot-check nested payloads survive.
        let cand = render_response(None, &resps[4]);
        let v = parse_response(cand.as_bytes()).unwrap();
        let results = v.get("results").and_then(Json::as_array).unwrap();
        assert_eq!(results[0].get("func").and_then(Json::as_str), Some("m.f"));
        let c0 = &results[0].get("candidates").and_then(Json::as_array).unwrap()[0];
        assert_eq!(c0.get("similarity").and_then(Json::as_f64), Some(0.75));
        let up = render_response(None, &resps[2]);
        let v = parse_response(up.as_bytes()).unwrap();
        assert_eq!(v.get("changed").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("funcs_invalidated").and_then(Json::as_u64), Some(4));
        let sup = render_response(None, &resps[3]);
        let v = parse_response(sup.as_bytes()).unwrap();
        assert_eq!(v.get("started").and_then(Json::as_u64), Some(5));
        assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(7));
        let stats = render_response(None, &resps[6]);
        let v = parse_response(stats.as_bytes()).unwrap();
        let corpus = v.get("corpus").unwrap();
        assert_eq!(corpus.get("memo_hits").and_then(Json::as_u64), Some(11));
        assert_eq!(corpus.get("queries_superseded").and_then(Json::as_u64), Some(1));
        assert_eq!(corpus.get("resident_pager").and_then(Json::as_str), Some("file"));
        assert_eq!(corpus.get("resident_bytes").and_then(Json::as_u64), Some(4096));
        assert_eq!(corpus.get("shard_faults").and_then(Json::as_u64), Some(2));
        assert_eq!(corpus.get("shard_spills").and_then(Json::as_u64), Some(1));
        let err = render_response(None, &resps[12]);
        let v = parse_response(err.as_bytes()).unwrap();
        assert_eq!(v.get("message").and_then(Json::as_str), Some("boom \"quoted\""));
        // Refusals carry their observability payloads.
        let busy = render_response(None, &resps[10]);
        let v = parse_response(busy.as_bytes()).unwrap();
        assert_eq!(v.get("queue_depth").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("shed_seq").and_then(Json::as_u64), Some(3));
        let over = render_response(None, &resps[11]);
        let v = parse_response(over.as_bytes()).unwrap();
        assert_eq!(v.get("in_flight").and_then(Json::as_u64), Some(12));
        assert_eq!(v.get("retry_after_ms").and_then(Json::as_u64), Some(25));
        // New server counters ride the stats response (deterministic
        // subset only — readiness_wakeups is timing and must NOT leak).
        let stats = render_response(None, &resps[6]);
        for key in
            ["conns_open", "conns_open_hwm", "conns_total", "frames_reassembled", "sheds",
             "slow_closes"]
        {
            assert!(stats.contains(&format!("\"{key}\":")), "stats missing {key}: {stats}");
        }
        assert!(
            !stats.contains("readiness_wakeups"),
            "timing-dependent counter leaked into the deterministic stats response"
        );
    }

    #[test]
    fn frames_round_trip_and_reject_oversized_and_truncated() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"type\":\"ping\"}").unwrap();
        write_frame(&mut buf, b"{}").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"type\":\"ping\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{}");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF at boundary");

        // Oversized prefix: rejected before any payload allocation.
        let huge = (MAX_FRAME + 1).to_be_bytes();
        match read_frame(&mut &huge[..]) {
            Err(FrameError::Oversized(n)) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("expected Oversized, got {other:?}"),
        }

        // Truncated payload: io error, not a hang or panic.
        let mut trunc = Vec::new();
        trunc.extend_from_slice(&10u32.to_be_bytes());
        trunc.extend_from_slice(b"abc");
        match read_frame(&mut &trunc[..]) {
            Err(FrameError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof)
            }
            other => panic!("expected Io, got {other:?}"),
        }

        // Truncated length prefix itself.
        let stub = [0u8, 0];
        assert!(matches!(read_frame(&mut &stub[..]), Err(FrameError::Io(_))));
    }
}
