//! The daemon: a readiness-driven event loop, admission control, a
//! worker pool, and graceful shutdown.
//!
//! ## Threading model
//!
//! One event-loop thread (the caller of [`Server::run`]) owns the
//! listener, every connection, and all socket I/O; a fixed pool of
//! `jobs` workers owns all corpus work. Nothing else touches a socket:
//!
//! - the event loop accepts, reassembles length-prefixed frames from
//!   non-blocking reads ([`crate::conn`]), parses requests, runs the
//!   admission controller, and pushes accepted jobs onto the shared
//!   [`BoundedQueue`];
//! - workers pop, execute against the resident corpus, render the
//!   response, and hand the bytes back through a completion list plus a
//!   [`Waker`] nudge;
//! - the event loop appends completions to the owed connection's write
//!   buffer and flushes under writable readiness.
//!
//! Because exactly one thread writes any socket, responses never
//! interleave bytes — no per-connection write mutex exists anymore.
//!
//! ## Fairness
//!
//! Connections are parsed round-robin with a per-turn frame budget
//! ([`FRAMES_PER_TURN`]), so a client that pipelines thousands of frames
//! advances at most a few requests per turn while others proceed. The
//! per-connection in-flight cap converts the rest of the flood into
//! `overloaded` sheds charged to the flooding connection.
//!
//! ## Admission control and refusals
//!
//! [`Admission`] decides before the queue is touched: queue-depth and
//! global in-flight thresholds (off by default, on in the fairness tests)
//! and the per-connection cap produce `overloaded`
//! responses with a `retry_after_ms` hint; a literal queue-full produces
//! `busy`. Both carry the queue depth and a shared monotone `shed_seq`.
//!
//! ## Deadlines
//!
//! The deadline sweep runs every poller tick: a connection dribbling an
//! incomplete frame for longer than `read_deadline_ms` (slowloris) or
//! sitting completely idle past `idle_timeout_ms` is dropped and counted
//! in `slow_closes`. Per-request `deadline_ms` (queue wait) is enforced
//! by workers exactly as before.
//!
//! ## Ordering and determinism
//!
//! The queue is FIFO; with more than one worker, pipelined requests may
//! complete out of order — correlate by `id`. A synchronous client
//! observes fully deterministic behaviour: corpus transitions are
//! totally ordered and response rendering is fixed-order, so the same
//! request sequence is byte-identical at any `--jobs` setting and under
//! either poller backend.
//!
//! ## Shutdown
//!
//! `shutdown` rides the queue like any request: its handler closes the
//! queue (late arrivals get `busy`) and answers `bye`. Workers drain the
//! residue and exit; the event loop keeps flushing until every accepted
//! request's response has been written (bounded by
//! [`DRAIN_FLUSH_DEADLINE`], after which stragglers count as
//! `slow_closes`), then [`Server::run`] joins the workers, flushes
//! metrics/trace artefacts, and returns `Ok(())`.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use f3m_core::corpus::{Corpus, CorpusConfig, CORPUS_STATS};
use f3m_core::{global_merge, GlobalPlanConfig};
use f3m_fingerprint::adaptive::MergeParams;
use f3m_fingerprint::backend::BackendKind;
use f3m_fingerprint::pager::PagerKind;
use f3m_ir::parser::parse_module;
use f3m_trace::metrics::MetricsRegistry;
use f3m_trace::stats;
use f3m_trace::tracer::span_on;
use f3m_trace::{write_with_dirs, Tracer};

use crate::conn::{Connection, FillOutcome, TakeFrame, READ_QUANTUM};
use crate::poll::{new_poller, PollEvent, Poller, PollerKind, Waker, WakerSource};
use crate::protocol::{
    parse_request, render_response, Request, Response, ServerCounters, MAX_FRAME, SERVER_COUNTERS,
};
use crate::queue::{BoundedQueue, PushError};

/// Admission-control thresholds. Zero means "disabled" for the two
/// global thresholds; the per-connection cap always has a floor so a
/// single flooding client cannot monopolize the queue.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Shed new work once the queue holds this many requests
    /// (0 = disabled; the queue's own capacity then answers `busy`).
    pub queue_shed_depth: usize,
    /// Shed new work once this many requests are in flight across all
    /// connections — queued plus executing (0 = disabled).
    pub max_inflight_global: usize,
    /// Shed a connection's new frames while it already has this many
    /// requests in flight. This is the fairness backstop; it is never
    /// disabled.
    pub max_inflight_per_conn: usize,
    /// Base of the `retry_after_ms` hint; the hint grows linearly with
    /// the observed queue depth so deeper congestion advises longer
    /// backoff.
    pub retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            queue_shed_depth: 0,
            max_inflight_global: 0,
            max_inflight_per_conn: 64,
            retry_after_ms: 25,
        }
    }
}

/// The load snapshot an admission decision is made against.
#[derive(Clone, Copy, Debug)]
pub struct LoadSnapshot {
    pub queue_depth: usize,
    pub global_inflight: usize,
    pub conn_inflight: usize,
}

/// The admission controller: a pure, deterministic state machine
/// (scripted directly by the regression gate) whose only state is the
/// monotone shed sequence shared with `busy` refusals.
pub struct Admission {
    cfg: AdmissionConfig,
    shed_seq: u64,
}

impl Admission {
    pub fn new(cfg: AdmissionConfig) -> Admission {
        Admission { cfg, shed_seq: 0 }
    }

    /// Sheds this request? `Some(overloaded response)` when a threshold
    /// is exceeded, `None` to proceed to the queue.
    pub fn admit(&mut self, load: LoadSnapshot) -> Option<Response> {
        let per_conn = self.cfg.max_inflight_per_conn.max(1);
        let shed = load.conn_inflight >= per_conn
            || (self.cfg.queue_shed_depth > 0 && load.queue_depth >= self.cfg.queue_shed_depth)
            || (self.cfg.max_inflight_global > 0
                && load.global_inflight >= self.cfg.max_inflight_global);
        if !shed {
            return None;
        }
        self.shed_seq += 1;
        Some(Response::Overloaded {
            queue_depth: load.queue_depth as u64,
            in_flight: load.global_inflight as u64,
            shed_seq: self.shed_seq,
            retry_after_ms: self.retry_after_hint(load.queue_depth),
        })
    }

    /// The `busy` refusal for a queue that was full (or closed) at push
    /// time; draws from the same monotone sequence as sheds.
    pub fn busy(&mut self, queue_depth: usize) -> Response {
        self.shed_seq += 1;
        Response::Busy { queue_depth: queue_depth as u64, shed_seq: self.shed_seq }
    }

    /// Sheds issued so far (busy + overloaded).
    pub fn shed_seq(&self) -> u64 {
        self.shed_seq
    }

    fn retry_after_hint(&self, queue_depth: usize) -> u64 {
        self.cfg.retry_after_ms.max(1) + queue_depth as u64
    }
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads.
    pub jobs: usize,
    /// Bounded queue capacity; pushes beyond it answer `busy`.
    pub queue_cap: usize,
    /// Fingerprint family for the resident corpus.
    pub backend: BackendKind,
    /// `Some(bytes)` restores the snapshot through the file-backed
    /// resident fingerprint store instead of a bulk read, keeping at most
    /// this many snapshot pool bytes hot (0 = read shards in as touched,
    /// spill nothing). `None` keeps the bulk O(file) restore.
    pub resident_budget: Option<u64>,
    /// Readiness backend (`Auto` = epoll where available).
    pub poller: PollerKind,
    /// Admission-control thresholds.
    pub admission: AdmissionConfig,
    /// Drop a connection that has held an *incomplete* frame this long
    /// (slowloris defense). 0 disables.
    pub read_deadline_ms: u64,
    /// Drop a connection with no traffic and nothing in flight after
    /// this long. 0 disables.
    pub idle_timeout_ms: u64,
    /// Index snapshot file: loaded at bind if present (so a restart is
    /// O(file size) instead of a re-ingest), saved on shutdown. A file
    /// that cannot be restored — unreadable, corrupt, another format
    /// version or other search parameters — starts the daemon empty, and
    /// the shutdown save replaces it.
    pub snapshot_path: Option<PathBuf>,
    /// Flat-JSON metrics artefact written on shutdown.
    pub metrics_path: Option<PathBuf>,
    /// Chrome-trace artefact written on shutdown.
    pub trace_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 2,
            queue_cap: 64,
            backend: BackendKind::MinHash,
            resident_budget: None,
            poller: PollerKind::Auto,
            admission: AdmissionConfig::default(),
            read_deadline_ms: 30_000,
            idle_timeout_ms: 300_000,
            snapshot_path: None,
            metrics_path: None,
            trace_path: None,
        }
    }
}

/// How the resident corpus came to be at bind time.
#[derive(Clone, Copy, Debug, Default)]
struct SnapshotStatus {
    /// Wall-clock of the restore, in ms.
    load_ms: u64,
    /// The snapshot restored (O(load), no re-fingerprinting).
    loaded: bool,
    /// Live entries resident right after startup.
    entries: u64,
}

/// One unit of accepted work, owned by a worker between pop and
/// completion.
struct Job {
    /// Event-loop token of the connection owed the response.
    token: u64,
    id: Option<u64>,
    deadline_ms: Option<u64>,
    body: Request,
    enqueued: Instant,
}

/// A finished job's rendered response, traveling back to the event loop.
struct Completion {
    token: u64,
    bytes: Vec<u8>,
    /// This completion answered the `shutdown` request.
    shutdown: bool,
}

/// State shared by the event loop and the workers.
struct Shared {
    corpus: Corpus,
    queue: BoundedQueue<Job>,
    counters: Mutex<ServerCounters>,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    shutting_down: AtomicBool,
    tracer: Option<Tracer>,
    snapshot: SnapshotStatus,
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    cfg: ServeConfig,
    listener: TcpListener,
    shared: Arc<Shared>,
    poller: Box<dyn Poller>,
    waker_source: Option<WakerSource>,
}

impl Server {
    /// Binds the listener and builds the resident corpus — empty, or
    /// restored from `snapshot_path` when one is present.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let corpus_cfg = CorpusConfig {
            params: MergeParams::static_default().with_backend(cfg.backend),
            jobs: cfg.jobs.max(1),
        };
        let (corpus, snapshot) = open_corpus(&cfg, corpus_cfg);
        let (poller, waker, waker_source) = new_poller(cfg.poller);
        let shared = Arc::new(Shared {
            corpus,
            queue: BoundedQueue::new(cfg.queue_cap),
            counters: Mutex::new(ServerCounters::default()),
            completions: Mutex::new(Vec::new()),
            waker,
            shutting_down: AtomicBool::new(false),
            tracer: cfg.trace_path.as_ref().map(|_| Tracer::new()),
            snapshot,
        });
        Ok(Server { cfg, listener, shared, poller, waker_source })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The readiness backend actually in use (`epoll` or `fallback`).
    pub fn poller_backend(&self) -> &'static str {
        self.poller.backend_name()
    }

    /// Serves until a `shutdown` request completes; returns after the
    /// queue is drained, responses are flushed, workers have joined, and
    /// artefacts are flushed.
    pub fn run(self) -> std::io::Result<()> {
        let Server { cfg, listener, shared, poller, waker_source } = self;
        let mut workers = Vec::new();
        for _ in 0..cfg.jobs.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        let result = EventLoop::new(&cfg, &shared, listener, poller, waker_source).run();
        // Normally `shutdown` already closed the queue; if the event
        // loop died early (poller failure) close it here so workers
        // blocked in `pop` drain the residue and exit instead of
        // hanging the join below. `close` is idempotent.
        shared.shutting_down.store(true, Ordering::Release);
        shared.queue.close();
        for w in workers {
            let _ = w.join();
        }
        flush_artifacts(&cfg, &shared);
        result
    }
}

/// The event-loop tick: upper bound on how long readiness `wait` may
/// block before the deadline sweep runs again.
const TICK: Duration = Duration::from_millis(25);

/// Fairness quantum: frames parsed per connection per loop turn.
const FRAMES_PER_TURN: usize = 8;

/// After shutdown's queue drain, how long stragglers get to accept their
/// buffered responses before being dropped (and counted `slow_closes`).
const DRAIN_FLUSH_DEADLINE: Duration = Duration::from_secs(3);

/// `accept`'s errors for a full descriptor table, per process and system
/// wide (the same numbers on Linux, the BSDs and macOS).
const ENFILE: i32 = 23;
const EMFILE: i32 = 24;

const LISTENER_TOKEN: u64 = 0;
const WAKER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

struct EventLoop<'a> {
    cfg: &'a ServeConfig,
    shared: &'a Arc<Shared>,
    listener: TcpListener,
    poller: Box<dyn Poller>,
    waker_source: Option<WakerSource>,
    conns: HashMap<u64, Connection>,
    /// Round-robin parse order (tokens; stale entries skipped lazily).
    rr: Vec<u64>,
    rr_cursor: usize,
    next_token: u64,
    admission: Admission,
    /// Requests admitted and not yet completed, across all connections.
    global_inflight: usize,
    accepting: bool,
    /// Since when the listener has been out of the poller because the
    /// process ran out of file descriptors (see [`Self::accept_ready`]).
    listener_paused: Option<Instant>,
    /// Set when the shutdown completion has been delivered; starts the
    /// drain-flush clock.
    drain_started: Option<Instant>,
    scratch: Vec<u8>,
}

impl<'a> EventLoop<'a> {
    fn new(
        cfg: &'a ServeConfig,
        shared: &'a Arc<Shared>,
        listener: TcpListener,
        poller: Box<dyn Poller>,
        waker_source: Option<WakerSource>,
    ) -> EventLoop<'a> {
        EventLoop {
            cfg,
            shared,
            listener,
            poller,
            waker_source,
            conns: HashMap::new(),
            rr: Vec::new(),
            rr_cursor: 0,
            next_token: FIRST_CONN_TOKEN,
            admission: Admission::new(cfg.admission),
            global_inflight: 0,
            accepting: true,
            listener_paused: None,
            drain_started: None,
            scratch: vec![0u8; READ_QUANTUM],
        }
    }

    fn run(mut self) -> std::io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            self.poller.register(self.listener.as_raw_fd(), LISTENER_TOKEN, false)?;
            if let Some(src) = &self.waker_source {
                self.poller.register(src.fd(), WAKER_TOKEN, false)?;
            }
        }
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            // Zero timeout while parsed-but-unprocessed input remains so
            // the fairness quantum never adds latency.
            let timeout = if self.has_parse_backlog() { Duration::ZERO } else { TICK };
            self.poller.wait(&mut events, timeout)?;
            if !events.is_empty() {
                self.shared.counters.lock().unwrap().readiness_wakeups += 1;
            }
            let now = Instant::now();
            for ev in events.drain(..) {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(now),
                    WAKER_TOKEN => {
                        if let Some(src) = &self.waker_source {
                            src.drain();
                        }
                    }
                    token => self.socket_ready(token, ev, now),
                }
            }
            self.drain_completions(now);
            self.parse_turn(now);
            self.sweep_deadlines(now);
            self.reap(now);
            if self.listener_paused.is_some_and(|since| now.duration_since(since) >= TICK) {
                self.resume_listener();
            }
            if self.shutdown_complete(now) {
                break;
            }
        }
        Ok(())
    }

    /// Unparsed complete frames are waiting in some connection buffer.
    /// Connections already marked close-after-flush never parse again,
    /// so their residue is not a backlog (counting it would pin the
    /// poller at zero-timeout waits forever).
    fn has_parse_backlog(&self) -> bool {
        self.conns.values().any(|c| !c.close_after_flush && c.has_complete_frame(MAX_FRAME))
    }

    fn accept_ready(&mut self, now: Instant) {
        while self.accepting {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses are one small frame each; Nagle would add
                    // a delayed-ACK round trip to every synchronous
                    // request.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    #[cfg(unix)]
                    {
                        use std::os::fd::AsRawFd;
                        if self.poller.register(stream.as_raw_fd(), token, false).is_err() {
                            continue;
                        }
                    }
                    self.conns.insert(token, Connection::new(stream, now));
                    self.rr.push(token);
                    let mut c = self.shared.counters.lock().unwrap();
                    c.conns_total += 1;
                    c.conns_open = self.conns.len() as u64;
                    c.conns_open_hwm = c.conns_open_hwm.max(c.conns_open);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Out of file descriptors: the connection stays in the
                // backlog, and the level-triggered listener would report it
                // on every wait. Stop polling it until a connection is
                // dropped or a tick has passed.
                Err(e) if matches!(e.raw_os_error(), Some(EMFILE | ENFILE)) => {
                    self.pause_listener(now);
                    break;
                }
                Err(_) => break,
            }
        }
    }

    /// Takes the listener out of the poller; [`Self::resume_listener`]
    /// puts it back.
    fn pause_listener(&mut self, now: Instant) {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            let _ = self.poller.deregister(self.listener.as_raw_fd());
        }
        self.listener_paused = Some(now);
    }

    /// Polls a paused listener again, unless shutdown has stopped
    /// accepting; a registration that fails is retried a tick later.
    fn resume_listener(&mut self) {
        if self.listener_paused.take().is_none() || !self.accepting {
            return;
        }
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            if self.poller.register(self.listener.as_raw_fd(), LISTENER_TOKEN, false).is_err() {
                self.listener_paused = Some(Instant::now());
            }
        }
    }

    fn socket_ready(&mut self, token: u64, ev: PollEvent, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if ev.readable && !conn.read_closed {
            match conn.fill(&mut self.scratch, MAX_FRAME, now) {
                FillOutcome::Progress => {}
                FillOutcome::Eof => conn.read_closed = true,
                FillOutcome::Broken => {
                    conn.read_closed = true;
                    conn.request_close(now);
                }
            }
        }
        if ev.writable {
            // A full drain must drop writable interest, or a
            // level-triggered poller reports this socket writable on
            // every wait and the loop busy-spins.
            match conn.flush(now) {
                Ok(true) => self.set_writable_interest(token, false),
                Ok(false) => {}
                Err(_) => self.drop_conn(token),
            }
        }
    }

    /// One fairness turn: round-robin over connections, at most
    /// [`FRAMES_PER_TURN`] frames each.
    fn parse_turn(&mut self, now: Instant) {
        if self.rr.is_empty() {
            return;
        }
        let turn_order: Vec<u64> = {
            let n = self.rr.len();
            let start = self.rr_cursor % n;
            (0..n).map(|i| self.rr[(start + i) % n]).collect()
        };
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        for token in turn_order {
            for _ in 0..FRAMES_PER_TURN {
                let Some(conn) = self.conns.get_mut(&token) else { break };
                if conn.close_after_flush {
                    break;
                }
                match conn.take_frame(MAX_FRAME, now) {
                    TakeFrame::Pending => break,
                    TakeFrame::Oversized(len) => {
                        // The payload was never consumed, so the stream is
                        // no longer at a frame boundary: answer, flush,
                        // drop.
                        let message = format!("frame length {len} exceeds maximum {MAX_FRAME}");
                        self.respond_inline(token, None, &Response::Error { message }, now);
                        if let Some(conn) = self.conns.get_mut(&token) {
                            conn.request_close(now);
                        }
                        break;
                    }
                    TakeFrame::Frame(payload) => {
                        self.shared.counters.lock().unwrap().frames_reassembled += 1;
                        self.dispatch_frame(token, &payload, now);
                    }
                }
            }
        }
    }

    /// Parses one frame and routes it: inline error, admission shed,
    /// queue push, or `busy`.
    fn dispatch_frame(&mut self, token: u64, payload: &[u8], now: Instant) {
        let env = match parse_request(payload) {
            Ok(env) => env,
            Err(message) => {
                self.respond_inline(token, None, &Response::Error { message }, now);
                return;
            }
        };
        let conn_inflight = self.conns.get(&token).map_or(0, |c| c.in_flight);
        let load = LoadSnapshot {
            queue_depth: self.shared.queue.len(),
            global_inflight: self.global_inflight,
            conn_inflight,
        };
        if let Some(shed) = self.admission.admit(load) {
            self.shared.counters.lock().unwrap().sheds += 1;
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.sheds += 1;
            }
            self.respond_inline(token, env.id, &shed, now);
            return;
        }
        let job = Job {
            token,
            id: env.id,
            deadline_ms: env.deadline_ms,
            body: env.body,
            enqueued: now,
        };
        match self.shared.queue.try_push(job) {
            Ok(()) => {
                self.global_inflight += 1;
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.in_flight += 1;
                }
            }
            Err(e) => {
                let depth = self.shared.queue.len();
                let busy = self.admission.busy(depth);
                if e == PushError::Full {
                    self.shared.counters.lock().unwrap().rejects_busy += 1;
                }
                self.respond_inline(token, env.id, &busy, now);
            }
        }
    }

    /// Renders and queues a response produced by the event loop itself
    /// (parse errors, sheds, busy) and attempts an eager flush.
    fn respond_inline(&mut self, token: u64, id: Option<u64>, resp: &Response, now: Instant) {
        if matches!(resp, Response::Error { .. }) {
            self.shared.counters.lock().unwrap().errors += 1;
        }
        let text = render_response(id, resp);
        self.queue_bytes(token, text.as_bytes(), now);
    }

    fn queue_bytes(&mut self, token: u64, payload: &[u8], now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        conn.push_response(payload);
        match conn.flush(now) {
            Ok(true) => self.set_writable_interest(token, false),
            Ok(false) => self.set_writable_interest(token, true),
            Err(_) => self.drop_conn(token),
        }
    }

    fn set_writable_interest(&mut self, token: u64, want: bool) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.writable_interest == want {
            return;
        }
        conn.writable_interest = want;
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            let fd = conn.stream.as_raw_fd();
            let _ = self.poller.modify(fd, token, want);
        }
    }

    /// Moves finished jobs' bytes into their connections' write buffers.
    fn drain_completions(&mut self, now: Instant) {
        let done: Vec<Completion> =
            std::mem::take(&mut *self.shared.completions.lock().unwrap());
        for completion in done {
            if completion.shutdown {
                self.begin_shutdown();
                self.drain_started = Some(now);
            }
            if let Some(conn) = self.conns.get_mut(&completion.token) {
                // Orphaned jobs (connection already dropped) were given
                // back to `global_inflight` wholesale in `drop_conn`;
                // decrementing them again here would undercount and
                // weaken `max_inflight_global` admission.
                self.global_inflight = self.global_inflight.saturating_sub(1);
                conn.in_flight = conn.in_flight.saturating_sub(1);
                conn.push_response(&completion.bytes);
            }
            // Flush through queue_bytes' interest logic.
            match self.conns.get_mut(&completion.token).map(|c| c.flush(now)) {
                Some(Ok(true)) => self.set_writable_interest(completion.token, false),
                Some(Ok(false)) => self.set_writable_interest(completion.token, true),
                Some(Err(_)) => self.drop_conn(completion.token),
                None => {} // client gone; response dropped
            }
        }
    }

    fn begin_shutdown(&mut self) {
        if !self.accepting {
            return;
        }
        self.accepting = false;
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            let _ = self.poller.deregister(self.listener.as_raw_fd());
        }
    }

    /// Slowloris and idle sweeps.
    fn sweep_deadlines(&mut self, now: Instant) {
        let read_deadline = Duration::from_millis(self.cfg.read_deadline_ms);
        let idle_timeout = Duration::from_millis(self.cfg.idle_timeout_ms);
        let mut victims = Vec::new();
        for (&token, conn) in &self.conns {
            // A connection we already decided to drop gets a bounded
            // window to accept its final response; a peer that stops
            // reading cannot pin it (it is exempt from the idle and
            // slowloris sweeps below and never parses again).
            if conn.close_after_flush {
                if let Some(since) = conn.closing_since {
                    if now.duration_since(since) >= DRAIN_FLUSH_DEADLINE {
                        victims.push(token);
                        continue;
                    }
                }
            }
            if self.cfg.read_deadline_ms > 0 {
                if let Some(since) = conn.partial_since {
                    // A complete frame waiting its fairness turn is a
                    // backlog, not a slowloris.
                    if !conn.has_complete_frame(MAX_FRAME)
                        && now.duration_since(since) >= read_deadline
                    {
                        victims.push(token);
                        continue;
                    }
                }
            }
            if self.cfg.idle_timeout_ms > 0
                && conn.in_flight == 0
                && !conn.has_buffered_input()
                && conn.flushed()
                && now.duration_since(conn.last_activity) >= idle_timeout
            {
                victims.push(token);
            }
        }
        for token in victims {
            self.shared.counters.lock().unwrap().slow_closes += 1;
            self.drop_conn(token);
        }
    }

    /// Reaps connections that are finished (peer closed, nothing owed).
    fn reap(&mut self, _now: Instant) {
        let done: Vec<u64> =
            self.conns.iter().filter(|(_, c)| c.reapable()).map(|(&t, _)| t).collect();
        let flushed_closers: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.close_after_flush && c.flushed())
            .map(|(&t, _)| t)
            .collect();
        for token in done.into_iter().chain(flushed_closers) {
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else { return };
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
        }
        // In-flight jobs for a dead client still run (corpus effects are
        // real); their completions find no connection and are dropped.
        self.global_inflight = self.global_inflight.saturating_sub(conn.in_flight);
        self.rr.retain(|&t| t != token);
        self.shared.counters.lock().unwrap().conns_open = self.conns.len() as u64;
        // The descriptor just freed may be the one a paused accept needs.
        self.resume_listener();
    }

    /// After shutdown: queue drained, all completions applied, all
    /// buffers flushed (or the drain deadline expired).
    fn shutdown_complete(&mut self, now: Instant) -> bool {
        let Some(started) = self.drain_started else { return false };
        if self.global_inflight > 0 || self.has_parse_backlog() {
            // Still owed responses (or have accepted frames to answer
            // with `busy` against the closed queue).
            if now.duration_since(started) < DRAIN_FLUSH_DEADLINE {
                return false;
            }
        }
        let all_flushed = self.conns.values().all(|c| c.flushed());
        if all_flushed || now.duration_since(started) >= DRAIN_FLUSH_DEADLINE {
            let stragglers = self.conns.values().filter(|c| !c.flushed()).count() as u64;
            if stragglers > 0 {
                self.shared.counters.lock().unwrap().slow_closes += stragglers;
            }
            return true;
        }
        false
    }
}

/// Saves the index snapshot and writes the metrics and trace artefacts,
/// if configured.
fn flush_artifacts(cfg: &ServeConfig, shared: &Shared) {
    let snapshot_saved = cfg.snapshot_path.as_ref().map(|path| {
        match shared.corpus.save_snapshot(path) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("f3m-serve: failed to save snapshot {}: {e}", path.display());
                false
            }
        }
    });
    if let Some(path) = &cfg.metrics_path {
        let dump = render_metrics(shared, cfg, snapshot_saved);
        if let Err(e) = write_with_dirs(path, &dump) {
            eprintln!("f3m-serve: failed to write metrics {}: {e}", path.display());
        }
    }
    if let (Some(path), Some(tracer)) = (&cfg.trace_path, &shared.tracer) {
        if let Err(e) = write_with_dirs(path, &tracer.to_chrome_json()) {
            eprintln!("f3m-serve: failed to write trace {}: {e}", path.display());
        }
    }
}

/// Builds the resident corpus: restored from the configured snapshot
/// when one is present and usable (through the file-backed resident
/// store when `resident_budget` is set, a bulk read otherwise), empty
/// otherwise.
fn open_corpus(cfg: &ServeConfig, corpus_cfg: CorpusConfig) -> (Corpus, SnapshotStatus) {
    let mut status = SnapshotStatus::default();
    let Some(path) = cfg.snapshot_path.as_ref().filter(|p| p.exists()) else {
        return (Corpus::new(corpus_cfg), status);
    };
    let t0 = Instant::now();
    let loaded = match cfg.resident_budget {
        Some(budget) => {
            Corpus::load_snapshot_resident(path, corpus_cfg.clone(), PagerKind::Auto, budget)
        }
        None => Corpus::load_snapshot(path, corpus_cfg.clone()),
    };
    match loaded {
        Ok(corpus) => {
            status.load_ms = t0.elapsed().as_millis() as u64;
            status.loaded = true;
            status.entries = corpus.stats().functions_live as u64;
            let pager = corpus
                .residency()
                .map(|(name, _)| format!(" (resident, pager={name})"))
                .unwrap_or_default();
            eprintln!(
                "f3m-serve: restored {} functions at epoch {} from {} in {}ms{pager}",
                status.entries,
                corpus.epoch(),
                path.display(),
                status.load_ms
            );
            (corpus, status)
        }
        Err(e) => {
            eprintln!("f3m-serve: snapshot {} unusable ({e}); starting empty", path.display());
            (Corpus::new(corpus_cfg), status)
        }
    }
}

/// Renders the daemon's metrics registry from the counter tables of
/// [`ServerCounters`] and `CorpusStats` (plus the worker count and the
/// snapshot lifecycle, which live here). The sequence below
/// *is* the artefact layout; the tables' sections only say which rows each
/// step picks up.
fn render_metrics(shared: &Shared, cfg: &ServeConfig, snapshot_saved: Option<bool>) -> String {
    let counters = shared.counters.lock().unwrap().clone();
    let corpus = shared.corpus.stats();
    let mut reg = MetricsRegistry::new();
    let local = |reg: &mut MetricsRegistry, name: &str, deterministic, v: u64| {
        let c = reg.counter(name, "count", deterministic);
        reg.set(c, v);
    };
    // Deterministic for a synchronous client: the request history, the
    // epoch it produced, the memo traffic it caused.
    stats::export_section(&mut reg, "serve", SERVER_COUNTERS, &counters, 0);
    stats::export_section(&mut reg, "serve", CORPUS_STATS, &corpus, 0);
    local(&mut reg, "serve.jobs", true, cfg.jobs as u64);
    // Section 1 of both tables is timing- and environment-dependent
    // (after the memo counters): residency, refusals, connection churn.
    stats::export_section(&mut reg, "serve", CORPUS_STATS, &corpus, 1);
    stats::export_section(&mut reg, "serve", SERVER_COUNTERS, &counters, 1);
    // Load time is wall-clock; loaded/entries depend on what was on disk
    // at startup.
    let snap = &shared.snapshot;
    local(&mut reg, "serve.snapshot.load_ms", false, snap.load_ms);
    local(&mut reg, "serve.snapshot.loaded", false, u64::from(snap.loaded));
    local(&mut reg, "serve.snapshot.entries", false, snap.entries);
    local(&mut reg, "serve.snapshot.saved", false, snapshot_saved.map_or(0, u64::from));
    // Index occupancy, then the entries the corpus ever created.
    stats::export_section(&mut reg, "serve", CORPUS_STATS, &corpus, 2);
    stats::export_section(&mut reg, "serve", CORPUS_STATS, &corpus, 3);
    reg.to_json()
}

/// Worker: pop, enforce the queue-wait deadline, dispatch, complete.
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        if let Some(d) = job.deadline_ms {
            if job.enqueued.elapsed() >= Duration::from_millis(d) {
                shared.counters.lock().unwrap().rejects_deadline += 1;
                let message = format!("deadline of {d}ms expired while queued");
                complete(shared, job.token, job.id, &Response::Error { message }, false);
                continue;
            }
        }
        let type_name = job.body.type_name();
        let span = span_on(shared.tracer.as_ref(), "serve", format!("req.{type_name}"));
        let resp = match catch_unwind(AssertUnwindSafe(|| handle(shared, &job.body))) {
            Ok(resp) => resp,
            Err(_) => Response::Error { message: format!("internal panic handling `{type_name}`") },
        };
        drop(span);
        {
            let mut c = shared.counters.lock().unwrap();
            c.count_request(type_name);
            c.queue_depth_hwm = c.queue_depth_hwm.max(shared.queue.high_water_mark() as u64);
        }
        complete(shared, job.token, job.id, &resp, matches!(job.body, Request::Shutdown));
    }
}

/// Hands one rendered response back to the event loop and wakes it.
fn complete(shared: &Shared, token: u64, id: Option<u64>, resp: &Response, shutdown: bool) {
    if matches!(resp, Response::Error { .. }) {
        shared.counters.lock().unwrap().errors += 1;
    }
    let text = render_response(id, resp);
    shared
        .completions
        .lock()
        .unwrap()
        .push(Completion { token, bytes: text.into_bytes(), shutdown });
    shared.waker.wake();
}

/// The epoch precondition shared by `query` and `global_merge`: `None`
/// while the corpus is still at `pinned`, otherwise the `superseded`
/// response, counted in `queries_superseded`.
fn superseded_since(shared: &Shared, pinned: u64) -> Option<Response> {
    let epoch = shared.corpus.superseded_since(pinned)?;
    Some(Response::Superseded { started: pinned, epoch })
}

/// Dispatches one request against the resident corpus.
fn handle(shared: &Shared, req: &Request) -> Response {
    match req {
        Request::Ingest { name, ir } => {
            let mut module = match parse_module(ir) {
                Ok(m) => m,
                Err(e) => return Response::Error { message: format!("ingest parse: {e}") },
            };
            if let Some(n) = name {
                module.name = n.clone();
            }
            match shared.corpus.ingest(module) {
                Ok(s) => Response::Ingested(s),
                Err(message) => Response::Error { message },
            }
        }
        Request::Evict { name } => match shared.corpus.evict(name) {
            Ok(s) => Response::Evicted(s),
            Err(message) => Response::Error { message },
        },
        Request::Query { module, func, k, if_epoch } => {
            // A stale client pin is answered `superseded` without doing
            // any ranking work.
            if let Some(stale) = if_epoch.and_then(|want| superseded_since(shared, want)) {
                return stale;
            }
            let answer = match func {
                Some(f) => shared.corpus.query_function(module, f, *k).map(|(e, r)| (e, vec![r])),
                None => shared.corpus.query_module(module, *k),
            };
            match answer {
                Ok((epoch, results)) => Response::Candidates { epoch, results },
                Err(message) => Response::Error { message },
            }
        }
        Request::Update { module, func, ir } => {
            match shared.corpus.update_function(module, func, ir.as_deref()) {
                Ok(s) => Response::Updated(s),
                Err(message) => Response::Error { message },
            }
        }
        Request::GlobalMerge { jobs, if_epoch } => {
            // Mirroring `query`: a stale pin is answered `superseded`
            // before any merging work.
            if let Some(stale) = if_epoch.and_then(|want| superseded_since(shared, want)) {
                return stale;
            }
            let mut cfg = GlobalPlanConfig::default();
            if let Some(j) = jobs {
                cfg = cfg.with_jobs(*j);
            }
            match global_merge(&shared.corpus, &cfg) {
                Ok((report, _merged, pinned)) => {
                    // A mutation that landed while the merge ran makes
                    // the report stale; supersede it rather than publish.
                    superseded_since(shared, pinned).unwrap_or_else(|| Response::Report {
                        epoch: pinned,
                        report: report.to_json(),
                    })
                }
                Err(message) => Response::Error { message },
            }
        }
        Request::Stats => {
            let mut server = shared.counters.lock().unwrap().clone();
            server.queue_depth_hwm =
                server.queue_depth_hwm.max(shared.queue.high_water_mark() as u64);
            Response::Stats { corpus: Box::new(shared.corpus.stats()), server: Box::new(server) }
        }
        Request::Ping => Response::Pong,
        Request::Sleep { ms } => {
            std::thread::sleep(Duration::from_millis(*ms));
            Response::Slept { ms: *ms }
        }
        Request::Shutdown => {
            shared.shutting_down.store(true, Ordering::Release);
            shared.queue.close();
            Response::Bye
        }
    }
}

/// Convenience used by the CLI: bind, announce on stderr, run.
pub fn serve(cfg: ServeConfig) -> std::io::Result<()> {
    let server = Server::bind(cfg)?;
    let addr = server.local_addr()?;
    let mut err = std::io::stderr();
    let _ = writeln!(err, "f3m-serve: listening on {addr} ({})", server.poller_backend());
    server.run()
}
