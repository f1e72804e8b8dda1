//! Per-connection state machine: non-blocking frame reassembly on the
//! way in, buffered writes on the way out, and the bookkeeping the event
//! loop's fairness and deadline policies read.
//!
//! A connection moves through a small set of states, all encoded in
//! plain fields rather than an enum so partially-overlapping conditions
//! (read side closed while responses are still flushing) compose:
//!
//! ```text
//!             bytes in                frame complete
//!   [idle] ──────────────▶ [reassembling] ───────────▶ frames queued
//!      ▲                        │ read_deadline                │
//!      │                        ▼                              ▼
//!      │                  [slow-closed]                  admission →
//!      │                                                 queue / shed
//!      │   outbox drained, in_flight == 0                      │
//!      └───────────────────────────────────────◀── [flushing] ◀┘
//! ```
//!
//! Reassembly keeps the bytes of a frame in one place. Reads land in
//! the inbox, a flat `Vec<u8>` the frames are cut from. Once a frame's
//! length prefix is in and its payload is not, the payload moves to a
//! frame `Vec` of its own and the rest of it is read straight into that
//! `Vec`, a read quantum at a time and never past the frame's end; the
//! completed frame is moved out, not copied. A frame that is whole in
//! the inbox by the time it is reached (it came in one read, or behind
//! a frame not yet taken) is copied out of it once.
//!
//! The buffers grow only as bytes arrive: a length prefix is vetted
//! against `MAX_FRAME` before its payload accumulates, and even a prefix
//! claiming `MAX_FRAME` reserves no more than the bytes received plus
//! one [`READ_QUANTUM`]. `fill` stops reading once a whole frame could
//! be buffered, so one connection can never hold more than ~one maximum
//! frame plus a read quantum of kernel-delivered pipeline. A connection
//! whose input is all taken keeps at most one read quantum of capacity.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Bytes one read asks the socket for (the size of the scratch buffer
/// `fill` is handed), and the most capacity a connection keeps while it
/// holds no input.
pub const READ_QUANTUM: usize = 64 * 1024;

/// Cap on bytes a single `fill` call may leave unparsed — one maximal
/// frame plus its prefix. Pipelined requests beyond it stay in the
/// kernel buffer until the parser catches up (which is also what keeps
/// per-connection memory bounded under flood).
fn read_buffer_cap(max_frame: u32) -> usize {
    max_frame as usize + 4
}

/// What `fill` observed on the socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FillOutcome {
    /// Socket drained into the buffer (possibly zero new bytes).
    Progress,
    /// Orderly EOF from the peer: no more inbound frames will arrive.
    Eof,
    /// Transport error: the connection is dead.
    Broken,
}

/// One reassembled inbound frame, or the reason there isn't one.
#[derive(Debug, PartialEq, Eq)]
pub enum TakeFrame {
    /// Not enough buffered bytes for a complete frame yet.
    Pending,
    /// A complete payload (length prefix already stripped).
    Frame(Vec<u8>),
    /// The length prefix exceeds the cap; the stream can never
    /// resynchronize, so the caller answers and closes.
    Oversized(u32),
}

/// Per-connection state owned by the event loop.
pub struct Connection {
    pub stream: TcpStream,
    /// Received bytes not yet cut into frames (length prefixes and
    /// payloads), from `head` on. They follow the frame in `frame`.
    inbox: Vec<u8>,
    /// Offset in `inbox` of the first byte not yet taken.
    head: usize,
    /// The payload of the frame being read straight off the socket. Its
    /// first `frame_filled` bytes have arrived; the rest of its length is
    /// zero-filled room for the next read.
    frame: Vec<u8>,
    frame_filled: usize,
    /// The payload length `frame` is read up to; `None` while no frame is
    /// being read into it.
    frame_len: Option<usize>,
    /// Rendered-but-unsent response bytes.
    outbox: Vec<u8>,
    /// How much of `outbox` has reached the kernel.
    sent: usize,
    /// Requests admitted from this connection and not yet answered.
    pub in_flight: usize,
    /// Sheds charged to this connection (fairness accounting).
    pub sheds: u64,
    /// Set when the peer half-closed or errored: no more reads, flush
    /// what's pending, then reap.
    pub read_closed: bool,
    /// Set when the server decided to drop the peer after the current
    /// outbox flushes (oversized frame, shed-and-close policies).
    pub close_after_flush: bool,
    /// When `close_after_flush` was first requested — bounds how long a
    /// peer that refuses to read its final response can keep the
    /// connection alive.
    pub closing_since: Option<Instant>,
    /// Whether the poller currently has writable interest registered.
    pub writable_interest: bool,
    /// Last moment bytes moved in either direction (idle tracking).
    pub last_activity: Instant,
    /// When the currently-buffered *incomplete* frame started pending —
    /// the slowloris clock. `None` while the buffer holds no partial
    /// frame.
    pub partial_since: Option<Instant>,
}

impl Connection {
    pub fn new(stream: TcpStream, now: Instant) -> Connection {
        Connection {
            stream,
            inbox: Vec::new(),
            head: 0,
            frame: Vec::new(),
            frame_filled: 0,
            frame_len: None,
            outbox: Vec::new(),
            sent: 0,
            in_flight: 0,
            sheds: 0,
            read_closed: false,
            close_after_flush: false,
            closing_since: None,
            writable_interest: false,
            last_activity: now,
            partial_since: None,
        }
    }

    /// Marks the connection for drop-after-flush and starts the clock
    /// that bounds how long the final flush may take.
    pub fn request_close(&mut self, now: Instant) {
        self.close_after_flush = true;
        if self.closing_since.is_none() {
            self.closing_since = Some(now);
        }
    }

    /// Drains the socket into the reassembly buffers without blocking.
    pub fn fill(&mut self, scratch: &mut [u8], max_frame: u32, now: Instant) -> FillOutcome {
        let cap = read_buffer_cap(max_frame);
        loop {
            if self.unparsed() >= cap {
                return FillOutcome::Progress;
            }
            if self.frame_len.is_none() {
                self.start_frame(max_frame);
            }
            let read = match self.frame_len {
                Some(len) if self.frame_filled < len => self.read_into_frame(len),
                _ => self.read_into_inbox(scratch),
            };
            match read {
                Ok(0) => return FillOutcome::Eof,
                Ok(_) => {
                    self.last_activity = now;
                    // A fresh partial frame starts its slowloris clock at
                    // first byte; progress on an existing one does not
                    // reset it (that is the whole defense).
                    if self.partial_since.is_none() {
                        self.partial_since = Some(now);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return FillOutcome::Progress
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return FillOutcome::Broken,
            }
        }
    }

    /// Received bytes not yet taken as frames, length prefixes included.
    fn unparsed(&self) -> usize {
        self.inbox.len() - self.head + self.frame_len.map_or(0, |_| 4 + self.frame_filled)
    }

    /// The length prefix of the next frame in the inbox, once all four
    /// bytes of it are in.
    fn prefix(&self) -> Option<u32> {
        let prefix = self.inbox.get(self.head..self.head + 4)?;
        Some(u32::from_be_bytes(prefix.try_into().expect("four bytes")))
    }

    /// When the next frame in the inbox has its prefix in but not all of
    /// its payload, moves the payload bytes that are in to `frame`, where
    /// the rest is read. Every byte after that prefix is the frame's, as
    /// the frame is incomplete.
    fn start_frame(&mut self, max_frame: u32) {
        let Some(len) = self.prefix() else { return };
        let len = len as usize;
        if len > max_frame as usize || self.inbox.len() - self.head >= 4 + len {
            return;
        }
        self.inbox.drain(..self.head + 4);
        self.inbox.shrink_to(self.inbox.len() + READ_QUANTUM);
        self.head = 0;
        self.frame = std::mem::take(&mut self.inbox);
        self.frame_filled = self.frame.len();
        self.frame_len = Some(len);
    }

    /// One read straight into `frame`, of at most a read quantum and never
    /// past the frame's end. Room is reserved only once the bytes before
    /// it have arrived, so `frame` holds no more than the bytes received
    /// plus one read quantum.
    fn read_into_frame(&mut self, len: usize) -> std::io::Result<usize> {
        if self.frame_filled == self.frame.len() {
            let room = READ_QUANTUM.min(len - self.frame_filled);
            self.frame.reserve_exact(room);
            self.frame.resize(self.frame_filled + room, 0);
        }
        let n = self.stream.read(&mut self.frame[self.frame_filled..])?;
        self.frame_filled += n;
        Ok(n)
    }

    /// One read through `scratch`, appended to the inbox. The taken bytes
    /// at the inbox's front are dropped first once they outnumber the
    /// rest, so moving the rest down stays linear in the bytes read.
    fn read_into_inbox(&mut self, scratch: &mut [u8]) -> std::io::Result<usize> {
        if self.head > self.inbox.len() - self.head {
            self.inbox.drain(..self.head);
            self.head = 0;
        }
        let n = self.stream.read(scratch)?;
        self.inbox.extend_from_slice(&scratch[..n]);
        Ok(n)
    }

    /// Pops one complete frame: the frame read into `frame`, which comes
    /// first, or else the next one in the inbox.
    pub fn take_frame(&mut self, max_frame: u32, now: Instant) -> TakeFrame {
        let payload = match self.frame_len {
            Some(len) if self.frame_filled < len => return TakeFrame::Pending,
            Some(_) => {
                self.frame_len = None;
                self.frame_filled = 0;
                std::mem::take(&mut self.frame)
            }
            None => {
                let Some(len) = self.prefix() else {
                    if !self.has_buffered_input() {
                        self.partial_since = None;
                    }
                    return TakeFrame::Pending;
                };
                if len > max_frame {
                    return TakeFrame::Oversized(len);
                }
                let start = self.head + 4;
                let Some(payload) = self.inbox.get(start..start + len as usize) else {
                    return TakeFrame::Pending;
                };
                let payload = payload.to_vec();
                self.head = start + len as usize;
                payload
            }
        };
        if self.head == self.inbox.len() {
            // Everything received is taken: keep at most a read quantum.
            self.inbox.clear();
            self.inbox.shrink_to(READ_QUANTUM);
            self.head = 0;
        }
        // Frame completed: restart (or clear) the partial clock for
        // whatever trails it.
        self.partial_since = if self.has_buffered_input() { Some(now) } else { None };
        TakeFrame::Frame(payload)
    }

    /// Whether unparsed bytes remain (complete or partial frames).
    pub fn has_buffered_input(&self) -> bool {
        self.frame_len.is_some() || self.head < self.inbox.len()
    }

    /// Whether the buffer holds at least one complete frame ready to
    /// parse (used to distinguish "pipelined backlog" from "slowloris
    /// dribble" in the deadline sweep).
    pub fn has_complete_frame(&self, max_frame: u32) -> bool {
        match self.frame_len {
            Some(len) => self.frame_filled == len,
            None => self.prefix().is_some_and(|len| {
                len > max_frame || self.inbox.len() - self.head >= 4 + len as usize
            }),
        }
    }

    /// Queues one response frame (length prefix + payload) for writing.
    pub fn push_response(&mut self, payload: &[u8]) {
        let len = payload.len() as u32;
        self.outbox.extend_from_slice(&len.to_be_bytes());
        self.outbox.extend_from_slice(payload);
    }

    /// Flushes as much of the outbox as the socket accepts. `Ok(true)`
    /// means fully drained; `Err` means the peer is gone.
    pub fn flush(&mut self, now: Instant) -> std::io::Result<bool> {
        while self.sent < self.outbox.len() {
            match self.stream.write(&self.outbox[self.sent..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.sent += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.outbox.clear();
        self.sent = 0;
        Ok(true)
    }

    /// Whether every queued response byte has reached the kernel.
    pub fn flushed(&self) -> bool {
        self.sent == self.outbox.len()
    }

    /// A connection is reapable when its read side is finished, nothing
    /// is owed to it, and nothing is waiting to be written.
    pub fn reapable(&self) -> bool {
        self.read_closed && self.in_flight == 0 && self.flushed() && !self.has_buffered_input()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    const MAX: u32 = 1 << 20;

    fn pair() -> (Connection, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        (Connection::new(server_side, Instant::now()), peer)
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_be_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn reassembles_frames_split_at_every_boundary() {
        let (mut conn, mut peer) = pair();
        let wire = [frame(b"{\"type\":\"ping\"}"), frame(b"{}")].concat();
        let mut scratch = vec![0u8; 4096];
        // Dribble one byte at a time — worst-case fragmentation.
        for b in &wire {
            use std::io::Write;
            peer.write_all(&[*b]).unwrap();
            peer.flush().unwrap();
            // Wait for the byte to land server-side.
            let deadline = Instant::now() + std::time::Duration::from_secs(5);
            let before = conn.unparsed();
            while conn.unparsed() == before {
                assert_eq!(conn.fill(&mut scratch, MAX, Instant::now()), FillOutcome::Progress);
                assert!(Instant::now() < deadline, "byte never arrived");
            }
        }
        let now = Instant::now();
        assert_eq!(conn.take_frame(MAX, now), TakeFrame::Frame(b"{\"type\":\"ping\"}".to_vec()));
        assert_eq!(conn.take_frame(MAX, now), TakeFrame::Frame(b"{}".to_vec()));
        assert_eq!(conn.take_frame(MAX, now), TakeFrame::Pending);
        assert!(conn.partial_since.is_none(), "empty buffer clears the partial clock");
    }

    #[test]
    fn oversized_prefix_is_flagged_before_payload_arrives() {
        let (mut conn, mut peer) = pair();
        use std::io::Write;
        peer.write_all(&(MAX + 1).to_be_bytes()).unwrap();
        peer.flush().unwrap();
        let mut scratch = vec![0u8; 4096];
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while conn.unparsed() < 4 {
            conn.fill(&mut scratch, MAX, Instant::now());
            assert!(Instant::now() < deadline);
        }
        assert_eq!(conn.take_frame(MAX, Instant::now()), TakeFrame::Oversized(MAX + 1));
    }

    #[test]
    fn partial_clock_tracks_incomplete_frames_only() {
        let (mut conn, mut peer) = pair();
        use std::io::Write;
        let mut scratch = vec![0u8; 4096];

        // Half a frame: clock starts.
        let full = frame(b"{\"type\":\"ping\"}");
        peer.write_all(&full[..6]).unwrap();
        peer.flush().unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while conn.unparsed() < 6 {
            conn.fill(&mut scratch, MAX, Instant::now());
            assert!(Instant::now() < deadline);
        }
        assert_eq!(conn.take_frame(MAX, Instant::now()), TakeFrame::Pending);
        let started = conn.partial_since.expect("partial frame starts the clock");

        // More dribble does NOT reset the clock.
        peer.write_all(&full[6..8]).unwrap();
        peer.flush().unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while conn.unparsed() < 8 {
            conn.fill(&mut scratch, MAX, Instant::now());
            assert!(Instant::now() < deadline);
        }
        assert_eq!(conn.partial_since, Some(started), "dribble must not reset the clock");

        // Completing the frame clears it.
        peer.write_all(&full[8..]).unwrap();
        peer.flush().unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while conn.unparsed() < full.len() {
            conn.fill(&mut scratch, MAX, Instant::now());
            assert!(Instant::now() < deadline);
        }
        assert!(matches!(conn.take_frame(MAX, Instant::now()), TakeFrame::Frame(_)));
        assert!(conn.partial_since.is_none());
    }

    /// Capacity the connection holds for inbound bytes.
    fn reserved(conn: &Connection) -> usize {
        conn.inbox.capacity() + conn.frame.capacity()
    }

    /// Pipelined frames of 0, 1, 4, 65 536 ± 1 bytes and 1 MiB, written in
    /// random pieces (some inside a length prefix) and read through random
    /// scratch sizes, come out byte-identical and in order; the frame
    /// buffer never holds more than the bytes received plus one read
    /// quantum, and once the last 1 MiB frame is taken, read straight into
    /// its own buffer or through the inbox, at most one read quantum of
    /// capacity is left.
    #[test]
    fn large_frames_reassemble_byte_identical_at_any_split() {
        use f3m_prng::SmallRng;
        use std::io::Write;
        const LENS: [usize; 7] = [0, 1, 4, 65_535, 65_536, 65_537, 1 << 20];
        const PIECES: [usize; 10] = [1, 2, 3, 4, 5, 7, 100, 4096, 65_536, 300_000];
        const SCRATCH: [usize; 6] = [1, 3, 5, 64, 4096, READ_QUANTUM];
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(0xF4A3E + seed);
            // The 1 MiB frame comes last, and once more in between.
            let mut lens: Vec<usize> = LENS.to_vec();
            lens.extend_from_slice(&LENS[..6]);
            for i in (1..lens.len()).rev() {
                lens.swap(i, rng.gen_range(0..=i));
            }
            lens.push(1 << 20);
            let frames: Vec<Vec<u8>> =
                lens.iter().map(|&len| (0..len).map(|_| rng.next_u64() as u8).collect()).collect();
            let wire = frames.iter().flat_map(|f| frame(f)).collect::<Vec<u8>>();
            let pieces: Vec<(usize, bool)> = {
                let mut at = 0;
                let mut out = Vec::new();
                while at < wire.len() {
                    let n = PIECES[rng.gen_range(0..PIECES.len())].min(wire.len() - at);
                    out.push((n, rng.gen_range(0..8) == 0));
                    at += n;
                }
                out
            };

            let (mut conn, mut peer) = pair();
            peer.set_nodelay(true).unwrap();
            let writer = std::thread::spawn(move || {
                let mut at = 0;
                for (n, pause) in pieces {
                    peer.write_all(&wire[at..at + n]).unwrap();
                    peer.flush().unwrap();
                    at += n;
                    if pause {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                peer
            });
            let deadline = Instant::now() + std::time::Duration::from_secs(30);
            let mut got: Vec<Vec<u8>> = Vec::new();
            while got.len() < frames.len() {
                let mut scratch = vec![0u8; SCRATCH[rng.gen_range(0..SCRATCH.len())]];
                assert_eq!(conn.fill(&mut scratch, MAX, Instant::now()), FillOutcome::Progress);
                assert!(
                    conn.frame.capacity() <= conn.frame_filled + READ_QUANTUM,
                    "frame buffer of {} for {} bytes received",
                    conn.frame.capacity(),
                    conn.frame_filled
                );
                loop {
                    match conn.take_frame(MAX, Instant::now()) {
                        TakeFrame::Frame(payload) => got.push(payload),
                        TakeFrame::Pending => break,
                        TakeFrame::Oversized(len) => panic!("oversized {len}"),
                    }
                }
                assert!(Instant::now() < deadline, "{} of {} frames", got.len(), frames.len());
            }
            let _peer = writer.join().unwrap();
            for (i, (got, want)) in got.iter().zip(&frames).enumerate() {
                assert!(got == want, "seed {seed}: frame {i} of {} bytes differs", want.len());
            }
            assert!(!conn.has_buffered_input() && conn.partial_since.is_none());
            assert!(reserved(&conn) <= READ_QUANTUM, "{} bytes kept", reserved(&conn));
        }

        // A 1 MiB frame read while a complete one is still untaken stays
        // in the inbox; once both are taken, a read quantum is all it keeps.
        let (mut conn, mut peer) = pair();
        let frames = [b"{}".to_vec(), vec![b'x'; 1 << 20]];
        let wire = frames.iter().flat_map(|f| frame(f)).collect::<Vec<u8>>();
        let total = wire.len();
        let writer = std::thread::spawn(move || peer.write_all(&wire).map(|()| peer));
        let mut scratch = vec![0u8; READ_QUANTUM];
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        while conn.unparsed() < total {
            assert_eq!(conn.fill(&mut scratch, MAX, Instant::now()), FillOutcome::Progress);
            assert!(Instant::now() < deadline);
        }
        let _peer = writer.join().unwrap().unwrap();
        assert!(conn.inbox.capacity() > READ_QUANTUM, "both frames are in the inbox");
        for want in frames {
            assert!(conn.take_frame(MAX, Instant::now()) == TakeFrame::Frame(want));
        }
        assert!(reserved(&conn) <= READ_QUANTUM, "{} bytes kept", reserved(&conn));
    }

    /// A prefix claiming `MAX_FRAME` reserves room for the bytes that
    /// came with it plus one read quantum, not for the frame it claims.
    #[test]
    fn hostile_prefix_reserves_only_what_arrived() {
        use crate::protocol::MAX_FRAME;
        use std::io::Write;
        let (mut conn, mut peer) = pair();
        peer.write_all(&MAX_FRAME.to_be_bytes()).unwrap();
        peer.write_all(&[b'x'; 10]).unwrap();
        peer.flush().unwrap();
        let mut scratch = vec![0u8; READ_QUANTUM];
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while conn.unparsed() < 14 {
            assert_eq!(conn.fill(&mut scratch, MAX_FRAME, Instant::now()), FillOutcome::Progress);
            assert!(Instant::now() < deadline);
        }
        assert!(reserved(&conn) <= 14 + READ_QUANTUM, "{} bytes reserved", reserved(&conn));
        assert_eq!(conn.take_frame(MAX_FRAME, Instant::now()), TakeFrame::Pending);
        assert!(conn.has_buffered_input() && !conn.has_complete_frame(MAX_FRAME));
        assert!(conn.partial_since.is_some(), "the slowloris clock runs");
    }

    #[test]
    fn eof_and_reapability() {
        let (mut conn, peer) = pair();
        drop(peer);
        let mut scratch = vec![0u8; 64];
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            match conn.fill(&mut scratch, MAX, Instant::now()) {
                FillOutcome::Eof | FillOutcome::Broken => break,
                FillOutcome::Progress => assert!(Instant::now() < deadline, "EOF never seen"),
            }
        }
        conn.read_closed = true;
        assert!(conn.reapable());
        conn.in_flight = 1;
        assert!(!conn.reapable(), "owed responses keep the connection alive");
    }

    #[test]
    fn outbox_buffers_and_flushes() {
        let (mut conn, mut peer) = pair();
        peer.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
        conn.push_response(b"{\"type\":\"pong\"}");
        conn.push_response(b"{\"type\":\"bye\"}");
        assert!(!conn.flushed());
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while !conn.flush(Instant::now()).unwrap() {
            assert!(Instant::now() < deadline);
        }
        assert!(conn.flushed());
        use std::io::Read;
        let mut got = Vec::new();
        let expect = [frame(b"{\"type\":\"pong\"}"), frame(b"{\"type\":\"bye\"}")].concat();
        let mut byte = [0u8; 256];
        while got.len() < expect.len() {
            let n = peer.read(&mut byte).unwrap();
            assert!(n > 0);
            got.extend_from_slice(&byte[..n]);
        }
        assert_eq!(got, expect);
    }
}
