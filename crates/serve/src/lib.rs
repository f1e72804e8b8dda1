//! # f3m-serve — the resident merge daemon
//!
//! Merging as a service: instead of re-fingerprinting and re-indexing a
//! corpus for every invocation, a long-lived daemon keeps the
//! LSH index (and the modules behind it) resident and answers requests
//! over TCP. Ingestion is incremental and epoch-versioned — adding or
//! evicting one module touches only that module's bucket entries, never
//! a full rebuild — which is the paper's "fast, focused" economics
//! extended across process boundaries.
//!
//! - [`protocol`] — length-prefixed JSON frames, the typed
//!   request/response vocabulary, and deterministic response rendering,
//! - [`poll`] — the std-only readiness abstraction ([`poll::Poller`]):
//!   an epoll backend on Linux, a portable polling fallback elsewhere,
//! - [`conn`] — the per-connection state machine: non-blocking frame
//!   reassembly, write buffering, and the slowloris partial-frame clock,
//! - [`queue`] — the bounded MPMC queue that implements backpressure
//!   (`busy` refusals, never unbounded growth),
//! - [`server`] — the readiness event loop: non-blocking accept,
//!   round-robin per-client fairness, admission control (typed
//!   `overloaded` sheds distinct from `busy`), per-connection idle/read
//!   deadlines, a worker pool with per-request queue-wait deadlines, and
//!   graceful shutdown with metrics and trace artefact flushing,
//! - [`client`] — a synchronous client (the `f3m client` subcommand).
//!
//! The resident corpus itself lives in [`f3m_core::corpus`]; this crate
//! is the transport and scheduling shell around it.

pub mod client;
pub mod conn;
pub mod poll;
pub mod protocol;
pub mod queue;
pub mod server;

pub use client::Client;
pub use poll::PollerKind;
pub use protocol::{Request, RequestEnvelope, Response};
pub use queue::BoundedQueue;
pub use server::{serve, Admission, AdmissionConfig, LoadSnapshot, ServeConfig, Server};
