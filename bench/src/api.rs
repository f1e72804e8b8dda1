//! The whole product surface the end-to-end `ledger` binary compiles
//! against, in one file.
//!
//! Everything else in this library (`pass`, `serve`, `workload`, …) goes
//! through these wrappers, so an internal refactor of the product — typed
//! errors, a collapsed corpus, a structural write path — can only break
//! the end-to-end benchmark by changing one of the few signatures named
//! here. Product errors are never matched on: they are carried as their
//! `Debug` rendering.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use f3m_core::pass::{run_pass, PassConfig};
use f3m_interp::{Interpreter, Val};
use f3m_serve::protocol::{parse_response, render_request, Request, RequestEnvelope};
use f3m_serve::{Client, ServeConfig, Server};

pub use f3m_ir::module::Module;
pub use f3m_trace::Json;
pub use f3m_workloads::{build_module, mini_suite, table1, SizeClass, WorkloadSpec};

/// Name of the entry point every generated module carries.
pub const DRIVER: &str = "__driver";

pub fn parse_module(text: &str) -> Result<Module, String> {
    f3m_ir::parser::parse_module(text).map_err(|e| format!("{e:?}"))
}

pub fn print_module(m: &Module) -> String {
    f3m_ir::printer::print_module(m)
}

pub fn verify_module(m: &Module) -> Result<(), String> {
    f3m_ir::verify::verify_module(m).map_err(|e| format!("{e:?}"))
}

/// What one `run_pass` call reports that the end-to-end metrics use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PassCounts {
    pub functions: u64,
    pub pairs_attempted: u64,
    pub merges_committed: u64,
    pub size_before: u64,
    pub size_after: u64,
}

/// Runs the adaptive F3M pass with one job over `m` in place and returns
/// the wall time of the call with the report's counts.
pub fn run_pass_adaptive(m: &mut Module) -> (Duration, PassCounts) {
    let cfg = PassConfig::f3m_adaptive().with_jobs(1);
    let t = Instant::now();
    let report = run_pass(m, &cfg);
    let wall = t.elapsed();
    let s = &report.stats;
    let counts = PassCounts {
        functions: s.functions as u64,
        pairs_attempted: s.pairs_attempted as u64,
        merges_committed: s.merges_committed as u64,
        size_before: s.size_before,
        size_after: s.size_after,
    };
    (wall, counts)
}

/// One interpreter run of `__driver(input)`: what it returned (rendered),
/// the `ext_sink` checksum, and the instructions executed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DriverRun {
    pub ret: String,
    pub checksum: u64,
    pub steps: u64,
}

pub fn run_driver(m: &Module, input: i64) -> Result<DriverRun, String> {
    let out = Interpreter::new(m)
        .call_by_name(DRIVER, &[Val::Int(input)])
        .map_err(|t| format!("{t:?}"))?;
    Ok(DriverRun {
        ret: format!("{:?}", out.ret),
        checksum: out.checksum,
        steps: out.steps,
    })
}

/// Files a daemon child is pointed at.
#[derive(Clone, Debug, Default)]
pub struct DaemonFiles {
    /// Restored from at bind when it exists, saved to on shutdown.
    pub snapshot: Option<PathBuf>,
    /// The daemon's own counters, written on shutdown.
    pub metrics: Option<PathBuf>,
}

/// Body of `ledger daemon`: binds a default-configured daemon with one
/// worker on an ephemeral loopback port, reports the address through
/// `announce`, and serves until a `shutdown` request.
pub fn serve_until_shutdown(
    files: DaemonFiles,
    announce: impl FnOnce(SocketAddr),
) -> Result<(), String> {
    let cfg = ServeConfig {
        jobs: 1,
        snapshot_path: files.snapshot,
        metrics_path: files.metrics,
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg).map_err(|e| format!("{e:?}"))?;
    announce(server.local_addr().map_err(|e| format!("{e:?}"))?);
    server.run().map_err(|e| format!("{e:?}"))
}

/// The requests the workloads send.
pub enum Req<'a> {
    Ping,
    Stats,
    Shutdown,
    Ingest {
        name: &'a str,
        ir: &'a str,
    },
    Evict {
        name: &'a str,
    },
    QueryModule {
        module: &'a str,
        k: usize,
    },
    QueryFunction {
        module: &'a str,
        func: &'a str,
        k: usize,
    },
    Update {
        module: &'a str,
        func: &'a str,
        ir: &'a str,
    },
}

/// Renders a request frame payload.
pub fn render(req: &Req) -> Vec<u8> {
    let body = match *req {
        Req::Ping => Request::Ping,
        Req::Stats => Request::Stats,
        Req::Shutdown => Request::Shutdown,
        Req::Ingest { name, ir } => Request::Ingest {
            name: Some(name.into()),
            ir: ir.into(),
        },
        Req::Evict { name } => Request::Evict { name: name.into() },
        Req::QueryModule { module, k } => Request::Query {
            module: module.into(),
            func: None,
            k,
            if_epoch: None,
        },
        Req::QueryFunction { module, func, k } => Request::Query {
            module: module.into(),
            func: Some(func.into()),
            k,
            if_epoch: None,
        },
        Req::Update { module, func, ir } => Request::Update {
            module: module.into(),
            func: func.into(),
            ir: Some(ir.into()),
        },
    };
    render_request(&RequestEnvelope::of(body)).into_bytes()
}

pub fn parse(payload: &[u8]) -> Result<Json, String> {
    parse_response(payload)
}

/// One synchronous connection to a daemon.
pub struct Conn(Client);

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let c = Client::connect(addr).map_err(|e| format!("{e:?}"))?;
        // A reply that never comes must fail the run, not hang it.
        c.set_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| format!("{e:?}"))?;
        Ok(Conn(c))
    }

    pub fn send(&mut self, payload: &[u8]) -> Result<(), String> {
        self.0.send_frame(payload).map_err(|e| format!("{e:?}"))
    }

    pub fn recv(&mut self) -> Result<Vec<u8>, String> {
        self.0
            .recv_frame()?
            .ok_or_else(|| "connection closed before a response".to_string())
    }
}
