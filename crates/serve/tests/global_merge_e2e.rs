//! End-to-end daemon tests for the `global_merge` verb: the two-phase
//! cross-module planner runs over the resident corpus behind a real TCP
//! socket, honours `if_epoch` with `superseded` semantics, and renders
//! byte-identical reports for any combination of server worker count and
//! planner job count.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::Duration;

use f3m_ir::module::Module;
use f3m_serve::protocol::{Request, RequestEnvelope};
use f3m_serve::{Client, ServeConfig, Server};
use f3m_trace::Json;

fn workload(name: &str, seed: u64) -> Module {
    let mut spec = f3m_workloads::mini_suite()[0].clone();
    spec.functions = 16;
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

/// `global_merge` over a real socket: a stale `if_epoch` pin is
/// superseded without planning, a matching pin yields a report pinned at
/// that epoch, and twin modules produce committed cross-module merges.
#[test]
fn global_merge_over_a_real_socket_honours_epochs() {
    let (addr, h) = start(2);
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(Duration::from_secs(120))).unwrap();
    // alpha and delta share a seed: their families are cross-module twins.
    for m in [workload("alpha", 11), workload("beta", 22), workload("delta", 11)] {
        ingest(&mut c, &m);
    }

    // Stale pin: answered `superseded` before any planning work.
    let v = c
        .call_expect(Request::GlobalMerge { jobs: None, if_epoch: Some(1) }, "superseded")
        .unwrap();
    assert_eq!(v.get("started").and_then(Json::as_u64), Some(1));
    assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(3));

    // Matching pin: a full two-phase report pinned at the query epoch.
    let v = c
        .call_expect(Request::GlobalMerge { jobs: Some(2), if_epoch: Some(3) }, "report")
        .unwrap();
    assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(3));
    let report = v.get("report").unwrap();
    let stat = |k: &str| report.get("stats").and_then(|s| s.get(k)).and_then(Json::as_u64).unwrap();
    assert!(stat("cross_module_pairs") > 0, "twin modules must collide across modules");
    assert!(stat("verified_merges") > 0, "twin modules must survive verification");
    assert!(stat("global_profit_bytes") > 0);
    let merges = report.get("merges").and_then(Json::as_array).unwrap();
    assert!(
        merges.iter().any(|m| m.get("cross_module").and_then(Json::as_bool) == Some(true)),
        "at least one committed merge must cross a module boundary"
    );

    // The supersession was counted through the corpus like any other.
    let v = c.call_expect(Request::Stats, "stats").unwrap();
    let superseded =
        v.get("corpus").and_then(|s| s.get("queries_superseded")).and_then(Json::as_u64).unwrap();
    assert!(superseded >= 1, "stale global_merge pin must count as a supersession");

    c.call_expect(Request::Shutdown, "bye").unwrap();
    h.join().unwrap().expect("clean shutdown");
}

/// The same `global_merge` sequence is byte-identical for every server
/// worker count *and* every planner job count: the report JSON is a pure
/// function of corpus state.
#[test]
fn global_merge_responses_are_byte_identical_across_worker_counts() {
    fn scenario(workers: usize) -> Vec<String> {
        let (addr, h) = start(workers);
        let mut c = Client::connect(addr).unwrap();
        c.set_timeout(Some(Duration::from_secs(120))).unwrap();
        let mut raw = Vec::new();
        for m in [workload("alpha", 11), workload("beta", 22), workload("delta", 11)] {
            raw.push(
                c.request_raw(&RequestEnvelope::of(Request::Ingest {
                    name: None,
                    ir: ir_text(&m),
                }))
                .unwrap(),
            );
        }
        for jobs in [None, Some(1), Some(8)] {
            raw.push(
                c.request_raw(&RequestEnvelope::of(Request::GlobalMerge {
                    jobs,
                    if_epoch: None,
                }))
                .unwrap(),
            );
        }
        raw.push(
            c.request_raw(&RequestEnvelope::of(Request::GlobalMerge {
                jobs: None,
                if_epoch: Some(1),
            }))
            .unwrap(),
        );
        c.call_expect(Request::Shutdown, "bye").unwrap();
        h.join().unwrap().expect("clean shutdown");
        raw
    }

    let serial = scenario(1);
    // Within one run, the planner's own job count must not leak into the
    // report (responses 3, 4 and 5 are the same request at jobs
    // unset/1/8).
    assert_eq!(serial[3], serial[4], "planner jobs=1 changed the report");
    assert_eq!(serial[3], serial[5], "planner jobs=8 changed the report");
    for workers in [2, 8] {
        let parallel = scenario(workers);
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(a, b, "response {i} differs between 1 and {workers} workers");
        }
    }
}
