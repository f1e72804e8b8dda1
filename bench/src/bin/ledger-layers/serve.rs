//! Probes of `f3m_serve`: the protocol functions called directly, and the
//! transport numbers (round trip, single-function query, pipelining,
//! daemon CPU, wake-ups) that are too wake-up-dominated to gate on.

use std::io::Cursor;
use std::path::Path;

use f3m_core::corpus::QueryResult;
use f3m_ledger::api::{self, DaemonFiles, Json, Req};
use f3m_ledger::irtext::functions;
use f3m_ledger::procfs;
use f3m_ledger::report::{Read, Report};
use f3m_ledger::serve::{expect_type, Daemon, QUERY_K};
use f3m_ledger::stats::{median, percentile};
use f3m_serve::protocol::{parse_request, read_frame, render_response, write_frame, Response};

use crate::spans::{timed, Spans};
use crate::Data;

const PROTOCOL_REPS: usize = 5;
const WIRE_SWEEPS: usize = 10;
const PINGS: usize = 2000;
const WARM_QUERIES: usize = 2000;
const PIPELINED: usize = 4000;
const WINDOW: usize = 16;

pub fn probe_protocol(
    data: &Data,
    answer: &(u64, Vec<QueryResult>),
    spans: &Spans,
    report: &mut Report,
) {
    let s = Some(spans);
    // An ingest-sized request: a whole module as one JSON string.
    let (name, text) = &data.write_corpus[0];
    let payload = api::render(&Req::Ingest { name, ir: text });
    let parse_us: Vec<f64> = (0..PROTOCOL_REPS)
        .map(|_| {
            let (parsed, t) = timed(s, "serve.protocol.parse_request", || {
                parse_request(&payload)
            });
            report
                .tally
                .check(parsed.is_ok(), || "an ingest request did not parse".into());
            t * 1e6
        })
        .collect();
    report.value("serve.protocol.parse_request_us", "us", median(&parse_us));

    // A module-wide answer, as the daemon renders it on every warm query.
    let response = Response::Candidates {
        epoch: answer.0,
        results: answer.1.clone(),
    };
    let mut rendered = String::new();
    let render_us: Vec<f64> = (0..PROTOCOL_REPS)
        .map(|_| {
            let (out, t) = timed(s, "serve.protocol.render_response", || {
                render_response(None, &response)
            });
            rendered = out;
            t * 1e6
        })
        .collect();
    report.value(
        "serve.protocol.render_response_us",
        "us",
        median(&render_us),
    );
    report.value(
        "serve.protocol.resp_kb_per_module_query",
        "kB",
        rendered.len() as f64 / 1024.0,
    );

    let (framed, t) = timed(s, "serve.protocol.frame", || {
        let mut wire = Vec::with_capacity(payload.len() + 4);
        write_frame(&mut wire, &payload).map(|()| read_frame(&mut Cursor::new(wire)))
    });
    let round_tripped = matches!(framed, Ok(Ok(Some(ref back))) if *back == payload);
    report.tally.check(round_tripped, || {
        "a frame did not survive write then read".into()
    });
    report.value(
        "serve.protocol.frame_mb_per_s",
        "MB/s",
        payload.len() as f64 / 1e6 / t,
    );
}

/// Transport probes against a daemon child restored from `snapshot` (the
/// read corpus). `inproc_warm_s` is what one warm module query costs on an
/// in-process corpus restored from the same snapshot.
pub fn probe_server(
    data: &Data,
    exe: &Path,
    snapshot: &Path,
    metrics: &Path,
    inproc_warm_s: f64,
    report: &mut Report,
) -> Result<(), String> {
    let files = DaemonFiles {
        snapshot: Some(snapshot.to_path_buf()),
        metrics: Some(metrics.to_path_buf()),
    };
    let (mut d, _) = Daemon::start_with(exe, &files)?;
    let mut requests = 1.0; // start's ping

    // Warm module queries over the wire against the same call in-process:
    // the difference is request parsing, response rendering, framing, the
    // socket and the two thread hand-offs. (On a cold query it would drown
    // in the ranking work.)
    let queries: Vec<Vec<u8>> = data
        .read_corpus
        .iter()
        .map(|(name, _)| {
            api::render(&Req::QueryModule {
                module: name,
                k: QUERY_K,
            })
        })
        .collect();
    let mut wire_ms = Vec::new();
    for sweep in 0..=WIRE_SWEEPS {
        for query in &queries {
            let (reply, t) = d.request(query)?;
            if sweep == 0 {
                expect_type(&api::parse(&reply)?, "candidates")?; // the cold sweep fills the memo
            } else {
                wire_ms.push(t * 1e3);
            }
        }
    }
    requests += (queries.len() * (WIRE_SWEEPS + 1)) as f64;
    report.samples("serve.query_module_warm_ms", "ms", Read::Median, &wire_ms);
    report.value(
        "serve.wire_overhead_ms",
        "ms",
        median(&wire_ms) - inproc_warm_s * 1e3,
    );

    let ping = api::render(&Req::Ping);
    let mut rtt_us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        rtt_us.push(d.request(&ping)?.1 * 1e6);
    }
    requests += PINGS as f64;
    report.value("serve.rtt.ping_p50_us", "us", median(&rtt_us));
    report.value("serve.rtt.ping_tail_us", "us", percentile(&rtt_us, 99.0));

    // One function's warm answer: the smallest real query.
    let (module, text) = &data.read_corpus[0];
    let func = functions(text)
        .first()
        .map(|f| f.name.to_string())
        .ok_or("corpus module has no function")?;
    let query = api::render(&Req::QueryFunction {
        module,
        func: &func,
        k: QUERY_K,
    });
    expect_type(&api::parse(&d.request(&query)?.0)?, "candidates")?;
    let cpu_before = procfs::cpu_ns(d.pid())?;
    let mut warm_us = Vec::with_capacity(WARM_QUERIES);
    for _ in 0..WARM_QUERIES {
        warm_us.push(d.request(&query)?.1 * 1e6);
    }
    let cpu = procfs::cpu_ns(d.pid())? - cpu_before;
    requests += 1.0 + WARM_QUERIES as f64;
    report.value("serve.query_fn_warm_p50_us", "us", median(&warm_us));
    report.value(
        "serve.daemon_cpu_us_per_req",
        "us",
        cpu as f64 / 1e3 / WARM_QUERIES as f64,
    );

    // The same query with 16 in flight: what pipelining buys over the
    // closed loop the end-to-end workloads use.
    let t = std::time::Instant::now();
    let mut answered = 0;
    for sent in 0..PIPELINED {
        d.send(&query)?;
        if sent + 1 >= WINDOW {
            d.recv()?;
            answered += 1;
        }
    }
    while answered < PIPELINED {
        d.recv()?;
        answered += 1;
    }
    requests += PIPELINED as f64;
    report.value(
        "serve.pipelined_req_per_s",
        "1/s",
        PIPELINED as f64 / t.elapsed().as_secs_f64(),
    );

    let stats = api::parse(&d.request(&api::render(&Req::Stats))?.0)?;
    expect_type(&stats, "stats")?;
    requests += 2.0; // stats, and the shutdown below
    let server = |key: &str| {
        stats
            .get("server")
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
            .ok_or(format!("stats has no server.{key}"))
    };
    report.value("serve.server.sheds", "count", server("sheds")?);
    report.value(
        "serve.server.queue_depth_hwm",
        "count",
        server("queue_depth_hwm")?,
    );
    d.shutdown()?;

    let dump = std::fs::read(metrics).map_err(|e| format!("{}: {e}", metrics.display()))?;
    let wakeups = api::parse(&dump)?
        .get("metrics")
        .and_then(Json::as_array)
        .and_then(|ms| {
            ms.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some("serve.readiness_wakeups"))
        })
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .ok_or("the daemon's metrics have no serve.readiness_wakeups")?;
    report.value("serve.server.wakeups_per_req", "ratio", wakeups / requests);
    Ok(())
}
