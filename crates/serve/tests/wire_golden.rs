//! Golden wire frames: one `render_request` / `render_response` case per
//! variant, compared against bytes captured from the renderers as they
//! were *before* they moved onto `f3m_trace::json::Writer` (ISSUE 15). The
//! expected strings are literals on purpose — re-deriving them from the
//! writer would only prove the writer agrees with itself.

use f3m_core::corpus::{
    CorpusStats, EvictSummary, IngestSummary, QueryResult, RankedCandidate, UpdateSummary,
};
use f3m_serve::protocol::{
    parse_request, render_request, render_response, Request, RequestEnvelope, Response,
    ServerCounters,
};

#[test]
fn every_request_variant_renders_the_captured_bytes() {
    let cases = [
        (
            RequestEnvelope {
            id: Some(7),
            deadline_ms: Some(250),
            body: Request::Ingest {
                name: Some("m2".into()),
                ir: "module \"m\" {\n\tret\\\u{1}é\n}\n".into(),
            },
        },
            "{\"type\":\"ingest\",\"id\":7,\"deadline_ms\":250,\"name\":\"m2\",\"ir\":\"module \\\"m\\\" {\\n\\tret\\\\\\u0001é\\n}\\n\"}",
        ),
        (RequestEnvelope::of(Request::Ingest { name: None, ir: "x".into() }), "{\"type\":\"ingest\",\"ir\":\"x\"}"),
        (RequestEnvelope::of(Request::Evict { name: "m".into() }), "{\"type\":\"evict\",\"name\":\"m\"}"),
        (
            RequestEnvelope {
            id: Some(1),
            deadline_ms: None,
            body: Request::Query { module: "m".into(), func: Some("f".into()), k: 5, if_epoch: None },
        },
            "{\"type\":\"query\",\"id\":1,\"module\":\"m\",\"func\":\"f\",\"k\":5}",
        ),
        (RequestEnvelope::of(Request::Query { module: "m".into(), func: None, k: 3, if_epoch: Some(12) }), "{\"type\":\"query\",\"module\":\"m\",\"k\":3,\"if_epoch\":12}"),
        (
            RequestEnvelope::of(Request::Update {
            module: "m".into(),
            func: "f".into(),
            ir: Some("module \"p\" {\n}\n".into()),
        }),
            "{\"type\":\"update\",\"module\":\"m\",\"func\":\"f\",\"ir\":\"module \\\"p\\\" {\\n}\\n\"}",
        ),
        (RequestEnvelope::of(Request::Update { module: "m".into(), func: "f".into(), ir: None }), "{\"type\":\"update\",\"module\":\"m\",\"func\":\"f\"}"),
        (RequestEnvelope::of(Request::Merge { strategy: "f3m".into(), jobs: Some(2) }), "{\"type\":\"merge\",\"strategy\":\"f3m\",\"jobs\":2}"),
        (RequestEnvelope::of(Request::Merge { strategy: "hyfm".into(), jobs: None }), "{\"type\":\"merge\",\"strategy\":\"hyfm\"}"),
        (RequestEnvelope::of(Request::GlobalMerge { jobs: Some(2), if_epoch: Some(9) }), "{\"type\":\"global_merge\",\"jobs\":2,\"if_epoch\":9}"),
        (RequestEnvelope::of(Request::GlobalMerge { jobs: None, if_epoch: None }), "{\"type\":\"global_merge\"}"),
        (RequestEnvelope::of(Request::Stats), "{\"type\":\"stats\"}"),
        (RequestEnvelope::of(Request::Ping), "{\"type\":\"ping\"}"),
        (RequestEnvelope::of(Request::Sleep { ms: 12 }), "{\"type\":\"sleep\",\"ms\":12}"),
        (RequestEnvelope { id: None, deadline_ms: Some(5), body: Request::Shutdown }, "{\"type\":\"shutdown\",\"deadline_ms\":5}"),
    ];
    for (req, golden) in cases {
        assert_eq!(render_request(&req), golden);
        assert_eq!(parse_request(golden.as_bytes()).unwrap(), req, "golden must parse back");
    }
}

#[test]
fn every_response_variant_renders_the_captured_bytes() {
    let mut server = ServerCounters {
        rejects_busy: 1,
        rejects_deadline: 2,
        errors: 3,
        queue_depth_hwm: 4,
        conns_open: 5,
        conns_open_hwm: 6,
        conns_total: 7,
        frames_reassembled: 8,
        sheds: 9,
        slow_closes: 10,
        readiness_wakeups: 11,
        ..Default::default()
    };
    for (i, n) in server.requests.iter_mut().enumerate() {
        *n = 20 + i as u64;
    }
    let corpus = |resident_pager| CorpusStats {
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
        funcs_spared: 9,
        queries_superseded: 1,
        sketch_comparisons: 70,
        full_comparisons: 12,
        resident_pager,
        resident_bytes: 4096,
        shard_faults: 2,
        shard_spills: 1,
    };
    // Even cases echo `id` 9, odd ones carry none.
    let cases = [
        (
            Response::Ingested(IngestSummary { module: "m".into(), functions: 9, skipped: 1, epoch: 3 }),
            "{\"type\":\"ingested\",\"id\":9,\"module\":\"m\",\"functions\":9,\"skipped\":1,\"epoch\":3}",
        ),
        (
            Response::Evicted(EvictSummary { module: "m".into(), functions: 9, epoch: 4 }),
            "{\"type\":\"evicted\",\"module\":\"m\",\"functions\":9,\"epoch\":4}",
        ),
        (
            Response::Updated(UpdateSummary {
            module: "m".into(),
            func: "f".into(),
            epoch: 6,
            changed: true,
            funcs_invalidated: 4,
        }),
            "{\"type\":\"updated\",\"id\":9,\"module\":\"m\",\"func\":\"f\",\"epoch\":6,\"changed\":true,\"funcs_invalidated\":4}",
        ),
        (
            Response::Superseded { started: 5, epoch: 7 },
            "{\"type\":\"superseded\",\"started\":5,\"epoch\":7}",
        ),
        (
            Response::Candidates {
            epoch: 4,
            results: vec![
                QueryResult {
                    func: "m.f".into(),
                    candidates: vec![
                        RankedCandidate { func: "m.g".into(), similarity: 0.75 },
                        RankedCandidate { func: "m.h".into(), similarity: 1.0 },
                    ],
                },
                QueryResult { func: "m.g".into(), candidates: vec![] },
            ],
        },
            "{\"type\":\"candidates\",\"id\":9,\"epoch\":4,\"results\":[{\"func\":\"m.f\",\"candidates\":[{\"func\":\"m.g\",\"similarity\":0.75},{\"func\":\"m.h\",\"similarity\":1}]},{\"func\":\"m.g\",\"candidates\":[]}]}",
        ),
        (
            Response::Candidates { epoch: 0, results: vec![] },
            "{\"type\":\"candidates\",\"epoch\":0,\"results\":[]}",
        ),
        (
            Response::Report { epoch: 2, report: "{\"stats\":{},\"attempts\":[]}".into() },
            "{\"type\":\"report\",\"id\":9,\"epoch\":2,\"report\":{\"stats\":{},\"attempts\":[]}}",
        ),
        (
            Response::Stats { corpus: Box::new(corpus(Some("mmap"))), server: Box::new(server) },
            "{\"type\":\"stats\",\"corpus\":{\"epoch\":5,\"modules_live\":2,\"modules_total\":3,\"functions_live\":18,\"entries_total\":27,\"index_buckets\":40,\"index_max_bucket\":4,\"memo_hits\":11,\"memo_misses\":5,\"funcs_invalidated\":3,\"funcs_spared\":9,\"queries_superseded\":1,\"sketch_comparisons\":70,\"full_comparisons\":12,\"resident_pager\":\"mmap\",\"resident_bytes\":4096,\"shard_faults\":2,\"shard_spills\":1},\"server\":{\"requests\":{\"ingest\":20,\"evict\":21,\"query\":22,\"update\":23,\"merge\":24,\"global_merge\":25,\"stats\":26,\"ping\":27,\"sleep\":28,\"shutdown\":29},\"rejects_busy\":1,\"rejects_deadline\":2,\"errors\":3,\"queue_depth_hwm\":4,\"conns_open\":5,\"conns_open_hwm\":6,\"conns_total\":7,\"frames_reassembled\":8,\"sheds\":9,\"slow_closes\":10}}",
        ),
        (
            Response::Stats {
            corpus: Box::new(corpus(None)),
            server: Box::new(ServerCounters::default()),
        },
            "{\"type\":\"stats\",\"id\":9,\"corpus\":{\"epoch\":5,\"modules_live\":2,\"modules_total\":3,\"functions_live\":18,\"entries_total\":27,\"index_buckets\":40,\"index_max_bucket\":4,\"memo_hits\":11,\"memo_misses\":5,\"funcs_invalidated\":3,\"funcs_spared\":9,\"queries_superseded\":1,\"sketch_comparisons\":70,\"full_comparisons\":12,\"resident_pager\":null,\"resident_bytes\":4096,\"shard_faults\":2,\"shard_spills\":1},\"server\":{\"requests\":{\"ingest\":0,\"evict\":0,\"query\":0,\"update\":0,\"merge\":0,\"global_merge\":0,\"stats\":0,\"ping\":0,\"sleep\":0,\"shutdown\":0},\"rejects_busy\":0,\"rejects_deadline\":0,\"errors\":0,\"queue_depth_hwm\":0,\"conns_open\":0,\"conns_open_hwm\":0,\"conns_total\":0,\"frames_reassembled\":0,\"sheds\":0,\"slow_closes\":0}}",
        ),
        (
            Response::Pong,
            "{\"type\":\"pong\"}",
        ),
        (
            Response::Slept { ms: 5 },
            "{\"type\":\"slept\",\"id\":9,\"ms\":5}",
        ),
        (
            Response::Bye,
            "{\"type\":\"bye\"}",
        ),
        (
            Response::Busy { queue_depth: 7, shed_seq: 3 },
            "{\"type\":\"busy\",\"id\":9,\"queue_depth\":7,\"shed_seq\":3}",
        ),
        (
            Response::Overloaded { queue_depth: 8, in_flight: 12, shed_seq: 4, retry_after_ms: 25 },
            "{\"type\":\"overloaded\",\"queue_depth\":8,\"in_flight\":12,\"shed_seq\":4,\"retry_after_ms\":25}",
        ),
        (
            Response::Error { message: "boom \"quoted\"\n\ttab \\ \u{7} é".into() },
            "{\"type\":\"error\",\"id\":9,\"message\":\"boom \\\"quoted\\\"\\n\\ttab \\\\ \\u0007 é\"}",
        ),
    ];
    for (i, (resp, golden)) in cases.iter().enumerate() {
        let id = (i % 2 == 0).then_some(9);
        assert_eq!(render_response(id, resp), *golden, "{}", resp.type_name());
    }
}
