//! Observability tier-1 suite: golden snapshot of the `--report json`
//! output and Chrome-trace span coverage of every pipeline stage.

use std::path::{Path, PathBuf};

use f3m::prelude::*;
use f3m::trace::EventKind;

/// The fixed module every test here replays: a half-scale 429.mcf, the
/// same workload the CLI demo (`f3m run`) uses.
fn gate_module() -> f3m::ir::module::Module {
    let spec = table1()
        .into_iter()
        .find(|s| s.name == "429.mcf")
        .expect("known workload")
        .scaled(0.5);
    build_module(&spec)
}

// ---------------------------------------------------------------------------
// Satellite 1: golden snapshot of the JSON report.

/// Replaces the digits after every `_ns":` with a single `0`, so the
/// snapshot is stable across machines while still pinning the full key
/// structure and all deterministic values.
fn normalize_ns(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(i) = rest.find("_ns\":") {
        let (head, tail) = rest.split_at(i + "_ns\":".len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

fn snapshot_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("tests/snapshots/report_429_mcf.json")
}

/// The `--report json` payload for the fixed workload must match the
/// checked-in golden snapshot byte-for-byte once wall-clock fields are
/// normalized. Refresh after an intentional report change with:
///
/// ```text
/// F3M_UPDATE_SNAPSHOT=1 cargo test -p f3m --test observability
/// ```
#[test]
fn json_report_matches_golden_snapshot() {
    let mut m = gate_module();
    let report = run_pass(&mut m, &PassConfig::f3m());
    let current = normalize_ns(&report.to_json());
    let path = snapshot_path();

    if std::env::var("F3M_UPDATE_SNAPSHOT").as_deref() == Ok("1") {
        f3m::trace::write_with_dirs(&path, &current).expect("write snapshot");
        eprintln!("snapshot: refreshed {}", path.display());
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with \
             F3M_UPDATE_SNAPSHOT=1 cargo test -p f3m --test observability",
            path.display()
        )
    });
    assert_eq!(
        current,
        golden,
        "JSON report drifted from the golden snapshot; if intentional, refresh with \
         F3M_UPDATE_SNAPSHOT=1 cargo test -p f3m --test observability"
    );
}

#[test]
fn normalize_ns_only_touches_ns_values() {
    let raw = r#"{"total_ns":123456,"functions":7,"rank":{"success_ns":9,"fail_ns":0}}"#;
    assert_eq!(
        normalize_ns(raw),
        r#"{"total_ns":0,"functions":7,"rank":{"success_ns":0,"fail_ns":0}}"#
    );
}

// ---------------------------------------------------------------------------
// Tentpole acceptance: the Chrome trace covers every pipeline stage.

#[test]
fn chrome_trace_covers_fingerprint_rank_align_commit() {
    let mut m = gate_module();
    let tracer = Tracer::new();
    let report = run_pass_traced(&mut m, &PassConfig::f3m(), Some(&tracer));
    assert!(report.stats.merges_committed > 0, "workload must exercise the pipeline");
    assert_eq!(tracer.dropped_events(), 0);

    let events = tracer.events();
    let spans_named = |name: &str| {
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Span { .. }) && e.name == name)
            .count()
    };
    assert_eq!(spans_named("fingerprint"), 1);
    assert_eq!(spans_named("preprocess"), 1);
    // One rank span per ranking query — every function no earlier commit
    // consumed as its partner — one align span per attempted pair, and
    // one commit span per pair that got past the profitability gate.
    let consumed_ahead = report
        .attempts
        .iter()
        .filter(|a| a.committed && a.f2.index() > a.f1.index())
        .count();
    assert_eq!(spans_named("rank"), report.stats.functions - consumed_ahead);
    assert_eq!(spans_named("align"), report.stats.pairs_attempted);
    assert!(spans_named("commit") >= report.stats.merges_committed);
    assert!(spans_named("commit") <= report.stats.pairs_attempted);
    let committed_spans = events
        .iter()
        .filter(|e| e.name == "commit" && e.arg("committed") == Some(1))
        .count();
    assert_eq!(committed_spans, report.stats.merges_committed);

    // One track: every span is recorded in place on tid 0.
    assert!(events.iter().all(|e| e.tid == 0));

    // The export is structurally a Chrome trace: one traceEvents array,
    // no stray control characters, balanced braces (no string in the
    // export contains `{`/`}` — names and categories are identifiers).
    let json = tracer.to_chrome_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "unbalanced braces in chrome trace export");
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    for needle in ["\"ph\":\"X\"", "\"pid\":1", "\"cat\":\"preprocess\""] {
        assert!(json.contains(needle), "chrome export missing {needle}");
    }
}

// ---------------------------------------------------------------------------
// Tracing is opt-in: untraced and traced runs produce identical results.

#[test]
fn tracing_does_not_perturb_the_pass() {
    let base = gate_module();
    let mut plain = base.clone();
    let mut traced = base;
    let report_plain = run_pass(&mut plain, &PassConfig::f3m());
    let tracer = Tracer::new();
    let report_traced = run_pass_traced(&mut traced, &PassConfig::f3m(), Some(&tracer));
    assert_eq!(
        f3m::ir::printer::print_module(&plain),
        f3m::ir::printer::print_module(&traced)
    );
    assert_eq!(
        normalize_ns(&report_plain.to_json()),
        normalize_ns(&report_traced.to_json())
    );
    assert!(!tracer.is_empty());
}
