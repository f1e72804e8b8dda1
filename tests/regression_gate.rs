//! Perf-regression gate (tier-1).
//!
//! Replays a fixed workload mix through the merging pass, collects the
//! *deterministic* metrics (work counts, never wall time) and compares
//! them against the checked-in `results/BASELINE_metrics.json` with
//! per-metric tolerance bands. A change that silently blows up the number
//! of fingerprint comparisons, DP cells or LSH evictions fails here even
//! though the output module is still correct.
//!
//! Refreshing after an intentional change:
//!
//! ```text
//! F3M_UPDATE_BASELINE=1 cargo test -p f3m --test regression_gate
//! ```
//!
//! Wall-clock metrics are written to the baseline with value 0 and are
//! ignored by [`compare`], so the checked-in file is machine-independent.

use std::path::{Path, PathBuf};

use f3m::prelude::*;
use f3m::trace::{compare, parse_metrics, render_metrics, MetricSnapshot, Tolerance};

/// The gate's fixed workload mix: two Table I programs of different
/// classes, half scale, merged with the default F3M strategy. Prefixes
/// keep the two metric sets apart in one flat registry.
const GATE_WORKLOADS: &[(&str, &str)] = &[("mcf", "429.mcf"), ("libquantum", "462.libquantum")];

fn collect_metrics() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for &(prefix, name) in GATE_WORKLOADS {
        let spec = table1()
            .into_iter()
            .find(|s| s.name == name)
            .expect("gate workload exists in table1")
            .scaled(0.5);
        let mut m = build_module(&spec);
        let report = run_pass(&mut m, &PassConfig::f3m());
        f3m::ir::verify::verify_module(&m).expect("merged module verifies");
        let (bounded, size) = (report.stats.commits_bounded, report.stats.commits_rejected_size);
        assert!(bounded <= size, "{name}: {bounded} bounded of {size} size rejects");
        report.export_metrics(&mut reg, prefix);
    }
    collect_incremental_metrics(&mut reg);
    collect_serve_metrics(&mut reg);
    collect_global_metrics(&mut reg);
    collect_residency_metrics(&mut reg);
    reg
}

/// Deterministic residency scenario: one module snapshotted to disk,
/// restored through the file-backed resident store under a budget
/// smaller than the pool, then swept with a fixed single-threaded query
/// sequence. The residency counters record the manager's fault/spill
/// decisions in snapshot pool bytes, so they gate like work counts: a
/// shard-sizing or LRU change that doubles the thrash for this access
/// pattern trips the band.
fn collect_residency_metrics(reg: &mut MetricsRegistry) {
    use f3m::core::corpus::{Corpus, CorpusConfig};
    use f3m::fingerprint::pager::PagerKind;
    use f3m::fingerprint::resident::TARGET_SHARD_BYTES;

    let cfg = CorpusConfig { jobs: 1, ..CorpusConfig::default() };
    let corpus = Corpus::new(cfg.clone());
    // ~400 rows at ~2 kB/row spans several 256 kB shards, so a one-shard
    // budget makes the sweep below genuinely fault and spill.
    let mut spec = f3m::workloads::mini_suite()[0].clone();
    spec.functions = 400;
    spec.seed = 500;
    let mut m = build_module(&spec);
    m.name = "res_gate".to_string();
    corpus.ingest(m).expect("gate corpus ingest");

    // One directory per call: the three tests of this file collect
    // concurrently in one process and each removes its directory.
    static CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("f3m_gate_res_{}_{call}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("gate temp dir");
    let path = dir.join("res_gate.f3msnap");
    corpus.save_snapshot(&path).expect("gate snapshot save");

    // Budget of one shard forces real spill traffic on the sweep below.
    let budget = TARGET_SHARD_BYTES as u64;
    let restored = Corpus::load_snapshot_resident(&path, cfg, PagerKind::Auto, budget)
        .expect("gate resident restore");
    for _ in 0..2 {
        restored.query_module("res_gate", 5).expect("gate resident query");
    }
    let (_, counters) =
        restored.residency().expect("resident restore reports residency counters");
    drop(restored);
    let _ = std::fs::remove_dir_all(&dir);

    for (name, unit, v) in [
        ("residency.resident_bytes", "bytes", counters.resident_bytes),
        ("residency.shard_faults", "count", counters.shard_faults),
        ("residency.shard_spills", "count", counters.shard_spills),
    ] {
        let c = reg.counter(name, unit, true);
        reg.set(c, v);
    }
}

/// Deterministic global-merge scenario: three small resident modules,
/// two seed-twinned (cross-module clone families) and one fresh, merged
/// by `global_merge`. Every [`GlobalStats`] counter is a pure function
/// of this corpus — no wall clock, no job-count dependence — so the merge
/// and differential-probe counts gate exactly like the pass metrics: a
/// change that silently doubles the probe fan-out trips the band.
fn collect_global_metrics(reg: &mut MetricsRegistry) {
    use f3m::core::corpus::{Corpus, CorpusConfig};
    use f3m::core::{global_merge, GlobalPlanConfig};

    let corpus = Corpus::new(CorpusConfig { jobs: 2, ..CorpusConfig::default() });
    for (name, seed) in [("glob_a", 500u64), ("glob_b", 500), ("glob_c", 777)] {
        let mut spec = f3m::workloads::mini_suite()[0].clone();
        spec.functions = 16;
        spec.seed = seed;
        let mut m = build_module(&spec);
        m.name = name.to_string();
        corpus.ingest(m).expect("gate corpus ingest");
    }
    let cfg = GlobalPlanConfig::default().with_jobs(2);
    let (report, merged, _epoch) = global_merge(&corpus, &cfg).expect("gate global merge");
    f3m::ir::verify::verify_module(&merged).expect("gate global module verifies");
    assert!(report.merges.iter().any(|r| r.cross_module), "gate scenario merges across modules");
    report.export_metrics(reg, "global");
}

/// Deterministic serving scenario: one daemon, one synchronous client,
/// a fixed request sequence. The connection and frame counters the
/// daemon reports for this sequence are pure work counts (exactly one
/// connection, exactly these frames), so they gate like everything
/// else — an event-loop change that starts double-counting frames or
/// leaking connections trips the band. The admission controller is
/// additionally scripted directly (no sockets) to pin shed behaviour.
fn collect_serve_metrics(reg: &mut MetricsRegistry) {
    use f3m::serve::{protocol::Request, Client, ServeConfig, Server};

    let server = Server::bind(ServeConfig { jobs: 1, ..ServeConfig::default() }).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run());
    let mut c = Client::connect(addr).unwrap();
    c.set_timeout(Some(std::time::Duration::from_secs(60))).unwrap();

    let mut spec = f3m::workloads::mini_suite()[0].clone();
    spec.functions = 24;
    spec.seed = 400;
    let mut m = build_module(&spec);
    m.name = "gate_serve".to_string();
    c.call_expect(Request::Ping, "pong").unwrap();
    c.call_expect(
        Request::Ingest { name: None, ir: f3m::ir::printer::print_module(&m) },
        "ingested",
    )
    .unwrap();
    c.call_expect(
        Request::Query { module: "gate_serve".into(), func: None, k: 4, if_epoch: None },
        "candidates",
    )
    .unwrap();
    let stats = c.call_expect(Request::Stats, "stats").unwrap();
    let server_counter = |key: &str| -> u64 {
        stats
            .get("server")
            .and_then(|s| s.get(key))
            .and_then(f3m::trace::Json::as_u64)
            .unwrap_or_else(|| panic!("stats response carries `{key}`"))
    };
    for (name, v) in [
        ("serve.conns_open", server_counter("conns_open")),
        ("serve.conns_total", server_counter("conns_total")),
        ("serve.frames_reassembled", server_counter("frames_reassembled")),
        ("serve.sheds", server_counter("sheds")),
    ] {
        let counter = reg.counter(name, "count", true);
        reg.set(counter, v);
    }
    c.call_expect(Request::Shutdown, "bye").unwrap();
    handle.join().unwrap().expect("clean shutdown");

    // Scripted admission: a fixed load trajectory through the pure
    // controller. The decision sequence (and therefore the shed count)
    // is deterministic; a threshold-semantics change moves it.
    use f3m::serve::{Admission, AdmissionConfig, LoadSnapshot};
    let mut admission = Admission::new(AdmissionConfig {
        queue_shed_depth: 8,
        max_inflight_global: 12,
        max_inflight_per_conn: 4,
        retry_after_ms: 25,
    });
    let mut admitted = 0u64;
    for step in 0..32u64 {
        let load = LoadSnapshot {
            queue_depth: (step % 11) as usize,
            global_inflight: (step % 14) as usize,
            conn_inflight: (step % 5) as usize,
        };
        if admission.admit(load).is_none() {
            admitted += 1;
        }
    }
    for (name, v) in [
        ("serve.admission.admitted", admitted),
        ("serve.admission.sheds", admission.shed_seq()),
    ] {
        let counter = reg.counter(name, "count", true);
        reg.set(counter, v);
    }
}

/// Deterministic incremental-recompute scenario: two resident modules,
/// a cold query sweep, a warm sweep, one body-swap `update_function`,
/// and a post-update sweep. The corpus memo and ranking-kernel counters
/// are pure work counts for this fixed synchronous sequence, so they
/// gate exactly like the pass metrics: an invalidation-granularity
/// regression (e.g. an update suddenly dirtying the whole corpus) or a
/// bound that stops pruning trips the band.
fn collect_incremental_metrics(reg: &mut MetricsRegistry) {
    use f3m::core::corpus::{Corpus, CorpusConfig};

    let corpus = Corpus::new(CorpusConfig { jobs: 1, ..CorpusConfig::default() });
    for (i, name) in ["inc_a", "inc_b"].into_iter().enumerate() {
        let mut spec = f3m::workloads::mini_suite()[0].clone();
        spec.functions = 48;
        spec.seed = 300 + i as u64;
        let mut m = build_module(&spec);
        m.name = name.to_string();
        corpus.ingest(m).expect("gate corpus ingest");
    }
    let sweep = |corpus: &Corpus| {
        for name in ["inc_a", "inc_b"] {
            corpus.query_module(name, 5).expect("gate corpus query");
        }
    };
    sweep(&corpus); // cold: all misses
    sweep(&corpus); // warm: all hits

    // One in-place edit: swap the bodies of a signature-identical
    // family pair of `inc_a`, then sweep again.
    let m = f3m::ir::parser::parse_module(&corpus.module_source("inc_a").unwrap()).unwrap();
    let eligible: Vec<String> =
        m.merge_eligible().into_iter().map(|f| m.function(f).name.clone()).collect();
    let sig = |name: &str| {
        let f = m.function(m.lookup_function(name).unwrap());
        (f.params.clone(), f.ret_ty)
    };
    let (dst, src) = eligible
        .iter()
        .find_map(|a| {
            let (fam, member) = a.rsplit_once('_')?;
            if member != "0" {
                return None;
            }
            let b = format!("{fam}_1");
            (eligible.contains(&b) && sig(a) == sig(&b)).then(|| (a.clone(), b))
        })
        .expect("gate workload has a swappable family pair");
    let mut patched = m.clone();
    let d = patched.lookup_function(&dst).unwrap();
    let s = patched.lookup_function(&src).unwrap();
    patched.rename_function(d, format!("{dst}__old"));
    patched.rename_function(s, dst.clone());
    let patch = f3m::ir::printer::print_module(&patched);
    let misses_before = corpus.stats().memo_misses;
    let up = corpus.update_function("inc_a", &dst, Some(&patch)).expect("gate corpus update");
    sweep(&corpus); // post-update: misses == the entries the edit invalidated

    let stats = corpus.stats();
    assert_eq!(
        stats.memo_misses - misses_before,
        up.funcs_invalidated,
        "the post-update sweep re-ranks exactly what the update invalidated"
    );
    for (name, v) in [
        ("incremental.memo_hits", stats.memo_hits),
        ("incremental.memo_misses", stats.memo_misses),
        ("incremental.funcs_invalidated", stats.funcs_invalidated),
        ("incremental.funcs_spared", stats.funcs_spared),
        ("incremental.queries_superseded", stats.queries_superseded),
        ("incremental.sketch_comparisons", stats.sketch_comparisons),
        ("incremental.full_comparisons", stats.full_comparisons),
    ] {
        let c = reg.counter(name, "count", true);
        reg.set(c, v);
    }
}

/// Snapshots with nondeterministic (wall-clock) values scrubbed to zero,
/// so baseline refreshes only diff when deterministic metrics move.
fn scrubbed_snapshots(reg: &MetricsRegistry) -> Vec<MetricSnapshot> {
    let mut snaps = reg.snapshots();
    for s in &mut snaps {
        if !s.deterministic {
            s.value = 0.0;
        }
    }
    snaps
}

/// Per-metric tolerance policy, keyed on the metric-name suffix.
///
/// Structural facts of the input are exact; sizes are tight; work counts
/// (the quantities this gate exists to watch) get a band wide enough to
/// absorb benign tweaks but narrow enough to catch an accidental
/// complexity regression.
fn tolerance_for(name: &str) -> Tolerance {
    let suffix = name.rsplit('.').next().unwrap_or(name);
    match suffix {
        // The generated input module is a pure function of the spec; the
        // packed-store row footprint is a pure function of the search
        // parameters (9k + 4b bytes).
        "functions" | "size_before" | "soa_bytes_per_fn" => Tolerance::exact(),
        // Output size should barely move without an intentional change.
        "size_after" => Tolerance { rel: 0.05, abs: 8.0 },
        "size_reduction" => Tolerance { rel: 0.25, abs: 0.02 },
        // Work counts: ±15 % or a small absolute slack.
        "fingerprint_comparisons" | "sketch_comparisons" | "full_comparisons"
        | "candidates_examined" | "candidates_returned" | "align_cells" | "bucket_evictions"
        | "lsh_buckets" | "lsh_max_bucket" | "lsh_bucket_occupancy" | "probe_collisions" => {
            Tolerance { rel: 0.15, abs: 16.0 }
        }
        // Global-merge work counts: verification fan-out for the fixed
        // three-module scenario. Banded like the other work counts — a
        // change that doubles the probe count is a complexity
        // regression, not noise.
        "differential_probes" | "differential_skips" => Tolerance { rel: 0.15, abs: 16.0 },
        // Incremental-recompute work counts: how much one update dirties
        // is a banded quantity (a granularity regression blows well past
        // 15 %); hit/miss totals for the fixed sweep sequence likewise.
        "memo_hits" | "memo_misses" | "funcs_invalidated" | "funcs_spared" => {
            Tolerance { rel: 0.15, abs: 8.0 }
        }
        // Residency thrash for the fixed single-budget sweep: fault and
        // spill totals are the manager's decisions; a shard-sizing or
        // LRU-policy change that doubles them is a
        // regression. Resident bytes track shard geometry, so a benign
        // row-layout tweak moves them a little, not a lot.
        "shard_faults" | "shard_spills" => Tolerance { rel: 0.15, abs: 16.0 },
        "resident_bytes" => Tolerance { rel: 0.15, abs: 4096.0 },
        // Serving counters for the fixed one-client scenario and the
        // scripted admission trajectory are exact work counts: one
        // connection, a known frame sequence, a deterministic decision
        // sequence. Any drift is a semantic change, not noise.
        "conns_open" | "conns_total" | "frames_reassembled" | "sheds" | "admitted" => {
            Tolerance::exact()
        }
        // The merged-size lower bound changes no decision, only where a
        // size reject is decided: a pair it stops proving too big costs a
        // whole build again, and one it starts to turn down means the
        // layout walk and the builder no longer agree.
        "commits_bounded" => Tolerance::exact(),
        // Everything else (pairs, merges, cache counters, rejects).
        _ => Tolerance { rel: 0.10, abs: 4.0 },
    }
}

fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join("results/BASELINE_metrics.json")
}

#[test]
fn perf_regression_gate() {
    let reg = collect_metrics();
    let snaps = scrubbed_snapshots(&reg);
    let path = baseline_path();

    if std::env::var("F3M_UPDATE_BASELINE").as_deref() == Ok("1") {
        f3m::trace::write_with_dirs(&path, &render_metrics(&snaps)).expect("write baseline");
        eprintln!("regression gate: refreshed {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); generate it with \
             F3M_UPDATE_BASELINE=1 cargo test -p f3m --test regression_gate",
            path.display()
        )
    });
    let baseline = parse_metrics(&text).expect("baseline parses");
    let violations = compare(&snaps, &baseline, tolerance_for);
    assert!(
        violations.is_empty(),
        "perf-regression gate failed ({} violation(s)):\n  {}\n\
         If the drift is intentional, refresh with \
         F3M_UPDATE_BASELINE=1 cargo test -p f3m --test regression_gate",
        violations.len(),
        violations.join("\n  ")
    );
}

/// The gate must actually bite: an injected drift beyond the band is
/// flagged, naming the drifted metric, while the unperturbed snapshot
/// passes against itself.
#[test]
fn gate_flags_injected_drift_and_passes_on_identity() {
    let reg = collect_metrics();
    let snaps = scrubbed_snapshots(&reg);
    assert!(
        compare(&snaps, &snaps, tolerance_for).is_empty(),
        "identical snapshots must always pass the gate"
    );

    let mut drifted = snaps.clone();
    let idx = drifted
        .iter()
        .position(|s| s.deterministic && s.name.ends_with(".align_cells") && s.value > 0.0)
        .expect("gate workload computes some DP cells");
    drifted[idx].value *= 2.0;
    let violations = compare(&drifted, &snaps, tolerance_for);
    assert!(
        violations.iter().any(|v| v.contains("align_cells")),
        "doubled align_cells must trip the gate, got: {violations:?}"
    );

    // A wall-clock metric drifting arbitrarily must NOT trip it.
    let mut timed = snaps.clone();
    if let Some(t) = timed.iter_mut().find(|s| !s.deterministic) {
        t.value = 1e12;
        assert!(
            compare(&timed, &snaps, tolerance_for).is_empty(),
            "nondeterministic metrics are outside the gate"
        );
    }
}

/// Two in-process runs of the collection produce byte-identical
/// deterministic dumps — the property that makes a checked-in baseline
/// meaningful at all.
#[test]
fn gate_metrics_are_reproducible() {
    let a = render_metrics(&scrubbed_snapshots(&collect_metrics()));
    let b = render_metrics(&scrubbed_snapshots(&collect_metrics()));
    assert_eq!(a, b);
}
