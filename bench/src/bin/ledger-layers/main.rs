//! `ledger-layers` — the traced run.
//!
//! ```text
//! ledger-layers run --workload <name> [--seed n]
//! ```
//!
//! Calls into each layer on the workload's own data — the pass plan's
//! modules, the read plan's corpus, the write plan's corpus — with a span
//! around every call, prints every per-layer metric of `BENCHMARK.json`
//! plus a self-time table, and writes the spans as a Chrome trace to
//! `target/ledger/<workload>.trace.json`. Nothing here feeds an end-to-end
//! metric: those come from the untraced `ledger` binary.
//!
//! Unlike `ledger`, this binary reaches into the product's internals; a
//! refactor there is expected to need a matching edit here.

mod core;
mod fingerprint;
mod ir;
mod serve;
mod spans;

use std::process::ExitCode;

use f3m_ir::module::Module;
use f3m_ledger::cli::{parse_run, RunArgs};
use f3m_ledger::report::Report;
use f3m_ledger::serve::Scratch;
use f3m_ledger::workload::{corpus_module, pass_modules};
use f3m_ledger::{calib, serve as harness};

use crate::spans::Spans;

/// The workload's own data, as the three legs of `ledger` generate it.
pub struct Data {
    pub seed: u64,
    pub pass_modules: Vec<Module>,
    /// `(name, printed text)` of the read plan's corpus.
    pub read_corpus: Vec<(String, String)>,
    pub write_corpus: Vec<(String, String)>,
}

fn run(args: RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let w = args.workload;
    let mut report = Report::new(w.name, args.seed, "layers");
    let mut walk = calib::Walk::new();
    let calib_start = walk.read_ms();
    let corpus = |modules: usize, functions: usize| {
        (0..modules).map(|i| corpus_module(i, functions)).collect()
    };
    let data = Data {
        seed: args.seed,
        pass_modules: pass_modules(w.pass.input),
        read_corpus: corpus(w.read.modules, w.read.functions),
        write_corpus: corpus(w.write.modules, w.write.functions),
    };
    let scratch = Scratch::new("layers")?;
    let (snapshot, resaved, metrics) = (
        scratch.file("read.f3msnap"),
        scratch.file("resaved.f3msnap"),
        scratch.file("daemon-metrics.json"),
    );
    let spans = Spans::new();

    ir::probe(&data, &spans, &mut report);
    fingerprint::probe_pipeline(&data, &spans, &mut report);
    let (pass_untraced, pass_traced) = core::probe_pass(&data, &spans, &mut report);
    core::probe_steps(&data, &spans, &mut report);

    // The corpus replays run twice, spans off and on: the difference over
    // the same calls is what tracing costs.
    let read_untraced = core::replay_read(&data, &snapshot, None, None)?.timed_s;
    let read = core::replay_read(&data, &snapshot, Some(&spans), Some(&mut report))?;
    let write_untraced = core::replay_write(&data, None, None)?;
    let write_traced = core::replay_write(&data, Some(&spans), Some(&mut report))?;
    let (untraced, traced) = (
        pass_untraced + read_untraced + write_untraced,
        pass_traced + read.timed_s + write_traced,
    );
    report.value(
        "bench.trace_overhead_pct",
        "%",
        (traced - untraced) / untraced * 100.0,
    );

    fingerprint::probe_snapshot(&snapshot, &resaved, &spans, &mut report)?;
    serve::probe_protocol(&data, &read.answer, &spans, &mut report);
    serve::probe_server(
        &data,
        &exe,
        &snapshot,
        &metrics,
        read.warm_query_s,
        &mut report,
    )?;
    // The later of the two readings: a machine that slowed down during the
    // run shows here.
    report.value("bench.calib_ms", "ms", walk.read_ms().max(calib_start));

    println!("self time by span (top 15 of the traced calls)");
    println!(
        "{:<44} {:>8} {:>12} {:>12}",
        "span", "calls", "total_s", "self_s"
    );
    for (name, calls, total, own) in spans.self_times().into_iter().take(15) {
        println!("{name:<44} {calls:>8} {total:>12.4} {own:>12.4}");
    }
    let trace_path = format!("target/ledger/{}.trace.json", w.name);
    std::fs::write(&trace_path, spans.chrome_json()).map_err(|e| format!("{trace_path}: {e}"))?;
    println!("spans written to {trace_path}");
    Ok(report.finish())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(run),
        Some((cmd, rest)) if cmd == "daemon" => {
            harness::daemon_main(rest).map(|()| ExitCode::SUCCESS)
        }
        _ => Err("usage: ledger-layers run --workload <name> [--seed n]".into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("ledger-layers: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use f3m_ledger::api::{self, Json};

    /// Every per-layer metric `BENCHMARK.json` declares is one this binary
    /// reports (by a `report.value`/`report.samples` call with that literal
    /// name), and nothing else is reported.
    #[test]
    fn reported_names_are_exactly_the_declared_per_layer_metrics() {
        let decl = api::parse(include_bytes!("../../../../BENCHMARK.json")).unwrap();
        let mut declared: Vec<String> = decl
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        let sources = [
            include_str!("main.rs"),
            include_str!("core.rs"),
            include_str!("fingerprint.rs"),
            include_str!("ir.rs"),
            include_str!("serve.rs"),
        ];
        let mut reported = Vec::new();
        for src in sources {
            // spelled in two halves so this test's own source does not match
            for call in [concat!("report.", "value("), concat!("report.", "samples(")] {
                for (at, _) in src.match_indices(call) {
                    let rest = src[at + call.len()..].trim_start();
                    if let Some(name) = rest.strip_prefix('"').and_then(|r| r.split('"').next()) {
                        reported.push(name.to_string());
                    }
                }
            }
        }
        declared.sort();
        reported.sort();
        assert_eq!(reported, declared);
    }
}
