//! `ledger` — the end-to-end binary.
//!
//! ```text
//! ledger run --workload <name> [--seed n]
//! ledger selftest [--sets 2] [--runs 5]
//! ledger daemon [--snapshot <file>] [--metrics <file>]   (spawned by the serve legs)
//! ```
//!
//! `run` measures every end-to-end metric on one workload with tracing
//! off, checks the outputs, and prints the result object as its last line.
//! Per-layer numbers come from the separate `ledger-layers` binary.

use std::process::ExitCode;

use f3m_ledger::cli::{parse_run, RunArgs};
use f3m_ledger::pass::PassLeg;
use f3m_ledger::report::{Read, Report};
use f3m_ledger::serve::{self, ReadLeg, WriteLeg};
use f3m_ledger::workload::{schedule, Step, WRITE_BURST};
use f3m_ledger::{procfs, selftest};

/// Set-ups per run.
const SETUPS: usize = 3;

fn run(args: RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let w = args.workload;
    let mut report = Report::new(w.name, args.seed, "e2e");

    // The whole set-up SETUPS times, each one's daemons and files dropped
    // before the next starts: `setup_s` is the fastest.
    let mut setup_s = Vec::new();
    let mut legs = None;
    for _ in 0..SETUPS {
        if let Some((_, read, write)) = legs.take() {
            report.tally.absorb(ReadLeg::finish(read).tally);
            report.tally.absorb(WriteLeg::abandon(write));
        }
        let pass = PassLeg::start(w.pass, args.seed);
        let read = ReadLeg::start(&exe, w.read, args.seed)?;
        let write = WriteLeg::start(&exe, w.write)?;
        setup_s.push(pass.setup_s() + read.setup_s() + write.setup_s());
        legs = Some((pass, read, write));
    }
    let (mut pass, mut read, mut write) = legs.expect("SETUPS is at least one");
    for step in schedule(&w) {
        match step {
            Step::PassRep => pass.rep(),
            Step::ColdCycle => read.cold_cycle()?,
            Step::Restart => read.restart_cycle()?,
            Step::WriteBurst => (0..WRITE_BURST).for_each(|_| write.iteration()),
        }
    }
    // This process ran the pass; the daemons ran everything else.
    let pass_rss_mb = procfs::peak_rss_mb("self")?;
    let (p, r, wr) = (pass.finish(), read.finish(), write.finish()?);

    report.samples("setup_s", "s", Read::Fastest, &setup_s);
    report.samples("pass_wall_s", "s", Read::Fastest, &p.rep_wall_s);
    report.value("size_reduction_pct", "%", p.size_reduction_pct());
    report.value("dyn_inst_overhead_pct", "%", p.dyn_inst_overhead_pct());
    report.value("pass_rss_mb", "MB", pass_rss_mb);
    let daemon_rss_mb = r.peak_rss_mb.max(wr.peak_rss_mb);
    report.value("daemon_rss_mb", "MB", daemon_rss_mb);
    report.samples("query_cold_ms", "ms", Read::Fastest, &r.query_cold_ms);
    report.samples("restart_s", "s", Read::Fastest, &r.restart_s);
    report.samples("update_ms", "ms", Read::Fastest, &wr.update_ms);
    report.samples("requery_ms", "ms", Read::Fastest, &wr.requery_ms);
    report.samples("ingest_fn_per_s", "1/s", Read::Highest, &wr.ingest_fn_per_s);
    for t in [p.tally, r.tally, wr.tally] {
        report.tally.absorb(t);
    }
    Ok(report.finish())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(run),
        Some((cmd, rest)) if cmd == "daemon" => serve::daemon_main(rest).map(|()| ExitCode::SUCCESS),
        Some((cmd, rest)) if cmd == "selftest" => selftest::main(rest),
        _ => Err("usage: ledger run --workload <name> [--seed n] | \
                  ledger selftest [--sets n] [--runs n] | ledger daemon [--snapshot <file>] [--metrics <file>]"
            .into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("ledger: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use f3m_ledger::api::{self, Json};
    use f3m_ledger::workload::WORKLOADS;

    /// `BENCHMARK.json` and this binary name the same workloads and the
    /// same end-to-end metrics with the same units.
    #[test]
    fn benchmark_json_declares_what_run_reports() {
        let decl = api::parse(include_bytes!("../../../BENCHMARK.json")).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            decl.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS.map(|w| w.name));

        let src = include_str!("ledger.rs");
        let mut reported = Vec::new();
        // built at run time so this test's own source does not match
        for call in ["value(", "samples("].map(|c| format!("report.{c}")) {
            for (at, _) in src.match_indices(call.as_str()) {
                let mut quoted = src[at + call.len()..].split('"');
                let (name, unit) = (quoted.nth(1).unwrap(), quoted.nth(1).unwrap());
                reported.push((name.to_string(), unit.to_string()));
            }
        }
        let mut declared: Vec<_> = names("end_to_end", "name")
            .into_iter()
            .zip(names("end_to_end", "unit"))
            .collect();
        declared.sort();
        reported.sort();
        assert_eq!(reported, declared);
    }
}
