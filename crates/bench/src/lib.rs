//! # f3m-bench — harness shared by the per-figure bench binaries
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index). This library holds what they
//! share: scaling policy, the simulated "rest of the compilation
//! pipeline", and plain-text table/series printing.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

use f3m_core::pass::{run_pass, MergeReport, PassConfig};
use f3m_ir::module::Module;
use f3m_workloads::suite::{SizeClass, WorkloadSpec};

/// Command-line options shared by every bench binary.
#[derive(Clone, Copy, Debug)]
pub struct BenchOpts {
    /// Global scale multiplier applied on top of the per-class defaults.
    pub scale: f64,
    /// Run everything at full paper scale (expensive: the `chrome-scale`
    /// HyFM ranking alone runs for many minutes, by design).
    pub full: bool,
}

impl Default for BenchOpts {
    fn default() -> Self {
        BenchOpts { scale: 1.0, full: false }
    }
}

impl BenchOpts {
    /// Parses `--scale <f>` and `--full` from `std::env::args`.
    pub fn from_args() -> BenchOpts {
        let mut opts = BenchOpts::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    opts.scale = args
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .expect("--scale needs a number");
                }
                "--full" => opts.full = true,
                other => eprintln!("ignoring unknown argument `{other}`"),
            }
            i += 1;
        }
        opts
    }

    /// Effective scale factor for a workload: large workloads are shrunk
    /// by default so the default run finishes in minutes, exactly like the
    /// reduced configurations papers use for artifact evaluation. `--full`
    /// restores Table I sizes.
    pub fn factor_for(&self, spec: &WorkloadSpec) -> f64 {
        let class_default = if self.full {
            1.0
        } else {
            match spec.class {
                SizeClass::Small => 1.0,
                SizeClass::Medium => 0.5,
                SizeClass::Large => match spec.name {
                    "chrome-scale" => 0.05,
                    _ => 0.1,
                },
            }
        };
        class_default * self.scale
    }

    /// Builds the (possibly scaled) module for a spec.
    pub fn build(&self, spec: &WorkloadSpec) -> Module {
        f3m_workloads::suite::build_module(&spec.scaled(self.factor_for(spec)))
    }
}

/// The simulated downstream pipeline. All of it is honest, measured work
/// whose cost is proportional to the code later compiler stages would
/// process — so "merging shrinks the module, later stages get faster"
/// emerges from real computation rather than a fabricated constant:
///
/// - several rounds of per-function analysis (CFG, dominator tree,
///   instruction re-encoding), standing in for the optimization passes a
///   real `-Os` pipeline reruns after merging,
/// - serialize + reparse (bitcode write/read),
/// - a final whole-module size accounting.
pub fn backend_cost(m: &Module) -> Duration {
    let t = Instant::now();
    for _ in 0..4 {
        for (_, f) in m.functions() {
            if f.is_declaration {
                continue;
            }
            let cfg = f3m_ir::cfg::Cfg::compute(f);
            let dt = f3m_ir::dom::DomTree::compute(f, &cfg);
            std::hint::black_box(&dt);
            std::hint::black_box(f3m_fingerprint::encode::encode_function(&m.types, f));
        }
    }
    let text = f3m_ir::printer::print_module(m);
    let reparsed = f3m_ir::parser::parse_module(&text).expect("module reparses");
    std::hint::black_box(f3m_ir::size::module_size(&reparsed));
    t.elapsed()
}

/// One strategy's end-to-end result on one workload.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Strategy label.
    pub label: &'static str,
    /// The merge report.
    pub report: MergeReport,
    /// Wall-clock of the merging pass.
    pub pass_time: Duration,
    /// Wall-clock of the simulated downstream compilation.
    pub backend_time: Duration,
}

impl RunResult {
    /// Total simulated compile time (pass + downstream).
    pub fn total_time(&self) -> Duration {
        self.pass_time + self.backend_time
    }
}

/// Runs one strategy on a fresh copy of the module.
pub fn run_strategy(m: &Module, label: &'static str, config: &PassConfig) -> RunResult {
    let mut m = m.clone();
    let t = Instant::now();
    let report = run_pass(&mut m, config);
    let pass_time = t.elapsed();
    let backend_time = backend_cost(&m);
    RunResult { label, report, pass_time, backend_time }
}

/// The three standard strategies of the evaluation.
pub fn standard_strategies() -> Vec<(&'static str, PassConfig)> {
    PassConfig::STRATEGY_NAMES
        .iter()
        .map(|&name| (name, PassConfig::from_strategy_name(name).expect("canonical name")))
        .collect()
}

/// Formats a duration in adaptive units.
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{:.0}s", s)
    } else if s >= 1.0 {
        format!("{:.2}s", s)
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// Prints a row-oriented table with a header.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Renders a 2D histogram as a compact ASCII heatmap (log-scaled glyphs),
/// with `(0,0)` at the bottom-left like the paper's figures.
pub fn print_heatmap(title: &str, grid: &[Vec<u64>], x_label: &str, y_label: &str) {
    println!("\n== {title} ==");
    println!("(y: {y_label}, x: {x_label}; glyph = log10 of pair count)");
    let glyphs = [' ', '.', ':', '+', 'x', 'X', '#', '@'];
    for row in grid.iter().rev() {
        let line: String = row
            .iter()
            .map(|&c| {
                if c == 0 {
                    ' '
                } else {
                    let g = (c as f64).log10().floor() as usize + 1;
                    glyphs[g.min(glyphs.len() - 1)]
                }
            })
            .collect();
        println!("|{line}|");
    }
    println!("+{}+", "-".repeat(grid.first().map(|r| r.len()).unwrap_or(0)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use f3m_workloads::suite::table1;

    #[test]
    fn scaling_defaults_bound_large_workloads() {
        let opts = BenchOpts::default();
        let t = table1();
        let chrome = t.iter().find(|s| s.name == "chrome-scale").unwrap();
        let scaled = chrome.scaled(opts.factor_for(chrome));
        assert!(scaled.functions <= 6001);
        let small = &t[0];
        assert_eq!(opts.factor_for(small), 1.0);
    }

    #[test]
    fn full_flag_restores_table1_sizes() {
        let opts = BenchOpts { scale: 1.0, full: true };
        for s in &table1() {
            assert_eq!(opts.factor_for(s), 1.0);
        }
    }

    #[test]
    fn backend_cost_grows_with_module_size() {
        let small = BenchOpts::default().build(&table1()[0].scaled(0.1));
        let big = BenchOpts::default().build(&table1()[0]);
        // Fastest of three readings a side, as the bench ledger reads its
        // timings: one reading stretched by a neighbor on a shared
        // 2-vCPU box is not the module's cost.
        let fastest = |m: &Module| (0..3).map(|_| backend_cost(m)).min().unwrap();
        let (a, b) = (fastest(&small), fastest(&big));
        assert!(b > a, "{b:?} vs {a:?}");
    }

    #[test]
    fn run_strategy_reports_consistent_sizes() {
        let m = BenchOpts::default().build(&table1()[0]);
        let r = run_strategy(&m, "f3m", &f3m_core::pass::PassConfig::f3m());
        assert!(r.report.stats.size_after <= r.report.stats.size_before);
        assert!(r.total_time() >= r.pass_time);
    }

    #[test]
    fn fmt_dur_picks_units() {
        assert!(fmt_dur(Duration::from_micros(5)).ends_with("µs"));
        assert!(fmt_dur(Duration::from_millis(5)).ends_with("ms"));
        assert!(fmt_dur(Duration::from_secs(5)).ends_with('s'));
    }
}
