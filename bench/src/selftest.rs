//! `ledger selftest`: does the benchmark repeat?
//!
//! Runs every workload `runs` times in each of `sets` interleaved sets
//! (A B A B …, so drift over the session lands in both) and compares the
//! sets the way the acceptance driver does: run `r` of every set uses seed
//! `r + 1`, a set's spread is its interquartile range as a share of its
//! median, and the gap is between set medians. The output is Markdown and
//! is checked in as `NOISE.md`.

use std::process::{Command, ExitCode};

use crate::api::{self, Json};
use crate::calib;
use crate::stats::{iqr_share, median, quartiles};

struct MetricDecl {
    name: String,
    unit: String,
    bound: f64,
}

struct Decl {
    workloads: Vec<String>,
    metrics: Vec<MetricDecl>,
}

fn load_decl() -> Result<Decl, String> {
    let text = std::fs::read("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let v = api::parse(&text)?;
    let list = |key: &str| {
        v.get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json: no `{key}`"))
    };
    let text_of = |o: &Json, key: &str| {
        o.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: no `{key}`"))
    };
    Ok(Decl {
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        metrics: list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(MetricDecl {
                    name: text_of(m, "name")?,
                    unit: text_of(m, "unit")?,
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("BENCHMARK.json: no `bound`")?,
                })
            })
            .collect::<Result<_, String>>()?,
    })
}

/// One `ledger run` child; the value of every declared metric.
fn one_run(decl: &Decl, workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: {}\n{stdout}", out.status));
    }
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let v = api::parse(last.as_bytes())?;
    decl.metrics
        .iter()
        .map(|m| {
            v.get("metrics")
                .and_then(|ms| ms.get(&m.name))
                .and_then(|x| x.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}: result has no `{}`", m.name))
        })
        .collect()
}

fn flag(args: &[String], name: &str, default: usize) -> Result<usize, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("{name} needs a positive number")),
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let sets = flag(args, "--sets", 2)?;
    let runs = flag(args, "--runs", 5)?;
    let decl = load_decl()?;
    let mut walk = calib::Walk::new();
    let calib_start = walk.read_ms();

    // values[workload][set][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); decl.metrics.len()]; sets]; decl.workloads.len()];
    for run in 0..runs {
        for set in 0..sets {
            for (w, per_set) in decl.workloads.iter().zip(&mut values) {
                eprintln!("selftest: run {}/{runs} set {} {w}", run + 1, set_name(set));
                for (samples, x) in per_set[set]
                    .iter_mut()
                    .zip(one_run(&decl, w, run as u64 + 1)?)
                {
                    samples.push(x);
                }
            }
        }
    }
    let calib_end = walk.read_ms();

    println!("# Noise: {sets} interleaved sets x {runs} runs per workload\n");
    println!("`ledger selftest --sets {sets} --runs {runs}`; run *r* of each set uses seed *r*.\n");
    println!(
        "- nproc: {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    println!("- kernel: {}", kernel.trim());
    println!(
        "- bench.calib_ms: {calib_start:.1} before the first run, {calib_end:.1} after the last\n"
    );
    println!(
        "Per set: median [q1, q3]. *spread* = (q3 - q1) / median, what the acceptance check bounds; \
         *range* = (max - min) / median; *gap* = |median A - median B| / median A against the \
         other sets. PASS needs every spread and every gap within the bound.\n"
    );

    let mut all_pass = true;
    for (wi, w) in decl.workloads.iter().enumerate() {
        println!("## {w}\n");
        println!("| metric | unit | bound | set: median [q1, q3] | spread | range | gap | |");
        println!("|---|---|---|---|---|---|---|---|");
        for (mi, m) in decl.metrics.iter().enumerate() {
            let per_set: Vec<&Vec<f64>> = (0..sets).map(|s| &values[wi][s][mi]).collect();
            let medians: Vec<f64> = per_set.iter().map(|xs| median(xs)).collect();
            let gap = medians
                .iter()
                .map(|x| (x - medians[0]).abs() / medians[0])
                .fold(0.0, f64::max);
            let spreads: Vec<f64> = per_set.iter().map(|xs| iqr_share(xs)).collect();
            let ranges: Vec<f64> = per_set
                .iter()
                .zip(&medians)
                .map(|(xs, med)| {
                    let (lo, hi) = xs
                        .iter()
                        .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
                    (hi - lo) / med
                })
                .collect();
            let pass = spreads.iter().all(|&s| s <= m.bound) && gap <= m.bound;
            all_pass &= pass;
            let cells =
                |f: &dyn Fn(usize) -> String| (0..sets).map(f).collect::<Vec<_>>().join("<br>");
            println!(
                "| `{}` | {} | {:.0} % | {} | {} | {} | {:.2} % | {} |",
                m.name,
                m.unit,
                m.bound * 100.0,
                cells(&|s| {
                    let (q1, q3) = quartiles(per_set[s]);
                    format!("{}: {:.4} [{:.4}, {:.4}]", set_name(s), medians[s], q1, q3)
                }),
                cells(&|s| format!("{:.2} %", spreads[s] * 100.0)),
                cells(&|s| format!("{:.2} %", ranges[s] * 100.0)),
                gap * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
        // Same seed, same program: the count metrics must not differ by a bit.
        for (mi, m) in decl.metrics.iter().enumerate() {
            if m.name == "size_reduction_pct" || m.name == "dyn_inst_overhead_pct" {
                let identical = (1..sets).all(|s| values[wi][s][mi] == values[wi][0][mi]);
                all_pass &= identical;
                println!(
                    "\n`{}` run for run across sets: {}",
                    m.name,
                    if identical {
                        "bit-identical"
                    } else {
                        "DIFFERS — FAIL"
                    }
                );
            }
        }
        // Another seed is the same programs driven in another order: no
        // reading may leave a factor of two of seed 1's.
        let near = values[wi]
            .iter()
            .flatten()
            .all(|xs| xs.iter().all(|x| (0.5..=2.0).contains(&(x / xs[0]))));
        all_pass &= near;
        println!(
            "\nevery seed within 2x of seed 1 on every metric: {}\n",
            if near { "yes" } else { "NO — FAIL" }
        );
    }
    println!("Overall: {}", if all_pass { "PASS" } else { "FAIL" });
    Ok(if all_pass {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn set_name(set: usize) -> char {
    (b'A' + set as u8) as char
}
