//! End-to-end tests of the `f3m` command-line tool, driving the real
//! binary through its full workflow: generate → stats → merge → run.

use std::process::Command;

fn f3m() -> Command {
    Command::new(env!("CARGO_BIN_EXE_f3m"))
}

fn run_ok(cmd: &mut Command) -> (String, String) {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed: {:?}\nstdout: {}\nstderr: {}",
        cmd,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn list_shows_the_suite() {
    let (stdout, _) = run_ok(f3m().arg("list"));
    assert!(stdout.contains("chrome-scale"));
    assert!(stdout.contains("400.perlbench"));
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = f3m().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn full_workflow_gen_stats_merge_run() {
    let dir = std::env::temp_dir().join(format!("f3m-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.ir");
    let merged = dir.join("out.ir");

    // gen
    let (_, stderr) = run_ok(f3m()
        .args(["gen", "429.mcf", "--scale", "0.5", "-o"])
        .arg(&input));
    assert!(stderr.contains("generated 429.mcf"), "{stderr}");

    // stats
    let (stdout, _) = run_ok(f3m().arg("stats").arg(&input));
    assert!(stdout.contains("functions:"), "{stdout}");
    assert!(stdout.contains("est. size:"), "{stdout}");

    // run the original driver
    let (orig_out, _) = run_ok(f3m().arg("run").arg(&input).args(["__driver", "42"]));

    // merge with DCE
    let (_, stderr) = run_ok(f3m()
        .arg("merge")
        .arg(&input)
        .arg("-o")
        .arg(&merged)
        .args(["--strategy", "adaptive", "--dce"]));
    assert!(stderr.contains("reduction"), "{stderr}");

    // run the merged driver: same return value
    let (merged_out, _) = run_ok(f3m().arg("run").arg(&merged).args(["__driver", "42"]));
    let ret = |s: &str| s.split("->").nth(1).unwrap().split('[').next().unwrap().trim().to_string();
    assert_eq!(ret(&orig_out), ret(&merged_out), "{orig_out} vs {merged_out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_rejects_unknown_strategy() {
    let dir = std::env::temp_dir().join(format!("f3m-cli-test2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.ir");
    run_ok(f3m().args(["gen", "429.mcf", "--scale", "0.3", "-o"]).arg(&input));
    let out = f3m()
        .arg("merge")
        .arg(&input)
        .args(["--strategy", "nonsense"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown strategy"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_lsh_knobs_and_json_report() {
    let dir = std::env::temp_dir().join(format!("f3m-cli-test4-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.ir");
    let merged = dir.join("out.ir");
    run_ok(f3m().args(["gen", "429.mcf", "--scale", "0.3", "-o"]).arg(&input));

    // Explicit banding knobs with a consistent k, parallel preprocess, and
    // a JSON report on stdout.
    let (stdout, _) = run_ok(f3m()
        .arg("merge")
        .arg(&input)
        .arg("-o")
        .arg(&merged)
        .args([
            "--bands", "50", "--rows", "2", "-k", "100", "--bucket-cap", "64", "--jobs",
            "4", "--report", "json",
        ]));
    for key in [
        "\"stats\"",
        "\"preprocess_ns\"",
        "\"candidates_examined\"",
        "\"candidates_returned\"",
        "\"attempts\"",
    ] {
        assert!(stdout.contains(key), "missing {key} in JSON report: {stdout}");
    }
    assert!(merged.exists(), "merged module written to -o");

    // Inconsistent k is rejected with the constraint spelled out.
    let out = f3m()
        .arg("merge")
        .arg(&input)
        .args(["--bands", "50", "--rows", "2", "-k", "99"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("must equal --rows × --bands"));

    // Banding knobs make no sense for the opcode-histogram baseline.
    let out = f3m()
        .arg("merge")
        .arg(&input)
        .args(["--strategy", "hyfm", "--bands", "50"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("only apply to --strategy f3m"));

    // JSON on stdout would collide with the module text.
    let out = f3m().arg("merge").arg(&input).args(["--report", "json"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires -o"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merge_jobs_produce_identical_modules() {
    let dir = std::env::temp_dir().join(format!("f3m-cli-test5-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.ir");
    run_ok(f3m().args(["gen", "433.milc", "--scale", "0.4", "-o"]).arg(&input));
    let mut outputs = Vec::new();
    for jobs in ["1", "4"] {
        let out = dir.join(format!("out-{jobs}.ir"));
        run_ok(f3m().arg("merge").arg(&input).arg("-o").arg(&out).args(["--jobs", jobs]));
        outputs.push(std::fs::read_to_string(&out).unwrap());
    }
    assert_eq!(outputs[0], outputs[1], "merged module must not depend on --jobs");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_rejects_unknown_workload() {
    let out = f3m().args(["gen", "999.nothing"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}

#[test]
fn run_reports_traps_as_errors() {
    let dir = std::env::temp_dir().join(format!("f3m-cli-test3-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.ir");
    std::fs::write(
        &input,
        r#"
module "t" {
define @boom(i32 %0) -> i32 {
bb0:
  %1 = sdiv i32 %0, 0
  ret i32 %1
}
}
"#,
    )
    .unwrap();
    let out = f3m().arg("run").arg(&input).args(["boom", "1"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("division by zero"));
    std::fs::remove_dir_all(&dir).ok();
}

/// A scratch directory holding a generated `in.ir`, removed by the caller.
fn scratch_with_input(
    tag: &str,
    workload: &str,
    scale: &str,
) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("f3m-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.ir");
    run_ok(f3m().args(["gen", workload, "--scale", scale, "-o"]).arg(&input));
    (dir, input)
}

/// Runs a command that must fail and returns its stderr.
fn run_err(cmd: &mut Command) -> String {
    let out = cmd.output().expect("binary runs");
    assert!(!out.status.success(), "command unexpectedly succeeded: {cmd:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// `merge --dce` shrinks the module after the pass; the percentage in the
/// summary must be the one the two printed sizes give, not the pass's
/// pre-DCE ratio.
#[test]
fn merge_dce_percentage_matches_the_printed_sizes() {
    let (dir, input) = scratch_with_input("dce", "429.mcf", "0.5");
    for dce in [false, true] {
        let mut cmd = f3m();
        cmd.arg("merge").arg(&input).arg("-o").arg(dir.join("out.ir"));
        if dce {
            cmd.arg("--dce");
        }
        let (_, stderr) = run_ok(&mut cmd);
        let summary = stderr.lines().find(|l| l.contains("reduction")).expect("summary line");
        let after_size = summary.split("size ").nth(1).unwrap();
        let mut nums = after_size
            .split(|c: char| !c.is_ascii_digit() && c != '.')
            .filter(|t| !t.is_empty())
            .map(|t| t.parse::<f64>().unwrap());
        let (before, after, pct) =
            (nums.next().unwrap(), nums.next().unwrap(), nums.next().unwrap());
        let expected = (1.0 - after / before) * 100.0;
        assert!((pct - expected).abs() < 0.006, "dce={dce}: {summary} (expected {expected:.2}%)");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Misspelt flags and value flags without a value are errors naming the
/// flag — never a silent run on defaults.
#[test]
fn undeclared_flags_and_missing_values_are_rejected() {
    let (dir, input) = scratch_with_input("flags", "429.mcf", "0.3");
    let stderr = run_err(f3m().arg("merge").arg(&input).args(["--treshold", "0.9"]));
    assert!(stderr.contains("unknown flag `--treshold`"), "{stderr}");
    let stderr = run_err(f3m().args(["serve", "--sharsd", "4"]));
    assert!(stderr.contains("unknown flag `--sharsd`"), "{stderr}");
    let stderr = run_err(f3m().arg("merge").arg(&input).arg("--jobs"));
    assert!(stderr.contains("`--jobs` needs a value"), "{stderr}");
    // Retired with ISSUE 23: the multi-probe budget and the fourth backend.
    let stderr = run_err(f3m().arg("merge").arg(&input).args(["--probes", "4"]));
    assert!(stderr.contains("unknown flag `--probes`"), "{stderr}");
    let stderr = run_err(f3m().args(["serve", "--probes", "4"]));
    assert!(stderr.contains("unknown flag `--probes`"), "{stderr}");
    let tlsh = ["--strategy", "f3m", "--backend", "tlsh"];
    let stderr = run_err(f3m().arg("merge").arg(&input).args(tlsh));
    assert!(stderr.contains("unknown backend `tlsh` (minhash, simhash, embed)"), "{stderr}");
    let stderr = run_err(f3m().args(["serve", "--backend", "tlsh"]));
    assert!(stderr.contains("unknown backend `tlsh` (minhash, simhash, embed)"), "{stderr}");
    // Retired from the product surface: the repair-mode ablation, whose
    // `legacy` mode writes a module the paper calls miscompiled. The
    // library keeps `RepairMode` for the tests that pin each mode.
    for mode in ["phi", "stack", "legacy"] {
        let stderr = run_err(f3m().arg("merge").arg(&input).args(["--repair", mode]));
        assert!(stderr.contains("unknown flag `--repair`"), "{stderr}");
    }
    // Retired with the shard layer: the daemon holds one index, and a
    // shard count changed no answer.
    let stderr = run_err(f3m().args(["serve", "--shards", "4"]));
    assert!(stderr.contains("unknown flag `--shards`"), "{stderr}");
    let stderr = run_err(f3m().args(["merge", "--global"]).arg(&input).args(["--shards", "2"]));
    assert!(stderr.contains("unknown flag `--shards`"), "{stderr}");
    // Retired with the second cross-module engine: the planner's knobs
    // and the daemon's `merge` verb. Strategy choice is offline only.
    for knob in [["-k", "4"], ["--min-profit", "1"]] {
        let stderr = run_err(f3m().args(["merge", "--global"]).arg(&input).args(knob));
        assert!(stderr.contains(&format!("unknown flag `{}`", knob[0])), "{stderr}");
    }
    let stderr = run_err(f3m().args(["client", "merge"]));
    assert!(stderr.contains("unknown client request `merge`"), "{stderr}");
    let stderr = run_err(f3m().args(["client", "merge", "--strategy", "f3m"]));
    assert!(stderr.contains("unknown flag `--strategy`"), "{stderr}");
    // `run <input.ir> <function>` takes no flags; negative integers are
    // arguments, not flags.
    let stderr = run_err(f3m().arg("run").arg(&input).args(["__driver", "42", "--jobs", "2"]));
    assert!(stderr.contains("`--jobs` does not apply"), "{stderr}");
    run_ok(f3m().arg("run").arg(&input).args(["__driver", "-9"]));
    std::fs::remove_dir_all(&dir).ok();
}

/// Flags may come before the input file.
#[test]
fn flags_may_precede_positionals() {
    let (dir, input) = scratch_with_input("order", "429.mcf", "0.3");
    let (first, last) = (dir.join("first.ir"), dir.join("last.ir"));
    run_ok(f3m().args(["merge", "--jobs", "2", "-o"]).arg(&first).arg(&input));
    run_ok(f3m().arg("merge").arg(&input).args(["--jobs", "2", "-o"]).arg(&last));
    assert_eq!(std::fs::read(&first).unwrap(), std::fs::read(&last).unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

/// `f3m-adaptive` is the canonical name and `adaptive` its alias: both
/// verbs that take `--strategy` accept either, with identical results.
#[test]
fn strategy_aliases_produce_identical_output() {
    let (dir, input) = scratch_with_input("alias", "433.milc", "0.3");
    let mut merged = Vec::new();
    for name in ["f3m-adaptive", "adaptive"] {
        let out = dir.join(format!("{name}.ir"));
        let (_, stderr) =
            run_ok(f3m().arg("merge").arg(&input).arg("-o").arg(&out).args(["--strategy", name]));
        // Everything after the wall-clock reading is deterministic.
        let counts = stderr.split("ms").nth(1).unwrap().to_string();
        merged.push((std::fs::read(&out).unwrap(), counts));
        run_ok(f3m().args(["run", "--scale", "0.2", "--strategy", name]));
    }
    assert_eq!(merged[0], merged[1]);
    std::fs::remove_dir_all(&dir).ok();
}
