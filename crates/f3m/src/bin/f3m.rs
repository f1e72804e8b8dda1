//! `f3m` — command-line driver for the function-merging reproduction.
//!
//! `--jobs <n>` parallelizes the whole pipeline: fingerprint construction
//! and the merge loop's speculative rank/align waves both fan out across
//! `n` threads, with a deterministic serial commit walk keeping the output
//! byte-identical for every job count.
//!
//! Observability: `--trace chrome:<path>` writes a Chrome `trace_event`
//! JSON (load it at `chrome://tracing` or in Perfetto) covering every
//! pipeline stage — fingerprint, rank, align, commit — and
//! `--metrics <path>` dumps the flat metrics registry as JSON. Both are
//! opt-in; the pass runs untraced when neither flag is given.
//!
//! Running `f3m` with no arguments prints the usage text ([`USAGE`]), the
//! one description of every subcommand and flag. Each subcommand declares
//! its flags to [`split_args`]; anything undeclared is an error, never
//! silently ignored.
//!
//! The daemon pair keeps a corpus resident across invocations: `f3m
//! serve` holds the LSH index in memory and `f3m client` sends
//! one request per invocation and prints the JSON response on stdout.

use std::path::PathBuf;
use std::process::ExitCode;

use f3m::prelude::*;

const USAGE: &str = "\
usage: f3m <merge|stats|run|gen|fuzz|serve|client|snapshot|list> ...

merge <input.ir> [-o out.ir] [--strategy hyfm|f3m|f3m-adaptive]
       [--backend minhash|simhash|embed]
       [--threshold t] [--bands b] [--rows r] [-k k] [--bucket-cap c]
       [--jobs n] [--report json] [--dce]
       [--trace chrome:path] [--metrics path]
merge --global <a.ir> <b.ir> ... [-o out.ir] [--jobs n]
       [--report json] [--metrics path]
stats <input.ir>
run   <input.ir> <function> [int args...]
run   [--workload name] [--scale f] [--strategy s] [--jobs n]
       [--trace chrome:path] [--metrics path]
gen   <workload> [-o out.ir] [--scale f]
fuzz  [--iterations n] [--seed s] [--corpus dir]
       [--protocol [--cases n]] [--global]
       [--trace chrome:path] [--metrics path]
serve [--addr host:port] [--jobs n] [--queue-cap c]
       [--backend minhash|simhash|embed] [--snapshot path]
       [--resident-budget bytes]
       [--shed-depth d] [--max-inflight n] [--max-inflight-per-conn n]
       [--read-deadline-ms t] [--idle-timeout-ms t]
       [--trace chrome:path] [--metrics path]
client [--addr host:port] ingest <file.ir> [--name n]
client [--addr host:port] evict <module>
client [--addr host:port] query <module> [--func f] [-k n] [--if-epoch e]
client [--addr host:port] update <module> <func> [patch.ir]
client [--addr host:port] global-merge [--jobs n] [--if-epoch e]
client [--addr host:port] stats|ping|shutdown
snapshot [describe] <file>
list

`--strategy adaptive` is accepted as an alias of `f3m-adaptive`.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("merge") => cmd_merge(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("snapshot") => cmd_snapshot(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn load(path: &str) -> Result<Module, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(f3m::ir::parser::parse_module(&text)?)
}

/// One subcommand's command line, split by [`split_args`].
struct Args<'a> {
    /// Everything that is not a flag or a flag's value, in order.
    positional: Vec<&'a str>,
    /// `(flag, value)` for every flag given; a switch's value is `""`.
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    /// The value of the first occurrence of `flag`, if it was given.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags.iter().find(|(name, _)| *name == flag).map(|&(_, value)| value)
    }

    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The value of `flag` parsed as `T`, if it was given.
    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, T::Err> {
        self.value(flag).map(str::parse).transpose()
    }
}

/// Splits `args` into positionals and the flags the subcommand declares:
/// each of `value_flags` consumes the next argument, each of `switches`
/// stands alone, and flags may come before, between or after positionals.
/// A flag the subcommand did not declare, or a value flag in last
/// position, is an error naming the flag. Anything starting with `-` is a
/// flag unless it is a number (`run m.ir f -9`).
fn split_args<'a>(
    args: &'a [String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<Args<'a>, String> {
    let mut split = Args { positional: Vec::new(), flags: Vec::new() };
    let mut rest = args.iter().map(String::as_str);
    while let Some(a) = rest.next() {
        if value_flags.contains(&a) {
            let value = rest.next().ok_or_else(|| format!("flag `{a}` needs a value"))?;
            split.flags.push((a, value));
        } else if switches.contains(&a) {
            split.flags.push((a, ""));
        } else if a.len() > 1 && a.starts_with('-') && a.parse::<f64>().is_err() {
            return Err(format!("unknown flag `{a}` (run `f3m` for usage)"));
        } else {
            split.positional.push(a);
        }
    }
    Ok(split)
}

/// Observability artifacts requested on the command line.
///
/// `--trace chrome:<path>` asks for a Chrome `trace_event` JSON dump and
/// `--metrics <path>` for the flat metrics-registry JSON. A tracer is only
/// constructed when `--trace` was given, so the instrumented pass pays
/// nothing by default.
struct Observability {
    trace_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
}

impl Observability {
    fn parse(a: &Args) -> Result<Observability, Box<dyn std::error::Error>> {
        let trace_path = match a.value("--trace") {
            None => None,
            Some(spec) => match spec.split_once(':') {
                Some(("chrome", path)) if !path.is_empty() => Some(PathBuf::from(path)),
                _ => {
                    return Err(format!(
                        "--trace expects `chrome:<path>` (only the chrome exporter \
                         exists), got `{spec}`"
                    )
                    .into())
                }
            },
        };
        let metrics_path = a.value("--metrics").map(PathBuf::from);
        Ok(Observability { trace_path, metrics_path })
    }

    fn tracer(&self) -> Option<Tracer> {
        self.trace_path.as_ref().map(|_| Tracer::new())
    }

    /// Write whichever artifacts were requested, creating parent
    /// directories as needed.
    fn write(&self, tracer: Option<&Tracer>, registry: &MetricsRegistry) -> CliResult {
        if let (Some(path), Some(t)) = (&self.trace_path, tracer) {
            f3m::trace::write_with_dirs(path, &t.to_chrome_json())?;
            eprintln!("trace: wrote {} events to {}", t.len(), path.display());
        }
        if let Some(path) = &self.metrics_path {
            f3m::trace::write_with_dirs(path, &registry.to_json())?;
            eprintln!("metrics: wrote {} metrics to {}", registry.len(), path.display());
        }
        Ok(())
    }
}

/// The pass configuration `--strategy` names (default `f3m`).
fn strategy_config(a: &Args) -> Result<PassConfig, String> {
    let name = a.value("--strategy").unwrap_or("f3m");
    PassConfig::from_strategy_name(name).ok_or_else(|| format!("unknown strategy `{name}`"))
}

/// Whether `--report json` was asked for (it needs `-o`: the report takes
/// stdout).
fn wants_json_report(a: &Args) -> Result<bool, String> {
    match a.value("--report") {
        None => Ok(false),
        Some("json") if a.has("-o") => Ok(true),
        Some("json") => {
            Err("--report json requires -o (the JSON report goes to stdout)".to_string())
        }
        Some(other) => Err(format!("unknown report format `{other}`")),
    }
}

/// The fingerprint family called `name` (`--backend`), or an error listing
/// the families there are.
fn parse_backend(name: &str) -> Result<BackendKind, String> {
    BackendKind::parse(name).ok_or_else(|| {
        format!("unknown backend `{name}` ({})", BackendKind::ALL.map(BackendKind::name).join(", "))
    })
}

fn cmd_merge(args: &[String]) -> CliResult {
    if args.iter().any(|a| a == "--global") {
        return cmd_merge_global(args);
    }
    let a = split_args(
        args,
        &[
            "-o", "--strategy", "--threshold", "--backend", "--bands", "--rows", "-k", "--bucket-cap",
            "--jobs", "--report", "--trace", "--metrics",
        ],
        &["--dce"],
    )?;
    let input = a.positional.first().ok_or("merge needs an input file")?;
    let mut m = load(input)?;
    let before = f3m::ir::size::module_size(&m);

    let mut config = strategy_config(&a)?;
    if let Some(t) = a.value("--threshold") {
        let t: f64 = t.parse()?;
        if let Strategy::F3m(params) = &mut config.strategy {
            params.threshold = t;
        } else {
            return Err("--threshold only applies to --strategy f3m".into());
        }
    }
    if let Some(name) = a.value("--backend") {
        let backend = parse_backend(name)?;
        if let Strategy::F3m(params) = &mut config.strategy {
            params.backend = backend;
        } else {
            return Err("--backend only applies to --strategy f3m (adaptive derives \
                        its parameters per module; hyfm has no fingerprint index)"
                .into());
        }
    }
    let lsh_knobs = ["--bands", "--rows", "--bucket-cap", "-k"];
    if lsh_knobs.iter().any(|f| a.has(f)) {
        let Strategy::F3m(params) = &mut config.strategy else {
            return Err("--bands/--rows/--bucket-cap/-k only apply to --strategy f3m".into());
        };
        let rows: usize = a.parsed("--rows")?.unwrap_or(params.lsh.rows);
        let bands: usize = a.parsed("--bands")?.unwrap_or(params.lsh.bands);
        if rows == 0 || bands == 0 {
            return Err("--rows and --bands must be positive".into());
        }
        let k: usize = match a.value("-k") {
            Some(k) => k.parse()?,
            None => rows * bands,
        };
        if k != rows * bands {
            return Err(format!(
                "-k {k} must equal --rows × --bands ({rows} × {bands} = {})",
                rows * bands
            )
            .into());
        }
        let bucket_cap: usize = a.parsed("--bucket-cap")?.unwrap_or(params.lsh.bucket_cap);
        params.k = k;
        params.lsh = f3m::fingerprint::lsh::LshParams { rows, bands, bucket_cap };
    }
    if let Some(jobs) = a.value("--jobs") {
        config.jobs = jobs.parse()?;
    }
    let json_report = wants_json_report(&a)?;

    let obs = Observability::parse(&a)?;
    let tracer = obs.tracer();
    let t0 = std::time::Instant::now();
    let report = run_pass_traced(&mut m, &config, tracer.as_ref());
    let elapsed = t0.elapsed();
    if a.has("--dce") {
        let (insts, blocks) = f3m::core::dce::dce_module(&mut m);
        eprintln!("dce: removed {insts} instructions, {blocks} unreachable blocks");
    }
    f3m::ir::verify::verify_module(&m)
        .map_err(|e| format!("verification failed: {}", e[0]))?;

    let after = f3m::ir::size::module_size(&m);
    eprintln!(
        "merged {} of {} attempted pairs in {:.1} ms ({} waves, {} pairs proven too big \
         unbuilt); size {} -> {} bytes ({:.2}% reduction)",
        report.stats.merges_committed,
        report.stats.pairs_attempted,
        elapsed.as_secs_f64() * 1e3,
        report.stats.waves,
        report.stats.commits_bounded,
        before,
        after,
        // From the two sizes printed: `--dce` shrinks the module further
        // than the pass's own before/after ratio knows.
        if before == 0 { 0.0 } else { (1.0 - after as f64 / before as f64) * 100.0 }
    );
    if json_report {
        println!("{}", report.to_json());
    }
    let mut registry = MetricsRegistry::new();
    report.export_metrics(&mut registry, "pass");
    obs.write(tracer.as_ref(), &registry)?;
    let text = f3m::ir::printer::print_module(&m);
    match a.value("-o") {
        Some(path) => std::fs::write(path, text)?,
        None => print!("{text}"),
    }
    Ok(())
}

/// `merge --global`: ingest every input module into a fresh resident
/// corpus and merge it across module boundaries — the F3M pass over the
/// combined corpus, then the verifier, the print/parse fixpoint and the
/// interpreter differential. A failed check exits 1 naming it.
fn cmd_merge_global(args: &[String]) -> CliResult {
    let a = split_args(args, &["-o", "--jobs", "--report", "--metrics"], &["--global"])?;
    let inputs = &a.positional;
    if inputs.is_empty() {
        return Err("merge --global needs at least one input file".into());
    }
    let jobs: usize = a.parsed("--jobs")?.unwrap_or(1);
    if jobs == 0 {
        return Err("--jobs must be positive".into());
    }
    let json_report = wants_json_report(&a)?;

    let corpus = f3m::core::Corpus::new(f3m::core::CorpusConfig { jobs, ..Default::default() });
    for path in inputs {
        let m = load(path)?;
        corpus.ingest(m).map_err(|e| format!("{path}: {e}"))?;
    }

    let cfg = f3m::core::GlobalPlanConfig::default().with_jobs(jobs);
    let t0 = std::time::Instant::now();
    let (report, merged, _epoch) = f3m::core::global_merge(&corpus, &cfg)?;
    let elapsed = t0.elapsed();

    let s = &report.stats;
    eprintln!(
        "global merge over {} modules ({} functions): {} verified merges ({} cross-module) \
         in {:.1} ms; size {} -> {} bytes ({:.2}% reduction)",
        s.modules,
        s.functions,
        s.verified_merges,
        report.merges.iter().filter(|r| r.cross_module).count(),
        elapsed.as_secs_f64() * 1e3,
        s.size_before,
        s.size_after,
        s.size_reduction() * 100.0
    );
    if json_report {
        println!("{}", report.to_json());
    }
    if let Some(path) = a.value("--metrics") {
        let mut registry = MetricsRegistry::new();
        report.export_metrics(&mut registry, "global");
        f3m::trace::write_with_dirs(std::path::Path::new(path), &registry.to_json())?;
        eprintln!("metrics: wrote {} metrics to {path}", registry.len());
    }
    let text = f3m::ir::printer::print_module(&merged);
    match a.value("-o") {
        Some(path) => std::fs::write(path, text)?,
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let a = split_args(args, &[], &[])?;
    let input = a.positional.first().ok_or("stats needs an input file")?;
    let m = load(input)?;
    let defs = m.defined_functions();
    println!("module \"{}\"", m.name);
    println!("  functions:     {} defined, {} total", defs.len(), m.num_functions());
    println!("  instructions:  {}", m.total_insts());
    println!("  globals:       {}", m.num_globals());
    println!("  est. size:     {} bytes", f3m::ir::size::module_size(&m));
    let mut sizes: Vec<(usize, String)> = defs
        .iter()
        .map(|&f| (m.function(f).num_linked_insts(), m.function(f).name.clone()))
        .collect();
    sizes.sort_by_key(|s| std::cmp::Reverse(s.0));
    println!("  largest functions:");
    for (n, name) in sizes.iter().take(5) {
        println!("    {n:>6}  @{name}");
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> CliResult {
    // Two modes share the verb: `run <input.ir> <function> [args...]`
    // interprets a function, while `run` with no positional arguments runs
    // the merge pipeline on a built-in workload — the quickest way to get
    // a Chrome-loadable trace (`f3m run --trace chrome:out.json`).
    let demo_flags = ["--workload", "--scale", "--strategy", "--jobs", "--trace", "--metrics"];
    let a = split_args(args, &demo_flags, &[])?;
    if a.positional.is_empty() {
        return cmd_run_demo(&a);
    }
    if let Some((flag, _)) = a.flags.first() {
        return Err(format!("flag `{flag}` does not apply to `run <input.ir> <function>`").into());
    }
    cmd_run_interp(&a)
}

fn cmd_run_demo(a: &Args) -> CliResult {
    let name = a.value("--workload").unwrap_or("429.mcf");
    let spec = table1()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload `{name}` (try `f3m list`)"))?;
    let scale: f64 = a.parsed("--scale")?.unwrap_or(0.5);
    let mut m = build_module(&spec.scaled(scale));

    let mut config = strategy_config(a)?;
    if let Some(jobs) = a.value("--jobs") {
        config.jobs = jobs.parse()?;
    }

    let obs = Observability::parse(a)?;
    let tracer = obs.tracer();
    let t0 = std::time::Instant::now();
    let report = run_pass_traced(&mut m, &config, tracer.as_ref());
    let elapsed = t0.elapsed();
    f3m::ir::verify::verify_module(&m)
        .map_err(|e| format!("verification failed: {}", e[0]))?;

    eprintln!(
        "{name} x{scale}: merged {} of {} attempted pairs in {:.1} ms \
         ({} waves); size {} -> {} ({:.2}% reduction)",
        report.stats.merges_committed,
        report.stats.pairs_attempted,
        elapsed.as_secs_f64() * 1e3,
        report.stats.waves,
        report.stats.size_before,
        report.stats.size_after,
        report.stats.size_reduction() * 100.0
    );
    let mut registry = MetricsRegistry::new();
    report.export_metrics(&mut registry, "pass");
    obs.write(tracer.as_ref(), &registry)?;
    Ok(())
}

fn cmd_run_interp(a: &Args) -> CliResult {
    let input = a.positional.first().ok_or("run needs an input file")?;
    let func = a.positional.get(1).ok_or("run needs a function name")?;
    let m = load(input)?;
    let vals: Vec<Val> = a.positional[2..]
        .iter()
        .map(|a| a.parse::<i64>().map(Val::Int))
        .collect::<Result<_, _>>()?;
    let mut interp = Interpreter::new(&m);
    let out = interp.call_by_name(func, &vals)?;
    println!(
        "@{func}({vals:?}) -> {:?}   [{} steps, checksum {:#x}]",
        out.ret, out.steps, out.checksum
    );
    Ok(())
}

fn cmd_gen(args: &[String]) -> CliResult {
    let a = split_args(args, &["-o", "--scale"], &[])?;
    let name = a.positional.first().ok_or("gen needs a workload name (try `f3m list`)")?;
    let spec = table1()
        .into_iter()
        .find(|s| s.name == *name)
        .ok_or_else(|| format!("unknown workload `{name}` (try `f3m list`)"))?;
    let scale: f64 = a.parsed("--scale")?.unwrap_or(1.0);
    let m = build_module(&spec.scaled(scale));
    eprintln!(
        "generated {} with {} functions, {} instructions",
        spec.name,
        m.defined_functions().len(),
        m.total_insts()
    );
    let text = f3m::ir::printer::print_module(&m);
    match a.value("-o") {
        Some(path) => std::fs::write(path, text)?,
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_fuzz(args: &[String]) -> CliResult {
    let a = split_args(
        args,
        &["--iterations", "--seed", "--corpus", "--cases", "--trace", "--metrics"],
        &["--protocol", "--global"],
    )?;
    let iterations: usize = a.parsed("--iterations")?.unwrap_or(500);
    let seed: u64 = match a.value("--seed") {
        Some(s) => match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16)?,
            None => s.parse()?,
        },
        None => 0xF3F3,
    };
    let corpus_dir = a.value("--corpus").map(std::path::PathBuf::from);
    if a.has("--global") {
        // Global mode fuzzes the cross-module merge: several mutated
        // modules per iteration, jobs byte-identity, and a cross-module
        // driver differential.
        let mut cfg = f3m::fuzz::GlobalCampaignConfig { seed, corpus_dir, ..Default::default() };
        // The shared 500-iteration default is sized for the single-module
        // campaign; only override the global default when asked.
        if a.has("--iterations") {
            cfg.iterations = iterations;
        }
        let obs = Observability::parse(&a)?;
        let summary = f3m::fuzz::run_global_campaign(&cfg);
        println!("{}", summary.to_json());
        let mut registry = MetricsRegistry::new();
        summary.export_metrics(&mut registry, "fuzz.global");
        obs.write(None, &registry)?;
        return if summary.failures.is_empty() {
            Ok(())
        } else {
            Err(format!("{} global oracle failure(s) found", summary.failures.len()).into())
        };
    }
    if a.has("--protocol") {
        // Protocol mode fuzzes a live in-process daemon over TCP instead
        // of the merge pipeline; --iterations/--cases count scenarios.
        let cases = a.parsed("--cases")?.unwrap_or(iterations);
        let cfg = f3m::fuzz::protocol::ProtocolCampaignConfig {
            cases,
            seed,
            corpus_dir,
            ..Default::default()
        };
        let summary = f3m::fuzz::protocol::run_protocol_campaign(&cfg);
        println!("{}", summary.to_json());
        return if summary.failures.is_empty() {
            Ok(())
        } else {
            Err(format!("{} protocol oracle failure(s) found", summary.failures.len()).into())
        };
    }
    let cfg = f3m::fuzz::CampaignConfig {
        iterations,
        seed,
        corpus_dir,
        ..Default::default()
    };
    let obs = Observability::parse(&a)?;
    let tracer = obs.tracer();
    let summary = f3m::fuzz::run_campaign_traced(&cfg, tracer.as_ref());
    println!("{}", summary.to_json());
    let mut registry = MetricsRegistry::new();
    summary.export_metrics(&mut registry, "fuzz");
    obs.write(tracer.as_ref(), &registry)?;
    if summary.failures.is_empty() {
        Ok(())
    } else {
        Err(format!("{} oracle failure(s) found", summary.failures.len()).into())
    }
}

/// Default daemon address for `serve`/`client` when `--addr` is absent.
const DEFAULT_SERVE_ADDR: &str = "127.0.0.1:7333";

fn cmd_serve(args: &[String]) -> CliResult {
    let a = split_args(
        args,
        &[
            "--addr", "--jobs", "--queue-cap", "--backend", "--snapshot",
            "--resident-budget", "--shed-depth", "--max-inflight", "--max-inflight-per-conn",
            "--read-deadline-ms", "--idle-timeout-ms", "--trace", "--metrics",
        ],
        &[],
    )?;
    let obs = Observability::parse(&a)?;
    let backend = match a.value("--backend") {
        None => BackendKind::MinHash,
        Some(name) => parse_backend(name)?,
    };
    let mut admission = f3m::serve::AdmissionConfig::default();
    if let Some(v) = a.value("--shed-depth") {
        admission.queue_shed_depth = v.parse()?;
    }
    if let Some(v) = a.value("--max-inflight") {
        admission.max_inflight_global = v.parse()?;
    }
    if let Some(v) = a.value("--max-inflight-per-conn") {
        admission.max_inflight_per_conn = v.parse()?;
    }
    let mut cfg = f3m::serve::ServeConfig {
        addr: a.value("--addr").unwrap_or(DEFAULT_SERVE_ADDR).to_string(),
        jobs: a.parsed("--jobs")?.unwrap_or(2),
        queue_cap: a.parsed("--queue-cap")?.unwrap_or(64),
        backend,
        resident_budget: a.parsed("--resident-budget")?,
        admission,
        snapshot_path: a.value("--snapshot").map(PathBuf::from),
        metrics_path: obs.metrics_path,
        trace_path: obs.trace_path,
        ..Default::default()
    };
    if let Some(v) = a.value("--read-deadline-ms") {
        cfg.read_deadline_ms = v.parse()?;
    }
    if let Some(v) = a.value("--idle-timeout-ms") {
        cfg.idle_timeout_ms = v.parse()?;
    }
    if cfg.jobs == 0 || cfg.queue_cap == 0 {
        return Err("--jobs and --queue-cap must be positive".into());
    }
    f3m::serve::serve(cfg)?;
    eprintln!("f3m-serve: shut down cleanly");
    Ok(())
}

fn cmd_client(args: &[String]) -> CliResult {
    use f3m::serve::Request;
    // First positional is the verb; flags may precede it.
    let a = split_args(args, &["--addr", "--name", "--func", "-k", "--if-epoch", "--jobs"], &[])?;
    let addr = a.value("--addr").unwrap_or(DEFAULT_SERVE_ADDR);
    let positional = &a.positional;
    let verb = *positional.first().ok_or("client needs a request type (try `f3m` for usage)")?;
    let body = match verb {
        "ingest" => {
            let path = positional.get(1).ok_or("ingest needs an IR file")?;
            Request::Ingest {
                name: a.value("--name").map(str::to_string),
                ir: std::fs::read_to_string(path)?,
            }
        }
        "evict" => Request::Evict {
            name: positional.get(1).ok_or("evict needs a module name")?.to_string(),
        },
        "query" => Request::Query {
            module: positional.get(1).ok_or("query needs a module name")?.to_string(),
            func: a.value("--func").map(str::to_string),
            k: a.parsed("-k")?.unwrap_or(f3m::serve::protocol::DEFAULT_QUERY_K),
            if_epoch: a.parsed("--if-epoch")?,
        },
        "update" => Request::Update {
            module: positional.get(1).ok_or("update needs a module name")?.to_string(),
            func: positional.get(2).ok_or("update needs a function name")?.to_string(),
            // No file = touch: re-fingerprint the function in place.
            ir: positional.get(3).map(std::fs::read_to_string).transpose()?,
        },
        "global-merge" => Request::GlobalMerge {
            jobs: a.parsed("--jobs")?,
            if_epoch: a.parsed("--if-epoch")?,
        },
        "stats" => Request::Stats,
        "ping" => Request::Ping,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown client request `{other}`").into()),
    };
    let mut client = f3m::serve::Client::connect(addr)?;
    let env = f3m::serve::RequestEnvelope::of(body);
    let raw = client.request_raw(&env)?;
    println!("{raw}");
    // Mirror the response status in the exit code so scripts can branch
    // on failures without parsing JSON.
    let v = f3m::serve::protocol::parse_response(raw.as_bytes())?;
    match v.get("type").and_then(f3m::trace::Json::as_str) {
        Some("error") | Some("busy") | Some("overloaded") => Err(format!(
            "daemon refused `{verb}`: {}",
            v.get("message").and_then(f3m::trace::Json::as_str).unwrap_or("queue full")
        )
        .into()),
        _ => Ok(()),
    }
}

/// `f3m snapshot [describe] <file>` — open and fully validate an index
/// snapshot (checksum, structure, corpus payload) and print its vitals:
/// header parameters, per-pool byte layout, bucket-directory occupancy,
/// and the shards the resident loader would read it in by. Exit code
/// reflects validity, so CI can gate on a restored artefact.
fn cmd_snapshot(args: &[String]) -> CliResult {
    // `describe` is an optional verb; with or without it the snapshot is
    // fully validated (including the pool checksum).
    let a = split_args(args, &[], &[])?;
    let rest = match a.positional.first() {
        Some(&"describe") => &a.positional[1..],
        _ => &a.positional[..],
    };
    let path = rest.first().ok_or("snapshot needs a file to verify")?;
    let p = std::path::Path::new(path);
    let snap =
        f3m::fingerprint::snapshot::open_snapshot(p).map_err(|e| format!("{path}: {e}"))?;
    let pager = f3m::fingerprint::PagerKind::Auto;
    let (meta, resident) = f3m::fingerprint::ResidentStore::open(p, pager, 0)
        .map_err(|e| format!("{path}: {e}"))?;
    let h = &snap.header;
    let params = f3m::fingerprint::MergeParams {
        k: h.k,
        lsh: h.lsh,
        threshold: h.threshold,
        backend: h.backend,
    };
    let corpus = f3m::core::Corpus::load_snapshot(p, f3m::core::CorpusConfig { params, jobs: 1 })
        .map_err(|e| format!("{path}: corpus payload: {e}"))?;
    let l = &meta.layout;
    let bucket_members: usize = snap.buckets.iter().map(|(_, m)| m.len()).sum();
    let max_bucket = snap.buckets.iter().map(|(_, m)| m.len()).max().unwrap_or(0);
    let bytes_per_fn = snap.store.bytes_per_fn();
    println!(
        "{path}: valid snapshot\n\
         \x20 backend:    {}\n\
         \x20 signature:  k = {} ({} bands x {} rows, bucket cap {})\n\
         \x20 threshold:  {}\n\
         \x20 epoch:      {}\n\
         \x20 entries:    {} functions ({} bytes/fn packed)\n\
         \x20 buckets:    {} ({} members, max bucket {})\n\
         \x20 modules:    {}\n\
         \x20 layout:     file {} B = meta {} B (directory {} B, payload {} B) \
         + pools {} B\n\
         \x20 pools:      signatures {} B + band keys {} B at offset {} \
         (8-byte aligned: {})\n\
         \x20 residency:  {} shard(s) of <= {} rows each; \
         serve with --resident-budget to cap hot bytes",
        h.backend.name(),
        h.k,
        h.lsh.bands,
        h.lsh.rows,
        h.lsh.bucket_cap,
        h.threshold,
        h.epoch,
        h.entries,
        bytes_per_fn,
        snap.buckets.len(),
        bucket_members,
        max_bucket,
        corpus.stats().modules_live,
        l.file_len,
        l.meta_end,
        l.dir_len,
        l.payload_len,
        l.file_len - l.meta_end,
        l.sig_pool_bytes,
        l.key_pool_bytes,
        l.pool_start,
        l.pool_start % 8 == 0,
        resident.num_shards(),
        resident.rows_per_shard(),
    );
    Ok(())
}

fn cmd_list(args: &[String]) -> CliResult {
    split_args(args, &[], &[])?;
    println!("{:<18} {:>10} {:>8}", "workload", "functions", "class");
    for s in table1() {
        println!("{:<18} {:>10} {:>8?}", s.name, s.functions, s.class);
    }
    Ok(())
}
