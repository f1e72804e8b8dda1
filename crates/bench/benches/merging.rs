//! Microbenchmarks for the merging pipeline's hot stages.
//!
//! These complement the per-figure binaries: where the binaries reproduce
//! paper artefacts end to end, these isolate the primitives so regressions
//! in any one stage are visible. The harness is hand-rolled (`harness =
//! false`, manual wall-clock timing) so the workspace builds offline with
//! no external bench framework; it reports median and mean ns/iter over a
//! fixed number of timed batches.
//!
//! The `pass_json` group additionally sweeps the full pass across `--jobs`
//! levels and writes `results/BENCH_pass.json` — per-stage wall time, wave
//! and cache counters per jobs level — so the perf trajectory is tracked
//! machine-readably across PRs (CI runs it in `--smoke` mode on the
//! smallest workload). The `alloc` group counts heap allocations through a
//! counting global allocator to pin the alignment hot path's
//! allocation-freedom.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use f3m_core::align::{
    linear_block_align, linear_block_align_with, needleman_wunsch, needleman_wunsch_with,
    AlignScratch,
};
use f3m_core::pass::{run_pass, PassConfig};
use f3m_fingerprint::adaptive::MergeParams;
use f3m_fingerprint::encode::encode_function;
use f3m_fingerprint::lsh::LshIndex;
use f3m_fingerprint::backend::signature_similarity;
use f3m_fingerprint::fnv::xor_constants;
use f3m_fingerprint::minhash::minhash_signature;
use f3m_fingerprint::opcode_freq::OpcodeFingerprint;
use f3m_workloads::suite::{table1, WorkloadSpec};

/// Counts every heap allocation so the `alloc` group can report
/// allocations-per-call for the scratch-buffered alignment paths.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter is
// a relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations performed while running `f`.
fn count_allocs<T>(mut f: impl FnMut() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    std::hint::black_box(f());
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Times `f` over `batches` batches of `iters_per_batch` calls and prints
/// per-iteration statistics. A `std::hint::black_box` on each result keeps
/// the optimizer honest.
fn bench<T>(name: &str, batches: usize, iters_per_batch: usize, mut f: impl FnMut() -> T) {
    // Warm-up batch, untimed.
    for _ in 0..iters_per_batch {
        std::hint::black_box(f());
    }
    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t0 = Instant::now();
        for _ in 0..iters_per_batch {
            std::hint::black_box(f());
        }
        per_iter_ns.push(t0.elapsed().as_nanos() as f64 / iters_per_batch as f64);
    }
    per_iter_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = per_iter_ns[per_iter_ns.len() / 2];
    let mean = per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64;
    println!("{name:<40} median {median:>12.0} ns/iter   mean {mean:>12.0} ns/iter");
}

fn module_for(name: &str, scale: f64) -> f3m_ir::module::Module {
    let spec: WorkloadSpec =
        table1().into_iter().find(|s| s.name == name).expect("known workload");
    f3m_workloads::suite::build_module(&spec.scaled(scale))
}

fn bench_fingerprints() {
    let m = module_for("401.bzip2", 1.0);
    let funcs = m.defined_functions();
    let encoded: Vec<Vec<u32>> =
        funcs.iter().map(|&f| encode_function(&m.types, m.function(f))).collect();

    bench("fingerprint/opcode_freq/build_all", 20, 10, || {
        funcs.iter().map(|&f| OpcodeFingerprint::of(m.function(f))).collect::<Vec<_>>()
    });
    for k in [25usize, 200] {
        bench(&format!("fingerprint/minhash/build_all/{k}"), 20, 5, || {
            encoded.iter().map(|e| minhash_signature(&xor_constants(k), e)).collect::<Vec<_>>()
        });
    }
}

fn bench_ranking() {
    let m = module_for("456.hmmer", 1.0);
    let funcs = m.defined_functions();
    let params = MergeParams::static_default();
    let encoded: Vec<Vec<u32>> =
        funcs.iter().map(|&f| encode_function(&m.types, m.function(f))).collect();
    let consts = xor_constants(params.k);
    let minhash: Vec<Vec<u64>> = encoded.iter().map(|e| minhash_signature(&consts, e)).collect();
    let opcode: Vec<OpcodeFingerprint> =
        funcs.iter().map(|&f| OpcodeFingerprint::of(m.function(f))).collect();
    let mut index = LshIndex::new(params.lsh);
    for (i, fp) in minhash.iter().enumerate() {
        index.insert(i, fp);
    }

    bench("ranking/hyfm/exhaustive_nn", 20, 50, || {
        let mut best = (usize::MAX, f64::MIN);
        for (j, fp) in opcode.iter().enumerate().skip(1) {
            let s = opcode[0].similarity(fp);
            if s > best.1 {
                best = (j, s);
            }
        }
        best
    });
    bench("ranking/f3m/lsh_query", 20, 50, || {
        let (cands, _) = index.candidates(&minhash[0], 0);
        let mut best = (usize::MAX, f64::MIN);
        for j in cands {
            let s = signature_similarity(&minhash[0], &minhash[j]);
            if s > best.1 {
                best = (j, s);
            }
        }
        best
    });
}

fn bench_alignment() {
    let m = module_for("444.namd", 1.0);
    let funcs = m.defined_functions();
    let a = encode_function(&m.types, m.function(funcs[0]));
    let b2 = encode_function(&m.types, m.function(funcs[1]));
    bench("alignment/needleman_wunsch", 20, 20, || needleman_wunsch(&a, &b2));
    bench("alignment/linear", 20, 200, || linear_block_align(&a, &b2));
}

fn bench_full_pass() {
    let m = module_for("462.libquantum", 1.0);
    for (label, config) in [
        ("hyfm", PassConfig::hyfm()),
        ("f3m", PassConfig::f3m()),
        ("f3m_adaptive", PassConfig::f3m_adaptive()),
    ] {
        bench(&format!("pass/{label}"), 5, 1, || {
            let mut mm = m.clone();
            run_pass(&mut mm, &config)
        });
    }
}

/// Allocation counts for the alignment hot path, before (allocating
/// wrappers) vs after (scratch reuse) the `AlignScratch` change. Printed
/// per call, averaged over a batch so one-off buffer growth amortizes out.
fn bench_allocations() {
    let m = module_for("444.namd", 0.5);
    let funcs = m.defined_functions();
    let a = encode_function(&m.types, m.function(funcs[0]));
    let b = encode_function(&m.types, m.function(funcs[1]));
    const CALLS: u64 = 100;

    let allocating_nw = count_allocs(|| {
        for _ in 0..CALLS {
            std::hint::black_box(needleman_wunsch(&a, &b));
        }
    });
    let mut scratch = AlignScratch::new();
    let scratch_nw = count_allocs(|| {
        for _ in 0..CALLS {
            std::hint::black_box(needleman_wunsch_with(&mut scratch, &a, &b).matches);
        }
    });
    let allocating_lin = count_allocs(|| {
        for _ in 0..CALLS {
            std::hint::black_box(linear_block_align(&a, &b));
        }
    });
    let scratch_lin = count_allocs(|| {
        for _ in 0..CALLS {
            std::hint::black_box(linear_block_align_with(&mut scratch, &a, &b).matches);
        }
    });
    let per_call = |n: u64| n as f64 / CALLS as f64;
    println!("alloc/needleman_wunsch/allocating       {:>8.2} allocs/call", per_call(allocating_nw));
    println!("alloc/needleman_wunsch/scratch          {:>8.2} allocs/call", per_call(scratch_nw));
    println!("alloc/linear_block_align/allocating     {:>8.2} allocs/call", per_call(allocating_lin));
    println!("alloc/linear_block_align/scratch        {:>8.2} allocs/call", per_call(scratch_lin));
}

/// Runs the full pass across `--jobs` levels and strategies, printing a
/// summary and writing machine-readable per-stage timings, wave counters
/// and cache hit rates to `results/BENCH_pass.json`.
fn bench_pass_json(smoke: bool) {
    let (workload, scale, jobs_levels, reps): (&str, f64, &[usize], usize) = if smoke {
        ("470.lbm", 1.0, &[1, 2], 1)
    } else {
        ("chrome-scale", 0.05, &[1, 2, 4, 8], 3)
    };
    let m = module_for(workload, scale);
    type StrategyRow = (&'static str, fn() -> PassConfig);
    let strategies: &[StrategyRow] = &[
        ("hyfm", PassConfig::hyfm),
        ("f3m", PassConfig::f3m),
        ("f3m_adaptive", PassConfig::f3m_adaptive),
    ];
    let mut runs = Vec::new();
    for (label, make) in strategies {
        for &jobs in jobs_levels {
            // Keep the fastest rep per configuration (standard practice for
            // wall-clock medians of a deterministic computation).
            let mut best: Option<(u128, f3m_core::pass::MergeReport)> = None;
            for _ in 0..reps {
                let mut mm = m.clone();
                let t0 = Instant::now();
                let report = run_pass(&mut mm, &make().with_jobs(jobs));
                let wall = t0.elapsed().as_nanos();
                if best.as_ref().is_none_or(|(w, _)| wall < *w) {
                    best = Some((wall, report));
                }
            }
            let (wall_ns, report) = best.expect("at least one rep");
            let s = &report.stats;
            let spec_total = s.aligns_speculative.max(1);
            println!(
                "pass_json/{label}/jobs={jobs:<2} wall {:>9.1} ms  waves {:>3}  wasted {:>4.1}%  cache-hit {:>5.1}%",
                wall_ns as f64 / 1e6,
                s.waves,
                100.0 * s.aligns_wasted as f64 / spec_total as f64,
                100.0 * s.block_parts_cache_hits as f64
                    / (s.block_parts_cache_hits + s.block_parts_cache_misses).max(1) as f64,
            );
            runs.push(format!(
                "{{\"strategy\":\"{label}\",\"jobs\":{jobs},\"wall_ns\":{wall_ns},\"stats\":{}}}",
                s.to_json()
            ));
        }
    }
    let json = format!(
        "{{\"workload\":\"{workload}\",\"scale\":{scale},\"functions\":{},\"smoke\":{smoke},\"runs\":[{}]}}",
        m.defined_functions().len(),
        runs.join(",")
    );
    // Anchor at the workspace root's results/ dir (cargo runs benches with
    // the package dir as cwd, which would scatter the artefact).
    let out_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
        .join("BENCH_pass.json");
    f3m_trace::write_with_dirs(&out_path, &json).expect("write BENCH_pass.json");
    println!("pass_json: wrote {}", out_path.display());
}

fn main() {
    // `cargo bench -- <filter> [--smoke]` runs only groups whose name
    // contains the filter string; `--smoke` shrinks the pass_json sweep to
    // the smallest workload (the CI bench-smoke configuration).
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let filter = args.into_iter().find(|a| !a.starts_with('-')).unwrap_or_default();
    let groups: [(&str, fn()); 5] = [
        ("fingerprint", bench_fingerprints),
        ("ranking", bench_ranking),
        ("alignment", bench_alignment),
        ("alloc", bench_allocations),
        ("pass", bench_full_pass),
    ];
    for (name, f) in groups {
        if filter.is_empty() || name.contains(&filter) {
            f();
        }
    }
    if filter.is_empty() || "pass_json".contains(&filter) {
        bench_pass_json(smoke);
    }
}
