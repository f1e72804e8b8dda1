//! Tests of the `CandidateSearch` seam: both strategy implementations must
//! agree where their semantics overlap, and the parallel preprocess path
//! must be invisible in the results.

use std::collections::HashSet;

use f3m_core::pass::{run_pass, run_pass_traced, PassConfig, Strategy};
use f3m_core::rank::{build_search, QueryCounters, SearchScratch};
use f3m_fingerprint::adaptive::MergeParams;
use f3m_ir::parser::parse_module;
use f3m_ir::printer::print_module;
use f3m_trace::Tracer;
use f3m_workloads::suite::{build_module, table1};

/// Three two-clone families with pairwise distinct opcode mixes. Every
/// function's unique best candidate is its exact twin under *any* sane
/// similarity metric, and the module is small enough that LSH (threshold 0,
/// identical fingerprints collide on every band) degenerates to an
/// exhaustive search.
const FAMILIES: &str = r#"
module "seam" {
define @a0(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %2 = mul i32 %1, 3
  %3 = xor i32 %2, 255
  %4 = sub i32 %3, %0
  %5 = add i32 %4, 10
  %6 = mul i32 %5, 7
  %7 = xor i32 %6, 17
  %8 = sub i32 %7, %1
  ret i32 %8
}
define @a1(i32 %0) -> i32 {
bb0:
  %1 = add i32 %0, 1
  %2 = mul i32 %1, 3
  %3 = xor i32 %2, 255
  %4 = sub i32 %3, %0
  %5 = add i32 %4, 10
  %6 = mul i32 %5, 7
  %7 = xor i32 %6, 17
  %8 = sub i32 %7, %1
  ret i32 %8
}
define @b0(i32 %0) -> i32 {
bb0:
  %1 = and i32 %0, 4095
  %2 = or i32 %1, 5
  %3 = shl i32 %2, 2
  %4 = lshr i32 %3, 1
  %5 = and i32 %4, 255
  %6 = or i32 %5, 64
  %7 = shl i32 %6, 1
  %8 = lshr i32 %7, 3
  ret i32 %8
}
define @b1(i32 %0) -> i32 {
bb0:
  %1 = and i32 %0, 4095
  %2 = or i32 %1, 5
  %3 = shl i32 %2, 2
  %4 = lshr i32 %3, 1
  %5 = and i32 %4, 255
  %6 = or i32 %5, 64
  %7 = shl i32 %6, 1
  %8 = lshr i32 %7, 3
  ret i32 %8
}
define @c0(i32 %0) -> i32 {
bb0:
  %1 = ashr i32 %0, 1
  %2 = sub i32 %1, 9
  %3 = ashr i32 %2, 2
  %4 = sub i32 %3, 4
  %5 = ashr i32 %4, 1
  %6 = sub i32 %5, 2
  %7 = ashr i32 %6, 1
  %8 = sub i32 %7, 1
  ret i32 %8
}
define @c1(i32 %0) -> i32 {
bb0:
  %1 = ashr i32 %0, 1
  %2 = sub i32 %1, 9
  %3 = ashr i32 %2, 2
  %4 = sub i32 %3, 4
  %5 = ashr i32 %4, 1
  %6 = sub i32 %5, 2
  %7 = ashr i32 %6, 1
  %8 = sub i32 %7, 1
  ret i32 %8
}
}
"#;

#[test]
fn both_strategies_pick_the_same_best_candidate_when_lsh_is_exhaustive() {
    let m = parse_module(FAMILIES).unwrap();
    let funcs = m.defined_functions();
    assert_eq!(funcs.len(), 6);
    let available = vec![true; funcs.len()];

    let exhaustive = build_search(&m, &funcs, &Strategy::Hyfm, 1);
    let lsh =
        build_search(&m, &funcs, &Strategy::F3m(MergeParams::static_default()), 1);
    assert_eq!(exhaustive.num_functions(), 6);
    assert_eq!(lsh.num_functions(), 6);

    let mut scratch = SearchScratch::new();
    for i in 0..funcs.len() {
        let mut ce = QueryCounters::default();
        let mut cl = QueryCounters::default();
        let from_exhaustive = exhaustive
            .best_candidates(i, &available, &mut ce, &mut scratch)
            .choose(None, |idx| funcs[idx]);
        let from_lsh = lsh
            .best_candidates(i, &available, &mut cl, &mut scratch)
            .choose(None, |idx| funcs[idx]);
        // The twin of function 2m is 2m+1 and vice versa.
        let twin = i ^ 1;
        assert_eq!(from_exhaustive.map(|(j, _)| j), Some(twin), "exhaustive, query {i}");
        assert_eq!(from_lsh.map(|(j, _)| j), Some(twin), "lsh, query {i}");
        // Exact clones score 1.0 under both metrics.
        assert_eq!(from_exhaustive.map(|(_, s)| s), Some(1.0));
        assert_eq!(from_lsh.map(|(_, s)| s), Some(1.0));
        // The exhaustive baseline scans everyone else; LSH examines at
        // least the twin (identical fingerprints share every band).
        assert_eq!(ce.examined, (funcs.len() - 1) as u64);
        assert_eq!(ce.comparisons, (funcs.len() - 1) as u64);
        assert!(cl.returned >= 1, "query {i} returned nothing from LSH");
        assert!(cl.comparisons >= 1);
    }
}

#[test]
fn invalidated_candidates_stop_appearing() {
    let m = parse_module(FAMILIES).unwrap();
    let funcs = m.defined_functions();
    let mut lsh =
        build_search(&m, &funcs, &Strategy::F3m(MergeParams::static_default()), 1);
    let mut available = vec![true; funcs.len()];
    // Simulate committing the (0, 1) pair.
    lsh.invalidate(0);
    lsh.invalidate(1);
    available[0] = false;
    available[1] = false;
    let mut c = QueryCounters::default();
    let mut scratch = SearchScratch::new();
    let best = lsh
        .best_candidates(2, &available, &mut c, &mut scratch)
        .choose(None, |idx| funcs[idx]);
    assert_eq!(best.map(|(j, _)| j), Some(3), "twin of 2 is still available");
    // The removed pair left the index itself, so it can never resurface —
    // even with the availability mask fully open, a query from inside the
    // pair no longer finds its (removed) twin.
    let all_on = vec![true; funcs.len()];
    let mut c2 = QueryCounters::default();
    let resurfaced = lsh
        .best_candidates(0, &all_on, &mut c2, &mut scratch)
        .choose(None, |idx| funcs[idx]);
    assert_ne!(resurfaced.map(|(j, _)| j), Some(1), "1 was removed from the index");
    assert_ne!(resurfaced.map(|(j, _)| j), Some(0));
}

/// Everything the determinism contract covers for one pass run: the
/// printed merged module, every non-timing `MergeStats` counter (including
/// the cache counters), and the full attempt log. Float fields
/// are compared bit-exactly.
type AttemptKey = (usize, usize, u64, u64, bool, i64);

fn determinism_key(
    m: &f3m_ir::module::Module,
    report: &f3m_core::pass::MergeReport,
) -> (String, Vec<u64>, Vec<AttemptKey>) {
    let s = &report.stats;
    let counters = vec![
        s.functions as u64,
        s.pairs_attempted as u64,
        s.merges_committed as u64,
        s.block_parts_cache_hits,
        s.block_parts_cache_misses,
        s.fingerprint_comparisons,
        s.candidates_examined,
        s.candidates_returned,
        s.bucket_evictions,
        s.probe_collisions,
        s.lsh_allocs_saved,
        s.align_cells,
        s.commits_rejected_build,
        s.commits_rejected_verify,
        s.commits_rejected_size,
        s.lsh_buckets,
        s.lsh_max_bucket,
        s.soa_bytes_per_fn,
        s.size_before,
        s.size_after,
    ];
    let mut counters = counters;
    // The occupancy snapshot feeding the metrics histogram must be
    // jobs-invariant too.
    counters.extend(report.lsh_bucket_sizes.iter().map(|&x| x as u64));
    let attempts = report
        .attempts
        .iter()
        .map(|a| {
            (
                a.f1.index(),
                a.f2.index(),
                a.similarity.to_bits(),
                a.align_ratio.to_bits(),
                a.committed,
                a.size_delta,
            )
        })
        .collect();
    (print_module(m), counters, attempts)
}

/// Pass-level determinism suite: for every strategy and several workload
/// modules, the merged module and all report counters must be
/// byte-identical across `--jobs 1/2/8`: `--jobs` parallelizes only the
/// preprocess, and nothing it builds depends on the job count.
#[test]
fn pass_is_byte_identical_across_jobs_for_all_strategies() {
    let workloads = ["429.mcf", "462.libquantum", "433.milc"];
    for name in workloads {
        let spec = table1()
            .into_iter()
            .find(|s| s.name == name)
            .expect("known workload")
            .scaled(0.5);
        let base = build_module(&spec);
        for make in [PassConfig::hyfm, PassConfig::f3m, PassConfig::f3m_adaptive] {
            let mut reference = None;
            for jobs in [1usize, 2, 8] {
                let mut m = base.clone();
                let report = run_pass(&mut m, &make().with_jobs(jobs));
                let key = determinism_key(&m, &report);
                match &reference {
                    None => reference = Some((key, report)),
                    Some((r, _)) => assert_eq!(
                        *r, key,
                        "jobs={jobs} diverged from jobs=1 on {name} (strategy {:?})",
                        make().strategy
                    ),
                }
            }
            // Cache traffic is two lookups per attempted pair.
            let (_, report) = reference.unwrap();
            let s = &report.stats;
            assert_eq!(
                s.block_parts_cache_hits + s.block_parts_cache_misses,
                2 * s.pairs_attempted as u64
            );
        }
    }
}

#[test]
fn job_count_is_invisible_in_merged_modules_and_counters() {
    let mut spec = table1()
        .into_iter()
        .find(|s| s.name == "429.mcf")
        .expect("known workload")
        .scaled(0.5);
    spec.seed ^= 0x5EA7;
    let base = build_module(&spec);
    for make in [PassConfig::hyfm, PassConfig::f3m, PassConfig::f3m_adaptive] {
        let mut reference = None;
        for jobs in [1usize, 4] {
            let mut m = base.clone();
            let report = run_pass(&mut m, &make().with_jobs(jobs));
            let key = (
                print_module(&m),
                report.stats.merges_committed,
                report.stats.pairs_attempted,
                report.stats.fingerprint_comparisons,
                report.stats.candidates_examined,
                report.stats.candidates_returned,
            );
            match &reference {
                None => reference = Some(key),
                Some(r) => assert_eq!(
                    *r, key,
                    "jobs={jobs} diverged from jobs=1 (strategy {:?})",
                    make().strategy
                ),
            }
        }
    }
}

/// The merge loop's contract, for every strategy: each function takes one
/// turn, in index order, unless a commit already consumed it; and every
/// alignment it runs reaches `Committer::attempt`.
#[test]
fn merge_loop_takes_each_function_once_in_index_order() {
    let workloads = ["429.mcf", "462.libquantum"];
    for name in workloads {
        let spec = table1()
            .into_iter()
            .find(|s| s.name == name)
            .expect("known workload")
            .scaled(0.5);
        let base = build_module(&spec);
        for make in [PassConfig::hyfm, PassConfig::f3m, PassConfig::f3m_adaptive] {
            let mut m = base.clone();
            let tracer = Tracer::new();
            let report = run_pass_traced(&mut m, &make(), Some(&tracer));
            let label = format!("{name} {:?}", make().strategy);
            assert!(report.stats.merges_committed > 0, "{label}: nothing merged");
            let f1s: Vec<usize> = report.attempts.iter().map(|a| a.f1.index()).collect();
            assert!(f1s.windows(2).all(|w| w[0] < w[1]), "{label}: f1 out of order: {f1s:?}");
            let mut consumed = HashSet::new();
            for a in &report.attempts {
                assert!(!consumed.contains(&a.f1), "{label}: {:?} was consumed", a.f1);
                if a.committed {
                    consumed.insert(a.f2);
                }
            }
            let aligns = tracer.events().iter().filter(|e| e.name == "align").count();
            assert_eq!(aligns, report.stats.pairs_attempted, "{label}");
        }
    }
}
