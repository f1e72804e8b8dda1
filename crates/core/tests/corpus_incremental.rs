//! Equivalence property for the incremental recompute engine: after
//! every prefix of a randomized ingest/evict/update/query interleaving,
//! the revision-stamped corpus answers module queries byte-identically
//! to a from-scratch corpus rebuilt from the surviving module sources —
//! and the whole transcript is identical across worker counts. Every
//! query draws its own `k`, so the live corpus answers from memoized
//! lists computed for other `k`s where the rebuilt one computes afresh.

use f3m_core::corpus::{Corpus, CorpusConfig};
use f3m_ir::module::Module;
use f3m_ir::printer::print_module;
use f3m_prng::SmallRng;

fn workload(name: &str, seed: u64) -> Module {
    let mut spec = f3m_workloads::mini_suite()[0].clone();
    spec.functions = 18;
    spec.seed = seed;
    let mut m = f3m_workloads::build_module(&spec);
    m.name = name.to_string();
    m
}

/// Merge-eligible function names of `m`, in defined order.
fn eligible(m: &Module) -> Vec<String> {
    m.defined_functions()
        .into_iter()
        .filter(|&f| m.function(f).num_linked_insts() > 0)
        .map(|f| m.function(f).name.clone())
        .collect()
}

/// IR text of `m` with `dst`'s body replaced by `src`'s.
fn body_swap_patch(m: &Module, dst: &str, src: &str) -> String {
    let mut patched = m.clone();
    let d = patched.lookup_function(dst).unwrap();
    let s = patched.lookup_function(src).unwrap();
    patched.rename_function(d, format!("{dst}__old"));
    patched.rename_function(s, dst.to_string());
    print_module(&patched)
}

/// IR text of `m` with `src` renamed to `fresh` (self-transplant donor
/// for `ingest_function`: same module, so every callee it references is
/// already declared in the splice target).
fn rename_patch(m: &Module, src: &str, fresh: &str) -> String {
    let mut patched = m.clone();
    let s = patched.lookup_function(src).unwrap();
    patched.rename_function(s, fresh.to_string());
    print_module(&patched)
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Ingest,
    Evict,
    Update,
    Touch,
    IngestFunction,
    Query,
}

/// One deterministic interleaving driven by `seed`, applied to a corpus
/// with `jobs` ingest workers. Returns the transcript of every query
/// result along the way. After each mutation, queries on the live
/// incremental corpus are compared byte-for-byte against a fresh corpus
/// rebuilt from the surviving module sources.
fn run_interleaving(seed: u64, jobs: usize, check_rebuild: bool) -> String {
    let cfg = CorpusConfig { jobs, ..CorpusConfig::default() };
    let corpus = Corpus::new(cfg.clone());
    let mut rng = SmallRng::seed_from_u64(seed);
    // Drawn from a generator of its own, so the interleaving of a seed is
    // the one it always was.
    let mut k_rng = SmallRng::seed_from_u64(seed ^ 0x6B);
    let mut draw_k = move || [1, 5, 50][k_rng.gen_range(0..3usize)];
    // Shadow state: live module names in ingest order. Sources are read
    // back through `module_source`, which re-renders exactly what the
    // corpus holds after function-level surgery.
    let mut live: Vec<String> = Vec::new();
    let mut next_module = 0u64;
    let mut next_fresh = 0u64;
    let mut transcript = String::new();

    for step in 0..40 {
        let op = match rng.gen_range(0..10u32) {
            0..=2 if live.len() < 5 => Op::Ingest,
            0..=2 => Op::Update,
            3 if live.len() > 1 => Op::Evict,
            3 => Op::Touch,
            4..=5 => Op::Update,
            6 => Op::Touch,
            7 => Op::IngestFunction,
            _ => Op::Query,
        };
        match op {
            Op::Ingest => {
                let name = format!("m{next_module}");
                next_module += 1;
                corpus.ingest(workload(&name, 100 + next_module)).unwrap();
                live.push(name);
            }
            Op::Evict => {
                let victim = live.remove(rng.gen_range(0..live.len()));
                corpus.evict(&victim).unwrap();
            }
            Op::Update | Op::Touch | Op::IngestFunction | Op::Query if live.is_empty() => {
                continue;
            }
            Op::Update => {
                let name = &live[rng.gen_range(0..live.len())];
                let m = f3m_ir::parser::parse_module(&corpus.module_source(name).unwrap())
                    .unwrap();
                let funcs = eligible(&m);
                let dst = &funcs[rng.gen_range(0..funcs.len())];
                // Swap within the family AND only between signature-
                // identical members (some siblings are retyped clones):
                // the module's driver calls must stay valid.
                let Some((fam, _)) = dst.rsplit_once('_') else { continue };
                let sig = |name: &str| {
                    let f = m.function(m.lookup_function(name).unwrap());
                    (f.params.clone(), f.ret_ty)
                };
                let dst_sig = sig(dst);
                let siblings: Vec<&String> = funcs
                    .iter()
                    .filter(|f| {
                        *f != dst
                            && f.rsplit_once('_').map(|(p, _)| p) == Some(fam)
                            && sig(f) == dst_sig
                    })
                    .collect();
                if siblings.is_empty() {
                    continue;
                }
                let src = siblings[rng.gen_range(0..siblings.len())];
                let patch = body_swap_patch(&m, dst, src);
                let up = corpus.update_function(name, dst, Some(&patch)).unwrap();
                transcript.push_str(&format!(
                    "step {step}: update {name}.{dst} changed={}\n",
                    up.changed
                ));
            }
            Op::Touch => {
                let name = &live[rng.gen_range(0..live.len())];
                let m = f3m_ir::parser::parse_module(&corpus.module_source(name).unwrap())
                    .unwrap();
                let funcs = eligible(&m);
                let func = &funcs[rng.gen_range(0..funcs.len())];
                let up = corpus.update_function(name, func, None).unwrap();
                assert!(!up.changed, "a touch never changes IR");
            }
            Op::IngestFunction => {
                let name = &live[rng.gen_range(0..live.len())];
                let m = f3m_ir::parser::parse_module(&corpus.module_source(name).unwrap())
                    .unwrap();
                let funcs = eligible(&m);
                let src = &funcs[rng.gen_range(0..funcs.len())];
                let fresh = format!("x{next_fresh}");
                next_fresh += 1;
                let patch = rename_patch(&m, src, &fresh);
                corpus.ingest_function(name, &fresh, &patch).unwrap();
                transcript.push_str(&format!("step {step}: ingest_function {name}.{fresh}\n"));
            }
            Op::Query => {
                let name = &live[rng.gen_range(0..live.len())];
                let k = draw_k();
                let (_, results) = corpus.query_module(name, k).unwrap();
                transcript.push_str(&format!("step {step}: query {name} k={k} {results:?}\n"));
            }
        }

        if check_rebuild && op != Op::Query {
            // From-scratch rebuild of the surviving state: every live
            // module's current source, ingested in order, into a fresh
            // corpus. Every module query must match byte-for-byte.
            let rebuilt = Corpus::new(cfg.clone());
            for name in &live {
                let src = corpus.module_source(name).unwrap();
                rebuilt.ingest(f3m_ir::parser::parse_module(&src).unwrap()).unwrap();
            }
            for name in &live {
                let k = draw_k();
                let (_, inc) = corpus.query_module(name, k).unwrap();
                let (_, fresh) = rebuilt.query_module(name, k).unwrap();
                assert_eq!(
                    format!("{inc:?}"),
                    format!("{fresh:?}"),
                    "incremental vs rebuilt diverged on `{name}` (k={k}) after step {step} ({op:?})"
                );
            }
        }
    }

    // The interleaving reused memoized ranks: the equivalence above is
    // only interesting if some queries were actually answered from memo.
    let stats = corpus.stats();
    assert!(stats.memo_hits > 0, "interleaving never exercised the memo layer");
    assert!(stats.funcs_invalidated > 0, "interleaving never invalidated anything");
    transcript
}

#[test]
fn incremental_matches_rebuild_after_every_prefix() {
    for seed in [7, 42] {
        run_interleaving(seed, 1, true);
    }
}

#[test]
fn interleaving_transcript_is_identical_across_jobs() {
    // The rebuild-equivalence is checked by the test above; here the
    // whole transcript (mutation summaries + every query result) must be
    // byte-identical across ingest worker counts.
    let t1 = run_interleaving(42, 1, false);
    let t2 = run_interleaving(42, 2, false);
    let t8 = run_interleaving(42, 8, false);
    assert_eq!(t1, t2, "jobs 1 vs 2 transcripts diverged");
    assert_eq!(t1, t8, "jobs 1 vs 8 transcripts diverged");
    assert!(t1.contains("query"), "transcript has no queries");
    assert!(t1.contains("update"), "transcript has no updates");
}
