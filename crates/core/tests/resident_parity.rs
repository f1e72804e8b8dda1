//! Equivalence of the resident restore path, which reads the snapshot's
//! pools in shard by shard, with the bulk restore path.
//!
//! A corpus restored through [`Corpus::load_snapshot_resident`] under any
//! budget is a pure paging change: query answers, epochs and subsequent
//! mutations must be byte-identical to a bulk [`Corpus::load_snapshot`]
//! of the same file, at every jobs level. Its rows carry
//! the sketch a heap row carries, so its rankings use the sketch bound.

use std::path::PathBuf;

use f3m_core::corpus::{Corpus, CorpusConfig};
use f3m_fingerprint::pager::PagerKind;
use f3m_fingerprint::resident::TARGET_SHARD_BYTES;
use f3m_ir::module::Module;
use f3m_ir::printer::print_module;

fn tmp(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("f3m_resident_parity_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("corpus.f3msnap")
}

fn populated_corpus(cfg: CorpusConfig, modules: usize) -> Corpus {
    let corpus = Corpus::new(cfg);
    for i in 0..modules {
        let mut spec = f3m_workloads::mini_suite()[0].clone();
        spec.functions = 48;
        spec.seed = 1200 + i as u64;
        let mut m = f3m_workloads::build_module(&spec);
        m.name = format!("par_m{i}");
        corpus.ingest(m).expect("ingest");
    }
    corpus
}

fn query_dump(c: &Corpus, modules: usize) -> Vec<(u64, String)> {
    (0..modules)
        .map(|i| {
            let (epoch, rs) = c.query_module(&format!("par_m{i}"), 4).expect("query");
            (epoch, format!("{rs:?}"))
        })
        .collect()
}

/// A one-shard budget forces the sweep through fault/spill traffic; the
/// answers must not notice.
const TINY_BUDGET: u64 = TARGET_SHARD_BYTES as u64;

/// Budgeted resident restore answers byte-identically to bulk restore at
/// every jobs level, ranking through the sketch bound.
#[test]
fn resident_restore_matches_bulk_across_jobs() {
    for jobs in [1usize, 2, 8] {
        let cfg = || CorpusConfig { jobs, ..CorpusConfig::default() };
        let corpus = populated_corpus(cfg(), 3);
        let path = tmp(&format!("grid_j{jobs}"));
        corpus.save_snapshot(&path).expect("save");

        let bulk = Corpus::load_snapshot(&path, cfg()).expect("bulk load");
        let resident = Corpus::load_snapshot_resident(&path, cfg(), PagerKind::Auto, TINY_BUDGET)
            .expect("resident load");
        assert_eq!(resident.epoch(), bulk.epoch(), "j{jobs}: epoch");
        assert_eq!(query_dump(&resident, 3), query_dump(&bulk, 3), "j{jobs}: answers");
        let (pager, counters) = resident.residency().expect("resident counters");
        assert_eq!(pager, "file");
        assert!(counters.resident_bytes <= TINY_BUDGET, "budget holds");
        assert!(bulk.residency().is_none(), "bulk restore has no residency");
        let sketched = resident.stats().sketch_comparisons;
        assert!(sketched > 0, "j{jobs}: resident rows rank through the sketch");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}

/// A snapshot of an empty corpus restores resident — a store with no
/// shards — and the restored corpus takes a module like a fresh one.
#[test]
fn empty_snapshot_restores_resident_and_ingests() {
    let cfg = || CorpusConfig { jobs: 1, ..CorpusConfig::default() };
    let path = tmp("empty");
    populated_corpus(cfg(), 0).save_snapshot(&path).expect("save");

    let resident = Corpus::load_snapshot_resident(&path, cfg(), PagerKind::Auto, TINY_BUDGET)
        .expect("resident load of an empty snapshot");
    let fresh = populated_corpus(cfg(), 0);
    assert_eq!(resident.stats().functions_live, 0);
    let mut spec = f3m_workloads::mini_suite()[0].clone();
    spec.functions = 24;
    let mut m = f3m_workloads::build_module(&spec);
    m.name = "par_m0".into();
    resident.ingest(m.clone()).expect("ingest into the resident restore");
    fresh.ingest(m).expect("ingest into a fresh corpus");
    assert_eq!(query_dump(&resident, 1), query_dump(&fresh, 1), "answers");
    let (_, counters) = resident.residency().expect("resident counters");
    assert_eq!((counters.shard_faults, counters.resident_bytes), (0, 0), "no base row to read");
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

/// Two merge-eligible, signature-identical members of one generated
/// family of `m` — a body swap between them keeps the module verifying.
fn swap_pair(m: &Module) -> (String, String) {
    let eligible: Vec<_> = m.merge_eligible().into_iter().map(|f| m.function(f)).collect();
    let family = |name: &str| name.rsplit_once('_').map(|(fam, _)| fam.to_string());
    for (i, a) in eligible.iter().enumerate() {
        for b in &eligible[i + 1..] {
            if family(&a.name) == family(&b.name) && (&a.params, a.ret_ty) == (&b.params, b.ret_ty) {
                return (a.name.clone(), b.name.clone());
            }
        }
    }
    panic!("workload has no swappable family pair");
}

/// IR text of `m` with `dst`'s body replaced by `src`'s (the patch shape
/// of `corpus_incremental.rs::body_swap_patch`).
fn body_swap_patch(m: &Module, dst: &str, src: &str) -> String {
    let mut patched = m.clone();
    let d = patched.lookup_function(dst).unwrap();
    let s = patched.lookup_function(src).unwrap();
    patched.rename_function(d, format!("{dst}__old"));
    patched.rename_function(s, dst.to_string());
    print_module(&patched)
}

/// A resident corpus is not read-only: ingest appends heap rows, a real
/// body swap of a function whose row lives in the snapshot file re-points
/// it at a new heap row, evict drops a module — all in lockstep with the
/// same mutations applied to a bulk-restored twin, and a snapshot of
/// either mutated corpus reloads to the same answers.
#[test]
fn resident_corpus_mutations_match_bulk_twin() {
    let cfg = || CorpusConfig { jobs: 1, ..CorpusConfig::default() };
    let corpus = populated_corpus(cfg(), 2);
    let path = tmp("mutations");
    corpus.save_snapshot(&path).expect("save");

    let bulk = Corpus::load_snapshot(&path, cfg()).expect("bulk load");
    let resident = Corpus::load_snapshot_resident(&path, cfg(), PagerKind::Auto, TINY_BUDGET)
        .expect("resident load");

    let mutate = |c: &Corpus| {
        // Ingest a fresh module, body-swap one function of a resident
        // module via update_function, then evict the other module.
        let mut spec = f3m_workloads::mini_suite()[0].clone();
        spec.functions = 24;
        spec.seed = 4242;
        let mut m = f3m_workloads::build_module(&spec);
        m.name = "par_new".into();
        c.ingest(m).expect("ingest into restored corpus");

        let src = c.module_source("par_m0").expect("source");
        let m = f3m_ir::parser::parse_module(&src).expect("parse");
        let (dst, src) = swap_pair(&m);
        let up = c
            .update_function("par_m0", &dst, Some(&body_swap_patch(&m, &dst, &src)))
            .expect("body-swap resident function");
        assert!(up.changed, "the swap must change the body");
        let (_, qr) = c.query_function("par_m0", &dst, 4).expect("query swapped function");
        assert_eq!(
            qr.candidates.first().map(|cand| (&*cand.func, cand.similarity)),
            Some((format!("par_m0.{src}").as_str(), 1.0)),
            "the swapped function now fingerprints like its source sibling"
        );
        c.evict("par_m1").expect("evict resident module");
    };
    mutate(&bulk);
    mutate(&resident);

    assert_eq!(resident.epoch(), bulk.epoch(), "epochs advance in lockstep");
    let dump = |c: &Corpus| {
        ["par_m0", "par_new"]
            .map(|n| format!("{:?}", c.query_module(n, 4).expect("query")))
    };
    assert_eq!(dump(&resident), dump(&bulk), "post-mutation answers");

    // Both mutated corpora persist the same state — the same bytes — and
    // each reload, bulk and resident, answers like the mutated twin.
    let saved = [("bulk", &bulk), ("resident", &resident)].map(|(name, mutated)| {
        let saved = tmp(&format!("mutations_resaved_{name}"));
        mutated.save_snapshot(&saved).expect("save mutated corpus");
        saved
    });
    assert_eq!(
        std::fs::read(&saved[0]).unwrap(),
        std::fs::read(&saved[1]).unwrap(),
        "mutated twins save byte-identical snapshots"
    );
    for saved in &saved {
        let reloaded = Corpus::load_snapshot(saved, cfg()).expect("reload bulk");
        assert_eq!(dump(&reloaded), dump(&bulk), "bulk reload of {saved:?}");
        let reloaded = Corpus::load_snapshot_resident(saved, cfg(), PagerKind::Auto, TINY_BUDGET)
            .expect("reload resident");
        assert_eq!(dump(&reloaded), dump(&bulk), "resident reload of {saved:?}");
        let _ = std::fs::remove_dir_all(saved.parent().unwrap());
    }
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
