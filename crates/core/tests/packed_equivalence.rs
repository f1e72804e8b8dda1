//! Equivalence of the packed struct-of-arrays fingerprint storage with
//! the legacy per-function representation, and of the pipelines built on
//! top of it.
//!
//! The packed store is a pure layout change: for every backend the
//! signatures and band keys it hands back must be byte-identical to the
//! per-function vectors they were packed from, candidate sets must not
//! depend on the shard count, and the merged module must not depend on
//! the jobs level. Any divergence here means the SoA refactor changed
//! semantics, not just cache behavior.

use f3m_core::pass::{run_pass, PassConfig};
use f3m_fingerprint::encode::encode_function;
use f3m_fingerprint::lsh::band_keys_for;
use f3m_fingerprint::{
    backend_for, BackendKind, LshIndex, MergeParams, PackedFingerprintStore, ShardedLshIndex,
};
use f3m_ir::module::Module;

fn workload() -> Module {
    let mut spec = f3m_workloads::mini_suite()[1].clone();
    spec.functions = 72;
    spec.seed = 5150;
    f3m_workloads::build_module(&spec)
}

fn encoded_functions(m: &Module) -> Vec<Vec<u32>> {
    m.defined_functions()
        .into_iter()
        .map(|f| encode_function(&m.types, m.function(f)))
        .collect()
}

/// Packed rows reproduce the per-function signatures and band keys
/// byte-for-byte, for every backend, and survive a pool round-trip.
#[test]
fn packed_rows_match_per_function_storage() {
    let m = workload();
    let encs = encoded_functions(&m);
    for kind in BackendKind::ALL {
        let params = MergeParams::static_default().with_backend(kind);
        let backend = backend_for(kind, params.k);

        // Legacy shape: one Vec per function.
        let legacy: Vec<(Vec<u64>, Vec<_>)> = encs
            .iter()
            .map(|e| {
                let sig = backend.signature(e);
                let keys = band_keys_for(params.lsh, &sig);
                (sig, keys)
            })
            .collect();

        let mut store =
            PackedFingerprintStore::with_capacity(params.k, params.lsh.bands, legacy.len());
        for (i, (sig, keys)) in legacy.iter().enumerate() {
            assert_eq!(store.push_with_keys(sig, keys), i, "rows are dense");
        }
        assert_eq!(store.len(), legacy.len());
        assert_eq!(store.bytes_per_fn(), 9 * params.k + 4 * params.lsh.bands);

        for (i, (sig, keys)) in legacy.iter().enumerate() {
            assert_eq!(store.sig(i), &sig[..], "{} sig row {i}", kind.name());
            assert_eq!(store.keys(i), &keys[..], "{} key row {i}", kind.name());
            let low: Vec<u8> = sig.iter().map(|&slot| slot as u8).collect();
            assert_eq!(store.sketch(i), &low[..], "{} sketch row {i}", kind.name());
        }

        // Pool round-trip (the snapshot wire path) is lossless.
        let rt = PackedFingerprintStore::from_pools(
            params.k,
            params.lsh.bands,
            store.sig_pool().to_vec(),
            store.key_pool().to_vec(),
        )
        .expect("pool lengths are consistent");
        assert_eq!(rt.len(), store.len());
        for i in 0..store.len() {
            assert_eq!(rt.sig(i), store.sig(i));
            assert_eq!(rt.keys(i), store.keys(i));
            assert_eq!(rt.sketch(i), store.sketch(i), "the sketch is rederived from the pools");
        }
    }
}

/// Candidate sets from the sharded index match the unsharded one for
/// every shard count — banding decides the bucket, sharding only decides
/// who owns it.
#[test]
fn candidate_sets_are_shard_count_invariant() {
    let m = workload();
    let encs = encoded_functions(&m);
    let params = MergeParams::static_default();
    let backend = backend_for(params.backend, params.k);
    let keys: Vec<Vec<_>> = encs
        .iter()
        .map(|e| band_keys_for(params.lsh, &backend.signature(e)))
        .collect();

    let mut flat: LshIndex<usize> = LshIndex::new(params.lsh);
    for (i, e) in encs.iter().enumerate() {
        flat.insert(i, &backend.signature(e));
    }

    for shards in 1..=5 {
        let sharded: ShardedLshIndex<usize> = ShardedLshIndex::new(params.lsh, shards);
        for (i, k) in keys.iter().enumerate() {
            sharded.insert_with_keys(i, k);
        }
        for (i, k) in keys.iter().enumerate() {
            let sig = backend.signature(&encs[i]);
            let (a, _) = flat.candidates(&sig, i);
            let (b, _) = sharded.candidates_counted(k, i);
            assert_eq!(a, b, "candidates for fn {i} with {shards} shard(s)");
        }
    }
}

/// The merged module is identical at every jobs level — parallelism may
/// only change wall-clock time, never output.
#[test]
fn merge_output_is_jobs_invariant() {
    let mut reference: Option<String> = None;
    for jobs in [1usize, 2, 8] {
        let mut m = workload();
        let report = run_pass(&mut m, &PassConfig::f3m().with_jobs(jobs));
        f3m_ir::verify::verify_module(&m).expect("merged module verifies");
        assert!(report.stats.merges_committed > 0, "workload produces merges");
        let printed = f3m_ir::printer::print_module(&m);
        match &reference {
            None => reference = Some(printed),
            Some(r) => assert_eq!(r, &printed, "jobs={jobs} diverged from jobs=1"),
        }
    }
}
