//! Every MinHash signature of a fixed generated set, pinned: the
//! merge-eligible functions of the eleven small Table I programs,
//! fingerprinted at `k = 200` (each program's own adaptive `k`) and at
//! `k = 114` (the adaptive `k` of the 10 000-function `linux-scale` pass).
//! A change to the shingling, the hash, the xor constants or the kernel
//! that moves any slot of any signature fails here.
//!
//! Both digests were recorded with the per-shingle slot loop that the
//! two-pass kernel replaced.

use f3m_fingerprint::adaptive::MergeParams;
use f3m_fingerprint::encode::encode_function;
use f3m_fingerprint::fnv::{fnv1a_u64s, xor_constants};
use f3m_fingerprint::minhash::minhash_signature;
use f3m_workloads::{build_module, table1, SizeClass};

/// FNV-1a of every `k = 200` signature, in program then function order.
const DIGEST_K200: u64 = 12953675974343653100;
/// FNV-1a of every `k = 114` signature, in the same order.
const DIGEST_K114: u64 = 9562217339003299876;

/// Every signature of the set at width `k`, concatenated.
fn signature_pool(k: usize) -> Vec<u64> {
    let consts = xor_constants(k);
    let mut pool = Vec::new();
    for spec in table1().iter().filter(|s| s.class == SizeClass::Small) {
        let m = build_module(spec);
        let funcs = m.merge_eligible();
        assert_eq!(
            MergeParams::adaptive(funcs.len()).k,
            200,
            "{}: adaptive k",
            spec.name
        );
        for f in funcs {
            pool.extend(minhash_signature(
                &consts,
                &encode_function(&m.types, m.function(f)),
            ));
        }
    }
    pool
}

#[test]
fn signatures_match_the_pinned_digests() {
    assert_eq!(
        MergeParams::adaptive(10_000).k,
        114,
        "linux-scale's adaptive k"
    );
    let pool = signature_pool(200);
    assert_eq!(pool.len() % 200, 0);
    assert_eq!(fnv1a_u64s(&pool), DIGEST_K200, "k = 200");
    assert_eq!(fnv1a_u64s(&signature_pool(114)), DIGEST_K114, "k = 114");
}

/// The pin sees a change to any one slot. Every FNV-1a step is a
/// bijection of the running state, so a pool that differs in one word
/// always digests differently; this samples slots across the pool, the
/// first and last among them.
#[test]
fn a_single_perturbed_slot_moves_the_digest() {
    let mut pool = signature_pool(200);
    let digest = fnv1a_u64s(&pool);
    let last = pool.len() - 1;
    for at in (0..16).map(|i| i * last / 15) {
        for flip in [1, 1 << 63] {
            pool[at] ^= flip;
            assert_ne!(fnv1a_u64s(&pool), digest, "slot {at} ^ {flip:#x}");
            pool[at] ^= flip;
        }
    }
}
