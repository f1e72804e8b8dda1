//! MinHash estimation-error bound on generated (not hand-picked)
//! functions, promoted from the top-level differential suite so the
//! fingerprint crate carries its own accuracy contract.
//!
//! # Tolerance
//!
//! For a size-`k` MinHash signature the estimator is a mean of `k`
//! Bernoulli trials with success probability J (the true Jaccard
//! similarity), so its standard error is `sqrt(J(1-J)/k) <= 0.5/sqrt(k)`.
//! We assert `|est - exact| < 4/sqrt(k)`: eight standard errors at the
//! worst-case variance. That is deliberately generous — the shared-xor
//! permutation family trades a little independence for speed, which
//! inflates the constant but not the `O(1/sqrt(k))` rate — while still
//! tight enough to catch a broken hash family (errors would then be
//! O(1), e.g. 0.3+, and fail immediately at k = 400).

use f3m_fingerprint::encode::encode_function;
use f3m_fingerprint::fnv::xor_constants;
use f3m_fingerprint::minhash::{exact_jaccard, minhash_signature};
use f3m_fingerprint::signature_similarity;
use f3m_ir::function::Linkage;
use f3m_ir::module::Module;
use f3m_prng::SmallRng;
use f3m_workloads::{declare_externals, generate_function, MutationProfile, ShapeParams};

#[test]
fn minhash_estimates_jaccard_within_bound() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0004);
    let profiles = [
        ("identical", MutationProfile::identical()),
        ("medium", MutationProfile::medium()),
    ];
    for round in 0..40 {
        let seed = rng.gen_range(0..100_000u64);
        let member = rng.gen_range(1..5u64);
        let target_insts = rng.gen_range(20..120usize);
        let (pname, profile) = &profiles[round % profiles.len()];
        let mut m = Module::new("prop");
        let ext = declare_externals(&mut m);
        let shape = ShapeParams { target_insts, ..Default::default() };
        let f1 = generate_function(
            &mut m.types, &ext, "a", &shape, seed, 0,
            &MutationProfile::identical(), Linkage::External,
        );
        let f2 = generate_function(
            &mut m.types, &ext, "b", &shape, seed, member, profile, Linkage::External,
        );
        let e1 = encode_function(&m.types, &f1);
        let e2 = encode_function(&m.types, &f2);
        let exact = exact_jaccard(&e1, &e2);
        for k in [100usize, 200, 400] {
            let fp1 = minhash_signature(&xor_constants(k), &e1);
            let fp2 = minhash_signature(&xor_constants(k), &e2);
            let est = signature_similarity(&fp1, &fp2);
            let bound = 4.0 / (k as f64).sqrt();
            assert!(
                (est - exact).abs() < bound,
                "k={k}: estimate {est} vs exact {exact} off by more than {bound} \
                 (seed {seed} member {member} insts {target_insts} profile {pname})"
            );
        }
    }
}

#[test]
fn minhash_similarity_is_exact_at_the_extremes() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_0006);
    for _ in 0..10 {
        let seed = rng.gen_range(0..100_000u64);
        let mut m = Module::new("prop");
        let ext = declare_externals(&mut m);
        let shape = ShapeParams { target_insts: 60, ..Default::default() };
        let f1 = generate_function(
            &mut m.types, &ext, "a", &shape, seed, 0,
            &MutationProfile::identical(), Linkage::External,
        );
        let e1 = encode_function(&m.types, &f1);
        let fp = minhash_signature(&xor_constants(200), &e1);
        // A fingerprint always estimates itself at exactly 1.0.
        assert_eq!(signature_similarity(&fp, &fp), 1.0, "seed {seed}");
    }
}
