//! Statistical validation of the LSH banding scheme against Equation 2 of
//! the paper, plus property tests of the MinHash estimator on synthetic
//! fingerprints with controlled similarity.

use f3m_fingerprint::lsh::{collision_probability, LshIndex, LshParams};
use f3m_fingerprint::fnv::xor_constants;
use f3m_fingerprint::minhash::minhash_signature;
use f3m_fingerprint::signature_similarity;
use f3m_prng::SmallRng;

/// Deterministic pseudo-random stream (decoupled from `rand` so the test
/// is stable forever).
struct Mix(u64);
impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Builds two encoded streams whose shingle sets overlap by roughly `s`.
fn correlated_streams(rng: &mut Mix, s: f64, len: usize) -> (Vec<u32>, Vec<u32>) {
    // Shared prefix of proportion s; disjoint distinctive tails. Because
    // shingles straddle the boundary only once, the sets' Jaccard index is
    // close to s for long streams.
    let shared = ((len as f64) * s) as usize;
    let mut a = Vec::with_capacity(len);
    let mut b = Vec::with_capacity(len);
    for _ in 0..shared {
        let v = rng.next() as u32;
        a.push(v);
        b.push(v);
    }
    // Re-sync shared part as a *prefix* on both, then diverge.
    for _ in shared..len {
        a.push(rng.next() as u32 | 0x8000_0000);
        b.push(rng.next() as u32 & 0x7FFF_FFFF);
    }
    (a, b)
}

#[test]
fn equation_2_predicts_measured_collision_rates() {
    // For several similarity levels, measure how often two fingerprints
    // share at least one band, and compare with 1 - (1 - s^r)^b using the
    // *measured* fingerprint similarity (the quantity Equation 2 is about).
    let params = LshParams { rows: 2, bands: 20, bucket_cap: usize::MAX };
    let k = params.fingerprint_size();
    let mut rng = Mix(42);
    for target_s in [0.2f64, 0.5, 0.8] {
        let trials = 300;
        let mut collided = 0usize;
        let mut sim_sum = 0.0;
        for _ in 0..trials {
            let (a, b) = correlated_streams(&mut rng, target_s, 120);
            let fa = minhash_signature(&xor_constants(k), &a);
            let fb = minhash_signature(&xor_constants(k), &b);
            sim_sum += signature_similarity(&fa, &fb);
            let mut idx: LshIndex<u32> = LshIndex::new(params);
            idx.insert(1, &fa);
            let (cands, _) = idx.candidates(&fb, 0);
            if !cands.is_empty() {
                collided += 1;
            }
        }
        let measured_rate = collided as f64 / trials as f64;
        let mean_sim = sim_sum / trials as f64;
        let predicted = collision_probability(mean_sim, params.rows, params.bands);
        assert!(
            (measured_rate - predicted).abs() < 0.12,
            "s≈{target_s}: measured {measured_rate:.3} vs Eq.2 {predicted:.3} (mean sim {mean_sim:.3})"
        );
    }
}

#[test]
fn higher_similarity_means_higher_collision_rate() {
    let params = LshParams { rows: 2, bands: 10, bucket_cap: usize::MAX };
    let k = params.fingerprint_size();
    let mut rng = Mix(7);
    let mut rates = Vec::new();
    for s in [0.1f64, 0.4, 0.7, 0.95] {
        let trials = 200;
        let mut collided = 0;
        for _ in 0..trials {
            let (a, b) = correlated_streams(&mut rng, s, 100);
            let fa = minhash_signature(&xor_constants(k), &a);
            let fb = minhash_signature(&xor_constants(k), &b);
            let mut idx: LshIndex<u32> = LshIndex::new(params);
            idx.insert(1, &fa);
            if !idx.candidates(&fb, 0).0.is_empty() {
                collided += 1;
            }
        }
        rates.push(collided as f64 / trials as f64);
    }
    for w in rates.windows(2) {
        assert!(w[1] >= w[0] - 0.05, "collision rate should rise with similarity: {rates:?}");
    }
    assert!(rates[3] > 0.95, "near-identical items almost always collide: {rates:?}");
}

fn random_stream(rng: &mut SmallRng, lo: usize, hi: usize) -> Vec<u32> {
    let len = rng.gen_range(lo..hi);
    (0..len).map(|_| rng.next_u32()).collect()
}

#[test]
fn minhash_similarity_is_reflexive_and_symmetric() {
    let mut rng = SmallRng::seed_from_u64(0xA11CE);
    for _ in 0..24 {
        let stream = random_stream(&mut rng, 1, 80);
        let other = random_stream(&mut rng, 1, 80);
        let a = minhash_signature(&xor_constants(64), &stream);
        let b = minhash_signature(&xor_constants(64), &other);
        assert_eq!(signature_similarity(&a, &a), 1.0);
        assert_eq!(signature_similarity(&a, &b), signature_similarity(&b, &a));
        let s = signature_similarity(&a, &b);
        assert!((0.0..=1.0).contains(&s));
    }
}

#[test]
fn permutation_does_not_change_minhash_much() {
    // MinHash is a set construction over shingles; a rotation keeps
    // most shingles intact, so similarity stays high (but an opcode
    // histogram would be *identical* — the F3M advantage is that
    // MinHash still notices the seam).
    let mut rng = SmallRng::seed_from_u64(0xB0B);
    for _ in 0..24 {
        let mut stream = random_stream(&mut rng, 12, 60);
        let a = minhash_signature(&xor_constants(256), &stream);
        stream.rotate_left(1);
        let b = minhash_signature(&xor_constants(256), &stream);
        let s = signature_similarity(&a, &b);
        assert!(s > 0.55, "rotation keeps most shingles: {s}");
    }
}

#[test]
fn collision_probability_is_monotone() {
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    for _ in 0..200 {
        let s1 = rng.gen_f64();
        let s2 = rng.gen_f64();
        let r = rng.gen_range(1..8usize);
        let b = rng.gen_range(1..128usize);
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        assert!(collision_probability(lo, r, b) <= collision_probability(hi, r, b) + 1e-12);
        // More bands never hurt discovery.
        assert!(
            collision_probability(s1, r, b) <= collision_probability(s1, r, b + 1) + 1e-12
        );
    }
}

#[test]
fn lsh_insert_then_remove_is_identity() {
    let mut rng = SmallRng::seed_from_u64(0xD00D);
    for _ in 0..24 {
        let params = LshParams { rows: 2, bands: 8, bucket_cap: 100 };
        let n = rng.gen_range(1..10usize);
        let fps: Vec<_> = (0..n)
            .map(|_| {
                let s = random_stream(&mut rng, 2, 30);
                minhash_signature(&xor_constants(params.fingerprint_size()), &s)
            })
            .collect();
        let mut idx: LshIndex<usize> = LshIndex::new(params);
        for (i, fp) in fps.iter().enumerate() {
            idx.insert(i, fp);
        }
        for (i, fp) in fps.iter().enumerate() {
            idx.remove(i, fp);
        }
        assert_eq!(idx.num_buckets(), 0);
    }
}
