//! MinHash fingerprints over instruction shingles.
//!
//! Section III-B of the paper: the encoded instruction stream is split into
//! overlapping shingles of length `K = 2`; each shingle is hashed with
//! FNV-1a, and `k` hash functions are derived by xor-ing the single FNV
//! value with `k` fixed random constants. The fingerprint keeps the minimum
//! of each derived hash over all shingles. The fraction of equal fingerprint
//! slots estimates the Jaccard index of the shingle sets within
//! `O(1/sqrt(k))`.
//!
//! # The two-pass kernel
//!
//! Taking the xor-min of every shingle hash against `k` `u64` lanes costs
//! `n × k` scalar steps: SSE2, the baseline x86-64 target, has no 64-bit
//! vector compare. [`minhash_signature`] computes the same minima in two
//! passes instead, exactly, bit for bit:
//!
//! 1. The hashes are sorted and deduplicated, so the hashes sharing a top
//!    byte (the bits `63..56`) form one contiguous *bucket*.
//! 2. **Pass 1, byte lanes.** For every slot `i`, the least
//!    `top(h) ^ top(c_i)` over the present top bytes is taken in `u8`
//!    lanes, sixteen slots a `pminub`.
//! 3. **Pass 2, resolve.** Slot `i` is the least `h ^ c_i` over the one
//!    bucket `least_i ^ top(c_i)`, which usually holds one or two hashes.
//!
//! *Why it is exact.* `top(h ^ c) = top(h) ^ top(c)`, and the top byte is
//! the most significant, so the least `h ^ c` has the least top byte,
//! `least_i`. Every hash with that top byte under xor lies in the bucket
//! `least_i ^ top(c_i)` (xor by `top(c_i)` is a bijection on bytes), and
//! every hash in that bucket has it; the minimum over the bucket is the
//! minimum over all. Duplicates change no minimum, so dropping them is
//! exact too. The work is `n log n` for the sort, `min(n, 256) × k / 16`
//! vector steps for pass 1 and about `k` for pass 2. The slot loop it
//! replaced is kept as `reference` under `#[cfg(test)]`, and every
//! signature is held to it.

use std::collections::HashSet;

use crate::fnv::fnv1a_u32s;

/// Shingle length used throughout the paper (`K = 2`).
pub const SHINGLE_LEN: usize = 2;

/// Default fingerprint size (`k = 200`).
pub const DEFAULT_K: usize = 200;

/// Slots per pass-1 block: a block's byte lanes stay in four vector
/// registers while every present top byte is folded into them.
const BLOCK: usize = 64;

/// The MinHash signature of an encoded instruction stream: one minimum per
/// xor constant in `consts` (see [`xor_constants`](crate::fnv::xor_constants);
/// a caller fingerprinting many functions derives them once). Compare two
/// signatures with [`signature_similarity`](crate::backend::signature_similarity).
///
/// Functions shorter than [`SHINGLE_LEN`] contribute a single shingle
/// covering the whole stream, so every non-empty function has a
/// well-defined signature; an empty stream leaves every slot at `u64::MAX`.
///
/// # Panics
///
/// Panics if `consts` is empty.
pub fn minhash_signature(consts: &[u64], encoded: &[u32]) -> Vec<u64> {
    assert!(!consts.is_empty(), "fingerprint size must be positive");
    signature_of_hashes(consts, &mut shingle_hashes(encoded))
}

/// The two-pass kernel behind [`minhash_signature`] (see the module docs),
/// over a multiset of shingle hashes. Sorts and deduplicates `hashes` in
/// place, so the only allocation is the signature.
fn signature_of_hashes(consts: &[u64], hashes: &mut Vec<u64>) -> Vec<u64> {
    let mut sig = vec![u64::MAX; consts.len()];
    if hashes.is_empty() {
        return sig;
    }
    hashes.sort_unstable();
    hashes.dedup();
    let buckets = Buckets::of_sorted(hashes);
    for (out, consts) in sig.chunks_mut(BLOCK).zip(consts.chunks(BLOCK)) {
        let mut tops = [0u8; BLOCK];
        for (t, &c) in tops.iter_mut().zip(consts) {
            *t = top_byte(c);
        }
        let least = least_top_bytes(buckets.present(), &tops);
        for (((slot, &c), &l), &t) in out.iter_mut().zip(consts).zip(&least).zip(&tops) {
            // Pass 2: the one bucket whose hashes reach the least top byte.
            // Most hold one or two, so both are read without a branch.
            let bucket = buckets.get(hashes, l ^ t);
            let pair = (bucket[0] ^ c).min(bucket[usize::from(2 <= bucket.len())] ^ c);
            *slot = if bucket.len() > 2 { crowded(bucket, c, pair) } else { pair };
        }
    }
    sig
}

/// Pass 1: for each lane `i`, the least `p ^ tops[i]` over the present top
/// bytes `p`, sixteen lanes a `pminub`.
fn least_top_bytes(present: &[u8], tops: &[u8; BLOCK]) -> [u8; BLOCK] {
    let mut least = [u8::MAX; BLOCK];
    for &p in present {
        for (l, &t) in least.iter_mut().zip(tops) {
            *l = (*l).min(p ^ t);
        }
    }
    least
}

/// Pass 2 past a bucket's first two hashes: rare enough after
/// deduplication that keeping it out of line pays.
#[cold]
#[inline(never)]
fn crowded(bucket: &[u64], c: u64, pair: u64) -> u64 {
    bucket[2..].iter().fold(pair, |m, &h| m.min(h ^ c))
}

fn top_byte(h: u64) -> u8 {
    (h >> 56) as u8
}

/// The top-byte buckets of a sorted, deduplicated hash set.
struct Buckets {
    /// Bucket `t` is `hashes[start[t]..end[t]]`.
    start: [usize; 256],
    end: [usize; 256],
    /// The top bytes of the non-empty buckets, ascending.
    present: [u8; 256],
    distinct: usize,
}

impl Buckets {
    fn of_sorted(hashes: &[u64]) -> Buckets {
        let mut b = Buckets { start: [0; 256], end: [0; 256], present: [0; 256], distinct: 0 };
        let mut prev = None;
        for (i, &h) in hashes.iter().enumerate() {
            let t = top_byte(h);
            if prev != Some(t) {
                prev = Some(t);
                b.start[usize::from(t)] = i;
                b.present[b.distinct] = t;
                b.distinct += 1;
            }
            b.end[usize::from(t)] = i + 1;
        }
        b
    }

    fn present(&self) -> &[u8] {
        &self.present[..self.distinct]
    }

    fn get<'h>(&self, hashes: &'h [u64], t: u8) -> &'h [u64] {
        let t = usize::from(t);
        &hashes[self.start[t]..self.end[t]]
    }
}

/// The FNV-1a hash of every shingle in the stream (multiset, in order).
pub fn shingle_hashes(encoded: &[u32]) -> Vec<u64> {
    if encoded.is_empty() {
        return Vec::new();
    }
    if encoded.len() < SHINGLE_LEN {
        return vec![fnv1a_u32s(encoded)];
    }
    encoded
        .windows(SHINGLE_LEN)
        .map(fnv1a_u32s)
        .collect()
}

/// Exact Jaccard index of the two functions' shingle *sets* — the quantity
/// MinHash estimates. Linear in the function sizes; used by tests and the
/// Figure 10 ground-truth comparison, not by the merging pass itself.
pub fn exact_jaccard(a: &[u32], b: &[u32]) -> f64 {
    let sa: HashSet<u64> = shingle_hashes(a).into_iter().collect();
    let sb: HashSet<u64> = shingle_hashes(b).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count();
    let union = sa.len() + sb.len() - inter;
    inter as f64 / union as f64
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{signature_similarity, FingerprintBackend, MinHashBackend};
    use crate::fnv::xor_constants;

    fn sig(encoded: &[u32], k: usize) -> Vec<u64> {
        minhash_signature(&xor_constants(k), encoded)
    }

    fn similarity(a: &[u32], b: &[u32], k: usize) -> f64 {
        signature_similarity(&sig(a, k), &sig(b, k))
    }

    #[test]
    fn identical_streams_have_similarity_one() {
        let s = [1, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(similarity(&s, &s, 64), 1.0);
    }

    #[test]
    fn disjoint_streams_have_similarity_near_zero() {
        let sim = similarity(&[1, 2, 3, 4, 5, 6], &[101, 102, 103, 104, 105, 106], 128);
        assert!(sim < 0.1, "{sim}");
    }

    #[test]
    fn estimate_tracks_exact_jaccard() {
        // Two streams sharing half their shingles.
        let mut a: Vec<u32> = (0..40).collect();
        let mut b: Vec<u32> = (20..60).collect();
        a.push(999);
        b.push(999);
        let exact = exact_jaccard(&a, &b);
        let k = 400;
        let est = similarity(&a, &b, k);
        // O(1/sqrt(k)) error bound, with slack for the shared-xor trick.
        let tol = 3.0 / (k as f64).sqrt();
        assert!(
            (est - exact).abs() < tol,
            "estimate {est:.3} vs exact {exact:.3} (tol {tol:.3})"
        );
    }

    #[test]
    fn single_instruction_functions_are_fingerprintable() {
        assert_eq!(similarity(&[7], &[7], 16), 1.0);
        assert!(similarity(&[7], &[8], 16) < 1.0);
    }

    #[test]
    fn empty_stream_yields_max_slots() {
        assert!(sig(&[], 8).iter().all(|&h| h == u64::MAX));
    }

    #[test]
    fn small_edit_small_similarity_drop() {
        // Mirrors Figure 7: one extra "instruction" inside the stream only
        // perturbs the shingles that overlap it.
        let a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        b.insert(25, 999);
        let sim = similarity(&a, &b, 256);
        assert!(sim > 0.8, "one insertion keeps most shingles: {sim}");
        assert!(sim < 1.0);
    }

    #[test]
    fn exact_jaccard_bounds() {
        let a: Vec<u32> = (0..10).collect();
        assert_eq!(exact_jaccard(&a, &a), 1.0);
        let b: Vec<u32> = (100..110).collect();
        assert_eq!(exact_jaccard(&a, &b), 0.0);
        assert_eq!(exact_jaccard(&[], &[]), 1.0);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_sizes_panic() {
        let _ = signature_similarity(&sig(&[1, 2, 3], 8), &sig(&[1, 2, 3], 16));
    }

    /// The backend derives its constants once; signatures must not depend
    /// on who derived them.
    #[test]
    fn shared_constants_constructor_is_equivalent() {
        let s = [3, 1, 4, 1, 5, 9, 2, 6];
        assert_eq!(MinHashBackend::new(64).signature(&s), sig(&s, 64));
    }

    #[test]
    fn larger_k_reduces_estimation_error() {
        let a: Vec<u32> = (0..60).collect();
        let b: Vec<u32> = (30..90).collect();
        let exact = exact_jaccard(&a, &b);
        let err = |k: usize| (similarity(&a, &b, k) - exact).abs();
        // Average over a few ks to smooth noise; big-k family should be
        // no worse than the small-k family.
        let small = (err(16) + err(24) + err(32)) / 3.0;
        let big = (err(512) + err(768) + err(1024)) / 3.0;
        assert!(big <= small + 0.05, "big-k error {big:.3} vs small-k {small:.3}");
    }
}
