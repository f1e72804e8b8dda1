//! The slot loop [`super::minhash_signature`] replaced, kept as the
//! reference it is held to: every shingle hash xor-ed into all `k` `u64`
//! lanes and each lane's minimum kept, `n × k` scalar steps.
//!
//! [`kernel_matches_the_reference_on_table1`] requires the two-pass kernel
//! to give every merge-eligible function of the small Table I programs and
//! of the 10 000-function `linux-scale` module the signature this loop
//! gives it, at their adaptive `k` and at `k = 200`; the other tests hold
//! the kernel's hash-level entry point to it on streams built by hand.

use f3m_prng::SmallRng;
use f3m_workloads::{build_module, table1, SizeClass};

use super::shingle_hashes;
use crate::adaptive::MergeParams;
use crate::encode::encode_function;
use crate::fnv::xor_constants;

/// The signature of an encoded stream, computed by the slot loop.
pub fn minhash_signature(consts: &[u64], encoded: &[u32]) -> Vec<u64> {
    signature_of_hashes(consts, &shingle_hashes(encoded))
}

/// The slot loop over a multiset of shingle hashes.
pub fn signature_of_hashes(consts: &[u64], shingles: &[u64]) -> Vec<u64> {
    assert!(!consts.is_empty(), "fingerprint size must be positive");
    let mut hashes = vec![u64::MAX; consts.len()];
    for &base in shingles {
        for (slot, &c) in hashes.iter_mut().zip(consts.iter()) {
            let h = base ^ c;
            if h < *slot {
                *slot = h;
            }
        }
    }
    hashes
}

/// Widths the kernel's 16-lane registers and 64-slot blocks split
/// differently: one slot; 15, 16 and 17 around one register; 57, a
/// partial block; 114 and 200, the adaptive and static widths; 400,
/// several blocks and a partial one.
const WIDTHS: [usize; 8] = [1, 15, 16, 17, 57, 114, 200, 400];

/// The kernel's signature of `hashes`, on a copy (the kernel sorts and
/// deduplicates its input).
fn kernel(consts: &[u64], hashes: &[u64]) -> Vec<u64> {
    super::signature_of_hashes(consts, &mut hashes.to_vec())
}

fn assert_same(consts: &[u64], hashes: &[u64], what: &str) {
    assert_eq!(
        kernel(consts, hashes),
        signature_of_hashes(consts, hashes),
        "{what}: k = {}, {} hashes",
        consts.len(),
        hashes.len()
    );
}

/// A hash with top byte `top` and the other 56 bits drawn.
fn with_top(rng: &mut SmallRng, top: u8) -> u64 {
    (u64::from(top) << 56) | (rng.next_u64() >> 8)
}

/// Hand-built hash streams: the shapes the buckets and the branch-free
/// pair read must get right.
fn streams(rng: &mut SmallRng) -> Vec<(&'static str, Vec<u64>)> {
    let word = rng.next_u64();
    let mut v = vec![
        ("empty", vec![]),
        ("one word", vec![word]),
        ("two words", vec![word, rng.next_u64()]),
        (
            "two words, one top byte",
            vec![with_top(rng, 7), with_top(rng, 7)],
        ),
        ("all-duplicate", vec![word; 1000]),
        (
            "extremes",
            vec![0, u64::MAX, 1 << 63, (1 << 63) - 1, 0xFF, 0xFF << 56],
        ),
        (
            "one top byte, 300 hashes",
            (0..300).map(|_| with_top(rng, 0xA5)).collect(),
        ),
        (
            "every top byte",
            (0..=255).map(|t| with_top(rng, t)).collect(),
        ),
        ("random", (0..700).map(|_| rng.next_u64()).collect()),
    ];
    // > 256 hashes in one bucket, among a spread of others, each repeated.
    let mut mixed: Vec<u64> = (0..400).map(|_| with_top(rng, 0x00)).collect();
    mixed.extend((0..200).map(|_| rng.next_u64()));
    mixed.extend(mixed.clone().iter().step_by(3));
    v.push(("crowded bucket among others, duplicated", mixed));
    // Buckets of one, two and three hashes, side by side.
    let sized: Vec<u64> = (0..90u64)
        .flat_map(|t| (0..=t % 3).map(move |i| (t << 56) | i))
        .collect();
    v.push(("buckets of one to three", sized));
    v
}

/// Constants that share top bytes: all one top byte, pairs, constants
/// equal to stream hashes (slot minima of 0), and the drawn constants.
fn constant_sets(k: usize, rng: &mut SmallRng) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("xor_constants", xor_constants(k)),
        (
            "one top byte",
            (0..k).map(|_| with_top(rng, 0x3C)).collect(),
        ),
        (
            "pairs share a top byte",
            (0..k).map(|i| with_top(rng, (i / 2) as u8)).collect(),
        ),
        (
            "top byte zero",
            (0..k).map(|_| rng.next_u64() >> 8).collect(),
        ),
        (
            "top byte 0xFF",
            (0..k).map(|_| with_top(rng, 0xFF)).collect(),
        ),
    ]
}

#[test]
fn kernel_matches_the_reference_on_hand_built_streams() {
    let mut rng = SmallRng::seed_from_u64(0x5107_4A5E);
    for k in WIDTHS {
        for (consts_what, consts) in constant_sets(k, &mut rng) {
            for (what, hashes) in streams(&mut rng) {
                assert_same(&consts, &hashes, &format!("{what} / {consts_what}"));
            }
        }
        // A constant equal to a hash gives that slot the minimum 0.
        let hashes: Vec<u64> = (0..50).map(|_| rng.next_u64()).collect();
        let consts: Vec<u64> = (0..k).map(|i| hashes[i % hashes.len()]).collect();
        assert_same(&consts, &hashes, "constants drawn from the stream");
        assert!(kernel(&consts, &hashes).iter().all(|&s| s == 0));
    }
}

#[test]
fn kernel_matches_the_reference_on_drawn_streams() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    let cases = if cfg!(debug_assertions) { 60 } else { 2_000 };
    for case in 0..cases {
        let k = WIDTHS[case % WIDTHS.len()];
        let consts = xor_constants(k);
        // Few distinct top bytes crowd the buckets; an alphabet of a few
        // words repeats shingles.
        let tops = 1 + rng.gen_range(0..256usize);
        let n = rng.gen_range(0..600usize);
        let hashes: Vec<u64> = (0..n)
            .map(|_| {
                let top = rng.gen_range(0..tops) as u8;
                with_top(&mut rng, top)
            })
            .collect();
        assert_same(&consts, &hashes, "drawn hashes");
        let alphabet = 1 + rng.gen_range(0..40u32);
        let encoded: Vec<u32> = (0..n).map(|_| rng.gen_range(0..alphabet)).collect();
        assert_eq!(
            super::minhash_signature(&consts, &encoded),
            minhash_signature(&consts, &encoded),
            "drawn stream of {n} words over {alphabet}, k = {k}"
        );
    }
}

#[test]
fn kernel_matches_the_reference_on_table1() {
    let small = table1().into_iter().filter(|s| s.class == SizeClass::Small);
    let mut linux = table1()
        .into_iter()
        .find(|s| s.name == "linux-scale")
        .expect("Table I row");
    linux.functions = 10_000;
    // The debug build under `cargo test` checks a tenth of every program.
    let scale = if cfg!(debug_assertions) { 0.1 } else { 1.0 };
    let mut checked = 0;
    for spec in small.chain([linux]) {
        let m = build_module(&spec.scaled(scale));
        let encoded: Vec<Vec<u32>> = m
            .merge_eligible()
            .into_iter()
            .map(|f| encode_function(&m.types, m.function(f)))
            .collect();
        for k in [MergeParams::adaptive(encoded.len()).k, 200] {
            let consts = xor_constants(k);
            for (i, e) in encoded.iter().enumerate() {
                assert_eq!(
                    super::minhash_signature(&consts, e),
                    minhash_signature(&consts, e),
                    "{}: function {i}, k = {k}",
                    spec.name
                );
            }
        }
        checked += encoded.len();
    }
    assert!(
        checked
            > if cfg!(debug_assertions) {
                1_000
            } else {
                12_000
            },
        "{checked} functions"
    );
}
