//! Pluggable fingerprint backends.
//!
//! The paper's candidate search is MinHash + banded LSH, but the LSH
//! machinery itself is family-agnostic: anything that maps a function to a
//! fixed-width signature whose *slot-equality fraction* approximates a
//! similarity measure can reuse the banding, bucketing and
//! snapshot layers unchanged. This module is that seam.
//!
//! Every backend emits a `k`-slot `u64` signature:
//!
//! - [`BackendKind::MinHash`] — the default. Slot `i` is the minimum of
//!   the `i`-th derived hash over all instruction shingles
//!   ([`minhash_signature`]); slot equality estimates the Jaccard index.
//! - [`BackendKind::SimHash`] — random-hyperplane projection of the
//!   opcode-frequency vector. Each slot packs 8 projection sign bits, so
//!   slot equality is byte-granular Hamming similarity of the 8·k-bit
//!   SimHash, and an `r = 2` band carries 16 bits of entropy (a one-bit
//!   slot would collapse every band bucket to ≤ 4 distinct keys).
//! - [`BackendKind::Embed`] — a KEENHash-style function-aware embedding:
//!   a namespaced feature vector (opcode unigrams, opcode bigrams,
//!   instruction shape, length bucket) is projected through the SimHash
//!   hyperplane machinery into uniform slots, 8 sign bits per slot.
//!   Bigrams see instruction *order* and shape features see structure,
//!   which plain opcode histograms are blind to.
//!
//! Uniform signatures mean uniform plumbing: band keys always come from
//! [`band_keys_for`](crate::lsh::band_keys_for), similarity from
//! [`signature_similarity`], and storage from
//! [`PackedFingerprintStore`](crate::store::PackedFingerprintStore) —
//! per backend, only the signature function differs.

use crate::fnv::{fnv1a_u64s, xor_constants};
use crate::minhash::minhash_signature;

/// Selector for a fingerprint family, as chosen by `--backend`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// MinHash over instruction shingles (the paper's family).
    #[default]
    MinHash,
    /// SimHash over opcode frequencies, 8 projection bits per slot.
    SimHash,
    /// Function-aware feature embedding (unigrams/bigrams/shape/length)
    /// with SimHash projection, 8 sign bits per slot.
    Embed,
}

impl BackendKind {
    /// All backends, in CLI/bench presentation order.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::MinHash, BackendKind::SimHash, BackendKind::Embed];

    /// The CLI name (`--backend <name>`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::MinHash => "minhash",
            BackendKind::SimHash => "simhash",
            BackendKind::Embed => "embed",
        }
    }

    /// Parses a CLI name; `None` for unknown names.
    pub fn parse(s: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The snapshot tag of a backend that was shipped once and then
    /// retired (ISSUE 23: dominated on every recorded axis). Never
    /// reassigned, so a file written under it is never read as some other
    /// family's signatures.
    pub const RETIRED_TAG: u8 = 2;

    /// A stable one-byte tag for the snapshot header.
    pub fn tag(self) -> u8 {
        match self {
            BackendKind::MinHash => 0,
            BackendKind::SimHash => 1,
            BackendKind::Embed => 3,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u8) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|k| k.tag() == tag)
    }
}

/// A fingerprint family: encoded instruction stream → `k`-slot signature.
///
/// Implementations are stateless apart from derived constants, so one
/// boxed backend is shared across worker threads during a parallel bulk
/// build (`Send + Sync`).
pub trait FingerprintBackend: Send + Sync {
    /// Which family this is.
    fn kind(&self) -> BackendKind;

    /// Signature width `k` (slots). Always equals the `k` the backend was
    /// built with, so signatures band under `LshParams` of the same `k`.
    fn k(&self) -> usize;

    /// The `k`-slot signature of an encoded instruction stream.
    fn signature(&self, encoded: &[u32]) -> Vec<u64>;
}

/// Constructs the backend for `kind` with signature width `k`.
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn backend_for(kind: BackendKind, k: usize) -> Box<dyn FingerprintBackend> {
    assert!(k > 0, "signature width must be positive");
    match kind {
        BackendKind::MinHash => Box::new(MinHashBackend::new(k)),
        BackendKind::SimHash => Box::new(SimHashBackend::new(k)),
        BackendKind::Embed => Box::new(EmbedBackend::new(k)),
    }
}

/// Similarity of two equal-width signatures: the fraction of equal slots.
/// For MinHash this estimates the Jaccard index of the shingle sets; for
/// the packed backends it is a byte-granular Hamming similarity.
///
/// # Panics
///
/// Panics if the signatures have different sizes.
pub fn signature_similarity(a: &[u64], b: &[u64]) -> f64 {
    equal_slots(a, b) as f64 / a.len() as f64
}

/// The number of equal slots of two equal-width signatures — the integer
/// [`signature_similarity`] divides by `k`.
///
/// # Panics
///
/// Panics if the signatures have different sizes.
pub fn equal_slots(a: &[u64], b: &[u64]) -> usize {
    assert_eq!(a.len(), b.len(), "fingerprint size mismatch");
    a.iter().zip(b.iter()).filter(|(x, y)| x == y).count()
}

/// The number of positions at which two equal-length byte rows agree.
/// Applied to the low bytes of two signatures' slots it is an upper bound
/// on [`equal_slots`] (equal slots have equal low bytes) at an eighth of
/// the memory traffic.
///
/// Counted 16 bytes per step, then 8 for what is left, into one `u8`
/// accumulator per byte lane — a shape the compiler turns into vector
/// compares, where `iter().zip().filter().count()` over bytes stays
/// scalar. A lane holds at most 255, so rows are cut into blocks of 255
/// steps and the lanes summed out per block.
///
/// # Panics
///
/// Panics if the rows have different lengths.
pub fn equal_bytes(a: &[u8], b: &[u8]) -> usize {
    /// Equal positions of two rows of at most 255 `N`-byte steps.
    fn lanes<const N: usize>(a: &[u8], b: &[u8]) -> usize {
        let mut lanes = [0u8; N];
        for (x, y) in a.chunks_exact(N).zip(b.chunks_exact(N)) {
            for l in 0..N {
                lanes[l] += u8::from(x[l] == y[l]);
            }
        }
        lanes.iter().map(|&c| usize::from(c)).sum()
    }
    assert_eq!(a.len(), b.len(), "byte row length mismatch");
    let mut equal = 0;
    for (a, b) in a.chunks(16 * u8::MAX as usize).zip(b.chunks(16 * u8::MAX as usize)) {
        let (wide, mid) = (a.len() / 16 * 16, a.len() / 8 * 8);
        equal += lanes::<16>(&a[..wide], &b[..wide]);
        equal += lanes::<8>(&a[wide..mid], &b[wide..mid]);
        equal += a[mid..].iter().zip(&b[mid..]).filter(|(x, y)| x == y).count();
    }
    equal
}

/// The default backend: MinHash with shared xor constants (derived once,
/// reused by every signature).
pub struct MinHashBackend {
    consts: Vec<u64>,
}

impl MinHashBackend {
    pub fn new(k: usize) -> MinHashBackend {
        MinHashBackend { consts: xor_constants(k) }
    }
}

impl FingerprintBackend for MinHashBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::MinHash
    }

    fn k(&self) -> usize {
        self.consts.len()
    }

    fn signature(&self, encoded: &[u32]) -> Vec<u64> {
        minhash_signature(&self.consts, encoded)
    }
}

/// SimHash mixing: one 64-bit chunk of a feature's pseudo-random
/// projection row, derived deterministically from (feature, chunk).
fn projection_bits(feature: u64, chunk: u64) -> u64 {
    // SplitMix64-style finalizer over an FNV combination: cheap, stateless,
    // and uncorrelated across chunks.
    let mut z = fnv1a_u64s(&[feature, chunk]);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `k`-slot SimHash of a sparse feature vector given as `(feature,
/// weight)` pairs: every feature pushes each of the `8k` projection bits
/// (its [`projection_bits`] row) up or down by its weight, and the signs
/// of the sums are packed [`SIMHASH_BITS_PER_SLOT`] per slot. Signed
/// addition commutes, so the order of the pairs does not matter.
fn project(k: usize, features: impl IntoIterator<Item = (u64, i64)>) -> Vec<u64> {
    let bits = k * SIMHASH_BITS_PER_SLOT;
    let mut acc = vec![0i64; bits];
    for (feature, w) in features {
        for chunk in 0..bits.div_ceil(64) {
            let row = projection_bits(feature, chunk as u64);
            let lo = chunk * 64;
            for (i, a) in acc[lo..(lo + 64).min(bits)].iter_mut().enumerate() {
                if row >> i & 1 == 1 {
                    *a += w;
                } else {
                    *a -= w;
                }
            }
        }
    }
    (0..k)
        .map(|s| {
            let mut slot = 0u64;
            for b in 0..SIMHASH_BITS_PER_SLOT {
                if acc[s * SIMHASH_BITS_PER_SLOT + b] >= 0 {
                    slot |= 1 << b;
                }
            }
            slot
        })
        .collect()
}

/// SimHash over the opcode-frequency vector. The feature set is the
/// distinct opcodes of the stream (the high byte of each [encoded
/// word](crate::encode)), weighted by occurrence count, [projected](project)
/// to `8k` sign bits, packed 8 per slot.
pub struct SimHashBackend {
    k: usize,
}

/// Projection sign bits per SimHash signature slot.
pub const SIMHASH_BITS_PER_SLOT: usize = 8;

impl SimHashBackend {
    pub fn new(k: usize) -> SimHashBackend {
        SimHashBackend { k }
    }
}

impl FingerprintBackend for SimHashBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::SimHash
    }

    fn k(&self) -> usize {
        self.k
    }

    fn signature(&self, encoded: &[u32]) -> Vec<u64> {
        // Opcode histogram: feature = high byte of the encoded word.
        let mut counts = [0i64; 256];
        for &w in encoded {
            counts[(w >> 24) as usize] += 1;
        }
        let present = counts.iter().enumerate().filter(|&(_, &w)| w != 0);
        project(self.k, present.map(|(op, &w)| (op as u64, w)))
    }
}

/// KEENHash-style function embedding. The function is summarized as a
/// sparse feature vector in four namespaces over the [encoded
/// word](crate::encode) (opcode 31–24, operand count 23–20, result type
/// 19–14):
///
/// - `0x01`: opcode unigrams, weighted by occurrence count;
/// - `0x02`: consecutive-opcode bigrams — a cheap stand-in for local
///   control/data-flow structure that frequency vectors cannot see;
/// - `0x03`: instruction shape `(operand count, result type)`;
/// - `0x04`: one log2 length-bucket feature, so very different-sized
///   functions separate even when their opcode mix agrees.
///
/// The vector is then [projected](project) exactly like SimHash's,
/// packing [`SIMHASH_BITS_PER_SLOT`] sign bits per slot — so banding,
/// similarity and storage all work unchanged.
pub struct EmbedBackend {
    k: usize,
}

/// Weight of the singleton length-bucket feature: strong enough to
/// separate size classes, weak enough not to drown the content features
/// of small functions.
const EMBED_LEN_WEIGHT: i64 = 4;

impl EmbedBackend {
    pub fn new(k: usize) -> EmbedBackend {
        EmbedBackend { k }
    }
}

impl FingerprintBackend for EmbedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Embed
    }

    fn k(&self) -> usize {
        self.k
    }

    fn signature(&self, encoded: &[u32]) -> Vec<u64> {
        let mut features: std::collections::HashMap<u64, i64> = std::collections::HashMap::new();
        let mut prev_op: Option<u64> = None;
        for &w in encoded {
            let op = (w >> 24) as u64;
            let nops = ((w >> 20) & 0xF) as u64;
            let rty = ((w >> 14) & 0x3F) as u64;
            *features.entry(0x01 << 56 | op).or_insert(0) += 1;
            if let Some(p) = prev_op {
                *features.entry(0x02 << 56 | p << 8 | op).or_insert(0) += 1;
            }
            prev_op = Some(op);
            *features.entry(0x03 << 56 | nops << 6 | rty).or_insert(0) += 1;
        }
        let len_bucket = (usize::BITS - encoded.len().leading_zeros()) as u64;
        *features.entry(0x04 << 56 | len_bucket).or_insert(0) += EMBED_LEN_WEIGHT;
        project(self.k, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsh::{band_keys_for, LshParams};

    fn stream(n: u32, salt: u32) -> Vec<u32> {
        // Plausible encoded words: opcode in the high byte, operands below.
        (0..n).map(|i| ((i % 23 + salt % 5) << 24) | (i.wrapping_mul(2654435761) & 0xFF_FFFF)).collect()
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
            assert_eq!(BackendKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(BackendKind::parse("nope"), None);
        assert_eq!(BackendKind::from_tag(200), None);
        // Tags are an on-disk format: pinned by value, the retired one
        // never handed out again.
        assert_eq!(BackendKind::ALL.map(BackendKind::tag), [0, 1, 3]);
        assert_eq!(BackendKind::from_tag(BackendKind::RETIRED_TAG), None);
        assert_eq!(BackendKind::default(), BackendKind::MinHash);
    }

    #[test]
    fn all_backends_emit_k_slots_and_are_deterministic() {
        let s = stream(80, 3);
        for kind in BackendKind::ALL {
            let backend = backend_for(kind, 40);
            assert_eq!(backend.kind(), kind);
            assert_eq!(backend.k(), 40);
            let a = backend.signature(&s);
            assert_eq!(a.len(), 40, "{}", kind.name());
            assert_eq!(a, backend.signature(&s), "{} deterministic", kind.name());
        }
    }

    #[test]
    fn identical_streams_have_similarity_one_under_every_backend() {
        let s = stream(60, 7);
        for kind in BackendKind::ALL {
            let backend = backend_for(kind, 32);
            let sim = signature_similarity(&backend.signature(&s), &backend.signature(&s));
            assert_eq!(sim, 1.0, "{}", kind.name());
        }
    }

    #[test]
    fn small_edits_keep_high_similarity() {
        let a = stream(120, 1);
        let mut b = a.clone();
        b[60] ^= 0x0000_00FF; // operand tweak, same opcode
        for kind in BackendKind::ALL {
            let backend = backend_for(kind, 64);
            let sim = signature_similarity(&backend.signature(&a), &backend.signature(&b));
            assert!(sim > 0.6, "{}: one-word edit dropped similarity to {sim}", kind.name());
        }
    }

    #[test]
    fn unrelated_streams_separate_from_near_duplicates() {
        // Each backend must rank a near-duplicate above an unrelated
        // function — the property candidate search depends on.
        let a = stream(150, 1);
        let mut near = a.clone();
        near[10] ^= 0xFF; // operand tweak
        near.truncate(145);
        let far: Vec<u32> = (0..150u32)
            .map(|i| ((200 - i % 30) << 24) | (i.wrapping_mul(40503) & 0xFF_FFFF))
            .collect();
        for kind in BackendKind::ALL {
            let backend = backend_for(kind, 64);
            let sa = backend.signature(&a);
            let sim_near = signature_similarity(&sa, &backend.signature(&near));
            let sim_far = signature_similarity(&sa, &backend.signature(&far));
            assert!(
                sim_near > sim_far,
                "{}: near {sim_near} !> far {sim_far}",
                kind.name()
            );
        }
    }

    #[test]
    fn packed_slots_give_bands_entropy() {
        // A band of two packed slots must produce many distinct keys over
        // a varied corpus — the reason SimHash packs 8 bits per slot
        // instead of one sign bit per slot.
        let p = LshParams { rows: 2, bands: 16, bucket_cap: 100 };
        for kind in [BackendKind::SimHash, BackendKind::Embed] {
            let backend = backend_for(kind, 32);
            let mut keys = std::collections::HashSet::new();
            for f in 0..40u32 {
                let sig = backend.signature(&stream(60 + f, f));
                keys.extend(band_keys_for(p, &sig));
            }
            assert!(
                keys.len() > 100,
                "{}: only {} distinct band keys over 40 functions",
                kind.name(),
                keys.len()
            );
        }
    }

    #[test]
    fn embed_sees_instruction_order() {
        // Same multiset of instructions, different order: the opcode
        // histogram backends cannot tell these apart, the bigram
        // features can.
        let a = stream(100, 1);
        let mut b = a.clone();
        b.reverse();
        let embed = backend_for(BackendKind::Embed, 64);
        let sim = signature_similarity(&embed.signature(&a), &embed.signature(&b));
        assert!(sim < 1.0, "reversal must perturb the embedding (got {sim})");
        let simhash = backend_for(BackendKind::SimHash, 64);
        assert_eq!(
            signature_similarity(&simhash.signature(&a), &simhash.signature(&b)),
            1.0,
            "frequency-only backend is order-blind by construction"
        );
    }

    #[test]
    fn equal_bytes_matches_the_naive_count_at_every_length() {
        let mut rng = f3m_prng::SmallRng::seed_from_u64(0xB17E5);
        // One row longer than a whole block of 255 sixteen-byte steps
        // (plus an 8-byte step and a scalar tail), one spanning two.
        for len in (0..=600).chain([16 * 255 + 16 + 8 + 3, 2 * 16 * 255 + 5]) {
            // A 4-symbol alphabet makes about a quarter of the positions
            // agree; the all-equal row saturates every lane.
            let a: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4u32) as u8).collect();
            let b: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4u32) as u8).collect();
            let naive = a.iter().zip(&b).filter(|(x, y)| x == y).count();
            assert_eq!(equal_bytes(&a, &b), naive, "len {len}");
            assert_eq!(equal_bytes(&a, &a), len, "len {len}, identical rows");
        }
    }

    #[test]
    fn low_bytes_bound_the_equal_slots() {
        let a = stream(150, 1);
        let mut b = a.clone();
        b[10] ^= 0xFF;
        b.truncate(140);
        for kind in BackendKind::ALL {
            let backend = backend_for(kind, 114);
            let (sa, sb) = (backend.signature(&a), backend.signature(&b));
            let low = |sig: &[u64]| sig.iter().map(|&slot| slot as u8).collect::<Vec<u8>>();
            let equal = equal_slots(&sa, &sb);
            assert!(equal_bytes(&low(&sa), &low(&sb)) >= equal, "{}", kind.name());
            assert_eq!(signature_similarity(&sa, &sb), equal as f64 / 114.0, "{}", kind.name());
        }
    }

    /// Every backend's signatures over one Table I module, hashed to one
    /// digest per backend. The digests were recorded before the two
    /// sign-bit backends shared [`project`]; a bit that moves fails here.
    #[test]
    fn signatures_over_a_table_i_module_are_pinned() {
        let m = f3m_workloads::build_module(&f3m_workloads::table1()[0]);
        let streams: Vec<Vec<u32>> = m
            .defined_functions()
            .into_iter()
            .map(|f| crate::encode::encode_function(&m.types, m.function(f)))
            .collect();
        assert_eq!(streams.len(), 41);
        let digests = BackendKind::ALL.map(|kind| {
            let backend = backend_for(kind, 200);
            let slots: Vec<u64> = streams.iter().flat_map(|s| backend.signature(s)).collect();
            fnv1a_u64s(&slots)
        });
        assert_eq!(digests, [0x33fc_2490_5ecb_44be, 0x33ea_4fab_38ee_523e, 0xf44c_1b3e_03b5_02ae]);
    }

    #[test]
    fn empty_streams_are_fingerprintable() {
        for kind in BackendKind::ALL {
            let backend = backend_for(kind, 16);
            let sig = backend.signature(&[]);
            assert_eq!(sig.len(), 16);
            assert_eq!(signature_similarity(&sig, &backend.signature(&[])), 1.0);
        }
    }
}
