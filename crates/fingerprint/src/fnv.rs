//! FNV-1a hashing.
//!
//! The paper (Section III-B) uses the FNV-1a variant of the
//! Fowler–Noll–Vo hash "for its robustness to permutations, computational
//! efficiency, widespread use in practice, and simple implementation", and
//! derives its `k` MinHash functions from a single FNV-1a evaluation xor-ed
//! with `k` random constants. This module reproduces both pieces.

/// 64-bit FNV offset basis.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// 64-bit FNV prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a over a byte slice.
///
/// # Examples
///
/// ```
/// use f3m_fingerprint::fnv::fnv1a;
/// assert_ne!(fnv1a(b"abc"), fnv1a(b"acb"), "order-sensitive");
/// assert_eq!(fnv1a(b""), 0xCBF29CE484222325, "empty input = offset basis");
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a slice of `u32` words (little-endian byte order).
pub fn fnv1a_u32s(words: &[u32]) -> u64 {
    let mut h = FNV_OFFSET;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// FNV-1a over a slice of `u64` words (little-endian byte order).
pub fn fnv1a_u64s(words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Deterministic stream of "random" xor constants used to derive the `k`
/// MinHash functions from one FNV-1a hash (SplitMix64 over a fixed seed).
pub fn xor_constants(k: usize) -> Vec<u64> {
    let mut state = 0x5851_F42D_4C95_7F2Du64;
    (0..k)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn word_hashing_matches_byte_hashing() {
        let words = [0x0403_0201u32, 0x0807_0605];
        let bytes = [1u8, 2, 3, 4, 5, 6, 7, 8];
        assert_eq!(fnv1a_u32s(&words), fnv1a(&bytes));
        let w64 = [0x0807_0605_0403_0201u64];
        assert_eq!(fnv1a_u64s(&w64), fnv1a(&bytes));
    }

    #[test]
    fn xor_constants_are_deterministic_and_distinct() {
        let a = xor_constants(200);
        let b = xor_constants(200);
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), 200, "no repeated constants");
    }

    #[test]
    fn prefix_stability() {
        // The first k constants are a prefix of the first k+n.
        let a = xor_constants(10);
        let b = xor_constants(20);
        assert_eq!(&b[..10], &a[..]);
    }
}
