//! Adaptive parameter selection (Section III-D).
//!
//! Small programs merge cheaply, so missing a profitable pair hurts more
//! than attempting a wasteful one; huge programs are the opposite. The
//! paper therefore scales the similarity threshold `t` with the number of
//! functions `x` (Equation 3) and derives the band count `b` from `t`
//! (Equation 4), keeping `r = 2` and `k = b × r`.

use crate::backend::BackendKind;
use crate::lsh::LshParams;
use crate::minhash::DEFAULT_K;

/// Full parameter set for one run of the merging pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergeParams {
    /// Signature size `k` (slots per function fingerprint).
    pub k: usize,
    /// LSH banding configuration.
    pub lsh: LshParams,
    /// Minimum estimated similarity for a pair to be aligned.
    pub threshold: f64,
    /// Fingerprint family producing the signatures.
    pub backend: BackendKind,
}

impl MergeParams {
    /// The paper's *static* configuration:
    /// `k = 200, r = 2, b = 100, t = 0.0`, bucket cap 100, MinHash.
    pub fn static_default() -> MergeParams {
        MergeParams {
            k: DEFAULT_K,
            lsh: LshParams { rows: 2, bands: DEFAULT_K / 2, bucket_cap: 100 },
            threshold: 0.0,
            backend: BackendKind::MinHash,
        }
    }

    /// The paper's *adaptive* configuration for a program with
    /// `num_functions` functions: threshold from Equation 3, bands from
    /// Equation 4 (exactly 100 for programs under 5000 functions),
    /// `r = 2`, `k = 2b`.
    pub fn adaptive(num_functions: usize) -> MergeParams {
        let threshold = adaptive_threshold(num_functions);
        let bands = if num_functions < 5000 { 100 } else { adaptive_bands(threshold) };
        MergeParams {
            k: 2 * bands,
            lsh: LshParams { rows: 2, bands, bucket_cap: 100 },
            threshold,
            backend: BackendKind::MinHash,
        }
    }

    /// A custom configuration (used by the parameter-sweep benches).
    pub fn custom(k: usize, rows: usize, threshold: f64, bucket_cap: usize) -> MergeParams {
        assert!(rows > 0 && k >= rows, "need at least one band");
        MergeParams {
            k,
            lsh: LshParams { rows, bands: k / rows, bucket_cap },
            threshold,
            backend: BackendKind::MinHash,
        }
    }

    /// The same parameters with a different fingerprint family.
    pub fn with_backend(self, backend: BackendKind) -> MergeParams {
        MergeParams { backend, ..self }
    }
}

/// Equation 3: the adaptive similarity threshold.
///
/// ```text
/// t = 0.05                      if x < 10^3.5
///     (log10(x) - 3.0) / 10     if 10^3.5 <= x <= 10^7
///     0.4                       if x > 10^7
/// ```
pub fn adaptive_threshold(num_functions: usize) -> f64 {
    let x = num_functions.max(1) as f64;
    let log = x.log10();
    if log < 3.5 {
        0.05
    } else if log > 7.0 {
        0.4
    } else {
        (log - 3.0) / 10.0
    }
}

/// Equation 4: bands needed for ≥90% probability of discovering pairs just
/// above the threshold, with `r = 2`:
///
/// ```text
/// b = ceil( log(0.1) / log(1 - (t + 0.1)^2) )
/// ```
pub fn adaptive_bands(threshold: f64) -> usize {
    let s = (threshold + 0.1).min(0.999);
    let denom = (1.0 - s * s).ln();
    ((0.1f64).ln() / denom).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsh::collision_probability;

    #[test]
    fn threshold_endpoints_match_paper() {
        assert_eq!(adaptive_threshold(100), 0.05);
        assert_eq!(adaptive_threshold(3000), 0.05);
        assert!((adaptive_threshold(10_000) - 0.1).abs() < 1e-9);
        assert!((adaptive_threshold(100_000) - 0.2).abs() < 1e-9);
        assert!((adaptive_threshold(1_000_000) - 0.3).abs() < 1e-9);
        assert_eq!(adaptive_threshold(100_000_000), 0.4);
    }

    #[test]
    fn bands_match_paper_examples() {
        // "57 for programs with 10k functions, 25 for 100k, 14 for 1m".
        assert_eq!(adaptive_bands(adaptive_threshold(10_000)), 57);
        assert_eq!(adaptive_bands(adaptive_threshold(100_000)), 25);
        assert_eq!(adaptive_bands(adaptive_threshold(1_000_000)), 14);
    }

    #[test]
    fn small_programs_use_full_bands() {
        let p = MergeParams::adaptive(1000);
        assert_eq!(p.lsh.bands, 100);
        assert_eq!(p.k, 200);
        assert_eq!(p.threshold, 0.05);
    }

    #[test]
    fn adaptive_meets_discovery_guarantee() {
        // By construction: pairs slightly above the threshold are found
        // with >= 90% probability.
        for n in [10_000usize, 50_000, 100_000, 1_000_000] {
            let p = MergeParams::adaptive(n);
            let s = p.threshold + 0.1;
            let prob = collision_probability(s, p.lsh.rows, p.lsh.bands);
            assert!(prob >= 0.9, "n={n}: p={prob}");
        }
    }

    #[test]
    fn static_default_matches_paper() {
        let p = MergeParams::static_default();
        assert_eq!(p.k, 200);
        assert_eq!(p.lsh.rows, 2);
        assert_eq!(p.lsh.bands, 100);
        assert_eq!(p.threshold, 0.0);
        assert_eq!(p.lsh.bucket_cap, 100);
    }

    #[test]
    fn bands_shrink_for_large_programs() {
        let small = MergeParams::adaptive(1_000);
        let large = MergeParams::adaptive(1_000_000);
        assert!(large.lsh.bands < small.lsh.bands);
        assert!(large.k < small.k);
        assert!(large.threshold > small.threshold);
    }

    #[test]
    fn custom_params_divide_k_into_bands() {
        let p = MergeParams::custom(64, 4, 0.2, 50);
        assert_eq!(p.lsh.bands, 16);
        assert_eq!(p.lsh.rows, 4);
        assert_eq!(p.lsh.fingerprint_size(), 64);
    }
}
