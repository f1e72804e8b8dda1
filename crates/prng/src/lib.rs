//! # f3m-prng — deterministic pseudo-randomness without external crates
//!
//! The workspace builds in fully offline environments, so it cannot pull
//! `rand` from a registry. This crate provides the small slice of the
//! `rand` API the workloads generator and the randomized tests actually
//! use — seeding, ranges, Bernoulli draws — backed by SplitMix64, whose
//! output is fixed forever (the generated benchmark suites are part of the
//! experimental record and must not drift between toolchain updates).
//!
//! The API intentionally mirrors `rand`'s method names (`seed_from_u64`,
//! `gen_range`, `gen_bool`) so call sites read identically.

#![forbid(unsafe_code)]

/// A small, fast, deterministic generator (SplitMix64).
///
/// Not cryptographically secure; statistically solid for workload
/// generation and property-style tests. One draw consumes exactly one
/// state advance, so generation runs stay in lock-step across code paths
/// that draw the same number of times.
#[derive(Clone, Debug)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// Creates a generator from a 64-bit seed (mirrors
    /// `rand::SeedableRng::seed_from_u64`).
    pub fn seed_from_u64(seed: u64) -> SmallRng {
        // Scramble the seed once so small consecutive seeds (0, 1, 2…)
        // do not produce correlated first draws.
        let mut rng = SmallRng { state: seed ^ 0x5851_F42D_4C95_7F2D };
        rng.next_u64();
        rng
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next raw 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Uniform draw from a range, e.g. `rng.gen_range(0..10)`,
    /// `rng.gen_range(-31..=31i64)`, `rng.gen_range(0.1..0.4)`.
    ///
    /// # Panics
    ///
    /// Panics on empty ranges.
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// Ranges [`SmallRng::gen_range`] can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut SmallRng) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SmallRng) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            fn sample(self, rng: &mut SmallRng) -> $t {
                let (lo, hi) = self.into_inner();
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_int_range!(i32, i64, u32, u64, usize, u8);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut SmallRng) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * rng.gen_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let a = rng.gen_range(0..10usize);
            assert!(a < 10);
            let b = rng.gen_range(-31..=31i64);
            assert!((-31..=31).contains(&b));
            let c = rng.gen_range(0.1..0.4f64);
            assert!((0.1..0.4).contains(&c));
            let d = rng.gen_range(5..=5u32);
            assert_eq!(d, 5);
        }
    }

    #[test]
    fn gen_bool_respects_probability_roughly() {
        let mut rng = SmallRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "{hits}");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = SmallRng::seed_from_u64(9);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn integer_ranges_cover_all_values() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut seen = [false; 6];
        for _ in 0..500 {
            seen[rng.gen_range(0..6usize)] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = rng.gen_range(3..3usize);
    }
}
