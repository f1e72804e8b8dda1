//! A fixed walk through memory, timed at both ends of a run so that a
//! slow machine state is visible beside the numbers it produced.
//!
//! What moves on this box, for seconds to minutes at a time, is memory:
//! timed between pass sweeps, the 16 MiB walk below takes 20 ms in a quiet
//! spell and 28 ms or more in a slow one, every product timing follows it
//! (window medians of a pass sweep against the walk: correlation 0.96),
//! and a register-only loop does not notice (0.08) — so the walk, not a
//! spin loop, is the calibration reading.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Entries of the walked table: 16 MiB of `u32`, past a core's L2 and
/// inside the last-level cache it shares with the neighbours.
const ENTRIES: usize = 4 << 20;
/// Dependent loads per pass.
const STEPS: usize = 200_000;
/// A reading is the median of [`PASSES`] passes after one untimed walk
/// round the whole table: a pass over a table that has just been built or
/// has lain idle for seconds reads 9 ms or 25 ms where the settled walk
/// reads 14, whatever the machine is doing.
const WARM: usize = ENTRIES / STEPS + 1;
const PASSES: usize = 5;

/// A random single-cycle permutation and a position in it.
pub struct Walk {
    next: Vec<u32>,
    at: u32,
}

impl Walk {
    pub fn new() -> Walk {
        // Sattolo's shuffle: one cycle through every entry.
        let mut next: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        for i in (1..ENTRIES).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            next.swap(i, (state >> 33) as usize % i);
        }
        Walk { next, at: 0 }
    }

    /// Milliseconds this machine takes, right now, for [`STEPS`] dependent
    /// loads.
    pub fn read_ms(&mut self) -> f64 {
        for _ in 0..WARM {
            self.pass_ms();
        }
        let passes: Vec<f64> = (0..PASSES).map(|_| self.pass_ms()).collect();
        median(&passes)
    }

    fn pass_ms(&mut self) -> f64 {
        let t = Instant::now();
        let mut at = self.at;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        self.at = black_box(at);
        t.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Walk {
    fn default() -> Walk {
        Walk::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_one_cycle_through_every_entry() {
        let walk = Walk::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = walk.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, ENTRIES);
    }
}
