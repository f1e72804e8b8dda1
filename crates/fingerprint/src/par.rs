//! Deterministic data parallelism on scoped threads.
//!
//! The preprocess stage (instruction encoding, fingerprint construction,
//! reference-index scanning) is embarrassingly parallel: every function is
//! independent. [`par_map_indexed`] splits the index range into one
//! contiguous chunk per worker and concatenates the per-chunk results *in
//! chunk order*, so the output is byte-for-byte identical to the
//! sequential map regardless of the worker count — parallelism changes
//! wall-clock time only, never results.

/// Maps `f` over `0..n`, using up to `jobs` scoped worker threads.
///
/// `jobs <= 1` (and tiny inputs) run inline with no thread setup at all,
/// which keeps the default configuration free of any scheduler influence.
/// The result is always `[f(0), f(1), ..., f(n-1)]` in order.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn par_map_indexed<R, F>(n: usize, jobs: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = jobs.clamp(1, n.max(1));
    if workers <= 1 || n < 2 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut out: Vec<R> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|t| {
                let f = &f;
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(n);
                s.spawn(move || (lo..hi).map(f).collect::<Vec<R>>())
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("parallel map worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map_for_any_job_count() {
        let expect: Vec<u64> = (0..97).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for jobs in [0, 1, 2, 3, 7, 16, 200] {
            let got = par_map_indexed(97, jobs, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 8, |i| i * 2), vec![0]);
    }

    #[test]
    fn uneven_chunks_cover_every_index() {
        // 10 items over 4 workers: chunks of 3,3,3,1.
        let got = par_map_indexed(10, 4, |i| i);
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_map_over_borrowed_input() {
        // The preprocess shape: `f` reads a slice shared by every worker.
        let input: Vec<usize> = (0..53).rev().collect();
        let expect: Vec<usize> = input.iter().map(|x| x * 3).collect();
        for jobs in [1, 2, 5, 64] {
            let got = par_map_indexed(53, jobs, |i| input[i] * 3);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panics_propagate() {
        let _ = par_map_indexed(8, 4, |i| {
            assert!(i != 5, "boom");
            i
        });
    }
}
