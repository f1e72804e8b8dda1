//! Order statistics for the ledger: median, quartiles, and the tail
//! percentile a sample is large enough to support.

/// Percentiles a summary may report as its tail, ascending.
const TAIL_CANDIDATES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// A tail percentile is only reported with this many samples beyond it.
const MIN_BEYOND: f64 = 10.0;

/// Summary of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it; `None` under twenty samples.
    pub tail: Option<(f64, f64)>,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "statistics of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

fn median_sorted(v: &[f64]) -> f64 {
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (exclusive method), which is what the
/// acceptance check computes; a single sample is its own quartiles.
fn quartiles_sorted(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |i: usize| {
        // 1-based rank i*(n+1)/4; the neighbour pair is clamped to the
        // data but the interpolation weight is not, exactly as Python.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Value at percentile `p` (nearest-rank).
fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs` (mean of the two middle values for even `n`).
pub fn median(xs: &[f64]) -> f64 {
    median_sorted(&sorted(xs))
}

pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    quartiles_sorted(&sorted(xs))
}

pub fn percentile(xs: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(xs), p)
}

/// The highest candidate percentile with at least ten of `n` samples
/// beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|p| n as f64 * (100.0 - p) / 100.0 >= MIN_BEYOND)
}

pub fn summarize(xs: &[f64]) -> Summary {
    let v = sorted(xs);
    let (q1, q3) = quartiles_sorted(&v);
    Summary {
        n: v.len(),
        median: median_sorted(&v),
        q1,
        q3,
        min: v[0],
        max: v[v.len() - 1],
        tail: tail_percentile(v.len()).map(|p| (p, percentile_sorted(&v, p))),
    }
}

/// Interquartile range as a share of the median — the spread the
/// acceptance check bounds.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// The value every repetition must agree on, or the list of distinct
/// values seen when they do not.
pub fn exact_repeat<T: PartialEq + Clone>(reps: &[T]) -> Result<T, Vec<T>> {
    let mut distinct: Vec<T> = Vec::new();
    for r in reps {
        if !distinct.contains(r) {
            distinct.push(r.clone());
        }
    }
    match distinct.len() {
        1 => Ok(distinct.remove(0)),
        _ => Err(distinct),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&ten);
        assert!(
            (q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12,
            "{q1} {q3}"
        );
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
        let (q1, q3) = quartiles(&[64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
        assert_eq!((q1, q3), (2.0, 32.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((q1, q3), (1.5, 4.5));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(7), None);
        assert_eq!(tail_percentile(18), None);
        assert_eq!(tail_percentile(36), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(60), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }

    #[test]
    fn summary_reports_the_supported_tail() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.n, s.median, s.min, s.max), (40, 20.5, 1.0, 40.0));
        assert_eq!(s.tail, Some((75.0, 30.0)));
        assert_eq!(summarize(&[1.0, 2.0, 3.0]).tail, None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn exact_repeat_detects_a_single_deviation() {
        assert_eq!(exact_repeat(&[7u64, 7, 7]), Ok(7));
        assert_eq!(exact_repeat(&[7u64, 7, 8, 7]), Err(vec![7, 8]));
        assert_eq!(exact_repeat(&[(1u64, 2u64), (1, 2)]), Ok((1, 2)));
    }
}
