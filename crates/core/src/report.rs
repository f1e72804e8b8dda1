//! Pass reporting: per-stage timing, aggregate statistics and the per-pair
//! attempt log, plus a machine-readable JSON rendering.
//!
//! The stage split (*preprocess* / *rank* / *align* / *codegen*, each with
//! success and fail buckets) mirrors the paper's Figures 3 and 13, and the
//! figure-reproduction binaries in `f3m-bench` consume these fields
//! directly — their semantics are part of the crate's stable surface.
//! Every strategy populates them identically through the
//! [`CandidateSearch`](crate::rank::CandidateSearch) seam.

use std::time::Duration;

use f3m_ir::ids::FuncId;
use f3m_trace::json::Writer;
use f3m_trace::stats::{self, Stat, Value, Value::*};
use f3m_trace::MetricsRegistry;

/// Wall-clock cost of a pipeline stage, split by eventual outcome.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTime {
    /// Time attributed to attempts that ended in a committed merge.
    pub success: Duration,
    /// Time attributed to attempts that did not.
    pub fail: Duration,
}

impl StageTime {
    /// Total time in the stage.
    pub fn total(&self) -> Duration {
        self.success + self.fail
    }
}

/// Aggregate statistics of one pass run.
#[derive(Clone, Debug, Default)]
pub struct MergeStats {
    /// Function definitions considered.
    pub functions: usize,
    /// Candidate pairs for which alignment was attempted.
    pub pairs_attempted: usize,
    /// Merges committed (pairs replaced by thunks + merged function).
    pub merges_committed: usize,
    /// Preprocess time: fingerprinting every eligible function and
    /// building the candidate search over them, plus
    /// [`Committer::build`](crate::commit::Committer::build)'s scan of
    /// every function body for the reference index.
    pub preprocess: Duration,
    /// Candidate search time.
    pub rank: StageTime,
    /// Block pairing / alignment time.
    pub align: StageTime,
    /// Merged-function generation, verification and profitability time.
    pub codegen: StageTime,
    /// Kept for the benchmark ledger, which reads it; not reported: always
    /// 1, the one merge loop.
    pub waves: u64,
    /// Kept for the benchmark ledger, which reads it; not reported: the
    /// alignments run, each of which reaches an attempt (`pairs_attempted`).
    pub aligns_speculative: u64,
    /// Kept for the benchmark ledger, which reads it; not reported: always
    /// 0, no alignment is discarded.
    pub aligns_wasted: u64,
    /// Similarity questions asked: one per distinct candidate a ranking
    /// query had to decide, however the ranking kernel answered it.
    pub fingerprint_comparisons: u64,
    /// Of those, candidates whose low-byte sketch was compared (zero for
    /// the exhaustive baseline).
    pub sketch_comparisons: u64,
    /// Of those, candidates whose full signature was compared (zero for
    /// the exhaustive baseline, whose fingerprints are not signatures).
    pub full_comparisons: u64,
    /// Search-structure entries examined across all queries: bucket
    /// entries for LSH (what the paper's bucket cap bounds), scan length
    /// for the exhaustive baseline.
    pub candidates_examined: u64,
    /// Distinct candidates the search structure returned across all
    /// queries, before availability/threshold filtering.
    pub candidates_returned: u64,
    /// Bucket entries skipped by the LSH bucket cap across all queries
    /// (zero for the exhaustive baseline).
    pub bucket_evictions: u64,
    /// Cross-band duplicate bucket hits across all LSH probes: an entry
    /// examined again in a later band of the same query (zero for the
    /// exhaustive baseline). High collision counts mean the band keys are
    /// redundant for the corpus — a backend-quality signal.
    pub probe_collisions: u64,
    /// Alignment work: DP cells computed plus linear-alignment positions
    /// advanced, summed over every alignment of the pass. A pure function
    /// of which pairs were aligned, so deterministic and job-count
    /// independent.
    pub align_cells: u64,
    /// Commits rejected because the code generator could not build the
    /// merged body.
    pub commits_rejected_build: u64,
    /// Commits rejected because the merged body failed verification.
    pub commits_rejected_verify: u64,
    /// Commits rejected by the size-profitability gate.
    pub commits_rejected_size: u64,
    /// Of those, pairs the merged-size lower bound proved too big before
    /// any code was generated for them.
    pub commits_bounded: u64,
    /// Non-empty LSH buckets right after the index build (zero for the
    /// exhaustive baseline).
    pub lsh_buckets: u64,
    /// Population of the fullest LSH bucket right after the index build.
    pub lsh_max_bucket: u64,
    /// Bytes of packed struct-of-arrays fingerprint storage per indexed
    /// function (signature, band-key and sketch pools; zero for the
    /// exhaustive baseline). A pure function of the search parameters.
    pub soa_bytes_per_fn: u64,
    /// Estimated module text size before the pass.
    pub size_before: u64,
    /// Estimated module text size after the pass.
    pub size_after: u64,
}

fn stage(t: &StageTime) -> Value {
    Stage { success_ns: t.success.as_nanos() as u64, fail_ns: t.fail.as_nanos() as u64 }
}

/// Every statistic, in `stats` object order: the one place a
/// counter is named besides its field. Work counts are deterministic (they
/// gate in the perf-regression test); wall-clock readings are not.
const MERGE_STATS: &[Stat<MergeStats>] = &[
    Stat::det("functions", "functions", |s| Count(s.functions as u64)),
    Stat::det("pairs_attempted", "pairs", |s| Count(s.pairs_attempted as u64)),
    Stat::det("merges_committed", "merges", |s| Count(s.merges_committed as u64)),
    Stat::wall("preprocess_ns", "ns", |s| Count(s.preprocess.as_nanos() as u64)),
    Stat::wall("rank", "ns", |s| stage(&s.rank)),
    Stat::wall("align", "ns", |s| stage(&s.align)),
    Stat::wall("codegen", "ns", |s| stage(&s.codegen)),
    Stat::wall("total_ns", "ns", |s| Count(s.total_time().as_nanos() as u64)),
    Stat::det("fingerprint_comparisons", "comparisons", |s| Count(s.fingerprint_comparisons)),
    Stat::det("sketch_comparisons", "comparisons", |s| Count(s.sketch_comparisons)),
    Stat::det("full_comparisons", "comparisons", |s| Count(s.full_comparisons)),
    Stat::det("candidates_examined", "entries", |s| Count(s.candidates_examined)),
    Stat::det("candidates_returned", "candidates", |s| Count(s.candidates_returned)),
    Stat::det("bucket_evictions", "entries", |s| Count(s.bucket_evictions)),
    Stat::det("probe_collisions", "entries", |s| Count(s.probe_collisions)),
    Stat::det("align_cells", "cells", |s| Count(s.align_cells)),
    Stat::det("commits_rejected_build", "commits", |s| Count(s.commits_rejected_build)),
    Stat::det("commits_rejected_verify", "commits", |s| Count(s.commits_rejected_verify)),
    Stat::det("commits_rejected_size", "commits", |s| Count(s.commits_rejected_size)),
    Stat::det("commits_bounded", "commits", |s| Count(s.commits_bounded)),
    Stat::det("lsh_buckets", "buckets", |s| Count(s.lsh_buckets)),
    Stat::det("lsh_max_bucket", "functions", |s| Count(s.lsh_max_bucket)),
    Stat::det("soa_bytes_per_fn", "bytes", |s| Count(s.soa_bytes_per_fn)),
    Stat::det("size_before", "size-units", |s| Count(s.size_before)),
    Stat::det("size_after", "size-units", |s| Count(s.size_after)),
    Stat::det("size_reduction", "fraction", |s| Real(s.size_reduction())),
];

/// The exact key set of the `stats` object of [`MergeReport::to_json`],
/// in emission order. Downstream consumers (bench figure scripts, the
/// regression gate) may rely on exactly these keys being present.
pub const STATS_JSON_KEYS: &[&str] = &stats::keys::<_, { MERGE_STATS.len() }>(MERGE_STATS);

impl MergeStats {
    /// Total time spent in the merging pass.
    pub fn total_time(&self) -> Duration {
        self.preprocess + self.rank.total() + self.align.total() + self.codegen.total()
    }

    /// Code-size reduction as a fraction of the original size
    /// (positive = smaller module).
    pub fn size_reduction(&self) -> f64 {
        if self.size_before == 0 {
            return 0.0;
        }
        1.0 - self.size_after as f64 / self.size_before as f64
    }

    /// Registers and populates every statistic as a metric under
    /// `<prefix>.`: the work counts first, then the wall-clock readings
    /// (stages as `<stage>_success_ns` / `<stage>_fail_ns`).
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        stats::export(reg, prefix, MERGE_STATS, self);
    }
}

/// One ranked candidate pair and what happened to it.
#[derive(Clone, Debug)]
pub struct AttemptRecord {
    /// The candidate function.
    pub f1: FuncId,
    /// Its selected nearest neighbour.
    pub f2: FuncId,
    /// Fingerprint similarity under the active strategy's metric
    /// (normalized opcode similarity for HyFM, estimated Jaccard for F3M).
    pub similarity: f64,
    /// Fraction of instructions matched by the block-level alignment.
    pub align_ratio: f64,
    /// Whether the merge was size-profitable and committed.
    pub committed: bool,
    /// `size_before - size_after` for this pair (positive = savings);
    /// meaningful only when committed.
    pub size_delta: i64,
    /// Wall-clock spent on this pair after ranking (align + codegen).
    pub time: Duration,
}

/// Full report of a pass run.
#[derive(Clone, Debug, Default)]
pub struct MergeReport {
    /// Aggregate statistics.
    pub stats: MergeStats,
    /// Per-pair attempt log, in processing order.
    pub attempts: Vec<AttemptRecord>,
    /// Sizes of the non-empty LSH buckets right after the index build,
    /// ascending (empty for the exhaustive baseline). Feeds the bucket
    /// occupancy histogram in [`MergeReport::export_metrics`]; kept out of
    /// [`MergeStats`] so the stats stay a flat counter record.
    pub lsh_bucket_sizes: Vec<usize>,
}

/// Inclusive upper bounds of the LSH bucket-occupancy histogram exported
/// by [`MergeReport::export_metrics`] (one overflow bucket follows).
pub const LSH_OCCUPANCY_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128];

impl MergeReport {
    /// Registers and populates all metrics of this report under
    /// `<prefix>.`: every [`MergeStats`] field plus the LSH bucket
    /// occupancy histogram.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        self.stats.export_metrics(reg, prefix);
        let h = reg.histogram(
            &format!("{prefix}.lsh_bucket_occupancy"),
            "functions",
            true,
            LSH_OCCUPANCY_BOUNDS,
        );
        reg.observe_many(h, self.lsh_bucket_sizes.iter().map(|&s| s as u64));
    }
    /// Renders the report as a JSON object (two keys: `stats` and
    /// `attempts`). Durations are reported in nanoseconds as integers;
    /// floats use shortest-roundtrip formatting.
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(1024 + self.attempts.len() * 128);
        stats::write_object(w.begin_object().key("stats"), MERGE_STATS, &self.stats);
        w.key("attempts").begin_array();
        for a in &self.attempts {
            w.begin_object().key("f1").raw(a.f1.index()).key("f2").raw(a.f2.index());
            w.key("similarity").f64(a.similarity).key("align_ratio").f64(a.align_ratio);
            w.key("committed").bool(a.committed).key("size_delta").raw(a.size_delta);
            w.key("time_ns").u64(a.time.as_nanos() as u64).end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_has_expected_keys_and_balanced_braces() {
        let mut report = MergeReport::default();
        report.stats.functions = 3;
        report.stats.merges_committed = 1;
        report.stats.preprocess = Duration::from_nanos(1500);
        report.attempts.push(AttemptRecord {
            f1: FuncId::from_index(0),
            f2: FuncId::from_index(2),
            similarity: 0.75,
            align_ratio: 0.5,
            committed: true,
            size_delta: 42,
            time: Duration::from_nanos(900),
        });
        report.stats.align_cells = 10;
        let j = report.to_json();
        for key in [
            "\"stats\"",
            "\"functions\":3",
            "\"merges_committed\":1",
            "\"preprocess_ns\":1500",
            "\"candidates_examined\"",
            "\"candidates_returned\"",
            "\"align_cells\":10",
            "\"attempts\"",
            "\"f1\":0",
            "\"f2\":2",
            "\"similarity\":0.75",
            "\"committed\":true",
            "\"size_delta\":42",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    /// The documented key set, spelled out: a row added to (or dropped
    /// from) the table must show up here as a deliberate edit.
    const GOLDEN_KEYS: [&str; 26] = [
        "functions",
        "pairs_attempted",
        "merges_committed",
        "preprocess_ns",
        "rank",
        "align",
        "codegen",
        "total_ns",
        "fingerprint_comparisons",
        "sketch_comparisons",
        "full_comparisons",
        "candidates_examined",
        "candidates_returned",
        "bucket_evictions",
        "probe_collisions",
        "align_cells",
        "commits_rejected_build",
        "commits_rejected_verify",
        "commits_rejected_size",
        "commits_bounded",
        "lsh_buckets",
        "lsh_max_bucket",
        "soa_bytes_per_fn",
        "size_before",
        "size_after",
        "size_reduction",
    ];

    /// The keys of the `stats` object a report over `stats` renders.
    fn stats_keys(stats: MergeStats) -> Vec<String> {
        let report = MergeReport { stats, ..Default::default() }.to_json();
        match f3m_trace::json::parse(&report).unwrap().get("stats") {
            Some(f3m_trace::Json::Object(fields)) => {
                fields.iter().map(|(k, _)| k.clone()).collect()
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn stats_json_emits_exactly_the_documented_key_set() {
        assert_eq!(STATS_JSON_KEYS, GOLDEN_KEYS);
        assert_eq!(stats_keys(MergeStats::default()), GOLDEN_KEYS);
        // Populated stats must not grow or reorder keys either, and the
        // fields kept for the ledger stay out of the report.
        let mut s = MergeStats { functions: 9, waves: 1, ..Default::default() };
        s.aligns_speculative = 4;
        s.size_before = 100;
        s.size_after = 80;
        assert_eq!(stats_keys(s), GOLDEN_KEYS);
    }

    #[test]
    fn export_metrics_mirrors_stats_and_tags_wall_clock_nondeterministic() {
        let mut report = MergeReport::default();
        report.stats.fingerprint_comparisons = 77;
        report.stats.preprocess = Duration::from_nanos(123);
        report.lsh_bucket_sizes = vec![1, 1, 3, 200];
        let mut reg = MetricsRegistry::new();
        report.export_metrics(&mut reg, "pass");
        let snaps = reg.snapshots();
        let get = |name: &str| {
            snaps
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        assert_eq!(get("pass.fingerprint_comparisons").value, 77.0);
        assert!(get("pass.fingerprint_comparisons").deterministic);
        assert_eq!(get("pass.preprocess_ns").value, 123.0);
        assert!(
            !get("pass.preprocess_ns").deterministic,
            "wall-clock metrics must not participate in the regression gate"
        );
        let (bounds, counts, count) =
            get("pass.lsh_bucket_occupancy").histogram.clone().unwrap();
        assert_eq!(bounds, LSH_OCCUPANCY_BOUNDS);
        assert_eq!(count, 4);
        assert_eq!(*counts.last().unwrap(), 1, "bucket of 200 lands in overflow");
        // The metric names come out of the same table as the JSON keys:
        // work counts in key order, then the wall-clock readings with each
        // stage split by outcome, then the report's histogram.
        let (mut expected, mut wall) = (Vec::new(), Vec::new());
        for key in GOLDEN_KEYS {
            if ["rank", "align", "codegen"].contains(&key) {
                wall.extend([format!("pass.{key}_success_ns"), format!("pass.{key}_fail_ns")]);
            } else if key.ends_with("_ns") {
                wall.push(format!("pass.{key}"));
            } else {
                expected.push(format!("pass.{key}"));
            }
        }
        expected.append(&mut wall);
        expected.push("pass.lsh_bucket_occupancy".to_string());
        assert_eq!(snaps.iter().map(|s| s.name.clone()).collect::<Vec<_>>(), expected);
        assert!(snaps.iter().all(|s| s.deterministic != s.name.ends_with("_ns")));
    }

    #[test]
    fn non_finite_floats_are_sanitized() {
        let mut report = MergeReport::default();
        report.attempts.push(AttemptRecord {
            f1: FuncId::from_index(0),
            f2: FuncId::from_index(1),
            similarity: f64::NAN,
            align_ratio: f64::INFINITY,
            committed: false,
            size_delta: -3,
            time: Duration::ZERO,
        });
        let j = report.to_json();
        assert!(j.contains("\"similarity\":0,\"align_ratio\":0,"), "{j}");
        assert!(j.contains("\"size_delta\":-3"), "{j}");
    }

    #[test]
    fn stage_and_total_time_arithmetic() {
        let mut s = MergeStats {
            preprocess: Duration::from_millis(2),
            rank: StageTime { success: Duration::from_millis(3), fail: Duration::from_millis(1) },
            ..Default::default()
        };
        assert_eq!(s.rank.total(), Duration::from_millis(4));
        assert_eq!(s.total_time(), Duration::from_millis(6));
        s.size_before = 200;
        s.size_after = 150;
        assert!((s.size_reduction() - 0.25).abs() < 1e-12);
    }
}
