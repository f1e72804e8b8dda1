//! Metric snapshots on disk: the flat-JSON dump format, a minimal parser
//! for it, and the tolerance-band comparison behind the perf-regression
//! gate.
//!
//! The dump format is one object per metric, in registration order:
//!
//! ```json
//! {"schema":"f3m-metrics-v1","metrics":[
//!   {"name":"pass.fingerprint_comparisons","kind":"counter",
//!    "unit":"comparisons","deterministic":true,"value":1234},
//!   {"name":"pass.lsh_bucket_occupancy","kind":"histogram",
//!    "unit":"functions","deterministic":true,
//!    "bounds":[1,2,4],"counts":[5,3,2,1],"count":11,"sum":37}
//! ]}
//! ```
//!
//! [`parse_metrics`] reads the dump back through the shared
//! [`crate::json`] reader (no dependencies), accepting any whitespace
//! layout so hand-edited baselines stay parseable.

use crate::json::{self, fmt_f64, Json, Writer};
use crate::metrics::{MetricKind, MetricSnapshot};

/// Schema tag embedded in every dump.
pub const SCHEMA: &str = "f3m-metrics-v1";

/// Renders snapshots as the flat-JSON dump (see module docs).
pub fn render_metrics(snaps: &[MetricSnapshot]) -> String {
    let mut w = Writer::with_capacity(64 + snaps.len() * 96);
    w.begin_object().key("schema").str(SCHEMA).key("metrics").begin_array();
    for s in snaps {
        w.indent(1).begin_object().key("name").str(&s.name).key("kind").str(s.kind.as_str());
        w.key("unit").str(&s.unit).key("deterministic").bool(s.deterministic);
        match &s.histogram {
            None => w.key("value").f64(s.value),
            Some((bounds, counts, count)) => {
                for (key, xs) in [("bounds", bounds), ("counts", counts)] {
                    w.key(key).begin_array();
                    for &x in xs {
                        w.u64(x);
                    }
                    w.end_array();
                }
                w.key("count").u64(*count).key("sum").u64(s.value as u64)
            }
        };
        w.end_object();
    }
    w.indent(0).end_array().end_object();
    w.finish() + "\n"
}

/// Parses a flat-JSON metrics dump back into snapshots.
///
/// # Errors
///
/// Returns a message describing the first syntax or schema problem.
pub fn parse_metrics(dump: &str) -> Result<Vec<MetricSnapshot>, String> {
    let root = json::parse(dump)?;
    let schema = root
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema` field")?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema `{schema}` (want `{SCHEMA}`)"));
    }
    let metrics = match root.get("metrics") {
        Some(Json::Array(items)) => items,
        _ => return Err("missing `metrics` array".to_string()),
    };
    metrics
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or(format!("metric {i}: missing name"))?
                .to_string();
            let kind = match m.get("kind").and_then(Json::as_str) {
                Some("counter") => MetricKind::Counter,
                Some("gauge") => MetricKind::Gauge,
                Some("histogram") => MetricKind::Histogram,
                other => return Err(format!("metric `{name}`: bad kind {other:?}")),
            };
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            let deterministic =
                m.get("deterministic").and_then(Json::as_bool).unwrap_or(false);
            let (value, histogram) = if kind == MetricKind::Histogram {
                let bounds = m
                    .get("bounds")
                    .and_then(Json::as_u64_array)
                    .ok_or(format!("metric `{name}`: missing bounds"))?;
                let counts = m
                    .get("counts")
                    .and_then(Json::as_u64_array)
                    .ok_or(format!("metric `{name}`: missing counts"))?;
                let count = m.get("count").and_then(Json::as_f64).unwrap_or(0.0) as u64;
                let sum = m.get("sum").and_then(Json::as_f64).unwrap_or(0.0);
                (sum, Some((bounds, counts, count)))
            } else {
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("metric `{name}`: missing value"))?;
                (v, None)
            };
            Ok(MetricSnapshot { name, kind, unit, deterministic, value, histogram })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Tolerance-band comparison.

/// Allowed drift for one metric: the larger of a relative band around the
/// baseline value and an absolute slack (so tiny baselines aren't pinned
/// to exact equality by a relative band alone).
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    /// Relative band (`0.10` = ±10 % of the baseline value).
    pub rel: f64,
    /// Absolute slack in metric units.
    pub abs: f64,
}

impl Tolerance {
    /// Exact equality.
    pub fn exact() -> Tolerance {
        Tolerance { rel: 0.0, abs: 0.0 }
    }

    /// Whether `current` is within band of `baseline`.
    pub fn allows(&self, baseline: f64, current: f64) -> bool {
        let band = (baseline.abs() * self.rel).max(self.abs);
        (current - baseline).abs() <= band + 1e-9
    }
}

/// Compares the *deterministic* metrics of `current` against `baseline`,
/// returning one human-readable violation per out-of-band, missing or new
/// metric (empty = gate passes). `tol_for` maps a metric name to its band.
///
/// Histograms compare their observation count and sum; the bucket vector
/// is checked for shape (bounds must match exactly — changing bucket
/// layout is a schema change that warrants a baseline refresh).
pub fn compare(
    current: &[MetricSnapshot],
    baseline: &[MetricSnapshot],
    tol_for: impl Fn(&str) -> Tolerance,
) -> Vec<String> {
    let mut violations = Vec::new();
    for cur in current.iter().filter(|s| s.deterministic) {
        let Some(base) = baseline.iter().find(|b| b.name == cur.name) else {
            violations.push(format!(
                "`{}`: not in baseline (new metric? refresh with F3M_UPDATE_BASELINE=1)",
                cur.name
            ));
            continue;
        };
        let tol = tol_for(&cur.name);
        if !tol.allows(base.value, cur.value) {
            violations.push(format!(
                "`{}`: {} drifted from baseline {} (tolerance ±max({}%, {}))",
                cur.name,
                fmt_f64(cur.value),
                fmt_f64(base.value),
                tol.rel * 100.0,
                fmt_f64(tol.abs),
            ));
        }
        if let (Some((cb, _, ccount)), Some((bb, _, bcount))) =
            (&cur.histogram, &base.histogram)
        {
            if cb != bb {
                violations.push(format!(
                    "`{}`: histogram bounds changed {bb:?} -> {cb:?} (refresh baseline)",
                    cur.name
                ));
            } else if !tol.allows(*bcount as f64, *ccount as f64) {
                violations.push(format!(
                    "`{}`: observation count {ccount} drifted from baseline {bcount}",
                    cur.name
                ));
            }
        }
    }
    for base in baseline.iter().filter(|s| s.deterministic) {
        if !current.iter().any(|c| c.name == base.name) {
            violations.push(format!(
                "`{}`: in baseline but not measured (metric removed? refresh with \
                 F3M_UPDATE_BASELINE=1)",
                base.name
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let c = reg.counter("pass.comparisons", "comparisons", true);
        reg.set(c, 1234);
        let g = reg.gauge("pass.size_reduction", "fraction", true);
        reg.set_gauge(g, 0.25);
        let t = reg.counter("pass.total_ns", "ns", false);
        reg.set(t, 987654);
        let h = reg.histogram("lsh.occupancy", "functions", true, &[1, 2, 4]);
        reg.observe_many(h, [1, 2, 3, 9]);
        reg
    }

    #[test]
    fn render_parse_round_trip() {
        let reg = sample_registry();
        let json = reg.to_json();
        let parsed = parse_metrics(&json).unwrap();
        assert_eq!(parsed, reg.snapshots());
    }

    #[test]
    fn parse_accepts_reformatted_json() {
        let json = r#"
        { "schema" : "f3m-metrics-v1",
          "metrics" : [
            { "name" : "a.b", "kind" : "counter", "unit" : "n",
              "deterministic" : true, "value" : 7 }
          ] }
        "#;
        let parsed = parse_metrics(json).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].value, 7.0);
        assert!(parsed[0].deterministic);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        assert!(parse_metrics("{\"schema\":\"v999\",\"metrics\":[]}")
            .unwrap_err()
            .contains("unsupported schema"));
        assert!(parse_metrics("not json").is_err());
    }

    #[test]
    fn compare_passes_identical_snapshots() {
        let snaps = sample_registry().snapshots();
        assert!(compare(&snaps, &snaps, |_| Tolerance::exact()).is_empty());
    }

    #[test]
    fn compare_flags_drift_beyond_band_only() {
        let base = sample_registry().snapshots();
        // Rebuild with a 5 % drift on the counter.
        let mut cur = base.clone();
        cur[0].value = 1234.0 * 1.05;
        let within = compare(&cur, &base, |_| Tolerance { rel: 0.10, abs: 0.0 });
        assert!(within.is_empty(), "{within:?}");
        let beyond = compare(&cur, &base, |_| Tolerance { rel: 0.01, abs: 0.0 });
        assert_eq!(beyond.len(), 1);
        assert!(beyond[0].contains("pass.comparisons"), "{beyond:?}");
    }

    #[test]
    fn compare_ignores_wall_clock_metrics() {
        let base = sample_registry().snapshots();
        let mut cur = base.clone();
        let ns = cur.iter_mut().find(|s| s.name == "pass.total_ns").unwrap();
        ns.value *= 50.0;
        assert!(compare(&cur, &base, |_| Tolerance::exact()).is_empty());
    }

    #[test]
    fn compare_flags_missing_and_new_metrics() {
        let base = sample_registry().snapshots();
        let mut cur = base.clone();
        cur[0].name = "pass.renamed".to_string();
        let v = compare(&cur, &base, |_| Tolerance::exact());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|m| m.contains("not in baseline")));
        assert!(v.iter().any(|m| m.contains("not measured")));
    }

    #[test]
    fn compare_flags_histogram_shape_changes() {
        let base = sample_registry().snapshots();
        let mut cur = base.clone();
        let slot = cur.iter_mut().find(|s| s.name == "lsh.occupancy").unwrap();
        slot.histogram = Some((vec![1, 2, 8], vec![2, 1, 1, 0], 4));
        let v = compare(&cur, &base, |_| Tolerance { rel: 0.5, abs: 10.0 });
        assert!(v.iter().any(|m| m.contains("bounds changed")), "{v:?}");
    }

    #[test]
    fn tolerance_absolute_slack_dominates_small_baselines() {
        let t = Tolerance { rel: 0.10, abs: 2.0 };
        assert!(t.allows(3.0, 5.0), "abs slack of 2 covers 3 -> 5");
        assert!(!t.allows(3.0, 6.0));
        assert!(Tolerance::exact().allows(7.0, 7.0));
        assert!(!Tolerance::exact().allows(7.0, 8.0));
    }
}
