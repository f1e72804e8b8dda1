//! A run's metrics: the table a person reads, the detail file, and the
//! one-line result the acceptance driver reads.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::stats::{summarize, Summary};
use crate::tally::Tally;

/// Which of a metric's samples is the run's reading.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Read {
    /// End-to-end times, whose samples all repeat the same work:
    /// interference on a shared machine only ever adds time, so the
    /// fastest sample is the reading that repeats from run to run (README,
    /// *Why the fastest sample*).
    Fastest,
    /// The same for an end-to-end rate.
    Highest,
    /// Per-layer samples, which differ in the work they do (one per
    /// module, pair or request).
    Median,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// The run's reading.
    pub value: f64,
    pub summary: Summary,
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    /// `e2e` or `layers`: names the detail file.
    pub kind: &'static str,
    pub metrics: Vec<Metric>,
    pub tally: Tally,
}

/// Shortest decimal that reads back as exactly `x`: every digit measured.
fn num(x: f64) -> String {
    format!("{x}")
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, kind: &'static str) -> Report {
        Report {
            workload,
            seed,
            kind,
            metrics: Vec::new(),
            tally: Tally::default(),
        }
    }

    /// A metric with several samples per run, read as `read` says; n,
    /// median, quartiles and tail are printed beside the reading. No
    /// samples, or a sample that is not a finite number, fails the run.
    pub fn samples(&mut self, name: &str, unit: &'static str, read: Read, samples: &[f64]) {
        let usable = !samples.is_empty() && samples.iter().all(|x| x.is_finite());
        if self.tally.check(usable, || {
            format!("{name}: no usable samples ({samples:?})")
        }) {
            let summary = summarize(samples);
            let value = match read {
                Read::Fastest => summary.min,
                Read::Highest => summary.max,
                Read::Median => summary.median,
            };
            self.metrics.push(Metric {
                name: name.to_string(),
                unit,
                value,
                summary,
            });
        }
    }

    /// A metric that is one reading per run.
    pub fn value(&mut self, name: &str, unit: &'static str, x: f64) {
        self.samples(name, unit, Read::Median, &[x]);
    }

    pub fn table(&self) -> String {
        let mut out = format!(
            "workload {} seed {} ({})\n{:<44} {:>6} {:>5} {:>14} {:>14} {:>14} {:>14}  tail\n",
            self.workload,
            self.seed,
            self.kind,
            "metric",
            "unit",
            "n",
            "reading",
            "median",
            "q1",
            "q3"
        );
        for m in &self.metrics {
            let s = &m.summary;
            let tail = s
                .tail
                .map(|(p, v)| format!("p{p}={v:.4}"))
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{:<44} {:>6} {:>5} {:>14.4} {:>14.4} {:>14.4} {:>14.4}  {tail}\n",
                m.name, m.unit, s.n, m.value, s.median, s.q1, s.q3
            ));
        }
        out.push_str(&format!(
            "operations: {} attempted, {} failed\n",
            self.tally.attempted, self.tally.failed
        ));
        for r in &self.tally.reasons {
            out.push_str(&format!("FAILED: {r}\n"));
        }
        out
    }

    /// The acceptance contract's result object.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }

    fn detail_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let s = &m.summary;
                let tail = match s.tail {
                    Some((p, v)) => {
                        format!("{{\"percentile\": {}, \"value\": {}}}", num(p), num(v))
                    }
                    None => "null".to_string(),
                };
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"n\": {}, \"value\": {}, \"median\": {}, \
                     \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"tail\": {tail}}}",
                    m.name,
                    m.unit,
                    s.n,
                    num(m.value),
                    num(s.median),
                    num(s.q1),
                    num(s.q3),
                    num(s.min),
                    num(s.max)
                )
            })
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\", \"seed\": {}, \"kind\": \"{}\",\n  \
             \"attempted\": {}, \"failed\": {},\n  \"metrics\": [\n{}\n  ]\n}}\n",
            self.workload,
            self.seed,
            self.kind,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(",\n")
        )
    }

    /// Prints the table, writes `target/ledger/<workload>.<kind>.json`,
    /// prints the result line last, and turns failures into the exit code.
    pub fn finish(self) -> ExitCode {
        print!("{}", self.table());
        let path = PathBuf::from(format!(
            "target/ledger/{}.{}.json",
            self.workload, self.kind
        ));
        let written = std::fs::create_dir_all("target/ledger")
            .and_then(|()| std::fs::write(&path, self.detail_json()));
        if let Err(e) = written {
            eprintln!("ledger: could not write {}: {e}", path.display());
        }
        println!("{}", self.result_line());
        if self.tally.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contracts_keys_and_full_digits() {
        let mut r = Report::new("small", 1, "e2e");
        r.samples(
            "pass_wall_s",
            "s",
            Read::Fastest,
            &[1.25, 1.203_456_789_012, 1.5],
        );
        r.value("pass_rss_mb", "MB", 181.5);
        r.tally.check(true, String::new);
        assert_eq!(
            r.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"pass_wall_s\": {\"value\": 1.203456789012, \"unit\": \"s\"}, \
             \"pass_rss_mb\": {\"value\": 181.5, \"unit\": \"MB\"}}}"
        );
        let parsed = crate::api::parse(r.result_line().as_bytes()).unwrap();
        assert_eq!(
            parsed.get("attempted").and_then(crate::api::Json::as_u64),
            Some(3)
        );
        crate::api::parse(r.detail_json().as_bytes()).unwrap();
    }

    #[test]
    fn a_metric_without_samples_fails_the_run() {
        let mut r = Report::new("large", 1, "e2e");
        r.samples("restart_s", "s", Read::Fastest, &[]);
        r.value("update_ms", "ms", f64::NAN);
        assert_eq!((r.tally.failed, r.metrics.len()), (2, 0));
        assert!(r.result_line().starts_with("{\"correct\": false"));
    }
}
