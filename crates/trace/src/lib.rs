//! # f3m-trace — pipeline observability with zero dependencies
//!
//! Three small, composable layers:
//!
//! - [`clock`]: a monotonic [`Clock`](clock::Clock) trait with a real
//!   implementation ([`MonotonicClock`](clock::MonotonicClock)) and a
//!   manually-advanced [`FakeClock`](clock::FakeClock) so span timing is
//!   testable without sleeping,
//! - [`tracer`]: a thread-safe structured-event collector ([`Tracer`])
//!   recording complete spans, instants and counter samples, exported as
//!   Chrome `trace_event` JSON (loadable in `chrome://tracing` /
//!   [Perfetto](https://ui.perfetto.dev)),
//! - [`metrics`]: a typed [`MetricsRegistry`] (counters, gauges,
//!   histograms) with **fixed registration order**, so its flat-JSON dump
//!   is deterministic and diffable,
//! - [`baseline`]: (de)serialization and tolerance-band comparison of
//!   metric snapshots — the machinery behind `tests/regression_gate.rs`
//!   and the checked-in `results/BASELINE_metrics.json`,
//! - [`json`]: the shared minimal JSON reader and the one streaming
//!   [`json::Writer`] every renderer in the workspace writes through,
//! - [`stats`]: counter tables — a stats struct declares each counter
//!   once and derives its JSON, its metrics and its key list from that.
//!
//! The crate deliberately depends on nothing (not even `f3m-ir`): every
//! other crate in the workspace can instrument itself against it.
//!
//! # Example
//!
//! ```
//! use f3m_trace::clock::FakeClock;
//! use f3m_trace::Tracer;
//! use std::sync::Arc;
//!
//! let clock = Arc::new(FakeClock::new());
//! let tracer = Tracer::with_clock(clock.clone());
//! {
//!     let _span = tracer.span("pass", "rank");
//!     clock.advance(1_500); // ns
//! }
//! let events = tracer.events();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].name, "rank");
//! assert_eq!(events[0].dur_ns(), Some(1_500));
//! assert!(tracer.to_chrome_json().contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]

pub mod baseline;
pub mod clock;
pub mod json;
pub mod metrics;
pub mod stats;
pub mod tracer;

pub use baseline::{compare, parse_metrics, render_metrics, Tolerance};
pub use json::Json;
pub use clock::{Clock, FakeClock, MonotonicClock};
pub use metrics::{
    CounterId, GaugeId, HistogramId, MetricKind, MetricSnapshot, MetricsRegistry,
};
pub use tracer::{span_on, EventKind, SpanGuard, TraceEvent, Tracer};

use std::io;
use std::path::Path;

/// Writes `contents` to `path`, creating the parent directory chain first.
///
/// Every artefact writer in the workspace (trace/metrics exporters, the
/// regression-gate baseline) goes through this so a
/// fresh clone without a `results/` directory never errors.
pub fn write_with_dirs(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_with_dirs_creates_missing_parents() {
        let base = std::env::temp_dir().join(format!(
            "f3m-trace-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let deep = base.join("a/b/c/out.json");
        write_with_dirs(&deep, "{}").unwrap();
        assert_eq!(std::fs::read_to_string(&deep).unwrap(), "{}");
        std::fs::remove_dir_all(&base).unwrap();
    }
}
