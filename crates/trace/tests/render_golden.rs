//! Golden renderings captured from the hand-rolled renderers as they were
//! *before* they moved onto `f3m_trace::json::Writer` (ISSUE 15). The
//! expected strings are literals on purpose — re-deriving them from the
//! writer would only prove the writer agrees with itself.

use f3m_trace::clock::FakeClock;
use f3m_trace::{MetricsRegistry, Tracer};
use std::sync::Arc;

#[test]
fn chrome_trace_renders_the_captured_bytes() {
    let clock = Arc::new(FakeClock::new());
    let tracer = Tracer::with_clock(clock.clone());
    clock.advance(1_500);
    {
        let mut span = tracer.span("pass", "rank \"q\"");
        span.arg("pairs", 3);
        clock.advance(2_250);
    }
    tracer.instant("fuzz", "split-block", vec![("iteration", 4), ("ns", 17)]);
    tracer.counter("pass", "wave_counters", vec![("merges", 2)]);
    tracer.complete("align", "align", 1, 10_000, 999, vec![]);
    assert_eq!(
        tracer.to_chrome_json(),
        "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"f3m\"}},{\"name\":\"rank \\\"q\\\"\",\"cat\":\"pass\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1.500,\"dur\":2.250,\"args\":{\"pairs\":3}},{\"name\":\"split-block\",\"cat\":\"fuzz\",\"ph\":\"i\",\"pid\":1,\"tid\":0,\"ts\":3.750,\"s\":\"t\",\"args\":{\"iteration\":4,\"ns\":17}},{\"name\":\"wave_counters\",\"cat\":\"pass\",\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":3.750,\"args\":{\"merges\":2}},{\"name\":\"align\",\"cat\":\"align\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":10.000,\"dur\":0.999,\"args\":{}}],\"displayTimeUnit\":\"ms\"}"
    );
    assert_eq!(
        Tracer::new().to_chrome_json(),
        "{\"traceEvents\":[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"f3m\"}}],\"displayTimeUnit\":\"ms\"}"
    );
}

#[test]
fn metrics_dump_renders_the_captured_bytes() {
    let mut reg = MetricsRegistry::new();
    let c = reg.counter("pass.comparisons", "comparisons", true);
    reg.set(c, 1234);
    let g = reg.gauge("pass.size_reduction", "fraction", true);
    reg.set_gauge(g, 0.25);
    let nan = reg.gauge("pass.nan \"q\"", "fraction", false);
    reg.set_gauge(nan, f64::NAN);
    let t = reg.counter("pass.total_ns", "ns", false);
    reg.set(t, 987654);
    let h = reg.histogram("lsh.occupancy", "functions", true, &[1, 2, 4]);
    reg.observe_many(h, [1, 2, 3, 9]);
    assert_eq!(
        reg.to_json(),
        "{\"schema\":\"f3m-metrics-v1\",\"metrics\":[\n {\"name\":\"pass.comparisons\",\"kind\":\"counter\",\"unit\":\"comparisons\",\"deterministic\":true,\"value\":1234},\n {\"name\":\"pass.size_reduction\",\"kind\":\"gauge\",\"unit\":\"fraction\",\"deterministic\":true,\"value\":0.25},\n {\"name\":\"pass.nan \\\"q\\\"\",\"kind\":\"gauge\",\"unit\":\"fraction\",\"deterministic\":false,\"value\":0},\n {\"name\":\"pass.total_ns\",\"kind\":\"counter\",\"unit\":\"ns\",\"deterministic\":false,\"value\":987654},\n {\"name\":\"lsh.occupancy\",\"kind\":\"histogram\",\"unit\":\"functions\",\"deterministic\":true,\"bounds\":[1,2,4],\"counts\":[1,1,1,1],\"count\":4,\"sum\":15}\n]}\n"
    );
}
