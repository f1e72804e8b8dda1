//! Counter tables: one row per counter of a stats struct, from which the
//! struct's JSON rendering, its metrics export and its documented key list
//! are all derived.
//!
//! A stats struct declares `const TABLE: &[Stat<Self>]` next to its fields,
//! in the order its JSON object lists them. Adding a counter is a field
//! plus one row; nothing else names it.
//!
//! Metrics are exported in ascending [`Stat::section`], table order within
//! a section: deterministic rows default to section 0 and wall-clock rows
//! to section 1, which is the layout every `--metrics` artefact has always
//! had. The daemon interleaves sections of two tables, so a few of its rows
//! carry an explicit section ([`Stat::new`] spells a row out in full).

use crate::json::Writer;
use crate::metrics::MetricsRegistry;

/// What one row reads out of its struct.
pub enum Value {
    /// A counter.
    Count(u64),
    /// A gauge.
    Real(f64),
    /// A wall-clock stage split by outcome: a `{success_ns, fail_ns}`
    /// object in JSON, `<name>_success_ns` / `<name>_fail_ns` as metrics.
    Stage { success_ns: u64, fail_ns: u64 },
    /// One counter per fixed name: an object in JSON, `<name>.<entry>` as
    /// metrics.
    Map(Vec<(&'static str, u64)>),
    /// An optional label: a string or `null` in JSON, 1 or 0 as a metric.
    Label(Option<&'static str>),
}

/// One counter of the stats struct `S`.
pub struct Stat<S> {
    /// JSON key; empty for a row that is exported but not rendered.
    pub key: &'static str,
    /// Metric name under the export prefix; empty for a row that is
    /// rendered but not exported.
    pub metric: &'static str,
    pub unit: &'static str,
    /// Whether the value is a pure work count (see [`crate::metrics`]).
    pub deterministic: bool,
    /// Export position, see the module docs.
    pub section: u8,
    pub get: fn(&S) -> Value,
}

impl<S> Stat<S> {
    /// A fully spelled-out row, for tables whose metric names or export
    /// order differ from their JSON.
    pub const fn new(
        key: &'static str,
        metric: &'static str,
        unit: &'static str,
        deterministic: bool,
        section: u8,
        get: fn(&S) -> Value,
    ) -> Stat<S> {
        Stat { key, metric, unit, deterministic, section, get }
    }

    /// A deterministic work count, rendered and exported as `name`.
    pub const fn det(name: &'static str, unit: &'static str, get: fn(&S) -> Value) -> Stat<S> {
        Stat::new(name, name, unit, true, 0, get)
    }

    /// A timing- or environment-dependent reading.
    pub const fn wall(name: &'static str, unit: &'static str, get: fn(&S) -> Value) -> Stat<S> {
        Stat::new(name, name, unit, false, 1, get)
    }

    /// A row that appears in the JSON rendering only.
    pub const fn json_only(key: &'static str, get: fn(&S) -> Value) -> Stat<S> {
        Stat::new(key, "", "", true, 0, get)
    }

    /// Writes `"key":value` (nothing for a metric-only row).
    pub fn write(&self, w: &mut Writer, s: &S) {
        if self.key.is_empty() {
            return;
        }
        w.key(self.key);
        match (self.get)(s) {
            Value::Count(v) => w.u64(v),
            Value::Real(v) => w.f64(v),
            Value::Stage { success_ns, fail_ns } => w
                .begin_object()
                .key("success_ns")
                .u64(success_ns)
                .key("fail_ns")
                .u64(fail_ns)
                .end_object(),
            Value::Map(entries) => {
                w.begin_object();
                for (name, v) in entries {
                    w.key(name).u64(v);
                }
                w.end_object()
            }
            Value::Label(Some(label)) => w.str(label),
            Value::Label(None) => w.null(),
        };
    }
}

/// The JSON keys of `table`, in order (`N` must be `table.len()`).
pub const fn keys<S, const N: usize>(table: &[Stat<S>]) -> [&'static str; N] {
    let mut out = [""; N];
    let mut i = 0;
    while i < N {
        out[i] = table[i].key;
        i += 1;
    }
    out
}

/// Writes every rendered row of `table` into the object open in `w`.
pub fn write_fields<S>(w: &mut Writer, table: &[Stat<S>], s: &S) {
    for row in table {
        row.write(w, s);
    }
}

/// Writes `s` as one object holding exactly the rendered rows of `table`.
pub fn write_object<S>(w: &mut Writer, table: &[Stat<S>], s: &S) {
    w.begin_object();
    write_fields(w, table, s);
    w.end_object();
}

/// Registers and sets every exported row of `table` under `<prefix>.`.
pub fn export<S>(reg: &mut MetricsRegistry, prefix: &str, table: &[Stat<S>], s: &S) {
    for section in 0..=table.iter().map(|row| row.section).max().unwrap_or(0) {
        export_section(reg, prefix, table, s, section);
    }
}

/// [`export`] restricted to the rows of one section.
pub fn export_section<S>(
    reg: &mut MetricsRegistry,
    prefix: &str,
    table: &[Stat<S>],
    s: &S,
    section: u8,
) {
    for row in table.iter().filter(|row| row.section == section && !row.metric.is_empty()) {
        let mut count = |name: String, unit, v| {
            let id = reg.counter(&name, unit, row.deterministic);
            reg.set(id, v);
        };
        let name = format!("{prefix}.{}", row.metric);
        match (row.get)(s) {
            Value::Count(v) => count(name, row.unit, v),
            Value::Real(v) => {
                let id = reg.gauge(&name, row.unit, row.deterministic);
                reg.set_gauge(id, v);
            }
            Value::Stage { success_ns, fail_ns } => {
                count(format!("{name}_success_ns"), "ns", success_ns);
                count(format!("{name}_fail_ns"), "ns", fail_ns);
            }
            Value::Map(entries) => {
                for (entry, v) in entries {
                    count(format!("{name}.{entry}"), row.unit, v);
                }
            }
            Value::Label(label) => count(name, row.unit, u64::from(label.is_some())),
        }
    }
}
