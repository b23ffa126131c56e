//! Machine-readable bench reports: every bench binary emits a
//! `BENCH_<name>.json` next to its human-readable tables, so the perf
//! trajectory is comparable across PRs (and across the containers CI
//! happens to land on — the environment block records the core count,
//! the worker count and the `HEP_*` knobs that produced the numbers).
//!
//! The workspace has no serde (offline build container), so this is a
//! small hand-rolled JSON value tree with deterministic key order —
//! the generalization of the inline emitter `io_scaling` introduced in
//! PR 6.

use hep_metrics::table::Table;
use std::fmt::Write as _;

/// A JSON value. Only what bench reports need: no escapes beyond the
/// mandatory ones, objects keep insertion order.
#[derive(Clone, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float, rendered with six decimals (`null` when not finite).
    F64(f64),
    /// String (escaped on render).
    Str(String),
    /// Ordered array.
    Array(Vec<Json>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Json {
    /// An object builder from `(key, value)` pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:.6}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape(s, out),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    let _ = write!(out, "{:width$}", "", width = indent + 2);
                    item.render_into(out, indent + 2);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{:width$}]", "", width = indent);
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    let _ = write!(out, "{:width$}", "", width = indent + 2);
                    escape(k, out);
                    out.push_str(": ");
                    v.render_into(out, indent + 2);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                let _ = write!(out, "{:width$}}}", "", width = indent);
            }
        }
    }

    /// Pretty-printed JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }
}

/// The environment block every report carries: who measured, on what.
/// Cross-PR numbers from different containers are only interpretable
/// with this attached (the 1-CPU container caveat of ROADMAP item 4).
fn env_block() -> Json {
    let mut pairs: Vec<(String, Json)> = vec![
        (
            "nproc".to_string(),
            std::thread::available_parallelism().map_or(Json::Null, |n| n.get().into()),
        ),
        ("threads".to_string(), hep_par::threads().into()),
    ];
    // Every registered runtime knob, in registry order — the report's raw
    // record of the configuration that produced the numbers. Generated
    // from the env registry so a new knob cannot be forgotten here.
    for knob in hep_ds::env_registry::KNOBS {
        if knob.name.starts_with("HEP_") {
            pairs.push((knob.name.to_string(), hep_ds::env_registry::read(knob.name).into()));
        }
    }
    Json::Object(pairs)
}

/// Builder for one bench binary's `BENCH_<name>.json`.
pub struct Report {
    name: String,
    fields: Vec<(String, Json)>,
}

impl Report {
    /// Starts a report for bench `name`, pre-populated with the bench
    /// name, smoke-mode flag, scale factor and the environment block.
    pub fn new(name: &str) -> Report {
        Report {
            name: name.to_string(),
            fields: vec![
                ("bench".to_string(), name.into()),
                ("test_mode".to_string(), crate::test_mode().into()),
                ("scale".to_string(), crate::scale().into()),
                ("env".to_string(), env_block()),
            ],
        }
    }

    /// Adds (or replaces) a top-level field.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        let value = value.into();
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.fields.push((key.to_string(), value));
        }
        self
    }

    /// Dumps a rendered [`Table`] under `key` as
    /// `{"headers": [...], "rows": [[...], ...]}` — the uniform bridge
    /// from the human-readable output to the machine-readable record.
    pub fn table(&mut self, key: &str, table: &Table) -> &mut Self {
        let headers: Vec<Json> = table.headers().iter().map(|h| h.as_str().into()).collect();
        let rows: Vec<Json> = table
            .rows()
            .iter()
            .map(|r| Json::Array(r.iter().map(|c| c.as_str().into()).collect()))
            .collect();
        self.set(
            key,
            Json::object([("headers", Json::Array(headers)), ("rows", Json::Array(rows))]),
        )
    }

    /// Records criterion measurements (drained via
    /// [`criterion::take_measurements`]) under `"measurements"`.
    pub fn measurements(&mut self, ms: &[criterion::Measurement]) -> &mut Self {
        let items: Vec<Json> = ms
            .iter()
            .map(|m| {
                Json::object([
                    ("id", m.id.as_str().into()),
                    ("mean_secs", if m.smoke { Json::Null } else { m.mean_secs.into() }),
                    ("iters", m.iters.into()),
                    ("smoke", m.smoke.into()),
                ])
            })
            .collect();
        self.set("measurements", Json::Array(items))
    }

    /// The assembled JSON tree.
    pub fn to_json(&self) -> Json {
        Json::Object(self.fields.clone())
    }

    /// Writes `BENCH_<name>.json` into the working directory.
    pub fn write(&self) {
        let path = format!("BENCH_{}.json", self.name);
        std::fs::write(&path, self.to_json().render())
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_valid_and_ordered() {
        let mut r = Report::new("unit");
        r.set("alpha", 1u64);
        r.set("text", "quote \" and \\ and\nnewline");
        r.set("float", 1.25f64);
        r.set("missing", Json::Null);
        r.set("alpha", 2u64); // replace, not duplicate
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]);
        r.table("tbl", &t);
        let text = r.to_json().render();
        assert!(text.starts_with("{\n  \"bench\": \"unit\""));
        assert!(text.contains("\"alpha\": 2"));
        assert_eq!(text.matches("\"alpha\"").count(), 1);
        assert!(text.contains("\\\"") && text.contains("\\n"));
        assert!(text.contains("\"float\": 1.250000"));
        assert!(text.contains("\"nproc\""));
        assert!(text.contains("\"threads\""));
        assert!(text.contains("\"headers\""));
        // Non-finite floats degrade to null instead of invalid JSON.
        assert_eq!(Json::F64(f64::NAN).render().trim(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render().trim(), "null");
    }

    #[test]
    fn arrays_and_objects_nest() {
        let j = Json::object([
            ("empty_arr", Json::Array(vec![])),
            ("empty_obj", Json::Object(vec![])),
            ("arr", Json::from(vec![1u64, 2, 3])),
            ("opt", Json::from(None::<u64>)),
        ]);
        let text = j.render();
        assert!(text.contains("\"empty_arr\": []"));
        assert!(text.contains("\"empty_obj\": {}"));
        assert!(text.contains("\"opt\": null"));
    }
}
