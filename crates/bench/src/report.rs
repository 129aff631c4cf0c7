//! Plain-text table rendering and CSV output for the repro harness.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with column alignment.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:>w$}  ", cell, w = widths[c]);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }

    /// CSV serialization (comma-separated, quotes only when needed).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Directory where repro runs drop their artifacts: `results/` under the
/// working directory, wherever the binary was built.
pub fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Create [`results_dir`] and return the path of the artifact `file` in it.
fn artifact_path(file: &str) -> io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir).map_err(|e| {
        io::Error::new(e.kind(), format!("could not create {}: {e}", dir.display()))
    })?;
    Ok(dir.join(file))
}

/// Write one artifact, naming the path in the error.
fn write_artifact(path: &Path, text: &str) -> io::Result<()> {
    fs::write(path, text).map_err(|e| {
        io::Error::new(e.kind(), format!("could not write {}: {e}", path.display()))
    })?;
    println!("[written {}]", path.display());
    Ok(())
}

/// Print a titled table and persist it as `results/<name>.csv`. An I/O
/// error is returned, not just logged: an experiment that cannot record
/// its result has failed, and `repro` exits nonzero on it.
pub fn emit(name: &str, title: &str, table: &Table) -> io::Result<()> {
    println!("\n### {title}\n");
    println!("{}", table.render());
    write_artifact(&artifact_path(&format!("{name}.csv"))?, &table.to_csv())
}

/// Persist a machine-readable summary as `results/<name>.json`, so future
/// sessions can track a metric across PRs without parsing tables.
///
/// The document is **validated before serialization**: a `NaN` or infinite
/// number anywhere in the tree is an [`io::ErrorKind::InvalidData`] error
/// naming the offending path, and nothing is written — the value is never
/// silently laundered into `null`, and the previous artifact is never left
/// to pass for this run's. Optional metrics must be passed through
/// [`JsonValue::opt_num`] / [`JsonValue::opt_finite`], which encode absence
/// as an explicit `null`.
///
/// The tracked documents, by writer and check:
///
/// * `serving`, `topology`, `replication`, `writepath` — the experiments of
///   those names in [`crate::experiments`], pinned byte for byte at
///   `--iters 10` by `crates/bench/repro_iters10.sha256`;
/// * `reactors` — [`crate::experiments::reactors`], host-measured: the
///   penalty surface and scan constants its tuning phase priced with;
/// * `kernels` — [`crate::experiments::kernels`], host-measured: the
///   kernel throughputs and the scan constants they imply.
///
/// Every document is a write-only record: nothing in the workspace reads
/// `results/` back.
pub fn emit_json(name: &str, json: &JsonValue) -> io::Result<()> {
    let file = format!("{name}.json");
    json.validate().map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("refusing to write {}: {e}", results_dir().join(&file).display()),
        )
    })?;
    write_artifact(&artifact_path(&file)?, &format!("{}\n", json.render(0)))
}

/// A minimal JSON document builder (the workspace is offline — no serde).
/// Covers what the result summaries need: objects, arrays, numbers,
/// strings, booleans, null.
#[derive(Debug, Clone)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object from `(key, value)` pairs, preserving insertion order.
    pub fn obj<K: Into<String>>(pairs: Vec<(K, JsonValue)>) -> JsonValue {
        JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `None` renders as `null`.
    pub fn opt_num(v: Option<f64>) -> JsonValue {
        v.map_or(JsonValue::Null, JsonValue::Num)
    }

    /// A finite number, or `null` for `None`/NaN/±∞ — the explicit way to
    /// record "this metric has no value" (e.g. a p99 of a run that
    /// completed nothing) without tripping [`JsonValue::validate`].
    pub fn opt_finite(v: Option<f64>) -> JsonValue {
        match v {
            Some(x) if x.is_finite() => JsonValue::Num(x),
            _ => JsonValue::Null,
        }
    }

    /// Reject non-finite numbers anywhere in the document, reporting the
    /// JSON-pointer-style path of the first offender. [`emit_json`] calls
    /// this before serialization so a NaN produced by an experiment fails
    /// loudly instead of quietly becoming `null` in the artifact.
    pub fn validate(&self) -> Result<(), String> {
        fn walk(v: &JsonValue, path: &mut String) -> Result<(), String> {
            match v {
                JsonValue::Num(x) if !x.is_finite() => Err(format!(
                    "non-finite number ({x}) at {}",
                    if path.is_empty() { "/" } else { path.as_str() }
                )),
                JsonValue::Arr(items) => {
                    for (i, item) in items.iter().enumerate() {
                        let len = path.len();
                        path.push_str(&format!("/{i}"));
                        walk(item, path)?;
                        path.truncate(len);
                    }
                    Ok(())
                }
                JsonValue::Obj(pairs) => {
                    for (k, item) in pairs {
                        let len = path.len();
                        path.push_str(&format!("/{k}"));
                        walk(item, path)?;
                        path.truncate(len);
                    }
                    Ok(())
                }
                _ => Ok(()),
            }
        }
        walk(self, &mut String::new())
    }

    /// Render with two-space indentation at nesting `depth`.
    pub fn render(&self, depth: usize) -> String {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            JsonValue::Null => "null".to_string(),
            JsonValue::Bool(b) => b.to_string(),
            JsonValue::Int(i) => i.to_string(),
            JsonValue::Num(v) if v.is_finite() => {
                // Shortest lossless float form; keep integers readable.
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            JsonValue::Num(_) => "null".to_string(), // NaN/inf are not JSON
            JsonValue::Str(s) => {
                // RFC 8259: escape the quote, the backslash, and every
                // control character (U+0000..U+001F).
                let mut out = String::with_capacity(s.len() + 2);
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
                out
            }
            JsonValue::Arr(items) if items.is_empty() => "[]".to_string(),
            JsonValue::Arr(items) => {
                let body: Vec<String> =
                    items.iter().map(|v| format!("{pad}{}", v.render(depth + 1))).collect();
                format!("[\n{}\n{close}]", body.join(",\n"))
            }
            JsonValue::Obj(pairs) if pairs.is_empty() => "{}".to_string(),
            JsonValue::Obj(pairs) => {
                let body: Vec<String> = pairs
                    .iter()
                    .map(|(k, v)| format!("{pad}\"{k}\": {}", v.render(depth + 1)))
                    .collect();
                format!("{{\n{}\n{close}}}", body.join(",\n"))
            }
        }
    }
}

/// Format helpers.
pub fn f1(v: f64) -> String {
    format!("{v:.1}")
}

pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

/// Seconds as milliseconds with one decimal; `-` for a latency that does
/// not exist (nothing completed).
pub fn ms(secs: f64) -> String {
    if secs.is_finite() {
        f1(secs * 1_000.0)
    } else {
        "-".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1", "22"]).row(vec!["333", "4"]);
        let s = t.render();
        assert!(s.contains("a"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new(vec!["x"]);
        t.row(vec!["a,b"]);
        assert!(t.to_csv().contains("\"a,b\""));
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn json_renders_nested_documents() {
        let doc = JsonValue::obj(vec![
            ("name", JsonValue::Str("topology".into())),
            ("count", JsonValue::Int(3)),
            ("best", JsonValue::Num(1276.5)),
            ("missing", JsonValue::opt_num(None)),
            ("whole", JsonValue::Num(4.0)),
            ("ok", JsonValue::Bool(true)),
            ("rows", JsonValue::Arr(vec![JsonValue::obj(vec![("shards", JsonValue::Int(1))])])),
        ]);
        let s = doc.render(0);
        assert!(s.contains("\"name\": \"topology\""), "{s}");
        assert!(s.contains("\"count\": 3"));
        assert!(s.contains("\"best\": 1276.5"));
        assert!(s.contains("\"missing\": null"));
        assert!(s.contains("\"whole\": 4.0"));
        assert!(s.contains("\"shards\": 1"));
        // Balanced braces/brackets — structurally valid.
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    #[test]
    fn validate_rejects_non_finite_numbers_with_path() {
        let bad = JsonValue::obj(vec![(
            "rows",
            JsonValue::Arr(vec![
                JsonValue::obj(vec![("ok", JsonValue::Num(1.0))]),
                JsonValue::obj(vec![("p99", JsonValue::Num(f64::NAN))]),
            ]),
        )]);
        let err = bad.validate().unwrap_err();
        assert!(err.contains("/rows/1/p99"), "{err}");
        assert!(JsonValue::obj(vec![("v", JsonValue::Num(f64::INFINITY))]).validate().is_err());
        assert!(JsonValue::obj(vec![("v", JsonValue::Num(1.5))]).validate().is_ok());
    }

    #[test]
    fn opt_finite_nullifies_non_finite_values() {
        assert!(matches!(JsonValue::opt_finite(Some(2.0)), JsonValue::Num(_)));
        assert!(matches!(JsonValue::opt_finite(Some(f64::INFINITY)), JsonValue::Null));
        assert!(matches!(JsonValue::opt_finite(Some(f64::NAN)), JsonValue::Null));
        assert!(matches!(JsonValue::opt_finite(None), JsonValue::Null));
        // The nullified form always survives validation.
        assert!(JsonValue::opt_finite(Some(f64::NAN)).validate().is_ok());
    }

    #[test]
    fn emit_json_refuses_invalid_documents() {
        // A NaN document is an error and writes no file; use a unique name
        // so parallel tests don't collide.
        let name = "test_invalid_emit";
        let path = results_dir().join(format!("{name}.json"));
        let _ = fs::remove_file(&path);
        let err = emit_json(name, &JsonValue::obj(vec![("p99", JsonValue::Num(f64::NAN))]))
            .expect_err("a NaN document must not be written");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("/p99"), "{err}");
        assert!(!path.exists(), "invalid document must not be written");
    }

    #[test]
    fn write_errors_are_returned_with_the_path() {
        let missing = results_dir().join("no_such_dir").join("x.csv");
        let err = write_artifact(&missing, "a\n").expect_err("the directory does not exist");
        assert!(err.to_string().contains("no_such_dir"), "{err}");
    }

    #[test]
    fn json_escapes_strings() {
        let v = JsonValue::Str("a \"quoted\" \\ path".into());
        assert_eq!(v.render(0), "\"a \\\"quoted\\\" \\\\ path\"");
        let ctl = JsonValue::Str("line1\nline2\ttab\u{1}end".into());
        assert_eq!(ctl.render(0), "\"line1\\nline2\\ttab\\u0001end\"");
    }
}
