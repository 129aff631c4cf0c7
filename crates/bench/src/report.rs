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

/// Directory where repro runs drop their CSVs.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let _ = fs::create_dir_all(&dir);
    dir
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
    write_artifact(&results_dir().join(format!("{name}.csv")), &table.to_csv())
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
/// ## `results/serving.json` schema
///
/// Written by `repro serving` and consumed by the CI `repro-smoke` job.
/// Top-level keys (all required):
///
/// * `experiment` (str, `"serving"`), `dataset` (str), `seed` (int),
///   `iters_per_run` (int), `recall_floor` (num);
/// * `slo_p99_ms` (num) — the p99 SLO the serving-tuned run enforced;
/// * `rates` (array of num) — offered arrival rates (requests/s), ascending;
/// * `offline` / `serving` (obj) — one per tuning arm:
///   `best_qps` (num|null, best QPS@recall of the tuning run),
///   `best_config` (str|null — null when the arm found no config above
///   the recall floor), `slo_rejections` (int, serving arm only),
///   `measured` (array, one obj per rate: `rate`, `p50_ms`, `p99_ms`,
///   `achieved_qps`, `shed` — latencies null when nothing completed);
/// * `comparison` (obj): `p99_ratio_at_max_rate` (num|null,
///   serving-tuned p99 / offline-tuned p99 at the highest rate — `< 1`
///   means the serving-tuned config wins), `qps_ratio` (num|null,
///   serving-tuned best QPS@recall / offline-tuned), `serving_wins_p99`
///   (bool|null), `qps_within_10pct` (bool|null).
///
/// `results/topology.json` (written by `repro topology`) keeps its
/// PR 3 schema: `experiment`, `dataset`, `fixed`, `cotuned`, `comparison`.
///
/// ## `results/replication.json` schema
///
/// Written by `repro replication` and consumed by the CI `repro-smoke`
/// job. Top-level keys (all required):
///
/// * `experiment` (str, `"replication"`), `dataset` (str), `seed` (int),
///   `iters_per_run` (int), `recall_floor` (num);
/// * `slo_p99_ms` (num) — the p99 SLO every tuning arm enforced at the
///   top arrival rate; `max_shards` / `max_replicas` (int) — the control
///   plane's deployment ceilings;
/// * `rates` (array of num) — offered arrival rates (requests/s),
///   ascending; the last is the tuning/SLO rate;
/// * `fixed` (array of obj, one per pinned-replica arm) — each:
///   `replicas` (int, the pin), `best_qps` (num|null, best QPS@recall of
///   SLO-passing observations), `best_p99_ms` (num|null, lowest
///   shed-charged p99 among them), `best_config` (str|null),
///   `slo_rejections` / `failed` (int), `measured` (array, one obj per
///   rate for the arm's deployable winner: `rate`, `p99_ms`,
///   `goodput_qps`, `shed` — null when the arm had no winner);
/// * `cotuned` (obj) — the 18-dim arm, same keys as a fixed arm plus
///   `replica_histogram` (array of int, evals spent at factor 1..=max);
/// * `frozen_matches_17dim` (bool) — whether the pinned-at-1 arm
///   reproduced the 17-dim topology tuning history bit for bit (the
///   frozen-dimension contract, checked in-run);
/// * `comparison` (obj): `best_fixed_p99_ms_at_top` (num|null),
///   `cotuned_p99_ms_at_top` (num|null), `cotuned_beats_all_fixed`
///   (bool|null — `true` means the co-tuned winner's measured p99 at the
///   top rate beats every fixed arm's, arms with no deployable winner
///   counting as beaten).
///
/// ## `results/reactors.json` schema
///
/// Written by `repro reactors` (twice: the calibration fragment before
/// the tuning phase so `vdms::CostModel::calibrated` can read it back,
/// then the full document) and consumed by the CI `repro-smoke` job and
/// by `vdms::PenaltyMatrix::from_reactors_json`. Top-level keys (all
/// required):
///
/// * `experiment` (str, `"reactors"`);
/// * `calibration_source` (str) — `"measured"` when every penalty entry
///   was measured by a pinned pair on this host, `"partial"` when some
///   entries fell back, `"analytic"` when none was measurable (e.g. a
///   1-CPU container has no pairs at all);
/// * `topology` (obj) — the discovered host shape: `sockets`,
///   `cores_per_socket`, `smt` (int, all ≥ 1);
/// * `penalties` (obj) — the surface the cost model charges:
///   `same_core_smt` (num, co-running scan slowdown on SMT siblings),
///   `same_socket` / `cross_socket` (num, handoff latency ratios vs the
///   fastest measured pair); all finite and ≥ 1.0 — the parser in
///   `PenaltyMatrix::from_reactors_json` rejects the document otherwise
///   and the cost model falls back to its analytic constants;
/// * `penalty_sources` (obj) — per-entry provenance, same keys as
///   `penalties`, each `"measured"` or `"analytic"` — an unmeasurable
///   entry keeps the analytic constant and says so;
/// * `host` (obj) — `logical_cpus` (int), `pinning_works` (bool, whether
///   `sched_setaffinity` round-tripped), `solo_scan_mdps` (num|null,
///   pinned solo scan throughput);
/// * `tuning_penalty_source` (str) — what the tuning phase's calibrated
///   cost model actually loaded (`"measured"` once phase 1's fragment is
///   on disk);
/// * `dataset` (str), `seed` (int), `iters_per_run` (int),
///   `recall_floor` (num), `slo_p99_ms` (num), `max_shards` /
///   `max_replicas` (int), `rates` (array of num) — as in
///   `replication.json`;
/// * `fixed` (array of obj, one per pinned-policy arm, ordinal order) —
///   each: `policy` (str, `"shared"` | `"compact"` | `"scatter"` |
///   `"smt-avoid"`), then the same per-arm keys as `replication.json`'s
///   `fixed` entries (`best_qps`, `best_p99_ms`, `best_config`,
///   `slo_rejections`, `failed`, `measured`);
/// * `cotuned` (obj) — the 19-dim arm, same keys plus `policy_histogram`
///   (array of 4 int, evals spent per policy in ordinal order);
/// * `frozen_matches_18dim` (bool) — whether the pinned-at-`shared` arm
///   reproduced the 18-dim replication tuning history bit for bit (the
///   frozen-dimension contract, checked in-run);
/// * `comparison` (obj): `best_fixed_p99_ms_at_top` /
///   `cotuned_p99_ms_at_top` / `best_fixed_qps` / `cotuned_qps`
///   (num|null), `cotuned_beats_best_fixed_qps` /
///   `cotuned_beats_best_fixed_p99` (bool|null).
///
/// ## `results/writepath.json` schema
///
/// Written by `repro writepath` and consumed by the CI `repro-smoke` job.
/// Top-level keys (all required):
///
/// * `experiment` (str, `"writepath"`), `dataset` (str), `seed` (int),
///   `iters_per_run` (int), `recall_floor` (num), `slo_p99_ms` (num),
///   `max_shards` / `max_replicas` (int) — as in `replication.json`;
/// * `insert_fraction` (num) — inserts offered per arriving query (the
///   mixed-traffic scenario axis, `ServingSpec::insert_fraction`);
/// * `rates` (array of num) — offered *query* arrival rates (requests/s),
///   ascending; each also offers `rate × insert_fraction` inserts/s; the
///   last is the tuning/SLO rate;
/// * `fixed` (array of obj, one per fixed-flush arm) — each: `name`
///   (str, `"eager-flush"` | `"lazy-flush"` | `"default-flush"`),
///   `wal_batch_rows` / `seal_rows` (int) and `flush_interval_secs`
///   (num) — the pinned knobs, then the same per-arm keys as
///   `replication.json`'s `fixed` entries (`best_qps`, `best_p99_ms`,
///   `best_config`, `slo_rejections`, `failed`, `measured`); each
///   `measured` entry additionally carries the write ledger of the arm's
///   deployable winner at that rate: `flushes_full_batch` /
///   `flushes_end_of_tick` (int, group commits by trigger reason),
///   `segments_sealed` / `compactions` (int), `inserts_shed` (int,
///   admissions refused by backpressure overflow) — all null when the
///   arm had no winner;
/// * `cotuned` (obj) — the 22-dim arm (write knobs free), same keys plus
///   `best_knobs` (obj|null: `wal_batch_rows`, `flush_interval_secs`,
///   `seal_rows` — the winner's requested knobs, null when no winner or
///   the winner carried no request);
/// * `frozen_matches_19dim` (bool) — whether the pinned-at-default arm
///   reproduced the 19-dim pinning tuning history bit for bit (the
///   frozen-dimension contract, checked in-run);
/// * `write_rate_zero_matches` (bool) — whether, at a zero insert
///   fraction, the mixed simulator with and without a write-path request
///   produced bit-identical outcomes with a zeroed write ledger (the
///   write-rate→0 contract, checked in-run);
/// * `comparison` (obj): `best_fixed_goodput_at_top` /
///   `cotuned_goodput_at_top` (num|null, measured goodput at the top
///   rate), `cotuned_beats_all_fixed` (bool|null — `true` means the
///   co-tuned winner's goodput at the top rate matches or beats every
///   fixed-flush arm's, arms with no deployable winner counting as
///   beaten).
///
/// ## `results/kernels.json` schema
///
/// Written by `repro kernels` and consumed both by the CI `repro-smoke`
/// job and by `anns::cost::ScanUnitCosts::from_kernels_json` (which
/// `vdms::CostModel::calibrated` uses to replace the analytic scan
/// constants with this machine's measured values). Top-level keys (all
/// required):
///
/// * `experiment` (str, `"kernels"`), `seed` (int);
/// * `dispatched_kernel` (str) — the kernel runtime dispatch selected on
///   this host (`"scalar"` or `"avx2"`); `forced_scalar` (bool) — whether
///   `VDTUNER_FORCE_SCALAR` pinned dispatch to scalar;
/// * `f32` (array of obj, one per metric × dim point) — each: `metric`
///   (str, `"l2"` | `"dot"` | `"angular"`), `dim` (int), `scalar_mdps` /
///   `dispatched_mdps` (num, millions of dimension units per second),
///   `speedup` (num, dispatched / scalar);
/// * `sq8` (obj) — the quantized-scan comparison on the GloVe replay:
///   `dataset` (str), `f32_scan_mdps` / `sq8_scan_mdps` (num, full-scan
///   throughput through the dispatched kernel), `speedup` (num, sq8 /
///   f32), `recall_sq8` (num, top-10 recall of the quantized scan against
///   exact ground truth), `recall_delta` (num, `1 - recall_sq8`);
/// * `calibration` (obj) — ns per [`anns::cost::SearchCost`] unit derived
///   from the measurements above: `f32_dim_ns`, `u8_dim_ns`,
///   `pq_lookup_ns` (num, all finite and positive — the parser in
///   `ScanUnitCosts::from_kernels_json` rejects the document otherwise
///   and the cost model falls back to its analytic constants), `source`
///   (str, `"measured"`). [`anns::cost::ScanUnitCosts::load`] reads this
///   block alone, so files that still carry the `fast_kernel`, `fast` and
///   `tiers` keys of the retired second kernel tier calibrate to the same
///   numbers.
///
/// ## `results/lint.json` schema
///
/// Written by `cargo run -p lint` (the `vdtuner-lint` workspace auditor,
/// not this emitter — documented here so all artifact schemas live in one
/// place) and validated by the CI `lint-analysis` job. Top-level keys
/// (all required):
///
/// * `schema` (str, `"vdtuner-lint-v1"`), `clean` (bool — true iff every
///   rule's `findings` list is empty; the process exit code mirrors it),
///   `files_scanned` (int);
/// * `rules` (obj) — keyed `r1_unsafe_safety`, `r2_hash_collection`,
///   `r3_wall_clock`, `r4_par_float_fold`; each value: `description`
///   (str) and `findings` (array of obj: `file` (str, workspace-relative),
///   `line` (int, 1-based), `message` (str));
/// * `suppressions` (array of obj) — every `lint:allow(<rule>): <why>`
///   tag that actually suppressed a finding: `rule` (str, one of the rule
///   keys above), `file` (str), `line` (int, the suppressed trigger's
///   line), `reason` (str, never empty — a tag without a justification
///   does not suppress);
/// * `unsafe_inventory` (obj) — `total_sites` / `total_documented` (int)
///   and `files` (obj keyed by workspace-relative path, only files with
///   at least one `unsafe`): `sites` / `documented` (int). The pinned
///   regression test in `crates/lint/tests/workspace_pin.rs` freezes
///   these counts.
pub fn emit_json(name: &str, json: &JsonValue) -> io::Result<()> {
    let path = results_dir().join(format!("{name}.json"));
    json.validate().map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("refusing to write {}: {e}", path.display()),
        )
    })?;
    write_artifact(&path, &format!("{}\n", json.render(0)))
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

    /// `None` renders as `null`.
    pub fn opt_bool(v: Option<bool>) -> JsonValue {
        v.map_or(JsonValue::Null, JsonValue::Bool)
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
