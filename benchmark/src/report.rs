//! What the benchmark declares and writes: the metric registry behind
//! `BENCHMARK.json`, the host fingerprint, result files, and the comparison
//! of two result files.

use crate::json::Json;
use crate::workloads::{self, NOMINAL_SECONDS};
use anns::params::IndexType;
use std::path::{Path, PathBuf};

/// A declared end-to-end metric.
pub struct EndToEndDecl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    /// Fixed by the panel, so two runs must agree exactly.
    pub deterministic: bool,
}

pub const END_TO_END: [EndToEndDecl; 7] = [
    EndToEndDecl { name: "setup_s", unit: "s", better: "lower", bound: 0.25, deterministic: false },
    EndToEndDecl {
        name: "tune_wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        deterministic: false,
    },
    EndToEndDecl {
        name: "recommend_s",
        unit: "s",
        better: "lower",
        bound: 0.2,
        deterministic: false,
    },
    EndToEndDecl {
        name: "recommend_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        deterministic: false,
    },
    EndToEndDecl {
        name: "best_qps_at_recall90",
        unit: "sim_qps",
        better: "higher",
        bound: 0.1,
        deterministic: true,
    },
    EndToEndDecl {
        name: "ok_eval_share",
        unit: "ratio",
        better: "higher",
        bound: 0.05,
        deterministic: true,
    },
    EndToEndDecl {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.25,
        deterministic: false,
    },
];

/// Lower-case index-type suffix of per-type metric names.
pub fn type_suffix(t: IndexType) -> String {
    t.name().to_ascii_lowercase()
}

/// Every per-layer metric a traced run reports, on every workload:
/// `(name, unit, better)`.
pub fn per_layer_decls() -> Vec<(String, &'static str, &'static str)> {
    let mut d: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| d.push((name.to_string(), unit, better));
    add("core.propose_s", "s", "lower");
    add("core.propose_ms_p50", "ms", "lower");
    add("core.observe_s", "s", "lower");
    add("workload.observe_s", "s", "lower");
    add("workload.observe_ms_p50", "ms", "lower");
    add("bench.driver_self_s", "s", "lower");
    add("bench.trace_overhead_share", "ratio", "lower");
    add("vecdata.generate_ms", "ms", "lower");
    add("vecdata.ground_truth_ms", "ms", "lower");
    add("vecdata.l2_block_ns_per_dim", "ns", "lower");
    add("vecdata.dot3_ns_per_dim", "ns", "lower");
    for t in IndexType::ALL {
        let s = type_suffix(t);
        add(&format!("anns.build_ms.{s}"), "ms", "lower");
        add(&format!("anns.search_us_per_query.{s}"), "us", "lower");
        add(&format!("anns.scan_dims_per_query.{s}"), "count", "lower");
        add(&format!("workload.evaluate_ms.{s}"), "ms", "lower");
    }
    add("vdms.collection_load_ms", "ms", "lower");
    add("vdms.run_queries_ms", "ms", "lower");
    add("vdms.sharded_load_ms.s4r2", "ms", "lower");
    add("vdms.query_perf_ns", "ns", "lower");
    add("vdms.sim_replay_s", "s", "lower");
    add("vdms.wal_offers_per_s", "1/s", "higher");
    add("vdms.wal_seals", "count", "lower");
    add("vdms.wal_compactions", "count", "lower");
    add("workload.cache_hit_share", "ratio", "higher");
    add("workload.serving.requests_per_s.readonly", "1/s", "higher");
    add("workload.serving.requests_per_s.pinned", "1/s", "higher");
    add("workload.serving.requests_per_s.mixed", "1/s", "higher");
    add("workload.serving.stats_ms", "ms", "lower");
    add("workload.observe_batch_speedup.q4", "ratio", "higher");
    for n in crate::probes::GP_SIZES {
        add(&format!("gp.fit_ms.n{n}"), "ms", "lower");
        add(&format!("gp.predict_us.n{n}"), "us", "lower");
    }
    add("gp.cholesky_ms.n200", "ms", "lower");
    add("mobo.candidate_pool_ms", "ms", "lower");
    add("mobo.pool_size", "count", "lower");
    add("mobo.ehvi_us_per_candidate", "us", "lower");
    add("mobo.argmax_ms.n100", "ms", "lower");
    add("mobo.local_refine_ms.n100", "ms", "lower");
    add("mobo.hv2d_us", "us", "lower");
    add("core.encode_us", "us", "lower");
    add("core.decode_us", "us", "lower");
    add("core.abandoned_types", "count", "higher");
    add("core.propose_residual_ms_p50", "ms", "lower");
    add("rayon.par_call_overhead_us", "us", "lower");
    d
}

/// The program and arguments the driver appends the run's flags to.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The content of `BENCHMARK.json`, generated from the registry so the two
/// cannot drift (a unit test compares them).
pub fn manifest() -> Json {
    let decl = |name: &str, unit: &str, better: &str| {
        vec![("name", Json::str(name)), ("unit", Json::str(unit)), ("better", Json::str(better))]
    };
    Json::obj(vec![
        ("command", Json::Arr(COMMAND.into_iter().map(Json::str).collect())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(NOMINAL_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| {
                        let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::Str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut pairs = decl(m.name, m.unit, m.better);
                        pairs.push(("bound", Json::Num(m.bound)));
                        Json::obj(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(per_layer_decls().iter().map(|(n, u, b)| Json::obj(decl(n, u, b))).collect()),
        ),
    ])
}

/// Measured metrics in recording order, plus what the probes want noted.
#[derive(Default)]
pub struct Metrics {
    pub values: Vec<(String, f64, &'static str)>,
    /// `name (n=…)` notes: sample and repetition counts.
    pub counts: Vec<(String, usize)>,
    /// Probes whose steady-state window never settled.
    pub unsettled: Vec<String>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.values.push((name.to_string(), value, unit));
    }

    pub fn count(&mut self, name: &str, n: usize) {
        self.counts.push((name.to_string(), n));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, ..)| n == name).map(|&(_, v, _)| v)
    }

    /// `{name: {"value": v, "unit": u}}` for `names`, in that order; names
    /// never measured are returned as misses.
    pub fn select<'a>(&self, names: impl Iterator<Item = &'a str>) -> (Json, Vec<String>) {
        let mut pairs = Vec::new();
        let mut missing = Vec::new();
        for name in names {
            match self.values.iter().find(|(n, ..)| n == name) {
                Some((_, v, unit)) if v.is_finite() => pairs.push((
                    name.to_string(),
                    Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::str(*unit))]),
                )),
                Some((_, v, _)) => missing.push(format!("metric {name} is {v}")),
                None => missing.push(format!("metric {name} was not measured")),
            }
        }
        (Json::Obj(pairs), missing)
    }

    /// Every metric as `{name: {"value", "unit"}}`, non-finite ones as null.
    pub fn all_json(&self) -> Json {
        Json::Obj(
            self.values
                .iter()
                .map(|(n, v, u)| {
                    let value = if v.is_finite() { Json::Num(*v) } else { Json::Null };
                    (n.clone(), Json::obj(vec![("value", value), ("unit", Json::str(*u))]))
                })
                .collect(),
        )
    }

    /// One `name value unit` line per metric, with its count when noted.
    pub fn print(&self) {
        for (name, value, unit) in &self.values {
            let n = self.counts.iter().find(|(c, _)| c == name).map(|(_, n)| *n);
            let note = n.map_or(String::new(), |n| format!("  (n={n})"));
            println!("{name:<46} {value:>16.6} {unit}{note}");
        }
    }
}

/// Everything two result files must share to be comparable, and the commit
/// they need not.
pub fn fingerprint(threads: usize, cost_model: &vdms::CostModel) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let policy = match vecdata::kernel::active_policy() {
        vecdata::kernel::KernelPolicy::Exact => "exact",
        vecdata::kernel::KernelPolicy::Fast => "fast",
    };
    Json::obj(vec![
        ("cpu_model", Json::Str(cpu)),
        ("nproc", Json::Int(nproc as i64)),
        ("threads", Json::Int(threads as i64)),
        ("kernel", Json::str(vecdata::kernel::active().name())),
        ("kernel_policy", Json::str(policy)),
        ("cost_model_scan", Json::str(cost_model.scan_source.name())),
        ("cost_model_penalties", Json::str(cost_model.penalty_source.name())),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("commit", Json::Str(git_commit().unwrap_or_else(|| "unknown".to_string()))),
    ])
}

/// `HEAD` of the repository the benchmark runs in, read from `.git`
/// without starting a process; `None` outside a git checkout.
fn git_commit() -> Option<String> {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).parent()?.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_string()))
        .filter(|h| !h.is_empty())
}

/// `benchmark/out`, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write `doc` to `benchmark/out/<file>`, refusing non-finite numbers.
pub fn write_out(file: &str, doc: &Json) -> Result<PathBuf, String> {
    if let Some(path) = doc.first_non_finite() {
        return Err(format!("refusing to write {file}: non-finite number at {path}"));
    }
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// How two result files compare.
pub struct Comparison {
    /// One row per end-to-end metric: printable text.
    pub rows: Vec<String>,
    /// Metrics whose spread exceeds their bound.
    pub unresolved: Vec<String>,
    /// Deterministic metrics or digests that differ: a defect, not noise.
    pub mismatches: Vec<String>,
}

/// Compare two result files of one workload. Refuses files whose
/// fingerprints differ in anything but the commit.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let field = |doc: &Json, key: &str| doc.get(key).cloned().unwrap_or(Json::Null);
    for key in ["schema", "workload", "seconds", "trace"] {
        if field(a, key) != field(b, key) {
            return Err(format!(
                "not comparable: {key} differs ({} vs {})",
                field(a, key).line(),
                field(b, key).line()
            ));
        }
    }
    let (fa, fb) = (field(a, "fingerprint"), field(b, "fingerprint"));
    for (key, va) in fa.entries() {
        if key != "commit" && fb.get(key) != Some(va) {
            return Err(format!(
                "not comparable: fingerprint {key} differs ({} vs {})",
                va.line(),
                fb.get(key).map_or("missing".to_string(), Json::line)
            ));
        }
    }
    let mut out = Comparison { rows: Vec::new(), unresolved: Vec::new(), mismatches: Vec::new() };
    if field(a, "digests") != field(b, "digests") {
        out.mismatches.push("history digests".to_string());
    }
    let value = |doc: &Json, name: &str| {
        doc.get("end_to_end").and_then(|m| m.get(name)).and_then(|m| m.get("value")?.as_f64())
    };
    for m in &END_TO_END {
        let (Some(va), Some(vb)) = (value(a, m.name), value(b, m.name)) else {
            continue;
        };
        let spread = (va - vb).abs() / (0.5 * (va + vb)).abs().max(f64::MIN_POSITIVE);
        let verdict = if m.deterministic && va.to_bits() != vb.to_bits() {
            out.mismatches.push(m.name.to_string());
            "MISMATCH"
        } else if spread > m.bound {
            out.unresolved.push(m.name.to_string());
            "unresolved"
        } else {
            "ok"
        };
        out.rows.push(format!(
            "{:<22} {va:>14.6} {vb:>14.6} {:<8} ratio {:>7.4}  bound {:>4.2}  {verdict}",
            m.name,
            m.unit,
            vb / va,
            m.bound
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(wall: f64, best: f64, commit: &str, threads: i64) -> Json {
        let metric = |v: f64| Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str("s"))]);
        Json::obj(vec![
            ("schema", Json::str("vdtuner-benchmark-v1")),
            ("workload", Json::str("offline-16d")),
            ("seconds", Json::Int(24)),
            ("trace", Json::Bool(false)),
            (
                "fingerprint",
                Json::obj(vec![("threads", Json::Int(threads)), ("commit", Json::str(commit))]),
            ),
            ("digests", Json::Arr(vec![Json::str("00ff")])),
            (
                "end_to_end",
                Json::obj(vec![
                    ("tune_wall_s", metric(wall)),
                    ("best_qps_at_recall90", metric(best)),
                ]),
            ),
        ])
    }

    #[test]
    fn compare_allows_another_commit_but_no_other_fingerprint_change() {
        let a = result(20.0, 5000.0, "aaa", 2);
        assert!(compare(&a, &result(20.5, 5000.0, "bbb", 2)).is_ok());
        let err = compare(&a, &result(20.5, 5000.0, "aaa", 4)).err().expect("refused");
        assert!(err.contains("threads"), "{err}");
    }

    #[test]
    fn compare_separates_noise_from_defects() {
        let a = result(20.0, 5000.0, "aaa", 2);
        let quiet = compare(&a, &result(20.5, 5000.0, "aaa", 2)).expect("comparable");
        assert!(quiet.unresolved.is_empty() && quiet.mismatches.is_empty());
        let noisy = compare(&a, &result(27.0, 5000.0, "aaa", 2)).expect("comparable");
        assert_eq!(noisy.unresolved, vec!["tune_wall_s"]);
        let broken = compare(&a, &result(20.0, 5000.1, "aaa", 2)).expect("comparable");
        assert_eq!(broken.mismatches, vec!["best_qps_at_recall90"]);
    }

    /// `BENCHMARK.json` is the registry, and both obey the driver's limits.
    #[test]
    fn manifest_matches_the_checked_in_file_and_the_contract() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Json::parse(&text).expect("valid JSON"), manifest());

        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<String> = workloads::ALL.iter().map(|w| w.name.to_string()).collect();
        for w in &workloads::ALL {
            let why = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(why.len() <= 200, "{}: why has {} characters", w.name, why.len());
        }
        for m in &END_TO_END {
            assert!(unit_ok(m.unit) && m.bound <= 0.25, "{}", m.name);
            names.push(m.name.to_string());
        }
        let layers = per_layer_decls();
        assert!(layers.len() <= 128);
        for (n, u, _) in &layers {
            assert!(unit_ok(u), "{n}: unit {u}");
            names.push(n.clone());
        }
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.better == "lower"));
    }
}
