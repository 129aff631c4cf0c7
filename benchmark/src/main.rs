//! `vdtuner-benchmark`: one command per `(workload, seed)` that runs a fixed
//! panel of tuning runs, prints every metric by name with its unit, checks
//! the outputs, and ends with the one-line JSON result the driver reads.
//! See `README.md` for the workloads, the metrics and how they interact.

// The repository's clippy.toml bans `Instant::now` so that simulated results
// never depend on the wall-clock; timing from outside is this crate's job.
#![allow(clippy::disallowed_methods)]

mod json;
mod pace;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use report::{Metrics, END_TO_END};
use run::TuneResult;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Def, NOMINAL_SECONDS};

/// Set-ups per run, of which `setup_s` is the median: at least
/// `MIN_SETUPS`, then more until `SETUP_BUDGET_SECS` is spent or `MAX_SETUPS`
/// ran, so the millisecond set-up of the tiny dataset is a median of many.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 40;
const SETUP_BUDGET_SECS: f64 = 0.5;
/// Iterations of the untimed warm-up tune: the seven seed configurations,
/// so kernel dispatch and first-touch page faults are paid before timing.
const WARMUP_ITERS: usize = 7;
/// Seeds `aa` runs every workload at, twice each.
const AA_SEEDS: [u64; 2] = [42, 7];

const USAGE: &str = "usage:
  vdtuner-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>
  vdtuner-benchmark aa                      every workload twice at seeds 42 and 7
  vdtuner-benchmark compare <a.json> <b.json>
  vdtuner-benchmark manifest                print BENCHMARK.json";

struct Args {
    def: &'static Def,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: {value:?} is not a whole number"));
        match flag.as_str() {
            "--workload" => workload = Some(value.as_str()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let name = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let def = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::ALL.iter().map(|d| d.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seconds = seconds.unwrap_or(NOMINAL_SECONDS);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    match trace.unwrap_or(0) {
        t @ (0 | 1) => Ok(Args { def, seed: seed.unwrap_or(42), seconds, trace: t == 1 }),
        t => Err(format!("--trace {t} is neither 0 nor 1")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("aa") => aa(),
        Some("compare") => match &args[1..] {
            [a, b] => read_result(a.as_ref())
                .and_then(|a| Ok((a, read_result(b.as_ref())?)))
                .and_then(|(a, b)| print_comparison(&a, &b)),
            _ => Err(format!("compare takes two result files\n{USAGE}")),
        },
        Some("manifest") => {
            print!("{}", report::manifest().pretty());
            Ok(true)
        }
        _ => parse(&args).and_then(|a| run_one(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

/// One `(workload, seed)` run. `Ok(correct)`.
fn run_one(args: &Args) -> Result<bool, String> {
    let def = args.def;
    // The untraced run is single-threaded. With two threads on two shared
    // vCPUs every parallel fan-out waits for whichever vCPU the host took
    // away, and ten-run spreads of the recommendation metrics reached 20-27 %
    // against 4-7 % on one thread (where they were no slower: the vendored
    // rayon's thread spawns cost what the second core gave). Histories are
    // bit-identical for any thread count, so the traced run uses the cores
    // and its digest check covers that contract too.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = if args.trace { cores.min(4) } else { 1 };
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .map_err(|e| format!("thread pool: {e}"))?;
    let tunes = def.tunes_for(args.seconds);
    let iters = def.iters;
    let order = run::tune_order(tunes, args.seed);

    // Set-up, several times over: dataset, ground truth, anchor, backend,
    // with a reference sample either side of each so that it too can be
    // read in reference seconds once the run knows its quiet sample.
    let pace = pace::Pace::new(if args.trace { pace::TRACED_ROUNDS } else { pace::ROUNDS });
    let mut setups: Vec<(f64, f64)> = Vec::with_capacity(MAX_SETUPS);
    let prepared = loop {
        pace.sample();
        let from = pace.now_secs();
        let p = def.prepare();
        std::hint::black_box(def.backend(&p).info());
        setups.push((from, pace.now_secs()));
        let spent: f64 = setups.iter().map(|(from, to)| to - from).sum();
        let enough = setups.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_SECS;
        if enough || setups.len() >= MAX_SETUPS {
            break p;
        }
    };
    pace.sample();
    let backend = def.backend(&prepared);
    let fingerprint = report::fingerprint(threads, &prepared.w.cost_model);

    let ds = &prepared.w.dataset;
    println!(
        "workload {} seed {} seconds {} trace {}: {} tunes x {} iterations, q={}, order {:?}",
        def.name, args.seed, args.seconds, args.trace as u8, tunes, iters, def.q, order
    );
    println!(
        "dataset n={} dim={} queries={} top_k={} anchor_qps={:.3} threads={threads}",
        ds.len(),
        ds.dim(),
        ds.n_queries(),
        prepared.w.top_k,
        prepared.anchor_qps
    );
    println!("fingerprint {}", fingerprint.line());

    run::run_library(def, &*backend, order[0], WARMUP_ITERS.min(iters));

    let mut metrics = Metrics::default();
    let mut misses: Vec<String>;
    let mut results: Vec<TuneResult>;
    let mut spans_doc = None;
    if args.trace {
        // The first tune once through the library, then the whole panel
        // through the mirrored driver: equal digests show the mirror is the
        // library's loop, and the two walls give the tracing overhead.
        let mut plain =
            [run::paced(&*backend, &pace, |b| run::run_library(def, b, order[0], iters))];
        let mut rec = trace::Recorder::with_capacity(4 * tunes * iters + 8);
        let root = rec.open("run", trace::NONE, trace::NONE, trace::NONE);
        results = order
            .iter()
            .map(|&tune| {
                run::paced(&*backend, &pace, |b| {
                    run::run_traced(def, b, tune, iters, &mut rec, root)
                })
            })
            .collect();
        rec.close(root);
        run::read_in_reference_secs(def, &pace, &mut plain);
        run::read_in_reference_secs(def, &pace, &mut results);
        let [plain] = plain;
        misses = run::check(def, &prepared, iters, &results);
        if plain.digest != results[0].digest {
            misses.push(format!(
                "tune {}: traced digest {:016x} differs from untraced {:016x}",
                plain.tune, results[0].digest, plain.digest
            ));
        }
        let reference_wall = |r: &TuneResult| r.wall_secs * r.host_factor;
        span_metrics(
            &mut metrics,
            rec.spans(),
            reference_wall(&plain),
            reference_wall(&results[0]),
        );
        let mut probes = probes::Probes {
            def,
            prepared: &prepared,
            seed: args.seed,
            results: &results,
            spans: rec.spans(),
            out: metrics,
            misses: Vec::new(),
        };
        probes.run_all();
        metrics = probes.out;
        misses.extend(probes.misses);
        spans_doc = Some(trace::to_json(rec.spans()));
    } else {
        results = order
            .iter()
            .map(|&tune| run::paced(&*backend, &pace, |b| run::run_library(def, b, tune, iters)))
            .collect();
        run::read_in_reference_secs(def, &pace, &mut results);
        misses = run::check(def, &prepared, iters, &results);
        let e = run::end_to_end(&results, def.q);
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let samples = pace.samples();
        let quiet = pace.quiet_sample_secs().expect("sampled around every set-up");
        let setup_secs: Vec<f64> = setups
            .iter()
            .filter_map(|&(from, to)| pace::reference_secs(&samples, quiet, from, to))
            .map(|(_, reference)| reference)
            .collect();
        let raw_setup_secs: Vec<f64> = setups.iter().map(|(from, to)| to - from).collect();
        metrics.put("setup_s", stats::median(&setup_secs), "s");
        metrics.count("setup_s", setup_secs.len());
        metrics.put("tune_wall_s", e.tune_wall_s, "s");
        metrics.put("recommend_s", e.recommend_s, "s");
        metrics.put("recommend_ms_p50", e.recommend_ms_p50, "ms");
        metrics.count("recommend_ms_p50", e.recommend_samples);
        metrics.put("best_qps_at_recall90", e.best_qps_at_recall90, "sim_qps");
        metrics.put("ok_eval_share", e.ok_eval_share, "ratio");
        metrics.count("ok_eval_share", e.evaluations);
        metrics.put("peak_rss_mib", stats::parse_vm_hwm_mib(&status).unwrap_or(f64::NAN), "MiB");
        // The same times in wall-clock seconds, beside the reference seconds.
        metrics.put("raw.setup_s", stats::median(&raw_setup_secs), "s");
        metrics.put("raw.tune_wall_s", e.raw_tune_wall_s, "s");
        metrics.put("raw.recommend_s", e.raw_recommend_s, "s");
        metrics.put("host_factor", e.tune_wall_s / e.raw_tune_wall_s, "ratio");
    }

    for r in &results {
        println!(
            "tune {}: wall {:.3} s, recommend {:.3} s, best qps@0.9 {:.3}, failed evals {}/{}, \
             abandoned types {}, digest {:016x}",
            r.tune,
            r.wall_secs,
            r.outcome.total_recommend_secs,
            r.outcome.best_qps_with_recall(run::RECALL_FLOOR).unwrap_or(f64::NAN),
            r.outcome.observations.iter().filter(|o| o.failed).count(),
            r.outcome.observations.len(),
            r.abandoned_types,
            r.digest
        );
    }
    metrics.print();
    if !metrics.unsettled.is_empty() {
        println!("unsettled: {}", metrics.unsettled.join(" "));
    }

    // The final line carries exactly the declared metrics of this mode.
    let layers = report::per_layer_decls();
    let declared: Vec<&str> = if args.trace {
        layers.iter().map(|(n, ..)| n.as_str()).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let (selected, missing) = metrics.select(declared.into_iter());
    misses.extend(missing);
    for m in &misses {
        println!("MISS {m}");
    }
    let correct = misses.is_empty();
    let attempted = results.iter().map(|r| r.outcome.observations.len()).sum::<usize>().max(1);

    // Digests by panel index, so runs that rotated differently compare equal.
    let mut by_tune: Vec<&TuneResult> = results.iter().collect();
    by_tune.sort_by_key(|r| r.tune);
    let digests = by_tune.iter().map(|r| Json::Str(format!("{:016x}", r.digest))).collect();
    let counts = metrics.counts.iter().map(|(n, c)| (n.clone(), Json::Int(*c as i64))).collect();
    let doc = Json::obj(vec![
        ("schema", Json::str("vdtuner-benchmark-v1")),
        ("workload", Json::str(def.name)),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Int(args.seconds as i64)),
        ("trace", Json::Bool(args.trace)),
        ("fingerprint", fingerprint),
        (
            "sizes",
            Json::obj(vec![
                ("tunes", Json::Int(tunes as i64)),
                ("iterations", Json::Int(iters as i64)),
                ("q", Json::Int(def.q as i64)),
                ("n", Json::Int(ds.len() as i64)),
                ("dim", Json::Int(ds.dim() as i64)),
                ("queries", Json::Int(ds.n_queries() as i64)),
                ("top_k", Json::Int(prepared.w.top_k as i64)),
            ]),
        ),
        ("correct", Json::Bool(correct)),
        ("misses", Json::Arr(misses.iter().map(Json::str).collect())),
        ("digests", Json::Arr(digests)),
        (if args.trace { "per_layer" } else { "end_to_end" }, metrics.all_json()),
        ("counts", Json::Obj(counts)),
        (
            "tunes",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("tune", Json::Int(r.tune as i64)),
                            ("from_s", Json::Num(r.span_secs.0)),
                            ("to_s", Json::Num(r.span_secs.1)),
                            ("wall_s", Json::Num(r.wall_secs)),
                            ("recommend_s", Json::Num(r.outcome.total_recommend_secs)),
                            ("host_factor", Json::Num(r.host_factor)),
                            (
                                "step_recommend_s",
                                Json::Arr(
                                    r.outcome
                                        .observations
                                        .iter()
                                        .map(|o| Json::Num(o.recommend_secs))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "pace_samples",
            Json::Arr(
                pace.samples()
                    .iter()
                    .map(|s| {
                        Json::Arr(vec![
                            Json::Num(s.at_secs),
                            Json::Num(s.sample_secs),
                            Json::Num(s.fastest_round_secs),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("pace_quiet_sample_s", Json::Num(pace.quiet_sample_secs().unwrap_or(f64::NAN))),
        ("unsettled", Json::Arr(metrics.unsettled.iter().map(Json::str).collect())),
    ]);
    let suffix = if args.trace { ".traced" } else { "" };
    let path = report::write_out(&format!("{}.s{}{suffix}.json", def.name, args.seed), &doc)?;
    println!("wrote {}", path.display());
    if let Some(spans) = spans_doc {
        let path = report::write_out(&format!("{}.s{}.trace.json", def.name, args.seed), &spans)?;
        println!("wrote {}", path.display());
    }

    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(misses.len() as i64)),
        ("metrics", selected),
    ]);
    println!("{}", line.line());
    Ok(correct)
}

/// Totals and medians of the traced run's spans, the driver's own share,
/// and what tracing cost the first tune.
fn span_metrics(m: &mut Metrics, spans: &[trace::Span], plain_wall: f64, traced_wall: f64) {
    for layer in ["core.propose", "workload.observe"] {
        let secs = trace::durations(spans, layer);
        let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
        m.put(&format!("{layer}_s"), secs.iter().sum(), "s");
        m.put(&format!("{layer}_ms_p50"), stats::median(&ms), "ms");
        m.count(&format!("{layer}_ms_p50"), ms.len());
        // Reported only where the tail has the samples to support it.
        if let Some(p90) = stats::percentile(&ms, 90.0) {
            m.put(&format!("{layer}_ms_p90"), p90, "ms");
            m.count(&format!("{layer}_ms_p90"), ms.len());
        }
    }
    m.put("core.observe_s", trace::durations(spans, "core.observe").iter().sum(), "s");
    let iterations = spans.iter().filter(|s| s.name == "iteration");
    let self_secs: f64 = iterations.clone().map(|s| trace::self_secs(spans, s.id)).sum();
    let total_secs: f64 = iterations.map(trace::Span::secs).sum();
    m.put("bench.driver_self_s", self_secs, "s");
    m.put("bench.iteration_cover_share", 1.0 - self_secs / total_secs, "ratio");
    m.put("bench.trace_overhead_share", (traced_wall - plain_wall) / plain_wall, "ratio");
}

fn read_result(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Per end-to-end metric the two values, their ratio and the bound.
/// `Ok(false)` when a deterministic metric or a digest differs.
fn print_comparison(a: &Json, b: &Json) -> Result<bool, String> {
    let c = report::compare(a, b)?;
    for row in &c.rows {
        println!("{row}");
    }
    if !c.unresolved.is_empty() {
        println!("unresolved (spread exceeds the bound): {}", c.unresolved.join(" "));
    }
    if !c.mismatches.is_empty() {
        println!("MISMATCH (must agree exactly): {}", c.mismatches.join(" "));
    }
    Ok(c.mismatches.is_empty())
}

/// `aa`: every workload twice per seed, the same commit against itself.
/// Fails when a run is incorrect, or a deterministic metric or a digest
/// differs within a pair or across the seeds (the panel does not follow
/// the seed).
fn aa() -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut clean = true;
    for def in &workloads::ALL {
        let mut docs: Vec<Json> = Vec::new();
        for seed in AA_SEEDS {
            for _ in 0..2 {
                let status = Command::new(&exe)
                    .args(["--workload", def.name, "--seed", &seed.to_string()])
                    .args(["--seconds", &NOMINAL_SECONDS.to_string(), "--trace", "0"])
                    .stdout(Stdio::null())
                    .status()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                if !status.success() {
                    println!("{} seed {seed}: run failed ({status})", def.name);
                    clean = false;
                }
                let file = report::out_dir().join(format!("{}.s{seed}.json", def.name));
                docs.push(read_result(&file)?);
            }
        }
        for (a, b, label) in [
            (0, 1, "seed 42, run 1 vs run 2"),
            (2, 3, "seed 7, run 1 vs run 2"),
            (0, 2, "seed 42 vs seed 7"),
        ] {
            println!("== {}: {label}", def.name);
            clean &= print_comparison(&docs[a], &docs[b])?;
        }
    }
    println!("{}", if clean { "aa: clean" } else { "aa: FAILED" });
    Ok(clean)
}
