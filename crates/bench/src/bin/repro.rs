//! `repro` — regenerate every table and figure of the VDTuner paper.
//!
//! Usage:
//! ```text
//! repro [--iters N] [--quick | --full] [--seed S] <experiment>...
//! repro all                    # everything
//! repro fig6 fig7              # a subset
//! ```
//!
//! `repro --help` lists the experiments (the [`EXPERIMENTS`] table).
//! Output goes to stdout and to `results/*.csv`, plus machine-readable
//! `results/<experiment>.json` summaries for topology, serving,
//! replication, reactors, writepath and kernels. Exits 2 on a bad command
//! line (before running anything) and 1 when an artifact cannot be
//! written.
#![allow(
    clippy::disallowed_methods,
    reason = "wall-clock progress reporting for the CLI; bench is the timing domain"
)]

use bench::{experiments, Profile, Runs};
use std::io;
use vecdata::DatasetSpec;

/// An experiment: prints its tables, writes its artifacts. Its offline
/// tuning runs come from the invocation's one [`Runs`] memo.
type Experiment = fn(&Profile, &Runs) -> io::Result<()>;

/// Every experiment, in `repro all` order: the one place a name is bound
/// to its function.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig1", experiments::fig1),
    ("fig2", experiments::fig2),
    ("fig3", experiments::fig3),
    ("table4", experiments::table4),
    ("fig6", experiments::fig6),
    ("fig7", experiments::fig7),
    ("fig8", experiments::fig8),
    ("fig9", experiments::fig9),
    ("fig10", experiments::fig10),
    ("fig11", experiments::fig11),
    ("fig12", experiments::fig12),
    ("fig13", experiments::fig13),
    ("table5", experiments::table5),
    ("table6", experiments::table6),
    ("scale", experiments::scale),
    ("sharding", experiments::sharding),
    ("topology", experiments::topology),
    ("serving", experiments::serving),
    ("replication", experiments::replication),
    ("reactors", experiments::reactors),
    ("writepath", experiments::writepath),
    ("kernels", experiments::kernels),
];

/// The profile and experiment names a command line asks for, or the
/// message to print with the usage (empty for `--help`). `--quick` and
/// `--full` pick the base profile (the last one given wins); `--iters` and
/// `--seed` then override it wherever they stand.
fn parse_args(args: &[String]) -> Result<(Profile, Vec<&str>), String> {
    let mut profile = Profile::default();
    let (mut iters, mut seed) = (None, None);
    let mut requested: Vec<&str> = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        match arg {
            "--quick" => profile = Profile::quick(),
            "--full" => profile = Profile::full(),
            "--iters" => {
                let n = args.next().and_then(|v| v.parse().ok());
                iters = Some(n.ok_or("--iters needs a number")?);
            }
            "--seed" => {
                let s = args.next().and_then(|v| v.parse().ok());
                seed = Some(s.ok_or("--seed needs a number")?);
            }
            "--help" | "-h" => return Err(String::new()),
            other => requested.push(other),
        }
    }
    if let Some(iters) = iters {
        if iters == 0 {
            return Err("--iters must be at least 1".into());
        }
        profile.iters = iters;
        profile.pref_iters = iters;
    }
    if let Some(seed) = seed {
        profile.seed = seed;
    }
    if requested.is_empty() {
        return Err("no experiment given".into());
    }
    Ok((profile, requested))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (profile, requested) = parse_args(&args).unwrap_or_else(|msg| usage(&msg));

    // Resolve every name before running anything: a typo must not cost a
    // finished experiment.
    let list: Vec<_> = if requested.contains(&"all") {
        EXPERIMENTS.to_vec()
    } else {
        requested
            .iter()
            .map(|name| {
                *EXPERIMENTS
                    .iter()
                    .find(|(known, _)| known == name)
                    .unwrap_or_else(|| usage(&format!("unknown experiment: {name}")))
            })
            .collect()
    };

    println!(
        "VDTuner reproduction | iters={} pref_iters={} scale_iters={} seed={}",
        profile.iters, profile.pref_iters, profile.scale_iters, profile.seed
    );
    let runs = Runs::new(DatasetSpec::scaled);
    let t0 = std::time::Instant::now();
    for (exp, run) in list {
        let (te, before) = (std::time::Instant::now(), (runs.started(), runs.reused()));
        println!("\n================ {exp} ================");
        if let Err(e) = run(&profile, &runs) {
            eprintln!("error: {exp}: {e}");
            std::process::exit(1);
        }
        println!("[{exp} took {:.1}s | {}]", te.elapsed().as_secs_f64(), tally(&runs, before));
    }
    let total = tally(&runs, (0, 0));
    println!("\nAll requested experiments done in {:.1}s | {total}.", t0.elapsed().as_secs_f64());
}

/// Tuning runs started and served from the memo since `before`.
fn tally(runs: &Runs, (started, reused): (usize, usize)) -> String {
    format!("tuning runs: {} started, {} reused", runs.started() - started, runs.reused() - reused)
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: repro [--iters N] [--quick|--full] [--seed S] <experiment>...\n\
         experiments: {} all",
        names.join(" ")
    );
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<(Profile, Vec<String>), String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args).map(|(p, names)| (p, names.into_iter().map(String::from).collect()))
    }

    #[test]
    fn overrides_apply_whatever_the_flag_order() {
        let want = Profile { iters: 3, pref_iters: 3, seed: 7, ..Profile::quick() };
        for line in ["--iters 3 --seed 7 --quick fig6", "--quick fig6 --seed 7 --iters 3"] {
            assert_eq!(parse(line), Ok((want, vec!["fig6".to_string()])), "{line}");
        }
        let (full, _) = parse("--seed 9 --full table4").unwrap();
        assert_eq!(full, Profile { seed: 9, ..Profile::full() });
        let (plain, _) = parse("fig6").unwrap();
        assert_eq!(plain, Profile::default());
    }

    #[test]
    fn refuses_empty_runs_and_malformed_numbers() {
        for line in ["--iters 0 fig6", "--iters 0 --seed 7 --quick fig6"] {
            assert_eq!(parse(line), Err("--iters must be at least 1".to_string()), "{line}");
        }
        assert!(parse("--iters x fig6").is_err());
        assert!(parse("--seed").is_err());
        assert_eq!(parse("--iters 2"), Err("no experiment given".to_string()));
        assert_eq!(parse("--help fig6"), Err(String::new()));
    }
}
