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
// Wall-clock progress reporting for the CLI; bench is the timing domain.
#![allow(clippy::disallowed_methods)]

use bench::{experiments, Profile};
use std::io;

/// An experiment: prints its tables, writes its artifacts.
type Experiment = fn(&Profile) -> io::Result<()>;

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = Profile::default();
    let mut requested: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => profile = Profile::quick(),
            "--full" => profile = Profile::full(),
            "--iters" => {
                i += 1;
                profile.iters = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--iters needs a number"));
                profile.pref_iters = profile.iters;
            }
            "--seed" => {
                i += 1;
                profile.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--help" | "-h" => usage(""),
            other => requested.push(other),
        }
        i += 1;
    }
    if requested.is_empty() {
        usage("no experiment given");
    }

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
    let t0 = std::time::Instant::now();
    for (exp, run) in list {
        let te = std::time::Instant::now();
        println!("\n================ {exp} ================");
        if let Err(e) = run(&profile) {
            eprintln!("error: {exp}: {e}");
            std::process::exit(1);
        }
        println!("[{exp} took {:.1}s]", te.elapsed().as_secs_f64());
    }
    println!("\nAll requested experiments done in {:.1}s.", t0.elapsed().as_secs_f64());
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
