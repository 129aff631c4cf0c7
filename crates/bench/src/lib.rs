//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§V). See `src/bin/repro.rs` for the CLI; the README
//! ("Building, testing, reproducing" and the per-feature sections) records
//! what the checked-in `results/` show.
// bench is the designated wall-clock domain (real timing, calibration) and
// its affinity maps never reach tuning results — see clippy.toml / lint R2+R3.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod affinity;
pub mod cotuning;
pub mod experiments;
pub mod report;

use anns::params::IndexType;
use baselines::{OpenTunerStyle, OtterTuneStyle, QehviTuner, RandomLhs};
use vdtuner_core::{TunerOptions, TuningOutcome, VdTuner};
use vecdata::DatasetSpec;
use workload::{run_tuner, EvalBackend, Evaluator, SimBackend, Workload};

/// The five tuning methods of §V-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    VdTuner,
    Random,
    OpenTuner,
    OtterTune,
    Qehvi,
}

impl Method {
    pub const ALL: [Method; 5] =
        [Method::VdTuner, Method::Random, Method::OpenTuner, Method::OtterTune, Method::Qehvi];

    pub fn name(&self) -> &'static str {
        match self {
            Method::VdTuner => "VDTuner",
            Method::Random => "Random",
            Method::OpenTuner => "OpenTuner",
            Method::OtterTune => "OtterTune",
            Method::Qehvi => "qEHVI",
        }
    }
}

/// Experiment sizing. The default profile finishes the full suite in
/// minutes; `--full` restores the paper's 200-iteration budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Evaluations per tuning run (the paper uses 200).
    pub iters: usize,
    /// Evaluations per phase in the user-preference experiment (Fig. 12).
    pub pref_iters: usize,
    /// Evaluations per run in the scalability experiment (§V-E).
    pub scale_iters: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Profile {
    fn default() -> Self {
        Profile { iters: 100, pref_iters: 60, scale_iters: 24, seed: 20_240_416 }
    }
}

impl Profile {
    /// The paper's full budget (200 iterations per run).
    pub fn full() -> Profile {
        Profile { iters: 200, pref_iters: 200, scale_iters: 60, ..Default::default() }
    }

    /// A smoke-test profile for CI.
    pub fn quick() -> Profile {
        Profile { iters: 14, pref_iters: 10, scale_iters: 8, ..Default::default() }
    }
}

/// VDTuner options used in the main evaluation (paper §V-A settings).
///
/// The paper's abandonment window of 10 iterations is tied to its
/// 200-iteration budget; at reduced budgets the window scales
/// proportionally (10/200 of the run, floor 3) so successive abandon can
/// actually fire.
pub fn vdtuner_paper_options(iters: usize) -> TunerOptions {
    let window = (iters / 20).clamp(3, 10);
    TunerOptions {
        budget: vdtuner_core::BudgetAllocation::SuccessiveAbandon { window },
        ..Default::default()
    }
}

/// Run one method against a prepared workload (single-node simulator).
pub fn run_method(method: Method, workload: &Workload, iters: usize, seed: u64) -> TuningOutcome {
    run_method_on(method, SimBackend::new(workload), iters, seed)
}

/// Run one method against an arbitrary evaluation backend (sharded
/// cluster, live system, ...). [`run_method`] is this over [`SimBackend`].
pub fn run_method_on<B: EvalBackend>(
    method: Method,
    backend: B,
    iters: usize,
    seed: u64,
) -> TuningOutcome {
    match method {
        Method::VdTuner => {
            let mut t = VdTuner::new(vdtuner_paper_options(iters), seed);
            t.run_on(backend, iters)
        }
        Method::Random => {
            let mut t = RandomLhs::new(seed);
            let mut ev = Evaluator::with_backend(backend, seed);
            run_tuner(&mut t, &mut ev, iters);
            TuningOutcome::from_evaluator(t_name(&t), &ev, Vec::new())
        }
        Method::OpenTuner => {
            let mut t = OpenTunerStyle::new(seed);
            let mut ev = Evaluator::with_backend(backend, seed);
            run_tuner(&mut t, &mut ev, iters);
            TuningOutcome::from_evaluator(t_name(&t), &ev, Vec::new())
        }
        Method::OtterTune => {
            // 10 LHS initial samples, as in §V-A.
            let mut t = OtterTuneStyle::new(seed, 10);
            let mut ev = Evaluator::with_backend(backend, seed);
            run_tuner(&mut t, &mut ev, iters);
            TuningOutcome::from_evaluator(t_name(&t), &ev, Vec::new())
        }
        Method::Qehvi => {
            let mut t = QehviTuner::new(seed, 10);
            let mut ev = Evaluator::with_backend(backend, seed);
            run_tuner(&mut t, &mut ev, iters);
            TuningOutcome::from_evaluator(t_name(&t), &ev, Vec::new())
        }
    }
}

fn t_name<T: workload::Tuner>(t: &T) -> String {
    t.name().to_string()
}

/// Run a VDTuner variant (for the Figure 8 ablations and Figure 12/13
/// modes).
pub fn run_vdtuner_variant(
    workload: &Workload,
    iters: usize,
    seed: u64,
    mutate: impl FnOnce(&mut TunerOptions),
) -> TuningOutcome {
    let mut opts = vdtuner_paper_options(iters);
    mutate(&mut opts);
    let mut t = VdTuner::new(opts, seed);
    let mut out = t.run(workload, iters);
    out.score_trace = t.score_trace().to_vec();
    out
}

/// Run several independent tuning jobs in parallel (one thread each; the
/// workloads and tuners are deterministic, so parallelism does not change
/// any result).
pub fn run_parallel<J, R>(jobs: Vec<J>, f: impl Fn(&J) -> R + Sync) -> Vec<R>
where
    J: Send + Sync,
    R: Send,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|job| {
                let f = &f;
                s.spawn(move || f(job))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("experiment thread panicked")).collect()
    })
}

/// Prepared workloads for the main three datasets (Table III), top-100 as
/// in §V-A.
pub fn main_workloads() -> Vec<Workload> {
    vecdata::DatasetKind::main_three()
        .into_iter()
        .map(|k| Workload::paper_default(DatasetSpec::scaled(k)))
        .collect()
}

/// Recall "sacrifice" grid of Figures 6/8/13: floors 0.85 … 0.99.
pub const SACRIFICES: [f64; 7] = [0.15, 0.125, 0.1, 0.075, 0.05, 0.025, 0.01];

/// Recall floors corresponding to [`SACRIFICES`].
pub fn recall_floor(sacrifice: f64) -> f64 {
    1.0 - sacrifice
}

/// Default index types referenced across motivation figures.
pub fn motivation_types() -> [IndexType; 3] {
    [IndexType::Flat, IndexType::Hnsw, IndexType::IvfFlat]
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecdata::DatasetKind;

    #[test]
    fn run_method_produces_history() {
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        for m in [Method::Random, Method::VdTuner] {
            let out = run_method(m, &w, 8, 1);
            assert_eq!(out.observations.len(), 8, "{}", m.name());
        }
    }

    #[test]
    fn run_method_on_sharded_backend_produces_history() {
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        let out = run_method_on(Method::Random, workload::ShardedSimBackend::new(&w, 2), 6, 1);
        assert_eq!(out.observations.len(), 6);
        assert!(out.observations.iter().any(|o| !o.failed));
    }

    #[test]
    fn parallel_matches_serial() {
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        let serial = run_method(Method::Random, &w, 6, 2);
        let par = run_parallel(vec![Method::Random], |m| run_method(*m, &w, 6, 2));
        assert_eq!(
            serial.observations.last().unwrap().config.summary(),
            par[0].observations.last().unwrap().config.summary()
        );
    }

    #[test]
    fn sacrifice_floors() {
        assert!((recall_floor(0.15) - 0.85).abs() < 1e-12);
        assert!((recall_floor(0.01) - 0.99).abs() < 1e-12);
    }
}
