//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§V). See `src/bin/repro.rs` for the CLI; the README
//! ("Building, testing, reproducing" and the per-feature sections) records
//! what the checked-in `results/` show.
//!
//! Every tuning run starts in [`Runs::tune`]. The offline runs the paper's
//! figures share go through [`Runs::outcomes`], a memo over one `repro`
//! invocation, so each (method, dataset, shard count, budget, seed) tunes
//! once however many experiments report on it.
#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "bench is the wall-clock and I/O domain (real timing, host calibration, the `results/` artifacts it writes), and its hash maps are lookups whose order reaches no result"
)]

#[allow(
    unsafe_code,
    reason = "the raw `sched_{get,set}affinity` syscalls: the one place outside `vecdata::kernel` that may use `unsafe`"
)]
pub mod affinity;
pub mod comparison;
pub mod cotuning;
pub mod experiments;
pub mod report;

use anns::params::IndexType;
use baselines::{OpenTunerStyle, OtterTuneStyle, QehviTuner, RandomLhs};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use vdms::cluster::ClusterSpec;
use vdtuner_core::{
    BudgetAllocation, SpaceSpec, SurrogateKind, TunerMode, TunerOptions, TuningOutcome, VdTuner,
};
use vecdata::{DatasetKind, DatasetSpec};
use workload::{run_tuner, EvalBackend, Evaluator, SimBackend, Tuner, Workload};

/// The five tuning methods of §V-A, then the VDTuner ablations of Figs. 8,
/// 10 and 13: every arm the [`Runs`] memo serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    VdTuner,
    Random,
    OpenTuner,
    OtterTune,
    Qehvi,
    /// Round-robin budget allocation instead of successive abandon.
    RoundRobin,
    /// One native surrogate instead of polling.
    Native,
    /// Cost-effectiveness (QP$) instead of search speed.
    CostEffective,
}

impl Method {
    pub const ALL: [Method; 5] =
        [Method::VdTuner, Method::Random, Method::OpenTuner, Method::OtterTune, Method::Qehvi];

    pub fn name(&self) -> &'static str {
        match self {
            Method::Random => "Random",
            Method::OpenTuner => "OpenTuner",
            Method::OtterTune => "OtterTune",
            Method::Qehvi => "qEHVI",
            _ => "VDTuner",
        }
    }

    /// The tuner this method starts for a run of `iters` evaluations.
    pub fn arm(self, iters: usize) -> Arm {
        let mut options = vdtuner_paper_options(iters);
        match self {
            Method::Random => return Arm::Random,
            Method::OpenTuner => return Arm::OpenTuner,
            Method::OtterTune => return Arm::OtterTune,
            Method::Qehvi => return Arm::Qehvi,
            Method::VdTuner => {}
            Method::RoundRobin => options.budget = BudgetAllocation::RoundRobin,
            Method::Native => options.surrogate = SurrogateKind::Native,
            Method::CostEffective => options.mode = TunerMode::CostEffective,
        }
        Arm::VdTuner(options)
    }
}

/// What [`Runs::tune`] starts: VDTuner under some options, or a baseline of §V-A
/// (OtterTune and qEHVI with 10 LHS initial samples).
pub enum Arm {
    VdTuner(TunerOptions),
    Random,
    OpenTuner,
    OtterTune,
    Qehvi,
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
    TunerOptions { budget: BudgetAllocation::SuccessiveAbandon { window }, ..Default::default() }
}

/// What an experiment asks [`Runs::outcomes`] for: `method` tuning the
/// paper's 16-dim space on `dataset`, served by a fixed cluster of
/// `shards` query nodes ([`ClusterSpec::new`]). One shard is the paper's
/// single node, and `(method, dataset)` requests exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    pub method: Method,
    pub dataset: DatasetKind,
    pub shards: usize,
}

impl From<(Method, DatasetKind)> for Request {
    fn from((method, dataset): (Method, DatasetKind)) -> Request {
        Request { method, dataset, shards: 1 }
    }
}

/// One offline ([`SimBackend`]) tuning run: a [`Request`] at a budget and
/// seed, `(request, iters, seed)`. Plain data, so it keys the memo.
type Key = (Request, usize, u64);

/// The tuning runs of one `repro` invocation: each offline (method,
/// dataset, shards, iters, seed) tunes once however many experiments ask
/// for it, and each dataset's [`Workload`] is prepared once.
pub struct Runs {
    spec: fn(DatasetKind) -> DatasetSpec,
    /// One slot per [`DatasetKind`], indexed by `kind as usize`.
    workloads: [OnceLock<Workload>; 5],
    outcomes: Mutex<HashMap<Key, Arc<TuningOutcome>>>,
    started: AtomicUsize,
    reused: AtomicUsize,
}

impl Runs {
    /// A memo over the datasets `spec` describes (`DatasetSpec::scaled` for
    /// the paper's), top-100 as in §V-A.
    pub fn new(spec: fn(DatasetKind) -> DatasetSpec) -> Runs {
        let (workloads, outcomes, started, reused) = Default::default();
        Runs { spec, workloads, outcomes, started, reused }
    }

    /// Run `arm` over `space` against `backend` for `iters` evaluations:
    /// the one place a tuner is built and driven. VDTuner evaluates under
    /// its own derived seed ([`VdTuner::run_batched_on`]); a baseline under `seed`.
    pub fn tune<B: EvalBackend>(
        &self,
        arm: Arm,
        space: SpaceSpec,
        backend: B,
        iters: usize,
        seed: u64,
    ) -> TuningOutcome {
        self.started.fetch_add(1, Ordering::Relaxed);
        let mut tuner: Box<dyn Tuner> = match arm {
            Arm::VdTuner(options) => {
                return VdTuner::with_space(options, space, seed).run_batched_on(backend, iters, 1)
            }
            Arm::Random => Box::new(RandomLhs::with_space(space, seed)),
            Arm::OpenTuner => Box::new(OpenTunerStyle::with_space(space, seed)),
            Arm::OtterTune => Box::new(OtterTuneStyle::with_space(space, seed, 10)),
            Arm::Qehvi => Box::new(QehviTuner::with_space(space, seed, 10)),
        };
        let mut ev = Evaluator::with_backend(backend, seed);
        run_tuner(tuner.as_mut(), &mut ev, iters, 1);
        TuningOutcome::from_evaluator(tuner.name().to_string(), &ev, Vec::new())
    }

    /// The prepared workload of `kind`.
    pub fn workload(&self, kind: DatasetKind) -> &Workload {
        self.workloads[kind as usize].get_or_init(|| Workload::paper_default((self.spec)(kind)))
    }

    fn memo(&self) -> MutexGuard<'_, HashMap<Key, Arc<TuningOutcome>>> {
        self.outcomes.lock().expect("no thread panics while holding the memo")
    }

    /// The outcomes of `arms` — [`Request`]s, or `(method, dataset)` pairs
    /// on the single node — at `profile`'s budget and seed, in order; the
    /// ones not yet run tune in parallel first.
    pub fn outcomes<A: Copy + Into<Request>>(
        &self,
        profile: &Profile,
        arms: &[A],
    ) -> Vec<Arc<TuningOutcome>> {
        let keys: Vec<Key> =
            arms.iter().map(|&a| (a.into(), profile.iters, profile.seed)).collect();
        let mut missing: Vec<Key> = Vec::new();
        for key in &keys {
            if !self.memo().contains_key(key) && !missing.contains(key) {
                missing.push(*key);
            }
        }
        let fresh = run_parallel(missing.clone(), |&(request, iters, seed)| {
            let spec = ClusterSpec::new(request.shards);
            let backend = SimBackend::with_spec(self.workload(request.dataset), spec);
            self.tune(request.method.arm(iters), SpaceSpec::legacy(), backend, iters, seed)
        });
        self.reused.fetch_add(keys.len() - missing.len(), Ordering::Relaxed);
        let mut memo = self.memo();
        memo.extend(missing.into_iter().zip(fresh.into_iter().map(Arc::new)));
        keys.iter().map(|key| Arc::clone(&memo[key])).collect()
    }

    /// Tuning runs started: memo misses and direct [`Runs::tune`] calls.
    pub fn started(&self) -> usize {
        self.started.load(Ordering::Relaxed)
    }

    /// Requests this memo served without tuning.
    pub fn reused(&self) -> usize {
        self.reused.load(Ordering::Relaxed)
    }
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
    use DatasetKind::Glove;

    /// A profile of `iters` evaluations per run under `seed`.
    fn at(iters: usize, seed: u64) -> Profile {
        Profile { iters, seed, ..Profile::quick() }
    }

    #[test]
    fn tune_produces_history() {
        let runs = Runs::new(DatasetSpec::tiny);
        let w = Workload::prepare(DatasetSpec::tiny(Glove), 10);
        for m in [Method::Random, Method::VdTuner] {
            let out = runs.tune(m.arm(8), SpaceSpec::legacy(), SimBackend::new(&w), 8, 1);
            assert_eq!(out.observations.len(), 8, "{}", m.name());
        }
    }

    #[test]
    fn a_one_shard_request_is_the_single_node_run() {
        let runs = Runs::new(DatasetSpec::tiny);
        let request = |shards| Request { method: Method::Random, dataset: Glove, shards };
        let single = runs.outcomes(&at(6, 1), &[(Method::Random, Glove)]);
        let one = runs.outcomes(&at(6, 1), &[request(1)]);
        assert!(Arc::ptr_eq(&single[0], &one[0]));
        assert_eq!((runs.started(), runs.reused()), (1, 1));
        let two = runs.outcomes(&at(6, 1), &[request(2)]);
        let again = runs.outcomes(&at(6, 1), &[request(2)]);
        assert!(Arc::ptr_eq(&two[0], &again[0]));
        assert_eq!((runs.started(), runs.reused()), (2, 2));
        let w = runs.workload(Glove);
        let backend = SimBackend::with_spec(w, ClusterSpec::new(2));
        let direct = runs.tune(Arm::Random, SpaceSpec::legacy(), backend, 6, 1);
        assert_eq!(two[0].fingerprint(|c| c), direct.fingerprint(|c| c));
        assert!(two[0].observations.iter().any(|o| !o.failed));
    }

    #[test]
    fn parallel_matches_serial() {
        let runs = Runs::new(DatasetSpec::tiny);
        let w = runs.workload(Glove);
        let serial = runs.tune(Arm::Random, SpaceSpec::legacy(), SimBackend::new(w), 6, 2);
        let par = runs.outcomes(&at(6, 2), &[(Method::Random, Glove), (Method::Qehvi, Glove)]);
        assert_eq!(serial.fingerprint(|c| c), par[0].fingerprint(|c| c));
    }

    #[test]
    fn the_memo_never_changes_a_result() {
        let runs = Runs::new(DatasetSpec::tiny);
        runs.outcomes(&at(8, 5), &[(Method::Random, Glove)]);
        runs.outcomes(&at(8, 6), &[(Method::VdTuner, Glove)]);
        let memo = runs.outcomes(&at(8, 5), &[(Method::Qehvi, Glove), (Method::VdTuner, Glove)]);
        let w = runs.workload(Glove);
        let direct =
            runs.tune(Method::VdTuner.arm(8), SpaceSpec::legacy(), SimBackend::new(w), 8, 5);
        assert_eq!(memo[1].fingerprint(|c| c), direct.fingerprint(|c| c));
        // Served again, the memo hands back the same run.
        assert!(Arc::ptr_eq(&memo[1], &runs.outcomes(&at(8, 5), &[(Method::VdTuner, Glove)])[0]));
    }

    #[test]
    fn a_key_two_experiments_request_starts_once() {
        let runs = Runs::new(DatasetSpec::tiny);
        let (random, open) = ((Method::Random, Glove), (Method::OpenTuner, Glove));
        runs.outcomes(&at(4, 7), &[random, open]);
        assert_eq!((runs.started(), runs.reused()), (2, 0));
        runs.outcomes(&at(4, 7), &[random]);
        runs.outcomes(&at(4, 8), &[random, open]);
        assert_eq!((runs.started(), runs.reused()), (4, 1));
    }

    #[test]
    fn sacrifice_floors() {
        assert!((recall_floor(0.15) - 0.85).abs() < 1e-12);
        assert!((recall_floor(0.01) - 0.99).abs() < 1e-12);
    }
}
