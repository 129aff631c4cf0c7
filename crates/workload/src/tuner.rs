//! The tuner interface shared by VDTuner and all baselines, plus the driver
//! loop that times recommendations (Table VI's breakdown).

use crate::backend::EvalBackend;
use crate::runner::{Evaluator, Observation};
use std::time::Instant;
use vdms::VdmsConfig;

/// A sequential configuration tuner.
///
/// The driver calls [`Tuner::propose`] with the full evaluation history,
/// evaluates the returned configuration, then reports it back through
/// [`Tuner::observe`]. All tuners in the workspace (VDTuner, Random/LHS,
/// OpenTuner-style, OtterTune-style, qEHVI) implement this trait so the
/// repro harness can run them interchangeably.
pub trait Tuner {
    /// Short display name used in reports ("VDTuner", "Random", ...).
    fn name(&self) -> &str;

    /// Recommend the next configuration to evaluate.
    fn propose(&mut self, history: &[Observation]) -> VdmsConfig;

    /// Recommend `q` configurations to evaluate concurrently.
    ///
    /// The default draws `q` sequential proposals against the same history:
    /// stochastic tuners (Random/LHS, OpenTuner's ensemble) naturally
    /// diversify because their internal RNG state advances per call, so
    /// every baseline works batched out of the box. Model-based tuners
    /// should override this with a fantasy scheme (VDTuner uses a
    /// kriging-believer loop) to avoid proposing near-duplicates.
    fn propose_batch(&mut self, history: &[Observation], q: usize) -> Vec<VdmsConfig> {
        (0..q).map(|_| self.propose(history)).collect()
    }

    /// Feedback hook after the proposal was evaluated. Default: no-op.
    fn observe(&mut self, _obs: &Observation) {}
}

/// Run `tuner` for `iterations` evaluations against `evaluator` (over any
/// evaluation backend): per step, ask for up to `q` candidates and evaluate
/// them concurrently via [`Evaluator::observe_batch`], timing each
/// proposal (Table VI's recommendation time). Exactly `iterations`
/// evaluations are performed in total (the final batch is truncated);
/// `q = 1` is the paper's sequential loop.
pub fn run_tuner<T: Tuner + ?Sized, B: EvalBackend>(
    tuner: &mut T,
    evaluator: &mut Evaluator<B>,
    iterations: usize,
    q: usize,
) {
    let q = q.max(1);
    let mut remaining = iterations;
    while remaining > 0 {
        let batch = q.min(remaining);
        // lint:allow(wall-clock): Table VI recommendation-time bookkeeping —
        // measures the tuner's own thinking time, never feeds sim results.
        #[allow(clippy::disallowed_methods)]
        let t0 = Instant::now();
        let configs = tuner.propose_batch(evaluator.history(), batch);
        assert_eq!(configs.len(), batch, "tuner must return exactly q candidates");
        let recommend_secs = t0.elapsed().as_secs_f64();
        for obs in evaluator.observe_batch(&configs, recommend_secs) {
            tuner.observe(&obs);
        }
        remaining -= batch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;
    use vecdata::{DatasetKind, DatasetSpec};

    struct FixedTuner;

    impl Tuner for FixedTuner {
        fn name(&self) -> &str {
            "Fixed"
        }
        fn propose(&mut self, _history: &[Observation]) -> VdmsConfig {
            VdmsConfig::default_config()
        }
    }

    #[test]
    fn driver_runs_and_times() {
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        let mut ev = Evaluator::new(&w, 3);
        let mut t = FixedTuner;
        run_tuner(&mut t, &mut ev, 3, 1);
        assert_eq!(ev.len(), 3);
        assert!(ev.history().iter().all(|o| o.recommend_secs >= 0.0));
    }

    #[test]
    fn default_propose_batch_returns_q_candidates() {
        let mut t = FixedTuner;
        let batch = t.propose_batch(&[], 4);
        assert_eq!(batch.len(), 4);
    }

    #[test]
    fn batched_driver_hits_exact_iteration_budget() {
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        let mut ev = Evaluator::new(&w, 3);
        let mut t = FixedTuner;
        // 7 iterations at q=3 -> batches of 3, 3, 1.
        run_tuner(&mut t, &mut ev, 7, 3);
        assert_eq!(ev.len(), 7);
        let iters: Vec<usize> = ev.history().iter().map(|o| o.iter).collect();
        assert_eq!(iters, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn drivers_run_against_any_backend() {
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        let backend = crate::backend::SimBackend::with_spec(&w, vdms::cluster::ClusterSpec::new(2));
        let mut ev = Evaluator::with_backend(backend, 3);
        run_tuner(&mut FixedTuner, &mut ev, 2, 1);
        run_tuner(&mut FixedTuner, &mut ev, 4, 2);
        assert_eq!(ev.len(), 6);
        assert!(ev.history().iter().all(|o| !o.failed));
    }
}
