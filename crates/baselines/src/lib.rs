//! Baseline auto-configuration methods the paper compares against (§V-A).
//!
//! All baselines operate on the same holistic encoded space as VDTuner —
//! the paper "hypothetically assumes the index type as a searching
//! dimension to make the baselines suitable for optimizing multiple
//! indexes simultaneously". Each baseline takes the space as data (a
//! `SpaceSpec`): the default constructors use the paper's 16 dimensions,
//! and every baseline also offers a `with_space` constructor for extended
//! spaces (e.g. topology-as-a-knob):
//!
//! * [`random_lhs`] — Latin-hypercube random search (the paper's `Random`),
//! * [`opentuner`] — an OpenTuner-style ensemble of numerical techniques
//!   coordinated by an AUC-bandit meta-technique, rewarded with the
//!   weighted sum of normalized speed and recall,
//! * [`ottertune`] — an OtterTune-style single-objective GP-BO over the
//!   weighted-sum reward, initialized with 10 LHS samples,
//! * [`qehvi`] — vanilla multi-objective BO with Monte-Carlo EHVI and a
//!   zero reference point, initialized with 10 LHS samples.
#![deny(unsafe_code)]

pub mod opentuner;
pub mod ottertune;
pub mod qehvi;
pub mod random_lhs;

pub use opentuner::OpenTunerStyle;
pub use ottertune::OtterTuneStyle;
pub use qehvi::QehviTuner;
pub use random_lhs::RandomLhs;

use workload::Observation;

/// Weighted-sum reward used by the single-objective baselines (OpenTuner,
/// OtterTune): equal weights on speed and recall, each normalized by the
/// best value observed so far so neither objective dominates numerically.
pub fn weighted_reward(history: &[Observation], qps: f64, recall: f64) -> f64 {
    let max_qps = history.iter().map(|o| o.qps).fold(qps, f64::max).max(1e-9);
    let max_recall = history.iter().map(|o| o.recall).fold(recall, f64::max).max(1e-9);
    0.5 * qps / max_qps + 0.5 * recall / max_recall
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdms::cluster::ClusterSpec;
    use vecdata::{DatasetKind, DatasetSpec};
    use workload::{run_tuner, Evaluator, SimBackend, Tuner, Workload};

    #[test]
    fn weighted_reward_balances_objectives() {
        let r_best = weighted_reward(&[], 100.0, 1.0);
        assert!((r_best - 1.0).abs() < 1e-12, "sole observation is the max of both");
    }

    #[test]
    fn every_baseline_runs_against_the_sharded_backend() {
        // The baselines only see the `Tuner` trait and the evaluator, so
        // swapping the backend must be transparent to all four of them.
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        let tuners: Vec<Box<dyn Tuner>> = vec![
            Box::new(RandomLhs::new(5)),
            Box::new(OpenTunerStyle::new(5)),
            Box::new(OtterTuneStyle::new(5, 2)),
            Box::new(QehviTuner::new(5, 2)),
        ];
        for mut t in tuners {
            let mut ev = Evaluator::with_backend(SimBackend::with_spec(&w, ClusterSpec::new(2)), 5);
            run_tuner(t.as_mut(), &mut ev, 4, 1);
            assert_eq!(ev.len(), 4, "{}", t.name());
            assert!(ev.history().iter().any(|o| !o.failed), "{}", t.name());
        }
    }

    #[test]
    fn every_baseline_co_tunes_topology_with_the_extended_space() {
        // With the 17-dimensional spec every baseline emits candidates the
        // space's backend accepts (shard request included) — nothing is
        // rejected by the evaluator's space gate.
        use vdtuner_core::SpaceSpec;
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        let space = || SpaceSpec::with_topology(4);
        let tuners: Vec<Box<dyn Tuner>> = vec![
            Box::new(RandomLhs::with_space(space(), 5)),
            Box::new(OpenTunerStyle::with_space(space(), 5)),
            Box::new(OtterTuneStyle::with_space(space(), 5, 2)),
            Box::new(QehviTuner::with_space(space(), 5, 2)),
        ];
        for mut t in tuners {
            let mut ev = Evaluator::with_backend(space().backend(&w), 5);
            run_tuner(t.as_mut(), &mut ev, 4, 1);
            assert_eq!(ev.len(), 4, "{}", t.name());
            for o in ev.history() {
                assert!(o.config.shards.is_some(), "{}: {}", t.name(), o.config.summary());
            }
            assert!(ev.history().iter().any(|o| !o.failed), "{}", t.name());
        }
    }
}
