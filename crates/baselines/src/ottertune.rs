//! OtterTune-style baseline: single-objective Gaussian-process optimization
//! (Van Aken et al., SIGMOD'17) extended with the weighted-sum reward over
//! search speed and recall, as the paper does to make it tune a VDMS.

use crate::weighted_reward;
use gp::{fit_gp, FitOptions};
use mobo::acquisition::expected_improvement;
use mobo::optimize::{argmax_acquisition, candidate_pool, local_refine, CandidateOptions};
use mobo::sampling::latin_hypercube;
use vdms::VdmsConfig;
use vdtuner_core::space::SpaceSpec;
use vecdata::rng::derive;
use workload::{Observation, Tuner};

/// Single-objective GP-BO with EI over the weighted-sum reward.
pub struct OtterTuneStyle {
    space: SpaceSpec,
    seed: u64,
    init: Vec<Vec<f64>>,
    iter: u64,
}

impl OtterTuneStyle {
    /// `init_samples` = 10 in the paper's setup.
    pub fn new(seed: u64, init_samples: usize) -> OtterTuneStyle {
        OtterTuneStyle::with_space(SpaceSpec::legacy(), seed, init_samples)
    }

    /// GP-BO over an arbitrary tuning space (e.g. with the topology
    /// dimension).
    pub fn with_space(space: SpaceSpec, seed: u64, init_samples: usize) -> OtterTuneStyle {
        let init = latin_hypercube(init_samples, space.dims(), derive(seed, 0x0771));
        OtterTuneStyle { space, seed, init, iter: 0 }
    }
}

impl Tuner for OtterTuneStyle {
    fn name(&self) -> &str {
        "OtterTune"
    }

    fn propose(&mut self, history: &[Observation]) -> VdmsConfig {
        self.iter += 1;
        if let Some(u) = self.init.first().cloned() {
            self.init.remove(0);
            return self.space.decode(&u).expect("init designs span the full space");
        }
        if history.is_empty() {
            return self.space.seed_default();
        }

        // Fit the reward GP on all observations.
        let x: Vec<Vec<f64>> = history.iter().map(|o| self.space.encode(&o.config)).collect();
        let y: Vec<f64> =
            history.iter().map(|o| weighted_reward(history, o.qps, o.recall)).collect();
        let gp = fit_gp(&x, &y, &FitOptions::default());
        let best = y.iter().copied().fold(f64::MIN, f64::max);

        // Incumbent = best-reward configuration.
        let best_idx =
            y.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).unwrap_or(0);
        let incumbents = vec![x[best_idx].clone()];
        let pool = candidate_pool(
            self.space.dims(),
            &incumbents,
            &CandidateOptions::default(),
            derive(self.seed, self.iter),
        );
        let acq = |c: &[f64]| expected_improvement(&gp.predict(c), best);
        match argmax_acquisition(&pool, acq)
            .map(|(u, v)| local_refine(acq, &u, v, 3, 24, derive(self.seed, 0x07 + self.iter)))
        {
            Some((u, _)) => self.space.decode(&u).expect("pool candidates span the full space"),
            None => self.space.seed_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecdata::{DatasetKind, DatasetSpec};
    use workload::{run_tuner, Evaluator, Workload};

    #[test]
    fn init_phase_is_lhs() {
        let mut t = OtterTuneStyle::new(5, 4);
        let c1 = t.propose(&[]);
        let c2 = t.propose(&[]);
        assert_ne!(c1.summary(), c2.summary());
    }

    #[test]
    fn runs_end_to_end() {
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        let mut ev = Evaluator::new(&w, 1);
        let mut t = OtterTuneStyle::new(5, 3);
        run_tuner(&mut t, &mut ev, 6, 1);
        assert_eq!(ev.len(), 6);
        assert!(ev.history().iter().any(|o| !o.failed));
    }
}
