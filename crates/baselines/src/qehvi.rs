//! Vanilla qEHVI baseline (Daulton et al., NeurIPS'20): multi-objective BO
//! with Monte-Carlo expected hypervolume improvement over the raw
//! objectives, a zero reference point (the paper's setting), and 10 LHS
//! initial samples. Unlike VDTuner it has no polling structure, no NPI
//! normalization, and no budget allocation — the index type is just another
//! input dimension.

use gp::{fit_gp_on, FitOptions, TrainingInputs};
use mobo::acquisition::ehvi_mc;
use mobo::optimize::{argmax_acquisition, candidate_pool, local_refine, CandidateOptions};
use mobo::pareto::non_dominated_indices;
use mobo::sampling::latin_hypercube;
use vdms::VdmsConfig;
use vdtuner_core::space::SpaceSpec;
use vecdata::rng::{derive, rng, standard_normal};
use workload::{Observation, Tuner};

/// Standard MOBO with MC-EHVI.
pub struct QehviTuner {
    space: SpaceSpec,
    seed: u64,
    init: Vec<Vec<f64>>,
    iter: u64,
    mc_samples: usize,
    fit: FitOptions,
    candidates: CandidateOptions,
}

impl QehviTuner {
    pub fn new(seed: u64, init_samples: usize) -> QehviTuner {
        QehviTuner::with_space(SpaceSpec::legacy(), seed, init_samples)
    }

    /// qEHVI over an arbitrary tuning space (e.g. with the topology
    /// dimension).
    pub fn with_space(space: SpaceSpec, seed: u64, init_samples: usize) -> QehviTuner {
        let init = latin_hypercube(init_samples, space.dims(), derive(seed, 0x0E51));
        QehviTuner {
            space,
            seed,
            init,
            iter: 0,
            mc_samples: 64,
            fit: FitOptions::default(),
            candidates: CandidateOptions::default(),
        }
    }
}

impl Tuner for QehviTuner {
    fn name(&self) -> &str {
        "qEHVI"
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

        let x: Vec<Vec<f64>> = history.iter().map(|o| self.space.encode(&o.config)).collect();
        // Scale raw objectives to comparable magnitudes before fitting and
        // HV computation (recall is in [0,1], QPS in the thousands).
        let max_qps = history.iter().map(|o| o.qps).fold(1e-9, f64::max);
        let y_speed: Vec<f64> = history.iter().map(|o| o.qps / max_qps).collect();
        let y_recall: Vec<f64> = history.iter().map(|o| o.recall).collect();
        let inputs = TrainingInputs::new(&x);
        let gp_speed = fit_gp_on(&inputs, &y_speed, &self.fit);
        let gp_recall = fit_gp_on(&inputs, &y_recall, &self.fit);

        let pairs: Vec<[f64; 2]> = y_speed.iter().zip(&y_recall).map(|(&s, &r)| [s, r]).collect();
        let front: Vec<[f64; 2]> =
            non_dominated_indices(&pairs).into_iter().map(|i| pairs[i]).collect();
        // "The reference point of qEHVI is set to zero for each objective by
        // default." (§V-A)
        let reference = [0.0, 0.0];

        let incumbents: Vec<Vec<f64>> =
            non_dominated_indices(&pairs).into_iter().take(3).map(|i| x[i].clone()).collect();
        let pool = candidate_pool(
            self.space.dims(),
            &incumbents,
            &self.candidates,
            derive(self.seed, self.iter),
        );
        let mut zrng = rng(derive(self.seed, 0xE0 + self.iter));
        let z_pairs: Vec<(f64, f64)> = (0..self.mc_samples)
            .map(|_| (standard_normal(&mut zrng), standard_normal(&mut zrng)))
            .collect();

        let acq = |c: &[f64]| {
            let ps = gp_speed.predict(c);
            let pr = gp_recall.predict(c);
            ehvi_mc(&ps, &pr, &front, &reference, &z_pairs)
        };
        match argmax_acquisition(&pool, acq)
            .map(|(u, v)| local_refine(acq, &u, v, 3, 24, derive(self.seed, 0xF0 + self.iter)))
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
    fn runs_end_to_end() {
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        let mut ev = Evaluator::new(&w, 1);
        let mut t = QehviTuner::new(5, 3);
        run_tuner(&mut t, &mut ev, 6);
        assert_eq!(ev.len(), 6);
    }

    #[test]
    fn deterministic() {
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        let run = |seed| {
            let mut ev = Evaluator::new(&w, 1);
            let mut t = QehviTuner::new(seed, 3);
            run_tuner(&mut t, &mut ev, 5);
            ev.history().iter().map(|o| o.config.summary()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }
}
