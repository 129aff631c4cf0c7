//! OpenTuner-style baseline (Ansel et al., PACT'14): an ensemble of
//! numerical search techniques coordinated by an AUC-bandit meta-technique.
//! The reward is the weighted sum of normalized search speed and recall,
//! which is how the paper extends OpenTuner to VDMS tuning.
//!
//! Techniques in the pool (mirroring OpenTuner's default ensemble at our
//! scale): uniform random, small-step hill climbing around the incumbent,
//! large-step pattern moves, and genetic crossover of elites. The bandit
//! credits a technique when its proposal improves the best reward seen and
//! picks techniques by decayed credit plus a UCB exploration bonus.

use crate::weighted_reward;
use rand::Rng;
use vdms::VdmsConfig;
use vdtuner_core::space::SpaceSpec;
use vecdata::rng::{derive, rng, standard_normal};
use workload::{Observation, Tuner};

/// The numerical techniques in the ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Technique {
    UniformRandom,
    HillClimbSmall,
    PatternLarge,
    GeneticCross,
}

const TECHNIQUES: [Technique; 4] = [
    Technique::UniformRandom,
    Technique::HillClimbSmall,
    Technique::PatternLarge,
    Technique::GeneticCross,
];

/// Per-technique bandit statistics.
#[derive(Debug, Clone, Default)]
struct Arm {
    uses: u32,
    /// Exponentially decayed credit ("area under the curve" of recent wins).
    credit: f64,
}

/// OpenTuner-style ensemble tuner.
pub struct OpenTunerStyle {
    space: SpaceSpec,
    seed: u64,
    iter: u64,
    arms: Vec<Arm>,
    /// Which arm produced the pending proposal (credited in `observe`).
    pending_arm: Option<usize>,
    best_reward: f64,
    max_qps: f64,
    max_recall: f64,
}

impl OpenTunerStyle {
    pub fn new(seed: u64) -> OpenTunerStyle {
        OpenTunerStyle::with_space(SpaceSpec::legacy(), seed)
    }

    /// Ensemble search over an arbitrary tuning space (e.g. with the
    /// topology dimension).
    pub fn with_space(space: SpaceSpec, seed: u64) -> OpenTunerStyle {
        OpenTunerStyle {
            space,
            seed,
            iter: 0,
            arms: vec![Arm::default(); TECHNIQUES.len()],
            pending_arm: None,
            best_reward: f64::MIN,
            max_qps: 1e-9,
            max_recall: 1e-9,
        }
    }

    /// AUC-bandit selection: decayed credit + UCB exploration bonus.
    fn select_arm(&self) -> usize {
        let total: u32 = self.arms.iter().map(|a| a.uses).sum::<u32>().max(1);
        let mut best = 0usize;
        let mut best_score = f64::MIN;
        for (i, arm) in self.arms.iter().enumerate() {
            let exploit = arm.credit / (arm.uses.max(1) as f64);
            let explore = (2.0 * (total as f64).ln() / arm.uses.max(1) as f64).sqrt();
            let score = exploit + 0.5 * explore;
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    /// Top `n` observation encodings by reward.
    fn elites(&self, history: &[Observation], n: usize) -> Vec<Vec<f64>> {
        let mut scored: Vec<(f64, &Observation)> =
            history.iter().map(|o| (weighted_reward(history, o.qps, o.recall), o)).collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        scored.into_iter().take(n).map(|(_, o)| self.space.encode(&o.config)).collect()
    }
}

impl Tuner for OpenTunerStyle {
    fn name(&self) -> &str {
        "OpenTuner"
    }

    fn propose(&mut self, history: &[Observation]) -> VdmsConfig {
        self.iter += 1;
        let dims = self.space.dims();
        let mut r = rng(derive(self.seed, self.iter));
        if history.is_empty() {
            self.pending_arm = None;
            return self.space.seed_default();
        }
        let arm_idx = self.select_arm();
        self.pending_arm = Some(arm_idx);
        self.arms[arm_idx].uses += 1;

        let elites = self.elites(history, 4);
        let base = elites.first().cloned().unwrap_or_else(|| vec![0.5; dims]);
        let u: Vec<f64> = match TECHNIQUES[arm_idx] {
            Technique::UniformRandom => (0..dims).map(|_| r.gen()).collect(),
            Technique::HillClimbSmall => {
                base.iter().map(|&v| (v + 0.03 * standard_normal(&mut r)).clamp(0.0, 1.0)).collect()
            }
            Technique::PatternLarge => {
                // Move far along a single random coordinate (pattern search).
                let mut v = base.clone();
                let d = r.gen_range(0..dims);
                v[d] = r.gen();
                v
            }
            Technique::GeneticCross => {
                let other = if elites.len() > 1 {
                    elites[r.gen_range(1..elites.len())].clone()
                } else {
                    (0..dims).map(|_| r.gen()).collect()
                };
                base.iter()
                    .zip(&other)
                    .map(|(&a, &b)| {
                        let v = if r.gen::<bool>() { a } else { b };
                        (v + 0.01 * standard_normal(&mut r)).clamp(0.0, 1.0)
                    })
                    .collect()
            }
        };
        self.space.decode(&u).expect("technique proposals span the full space")
    }

    fn observe(&mut self, obs: &Observation) {
        // Weighted-sum reward with running-max normalization (tracked
        // incrementally so `observe` needs no history).
        self.max_qps = self.max_qps.max(obs.qps);
        self.max_recall = self.max_recall.max(obs.recall);
        let reward = 0.5 * obs.qps / self.max_qps + 0.5 * obs.recall / self.max_recall;
        let improved = reward > self.best_reward;
        if improved {
            self.best_reward = reward;
        }
        if let Some(arm) = self.pending_arm.take() {
            // Exponential decay, +1 credit on improvement.
            for a in &mut self.arms {
                a.credit *= 0.95;
            }
            if improved {
                self.arms[arm].credit += 1.0;
            }
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
        let mut t = OpenTunerStyle::new(5);
        run_tuner(&mut t, &mut ev, 8, 1);
        assert_eq!(ev.len(), 8);
    }

    #[test]
    fn bandit_tries_multiple_techniques() {
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        let mut ev = Evaluator::new(&w, 1);
        let mut t = OpenTunerStyle::new(5);
        run_tuner(&mut t, &mut ev, 12, 1);
        let used: usize = t.arms.iter().filter(|a| a.uses > 0).count();
        assert!(used >= 3, "UCB bonus must force exploration, used {used}");
    }

    #[test]
    fn first_proposal_is_default() {
        let mut t = OpenTunerStyle::new(5);
        assert_eq!(t.propose(&[]).summary(), VdmsConfig::default_config().summary());
    }
}
