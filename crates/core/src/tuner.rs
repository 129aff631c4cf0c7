//! VDTuner's polling Bayesian optimization — Algorithm 1 of the paper.
//!
//! Per iteration:
//! 1. score the remaining index types and possibly abandon the worst
//!    (Eq. 5–6, windowed trigger),
//! 2. normalize all observations with the polling surrogate (Eq. 2–3) and
//!    fit one holistic multi-output GP (independent outputs) over the
//!    16-dimensional encoded space,
//! 3. poll the next remaining index type, restrict the search region to its
//!    parameters plus the shared system parameters (§IV-C),
//! 4. recommend the candidate maximizing EHVI (Eq. 4) with reference point
//!    `r = 0.5 · (y_spd_t, y_rec_t)` — or constrained EI (Eq. 7) when a
//!    recall preference is set, or EHVI on (QP$, recall) in cost-aware mode.

use crate::abandon::{scores, AbandonPolicy, ScoreRow};
use crate::history::TuningOutcome;
use crate::npi::NpiNormalizer;
use crate::space::SpaceSpec;
use anns::params::IndexType;
use gp::{fit_gp_on, FitOptions, GaussianProcess, Joint, Matern52, Posterior, TrainingInputs};
use mobo::acquisition::{constrained_ei, ehvi_log_speed};
use mobo::hypervolume::FrontSweep;
use mobo::optimize::{argmax_blocks, candidate_pool, local_refine_blocks, CandidateOptions};
use mobo::pareto::non_dominated_indices;
use vdms::VdmsConfig;
use vecdata::rng::{derive, rng, standard_normal};
use workload::{run_tuner, EvalBackend, Evaluator, Observation, Tuner, Workload};

/// A boxed acquisition function of one candidate's speed and recall
/// posteriors (computed a block of candidates at a time by [`Joint`]).
/// `Sync` so the candidate pool can be scored from worker threads; the
/// lifetime lets it borrow what the proposal prepared (front, samples).
type Acquisition<'a> = Box<dyn Fn(&[Posterior; 2]) -> f64 + Sync + 'a>;

/// Which surrogate-target transformation to use (Figure 8b ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurrogateKind {
    /// NPI-normalized targets per index type (the paper's polling surrogate).
    Polling,
    /// Raw targets (the "native surrogate" ablation).
    Native,
}

/// How the tuning budget is allocated across index types (Figure 8a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetAllocation {
    /// Score types by HV influence and drop the persistently worst.
    SuccessiveAbandon { window: usize },
    /// Plain cyclic polling, no abandonment.
    RoundRobin,
}

/// The optimization objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TunerMode {
    /// Maximize (search speed, recall rate) jointly via EHVI.
    MultiObjective,
    /// Maximize speed subject to `recall > limit` via constrained EI (Eq. 7).
    Constrained { recall_limit: f64 },
    /// Maximize (QP$, recall): cost-effectiveness per Eq. 8.
    CostEffective,
}

/// All tuner knobs, with paper-faithful defaults.
#[derive(Debug, Clone)]
pub struct TunerOptions {
    pub mode: TunerMode,
    pub surrogate: SurrogateKind,
    pub budget: BudgetAllocation,
    /// Monte-Carlo samples for the EHVI estimate (Eq. 4).
    pub mc_samples: usize,
    /// GP hyperparameter fitting effort.
    pub fit: FitOptions,
    /// Acquisition candidate-pool composition.
    pub candidates: CandidateOptions,
    /// Prior observations used to warm-start the surrogate (§IV-F
    /// bootstrapping). They train the model but are not re-evaluated.
    pub bootstrap: Vec<Observation>,
}

impl Default for TunerOptions {
    fn default() -> Self {
        TunerOptions {
            mode: TunerMode::MultiObjective,
            surrogate: SurrogateKind::Polling,
            // The paper triggers abandonment after the worst rank persists
            // for ten iterations (§V-A).
            budget: BudgetAllocation::SuccessiveAbandon { window: 10 },
            mc_samples: 96,
            fit: FitOptions::default(),
            candidates: CandidateOptions::default(),
            bootstrap: Vec::new(),
        }
    }
}

/// The VDTuner instance. Implements [`workload::Tuner`], so it can be driven
/// by the same harness as every baseline, or via [`VdTuner::run`].
pub struct VdTuner {
    options: TunerOptions,
    space: SpaceSpec,
    seed: u64,
    /// Index types not yet given their initial default sample.
    init_queue: Vec<IndexType>,
    /// Index types still in the polling rotation (T_remain).
    remaining: Vec<IndexType>,
    policy: AbandonPolicy,
    poll_cursor: usize,
    iter: usize,
}

impl VdTuner {
    /// A tuner over the paper's 16-dimensional space.
    pub fn new(options: TunerOptions, seed: u64) -> VdTuner {
        VdTuner::with_space(options, SpaceSpec::legacy(), seed)
    }

    /// A tuner over an arbitrary [`SpaceSpec`] — e.g.
    /// [`SpaceSpec::with_topology`] to co-tune the shard count with the
    /// index and system knobs. The whole pipeline (GP fits, acquisition,
    /// SHAP, batching) follows the spec's dimensionality.
    pub fn with_space(options: TunerOptions, space: SpaceSpec, seed: u64) -> VdTuner {
        let window = match options.budget {
            BudgetAllocation::SuccessiveAbandon { window } => window,
            BudgetAllocation::RoundRobin => usize::MAX,
        };
        VdTuner {
            options,
            space,
            seed,
            init_queue: IndexType::ALL.to_vec(),
            remaining: IndexType::ALL.to_vec(),
            policy: AbandonPolicy::new(window.min(1_000_000)),
            poll_cursor: 0,
            iter: 0,
        }
    }

    /// The tuning space this tuner optimizes over.
    pub fn space(&self) -> &SpaceSpec {
        &self.space
    }

    /// The index types still being polled.
    pub fn remaining_types(&self) -> &[IndexType] {
        &self.remaining
    }

    /// Score history for Figure 9.
    pub fn score_trace(&self) -> &[ScoreRow] {
        &self.policy.score_trace
    }

    /// The speed-axis objective for an observation under the current mode.
    fn speed_objective(&self, o: &Observation) -> f64 {
        match self.options.mode {
            TunerMode::CostEffective => o.cost_effectiveness(),
            _ => o.qps,
        }
    }

    /// Group raw objective pairs by index type (bootstrap data included).
    fn grouped(
        &self,
        history: &[Observation],
        types: &[IndexType],
    ) -> Vec<(IndexType, Vec<[f64; 2]>)> {
        types
            .iter()
            .map(|&t| {
                let ys: Vec<[f64; 2]> = self
                    .options
                    .bootstrap
                    .iter()
                    .chain(history.iter())
                    .filter(|o| o.config.index_type == t)
                    .map(|o| [self.speed_objective(o), o.recall])
                    .collect();
                (t, ys)
            })
            .collect()
    }

    /// Fit the two-output holistic GP on (possibly normalized) targets.
    /// Returns the GPs plus the training pairs used for the Pareto front.
    ///
    /// The *speed* GP is fit in **log space**: QPS spans orders of magnitude
    /// across configurations, and a stationary GP on the raw values is so
    /// badly conditioned that it mean-reverts even at training points,
    /// blinding the acquisition to the speed axis. The acquisition
    /// exponentiates posterior samples back (log-normal MC), so EHVI is
    /// still computed in the original objective space.
    #[allow(
        clippy::type_complexity,
        reason = "the two surrogates and their targets, consumed at once"
    )]
    fn fit_surrogates(
        &self,
        history: &[Observation],
        normalizer: &NpiNormalizer,
    ) -> Option<(GaussianProcess<Matern52>, GaussianProcess<Matern52>, Vec<[f64; 2]>)> {
        let all: Vec<&Observation> = self.options.bootstrap.iter().chain(history.iter()).collect();
        if all.is_empty() {
            return None;
        }
        let mut x = Vec::with_capacity(all.len());
        let mut y_log_speed = Vec::with_capacity(all.len());
        let mut y_recall = Vec::with_capacity(all.len());
        let mut pairs = Vec::with_capacity(all.len());
        for o in &all {
            let raw = [self.speed_objective(o), o.recall];
            let target = match self.options.surrogate {
                SurrogateKind::Polling => normalizer.normalize(o.config.index_type, raw[0], raw[1]),
                SurrogateKind::Native => raw,
            };
            x.push(self.space.encode(&o.config));
            y_log_speed.push(target[0].max(1e-9).ln());
            y_recall.push(target[1]);
            pairs.push(target);
        }
        // Both surrogates train on the same inputs: one distance matrix
        // serves the two fits, whose searches share factorizations.
        let inputs = TrainingInputs::new(&x);
        let fits = fit_gp_on(&inputs, &[&y_log_speed, &y_recall], &self.options.fit);
        let Ok([gp_speed, gp_recall]) = <[_; 2]>::try_from(fits) else {
            unreachable!("one model per target")
        };
        Some((gp_speed, gp_recall, pairs))
    }

    /// Reference point for EHVI: `0.5 · base` in the surrogate's target
    /// units (so `(0.5, 0.5)` in polling mode, where the base maps to 1).
    fn reference_point(
        &self,
        t: IndexType,
        normalizer: &NpiNormalizer,
        all_pairs: &[[f64; 2]],
    ) -> [f64; 2] {
        match self.options.surrogate {
            SurrogateKind::Polling => {
                let _ = (t, all_pairs);
                [0.5, 0.5]
            }
            SurrogateKind::Native => {
                let base = crate::npi::balanced_base(all_pairs);
                let _ = normalizer;
                [0.5 * base.speed, 0.5 * base.recall]
            }
        }
    }

    /// Incumbent encodings of type `t` for local candidate perturbation:
    /// the speed extreme, the recall extreme, and the most balanced point
    /// of the type's non-dominated set.
    fn incumbents_of(&self, history: &[Observation], t: IndexType) -> Vec<Vec<f64>> {
        let of_t: Vec<&Observation> = self
            .options
            .bootstrap
            .iter()
            .chain(history.iter())
            .filter(|o| o.config.index_type == t && !o.failed)
            .collect();
        if of_t.is_empty() {
            return Vec::new();
        }
        let ys: Vec<[f64; 2]> = of_t.iter().map(|o| [self.speed_objective(o), o.recall]).collect();
        let front = non_dominated_indices(&ys);
        let pick = |key: fn(&[f64; 2]) -> f64| {
            front
                .iter()
                .copied()
                .max_by(|&a, &b| key(&ys[a]).total_cmp(&key(&ys[b])))
                .expect("front non-empty")
        };
        let base = crate::npi::balanced_base(&ys);
        let balanced =
            front.iter().copied().find(|&i| ys[i] == [base.speed, base.recall]).unwrap_or(front[0]);
        let mut idx = vec![pick(|y| y[0]), pick(|y| y[1]), balanced];
        idx.dedup();
        idx.into_iter().map(|i| self.space.encode(&of_t[i].config)).collect()
    }

    /// One proposal step (Algorithm 1, lines 1–22), returning the chosen
    /// configuration plus — when a surrogate was fit — the posterior-mean
    /// prediction `(speed, recall)` at it in raw objective units. The
    /// prediction is the kriging-believer fantasy for batched proposals
    /// (Ginsbourger et al.'s constant-believer strategy); computing it here
    /// reuses the GPs this very proposal fit, instead of refitting them.
    fn propose_inner(&mut self, history: &[Observation]) -> (VdmsConfig, Option<(f64, f64)>) {
        self.iter += 1;
        // Algorithm 1 lines 1–5: initial sampling — the default
        // configuration of every index type (at the spec's seed topology
        // when the shard count is tuned).
        if let Some(t) = self.init_queue.first().copied() {
            self.init_queue.remove(0);
            return (self.space.seed_config(t), None);
        }

        // Lines 7–14: score remaining types; maybe abandon the worst.
        if self.remaining.len() > 1 {
            let grouped = self.grouped(history, &self.remaining);
            let row = scores(&grouped);
            if matches!(self.options.budget, BudgetAllocation::SuccessiveAbandon { .. }) {
                if let Some(dropped) = self.policy.update(row) {
                    self.remaining.retain(|t| *t != dropped);
                }
            } else {
                // Round-robin still records scores for Figure 9 parity.
                self.policy.score_trace.push(row);
            }
        }

        // Lines 15–18: normalize and fit the holistic surrogate.
        let constraint_mode = matches!(self.options.mode, TunerMode::Constrained { .. });
        let grouped_all = self.grouped(history, &IndexType::ALL);
        let normalizer = NpiNormalizer::fit(&grouped_all, constraint_mode);
        let Some((gp_speed, gp_recall, pairs)) = self.fit_surrogates(history, &normalizer) else {
            return (self.space.seed_default(), None);
        };

        // Line 19: next polling index type.
        let t = self.remaining[self.poll_cursor % self.remaining.len()];
        self.poll_cursor += 1;

        // Line 20: search region X' for t — its params + the shared
        // (system / topology) dimensions.
        let free = self.space.free_dims(t);
        let incumbents: Vec<Vec<f64>> = self
            .incumbents_of(history, t)
            .into_iter()
            .map(|enc| free.iter().map(|&d| enc[d]).collect())
            .collect();
        let pool_seed = derive(self.seed, self.iter as u64);
        let sub_pool = candidate_pool(free.len(), &incumbents, &self.options.candidates, pool_seed);
        // Candidates live in the polled type's subspace; embed on demand
        // into the type's template, encoded once per proposal.
        let template = self.space.template_for(t);
        let embed_sub = |sub: &[f64]| -> Vec<f64> {
            SpaceSpec::embed_in(&template, free.iter().copied().zip(sub.iter().copied()))
        };

        // Line 21: maximize the acquisition over X'. The Pareto front is
        // filtered, sorted and measured here, once; every Monte-Carlo
        // sample of every candidate then sweeps it in place.
        let reference = self.reference_point(t, &normalizer, &pairs);
        let sweep = FrontSweep::new(&pairs, &reference);
        let mut zrng = rng(derive(self.seed, 0xACC0 + self.iter as u64));
        let z_pairs: Vec<(f64, f64)> = (0..self.options.mc_samples)
            .map(|_| (standard_normal(&mut zrng), standard_normal(&mut zrng)))
            .collect();

        // Physical ceiling of the recall axis in surrogate units: recall
        // cannot exceed 1.0, i.e. `1/base_t.recall` after NPI normalization.
        // Clipping MC samples here stops the acquisition from chasing
        // phantom improvements past perfect recall.
        let recall_ceiling = match self.options.surrogate {
            SurrogateKind::Polling => 1.0 / normalizer.base(t).recall.max(1e-12),
            SurrogateKind::Native => 1.0,
        };

        // Both surrogates fit on one training set: a block of candidates
        // shares its distances to the training rows between them. The
        // fantasy prediction below reuses the same fit.
        let joint = Joint::new([&gp_speed, &gp_recall]);
        let acq: Acquisition<'_> = match self.options.mode {
            TunerMode::MultiObjective | TunerMode::CostEffective => {
                Box::new(|[ps, pr]: &[Posterior; 2]| {
                    // Log-normal MC for speed, ceiling-clipped normal for
                    // recall; hypervolume improvement in objective space.
                    // One serial in-order sum per candidate (the candidate
                    // fan-out above owns the cores), so the estimate is
                    // thread-count independent.
                    ehvi_log_speed(&sweep, &z_pairs, ps, pr, recall_ceiling)
                })
            }
            TunerMode::Constrained { recall_limit } => {
                // Feasible-best speed in surrogate units; recall threshold
                // converted into the polled type's normalized units.
                let best_feasible = self
                    .options
                    .bootstrap
                    .iter()
                    .chain(history.iter())
                    .filter(|o| o.recall >= recall_limit && !o.failed)
                    .map(|o| match self.options.surrogate {
                        SurrogateKind::Polling => normalizer.normalize(
                            o.config.index_type,
                            self.speed_objective(o),
                            o.recall,
                        )[0],
                        SurrogateKind::Native => self.speed_objective(o),
                    })
                    .fold(f64::NEG_INFINITY, f64::max);
                let best_feasible = if best_feasible.is_finite() { best_feasible } else { 0.0 };
                // The speed GP lives in log space; compare against the log
                // of the feasible incumbent (EI on a monotone transform of
                // the objective preserves the improvement ordering).
                let log_best = best_feasible.max(1e-9).ln();
                let rlim = match self.options.surrogate {
                    SurrogateKind::Polling => recall_limit / normalizer.base(t).recall.max(1e-12),
                    SurrogateKind::Native => recall_limit,
                };
                Box::new(move |[ps, pr]: &[Posterior; 2]| constrained_ei(ps, pr, log_best, rlim))
            }
        };

        // Candidate blocks fan out across cores; the winner is selected by
        // a serial scan, so results are identical to the serial path.
        let acq_sub = |block: &[Vec<f64>], out: &mut [f64]| {
            let embedded: Vec<Vec<f64>> = block.iter().map(|sub| embed_sub(sub)).collect();
            for (v, posteriors) in out.iter_mut().zip(joint.predict(&embedded)) {
                *v = acq(&posteriors);
            }
        };
        let chosen = argmax_blocks(&sub_pool, &acq_sub).map(|(start, v0)| {
            // Local refinement of the acquisition optimum (the paper's
            // BoTorch backend optimizes the acquisition with multi-start
            // gradients; shrinking perturbation search is our equivalent),
            // with each refinement round's probes scored in parallel.
            local_refine_blocks(
                &acq_sub,
                &start,
                v0,
                3,
                24,
                derive(self.seed, 0x0F1E + self.iter as u64),
            )
        });

        match chosen {
            Some((sub, _)) => {
                let enc = embed_sub(&sub);
                let mut cfg =
                    self.space.decode(&enc).expect("embedded candidates span the full space");
                cfg.index_type = t; // guard against rounding on the type dim
                                    // Posterior-mean belief at the chosen point, mapped back to
                                    // raw objective units (speed GP lives in log space of the
                                    // possibly-normalized target).
                let [ps, pr] = joint.predict(std::slice::from_ref(&enc))[0];
                let (s_norm, r_norm) = (ps.mean.exp(), pr.mean);
                let pred = match self.options.surrogate {
                    SurrogateKind::Polling => {
                        let base = normalizer.base(t);
                        (s_norm * base.speed, (r_norm * base.recall).clamp(0.0, 1.0))
                    }
                    SurrogateKind::Native => (s_norm, r_norm.clamp(0.0, 1.0)),
                };
                (cfg, Some(pred))
            }
            None => (self.space.seed_config(t), None),
        }
    }
}

impl Tuner for VdTuner {
    fn name(&self) -> &str {
        "VDTuner"
    }

    fn propose(&mut self, history: &[Observation]) -> VdmsConfig {
        self.propose_inner(history).0
    }

    /// q-batch proposals via a greedy kriging-believer loop: propose one
    /// candidate, append a fantasy observation carrying the surrogate's
    /// posterior-mean prediction for it (computed from the same GPs the
    /// proposal fit — no refit), and repeat against the augmented history.
    /// Because the polling cursor advances per proposal, a batch naturally
    /// spreads across the remaining index types, and the fantasy keeps
    /// later candidates from piling onto the first one's optimum.
    fn propose_batch(&mut self, history: &[Observation], q: usize) -> Vec<VdmsConfig> {
        if q <= 1 {
            return vec![self.propose(history)];
        }
        let mut fantasy: Vec<Observation> = history.to_vec();
        let mut batch = Vec::with_capacity(q);
        for _ in 0..q {
            let (cfg, pred) = self.propose_inner(&fantasy);
            // During the init phase (or before any fit) there is no model;
            // a neutral belief is enough — the init queue drives proposals
            // until real observations arrive.
            let (qps, recall) = pred.unwrap_or((1.0, 0.5));
            fantasy.push(Observation {
                iter: fantasy.len(),
                config: cfg,
                qps: qps.max(1e-9),
                recall,
                // Unit memory so `speed_objective` equals `qps` in every mode.
                memory_gib: 1.0,
                failed: false,
                replay_secs: 0.0,
                recommend_secs: 0.0,
                serving: None,
            });
            batch.push(cfg);
        }
        batch
    }
}

impl VdTuner {
    /// Convenience driver: run `iterations` evaluations against `workload`,
    /// served by the backend this tuner's space realizes
    /// ([`SpaceSpec::backend`]), and package everything a report needs.
    pub fn run(&mut self, workload: &Workload, iterations: usize) -> TuningOutcome {
        let backend = self.space.backend(workload);
        self.run_batched_on(backend, iterations, 1)
    }

    /// Run against an arbitrary evaluation backend (sharded cluster, live
    /// system, ...) — the tuner never sees what is behind the evaluator.
    /// Per polling step it proposes `q` candidates via the kriging-believer
    /// loop and evaluates them concurrently; `q = 1` is the paper's
    /// sequential Algorithm 1 (and what [`VdTuner::run`] uses).
    pub fn run_batched_on<B: EvalBackend>(
        &mut self,
        backend: B,
        iterations: usize,
        q: usize,
    ) -> TuningOutcome {
        let mut evaluator = Evaluator::with_backend(backend, derive(self.seed, 0xEBA1));
        run_tuner(self, &mut evaluator, iterations, q);
        TuningOutcome::from_evaluator(
            self.name().to_string(),
            &evaluator,
            self.policy.score_trace.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecdata::{DatasetKind, DatasetSpec};
    use workload::SimBackend;

    fn tiny_workload() -> Workload {
        Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10)
    }

    #[test]
    fn init_phase_samples_every_type_default() {
        let w = tiny_workload();
        let mut tuner = VdTuner::new(TunerOptions::default(), 1);
        let mut ev = Evaluator::new(&w, 2);
        run_tuner(&mut tuner, &mut ev, 7, 1);
        let types: Vec<IndexType> = ev.history().iter().map(|o| o.config.index_type).collect();
        assert_eq!(types, IndexType::ALL.to_vec());
    }

    #[test]
    fn bo_phase_proposes_valid_configs() {
        let w = tiny_workload();
        let mut tuner = VdTuner::new(
            TunerOptions {
                mc_samples: 16,
                candidates: CandidateOptions {
                    n_lhs: 16,
                    n_uniform: 8,
                    n_local_per_incumbent: 4,
                    local_sigma: 0.1,
                },
                ..Default::default()
            },
            1,
        );
        let mut ev = Evaluator::new(&w, 2);
        run_tuner(&mut tuner, &mut ev, 10, 1);
        assert_eq!(ev.len(), 10);
        // Post-init proposals must follow the polling rotation.
        for o in &ev.history()[7..] {
            assert!(IndexType::ALL.contains(&o.config.index_type));
        }
    }

    #[test]
    fn round_robin_never_abandons() {
        let w = tiny_workload();
        let mut tuner = VdTuner::new(
            TunerOptions {
                budget: BudgetAllocation::RoundRobin,
                mc_samples: 8,
                candidates: CandidateOptions {
                    n_lhs: 8,
                    n_uniform: 4,
                    n_local_per_incumbent: 2,
                    local_sigma: 0.1,
                },
                ..Default::default()
            },
            1,
        );
        let mut ev = Evaluator::new(&w, 2);
        run_tuner(&mut tuner, &mut ev, 12, 1);
        assert_eq!(tuner.remaining_types().len(), IndexType::ALL.len());
    }

    #[test]
    fn aggressive_abandon_shrinks_rotation() {
        let w = tiny_workload();
        let mut tuner = VdTuner::new(
            TunerOptions {
                budget: BudgetAllocation::SuccessiveAbandon { window: 1 },
                mc_samples: 8,
                candidates: CandidateOptions {
                    n_lhs: 8,
                    n_uniform: 4,
                    n_local_per_incumbent: 2,
                    local_sigma: 0.1,
                },
                ..Default::default()
            },
            1,
        );
        let mut ev = Evaluator::new(&w, 2);
        run_tuner(&mut tuner, &mut ev, 13, 1);
        assert!(
            tuner.remaining_types().len() < IndexType::ALL.len(),
            "window=1 must abandon at least one type in 6 BO iterations"
        );
        assert!(!tuner.remaining_types().is_empty());
    }

    #[test]
    fn constrained_mode_runs() {
        let w = tiny_workload();
        let mut tuner = VdTuner::new(
            TunerOptions {
                mode: TunerMode::Constrained { recall_limit: 0.8 },
                mc_samples: 8,
                candidates: CandidateOptions {
                    n_lhs: 8,
                    n_uniform: 4,
                    n_local_per_incumbent: 2,
                    local_sigma: 0.1,
                },
                ..Default::default()
            },
            1,
        );
        let out = tuner.run(&w, 10);
        assert_eq!(out.observations.len(), 10);
    }

    fn small_options() -> TunerOptions {
        TunerOptions {
            mc_samples: 8,
            candidates: CandidateOptions {
                n_lhs: 8,
                n_uniform: 4,
                n_local_per_incumbent: 2,
                local_sigma: 0.1,
            },
            ..Default::default()
        }
    }

    #[test]
    fn propose_batch_returns_q_valid_candidates() {
        let w = tiny_workload();
        let mut tuner = VdTuner::new(small_options(), 3);
        let mut ev = Evaluator::new(&w, 2);
        run_tuner(&mut tuner, &mut ev, 8, 1); // past the init phase
        let batch = tuner.propose_batch(ev.history(), 4);
        assert_eq!(batch.len(), 4);
        for c in &batch {
            assert!(IndexType::ALL.contains(&c.index_type));
        }
        // The polling rotation advances per candidate, so a batch spreads
        // over more than one index type once several types remain.
        let distinct: std::collections::BTreeSet<IndexType> =
            batch.iter().map(|c| c.index_type).collect();
        assert!(distinct.len() > 1, "batch should poll multiple types: {distinct:?}");
    }

    #[test]
    fn batched_run_completes_budget_and_is_deterministic() {
        let w = tiny_workload();
        let a = VdTuner::new(small_options(), 11).run_batched_on(SimBackend::new(&w), 12, 4);
        let b = VdTuner::new(small_options(), 11).run_batched_on(SimBackend::new(&w), 12, 4);
        assert_eq!(a.observations.len(), 12);
        let ka: Vec<String> = a.observations.iter().map(|o| o.config.summary()).collect();
        let kb: Vec<String> = b.observations.iter().map(|o| o.config.summary()).collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn propose_inner_predicts_reasonable_fantasy_values() {
        let w = tiny_workload();
        let mut tuner = VdTuner::new(small_options(), 7);
        let mut ev = Evaluator::new(&w, 2);
        run_tuner(&mut tuner, &mut ev, 8, 1); // past the init phase: model is fit
        let (cfg, pred) = tuner.propose_inner(ev.history());
        assert!(IndexType::ALL.contains(&cfg.index_type));
        let (qps, recall) = pred.expect("post-init proposals carry a prediction");
        assert!(qps > 0.0);
        assert!((0.0..=1.0).contains(&recall));
    }

    #[test]
    fn init_phase_proposals_carry_no_prediction() {
        let mut tuner = VdTuner::new(small_options(), 7);
        let (cfg, pred) = tuner.propose_inner(&[]);
        assert_eq!(cfg.index_type, IndexType::ALL[0]);
        assert!(pred.is_none());
    }

    #[test]
    fn run_on_sim_backend_matches_run_bitwise() {
        let w = tiny_workload();
        let via_workload = VdTuner::new(small_options(), 9).run(&w, 9);
        let via_backend =
            VdTuner::new(small_options(), 9).run_batched_on(SimBackend::new(&w), 9, 1);
        let key = |out: &TuningOutcome| -> Vec<(String, u64, u64)> {
            out.observations
                .iter()
                .map(|o| (o.config.summary(), o.qps.to_bits(), o.recall.to_bits()))
                .collect()
        };
        assert_eq!(key(&via_workload), key(&via_backend));
    }

    #[test]
    fn tuning_runs_against_sharded_backend() {
        let w = tiny_workload();
        let backend = SimBackend::with_spec(&w, vdms::cluster::ClusterSpec::new(2));
        let out = VdTuner::new(small_options(), 5).run_batched_on(backend, 10, 2);
        assert_eq!(out.observations.len(), 10);
        assert!(out.observations.iter().any(|o| !o.failed));
    }

    #[test]
    fn deterministic_given_seed() {
        let w = tiny_workload();
        let opts = TunerOptions {
            mc_samples: 8,
            candidates: CandidateOptions {
                n_lhs: 8,
                n_uniform: 4,
                n_local_per_incumbent: 2,
                local_sigma: 0.1,
            },
            ..Default::default()
        };
        let a = VdTuner::new(opts.clone(), 42).run(&w, 9);
        let b = VdTuner::new(opts, 42).run(&w, 9);
        let ka: Vec<String> = a.observations.iter().map(|o| o.config.summary()).collect();
        let kb: Vec<String> = b.observations.iter().map(|o| o.config.summary()).collect();
        assert_eq!(ka, kb);
    }
}
