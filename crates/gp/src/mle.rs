//! Maximum-likelihood hyperparameter fitting.
//!
//! Optimizes (log-lengthscale, log-signal-variance, log-noise) by
//! multi-start Nelder–Mead on the negative log marginal likelihood —
//! ~150 likelihood evaluations per target with the default options, and
//! the tuner fits two targets (speed, recall) per proposal.
//!
//! **Cost.** An evaluation is a kernel matrix, a Cholesky factorization
//! and two triangular solves. Everything that does not depend on the
//! hyperparameters is hoisted out of the search: the pairwise distances
//! live in [`TrainingInputs`], the targets are standardized once, and the
//! evaluations reuse one factor buffer and each target's `α`, so they
//! allocate nothing. At n = 180 on the reference host (2.1 GHz Xeon, AVX2)
//! one evaluation is ≈ 0.15 ms: the factorization 0.09 (0.15 before it
//! was compiled for AVX2 through `Kernel::run`), the kernel matrix 0.04
//! (0.10 with one libm `exp` call per pair of points, 0.06 with the `exp`s
//! four lanes at a time in a pass of their own; now `exponent`, `exp` and
//! `finish` run as one four-lane pass per panel through
//! `vecdata::kernel::Kernel::exp_map`, so the two divisions per pair
//! overlap the `exp`), the two solves 0.02. The
//! fits are the largest part of a proposal on every benchmark workload;
//! the split is in ARCHITECTURE.md, "Where recommendation time goes".
//! (The paper reports 438 s of recommendation time over 200 iterations,
//! ~2 s per iteration, for its whole pipeline.)
//!
//! **Lockstep.** The likelihood depends on the hyperparameters only
//! through `clamp_params`, and only the two solves depend on the target.
//! [`fit_gp_on`] therefore runs restart r of every target's search
//! together: each round takes each unfinished search's pending point,
//! groups the points by the bits of their clamped triple (a linear scan),
//! fills and factors once per group, and solves `α` and the likelihood
//! per target. The speed and recall searches start from the same simplex
//! and agree until their first differing comparison, so a sibling's
//! factor serves 11.4 % of all evaluations over a `surrogate-22d` run
//! (5 885 of 51 598), and 8.0–10.6 % on the other benchmark workloads.
//! Restart r + 1 starts only when every target has finished restart r, so
//! the searches of one restart always start together.
//!
//! **Bitwise contract.** The search is deterministic and its arithmetic is
//! that of the straightforward implementation (`reference.rs`, which fits
//! each target alone and refits from scratch per evaluation): same
//! operations in the same order for every element, so hyperparameters,
//! likelihoods and predictions are equal in `to_bits()`, and tuning
//! histories do not move when this code gets faster.

use crate::gp::{factor, GaussianProcess};
use crate::inputs::TrainingInputs;
use crate::kernel::Matern52;
use crate::linalg::panel_len;
use crate::opt::{NelderMead, NelderMeadOptions};

/// Controls for the MLE search.
#[derive(Debug, Clone, Copy)]
pub struct FitOptions {
    /// Number of Nelder–Mead restarts (first start is the default kernel).
    pub restarts: usize,
    /// Iterations per restart.
    pub max_iters: usize,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions { restarts: 2, max_iters: 40 }
    }
}

/// Hyperparameter bounds in log10 space, loose enough for unit-cube inputs
/// and standardized targets. The noise bound is above the 1e-8 floor of
/// `GaussianProcess::condition`, so the search factors exactly the matrix
/// a refit at the same point does.
pub(crate) const LOG_LS_RANGE: (f64, f64) = (-2.0, 1.0);
const LOG_SV_RANGE: (f64, f64) = (-2.0, 1.5);
const LOG_NOISE_RANGE: (f64, f64) = (-6.0, 0.0);

pub(crate) fn clamp_params(p: &[f64]) -> (f64, f64, f64) {
    let ls = 10f64.powf(p[0].clamp(LOG_LS_RANGE.0, LOG_LS_RANGE.1));
    let sv = 10f64.powf(p[1].clamp(LOG_SV_RANGE.0, LOG_SV_RANGE.1));
    let noise = 10f64.powf(p[2].clamp(LOG_NOISE_RANGE.0, LOG_NOISE_RANGE.1));
    (ls, sv, noise)
}

/// Deterministic multi-starts spread over the lengthscale range.
fn starts(restarts: usize) -> Vec<[f64; 3]> {
    (0..restarts.max(1))
        .map(|i| {
            let t = i as f64 / restarts.max(2).saturating_sub(1).max(1) as f64;
            [LOG_LS_RANGE.0 + 0.3 + t * (LOG_LS_RANGE.1 - LOG_LS_RANGE.0 - 0.8), 0.0, -3.0]
        })
        .collect()
}

/// Fit a Matérn 5/2 GP with ML-II hyperparameters: [`fit_gp_on`] for one
/// target.
pub fn fit_gp(x: &[Vec<f64>], y: &[f64], opts: &FitOptions) -> GaussianProcess<Matern52> {
    let mut models = fit_gp_on(&TrainingInputs::new(x), &[y], opts);
    models.pop().expect("one model per target")
}

/// Fit one Matérn 5/2 GP with ML-II hyperparameters per target in `ys`, all
/// on `inputs`, searching the targets in lockstep (module docs). Each model
/// is bit-identical to a fit of its target alone.
///
/// A target falls back to the default kernel when every optimization start
/// fails (e.g. a numerically degenerate sample set) — the tuner must never
/// panic mid-run because of a bad iteration.
pub fn fit_gp_on(
    inputs: &TrainingInputs,
    ys: &[&[f64]],
    opts: &FitOptions,
) -> Vec<GaussianProcess<Matern52>> {
    Lockstep::new(inputs, ys).fit(opts)
}

/// One fit's targets, each a model that doubles as its search workspace.
pub(crate) struct Lockstep<'a> {
    inputs: &'a TrainingInputs,
    models: Vec<GaussianProcess<Matern52>>,
    /// Kernel matrices filled and factored (jitter retries included in
    /// one), and likelihoods evaluated, by the searches.
    #[cfg(test)]
    pub(crate) factorizations: usize,
    #[cfg(test)]
    pub(crate) evaluations: usize,
}

impl<'a> Lockstep<'a> {
    pub(crate) fn new(inputs: &'a TrainingInputs, ys: &[&[f64]]) -> Lockstep<'a> {
        Lockstep {
            inputs,
            models: ys
                .iter()
                .map(|y| GaussianProcess::unfitted(inputs, y, Matern52::default()))
                .collect(),
            #[cfg(test)]
            factorizations: 0,
            #[cfg(test)]
            evaluations: 0,
        }
    }

    pub(crate) fn fit(&mut self, opts: &FitOptions) -> Vec<GaussianProcess<Matern52>> {
        let nm_opts = NelderMeadOptions { max_iters: opts.max_iters, ..Default::default() };
        let mut chol = vec![0.0; panel_len(self.inputs.len())];
        let mut best: Vec<Option<(Vec<f64>, f64)>> = vec![None; self.models.len()];
        for s in &starts(opts.restarts) {
            let mut searches = vec![NelderMead::new(s, &nm_opts); self.models.len()];
            self.search(&mut searches, &mut chol);
            for (best, search) in best.iter_mut().zip(searches) {
                let (p, fp) = search.into_best();
                if fp.is_finite() && best.as_ref().is_none_or(|(_, b)| fp < *b) {
                    *best = Some((p, fp));
                }
            }
        }
        // The models allocate their own factors; the search's goes first.
        drop(chol);

        for (gp, best) in self.models.iter_mut().zip(best) {
            let (ls, sv, noise) = match &best {
                Some((p, _)) => clamp_params(p),
                None => (0.3, 1.0, 1e-4),
            };
            let kernel = Matern52 { lengthscale: ls, signal_variance: sv };
            if gp.refit(self.inputs, kernel, noise).is_err() {
                gp.refit(self.inputs, Matern52::default(), 1e-2)
                    .expect("default kernel with large noise must factorize");
            }
        }
        std::mem::take(&mut self.models)
    }

    /// Drive `searches` (one per model) to their ends in rounds. A round
    /// evaluates every unfinished search's pending point; the points with
    /// equal clamped hyperparameters share one factorization in `chol`.
    pub(crate) fn search(&mut self, searches: &mut [NelderMead], chol: &mut [f64]) {
        let bits = |(ls, sv, noise): (f64, f64, f64)| [ls.to_bits(), sv.to_bits(), noise.to_bits()];
        let mut pending = Vec::with_capacity(searches.len());
        loop {
            pending.clear();
            pending.extend(searches.iter().map(|s| s.ask().map(clamp_params)));
            if pending.iter().all(Option::is_none) {
                return;
            }
            for lead in 0..searches.len() {
                let Some(params) = pending[lead] else { continue };
                let (ls, sv, noise) = params;
                let kernel = Matern52 { lengthscale: ls, signal_variance: sv };
                let factored = factor(self.inputs, &kernel, noise, chol);
                #[cfg(test)]
                {
                    self.factorizations += 1;
                }
                for i in lead..searches.len() {
                    if pending[i].map(bits) != Some(bits(params)) {
                        continue;
                    }
                    pending[i] = None;
                    let nll = match factored {
                        Ok(log_det_half) => -self.models[i].likelihood(chol, log_det_half),
                        Err(_) => f64::INFINITY,
                    };
                    searches[i].tell(nll);
                    #[cfg(test)]
                    {
                        self.evaluations += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_smooth_function_well() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 6.0).sin()).collect();
        let gp = fit_gp(&x, &y, &FitOptions::default());
        // Held-out point.
        let q = [0.475f64];
        let truth = (q[0] * 6.0).sin();
        let p = gp.predict(&q);
        assert!((p.mean - truth).abs() < 0.1, "pred {} truth {truth}", p.mean);
    }

    #[test]
    fn mle_beats_bad_fixed_kernel() {
        let x: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64 / 24.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 10.0).sin() * 3.0).collect();
        let fitted = fit_gp(&x, &y, &FitOptions::default());
        let fixed =
            GaussianProcess::fit(&x, &y, Matern52 { lengthscale: 5.0, signal_variance: 1.0 }, 1e-4)
                .unwrap();
        assert!(fitted.log_marginal_likelihood() > fixed.log_marginal_likelihood());
    }

    #[test]
    fn survives_constant_targets() {
        let x: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
        let y = vec![2.0; 8];
        let gp = fit_gp(&x, &y, &FitOptions::default());
        let p = gp.predict(&[0.5]);
        assert!((p.mean - 2.0).abs() < 1e-6);
    }

    #[test]
    fn survives_duplicate_inputs() {
        let x = vec![vec![0.5, 0.5]; 6];
        let y = vec![1.0, 1.1, 0.9, 1.0, 1.05, 0.95];
        let gp = fit_gp(&x, &y, &FitOptions::default());
        let p = gp.predict(&[0.5, 0.5]);
        assert!((p.mean - 1.0).abs() < 0.2);
    }
}
