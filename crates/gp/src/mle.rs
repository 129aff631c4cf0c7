//! Maximum-likelihood hyperparameter fitting.
//!
//! Optimizes (log-lengthscale, log-signal-variance, log-noise) by
//! multi-start Nelder–Mead on the negative log marginal likelihood —
//! ~150 likelihood evaluations per fit with the default options, and the
//! tuner fits two surrogates per proposal.
//!
//! **Cost.** An evaluation is a kernel matrix, a Cholesky factorization
//! and two triangular solves. Everything that does not depend on the
//! hyperparameters is hoisted out of the search: the pairwise distances
//! live in [`TrainingInputs`] (shared by all evaluations, and by both
//! surrogates through [`fit_gp_on`]), the targets are standardized once,
//! and every evaluation re-conditions one [`GaussianProcess`] in place, so
//! it allocates nothing and the model returned is the search's last
//! evaluation. On the reference host (2.1 GHz Xeon) one fit on 22
//! dimensions takes 3.7 / 16 / 73 ms at n = 50 / 100 / 200 (the
//! benchmark's `gp.fit_ms.n*`; 8.9 / 40 / 231 ms before the hoisting and
//! the row-blocked Cholesky). The cost is cubic in n, and the two fits are
//! the largest part of a proposal on every workload the benchmark has:
//! nine tenths of the recommendation time over a 180-iteration run, three
//! quarters over 76 iterations, 43–47 % over 40 (the rest is the
//! acquisition search). Until the acquisition stopped re-preparing the
//! Pareto front for every Monte-Carlo sample
//! (`mobo::hypervolume::FrontSweep`) that was true of the long run only —
//! at n ≤ 40 the fits were a tenth. The per-workload split is in
//! ARCHITECTURE.md, "Where recommendation time goes". (The paper reports
//! 438 s of recommendation time over 200 iterations, ~2 s per iteration,
//! for its whole pipeline.)
//!
//! **Bitwise contract.** The search is deterministic and its arithmetic is
//! that of the straightforward implementation (`reference.rs`, which
//! refits from scratch per evaluation): same operations in the same order
//! for every element, so hyperparameters, likelihoods and predictions are
//! equal in `to_bits()`, and tuning histories do not move when this code
//! gets faster.

use crate::gp::GaussianProcess;
use crate::inputs::TrainingInputs;
use crate::kernel::Matern52;
use crate::opt::{nelder_mead, NelderMeadOptions};

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
/// and standardized targets.
pub(crate) const LOG_LS_RANGE: (f64, f64) = (-2.0, 1.0);
const LOG_SV_RANGE: (f64, f64) = (-2.0, 1.5);
const LOG_NOISE_RANGE: (f64, f64) = (-6.0, 0.0);

pub(crate) fn clamp_params(p: &[f64]) -> (f64, f64, f64) {
    let ls = 10f64.powf(p[0].clamp(LOG_LS_RANGE.0, LOG_LS_RANGE.1));
    let sv = 10f64.powf(p[1].clamp(LOG_SV_RANGE.0, LOG_SV_RANGE.1));
    let noise = 10f64.powf(p[2].clamp(LOG_NOISE_RANGE.0, LOG_NOISE_RANGE.1));
    (ls, sv, noise)
}

/// Fit a Matérn 5/2 GP with ML-II hyperparameters.
///
/// Falls back to the default kernel when every optimization start fails
/// (e.g. a numerically degenerate sample set) — the tuner must never panic
/// mid-run because of a bad iteration.
pub fn fit_gp(x: &[Vec<f64>], y: &[f64], opts: &FitOptions) -> GaussianProcess<Matern52> {
    fit_gp_on(&TrainingInputs::new(x), y, opts)
}

/// [`fit_gp`] on inputs whose distances are already computed — for fitting
/// several targets on the same `x`.
pub fn fit_gp_on(
    inputs: &TrainingInputs,
    y: &[f64],
    opts: &FitOptions,
) -> GaussianProcess<Matern52> {
    let mut gp = GaussianProcess::unfitted(inputs, y, Matern52::default());
    let mut nll = |p: &[f64]| -> f64 {
        let (ls, sv, noise) = clamp_params(p);
        let kernel = Matern52 { lengthscale: ls, signal_variance: sv };
        match gp.refit(inputs, kernel, noise) {
            Ok(lml) => -lml,
            Err(_) => f64::INFINITY,
        }
    };

    // Deterministic multi-starts spread over the lengthscale range.
    let starts: Vec<[f64; 3]> = (0..opts.restarts.max(1))
        .map(|i| {
            let t = i as f64 / opts.restarts.max(2).saturating_sub(1).max(1) as f64;
            [LOG_LS_RANGE.0 + 0.3 + t * (LOG_LS_RANGE.1 - LOG_LS_RANGE.0 - 0.8), 0.0, -3.0]
        })
        .collect();

    let nm_opts = NelderMeadOptions { max_iters: opts.max_iters, ..Default::default() };
    let mut best: Option<(Vec<f64>, f64)> = None;
    for s in &starts {
        let (p, fp) = nelder_mead(&mut nll, s, &nm_opts);
        if fp.is_finite() && best.as_ref().is_none_or(|(_, b)| fp < *b) {
            best = Some((p, fp));
        }
    }

    let (ls, sv, noise) = match &best {
        Some((p, _)) => clamp_params(p),
        None => (0.3, 1.0, 1e-4),
    };
    let kernel = Matern52 { lengthscale: ls, signal_variance: sv };
    if gp.refit(inputs, kernel, noise).is_err() {
        gp.refit(inputs, Matern52::default(), 1e-2)
            .expect("default kernel with large noise must factorize");
    }
    gp
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
