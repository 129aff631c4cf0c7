//! Exact Gaussian-process regression with standardized targets.

use crate::inputs::TrainingInputs;
use crate::kernel::{eval_dists, Kernel};
use crate::linalg::{
    cholesky_jittered, dot, log_det_half, panel_len, solve_cholesky_in_place, solve_lower_lanes,
    NotPositiveDefinite,
};
use std::cell::Cell;
use vecdata::kernel::Kernel as Tier;

/// Posterior prediction at one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posterior {
    pub mean: f64,
    /// Predictive variance (includes the noise-free latent variance only).
    pub variance: f64,
}

impl Posterior {
    pub fn std_dev(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }
}

/// A fitted GP: training inputs, Cholesky factor of `K + σₙ²I`, and the
/// precomputed `α = (K + σₙ²I)⁻¹ y`.
///
/// The struct doubles as one target's workspace in the hyperparameter
/// search ([`crate::fit_gp_on`]): `likelihood` solves its targets against
/// a factor the search shares between targets, and the crate-private
/// `refit` re-conditions it in place, reusing its buffers, so a likelihood
/// evaluation allocates nothing.
pub struct GaussianProcess<K: Kernel> {
    kernel: K,
    noise_variance: f64,
    dim: usize,
    /// Training rows, flattened row-major.
    x: Vec<f64>,
    /// Panel-major (`crate::linalg`); allocated by the first conditioning.
    chol: Vec<f64>,
    alpha: Vec<f64>,
    /// Standardized targets.
    yn: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    lml: f64,
}

impl<K: Kernel> GaussianProcess<K> {
    /// Fit on `x` (rows of equal dimension, ideally in the unit hypercube)
    /// and targets `y`. Targets are standardized internally; predictions are
    /// returned on the original scale.
    ///
    /// # Panics
    /// On an empty training set, ragged rows, or `x`/`y` of unequal length.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        kernel: K,
        noise_variance: f64,
    ) -> Result<GaussianProcess<K>, NotPositiveDefinite> {
        GaussianProcess::fit_on(&TrainingInputs::new(x), y, kernel, noise_variance)
    }

    /// [`GaussianProcess::fit`] on inputs whose distances are already
    /// computed — for several fits on the same `x`.
    pub fn fit_on(
        inputs: &TrainingInputs,
        y: &[f64],
        kernel: K,
        noise_variance: f64,
    ) -> Result<GaussianProcess<K>, NotPositiveDefinite> {
        let mut gp = GaussianProcess::unfitted(inputs, y, kernel);
        gp.condition(inputs, noise_variance)?;
        Ok(gp)
    }

    /// Standardize `y` and allocate the `n`-vectors of a fit on `inputs`;
    /// the factor is allocated by the first conditioning, so a search that
    /// factors into a shared buffer holds one factor, not one per target.
    /// The result must not predict before [`GaussianProcess::condition`]
    /// succeeds on it.
    pub(crate) fn unfitted(inputs: &TrainingInputs, y: &[f64], kernel: K) -> GaussianProcess<K> {
        assert_eq!(inputs.len(), y.len(), "x/y length mismatch");
        let n = inputs.len();
        assert!(n > 0, "cannot fit a GP on zero points");

        let y_mean = y.iter().sum::<f64>() / n as f64;
        let var = y.iter().map(|v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n as f64;
        let y_std = var.sqrt().max(1e-12);
        let yn: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();

        GaussianProcess {
            kernel,
            noise_variance: f64::NAN,
            dim: inputs.dim(),
            x: inputs.flat().to_vec(),
            chol: Vec::new(),
            alpha: vec![0.0; n],
            yn,
            y_mean,
            y_std,
            lml: f64::NAN,
        }
    }

    /// Factorize `K + σₙ²I` for the current kernel, solve for `α` and
    /// return the log marginal likelihood. `inputs` must be the ones the
    /// model was built on. After an error the model is unusable until a
    /// later call succeeds.
    pub(crate) fn condition(
        &mut self,
        inputs: &TrainingInputs,
        noise_variance: f64,
    ) -> Result<f64, NotPositiveDefinite> {
        debug_assert_eq!(inputs.len(), self.alpha.len());
        self.noise_variance = noise_variance.max(1e-8);
        self.chol.resize(panel_len(inputs.len()), 0.0);
        let log_det_half = factor(inputs, &self.kernel, self.noise_variance, &mut self.chol)?;
        self.lml = log_likelihood(&self.chol, log_det_half, &self.yn, &mut self.alpha);
        Ok(self.lml)
    }

    /// The log marginal likelihood of this model's targets under a factor
    /// from [`factor`] (and its half log-determinant), leaving `α` in the
    /// model. Only the search calls this; the model cannot predict until a
    /// later [`GaussianProcess::condition`] succeeds.
    pub(crate) fn likelihood(&mut self, chol: &[f64], log_det_half: f64) -> f64 {
        log_likelihood(chol, log_det_half, &self.yn, &mut self.alpha)
    }

    /// [`GaussianProcess::condition`] under a new kernel.
    pub(crate) fn refit(
        &mut self,
        inputs: &TrainingInputs,
        kernel: K,
        noise_variance: f64,
    ) -> Result<f64, NotPositiveDefinite> {
        self.kernel = kernel;
        self.condition(inputs, noise_variance)
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.alpha.len()
    }

    /// True when fitted on zero points (cannot happen; kept for API hygiene).
    pub fn is_empty(&self) -> bool {
        self.alpha.is_empty()
    }

    /// Log marginal likelihood (of the standardized targets).
    pub fn log_marginal_likelihood(&self) -> f64 {
        self.lml
    }

    /// Observation noise variance used in the fit.
    pub fn noise_variance(&self) -> f64 {
        self.noise_variance
    }

    /// Posterior mean and variance at `q`, on the original target scale:
    /// the one-query, one-model case of [`Joint::predict`].
    ///
    /// # Panics
    /// When `q` does not have the training rows' dimension.
    pub fn predict(&self, q: &[f64]) -> Posterior {
        Joint::new([self]).predict(&[q])[0][0]
    }

    /// Draw one posterior sample at `q` using an externally supplied
    /// standard-normal variate (keeps sampling deterministic for MC
    /// acquisition functions).
    pub fn sample_at(&self, q: &[f64], z: f64) -> f64 {
        let p = self.predict(q);
        p.mean + p.std_dev() * z
    }
}

/// Queries per block of [`Joint::predict`]: eight lanes of distances,
/// kernel values and forward-solve chains.
pub const BLOCK: usize = 8;

thread_local! {
    /// Each thread's block scratch, reused across calls: the acquisition
    /// scans' worker threads score ~20 blocks each. A heap buffer per
    /// block raised `cluster-batched-22d`'s peak RSS by 1.5 MiB in most
    /// runs (the allocator's per-thread arenas).
    static SCRATCH: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// `M` models fitted on the same training rows (the tuner's speed and
/// recall surrogates), predicted together.
///
/// [`Joint::predict`] scores queries in blocks of [`BLOCK`]. For each
/// block it computes every query's distances to the training rows once,
/// for all the models; maps them through each model's kernel in one
/// `exp_map` pass (four lanes on AVX2 + FMA); and runs the block's forward
/// solves in one pass over each panel column of the factor
/// (`linalg::solve_lower_lanes`). Every query keeps the one-query chains
/// in the same order, so each posterior equals the one-query prediction
/// bit for bit, whatever the block size and whatever else shares the block.
pub struct Joint<'a, K: Kernel, const M: usize> {
    models: [&'a GaussianProcess<K>; M],
}

impl<'a, K: Kernel, const M: usize> Joint<'a, K, M> {
    /// # Panics
    /// When the models' training rows are not the same, bit for bit.
    pub fn new(models: [&'a GaussianProcess<K>; M]) -> Joint<'a, K, M> {
        if let Some((first, rest)) = models.split_first() {
            for m in rest {
                let same = m.dim == first.dim
                    && m.x.len() == first.x.len()
                    && m.x.iter().zip(&first.x).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "the models were fitted on different training rows");
            }
        }
        Joint { models }
    }

    /// Each model's posterior at each query, in query order.
    ///
    /// # Panics
    /// When a query does not have the training rows' dimension.
    pub fn predict<Q: AsRef<[f64]>>(&self, queries: &[Q]) -> Vec<[Posterior; M]> {
        self.predict_on(vecdata::kernel::active(), queries)
    }

    /// [`Joint::predict`] on the given tier.
    pub(crate) fn predict_on<Q: AsRef<[f64]>>(
        &self,
        simd: Tier,
        queries: &[Q],
    ) -> Vec<[Posterior; M]> {
        let blank = Posterior { mean: f64::NAN, variance: f64::NAN };
        let mut out = vec![[blank; M]; queries.len()];
        let Some(first) = self.models.first() else {
            return out;
        };
        for q in queries {
            assert_eq!(q.as_ref().len(), first.dim, "query has the wrong dimension");
        }
        // Every block writes its scratch before reading it, so the
        // previous call's contents are never seen.
        let mut scratch = SCRATCH.take();
        scratch.resize((2 * first.len() + first.dim) * queries.len().min(BLOCK), 0.0);
        simd.run(
            #[inline(always)]
            || {
                // Full blocks, then the tail one query at a time (the
                // tuner's pools and refinement rounds are whole blocks).
                let (blocks, tail) = queries.as_chunks::<BLOCK>();
                let (out_blocks, out_tail) = out.as_chunks_mut::<BLOCK>();
                for (q, o) in blocks.iter().zip(out_blocks) {
                    self.block::<BLOCK, Q>(simd, q, o, &mut scratch);
                }
                for (q, o) in tail.chunks(1).zip(out_tail.chunks_mut(1)) {
                    self.block::<1, Q>(simd, q, o, &mut scratch);
                }
            },
        );
        SCRATCH.set(scratch);
        out
    }

    /// The posteriors of `B` queries, with the one-query chains in lanes:
    /// the distance `Σ_d (q_d − x_d)²` in ascending `d`, then its square
    /// root; `k* = kernel(r)`; the mean `Σ_i k*_i α_i` and, after the
    /// forward solve `v = L⁻¹ k*`, `Σ_i v_i²`, both in ascending `i` from
    /// `−0.0` like `Iterator::sum`.
    #[inline(always)]
    fn block<const B: usize, Q: AsRef<[f64]>>(
        &self,
        simd: Tier,
        queries: &[Q],
        out: &mut [[Posterior; M]],
        scratch: &mut [f64],
    ) {
        let first = self.models[0];
        let (n, dim) = (first.len(), first.dim);
        let (transposed, rest) = scratch.split_at_mut(dim * B);
        let (distances, rest) = rest.split_at_mut(n * B);
        let kstar = &mut rest[..n * B];
        let (transposed, _) = transposed.as_chunks_mut::<B>();
        for (d, lanes) in transposed.iter_mut().enumerate() {
            *lanes = std::array::from_fn(|b| queries[b].as_ref()[d]);
        }
        let (rows, _) = distances.as_chunks_mut::<B>();
        for (i, r) in rows.iter_mut().enumerate() {
            // Indexed, not `chunks_exact(dim)`, which panics at `dim = 0`.
            let x = &first.x[i * dim..(i + 1) * dim];
            let mut acc = [0.0; B];
            for (q, &x) in transposed.iter().zip(x) {
                for b in 0..B {
                    let t = q[b] - x;
                    acc[b] += t * t;
                }
            }
            *r = acc.map(f64::sqrt);
        }
        for (m, model) in self.models.iter().enumerate() {
            let kernel = &model.kernel;
            kstar.copy_from_slice(distances);
            eval_dists(simd, kernel, kstar);
            let (v, _) = kstar.as_chunks_mut::<B>();
            let mut mean = [-0.0; B];
            for (k, &a) in v.iter().zip(&model.alpha) {
                for b in 0..B {
                    mean[b] += k[b] * a;
                }
            }
            solve_lower_lanes(&model.chol, n, v);
            let mut sq = [-0.0; B];
            for v in &*v {
                for b in 0..B {
                    sq[b] += v[b] * v[b];
                }
            }
            for b in 0..B {
                let var_n = (kernel.diag() - sq[b]).max(1e-12);
                out[b][m] = Posterior {
                    mean: mean[b] * model.y_std + model.y_mean,
                    variance: var_n * model.y_std * model.y_std,
                };
            }
        }
    }
}

/// Fill `K + noise·I` into the panel-major `chol` and factor it, with
/// jitter if needed; returns half its log-determinant. Everything a
/// likelihood evaluation does that does not depend on the targets.
pub(crate) fn factor<K: Kernel>(
    inputs: &TrainingInputs,
    kernel: &K,
    noise: f64,
    chol: &mut [f64],
) -> Result<f64, NotPositiveDefinite> {
    let n = inputs.len();
    cholesky_jittered(chol, n, |a| inputs.kernel_matrix_into(kernel, noise, a))?;
    Ok(log_det_half(chol, n))
}

/// `α = (K + σₙ²I)⁻¹ yn` into `alpha`, and the log marginal likelihood of
/// the standardized targets `yn`.
fn log_likelihood(chol: &[f64], log_det_half: f64, yn: &[f64], alpha: &mut [f64]) -> f64 {
    let n = yn.len();
    alpha.copy_from_slice(yn);
    solve_cholesky_in_place(chol, n, alpha);
    -0.5 * dot(yn, alpha) - log_det_half - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Matern52;

    fn toy() -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64 / 8.0]).collect();
        let y: Vec<f64> = x.iter().map(|p| (p[0] * 3.0).sin() * 10.0 + 5.0).collect();
        (x, y)
    }

    #[test]
    fn interpolates_training_points() {
        let (x, y) = toy();
        let gp = GaussianProcess::fit(&x, &y, Matern52::default(), 1e-6).unwrap();
        for (xi, yi) in x.iter().zip(&y) {
            let p = gp.predict(xi);
            assert!((p.mean - yi).abs() < 0.3, "pred {} vs {}", p.mean, yi);
        }
    }

    #[test]
    fn variance_small_at_data_large_away() {
        let (x, y) = toy();
        let gp = GaussianProcess::fit(
            &x,
            &y,
            Matern52 { lengthscale: 0.15, ..Default::default() },
            1e-6,
        )
        .unwrap();
        let at_data = gp.predict(&[0.5]).variance;
        let away = gp.predict(&[3.0]).variance;
        assert!(away > at_data * 10.0, "{away} vs {at_data}");
    }

    #[test]
    fn mean_reverts_to_prior_far_away() {
        let (x, y) = toy();
        let y_mean = y.iter().sum::<f64>() / y.len() as f64;
        let gp = GaussianProcess::fit(&x, &y, Matern52::default(), 1e-6).unwrap();
        let far = gp.predict(&[100.0]);
        assert!((far.mean - y_mean).abs() < 1e-6);
    }

    #[test]
    fn noisier_fit_smooths() {
        let (x, y) = toy();
        let tight = GaussianProcess::fit(&x, &y, Matern52::default(), 1e-6).unwrap();
        let loose = GaussianProcess::fit(&x, &y, Matern52::default(), 1.0).unwrap();
        // With high noise, training-point predictions shrink toward the mean.
        let err_tight = (tight.predict(&x[0]).mean - y[0]).abs();
        let err_loose = (loose.predict(&x[0]).mean - y[0]).abs();
        assert!(err_loose > err_tight);
    }

    #[test]
    fn lml_prefers_sensible_lengthscale() {
        let (x, y) = toy();
        let good =
            GaussianProcess::fit(&x, &y, Matern52 { lengthscale: 0.3, signal_variance: 1.0 }, 1e-4)
                .unwrap()
                .log_marginal_likelihood();
        let bad = GaussianProcess::fit(
            &x,
            &y,
            Matern52 { lengthscale: 1e-3, signal_variance: 1.0 },
            1e-4,
        )
        .unwrap()
        .log_marginal_likelihood();
        assert!(good > bad, "good {good} bad {bad}");
    }

    #[test]
    fn sample_at_is_mean_plus_z_std() {
        let (x, y) = toy();
        let gp = GaussianProcess::fit(&x, &y, Matern52::default(), 1e-6).unwrap();
        let q = [0.42];
        let p = gp.predict(&q);
        assert!((gp.sample_at(&q, 0.0) - p.mean).abs() < 1e-12);
        assert!((gp.sample_at(&q, 2.0) - (p.mean + 2.0 * p.std_dev())).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "query has the wrong dimension")]
    fn short_query_is_caught_not_truncated() {
        let x = vec![vec![0.1, 0.2], vec![0.7, 0.4]];
        let gp = GaussianProcess::fit(&x, &[1.0, 2.0], Matern52::default(), 1e-6).unwrap();
        gp.predict(&[0.1]);
    }

    #[test]
    fn zero_dimensional_inputs_predict() {
        let x = vec![vec![]; 3];
        let gp = GaussianProcess::fit(&x, &[1.0, 2.0, 6.0], Matern52::default(), 1e-2).unwrap();
        let one = gp.predict(&[]);
        assert!(one.mean.is_finite() && one.variance.is_finite());
        let queries: Vec<&[f64]> = vec![&[]; BLOCK + 1];
        for [p] in Joint::new([&gp]).predict(&queries) {
            assert_eq!(p, one);
        }
    }

    #[test]
    fn single_point_fit_works() {
        let gp = GaussianProcess::fit(&[vec![0.5]], &[3.0], Matern52::default(), 1e-6).unwrap();
        let p = gp.predict(&[0.5]);
        assert!((p.mean - 3.0).abs() < 1e-6);
    }
}
