//! Test oracles: the straightforward implementations this crate's fit path
//! must equal **bit for bit**, and the property tests that hold it to that.
//!
//! Everything below the `Oracles` banner is the pre-optimization code kept
//! verbatim in behaviour: the one-chain scalar Cholesky, the jitter
//! escalation over a pristine copy, the allocating triangular solves, a GP
//! fit that recomputes every distance through `Kernel::eval`, and an MLE
//! search that builds and drops one such model per likelihood evaluation.
//! They are slow and obviously correct; the production code is neither
//! allowed to reassociate, fuse nor approximate its way off them.

use crate::kernel::{Kernel, Matern52};
use crate::linalg::{dot, log_det_half, NotPositiveDefinite};
use crate::mle::{clamp_params, FitOptions, LOG_LS_RANGE};
use crate::opt::{nelder_mead, NelderMeadOptions};
use crate::{linalg, GaussianProcess, TrainingInputs};
use proptest::panel::bits_f64 as bits;
use proptest::prelude::*;
use proptest::TestRng;

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

fn cholesky_in_place(a: &mut [f64], n: usize) -> Result<(), NotPositiveDefinite> {
    for j in 0..n {
        let mut diag = a[j * n + j];
        for k in 0..j {
            diag -= a[j * n + k] * a[j * n + k];
        }
        if diag <= 0.0 || !diag.is_finite() {
            return Err(NotPositiveDefinite);
        }
        let diag = diag.sqrt();
        a[j * n + j] = diag;
        for i in (j + 1)..n {
            let mut v = a[i * n + j];
            for k in 0..j {
                v -= a[i * n + k] * a[j * n + k];
            }
            a[i * n + j] = v / diag;
        }
    }
    Ok(())
}

fn cholesky_jittered(a: &[f64], n: usize) -> Result<(Vec<f64>, f64), NotPositiveDefinite> {
    let mean_diag = (0..n).map(|i| a[i * n + i]).sum::<f64>().max(1e-300) / n.max(1) as f64;
    let mut jitter = 0.0f64;
    for attempt in 0..9 {
        let mut work = a.to_vec();
        if attempt > 0 {
            jitter = mean_diag * 1e-10 * 10f64.powi(attempt - 1);
            for i in 0..n {
                work[i * n + i] += jitter;
            }
        }
        if cholesky_in_place(&mut work, n).is_ok() {
            return Ok((work, jitter));
        }
    }
    Err(NotPositiveDefinite)
}

fn solve_lower(l: &[f64], n: usize, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    for i in 0..n {
        let mut v = x[i];
        for k in 0..i {
            v -= l[i * n + k] * x[k];
        }
        x[i] = v / l[i * n + i];
    }
    x
}

fn solve_lower_transpose(l: &[f64], n: usize, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    for i in (0..n).rev() {
        let mut v = x[i];
        for k in (i + 1)..n {
            v -= l[k * n + i] * x[k];
        }
        x[i] = v / l[i * n + i];
    }
    x
}

/// The fitted model of the oracle: enough state to predict.
struct RefGp {
    kernel: Matern52,
    noise_variance: f64,
    x: Vec<Vec<f64>>,
    chol: Vec<f64>,
    alpha: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    lml: f64,
}

impl RefGp {
    fn fit(
        x: &[Vec<f64>],
        y: &[f64],
        kernel: Matern52,
        noise_variance: f64,
    ) -> Result<RefGp, NotPositiveDefinite> {
        let n = x.len();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let var = y.iter().map(|v| (v - y_mean) * (v - y_mean)).sum::<f64>() / n as f64;
        let y_std = var.sqrt().max(1e-12);
        let yn: Vec<f64> = y.iter().map(|v| (v - y_mean) / y_std).collect();

        let noise = noise_variance.max(1e-8);
        let mut k = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let v = kernel.eval(&x[i], &x[j]);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
            k[i * n + i] += noise;
        }
        let (chol, _jitter) = cholesky_jittered(&k, n)?;
        let alpha = solve_lower_transpose(&chol, n, &solve_lower(&chol, n, &yn));
        let lml = -0.5 * dot(&yn, &alpha)
            - log_det_half(&chol, n)
            - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        Ok(RefGp { kernel, noise_variance: noise, x: x.to_vec(), chol, alpha, y_mean, y_std, lml })
    }

    /// `(mean, variance)` at `q`.
    fn predict(&self, q: &[f64]) -> (f64, f64) {
        let n = self.x.len();
        let kstar: Vec<f64> = self.x.iter().map(|xi| self.kernel.eval(q, xi)).collect();
        let mean_n = dot(&kstar, &self.alpha);
        let v = solve_lower(&self.chol, n, &kstar);
        let var_n = (self.kernel.diag() - dot(&v, &v)).max(1e-12);
        (mean_n * self.y_std + self.y_mean, var_n * self.y_std * self.y_std)
    }
}

fn fit_gp(x: &[Vec<f64>], y: &[f64], opts: &FitOptions) -> RefGp {
    let nll = |p: &[f64]| -> f64 {
        let (ls, sv, noise) = clamp_params(p);
        let kernel = Matern52 { lengthscale: ls, signal_variance: sv };
        match RefGp::fit(x, y, kernel, noise) {
            Ok(gp) => -gp.lml,
            Err(_) => f64::INFINITY,
        }
    };
    let starts: Vec<[f64; 3]> = (0..opts.restarts.max(1))
        .map(|i| {
            let t = i as f64 / opts.restarts.max(2).saturating_sub(1).max(1) as f64;
            [LOG_LS_RANGE.0 + 0.3 + t * (LOG_LS_RANGE.1 - LOG_LS_RANGE.0 - 0.8), 0.0, -3.0]
        })
        .collect();
    let nm_opts = NelderMeadOptions { max_iters: opts.max_iters, ..Default::default() };
    let mut best: Option<(Vec<f64>, f64)> = None;
    for s in &starts {
        let (p, fp) = nelder_mead(nll, s, &nm_opts);
        if fp.is_finite() && best.as_ref().is_none_or(|(_, b)| fp < *b) {
            best = Some((p, fp));
        }
    }
    let (ls, sv, noise) = match &best {
        Some((p, _)) => clamp_params(p),
        None => (0.3, 1.0, 1e-4),
    };
    let kernel = Matern52 { lengthscale: ls, signal_variance: sv };
    RefGp::fit(x, y, kernel, noise).unwrap_or_else(|_| {
        RefGp::fit(x, y, Matern52::default(), 1e-2)
            .expect("default kernel with large noise must factorize")
    })
}

// ---------------------------------------------------------------------------
// Bit-identity of the production path
// ---------------------------------------------------------------------------

/// A random SPD matrix `M Mᵀ + n·I` with entries on no special grid.
fn random_spd(n: usize, rng: &mut TestRng) -> Vec<f64> {
    let m: Vec<f64> = (0..n * n).map(|_| rng.unit_f64() * 2.0 - 1.0).collect();
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = (0..n).map(|k| m[i * n + k] * m[j * n + k]).sum();
        }
        a[i * n + i] += n as f64 * 0.25;
    }
    a
}

#[test]
fn row_blocked_cholesky_equals_the_scalar_loop_for_every_size() {
    // 1×1, every n mod 4 remainder, and sizes past several row blocks.
    let mut rng = proptest::test_rng("cholesky-sizes");
    for n in 1..=67 {
        let a = random_spd(n, &mut rng);
        let (mut fast, mut slow) = (a.clone(), a);
        assert_eq!(linalg::cholesky_in_place(&mut fast, n), cholesky_in_place(&mut slow, n));
        assert_eq!(bits(&fast), bits(&slow), "n = {n}");
    }
}

#[test]
fn cholesky_fails_at_the_same_column_with_the_same_partial_factor() {
    let mut rng = proptest::test_rng("cholesky-failure");
    for n in [1, 2, 5, 8, 13, 30, 67] {
        for bad in [0, n / 2, n - 1] {
            // Column `bad` loses positive-definiteness; the columns before
            // it are factorized and the rest untouched, on both sides.
            let mut a = random_spd(n, &mut rng);
            a[bad * n + bad] = -1.0;
            let (mut fast, mut slow) = (a.clone(), a);
            assert!(linalg::cholesky_in_place(&mut fast, n).is_err());
            assert!(cholesky_in_place(&mut slow, n).is_err());
            assert_eq!(bits(&fast), bits(&slow), "n = {n}, column {bad}");
        }
    }
}

#[test]
fn triangular_solves_equal_the_scalar_loops_for_every_size() {
    let mut rng = proptest::test_rng("solve-sizes");
    for n in 1..=67 {
        let mut l = random_spd(n, &mut rng);
        cholesky_in_place(&mut l, n).unwrap();
        let b: Vec<f64> = (0..n).map(|_| rng.unit_f64() * 4.0 - 2.0).collect();
        let mut x = b.clone();
        linalg::solve_lower_in_place(&l, n, &mut x);
        assert_eq!(bits(&x), bits(&solve_lower(&l, n, &b)), "forward, n = {n}");
        let mut x = b.clone();
        linalg::solve_lower_transpose_in_place(&l, n, &mut x);
        assert_eq!(bits(&x), bits(&solve_lower_transpose(&l, n, &b)), "backward, n = {n}");
    }
}

/// `n` rows of dimension `d` in the unit cube; every `dup`-th row repeats
/// row 0 when `dup > 0`, which makes `K` singular and the factorization
/// walk the jitter escalation at small noise.
fn training_set(n: usize, d: usize, dup: usize, rng: &mut TestRng) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut x: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| rng.unit_f64()).collect()).collect();
    if dup > 0 {
        for i in (dup..n).step_by(dup) {
            x[i] = x[0].clone();
        }
    }
    let y = x.iter().map(|p| (p[0] * 5.0).sin() * 3.0 + p[d - 1] + rng.unit_f64() * 0.1).collect();
    (x, y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn workspace_nll_equals_a_fresh_fit_bitwise(
        seed in 0u64..u64::MAX,
        n in 1usize..40,
        d in 1usize..24,
        dup in 0usize..4,
        log_ls in -2.5f64..1.2,
        log_sv in -2.0f64..10.0,
        log_noise in -9.0f64..0.0,
    ) {
        let (x, y) = training_set(n, d, dup, &mut TestRng::from_seed(seed));
        let inputs = TrainingInputs::new(&x);
        let kernel = Matern52 { lengthscale: 10f64.powf(log_ls), signal_variance: 10f64.powf(log_sv) };
        let noise = 10f64.powf(log_noise);

        // Dirty the workspace with another evaluation first: nothing of it
        // may leak into the next one.
        let mut gp = GaussianProcess::unfitted(&inputs, &y, Matern52::default());
        gp.condition(&inputs, 1e-2).expect("the default kernel with large noise factorizes");
        let got = gp.refit(&inputs, kernel, noise);

        match RefGp::fit(&x, &y, kernel, noise) {
            Ok(want) => {
                prop_assert_eq!(got.map(f64::to_bits), Ok(want.lml.to_bits()));
                prop_assert_eq!(gp.noise_variance().to_bits(), want.noise_variance.to_bits());
                let fresh = GaussianProcess::fit(&x, &y, kernel, noise).unwrap();
                prop_assert_eq!(fresh.log_marginal_likelihood().to_bits(), want.lml.to_bits());
                for q in x.iter().take(3).chain([&vec![0.37; d]]) {
                    let (mean, variance) = want.predict(q);
                    for model in [&gp, &fresh] {
                        let p = model.predict(q);
                        prop_assert_eq!(p.mean.to_bits(), mean.to_bits());
                        prop_assert_eq!(p.variance.to_bits(), variance.to_bits());
                    }
                }
            }
            Err(_) => prop_assert!(got.is_err()),
        }
    }
}

#[test]
fn duplicate_rows_take_the_jitter_path_on_both_sides() {
    // All rows equal, a signal variance whose ulp exceeds the noise floor:
    // K + 1e-8·I is exactly the constant matrix, so the first attempt
    // fails and a jittered one succeeds.
    let x = vec![vec![0.5, 0.25, 0.75]; 12];
    let y: Vec<f64> = (0..12).map(|i| 1.0 + 0.01 * i as f64).collect();
    let kernel = Matern52 { lengthscale: 0.7, signal_variance: 1e9 };
    let mut k = vec![kernel.signal_variance; 144];
    (0..12).for_each(|i| k[i * 12 + i] += 1e-8);
    assert!(cholesky_jittered(&k, 12).unwrap().1 > 0.0, "the case must need jitter");

    let want = RefGp::fit(&x, &y, kernel, 0.0).unwrap();
    let got = GaussianProcess::fit(&x, &y, kernel, 0.0).unwrap();
    assert_eq!(got.log_marginal_likelihood().to_bits(), want.lml.to_bits());
    let (mean, variance) = want.predict(&[0.5, 0.25, 0.7]);
    let p = got.predict(&[0.5, 0.25, 0.7]);
    assert_eq!((p.mean.to_bits(), p.variance.to_bits()), (mean.to_bits(), variance.to_bits()));
}

#[test]
fn unfactorisable_inputs_are_an_infinite_nll_on_both_sides() {
    // A non-finite coordinate poisons a whole row of K; no jitter helps.
    let mut x = vec![vec![0.1, 0.2], vec![0.3, 0.9], vec![0.8, 0.4]];
    x[1][0] = f64::NAN;
    let y = [1.0, 2.0, 3.0];
    assert!(RefGp::fit(&x, &y, Matern52::default(), 1e-3).is_err());
    assert!(GaussianProcess::fit(&x, &y, Matern52::default(), 1e-3).is_err());
    // The search scores it +∞ everywhere and falls back; the fallback
    // cannot factorize either, which is the documented panic.
    let inputs = TrainingInputs::new(&x);
    let mut gp = GaussianProcess::unfitted(&inputs, &y, Matern52::default());
    assert!(gp.condition(&inputs, 1e-2).is_err());
}

/// The toy sets of `mle.rs`'s unit tests.
fn toy_sets() -> Vec<(Vec<Vec<f64>>, Vec<f64>)> {
    let smooth: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 19.0]).collect();
    let smooth_y = smooth.iter().map(|p| (p[0] * 6.0).sin()).collect();
    let wavy: Vec<Vec<f64>> = (0..25).map(|i| vec![i as f64 / 24.0]).collect();
    let wavy_y = wavy.iter().map(|p| (p[0] * 10.0).sin() * 3.0).collect();
    let flat: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
    vec![
        (smooth, smooth_y),
        (wavy, wavy_y),
        (flat, vec![2.0; 8]),
        (vec![vec![0.5, 0.5]; 6], vec![1.0, 1.1, 0.9, 1.0, 1.05, 0.95]),
    ]
}

#[test]
fn fit_gp_equals_the_refit_per_evaluation_search_bitwise() {
    let mut rng = proptest::test_rng("fit-gp");
    let mut sets = toy_sets();
    // Two sets shaped like the tuner's: wide, and past two row blocks.
    sets.push(training_set(37, 22, 0, &mut rng));
    sets.push(training_set(18, 16, 5, &mut rng));
    for (x, y) in &sets {
        for opts in [FitOptions::default(), FitOptions { restarts: 3, max_iters: 15 }] {
            let want = fit_gp(x, y, &opts);
            let got = crate::fit_gp(x, y, &opts);
            assert_eq!(got.log_marginal_likelihood().to_bits(), want.lml.to_bits());
            assert_eq!(got.noise_variance().to_bits(), want.noise_variance.to_bits());
            let d = x[0].len();
            for q in x.iter().take(4).chain([&vec![0.475; d], &vec![3.0; d]]) {
                let (mean, variance) = want.predict(q);
                let p = got.predict(q);
                assert_eq!(p.mean.to_bits(), mean.to_bits());
                assert_eq!(p.variance.to_bits(), variance.to_bits());
            }
        }
    }
}
