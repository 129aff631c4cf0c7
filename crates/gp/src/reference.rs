//! Test oracles: the straightforward implementations this crate's fit path
//! must equal **bit for bit**, and the property tests that hold it to that.
//!
//! Everything below the `Oracles` banner is the pre-optimization code kept
//! verbatim in behaviour: the one-chain scalar Cholesky on a row-major
//! matrix, the jitter escalation over a pristine copy, the allocating
//! triangular solves, a GP fit that recomputes every distance through
//! `Kernel::eval`, the closure-driven Nelder–Mead loop, and an MLE search
//! that fits one target alone and builds and drops one model per
//! likelihood evaluation. They are slow and obviously correct; the
//! production code (a panel-major factor, read here through
//! `linalg::at`, and an ask/tell simplex run in lockstep over targets) is
//! allowed neither to reassociate, fuse nor approximate its way off them.
//!
//! They may be retired the day a history-changing change to the fit (another
//! factorization order, jitter rule, likelihood or optimizer) is accepted
//! and the pinned surrogate digests move with it, since these loops then pin
//! nothing any more.

use crate::kernel::{Kernel, Matern52};
use crate::linalg::{at, dot, panel_len, NotPositiveDefinite};
use crate::mle::{clamp_params, FitOptions, Lockstep, LOG_LS_RANGE};
use crate::opt::{NelderMead, NelderMeadOptions};
use crate::{linalg, GaussianProcess, Joint, TrainingInputs, BLOCK};
use proptest::panel::bits_f64 as bits;
use proptest::prelude::*;
use proptest::TestRng;
use vecdata::kernel::{Kernel as Tier, SCALAR};

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

fn log_det_half(l: &[f64], n: usize) -> f64 {
    (0..n).map(|i| l[i * n + i].ln()).sum()
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

/// Minimize `f` starting from `x0`. Returns `(argmin, min)`.
fn nelder_mead<F: FnMut(&[f64]) -> f64>(
    mut f: F,
    x0: &[f64],
    opts: &NelderMeadOptions,
) -> (Vec<f64>, f64) {
    let d = x0.len();
    assert!(d > 0);
    let (alpha, gamma, rho, sigma) = (1.0, 2.0, 0.5, 0.5);

    // Initial simplex: x0 plus one perturbed vertex per coordinate.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(d + 1);
    let fx0 = f(x0);
    simplex.push((x0.to_vec(), fx0));
    for i in 0..d {
        let mut v = x0.to_vec();
        v[i] += opts.initial_step;
        let fv = f(&v);
        simplex.push((v, fv));
    }

    for _ in 0..opts.max_iters {
        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let spread = simplex[d].1 - simplex[0].1;
        if spread.abs() < opts.f_tol {
            break;
        }
        // Centroid of all but the worst.
        let mut centroid = vec![0.0; d];
        for (v, _) in simplex.iter().take(d) {
            for (c, x) in centroid.iter_mut().zip(v) {
                *c += x / d as f64;
            }
        }
        let worst = simplex[d].clone();

        let reflect: Vec<f64> =
            centroid.iter().zip(&worst.0).map(|(c, w)| c + alpha * (c - w)).collect();
        let f_reflect = f(&reflect);

        if f_reflect < simplex[0].1 {
            // Try expanding.
            let expand: Vec<f64> =
                centroid.iter().zip(&reflect).map(|(c, r)| c + gamma * (r - c)).collect();
            let f_expand = f(&expand);
            simplex[d] =
                if f_expand < f_reflect { (expand, f_expand) } else { (reflect, f_reflect) };
        } else if f_reflect < simplex[d - 1].1 {
            simplex[d] = (reflect, f_reflect);
        } else {
            // Contract.
            let contract: Vec<f64> =
                centroid.iter().zip(&worst.0).map(|(c, w)| c + rho * (w - c)).collect();
            let f_contract = f(&contract);
            if f_contract < worst.1 {
                simplex[d] = (contract, f_contract);
            } else {
                // Shrink toward the best vertex.
                let best = simplex[0].0.clone();
                for vertex in simplex.iter_mut().skip(1) {
                    let v: Vec<f64> =
                        best.iter().zip(&vertex.0).map(|(b, x)| b + sigma * (x - b)).collect();
                    let fv = f(&v);
                    *vertex = (v, fv);
                }
            }
        }
    }
    simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
    simplex.swap_remove(0)
}

/// The negative log marginal likelihood of `y` on `x` at log-parameters
/// `p`, from a model built from scratch.
fn oracle_nll<'a>(x: &'a [Vec<f64>], y: &'a [f64]) -> impl Fn(&[f64]) -> f64 + 'a {
    move |p| {
        let (ls, sv, noise) = clamp_params(p);
        let kernel = Matern52 { lengthscale: ls, signal_variance: sv };
        match RefGp::fit(x, y, kernel, noise) {
            Ok(gp) => -gp.lml,
            Err(_) => f64::INFINITY,
        }
    }
}

/// The points one restart asked for, in order.
type Trace = Vec<Vec<f64>>;

/// [`fit_gp`], also returning the points each restart's search evaluated.
fn fit_gp_traced(x: &[Vec<f64>], y: &[f64], opts: &FitOptions) -> (RefGp, Vec<Trace>) {
    let mut traces: Vec<Trace> = Vec::new();
    let starts: Vec<[f64; 3]> = (0..opts.restarts.max(1))
        .map(|i| {
            let t = i as f64 / opts.restarts.max(2).saturating_sub(1).max(1) as f64;
            [LOG_LS_RANGE.0 + 0.3 + t * (LOG_LS_RANGE.1 - LOG_LS_RANGE.0 - 0.8), 0.0, -3.0]
        })
        .collect();
    let nm_opts = NelderMeadOptions { max_iters: opts.max_iters, ..Default::default() };
    let mut best: Option<(Vec<f64>, f64)> = None;
    let nll = oracle_nll(x, y);
    for s in &starts {
        let mut trace = Vec::new();
        let traced = |p: &[f64]| {
            trace.push(p.to_vec());
            nll(p)
        };
        let (p, fp) = nelder_mead(traced, s, &nm_opts);
        traces.push(trace);
        if fp.is_finite() && best.as_ref().is_none_or(|(_, b)| fp < *b) {
            best = Some((p, fp));
        }
    }
    let (ls, sv, noise) = match &best {
        Some((p, _)) => clamp_params(p),
        None => (0.3, 1.0, 1e-4),
    };
    let kernel = Matern52 { lengthscale: ls, signal_variance: sv };
    let gp = RefGp::fit(x, y, kernel, noise).unwrap_or_else(|_| {
        RefGp::fit(x, y, Matern52::default(), 1e-2)
            .expect("default kernel with large noise must factorize")
    });
    (gp, traces)
}

fn fit_gp(x: &[Vec<f64>], y: &[f64], opts: &FitOptions) -> RefGp {
    fit_gp_traced(x, y, opts).0
}

// ---------------------------------------------------------------------------
// Bit-identity of the production path
// ---------------------------------------------------------------------------

/// Every `n` with each `n mod 4` and a partial last panel; the optimised
/// build (the CI's `--release` run) goes past several four-panel passes.
const MAX_N: usize = if cfg!(debug_assertions) { 67 } else { 181 };

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

/// The lower triangle of the row-major `a` in panels; the rest is NaN, so
/// that any result that depends on it shows.
fn to_panels(a: &[f64], n: usize) -> Vec<f64> {
    let mut p = vec![f64::NAN; panel_len(n)];
    for i in 0..n {
        for k in 0..=i {
            p[at(n, i, k)] = a[i * n + k];
        }
    }
    p
}

/// The bits of the lower triangle, row by row: of a row-major matrix, and
/// of a panel-major one read through `at`.
fn lower_bits(a: &[f64], n: usize) -> Vec<u64> {
    (0..n).flat_map(|i| (0..=i).map(move |k| a[i * n + k].to_bits())).collect()
}

fn panel_lower_bits(p: &[f64], n: usize) -> Vec<u64> {
    (0..n).flat_map(|i| (0..=i).map(move |k| p[at(n, i, k)].to_bits())).collect()
}

#[test]
fn row_blocked_cholesky_equals_the_scalar_loop_for_every_size() {
    // 1×1, every n mod 4 remainder, and sizes past several four-panel
    // passes: the panel factorization read through `at`, and the row-major
    // entry (pack, factor, unpack) on the whole buffer.
    let mut rng = proptest::test_rng("cholesky-sizes");
    for n in 1..=MAX_N {
        let a = random_spd(n, &mut rng);
        let mut slow = a.clone();
        let want = cholesky_in_place(&mut slow, n);
        let mut panels = to_panels(&a, n);
        assert_eq!(linalg::cholesky_panels(&mut panels, n), want);
        assert_eq!(panel_lower_bits(&panels, n), lower_bits(&slow, n), "panels, n = {n}");
        let mut fast = a;
        assert_eq!(linalg::cholesky_in_place(&mut fast, n), want);
        assert_eq!(bits(&fast), bits(&slow), "row-major, n = {n}");
    }
}

/// Every compilation of the factorization this host can run, whatever
/// `VDTUNER_FORCE_SCALAR` says: the scalar tier, and AVX2 when the CPU has
/// it.
fn tiers() -> Vec<Tier> {
    std::iter::once(SCALAR).chain(Tier::avx2()).collect()
}

/// The factorization compiled for `tier`: the `inline(always)` closure
/// puts the loop inside the tier's trampoline.
fn factor_on(tier: Tier, panels: &mut [f64], n: usize) -> Result<(), NotPositiveDefinite> {
    tier.run(
        #[inline(always)]
        || linalg::cholesky_blocked(panels, n),
    )
}

#[test]
fn every_tier_factors_like_the_scalar_loop() {
    // Every n mod 4, partial last panels, and two- and one-panel groups
    // below a four-column block.
    let mut rng = proptest::test_rng("cholesky-tiers");
    for n in (1..=12).chain(63..=67).chain([180, 181]) {
        let a = random_spd(n, &mut rng);
        let mut slow = a.clone();
        cholesky_in_place(&mut slow, n).unwrap();
        for tier in tiers() {
            let mut panels = to_panels(&a, n);
            factor_on(tier, &mut panels, n).unwrap();
            let name = tier.name();
            assert_eq!(panel_lower_bits(&panels, n), lower_bits(&slow, n), "{name}, n = {n}");
        }
    }
}

#[test]
fn cholesky_fails_at_the_same_column_with_the_same_partial_factor() {
    let mut rng = proptest::test_rng("cholesky-failure");
    for n in 1..=MAX_N {
        // The first, middle and last column, every offset of the
        // four-column block around the middle (the blocked pass finishes
        // the block's earlier columns before it fails), and the first
        // column of a partial last panel.
        let block = n / 2 / 4 * 4;
        let mut bad_columns = vec![0, n / 2, n - 1, n / 4 * 4];
        bad_columns.extend(block..block + 4);
        bad_columns.retain(|&c| c < n);
        bad_columns.sort_unstable();
        bad_columns.dedup();
        for bad in bad_columns {
            // Column `bad` loses positive-definiteness; the columns before
            // it are factorized and the rest untouched, on every side.
            let mut a = random_spd(n, &mut rng);
            a[bad * n + bad] = -1.0;
            let mut slow = a.clone();
            assert!(cholesky_in_place(&mut slow, n).is_err());
            for tier in tiers() {
                let mut panels = to_panels(&a, n);
                assert!(factor_on(tier, &mut panels, n).is_err());
                let name = tier.name();
                let got = panel_lower_bits(&panels, n);
                assert_eq!(got, lower_bits(&slow, n), "{name}, n = {n}, column {bad}");
            }
            let mut panels = to_panels(&a, n);
            assert!(linalg::cholesky_panels(&mut panels, n).is_err());
            assert_eq!(panel_lower_bits(&panels, n), lower_bits(&slow, n), "n = {n}, column {bad}");
            let mut fast = a;
            assert!(linalg::cholesky_in_place(&mut fast, n).is_err());
            assert_eq!(bits(&fast), bits(&slow), "row-major, n = {n}, column {bad}");
        }
    }
}

#[test]
fn triangular_solves_equal_the_scalar_loops_for_every_size() {
    let mut rng = proptest::test_rng("solve-sizes");
    for n in 1..=MAX_N {
        let mut l = random_spd(n, &mut rng);
        cholesky_in_place(&mut l, n).unwrap();
        let panels = to_panels(&l, n);
        let b: Vec<f64> = (0..n).map(|_| rng.unit_f64() * 4.0 - 2.0).collect();
        let mut x = b.clone();
        linalg::solve_lower_in_place(&panels, n, &mut x);
        assert_eq!(bits(&x), bits(&solve_lower(&l, n, &b)), "forward, n = {n}");
        let mut x = b.clone();
        linalg::solve_lower_transpose_in_place(&panels, n, &mut x);
        assert_eq!(bits(&x), bits(&solve_lower_transpose(&l, n, &b)), "backward, n = {n}");
        assert_eq!(
            linalg::log_det_half(&panels, n).to_bits(),
            log_det_half(&l, n).to_bits(),
            "log-determinant, n = {n}"
        );
    }
}

/// The block posterior of two models on one training set, on every tier,
/// against the oracle's one-query prediction and against
/// `GaussianProcess::predict`, in `to_bits()`: every size up to 9 (partial
/// panels), n = 23 and n = 181 (past two dozen panels), two full blocks
/// plus each tail of 0–7 queries, and a lengthscale of 0.01 beside 0.4, at
/// which the far queries' `k*` underflows to zero (and the mean sums
/// signed zeros) and many lanes leave the four-lane `exp`'s range. One
/// thread runs every case, so each reuses the scratch the one before left,
/// of another size and with stale contents.
#[test]
fn block_posterior_equals_the_one_query_prediction_on_every_tier() {
    let mut rng = proptest::test_rng("block-posterior");
    for n in (1..=9).chain([23, 181]) {
        let (x, y) = training_set(n, 22, 0, &mut rng);
        let y2: Vec<f64> = x.iter().map(|p| p[1] * p[2] - p[3]).collect();
        let (ka, kb) = (
            Matern52 { lengthscale: 0.4, signal_variance: 1.3 },
            Matern52 { lengthscale: 0.01, signal_variance: 0.7 },
        );
        let inputs = TrainingInputs::new(&x);
        let a = GaussianProcess::fit_on(&inputs, &y, ka, 1e-3).unwrap();
        let b = GaussianProcess::fit_on(&inputs, &y2, kb, 1e-2).unwrap();
        let oracles =
            [RefGp::fit(&x, &y, ka, 1e-3).unwrap(), RefGp::fit(&x, &y2, kb, 1e-2).unwrap()];
        let queries: Vec<Vec<f64>> = (0..3 * BLOCK)
            .map(|i| match i % 3 {
                0 => x[i % n].clone(),
                1 => (0..22).map(|_| rng.unit_f64()).collect(),
                _ => (0..22).map(|_| 3.0 + rng.unit_f64()).collect(),
            })
            .collect();
        for tail in 0..BLOCK {
            let queries = &queries[..2 * BLOCK + tail];
            for tier in tiers() {
                let got = Joint::new([&a, &b]).predict_on(tier, queries);
                assert_eq!(got.len(), queries.len());
                for (i, (q, posteriors)) in queries.iter().zip(got).enumerate() {
                    let case = format!("{}, n = {n}, tail {tail}, query {i}", tier.name());
                    for (m, (p, (model, oracle))) in
                        posteriors.into_iter().zip([&a, &b].into_iter().zip(&oracles)).enumerate()
                    {
                        let (mean, variance) = oracle.predict(q);
                        assert_eq!(p.mean.to_bits(), mean.to_bits(), "mean {m}: {case}");
                        assert_eq!(
                            p.variance.to_bits(),
                            variance.to_bits(),
                            "variance {m}: {case}"
                        );
                        assert_eq!(p, model.predict(q), "model {m}: {case}");
                    }
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "the models were fitted on different training rows")]
fn joint_prediction_refuses_models_on_different_rows() {
    let mut rng = proptest::test_rng("joint-rows");
    let (x, y) = training_set(6, 3, 0, &mut rng);
    let a = GaussianProcess::fit(&x, &y, Matern52::default(), 1e-3).unwrap();
    let mut moved = x.clone();
    moved[5][2] = moved[5][2].next_up();
    let b = GaussianProcess::fit(&moved, &y, Matern52::default(), 1e-3).unwrap();
    Joint::new([&a, &b]);
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
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 96 } else { 384 }))]

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

// ---------------------------------------------------------------------------
// The simplex
// ---------------------------------------------------------------------------

/// A named objective of the simplex panel.
type Objective = (&'static str, fn(&[f64]) -> f64);

/// Objectives with the cases a comparison-driven search can trip on: a
/// bowl, a curved valley, plateaus whose vertices tie under `total_cmp`, a
/// region of +∞, NaNs of both signs (which `total_cmp` sorts to opposite
/// ends), and a constant (the simplex has converged before its first
/// iteration).
fn objectives() -> Vec<Objective> {
    vec![
        ("convex", |v| v.iter().enumerate().map(|(i, x)| (x - 0.3 * i as f64).powi(2)).sum()),
        ("rosenbrock", |v| {
            v.windows(2)
                .map(|w| (1.0 - w[0]).powi(2) + 100.0 * (w[1] - w[0] * w[0]).powi(2))
                .sum::<f64>()
                + (v[0] - 1.0).powi(2)
        }),
        ("plateaus", |v| v.iter().map(|x| (x * 2.0).floor().abs()).sum()),
        ("infinite region", |v| {
            let r: f64 = v.iter().map(|x| x * x).sum();
            if r > 1.0 {
                f64::INFINITY
            } else {
                (v[0] - 0.5).powi(2) + r
            }
        }),
        ("nan", |v| match v[0] {
            x if x > 0.6 => f64::NAN,
            x if x < -0.4 => -f64::NAN,
            x => (x - 0.55).powi(2) + v.iter().skip(1).map(|y| y * y).sum::<f64>(),
        }),
        ("constant", |_| 1.5),
    ]
}

#[test]
fn ask_tell_simplex_asks_the_closure_loops_points() {
    let mut rng = proptest::test_rng("simplex");
    let starts_per_case = if cfg!(debug_assertions) { 4 } else { 32 };
    for (name, f) in objectives() {
        for d in 1..=3 {
            for max_iters in [0, 1, 40] {
                for opts in [
                    NelderMeadOptions { max_iters, ..Default::default() },
                    NelderMeadOptions { max_iters, f_tol: 0.0, initial_step: 0.5 },
                ] {
                    for _ in 0..starts_per_case {
                        let x0: Vec<f64> = (0..d).map(|_| rng.unit_f64() * 2.0 - 1.0).collect();
                        let mut want = Vec::new();
                        let (want_x, want_f) = nelder_mead(
                            |p| {
                                want.push(bits(p));
                                f(p)
                            },
                            &x0,
                            &opts,
                        );
                        let mut search = NelderMead::new(&x0, &opts);
                        let mut got = Vec::new();
                        while let Some(p) = search.ask() {
                            got.push(bits(p));
                            let value = f(p);
                            search.tell(value);
                        }
                        let case = format!("{name}, d = {d}, {opts:?}, x0 = {x0:?}");
                        assert_eq!(got, want, "asked points: {case}");
                        let (x, fx) = search.into_best();
                        assert_eq!(bits(&x), bits(&want_x), "argmin: {case}");
                        assert_eq!(fx.to_bits(), want_f.to_bits(), "min: {case}");
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The fit: one target, and several in lockstep
// ---------------------------------------------------------------------------

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

/// The model of a production fit equals the oracle's, bit for bit.
fn assert_same_model(got: &GaussianProcess<Matern52>, want: &RefGp, x: &[Vec<f64>], case: &str) {
    assert_eq!(got.log_marginal_likelihood().to_bits(), want.lml.to_bits(), "lml: {case}");
    assert_eq!(got.noise_variance().to_bits(), want.noise_variance.to_bits(), "noise: {case}");
    let d = x[0].len();
    for q in x.iter().take(4).chain([&vec![0.475; d], &vec![3.0; d]]) {
        let (mean, variance) = want.predict(q);
        let p = got.predict(q);
        assert_eq!(p.mean.to_bits(), mean.to_bits(), "mean: {case}");
        assert_eq!(p.variance.to_bits(), variance.to_bits(), "variance: {case}");
    }
}

#[test]
fn fit_gp_equals_the_refit_per_evaluation_search_bitwise() {
    let mut rng = proptest::test_rng("fit-gp");
    let mut sets = toy_sets();
    // Two sets shaped like the tuner's: wide, and past two panels.
    sets.push(training_set(37, 22, 0, &mut rng));
    sets.push(training_set(18, 16, 5, &mut rng));
    for (i, (x, y)) in sets.iter().enumerate() {
        for opts in [FitOptions::default(), FitOptions { restarts: 3, max_iters: 15 }] {
            let want = fit_gp(x, y, &opts);
            assert_same_model(&crate::fit_gp(x, y, &opts), &want, x, &format!("set {i}, {opts:?}"));
        }
    }
}

/// A tuner-shaped training set (wide rows, a speed-like and a recall-like
/// target) and, when `dup > 0`, duplicate rows that need jitter.
fn two_targets(
    n: usize,
    d: usize,
    dup: usize,
    rng: &mut TestRng,
) -> (Vec<Vec<f64>>, [Vec<f64>; 2]) {
    let (x, speed) = training_set(n, d, dup, rng);
    let recall = x.iter().map(|p| 1.0 - (p[1] - 0.6).powi(2) - 0.3 * p[d / 2] * p[0]).collect();
    (x, [speed, recall])
}

#[test]
fn lockstep_fit_equals_independent_oracle_fits_bitwise() {
    let mut rng = proptest::test_rng("lockstep");
    let (x, [speed, recall]) = two_targets(30, 22, 0, &mut rng);
    let constant = vec![0.75; x.len()];
    let (xd, [speed_d, recall_d]) = two_targets(19, 6, 4, &mut rng);
    // Duplicate rows at a near-zero noise floor: the jitter path, shared.
    let cases = [
        ("one target", &x, vec![&speed]),
        ("two targets", &x, vec![&speed, &recall]),
        ("identical targets", &x, vec![&recall, &recall]),
        ("a constant target", &x, vec![&speed, &constant, &recall]),
        ("duplicate rows", &xd, vec![&speed_d, &recall_d, &speed_d]),
    ];
    for (name, x, ys) in cases {
        let ys: Vec<&[f64]> = ys.into_iter().map(Vec::as_slice).collect();
        for opts in [FitOptions::default(), FitOptions { restarts: 3, max_iters: 12 }] {
            let got = crate::fit_gp_on(&TrainingInputs::new(x), &ys, &opts);
            assert_eq!(got.len(), ys.len());
            for (t, (model, y)) in got.iter().zip(&ys).enumerate() {
                assert_same_model(
                    model,
                    &fit_gp(x, y, &opts),
                    x,
                    &format!("{name}, target {t}, {opts:?}"),
                );
            }
        }
    }
}

/// The factorizations a lockstep search makes, from each target's oracle
/// traces: per restart, per round, one for each distinct `key` among the
/// points of the targets whose search is still running.
fn simulated_factorizations(traces: &[Vec<Trace>], key: impl Fn(&[f64]) -> [u64; 3]) -> usize {
    let restarts = traces[0].len();
    let mut count = 0;
    for r in 0..restarts {
        let rounds = traces.iter().map(|t| t[r].len()).max().unwrap_or(0);
        for round in 0..rounds {
            let mut keys: Vec<[u64; 3]> =
                traces.iter().filter_map(|t| t[r].get(round)).map(|p| key(p)).collect();
            keys.sort_unstable();
            keys.dedup();
            count += keys.len();
        }
    }
    count
}

fn clamped_key(p: &[f64]) -> [u64; 3] {
    let (ls, sv, noise) = clamp_params(p);
    [ls.to_bits(), sv.to_bits(), noise.to_bits()]
}

#[test]
fn sibling_searches_share_factorizations() {
    let mut rng = proptest::test_rng("lockstep-count");
    let opts = FitOptions { restarts: 3, ..Default::default() };
    for n in [24, 41] {
        let (x, [speed, recall]) = two_targets(n, 22, 0, &mut rng);
        let inputs = TrainingInputs::new(&x);

        // Two targets of the tuner's shape: the searches share their
        // common prefix, and exactly the rounds' distinct clamped triples
        // are factored, restart by restart.
        let mut lockstep = Lockstep::new(&inputs, &[&speed, &recall]);
        lockstep.fit(&opts);
        let traces = [fit_gp_traced(&x, &speed, &opts).1, fit_gp_traced(&x, &recall, &opts).1];
        let evaluations: usize = traces.iter().flatten().map(Vec::len).sum();
        assert_eq!(lockstep.evaluations, evaluations, "n = {n}");
        assert!(lockstep.factorizations < evaluations, "n = {n}");
        assert_eq!(
            lockstep.factorizations,
            simulated_factorizations(&traces, clamped_key),
            "n = {n}"
        );
        // The count sees the restart barrier: one target finishes a restart
        // before the other, and the next restart's simplex is still shared.
        let lengths = |t: &[Trace]| t[..t.len() - 1].iter().map(Vec::len).collect::<Vec<_>>();
        assert_ne!(lengths(&traces[0]), lengths(&traces[1]), "n = {n}");

        // Identical targets: every point is factored once for both.
        let mut lockstep = Lockstep::new(&inputs, &[&recall, &recall]);
        lockstep.fit(&opts);
        assert_eq!(2 * lockstep.factorizations, lockstep.evaluations, "n = {n}");
    }
}

#[test]
fn points_that_clamp_alike_share_a_factorization() {
    // Two searches of the same target from starts that differ only far
    // below the lengthscale bound: each pair of points they ask for
    // differs in its raw lengthscale but clamps to the same triple, so
    // their values, and hence their moves, agree.
    let mut rng = proptest::test_rng("lockstep-clamp");
    let (x, [speed, _]) = two_targets(16, 5, 0, &mut rng);
    let nm_opts = NelderMeadOptions { max_iters: 10, ..Default::default() };
    let starts = [[-40.0, 0.0, -3.0], [-60.0, 0.0, -3.0]];
    let traces: Vec<Vec<Trace>> = starts
        .iter()
        .map(|s| {
            let mut trace = Vec::new();
            let nll = oracle_nll(&x, &speed);
            nelder_mead(
                |p| {
                    trace.push(p.to_vec());
                    nll(p)
                },
                s,
                &nm_opts,
            );
            vec![trace]
        })
        .collect();
    let raw_key = |p: &[f64]| <[u64; 3]>::try_from(bits(p)).expect("three parameters");
    let evaluations = 2 * traces[0][0].len();
    assert_eq!(simulated_factorizations(&traces, raw_key), evaluations, "the raw points differ");
    assert_eq!(2 * simulated_factorizations(&traces, clamped_key), evaluations);

    let inputs = TrainingInputs::new(&x);
    let mut lockstep = Lockstep::new(&inputs, &[&speed, &speed]);
    let mut searches = starts.map(|s| NelderMead::new(&s, &nm_opts));
    lockstep.search(&mut searches, &mut vec![0.0; panel_len(x.len())]);
    assert_eq!(lockstep.evaluations, evaluations);
    assert_eq!(2 * lockstep.factorizations, evaluations);
}
