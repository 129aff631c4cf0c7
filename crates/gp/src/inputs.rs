//! Training inputs and what a fit needs of them that does not depend on
//! the hyperparameters: the pairwise Euclidean distances.
//!
//! One maximum-likelihood fit evaluates the likelihood ~150 times and the
//! tuner fits two surrogates (speed, recall) on the same inputs per
//! proposal, so the `n²/2` distances — `dim` subtractions and multiplies
//! each — are computed once here and shared; a likelihood evaluation only
//! maps them through the kernel's radial profile.

use crate::kernel::{distance, eval_dists, Kernel};
use crate::linalg::{at, panel_len, LANES};
use vecdata::kernel::Kernel as Tier;

/// The rows of a training set (flattened row-major) and their pairwise
/// distances, laid out like the lower panels of the kernel matrix (see
/// [`crate::linalg`]): panel `p` (rows `4p..4p + 4`) holds its columns up
/// to the end of its diagonal block, `0..min(4p + 4, n)`, four lanes each.
/// The diagonal block's lanes above the diagonal hold their distances too,
/// and padding rows hold zero, so the fill maps each panel as one
/// contiguous run. The resident footprint stays at about half an `n × n`
/// matrix.
#[derive(Debug, Clone)]
pub struct TrainingInputs {
    n: usize,
    dim: usize,
    x: Vec<f64>,
    r: Vec<f64>,
}

/// Columns stored for panel `p` of an `n`-row set: up to the end of its
/// diagonal block.
fn panel_columns(n: usize, p: usize) -> usize {
    (LANES * (p + 1)).min(n)
}

impl TrainingInputs {
    /// Flatten `x` and compute its distance matrix.
    ///
    /// # Panics
    /// When the rows do not all have the dimension of the first one.
    pub fn new(x: &[Vec<f64>]) -> TrainingInputs {
        let n = x.len();
        let dim = x.first().map_or(0, Vec::len);
        let mut flat = Vec::with_capacity(n * dim);
        for (i, xi) in x.iter().enumerate() {
            assert_eq!(xi.len(), dim, "training row {i} has the wrong dimension");
            flat.extend_from_slice(xi);
        }
        let panels = n.div_ceil(LANES);
        let mut r = Vec::with_capacity((0..panels).map(|p| LANES * panel_columns(n, p)).sum());
        for p in 0..panels {
            for xk in &x[..panel_columns(n, p)] {
                r.extend(
                    (LANES * p..LANES * (p + 1))
                        .map(|i| x.get(i).map_or(0.0, |xi| distance(xi, xk))),
                );
            }
        }
        TrainingInputs { n, dim, x: flat, r }
    }

    /// Number of training points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for an empty training set.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dimension of every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The rows, flattened row-major.
    pub(crate) fn flat(&self) -> &[f64] {
        &self.x
    }

    /// Write `K + noise·I` into the panel-major buffer `a` (see
    /// [`crate::linalg`]), `K[i][j] = kernel(r(i, j))`: the lower
    /// triangle, and with it the diagonal blocks' lanes above the diagonal
    /// and the padding lanes, which nothing in [`crate::linalg`] reads.
    /// The rest of the upper triangle is not touched.
    ///
    /// Every element is bit-identical to [`Kernel::eval_dist`]. Each panel's
    /// distances are copied into place and mapped there in one pass of the
    /// dispatched `vecdata` kernel's `exp_map`: [`Kernel::exponent`], `exp`
    /// and [`Kernel::finish`] per element, four lanes at a time on AVX2 +
    /// FMA (glibc's `exp`, with the two divisions overlapping it),
    /// `f64::exp` otherwise. A fill allocates nothing.
    pub(crate) fn kernel_matrix_into<K: Kernel>(&self, kernel: &K, noise: f64, a: &mut [f64]) {
        self.kernel_matrix_on(vecdata::kernel::active(), kernel, noise, a);
    }

    /// [`TrainingInputs::kernel_matrix_into`] on the given tier.
    fn kernel_matrix_on<K: Kernel>(&self, simd: Tier, kernel: &K, noise: f64, a: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(a.len(), panel_len(n));
        let mut src = &self.r[..];
        for (p, panel) in a.chunks_exact_mut(LANES * n).enumerate() {
            let (r, rest) = src.split_at(LANES * panel_columns(n, p));
            let dst = &mut panel[..r.len()];
            dst.copy_from_slice(r);
            eval_dists(simd, kernel, dst);
            src = rest;
        }
        for i in 0..n {
            a[at(n, i, i)] += noise;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Matern52, Rbf};

    #[test]
    fn distances_are_laid_out_by_panel() {
        let t = TrainingInputs::new(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![3.0, 0.0]]);
        assert_eq!((t.len(), t.dim()), (3, 2));
        // One partial panel: three columns of four lanes, the last a
        // padding row.
        assert_eq!(t.r, [0.0, 5.0, 3.0, 0.0, 5.0, 0.0, 4.0, 0.0, 3.0, 4.0, 0.0, 0.0]);
        assert_eq!(t.flat(), [0.0, 0.0, 3.0, 4.0, 3.0, 0.0]);
    }

    /// Both tiers, whatever `VDTUNER_FORCE_SCALAR` says.
    fn tiers() -> impl Iterator<Item = Tier> {
        std::iter::once(vecdata::kernel::SCALAR).chain(Tier::avx2())
    }

    /// The fill on every tier against `eval` element by element, in
    /// `to_bits()`, for every size up to 9 (the `exp` tails and partial
    /// panels), n = 23 and n = 257, and lengthscales down to 0.01, where
    /// many lanes leave the four-lane `exp`'s range (points in `[0, 3)⁴`,
    /// so distances reach past `512 ℓ/√5`).
    fn assert_fill_is_pointwise<K: Kernel>(k: &K, what: &str) {
        for n in (1..=9).chain([23, 257]) {
            let x: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..4).map(|d| 3.0 * ((i * 4 + d) as f64 * 0.618).fract()).collect())
                .collect();
            let t = TrainingInputs::new(&x);
            for tier in tiers() {
                let mut a = vec![f64::NAN; panel_len(n)];
                t.kernel_matrix_on(tier, k, 0.25, &mut a);
                let mut written = vec![false; a.len()];
                let what = format!("{what} on {}, n = {n}", tier.name());
                // The lower triangle, the diagonal blocks' upper lanes and
                // the padding rows (at distance zero).
                for i in 0..n.next_multiple_of(LANES) {
                    for j in 0..panel_columns(n, i / LANES) {
                        let want = match x.get(i) {
                            Some(xi) => k.eval(xi, &x[j]) + if i == j { 0.25 } else { 0.0 },
                            None => k.eval_dist(0.0),
                        };
                        assert_eq!(a[at(n, i, j)].to_bits(), want.to_bits(), "{what} ({i},{j})");
                        written[at(n, i, j)] = true;
                    }
                }
                let untouched = a.iter().zip(&written).filter(|(_, &w)| !w);
                assert!(
                    untouched.clone().all(|(v, _)| v.is_nan()),
                    "the rest of the upper triangle"
                );
                assert_eq!(untouched.count(), a.len() - t.r.len());
            }
        }
    }

    #[test]
    fn kernel_matrix_is_the_pointwise_kernel_plus_noise() {
        for lengthscale in [0.01, 0.05, 0.4, 3.0] {
            for signal_variance in [0.01, 1.7, 31.6] {
                let m = Matern52 { lengthscale, signal_variance };
                assert_fill_is_pointwise(&m, &format!("{m:?}"));
                let r = Rbf { lengthscale, signal_variance };
                assert_fill_is_pointwise(&r, &format!("{r:?}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "training row 2 has the wrong dimension")]
    fn ragged_rows_are_rejected() {
        TrainingInputs::new(&[vec![0.0, 1.0], vec![1.0, 0.0], vec![0.5]]);
    }

    #[test]
    fn empty_set_is_empty() {
        let t = TrainingInputs::new(&[]);
        assert!(t.is_empty());
        assert_eq!(t.dim(), 0);
    }
}
