//! Training inputs and what a fit needs of them that does not depend on
//! the hyperparameters: the pairwise Euclidean distances.
//!
//! One maximum-likelihood fit evaluates the likelihood ~150 times and the
//! tuner fits two surrogates (speed, recall) on the same inputs per
//! proposal, so the `n²/2` distances — `dim` subtractions and multiplies
//! each — are computed once here and shared; a likelihood evaluation only
//! maps them through the kernel's radial profile.

use crate::kernel::{distance, Kernel};
use crate::linalg::{at, panel_len, LANES};

/// Packed distances per pass of the kernel-matrix fill (two 2 KiB stack
/// buffers).
const CHUNK: usize = 256;

/// The rows of a training set (flattened row-major) and their pairwise
/// distances as a packed lower triangle, diagonal included: row `i` holds
/// `r(i, 0..=i)` at offset `i (i + 1) / 2`. Packing keeps the resident
/// footprint at half an `n × n` matrix.
#[derive(Debug, Clone)]
pub struct TrainingInputs {
    n: usize,
    dim: usize,
    x: Vec<f64>,
    r: Vec<f64>,
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
        let mut r = Vec::with_capacity(n * (n + 1) / 2);
        for (i, xi) in x.iter().enumerate() {
            assert_eq!(xi.len(), dim, "training row {i} has the wrong dimension");
            flat.extend_from_slice(xi);
            r.extend(x[..=i].iter().map(|xj| distance(xi, xj)));
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

    /// Write the lower triangle of `K + noise·I` into the panel-major
    /// buffer `a` (see [`crate::linalg`]), `K[i][j] = kernel(r(i, j))`.
    /// Nothing else is touched (nothing in [`crate::linalg`] reads it).
    ///
    /// Every element is bit-identical to [`Kernel::eval_dist`]. The packed
    /// distances run through [`CHUNK`]-element stack buffers in three
    /// passes: [`Kernel::exponent`], the dispatched `vecdata` kernel's `exp`
    /// (four lanes of glibc's algorithm on AVX2 + FMA, `f64::exp`
    /// otherwise) and [`Kernel::finish`]; each chunk is then copied into
    /// its rows. A fill allocates nothing, and all of it runs inside
    /// `Kernel::run`, so the passes' divisions are 4-wide on AVX2.
    pub(crate) fn kernel_matrix_into<K: Kernel>(&self, kernel: &K, noise: f64, a: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(a.len(), panel_len(n));
        let simd = vecdata::kernel::active();
        let (mut xs, mut es) = ([0.0; CHUNK], [0.0; CHUNK]);
        simd.run(
            #[inline(always)]
            || {
                // The packed position of the next element: row `i`, column `k`.
                let (mut i, mut k) = (0, 0);
                for rc in self.r.chunks(CHUNK) {
                    let (xs, es) = (&mut xs[..rc.len()], &mut es[..rc.len()]);
                    for (x, &r) in xs.iter_mut().zip(rc) {
                        *x = kernel.exponent(r);
                    }
                    es.copy_from_slice(xs);
                    simd.exp(es);
                    for (e, &x) in es.iter_mut().zip(&*xs) {
                        *e = kernel.finish(x, *e);
                    }
                    let mut src = &es[..];
                    while !src.is_empty() {
                        // Row `i`'s columns are `LANES` apart in its panel.
                        let m = (i + 1 - k).min(src.len());
                        let start = at(n, i, k);
                        let dst = &mut a[start..=start + LANES * (m - 1)];
                        for (c, &e) in src[..m].iter().enumerate() {
                            dst[LANES * c] = e;
                        }
                        src = &src[m..];
                        k += m;
                        if k == i + 1 {
                            a[at(n, i, i)] += noise;
                            (i, k) = (i + 1, 0);
                        }
                    }
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Matern52, Rbf};

    #[test]
    fn distances_are_packed_by_row() {
        let t = TrainingInputs::new(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![3.0, 0.0]]);
        assert_eq!((t.len(), t.dim()), (3, 2));
        assert_eq!(t.r, [0.0, 5.0, 0.0, 3.0, 4.0, 0.0]);
        assert_eq!(t.flat(), [0.0, 0.0, 3.0, 4.0, 3.0, 0.0]);
    }

    /// The fill against `eval` element by element, in `to_bits()`, for
    /// every row length up to 9 (the `exp` tails), rows across a chunk
    /// boundary (n = 23) and longer than a chunk (n = 257), and
    /// lengthscales down to 0.01, where many lanes leave the four-lane
    /// `exp`'s range (points in `[0, 3)⁴`, so distances reach past
    /// `512 ℓ/√5`).
    fn assert_fill_is_pointwise<K: Kernel>(k: &K, what: &str) {
        for n in (1..=9).chain([23, 257]) {
            let x: Vec<Vec<f64>> = (0..n)
                .map(|i| (0..4).map(|d| 3.0 * ((i * 4 + d) as f64 * 0.618).fract()).collect())
                .collect();
            let mut a = vec![f64::NAN; panel_len(n)];
            TrainingInputs::new(&x).kernel_matrix_into(k, 0.25, &mut a);
            let mut written = vec![false; a.len()];
            for i in 0..n {
                for j in 0..=i {
                    let want = k.eval(&x[i], &x[j]) + if i == j { 0.25 } else { 0.0 };
                    assert_eq!(a[at(n, i, j)].to_bits(), want.to_bits(), "{what} n={n} ({i},{j})");
                    written[at(n, i, j)] = true;
                }
            }
            let untouched = a.iter().zip(&written).filter(|(_, &w)| !w);
            assert!(untouched.clone().all(|(v, _)| v.is_nan()), "upper triangle and padding");
            assert_eq!(untouched.count(), a.len() - n * (n + 1) / 2);
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
