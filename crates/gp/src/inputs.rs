//! Training inputs and what a fit needs of them that does not depend on
//! the hyperparameters: the pairwise Euclidean distances.
//!
//! One maximum-likelihood fit evaluates the likelihood ~150 times and the
//! tuner fits two surrogates (speed, recall) on the same inputs per
//! proposal, so the `n²/2` distances — `dim` subtractions and multiplies
//! each — are computed once here and shared; a likelihood evaluation only
//! maps them through the kernel's radial profile.

use crate::kernel::{distance, Kernel};
use crate::linalg::{at, panel_len};

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
    pub(crate) fn kernel_matrix_into<K: Kernel>(&self, kernel: &K, noise: f64, a: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(a.len(), panel_len(n));
        let mut r = self.r.as_slice();
        for i in 0..n {
            let (ri, rest) = r.split_at(i + 1);
            r = rest;
            for (k, &rik) in ri.iter().enumerate() {
                a[at(n, i, k)] = kernel.eval_dist(rik);
            }
            a[at(n, i, i)] += noise;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Matern52;

    #[test]
    fn distances_are_packed_by_row() {
        let t = TrainingInputs::new(&[vec![0.0, 0.0], vec![3.0, 4.0], vec![3.0, 0.0]]);
        assert_eq!((t.len(), t.dim()), (3, 2));
        assert_eq!(t.r, [0.0, 5.0, 0.0, 3.0, 4.0, 0.0]);
        assert_eq!(t.flat(), [0.0, 0.0, 3.0, 4.0, 3.0, 0.0]);
    }

    #[test]
    fn kernel_matrix_is_the_pointwise_kernel_plus_noise() {
        let x = vec![vec![0.1, 0.9], vec![0.4, 0.2], vec![0.8, 0.5]];
        let k = Matern52 { lengthscale: 0.4, signal_variance: 1.7 };
        let mut a = vec![f64::NAN; panel_len(3)];
        TrainingInputs::new(&x).kernel_matrix_into(&k, 0.25, &mut a);
        let mut written = vec![false; a.len()];
        for i in 0..3 {
            for j in 0..=i {
                let want = k.eval(&x[i], &x[j]) + if i == j { 0.25 } else { 0.0 };
                assert_eq!(a[at(3, i, j)].to_bits(), want.to_bits(), "({i},{j})");
                written[at(3, i, j)] = true;
            }
        }
        let untouched = a.iter().zip(&written).filter(|(_, &w)| !w);
        assert!(untouched.clone().all(|(v, _)| v.is_nan()), "upper triangle and padding untouched");
        assert_eq!(untouched.count(), 12 - 6);
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
