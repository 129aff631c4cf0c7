//! Covariance functions.
//!
//! The paper chooses Matérn 5/2 "owing to its excellent ability to balance
//! flexibility and smoothness" (§IV-B, citing Shahriari et al.). It uses
//! an isotropic lengthscale over unit-hypercube inputs —
//! the tuner normalizes every parameter into [0, 1] first, which makes a
//! shared lengthscale appropriate and keeps hyperparameter fitting cheap.
//! Isotropic means the covariance depends on the two points only through
//! their Euclidean distance, which does not depend on the hyperparameters:
//! a fit computes the distances once ([`crate::TrainingInputs`]) and every
//! likelihood evaluation maps them through the kernel's radial profile.
//!
//! The profile is a polynomial times one exponential, so a kernel is
//! written as two steps around that `exp`: [`Kernel::exponent`] and
//! [`Kernel::finish`]. [`Kernel::eval_dist`] composes them with
//! `f64::exp`, the one definition of the formula; the kernel-matrix fill
//! and the posterior ([`crate::Joint`]) pass the two steps to
//! `vecdata::kernel::Kernel::exp_map`, which runs `exponent`, `exp` and
//! `finish` as one pass over four elements at a time and returns the same
//! bits.

use vecdata::kernel::Kernel as Tier;

/// A positive-definite, stationary and isotropic covariance function.
pub trait Kernel: Send + Sync {
    /// The argument of the kernel's exponential at Euclidean distance `r`.
    fn exponent(&self, r: f64) -> f64;

    /// The covariance, given the exponent `x = exponent(r)` and
    /// `e = x.exp()`.
    fn finish(&self, x: f64, e: f64) -> f64;

    /// Covariance of two points at Euclidean distance `r`: the one
    /// definition every other path must reproduce bit for bit.
    #[inline]
    fn eval_dist(&self, r: f64) -> f64 {
        let x = self.exponent(r);
        self.finish(x, x.exp())
    }

    /// Covariance between two input points (of equal dimension).
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.eval_dist(distance(a, b))
    }

    /// Marginal variance `k(x, x)`.
    fn diag(&self) -> f64;
}

/// [`Kernel::eval_dist`] of every distance in `rs`, in place, bit for bit:
/// `exponent`, `exp` and `finish` as one `exp_map` pass of `tier` (four
/// lanes at a time on AVX2 + FMA). The fill and the posterior both map
/// their distances here.
pub(crate) fn eval_dists<K: Kernel>(tier: Tier, kernel: &K, rs: &mut [f64]) {
    tier.exp_map(rs, |r| kernel.exponent(r), |x, e| kernel.finish(x, e));
}

/// Euclidean distance, the squares summed in ascending dimension. Does not
/// check that the dimensions agree (the shorter one wins); the callers
/// that take outside input — [`crate::TrainingInputs::new`] and
/// [`crate::GaussianProcess::predict`] — do.
#[inline]
pub(crate) fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

/// Matérn 5/2: `σ² (1 + √5 r/ℓ + 5r²/(3ℓ²)) exp(−√5 r/ℓ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matern52 {
    pub lengthscale: f64,
    pub signal_variance: f64,
}

impl Default for Matern52 {
    fn default() -> Self {
        Matern52 { lengthscale: 0.3, signal_variance: 1.0 }
    }
}

impl Kernel for Matern52 {
    /// `−s`, with `s = √5 r/ℓ`.
    #[inline]
    fn exponent(&self, r: f64) -> f64 {
        -(5f64.sqrt() * r / self.lengthscale.max(1e-9))
    }

    /// `σ² (1 + s + s²/3) e`; negating the exponent gives `s` back exactly.
    #[inline]
    fn finish(&self, x: f64, e: f64) -> f64 {
        let s = -x;
        self.signal_variance * (1.0 + s + s * s / 3.0) * e
    }

    fn diag(&self) -> f64 {
        self.signal_variance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matern_at_zero_is_signal_variance() {
        let k = Matern52 { lengthscale: 0.5, signal_variance: 2.5 };
        let x = [0.3, 0.7];
        assert!((k.eval(&x, &x) - 2.5).abs() < 1e-12);
        assert_eq!(k.diag(), 2.5);
    }

    #[test]
    fn matern_decays_with_distance() {
        let k = Matern52::default();
        let a = [0.0, 0.0];
        let near = k.eval(&a, &[0.1, 0.0]);
        let far = k.eval(&a, &[0.9, 0.0]);
        assert!(near > far);
        assert!(far > 0.0);
    }

    #[test]
    fn matern_symmetric() {
        let k = Matern52 { lengthscale: 0.2, signal_variance: 1.3 };
        let a = [0.1, 0.9, 0.4];
        let b = [0.8, 0.2, 0.5];
        assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-15);
    }

    #[test]
    fn longer_lengthscale_flattens() {
        let short = Matern52 { lengthscale: 0.1, signal_variance: 1.0 };
        let long = Matern52 { lengthscale: 2.0, signal_variance: 1.0 };
        let a = [0.0];
        let b = [0.5];
        assert!(long.eval(&a, &b) > short.eval(&a, &b));
    }
}
