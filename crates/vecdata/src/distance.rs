//! Distance metrics over flat `f32` slices.
//!
//! The VDMS simulator follows Milvus' convention: *smaller distance = more
//! similar* for [`Metric::L2`] and [`Metric::Angular`], while inner product
//! is negated so that every metric can be handled as a minimization problem
//! by the index implementations.
//!
//! These free functions are thin wrappers over the process-wide dispatched
//! [`crate::kernel`] (scalar / AVX2), both of which are
//! bit-identical to the original scalar loops. Mismatched slice lengths are
//! a hard assert in release builds too — the old behavior of silently
//! truncating to the shorter slice masked dimension bugs.

use crate::kernel;

/// Similarity metric attached to a dataset/collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Squared Euclidean distance.
    L2,
    /// Negated inner product (so lower is better, like the other metrics).
    InnerProduct,
    /// Angular (cosine) distance: `1 - cos(a, b)`.
    Angular,
}

impl Metric {
    /// Distance between two vectors under this metric. Lower is more similar.
    #[inline]
    pub fn distance(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::L2 => l2_sq(a, b),
            Metric::InnerProduct => -dot(a, b),
            Metric::Angular => angular(a, b),
        }
    }

    /// True if vectors should be L2-normalized at ingest time.
    ///
    /// Milvus normalizes vectors for cosine similarity, which turns angular
    /// distance into a monotone function of L2 distance and lets quantizers
    /// operate on a bounded domain.
    pub fn normalizes(&self) -> bool {
        matches!(self, Metric::Angular)
    }
}

/// Dot product of two equally sized slices (hard-asserts equal lengths).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    kernel::active().dot(a, b)
}

/// Squared L2 distance (hard-asserts equal lengths).
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    kernel::active().l2_sq(a, b)
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Angular (cosine) distance: `1 - cos(a, b)`, in `[0, 2]`.
///
/// Computed in a single fused pass over both slices ([`crate::kernel::Kernel::dot3`]);
/// each of the three sums is bit-identical to the separate `dot`/`norm`
/// calls the old three-pass implementation made.
#[inline]
pub fn angular(a: &[f32], b: &[f32]) -> f32 {
    let [aa, bb, ab] = kernel::active().dot3(a, b);
    let na = aa.sqrt();
    let nb = bb.sqrt();
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - ab / (na * nb)
}

/// Angular distance when both norms are already known (e.g. stored at
/// ingest): one `dot` pass instead of three. Bit-identical to [`angular`]
/// whenever `na`/`nb` were produced by [`norm`] on the same slices.
#[inline]
pub fn angular_with_norms(a: &[f32], b: &[f32], na: f32, nb: f32) -> f32 {
    if na == 0.0 || nb == 0.0 {
        return 1.0;
    }
    1.0 - dot(a, b) / (na * nb)
}

/// Normalize a vector in place to unit L2 norm (no-op for the zero vector).
pub fn normalize_in_place(v: &mut [f32]) {
    let n = norm(v);
    if n > 0.0 {
        let inv = 1.0 / n;
        for x in v.iter_mut() {
            *x *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let a: Vec<f32> = (0..37).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..37).map(|i| (36 - i) as f32 * 0.25).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - naive).abs() < 1e-3);
    }

    #[test]
    fn l2_matches_naive() {
        let a: Vec<f32> = (0..19).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..19).map(|i| (i * 2) as f32).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((l2_sq(&a, &b) - naive).abs() < 1e-3);
    }

    #[test]
    fn l2_of_identical_vectors_is_zero() {
        let a = [1.0f32, -2.0, 3.5, 0.0, 9.25];
        assert_eq!(l2_sq(&a, &a), 0.0);
    }

    #[test]
    fn angular_identical_is_zero_opposite_is_two() {
        let a = [1.0f32, 0.0, 0.0];
        let b = [-1.0f32, 0.0, 0.0];
        assert!(angular(&a, &a).abs() < 1e-6);
        assert!((angular(&a, &b) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn angular_zero_vector_is_neutral() {
        let a = [0.0f32; 4];
        let b = [1.0f32, 2.0, 3.0, 4.0];
        assert_eq!(angular(&a, &b), 1.0);
    }

    #[test]
    fn angular_with_norms_matches_fused_angular() {
        let a: Vec<f32> = (0..53).map(|i| (i as f32 * 0.31).cos()).collect();
        let b: Vec<f32> = (0..53).map(|i| (i as f32 * 0.17).sin() - 0.2).collect();
        let with = angular_with_norms(&a, &b, norm(&a), norm(&b));
        assert_eq!(with.to_bits(), angular(&a, &b).to_bits());
        assert_eq!(angular_with_norms(&a, &b, 0.0, norm(&b)), 1.0);
    }

    #[test]
    fn inner_product_metric_is_negated() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        assert_eq!(Metric::InnerProduct.distance(&a, &b), -11.0);
    }

    #[test]
    fn normalize_gives_unit_norm() {
        let mut v = vec![3.0f32, 4.0];
        normalize_in_place(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        assert!((v[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![0.0f32; 3];
        normalize_in_place(&mut v);
        assert_eq!(v, vec![0.0f32; 3]);
    }

    #[test]
    fn metric_distance_dispatch() {
        let a = [0.0f32, 1.0];
        let b = [1.0f32, 0.0];
        assert!((Metric::L2.distance(&a, &b) - 2.0).abs() < 1e-6);
        assert!((Metric::Angular.distance(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_hard_assert_in_dot() {
        dot(&[1.0, 2.0, 3.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_hard_assert_in_l2() {
        l2_sq(&[1.0], &[1.0, 2.0]);
    }
}
