//! Exact 2-D hypervolume (maximization) with respect to a reference point.
//!
//! The paper's objective space — (search speed, recall rate) — is 2-D, so
//! the hypervolume indicator used by the acquisition (Eq. 4) and the
//! successive-abandon score (Eq. 5–6) reduces to an O(k log k) staircase
//! sweep: [`hv2d`].
//!
//! The acquisition asks a narrower question tens of thousands of times per
//! proposal — how much would *this* sample add to *the same* front — so the
//! front is prepared once ([`FrontSweep::new`]: non-dominated filter, stable
//! sort, `hv2d`) and each sample costs one O(k), allocation-free pass
//! ([`FrontSweep::improvement`]). [`hv_improvement_2d`] is the one-shot form
//! of the same pass.
//!
//! The pass reproduces, bit for bit, the literal
//! `hv2d(points + [z]) − hv2d(points)` kept in `oracle.rs` (test-only) by
//! walking the very front the literal would have built, in its order, and
//! adding the same rectangles into the same accumulator. Three facts about
//! the literal make that possible without building anything:
//!
//! 1. **Where `z` lands.** It is appended last and the sort is stable, so
//!    it follows every front point whose first objective is `Equal` to its
//!    own under `total_cmp`; the front points keep their relative order.
//! 2. **Which points leave.** If a front point dominates `z` the augmented
//!    front is the front and the difference is `+0.0` exactly. Otherwise
//!    the points `z` dominates are filtered out. Those sorted after `z`
//!    would add no rectangle anyway, but one that ties `z` in the first
//!    objective sorts *before* it and would add its own first — the same
//!    area split into two products, not the same bits. (And comparisons
//!    and `total_cmp` disagree on `-0.0` vs `+0.0`, so a point can
//!    dominate, or be dominated by, one on the "wrong" side of it.) So
//!    dominance is tested per point, never inferred from position.
//! 3. **Summation order.** Float addition is not associative: rectangles
//!    go into one accumulator started at `0.0` in sweep order, and `base`
//!    is subtracted from the finished sum, never folded into it.
//!
//! **The plain walk.** Most fronts and samples need less than fact 2's
//! two dominance tests per point. A front is *plain* when every coordinate
//! is finite and no first objective is `-0.0` (decided once, in
//! [`FrontSweep::new`]). For a plain front and a finite sample with
//! `z0 > 0`, comparisons and `total_cmp` agree on every first objective,
//! so the sorted front is the points above `z0`, then those tying it, then
//! those below, and the walk takes them in three runs:
//!
//! * above: a point dominates `z` exactly when `p1 >= z1` (the answer is
//!   `+0.0`), and is visited otherwise;
//! * tying: the per-point tests of fact 2, visited before `z`;
//! * `z`, then each point below with `p1 > z1` (`z` dominates the rest).
//!
//! Those are the same visits in the same order. Every other input — a NaN
//! or an infinity in the front, a `-0.0` first objective, a sample that is
//! not finite or not above zero speed — takes the general walk. The
//! condition is the one under which that agreement is immediate, not the
//! widest one it holds on (a NaN is where it fails: `p0 > z0` and
//! `p0 <= z0` are both false); it is decided from the input alone, with
//! no option. `oracle.rs` holds both walks to the literal.

use crate::pareto::{dominates, pareto_front_sorted};

#[cfg(test)]
mod oracle;

/// Hypervolume of the region dominated by `points` and above `reference`
/// (both objectives maximized). Points not dominating the reference
/// contribute nothing.
pub fn hv2d(points: &[[f64; 2]], reference: &[f64; 2]) -> f64 {
    FrontSweep::new(points, reference).base
}

/// The running state of a sweep from the largest first objective down: each
/// point adds a rectangle `[ref.x .. p.x] × [prev_y .. p.y]` clipped at the
/// reference.
struct Staircase {
    ref_x: f64,
    prev_y: f64,
    hv: f64,
}

impl Staircase {
    fn above(reference: &[f64; 2]) -> Staircase {
        Staircase { ref_x: reference[0], prev_y: reference[1], hv: 0.0 }
    }

    #[inline]
    fn add(&mut self, p: &[f64; 2]) {
        let w = p[0] - self.ref_x;
        let h = p[1] - self.prev_y;
        if w > 0.0 && h > 0.0 {
            self.hv += w * h;
            self.prev_y = p[1];
        } else if w > 0.0 && p[1] > self.prev_y {
            self.prev_y = p[1];
        }
    }
}

/// A Pareto front prepared for repeated hypervolume-improvement queries
/// against one reference point: the non-dominated subset of the points it
/// was built from, in sweep order, and its hypervolume.
///
/// Build one per front — `improvement` answers for the points given to
/// `new` and no others.
#[derive(Debug, Clone)]
pub struct FrontSweep {
    /// Non-dominated points, stably sorted by descending first objective.
    front: Vec<[f64; 2]>,
    reference: [f64; 2],
    /// Hypervolume of the front: what [`hv2d`] returns.
    base: f64,
    /// Every coordinate finite and no `-0.0` first objective: the front
    /// the plain walk may take (module docs).
    plain: bool,
}

impl FrontSweep {
    /// Filter, sort and measure `points` (any points — dominated ones and
    /// duplicates are handled as [`hv2d`] handles them).
    pub fn new(points: &[[f64; 2]], reference: &[f64; 2]) -> FrontSweep {
        let front = pareto_front_sorted(points);
        let mut stairs = Staircase::above(reference);
        for p in &front {
            stairs.add(p);
        }
        let plain = front
            .iter()
            .all(|p| p[0].is_finite() && p[1].is_finite() && p[0].to_bits() != (-0.0f64).to_bits());
        FrontSweep { front, reference: *reference, base: stairs.hv, plain }
    }

    /// Hypervolume *improvement* of adding `z` to the prepared points:
    /// `HV(points ∪ {z}) − HV(points)`, never negative.
    pub fn improvement(&self, z: &[f64; 2]) -> f64 {
        if z[0] <= self.reference[0] || z[1] <= self.reference[1] {
            return 0.0;
        }
        let mut stairs = Staircase::above(&self.reference);
        if !self.visit_augmented(z, |p| stairs.add(p)) {
            // The augmented front is the front: the difference is +0.0.
            return 0.0;
        }
        (stairs.hv - self.base).max(0.0)
    }

    /// Visit the non-dominated subset of `points + [z]` in the order the
    /// stable sort would leave it in, without building it. Returns `false`
    /// (after an arbitrary prefix of visits) when a front point dominates
    /// `z`. The plain walk when the front is plain and `z` finite with
    /// `z0 > 0`, the general walk otherwise: the same visits either way.
    #[inline]
    fn visit_augmented(&self, z: &[f64; 2], visit: impl FnMut(&[f64; 2])) -> bool {
        if self.takes_plain_walk(z) {
            self.visit_plain(z, visit)
        } else {
            self.visit_general(z, visit)
        }
    }

    /// Whether `z` takes the plain walk: a plain front and a finite `z`
    /// with `z0 > 0`.
    #[inline]
    fn takes_plain_walk(&self, z: &[f64; 2]) -> bool {
        self.plain && z[0] > 0.0 && z[0] < f64::INFINITY && z[1].is_finite()
    }

    /// [`FrontSweep::visit_augmented`] on a plain front for a finite `z`
    /// with `z0 > 0`, where comparisons and `total_cmp` agree on first
    /// objectives: the front is the points above `z0`, then those tying
    /// it, then those below, and only the ties need both dominance tests.
    #[inline]
    fn visit_plain(&self, z: &[f64; 2], mut visit: impl FnMut(&[f64; 2])) -> bool {
        let mut rest = self.front.as_slice();
        // Above `z0`: a point dominates `z` exactly when `p1 >= z1`, and
        // `z` dominates none of them.
        while let Some((p, tail)) = rest.split_first() {
            if p[0] <= z[0] {
                break;
            }
            if p[1] >= z[1] {
                return false;
            }
            visit(p);
            rest = tail;
        }
        // Tying `z0`: sorted before `z`, dominance either way.
        while let Some((p, tail)) = rest.split_first() {
            if p[0] != z[0] {
                break;
            }
            if dominates(p, z) {
                return false;
            }
            if !dominates(z, p) {
                visit(p);
            }
            rest = tail;
        }
        // Below `z0`: `z` goes first, and dominates those with `p1 <= z1`.
        visit(z);
        for p in rest {
            if p[1] > z[1] {
                visit(p);
            }
        }
        true
    }

    /// [`FrontSweep::visit_augmented`] for any front and any `z`: dominance
    /// tested per point, `z` placed by `total_cmp`.
    #[inline]
    fn visit_general(&self, z: &[f64; 2], mut visit: impl FnMut(&[f64; 2])) -> bool {
        let mut z_pending = true;
        for p in &self.front {
            if dominates(p, z) {
                return false;
            }
            if dominates(z, p) {
                continue;
            }
            if z_pending && p[0].total_cmp(&z[0]).is_lt() {
                visit(z);
                z_pending = false;
            }
            visit(p);
        }
        if z_pending {
            visit(z);
        }
        true
    }
}

/// Hypervolume *improvement* of adding `z` to `points`:
/// `HV(points ∪ {z}) − HV(points)` — [`FrontSweep::improvement`] for a
/// front asked about once.
pub fn hv_improvement_2d(points: &[[f64; 2]], reference: &[f64; 2], z: &[f64; 2]) -> f64 {
    // `improvement` starts with the same test; here it saves the filter
    // and sort for a sample that cannot improve anything.
    if z[0] <= reference[0] || z[1] <= reference[1] {
        return 0.0;
    }
    FrontSweep::new(points, reference).improvement(z)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_rectangle() {
        let hv = hv2d(&[[2.0, 3.0]], &[0.0, 0.0]);
        assert!((hv - 6.0).abs() < 1e-12);
    }

    #[test]
    fn staircase_area() {
        // Points (3,1), (2,2), (1,3) over ref (0,0):
        // area = 3*1 + 2*1 + 1*1 = 6.
        let hv = hv2d(&[[3.0, 1.0], [2.0, 2.0], [1.0, 3.0]], &[0.0, 0.0]);
        assert!((hv - 6.0).abs() < 1e-12);
    }

    #[test]
    fn dominated_points_do_not_add() {
        let base = hv2d(&[[3.0, 3.0]], &[0.0, 0.0]);
        let more = hv2d(&[[3.0, 3.0], [1.0, 1.0], [2.0, 2.5]], &[0.0, 0.0]);
        assert!((base - more).abs() < 1e-12);
    }

    #[test]
    fn reference_clips() {
        let hv = hv2d(&[[2.0, 2.0]], &[1.0, 1.0]);
        assert!((hv - 1.0).abs() < 1e-12);
        assert_eq!(hv2d(&[[0.5, 0.5]], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn improvement_of_dominated_point_is_zero() {
        let front = [[3.0, 3.0]];
        assert_eq!(hv_improvement_2d(&front, &[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn improvement_of_extending_point() {
        // Front (2,2); adding (3,1): new region [2..3]×[0..1] = 1.
        let front = [[2.0, 2.0]];
        let imp = hv_improvement_2d(&front, &[0.0, 0.0], &[3.0, 1.0]);
        assert!((imp - 1.0).abs() < 1e-12);
    }

    #[test]
    fn improvement_matches_figure4_intuition() {
        // The paper's Figure 4: the solution extending the front farther
        // from the crowded region has higher EHVI; deterministically, the
        // HVI of a far point exceeds that of a near-dominated one.
        let front = [[4.0, 1.0], [3.0, 2.0], [1.0, 4.0]];
        let x1 = [3.2, 2.1]; // barely extends
        let x2 = [2.5, 3.5]; // fills a large gap
        let r = [0.0, 0.0];
        assert!(hv_improvement_2d(&front, &r, &x2) > hv_improvement_2d(&front, &r, &x1));
    }

    #[test]
    fn hv_monotone_under_point_addition() {
        let r = [0.0, 0.0];
        let mut pts = vec![[1.0, 5.0], [4.0, 2.0]];
        let before = hv2d(&pts, &r);
        pts.push([3.0, 3.0]);
        assert!(hv2d(&pts, &r) >= before - 1e-12);
    }

    #[test]
    fn empty_set_has_zero_hv() {
        assert_eq!(hv2d(&[], &[0.0, 0.0]), 0.0);
    }
}
