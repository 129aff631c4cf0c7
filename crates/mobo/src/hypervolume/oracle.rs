//! Test-only oracle for [`super::FrontSweep`]: the literal hypervolume
//! improvement the sweep replaced — filter, sort and measure the front,
//! then allocate `points + [z]` and filter, sort and measure that — kept
//! verbatim together with the Monte-Carlo loops that called it once per
//! sample, and the panel that holds the production code to them bit for
//! bit.
//!
//! It may be retired the day a history-changing change to the acquisition
//! (another hypervolume reference, sample count or summation order) is
//! accepted and the pinned digests move with it, since these loops then pin
//! nothing any more.

use super::FrontSweep;
use crate::acquisition::{ehvi_mc, ehvi_mc_par, mc_mean};
use crate::pareto::non_dominated_indices;
use gp::Posterior;
use proptest::panel::SPECIAL_F64 as SPECIAL;
use proptest::prelude::*;
use proptest::TestRng;

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// The non-dominated subset of `points`, in the order the sweep visits it
/// (`pareto_front_sorted`, copied: the production sort is under test too).
fn sorted_front(points: &[[f64; 2]]) -> Vec<[f64; 2]> {
    let mut front: Vec<[f64; 2]> =
        non_dominated_indices(points).into_iter().map(|i| points[i]).collect();
    front.sort_by(|a, b| b[0].total_cmp(&a[0]));
    front
}

fn hv2d(points: &[[f64; 2]], reference: &[f64; 2]) -> f64 {
    let front = sorted_front(points);
    let mut hv = 0.0;
    let mut prev_y = reference[1];
    for p in &front {
        let w = p[0] - reference[0];
        let h = p[1] - prev_y;
        if w > 0.0 && h > 0.0 {
            hv += w * h;
            prev_y = p[1];
        } else if w > 0.0 && p[1] > prev_y {
            prev_y = p[1];
        }
    }
    hv
}

fn with_z(points: &[[f64; 2]], z: &[f64; 2]) -> Vec<[f64; 2]> {
    let mut augmented: Vec<[f64; 2]> = Vec::with_capacity(points.len() + 1);
    augmented.extend_from_slice(points);
    augmented.push(*z);
    augmented
}

fn hv_improvement_2d(points: &[[f64; 2]], reference: &[f64; 2], z: &[f64; 2]) -> f64 {
    if z[0] <= reference[0] || z[1] <= reference[1] {
        return 0.0;
    }
    let base = hv2d(points, reference);
    (hv2d(&with_z(points, z), reference) - base).max(0.0)
}

fn literal_ehvi_mc(
    post_speed: &Posterior,
    post_recall: &Posterior,
    front: &[[f64; 2]],
    reference: &[f64; 2],
    z_pairs: &[(f64, f64)],
) -> f64 {
    if z_pairs.is_empty() {
        return 0.0;
    }
    let (m1, s1) = (post_speed.mean, post_speed.std_dev());
    let (m2, s2) = (post_recall.mean, post_recall.std_dev());
    let mut acc = 0.0;
    for &(z1, z2) in z_pairs {
        let y = [m1 + s1 * z1, m2 + s2 * z2];
        acc += hv_improvement_2d(front, reference, &y);
    }
    acc / z_pairs.len() as f64
}

fn literal_ehvi_mc_par(
    post_speed: &Posterior,
    post_recall: &Posterior,
    front: &[[f64; 2]],
    reference: &[f64; 2],
    z_pairs: &[(f64, f64)],
) -> f64 {
    let (m1, s1) = (post_speed.mean, post_speed.std_dev());
    let (m2, s2) = (post_recall.mean, post_recall.std_dev());
    mc_mean(z_pairs, |z1, z2| {
        let y = [m1 + s1 * z1, m2 + s2 * z2];
        hv_improvement_2d(front, reference, &y)
    })
}

// ---------------------------------------------------------------------------
// The panel
// ---------------------------------------------------------------------------

fn bits(points: &[[f64; 2]]) -> Vec<[u64; 2]> {
    points.iter().map(|p| [p[0].to_bits(), p[1].to_bits()]).collect()
}

/// Hold one `(points, reference, z)` to the oracle: the value of the
/// prepared and of the one-shot form, and — stronger, and what makes the
/// value follow — the very sequence of points the sweep adds up.
fn assert_matches_literal(sweep: &FrontSweep, points: &[[f64; 2]], r: &[f64; 2], z: &[f64; 2]) {
    let tag = format!("points {points:?} reference {r:?} z {z:?}");
    let want = hv_improvement_2d(points, r, z);
    assert_eq!(sweep.improvement(z).to_bits(), want.to_bits(), "prepared, {tag}");
    assert_eq!(super::hv_improvement_2d(points, r, z).to_bits(), want.to_bits(), "one-shot, {tag}");

    let mut visited = Vec::new();
    let survives = sweep.visit_augmented(z, |p| visited.push(*p));
    let augmented = sorted_front(&with_z(points, z));
    if survives {
        assert_eq!(bits(&visited), bits(&augmented), "sweep order, {tag}");
    } else {
        assert_eq!(bits(&augmented), bits(&sweep.front), "dominated z changes no front, {tag}");
    }
}

/// Values that do not multiply or add exactly (a grid of dyadic rationals
/// would hide every reassociation), reused across points so that they tie,
/// and the values comparisons and `total_cmp` disagree or give up on.
struct Coordinates {
    pool: Vec<f64>,
    /// Out of 16: how often a coordinate is one of [`SPECIAL`].
    special_16ths: u64,
}

impl Coordinates {
    fn draw(pool_size: usize, special_16ths: u64, rng: &mut TestRng) -> Coordinates {
        let pool = (0..pool_size).map(|_| rng.unit_f64() * 3.5 - 0.5).collect();
        Coordinates { pool, special_16ths }
    }

    fn next(&self, rng: &mut TestRng) -> f64 {
        if rng.below(16) < self.special_16ths {
            SPECIAL[rng.below(SPECIAL.len() as u64) as usize]
        } else if self.pool.is_empty() {
            rng.unit_f64() * 3.5 - 0.5
        } else {
            self.pool[rng.below(self.pool.len() as u64) as usize]
        }
    }

    fn point(&self, rng: &mut TestRng) -> [f64; 2] {
        [self.next(rng), self.next(rng)]
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// `points` are whatever a caller might hand over — dominated, unsorted,
    /// repeated — and every front is asked about its own points, about
    /// points tying them in one objective, about a point beating them all,
    /// about points not above the reference, and about random ones.
    #[test]
    fn the_sweep_equals_the_literal_on_arbitrary_points(
        seed in 0u64..u64::MAX,
        n in 0usize..12,
        pool_size in 0usize..7,
        special_16ths in 0u64..4,
        reference_kind in 0usize..4,
    ) {
        let mut rng = TestRng::from_seed(seed);
        let coords = Coordinates::draw(pool_size, special_16ths, &mut rng);
        let points: Vec<[f64; 2]> = (0..n).map(|_| coords.point(&mut rng)).collect();
        let r = match reference_kind {
            0 => [0.0, 0.0],
            1 => [0.5, 0.5],
            // Below zero: ±0.0 coordinates are above the reference.
            2 => [-1.0, -0.75],
            _ => coords.point(&mut rng),
        };
        prop_assert_eq!(super::hv2d(&points, &r).to_bits(), hv2d(&points, &r).to_bits());

        let sweep = FrontSweep::new(&points, &r);
        let mut zs = vec![r, [r[0], 9.0], [9.0, r[1]], [9.0, 9.0], [f64::INFINITY, 1.0]];
        for p in &points {
            zs.extend([*p, [p[0], coords.next(&mut rng)], [coords.next(&mut rng), p[1]]]);
        }
        zs.extend((0..8).map(|_| coords.point(&mut rng)));
        for z in &zs {
            assert_matches_literal(&sweep, &points, &r, z);
        }
    }

    #[test]
    fn monte_carlo_ehvi_equals_its_literal_loop_on_1_and_4_threads(
        seed in 0u64..u64::MAX,
        n in 0usize..10,
        samples in 0usize..70,
        pool_size in 0usize..5,
    ) {
        let mut rng = TestRng::from_seed(seed);
        let coords = Coordinates::draw(pool_size, 0, &mut rng);
        let front: Vec<[f64; 2]> = (0..n).map(|_| coords.point(&mut rng)).collect();
        let r = [0.0, 0.25];
        // Means on the pool and a zero deviation now and then: samples
        // that sit exactly on front coordinates.
        let mut posterior = || Posterior {
            mean: coords.next(&mut rng),
            variance: if rng.below(4) == 0 { 0.0 } else { rng.unit_f64() },
        };
        let (ps, pr) = (posterior(), posterior());
        let z: Vec<(f64, f64)> =
            (0..samples).map(|_| (rng.unit_f64() * 6.0 - 3.0, rng.unit_f64() * 6.0 - 3.0)).collect();

        let serial = literal_ehvi_mc(&ps, &pr, &front, &r, &z);
        prop_assert_eq!(ehvi_mc(&ps, &pr, &front, &r, &z).to_bits(), serial.to_bits());
        for threads in [1, 4] {
            let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let (got, want) = pool.install(|| {
                (ehvi_mc_par(&ps, &pr, &front, &r, &z), literal_ehvi_mc_par(&ps, &pr, &front, &r, &z))
            });
            prop_assert_eq!(got.to_bits(), want.to_bits());
            prop_assert_eq!(got.to_bits(), serial.to_bits());
        }
    }
}

/// One named instance of every kind of input the sweep has to get right,
/// so that none of them depends on what the generator happens to draw.
#[test]
fn named_edge_cases_equal_the_literal() {
    const A: f64 = 0.7;
    const B: f64 = 1.1;
    const C: f64 = 1.9;
    let stairs = [[C, 0.3], [B, A], [A, B], [0.3, C]];
    let zero = [0.0, 0.0];
    let below = [-1.0, -0.75];
    let inf = f64::INFINITY;
    // (what it is, points, reference, z)
    type Case<'a> = (&'a str, &'a [[f64; 2]], [f64; 2], [f64; 2]);
    let cases: &[Case<'_>] = &[
        ("empty front", &[], zero, [A, B]),
        ("z fills a gap", &stairs, zero, [1.3, 0.9]),
        ("z dominated", &stairs, zero, [1.0, 0.6]),
        ("z dominates the whole front", &stairs, zero, [2.3, 2.1]),
        ("z equal to a front point", &stairs, zero, [B, A]),
        ("z ties the first objective from above", &stairs, zero, [B, 0.9]),
        ("z ties the first objective from below", &stairs, zero, [B, 0.6]),
        ("z ties the second objective from the right", &stairs, zero, [1.3, A]),
        ("z ties the second objective from the left", &stairs, zero, [0.9, A]),
        ("z ties two neighbours, one objective each", &stairs, zero, [B, B]),
        ("z on the reference", &stairs, zero, zero),
        ("z left of the reference", &stairs, [0.5, 0.5], [0.5, 3.0]),
        ("z under the reference", &stairs, [0.5, 0.5], [3.0, 0.4]),
        ("front points not above the reference", &stairs, [0.5, 0.5], [1.3, 0.9]),
        ("whole front under the reference", &stairs, [2.0, 2.0], [2.3, 2.1]),
        (
            "dominated, unsorted and repeated points",
            &[[A, B], [0.2, 0.2], [C, 0.3], [A, B], [B, A], [1.0, 0.5], [C, 0.3]],
            zero,
            [1.3, 0.9],
        ),
        ("repeated point dominated by z", &[[A, B], [A, B], [C, 0.3]], zero, [0.9, 1.3]),
        ("z = -0.0 above a negative reference", &[[A, -0.5], [-0.5, A]], below, [-0.0, -0.0]),
        ("-0.0 after +0.0 in sweep order, equal otherwise", &[[0.0, A]], below, [-0.0, A]),
        ("+0.0 before a -0.0 that dominates it", &[[-0.0, B], [A, -0.3]], below, [0.0, A]),
        ("+0.0 dominating a -0.0 it sorts before", &[[-0.0, A], [B, -0.3]], below, [0.0, B]),
        ("second objectives +0.0 then -0.0", &[[A, 0.0], [0.3, B]], below, [A, -0.0]),
        ("second objectives -0.0 then +0.0", &[[A, -0.0], [0.3, B]], below, [A, 0.0]),
        ("z at +inf speed", &stairs, zero, [inf, 0.9]),
        ("z at +inf in both", &stairs, zero, [inf, inf]),
        ("front point at +inf, z dominated", &[[inf, A], [A, B]], zero, [C, 0.6]),
        ("front point at +inf, z improves", &[[inf, A], [A, B]], zero, [C, 0.9]),
        ("z with a NaN speed", &stairs, zero, [f64::NAN, 0.9]),
        ("z with a NaN recall", &stairs, zero, [1.3, f64::NAN]),
        ("z with a negative NaN", &stairs, zero, [-f64::NAN, 0.9]),
        (
            "NaN points in the front",
            &[[f64::NAN, 3.0], [B, A], [A, f64::NAN], [A, B]],
            zero,
            [0.9, 0.9],
        ),
        ("NaN reference", &stairs, [f64::NAN, 0.0], [1.3, 0.9]),
    ];
    for (name, points, r, z) in cases {
        let sweep = FrontSweep::new(points, r);
        assert_matches_literal(&sweep, points, r, z);
        let v = sweep.improvement(z);
        // Neither a negative residue nor -0.0 (nor NaN: `max` drops it).
        assert!(v >= 0.0 && v.is_sign_positive(), "{name}: {v}");
    }
    // What the callers lean on: a dominated sample adds exactly +0.0 to the
    // Monte-Carlo sum, and an overflowed one makes it non-finite (the
    // argmax then skips the candidate).
    let sweep = FrontSweep::new(&stairs, &zero);
    assert_eq!(sweep.improvement(&[1.0, 0.6]).to_bits(), 0.0f64.to_bits());
    assert_eq!(sweep.improvement(&[inf, 0.9]), inf);
}

/// Long enough for an unstable sort to stop being an insertion sort, and
/// made of points that tie in the first objective without dominating one
/// another (a NaN never compares), told apart by their bits alone.
#[test]
fn points_tying_in_the_first_objective_stay_in_input_order() {
    let nans = [f64::NAN, -f64::NAN, 0.3];
    let points: Vec<[f64; 2]> =
        (0..96).map(|i| [[1.9, 0.7, 1.1][i % 3], nans[i % 5 % 3]]).collect();
    let r = [0.0, 0.0];
    let sweep = FrontSweep::new(&points, &r);
    assert_eq!(bits(&sweep.front), bits(&sorted_front(&points)));
    for z in [[1.1, 0.2], [1.1, 0.3], [1.1, f64::NAN], [1.3, 0.9]] {
        assert_matches_literal(&sweep, &points, &r, &z);
    }
}
