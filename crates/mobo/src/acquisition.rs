//! Acquisition functions: EI, Monte-Carlo EHVI, and constrained EI (Eq. 7).

use crate::hypervolume::FrontSweep;
use crate::normal::{cdf, pdf};
use gp::Posterior;
use rayon::prelude::*;
use std::cell::Cell;
use vecdata::kernel::Kernel;

/// Analytic Expected Improvement over `best` for a maximization problem.
///
/// `EI(x) = E[max(f(x) − best, 0)] = σ·(u·Φ(u) + φ(u))`, `u = (μ−best)/σ`.
pub fn expected_improvement(post: &Posterior, best: f64) -> f64 {
    let sigma = post.std_dev();
    if sigma < 1e-12 {
        return (post.mean - best).max(0.0);
    }
    let u = (post.mean - best) / sigma;
    sigma * (u * cdf(u) + pdf(u))
}

/// Monte-Carlo Expected Hypervolume Improvement (Eq. 4), with the two
/// objectives modeled by independent GP posteriors (the paper's multi-output
/// GP "assumes each output to be independent", §IV-B).
///
/// `z_pairs` are pre-drawn standard-normal pairs; passing the same pairs for
/// every candidate gives common random numbers, which makes the argmax
/// across candidates stable — the same trick qEHVI uses.
pub fn ehvi_mc(
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
    let sweep = FrontSweep::new(front, reference);
    let mut acc = 0.0;
    for &(z1, z2) in z_pairs {
        acc += sweep.improvement(&[m1 + s1 * z1, m2 + s2 * z2]);
    }
    acc / z_pairs.len() as f64
}

/// Mean of `f` over pre-drawn standard-normal pairs, computed **in
/// parallel** with an input-order reduction, so the estimate is bit-stable
/// across thread counts. The tuner's EHVI is [`ehvi_log_speed`], the
/// same bits with the `exp`s batched; this generic form serves
/// `benchmark/`'s acquisition probe and the oracles.
pub fn mc_mean<F: Fn(f64, f64) -> f64 + Sync>(z_pairs: &[(f64, f64)], f: F) -> f64 {
    if z_pairs.is_empty() {
        return 0.0;
    }
    // The rayon shim's `sum` folds the mapped values in input order.
    let total: f64 = z_pairs.par_iter().map(|&(z1, z2)| f(z1, z2)).sum();
    total / z_pairs.len() as f64
}

thread_local! {
    /// Each thread's speed samples, reused across candidates: the
    /// acquisition scans' worker threads score many candidates each.
    static SPEEDS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// VDTuner's Monte-Carlo EHVI of one candidate: a log-normal speed (the
/// surrogate `log_speed` models its log) and a normal recall clipped at
/// `recall_ceiling`, against a front prepared once, over pre-drawn
/// standard-normal pairs. Bit for bit
///
/// `mc_mean(z_pairs, |z1, z2| sweep.improvement(&[(ms + ss·z1).exp(), (mr + sr·z2).min(recall_ceiling)]))`
///
/// with `(ms, ss)` and `(mr, sr)` the posteriors' means and deviations,
/// and cheaper: all the speed samples go through one
/// [`Kernel::exp_map`] pass of the active kernel (four lanes on
/// AVX2 + FMA, the bits of `f64::exp`) in a reused thread-local buffer,
/// and the improvements are summed serially in sample order with
/// `Iterator::sum`, which is the fold `mc_mean` runs on any thread count.
pub fn ehvi_log_speed(
    sweep: &FrontSweep,
    z_pairs: &[(f64, f64)],
    log_speed: &Posterior,
    recall: &Posterior,
    recall_ceiling: f64,
) -> f64 {
    ehvi_log_speed_on(vecdata::kernel::active(), sweep, z_pairs, log_speed, recall, recall_ceiling)
}

/// [`ehvi_log_speed`] on a given kernel tier.
fn ehvi_log_speed_on(
    kernel: Kernel,
    sweep: &FrontSweep,
    z_pairs: &[(f64, f64)],
    log_speed: &Posterior,
    recall: &Posterior,
    recall_ceiling: f64,
) -> f64 {
    if z_pairs.is_empty() {
        return 0.0;
    }
    let (ms, ss) = (log_speed.mean, log_speed.std_dev());
    let (mr, sr) = (recall.mean, recall.std_dev());
    let mut speeds = SPEEDS.take();
    speeds.clear();
    speeds.extend(z_pairs.iter().map(|&(z1, _)| z1));
    kernel.exp_map(&mut speeds, |z1| ms + ss * z1, |_, e| e);
    let total: f64 = speeds
        .iter()
        .zip(z_pairs)
        .map(|(&speed, &(_, z2))| sweep.improvement(&[speed, (mr + sr * z2).min(recall_ceiling)]))
        .sum();
    SPEEDS.set(speeds);
    total / z_pairs.len() as f64
}

/// **Exact** 2-D EHVI for independent Gaussian objectives (maximization).
///
/// The paper estimates Eq. 4 by Monte-Carlo integration (following qEHVI);
/// in two dimensions the integral has a closed form. Decompose the
/// improvement integral along the first objective:
///
/// `EHVI = ∫ P(Y1 ≥ x) · E[(Y2 − S(x))⁺] dx`,
///
/// where `S(x)` is the staircase upper envelope of the Pareto front —
/// piecewise constant, so each stripe contributes
/// `EI_2(s) · σ1 (G(u_b) − G(u_a))` with `G(u) = u − uΦ(u) − φ(u)`
/// (an antiderivative of `Φ(−u)`). The tests hold the MC estimator to it;
/// the tuner keeps the MC estimator for parity with the paper.
pub fn ehvi_2d_exact(
    post_speed: &Posterior,
    post_recall: &Posterior,
    front: &[[f64; 2]],
    reference: &[f64; 2],
) -> f64 {
    let (m1, s1) = (post_speed.mean, post_speed.std_dev().max(1e-12));
    let (m2, s2) = (post_recall.mean, post_recall.std_dev().max(1e-12));
    // Antiderivative of Φ(−u).
    let g = |u: f64| u - u * cdf(u) - pdf(u);
    // ∫_a^b P(Y1 ≥ x) dx for a <= b.
    let prob_mass = |a: f64, b: f64| -> f64 {
        if b <= a {
            return 0.0;
        }
        let (ua, ub) = ((a - m1) / s1, (b - m1) / s1);
        s1 * (g(ub) - g(ua))
    };
    // E[(Y2 − s)⁺] — analytic EI on the second objective.
    let ei2 = |s: f64| -> f64 {
        let v = (m2 - s) / s2;
        s2 * (v * cdf(v) + pdf(v))
    };

    // Front sorted ascending in y1 (descending in y2 on a clean staircase).
    let mut sorted = crate::pareto::pareto_front_sorted(front);
    sorted.reverse();
    let mut total = 0.0;
    let mut lo = reference[0];
    // Stripe i: x ∈ [lo, p_i.y1) has envelope height = p_i.y2 (the smallest
    // y1 point still ≥ x has the largest y2 among the remaining points).
    for p in &sorted {
        let hi = p[0];
        let s = p[1].max(reference[1]);
        if hi > lo {
            total += ei2(s) * prob_mass(lo, hi);
            lo = hi;
        } else {
            lo = lo.max(hi);
        }
    }
    // Beyond the front's largest y1 the envelope drops to the reference.
    // Integrate to +∞ ≈ m1 + 10σ1.
    let far = (m1 + 10.0 * s1).max(lo + 1.0);
    total += ei2(reference[1]) * prob_mass(lo, far);
    total
}

/// Constrained EI (Eq. 7): EI on search speed times the probability that
/// recall exceeds the user threshold,
/// `α_CEI = EI_speed(x) · Pr(f_rec(x) > r_lim)`.
pub fn constrained_ei(
    post_speed: &Posterior,
    post_recall: &Posterior,
    best_feasible_speed: f64,
    recall_limit: f64,
) -> f64 {
    let ei = expected_improvement(post_speed, best_feasible_speed);
    let sigma = post_recall.std_dev();
    let prob = if sigma < 1e-12 {
        if post_recall.mean > recall_limit {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - cdf((recall_limit - post_recall.mean) / sigma)
    };
    ei * prob
}

#[cfg(test)]
mod tests {
    use super::*;
    use gp::Posterior;

    fn post(mean: f64, variance: f64) -> Posterior {
        Posterior { mean, variance }
    }

    #[test]
    fn ei_zero_variance_is_relu() {
        assert_eq!(expected_improvement(&post(5.0, 0.0), 3.0), 2.0);
        assert_eq!(expected_improvement(&post(2.0, 0.0), 3.0), 0.0);
    }

    #[test]
    fn ei_increases_with_mean_and_variance() {
        let base = expected_improvement(&post(0.0, 1.0), 1.0);
        let higher_mean = expected_improvement(&post(0.5, 1.0), 1.0);
        let higher_var = expected_improvement(&post(0.0, 4.0), 1.0);
        assert!(higher_mean > base);
        assert!(higher_var > base);
        assert!(base > 0.0, "EI positive even below the incumbent");
    }

    #[test]
    fn ei_known_value_at_mean_equal_best() {
        // u = 0 → EI = σ·φ(0) = σ·0.39894.
        let ei = expected_improvement(&post(1.0, 4.0), 1.0);
        assert!((ei - 2.0 * 0.398_942_280_4).abs() < 1e-6);
    }

    #[test]
    fn ehvi_prefers_gap_filling_candidates() {
        let front = [[4.0, 1.0], [1.0, 4.0]];
        let r = [0.0, 0.0];
        let z: Vec<(f64, f64)> = (0..256)
            .map(|i| {
                let t = (i as f64 + 0.5) / 256.0;
                // Deterministic quasi-normal pairs via inverse-ish mapping.
                let a = (t - 0.5) * 4.0;
                ((a * 1.3).sin() * 1.5, (a * 0.7).cos() * 1.5 - 0.75)
            })
            .collect();
        let gap = ehvi_mc(&post(3.0, 0.01), &post(3.0, 0.01), &front, &r, &z);
        let dominated = ehvi_mc(&post(0.5, 0.01), &post(0.5, 0.01), &front, &r, &z);
        assert!(gap > dominated * 5.0, "gap {gap} dominated {dominated}");
    }

    #[test]
    fn ehvi_zero_when_no_samples() {
        assert_eq!(ehvi_mc(&post(1.0, 1.0), &post(1.0, 1.0), &[], &[0.0, 0.0], &[]), 0.0);
        assert_eq!(mc_mean(&[], |_, _| 1.0), 0.0);
    }

    /// [`ehvi_log_speed`] on either kernel tier equals its `mc_mean` form,
    /// bit for bit: seeded fronts and posteriors, sample counts with and
    /// without a four-lane tail, a zero deviation (every sample at the
    /// mean), a mean whose `exp` overflows to `+∞` (and deviations that
    /// carry part of the samples past it), a NaN mean of either surrogate,
    /// and a front prepared with zero, some or all points below the
    /// reference.
    #[test]
    fn batched_log_speed_ehvi_equals_its_mc_mean_form() {
        let tiers: Vec<Kernel> =
            [Some(vecdata::kernel::SCALAR), Kernel::avx2()].into_iter().flatten().collect();
        let mut rng = proptest::TestRng::from_seed(0xE4F1_0045);
        // Estimates seen: zero, finite and positive, infinite.
        let mut seen = [0; 3];
        for case in 0..600u64 {
            let n = rng.below(12) as usize;
            let front: Vec<[f64; 2]> = (0..n)
                .map(|_| [(rng.unit_f64() * 4.0 - 2.0).exp(), rng.unit_f64() * 1.2])
                .collect();
            let reference = [[0.5, 0.5], [0.0, 0.0], [1.5, 0.9]][case as usize % 3];
            let sweep = FrontSweep::new(&front, &reference);
            let samples = [96, 0, 1, 7, 64, 130][rng.below(6) as usize];
            let z: Vec<(f64, f64)> = (0..samples)
                .map(|_| (rng.unit_f64() * 8.0 - 4.0, rng.unit_f64() * 8.0 - 4.0))
                .collect();
            let mut log_speed = post(rng.unit_f64() * 4.0 - 2.0, rng.unit_f64());
            let mut recall = post(rng.unit_f64() * 1.4 - 0.2, rng.unit_f64() * 0.1);
            match case % 6 {
                0 => log_speed.variance = 0.0,
                1 => log_speed.mean = 709.0 + rng.unit_f64(),
                2 => log_speed = post(700.0, 16.0),
                3 => log_speed.mean = f64::NAN,
                4 => recall.mean = f64::NAN,
                _ => {}
            }
            let ceiling = 1.0 + rng.unit_f64() * 0.5;

            let (ms, ss) = (log_speed.mean, log_speed.std_dev());
            let (mr, sr) = (recall.mean, recall.std_dev());
            let want = mc_mean(&z, |z1, z2| {
                sweep.improvement(&[(ms + ss * z1).exp(), (mr + sr * z2).min(ceiling)])
            });
            let tag = format!("case {case}: {log_speed:?} {recall:?} {samples} samples");
            for &tier in &tiers {
                let got = ehvi_log_speed_on(tier, &sweep, &z, &log_speed, &recall, ceiling);
                assert_eq!(got.to_bits(), want.to_bits(), "{} tier, {tag}", tier.name());
            }
            let got = ehvi_log_speed(&sweep, &z, &log_speed, &recall, ceiling);
            assert_eq!(got.to_bits(), want.to_bits(), "active tier, {tag}");
            seen[usize::from(want > 0.0) + usize::from(want == f64::INFINITY)] += 1;
        }
        assert!(seen.iter().all(|&k| k >= 30), "zero, finite, infinite estimates: {seen:?}");
    }

    #[test]
    fn ehvi_of_certainly_dominated_point_is_zero() {
        let front = [[10.0, 10.0]];
        let z = vec![(0.0, 0.0); 16];
        let v = ehvi_mc(&post(1.0, 0.0), &post(1.0, 0.0), &front, &[0.0, 0.0], &z);
        assert_eq!(v, 0.0);
    }

    #[test]
    fn cei_gates_on_constraint_probability() {
        // Same speed posterior; one candidate almost surely feasible, the
        // other almost surely infeasible.
        let speed = post(10.0, 1.0);
        let feasible = constrained_ei(&speed, &post(0.95, 0.0001), 8.0, 0.9);
        let infeasible = constrained_ei(&speed, &post(0.5, 0.0001), 8.0, 0.9);
        assert!(feasible > 0.5);
        assert!(infeasible < 1e-6);
    }

    #[test]
    fn cei_zero_variance_recall_is_indicator() {
        let speed = post(10.0, 0.0);
        assert_eq!(constrained_ei(&speed, &post(0.99, 0.0), 8.0, 0.9), 2.0);
        assert_eq!(constrained_ei(&speed, &post(0.89, 0.0), 8.0, 0.9), 0.0);
    }

    /// High-sample MC estimate of EHVI, used to validate the closed form.
    fn ehvi_reference_mc(
        p1: &Posterior,
        p2: &Posterior,
        front: &[[f64; 2]],
        r: &[f64; 2],
        n: usize,
    ) -> f64 {
        // Deterministic quasi-random normal pairs via inverse CDF on a
        // low-discrepancy grid.
        let inv = |p: f64| -> f64 {
            // Beasley-Springer-Moro-lite: bisection on our cdf (slow, test-only).
            let (mut lo, mut hi) = (-8.0f64, 8.0f64);
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if crate::normal::cdf(mid) < p {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        let golden = 0.618_033_988_749_895_f64;
        let z: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let u1 = (i as f64 + 0.5) / n as f64;
                let u2 = ((i as f64 * golden) % 1.0).max(1e-9);
                (inv(u1), inv(u2))
            })
            .collect();
        ehvi_mc(p1, p2, front, r, &z)
    }

    #[test]
    fn exact_ehvi_matches_mc_empty_front() {
        // With an empty front, EHVI = E[(Y1-r1)+ * (Y2-r2)+]-ish region
        // above the reference; compare against dense MC.
        let p1 = post(2.0, 1.0);
        let p2 = post(1.5, 0.25);
        let r = [0.0, 0.0];
        let exact = ehvi_2d_exact(&p1, &p2, &[], &r);
        let mc = ehvi_reference_mc(&p1, &p2, &[], &r, 4000);
        assert!((exact - mc).abs() / mc.max(1e-9) < 0.1, "exact {exact} mc {mc}");
    }

    #[test]
    fn exact_ehvi_matches_mc_with_front() {
        let front = [[4.0, 1.0], [2.5, 2.0], [1.0, 3.0]];
        let r = [0.0, 0.0];
        for (m1, m2, v1, v2) in
            [(3.0, 2.5, 1.0, 0.5), (5.0, 0.5, 0.2, 0.2), (1.0, 4.0, 2.0, 1.0), (0.5, 0.5, 0.1, 0.1)]
        {
            let p1 = post(m1, v1);
            let p2 = post(m2, v2);
            let exact = ehvi_2d_exact(&p1, &p2, &front, &r);
            let mc = ehvi_reference_mc(&p1, &p2, &front, &r, 4000);
            let tol = 0.12 * mc.max(0.05);
            assert!((exact - mc).abs() <= tol, "posterior ({m1},{m2}): exact {exact} vs mc {mc}");
        }
    }

    #[test]
    fn exact_ehvi_zero_for_hopeless_candidate() {
        let front = [[10.0, 10.0]];
        let v = ehvi_2d_exact(&post(1.0, 0.0001), &post(1.0, 0.0001), &front, &[0.0, 0.0]);
        assert!(v < 1e-6, "{v}");
    }

    #[test]
    fn exact_ehvi_monotone_in_mean() {
        let front = [[2.0, 2.0]];
        let r = [0.0, 0.0];
        let lo = ehvi_2d_exact(&post(1.0, 0.5), &post(1.0, 0.5), &front, &r);
        let hi = ehvi_2d_exact(&post(3.0, 0.5), &post(3.0, 0.5), &front, &r);
        assert!(hi > lo);
    }
}
