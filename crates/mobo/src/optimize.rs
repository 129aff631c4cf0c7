//! Candidate generation and acquisition maximization.
//!
//! BO implementations maximize the acquisition over a candidate pool mixing
//! global space-filling samples with local perturbations of incumbents
//! (cheap, derivative-free, and deterministic given the seed — adequate at
//! the tuner's 16 and 22 dimensions).
//!
//! The parallel scans score **blocks** of up to [`gp::BLOCK`] candidates
//! ([`score_blocks`]), so that an acquisition can compute its posteriors a
//! block at a time ([`gp::Joint`]); the per-point forms are adapters over
//! the same scorer. Every scan picks its winner by one serial rule: the
//! first finite maximum.

use crate::sampling::{latin_hypercube, perturbations, uniform_points};
use gp::BLOCK;
use rayon::prelude::*;

/// How a candidate pool is composed.
#[derive(Debug, Clone, Copy)]
pub struct CandidateOptions {
    /// Latin-hypercube global candidates.
    pub n_lhs: usize,
    /// Uniform global candidates.
    pub n_uniform: usize,
    /// Local perturbations per incumbent.
    pub n_local_per_incumbent: usize,
    /// Perturbation scale (unit-cube units).
    pub local_sigma: f64,
}

impl Default for CandidateOptions {
    fn default() -> Self {
        CandidateOptions { n_lhs: 160, n_uniform: 64, n_local_per_incumbent: 24, local_sigma: 0.07 }
    }
}

/// Build a candidate pool in `[0,1]^d` around the given incumbents.
pub fn candidate_pool(
    d: usize,
    incumbents: &[Vec<f64>],
    opts: &CandidateOptions,
    seed: u64,
) -> Vec<Vec<f64>> {
    let mut pool = latin_hypercube(opts.n_lhs, d, seed);
    pool.extend(uniform_points(opts.n_uniform, d, seed.wrapping_add(1)));
    for (i, inc) in incumbents.iter().enumerate() {
        pool.extend(perturbations(
            inc,
            opts.n_local_per_incumbent,
            opts.local_sigma,
            seed.wrapping_add(2 + i as u64),
        ));
    }
    pool
}

/// Local refinement of an acquisition maximum: shrinking Gaussian
/// perturbation search around `start` (the cheap stand-in for BoTorch's
/// gradient-based acquisition optimization — the acquisition is cheap to
/// evaluate, so the tuner's 3 rounds × 24 = 72 extra probes are negligible
/// next to one workload replay).
pub fn local_refine<F: FnMut(&[f64]) -> f64>(
    mut acq: F,
    start: &[f64],
    start_value: f64,
    rounds: usize,
    per_round: usize,
    seed: u64,
) -> (Vec<f64>, f64) {
    refine(start, start_value, rounds, per_round, seed, |cands| {
        cands.iter().map(|c| acq(c)).collect()
    })
}

/// Return the candidate maximizing `acq`, with its value. Ties resolve to
/// the earliest candidate (deterministic).
pub fn argmax_acquisition<F: FnMut(&[f64]) -> f64>(
    candidates: &[Vec<f64>],
    mut acq: F,
) -> Option<(Vec<f64>, f64)> {
    pick(candidates, candidates.iter().map(|c| acq(c)))
}

/// Score every candidate with the block acquisition `acq` **in parallel**,
/// preserving candidate order in the returned values. The candidates are
/// cut into contiguous blocks of [`BLOCK`] (the last may be shorter);
/// `acq(block, out)` writes one value per candidate of `block` into `out`.
/// The blocks are scored concurrently and each value must depend on its
/// candidate alone, not on what shares its block, for the scores to be
/// independent of the thread count.
pub fn score_blocks<F: Fn(&[Vec<f64>], &mut [f64]) + Sync>(
    candidates: &[Vec<f64>],
    acq: &F,
) -> Vec<f64> {
    let blocks: Vec<&[Vec<f64>]> = candidates.chunks(BLOCK).collect();
    let scored: Vec<Vec<f64>> = blocks
        .into_par_iter()
        .map(|block| {
            let mut out = vec![f64::NAN; block.len()];
            acq(block, &mut out);
            out
        })
        .collect();
    scored.concat()
}

/// [`argmax_acquisition`] over a block acquisition: candidates are scored
/// by [`score_blocks`] and the winner is selected by a serial scan, so ties
/// still resolve to the earliest candidate and the result is the same for
/// any thread count.
pub fn argmax_blocks<F: Fn(&[Vec<f64>], &mut [f64]) + Sync>(
    candidates: &[Vec<f64>],
    acq: &F,
) -> Option<(Vec<f64>, f64)> {
    pick(candidates, score_blocks(candidates, acq))
}

/// [`local_refine`] over a block acquisition: each round's perturbations
/// are scored by [`score_blocks`], then the round winner is picked by a
/// serial scan — the same trajectory for any thread count, since rounds
/// stay sequential and within-round ties resolve to the earliest candidate.
pub fn local_refine_blocks<F: Fn(&[Vec<f64>], &mut [f64]) + Sync>(
    acq: &F,
    start: &[f64],
    start_value: f64,
    rounds: usize,
    per_round: usize,
    seed: u64,
) -> (Vec<f64>, f64) {
    refine(start, start_value, rounds, per_round, seed, |cands| score_blocks(cands, acq))
}

/// [`argmax_blocks`] for a per-point acquisition.
pub fn argmax_acquisition_par<F: Fn(&[f64]) -> f64 + Sync>(
    candidates: &[Vec<f64>],
    acq: &F,
) -> Option<(Vec<f64>, f64)> {
    argmax_blocks(candidates, &per_point(acq))
}

/// [`local_refine_blocks`] for a per-point acquisition.
pub fn local_refine_par<F: Fn(&[f64]) -> f64 + Sync>(
    acq: &F,
    start: &[f64],
    start_value: f64,
    rounds: usize,
    per_round: usize,
    seed: u64,
) -> (Vec<f64>, f64) {
    local_refine_blocks(&per_point(acq), start, start_value, rounds, per_round, seed)
}

/// A per-point acquisition as a block acquisition.
fn per_point<F: Fn(&[f64]) -> f64 + Sync>(acq: &F) -> impl Fn(&[Vec<f64>], &mut [f64]) + Sync + '_ {
    move |block, out| {
        for (c, v) in block.iter().zip(out) {
            *v = acq(c);
        }
    }
}

/// The first finite maximum of `values` (one per candidate), with its
/// candidate.
fn pick(candidates: &[Vec<f64>], values: impl IntoIterator<Item = f64>) -> Option<(Vec<f64>, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, v) in values.into_iter().enumerate() {
        if v.is_finite() && best.is_none_or(|(_, b)| v > b) {
            best = Some((i, v));
        }
    }
    best.map(|(i, v)| (candidates[i].clone(), v))
}

/// The refinement rounds: each scores a batch of perturbations of the
/// incumbent with `score` and moves to the first finite value above it.
fn refine(
    start: &[f64],
    start_value: f64,
    rounds: usize,
    per_round: usize,
    seed: u64,
    mut score: impl FnMut(&[Vec<f64>]) -> Vec<f64>,
) -> (Vec<f64>, f64) {
    let mut best = start.to_vec();
    let mut best_v = start_value;
    for round in 0..rounds {
        let sigma = 0.08 * 0.5f64.powi(round as i32);
        let cands = perturbations(&best, per_round, sigma, seed.wrapping_add(round as u64));
        let values = score(&cands);
        for (c, v) in cands.into_iter().zip(values) {
            if v.is_finite() && v > best_v {
                best_v = v;
                best = c;
            }
        }
    }
    (best, best_v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_contains_all_sources() {
        let opts = CandidateOptions {
            n_lhs: 10,
            n_uniform: 5,
            n_local_per_incumbent: 3,
            local_sigma: 0.1,
        };
        let pool = candidate_pool(4, &[vec![0.5; 4], vec![0.2; 4]], &opts, 7);
        assert_eq!(pool.len(), 10 + 5 + 3 * 2);
        assert!(pool.iter().all(|p| p.len() == 4));
    }

    #[test]
    fn argmax_finds_peak() {
        let candidates: Vec<Vec<f64>> = (0..101).map(|i| vec![i as f64 / 100.0]).collect();
        let (best, v) =
            argmax_acquisition(&candidates, |x| -(x[0] - 0.73) * (x[0] - 0.73)).unwrap();
        assert!((best[0] - 0.73).abs() < 0.011);
        assert!(v <= 0.0);
    }

    #[test]
    fn argmax_skips_nan() {
        let candidates = vec![vec![0.0], vec![1.0]];
        let (best, _) =
            argmax_acquisition(&candidates, |x| if x[0] < 0.5 { f64::NAN } else { 1.0 }).unwrap();
        assert_eq!(best[0], 1.0);
    }

    #[test]
    fn argmax_empty_is_none() {
        assert!(argmax_acquisition(&[], |_| 1.0).is_none());
    }

    #[test]
    fn local_refine_improves_or_keeps() {
        let acq = |x: &[f64]| -(x[0] - 0.61).powi(2);
        let start = vec![0.5];
        let v0 = acq(&start);
        let (best, v) = local_refine(acq, &start, v0, 4, 32, 7);
        assert!(v >= v0);
        assert!((best[0] - 0.61).abs() < (0.5f64 - 0.61).abs());
    }

    #[test]
    fn local_refine_never_leaves_unit_cube() {
        let acq = |x: &[f64]| x[0] + x[1];
        let start = vec![0.95, 0.98];
        let (best, _) = local_refine(acq, &start, acq(&start), 3, 16, 3);
        assert!(best.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
    }

    #[test]
    fn parallel_argmax_matches_serial_bitwise() {
        let candidates: Vec<Vec<f64>> =
            (0..257).map(|i| vec![i as f64 / 256.0, (i as f64 * 0.37).fract()]).collect();
        let acq = |x: &[f64]| (x[0] * 9.7).sin() * (x[1] * 3.1).cos();
        let serial = argmax_acquisition(&candidates, acq).unwrap();
        for threads in [1, 4] {
            let par = with_threads(threads, || argmax_acquisition_par(&candidates, &acq)).unwrap();
            assert_eq!(par.0, serial.0, "threads={threads}");
            assert_eq!(par.1.to_bits(), serial.1.to_bits());
        }
    }

    #[test]
    fn parallel_argmax_ties_resolve_to_earliest() {
        let candidates = vec![vec![0.1], vec![0.2], vec![0.3]];
        let (best, _) =
            with_threads(4, || argmax_acquisition_par(&candidates, &|_: &[f64]| 1.0)).unwrap();
        assert_eq!(best, vec![0.1]);
    }

    #[test]
    fn parallel_local_refine_matches_serial_bitwise() {
        let acq = |x: &[f64]| -(x[0] - 0.61).powi(2) - (x[1] - 0.3).powi(2);
        let start = vec![0.5, 0.5];
        let v0 = acq(&start);
        let serial = local_refine(acq, &start, v0, 4, 32, 7);
        for threads in [1, 3] {
            let par = with_threads(threads, || local_refine_par(&acq, &start, v0, 4, 32, 7));
            assert_eq!(par.0, serial.0, "threads={threads}");
            assert_eq!(par.1.to_bits(), serial.1.to_bits());
        }
    }

    /// A block acquisition whose value depends on the candidate alone, and
    /// which checks the blocks it is handed.
    fn block_acq(block: &[Vec<f64>], out: &mut [f64]) {
        assert!((1..=BLOCK).contains(&block.len()) && block.len() == out.len());
        for (c, v) in block.iter().zip(out) {
            *v = (c[0] * 9.7).sin() * (c[1] * 3.1).cos() - (c[0] - 0.61).powi(2);
        }
    }

    #[test]
    fn block_scans_equal_the_serial_scans_on_1_and_4_threads() {
        let point = |c: &[f64]| {
            let mut v = [0.0];
            block_acq(&[c.to_vec()], &mut v);
            v[0]
        };
        // Every tail length of the last block.
        for n in (BLOCK * 4..BLOCK * 5).chain([1, 257]) {
            let candidates: Vec<Vec<f64>> =
                (0..n).map(|i| vec![i as f64 / n as f64, (i as f64 * 0.37).fract()]).collect();
            let serial = argmax_acquisition(&candidates, point).unwrap();
            let refined = local_refine(point, &serial.0, serial.1, 3, 24, 11);
            for threads in [1, 4] {
                let (got, refined_got) = with_threads(threads, || {
                    let got = argmax_blocks(&candidates, &block_acq).unwrap();
                    (got.clone(), local_refine_blocks(&block_acq, &got.0, got.1, 3, 24, 11))
                });
                assert_eq!(got.0, serial.0, "n = {n}, threads = {threads}");
                assert_eq!(got.1.to_bits(), serial.1.to_bits());
                assert_eq!(refined_got.0, refined.0, "n = {n}, threads = {threads}");
                assert_eq!(refined_got.1.to_bits(), refined.1.to_bits());
            }
        }
    }

    #[test]
    fn score_candidates_preserves_order() {
        let candidates: Vec<Vec<f64>> = (0..33).map(|i| vec![i as f64]).collect();
        let acq = per_point(&|x: &[f64]| x[0] * 2.0);
        let scores = with_threads(4, || score_blocks(&candidates, &acq));
        assert_eq!(scores, (0..33).map(|i| i as f64 * 2.0).collect::<Vec<_>>());
    }
}
