//! Lloyd's k-means with k-means++ seeding, used by every IVF-family index.
//!
//! Training runs on a bounded sample (like FAISS/Milvus, which cap training
//! points per centroid) so index build time stays proportional to `nlist`
//! rather than the segment size.
//!
//! # Blocks, not points
//!
//! Every distance here goes through [`Kernel::l2_sq_block`] with a
//! *centroid* as the query and a contiguous run of *points* as the block —
//! the kernel scores eight rows per pass, so a call is worth making only
//! over many rows. `l2_sq` is bitwise symmetric (`(a − b)²` and `(b − a)²`
//! are the same float), so swapping the roles moves no bit, and a pairwise
//! [`Kernel::l2_sq`] is bitwise the block's row. The training sample is
//! gathered once into a contiguous buffer for that purpose, and
//! [`assign_nearest`] is the one full nearest-centroid pass of the crate.
//! Centroids, lists, codes, `BuildStats` and RNG draws are those of the
//! per-point loops kept in `oracle.rs` (test-only), bit for bit.
//!
//! # Pruned assignment
//!
//! Only the first Lloyd pass needs every (row, centroid) distance. Seeding
//! already scores each new centroid against the whole sample in ascending
//! order with a strict `<`, so its running argmin *is* pass 1 — unless a
//! distance to the first centroid is NaN: seeding's minimum then stays NaN
//! where [`assign_nearest`]'s skips it, and pass 1 runs the full pass.
//!
//! Passes 2–6, and the list pass of a segment whose sample was the whole
//! segment, know each row's previous centroid `a`. By the triangle
//! inequality (Elkan 2003, Lemma 1) a centroid `j` can tie or beat `a` for
//! row `x` only if `d(c_a, c_j) ≤ 2·d(x, c_a)`, i.e. `P ≤ 4R` in squared
//! distances. `assign_pruned` computes `R` for every row, keeps per
//! centroid a list of the others within its farthest row's reach (built
//! from the upper triangle of centroid pairs, one block call per row; no
//! `k × k` buffer), scores for each row only the listed centroids inside
//! the row's own reach, and takes the winner by `(distance, index)` — the
//! first strict minimum, which is what [`assign_nearest`] returns.
//!
//! The lemma holds for real distances; the kernel's carry the rounding of
//! a difference, a square and up to `dim − 1` additions per term, at most
//! `(dim + 2)·2⁻²⁴` relative to first order. So every comparison shrinks
//! the pair side by, and grows the reach side by, `η = 4(dim + 2)·2⁻²⁴`,
//! which guarantees that a centroid left out has a *computed* distance
//! above the row's computed `R` — the distances `assign_nearest` compares.
//! Relative slack does not bound underflow, whose error is absolute (up to
//! `dim·2⁻¹⁵⁰`): a row nearer its centroid than `TINY` makes the pass fall
//! back, except a row equal to its centroid (`R = 0` exactly), whose
//! distance to any other centroid is that pair's own distance. The pass
//! also falls back to [`assign_nearest`] when a row's `R` is not finite.
//! `BuildStats::train_dims` stays the `s·k·dim` formula per pass.
//!
//! [`Kernel::l2_sq_block`]: vecdata::kernel::Kernel::l2_sq_block
//! [`Kernel::l2_sq`]: vecdata::kernel::Kernel::l2_sq

use crate::cost::BuildStats;
use rand::rngs::StdRng;
use rand::Rng;
use std::borrow::Cow;
use vecdata::kernel;
use vecdata::rng::rng;

#[cfg(test)]
mod oracle;

/// Result of k-means training: `k` centroids in a flat row-major buffer.
#[derive(Debug, Clone)]
pub struct KMeans {
    pub k: usize,
    pub dim: usize,
    pub centroids: Vec<f32>,
}

/// Maximum training points per centroid (FAISS uses 256; we use fewer to
/// keep scaled experiments fast without changing the partition geometry).
const TRAIN_POINTS_PER_CENTROID: usize = 64;
/// Lloyd iterations; IVF quality saturates quickly on our data sizes.
const LLOYD_ITERS: usize = 6;
/// Floats of points per [`assign_nearest`] tile: 16 KiB, so a tile stays in
/// L1 while every centroid is scored against it.
const TILE_FLOATS: usize = 4096;
/// Squared distances below this may carry an underflow error the relative
/// slack of [`assign_pruned`] does not bound (`dim·2⁻¹⁵⁰` is a negligible
/// fraction of it at any width), so a row this close to its centroid, and
/// not equal to it, makes the pass fall back.
const TINY: f32 = 1e-30;

#[cfg(test)]
thread_local! {
    /// Centroid rows scored on this thread by the assignment passes
    /// ([`assign_nearest`] and [`assign_pruned`]; seeding is not counted).
    static ROWS_SCORED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[inline]
fn count_rows(_rows: usize) {
    #[cfg(test)]
    ROWS_SCORED.with(|n| n.set(n.get() + _rows as u64));
}

impl KMeans {
    /// Train on (a sample of) `data`. `data.len()` must be a multiple of `dim`.
    ///
    /// `k` is clamped to the number of points. Deterministic given `seed`.
    pub fn train(data: &[f32], dim: usize, k: usize, seed: u64, stats: &mut BuildStats) -> KMeans {
        Self::train_with(&mut rng(seed), data, dim, k, stats).0
    }

    /// [`KMeans::train`] drawing from `r`, plus the last Lloyd assignment
    /// (each row's centroid before the final update) when the sample was
    /// the whole of `data` — the previous assignment [`assign_pruned`]
    /// needs for the list pass. Taking `r` lets the oracle panel also
    /// compare where the two sides leave the generator.
    pub(crate) fn train_with(
        r: &mut StdRng,
        data: &[f32],
        dim: usize,
        k: usize,
        stats: &mut BuildStats,
    ) -> (KMeans, Option<Vec<u32>>) {
        assert!(dim > 0 && data.len().is_multiple_of(dim));
        let n = data.len() / dim;
        let k = k.max(1).min(n.max(1));
        if n == 0 {
            return (KMeans { k: 0, dim, centroids: Vec::new() }, None);
        }

        // Bounded training sample, contiguous: the whole segment borrowed,
        // or `s` picked rows gathered once.
        let s = (k * TRAIN_POINTS_PER_CENTROID).min(n);
        let sample: Cow<[f32]> = if s == n {
            Cow::Borrowed(data)
        } else {
            // Floyd's sampling would be fancier; a simple stride+jitter pick
            // is deterministic and spreads across the segment.
            let stride = n as f64 / s as f64;
            let mut rows = Vec::with_capacity(s * dim);
            for j in 0..s {
                let base = (j as f64 * stride) as usize;
                let i = (base + r.gen_range(0..stride.max(1.0) as usize + 1)).min(n - 1);
                rows.extend_from_slice(&data[i * dim..(i + 1) * dim]);
            }
            Cow::Owned(rows)
        };
        let point = |j: usize| &sample[j * dim..(j + 1) * dim];

        // k-means++ seeding on the sample: each new centroid is scored
        // against the whole sample in one block call. The running argmin
        // is the first Lloyd assignment, unless a first distance is NaN.
        let kern = kernel::active();
        let mut centroids = vec![0.0f32; k * dim];
        centroids[..dim].copy_from_slice(point(r.gen_range(0..s)));
        let mut min_d2 = Vec::with_capacity(s);
        kern.l2_sq_block(&centroids[..dim], &sample, dim, &mut min_d2);
        stats.train_dims += (s * dim) as u64;
        let seeded_argmin = !min_d2.iter().any(|d| d.is_nan());
        let mut assign = vec![0u32; s];
        let mut scores = Vec::with_capacity(s);
        for c in 1..k {
            let total: f64 = min_d2.iter().map(|&d| d as f64).sum();
            let chosen = if total <= 0.0 {
                r.gen_range(0..s)
            } else {
                let mut target = r.gen::<f64>() * total;
                let mut pick = s - 1;
                for (j, &d) in min_d2.iter().enumerate() {
                    target -= d as f64;
                    if target <= 0.0 {
                        pick = j;
                        break;
                    }
                }
                pick
            };
            let centroid = &mut centroids[c * dim..(c + 1) * dim];
            centroid.copy_from_slice(point(chosen));
            // Update min distances.
            kern.l2_sq_block(centroid, &sample, dim, &mut scores);
            for ((min, near), &d) in min_d2.iter_mut().zip(&mut assign).zip(&scores) {
                if d < *min {
                    *min = d;
                    *near = c as u32;
                }
            }
            stats.train_dims += (s * dim) as u64;
        }

        // Lloyd iterations on the sample: the first assignment is
        // seeding's, every later one is pruned from the one before it.
        let mut counts = vec![0usize; k];
        let mut sums = vec![0.0f32; k * dim];
        for iter in 0..LLOYD_ITERS {
            if iter > 0 {
                assign_pruned(&sample, &centroids, dim, &mut assign);
            } else if !seeded_argmin {
                assign_nearest(&sample, &centroids, dim, &mut assign);
            }
            stats.train_dims += (s * k * dim) as u64;
            counts.iter_mut().for_each(|c| *c = 0);
            sums.iter_mut().for_each(|x| *x = 0.0);
            for (j, &c) in assign.iter().enumerate() {
                let c = c as usize;
                counts[c] += 1;
                let v = point(j);
                let dst = &mut sums[c * dim..(c + 1) * dim];
                for d in 0..dim {
                    dst[d] += v[d];
                }
            }
            for c in 0..k {
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f32;
                    let dst = &mut centroids[c * dim..(c + 1) * dim];
                    for d in 0..dim {
                        dst[d] = sums[c * dim + d] * inv;
                    }
                } else {
                    // Re-seed an empty cluster at a random sample point to
                    // keep all `k` partitions useful.
                    centroids[c * dim..(c + 1) * dim].copy_from_slice(point(r.gen_range(0..s)));
                }
            }
        }

        let whole = matches!(sample, Cow::Borrowed(_));
        (KMeans { k, dim, centroids }, whole.then_some(assign))
    }

    /// Centroid `c` as a slice.
    #[inline]
    pub fn centroid(&self, c: usize) -> &[f32] {
        &self.centroids[c * self.dim..(c + 1) * self.dim]
    }

    /// Indices of the `p` nearest centroids (sorted by ascending distance),
    /// recording the scan cost. No probes, and no cost, when there is no
    /// centroid (an empty segment's quantizer) or `p == 0`.
    pub fn nearest_n(&self, v: &[f32], p: usize, cost_dims: &mut u64) -> Vec<usize> {
        if self.k == 0 || p == 0 {
            return Vec::new();
        }
        let mut scores = Vec::with_capacity(self.k);
        kernel::active().l2_sq_block(v, &self.centroids, self.dim, &mut scores);
        let mut ds: Vec<(f32, usize)> = scores.into_iter().zip(0..self.k).collect();
        *cost_dims += (self.k * self.dim) as u64;
        let p = p.min(self.k);
        ds.select_nth_unstable_by(p.saturating_sub(1), |a, b| a.0.total_cmp(&b.0));
        let mut top: Vec<(f32, usize)> = ds[..p].to_vec();
        top.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        top.into_iter().map(|(_, c)| c).collect()
    }
}

/// For each `dim`-wide row of `points`, the index of its nearest row of
/// `centroids` into `out`: the first index of the smallest distance (strict
/// `<` from `+∞`, so ties keep the earliest centroid and a row no centroid
/// is nearer to than `+∞` — all-NaN, or no centroids at all — gets 0).
///
/// Points are taken a tile at a time; every centroid, in ascending order, is
/// scored against the tile in one block call and merged into the tile's
/// running minimum. Ascending order plus strict `<` is what makes the result
/// the per-point argmin loop's.
pub fn assign_nearest(points: &[f32], centroids: &[f32], dim: usize, out: &mut [u32]) {
    assert!(dim > 0 && points.len() == out.len() * dim && centroids.len().is_multiple_of(dim));
    count_rows(out.len() * (centroids.len() / dim));
    let kern = kernel::active();
    // A multiple of 8 rows, so only the last tile has leftover rows.
    let tile_rows = (TILE_FLOATS / dim).max(8) / 8 * 8;
    let mut scores = Vec::with_capacity(tile_rows);
    let mut min_d2 = vec![f32::INFINITY; tile_rows];
    for (tile, nearest) in points.chunks(tile_rows * dim).zip(out.chunks_mut(tile_rows)) {
        let min_d2 = &mut min_d2[..nearest.len()];
        min_d2.fill(f32::INFINITY);
        nearest.fill(0);
        for (c, centroid) in centroids.chunks_exact(dim).enumerate() {
            kern.l2_sq_block(centroid, tile, dim, &mut scores);
            for ((min, near), &d) in min_d2.iter_mut().zip(nearest.iter_mut()).zip(&scores) {
                // Selects, not a branch: early centroids win often and
                // unpredictably, and this form vectorises.
                *near = if d < *min { c as u32 } else { *near };
                *min = min.min(d);
            }
        }
    }
}

/// Relative slack `η = 4(dim + 2)·2⁻²⁴` of every pruning comparison: four
/// times the first-order bound on the rounding of one `l2_sq` over `dim`
/// floats (a difference, a square and at most `dim − 1` additions per
/// term). The lemma's test `P ≤ 4R` needs `η` above `1.5` such bounds plus
/// the few roundings of the comparison itself.
fn slack(dim: usize) -> f32 {
    4.0 * (dim + 2) as f32 * (f32::EPSILON / 2.0)
}

/// [`assign_nearest`] given, in `assign`, each row's previous centroid:
/// the same output bit for bit, scoring only the centroids the triangle
/// inequality cannot rule out (see the module docs). Runs the full pass
/// instead when a row's distance to its previous centroid is not finite,
/// or is below `TINY` without the row being the centroid.
pub(crate) fn assign_pruned(points: &[f32], centroids: &[f32], dim: usize, assign: &mut [u32]) {
    let kern = kernel::active();
    let k = centroids.len() / dim;
    let centroid = |c: usize| &centroids[c * dim..(c + 1) * dim];
    let eta = slack(dim);
    let (lo, hi) = (1.0 - eta, 4.0 * (1.0 + eta));

    // Each row's squared distance to its previous centroid, and each
    // centroid's reach: the largest `4(1 + η)·own` of its rows.
    let mut own = Vec::with_capacity(assign.len());
    let mut reach = vec![f32::NEG_INFINITY; k];
    for (x, &a) in points.chunks_exact(dim).zip(assign.iter()) {
        let c = centroid(a as usize);
        let d = kern.l2_sq(x, c);
        if !d.is_finite() || (d < TINY && x != c) {
            return assign_nearest(points, centroids, dim, assign);
        }
        own.push(d);
        reach[a as usize] = reach[a as usize].max(d * hi);
    }
    count_rows(assign.len());

    // Per centroid `a`, `(j, (1 − η)·l2_sq(c_a, c_j))` for every other
    // centroid within its reach, from the upper triangle of pairs. A NaN
    // pair (a NaN centroid, whose distances never win) is never listed;
    // an overflowed one is above any finite reach.
    let mut lists: Vec<Vec<(u32, f32)>> = vec![Vec::new(); k];
    let mut scores = Vec::with_capacity(k);
    for a in 0..k {
        kern.l2_sq_block(centroid(a), &centroids[(a + 1) * dim..], dim, &mut scores);
        for (j, &d) in (a + 1..).zip(&scores) {
            let pair = d * lo;
            if pair <= reach[a] {
                lists[a].push((j as u32, pair));
            }
            if pair <= reach[j] {
                lists[j].push((a as u32, pair));
            }
        }
    }
    count_rows(k * (k - 1) / 2);

    // Each row: the listed centroids inside its own reach.
    let mut scored = 0;
    for ((x, near), &r) in points.chunks_exact(dim).zip(assign.iter_mut()).zip(&own) {
        let row_reach = r * hi;
        let (mut best_d, mut best) = (r, *near);
        for &(j, pair) in &lists[*near as usize] {
            if pair > row_reach {
                continue;
            }
            scored += 1;
            let d = kern.l2_sq(x, centroid(j as usize));
            if d < best_d || (d == best_d && j < best) {
                (best_d, best) = (d, j);
            }
        }
        *near = best;
    }
    count_rows(scored);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecdata::distance::l2_sq;

    fn toy_data() -> (Vec<f32>, usize) {
        // Three well-separated 2-D blobs.
        let mut data = Vec::new();
        let mut r = rng(1);
        for center in [(0.0f32, 0.0f32), (10.0, 10.0), (-10.0, 10.0)] {
            for _ in 0..50 {
                data.push(center.0 + r.gen::<f32>() * 0.5);
                data.push(center.1 + r.gen::<f32>() * 0.5);
            }
        }
        (data, 2)
    }

    #[test]
    fn separates_blobs() {
        let (data, dim) = toy_data();
        let mut stats = BuildStats::default();
        let km = KMeans::train(&data, dim, 3, 7, &mut stats);
        assert_eq!(km.k, 3);
        // Every centroid should be close to one of the true blob centers.
        for c in 0..3 {
            let cen = km.centroid(c);
            let ok = [(0.0f32, 0.0f32), (10.0, 10.0), (-10.0, 10.0)]
                .iter()
                .any(|t| (cen[0] - t.0).abs() < 2.0 && (cen[1] - t.1).abs() < 2.0);
            assert!(ok, "centroid {cen:?} not near any blob");
        }
        assert!(stats.train_dims > 0);
    }

    #[test]
    fn deterministic() {
        let (data, dim) = toy_data();
        let mut s1 = BuildStats::default();
        let mut s2 = BuildStats::default();
        let a = KMeans::train(&data, dim, 4, 42, &mut s1);
        let b = KMeans::train(&data, dim, 4, 42, &mut s2);
        assert_eq!(a.centroids, b.centroids);
        assert_eq!(s1.train_dims, s2.train_dims);
    }

    #[test]
    fn k_clamped_to_n() {
        let data = vec![0.0f32; 2 * 3]; // 3 points of dim 2
        let mut stats = BuildStats::default();
        let km = KMeans::train(&data, 2, 100, 0, &mut stats);
        assert_eq!(km.k, 3);
    }

    #[test]
    fn nearest_assigns_to_own_blob() {
        let (data, dim) = toy_data();
        let mut stats = BuildStats::default();
        let km = KMeans::train(&data, dim, 3, 7, &mut stats);
        let mut nearest = [u32::MAX; 2];
        assign_nearest(&[10.1, 9.9, -9.9, 10.2], &km.centroids, dim, &mut nearest);
        for (c, blob) in nearest.into_iter().zip([(10.0f32, 10.0f32), (-10.0, 10.0)]) {
            let cen = km.centroid(c as usize);
            assert!((cen[0] - blob.0).abs() < 2.0 && (cen[1] - blob.1).abs() < 2.0);
        }
    }

    #[test]
    fn nearest_n_sorted_and_counts_cost() {
        let (data, dim) = toy_data();
        let mut stats = BuildStats::default();
        let km = KMeans::train(&data, dim, 3, 7, &mut stats);
        let mut cost = 0u64;
        let order = km.nearest_n(&[0.0, 0.0], 3, &mut cost);
        assert_eq!(order.len(), 3);
        assert_eq!(cost, (3 * dim) as u64);
        // Distances must be ascending.
        let d: Vec<f32> = order.iter().map(|&c| l2_sq(&[0.0, 0.0], km.centroid(c))).collect();
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty_data() {
        let mut stats = BuildStats::default();
        let km = KMeans::train(&[], 4, 5, 0, &mut stats);
        assert_eq!(km.k, 0);
    }
}
