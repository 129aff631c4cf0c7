//! Test-only oracle for the block-wise k-means pipeline: the per-point,
//! per-centroid loops that [`super::KMeans::train`],
//! [`IvfLists::build`] and [`ProductQuantizer::encode`] replaced — an index
//! list per sample, one pairwise `l2_sq` per (point, centroid) with the
//! point on the left, a scalar strict-`<` argmin, nested per-centroid lists
//! (flattened into the production CSR form at the end) — and the panels
//! that hold the two to the same centroids, lists, codes, `BuildStats`,
//! generator state and search behaviour bit for bit. The literal builds of
//! the five IVF-family types assemble their index through
//! `IvfIndex::from_parts`, so both sides search with the production code.
//!
//! It may be retired when the production pipeline stops promising the old
//! bits: the day a history-changing change to training (another sample
//! rule, seeding, iteration count or tie rule) is accepted, the pinned
//! digests move with it and these loops pin nothing any more. Until then
//! every change to `kmeans.rs`, `IvfLists::build` or the PQ encoder is
//! checked against them.

use super::{
    assign_nearest, assign_pruned, KMeans, LLOYD_ITERS, ROWS_SCORED, TINY,
    TRAIN_POINTS_PER_CENTROID,
};
use crate::cost::{BuildStats, SearchCost};
use crate::index::{AnnIndex, BuildError, VectorIndex};
use crate::ivf::{autoindex_heuristic, IvfIndex, IvfLists};
use crate::ivf_pq::ProductQuantizer;
use crate::params::{nearest_divisor, IndexParams, IndexType, SearchParams};
use proptest::panel::bits_f32 as bits;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use vecdata::distance::l2_sq;
use vecdata::rng::rng;
use vecdata::{DatasetKind, DatasetSpec};

// ---------------------------------------------------------------------------
// The literal loops
// ---------------------------------------------------------------------------

/// First index of the smallest distance from `v` to a row of `centroids`
/// (strict `<` from `+∞`; 0 when nothing is nearer than that).
fn nearest(v: &[f32], centroids: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (c, centroid) in centroids.chunks_exact(v.len()).enumerate() {
        let d = l2_sq(v, centroid);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// The literal `KMeans::train_with`.
fn train_with(
    r: &mut StdRng,
    data: &[f32],
    dim: usize,
    k: usize,
    stats: &mut BuildStats,
) -> KMeans {
    assert!(dim > 0 && data.len().is_multiple_of(dim));
    let n = data.len() / dim;
    let k = k.max(1).min(n.max(1));
    if n == 0 {
        return KMeans { k: 0, dim, centroids: Vec::new() };
    }

    let sample_target = (k * TRAIN_POINTS_PER_CENTROID).min(n);
    let sample: Vec<usize> = if sample_target == n {
        (0..n).collect()
    } else {
        let stride = n as f64 / sample_target as f64;
        (0..sample_target)
            .map(|i| {
                let base = (i as f64 * stride) as usize;
                (base + r.gen_range(0..stride.max(1.0) as usize + 1)).min(n - 1)
            })
            .collect()
    };
    let s = sample.len();

    let mut centroids = vec![0.0f32; k * dim];
    let first = sample[r.gen_range(0..s)];
    centroids[..dim].copy_from_slice(&data[first * dim..(first + 1) * dim]);
    let mut min_d2: Vec<f32> =
        sample.iter().map(|&i| l2_sq(&data[i * dim..(i + 1) * dim], &centroids[..dim])).collect();
    stats.train_dims += (s * dim) as u64;
    for c in 1..k {
        let total: f64 = min_d2.iter().map(|&d| d as f64).sum();
        let chosen = if total <= 0.0 {
            sample[r.gen_range(0..s)]
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
            sample[pick]
        };
        let dst = &mut centroids[c * dim..(c + 1) * dim];
        dst.copy_from_slice(&data[chosen * dim..(chosen + 1) * dim]);
        let dst = &centroids[c * dim..(c + 1) * dim];
        for (j, &i) in sample.iter().enumerate() {
            let d = l2_sq(&data[i * dim..(i + 1) * dim], dst);
            if d < min_d2[j] {
                min_d2[j] = d;
            }
        }
        stats.train_dims += (s * dim) as u64;
    }

    let mut assign = vec![0usize; s];
    let mut counts = vec![0usize; k];
    let mut sums = vec![0.0f32; k * dim];
    for _ in 0..LLOYD_ITERS {
        for (j, &i) in sample.iter().enumerate() {
            assign[j] = nearest(&data[i * dim..(i + 1) * dim], &centroids);
        }
        stats.train_dims += (s * k * dim) as u64;
        counts.iter_mut().for_each(|c| *c = 0);
        sums.iter_mut().for_each(|x| *x = 0.0);
        for (j, &i) in sample.iter().enumerate() {
            let c = assign[j];
            counts[c] += 1;
            let v = &data[i * dim..(i + 1) * dim];
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
                let i = sample[r.gen_range(0..s)];
                centroids[c * dim..(c + 1) * dim].copy_from_slice(&data[i * dim..(i + 1) * dim]);
            }
        }
    }

    KMeans { k, dim, centroids }
}

fn train(data: &[f32], dim: usize, k: usize, seed: u64, stats: &mut BuildStats) -> KMeans {
    train_with(&mut rng(seed), data, dim, k, stats)
}

/// The literal `IvfLists::build`: nested lists, flattened at the end.
fn ivf_lists(
    vectors: &[f32],
    dim: usize,
    nlist: usize,
    seed: u64,
    stats: &mut BuildStats,
) -> IvfLists {
    let n = vectors.len() / dim;
    let quantizer = train(vectors, dim, nlist, seed, stats);
    let mut lists: Vec<Vec<u32>> = vec![Vec::new(); quantizer.k];
    for i in 0..n {
        let c = nearest(&vectors[i * dim..(i + 1) * dim], &quantizer.centroids);
        lists[c].push(i as u32);
    }
    stats.train_dims += (n * quantizer.k * dim) as u64;
    let mut offsets = vec![0];
    offsets.extend(lists.iter().scan(0, |end, list| {
        *end += list.len();
        Some(*end)
    }));
    IvfLists { quantizer, offsets, ids: lists.concat() }
}

/// The literal `ProductQuantizer::train`.
fn pq_train(
    vectors: &[f32],
    dim: usize,
    m: usize,
    nbits: usize,
    seed: u64,
    stats: &mut BuildStats,
) -> Result<ProductQuantizer, BuildError> {
    if m == 0 || !dim.is_multiple_of(m) {
        return Err(BuildError::PqSubspaceMismatch { dim, m });
    }
    if !(1..=16).contains(&nbits) {
        return Err(BuildError::InvalidParam("nbits"));
    }
    let dsub = dim / m;
    let ksub = 1usize << nbits;
    let n = vectors.len() / dim;
    let mut codebooks = Vec::with_capacity(m);
    let mut sub = vec![0.0f32; n * dsub];
    for s in 0..m {
        for i in 0..n {
            let src = &vectors[i * dim + s * dsub..i * dim + (s + 1) * dsub];
            sub[i * dsub..(i + 1) * dsub].copy_from_slice(src);
        }
        let km = train(&sub, dsub, ksub, seed.wrapping_add(s as u64), stats);
        let mut cb = km.centroids;
        cb.resize(ksub * dsub, 0.0);
        codebooks.push(cb);
    }
    Ok(ProductQuantizer { dim, m, dsub, ksub, codebooks })
}

/// The literal per-vector encode loop of the PQ builds.
fn pq_encode_all(pq: &ProductQuantizer, vectors: &[f32]) -> Vec<u8> {
    let n = vectors.len() / pq.dim;
    let mut codes = vec![0u8; n * pq.m];
    for i in 0..n {
        let v = &vectors[i * pq.dim..(i + 1) * pq.dim];
        for s in 0..pq.m {
            let sub = &v[s * pq.dsub..(s + 1) * pq.dsub];
            codes[i * pq.m + s] = nearest(sub, &pq.codebooks[s]) as u8;
        }
    }
    codes
}

/// `AnnIndex::build` for the k-means family, every trained part from the
/// loops above.
fn build(
    kind: IndexType,
    vectors: &[f32],
    dim: usize,
    params: &IndexParams,
    seed: u64,
) -> Result<(AnnIndex, BuildStats), BuildError> {
    let mut stats = BuildStats::default();
    let n = vectors.len() / dim;
    let nlist = match kind {
        IndexType::AutoIndex => autoindex_heuristic(n).0,
        _ => params.nlist,
    };
    let ivf = ivf_lists(vectors, dim, nlist, seed, &mut stats);
    let mut pq_parts = |m, nbits, pq_seed| -> Result<_, BuildError> {
        let pq = pq_train(vectors, dim, m, nbits, pq_seed, &mut stats)?;
        let codes = pq_encode_all(&pq, vectors);
        stats.train_dims += (n * pq.m * pq.ksub * pq.dsub) as u64;
        Ok(Some((pq, codes)))
    };
    let pq = match kind {
        IndexType::IvfPq => pq_parts(params.m, params.nbits, seed ^ 0x9051)?,
        IndexType::Scann => pq_parts(nearest_divisor(dim, (dim / 2).max(1)), 4, seed ^ 0x5CA1)?,
        IndexType::IvfFlat | IndexType::IvfSq8 | IndexType::AutoIndex => None,
        IndexType::Flat | IndexType::Hnsw => unreachable!("not a k-means index"),
    };
    let idx = AnnIndex::Ivf(IvfIndex::from_parts(kind, vectors, dim, ivf, pq, &mut stats));
    stats.memory_bytes = idx.memory_bytes();
    Ok((idx, stats))
}

// ---------------------------------------------------------------------------
// Equivalence panels
// ---------------------------------------------------------------------------

/// How a panel's rows are made.
#[derive(Debug, Clone, Copy)]
enum Rows {
    /// Floats around eight cluster centres.
    Clustered,
    /// Clustered, every `dup`-th row repeating an earlier one: equal
    /// centroids, empty clusters, reseeds.
    Duplicated(usize),
    /// Coordinates in {0, 1, 2}: small integers, so distances are exact and
    /// tie all the time.
    Grid,
    /// One row `n` times: every distance 0, seeding falls back to uniform
    /// picks and every Lloyd iteration reseeds `k − 1` clusters.
    Constant,
    /// Clustered rows scaled into the subnormal range: squares underflow,
    /// so the pruned passes must fall back.
    Subnormal,
}

fn rows(kind: Rows, n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut r = rng(seed);
    let centres: Vec<f32> = (0..8 * dim).map(|_| r.gen::<f32>() * 4.0).collect();
    let mut v = Vec::with_capacity(n * dim);
    for i in 0..n {
        match kind {
            Rows::Duplicated(dup) if i > 0 && i % dup == dup - 1 => {
                let src = r.gen_range(0..i);
                v.extend_from_within(src * dim..(src + 1) * dim);
            }
            Rows::Clustered | Rows::Duplicated(_) => {
                let c = r.gen_range(0..8usize);
                v.extend((0..dim).map(|j| centres[c * dim + j] + r.gen::<f32>()));
            }
            Rows::Subnormal => {
                let c = r.gen_range(0..8usize);
                v.extend((0..dim).map(|j| (centres[c * dim + j] + r.gen::<f32>()) * 1e-39));
            }
            Rows::Grid => v.extend((0..dim).map(|_| r.gen_range(0..3u32) as f32)),
            Rows::Constant => v.extend((0..dim).map(|j| 0.37 * (j + 1) as f32)),
        }
    }
    v
}

/// Training, list assignment and (when `dim` splits) PQ train + encode of
/// `data` agree with the literal loops: centroid bits, `k`, lists, codes,
/// `BuildStats`, and the generator's next draw after training.
fn assert_pipeline_equivalent(data: &[f32], dim: usize, k: usize, seed: u64, tag: &str) {
    let (mut r_new, mut r_old) = (rng(seed), rng(seed));
    let (mut s_new, mut s_old) = (BuildStats::default(), BuildStats::default());
    let (new, _) = KMeans::train_with(&mut r_new, data, dim, k, &mut s_new);
    let old = train_with(&mut r_old, data, dim, k, &mut s_old);
    assert_eq!((new.k, new.dim), (old.k, old.dim), "{tag}: k");
    assert_eq!(bits(&new.centroids), bits(&old.centroids), "{tag}: centroids");
    assert_eq!(s_new, s_old, "{tag}: train stats");
    assert_eq!(r_new.gen::<u64>(), r_old.gen::<u64>(), "{tag}: next draw");

    let (mut s_new, mut s_old) = (BuildStats::default(), BuildStats::default());
    let new = IvfLists::build(data, dim, k, seed, &mut s_new);
    let old = ivf_lists(data, dim, k, seed, &mut s_old);
    assert_eq!(bits(&new.quantizer.centroids), bits(&old.quantizer.centroids), "{tag}: quantizer");
    assert_eq!((new.offsets, new.ids), (old.offsets, old.ids), "{tag}: lists");
    assert_eq!(s_new, s_old, "{tag}: list stats");

    // Codebooks of min(k, 256) rows over the widest split of `dim` into
    // sub-vectors of at most four floats.
    let m = (1..=dim).find(|&m| dim.is_multiple_of(m) && dim / m <= 4).expect("m = dim splits");
    let nbits = (k.min(256).ilog2() as usize).max(1);
    let (mut s_new, mut s_old) = (BuildStats::default(), BuildStats::default());
    let new = ProductQuantizer::train(data, dim, m, nbits, seed, &mut s_new).unwrap();
    let old = pq_train(data, dim, m, nbits, seed, &mut s_old).unwrap();
    for (s, (a, b)) in new.codebooks.iter().zip(&old.codebooks).enumerate() {
        assert_eq!(bits(a), bits(b), "{tag}: codebook {s}");
    }
    assert_eq!(s_new, s_old, "{tag}: pq stats");
    let mut codes = vec![0u8; data.len() / dim * m];
    new.encode(data, &mut codes);
    assert_eq!(codes, pq_encode_all(&old, data), "{tag}: codes");
}

const PANEL_DIMS: [usize; 8] = [1, 2, 3, 8, 12, 16, 48, 50];
const PANEL_KS: [usize; 7] = [1, 2, 63, 64, 65, 129, 1024];

/// Most `pairs × (dim + 8)` per Lloyd iteration a random corner may cost
/// (a pairwise call costs what eight dims do). The literal loops are slow
/// unoptimised, so `cargo test` reaches two thirds of the 448 corners; the
/// release runs of the CI kernel matrix reach all but `k = 1 024` at and
/// above the sample bound. The large shapes that matter either way are in
/// `sample_boundaries_and_large_k`.
const CORNER_BUDGET: usize = if cfg!(debug_assertions) { 4_000_000 } else { 512_000_000 };

/// The panel's `n` for a given `k`: nothing, one row, one short of `k`,
/// `k`, the three sizes around the sample bound `64 k`, and a segment.
fn panel_ns(k: usize) -> [usize; 8] {
    let bound = k * TRAIN_POINTS_PER_CENTROID;
    [0, 1, k - 1, k, bound - 1, bound, bound + 1, 8_000]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A random corner of the n × dim × k panel on every kind of rows,
    /// within [`CORNER_BUDGET`].
    #[test]
    fn pipeline_equals_the_literal_loops(ni in 0usize..8, di in 0usize..8, ki in 0usize..7,
                                         kind in 0usize..4, dup in 2usize..6, seed in 0u64..1000) {
        let (dim, k) = (PANEL_DIMS[di], PANEL_KS[ki]);
        let n = panel_ns(k)[ni];
        let sampled = n.min(k * TRAIN_POINTS_PER_CENTROID);
        if sampled * k.min(n) * (dim + 8) <= CORNER_BUDGET {
            let kind = [Rows::Clustered, Rows::Duplicated(dup), Rows::Grid, Rows::Constant][kind];
            let data = rows(kind, n, dim, seed);
            let tag = format!("{kind:?} n={n} dim={dim} k={k} seed={seed}");
            assert_pipeline_equivalent(&data, dim, k, seed, &tag);
        }
    }
}

#[test]
fn sample_boundaries_and_large_k() {
    // (rows, n, dim, k): the strided sample one row short of, at and past
    // `64 k`; a segment; k = n and k > n; k = 1 024 clamped by n; and tile
    // boundaries of `assign_nearest` (2 048 rows a tile at dim 2, 80 at
    // dim 48 and 50) with duplicates on both sides of them.
    let panel = [
        // Pruned passes with most clusters of one or two rows (`2k > n`),
        // with many rows per cluster (`2k ≤ n`), with exact ties and
        // reseeds (grid, duplicates) among them, and where underflow makes
        // them fall back (subnormal).
        (Rows::Grid, 300, 2, 200),
        (Rows::Clustered, 665, 48, 16),
        (Rows::Clustered, 665, 48, 71),
        (Rows::Grid, 600, 2, 64),
        (Rows::Grid, 2_048, 3, 128),
        (Rows::Duplicated(3), 1_100, 4, 256),
        (Rows::Subnormal, 600, 3, 64),
        (Rows::Clustered, 127, 3, 2),
        (Rows::Clustered, 128, 3, 2),
        (Rows::Clustered, 129, 3, 2),
        (Rows::Duplicated(3), 1_087, 2, 17),
        (Rows::Clustered, 1_088, 1, 17),
        (Rows::Grid, 1_089, 2, 17),
        (Rows::Clustered, 8_000, 3, 17),
        (Rows::Duplicated(2), 64, 12, 64),
        (Rows::Grid, 63, 16, 64),
        (Rows::Constant, 130, 1, 129),
        (Rows::Grid, 520, 2, 1_024),
        (Rows::Duplicated(4), 4_097, 2, 16),
        (Rows::Duplicated(5), 600, 48, 16),
        (Rows::Clustered, 170, 50, 1_024),
    ];
    // Where the literal loops are affordable: pruned passes on whole
    // segments at the benchmark's width, and the largest shape a tune
    // builds.
    let optimised = [
        (Rows::Clustered, 665, 48, 128),
        (Rows::Clustered, 665, 48, 512),
        (Rows::Clustered, 2_048, 48, 16),
        (Rows::Clustered, 2_048, 48, 71),
        (Rows::Clustered, 2_048, 48, 128),
        (Rows::Grid, 665, 48, 71),
        (Rows::Duplicated(2), 665, 48, 128),
        (Rows::Subnormal, 665, 48, 71),
        (Rows::Clustered, 8_000, 48, 1_024),
    ];
    let optimised = optimised.into_iter().filter(|_| !cfg!(debug_assertions));
    for (i, (kind, n, dim, k)) in panel.into_iter().chain(optimised).enumerate() {
        let data = rows(kind, n, dim, i as u64);
        let tag = format!("{kind:?} n={n} dim={dim} k={k}");
        assert_pipeline_equivalent(&data, dim, k, i as u64, &tag);
    }
}

#[test]
fn nan_rows_train_the_same_centroids() {
    // Every third row has a NaN coordinate: its distances are all NaN, so
    // it is never nearer to anything and the cluster it lands in (0)
    // averages to NaN. Over six seeds the first seed is such a row at
    // least once, and then every seeding distance is NaN and stays NaN,
    // so every later seed is the last sample row — on both sides alike.
    let (n, dim) = (300, 4);
    let mut data = rows(Rows::Clustered, n, dim, 21);
    for row in data.chunks_exact_mut(dim).step_by(3) {
        row[1] = f32::NAN;
    }
    for seed in 0..6 {
        assert_pipeline_equivalent(&data, dim, 8, seed, &format!("NaN rows, seed {seed}"));
    }
}

#[test]
fn assign_nearest_is_the_first_strict_minimum() {
    // Ties (grid rows scored against grid centroids, some of them equal),
    // rows that are NaN in one or in every coordinate, and no centroids.
    let dim = 3;
    let mut points = rows(Rows::Grid, 2_100, dim, 5);
    points[7 * dim + 1] = f32::NAN;
    points[2_050 * dim..2_051 * dim].fill(f32::NAN);
    let mut centroids = rows(Rows::Grid, 40, dim, 6);
    centroids.extend_from_within(..10 * dim);
    centroids[3 * dim] = f32::NAN;
    let mut got = vec![u32::MAX; 2_100];
    assign_nearest(&points, &centroids, dim, &mut got);
    for (i, point) in points.chunks_exact(dim).enumerate() {
        assert_eq!(got[i] as usize, nearest(point, &centroids), "row {i}");
    }
    assert_eq!((got[7], got[2_050]), (0, 0), "NaN rows assign to 0");
    assign_nearest(&points, &[], dim, &mut got);
    assert!(got.iter().all(|&c| c == 0), "no centroids: 0");
    assign_nearest(&[], &centroids, dim, &mut []);
}

/// `assign_pruned` from `prev` equals `assign_nearest`, returning the
/// assignment.
fn assert_pruned_is_nearest(
    points: &[f32],
    centroids: &[f32],
    dim: usize,
    prev: &[u32],
) -> Vec<u32> {
    let mut want = vec![u32::MAX; prev.len()];
    assign_nearest(points, centroids, dim, &mut want);
    let mut got = prev.to_vec();
    assign_pruned(points, centroids, dim, &mut got);
    assert_eq!(got, want, "pruned from {prev:?}");
    want
}

#[test]
fn pruned_assignment_keeps_constructed_ties() {
    // Four copies of `x`, all previously at centroid 1 (`a`); centroid 0
    // (`j < a`) is the one the lemma must not rule out.
    let dim = 48;
    let mut r = rng(9);
    let prev = [1u32; 4];
    let run = |x: &[f32], c_j: &[f32], c_a: &[f32]| {
        let points = x.repeat(4);
        let centroids = [c_j, c_a].concat();
        assert_pruned_is_nearest(&points, &centroids, x.len(), &prev)
    };

    // Collinear: c_a = x + v, c_j = x − v exactly, so d(c_a, c_j) is
    // 2·d(x, c_a) and the two tie; the earlier centroid wins.
    let x: Vec<f32> = (0..dim).map(|_| r.gen_range(0..8u32) as f32).collect();
    let v: Vec<f32> = (0..dim).map(|_| r.gen_range(0..5u32) as f32 - 2.0).collect();
    let c_a: Vec<f32> = x.iter().zip(&v).map(|(x, v)| x + v).collect();
    let c_j: Vec<f32> = x.iter().zip(&v).map(|(x, v)| x - v).collect();
    assert_eq!(l2_sq(&c_a, &c_j), 4.0 * l2_sq(&x, &c_a));
    assert_eq!(run(&x, &c_j, &c_a), [0; 4], "exact collinear tie");

    // A duplicate of the previous centroid, which the row equals: every
    // distance is 0, both reaches are 0, and the earlier centroid wins.
    assert_eq!(run(&c_a, &c_a, &c_a), [0; 4], "duplicate centroid");

    // Rounded collinear triples where the computed pair distance exceeds
    // 4× the computed reach although `j` still ties or beats `a`: only the
    // slack keeps `j` listed.
    let mut inverted = 0;
    for _ in 0..2_000 {
        let x: Vec<f32> = (0..dim).map(|_| r.gen::<f32>() * 4.0).collect();
        let v: Vec<f32> = (0..dim).map(|_| r.gen::<f32>() - 0.5).collect();
        let c_a: Vec<f32> = x.iter().zip(&v).map(|(x, v)| x + v).collect();
        let c_j: Vec<f32> = x.iter().zip(&v).map(|(x, v)| x - v).collect();
        let (own, other) = (l2_sq(&x, &c_a), l2_sq(&x, &c_j));
        if l2_sq(&c_a, &c_j) > 4.0 * own && other <= own {
            inverted += 1;
            assert_eq!(run(&x, &c_j, &c_a), [0; 4], "rounded collinear tie");
        }
    }
    assert!(inverted > 0, "no rounding-inverted triple found");

    // Underflow: x is within 2⁻⁷⁵ of both centroids, so both squared
    // distances round to 0 (a tie), while the pair distance does not.
    let s = 0.9 * 2f32.powi(-75);
    let (x, c_a, c_j) = ([0.0f32], [s], [-s]);
    assert_eq!((l2_sq(&x, &c_a), l2_sq(&x, &c_j)), (0.0, 0.0));
    assert!(l2_sq(&c_a, &c_j) > 0.0 && l2_sq(&c_a, &c_j) < TINY);
    assert_eq!(run(&x, &c_j, &c_a), [0; 4], "underflowed tie");

    // A NaN row kept at `a` by an earlier pass: no distance is below `+∞`,
    // so it belongs to centroid 0.
    assert_eq!(run(&[f32::NAN], &c_j, &c_a), [0; 4], "NaN row");
}

#[test]
fn pruned_passes_score_a_fraction_of_the_rows() {
    // The benchmark's shape: a segment sampled whole, so passes 2–6 and
    // the list pass are pruned. Seeding is not counted, and pass 1 is
    // seeding's argmin, so every counted row belongs to those passes.
    let (n, dim, k) = (2_048, 48, 128);
    let data = rows(Rows::Clustered, n, dim, 3);
    let scored = || ROWS_SCORED.with(|c| c.get());
    let mut stats = BuildStats::default();
    let before = scored();
    KMeans::train(&data, dim, k, 11, &mut stats);
    let lloyd = scored() - before;
    let literal = (LLOYD_ITERS - 1) * n * k;
    assert!(lloyd > 0 && lloyd * 4 < literal as u64, "passes 2–6 scored {lloyd} of {literal}");
    assert_eq!(stats.train_dims, ((1 + LLOYD_ITERS) * n * k * dim) as u64, "train_dims formula");

    let before = scored();
    IvfLists::build(&data, dim, k, 11, &mut BuildStats::default());
    let list = scored() - before - lloyd;
    assert!(list > 0 && list * 4 < (n * k) as u64, "list pass scored {list} of {}", n * k);
}

#[test]
fn empty_segments_build_empty_lists() {
    let mut stats = BuildStats::default();
    let ivf = IvfLists::build(&[], 4, 8, 0, &mut stats);
    assert!(ivf.offsets == [0] && ivf.is_empty());
    assert!(ivf.quantizer.k == 0 && stats == BuildStats::default());
    let pq = ProductQuantizer::train(&[], 4, 2, 4, 0, &mut stats).unwrap();
    pq.encode(&[], &mut []);
}

#[test]
fn family_builds_equal_the_literal_builds_on_scaled_glove_segments() {
    let ds = DatasetSpec::scaled(DatasetKind::Glove).generate();
    let dim = ds.dim();
    // Three segments of the collection (small ones: the literal loops run
    // unoptimised under `cargo test`): one whose sample is strided, one
    // that is sampled whole, and a sliver with fewer rows than `nlist`.
    for (from, to, nlist, m, nbits) in
        [(0, 1_100, 16, 8, 6), (1_100, 1_500, 128, 16, 4), (7_950, 8_000, 128, 12, 8)]
    {
        let segment = &ds.raw()[from * dim..to * dim];
        let params = IndexParams { nlist, m, nbits, ..Default::default() }.sanitized(dim, 10);
        let sp = SearchParams::from_params(&params, 10);
        for kind in [
            IndexType::IvfFlat,
            IndexType::IvfSq8,
            IndexType::IvfPq,
            IndexType::Scann,
            IndexType::AutoIndex,
        ] {
            let tag = format!("{kind} rows {from}..{to}");
            let (new, new_stats) = AnnIndex::build(kind, segment, dim, &params, 42).unwrap();
            let (old, old_stats) = build(kind, segment, dim, &params, 42).unwrap();
            assert_eq!(new_stats, old_stats, "{tag}: stats");
            assert_eq!(new.memory_bytes(), old.memory_bytes(), "{tag}: memory_bytes");
            assert_eq!(new.len(), old.len(), "{tag}: len");
            for qi in 0..20 {
                let (mut new_cost, mut old_cost) = (SearchCost::default(), SearchCost::default());
                let got = new.search(ds.query(qi), &sp, &mut new_cost);
                let want = old.search(ds.query(qi), &sp, &mut old_cost);
                let hits = |r: &[vecdata::Neighbor]| {
                    r.iter().map(|n| (n.id, n.distance.to_bits())).collect::<Vec<_>>()
                };
                assert_eq!(hits(&got), hits(&want), "{tag}: query {qi}");
                assert_eq!(new_cost, old_cost, "{tag}: query {qi} cost");
            }
        }
    }
}
