//! Test-only oracle for the selection primitives: the `BinaryHeap<Neighbor>`
//! selector that [`super::TopK`] replaced, verbatim — a `pop` + `push`
//! through [`Neighbor::cmp`] per replacement, a comparison sort at the end —
//! and the panels that hold the key-ordered [`super::TopK`],
//! [`super::top_k_of_scan`] and the early-exit merge of sorted partial
//! results to it: kept ids, distance bits, order, `threshold()`, `len()` and
//! every `push` return value.
//!
//! It may be retired when the selectors stop promising the old kept set:
//! the day a history-changing change to admission (another tie rule, NaN
//! handling, or a deliberately approximate selection) is accepted, the
//! pinned digests move with it and this heap pins nothing any more. Until
//! then every change to `TopK`, `top_k_of_scan` or a merge loop that stops
//! early is checked against it.

use super::{top_k_of_scan, Neighbor};
use proptest::panel::SPECIAL_F32;
use proptest::prelude::*;
use proptest::TestRng;

// ---------------------------------------------------------------------------
// The literal selector
// ---------------------------------------------------------------------------

/// A bounded max-heap that keeps the `k` smallest-distance neighbors seen.
#[derive(Debug, Clone)]
pub(crate) struct TopK {
    k: usize,
    // Max-heap on distance: the root is the *worst* of the current top-k.
    heap: std::collections::BinaryHeap<Neighbor>,
}

impl TopK {
    /// Create a selector for the `k` nearest neighbors (`k >= 1`).
    pub(crate) fn new(k: usize) -> Self {
        TopK { k: k.max(1), heap: std::collections::BinaryHeap::with_capacity(k + 1) }
    }

    /// Offer a candidate; keeps only the k smallest distances.
    #[inline]
    pub(crate) fn push(&mut self, id: u32, distance: f32) {
        if self.heap.len() < self.k {
            self.heap.push(Neighbor { id, distance });
        } else if let Some(worst) = self.heap.peek() {
            if distance < worst.distance {
                self.heap.pop();
                self.heap.push(Neighbor { id, distance });
            }
        }
    }

    /// Current worst distance among the kept neighbors (∞ until full).
    #[inline]
    pub(crate) fn threshold(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap.peek().map_or(f32::INFINITY, |n| n.distance)
        }
    }

    /// Number of neighbors currently held.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no candidate has been offered yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Extract neighbors sorted by ascending distance.
    pub(crate) fn into_sorted(self) -> Vec<Neighbor> {
        let mut v = self.heap.into_vec();
        v.sort_unstable();
        v
    }
}

// ---------------------------------------------------------------------------
// The panel
// ---------------------------------------------------------------------------

/// `(id, distance bits)` per neighbor: `-0.0` is not `+0.0` here and one
/// NaN is not another.
fn bits(neighbors: &[Neighbor]) -> Vec<(u32, u32)> {
    neighbors.iter().map(|n| (n.id, n.distance.to_bits())).collect()
}

/// Where a drawn sequence may hold NaNs, relative to the first `k` offers.
#[derive(Debug, Clone, Copy)]
enum Nans {
    Nowhere,
    /// At least one among the first `k` (the selector freezes once full).
    InTheFirstK,
    /// None among the first `k`, some later (all of them rejected).
    OnlyAfter,
    Everywhere,
}

const NANS: [Nans; 4] = [Nans::Nowhere, Nans::InTheFirstK, Nans::OnlyAfter, Nans::Everywhere];

/// `n` distances from a small pool, so that they tie: values of either
/// sign on no special grid, and — `special_16ths` out of 16 — one of
/// `±0.0`, `±∞`, `±NaN`, with the NaNs placed as `nans` says.
fn distances(n: usize, k: usize, nans: Nans, special_16ths: u64, rng: &mut TestRng) -> Vec<f32> {
    let pool: Vec<f32> =
        (0..1 + rng.below(6)).map(|_| (rng.unit_f64() * 4.0 - 1.5) as f32).collect();
    let real = |rng: &mut TestRng| pool[rng.below(pool.len() as u64) as usize];
    let mut out: Vec<f32> = (0..n)
        .map(|j| {
            let d = if rng.below(16) < special_16ths {
                SPECIAL_F32[rng.below(SPECIAL_F32.len() as u64) as usize]
            } else {
                real(rng)
            };
            let allowed = match nans {
                Nans::Nowhere => false,
                Nans::InTheFirstK | Nans::Everywhere => true,
                Nans::OnlyAfter => j >= k,
            };
            if d.is_nan() && !allowed {
                real(rng)
            } else {
                d
            }
        })
        .collect();
    match nans {
        Nans::InTheFirstK if n > 0 => {
            let at = rng.below(k.min(n) as u64) as usize;
            out[at] = if rng.below(2) == 0 { f32::NAN } else { -f32::NAN };
        }
        Nans::OnlyAfter if n > k => {
            let at = k + rng.below((n - k) as u64) as usize;
            out[at] = f32::NAN;
        }
        _ => {}
    }
    out
}

/// The `k`s worth asking of `n` offers.
fn panel_k(kind: usize, n: usize) -> usize {
    [1, 2, n.saturating_sub(1), n, n + 1, 100][kind]
}

/// Distinct ids for `n` offers: ascending from `base`, shuffled, or
/// descending (with the tied pool above: duplicated distances whose later
/// copies carry the *smaller* id — what a selection would get wrong).
fn ids(order: usize, base: u32, n: usize, rng: &mut TestRng) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n as u32).map(|j| base + j).collect();
    match order {
        0 => {}
        1 => {
            for i in (1..n).rev() {
                ids.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        _ => ids.reverse(),
    }
    ids
}

/// Push `offers` into both selectors, comparing after every push: whether
/// it was kept, `threshold()` bits, `len()`, `is_empty()`; then the sorted
/// output.
fn assert_pushes_match(k: usize, offers: &[(u32, f32)]) -> Result<(), String> {
    let (mut new, mut old) = (super::TopK::new(k), TopK::new(k));
    prop_assert_eq!(new.is_empty(), old.is_empty());
    for (step, &(id, d)) in offers.iter().enumerate() {
        let kept = new.push(id, d);
        old.push(id, d);
        // Ids are distinct, so the literal heap kept the offer exactly when
        // it holds the id now.
        let held = old.clone().into_sorted().iter().any(|n| n.id == id);
        prop_assert_eq!((step, kept), (step, held));
        prop_assert_eq!((step, new.threshold().to_bits()), (step, old.threshold().to_bits()));
        prop_assert_eq!(new.len(), old.len());
        prop_assert_eq!(new.is_empty(), old.is_empty());
    }
    prop_assert_eq!(bits(&new.into_sorted()), bits(&old.into_sorted()));
    Ok(())
}

/// Larger panels where the optimised build makes them cheap (the CI
/// kernel matrix runs release), as in `anns::kmeans::oracle`.
const CASES: u32 = if cfg!(debug_assertions) { 512 } else { 4096 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn key_ordered_topk_equals_the_binary_heap_on_arbitrary_pushes(
        seed in 0u64..u64::MAX,
        n in 0usize..48,
        k_kind in 0usize..6,
        order in 0usize..3,
        nans in 0usize..4,
        special_16ths in 0u64..9,
    ) {
        let mut rng = TestRng::from_seed(seed);
        let k = panel_k(k_kind, n);
        let d = distances(n, k, NANS[nans], special_16ths, &mut rng);
        let base = [0, 7, u32::MAX - n as u32][rng.below(3) as usize];
        let offers: Vec<(u32, f32)> = ids(order, base, n, &mut rng).into_iter().zip(d).collect();
        assert_pushes_match(k, &offers)?;
    }

    #[test]
    fn selection_of_an_ascending_scan_equals_pushing_every_row(
        seed in 0u64..u64::MAX,
        n in 0usize..260,
        k_kind in 0usize..6,
        nans in 0usize..4,
        special_16ths in 0u64..9,
    ) {
        let mut rng = TestRng::from_seed(seed);
        let k = panel_k(k_kind, n);
        let scores = distances(n, k, NANS[nans], special_16ths, &mut rng);
        let base = [0, 360, u32::MAX - n as u32][rng.below(3) as usize];
        let mut old = TopK::new(k);
        for (j, &d) in scores.iter().enumerate() {
            old.push(base + j as u32, d);
        }
        prop_assert_eq!(bits(&top_k_of_scan(base, &scores, k)), bits(&old.into_sorted()));
    }

    /// What `vdms` does with per-segment partial results: each segment's
    /// hits arrive in ascending `Neighbor::cmp` order, and feeding stops at
    /// the segment's first rejected hit. Unsorted rows (a growing tail)
    /// follow and are all pushed.
    #[test]
    fn a_merge_that_stops_at_the_first_rejected_hit_equals_pushing_them_all(
        seed in 0u64..u64::MAX,
        segments in 0usize..7,
        rows in 0usize..40,
        k_kind in 0usize..6,
        nans in 0usize..4,
        special_16ths in 0u64..9,
    ) {
        let mut rng = TestRng::from_seed(seed);
        let k = panel_k(k_kind, rows);
        let (mut new, mut old) = (super::TopK::new(k), TopK::new(k));
        let mut start = 0u32;
        for s in 0..segments {
            let n = rng.below(rows as u64 + 1) as usize;
            // One segment in four holds nothing but NaNs.
            let scores = if s % 4 == 3 {
                vec![f32::NAN; n]
            } else {
                distances(n, k, NANS[nans], special_16ths, &mut rng)
            };
            let hits = top_k_of_scan(start, &scores, k);
            for hit in &hits {
                if !new.push(hit.id, hit.distance) {
                    break;
                }
            }
            for hit in &hits {
                old.push(hit.id, hit.distance);
            }
            start += n as u32;
        }
        let tail = distances(rows / 2, k, NANS[nans], special_16ths, &mut rng);
        for (j, &d) in tail.iter().enumerate() {
            new.push(start + j as u32, d);
            old.push(start + j as u32, d);
        }
        prop_assert_eq!(new.threshold().to_bits(), old.threshold().to_bits());
        prop_assert_eq!(bits(&new.into_sorted()), bits(&old.into_sorted()));
    }
}

#[test]
fn the_key_orders_every_pair_as_neighbor_cmp_does() {
    let mut values: Vec<f32> = SPECIAL_F32.to_vec();
    values.extend([1.0, -1.0, f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 1e-45, -1e-45]);
    values.extend([f32::MAX, f32::MIN, 0.37, -0.37, f32::from_bits(0x7FC0_0001)]);
    for &a in &values {
        for &b in &values {
            for (ia, ib) in [(0, 0), (0, 1), (1, 0), (u32::MAX, 0), (3, u32::MAX)] {
                let by_cmp =
                    Neighbor { id: ia, distance: a }.cmp(&Neighbor { id: ib, distance: b });
                let by_key = super::key(ia, a).cmp(&super::key(ib, b));
                assert_eq!(by_key, by_cmp, "({ia}, {a:?}) against ({ib}, {b:?})");
            }
        }
    }
}

#[test]
fn a_nan_admitted_while_filling_freezes_the_selector() {
    let offers =
        [(0, 2.0), (1, f32::NAN), (2, 1.0), (3, 0.5), (4, f32::NEG_INFINITY), (5, f32::NAN)];
    assert_pushes_match(3, &offers).unwrap();
    let mut top = super::TopK::new(3);
    let kept: Vec<bool> = offers.iter().map(|&(id, d)| top.push(id, d)).collect();
    assert_eq!(kept, [true, true, true, false, false, false]);
    assert!(top.threshold().is_nan());
}

#[test]
fn a_nan_after_the_first_k_still_selects() {
    // The guard reads the first `k` scores only: a later NaN is rejected by
    // the pushes and ranks last in the selection, so the scan keeps the
    // cheap path — seen here by the thread's key buffer having been filled.
    let mut scores: Vec<f32> = (0..50).map(|j| ((j * 37) % 50) as f32).collect();
    scores[20] = f32::NAN;
    let got = top_k_of_scan(100, &scores, 5);
    let mut old = TopK::new(5);
    for (j, &d) in scores.iter().enumerate() {
        old.push(100 + j as u32, d);
    }
    assert_eq!(bits(&got), bits(&old.into_sorted()));
    assert_eq!(super::KEYS.with(|keys| keys.borrow().len()), scores.len());
}
