//! Exact top-K ground truth for recall measurement.
//!
//! Recall in the paper is "the ratio of correctly retrieved similar vectors
//! to the total actual similar vectors" for top-100 queries; we compute the
//! exact neighbor sets once per dataset and reuse them across thousands of
//! tuner evaluations.
//!
//! # What [`TopK`] keeps
//!
//! Everything until `k` candidates are held; after that a candidate is
//! admitted only when `distance < worst.distance` (a float test, strict),
//! and it evicts the held neighbor that is largest under [`Neighbor::cmp`]
//! — largest `(distance, id)`, `-0.0` and `+0.0` being one distance and
//! every NaN sorting after `+∞`. A NaN admitted while filling is therefore
//! the worst neighbor from then on, and since nothing is `< NaN` the
//! selector is frozen: it keeps what it holds. The threshold never rises.
//!
//! # When selection may replace the pushes
//!
//! [`top_k_of_scan`] scores first and selects afterwards. It is only legal
//! where candidates arrive **by ascending id**. Sketch: with no NaN among
//! the first `k` scores the worst held distance is never NaN, so later NaNs
//! are rejected; a later real candidate has a larger id than everything
//! held, so "`d < worst.distance`" admits it exactly when its
//! `(distance, id)` key is below the worst key (an equal distance would
//! need a smaller id). Each admission evicts the largest key, so the kept
//! set is the `k` smallest keys of the scan — which a partial sort finds
//! without a heap. With ids out of order (IVF lists, SCANN's first stage)
//! a later equal-distance, smaller-id candidate is rejected by the pushes
//! but would win a selection; those callers keep pushing, and a
//! lazy-threshold reservoir would have the same flaw.

use crate::dataset::Dataset;
use crate::distance::{norm, Metric};
use crate::kernel;
use std::cell::RefCell;
use std::cmp::Ordering;

/// One exact nearest neighbor: id plus distance under the dataset metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    pub id: u32,
    pub distance: f32,
}

impl Eq for Neighbor {}

impl Ord for Neighbor {
    fn cmp(&self, other: &Self) -> Ordering {
        // Total order: by distance then id; NaNs sort last so a poisoned
        // distance can never displace a real neighbor.
        match self.distance.partial_cmp(&other.distance) {
            Some(ord) => ord.then(self.id.cmp(&other.id)),
            None => {
                if self.distance.is_nan() && other.distance.is_nan() {
                    self.id.cmp(&other.id)
                } else if self.distance.is_nan() {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
        }
    }
}

impl PartialOrd for Neighbor {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The integer image of [`Neighbor::cmp`]: `key(a) < key(b)` exactly when
/// `a < b`, for every `f32`. The high word ranks the distance (negative
/// floats order backwards by their bits, so they are flipped whole and
/// everything else gets the sign bit; `-0.0` ranks as `+0.0`; every NaN
/// ranks above `+∞`), the low word is the id.
#[inline]
fn key(id: u32, distance: f32) -> u64 {
    let rank = if distance.is_nan() {
        u32::MAX
    } else {
        let bits = if distance == 0.0 { 0 } else { distance.to_bits() };
        if bits >> 31 == 1 {
            !bits
        } else {
            bits | 0x8000_0000
        }
    };
    u64::from(rank) << 32 | u64::from(id)
}

/// A held candidate: its key, and the distance exactly as offered (the key
/// folds signed zeros and NaN payloads, the output must not).
#[derive(Debug, Clone, Copy)]
struct Held {
    key: u64,
    distance: f32,
}

/// Restore the max-heap property below `at`, whose own entry may be too
/// small for its place.
#[inline]
fn sift_down(held: &mut [Held], mut at: usize) {
    let moving = held[at];
    loop {
        let mut child = 2 * at + 1;
        if child >= held.len() {
            break;
        }
        if child + 1 < held.len() && held[child + 1].key > held[child].key {
            child += 1;
        }
        if held[child].key <= moving.key {
            break;
        }
        held[at] = held[child];
        at = child;
    }
    held[at] = moving;
}

/// A bounded selector that keeps the `k` smallest neighbors seen (see the
/// module doc for exactly which).
///
/// This is the k-NN selection primitive shared by the ground-truth scan and
/// every index implementation in the `anns` crate.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    // Unordered while filling; from the moment `k` are held, a max-heap on
    // `key`, so the root is the *worst* of the current top-k.
    held: Vec<Held>,
}

impl TopK {
    /// Create a selector for the `k` nearest neighbors (`k >= 1`).
    pub fn new(k: usize) -> Self {
        let k = k.max(1);
        TopK { k, held: Vec::with_capacity(k) }
    }

    /// Offer a candidate; keeps only the k smallest distances. Returns
    /// whether the candidate was kept (it may still be evicted later).
    #[inline]
    pub fn push(&mut self, id: u32, distance: f32) -> bool {
        let candidate = Held { key: key(id, distance), distance };
        if self.held.len() < self.k {
            self.held.push(candidate);
            if self.held.len() == self.k {
                for at in (0..self.k / 2).rev() {
                    sift_down(&mut self.held, at);
                }
            }
            true
        } else if distance < self.held[0].distance {
            self.held[0] = candidate;
            sift_down(&mut self.held, 0);
            true
        } else {
            false
        }
    }

    /// Current worst distance among the kept neighbors (∞ until full).
    #[inline]
    pub fn threshold(&self) -> f32 {
        if self.held.len() < self.k {
            f32::INFINITY
        } else {
            self.held[0].distance
        }
    }

    /// Number of neighbors currently held.
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// True when no candidate has been offered yet.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// Extract neighbors in ascending [`Neighbor::cmp`] order.
    pub fn into_sorted(self) -> Vec<Neighbor> {
        let mut held = self.held;
        held.sort_unstable_by_key(|h| h.key);
        held.into_iter().map(|h| Neighbor { id: h.key as u32, distance: h.distance }).collect()
    }
}

thread_local! {
    /// Keys of one scan in [`top_k_of_scan`]; grows to the longest scan the
    /// thread has selected from (eight bytes a row) and is reused.
    static KEYS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Scores of one whole-dataset scan in [`exact_top_k`].
    static SCORES: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// What pushing `scores[j]` as id `base_id + j`, for `j = 0, 1, …`, into a
/// fresh [`TopK::new`]`(k)` and sorting keeps — ids, distance bits and
/// order — found by selection where that is legal (module doc): more rows
/// than `k` and no NaN among the first `k` scores. Otherwise it is that
/// loop.
pub fn top_k_of_scan(base_id: u32, scores: &[f32], k: usize) -> Vec<Neighbor> {
    let k = k.max(1);
    if scores.len() <= k || scores[..k].iter().any(|d| d.is_nan()) {
        let mut top = TopK::new(k);
        for (j, &d) in scores.iter().enumerate() {
            top.push(base_id + j as u32, d);
        }
        return top.into_sorted();
    }
    KEYS.with(|keys| {
        let mut keys = keys.borrow_mut();
        keys.clear();
        keys.extend(scores.iter().enumerate().map(|(j, &d)| key(base_id + j as u32, d)));
        keys.select_nth_unstable(k - 1);
        keys[..k].sort_unstable();
        keys[..k]
            .iter()
            .map(|&key| {
                let id = key as u32;
                Neighbor { id, distance: scores[(id - base_id) as usize] }
            })
            .collect()
    })
}

/// Exact top-k neighbors of `query` among all base vectors.
///
/// Scores the contiguous row-major base data in one call of the dispatched
/// kernel's block API into a buffer the thread reuses, then selects with
/// [`top_k_of_scan`]; for norm-consuming metrics the stored per-vector
/// norms are reused and the query norm is computed once. Distances (and
/// therefore results) are bit-identical to pushing `metric.distance(query,
/// v)` row by row.
pub fn exact_top_k(dataset: &Dataset, query: &[f32], k: usize) -> Vec<Neighbor> {
    if dataset.is_empty() {
        return Vec::new();
    }
    SCORES.with(|scores| {
        let mut scores = scores.borrow_mut();
        let kern = kernel::active();
        match dataset.metric {
            Metric::L2 => kern.l2_sq_block(query, dataset.raw(), dataset.dim(), &mut scores),
            Metric::InnerProduct => {
                kern.dot_block(query, dataset.raw(), dataset.dim(), &mut scores);
                for d in scores.iter_mut() {
                    *d = -*d;
                }
            }
            Metric::Angular => {
                kern.dot_block(query, dataset.raw(), dataset.dim(), &mut scores);
                let nq = norm(query);
                for (j, d) in scores.iter_mut().enumerate() {
                    let nv = dataset.stored_norm(j);
                    *d = if nq == 0.0 || nv == 0.0 { 1.0 } else { 1.0 - *d / (nq * nv) };
                }
            }
        }
        top_k_of_scan(0, &scores, k)
    })
}

/// Every query's exact squared-L2 top-`k` ids, the memo behind
/// [`Dataset::exact_l2`]: for query `qi`, the ids of
/// [`top_k_of_scan`]`(0, l2_sq_block(query, all rows), k)` — what pushing
/// every row in id order into a [`TopK::new`]`(k)` keeps — in ascending
/// distance, `min(k, n)` of them. Held flat, four bytes an id.
#[derive(Debug, Clone)]
pub struct ExactL2 {
    k: usize,
    stride: usize,
    ids: Vec<u32>,
}

impl ExactL2 {
    /// Score every query against every row through the dispatched block
    /// kernel and select; `None` at the first NaN score. `k >= 1`.
    pub(crate) fn scan(dataset: &Dataset, k: usize) -> Option<ExactL2> {
        let stride = k.min(dataset.len());
        let mut ids = Vec::with_capacity(dataset.n_queries() * stride);
        if stride > 0 {
            let kern = kernel::active();
            let mut scores = Vec::with_capacity(dataset.len());
            for qi in 0..dataset.n_queries() {
                kern.l2_sq_block(dataset.query(qi), dataset.raw(), dataset.dim(), &mut scores);
                if scores.iter().any(|d| d.is_nan()) {
                    return None;
                }
                ids.extend(top_k_of_scan(0, &scores, k).into_iter().map(|n| n.id));
            }
        }
        Some(ExactL2 { k, stride, ids })
    }

    /// The `k` the ids were selected for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Query `qi`'s ids, nearest first.
    pub fn query(&self, qi: usize) -> &[u32] {
        &self.ids[qi * self.stride..(qi + 1) * self.stride]
    }
}

/// Exact top-k neighbor ids for every query in the dataset.
///
/// Returns one `Vec<u32>` (sorted by ascending distance) per query.
pub fn ground_truth(dataset: &Dataset, k: usize) -> Vec<Vec<u32>> {
    (0..dataset.n_queries())
        .map(|qi| exact_top_k(dataset, dataset.query(qi), k).into_iter().map(|n| n.id).collect())
        .collect()
}

/// Recall@k of a retrieved id set against the exact ids.
pub fn recall(retrieved: &[u32], exact: &[u32]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let mut sorted = exact.to_vec();
    sorted.sort_unstable();
    let hits = retrieved.iter().filter(|id| sorted.binary_search(id).is_ok()).count();
    hits as f64 / exact.len() as f64
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetKind, DatasetSpec};

    #[test]
    fn topk_keeps_k_smallest() {
        let mut t = TopK::new(3);
        for (i, d) in [5.0, 1.0, 4.0, 0.5, 9.0, 2.0].iter().enumerate() {
            t.push(i as u32, *d);
        }
        let out = t.into_sorted();
        let ids: Vec<u32> = out.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 1, 5]);
    }

    #[test]
    fn topk_threshold_tracks_worst() {
        let mut t = TopK::new(2);
        assert!(t.threshold().is_infinite());
        t.push(0, 3.0);
        assert!(t.threshold().is_infinite());
        t.push(1, 1.0);
        assert_eq!(t.threshold(), 3.0);
        t.push(2, 0.5);
        assert_eq!(t.threshold(), 1.0);
    }

    #[test]
    fn topk_handles_fewer_candidates_than_k() {
        let mut t = TopK::new(10);
        t.push(7, 1.5);
        let out = t.into_sorted();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, 7);
    }

    #[test]
    fn topk_nan_never_displaces_real() {
        let mut t = TopK::new(2);
        t.push(0, 1.0);
        t.push(1, 2.0);
        t.push(2, f32::NAN);
        let ids: Vec<u32> = t.into_sorted().iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn topk_of_zero_behaves_as_one() {
        let mut t = TopK::new(0);
        assert!(t.push(4, 2.0));
        assert_eq!(t.threshold(), 2.0);
        assert!(!t.push(5, 2.0));
        assert!(t.push(6, 1.0));
        assert_eq!(t.into_sorted(), vec![Neighbor { id: 6, distance: 1.0 }]);
        assert_eq!(top_k_of_scan(4, &[2.0, 2.0, 1.0], 0), vec![Neighbor { id: 6, distance: 1.0 }]);
    }

    #[test]
    fn an_empty_scan_selects_nothing() {
        assert!(top_k_of_scan(0, &[], 10).is_empty());
        assert!(top_k_of_scan(9, &[], 0).is_empty());
        KEYS.with(|keys| assert_eq!(keys.borrow().capacity(), 0, "no buffer was touched"));
    }

    #[test]
    fn ground_truth_self_query_finds_itself() {
        // A query equal to a base vector must have that vector as NN.
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let q = ds.vector(17).to_vec();
        let nn = exact_top_k(&ds, &q, 1);
        assert_eq!(nn[0].id, 17);
        assert!(nn[0].distance.abs() < 1e-5);
    }

    #[test]
    fn ground_truth_is_sorted_by_distance() {
        let ds = DatasetSpec::tiny(DatasetKind::KeywordMatch).generate();
        let nn = exact_top_k(&ds, ds.query(0), 10);
        for w in nn.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }

    #[test]
    fn recall_bounds() {
        assert_eq!(recall(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(recall(&[4, 5, 6], &[1, 2, 3]), 0.0);
        assert!((recall(&[1, 9], &[1, 2]) - 0.5).abs() < 1e-12);
        assert_eq!(recall(&[], &[]), 1.0);
        // A retrieved duplicate counts each time; the exact list is a set.
        assert_eq!(recall(&[2, 2, 7], &[1, 2]), 1.0);
        assert_eq!(recall(&[2], &[2, 2]), 0.5);
    }

    #[test]
    fn block_scan_matches_per_vector_loop_bitwise() {
        // The block-scored scan must reproduce the legacy per-vector
        // `metric.distance` loop exactly, for every metric.
        let mut ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        for metric in [Metric::Angular, Metric::L2, Metric::InnerProduct] {
            ds.metric = metric;
            for qi in 0..3 {
                let q = ds.query(qi);
                let fast = exact_top_k(&ds, q, 7);
                let mut slow = TopK::new(7);
                for (i, v) in ds.iter().enumerate() {
                    slow.push(i as u32, ds.metric.distance(q, v));
                }
                let slow = slow.into_sorted();
                assert_eq!(fast.len(), slow.len());
                for (a, b) in fast.iter().zip(&slow) {
                    assert_eq!(a.id, b.id, "{metric:?}");
                    assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{metric:?}");
                }
            }
        }
    }

    #[test]
    fn the_exact_l2_memo_keeps_what_one_push_stream_keeps() {
        // Duplicate rows make ties that only the id breaks.
        let spec = DatasetSpec::tiny(DatasetKind::Glove);
        let base = spec.generate();
        let mut rows = base.raw().to_vec();
        rows.copy_within(0..spec.dim * 50, spec.dim * 300);
        let queries = (0..spec.n_queries).flat_map(|qi| base.query(qi).to_vec()).collect();
        let ds = Dataset::from_rows(spec, rows, queries);
        for k in [0, 1, 10, 599, 600, 700] {
            let fresh = ds.clone();
            let memo = fresh.exact_l2(k).expect("finite rows");
            assert_eq!(memo.k(), k.max(1));
            for qi in 0..ds.n_queries() {
                let mut pushed = TopK::new(k);
                for (i, v) in ds.iter().enumerate() {
                    pushed.push(i as u32, crate::distance::l2_sq(ds.query(qi), v));
                }
                let pushed: Vec<u32> = pushed.into_sorted().iter().map(|n| n.id).collect();
                assert_eq!(memo.query(qi), pushed, "k {k}, query {qi}");
            }
            assert!(fresh.exact_l2(k.max(1) + 1).is_none(), "one `k` is held");
        }
    }

    #[test]
    fn the_exact_l2_memo_declines_a_nan_score() {
        let spec = DatasetSpec { n_queries: 3, ..DatasetSpec::tiny(DatasetKind::Glove) };
        let base = spec.generate();
        let mut rows = base.raw().to_vec();
        rows[599 * spec.dim] = f32::NAN;
        let queries = (0..3).flat_map(|qi| base.query(qi).to_vec()).collect();
        assert!(Dataset::from_rows(spec, rows, queries).exact_l2(10).is_none());
        let empty = DatasetSpec { n: 0, ..spec };
        let none = Dataset::from_rows(empty, Vec::new(), base.raw()[..3 * spec.dim].to_vec());
        assert!(none.exact_l2(10).unwrap().query(2).is_empty());
    }

    #[test]
    fn ground_truth_shape() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let gt = ground_truth(&ds, 5);
        assert_eq!(gt.len(), ds.n_queries());
        assert!(gt.iter().all(|g| g.len() == 5));
    }
}
