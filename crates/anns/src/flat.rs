//! FLAT: exhaustive exact search (the paper's recall upper bound).

use crate::cost::{BuildStats, SearchCost};
use crate::index::VectorIndex;
use crate::params::SearchParams;
use std::cell::RefCell;
use vecdata::ground_truth::top_k_of_scan;
use vecdata::kernel;
use vecdata::Neighbor;

thread_local! {
    /// Scores of one segment scan; grows to the largest segment the thread
    /// has searched (four bytes a row) and is reused.
    static SCORES: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Brute-force index: stores the raw vectors and scans all of them.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dim: usize,
    data: Vec<f32>,
}

impl FlatIndex {
    /// "Building" FLAT is a copy; Milvus likewise stores raw segments.
    pub fn build(vectors: &[f32], dim: usize, stats: &mut BuildStats) -> FlatIndex {
        stats.train_dims += vectors.len() as u64; // ingest copy cost
        FlatIndex { dim, data: vectors.to_vec() }
    }

    /// What one search charges: every row scored and pushed, nothing for
    /// an empty index. The one definition of the charge, also for a replay
    /// that reads the answer from [`vecdata::Dataset::exact_l2`] instead of
    /// searching.
    pub fn charge_search(&self, cost: &mut SearchCost) {
        if !self.data.is_empty() {
            cost.f32_dims += self.data.len() as u64;
            cost.heap_pushes += self.len() as u64;
        }
    }
}

impl VectorIndex for FlatIndex {
    fn search(&self, query: &[f32], sp: &SearchParams, cost: &mut SearchCost) -> Vec<Neighbor> {
        // Rows are scored in id order, so the whole segment is scored first
        // and `top_k_of_scan` selects (ARCHITECTURE.md, "What `TopK`
        // keeps"); the bulk cost equals one charge per row.
        if self.data.is_empty() {
            return Vec::new();
        }
        self.charge_search(cost);
        SCORES.with(|scores| {
            let mut scores = scores.borrow_mut();
            kernel::active().l2_sq_block(query, &self.data, self.dim, &mut scores);
            top_k_of_scan(0, &scores, sp.top_k)
        })
    }

    fn memory_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    fn len(&self) -> usize {
        self.data.len() / self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::IndexParams;

    #[test]
    fn flat_is_exact() {
        // 1-D points 0..10; query at 3.2 → nearest are 3, 4 (order matters).
        let data: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let mut stats = BuildStats::default();
        let idx = FlatIndex::build(&data, 1, &mut stats);
        let sp = SearchParams::from_params(&IndexParams::default(), 2);
        let mut cost = SearchCost::default();
        let res = idx.search(&[3.2], &sp, &mut cost);
        assert_eq!(res[0].id, 3);
        assert_eq!(res[1].id, 4);
        assert_eq!(cost.f32_dims, 10);
    }

    #[test]
    fn zero_rows_return_nothing_without_scoring() {
        // `dim` 0 would divide by zero in `len()` and fail the block
        // kernel's shape check: neither is reached.
        let mut stats = BuildStats::default();
        let sp = SearchParams::from_params(&IndexParams::default(), 3);
        for dim in [0, 4] {
            let idx = FlatIndex::build(&[], dim, &mut stats);
            let mut cost = SearchCost::default();
            assert!(idx.search(&[0.0; 4][..dim], &sp, &mut cost).is_empty());
            assert!(cost.is_zero());
        }
    }

    #[test]
    fn memory_is_raw_size() {
        let data = vec![0.0f32; 32 * 4];
        let mut stats = BuildStats::default();
        let idx = FlatIndex::build(&data, 4, &mut stats);
        assert_eq!(idx.memory_bytes(), (32 * 4 * 4) as u64);
        assert_eq!(idx.len(), 32);
    }
}
