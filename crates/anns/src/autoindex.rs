//! AUTOINDEX: Milvus' "no knobs" option.
//!
//! Milvus' AUTOINDEX picks an index automatically and hides its parameters
//! (Table I lists them as N/A). On CPU deployments AUTOINDEX favors
//! quantization-based indexes for ingest/build efficiency; we mirror that
//! with an IVF_SQ8 whose `nlist`/`nprobe` follow the usual `~4·√n`
//! heuristic. Search parameters are fixed internally — the tuner can select
//! AUTOINDEX but cannot tune it, exactly as in the paper. This is also what
//! gives the paper's `Default` baseline its recall headroom (Table IV):
//! heuristic quantized defaults leave recall on the table that tuned
//! configurations recover.

use crate::cost::{BuildStats, SearchCost};
use crate::index::{BuildError, VectorIndex};
use crate::ivf_sq8::IvfSq8Index;
use crate::params::{IndexParams, SearchParams};
use vecdata::Neighbor;

/// The heuristic self-configured index.
#[derive(Debug, Clone)]
pub struct AutoIndexIndex {
    inner: IvfSq8Index,
    /// Fixed internal nprobe used regardless of requested search params.
    nprobe: usize,
}

impl AutoIndexIndex {
    pub fn build(
        vectors: &[f32],
        dim: usize,
        seed: u64,
        stats: &mut BuildStats,
    ) -> Result<AutoIndexIndex, BuildError> {
        let (nlist, nprobe) = Self::heuristic(vectors.len() / dim.max(1));
        let params = IndexParams { nlist, ..Default::default() };
        let inner = IvfSq8Index::build(vectors, dim, &params, seed, stats)?;
        Ok(AutoIndexIndex { inner, nprobe })
    }

    /// `(nlist, nprobe)` for `n` vectors: nlist ≈ 4·√n (the rule of thumb in
    /// the Milvus/FAISS docs), probing a small fixed share of the lists.
    pub(crate) fn heuristic(n: usize) -> (usize, usize) {
        let nlist = ((4.0 * (n as f64).sqrt()) as usize).clamp(16, 1024);
        (nlist, (nlist / 48).max(2))
    }

    /// The index over an already-built inner IVF_SQ8.
    #[cfg(test)]
    pub(crate) fn from_inner(inner: IvfSq8Index, nprobe: usize) -> AutoIndexIndex {
        AutoIndexIndex { inner, nprobe }
    }
}

impl VectorIndex for AutoIndexIndex {
    fn search(&self, query: &[f32], sp: &SearchParams, cost: &mut SearchCost) -> Vec<Neighbor> {
        // AUTOINDEX ignores user search params except top_k.
        let fixed = SearchParams { nprobe: self.nprobe, ef: 0, reorder_k: 0, top_k: sp.top_k };
        self.inner.search(query, &fixed, cost)
    }

    fn memory_bytes(&self) -> u64 {
        self.inner.memory_bytes()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecdata::{DatasetKind, DatasetSpec};

    #[test]
    fn ignores_search_params() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let mut stats = BuildStats::default();
        let idx = AutoIndexIndex::build(ds.raw(), ds.dim(), 3, &mut stats).unwrap();
        let mut c1 = SearchCost::default();
        let mut c2 = SearchCost::default();
        let r1: Vec<u32> = idx
            .search(
                ds.query(0),
                &SearchParams { nprobe: 1, ef: 16, reorder_k: 1, top_k: 10 },
                &mut c1,
            )
            .iter()
            .map(|n| n.id)
            .collect();
        let r2: Vec<u32> = idx
            .search(
                ds.query(0),
                &SearchParams { nprobe: 99, ef: 512, reorder_k: 512, top_k: 10 },
                &mut c2,
            )
            .iter()
            .map(|n| n.id)
            .collect();
        assert_eq!(r1, r2, "AUTOINDEX must not react to tuned search params");
        assert_eq!(c1, c2);
    }

    #[test]
    fn imperfect_but_usable_recall_out_of_the_box() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let mut stats = BuildStats::default();
        let idx = AutoIndexIndex::build(ds.raw(), ds.dim(), 3, &mut stats).unwrap();
        let gt = vecdata::ground_truth(&ds, 10);
        let sp = SearchParams { nprobe: 0, ef: 0, reorder_k: 0, top_k: 10 };
        let mut acc = 0.0;
        for qi in 0..ds.n_queries() {
            let mut cost = SearchCost::default();
            let ids: Vec<u32> =
                idx.search(ds.query(qi), &sp, &mut cost).iter().map(|n| n.id).collect();
            acc += vecdata::ground_truth::recall(&ids, &gt[qi]);
        }
        let recall = acc / ds.n_queries() as f64;
        // Heuristic defaults: decent, not perfect — the headroom the tuner
        // exploits in Table IV.
        assert!(recall > 0.3, "recall {recall}");
    }

    #[test]
    fn heuristic_nlist_scales_with_n() {
        let small = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let mut stats = BuildStats::default();
        let idx = AutoIndexIndex::build(small.raw(), small.dim(), 3, &mut stats).unwrap();
        // n=600 → nlist ≈ 4·24.5 ≈ 97, nprobe = max(2, 97/48) = 2.
        assert_eq!(idx.nprobe, 2);
    }
}
