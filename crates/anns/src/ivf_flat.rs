//! IVF_FLAT: coarse quantizer + full-precision scan of probed lists.

use crate::cost::{BuildStats, SearchCost};
use crate::index::{BuildError, VectorIndex};
use crate::ivf::{GroupedLists, IvfLists};
use crate::kmeans::KMeans;
use crate::params::{IndexParams, SearchParams};
use vecdata::ground_truth::TopK;
use vecdata::kernel;
use vecdata::Neighbor;

/// IVF with raw vectors stored contiguously per posting list, scanned
/// through the dispatched kernel's block API.
#[derive(Debug, Clone)]
pub struct IvfFlatIndex {
    dim: usize,
    quantizer: KMeans,
    groups: GroupedLists,
    /// Vectors gathered into list-grouped contiguous rows: row `j` holds
    /// the vector of `groups.ids[j]`.
    list_data: Vec<f32>,
}

impl IvfFlatIndex {
    pub fn build(
        vectors: &[f32],
        dim: usize,
        params: &IndexParams,
        seed: u64,
        stats: &mut BuildStats,
    ) -> Result<IvfFlatIndex, BuildError> {
        if params.nlist == 0 {
            return Err(BuildError::InvalidParam("nlist"));
        }
        Ok(Self::from_ivf(vectors, dim, IvfLists::build(vectors, dim, params.nlist, seed, stats)))
    }

    /// The index over already-built lists.
    pub(crate) fn from_ivf(vectors: &[f32], dim: usize, ivf: IvfLists) -> IvfFlatIndex {
        let groups = GroupedLists::from_lists(&ivf.lists);
        let list_data = groups.gather_f32(vectors, dim);
        IvfFlatIndex { dim, quantizer: ivf.quantizer, groups, list_data }
    }
}

impl VectorIndex for IvfFlatIndex {
    fn search(&self, query: &[f32], sp: &SearchParams, cost: &mut SearchCost) -> Vec<Neighbor> {
        let probes = self.quantizer.nearest_n(query, sp.nprobe, &mut cost.f32_dims);
        let mut top = TopK::new(sp.top_k);
        let kern = kernel::active();
        let mut scores = Vec::new();
        for c in probes {
            cost.lists_probed += 1;
            let r = self.groups.range(c);
            let ids = &self.groups.ids[r.clone()];
            let block = &self.list_data[r.start * self.dim..r.end * self.dim];
            kern.l2_sq_block(query, block, self.dim, &mut scores);
            cost.f32_dims += (ids.len() * self.dim) as u64;
            cost.heap_pushes += ids.len() as u64;
            for (j, &d) in scores.iter().enumerate() {
                top.push(ids[j], d);
            }
        }
        top.into_sorted()
    }

    fn memory_bytes(&self) -> u64 {
        self.groups.memory_bytes()
            + (self.quantizer.centroids.len() * 4) as u64
            + (self.list_data.len() * 4) as u64
    }

    fn len(&self) -> usize {
        self.list_data.len() / self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecdata::{ground_truth, DatasetKind, DatasetSpec};

    #[test]
    fn empty_build_searches_to_no_hits() {
        let params = IndexParams { nlist: 4, ..Default::default() };
        let mut stats = BuildStats::default();
        let idx = IvfFlatIndex::build(&[], 4, &params, 0, &mut stats).unwrap();
        let mut cost = SearchCost::default();
        let sp = SearchParams { nprobe: 4, ef: 16, reorder_k: 16, top_k: 10 };
        assert!(idx.search(&[0.5; 4], &sp, &mut cost).is_empty());
        assert_eq!(cost, SearchCost::default(), "no probe, no scan");
    }

    #[test]
    fn more_probes_more_recall() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let params = IndexParams { nlist: 32, ..Default::default() }.sanitized(ds.dim(), 10);
        let mut stats = BuildStats::default();
        let idx = IvfFlatIndex::build(ds.raw(), ds.dim(), &params, 1, &mut stats).unwrap();
        let gt = ground_truth(&ds, 10);
        let recall_at = |nprobe: usize| {
            let sp = SearchParams { nprobe, ef: 100, reorder_k: 100, top_k: 10 };
            let mut acc = 0.0;
            for qi in 0..ds.n_queries() {
                let mut cost = SearchCost::default();
                let ids: Vec<u32> =
                    idx.search(ds.query(qi), &sp, &mut cost).iter().map(|n| n.id).collect();
                acc += vecdata::ground_truth::recall(&ids, &gt[qi]);
            }
            acc / ds.n_queries() as f64
        };
        let r1 = recall_at(1);
        let r_all = recall_at(32);
        assert!(r_all >= r1, "probing everything must not lower recall");
        assert!(r_all > 0.999, "nprobe=nlist is exhaustive, got {r_all}");
    }

    #[test]
    fn probe_cost_scales_with_nprobe() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let params = IndexParams { nlist: 32, ..Default::default() }.sanitized(ds.dim(), 10);
        let mut stats = BuildStats::default();
        let idx = IvfFlatIndex::build(ds.raw(), ds.dim(), &params, 1, &mut stats).unwrap();
        let mut c1 = SearchCost::default();
        let mut c8 = SearchCost::default();
        idx.search(
            ds.query(0),
            &SearchParams { nprobe: 1, ef: 0, reorder_k: 0, top_k: 10 },
            &mut c1,
        );
        idx.search(
            ds.query(0),
            &SearchParams { nprobe: 8, ef: 0, reorder_k: 0, top_k: 10 },
            &mut c8,
        );
        assert!(c8.f32_dims > c1.f32_dims);
        assert_eq!(c1.lists_probed, 1);
        assert_eq!(c8.lists_probed, 8);
    }
}
