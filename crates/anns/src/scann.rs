//! SCANN-style index: IVF partitioning + compact 4-bit product quantization
//! for the first-pass scan, followed by full-precision re-ranking of the top
//! `reorder_k` candidates.
//!
//! Google's ScaNN adds anisotropic quantization loss; the behaviourally
//! relevant properties for tuning — a cheap lossy scan whose recall is
//! recovered by `reorder_k` re-ranking, with `nlist`/`nprobe` controlling the
//! partition trade-off — are preserved here (documented substitution, see
//! ARCHITECTURE.md, "What is real and what is modelled").

use crate::cost::{BuildStats, SearchCost};
use crate::index::{BuildError, VectorIndex};
use crate::ivf::{GroupedLists, IvfLists};
use crate::ivf_pq::{with_pq_scratch, ProductQuantizer};
use crate::kmeans::KMeans;
use crate::params::{nearest_divisor, IndexParams, SearchParams};
use vecdata::distance::l2_sq;
use vecdata::ground_truth::TopK;
use vecdata::Neighbor;

/// SCANN-like two-stage index. Stage-1 PQ codes are stored contiguously per
/// posting list; the re-ranking stage gathers full-precision rows by id
/// (random access, so it stays per-pair through the kernel-routed `l2_sq`).
#[derive(Debug, Clone)]
pub struct ScannIndex {
    dim: usize,
    quantizer: KMeans,
    groups: GroupedLists,
    pq: ProductQuantizer,
    /// Codes gathered into list-grouped contiguous rows (row `j` encodes
    /// `groups.ids[j]`).
    list_codes: Vec<u8>,
    /// Full-precision vectors kept for the re-ranking stage, in original
    /// id order (re-ranking indexes by candidate id, not list position).
    data: Vec<f32>,
}

impl ScannIndex {
    pub fn build(
        vectors: &[f32],
        dim: usize,
        params: &IndexParams,
        seed: u64,
        stats: &mut BuildStats,
    ) -> Result<ScannIndex, BuildError> {
        if params.nlist == 0 {
            return Err(BuildError::InvalidParam("nlist"));
        }
        let ivf = IvfLists::build(vectors, dim, params.nlist, seed, stats);
        // SCANN uses aggressive 4-bit codes over ~2-dim subspaces.
        let m = nearest_divisor(dim, (dim / 2).max(1));
        let pq = ProductQuantizer::train(vectors, dim, m, 4, seed ^ 0x5CA1, stats)?;
        let n = vectors.len() / dim;
        let mut codes = vec![0u8; n * pq.m];
        pq.encode(vectors, &mut codes);
        stats.train_dims += (n * pq.m * pq.ksub * pq.dsub) as u64;
        Ok(Self::from_parts(vectors, dim, ivf, pq, &codes))
    }

    /// The index over already-built lists, codebooks and per-vector codes
    /// (`m` bytes each, in id order).
    pub(crate) fn from_parts(
        vectors: &[f32],
        dim: usize,
        ivf: IvfLists,
        pq: ProductQuantizer,
        codes: &[u8],
    ) -> ScannIndex {
        let groups = GroupedLists::from_lists(&ivf.lists);
        let list_codes = groups.gather_u8(codes, pq.m);
        ScannIndex { dim, quantizer: ivf.quantizer, groups, pq, list_codes, data: vectors.to_vec() }
    }
}

impl VectorIndex for ScannIndex {
    fn search(&self, query: &[f32], sp: &SearchParams, cost: &mut SearchCost) -> Vec<Neighbor> {
        let probes = self.quantizer.nearest_n(query, sp.nprobe, &mut cost.f32_dims);
        if probes.is_empty() {
            // An empty segment's quantizer: no list to scan, no table to build.
            return Vec::new();
        }
        // First pass: collect reorder_k candidates by ADC distance.
        let reorder_k = sp.reorder_k.max(sp.top_k);
        let m = self.pq.m;
        let mut stage1 = TopK::new(reorder_k);
        with_pq_scratch(|scratch| {
            self.pq.adc_table_into(query, &mut scratch.table, &mut scratch.scores, cost);
            for c in probes {
                cost.lists_probed += 1;
                let r = self.groups.range(c);
                let ids = &self.groups.ids[r.clone()];
                let codes = &self.list_codes[r.start * m..r.end * m];
                cost.pq_lookups += (ids.len() * m) as u64;
                cost.heap_pushes += ids.len() as u64;
                for (j, code) in codes.chunks_exact(m).enumerate() {
                    stage1.push(ids[j], self.pq.adc_distance(&scratch.table, code));
                }
            }
        });
        // Second pass: exact re-ranking of the survivors.
        let mut top = TopK::new(sp.top_k);
        for cand in stage1.into_sorted() {
            let v = &self.data[cand.id as usize * self.dim..(cand.id as usize + 1) * self.dim];
            cost.add_f32_distance(self.dim);
            top.push(cand.id, l2_sq(query, v));
        }
        top.into_sorted()
    }

    fn memory_bytes(&self) -> u64 {
        self.groups.memory_bytes()
            + (self.quantizer.centroids.len() * 4) as u64
            + self.list_codes.len() as u64
            + self.pq.memory_bytes()
            + (self.data.len() * 4) as u64
    }

    fn len(&self) -> usize {
        self.data.len() / self.dim
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
        let idx = ScannIndex::build(&[], 4, &params, 0, &mut stats).unwrap();
        let mut cost = SearchCost::default();
        let sp = SearchParams { nprobe: 4, ef: 16, reorder_k: 16, top_k: 10 };
        assert!(idx.search(&[0.5; 4], &sp, &mut cost).is_empty());
        assert_eq!(cost, SearchCost::default(), "no probe, no scan");
    }

    fn setup() -> (vecdata::Dataset, ScannIndex) {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let params = IndexParams { nlist: 16, ..Default::default() }.sanitized(ds.dim(), 10);
        let mut stats = BuildStats::default();
        let idx = ScannIndex::build(ds.raw(), ds.dim(), &params, 2, &mut stats).unwrap();
        (ds, idx)
    }

    fn recall_with(
        ds: &vecdata::Dataset,
        idx: &ScannIndex,
        nprobe: usize,
        reorder_k: usize,
    ) -> f64 {
        let gt = ground_truth(ds, 10);
        let sp = SearchParams { nprobe, ef: 0, reorder_k, top_k: 10 };
        let mut acc = 0.0;
        for qi in 0..ds.n_queries() {
            let mut cost = SearchCost::default();
            let ids: Vec<u32> =
                idx.search(ds.query(qi), &sp, &mut cost).iter().map(|n| n.id).collect();
            acc += vecdata::ground_truth::recall(&ids, &gt[qi]);
        }
        acc / ds.n_queries() as f64
    }

    #[test]
    fn reorder_recovers_recall() {
        let (ds, idx) = setup();
        let small = recall_with(&ds, &idx, 16, 10);
        let large = recall_with(&ds, &idx, 16, 200);
        assert!(large >= small, "reorder_k must not hurt recall: {small} -> {large}");
        assert!(large > 0.9, "SCANN with big reorder should be accurate, got {large}");
    }

    #[test]
    fn reorder_cost_visible_in_f32_dims() {
        let (ds, idx) = setup();
        let mut c_small = SearchCost::default();
        let mut c_large = SearchCost::default();
        idx.search(
            ds.query(0),
            &SearchParams { nprobe: 8, ef: 0, reorder_k: 16, top_k: 10 },
            &mut c_small,
        );
        idx.search(
            ds.query(0),
            &SearchParams { nprobe: 8, ef: 0, reorder_k: 256, top_k: 10 },
            &mut c_large,
        );
        assert!(c_large.f32_dims > c_small.f32_dims);
        assert_eq!(c_large.pq_lookups, c_small.pq_lookups); // same scan stage
    }
}
