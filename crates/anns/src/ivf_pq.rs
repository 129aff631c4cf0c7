//! IVF_PQ: IVF lists storing product-quantization codes, searched with
//! asymmetric distance computation (ADC) lookup tables.

use crate::cost::{BuildStats, SearchCost};
use crate::index::{BuildError, VectorIndex};
use crate::ivf::{GroupedLists, IvfLists};
use crate::kmeans::{assign_nearest, KMeans};
use crate::params::{IndexParams, SearchParams};
use vecdata::ground_truth::TopK;
use vecdata::kernel;
use vecdata::Neighbor;

/// A trained product quantizer: `m` subspaces × `2^nbits` centroids each.
#[derive(Debug, Clone)]
pub struct ProductQuantizer {
    pub dim: usize,
    pub m: usize,
    pub dsub: usize,
    pub ksub: usize,
    /// Codebooks, `m` of them, each `ksub * dsub` floats.
    pub codebooks: Vec<Vec<f32>>,
}

impl ProductQuantizer {
    /// Train the `m` sub-codebooks with k-means over the subvectors.
    pub fn train(
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
        let mut codebooks = Vec::with_capacity(m);
        let mut sub = Vec::new();
        for s in 0..m {
            subvectors(vectors, dim, s * dsub, dsub, &mut sub);
            let km = KMeans::train(&sub, dsub, ksub, seed.wrapping_add(s as u64), stats);
            // Pad codebook to ksub rows if the data had fewer points.
            let mut cb = km.centroids;
            cb.resize(ksub * dsub, 0.0);
            codebooks.push(cb);
        }
        Ok(ProductQuantizer { dim, m, dsub, ksub, codebooks })
    }

    /// Encode `vectors.len() / dim` row-major vectors into `m` code bytes
    /// each (one codebook index per subspace; `codes` is row-major too).
    ///
    /// Per subspace, the sub-vectors are copied out contiguously and
    /// assigned to their nearest codebook row in one block-wise pass; the
    /// strict-< tie rule keeps codes identical to the per-vector,
    /// per-centroid loop.
    pub fn encode(&self, vectors: &[f32], codes: &mut [u8]) {
        let n = vectors.len() / self.dim;
        assert!(vectors.len() == n * self.dim && codes.len() == n * self.m);
        let mut sub = Vec::new();
        let mut nearest = vec![0u32; n];
        for s in 0..self.m {
            subvectors(vectors, self.dim, s * self.dsub, self.dsub, &mut sub);
            assign_nearest(&sub, &self.codebooks[s], self.dsub, &mut nearest);
            for (code, &c) in codes.iter_mut().skip(s).step_by(self.m).zip(&nearest) {
                *code = c as u8;
            }
        }
    }

    /// Build the per-query ADC table: `m * ksub` partial squared distances,
    /// one kernel block call per subspace codebook. Allocating convenience
    /// wrapper over [`ProductQuantizer::adc_table_into`].
    pub fn adc_table(&self, query: &[f32], cost: &mut SearchCost) -> Vec<f32> {
        let mut table = Vec::new();
        let mut scores = Vec::new();
        self.adc_table_into(query, &mut table, &mut scores, cost);
        table
    }

    /// Build the ADC table into caller-owned buffers (`scores` is kernel
    /// scratch). With warm buffers this does zero allocations, so batched
    /// search pays no per-query allocation in the table step. The filled
    /// `table` is identical to what [`ProductQuantizer::adc_table`] returns.
    pub fn adc_table_into(
        &self,
        query: &[f32],
        table: &mut Vec<f32>,
        scores: &mut Vec<f32>,
        cost: &mut SearchCost,
    ) {
        let kern = kernel::active();
        table.clear();
        table.resize(self.m * self.ksub, 0.0);
        for s in 0..self.m {
            let sub = &query[s * self.dsub..(s + 1) * self.dsub];
            kern.l2_sq_block(sub, &self.codebooks[s], self.dsub, scores);
            table[s * self.ksub..s * self.ksub + self.ksub].copy_from_slice(scores);
            cost.f32_dims += (self.ksub * self.dsub) as u64;
        }
    }

    /// Approximate squared distance of a code via the ADC table.
    #[inline]
    pub fn adc_distance(&self, table: &[f32], code: &[u8]) -> f32 {
        let mut acc = 0.0f32;
        for s in 0..self.m {
            acc += table[s * self.ksub + code[s] as usize];
        }
        acc
    }

    /// Memory of the codebooks in bytes.
    pub fn memory_bytes(&self) -> u64 {
        (self.m * self.ksub * self.dsub * 4) as u64
    }
}

/// Columns `from..from + width` of every `dim`-wide row of `vectors`, as
/// contiguous `width`-wide rows in `out` (cleared first).
fn subvectors(vectors: &[f32], dim: usize, from: usize, width: usize, out: &mut Vec<f32>) {
    out.clear();
    for row in vectors.chunks_exact(dim) {
        out.extend_from_slice(&row[from..from + width]);
    }
}

/// Reusable per-thread scratch for PQ search: the ADC table and the kernel
/// score buffer. Batched search does zero per-query allocations once these
/// are warm.
#[derive(Debug, Default)]
pub struct PqScratch {
    pub table: Vec<f32>,
    pub scores: Vec<f32>,
}

thread_local! {
    static PQ_SCRATCH: std::cell::RefCell<PqScratch> =
        std::cell::RefCell::new(PqScratch::default());
}

/// Run `f` with this thread's warm [`PqScratch`].
pub(crate) fn with_pq_scratch<R>(f: impl FnOnce(&mut PqScratch) -> R) -> R {
    PQ_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// IVF over PQ codes, stored contiguously per posting list.
#[derive(Debug, Clone)]
pub struct IvfPqIndex {
    quantizer: KMeans,
    groups: GroupedLists,
    pq: ProductQuantizer,
    /// Codes gathered into list-grouped contiguous `m`-byte rows: row `j`
    /// holds the code of `groups.ids[j]`.
    list_codes: Vec<u8>,
    n: usize,
}

impl IvfPqIndex {
    pub fn build(
        vectors: &[f32],
        dim: usize,
        params: &IndexParams,
        seed: u64,
        stats: &mut BuildStats,
    ) -> Result<IvfPqIndex, BuildError> {
        if params.nlist == 0 {
            return Err(BuildError::InvalidParam("nlist"));
        }
        let ivf = IvfLists::build(vectors, dim, params.nlist, seed, stats);
        let pq =
            ProductQuantizer::train(vectors, dim, params.m, params.nbits, seed ^ 0x9051, stats)?;
        let n = vectors.len() / dim;
        let mut codes = vec![0u8; n * pq.m];
        pq.encode(vectors, &mut codes);
        stats.train_dims += (n * pq.m * pq.ksub * pq.dsub) as u64; // encode pass
        Ok(Self::from_parts(ivf, pq, &codes))
    }

    /// The index over already-built lists, codebooks and per-vector codes
    /// (`m` bytes each, in id order).
    pub(crate) fn from_parts(ivf: IvfLists, pq: ProductQuantizer, codes: &[u8]) -> IvfPqIndex {
        let n = codes.len() / pq.m;
        let groups = GroupedLists::from_lists(&ivf.lists);
        let list_codes = groups.gather_u8(codes, pq.m);
        IvfPqIndex { quantizer: ivf.quantizer, groups, pq, list_codes, n }
    }
}

impl VectorIndex for IvfPqIndex {
    fn search(&self, query: &[f32], sp: &SearchParams, cost: &mut SearchCost) -> Vec<Neighbor> {
        let probes = self.quantizer.nearest_n(query, sp.nprobe, &mut cost.f32_dims);
        let mut top = TopK::new(sp.top_k);
        let m = self.pq.m;
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
                    top.push(ids[j], self.pq.adc_distance(&scratch.table, code));
                }
            }
        });
        top.into_sorted()
    }

    fn memory_bytes(&self) -> u64 {
        self.groups.memory_bytes()
            + (self.quantizer.centroids.len() * 4) as u64
            + self.list_codes.len() as u64
            + self.pq.memory_bytes()
    }

    fn len(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecdata::{ground_truth, DatasetKind, DatasetSpec};

    #[test]
    fn pq_rejects_bad_m() {
        let data = vec![0.5f32; 10 * 6];
        let mut stats = BuildStats::default();
        let err = ProductQuantizer::train(&data, 6, 4, 8, 0, &mut stats);
        assert!(matches!(err, Err(BuildError::PqSubspaceMismatch { dim: 6, m: 4 })));
    }

    #[test]
    fn pq_rejects_bad_nbits() {
        let data = vec![0.5f32; 10 * 8];
        let mut stats = BuildStats::default();
        assert!(ProductQuantizer::train(&data, 8, 2, 0, 0, &mut stats).is_err());
        assert!(ProductQuantizer::train(&data, 8, 2, 17, 0, &mut stats).is_err());
    }

    #[test]
    fn adc_distance_approximates_exact() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let mut stats = BuildStats::default();
        let pq = ProductQuantizer::train(ds.raw(), ds.dim(), 8, 6, 3, &mut stats).unwrap();
        let q = ds.query(0);
        let mut cost = SearchCost::default();
        let table = pq.adc_table(q, &mut cost);
        let mut code = vec![0u8; pq.m];
        let mut err_acc = 0.0f64;
        for i in 0..50 {
            let v = ds.vector(i);
            pq.encode(v, &mut code);
            let exact = vecdata::distance::l2_sq(q, v);
            let approx = pq.adc_distance(&table, &code);
            err_acc += (exact - approx).abs() as f64;
        }
        // Mean absolute error should be small relative to typical distances
        // (unit vectors → distances in [0, 4]).
        assert!(err_acc / 50.0 < 0.5, "mean ADC err {}", err_acc / 50.0);
    }

    #[test]
    fn ivf_pq_end_to_end_recall() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let params =
            IndexParams { nlist: 16, m: 8, nbits: 8, ..Default::default() }.sanitized(ds.dim(), 10);
        let mut stats = BuildStats::default();
        let idx = IvfPqIndex::build(ds.raw(), ds.dim(), &params, 1, &mut stats).unwrap();
        let gt = ground_truth(&ds, 10);
        let sp = SearchParams { nprobe: 16, ef: 0, reorder_k: 0, top_k: 10 };
        let mut acc = 0.0;
        for qi in 0..ds.n_queries() {
            let mut cost = SearchCost::default();
            let ids: Vec<u32> =
                idx.search(ds.query(qi), &sp, &mut cost).iter().map(|n| n.id).collect();
            assert!(cost.pq_lookups > 0);
            acc += vecdata::ground_truth::recall(&ids, &gt[qi]);
        }
        let recall = acc / ds.n_queries() as f64;
        // PQ is lossy; exhaustive probing should still recover most neighbors.
        assert!(recall > 0.5, "IVF_PQ recall {recall}");
    }

    #[test]
    fn adc_table_into_matches_allocating_path_bitwise() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let mut stats = BuildStats::default();
        let pq = ProductQuantizer::train(ds.raw(), ds.dim(), 8, 6, 3, &mut stats).unwrap();
        // Warm, dirty scratch from a previous "query": must be fully
        // overwritten, never appended to.
        let mut table = vec![99.0f32; 7];
        let mut scores = vec![42.0f32; 3];
        for qi in 0..ds.n_queries() {
            let mut c1 = SearchCost::default();
            let mut c2 = SearchCost::default();
            let want = pq.adc_table(ds.query(qi), &mut c1);
            pq.adc_table_into(ds.query(qi), &mut table, &mut scores, &mut c2);
            assert_eq!(table.len(), want.len());
            for (a, b) in table.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(c1.f32_dims, c2.f32_dims);
        }
    }

    #[test]
    fn codes_memory_much_smaller_than_raw() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let params =
            IndexParams { nlist: 16, m: 4, nbits: 4, ..Default::default() }.sanitized(ds.dim(), 10);
        let mut stats = BuildStats::default();
        let idx = IvfPqIndex::build(ds.raw(), ds.dim(), &params, 1, &mut stats).unwrap();
        // Codes are m bytes per vector vs dim*4 raw bytes; with the codebook
        // overhead total memory must still be far below raw storage.
        assert!(idx.memory_bytes() < (ds.raw().len() * 4 / 2) as u64);
    }
}
