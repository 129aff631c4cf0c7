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

/// Quantize a 4-bit ADC table (`m × 16` f32 entries) into the `u8` LUT
/// layout the fast tier's `adc4_lut16_block` kernel consumes. Entries are
/// offset by their subspace minimum and scaled by one shared step, so a
/// scored sum reconstructs as `bias + delta · sum`. Returns `(bias, delta)`;
/// `luts` is resized to `m * 16`.
pub fn quantize_adc4_table(table: &[f32], m: usize, luts: &mut Vec<u8>) -> (f32, f32) {
    assert_eq!(table.len(), m * 16, "quantize_adc4_table: table is not m x 16");
    luts.clear();
    luts.resize(m * 16, 0);
    let mut bias = 0.0f32;
    let mut span_max = 0.0f32;
    for s in 0..m {
        let row = &table[s * 16..s * 16 + 16];
        let lo = row.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        bias += lo;
        span_max = span_max.max(hi - lo);
    }
    let delta = (span_max / 255.0).max(1e-20);
    for s in 0..m {
        let row = &table[s * 16..s * 16 + 16];
        let lo = row.iter().copied().fold(f32::INFINITY, f32::min);
        for c in 0..16 {
            luts[s * 16 + c] = (((row[c] - lo) / delta).round()).clamp(0.0, 255.0) as u8;
        }
    }
    (bias, delta)
}

/// Quantize an 8-bit ADC table (`m × 256` f32 entries) into the two-plane
/// `u8` LUT layout the fast tier's `adc8_lut256_block` kernel consumes:
/// entries are offset by their subspace minimum and scaled by one shared
/// step into `u16`, stored per subspace as 256 low bytes then 256 high
/// bytes, so a scored sum reconstructs as `bias + delta · sum`. The `u16`
/// range gives 256× finer steps than the 4-bit path's `u8` quantization —
/// that is what makes quantizing a full 256-entry table viable. Returns
/// `(bias, delta)`; `luts` is resized to `m * 512`.
pub fn quantize_adc8_table(table: &[f32], m: usize, luts: &mut Vec<u8>) -> (f32, f32) {
    assert_eq!(table.len(), m * 256, "quantize_adc8_table: table is not m x 256");
    luts.clear();
    luts.resize(m * 512, 0);
    let mut bias = 0.0f32;
    let mut span_max = 0.0f32;
    for s in 0..m {
        let row = &table[s * 256..s * 256 + 256];
        let lo = row.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        bias += lo;
        span_max = span_max.max(hi - lo);
    }
    let delta = (span_max / 65535.0).max(1e-20);
    for s in 0..m {
        let row = &table[s * 256..s * 256 + 256];
        let lo = row.iter().copied().fold(f32::INFINITY, f32::min);
        for c in 0..256 {
            let q = (((row[c] - lo) / delta).round()).clamp(0.0, 65535.0) as u16;
            luts[s * 512 + c] = (q & 0xFF) as u8;
            luts[s * 512 + 256 + c] = (q >> 8) as u8;
        }
    }
    (bias, delta)
}

/// Reusable per-thread scratch for PQ search: the ADC table, kernel score
/// buffers, and the fast tier's quantized LUT / integer-sum buffers. Batched
/// search does zero per-query allocations once these are warm.
#[derive(Debug, Default)]
pub struct PqScratch {
    pub table: Vec<f32>,
    pub scores: Vec<f32>,
    pub luts: Vec<u8>,
    pub sums: Vec<u32>,
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
    /// Fast tier ([`kernel::KernelPolicy::Fast`]): score probed lists with
    /// the SIMD ADC kernels instead of the scalar per-byte loop.
    fast: bool,
    /// Per-list 4-bit codes in the fast tier's packed batch-of-32 layout
    /// (built only when `fast` and `ksub == 16`).
    packed4: Option<Vec<Vec<u8>>>,
    /// Per-list 8-bit codes in the fast tier's batch-of-32 subspace-major
    /// layout for the two-level `vpshufb` scorer (built only when `fast`,
    /// `ksub == 256` and `m <= 256` — the kernel's accumulator cap).
    packed8: Option<Vec<Vec<u8>>>,
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
        let mut idx = IvfPqIndex {
            quantizer: ivf.quantizer,
            groups,
            pq,
            list_codes,
            n,
            fast: false,
            packed4: None,
            packed8: None,
        };
        if kernel::active_policy() == kernel::KernelPolicy::Fast {
            idx.set_fast_tier(true);
        }
        idx
    }

    /// Toggle the fast-tier scoring path (on by default when the process
    /// policy is `VDTUNER_KERNEL=fast`; exposed so tests and benches can
    /// exercise both tiers in one process). Turning it on packs 4-bit codes
    /// into the SIMD LUT layout (or 8-bit codes into the two-level shuffle
    /// layout); turning it off drops them.
    pub fn set_fast_tier(&mut self, on: bool) {
        self.fast = on;
        let m = self.pq.m;
        if on && self.pq.ksub == 16 && self.packed4.is_none() {
            let packed = (0..self.groups.n_lists())
                .map(|c| {
                    let r = self.groups.range(c);
                    kernel::pack_codes4(&self.list_codes[r.start * m..r.end * m], m)
                })
                .collect();
            self.packed4 = Some(packed);
        }
        if on && self.pq.ksub == 256 && m <= 256 && self.packed8.is_none() {
            let packed = (0..self.groups.n_lists())
                .map(|c| {
                    let r = self.groups.range(c);
                    kernel::pack_codes8(&self.list_codes[r.start * m..r.end * m], m)
                })
                .collect();
            self.packed8 = Some(packed);
        }
        if !on {
            self.packed4 = None;
            self.packed8 = None;
        }
    }
}

impl VectorIndex for IvfPqIndex {
    fn search(&self, query: &[f32], sp: &SearchParams, cost: &mut SearchCost) -> Vec<Neighbor> {
        let probes = self.quantizer.nearest_n(query, sp.nprobe, &mut cost.f32_dims);
        let mut top = TopK::new(sp.top_k);
        let m = self.pq.m;
        with_pq_scratch(|scratch| {
            self.pq.adc_table_into(query, &mut scratch.table, &mut scratch.scores, cost);
            // Fast tier with 4-bit codes: one shared quantized LUT per query.
            let lut4 = if self.fast && self.pq.ksub == 16 && self.packed4.is_some() {
                Some(quantize_adc4_table(&scratch.table, m, &mut scratch.luts))
            } else {
                None
            };
            // Fast tier with 8-bit codes: one shared two-plane u16 LUT per
            // query, scored gather-free by the two-level shuffle kernel.
            let lut8 = if self.fast && self.pq.ksub == 256 && self.packed8.is_some() {
                Some(quantize_adc8_table(&scratch.table, m, &mut scratch.luts))
            } else {
                None
            };
            let kern = if self.fast { kernel::fast() } else { kernel::active() };
            for c in probes {
                cost.lists_probed += 1;
                let r = self.groups.range(c);
                let ids = &self.groups.ids[r.clone()];
                let codes = &self.list_codes[r.start * m..r.end * m];
                cost.pq_lookups += (ids.len() * m) as u64;
                cost.heap_pushes += ids.len() as u64;
                if let Some((bias, delta)) = lut4 {
                    let packed = &self.packed4.as_ref().unwrap()[c];
                    kern.adc4_lut16_block(&scratch.luts, packed, m, ids.len(), &mut scratch.sums);
                    for (j, &s) in scratch.sums.iter().enumerate() {
                        top.push(ids[j], bias + delta * s as f32);
                    }
                } else if let Some((bias, delta)) = lut8 {
                    let packed = &self.packed8.as_ref().unwrap()[c];
                    kern.adc8_lut256_block(&scratch.luts, packed, m, ids.len(), &mut scratch.sums);
                    for (j, &s) in scratch.sums.iter().enumerate() {
                        top.push(ids[j], bias + delta * s as f32);
                    }
                } else if self.fast {
                    kern.adc_block(&scratch.table, self.pq.ksub, codes, m, &mut scratch.scores);
                    for (j, &d) in scratch.scores.iter().enumerate() {
                        top.push(ids[j], d);
                    }
                } else {
                    for (j, code) in codes.chunks_exact(m).enumerate() {
                        top.push(ids[j], self.pq.adc_distance(&scratch.table, code));
                    }
                }
            }
        });
        top.into_sorted()
    }

    fn memory_bytes(&self) -> u64 {
        let sum_lists = |p: &Option<Vec<Vec<u8>>>| -> u64 {
            p.as_ref().map(|p| p.iter().map(|l| l.len() as u64).sum()).unwrap_or(0)
        };
        let packed: u64 = sum_lists(&self.packed4) + sum_lists(&self.packed8);
        self.groups.memory_bytes()
            + (self.quantizer.centroids.len() * 4) as u64
            + self.list_codes.len() as u64
            + self.pq.memory_bytes()
            + packed
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
    fn quantized_adc4_lut_reconstructs_table_sums() {
        let m = 6usize;
        let table: Vec<f32> = (0..m * 16).map(|i| ((i as f32) * 0.91).sin().abs() * 2.0).collect();
        let mut luts = Vec::new();
        let (bias, delta) = quantize_adc4_table(&table, m, &mut luts);
        // Any code row's quantized sum must land within m quantization steps
        // of the exact table sum.
        for trial in 0..32u32 {
            let code: Vec<u8> = (0..m).map(|s| ((trial as usize * 5 + s * 3) % 16) as u8).collect();
            let exact: f32 = (0..m).map(|s| table[s * 16 + code[s] as usize]).sum();
            let sum: u32 = (0..m).map(|s| luts[s * 16 + code[s] as usize] as u32).sum();
            let approx = bias + delta * sum as f32;
            assert!(
                (approx - exact).abs() <= delta * m as f32 + 1e-5,
                "exact {exact} approx {approx} delta {delta}"
            );
        }
    }

    #[test]
    fn quantized_adc8_lut_reconstructs_table_sums() {
        let m = 6usize;
        let table: Vec<f32> = (0..m * 256).map(|i| ((i as f32) * 0.91).sin().abs() * 2.0).collect();
        let mut luts = Vec::new();
        let (bias, delta) = quantize_adc8_table(&table, m, &mut luts);
        assert_eq!(luts.len(), m * 512);
        // Any code row's quantized sum must land within m quantization steps
        // of the exact table sum — and the u16 steps are tiny.
        for trial in 0..32u32 {
            let code: Vec<u8> =
                (0..m).map(|s| ((trial as usize * 37 + s * 11) % 256) as u8).collect();
            let exact: f32 = (0..m).map(|s| table[s * 256 + code[s] as usize]).sum();
            let sum: u32 = (0..m)
                .map(|s| {
                    let c = code[s] as usize;
                    luts[s * 512 + c] as u32 + 256 * luts[s * 512 + 256 + c] as u32
                })
                .sum();
            let approx = bias + delta * sum as f32;
            assert!(
                (approx - exact).abs() <= delta * m as f32 + 1e-5,
                "exact {exact} approx {approx} delta {delta}"
            );
        }
    }

    #[test]
    fn fast_tier_8bit_search_matches_exact_ids_closely() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let params =
            IndexParams { nlist: 8, m: 8, nbits: 8, ..Default::default() }.sanitized(ds.dim(), 10);
        let mut stats = BuildStats::default();
        let mut idx = IvfPqIndex::build(ds.raw(), ds.dim(), &params, 1, &mut stats).unwrap();
        let sp = SearchParams { nprobe: 8, ef: 0, reorder_k: 0, top_k: 10 };
        let mut overlap = 0usize;
        let mut total = 0usize;
        for qi in 0..ds.n_queries() {
            let mut cost = SearchCost::default();
            idx.set_fast_tier(false);
            let exact: Vec<u32> =
                idx.search(ds.query(qi), &sp, &mut cost).iter().map(|n| n.id).collect();
            idx.set_fast_tier(true);
            assert!(idx.packed8.is_some(), "8-bit codes must pack for the fast tier");
            let fast: Vec<u32> =
                idx.search(ds.query(qi), &sp, &mut cost).iter().map(|n| n.id).collect();
            total += exact.len();
            overlap += fast.iter().filter(|id| exact.contains(id)).count();
        }
        // u16 quantization perturbs distances by ≤ m steps of a 1/65535
        // span; top-10 membership stays essentially intact.
        assert!(overlap as f64 >= 0.9 * total as f64, "fast/exact top-k overlap {overlap}/{total}");
    }

    #[test]
    fn fast_tier_search_matches_exact_ids_closely() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let params =
            IndexParams { nlist: 8, m: 8, nbits: 4, ..Default::default() }.sanitized(ds.dim(), 10);
        let mut stats = BuildStats::default();
        let mut idx = IvfPqIndex::build(ds.raw(), ds.dim(), &params, 1, &mut stats).unwrap();
        let sp = SearchParams { nprobe: 8, ef: 0, reorder_k: 0, top_k: 10 };
        let mut overlap = 0usize;
        let mut total = 0usize;
        for qi in 0..ds.n_queries() {
            let mut cost = SearchCost::default();
            idx.set_fast_tier(false);
            let exact: Vec<u32> =
                idx.search(ds.query(qi), &sp, &mut cost).iter().map(|n| n.id).collect();
            idx.set_fast_tier(true);
            assert!(idx.packed4.is_some(), "4-bit codes must pack for the fast tier");
            let fast: Vec<u32> =
                idx.search(ds.query(qi), &sp, &mut cost).iter().map(|n| n.id).collect();
            total += exact.len();
            overlap += fast.iter().filter(|id| exact.contains(id)).count();
        }
        // The quantized LUT only perturbs distances by ≤ m quantization
        // steps; top-10 membership stays essentially intact.
        assert!(overlap as f64 >= 0.9 * total as f64, "fast/exact top-k overlap {overlap}/{total}");
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
