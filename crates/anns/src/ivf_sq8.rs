//! The scalar quantizer of IVF_SQ8 (and AUTOINDEX) lists; the index itself
//! is [`crate::ivf::IvfIndex`].
//!
//! Each dimension is linearly quantized to `u8` with per-dimension min/max
//! trained over the segment. Memory drops ~4x vs IVF_FLAT and scans run in
//! the cheaper quantized domain, at a small recall penalty — exactly the
//! trade-off the tuner must discover.

use vecdata::kernel;

/// Per-dimension linear quantizer to `u8`.
#[derive(Debug, Clone)]
pub struct ScalarQuantizer {
    pub mins: Vec<f32>,
    pub scales: Vec<f32>, // (max-min)/255, zero-guarded
}

impl ScalarQuantizer {
    /// Train min/max per dimension over all vectors.
    pub fn train(vectors: &[f32], dim: usize) -> ScalarQuantizer {
        let mut mins = vec![f32::INFINITY; dim];
        let mut maxs = vec![f32::NEG_INFINITY; dim];
        for v in vectors.chunks_exact(dim) {
            for d in 0..dim {
                mins[d] = mins[d].min(v[d]);
                maxs[d] = maxs[d].max(v[d]);
            }
        }
        let scales =
            mins.iter().zip(&maxs).map(|(lo, hi)| ((hi - lo) / 255.0).max(1e-12)).collect();
        ScalarQuantizer { mins, scales }
    }

    /// Quantize one vector into `out`.
    #[inline]
    pub fn encode(&self, v: &[f32], out: &mut [u8]) {
        for d in 0..v.len() {
            let q = ((v[d] - self.mins[d]) / self.scales[d]).round();
            out[d] = q.clamp(0.0, 255.0) as u8;
        }
    }

    /// Squared L2 distance between a raw query and a quantized code,
    /// evaluated by dequantizing on the fly (asymmetric distance). Routed
    /// through the dispatched SIMD kernel; bit-identical to the original
    /// sequential dequantize-and-accumulate loop.
    #[inline]
    pub fn asymmetric_l2(&self, query: &[f32], code: &[u8]) -> f32 {
        kernel::active().sq8_l2(query, code, &self.mins, &self.scales)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{BuildStats, SearchCost};
    use crate::index::VectorIndex;
    use crate::ivf::IvfIndex;
    use crate::params::{IndexParams, IndexType, SearchParams};
    use vecdata::{ground_truth, DatasetKind, DatasetSpec};

    #[test]
    fn empty_build_searches_to_no_hits() {
        crate::ivf::tests::assert_empty_build_searches_to_no_hits(IndexType::IvfSq8);
    }

    #[test]
    fn quantizer_roundtrip_error_bounded() {
        let data: Vec<f32> = (0..64).map(|i| (i as f32).sin()).collect();
        let sq = ScalarQuantizer::train(&data, 8);
        let mut code = [0u8; 8];
        for v in data.chunks_exact(8) {
            sq.encode(v, &mut code);
            for d in 0..8 {
                let back = sq.mins[d] + code[d] as f32 * sq.scales[d];
                assert!((back - v[d]).abs() <= sq.scales[d] * 0.51 + 1e-6);
            }
        }
    }

    #[test]
    fn asymmetric_distance_close_to_exact() {
        let data: Vec<f32> = (0..40).map(|i| (i as f32 * 0.37).cos()).collect();
        let sq = ScalarQuantizer::train(&data, 4);
        let q = [0.1f32, -0.2, 0.3, 0.4];
        for v in data.chunks_exact(4) {
            let mut code = [0u8; 4];
            sq.encode(v, &mut code);
            let exact = vecdata::distance::l2_sq(&q, v);
            let approx = sq.asymmetric_l2(&q, &code);
            assert!((exact - approx).abs() < 0.05, "exact {exact} approx {approx}");
        }
    }

    #[test]
    fn asymmetric_distance_matches_legacy_sequential_loop_bitwise() {
        let data: Vec<f32> = (0..123).map(|i| (i as f32 * 0.77).sin() * 2.0).collect();
        let q: Vec<f32> = (0..41).map(|i| (i as f32 * 0.31).cos()).collect();
        let sq = ScalarQuantizer::train(&data[..82], 41);
        let mut code = vec![0u8; 41];
        sq.encode(&data[82..], &mut code);
        let mut legacy = 0.0f32;
        for d in 0..q.len() {
            let x = sq.mins[d] + code[d] as f32 * sq.scales[d];
            let diff = q[d] - x;
            legacy += diff * diff;
        }
        assert_eq!(sq.asymmetric_l2(&q, &code).to_bits(), legacy.to_bits());
    }

    #[test]
    fn sq8_recall_reasonable_and_memory_smaller_than_flat() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let params = IndexParams { nlist: 16, ..Default::default() }.sanitized(ds.dim(), 10);
        let mut stats = BuildStats::default();
        let idx =
            IvfIndex::build(IndexType::IvfSq8, ds.raw(), ds.dim(), &params, 1, &mut stats).unwrap();
        assert!(idx.memory_bytes() < (ds.raw().len() * 4) as u64);
        let gt = ground_truth(&ds, 10);
        let sp = SearchParams { nprobe: 16, ef: 0, reorder_k: 0, top_k: 10 };
        let mut acc = 0.0;
        for qi in 0..ds.n_queries() {
            let mut cost = SearchCost::default();
            let ids: Vec<u32> =
                idx.search(ds.query(qi), &sp, &mut cost).iter().map(|n| n.id).collect();
            assert!(cost.u8_dims > 0);
            acc += vecdata::ground_truth::recall(&ids, &gt[qi]);
        }
        let recall = acc / ds.n_queries() as f64;
        assert!(recall > 0.8, "SQ8 exhaustive recall {recall}");
    }
}
