//! The [`VectorIndex`] trait and the [`AnnIndex`] dispatcher.
//!
//! All datasets in the paper use the angular metric and are L2-normalized at
//! ingest (see `vecdata`). On unit vectors, squared L2 distance is a strictly
//! monotone function of angular distance (`||a-b||² = 2·(1-cos)`), so every
//! index here works in squared-L2 space internally; recall and ranking are
//! identical.

use crate::cost::{BuildStats, SearchCost};
use crate::flat::FlatIndex;
use crate::hnsw::HnswIndex;
use crate::ivf::IvfIndex;
use crate::params::{IndexParams, IndexType, SearchParams};
use vecdata::Neighbor;

/// Why an index build was rejected.
///
/// In the real Milvus, bad parameter combinations make index building fail
/// or hang; the tuner must treat those as failed evaluations (the paper feeds
/// back worst-in-history values, §V-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `m` does not divide the vector dimensionality.
    PqSubspaceMismatch { dim: usize, m: usize },
    /// A parameter is outside its supported range.
    InvalidParam(&'static str),
    /// The segment holds no vectors.
    EmptySegment,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::PqSubspaceMismatch { dim, m } => {
                write!(f, "PQ m={m} does not divide dim={dim}")
            }
            BuildError::InvalidParam(p) => write!(f, "invalid index parameter: {p}"),
            BuildError::EmptySegment => write!(f, "cannot build an index over an empty segment"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Common interface of all index types.
pub trait VectorIndex {
    /// Top-k search. Returned ids are *local* to the indexed slice
    /// (0-based row numbers); the VDMS collection maps them to global ids.
    /// Hits are returned in ascending [`Neighbor`] order (`Neighbor::cmp`:
    /// distance, then id, NaNs last): the collection's merge stops reading
    /// a segment's hits at the first one it rejects.
    fn search(&self, query: &[f32], sp: &SearchParams, cost: &mut SearchCost) -> Vec<Neighbor>;

    /// Resident memory of the index structure, in bytes.
    fn memory_bytes(&self) -> u64;

    /// Number of indexed vectors.
    fn len(&self) -> usize;

    /// True when the index contains no vectors.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A built index of any type.
#[derive(Debug, Clone)]
pub enum AnnIndex {
    Flat(FlatIndex),
    Hnsw(HnswIndex),
    /// IVF_FLAT, IVF_SQ8, IVF_PQ, SCANN and AUTOINDEX.
    Ivf(IvfIndex),
}

impl AnnIndex {
    /// Build an index of `kind` over `vectors` (flat, row-major, `dim` wide).
    ///
    /// Returns the index together with deterministic build statistics
    /// (training work + memory), or a [`BuildError`] for invalid parameter
    /// combinations.
    pub fn build(
        kind: IndexType,
        vectors: &[f32],
        dim: usize,
        params: &IndexParams,
        seed: u64,
    ) -> Result<(AnnIndex, BuildStats), BuildError> {
        if dim == 0 || vectors.is_empty() {
            return Err(BuildError::EmptySegment);
        }
        let mut stats = BuildStats::default();
        let idx = match kind {
            IndexType::Flat => AnnIndex::Flat(FlatIndex::build(vectors, dim, &mut stats)),
            IndexType::Hnsw => {
                AnnIndex::Hnsw(HnswIndex::build(vectors, dim, params, seed, &mut stats)?)
            }
            IndexType::IvfFlat
            | IndexType::IvfSq8
            | IndexType::IvfPq
            | IndexType::Scann
            | IndexType::AutoIndex => {
                AnnIndex::Ivf(IvfIndex::build(kind, vectors, dim, params, seed, &mut stats)?)
            }
        };
        stats.memory_bytes = idx.memory_bytes();
        Ok((idx, stats))
    }

    /// The type of this index.
    pub fn kind(&self) -> IndexType {
        match self {
            AnnIndex::Flat(_) => IndexType::Flat,
            AnnIndex::Hnsw(_) => IndexType::Hnsw,
            AnnIndex::Ivf(i) => i.kind(),
        }
    }

    fn as_dyn(&self) -> &dyn VectorIndex {
        match self {
            AnnIndex::Flat(i) => i,
            AnnIndex::Hnsw(i) => i,
            AnnIndex::Ivf(i) => i,
        }
    }
}

impl VectorIndex for AnnIndex {
    fn search(&self, query: &[f32], sp: &SearchParams, cost: &mut SearchCost) -> Vec<Neighbor> {
        self.as_dyn().search(query, sp, cost)
    }

    fn memory_bytes(&self) -> u64 {
        self.as_dyn().memory_bytes()
    }

    fn len(&self) -> usize {
        self.as_dyn().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecdata::{DatasetKind, DatasetSpec};

    /// Recall of each index type must beat random retrieval and FLAT must be
    /// perfect — the basic sanity contract for the whole crate.
    #[test]
    fn all_types_build_and_search() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let params = IndexParams::default().sanitized(ds.dim(), 10);
        let gt = vecdata::ground_truth(&ds, 10);
        for kind in IndexType::ALL {
            let (idx, stats) = AnnIndex::build(kind, ds.raw(), ds.dim(), &params, 99).unwrap();
            assert_eq!(idx.kind(), kind);
            assert_eq!(idx.len(), ds.len());
            assert!(stats.memory_bytes > 0, "{kind} memory");
            let sp = SearchParams::from_params(&params, 10);
            let mut total_recall = 0.0;
            for qi in 0..ds.n_queries() {
                let mut cost = SearchCost::default();
                let res = idx.search(ds.query(qi), &sp, &mut cost);
                assert!(res.len() <= 10);
                assert!(!cost.is_zero(), "{kind} must report cost");
                let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
                total_recall += vecdata::ground_truth::recall(&ids, &gt[qi]);
            }
            let recall = total_recall / ds.n_queries() as f64;
            assert!(recall > 0.3, "{kind} recall too low: {recall}");
            if kind == IndexType::Flat {
                assert!(recall > 0.999, "FLAT must be exact, got {recall}");
            }
        }
    }

    /// The order contract of [`VectorIndex::search`], on rows that each
    /// occur twice so that equal distances are ordered by id.
    #[test]
    fn every_type_returns_hits_in_ascending_neighbor_order() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let half = &ds.raw()[..200 * ds.dim()];
        let rows = [half, half].concat();
        let params = IndexParams::default().sanitized(ds.dim(), 25);
        let sp = SearchParams::from_params(&params, 25);
        for kind in IndexType::ALL {
            let (idx, _) = AnnIndex::build(kind, &rows, ds.dim(), &params, 7).unwrap();
            for qi in 0..8 {
                let hits = idx.search(ds.query(qi), &sp, &mut SearchCost::default());
                assert!(hits.len() > 1, "{kind}");
                assert!(hits.windows(2).all(|w| w[0] < w[1]), "{kind} query {qi}: {hits:?}");
            }
        }
    }

    #[test]
    fn empty_build_fails() {
        let err = AnnIndex::build(IndexType::Flat, &[], 8, &IndexParams::default(), 0);
        assert!(matches!(err, Err(BuildError::EmptySegment)));
    }

    #[test]
    fn zero_nlist_is_refused_before_m_except_by_autoindex() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        // `m = 7` divides no dimension this dataset has: `nlist` is named first.
        assert!(!ds.dim().is_multiple_of(7));
        let params = IndexParams { nlist: 0, m: 7, ..Default::default() };
        for kind in [IndexType::IvfFlat, IndexType::IvfSq8, IndexType::IvfPq, IndexType::Scann] {
            let err = AnnIndex::build(kind, ds.raw(), ds.dim(), &params, 5).err();
            assert_eq!(err, Some(BuildError::InvalidParam("nlist")), "{kind}");
        }
        let (idx, _) = AnnIndex::build(IndexType::AutoIndex, ds.raw(), ds.dim(), &params, 5)
            .expect("AUTOINDEX picks its own nlist");
        assert_eq!(idx.len(), ds.len());
    }

    #[test]
    fn build_is_deterministic() {
        let ds = DatasetSpec::tiny(DatasetKind::KeywordMatch).generate();
        let params = IndexParams::default().sanitized(ds.dim(), 10);
        let sp = SearchParams::from_params(&params, 10);
        for kind in [IndexType::IvfFlat, IndexType::Hnsw, IndexType::Scann] {
            let (a, _) = AnnIndex::build(kind, ds.raw(), ds.dim(), &params, 7).unwrap();
            let (b, _) = AnnIndex::build(kind, ds.raw(), ds.dim(), &params, 7).unwrap();
            let mut ca = SearchCost::default();
            let mut cb = SearchCost::default();
            let ra: Vec<u32> = a.search(ds.query(0), &sp, &mut ca).iter().map(|n| n.id).collect();
            let rb: Vec<u32> = b.search(ds.query(0), &sp, &mut cb).iter().map(|n| n.id).collect();
            assert_eq!(ra, rb, "{kind} results must be deterministic");
            assert_eq!(ca, cb, "{kind} cost must be deterministic");
        }
    }
}
