//! The inverted-file (IVF) family as one index: IVF_FLAT, IVF_SQ8, IVF_PQ,
//! SCANN and AUTOINDEX are each a coarse k-means quantizer over posting
//! lists ([`IvfLists`]), and differ only in what a list row holds and how
//! it is scored ([`IvfIndex`]):
//!
//! | Index       | A list row holds                                  | Scored by                  |
//! |-------------|---------------------------------------------------|----------------------------|
//! | `IVF_FLAT`  | the raw vector                                    | `l2_sq_block`              |
//! | `IVF_SQ8`   | `dim` bytes of [`ScalarQuantizer`] code           | `sq8_l2_block`             |
//! | `IVF_PQ`    | `m` bytes of [`ProductQuantizer`] code            | the query's ADC table      |
//! | `SCANN`     | 4-bit PQ codes over ~2-dim subspaces              | ADC, then an exact re-rank |
//! | `AUTOINDEX` | as `IVF_SQ8`, at a heuristic `nlist` and `nprobe` | `sq8_l2_block`             |
//!
//! SCANN stands in for Google's ScaNN without its anisotropic quantization
//! loss: what matters for tuning — a cheap lossy scan whose recall the
//! exact re-rank of the best `reorder_k` candidates recovers, with
//! `nlist`/`nprobe` setting the partition trade-off — is kept (documented
//! substitution, see ARCHITECTURE.md, "What is real and what is
//! modelled").
//!
//! AUTOINDEX is Milvus' "no knobs" option: it picks an index and hides its
//! parameters (Table I lists them as N/A). On CPU deployments it favours
//! quantization for ingest and build efficiency, so here it is an IVF_SQ8
//! whose `nlist` follows the usual `~4·√n` rule and whose `nprobe` is
//! fixed: the tuner can select AUTOINDEX but cannot tune it, as in the
//! paper. Those heuristic quantized defaults are also what leave the
//! paper's `Default` baseline its recall headroom (Table IV).

use crate::cost::{BuildStats, SearchCost};
use crate::index::{BuildError, VectorIndex};
use crate::ivf_pq::{with_pq_scratch, PqScratch, ProductQuantizer};
use crate::ivf_sq8::ScalarQuantizer;
use crate::kmeans::{assign_nearest, assign_pruned, KMeans};
use crate::params::{nearest_divisor, IndexParams, IndexType, SearchParams};
use std::ops::Range;
use vecdata::distance::l2_sq;
use vecdata::ground_truth::TopK;
use vecdata::kernel;
use vecdata::rng::rng;
use vecdata::Neighbor;

/// Coarse quantizer + posting lists in CSR form: list `c` holds the local
/// row ids `ids[offsets[c]..offsets[c + 1]]`, ascending. A search pushes a
/// list's rows in that order, which is what keeps its hits those of a
/// per-id scan (ARCHITECTURE.md, "What `TopK` keeps").
#[derive(Debug, Clone)]
pub struct IvfLists {
    pub quantizer: KMeans,
    /// `quantizer.k + 1` offsets into `ids`.
    pub offsets: Vec<usize>,
    /// Every row id once, grouped by list.
    pub ids: Vec<u32>,
}

impl IvfLists {
    /// Train the coarse quantizer and assign every vector to its list.
    pub fn build(
        vectors: &[f32],
        dim: usize,
        nlist: usize,
        seed: u64,
        stats: &mut BuildStats,
    ) -> IvfLists {
        let n = vectors.len() / dim;
        let (quantizer, last) = KMeans::train_with(&mut rng(seed), vectors, dim, nlist, stats);
        // A sample that was the whole segment leaves every row's previous
        // centroid, so the list pass is a pruned one.
        let nearest = match last {
            Some(mut assign) => {
                assign_pruned(vectors, &quantizer.centroids, dim, &mut assign);
                assign
            }
            None => {
                let mut nearest = vec![0u32; n];
                assign_nearest(vectors, &quantizer.centroids, dim, &mut nearest);
                nearest
            }
        };
        stats.train_dims += (n * quantizer.k * dim) as u64; // assignment pass
        Self::from_assignment(quantizer, &nearest)
    }

    /// The lists of row `i` in list `assign[i]`: a counting sort, so ids
    /// ascend within each list.
    fn from_assignment(quantizer: KMeans, assign: &[u32]) -> IvfLists {
        let mut offsets = vec![0usize; quantizer.k + 1];
        for &c in assign {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..quantizer.k {
            offsets[c + 1] += offsets[c];
        }
        let mut next = offsets.clone();
        let mut ids = vec![0u32; assign.len()];
        for (i, &c) in assign.iter().enumerate() {
            ids[next[c as usize]] = i as u32;
            next[c as usize] += 1;
        }
        IvfLists { quantizer, offsets, ids }
    }

    /// Total number of indexed vectors.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no vector is indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Row range of list `c`: into `ids` and, scaled by the row width, into
    /// payloads made by [`IvfLists::gather`].
    #[inline]
    pub fn range(&self, c: usize) -> Range<usize> {
        self.offsets[c]..self.offsets[c + 1]
    }

    /// Ids of list `c`, ascending.
    #[inline]
    pub fn list(&self, c: usize) -> &[u32] {
        &self.ids[self.range(c)]
    }

    /// `width`-wide rows of `data` in list order: row `j` of the result is
    /// the row of `ids[j]`.
    pub fn gather<T: Copy>(&self, data: &[T], width: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(self.ids.len() * width);
        for &id in &self.ids {
            out.extend_from_slice(&data[id as usize * width..(id as usize + 1) * width]);
        }
        out
    }

    /// Memory of the list structure itself (ids + centroids).
    pub fn memory_bytes(&self) -> u64 {
        ((self.ids.len() + self.quantizer.centroids.len()) * 4) as u64
    }
}

/// `(nlist, nprobe)` of AUTOINDEX over `n` vectors: nlist ≈ 4·√n (the rule
/// of thumb in the Milvus/FAISS docs), probing a small fixed share of the
/// lists.
pub(crate) fn autoindex_heuristic(n: usize) -> (usize, usize) {
    let nlist = ((4.0 * (n as f64).sqrt()) as usize).clamp(16, 1024);
    (nlist, (nlist / 48).max(2))
}

/// What the list rows hold; row `j` encodes the vector of `lists.ids[j]`.
#[derive(Debug, Clone)]
enum ListCodes {
    /// Raw vectors, `dim` floats a row.
    Flat(Vec<f32>),
    /// SQ8 codes, `dim` bytes a row.
    Sq8(ScalarQuantizer, Vec<u8>),
    /// PQ codes, `m` bytes a row.
    Pq(ProductQuantizer, Vec<u8>),
    /// PQ codes, and the raw vectors in id order for the re-rank.
    Scann(ProductQuantizer, Vec<u8>, Vec<f32>),
}

/// An index of the IVF family (see the module docs).
#[derive(Debug, Clone)]
pub struct IvfIndex {
    kind: IndexType,
    dim: usize,
    lists: IvfLists,
    codes: ListCodes,
    /// AUTOINDEX's `nprobe`, used whatever the search asks for.
    fixed_nprobe: Option<usize>,
}

impl IvfIndex {
    /// Build a `kind` index over `vectors`. `nlist = 0` is refused before
    /// any PQ parameter is looked at; AUTOINDEX ignores `params`.
    ///
    /// # Panics
    ///
    /// When `kind` is FLAT or HNSW.
    pub fn build(
        kind: IndexType,
        vectors: &[f32],
        dim: usize,
        params: &IndexParams,
        seed: u64,
        stats: &mut BuildStats,
    ) -> Result<IvfIndex, BuildError> {
        let n = vectors.len() / dim;
        let nlist = match kind {
            IndexType::AutoIndex => autoindex_heuristic(n).0,
            _ if params.nlist == 0 => return Err(BuildError::InvalidParam("nlist")),
            _ => params.nlist,
        };
        let lists = IvfLists::build(vectors, dim, nlist, seed, stats);
        let pq = match kind {
            IndexType::IvfPq => Some((params.m, params.nbits, seed ^ 0x9051)),
            // SCANN uses aggressive 4-bit codes over ~2-dim subspaces.
            IndexType::Scann => Some((nearest_divisor(dim, (dim / 2).max(1)), 4, seed ^ 0x5CA1)),
            _ => None,
        };
        let pq = match pq {
            Some((m, nbits, pq_seed)) => {
                let pq = ProductQuantizer::train(vectors, dim, m, nbits, pq_seed, stats)?;
                let mut codes = vec![0u8; n * pq.m];
                pq.encode(vectors, &mut codes);
                stats.train_dims += (n * pq.m * pq.ksub * pq.dsub) as u64; // encode pass
                Some((pq, codes))
            }
            None => None,
        };
        Ok(Self::from_parts(kind, vectors, dim, lists, pq, stats))
    }

    /// The index over built lists and, for IVF_PQ and SCANN, the trained
    /// quantizer with every vector's code (`m` bytes each, in id order).
    /// Trains and encodes the SQ8 codes itself.
    pub(crate) fn from_parts(
        kind: IndexType,
        vectors: &[f32],
        dim: usize,
        lists: IvfLists,
        pq: Option<(ProductQuantizer, Vec<u8>)>,
        stats: &mut BuildStats,
    ) -> IvfIndex {
        let codes = match (kind, pq) {
            (IndexType::IvfFlat, None) => ListCodes::Flat(lists.gather(vectors, dim)),
            (IndexType::IvfSq8 | IndexType::AutoIndex, None) => {
                let sq = ScalarQuantizer::train(vectors, dim);
                let mut codes = vec![0u8; vectors.len()];
                for (v, code) in vectors.chunks_exact(dim).zip(codes.chunks_exact_mut(dim)) {
                    sq.encode(v, code);
                }
                stats.train_dims += vectors.len() as u64; // encode pass
                ListCodes::Sq8(sq, lists.gather(&codes, dim))
            }
            (IndexType::IvfPq, Some((pq, codes))) => {
                let codes = lists.gather(&codes, pq.m);
                ListCodes::Pq(pq, codes)
            }
            (IndexType::Scann, Some((pq, codes))) => {
                let codes = lists.gather(&codes, pq.m);
                ListCodes::Scann(pq, codes, vectors.to_vec())
            }
            (kind, _) => panic!("{kind} is not an IVF-family build"),
        };
        let fixed_nprobe =
            (kind == IndexType::AutoIndex).then(|| autoindex_heuristic(vectors.len() / dim).1);
        IvfIndex { kind, dim, lists, codes, fixed_nprobe }
    }

    /// The type this index was built as.
    pub fn kind(&self) -> IndexType {
        self.kind
    }

    /// Scores of list rows `rows` against `query` into `out`, charged to
    /// `cost`; `table` is the query's ADC table when the codes are PQ.
    fn score(
        &self,
        query: &[f32],
        table: &[f32],
        rows: Range<usize>,
        out: &mut Vec<f32>,
        cost: &mut SearchCost,
    ) {
        let (n, dim) = (rows.len(), self.dim);
        let kern = kernel::active();
        match &self.codes {
            ListCodes::Flat(data) => {
                kern.l2_sq_block(query, &data[rows.start * dim..rows.end * dim], dim, out);
                cost.f32_dims += (n * dim) as u64;
            }
            ListCodes::Sq8(sq, codes) => {
                let codes = &codes[rows.start * dim..rows.end * dim];
                kern.sq8_l2_block(query, codes, &sq.mins, &sq.scales, dim, out);
                cost.u8_dims += (n * dim) as u64;
            }
            ListCodes::Pq(pq, codes) | ListCodes::Scann(pq, codes, _) => {
                let codes = &codes[rows.start * pq.m..rows.end * pq.m];
                out.clear();
                out.extend(codes.chunks_exact(pq.m).map(|code| pq.adc_distance(table, code)));
                cost.pq_lookups += (n * pq.m) as u64;
            }
        }
    }
}

impl VectorIndex for IvfIndex {
    fn search(&self, query: &[f32], sp: &SearchParams, cost: &mut SearchCost) -> Vec<Neighbor> {
        let nprobe = self.fixed_nprobe.unwrap_or(sp.nprobe);
        let probes = self.lists.quantizer.nearest_n(query, nprobe, &mut cost.f32_dims);
        if probes.is_empty() {
            // An empty segment's quantizer: no list to scan, no table to build.
            return Vec::new();
        }
        let (pq, raw) = match &self.codes {
            ListCodes::Pq(pq, _) => (Some(pq), None),
            ListCodes::Scann(pq, _, raw) => (Some(pq), Some(raw)),
            ListCodes::Flat(_) | ListCodes::Sq8(..) => (None, None),
        };
        // SCANN keeps `reorder_k` candidates for the re-rank.
        let mut top = TopK::new(if raw.is_some() { sp.reorder_k.max(sp.top_k) } else { sp.top_k });
        with_pq_scratch(|PqScratch { table, scores }| {
            if let Some(pq) = pq {
                pq.adc_table_into(query, table, scores, cost);
            }
            for c in probes {
                cost.lists_probed += 1;
                let ids = self.lists.list(c);
                cost.heap_pushes += ids.len() as u64;
                self.score(query, table, self.lists.range(c), scores, cost);
                for (&id, &d) in ids.iter().zip(scores.iter()) {
                    top.push(id, d);
                }
            }
        });
        let Some(raw) = raw else {
            return top.into_sorted();
        };
        // SCANN's second pass: exact re-ranking of the survivors.
        let mut exact = TopK::new(sp.top_k);
        for cand in top.into_sorted() {
            let v = &raw[cand.id as usize * self.dim..(cand.id as usize + 1) * self.dim];
            cost.add_f32_distance(self.dim);
            exact.push(cand.id, l2_sq(query, v));
        }
        exact.into_sorted()
    }

    fn memory_bytes(&self) -> u64 {
        let codes = match &self.codes {
            ListCodes::Flat(data) => (data.len() * 4) as u64,
            ListCodes::Sq8(sq, codes) => (codes.len() + sq.mins.len() * 8) as u64,
            ListCodes::Pq(pq, codes) => codes.len() as u64 + pq.memory_bytes(),
            ListCodes::Scann(pq, codes, raw) => {
                (codes.len() + raw.len() * 4) as u64 + pq.memory_bytes()
            }
        };
        self.lists.memory_bytes() + codes
    }

    fn len(&self) -> usize {
        self.lists.len()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vecdata::{ground_truth, DatasetKind, DatasetSpec};

    fn build(kind: IndexType, ds: &vecdata::Dataset, params: &IndexParams, seed: u64) -> IvfIndex {
        let mut stats = BuildStats::default();
        IvfIndex::build(kind, ds.raw(), ds.dim(), params, seed, &mut stats).unwrap()
    }

    fn recall(ds: &vecdata::Dataset, idx: &IvfIndex, sp: &SearchParams) -> f64 {
        let gt = ground_truth(ds, 10);
        let mut acc = 0.0;
        for qi in 0..ds.n_queries() {
            let mut cost = SearchCost::default();
            let ids: Vec<u32> =
                idx.search(ds.query(qi), sp, &mut cost).iter().map(|n| n.id).collect();
            acc += vecdata::ground_truth::recall(&ids, &gt[qi]);
        }
        acc / ds.n_queries() as f64
    }

    #[test]
    fn all_vectors_assigned_exactly_once() {
        let mut data = Vec::new();
        for i in 0..200 {
            data.push(i as f32);
            data.push((i % 7) as f32);
        }
        let mut stats = BuildStats::default();
        let ivf = IvfLists::build(&data, 2, 8, 3, &mut stats);
        assert_eq!(ivf.len(), 200);
        let mut seen = [false; 200];
        for &id in &ivf.ids {
            assert!(!seen[id as usize], "id {id} assigned twice");
            seen[id as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn grouped_lists_preserve_order_and_payloads() {
        let lists = [vec![2u32, 5], vec![], vec![0, 1, 4], vec![3]];
        let quantizer = KMeans { k: 4, dim: 2, centroids: vec![0.0; 8] };
        let g = IvfLists::from_assignment(quantizer, &[2, 2, 0, 3, 2, 0]);
        assert_eq!(g.offsets, [0, 2, 2, 5, 6]);
        assert_eq!(g.len(), 6);
        for (c, list) in lists.iter().enumerate() {
            assert_eq!(g.list(c), list.as_slice());
            assert!(g.list(c).windows(2).all(|w| w[0] < w[1]), "list {c} ascends");
        }
        // Gathered payload row j belongs to ids[j].
        let data: Vec<f32> = (0..12).map(|x| x as f32).collect(); // 6 rows of dim 2
        let gathered = g.gather(&data, 2);
        for (j, &id) in g.ids.iter().enumerate() {
            assert_eq!(&gathered[j * 2..j * 2 + 2], &data[id as usize * 2..id as usize * 2 + 2]);
        }
        let codes: Vec<u8> = (0..18).collect(); // 6 rows of width 3
        let gathered = g.gather(&codes, 3);
        for (j, &id) in g.ids.iter().enumerate() {
            assert_eq!(&gathered[j * 3..j * 3 + 3], &codes[id as usize * 3..id as usize * 3 + 3]);
        }
        assert_eq!(g.memory_bytes(), 24 + 32, "6 ids and 4 two-float centroids");
    }

    #[test]
    fn vectors_land_in_nearest_list() {
        let mut data = Vec::new();
        for c in [0.0f32, 100.0] {
            for i in 0..20 {
                data.push(c + i as f32 * 0.01);
            }
        }
        let mut stats = BuildStats::default();
        let ivf = IvfLists::build(&data, 1, 2, 5, &mut stats);
        // Two clear clusters: each list should be pure.
        for c in 0..ivf.quantizer.k {
            let list = ivf.list(c);
            if list.is_empty() {
                continue;
            }
            let first_group = list[0] < 20;
            assert!(list.iter().all(|&id| (id < 20) == first_group));
        }
    }

    /// An index of `kind` built over no vectors answers every query with no
    /// hits and charges no work: no list is probed, no row scanned. Each
    /// kind's test calls this from the module of its row format.
    pub(crate) fn assert_empty_build_searches_to_no_hits(kind: IndexType) {
        let params = IndexParams { nlist: 4, m: 2, nbits: 4, ..Default::default() };
        let sp = SearchParams { nprobe: 4, ef: 16, reorder_k: 16, top_k: 10 };
        let mut stats = BuildStats::default();
        let idx = IvfIndex::build(kind, &[], 4, &params, 0, &mut stats).unwrap();
        let mut cost = SearchCost::default();
        assert!(idx.search(&[0.5; 4], &sp, &mut cost).is_empty(), "{kind}");
        assert_eq!(cost, SearchCost::default(), "{kind}: no probe, no scan");
    }

    #[test]
    fn empty_build_searches_to_no_hits() {
        assert_empty_build_searches_to_no_hits(IndexType::IvfFlat);
        assert_empty_build_searches_to_no_hits(IndexType::AutoIndex);
    }

    #[test]
    fn more_probes_more_recall() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let params = IndexParams { nlist: 32, ..Default::default() }.sanitized(ds.dim(), 10);
        let idx = build(IndexType::IvfFlat, &ds, &params, 1);
        let recall_at = |nprobe: usize| {
            recall(&ds, &idx, &SearchParams { nprobe, ef: 100, reorder_k: 100, top_k: 10 })
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
        let idx = build(IndexType::IvfFlat, &ds, &params, 1);
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

    fn scann(ds: &vecdata::Dataset) -> IvfIndex {
        let params = IndexParams { nlist: 16, ..Default::default() }.sanitized(ds.dim(), 10);
        build(IndexType::Scann, ds, &params, 2)
    }

    #[test]
    fn empty_scann_build_searches_to_no_hits() {
        assert_empty_build_searches_to_no_hits(IndexType::Scann);
    }

    #[test]
    fn reorder_recovers_recall() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let idx = scann(&ds);
        let recall_with = |reorder_k: usize| {
            recall(&ds, &idx, &SearchParams { nprobe: 16, ef: 0, reorder_k, top_k: 10 })
        };
        let small = recall_with(10);
        let large = recall_with(200);
        assert!(large >= small, "reorder_k must not hurt recall: {small} -> {large}");
        assert!(large > 0.9, "SCANN with big reorder should be accurate, got {large}");
    }

    #[test]
    fn reorder_cost_visible_in_f32_dims() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let idx = scann(&ds);
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

    #[test]
    fn ignores_search_params() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let idx = build(IndexType::AutoIndex, &ds, &IndexParams::default(), 3);
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
        let idx = build(IndexType::AutoIndex, &ds, &IndexParams::default(), 3);
        let recall = recall(&ds, &idx, &SearchParams { nprobe: 0, ef: 0, reorder_k: 0, top_k: 10 });
        // Heuristic defaults: decent, not perfect — the headroom the tuner
        // exploits in Table IV.
        assert!(recall > 0.3, "recall {recall}");
    }

    #[test]
    fn heuristic_nlist_scales_with_n() {
        let small = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let idx = build(IndexType::AutoIndex, &small, &IndexParams::default(), 3);
        // n=600 → nlist ≈ 4·24.5 ≈ 97, nprobe = max(2, 97/48) = 2.
        assert_eq!(idx.fixed_nprobe, Some(2));
    }
}
