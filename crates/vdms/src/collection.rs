//! A loaded collection: per-segment indexes plus a growing tail, with
//! scatter-gather top-k search — the simulator's equivalent of a Milvus
//! collection served by query nodes.

use crate::cluster::ClusterSpec;
use crate::config::VdmsConfig;
use crate::cost_model::CostModel;
use crate::error::VdmsError;
use crate::memory::MemoryUsage;
use crate::segment::SegmentLayout;
use anns::cost::{BuildStats, SearchCost};
use anns::index::{AnnIndex, VectorIndex};
use anns::params::SearchParams;
use rayon::prelude::*;
use vecdata::ground_truth::{ExactL2, TopK};
use vecdata::kernel;
use vecdata::{Dataset, Neighbor};

/// Memory budget of the simulated testbed. The paper's server has 125 GB
/// (Table II); we keep the same budget so OOM behaviour matches.
pub const MEMORY_BUDGET_GIB: f64 = 125.0;

/// One sealed segment: its global row offset, its index, and the build
/// stats it cost (kept per segment so the cluster layer can attribute
/// build work to the query node that owns the segment).
#[derive(Debug)]
pub(crate) struct SealedSegment {
    pub(crate) start: usize,
    pub(crate) index: AnnIndex,
    pub(crate) stats: BuildStats,
}

/// Rows scored per kernel block call in [`Collection::scan_growing`]: bounds
/// the temporary score buffer while keeping each call large enough to
/// amortize dispatch.
const SCAN_BLOCK_ROWS: usize = 1024;

/// Feed one sealed segment's hits (segment-relative ids, in the
/// ascending order [`VectorIndex::search`] promises) into the merge
/// selector under their global ids, stopping at the first one it
/// rejects: the selector's threshold never rises and the hits only get
/// worse, so every later one would be rejected too. Not for unsorted
/// candidates — [`Collection::scan_growing`] pushes every row.
fn merge_hits(merged: &mut TopK, start: usize, hits: &[Neighbor]) {
    for n in hits {
        if !merged.push(n.id + start as u32, n.distance) {
            break;
        }
    }
}

/// A collection loaded under a specific [`VdmsConfig`].
#[derive(Debug)]
pub struct Collection<'a> {
    pub(crate) dataset: &'a Dataset,
    config: VdmsConfig,
    layout: SegmentLayout,
    pub(crate) sealed: Vec<SealedSegment>,
    /// Aggregated build statistics (training work, measured index bytes).
    pub build_stats: BuildStats,
    /// Memory accounting under the virtual row scale.
    pub memory: MemoryUsage,
}

impl<'a> Collection<'a> {
    /// Ingest the dataset under `config`: plan segments, build one index per
    /// sealed segment, leave the tail growing.
    ///
    /// Fails with [`VdmsError::Build`] on invalid index parameters and
    /// [`VdmsError::OutOfMemory`] when the accounted memory exceeds the
    /// testbed budget.
    pub fn load(
        dataset: &'a Dataset,
        config: &VdmsConfig,
        seed: u64,
    ) -> Result<Collection<'a>, VdmsError> {
        Collection::load_with_budget(dataset, config, seed, MEMORY_BUDGET_GIB)
    }

    /// [`Collection::load`] against an explicit memory budget. The cluster
    /// layer passes its *aggregate* capacity here (per-shard budgets are
    /// enforced separately during placement), so a cluster provisioned
    /// beyond the single-node testbed can actually use its memory.
    pub(crate) fn load_with_budget(
        dataset: &'a Dataset,
        config: &VdmsConfig,
        seed: u64,
        budget_gib: f64,
    ) -> Result<Collection<'a>, VdmsError> {
        let dim = dataset.dim();
        let layout = SegmentLayout::plan(dataset.len(), &config.system);
        // Sealed segments are independent, so their indexes build in
        // parallel. Per-segment RNG seeds are derived from the segment
        // index exactly as in the serial path, and results are collected in
        // segment order (first build error in segment order wins), so the
        // parallel build is bit-identical to the serial one.
        let jobs: Vec<(usize, (usize, usize))> =
            layout.sealed.iter().copied().enumerate().collect();
        let built: Result<Vec<(AnnIndex, BuildStats)>, VdmsError> = jobs
            .par_iter()
            .map(|&(i, (start, end))| {
                let rows = &dataset.raw()[start * dim..end * dim];
                AnnIndex::build(
                    config.index_type,
                    rows,
                    dim,
                    &config.index,
                    seed.wrapping_add(i as u64),
                )
                .map_err(VdmsError::from)
            })
            .collect();
        let mut sealed = Vec::with_capacity(layout.sealed.len());
        let mut build_stats = BuildStats::default();
        for ((index, stats), &(start, _)) in built?.into_iter().zip(&layout.sealed) {
            build_stats.add(&stats);
            sealed.push(SealedSegment { start, index, stats });
        }
        let measured_index_bytes: u64 = sealed.iter().map(|s| s.index.memory_bytes()).sum();
        let memory =
            MemoryUsage::account(&layout, &config.system, measured_index_bytes, (dim * 4) as u64);
        if memory.total_gib() > budget_gib {
            return Err(VdmsError::OutOfMemory { required_gib: memory.total_gib(), budget_gib });
        }
        Ok(Collection { dataset, config: *config, layout, sealed, build_stats, memory })
    }

    /// The segment layout this collection was loaded with.
    pub fn layout(&self) -> &SegmentLayout {
        &self.layout
    }

    /// The configuration this collection was loaded with.
    pub fn config(&self) -> &VdmsConfig {
        &self.config
    }

    /// Graph traversal on a segment much larger than the cache pays a
    /// random-access premium: every hop is a potential cache/TLB miss. The
    /// factor grows logarithmically past ~2k rows, which is what stops
    /// "one giant HNSW segment" from being a free lunch (and why Milvus
    /// caps segment sizes in practice).
    fn graph_cache_factor(rows: usize) -> f64 {
        1.0 + 0.25 * ((rows.max(1) as f64 / 2048.0).max(1.0)).log2()
    }

    /// Probe one sealed segment: local hits (segment-relative ids) plus its
    /// cost record, with the graph cache premium applied to the traversal
    /// work. The scaled count is *rounded*, not truncated: truncation
    /// dropped up to a full unit of graph_dims per segment, silently
    /// under-charging graph traversal on many-segment layouts.
    fn search_sealed(
        &self,
        si: usize,
        query: &[f32],
        sp: &SearchParams,
    ) -> (Vec<Neighbor>, SearchCost) {
        let mut hits = Vec::new();
        let seg_cost = self.charge_sealed(si, |index, cost| hits = index.search(query, sp, cost));
        (hits, seg_cost)
    }

    /// What one query's visit to sealed segment `si` charges: the segment,
    /// what `probe` charges against its index, and the graph cache premium
    /// on that. The one definition of the charge, for a search and for an
    /// exact replay alike.
    fn charge_sealed(
        &self,
        si: usize,
        probe: impl FnOnce(&AnnIndex, &mut SearchCost),
    ) -> SearchCost {
        let seg = &self.sealed[si];
        let (start, end) = self.layout.sealed[si];
        debug_assert_eq!(seg.start, start);
        let mut seg_cost = SearchCost { segments: 1, ..Default::default() };
        probe(&seg.index, &mut seg_cost);
        seg_cost.graph_dims = Self::scale_graph_dims(seg_cost.graph_dims, end - start);
        seg_cost
    }

    /// Apply the graph cache premium to a traversal work count, rounding to
    /// the nearest unit (see [`Collection::search_sealed`]).
    fn scale_graph_dims(raw: u64, rows: usize) -> u64 {
        (raw as f64 * Self::graph_cache_factor(rows)).round() as u64
    }

    /// Brute-force scan of the growing tail (exactly like Milvus'
    /// growing-segment scan), pushing candidates into the caller's merge
    /// selector and charging `cost`. No-op when nothing is growing.
    ///
    /// The tail rows are contiguous in the dataset's raw storage, so the
    /// scan block-scores [`SCAN_BLOCK_ROWS`] rows at a time through the
    /// dispatched kernel. Every row is pushed, in id order: the selector
    /// already holds the sealed segments' hits, and the rows are not sorted
    /// by distance, so neither score-then-select nor an early exit applies.
    fn scan_growing(&self, query: &[f32], merged: &mut TopK, cost: &mut SearchCost) {
        if self.layout.growing_rows() == 0 {
            return;
        }
        self.charge_growing(cost);
        let dim = self.dataset.dim();
        let kern = kernel::active();
        let raw = &self.dataset.raw()[self.layout.growing_start * dim..self.layout.n * dim];
        let mut scores = Vec::with_capacity(SCAN_BLOCK_ROWS);
        let mut base = self.layout.growing_start;
        for block in raw.chunks(SCAN_BLOCK_ROWS * dim) {
            kern.l2_sq_block(query, block, dim, &mut scores);
            for (j, &d) in scores.iter().enumerate() {
                merged.push((base + j) as u32, d);
            }
            base += block.len() / dim;
        }
    }

    /// What one query's scan of the growing tail charges: the segment, and
    /// every row scored and pushed; nothing when nothing is growing. The
    /// one definition of the charge, for a search and for an exact replay
    /// alike.
    fn charge_growing(&self, cost: &mut SearchCost) {
        let rows = self.layout.growing_rows();
        if rows > 0 {
            cost.segments += 1;
            cost.f32_dims += (rows * self.dataset.dim()) as u64;
            cost.heap_pushes += rows as u64;
        }
    }

    /// One query's per-local-shard charges on an **exact** collection —
    /// every sealed segment FLAT, or nothing sealed — with the memo that
    /// holds every query's answer ([`Dataset::exact_l2`]); `None` for an
    /// approximate collection (before the memo is touched) or when the
    /// memo declines. The charges are those [`Collection::scatter_gather`]
    /// makes, through the same definitions, and the FLAT segments' scans
    /// plus the merge keep what one scan over all rows keeps
    /// (ARCHITECTURE.md, "Where a replay goes"), so reading the memo is a
    /// replay that scans nothing.
    fn exact_charges(
        &self,
        top_k: usize,
        shards: usize,
        shard_of: impl Fn(usize) -> usize,
    ) -> Option<(Vec<SearchCost>, &'a ExactL2)> {
        let mut costs = vec![SearchCost::default(); shards];
        for si in 0..self.sealed.len() {
            let AnnIndex::Flat(flat) = &self.sealed[si].index else {
                return None;
            };
            costs[shard_of(si)].add(&self.charge_sealed(si, |_, cost| flat.charge_search(cost)));
        }
        self.charge_growing(&mut costs[0]);
        Some((costs, self.dataset.exact_l2(top_k)?))
    }

    /// Scatter-gather top-k search: query every sealed segment's index plus
    /// the growing tail (brute force, exactly like Milvus' growing-segment
    /// scan), then merge by reported distance.
    pub fn search(&self, query: &[f32], top_k: usize, cost: &mut SearchCost) -> Vec<Neighbor> {
        self.scatter_gather(query, top_k, std::slice::from_mut(cost), |_| 0)
    }

    /// The one scatter-gather of the simulator, for a single node and for
    /// one replica group of a cluster alike: probe every sealed segment
    /// concurrently (the query-node fan-out of a real VDMS), charging
    /// segment `i`'s work to `costs[shard_of(i)]`, merge the partials in
    /// global segment order — the same push sequence as a serial probe, so
    /// the results never depend on placement or thread count — then scan
    /// the growing tail on the delegator, `costs[0]`. The replay of an
    /// exact collection reads the dataset's memo instead, and is held to
    /// this scan by `tests/metamorphic.rs`.
    pub(crate) fn scatter_gather(
        &self,
        query: &[f32],
        top_k: usize,
        costs: &mut [SearchCost],
        shard_of: impl Fn(usize) -> usize,
    ) -> Vec<Neighbor> {
        let sp = SearchParams::from_params(&self.config.index, top_k);
        let per_segment: Vec<(Vec<Neighbor>, SearchCost)> = (0..self.sealed.len())
            .into_par_iter()
            .map(|si| self.search_sealed(si, query, &sp))
            .collect();
        let mut merged = TopK::new(top_k);
        for (si, (hits, seg_cost)) in per_segment.into_iter().enumerate() {
            merge_hits(&mut merged, self.sealed[si].start, &hits);
            costs[shard_of(si)].add(&seg_cost);
        }
        self.scan_growing(query, &mut merged, &mut costs[0]);
        merged.into_sorted()
    }

    /// Run every query in the dataset once; returns the summed per-query
    /// cost and the per-query result id lists (for recall measurement).
    pub fn run_queries(&self, top_k: usize) -> (SearchCost, Vec<Vec<u32>>) {
        let (totals, results) = self.replay(top_k, &ClusterSpec::new(1), |_| 0);
        (totals[0], results)
    }

    /// The one per-query loop: run every query once against `spec`'s
    /// replica groups, routing query `qi` to group `qi % spec.replicas`
    /// (round-robin) and charging sealed segment `i` to that group's local
    /// shard `shard_of(i)`. Returns the accumulated per-**node** costs
    /// (`spec.nodes()` of them, group-major) and the per-query result ids.
    /// An exact collection reads every answer from the dataset's memo and
    /// charges each query what its scatter-gather would
    /// ([`Collection::exact_charges`]); otherwise queries execute in
    /// parallel. The route is a pure function of the query index, and
    /// costs and results are folded in query order, so the output is
    /// identical for any thread count.
    pub(crate) fn replay(
        &self,
        top_k: usize,
        spec: &ClusterSpec,
        shard_of: impl Fn(usize) -> usize + Sync,
    ) -> (Vec<SearchCost>, Vec<Vec<u32>>) {
        let n_queries = self.dataset.n_queries();
        let mut totals = vec![SearchCost::default(); spec.nodes()];
        let mut charge = |qi: usize, costs: &[SearchCost]| {
            let group = qi % spec.replicas;
            for (j, c) in costs.iter().enumerate() {
                totals[group * spec.shards + j].add(c);
            }
        };
        let results = if let Some((costs, exact)) =
            self.exact_charges(top_k, spec.shards, &shard_of)
        {
            (0..n_queries)
                .map(|qi| {
                    charge(qi, &costs);
                    exact.query(qi).to_vec()
                })
                .collect()
        } else {
            let per_query: Vec<(Vec<SearchCost>, Vec<u32>)> = (0..n_queries)
                .into_par_iter()
                .map(|qi| {
                    let mut costs = vec![SearchCost::default(); spec.shards];
                    let res =
                        self.scatter_gather(self.dataset.query(qi), top_k, &mut costs, &shard_of);
                    (costs, res.into_iter().map(|n| n.id).collect())
                })
                .collect();
            per_query
                .into_iter()
                .enumerate()
                .map(|(qi, (costs, ids))| {
                    charge(qi, &costs);
                    ids
                })
                .collect()
        };
        (totals, results)
    }

    /// Simulated seconds spent loading + building this collection.
    pub fn build_and_load_secs(&self, model: &CostModel) -> f64 {
        model.build_secs(self.build_stats.train_dims, &self.config.system)
            + model.load_secs(self.dataset.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system_params::SystemParams;
    use anns::params::IndexType;
    use vecdata::ground_truth::top_k_of_scan;
    use vecdata::{DatasetKind, DatasetSpec};

    fn tiny_with(sys: SystemParams, index_type: IndexType) -> VdmsConfig {
        let mut c = VdmsConfig::default_for(index_type);
        c.system = sys;
        c.sanitized(16, 10)
    }

    #[test]
    fn global_ids_are_correct() {
        // Query = an exact base vector; the merged result must return its
        // *global* id regardless of which segment holds it.
        let ds = DatasetSpec { n: 4000, ..DatasetSpec::tiny(DatasetKind::Glove) }.generate();
        let sys = SystemParams {
            segment_max_size_mb: 64.0, // 1024 rows/segment at seal=1.0
            segment_seal_proportion: 1.0,
            ..Default::default()
        };
        let cfg = tiny_with(sys, IndexType::Flat);
        let col = Collection::load(&ds, &cfg, 1).unwrap();
        assert!(col.layout().sealed_count() >= 3, "want multiple segments");
        for probe in [5usize, 1500, 3999] {
            let mut cost = SearchCost::default();
            let res = col.search(ds.vector(probe), 1, &mut cost);
            assert_eq!(res[0].id as usize, probe, "exact self-match must win");
        }
    }

    #[test]
    fn growing_tail_is_searched() {
        // Layout with everything growing: FLAT-quality recall, no index.
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate(); // 600 rows
        let sys = SystemParams {
            segment_max_size_mb: 2048.0,
            segment_seal_proportion: 1.0,
            insert_buf_size_mb: 2048.0,
            ..Default::default()
        };
        let cfg = tiny_with(sys, IndexType::Hnsw);
        let col = Collection::load(&ds, &cfg, 1).unwrap();
        assert_eq!(col.layout().sealed_count(), 0);
        assert_eq!(col.layout().growing_rows(), 600);
        let mut cost = SearchCost::default();
        let res = col.search(ds.vector(42), 1, &mut cost);
        assert_eq!(res[0].id, 42);
        assert_eq!(cost.segments, 1);
        assert!(cost.graph_hops == 0, "no index should be consulted");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 256 } else { 2048 }
        ))]

        /// `merge_hits` against pushing every hit: tied and special
        /// distances, a segment whose hits are all NaN, `top_k` below, at
        /// and above the number of rows, then an unsorted growing tail.
        #[test]
        fn stopping_at_the_first_rejected_hit_changes_no_merge(
            seed in 0u64..u64::MAX,
            segments in 1usize..8,
            top_k in 1usize..60,
            special_16ths in 0u64..6,
        ) {
            use proptest::panel::SPECIAL_F32;
            let mut rng = proptest::TestRng::from_seed(seed);
            let pool: Vec<f32> = (0..4).map(|_| (rng.unit_f64() * 3.0 - 1.0) as f32).collect();
            let mut scores = |rows: usize, nan: bool| -> Vec<f32> {
                (0..rows)
                    .map(|_| match rng.below(16) {
                        _ if nan => f32::NAN,
                        r if r < special_16ths => SPECIAL_F32[rng.below(6) as usize],
                        _ => pool[rng.below(4) as usize],
                    })
                    .collect()
            };
            let (mut early, mut every) = (TopK::new(top_k), TopK::new(top_k));
            let mut start = 0usize;
            for s in 0..segments {
                let rows = scores(1 + (s * 5 + seed as usize % 11) % 17, s == 2);
                let hits = top_k_of_scan(0, &rows, top_k);
                merge_hits(&mut early, start, &hits);
                for n in &hits {
                    every.push(n.id + start as u32, n.distance);
                }
                start += rows.len();
            }
            for (j, d) in scores(5, false).into_iter().enumerate() {
                early.push((start + j) as u32, d);
                every.push((start + j) as u32, d);
            }
            let bits = |top: TopK| -> Vec<(u32, u32)> {
                top.into_sorted().iter().map(|n| (n.id, n.distance.to_bits())).collect()
            };
            proptest::prop_assert_eq!(early.threshold().to_bits(), every.threshold().to_bits());
            proptest::prop_assert_eq!(bits(early), bits(every));
        }
    }

    #[test]
    fn segment_count_reflected_in_cost() {
        let ds = DatasetSpec { n: 4000, ..DatasetSpec::tiny(DatasetKind::Glove) }.generate();
        let sys = SystemParams {
            segment_max_size_mb: 64.0,
            segment_seal_proportion: 1.0,
            insert_buf_size_mb: 2048.0,
            ..Default::default()
        };
        let cfg = tiny_with(sys, IndexType::IvfFlat);
        let col = Collection::load(&ds, &cfg, 1).unwrap();
        let mut cost = SearchCost::default();
        col.search(ds.query(0), 10, &mut cost);
        let expected =
            col.layout().sealed_count() as u64 + u64::from(col.layout().growing_rows() > 0);
        assert_eq!(cost.segments, expected);
    }

    #[test]
    fn graph_cost_scaling_rounds_to_nearest() {
        // 4096-row segment → cache factor 1 + 0.25·log2(2) = 1.25 exactly.
        // Truncation used to drop the fraction: 3·1.25 = 3.75 must report 4
        // graph-dim units (and 2·1.25 = 2.5 rounds half away from zero).
        assert_eq!(Collection::scale_graph_dims(3, 4096), 4);
        assert_eq!(Collection::scale_graph_dims(2, 4096), 3);
        // At or below the 2048-row cache knee the factor is exactly 1.
        assert_eq!(Collection::scale_graph_dims(7, 2048), 7);
        assert_eq!(Collection::scale_graph_dims(0, 1 << 20), 0);
    }

    #[test]
    fn invalid_index_params_fail_load() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let mut cfg = VdmsConfig::default_for(IndexType::IvfPq);
        cfg.index.m = 7; // 16 % 7 != 0 — deliberately NOT sanitized
        cfg.system = SystemParams {
            segment_max_size_mb: 64.0,
            segment_seal_proportion: 0.1,
            ..Default::default()
        };
        let err = Collection::load(&ds, &cfg, 1);
        assert!(matches!(err, Err(VdmsError::Build(_))));
    }

    #[test]
    fn run_queries_returns_all() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let cfg = tiny_with(SystemParams::default(), IndexType::AutoIndex);
        let col = Collection::load(&ds, &cfg, 1).unwrap();
        let (total, results) = col.run_queries(10);
        assert_eq!(results.len(), ds.n_queries());
        assert!(!total.is_zero());
    }
}
