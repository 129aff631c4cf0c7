//! Sharded, replicated multi-node serving: a collection partitioned across
//! simulated query nodes behind a scatter-gather proxy, with optional
//! replica placement and query routing.
//!
//! This is the simulator's equivalent of the proxy / query-node
//! architecture every production VDMS uses (Milvus, and the scatter-gather
//! design described in the *Survey of Vector Database Management Systems*):
//!
//! * the **proxy** receives a query, scatters it to every query node,
//!   gathers the per-node partial top-k results and merges them —
//!   [`ShardedCollection::search`] plays this role, merging in global
//!   segment order so results are **bit-identical** to the single-node
//!   [`Collection`] for any shard count;
//! * each **query node** (shard) hosts a subset of the sealed segments
//!   under its own memory budget ([`ClusterSpec::shard_budget_gib`]);
//!   segment *placement* is balanced round-robin with deterministic
//!   rebalancing — a segment that would blow its preferred node's budget
//!   is moved to the node with the most headroom, and only when **no**
//!   node can host it does the whole configuration fail
//!   ([`VdmsError::ShardOutOfMemory`]);
//! * the **shard delegator** (node 0) additionally serves the growing
//!   (streaming) tail and holds the insert buffer, exactly as Milvus'
//!   delegator serves streaming segments alongside sealed ones.
//!
//! **Replication** ([`ClusterSpec::replicas`]) adds the read-scaling axis
//! real VDMSs use: the cluster becomes `r` *replica groups* of
//! [`ClusterSpec::shards`] nodes each, every sealed segment is placed on
//! `r` distinct nodes (one per group, same deterministic spread within
//! each group), and each query is routed to exactly one group: round-robin
//! over the query index in the batch replay
//! ([`ShardedCollection::run_queries`]), the shortest queue under the
//! serving simulator.
//! Each group's local node 0 is that group's shard delegator — replicas
//! subscribe to the WAL independently, so every group serves the growing
//! tail and pays the insert buffer, exactly like Milvus in-memory
//! replicas. Memory is accounted **per copy**: `r` groups cost `r ×` the
//! group footprint, and the per-node budget shrinks accordingly
//! ([`ClusterSpec::replicated`] splits the testbed `shards · replicas`
//! ways). Placement fails ([`VdmsError::ShardOutOfMemory`]) when no `r`
//! distinct nodes can host a segment — i.e. when the common group
//! placement finds no node with headroom.
//!
//! Search *results* do not depend on sharding, replication or routing:
//! every replica group hosts identical segment data and merging happens in
//! global segment order regardless of placement, so any routed group
//! returns bit-identical neighbors. What the deployment shape changes is
//! the **performance model** — per-shard search costs of the *routed*
//! group feed [`CostModel::cluster_perf`] (straggler latency
//! over the routed nodes + proxy merge + slowest-replica consistency
//! staleness, with fleet-level read-slot scaling), per-node builds and
//! loads proceed in parallel (wall time is the slowest node's), and every
//! node of every group pays its own fixed process overhead. With one shard
//! and one replica all of it reduces bit-exactly to the single-node
//! collection.

use crate::collection::{Collection, MEMORY_BUDGET_GIB};
use crate::config::VdmsConfig;
use crate::cost_model::CostModel;
use crate::error::VdmsError;
use crate::memory::MemoryUsage;
use anns::cost::SearchCost;
use anns::index::VectorIndex;
use vecdata::{Dataset, Neighbor};

/// Shape of a simulated cluster: how many query nodes per replica group,
/// how many replica groups, and how much memory each node may use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of query nodes per replica group (≥ 1).
    pub shards: usize,
    /// Number of replica groups (≥ 1): every sealed segment is hosted on
    /// this many distinct nodes, one per group.
    pub replicas: usize,
    /// Memory budget per query node, GiB.
    pub shard_budget_gib: f64,
}

impl ClusterSpec {
    /// An unreplicated cluster of `shards` nodes splitting the testbed
    /// budget evenly ([`ClusterSpec::replicated`] with one copy):
    /// aggregate capacity stays at [`MEMORY_BUDGET_GIB`], so one node of a
    /// 1-shard cluster is exactly the paper's single-node testbed.
    pub fn new(shards: usize) -> ClusterSpec {
        ClusterSpec::replicated(shards, 1)
    }

    /// A replicated cluster of `replicas` groups × `shards` nodes splitting
    /// the testbed budget across **all** `shards · replicas` nodes — so
    /// replication honestly eats capacity: every copy of the collection
    /// must fit into `1/replicas` of the testbed.
    pub fn replicated(shards: usize, replicas: usize) -> ClusterSpec {
        let shards = shards.max(1);
        let replicas = replicas.max(1);
        ClusterSpec {
            shards,
            replicas,
            shard_budget_gib: MEMORY_BUDGET_GIB / (shards * replicas) as f64,
        }
    }

    /// An unreplicated cluster with an explicit per-node budget (for
    /// tight-memory experiments where the even split would never bind).
    pub fn with_budget(shards: usize, shard_budget_gib: f64) -> ClusterSpec {
        ClusterSpec { shard_budget_gib, ..ClusterSpec::new(shards) }
    }

    /// Total query nodes across all replica groups.
    pub fn nodes(&self) -> usize {
        self.shards * self.replicas
    }

    /// Memory capacity of one replica group — what a single copy of the
    /// collection must fit into.
    pub fn group_budget_gib(&self) -> f64 {
        self.shards as f64 * self.shard_budget_gib
    }

    /// Total memory capacity across all nodes of all groups.
    pub fn aggregate_budget_gib(&self) -> f64 {
        self.nodes() as f64 * self.shard_budget_gib
    }

    /// Clamp a (possibly directly constructed) spec into validity: at
    /// least one shard and one replica. [`ShardedCollection::load`]
    /// applies this, and backends that surface the spec in their metadata
    /// should too, so they report the shape the cluster layer actually
    /// serves.
    pub fn normalized(self) -> ClusterSpec {
        ClusterSpec { shards: self.shards.max(1), replicas: self.replicas.max(1), ..self }
    }
}

/// A collection partitioned across simulated query nodes, optionally
/// replicated across `spec.replicas` identical groups of them.
///
/// Node `n` of the cluster is node `n % shards` of replica group
/// `n / shards`; each group's local node 0 is that group's shard delegator
/// (growing tail + insert buffer).
#[derive(Debug)]
pub struct ShardedCollection<'a> {
    collection: Collection<'a>,
    spec: ClusterSpec,
    /// `assignment[i]` = *local* shard hosting sealed segment `i` within
    /// every replica group (all groups share the placement).
    assignment: Vec<usize>,
    /// Segment indices per local shard, in placement order.
    shard_segments: Vec<Vec<usize>>,
    /// Memory accounting per query node, all `spec.nodes()` of them in
    /// group-major order.
    shard_memory: Vec<MemoryUsage>,
}

impl<'a> ShardedCollection<'a> {
    /// Ingest the dataset under `config` and place the sealed segments
    /// across `spec.shards` query nodes — `spec.replicas` times, one copy
    /// per replica group.
    ///
    /// Fails like [`Collection::load`] (bad index params, OOM — one copy
    /// of the collection is checked against a *group's* capacity
    /// [`ClusterSpec::group_budget_gib`], so a cluster provisioned beyond
    /// the single-node testbed can use it) plus
    /// [`VdmsError::ShardOutOfMemory`] when no node can host a segment —
    /// or the delegator's fixed streaming state — within the per-shard
    /// budget. Because every group shares the placement, a group placement
    /// failure is exactly "no `replicas` distinct nodes fit this segment".
    pub fn load(
        dataset: &'a Dataset,
        config: &VdmsConfig,
        seed: u64,
        spec: ClusterSpec,
    ) -> Result<ShardedCollection<'a>, VdmsError> {
        let spec = spec.normalized();
        let collection =
            Collection::load_with_budget(dataset, config, seed, spec.group_budget_gib())?;
        let (assignment, shard_segments, group_memory) = place(&collection, &spec)?;
        // Every replica group hosts the same placement, so the per-node
        // accounting is the group's, repeated per copy.
        let mut shard_memory = Vec::with_capacity(spec.nodes());
        for _ in 0..spec.replicas {
            shard_memory.extend(group_memory.iter().copied());
        }
        Ok(ShardedCollection { collection, spec, assignment, shard_segments, shard_memory })
    }

    /// The cluster shape this collection was loaded with.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of query nodes per replica group.
    pub fn shards(&self) -> usize {
        self.spec.shards
    }

    /// Number of replica groups.
    pub fn replicas(&self) -> usize {
        self.spec.replicas
    }

    /// Total query nodes across all groups.
    pub fn nodes(&self) -> usize {
        self.spec.nodes()
    }

    /// *Local* shard hosting each sealed segment, in segment order (the
    /// same within every replica group).
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// The distinct cluster nodes hosting copies of sealed segment `i` —
    /// one per replica group, `spec.replicas` in total.
    pub fn replica_nodes(&self, segment: usize) -> Vec<usize> {
        (0..self.spec.replicas).map(|g| g * self.spec.shards + self.assignment[segment]).collect()
    }

    /// Per-node memory accounting, for all [`ShardedCollection::nodes`]
    /// nodes in group-major order.
    pub fn shard_memory(&self) -> &[MemoryUsage] {
        &self.shard_memory
    }

    /// Segments each *local* shard scans per query: its sealed placement,
    /// plus the growing tail on the delegator (shard 0) when streaming
    /// data exists. This is the unit of intra-query parallelism the
    /// shard's reactors divide between themselves
    /// ([`reactor_placement`]) — the input the pinned cost model's
    /// straggler share is computed from.
    pub fn shard_segment_counts(&self) -> Vec<usize> {
        (0..self.spec.shards)
            .map(|s| {
                self.shard_segments[s].len()
                    + usize::from(s == 0 && self.collection.layout().growing_rows() > 0)
            })
            .collect()
    }

    /// The underlying (single-node-equivalent) collection.
    pub fn collection(&self) -> &Collection<'a> {
        &self.collection
    }

    /// Aggregate cluster memory, GiB — the QP$ denominator. More nodes
    /// mean more fixed process overhead, and more replicas mean more
    /// copies, so neither sharding nor replication is free.
    pub fn total_memory_gib(&self) -> f64 {
        let bytes: u64 = self.shard_memory.iter().map(MemoryUsage::total_bytes).sum();
        bytes as f64 / (1u64 << 30) as f64
    }

    /// Proxy-side scatter-gather search within one replica group: probe
    /// every local node's segments, merge partials in **global segment
    /// order** (then the group delegator's growing scan), charging each
    /// local node's work to `shard_costs` (one slot per local shard).
    ///
    /// Every replica group hosts identical data, so results are
    /// bit-identical to [`Collection::search`] for any shard count, any
    /// replication factor, any routed group and any placement; only the
    /// cost attribution differs.
    pub fn search(
        &self,
        query: &[f32],
        top_k: usize,
        shard_costs: &mut [SearchCost],
    ) -> Vec<Neighbor> {
        assert_eq!(shard_costs.len(), self.spec.shards, "one cost slot per local shard");
        self.collection.scatter_gather(query, top_k, shard_costs, |si| self.assignment[si])
    }

    /// Run every query once, routing query `qi` to replica group
    /// `qi % replicas` (round-robin: in the closed batch every group
    /// drains at the same rate, so the shortest queue is the next one in
    /// turn); returns accumulated per-**node** costs (all
    /// [`ShardedCollection::nodes`] of them, group-major) plus the
    /// per-query result id lists, identical for any thread count. With one
    /// replica the node costs are exactly the per-shard costs of the
    /// unreplicated cluster.
    pub fn run_queries(&self, top_k: usize) -> (Vec<SearchCost>, Vec<Vec<u32>>) {
        self.collection.replay(top_k, &self.spec, |si| self.assignment[si])
    }

    /// Simulated seconds to build and load the cluster: all nodes of all
    /// replica groups work in parallel, so wall time is the slowest
    /// node's build + load (each group's delegator also ingests the
    /// growing tail). Replica groups host identical placements, so the
    /// slowest node of one group is the slowest of the fleet — replication
    /// costs memory, not build wall time.
    pub fn build_and_load_secs(&self, model: &CostModel) -> f64 {
        let sys = &self.collection.config().system;
        let layout = self.collection.layout();
        (0..self.spec.shards)
            .map(|s| {
                let train: u64 = self.shard_segments[s]
                    .iter()
                    .map(|&i| self.collection.sealed[i].stats.train_dims)
                    .sum();
                let rows: usize = self.shard_segments[s]
                    .iter()
                    .map(|&i| {
                        let (start, end) = layout.sealed[i];
                        end - start
                    })
                    .sum::<usize>()
                    + if s == 0 { layout.growing_rows() } else { 0 };
                model.build_secs(train, sys) + model.load_secs(rows)
            })
            .fold(0.0, f64::max)
    }
}

/// Deterministic segment → reactor ownership within one query node:
/// round-robin over the node's reactors, a pure function of
/// `(num_segments, reactors)`. This is the single source of truth for
/// which reactor scans which segment — the cost model's straggler-share
/// computation and the serving simulator's per-reactor queues both derive
/// from it, so they can never disagree. Independent of thread count by
/// construction (no state, no iteration order).
pub fn reactor_placement(num_segments: usize, reactors: usize) -> Vec<usize> {
    let reactors = reactors.max(1);
    (0..num_segments).map(|i| i % reactors).collect()
}

/// Memory footprint of shard `s` hosting the given segments.
fn account_shard(col: &Collection<'_>, segs: &[usize], delegator: bool) -> MemoryUsage {
    let layout = col.layout();
    let measured: u64 = segs.iter().map(|&i| col.sealed[i].index.memory_bytes()).sum();
    let max_rows = segs
        .iter()
        .map(|&i| {
            let (start, end) = layout.sealed[i];
            end - start
        })
        .max()
        .unwrap_or(0);
    MemoryUsage::account_query_node(
        layout,
        &col.config().system,
        measured,
        (col.dataset.dim() * 4) as u64,
        max_rows,
        delegator,
    )
}

/// Place sealed segments on query nodes: round-robin preference, with
/// deterministic rebalancing to the least-loaded node when the preferred
/// one would exceed its budget.
#[allow(clippy::type_complexity, reason = "a private helper's three parallel outputs")]
fn place(
    col: &Collection<'_>,
    spec: &ClusterSpec,
) -> Result<(Vec<usize>, Vec<Vec<usize>>, Vec<MemoryUsage>), VdmsError> {
    let shards = spec.shards;
    let budget = spec.shard_budget_gib;
    let mut shard_segments: Vec<Vec<usize>> = vec![Vec::new(); shards];
    let mut totals: Vec<f64> =
        (0..shards).map(|s| account_shard(col, &shard_segments[s], s == 0).total_gib()).collect();
    // The delegator's fixed streaming state (growing tail + insert buffer)
    // and every node's process overhead must fit before any segment does.
    for (s, &t) in totals.iter().enumerate() {
        if t > budget {
            return Err(VdmsError::ShardOutOfMemory {
                shard: s,
                required_gib: t,
                budget_gib: budget,
            });
        }
    }
    let n_seg = col.sealed.len();
    let mut assignment = vec![0usize; n_seg];
    for i in 0..n_seg {
        let pref = i % shards;
        // Candidates: the round-robin preferred node first, then the rest
        // by ascending current load (ties broken by node index) — the
        // "rebalance" path when the preferred node is full.
        let mut others: Vec<usize> = (0..shards).filter(|&s| s != pref).collect();
        others.sort_by(|&a, &b| totals[a].total_cmp(&totals[b]).then(a.cmp(&b)));
        let mut placed = false;
        for s in std::iter::once(pref).chain(others) {
            shard_segments[s].push(i);
            let m = account_shard(col, &shard_segments[s], s == 0);
            if m.total_gib() <= budget {
                totals[s] = m.total_gib();
                assignment[i] = s;
                placed = true;
                break;
            }
            shard_segments[s].pop();
        }
        if !placed {
            let mut tentative = shard_segments[pref].clone();
            tentative.push(i);
            let required = account_shard(col, &tentative, pref == 0).total_gib();
            return Err(VdmsError::ShardOutOfMemory {
                shard: pref,
                required_gib: required,
                budget_gib: budget,
            });
        }
    }
    let shard_memory: Vec<MemoryUsage> =
        (0..shards).map(|s| account_shard(col, &shard_segments[s], s == 0)).collect();
    Ok((assignment, shard_segments, shard_memory))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system_params::SystemParams;
    use anns::params::IndexType;
    use vecdata::{DatasetKind, DatasetSpec};

    /// A layout with several sealed segments plus a growing tail.
    fn multi_segment_setup() -> (Dataset, VdmsConfig) {
        let ds = DatasetSpec { n: 4200, ..DatasetSpec::tiny(DatasetKind::Glove) }.generate();
        let mut cfg = VdmsConfig::default_for(IndexType::IvfFlat);
        cfg.system = SystemParams {
            segment_max_size_mb: 64.0, // 1024 rows/segment at seal=1.0
            segment_seal_proportion: 1.0,
            ..Default::default()
        };
        let cfg = cfg.sanitized(ds.dim(), 10);
        (ds, cfg)
    }

    #[test]
    fn one_shard_matches_single_node_bitwise() {
        let (ds, cfg) = multi_segment_setup();
        let single = Collection::load(&ds, &cfg, 3).unwrap();
        let sharded = ShardedCollection::load(&ds, &cfg, 3, ClusterSpec::new(1)).unwrap();
        assert_eq!(sharded.shard_memory()[0], single.memory);
        assert_eq!(
            sharded.total_memory_gib().to_bits(),
            single.memory.total_gib().to_bits(),
            "aggregate memory must reduce to the single node's"
        );
        let model = CostModel::default();
        assert_eq!(
            sharded.build_and_load_secs(&model).to_bits(),
            single.build_and_load_secs(&model).to_bits()
        );
        let (sharded_costs, sharded_res) = sharded.run_queries(10);
        let (single_cost, single_res) = single.run_queries(10);
        assert_eq!(sharded_res, single_res);
        assert_eq!(sharded_costs[0], single_cost);
    }

    #[test]
    fn any_shard_count_returns_identical_results() {
        let (ds, cfg) = multi_segment_setup();
        let single = Collection::load(&ds, &cfg, 7).unwrap();
        let (single_cost, single_res) = single.run_queries(10);
        for shards in [2usize, 3, 5, 8] {
            let sharded = ShardedCollection::load(&ds, &cfg, 7, ClusterSpec::new(shards)).unwrap();
            let (costs, res) = sharded.run_queries(10);
            assert_eq!(res, single_res, "{shards} shards");
            // Total work is conserved; only its attribution moves.
            let mut total = SearchCost::default();
            for c in &costs {
                total.add(c);
            }
            assert_eq!(total, single_cost, "{shards} shards");
            assert!(costs.iter().filter(|c| !c.is_zero()).count() >= 2, "work actually spreads");
        }
    }

    #[test]
    fn placement_is_balanced_round_robin() {
        let (ds, cfg) = multi_segment_setup();
        let sharded = ShardedCollection::load(&ds, &cfg, 1, ClusterSpec::new(2)).unwrap();
        assert!(sharded.assignment().len() >= 3);
        for (i, &s) in sharded.assignment().iter().enumerate() {
            assert_eq!(s, i % 2, "with slack budgets the preferred node always fits");
        }
    }

    #[test]
    fn every_node_pays_process_overhead() {
        let (ds, cfg) = multi_segment_setup();
        let single = Collection::load(&ds, &cfg, 1).unwrap();
        let sharded = ShardedCollection::load(&ds, &cfg, 1, ClusterSpec::new(4)).unwrap();
        assert!(
            sharded.total_memory_gib() > single.memory.total_gib(),
            "sharding adds per-node fixed overhead"
        );
        // Only the delegator holds streaming state.
        for (s, m) in sharded.shard_memory().iter().enumerate() {
            if s > 0 {
                assert_eq!(m.insert_buffer_bytes, 0);
                assert_eq!(m.growing_bytes, 0);
            }
        }
    }

    #[test]
    fn tight_budget_rebalances_before_failing() {
        let (ds, cfg) = multi_segment_setup();
        let col = Collection::load(&ds, &cfg, 1).unwrap();
        assert!(col.layout().sealed_count() >= 4);
        // A budget that lets the delegator host exactly one segment: its
        // round-robin share would be two, so the second one must rebalance
        // to node 1 (which has headroom — it carries no streaming state).
        let one = account_shard(&col, &[0], true).total_gib();
        let two = account_shard(&col, &[0, 2], true).total_gib();
        let spec = ClusterSpec::with_budget(2, (one + two) / 2.0);
        let sharded = ShardedCollection::load(&ds, &cfg, 1, spec).unwrap();
        assert_eq!(sharded.assignment()[0], 0, "first segment fits its preferred node");
        assert_eq!(sharded.assignment()[2], 1, "overflow segment rebalances off the delegator");
        for m in sharded.shard_memory() {
            assert!(m.total_gib() <= spec.shard_budget_gib);
        }
    }

    #[test]
    fn aggregate_fit_but_per_shard_overflow_fails_placement() {
        let (ds, cfg) = multi_segment_setup();
        // The delegator's fixed state alone (insert buffer + base) blows a
        // sub-GiB per-node budget even though the aggregate (4 × budget)
        // would hold the whole collection.
        let spec = ClusterSpec::with_budget(4, 1.1);
        let err = ShardedCollection::load(&ds, &cfg, 1, spec);
        assert!(
            matches!(err, Err(VdmsError::ShardOutOfMemory { shard: 0, .. })),
            "expected delegator placement failure, got {err:?}"
        );
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        assert_eq!(ClusterSpec::new(0).shards, 1);
        assert_eq!(ClusterSpec::new(1).shard_budget_gib, MEMORY_BUDGET_GIB);
    }

    #[test]
    fn directly_constructed_zero_shard_spec_does_not_panic() {
        // ClusterSpec has public fields; a hand-built `shards: 0` (or
        // `replicas: 0`) must be served as a one-node cluster, not a
        // modulo-by-zero panic.
        let (ds, cfg) = multi_segment_setup();
        let spec = ClusterSpec { shards: 0, replicas: 0, shard_budget_gib: MEMORY_BUDGET_GIB };
        let sharded = ShardedCollection::load(&ds, &cfg, 1, spec).unwrap();
        assert_eq!(sharded.shards(), 1);
        assert_eq!(sharded.replicas(), 1);
        let (costs, _) = sharded.run_queries(10);
        assert_eq!(costs.len(), 1);
    }

    #[test]
    fn new_is_the_one_replica_spec() {
        for shards in 0..=8 {
            assert_eq!(ClusterSpec::new(shards), ClusterSpec::replicated(shards, 1), "{shards}");
        }
    }

    #[test]
    fn replicas_place_each_segment_on_distinct_nodes() {
        let (ds, cfg) = multi_segment_setup();
        let spec =
            ClusterSpec { shard_budget_gib: MEMORY_BUDGET_GIB, ..ClusterSpec::replicated(2, 3) };
        let cluster = ShardedCollection::load(&ds, &cfg, 1, spec).unwrap();
        assert_eq!(cluster.nodes(), 6);
        for si in 0..cluster.assignment().len() {
            let nodes = cluster.replica_nodes(si);
            assert_eq!(nodes.len(), 3, "one copy per replica group");
            let distinct: std::collections::BTreeSet<usize> = nodes.iter().copied().collect();
            assert_eq!(distinct.len(), 3, "copies land on distinct nodes: {nodes:?}");
            for &n in &nodes {
                assert_eq!(n % 2, cluster.assignment()[si], "same local shard in every group");
            }
        }
        // Every group's local node 0 is a delegator carrying streaming
        // state; every other node carries none.
        for (n, m) in cluster.shard_memory().iter().enumerate() {
            if n % 2 == 0 {
                assert!(m.insert_buffer_bytes > 0, "node {n} is a group delegator");
            } else {
                assert_eq!(m.insert_buffer_bytes, 0);
                assert_eq!(m.growing_bytes, 0);
            }
        }
    }

    #[test]
    fn replication_memory_is_accounted_per_copy() {
        let (ds, cfg) = multi_segment_setup();
        let one = ShardedCollection::load(&ds, &cfg, 1, ClusterSpec::new(2)).unwrap();
        let spec =
            ClusterSpec { shard_budget_gib: MEMORY_BUDGET_GIB, ..ClusterSpec::replicated(2, 3) };
        let three = ShardedCollection::load(&ds, &cfg, 1, spec).unwrap();
        assert_eq!(three.shard_memory().len(), 6);
        assert!(
            (three.total_memory_gib() - 3.0 * one.total_memory_gib()).abs() < 1e-9,
            "three identical copies cost exactly three group footprints"
        );
    }

    #[test]
    fn replicated_budget_split_fails_oversized_copies() {
        let (ds, cfg) = multi_segment_setup();
        let single = Collection::load(&ds, &cfg, 1).unwrap();
        let need = single.memory.total_gib();
        // Enough replicas that one copy no longer fits its group's share
        // of the testbed: placement must fail, not silently overcommit.
        let replicas = (MEMORY_BUDGET_GIB / need).ceil() as usize + 1;
        let spec = ClusterSpec::replicated(1, replicas);
        assert!(spec.group_budget_gib() < need);
        let err = ShardedCollection::load(&ds, &cfg, 1, spec);
        assert!(
            matches!(
                err,
                Err(VdmsError::OutOfMemory { .. }) | Err(VdmsError::ShardOutOfMemory { .. })
            ),
            "a copy that cannot fit its group budget must fail: {err:?}"
        );
    }

    #[test]
    fn offline_replay_round_robins_replica_groups() {
        // Query `qi` is charged, shard by shard, to group `qi % 3` alone.
        let (ds, cfg) = multi_segment_setup();
        let spec =
            ClusterSpec { shard_budget_gib: MEMORY_BUDGET_GIB, ..ClusterSpec::replicated(2, 3) };
        let cluster = ShardedCollection::load(&ds, &cfg, 7, spec).unwrap();
        let mut expect = vec![SearchCost::default(); 6];
        for qi in 0..ds.n_queries() {
            let mut costs = [SearchCost::default(); 2];
            cluster.search(ds.query(qi), 10, &mut costs);
            for (j, c) in costs.iter().enumerate() {
                expect[(qi % 3) * 2 + j].add(c);
            }
        }
        let (costs, _) = cluster.run_queries(10);
        assert_eq!(costs, expect);
        assert!(ds.n_queries() >= 3 && costs.iter().step_by(2).all(|c| !c.is_zero()));
    }

    #[test]
    fn reactor_placement_is_pure_round_robin() {
        assert_eq!(reactor_placement(5, 2), vec![0, 1, 0, 1, 0]);
        assert_eq!(reactor_placement(3, 8), vec![0, 1, 2]);
        assert_eq!(reactor_placement(0, 4), Vec::<usize>::new());
        assert_eq!(reactor_placement(3, 0), vec![0, 0, 0], "zero reactors clamps to one");
        // Balanced: ownership counts differ by at most one.
        for (n, r) in [(17, 4), (64, 16), (7, 7)] {
            let p = reactor_placement(n, r);
            let mut counts = vec![0usize; r];
            for &x in &p {
                counts[x] += 1;
            }
            let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(hi - lo <= 1, "n={n} r={r}: {counts:?}");
        }
    }

    #[test]
    fn shard_segment_counts_include_the_growing_tail() {
        let (ds, cfg) = multi_segment_setup();
        let sharded = ShardedCollection::load(&ds, &cfg, 1, ClusterSpec::new(2)).unwrap();
        let counts = sharded.shard_segment_counts();
        assert_eq!(counts.len(), 2);
        let sealed_on = |s: usize| sharded.assignment().iter().filter(|&&a| a == s).count();
        let growing = usize::from(sharded.collection().layout().growing_rows() > 0);
        assert_eq!(counts[0], sealed_on(0) + growing, "delegator adds the growing tail");
        assert_eq!(counts[1], sealed_on(1));
    }

    #[test]
    fn aggregate_check_uses_cluster_capacity_not_testbed_cap() {
        let (ds, cfg) = multi_segment_setup();
        let single = Collection::load(&ds, &cfg, 1).unwrap();
        let need = single.memory.total_gib();
        // A cluster whose aggregate is below the collection's footprint
        // fails fast with the *cluster's* budget in the error...
        let tight = ClusterSpec::with_budget(2, need * 0.4);
        match ShardedCollection::load(&ds, &cfg, 1, tight) {
            Err(VdmsError::OutOfMemory { budget_gib, .. }) => {
                assert!((budget_gib - need * 0.8).abs() < 1e-9, "aggregate, not 125");
            }
            other => panic!("expected aggregate OOM, got {other:?}"),
        }
        // ...while a cluster provisioned beyond the single-node testbed cap
        // accepts what its nodes can jointly hold (per-shard placement is
        // still the binding constraint).
        let big = ClusterSpec::with_budget(4, MEMORY_BUDGET_GIB);
        let sharded = ShardedCollection::load(&ds, &cfg, 1, big).unwrap();
        assert_eq!(sharded.spec().aggregate_budget_gib(), 4.0 * MEMORY_BUDGET_GIB);
    }
}
