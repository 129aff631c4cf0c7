//! The analytic cost model: deterministic operation counts → latency → QPS.
//!
//! Per-operation costs are fixed constants calibrated so that the scaled
//! datasets land in the paper's QPS ranges (hundreds for exhaustive search,
//! low thousands for well-tuned ANN configs). Absolute numbers are not the
//! point — the *shape* (orderings, crossovers, parameter sensitivities) is;
//! see ARCHITECTURE.md, "What is real and what is modelled".

use crate::system_params::SystemParams;
use crate::topology::{CalibrationSource, HostTopology, PenaltyMatrix, PinningPolicy};
use anns::cost::{ScanUnitCosts, SearchCost};

/// Per-operation latency constants, in nanoseconds.
///
/// The scan constants (f32, u8 and PQ lookup work) are not here: they are
/// [`crate::CostModel::scan`], [`anns::cost::ScanUnitCosts::ANALYTIC`]
/// unless a measured value is handed in.
pub mod unit_costs {
    /// One HNSW neighbor expansion (pointer chase).
    pub const GRAPH_HOP_NS: f64 = 120.0;
    /// One heap push.
    pub const HEAP_PUSH_NS: f64 = 15.0;
    /// Fixed cost of probing one inverted list.
    pub const LIST_PROBE_NS: f64 = 2_000.0;
    /// Fixed scatter/gather cost per segment touched.
    pub const SEGMENT_NS: f64 = 80_000.0;
    /// Fixed per-query dispatch cost (RPC, planning, reduce).
    pub const QUERY_BASE_NS: f64 = 200_000.0;
    /// Fixed dispatch cost of handing one reactor's partial top-k back to
    /// the delegator reactor (queue transfer, cache-line ping), before the
    /// NUMA distance multiplier.
    pub const REACTOR_HANDOFF_NS: f64 = 8_000.0;
    /// Fixed cost of one WAL group commit (fsync + commit record).
    pub const WAL_FSYNC_NS: f64 = 500_000.0;
    /// Per-row WAL write cost within a group commit.
    pub const WAL_ROW_NS: f64 = 2_000.0;
    /// Per-row cost of sealing the growing segment (freeze, stats,
    /// handing the segment to the index builder).
    pub const SEAL_ROW_NS: f64 = 15_000.0;
    /// Per-row cost of compacting a run of sealed segments (merge copy).
    pub const COMPACT_ROW_NS: f64 = 5_000.0;
    /// Index build cost per training dimension unit.
    pub const BUILD_DIM_NS: f64 = 25.0;
    /// Ingest bandwidth for loading the collection (virtual bytes/sec).
    pub const LOAD_BYTES_PER_SEC: f64 = 200.0 * 1024.0 * 1024.0;
}

/// The 15-minute replay cap from §V-A, in simulated seconds.
pub const REPLAY_TIME_CAP_SECS: f64 = 900.0;

/// WAL fan-out staleness each *additional* replica adds (ms): see
/// [`CostModel::replica_lag_ms`].
pub const REPLICA_LAG_MS_PER_COPY: f64 = 15.0;

/// Concurrent clients the workload replay issues queries from: the
/// paper's 10 (§V-A).
pub const WORKLOAD_CONCURRENCY: usize = 10;

/// Number of virtual search requests one workload replay issues. Chosen so
/// simulated replay times per iteration land near the paper's Table VI
/// averages (~150 s per iteration).
pub const REPLAY_REQUESTS: f64 = 50_000.0;

/// Deterministic per-query performance derived from counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryPerf {
    /// Mean per-query latency, seconds (including consistency stall).
    pub latency_secs: f64,
    /// Sustained queries/second under the workload's concurrency.
    pub qps: f64,
}

/// The cost model; holds the simulated query node's core count, which
/// caps how many worker slots the serving executor can actually run in
/// parallel.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Physical cores of one simulated query node. `maxReadConcurrency`
    /// beyond this adds scheduling overhead instead of parallelism — the
    /// serving-side analogue of the offline throughput law's
    /// over-provisioning penalty. Derived from [`CostModel::topology`] by
    /// default so the two cannot drift.
    pub query_node_cores: usize,
    /// Per-unit scan costs. Defaults to [`ScanUnitCosts::ANALYTIC`] (the
    /// historical constants, keeping default-constructed models
    /// bit-identical across hosts); `repro reactors` sets the values its
    /// own run measured.
    pub scan: ScanUnitCosts,
    /// Shape of one query-node host. Always [`HostTopology::DEFAULT`] in
    /// normal operation (cross-host determinism); tests use degenerate
    /// shapes to prove reactor/slot-pool equivalences.
    pub topology: HostTopology,
    /// NUMA/SMT penalty surface charged by the pinned reactor paths.
    /// `repro reactors` sets the surface its own run measured.
    pub penalties: PenaltyMatrix,
    /// Where [`CostModel::scan`] came from (default-constructed models are
    /// analytic by definition).
    pub scan_source: CalibrationSource,
    /// Where [`CostModel::penalties`] came from.
    pub penalty_source: CalibrationSource,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            // Derived, not a magic literal: the serving slot cap and the
            // topology surface agree by construction.
            query_node_cores: HostTopology::DEFAULT.physical_cores(),
            scan: ScanUnitCosts::ANALYTIC,
            topology: HostTopology::DEFAULT,
            penalties: PenaltyMatrix::ANALYTIC,
            scan_source: CalibrationSource::Analytic,
            penalty_source: CalibrationSource::Analytic,
        }
    }
}

impl CostModel {
    /// Chunking efficiency multiplier for *sequential scans*: a bowl around
    /// 1024 rows. Tiny chunks pay per-chunk dispatch, huge chunks thrash
    /// the cache. Graph traversal (random access) is unaffected — that is
    /// why the best index type can flip with `chunkRows` (Figure 2).
    fn chunk_factor(chunk_rows: usize) -> f64 {
        let x = (chunk_rows.max(1) as f64).log2() - 10.0; // log2(1024)
        1.0 + 0.8 * (x / 3.0) * (x / 3.0)
    }

    /// Mean ingestion lag (ms) the tsafe watermark trails behind wall
    /// clock: a fixed pipeline delay plus a buffer-proportional term
    /// (bigger insert buffers flush less often).
    pub fn ingest_lag_ms(sys: &SystemParams) -> f64 {
        50.0 + 0.2 * sys.insert_buf_size_mb
    }

    /// Extra ingestion staleness (ms) of a replicated deployment: every
    /// follower replica subscribes to the WAL independently and applies it
    /// behind the leader, so the *slowest* replica's watermark — which is
    /// what bounded-staleness reads must wait for when the router may pick
    /// any replica — trails further the more copies exist. Exactly zero
    /// for one replica, which keeps the unreplicated paths bit-identical.
    pub fn replica_lag_ms(replicas: usize) -> f64 {
        REPLICA_LAG_MS_PER_COPY * replicas.saturating_sub(1) as f64
    }

    /// Interval (seconds) between tsafe watermark publications. Flushes are
    /// what advance the watermark, and bigger insert buffers fill — and
    /// therefore flush — less often. This quantization is invisible to the
    /// *mean-field* offline model (its stall term charges only
    /// the average excess lag) but is exactly what creates the consistency
    /// *tail* in the serving simulator: a query arriving right after a
    /// publication waits a full interval longer than one arriving right
    /// before it.
    pub fn flush_interval_secs(sys: &SystemParams) -> f64 {
        0.02 + 0.16 * (sys.insert_buf_size_mb / 2048.0).sqrt()
    }

    /// Mean-field consistency stall per query (seconds) of a deployment
    /// with `replicas` copies: queries wait for the tsafe watermark to pass
    /// `now - gracefulTime`. The ingestion lag grows with the insert buffer
    /// (bigger buffers flush less often) and with the slowest replica's WAL
    /// fan-out staleness ([`CostModel::replica_lag_ms`], exactly `0.0` at
    /// one replica). This is the form the offline replay charges; the
    /// serving simulator resolves the same mechanism per event via
    /// [`CostModel::consistency_wait_secs_replicated`].
    fn stall_secs_replicated(sys: &SystemParams, replicas: usize) -> f64 {
        let lag_ms = Self::ingest_lag_ms(sys) + Self::replica_lag_ms(replicas);
        ((lag_ms - sys.graceful_time_ms).max(0.0)) / 1_000.0
    }

    /// Event-level consistency wait for a query arriving at `arrival_secs`
    /// on a deployment with `replicas` copies: the query may start once
    /// some flush published a watermark covering `arrival - gracefulTime`,
    /// i.e. once a flush happened at or after
    /// `arrival - gracefulTime + lag`, where the lag is the *slowest*
    /// replica's ([`CostModel::replica_lag_ms`] behind the leader's).
    /// Flushes occur at multiples of [`CostModel::flush_interval_secs`], so
    /// the wait depends on the arrival's *phase* within the flush cycle —
    /// the source of the consistency tail. Zero for every arrival once
    /// `gracefulTime >= lag`, up to `lag - gracefulTime + flush_interval`
    /// otherwise.
    pub fn consistency_wait_secs_replicated(
        sys: &SystemParams,
        arrival_secs: f64,
        replicas: usize,
    ) -> f64 {
        let lag = (Self::ingest_lag_ms(sys) + Self::replica_lag_ms(replicas)) / 1_000.0;
        let graceful = sys.graceful_time_ms / 1_000.0;
        // A graceful window covering the (effective) lag asks only for
        // data that is already durable: no wait, and in particular a
        // zero-lag system never waits. Without this the quantization
        // below charged up to a full flush interval to configs whose
        // staleness bound was already satisfied.
        if lag <= graceful {
            return 0.0;
        }
        let needed_flush = arrival_secs - graceful + lag;
        if needed_flush <= 0.0 {
            return 0.0;
        }
        let interval = Self::flush_interval_secs(sys);
        let next_flush = (needed_flush / interval).ceil() * interval;
        (next_flush - arrival_secs).max(0.0)
    }

    /// Scheduling efficiency of read concurrency: `replicas` groups each
    /// run their own `maxReadConcurrency` read slots, so the fleet offers
    /// `replicas ×` the slots — capped by the workload's own concurrency,
    /// with a mild over-provisioning penalty on the *total* slot count (a
    /// fleet of idle slots is pure scheduling overhead).
    fn parallelism_replicated(sys: &SystemParams, replicas: usize) -> f64 {
        let slots = sys.max_read_concurrency * replicas.max(1);
        let eff = (WORKLOAD_CONCURRENCY.min(slots)) as f64;
        let over = (slots as f64 / WORKLOAD_CONCURRENCY as f64).max(1.0);
        eff / (1.0 + 0.04 * (over - 1.0))
    }

    /// Latency and QPS of one unreplicated node serving `cost` per query.
    /// The node's reactors scan their own segments concurrently, so the
    /// scan work counts at the straggler reactor's `straggler_share` of
    /// it (owned fraction × SMT penalty), every populated reactor hands
    /// its partial top-k to the delegator (`handoff_secs` in total), and
    /// the fixed dispatch/merge costs stay serial on the delegator. A node
    /// without reactors is one penalty-free owner of everything: share
    /// `1.0`, handoff `0.0`.
    fn node_perf(
        &self,
        cost: &SearchCost,
        sys: &SystemParams,
        straggler_share: f64,
        handoff_secs: f64,
    ) -> QueryPerf {
        use unit_costs::*;
        let chunk = Self::chunk_factor(sys.chunk_rows);
        let scan_ns = cost.f32_dims as f64 * self.scan.f32_dim_ns
            + cost.u8_dims as f64 * self.scan.u8_dim_ns
            + cost.pq_lookups as f64 * self.scan.pq_lookup_ns;
        // Graph-traversal distances pay a small random-access premium but
        // are immune to the chunking factor.
        let graph_ns = cost.graph_dims as f64 * self.scan.f32_dim_ns * 1.1;
        let fixed_ns = cost.graph_hops as f64 * GRAPH_HOP_NS
            + cost.heap_pushes as f64 * HEAP_PUSH_NS
            + cost.lists_probed as f64 * LIST_PROBE_NS
            + cost.segments as f64 * SEGMENT_NS
            + QUERY_BASE_NS;
        let latency_secs = ((scan_ns * chunk + graph_ns) * straggler_share + fixed_ns) / 1e9
            + handoff_secs
            + Self::stall_secs_replicated(sys, 1);
        QueryPerf {
            latency_secs,
            qps: Self::parallelism_replicated(sys, 1) / latency_secs.max(1e-9),
        }
    }

    /// Convert one query's accumulated counts into latency and QPS on a
    /// single node serving from the shared slot pool.
    pub fn query_perf(&self, cost: &SearchCost, sys: &SystemParams) -> QueryPerf {
        self.node_perf(cost, sys, 1.0, 0.0)
    }

    /// Worker slots the serving executor actually runs concurrently: the
    /// configured `maxReadConcurrency`, capped by the node's core count.
    pub fn serving_slots(&self, sys: &SystemParams) -> usize {
        sys.max_read_concurrency.clamp(1, self.query_node_cores.max(1))
    }

    /// Per-query service-time inflation from over-provisioned read
    /// concurrency: slots beyond the physical cores buy no parallelism
    /// (see [`CostModel::serving_slots`]) but still pay context-switch and
    /// scheduler-queue overhead on every query.
    pub fn serving_overhead_factor(&self, sys: &SystemParams) -> f64 {
        let over = (sys.max_read_concurrency as f64 / self.query_node_cores.max(1) as f64).max(1.0);
        1.0 + 0.04 * (over - 1.0)
    }

    /// Base service time of one query on a worker slot, derived from the
    /// measured QPS of a deployment with `replicas` copies: the mean
    /// latency that QPS implies under the fleet's throughput law (the
    /// inverse of [`CostModel::cluster_perf`]'s) *minus* the mean-field
    /// consistency stall — the serving simulator re-applies consistency
    /// per event, replica lag included, so keeping the stall here would
    /// double-charge it — inflated by the over-provisioning overhead.
    pub fn service_secs_from_qps_replicated(
        &self,
        qps: f64,
        sys: &SystemParams,
        replicas: usize,
    ) -> f64 {
        (Self::parallelism_replicated(sys, replicas) / qps.max(1e-9)
            - Self::stall_secs_replicated(sys, replicas))
        .max(1e-6)
            * self.serving_overhead_factor(sys)
    }

    /// Proxy-side scatter-gather overhead per query for an `shards`-node
    /// cluster: each extra query node costs half a dispatch (the fan-out is
    /// issued asynchronously, but serialization/reduce work remains) plus a
    /// top-k merge of that node's partial result. Exactly zero for a single
    /// node, where proxy and query node are colocated (Milvus standalone).
    pub fn proxy_merge_secs(&self, shards: usize, top_k: usize) -> f64 {
        let extra = shards.saturating_sub(1) as f64;
        extra * (0.5 * unit_costs::QUERY_BASE_NS + top_k as f64 * unit_costs::HEAP_PUSH_NS) / 1e9
    }

    // ------------------------------------------------------------------
    // Shard reactors: the pinned per-core execution model.
    // ------------------------------------------------------------------

    /// Reactors one query node runs under `policy`: one per configured
    /// read slot, but never more than the policy can pin
    /// ([`HostTopology::capacity`] — SMT-avoiding placement stops at the
    /// physical cores, compact/scatter at the logical CPUs).
    pub fn reactor_count(&self, policy: PinningPolicy, sys: &SystemParams) -> usize {
        sys.max_read_concurrency.clamp(1, self.topology.capacity(policy).max(1))
    }

    /// Scan-cost multiplier per reactor: a reactor whose SMT sibling slot
    /// is also populated shares execution ports and pays
    /// [`PenaltyMatrix::same_core_smt`]; everyone else scans at full speed.
    pub fn reactor_scan_penalties(&self, policy: PinningPolicy, reactors: usize) -> Vec<f64> {
        let slots = self.topology.slots(policy, reactors);
        (0..slots.len())
            .map(|i| {
                let shared = slots
                    .iter()
                    .enumerate()
                    .any(|(j, s)| j != i && s.socket == slots[i].socket && s.core == slots[i].core);
                if shared {
                    self.penalties.same_core_smt
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// Additive handoff latency (seconds) each reactor pays to hand its
    /// partial top-k to the delegator reactor 0, scaled by the pair's
    /// NUMA distance ([`PenaltyMatrix::handoff`]). The delegator itself
    /// pays nothing.
    pub fn reactor_handoff_secs(
        &self,
        policy: PinningPolicy,
        reactors: usize,
        top_k: usize,
    ) -> Vec<f64> {
        let slots = self.topology.slots(policy, reactors);
        let base = unit_costs::REACTOR_HANDOFF_NS + top_k as f64 * unit_costs::HEAP_PUSH_NS;
        slots
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == 0 {
                    0.0
                } else {
                    base * self.penalties.handoff(s.relation(&slots[0])) / 1e9
                }
            })
            .collect()
    }

    /// Per-query performance of a sharded, replicated cluster — the one
    /// perf law every deployment shape goes through.
    ///
    /// * **Shards.** The proxy scatters every query to all `shard_costs`
    ///   nodes of the routed replica group, so latency is the *straggler*
    ///   node's plus the proxy merge ([`CostModel::proxy_merge_secs`]).
    ///   One shard, one replica and the shared policy reduce bit for bit
    ///   to [`CostModel::query_perf`] on that shard's cost.
    /// * **Reactors.** Under a pinning `policy` each node runs
    ///   [`CostModel::reactor_count`] reactors that own its segments
    ///   round-robin ([`crate::cluster::reactor_placement`]) and scan them
    ///   concurrently: the node's scan work counts at the straggler
    ///   reactor's share — owned fraction × its SMT penalty
    ///   ([`CostModel::reactor_scan_penalties`]) — plus every populated
    ///   reactor's handoff ([`CostModel::reactor_handoff_secs`]).
    ///   [`PinningPolicy::Shared`] is the same arithmetic with one
    ///   penalty-free reactor owning every segment, as is any policy on a
    ///   single-core topology.
    /// * **Replicas.** Every query is routed to exactly one of `replicas`
    ///   identical groups: latency additionally pays the slowest replica's
    ///   consistency staleness ([`CostModel::replica_lag_ms`]) and
    ///   throughput scales with the fleet's total read slots.
    ///
    /// `shard_costs` holds one mean per-query [`SearchCost`] per *local*
    /// shard and `shard_segments` the number of segments each scans per
    /// query (sealed, plus the growing tail on the delegator shard), which
    /// bounds how much intra-query parallelism its reactors can extract.
    pub fn cluster_perf(
        &self,
        shard_costs: &[SearchCost],
        shard_segments: &[usize],
        sys: &SystemParams,
        top_k: usize,
        replicas: usize,
        policy: PinningPolicy,
    ) -> QueryPerf {
        debug_assert_eq!(shard_costs.len(), shard_segments.len());
        let reactors =
            if policy == PinningPolicy::Shared { 1 } else { self.reactor_count(policy, sys) };
        let scan_penalties = self.reactor_scan_penalties(policy, reactors);
        let handoff_secs = self.reactor_handoff_secs(policy, reactors, top_k);
        let slowest = shard_costs
            .iter()
            .zip(shard_segments)
            .map(|(cost, &segments)| {
                let segs = segments.max(1);
                let used = reactors.min(segs);
                let mut owned = vec![0usize; used];
                for r in crate::cluster::reactor_placement(segs, used) {
                    owned[r] += 1;
                }
                // The straggler reactor: largest owned share × its own penalty.
                let straggler = (0..used)
                    .map(|r| owned[r] as f64 / segs as f64 * scan_penalties[r])
                    .fold(0.0f64, f64::max);
                self.node_perf(cost, sys, straggler, handoff_secs[..used].iter().sum())
            })
            .max_by(|a, b| a.latency_secs.total_cmp(&b.latency_secs))
            .expect("cluster_perf needs at least one shard");
        let proxy = self.proxy_merge_secs(shard_costs.len(), top_k);
        let base = if proxy == 0.0 {
            slowest
        } else {
            let latency_secs = slowest.latency_secs + proxy;
            QueryPerf {
                latency_secs,
                qps: Self::parallelism_replicated(sys, 1) / latency_secs.max(1e-9),
            }
        };
        if replicas <= 1 {
            return base;
        }
        // Swap the one-copy stall for the fleet's. Keep this association:
        // it is what every replicated history was recorded under.
        let latency_secs = base.latency_secs - Self::stall_secs_replicated(sys, 1)
            + Self::stall_secs_replicated(sys, replicas);
        QueryPerf {
            latency_secs,
            qps: Self::parallelism_replicated(sys, replicas) / latency_secs.max(1e-9),
        }
    }

    /// Simulated seconds to build all segment indexes.
    pub fn build_secs(&self, train_dims: u64, sys: &SystemParams) -> f64 {
        let speedup = (sys.build_parallelism as f64).powf(0.8);
        train_dims as f64 * unit_costs::BUILD_DIM_NS / 1e9 / speedup
    }

    /// Simulated seconds to load `n` rows into the collection.
    pub fn load_secs(&self, n: usize) -> f64 {
        n as f64 * crate::system_params::VIRTUAL_ROW_BYTES as f64 / unit_costs::LOAD_BYTES_PER_SEC
    }

    /// Simulated seconds to replay the full workload at `qps`.
    pub fn replay_secs(&self, qps: f64) -> f64 {
        REPLAY_REQUESTS / qps.max(1e-9)
    }

    // ------------------------------------------------------------------
    // Write-path work: what WAL commits and the segment lifecycle cost
    // when they compete with queries for the same worker slots.
    // ------------------------------------------------------------------

    /// Worker-slot time one WAL group commit of `rows` rows occupies:
    /// a fixed fsync plus per-row log writes. Group commit amortizes the
    /// fsync — that is exactly the batch-size trade-off the tuner feels
    /// (tiny batches fsync constantly, huge batches buy latency and
    /// backpressure).
    pub fn wal_flush_secs(&self, rows: usize) -> f64 {
        (unit_costs::WAL_FSYNC_NS + rows as f64 * unit_costs::WAL_ROW_NS) / 1e9
    }

    /// Worker-slot time sealing a growing segment of `rows` rows occupies
    /// (freeze, stats, handoff to the index builder).
    pub fn segment_seal_secs(&self, rows: usize) -> f64 {
        rows as f64 * unit_costs::SEAL_ROW_NS / 1e9
    }

    /// Worker-slot time compacting `rows` rows across a run of sealed
    /// segments occupies (merge copy).
    pub fn compaction_secs(&self, rows: usize) -> f64 {
        rows as f64 * unit_costs::COMPACT_ROW_NS / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_cost() -> SearchCost {
        // A FLAT scan over 8000 x 48-dim vectors in one segment.
        SearchCost { f32_dims: 8_000 * 48, heap_pushes: 8_000, segments: 1, ..Default::default() }
    }

    #[test]
    fn flat_qps_in_paper_ballpark() {
        let model = CostModel::default();
        let perf = model.query_perf(&flat_cost(), &SystemParams::default());
        // The paper's Figure 2 shows FLAT in the low hundreds of QPS.
        assert!(perf.qps > 100.0 && perf.qps < 1500.0, "FLAT qps {}", perf.qps);
    }

    #[test]
    fn default_model_uses_analytic_scan_constants() {
        // The scan field must default to the historical constants so every
        // existing default-constructed model stays bit-identical.
        let model = CostModel::default();
        assert_eq!(model.scan, ScanUnitCosts::ANALYTIC);
    }

    #[test]
    fn calibrated_scan_constants_change_query_perf() {
        let sys = SystemParams::default();
        let base = CostModel::default();
        let fast = CostModel {
            scan: ScanUnitCosts { f32_dim_ns: 1.0, u8_dim_ns: 0.3, pq_lookup_ns: 0.5 },
            ..Default::default()
        };
        let b = base.query_perf(&flat_cost(), &sys);
        let f = fast.query_perf(&flat_cost(), &sys);
        assert!(f.qps > b.qps, "measured (faster) constants must raise modelled qps");
    }

    #[test]
    fn cheaper_scan_is_faster() {
        let model = CostModel::default();
        let sys = SystemParams::default();
        let mut ivf = SearchCost {
            f32_dims: 500 * 48,
            heap_pushes: 500,
            lists_probed: 8,
            segments: 1,
            ..Default::default()
        };
        let flat = model.query_perf(&flat_cost(), &sys);
        let fast = model.query_perf(&ivf, &sys);
        assert!(fast.qps > flat.qps * 3.0);
        ivf.u8_dims = ivf.f32_dims;
        ivf.f32_dims = 0;
        let sq = model.query_perf(&ivf, &sys);
        assert!(sq.qps > fast.qps, "u8 scan must beat f32 scan");
    }

    #[test]
    fn zero_graceful_time_stalls_severely() {
        let model = CostModel::default();
        let mut sys = SystemParams::default();
        let good = model.query_perf(&flat_cost(), &sys);
        sys.graceful_time_ms = 0.0;
        let stalled = model.query_perf(&flat_cost(), &sys);
        assert!(
            stalled.qps < good.qps * 0.5,
            "gracefulTime=0 must block requests: {} vs {}",
            stalled.qps,
            good.qps
        );
    }

    #[test]
    fn stall_grows_with_insert_buffer() {
        let mut sys = SystemParams { graceful_time_ms: 0.0, ..Default::default() };
        sys.insert_buf_size_mb = 64.0;
        let small = CostModel::stall_secs_replicated(&sys, 1);
        sys.insert_buf_size_mb = 2048.0;
        let large = CostModel::stall_secs_replicated(&sys, 1);
        assert!(large > small);
    }

    #[test]
    fn chunk_factor_is_a_bowl() {
        let at_default = CostModel::chunk_factor(1024);
        assert!((at_default - 1.0).abs() < 1e-9);
        assert!(CostModel::chunk_factor(128) > at_default);
        assert!(CostModel::chunk_factor(8192) > at_default);
    }

    #[test]
    fn concurrency_saturates_at_workload() {
        let model = CostModel::default();
        let cost = flat_cost();
        let base = SystemParams::default();
        let low = model.query_perf(&cost, &SystemParams { max_read_concurrency: 1, ..base });
        let ten = model.query_perf(&cost, &SystemParams { max_read_concurrency: 10, ..base });
        let huge = model.query_perf(&cost, &SystemParams { max_read_concurrency: 64, ..base });
        assert!(ten.qps > low.qps * 5.0);
        assert!(huge.qps < ten.qps, "over-provisioning must not help");
    }

    #[test]
    fn one_shard_cluster_is_bitwise_single_node() {
        let model = CostModel::default();
        let sys = SystemParams::default();
        let single = model.query_perf(&flat_cost(), &sys);
        let cluster = model.cluster_perf(&[flat_cost()], &[1], &sys, 100, 1, PinningPolicy::Shared);
        assert_eq!(single.latency_secs.to_bits(), cluster.latency_secs.to_bits());
        assert_eq!(single.qps.to_bits(), cluster.qps.to_bits());
    }

    #[test]
    fn straggler_shard_governs_cluster_latency() {
        let model = CostModel::default();
        let sys = SystemParams::default();
        let light = SearchCost { f32_dims: 100 * 48, segments: 1, ..Default::default() };
        let cluster = model.cluster_perf(
            &[light, flat_cost(), light],
            &[1; 3],
            &sys,
            10,
            1,
            PinningPolicy::Shared,
        );
        let straggler = model.query_perf(&flat_cost(), &sys);
        assert!(cluster.latency_secs > straggler.latency_secs, "merge overhead adds latency");
        assert!(cluster.qps < straggler.qps);
    }

    #[test]
    fn proxy_overhead_grows_with_fanout_and_k() {
        let model = CostModel::default();
        assert_eq!(model.proxy_merge_secs(1, 100), 0.0);
        assert!(model.proxy_merge_secs(4, 100) > model.proxy_merge_secs(2, 100));
        assert!(model.proxy_merge_secs(2, 100) > model.proxy_merge_secs(2, 10));
    }

    #[test]
    fn service_secs_excludes_the_mean_field_stall() {
        // The serving path re-applies consistency per event; the derived
        // service time must not double-charge the offline stall.
        let model = CostModel::default();
        let stalled = SystemParams { graceful_time_ms: 0.0, ..Default::default() };
        let perf = model.query_perf(&flat_cost(), &stalled);
        let service = model.service_secs_from_qps_replicated(perf.qps, &stalled, 1);
        let covered = SystemParams::default();
        let pure = model.query_perf(&flat_cost(), &covered);
        // Both systems do the same compute; only the stall differs, and the
        // over-provisioning factor (same concurrency) is identical.
        let service_covered = model.service_secs_from_qps_replicated(pure.qps, &covered, 1);
        assert!((service - service_covered).abs() < 1e-9, "{service} vs {service_covered}");
        assert!(service < perf.latency_secs, "stall removed from the service time");
    }

    #[test]
    fn consistency_wait_is_phase_dependent_and_vanishes_when_covered() {
        let sys = SystemParams { graceful_time_ms: 0.0, ..Default::default() };
        let interval = CostModel::flush_interval_secs(&sys);
        let lag = CostModel::ingest_lag_ms(&sys) / 1_000.0;
        // Two arrivals a quarter-interval apart wait different amounts.
        let w1 = CostModel::consistency_wait_secs_replicated(&sys, 10.0 * interval + 0.01, 1);
        let w2 = CostModel::consistency_wait_secs_replicated(
            &sys,
            10.0 * interval + 0.01 + interval / 4.0,
            1,
        );
        assert!(w1 >= lag - 1e-12, "uncovered arrivals wait at least the lag");
        assert!((w1 - w2).abs() > 1e-9, "wait depends on the flush-cycle phase");
        // A graceful window past lag + interval covers every arrival.
        let covered = SystemParams {
            graceful_time_ms: CostModel::ingest_lag_ms(&sys) + 1_000.0 * interval + 1.0,
            ..sys
        };
        for k in 0..7 {
            let t = 3.0 + 0.13 * k as f64;
            assert_eq!(CostModel::consistency_wait_secs_replicated(&covered, t, 1), 0.0, "t={t}");
        }
    }

    #[test]
    fn serving_slots_cap_at_cores_with_overhead_beyond() {
        let model = CostModel::default();
        let base = SystemParams::default();
        assert_eq!(model.serving_slots(&SystemParams { max_read_concurrency: 4, ..base }), 4);
        assert_eq!(model.serving_slots(&SystemParams { max_read_concurrency: 64, ..base }), 16);
        let at = model.serving_overhead_factor(&SystemParams { max_read_concurrency: 16, ..base });
        let over =
            model.serving_overhead_factor(&SystemParams { max_read_concurrency: 64, ..base });
        assert_eq!(at, 1.0, "no penalty at or below the core count");
        assert!(over > 1.0);
    }

    #[test]
    fn replicas_scale_throughput_when_slots_are_scarce() {
        // 2 read slots against 10 workload clients: the fleet is
        // slot-starved, so doubling the replicas nearly doubles QPS.
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 2, ..Default::default() };
        let costs = [flat_cost()];
        let one = model.cluster_perf(&costs, &[1], &sys, 10, 1, PinningPolicy::Shared);
        let four = model.cluster_perf(&costs, &[1], &sys, 10, 4, PinningPolicy::Shared);
        assert!(four.qps > one.qps * 2.0, "{} vs {}", four.qps, one.qps);
        // Already at the workload's concurrency: extra replicas are pure
        // scheduling overhead.
        let wide = SystemParams { max_read_concurrency: 16, ..Default::default() };
        let base = model.cluster_perf(&costs, &[1], &wide, 10, 1, PinningPolicy::Shared);
        let over = model.cluster_perf(&costs, &[1], &wide, 10, 4, PinningPolicy::Shared);
        assert!(over.qps < base.qps, "over-replication must not help: {}", over.qps);
    }

    #[test]
    fn replica_staleness_shows_when_graceful_time_is_tight() {
        // gracefulTime just covering the single-node lag: the follower
        // replicas' extra WAL lag re-opens the stall window.
        let model = CostModel::default();
        let sys = SystemParams {
            graceful_time_ms: CostModel::ingest_lag_ms(&SystemParams::default()) + 1.0,
            ..Default::default()
        };
        let costs = [flat_cost()];
        let one = model.cluster_perf(&costs, &[1], &sys, 10, 1, PinningPolicy::Shared);
        let four = model.cluster_perf(&costs, &[1], &sys, 10, 4, PinningPolicy::Shared);
        assert!(
            four.latency_secs > one.latency_secs + 0.5 * 3.0 * REPLICA_LAG_MS_PER_COPY / 1_000.0,
            "{} vs {}",
            four.latency_secs,
            one.latency_secs
        );
        // And the event-level wait sees it too.
        let w1 = CostModel::consistency_wait_secs_replicated(&sys, 5.0, 1);
        let w4 = CostModel::consistency_wait_secs_replicated(&sys, 5.0, 4);
        assert!(w4 >= w1, "{w4} vs {w1}");
    }

    #[test]
    fn flush_interval_grows_with_insert_buffer() {
        let small = SystemParams { insert_buf_size_mb: 16.0, ..Default::default() };
        let large = SystemParams { insert_buf_size_mb: 2048.0, ..Default::default() };
        assert!(CostModel::flush_interval_secs(&large) > CostModel::flush_interval_secs(&small));
    }

    #[test]
    fn query_node_cores_derives_from_the_default_topology() {
        // Regression (the field used to be a bare magic 16): the slot cap
        // and the topology surface must agree by construction.
        let model = CostModel::default();
        assert_eq!(model.query_node_cores, model.topology.physical_cores());
        assert_eq!(model.query_node_cores, HostTopology::DEFAULT.physical_cores());
        assert_eq!(model.scan_source, CalibrationSource::Analytic);
        assert_eq!(model.penalty_source, CalibrationSource::Analytic);
    }

    #[test]
    fn reactor_count_respects_policy_capacity() {
        let model = CostModel::default();
        let sys = |mrc| SystemParams { max_read_concurrency: mrc, ..Default::default() };
        for p in PinningPolicy::ALL {
            assert_eq!(model.reactor_count(p, &sys(1)), 1);
            assert_eq!(model.reactor_count(p, &sys(8)), 8);
        }
        // Compact/scatter can use SMT siblings; SMT-avoid stops at the
        // physical cores, shared at the legacy slot cap.
        assert_eq!(model.reactor_count(PinningPolicy::Compact, &sys(64)), 32);
        assert_eq!(model.reactor_count(PinningPolicy::Scatter, &sys(64)), 32);
        assert_eq!(model.reactor_count(PinningPolicy::SmtAvoid, &sys(64)), 16);
        assert_eq!(model.reactor_count(PinningPolicy::Shared, &sys(64)), 16);
    }

    #[test]
    fn compact_pays_smt_early_scatter_pays_handoff_early() {
        let model = CostModel::default();
        // Two compact reactors share a core: both penalized.
        let compact = model.reactor_scan_penalties(PinningPolicy::Compact, 2);
        assert_eq!(compact, vec![PenaltyMatrix::ANALYTIC.same_core_smt; 2]);
        // Two scattered reactors sit on different sockets: no SMT penalty,
        // but the handoff crosses the interconnect.
        let scatter = model.reactor_scan_penalties(PinningPolicy::Scatter, 2);
        assert_eq!(scatter, vec![1.0; 2]);
        let ch = model.reactor_handoff_secs(PinningPolicy::Compact, 2, 100);
        let sh = model.reactor_handoff_secs(PinningPolicy::Scatter, 2, 100);
        assert_eq!(ch[0], 0.0, "the delegator pays no handoff");
        assert!(sh[1] > ch[1], "cross-socket handoff beats same-core: {} vs {}", sh[1], ch[1]);
        // Scatter at 16 reactors still avoids SMT; at 17 the sibling plane
        // opens and core 0 shares.
        assert!(model.reactor_scan_penalties(PinningPolicy::Scatter, 16).iter().all(|&p| p == 1.0));
        let wrapped = model.reactor_scan_penalties(PinningPolicy::Scatter, 17);
        assert_eq!(wrapped[0], PenaltyMatrix::ANALYTIC.same_core_smt);
        assert_eq!(wrapped[16], PenaltyMatrix::ANALYTIC.same_core_smt);
        // SMT-avoid never shares, at any count.
        assert!(model
            .reactor_scan_penalties(PinningPolicy::SmtAvoid, 16)
            .iter()
            .all(|&p| p == 1.0));
    }

    #[test]
    fn single_core_topology_reproduces_the_slot_pool_bitwise() {
        // One reactor, no siblings, no handoff: the pinned model must be
        // bit-identical to the pre-reactor model for every policy.
        let model = CostModel {
            topology: HostTopology::SINGLE_CORE,
            query_node_cores: HostTopology::SINGLE_CORE.physical_cores(),
            ..Default::default()
        };
        let sys = SystemParams::default();
        let costs = [flat_cost(), flat_cost()];
        for replicas in [1, 2] {
            let legacy =
                model.cluster_perf(&costs, &[5, 5], &sys, 10, replicas, PinningPolicy::Shared);
            for policy in PinningPolicy::ALL {
                let pinned = model.cluster_perf(&costs, &[5, 5], &sys, 10, replicas, policy);
                assert_eq!(
                    legacy.latency_secs.to_bits(),
                    pinned.latency_secs.to_bits(),
                    "{policy:?} r={replicas}"
                );
                assert_eq!(legacy.qps.to_bits(), pinned.qps.to_bits(), "{policy:?} r={replicas}");
            }
        }
    }

    #[test]
    fn reactors_cut_latency_on_multi_segment_nodes() {
        // A 16-segment shard on 8 SMT-free reactors: the straggler scans
        // 2/16 of the work, far outweighing the handoff cost.
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 8, ..Default::default() };
        let cost = SearchCost {
            f32_dims: 160_000 * 48,
            heap_pushes: 160_000,
            segments: 16,
            ..Default::default()
        };
        let shared = model.cluster_perf(&[cost], &[16], &sys, 10, 1, PinningPolicy::Shared);
        let pinned = model.cluster_perf(&[cost], &[16], &sys, 10, 1, PinningPolicy::SmtAvoid);
        assert!(
            pinned.latency_secs < shared.latency_secs * 0.5,
            "reactors parallelize the scan: {} vs {}",
            pinned.latency_secs,
            shared.latency_secs
        );
        // A single-segment shard cannot parallelize and only pays costs.
        let one_seg = SearchCost { f32_dims: 10_000 * 48, segments: 1, ..Default::default() };
        let sp = model.cluster_perf(&[one_seg], &[1], &sys, 10, 1, PinningPolicy::Shared);
        let pp = model.cluster_perf(&[one_seg], &[1], &sys, 10, 1, PinningPolicy::Scatter);
        assert!(
            pp.latency_secs.to_bits() == sp.latency_secs.to_bits(),
            "one segment, one reactor, no handoff"
        );
    }

    #[test]
    fn covered_graceful_never_waits_on_flush_quantization() {
        // Regression: the quantized wait used to charge up to a full
        // flush interval to arrivals whose graceful window already
        // covered the ingestion lag (graceful in [lag, lag + interval)).
        // A staleness bound that is already satisfied must never wait —
        // in particular, a zero-lag system never waits at all.
        let base = SystemParams::default();
        let lag_ms = CostModel::ingest_lag_ms(&base);
        let interval = CostModel::flush_interval_secs(&base);
        // graceful barely past the lag, well inside the flush quantum.
        let tight = SystemParams { graceful_time_ms: lag_ms + 0.5, ..base };
        for k in 0..11 {
            let t = 2.0 + k as f64 * interval / 3.0;
            assert_eq!(CostModel::consistency_wait_secs_replicated(&tight, t, 1), 0.0, "t={t}");
        }
        // Just below the lag, the quantized wait still applies somewhere
        // in the cycle — the fix must not erase the real staleness cost.
        let uncovered = SystemParams { graceful_time_ms: lag_ms - 5.0, ..base };
        let some_wait = (0..11)
            .map(|k| {
                let t = 2.0 + k as f64 * interval / 3.0;
                CostModel::consistency_wait_secs_replicated(&uncovered, t, 1)
            })
            .fold(0.0f64, f64::max);
        assert!(some_wait > 0.0, "an uncovered window still pays");
    }

    #[test]
    fn write_work_pricing_scales_with_rows_and_amortizes_the_fsync() {
        let model = CostModel::default();
        // Group commit amortization: one 1024-row commit beats 16
        // 64-row commits, because the fsync is paid once.
        let one_big = model.wal_flush_secs(1024);
        let many_small = 16.0 * model.wal_flush_secs(64);
        assert!(one_big < many_small, "{one_big} vs {many_small}");
        assert!(model.wal_flush_secs(0) > 0.0, "the fsync floor is never free");
        assert!(model.segment_seal_secs(2048) > model.segment_seal_secs(1024));
        assert!(model.compaction_secs(4096) > model.compaction_secs(1024));
        // Sealing a segment costs more per row than compacting it later.
        assert!(model.segment_seal_secs(1024) > model.compaction_secs(1024));
    }

    #[test]
    fn build_time_scales_with_parallelism() {
        let model = CostModel::default();
        let slow = model.build_secs(
            1_000_000_000,
            &SystemParams { build_parallelism: 1, ..Default::default() },
        );
        let fast = model.build_secs(
            1_000_000_000,
            &SystemParams { build_parallelism: 8, ..Default::default() },
        );
        assert!(fast < slow / 3.0);
    }
}
