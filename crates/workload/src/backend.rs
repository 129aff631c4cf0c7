//! Evaluation backends: *what* gets measured when the tuner asks for an
//! observation.
//!
//! The paper tunes a live Milvus deployment; this reproduction tunes a
//! simulator. [`EvalBackend`] is the seam between the two: the
//! [`Evaluator`](crate::Evaluator) owns the tuner-facing bookkeeping
//! (caching, worst-in-history substitution for failures, timing) and is
//! generic over a backend that turns a configuration into an
//! [`Outcome`]. Three backends ship in-tree:
//!
//! * [`SimBackend`] — the simulator replay
//!   ([`crate::replay::evaluate_sharded`]) against a fixed
//!   [`vdms::cluster::ClusterSpec`]: the paper's single node by default
//!   ([`SimBackend::new`]), or N query nodes with per-shard memory budgets
//!   behind a scatter-gather proxy ([`SimBackend::with_spec`]);
//! * [`TopologyBackend`] — the topology-as-a-knob backend: each candidate
//!   carries its own requested shard count ([`VdmsConfig::shards`]) and is
//!   served by the matching cluster, with the testbed memory budget split
//!   evenly across the requested nodes — so the tuner feels the real
//!   capacity trade-off of fanning out;
//! * [`ServingBackend`] — any of the above, with every successful candidate
//!   then exercised by the discrete-event serving simulator under an
//!   open-loop arrival process (and an optional p99 SLO).
//!
//! Every backend is a pure function of `(config, seed)`: the evaluator
//! caches outcomes by configuration.

use crate::replay::{evaluate_sharded, Outcome};
use crate::serving::{ArrivalPlan, Deployment, ServingSpec};
use crate::Workload;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use vdms::cluster::ClusterSpec;
use vdms::{PinningPolicy, VdmsConfig, VdmsError, WriteKnobs};
use vecdata::rng::derive;

/// Capabilities and metadata of an evaluation backend, snapshotted by the
/// evaluator at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendInfo {
    /// Display name for reports ("sim", "sim(4)", "sim(2x3)", ...).
    pub name: String,
    /// Dataset dimensionality, for configuration sanitization.
    pub dim: usize,
    /// Neighbors retrieved per query.
    pub top_k: usize,
    /// Query nodes serving the collection (1 for single-node backends; the
    /// ceiling for topology-tuning backends).
    pub shards: usize,
    /// Replica groups of the backend's *fixed* deployment — what a
    /// candidate carrying no replication request is served by. 1 for
    /// single-copy backends and for topology backends (whose candidates
    /// carry their own per-candidate request, which takes precedence).
    pub replicas: usize,
    /// Dimensionality of the tuning space this backend realizes: the 16
    /// base tunables, plus one per deployment knob (shard count) it lets
    /// candidates choose. The evaluator rejects candidates whose encoded
    /// length disagrees — as failed observations, never panics.
    pub space_dims: usize,
}

/// A system that can evaluate one VDMS configuration.
///
/// `Sync` so batched evaluation can fan candidates out across threads.
/// Implementations receive *sanitized* configurations (the evaluator clamps
/// them using [`BackendInfo::dim`]/[`BackendInfo::top_k`] first) but must
/// tolerate unsanitized ones, like a real deployment would (reject, crash,
/// or clamp — all of which surface as a failed [`Outcome`]).
pub trait EvalBackend: Sync {
    /// Static description of this backend.
    fn info(&self) -> BackendInfo;

    /// Measure one configuration. Failures (crash / timeout / OOM) are
    /// reported *inside* the outcome, never as a panic.
    fn evaluate(&self, config: &VdmsConfig, seed: u64) -> Outcome;
}

/// A shared reference to a backend is a backend.
impl<B: EvalBackend + ?Sized> EvalBackend for &B {
    fn info(&self) -> BackendInfo {
        (**self).info()
    }
    fn evaluate(&self, config: &VdmsConfig, seed: u64) -> Outcome {
        (**self).evaluate(config, seed)
    }
}

/// The simulator backend: the workload served by a fixed cluster shape —
/// by default the paper's single node, the one-shard, one-replica cluster.
#[derive(Debug, Clone, Copy)]
pub struct SimBackend<'a> {
    workload: &'a Workload,
    spec: ClusterSpec,
}

impl<'a> SimBackend<'a> {
    /// The single-node testbed ([`ClusterSpec::new`]`(1)`).
    pub fn new(workload: &'a Workload) -> SimBackend<'a> {
        SimBackend::with_spec(workload, ClusterSpec::new(1))
    }

    /// A fixed cluster shape (shard count, replicas, per-node budgets). A
    /// directly constructed spec with `shards: 0` is clamped to one node,
    /// matching what the cluster layer would serve.
    pub fn with_spec(workload: &'a Workload, spec: ClusterSpec) -> SimBackend<'a> {
        SimBackend { workload, spec: spec.normalized() }
    }

    /// The workload this backend replays.
    pub fn workload(&self) -> &Workload {
        self.workload
    }
}

impl EvalBackend for SimBackend<'_> {
    fn info(&self) -> BackendInfo {
        let name = match (self.spec.shards, self.spec.replicas) {
            (1, 1) => "sim".to_string(),
            (s, 1) => format!("sim({s})"),
            (s, r) => format!("sim({s}x{r})"),
        };
        BackendInfo {
            name,
            dim: self.workload.dataset.dim(),
            top_k: self.workload.top_k,
            shards: self.spec.shards,
            replicas: self.spec.replicas,
            // The cluster shape is fixed per backend; candidates tune the
            // 16 base knobs only.
            space_dims: VdmsConfig::BASE_TUNABLES,
        }
    }

    fn evaluate(&self, config: &VdmsConfig, seed: u64) -> Outcome {
        evaluate_sharded(self.workload, config, seed, self.spec)
    }
}

/// The topology-tuning backend: the deployment shape is *part of the
/// candidate*. Each configuration's requested shard count
/// ([`VdmsConfig::shards`]) — and, when replication tuning is enabled, its
/// requested replication factor ([`VdmsConfig::replicas`]) — selects the
/// cluster that serves it, with the single-node testbed budget split
/// evenly across **all** requested nodes ([`ClusterSpec::replicated`]:
/// per-node budget = testbed / (shards · replicas)) — fanning out buys
/// straggler-bounded latency, replicating buys read slots and routing
/// freedom, and both pay in per-node capacity, fixed overhead and (for
/// replicas) consistency staleness, so the tuner optimizes real
/// trade-offs rather than free knobs.
#[derive(Debug, Clone, Copy)]
pub struct TopologyBackend<'a> {
    workload: &'a Workload,
    max_shards: usize,
    /// `None`: the 17-dim backend — candidates carry a shard request only.
    /// `Some(max)`: the 18-dim backend — candidates must also carry a
    /// replication request, realized up to `max` copies.
    max_replicas: Option<usize>,
    /// Whether candidates additionally carry a reactor pinning request
    /// ([`VdmsConfig::pinning`], the 19th dimension). A backend without
    /// the knob still realizes [`PinningPolicy::Shared`] requests (the
    /// shared pool *is* its execution model) but refuses every other
    /// policy with a typed [`VdmsError::PinningUnrealizable`].
    pinning: bool,
    /// Whether candidates additionally carry write-path knobs
    /// ([`VdmsConfig::writepath`], dimensions 20–22). A backend without
    /// the knobs still realizes [`WriteKnobs::DEFAULT`] requests (the
    /// defaults *are* its fixed write path) but refuses every other
    /// setting with a typed [`VdmsError::WritePathUnrealizable`].
    writepath: bool,
}

impl<'a> TopologyBackend<'a> {
    /// A backend serving unreplicated clusters of 1..=`max_shards` query
    /// nodes (the 17-dimensional space of PR 3).
    pub fn new(workload: &'a Workload, max_shards: usize) -> TopologyBackend<'a> {
        TopologyBackend {
            workload,
            max_shards: max_shards.max(1),
            max_replicas: None,
            pinning: false,
            writepath: false,
        }
    }

    /// A backend additionally serving 1..=`max_replicas` replicas of every
    /// segment (the 18-dimensional space): candidates carry both a shard
    /// and a replication request. `max_replicas == 1` still declares the
    /// 18-dimensional space — that is what lets a frozen-at-1 replication
    /// spec reproduce 17-dimensional tuning bit for bit against the same
    /// control plane.
    pub fn with_replication(
        workload: &'a Workload,
        max_shards: usize,
        max_replicas: usize,
    ) -> TopologyBackend<'a> {
        TopologyBackend {
            workload,
            max_shards: max_shards.max(1),
            max_replicas: Some(max_replicas.max(1)),
            pinning: false,
            writepath: false,
        }
    }

    /// A backend additionally letting candidates choose the reactor
    /// pinning policy (the 19-dimensional space): every [`PinningPolicy`]
    /// is realizable, and the perf law
    /// ([`vdms::CostModel::cluster_perf`]) prices non-shared policies as
    /// shard reactors. Declaring the dimension
    /// with the tuner's pinning coordinate frozen at
    /// [`PinningPolicy::Shared`] reproduces 18-dimensional tuning bit for
    /// bit against the same control plane.
    pub fn with_pinning(
        workload: &'a Workload,
        max_shards: usize,
        max_replicas: usize,
    ) -> TopologyBackend<'a> {
        TopologyBackend {
            workload,
            max_shards: max_shards.max(1),
            max_replicas: Some(max_replicas.max(1)),
            pinning: true,
            writepath: false,
        }
    }

    /// A backend additionally letting candidates choose their write-path
    /// knobs (the 22-dimensional space: shards, replicas, pinning, and
    /// the three WAL/segment-lifecycle dimensions of
    /// `SpaceSpec::with_writepath`). The knobs only change measured
    /// outcomes when the serving spec offers inserts
    /// ([`ServingSpec::insert_fraction`]); declaring the dimensions with
    /// the write coordinates frozen at [`WriteKnobs::DEFAULT`] reproduces
    /// 19-dimensional tuning bit for bit against the same control plane.
    pub fn with_writepath(
        workload: &'a Workload,
        max_shards: usize,
        max_replicas: usize,
    ) -> TopologyBackend<'a> {
        TopologyBackend {
            workload,
            max_shards: max_shards.max(1),
            max_replicas: Some(max_replicas.max(1)),
            pinning: true,
            writepath: true,
        }
    }

    /// Whether candidates may choose a reactor pinning policy.
    pub fn pins_reactors(&self) -> bool {
        self.pinning
    }

    /// Whether candidates may choose their write-path knobs.
    pub fn tunes_writepath(&self) -> bool {
        self.writepath
    }

    /// The workload this backend replays.
    pub fn workload(&self) -> &Workload {
        self.workload
    }

    /// Largest cluster this backend will deploy.
    pub fn max_shards(&self) -> usize {
        self.max_shards
    }

    /// Largest replication factor this backend will deploy (1 when
    /// replication tuning is disabled).
    pub fn max_replicas(&self) -> usize {
        self.max_replicas.unwrap_or(1)
    }

    /// The cluster a candidate's deployment request maps to, or a typed
    /// refusal when the request exceeds what this control plane can
    /// deploy. Rejecting — instead of silently clamping — keeps the
    /// recorded shape honest: the tuner and the evaluator's cache never
    /// see a shape that was substituted by another. Missing requests
    /// deploy the single-node, single-copy testbed.
    pub fn cluster_spec_for(&self, config: &VdmsConfig) -> Result<ClusterSpec, VdmsError> {
        let requested = config.shards.unwrap_or(1).max(1);
        if requested > self.max_shards {
            return Err(VdmsError::TopologyUnrealizable {
                requested_shards: requested,
                max_shards: self.max_shards,
            });
        }
        let replicas = config.replicas.unwrap_or(1).max(1);
        let ceiling = self.max_replicas();
        if replicas > ceiling {
            return Err(VdmsError::ReplicationUnrealizable {
                requested_replicas: replicas,
                max_replicas: ceiling,
            });
        }
        // A backend without the pinning knob still realizes shared-pool
        // requests (that *is* its execution model) but refuses every other
        // policy — never a silent fallback to the pool.
        if let Some(policy) = config.pinning {
            if !self.pinning && policy != PinningPolicy::Shared {
                return Err(VdmsError::PinningUnrealizable { requested: policy });
            }
        }
        // Same contract for the write path: the default knobs are the
        // backend's own fixed write path, anything else needs the knob.
        if let Some(knobs) = config.writepath {
            if !self.writepath && knobs != WriteKnobs::DEFAULT {
                return Err(VdmsError::WritePathUnrealizable { requested: knobs });
            }
        }
        Ok(ClusterSpec::replicated(requested, replicas))
    }
}

impl EvalBackend for TopologyBackend<'_> {
    fn info(&self) -> BackendInfo {
        let name = match (self.max_replicas, self.pinning, self.writepath) {
            (Some(r), true, true) => {
                format!("topology(1..={} x1..={r} +pinning +writepath)", self.max_shards)
            }
            (Some(r), true, false) => {
                format!("topology(1..={} x1..={r} +pinning)", self.max_shards)
            }
            (Some(r), false, _) => format!("topology(1..={} x1..={r})", self.max_shards),
            (None, ..) => format!("topology(1..={})", self.max_shards),
        };
        BackendInfo {
            name,
            dim: self.workload.dataset.dim(),
            top_k: self.workload.top_k,
            shards: self.max_shards,
            // Candidates carry their own replication request; one without
            // a request deploys a single copy.
            replicas: 1,
            // 16 base knobs + the shard-count deployment knob (+ the
            // replication, pinning, and three write-path knobs when
            // enabled).
            space_dims: VdmsConfig::BASE_TUNABLES
                + 1
                + usize::from(self.max_replicas.is_some())
                + usize::from(self.pinning)
                + 3 * usize::from(self.writepath),
        }
    }

    fn evaluate(&self, config: &VdmsConfig, seed: u64) -> Outcome {
        match self.cluster_spec_for(config) {
            Ok(spec) => evaluate_sharded(self.workload, config, seed, spec),
            // Refused by the control plane before any work ran: no memory
            // accounted, no replay time burned.
            Err(e) => Outcome {
                qps: 0.0,
                recall: 0.0,
                memory_gib: 0.0,
                simulated_secs: 0.0,
                failure: Some(e),
                serving: None,
            },
        }
    }
}

/// The live-serving backend: every candidate is measured by the offline
/// path first (QPS capacity, recall, memory — via the wrapped `inner`
/// backend, so serving works single-node, sharded, or under topology
/// co-tuning), then *exercised* by the discrete-event serving simulator
/// ([`crate::serving`]): an open-loop arrival process, consistency waits
/// gated by `gracefulTime`, a bounded queue drained by
/// `maxReadConcurrency` worker slots.
///
/// The outcome keeps the inner backend's `qps`/`recall`/`memory_gib`
/// (tuners still optimize QPS@recall; with `arrival_qps <= 0` or NaN the
/// backend degrades to the offline semantics bit-for-bit) and attaches
/// [`crate::serving::ServingStats`]. When the spec carries a p99 SLO,
/// violating configs come back *failed*
/// ([`VdmsError::SloViolation`]) — the tuner optimizes QPS@recall
/// **subject to** the SLO, exactly like budget and space rejections.
#[derive(Debug, Clone)]
pub struct ServingBackend<'a, B: EvalBackend> {
    workload: &'a Workload,
    inner: B,
    spec: ServingSpec,
    /// Inner capabilities, snapshotted at construction — `evaluate` reads
    /// `dim`/`top_k` per candidate and must not rebuild the info (and its
    /// heap-allocated name) every time.
    inner_info: BackendInfo,
    plans: PlanMemo,
}

/// The arrival plan of the seed a [`ServingBackend`] was last evaluated
/// with. An evaluator hands every candidate of a tune the same seed, and
/// the plan is a function of `(spec, seed)` alone, so one draw serves the
/// whole tune. Purely a cache: another seed gets its own, correct plan (and
/// takes the slot), so outcomes never depend on what was evaluated before.
/// Empty until the first `evaluate` — construction stays free.
#[derive(Debug, Default)]
struct PlanMemo(Mutex<Option<Arc<ArrivalPlan>>>);

impl PlanMemo {
    /// The slot is only ever assigned a finished plan, and nothing that can
    /// panic runs under the lock, so a poisoned slot is still valid.
    fn slot(&self) -> MutexGuard<'_, Option<Arc<ArrivalPlan>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn plan(&self, spec: &ServingSpec, seed: u64) -> Arc<ArrivalPlan> {
        if let Some(plan) = self.slot().as_ref().filter(|plan| plan.seed() == seed) {
            return Arc::clone(plan);
        }
        // Drawn outside the lock: concurrent first evaluations each draw
        // the (identical) plan rather than wait on one another.
        let plan = Arc::new(ArrivalPlan::new(spec, seed));
        *self.slot() = Some(Arc::clone(&plan));
        plan
    }
}

impl Clone for PlanMemo {
    fn clone(&self) -> PlanMemo {
        PlanMemo(Mutex::new(self.slot().clone()))
    }
}

impl<'a> ServingBackend<'a, SimBackend<'a>> {
    /// Serving over the single-node simulator.
    pub fn over_sim(workload: &'a Workload, spec: ServingSpec) -> Self {
        ServingBackend::new(workload, SimBackend::new(workload), spec)
    }
}

impl<'a, B: EvalBackend> ServingBackend<'a, B> {
    /// Serving over an arbitrary inner backend. `workload` must be the
    /// same workload `inner` measures — it supplies the cost model that
    /// turns the inner QPS back into per-query service times.
    pub fn new(workload: &'a Workload, inner: B, spec: ServingSpec) -> Self {
        let inner_info = inner.info();
        ServingBackend { workload, inner, spec, inner_info, plans: PlanMemo::default() }
    }

    /// The wrapped offline backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The arrival process and SLO this backend serves under.
    pub fn spec(&self) -> &ServingSpec {
        &self.spec
    }
}

impl<B: EvalBackend> EvalBackend for ServingBackend<'_, B> {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: format!("serving({} @ {:.0} qps)", self.inner_info.name, self.spec.arrival_qps),
            ..self.inner_info.clone()
        }
    }

    fn evaluate(&self, config: &VdmsConfig, seed: u64) -> Outcome {
        let mut out = self.inner.evaluate(config, seed);
        // Offline failures (crash/OOM/timeout/space) propagate untouched;
        // a zero or NaN arrival rate means "no serving phase" and degrades
        // to the inner backend bit-for-bit.
        if !out.is_ok() || !self.spec.has_serving_phase() {
            return out;
        }
        let cfg = config.sanitized(self.inner_info.dim, self.inner_info.top_k);
        let sys = cfg.system;
        // The replication the inner backend deployed for this candidate —
        // the candidate's own request when it carries one (topology
        // co-tuning), the inner backend's fixed deployment otherwise
        // (e.g. a `SimBackend` fixed to a replicated spec). Each
        // replica group gets its own queue and worker slots, and the
        // router picks one per arrival.
        let replicas = cfg.replicas.unwrap_or(self.inner_info.replicas);
        let model = &self.workload.cost_model;
        let service = model.service_secs_from_qps_replicated(out.qps, &sys, replicas);
        // A pinning request replaces each group's shared slot pool with
        // per-reactor single-owner queues, and a write-path request selects
        // the WAL/segment knobs the simulated insert traffic runs under.
        // Absent a request the backend's fixed execution model and write
        // path apply — the shared pool and the default knobs — so
        // `Some(Shared)` and `Some(DEFAULT)` are the same call as `None`.
        let stats = self.plans.plan(&self.spec, derive(seed, 0x5E2B)).stats(&Deployment {
            model,
            sys: &sys,
            base_service_secs: service,
            replicas,
            policy: cfg.pinning.unwrap_or(PinningPolicy::Shared),
            top_k: self.inner_info.top_k,
            knobs: cfg.writepath.unwrap_or(WriteKnobs::DEFAULT),
        });
        if stats.violates_slo(&self.spec) {
            out.failure = Some(VdmsError::SloViolation {
                p99_secs: stats.p99_latency_secs,
                slo_secs: self.spec.slo_p99_secs.unwrap_or(f64::INFINITY),
                shed: stats.shed,
            });
            // An SLO violator's speed feedback is its measured *goodput*
            // (completions under the timeout per second), not the offline
            // QPS it failed to deliver under this load. The distinction
            // only reaches a tuner while its history holds no success (the
            // evaluator substitutes worst-in-history afterwards), but in
            // that regime it is decisive: raw offline QPS rewards exactly
            // the under-provisioned shapes that shed the most, steering
            // the search *away* from deployments that could ever meet the
            // SLO, while goodput rewards capacity actually delivered.
            out.qps = stats.goodput_qps;
        }
        out.serving = Some(stats);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecdata::{DatasetKind, DatasetSpec};

    fn make() -> Workload {
        Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10)
    }

    #[test]
    fn sim_backend_reports_workload_shape() {
        let w = make();
        let info = SimBackend::new(&w).info();
        assert_eq!(info.dim, w.dataset.dim());
        assert_eq!(info.top_k, 10);
        assert_eq!(info.shards, 1);
    }

    #[test]
    fn sharded_backend_reports_shards() {
        let w = make();
        let info = SimBackend::with_spec(&w, ClusterSpec::new(4)).info();
        assert_eq!(info.shards, 4);
        assert_eq!(info.name, "sim(4)");
        let info = SimBackend::with_spec(&w, ClusterSpec::replicated(2, 3)).info();
        assert_eq!((info.shards, info.replicas), (2, 3));
        assert_eq!(info.name, "sim(2x3)");
    }

    #[test]
    fn backend_references_delegate() {
        let w = make();
        let b = SimBackend::new(&w);
        let by_ref: &dyn EvalBackend = &b;
        let via_ref = by_ref.evaluate(&VdmsConfig::default_config(), 3);
        let direct = b.evaluate(&VdmsConfig::default_config(), 3);
        assert_eq!(via_ref, direct);
        assert_eq!(by_ref.info(), b.info());
    }

    #[test]
    fn the_single_node_is_the_one_shard_spec() {
        let w = make();
        let single = SimBackend::new(&w);
        let one = SimBackend::with_spec(&w, ClusterSpec::new(1));
        assert_eq!(single.info(), one.info());
        assert_eq!(single.info().name, "sim");
        for seed in [0u64, 7] {
            assert_eq!(
                single.evaluate(&VdmsConfig::default_config(), seed),
                one.evaluate(&VdmsConfig::default_config(), seed)
            );
        }
        // A hand-built zero-node spec is served, and reported, as one node.
        let zero = ClusterSpec { shards: 0, replicas: 0, ..ClusterSpec::new(1) };
        assert_eq!(SimBackend::with_spec(&w, zero).info(), single.info());
    }

    #[test]
    fn topology_backend_reports_extended_space() {
        let w = make();
        let info = TopologyBackend::new(&w, 8).info();
        assert_eq!(info.space_dims, VdmsConfig::BASE_TUNABLES + 1);
        assert_eq!(info.shards, 8);
        assert_eq!(info.name, "topology(1..=8)");
        // Fixed-shape backends keep the paper's 16-dimensional space.
        assert_eq!(SimBackend::new(&w).info().space_dims, VdmsConfig::BASE_TUNABLES);
        assert_eq!(
            SimBackend::with_spec(&w, ClusterSpec::new(4)).info().space_dims,
            VdmsConfig::BASE_TUNABLES
        );
    }

    #[test]
    fn topology_backend_serves_the_requested_cluster() {
        let w = make();
        let b = TopologyBackend::new(&w, 8);
        // A layout with several sealed segments so sharding has work.
        let mut cfg = VdmsConfig::default_config();
        cfg.system.segment_max_size_mb = 64.0;
        cfg.system.segment_seal_proportion = 0.5;
        for shards in [1usize, 2, 4] {
            cfg.shards = Some(shards);
            let via_topology = b.evaluate(&cfg, 5);
            let via_fixed = SimBackend::with_spec(&w, ClusterSpec::new(shards)).evaluate(&cfg, 5);
            assert_eq!(via_topology.qps.to_bits(), via_fixed.qps.to_bits(), "{shards}");
            assert_eq!(via_topology.memory_gib.to_bits(), via_fixed.memory_gib.to_bits());
        }
        // No topology request → the single-node testbed.
        cfg.shards = None;
        let default_shape = b.evaluate(&cfg, 5);
        let single = SimBackend::new(&w).evaluate(&cfg, 5);
        assert_eq!(default_shape.qps.to_bits(), single.qps.to_bits());
    }

    #[test]
    fn topology_backend_refuses_over_ceiling_requests() {
        // A request beyond the deployable ceiling is a typed failure, not a
        // silent clamp: clamping would record (and cache) a topology that
        // was never deployed, flattening the surrogate over 9..=N shapes.
        let w = make();
        let b = TopologyBackend::new(&w, 8);
        let mut cfg = VdmsConfig::default_config();
        cfg.shards = Some(64);
        assert!(matches!(
            b.cluster_spec_for(&cfg),
            Err(VdmsError::TopologyUnrealizable { requested_shards: 64, max_shards: 8 })
        ));
        let out = b.evaluate(&cfg, 5);
        assert!(!out.is_ok());
        assert_eq!(out.simulated_secs, 0.0, "refused before any work ran");
        assert!(matches!(out.failure, Some(VdmsError::TopologyUnrealizable { .. })));
        // In-range requests still deploy exactly what was asked.
        cfg.shards = Some(8);
        assert_eq!(b.cluster_spec_for(&cfg).unwrap().shards, 8);
    }

    #[test]
    fn replication_backend_reports_the_18_dim_space() {
        let w = make();
        let info = TopologyBackend::with_replication(&w, 8, 4).info();
        assert_eq!(info.space_dims, VdmsConfig::BASE_TUNABLES + 2);
        assert_eq!(info.name, "topology(1..=8 x1..=4)");
        // Even frozen-at-1 replication declares the 18-dim space: that is
        // what lets a frozen spec reproduce 17-dim tuning against the
        // same control plane.
        let frozen = TopologyBackend::with_replication(&w, 8, 1).info();
        assert_eq!(frozen.space_dims, VdmsConfig::BASE_TUNABLES + 2);
        assert_eq!(TopologyBackend::new(&w, 8).info().space_dims, VdmsConfig::BASE_TUNABLES + 1);
    }

    #[test]
    fn replication_backend_deploys_the_requested_copies() {
        let w = make();
        let b = TopologyBackend::with_replication(&w, 4, 4);
        let mut cfg = VdmsConfig::default_config();
        cfg.system.segment_max_size_mb = 64.0;
        cfg.system.segment_seal_proportion = 0.5;
        cfg.shards = Some(2);
        cfg.replicas = Some(1);
        let one = b.evaluate(&cfg, 5);
        cfg.replicas = Some(2);
        let two = b.evaluate(&cfg, 5);
        assert!(one.is_ok() && two.is_ok());
        assert_eq!(one.recall.to_bits(), two.recall.to_bits(), "recall is replication-invariant");
        assert!(two.memory_gib > one.memory_gib * 1.8, "copies are accounted per replica");
        // Spec mapping: per-node budget = testbed / (shards · replicas).
        let spec = b.cluster_spec_for(&cfg).unwrap();
        assert_eq!(spec.nodes(), 4);
        assert!((spec.shard_budget_gib - vdms::collection::MEMORY_BUDGET_GIB / 4.0).abs() < 1e-12);
    }

    #[test]
    fn replication_backend_refuses_over_ceiling_requests() {
        let w = make();
        let b = TopologyBackend::with_replication(&w, 4, 2);
        let mut cfg = VdmsConfig::default_config();
        cfg.shards = Some(2);
        cfg.replicas = Some(8);
        assert!(matches!(
            b.cluster_spec_for(&cfg),
            Err(VdmsError::ReplicationUnrealizable { requested_replicas: 8, max_replicas: 2 })
        ));
        let out = b.evaluate(&cfg, 5);
        assert!(!out.is_ok());
        assert_eq!(out.simulated_secs, 0.0, "refused before any work ran");
        // The 17-dim backend refuses any replication request beyond one
        // copy — it cannot realize the axis at all.
        let narrow = TopologyBackend::new(&w, 4);
        assert!(matches!(
            narrow.cluster_spec_for(&cfg),
            Err(VdmsError::ReplicationUnrealizable { max_replicas: 1, .. })
        ));
    }

    #[test]
    fn pinning_backend_reports_the_19_dim_space() {
        let w = make();
        let info = TopologyBackend::with_pinning(&w, 8, 4).info();
        assert_eq!(info.space_dims, VdmsConfig::BASE_TUNABLES + 3);
        assert_eq!(info.name, "topology(1..=8 x1..=4 +pinning)");
        assert!(TopologyBackend::with_pinning(&w, 8, 4).pins_reactors());
        assert!(!TopologyBackend::with_replication(&w, 8, 4).pins_reactors());
    }

    #[test]
    fn pinning_requests_are_refused_without_the_knob() {
        let w = make();
        let b = TopologyBackend::with_replication(&w, 4, 2);
        let mut cfg = VdmsConfig::default_config();
        cfg.shards = Some(2);
        cfg.replicas = Some(1);
        // The shared policy is the backend's own execution model: realized.
        cfg.pinning = Some(PinningPolicy::Shared);
        assert!(b.cluster_spec_for(&cfg).is_ok());
        // Every other policy is a typed refusal, never a silent pool.
        cfg.pinning = Some(PinningPolicy::Scatter);
        assert!(matches!(
            b.cluster_spec_for(&cfg),
            Err(VdmsError::PinningUnrealizable { requested: PinningPolicy::Scatter })
        ));
        let out = b.evaluate(&cfg, 5);
        assert!(!out.is_ok());
        assert_eq!(out.simulated_secs, 0.0, "refused before any work ran");
        // The pinning backend realizes all of them.
        let pinned = TopologyBackend::with_pinning(&w, 4, 2);
        for policy in PinningPolicy::ALL {
            cfg.pinning = Some(policy);
            assert!(pinned.cluster_spec_for(&cfg).is_ok(), "{policy:?}");
        }
    }

    #[test]
    fn shared_pinning_request_evaluates_bitwise_unpinned() {
        let w = make();
        let b = TopologyBackend::with_pinning(&w, 4, 2);
        let spec = ServingSpec { arrival_qps: 80.0, requests: 300, ..Default::default() };
        let serving = ServingBackend::new(&w, b, spec);
        let mut cfg = VdmsConfig::default_config();
        cfg.system.segment_max_size_mb = 64.0;
        cfg.system.segment_seal_proportion = 0.5;
        cfg.shards = Some(2);
        cfg.replicas = Some(2);
        cfg.pinning = None;
        let unpinned = serving.evaluate(&cfg, 5);
        cfg.pinning = Some(PinningPolicy::Shared);
        let shared = serving.evaluate(&cfg, 5);
        assert!(unpinned.is_ok() && shared.is_ok());
        assert_eq!(unpinned.qps.to_bits(), shared.qps.to_bits());
        assert_eq!(unpinned.recall.to_bits(), shared.recall.to_bits());
        assert_eq!(unpinned.serving, shared.serving, "Some(Shared) is the legacy pool, bitwise");
        // A non-shared policy actually changes the measured deployment.
        cfg.pinning = Some(PinningPolicy::SmtAvoid);
        let avoided = serving.evaluate(&cfg, 5);
        assert!(avoided.is_ok(), "{:?}", avoided.failure);
        assert_ne!(avoided.qps.to_bits(), shared.qps.to_bits(), "reactors reshape the perf law");
        assert_eq!(
            avoided.recall.to_bits(),
            shared.recall.to_bits(),
            "recall is execution-invariant"
        );
    }

    #[test]
    fn writepath_backend_reports_the_22_dim_space() {
        let w = make();
        let info = TopologyBackend::with_writepath(&w, 8, 4).info();
        assert_eq!(info.space_dims, VdmsConfig::BASE_TUNABLES + 6);
        assert_eq!(info.name, "topology(1..=8 x1..=4 +pinning +writepath)");
        assert!(TopologyBackend::with_writepath(&w, 8, 4).tunes_writepath());
        assert!(TopologyBackend::with_writepath(&w, 8, 4).pins_reactors());
        assert!(!TopologyBackend::with_pinning(&w, 8, 4).tunes_writepath());
    }

    #[test]
    fn writepath_requests_are_refused_without_the_knob() {
        let w = make();
        let b = TopologyBackend::with_pinning(&w, 4, 2);
        let mut cfg = VdmsConfig::default_config();
        cfg.shards = Some(2);
        cfg.replicas = Some(1);
        // The default knobs are the backend's own fixed write path: realized.
        cfg.writepath = Some(WriteKnobs::DEFAULT);
        assert!(b.cluster_spec_for(&cfg).is_ok());
        // Anything else is a typed refusal, never a silent clamp back.
        let custom = WriteKnobs { wal_batch_rows: 64, ..WriteKnobs::DEFAULT };
        cfg.writepath = Some(custom);
        assert!(matches!(
            b.cluster_spec_for(&cfg),
            Err(VdmsError::WritePathUnrealizable { requested }) if requested == custom
        ));
        let out = b.evaluate(&cfg, 5);
        assert!(!out.is_ok());
        assert_eq!(out.simulated_secs, 0.0, "refused before any work ran");
        // The write-path backend realizes any sanitized knob setting.
        let tuned = TopologyBackend::with_writepath(&w, 4, 2);
        assert!(tuned.cluster_spec_for(&cfg).is_ok());
    }

    #[test]
    fn default_writepath_request_evaluates_bitwise_unrequested() {
        let w = make();
        let b = TopologyBackend::with_writepath(&w, 4, 2);
        let spec = ServingSpec { arrival_qps: 80.0, requests: 300, ..Default::default() }
            .with_inserts(0.5);
        let serving = ServingBackend::new(&w, b, spec);
        let mut cfg = VdmsConfig::default_config();
        cfg.shards = Some(2);
        cfg.replicas = Some(1);
        cfg.writepath = None;
        let unrequested = serving.evaluate(&cfg, 5);
        cfg.writepath = Some(WriteKnobs::DEFAULT);
        let defaulted = serving.evaluate(&cfg, 5);
        assert!(unrequested.is_ok() && defaulted.is_ok());
        assert_eq!(unrequested.qps.to_bits(), defaulted.qps.to_bits());
        assert_eq!(unrequested.serving, defaulted.serving, "Some(DEFAULT) is the default, bitwise");
        // A different group-commit batch actually changes the deployment.
        cfg.writepath = Some(WriteKnobs { wal_batch_rows: 1, ..WriteKnobs::DEFAULT });
        let eager = serving.evaluate(&cfg, 5);
        assert!(eager.is_ok(), "{:?}", eager.failure);
        assert_ne!(eager.serving, defaulted.serving, "write knobs reshape the trace");
        assert_eq!(
            eager.recall.to_bits(),
            defaulted.recall.to_bits(),
            "recall is write-path-invariant"
        );
    }

    #[test]
    fn memoised_arrival_plan_never_changes_an_outcome() {
        let w = make();
        let spec = ServingSpec {
            arrival_qps: 900.0,
            requests: 300,
            queue_capacity: 32,
            ..Default::default()
        }
        .with_inserts(0.5);
        let backend = || ServingBackend::new(&w, TopologyBackend::with_writepath(&w, 2, 3), spec);
        let mut a = VdmsConfig::default_config();
        a.shards = Some(1);
        // B differs in everything a plan must not absorb: service time,
        // replicas, pinning, write knobs, gracefulTime.
        let mut b = VdmsConfig::default_for(anns::IndexType::IvfFlat);
        b.shards = Some(2);
        b.replicas = Some(3);
        b.pinning = Some(PinningPolicy::Compact);
        b.writepath =
            Some(WriteKnobs { wal_batch_rows: 8, flush_interval_secs: 0.01, seal_rows: 64 });
        b.system.graceful_time_ms = 0.0;
        let shared = backend();
        let empty_clone = shared.clone();
        // Same config, two seeds, then the first seed again: the slot is
        // taken over and taken back, and a stale plan would show.
        for (cfg, seed) in [(&a, 5), (&b, 9), (&a, 5), (&b, 5), (&a, 9)] {
            let fresh = backend().evaluate(cfg, seed);
            assert!(fresh.serving.is_some(), "{:?}", fresh.failure);
            assert_eq!(shared.evaluate(cfg, seed), fresh);
            // A clone agrees with its original, whatever its slot holds.
            assert_eq!(shared.clone().evaluate(cfg, seed), fresh);
            assert_eq!(empty_clone.evaluate(cfg, seed), fresh);
        }
        assert_ne!(
            shared.evaluate(&a, 5),
            shared.evaluate(&a, 9),
            "the seed reaches the trace, so a plan reused across seeds cannot hide"
        );
    }

    #[test]
    fn a_serving_backend_is_free_until_its_first_evaluation() {
        let w = make();
        let spec = ServingSpec { requests: usize::MAX, ..Default::default() }.with_inserts(1.0);
        // This plan cannot be drawn (its vectors overflow `isize`);
        // constructing, describing and cloning the backend must not try.
        let b = ServingBackend::over_sim(&w, spec);
        assert_eq!(b.clone().info().name, b.info().name);
    }

    #[test]
    fn mixed_serving_backend_attaches_write_stats() {
        let w = make();
        let spec = ServingSpec { arrival_qps: 80.0, requests: 300, ..Default::default() }
            .with_inserts(0.5);
        let b = ServingBackend::over_sim(&w, spec);
        let out = b.evaluate(&VdmsConfig::default_config(), 5);
        assert!(out.is_ok(), "{:?}", out.failure);
        let stats = out.serving.expect("serving phase ran");
        assert_eq!(stats.writes.offered, 150);
        assert_eq!(stats.writes.accepted + stats.writes.shed, stats.writes.offered);
        assert_eq!(stats.writes.last_durable_lsn as usize, stats.writes.accepted);
        assert!(stats.writes.flushes_end_of_tick + stats.writes.flushes_full_batch > 0);
        // Read-only specs keep the zeroed write ledger.
        let quiet = ServingBackend::over_sim(&w, spec.with_inserts(0.0))
            .evaluate(&VdmsConfig::default_config(), 5);
        assert_eq!(quiet.serving.expect("serving ran").writes, crate::WriteStats::default());
    }

    #[test]
    fn serving_over_a_fixed_replicated_backend_simulates_every_group() {
        // Regression: the serving phase used to derive the replica count
        // from the candidate config only, so a fixed replicated inner
        // backend (whose candidates carry no replication request) was
        // simulated as a single group with a service time inverted from a
        // fleet-scaled QPS — a deployment that was never measured.
        use crate::serving::simulate_replicated;
        use vecdata::rng::derive;
        let w = make();
        let spec = ServingSpec { arrival_qps: 120.0, requests: 300, ..Default::default() };
        let cluster = ClusterSpec { shard_budget_gib: 125.0, ..ClusterSpec::replicated(1, 3) };
        let inner = SimBackend::with_spec(&w, cluster);
        assert_eq!(inner.info().replicas, 3);
        let b = ServingBackend::new(&w, inner, spec);
        let cfg = VdmsConfig::default_config();
        assert_eq!(cfg.replicas, None, "fixed-backend candidates carry no request");
        let out = b.evaluate(&cfg, 5);
        let stats = out.serving.expect("serving phase ran");
        // The trace must be the three-group simulation of the inner
        // outcome, bit for bit.
        let sys = cfg.sanitized(w.dataset.dim(), w.top_k).system;
        let offline = inner.evaluate(&cfg, 5);
        let service = w.cost_model.service_secs_from_qps_replicated(offline.qps, &sys, 3);
        let expect = simulate_replicated(&w.cost_model, &sys, service, &spec, derive(5, 0x5E2B), 3)
            .stats(&spec);
        assert_eq!(stats, expect);
    }

    #[test]
    fn serving_backend_exercises_the_requested_replicas() {
        let w = make();
        let spec = ServingSpec { arrival_qps: 80.0, requests: 300, ..Default::default() };
        let b = ServingBackend::new(&w, TopologyBackend::with_replication(&w, 2, 4), spec);
        let mut cfg = VdmsConfig::default_config();
        cfg.shards = Some(1);
        cfg.replicas = Some(3);
        let out = b.evaluate(&cfg, 5);
        assert!(out.is_ok(), "{:?}", out.failure);
        let stats = out.serving.expect("serving phase ran");
        assert_eq!(stats.completed + stats.shed, 300);
    }

    #[test]
    fn more_shards_cost_memory_and_merge_overhead() {
        let w = make();
        // A layout with multiple sealed segments so sharding has work to
        // spread.
        let mut cfg = VdmsConfig::default_config();
        cfg.system.segment_max_size_mb = 64.0;
        cfg.system.segment_seal_proportion = 0.5;
        let one = SimBackend::with_spec(&w, ClusterSpec::new(1)).evaluate(&cfg, 5);
        let four = SimBackend::with_spec(&w, ClusterSpec::new(4)).evaluate(&cfg, 5);
        assert!(one.is_ok() && four.is_ok());
        assert_eq!(one.recall.to_bits(), four.recall.to_bits(), "recall is placement-invariant");
        assert!(four.memory_gib > one.memory_gib, "per-node overhead accumulates");
    }

    #[test]
    fn serving_backend_attaches_stats_and_keeps_offline_objectives() {
        let w = make();
        let offline = SimBackend::new(&w).evaluate(&VdmsConfig::default_config(), 5);
        let spec = ServingSpec { arrival_qps: 50.0, requests: 400, ..Default::default() };
        let b = ServingBackend::over_sim(&w, spec);
        let served = b.evaluate(&VdmsConfig::default_config(), 5);
        assert!(served.is_ok());
        // The tuner-facing objectives are the offline backend's, bitwise.
        assert_eq!(served.qps.to_bits(), offline.qps.to_bits());
        assert_eq!(served.recall.to_bits(), offline.recall.to_bits());
        assert_eq!(served.memory_gib.to_bits(), offline.memory_gib.to_bits());
        let stats = served.serving.expect("serving phase ran");
        assert_eq!(stats.completed + stats.shed, 400);
        assert!(stats.p99_latency_secs >= stats.p50_latency_secs);
        assert!(b.info().name.starts_with("serving(sim @"), "{}", b.info().name);
    }

    #[test]
    fn serving_backend_at_rate_zero_is_bitwise_offline() {
        let w = make();
        let b = ServingBackend::over_sim(&w, ServingSpec::default().at_rate(0.0));
        let a = b.evaluate(&VdmsConfig::default_config(), 9);
        let o = SimBackend::new(&w).evaluate(&VdmsConfig::default_config(), 9);
        assert_eq!(a, o, "rate 0 degrades to the offline backend");
        assert!(a.serving.is_none());
    }

    /// Regression: a NaN rate passed the `<= 0` test, and its gaps were
    /// drawn at a rate of 1e-9 — 50 of 50 requests "completed" over a
    /// 45-billion-second makespan that no SLO check flagged. NaN is no
    /// serving phase, like zero.
    #[test]
    fn serving_backend_at_a_nan_rate_is_bitwise_offline() {
        let w = make();
        let spec = ServingSpec { requests: 50, ..Default::default() }.at_rate(f64::NAN);
        let b = ServingBackend::over_sim(&w, spec.with_slo(0.025));
        let a = b.evaluate(&VdmsConfig::default_config(), 9);
        let o = SimBackend::new(&w).evaluate(&VdmsConfig::default_config(), 9);
        assert_eq!(a, o, "a NaN rate degrades to the offline backend");
        assert!(a.serving.is_none());
    }

    #[test]
    fn serving_backend_flags_slo_violations_as_failures() {
        let w = make();
        // An SLO below any achievable p99 (1 ns) must reject every config.
        let spec =
            ServingSpec { arrival_qps: 50.0, requests: 200, ..Default::default() }.with_slo(1e-9);
        let b = ServingBackend::over_sim(&w, spec);
        let out = b.evaluate(&VdmsConfig::default_config(), 5);
        assert!(!out.is_ok());
        assert!(matches!(out.failure, Some(VdmsError::SloViolation { .. })));
        assert!(out.serving.is_some(), "violators still report how far they missed");
    }

    #[test]
    fn slo_violators_feed_back_goodput_not_offline_qps() {
        let w = make();
        let spec =
            ServingSpec { arrival_qps: 50.0, requests: 200, ..Default::default() }.with_slo(1e-9);
        let b = ServingBackend::over_sim(&w, spec);
        let offline = SimBackend::new(&w).evaluate(&VdmsConfig::default_config(), 5);
        let out = b.evaluate(&VdmsConfig::default_config(), 5);
        assert!(!out.is_ok());
        let stats = out.serving.expect("violators still carry stats");
        assert_eq!(out.qps.to_bits(), stats.goodput_qps.to_bits());
        assert_ne!(out.qps.to_bits(), offline.qps.to_bits());
        // Non-violating evaluations keep the offline objectives, bitwise.
        let ok = ServingBackend::over_sim(&w, spec.with_slo(f64::MAX))
            .evaluate(&VdmsConfig::default_config(), 5);
        assert!(ok.is_ok());
        assert_eq!(ok.qps.to_bits(), offline.qps.to_bits());
    }

    #[test]
    fn serving_backend_composes_over_sharded_and_topology_backends() {
        let w = make();
        let spec = ServingSpec { arrival_qps: 40.0, requests: 200, ..Default::default() };
        let sharded = ServingBackend::new(&w, SimBackend::with_spec(&w, ClusterSpec::new(2)), spec);
        let out = sharded.evaluate(&VdmsConfig::default_config(), 5);
        assert!(out.is_ok() && out.serving.is_some());
        let topo = ServingBackend::new(&w, TopologyBackend::new(&w, 4), spec);
        assert_eq!(topo.info().space_dims, VdmsConfig::BASE_TUNABLES + 1);
        let mut cfg = VdmsConfig::default_config();
        cfg.shards = Some(2);
        let out = topo.evaluate(&cfg, 5);
        assert!(out.is_ok() && out.serving.is_some());
        // Inner failures propagate with no serving phase attached.
        cfg.shards = Some(64);
        let refused = topo.evaluate(&cfg, 5);
        assert!(matches!(refused.failure, Some(VdmsError::TopologyUnrealizable { .. })));
        assert!(refused.serving.is_none());
    }
}
