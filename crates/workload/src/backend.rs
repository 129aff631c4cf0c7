//! Evaluation backends: *what* gets measured when the tuner asks for an
//! observation.
//!
//! The paper tunes a live Milvus deployment; this reproduction tunes a
//! simulator. [`EvalBackend`] is the seam between the two: the
//! [`Evaluator`](crate::Evaluator) owns the tuner-facing bookkeeping
//! (caching, worst-in-history substitution for failures, timing) and is
//! generic over a backend that turns a configuration into an
//! [`Outcome`]. One backend ships in-tree, [`SimBackend`]: it resolves
//! each candidate's [`Placement`] once — the cluster, reactor pinning and
//! write path that serve it — and replays the workload there. A candidate
//! that requests no deployment is served by the backend's fixed
//! [`vdms::cluster::ClusterSpec`]: the paper's single node
//! ([`SimBackend::new`]) or any fixed cluster ([`SimBackend::with_spec`]).
//! A backend built with [`DeploymentKnobs`] also lets each candidate carry
//! its own deployment — shard count, replication factor, reactor pinning,
//! write-path knobs — up to the backend's ceilings, so the tuner feels the
//! real capacity trade-off of fanning out. `SpaceSpec::backend` in
//! `vdtuner-core` builds that backend from a tuning space's own dimensions.
//! With a serving phase ([`SimBackend::serving`]) every successful
//! candidate is then exercised on the same placement by the discrete-event
//! serving simulator under an open-loop arrival process (and an optional
//! p99 SLO).
//!
//! Every backend is a pure function of `(config, seed)`: the evaluator
//! caches outcomes by configuration.

use crate::replay::{replay, Outcome};
use crate::serving::{ArrivalPlan, Deployment, ServingSpec};
use crate::Workload;
use std::fmt::Debug;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use vdms::cluster::ClusterSpec;
use vdms::{PinningPolicy, VdmsConfig, VdmsError, WriteKnobs};
use vecdata::rng::derive;

/// Capabilities of an evaluation backend, snapshotted by the evaluator at
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendInfo {
    /// Dataset dimensionality, for configuration sanitization.
    pub dim: usize,
    /// Neighbors retrieved per query.
    pub top_k: usize,
    /// Dimensionality of the tuning space this backend realizes: the 16
    /// base tunables, plus one per deployment request it lets candidates
    /// carry (three for the write-path knobs). The evaluator rejects
    /// candidates whose encoded length disagrees — as failed observations,
    /// never panics.
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

/// The deployment dimensions a [`SimBackend`] tunes: one per deployment
/// dimension of the tuning space it serves. The default tunes none — the
/// paper's 16-dimensional space on a fixed cluster. On a dimension it does
/// not tune the backend realizes only its fixed value: the fixed cluster's
/// shard and replica counts, [`PinningPolicy::Shared`] (the shared pool
/// *is* its execution model), [`WriteKnobs::DEFAULT`] (the defaults *are*
/// its write path); any other request is a typed
/// [`VdmsError::Unrealizable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeploymentKnobs {
    /// Largest shard count ([`VdmsConfig::shards`]) a candidate may
    /// request; `None`: only the fixed cluster's.
    pub max_shards: Option<usize>,
    /// Largest replication factor ([`VdmsConfig::replicas`]) a candidate
    /// may request; `None`: only the fixed cluster's.
    pub max_replicas: Option<usize>,
    /// Whether candidates choose a reactor pinning policy
    /// ([`VdmsConfig::pinning`]).
    pub pinning: bool,
    /// Whether candidates choose their write-path knobs
    /// ([`VdmsConfig::writepath`], three dimensions).
    pub writepath: bool,
}

/// How one candidate is deployed: what [`SimBackend::place`] resolves once
/// per candidate, and the offline replay and the serving phase both read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// The candidate, sanitized for the backend's workload.
    pub config: VdmsConfig,
    /// The cluster that serves it.
    pub cluster: ClusterSpec,
    /// Each replica group's execution model.
    pub policy: PinningPolicy,
    /// The write path its inserts run under.
    pub knobs: WriteKnobs,
}

/// The simulator backend: the workload served by the cluster each candidate
/// asks for, or by a fixed cluster shape — by default the paper's single
/// node — when it asks for none, optionally followed by a serving phase.
///
/// A shard or replication request selects the cluster that serves the
/// candidate, with the single-node testbed budget split evenly across
/// **all** requested nodes ([`ClusterSpec::replicated`]: per-node budget =
/// testbed / (shards · replicas)) — fanning out buys straggler-bounded
/// latency, replicating buys read slots and routing freedom, and both pay
/// in per-node capacity, fixed overhead and (for replicas) consistency
/// staleness, so the tuner optimizes real trade-offs rather than free
/// knobs.
#[derive(Debug, Clone)]
pub struct SimBackend<'a> {
    workload: &'a Workload,
    /// What a candidate with no shard or replication request is served by.
    spec: ClusterSpec,
    knobs: DeploymentKnobs,
    serving: Option<Serving>,
}

/// The name the benchmark in `benchmark/` builds its backend by, kept for it
/// like [`SimBackend::with_writepath`]; in-workspace code asks its space
/// (`SpaceSpec::backend`).
pub type TopologyBackend<'a> = SimBackend<'a>;

impl<'a> SimBackend<'a> {
    /// The single-node testbed ([`ClusterSpec::new`]`(1)`).
    pub fn new(workload: &'a Workload) -> SimBackend<'a> {
        SimBackend::with_spec(workload, ClusterSpec::new(1))
    }

    /// A fixed cluster shape (shard count, replicas, per-node budgets). A
    /// directly constructed spec with `shards: 0` is clamped to one node,
    /// matching what the cluster layer would serve.
    pub fn with_spec(workload: &'a Workload, spec: ClusterSpec) -> SimBackend<'a> {
        let spec = spec.normalized();
        SimBackend { workload, spec, knobs: DeploymentKnobs::default(), serving: None }
    }

    /// The single-node testbed, additionally realizing the deployment
    /// requests `knobs` names (ceilings below one are one).
    pub fn with_knobs(workload: &'a Workload, knobs: DeploymentKnobs) -> SimBackend<'a> {
        let at_least_one = |m: Option<usize>| m.map(|m| m.max(1));
        let knobs = DeploymentKnobs {
            max_shards: at_least_one(knobs.max_shards),
            max_replicas: at_least_one(knobs.max_replicas),
            ..knobs
        };
        SimBackend { knobs, ..SimBackend::new(workload) }
    }

    /// The 22-dimensional backend: shards up to `max_shards`, replicas up
    /// to `max_replicas`, pinning and write-path knobs. Kept for the
    /// benchmark in `benchmark/`, which builds its backend by this name.
    pub fn with_writepath(
        workload: &'a Workload,
        max_shards: usize,
        max_replicas: usize,
    ) -> SimBackend<'a> {
        SimBackend::with_knobs(
            workload,
            DeploymentKnobs {
                max_shards: Some(max_shards),
                max_replicas: Some(max_replicas),
                pinning: true,
                writepath: true,
            },
        )
    }

    /// This backend with a serving phase: every candidate the offline
    /// replay measures successfully is then exercised on the same
    /// [`Placement`] by the discrete-event serving simulator
    /// ([`crate::serving`]) under `spec`'s open-loop traffic. The outcome
    /// keeps the offline `qps`/`recall`/`memory_gib` and attaches
    /// [`crate::ServingStats`]; with `arrival_qps <= 0` or NaN it is the
    /// offline outcome bit for bit. A config that violates the spec's p99
    /// SLO comes back *failed* ([`VdmsError::SloViolation`]): the tuner
    /// optimizes QPS@recall **subject to** the SLO.
    pub fn serving(self, spec: ServingSpec) -> SimBackend<'a> {
        SimBackend { serving: Some(Serving { spec, plan: Mutex::default() }), ..self }
    }

    /// The workload this backend replays.
    pub fn workload(&self) -> &Workload {
        self.workload
    }

    /// Where `config` is deployed, or a typed refusal. Every deployment
    /// dimension follows one rule: a missing request takes the fixed
    /// cluster's value; a dimension the backend does not tune
    /// ([`DeploymentKnobs`]) realizes only that value, one it tunes any
    /// value up to its ceiling. Refusing instead of clamping keeps the
    /// recorded deployment the one that served the candidate.
    pub fn place(&self, config: &VdmsConfig) -> Result<Placement, VdmsError> {
        let config = config.sanitized(self.workload.dataset.dim(), self.workload.top_k);
        let (fixed, k) = (self.spec, self.knobs);
        let shards = count("shards", config.shards, fixed.shards, k.max_shards)?;
        let replicas = count("replicas", config.replicas, fixed.replicas, k.max_replicas)?;
        let policy = choice("pinning", config.pinning, PinningPolicy::Shared, k.pinning)?;
        let knobs = choice("write path", config.writepath, WriteKnobs::DEFAULT, k.writepath)?;
        let cluster = if (shards, replicas) == (fixed.shards, fixed.replicas) {
            fixed
        } else {
            ClusterSpec::replicated(shards, replicas)
        };
        Ok(Placement { config, cluster, policy, knobs })
    }
}

/// A count dimension: the request, or `fixed` without one; up to `max` when
/// the backend tunes it, only `fixed` when it does not.
fn count(dim: &'static str, n: Option<usize>, fixed: usize, max: Option<usize>) -> Realized<usize> {
    let n = n.unwrap_or(fixed);
    let ceiling = match max {
        Some(max) if n > max => format!("at most {max}"),
        None if n != fixed => format!("only {fixed}"),
        _ => return Ok(n),
    };
    Err(VdmsError::Unrealizable { dim, asked: n.to_string(), ceiling })
}

/// A dimension without a ceiling: the request, or `fixed` without one; any
/// value when the backend tunes it, only `fixed` when it does not.
fn choice<T: Copy + PartialEq + Debug>(
    dim: &'static str,
    v: Option<T>,
    fixed: T,
    tuned: bool,
) -> Realized<T> {
    match v.unwrap_or(fixed) {
        v if tuned || v == fixed => Ok(v),
        v => Err(VdmsError::Unrealizable {
            dim,
            asked: format!("{v:?}"),
            ceiling: format!("only {fixed:?}"),
        }),
    }
}

/// One resolved deployment dimension.
type Realized<T> = Result<T, VdmsError>;

impl EvalBackend for SimBackend<'_> {
    fn info(&self) -> BackendInfo {
        let k = &self.knobs;
        BackendInfo {
            dim: self.workload.dataset.dim(),
            top_k: self.workload.top_k,
            space_dims: VdmsConfig::BASE_TUNABLES
                + usize::from(k.max_shards.is_some())
                + usize::from(k.max_replicas.is_some())
                + usize::from(k.pinning)
                + 3 * usize::from(k.writepath),
        }
    }

    fn evaluate(&self, config: &VdmsConfig, seed: u64) -> Outcome {
        let placement = match self.place(config) {
            Ok(placement) => placement,
            // Refused before any work ran: no replay time burned.
            Err(e) => return Outcome::failed(e, 0.0),
        };
        let mut out = replay(self.workload, &placement, seed);
        if let Some(serving) = &self.serving {
            serving.serve(self.workload, &placement, seed, &mut out);
        }
        out
    }
}

/// A [`SimBackend`]'s serving phase: the traffic its candidates are
/// exercised under, and the arrival plan of the seed it was last evaluated
/// with. An evaluator hands every candidate of a tune the same seed, and
/// the plan is a function of `(spec, seed)` alone, so one draw serves the
/// whole tune. Purely a cache: another seed gets its own, correct plan (and
/// takes the slot), so outcomes never depend on what was evaluated before.
/// Empty until the first evaluation — construction stays free.
#[derive(Debug)]
struct Serving {
    spec: ServingSpec,
    plan: Mutex<Option<Arc<ArrivalPlan>>>,
}

impl Clone for Serving {
    fn clone(&self) -> Serving {
        Serving { spec: self.spec, plan: Mutex::new(self.slot().clone()) }
    }
}

impl Serving {
    /// The slot is only ever assigned a finished plan, and nothing that can
    /// panic runs under the lock, so a poisoned slot is still valid.
    fn slot(&self) -> MutexGuard<'_, Option<Arc<ArrivalPlan>>> {
        self.plan.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn plan(&self, seed: u64) -> Arc<ArrivalPlan> {
        if let Some(plan) = self.slot().as_ref().filter(|plan| plan.seed() == seed) {
            return Arc::clone(plan);
        }
        // Drawn outside the lock: concurrent first evaluations each draw
        // the (identical) plan rather than wait on one another.
        let plan = Arc::new(ArrivalPlan::new(&self.spec, seed));
        *self.slot() = Some(Arc::clone(&plan));
        plan
    }

    /// Exercise a candidate the offline replay measured as `out` on its
    /// placement. Offline failures (crash/OOM/timeout) keep no serving
    /// phase, and neither does a spec that offers no traffic.
    fn serve(&self, workload: &Workload, placement: &Placement, seed: u64, out: &mut Outcome) {
        if !out.is_ok() || !self.spec.has_serving_phase() {
            return;
        }
        let (model, sys) = (&workload.cost_model, &placement.config.system);
        // Each replica group gets its own queue and worker slots, and the
        // router picks one per arrival.
        let replicas = placement.cluster.replicas;
        let stats = self.plan(derive(seed, 0x5E2B)).stats(&Deployment {
            model,
            sys,
            base_service_secs: model.service_secs_from_qps_replicated(out.qps, sys, replicas),
            replicas,
            policy: placement.policy,
            top_k: workload.top_k,
            knobs: placement.knobs,
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
    }
}

/// The name the benchmark in `benchmark/` builds its serving backend by,
/// kept for it like [`TopologyBackend`]: a name, never a value.
/// In-workspace code calls [`SimBackend::serving`].
#[derive(Debug)]
pub enum ServingBackend {}

impl ServingBackend {
    /// `sim` with the serving phase `spec` ([`SimBackend::serving`]).
    ///
    /// # Panics
    /// When `workload` is not the workload `sim` replays: the serving phase
    /// prices every candidate with the cost model of the workload the
    /// replay measured it on.
    #[allow(clippy::new_ret_no_self)] // The constructor the benchmark calls, by its old name.
    pub fn new<'a>(
        workload: &'a Workload,
        sim: SimBackend<'a>,
        spec: ServingSpec,
    ) -> SimBackend<'a> {
        assert!(
            std::ptr::eq(workload, sim.workload),
            "ServingBackend::new: `workload` is not the workload `sim` replays"
        );
        sim.serving(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecdata::{DatasetKind, DatasetSpec};

    fn make() -> Workload {
        Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10)
    }

    /// Candidates request 1..=`s` shards (17 dimensions).
    fn shards(w: &Workload, s: usize) -> SimBackend<'_> {
        SimBackend::with_knobs(w, DeploymentKnobs { max_shards: Some(s), ..Default::default() })
    }

    /// Candidates also request 1..=`r` replicas (18 dimensions), and with
    /// `pinning` a reactor pinning policy (19).
    fn replicated(w: &Workload, s: usize, r: usize, pinning: bool) -> SimBackend<'_> {
        let knobs = DeploymentKnobs {
            max_shards: Some(s),
            max_replicas: Some(r),
            pinning,
            writepath: false,
        };
        SimBackend::with_knobs(w, knobs)
    }

    #[test]
    fn sim_backend_reports_workload_shape() {
        let w = make();
        let info = SimBackend::new(&w).info();
        assert_eq!(info.dim, w.dataset.dim());
        assert_eq!(info.top_k, 10);
        assert_eq!(info.space_dims, VdmsConfig::BASE_TUNABLES);
    }

    /// The cluster `b` deploys `cfg` on.
    fn cluster(b: &SimBackend<'_>, cfg: &VdmsConfig) -> Result<ClusterSpec, VdmsError> {
        b.place(cfg).map(|p| p.cluster)
    }

    /// `(dim, asked, ceiling)` of an `Unrealizable` refusal.
    fn refusal(r: Result<Placement, VdmsError>) -> (&'static str, String, String) {
        match r {
            Err(VdmsError::Unrealizable { dim, asked, ceiling }) => (dim, asked, ceiling),
            other => panic!("expected an Unrealizable refusal, got {other:?}"),
        }
    }

    #[test]
    fn sharded_backend_reports_shards() {
        let w = make();
        let four = SimBackend::with_spec(&w, ClusterSpec::new(4));
        let cfg = VdmsConfig::default_config();
        assert_eq!(cluster(&four, &cfg), Ok(ClusterSpec::new(4)));
        assert_eq!(four.info().space_dims, VdmsConfig::BASE_TUNABLES);
        let three = SimBackend::with_spec(&w, ClusterSpec::replicated(2, 3));
        assert_eq!(cluster(&three, &cfg).map(|c| c.replicas), Ok(3));
        // A fixed backend realizes its own shard count and no other — not
        // more nodes, and not fewer either.
        let asks = |shards| VdmsConfig { shards: Some(shards), ..cfg };
        assert_eq!(cluster(&four, &asks(4)), Ok(ClusterSpec::new(4)));
        for n in [1, 2, 8] {
            let want = ("shards", n.to_string(), "only 4".to_string());
            assert_eq!(refusal(four.place(&asks(n))), want);
        }
    }

    /// Regression: a fixed replicated backend used to replay a candidate
    /// carrying `shards: Some(1)` on a 1×1 cluster (the offline replay
    /// defaulted the missing replica count to one) while its serving phase
    /// simulated all three replica groups. Every dimension now takes the
    /// fixed cluster's value when the candidate leaves it out.
    #[test]
    fn a_fixed_dimension_request_is_the_unrequested_candidate() {
        let w = make();
        let spec = ServingSpec { arrival_qps: 120.0, requests: 300, ..Default::default() };
        let fixed = ClusterSpec { shard_budget_gib: 125.0, ..ClusterSpec::replicated(1, 3) };
        let b = SimBackend::with_spec(&w, fixed).serving(spec);
        let unrequested = VdmsConfig::default_config();
        let asks_one = VdmsConfig { shards: Some(1), ..unrequested };
        assert_eq!(cluster(&b, &asks_one), Ok(fixed));
        let (a, o) = (b.evaluate(&unrequested, 5), b.evaluate(&asks_one, 5));
        assert!(a.is_ok(), "{:?}", a.failure);
        assert_eq!(a.qps.to_bits(), o.qps.to_bits());
        assert_eq!(a.recall.to_bits(), o.recall.to_bits());
        assert_eq!(a.memory_gib.to_bits(), o.memory_gib.to_bits());
        assert_eq!(a.simulated_secs.to_bits(), o.simulated_secs.to_bits());
        assert!(a.serving.is_some());
        assert_eq!(a.serving, o.serving);
    }

    #[test]
    #[should_panic(expected = "is not the workload `sim` replays")]
    fn serving_backend_rejects_a_workload_its_backend_does_not_replay() {
        let (w, other) = (make(), make());
        let _ = ServingBackend::new(&other, SimBackend::new(&w), ServingSpec::default());
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
        assert_eq!(shards(&w, 8).info().space_dims, VdmsConfig::BASE_TUNABLES + 1);
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
        let b = shards(&w, 8);
        // A layout with several sealed segments so sharding has work.
        let mut cfg = VdmsConfig::default_config();
        cfg.system.segment_max_size_mb = 64.0;
        cfg.system.segment_seal_proportion = 0.5;
        for shards in [1usize, 2, 4] {
            let fixed = SimBackend::with_spec(&w, ClusterSpec::new(shards));
            let via_fixed = fixed.evaluate(&cfg, 5);
            cfg.shards = Some(shards);
            let via_topology = b.evaluate(&cfg, 5);
            cfg.shards = None;
            assert_eq!(via_topology.qps.to_bits(), via_fixed.qps.to_bits(), "{shards}");
            assert_eq!(via_topology.memory_gib.to_bits(), via_fixed.memory_gib.to_bits());
        }
        // No topology request → the single-node testbed.
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
        let b = shards(&w, 8);
        let mut cfg = VdmsConfig::default_config();
        cfg.shards = Some(64);
        assert_eq!(refusal(b.place(&cfg)), ("shards", "64".into(), "at most 8".into()));
        let out = b.evaluate(&cfg, 5);
        assert!(!out.is_ok());
        assert_eq!(out.simulated_secs, 0.0, "refused before any work ran");
        assert!(matches!(out.failure, Some(VdmsError::Unrealizable { dim: "shards", .. })));
        // In-range requests still deploy exactly what was asked.
        cfg.shards = Some(8);
        assert_eq!(cluster(&b, &cfg).unwrap().shards, 8);
    }

    #[test]
    fn replication_backend_reports_the_18_dim_space() {
        let w = make();
        assert_eq!(replicated(&w, 8, 4, false).info().space_dims, VdmsConfig::BASE_TUNABLES + 2);
        // Frozen-at-1 replication still declares the 18-dim space.
        assert_eq!(replicated(&w, 8, 1, false).info().space_dims, VdmsConfig::BASE_TUNABLES + 2);
        assert_eq!(shards(&w, 8).info().space_dims, VdmsConfig::BASE_TUNABLES + 1);
    }

    #[test]
    fn replication_backend_deploys_the_requested_copies() {
        let w = make();
        let b = replicated(&w, 4, 4, false);
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
        let spec = cluster(&b, &cfg).unwrap();
        assert_eq!(spec.nodes(), 4);
        assert!((spec.shard_budget_gib - vdms::collection::MEMORY_BUDGET_GIB / 4.0).abs() < 1e-12);
    }

    #[test]
    fn replication_backend_refuses_over_ceiling_requests() {
        let w = make();
        let b = replicated(&w, 4, 2, false);
        let mut cfg = VdmsConfig::default_config();
        cfg.shards = Some(2);
        cfg.replicas = Some(8);
        assert_eq!(refusal(b.place(&cfg)), ("replicas", "8".into(), "at most 2".into()));
        let out = b.evaluate(&cfg, 5);
        assert!(!out.is_ok());
        assert_eq!(out.simulated_secs, 0.0, "refused before any work ran");
        // The 17-dim backend refuses any replication request but its fixed
        // single copy — it cannot realize the axis at all.
        let narrow = shards(&w, 4);
        assert_eq!(refusal(narrow.place(&cfg)), ("replicas", "8".into(), "only 1".into()));
    }

    #[test]
    fn pinning_backend_reports_the_19_dim_space() {
        let w = make();
        assert_eq!(replicated(&w, 8, 4, true).info().space_dims, VdmsConfig::BASE_TUNABLES + 3);
        assert_eq!(replicated(&w, 8, 4, false).info().space_dims, VdmsConfig::BASE_TUNABLES + 2);
    }

    #[test]
    fn pinning_requests_are_refused_without_the_knob() {
        let w = make();
        let b = replicated(&w, 4, 2, false);
        let mut cfg = VdmsConfig::default_config();
        cfg.shards = Some(2);
        cfg.replicas = Some(1);
        // The shared policy is the backend's own execution model: realized.
        cfg.pinning = Some(PinningPolicy::Shared);
        assert!(b.place(&cfg).is_ok());
        // Every other policy is a typed refusal, never a silent pool.
        cfg.pinning = Some(PinningPolicy::Scatter);
        assert_eq!(refusal(b.place(&cfg)), ("pinning", "Scatter".into(), "only Shared".into()));
        let out = b.evaluate(&cfg, 5);
        assert!(!out.is_ok());
        assert_eq!(out.simulated_secs, 0.0, "refused before any work ran");
        // The pinning backend realizes all of them.
        let pinned = replicated(&w, 4, 2, true);
        for policy in PinningPolicy::ALL {
            cfg.pinning = Some(policy);
            assert_eq!(pinned.place(&cfg).map(|p| p.policy), Ok(policy));
        }
    }

    #[test]
    fn shared_pinning_request_evaluates_bitwise_unpinned() {
        let w = make();
        let b = replicated(&w, 4, 2, true);
        let spec = ServingSpec { arrival_qps: 80.0, requests: 300, ..Default::default() };
        let serving = b.serving(spec);
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
        let b = SimBackend::with_writepath(&w, 8, 4);
        assert_eq!(b.info().space_dims, VdmsConfig::BASE_TUNABLES + 6);
        // It realizes every pinning policy and non-default write knobs.
        let mut cfg = VdmsConfig::default_config();
        cfg.shards = Some(2);
        cfg.replicas = Some(1);
        cfg.pinning = Some(PinningPolicy::Scatter);
        cfg.writepath = Some(WriteKnobs { wal_batch_rows: 64, ..WriteKnobs::DEFAULT });
        assert!(b.place(&cfg).is_ok());
    }

    #[test]
    fn writepath_requests_are_refused_without_the_knob() {
        let w = make();
        let b = replicated(&w, 4, 2, true);
        let mut cfg = VdmsConfig::default_config();
        cfg.shards = Some(2);
        cfg.replicas = Some(1);
        // The default knobs are the backend's own fixed write path: realized.
        cfg.writepath = Some(WriteKnobs::DEFAULT);
        assert!(b.place(&cfg).is_ok());
        // Anything else is a typed refusal, never a silent clamp back.
        let custom = WriteKnobs { wal_batch_rows: 64, ..WriteKnobs::DEFAULT };
        cfg.writepath = Some(custom);
        let (dim, asked, ceiling) = refusal(b.place(&cfg));
        assert_eq!(dim, "write path");
        assert_eq!(asked, format!("{custom:?}"));
        assert_eq!(ceiling, format!("only {:?}", WriteKnobs::DEFAULT));
        let out = b.evaluate(&cfg, 5);
        assert!(!out.is_ok());
        assert_eq!(out.simulated_secs, 0.0, "refused before any work ran");
        // The write-path backend realizes any sanitized knob setting.
        let tuned = SimBackend::with_writepath(&w, 4, 2);
        assert_eq!(tuned.place(&cfg).map(|p| p.knobs), Ok(custom));
    }

    #[test]
    fn default_writepath_request_evaluates_bitwise_unrequested() {
        let w = make();
        let b = SimBackend::with_writepath(&w, 4, 2);
        let spec = ServingSpec { arrival_qps: 80.0, requests: 300, ..Default::default() }
            .with_inserts(0.5);
        let serving = b.serving(spec);
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
        let backend = || SimBackend::with_writepath(&w, 2, 3).serving(spec);
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
        let b = SimBackend::new(&w).serving(spec);
        assert_eq!(b.clone().info(), b.info());
    }

    #[test]
    fn mixed_serving_backend_attaches_write_stats() {
        let w = make();
        let spec = ServingSpec { arrival_qps: 80.0, requests: 300, ..Default::default() }
            .with_inserts(0.5);
        let b = SimBackend::new(&w).serving(spec);
        let out = b.evaluate(&VdmsConfig::default_config(), 5);
        assert!(out.is_ok(), "{:?}", out.failure);
        let stats = out.serving.expect("serving phase ran");
        assert_eq!(stats.writes.offered, 150);
        assert_eq!(stats.writes.accepted + stats.writes.shed, stats.writes.offered);
        assert_eq!(stats.writes.last_durable_lsn as usize, stats.writes.accepted);
        assert!(stats.writes.flushes_end_of_tick + stats.writes.flushes_full_batch > 0);
        // Read-only specs keep the zeroed write ledger.
        let quiet = SimBackend::new(&w)
            .serving(spec.with_inserts(0.0))
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
        let b = inner.clone().serving(spec);
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
        let b = replicated(&w, 2, 4, false).serving(spec);
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
        let b = SimBackend::new(&w).serving(spec);
        let served = b.evaluate(&VdmsConfig::default_config(), 5);
        assert!(served.is_ok());
        // The tuner-facing objectives are the offline backend's, bitwise.
        assert_eq!(served.qps.to_bits(), offline.qps.to_bits());
        assert_eq!(served.recall.to_bits(), offline.recall.to_bits());
        assert_eq!(served.memory_gib.to_bits(), offline.memory_gib.to_bits());
        let stats = served.serving.expect("serving phase ran");
        assert_eq!(stats.completed + stats.shed, 400);
        assert!(stats.p99_latency_secs >= stats.p50_latency_secs);
    }

    #[test]
    fn serving_backend_at_rate_zero_is_bitwise_offline() {
        let w = make();
        let b = SimBackend::new(&w).serving(ServingSpec::default().at_rate(0.0));
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
        let b = SimBackend::new(&w).serving(spec.with_slo(0.025));
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
        let b = SimBackend::new(&w).serving(spec);
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
        let b = SimBackend::new(&w).serving(spec);
        let offline = SimBackend::new(&w).evaluate(&VdmsConfig::default_config(), 5);
        let out = b.evaluate(&VdmsConfig::default_config(), 5);
        assert!(!out.is_ok());
        let stats = out.serving.expect("violators still carry stats");
        assert_eq!(out.qps.to_bits(), stats.goodput_qps.to_bits());
        assert_ne!(out.qps.to_bits(), offline.qps.to_bits());
        // Non-violating evaluations keep the offline objectives, bitwise.
        let ok = SimBackend::new(&w)
            .serving(spec.with_slo(f64::MAX))
            .evaluate(&VdmsConfig::default_config(), 5);
        assert!(ok.is_ok());
        assert_eq!(ok.qps.to_bits(), offline.qps.to_bits());
    }

    #[test]
    fn serving_backend_composes_over_sharded_and_topology_backends() {
        let w = make();
        let spec = ServingSpec { arrival_qps: 40.0, requests: 200, ..Default::default() };
        let sharded = SimBackend::with_spec(&w, ClusterSpec::new(2)).serving(spec);
        let out = sharded.evaluate(&VdmsConfig::default_config(), 5);
        assert!(out.is_ok() && out.serving.is_some());
        let topo = shards(&w, 4).serving(spec);
        assert_eq!(topo.info().space_dims, VdmsConfig::BASE_TUNABLES + 1);
        let mut cfg = VdmsConfig::default_config();
        cfg.shards = Some(2);
        let out = topo.evaluate(&cfg, 5);
        assert!(out.is_ok() && out.serving.is_some());
        // Inner failures propagate with no serving phase attached.
        cfg.shards = Some(64);
        let refused = topo.evaluate(&cfg, 5);
        assert!(matches!(refused.failure, Some(VdmsError::Unrealizable { dim: "shards", .. })));
        assert!(refused.serving.is_none());
    }
}
