//! The shard-reactor contracts, stated across crates:
//!
//! * reactor placement is deterministic and the pinned serving simulator
//!   is bit-identical on 1 vs 4 rayon threads (by property),
//! * a 19-dimensional tuning run with the pinning dimension frozen at the
//!   shared policy reproduces the 18-dimensional replication run bit for
//!   bit — serial, batched, and under serving composition,
//! * on a degenerate single-core host topology every pinning policy
//!   collapses to one reactor and reproduces the pre-reactor simulator
//!   bitwise, end to end through `evaluate_sharded`.

use proptest::prelude::*;
use vdtuner::core::{SpaceSpec, TunerOptions, VdTuner};
use vdtuner::prelude::*;
use vdtuner::vdms::cluster::reactor_placement;
use vdtuner::vdms::system_params::SystemParams;
use vdtuner::vdms::{CostModel, HostTopology, PinningPolicy, WriteKnobs};
use vdtuner::workload::serving::{simulate_pinned, simulate_replicated};
use vdtuner::workload::{
    evaluate_sharded, Evaluator, ServingBackend, ServingSpec, TopologyBackend,
};

fn multi_segment_workload() -> Workload {
    let spec = DatasetSpec { n: 4_200, ..DatasetSpec::tiny(DatasetKind::Glove) };
    Workload::prepare(spec, 10)
}

/// A config whose layout actually seals several segments at tiny scale.
fn multi_segment_config() -> VdmsConfig {
    let mut cfg = VdmsConfig::default_for(IndexType::IvfFlat);
    cfg.system = SystemParams {
        segment_max_size_mb: 64.0,
        segment_seal_proportion: 1.0,
        ..Default::default()
    };
    cfg
}

fn small_options() -> TunerOptions {
    TunerOptions {
        mc_samples: 8,
        candidates: vdtuner::mobo::optimize::CandidateOptions {
            n_lhs: 8,
            n_uniform: 4,
            n_local_per_incumbent: 2,
            local_sigma: 0.1,
        },
        ..Default::default()
    }
}

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Segment ownership is a pure function of `(segments, reactors)`:
    /// round-robin, balanced to within one segment, reactor indices in
    /// range — no thread, allocator, or iteration-order sensitivity.
    #[test]
    fn reactor_placement_is_deterministic(segments in 0usize..64, reactors in 1usize..33) {
        let a = reactor_placement(segments, reactors);
        let b = with_threads(4, || reactor_placement(segments, reactors));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.len(), segments);
        let mut owned = vec![0usize; reactors];
        for &r in &a {
            prop_assert!(r < reactors);
            owned[r] += 1;
        }
        let (lo, hi) = (owned.iter().min().unwrap(), owned.iter().max().unwrap());
        prop_assert!(hi - lo <= 1, "round-robin balance: {owned:?}");
    }

    /// The pinned serving simulator is a pure speedup: for any policy,
    /// replica count and seed, the event trace is bit-identical on 1 vs 4
    /// rayon threads.
    #[test]
    fn pinned_serving_trace_is_thread_count_invariant(
        policy_ord in 0usize..4,
        replicas in 1usize..=3,
        seed in 0u64..64,
    ) {
        let policy = PinningPolicy::from_ordinal(policy_ord);
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 8, ..Default::default() };
        let spec = ServingSpec { arrival_qps: 1_200.0, requests: 400, ..Default::default() };
        let run = |threads: usize| {
            with_threads(threads, || {
                simulate_pinned(&model, &sys, 0.004, &spec, seed, replicas, policy, 10)
            })
        };
        prop_assert_eq!(run(1), run(4));
    }

    /// Degenerate host: a 1×1×1 topology gives every policy exactly one
    /// reactor with penalty 1.0 and handoff 0.0, so the pinned serving
    /// schedule is the single-slot shared pool bit for bit.
    #[test]
    fn single_core_pinned_serving_is_bitwise_the_pool(
        policy_ord in 0usize..4,
        replicas in 1usize..=3,
        seed in 0u64..64,
    ) {
        let policy = PinningPolicy::from_ordinal(policy_ord);
        let model = CostModel {
            topology: HostTopology::SINGLE_CORE,
            query_node_cores: 1,
            ..Default::default()
        };
        let sys = SystemParams { max_read_concurrency: 4, ..Default::default() };
        let spec = ServingSpec { arrival_qps: 900.0, requests: 400, ..Default::default() };
        let pinned = simulate_pinned(&model, &sys, 0.004, &spec, seed, replicas, policy, 10);
        let pool = simulate_replicated(&model, &sys, 0.004, &spec, seed, replicas);
        prop_assert_eq!(pinned, pool);
    }
}

/// What `TuningOutcome::fingerprint` strips here: the pinning request
/// differs by construction and is compared separately.
fn sans_pinning(c: VdmsConfig) -> VdmsConfig {
    VdmsConfig { pinning: None, ..c }
}

/// Acceptance gate for the 19th dimension: tuning the 19-dimensional space
/// with `pinning` frozen at the shared policy (over the pinning-enabled
/// topology backend) yields a history bit-identical to the 18-dimensional
/// replication spec over the plain replication backend — the extra
/// constant coordinate changes no GP prediction, no acquisition value, no
/// evaluation.
#[test]
fn frozen_pinning_dimension_reproduces_replication_tuning_bitwise() {
    let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
    let narrow =
        VdTuner::with_space(small_options(), SpaceSpec::with_topology(4).with_replication(2), 42)
            .run_on(TopologyBackend::with_replication(&w, 4, 2), 12);
    let frozen = VdTuner::with_space(
        small_options(),
        SpaceSpec::with_topology(4).with_replication(2).with_pinned_pinning(PinningPolicy::Shared),
        42,
    )
    .run_on(TopologyBackend::with_pinning(&w, 4, 2), 12);

    assert_eq!(narrow.fingerprint(sans_pinning), frozen.fingerprint(sans_pinning));
    // The frozen run really did carry the 19th dimension end to end.
    for o in &frozen.observations {
        assert_eq!(o.config.pinning, Some(PinningPolicy::Shared));
    }
    for o in &narrow.observations {
        assert_eq!(o.config.pinning, None);
    }
}

/// Same contract under batched (kriging-believer) proposals and serving
/// composition — the serving phase of a shared-pinned candidate is the
/// shared-pool serving phase bit for bit.
#[test]
fn frozen_pinning_reproduces_serving_tuning_bitwise() {
    let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
    let spec = ServingSpec { arrival_qps: 300.0, requests: 300, ..Default::default() };
    let narrow =
        VdTuner::with_space(small_options(), SpaceSpec::with_topology(2).with_replication(2), 7)
            .run_batched_on(
                ServingBackend::new(&w, TopologyBackend::with_replication(&w, 2, 2), spec),
                10,
                3,
            );
    let frozen = VdTuner::with_space(
        small_options(),
        SpaceSpec::with_topology(2).with_replication(2).with_pinned_pinning(PinningPolicy::Shared),
        7,
    )
    .run_batched_on(
        ServingBackend::new(&w, TopologyBackend::with_pinning(&w, 2, 2), spec),
        10,
        3,
    );
    assert_eq!(narrow.fingerprint(sans_pinning), frozen.fingerprint(sans_pinning));
    // Serving stats (p99 included) agree bitwise wherever both exist.
    for (a, b) in narrow.observations.iter().zip(&frozen.observations) {
        match (a.serving, b.serving) {
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.p99_latency_secs.to_bits(), sb.p99_latency_secs.to_bits());
                assert_eq!(sa.goodput_qps.to_bits(), sb.goodput_qps.to_bits());
            }
            (a, b) => assert_eq!(a.is_some(), b.is_some()),
        }
    }
}

/// Degenerate host, offline path: with a single-core topology in the cost
/// model, `evaluate_sharded` under any pinning policy reproduces the
/// unpinned (pre-reactor) evaluation bitwise — every field of the outcome.
#[test]
fn single_core_topology_reproduces_the_pre_reactor_replay_bitwise() {
    let mut w = multi_segment_workload();
    w.cost_model = CostModel {
        topology: HostTopology::SINGLE_CORE,
        query_node_cores: 1,
        ..Default::default()
    };
    let base = multi_segment_config();
    for shards in [1usize, 2] {
        for replicas in [1usize, 2] {
            let spec = ClusterSpec::replicated(shards, replicas);
            let mut cfg = base;
            cfg.pinning = None;
            let legacy = evaluate_sharded(&w, &cfg, 5, spec);
            for policy in PinningPolicy::ALL {
                cfg.pinning = Some(policy);
                let pinned = evaluate_sharded(&w, &cfg, 5, spec);
                assert_eq!(
                    legacy.qps.to_bits(),
                    pinned.qps.to_bits(),
                    "{policy:?} {shards}x{replicas}"
                );
                assert_eq!(legacy.recall.to_bits(), pinned.recall.to_bits());
                assert_eq!(legacy.memory_gib.to_bits(), pinned.memory_gib.to_bits());
                assert_eq!(legacy.simulated_secs.to_bits(), pinned.simulated_secs.to_bits());
                assert_eq!(legacy.failure, pinned.failure);
            }
        }
    }
}

/// Co-tuning end to end: with the pinning knob live the tuner proposes
/// valid policies, the evaluator accepts every candidate, and the budget
/// explores more than one policy.
#[test]
fn co_tuning_explores_pinning_policies() {
    let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
    let mut tuner = VdTuner::with_space(
        small_options(),
        SpaceSpec::with_topology(4).with_replication(2).with_pinning(),
        3,
    );
    let out = tuner.run_on(TopologyBackend::with_pinning(&w, 4, 2), 16);
    assert_eq!(out.observations.len(), 16);
    let mut policies = std::collections::BTreeSet::new();
    for o in &out.observations {
        let p = o.config.pinning.expect("co-tuning candidates always request a policy");
        policies.insert(p.ordinal());
    }
    assert!(policies.len() > 1, "the tuner must explore the pinning axis: {policies:?}");
    assert!(out.observations.iter().any(|o| !o.failed));
}

/// The evaluator cache keys pinning: two candidates differing only in the
/// pinning policy are distinct entries with distinct QPS on a
/// multi-segment layout.
#[test]
fn pinning_request_is_part_of_the_cache_key() {
    let w = multi_segment_workload();
    let mut ev = Evaluator::with_backend(TopologyBackend::with_pinning(&w, 2, 2), 1);
    let mut cfg = multi_segment_config();
    cfg.shards = Some(2);
    cfg.replicas = Some(1);
    cfg.pinning = Some(PinningPolicy::Shared);
    let shared = ev.observe(&cfg, 0.0);
    cfg.pinning = Some(PinningPolicy::SmtAvoid);
    let avoided = ev.observe(&cfg, 0.0);
    assert!(!shared.failed && !avoided.failed);
    assert_ne!(
        shared.qps.to_bits(),
        avoided.qps.to_bits(),
        "reactors reshape the perf law, so the cache must not alias policies"
    );
    assert_eq!(ev.len(), 2);
}

/// The evaluator cache keys the write path: two candidates differing only
/// in their write knobs (dimensions 20–22) are distinct entries. Under
/// insert traffic an eager and a lazy flusher commit differently, so an
/// aliased entry would hand the second candidate the first's write ledger.
#[test]
fn write_knobs_are_part_of_the_cache_key() {
    let w = multi_segment_workload();
    let spec =
        ServingSpec { arrival_qps: 300.0, requests: 600, ..Default::default() }.with_inserts(0.5);
    let backend = ServingBackend::new(&w, TopologyBackend::with_writepath(&w, 2, 2), spec);
    let mut ev = Evaluator::with_backend(backend, 1);
    let mut cfg = multi_segment_config();
    cfg.shards = Some(1);
    cfg.replicas = Some(1);
    cfg.pinning = Some(PinningPolicy::Shared);
    let eager = WriteKnobs { wal_batch_rows: 4, flush_interval_secs: 0.01, seal_rows: 64 };
    let lazy = WriteKnobs { wal_batch_rows: 512, flush_interval_secs: 0.2, seal_rows: 4096 };
    cfg.writepath = Some(eager);
    let a = ev.observe(&cfg, 0.0);
    cfg.writepath = Some(lazy);
    let b = ev.observe(&cfg, 0.0);
    assert!(!a.failed && !b.failed);
    let (wa, wb) = (a.serving.expect("served").writes, b.serving.expect("served").writes);
    assert!(wa.offered > 0 && wa.offered == wb.offered, "same insert stream");
    assert_ne!(wa, wb, "eager and lazy flushing commit differently, so the cache must not alias");
    assert_eq!(ev.len(), 2);
}
