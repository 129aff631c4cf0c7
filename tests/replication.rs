//! The replication contracts, stated across crates:
//!
//! * both routing policies return identical result ids — and therefore
//!   identical recall — because every replica group hosts the same data,
//! * an 18-dimensional tuning run with the replication dimension frozen
//!   at one copy reproduces the 17-dimensional topology run bit for bit,
//! * replica-aware evaluation diverges honestly on cost: memory per copy,
//!   staleness under tight `gracefulTime`, read-slot scaling.

use proptest::prelude::*;
use vdtuner::core::{SpaceSpec, TunerOptions, VdTuner};
use vdtuner::prelude::*;
use vdtuner::vdms::cluster::ShardedCollection;
use vdtuner::vdms::system_params::SystemParams;
use vdtuner::workload::{Evaluator, ServingSpec};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Routing never changes what a query returns: JSQ and seeded-random
    /// routed clusters produce identical result ids (and so identical
    /// recall) for any shard count, replication factor and seed.
    #[test]
    fn routing_policies_return_identical_results(
        shards in 1usize..=3,
        replicas in 1usize..=3,
        route_seed in 0u64..1_000,
        seed in 0u64..64,
    ) {
        let w = multi_segment_workload();
        let cfg = multi_segment_config().sanitized(w.dataset.dim(), w.top_k);
        let base = ClusterSpec {
            shard_budget_gib: vdtuner::vdms::collection::MEMORY_BUDGET_GIB,
            ..ClusterSpec::replicated(shards, replicas)
        };
        let jsq = ShardedCollection::load(
            &w.dataset, &cfg, seed,
            base.with_routing(RoutingPolicy::JoinShortestQueue)).unwrap();
        let rand = ShardedCollection::load(
            &w.dataset, &cfg, seed,
            base.with_routing(RoutingPolicy::Random { seed: route_seed })).unwrap();
        let (_, jr) = jsq.run_queries(w.top_k);
        let (_, rr) = rand.run_queries(w.top_k);
        prop_assert_eq!(&jr, &rr);
        // Recall is therefore routing-invariant too.
        prop_assert_eq!(
            w.mean_recall(&jr).to_bits(),
            w.mean_recall(&rr).to_bits()
        );
    }
}

/// What `TuningOutcome::fingerprint` strips here: the replication request
/// differs by construction and is compared separately.
fn sans_replicas(c: VdmsConfig) -> VdmsConfig {
    VdmsConfig { replicas: None, ..c }
}

/// Acceptance gate for the 18th dimension: tuning the 18-dimensional space
/// with `replicas` frozen at one copy (over the backend that space builds)
/// yields a history bit-identical to the 17-dimensional topology spec over
/// its own backend — the extra constant
/// coordinate changes no GP prediction, no acquisition value, no
/// evaluation.
#[test]
fn frozen_replication_dimension_reproduces_topology_tuning_bitwise() {
    let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
    let narrow = VdTuner::with_space(small_options(), SpaceSpec::with_topology(4), 42).run(&w, 12);
    let frozen =
        VdTuner::with_space(small_options(), SpaceSpec::with_topology(4).with_replication(1), 42)
            .run(&w, 12);

    assert_eq!(narrow.fingerprint(sans_replicas), frozen.fingerprint(sans_replicas));
    // The frozen run really did carry the 18th dimension end to end.
    for o in &frozen.observations {
        assert_eq!(o.config.replicas, Some(1));
    }
    for o in &narrow.observations {
        assert_eq!(o.config.replicas, None);
    }
}

/// Same contract under batched (kriging-believer) proposals, and under
/// serving composition — the serving phase of a one-replica candidate is
/// the pre-replication serving phase bit for bit.
#[test]
fn frozen_replication_reproduces_serving_tuning_bitwise() {
    let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
    let spec = ServingSpec { arrival_qps: 300.0, requests: 300, ..Default::default() };
    let tune = |space: SpaceSpec| {
        let backend = space.backend(&w).serving(spec);
        VdTuner::with_space(small_options(), space, 7).run_batched_on(backend, 10, 3)
    };
    let narrow = tune(SpaceSpec::with_topology(2));
    let frozen = tune(SpaceSpec::with_topology(2).with_replication(1));
    assert_eq!(narrow.fingerprint(sans_replicas), frozen.fingerprint(sans_replicas));
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

/// Co-tuning end to end: with a real replica range the tuner proposes
/// valid shapes, the evaluator accepts every candidate, and the budget
/// explores more than one replication factor.
#[test]
fn co_tuning_explores_replication_factors() {
    let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
    let mut tuner =
        VdTuner::with_space(small_options(), SpaceSpec::with_topology(4).with_replication(4), 3);
    let out = tuner.run(&w, 16);
    assert_eq!(out.observations.len(), 16);
    let mut factors = std::collections::BTreeSet::new();
    for o in &out.observations {
        let r = o.config.replicas.expect("co-tuning candidates always request a factor");
        assert!((1..=4).contains(&r), "{}", o.config.summary());
        factors.insert(r);
    }
    assert!(factors.len() > 1, "the tuner must explore the replication axis: {factors:?}");
    assert!(out.observations.iter().any(|o| !o.failed));
}

/// The evaluator cache keys replication: two candidates differing only in
/// the replication factor are distinct entries with distinct memory.
#[test]
fn replica_request_is_part_of_the_cache_key() {
    let w = multi_segment_workload();
    let space = SpaceSpec::with_topology(2).with_replication(4);
    let mut ev = Evaluator::with_backend(space.backend(&w), 1);
    let mut cfg = multi_segment_config();
    cfg.shards = Some(2);
    cfg.replicas = Some(1);
    let one = ev.observe(&cfg, 0.0);
    cfg.replicas = Some(2);
    let two = ev.observe(&cfg, 0.0);
    assert!(!one.failed && !two.failed);
    assert!(
        two.memory_gib > one.memory_gib * 1.8,
        "replication pays per copy: {} vs {}",
        two.memory_gib,
        one.memory_gib
    );
    assert_eq!(ev.len(), 2);
}
