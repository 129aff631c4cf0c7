//! The declarative space contract: the legacy 16-dimensional spec and the
//! topology-extended spec share one encoder/decoder machinery, round-trip
//! cleanly, and — with the shard count frozen at one node — the
//! 17-dimensional spec reproduces 16-dimensional tuning bit for bit.

use proptest::prelude::*;
use vdtuner::core::{SpaceError, SpaceSpec, TunerOptions, VdTuner};
use vdtuner::prelude::*;

fn tiny_workload() -> Workload {
    Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10)
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

/// Approximate config equality after one projection: integer knobs are on
/// the decode grid and must be exactly stable; float knobs may drift by
/// ulps through the log/exp round-trip.
fn assert_projection_stable(a: &VdmsConfig, b: &VdmsConfig) {
    assert_eq!(a.index_type, b.index_type);
    assert_eq!(a.index, b.index);
    assert_eq!(a.shards, b.shards);
    assert_eq!(a.replicas, b.replicas);
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(1.0);
    assert!(close(a.system.segment_max_size_mb, b.system.segment_max_size_mb));
    assert!(close(a.system.segment_seal_proportion, b.system.segment_seal_proportion));
    assert!(close(a.system.graceful_time_ms, b.system.graceful_time_ms));
    assert!(close(a.system.insert_buf_size_mb, b.system.insert_buf_size_mb));
    assert_eq!(a.system.max_read_concurrency, b.system.max_read_concurrency);
    assert_eq!(a.system.chunk_rows, b.system.chunk_rows);
    assert_eq!(a.system.build_parallelism, b.system.build_parallelism);
}

/// One round-trip check for [`encode_decode_idempotent_in_both_specs`]:
/// decode, re-encode (must stay in the unit cube), decode again — the
/// projection must be stable across another round-trip.
fn check_roundtrip(spec: &SpaceSpec, u: &[f64]) {
    let c1 = spec.decode(u).expect("point is wide enough for either spec");
    let enc = spec.encode(&c1);
    assert_eq!(enc.len(), spec.dims());
    assert!(enc.iter().all(|&x| (0.0..=1.0).contains(&x)), "{enc:?}");
    let c2 = spec.decode(&enc).expect("encoded points span the space");
    assert_projection_stable(&c1, &c2);
    let c3 = spec.decode(&spec.encode(&c2)).unwrap();
    assert_projection_stable(&c2, &c3);
    if spec.has_shards() {
        assert!(c1.shards.is_some());
    } else {
        assert_eq!(c1.shards, None);
    }
    if spec.has_replication() {
        assert!(c1.replicas.is_some());
    } else {
        assert_eq!(c1.replicas, None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// encode ∘ decode is idempotent (up to float ulps) and stays in the
    /// unit cube, for random points across all index types and both specs.
    #[test]
    fn encode_decode_idempotent_in_all_specs(
        u in prop::collection::vec(0.0f64..=1.0, 18),
        type_ord in 0usize..7,
    ) {
        // Force every index type to be exercised, not just the rounded mix.
        let mut u = u;
        u[0] = type_ord as f64 / 6.0;
        check_roundtrip(&SpaceSpec::legacy(), &u);
        check_roundtrip(&SpaceSpec::with_topology(8), &u);
        check_roundtrip(&SpaceSpec::with_topology(8).with_replication(4), &u);
        check_roundtrip(&SpaceSpec::with_topology(8).with_pinned_replication(3), &u);
        // A deployment dimension without a shard dimension: no shard request.
        check_roundtrip(&SpaceSpec::legacy().with_pinning(), &u);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The specs agree on every shared dimension: each extension is pure,
    /// never a reinterpretation.
    #[test]
    fn extended_specs_extend_the_legacy_spec(u in prop::collection::vec(0.0f64..=1.0, 18)) {
        let wide = SpaceSpec::with_topology(8).decode(&u).unwrap();
        let narrow = SpaceSpec::legacy().decode(&u).unwrap();
        prop_assert_eq!(wide.index_type, narrow.index_type);
        prop_assert_eq!(wide.index, narrow.index);
        prop_assert_eq!(wide.system, narrow.system);
        prop_assert_eq!(narrow.shards, None);
        prop_assert!(matches!(wide.shards, Some(1..=8)));
        let widest = SpaceSpec::with_topology(8).with_replication(4).decode(&u).unwrap();
        prop_assert_eq!(widest.index, wide.index);
        prop_assert_eq!(widest.system, wide.system);
        prop_assert_eq!(widest.shards, wide.shards);
        prop_assert_eq!(wide.replicas, None);
        prop_assert!(matches!(widest.replicas, Some(1..=4)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Short points are typed errors through every spec — never aborts.
    #[test]
    fn short_points_are_typed_errors(len in 0usize..16) {
        let u = vec![0.5; len];
        prop_assert_eq!(
            SpaceSpec::legacy().decode(&u),
            Err(SpaceError::TooFewCoords { expected: 16, got: len })
        );
        prop_assert_eq!(
            SpaceSpec::with_topology(4).decode(&u),
            Err(SpaceError::TooFewCoords { expected: 17, got: len })
        );
        prop_assert_eq!(
            SpaceSpec::with_topology(4).with_replication(4).decode(&u),
            Err(SpaceError::TooFewCoords { expected: 18, got: len })
        );
    }
}

/// What `TuningOutcome::fingerprint` strips here: the topology request
/// differs by construction and is compared separately.
fn sans_shards(c: VdmsConfig) -> VdmsConfig {
    VdmsConfig { shards: None, ..c }
}

/// Acceptance gate for the spec refactor: tuning the 17-dimensional space
/// with `shard_count` frozen at 1 (over the backend that space realizes)
/// yields a history bit-identical to the 16-dimensional spec over the single-node
/// simulator — the extra constant coordinate changes no GP prediction, no
/// acquisition value, no evaluation.
#[test]
fn frozen_topology_dimension_reproduces_legacy_tuning_bitwise() {
    let w = tiny_workload();
    let legacy = VdTuner::new(small_options(), 42).run_batched_on(SimBackend::new(&w), 12, 1);
    let mut topo_tuner = VdTuner::with_space(small_options(), SpaceSpec::with_topology(1), 42);
    let frozen = topo_tuner.run(&w, 12);

    assert_eq!(legacy.fingerprint(sans_shards), frozen.fingerprint(sans_shards));
    // The frozen run really did carry the 17th dimension end to end.
    for o in &frozen.observations {
        assert_eq!(o.config.shards, Some(1));
    }
    for o in &legacy.observations {
        assert_eq!(o.config.shards, None);
    }
}

/// Same contract under batched (kriging-believer) proposals.
#[test]
fn frozen_topology_dimension_reproduces_legacy_batched_tuning_bitwise() {
    let w = tiny_workload();
    let legacy = VdTuner::new(small_options(), 7).run_batched_on(SimBackend::new(&w), 12, 3);
    let space = SpaceSpec::with_topology(1);
    let backend = space.backend(&w);
    let frozen = VdTuner::with_space(small_options(), space, 7).run_batched_on(backend, 12, 3);
    assert_eq!(legacy.fingerprint(sans_shards), frozen.fingerprint(sans_shards));
}

/// Co-tuning end to end: with a real shard range the tuner proposes valid
/// shapes, the evaluator accepts every candidate, and the budget explores
/// more than one topology.
#[test]
fn co_tuning_explores_topologies() {
    let w = tiny_workload();
    let mut tuner = VdTuner::with_space(small_options(), SpaceSpec::with_topology(8), 3);
    let out = tuner.run(&w, 16);
    assert_eq!(out.observations.len(), 16);
    let mut shapes = std::collections::BTreeSet::new();
    for o in &out.observations {
        let s = o.config.shards.expect("co-tuning candidates always request a shape");
        assert!((1..=8).contains(&s), "{}", o.config.summary());
        shapes.insert(s);
    }
    assert!(shapes.len() > 1, "the tuner must explore the topology axis: {shapes:?}");
    assert!(out.observations.iter().any(|o| !o.failed));
    // The backend refused no candidate: every failure, if any, is a real
    // evaluation failure, not an unrealizable deployment.
    assert!(out
        .observations
        .iter()
        .all(|o| !o.failed || o.replay_secs > 0.0 || o.memory_gib > 0.0));
}

/// Co-tuning is deterministic for a fixed seed, like every other path.
#[test]
fn co_tuning_is_deterministic() {
    let w = tiny_workload();
    let run =
        |seed| VdTuner::with_space(small_options(), SpaceSpec::with_topology(4), seed).run(&w, 10);
    let key = |out: &vdtuner::core::TuningOutcome| -> Vec<(String, u64)> {
        out.observations.iter().map(|o| (o.config.summary(), o.qps.to_bits())).collect()
    };
    assert_eq!(key(&run(9)), key(&run(9)));
}

/// Regression: `VdTuner::run` used to drive every space against the
/// 16-dimensional single-node backend. That miswiring shows here as
/// `Unrealizable` refusals of every multi-shard candidate, and so as a
/// fingerprint mismatch: `run` serves the space on the backend it
/// realizes, bit for bit.
#[test]
fn run_serves_a_wide_space_on_the_backend_it_realizes() {
    let w = tiny_workload();
    let space = SpaceSpec::with_topology(4);
    let via_run = VdTuner::with_space(small_options(), space.clone(), 5).run(&w, 10);
    let backend = space.backend(&w);
    let via_backend = VdTuner::with_space(small_options(), space, 5).run_batched_on(backend, 10, 1);
    assert!(via_run.observations.iter().any(|o| !o.failed), "no successful observation");
    assert_eq!(via_run.fingerprint(|c| c), via_backend.fingerprint(|c| c));
    assert!(via_run.observations.iter().all(|o| o.config.shards.is_some()));
}

/// Every space the workspace builds realizes itself: each seed
/// configuration evaluates on the space's backend without a refused
/// deployment request.
#[test]
fn every_space_realizes_itself() {
    use vdtuner::vdms::{PinningPolicy, VdmsError, WriteKnobs};
    use vdtuner::workload::Evaluator;
    let w = tiny_workload();
    let eager = WriteKnobs { wal_batch_rows: 16, flush_interval_secs: 0.005, seal_rows: 128 };
    let replicated = || SpaceSpec::with_topology(4).with_replication(4);
    let spaces = [
        SpaceSpec::legacy(),
        SpaceSpec::legacy().with_pinning(),
        SpaceSpec::with_topology(1),
        SpaceSpec::with_topology(8),
        SpaceSpec::with_topology(4).with_replication(1),
        replicated(),
        SpaceSpec::with_topology(4).with_pinned_replication(2),
        replicated().with_pinning(),
        replicated().with_pinned_pinning(PinningPolicy::SmtAvoid),
        replicated().with_pinning().with_writepath(),
        replicated().with_pinning().with_pinned_writepath(eager),
        replicated().with_pinning().with_pinned_writepath(WriteKnobs::DEFAULT),
    ];
    for (i, space) in spaces.iter().enumerate() {
        let backend = space.backend(&w);
        let mut ev = Evaluator::with_backend(backend, 1);
        for t in IndexType::ALL {
            let cfg = space.seed_config(t);
            let obs = ev.observe(&cfg, 0.0);
            let failure = obs.failed.then(|| ev.backend().evaluate(&obs.config, 1).failure);
            assert!(
                !matches!(failure.flatten(), Some(VdmsError::Unrealizable { .. })),
                "space {i}, {t}: {:?}",
                ev.backend().evaluate(&obs.config, 1).failure
            );
        }
    }
}
