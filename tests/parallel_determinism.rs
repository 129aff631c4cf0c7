//! The parallel evaluation engine must be a pure speedup: for a fixed seed,
//! observation histories are bit-identical whether the work runs on one
//! rayon thread or many, and the batched APIs degrade exactly to their
//! serial counterparts at q = 1.

use proptest::prelude::*;
use vdtuner::core::{SpaceSpec, TunerOptions, VdTuner};
use vdtuner::prelude::*;
use vdtuner::workload::{Evaluator, SimBackend};

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

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
}

#[test]
fn vdtuner_run_is_thread_count_invariant() {
    let w = tiny_workload();
    let serial = with_threads(1, || VdTuner::new(small_options(), 42).run(&w, 10));
    let parallel = with_threads(4, || VdTuner::new(small_options(), 42).run(&w, 10));
    assert_eq!(serial.fingerprint(|c| c), parallel.fingerprint(|c| c));
}

#[test]
fn batched_run_is_thread_count_invariant() {
    let w = tiny_workload();
    let serial = with_threads(1, || VdTuner::new(small_options(), 7).run_batched(&w, 12, 4));
    let parallel = with_threads(4, || VdTuner::new(small_options(), 7).run_batched(&w, 12, 4));
    assert_eq!(serial.observations.len(), 12);
    assert_eq!(serial.fingerprint(|c| c), parallel.fingerprint(|c| c));
}

#[test]
fn sharded_backend_run_is_thread_count_invariant() {
    let w = tiny_workload();
    let run = |threads: usize| {
        with_threads(threads, || {
            VdTuner::new(small_options(), 42).run_batched_on(
                SimBackend::with_spec(&w, ClusterSpec::new(3)),
                10,
                2,
            )
        })
    };
    assert_eq!(run(1).fingerprint(|c| c), run(4).fingerprint(|c| c));
}

#[test]
fn replicated_serving_run_is_thread_count_invariant() {
    // The full 18-dim stack — replica placement, shortest-queue-routed serving,
    // shed-charged percentiles — must still be a pure speedup: tuning
    // histories (and the serving stats feeding SLO decisions) are
    // bit-identical on 1 vs 4 rayon threads.
    use vdtuner::core::SpaceSpec;
    use vdtuner::workload::ServingSpec;
    let w = tiny_workload();
    let spec = ServingSpec { arrival_qps: 400.0, requests: 250, ..Default::default() };
    let space = SpaceSpec::with_topology(2).with_replication(3);
    let run = |threads: usize| {
        with_threads(threads, || {
            let backend = space.backend(&w).serving(spec);
            VdTuner::with_space(small_options(), space.clone(), 42).run_batched_on(backend, 10, 2)
        })
    };
    let (a, b) = (run(1), run(4));
    assert_eq!(a.fingerprint(|c| c), b.fingerprint(|c| c));
    for (oa, ob) in a.observations.iter().zip(&b.observations) {
        match (oa.serving, ob.serving) {
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.p99_latency_secs.to_bits(), sb.p99_latency_secs.to_bits());
                assert_eq!(sa.shed, sb.shed);
            }
            (sa, sb) => assert_eq!(sa.is_some(), sb.is_some()),
        }
    }
}

#[test]
fn batch_on_a_shared_serving_backend_is_thread_count_invariant() {
    // One serving backend — one arrival-plan memo — behind several
    // evaluators: who fills the slot, finds it filled or evicts a foreign
    // plan, on one thread or four at once, must not show in the history.
    use vdtuner::core::SpaceSpec;
    use vdtuner::core::TuningOutcome;
    use vdtuner::vdms::{PinningPolicy, WriteKnobs};
    use vdtuner::workload::ServingSpec;
    let w = tiny_workload();
    let spec =
        ServingSpec { arrival_qps: 600.0, requests: 400, ..Default::default() }.with_inserts(0.5);
    let space = SpaceSpec::with_topology(2).with_replication(3).with_pinning().with_writepath();
    let backend = || space.backend(&w).serving(spec);
    let configs: Vec<VdmsConfig> =
        [IndexType::Flat, IndexType::IvfFlat, IndexType::Hnsw, IndexType::IvfSq8]
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let mut cfg = VdmsConfig::default_for(t);
                cfg.shards = Some(1 + i % 2);
                cfg.replicas = Some(1 + i % 3);
                cfg.pinning = Some(PinningPolicy::ALL[i]);
                cfg.writepath = Some(WriteKnobs { wal_batch_rows: 4 << i, ..WriteKnobs::DEFAULT });
                cfg
            })
            .collect();
    let observe = |backend: &SimBackend<'_>, threads: usize, seed: u64| {
        let mut evaluator = Evaluator::with_backend(backend, seed);
        let obs = with_threads(threads, || evaluator.observe_batch(&configs, 0.0));
        assert!(obs.iter().all(|o| o.serving.is_some()), "every candidate must be served");
        let p99: Vec<_> =
            obs.iter().map(|o| o.serving.map(|s| s.p99_latency_secs.to_bits())).collect();
        let outcome = TuningOutcome::from_evaluator("batch".into(), &evaluator, Vec::new());
        (outcome.fingerprint(|c| c), p99)
    };
    let fresh = |seed: u64| observe(&backend(), 1, seed);
    let shared = backend();
    // Four threads fill the empty slot, four more evict it for another
    // seed, and the first seed comes back to a foreign plan.
    assert_eq!(observe(&shared, 4, 11), fresh(11));
    assert_eq!(observe(&shared, 4, 12), fresh(12));
    assert_eq!(observe(&shared, 1, 11), fresh(11));
    assert_ne!(fresh(11), fresh(12), "the seed must reach the history for this to bite");
}

#[test]
fn collection_load_and_search_are_thread_count_invariant() {
    // Multi-segment layout so the parallel build and scatter-gather paths
    // actually fan out.
    let ds = DatasetSpec { n: 4000, ..DatasetSpec::tiny(DatasetKind::Glove) }.generate();
    let mut cfg = VdmsConfig::default_for(IndexType::IvfFlat);
    cfg.system.segment_max_size_mb = 64.0;
    cfg.system.segment_seal_proportion = 1.0;
    let cfg = cfg.sanitized(ds.dim(), 10);

    let run = |threads: usize| {
        with_threads(threads, || {
            let col = vdtuner::vdms::Collection::load(&ds, &cfg, 3).unwrap();
            assert!(col.layout().sealed_count() >= 3);
            col.run_queries(10)
        })
    };
    let (cost_a, res_a) = run(1);
    let (cost_b, res_b) = run(4);
    assert_eq!(res_a, res_b);
    assert_eq!(cost_a, cost_b);
}

#[test]
fn exact_replay_is_thread_count_invariant() {
    // Nothing sealed, so this HNSW collection is exact: its replay reads
    // the dataset's memo of exact ids instead of scanning. Each run fills
    // its own memo (a fresh dataset) and routes over replica groups.
    let spec = DatasetSpec::tiny(DatasetKind::Glove);
    let mut cfg = VdmsConfig::default_for(IndexType::Hnsw).sanitized(spec.dim, 10);
    cfg.system.segment_max_size_mb = 2048.0;
    cfg.system.insert_buf_size_mb = 2048.0;
    let cluster = ClusterSpec::replicated(3, 2);

    let run = |threads: usize| {
        with_threads(threads, || {
            let ds = spec.generate();
            let col = vdtuner::vdms::ShardedCollection::load(&ds, &cfg, 3, cluster).unwrap();
            assert_eq!(col.collection().layout().sealed_count(), 0);
            col.run_queries(10)
        })
    };
    assert_eq!(run(1), run(4));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A whole batch equals the serial replay of the same candidate list,
    /// bit for bit, under any thread count.
    #[test]
    fn observe_batch_matches_serial_loop(us in prop::collection::vec(
                                             prop::collection::vec(0.0f64..=1.0, 16), 2..5),
                                         threads in 1usize..5) {
        let w = tiny_workload();
        let space = SpaceSpec::legacy();
        let configs: Vec<VdmsConfig> =
            us.iter().map(|u| space.decode(u).expect("16 coordinates")).collect();
        let mut serial = Evaluator::new(&w, 9);
        for c in &configs {
            serial.observe(c, 0.0);
        }
        let mut batched = Evaluator::new(&w, 9);
        let obs = with_threads(threads, || batched.observe_batch(&configs, 0.0));
        prop_assert_eq!(obs.len(), configs.len());
        for (a, b) in serial.history().iter().zip(&obs) {
            prop_assert_eq!(a.qps.to_bits(), b.qps.to_bits());
            prop_assert_eq!(a.recall.to_bits(), b.recall.to_bits());
            prop_assert_eq!(a.failed, b.failed);
        }
    }
}

#[test]
fn tuning_run_is_thread_count_invariant_under_dispatched_kernel() {
    // The SIMD kernel layer must not reintroduce thread sensitivity: with
    // whatever kernel runtime dispatch selected on this host (AVX2 where
    // available), a full tuning run is still bit-identical on 1 vs 4
    // rayon threads. Together with the forced-scalar CI arm this pins
    // dispatched == scalar == legacy across the whole stack.
    // Under VDTUNER_FORCE_SCALAR the same test checks the scalar
    // kernel's invariance, which is exactly the forced-scalar CI arm's
    // intent.
    let w = tiny_workload();
    let serial = with_threads(1, || VdTuner::new(small_options(), 1234).run(&w, 10));
    let parallel = with_threads(4, || VdTuner::new(small_options(), 1234).run(&w, 10));
    assert_eq!(serial.fingerprint(|c| c), parallel.fingerprint(|c| c));
}
