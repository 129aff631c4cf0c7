//! The serving simulator's contracts, stated across crates:
//!
//! * the event loop is deterministic — same seed ⇒ bit-identical trace on
//!   1 vs N rayon worker threads (by property),
//! * a serving phase with `arrival_qps → 0` degrades to the offline
//!   replay's QPS/recall,
//! * `gracefulTime` is finally load-bearing: the knob moves serving p99 in
//!   a regime where the offline mean-field model attributes *exactly zero*
//!   to it (the SHAP contrast the motivation figure needs).

use proptest::prelude::*;
use vdtuner::core::shap::shapley_attribution;
use vdtuner::core::{TunerOptions, VdTuner};
use vdtuner::prelude::*;
use vdtuner::vdms::cost_model::CostModel;
use vdtuner::vdms::system_params::SystemParams;
use vdtuner::workload::serving::simulate_replicated;
use vdtuner::workload::{Evaluator, ServingSpec, SimBackend};

fn tiny_workload() -> Workload {
    Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10)
}

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed ⇒ bit-identical event trace no matter how many worker
    /// threads execute the simulation: every draw is a pure function of
    /// the query index and the event loop (including JSQ replica routing,
    /// which reads per-group queue depths serially) is serial.
    #[test]
    fn serving_trace_is_thread_count_invariant(
        rate in 50.0f64..2_000.0,
        burst in 0.0f64..3.0,
        graceful in 0.0f64..5_000.0,
        buf in 16.0f64..2_048.0,
        conc in 1usize..64,
        service_ms in 0.5f64..20.0,
        replicas in 1usize..=4,
        random_routing in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let model = CostModel::default();
        let sys = SystemParams {
            graceful_time_ms: graceful,
            insert_buf_size_mb: buf,
            max_read_concurrency: conc,
            ..Default::default()
        };
        let routing = if random_routing == 1 {
            RoutingPolicy::Random { seed: seed ^ 0xABCD }
        } else {
            RoutingPolicy::JoinShortestQueue
        };
        let spec = ServingSpec {
            arrival_qps: rate,
            burstiness: burst,
            requests: 300,
            routing,
            ..Default::default()
        };
        let service = service_ms / 1_000.0;
        let serial =
            with_threads(1, || simulate_replicated(&model, &sys, service, &spec, seed, replicas));
        let parallel =
            with_threads(4, || simulate_replicated(&model, &sys, service, &spec, seed, replicas));
        prop_assert_eq!(&serial, &parallel);
        // Bit-level, not just PartialEq: fingerprint the latency trace and
        // the routing decisions.
        let bits = |t: &vdtuner::workload::ServingTrace| -> Vec<(u64, usize)> {
            t.events.iter().map(|e| (e.latency_secs().to_bits(), e.replica)).collect()
        };
        prop_assert_eq!(bits(&serial), bits(&parallel));
    }

    /// The tuner-facing objectives of a served evaluation are the offline
    /// replay's, bit for bit — at any arrival rate, for any seed.
    #[test]
    fn served_objectives_equal_offline_objectives(
        rate in 0.0f64..200.0,
        seed in 0u64..1_000,
    ) {
        let w = tiny_workload();
        let spec = ServingSpec { arrival_qps: rate, requests: 150, ..Default::default() };
        let served = SimBackend::new(&w).serving(spec).evaluate(&VdmsConfig::default_config(), seed);
        let offline = SimBackend::new(&w).evaluate(&VdmsConfig::default_config(), seed);
        prop_assert_eq!(served.qps.to_bits(), offline.qps.to_bits());
        prop_assert_eq!(served.recall.to_bits(), offline.recall.to_bits());
        prop_assert_eq!(served.memory_gib.to_bits(), offline.memory_gib.to_bits());
    }
}

#[test]
fn rate_zero_serving_backend_is_bitwise_the_offline_backend() {
    let w = tiny_workload();
    let b = SimBackend::new(&w).serving(ServingSpec::default().at_rate(0.0));
    for seed in [0u64, 7, 99] {
        let served = b.evaluate(&VdmsConfig::default_config(), seed);
        let offline = SimBackend::new(&w).evaluate(&VdmsConfig::default_config(), seed);
        assert_eq!(served, offline, "rate 0 must disable the serving phase entirely");
    }
}

/// Regression for the dead knob: `graceful_time_ms` is clamped and encoded
/// but — before the serving simulator — never moved any evaluated metric
/// once it exceeded the ingestion lag. Under serving it must move p99.
#[test]
fn graceful_time_moves_serving_p99() {
    let model = CostModel::default();
    let spec = ServingSpec { arrival_qps: 300.0, requests: 1_500, ..Default::default() };
    let p99_at = |graceful_ms: f64| {
        let sys = SystemParams { graceful_time_ms: graceful_ms, ..Default::default() };
        simulate_replicated(&model, &sys, 0.004, &spec, 17, 1).stats(&spec).p99_latency_secs
    };
    // Default buffer: ingestion lag ≈ 101 ms, flush interval ≈ 77 ms.
    let covered = p99_at(5_000.0); // watermark always old enough: no waits
    let inside_window = p99_at(60.0); // below the lag: waits for a covering flush
    let stalled = p99_at(0.0); // every query waits ≈ the full lag
    assert!(
        inside_window > covered + 0.010,
        "graceful inside the staleness window must add tail latency: {inside_window} vs {covered}"
    );
    assert!(stalled > inside_window, "smaller graceful waits longer: {stalled}");

    // A graceful window that already covers the lag never waits — not
    // even for flush quantization: 120 ms (barely past the ~101 ms lag)
    // and 5000 ms are bit-identical under serving.
    assert_eq!(
        p99_at(120.0).to_bits(),
        covered.to_bits(),
        "a covered config must not pay quantized waits"
    );

    // The offline mean-field stall is *identical* (zero) for 120 ms and
    // 5000 ms; serving agrees on those, but only serving resolves the
    // *phase-dependent* flush wait below the lag — the offline stall is
    // one uniform number there, blind to the tail the quantization adds.
    let sys_a = SystemParams { graceful_time_ms: 120.0, ..Default::default() };
    let sys_b = SystemParams { graceful_time_ms: 5_000.0, ..Default::default() };
    let cost = anns::SearchCost {
        f32_dims: 8_000 * 48,
        heap_pushes: 8_000,
        segments: 1,
        ..Default::default()
    };
    let off_a = model.query_perf(&cost, &sys_a).latency_secs;
    let off_b = model.query_perf(&cost, &sys_b).latency_secs;
    assert_eq!(off_a.to_bits(), off_b.to_bits(), "offline model cannot tell them apart");
}

/// SHAP attribution contrast: the offline latency model charges
/// `gracefulTime` only its uniform mean-field stall; serving p99 adds the
/// phase-dependent flush-quantization tail on top, so the serving
/// attribution is strictly larger — and dominant, since nothing else
/// differs.
#[test]
fn shap_attributes_serving_p99_to_graceful_time() {
    let model = CostModel::default();
    let spec = ServingSpec { arrival_qps: 300.0, requests: 800, ..Default::default() };
    let cost = anns::SearchCost {
        f32_dims: 2_000 * 48,
        heap_pushes: 2_000,
        segments: 1,
        ..Default::default()
    };
    // Target and baseline differ ONLY in gracefulTime: the target sits
    // below the ingestion lag (~101 ms), where queries wait for a
    // covering flush; the baseline is fully covered (no waits).
    let mut target = VdmsConfig::default_config();
    target.system.graceful_time_ms = 60.0;
    let baseline = VdmsConfig::default_config(); // graceful 5000 ms

    let offline_attr = shapley_attribution(
        |c| model.query_perf(&cost, &c.system).latency_secs,
        &target,
        &baseline,
        2,
        5,
    );
    let serving_attr = shapley_attribution(
        |c| {
            simulate_replicated(&model, &c.system, 0.004, &spec, 17, 1)
                .stats(&spec)
                .p99_latency_secs
        },
        &target,
        &baseline,
        2,
        5,
    );
    let graceful = |attr: &vdtuner::core::shap::Attribution| {
        attr.contributions
            .iter()
            .find(|(name, _)| *name == "gracefulTime")
            .map(|(_, v)| *v)
            .expect("gracefulTime dimension exists")
    };
    // The offline model sees only the (lag − graceful) mean stall ≈ 41 ms;
    // serving p99 lands on the worst flush phase and must exceed it.
    assert!(
        graceful(&offline_attr).abs() > 0.001,
        "offline model: the uniform mean-field stall is attributed: {}",
        graceful(&offline_attr)
    );
    assert!(
        graceful(&serving_attr).abs() > graceful(&offline_attr).abs() + 0.010,
        "serving p99 must add the quantized tail on top of the mean stall: {} vs {}",
        graceful(&serving_attr),
        graceful(&offline_attr)
    );
    // And it is the *dominant* dimension — nothing else differs.
    assert_eq!(serving_attr.ranked()[0].0, "gracefulTime");
}

/// Full-pipeline smoke: VDTuner drives an SLO-constrained serving backend;
/// violations surface as failed observations with stats attached, and the
/// run still finds feasible configurations.
#[test]
fn slo_constrained_tuning_records_rejections_as_failures() {
    let w = tiny_workload();
    // Tiny-workload service times are sub-millisecond; a 2 ms SLO at a
    // rate near capacity rejects slow configs but admits fast ones.
    let spec =
        ServingSpec { arrival_qps: 500.0, requests: 600, ..Default::default() }.with_slo(0.002);
    let backend = SimBackend::new(&w).serving(spec);
    let mut tuner = VdTuner::new(
        TunerOptions {
            mc_samples: 8,
            candidates: vdtuner::mobo::optimize::CandidateOptions {
                n_lhs: 8,
                n_uniform: 4,
                n_local_per_incumbent: 2,
                local_sigma: 0.1,
            },
            ..Default::default()
        },
        3,
    );
    let out = tuner.run_on(backend, 10);
    assert_eq!(out.observations.len(), 10);
    assert!(
        out.observations.iter().any(|o| !o.failed && o.serving.is_some()),
        "some config must satisfy the SLO"
    );
    // Every successful observation satisfied the SLO at evaluation time.
    for o in out.observations.iter().filter(|o| !o.failed) {
        let s = o.serving.expect("served evaluations carry stats");
        assert!(s.p99_latency_secs <= 0.002, "recorded p99 {} breaks the SLO", s.p99_latency_secs);
    }
    assert_eq!(
        out.slo_rejections(),
        out.observations.iter().filter(|o| o.failed && o.serving.is_some()).count()
    );
    // The SLO-aware headline metrics are consistent with the history.
    if let Some(p99) = out.best_p99_with_recall(0.0) {
        assert!(p99 <= 0.002);
    }
}

/// Serving composes with topology co-tuning: a 17-dim candidate deploys
/// its own cluster *and* is exercised by the serving simulator.
#[test]
fn serving_over_topology_backend_supports_co_tuning() {
    let w = tiny_workload();
    let spec = ServingSpec { arrival_qps: 100.0, requests: 200, ..Default::default() };
    let backend = SpaceSpec::with_topology(4).backend(&w).serving(spec);
    let mut ev = Evaluator::with_backend(backend, 1);
    assert_eq!(ev.info().space_dims, VdmsConfig::BASE_TUNABLES + 1);
    let mut cfg = VdmsConfig::default_config();
    cfg.shards = Some(2);
    let obs = ev.observe(&cfg, 0.0);
    assert!(!obs.failed);
    assert!(obs.serving.is_some(), "sharded serving still records stats");
}
