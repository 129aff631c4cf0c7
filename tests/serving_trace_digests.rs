//! Pinned digests of the serving simulator's traces and the cluster perf
//! law, captured on the commit *before* the event loops and perf laws were
//! collapsed into one each. Where the other suites compare two runs of the
//! current code, these compare the current code with that commit: every
//! field of every event, bit for bit, over a panel that reaches each arm
//! of the loop (shared pool / reactors, analytic watermark / WAL
//! visibility, both routers, query shedding, insert parking and shedding,
//! the deferred-consistency retry, the empty run). The two four-group
//! reactor fleets (64 queues each) joined later; their digests were
//! captured on the commit before the router's per-queue waiting heaps
//! became one heap and a depth counter per queue.
//!
//! The same panel, and a property over random deployments, also hold the
//! trace-free path a serving phase takes ([`ArrivalPlan::stats`]) to the
//! stats of the materialised trace, field by field.

use proptest::prelude::*;
use vdtuner::anns::SearchCost;
use vdtuner::prelude::*;
use vdtuner::vdms::system_params::SystemParams;
use vdtuner::vdms::writepath::WriteKnobs;
use vdtuner::vdms::{CostModel, PinningPolicy};
use vdtuner::workload::serving::{
    simulate_pinned, simulate_pinned_mixed, simulate_replicated, ArrivalPlan, Deployment,
};
use vdtuner::workload::{ServingStats, ServingTrace, WriteStats};

/// FNV-1a over a stream of 64-bit words, byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn trace_digest(t: &ServingTrace) -> u64 {
    let mut h = Fnv::new();
    for w in [t.events.len(), t.slots, t.replicas, t.max_queue_depth] {
        h.word(w as u64);
    }
    for e in &t.events {
        for f in [e.arrival_secs, e.consistency_wait_secs, e.service_secs, e.finish_secs] {
            h.word(f.to_bits());
        }
        h.word(e.shed as u64);
        h.word(e.replica as u64);
    }
    let w = t.writes;
    for c in [
        w.offered,
        w.accepted,
        w.shed,
        w.flushes_full_batch,
        w.flushes_end_of_tick,
        w.segments_sealed,
        w.compactions,
    ] {
        h.word(c as u64);
    }
    h.word(w.last_durable_lsn);
    h.0
}

/// Every field of the stats, floats by their bits.
fn stats_bits(s: &ServingStats) -> ([u64; 7], [usize; 4], WriteStats) {
    let floats = [
        s.offered_qps,
        s.achieved_qps,
        s.goodput_qps,
        s.p50_latency_secs,
        s.p95_latency_secs,
        s.p99_latency_secs,
        s.makespan_secs,
    ];
    (floats.map(f64::to_bits), [s.max_queue_depth, s.completed, s.shed, s.timeouts], s.writes)
}

/// Compare the panel with its pinned table; on any difference print the
/// whole actual table in a form that pastes back into the source.
fn check(pinned: &[(&str, u64)], actual: &[(String, u64)]) {
    let same = pinned.len() == actual.len()
        && pinned.iter().zip(actual).all(|(p, a)| p.0 == a.0 && p.1 == a.1);
    let table: String =
        actual.iter().map(|(name, d)| format!("    (\"{name}\", 0x{d:016x}),\n")).collect();
    assert!(same, "digests moved; the panel now yields:\n{table}");
}

const TRACES: &[(&str, u64)] = &[
    ("readonly shared r1", 0xcf678e1d3c7a78c5),
    ("readonly shared r3", 0x60a312d7482e98d2),
    ("readonly shared r3 random tight", 0x44135103cd76d54e),
    ("readonly compact r1", 0x9553a0065f6473a5),
    ("readonly smt-avoid r2", 0xb36e6d0f7d1d6960),
    ("readonly smt-avoid r4", 0xeb2915aef69802a3),
    ("readonly scatter r2 random", 0xd28dfe94ab627246),
    ("readonly overload sheds queries", 0xd3aee671e1439b32),
    ("readonly wrappers ignore inserts", 0x14a26b2f5ef6754b),
    ("readonly pinned wrapper ignores inserts", 0xd4dc46f25857c577),
    ("mixed shared r1", 0x31b48280d9cfa5e6),
    ("mixed shared r3 random", 0x7931e148e1d71a32),
    ("mixed scatter r2", 0xb3f5d0365de94e64),
    ("mixed scatter r4 random", 0xdd965a4616d86606),
    ("mixed compact r2 random", 0xc3d6321d0eb01503),
    ("mixed parks and sheds inserts", 0xfafab1e784d01169),
    ("mixed retry shared r2", 0xd6ee104b1c9b1ac1),
    ("mixed retry smt-avoid r1", 0xcf8ddeb762fa0898),
    ("mixed overload sheds queries", 0x5024131cbf473cd3),
    ("mixed fraction rounds to zero inserts", 0x639a594dee2a9c50),
    ("zero insert fraction through the mixed entry", 0x85af03038dbb0bef),
    ("zero requests shared", 0xde4dbfc88674e82f),
    ("zero requests compact", 0x1c8f6abb14eaceee),
    ("zero requests mixed", 0xde4dbfc88674e82f),
];

/// The panel's deployments: everything at a 4 ms base service time.
fn on<'a>(
    model: &'a CostModel,
    sys: &'a SystemParams,
    replicas: usize,
    policy: PinningPolicy,
    top_k: usize,
    knobs: WriteKnobs,
) -> Deployment<'a> {
    Deployment { model, sys, base_service_secs: 0.004, replicas, policy, top_k, knobs }
}

/// `trace`, once the same case run trace-free aggregates to its stats.
fn sunk(trace: ServingTrace, spec: &ServingSpec, seed: u64, on: Deployment<'_>) -> ServingTrace {
    let stats = ArrivalPlan::new(spec, seed).stats(&on);
    assert_eq!(stats_bits(&stats), stats_bits(&trace.stats(spec)));
    trace
}

#[test]
fn serving_traces_match_the_pre_collapse_simulators_bitwise() {
    use PinningPolicy::{Compact, Scatter, Shared, SmtAvoid};
    let model = CostModel::default();
    let sys = SystemParams { max_read_concurrency: 8, ..Default::default() };
    let tight = SystemParams { graceful_time_ms: 0.0, ..sys };
    let one_slot = SystemParams { max_read_concurrency: 1, ..Default::default() };
    // Four groups of sixteen reactors (64 queues) offered a quarter more
    // than they serve: the router's widest fleet, as the benchmark's
    // slowest evaluations run it, with every queue backed up.
    let wide = SystemParams { max_read_concurrency: 16, ..sys };
    let base = ServingSpec { arrival_qps: 1_200.0, requests: 900, ..Default::default() };
    let fleet = ServingSpec { arrival_qps: 20_000.0, requests: 2_000, ..base };
    let random = base.with_routing(RoutingPolicy::Random { seed: 21 });
    let fleet_random = fleet.with_routing(RoutingPolicy::Random { seed: 21 });
    let mixed = base.with_inserts(0.5);
    let overload =
        ServingSpec { arrival_qps: 5_000.0, requests: 1_500, queue_capacity: 16, ..base };
    let cramped = ServingSpec { arrival_qps: 2_000.0, queue_capacity: 8, ..base }.with_inserts(1.0);
    let empty = ServingSpec { requests: 0, ..base };
    let knobs = WriteKnobs { wal_batch_rows: 16, flush_interval_secs: 0.02, seal_rows: 32 };
    let lazy = WriteKnobs { wal_batch_rows: 64, flush_interval_secs: 0.04, seal_rows: 4096 };
    let per_row = WriteKnobs { wal_batch_rows: 1, flush_interval_secs: 0.05, seal_rows: 4096 };

    let ro = |sys: &SystemParams, spec: &ServingSpec, seed, replicas| {
        let trace = simulate_replicated(&model, sys, 0.004, spec, seed, replicas);
        let reads = spec.with_inserts(0.0);
        sunk(trace, &reads, seed, on(&model, sys, replicas, Shared, 0, WriteKnobs::DEFAULT))
    };
    let pin = |sys: &SystemParams, spec: &ServingSpec, seed, replicas, policy| {
        let trace = simulate_pinned(&model, sys, 0.004, spec, seed, replicas, policy, 10);
        let reads = spec.with_inserts(0.0);
        sunk(trace, &reads, seed, on(&model, sys, replicas, policy, 10, WriteKnobs::DEFAULT))
    };
    let mix = |sys: &SystemParams, spec: &ServingSpec, seed, replicas, policy, knobs| {
        let trace =
            simulate_pinned_mixed(&model, sys, 0.004, spec, seed, replicas, policy, 10, knobs);
        sunk(trace, spec, seed, on(&model, sys, replicas, policy, 10, knobs))
    };

    let shed_queries = ro(&one_slot, &overload, 3, 1);
    assert!(shed_queries.events.iter().any(|e| e.shed), "the overload case must shed");
    let parked = mix(&sys, &cramped, 13, 1, Shared, per_row);
    assert!(parked.writes.shed > 0, "the cramped window must shed inserts");
    // gracefulTime = 0 asks for rows no triggered commit covers yet, so
    // queries defer to the tick and wait on real durability.
    let retried = mix(&tight, &mixed, 9, 2, Shared, lazy);
    assert!(retried.events.iter().any(|e| e.consistency_wait_secs > 0.0));
    // A positive insert fraction that rounds to zero inserts still takes
    // the WAL visibility arm and runs the tick chain.
    let rounds_to_none = mix(&tight, &base.with_inserts(0.0004), 9, 2, Compact, lazy);
    assert_eq!(rounds_to_none.writes.offered, 0);
    // The fleets really are 64 single-slot queues, and they really queue.
    let fleet_jsq = pin(&wide, &fleet, 7, 4, SmtAvoid);
    let fleet_mixed = mix(&wide, &fleet_random.with_inserts(0.5), 5, 4, Scatter, knobs);
    for fleet in [&fleet_jsq, &fleet_mixed] {
        assert_eq!((fleet.replicas, fleet.slots), (4, 16));
        assert!(fleet.max_queue_depth > 1, "{}", fleet.max_queue_depth);
    }

    let panel = [
        ("readonly shared r1", ro(&sys, &base, 11, 1)),
        ("readonly shared r3", ro(&sys, &base, 11, 3)),
        ("readonly shared r3 random tight", ro(&tight, &random, 5, 3)),
        ("readonly compact r1", pin(&sys, &base, 11, 1, Compact)),
        ("readonly smt-avoid r2", pin(&sys, &base, 7, 2, SmtAvoid)),
        ("readonly smt-avoid r4", fleet_jsq),
        ("readonly scatter r2 random", pin(&sys, &random, 7, 2, Scatter)),
        ("readonly overload sheds queries", shed_queries),
        ("readonly wrappers ignore inserts", ro(&sys, &mixed, 11, 2)),
        ("readonly pinned wrapper ignores inserts", pin(&sys, &mixed, 11, 2, Compact)),
        ("mixed shared r1", mix(&sys, &mixed, 7, 1, Shared, knobs)),
        ("mixed shared r3 random", mix(&sys, &random.with_inserts(0.5), 7, 3, Shared, knobs)),
        ("mixed scatter r2", mix(&sys, &mixed, 5, 2, Scatter, knobs)),
        ("mixed scatter r4 random", fleet_mixed),
        ("mixed compact r2 random", mix(&sys, &random.with_inserts(0.5), 5, 2, Compact, lazy)),
        ("mixed parks and sheds inserts", parked),
        ("mixed retry shared r2", retried),
        ("mixed retry smt-avoid r1", mix(&tight, &mixed, 9, 1, SmtAvoid, lazy)),
        (
            "mixed overload sheds queries",
            mix(&one_slot, &overload.with_inserts(0.5), 3, 1, Shared, knobs),
        ),
        ("mixed fraction rounds to zero inserts", rounds_to_none),
        ("zero insert fraction through the mixed entry", mix(&tight, &base, 9, 2, Scatter, lazy)),
        ("zero requests shared", ro(&sys, &empty, 1, 2)),
        ("zero requests compact", pin(&sys, &empty, 1, 3, Compact)),
        ("zero requests mixed", mix(&sys, &empty.with_inserts(0.5), 1, 2, Scatter, knobs)),
    ];
    let actual: Vec<(String, u64)> =
        panel.iter().map(|(name, trace)| (name.to_string(), trace_digest(trace))).collect();
    check(TRACES, &actual);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One plan serves any number of candidates: for two random deployments
    /// sharing a `(spec, seed)`, the plan's trace is the fresh simulation's
    /// and its trace-free stats are that trace's stats, bit for bit.
    #[test]
    fn one_plan_serves_every_candidate_and_stats_need_no_trace(
        candidates in prop::collection::vec(
            (
                // Write knobs: batch rows, flush interval, seal rows.
                (1usize..=96, 0.002f64..0.08, 1usize..=256),
                // Pinning policy, replicas, maxReadConcurrency.
                (0usize..4, 1usize..=4, 1usize..=12),
                // gracefulTime pick, base service time.
                (0usize..3, 0.0005f64..0.006),
            ),
            2,
        ),
        random_routing in 0usize..2,
        capacity in 0usize..4,
        inserts in 0usize..4,
        arrival_qps in 300.0f64..4_000.0,
        seed in 0u64..1_000_000,
    ) {
        let model = CostModel::default();
        let spec = ServingSpec {
            arrival_qps,
            requests: 300,
            queue_capacity: [0, 3, 32, 256][capacity],
            routing: [RoutingPolicy::JoinShortestQueue, RoutingPolicy::Random { seed: 21 }]
                [random_routing],
            // None, one that rounds to zero inserts, and two real streams.
            insert_fraction: [0.0, 0.001, 0.5, 1.0][inserts],
            ..Default::default()
        };
        let plan = ArrivalPlan::new(&spec, seed);
        for ((batch, flush, seal), (policy, replicas, slots), (graceful, service)) in candidates {
            let sys = SystemParams {
                max_read_concurrency: slots,
                graceful_time_ms: [0.0, 15.0, 5_000.0][graceful],
                ..Default::default()
            };
            let policy = PinningPolicy::ALL[policy];
            let knobs =
                WriteKnobs { wal_batch_rows: batch, flush_interval_secs: flush, seal_rows: seal };
            let fresh =
                simulate_pinned_mixed(&model, &sys, service, &spec, seed, replicas, policy, 10, knobs);
            let deployment = Deployment {
                model: &model,
                sys: &sys,
                base_service_secs: service,
                replicas,
                policy,
                top_k: 10,
                knobs,
            };
            prop_assert_eq!(trace_digest(&plan.trace(&deployment)), trace_digest(&fresh));
            prop_assert_eq!(stats_bits(&plan.stats(&deployment)), stats_bits(&fresh.stats(&spec)));
        }
    }
}

const PERF: &[(&str, u64)] = &[
    ("shared r1 s1", 0x8ccd2e380ebfb761),
    ("shared r1 s4", 0x752a00a30ba7035b),
    ("shared r3 s1", 0x254dde29f1b87b24),
    ("shared r3 s4", 0xe40d2701e6a96ce8),
    ("compact r1 s1", 0x3bd68db7a90ce852),
    ("compact r1 s4", 0x229f13929cca4165),
    ("compact r3 s1", 0x84d23f5ab878c6b8),
    ("compact r3 s4", 0xafc61a2fea09d4d7),
    ("scatter r1 s1", 0xc784e08f62cd0055),
    ("scatter r1 s4", 0x935a932559306c2a),
    ("scatter r3 s1", 0x34174fecf94900ed),
    ("scatter r3 s4", 0xa8c8d20d7025f6c6),
    ("smt-avoid r1 s1", 0x1c0a032829c453b9),
    ("smt-avoid r1 s4", 0x4644e386e07d9cb8),
    ("smt-avoid r3 s1", 0xf8a7656309af9119),
    ("smt-avoid r3 s4", 0xbde0f979c63e1d57),
];

#[test]
fn cluster_perf_matches_the_pre_collapse_laws_bitwise() {
    let model = CostModel::default();
    let sys = SystemParams { max_read_concurrency: 8, ..Default::default() };
    // 24 read slots: scatter opens the SMT plane, smt-avoid stops at 16.
    let tight =
        SystemParams { graceful_time_ms: 40.0, chunk_rows: 4096, max_read_concurrency: 24, ..sys };
    let flat =
        SearchCost { f32_dims: 8_000 * 48, heap_pushes: 8_000, segments: 5, ..Default::default() };
    let ivf = SearchCost {
        u8_dims: 900 * 48,
        pq_lookups: 4_000,
        heap_pushes: 900,
        lists_probed: 8,
        segments: 3,
        ..Default::default()
    };
    let graph = SearchCost {
        graph_dims: 600 * 48,
        graph_hops: 600,
        heap_pushes: 300,
        segments: 7,
        ..Default::default()
    };
    let costs = [flat, ivf, graph, flat];
    let segments = [20usize, 3, 7, 18];
    let mut actual = Vec::new();
    for policy in PinningPolicy::ALL {
        for replicas in [1usize, 3] {
            for shards in [1usize, 4] {
                let mut h = Fnv::new();
                for sys in [&sys, &tight] {
                    let perf = model.cluster_perf(
                        &costs[..shards],
                        &segments[..shards],
                        sys,
                        10,
                        replicas,
                        policy,
                    );
                    h.word(perf.latency_secs.to_bits());
                    h.word(perf.qps.to_bits());
                }
                actual.push((format!("{} r{replicas} s{shards}", policy.name()), h.0));
            }
        }
    }
    check(PERF, &actual);
}
