//! The write-path contracts, stated across crates:
//!
//! * with a zero write rate the write knobs are bit-invisible: any knobs
//!   yield the read-only trace (by property),
//! * the mixed simulator is bit-identical on 1 vs 4 rayon threads,
//! * WAL LSNs are assigned in strictly increasing admission order and
//!   durability is monotone — and backpressure parks or sheds at the
//!   door, never dropping an insert it accepted (by property, against a
//!   synthetic commit schedule),
//! * a 22-dimensional tuning run with the three write dimensions frozen
//!   at [`WriteKnobs::DEFAULT`] reproduces the 19-dimensional pinning run
//!   bit for bit — serial, batched, and under mixed serving composition.

use proptest::prelude::*;
use vdtuner::core::{SpaceSpec, TunerOptions, VdTuner};
use vdtuner::prelude::*;
use vdtuner::vdms::system_params::SystemParams;
use vdtuner::vdms::writepath::{Admission, WalSim, WriteKnobs};
use vdtuner::vdms::{CostModel, PinningPolicy};
use vdtuner::workload::serving::{simulate_pinned, simulate_pinned_mixed, simulate_replicated};
use vdtuner::workload::{TopologyBackend, WriteStats};

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

fn knobs_from(batch: usize, interval: f64, seal: usize) -> WriteKnobs {
    WriteKnobs { wal_batch_rows: batch, flush_interval_secs: interval, seal_rows: seal }.sanitized()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Write-rate→0 contract: with no inserts offered the write knobs
    /// change nothing — the trace is the read-only one bit for bit,
    /// whatever the requested knobs, replica count, policy or seed.
    #[test]
    fn zero_write_rate_is_bitwise_the_read_only_simulator(
        batch in 1usize..1024,
        interval in 0.005f64..0.3,
        seal in 64usize..4096,
        replicas in 1usize..=3,
        policy_ord in 0usize..4,
        seed in 0u64..64,
    ) {
        let knobs = knobs_from(batch, interval, seal);
        let policy = PinningPolicy::from_ordinal(policy_ord);
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 8, ..Default::default() };
        let spec = ServingSpec { arrival_qps: 900.0, requests: 300, ..Default::default() };
        prop_assert!(spec.insert_fraction <= 0.0, "read-only is the default scenario");
        let mixed = simulate_pinned_mixed(
            &model, &sys, 0.004, &spec, seed, replicas, PinningPolicy::Shared, 10, knobs,
        );
        let read_only = simulate_replicated(&model, &sys, 0.004, &spec, seed, replicas);
        prop_assert_eq!(&mixed, &read_only);
        prop_assert_eq!(mixed.writes, WriteStats::default());
        let pinned_mixed = simulate_pinned_mixed(
            &model, &sys, 0.004, &spec, seed, replicas, policy, 10, knobs,
        );
        let pinned = simulate_pinned(&model, &sys, 0.004, &spec, seed, replicas, policy, 10);
        prop_assert_eq!(pinned_mixed, pinned);
    }

    /// The mixed simulator is a pure speedup: for any insert share,
    /// policy and seed, the event trace (write ledger included) is
    /// bit-identical on 1 vs 4 rayon threads.
    #[test]
    fn mixed_serving_trace_is_thread_count_invariant(
        insert_fraction in 0.1f64..1.5,
        policy_ord in 0usize..4,
        replicas in 1usize..=2,
        seed in 0u64..64,
    ) {
        let policy = PinningPolicy::from_ordinal(policy_ord);
        let model = CostModel::default();
        let sys = SystemParams { max_read_concurrency: 8, ..Default::default() };
        let spec = ServingSpec { arrival_qps: 1_200.0, requests: 300, ..Default::default() }
            .with_inserts(insert_fraction);
        let knobs = WriteKnobs { wal_batch_rows: 32, ..WriteKnobs::DEFAULT };
        let run = |threads: usize| {
            with_threads(threads, || {
                simulate_pinned_mixed(
                    &model, &sys, 0.004, &spec, seed, replicas, policy, 10, knobs,
                )
            })
        };
        let one = run(1);
        prop_assert_eq!(&one, &run(4));
        prop_assert!(one.writes.offered > 0);
        prop_assert_eq!(one.writes.accepted + one.writes.shed, one.writes.offered);
    }

    /// Drive the WAL state machine through a synthetic admission/commit
    /// schedule: LSNs are handed out in strictly increasing order
    /// (parked inserts included), durability is monotone in both LSN and
    /// time, and every accepted insert is durable once drained —
    /// backpressure parks and sheds at the door, it never drops.
    #[test]
    fn wal_lsns_are_monotone_and_backpressure_never_drops(
        offers in 1usize..400,
        batch in 1usize..64,
        seal in 1usize..256,
        park_capacity in 0usize..24,
        commit_every in 1usize..37,
    ) {
        let knobs = knobs_from(batch, 0.05, seal);
        let mut wal = WalSim::new(knobs, park_capacity);
        let mut now = 0.0f64;
        let mut last_assigned = 0u64;
        let mut durable_seen = 0u64;
        let mut assigned = 0usize;
        let mut parked_total = 0usize;
        let complete = |wal: &mut WalSim,
                        job: vdtuner::vdms::writepath::FlushJob,
                        now: f64,
                        last_assigned: &mut u64,
                        durable_seen: &mut u64,
                        assigned: &mut usize| {
            let upto = job.upto_lsn;
            wal.record_flush(job, now, now + 1e-4);
            let done = wal.flush_done(upto, now + 1e-4);
            // Un-parked inserts get the next LSNs (half-open range).
            if done.admitted.end > done.admitted.start {
                prop_assert_eq!(done.admitted.start, *last_assigned + 1);
                *last_assigned = done.admitted.end - 1;
            }
            *assigned += (done.admitted.end - done.admitted.start) as usize;
            prop_assert!(wal.durable_lsn() >= *durable_seen, "durability is monotone");
            *durable_seen = wal.durable_lsn();
            Ok(())
        };
        for i in 0..offers {
            now += 1e-3;
            match wal.offer_insert(now) {
                Admission::Admitted { lsn } => {
                    // LSNs are assigned in admission order.
                    prop_assert_eq!(lsn, last_assigned + 1);
                    last_assigned = lsn;
                    assigned += 1;
                }
                Admission::Parked => parked_total += 1,
                Admission::Shed => {}
            }
            if i % commit_every == commit_every - 1 {
                while let Some(job) = wal.full_batch_job() {
                    complete(&mut wal, job, now, &mut last_assigned, &mut durable_seen, &mut assigned)?;
                }
            }
        }
        // End-of-run drain: tick until nothing is pending or parked.
        while let Some(job) = wal.tick_job() {
            now += 1e-3;
            complete(&mut wal, job, now, &mut last_assigned, &mut durable_seen, &mut assigned)?;
        }
        prop_assert!(wal.drained(), "every accepted insert became durable");
        // Every offer was parked or shed at the door, never lost.
        prop_assert_eq!(wal.accepted() + wal.shed(), offers);
        prop_assert_eq!(wal.durable_lsn() as usize, wal.accepted());
        prop_assert!(parked_total >= wal.parked());
        prop_assert!(assigned <= wal.accepted());
        // The flush log answers durability monotonically in LSN.
        let mut prev = 0.0f64;
        for lsn in 1..=wal.last_lsn() {
            let t = wal.durable_time_of(lsn).expect("drained WAL covers every LSN");
            prop_assert!(t >= prev, "durable_time_of is monotone");
            prev = t;
        }
    }
}

/// What `TuningOutcome::fingerprint` strips here: the write-path request
/// differs by construction and is compared separately.
fn sans_write_knobs(c: VdmsConfig) -> VdmsConfig {
    VdmsConfig { writepath: None, ..c }
}

/// Acceptance gate for dimensions 20–22: tuning the 22-dimensional space
/// with the write knobs frozen at the defaults (over the write-path
/// topology backend) yields a history bit-identical to the 19-dimensional
/// pinning spec over the plain pinning backend — the extra constant
/// coordinates change no GP prediction, no acquisition value, no
/// evaluation.
#[test]
fn frozen_write_knobs_reproduce_pinning_tuning_bitwise() {
    let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
    let space19 = || SpaceSpec::with_topology(4).with_replication(2).with_pinning();
    let narrow = VdTuner::with_space(small_options(), space19(), 42)
        .run_on(TopologyBackend::with_pinning(&w, 4, 2), 12);
    let frozen = VdTuner::with_space(
        small_options(),
        space19().with_pinned_writepath(WriteKnobs::DEFAULT),
        42,
    )
    .run_on(TopologyBackend::with_writepath(&w, 4, 2), 12);

    assert_eq!(narrow.fingerprint(sans_write_knobs), frozen.fingerprint(sans_write_knobs));
    // The frozen run really did carry the write dimensions end to end.
    for o in &frozen.observations {
        assert_eq!(o.config.writepath, Some(WriteKnobs::DEFAULT));
    }
    for o in &narrow.observations {
        assert_eq!(o.config.writepath, None);
    }
}

/// Same contract under batched (kriging-believer) proposals and *mixed*
/// serving composition — with real insert traffic in every evaluation, a
/// default-knobs candidate's serving phase is the no-request serving
/// phase bit for bit, write ledger included.
#[test]
fn frozen_write_knobs_reproduce_mixed_serving_tuning_bitwise() {
    let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
    let spec =
        ServingSpec { arrival_qps: 300.0, requests: 300, ..Default::default() }.with_inserts(0.5);
    let space19 = || SpaceSpec::with_topology(2).with_replication(2).with_pinning();
    let narrow = VdTuner::with_space(small_options(), space19(), 7).run_batched_on(
        ServingBackend::new(&w, TopologyBackend::with_pinning(&w, 2, 2), spec),
        10,
        3,
    );
    let frozen = VdTuner::with_space(
        small_options(),
        space19().with_pinned_writepath(WriteKnobs::DEFAULT),
        7,
    )
    .run_batched_on(
        ServingBackend::new(&w, TopologyBackend::with_writepath(&w, 2, 2), spec),
        10,
        3,
    );
    assert_eq!(narrow.fingerprint(sans_write_knobs), frozen.fingerprint(sans_write_knobs));
    // Serving stats (write ledger included) agree bitwise wherever both
    // exist — and the mixed phase really offered inserts.
    let mut saw_writes = false;
    for (a, b) in narrow.observations.iter().zip(&frozen.observations) {
        match (a.serving, b.serving) {
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.p99_latency_secs.to_bits(), sb.p99_latency_secs.to_bits());
                assert_eq!(sa.goodput_qps.to_bits(), sb.goodput_qps.to_bits());
                assert_eq!(sa.writes, sb.writes);
                saw_writes |= sa.writes.offered > 0;
            }
            (a, b) => assert_eq!(a.is_some(), b.is_some()),
        }
    }
    assert!(saw_writes, "the mixed spec must actually exercise the write path");
}

/// Co-tuning end to end: with the write knobs live the tuner proposes
/// valid knob settings, the evaluator accepts every candidate, and the
/// budget explores more than one group-commit batch size.
#[test]
fn co_tuning_explores_write_knobs() {
    let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
    let mut tuner = VdTuner::with_space(
        small_options(),
        SpaceSpec::with_topology(4).with_replication(2).with_pinning().with_writepath(),
        3,
    );
    let out = tuner.run_on(TopologyBackend::with_writepath(&w, 4, 2), 16);
    assert_eq!(out.observations.len(), 16);
    let mut batches = std::collections::BTreeSet::new();
    for o in &out.observations {
        let k = o.config.writepath.expect("co-tuning candidates always request write knobs");
        let k = k.sanitized();
        assert_eq!(k, o.config.writepath.unwrap(), "proposals are already sanitized");
        batches.insert(k.wal_batch_rows);
    }
    assert!(batches.len() > 1, "the tuner must explore the write axis: {batches:?}");
    assert!(out.observations.iter().any(|o| !o.failed));
}
