//! Serial vs batched-parallel evaluation wall-clock on the scaled Glove
//! workload: the evidence for the PR's ≥2× batched-evaluation claim on
//! multi-core hosts (on a single-core host the two paths tie, since the
//! rayon shim degrades to a serial loop).
//!
//! The candidate list is fixed up front (30 LHS configurations, a
//! 30-iteration tuning budget), so both paths measure pure evaluation
//! cost — no tuner recommendation time. Before timing anything, the
//! harness asserts the two paths produce bit-identical observation
//! histories.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use mobo::sampling::latin_hypercube;
use vdms::VdmsConfig;
use vdtuner_core::SpaceSpec;
use vecdata::{DatasetKind, DatasetSpec};
use workload::{Evaluator, Workload};

const ITERATIONS: usize = 30;
const BATCH_Q: usize = 4;

fn fixed_candidates() -> Vec<VdmsConfig> {
    let space = SpaceSpec::legacy();
    latin_hypercube(ITERATIONS, 16, 0xBA7C)
        .iter()
        .map(|u| space.decode(u).expect("16 coordinates"))
        .collect()
}

fn run_serial(workload: &Workload, configs: &[VdmsConfig]) -> Vec<(u64, u64)> {
    let mut ev = Evaluator::new(workload, 1);
    for c in configs {
        ev.observe(c, 0.0);
    }
    ev.history().iter().map(|o| (o.qps.to_bits(), o.recall.to_bits())).collect()
}

fn run_batched(workload: &Workload, configs: &[VdmsConfig], q: usize) -> Vec<(u64, u64)> {
    let mut ev = Evaluator::new(workload, 1);
    for chunk in configs.chunks(q) {
        ev.observe_batch(chunk, 0.0);
    }
    ev.history().iter().map(|o| (o.qps.to_bits(), o.recall.to_bits())).collect()
}

fn bench_batch_eval(c: &mut Criterion) {
    let workload = Workload::prepare(DatasetSpec::scaled(DatasetKind::Glove), 10);
    let configs = fixed_candidates();

    // Correctness gate: batching must not change a single bit of history.
    let serial_history = run_serial(&workload, &configs);
    let batched_history = run_batched(&workload, &configs, BATCH_Q);
    assert_eq!(
        serial_history, batched_history,
        "batched evaluation must be bit-identical to serial"
    );

    let mut g = c.benchmark_group("glove_scaled_30iter");
    g.sample_size(10);
    g.bench_function("serial_q1", |b| {
        b.iter_batched(|| (), |()| run_serial(&workload, &configs), BatchSize::LargeInput)
    });
    g.bench_function(&format!("batched_q{BATCH_Q}"), |b| {
        b.iter_batched(|| (), |()| run_batched(&workload, &configs, BATCH_Q), BatchSize::LargeInput)
    });
    g.finish();
}

criterion_group! {
    name = batch_benches;
    config = Criterion::default().sample_size(10);
    targets = bench_batch_eval
}
criterion_main!(batch_benches);
