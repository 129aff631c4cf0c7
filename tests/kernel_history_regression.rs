//! Bit-level regression gate for the kernel-layer refactor: a fixed-seed
//! tuning run and a per-index evaluation sweep must reproduce the exact
//! histories the workspace produced *before* the SIMD kernel layer and the
//! grouped-storage index refactor landed. The digests below were captured
//! on the pre-refactor tree with the identical setup; if any kernel,
//! storage, or cost-accounting change perturbs a single bit of any
//! observation (config summary, QPS, recall, memory, failure flag), the
//! digest moves and this test fails.
//!
//! Paired with `tests/parallel_determinism.rs` (thread-count invariance)
//! and `crates/vecdata/tests/kernel_bitwise.rs` (per-op bit-identity),
//! this closes the loop: dispatched SIMD == forced scalar == the legacy
//! implementation, end to end.

use vdtuner::core::{TunerOptions, VdTuner};
use vdtuner::prelude::*;
use vdtuner::workload::Evaluator;

/// Captured on the pre-kernel tree (seed 42, 10 iterations, tiny GloVe).
const TUNING_DIGEST: u64 = 0x289a6d216ee7da83;
/// Captured on the pre-kernel tree (seed 11, 7 default configs, floor 0.5).
const PER_INDEX_DIGEST: u64 = 0x5feba684b0c2c3f3;

/// FNV-1a over the little-endian bytes of each part.
fn digest(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in parts {
        for i in 0..8 {
            h ^= (x >> (i * 8)) & 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

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

/// Seed-42, 10-iteration tuning-history digest.
fn tuning_digest() -> u64 {
    let w = tiny_workload();
    let out = VdTuner::new(small_options(), 42).run(&w, 10);
    let mut parts = Vec::new();
    for o in &out.observations {
        parts.extend(o.config.summary().bytes().map(|b| b as u64));
        parts.push(o.qps.to_bits());
        parts.push(o.recall.to_bits());
        parts.push(o.memory_gib.to_bits());
        parts.push(o.failed as u64);
    }
    digest(parts)
}

#[test]
fn tuning_history_matches_pre_kernel_baseline_bitwise() {
    assert_eq!(
        tuning_digest(),
        TUNING_DIGEST,
        "tuning history diverged from the pre-kernel baseline — a kernel, \
         storage, or cost change broke bit-identity"
    );
}

#[test]
fn per_index_evaluation_matches_pre_kernel_baseline_bitwise() {
    let w = tiny_workload();
    let configs: Vec<VdmsConfig> = [
        IndexType::Flat,
        IndexType::IvfFlat,
        IndexType::IvfSq8,
        IndexType::IvfPq,
        IndexType::Scann,
        IndexType::Hnsw,
        IndexType::AutoIndex,
    ]
    .iter()
    .map(|&t| VdmsConfig::default_for(t))
    .collect();
    let mut ev = Evaluator::new(&w, 11);
    ev.observe_batch(&configs, 0.5);
    let mut parts = Vec::new();
    for o in ev.history() {
        parts.push(o.qps.to_bits());
        parts.push(o.recall.to_bits());
        parts.push(o.memory_gib.to_bits());
        parts.push(o.failed as u64);
    }
    assert_eq!(
        digest(parts),
        PER_INDEX_DIGEST,
        "per-index evaluation diverged from the pre-kernel baseline — every \
         index type must score bit-identically through the kernel layer"
    );
}
