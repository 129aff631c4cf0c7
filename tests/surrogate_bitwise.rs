//! Bit-level regression gate for the GP surrogate's fit path: a fixed-seed
//! 40-iteration tuning run on the widest (22-dimension) space must
//! reproduce the exact history the workspace produced *before*
//! `crates/gp` hoisted the pairwise distances, moved the likelihood search
//! into a reused workspace and row-blocked the Cholesky. The digest below
//! was captured on that earlier tree with the identical setup.
//!
//! `tests/kernel_history_regression.rs` pins a 10-iteration run, of which
//! only three proposals are surrogate-driven. Here 33 are, the training
//! set grows from 7 to 39 rows — through every `n mod 4` remainder of the
//! row-blocked factorization several times — and every proposal depends on
//! the two fitted hyperparameter triples, the log marginal likelihoods
//! that ranked them and thousands of posterior predictions. One flipped
//! bit anywhere in `gp` moves a proposal and with it the digest.

use vdtuner::core::{SpaceSpec, TunerOptions, VdTuner};
use vdtuner::prelude::*;

/// Captured on the pre-fast-path tree (seed 42, 40 iterations, 22
/// dimensions, tiny GloVe, the backend the space realizes).
const SURROGATE_DIGEST: u64 = 0x7884c10d7a4dd5e7;

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

#[test]
fn wide_space_history_matches_pre_fast_path_baseline_bitwise() {
    let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
    let space = SpaceSpec::with_topology(4).with_replication(4).with_pinning().with_writepath();
    assert_eq!(space.dims(), 22);
    let out = VdTuner::with_space(small_options(), space, 42).run(&w, 40);
    assert_eq!(out.observations.len(), 40);
    let mut parts = Vec::new();
    for o in &out.observations {
        parts.extend(o.config.summary().bytes().map(|b| b as u64));
        parts.push(o.qps.to_bits());
        parts.push(o.recall.to_bits());
        parts.push(o.memory_gib.to_bits());
        parts.push(o.failed as u64);
    }
    assert_eq!(
        digest(parts),
        SURROGATE_DIGEST,
        "22-dimension tuning history diverged from the pre-fast-path baseline — \
         a change in crates/gp (distances, kernel matrix, Cholesky, solves or \
         prediction) is no longer bit-identical"
    );
}
