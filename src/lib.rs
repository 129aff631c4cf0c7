//! # VDTuner — automated performance tuning for vector data management systems
//!
//! This is the facade crate of a full Rust reproduction of
//! *VDTuner: Automated Performance Tuning for Vector Data Management Systems*
//! (ICDE 2024). It re-exports the workspace crates so downstream users can
//! depend on a single crate:
//!
//! * [`vecdata`] — datasets, distances, exact ground truth,
//! * [`anns`] — the seven Milvus index types (FLAT, IVF_FLAT, IVF_SQ8,
//!   IVF_PQ, HNSW, SCANN, AUTOINDEX),
//! * [`vdms`] — the Milvus-like vector data management system simulator,
//!   including the sharded, replicated multi-node serving layer
//!   (`vdms::cluster`: shard placement, replica groups, query routing),
//! * [`workload`] — the vector-db-benchmark-style replay harness and the
//!   evaluation-backend seam (`EvalBackend`: the one `SimBackend`, which
//!   resolves each candidate's placement once — the cluster it requests or
//!   a fixed shape, the single node by default; a tuning space builds the
//!   one that realizes it, `SpaceSpec::backend` — and replays the workload
//!   there, optionally followed by a live-traffic serving phase,
//!   `SimBackend::serving`, on the discrete-event serving simulator in
//!   `workload::serving`),
//! * [`gp`] — Gaussian-process regression,
//! * [`mobo`] — multi-objective Bayesian-optimization building blocks,
//! * [`core`] (package `vdtuner-core`) — the VDTuner algorithm itself,
//! * [`baselines`] — Random/LHS, OpenTuner-, OtterTune-style and qEHVI
//!   baseline tuners.
//!
//! ## Quickstart
//!
//! ```no_run
//! use vdtuner::prelude::*;
//!
//! let spec = DatasetSpec::scaled(DatasetKind::Glove);
//! let workload = Workload::prepare(spec, 10);
//! let mut tuner = VdTuner::new(TunerOptions::default(), 42);
//! let outcome = tuner.run(&workload, 30);
//! println!("best balanced config: {:?}", outcome.best_balanced());
//! ```
#![deny(unsafe_code)]

pub use anns;
pub use baselines;
pub use gp;
pub use mobo;
pub use vdms;
pub use vdtuner_core as core;
pub use vecdata;
pub use workload;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::core::{SpaceSpec, TunerOptions, TuningOutcome, VdTuner};
    pub use anns::params::IndexType;
    pub use vdms::cluster::{ClusterSpec, RoutingPolicy};
    pub use vdms::config::VdmsConfig;
    pub use vecdata::{Dataset, DatasetKind, DatasetSpec};
    pub use workload::{EvalBackend, ServingSpec, ServingStats, SimBackend, Workload};
}
