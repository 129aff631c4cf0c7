//! A Milvus-like vector data management system (VDMS) **simulator**.
//!
//! The VDTuner paper tunes Milvus 2.3.1 on a 72-core server. This crate is
//! the documented substitution (ARCHITECTURE.md, "What is real and what is
//! modelled"): it reproduces the *mechanisms* that make VDMS tuning hard —
//! segment lifecycle (growing vs sealed), per-segment index builds,
//! scatter-gather search, bounded-consistency stalls, buffer sizing — while
//! producing **deterministic** performance numbers from an analytic cost
//! model:
//!
//! * **Recall is real.** Searches execute the actual ANNS algorithms from
//!   the `anns` crate (growing segments are brute-force scanned exactly as
//!   in Milvus), so the recall axis of every experiment is measured, not
//!   modeled.
//! * **Search speed is modeled.** Each search reports deterministic
//!   operation counts ([`anns::SearchCost`]); [`cost_model`] converts them
//!   into per-query latency and QPS using fixed per-operation costs plus
//!   the system-parameter effects (concurrency, chunking, gracefulTime).
//!
//! Modules:
//! * [`system_params`] — the 7 tunable system parameters and their ranges,
//! * [`config`] — a full VDMS configuration (index type + index params +
//!   system params), the unit the tuner optimizes,
//! * [`segment`] — segment layout planning from the system parameters,
//! * [`collection`] — a loaded collection: sealed segment indexes plus a
//!   growing tail, with scatter-gather top-k search,
//! * [`cluster`] — the same collection partitioned across simulated query
//!   nodes with per-shard memory budgets behind a scatter-gather proxy,
//! * [`cost_model`] — counts → latency/QPS/build-time,
//! * [`topology`] — host shape, reactor pinning policies, and the NUMA/SMT
//!   penalty surface the cost model charges,
//! * [`writepath`] — the WAL group-commit + segment seal/compaction state
//!   machine the mixed read/write serving simulator drives,
//! * [`memory`] — resident + peak memory accounting (for QP$ tuning),
//! * [`error`] — build/evaluation failure semantics.

pub mod cluster;
pub mod collection;
pub mod config;
pub mod cost_model;
pub mod error;
pub mod memory;
pub mod segment;
pub mod system_params;
pub mod topology;
pub mod writepath;

pub use cluster::{ClusterSpec, ShardedCollection};
pub use collection::Collection;
pub use config::VdmsConfig;
pub use cost_model::{CostModel, QueryPerf};
pub use error::VdmsError;
pub use segment::SegmentLayout;
pub use system_params::SystemParams;
pub use topology::{CalibrationSource, HostTopology, PenaltyMatrix, PinningPolicy};
pub use writepath::{FlushReason, WalSim, WriteKnobs};
