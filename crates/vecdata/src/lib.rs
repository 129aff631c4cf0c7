//! Vector-data substrate for the VDTuner reproduction.
//!
//! This crate provides everything "below" the ANNS indexes:
//!
//! * [`kernel`] — runtime-dispatched distance kernels (scalar / AVX2) that
//!   are bit-identical to the scalar reference,
//! * [`distance`] — distance metrics (L2, inner product, angular/cosine)
//!   with the flat-slice layout used across the workspace, routed through
//!   the active kernel,
//! * [`dataset`] — deterministic synthetic dataset generators that mimic the
//!   statistical signatures of the datasets evaluated in the VDTuner paper
//!   (GloVe, Keyword-match, Geo-radius, ArXiv-titles, deep-image),
//! * [`mod@ground_truth`] — exact top-K computation used for recall
//!   measurement,
//! * [`rng`] — small deterministic RNG utilities so every experiment is
//!   reproducible from a single seed.
//!
//! All vectors are stored in a single flat `Vec<f32>` (row-major); this keeps
//! the data cache-friendly and avoids per-vector allocations.

pub mod dataset;
pub mod distance;
pub mod ground_truth;
#[allow(
    unsafe_code,
    reason = "the SIMD bodies and their detection-gated dispatch: the one place outside `bench::affinity` that may use `unsafe`"
)]
pub mod kernel;
pub mod rng;

pub use dataset::{Dataset, DatasetKind, DatasetSpec};
pub use distance::Metric;
pub use ground_truth::{ground_truth, Neighbor};
