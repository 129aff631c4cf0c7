//! Approximate nearest-neighbor search (ANNS) index library.
//!
//! From-scratch Rust implementations of the seven index types Milvus exposes
//! and the VDTuner paper tunes (Table I):
//!
//! | Index       | Family            | Build params          | Search params        |
//! |-------------|-------------------|-----------------------|----------------------|
//! | `FLAT`      | exhaustive        | —                     | —                    |
//! | `IVF_FLAT`  | quantization (IVF)| `nlist`               | `nprobe`             |
//! | `IVF_SQ8`   | quantization      | `nlist`               | `nprobe`             |
//! | `IVF_PQ`    | quantization      | `nlist`, `m`, `nbits` | `nprobe`             |
//! | `HNSW`      | graph             | `M`, `efConstruction` | `ef`                 |
//! | `SCANN`     | quantization      | `nlist`               | `nprobe`, `reorder_k`|
//! | `AUTOINDEX` | heuristic default | —                     | —                    |
//!
//! FLAT is [`flat::FlatIndex`] and HNSW [`hnsw::HnswIndex`]; the five
//! k-means-family types are one [`ivf::IvfIndex`] over one list build
//! ([`ivf::IvfLists::build`]), whose rows are raw vectors, SQ8 codes
//! ([`ivf_sq8::ScalarQuantizer`]) or PQ codes ([`ivf_pq::ProductQuantizer`]).
//! [`AnnIndex::build`] builds any of them.
//!
//! Every search reports a [`cost::SearchCost`]: deterministic counts of the
//! work performed (full-precision distance dims, quantized dims, PQ table
//! lookups, graph hops). The VDMS simulator turns those counts into latency
//! and QPS through its cost model, which is what makes the reproduction's
//! "search speed" axis deterministic while the *recall* axis is measured for
//! real against exact ground truth.

pub mod cost;
pub mod flat;
pub mod hnsw;
pub mod index;
pub mod ivf;
pub mod ivf_pq;
pub mod ivf_sq8;
pub mod kmeans;
pub mod params;

pub use cost::{BuildStats, SearchCost};
pub use index::{AnnIndex, BuildError, VectorIndex};
pub use params::{IndexParams, IndexType, SearchParams};
