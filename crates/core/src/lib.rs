//! **VDTuner** — the paper's primary contribution.
//!
//! A learning-based performance-tuning framework for vector data management
//! systems that maximizes search speed and recall rate simultaneously via
//! multi-objective Bayesian optimization, with three specializations over
//! vanilla MOBO (paper §IV):
//!
//! 1. a **holistic BO model** over the union of every index type's
//!    parameters plus the shared system parameters ([`space`]) — the space
//!    is declarative ([`SpaceSpec`]): dimensions are data, and extensions
//!    like the serving-topology knob ([`space::SHARD_COUNT_DIM_NAME`])
//!    plug in without touching the pipeline,
//! 2. a **polling surrogate** that trains the GP on per-index-type
//!    normalized performance improvement (NPI, Eq. 2–3) and recommends a
//!    configuration for one polled index type per iteration ([`npi`],
//!    [`tuner`]),
//! 3. **successive abandon** budget allocation: index types are scored by
//!    their hypervolume influence (Eq. 5–6) and the persistently worst one
//!    is dropped ([`abandon`]).
//!
//! Scalability features from §V-E are included: the **constraint model**
//! (CEI, Eq. 7) with **bootstrapping** for user recall preferences
//! ([`tuner`]), the **cost-effectiveness** objective QP$ (Eq. 8), and a
//! Shapley-value attribution of parameters to objectives ([`shap`],
//! Fig. 13b).

pub mod abandon;
pub mod history;
pub mod npi;
pub mod shap;
pub mod space;
pub mod tuner;

pub use history::TuningOutcome;
pub use space::{Dimension, DimensionKind, SpaceError, SpaceSpec};
pub use tuner::{BudgetAllocation, SurrogateKind, TunerMode, TunerOptions, VdTuner};
