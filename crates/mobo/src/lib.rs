//! Multi-objective Bayesian-optimization building blocks.
//!
//! Everything VDTuner's optimization engine (and the qEHVI/OtterTune
//! baselines) need on top of plain GP regression:
//!
//! * [`pareto`] — non-dominated filtering and Pareto ranks (maximization
//!   convention throughout: *larger is better* for every objective),
//! * [`hypervolume`] — exact 2-D hypervolume (the speed × recall objective
//!   space is 2-D) plus the hypervolume *improvement* of a candidate point,
//!   one-shot or against a front prepared once ([`FrontSweep`]),
//! * [`normal`] — standard-normal pdf/cdf via an erf approximation,
//! * [`acquisition`] — analytic Expected Improvement, Monte-Carlo Expected
//!   Hypervolume Improvement (the paper estimates Eq. 4 by MC integration,
//!   following qEHVI), and the constrained EI of Eq. 7,
//! * [`sampling`] — Latin hypercube and uniform sampling in the unit cube,
//! * [`optimize`] — candidate-pool generation and acquisition argmax.

pub mod acquisition;
pub mod hypervolume;
pub mod normal;
pub mod optimize;
pub mod pareto;
pub mod sampling;

pub use acquisition::{
    constrained_ei, ehvi_2d_exact, ehvi_log_speed, ehvi_mc, expected_improvement, mc_mean,
};
pub use hypervolume::{hv2d, hv_improvement_2d, FrontSweep};
pub use pareto::{non_dominated_indices, pareto_ranks};
pub use sampling::{latin_hypercube, uniform_points};
