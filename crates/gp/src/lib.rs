//! Gaussian-process regression, written from scratch.
//!
//! No mature GP/BO crates exist in the offline Rust ecosystem, so this crate
//! implements exactly what VDTuner's surrogate needs (paper §IV-B):
//!
//! * [`linalg`] — dense symmetric linear algebra on a panel-major factor:
//!   Cholesky factorization with jitter, triangular solves,
//!   log-determinants (public: the row-major [`linalg::cholesky_in_place`]),
//! * [`kernel`] — the Matérn 5/2 covariance the paper chooses,
//! * [`inputs`] — a training set with its pairwise distances, computed once
//!   and shared by every likelihood evaluation and every target,
//! * [`gp`] — exact GP posterior (mean/variance) with standardized targets
//!   and the log marginal likelihood; [`Joint`] predicts several models
//!   fitted on the same rows a block of queries at a time,
//! * `opt` (crate-private) — a dependency-free Nelder–Mead simplex
//!   minimizer, an ask/tell state machine,
//! * [`mle`] — maximum-likelihood hyperparameter fitting via multi-start
//!   Nelder–Mead on log-parameters, every target of one training set in
//!   lockstep.
//!
//! Inputs are expected in the unit hypercube (the tuner encodes every
//! configuration that way); targets are standardized internally.

pub mod gp;
pub mod inputs;
pub mod kernel;
pub mod linalg;
pub mod mle;
mod opt;
#[cfg(test)]
mod reference;

pub use gp::{GaussianProcess, Joint, Posterior, BLOCK};
pub use inputs::TrainingInputs;
pub use kernel::{Kernel, Matern52};
pub use mle::{fit_gp, fit_gp_on, FitOptions};
