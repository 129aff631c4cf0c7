//! Gaussian-process regression, written from scratch.
//!
//! No mature GP/BO crates exist in the offline Rust ecosystem, so this crate
//! implements exactly what VDTuner's surrogate needs (paper §IV-B):
//!
//! * [`linalg`] — dense symmetric linear algebra: Cholesky factorization
//!   with jitter, triangular solves, log-determinants,
//! * [`kernel`] — the Matérn 5/2 covariance the paper chooses (with RBF as
//!   an alternative for ablations),
//! * [`inputs`] — a training set with its pairwise distances, computed once
//!   and shared by every likelihood evaluation and every target,
//! * [`gp`] — exact GP posterior (mean/variance) with standardized targets
//!   and the log marginal likelihood,
//! * [`opt`] — a dependency-free Nelder–Mead simplex minimizer (also reused
//!   by the OpenTuner baseline),
//! * [`mle`] — maximum-likelihood hyperparameter fitting via multi-start
//!   Nelder–Mead on log-parameters.
//!
//! Inputs are expected in the unit hypercube (the tuner encodes every
//! configuration that way); targets are standardized internally.
#![deny(unsafe_code)]

pub mod gp;
pub mod inputs;
pub mod kernel;
pub mod linalg;
pub mod mle;
pub mod opt;
#[cfg(test)]
mod reference;

pub use gp::{GaussianProcess, Posterior};
pub use inputs::TrainingInputs;
pub use kernel::{Kernel, Matern52, Rbf};
pub use mle::{fit_gp, fit_gp_on, FitOptions};
