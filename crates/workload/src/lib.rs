//! Workload generation and replay — the reproduction's equivalent of
//! qdrant's `vector-db-benchmark` used in §V-A of the paper.
//!
//! A [`Workload`] owns a generated dataset, its exact ground truth (top-100
//! by default, as in the paper) and the cost model (10 concurrent clients).
//! [`replay::evaluate`] measures one [`vdms::VdmsConfig`] on the paper's
//! single node: it loads a collection, replays every query, and reports QPS
//! (modeled), recall (measured), memory (accounted) and the simulated replay
//! seconds — enforcing the paper's 15-minute cap.
//!
//! [`runner::Evaluator`] adds the bookkeeping every tuner needs: failed
//! configurations are fed back with worst-in-history values (§V-A),
//! evaluations are cached, and per-iteration timing (recommendation
//! wall-clock vs simulated replay) is recorded for Table VI.
//!
//! The evaluator is generic over an [`backend::EvalBackend`] — the thing
//! that actually measures a configuration. [`backend::SimBackend`] is the
//! simulator (`vdms::cluster`): it resolves each candidate's
//! [`backend::Placement`] once — a fixed cluster shape, the single node by
//! default, or, for deployment co-tuning, whatever cluster, pinning and
//! write path the candidate requests up to its ceilings — and replays the
//! workload there. With a serving phase ([`backend::SimBackend::serving`])
//! it additionally *exercises* the configuration on that placement with a
//! live open-loop serving simulation ([`serving`]) — tail latency, bounded
//! queues, SLO-aware tuning; a live Milvus/qdrant driver would implement
//! the same trait.
#![deny(unsafe_code)]

pub mod backend;
pub mod replay;
pub mod runner;
pub mod serving;
pub mod tuner;

#[cfg(test)]
mod noise_tests;

pub use backend::{
    BackendInfo, DeploymentKnobs, EvalBackend, Placement, ServingBackend, SimBackend,
    TopologyBackend,
};
pub use replay::{evaluate, Outcome};
pub use runner::{Evaluator, Observation};
pub use serving::{ServingSpec, ServingStats, ServingTrace, WriteStats};
pub use tuner::{run_tuner, Tuner};

use vdms::cost_model::CostModel;
use vecdata::{ground_truth, Dataset, DatasetSpec};

/// A prepared benchmark workload: dataset + exact ground truth + cost model.
#[derive(Debug)]
pub struct Workload {
    pub dataset: Dataset,
    pub ground_truth: Vec<Vec<u32>>,
    pub top_k: usize,
    pub cost_model: CostModel,
}

impl Workload {
    /// Generate the dataset and compute exact ground truth for `top_k`.
    ///
    /// The paper uses top-100 with 10 concurrent clients; callers that want
    /// those exact settings can use [`Workload::paper_default`].
    pub fn prepare(spec: DatasetSpec, top_k: usize) -> Workload {
        let dataset = spec.generate();
        let ground_truth = ground_truth::ground_truth(&dataset, top_k);
        Workload { dataset, ground_truth, top_k, cost_model: CostModel::default() }
    }

    /// The paper's workload settings: top-100 similar vectors, 10 clients.
    pub fn paper_default(spec: DatasetSpec) -> Workload {
        Workload::prepare(spec, 100.min(spec.n / 10).max(10))
    }

    /// Mean recall of retrieved id lists against the exact ground truth.
    pub fn mean_recall(&self, results: &[Vec<u32>]) -> f64 {
        assert_eq!(results.len(), self.ground_truth.len());
        let total: f64 = results
            .iter()
            .zip(&self.ground_truth)
            .map(|(got, exact)| ground_truth::recall(got, exact))
            .sum();
        total / results.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vecdata::{DatasetKind, DatasetSpec};

    #[test]
    fn prepare_builds_ground_truth() {
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
        assert_eq!(w.ground_truth.len(), w.dataset.n_queries());
        assert!(w.ground_truth.iter().all(|g| g.len() == 10));
    }

    #[test]
    fn mean_recall_of_ground_truth_is_one() {
        let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 5);
        let perfect = w.ground_truth.clone();
        assert!((w.mean_recall(&perfect) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_default_caps_top_k() {
        let w = Workload::paper_default(DatasetSpec::tiny(DatasetKind::Glove)); // n=600
        assert_eq!(w.top_k, 60);
        assert_eq!(w.cost_model.workload_concurrency, 10);
    }
}
