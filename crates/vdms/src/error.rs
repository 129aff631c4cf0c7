//! Failure semantics.
//!
//! The paper (§V-A) caps each workload replay at 15 minutes and treats
//! configurations that exceed the cap — or crash the VDMS — as failed,
//! feeding the tuner worst-in-history values. These are the corresponding
//! error conditions in the simulator.

use anns::index::BuildError;

/// Why loading or evaluating a configuration failed.
#[derive(Debug, Clone, PartialEq)]
pub enum VdmsError {
    /// An index build was rejected (invalid parameter combination) — the
    /// simulator's equivalent of a server crash on bad config.
    Build(BuildError),
    /// Simulated build + replay time exceeded the 15-minute cap.
    ReplayTimeout { simulated_seconds: f64 },
    /// The configuration exceeds the memory budget of the testbed
    /// (125 GB in Table II; scaled in the simulator).
    OutOfMemory { required_gib: f64, budget_gib: f64 },
    /// No query node of a sharded cluster could host a segment within its
    /// per-shard budget: the configuration may fit the aggregate cluster
    /// memory but not any single node's share, even after rebalancing.
    ShardOutOfMemory { shard: usize, required_gib: f64, budget_gib: f64 },
    /// The candidate requests a deployment the backend cannot realize on
    /// dimension `dim` (`"shards"`, `"replicas"`, `"pinning"` or
    /// `"write path"`): `asked` is the request, `ceiling` what the backend
    /// realizes there — at most the ceiling of a dimension it tunes, only
    /// the fixed value of one it does not. Refusing, instead of clamping or
    /// falling back, keeps the recorded deployment honest: the tuner and
    /// the evaluator's cache never see a deployment silently substituted by
    /// another.
    Unrealizable { dim: &'static str, asked: String, ceiling: String },
    /// The configuration served the workload but violated the operator's
    /// serving-level objective: p99 latency above the SLO, or more than
    /// the tolerated fraction of requests shed from a full queue. Like a
    /// budget rejection or an unrealizable deployment, the config is
    /// recorded as a failed observation — the tuner optimizes QPS@recall
    /// *subject to* the SLO.
    SloViolation { p99_secs: f64, slo_secs: f64, shed: usize },
}

impl std::fmt::Display for VdmsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VdmsError::Build(e) => write!(f, "index build failed: {e}"),
            VdmsError::ReplayTimeout { simulated_seconds } => {
                write!(f, "replay exceeded time cap ({simulated_seconds:.0}s simulated)")
            }
            VdmsError::OutOfMemory { required_gib, budget_gib } => {
                write!(f, "out of memory: {required_gib:.1} GiB > {budget_gib:.1} GiB budget")
            }
            VdmsError::ShardOutOfMemory { shard, required_gib, budget_gib } => {
                write!(
                    f,
                    "shard {shard} out of memory: {required_gib:.1} GiB > {budget_gib:.1} GiB \
                     per-shard budget (no node can host the placement)"
                )
            }
            VdmsError::Unrealizable { dim, asked, ceiling } => {
                write!(
                    f,
                    "{dim} unrealizable: candidate requests {asked} but the backend realizes \
                     {ceiling}"
                )
            }
            VdmsError::SloViolation { p99_secs, slo_secs, shed } => {
                // Either condition (tail or shed tolerance) can trip the
                // SLO; state the measurements without claiming which did.
                write!(
                    f,
                    "SLO violation: p99 latency {:.1} ms (SLO {:.1} ms), {shed} requests shed",
                    p99_secs * 1_000.0,
                    slo_secs * 1_000.0
                )
            }
        }
    }
}

impl std::error::Error for VdmsError {}

impl From<BuildError> for VdmsError {
    fn from(e: BuildError) -> Self {
        VdmsError::Build(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = VdmsError::ReplayTimeout { simulated_seconds: 1000.0 };
        assert!(e.to_string().contains("1000"));
        let e =
            VdmsError::Unrealizable { dim: "shards", asked: "1".into(), ceiling: "only 4".into() };
        let want = "shards unrealizable: candidate requests 1 but the backend realizes only 4";
        assert_eq!(e.to_string(), want);
        let e: VdmsError = BuildError::EmptySegment.into();
        assert!(matches!(e, VdmsError::Build(_)));
    }
}
