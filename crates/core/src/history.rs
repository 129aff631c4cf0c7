//! Tuning outcomes and report helpers (the quantities the paper's tables
//! and figures are built from).

use crate::abandon::ScoreRow;
use crate::npi::balanced_base;
use crate::space::SpaceSpec;
use mobo::pareto::{non_dominated_indices, pareto_ranks};
use vdms::VdmsConfig;
use workload::{runner, EvalBackend, Evaluator, Observation};

/// Everything a finished tuning run produced.
#[derive(Debug, Clone)]
pub struct TuningOutcome {
    /// Tuner display name.
    pub tuner: String,
    /// All evaluations, in order.
    pub observations: Vec<Observation>,
    /// Per-iteration index-type scores (Figure 9); empty for baselines.
    pub score_trace: Vec<ScoreRow>,
    /// Total simulated replay seconds (Table VI).
    pub total_replay_secs: f64,
    /// Total wall-clock recommendation seconds (Table VI).
    pub total_recommend_secs: f64,
}

impl TuningOutcome {
    /// Package an evaluator's records (over any evaluation backend).
    pub fn from_evaluator<B: EvalBackend>(
        tuner: String,
        evaluator: &Evaluator<B>,
        score_trace: Vec<ScoreRow>,
    ) -> TuningOutcome {
        TuningOutcome {
            tuner,
            observations: evaluator.history().to_vec(),
            score_trace,
            total_replay_secs: evaluator.total_replay_secs,
            total_recommend_secs: evaluator.total_recommend_secs,
        }
    }

    /// Bit-level fingerprint of the history: per observation, the summary
    /// of `strip(config)` plus the exact feedback bits. Two runs are the
    /// same tuning history iff their fingerprints are equal; `strip` clears
    /// the request field that differs by construction (e.g. `replicas` when
    /// holding a frozen 18-dim run against the 17-dim one), `|c| c` none.
    pub fn fingerprint(
        &self,
        strip: impl Fn(VdmsConfig) -> VdmsConfig,
    ) -> Vec<(String, u64, u64, u64, bool)> {
        self.observations
            .iter()
            .map(|o| {
                let base = strip(o.config).summary();
                (base, o.qps.to_bits(), o.recall.to_bits(), o.memory_gib.to_bits(), o.failed)
            })
            .collect()
    }

    /// Indices of the non-dominated observations (speed × recall).
    pub fn pareto_indices(&self) -> Vec<usize> {
        let ys: Vec<[f64; 2]> = self.observations.iter().map(|o| [o.qps, o.recall]).collect();
        non_dominated_indices(&ys)
    }

    /// Pareto rank per observation (Figure 10 marker sizes).
    pub fn pareto_rank_per_obs(&self) -> Vec<usize> {
        let ys: Vec<[f64; 2]> = self.observations.iter().map(|o| [o.qps, o.recall]).collect();
        pareto_ranks(&ys)
    }

    /// The most balanced non-dominated observation (Eq. 3 applied to the
    /// whole run) — the single configuration VDTuner would hand the user.
    pub fn best_balanced(&self) -> Option<&Observation> {
        let ys: Vec<[f64; 2]> = self.observations.iter().map(|o| [o.qps, o.recall]).collect();
        if ys.is_empty() {
            return None;
        }
        let base = balanced_base(&ys);
        self.observations.iter().find(|o| o.qps == base.speed && o.recall == base.recall)
    }

    /// Best QPS among observations meeting the recall floor (Figures 6–8;
    /// [`runner::best_qps_with_recall`]).
    pub fn best_qps_with_recall(&self, min_recall: f64) -> Option<f64> {
        runner::best_qps_with_recall(&self.observations, min_recall)
    }

    /// Best-so-far QPS curve under a recall floor (Figure 7;
    /// [`runner::qps_curve`]).
    pub fn qps_curve(&self, min_recall: f64) -> Vec<f64> {
        runner::qps_curve(&self.observations, min_recall)
    }

    /// Best cost-effectiveness (QP$) under a recall floor (Figure 13a).
    pub fn best_qpd_with_recall(&self, min_recall: f64) -> Option<f64> {
        self.observations
            .iter()
            .filter(|o| !o.failed && o.recall >= min_recall)
            .map(|o| o.cost_effectiveness())
            .fold(None, |acc, q| Some(acc.map_or(q, |a: f64| a.max(q))))
    }

    /// Table IV's improvement definition: the maximum enhancement in one
    /// metric *without sacrificing* the other, relative to the default
    /// configuration's performance `(qps_d, recall_d)`. Returns
    /// `(speed_improvement, recall_improvement)` as fractions.
    pub fn improvement_over_default(&self, qps_d: f64, recall_d: f64) -> (f64, f64) {
        let speed_best = self
            .observations
            .iter()
            .filter(|o| !o.failed && o.recall >= recall_d)
            .map(|o| o.qps)
            .fold(qps_d, f64::max);
        let recall_best = self
            .observations
            .iter()
            .filter(|o| !o.failed && o.qps >= qps_d)
            .map(|o| o.recall)
            .fold(recall_d, f64::max);
        (speed_best / qps_d - 1.0, recall_best / recall_d - 1.0)
    }

    /// Normalized parameter values per iteration (Figure 11) in the
    /// paper's 16-dimensional space: one row per observation. For runs over
    /// an extended space use [`TuningOutcome::param_trace_in`].
    pub fn param_trace(&self) -> Vec<Vec<f64>> {
        self.param_trace_in(SpaceSpec::legacy_ref())
    }

    /// Normalized parameter values per iteration under `space`: one row per
    /// observation, `space.dims()` unit-interval coordinates each.
    pub fn param_trace_in(&self, space: &SpaceSpec) -> Vec<Vec<f64>> {
        self.observations.iter().map(|o| space.encode(&o.config)).collect()
    }

    /// Mean memory usage over successful observations (Figure 13 analysis).
    pub fn memory_mean_std(&self) -> (f64, f64) {
        let mems: Vec<f64> =
            self.observations.iter().filter(|o| !o.failed).map(|o| o.memory_gib).collect();
        if mems.is_empty() {
            return (0.0, 0.0);
        }
        let mean = mems.iter().sum::<f64>() / mems.len() as f64;
        let var = mems.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / mems.len() as f64;
        (mean, var.sqrt())
    }

    /// Lowest p99 serving latency among successful observations meeting
    /// the recall floor — the serving-side headline next to
    /// [`TuningOutcome::best_qps_with_recall`]. `None` when no successful
    /// observation carries serving stats (offline runs).
    pub fn best_p99_with_recall(&self, min_recall: f64) -> Option<f64> {
        self.observations
            .iter()
            .filter(|o| !o.failed && o.recall >= min_recall)
            .filter_map(|o| o.serving.map(|s| s.p99_latency_secs))
            .fold(None, |acc, p| Some(acc.map_or(p, |a: f64| a.min(p))))
    }

    /// Failed observations that carry serving stats — in a serving-tuned
    /// run these are exactly the SLO rejections (offline failures never
    /// reach the serving phase), the analogue of the budget/space
    /// rejection counts in the sharding/topology reports.
    pub fn slo_rejections(&self) -> usize {
        self.observations.iter().filter(|o| o.failed && o.serving.is_some()).count()
    }

    /// Iterations needed to first reach `target_qps` under a recall floor —
    /// the tuning-efficiency metric behind Figure 7's speedup claims.
    pub fn iterations_to_reach(&self, target_qps: f64, min_recall: f64) -> Option<usize> {
        let curve = self.qps_curve(min_recall);
        curve.iter().position(|&q| q >= target_qps).map(|i| i + 1)
    }

    /// Tuning seconds (simulated replay + wall-clock recommendation) until
    /// `target_qps` is first reached.
    pub fn secs_to_reach(&self, target_qps: f64, min_recall: f64) -> Option<f64> {
        let mut best = 0.0f64;
        let mut elapsed = 0.0;
        for o in &self.observations {
            elapsed += o.replay_secs + o.recommend_secs;
            if !o.failed && o.recall >= min_recall {
                best = best.max(o.qps);
            }
            if best >= target_qps {
                return Some(elapsed);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(iter: usize, qps: f64, recall: f64) -> Observation {
        Observation {
            iter,
            config: VdmsConfig::default_config(),
            qps,
            recall,
            memory_gib: 4.0,
            failed: false,
            replay_secs: 100.0,
            recommend_secs: 1.0,
            serving: None,
        }
    }

    fn with_p99(mut o: Observation, p99: f64) -> Observation {
        o.serving = Some(workload::ServingStats {
            offered_qps: 100.0,
            achieved_qps: 100.0,
            goodput_qps: 100.0,
            p50_latency_secs: p99 / 2.0,
            p95_latency_secs: p99 * 0.9,
            p99_latency_secs: p99,
            max_queue_depth: 1,
            completed: 100,
            shed: 0,
            timeouts: 0,
            makespan_secs: 1.0,
            writes: workload::WriteStats::default(),
        });
        o
    }

    fn outcome(data: &[(f64, f64)]) -> TuningOutcome {
        TuningOutcome {
            tuner: "T".into(),
            observations: data.iter().enumerate().map(|(i, &(q, r))| obs(i, q, r)).collect(),
            score_trace: Vec::new(),
            total_replay_secs: 0.0,
            total_recommend_secs: 0.0,
        }
    }

    #[test]
    fn stripped_histories_compare_bitwise() {
        let mut a = outcome(&[(100.0, 0.5), (80.0, 0.95)]);
        let b = a.clone();
        a.observations[1].config.replicas = Some(2);
        // The differing request shows up unstripped and vanishes stripped.
        assert_ne!(a.fingerprint(|c| c), b.fingerprint(|c| c));
        let strip = |c| VdmsConfig { replicas: None, ..c };
        assert_eq!(a.fingerprint(strip), b.fingerprint(strip));
        // Feedback is compared by bits, not by value: -0.0 == 0.0 but differs.
        a.observations[0].memory_gib = 0.0;
        let mut c = a.clone();
        c.observations[0].memory_gib = -0.0;
        assert_ne!(a.fingerprint(strip), c.fingerprint(strip));
        let print = a.fingerprint(strip);
        assert_eq!(print.len(), 2);
        assert_eq!(print[0].1, 100.0f64.to_bits());
        assert!(!print[0].4);
    }

    #[test]
    fn best_qps_with_recall_filters() {
        let out = outcome(&[(100.0, 0.5), (80.0, 0.95), (60.0, 0.99)]);
        assert_eq!(out.best_qps_with_recall(0.9), Some(80.0));
        assert_eq!(out.best_qps_with_recall(0.99), Some(60.0));
        assert_eq!(out.best_qps_with_recall(0.999), None);
    }

    #[test]
    fn qps_curve_monotone_nondecreasing() {
        let out = outcome(&[(50.0, 0.95), (200.0, 0.5), (100.0, 0.95), (90.0, 0.96)]);
        let curve = out.qps_curve(0.9);
        assert_eq!(curve, vec![50.0, 50.0, 100.0, 100.0]);
    }

    #[test]
    fn improvement_over_default_matches_table_iv_definition() {
        // Default: 100 qps @ 0.8 recall. Run found 120 qps @ 0.85 (speed
        // gain without recall sacrifice) and 105 qps @ 0.9 (recall gain
        // without speed sacrifice).
        let out = outcome(&[(120.0, 0.85), (105.0, 0.9), (500.0, 0.2)]);
        let (ds, dr) = out.improvement_over_default(100.0, 0.8);
        assert!((ds - 0.2).abs() < 1e-9);
        assert!((dr - 0.125).abs() < 1e-9);
    }

    #[test]
    fn improvement_never_negative() {
        let out = outcome(&[(10.0, 0.1)]);
        let (ds, dr) = out.improvement_over_default(100.0, 0.8);
        assert_eq!(ds, 0.0);
        assert_eq!(dr, 0.0);
    }

    #[test]
    fn iterations_to_reach_counts_from_one() {
        let out = outcome(&[(50.0, 0.95), (100.0, 0.95), (150.0, 0.95)]);
        assert_eq!(out.iterations_to_reach(100.0, 0.9), Some(2));
        assert_eq!(out.iterations_to_reach(1000.0, 0.9), None);
    }

    #[test]
    fn secs_to_reach_accumulates_time() {
        let out = outcome(&[(50.0, 0.95), (100.0, 0.95)]);
        let secs = out.secs_to_reach(100.0, 0.9).unwrap();
        assert!((secs - 202.0).abs() < 1e-9);
    }

    #[test]
    fn best_balanced_is_on_front() {
        let out = outcome(&[(100.0, 0.5), (60.0, 0.9), (10.0, 0.99)]);
        let b = out.best_balanced().unwrap();
        assert_eq!(b.qps, 60.0);
    }

    #[test]
    fn serving_helpers_filter_on_slo_and_recall() {
        let mut out = outcome(&[(100.0, 0.95), (200.0, 0.95), (300.0, 0.5)]);
        out.observations[0] = with_p99(out.observations[0].clone(), 0.010);
        out.observations[1] = with_p99(out.observations[1].clone(), 0.040);
        out.observations[2] = with_p99(out.observations[2].clone(), 0.001);
        // Lowest p99 above the recall floor (the 0.001 obs misses recall).
        assert_eq!(out.best_p99_with_recall(0.9), Some(0.010));
        // Observations without serving stats have no p99.
        let offline = outcome(&[(100.0, 0.95)]);
        assert_eq!(offline.best_p99_with_recall(0.0), None);
    }

    #[test]
    fn slo_rejections_count_failed_served_observations() {
        let mut out = outcome(&[(100.0, 0.95), (200.0, 0.95), (300.0, 0.95)]);
        // A failed obs with serving stats = SLO rejection.
        out.observations[1] = with_p99(out.observations[1].clone(), 0.2);
        out.observations[1].failed = true;
        // A failed obs without stats = offline failure (crash/OOM).
        out.observations[2].failed = true;
        assert_eq!(out.slo_rejections(), 1);
        // Failed observations never win the serving headline either.
        assert_eq!(out.best_p99_with_recall(0.0), None);
    }

    #[test]
    fn param_trace_shape() {
        let out = outcome(&[(1.0, 0.1), (2.0, 0.2)]);
        let trace = out.param_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].len(), crate::space::DIMS);
        assert!(trace[0].iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn param_trace_follows_the_space_width() {
        let out = outcome(&[(1.0, 0.1)]);
        let trace = out.param_trace_in(&SpaceSpec::with_topology(8));
        assert_eq!(trace[0].len(), crate::space::DIMS + 1);
        assert!(trace[0].iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
