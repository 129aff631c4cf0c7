//! The evaluation driver shared by VDTuner and every baseline: history,
//! worst-value substitution for failed configs, caching, and the timing
//! breakdown reported in Table VI.
//!
//! The driver is generic over *what* it evaluates: an
//! [`EvalBackend`] — the single-node
//! simulator, a sharded cluster, or (eventually) a live VDMS over HTTP.

use crate::backend::{BackendInfo, EvalBackend, SimBackend};
use crate::replay::Outcome;
use crate::Workload;
use rayon::prelude::*;
use std::collections::BTreeMap;
use vdms::memory::MIN_MEMORY_GIB;
use vdms::{VdmsConfig, VdmsError};

/// One completed evaluation, as seen by a tuner.
#[derive(Debug, Clone)]
pub struct Observation {
    /// 0-based evaluation index.
    pub iter: usize,
    /// The (sanitized) configuration that was evaluated.
    pub config: VdmsConfig,
    /// Search speed feedback (QPS). For failed configs this is the
    /// worst-in-history value (§V-A), never the raw zero.
    pub qps: f64,
    /// Recall feedback, same substitution rule.
    pub recall: f64,
    /// Accounted memory (GiB).
    pub memory_gib: f64,
    /// Whether the underlying evaluation failed (crash/timeout/OOM).
    pub failed: bool,
    /// Simulated seconds spent replaying this configuration.
    pub replay_secs: f64,
    /// Wall-clock seconds the tuner spent deciding on this configuration
    /// (recorded by the driver around `propose`).
    pub recommend_secs: f64,
    /// Serving-level metrics (tail latency, queue depth, sheds) when the
    /// evaluation ran under the live serving simulator; `None` for offline
    /// replays. Present even for SLO-violating (failed) observations, so
    /// reports can show *how far* a rejected config missed the objective.
    pub serving: Option<crate::serving::ServingStats>,
}

impl Observation {
    /// Cost-effectiveness (Eq. 8, η = 1).
    pub fn cost_effectiveness(&self) -> f64 {
        self.qps / self.memory_gib.max(1e-9)
    }
}

/// Exact cache key for a configuration: one slot per tunable dimension
/// (16 base tunables, then the topology, replication and pinning requests
/// and the three write knobs).
type ConfigKey = [u64; 22];

/// The [`ConfigKey`] of a sanitized configuration. Float fields are encoded
/// bit-exactly via [`f64::to_bits`]: quantizing them (as an earlier
/// revision did) let distinct configurations alias to one cache entry and
/// return stale measurements for a config that was never evaluated. The
/// deployment slots are 0 for "no request" — distinct from every
/// sanitized `Some(n)` (which is ≥ 1), from every `Some(policy)` (encoded
/// `ordinal + 1`) and from every sanitized write knob (rows ≥ 1, a
/// positive interval) — so candidates differing only in shard count,
/// replication factor, pinning policy or write knobs never alias.
fn config_key(c: &VdmsConfig) -> ConfigKey {
    [
        c.index_type.ordinal() as u64,
        c.index.nlist as u64,
        c.index.nprobe as u64,
        c.index.m as u64,
        c.index.nbits as u64,
        c.index.hnsw_m as u64,
        c.index.ef_construction as u64,
        c.index.ef as u64,
        c.index.reorder_k as u64,
        c.system.segment_max_size_mb.to_bits(),
        c.system.segment_seal_proportion.to_bits(),
        c.system.graceful_time_ms.to_bits(),
        c.system.insert_buf_size_mb.to_bits(),
        c.system.max_read_concurrency as u64,
        c.system.chunk_rows as u64,
        c.system.build_parallelism as u64,
        c.shards.map_or(0, |s| s as u64),
        c.replicas.map_or(0, |r| r as u64),
        c.pinning.map_or(0, |p| p.ordinal() as u64 + 1),
        c.writepath.map_or(0, |k| k.wal_batch_rows as u64),
        c.writepath.map_or(0, |k| k.flush_interval_secs.to_bits()),
        c.writepath.map_or(0, |k| k.seal_rows as u64),
    ]
}

/// When a candidate spans a different tuning space than the backend serves
/// (e.g. it requests a deployment shape a fixed-topology backend cannot
/// realize), the evaluator rejects it *before* dispatch — as a failed
/// outcome the usual worst-in-history substitution applies to, never a
/// panic. A rejected candidate burns no replay time.
fn space_mismatch_outcome(cfg: &VdmsConfig, backend_dims: usize) -> Option<Outcome> {
    let config_dims = cfg.tunable_dims();
    if config_dims == backend_dims {
        return None;
    }
    Some(Outcome::failed(VdmsError::SpaceMismatch { config_dims, backend_dims }, 0.0))
}

/// Evaluates configurations against a backend with tuner-facing semantics.
///
/// The evaluator owns the bookkeeping every tuner needs — observation
/// history, worst-in-history substitution for failures, result caching,
/// timing totals — and delegates the
/// measurement itself to an [`EvalBackend`].
pub struct Evaluator<B: EvalBackend> {
    backend: B,
    /// Backend capabilities, snapshotted at construction.
    info: BackendInfo,
    seed: u64,
    history: Vec<Observation>,
    cache: BTreeMap<ConfigKey, Outcome>,
    /// Total simulated tuning seconds (replay side of Table VI).
    pub total_replay_secs: f64,
    /// Total wall-clock recommendation seconds (model side of Table VI).
    pub total_recommend_secs: f64,
}

impl<'a> Evaluator<SimBackend<'a>> {
    /// Evaluator over the single-node simulator — the pre-backend-trait
    /// construction, kept as the default.
    pub fn new(workload: &'a Workload, seed: u64) -> Evaluator<SimBackend<'a>> {
        Evaluator::with_backend(SimBackend::new(workload), seed)
    }

    /// The workload under evaluation.
    pub fn workload(&self) -> &Workload {
        self.backend.workload()
    }
}

impl<B: EvalBackend> Evaluator<B> {
    /// Evaluator over an arbitrary backend.
    pub fn with_backend(backend: B, seed: u64) -> Evaluator<B> {
        let info = backend.info();
        Evaluator {
            backend,
            info,
            seed,
            history: Vec::new(),
            cache: BTreeMap::new(),
            total_replay_secs: 0.0,
            total_recommend_secs: 0.0,
        }
    }

    /// The backend under evaluation.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Capabilities of the backend (snapshotted at construction).
    pub fn info(&self) -> &BackendInfo {
        &self.info
    }

    /// All observations so far, in evaluation order.
    pub fn history(&self) -> &[Observation] {
        &self.history
    }

    /// Number of evaluations performed.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// True before the first evaluation.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Worst successful feedback seen so far; used as the substitute for
    /// failed configurations (avoiding the GP scaling problems the paper
    /// cites [35], [36]).
    ///
    /// When the *first* evaluation fails there is no history to substitute
    /// from; in that case fall back to the failed outcome's own raw
    /// measurements (clamped away from zero so GP log-transforms stay
    /// finite) instead of a fabricated constant the GP would then train on.
    fn worst_feedback(&self, failed: &Outcome) -> (f64, f64) {
        let ok: Vec<&Observation> = self.history.iter().filter(|o| !o.failed).collect();
        if ok.is_empty() {
            (failed.qps.max(1e-3), failed.recall.clamp(1e-3, 1.0))
        } else {
            (
                ok.iter().map(|o| o.qps).fold(f64::INFINITY, f64::min),
                ok.iter().map(|o| o.recall).fold(f64::INFINITY, f64::min),
            )
        }
    }

    /// Append one outcome to the history with the tuner-facing semantics
    /// (worst-in-history substitution, timing accounting).
    fn record(&mut self, cfg: VdmsConfig, outcome: Outcome, recommend_secs: f64) -> Observation {
        let failed = !outcome.is_ok();
        let (qps, recall) =
            if failed { self.worst_feedback(&outcome) } else { (outcome.qps, outcome.recall) };
        let obs = Observation {
            iter: self.history.len(),
            config: cfg,
            qps,
            recall,
            // Failed evaluations account 0 bytes; floor at the fixed system
            // overhead so QP$ never divides by (near-)zero. The constant is
            // the same base footprint the cluster layer charges per node.
            memory_gib: outcome.memory_gib.max(MIN_MEMORY_GIB),
            failed,
            replay_secs: outcome.simulated_secs,
            recommend_secs,
            serving: outcome.serving,
        };
        self.total_replay_secs += outcome.simulated_secs;
        self.total_recommend_secs += recommend_secs;
        self.history.push(obs.clone());
        obs
    }

    /// Evaluate `config`, record and return the observation: the batch of
    /// one ([`Evaluator::observe_batch`]).
    ///
    /// `recommend_secs` is the wall-clock time the tuner took to propose
    /// this configuration (pass 0.0 when not tracked).
    pub fn observe(&mut self, config: &VdmsConfig, recommend_secs: f64) -> Observation {
        let mut batch = self.observe_batch(std::slice::from_ref(config), recommend_secs);
        batch.pop().expect("one observation per candidate")
    }

    /// Evaluate a batch of candidate configurations, replaying the uncached
    /// ones **in parallel**, and record them in candidate order.
    ///
    /// The observation history is bit-identical to observing the same
    /// configs one at a time in the same order: replays are pure functions
    /// of `(workload, config, seed)`, duplicates within the batch are
    /// deduplicated before dispatch exactly like the cache would across
    /// batches, and the stateful bookkeeping (worst-in-history
    /// substitution, iteration numbering, timing totals) runs serially in
    /// candidate order afterwards. `recommend_secs` — the wall-clock cost of
    /// proposing the whole batch — is attributed to the batch's first
    /// observation.
    pub fn observe_batch(
        &mut self,
        configs: &[VdmsConfig],
        recommend_secs: f64,
    ) -> Vec<Observation> {
        let sanitized: Vec<(VdmsConfig, ConfigKey)> = configs
            .iter()
            .map(|c| {
                let cfg = c.sanitized(self.info.dim, self.info.top_k);
                let key = config_key(&cfg);
                (cfg, key)
            })
            .collect();

        let backend = &self.backend;
        let seed = self.seed;
        let space_dims = self.info.space_dims;
        // Unique uncached configs, first-occurrence order. Candidates
        // the space-mismatch gate rejects are never dispatched (their
        // failure outcome is synthesized during bookkeeping below).
        let mut pending: Vec<(VdmsConfig, ConfigKey)> = Vec::new();
        for &(cfg, key) in &sanitized {
            if space_mismatch_outcome(&cfg, space_dims).is_none()
                && !self.cache.contains_key(&key)
                && pending.iter().all(|&(_, k)| k != key)
            {
                pending.push((cfg, key));
            }
        }

        // The parallel fan-out: replay every missing config concurrently.
        let outcomes: Vec<Outcome> =
            pending.par_iter().map(|(cfg, _)| backend.evaluate(cfg, seed)).collect();
        for ((_, key), out) in pending.into_iter().zip(outcomes) {
            self.cache.insert(key, out);
        }

        // Serial bookkeeping in candidate order — every lookup now hits
        // the cache, so this is pure (deterministic) state threading.
        sanitized
            .into_iter()
            .enumerate()
            .map(|(i, (cfg, key))| {
                let outcome = space_mismatch_outcome(&cfg, space_dims)
                    .unwrap_or_else(|| self.cache[&key].clone());
                let rs = if i == 0 { recommend_secs } else { 0.0 };
                self.record(cfg, outcome, rs)
            })
            .collect()
    }
}

/// Best QPS among successful observations with `recall >= min_recall`
/// (the paper's Figures 6–8 metric: best speed under a recall sacrifice).
pub fn best_qps_with_recall(history: &[Observation], min_recall: f64) -> Option<f64> {
    history
        .iter()
        .filter(|o| !o.failed && o.recall >= min_recall)
        .map(|o| o.qps)
        .fold(None, |acc, q| Some(acc.map_or(q, |a: f64| a.max(q))))
}

/// Running best-so-far QPS curve under a recall floor (Figure 7): one
/// entry per observation, 0 until a successful one meets the floor.
pub fn qps_curve(history: &[Observation], min_recall: f64) -> Vec<f64> {
    let mut best = 0.0f64;
    history
        .iter()
        .map(|o| {
            if !o.failed && o.recall >= min_recall {
                best = best.max(o.qps);
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use anns::params::IndexType;
    use vecdata::{DatasetKind, DatasetSpec};

    fn make() -> Workload {
        Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10)
    }

    /// The 17-dimensional backend: candidates request 1..=`max` shards.
    fn shards_up_to(w: &Workload, max: usize) -> SimBackend<'_> {
        let knobs = crate::backend::DeploymentKnobs { max_shards: Some(max), ..Default::default() };
        SimBackend::with_knobs(w, knobs)
    }

    #[test]
    fn records_history_in_order() {
        let w = make();
        let mut ev = Evaluator::new(&w, 1);
        ev.observe(&VdmsConfig::default_config(), 0.1);
        ev.observe(&VdmsConfig::default_for(IndexType::Flat), 0.2);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev.history()[0].iter, 0);
        assert_eq!(ev.history()[1].iter, 1);
        assert!((ev.total_recommend_secs - 0.3).abs() < 1e-12);
    }

    #[test]
    fn cache_hits_identical_configs() {
        let w = make();
        let mut ev = Evaluator::new(&w, 1);
        let a = ev.observe(&VdmsConfig::default_config(), 0.0);
        let b = ev.observe(&VdmsConfig::default_config(), 0.0);
        assert_eq!(a.qps, b.qps);
        assert_eq!(ev.cache.len(), 1);
    }

    #[test]
    fn near_identical_configs_do_not_alias_in_cache() {
        // Regression: the old quantized key (`* 4.0`, `* 1000.0`, round)
        // mapped these two distinct configs to one cache entry.
        let w = make();
        let mut ev = Evaluator::new(&w, 1);
        let a = VdmsConfig::default_config();
        let mut b = VdmsConfig::default_config();
        b.system.segment_max_size_mb = a.system.segment_max_size_mb + 0.01;
        b.system.segment_seal_proportion = (a.system.segment_seal_proportion + 1e-5).min(1.0);
        ev.observe(&a, 0.0);
        ev.observe(&b, 0.0);
        assert_eq!(ev.cache.len(), 2, "distinct configs must get distinct cache entries");
    }

    #[test]
    fn first_eval_failure_feeds_back_raw_clamped_outcome() {
        // A failing *first* evaluation must not fabricate the old constant
        // (1.0, 0.01); the GP trains on the failure's own measurements.
        let w = make();
        let mut ev = Evaluator::new(&w, 1);
        let mut bad = VdmsConfig::default_config();
        bad.system.graceful_time_ms = 0.0;
        bad.system.insert_buf_size_mb = 2048.0; // consistency lag >> window
        let obs = ev.observe(&bad, 0.0);
        assert!(obs.failed);
        // The timeout outcome carries a real modeled QPS; the fallback must
        // preserve it rather than substituting 1.0.
        let raw = crate::replay::evaluate(&w, &bad, 1);
        assert!(!raw.is_ok());
        assert_eq!(obs.qps, raw.qps.max(1e-3));
        assert_eq!(obs.recall, raw.recall.clamp(1e-3, 1.0));
        assert_ne!((obs.qps, obs.recall), (1.0, 0.01), "fabricated constant is gone");
    }

    #[test]
    fn observe_batch_matches_serial_observe_bitwise() {
        let w = make();
        let configs: Vec<VdmsConfig> =
            [IndexType::Flat, IndexType::Hnsw, IndexType::IvfFlat, IndexType::IvfSq8]
                .into_iter()
                .map(VdmsConfig::default_for)
                .collect();

        let mut serial = Evaluator::new(&w, 5);
        for c in &configs {
            serial.observe(c, 0.0);
        }
        let mut batched = Evaluator::new(&w, 5);
        batched.observe_batch(&configs, 0.0);

        assert_eq!(serial.len(), batched.len());
        for (a, b) in serial.history().iter().zip(batched.history()) {
            assert_eq!(a.iter, b.iter);
            assert_eq!(a.qps.to_bits(), b.qps.to_bits());
            assert_eq!(a.recall.to_bits(), b.recall.to_bits());
            assert_eq!(a.memory_gib.to_bits(), b.memory_gib.to_bits());
            assert_eq!(a.failed, b.failed);
            assert_eq!(a.replay_secs.to_bits(), b.replay_secs.to_bits());
        }
        assert_eq!(serial.total_replay_secs.to_bits(), batched.total_replay_secs.to_bits());
    }

    #[test]
    fn observe_batch_attributes_recommend_time_to_first() {
        let w = make();
        let mut ev = Evaluator::new(&w, 1);
        let obs = ev.observe_batch(
            &[VdmsConfig::default_config(), VdmsConfig::default_for(IndexType::Flat)],
            0.25,
        );
        assert_eq!(obs[0].recommend_secs, 0.25);
        assert_eq!(obs[1].recommend_secs, 0.0);
        assert!((ev.total_recommend_secs - 0.25).abs() < 1e-12);
    }

    #[test]
    fn observe_batch_dedups_identical_candidates() {
        let w = make();
        let mut ev = Evaluator::new(&w, 1);
        let c = VdmsConfig::default_config();
        let obs = ev.observe_batch(&[c, c, c], 0.0);
        assert_eq!(obs.len(), 3);
        assert_eq!(ev.cache.len(), 1, "one replay for three identical candidates");
        assert_eq!(obs[0].qps.to_bits(), obs[2].qps.to_bits());
        assert_eq!(obs[2].iter, 2);
    }

    #[test]
    fn observe_batch_failure_substitution_follows_batch_order() {
        // A failing config *later* in the batch must pick up worst-in-history
        // from the successful configs recorded before it — same as serial.
        let w = make();
        let good = VdmsConfig::default_config();
        let mut bad = VdmsConfig::default_config();
        bad.system.graceful_time_ms = 0.0;
        bad.system.insert_buf_size_mb = 2048.0;

        let mut serial = Evaluator::new(&w, 2);
        serial.observe(&good, 0.0);
        serial.observe(&bad, 0.0);
        let mut batched = Evaluator::new(&w, 2);
        let obs = batched.observe_batch(&[good, bad], 0.0);
        assert!(obs[1].failed);
        assert_eq!(obs[1].qps.to_bits(), serial.history()[1].qps.to_bits());
        assert_eq!(obs[1].recall.to_bits(), serial.history()[1].recall.to_bits());
    }

    #[test]
    fn failed_config_gets_worst_in_history() {
        let w = make();
        let mut ev = Evaluator::new(&w, 1);
        let good = ev.observe(&VdmsConfig::default_config(), 0.0);
        assert!(!good.failed);
        let mut bad = VdmsConfig::default_config();
        bad.system.graceful_time_ms = 0.0;
        bad.system.insert_buf_size_mb = 2048.0;
        let failed = ev.observe(&bad, 0.0);
        assert!(failed.failed);
        assert_eq!(failed.qps, good.qps, "worst-in-history substitution");
        assert!(failed.recall <= good.recall);
    }

    #[test]
    fn best_qps_respects_recall_floor() {
        let w = make();
        let mut ev = Evaluator::new(&w, 1);
        ev.observe(&VdmsConfig::default_for(IndexType::Flat), 0.0);
        let impossible = best_qps_with_recall(ev.history(), 1.01);
        assert!(impossible.is_none());
        let any = best_qps_with_recall(ev.history(), 0.0).unwrap();
        assert!(any > 0.0);
    }

    #[test]
    fn qps_curve_is_monotone() {
        let w = make();
        let mut ev = Evaluator::new(&w, 1);
        for t in [IndexType::Flat, IndexType::Hnsw, IndexType::IvfFlat, IndexType::AutoIndex] {
            ev.observe(&VdmsConfig::default_for(t), 0.0);
        }
        let curve = qps_curve(ev.history(), 0.5);
        assert_eq!(curve.len(), 4);
        assert!(curve.windows(2).all(|w| w[1] >= w[0]));
    }

    /// A config whose evaluation fails (timeout path).
    fn failing_config() -> VdmsConfig {
        let mut bad = VdmsConfig::default_config();
        bad.system.graceful_time_ms = 0.0;
        bad.system.insert_buf_size_mb = 2048.0;
        bad
    }

    #[test]
    fn failed_observation_memory_floors_at_named_constant() {
        // Regression: the floor used to be a magic `1.0` literal; it must
        // stay tied to the base-overhead constant the cluster accounting
        // charges per node, and apply to failed outcomes that account
        // 0 GiB (load/placement failures never measure memory).
        let w = make();
        let spec = vdms::cluster::ClusterSpec::with_budget(4, 0.5);
        let backend = crate::backend::SimBackend::with_spec(&w, spec);
        let raw = backend.evaluate(&VdmsConfig::default_config().sanitized(w.dataset.dim(), 10), 1);
        assert!(!raw.is_ok());
        assert_eq!(raw.memory_gib, 0.0, "placement failure accounts no memory");
        let mut ev = Evaluator::with_backend(backend, 1);
        let obs = ev.observe(&VdmsConfig::default_config(), 0.0);
        assert!(obs.failed);
        assert_eq!(obs.memory_gib, MIN_MEMORY_GIB, "floored at the shared base-overhead constant");
    }

    #[test]
    fn best_qps_with_all_failed_history_is_none() {
        let w = make();
        let mut ev = Evaluator::new(&w, 1);
        let obs = ev.observe(&failing_config(), 0.0);
        assert!(obs.failed);
        assert_eq!(
            best_qps_with_recall(ev.history(), 0.0),
            None,
            "failed-only history has no best"
        );
        assert_eq!(qps_curve(ev.history(), 0.0), vec![0.0], "curve stays at zero");
    }

    #[test]
    fn recall_floor_excluding_everything_yields_empty_curve() {
        let w = make();
        let mut ev = Evaluator::new(&w, 1);
        ev.observe(&VdmsConfig::default_for(IndexType::Flat), 0.0);
        ev.observe(&VdmsConfig::default_for(IndexType::Hnsw), 0.0);
        assert_eq!(best_qps_with_recall(ev.history(), 1.01), None);
        assert_eq!(qps_curve(ev.history(), 1.01), vec![0.0, 0.0]);
    }

    #[test]
    fn qps_curve_ignores_failed_observations_but_keeps_positions() {
        let w = make();
        let mut ev = Evaluator::new(&w, 1);
        ev.observe(&VdmsConfig::default_for(IndexType::Flat), 0.0);
        ev.observe(&failing_config(), 0.0);
        ev.observe(&VdmsConfig::default_for(IndexType::Hnsw), 0.0);
        let curve = qps_curve(ev.history(), 0.0);
        assert_eq!(curve.len(), 3);
        assert!(curve.windows(2).all(|w| w[1] >= w[0]), "monotone despite the failure");
        assert_eq!(curve[0], curve[1], "a failed observation cannot improve the best");
        // The failed observation's substituted qps must not leak into the
        // curve even though it is numerically positive.
        assert!(ev.history()[1].qps > 0.0);
        assert_eq!(curve[1], ev.history()[0].qps);
    }

    #[test]
    fn space_mismatch_is_failed_observation_not_panic() {
        // A candidate carrying a topology request is rejected by a
        // fixed-topology backend as a failed outcome; worst-in-history
        // substitution applies exactly as for a crash.
        let w = make();
        let mut ev = Evaluator::new(&w, 1);
        let good = ev.observe(&VdmsConfig::default_config(), 0.0);
        let mut wide = VdmsConfig::default_config();
        wide.shards = Some(2);
        let obs = ev.observe(&wide, 0.0);
        assert!(obs.failed);
        assert_eq!(obs.qps, good.qps, "worst-in-history substitution");
        assert_eq!(obs.replay_secs, 0.0, "rejected before dispatch, no replay time");
        assert_eq!(ev.cache.len(), 1, "rejected candidates are not cached");
        // The raw outcome carries the typed error.
        let raw = space_mismatch_outcome(&wide.sanitized(w.dataset.dim(), 10), 16).unwrap();
        assert!(matches!(
            raw.failure,
            Some(VdmsError::SpaceMismatch { config_dims: 17, backend_dims: 16 })
        ));
    }

    #[test]
    fn space_mismatch_rejects_in_batches_too() {
        let w = make();
        let mut wide = VdmsConfig::default_for(IndexType::Flat);
        wide.shards = Some(3);
        let good = VdmsConfig::default_config();
        let mut ev = Evaluator::new(&w, 2);
        let obs = ev.observe_batch(&[good, wide, good], 0.0);
        assert!(!obs[0].failed && !obs[2].failed);
        assert!(obs[1].failed);
        assert_eq!(obs[1].qps.to_bits(), obs[0].qps.to_bits(), "substituted from the batch");
        assert_eq!(ev.cache.len(), 1, "only the good config was dispatched");
    }

    #[test]
    fn topology_backend_accepts_matching_candidates_only() {
        let w = make();
        let mut ev = Evaluator::with_backend(shards_up_to(&w, 4), 1);
        assert_eq!(ev.info().space_dims, VdmsConfig::BASE_TUNABLES + 1);
        let mut cfg = VdmsConfig::default_config();
        cfg.shards = Some(2);
        let obs = ev.observe(&cfg, 0.0);
        assert!(!obs.failed, "17-dim candidate on a 17-dim backend");
        // A 16-dim candidate on the topology backend is a mismatch: the
        // tuner driving this backend must own the topology knob.
        let narrow = ev.observe(&VdmsConfig::default_config(), 0.0);
        assert!(narrow.failed);
    }

    #[test]
    fn shard_request_is_part_of_the_cache_key() {
        let w = make();
        let mut ev = Evaluator::with_backend(shards_up_to(&w, 4), 1);
        let mut cfg = VdmsConfig::default_config();
        cfg.system.segment_max_size_mb = 64.0;
        cfg.system.segment_seal_proportion = 0.5;
        cfg.shards = Some(1);
        let one = ev.observe(&cfg, 0.0);
        cfg.shards = Some(4);
        let four = ev.observe(&cfg, 0.0);
        assert_eq!(ev.cache.len(), 2, "same base knobs, different topology: two entries");
        assert!(four.memory_gib > one.memory_gib, "per-node overhead accumulates");
    }

    #[test]
    fn evaluator_works_against_sharded_backend() {
        let w = make();
        let backend = crate::backend::SimBackend::with_spec(&w, vdms::cluster::ClusterSpec::new(2));
        let mut ev = Evaluator::with_backend(backend, 1);
        let obs = ev.observe(&VdmsConfig::default_config(), 0.0);
        assert!(!obs.failed);
        assert!(obs.qps > 0.0);
        let batch = ev.observe_batch(
            &[VdmsConfig::default_for(IndexType::Flat), VdmsConfig::default_for(IndexType::Hnsw)],
            0.0,
        );
        assert_eq!(batch.len(), 2);
        assert_eq!(ev.len(), 3);
    }
}
