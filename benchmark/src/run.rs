//! Running a panel: through the library's own driver (untraced), through
//! the benchmark's mirror of it (traced), and the correctness gate.

use crate::pace::{reference_secs, Pace, Paced, Sample};
use crate::stats::{history_digest, median};
use crate::trace::Recorder;
use crate::workloads::{Def, Prepared};
use anns::params::IndexType;
use std::time::Instant;
use vdtuner_core::{TuningOutcome, VdTuner};
use vecdata::rng::derive;
use workload::{EvalBackend, Evaluator, Observation, Tuner};

/// Recall floor of the quality metric (`best_qps_at_recall90`).
pub const RECALL_FLOOR: f64 = 0.9;

/// One finished tune.
pub struct TuneResult {
    /// Index into the workload's panel.
    pub tune: usize,
    /// Wall-clock around the tune, less the reference samples inside it.
    pub wall_secs: f64,
    pub outcome: TuningOutcome,
    pub digest: u64,
    /// Index types the tuner had abandoned when it finished.
    pub abandoned_types: usize,
    /// Reference seconds per wall-clock second over this tune
    /// (`pace::reference_secs`); 1 where no reference was sampled.
    pub host_factor: f64,
    /// Each step's proposal time in reference seconds; empty where no
    /// reference was sampled.
    pub step_reference_secs: Vec<f64>,
    /// When the tune ran, on the pace clock.
    pub span_secs: (f64, f64),
}

impl TuneResult {
    fn new(tune: usize, wall_secs: f64, outcome: TuningOutcome, tuner: &VdTuner) -> TuneResult {
        let digest = history_digest(&outcome.observations);
        let abandoned_types = IndexType::ALL.len() - tuner.remaining_types().len();
        TuneResult {
            tune,
            wall_secs,
            outcome,
            digest,
            abandoned_types,
            host_factor: 1.0,
            step_reference_secs: Vec::new(),
            span_secs: (0.0, 0.0),
        }
    }
}

/// Order in which a run visits its `tunes`: the panel rotated by the seed.
pub fn tune_order(tunes: usize, seed: u64) -> Vec<usize> {
    let shift = (seed % tunes as u64) as usize;
    (0..tunes).map(|i| (i + shift) % tunes).collect()
}

/// One tune through the public entry point, timed from outside.
pub fn run_library(def: &Def, backend: &dyn EvalBackend, tune: usize, iters: usize) -> TuneResult {
    let mut tuner = def.tuner(tune, iters);
    let t = Instant::now();
    let outcome = tuner.run_batched_on(backend, iters, def.q);
    TuneResult::new(tune, t.elapsed().as_secs_f64(), outcome, &tuner)
}

/// Run one tune with a reference sample before every evaluation and one
/// after the last (`pace`). `run` gets the sampling backend and is
/// [`run_library`] or [`run_traced`]. [`read_in_reference_secs`] turns the
/// samples into the tune's timings once the run is over.
pub fn paced(
    backend: &dyn EvalBackend,
    pace: &Pace,
    run: impl FnOnce(&dyn EvalBackend) -> TuneResult,
) -> TuneResult {
    let from = pace.now_secs();
    let mut result = run(&Paced { inner: backend, pace });
    result.span_secs = (from, pace.now_secs());
    pace.sample();
    result
}

/// Fill in the reference-second readings of tunes that ran under [`paced`]:
/// wall-clock less the samples' own time, the host factor, and every
/// proposal step. Called once, after the last tune, so that all tunes are
/// read against the same quiet sample.
pub fn read_in_reference_secs(def: &Def, pace: &Pace, results: &mut [TuneResult]) {
    let samples = pace.samples();
    let quiet = pace.quiet_sample_secs().expect("a tune evaluates");
    for result in results {
        let (from, to) = result.span_secs;
        let (wall, reference) =
            reference_secs(&samples, quiet, from, to).expect("a tune evaluates");
        result.wall_secs = wall;
        result.host_factor = reference / wall;

        // A step's proposal ended where the sample of its first evaluation
        // began. A step dispatches its configurations the tune had not
        // evaluated before (the evaluator serves the others from its
        // cache); one that dispatched nothing is placed before the next
        // sample there is.
        let own: Vec<&Sample> =
            samples.iter().filter(|s| s.at_secs >= from && s.at_secs <= to).collect();
        let obs = &result.outcome.observations;
        let mut next = 0usize;
        result.step_reference_secs = (0..obs.len())
            .step_by(def.q)
            .map(|first| {
                let ends = own[next.min(own.len() - 1)].at_secs;
                next += (first..obs.len().min(first + def.q))
                    .filter(|&i| obs[..i].iter().all(|o| o.config != obs[i].config))
                    .count();
                let begins = ends - obs[first].recommend_secs;
                reference_secs(&samples, quiet, begins, ends).map_or(0.0, |(_, secs)| secs)
            })
            .collect();
    }
}

/// The same tune through the benchmark's mirror of `VdTuner::run_batched_on`
/// and `workload::run_tuner{,_batched}`, with a span around every call into
/// a layer: `tune > iteration > {core.propose, workload.observe,
/// core.observe}`. Equal history digests prove the mirror is the library's
/// loop.
pub fn run_traced(
    def: &Def,
    backend: &dyn EvalBackend,
    tune: usize,
    iters: usize,
    rec: &mut Recorder,
    root: u32,
) -> TuneResult {
    let mut tuner = def.tuner(tune, iters);
    let t = Instant::now();
    let tune_ix = tune as u32;
    let tune_span = rec.open("tune", root, tune_ix, crate::trace::NONE);
    let mut evaluator = Evaluator::with_backend(backend, derive(def.tuner_seed(tune), 0xEBA1));
    let mut remaining = iters;
    let mut step = 0u32;
    while remaining > 0 {
        let batch = def.q.min(remaining);
        let it = rec.open("iteration", tune_span, tune_ix, step);
        let propose = rec.open("core.propose", it, tune_ix, step);
        let configs = if def.q <= 1 {
            vec![tuner.propose(evaluator.history())]
        } else {
            tuner.propose_batch(evaluator.history(), batch)
        };
        rec.close(propose);
        let recommend_secs = rec.spans()[propose as usize].secs();
        let observed = rec.within("workload.observe", it, tune_ix, step, || {
            if def.q <= 1 {
                vec![evaluator.observe(&configs[0], recommend_secs)]
            } else {
                evaluator.observe_batch(&configs, recommend_secs)
            }
        });
        rec.within("core.observe", it, tune_ix, step, || {
            for obs in &observed {
                tuner.observe(obs);
            }
        });
        rec.close(it);
        remaining -= batch;
        step += 1;
    }
    let outcome = TuningOutcome::from_evaluator(
        tuner.name().to_string(),
        &evaluator,
        tuner.score_trace().to_vec(),
    );
    rec.close(tune_span);
    TuneResult::new(tune, t.elapsed().as_secs_f64(), outcome, &tuner)
}

/// The observation a tune would hand its user: the fastest one at or above
/// the recall floor, else the fastest that did not fail.
fn best_observation(outcome: &TuningOutcome) -> Option<&Observation> {
    let fastest = |floor: f64| {
        outcome
            .observations
            .iter()
            .filter(|o| !o.failed && o.recall >= floor)
            .max_by(|a, b| a.qps.total_cmp(&b.qps))
    };
    fastest(RECALL_FLOOR).or_else(|| fastest(0.0))
}

/// The correctness gate over finished tunes. Returns one line per miss.
pub fn check(def: &Def, prepared: &Prepared, iters: usize, results: &[TuneResult]) -> Vec<String> {
    let mut misses = Vec::new();
    let info = def.backend(prepared).info();
    let space = def.space();
    for r in results {
        let obs = &r.outcome.observations;
        let at = |what: String| format!("{} tune {}: {what}", def.name, r.tune);
        if obs.len() != iters {
            misses.push(at(format!("{} observations, expected {iters}", obs.len())));
        }
        for (i, t) in IndexType::ALL.iter().enumerate().take(iters) {
            let want = space.seed_config(*t).sanitized(info.dim, info.top_k);
            if obs.get(i).map(|o| o.config) != Some(want) {
                misses.push(at(format!("observation {i} is not the {} seed config", t.name())));
            }
        }
        for o in obs.iter().filter(|o| !o.failed) {
            let sane = o.qps.is_finite() && o.qps > 0.0 && (0.0..=1.0).contains(&o.recall);
            if !sane {
                misses.push(at(format!("iter {}: qps {} recall {}", o.iter, o.qps, o.recall)));
            }
        }
        match best_observation(&r.outcome) {
            None => misses.push(at("no successful observation".to_string())),
            Some(best) => {
                // A fresh backend and the evaluator's own seed must give
                // the recorded numbers back bit for bit.
                let fresh = def.backend(prepared);
                let again = fresh.evaluate(&best.config, derive(def.tuner_seed(r.tune), 0xEBA1));
                let same = again.qps.to_bits() == best.qps.to_bits()
                    && again.recall.to_bits() == best.recall.to_bits();
                if !same {
                    misses.push(at(format!(
                        "best config re-evaluated to qps {} recall {}, recorded {} {}",
                        again.qps, again.recall, best.qps, best.recall
                    )));
                }
            }
        }
    }
    misses
}

/// The untraced run's end-to-end numbers (set-up time and peak RSS are
/// measured by the caller). Times are in reference seconds; the `raw_`
/// fields are the same sums in wall-clock seconds.
pub struct EndToEnd {
    pub tune_wall_s: f64,
    pub recommend_s: f64,
    pub recommend_ms_p50: f64,
    /// Steps behind `recommend_ms_p50`.
    pub recommend_samples: usize,
    pub best_qps_at_recall90: f64,
    pub ok_eval_share: f64,
    pub evaluations: usize,
    pub raw_tune_wall_s: f64,
    pub raw_recommend_s: f64,
}

pub fn end_to_end(results: &[TuneResult], q: usize) -> EndToEnd {
    let all = || results.iter().flat_map(|r| r.outcome.observations.iter());
    // Per step. A batch's proposal time sits on its first observation; the
    // others carry zero and are not steps.
    let steps_ms: Vec<f64> = results
        .iter()
        .flat_map(|r| {
            let raw = r.outcome.observations.iter().step_by(q).map(|o| o.recommend_secs);
            let paced = !r.step_reference_secs.is_empty();
            let secs: Vec<f64> = if paced { r.step_reference_secs.clone() } else { raw.collect() };
            secs.into_iter().map(|s| s * 1e3)
        })
        .filter(|&ms| ms > 0.0)
        .collect();
    let best: Vec<f64> = results
        .iter()
        .map(|r| r.outcome.best_qps_with_recall(RECALL_FLOOR).unwrap_or(f64::NAN))
        .collect();
    let evaluations = all().count();
    let sum = |f: &dyn Fn(&TuneResult) -> f64| results.iter().map(f).sum::<f64>();
    EndToEnd {
        tune_wall_s: sum(&|r| r.wall_secs * r.host_factor),
        recommend_s: steps_ms.iter().sum::<f64>() / 1e3,
        recommend_ms_p50: median(&steps_ms),
        recommend_samples: steps_ms.len(),
        best_qps_at_recall90: median(&best),
        ok_eval_share: all().filter(|o| !o.failed).count() as f64 / evaluations.max(1) as f64,
        evaluations,
        raw_tune_wall_s: sum(&|r| r.wall_secs),
        raw_recommend_s: sum(&|r| r.outcome.total_recommend_secs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_order_is_a_rotation() {
        assert_eq!(tune_order(3, 0), vec![0, 1, 2]);
        assert_eq!(tune_order(3, 7), vec![1, 2, 0]);
        assert_eq!(tune_order(1, 99), vec![0]);
    }

    /// The mirror is the library's loop: same digest, traced or not, for
    /// the sequential and the batched driver.
    #[test]
    fn traced_mirror_reproduces_the_library_history() {
        use crate::workloads::{Scale, Stack};
        // Tiny data and a serving rate the seed configurations can meet.
        let serving = Stack::Serving { requests: 2_000, rate_x_anchor: 0.25 };
        for (name, stack) in [("surrogate-22d", Stack::Topology), ("cluster-batched-22d", serving)]
        {
            let known = *crate::workloads::find(name).expect("known workload");
            let def = Def { scale: Scale::Tiny, stack, ..known };
            let prepared = def.prepare();
            let backend = def.backend(&prepared);
            let iters = 12;
            let plain = run_library(&def, &*backend, 0, iters);
            let mut rec = Recorder::with_capacity(64);
            let root = rec.open("run", crate::trace::NONE, crate::trace::NONE, crate::trace::NONE);
            let traced = run_traced(&def, &*backend, 0, iters, &mut rec, root);
            rec.close(root);
            assert_eq!(plain.digest, traced.digest, "{name}");
            assert_eq!(check(&def, &prepared, iters, &[plain, traced]), Vec::<String>::new());
            let steps = iters.div_ceil(def.q);
            assert_eq!(crate::trace::durations(rec.spans(), "core.propose").len(), steps);
        }
    }

    #[test]
    fn the_gate_catches_a_tampered_history() {
        let def = *crate::workloads::find("surrogate-22d").expect("known workload");
        let prepared = def.prepare();
        let backend = def.backend(&prepared);
        let mut r = run_library(&def, &*backend, 0, 9);
        r.outcome.observations.swap(0, 1);
        for o in &mut r.outcome.observations {
            o.qps *= 2.0;
        }
        let misses = check(&def, &prepared, 9, &[r]);
        assert!(misses.iter().any(|m| m.contains("seed config")), "{misses:?}");
        assert!(misses.iter().any(|m| m.contains("re-evaluated")), "{misses:?}");
    }
}
