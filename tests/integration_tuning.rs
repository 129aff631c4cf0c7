//! End-to-end tuning integration tests spanning every crate in the
//! workspace: VDTuner and all four baselines against a live simulator.

use vdtuner::baselines::{OpenTunerStyle, OtterTuneStyle, QehviTuner, RandomLhs};
use vdtuner::core::{BudgetAllocation, SurrogateKind, TunerMode, TunerOptions, VdTuner};
use vdtuner::prelude::*;
use vdtuner::vecdata::DatasetSpec as Spec;
use vdtuner::workload::{run_tuner, Evaluator, Tuner};

fn tiny_workload() -> Workload {
    Workload::prepare(Spec::tiny(DatasetKind::Glove), 10)
}

fn small_options() -> TunerOptions {
    TunerOptions {
        mc_samples: 16,
        candidates: vdtuner::mobo::optimize::CandidateOptions {
            n_lhs: 24,
            n_uniform: 8,
            n_local_per_incumbent: 4,
            local_sigma: 0.1,
        },
        ..Default::default()
    }
}

#[test]
fn vdtuner_full_pipeline() {
    let w = tiny_workload();
    let mut tuner = VdTuner::new(small_options(), 3);
    let out = tuner.run(&w, 14);
    assert_eq!(out.observations.len(), 14);
    // All seven index-type defaults must have been tried first.
    let first7: Vec<_> = out.observations[..7].iter().map(|o| o.config.index_type).collect();
    assert_eq!(first7.len(), 7);
    // Tuning must find something at least as good as the best default.
    let best_default = out.observations[..7].iter().map(|o| o.qps).fold(0.0, f64::max);
    let best_overall = out.observations.iter().map(|o| o.qps).fold(0.0, f64::max);
    assert!(best_overall >= best_default);
    // Timing breakdown recorded.
    assert!(out.total_recommend_secs > 0.0);
    assert!(out.total_replay_secs > 0.0);
}

#[test]
fn every_baseline_runs_against_the_simulator() {
    let w = tiny_workload();
    let tuners: Vec<Box<dyn Tuner>> = vec![
        Box::new(RandomLhs::new(5)),
        Box::new(OpenTunerStyle::new(5)),
        Box::new(OtterTuneStyle::new(5, 4)),
        Box::new(QehviTuner::new(5, 4)),
    ];
    for mut t in tuners {
        let mut ev = Evaluator::new(&w, 5);
        run_tuner(t.as_mut(), &mut ev, 8, 1);
        assert_eq!(ev.len(), 8, "{}", t.name());
        assert!(
            ev.history().iter().any(|o| !o.failed),
            "{} never produced a successful evaluation",
            t.name()
        );
    }
}

#[test]
fn constrained_mode_prefers_feasible_region() {
    let w = tiny_workload();
    let mut opts = small_options();
    opts.mode = TunerMode::Constrained { recall_limit: 0.7 };
    let mut tuner = VdTuner::new(opts, 4);
    let out = tuner.run(&w, 18);
    let feasible = out.observations.iter().filter(|o| o.recall >= 0.7).count();
    assert!(
        feasible >= out.observations.len() / 3,
        "constrained tuning should mostly sample feasible configs ({feasible}/18)"
    );
}

#[test]
fn bootstrap_reuses_previous_phase() {
    let w = tiny_workload();
    let mut opts = small_options();
    opts.mode = TunerMode::Constrained { recall_limit: 0.6 };
    let phase1 = VdTuner::new(opts.clone(), 4).run(&w, 12);

    let mut opts2 = small_options();
    opts2.mode = TunerMode::Constrained { recall_limit: 0.7 };
    opts2.bootstrap = phase1.observations.clone();
    let mut tuner = VdTuner::new(opts2, 5);
    let phase2 = tuner.run(&w, 10);
    assert_eq!(phase2.observations.len(), 10);
    assert!(phase2.best_qps_with_recall(0.7).is_some());
}

#[test]
fn cost_effective_mode_runs_and_reports_memory() {
    let w = tiny_workload();
    let mut opts = small_options();
    opts.mode = TunerMode::CostEffective;
    let out = VdTuner::new(opts, 6).run(&w, 12);
    let (mem, _) = out.memory_mean_std();
    assert!(mem > 0.0);
    assert!(out.best_qpd_with_recall(0.0).is_some());
}

#[test]
fn ablation_variants_all_work() {
    let w = tiny_workload();
    for (budget, surrogate) in [
        (BudgetAllocation::RoundRobin, SurrogateKind::Polling),
        (BudgetAllocation::SuccessiveAbandon { window: 2 }, SurrogateKind::Native),
    ] {
        let mut opts = small_options();
        opts.budget = budget;
        opts.surrogate = surrogate;
        let out = VdTuner::new(opts, 7).run(&w, 12);
        assert_eq!(out.observations.len(), 12);
    }
}

#[test]
fn tuning_beats_random_on_average_rank() {
    // Weak but meaningful: with the same budget, VDTuner's best balanced
    // point should not be dominated by Random's.
    let w = tiny_workload();
    let vd = VdTuner::new(small_options(), 8).run(&w, 16);
    let mut random = RandomLhs::new(8);
    let mut ev = Evaluator::new(&w, 8);
    run_tuner(&mut random, &mut ev, 16, 1);
    let vd_best = vd.best_qps_with_recall(0.8);
    let rnd_best = ev.best_qps_with_recall(0.8);
    if let (Some(v), Some(r)) = (vd_best, rnd_best) {
        assert!(
            v >= r * 0.5,
            "VDTuner ({v:.0}) collapsed far below Random ({r:.0}) at the same budget"
        );
    }
}
