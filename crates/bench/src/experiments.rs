//! One function per table/figure of the paper's evaluation (§II and §V).
//!
//! Every function prints the same rows/series the paper reports and writes
//! a CSV under `results/`. Absolute numbers come from the simulator's cost
//! model; the claims under reproduction are the *shapes* — who wins, by
//! roughly what factor, where crossovers fall (the README's per-feature
//! sections quote the checked-in `results/`).

use crate::affinity;
use crate::comparison::{contracts_hold, Better, Comparison};
use crate::cotuning::{
    arm_json, at_top, best_config, budget_table, ladder_table, measure_ladder, p99_ms, CoTuning,
    FixedArm, MeasuredField, BEST_QPS, LATENCY_LADDER, RECALL_FLOOR, SERVING_SLO_P99_SECS,
    TOP_P99_MS,
};
use crate::report::{emit, emit_json, f1, f2, f3, ms, pct, JsonValue, Table};
use crate::{
    recall_floor, run_parallel, vdtuner_paper_options, Arm, Method, Profile, Request, Runs,
    SACRIFICES,
};
use anns::cost::ScanUnitCosts;
use anns::params::IndexType;
use std::io;
use vdms::cluster::ClusterSpec;
use vdms::memory::MemoryUsage;
use vdms::system_params::SystemParams;
use vdms::{
    CalibrationSource, CostModel, PenaltyMatrix, PinningPolicy, SegmentLayout, VdmsConfig,
    WriteKnobs,
};
use vdtuner_core::shap::shapley_attribution;
use vdtuner_core::space::DIM_NAMES;
use vdtuner_core::{SpaceSpec, TunerMode, TuningOutcome};
use vecdata::{DatasetKind, DatasetSpec};
use workload::{
    evaluate, EvalBackend, Evaluator, Outcome, ServingSpec, ServingStats, SimBackend, Workload,
    WriteStats,
};

/// A table header: one leading column, then a computed series.
fn header(first: &str, rest: impl IntoIterator<Item = String>) -> Vec<String> {
    std::iter::once(first.to_string()).chain(rest).collect()
}

/// Population standard deviation (0 for an empty slice).
fn std_dev(values: &[f64]) -> f64 {
    let n = values.len().max(1) as f64;
    let mean = values.iter().sum::<f64>() / n;
    (values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n).sqrt()
}

/// Every tenth iteration of `n`, plus the last: where curves are sampled.
fn checkpoints(n: usize) -> Vec<usize> {
    (0..n).step_by((n / 10).max(1)).chain(std::iter::once(n - 1)).collect()
}

/// A histogram as a JSON array.
fn int_array(counts: &[usize]) -> JsonValue {
    JsonValue::Arr(counts.iter().map(|&n| JsonValue::Int(n as i64)).collect())
}

/// Figure 1: search speed and recall over a (segment maxSize ×
/// sealProportion) grid — the configuration-interdependence motivation.
pub fn fig1(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let w = runs.workload(DatasetKind::Glove);
    let max_sizes = [100.0, 200.0, 400.0, 700.0, 1000.0];
    let seals = [0.1, 0.3, 0.5, 0.7, 0.9, 1.0];
    let head = header("maxSize\\seal", seals.iter().map(|s| format!("{s:.1}")));
    let mut qps_t = Table::new(head.clone());
    let mut rec_t = Table::new(head);
    let jobs: Vec<(f64, f64)> =
        max_sizes.iter().flat_map(|&m| seals.iter().map(move |&s| (m, s))).collect();
    let outs = run_parallel(jobs.clone(), |&(m, s)| {
        let mut cfg = VdmsConfig::default_config();
        cfg.system.segment_max_size_mb = m;
        cfg.system.segment_seal_proportion = s;
        evaluate(w, &cfg, profile.seed)
    });
    for (mi, &m) in max_sizes.iter().enumerate() {
        let mut qrow = vec![format!("{m:.0}MB")];
        let mut rrow = vec![format!("{m:.0}MB")];
        for si in 0..seals.len() {
            let o = &outs[mi * seals.len() + si];
            qrow.push(f1(o.qps));
            rrow.push(f3(o.recall));
        }
        qps_t.row(qrow);
        rec_t.row(rrow);
    }
    emit("fig1_speed", "Fig 1 (left): search speed vs (maxSize, sealProportion), GloVe", &qps_t)?;
    emit("fig1_recall", "Fig 1 (right): recall vs (maxSize, sealProportion), GloVe", &rec_t)
}

/// Figure 2: the best index type varies with the system configuration.
pub fn fig2(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let w = runs.workload(DatasetKind::Glove);
    let systems: Vec<(&str, SystemParams)> = vec![
        // Milvus defaults: moderate segments + a brute-force growing tail.
        ("System-Config 1", SystemParams::default()),
        // Constrained query nodes.
        (
            "System-Config 2",
            SystemParams { max_read_concurrency: 2, chunk_rows: 256, ..Default::default() },
        ),
        // Many micro-segments: per-segment/probe overhead dominates, brute
        // force wins.
        (
            "System-Config 3",
            SystemParams {
                segment_max_size_mb: 64.0,
                segment_seal_proportion: 0.05,
                insert_buf_size_mb: 16.0,
                ..Default::default()
            },
        ),
        // One big sealed segment with cache-hostile chunking: scans pay the
        // chunk factor, graph traversal does not.
        (
            "System-Config 4",
            SystemParams {
                segment_max_size_mb: 400.0,
                segment_seal_proportion: 1.0,
                insert_buf_size_mb: 16.0,
                chunk_rows: 8192,
                ..Default::default()
            },
        ),
    ];
    let types = crate::motivation_types();
    let mut t = Table::new(header(
        "config",
        types.iter().map(|t| t.name().to_string()).chain(["best".to_string()]),
    ));
    for (name, sys) in &systems {
        let outs = run_parallel(types.to_vec(), |&it| {
            let mut cfg = VdmsConfig::default_for(it);
            cfg.system = *sys;
            evaluate(w, &cfg, profile.seed)
        });
        let best = types
            .iter()
            .zip(&outs)
            .max_by(|a, b| a.1.qps.total_cmp(&b.1.qps))
            .map(|(t, _)| t.name())
            .unwrap_or("-");
        let mut row = vec![name.to_string()];
        row.extend(outs.iter().map(|o| f1(o.qps)));
        row.push(best.to_string());
        t.row(row);
    }
    emit("fig2", "Fig 2: search speed of index types under 4 system configs (GloVe)", &t)
}

/// Figure 3a/3b: per-index speed and recall on two datasets (defaults);
/// Figure 3c: per-index optimization curves under uniform sampling.
pub fn fig3(profile: &Profile, runs: &Runs) -> io::Result<()> {
    // (a, b) defaults per index type on two datasets.
    for (tag, kind) in [("a", DatasetKind::Glove), ("b", DatasetKind::KeywordMatch)] {
        let w = runs.workload(kind);
        let mut t = Table::new(vec!["index", "search speed", "recall"]);
        let outs = run_parallel(IndexType::ALL.to_vec(), |&it| {
            evaluate(w, &VdmsConfig::default_for(it), profile.seed)
        });
        for (it, o) in IndexType::ALL.iter().zip(&outs) {
            t.row(vec![it.name().to_string(), f1(o.qps), f3(o.recall)]);
        }
        emit(
            &format!("fig3{tag}"),
            &format!("Fig 3{tag}: conflicting objectives per index type ({})", kind.name()),
            &t,
        )?;
    }

    // (c) optimization curves: uniform sampling of each index type's own
    // parameters; weighted performance best-so-far.
    let w = runs.workload(DatasetKind::Glove);
    let samples = profile.iters.max(20);
    let per_type: Vec<(IndexType, Vec<f64>)> = run_parallel(IndexType::ALL.to_vec(), |&it| {
        let space = SpaceSpec::legacy();
        let free = space.free_dims(it);
        let pts = mobo::sampling::latin_hypercube(
            samples,
            free.len(),
            profile.seed ^ it.ordinal() as u64,
        );
        let outs: Vec<(f64, f64)> = pts
            .iter()
            .map(|p| {
                let pairs: Vec<(usize, f64)> =
                    free.iter().copied().zip(p.iter().copied()).collect();
                let cfg = space.decode(&space.embed(it, &pairs)).expect("embed spans the space");
                let o = evaluate(w, &cfg, profile.seed);
                (o.qps, o.recall)
            })
            .collect();
        let max_q = outs.iter().map(|o| o.0).fold(1e-9, f64::max);
        let max_r = outs.iter().map(|o| o.1).fold(1e-9, f64::max);
        let mut best = 0.0f64;
        let curve: Vec<f64> = outs
            .iter()
            .map(|&(q, r)| {
                best = best.max(0.5 * q / max_q + 0.5 * r / max_r);
                best
            })
            .collect();
        (it, curve)
    });
    let checkpoints = checkpoints(samples);
    let mut t = Table::new(header("index", checkpoints.iter().map(|c| format!("@{}", c + 1))));
    for (it, curve) in &per_type {
        let mut row = vec![it.name().to_string()];
        row.extend(checkpoints.iter().map(|&c| f2(curve[c])));
        t.row(row);
    }
    emit("fig3c", "Fig 3c: weighted-performance optimization curves per index type (GloVe)", &t)
}

/// Table IV: performance improvement of VDTuner over the default config.
pub fn table4(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let kinds = DatasetKind::main_three();
    let outs = runs.outcomes(profile, &kinds.map(|k| (Method::VdTuner, k)));
    let mut t = Table::new(vec![
        "dataset",
        "default QPS",
        "default recall",
        "speed improvement",
        "recall improvement",
    ]);
    for (kind, out) in kinds.iter().zip(&outs) {
        let default = evaluate(runs.workload(*kind), &VdmsConfig::default_config(), profile.seed);
        let (ds, dr) = out.improvement_over_default(default.qps, default.recall);
        t.row(vec![kind.name().to_string(), f1(default.qps), f3(default.recall), pct(ds), pct(dr)]);
    }
    emit("table4", "Table IV: improvement by auto-configuration (VDTuner vs Default)", &t)
}

/// Figure 6: best search speed under recall sacrifices, 5 methods × 3
/// datasets, plus the trade-off-ability metric (std-dev over floors).
pub fn fig6(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let kinds = DatasetKind::main_three();
    let arms: Vec<_> = kinds.iter().flat_map(|&k| Method::ALL.map(|m| (m, k))).collect();
    let outs = runs.outcomes(profile, &arms);

    for (kind, outs) in kinds.iter().zip(outs.chunks(Method::ALL.len())) {
        let mut t = Table::new(header(
            "method",
            SACRIFICES.iter().map(|s| format!("sac {s}")).chain(["tradeoff σ".to_string()]),
        ));
        for (m, out) in Method::ALL.iter().zip(outs) {
            let best: Vec<Option<f64>> =
                SACRIFICES.iter().map(|&s| out.best_qps_with_recall(recall_floor(s))).collect();
            let sigma = std_dev(&best.iter().flatten().copied().collect::<Vec<f64>>());
            let mut row = vec![m.name().to_string()];
            row.extend(best.iter().map(|b| b.map_or("-".to_string(), f1)));
            row.push(f1(sigma));
            t.row(row);
        }
        emit(
            &format!("fig6_{}", kind.name().to_lowercase().replace('-', "_")),
            &format!("Fig 6: best speed under recall sacrifice ({})", kind.name()),
            &t,
        )?;
    }
    Ok(())
}

/// Figure 7: optimization curves on GloVe and tuning-efficiency ratios.
pub fn fig7(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let outs = runs.outcomes(profile, &Method::ALL.map(|m| (m, DatasetKind::Glove)));
    let floors = [0.9, 0.925, 0.95, 0.975, 0.99];

    for &floor in &floors {
        let checkpoints = checkpoints(profile.iters);
        let mut t =
            Table::new(header("method", checkpoints.iter().map(|c| format!("it{}", c + 1))));
        for (m, out) in Method::ALL.iter().zip(&outs) {
            let curve = out.qps_curve(floor);
            let mut row = vec![m.name().to_string()];
            row.extend(checkpoints.iter().map(|&c| f1(curve[c.min(curve.len() - 1)])));
            t.row(row);
        }
        emit(
            &format!("fig7_recall{}", (floor * 1000.0) as u32),
            &format!("Fig 7: best-so-far speed vs iteration (GloVe, recall > {floor})"),
            &t,
        )?;
    }

    // Tuning-efficiency summary: samples/time for VDTuner to beat the most
    // competitive baseline's final result.
    let mut t = Table::new(vec![
        "recall floor",
        "best baseline",
        "baseline QPS",
        "VDTuner iters to beat",
        "VDTuner tuning seconds to beat (simulated replay + wall-clock recommendation)",
        "sample ratio",
    ]);
    // Method::ALL leads with VDTuner; the baselines follow.
    let vd = &outs[0];
    for &floor in &floors {
        let best_baseline = Method::ALL[1..]
            .iter()
            .zip(&outs[1..])
            .filter_map(|(m, o)| o.best_qps_with_recall(floor).map(|q| (m, q)))
            .max_by(|a, b| a.1.total_cmp(&b.1));
        let Some((bm, bq)) = best_baseline else {
            t.row(vec![f3(floor), "-".into(), "-".into(), "-".into(), "-".into(), "-".into()]);
            continue;
        };
        let iters = vd.iterations_to_reach(bq, floor);
        let secs = vd.secs_to_reach(bq, floor);
        let ratio = iters.map(|i| i as f64 / profile.iters as f64);
        t.row(vec![
            f3(floor),
            bm.name().to_string(),
            f1(bq),
            iters.map_or("-".into(), |i| i.to_string()),
            secs.map_or("-".into(), f1),
            ratio.map_or("-".into(), pct),
        ]);
    }
    emit("fig7_efficiency", "Fig 7 summary: VDTuner efficiency vs best baseline (GloVe)", &t)
}

/// Figure 8: ablations — (a) successive abandon vs round robin, (b) polling
/// vs native surrogate.
pub fn fig8(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let variants = [
        ("Successive Abandon + Polling", Method::VdTuner),
        ("Round Robin + Polling", Method::RoundRobin),
        ("Successive Abandon + Native", Method::Native),
    ];
    let outs = runs.outcomes(profile, &variants.map(|(_, m)| (m, DatasetKind::Glove)));
    let mut t = Table::new(header("variant", SACRIFICES.iter().map(|s| format!("sac {s}"))));
    for ((name, _), out) in variants.iter().zip(&outs) {
        let mut row = vec![name.to_string()];
        row.extend(
            SACRIFICES
                .iter()
                .map(|&s| out.best_qps_with_recall(recall_floor(s)).map_or("-".into(), f1)),
        );
        t.row(row);
    }
    emit("fig8", "Fig 8: budget-allocation and surrogate ablations (GloVe)", &t)
}

/// Figure 9: dynamic index-type score weights during tuning.
pub fn fig9(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let outs = runs.outcomes(profile, &[(Method::VdTuner, DatasetKind::Glove)]);
    let out = &outs[0];
    let mut t = Table::new(header(
        "iter",
        IndexType::ALL.iter().map(|t| t.name().to_string()).chain(["leader".to_string()]),
    ));
    let mut last_leader: Option<IndexType> = None;
    for (i, row) in out.score_trace.iter().enumerate() {
        let total: f64 = row.iter().map(|(_, s)| s.max(0.0)).sum();
        let weight = |ty: IndexType| -> String {
            match row.iter().find(|(t, _)| *t == ty) {
                Some((_, s)) if total > 0.0 => format!("{:.0}%", 100.0 * s.max(0.0) / total),
                Some(_) => "0%".into(),
                None => "0%".into(), // abandoned
            }
        };
        let leader = row.iter().max_by(|a, b| a.1.total_cmp(&b.1)).map(|(t, _)| *t);
        let marker = match (leader, last_leader) {
            (Some(l), Some(prev)) if l != prev => format!("{} *", l.name()),
            (Some(l), _) => l.name().to_string(),
            (None, _) => "-".into(),
        };
        last_leader = leader.or(last_leader);
        let mut cells = vec![format!("{}", i + 8)]; // scores start after init sampling
        cells.extend(IndexType::ALL.iter().map(|&ty| weight(ty)));
        cells.push(marker);
        t.row(cells);
    }
    emit("fig9", "Fig 9: index-type score weights vs iteration (GloVe; * = leader change)", &t)
}

/// Figure 10: sampling scatter of native vs polling surrogates.
pub fn fig10(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let variants = [("native", Method::Native), ("polling", Method::VdTuner)];
    let outs = runs.outcomes(profile, &variants.map(|(_, m)| (m, DatasetKind::Glove)));
    let mut summary = Table::new(vec![
        "surrogate",
        "recall σ (exploration width)",
        "high-quality samples",
        "max QPS",
        "max recall",
    ]);
    for ((name, _), out) in variants.iter().zip(&outs) {
        let ranks = out.pareto_rank_per_obs();
        let mut t = Table::new(vec!["iter", "qps", "recall", "index", "pareto_rank"]);
        for (o, r) in out.observations.iter().zip(&ranks) {
            t.row(vec![
                o.iter.to_string(),
                f1(o.qps),
                f3(o.recall),
                o.config.index_type.name().to_string(),
                r.to_string(),
            ]);
        }
        emit(
            &format!("fig10_{name}"),
            &format!("Fig 10: configurations sampled by the {name} surrogate (GloVe)"),
            &t,
        )?;

        let recalls: Vec<f64> = out.observations.iter().map(|o| o.recall).collect();
        let sigma = std_dev(&recalls);
        let max_q = out.observations.iter().map(|o| o.qps).fold(0.0, f64::max);
        let max_r = recalls.iter().copied().fold(0.0, f64::max);
        // "Red rectangle": both objectives high simultaneously.
        let good =
            out.observations.iter().filter(|o| o.qps >= 0.7 * max_q && o.recall >= 0.9).count();
        summary.row(vec![name.to_string(), f3(sigma), good.to_string(), f1(max_q), f3(max_r)]);
    }
    emit(
        "fig10_summary",
        "Fig 10 summary: recall spread and high-quality samples per surrogate",
        &summary,
    )
}

/// Figure 11: parameter traces over iterations (Geo-radius).
pub fn fig11(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let outs = runs.outcomes(profile, &[(Method::VdTuner, DatasetKind::GeoRadius)]);
    let out = &outs[0];
    let trace = out.param_trace();
    let tracked = ["nlist", "nprobe", "segment_sealProportion", "gracefulTime"];
    let dims: Vec<usize> =
        tracked.iter().map(|n| DIM_NAMES.iter().position(|d| d == n).expect("dim")).collect();
    let mut t = Table::new(header("iter", tracked.iter().map(|s| s.to_string())));
    for (i, row) in trace.iter().enumerate() {
        let mut cells = vec![(i + 1).to_string()];
        cells.extend(dims.iter().map(|&d| f2(row[d])));
        t.row(cells);
    }
    emit("fig11", "Fig 11: normalized parameter values vs iteration (Geo-radius)", &t)?;

    // Convergence summary: early vs late fluctuation.
    let mut s = Table::new(vec!["parameter", "early σ", "late σ"]);
    let half = trace.len() / 2;
    for (name, &d) in tracked.iter().zip(&dims) {
        let std = |rows: &[Vec<f64>]| std_dev(&rows.iter().map(|r| r[d]).collect::<Vec<f64>>());
        s.row(vec![name.to_string(), f3(std(&trace[..half])), f3(std(&trace[half..]))]);
    }
    emit("fig11_convergence", "Fig 11 summary: parameter spread, first vs second half", &s)
}

/// Figure 12: user recall preference — constraint model and bootstrapping.
pub fn fig12(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let w = runs.workload(DatasetKind::Glove);
    let iters = profile.pref_iters;
    let seed = profile.seed;

    // Variant A: no constraint model, no bootstrapping (plain MO per phase).
    // Variant B: constraint model per phase, no bootstrapping.
    // Variant C: constraint model + phase-2 bootstrapped with phase-1 data.
    let phases = [0.85, 0.9];
    let variants = ["no constraint + no bootstrap", "constraint only", "constraint + bootstrap"];
    // One phase of one variant, optionally bootstrapped from an earlier
    // outcome; these runs chain and never come from the memo.
    let phase = |v: usize, pi: usize, bootstrap: Option<&TuningOutcome>| {
        let mut options = vdtuner_paper_options(iters);
        if v >= 1 {
            options.mode = TunerMode::Constrained { recall_limit: phases[pi] };
        }
        if let Some(prev) = bootstrap {
            options.bootstrap = prev.observations.clone();
        }
        let (arm, backend) = (Arm::VdTuner(options), SimBackend::new(w));
        runs.tune(arm, SpaceSpec::legacy(), backend, iters, seed ^ (pi as u64) << 8)
    };
    // C's phase 1 is B's exactly (same options, same seed), so the B job
    // also runs C's phase 2, bootstrapped from that one outcome.
    let jobs = run_parallel(vec![0usize, 1], |&v| {
        let first = phase(v, 0, None);
        let second = phase(v, 1, None);
        let bootstrapped = (v == 1).then(|| phase(2, 1, Some(&first)));
        (first, second, bootstrapped)
    });
    let (a, b) = (&jobs[0], &jobs[1]);
    let c_second = b.2.as_ref().expect("the B job runs C's second phase");
    let arms = [[&a.0, &a.1], [&b.0, &b.1], [&b.0, c_second]];

    let mut t = Table::new(vec![
        "variant",
        "phase (recall >)",
        "best feasible QPS",
        "iters to best-A parity",
    ]);
    for (pi, &lim) in phases.iter().enumerate() {
        let a_final = arms[0][pi].best_qps_with_recall(lim).unwrap_or(0.0);
        for (v, name) in variants.iter().enumerate() {
            let out = arms[v][pi];
            let best = out.best_qps_with_recall(lim);
            let parity = out.iterations_to_reach(a_final, lim);
            t.row(vec![
                name.to_string(),
                format!("{lim}"),
                best.map_or("-".into(), f1),
                parity.map_or("-".into(), |i| i.to_string()),
            ]);
        }
    }
    emit("fig12", "Fig 12: constraint model + bootstrapping under recall preferences (GloVe)", &t)
}

/// Figure 13: cost-effectiveness (QP$) optimization and SHAP attribution.
pub fn fig13(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let w = runs.workload(DatasetKind::GeoRadius);
    let modes = [("QPS", Method::VdTuner), ("QP$", Method::CostEffective)];
    let outs = runs.outcomes(profile, &modes.map(|(_, m)| (m, DatasetKind::GeoRadius)));
    let (qps_run, qpd_run) = (&outs[0], &outs[1]);

    // (a) relative performance of optimizing QP$ vs QPS.
    let mut t = Table::new(vec![
        "sacrifice",
        "QP$ run: best QP$",
        "QPS run: best QP$",
        "relative QP$",
        "QP$ run: best QPS",
        "QPS run: best QPS",
        "relative QPS",
    ]);
    for &s in &SACRIFICES {
        let floor = recall_floor(s);
        let qpd_a = qpd_run.best_qpd_with_recall(floor);
        let qpd_b = qps_run.best_qpd_with_recall(floor);
        let q_a = qpd_run.best_qps_with_recall(floor);
        let q_b = qps_run.best_qps_with_recall(floor);
        let rel = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(x), Some(y)) if y > 0.0 => f2(x / y),
            _ => "-".into(),
        };
        t.row(vec![
            format!("{s}"),
            qpd_a.map_or("-".into(), f1),
            qpd_b.map_or("-".into(), f1),
            rel(qpd_a, qpd_b),
            q_a.map_or("-".into(), f1),
            q_b.map_or("-".into(), f1),
            rel(q_a, q_b),
        ]);
    }
    emit("fig13a", "Fig 13a: optimizing cost-effectiveness vs search speed (Geo-radius)", &t)?;

    let mut mem = Table::new(vec!["objective", "memory mean (GiB)", "memory σ"]);
    for ((name, _), out) in modes.iter().zip(&outs) {
        let (m, s) = out.memory_mean_std();
        mem.row(vec![name.to_string(), f2(m), f2(s)]);
    }
    emit("fig13a_memory", "Fig 13a: sampled memory usage per objective", &mem)?;

    // (b) SHAP attribution of parameters to memory usage and search speed,
    // using the simulator itself as the explained function.
    let target =
        qps_run.best_balanced().map(|o| o.config).unwrap_or_else(VdmsConfig::default_config);
    let baseline = VdmsConfig::default_config();
    let perms = 4;
    let attribute = |metric: fn(&Outcome) -> f64, seed: u64| {
        let explained = |c: &VdmsConfig| metric(&evaluate(w, c, profile.seed));
        shapley_attribution(explained, &target, &baseline, perms, seed)
    };
    let attr_mem = attribute(|o| o.memory_gib, profile.seed);
    let attr_qps = attribute(|o| o.qps, profile.seed + 1);
    let mut t = Table::new(vec!["parameter", "Δ memory (GiB)", "Δ search speed (QPS)"]);
    for (i, name) in DIM_NAMES.iter().enumerate() {
        t.row(vec![
            name.to_string(),
            f2(attr_mem.contributions[i].1),
            f1(attr_qps.contributions[i].1),
        ]);
    }
    emit("fig13b", "Fig 13b: SHAP contribution of each parameter (Geo-radius)", &t)
}

/// Table V: best index type and parameters per dataset.
pub fn table5(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let kinds = [DatasetKind::Glove, DatasetKind::ArxivTitles, DatasetKind::KeywordMatch];
    let outs = runs.outcomes(profile, &kinds.map(|k| (Method::VdTuner, k)));
    let mut t = Table::new(vec!["dataset", "best configuration (index + active params)"]);
    for (kind, out) in kinds.iter().zip(&outs) {
        let best = out.best_balanced().map(|o| o.config.summary()).unwrap_or_default();
        t.row(vec![kind.name().to_string(), best]);
    }
    emit("table5", "Table V: index/parameters of the best configuration per dataset", &t)
}

/// Table VI: time breakdown (recommendation vs replay) per method.
pub fn table6(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let outs = runs.outcomes(profile, &Method::ALL.map(|m| (m, DatasetKind::Glove)));
    let mut t = Table::new(vec![
        "method",
        "recommendation (wall s)",
        "rec. share",
        "replay (simulated s)",
        "total (s)",
    ]);
    for (m, out) in Method::ALL.iter().zip(&outs) {
        let total = out.total_recommend_secs + out.total_replay_secs;
        t.row(vec![
            m.name().to_string(),
            f2(out.total_recommend_secs),
            pct(out.total_recommend_secs / total.max(1e-9)),
            f1(out.total_replay_secs),
            f1(total),
        ]);
    }
    emit(
        "table6",
        &format!(
            "Table VI: time breakdown for {} iterations of each method (GloVe)",
            profile.iters
        ),
        &t,
    )
}

/// The paper's VDTuner arm on GloVe, served by a fixed `shards`-node
/// cluster.
fn paper_on_glove(shards: usize) -> Request {
    Request { method: Method::VdTuner, dataset: DatasetKind::Glove, shards }
}

/// Sharded serving (beyond the paper): VDTuner tuning against the
/// multi-node cluster backend across shard counts, plus a demonstration of
/// per-shard memory-budget enforcement.
pub fn sharding(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let w = runs.workload(DatasetKind::Glove);
    let shard_counts = [1usize, 2, 4];
    let tuned = runs.outcomes(profile, &shard_counts.map(paper_on_glove));
    let defaults = shard_counts.map(|s| {
        let backend = SimBackend::with_spec(w, ClusterSpec::new(s));
        backend.evaluate(&VdmsConfig::default_config(), profile.seed)
    });
    let mut t = Table::new(vec![
        "shards",
        "default QPS",
        "default recall",
        "default mem (GiB)",
        "tuned best QPS @0.9",
        "tuned best QP$ @0.9",
        "sampled mem mean (GiB)",
        "failed evals",
    ]);
    for ((&s, default), tuned) in shard_counts.iter().zip(&defaults).zip(&tuned) {
        let (mem, _) = tuned.memory_mean_std();
        let failed = tuned.observations.iter().filter(|o| o.failed).count();
        t.row(vec![
            s.to_string(),
            f1(default.qps),
            f3(default.recall),
            f2(default.memory_gib),
            tuned.best_qps_with_recall(0.9).map_or("-".into(), f1),
            tuned.best_qpd_with_recall(0.9).map_or("-".into(), f1),
            f2(mem),
            failed.to_string(),
        ]);
    }
    emit("sharding", "Sharded serving: tuning against 1/2/4 query nodes (GloVe)", &t)?;

    // Budget enforcement: shrink the per-node budget below the delegator's
    // fixed streaming state (insert buffer + growing tail + base overhead),
    // with enough nodes that the *aggregate* still exceeds the single-node
    // footprint. Placement cannot succeed — the tuner sees a failed
    // observation, exactly like a crash on the real system.
    let cfg = VdmsConfig::default_config().sanitized(w.dataset.dim(), w.top_k);
    let single = evaluate(w, &cfg, profile.seed);
    let layout = SegmentLayout::plan(w.dataset.len(), &cfg.system);
    let fixed = MemoryUsage::account_query_node(
        &layout,
        &cfg.system,
        0,
        (w.dataset.dim() * 4) as u64,
        0,
        true,
    )
    .total_gib();
    let budget = fixed * 0.95;
    let shards = (single.memory_gib / budget).ceil() as usize + 1;
    let spec = ClusterSpec::with_budget(shards, budget);
    let mut ev = Evaluator::with_backend(SimBackend::with_spec(w, spec), profile.seed);
    let obs = ev.observe(&cfg, 0.0);
    let mut t = Table::new(vec!["cluster", "budget/node (GiB)", "aggregate (GiB)", "outcome"]);
    t.row(vec![
        "1 node (testbed)".into(),
        f1(vdms::collection::MEMORY_BUDGET_GIB),
        f1(vdms::collection::MEMORY_BUDGET_GIB),
        format!("ok: {:.2} GiB used", single.memory_gib),
    ]);
    t.row(vec![
        format!("{shards} nodes (tight)"),
        f2(budget),
        f2(budget * shards as f64),
        if obs.failed {
            "failed observation: no node can host the delegator state".into()
        } else {
            "unexpectedly placed".into()
        },
    ]);
    emit(
        "sharding_budget",
        "Per-shard budget enforcement: aggregate fits, no single node does (GloVe)",
        &t,
    )
}

/// Topology-as-a-knob (beyond the paper): 17-dimensional co-tuning of the
/// shard count with the index/system knobs, against fixed-topology
/// 16-dimensional tuning at every shard count — same evaluation budget per
/// run. Emits a machine-readable `results/topology.json` so future PRs can
/// track the co-tuning trajectory.
pub fn topology(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let w = runs.workload(DatasetKind::Glove);
    let max_shards = 8usize;
    let fixed_counts = [1usize, 2, 4, 8];
    let floor = RECALL_FLOOR;

    // Arm 1: the shard count as an experiment axis — one full 16-dim
    // tuning run per fixed cluster shape (the 1-shard one is the paper's).
    let fixed = runs.outcomes(profile, &fixed_counts.map(paper_on_glove));
    // Arm 2: the shard count as the 17th dimension — one tuning run whose
    // candidates each deploy their own cluster.
    let space = SpaceSpec::with_topology(max_shards);
    let backend = space.backend(w);
    let co =
        runs.tune(Method::VdTuner.arm(profile.iters), space, backend, profile.iters, profile.seed);

    let mut t =
        Table::new(vec!["arm", "best QPS @0.9", "best QP$ @0.9", "mem mean (GiB)", "failed evals"]);
    // One table row per arm; the same readings lead its JSON object.
    let mut arm = |label: String, out: &TuningOutcome| {
        let best_qps = out.best_qps_with_recall(floor);
        let best_qpd = out.best_qpd_with_recall(floor);
        let failed = out.observations.iter().filter(|o| o.failed).count();
        t.row(vec![
            label,
            best_qps.map_or("-".into(), f1),
            best_qpd.map_or("-".into(), f1),
            f2(out.memory_mean_std().0),
            failed.to_string(),
        ]);
        (best_qps, best_qpd, failed)
    };
    let (mut fixed_rows, mut rivals) = (Vec::new(), Vec::new());
    for (&s, out) in fixed_counts.iter().zip(&fixed) {
        let (best_qps, best_qpd, failed) = arm(format!("fixed {s}-shard (16-dim)"), out);
        rivals.push((format!("fixed {s}-shard"), best_qps));
        fixed_rows.push(JsonValue::obj(vec![
            ("shards", JsonValue::Int(s as i64)),
            ("best_qps", JsonValue::opt_num(best_qps)),
            ("best_qpd", JsonValue::opt_num(best_qpd)),
            ("failed", JsonValue::Int(failed as i64)),
        ]));
    }
    let (co_best, co_qpd, co_failed) = arm(format!("co-tuned 1..={max_shards} (17-dim)"), &co);
    emit(
        "topology",
        &format!(
            "Topology co-tuning: shard count as the 17th dimension, {} evals/run (GloVe)",
            profile.iters
        ),
        &t,
    )?;

    // Where did the co-tuner spend its budget, and what shape won?
    let (hist, ht) = budget_table(
        &co,
        "shards",
        "shape",
        (1..=max_shards).map(|s| s.to_string()).collect(),
        |c| c.shards.unwrap_or(1).clamp(1, max_shards) - 1,
    );
    let best_shards = best_config(&co, floor).map(|c| c.shards.unwrap_or(1));
    emit("topology_budget", "Topology co-tuning: evaluation budget per cluster shape", &ht)?;

    // Honest comparison: co-tuning against the best fixed-shape run given
    // the same per-run budget — or the gap is reported as-is.
    let cmp = [Comparison {
        metric: BEST_QPS,
        better: Better::Higher,
        subject: ("co-tuned".into(), co_best),
        rivals,
    }];
    emit(
        "topology_verdict",
        "Topology co-tuning vs best fixed topology (same budget)",
        &Comparison::table(&cmp, &[]),
    )?;

    emit_json(
        "topology",
        &JsonValue::obj(vec![
            ("experiment", JsonValue::Str("topology".into())),
            ("dataset", JsonValue::Str("GloVe".into())),
            ("iters_per_run", JsonValue::Int(profile.iters as i64)),
            ("seed", JsonValue::Int(profile.seed as i64)),
            ("recall_floor", JsonValue::Num(floor)),
            ("max_shards", JsonValue::Int(max_shards as i64)),
            ("fixed", JsonValue::Arr(fixed_rows)),
            (
                "cotuned",
                JsonValue::obj(vec![
                    ("best_qps", JsonValue::opt_num(co_best)),
                    ("best_qpd", JsonValue::opt_num(co_qpd)),
                    (
                        "best_shards",
                        best_shards.map_or(JsonValue::Null, |n| JsonValue::Int(n as i64)),
                    ),
                    ("failed", JsonValue::Int(co_failed as i64)),
                    ("shard_histogram", int_array(&hist)),
                ]),
            ),
            ("comparison", Comparison::json(&cmp)),
        ]),
    )
}

/// Live serving (beyond the paper): offline-tuned vs serving-tuned configs
/// under an open-loop arrival process. The offline arm is the paper's
/// setup — every evaluation a batch replay, tail latency invisible. The
/// serving arm evaluates every candidate through the discrete-event
/// serving simulator at the highest arrival rate with a p99 SLO: violators
/// are failed observations, so the tuner optimizes QPS@recall *subject to*
/// the SLO. Both winners are then measured under three arrival rates;
/// written to `results/serving.json` by the `emit_json` call at the end +
/// CSVs, pinned by `crates/bench/repro_iters10.sha256`.
pub fn serving(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let w = runs.workload(DatasetKind::Glove);
    let floor = RECALL_FLOOR;
    let base_spec = ServingSpec::default();

    // Arm 1: offline-tuned (blind to queues, consistency tails and SLOs).
    let outs = runs.outcomes(profile, &[(Method::VdTuner, DatasetKind::Glove)]);
    let offline = &outs[0];
    let offline_best_qps = offline.best_qps_with_recall(floor);

    // The arrival ladder is anchored on the throughput the offline winner
    // *claims* to sustain: light load, moderate load, and just past its
    // serving capacity (for `maxReadConcurrency = 10`, offline QPS equals
    // serving capacity, so 1.1× is a genuine overload of the offline
    // winner — exactly the regime where tail latency is provisioned for).
    let anchor = offline_best_qps
        .unwrap_or_else(|| evaluate(w, &VdmsConfig::default_config(), profile.seed).qps);
    let rates: Vec<f64> = [0.3, 0.7, 1.1].iter().map(|m| m * anchor).collect();
    let top_rate = rates[rates.len() - 1];

    // Arm 2: serving-tuned — same tuner, budget and seed, but every
    // candidate is exercised at the top arrival rate under the p99 SLO.
    let tune_spec = base_spec.at_rate(top_rate).with_slo(SERVING_SLO_P99_SECS);
    let arm = Method::VdTuner.arm(profile.iters);
    let tuned_backend = SimBackend::new(w).serving(tune_spec);
    let served = runs.tune(arm, SpaceSpec::legacy(), tuned_backend, profile.iters, profile.seed);
    let arms = [offline, &served];

    // Measure both winners under every arrival rate (no SLO here — the
    // point is to see the raw tails, including the offline winner's).
    let measured: Vec<Vec<Option<ServingStats>>> = arms
        .iter()
        .map(|out| {
            measure_ladder(best_config(out, floor).as_ref(), &rates, profile.seed, |rate| {
                SimBackend::new(w).serving(base_spec.at_rate(rate))
            })
        })
        .collect();
    let t = ladder_table(
        &rates,
        &[("offline-tuned", &measured[0]), ("serving-tuned", &measured[1])],
        &[
            ("p50 (ms)", |s| ms(s.p50_latency_secs)),
            ("p99 (ms)", |s| ms(s.p99_latency_secs)),
            ("achieved QPS", |s| f1(s.achieved_qps)),
            ("max queue", |s| s.max_queue_depth.to_string()),
            ("shed", |s| s.shed.to_string()),
            ("timeouts", |s| s.timeouts.to_string()),
        ],
    );
    emit(
        "serving",
        &format!(
            "Live serving: offline-tuned vs serving-tuned under open-loop arrivals \
             (GloVe, SLO p99 <= {:.0} ms at {:.0} req/s)",
            SERVING_SLO_P99_SECS * 1_000.0,
            top_rate
        ),
        &t,
    )?;

    // Verdict: the serving-tuned winner against the offline one on p99 at
    // the top rate (each read only where it meets the SLO there), then on
    // best QPS @0.9 — or the gap is reported as-is.
    let vs_offline = |metric, better, read: &dyn Fn(usize) -> Option<f64>| Comparison {
        metric,
        better,
        subject: ("serving-tuned".into(), read(1)),
        rivals: vec![("offline-tuned".into(), read(0))],
    };
    let cmp = [
        vs_offline(TOP_P99_MS, Better::Lower, &|i| at_top(&measured[i], &tune_spec).map(p99_ms)),
        vs_offline(BEST_QPS, Better::Higher, &|i| arms[i].best_qps_with_recall(floor)),
    ];
    emit(
        "serving_verdict",
        "Serving-tuned vs offline-tuned (same budget, same seed)",
        &Comparison::table(&cmp, &[]),
    )?;

    let fields: [MeasuredField; 4] = [
        ("p50_ms", |s| JsonValue::opt_finite(Some(s.p50_latency_secs * 1_000.0))),
        ("p99_ms", |s| JsonValue::opt_finite(Some(p99_ms(s)))),
        ("achieved_qps", |s| JsonValue::opt_finite(Some(s.achieved_qps))),
        ("shed", |s| JsonValue::Int(s.shed as i64)),
    ];
    let arm_obj = |i: usize| JsonValue::Obj(arm_json(arms[i], &rates, &measured[i], &fields));
    emit_json(
        "serving",
        &JsonValue::obj(vec![
            ("experiment", JsonValue::Str("serving".into())),
            ("dataset", JsonValue::Str("GloVe".into())),
            ("iters_per_run", JsonValue::Int(profile.iters as i64)),
            ("seed", JsonValue::Int(profile.seed as i64)),
            ("recall_floor", JsonValue::Num(floor)),
            ("slo_p99_ms", JsonValue::Num(SERVING_SLO_P99_SECS * 1_000.0)),
            ("rates", JsonValue::Arr(rates.iter().map(|&r| JsonValue::Num(r)).collect())),
            ("offline", arm_obj(0)),
            ("serving", arm_obj(1)),
            ("comparison", Comparison::json(&cmp)),
        ]),
    )
}

/// Replica placement + routing (beyond the paper): 18-dimensional
/// co-tuning of shards × replicas under a serving SLO, against
/// fixed-replica arms — every arm the same tuner, budget and seed, each
/// served by the backend its space realizes ([`SpaceSpec::backend`]),
/// differing only in whether the `replicas` dimension is free or pinned. The top arrival
/// rate is sized so a single replica group saturates: the fixed-1 arm
/// must shed or blow the SLO (and the shed-charged percentiles now make
/// that visible instead of flattering it), fixed-2 is marginal, and the
/// co-tuned arm may buy its way out with read replicas — paying for them
/// in memory, staleness and scheduling overhead. Also verifies in-run
/// that freezing the 18th dimension at one copy reproduces the 17-dim
/// topology tuning history bit for bit, and fails if it does not. Written
/// to `results/replication.json` by the `emit_json` call at the end + CSVs,
/// pinned by `crates/bench/repro_iters10.sha256`.
pub fn replication(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let w = runs.workload(DatasetKind::Glove);
    let max_shards = 4usize;
    let max_replicas = 8usize;
    let space17 = || SpaceSpec::with_topology(max_shards);

    let run = CoTuning {
        workload: w,
        // The arrival ladder is anchored on the default configuration's
        // offline QPS; the top rate is ~18× it — past what one or two
        // replica groups of even the best-known config sustain (tuned
        // GloVe configs reach ~3–6× the default's throughput, and a
        // group's serving capacity is ~1.6× its offline QPS at 16 slots,
        // so two groups top out near ~12× even at the frontier). The
        // per-replica scheduler queue is deliberately short (32): a group
        // running hot sheds under the spec's bursts — and the shed-charged
        // percentiles now surface that as the tail it is — so meeting the
        // SLO at the top rate takes *headroom*, which is exactly what read
        // replicas buy.
        ladder: [4.5, 9.0, 18.0],
        base_spec: ServingSpec { queue_capacity: 32, ..ServingSpec::default() },
        fixed: [1usize, 2]
            .iter()
            .map(|&r| FixedArm {
                name: format!("fixed {r}-replica"),
                pin: "pinned 18-dim".into(),
                space: space17().with_pinned_replication(r),
                json: vec![("replicas".into(), JsonValue::Int(r as i64))],
            })
            .collect(),
        cotuned: (
            format!("co-tuned 1..={max_replicas} (18-dim)"),
            space17().with_replication(max_replicas),
        ),
        // Frozen-at-1 contract: the fixed-1 arm *is* the 18-dim spec with
        // `replicas` frozen at one copy, and must reproduce the 17-dim
        // topology history bit for bit.
        reference: space17(),
        frozen_arm: 0,
        strip: |c| VdmsConfig { replicas: None, ..c },
    }
    .run(profile, runs);

    emit(
        "replication",
        &run.title("Replication co-tuning: replicas as the 18th dimension", ""),
        &run.arm_table(),
    )?;
    emit(
        "replication_ladder",
        "Replication arms measured across the arrival ladder",
        &run.ladder_table(&LATENCY_LADDER),
    )?;

    // Where did the co-tuner spend its budget across replica factors?
    let (hist, ht) = budget_table(
        &run.cotuned().outcome,
        "replicas",
        "factor",
        (1..=max_replicas).map(|r| r.to_string()).collect(),
        |c| c.replicas.unwrap_or(1).clamp(1, max_replicas) - 1,
    );
    emit("replication_budget", "Replication co-tuning: evaluation budget per factor", &ht)?;

    // Verdict: the co-tuned winner's measured p99 at the top rate against
    // the best fixed arm's that meets the SLO there.
    let cmp = [run.compare(TOP_P99_MS, Better::Lower, |_, top| top.map(p99_ms))];
    let contracts = [("frozen-at-1 ≡ 17-dim (bitwise)", run.frozen_matches)];
    emit(
        "replication_verdict",
        "Replication co-tuning vs fixed-replica arms (same budget)",
        &Comparison::table(&cmp, &contracts),
    )?;

    let mut doc = vec![("experiment".to_string(), JsonValue::Str("replication".into()))];
    doc.extend(run.json_head());
    doc.extend(run.json_arms("frozen_matches_17dim", ("replica_histogram", int_array(&hist)), &[]));
    doc.push(("comparison".into(), Comparison::json(&cmp)));
    emit_json("replication", &JsonValue::Obj(doc))?;
    contracts_hold(&contracts)
}

/// Shard reactors + NUMA/affinity-aware pinning (beyond the paper):
/// 19-dimensional co-tuning of the reactor pinning policy under a serving
/// SLO, against four fixed-policy arms — every arm the same tuner, budget
/// and seed, each served by the backend its space realizes
/// ([`SpaceSpec::backend`]), differing only in whether the `pinning`
/// dimension is free or pinned.
///
/// Two-phase: the host's NUMA/SMT penalty surface is first *measured* by a
/// real pinned multi-threaded replay (`bench::affinity` — raw
/// `sched_setaffinity`, sysfs topology discovery, SMT co-run and ping-pong
/// pair probes), and the scan constants by the same `measure_scans` that
/// `kernels` records; the tuning phase then prices reactors with both,
/// handed to the cost model as values (`host_cost_model`). Penalty
/// classes the host cannot measure (a 1-CPU container has no pairs) keep
/// the analytic constants, recorded per entry in `penalty_sources` — the
/// file never claims a fallback was measured. Also verifies in-run that
/// freezing the 19th dimension at [`PinningPolicy::Shared`] reproduces the
/// 18-dim replication tuning history bit for bit. Written to
/// `results/reactors.json` + CSVs. Fails if the contract does not hold.
pub fn reactors(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let max_shards = 4usize;
    let max_replicas = 2usize;

    // --- Phase 1: pinned host calibration ---------------------------------
    let cal = affinity::calibrate();
    let (topology, penalties, sources, logical_cpus, pinning_works, solo_mdps) = match &cal {
        Some(c) => {
            (c.topology, c.penalties, c.sources, c.logical_cpus, c.pinning_works, c.solo_scan_mdps)
        }
        None => (
            vdms::HostTopology::SINGLE_CORE,
            vdms::PenaltyMatrix::ANALYTIC,
            [affinity::EntrySource::Analytic; 3],
            1,
            false,
            0.0,
        ),
    };
    // Phase 2 prices with this run's measurements: the surface above and
    // this host's scan constants. Its own workload: the host's cost model
    // must not reach the memo's, which every other experiment prices with
    // the analytic one.
    let mut w = Workload::paper_default(DatasetSpec::scaled(DatasetKind::Glove));
    let scan = measure_scans(&w.dataset, profile).unit_costs();
    w.cost_model = host_cost_model(scan, penalties, sources);
    let calibration_source = w.cost_model.penalty_source;

    let mut ct = Table::new(vec!["quantity", "value", "source"]);
    ct.row(vec![
        "host topology (sockets x cores x smt)".into(),
        format!("{} x {} x {}", topology.sockets, topology.cores_per_socket, topology.smt),
        if cal.is_some() { "sysfs".into() } else { "fallback".into() },
    ]);
    ct.row(vec!["logical CPUs".into(), logical_cpus.to_string(), "sysfs".into()]);
    ct.row(vec![
        "sched_setaffinity round-trips".into(),
        pinning_works.to_string(),
        "syscall".into(),
    ]);
    ct.row(vec![
        "solo pinned scan (Mdim/s)".into(),
        if solo_mdps > 0.0 { f1(solo_mdps) } else { "-".into() },
        if solo_mdps > 0.0 { "measured".into() } else { "-".into() },
    ]);
    let entries = [
        ("same_core_smt", "penalty: same-core SMT scan", penalties.same_core_smt, sources[0]),
        ("same_socket", "penalty: same-socket handoff", penalties.same_socket, sources[1]),
        ("cross_socket", "penalty: cross-socket handoff", penalties.cross_socket, sources[2]),
    ];
    for (_, name, v, s) in entries {
        ct.row(vec![name.into(), f3(v), s.name().into()]);
    }
    emit("reactors_calibration", "Pinned-replay calibration of the reactor penalty surface", &ct)?;

    let mut doc: Vec<(String, JsonValue)> = vec![
        ("experiment".into(), JsonValue::Str("reactors".into())),
        ("calibration_source".into(), JsonValue::Str(calibration_source.name().into())),
        (
            "topology".into(),
            JsonValue::obj(vec![
                ("sockets", JsonValue::Int(topology.sockets as i64)),
                ("cores_per_socket", JsonValue::Int(topology.cores_per_socket as i64)),
                ("smt", JsonValue::Int(topology.smt as i64)),
            ]),
        ),
        (
            "penalties".into(),
            JsonValue::obj(entries.iter().map(|e| (e.0, JsonValue::Num(e.2))).collect()),
        ),
        (
            "penalty_sources".into(),
            JsonValue::obj(
                entries.iter().map(|e| (e.0, JsonValue::Str(e.3.name().into()))).collect(),
            ),
        ),
        (
            "host".into(),
            JsonValue::obj(vec![
                ("logical_cpus", JsonValue::Int(logical_cpus as i64)),
                ("pinning_works", JsonValue::Bool(pinning_works)),
                ("solo_scan_mdps", JsonValue::opt_finite((solo_mdps > 0.0).then_some(solo_mdps))),
            ]),
        ),
    ];
    // What the tuning phase priced with.
    doc.push((
        "tuning_penalty_source".to_string(),
        JsonValue::Str(w.cost_model.penalty_source.name().into()),
    ));
    doc.push(("tuning_scan".to_string(), scan_json(&w.cost_model.scan, w.cost_model.scan_source)));

    // --- Phase 2: co-tune the pinning policy with the host's model --------
    let space18 = || SpaceSpec::with_topology(max_shards).with_replication(max_replicas);

    let run = CoTuning {
        workload: &w,
        // Same ladder construction as the replication experiment, but with
        // the replication escape valve capped at 2 copies: at ~12× the
        // default config's offline QPS the cluster runs hot enough that
        // reactor placement — how many queues a node runs and which
        // penalty every scan and handoff pays — decides whether the tail
        // meets the SLO.
        ladder: [3.0, 6.0, 12.0],
        base_spec: ServingSpec { queue_capacity: 32, ..ServingSpec::default() },
        fixed: PinningPolicy::ALL
            .iter()
            .map(|&p| FixedArm {
                name: format!("fixed {}", p.name()),
                pin: "pinned 19-dim".into(),
                space: space18().with_pinned_pinning(p),
                json: vec![("policy".into(), JsonValue::Str(p.name().into()))],
            })
            .collect(),
        cotuned: ("co-tuned policy (19-dim)".into(), space18().with_pinning()),
        // Frozen-at-Shared contract: the fixed-shared arm *is* the 19-dim
        // spec with `pinning` frozen at the legacy slot pool, and must
        // reproduce the 18-dim replication history bit for bit.
        reference: space18(),
        frozen_arm: 0,
        strip: |c| VdmsConfig { pinning: None, ..c },
    }
    .run(profile, runs);

    emit(
        "reactors",
        &run.title(
            "Reactor pinning co-tuning: policy as the 19th dimension",
            &format!("penalties {}", calibration_source.name()),
        ),
        &run.arm_table(),
    )?;
    emit(
        "reactors_ladder",
        "Pinning arms measured across the arrival ladder",
        &run.ladder_table(&LATENCY_LADDER),
    )?;

    // Where did the co-tuner spend its budget across policies?
    let (hist, ht) = budget_table(
        &run.cotuned().outcome,
        "policy",
        "policy",
        PinningPolicy::ALL.iter().map(|p| p.name().to_string()).collect(),
        |c| c.pinning.unwrap_or_default().ordinal(),
    );
    emit("reactors_budget", "Pinning co-tuning: evaluation budget per policy", &ht)?;

    // Verdict against the best fixed arm, one comparison per axis: tuned
    // QPS@0.9 under the SLO, then measured p99 at the top rate.
    let cmp = [
        run.compare(BEST_QPS, Better::Higher, |out, _| out.best_qps_with_recall(RECALL_FLOOR)),
        run.compare(TOP_P99_MS, Better::Lower, |_, top| top.map(p99_ms)),
    ];
    let contracts = [("frozen-at-shared ≡ 18-dim (bitwise)", run.frozen_matches)];
    emit(
        "reactors_verdict",
        "Pinning co-tuning vs fixed-policy arms (same budget)",
        &Comparison::table(&cmp, &contracts),
    )?;

    doc.extend(run.json_head());
    doc.extend(run.json_arms("frozen_matches_18dim", ("policy_histogram", int_array(&hist)), &[]));
    doc.push(("comparison".into(), Comparison::json(&cmp)));
    emit_json("reactors", &JsonValue::Obj(doc))?;
    contracts_hold(&contracts)
}

/// The cost model `reactors` tunes with: the scan constants measured in
/// this run and the pinned calibration's penalty surface, labelled by how
/// many of its three entries (`sources`) the host could measure.
fn host_cost_model(
    scan: ScanUnitCosts,
    penalties: PenaltyMatrix,
    sources: [affinity::EntrySource; 3],
) -> CostModel {
    let measured = sources.iter().filter(|s| **s == affinity::EntrySource::Measured).count();
    let penalty_source = match measured {
        3 => CalibrationSource::Measured,
        0 => CalibrationSource::Analytic,
        _ => CalibrationSource::Partial,
    };
    CostModel {
        scan,
        scan_source: CalibrationSource::Measured,
        penalties,
        penalty_source,
        ..CostModel::default()
    }
}

/// §V-E scalability: deep-image (10× GloVe) — VDTuner vs qEHVI.
pub fn scale(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let methods = [Method::VdTuner, Method::Qehvi];
    let at_scale = Profile { iters: profile.scale_iters, ..*profile };
    let outs = runs.outcomes(&at_scale, &methods.map(|m| (m, DatasetKind::DeepImage)));
    let mut t = Table::new(vec![
        "method",
        "best QPS @ recall>0.9",
        "best QPS @ recall>0.99",
        "sim tuning secs",
    ]);
    for (m, out) in methods.iter().zip(&outs) {
        t.row(vec![
            m.name().to_string(),
            out.best_qps_with_recall(0.9).map_or("-".into(), f1),
            out.best_qps_with_recall(0.99).map_or("-".into(), f1),
            f1(out.total_replay_secs),
        ]);
    }
    // Speed improvement + time-to-parity ratio.
    let vd = &outs[0];
    let qe = &outs[1];
    if let Some(qe_best) = qe.best_qps_with_recall(0.99) {
        let improvement = vd.best_qps_with_recall(0.99).map(|v| v / qe_best - 1.0).unwrap_or(0.0);
        let vd_secs = vd.secs_to_reach(qe_best, 0.99);
        let qe_secs: f64 = qe.observations.iter().map(|o| o.replay_secs + o.recommend_secs).sum();
        t.row(vec![
            "VDTuner advantage".to_string(),
            pct(improvement),
            "-".into(),
            vd_secs.map_or("-".into(), |s| format!("{:.1}x faster", qe_secs / s.max(1e-9))),
        ]);
    }
    emit("scale", "Scalability (§V-E): deep-image, VDTuner vs qEHVI", &t)
}

/// One timed kernel measurement: median-of-reps wall-clock throughput in
/// millions of dimension units per second (Mdim/s). The work closure
/// returns a checksum that is black-boxed so the optimizer cannot elide
/// the scan.
fn measure_mdps<F: FnMut() -> f32>(dims_per_rep: usize, reps: usize, mut work: F) -> f64 {
    // Warm up caches and the dispatch cell outside the timed region.
    std::hint::black_box(work());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now();
        std::hint::black_box(work());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    // Best-of-reps is the standard microbench estimator (least interference
    // noise); guard against timer granularity returning zero.
    dims_per_rep as f64 / best.max(1e-9) / 1e6
}

/// ns per dimension unit implied by a Mdim/s throughput.
fn ns_per_dim(mdps: f64) -> f64 {
    (1_000.0 / mdps.max(1e-9)).max(1e-4)
}

/// Timed repetitions per kernel measurement at `profile`'s budget.
fn timing_reps(profile: &Profile) -> usize {
    (profile.iters / 10).clamp(3, 20)
}

/// This host's scan throughputs on a GloVe replay: the dispatched f32
/// scan and the SQ8 scan in Mdim/s, PQ ADC lookups in millions per
/// second, and the SQ8 scan's recall against exact top-10.
struct ScanMeasurement {
    f32_mdps: f64,
    sq8_mdps: f64,
    pq_mlps: f64,
    recall_sq8: f64,
}

impl ScanMeasurement {
    /// The cost-model scan constants the throughputs imply.
    fn unit_costs(&self) -> ScanUnitCosts {
        ScanUnitCosts {
            f32_dim_ns: ns_per_dim(self.f32_mdps),
            u8_dim_ns: ns_per_dim(self.sq8_mdps),
            pq_lookup_ns: ns_per_dim(self.pq_mlps),
        }
    }
}

/// Measure the three scans behind the cost model's scan constants on `ds`
/// (up to 32 of its queries): the one measurement `kernels` records and
/// `reactors` prices with.
fn measure_scans(ds: &vecdata::Dataset, profile: &Profile) -> ScanMeasurement {
    use anns::ivf_pq::ProductQuantizer;
    use anns::ivf_sq8::ScalarQuantizer;
    use vecdata::ground_truth::{recall, TopK};

    let dispatched = vecdata::kernel::select(false);
    let reps = timing_reps(profile);
    let (dim, n) = (ds.dim(), ds.len());
    let sq = ScalarQuantizer::train(ds.raw(), dim);
    let mut codes = vec![0u8; n * dim];
    for i in 0..n {
        sq.encode(ds.vector(i), &mut codes[i * dim..(i + 1) * dim]);
    }
    let n_queries = ds.n_queries().min(32);
    let top_k = 10;
    let gt = vecdata::ground_truth(ds, top_k);
    let mut stats = anns::BuildStats::default();
    let pq = ProductQuantizer::train(ds.raw(), dim, 8, 8, profile.seed ^ 0xADC, &mut stats)
        .expect("48 % 8 == 0");
    let mut pq_codes = vec![0u8; n * pq.m];
    pq.encode(ds.raw(), &mut pq_codes);
    let mut scores: Vec<f32> = Vec::with_capacity(n);
    let mut f32_acc = 0.0f64;
    let mut sq8_acc = 0.0f64;
    let mut pq_acc = 0.0f64;
    let mut recall_acc = 0.0f64;
    for qi in 0..n_queries {
        let q = ds.query(qi);
        f32_acc += measure_mdps(n * dim, reps, || {
            dispatched.l2_sq_block(q, ds.raw(), dim, &mut scores);
            scores[n - 1]
        });
        sq8_acc += measure_mdps(n * dim, reps, || {
            dispatched.sq8_l2_block(q, &codes, &sq.mins, &sq.scales, dim, &mut scores);
            scores[n - 1]
        });
        // Recall of the quantized scan against exact ground truth (GloVe is
        // ingest-normalized, so L2 order == angular order).
        dispatched.sq8_l2_block(q, &codes, &sq.mins, &sq.scales, dim, &mut scores);
        let mut top = TopK::new(top_k);
        for (i, &d) in scores.iter().enumerate() {
            top.push(i as u32, d);
        }
        let ids: Vec<u32> = top.into_sorted().iter().map(|nb| nb.id).collect();
        recall_acc += recall(&ids, &gt[qi]);
        // PQ lookups through this query's ADC table: their time depends on
        // the table, so they are averaged over the same queries as the scans.
        let table = pq.adc_table(q, &mut anns::SearchCost::default());
        pq_acc += measure_mdps(n * pq.m, reps, || {
            let mut acc = 0.0f32;
            for code in pq_codes.chunks_exact(pq.m) {
                acc += pq.adc_distance(&table, code);
            }
            acc
        });
    }

    ScanMeasurement {
        f32_mdps: f32_acc / n_queries as f64,
        sq8_mdps: sq8_acc / n_queries as f64,
        pq_mlps: pq_acc / n_queries as f64,
        recall_sq8: recall_acc / n_queries as f64,
    }
}

/// Kernel calibration (beyond the paper): measured scalar-vs-dispatched
/// distance-kernel throughput per (metric, dim), SQ8-vs-f32 quantized scan
/// throughput and recall delta on a GloVe replay, and the cost-model scan
/// constants derived from those measurements (`measure_scans`, what
/// `reactors` prices with). Written to `results/kernels.json` by the
/// `emit_json` call at the end.
pub fn kernels(profile: &Profile, _runs: &Runs) -> io::Result<()> {
    use vecdata::kernel;
    use vecdata::rng::{derive, fill_gaussian, rng};

    let scalar = kernel::select(true);
    let dispatched = kernel::select(false);
    let reps = timing_reps(profile);
    let rows = 2048usize;

    // --- f32 kernels: scalar vs dispatched per (metric, dim). ---
    let dims = [16usize, 48, 96, 128, 200];
    let metrics = ["l2", "dot", "angular"];
    let mut t = Table::new(vec!["metric", "dim", "scalar Mdim/s", "dispatched Mdim/s", "speedup"]);
    // Every measurement row: what ran, its width, baseline and contender
    // throughput, and the ratio with its context.
    let mut row = |what: &str, width: usize, base: f64, new: f64, note: String| {
        t.row(vec![what.to_string(), width.to_string(), f1(base), f1(new), note]);
    };
    let mut f32_rows: Vec<JsonValue> = Vec::new();
    for (mi, &metric) in metrics.iter().enumerate() {
        for (di, &dim) in dims.iter().enumerate() {
            let mut r = rng(derive(profile.seed, 0x6e00 + (mi * 16 + di) as u64));
            let mut query = vec![0.0f32; dim];
            let mut block = vec![0.0f32; rows * dim];
            fill_gaussian(&mut r, &mut query, 0.0, 1.0);
            fill_gaussian(&mut r, &mut block, 0.0, 1.0);
            let run = |kern: kernel::Kernel| -> f64 {
                let mut scores = Vec::with_capacity(rows);
                match metric {
                    "l2" => measure_mdps(rows * dim, reps, || {
                        kern.l2_sq_block(&query, &block, dim, &mut scores);
                        scores[rows - 1]
                    }),
                    "dot" => measure_mdps(rows * dim, reps, || {
                        kern.dot_block(&query, &block, dim, &mut scores);
                        scores[rows - 1]
                    }),
                    // Angular is the fused three-accumulator pass: one call
                    // per row (no block form), 3x the dimension work.
                    _ => measure_mdps(rows * dim * 3, reps, || {
                        let mut acc = 0.0f32;
                        for row in block.chunks_exact(dim) {
                            let [aa, bb, ab] = kern.dot3(&query, row);
                            acc += aa + bb + ab;
                        }
                        acc
                    }),
                }
            };
            let s = run(scalar);
            let d = run(dispatched);
            row(metric, dim, s, d, format!("{:.2}x", d / s.max(1e-9)));
            f32_rows.push(JsonValue::obj(vec![
                ("metric", JsonValue::Str(metric.into())),
                ("dim", JsonValue::Int(dim as i64)),
                ("scalar_mdps", JsonValue::Num(s)),
                ("dispatched_mdps", JsonValue::Num(d)),
                ("speedup", JsonValue::Num(d / s.max(1e-9))),
            ]));
        }
    }

    // --- f32 and SQ8 scans and PQ lookups on the GloVe replay. ---
    let ds = DatasetSpec::scaled(DatasetKind::Glove).generate();
    let scans = measure_scans(&ds, profile);
    let sq8_note = format!(
        "{:.2}x (recall {:.3})",
        scans.sq8_mdps / scans.f32_mdps.max(1e-9),
        scans.recall_sq8
    );
    row("sq8 scan", ds.dim(), scans.f32_mdps, scans.sq8_mdps, sq8_note);

    // --- Derived cost-model calibration (ns per SearchCost unit). ---
    let cal = scans.unit_costs();
    t.row(vec![
        "calibration (ns/unit)".to_string(),
        "-".to_string(),
        format!("f32 {:.3}", cal.f32_dim_ns),
        format!("u8 {:.3}", cal.u8_dim_ns),
        format!("pq {:.3}", cal.pq_lookup_ns),
    ]);
    emit("kernels", "Distance kernels: scalar vs dispatched + SQ8 scan", &t)?;
    let analytic = ScanUnitCosts::ANALYTIC;
    println!(
        "  dispatched kernel: {} (forced scalar: {}); analytic f32/u8/pq = {}/{}/{} ns",
        dispatched.name(),
        kernel::force_scalar_requested(),
        analytic.f32_dim_ns,
        analytic.u8_dim_ns,
        analytic.pq_lookup_ns,
    );
    emit_json(
        "kernels",
        &JsonValue::obj(vec![
            ("experiment", JsonValue::Str("kernels".into())),
            ("seed", JsonValue::Int(profile.seed as i64)),
            ("dispatched_kernel", JsonValue::Str(dispatched.name().into())),
            ("forced_scalar", JsonValue::Bool(kernel::force_scalar_requested())),
            ("f32", JsonValue::Arr(f32_rows)),
            (
                "sq8",
                JsonValue::obj(vec![
                    ("dataset", JsonValue::Str("GloVe (scaled)".into())),
                    ("f32_scan_mdps", JsonValue::Num(scans.f32_mdps)),
                    ("sq8_scan_mdps", JsonValue::Num(scans.sq8_mdps)),
                    ("speedup", JsonValue::Num(scans.sq8_mdps / scans.f32_mdps.max(1e-9))),
                    ("recall_sq8", JsonValue::Num(scans.recall_sq8)),
                    ("recall_delta", JsonValue::Num(1.0 - scans.recall_sq8)),
                ]),
            ),
            ("calibration", scan_json(&cal, CalibrationSource::Measured)),
        ]),
    )
}

/// Scan constants as a JSON record: ns per [`anns::SearchCost`] unit and
/// where they came from (`kernels.json`'s `calibration` block,
/// `reactors.json`'s `tuning_scan`).
fn scan_json(scan: &ScanUnitCosts, source: CalibrationSource) -> JsonValue {
    JsonValue::obj(vec![
        ("f32_dim_ns", JsonValue::Num(scan.f32_dim_ns)),
        ("u8_dim_ns", JsonValue::Num(scan.u8_dim_ns)),
        ("pq_lookup_ns", JsonValue::Num(scan.pq_lookup_ns)),
        ("source", JsonValue::Str(source.name().into())),
    ])
}

/// Real write path (beyond the paper): WAL group commit + segment
/// lifecycle under mixed read/write traffic — 22-dimensional co-tuning of
/// the write knobs (group-commit batch, flush deadline, seal threshold)
/// under a serving SLO, against fixed-flush arms — every arm the same
/// tuner, budget and seed, each served by the backend its space realizes
/// ([`SpaceSpec::backend`]), differing only in whether the three write
/// dimensions are free or pinned.
///
/// Inserts arrive as first-class events alongside queries
/// ([`ServingSpec::insert_fraction`]): each one is admitted to a WAL whose
/// group commits, segment seals and compactions occupy the same primary
/// worker slots queries run on, so eager flushing taxes the read tail
/// while lazy flushing parks admissions against the primary queue and
/// sheds under bursts. The experiment also checks two contracts in-run:
/// freezing the write dimensions at [`WriteKnobs::DEFAULT`] reproduces the
/// 19-dim pinning tuning history bit for bit, and a zero write rate
/// degrades the mixed simulator to the read-only one bit for bit, and
/// fails if either does not hold. Written to `results/writepath.json` by
/// the `emit_json` call at the end + CSVs, pinned by
/// `crates/bench/repro_iters10.sha256`.
pub fn writepath(profile: &Profile, runs: &Runs) -> io::Result<()> {
    let w = runs.workload(DatasetKind::Glove);
    let max_shards = 4usize;
    let max_replicas = 4usize;
    let insert_fraction = 0.5;

    // The fixed-flush arms: an eager policy — the low corner of the
    // co-tunable write ranges (tiny commits, tight deadline, small
    // segments: the fsync cost amortizes over only 16 rows and every
    // 128th insert pays a seal, so durability work steals a steady
    // fraction of the primary's slots) — a lazy one (huge commits, slack
    // deadline — long parks and shed bursts under load), and the backend
    // defaults, which double as the frozen-equivalence arm.
    let fixed_knobs: [(&str, WriteKnobs); 3] = [
        (
            "eager-flush",
            WriteKnobs { wal_batch_rows: 16, flush_interval_secs: 0.005, seal_rows: 128 },
        ),
        (
            "lazy-flush",
            WriteKnobs { wal_batch_rows: 1024, flush_interval_secs: 0.2, seal_rows: 4096 },
        ),
        ("default-flush", WriteKnobs::DEFAULT),
    ];
    let knobs_json = |k: &WriteKnobs| {
        vec![
            ("wal_batch_rows".to_string(), JsonValue::Int(k.wal_batch_rows as i64)),
            ("flush_interval_secs".to_string(), JsonValue::Num(k.flush_interval_secs)),
            ("seal_rows".to_string(), JsonValue::Int(k.seal_rows as i64)),
        ]
    };
    let base_spec =
        ServingSpec { queue_capacity: 32, ..ServingSpec::default() }.with_inserts(insert_fraction);
    let space19 =
        || SpaceSpec::with_topology(max_shards).with_replication(max_replicas).with_pinning();

    let wide = space19().with_writepath();
    let run = CoTuning {
        workload: w,
        // The arrival ladder is anchored on the default configuration's
        // offline QPS, topped well below the replication experiment's 18×
        // — every arriving unit of work here is ~1.5 requests (each query
        // brings `insert_fraction` inserts on top), and write durability
        // competes for the same primary slots, so the same nominal rate
        // runs much hotter.
        ladder: [2.0, 4.0, 8.0],
        base_spec,
        fixed: fixed_knobs
            .iter()
            .map(|(name, k)| FixedArm {
                name: name.to_string(),
                pin: format!(
                    "pinned batch={} flush={}s seal={}",
                    k.wal_batch_rows, k.flush_interval_secs, k.seal_rows
                ),
                space: space19().with_pinned_writepath(*k),
                json: std::iter::once(("name".to_string(), JsonValue::Str((*name).into())))
                    .chain(knobs_json(k))
                    .collect(),
            })
            .collect(),
        cotuned: ("co-tuned write knobs (22-dim)".into(), wide.clone()),
        // Frozen-knobs contract: the default-flush arm *is* the 22-dim
        // spec with the write dimensions frozen at the defaults, and must
        // reproduce the 19-dim pinning history bit for bit.
        reference: space19(),
        frozen_arm: 2,
        strip: |c| VdmsConfig { writepath: None, ..c },
    }
    .run(profile, runs);

    // Write-rate→0 contract: with no inserts offered, the mixed
    // simulator (write-path request or not) is the read-only serving
    // backend bit for bit, down to a zeroed write ledger.
    let write_rate_zero_matches = {
        let quiet_spec = base_spec.at_rate(run.rates[0]).with_inserts(0.0);
        let eval = |wp: Option<WriteKnobs>| {
            let cfg = VdmsConfig { writepath: wp, ..VdmsConfig::default_config() };
            wide.backend(w).serving(quiet_spec).evaluate(&cfg, profile.seed)
        };
        let requested = eval(Some(WriteKnobs::DEFAULT));
        let unrequested = eval(None);
        requested == unrequested
            && requested.serving.is_some_and(|s| s.writes == WriteStats::default())
    };

    emit(
        "writepath",
        &run.title(
            "Write-path co-tuning: WAL/segment knobs as dimensions 20-22",
            &format!("{:.0}% inserts", insert_fraction * 100.0),
        ),
        &run.arm_table(),
    )?;
    // The ladder reports the raw tails next to the write ledger.
    emit(
        "writepath_ladder",
        "Write-path arms measured across the arrival ladder",
        &run.ladder_table(&[
            ("p99 (ms)", |s| ms(s.p99_latency_secs)),
            ("goodput", |s| f1(s.goodput_qps)),
            ("shed", |s| s.shed.to_string()),
            ("full-batch flushes", |s| s.writes.flushes_full_batch.to_string()),
            ("end-of-tick flushes", |s| s.writes.flushes_end_of_tick.to_string()),
            ("seals", |s| s.writes.segments_sealed.to_string()),
            ("compactions", |s| s.writes.compactions.to_string()),
        ]),
    )?;

    // Verdict: the co-tuned winner's measured goodput at the top rate
    // against the best fixed-flush arm's that meets the SLO there.
    let cmp =
        [run.compare("goodput @ top rate", Better::Higher, |_, top| top.map(|s| s.goodput_qps))];
    let contracts = [
        ("frozen write knobs ≡ 19-dim (bitwise)", run.frozen_matches),
        ("write rate 0 ≡ read-only (bitwise)", write_rate_zero_matches),
    ];
    emit(
        "writepath_verdict",
        "Write-path co-tuning vs fixed-flush arms (same budget)",
        &Comparison::table(&cmp, &contracts),
    )?;

    let best_knobs = best_config(&run.cotuned().outcome, RECALL_FLOOR).and_then(|c| c.writepath);
    let mut doc = vec![("experiment".to_string(), JsonValue::Str("writepath".into()))];
    doc.extend(run.json_head());
    doc.push(("insert_fraction".into(), JsonValue::Num(insert_fraction)));
    doc.extend(run.json_arms(
        "frozen_matches_19dim",
        ("best_knobs", best_knobs.map_or(JsonValue::Null, |k| JsonValue::Obj(knobs_json(&k)))),
        // Every measured row also carries the winner's write ledger.
        &[
            ("flushes_full_batch", |s| JsonValue::Int(s.writes.flushes_full_batch as i64)),
            ("flushes_end_of_tick", |s| JsonValue::Int(s.writes.flushes_end_of_tick as i64)),
            ("segments_sealed", |s| JsonValue::Int(s.writes.segments_sealed as i64)),
            ("compactions", |s| JsonValue::Int(s.writes.compactions as i64)),
            ("inserts_shed", |s| JsonValue::Int(s.writes.shed as i64)),
        ],
    ));
    doc.push(("write_rate_zero_matches".into(), JsonValue::Bool(write_rate_zero_matches)));
    doc.push(("comparison".into(), Comparison::json(&cmp)));
    emit_json("writepath", &JsonValue::Obj(doc))?;
    contracts_hold(&contracts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_host_model_carries_its_measurements_and_their_provenance() {
        use affinity::EntrySource::{Analytic as A, Measured as M};
        let scan = ScanUnitCosts {
            f32_dim_ns: 0.09287532167043651,
            u8_dim_ns: 0.5025146517762779,
            pq_lookup_ns: 1.718765625,
        };
        let penalties = PenaltyMatrix { same_core_smt: 1.62, same_socket: 1.05, cross_socket: 2.0 };
        let default = CostModel::default();
        for (sources, want) in [
            ([M, M, M], CalibrationSource::Measured),
            ([A, A, A], CalibrationSource::Analytic),
            ([M, A, A], CalibrationSource::Partial),
            ([A, M, M], CalibrationSource::Partial),
        ] {
            let model = host_cost_model(scan, penalties, sources);
            assert_eq!(model.penalty_source, want, "{sources:?}");
            assert_eq!(model.scan_source, CalibrationSource::Measured);
            assert_eq!(model.scan, scan);
            assert_eq!(model.penalties, penalties);
            // Everything else is the default model's.
            assert_eq!(model.topology, default.topology);
        }
        // What the benchmark's fingerprint prints for its default model.
        assert_eq!(default.scan_source.name(), "analytic");
        assert_eq!(default.penalty_source.name(), "analytic");
    }
}
