//! The co-tuning experiment driver (beyond the paper): one deployment
//! dimension — replicas, reactor pinning, the write knobs — tuned jointly
//! with the index/system knobs under a serving SLO, against arms that pin
//! it. A [`CoTuning`] descriptor says which dimension is free;
//! [`CoTuning::run`] is the one program every such experiment shares:
//!
//! 1. build an arrival-rate ladder anchored on the default configuration's
//!    offline QPS (the top rung is the tuning/SLO rate);
//! 2. run every fixed arm, the co-tuned arm and the narrower-space
//!    reference in parallel through [`Runs::tune`] — same tuner, budget and
//!    seed, each arm served by the backend its space realizes
//!    ([`SpaceSpec::backend`]);
//! 3. check the frozen-dimension contract: the designated fixed arm must
//!    reproduce the reference history bit for bit
//!    ([`TuningOutcome::fingerprint`]);
//! 4. measure every arm's deployable winner across the ladder without an
//!    SLO — the raw tails.
//!
//! The ladder is a held-out measurement: `VdTuner::run_on` observes under
//! `derive(seed, 0xEBA1)`, [`measure_ladder`] at `profile.seed`. So a
//! winner that met the SLO in tuning can miss it at the top rate (a 1-CPU
//! `reactors` run measured its winner at the 1,000 ms timeout ceiling),
//! and [`at_top`] reads a winner only where it meets the tuning SLO.
//!
//! The [`CoTuningRun`] it returns renders the shared arm / ladder tables
//! and JSON sections and builds each verdict [`Comparison`]; an experiment
//! adds only its titles, comparisons, contract rows and extra keys. The
//! ladder, measured-row, per-arm JSON and budget helpers are free
//! functions so `serving` and `topology` share them.

use crate::comparison::{Better, Comparison};
use crate::report::{f1, ms, JsonValue, Table};
use crate::{run_parallel, Method, Profile, Runs};
use vdms::VdmsConfig;
use vdtuner_core::{SpaceSpec, TuningOutcome};
use workload::{evaluate, EvalBackend, ServingSpec, ServingStats, Workload};

/// p99 service-level objective (seconds) the serving-tuned arms enforce.
pub const SERVING_SLO_P99_SECS: f64 = 0.025;

/// Recall floor a configuration must meet to count as deployable.
pub const RECALL_FLOOR: f64 = 0.9;

/// Verdict metrics more than one experiment compares on.
pub const BEST_QPS: &str = "best QPS @0.9";
pub const TOP_P99_MS: &str = "p99 @ top rate (ms)";

/// One ladder-table column: header and cell.
pub type LadderColumn = (&'static str, fn(&ServingStats) -> String);

/// One key of a `measured` JSON row; every key is `null` for an arm with
/// no deployable winner.
pub type MeasuredField = (&'static str, fn(&ServingStats) -> JsonValue);

/// The ladder columns of a read-only co-tuning experiment.
pub const LATENCY_LADDER: [LadderColumn; 5] = [
    ("p50 (ms)", |s| ms(s.p50_latency_secs)),
    ("p99 (ms)", |s| ms(s.p99_latency_secs)),
    ("goodput", |s| f1(s.goodput_qps)),
    ("shed", |s| s.shed.to_string()),
    ("timeouts", |s| s.timeouts.to_string()),
];

/// The `measured` keys every co-tuning arm reports per rate.
const MEASURED_FIELDS: [MeasuredField; 3] = [
    ("p99_ms", |s| JsonValue::opt_finite(Some(p99_ms(s)))),
    ("goodput_qps", |s| JsonValue::opt_finite(Some(s.goodput_qps))),
    ("shed", |s| JsonValue::Int(s.shed as i64)),
];

/// The single configuration a tuning run would deploy: the best-QPS
/// observation meeting the recall floor.
pub fn best_config(out: &TuningOutcome, floor: f64) -> Option<VdmsConfig> {
    out.observations
        .iter()
        .filter(|o| !o.failed && o.recall >= floor)
        .max_by(|a, b| a.qps.total_cmp(&b.qps))
        .map(|o| o.config)
}

/// Serve `winner` at every rate of the ladder (`None`: the arm has nothing
/// to deploy, so nothing is measured).
pub fn measure_ladder<B: EvalBackend>(
    winner: Option<&VdmsConfig>,
    rates: &[f64],
    seed: u64,
    backend_at: impl Fn(f64) -> B,
) -> Vec<Option<ServingStats>> {
    rates
        .iter()
        .map(|&rate| winner.and_then(|c| backend_at(rate).evaluate(c, seed).serving))
        .collect()
}

/// p99 latency in the reported unit, ms.
pub fn p99_ms(s: &ServingStats) -> f64 {
    s.p99_latency_secs * 1_000.0
}

/// A winner's stats at the top (last) rate of its ladder: `None` when it
/// has no measurement there or that measurement violates `spec`'s SLO
/// ([`ServingStats::violates_slo`]) — a winner is feasible at the rate it
/// is judged at, or it has no reading.
pub fn at_top<'a>(
    measured: &'a [Option<ServingStats>],
    spec: &ServingSpec,
) -> Option<&'a ServingStats> {
    measured.last()?.as_ref().filter(|s| !s.violates_slo(spec))
}

/// The ladder table: one row per (rate, arm), rate-major, `-` cells for an
/// arm with no measurement.
pub fn ladder_table(
    rates: &[f64],
    arms: &[(&str, &[Option<ServingStats>])],
    columns: &[LadderColumn],
) -> Table {
    let mut t = Table::new(
        ["arrival rate (req/s)", "arm"]
            .into_iter()
            .chain(columns.iter().map(|c| c.0))
            .collect::<Vec<&str>>(),
    );
    for (ri, &rate) in rates.iter().enumerate() {
        for (label, measured) in arms {
            let cells = columns.iter().map(|c| measured[ri].as_ref().map_or("-".into(), c.1));
            t.row([f1(rate), label.to_string()].into_iter().chain(cells).collect());
        }
    }
    t
}

/// The `measured` JSON array: one object per rate, `rate` first.
pub fn measured_json(
    rates: &[f64],
    measured: &[Option<ServingStats>],
    fields: &[MeasuredField],
) -> JsonValue {
    let row = |(&rate, s): (&f64, &Option<ServingStats>)| {
        let values = fields.iter().map(|f| (f.0, s.as_ref().map_or(JsonValue::Null, f.1)));
        JsonValue::obj(std::iter::once(("rate", JsonValue::Num(rate))).chain(values).collect())
    };
    JsonValue::Arr(rates.iter().zip(measured).map(row).collect())
}

/// One arm's JSON keys: what its tuning run found under the recall floor,
/// and its winner measured across the ladder.
pub fn arm_json(
    out: &TuningOutcome,
    rates: &[f64],
    measured: &[Option<ServingStats>],
    fields: &[MeasuredField],
) -> Vec<(String, JsonValue)> {
    let best_p99 = out.best_p99_with_recall(RECALL_FLOOR).map(|p| p * 1_000.0);
    let failed = out.observations.iter().filter(|o| o.failed).count();
    vec![
        ("best_qps".into(), JsonValue::opt_num(out.best_qps_with_recall(RECALL_FLOOR))),
        ("best_p99_ms".into(), JsonValue::opt_finite(best_p99)),
        (
            "best_config".into(),
            best_config(out, RECALL_FLOOR).map_or(JsonValue::Null, |c| JsonValue::Str(c.summary())),
        ),
        ("slo_rejections".into(), JsonValue::Int(out.slo_rejections() as i64)),
        ("failed".into(), JsonValue::Int(failed as i64)),
        ("measured".into(), measured_json(rates, measured, fields)),
    ]
}

/// Where a co-tuned run spent its budget along the free dimension:
/// evaluations per bucket (`bucket` maps a configuration to an index into
/// `labels`) and the best feasible QPS found there.
pub fn budget_table(
    out: &TuningOutcome,
    key: &str,
    noun: &str,
    labels: Vec<String>,
    bucket: impl Fn(&VdmsConfig) -> usize,
) -> (Vec<usize>, Table) {
    let mut hist = vec![0usize; labels.len()];
    for o in &out.observations {
        hist[bucket(&o.config)] += 1;
    }
    let mut t =
        Table::new(vec![key.to_string(), "evals".into(), format!("best QPS @0.9 at this {noun}")]);
    for (i, label) in labels.into_iter().enumerate() {
        let best_at = out
            .observations
            .iter()
            .filter(|o| !o.failed && o.recall >= RECALL_FLOOR && bucket(&o.config) == i)
            .map(|o| o.qps)
            .reduce(f64::max);
        t.row(vec![label, hist[i].to_string(), best_at.map_or("-".into(), f1)]);
    }
    (hist, t)
}

/// An arm with the free dimension pinned.
pub struct FixedArm {
    /// Short name, used in verdict rows (`fixed 1-replica`).
    pub name: String,
    /// What is pinned; the table label is `<name> (<pin>)`.
    pub pin: String,
    /// The co-tuned space with the free dimension frozen.
    pub space: SpaceSpec,
    /// Keys identifying the pin; they lead the arm's JSON object.
    pub json: Vec<(String, JsonValue)>,
}

/// One co-tuning experiment: which dimension is free and what it is held
/// against. Everything else is [`CoTuning::run`].
pub struct CoTuning<'w> {
    pub workload: &'w Workload,
    /// Arrival rates as multiples of the default configuration's offline
    /// QPS, ascending; the last is the tuning/SLO rate.
    pub ladder: [f64; 3],
    pub base_spec: ServingSpec,
    pub fixed: Vec<FixedArm>,
    /// The co-tuned arm's table label and space; its deployment ceilings
    /// are the experiment's.
    pub cotuned: (String, SpaceSpec),
    /// The narrower space without the free dimension: the history
    /// `fixed[frozen_arm]` must reproduce.
    pub reference: SpaceSpec,
    pub frozen_arm: usize,
    /// Clears the free dimension's request, which differs between the
    /// frozen arm and the reference by construction.
    pub strip: fn(VdmsConfig) -> VdmsConfig,
}

/// One arm's tuning run and its winner's ladder measurements.
pub struct ArmRun {
    pub name: String,
    pub label: String,
    json: Vec<(String, JsonValue)>,
    pub outcome: TuningOutcome,
    /// The deployable winner at each ladder rate (`None`: no winner).
    pub measured: Vec<Option<ServingStats>>,
}

/// Everything a co-tuning experiment produced.
pub struct CoTuningRun {
    pub rates: Vec<f64>,
    /// The fixed arms in descriptor order, then the co-tuned arm.
    pub arms: Vec<ArmRun>,
    /// Whether the frozen arm reproduced the reference history bitwise.
    pub frozen_matches: bool,
    /// The spec every arm was tuned under: the top rate and the SLO.
    tune_spec: ServingSpec,
    dataset: &'static str,
    profile: Profile,
    max_shards: usize,
    max_replicas: usize,
}

impl<'w> CoTuning<'w> {
    pub fn run(self, profile: &Profile, runs: &Runs) -> CoTuningRun {
        let CoTuning { workload: w, base_spec, .. } = self;
        let anchor = evaluate(w, &VdmsConfig::default_config(), profile.seed).qps;
        let rates: Vec<f64> = self.ladder.iter().map(|m| m * anchor).collect();
        let tune_spec = base_spec.at_rate(rates[rates.len() - 1]).with_slo(SERVING_SLO_P99_SECS);
        let serve = |space: &SpaceSpec, spec: ServingSpec| space.backend(w).serving(spec);

        let jobs: Vec<&SpaceSpec> = self
            .fixed
            .iter()
            .map(|arm| &arm.space)
            .chain([&self.cotuned.1, &self.reference])
            .collect();
        let mut outcomes = run_parallel(jobs, |&space| {
            let arm = Method::VdTuner.arm(profile.iters);
            runs.tune(arm, space.clone(), serve(space, tune_spec), profile.iters, profile.seed)
        });
        let reference = outcomes.pop().expect("the reference run is the last job");
        let frozen_matches =
            outcomes[self.frozen_arm].fingerprint(self.strip) == reference.fingerprint(self.strip);

        let (max_shards, max_replicas) =
            (self.cotuned.1.max_shards(), self.cotuned.1.max_replicas());
        let arms: Vec<ArmRun> = self
            .fixed
            .into_iter()
            .map(|arm| (format!("{} ({})", arm.name, arm.pin), arm.name, arm.json, arm.space))
            .chain([(self.cotuned.0, "co-tuned".to_string(), Vec::new(), self.cotuned.1)])
            .zip(outcomes)
            .map(|((label, name, json, space), outcome)| {
                let winner = best_config(&outcome, RECALL_FLOOR);
                let measured = measure_ladder(winner.as_ref(), &rates, profile.seed, |rate| {
                    serve(&space, base_spec.at_rate(rate))
                });
                ArmRun { name, label, json, outcome, measured }
            })
            .collect();
        CoTuningRun {
            rates,
            arms,
            frozen_matches,
            tune_spec,
            dataset: w.dataset.spec.kind.name(),
            profile: *profile,
            max_shards,
            max_replicas,
        }
    }
}

impl CoTuningRun {
    pub fn cotuned(&self) -> &ArmRun {
        self.arms.last().expect("the co-tuned arm")
    }

    pub fn fixed(&self) -> &[ArmRun] {
        &self.arms[..self.arms.len() - 1]
    }

    /// The co-tuned arm against every fixed arm on one reading per arm:
    /// `read` gets the arm's tuning outcome and its winner's stats
    /// [`at_top`] under the tuning spec.
    pub fn compare(
        &self,
        metric: &'static str,
        better: Better,
        read: impl Fn(&TuningOutcome, Option<&ServingStats>) -> Option<f64>,
    ) -> Comparison {
        let reading = |arm: &ArmRun| {
            (arm.name.clone(), read(&arm.outcome, at_top(&arm.measured, &self.tune_spec)))
        };
        let rivals = self.fixed().iter().map(reading).collect();
        Comparison { metric, better, subject: reading(self.cotuned()), rivals }
    }

    /// The arm table's title: `<headline>, N evals/run (<dataset>,
    /// [<scenario>, ]SLO p99 <= 25 ms at 12345 req/s)`.
    pub fn title(&self, headline: &str, scenario: &str) -> String {
        let sep = if scenario.is_empty() { "" } else { ", " };
        format!(
            "{headline}, {} evals/run ({}, {scenario}{sep}SLO p99 <= {:.0} ms at {:.0} req/s)",
            self.profile.iters,
            self.dataset,
            SERVING_SLO_P99_SECS * 1_000.0,
            self.rates[self.rates.len() - 1]
        )
    }

    /// The arm summary: what each tuning run found under the SLO.
    pub fn arm_table(&self) -> Table {
        let mut t = Table::new(vec![
            "arm",
            "best QPS @0.9 (SLO'd)",
            "lowest p99 @0.9 (ms)",
            "SLO rejections",
            "winner",
        ]);
        for arm in &self.arms {
            let out = &arm.outcome;
            t.row(vec![
                arm.label.clone(),
                out.best_qps_with_recall(RECALL_FLOOR).map_or("-".into(), f1),
                out.best_p99_with_recall(RECALL_FLOOR).map_or("-".into(), ms),
                format!("{}/{}", out.slo_rejections(), out.observations.len()),
                best_config(out, RECALL_FLOOR).map_or("-".into(), |c| c.summary()),
            ]);
        }
        t
    }

    pub fn ladder_table(&self, columns: &[LadderColumn]) -> Table {
        let arms: Vec<(&str, &[Option<ServingStats>])> =
            self.arms.iter().map(|a| (a.label.as_str(), a.measured.as_slice())).collect();
        ladder_table(&self.rates, &arms, columns)
    }

    /// JSON section: what was run.
    pub fn json_head(&self) -> Vec<(String, JsonValue)> {
        vec![
            ("dataset".into(), JsonValue::Str(self.dataset.into())),
            ("iters_per_run".into(), JsonValue::Int(self.profile.iters as i64)),
            ("seed".into(), JsonValue::Int(self.profile.seed as i64)),
            ("recall_floor".into(), JsonValue::Num(RECALL_FLOOR)),
            ("slo_p99_ms".into(), JsonValue::Num(SERVING_SLO_P99_SECS * 1_000.0)),
        ]
    }

    /// JSON section: the deployment ceilings, the ladder, every arm, and
    /// the frozen-dimension flag under `frozen_key`. `cotuned_extra` closes
    /// the co-tuned arm's object; `extra_measured` extends every
    /// `measured` row.
    pub fn json_arms(
        &self,
        frozen_key: &str,
        cotuned_extra: (&str, JsonValue),
        extra_measured: &[MeasuredField],
    ) -> Vec<(String, JsonValue)> {
        let fields = [&MEASURED_FIELDS[..], extra_measured].concat();
        let keys = |arm: &ArmRun| {
            let mut pairs = arm.json.clone();
            pairs.extend(arm_json(&arm.outcome, &self.rates, &arm.measured, &fields));
            pairs
        };
        let mut cotuned = keys(self.cotuned());
        cotuned.push((cotuned_extra.0.into(), cotuned_extra.1));
        vec![
            ("max_shards".into(), JsonValue::Int(self.max_shards as i64)),
            ("max_replicas".into(), JsonValue::Int(self.max_replicas as i64)),
            (
                "rates".into(),
                JsonValue::Arr(self.rates.iter().map(|&r| JsonValue::Num(r)).collect()),
            ),
            (
                "fixed".into(),
                JsonValue::Arr(self.fixed().iter().map(|a| JsonValue::Obj(keys(a))).collect()),
            ),
            ("cotuned".into(), JsonValue::Obj(cotuned)),
            (frozen_key.into(), JsonValue::Bool(self.frozen_matches)),
        ]
    }
}
