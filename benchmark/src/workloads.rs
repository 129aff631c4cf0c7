//! The four workloads. Each is a panel of tuning runs through
//! `VdTuner::with_space(..).run_batched_on(backend, iters, q)`; they differ
//! in which layer does the work.

use vdms::VdmsConfig;
use vdtuner_core::{BudgetAllocation, SpaceSpec, TunerOptions, VdTuner};
use vecdata::rng::derive;
use vecdata::{DatasetKind, DatasetSpec};
use workload::{
    evaluate, EvalBackend, ServingBackend, ServingSpec, SimBackend, TopologyBackend, Workload,
};

/// Seed of every panel: dataset seed `derive(PANEL_SEED, 0xDA7A)`, tuner
/// seed of tune `i` `derive(PANEL_SEED, i)`.
///
/// The panel does not follow `--seed`. A tuning run is chaotic in its
/// inputs: across dataset and tuner seeds one 60-iteration `offline-16d`
/// tune took 4.5 to 38 s on the reference host, because the trajectory
/// decides how many HNSW builds it pays for, and even thirty tunes per run
/// would not average that below the regression bounds. Runs at different
/// `--seed` must do the same work to be comparable, so the seed only rotates
/// the order of the panel's tunes and draws the layer probes' inputs.
pub const PANEL_SEED: u64 = 42;

/// `BENCHMARK.json`'s `run_seconds`: the measured phase of every workload is
/// sized to about this long on the reference host (2 cores, 2.1 GHz Xeon).
pub const NOMINAL_SECONDS: u64 = 24;

/// Shards and replicas the 22-dimensional space and its backends go up to.
const MAX_SHARDS: usize = 4;
const MAX_REPLICAS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scale {
    /// `DatasetSpec::scaled(Glove)`: n = 8 000, dim 48, 100 queries, top-100.
    Scaled,
    /// `DatasetSpec::tiny(Glove)`: n = 600, dim 16, 20 queries, top-60.
    Tiny,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stack {
    /// `SimBackend`: single node, offline replay.
    Sim,
    /// `TopologyBackend::with_writepath`, no serving phase.
    Topology,
    /// `ServingBackend` over the topology backend: `requests` per
    /// evaluation arriving at `rate_x_anchor` times the default
    /// configuration's QPS, half as many inserts, 25 ms p99 SLO.
    Serving { requests: usize, rate_x_anchor: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists, its sizes.
    pub why: &'static str,
    pub scale: Scale,
    /// The 22-dimensional space (topology, replication, pinning, write
    /// path) rather than the paper's 16.
    pub wide: bool,
    pub stack: Stack,
    /// Candidates proposed and evaluated per step.
    pub q: usize,
    pub tunes: usize,
    pub iters: usize,
}

pub const ALL: [Def; 4] = [
    Def {
        name: "offline-16d",
        why: "The paper's setting: 16 dims, scaled GloVe (n=8000, dim 48), SimBackend, q=1, \
              3 tunes x 40 iterations; index build and search (anns, vdms, vecdata) dominate.",
        scale: Scale::Scaled,
        wide: false,
        stack: Stack::Sim,
        q: 1,
        tunes: 3,
        iters: 40,
    },
    Def {
        name: "surrogate-22d",
        why: "Long budget on the widest space: 22 dims, tiny GloVe (n=600), topology backend, \
              q=1, 1 tune x 180 iterations; GP fits and acquisition (core, gp, mobo) dominate.",
        scale: Scale::Tiny,
        wide: true,
        stack: Stack::Topology,
        q: 1,
        tunes: 1,
        iters: 180,
    },
    Def {
        name: "serving-longtrace-22d",
        why:
            "Long serving traces: 22 dims, tiny GloVe, 400k queries + 200k inserts per evaluation \
              at the anchor rate, q=1, 2 tunes x 40; the mixed event loop and WAL dominate.",
        scale: Scale::Tiny,
        wide: true,
        stack: Stack::Serving { requests: 400_000, rate_x_anchor: 1.0 },
        q: 1,
        tunes: 2,
        iters: 40,
    },
    Def {
        name: "cluster-batched-22d",
        why:
            "The co-tuned cluster arm: 22 dims, scaled GloVe, sharded loads and serving at 4x the \
              anchor rate, q=4 batches, 2 tunes x 76; parallel evaluation and batch proposals.",
        scale: Scale::Scaled,
        wide: true,
        stack: Stack::Serving { requests: 2_000, rate_x_anchor: 4.0 },
        q: 4,
        tunes: 2,
        iters: 76,
    },
];

pub fn find(name: &str) -> Option<&'static Def> {
    ALL.iter().find(|d| d.name == name)
}

/// What set-up produces: the dataset with its ground truth, and the
/// default configuration's QPS that serving rates are multiples of.
pub struct Prepared {
    pub w: Workload,
    pub anchor_qps: f64,
}

impl Def {
    pub fn dataset_spec(&self) -> DatasetSpec {
        let base = match self.scale {
            Scale::Scaled => DatasetSpec::scaled(DatasetKind::Glove),
            Scale::Tiny => DatasetSpec::tiny(DatasetKind::Glove),
        };
        DatasetSpec { seed: derive(PANEL_SEED, 0xDA7A), ..base }
    }

    /// Dataset generation, ground truth and the anchor evaluation.
    pub fn prepare(&self) -> Prepared {
        let w = Workload::paper_default(self.dataset_spec());
        let anchor_qps = evaluate(&w, &VdmsConfig::default_config(), PANEL_SEED).qps;
        Prepared { w, anchor_qps }
    }

    pub fn space(&self) -> SpaceSpec {
        if self.wide {
            SpaceSpec::with_topology(MAX_SHARDS)
                .with_replication(MAX_REPLICAS)
                .with_pinning()
                .with_writepath()
        } else {
            SpaceSpec::legacy()
        }
    }

    /// A fresh backend over the prepared dataset.
    pub fn backend<'a>(&self, p: &'a Prepared) -> Box<dyn EvalBackend + 'a> {
        let topology = TopologyBackend::with_writepath(&p.w, MAX_SHARDS, MAX_REPLICAS);
        match self.stack {
            Stack::Sim => Box::new(SimBackend::new(&p.w)),
            Stack::Topology => Box::new(topology),
            Stack::Serving { requests, rate_x_anchor } => {
                let spec = ServingSpec { requests, queue_capacity: 32, ..ServingSpec::default() }
                    .with_inserts(0.5)
                    .at_rate(rate_x_anchor * p.anchor_qps)
                    .with_slo(0.025);
                Box::new(ServingBackend::new(&p.w, topology, spec))
            }
        }
    }

    pub fn tuner_seed(&self, tune: usize) -> u64 {
        derive(PANEL_SEED, tune as u64)
    }

    /// The tuner of `tune`, budgeted for `iters` evaluations: the paper's
    /// options, with the abandon window scaled to the budget.
    pub fn tuner(&self, tune: usize, iters: usize) -> VdTuner {
        let options = TunerOptions {
            budget: BudgetAllocation::SuccessiveAbandon { window: (iters / 20).clamp(3, 10) },
            ..TunerOptions::default()
        };
        VdTuner::with_space(options, self.space(), self.tuner_seed(tune))
    }

    /// Tunes to run for a measuring budget of `seconds`: the panel at
    /// [`NOMINAL_SECONDS`], proportionally fewer or more otherwise.
    pub fn tunes_for(&self, seconds: u64) -> usize {
        let scaled = (self.tunes as u64 * seconds + NOMINAL_SECONDS / 2) / NOMINAL_SECONDS;
        (scaled as usize).max(1)
    }
}
