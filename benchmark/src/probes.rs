//! Layer probes of the traced run: each times calls into one crate's
//! public functions, on inputs captured from the run's own history where
//! the layer's cost depends on them. Every timed probe repeats until its
//! steady-state window settles (`stats::steady`).

use crate::report::{type_suffix, Metrics};
use crate::run::TuneResult;
use crate::stats::{median, steady, Steady};
use crate::trace::Span;
use crate::workloads::{Def, Prepared};
use anns::params::{IndexType, SearchParams};
use anns::{AnnIndex, SearchCost, VectorIndex};
use gp::{fit_gp, FitOptions, GaussianProcess, Kernel, Matern52};
use mobo::optimize::{argmax_acquisition_par, candidate_pool, local_refine_par, CandidateOptions};
use rayon::prelude::*;
use std::hint::black_box;
use vdms::cluster::ClusterSpec;
use vdms::{Collection, PinningPolicy, ShardedCollection, VdmsConfig, WalSim, WriteKnobs};
use vdtuner_core::SpaceSpec;
use vecdata::rng::{derive, rng, standard_normal};
use workload::serving::{simulate_pinned, simulate_pinned_mixed, simulate_replicated};
use workload::{evaluate, Evaluator, Observation, ServingSpec};

/// Training-set sizes of the GP probes (Table VI's recommendation axis).
pub const GP_SIZES: [usize; 3] = [50, 100, 200];

/// Wall-clock a probe with long repetitions may spend before it stops at
/// three or more repetitions and is listed as unsettled.
const PROBE_BUDGET_SECS: f64 = 1.5;

/// Requests of the serving and WAL probes: the size `serving-longtrace-22d`
/// evaluates at.
const SERVING_REQUESTS: usize = 400_000;
const WAL_INSERTS: usize = 200_000;

/// MC samples of the tuner's EHVI estimate (`TunerOptions::default()`).
const MC_SAMPLES: usize = 96;

pub struct Probes<'a> {
    pub def: &'a Def,
    pub prepared: &'a Prepared,
    /// `--seed`: draws the probes' own random inputs.
    pub seed: u64,
    /// The traced tunes, in the order they ran.
    pub results: &'a [TuneResult],
    pub spans: &'a [Span],
    pub out: Metrics,
    /// Probes that could not run (a load the default config cannot place).
    pub misses: Vec<String>,
}

/// Every observation of the traced tunes, in the order they ran.
fn history(results: &[TuneResult]) -> impl Iterator<Item = &Observation> {
    results.iter().flat_map(|r| r.outcome.observations.iter())
}

impl Probes<'_> {
    /// Record a steady-state reading under `name`, with its repetitions.
    fn record(&mut self, name: &str, value: f64, unit: &'static str, s: Steady) {
        self.out.put(name, value, unit);
        self.out.count(name, s.reps);
        if !s.settled {
            self.out.unsettled.push(name.to_string());
        }
    }

    /// Time `f` to steady state and record `median × scale` under `name`.
    fn timed(&mut self, name: &str, unit: &'static str, scale: f64, f: impl FnMut()) {
        let s = steady(PROBE_BUDGET_SECS, f);
        self.record(name, s.median_secs * scale, unit, s);
    }

    /// Time `f`, which processes `items`, and record items per second.
    fn rate(&mut self, name: &str, items: usize, f: impl FnMut()) {
        let s = steady(PROBE_BUDGET_SECS, f);
        self.record(name, items as f64 / s.median_secs, "1/s", s);
    }

    pub fn run_all(&mut self) {
        self.vecdata();
        self.anns_and_evaluate();
        self.vdms();
        self.serving();
        self.workload();
        let gps = self.gp();
        self.mobo(&gps);
        self.core();
        self.rayon();
    }

    fn vecdata(&mut self) {
        let (def, w) = (self.def, &self.prepared.w);
        self.timed("vecdata.generate_ms", "ms", 1e3, || {
            black_box(def.dataset_spec().generate());
        });
        self.timed("vecdata.ground_truth_ms", "ms", 1e3, || {
            black_box(vecdata::ground_truth(&w.dataset, w.top_k));
        });
        // Every query against every stored vector.
        let ds = &w.dataset;
        let kernel = vecdata::kernel::active();
        let per_dim = 1e9 / (ds.n_queries() * ds.len() * ds.dim()) as f64;
        let mut scores = Vec::with_capacity(ds.len());
        self.timed("vecdata.l2_block_ns_per_dim", "ns", per_dim, || {
            for q in 0..ds.n_queries() {
                kernel.l2_sq_block(ds.query(q), ds.raw(), ds.dim(), &mut scores);
                black_box(&scores);
            }
        });
        self.timed("vecdata.dot3_ns_per_dim", "ns", per_dim, || {
            for q in 0..ds.n_queries() {
                for v in ds.iter() {
                    black_box(kernel.dot3(ds.query(q), v));
                }
            }
        });
    }

    /// Per index type, at the type's seed configuration on this dataset:
    /// the bare index (`anns`) and one whole offline replay (`workload`).
    fn anns_and_evaluate(&mut self) {
        let w = &self.prepared.w;
        let ds = &w.dataset;
        let nq = ds.n_queries();
        let seed = self.seed;
        for t in IndexType::ALL {
            let suffix = type_suffix(t);
            let cfg = SpaceSpec::legacy().seed_config(t).sanitized(ds.dim(), w.top_k);
            let build = || AnnIndex::build(t, ds.raw(), ds.dim(), &cfg.index, seed);
            let Ok((index, _)) = build() else {
                self.misses.push(format!("anns: {} does not build at its seed config", t.name()));
                continue;
            };
            self.timed(&format!("anns.build_ms.{suffix}"), "ms", 1e3, || {
                let _ = black_box(build());
            });
            let sp = SearchParams::from_params(&cfg.index, w.top_k);
            let mut cost = SearchCost::default();
            for q in 0..nq {
                black_box(index.search(ds.query(q), &sp, &mut cost));
            }
            let scanned = cost.f32_dims + cost.graph_dims + cost.u8_dims;
            self.out.put(
                &format!("anns.scan_dims_per_query.{suffix}"),
                scanned as f64 / nq as f64,
                "count",
            );
            self.timed(
                &format!("anns.search_us_per_query.{suffix}"),
                "us",
                1e6 / nq as f64,
                || {
                    let mut cost = SearchCost::default();
                    for q in 0..nq {
                        black_box(index.search(ds.query(q), &sp, &mut cost));
                    }
                },
            );
            self.timed(&format!("workload.evaluate_ms.{suffix}"), "ms", 1e3, || {
                black_box(evaluate(w, &cfg, seed));
            });
        }
    }

    fn vdms(&mut self) {
        let w = &self.prepared.w;
        let ds = &w.dataset;
        let cfg = VdmsConfig::default_config().sanitized(ds.dim(), w.top_k);
        let seed = self.seed;
        match Collection::load(ds, &cfg, seed) {
            Err(e) => self.misses.push(format!("vdms: default config does not load: {e}")),
            Ok(collection) => {
                self.timed("vdms.collection_load_ms", "ms", 1e3, || {
                    let _ = black_box(Collection::load(ds, &cfg, seed));
                });
                self.timed("vdms.run_queries_ms", "ms", 1e3, || {
                    black_box(collection.run_queries(w.top_k));
                });
                let (total, _) = collection.run_queries(w.top_k);
                self.timed("vdms.query_perf_ns", "ns", 1e9, || {
                    black_box(w.cost_model.query_perf(black_box(&total), &cfg.system));
                });
            }
        }
        let spec = ClusterSpec::replicated(4, 2);
        if let Err(e) = ShardedCollection::load(ds, &cfg, seed, spec) {
            self.misses.push(format!("vdms: default config does not place on 4x2 nodes: {e}"));
        } else {
            self.timed("vdms.sharded_load_ms.s4r2", "ms", 1e3, || {
                let _ = black_box(ShardedCollection::load(ds, &cfg, seed, spec));
            });
        }
        let replay: f64 = history(self.results).map(|o| o.replay_secs).sum();
        self.out.put("vdms.sim_replay_s", replay, "s");

        // The WAL state machine alone: inserts at 10 k/s, every triggered
        // commit finishing at once, so only the bookkeeping is timed.
        let drive = || {
            let mut wal = WalSim::new(WriteKnobs::DEFAULT, 32);
            let tick = WriteKnobs::DEFAULT.flush_interval_secs;
            let mut next_tick = tick;
            for i in 0..WAL_INSERTS {
                let now = i as f64 * 1e-4;
                while now >= next_tick {
                    if let Some(job) = wal.tick_job() {
                        wal.record_flush(job, next_tick, next_tick);
                        black_box(wal.flush_done(job.upto_lsn, next_tick));
                    }
                    next_tick += tick;
                }
                black_box(wal.offer_insert(now));
                while let Some(job) = wal.full_batch_job() {
                    wal.record_flush(job, now, now);
                    black_box(wal.flush_done(job.upto_lsn, now));
                }
            }
            wal
        };
        let wal = drive();
        self.out.put("vdms.wal_seals", wal.seals() as f64, "count");
        self.out.put("vdms.wal_compactions", wal.compactions() as f64, "count");
        self.rate("vdms.wal_offers_per_s", WAL_INSERTS, || {
            black_box(drive());
        });
    }

    /// The three event loops on one long trace: two replica groups at the
    /// default configuration's service time, arrivals at the anchor rate.
    fn serving(&mut self) {
        let w = &self.prepared.w;
        let model = &w.cost_model;
        let sys = VdmsConfig::default_config().system;
        let replicas = 2;
        let service =
            model.service_secs_from_qps_replicated(self.prepared.anchor_qps, &sys, replicas);
        let reads = ServingSpec {
            requests: SERVING_REQUESTS,
            queue_capacity: 32,
            ..ServingSpec::default()
        }
        .at_rate(self.prepared.anchor_qps);
        let mixed = reads.with_inserts(0.5);
        let (seed, top_k, policy) = (self.seed, w.top_k, PinningPolicy::Compact);
        self.rate("workload.serving.requests_per_s.readonly", SERVING_REQUESTS, || {
            black_box(simulate_replicated(model, &sys, service, &reads, seed, replicas));
        });
        self.rate("workload.serving.requests_per_s.pinned", SERVING_REQUESTS, || {
            black_box(simulate_pinned(model, &sys, service, &reads, seed, replicas, policy, top_k));
        });
        let run_mixed = || {
            let knobs = WriteKnobs::DEFAULT;
            simulate_pinned_mixed(
                model, &sys, service, &mixed, seed, replicas, policy, top_k, knobs,
            )
        };
        self.rate("workload.serving.requests_per_s.mixed", SERVING_REQUESTS, || {
            black_box(run_mixed());
        });
        let trace = run_mixed();
        self.timed("workload.serving.stats_ms", "ms", 1e3, || {
            black_box(trace.stats(&mixed));
        });
    }

    fn workload(&mut self) {
        // Share of observations served from the evaluator's cache: a
        // configuration the same tune had already evaluated.
        let mut repeats = 0usize;
        let mut total = 0usize;
        for r in self.results {
            let obs = &r.outcome.observations;
            total += obs.len();
            repeats += (0..obs.len())
                .filter(|&i| obs[..i].iter().any(|o| o.config == obs[i].config))
                .count();
        }
        self.out.put("workload.cache_hit_share", repeats as f64 / total.max(1) as f64, "ratio");

        // Four distinct, similarly priced configurations, uncached both
        // ways: evaluated one after another, then as one batch.
        let space = self.def.space();
        let configs: Vec<VdmsConfig> =
            [IndexType::IvfFlat, IndexType::IvfSq8, IndexType::IvfPq, IndexType::Scann]
                .iter()
                .map(|&t| space.seed_config(t))
                .collect();
        let (def, prepared, seed) = (self.def, self.prepared, self.seed);
        let serial = steady(PROBE_BUDGET_SECS, || {
            let backend = def.backend(prepared);
            let mut evaluator = Evaluator::with_backend(&*backend, seed);
            for c in &configs {
                black_box(evaluator.observe(c, 0.0));
            }
        });
        let batched = steady(PROBE_BUDGET_SECS, || {
            let backend = def.backend(prepared);
            let mut evaluator = Evaluator::with_backend(&*backend, seed);
            black_box(evaluator.observe_batch(&configs, 0.0));
        });
        let name = "workload.observe_batch_speedup.q4";
        self.out.put(name, serial.median_secs / batched.median_secs, "ratio");
        self.out.count(name, serial.reps + batched.reps);
        if !(serial.settled && batched.settled) {
            self.out.unsettled.push(name.to_string());
        }
    }

    /// What the tuner's two surrogates train on — the encoded history with
    /// `ln qps` and with recall — topped up to the largest probe size with
    /// jittered copies of itself when the run was shorter.
    fn gp_training_set(&self) -> (Vec<Vec<f64>>, [Vec<f64>; 2], usize) {
        let space = self.def.space();
        let mut x: Vec<Vec<f64>> = history(self.results).map(|o| space.encode(&o.config)).collect();
        let mut speed: Vec<f64> = history(self.results).map(|o| o.qps.max(1e-9).ln()).collect();
        let mut recall: Vec<f64> = history(self.results).map(|o| o.recall).collect();
        let observed = x.len();
        let missing = GP_SIZES[GP_SIZES.len() - 1].saturating_sub(observed);
        let mut noise = rng(derive(self.seed, 0x6B0B));
        let mut jitter = || 0.02 * standard_normal(&mut noise);
        for i in 0..missing {
            let src = i % observed;
            x.push(x[src].iter().map(|u| (u + jitter()).clamp(0.0, 1.0)).collect());
            speed.push(speed[src] + jitter());
            recall.push((recall[src] + jitter()).clamp(0.0, 1.0));
        }
        (x, [speed, recall], missing)
    }

    /// Fits and predictions at each size, averaged over the two targets a
    /// proposal fits; returns the n = 100 speed and recall surrogates for
    /// the acquisition probes.
    fn gp(&mut self) -> [GaussianProcess<Matern52>; 2] {
        let (x, [speed, recall], topped_up) = self.gp_training_set();
        self.out.put("gp.probe_topup_rows", topped_up as f64, "count");
        let opts = FitOptions::default();
        for n in GP_SIZES {
            let xn = &x[..n];
            self.timed(&format!("gp.fit_ms.n{n}"), "ms", 1e3 / 2.0, || {
                black_box(fit_gp(xn, &speed[..n], &opts));
                black_box(fit_gp(xn, &recall[..n], &opts));
            });
            let model = fit_gp(xn, &speed[..n], &opts);
            self.timed(&format!("gp.predict_us.n{n}"), "us", 1e6 / x.len() as f64, || {
                for q in &x {
                    black_box(model.predict(q));
                }
            });
        }
        let n = GP_SIZES[GP_SIZES.len() - 1];
        let kernel = Matern52::default();
        let mut gram = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..n {
                gram[i * n + j] = kernel.eval(&x[i], &x[j]) + if i == j { 1e-3 } else { 0.0 };
            }
        }
        self.timed(&format!("gp.cholesky_ms.n{n}"), "ms", 1e3, || {
            let mut a = gram.clone();
            black_box(gp::linalg::cholesky_in_place(&mut a, n).is_ok());
            black_box(a);
        });
        let n = GP_SIZES[1];
        [fit_gp(&x[..n], &speed[..n], &opts), fit_gp(&x[..n], &recall[..n], &opts)]
    }

    /// Pool construction and the acquisition the tuner maximises: two
    /// posterior predictions and an MC mean of hypervolume improvements
    /// over the run's final front, per candidate.
    fn mobo(&mut self, [gp_speed, gp_recall]: &[GaussianProcess<Matern52>; 2]) {
        let dims = self.def.space().dims();
        let opts = CandidateOptions::default();
        let seed = self.seed;
        let space = self.def.space();
        // The incumbents a proposal perturbs: speed extreme, recall
        // extreme, and the fastest point at the recall floor.
        let ok: Vec<&Observation> = history(self.results).filter(|o| !o.failed).collect();
        let pick = |key: &dyn Fn(&Observation) -> f64| {
            ok.iter()
                .copied()
                .max_by(|a, b| key(a).total_cmp(&key(b)))
                .map(|o| space.encode(&o.config))
        };
        let incumbents: Vec<Vec<f64>> = [
            pick(&|o| o.qps),
            pick(&|o| o.recall),
            pick(&|o| if o.recall >= crate::run::RECALL_FLOOR { o.qps } else { 0.0 }),
        ]
        .into_iter()
        .flatten()
        .collect();
        let pool = candidate_pool(dims, &incumbents, &opts, seed);
        self.out.put("mobo.pool_size", pool.len() as f64, "count");
        self.timed("mobo.candidate_pool_ms", "ms", 1e3, || {
            black_box(candidate_pool(dims, &incumbents, &opts, seed));
        });

        let pairs: Vec<[f64; 2]> = ok.iter().map(|o| [o.qps, o.recall]).collect();
        let front: Vec<[f64; 2]> =
            mobo::non_dominated_indices(&pairs).into_iter().map(|i| pairs[i]).collect();
        let reference = [0.0, 0.0];
        let mut zrng = rng(derive(seed, 0xACC0));
        let z_pairs: Vec<(f64, f64)> = (0..MC_SAMPLES)
            .map(|_| (standard_normal(&mut zrng), standard_normal(&mut zrng)))
            .collect();
        let acq = |c: &[f64]| {
            let (ps, pr) = (gp_speed.predict(c), gp_recall.predict(c));
            let (ms, ss, mr, sr) = (ps.mean, ps.std_dev(), pr.mean, pr.std_dev());
            mobo::mc_mean(&z_pairs, |z1, z2| {
                let y = [(ms + ss * z1).exp(), (mr + sr * z2).min(1.0)];
                mobo::hv_improvement_2d(&front, &reference, &y)
            })
        };
        // One thread, as inside the pool-scoring fan-out, where the nested
        // `mc_mean` runs serially; from the main thread it would spawn.
        let serial = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("the shim's pools always build");
        self.timed("mobo.ehvi_us_per_candidate", "us", 1e6 / pool.len() as f64, || {
            serial.install(|| {
                for c in &pool {
                    black_box(acq(c));
                }
            });
        });
        self.timed("mobo.argmax_ms.n100", "ms", 1e3, || {
            black_box(argmax_acquisition_par(&pool, &acq));
        });
        let (start, v0) = argmax_acquisition_par(&pool, &acq).unwrap_or((pool[0].clone(), 0.0));
        self.timed("mobo.local_refine_ms.n100", "ms", 1e3, || {
            black_box(local_refine_par(&acq, &start, v0, 3, 24, seed));
        });
        self.timed("mobo.hv2d_us", "us", 1e6, || {
            black_box(mobo::hv2d(black_box(&front), &reference));
        });
    }

    fn core(&mut self) {
        let space = self.def.space();
        let configs: Vec<VdmsConfig> = history(self.results).map(|o| o.config).collect();
        let encoded: Vec<Vec<f64>> = configs.iter().map(|c| space.encode(c)).collect();
        let per_call = 1e6 / configs.len() as f64;
        self.timed("core.encode_us", "us", per_call, || {
            for c in &configs {
                black_box(space.encode(c));
            }
        });
        self.timed("core.decode_us", "us", per_call, || {
            for e in &encoded {
                let _ = black_box(space.decode(e));
            }
        });
        let abandoned: usize = self.results.iter().map(|r| r.abandoned_types).sum();
        self.out.put("core.abandoned_types", abandoned as f64, "count");

        // What a proposal costs beyond its two fits and its acquisition
        // search, priced from the probes above at that step's history
        // size: normalisation, scoring, incumbents, embedding. An estimate
        // until spans exist inside the tuner.
        let at = |prefix: &str, n: f64| interpolate(&self.out, prefix, n);
        let search_100 = self.out.get("mobo.argmax_ms.n100").unwrap_or(0.0)
            + self.out.get("mobo.local_refine_ms.n100").unwrap_or(0.0);
        let predict_100 = at("gp.predict_us", 100.0);
        let priced =
            |n: f64| 2.0 * at("gp.fit_ms", n) + search_100 * at("gp.predict_us", n) / predict_100;
        let seeds = IndexType::ALL.len() as u32;
        let iters = self.results[0].outcome.observations.len();
        let residuals: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == "core.propose")
            .filter(|s| s.iteration * self.def.q as u32 >= seeds)
            .map(|s| {
                let first = s.iteration as usize * self.def.q;
                let batch = self.def.q.min(iters - first);
                let model: f64 = (first..first + batch).map(|n| priced(n as f64)).sum();
                s.secs() * 1e3 - model
            })
            .collect();
        self.out.put("core.propose_residual_ms_p50", median(&residuals), "ms");
        self.out.count("core.propose_residual_ms_p50", residuals.len());
    }

    fn rayon(&mut self) {
        let threads = rayon::current_num_threads();
        self.timed("rayon.par_call_overhead_us", "us", 1e6, || {
            let v: Vec<usize> = (0..threads).into_par_iter().map(|i| i).collect();
            black_box(v);
        });
    }
}

/// `<prefix>.n<size>` at history size `n`: a power law through the two
/// nearest measured sizes (fits are polynomial in `n`).
fn interpolate(m: &Metrics, prefix: &str, n: f64) -> f64 {
    let at = |size: usize| m.get(&format!("{prefix}.n{size}")).unwrap_or(f64::NAN);
    let (lo, hi) = if n <= GP_SIZES[1] as f64 {
        (GP_SIZES[0], GP_SIZES[1])
    } else {
        (GP_SIZES[1], GP_SIZES[2])
    };
    let exponent = (at(hi) / at(lo)).ln() / (hi as f64 / lo as f64).ln();
    at(lo) * (n.max(1.0) / lo as f64).powf(exponent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_follows_the_measured_power_law() {
        let mut m = Metrics::default();
        m.put("gp.fit_ms.n50", 1.0, "ms");
        m.put("gp.fit_ms.n100", 8.0, "ms");
        m.put("gp.fit_ms.n200", 32.0, "ms");
        assert!((interpolate(&m, "gp.fit_ms", 100.0) - 8.0).abs() < 1e-9);
        // Cubic below 100, quadratic above.
        assert!((interpolate(&m, "gp.fit_ms", 25.0) - 0.125).abs() < 1e-9);
        assert!((interpolate(&m, "gp.fit_ms", 150.0) - 18.0).abs() < 1e-9);
    }
}
