//! Criterion micro-benchmarks of every substrate on the hot path of one
//! tuning iteration: distance kernels, index build/search per type, one
//! workload replay, GP fitting/prediction, the EHVI acquisition, and
//! hypervolume computation. These quantify the cost-model inputs and the
//! recommendation overhead reported in Table VI.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use anns::cost::SearchCost;
use anns::index::{AnnIndex, VectorIndex};
use anns::params::{IndexParams, IndexType, SearchParams};
use gp::{fit_gp, FitOptions, GaussianProcess, Matern52};
use mobo::acquisition::ehvi_mc;
use mobo::hypervolume::hv2d;
use mobo::sampling::latin_hypercube;
use vdms::VdmsConfig;
use vecdata::{DatasetKind, DatasetSpec};
use workload::Workload;

fn bench_distance(c: &mut Criterion) {
    let ds = DatasetSpec { n: 2000, dim: 96, n_queries: 10, seed: 1, kind: DatasetKind::Glove }
        .generate();
    let q = ds.query(0).to_vec();
    c.bench_function("distance/l2_96d_x2000", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for v in ds.iter() {
                acc += vecdata::distance::l2_sq(black_box(&q), v);
            }
            acc
        })
    });
}

/// Scalar vs dispatched kernel throughput: the per-op and block entry
/// points, the SQ8 asymmetric quantized scan, the PQ ADC scoring paths
/// (scalar lookup loop, fast-tier 8-bit gather, fast-tier 4-bit shuffle
/// LUT), and the fast-tier symmetric int8 scan (the `repro kernels`
/// experiment measures the same paths and writes `results/kernels.json`).
fn bench_kernels(c: &mut Criterion) {
    use anns::ivf_pq::{quantize_adc4_table, ProductQuantizer};
    use anns::ivf_sq8::ScalarQuantizer;
    use vecdata::kernel;

    let dim = 96usize;
    let rows = 2000usize;
    let ds =
        DatasetSpec { n: rows, dim, n_queries: 10, seed: 1, kind: DatasetKind::Glove }.generate();
    let q = ds.query(0).to_vec();
    let sq = ScalarQuantizer::train(ds.raw(), dim);
    let mut codes = vec![0u8; rows * dim];
    for i in 0..rows {
        sq.encode(ds.vector(i), &mut codes[i * dim..(i + 1) * dim]);
    }

    let mut g = c.benchmark_group("kernel_96d_x2000");
    for (name, kern) in [("scalar", kernel::select(true)), ("dispatched", kernel::select(false))] {
        g.bench_function(&format!("l2_pairwise/{name}"), |b| {
            b.iter(|| {
                let mut acc = 0.0f32;
                for v in ds.iter() {
                    acc += kern.l2_sq(black_box(&q), v);
                }
                acc
            })
        });
        g.bench_function(&format!("l2_block/{name}"), |b| {
            let mut scores = Vec::with_capacity(rows);
            b.iter(|| {
                kern.l2_sq_block(black_box(&q), ds.raw(), dim, &mut scores);
                scores[rows - 1]
            })
        });
        g.bench_function(&format!("dot3_fused_angular/{name}"), |b| {
            b.iter(|| {
                let mut acc = 0.0f32;
                for v in ds.iter() {
                    let [aa, bb, ab] = kern.dot3(black_box(&q), v);
                    acc += aa + bb + ab;
                }
                acc
            })
        });
        g.bench_function(&format!("sq8_scan/{name}"), |b| {
            let mut scores = Vec::with_capacity(rows);
            b.iter(|| {
                kern.sq8_l2_block(black_box(&q), &codes, &sq.mins, &sq.scales, dim, &mut scores);
                scores[rows - 1]
            })
        });
    }

    // Fast-tier cases: the PQ ADC scoring paths and the symmetric int8
    // scan, each against its scalar reference loop.
    let fast = kernel::fast();
    let mut stats = anns::cost::BuildStats::default();
    let mut cost = SearchCost::default();

    // 8-bit PQ (m = 12 over 96 dims, ksub = 256): scalar table-lookup loop
    // vs the fast tier's gathered block scorer.
    let pq = ProductQuantizer::train(ds.raw(), dim, 12, 8, 0xADC, &mut stats).unwrap();
    let mut pq_codes = vec![0u8; rows * pq.m];
    for i in 0..rows {
        pq.encode(ds.vector(i), &mut pq_codes[i * pq.m..(i + 1) * pq.m]);
    }
    let table = pq.adc_table(&q, &mut cost);
    g.bench_function("pq_adc8/scalar_loop", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for code in pq_codes.chunks_exact(pq.m) {
                acc += pq.adc_distance(black_box(&table), code);
            }
            acc
        })
    });
    g.bench_function("pq_adc8/fast_gather", |b| {
        let mut scores = Vec::with_capacity(rows);
        b.iter(|| {
            fast.adc_block(black_box(&table), pq.ksub, &pq_codes, pq.m, &mut scores);
            scores[rows - 1]
        })
    });
    // The same 256-entry table, u16-quantized into two byte planes and
    // scored with paired vpshufb passes instead of gathers.
    let packed8 = kernel::pack_codes8(&pq_codes, pq.m);
    let mut luts8 = Vec::new();
    anns::ivf_pq::quantize_adc8_table(&table, pq.m, &mut luts8);
    g.bench_function("pq_adc8/fast_lut256", |b| {
        let mut sums = Vec::with_capacity(rows);
        b.iter(|| {
            fast.adc8_lut256_block(black_box(&luts8), &packed8, pq.m, rows, &mut sums);
            sums[rows - 1]
        })
    });

    // 4-bit PQ (SCANN stage-1 shape): scalar loop vs the vpshufb 16-entry
    // LUT block scorer over nibble-packed codes.
    let pq4 = ProductQuantizer::train(ds.raw(), dim, 12, 4, 0xADC4, &mut stats).unwrap();
    let mut pq4_codes = vec![0u8; rows * pq4.m];
    for i in 0..rows {
        pq4.encode(ds.vector(i), &mut pq4_codes[i * pq4.m..(i + 1) * pq4.m]);
    }
    let table4 = pq4.adc_table(&q, &mut cost);
    g.bench_function("pq_adc4/scalar_loop", |b| {
        b.iter(|| {
            let mut acc = 0.0f32;
            for code in pq4_codes.chunks_exact(pq4.m) {
                acc += pq4.adc_distance(black_box(&table4), code);
            }
            acc
        })
    });
    let packed4 = kernel::pack_codes4(&pq4_codes, pq4.m);
    let mut luts = Vec::new();
    quantize_adc4_table(&table4, pq4.m, &mut luts);
    g.bench_function("pq_adc4/fast_lut16", |b| {
        let mut sums = Vec::with_capacity(rows);
        b.iter(|| {
            fast.adc4_lut16_block(black_box(&luts), &packed4, pq4.m, rows, &mut sums);
            sums[rows - 1]
        })
    });

    // Symmetric int8 scan (query and codes both quantized on the shared
    // step) vs the asymmetric scan already benched above.
    let mut sym_codes = vec![0u8; rows * dim];
    for i in 0..rows {
        sq.encode_sym(ds.vector(i), &mut sym_codes[i * dim..(i + 1) * dim]);
    }
    let mut qcode = vec![0u8; dim];
    sq.encode_sym(&q, &mut qcode);
    g.bench_function("sq8_sym_scan/fast", |b| {
        let mut sums = Vec::with_capacity(rows);
        b.iter(|| {
            fast.sq8_sym_l2_block(black_box(&qcode), &sym_codes, dim, &mut sums);
            sums[rows - 1]
        })
    });
    g.finish();
}

fn bench_index_build(c: &mut Criterion) {
    let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
    let params = IndexParams::default().sanitized(ds.dim(), 10);
    let mut g = c.benchmark_group("index_build_600x16");
    for kind in [IndexType::IvfFlat, IndexType::IvfPq, IndexType::Hnsw, IndexType::Scann] {
        g.bench_function(kind.name(), |b| {
            b.iter(|| AnnIndex::build(kind, ds.raw(), ds.dim(), &params, 1).unwrap())
        });
    }
    g.finish();
}

fn bench_index_search(c: &mut Criterion) {
    let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
    let params = IndexParams::default().sanitized(ds.dim(), 10);
    let sp = SearchParams::from_params(&params, 10);
    let mut g = c.benchmark_group("index_search_600x16");
    for kind in [IndexType::Flat, IndexType::IvfSq8, IndexType::Hnsw, IndexType::Scann] {
        let (idx, _) = AnnIndex::build(kind, ds.raw(), ds.dim(), &params, 1).unwrap();
        g.bench_function(kind.name(), |b| {
            b.iter(|| {
                let mut cost = SearchCost::default();
                idx.search(black_box(ds.query(0)), &sp, &mut cost)
            })
        });
    }
    g.finish();
}

fn bench_replay(c: &mut Criterion) {
    let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
    c.bench_function("replay/evaluate_default_600x16", |b| {
        b.iter(|| workload::evaluate(&w, &VdmsConfig::default_config(), 1))
    });
}

/// The replay path under each pinning policy
/// (`vdms::CostModel::cluster_perf`): one replicated cluster evaluated
/// per policy. `shared` is one penalty-free reactor — its row is the
/// baseline the per-reactor placement/penalty accounting is measured
/// against.
fn bench_pinned_replay(c: &mut Criterion) {
    use vdms::PinningPolicy;
    use workload::{EvalBackend, TopologyBackend};
    let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
    let backend = TopologyBackend::with_pinning(&w, 2, 2);
    let mut g = c.benchmark_group("pinned_replay_600x16");
    for policy in PinningPolicy::ALL {
        let cfg = VdmsConfig {
            shards: Some(2),
            replicas: Some(2),
            pinning: Some(policy),
            ..VdmsConfig::default_config()
        };
        g.bench_function(policy.name(), |b| b.iter(|| backend.evaluate(black_box(&cfg), 1)));
    }
    g.finish();
}

fn training_data(n: usize, d: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let x = latin_hypercube(n, d, 7);
    let y: Vec<f64> = x.iter().map(|p| (p[0] * 4.0).sin() + p[1] * 2.0).collect();
    (x, y)
}

fn bench_gp(c: &mut Criterion) {
    let (x, y) = training_data(64, 16);
    c.bench_function("gp/fit_mle_64x16", |b| {
        b.iter(|| fit_gp(black_box(&x), black_box(&y), &FitOptions::default()))
    });
    let gp = GaussianProcess::fit(&x, &y, Matern52::default(), 1e-4).unwrap();
    let q = vec![0.4; 16];
    c.bench_function("gp/predict_64x16", |b| b.iter(|| gp.predict(black_box(&q))));
    // The size that matters: the widest space late in a 200-iteration run,
    // where the two fits per proposal dominate recommendation time.
    let (x, y) = training_data(180, 22);
    c.bench_function("gp/fit_mle_180x22", |b| {
        b.iter(|| fit_gp(black_box(&x), black_box(&y), &FitOptions::default()))
    });
}

fn bench_acquisition(c: &mut Criterion) {
    let front: Vec<[f64; 2]> = (0..20).map(|i| [20.0 - i as f64, i as f64]).collect();
    let reference = [0.0, 0.0];
    let z: Vec<(f64, f64)> =
        (0..64).map(|i| ((i as f64 * 0.37).sin(), (i as f64 * 0.73).cos())).collect();
    let post = gp::Posterior { mean: 12.0, variance: 4.0 };
    c.bench_function("acq/ehvi_mc_front20_z64", |b| {
        b.iter(|| ehvi_mc(black_box(&post), black_box(&post), &front, &reference, &z))
    });
    c.bench_function("acq/hv2d_front20", |b| b.iter(|| hv2d(black_box(&front), &reference)));
}

fn bench_tuner_propose(c: &mut Criterion) {
    use vdtuner_core::{TunerOptions, VdTuner};
    use workload::{run_tuner, Evaluator};
    let w = Workload::prepare(DatasetSpec::tiny(DatasetKind::Glove), 10);
    c.bench_function("tuner/one_bo_iteration_600x16", |b| {
        b.iter_batched(
            || {
                let mut t = VdTuner::new(TunerOptions { mc_samples: 16, ..Default::default() }, 3);
                let mut ev = Evaluator::new(&w, 3);
                run_tuner(&mut t, &mut ev, 8); // init sampling + one BO step
                (t, ev)
            },
            |(mut t, mut ev)| run_tuner(&mut t, &mut ev, 1),
            BatchSize::LargeInput,
        )
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_distance, bench_kernels, bench_index_build, bench_index_search,
              bench_replay, bench_pinned_replay, bench_gp, bench_acquisition, bench_tuner_propose
}
criterion_main!(benches);
