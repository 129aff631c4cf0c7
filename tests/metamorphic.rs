//! The exact replay against its oracle. A collection whose sealed segments
//! are all FLAT, or that has nothing sealed, answers a replay from the
//! dataset's memo of exact top-k ids (`Dataset::exact_l2`) and scans
//! nothing; the scanning scatter-gather (`ShardedCollection::search`, one
//! query at a time, routed like the replay) stays the oracle. Per query
//! the ids must be equal, and so must the per-node `SearchCost` totals,
//! under every layout, shard count and replica count drawn below:
//! single-row segments, an all-growing tail, duplicate rows and
//! `top_k >= n` included. A NaN row makes the memo decline and the scan
//! answer. Seeded: every run draws the same cases.

use std::collections::BTreeSet;
use vdtuner::anns::SearchCost;
use vdtuner::prelude::*;
use vdtuner::vdms::{Collection, SegmentLayout, ShardedCollection, SystemParams};
use vdtuner::vecdata::rng::derive;

const SEED: u64 = 0x3E7A;

/// `segment_max_size_mb` and `insert_buf_size_mb` count 64 KiB virtual
/// rows: 1 MiB is 16 rows, a segment seals at
/// `max(64, 16 · max_mb · proportion)` rows and the buffer holds
/// `max(1, 16 · buf_mb)`.
fn system(max_mb: f64, proportion: f64, buf_mb: f64) -> SystemParams {
    SystemParams {
        segment_max_size_mb: max_mb,
        segment_seal_proportion: proportion,
        insert_buf_size_mb: buf_mb,
        ..Default::default()
    }
}

/// Layouts over `n` rows, each with the shape it is named for (checked by
/// [`check_shape`]). Not sanitized, so the insert buffer may hold one row.
fn layouts(n: usize) -> Vec<(&'static str, SystemParams)> {
    let tail = n % 64;
    let mut layouts = vec![
        ("sealed segments, a flushed one, a tail", system(4.0, 1.0, 1.0)),
        ("a one-row segment", system(8.0, 0.5, (tail - 1) as f64 / 16.0)),
        ("a one-row tail", system(4.0, 1.0, 1.0 / 16.0)),
        ("all growing", system(2048.0, 1.0, 2048.0)),
        ("defaults", SystemParams::default()),
    ];
    if n.is_multiple_of(2) && n >= 128 {
        layouts.push(("all sealed", system((n / 2) as f64 / 16.0, 1.0, 1.0 / 16.0)));
    }
    layouts
}

fn check_shape(name: &str, layout: &SegmentLayout) {
    let rows: Vec<usize> = layout.sealed.iter().map(|(s, e)| e - s).collect();
    let ok = match name {
        "sealed segments, a flushed one, a tail" => !rows.is_empty() && layout.growing_rows() > 1,
        "a one-row segment" => rows.last() == Some(&1) && layout.growing_rows() > 1,
        "a one-row tail" => !rows.is_empty() && layout.growing_rows() == 1,
        "all growing" => rows.is_empty(),
        "all sealed" => rows.len() == 2 && layout.growing_rows() == 0,
        _ => true,
    };
    assert!(ok, "{name}: sealed rows {rows:?}, {} growing", layout.growing_rows());
}

/// The shards (1–8) and replicas (1–4) of case `case`.
fn cluster(case: u64) -> ClusterSpec {
    let draw = derive(SEED, case);
    let shards = 1 + (draw >> 1) as usize % 8;
    let replicas = 1 + (draw >> 4) as usize % 4;
    ClusterSpec::replicated(shards, replicas)
}

/// The oracle: every query through the scanning scatter-gather, routed and
/// charged as the replay routes and charges it.
fn scatter_gather(
    ds: &Dataset,
    cluster: &ShardedCollection<'_>,
    top_k: usize,
) -> (Vec<SearchCost>, Vec<Vec<u32>>) {
    let spec = cluster.spec();
    let mut totals = vec![SearchCost::default(); spec.nodes()];
    let mut results = Vec::new();
    for qi in 0..ds.n_queries() {
        let group = qi % spec.replicas;
        let mut costs = vec![SearchCost::default(); spec.shards];
        let hits = cluster.search(ds.query(qi), top_k, &mut costs);
        for (j, c) in costs.iter().enumerate() {
            totals[group * spec.shards + j].add(c);
        }
        results.push(hits.into_iter().map(|n| n.id).collect());
    }
    (totals, results)
}

/// What the cases drew, so the test can tell it covered what it claims.
#[derive(Default)]
struct Drawn {
    shards: BTreeSet<usize>,
    replicas: BTreeSet<usize>,
    cases: u64,
}

/// Replay `ds` under every index type on every layout that keeps the
/// collection exact (FLAT: all of them; any other type: the ones with
/// nothing sealed) and on one that does not, on two drawn clusters each,
/// against the oracle.
fn replays_equal_the_scan(ds: &Dataset, top_k: usize, drawn: &mut Drawn) {
    for index_type in IndexType::ALL {
        for (name, sys) in layouts(ds.len()) {
            let layout = SegmentLayout::plan(ds.len(), &sys);
            check_shape(name, &layout);
            // An approximate collection scans on both sides; one layout of
            // each type shows the replay did not read the memo for it.
            let exact = index_type == IndexType::Flat || layout.sealed_count() == 0;
            if !exact && name != "a one-row tail" {
                continue;
            }
            let cfg = config(index_type, sys, ds.dim(), top_k);
            let single = Collection::load(ds, &cfg, 1).unwrap();
            assert_eq!(single.layout(), &layout);
            let (single_cost, single_ids) = single.run_queries(top_k);
            for _ in 0..2 {
                let spec = cluster(drawn.cases);
                drawn.cases += 1;
                drawn.shards.insert(spec.shards);
                drawn.replicas.insert(spec.replicas);
                let case = format!("{index_type:?}, {name}, {spec:?}, top_k {top_k}");
                let sharded = ShardedCollection::load(ds, &cfg, 1, spec).unwrap();
                let (costs, ids) = sharded.run_queries(top_k);
                let (expect_costs, expect_ids) = scatter_gather(ds, &sharded, top_k);
                assert_eq!(ids.len(), ds.n_queries(), "{case}");
                for qi in 0..ds.n_queries() {
                    assert_eq!(ids[qi], expect_ids[qi], "query {qi}: {case}");
                }
                assert_eq!(costs, expect_costs, "per-node costs: {case}");
                // One node charges what the whole cluster does.
                let mut summed = SearchCost::default();
                costs.iter().for_each(|c| summed.add(c));
                assert_eq!(single_cost, summed, "single node: {case}");
                assert_eq!(single_ids, ids, "single node: {case}");
            }
        }
    }
}

fn config(index_type: IndexType, sys: SystemParams, dim: usize, top_k: usize) -> VdmsConfig {
    let mut cfg = VdmsConfig::default_for(index_type).sanitized(dim, top_k);
    cfg.system = sys;
    cfg
}

/// Tiny GloVe (600 rows, 20 queries) with `edit` applied to its rows and
/// queries.
fn tiny(edit: impl FnOnce(&mut Vec<f32>, &mut Vec<f32>)) -> Dataset {
    let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
    let (mut rows, mut queries) = (ds.raw().to_vec(), Vec::new());
    (0..ds.n_queries()).for_each(|qi| queries.extend_from_slice(ds.query(qi)));
    edit(&mut rows, &mut queries);
    Dataset::from_rows(ds.spec, rows, queries)
}

#[test]
fn exact_replays_equal_the_scatter_gather() {
    let mut drawn = Drawn::default();
    replays_equal_the_scan(&tiny(|_, _| ()), 10, &mut drawn);

    // Every row repeated about 16 times, and half the queries equal to a
    // row: ties everywhere, broken by id.
    let dim = DatasetSpec::tiny(DatasetKind::Glove).dim;
    let duplicated = tiny(|rows, queries| {
        for i in 0..rows.len() / dim {
            let from = (i % 37) * dim;
            rows.copy_within(from..from + dim, i * dim);
        }
        for (qi, query) in queries.chunks_mut(dim).enumerate().skip(10) {
            query.copy_from_slice(&rows[qi * 7 * dim..(qi * 7 + 1) * dim]);
        }
    });
    replays_equal_the_scan(&duplicated, 10, &mut drawn);

    // `top_k` above the row count: every row comes back, nearest first.
    let small = DatasetSpec { n: 50, n_queries: 6, ..DatasetSpec::tiny(DatasetKind::Glove) };
    replays_equal_the_scan(&small.generate(), 60, &mut drawn);
    assert_eq!(small.generate().exact_l2(60).unwrap().query(5).len(), 50);

    assert_eq!(drawn.shards, (1..=8).collect(), "drawn shard counts");
    assert_eq!(drawn.replicas, (1..=4).collect(), "drawn replica counts");
}

#[test]
fn a_nan_row_makes_the_memo_decline_and_the_scan_answer() {
    let dim = DatasetSpec::tiny(DatasetKind::Glove).dim;
    let ds = tiny(|rows, _| rows[123 * dim + 5] = f32::NAN);
    let mut drawn = Drawn::default();
    replays_equal_the_scan(&ds, 10, &mut drawn);
    assert!(ds.exact_l2(10).is_none(), "the memo declines");
    // The NaN row never displaces a real neighbor.
    let cfg = config(IndexType::Flat, system(4.0, 1.0, 1.0), dim, 10);
    let (_, ids) = Collection::load(&ds, &cfg, 1).unwrap().run_queries(10);
    assert!(ids.iter().all(|q| q.len() == 10 && !q.contains(&123)));
}

#[test]
fn the_memo_answers_only_the_k_it_holds() {
    let ds = tiny(|_, _| ());
    let memo = ds.exact_l2(10).expect("finite rows");
    assert_eq!(memo.k(), 10);
    assert!(ds.exact_l2(9).is_none() && ds.exact_l2(11).is_none());
    // Another `k` scans, and the scan still equals the oracle.
    replays_equal_the_scan(&ds, 5, &mut Drawn::default());
}
