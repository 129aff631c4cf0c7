//! Property-based tests (proptest) on the core data structures and
//! invariants, spanning crates.

use proptest::prelude::*;
use vdtuner::core::npi::{balanced_base, max_base};
use vdtuner::core::SpaceSpec;
use vdtuner::mobo::hypervolume::{hv2d, hv_improvement_2d};
use vdtuner::mobo::pareto::{non_dominated_indices, pareto_ranks};
use vdtuner::mobo::sampling::latin_hypercube;
use vdtuner::vecdata::ground_truth::TopK;
use vdtuner::vecdata::{DatasetKind, DatasetSpec};

fn point_strategy() -> impl Strategy<Value = [f64; 2]> {
    (0.0f64..100.0, 0.0f64..1.0).prop_map(|(a, b)| [a, b])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hypervolume is monotone under adding points.
    #[test]
    fn hv_monotone(points in prop::collection::vec(point_strategy(), 1..20), extra in point_strategy()) {
        let r = [0.0, 0.0];
        let before = hv2d(&points, &r);
        let mut more = points.clone();
        more.push(extra);
        prop_assert!(hv2d(&more, &r) >= before - 1e-9);
    }

    /// HV improvement is exactly the difference of hypervolumes.
    #[test]
    fn hv_improvement_consistent(points in prop::collection::vec(point_strategy(), 1..15), z in point_strategy()) {
        let r = [0.0, 0.0];
        let imp = hv_improvement_2d(&points, &r, &z);
        let mut more = points.clone();
        more.push(z);
        let direct = hv2d(&more, &r) - hv2d(&points, &r);
        prop_assert!((imp - direct.max(0.0)).abs() < 1e-9);
    }

    /// No front member dominates another front member.
    #[test]
    fn front_is_mutually_nondominated(points in prop::collection::vec(point_strategy(), 1..30)) {
        let front = non_dominated_indices(&points);
        for &i in &front {
            for &j in &front {
                if i != j {
                    let (a, b) = (points[i], points[j]);
                    let strictly_dominates =
                        a[0] >= b[0] && a[1] >= b[1] && (a[0] > b[0] || a[1] > b[1]);
                    prop_assert!(!strictly_dominates, "{a:?} dominates {b:?} inside front");
                }
            }
        }
    }

    /// Pareto ranks start at 1 and rank-1 matches the non-dominated set.
    #[test]
    fn ranks_consistent_with_front(points in prop::collection::vec(point_strategy(), 1..25)) {
        let ranks = pareto_ranks(&points);
        let front: std::collections::BTreeSet<usize> =
            non_dominated_indices(&points).into_iter().collect();
        for (i, &r) in ranks.iter().enumerate() {
            prop_assert!(r >= 1);
            prop_assert_eq!(r == 1, front.contains(&i));
        }
    }

    /// TopK returns exactly the k smallest distances (vs full sort).
    #[test]
    fn topk_matches_sort(ds in prop::collection::vec(0.0f32..1e6, 1..200), k in 1usize..20) {
        let mut top = TopK::new(k);
        for (i, &d) in ds.iter().enumerate() {
            top.push(i as u32, d);
        }
        let got: Vec<f32> = top.into_sorted().iter().map(|n| n.distance).collect();
        let mut all = ds.clone();
        all.sort_by(f32::total_cmp);
        all.truncate(k);
        prop_assert_eq!(got, all);
    }

    /// The balanced base (Eq. 3) always lies on the non-dominated front and
    /// never exceeds the componentwise max.
    #[test]
    fn balanced_base_on_front(points in prop::collection::vec(point_strategy(), 1..20)) {
        let positive: Vec<[f64;2]> = points.iter().map(|p| [p[0] + 0.1, p[1] + 0.01]).collect();
        let base = balanced_base(&positive);
        let mb = max_base(&positive);
        prop_assert!(base.speed <= mb.speed + 1e-12);
        prop_assert!(base.recall <= mb.recall + 1e-12);
        let front = non_dominated_indices(&positive);
        let on_front = front
            .iter()
            .any(|&i| positive[i][0] == base.speed && positive[i][1] == base.recall);
        prop_assert!(on_front);
    }

    /// Config-space decode is total on the unit cube and sanitization is
    /// idempotent; encode∘decode is a projection (applying it twice is
    /// stable).
    #[test]
    fn config_space_projection(u in prop::collection::vec(0.0f64..=1.0, 16)) {
        let space = SpaceSpec::legacy();
        let decode = |u: &[f64]| space.decode(u).expect("16 coordinates").sanitized(48, 10);
        let cfg = decode(&u);
        let enc = space.encode(&cfg);
        prop_assert!(enc.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let cfg2 = decode(&enc);
        // The projection must be stable: a second round-trip is identical.
        prop_assert_eq!(cfg2.summary(), decode(&space.encode(&cfg2)).summary());
        prop_assert_eq!(cfg.index_type, cfg2.index_type);
    }

    /// LHS always stays in the unit cube and is one-point-per-stratum.
    #[test]
    fn lhs_stratified(n in 2usize..40, d in 1usize..8, seed in 0u64..1000) {
        let pts = latin_hypercube(n, d, seed);
        prop_assert_eq!(pts.len(), n);
        for dim in 0..d {
            let mut strata: Vec<usize> = pts
                .iter()
                .map(|p| ((p[dim] * n as f64).floor() as usize).min(n - 1))
                .collect();
            strata.sort_unstable();
            let expect: Vec<usize> = (0..n).collect();
            prop_assert_eq!(&strata, &expect);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any shard count and seed, the sharded collection returns
    /// bit-identical search results (hence recall) and conserves the total
    /// search cost relative to the single-node collection — sharding is a
    /// serving-topology choice, never a results change.
    #[test]
    fn sharded_collection_matches_single_node(shards in 1usize..=8,
                                              seed in 0u64..32,
                                              u in prop::collection::vec(0.0f64..=1.0, 16)) {
        use vdtuner::vdms::cluster::{ClusterSpec, ShardedCollection};
        use vdtuner::vdms::Collection;

        let w = vdtuner::workload::Workload::prepare(
            DatasetSpec::tiny(DatasetKind::Glove), 10);
        let cfg = SpaceSpec::legacy()
            .decode(&u)
            .expect("16 coordinates")
            .sanitized(w.dataset.dim(), 10);
        let single = Collection::load(&w.dataset, &cfg, seed).expect("tiny configs fit");
        let sharded = ShardedCollection::load(&w.dataset, &cfg, seed, ClusterSpec::new(shards))
            .expect("even budget split fits the tiny workload");

        let (single_cost, single_res) = single.run_queries(10);
        let (shard_costs, sharded_res) = sharded.run_queries(10);
        prop_assert_eq!(&sharded_res, &single_res);
        let total = shard_costs.into_iter().fold(
            vdtuner::anns::SearchCost::default(), |acc, c| acc + c);
        prop_assert_eq!(total, single_cost);
        let recall_single = w.mean_recall(&single_res);
        let recall_sharded = w.mean_recall(&sharded_res);
        prop_assert_eq!(recall_single.to_bits(), recall_sharded.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shapley efficiency: contributions sum to f(target) − f(baseline) for
    /// arbitrary unit-cube endpoints.
    #[test]
    fn shapley_efficiency(ut in prop::collection::vec(0.0f64..=1.0, 16),
                          ub in prop::collection::vec(0.0f64..=1.0, 16)) {
        let space = SpaceSpec::legacy();
        let target = space.decode(&ut).expect("16 coordinates");
        let baseline = space.decode(&ub).expect("16 coordinates");
        // A deterministic, fast synthetic objective over the config.
        let f = |c: &vdtuner::vdms::VdmsConfig| {
            c.system.segment_max_size_mb * 0.01
                + c.index.nlist as f64 * 0.1
                + c.index_type.ordinal() as f64 * 3.0
        };
        let attr = vdtuner::core::shap::shapley_attribution(f, &target, &baseline, 3, 11);
        let sum: f64 = attr.contributions.iter().map(|(_, v)| v).sum();
        let delta = attr.f_target - attr.f_baseline;
        // Additive functions have zero interaction terms, so even a few
        // permutations are exact up to decode() quantization noise.
        prop_assert!((sum - delta).abs() < 1.0, "sum {sum} delta {delta}");
    }
}
