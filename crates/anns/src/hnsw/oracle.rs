//! Test-only oracle for [`super::HnswIndex`]: the literal transcription of
//! HNSW construction and search that the production code replaced, kept
//! verbatim (fresh `vec![false; n]` + `BinaryHeap<Neighbor>`s per search,
//! every prune rescoring and re-deciding its whole list), and the panel
//! that holds the two to the same graph, counters and results bit for bit.
//!
//! It may be retired the day a history-changing change to HNSW (another
//! prune rule, level draw, beam order or tie rule) is accepted and the
//! pinned digests move with it, since this transcription then pins nothing
//! any more.

use super::{draw_levels, key, Builder, HnswIndex, SearchScratch, Vectors, HOST_DISTS};
use crate::cost::{BuildStats, SearchCost};
use crate::index::{BuildError, VectorIndex};
use crate::params::{IndexParams, SearchParams};
use proptest::prelude::*;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use vecdata::distance::l2_sq;
use vecdata::ground_truth::{Neighbor, TopK};
use vecdata::kernel;
use vecdata::rng::rng;

/// One graph node: neighbor lists per layer (layer 0 first).
#[derive(Debug, Clone, PartialEq)]
struct Node {
    /// `links[l]` = neighbor ids on layer `l`.
    links: Vec<Vec<u32>>,
}

/// The literal HNSW graph.
#[derive(Debug, Clone)]
pub struct OracleIndex {
    dim: usize,
    data: Vec<f32>,
    nodes: Vec<Node>,
    entry: u32,
    max_layer: usize,
    m: usize,
}

impl OracleIndex {
    pub fn build(
        vectors: &[f32],
        dim: usize,
        params: &IndexParams,
        seed: u64,
        stats: &mut BuildStats,
    ) -> Result<OracleIndex, BuildError> {
        if params.hnsw_m < 2 {
            return Err(BuildError::InvalidParam("M"));
        }
        if params.ef_construction < 1 {
            return Err(BuildError::InvalidParam("efConstruction"));
        }
        let n = vectors.len() / dim;
        let m = params.hnsw_m;
        let ef_c = params.ef_construction.max(m);
        let level_mult = 1.0 / (m as f64).ln();
        let mut r = rng(seed);

        let mut index = OracleIndex {
            dim,
            data: vectors.to_vec(),
            nodes: Vec::with_capacity(n),
            entry: 0,
            max_layer: 0,
            m,
        };

        for i in 0..n {
            let level = (-(r.gen::<f64>().max(1e-12)).ln() * level_mult).floor() as usize;
            index.insert(i as u32, level, ef_c, stats);
        }
        Ok(index)
    }

    #[inline]
    fn vec_at(&self, id: u32) -> &[f32] {
        &self.data[id as usize * self.dim..(id as usize + 1) * self.dim]
    }

    /// Graph traversal visits nodes in data-dependent order (random access),
    /// so there is no contiguous block to hand to the kernel's batched API;
    /// each per-pair distance still runs on the dispatched SIMD kernel via
    /// `l2_sq`.
    #[inline]
    fn dist(&self, a: &[f32], id: u32, dims: &mut u64) -> f32 {
        *dims += self.dim as u64;
        l2_sq(a, self.vec_at(id))
    }

    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.m * 2
        } else {
            self.m
        }
    }

    /// Greedy search on one layer starting from `entry`, returning the
    /// closest node found (used for descending the upper layers).
    fn greedy_closest(
        &self,
        query: &[f32],
        entry: u32,
        layer: usize,
        cost: &mut SearchCost,
    ) -> u32 {
        let mut cur = entry;
        let mut cur_d = self.dist(query, cur, &mut cost.graph_dims);
        loop {
            let mut improved = false;
            for &nb in &self.nodes[cur as usize].links[layer] {
                cost.graph_hops += 1;
                let d = self.dist(query, nb, &mut cost.graph_dims);
                if d < cur_d {
                    cur = nb;
                    cur_d = d;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Beam search on one layer: returns up to `ef` candidates sorted by
    /// ascending distance.
    fn search_layer(
        &self,
        query: &[f32],
        entry: u32,
        ef: usize,
        layer: usize,
        cost: &mut SearchCost,
    ) -> Vec<Neighbor> {
        let n = self.nodes.len();
        let mut visited = vec![false; n];
        visited[entry as usize] = true;
        let d0 = self.dist(query, entry, &mut cost.graph_dims);

        // Candidates: min-heap by distance. Results: bounded worst-first set.
        let mut candidates: BinaryHeap<Reverse<Neighbor>> = BinaryHeap::new();
        candidates.push(Reverse(Neighbor { id: entry, distance: d0 }));
        let mut results = TopK::new(ef);
        results.push(entry, d0);

        while let Some(Reverse(cand)) = candidates.pop() {
            if cand.distance > results.threshold() {
                break;
            }
            for &nb in &self.nodes[cand.id as usize].links[layer] {
                if visited[nb as usize] {
                    continue;
                }
                visited[nb as usize] = true;
                cost.graph_hops += 1;
                let d = self.dist(query, nb, &mut cost.graph_dims);
                if d < results.threshold() || results.len() < ef {
                    candidates.push(Reverse(Neighbor { id: nb, distance: d }));
                    results.push(nb, d);
                    cost.heap_pushes += 1;
                }
            }
        }
        results.into_sorted()
    }

    /// Insert node `id` with top layer `level`.
    fn insert(&mut self, id: u32, level: usize, ef_c: usize, stats: &mut BuildStats) {
        let node = Node { links: vec![Vec::new(); level + 1] };
        self.nodes.push(node);
        if self.nodes.len() == 1 {
            self.entry = id;
            self.max_layer = level;
            return;
        }

        let query = self.vec_at(id).to_vec();
        let mut build_cost = SearchCost::default();
        let mut cur = self.entry;

        // Descend greedily through layers above `level`.
        let top = self.max_layer;
        let mut layer = top;
        while layer > level {
            cur = self.greedy_closest(&query, cur, layer, &mut build_cost);
            if layer == 0 {
                break;
            }
            layer -= 1;
        }

        // Connect on each layer from min(level, top) down to 0.
        let mut l = level.min(top);
        loop {
            let found = self.search_layer(&query, cur, ef_c, l, &mut build_cost);
            let m_l = self.max_links(l);
            let selected = self.select_neighbors(&query, &found, m_l, &mut build_cost);
            for &nb in &selected {
                self.nodes[id as usize].links[l].push(nb);
                self.nodes[nb as usize].links[l].push(id);
                // Prune the neighbor if it exceeded its budget.
                if self.nodes[nb as usize].links[l].len() > m_l {
                    self.prune(nb, l, m_l, &mut build_cost);
                }
            }
            if let Some(first) = selected.first() {
                cur = *first;
            }
            if l == 0 {
                break;
            }
            l -= 1;
        }

        if level > self.max_layer {
            self.max_layer = level;
            self.entry = id;
        }
        stats.train_dims += build_cost.f32_dims + build_cost.graph_dims;
    }

    /// The paper's neighbor-selection heuristic (Algorithm 4 in Malkov &
    /// Yashunin): prefer *diverse* neighbors — a candidate is kept only if
    /// it is closer to the base point than to every already-selected
    /// neighbor. Remaining slots are filled with the closest pruned
    /// candidates ("keepPrunedConnections"), which preserves graph
    /// connectivity on clustered data.
    fn select_neighbors(
        &self,
        base: &[f32],
        found: &[Neighbor],
        m: usize,
        cost: &mut SearchCost,
    ) -> Vec<u32> {
        let _ = base;
        let mut selected: Vec<Neighbor> = Vec::with_capacity(m);
        let mut pruned: Vec<Neighbor> = Vec::new();
        for &cand in found {
            if selected.len() >= m {
                break;
            }
            let cand_vec = self.vec_at(cand.id);
            let diverse = selected.iter().all(|s| {
                let d = self.dist(cand_vec, s.id, &mut cost.graph_dims);
                d >= cand.distance
            });
            if diverse {
                selected.push(cand);
            } else {
                pruned.push(cand);
            }
        }
        for cand in pruned {
            if selected.len() >= m {
                break;
            }
            selected.push(cand);
        }
        selected.into_iter().map(|n| n.id).collect()
    }

    /// Re-prune a node's neighbor list to its budget with the same
    /// diversity heuristic used at insertion time.
    fn prune(&mut self, id: u32, layer: usize, m: usize, cost: &mut SearchCost) {
        let base = self.vec_at(id).to_vec();
        let links = &self.nodes[id as usize].links[layer];
        let mut scored: Vec<Neighbor> = links
            .iter()
            .map(|&nb| Neighbor { id: nb, distance: self.dist(&base, nb, &mut cost.graph_dims) })
            .collect();
        scored.sort_unstable();
        let kept = self.select_neighbors(&base, &scored, m, cost);
        self.nodes[id as usize].links[layer] = kept;
    }
}

impl VectorIndex for OracleIndex {
    fn search(&self, query: &[f32], sp: &SearchParams, cost: &mut SearchCost) -> Vec<Neighbor> {
        if self.nodes.is_empty() {
            return Vec::new();
        }
        let mut cur = self.entry;
        let mut layer = self.max_layer;
        while layer > 0 {
            cur = self.greedy_closest(query, cur, layer, cost);
            layer -= 1;
        }
        let ef = sp.ef.max(sp.top_k);
        let mut found = self.search_layer(query, cur, ef, 0, cost);
        found.truncate(sp.top_k);
        found
    }

    fn memory_bytes(&self) -> u64 {
        let links: usize = self
            .nodes
            .iter()
            .map(|n| n.links.iter().map(|l| l.len() * 4 + 24).sum::<usize>())
            .sum();
        (self.data.len() * 4 + links) as u64
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }
}

// ---------------------------------------------------------------------------
// Equivalence panel
// ---------------------------------------------------------------------------

/// `n` rows around a handful of cluster centres; with `dup > 0` every
/// `dup`-th row repeats an earlier one, so the graph is full of distance-0
/// links and of equal distances to different ids.
fn rows(n: usize, dim: usize, dup: usize, seed: u64) -> Vec<f32> {
    let mut r = rng(seed);
    let centres: Vec<f32> = (0..8 * dim).map(|_| r.gen::<f32>() * 4.0).collect();
    let mut v = Vec::with_capacity(n * dim);
    for i in 0..n {
        if dup > 0 && i > 0 && i % dup == dup - 1 {
            let src = r.gen_range(0..i);
            v.extend_from_within(src * dim..(src + 1) * dim);
        } else {
            let c = r.gen_range(0..8usize);
            v.extend((0..dim).map(|j| centres[c * dim + j] + r.gen::<f32>()));
        }
    }
    v
}

fn build_both(
    data: &[f32],
    dim: usize,
    m: usize,
    ef_c: usize,
    seed: u64,
) -> (HnswIndex, OracleIndex) {
    let params = IndexParams { hnsw_m: m, ef_construction: ef_c, ..Default::default() };
    let (mut fast_stats, mut slow_stats) = (BuildStats::default(), BuildStats::default());
    let fast = HnswIndex::build(data, dim, &params, seed, &mut fast_stats).unwrap();
    let slow = OracleIndex::build(data, dim, &params, seed, &mut slow_stats).unwrap();
    assert_eq!(fast_stats.train_dims, slow_stats.train_dims, "train_dims");
    (fast, slow)
}

/// Same graph (link order included), same modelled size, and for `queries`
/// perturbed rows of `data` the same ids, distance bits and costs.
fn assert_equivalent(
    fast: &HnswIndex,
    slow: &OracleIndex,
    data: &[f32],
    queries: usize,
    tag: &str,
) {
    let fast_nodes: Vec<Node> = (0..fast.len() as u32)
        .map(|i| Node { links: fast.lists_of(i).into_iter().map(<[u32]>::to_vec).collect() })
        .collect();
    assert_eq!(fast_nodes, slow.nodes, "{tag}: links");
    assert_eq!(fast.entry, slow.entry, "{tag}: entry");
    let slow_layers = if slow.nodes.is_empty() { 0 } else { slow.max_layer + 1 };
    assert_eq!(fast.layers.len(), slow_layers, "{tag}: layers");
    assert_eq!(fast.memory_bytes(), slow.memory_bytes(), "{tag}: memory_bytes");
    assert_eq!(fast.len(), slow.len());
    let dim = fast.dim;
    for qi in 0..queries {
        let row = (qi * 7919) % fast.len();
        let query: Vec<f32> =
            data[row * dim..(row + 1) * dim].iter().map(|x| x + 0.01 * qi as f32).collect();
        // A beam of one, then beams narrower and wider than the graph.
        for (ef, top_k) in [(0, 1), (10, 10), (100, 10), (512, 10)] {
            let sp = SearchParams { nprobe: 0, ef, reorder_k: 0, top_k };
            let (mut fast_cost, mut slow_cost) = (SearchCost::default(), SearchCost::default());
            let got = fast.search(&query, &sp, &mut fast_cost);
            let want = slow.search(&query, &sp, &mut slow_cost);
            let bits =
                |r: &[Neighbor]| r.iter().map(|n| (n.id, n.distance.to_bits())).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{tag}: query {qi} ef {ef}");
            assert_eq!(fast_cost, slow_cost, "{tag}: query {qi} ef {ef}");
        }
    }
}

#[test]
fn graph_counters_and_results_equal_the_literal_build() {
    // (n, dim, M, efC, dup, seed). M = 2 gives a dozen layers; M = 51 and
    // 64 at these n keep every layer-0 list at its cap, so nearly every
    // link made is a prune; efC = 1 and 9 leave lists that fill up link by
    // link (the first-prune path); 70_000 is an unsanitized M.
    let panel = [
        (400, 16, 2, 1, 0, 1),
        (400, 8, 4, 9, 0, 2),
        (500, 16, 16, 200, 0, 3),
        (250, 8, 51, 512, 0, 4),
        (270, 8, 64, 200, 0, 5),
        (450, 8, 16, 200, 3, 6),
        (300, 4, 4, 9, 2, 7),
        (200, 6, 51, 512, 5, 8),
        (120, 8, 70_000, 1, 0, 9),
    ];
    for (n, dim, m, ef_c, dup, seed) in panel {
        let data = rows(n, dim, dup, seed);
        let (fast, slow) = build_both(&data, dim, m, ef_c, seed);
        if m == 2 {
            assert!(fast.layers.len() > 4, "M = 2 should stack layers, got {}", fast.layers.len());
        }
        assert_equivalent(&fast, &slow, &data, 20, &format!("n={n} M={m} efC={ef_c} dup={dup}"));
    }
}

/// The benchmark's segment shape: 2048 rows of 48 dims, at the default
/// (M, efC) and two that keep most layer-0 lists full. Release builds only;
/// the literal build takes seconds here.
#[cfg(not(debug_assertions))]
#[test]
fn benchmark_segment_shape_equals_the_literal_build() {
    for (m, ef_c, seed) in [(16, 200, 51), (51, 512, 52), (61, 297, 53)] {
        let data = rows(2048, 48, 0, seed);
        let (fast, slow) = build_both(&data, 48, m, ef_c, seed);
        assert_equivalent(&fast, &slow, &data, 5, &format!("n=2048 dim=48 M={m} efC={ef_c}"));
    }
}

fn host_dists() -> u64 {
    HOST_DISTS.with(|n| n.get())
}

#[test]
fn replayed_prunes_compute_fewer_distances_than_the_literal_build() {
    // The panel rows where nearly every link made is a prune. Every
    // comparison the literal build charges it also computes; the builder
    // charges the same ones (`train_dims`) and computes fewer. The exact
    // counts are this implementation's: a change that only moves host work
    // still has to update them.
    for ((n, dim, m, ef_c, seed), want) in
        [((250, 8, 51, 512, 4), 172_925), ((270, 8, 64, 200, 5), 209_392)]
    {
        let data = rows(n, dim, 0, seed);
        let params = IndexParams { hnsw_m: m, ef_construction: ef_c, ..Default::default() };
        let (mut fast_stats, mut slow_stats) = (BuildStats::default(), BuildStats::default());
        let before = host_dists();
        HnswIndex::build(&data, dim, &params, seed, &mut fast_stats).unwrap();
        let host = host_dists() - before;
        OracleIndex::build(&data, dim, &params, seed, &mut slow_stats).unwrap();
        assert_eq!(fast_stats.train_dims, slow_stats.train_dims, "M = {m}");
        let literal = slow_stats.train_dims / dim as u64;
        assert!(host < literal, "M = {m}: {host} host distances, literal {literal}");
        assert_eq!(host, want, "M = {m}: host distances (literal {literal})");
    }
}

#[test]
fn empty_and_single_row_builds_match() {
    for n in [0, 1, 2] {
        let data = rows(n, 4, 0, 11);
        let (fast, slow) = build_both(&data, 4, 4, 8, 11);
        assert_equivalent(&fast, &slow, &data, n.min(1), &format!("n={n}"));
    }
}

#[test]
fn nan_component_builds_the_same_graph() {
    // Every distance to row 17 is NaN: it sorts last, never counts as
    // diverse and never displaces a real neighbor, on both sides.
    let (n, dim) = (200, 8);
    let mut data = rows(n, dim, 0, 21);
    data[17 * dim + 3] = f32::NAN;
    let (fast, slow) = build_both(&data, dim, 4, 40, 21);
    assert_equivalent(&fast, &slow, &data, 20, "NaN row");
}

#[test]
fn built_index_carries_no_slack() {
    let data = rows(400, 8, 0, 31);
    let (fast, slow) = build_both(&data, 8, 8, 64, 31);
    for (l, layer) in fast.layers.iter().enumerate() {
        let lists: Vec<usize> =
            slow.nodes.iter().filter_map(|node| node.links.get(l).map(Vec::len)).collect();
        let links: usize = lists.iter().sum();
        assert_eq!(layer.offsets.len(), lists.len() + 1, "layer {l}: offsets");
        assert_eq!((layer.ids.len(), layer.ids.capacity()), (links, links), "layer {l}: ids");
    }
    assert_eq!(fast.data.capacity(), fast.data.len());

    // An unsanitized M: the build's slots are bounded by the rows, not
    // by 2·M + 1.
    let (n, dim, m) = (120, 8, 70_000);
    let data = rows(n, dim, 0, 9);
    let vecs = Vectors { dim, data: &data, kern: kernel::active() };
    let builder = Builder::new(vecs, m, &draw_levels(n, m, 9));
    for (l, slab) in builder.layers.iter().enumerate() {
        assert!(slab.stride <= n, "layer {l}: stride {}", slab.stride);
    }
}

#[test]
fn stale_stamps_and_epoch_wrap_do_not_leak_into_a_search() {
    let (n, dim) = (300, 8);
    let data = rows(n, dim, 0, 41);
    let (fast, _) = build_both(&data, dim, 8, 64, 41);
    let graph = fast.graph();
    let run = |scratch: &mut SearchScratch, row: usize| {
        let query = &data[row * dim..(row + 1) * dim];
        let mut cost = SearchCost::default();
        graph.search_layer(query, fast.entry, 50, 0, &mut cost, scratch);
        (scratch.found.clone(), cost)
    };
    // A scratch three searches from wrapping, holding stamps from every
    // epoch it is about to reuse.
    let mut old = SearchScratch {
        epoch: u32::MAX - 3,
        visited: (0..n as u32).map(|i| u32::MAX - 3 - i % 5).collect(),
        ..Default::default()
    };
    for row in 0..8 {
        assert_eq!(run(&mut old, row), run(&mut SearchScratch::default(), row), "search {row}");
    }
    assert!(old.epoch < 8, "the epoch wrapped");
}

#[test]
fn key_order_is_neighbor_order() {
    let distances = [
        0.0,
        f32::from_bits(1),
        f32::from_bits(0x007F_FFFF),
        f32::MIN_POSITIVE,
        1.0,
        1.0 + f32::EPSILON,
        f32::MAX,
        f32::INFINITY,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7FC0_0001),
    ];
    let mut panel: Vec<Neighbor> = Vec::new();
    for (i, &distance) in distances.iter().enumerate() {
        // Two ids per distance, in descending id order across the panel.
        panel.push(Neighbor { id: 100 - i as u32, distance });
        panel.push(Neighbor { id: 200 - i as u32, distance });
    }
    let mut by_cmp = panel.clone();
    by_cmp.sort();
    let mut by_key = panel;
    by_key.sort_by_key(|n| key(n.distance, n.id));
    let ids = |v: &[Neighbor]| v.iter().map(|n| n.id).collect::<Vec<_>>();
    assert_eq!(ids(&by_key), ids(&by_cmp));
    assert!(by_key[by_key.len() - 6..].iter().all(|n| n.distance.is_nan()), "NaNs last");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_small_shapes_match_the_literal_build(
        n in 1usize..160,
        dim in 1usize..9,
        m in 2usize..20,
        ef_c in 1usize..80,
        dup in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let data = rows(n, dim, dup, seed);
        let (fast, slow) = build_both(&data, dim, m, ef_c, seed);
        let tag = format!("n={n} dim={dim} M={m} efC={ef_c} dup={dup} seed={seed}");
        assert_equivalent(&fast, &slow, &data, 3, &tag);
    }
}
