//! HNSW: Hierarchical Navigable Small World graph (Malkov & Yashunin).
//!
//! A faithful in-memory implementation: exponentially distributed layer
//! assignment, greedy descent through upper layers, beam search
//! (`efConstruction` / `ef`) on layer 0, bidirectional links pruned to `M`
//! (2·M on layer 0, as in hnswlib and Milvus).
//!
//! The graph, `BuildStats::train_dims` and every query-time `SearchCost`
//! are those of the literal transcription kept in `oracle.rs` (test-only),
//! bit for bit; the host does less arithmetic to get there. Three things
//! carry that equivalence:
//!
//! * **Link order is semantic.** Beam search visits a node's links in
//!   stored order and ties are decided by who was visited first, so a
//!   neighbor list is always written as the heuristic emits it: diverse
//!   links in ascending `(distance, id)` order, then the non-diverse fill in
//!   the same order.
//! * **`train_dims` counts logical distance evaluations.** Re-pruning a full
//!   list after one new link replays the previous pass from a per-link memo
//!   (`Builder::prune`) and adds the dims of every comparison the literal
//!   pass would have made, whether or not the host recomputed it.
//! * **Heaps and sorts run on `key`**, a `u64` whose integer order is
//!   `Neighbor::cmp` for every distance `l2_sq` returns.

use crate::cost::{BuildStats, SearchCost};
use crate::index::{BuildError, VectorIndex};
use crate::params::{IndexParams, SearchParams};
use rand::Rng;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use vecdata::ground_truth::Neighbor;
use vecdata::kernel::{self, Kernel};
use vecdata::rng::rng;

#[cfg(test)]
mod oracle;

/// One graph node: neighbor lists per layer (layer 0 first).
#[derive(Debug, Clone, PartialEq)]
struct Node {
    /// `links[l]` = neighbor ids on layer `l`.
    links: Vec<Vec<u32>>,
}

/// An HNSW graph over a copied vector buffer.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    dim: usize,
    data: Vec<f32>,
    nodes: Vec<Node>,
    entry: u32,
    max_layer: usize,
}

/// The one NaN pattern [`key`] uses (the quiet NaN `l2_sq` propagates from
/// a NaN component).
const NAN_BITS: u32 = 0x7FC0_0000;

/// Sort/heap key of a `(distance, id)` pair. Its `u64` order is
/// `Neighbor::cmp` for every distance `l2_sq` can return — `+0.0`,
/// positive, `+∞` or NaN: non-negative floats order like their bit
/// patterns, and NaNs, folded to one pattern above `+∞`, sort last and
/// break ties on id.
#[inline]
fn key(distance: f32, id: u32) -> u64 {
    let bits = if distance.is_nan() { NAN_BITS } else { distance.to_bits() };
    (u64::from(bits) << 32) | u64::from(id)
}

#[inline]
fn key_distance(key: u64) -> f32 {
    f32::from_bits((key >> 32) as u32)
}

#[inline]
fn key_id(key: u64) -> u32 {
    key as u32
}

/// The vectors a graph is over, with the distance kernel resolved once per
/// build or search instead of once per pair.
#[derive(Clone, Copy)]
struct Vectors<'a> {
    dim: usize,
    data: &'a [f32],
    kern: &'a dyn Kernel,
}

impl<'a> Vectors<'a> {
    #[inline]
    fn at(&self, id: u32) -> &'a [f32] {
        &self.data[id as usize * self.dim..(id as usize + 1) * self.dim]
    }

    /// Graph traversal visits nodes in data-dependent order (random access),
    /// so there is no contiguous block to hand to the kernel's batched API;
    /// each per-pair distance still runs on the dispatched SIMD kernel.
    #[inline]
    fn dist(&self, a: &[f32], id: u32, dims: &mut u64) -> f32 {
        *dims += self.dim as u64;
        self.kern.l2_sq(a, self.at(id))
    }
}

/// Beam-search state reused across calls: the visited set is an epoch stamp
/// per node (clearing it is one increment), and the heaps keep their
/// allocations.
#[derive(Default)]
struct SearchScratch {
    visited: Vec<u32>,
    epoch: u32,
    /// Min-heap of nodes still to expand.
    candidates: BinaryHeap<Reverse<u64>>,
    /// Max-heap of the best `ef` nodes so far: the root is the worst kept.
    results: BinaryHeap<u64>,
    /// Output of the last [`Graph::search_layer`], ascending.
    found: Vec<u64>,
}

impl SearchScratch {
    /// Start a search over `n` nodes with nothing visited; returns the
    /// stamp that marks a node visited in this search.
    fn begin(&mut self, n: usize) -> u32 {
        if self.visited.len() < n {
            self.visited.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.candidates.clear();
        self.results.clear();
        self.epoch
    }
}

thread_local! {
    /// Query-path scratch. `HnswIndex::search` takes `&self` and runs under
    /// `par_iter`, so the reusable state lives with the calling thread, not
    /// in the index.
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::default());
}

/// The traversable graph: what construction and queries both search.
struct Graph<'a> {
    vecs: Vectors<'a>,
    nodes: &'a [Node],
}

impl Graph<'_> {
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
        let mut cur_d = self.vecs.dist(query, cur, &mut cost.graph_dims);
        loop {
            let mut improved = false;
            for &nb in &self.nodes[cur as usize].links[layer] {
                cost.graph_hops += 1;
                let d = self.vecs.dist(query, nb, &mut cost.graph_dims);
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

    /// Beam search on one layer: leaves up to `ef` candidates in
    /// `scratch.found`, sorted by ascending key.
    ///
    /// Admission reproduces `TopK`: everything is kept until `ef` are held,
    /// after which a candidate replaces the worst kept only when its
    /// distance is strictly smaller.
    fn search_layer(
        &self,
        query: &[f32],
        entry: u32,
        ef: usize,
        layer: usize,
        cost: &mut SearchCost,
        scratch: &mut SearchScratch,
    ) {
        let ef = ef.max(1);
        let epoch = scratch.begin(self.nodes.len());
        let SearchScratch { visited, candidates, results, found, .. } = scratch;
        visited[entry as usize] = epoch;
        let k0 = key(self.vecs.dist(query, entry, &mut cost.graph_dims), entry);
        candidates.push(Reverse(k0));
        results.push(k0);
        let mut bound = threshold(results, ef);

        while let Some(Reverse(cand)) = candidates.pop() {
            if key_distance(cand) > bound {
                break;
            }
            for &nb in &self.nodes[key_id(cand) as usize].links[layer] {
                let stamp = &mut visited[nb as usize];
                if *stamp == epoch {
                    continue;
                }
                *stamp = epoch;
                cost.graph_hops += 1;
                let d = self.vecs.dist(query, nb, &mut cost.graph_dims);
                let k = key(d, nb);
                if results.len() < ef {
                    results.push(k);
                } else if d < bound {
                    *results.peek_mut().expect("ef >= 1 results are held") = k;
                } else {
                    continue;
                }
                bound = threshold(results, ef);
                candidates.push(Reverse(k));
                cost.heap_pushes += 1;
            }
        }
        found.clear();
        found.extend(results.drain());
        found.sort_unstable();
    }
}

/// `TopK::threshold`: the worst kept distance (the max-heap root), infinite
/// until `ef` are kept.
#[inline]
fn threshold(results: &BinaryHeap<u64>, ef: usize) -> f32 {
    match results.peek() {
        Some(&worst) if results.len() >= ef => key_distance(worst),
        _ => f32::INFINITY,
    }
}

/// Build-only memo of one link, parallel to its id in `Node::links`.
#[derive(Clone, Copy)]
struct LinkMemo {
    /// Distance to the list's owner. Known when the link is made (`l2_sq`
    /// is bitwise symmetric), so no prune recomputes it.
    dist: f32,
    /// Comparisons the last diversity pass spent on this link. At most the
    /// list length, which is below the `u32` id space.
    cmps: u32,
}

/// Build-only memo of one neighbor list.
#[derive(Clone, Default)]
struct ListMemo {
    links: Vec<LinkMemo>,
    /// Nonzero once the list is full and in heuristic order: its first
    /// `diverse` links are the diverse ones, the rest the non-diverse fill,
    /// each run ascending by key, and every `cmps` is current. A full list
    /// stays that way because each further link is pruned away at once.
    diverse: u32,
}

/// A candidate the diversity pass has decided on.
#[derive(Clone, Copy)]
struct Pick {
    key: u64,
    cmps: u32,
}

/// The paper's neighbor-selection heuristic (Algorithm 4 in Malkov &
/// Yashunin): prefer *diverse* neighbors — a candidate is kept only if it
/// is closer to the base point than to every already-selected neighbor.
/// The rejected ones go to `pruned`, from which the caller fills the
/// remaining slots ("keepPrunedConnections"), which preserves graph
/// connectivity on clustered data.
///
/// Continues from whatever `selected` and `pruned` already hold, over
/// `cands` in ascending key order, until `cap` are selected.
fn select_neighbors(
    vecs: Vectors<'_>,
    cands: &[u64],
    cap: usize,
    selected: &mut Vec<Pick>,
    pruned: &mut Vec<Pick>,
    dims: &mut u64,
) {
    for &cand in cands {
        if selected.len() >= cap {
            break;
        }
        let cand_vec = vecs.at(key_id(cand));
        let mut cmps = 0;
        let diverse = selected.iter().all(|s| {
            cmps += 1;
            vecs.dist(cand_vec, key_id(s.key), dims) >= key_distance(cand)
        });
        let pick = Pick { key: cand, cmps };
        if diverse {
            selected.push(pick);
        } else {
            pruned.push(pick);
        }
    }
}

/// First index in `range` whose link's key is not below `k`; `range` must
/// be one ascending run of the list.
fn lower_bound(links: &[u32], memo: &[LinkMemo], range: Range<usize>, k: u64) -> usize {
    let (mut lo, mut hi) = (range.start, range.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if key(memo[mid].dist, links[mid]) < k {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Graph construction: the growing graph plus everything only `build`
/// needs, all of it dropped before the index is returned.
struct Builder<'a> {
    vecs: Vectors<'a>,
    m: usize,
    nodes: Vec<Node>,
    /// `memo[node][layer]` mirrors `nodes[node].links[layer]`.
    memo: Vec<Vec<ListMemo>>,
    entry: u32,
    max_layer: usize,
    cost: SearchCost,
    scratch: SearchScratch,
    order: Vec<u64>,
    selected: Vec<Pick>,
    pruned: Vec<Pick>,
}

impl Builder<'_> {
    fn max_links(&self, layer: usize) -> usize {
        if layer == 0 {
            self.m * 2
        } else {
            self.m
        }
    }

    /// Insert node `id` with top layer `level`.
    fn insert(&mut self, id: u32, level: usize, ef_c: usize) {
        self.nodes.push(Node { links: vec![Vec::new(); level + 1] });
        self.memo.push(vec![ListMemo::default(); level + 1]);
        if self.nodes.len() == 1 {
            self.entry = id;
            self.max_layer = level;
            return;
        }

        let query = self.vecs.at(id);
        let top = self.max_layer;
        let mut cur = self.entry;

        // Descend greedily through layers above `level`.
        for layer in (level + 1..=top).rev() {
            let graph = Graph { vecs: self.vecs, nodes: &self.nodes };
            cur = graph.greedy_closest(query, cur, layer, &mut self.cost);
        }

        // Connect on each layer from min(level, top) down to 0.
        for l in (0..=level.min(top)).rev() {
            let graph = Graph { vecs: self.vecs, nodes: &self.nodes };
            graph.search_layer(query, cur, ef_c, l, &mut self.cost, &mut self.scratch);
            let cap = self.max_links(l);
            self.selected.clear();
            self.pruned.clear();
            select_neighbors(
                self.vecs,
                &self.scratch.found,
                cap,
                &mut self.selected,
                &mut self.pruned,
                &mut self.cost.graph_dims,
            );
            self.write_list(id, l, cap);
            for k in 0..self.nodes[id as usize].links[l].len() {
                let nb = self.nodes[id as usize].links[l][k];
                let dist = self.memo[id as usize][l].links[k].dist;
                self.nodes[nb as usize].links[l].push(id);
                self.memo[nb as usize][l].links.push(LinkMemo { dist, cmps: 0 });
                // Prune the neighbor if it exceeded its budget.
                if self.nodes[nb as usize].links[l].len() > cap {
                    self.prune(nb, l, cap);
                }
            }
            if let Some(&first) = self.nodes[id as usize].links[l].first() {
                cur = first;
            }
        }

        if level > self.max_layer {
            self.max_layer = level;
            self.entry = id;
        }
    }

    /// Store `selected` then `pruned`, cut to `cap`, as `id`'s list.
    fn write_list(&mut self, id: u32, layer: usize, cap: usize) {
        let links = &mut self.nodes[id as usize].links[layer];
        let memo = &mut self.memo[id as usize][layer];
        links.clear();
        memo.links.clear();
        for pick in self.selected.iter().chain(&self.pruned).take(cap) {
            links.push(key_id(pick.key));
            memo.links.push(LinkMemo { dist: key_distance(pick.key), cmps: pick.cmps });
        }
        memo.diverse = if links.len() == cap { self.selected.len() as u32 } else { 0 };
    }

    /// Re-prune `id`'s list, one link over its budget, with the same
    /// diversity heuristic used at insertion time.
    ///
    /// The literal pass scores all `cap + 1` links against `id`, sorts them
    /// and runs [`select_neighbors`]; exactly one link is dropped, and it is
    /// never a selected one, so the decisions the pass made about the links
    /// it kept are the decisions a pass over just those links would make.
    /// With that memo in hand only the new link `x` needs work: the links
    /// sorted before `x` replay, `x` is compared against the diverse ones
    /// among them, and the links after `x` replay too unless `x` turns out
    /// diverse, in which case they are decided again. Replayed comparisons
    /// are charged to `graph_dims` like computed ones.
    fn prune(&mut self, id: u32, layer: usize, cap: usize) {
        let vecs = self.vecs;
        let dims = &mut self.cost.graph_dims;
        let links = &mut self.nodes[id as usize].links[layer];
        let memo = &mut self.memo[id as usize][layer];
        // The owner distances: charged, not computed.
        *dims += (links.len() * vecs.dim) as u64;
        let replay =
            |run: &[LinkMemo]| run.iter().map(|l| u64::from(l.cmps)).sum::<u64>() * vecs.dim as u64;

        self.selected.clear();
        self.pruned.clear();
        self.order.clear();
        let diverse = memo.diverse as usize;
        if diverse == 0 {
            // First prune of a list that filled up link by link.
            self.order.extend(links.iter().zip(&memo.links).map(|(&nb, l)| key(l.dist, nb)));
            self.order.sort_unstable();
        } else {
            let x = links[cap];
            let x_dist = memo.links[cap].dist;
            let x_key = key(x_dist, x);
            // `x` sorts after `diverse_before` diverse links and, within the
            // non-diverse run, at index `fill_at`.
            let diverse_before = lower_bound(links, &memo.links, 0..diverse, x_key);
            let fill_at = lower_bound(links, &memo.links, diverse..cap, x_key);

            let x_vec = vecs.at(x);
            let mut x_cmps = 0;
            // With `cap` links selected before it, `x` is never looked at.
            let x_diverse = diverse_before < cap
                && links[..diverse_before].iter().all(|&s| {
                    x_cmps += 1;
                    vecs.dist(x_vec, s, dims) >= x_dist
                });
            if !x_diverse {
                // Nothing after `x` changes; the farthest non-diverse link
                // goes, which is `x` itself when it sorts last.
                *dims += replay(&memo.links[..cap]);
                if fill_at < cap {
                    memo.links[cap].cmps = x_cmps;
                    links[fill_at..].rotate_right(1);
                    memo.links[fill_at..].rotate_right(1);
                }
                links.pop();
                memo.links.pop();
                return;
            }

            *dims += replay(&memo.links[..diverse_before]) + replay(&memo.links[diverse..fill_at]);
            let pick = |i: usize| Pick {
                key: key(memo.links[i].dist, links[i]),
                cmps: memo.links[i].cmps,
            };
            self.selected.extend((0..diverse_before).map(pick));
            self.selected.push(Pick { key: x_key, cmps: x_cmps });
            self.pruned.extend((diverse..fill_at).map(pick));
            // The links after `x`, merged from the two runs.
            let (mut i, mut j) = (diverse_before, fill_at);
            while i < diverse || j < cap {
                let from_diverse = j == cap || (i < diverse && pick(i).key < pick(j).key);
                let next = if from_diverse { &mut i } else { &mut j };
                self.order.push(pick(*next).key);
                *next += 1;
            }
        }
        select_neighbors(vecs, &self.order, cap, &mut self.selected, &mut self.pruned, dims);
        self.write_list(id, layer, cap);
    }

    fn finish(self) -> HnswIndex {
        let Builder { vecs, mut nodes, memo, entry, max_layer, .. } = self;
        // Before the vectors are copied, so the two never coexist.
        drop(memo);
        // Lists were grown and pruned in place; give back the slack.
        for node in &mut nodes {
            for links in &mut node.links {
                links.shrink_to_fit();
            }
        }
        HnswIndex { dim: vecs.dim, data: vecs.data.to_vec(), nodes, entry, max_layer }
    }
}

impl HnswIndex {
    pub fn build(
        vectors: &[f32],
        dim: usize,
        params: &IndexParams,
        seed: u64,
        stats: &mut BuildStats,
    ) -> Result<HnswIndex, BuildError> {
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

        let mut builder = Builder {
            vecs: Vectors { dim, data: vectors, kern: kernel::active() },
            m,
            nodes: Vec::with_capacity(n),
            memo: Vec::with_capacity(n),
            entry: 0,
            max_layer: 0,
            cost: SearchCost::default(),
            scratch: SearchScratch::default(),
            order: Vec::new(),
            selected: Vec::new(),
            pruned: Vec::new(),
        };
        for i in 0..n {
            let level = (-(r.gen::<f64>().max(1e-12)).ln() * level_mult).floor() as usize;
            builder.insert(i as u32, level, ef_c);
        }
        stats.train_dims += builder.cost.graph_dims;
        Ok(builder.finish())
    }

    fn graph(&self) -> Graph<'_> {
        Graph {
            vecs: Vectors { dim: self.dim, data: &self.data, kern: kernel::active() },
            nodes: &self.nodes,
        }
    }
}

impl VectorIndex for HnswIndex {
    fn search(&self, query: &[f32], sp: &SearchParams, cost: &mut SearchCost) -> Vec<Neighbor> {
        if self.nodes.is_empty() {
            return Vec::new();
        }
        let graph = self.graph();
        let mut cur = self.entry;
        for layer in (1..=self.max_layer).rev() {
            cur = graph.greedy_closest(query, cur, layer, cost);
        }
        let ef = sp.ef.max(sp.top_k);
        SCRATCH.with_borrow_mut(|scratch| {
            graph.search_layer(query, cur, ef, 0, cost, scratch);
            let top = scratch.found.iter().take(sp.top_k);
            top.map(|&k| Neighbor { id: key_id(k), distance: key_distance(k) }).collect()
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use vecdata::{ground_truth, DatasetKind, DatasetSpec};

    fn build_tiny(m: usize, ef_c: usize) -> (vecdata::Dataset, HnswIndex) {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let params = IndexParams { hnsw_m: m, ef_construction: ef_c, ..Default::default() }
            .sanitized(ds.dim(), 10);
        let mut stats = BuildStats::default();
        let idx = HnswIndex::build(ds.raw(), ds.dim(), &params, 5, &mut stats).unwrap();
        (ds, idx)
    }

    fn mean_recall(ds: &vecdata::Dataset, idx: &HnswIndex, ef: usize) -> f64 {
        let gt = ground_truth(ds, 10);
        let sp = SearchParams { nprobe: 0, ef, reorder_k: 0, top_k: 10 };
        let mut acc = 0.0;
        for qi in 0..ds.n_queries() {
            let mut cost = SearchCost::default();
            let ids: Vec<u32> =
                idx.search(ds.query(qi), &sp, &mut cost).iter().map(|n| n.id).collect();
            acc += vecdata::ground_truth::recall(&ids, &gt[qi]);
        }
        acc / ds.n_queries() as f64
    }

    #[test]
    fn high_ef_gives_high_recall() {
        let (ds, idx) = build_tiny(16, 200);
        let r = mean_recall(&ds, &idx, 256);
        assert!(r > 0.95, "HNSW recall at ef=256 was {r}");
    }

    #[test]
    fn recall_monotone_in_ef() {
        let (ds, idx) = build_tiny(16, 200);
        let lo = mean_recall(&ds, &idx, 10);
        let hi = mean_recall(&ds, &idx, 200);
        assert!(hi >= lo, "recall should not decrease with ef: {lo} -> {hi}");
    }

    #[test]
    fn cost_grows_with_ef() {
        let (ds, idx) = build_tiny(16, 100);
        let mut c_lo = SearchCost::default();
        let mut c_hi = SearchCost::default();
        idx.search(
            ds.query(0),
            &SearchParams { nprobe: 0, ef: 10, reorder_k: 0, top_k: 10 },
            &mut c_lo,
        );
        idx.search(
            ds.query(0),
            &SearchParams { nprobe: 0, ef: 300, reorder_k: 0, top_k: 10 },
            &mut c_hi,
        );
        assert!(c_hi.graph_dims > c_lo.graph_dims);
        assert!(c_hi.graph_hops > c_lo.graph_hops);
    }

    #[test]
    fn degree_bounded() {
        let (_, idx) = build_tiny(8, 64);
        for (i, node) in idx.nodes.iter().enumerate() {
            for (l, links) in node.links.iter().enumerate() {
                let cap = if l == 0 { 16 } else { 8 };
                assert!(links.len() <= cap, "node {i} layer {l} degree {}", links.len());
            }
        }
    }

    #[test]
    fn links_are_bidirectional_enough_to_reach_all() {
        // Graph connectivity: from the entry point, a BFS on layer 0 should
        // reach nearly every node (HNSW guarantees connectivity in practice).
        let (_, idx) = build_tiny(12, 128);
        let n = idx.nodes.len();
        let mut seen = vec![false; n];
        let mut queue = vec![idx.entry];
        seen[idx.entry as usize] = true;
        let mut reached = 1;
        while let Some(u) = queue.pop() {
            for &v in &idx.nodes[u as usize].links[0] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    reached += 1;
                    queue.push(v);
                }
            }
        }
        assert!(reached as f64 / n as f64 > 0.99, "only {reached}/{n} reachable");
    }

    #[test]
    fn rejects_tiny_m() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        let params = IndexParams { hnsw_m: 1, ..Default::default() };
        let mut stats = BuildStats::default();
        assert!(HnswIndex::build(ds.raw(), ds.dim(), &params, 0, &mut stats).is_err());
    }
}
