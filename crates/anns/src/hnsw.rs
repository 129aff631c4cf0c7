//! HNSW: Hierarchical Navigable Small World graph (Malkov & Yashunin).
//!
//! A faithful in-memory implementation: exponentially distributed layer
//! assignment, greedy descent through upper layers, beam search
//! (`efConstruction` / `ef`) on layer 0, bidirectional links pruned to `M`
//! (2·M on layer 0, as in hnswlib and Milvus).
//!
//! The graph, `BuildStats::train_dims` and every query-time `SearchCost`
//! are those of the literal transcription kept in `oracle.rs` (test-only),
//! bit for bit; the host does less arithmetic to get there. Four things
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
//! * **A re-selection replays what the previous pass compared.** When the
//!   new link is diverse, the links after it are decided again, but each
//!   one's memo says which of the old diverse links it was compared with
//!   and how that came out (`Pick::recall`); only the comparisons that
//!   pass never made are computed.
//! * **Heaps and sorts run on `key`**, a `u64` whose integer order is
//!   `Neighbor::cmp` for every distance `l2_sq` returns.
//!
//! Layout: while the graph is built, each layer is one fixed-stride slab
//! (`Slab`) with the list lengths and the memo beside it; the built index
//! keeps each layer in CSR form (`Layer`). Layer 0 holds every node at its
//! own id; an upper layer holds about 1/M of them and maps node to slot.

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

/// An HNSW graph over a copied vector buffer.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    dim: usize,
    data: Vec<f32>,
    /// `layers[l]` holds the lists of the nodes drawn at level `l` or above.
    layers: Vec<Layer>,
    entry: u32,
}

/// Node → slot on one layer. Layer 0 holds every node at its own id and
/// keeps no map; an upper layer holds the nodes drawn that high, in id
/// order, and maps every other node to `ABSENT`.
#[derive(Debug, Clone)]
struct Slots(Vec<u32>);

const ABSENT: u32 = u32::MAX;

impl Slots {
    /// The slots of layer `layer` for nodes drawn at `levels`, and how many
    /// there are.
    fn new(levels: &[usize], layer: usize) -> (Slots, usize) {
        if layer == 0 {
            return (Slots(Vec::new()), levels.len());
        }
        let mut count = 0;
        let map = levels
            .iter()
            .map(|&level| {
                if level < layer {
                    return ABSENT;
                }
                count += 1;
                count as u32 - 1
            })
            .collect();
        (Slots(map), count)
    }

    #[inline]
    fn of(&self, node: u32) -> usize {
        if self.0.is_empty() {
            node as usize
        } else {
            self.0[node as usize] as usize
        }
    }
}

/// One layer's neighbor lists, however they are stored.
trait Lists {
    fn links(&self, node: u32) -> &[u32];
}

/// One layer of a built index, in CSR form.
#[derive(Debug, Clone)]
struct Layer {
    slots: Slots,
    /// Slot `s`'s links are `ids[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<usize>,
    ids: Vec<u32>,
}

impl Lists for Layer {
    #[inline]
    fn links(&self, node: u32) -> &[u32] {
        let s = self.slots.of(node);
        &self.ids[self.offsets[s]..self.offsets[s + 1]]
    }
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

#[cfg(test)]
thread_local! {
    /// Distances computed on this thread by [`Vectors::dist`], build and
    /// search alike.
    static HOST_DISTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The vectors a graph is over, with the distance kernel resolved once per
/// build or search instead of once per pair.
#[derive(Clone, Copy)]
struct Vectors<'a> {
    dim: usize,
    data: &'a [f32],
    kern: Kernel,
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
        #[cfg(test)]
        HOST_DISTS.with(|n| n.set(n.get() + 1));
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
struct Graph<'a, L> {
    vecs: Vectors<'a>,
    layers: &'a [L],
    /// Node ids the visited set must cover.
    nodes: usize,
}

impl<L: Lists> Graph<'_, L> {
    /// Greedy search on one layer starting from `entry`, returning the
    /// closest node found (used for descending the upper layers).
    fn greedy_closest(
        &self,
        query: &[f32],
        entry: u32,
        layer: usize,
        cost: &mut SearchCost,
    ) -> u32 {
        let lists = &self.layers[layer];
        let mut cur = entry;
        let mut cur_d = self.vecs.dist(query, cur, &mut cost.graph_dims);
        loop {
            let mut improved = false;
            for &nb in lists.links(cur) {
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
        let lists = &self.layers[layer];
        let ef = ef.max(1);
        let epoch = scratch.begin(self.nodes);
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
            for &nb in lists.links(key_id(cand)) {
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

/// Build-only memo of one link, parallel to its id in the slab.
#[derive(Clone, Copy)]
struct LinkMemo {
    /// Distance to the list's owner. Known when the link is made (`l2_sq`
    /// is bitwise symmetric), so no prune recomputes it.
    dist: f32,
    /// Comparisons the last diversity pass spent on this link. At most the
    /// list length, which is below the `u32` id space.
    cmps: u32,
}

/// One layer's lists while the graph is built: slot `s` owns `stride`
/// consecutive entries of `ids` and of `memo`, the first `lens[s]` in use.
/// The stride is one more than the longest list the layer can hold, so a
/// full list has room for the link its next prune removes.
struct Slab {
    slots: Slots,
    /// The most links a list keeps.
    cap: usize,
    stride: usize,
    ids: Vec<u32>,
    memo: Vec<LinkMemo>,
    lens: Vec<u32>,
    /// Per slot: nonzero once the list is full and in heuristic order. Its
    /// first `diverse` links are the diverse ones, the rest the non-diverse
    /// fill, each run ascending by key, and every `cmps` is current. A full
    /// list stays that way because each further link is pruned away at once.
    diverse: Vec<u32>,
}

impl Slab {
    /// The slab of layer `layer`, whose lists hold at most `cap` links.
    fn new(levels: &[usize], layer: usize, cap: usize) -> Slab {
        let (slots, count) = Slots::new(levels, layer);
        // A list only ever links other nodes of its layer.
        let stride = cap.min(count - 1) + 1;
        Slab {
            slots,
            cap,
            stride,
            ids: vec![0; count * stride],
            memo: vec![LinkMemo { dist: 0.0, cmps: 0 }; count * stride],
            lens: vec![0; count],
            diverse: vec![0; count],
        }
    }

    /// Where slot `s`'s links are in `ids` and `memo`.
    #[inline]
    fn list(&self, s: usize) -> Range<usize> {
        let start = s * self.stride;
        start..start + self.lens[s] as usize
    }

    /// Append a link to slot `s`'s list; returns the new length.
    fn push(&mut self, s: usize, id: u32, dist: f32) -> usize {
        let at = self.list(s).end;
        self.ids[at] = id;
        self.memo[at] = LinkMemo { dist, cmps: 0 };
        self.lens[s] += 1;
        self.lens[s] as usize
    }

    /// Store `selected` then `pruned`, cut to the cap, as slot `s`'s list.
    fn write(&mut self, s: usize, selected: &[Pick], pruned: &[Pick]) {
        let start = s * self.stride;
        let mut len = 0;
        for pick in selected.iter().chain(pruned).take(self.cap) {
            self.ids[start + len] = key_id(pick.key);
            self.memo[start + len] = LinkMemo { dist: key_distance(pick.key), cmps: pick.cmps };
            len += 1;
        }
        self.lens[s] = len as u32;
        self.diverse[s] = if len == self.cap { selected.len() as u32 } else { 0 };
    }

    /// Drop the memo and close the gaps between the lists.
    fn into_layer(self) -> Layer {
        let Slab { slots, stride, mut ids, memo, lens, .. } = self;
        drop(memo);
        let mut offsets = Vec::with_capacity(lens.len() + 1);
        offsets.push(0);
        let mut end = 0;
        for (s, &len) in lens.iter().enumerate() {
            ids.copy_within(s * stride..s * stride + len as usize, end);
            end += len as usize;
            offsets.push(end);
        }
        ids.truncate(end);
        ids.shrink_to_fit();
        Layer { slots, offsets, ids }
    }
}

impl Lists for Slab {
    #[inline]
    fn links(&self, node: u32) -> &[u32] {
        &self.ids[self.list(self.slots.of(node))]
    }
}

/// [`Pick::old`] of a link that was not in the old diverse run.
const NEW: u32 = u32::MAX;

/// A candidate the diversity pass has decided on, or is about to.
#[derive(Clone, Copy)]
struct Pick {
    key: u64,
    /// Comparisons a pass spent on it: the current pass once decided, the
    /// previous pass over the same list before that (0 if there was none).
    cmps: u32,
    /// Its index in the previous pass's diverse run, or [`NEW`].
    old: u32,
}

impl Pick {
    fn fresh(key: u64) -> Pick {
        Pick { key, cmps: 0, old: NEW }
    }

    /// What the previous pass found comparing this candidate with entry
    /// `old` of its diverse run — whether the candidate passed — or `None`
    /// if it never made that comparison. A diverse candidate was compared
    /// with every diverse link before it and passed; any other was
    /// compared with the first `cmps`, passed all but the last, and was
    /// rejected there.
    #[inline]
    fn recall(self, old: u32) -> Option<bool> {
        (old < self.cmps).then(|| self.old != NEW || old + 1 < self.cmps)
    }
}

/// The paper's neighbor-selection heuristic (Algorithm 4 in Malkov &
/// Yashunin): prefer *diverse* neighbors — a candidate is kept only if it
/// is closer to the base point than to every already-selected neighbor.
/// The rejected ones go to `pruned`, from which the caller fills the
/// remaining slots ("keepPrunedConnections"), which preserves graph
/// connectivity on clustered data.
///
/// Continues from whatever `selected` and `pruned` already hold, over
/// `cands` in ascending key order, until `cap` are selected. A comparison
/// the candidate's record answers ([`Pick::recall`]) is charged, not
/// computed; a fresh candidate's record answers none.
fn select_neighbors(
    vecs: Vectors<'_>,
    cands: impl IntoIterator<Item = Pick>,
    cap: usize,
    selected: &mut Vec<Pick>,
    pruned: &mut Vec<Pick>,
    dims: &mut u64,
) {
    for cand in cands {
        if selected.len() >= cap {
            break;
        }
        let cand_vec = vecs.at(key_id(cand.key));
        let cand_dist = key_distance(cand.key);
        let mut cmps = 0;
        let diverse = selected.iter().all(|s| {
            cmps += 1;
            match cand.recall(s.old) {
                Some(passed) => {
                    *dims += vecs.dim as u64;
                    passed
                }
                None => vecs.dist(cand_vec, key_id(s.key), dims) >= cand_dist,
            }
        });
        let pick = Pick { cmps, ..cand };
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
    layers: Vec<Slab>,
    entry: u32,
    max_layer: usize,
    cost: SearchCost,
    scratch: SearchScratch,
    order: Vec<Pick>,
    selected: Vec<Pick>,
    pruned: Vec<Pick>,
}

/// Each node's top layer, drawn in id order from the build's seed.
fn draw_levels(n: usize, m: usize, seed: u64) -> Vec<usize> {
    let level_mult = 1.0 / (m as f64).ln();
    let mut r = rng(seed);
    (0..n).map(|_| (-(r.gen::<f64>().max(1e-12)).ln() * level_mult).floor() as usize).collect()
}

impl<'a> Builder<'a> {
    fn new(vecs: Vectors<'a>, m: usize, levels: &[usize]) -> Builder<'a> {
        // 2·M links on layer 0, M above.
        let cap = |l: usize| if l == 0 { m * 2 } else { m };
        let layers = match levels.iter().max() {
            Some(&top) => (0..=top).map(|l| Slab::new(levels, l, cap(l))).collect(),
            None => Vec::new(),
        };
        Builder {
            vecs,
            layers,
            entry: 0,
            max_layer: 0,
            cost: SearchCost::default(),
            scratch: SearchScratch::default(),
            order: Vec::new(),
            selected: Vec::new(),
            pruned: Vec::new(),
        }
    }

    /// Insert node `id` with top layer `level`; nodes arrive in id order.
    fn insert(&mut self, id: u32, level: usize, ef_c: usize) {
        if id == 0 {
            self.entry = id;
            self.max_layer = level;
            return;
        }

        let query = self.vecs.at(id);
        let top = self.max_layer;
        let nodes = self.layers[0].lens.len();
        let mut cur = self.entry;

        // Descend greedily through layers above `level`.
        for layer in (level + 1..=top).rev() {
            let graph = Graph { vecs: self.vecs, layers: &self.layers, nodes };
            cur = graph.greedy_closest(query, cur, layer, &mut self.cost);
        }

        // Connect on each layer from min(level, top) down to 0.
        for l in (0..=level.min(top)).rev() {
            let graph = Graph { vecs: self.vecs, layers: &self.layers, nodes };
            graph.search_layer(query, cur, ef_c, l, &mut self.cost, &mut self.scratch);
            let cap = self.layers[l].cap;
            self.selected.clear();
            self.pruned.clear();
            select_neighbors(
                self.vecs,
                self.scratch.found.iter().map(|&k| Pick::fresh(k)),
                cap,
                &mut self.selected,
                &mut self.pruned,
                &mut self.cost.graph_dims,
            );
            let slab = &mut self.layers[l];
            let own = slab.slots.of(id);
            slab.write(own, &self.selected, &self.pruned);
            let list = slab.list(own);
            for k in list.clone() {
                let slab = &mut self.layers[l];
                let (nb, dist) = (slab.ids[k], slab.memo[k].dist);
                let s = slab.slots.of(nb);
                // Prune the neighbor if it exceeded its budget.
                if slab.push(s, id, dist) > cap {
                    self.prune(l, s);
                }
            }
            if !list.is_empty() {
                cur = self.layers[l].ids[list.start];
            }
        }

        if level > self.max_layer {
            self.max_layer = level;
            self.entry = id;
        }
    }

    /// Re-prune slot `s`'s list on `layer`, one link over its cap, with
    /// the same diversity heuristic used at insertion time.
    ///
    /// The literal pass scores all `cap + 1` links against the owner, sorts
    /// them and runs [`select_neighbors`]; exactly one link is dropped, and
    /// it is never a selected one, so the decisions the pass made about the
    /// links it kept are the decisions a pass over just those links would
    /// make. With that memo in hand only the new link `x` needs work: the
    /// links sorted before `x` replay, `x` is compared against the diverse
    /// ones among them, and the links after `x` replay too unless `x` turns
    /// out diverse. Then they are decided again, and each comparison the
    /// previous pass already made replays from the memo. Replayed
    /// comparisons are charged to `graph_dims` like computed ones.
    fn prune(&mut self, layer: usize, s: usize) {
        let Builder { vecs, layers, cost, order, selected, pruned, .. } = self;
        let vecs = *vecs;
        let dims = &mut cost.graph_dims;
        let slab = &mut layers[layer];
        let cap = slab.cap;
        let list = slab.list(s);
        let links = &mut slab.ids[list.clone()];
        let memo = &mut slab.memo[list];
        // The owner distances: charged, not computed.
        *dims += (links.len() * vecs.dim) as u64;
        let replay =
            |run: &[LinkMemo]| run.iter().map(|l| u64::from(l.cmps)).sum::<u64>() * vecs.dim as u64;

        selected.clear();
        pruned.clear();
        order.clear();
        let diverse = slab.diverse[s] as usize;
        if diverse == 0 {
            // First prune of a list that filled up link by link.
            order
                .extend(links.iter().zip(memo.iter()).map(|(&nb, l)| Pick::fresh(key(l.dist, nb))));
            order.sort_unstable_by_key(|p| p.key);
        } else {
            let x = links[cap];
            let x_dist = memo[cap].dist;
            let x_key = key(x_dist, x);
            // `x` sorts after `diverse_before` diverse links and, within the
            // non-diverse run, at index `fill_at`.
            let diverse_before = lower_bound(links, memo, 0..diverse, x_key);
            let fill_at = lower_bound(links, memo, diverse..cap, x_key);

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
                *dims += replay(&memo[..cap]);
                if fill_at < cap {
                    memo[cap].cmps = x_cmps;
                    links[fill_at..].rotate_right(1);
                    memo[fill_at..].rotate_right(1);
                }
                slab.lens[s] = cap as u32;
                return;
            }

            *dims += replay(&memo[..diverse_before]) + replay(&memo[diverse..fill_at]);
            // Link `i` with the record the previous pass left; the diverse
            // run's entries are tagged with their index in it.
            let pick = |i: usize| Pick {
                key: key(memo[i].dist, links[i]),
                cmps: memo[i].cmps,
                old: if i < diverse { i as u32 } else { NEW },
            };
            selected.extend((0..diverse_before).map(pick));
            selected.push(Pick { key: x_key, cmps: x_cmps, old: NEW });
            pruned.extend((diverse..fill_at).map(pick));
            // The links after `x`, merged from the two runs.
            let (mut i, mut j) = (diverse_before, fill_at);
            while i < diverse || j < cap {
                let from_diverse = j == cap || (i < diverse && pick(i).key < pick(j).key);
                let next = if from_diverse { &mut i } else { &mut j };
                order.push(pick(*next));
                *next += 1;
            }
        }
        select_neighbors(vecs, order.iter().copied(), cap, selected, pruned, dims);
        slab.write(s, selected, pruned);
    }

    fn finish(self) -> HnswIndex {
        let Builder { vecs, layers, entry, .. } = self;
        // Each layer drops its memo before it is compacted, all before the
        // vectors are copied: the copy never coexists with a memo.
        let layers = layers.into_iter().map(Slab::into_layer).collect();
        HnswIndex { dim: vecs.dim, data: vecs.data.to_vec(), layers, entry }
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
        let levels = draw_levels(n, m, seed);
        let vecs = Vectors { dim, data: vectors, kern: kernel::active() };
        let mut builder = Builder::new(vecs, m, &levels);
        for (i, &level) in levels.iter().enumerate() {
            builder.insert(i as u32, level, ef_c);
        }
        stats.train_dims += builder.cost.graph_dims;
        Ok(builder.finish())
    }

    fn graph(&self) -> Graph<'_, Layer> {
        Graph {
            vecs: Vectors { dim: self.dim, data: &self.data, kern: kernel::active() },
            layers: &self.layers,
            nodes: self.len(),
        }
    }

    /// Node `node`'s lists, layer 0 first, up to its top layer.
    #[cfg(test)]
    fn lists_of(&self, node: u32) -> Vec<&[u32]> {
        let holds = |l: &&Layer| l.slots.0.is_empty() || l.slots.0[node as usize] != ABSENT;
        self.layers.iter().take_while(holds).map(|l| l.links(node)).collect()
    }
}

impl VectorIndex for HnswIndex {
    fn search(&self, query: &[f32], sp: &SearchParams, cost: &mut SearchCost) -> Vec<Neighbor> {
        if self.layers.is_empty() {
            return Vec::new();
        }
        let graph = self.graph();
        let mut cur = self.entry;
        for layer in (1..self.layers.len()).rev() {
            cur = graph.greedy_closest(query, cur, layer, cost);
        }
        let ef = sp.ef.max(sp.top_k);
        SCRATCH.with_borrow_mut(|scratch| {
            graph.search_layer(query, cur, ef, 0, cost, scratch);
            let top = scratch.found.iter().take(sp.top_k);
            top.map(|&k| Neighbor { id: key_id(k), distance: key_distance(k) }).collect()
        })
    }

    /// The vectors plus 4 bytes per link and 24 per list (a `Vec<u32>`
    /// header), as if every node kept one `Vec` per layer. That per-list
    /// size is a model, not what this layout allocates: it feeds
    /// `MemoryUsage`, hence the OOM and cost decisions, and the pinned
    /// tuning histories fix it.
    fn memory_bytes(&self) -> u64 {
        let links: usize =
            self.layers.iter().map(|l| l.ids.len() * 4 + (l.offsets.len() - 1) * 24).sum();
        (self.data.len() * 4 + links) as u64
    }

    fn len(&self) -> usize {
        self.layers.first().map_or(0, |l| l.offsets.len() - 1)
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
        for i in 0..idx.len() as u32 {
            for (l, links) in idx.lists_of(i).iter().enumerate() {
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
        let n = idx.len();
        let mut seen = vec![false; n];
        let mut queue = vec![idx.entry];
        seen[idx.entry as usize] = true;
        let mut reached = 1;
        while let Some(u) = queue.pop() {
            for &v in idx.layers[0].links(u) {
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
