//! Shared inverted-file (IVF) machinery for IVF_FLAT / IVF_SQ8 / IVF_PQ /
//! SCANN: coarse k-means quantizer plus per-centroid posting lists.

use crate::cost::BuildStats;
use crate::kmeans::{assign_nearest, assign_pruned, KMeans};
use vecdata::rng::rng;

/// Coarse quantizer + inverted lists. Each list holds local row ids.
#[derive(Debug, Clone)]
pub struct IvfLists {
    pub quantizer: KMeans,
    pub lists: Vec<Vec<u32>>,
}

impl IvfLists {
    /// Train the coarse quantizer and assign every vector to its list.
    pub fn build(
        vectors: &[f32],
        dim: usize,
        nlist: usize,
        seed: u64,
        stats: &mut BuildStats,
    ) -> IvfLists {
        let n = vectors.len() / dim;
        let (quantizer, last) = KMeans::train_with(&mut rng(seed), vectors, dim, nlist, stats);
        // A sample that was the whole segment leaves every row's previous
        // centroid, so the list pass is a pruned one.
        let nearest = match last {
            Some(mut assign) => {
                assign_pruned(vectors, &quantizer.centroids, dim, &mut assign);
                assign
            }
            None => {
                let mut nearest = vec![0u32; n];
                assign_nearest(vectors, &quantizer.centroids, dim, &mut nearest);
                nearest
            }
        };
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); quantizer.k];
        for (i, &c) in nearest.iter().enumerate() {
            lists[c as usize].push(i as u32);
        }
        stats.train_dims += (n * quantizer.k * dim) as u64; // assignment pass
        IvfLists { quantizer, lists }
    }

    /// Total number of indexed vectors.
    pub fn len(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// True when no vector is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memory of the list structure itself (ids + centroids).
    pub fn memory_bytes(&self) -> u64 {
        let ids: usize = self.lists.iter().map(|l| l.len() * 4).sum();
        let centroids = self.quantizer.centroids.len() * 4;
        (ids + centroids) as u64
    }
}

/// Posting lists flattened into one contiguous id buffer (CSR-style
/// offsets), so per-list vector/code payloads can be stored contiguously
/// and scanned through the kernel block API.
///
/// List order and within-list id order are exactly [`IvfLists`]'s (ids
/// ascending within each list, since the build pass assigns `0..n` in
/// order), which is what keeps search results bit-identical to the old
/// per-id gather.
#[derive(Debug, Clone)]
pub struct GroupedLists {
    /// `n_lists + 1` row offsets into `ids` (and, scaled by the payload
    /// width, into the per-list payload buffers).
    pub offsets: Vec<usize>,
    /// All ids, grouped by list.
    pub ids: Vec<u32>,
}

impl GroupedLists {
    /// Flatten per-list id vectors, preserving order.
    pub fn from_lists(lists: &[Vec<u32>]) -> GroupedLists {
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut ids = Vec::with_capacity(lists.iter().map(Vec::len).sum());
        offsets.push(0);
        for list in lists {
            ids.extend_from_slice(list);
            offsets.push(ids.len());
        }
        GroupedLists { offsets, ids }
    }

    /// Number of posting lists.
    pub fn n_lists(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of indexed vectors.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no vector is indexed.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Row range of list `c` (applies to `ids` and, scaled by the row
    /// width, to gathered payload buffers).
    #[inline]
    pub fn range(&self, c: usize) -> std::ops::Range<usize> {
        self.offsets[c]..self.offsets[c + 1]
    }

    /// Ids of list `c`, in the original push order.
    #[inline]
    pub fn list(&self, c: usize) -> &[u32] {
        &self.ids[self.range(c)]
    }

    /// Gather `width`-wide f32 rows of `data` into list-grouped contiguous
    /// storage: row `j` of the result is the payload of `ids[j]`.
    pub fn gather_f32(&self, data: &[f32], width: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.ids.len() * width);
        for &id in &self.ids {
            out.extend_from_slice(&data[id as usize * width..(id as usize + 1) * width]);
        }
        out
    }

    /// Gather `width`-wide u8 code rows into list-grouped contiguous storage.
    pub fn gather_u8(&self, codes: &[u8], width: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.ids.len() * width);
        for &id in &self.ids {
            out.extend_from_slice(&codes[id as usize * width..(id as usize + 1) * width]);
        }
        out
    }

    /// Memory of the grouped id buffer (same id count — and therefore the
    /// same bytes — as the nested lists it replaced).
    pub fn memory_bytes(&self) -> u64 {
        (self.ids.len() * 4) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_vectors_assigned_exactly_once() {
        let mut data = Vec::new();
        for i in 0..200 {
            data.push(i as f32);
            data.push((i % 7) as f32);
        }
        let mut stats = BuildStats::default();
        let ivf = IvfLists::build(&data, 2, 8, 3, &mut stats);
        assert_eq!(ivf.len(), 200);
        let mut seen = [false; 200];
        for list in &ivf.lists {
            for &id in list {
                assert!(!seen[id as usize], "id {id} assigned twice");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn grouped_lists_preserve_order_and_payloads() {
        let lists = vec![vec![2u32, 5], vec![], vec![0, 1, 4], vec![3]];
        let g = GroupedLists::from_lists(&lists);
        assert_eq!(g.n_lists(), 4);
        assert_eq!(g.len(), 6);
        for (c, list) in lists.iter().enumerate() {
            assert_eq!(g.list(c), list.as_slice());
        }
        // Gathered payload row j belongs to ids[j].
        let data: Vec<f32> = (0..12).map(|x| x as f32).collect(); // 6 rows of dim 2
        let gathered = g.gather_f32(&data, 2);
        for (j, &id) in g.ids.iter().enumerate() {
            assert_eq!(&gathered[j * 2..j * 2 + 2], &data[id as usize * 2..id as usize * 2 + 2]);
        }
        let codes: Vec<u8> = (0..18).collect(); // 6 rows of width 3
        let gathered = g.gather_u8(&codes, 3);
        for (j, &id) in g.ids.iter().enumerate() {
            assert_eq!(&gathered[j * 3..j * 3 + 3], &codes[id as usize * 3..id as usize * 3 + 3]);
        }
        assert_eq!(g.memory_bytes(), 24);
    }

    #[test]
    fn vectors_land_in_nearest_list() {
        let mut data = Vec::new();
        for c in [0.0f32, 100.0] {
            for i in 0..20 {
                data.push(c + i as f32 * 0.01);
            }
        }
        let mut stats = BuildStats::default();
        let ivf = IvfLists::build(&data, 1, 2, 5, &mut stats);
        // Two clear clusters: each list should be pure.
        for list in &ivf.lists {
            if list.is_empty() {
                continue;
            }
            let first_group = list[0] < 20;
            assert!(list.iter().all(|&id| (id < 20) == first_group));
        }
    }
}
