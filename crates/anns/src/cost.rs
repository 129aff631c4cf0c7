//! Deterministic work counters.
//!
//! Indexes count the operations they perform instead of measuring wall-clock
//! time. The VDMS cost model weighs these counters into latency, which keeps
//! "search speed" reproducible across machines while preserving the relative
//! costs that drive the paper's trade-offs (e.g. a probe of a large IVF list
//! costs more than a PQ table scan of the same list).

/// Work performed by one (or many, when accumulated) searches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCost {
    /// Full-precision distance work in *sequential scans* (IVF lists, FLAT,
    /// growing segments, SCANN re-ranking), in dimension units (one unit =
    /// one f32 multiply-add pair). A d-dim distance adds `d`. Scan work is
    /// subject to the `chunkRows` vectorization factor in the cost model.
    pub f32_dims: u64,
    /// Full-precision distance work during *graph traversal* (HNSW beam
    /// search): random-access pattern, not affected by scan chunking.
    pub graph_dims: u64,
    /// Quantized (u8 / SQ) distance work, in dimension units.
    pub u8_dims: u64,
    /// PQ ADC table lookups (one per subspace per candidate).
    pub pq_lookups: u64,
    /// Graph traversal hops (HNSW neighbor expansions).
    pub graph_hops: u64,
    /// Inverted lists probed.
    pub lists_probed: u64,
    /// Candidates pushed through top-k heaps (heap maintenance work).
    pub heap_pushes: u64,
    /// Segments scattered to (filled in by the VDMS collection layer; one
    /// search touches every sealed segment plus the growing tail).
    pub segments: u64,
}

impl SearchCost {
    /// Record one full-precision distance computation of `dim` dims.
    #[inline]
    pub fn add_f32_distance(&mut self, dim: usize) {
        self.f32_dims += dim as u64;
    }

    /// Record one quantized distance computation of `dim` dims.
    #[inline]
    pub fn add_u8_distance(&mut self, dim: usize) {
        self.u8_dims += dim as u64;
    }

    /// Component-wise accumulation.
    pub fn add(&mut self, other: &SearchCost) {
        self.f32_dims += other.f32_dims;
        self.graph_dims += other.graph_dims;
        self.u8_dims += other.u8_dims;
        self.pq_lookups += other.pq_lookups;
        self.graph_hops += other.graph_hops;
        self.lists_probed += other.lists_probed;
        self.heap_pushes += other.heap_pushes;
        self.segments += other.segments;
    }

    /// True when no work was recorded.
    pub fn is_zero(&self) -> bool {
        *self == SearchCost::default()
    }
}

impl std::ops::Add for SearchCost {
    type Output = SearchCost;
    fn add(mut self, rhs: SearchCost) -> SearchCost {
        SearchCost::add(&mut self, &rhs);
        self
    }
}

/// Per-unit scan costs in nanoseconds: what one [`SearchCost`] dimension
/// unit (or PQ lookup) costs when the cost model converts counters into
/// latency.
///
/// [`ScanUnitCosts::ANALYTIC`] holds the workspace's original hand-picked
/// constants; the `repro` experiments that measure this host's kernel
/// throughputs hand measured constants to the cost model as a value, so
/// quantization trade-offs reflect this machine instead of an analytic
/// guess.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanUnitCosts {
    /// ns per full-precision (f32) scan dimension unit.
    pub f32_dim_ns: f64,
    /// ns per quantized (u8/SQ8) scan dimension unit.
    pub u8_dim_ns: f64,
    /// ns per PQ ADC table lookup.
    pub pq_lookup_ns: f64,
}

impl ScanUnitCosts {
    /// The analytic constants (the pre-calibration constants of the VDMS
    /// cost model), which keep default-constructed cost models
    /// bit-identical across hosts.
    pub const ANALYTIC: ScanUnitCosts =
        ScanUnitCosts { f32_dim_ns: 60.0, u8_dim_ns: 20.0, pq_lookup_ns: 25.0 };
}

impl Default for ScanUnitCosts {
    fn default() -> Self {
        ScanUnitCosts::ANALYTIC
    }
}

/// Work performed (and memory consumed) while building an index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Training work in dimension units (k-means assignments, PQ training,
    /// HNSW construction distances).
    pub train_dims: u64,
    /// Resident memory of the finished index, in bytes.
    pub memory_bytes: u64,
}

impl BuildStats {
    pub fn add(&mut self, other: &BuildStats) {
        self.train_dims += other.train_dims;
        self.memory_bytes += other.memory_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation() {
        let mut a = SearchCost::default();
        a.add_f32_distance(48);
        a.add_f32_distance(48);
        a.add_u8_distance(16);
        let mut b = SearchCost { graph_hops: 3, ..Default::default() };
        b.add(&a);
        assert_eq!(b.f32_dims, 96);
        assert_eq!(b.u8_dims, 16);
        assert_eq!(b.graph_hops, 3);
    }

    #[test]
    fn add_operator() {
        let a = SearchCost { f32_dims: 1, ..Default::default() };
        let b = SearchCost { f32_dims: 2, pq_lookups: 5, ..Default::default() };
        let c = a + b;
        assert_eq!(c.f32_dims, 3);
        assert_eq!(c.pq_lookups, 5);
    }

    #[test]
    fn zero_detection() {
        assert!(SearchCost::default().is_zero());
        assert!(!SearchCost { heap_pushes: 1, ..Default::default() }.is_zero());
    }

    #[test]
    fn scan_unit_costs_default_to_analytic() {
        assert_eq!(ScanUnitCosts::default(), ScanUnitCosts::ANALYTIC);
    }
}
