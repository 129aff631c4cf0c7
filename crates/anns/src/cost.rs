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
/// constants; [`ScanUnitCosts::from_kernels_json`] derives the constants
/// from the measured kernel throughputs that the `repro kernels` experiment
/// writes to `results/kernels.json`, so quantization trade-offs in the cost
/// model reflect this machine instead of an analytic guess.
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
    /// The documented analytic fallback (the pre-calibration constants of
    /// the VDMS cost model). Used whenever no measurement file is available
    /// so default-constructed cost models stay bit-identical across hosts.
    pub const ANALYTIC: ScanUnitCosts =
        ScanUnitCosts { f32_dim_ns: 60.0, u8_dim_ns: 20.0, pq_lookup_ns: 25.0 };

    /// Parse the three unit-cost keys from a JSON object slice. Hand-rolled
    /// number extraction — this workspace has no JSON dependency — returning
    /// `None` unless all three keys parse to finite positive numbers.
    fn parse_unit_costs(obj: &str) -> Option<ScanUnitCosts> {
        let get = |key: &str| -> Option<f64> {
            let at = obj.find(&format!("\"{key}\""))?;
            let rest = &obj[at + key.len() + 2..];
            let colon = rest.find(':')?;
            let num: String = rest[colon + 1..]
                .trim_start()
                .chars()
                .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
                .collect();
            let v: f64 = num.parse().ok()?;
            (v.is_finite() && v > 0.0).then_some(v)
        };
        Some(ScanUnitCosts {
            f32_dim_ns: get("f32_dim_ns")?,
            u8_dim_ns: get("u8_dim_ns")?,
            pq_lookup_ns: get("pq_lookup_ns")?,
        })
    }

    /// Parse the top-level `calibration` object of a `results/kernels.json`
    /// document (see the schema rustdoc on `bench::report::emit_json`).
    /// Any other block of the document is ignored.
    pub fn from_kernels_json(text: &str) -> Option<ScanUnitCosts> {
        ScanUnitCosts::parse_unit_costs(&text[text.find("\"calibration\"")?..])
    }

    /// Calibrated constants from a `kernels.json` file, or `None` when the
    /// file is missing or invalid — callers that must *report* whether they
    /// run calibrated (rather than silently substituting
    /// [`ScanUnitCosts::ANALYTIC`]) branch on this.
    pub fn load(path: &std::path::Path) -> Option<ScanUnitCosts> {
        std::fs::read_to_string(path).ok().and_then(|text| ScanUnitCosts::from_kernels_json(&text))
    }
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
    fn scan_unit_costs_parse_from_kernels_json() {
        let text = r#"{
          "experiment": "kernels",
          "calibration": {
            "f32_dim_ns": 1.25,
            "u8_dim_ns": 0.5,
            "pq_lookup_ns": 2e0,
            "source": "measured"
          }
        }"#;
        let c = ScanUnitCosts::from_kernels_json(text).unwrap();
        assert_eq!(c.f32_dim_ns, 1.25);
        assert_eq!(c.u8_dim_ns, 0.5);
        assert_eq!(c.pq_lookup_ns, 2.0);
    }

    #[test]
    fn scan_unit_costs_reject_missing_or_nonpositive_keys() {
        assert!(ScanUnitCosts::from_kernels_json("{}").is_none());
        let missing = r#"{"calibration": {"f32_dim_ns": 1.0, "u8_dim_ns": 0.5}}"#;
        assert!(ScanUnitCosts::from_kernels_json(missing).is_none());
        let negative =
            r#"{"calibration": {"f32_dim_ns": -1.0, "u8_dim_ns": 0.5, "pq_lookup_ns": 2.0}}"#;
        assert!(ScanUnitCosts::from_kernels_json(negative).is_none());
    }

    /// A `kernels.json` written before the single-tier schema: besides
    /// `calibration` it carries `fast` and per-tier `tiers` blocks.
    const TIERED_KERNELS_JSON: &str = r#"{
      "experiment": "kernels",
      "dispatched_kernel": "avx2",
      "fast_kernel": "avx2-fast",
      "fast": { "kernel": "avx2-fast", "f32_scan_mdps": 9413.0, "adc4_lut_mlps": 24270.0 },
      "calibration": {
        "f32_dim_ns": 1.25, "u8_dim_ns": 0.5, "pq_lookup_ns": 2.0, "source": "measured"
      },
      "tiers": {
        "exact": { "f32_dim_ns": 3.0, "u8_dim_ns": 4.0, "pq_lookup_ns": 5.0 },
        "fast": { "f32_dim_ns": 0.25, "u8_dim_ns": 0.125, "pq_lookup_ns": 0.0625 }
      }
    }"#;

    #[test]
    fn scan_unit_costs_parse_per_tier() {
        // The per-tier blocks of an older file are ignored: the parser reads
        // the top-level `calibration` object and nothing else.
        let want = ScanUnitCosts { f32_dim_ns: 1.25, u8_dim_ns: 0.5, pq_lookup_ns: 2.0 };
        assert_eq!(ScanUnitCosts::from_kernels_json(TIERED_KERNELS_JSON), Some(want));
        let tiers_only = &TIERED_KERNELS_JSON[TIERED_KERNELS_JSON.find("\"tiers\"").unwrap()..];
        assert!(ScanUnitCosts::from_kernels_json(tiers_only).is_none());
    }

    #[test]
    fn tier_load_falls_back_to_legacy_calibration_block() {
        // Both a calibration-only file and a tiered one load to the
        // `calibration` block rather than to the analytic constants.
        let dir = std::env::temp_dir().join(format!("vdtuner_cost_load_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kernels.json");
        let legacy =
            r#"{"calibration": {"f32_dim_ns": 1.0, "u8_dim_ns": 2.0, "pq_lookup_ns": 3.0}}"#;
        std::fs::write(&path, legacy).unwrap();
        let want = ScanUnitCosts { f32_dim_ns: 1.0, u8_dim_ns: 2.0, pq_lookup_ns: 3.0 };
        assert_eq!(ScanUnitCosts::load(&path), Some(want));
        std::fs::write(&path, TIERED_KERNELS_JSON).unwrap();
        let want = ScanUnitCosts { f32_dim_ns: 1.25, u8_dim_ns: 0.5, pq_lookup_ns: 2.0 };
        assert_eq!(ScanUnitCosts::load(&path), Some(want));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_unit_costs_fall_back_to_analytic() {
        assert!(ScanUnitCosts::load(std::path::Path::new("/nonexistent/kernels.json")).is_none());
        assert_eq!(ScanUnitCosts::default(), ScanUnitCosts::ANALYTIC);
    }
}
