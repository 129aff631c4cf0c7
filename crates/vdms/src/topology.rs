//! Host topology, reactor pinning policies, and the NUMA/SMT penalty
//! surface.
//!
//! The cluster simulator models each query node as a set of **shard
//! reactors**: single-owner queues, one per pinned core, with segments
//! assigned to reactors deterministically and cross-reactor work (delegator
//! merge, partial-result handoff) paying an explicit cost. Where a reactor
//! lands matters: SMT siblings share execution ports, and a partial result
//! produced on a remote socket crosses the interconnect to reach the
//! delegator. This module carries the *shape* of the host
//! ([`HostTopology`]), the placement orders ([`PinningPolicy`]), and the
//! per-pair cost surface ([`PenaltyMatrix`]) the cost model charges.
//!
//! Determinism: simulated results must be identical across hosts, so the
//! cost model always uses [`HostTopology::DEFAULT`] (a fixed 2 × 8 × 2
//! shape) unless explicitly constructed otherwise. The *measured* penalty
//! surface from `repro reactors` (`results/reactors.json`) only changes the
//! charged constants, exactly like the kernel calibration in
//! `results/kernels.json`.

/// Sockets × cores × SMT shape of a (simulated) query-node host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostTopology {
    /// NUMA sockets (packages).
    pub sockets: usize,
    /// Physical cores per socket.
    pub cores_per_socket: usize,
    /// SMT siblings per physical core (1 = SMT off).
    pub smt: usize,
}

impl HostTopology {
    /// The fixed default shape every default-constructed cost model uses:
    /// 2 sockets × 8 cores × 2-way SMT. Chosen so
    /// [`HostTopology::physical_cores`] equals the historical
    /// `query_node_cores: 16` — the two are now derived from one constant
    /// and cannot drift.
    pub const DEFAULT: HostTopology = HostTopology { sockets: 2, cores_per_socket: 8, smt: 2 };

    /// A degenerate single-core host (1 × 1 × 1): one reactor, no SMT
    /// sharing, no cross-socket traffic. The reactor simulator on this
    /// shape must reproduce the pre-reactor slot-pool simulator bitwise.
    pub const SINGLE_CORE: HostTopology = HostTopology { sockets: 1, cores_per_socket: 1, smt: 1 };

    /// Physical cores across all sockets.
    pub const fn physical_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// Logical CPUs (hardware threads) across all sockets.
    pub const fn logical_cpus(&self) -> usize {
        self.physical_cores() * self.smt
    }

    /// Most reactors `policy` can pin on this host: SMT-avoiding placement
    /// refuses sibling threads (one reactor per physical core), everything
    /// else can use every logical CPU. [`PinningPolicy::Shared`] has no
    /// reactors at all — its capacity is the physical core count, matching
    /// the legacy slot pool's `query_node_cores` cap.
    pub fn capacity(&self, policy: PinningPolicy) -> usize {
        match policy {
            PinningPolicy::Shared | PinningPolicy::SmtAvoid => self.physical_cores(),
            PinningPolicy::Compact | PinningPolicy::Scatter => self.logical_cpus(),
        }
    }

    /// The CPU slot the `i`-th reactor is pinned to under `policy`
    /// (`i < capacity`). Placement orders:
    ///
    /// * `Compact` — fill SMT siblings, then cores, then sockets: both
    ///   threads of core 0 before core 1, socket 0 before socket 1.
    /// * `Scatter` — spread sockets first, then cores, SMT planes last:
    ///   consecutive reactors alternate sockets; sibling threads are only
    ///   used once every physical core owns a reactor.
    /// * `SmtAvoid` — one reactor per physical core, alternating sockets;
    ///   never places on a sibling thread.
    /// * `Shared` — no pinning; slots are reported in compact order so the
    ///   accessor is total, but no penalty path consults them.
    pub fn slot(&self, policy: PinningPolicy, i: usize) -> CpuSlot {
        debug_assert!(i < self.capacity(policy).max(1));
        match policy {
            PinningPolicy::Shared | PinningPolicy::Compact => {
                let per_socket = self.cores_per_socket * self.smt;
                let j = i % per_socket.max(1);
                CpuSlot {
                    socket: i / per_socket.max(1),
                    core: j / self.smt.max(1),
                    smt: j % self.smt.max(1),
                }
            }
            PinningPolicy::Scatter => {
                let plane = self.physical_cores().max(1);
                let j = i % plane;
                CpuSlot {
                    socket: j % self.sockets.max(1),
                    core: j / self.sockets.max(1),
                    smt: i / plane,
                }
            }
            PinningPolicy::SmtAvoid => {
                CpuSlot { socket: i % self.sockets.max(1), core: i / self.sockets.max(1), smt: 0 }
            }
        }
    }

    /// The first `n` reactor slots under `policy` (capped at capacity).
    pub fn slots(&self, policy: PinningPolicy, n: usize) -> Vec<CpuSlot> {
        (0..n.min(self.capacity(policy))).map(|i| self.slot(policy, i)).collect()
    }
}

/// One logical CPU, addressed by its position in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSlot {
    pub socket: usize,
    /// Physical core index *within* the socket.
    pub core: usize,
    /// SMT sibling index within the core (0 = primary thread).
    pub smt: usize,
}

impl CpuSlot {
    /// Topological relation between two slots, which selects the penalty
    /// the cost model charges for sharing (scan) or communicating
    /// (handoff) between them.
    pub fn relation(&self, other: &CpuSlot) -> CoreRelation {
        if self.socket != other.socket {
            CoreRelation::CrossSocket
        } else if self.core != other.core {
            CoreRelation::SameSocket
        } else {
            CoreRelation::SameCoreSmt
        }
    }
}

/// Topological distance class between two CPU slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreRelation {
    /// Same physical core, different SMT thread: shared execution ports
    /// (worst for co-running scans, best for communication).
    SameCoreSmt,
    /// Same socket, different core: shared LLC, one cache-line hop.
    SameSocket,
    /// Different sockets: cross-interconnect coherence traffic.
    CrossSocket,
}

/// Reactor pinning policy — the 19th tunable. Decides how many reactors a
/// node runs and which CPU each one is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PinningPolicy {
    /// No reactors: the legacy shared slot pool (floating threads, uniform
    /// over-provisioning penalty). The default — every pre-reactor code
    /// path is this policy, bit for bit.
    #[default]
    Shared,
    /// Pack reactors tightly: SMT siblings first, then cores, then
    /// sockets. Minimizes handoff distance, pays SMT sharing early.
    Compact,
    /// Spread reactors: sockets first, SMT planes last. Avoids SMT sharing
    /// until every core is busy, pays cross-socket handoff early.
    Scatter,
    /// One reactor per physical core, never on a sibling thread: no SMT
    /// penalty ever, capacity capped at the physical core count.
    SmtAvoid,
}

impl PinningPolicy {
    /// Every policy, in ordinal order (the tunable dimension's range).
    pub const ALL: [PinningPolicy; 4] = [
        PinningPolicy::Shared,
        PinningPolicy::Compact,
        PinningPolicy::Scatter,
        PinningPolicy::SmtAvoid,
    ];

    /// Stable ordinal used by the tuning dimension and the cache key.
    pub fn ordinal(self) -> usize {
        match self {
            PinningPolicy::Shared => 0,
            PinningPolicy::Compact => 1,
            PinningPolicy::Scatter => 2,
            PinningPolicy::SmtAvoid => 3,
        }
    }

    /// Inverse of [`PinningPolicy::ordinal`], clamping out-of-range values
    /// to the last policy (mirrors how integer dims clamp to their range).
    pub fn from_ordinal(i: usize) -> PinningPolicy {
        *PinningPolicy::ALL.get(i).unwrap_or(&PinningPolicy::SmtAvoid)
    }

    /// Human-readable name, used in config summaries and result JSON.
    pub fn name(self) -> &'static str {
        match self {
            PinningPolicy::Shared => "shared",
            PinningPolicy::Compact => "compact",
            PinningPolicy::Scatter => "scatter",
            PinningPolicy::SmtAvoid => "smt-avoid",
        }
    }
}

/// Where a set of cost-model constants came from. `repro` experiments
/// surface this in their JSON so a run can never masquerade as calibrated
/// while silently charging analytic fallbacks. A loaded measurement file
/// keeps the label it was written with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationSource {
    /// Every constant was measured on this host by a `repro` experiment.
    Measured,
    /// Some constants were measured on this host; the rest kept the
    /// analytic values (e.g. the host has no CPU pair of that relation).
    Partial,
    /// The hand-picked analytic constants, as declared: the default cost
    /// model, or a measurement file that could measure none of them.
    Analytic,
    /// No measurement file could be read (missing or unparsable), so the
    /// analytic constants stand in for one.
    Fallback,
}

impl CalibrationSource {
    /// Name used in experiment JSON.
    pub fn name(self) -> &'static str {
        match self {
            CalibrationSource::Measured => "measured",
            CalibrationSource::Partial => "partial",
            CalibrationSource::Analytic => "analytic",
            CalibrationSource::Fallback => "fallback",
        }
    }

    /// The `calibration_source` label of a `results/reactors.json`
    /// document: `None` unless it names one a file can carry.
    fn from_reactors_json(text: &str) -> Option<CalibrationSource> {
        let key = "\"calibration_source\"";
        let rest = text[text.find(key)? + key.len()..].trim_start().strip_prefix(':')?;
        let value = rest.trim_start().strip_prefix('"')?;
        let name = &value[..value.find('"')?];
        [CalibrationSource::Measured, CalibrationSource::Partial, CalibrationSource::Analytic]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// Multiplicative cost penalties per [`CoreRelation`] — the NUMA/SMT
/// surface the cost model charges. Scan work on a reactor whose SMT
/// sibling is also running pays `same_core_smt`; a partial-result handoff
/// to the delegator pays the penalty of the pair's relation (same-core is
/// free: the threads share L1/L2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenaltyMatrix {
    /// Scan slowdown when both SMT siblings of a core run reactors.
    pub same_core_smt: f64,
    /// Handoff cost multiplier for a same-socket, cross-core pair.
    pub same_socket: f64,
    /// Handoff cost multiplier for a cross-socket pair.
    pub cross_socket: f64,
}

impl PenaltyMatrix {
    /// Analytic defaults (used when `results/reactors.json` is absent):
    /// SMT siblings co-running scans retire ~70% each of solo throughput,
    /// a same-socket hop costs ~10% over a sibling hop, a cross-socket hop
    /// ~40%. `repro reactors` replaces these with host measurements.
    pub const ANALYTIC: PenaltyMatrix =
        PenaltyMatrix { same_core_smt: 1.45, same_socket: 1.10, cross_socket: 1.40 };

    /// Handoff multiplier for a pair's topological relation. Same-core
    /// communication is free (shared private caches): the SMT penalty
    /// applies to *co-running scans*, not to handoffs.
    pub fn handoff(&self, rel: CoreRelation) -> f64 {
        match rel {
            CoreRelation::SameCoreSmt => 1.0,
            CoreRelation::SameSocket => self.same_socket,
            CoreRelation::CrossSocket => self.cross_socket,
        }
    }

    /// Parse the three penalty keys from a JSON object slice
    /// ([`anns::cost::json_number`]): `None` unless all keys are finite
    /// values ≥ 1.0 — a penalty below 1.0 would mean contention *speeds
    /// up* work, which is a measurement artifact, not a model input.
    fn parse_penalties(obj: &str) -> Option<PenaltyMatrix> {
        let get = |key: &str| anns::cost::json_number(obj, key).filter(|&v| v >= 1.0);
        Some(PenaltyMatrix {
            same_core_smt: get("same_core_smt")?,
            same_socket: get("same_socket")?,
            cross_socket: get("cross_socket")?,
        })
    }

    /// Parse the `penalties` object of a `results/reactors.json` document
    /// (written by `bench::experiments::reactors`).
    pub fn from_reactors_json(text: &str) -> Option<PenaltyMatrix> {
        PenaltyMatrix::parse_penalties(&text[text.find("\"penalties\"")?..])
    }

    /// Load the penalty surface from a `reactors.json` file, labelled with
    /// the provenance the file records (`calibration_source`). A missing
    /// file, or one without parsable penalties and label, falls back to
    /// [`PenaltyMatrix::ANALYTIC`] — *visibly*, via
    /// [`CalibrationSource::Fallback`].
    pub fn load_with_source(path: &std::path::Path) -> (PenaltyMatrix, CalibrationSource) {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|t| {
                Some((
                    PenaltyMatrix::from_reactors_json(&t)?,
                    CalibrationSource::from_reactors_json(&t)?,
                ))
            })
            .unwrap_or((PenaltyMatrix::ANALYTIC, CalibrationSource::Fallback))
    }
}

impl Default for PenaltyMatrix {
    fn default() -> Self {
        PenaltyMatrix::ANALYTIC
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shape_matches_legacy_core_count() {
        assert_eq!(HostTopology::DEFAULT.physical_cores(), 16);
        assert_eq!(HostTopology::DEFAULT.logical_cpus(), 32);
        assert_eq!(HostTopology::SINGLE_CORE.logical_cpus(), 1);
    }

    #[test]
    fn ordinals_round_trip() {
        for p in PinningPolicy::ALL {
            assert_eq!(PinningPolicy::from_ordinal(p.ordinal()), p);
        }
        assert_eq!(PinningPolicy::from_ordinal(99), PinningPolicy::SmtAvoid);
        assert_eq!(PinningPolicy::default(), PinningPolicy::Shared);
    }

    #[test]
    fn compact_fills_siblings_before_cores() {
        let t = HostTopology::DEFAULT;
        let s = t.slots(PinningPolicy::Compact, 4);
        assert_eq!(s[0], CpuSlot { socket: 0, core: 0, smt: 0 });
        assert_eq!(s[1], CpuSlot { socket: 0, core: 0, smt: 1 });
        assert_eq!(s[2], CpuSlot { socket: 0, core: 1, smt: 0 });
        assert_eq!(s[0].relation(&s[1]), CoreRelation::SameCoreSmt);
        assert_eq!(s[0].relation(&s[2]), CoreRelation::SameSocket);
        // Socket 1 starts after one full socket of logical CPUs.
        assert_eq!(t.slot(PinningPolicy::Compact, 16).socket, 1);
    }

    #[test]
    fn scatter_spreads_sockets_first_and_smt_last() {
        let t = HostTopology::DEFAULT;
        let s = t.slots(PinningPolicy::Scatter, 18);
        assert_eq!(s[0], CpuSlot { socket: 0, core: 0, smt: 0 });
        assert_eq!(s[1], CpuSlot { socket: 1, core: 0, smt: 0 });
        assert_eq!(s[0].relation(&s[1]), CoreRelation::CrossSocket);
        // The first 16 slots cover all 16 physical cores on thread 0.
        assert!(s[..16].iter().all(|c| c.smt == 0));
        // Slot 16 wraps to the SMT plane of core 0.
        assert_eq!(s[16], CpuSlot { socket: 0, core: 0, smt: 1 });
        assert_eq!(s[0].relation(&s[16]), CoreRelation::SameCoreSmt);
    }

    #[test]
    fn smt_avoid_never_places_on_siblings() {
        let t = HostTopology::DEFAULT;
        assert_eq!(t.capacity(PinningPolicy::SmtAvoid), 16);
        let s = t.slots(PinningPolicy::SmtAvoid, 64);
        assert_eq!(s.len(), 16, "capped at physical cores");
        assert!(s.iter().all(|c| c.smt == 0));
        // All 16 physical cores distinct.
        for i in 0..s.len() {
            for j in 0..i {
                assert_ne!((s[i].socket, s[i].core), (s[j].socket, s[j].core));
            }
        }
    }

    #[test]
    fn penalties_parse_from_reactors_json() {
        let text = r#"{
          "experiment": "reactors",
          "penalties": {
            "same_core_smt": 1.62,
            "same_socket": 1.05,
            "cross_socket": 2e0
          }
        }"#;
        let p = PenaltyMatrix::from_reactors_json(text).unwrap();
        assert_eq!(p.same_core_smt, 1.62);
        assert_eq!(p.same_socket, 1.05);
        assert_eq!(p.cross_socket, 2.0);
        assert_eq!(p.handoff(CoreRelation::SameCoreSmt), 1.0);
        assert_eq!(p.handoff(CoreRelation::CrossSocket), 2.0);
    }

    #[test]
    fn penalties_reject_speedups_and_missing_keys() {
        assert!(PenaltyMatrix::from_reactors_json("{}").is_none());
        let below_one = r#"{"penalties": {
            "same_core_smt": 0.8, "same_socket": 1.0, "cross_socket": 1.2}}"#;
        assert!(PenaltyMatrix::from_reactors_json(below_one).is_none());
        let missing = r#"{"penalties": {"same_core_smt": 1.5, "same_socket": 1.1}}"#;
        assert!(PenaltyMatrix::from_reactors_json(missing).is_none());
    }

    /// A `reactors.json` fixture with `penalties` and, when given, the
    /// `calibration_source` label, in a directory of its own.
    fn reactors_file(test: &str, label: Option<&str>) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vdtuner_penalty_load_{test}"));
        std::fs::create_dir_all(&dir).unwrap();
        let label = label.map_or(String::new(), |l| format!(r#""calibration_source": "{l}", "#));
        let path = dir.join("reactors.json");
        let penalties =
            r#""penalties": {"same_core_smt": 1.5, "same_socket": 1.2, "cross_socket": 1.9}"#;
        std::fs::write(&path, format!("{{{label}{penalties}}}")).unwrap();
        path
    }

    #[test]
    fn load_with_source_reports_the_fallback() {
        let (p, src) =
            PenaltyMatrix::load_with_source(std::path::Path::new("/nonexistent/reactors.json"));
        assert_eq!(p, PenaltyMatrix::ANALYTIC);
        assert_eq!(src, CalibrationSource::Fallback);
        // Penalties without a provenance label are not loaded as measured.
        for label in [None, Some("fallback"), Some("sampled")] {
            let path = reactors_file("unlabelled", label);
            let loaded = PenaltyMatrix::load_with_source(&path);
            assert_eq!(loaded, (PenaltyMatrix::ANALYTIC, CalibrationSource::Fallback), "{label:?}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn load_with_source_keeps_the_files_own_provenance() {
        use CalibrationSource::{Analytic, Measured, Partial};
        for source in [Measured, Partial, Analytic] {
            let path = reactors_file(source.name(), Some(source.name()));
            let (p, src) = PenaltyMatrix::load_with_source(&path);
            assert_eq!(src, source);
            assert_eq!(p.cross_socket, 1.9, "{source:?}: the file's penalties, whatever its label");
            std::fs::remove_file(&path).ok();
        }
    }
}
