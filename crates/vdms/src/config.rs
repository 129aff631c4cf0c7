//! A full VDMS configuration — the unit the tuners optimize.

use crate::system_params::SystemParams;
use crate::topology::PinningPolicy;
use crate::writepath::WriteKnobs;
use anns::params::{IndexParams, IndexType};

/// Index type + index parameters + system parameters (16 tunables total,
/// matching §V-A of the paper: 1 index type, 8 index params, 7 system
/// params), plus optional *serving-topology* requests beyond the paper:
/// how many query nodes should serve the collection, and how many replicas
/// of every sealed segment should be placed for read scaling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VdmsConfig {
    pub index_type: IndexType,
    pub index: IndexParams,
    pub system: SystemParams,
    /// Requested query-node count. `None` means "the backend's fixed
    /// topology" (the paper's single-node testbed, or whatever cluster an
    /// experiment pinned); `Some(n)` asks for `n` nodes, which a backend
    /// tuning the topology realizes up to its ceiling and a fixed one only
    /// at its own count.
    pub shards: Option<usize>,
    /// Requested replication factor: how many distinct nodes host a copy
    /// of every sealed segment. `None` means "the backend's fixed
    /// replication" (one copy, like the paper's testbed); `Some(r)` asks
    /// for `r` copies, realized like a shard request.
    pub replicas: Option<usize>,
    /// Requested reactor pinning policy. `None` means "the backend's fixed
    /// execution model" (the legacy shared slot pool); any other policy
    /// only a backend tuning pinning realizes. `Some(PinningPolicy::Shared)`
    /// evaluates bit-identically to `None` — the shared policy *is* the
    /// legacy model.
    pub pinning: Option<PinningPolicy>,
    /// Requested write-path knobs (WAL group-commit batch size, flush
    /// interval, segment seal threshold). `None` means "the backend's
    /// fixed write path" ([`WriteKnobs::DEFAULT`]); any other knobs only a
    /// backend tuning the write path realizes. `Some(WriteKnobs::DEFAULT)`
    /// evaluates bit-identically to `None` — the defaults *are* the fixed
    /// write path.
    pub writepath: Option<WriteKnobs>,
}

impl VdmsConfig {
    /// The Milvus default configuration (the paper's `Default` baseline
    /// uses AUTOINDEX, which is what Milvus ships with).
    pub fn default_config() -> VdmsConfig {
        VdmsConfig {
            index_type: IndexType::AutoIndex,
            index: IndexParams::default(),
            system: SystemParams::default(),
            shards: None,
            replicas: None,
            pinning: None,
            writepath: None,
        }
    }

    /// Default configuration with a specific index type (used for the
    /// per-index initial sampling of Algorithm 1, line 2).
    pub fn default_for(index_type: IndexType) -> VdmsConfig {
        VdmsConfig { index_type, ..VdmsConfig::default_config() }
    }

    /// Clamp all values into their valid ranges / constraints.
    pub fn sanitized(mut self, dim: usize, top_k: usize) -> Self {
        self.index = self.index.sanitized(dim, top_k);
        self.system = self.system.sanitized();
        self.shards = self.shards.map(|s| s.max(1));
        self.replicas = self.replicas.map(|r| r.max(1));
        self.writepath = self.writepath.map(WriteKnobs::sanitized);
        self
    }

    /// A compact human-readable summary of the *active* parameters (only
    /// those that belong to the chosen index type, like the paper's Table V).
    pub fn summary(&self) -> String {
        let mut parts = vec![format!("index={}", self.index_type.name())];
        for name in self.index_type.param_names() {
            let v = match name {
                "nlist" => self.index.nlist as f64,
                "nprobe" => self.index.nprobe as f64,
                "m" => self.index.m as f64,
                "nbits" => self.index.nbits as f64,
                "M" => self.index.hnsw_m as f64,
                "efConstruction" => self.index.ef_construction as f64,
                "ef" => self.index.ef as f64,
                "reorder_k" => self.index.reorder_k as f64,
                _ => f64::NAN,
            };
            parts.push(format!("{name}={v:.0}"));
        }
        parts.push(format!(
            "maxSize={:.0}MB seal={:.2} graceful={:.0}ms buf={:.0}MB conc={} chunk={} buildpar={}",
            self.system.segment_max_size_mb,
            self.system.segment_seal_proportion,
            self.system.graceful_time_ms,
            self.system.insert_buf_size_mb,
            self.system.max_read_concurrency,
            self.system.chunk_rows,
            self.system.build_parallelism,
        ));
        if let Some(s) = self.shards {
            parts.push(format!("shards={s}"));
        }
        if let Some(r) = self.replicas {
            parts.push(format!("replicas={r}"));
        }
        if let Some(p) = self.pinning {
            parts.push(format!("pinning={}", p.name()));
        }
        if let Some(w) = self.writepath {
            parts.push(format!(
                "walBatch={} walFlush={:.3}s walSeal={}",
                w.wal_batch_rows, w.flush_interval_secs, w.seal_rows
            ));
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_autoindex() {
        assert_eq!(VdmsConfig::default_config().index_type, IndexType::AutoIndex);
    }

    #[test]
    fn summary_lists_only_active_params() {
        let c = VdmsConfig::default_for(IndexType::Hnsw);
        let s = c.summary();
        assert!(s.contains("index=HNSW"));
        assert!(s.contains("efConstruction=200"));
        assert!(!s.contains("nlist="), "HNSW summary must not show IVF params: {s}");
    }

    #[test]
    fn sanitize_flows_through() {
        let mut c = VdmsConfig::default_for(IndexType::IvfPq);
        c.index.m = 7; // does not divide 48
        c.system.max_read_concurrency = 10_000;
        let s = c.sanitized(48, 10);
        assert_eq!(48 % s.index.m, 0);
        assert!(s.system.max_read_concurrency <= 64);
    }

    #[test]
    fn summary_shows_write_knobs_only_when_requested_and_sanitize_repairs_them() {
        let knobs = WriteKnobs { wal_batch_rows: 0, flush_interval_secs: 0.25, seal_rows: 512 };
        let c =
            VdmsConfig { writepath: Some(knobs), ..VdmsConfig::default_config() }.sanitized(48, 10);
        assert_eq!(c.writepath.unwrap().wal_batch_rows, 1, "sanitize clamps the batch");
        assert!(c.summary().ends_with("walBatch=1 walFlush=0.250s walSeal=512"), "{}", c.summary());
        assert!(
            !VdmsConfig::default_config().summary().contains("wal"),
            "no write-path request, no write knobs in the summary"
        );
    }

    #[test]
    fn summary_shows_pinning_only_when_requested() {
        let c =
            VdmsConfig { pinning: Some(PinningPolicy::Scatter), ..VdmsConfig::default_config() }
                .sanitized(48, 10);
        assert!(c.summary().ends_with("pinning=scatter"), "{}", c.summary());
        assert!(
            !VdmsConfig::default_config().summary().contains("pinning"),
            "no pinning request, no pinning in the summary"
        );
    }

    #[test]
    fn sanitize_clamps_zero_replicas_and_summary_shows_them() {
        let c = VdmsConfig { shards: Some(2), replicas: Some(0), ..VdmsConfig::default_config() }
            .sanitized(48, 10);
        assert_eq!(c.replicas, Some(1));
        assert!(c.summary().ends_with("shards=2 replicas=1"), "{}", c.summary());
        assert!(
            !VdmsConfig::default_config().summary().contains("replicas"),
            "no replication request, no replication in the summary"
        );
    }

    #[test]
    fn sanitize_clamps_zero_shards_and_summary_shows_topology() {
        let c = VdmsConfig { shards: Some(0), ..VdmsConfig::default_config() }.sanitized(48, 10);
        assert_eq!(c.shards, Some(1));
        assert!(c.summary().ends_with("shards=1"), "{}", c.summary());
        assert!(
            !VdmsConfig::default_config().summary().contains("shards"),
            "no topology request, no topology in the summary"
        );
    }
}
