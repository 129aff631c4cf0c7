//! The holistic configuration space (paper §IV-A, §V-A), as data.
//!
//! The paper tunes a fixed 16-dimensional space: `[index_type, 8 index
//! params, 7 system params]`, every coordinate normalized into `[0, 1]`
//! (log-scaled where the Milvus docs tune exponentially). This module makes
//! that space *declarative*: a [`SpaceSpec`] is a list of [`Dimension`]
//! descriptors — name, range, and a [`DimensionKind`] that determines when
//! the acquisition may vary the coordinate — and owns encoding, decoding,
//! free-dimension masks, and polling templates for whatever dimensionality
//! the list spans. Adding a tunable is a spec change, not a surgery across
//! every crate that used to assume `DIMS == 16`.
//!
//! Two specs ship in-tree:
//!
//! * [`SpaceSpec::legacy`] — the paper's 16 dimensions, bit-identical to
//!   the original hard-coded encoder/decoder;
//! * [`SpaceSpec::with_topology`] — the 16 base dimensions plus a
//!   log-scaled `shard_count` dimension (1..=`max_shards` query nodes), so
//!   the tuner co-optimizes the serving topology with the index and system
//!   knobs. With `max_shards == 1` the dimension is *frozen*: it is encoded
//!   (17-dimensional points) but never free, and tuning histories are
//!   bit-identical to the 16-dimensional spec;
//! * [`SpaceSpec::with_replication`] — a further (linear) `replicas`
//!   dimension (1..=`max_replicas` copies of every sealed segment), the
//!   18th dimension when stacked on the topology spec, with the same
//!   frozen-at-one bit-identity contract;
//! * [`SpaceSpec::with_pinning`] — a further (linear, categorical)
//!   `pinning` dimension over the reactor pinning policies, the 19th
//!   dimension when stacked on the replicated spec. Frozen at the seed
//!   policy ([`vdms::PinningPolicy::Shared`], via
//!   [`SpaceSpec::with_pinned_pinning`]) it reproduces the unextended
//!   spec's tuning bit for bit;
//! * [`SpaceSpec::with_writepath`] — three further log-scaled write-path
//!   dimensions (WAL group-commit batch rows, flush interval, segment
//!   seal threshold), dimensions 20–22 when stacked on the pinned spec.
//!   Pinned at [`vdms::WriteKnobs::DEFAULT`] (via
//!   [`SpaceSpec::with_pinned_writepath`]) they reproduce the unextended
//!   spec's tuning bit for bit.
//!
//! The shared parameters exist **once** — that is the holistic-model
//! property that lets knowledge about e.g. `gracefulTime` transfer across
//! index types. When the acquisition works on a specific polled index type,
//! the index-type coordinate is frozen to that type and the parameters of
//! *other* index types are frozen to their defaults (paper §IV-C).

use anns::params::{ranges, IndexType, ParamRange};
use std::sync::OnceLock;
use vdms::system_params::ranges as sys_ranges;
use vdms::{PinningPolicy, VdmsConfig, WriteKnobs};
use workload::{DeploymentKnobs, SimBackend, Workload};

/// Dimensionality of the paper's space: 1 (index type) + 8 (index) + 7
/// (system). Kept for the fixed-space call sites; spec-aware code asks
/// [`SpaceSpec::dims`] instead.
pub const DIMS: usize = 16;

/// Index of the index-type coordinate.
pub const IDX_TYPE_DIM: usize = 0;

/// Names of the 16 base dimensions, in encoding order.
pub const DIM_NAMES: [&str; DIMS] = [
    "index_type",
    "nlist",
    "nprobe",
    "m",
    "nbits",
    "M",
    "efConstruction",
    "ef",
    "reorder_k",
    "segment_maxSize",
    "segment_sealProportion",
    "gracefulTime",
    "insertBufSize",
    "maxReadConcurrency",
    "chunkRows",
    "buildParallelism",
];

/// Name of the optional topology dimension appended by
/// [`SpaceSpec::with_topology`].
pub const SHARD_COUNT_DIM_NAME: &str = "shard_count";

/// Name of the optional replication dimension appended by
/// [`SpaceSpec::with_replication`].
pub const REPLICAS_DIM_NAME: &str = "replicas";

/// Name of the optional reactor-pinning dimension appended by
/// [`SpaceSpec::with_pinning`].
pub const PINNING_DIM_NAME: &str = "pinning";

/// Name of the WAL group-commit batch-size dimension appended by
/// [`SpaceSpec::with_writepath`].
pub const WAL_BATCH_DIM_NAME: &str = "walGroupCommitRows";

/// Name of the WAL flush-interval dimension appended by
/// [`SpaceSpec::with_writepath`].
pub const WAL_FLUSH_DIM_NAME: &str = "walFlushIntervalSecs";

/// Name of the segment seal-threshold dimension appended by
/// [`SpaceSpec::with_writepath`].
pub const WAL_SEAL_DIM_NAME: &str = "walSealRows";

/// A point handed to the space that it cannot decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceError {
    /// The point carries fewer coordinates than the space has dimensions —
    /// an adversarial or truncated input (e.g. a deserialized history row
    /// from a smaller spec). Callers surface this as a failed observation,
    /// never as an abort.
    TooFewCoords { expected: usize, got: usize },
}

impl std::fmt::Display for SpaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpaceError::TooFewCoords { expected, got } => {
                write!(f, "encoded point has {got} coordinates, space needs {expected}")
            }
        }
    }
}

impl std::error::Error for SpaceError {}

/// What role a dimension plays, which determines when the acquisition may
/// vary it (paper §IV-C's search-region restriction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimensionKind {
    /// The index-type selector. Never free: polling fixes it.
    IndexType,
    /// A per-index-type build/search parameter; free only while its owning
    /// type is polled, frozen to its default otherwise.
    IndexParam,
    /// A shared system parameter; free for every polled type.
    System,
    /// A deployment-topology knob (shard count, …); shared like a system
    /// parameter, but realized by the evaluation backend's cluster layer
    /// rather than inside one node.
    Topology,
}

/// The concrete configuration field a dimension reads and writes. Closed
/// enum rather than function pointers so [`Dimension`] stays `Copy` and a
/// topology dimension can carry its range as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FieldRef {
    IndexType,
    Nlist,
    Nprobe,
    PqM,
    PqNbits,
    HnswM,
    EfConstruction,
    Ef,
    ReorderK,
    SegmentMaxSize,
    SealProportion,
    GracefulTime,
    InsertBufSize,
    MaxReadConcurrency,
    ChunkRows,
    BuildParallelism,
    ShardCount,
    Replicas,
    Pinning,
    WalBatch,
    WalFlushInterval,
    WalSealRows,
}

/// One tunable dimension: its display name, the role it plays, and the
/// value range it is normalized over.
#[derive(Debug, Clone, Copy)]
pub struct Dimension {
    pub name: &'static str,
    pub kind: DimensionKind,
    /// The raw-value range the unit coordinate maps over (log-scaled where
    /// the Milvus docs tune exponentially). For the index-type dimension
    /// the range is the ordinal span and encoding is handled specially.
    pub range: ParamRange,
    field: FieldRef,
}

impl Dimension {
    const fn new(
        name: &'static str,
        kind: DimensionKind,
        range: ParamRange,
        field: FieldRef,
    ) -> Dimension {
        Dimension { name, kind, range, field }
    }

    /// A dimension whose range has collapsed to a single value is frozen:
    /// it stays in the encoding (so histories keep a stable width) but the
    /// acquisition never varies it.
    pub fn is_frozen(&self) -> bool {
        self.range.lo >= self.range.hi
    }

    /// Unit-cube coordinate of this dimension in `c`.
    fn read(&self, c: &VdmsConfig) -> f64 {
        match self.field {
            FieldRef::IndexType => SpaceSpec::type_coord(c.index_type),
            FieldRef::Nlist => self.range.normalize(c.index.nlist as f64),
            FieldRef::Nprobe => self.range.normalize(c.index.nprobe as f64),
            FieldRef::PqM => self.range.normalize(c.index.m as f64),
            FieldRef::PqNbits => self.range.normalize(c.index.nbits as f64),
            FieldRef::HnswM => self.range.normalize(c.index.hnsw_m as f64),
            FieldRef::EfConstruction => self.range.normalize(c.index.ef_construction as f64),
            FieldRef::Ef => self.range.normalize(c.index.ef as f64),
            FieldRef::ReorderK => self.range.normalize(c.index.reorder_k as f64),
            FieldRef::SegmentMaxSize => self.range.normalize(c.system.segment_max_size_mb),
            FieldRef::SealProportion => self.range.normalize(c.system.segment_seal_proportion),
            FieldRef::GracefulTime => self.range.normalize(c.system.graceful_time_ms),
            FieldRef::InsertBufSize => self.range.normalize(c.system.insert_buf_size_mb),
            FieldRef::MaxReadConcurrency => {
                self.range.normalize(c.system.max_read_concurrency as f64)
            }
            FieldRef::ChunkRows => self.range.normalize(c.system.chunk_rows as f64),
            FieldRef::BuildParallelism => self.range.normalize(c.system.build_parallelism as f64),
            FieldRef::ShardCount => self.range.normalize(c.shards.unwrap_or(1) as f64),
            FieldRef::Replicas => self.range.normalize(c.replicas.unwrap_or(1) as f64),
            FieldRef::Pinning => {
                self.range.normalize(c.pinning.unwrap_or(PinningPolicy::Shared).ordinal() as f64)
            }
            FieldRef::WalBatch => self
                .range
                .normalize(c.writepath.unwrap_or(WriteKnobs::DEFAULT).wal_batch_rows as f64),
            FieldRef::WalFlushInterval => {
                self.range.normalize(c.writepath.unwrap_or(WriteKnobs::DEFAULT).flush_interval_secs)
            }
            FieldRef::WalSealRows => {
                self.range.normalize(c.writepath.unwrap_or(WriteKnobs::DEFAULT).seal_rows as f64)
            }
        }
    }

    /// Apply the unit-cube coordinate `v` to `c`.
    ///
    /// The rounding/clamping per field group reproduces the original
    /// decoder op for op (index parameters: round without clamping; system
    /// parameters: [`vdms::system_params::SystemParams::sanitized`]'s
    /// per-field clamp), so the legacy spec decodes bit-identically to the
    /// pre-refactor hard-coded path.
    fn write(&self, c: &mut VdmsConfig, v: f64) {
        let int = |r: &ParamRange| r.denormalize(v).round() as usize;
        let int_clamped = |r: &ParamRange| (int(r) as f64).clamp(r.lo, r.hi) as usize;
        let float_clamped = |r: &ParamRange| r.denormalize(v).clamp(r.lo, r.hi);
        match self.field {
            FieldRef::IndexType => c.index_type = SpaceSpec::type_from_coord(v),
            FieldRef::Nlist => c.index.nlist = int(&self.range),
            FieldRef::Nprobe => c.index.nprobe = int(&self.range),
            FieldRef::PqM => c.index.m = int(&self.range),
            FieldRef::PqNbits => c.index.nbits = int(&self.range),
            FieldRef::HnswM => c.index.hnsw_m = int(&self.range),
            FieldRef::EfConstruction => c.index.ef_construction = int(&self.range),
            FieldRef::Ef => c.index.ef = int(&self.range),
            FieldRef::ReorderK => c.index.reorder_k = int(&self.range),
            FieldRef::SegmentMaxSize => c.system.segment_max_size_mb = float_clamped(&self.range),
            FieldRef::SealProportion => {
                c.system.segment_seal_proportion = float_clamped(&self.range)
            }
            FieldRef::GracefulTime => c.system.graceful_time_ms = float_clamped(&self.range),
            FieldRef::InsertBufSize => c.system.insert_buf_size_mb = float_clamped(&self.range),
            FieldRef::MaxReadConcurrency => {
                c.system.max_read_concurrency = int_clamped(&self.range)
            }
            FieldRef::ChunkRows => c.system.chunk_rows = int_clamped(&self.range),
            FieldRef::BuildParallelism => c.system.build_parallelism = int_clamped(&self.range),
            FieldRef::ShardCount => c.shards = Some(int(&self.range).max(1)),
            FieldRef::Replicas => c.replicas = Some(int(&self.range).max(1)),
            FieldRef::Pinning => c.pinning = Some(PinningPolicy::from_ordinal(int(&self.range))),
            // The three write-path coordinates decode into one request
            // struct; whichever writes first materializes it from the
            // neutral defaults, so a spec always emits all three anyway.
            FieldRef::WalBatch => {
                let mut k = c.writepath.unwrap_or(WriteKnobs::DEFAULT);
                k.wal_batch_rows = int(&self.range).max(1);
                c.writepath = Some(k);
            }
            FieldRef::WalFlushInterval => {
                let mut k = c.writepath.unwrap_or(WriteKnobs::DEFAULT);
                k.flush_interval_secs = float_clamped(&self.range);
                c.writepath = Some(k);
            }
            FieldRef::WalSealRows => {
                let mut k = c.writepath.unwrap_or(WriteKnobs::DEFAULT);
                k.seal_rows = int(&self.range).max(1);
                c.writepath = Some(k);
            }
        }
    }
}

/// Index-type ordinal span, for the type dimension's descriptor.
const TYPE_RANGE: ParamRange = ParamRange::new(0.0, (IndexType::ALL.len() - 1) as f64, false);

/// The 16 base dimensions of the paper's space, in encoding order.
fn base_dimensions() -> Vec<Dimension> {
    use DimensionKind::{IndexParam, IndexType as TypeDim, System};
    vec![
        Dimension::new("index_type", TypeDim, TYPE_RANGE, FieldRef::IndexType),
        Dimension::new("nlist", IndexParam, ranges::NLIST, FieldRef::Nlist),
        Dimension::new("nprobe", IndexParam, ranges::NPROBE, FieldRef::Nprobe),
        Dimension::new("m", IndexParam, ranges::PQ_M, FieldRef::PqM),
        Dimension::new("nbits", IndexParam, ranges::PQ_NBITS, FieldRef::PqNbits),
        Dimension::new("M", IndexParam, ranges::HNSW_M, FieldRef::HnswM),
        Dimension::new(
            "efConstruction",
            IndexParam,
            ranges::EF_CONSTRUCTION,
            FieldRef::EfConstruction,
        ),
        Dimension::new("ef", IndexParam, ranges::EF, FieldRef::Ef),
        Dimension::new("reorder_k", IndexParam, ranges::REORDER_K, FieldRef::ReorderK),
        Dimension::new(
            "segment_maxSize",
            System,
            sys_ranges::SEGMENT_MAX_SIZE_MB,
            FieldRef::SegmentMaxSize,
        ),
        Dimension::new(
            "segment_sealProportion",
            System,
            sys_ranges::SEGMENT_SEAL_PROPORTION,
            FieldRef::SealProportion,
        ),
        Dimension::new(
            "gracefulTime",
            System,
            sys_ranges::GRACEFUL_TIME_MS,
            FieldRef::GracefulTime,
        ),
        Dimension::new(
            "insertBufSize",
            System,
            sys_ranges::INSERT_BUF_SIZE_MB,
            FieldRef::InsertBufSize,
        ),
        Dimension::new(
            "maxReadConcurrency",
            System,
            sys_ranges::MAX_READ_CONCURRENCY,
            FieldRef::MaxReadConcurrency,
        ),
        Dimension::new("chunkRows", System, sys_ranges::CHUNK_ROWS, FieldRef::ChunkRows),
        Dimension::new(
            "buildParallelism",
            System,
            sys_ranges::BUILD_PARALLELISM,
            FieldRef::BuildParallelism,
        ),
    ]
}

/// A declarative tuning space: the ordered list of dimensions the tuner
/// optimizes over. Owns encoding/decoding between [`VdmsConfig`] and the
/// unit hypercube, the per-index-type free-dimension masks, and the frozen
/// polling templates.
#[derive(Debug, Clone)]
pub struct SpaceSpec {
    dims: Vec<Dimension>,
}

impl SpaceSpec {
    /// The paper's 16-dimensional space (§V-A).
    pub fn legacy() -> SpaceSpec {
        SpaceSpec { dims: base_dimensions() }
    }

    /// Shared instance of the legacy spec, for the fixed-space SHAP/trace
    /// entry points.
    pub fn legacy_ref() -> &'static SpaceSpec {
        static LEGACY: OnceLock<SpaceSpec> = OnceLock::new();
        LEGACY.get_or_init(SpaceSpec::legacy)
    }

    /// The 16 base dimensions plus a log-scaled `shard_count` topology
    /// dimension over 1..=`max_shards` query nodes. With `max_shards == 1`
    /// the dimension is frozen (encoded but never free), which makes the
    /// 17-dimensional spec reproduce 16-dimensional tuning bit for bit.
    pub fn with_topology(max_shards: usize) -> SpaceSpec {
        let mut dims = base_dimensions();
        let range = ParamRange::new(1.0, max_shards.max(1) as f64, true);
        dims.push(Dimension::new(
            SHARD_COUNT_DIM_NAME,
            DimensionKind::Topology,
            range,
            FieldRef::ShardCount,
        ));
        SpaceSpec { dims }
    }

    /// This spec extended with a `replicas` topology dimension over
    /// 1..=`max_replicas` copies of every sealed segment — the 18th
    /// dimension when applied to [`SpaceSpec::with_topology`]. The range
    /// is *linear* (unlike the exponentially-tuned shard count): replica
    /// counts are small integers whose serving capacity scales linearly,
    /// and a log scale would starve the high factors of candidate mass
    /// exactly where read scaling pays. With `max_replicas == 1` the
    /// dimension is frozen (encoded but never free), which makes the
    /// extended spec reproduce the unextended spec's tuning bit for bit —
    /// the same contract [`SpaceSpec::with_topology`] gives at one shard.
    pub fn with_replication(mut self, max_replicas: usize) -> SpaceSpec {
        let range = ParamRange::new(1.0, max_replicas.max(1) as f64, false);
        self.dims.push(Dimension::new(
            REPLICAS_DIM_NAME,
            DimensionKind::Topology,
            range,
            FieldRef::Replicas,
        ));
        self
    }

    /// This spec extended with a `replicas` dimension *pinned* at exactly
    /// `replicas` copies: the coordinate is encoded (so histories keep the
    /// extended width and candidates always decode a replication request)
    /// but frozen, so the acquisition never varies it. The fixed-replica
    /// arms of the replication experiment are built this way, keeping
    /// every arm in the same space against the same backend.
    pub fn with_pinned_replication(mut self, replicas: usize) -> SpaceSpec {
        let r = replicas.max(1) as f64;
        self.dims.push(Dimension::new(
            REPLICAS_DIM_NAME,
            DimensionKind::Topology,
            ParamRange::new(r, r, false),
            FieldRef::Replicas,
        ));
        self
    }

    /// This spec extended with a `pinning` topology dimension spanning all
    /// [`PinningPolicy`] ordinals — the 19th dimension when applied to the
    /// replicated topology spec. The range is *linear* over the four
    /// ordinals (shared, compact, scatter, smt-avoid): policies are
    /// categorical, so each needs equal candidate mass and decode rounds
    /// to the nearest ordinal. The seed carries the lowest ordinal
    /// ([`PinningPolicy::Shared`]), which evaluates bit-identically to "no
    /// pinning request" — so tuning histories with the dimension frozen at
    /// the seed reproduce the unextended spec's histories bit for bit.
    pub fn with_pinning(mut self) -> SpaceSpec {
        let range = ParamRange::new(0.0, (PinningPolicy::ALL.len() - 1) as f64, false);
        self.dims.push(Dimension::new(
            PINNING_DIM_NAME,
            DimensionKind::Topology,
            range,
            FieldRef::Pinning,
        ));
        self
    }

    /// This spec extended with a `pinning` dimension *pinned* at exactly
    /// `policy`: the coordinate is encoded (so histories keep the extended
    /// width and candidates always decode a pinning request) but frozen,
    /// so the acquisition never varies it. The fixed-policy arms of the
    /// reactors experiment are built this way, keeping every arm in the
    /// same space against the same backend.
    pub fn with_pinned_pinning(mut self, policy: PinningPolicy) -> SpaceSpec {
        let o = policy.ordinal() as f64;
        self.dims.push(Dimension::new(
            PINNING_DIM_NAME,
            DimensionKind::Topology,
            ParamRange::new(o, o, false),
            FieldRef::Pinning,
        ));
        self
    }

    /// This spec extended with the three write-path dimensions — WAL
    /// group-commit batch size (rows), flush interval (seconds), and the
    /// segment seal threshold (rows) — dimensions 20–22 when applied to
    /// the pinned topology spec. All three tune on a log scale: each
    /// trades a per-event fixed cost against buffering/staleness across
    /// orders of magnitude (fsync amortization, commit latency, seal
    /// pause size), the same shape as `insertBufSize`. The seed carries
    /// each dimension's low end, like the topology dimensions.
    pub fn with_writepath(mut self) -> SpaceSpec {
        use DimensionKind::Topology;
        self.dims.push(Dimension::new(
            WAL_BATCH_DIM_NAME,
            Topology,
            ParamRange::new(16.0, 2048.0, true),
            FieldRef::WalBatch,
        ));
        self.dims.push(Dimension::new(
            WAL_FLUSH_DIM_NAME,
            Topology,
            ParamRange::new(0.005, 0.5, true),
            FieldRef::WalFlushInterval,
        ));
        self.dims.push(Dimension::new(
            WAL_SEAL_DIM_NAME,
            Topology,
            ParamRange::new(128.0, 8192.0, true),
            FieldRef::WalSealRows,
        ));
        self
    }

    /// This spec extended with the three write-path dimensions *pinned*
    /// at exactly `knobs`: the coordinates are encoded (so histories keep
    /// the extended width and candidates always decode a write-path
    /// request) but frozen, so the acquisition never varies them. Pinned
    /// at [`WriteKnobs::DEFAULT`] — which evaluates bit-identically to
    /// "no write-path request" — the extended spec reproduces the
    /// unextended spec's tuning bit for bit; the fixed-flush arms of the
    /// writepath experiment pin other values.
    pub fn with_pinned_writepath(mut self, knobs: WriteKnobs) -> SpaceSpec {
        use DimensionKind::Topology;
        let k = knobs.sanitized();
        let (b, f, s) = (k.wal_batch_rows as f64, k.flush_interval_secs, k.seal_rows as f64);
        self.dims.push(Dimension::new(
            WAL_BATCH_DIM_NAME,
            Topology,
            ParamRange::new(b, b, false),
            FieldRef::WalBatch,
        ));
        self.dims.push(Dimension::new(
            WAL_FLUSH_DIM_NAME,
            Topology,
            ParamRange::new(f, f, false),
            FieldRef::WalFlushInterval,
        ));
        self.dims.push(Dimension::new(
            WAL_SEAL_DIM_NAME,
            Topology,
            ParamRange::new(s, s, false),
            FieldRef::WalSealRows,
        ));
        self
    }

    /// Number of encoded dimensions.
    pub fn dims(&self) -> usize {
        self.dims.len()
    }

    /// The dimension descriptors, in encoding order.
    pub fn dimensions(&self) -> &[Dimension] {
        &self.dims
    }

    /// Dimension names, in encoding order.
    pub fn dim_names(&self) -> Vec<&'static str> {
        self.dims.iter().map(|d| d.name).collect()
    }

    /// The dimension writing `field`, if this spec carries one.
    fn field(&self, field: FieldRef) -> Option<&Dimension> {
        self.dims.iter().find(|d| d.field == field)
    }

    /// Whether this spec carries a (non-frozen or frozen) shard-count
    /// dimension — the one deployment dimension that makes its candidates
    /// carry a shard request.
    pub fn has_shards(&self) -> bool {
        self.field(FieldRef::ShardCount).is_some()
    }

    /// Largest shard count the topology dimension spans (1 when the spec
    /// has no shard-count dimension).
    pub fn max_shards(&self) -> usize {
        self.field(FieldRef::ShardCount).map_or(1, |d| d.range.hi.round() as usize)
    }

    /// Whether this spec carries a (non-frozen or frozen) replication
    /// dimension.
    pub fn has_replication(&self) -> bool {
        self.field(FieldRef::Replicas).is_some()
    }

    /// Largest replication factor the replication dimension spans (1 when
    /// the spec has no replication dimension).
    pub fn max_replicas(&self) -> usize {
        self.field(FieldRef::Replicas).map_or(1, |d| d.range.hi.round() as usize)
    }

    /// Whether this spec carries a (non-frozen or frozen) pinning
    /// dimension.
    pub fn has_pinning(&self) -> bool {
        self.field(FieldRef::Pinning).is_some()
    }

    /// Whether this spec carries (non-frozen or frozen) write-path
    /// dimensions.
    pub fn has_writepath(&self) -> bool {
        self.field(FieldRef::WalBatch).is_some()
    }

    /// The offline backend that realizes this space over `workload`: a
    /// candidate's shard and replication requests deploy the cluster they
    /// ask for, up to the largest value each dimension spans (a pinned
    /// dimension's ceiling is its pin), and the pinning and write-path
    /// requests are realized exactly when the space carries their
    /// dimensions. Its [`workload::BackendInfo::space_dims`] is
    /// [`SpaceSpec::dims`], so every candidate this space decodes is
    /// evaluated, never rejected as a space mismatch.
    pub fn backend<'a>(&self, workload: &'a Workload) -> SimBackend<'a> {
        SimBackend::with_knobs(
            workload,
            DeploymentKnobs {
                max_shards: self.has_shards().then(|| self.max_shards()),
                max_replicas: self.has_replication().then(|| self.max_replicas()),
                pinning: self.has_pinning(),
                writepath: self.has_writepath(),
            },
        )
    }

    /// The write-path request seed configurations carry: each write
    /// dimension's low end — the pinned knobs for
    /// [`SpaceSpec::with_pinned_writepath`], `None` without the
    /// dimensions.
    fn seed_writepath(&self) -> Option<WriteKnobs> {
        let find = |f: FieldRef| self.field(f).map(|d| d.range.lo);
        Some(WriteKnobs {
            wal_batch_rows: (find(FieldRef::WalBatch)?.round() as usize).max(1),
            flush_interval_secs: find(FieldRef::WalFlushInterval)?,
            seal_rows: (find(FieldRef::WalSealRows)?.round() as usize).max(1),
        })
    }

    /// The pinning request seed configurations carry: the lowest-ordinal
    /// policy the pinning dimension can express — [`PinningPolicy::Shared`]
    /// for [`SpaceSpec::with_pinning`], the pinned policy for
    /// [`SpaceSpec::with_pinned_pinning`], `None` without the dimension.
    fn seed_pinning(&self) -> Option<PinningPolicy> {
        self.field(FieldRef::Pinning)
            .map(|d| PinningPolicy::from_ordinal(d.range.lo.round() as usize))
    }

    /// The replication request seed configurations carry: the smallest
    /// factor the replication dimension can express — 1 for
    /// [`SpaceSpec::with_replication`], the pinned value for
    /// [`SpaceSpec::with_pinned_replication`], `None` without the
    /// dimension.
    fn seed_replicas(&self) -> Option<usize> {
        self.field(FieldRef::Replicas).map(|d| (d.range.lo.round() as usize).max(1))
    }

    /// The configuration the tuner seeds index type `t` with (Algorithm 1,
    /// line 2): Milvus defaults, plus the single-node topology (and the
    /// smallest expressible replication factor) when this spec tunes the
    /// deployment shape — so shape exploration starts from the paper's
    /// testbed.
    pub fn seed_config(&self, t: IndexType) -> VdmsConfig {
        VdmsConfig {
            shards: self.has_shards().then_some(1),
            replicas: self.seed_replicas(),
            pinning: self.seed_pinning(),
            writepath: self.seed_writepath(),
            ..VdmsConfig::default_for(t)
        }
    }

    /// [`SpaceSpec::seed_config`] with the default index type.
    pub fn seed_default(&self) -> VdmsConfig {
        self.seed_config(VdmsConfig::default_config().index_type)
    }

    /// Encode a configuration into the unit hypercube.
    pub fn encode(&self, c: &VdmsConfig) -> Vec<f64> {
        self.dims.iter().map(|d| d.read(c)).collect()
    }

    /// Decode a unit-hypercube point into a configuration.
    ///
    /// Extra trailing coordinates are ignored (a wider spec's history can
    /// be projected down); a point with fewer coordinates than the space
    /// has dimensions is a typed error, never a panic.
    pub fn decode(&self, u: &[f64]) -> Result<VdmsConfig, SpaceError> {
        if u.len() < self.dims.len() {
            return Err(SpaceError::TooFewCoords { expected: self.dims.len(), got: u.len() });
        }
        let mut c = VdmsConfig::default_config();
        for (d, &v) in self.dims.iter().zip(u) {
            d.write(&mut c, v);
        }
        Ok(c)
    }

    /// Dimensions the acquisition may vary when polling `t`: the index
    /// parameters belonging to `t` plus every shared (system and non-frozen
    /// topology) dimension. The index-type coordinate and foreign index
    /// parameters stay frozen.
    pub fn free_dims(&self, t: IndexType) -> Vec<usize> {
        self.dims
            .iter()
            .enumerate()
            .filter(|(_, d)| match d.kind {
                DimensionKind::IndexType => false,
                DimensionKind::IndexParam => t.param_names().contains(&d.name),
                DimensionKind::System => true,
                DimensionKind::Topology => !d.is_frozen(),
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Normalized coordinate of an index type.
    pub fn type_coord(t: IndexType) -> f64 {
        t.ordinal() as f64 / (IndexType::ALL.len() - 1) as f64
    }

    /// Index type from a normalized coordinate (nearest ordinal).
    pub fn type_from_coord(u: f64) -> IndexType {
        let t = (u.clamp(0.0, 1.0) * (IndexType::ALL.len() - 1) as f64).round() as usize;
        IndexType::from_ordinal(t)
    }

    /// The frozen template for polling `t`: index type set to `t`, all
    /// index parameters at their defaults (paper §IV-C: "sets the
    /// parameters not belonging to this index type as their default
    /// values"), system parameters at defaults, topology at the seed shape.
    pub fn template_for(&self, t: IndexType) -> Vec<f64> {
        let mut u = self.encode(&self.seed_config(t));
        u[IDX_TYPE_DIM] = SpaceSpec::type_coord(t);
        u
    }

    /// Embed free-dimension values into the template for `t`.
    pub fn embed(&self, t: IndexType, free: &[(usize, f64)]) -> Vec<f64> {
        let mut u = self.template_for(t);
        for &(dim, v) in free {
            debug_assert_ne!(dim, IDX_TYPE_DIM, "index type is never free");
            u[dim] = v.clamp(0.0, 1.0);
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anns::params::IndexParams;
    use vdms::system_params::SystemParams;

    #[test]
    fn dims_is_sixteen_as_in_paper() {
        assert_eq!(DIMS, 16);
        assert_eq!(DIM_NAMES.len(), 16);
        assert_eq!(DIMS, VdmsConfig::BASE_TUNABLES);
        let legacy = SpaceSpec::legacy();
        assert_eq!(legacy.dims(), DIMS);
        assert_eq!(legacy.dim_names(), DIM_NAMES.to_vec());
        assert!(!legacy.has_shards());
        // A deployment dimension is not a shard dimension.
        let pinned = SpaceSpec::legacy().with_pinning();
        assert!(!pinned.has_shards() && pinned.has_pinning());
        assert_eq!(pinned.seed_default().shards, None);
    }

    #[test]
    fn type_coord_roundtrip() {
        for t in IndexType::ALL {
            assert_eq!(SpaceSpec::type_from_coord(SpaceSpec::type_coord(t)), t);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let space = SpaceSpec::legacy();
        let mut c = VdmsConfig::default_for(IndexType::Scann);
        c.index.nlist = 300;
        c.index.nprobe = 37;
        c.index.reorder_k = 283;
        c.system.segment_seal_proportion = 0.77;
        let back = space.decode(&space.encode(&c)).unwrap();
        assert_eq!(back.index_type, IndexType::Scann);
        assert!((back.index.nlist as f64 - 300.0).abs() <= 3.0);
        assert!((back.index.nprobe as f64 - 37.0).abs() <= 1.0);
        assert!((back.index.reorder_k as f64 - 283.0).abs() <= 3.0);
        assert!((back.system.segment_seal_proportion - 0.77).abs() < 0.01);
    }

    #[test]
    fn encoded_values_in_unit_cube() {
        let space = SpaceSpec::legacy();
        for t in IndexType::ALL {
            let u = space.encode(&VdmsConfig::default_for(t));
            assert_eq!(u.len(), DIMS);
            assert!(u.iter().all(|&x| (0.0..=1.0).contains(&x)), "{t}: {u:?}");
        }
    }

    #[test]
    fn free_dims_match_table_i() {
        // HNSW: M, efConstruction, ef + 7 system.
        let dims = SpaceSpec::legacy().free_dims(IndexType::Hnsw);
        assert_eq!(dims.len(), 3 + 7);
        assert!(dims.contains(&5) && dims.contains(&6) && dims.contains(&7));
        // FLAT/AUTOINDEX: only system parameters.
        assert_eq!(SpaceSpec::legacy().free_dims(IndexType::Flat).len(), 7);
        assert_eq!(SpaceSpec::legacy().free_dims(IndexType::AutoIndex).len(), 7);
        // IVF_PQ: nlist, m, nbits, nprobe + 7.
        assert_eq!(SpaceSpec::legacy().free_dims(IndexType::IvfPq).len(), 4 + 7);
        // SCANN: nlist, nprobe, reorder_k + 7.
        assert_eq!(SpaceSpec::legacy().free_dims(IndexType::Scann).len(), 3 + 7);
    }

    #[test]
    fn embed_freezes_foreign_params() {
        let space = SpaceSpec::legacy();
        // Vary HNSW's ef; nlist must stay at its default encoding.
        let u = space.embed(IndexType::Hnsw, &[(7, 0.9)]);
        let c = space.decode(&u).unwrap();
        assert_eq!(c.index_type, IndexType::Hnsw);
        assert_eq!(c.index.nlist, IndexParams::default().nlist);
        assert!(u[7] == 0.9);
    }

    #[test]
    fn template_decodes_to_defaults() {
        let space = SpaceSpec::legacy();
        for t in IndexType::ALL {
            let c = space.decode(&space.template_for(t)).unwrap();
            assert_eq!(c.index_type, t);
            // System params decode back to (approximately) the defaults.
            let d = SystemParams::default();
            assert!((c.system.segment_seal_proportion - d.segment_seal_proportion).abs() < 0.01);
            assert_eq!(c.system.max_read_concurrency, d.max_read_concurrency);
        }
    }

    #[test]
    fn short_point_is_typed_error_not_abort() {
        // Regression: the original decoder panicked on short points; the
        // API returns a typed error.
        let spec = SpaceSpec::legacy();
        let err = SpaceError::TooFewCoords { expected: 16, got: 3 };
        assert_eq!(spec.decode(&[0.5, 0.5, 0.5]), Err(err));
        assert!(err.to_string().contains("3 coordinates"));
    }

    #[test]
    fn topology_spec_appends_shard_dimension() {
        let spec = SpaceSpec::with_topology(8);
        assert_eq!(spec.dims(), DIMS + 1);
        assert!(spec.has_shards());
        assert_eq!(spec.max_shards(), 8);
        assert_eq!(spec.dim_names()[DIMS], SHARD_COUNT_DIM_NAME);
        let last = spec.dimensions()[DIMS];
        assert_eq!(last.kind, DimensionKind::Topology);
        assert!(!last.is_frozen());
        assert!(last.range.log, "shard count tunes on a log scale");
        // Every index type gains the topology dim as a shared free dim.
        for t in IndexType::ALL {
            let free = spec.free_dims(t);
            assert_eq!(free.last(), Some(&DIMS), "{t}");
            assert_eq!(free.len(), SpaceSpec::legacy().free_dims(t).len() + 1, "{t}");
        }
    }

    #[test]
    fn topology_roundtrip_covers_every_shard_count() {
        let spec = SpaceSpec::with_topology(8);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..=100 {
            let mut u = spec.template_for(IndexType::Hnsw);
            u[DIMS] = i as f64 / 100.0;
            let c = spec.decode(&u).unwrap();
            let s = c.shards.expect("topology spec always decodes a shard count");
            assert!((1..=8).contains(&s));
            seen.insert(s);
            // Round-trip: encode puts the shard count back on the same
            // unit-cube value its decode quantized to.
            let back = spec.decode(&spec.encode(&c)).unwrap();
            assert_eq!(back.shards, Some(s));
        }
        assert_eq!(seen.len(), 8, "all shard counts reachable: {seen:?}");
    }

    #[test]
    fn frozen_topology_dimension_never_free() {
        let spec = SpaceSpec::with_topology(1);
        assert_eq!(spec.dims(), DIMS + 1);
        assert!(spec.dimensions()[DIMS].is_frozen());
        for t in IndexType::ALL {
            assert_eq!(spec.free_dims(t), SpaceSpec::legacy().free_dims(t), "{t}");
        }
        // The frozen coordinate encodes to a constant, so GP inputs differ
        // from the 16-dim spec only by an appended constant.
        let u = spec.encode(&spec.seed_config(IndexType::Hnsw));
        assert_eq!(u.len(), DIMS + 1);
        assert_eq!(u[DIMS].to_bits(), 0.0f64.to_bits());
        assert_eq!(spec.decode(&u).unwrap().shards, Some(1));
    }

    #[test]
    fn replication_spec_appends_replicas_dimension() {
        let spec = SpaceSpec::with_topology(8).with_replication(4);
        assert_eq!(spec.dims(), DIMS + 2);
        assert!(spec.has_shards() && spec.has_replication());
        assert_eq!(spec.max_replicas(), 4);
        assert_eq!(spec.dim_names()[DIMS + 1], REPLICAS_DIM_NAME);
        let last = spec.dimensions()[DIMS + 1];
        assert_eq!(last.kind, DimensionKind::Topology);
        assert!(!last.is_frozen());
        assert!(!last.range.log, "replication tunes on a linear scale");
        // Every index type gains the replicas dim as a shared free dim.
        for t in IndexType::ALL {
            let free = spec.free_dims(t);
            assert_eq!(free.last(), Some(&(DIMS + 1)), "{t}");
            assert_eq!(free.len(), SpaceSpec::with_topology(8).free_dims(t).len() + 1, "{t}");
        }
        // Decode covers every replication factor.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..=100 {
            let mut u = spec.template_for(IndexType::Hnsw);
            u[DIMS + 1] = i as f64 / 100.0;
            let c = spec.decode(&u).unwrap();
            let r = c.replicas.expect("replication spec always decodes a factor");
            assert!((1..=4).contains(&r));
            seen.insert(r);
            let back = spec.decode(&spec.encode(&c)).unwrap();
            assert_eq!(back.replicas, Some(r));
        }
        assert_eq!(seen.len(), 4, "all factors reachable: {seen:?}");
    }

    #[test]
    fn frozen_replication_dimension_never_free() {
        let spec = SpaceSpec::with_topology(4).with_replication(1);
        assert_eq!(spec.dims(), DIMS + 2);
        assert!(spec.dimensions()[DIMS + 1].is_frozen());
        for t in IndexType::ALL {
            assert_eq!(spec.free_dims(t), SpaceSpec::with_topology(4).free_dims(t), "{t}");
        }
        // The frozen coordinate encodes to a constant 0.0, so GP inputs
        // differ from the 17-dim spec only by an appended constant.
        let u = spec.encode(&spec.seed_config(IndexType::Hnsw));
        assert_eq!(u.len(), DIMS + 2);
        assert_eq!(u[DIMS + 1].to_bits(), 0.0f64.to_bits());
        assert_eq!(spec.decode(&u).unwrap().replicas, Some(1));
    }

    #[test]
    fn pinned_replication_freezes_at_the_pinned_factor() {
        let spec = SpaceSpec::with_topology(4).with_pinned_replication(3);
        assert!(spec.dimensions()[DIMS + 1].is_frozen());
        assert_eq!(spec.max_replicas(), 3);
        // Seed configs and every decoded point carry exactly the pin.
        assert_eq!(spec.seed_config(IndexType::Hnsw).replicas, Some(3));
        for i in 0..=10 {
            let mut u = spec.template_for(IndexType::Hnsw);
            u[DIMS + 1] = i as f64 / 10.0;
            assert_eq!(spec.decode(&u).unwrap().replicas, Some(3));
        }
    }

    #[test]
    fn pinning_spec_appends_pinning_dimension() {
        let spec = SpaceSpec::with_topology(8).with_replication(4).with_pinning();
        assert_eq!(spec.dims(), DIMS + 3);
        assert!(spec.has_shards() && spec.has_replication() && spec.has_pinning());
        assert_eq!(spec.dim_names()[DIMS + 2], PINNING_DIM_NAME);
        let last = spec.dimensions()[DIMS + 2];
        assert_eq!(last.kind, DimensionKind::Topology);
        assert!(!last.is_frozen());
        assert!(!last.range.log, "pinning ordinals tune on a linear scale");
        // Every index type gains the pinning dim as a shared free dim.
        for t in IndexType::ALL {
            let free = spec.free_dims(t);
            assert_eq!(free.last(), Some(&(DIMS + 2)), "{t}");
            assert_eq!(
                free.len(),
                SpaceSpec::with_topology(8).with_replication(4).free_dims(t).len() + 1,
                "{t}"
            );
        }
        // Decode covers every policy.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..=100 {
            let mut u = spec.template_for(IndexType::Hnsw);
            u[DIMS + 2] = i as f64 / 100.0;
            let c = spec.decode(&u).unwrap();
            let p = c.pinning.expect("pinning spec always decodes a policy");
            seen.insert(p.ordinal());
            let back = spec.decode(&spec.encode(&c)).unwrap();
            assert_eq!(back.pinning, Some(p));
        }
        assert_eq!(seen.len(), PinningPolicy::ALL.len(), "all policies reachable: {seen:?}");
    }

    #[test]
    fn frozen_pinning_dimension_never_free() {
        let spec = SpaceSpec::with_topology(4)
            .with_replication(4)
            .with_pinned_pinning(PinningPolicy::Shared);
        assert_eq!(spec.dims(), DIMS + 3);
        assert!(spec.dimensions()[DIMS + 2].is_frozen());
        for t in IndexType::ALL {
            assert_eq!(
                spec.free_dims(t),
                SpaceSpec::with_topology(4).with_replication(4).free_dims(t),
                "{t}"
            );
        }
        // The frozen coordinate encodes to a constant 0.0, so GP inputs
        // differ from the 18-dim spec only by an appended constant.
        let u = spec.encode(&spec.seed_config(IndexType::Hnsw));
        assert_eq!(u.len(), DIMS + 3);
        assert_eq!(u[DIMS + 2].to_bits(), 0.0f64.to_bits());
        assert_eq!(spec.decode(&u).unwrap().pinning, Some(PinningPolicy::Shared));
    }

    #[test]
    fn pinned_pinning_freezes_at_the_policy() {
        let spec = SpaceSpec::with_topology(4).with_pinned_pinning(PinningPolicy::Scatter);
        assert!(spec.dimensions()[DIMS + 1].is_frozen());
        // Seed configs and every decoded point carry exactly the pin.
        assert_eq!(spec.seed_config(IndexType::Hnsw).pinning, Some(PinningPolicy::Scatter));
        for i in 0..=10 {
            let mut u = spec.template_for(IndexType::Hnsw);
            u[DIMS + 1] = i as f64 / 10.0;
            assert_eq!(spec.decode(&u).unwrap().pinning, Some(PinningPolicy::Scatter));
        }
    }

    #[test]
    fn writepath_spec_appends_three_write_dimensions() {
        let spec = SpaceSpec::with_topology(8).with_replication(4).with_pinning().with_writepath();
        assert_eq!(spec.dims(), DIMS + 6);
        assert!(spec.has_writepath());
        assert_eq!(
            &spec.dim_names()[DIMS + 3..],
            &[WAL_BATCH_DIM_NAME, WAL_FLUSH_DIM_NAME, WAL_SEAL_DIM_NAME]
        );
        for d in &spec.dimensions()[DIMS + 3..] {
            assert_eq!(d.kind, DimensionKind::Topology);
            assert!(!d.is_frozen());
            assert!(d.range.log, "write knobs tune on a log scale");
        }
        // Every index type gains all three as shared free dims.
        for t in IndexType::ALL {
            let free = spec.free_dims(t);
            let base = SpaceSpec::with_topology(8).with_replication(4).with_pinning().free_dims(t);
            assert_eq!(free.len(), base.len() + 3, "{t}");
            assert!(free.contains(&(DIMS + 3)) && free.contains(&(DIMS + 5)), "{t}");
        }
        // Decode spans the knob ranges and round-trips.
        let mut batches = std::collections::BTreeSet::new();
        for i in 0..=100 {
            let mut u = spec.template_for(IndexType::Hnsw);
            u[DIMS + 3] = i as f64 / 100.0;
            u[DIMS + 4] = (100 - i) as f64 / 100.0;
            u[DIMS + 5] = i as f64 / 100.0;
            let c = spec.decode(&u).unwrap();
            let k = c.writepath.expect("writepath spec always decodes a request");
            assert!((16..=2048).contains(&k.wal_batch_rows));
            assert!((0.005..=0.5).contains(&k.flush_interval_secs));
            assert!((128..=8192).contains(&k.seal_rows));
            batches.insert(k.wal_batch_rows);
            let back = spec.decode(&spec.encode(&c)).unwrap();
            assert_eq!(back.writepath, Some(k));
        }
        assert!(batches.len() > 20, "the batch range is finely reachable: {batches:?}");
        assert!(*batches.first().unwrap() == 16 && *batches.last().unwrap() == 2048);
    }

    #[test]
    fn pinned_writepath_freezes_at_the_knobs_and_default_encodes_to_zero() {
        let spec = SpaceSpec::with_topology(4)
            .with_replication(4)
            .with_pinning()
            .with_pinned_writepath(vdms::WriteKnobs::DEFAULT);
        assert_eq!(spec.dims(), DIMS + 6);
        assert!(spec.has_writepath());
        for d in &spec.dimensions()[DIMS + 3..] {
            assert!(d.is_frozen());
        }
        // Frozen write dims never free: the free set matches the 19-dim
        // spec exactly.
        for t in IndexType::ALL {
            assert_eq!(
                spec.free_dims(t),
                SpaceSpec::with_topology(4).with_replication(4).with_pinning().free_dims(t),
                "{t}"
            );
        }
        // The frozen coordinates encode to constant 0.0, so GP inputs
        // differ from the 19-dim spec only by appended constants.
        let u = spec.encode(&spec.seed_config(IndexType::Hnsw));
        assert_eq!(u.len(), DIMS + 6);
        for i in DIMS + 3..DIMS + 6 {
            assert_eq!(u[i].to_bits(), 0.0f64.to_bits(), "dim {i}");
        }
        // Every decoded point carries exactly the pin.
        for i in 0..=10 {
            let mut u = spec.template_for(IndexType::Hnsw);
            u[DIMS + 3] = i as f64 / 10.0;
            u[DIMS + 5] = i as f64 / 10.0;
            assert_eq!(spec.decode(&u).unwrap().writepath, Some(vdms::WriteKnobs::DEFAULT));
        }
        // Seeds carry the pin too.
        assert_eq!(spec.seed_default().writepath, Some(vdms::WriteKnobs::DEFAULT));
    }

    #[test]
    fn seed_configs_carry_topology_only_when_tuned() {
        assert_eq!(SpaceSpec::legacy().seed_config(IndexType::Hnsw).shards, None);
        assert_eq!(SpaceSpec::legacy().seed_default().shards, None);
        let topo = SpaceSpec::with_topology(4);
        assert_eq!(topo.seed_config(IndexType::Hnsw).shards, Some(1));
        assert_eq!(topo.seed_config(IndexType::Hnsw).replicas, None);
        assert_eq!(topo.seed_default().shards, Some(1));
        assert_eq!(topo.seed_default().index_type, IndexType::AutoIndex);
        let replicated = SpaceSpec::with_topology(4).with_replication(4);
        assert_eq!(replicated.seed_default().shards, Some(1));
        assert_eq!(replicated.seed_default().replicas, Some(1));
        assert_eq!(replicated.seed_default().pinning, None);
        let pinned = SpaceSpec::with_topology(4).with_replication(4).with_pinning();
        assert_eq!(pinned.seed_default().pinning, Some(PinningPolicy::Shared));
    }

    #[test]
    fn wider_points_project_down() {
        // A 17-dim point decodes under the legacy spec by ignoring the
        // trailing topology coordinate.
        let topo = SpaceSpec::with_topology(8);
        let mut u = topo.template_for(IndexType::Scann);
        u[DIMS] = 1.0;
        let wide = topo.decode(&u).unwrap();
        assert_eq!(wide.shards, Some(8));
        let narrow = SpaceSpec::legacy().decode(&u).unwrap();
        assert_eq!(narrow.shards, None);
        assert_eq!(narrow.index, wide.index);
        assert_eq!(narrow.system, wide.system);
    }
}
