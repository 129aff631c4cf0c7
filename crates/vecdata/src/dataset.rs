//! Synthetic dataset generators.
//!
//! The paper evaluates on GloVe, Keyword-match, Geo-radius (Table III),
//! ArXiv-titles (Table V) and deep-image (§V-E). Those exact corpora are not
//! redistributable here, so each generator reproduces the *statistical
//! signature* that matters for index selection and tuning:
//!
//! * **GloVe-like** — medium-dimensional, strongly clustered (word embeddings
//!   cluster by topic), angular metric. Quantization-based indexes (SCANN,
//!   IVF) shine here, matching Table V.
//! * **Keyword-match-like** — same size/dim but with *low inter-dimension
//!   correlation* (the paper calls this out explicitly): i.i.d. heavy-tailed
//!   coordinates with only faint cluster structure, so IVF partitions carry
//!   little information and larger `nprobe` is needed for recall.
//! * **Geo-radius-like** — few vectors but *very* high dimensional
//!   (2048-d in the paper); concentrated clusters with sparse support. The
//!   hardest dataset for the default configuration, which is why the paper
//!   reports the largest auto-tuning gains on it (Table IV).
//! * **ArXiv-titles-like** — text-embedding style: many small clusters with
//!   heavy-tailed sizes; graph indexes (HNSW) win, matching Table V.
//! * **deep-image-like** — a 10x-scale GloVe-like set for the scalability
//!   experiment (§V-E).
//!
//! Sizes are scaled down by default so that full tuning runs complete in
//! seconds; `DatasetSpec::paper_full` restores paper-scale dimensions.

use crate::distance::{norm, normalize_in_place, Metric};
use crate::ground_truth::ExactL2;
use crate::rng::{derive, fill_gaussian, rng};
use rand::Rng;
use std::sync::OnceLock;

/// Which of the paper's datasets to imitate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// GloVe word embeddings (1.18M x 100, angular).
    Glove,
    /// Keyword-match (1M x 100, angular), low inter-dimension correlation.
    KeywordMatch,
    /// Geo-radius (100k x 2048, angular).
    GeoRadius,
    /// ArXiv titles text embeddings (Table V).
    ArxivTitles,
    /// deep-image, 10x bigger than GloVe (scalability experiment).
    DeepImage,
}

impl DatasetKind {
    /// Human-readable name used in reports (matches the paper's tables).
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Glove => "GloVe",
            DatasetKind::KeywordMatch => "Keyword-match",
            DatasetKind::GeoRadius => "Geo-radius",
            DatasetKind::ArxivTitles => "ArXiv-titles",
            DatasetKind::DeepImage => "deep-image",
        }
    }

    /// All kinds used in the main evaluation (Table III).
    pub fn main_three() -> [DatasetKind; 3] {
        [DatasetKind::Glove, DatasetKind::KeywordMatch, DatasetKind::GeoRadius]
    }
}

/// Fully describes a dataset to generate (deterministic given the spec).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    pub kind: DatasetKind,
    /// Number of base vectors.
    pub n: usize,
    /// Vector dimensionality.
    pub dim: usize,
    /// Number of query vectors.
    pub n_queries: usize,
    /// Generator seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Scaled-down profile: preserves the paper's *relative* difficulty
    /// ordering while keeping a single evaluation under ~100 ms.
    pub fn scaled(kind: DatasetKind) -> Self {
        match kind {
            DatasetKind::Glove => Self { kind, n: 8_000, dim: 48, n_queries: 100, seed: 0x1001 },
            DatasetKind::KeywordMatch => {
                Self { kind, n: 8_000, dim: 48, n_queries: 100, seed: 0x1002 }
            }
            DatasetKind::GeoRadius => {
                Self { kind, n: 8_192, dim: 256, n_queries: 100, seed: 0x1003 }
            }
            DatasetKind::ArxivTitles => {
                Self { kind, n: 8_000, dim: 64, n_queries: 100, seed: 0x1004 }
            }
            DatasetKind::DeepImage => {
                Self { kind, n: 40_000, dim: 48, n_queries: 100, seed: 0x1005 }
            }
        }
    }

    /// Paper-scale profile (Table III sizes). Only practical for offline runs.
    pub fn paper_full(kind: DatasetKind) -> Self {
        match kind {
            DatasetKind::Glove => {
                Self { kind, n: 1_183_514, dim: 100, n_queries: 1_000, seed: 0x2001 }
            }
            DatasetKind::KeywordMatch => {
                Self { kind, n: 1_000_000, dim: 100, n_queries: 1_000, seed: 0x2002 }
            }
            DatasetKind::GeoRadius => {
                Self { kind, n: 100_000, dim: 2048, n_queries: 1_000, seed: 0x2003 }
            }
            DatasetKind::ArxivTitles => {
                Self { kind, n: 500_000, dim: 768, n_queries: 1_000, seed: 0x2004 }
            }
            DatasetKind::DeepImage => {
                Self { kind, n: 9_990_000, dim: 96, n_queries: 1_000, seed: 0x2005 }
            }
        }
    }

    /// A tiny profile for unit tests and short benchmark runs.
    pub fn tiny(kind: DatasetKind) -> Self {
        Self { kind, n: 600, dim: 16, n_queries: 20, seed: 0x3001 }
    }

    /// Generate the dataset.
    pub fn generate(&self) -> Dataset {
        Dataset::generate(*self)
    }
}

/// The metric of every dataset: all of the paper's are angular (Table III).
const METRIC: Metric = Metric::Angular;

/// An in-memory dataset: base vectors plus query vectors, flat row-major.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub spec: DatasetSpec,
    pub metric: Metric,
    data: Vec<f32>,
    queries: Vec<f32>,
    /// Per-vector Euclidean norms, precomputed at ingest for metrics that
    /// need them at query time ([`Metric::Angular`], [`Metric::InnerProduct`]);
    /// empty for [`Metric::L2`].
    norms: Vec<f32>,
    /// [`Dataset::exact_l2`]'s memo, filled by its first call.
    exact_l2: OnceLock<Option<ExactL2>>,
}

impl Dataset {
    /// Deterministically generate the dataset described by `spec`.
    pub fn generate(spec: DatasetSpec) -> Self {
        let profile = GenProfile::for_kind(spec.kind);
        let mut data = vec![0.0f32; spec.n * spec.dim];
        let mut queries = vec![0.0f32; spec.n_queries * spec.dim];
        profile.fill(spec, &mut data, derive(spec.seed, 1));
        profile.fill_queries(spec, &data, &mut queries, derive(spec.seed, 2));
        if METRIC.normalizes() {
            for row in data.chunks_mut(spec.dim) {
                normalize_in_place(row);
            }
            for row in queries.chunks_mut(spec.dim) {
                normalize_in_place(row);
            }
        }
        Dataset::from_rows(spec, data, queries)
    }

    /// A dataset of the given rows, as they are: `spec.n` base vectors and
    /// `spec.n_queries` queries, row-major and `spec.dim` wide, under the
    /// metric [`Dataset::generate`] uses (`spec.kind` and
    /// `spec.seed` only label it). For hand-made data — duplicate rows,
    /// non-finite coordinates — in tests.
    ///
    /// # Panics
    ///
    /// When a slice's length does not match the spec.
    pub fn from_rows(spec: DatasetSpec, data: Vec<f32>, queries: Vec<f32>) -> Self {
        assert_eq!(data.len(), spec.n * spec.dim, "base rows do not match the spec");
        assert_eq!(queries.len(), spec.n_queries * spec.dim, "queries do not match the spec");
        let metric = METRIC;
        let norms = match metric {
            Metric::Angular | Metric::InnerProduct => {
                data.chunks_exact(spec.dim.max(1)).map(norm).collect()
            }
            Metric::L2 => Vec::new(),
        };
        Dataset { spec, metric, data, queries, norms, exact_l2: OnceLock::new() }
    }

    /// Number of base vectors.
    pub fn len(&self) -> usize {
        self.spec.n
    }

    /// True when the dataset holds no base vectors.
    pub fn is_empty(&self) -> bool {
        self.spec.n == 0
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.spec.dim
    }

    /// The `i`-th base vector.
    #[inline]
    pub fn vector(&self, i: usize) -> &[f32] {
        &self.data[i * self.spec.dim..(i + 1) * self.spec.dim]
    }

    /// All base vectors as one flat slice.
    pub fn raw(&self) -> &[f32] {
        &self.data
    }

    /// Number of queries.
    pub fn n_queries(&self) -> usize {
        self.spec.n_queries
    }

    /// The `i`-th query vector.
    #[inline]
    pub fn query(&self, i: usize) -> &[f32] {
        &self.queries[i * self.spec.dim..(i + 1) * self.spec.dim]
    }

    /// Iterate over base vectors.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.spec.dim)
    }

    /// Norm of the `i`-th base vector: precomputed at ingest for
    /// norm-consuming metrics, computed on the fly otherwise. Bit-identical
    /// to `norm(self.vector(i))` either way.
    #[inline]
    pub fn stored_norm(&self, i: usize) -> f32 {
        if self.norms.is_empty() {
            norm(self.vector(i))
        } else {
            self.norms[i]
        }
    }

    /// All precomputed base-vector norms (empty for [`Metric::L2`]).
    pub fn stored_norms(&self) -> &[f32] {
        &self.norms
    }

    /// Every query's exact squared-L2 top-`k` ids among all base vectors
    /// (see [`ExactL2`] for exactly which), computed by the first call and
    /// kept for the dataset's lifetime: an exact collection reads its
    /// answers here instead of scanning. Whatever the metric, the scores
    /// are `l2_sq`, which is what FLAT segments and growing tails rank by.
    ///
    /// `None` when some query scores NaN against some row (the one case
    /// where per-segment selection plus the merge may keep other rows than
    /// one scan) or when the memo holds another `k` (`k` 0 counts as 1,
    /// like [`TopK::new`](crate::ground_truth::TopK::new)): the caller
    /// scans instead.
    pub fn exact_l2(&self, k: usize) -> Option<&ExactL2> {
        let k = k.max(1);
        self.exact_l2.get_or_init(|| ExactL2::scan(self, k)).as_ref().filter(|memo| memo.k() == k)
    }
}

/// Internal per-kind generation knobs.
struct GenProfile {
    /// Number of Gaussian mixture components (0 = unclustered).
    clusters: usize,
    /// Within-cluster standard deviation relative to the between-cluster one.
    cluster_tightness: f32,
    /// Exponent of the Zipf-ish cluster-size distribution (0 = uniform).
    size_skew: f64,
    /// Fraction of coordinates zeroed per cluster (sparse support).
    sparsity: f32,
    /// Weight of i.i.d. heavy-tailed per-dimension noise mixed in.
    independent_noise: f32,
    /// Per-dimension σ of the query perturbation. Controls how *hard* the
    /// dataset is for approximate search: with large noise a query's true
    /// neighbors spread across many clusters/graph regions, so default index
    /// parameters lose recall — this is what gives the paper's Table IV its
    /// per-dataset improvement headroom (Geo-radius ≫ Keyword-match > GloVe).
    query_noise: f32,
}

impl GenProfile {
    fn for_kind(kind: DatasetKind) -> Self {
        match kind {
            DatasetKind::Glove | DatasetKind::DeepImage => GenProfile {
                clusters: 64,
                cluster_tightness: 0.35,
                size_skew: 0.8,
                sparsity: 0.0,
                independent_noise: 0.05,
                query_noise: 0.7,
            },
            DatasetKind::KeywordMatch => GenProfile {
                clusters: 8,
                cluster_tightness: 1.2,
                size_skew: 0.0,
                sparsity: 0.0,
                independent_noise: 0.9,
                query_noise: 1.4,
            },
            DatasetKind::GeoRadius => GenProfile {
                clusters: 24,
                cluster_tightness: 0.25,
                size_skew: 1.1,
                sparsity: 0.6,
                independent_noise: 0.02,
                query_noise: 3.0,
            },
            DatasetKind::ArxivTitles => GenProfile {
                clusters: 200,
                cluster_tightness: 0.45,
                size_skew: 1.3,
                sparsity: 0.0,
                independent_noise: 0.1,
                query_noise: 0.5,
            },
        }
    }

    fn fill(&self, spec: DatasetSpec, out: &mut [f32], seed: u64) {
        let mut r = rng(seed);
        let dim = spec.dim;
        // Cluster centers.
        let k = self.clusters.max(1);
        let mut centers = vec![0.0f32; k * dim];
        fill_gaussian(&mut r, &mut centers, 0.0, 1.0);
        // Sparse support masks per cluster.
        let mut masks: Vec<Vec<bool>> = Vec::with_capacity(k);
        for _ in 0..k {
            let mask: Vec<bool> = (0..dim).map(|_| r.gen::<f32>() >= self.sparsity).collect();
            masks.push(mask);
        }
        // Zipf-ish cluster weights.
        let weights: Vec<f64> =
            (0..k).map(|i| 1.0 / ((i + 1) as f64).powf(self.size_skew)).collect();
        let total_w: f64 = weights.iter().sum();
        let cum: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total_w;
                Some(*acc)
            })
            .collect();

        let mut noise = vec![0.0f32; dim];
        for row in out.chunks_exact_mut(dim) {
            let u: f64 = r.gen();
            let c = cum.partition_point(|&x| x < u).min(k - 1);
            let center = &centers[c * dim..(c + 1) * dim];
            fill_gaussian(&mut r, &mut noise, 0.0, self.cluster_tightness);
            let mask = &masks[c];
            for d in 0..dim {
                let clustered = if mask[d] { center[d] + noise[d] } else { 0.0 };
                // Heavy-tailed independent component (Laplace via inverse CDF).
                let indep = if self.independent_noise > 0.0 {
                    let u: f32 = r.gen::<f32>() - 0.5;
                    -u.signum() * (1.0 - 2.0 * u.abs()).max(1e-9).ln() * 0.7
                } else {
                    0.0
                };
                row[d] =
                    (1.0 - self.independent_noise) * clustered + self.independent_noise * indep;
            }
        }
    }

    /// Queries follow the base distribution: perturbed copies of random base
    /// vectors (as in ANN benchmarks, where queries are held-out samples).
    fn fill_queries(&self, spec: DatasetSpec, data: &[f32], out: &mut [f32], seed: u64) {
        let mut r = rng(seed);
        let dim = spec.dim;
        let mut noise = vec![0.0f32; dim];
        for row in out.chunks_exact_mut(dim) {
            let base = r.gen_range(0..spec.n);
            let src = &data[base * dim..(base + 1) * dim];
            fill_gaussian(&mut r, &mut noise, 0.0, self.query_noise);
            for d in 0..dim {
                row[d] = src[d] + noise[d];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::norm;

    #[test]
    fn generation_is_deterministic() {
        let spec = DatasetSpec::tiny(DatasetKind::Glove);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.raw(), b.raw());
        assert_eq!(a.query(3), b.query(3));
    }

    #[test]
    fn different_seeds_differ() {
        let mut s1 = DatasetSpec::tiny(DatasetKind::Glove);
        let mut s2 = s1;
        s1.seed = 1;
        s2.seed = 2;
        assert_ne!(s1.generate().raw(), s2.generate().raw());
    }

    #[test]
    fn vectors_are_normalized_for_angular() {
        let ds = DatasetSpec::tiny(DatasetKind::GeoRadius).generate();
        for v in ds.iter() {
            let n = norm(v);
            assert!((n - 1.0).abs() < 1e-4 || n == 0.0, "norm {n}");
        }
    }

    #[test]
    fn shapes_match_spec() {
        let spec =
            DatasetSpec { kind: DatasetKind::ArxivTitles, n: 100, dim: 12, n_queries: 7, seed: 5 };
        let ds = spec.generate();
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.dim(), 12);
        assert_eq!(ds.n_queries(), 7);
        assert_eq!(ds.vector(99).len(), 12);
        assert_eq!(ds.query(6).len(), 12);
    }

    #[test]
    fn keyword_match_has_lower_dim_correlation_than_glove() {
        // The paper attributes Keyword-match's difficulty to low correlation
        // between dimensions; verify our generators preserve that ordering.
        fn mean_abs_offdiag_corr(ds: &Dataset) -> f64 {
            let d = ds.dim().min(16);
            let n = ds.len();
            let mut means = vec![0.0f64; d];
            for v in ds.iter() {
                for j in 0..d {
                    means[j] += v[j] as f64;
                }
            }
            for m in means.iter_mut() {
                *m /= n as f64;
            }
            let mut cov = vec![0.0f64; d * d];
            for v in ds.iter() {
                for a in 0..d {
                    for b in 0..d {
                        cov[a * d + b] += (v[a] as f64 - means[a]) * (v[b] as f64 - means[b]);
                    }
                }
            }
            let mut acc = 0.0;
            let mut cnt = 0;
            for a in 0..d {
                for b in 0..d {
                    if a != b {
                        let r = cov[a * d + b] / (cov[a * d + a].sqrt() * cov[b * d + b].sqrt());
                        acc += r.abs();
                        cnt += 1;
                    }
                }
            }
            acc / cnt as f64
        }
        let glove = DatasetSpec { n: 2000, ..DatasetSpec::tiny(DatasetKind::Glove) }.generate();
        let kw = DatasetSpec { n: 2000, ..DatasetSpec::tiny(DatasetKind::KeywordMatch) }.generate();
        assert!(
            mean_abs_offdiag_corr(&kw) < mean_abs_offdiag_corr(&glove),
            "keyword-match should have lower inter-dimension correlation"
        );
    }

    #[test]
    fn stored_norms_match_recomputation_bitwise() {
        let ds = DatasetSpec::tiny(DatasetKind::Glove).generate();
        assert_eq!(ds.stored_norms().len(), ds.len());
        for i in 0..ds.len() {
            assert_eq!(ds.stored_norm(i).to_bits(), norm(ds.vector(i)).to_bits());
        }
    }

    #[test]
    fn main_three_matches_table_iii() {
        let names: Vec<_> = DatasetKind::main_three().iter().map(|k| k.name()).collect();
        assert_eq!(names, vec!["GloVe", "Keyword-match", "Geo-radius"]);
    }
}
