//! Runtime-dispatched distance kernels.
//!
//! Every distance in the workspace is computed by a [`Kernel`]: a portable
//! scalar implementation, an AVX2 implementation selected at runtime via
//! `is_x86_feature_detected!`, and (behind the off-by-default `avx512` cargo
//! feature) an AVX-512 variant. [`active`] picks the best kernel the host
//! supports once per process; setting the `VDTUNER_FORCE_SCALAR` environment
//! variable to anything but `0`/empty pins the scalar path for A/B testing.
//!
//! # Determinism contract
//!
//! All kernels are **bit-identical** to the scalar reference for every input
//! (a NaN result is NaN on every kernel; which payload survives `NaN + NaN`
//! follows operand order, which no compiler promises, and nothing reads it):
//!
//! * f32 reductions ([`Kernel::dot`], [`Kernel::l2_sq`], [`Kernel::dot3`])
//!   use the workspace's fixed 8-lane reduction order — per chunk of 8 the
//!   lane accumulators take `acc[lane] += f(a[off+lane], b[off+lane])`
//!   (multiply **then** add, never FMA-contracted), the 8 lane sums are then
//!   folded left-to-right, and the tail is folded sequentially. The AVX2
//!   kernel maps each lane accumulator onto one vector lane
//!   (`_mm256_mul_ps` + `_mm256_add_ps`, no `fmadd`), so its per-lane add
//!   order is exactly the scalar loop's.
//! * The f32 block forms ([`Kernel::l2_sq_block`], [`Kernel::dot_block`])
//!   return, per row, exactly the pairwise result. The AVX2 kernel scores
//!   **eight rows per pass**: each row keeps its own lane accumulator, one
//!   8×8 register transpose turns the eight accumulators into eight lane
//!   vectors, and the left-to-right lane fold runs as eight vector adds —
//!   lane `j` of add `i` is row `j`'s `((0 + a0) + a1) + …`. The `dim % 8`
//!   tails of the eight rows are transposed the same way and added in index
//!   order after the fold; the `rows % 8` leftover rows take the pairwise
//!   body. A block call is therefore worth making over many rows — the
//!   k-means family passes a centroid as the query and points as the block
//!   (`l2_sq` is bitwise symmetric).
//! * The SQ8 asymmetric distance ([`Kernel::sq8_l2`]) replicates the legacy
//!   *single sequential accumulator*: the SIMD variant vectorizes the
//!   elementwise dequantize/diff/square work but folds the squared terms
//!   into one accumulator in index order.
//! * The AVX-512 variant keeps the same single 8-lane accumulator chain
//!   (512-bit loads are split into two sequential 256-bit halves), which is
//!   why it is only a modest win and is gated off by default. Its block
//!   forms are the AVX2 eight-row bodies.
//!
//! This is what lets dispatched SIMD, forced-scalar, and the pre-kernel
//! legacy loops produce byte-identical tuning histories (see
//! `tests/kernel_history_regression.rs` at the workspace root).
//!
//! # Fast tier
//!
//! Beside the bit-exact tier sits an **opt-in fast tier**, selected by
//! [`KernelPolicy::Fast`] (env override `VDTUNER_KERNEL=fast`, mirroring
//! `VDTUNER_FORCE_SCALAR`). Fast kernels trade the fixed reduction order for
//! throughput: FMA-contracted multi-accumulator f32 reductions, gather-based
//! (`vpgatherdd`) PQ ADC block scoring for 8-bit codes, shuffle-based
//! (`vpshufb`) 16-entry LUT scoring for packed 4-bit codes, a two-level
//! `u16`-quantized 256-entry shuffle scorer for 8-bit codes
//! ([`Kernel::adc8_lut256_block`], with the gather path kept as the f32
//! fallback), and a symmetric int8 scan (AVX-512 VNNI `vpdpbusd` behind the
//! `avx512` feature). Their contract is weaker but still testable:
//!
//! * f32 reductions are within a bounded relative error of the exact tier
//!   (proptested in `crates/vecdata/tests/fast_tier_bounds.rs`);
//! * the integer paths ([`Kernel::adc4_lut16_block`],
//!   [`Kernel::adc8_lut256_block`], [`Kernel::sq8_sym_l2_block`]) are
//!   **integer-exact**: every fast implementation returns the same integers
//!   as the scalar reference;
//! * each kernel is deterministic — same inputs, same bits — on 1 or N
//!   threads; only *cross-implementation* identity is relinquished.
//!
//! The default policy is [`KernelPolicy::Exact`]; nothing in the tuning
//! pipeline changes unless the fast tier is explicitly requested.
//!
//! Slice-length mismatches are a **hard assert** at this boundary (release
//! builds included): the legacy free functions silently truncated to the
//! shorter slice, masking dimension bugs.

use std::sync::OnceLock;

/// A distance-kernel implementation.
///
/// The checked entry points (`dot`, `l2_sq`, …) validate slice lengths and
/// forward to the `*_raw` hooks; implementors only provide the raw hooks.
/// Block methods score one query against a contiguous row-major block of
/// `block.len() / dim` vectors, appending one score per row to `out` (which
/// is cleared first) in row order.
pub trait Kernel: Send + Sync {
    /// Implementation name (`"scalar"`, `"avx2"`, `"avx512"`).
    fn name(&self) -> &'static str;

    /// Raw dot product; lengths already validated equal.
    fn dot_raw(&self, a: &[f32], b: &[f32]) -> f32;
    /// Raw squared L2 distance; lengths already validated equal.
    fn l2_sq_raw(&self, a: &[f32], b: &[f32]) -> f32;
    /// Raw fused one-pass `[a·a, b·b, a·b]`; lengths already validated.
    fn dot3_raw(&self, a: &[f32], b: &[f32]) -> [f32; 3];
    /// Raw SQ8 asymmetric squared L2 (f32 query vs u8 code with per-dim
    /// affine dequantization); lengths already validated.
    fn sq8_l2_raw(&self, query: &[f32], code: &[u8], mins: &[f32], scales: &[f32]) -> f32;
    /// Raw block scoring: squared L2 of `query` vs each row of `block`.
    fn l2_sq_block_raw(&self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>);
    /// Raw block scoring: dot product of `query` vs each row of `block`.
    fn dot_block_raw(&self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>);
    /// Raw block scoring: SQ8 asymmetric squared L2 of `query` vs each
    /// `dim`-byte code row of `codes`.
    fn sq8_l2_block_raw(
        &self,
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        scales: &[f32],
        dim: usize,
        out: &mut Vec<f32>,
    );

    /// Raw PQ ADC block scoring: for each `m`-byte code row, sum the `m`
    /// table entries `table[s * ksub + row[s]]`. The default body is the
    /// sequential scalar gather loop (bit-identical to the historical
    /// `adc_distance` loop); fast kernels override it with `vpgatherdd`
    /// when `ksub == 256`.
    fn adc_block_raw(
        &self,
        table: &[f32],
        ksub: usize,
        codes: &[u8],
        m: usize,
        out: &mut Vec<f32>,
    ) {
        scalar::adc_block(table, ksub, codes, m, out);
    }

    /// Raw 4-bit packed-LUT ADC block scoring over the [`pack_codes4`]
    /// layout: per candidate, the integer sum of `m` quantized `u8` LUT
    /// entries (`luts` is `m × 16`). Integer-exact across implementations;
    /// fast kernels override the default scalar body with `vpshufb`.
    fn adc4_lut16_block_raw(
        &self,
        luts: &[u8],
        packed: &[u8],
        m: usize,
        n: usize,
        out: &mut Vec<u32>,
    ) {
        scalar::adc4_lut16_block(luts, packed, m, n, out);
    }

    /// Raw 8-bit packed-LUT ADC block scoring over the [`pack_codes8`]
    /// layout: per candidate, the integer sum of `m` `u16` LUT entries,
    /// each stored as two byte planes (`luts` is `m × 512`: per subspace,
    /// 256 low bytes then 256 high bytes; the entry value is
    /// `lo + 256 · hi`). Integer-exact across implementations; fast
    /// kernels override the default scalar body with a two-level
    /// `vpshufb` sweep (16 compare-masked 16-entry chunks per plane).
    fn adc8_lut256_block_raw(
        &self,
        luts: &[u8],
        packed: &[u8],
        m: usize,
        n: usize,
        out: &mut Vec<u32>,
    ) {
        scalar::adc8_lut256_block(luts, packed, m, n, out);
    }

    /// Raw symmetric SQ8 scan: integer squared L2 `Σ (qcode[d] − row[d])²`
    /// per `dim`-byte code row, both sides quantized. Integer-exact across
    /// implementations; fast kernels override with `vpmaddwd` (AVX2) or
    /// `vpdpbusd` (AVX-512 VNNI).
    fn sq8_sym_l2_block_raw(&self, qcode: &[u8], codes: &[u8], dim: usize, out: &mut Vec<u32>) {
        scalar::sq8_sym_l2_block(qcode, codes, dim, out);
    }

    /// Dot product of two equally sized slices.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        check_pair("dot", a.len(), b.len());
        self.dot_raw(a, b)
    }

    /// Squared L2 distance of two equally sized slices.
    fn l2_sq(&self, a: &[f32], b: &[f32]) -> f32 {
        check_pair("l2_sq", a.len(), b.len());
        self.l2_sq_raw(a, b)
    }

    /// Fused one-pass `[a·a, b·b, a·b]`, each sum bit-identical to the
    /// corresponding [`Kernel::dot`] call.
    fn dot3(&self, a: &[f32], b: &[f32]) -> [f32; 3] {
        check_pair("dot3", a.len(), b.len());
        self.dot3_raw(a, b)
    }

    /// SQ8 asymmetric squared L2 between a raw query and a quantized code.
    fn sq8_l2(&self, query: &[f32], code: &[u8], mins: &[f32], scales: &[f32]) -> f32 {
        check_sq8("sq8_l2", query.len(), code.len(), mins.len(), scales.len());
        self.sq8_l2_raw(query, code, mins, scales)
    }

    /// Squared L2 of `query` vs every `dim`-dim row of the contiguous
    /// row-major `block`, one score per row appended to `out` in row order.
    fn l2_sq_block(&self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        check_block("l2_sq_block", query.len(), block.len(), dim);
        out.clear();
        out.reserve(block.len() / dim);
        self.l2_sq_block_raw(query, block, dim, out);
    }

    /// Dot product of `query` vs every row of `block` (see
    /// [`Kernel::l2_sq_block`]).
    fn dot_block(&self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        check_block("dot_block", query.len(), block.len(), dim);
        out.clear();
        out.reserve(block.len() / dim);
        self.dot_block_raw(query, block, dim, out);
    }

    /// SQ8 asymmetric squared L2 of `query` vs every `dim`-byte code row of
    /// `codes` (see [`Kernel::l2_sq_block`]).
    fn sq8_l2_block(
        &self,
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        scales: &[f32],
        dim: usize,
        out: &mut Vec<f32>,
    ) {
        assert!(dim > 0, "kernel sq8_l2_block: dim must be positive");
        check_sq8("sq8_l2_block", query.len(), dim, mins.len(), scales.len());
        assert!(
            codes.len().is_multiple_of(dim),
            "kernel sq8_l2_block: codes length {} is not a multiple of dim {dim}",
            codes.len()
        );
        out.clear();
        out.reserve(codes.len() / dim);
        self.sq8_l2_block_raw(query, codes, mins, scales, dim, out);
    }

    /// PQ ADC block scoring of `codes.len() / m` code rows against a
    /// per-query `m × ksub` ADC table, one distance per row appended to
    /// `out` (cleared first) in row order.
    fn adc_block(&self, table: &[f32], ksub: usize, codes: &[u8], m: usize, out: &mut Vec<f32>) {
        assert!(m > 0 && ksub > 0, "kernel adc_block: m and ksub must be positive");
        assert!(
            table.len() == m * ksub,
            "kernel adc_block: table length {} != m {m} * ksub {ksub}",
            table.len()
        );
        assert!(
            codes.len().is_multiple_of(m),
            "kernel adc_block: codes length {} is not a multiple of m {m}",
            codes.len()
        );
        out.clear();
        out.reserve(codes.len() / m);
        self.adc_block_raw(table, ksub, codes, m, out);
    }

    /// 4-bit packed-LUT ADC block scoring of `n` candidates (packed with
    /// [`pack_codes4`]) against `m` 16-entry quantized LUTs, one integer sum
    /// per candidate appended to `out` (cleared first) in candidate order.
    /// `m` is capped at 256 so the `u16` SIMD accumulators cannot overflow.
    fn adc4_lut16_block(&self, luts: &[u8], packed: &[u8], m: usize, n: usize, out: &mut Vec<u32>) {
        assert!(
            m > 0 && m <= 256,
            "kernel adc4_lut16_block: m {m} outside 1..=256 (u16 accumulators)"
        );
        assert!(
            luts.len() == m * 16,
            "kernel adc4_lut16_block: luts length {} != m {m} * 16",
            luts.len()
        );
        assert!(
            packed.len() == packed4_len(m, n),
            "kernel adc4_lut16_block: packed length {} != packed4_len({m}, {n}) = {}",
            packed.len(),
            packed4_len(m, n)
        );
        out.clear();
        out.reserve(n);
        self.adc4_lut16_block_raw(luts, packed, m, n, out);
    }

    /// 8-bit packed-LUT ADC block scoring of `n` candidates (packed with
    /// [`pack_codes8`]) against `m` 256-entry two-plane `u16` LUTs, one
    /// integer sum per candidate appended to `out` (cleared first) in
    /// candidate order. `m` is capped at 256 so each byte plane's `u16`
    /// SIMD accumulators cannot overflow (`256 · 255 < 2¹⁶`).
    fn adc8_lut256_block(
        &self,
        luts: &[u8],
        packed: &[u8],
        m: usize,
        n: usize,
        out: &mut Vec<u32>,
    ) {
        assert!(
            m > 0 && m <= 256,
            "kernel adc8_lut256_block: m {m} outside 1..=256 (u16 plane accumulators)"
        );
        assert!(
            luts.len() == m * 512,
            "kernel adc8_lut256_block: luts length {} != m {m} * 512",
            luts.len()
        );
        assert!(
            packed.len() == packed8_len(m, n),
            "kernel adc8_lut256_block: packed length {} != packed8_len({m}, {n}) = {}",
            packed.len(),
            packed8_len(m, n)
        );
        out.clear();
        out.reserve(n);
        self.adc8_lut256_block_raw(luts, packed, m, n, out);
    }

    /// Symmetric SQ8 scan: integer squared L2 of a quantized query against
    /// every `dim`-byte code row, one sum per row appended to `out`
    /// (cleared first) in row order.
    fn sq8_sym_l2_block(&self, qcode: &[u8], codes: &[u8], dim: usize, out: &mut Vec<u32>) {
        assert!(dim > 0, "kernel sq8_sym_l2_block: dim must be positive");
        assert!(dim <= 66051, "kernel sq8_sym_l2_block: dim {dim} would overflow u32 accumulation");
        assert!(
            qcode.len() == dim,
            "kernel sq8_sym_l2_block: qcode length {} != dim {dim}",
            qcode.len()
        );
        assert!(
            codes.len().is_multiple_of(dim),
            "kernel sq8_sym_l2_block: codes length {} is not a multiple of dim {dim}",
            codes.len()
        );
        out.clear();
        out.reserve(codes.len() / dim);
        self.sq8_sym_l2_block_raw(qcode, codes, dim, out);
    }
}

/// Bytes [`pack_codes4`] produces for `n` candidates of `m` subspaces:
/// candidates are padded to whole batches of 32, each batch storing `m`
/// groups of 16 nibble-packed bytes.
pub fn packed4_len(m: usize, n: usize) -> usize {
    n.div_ceil(32) * m * 16
}

/// Pack 4-bit PQ codes (`codes.len() / m` rows of `m` bytes, each `< 16`)
/// into the interleaved layout the shuffle-LUT kernel consumes: candidates
/// are grouped in batches of 32; within a batch, subspace `s` owns 16
/// consecutive bytes where byte `j` holds candidate `j`'s code in the low
/// nibble and candidate `16 + j`'s code in the high nibble. Padding
/// candidates (to fill the last batch) are encoded as code 0 and simply
/// never read back.
pub fn pack_codes4(codes: &[u8], m: usize) -> Vec<u8> {
    assert!(m > 0, "pack_codes4: m must be positive");
    assert!(
        codes.len().is_multiple_of(m),
        "pack_codes4: codes length {} is not a multiple of m {m}",
        codes.len()
    );
    let n = codes.len() / m;
    let mut packed = vec![0u8; packed4_len(m, n)];
    for i in 0..n {
        let batch = i / 32;
        let j = i % 32;
        let (byte_idx, shift) = if j < 16 { (j, 0) } else { (j - 16, 4) };
        for s in 0..m {
            let c = codes[i * m + s];
            assert!(c < 16, "pack_codes4: code {c} at row {i} subspace {s} exceeds 4 bits");
            packed[batch * m * 16 + s * 16 + byte_idx] |= c << shift;
        }
    }
    packed
}

/// Bytes [`pack_codes8`] produces for `n` candidates of `m` subspaces:
/// candidates are padded to whole batches of 32, each batch storing `m`
/// groups of 32 full code bytes.
pub fn packed8_len(m: usize, n: usize) -> usize {
    n.div_ceil(32) * m * 32
}

/// Pack 8-bit PQ codes (`codes.len() / m` rows of `m` bytes) into the
/// batch-of-32, subspace-major layout the two-level shuffle-LUT kernel
/// consumes: within a batch, subspace `s` owns 32 consecutive bytes where
/// byte `j` is candidate `j`'s full code. Padding candidates (to fill the
/// last batch) are encoded as code 0 and simply never read back.
pub fn pack_codes8(codes: &[u8], m: usize) -> Vec<u8> {
    assert!(m > 0, "pack_codes8: m must be positive");
    assert!(
        codes.len().is_multiple_of(m),
        "pack_codes8: codes length {} is not a multiple of m {m}",
        codes.len()
    );
    let n = codes.len() / m;
    let mut packed = vec![0u8; packed8_len(m, n)];
    for i in 0..n {
        let batch = i / 32;
        let j = i % 32;
        for s in 0..m {
            packed[batch * m * 32 + s * 32 + j] = codes[i * m + s];
        }
    }
    packed
}

#[inline]
fn check_pair(op: &str, a: usize, b: usize) {
    assert!(a == b, "kernel {op}: slice length mismatch ({a} vs {b})");
}

#[inline]
fn check_sq8(op: &str, query: usize, code: usize, mins: usize, scales: usize) {
    assert!(
        query == code && query == mins && query == scales,
        "kernel {op}: length mismatch (query {query}, code rows of {code}, \
         mins {mins}, scales {scales})"
    );
}

#[inline]
fn check_block(op: &str, query: usize, block: usize, dim: usize) {
    assert!(dim > 0, "kernel {op}: dim must be positive");
    assert!(query == dim, "kernel {op}: query length {query} != dim {dim}");
    assert!(
        block.is_multiple_of(dim),
        "kernel {op}: block length {block} is not a multiple of dim {dim}"
    );
}

// ---------------------------------------------------------------------------
// Scalar reference kernel
// ---------------------------------------------------------------------------

/// Portable scalar kernel: the bit-exact reference every SIMD kernel must
/// reproduce. Its loops are the workspace's original fixed-order reductions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarKernel;

/// The scalar kernel as a static, usable as a `&'static dyn Kernel`.
pub static SCALAR: ScalarKernel = ScalarKernel;

pub(crate) mod scalar {
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let mut acc = [0.0f32; 8];
        let chunks = n / 8;
        for i in 0..chunks {
            let off = i * 8;
            for lane in 0..8 {
                acc[lane] += a[off + lane] * b[off + lane];
            }
        }
        let mut sum: f32 = acc.iter().sum();
        for i in chunks * 8..n {
            sum += a[i] * b[i];
        }
        sum
    }

    pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let mut acc = [0.0f32; 8];
        let chunks = n / 8;
        for i in 0..chunks {
            let off = i * 8;
            for lane in 0..8 {
                let d = a[off + lane] - b[off + lane];
                acc[lane] += d * d;
            }
        }
        let mut sum: f32 = acc.iter().sum();
        for i in chunks * 8..n {
            let d = a[i] - b[i];
            sum += d * d;
        }
        sum
    }

    pub fn dot3(a: &[f32], b: &[f32]) -> [f32; 3] {
        let n = a.len();
        let mut aa = [0.0f32; 8];
        let mut bb = [0.0f32; 8];
        let mut ab = [0.0f32; 8];
        let chunks = n / 8;
        for i in 0..chunks {
            let off = i * 8;
            for lane in 0..8 {
                let x = a[off + lane];
                let y = b[off + lane];
                aa[lane] += x * x;
                bb[lane] += y * y;
                ab[lane] += x * y;
            }
        }
        let mut saa: f32 = aa.iter().sum();
        let mut sbb: f32 = bb.iter().sum();
        let mut sab: f32 = ab.iter().sum();
        for i in chunks * 8..n {
            saa += a[i] * a[i];
            sbb += b[i] * b[i];
            sab += a[i] * b[i];
        }
        [saa, sbb, sab]
    }

    /// The legacy SQ8 asymmetric distance: one sequential accumulator in
    /// index order (deliberately *not* the 8-lane order — this is what
    /// `ScalarQuantizer::asymmetric_l2` has always computed).
    pub fn sq8_l2(query: &[f32], code: &[u8], mins: &[f32], scales: &[f32]) -> f32 {
        let mut acc = 0.0f32;
        for d in 0..query.len() {
            let x = mins[d] + code[d] as f32 * scales[d];
            let diff = query[d] - x;
            acc += diff * diff;
        }
        acc
    }

    /// Reference ADC block scoring: the historical per-row `adc_distance`
    /// gather loop (sequential sum over subspaces).
    pub fn adc_block(table: &[f32], ksub: usize, codes: &[u8], m: usize, out: &mut Vec<f32>) {
        for row in codes.chunks_exact(m) {
            let mut acc = 0.0f32;
            for (s, &c) in row.iter().enumerate() {
                acc += table[s * ksub + c as usize];
            }
            out.push(acc);
        }
    }

    /// Reference 4-bit packed-LUT scoring over the [`super::pack_codes4`]
    /// layout. Integer sums — every implementation must match it exactly.
    pub fn adc4_lut16_block(luts: &[u8], packed: &[u8], m: usize, n: usize, out: &mut Vec<u32>) {
        for batch in 0..n.div_ceil(32) {
            let base = batch * m * 16;
            let cands = (n - batch * 32).min(32);
            for j in 0..cands {
                let (byte_idx, shift) = if j < 16 { (j, 0) } else { (j - 16, 4) };
                let mut sum = 0u32;
                for s in 0..m {
                    let nib = (packed[base + s * 16 + byte_idx] >> shift) & 0x0F;
                    sum += luts[s * 16 + nib as usize] as u32;
                }
                out.push(sum);
            }
        }
    }

    /// Reference 8-bit two-plane packed-LUT scoring over the
    /// [`super::pack_codes8`] layout: per candidate, `Σ (lo + 256 · hi)`
    /// across subspaces. Integer sums — every implementation must match it
    /// exactly.
    pub fn adc8_lut256_block(luts: &[u8], packed: &[u8], m: usize, n: usize, out: &mut Vec<u32>) {
        for batch in 0..n.div_ceil(32) {
            let base = batch * m * 32;
            let cands = (n - batch * 32).min(32);
            for j in 0..cands {
                let mut sum = 0u32;
                for s in 0..m {
                    let c = packed[base + s * 32 + j] as usize;
                    let lo = luts[s * 512 + c] as u32;
                    let hi = luts[s * 512 + 256 + c] as u32;
                    sum += lo + 256 * hi;
                }
                out.push(sum);
            }
        }
    }

    /// Reference symmetric SQ8 scan: integer `Σ (q − c)²` per row. Integer
    /// sums — every implementation must match it exactly.
    pub fn sq8_sym_l2_block(qcode: &[u8], codes: &[u8], dim: usize, out: &mut Vec<u32>) {
        for row in codes.chunks_exact(dim) {
            let mut sum = 0u32;
            for d in 0..dim {
                let diff = qcode[d] as i32 - row[d] as i32;
                sum += (diff * diff) as u32;
            }
            out.push(sum);
        }
    }
}

impl Kernel for ScalarKernel {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn dot_raw(&self, a: &[f32], b: &[f32]) -> f32 {
        scalar::dot(a, b)
    }

    fn l2_sq_raw(&self, a: &[f32], b: &[f32]) -> f32 {
        scalar::l2_sq(a, b)
    }

    fn dot3_raw(&self, a: &[f32], b: &[f32]) -> [f32; 3] {
        scalar::dot3(a, b)
    }

    fn sq8_l2_raw(&self, query: &[f32], code: &[u8], mins: &[f32], scales: &[f32]) -> f32 {
        scalar::sq8_l2(query, code, mins, scales)
    }

    fn l2_sq_block_raw(&self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        for row in block.chunks_exact(dim) {
            out.push(scalar::l2_sq(query, row));
        }
    }

    fn dot_block_raw(&self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        for row in block.chunks_exact(dim) {
            out.push(scalar::dot(query, row));
        }
    }

    fn sq8_l2_block_raw(
        &self,
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        scales: &[f32],
        dim: usize,
        out: &mut Vec<f32>,
    ) {
        for row in codes.chunks_exact(dim) {
            out.push(scalar::sq8_l2(query, row, mins, scales));
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 kernel (x86_64, runtime-detected)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 bodies. Every function requires the `avx2` target feature; the
    //! only safe entry is through [`super::Avx2Kernel`], whose constructor
    //! verifies detection.
    use std::arch::x86_64::*;

    /// Fold a 256-bit lane accumulator exactly like `acc.iter().sum()` over
    /// the scalar `[f32; 8]`: left-to-right, starting from 0.0.
    ///
    /// # Safety
    /// Requires avx2; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2")]
    unsafe fn lane_sum(acc: __m256) -> f32 {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        lanes.iter().sum()
    }

    /// # Safety
    /// Requires avx2; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for i in 0..chunks {
            let off = i * 8;
            let va = _mm256_loadu_ps(a.as_ptr().add(off));
            let vb = _mm256_loadu_ps(b.as_ptr().add(off));
            // mul then add: bit-identical to `acc[lane] += a*b` (no FMA).
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        }
        let mut sum = lane_sum(acc);
        for i in chunks * 8..n {
            sum += a[i] * b[i];
        }
        sum
    }

    /// # Safety
    /// Requires avx2; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2")]
    pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for i in 0..chunks {
            let off = i * 8;
            let va = _mm256_loadu_ps(a.as_ptr().add(off));
            let vb = _mm256_loadu_ps(b.as_ptr().add(off));
            let d = _mm256_sub_ps(va, vb);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        }
        let mut sum = lane_sum(acc);
        for i in chunks * 8..n {
            let d = a[i] - b[i];
            sum += d * d;
        }
        sum
    }

    /// # Safety
    /// Requires avx2; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot3(a: &[f32], b: &[f32]) -> [f32; 3] {
        let n = a.len();
        let chunks = n / 8;
        let mut aa = _mm256_setzero_ps();
        let mut bb = _mm256_setzero_ps();
        let mut ab = _mm256_setzero_ps();
        for i in 0..chunks {
            let off = i * 8;
            let va = _mm256_loadu_ps(a.as_ptr().add(off));
            let vb = _mm256_loadu_ps(b.as_ptr().add(off));
            aa = _mm256_add_ps(aa, _mm256_mul_ps(va, va));
            bb = _mm256_add_ps(bb, _mm256_mul_ps(vb, vb));
            ab = _mm256_add_ps(ab, _mm256_mul_ps(va, vb));
        }
        let mut saa = lane_sum(aa);
        let mut sbb = lane_sum(bb);
        let mut sab = lane_sum(ab);
        for i in chunks * 8..n {
            saa += a[i] * a[i];
            sbb += b[i] * b[i];
            sab += a[i] * b[i];
        }
        [saa, sbb, sab]
    }

    /// SQ8 asymmetric L2: the convert/dequantize/diff/square work is
    /// vectorized, but the 8 squared terms of each chunk are folded into the
    /// single accumulator sequentially in index order — bit-identical to the
    /// legacy sequential loop.
    ///
    /// # Safety
    /// Requires avx2; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq8_l2(query: &[f32], code: &[u8], mins: &[f32], scales: &[f32]) -> f32 {
        let n = query.len();
        let chunks = n / 8;
        let mut sum = 0.0f32;
        let mut sq = [0.0f32; 8];
        for i in 0..chunks {
            let off = i * 8;
            // Zero-extend 8 code bytes to i32, convert to f32 (both exact).
            let c8 = _mm_loadl_epi64(code.as_ptr().add(off) as *const __m128i);
            let cf = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(c8));
            let mn = _mm256_loadu_ps(mins.as_ptr().add(off));
            let sc = _mm256_loadu_ps(scales.as_ptr().add(off));
            // x = min + code * scale: mul then add, like the scalar loop.
            let x = _mm256_add_ps(mn, _mm256_mul_ps(cf, sc));
            let q = _mm256_loadu_ps(query.as_ptr().add(off));
            let d = _mm256_sub_ps(q, x);
            _mm256_storeu_ps(sq.as_mut_ptr(), _mm256_mul_ps(d, d));
            for &v in &sq {
                sum += v;
            }
        }
        for d in chunks * 8..n {
            let x = mins[d] + code[d] as f32 * scales[d];
            let diff = query[d] - x;
            sum += diff * diff;
        }
        sum
    }

    /// Transpose an 8×8 tile: lane `j` of output `i` is lane `i` of input `j`.
    #[target_feature(enable = "avx2")]
    fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let a0 = _mm256_unpacklo_ps(r[0], r[1]);
        let a1 = _mm256_unpackhi_ps(r[0], r[1]);
        let a2 = _mm256_unpacklo_ps(r[2], r[3]);
        let a3 = _mm256_unpackhi_ps(r[2], r[3]);
        let a4 = _mm256_unpacklo_ps(r[4], r[5]);
        let a5 = _mm256_unpackhi_ps(r[4], r[5]);
        let a6 = _mm256_unpacklo_ps(r[6], r[7]);
        let a7 = _mm256_unpackhi_ps(r[6], r[7]);
        let b0 = _mm256_shuffle_ps::<0x44>(a0, a2);
        let b1 = _mm256_shuffle_ps::<0xEE>(a0, a2);
        let b2 = _mm256_shuffle_ps::<0x44>(a1, a3);
        let b3 = _mm256_shuffle_ps::<0xEE>(a1, a3);
        let b4 = _mm256_shuffle_ps::<0x44>(a4, a6);
        let b5 = _mm256_shuffle_ps::<0xEE>(a4, a6);
        let b6 = _mm256_shuffle_ps::<0x44>(a5, a7);
        let b7 = _mm256_shuffle_ps::<0xEE>(a5, a7);
        [
            _mm256_permute2f128_ps::<0x20>(b0, b4),
            _mm256_permute2f128_ps::<0x20>(b1, b5),
            _mm256_permute2f128_ps::<0x20>(b2, b6),
            _mm256_permute2f128_ps::<0x20>(b3, b7),
            _mm256_permute2f128_ps::<0x31>(b0, b4),
            _mm256_permute2f128_ps::<0x31>(b1, b5),
            _mm256_permute2f128_ps::<0x31>(b2, b6),
            _mm256_permute2f128_ps::<0x31>(b3, b7),
        ]
    }

    /// One term of the reduction, eight rows wide: `(q − x)²` or `q · x`,
    /// multiply then add like the scalar loop (never FMA).
    #[target_feature(enable = "avx2")]
    fn term<const L2: bool>(q: __m256, x: __m256) -> __m256 {
        if L2 {
            let d = _mm256_sub_ps(q, x);
            _mm256_mul_ps(d, d)
        } else {
            _mm256_mul_ps(q, x)
        }
    }

    /// Block scoring, eight rows per pass (`L2`: squared L2, else dot).
    /// Each row keeps its own 8-lane accumulator over the full chunks; one
    /// transpose turns the eight accumulators into eight lane vectors, whose
    /// left-to-right sum holds, in lane `j`, row `j`'s `((0 + a0) + a1) + …`
    /// — the scalar fold. The `dim % 8` tail is transposed the same way
    /// (masked loads never touch memory past a row's end) and added in index
    /// order after the fold. The `rows % 8` leftover rows go through the
    /// per-row bodies.
    ///
    /// # Safety
    /// Requires avx2; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2")]
    pub unsafe fn score_block<const L2: bool>(
        query: &[f32],
        block: &[f32],
        dim: usize,
        out: &mut Vec<f32>,
    ) {
        let chunks = dim / 8;
        // Every pointer read below stays inside `query[..dim]` or one
        // `8 * dim` group, whatever lengths the caller passed.
        let (q_chunks, q_tail) = query[..dim].split_at(chunks * 8);
        let tail_mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(q_tail.len() as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let mut groups = block.chunks_exact(8 * dim);
        for group in &mut groups {
            let rows = group.as_ptr();
            let mut sums = _mm256_setzero_ps();
            if chunks > 0 {
                let mut acc = [_mm256_setzero_ps(); 8];
                for c in 0..chunks {
                    let q = _mm256_loadu_ps(q_chunks.as_ptr().add(c * 8));
                    for (r, a) in acc.iter_mut().enumerate() {
                        let x = _mm256_loadu_ps(rows.add(r * dim + c * 8));
                        *a = _mm256_add_ps(*a, term::<L2>(q, x));
                    }
                }
                for lane in transpose8(acc) {
                    sums = _mm256_add_ps(sums, lane);
                }
            }
            if !q_tail.is_empty() {
                let mut tails = [_mm256_setzero_ps(); 8];
                for (r, t) in tails.iter_mut().enumerate() {
                    *t = _mm256_maskload_ps(rows.add(r * dim + chunks * 8), tail_mask);
                }
                for (&q, col) in q_tail.iter().zip(transpose8(tails)) {
                    sums = _mm256_add_ps(sums, term::<L2>(_mm256_set1_ps(q), col));
                }
            }
            let mut scores = [0.0f32; 8];
            _mm256_storeu_ps(scores.as_mut_ptr(), sums);
            out.extend_from_slice(&scores);
        }
        for row in groups.remainder().chunks_exact(dim) {
            out.push(if L2 { l2_sq(query, row) } else { dot(query, row) });
        }
    }

    /// # Safety
    /// Requires avx2; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq8_l2_block(
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        scales: &[f32],
        dim: usize,
        out: &mut Vec<f32>,
    ) {
        for row in codes.chunks_exact(dim) {
            out.push(sq8_l2(query, row, mins, scales));
        }
    }
}

/// AVX2 kernel. Only constructible (via [`Avx2Kernel::new`]) on hosts where
/// `is_x86_feature_detected!("avx2")` holds, which is what makes calling the
/// `#[target_feature(enable = "avx2")]` bodies sound.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct Avx2Kernel {
    _guard: (),
}

#[cfg(target_arch = "x86_64")]
impl Avx2Kernel {
    /// The AVX2 kernel, or `None` when the CPU lacks AVX2.
    pub fn new() -> Option<Avx2Kernel> {
        if is_x86_feature_detected!("avx2") {
            Some(Avx2Kernel { _guard: () })
        } else {
            None
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl Kernel for Avx2Kernel {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn dot_raw(&self, a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: construction verified AVX2 support.
        unsafe { avx2::dot(a, b) }
    }

    fn l2_sq_raw(&self, a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: construction verified AVX2 support.
        unsafe { avx2::l2_sq(a, b) }
    }

    fn dot3_raw(&self, a: &[f32], b: &[f32]) -> [f32; 3] {
        // SAFETY: construction verified AVX2 support.
        unsafe { avx2::dot3(a, b) }
    }

    fn sq8_l2_raw(&self, query: &[f32], code: &[u8], mins: &[f32], scales: &[f32]) -> f32 {
        // SAFETY: construction verified AVX2 support.
        unsafe { avx2::sq8_l2(query, code, mins, scales) }
    }

    fn l2_sq_block_raw(&self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        // SAFETY: construction verified AVX2 support.
        unsafe { avx2::score_block::<true>(query, block, dim, out) }
    }

    fn dot_block_raw(&self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        // SAFETY: construction verified AVX2 support.
        unsafe { avx2::score_block::<false>(query, block, dim, out) }
    }

    fn sq8_l2_block_raw(
        &self,
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        scales: &[f32],
        dim: usize,
        out: &mut Vec<f32>,
    ) {
        // SAFETY: construction verified AVX2 support.
        unsafe { avx2::sq8_l2_block(query, codes, mins, scales, dim, out) }
    }
}

// ---------------------------------------------------------------------------
// Fast-tier AVX2 kernel (relaxed order, FMA, gather/shuffle ADC)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2_fast {
    //! Fast-tier AVX2 bodies. Every function requires `avx2` + `fma`; the
    //! only safe entry is through [`super::FastAvx2Kernel`], whose
    //! constructor verifies detection. Float reductions here use four
    //! independent FMA accumulator chains combined by a tree reduction —
    //! *not* the exact tier's fixed 8-lane fold — so results carry a small
    //! bounded rounding difference vs scalar. The integer bodies (`adc4`,
    //! `sq8_sym`) are exact: they return the same integers as the scalar
    //! reference, whatever the accumulation order.
    use std::arch::x86_64::*;

    /// Tree horizontal sum (relaxed order — fast tier only).
    ///
    /// # Safety
    /// Requires avx2,fma; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn hsum(v: __m256) -> f32 {
        let s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }

    /// # Safety
    /// Requires avx2,fma; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 32 <= n {
            let p = a.as_ptr().add(i);
            let q = b.as_ptr().add(i);
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(p), _mm256_loadu_ps(q), acc0);
            acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(p.add(8)), _mm256_loadu_ps(q.add(8)), acc1);
            acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(p.add(16)), _mm256_loadu_ps(q.add(16)), acc2);
            acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(p.add(24)), _mm256_loadu_ps(q.add(24)), acc3);
            i += 32;
        }
        while i + 8 <= n {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i));
            acc0 = _mm256_fmadd_ps(va, vb, acc0);
            i += 8;
        }
        let mut sum = hsum(_mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3)));
        while i < n {
            sum = a[i].mul_add(b[i], sum);
            i += 1;
        }
        sum
    }

    /// # Safety
    /// Requires avx2,fma; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 32 <= n {
            let p = a.as_ptr().add(i);
            let q = b.as_ptr().add(i);
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(p), _mm256_loadu_ps(q));
            let d1 = _mm256_sub_ps(_mm256_loadu_ps(p.add(8)), _mm256_loadu_ps(q.add(8)));
            let d2 = _mm256_sub_ps(_mm256_loadu_ps(p.add(16)), _mm256_loadu_ps(q.add(16)));
            let d3 = _mm256_sub_ps(_mm256_loadu_ps(p.add(24)), _mm256_loadu_ps(q.add(24)));
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            acc2 = _mm256_fmadd_ps(d2, d2, acc2);
            acc3 = _mm256_fmadd_ps(d3, d3, acc3);
            i += 32;
        }
        while i + 8 <= n {
            let d = _mm256_sub_ps(
                _mm256_loadu_ps(a.as_ptr().add(i)),
                _mm256_loadu_ps(b.as_ptr().add(i)),
            );
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let mut sum = hsum(_mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3)));
        while i < n {
            let d = a[i] - b[i];
            sum = d.mul_add(d, sum);
            i += 1;
        }
        sum
    }

    /// Fused `[a·a, b·b, a·b]`. Each component runs the *identical*
    /// accumulator structure as [`dot`], so `dot3(a, b)[2].to_bits() ==
    /// dot(a, b).to_bits()` (and likewise the norms vs `dot(a, a)`) — the
    /// invariant `distance::angular_with_norms` relies on holds within the
    /// fast tier too.
    ///
    /// # Safety
    /// Requires avx2,fma; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot3(a: &[f32], b: &[f32]) -> [f32; 3] {
        let n = a.len();
        let mut aa = [_mm256_setzero_ps(); 4];
        let mut bb = [_mm256_setzero_ps(); 4];
        let mut ab = [_mm256_setzero_ps(); 4];
        let mut i = 0usize;
        while i + 32 <= n {
            let p = a.as_ptr().add(i);
            let q = b.as_ptr().add(i);
            for c in 0..4 {
                let va = _mm256_loadu_ps(p.add(c * 8));
                let vb = _mm256_loadu_ps(q.add(c * 8));
                aa[c] = _mm256_fmadd_ps(va, va, aa[c]);
                bb[c] = _mm256_fmadd_ps(vb, vb, bb[c]);
                ab[c] = _mm256_fmadd_ps(va, vb, ab[c]);
            }
            i += 32;
        }
        while i + 8 <= n {
            let va = _mm256_loadu_ps(a.as_ptr().add(i));
            let vb = _mm256_loadu_ps(b.as_ptr().add(i));
            aa[0] = _mm256_fmadd_ps(va, va, aa[0]);
            bb[0] = _mm256_fmadd_ps(vb, vb, bb[0]);
            ab[0] = _mm256_fmadd_ps(va, vb, ab[0]);
            i += 8;
        }
        let fold = |acc: [__m256; 4]| {
            hsum(_mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), _mm256_add_ps(acc[2], acc[3])))
        };
        let mut saa = fold(aa);
        let mut sbb = fold(bb);
        let mut sab = fold(ab);
        while i < n {
            saa = a[i].mul_add(a[i], saa);
            sbb = b[i].mul_add(b[i], sbb);
            sab = a[i].mul_add(b[i], sab);
            i += 1;
        }
        [saa, sbb, sab]
    }

    /// Relaxed-order asymmetric SQ8: vectorized dequantize with FMA, two
    /// independent accumulator chains, tree reduction.
    ///
    /// # Safety
    /// Requires avx2,fma; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq8_l2(query: &[f32], code: &[u8], mins: &[f32], scales: &[f32]) -> f32 {
        let n = query.len();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 16 <= n {
            let c0 = _mm_loadl_epi64(code.as_ptr().add(i) as *const __m128i);
            let c1 = _mm_loadl_epi64(code.as_ptr().add(i + 8) as *const __m128i);
            let x0 = _mm256_fmadd_ps(
                _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(c0)),
                _mm256_loadu_ps(scales.as_ptr().add(i)),
                _mm256_loadu_ps(mins.as_ptr().add(i)),
            );
            let x1 = _mm256_fmadd_ps(
                _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(c1)),
                _mm256_loadu_ps(scales.as_ptr().add(i + 8)),
                _mm256_loadu_ps(mins.as_ptr().add(i + 8)),
            );
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(query.as_ptr().add(i)), x0);
            let d1 = _mm256_sub_ps(_mm256_loadu_ps(query.as_ptr().add(i + 8)), x1);
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            i += 16;
        }
        while i + 8 <= n {
            let c = _mm_loadl_epi64(code.as_ptr().add(i) as *const __m128i);
            let x = _mm256_fmadd_ps(
                _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(c)),
                _mm256_loadu_ps(scales.as_ptr().add(i)),
                _mm256_loadu_ps(mins.as_ptr().add(i)),
            );
            let d = _mm256_sub_ps(_mm256_loadu_ps(query.as_ptr().add(i)), x);
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let mut sum = hsum(_mm256_add_ps(acc0, acc1));
        while i < n {
            let x = (code[i] as f32).mul_add(scales[i], mins[i]);
            let d = query[i] - x;
            sum = d.mul_add(d, sum);
            i += 1;
        }
        sum
    }

    /// # Safety
    /// Requires avx2,fma; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn l2_sq_block(query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        for row in block.chunks_exact(dim) {
            out.push(l2_sq(query, row));
        }
    }

    /// # Safety
    /// Requires avx2,fma; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_block(query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        for row in block.chunks_exact(dim) {
            out.push(dot(query, row));
        }
    }

    /// # Safety
    /// Requires avx2,fma; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq8_l2_block(
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        scales: &[f32],
        dim: usize,
        out: &mut Vec<f32>,
    ) {
        for row in codes.chunks_exact(dim) {
            out.push(sq8_l2(query, row, mins, scales));
        }
    }

    /// Gather-based ADC block scoring, `ksub == 256` only: every `u8` code
    /// indexes in-bounds (`s * 256 + code < m * 256 == table.len()`), which
    /// is what makes the unchecked `vpgatherdd` sound for arbitrary codes.
    ///
    /// # Safety
    /// Requires avx2,fma; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn adc_block_k256(table: &[f32], codes: &[u8], m: usize, out: &mut Vec<f32>) {
        let lane_off = _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
        for row in codes.chunks_exact(m) {
            let mut acc = _mm256_setzero_ps();
            let mut s = 0usize;
            while s + 8 <= m {
                let c =
                    _mm256_cvtepu8_epi32(_mm_loadl_epi64(row.as_ptr().add(s) as *const __m128i));
                let idx = _mm256_add_epi32(
                    c,
                    _mm256_add_epi32(lane_off, _mm256_set1_epi32((s as i32) << 8)),
                );
                acc = _mm256_add_ps(acc, _mm256_i32gather_ps::<4>(table.as_ptr(), idx));
                s += 8;
            }
            let mut sum = hsum(acc);
            while s < m {
                sum += table[(s << 8) | row[s] as usize];
                s += 1;
            }
            out.push(sum);
        }
    }

    /// Shuffle-based 4-bit LUT scoring: 32 candidates per batch, one
    /// `vpshufb` per subspace resolving 32 lookups at once, `u16` lane
    /// accumulators (sound for `m <= 256`). Integer-exact vs scalar.
    ///
    /// # Safety
    /// Requires avx2,fma; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn adc4_lut16_block(
        luts: &[u8],
        packed: &[u8],
        m: usize,
        n: usize,
        out: &mut Vec<u32>,
    ) {
        out.resize(n, 0);
        let nib_mask = _mm_set1_epi8(0x0F);
        let zero = _mm256_setzero_si256();
        for batch in 0..n.div_ceil(32) {
            let base = batch * m * 16;
            // u16 accumulators; `unpack` interleaves within 128-bit lanes,
            // so lane -> candidate mapping is fixed and undone at store.
            let mut acc_lo = _mm256_setzero_si256();
            let mut acc_hi = _mm256_setzero_si256();
            for s in 0..m {
                let bytes = _mm_loadu_si128(packed.as_ptr().add(base + s * 16) as *const __m128i);
                let lut = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                    luts.as_ptr().add(s * 16) as *const __m128i
                ));
                let lo = _mm_and_si128(bytes, nib_mask);
                let hi = _mm_and_si128(_mm_srli_epi16(bytes, 4), nib_mask);
                let vals = _mm256_shuffle_epi8(lut, _mm256_set_m128i(hi, lo));
                acc_lo = _mm256_add_epi16(acc_lo, _mm256_unpacklo_epi8(vals, zero));
                acc_hi = _mm256_add_epi16(acc_hi, _mm256_unpackhi_epi8(vals, zero));
            }
            let cands = (n - batch * 32).min(32);
            if cands == 32 {
                // Full batch: undo the unpack interleave with four widening
                // stores (candidates j map to lo/hi accumulator halves).
                let dst = out.as_mut_ptr().add(batch * 32);
                let w = |half: __m128i| _mm256_cvtepu16_epi32(half);
                _mm256_storeu_si256(dst as *mut __m256i, w(_mm256_castsi256_si128(acc_lo)));
                _mm256_storeu_si256(dst.add(8) as *mut __m256i, w(_mm256_castsi256_si128(acc_hi)));
                _mm256_storeu_si256(
                    dst.add(16) as *mut __m256i,
                    w(_mm256_extracti128_si256::<1>(acc_lo)),
                );
                _mm256_storeu_si256(
                    dst.add(24) as *mut __m256i,
                    w(_mm256_extracti128_si256::<1>(acc_hi)),
                );
            } else {
                let mut lo16 = [0u16; 16];
                let mut hi16 = [0u16; 16];
                _mm256_storeu_si256(lo16.as_mut_ptr() as *mut __m256i, acc_lo);
                _mm256_storeu_si256(hi16.as_mut_ptr() as *mut __m256i, acc_hi);
                for j in 0..cands {
                    let v = match j {
                        0..=7 => lo16[j],
                        8..=15 => hi16[j - 8],
                        16..=23 => lo16[j - 8],
                        _ => hi16[j - 16],
                    };
                    out[batch * 32 + j] = v as u32;
                }
            }
        }
    }

    /// Two-level shuffle scoring for 8-bit codes: each subspace's 256-entry
    /// `u16` LUT is stored as two byte planes and swept as 16 compare-masked
    /// 16-entry `vpshufb` chunks — the `vpcmpeqb` mask forces bit 7 on
    /// non-matching lanes so their shuffles return zero, and exactly one
    /// chunk matches per candidate, so OR-combining the chunk results
    /// reassembles all 32 lookups. Byte planes accumulate in separate `u16`
    /// lane accumulators (sound for `m <= 256`); the final `u32` is
    /// `lo + 256 · hi`. Integer-exact vs scalar, and gather-free.
    ///
    /// # Safety
    /// Requires avx2,fma; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn adc8_lut256_block(
        luts: &[u8],
        packed: &[u8],
        m: usize,
        n: usize,
        out: &mut Vec<u32>,
    ) {
        out.resize(n, 0);
        let nib_mask = _mm256_set1_epi8(0x0F);
        let bit7 = _mm256_set1_epi8(0x80u8 as i8);
        let zero = _mm256_setzero_si256();
        for batch in 0..n.div_ceil(32) {
            let base = batch * m * 32;
            // Per-plane u16 accumulators; `unpack` interleaves within
            // 128-bit lanes, so lane -> candidate mapping is fixed and
            // undone at store.
            let mut acc_l_lo = _mm256_setzero_si256();
            let mut acc_l_hi = _mm256_setzero_si256();
            let mut acc_h_lo = _mm256_setzero_si256();
            let mut acc_h_hi = _mm256_setzero_si256();
            for s in 0..m {
                let codes =
                    _mm256_loadu_si256(packed.as_ptr().add(base + s * 32) as *const __m256i);
                let lo_nib = _mm256_and_si256(codes, nib_mask);
                let hi_nib = _mm256_and_si256(_mm256_srli_epi16(codes, 4), nib_mask);
                let mut bytes_lo = _mm256_setzero_si256();
                let mut bytes_hi = _mm256_setzero_si256();
                for k in 0..16 {
                    let mask = _mm256_cmpeq_epi8(hi_nib, _mm256_set1_epi8(k as i8));
                    let idx = _mm256_or_si256(lo_nib, _mm256_andnot_si256(mask, bit7));
                    let lut_lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                        luts.as_ptr().add(s * 512 + k * 16) as *const __m128i,
                    ));
                    let lut_hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(
                        luts.as_ptr().add(s * 512 + 256 + k * 16) as *const __m128i,
                    ));
                    bytes_lo = _mm256_or_si256(bytes_lo, _mm256_shuffle_epi8(lut_lo, idx));
                    bytes_hi = _mm256_or_si256(bytes_hi, _mm256_shuffle_epi8(lut_hi, idx));
                }
                acc_l_lo = _mm256_add_epi16(acc_l_lo, _mm256_unpacklo_epi8(bytes_lo, zero));
                acc_l_hi = _mm256_add_epi16(acc_l_hi, _mm256_unpackhi_epi8(bytes_lo, zero));
                acc_h_lo = _mm256_add_epi16(acc_h_lo, _mm256_unpacklo_epi8(bytes_hi, zero));
                acc_h_hi = _mm256_add_epi16(acc_h_hi, _mm256_unpackhi_epi8(bytes_hi, zero));
            }
            let cands = (n - batch * 32).min(32);
            if cands == 32 {
                // Full batch: undo the unpack interleave with four widening
                // plane-combining stores (`lo + (hi << 8)` per candidate).
                let dst = out.as_mut_ptr().add(batch * 32);
                let comb = |l: __m128i, h: __m128i| {
                    _mm256_add_epi32(
                        _mm256_cvtepu16_epi32(l),
                        _mm256_slli_epi32::<8>(_mm256_cvtepu16_epi32(h)),
                    )
                };
                _mm256_storeu_si256(
                    dst as *mut __m256i,
                    comb(_mm256_castsi256_si128(acc_l_lo), _mm256_castsi256_si128(acc_h_lo)),
                );
                _mm256_storeu_si256(
                    dst.add(8) as *mut __m256i,
                    comb(_mm256_castsi256_si128(acc_l_hi), _mm256_castsi256_si128(acc_h_hi)),
                );
                _mm256_storeu_si256(
                    dst.add(16) as *mut __m256i,
                    comb(
                        _mm256_extracti128_si256::<1>(acc_l_lo),
                        _mm256_extracti128_si256::<1>(acc_h_lo),
                    ),
                );
                _mm256_storeu_si256(
                    dst.add(24) as *mut __m256i,
                    comb(
                        _mm256_extracti128_si256::<1>(acc_l_hi),
                        _mm256_extracti128_si256::<1>(acc_h_hi),
                    ),
                );
            } else {
                let mut l_lo = [0u16; 16];
                let mut l_hi = [0u16; 16];
                let mut h_lo = [0u16; 16];
                let mut h_hi = [0u16; 16];
                _mm256_storeu_si256(l_lo.as_mut_ptr() as *mut __m256i, acc_l_lo);
                _mm256_storeu_si256(l_hi.as_mut_ptr() as *mut __m256i, acc_l_hi);
                _mm256_storeu_si256(h_lo.as_mut_ptr() as *mut __m256i, acc_h_lo);
                _mm256_storeu_si256(h_hi.as_mut_ptr() as *mut __m256i, acc_h_hi);
                for j in 0..cands {
                    let (l, h) = match j {
                        0..=7 => (l_lo[j], h_lo[j]),
                        8..=15 => (l_hi[j - 8], h_hi[j - 8]),
                        16..=23 => (l_lo[j - 8], h_lo[j - 8]),
                        _ => (l_hi[j - 16], h_hi[j - 16]),
                    };
                    out[batch * 32 + j] = l as u32 + 256 * h as u32;
                }
            }
        }
    }

    /// Symmetric SQ8 scan: widen the query to `i16` once, then one
    /// load + convert + subtract + `vpmaddwd` per 16 dims per row.
    /// Integer-exact vs scalar.
    ///
    /// # Safety
    /// Requires avx2,fma; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sq8_sym_l2_block(qcode: &[u8], codes: &[u8], dim: usize, out: &mut Vec<u32>) {
        let mut q16 = vec![0i16; dim.next_multiple_of(16)];
        for (d, &q) in qcode.iter().enumerate() {
            q16[d] = q as i16;
        }
        for row in codes.chunks_exact(dim) {
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            let mut d = 0usize;
            while d + 32 <= dim {
                let c = _mm256_loadu_si256(row.as_ptr().add(d) as *const __m256i);
                let clo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(c));
                let chi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256::<1>(c));
                let dlo = _mm256_sub_epi16(
                    _mm256_loadu_si256(q16.as_ptr().add(d) as *const __m256i),
                    clo,
                );
                let dhi = _mm256_sub_epi16(
                    _mm256_loadu_si256(q16.as_ptr().add(d + 16) as *const __m256i),
                    chi,
                );
                acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(dlo, dlo));
                acc1 = _mm256_add_epi32(acc1, _mm256_madd_epi16(dhi, dhi));
                d += 32;
            }
            while d + 16 <= dim {
                let c16 =
                    _mm256_cvtepu8_epi16(_mm_loadu_si128(row.as_ptr().add(d) as *const __m128i));
                let df = _mm256_sub_epi16(
                    _mm256_loadu_si256(q16.as_ptr().add(d) as *const __m256i),
                    c16,
                );
                acc0 = _mm256_add_epi32(acc0, _mm256_madd_epi16(df, df));
                d += 16;
            }
            // In-register horizontal fold: wrapping u32 addition is
            // associative, so any lane order gives the exact integer sum.
            let acc = _mm256_add_epi32(acc0, acc1);
            let mut s =
                _mm_add_epi32(_mm256_castsi256_si128(acc), _mm256_extracti128_si256::<1>(acc));
            s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_11_10>(s));
            s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b00_00_00_01>(s));
            let mut sum = _mm_cvtsi128_si32(s) as u32;
            while d < dim {
                let df = qcode[d] as i32 - row[d] as i32;
                sum = sum.wrapping_add((df * df) as u32);
                d += 1;
            }
            out.push(sum);
        }
    }
}

/// Fast-tier AVX2 kernel: FMA multi-accumulator f32 reductions, gather ADC
/// for 8-bit codes, shuffle-LUT ADC for 4-bit codes, `vpmaddwd` symmetric
/// int8. Only constructible (via [`FastAvx2Kernel::new`]) when both `avx2`
/// and `fma` are detected.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct FastAvx2Kernel {
    _guard: (),
}

#[cfg(target_arch = "x86_64")]
impl FastAvx2Kernel {
    /// The fast AVX2 kernel, or `None` when the CPU lacks AVX2 or FMA.
    pub fn new() -> Option<FastAvx2Kernel> {
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            Some(FastAvx2Kernel { _guard: () })
        } else {
            None
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl Kernel for FastAvx2Kernel {
    fn name(&self) -> &'static str {
        "avx2-fast"
    }

    fn dot_raw(&self, a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::dot(a, b) }
    }

    fn l2_sq_raw(&self, a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::l2_sq(a, b) }
    }

    fn dot3_raw(&self, a: &[f32], b: &[f32]) -> [f32; 3] {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::dot3(a, b) }
    }

    fn sq8_l2_raw(&self, query: &[f32], code: &[u8], mins: &[f32], scales: &[f32]) -> f32 {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::sq8_l2(query, code, mins, scales) }
    }

    fn l2_sq_block_raw(&self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::l2_sq_block(query, block, dim, out) }
    }

    fn dot_block_raw(&self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::dot_block(query, block, dim, out) }
    }

    fn sq8_l2_block_raw(
        &self,
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        scales: &[f32],
        dim: usize,
        out: &mut Vec<f32>,
    ) {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::sq8_l2_block(query, codes, mins, scales, dim, out) }
    }

    fn adc_block_raw(
        &self,
        table: &[f32],
        ksub: usize,
        codes: &[u8],
        m: usize,
        out: &mut Vec<f32>,
    ) {
        if ksub == 256 {
            // SAFETY: construction verified AVX2 + FMA; ksub == 256 keeps
            // every u8 code index in table bounds (checked by the wrapper).
            unsafe { avx2_fast::adc_block_k256(table, codes, m, out) }
        } else {
            scalar::adc_block(table, ksub, codes, m, out);
        }
    }

    fn adc4_lut16_block_raw(
        &self,
        luts: &[u8],
        packed: &[u8],
        m: usize,
        n: usize,
        out: &mut Vec<u32>,
    ) {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::adc4_lut16_block(luts, packed, m, n, out) }
    }

    fn adc8_lut256_block_raw(
        &self,
        luts: &[u8],
        packed: &[u8],
        m: usize,
        n: usize,
        out: &mut Vec<u32>,
    ) {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::adc8_lut256_block(luts, packed, m, n, out) }
    }

    fn sq8_sym_l2_block_raw(&self, qcode: &[u8], codes: &[u8], dim: usize, out: &mut Vec<u32>) {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::sq8_sym_l2_block(qcode, codes, dim, out) }
    }
}

// ---------------------------------------------------------------------------
// AVX-512 kernel (optional, `avx512` cargo feature)
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", feature = "avx512"))]
mod avx512 {
    //! AVX-512 bodies for `dot` / `l2_sq`: 512-bit loads, but the reduction
    //! still runs through a *single* 256-bit (8-lane) accumulator — the two
    //! halves of each 512-bit load are folded sequentially, which is exactly
    //! the scalar chunk order. A 16-lane accumulator would be faster but
    //! would break the bit-identity contract, so it is deliberately not
    //! used (a future follow-on could expose it behind an opt-in
    //! "fast-nondeterministic" mode).
    use std::arch::x86_64::*;

    /// # Safety
    /// Requires avx512f,avx512dq,avx2; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx512f,avx512dq,avx2")]
    unsafe fn lane_sum(acc: __m256) -> f32 {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        lanes.iter().sum()
    }

    /// # Safety
    /// Requires avx512f,avx512dq,avx2; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx512f,avx512dq,avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let wide = n / 16;
        let mut acc = _mm256_setzero_ps();
        for i in 0..wide {
            let off = i * 16;
            let va = _mm512_loadu_ps(a.as_ptr().add(off));
            let vb = _mm512_loadu_ps(b.as_ptr().add(off));
            let (alo, ahi) = (_mm512_castps512_ps256(va), _mm512_extractf32x8_ps(va, 1));
            let (blo, bhi) = (_mm512_castps512_ps256(vb), _mm512_extractf32x8_ps(vb, 1));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(alo, blo));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(ahi, bhi));
        }
        let mut off = wide * 16;
        if off + 8 <= n {
            let va = _mm256_loadu_ps(a.as_ptr().add(off));
            let vb = _mm256_loadu_ps(b.as_ptr().add(off));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
            off += 8;
        }
        let mut sum = lane_sum(acc);
        for i in off..n {
            sum += a[i] * b[i];
        }
        sum
    }

    /// # Safety
    /// Requires avx512f,avx512dq,avx2; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx512f,avx512dq,avx2")]
    pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let wide = n / 16;
        let mut acc = _mm256_setzero_ps();
        for i in 0..wide {
            let off = i * 16;
            let va = _mm512_loadu_ps(a.as_ptr().add(off));
            let vb = _mm512_loadu_ps(b.as_ptr().add(off));
            let (alo, ahi) = (_mm512_castps512_ps256(va), _mm512_extractf32x8_ps(va, 1));
            let (blo, bhi) = (_mm512_castps512_ps256(vb), _mm512_extractf32x8_ps(vb, 1));
            let dlo = _mm256_sub_ps(alo, blo);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(dlo, dlo));
            let dhi = _mm256_sub_ps(ahi, bhi);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(dhi, dhi));
        }
        let mut off = wide * 16;
        if off + 8 <= n {
            let va = _mm256_loadu_ps(a.as_ptr().add(off));
            let vb = _mm256_loadu_ps(b.as_ptr().add(off));
            let d = _mm256_sub_ps(va, vb);
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
            off += 8;
        }
        let mut sum = lane_sum(acc);
        for i in off..n {
            let d = a[i] - b[i];
            sum += d * d;
        }
        sum
    }
}

/// AVX-512 kernel (feature-gated): wide loads for `dot`/`l2_sq`, AVX2 bodies
/// for the rest. Only constructible when `avx512f`, `avx512dq` and `avx2`
/// are all detected.
#[cfg(all(target_arch = "x86_64", feature = "avx512"))]
#[derive(Debug, Clone, Copy)]
pub struct Avx512Kernel {
    _guard: (),
}

#[cfg(all(target_arch = "x86_64", feature = "avx512"))]
impl Avx512Kernel {
    /// The AVX-512 kernel, or `None` when the CPU lacks the features.
    pub fn new() -> Option<Avx512Kernel> {
        let ok = is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx2");
        if ok {
            Some(Avx512Kernel { _guard: () })
        } else {
            None
        }
    }
}

#[cfg(all(target_arch = "x86_64", feature = "avx512"))]
impl Kernel for Avx512Kernel {
    fn name(&self) -> &'static str {
        "avx512"
    }

    fn dot_raw(&self, a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: construction verified avx512f/avx512dq/avx2 support.
        unsafe { avx512::dot(a, b) }
    }

    fn l2_sq_raw(&self, a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: construction verified avx512f/avx512dq/avx2 support.
        unsafe { avx512::l2_sq(a, b) }
    }

    fn dot3_raw(&self, a: &[f32], b: &[f32]) -> [f32; 3] {
        // SAFETY: construction verified AVX2 support.
        unsafe { avx2::dot3(a, b) }
    }

    fn sq8_l2_raw(&self, query: &[f32], code: &[u8], mins: &[f32], scales: &[f32]) -> f32 {
        // SAFETY: construction verified AVX2 support.
        unsafe { avx2::sq8_l2(query, code, mins, scales) }
    }

    fn l2_sq_block_raw(&self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        // SAFETY: construction verified AVX2 support.
        unsafe { avx2::score_block::<true>(query, block, dim, out) }
    }

    fn dot_block_raw(&self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        // SAFETY: construction verified AVX2 support.
        unsafe { avx2::score_block::<false>(query, block, dim, out) }
    }

    fn sq8_l2_block_raw(
        &self,
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        scales: &[f32],
        dim: usize,
        out: &mut Vec<f32>,
    ) {
        // SAFETY: construction verified AVX2 support.
        unsafe { avx2::sq8_l2_block(query, codes, mins, scales, dim, out) }
    }
}

// ---------------------------------------------------------------------------
// Fast-tier AVX-512 kernel (optional, `avx512` cargo feature): VNNI int8
// ---------------------------------------------------------------------------

#[cfg(all(target_arch = "x86_64", feature = "avx512"))]
mod avx512_fast {
    //! Fast-tier AVX-512 body: the symmetric SQ8 scan through VNNI
    //! `vpdpbusd`. Everything else delegates to the fast AVX2 bodies.
    use std::arch::x86_64::*;

    /// Symmetric SQ8 via the integer identity
    /// `Σ(q−c)² = Σq² − 2Σqc + Σc²`, with both mixed sums produced by
    /// `vpdpbusd` against sign-centered codes (`c ^ 0x80` read as `i8` is
    /// `c − 128`): `Σqc = dpbusd(q, c−128) + 128·Σq` and
    /// `Σc² = dpbusd(c, c−128) + 128·Σc` (row sums via `vpsadbw`). All
    /// integer arithmetic — exact vs the scalar reference.
    ///
    /// # Safety
    /// Requires avx512f,avx512bw,avx512vnni; reached only through the detection-gated dispatch.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    pub unsafe fn sq8_sym_l2_block(qcode: &[u8], codes: &[u8], dim: usize, out: &mut Vec<u32>) {
        let wide = dim / 64 * 64;
        let mut q2: i64 = 0;
        let mut sq: i64 = 0;
        for &q in &qcode[..wide] {
            q2 += (q as i64) * (q as i64);
            sq += q as i64;
        }
        let sign = _mm512_set1_epi8(-128i8);
        let zero = _mm512_setzero_si512();
        for row in codes.chunks_exact(dim) {
            let mut dp1 = zero; // Σ q·(c−128), i32 lanes
            let mut dp2 = zero; // Σ c·(c−128), i32 lanes
            let mut sc_acc = zero; // Σ c, u64 lanes via vpsadbw
            let mut d = 0usize;
            while d + 64 <= dim {
                let q = _mm512_loadu_si512(qcode.as_ptr().add(d) as *const _);
                let c = _mm512_loadu_si512(row.as_ptr().add(d) as *const _);
                let cs = _mm512_xor_si512(c, sign);
                dp1 = _mm512_dpbusd_epi32(dp1, q, cs);
                dp2 = _mm512_dpbusd_epi32(dp2, c, cs);
                sc_acc = _mm512_add_epi64(sc_acc, _mm512_sad_epu8(c, zero));
                d += 64;
            }
            let s_dp1 = _mm512_reduce_add_epi32(dp1) as i64;
            let s_dp2 = _mm512_reduce_add_epi32(dp2) as i64;
            let sc = _mm512_reduce_add_epi64(sc_acc);
            let mut dist = q2 - 2 * (s_dp1 + 128 * sq) + (s_dp2 + 128 * sc);
            while d < dim {
                let df = qcode[d] as i64 - row[d] as i64;
                dist += df * df;
                d += 1;
            }
            out.push(dist as u32);
        }
    }
}

/// Fast-tier AVX-512 kernel: the fast AVX2 paths plus a VNNI `vpdpbusd`
/// symmetric int8 scan. Only constructible when `avx512f`, `avx512bw`,
/// `avx512vnni`, `avx2` and `fma` are all detected.
#[cfg(all(target_arch = "x86_64", feature = "avx512"))]
#[derive(Debug, Clone, Copy)]
pub struct FastAvx512Kernel {
    _guard: (),
}

#[cfg(all(target_arch = "x86_64", feature = "avx512"))]
impl FastAvx512Kernel {
    /// The fast AVX-512 kernel, or `None` when the CPU lacks the features.
    pub fn new() -> Option<FastAvx512Kernel> {
        let ok = is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vnni")
            && is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("fma");
        if ok {
            Some(FastAvx512Kernel { _guard: () })
        } else {
            None
        }
    }
}

#[cfg(all(target_arch = "x86_64", feature = "avx512"))]
impl Kernel for FastAvx512Kernel {
    fn name(&self) -> &'static str {
        "avx512-fast"
    }

    fn dot_raw(&self, a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::dot(a, b) }
    }

    fn l2_sq_raw(&self, a: &[f32], b: &[f32]) -> f32 {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::l2_sq(a, b) }
    }

    fn dot3_raw(&self, a: &[f32], b: &[f32]) -> [f32; 3] {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::dot3(a, b) }
    }

    fn sq8_l2_raw(&self, query: &[f32], code: &[u8], mins: &[f32], scales: &[f32]) -> f32 {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::sq8_l2(query, code, mins, scales) }
    }

    fn l2_sq_block_raw(&self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::l2_sq_block(query, block, dim, out) }
    }

    fn dot_block_raw(&self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::dot_block(query, block, dim, out) }
    }

    fn sq8_l2_block_raw(
        &self,
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        scales: &[f32],
        dim: usize,
        out: &mut Vec<f32>,
    ) {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::sq8_l2_block(query, codes, mins, scales, dim, out) }
    }

    fn adc_block_raw(
        &self,
        table: &[f32],
        ksub: usize,
        codes: &[u8],
        m: usize,
        out: &mut Vec<f32>,
    ) {
        if ksub == 256 {
            // SAFETY: construction verified AVX2 + FMA; ksub == 256 keeps
            // every u8 code index in table bounds.
            unsafe { avx2_fast::adc_block_k256(table, codes, m, out) }
        } else {
            scalar::adc_block(table, ksub, codes, m, out);
        }
    }

    fn adc4_lut16_block_raw(
        &self,
        luts: &[u8],
        packed: &[u8],
        m: usize,
        n: usize,
        out: &mut Vec<u32>,
    ) {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::adc4_lut16_block(luts, packed, m, n, out) }
    }

    fn adc8_lut256_block_raw(
        &self,
        luts: &[u8],
        packed: &[u8],
        m: usize,
        n: usize,
        out: &mut Vec<u32>,
    ) {
        // SAFETY: construction verified AVX2 + FMA support.
        unsafe { avx2_fast::adc8_lut256_block(luts, packed, m, n, out) }
    }

    fn sq8_sym_l2_block_raw(&self, qcode: &[u8], codes: &[u8], dim: usize, out: &mut Vec<u32>) {
        // SAFETY: construction verified avx512f/avx512bw/avx512vnni support.
        unsafe { avx512_fast::sq8_sym_l2_block(qcode, codes, dim, out) }
    }
}

// ---------------------------------------------------------------------------
// Runtime dispatch
// ---------------------------------------------------------------------------

/// Which correctness contract the dispatched kernels honor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelPolicy {
    /// Bit-exact tier (the default): every implementation reproduces the
    /// scalar reference bit-for-bit, which is what keeps tuning histories
    /// byte-identical across hosts and kernel choices.
    #[default]
    Exact,
    /// Fast tier (opt-in, `VDTUNER_KERNEL=fast`): relaxed-order FMA
    /// reductions, gather/shuffle ADC scoring, symmetric int8 scans.
    /// Bounded error vs [`KernelPolicy::Exact`] and per-kernel determinism,
    /// but no cross-implementation bit-identity.
    Fast,
}

static ACTIVE: OnceLock<&'static dyn Kernel> = OnceLock::new();
static ACTIVE_POLICY: OnceLock<KernelPolicy> = OnceLock::new();
static FAST_ACTIVE: OnceLock<&'static dyn Kernel> = OnceLock::new();

/// True when `VDTUNER_FORCE_SCALAR` is set to anything but `0` / empty.
pub fn force_scalar_requested() -> bool {
    match std::env::var("VDTUNER_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// The kernel policy requested through `VDTUNER_KERNEL` (`fast` selects the
/// fast tier; anything else, including unset, is the exact tier).
pub fn policy_requested() -> KernelPolicy {
    match std::env::var("VDTUNER_KERNEL") {
        Ok(v) if v.eq_ignore_ascii_case("fast") => KernelPolicy::Fast,
        _ => KernelPolicy::Exact,
    }
}

/// The process-wide kernel policy: [`policy_requested`] read once and
/// cached. Index builds consult this to decide whether to materialize
/// fast-tier side structures (packed 4-bit codes, symmetric scan paths).
pub fn active_policy() -> KernelPolicy {
    *ACTIVE_POLICY.get_or_init(policy_requested)
}

/// Pick the kernel for this host under an explicit policy. Pure function of
/// its arguments and the CPU's detected features; exposed so tests and
/// benches can exercise every tier in one process ([`active`] and [`fast`]
/// cache the env-driven calls). Forcing scalar under [`KernelPolicy::Fast`]
/// returns the exact scalar kernel: the portable fallback *is* the fast
/// tier's reference semantics (zero float error, identical integers).
pub fn select_policy(force_scalar: bool, policy: KernelPolicy) -> &'static dyn Kernel {
    if force_scalar {
        return &SCALAR;
    }
    match policy {
        KernelPolicy::Exact => {
            #[cfg(all(target_arch = "x86_64", feature = "avx512"))]
            {
                if Avx512Kernel::new().is_some() {
                    static AVX512: Avx512Kernel = Avx512Kernel { _guard: () };
                    return &AVX512;
                }
            }
            #[cfg(target_arch = "x86_64")]
            {
                if Avx2Kernel::new().is_some() {
                    static AVX2: Avx2Kernel = Avx2Kernel { _guard: () };
                    return &AVX2;
                }
            }
            &SCALAR
        }
        KernelPolicy::Fast => {
            #[cfg(all(target_arch = "x86_64", feature = "avx512"))]
            {
                if FastAvx512Kernel::new().is_some() {
                    static FAST512: FastAvx512Kernel = FastAvx512Kernel { _guard: () };
                    return &FAST512;
                }
            }
            #[cfg(target_arch = "x86_64")]
            {
                if FastAvx2Kernel::new().is_some() {
                    static FAST2: FastAvx2Kernel = FastAvx2Kernel { _guard: () };
                    return &FAST2;
                }
            }
            &SCALAR
        }
    }
}

/// Pick the *exact-tier* kernel for this host ([`select_policy`] with
/// [`KernelPolicy::Exact`]; kept for the pre-policy callers).
pub fn select(force_scalar: bool) -> &'static dyn Kernel {
    select_policy(force_scalar, KernelPolicy::Exact)
}

/// The process-wide dispatched kernel: the widest SIMD implementation the
/// host supports under [`active_policy`], or [`ScalarKernel`] under
/// `VDTUNER_FORCE_SCALAR`. Selected once per process (first call) and
/// cached.
pub fn active() -> &'static dyn Kernel {
    *ACTIVE.get_or_init(|| select_policy(force_scalar_requested(), active_policy()))
}

/// The process-wide *fast-tier* kernel (respecting `VDTUNER_FORCE_SCALAR`),
/// regardless of the ambient policy. Index fast paths route through this so
/// an explicitly fast-tier index exercises the fast kernels even when the
/// process default is exact.
pub fn fast() -> &'static dyn Kernel {
    *FAST_ACTIVE.get_or_init(|| select_policy(force_scalar_requested(), KernelPolicy::Fast))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(n: usize, seed: u32) -> (Vec<f32>, Vec<f32>) {
        // Deterministic, sign-mixed, non-trivial mantissas.
        let f = |i: usize, s: u32| ((i as f32 + s as f32) * 0.7311).sin() * 3.3;
        ((0..n).map(|i| f(i, seed)).collect(), (0..n).map(|i| f(i, seed + 17)).collect())
    }

    #[test]
    fn forced_scalar_selects_scalar() {
        assert_eq!(select(true).name(), "scalar");
    }

    #[test]
    fn active_is_a_fixed_point() {
        let a = active().name();
        assert_eq!(a, active().name());
        assert!(["scalar", "avx2", "avx512", "avx2-fast", "avx512-fast"].contains(&a));
    }

    #[test]
    fn fast_selection_is_a_fixed_point_and_scalar_when_forced() {
        assert_eq!(select_policy(true, KernelPolicy::Fast).name(), "scalar");
        let f = fast().name();
        assert_eq!(f, fast().name());
        assert!(["scalar", "avx2-fast", "avx512-fast"].contains(&f));
        // Exact-tier selection never hands out a fast kernel.
        assert!(["scalar", "avx2", "avx512"].contains(&select(false).name()));
    }

    #[test]
    fn dispatched_matches_scalar_bitwise() {
        let k = select(false);
        for n in [0usize, 1, 7, 8, 9, 16, 31, 48, 200] {
            let (a, b) = vecs(n, 3);
            assert_eq!(k.dot(&a, &b).to_bits(), SCALAR.dot(&a, &b).to_bits(), "dot n={n}");
            assert_eq!(k.l2_sq(&a, &b).to_bits(), SCALAR.l2_sq(&a, &b).to_bits(), "l2 n={n}");
            let (d3a, d3b) = (k.dot3(&a, &b), SCALAR.dot3(&a, &b));
            for i in 0..3 {
                assert_eq!(d3a[i].to_bits(), d3b[i].to_bits(), "dot3[{i}] n={n}");
            }
        }
    }

    #[test]
    fn dot3_components_match_dot() {
        let (a, b) = vecs(37, 9);
        for k in [select(false), &SCALAR as &dyn Kernel] {
            let [aa, bb, ab] = k.dot3(&a, &b);
            assert_eq!(aa.to_bits(), k.dot(&a, &a).to_bits());
            assert_eq!(bb.to_bits(), k.dot(&b, &b).to_bits());
            assert_eq!(ab.to_bits(), k.dot(&a, &b).to_bits());
        }
    }

    #[test]
    fn block_matches_per_row() {
        let dim = 13;
        let rows = 9;
        let (q, _) = vecs(dim, 1);
        let (block, _) = vecs(dim * rows, 5);
        for k in [select(false), &SCALAR as &dyn Kernel] {
            let mut l2 = Vec::new();
            let mut dp = Vec::new();
            k.l2_sq_block(&q, &block, dim, &mut l2);
            k.dot_block(&q, &block, dim, &mut dp);
            assert_eq!(l2.len(), rows);
            for (i, row) in block.chunks_exact(dim).enumerate() {
                assert_eq!(l2[i].to_bits(), k.l2_sq(&q, row).to_bits());
                assert_eq!(dp[i].to_bits(), k.dot(&q, row).to_bits());
            }
        }
    }

    #[test]
    fn sq8_matches_scalar_bitwise() {
        for n in [1usize, 5, 8, 24, 41, 200] {
            let (q, _) = vecs(n, 2);
            let code: Vec<u8> = (0..n).map(|i| (i * 37 % 256) as u8).collect();
            let mins: Vec<f32> = (0..n).map(|i| -1.0 + i as f32 * 0.01).collect();
            let scales: Vec<f32> = (0..n).map(|i| 0.003 + i as f32 * 1e-4).collect();
            let k = select(false);
            assert_eq!(
                k.sq8_l2(&q, &code, &mins, &scales).to_bits(),
                SCALAR.sq8_l2(&q, &code, &mins, &scales).to_bits(),
                "n={n}"
            );
            let mut a = Vec::new();
            let mut b = Vec::new();
            k.sq8_l2_block(&q, &code, &mins, &scales, n, &mut a);
            SCALAR.sq8_l2_block(&q, &code, &mins, &scales, n, &mut b);
            assert_eq!(a[0].to_bits(), b[0].to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        SCALAR.dot(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn l2_length_mismatch_panics() {
        select(false).l2_sq(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple of dim")]
    fn block_length_mismatch_panics() {
        let mut out = Vec::new();
        SCALAR.l2_sq_block(&[1.0, 2.0], &[1.0, 2.0, 3.0], 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sq8_length_mismatch_panics() {
        SCALAR.sq8_l2(&[1.0, 2.0], &[0u8; 2], &[0.0; 1], &[1.0; 2]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernel_if_present_is_bit_identical_on_awkward_shapes() {
        let Some(k) = Avx2Kernel::new() else { return };
        // Odd remainders and unaligned starting offsets.
        let (base_a, base_b) = vecs(256, 11);
        for off in 0..8 {
            for n in [1usize, 3, 8, 15, 17, 64, 100] {
                let a = &base_a[off..off + n];
                let b = &base_b[off..off + n];
                assert_eq!(
                    k.dot(a, b).to_bits(),
                    SCALAR.dot(a, b).to_bits(),
                    "dot off={off} n={n}"
                );
                assert_eq!(
                    k.l2_sq(a, b).to_bits(),
                    SCALAR.l2_sq(a, b).to_bits(),
                    "l2 off={off} n={n}"
                );
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", feature = "avx512"))]
    #[test]
    fn avx512_kernel_if_present_is_bit_identical() {
        let Some(k) = Avx512Kernel::new() else { return };
        for n in [0usize, 1, 7, 8, 15, 16, 17, 24, 31, 32, 33, 64, 100, 200] {
            let (a, b) = vecs(n, 23);
            assert_eq!(k.dot(&a, &b).to_bits(), SCALAR.dot(&a, &b).to_bits(), "dot n={n}");
            assert_eq!(k.l2_sq(&a, &b).to_bits(), SCALAR.l2_sq(&a, &b).to_bits(), "l2 n={n}");
        }
    }

    // -- Fast tier ----------------------------------------------------------

    /// Every kernel the fast tier can dispatch to on this host, scalar
    /// included (the fast tier's portable fallback).
    fn fast_kernels() -> Vec<&'static dyn Kernel> {
        let mut v: Vec<&'static dyn Kernel> = vec![&SCALAR];
        let f = select_policy(false, KernelPolicy::Fast);
        if f.name() != "scalar" {
            v.push(f);
        }
        v
    }

    #[test]
    fn pack_codes4_round_trips_nibbles() {
        let m = 3usize;
        let n = 41usize; // spills into a second, partial batch of 32
        let codes: Vec<u8> = (0..n * m).map(|i| (i * 7 % 16) as u8).collect();
        let packed = pack_codes4(&codes, m);
        assert_eq!(packed.len(), packed4_len(m, n));
        for i in 0..n {
            for s in 0..m {
                let batch = i / 32;
                let j = i % 32;
                let (byte_idx, shift) = if j < 16 { (j, 0) } else { (j - 16, 4) };
                let byte = packed[batch * m * 16 + s * 16 + byte_idx];
                assert_eq!((byte >> shift) & 0x0F, codes[i * m + s], "i={i} s={s}");
            }
        }
    }

    #[test]
    fn adc4_lut16_block_is_integer_exact_across_kernels() {
        let m = 7usize;
        for n in [1usize, 15, 16, 17, 31, 32, 33, 63, 64, 100] {
            let codes: Vec<u8> = (0..n * m).map(|i| (i * 11 % 16) as u8).collect();
            let luts: Vec<u8> = (0..m * 16).map(|i| (i * 13 % 251) as u8).collect();
            let packed = pack_codes4(&codes, m);
            // Direct reference straight off the unpacked codes.
            let want: Vec<u32> = codes
                .chunks_exact(m)
                .map(|row| {
                    row.iter().enumerate().map(|(s, &c)| luts[s * 16 + c as usize] as u32).sum()
                })
                .collect();
            for k in fast_kernels() {
                let mut got = Vec::new();
                k.adc4_lut16_block(&luts, &packed, m, n, &mut got);
                assert_eq!(got, want, "kernel={} n={n}", k.name());
            }
        }
    }

    #[test]
    fn pack_codes8_round_trips_bytes() {
        let m = 3usize;
        let n = 41usize; // spills into a second, partial batch of 32
        let codes: Vec<u8> = (0..n * m).map(|i| (i * 37 % 256) as u8).collect();
        let packed = pack_codes8(&codes, m);
        assert_eq!(packed.len(), packed8_len(m, n));
        for i in 0..n {
            for s in 0..m {
                let (batch, j) = (i / 32, i % 32);
                assert_eq!(packed[batch * m * 32 + s * 32 + j], codes[i * m + s], "i={i} s={s}");
            }
        }
    }

    #[test]
    fn adc8_lut256_block_is_integer_exact_across_kernels() {
        let m = 7usize;
        for n in [1usize, 15, 16, 17, 31, 32, 33, 63, 64, 100] {
            let codes: Vec<u8> = (0..n * m).map(|i| (i * 41 % 256) as u8).collect();
            // Two byte planes per subspace, covering the full u8 range so
            // both planes and every 16-entry chunk carry signal.
            let luts: Vec<u8> = (0..m * 512).map(|i| (i * 13 % 256) as u8).collect();
            let packed = pack_codes8(&codes, m);
            // Direct reference straight off the unpacked codes.
            let want: Vec<u32> = codes
                .chunks_exact(m)
                .map(|row| {
                    row.iter()
                        .enumerate()
                        .map(|(s, &c)| {
                            luts[s * 512 + c as usize] as u32
                                + 256 * luts[s * 512 + 256 + c as usize] as u32
                        })
                        .sum()
                })
                .collect();
            for k in fast_kernels() {
                let mut got = Vec::new();
                k.adc8_lut256_block(&luts, &packed, m, n, &mut got);
                assert_eq!(got, want, "kernel={} n={n}", k.name());
            }
        }
    }

    #[test]
    fn adc8_lut256_block_at_the_m256_accumulator_cap() {
        // m = 256 with all-0xFF planes is the worst case for the u16 plane
        // accumulators: 256 * 255 = 65280 must not wrap.
        let m = 256usize;
        let n = 33usize;
        let codes = vec![0xFFu8; n * m];
        let luts = vec![0xFFu8; m * 512];
        let packed = pack_codes8(&codes, m);
        let want = vec![256u32 * (255 + 256 * 255); n];
        for k in fast_kernels() {
            let mut got = Vec::new();
            k.adc8_lut256_block(&luts, &packed, m, n, &mut got);
            assert_eq!(got, want, "kernel={}", k.name());
        }
    }

    #[test]
    fn sq8_sym_l2_block_is_integer_exact_across_kernels() {
        for dim in [1usize, 15, 16, 17, 31, 32, 33, 63, 64, 65, 96, 130] {
            let rows = 5usize;
            let qcode: Vec<u8> = (0..dim).map(|i| (i * 89 % 256) as u8).collect();
            let codes: Vec<u8> = (0..rows * dim).map(|i| (i * 57 % 256) as u8).collect();
            let want: Vec<u32> = codes
                .chunks_exact(dim)
                .map(|row| {
                    row.iter()
                        .zip(&qcode)
                        .map(|(&c, &q)| {
                            let d = q as i32 - c as i32;
                            (d * d) as u32
                        })
                        .sum()
                })
                .collect();
            for k in fast_kernels() {
                let mut got = Vec::new();
                k.sq8_sym_l2_block(&qcode, &codes, dim, &mut got);
                assert_eq!(got, want, "kernel={} dim={dim}", k.name());
            }
        }
    }

    #[test]
    fn adc_block_k256_matches_scalar_within_tolerance() {
        let m = 8usize;
        let ksub = 256usize;
        let table: Vec<f32> = (0..m * ksub).map(|i| ((i as f32) * 0.37).sin().abs()).collect();
        for n in [1usize, 7, 8, 9, 33] {
            let codes: Vec<u8> = (0..n * m).map(|i| (i * 41 % 256) as u8).collect();
            let mut want = Vec::new();
            scalar::adc_block(&table, ksub, &codes, m, &mut want);
            for k in fast_kernels() {
                let mut got = Vec::new();
                k.adc_block(&table, ksub, &codes, m, &mut got);
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert!((g - w).abs() <= 1e-5 * w.abs().max(1.0), "kernel={}", k.name());
                }
            }
        }
    }

    #[test]
    fn fast_dot3_components_match_fast_dot_bitwise() {
        // `distance::angular_with_norms` relies on this invariant holding
        // for whichever kernel is active — including the fast tier.
        let k = select_policy(false, KernelPolicy::Fast);
        for n in [1usize, 8, 31, 32, 33, 96, 200] {
            let (a, b) = vecs(n, 29);
            let [aa, bb, ab] = k.dot3(&a, &b);
            assert_eq!(aa.to_bits(), k.dot(&a, &a).to_bits(), "aa n={n}");
            assert_eq!(bb.to_bits(), k.dot(&b, &b).to_bits(), "bb n={n}");
            assert_eq!(ab.to_bits(), k.dot(&a, &b).to_bits(), "ab n={n}");
        }
    }

    #[test]
    fn fast_block_forms_match_fast_per_row_bitwise() {
        let k = select_policy(false, KernelPolicy::Fast);
        let dim = 29;
        let rows = 7;
        let (q, _) = vecs(dim, 4);
        let (block, _) = vecs(dim * rows, 6);
        let mut l2 = Vec::new();
        let mut dp = Vec::new();
        k.l2_sq_block(&q, &block, dim, &mut l2);
        k.dot_block(&q, &block, dim, &mut dp);
        for (i, row) in block.chunks_exact(dim).enumerate() {
            assert_eq!(l2[i].to_bits(), k.l2_sq(&q, row).to_bits());
            assert_eq!(dp[i].to_bits(), k.dot(&q, row).to_bits());
        }
    }

    #[test]
    fn fast_f32_close_to_exact() {
        // Coarse sanity bound; the tight proptested bounds live in
        // `tests/fast_tier_bounds.rs`.
        let k = select_policy(false, KernelPolicy::Fast);
        for n in [1usize, 17, 96, 200] {
            let (a, b) = vecs(n, 31);
            let scale: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum::<f32>().max(1e-20);
            assert!((k.dot(&a, &b) - SCALAR.dot(&a, &b)).abs() <= 1e-5 * scale);
            let l2 = SCALAR.l2_sq(&a, &b);
            assert!((k.l2_sq(&a, &b) - l2).abs() <= 1e-5 * l2.max(1e-20));
        }
    }
}
