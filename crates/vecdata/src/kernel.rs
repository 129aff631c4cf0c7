//! Runtime-dispatched distance kernels.
//!
//! Every distance in the workspace is computed by a [`Kernel`]: a `Copy`
//! value naming one of two implementations, the portable scalar loops or
//! the AVX2 bodies. [`active`] picks the best one the host supports once per
//! process; setting the `VDTUNER_FORCE_SCALAR` environment variable to
//! anything but `0`/empty pins the scalar path for A/B testing.
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
//!
//! This is what lets dispatched SIMD, forced-scalar, and the pre-kernel
//! legacy loops produce byte-identical tuning histories (see
//! `tests/kernel_history_regression.rs` at the workspace root).
//!
//! # Compiling other crates' exact loops: [`Kernel::run`]
//!
//! `kernel.run(f)` calls `f` compiled for the kernel's instruction set: the
//! AVX2 kernel calls it inside a `#[target_feature(enable = "avx2")]`
//! trampoline, so a loop inlined into `f` (mark the closure
//! `#[inline(always)]`) gets 256-bit registers without a `#[target_feature]`
//! outside this module. The GP's Cholesky factorization runs this way. Only
//! `avx2` is ever enabled, never `fma`: Rust does not contract `a * b - c`
//! into a fused multiply-add, and without the feature LLVM cannot either,
//! so both compilations of an exact loop run the same IEEE operations in
//! the same order and return the same bits.
//!
//! # Soundness
//!
//! [`Kernel`]'s implementation tag is private, and [`Kernel::avx2`] is the
//! only way to make the AVX2 value: it checks `is_x86_feature_detected!`
//! first. Each entry point asserts slice lengths once (release builds too;
//! the legacy free functions silently truncated to the shorter slice), then
//! matches on the tag. Its AVX2 arm is the one `unsafe` call into the
//! `#[target_feature(enable = "avx2")]` bodies (or, for [`Kernel::run`],
//! the trampoline), sound because the tag exists only on a host that has
//! the feature.

use std::sync::OnceLock;

/// A distance kernel: the scalar reference or, on hosts that have it, AVX2.
///
/// Block methods score one query against a contiguous row-major block of
/// `block.len() / dim` vectors, appending one score per row to `out` (which
/// is cleared first) in row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernel(Imp);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Imp {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// The portable scalar kernel: the bit-exact reference every SIMD kernel
/// must reproduce, with the workspace's original fixed-order loops.
pub const SCALAR: Kernel = Kernel(Imp::Scalar);

impl Kernel {
    /// The AVX2 kernel, or `None` when the CPU lacks AVX2 (or is not x86_64).
    /// The only way to obtain it.
    pub fn avx2() -> Option<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            return Some(Kernel(Imp::Avx2));
        }
        None
    }

    /// Run `f` compiled for this kernel's instruction set: [`SCALAR`] calls
    /// it as is; the AVX2 kernel calls it inside an `avx2` trampoline, so an
    /// exact loop inlined into `f` is vectorized with 256-bit registers.
    /// `fma` is never enabled and Rust never contracts `a * b - c`, so both
    /// compilations run the same IEEE operations and return the same bits.
    #[inline]
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        match self.0 {
            Imp::Scalar => f(),
            // SAFETY: `Imp::Avx2` is only built by `avx2()`, after detection.
            #[cfg(target_arch = "x86_64")]
            Imp::Avx2 => unsafe { avx2::run(f) },
        }
    }

    /// Implementation name (`"scalar"` or `"avx2"`).
    pub fn name(self) -> &'static str {
        match self.0 {
            Imp::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Imp::Avx2 => "avx2",
        }
    }

    /// Dot product of two equally sized slices.
    #[inline]
    pub fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        check_pair("dot", a.len(), b.len());
        match self.0 {
            Imp::Scalar => scalar::dot(a, b),
            // SAFETY: `Imp::Avx2` is only built by `avx2()`, after detection.
            #[cfg(target_arch = "x86_64")]
            Imp::Avx2 => unsafe { avx2::dot(a, b) },
        }
    }

    /// Squared L2 distance of two equally sized slices.
    #[inline]
    pub fn l2_sq(self, a: &[f32], b: &[f32]) -> f32 {
        check_pair("l2_sq", a.len(), b.len());
        match self.0 {
            Imp::Scalar => scalar::l2_sq(a, b),
            // SAFETY: `Imp::Avx2` is only built by `avx2()`, after detection.
            #[cfg(target_arch = "x86_64")]
            Imp::Avx2 => unsafe { avx2::l2_sq(a, b) },
        }
    }

    /// Fused one-pass `[a·a, b·b, a·b]`, each sum bit-identical to the
    /// corresponding [`Kernel::dot`] call.
    #[inline]
    pub fn dot3(self, a: &[f32], b: &[f32]) -> [f32; 3] {
        check_pair("dot3", a.len(), b.len());
        match self.0 {
            Imp::Scalar => scalar::dot3(a, b),
            // SAFETY: `Imp::Avx2` is only built by `avx2()`, after detection.
            #[cfg(target_arch = "x86_64")]
            Imp::Avx2 => unsafe { avx2::dot3(a, b) },
        }
    }

    /// SQ8 asymmetric squared L2 between a raw query and a quantized code
    /// (per-dim affine dequantization `mins[d] + code[d] * scales[d]`).
    #[inline]
    pub fn sq8_l2(self, query: &[f32], code: &[u8], mins: &[f32], scales: &[f32]) -> f32 {
        check_sq8("sq8_l2", query.len(), code.len(), mins.len(), scales.len());
        match self.0 {
            Imp::Scalar => scalar::sq8_l2(query, code, mins, scales),
            // SAFETY: `Imp::Avx2` is only built by `avx2()`, after detection.
            #[cfg(target_arch = "x86_64")]
            Imp::Avx2 => unsafe { avx2::sq8_l2(query, code, mins, scales) },
        }
    }

    /// Squared L2 of `query` vs every `dim`-dim row of the contiguous
    /// row-major `block`, one score per row appended to `out` in row order.
    pub fn l2_sq_block(self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        start_block("l2_sq_block", query.len(), block.len(), dim, out);
        match self.0 {
            Imp::Scalar => out.extend(block.chunks_exact(dim).map(|r| scalar::l2_sq(query, r))),
            // SAFETY: `Imp::Avx2` is only built by `avx2()`, after detection.
            #[cfg(target_arch = "x86_64")]
            Imp::Avx2 => unsafe { avx2::score_block::<true>(query, block, dim, out) },
        }
    }

    /// Dot product of `query` vs every row of `block` (see
    /// [`Kernel::l2_sq_block`]).
    pub fn dot_block(self, query: &[f32], block: &[f32], dim: usize, out: &mut Vec<f32>) {
        start_block("dot_block", query.len(), block.len(), dim, out);
        match self.0 {
            Imp::Scalar => out.extend(block.chunks_exact(dim).map(|r| scalar::dot(query, r))),
            // SAFETY: `Imp::Avx2` is only built by `avx2()`, after detection.
            #[cfg(target_arch = "x86_64")]
            Imp::Avx2 => unsafe { avx2::score_block::<false>(query, block, dim, out) },
        }
    }

    /// SQ8 asymmetric squared L2 of `query` vs every `dim`-byte code row of
    /// `codes` (see [`Kernel::l2_sq_block`]).
    pub fn sq8_l2_block(
        self,
        query: &[f32],
        codes: &[u8],
        mins: &[f32],
        scales: &[f32],
        dim: usize,
        out: &mut Vec<f32>,
    ) {
        start_block("sq8_l2_block", query.len(), codes.len(), dim, out);
        check_sq8("sq8_l2_block", query.len(), dim, mins.len(), scales.len());
        match self.0 {
            Imp::Scalar => {
                out.extend(codes.chunks_exact(dim).map(|r| scalar::sq8_l2(query, r, mins, scales)))
            }
            // SAFETY: `Imp::Avx2` is only built by `avx2()`, after detection.
            #[cfg(target_arch = "x86_64")]
            Imp::Avx2 => unsafe { avx2::sq8_l2_block(query, codes, mins, scales, dim, out) },
        }
    }
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

/// Validate a block call's shape, then clear `out` and reserve one slot per row.
#[inline]
fn start_block(op: &str, query: usize, block: usize, dim: usize, out: &mut Vec<f32>) {
    assert!(dim > 0, "kernel {op}: dim must be positive");
    assert!(query == dim, "kernel {op}: query length {query} != dim {dim}");
    assert!(
        block.is_multiple_of(dim),
        "kernel {op}: block length {block} is not a multiple of dim {dim}"
    );
    out.clear();
    out.reserve(block / dim);
}

/// The scalar reference bodies.
mod scalar {
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
}

// ---------------------------------------------------------------------------
// AVX2 bodies (x86_64, runtime-detected)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 bodies. Every function requires the `avx2` target feature; the
    //! only safe entry is through a [`super::Kernel`] made by
    //! [`super::Kernel::avx2`], which verifies detection.
    use std::arch::x86_64::*;

    /// Call `f` with `avx2` enabled for whatever LLVM inlines into it.
    #[target_feature(enable = "avx2")]
    pub fn run<R>(f: impl FnOnce() -> R) -> R {
        f()
    }

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

// ---------------------------------------------------------------------------
// Runtime dispatch
// ---------------------------------------------------------------------------

/// Which correctness contract the dispatched kernels honor. Only the exact
/// tier exists; the benchmark's result fingerprint is this enum's one
/// reader, and a later change to the benchmark removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelPolicy {
    /// Every kernel reproduces the scalar reference bit for bit.
    #[default]
    Exact,
    /// Never returned; kept so existing `match`es stay exhaustive.
    Fast,
}

/// Always [`KernelPolicy::Exact`] (see [`KernelPolicy`]).
pub fn active_policy() -> KernelPolicy {
    KernelPolicy::Exact
}

static ACTIVE: OnceLock<Kernel> = OnceLock::new();

/// True when `VDTUNER_FORCE_SCALAR` is set to anything but `0` / empty.
pub fn force_scalar_requested() -> bool {
    match std::env::var("VDTUNER_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// Pick the kernel for this host: [`SCALAR`] when `force_scalar`, else the
/// widest SIMD implementation the CPU supports. Pure function of its
/// argument and the CPU's detected features; [`active`] caches the
/// env-driven call.
pub fn select(force_scalar: bool) -> Kernel {
    if force_scalar {
        return SCALAR;
    }
    Kernel::avx2().unwrap_or(SCALAR)
}

/// The process-wide dispatched kernel: the widest SIMD implementation the
/// host supports, or [`SCALAR`] under `VDTUNER_FORCE_SCALAR`. Selected once
/// per process (first call) and cached.
pub fn active() -> Kernel {
    *ACTIVE.get_or_init(|| select(force_scalar_requested()))
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
        assert_eq!(select(true), SCALAR);
        assert_eq!(select(true).name(), "scalar");
    }

    /// Dispatch picks AVX2 exactly when the CPU has it: a `select` that
    /// always fell back to scalar would keep every bitwise test green while
    /// slowing every workload.
    #[test]
    fn dispatch_picks_avx2_exactly_when_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(Kernel::avx2().is_some(), is_x86_feature_detected!("avx2"));
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(Kernel::avx2(), None);
        assert_eq!(select(false), Kernel::avx2().unwrap_or(SCALAR));
        assert_eq!(active(), select(force_scalar_requested()));
        if let Some(k) = Kernel::avx2() {
            assert_eq!(k.name(), "avx2");
        }
    }

    #[test]
    fn run_calls_the_closure_once_and_returns_its_value() {
        for k in std::iter::once(SCALAR).chain(Kernel::avx2()) {
            let mut calls = 0;
            let got = k.run(|| {
                calls += 1;
                (0..100).map(|i| i as f64 * 0.1).sum::<f64>()
            });
            assert_eq!(calls, 1, "{}", k.name());
            assert_eq!(got.to_bits(), (0..100).map(|i| i as f64 * 0.1).sum::<f64>().to_bits());
        }
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
        for k in [select(false), SCALAR] {
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
        for k in [select(false), SCALAR] {
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

    #[test]
    fn avx2_kernel_if_present_is_bit_identical_on_awkward_shapes() {
        let Some(k) = Kernel::avx2() else { return };
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
}
