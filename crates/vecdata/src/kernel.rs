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
//! outside this module. The GP's Cholesky factorization and block
//! posterior run this way. `run` enables only `avx2`, never `fma`: Rust
//! does not contract `a * b - c` into a fused multiply-add, and without
//! the feature LLVM cannot either, so both compilations of an exact loop
//! run the same IEEE operations in the same order and return the same
//! bits.
//!
//! # The exponential: [`Kernel::exp`]
//!
//! `kernel.exp(xs)` replaces every element of `xs` with exactly the bits of
//! `f64::exp`. [`SCALAR`] maps `f64::exp`. The AVX2 kernel runs, four lanes
//! at a time, the `exp` that `f64::exp` itself reaches on an AVX2 + FMA host
//! with glibc ≥ 2.28: ARM's optimized-routines `exp`, which glibc ships as
//! its `exp` and builds a second time with `-mavx2 -mfma` (`__exp_fma`,
//! picked by ifunc). With `N = 128`:
//!
//! * `k = round(x·N/ln2)` through the `1.5·2⁵²` shift, and
//!   `r = x − k·ln2/N` in two steps (`ln2/N` split into a 42-bit head and a
//!   tail), so `exp(x) = 2^(k/N) · exp(r)` with `|r| ≤ ln2/2N`;
//! * `2^(k/N) ≈ scale · (1 + tail)` from a 128-pair table: entry `j` holds
//!   `bits(T_j)` and `bits(H_j) − (j << 45)`, where `H_j` is the nearest
//!   double to `2^(j/128)` and `T_j` the nearest double to
//!   `(2^(j/128) − H_j) / H_j`. With `j = k mod 128`, adding `k << 45`
//!   (mod 2⁶⁴) to the second word puts `⌊k/128⌋` into the exponent:
//!   `scale`. Exact rational arithmetic reproduces all 128 of glibc's
//!   entries; the table is checked in as that constant;
//! * `exp(x) ≈ scale + scale · (tail + r + r²·(C2 + r·C3) + r⁴·(C4 + r·C5))`.
//!
//! Every operation the glibc build fuses is an explicit fused multiply-add
//! here, and nothing else is: `kd = fma(x, N/ln2, shift)`, both reduction
//! steps, `p1 = fma(r, C3, C2)`, `p2 = fma(r, C5, C4)`,
//! `fma(p1, r², tail + r)`, `fma(r²·r², p2, ·)` and `fma(scale, tmp, scale)`;
//! `r·r`, `tail + r` and `r²·r²` round on their own. Lanes outside
//! `2⁻⁵⁴ ≤ |x| < 512` take glibc's special paths: below, zero, `−0.0` and
//! subnormals included (the kernel matrix's diagonal), glibc returns
//! `1.0 + x`, and so does the body; at `|x| ≥ 512` (the overflow and
//! underflow range, ±∞) and for NaN the lane calls `f64::exp`.
//!
//! **Fused with its neighbours: [`Kernel::exp_map`].** `exp_map(xs, pre,
//! post)` replaces every `v` with `post(x, exp(x))`, `x = pre(v)`, and
//! [`Kernel::exp`] is its identity case. The AVX2 body calls `pre` on
//! four elements, runs the four-lane `exp` and calls `post` on the four
//! results, in one pass with both closures inlined, so their arithmetic
//! overlaps the `exp`'s: the GP's Matérn kernel is `σ²(1 + s + s²/3)
//! e^{−s}` with `s = √5 r/ℓ`, and its two correctly rounded divisions
//! (`vdivpd`, four lanes) cost about as much as the `exp`. The closures
//! keep their bits in the `fma`-enabled body because Rust never contracts
//! `a * b + c`; a short tail is padded with a copy of its first element,
//! so `pre` only ever sees the caller's values.
//!
//! **Self-check.** A libm other than glibc's (or an older glibc, or a host
//! without `fma`) may round differently. So the AVX2 kernel's first `exp`
//! call compares the four-lane body with `f64::exp` in `to_bits()` on a
//! fixed seeded probe set — 4,096 draws, the table points and the
//! midpoints between them with their neighbours, the edges of both special
//! ranges, zero and subnormals. On any mismatch, or without `fma`, `exp`
//! maps `f64::exp` for the rest of the process: the bits never change,
//! only the speed. The tests hold the body itself to `f64::exp` on 10⁶
//! seeded inputs, 10⁶ where the reduced argument is largest and (ignored
//! by default) 10⁸ more, and assert that the self-check passes here.
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
//! the feature. The `exp_map` body alone also enables `fma`; its arm is
//! taken only after the self-check has detected both features.

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

    /// Replace every element of `xs` with `f64::exp` of it, bit for bit
    /// (module docs: the AVX2 kernel runs glibc's algorithm four lanes at a
    /// time once its self-check has passed).
    #[inline]
    pub fn exp(self, xs: &mut [f64]) {
        self.exp_map(xs, |x| x, |_, e| e);
    }

    /// Replace every element `v` of `xs` with `post(x, f64::exp(x))`, where
    /// `x = pre(v)`, bit for bit. The AVX2 kernel runs `pre`, the four-lane
    /// `exp` and `post` as one pass over each four elements, with both
    /// closures inlined into the `exp` body, so their arithmetic (a
    /// division, say) overlaps the `exp`'s. The closures must be pure;
    /// `pre` may also be called on copies of elements (a short tail is
    /// padded with its first element). Rust never contracts `a * b + c`,
    /// so the closures return the same bits compiled with `fma` enabled.
    #[inline]
    pub fn exp_map(self, xs: &mut [f64], pre: impl Fn(f64) -> f64, post: impl Fn(f64, f64) -> f64) {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `exp_verified()` holds only after `avx2` and `fma`
            // were detected on this host.
            Imp::Avx2 if exp_verified() => unsafe { avx2::exp_map(xs, pre, post) },
            _ => scalar::exp_map(xs, pre, post),
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

/// The verdict of the AVX2 `exp` self-check, taken on first use.
#[cfg(target_arch = "x86_64")]
static EXP_VERIFIED: OnceLock<bool> = OnceLock::new();

/// True when this host has `avx2` and `fma` and the four-lane `exp` body
/// returns the bits of `f64::exp` on the whole [`exp_probe`] set.
#[cfg(target_arch = "x86_64")]
fn exp_verified() -> bool {
    *EXP_VERIFIED.get_or_init(|| {
        is_x86_feature_detected!("avx2")
            && is_x86_feature_detected!("fma")
            // SAFETY: both features were detected just above.
            && agrees_with_libm(exp_probe(), |xs| unsafe { avx2::exp_map(xs, |x| x, |_, e| e) })
    })
}

/// Whether `body` maps every input of `probe` to the bits of `f64::exp`,
/// checked 64 inputs at a time in a stack buffer.
#[cfg(any(test, target_arch = "x86_64"))]
fn agrees_with_libm(probe: impl Iterator<Item = f64>, mut body: impl FnMut(&mut [f64])) -> bool {
    let mut probe = probe.peekable();
    while probe.peek().is_some() {
        let mut xs = [0.0; 64];
        let n = xs.iter_mut().zip(&mut probe).map(|(slot, x)| *slot = x).count();
        let mut got = xs;
        body(&mut got[..n]);
        if xs[..n].iter().zip(&got).any(|(x, y)| x.exp().to_bits() != y.to_bits()) {
            return false;
        }
    }
    true
}

/// The self-check's inputs: 4,096 seeded draws, half over the body's whole
/// range `(−512, 512)` and half over `(−8, 8)`; every table point
/// `j·ln2/128` of the first two octaves on both sides and every midpoint
/// between two of them (where `k` rounds), with two neighbours each; the
/// edges of the tiny and fallback ranges; and zero and subnormals.
#[cfg(any(test, target_arch = "x86_64"))]
fn exp_probe() -> impl Iterator<Item = f64> {
    let unit = |i: u64| (crate::rng::derive(0x5EED_E4F0, i) >> 11) as f64 * (-53f64).exp2();
    let draws =
        (0..4096u64)
            .map(move |i| if i % 2 == 0 { 1024.0 * unit(i) - 512.0 } else { 16.0 * unit(i) - 8.0 });
    let points = (-256..256)
        .flat_map(|j| [j as f64, j as f64 + 0.5])
        .map(|k| k * std::f64::consts::LN_2 / 128.0);
    let edges = [(-54f64).exp2(), 512.0, 0.0, f64::MIN_POSITIVE].into_iter().flat_map(|e| [e, -e]);
    draws.chain(points.chain(edges).flat_map(|x| [x.next_down(), x, x.next_up()]))
}

/// The scalar reference bodies.
mod scalar {
    /// `post(x, f64::exp(x))` with `x = pre(v)` for every element `v`, in
    /// place.
    #[inline(always)]
    pub fn exp_map(xs: &mut [f64], pre: impl Fn(f64) -> f64, post: impl Fn(f64, f64) -> f64) {
        for v in xs {
            let x = pre(*v);
            *v = post(x, x.exp());
        }
    }

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
    #[target_feature(enable = "avx2")]
    fn lane_sum(acc: __m256) -> f32 {
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` holds the eight `f32`s the store writes.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), acc) };
        lanes.iter().sum()
    }

    /// # Safety
    /// Requires avx2 and `b.len() >= a.len()`; reached only through the
    /// detection-gated dispatch, which asserts equal lengths.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for i in 0..chunks {
            let off = i * 8;
            // SAFETY: `off + 8 <= a.len() <= b.len()` (the contract above).
            let (va, vb) = unsafe {
                (_mm256_loadu_ps(a.as_ptr().add(off)), _mm256_loadu_ps(b.as_ptr().add(off)))
            };
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
    /// Requires avx2 and `b.len() >= a.len()`; reached only through the
    /// detection-gated dispatch, which asserts equal lengths.
    #[target_feature(enable = "avx2")]
    pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let chunks = n / 8;
        let mut acc = _mm256_setzero_ps();
        for i in 0..chunks {
            let off = i * 8;
            // SAFETY: `off + 8 <= a.len() <= b.len()` (the contract above).
            let (va, vb) = unsafe {
                (_mm256_loadu_ps(a.as_ptr().add(off)), _mm256_loadu_ps(b.as_ptr().add(off)))
            };
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
    /// Requires avx2 and `b.len() >= a.len()`; reached only through the
    /// detection-gated dispatch, which asserts equal lengths.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot3(a: &[f32], b: &[f32]) -> [f32; 3] {
        let n = a.len();
        let chunks = n / 8;
        let mut aa = _mm256_setzero_ps();
        let mut bb = _mm256_setzero_ps();
        let mut ab = _mm256_setzero_ps();
        for i in 0..chunks {
            let off = i * 8;
            // SAFETY: `off + 8 <= a.len() <= b.len()` (the contract above).
            let (va, vb) = unsafe {
                (_mm256_loadu_ps(a.as_ptr().add(off)), _mm256_loadu_ps(b.as_ptr().add(off)))
            };
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
    /// Requires avx2, and `code`, `mins` and `scales` at least as long as
    /// `query`; reached only through the detection-gated dispatch, which
    /// asserts equal lengths.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq8_l2(query: &[f32], code: &[u8], mins: &[f32], scales: &[f32]) -> f32 {
        let n = query.len();
        let chunks = n / 8;
        let mut sum = 0.0f32;
        let mut sq = [0.0f32; 8];
        for i in 0..chunks {
            let off = i * 8;
            // SAFETY: each load reads 8 elements at `off + 8 <= query.len()`,
            // and `code`, `mins` and `scales` are at least as long (the
            // contract above).
            let (c8, mn, sc, q) = unsafe {
                (
                    _mm_loadl_epi64(code.as_ptr().add(off) as *const __m128i),
                    _mm256_loadu_ps(mins.as_ptr().add(off)),
                    _mm256_loadu_ps(scales.as_ptr().add(off)),
                    _mm256_loadu_ps(query.as_ptr().add(off)),
                )
            };
            // Zero-extend 8 code bytes to i32, convert to f32 (both exact).
            let cf = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(c8));
            // x = min + code * scale: mul then add, like the scalar loop.
            let x = _mm256_add_ps(mn, _mm256_mul_ps(cf, sc));
            let d = _mm256_sub_ps(q, x);
            // SAFETY: `sq` holds the eight `f32`s the store writes.
            unsafe { _mm256_storeu_ps(sq.as_mut_ptr(), _mm256_mul_ps(d, d)) };
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

    /// `exp`'s table (module docs): pair `j` is `bits(T_j)`,
    /// `bits(H_j) − (j << 45)`.
    #[rustfmt::skip]
    static EXP_TABLE: [u64; 256] = [
        0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
        0xbc7160139cd8dc5d, 0x3fefec9a3e778061, 0xbc905e7a108766d1, 0x3fefe315e86e7f85,
        0x3c8cd2523567f613, 0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
        0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
        0x3c979aa65d837b6d, 0x3fefb5586cf9890f, 0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
        0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
        0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
        0xbc91c923b9d5f416, 0x3fef829aaea92de0, 0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
        0xbc801b15eaa59348, 0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
        0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26, 0x3fef5be084045cd4,
        0x3c9aecf73e3a2f60, 0x3fef54873168b9aa, 0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
        0x3c8a6f4144a6c38d, 0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
        0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
        0x3c80472b981fe7f2, 0x3fef2b4565e27cdd, 0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
        0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
        0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
        0x3c834d754db0abb6, 0x3fef06fe0a31b715, 0x3c864201e2ac744c, 0x3fef0170fc4cd831,
        0x3c8fdd395dd3f84a, 0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
        0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e, 0x3feeecae6d05d866,
        0xbc71d1e83e9436d2, 0x3feee7db34e59ff7, 0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
        0x3c859f48a72a4c6d, 0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
        0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
        0x3c4363ed60c2ac11, 0x3feece086061892d, 0x3c9666093b0664ef, 0x3feeca41ed1d0057,
        0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
        0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
        0xbc8f94340071a38e, 0x3feeb9b2769d2ca7, 0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
        0xbc78dec6bd0f385f, 0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
        0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
        0x3c9063e1e21c5409, 0x3feeab07dd485429, 0x3c34c7855019c6ea, 0x3feea9268a5946b7,
        0x3c9432e62b64c035, 0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
        0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae, 0x3feea34634ccc320,
        0xbc93cedd78565858, 0x3feea23882552225, 0x3c5710aa807e1964, 0x3feea155d44ca973,
        0xbc93b3efbf5e2228, 0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
        0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851, 0x3fee9f7df9519484,
        0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74, 0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
        0xbc8619321e55e68a, 0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
        0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
        0x3c65ebe1abd66c55, 0x3feea2f336cf4e62, 0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
        0xbc9369b6f13b3734, 0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
        0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
        0x3c8db72fc1f0eab4, 0x3feeace5422aa0db, 0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
        0x3c7bf68359f35f44, 0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
        0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
        0xbc92434322f4f9aa, 0x3feebd829fde4e50, 0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
        0x3c71affc2b91ce27, 0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
        0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
        0xbc91bbd1d3bcbb15, 0x3feed503b23e255d, 0x3c90cc319cee31d2, 0x3feed99e1330b358,
        0x3c8469846e735ab3, 0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
        0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
        0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb, 0xbc90a40e3da6f640, 0x3feef9728de5593a,
        0xbc68d6f438ad9334, 0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
        0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
        0x3c736eae30af0cb3, 0x3fef199bdd85529c, 0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
        0x3c84e08fd10959ac, 0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
        0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
        0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c, 0xbc900dae3875a949, 0x3fef4f87080d89f2,
        0x3c74a385a63d07a7, 0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
        0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b, 0x3fef7321f301b460,
        0xbc82d52107b43e1f, 0x3fef7c97337b9b5f, 0xbc892ab93b470dc9, 0x3fef864614f5a129,
        0x3c74b604603a88d3, 0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
        0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
        0x3c8ec3bc41aa2008, 0x3fefba1bee615a27, 0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
        0x3c8a64a931d185ee, 0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
        0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
    ];

    /// `post(x, exp(x))` with `x = pre(v)` for every element `v` of `xs`,
    /// in place: four lanes per pass (a short tail is padded to four with
    /// its first element); an `exp` lane below `2⁻⁵⁴` in magnitude is
    /// `1.0 + x`, one at `|x| ≥ 512` or NaN is replaced by `f64::exp`.
    ///
    /// # Safety
    /// Requires avx2 and fma; reached only through the self-checked
    /// dispatch, which detects both.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp_map(
        xs: &mut [f64],
        pre: impl Fn(f64) -> f64,
        post: impl Fn(f64, f64) -> f64,
    ) {
        let inv_ln2_n = _mm256_set1_pd(f64::from_bits(0x4067_1547_652b_82fe)); // N/ln2
        let shift = _mm256_set1_pd(f64::from_bits(0x4338_0000_0000_0000)); // 1.5·2⁵²
        let neg_ln2_hi_n = _mm256_set1_pd(f64::from_bits(0xbf76_2e42_fefa_0000));
        let neg_ln2_lo_n = _mm256_set1_pd(f64::from_bits(0xbd0c_f79a_bc9e_3b3a));
        let c2 = _mm256_set1_pd(f64::from_bits(0x3fdf_ffff_ffff_fdbd));
        let c3 = _mm256_set1_pd(f64::from_bits(0x3fc5_5555_5555_543c));
        let c4 = _mm256_set1_pd(f64::from_bits(0x3fa5_5555_cf17_2b91));
        let c5 = _mm256_set1_pd(f64::from_bits(0x3f81_1111_67a4_d017));
        let abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(i64::MAX));
        let tiny = _mm256_set1_pd(f64::from_bits(0x3c90_0000_0000_0000)); // 2⁻⁵⁴
        let huge = _mm256_set1_pd(512.0);
        let table = EXP_TABLE.as_ptr() as *const i64;

        let (quads, rest) = xs.as_chunks_mut::<4>();
        // Padding lanes repeat a live one, a valid input of `pre`.
        let mut pad = [rest.first().copied().unwrap_or(0.0); 4];
        pad[..rest.len()].copy_from_slice(rest);
        let pad_lanes = (!rest.is_empty()).then_some(&mut pad);
        for lanes in quads.iter_mut().chain(pad_lanes) {
            let xs = lanes.map(&pre);
            // SAFETY: `xs` holds the four `f64`s the load reads.
            let x = unsafe { _mm256_loadu_pd(xs.as_ptr()) };
            let ax = _mm256_and_pd(x, abs_mask);
            // An ordered compare: a NaN lane is outside.
            let inside = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(ax, huge));
            let is_tiny = _mm256_cmp_pd::<_CMP_LT_OQ>(ax, tiny);

            let kd = _mm256_fmadd_pd(x, inv_ln2_n, shift);
            let ki = _mm256_castpd_si256(kd);
            let kd = _mm256_sub_pd(kd, shift);
            let r = _mm256_fmadd_pd(kd, neg_ln2_hi_n, x);
            let r = _mm256_fmadd_pd(kd, neg_ln2_lo_n, r);
            let idx = _mm256_slli_epi64::<1>(_mm256_and_si256(ki, _mm256_set1_epi64x(127)));
            // SAFETY: `idx` is even and at most 254, so both gathers read
            // inside the 256 entries of `EXP_TABLE`.
            let (tail, hi) = unsafe {
                (
                    _mm256_i64gather_epi64::<8>(table, idx),
                    _mm256_i64gather_epi64::<8>(table.add(1), idx),
                )
            };
            let tail = _mm256_castsi256_pd(tail);
            let sbits = _mm256_add_epi64(hi, _mm256_slli_epi64::<45>(ki));
            let r2 = _mm256_mul_pd(r, r);
            let p1 = _mm256_fmadd_pd(r, c3, c2);
            let p2 = _mm256_fmadd_pd(r, c5, c4);
            let tmp = _mm256_fmadd_pd(p1, r2, _mm256_add_pd(tail, r));
            let tmp = _mm256_fmadd_pd(_mm256_mul_pd(r2, r2), p2, tmp);
            let scale = _mm256_castsi256_pd(sbits);
            let y = _mm256_fmadd_pd(scale, tmp, scale);
            // glibc's own path for `|x| < 2⁻⁵⁴`, zero and subnormals included.
            let y = _mm256_blendv_pd(y, _mm256_add_pd(_mm256_set1_pd(1.0), x), is_tiny);

            let mut es = [0.0; 4];
            // SAFETY: `es` holds the four `f64`s the store writes.
            unsafe { _mm256_storeu_pd(es.as_mut_ptr(), y) };
            if inside != 0b1111 {
                for (lane, (e, x)) in es.iter_mut().zip(xs).enumerate() {
                    if inside >> lane & 1 == 0 {
                        *e = x.exp();
                    }
                }
            }
            *lanes = std::array::from_fn(|t| post(xs[t], es[t]));
        }
        let n = rest.len();
        rest.copy_from_slice(&pad[..n]);
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
    /// Requires avx2 and `query.len() == dim`; reached only through the
    /// detection-gated dispatch, which asserts the length.
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
                    // SAFETY: `c * 8 + 8 <= q_chunks.len()`.
                    let q = unsafe { _mm256_loadu_ps(q_chunks.as_ptr().add(c * 8)) };
                    for (r, a) in acc.iter_mut().enumerate() {
                        // SAFETY: row `r < 8` of the `8 * dim` group, lanes
                        // `c * 8 .. c * 8 + 8 <= dim` of it.
                        let x = unsafe { _mm256_loadu_ps(rows.add(r * dim + c * 8)) };
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
                    // SAFETY: row `r < 8` of the group; the mask reads only
                    // its `dim - chunks * 8` tail lanes.
                    *t = unsafe { _mm256_maskload_ps(rows.add(r * dim + chunks * 8), tail_mask) };
                }
                for (&q, col) in q_tail.iter().zip(transpose8(tails)) {
                    sums = _mm256_add_ps(sums, term::<L2>(_mm256_set1_ps(q), col));
                }
            }
            let mut scores = [0.0f32; 8];
            // SAFETY: `scores` holds the eight `f32`s the store writes.
            unsafe { _mm256_storeu_ps(scores.as_mut_ptr(), sums) };
            out.extend_from_slice(&scores);
        }
        for row in groups.remainder().chunks_exact(dim) {
            // SAFETY: avx2 is enabled here, and `row.len() == dim == query.len()`
            // (the contract above).
            out.push(unsafe {
                if L2 {
                    l2_sq(query, row)
                } else {
                    dot(query, row)
                }
            });
        }
    }

    /// # Safety
    /// Requires avx2, and `query`, `mins` and `scales` of `dim` elements;
    /// reached only through the detection-gated dispatch, which asserts
    /// those lengths.
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
            // SAFETY: avx2 is enabled here, and `query`, `mins` and `scales`
            // have `dim == row.len()` elements (the contract above).
            out.push(unsafe { sq8_l2(query, row, mins, scales) });
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

    /// Both tiers, whatever `VDTUNER_FORCE_SCALAR` says.
    fn tiers() -> impl Iterator<Item = Kernel> {
        std::iter::once(SCALAR).chain(Kernel::avx2())
    }

    /// Each tier's `exp` of `xs` equals `f64::exp` of every element.
    fn assert_exp_is_libm(xs: &[f64], what: &str) {
        for k in tiers() {
            let mut got = xs.to_vec();
            k.exp(&mut got);
            for (x, y) in xs.iter().zip(&got) {
                let want = std::hint::black_box(*x).exp();
                assert_eq!(y.to_bits(), want.to_bits(), "{} exp({x:e}) [{what}]", k.name());
            }
        }
    }

    /// Draw `i` of the seeded stream `seed`, uniform on `[0, 1)`.
    fn unit(seed: u64, i: u64) -> f64 {
        (crate::rng::derive(seed, i) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` seeded inputs: a third each over `[−750, 710]` (the whole finite
    /// range), `[−10, 10]` and `[−1100, 0]` (the kernel fill's side).
    fn exp_inputs(seed: u64, n: u64) -> Vec<f64> {
        (0..n)
            .map(|i| match i % 3 {
                0 => -750.0 + 1460.0 * unit(seed, i),
                1 => -10.0 + 20.0 * unit(seed, i),
                _ => -1100.0 * unit(seed, i),
            })
            .collect()
    }

    #[test]
    fn exp_is_libm_exp_at_the_edges() {
        let mut xs = vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN];
        for edge in [(-54f64).exp2(), 512.0, 708.4, 709.78, 745.13, 1024.0] {
            for x in [edge.next_down(), edge, edge.next_up()] {
                xs.extend([x, -x]);
            }
        }
        // Subnormal results, and tiny and subnormal inputs.
        xs.extend((0..64).map(|i| -708.5 - i as f64 * 0.58));
        xs.extend([f64::MIN_POSITIVE, 5e-324, -5e-324, 1e-300, -1e-17, 1e-15]);
        assert_exp_is_libm(&xs, "edges");
    }

    #[test]
    fn exp_is_libm_exp_around_every_table_point() {
        let mut xs = Vec::new();
        for octave in [-700, -9, -1, 0, 1, 5, 700] {
            for j in 0..128 {
                let x = (octave * 128 + j) as f64 * std::f64::consts::LN_2 / 128.0;
                let mut lo = x;
                let mut hi = x;
                xs.push(x);
                for _ in 0..4 {
                    (lo, hi) = (lo.next_down(), hi.next_up());
                    xs.extend([lo, hi]);
                }
                // The rounding boundary of `k`, halfway to the next point.
                let mid = x + std::f64::consts::LN_2 / 256.0;
                xs.extend([mid.next_down(), mid, mid.next_up()]);
            }
        }
        assert_exp_is_libm(&xs, "table points");
    }

    #[test]
    fn exp_is_libm_exp_on_a_million_seeded_inputs() {
        assert_exp_is_libm(&exp_inputs(7, 1_000_000), "seeded");
    }

    /// 10⁶ inputs within 2 % of the reduction's midpoints
    /// `(j ± ½)·ln2/128`, where `|r|` is largest and a slip in the
    /// polynomial's rounding shows most often: an unfused
    /// `fma(p1, r², tail + r)` mismatches 4 of these, and none of 10⁶
    /// uniform draws.
    #[test]
    fn exp_is_libm_exp_where_the_reduced_argument_is_largest() {
        let xs: Vec<f64> = (0..1_000_000)
            .map(|i| {
                let j = (2000.0 * unit(4, i) - 1000.0).floor();
                let side = if i % 2 == 0 { 1.0 } else { -1.0 };
                (j + side * (0.5 - 0.02 * unit(5, i))) * std::f64::consts::LN_2 / 128.0
            })
            .collect();
        assert_exp_is_libm(&xs, "near midpoints");
    }

    /// Every slice length up to 9 at every offset: the padded tails.
    #[test]
    fn exp_is_libm_exp_on_every_short_slice() {
        let xs = exp_inputs(11, 16);
        for len in 0..=9 {
            for off in 0..4 {
                assert_exp_is_libm(&xs[off..off + len], &format!("len {len} off {off}"));
            }
        }
        // A tail holding lanes outside the fast range.
        assert_exp_is_libm(&[-1.0, 2.0, 3.0, 4.0, 0.0, 800.0, f64::NAN], "mixed tail");
    }

    /// `exp_map` with a Matérn-shaped `pre` and `post` (a division each)
    /// equals `post(x, f64::exp(x))`, `x = pre(v)`, element by element on
    /// every tier: seeded distances at two lengthscales, the smaller
    /// sending most lanes out of the body's range, every short length and
    /// offset (the padded tails), and zero, subnormal, infinite and NaN
    /// inputs.
    #[test]
    fn exp_map_is_pre_then_libm_exp_then_post() {
        let mut rs: Vec<f64> = (0..4099).map(|i| 3.0 * unit(13, i)).collect();
        rs.extend([0.0, -0.0, 5e-324, f64::INFINITY, f64::NAN, 1e-300, 17.0]);
        for lengthscale in [0.01, 0.37] {
            let pre = |r: f64| -(5f64.sqrt() * r / lengthscale);
            let post = |x: f64, e: f64| {
                let s = -x;
                1.7 * (1.0 + s + s * s / 3.0) * e
            };
            for k in tiers() {
                for (off, len) in
                    (0..4).flat_map(|off| (0..=9).map(move |len| (off, len))).chain([(0, rs.len())])
                {
                    let vs = &rs[off..off + len];
                    let mut got = vs.to_vec();
                    k.exp_map(&mut got, pre, post);
                    for (v, y) in vs.iter().zip(&got) {
                        let x = pre(*v);
                        let want = post(x, std::hint::black_box(x).exp());
                        let what = format!("{} ℓ = {lengthscale}, len {len} off {off}", k.name());
                        // Which NaN comes out is not part of the contract.
                        let bits =
                            |y: f64| if y.is_nan() { f64::NAN.to_bits() } else { y.to_bits() };
                        assert_eq!(bits(*y), bits(want), "{what}: v = {v:e}");
                    }
                }
            }
        }
    }

    /// Slow: 10⁸ inputs (`cargo test --release -p vecdata -- --ignored`).
    #[test]
    #[ignore]
    fn exp_is_libm_exp_on_a_hundred_million_seeded_inputs() {
        for batch in 0..100 {
            assert_exp_is_libm(&exp_inputs(1_000 + batch, 1_000_000), &format!("batch {batch}"));
        }
    }

    /// On an AVX2 + FMA host with glibc (≥ 2.28, the workspace's targets)
    /// the four-lane body must be in use: the `exp` tests above compare
    /// whatever `exp` runs, so a body that failed its self-check would
    /// leave them green at libm speed.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn exp_self_check_runs_on_first_use_and_passes_on_glibc() {
        let Some(k) = Kernel::avx2() else { return };
        k.exp(&mut [1.0]);
        let expect = is_x86_feature_detected!("fma") && cfg!(target_env = "gnu");
        assert_eq!(EXP_VERIFIED.get(), Some(&expect));
    }

    #[test]
    fn exp_self_check_rejects_one_wrong_ulp() {
        assert!(exp_probe().count() >= 4096 + 2 * 512 * 3);
        assert!(agrees_with_libm(exp_probe(), |xs| SCALAR.exp(xs)));
        let mut chunks = 0;
        assert!(!agrees_with_libm(exp_probe(), |xs| {
            SCALAR.exp(xs);
            chunks += 1;
            if chunks == 50 {
                xs[17] = f64::from_bits(xs[17].to_bits() + 1);
            }
        }));
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
