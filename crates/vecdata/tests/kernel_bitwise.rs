//! Property tests for the distance-kernel determinism contract: every
//! kernel implementation (scalar, runtime-dispatched, AVX2 when the host
//! has it) is bit-identical to the legacy reference loops across dims
//! 1..=200 — odd remainders, unaligned slice offsets, zero vectors — and
//! SQ8 encode/decode roundtrips within one quantization step. The block
//! forms, which score eight rows per pass on AVX2, are swept exhaustively
//! over every (row count, dim, offset) shape that pass can meet.

use proptest::prelude::*;
use vecdata::kernel::{self, Kernel, SCALAR};

// ---------------------------------------------------------------------------
// Legacy reference implementations: the exact pre-kernel accumulation
// orders (8 fixed lanes folded left-to-right, then a sequential remainder;
// SQ8 is one sequential dequantize-and-accumulate pass). The kernels'
// contract is bit-identity with these loops.
// ---------------------------------------------------------------------------

fn ref_dot(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let chunks = n / 8;
    let mut acc = [0.0f32; 8];
    for c in 0..chunks {
        for lane in 0..8 {
            acc[lane] += a[c * 8 + lane] * b[c * 8 + lane];
        }
    }
    let mut total: f32 = acc.iter().sum();
    for i in chunks * 8..n {
        total += a[i] * b[i];
    }
    total
}

fn ref_l2(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len();
    let chunks = n / 8;
    let mut acc = [0.0f32; 8];
    for c in 0..chunks {
        for lane in 0..8 {
            let d = a[c * 8 + lane] - b[c * 8 + lane];
            acc[lane] += d * d;
        }
    }
    let mut total: f32 = acc.iter().sum();
    for i in chunks * 8..n {
        let d = a[i] - b[i];
        total += d * d;
    }
    total
}

fn ref_sq8(query: &[f32], code: &[u8], mins: &[f32], scales: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for d in 0..query.len() {
        let x = mins[d] + code[d] as f32 * scales[d];
        let diff = query[d] - x;
        acc += diff * diff;
    }
    acc
}

/// Every kernel that must agree bitwise: the scalar reference, whatever
/// runtime dispatch picked, and (on hosts that have it) the AVX2 kernel by
/// name.
fn kernels_under_test() -> Vec<(&'static str, Kernel)> {
    let mut v = vec![("scalar", SCALAR), ("dispatched", kernel::select(false))];
    v.extend(Kernel::avx2().map(|k| ("avx2", k)));
    v
}

/// Per-dimension SQ8 quantizer trained over `rows` row-major vectors —
/// mirrors `anns::ivf_sq8::ScalarQuantizer` (vecdata cannot depend on
/// anns, so the encoding is replicated here; the formula is part of the
/// kernel contract, not an implementation detail).
fn train_sq8(data: &[f32], dim: usize) -> (Vec<f32>, Vec<f32>) {
    let mut mins = vec![f32::INFINITY; dim];
    let mut maxs = vec![f32::NEG_INFINITY; dim];
    for v in data.chunks_exact(dim) {
        for d in 0..dim {
            mins[d] = mins[d].min(v[d]);
            maxs[d] = maxs[d].max(v[d]);
        }
    }
    let scales = mins.iter().zip(&maxs).map(|(lo, hi)| ((hi - lo) / 255.0).max(1e-12)).collect();
    (mins, scales)
}

fn encode_sq8(v: &[f32], mins: &[f32], scales: &[f32], out: &mut [u8]) {
    for d in 0..v.len() {
        let q = ((v[d] - mins[d]) / scales[d]).round();
        out[d] = q.clamp(0.0, 255.0) as u8;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// dot / l2_sq / dot3 are bit-identical to the legacy loops for every
    /// kernel, at every dim 1..=200 and every slice offset 0..8 (unaligned
    /// loads must not change the fold order).
    #[test]
    fn pairwise_ops_bitwise(dim in 1usize..=200, off in 0usize..8,
                            data in prop::collection::vec(-8.0f32..8.0, 416)) {
        let a = &data[off..off + dim];
        let b = &data[208 + off..208 + off + dim];
        for (name, kern) in kernels_under_test() {
            prop_assert!(kern.dot(a, b).to_bits() == ref_dot(a, b).to_bits(), "dot {name}");
            prop_assert!(kern.l2_sq(a, b).to_bits() == ref_l2(a, b).to_bits(), "l2 {name}");
            let [aa, bb, ab] = kern.dot3(a, b);
            prop_assert!(aa.to_bits() == ref_dot(a, a).to_bits(), "dot3.aa {name}");
            prop_assert!(bb.to_bits() == ref_dot(b, b).to_bits(), "dot3.bb {name}");
            prop_assert!(ab.to_bits() == ref_dot(a, b).to_bits(), "dot3.ab {name}");
        }
    }

    /// Zero vectors are exact fixed points (0.0 dot, l2 equal to the other
    /// vector's squared norm) on every kernel.
    #[test]
    fn zero_vectors_bitwise(dim in 1usize..=200,
                            data in prop::collection::vec(-8.0f32..8.0, 200)) {
        let a = &data[..dim];
        let z = vec![0.0f32; dim];
        for (name, kern) in kernels_under_test() {
            prop_assert!(kern.dot(a, &z).to_bits() == 0.0f32.to_bits(), "dot-zero {name}");
            prop_assert!(kern.l2_sq(a, &z).to_bits() == ref_l2(a, &z).to_bits(),
                         "l2-zero {name}");
            prop_assert!(kern.l2_sq(&z, &z).to_bits() == 0.0f32.to_bits(),
                         "l2-zero-zero {name}");
        }
    }

    /// The batched block entry points produce exactly the per-row results,
    /// in row order, for every kernel.
    #[test]
    fn blocks_match_per_row_bitwise(dim in 1usize..=64, rows in 0usize..20,
                                    data in prop::collection::vec(-4.0f32..4.0, 1344)) {
        let query = &data[..dim];
        let block = &data[64..64 + rows * dim];
        let mut scores = Vec::new();
        for (name, kern) in kernels_under_test() {
            kern.l2_sq_block(query, block, dim, &mut scores);
            prop_assert_eq!(scores.len(), rows);
            for (j, row) in block.chunks_exact(dim).enumerate() {
                prop_assert!(scores[j].to_bits() == ref_l2(query, row).to_bits(),
                             "l2 block row {j} {name}");
            }
            kern.dot_block(query, block, dim, &mut scores);
            for (j, row) in block.chunks_exact(dim).enumerate() {
                prop_assert!(scores[j].to_bits() == ref_dot(query, row).to_bits(),
                             "dot block row {j} {name}");
            }
        }
    }

    /// SQ8: encode/decode roundtrips within half a quantization step, and
    /// the asymmetric distance (single and block form) is bit-identical to
    /// the legacy sequential loop on every kernel.
    #[test]
    fn sq8_roundtrip_and_bitwise(dim in 1usize..=200, rows in 1usize..5,
                                 data in prop::collection::vec(-8.0f32..8.0, 1200)) {
        let raw = &data[..rows * dim];
        let query = &data[1000 - dim..1000];
        let (mins, scales) = train_sq8(raw, dim);
        let mut codes = vec![0u8; rows * dim];
        for (i, v) in raw.chunks_exact(dim).enumerate() {
            encode_sq8(v, &mins, &scales, &mut codes[i * dim..(i + 1) * dim]);
        }
        // Roundtrip: dequantized values sit within half a step of the
        // original (all training values are in range, so no clamping).
        for (i, v) in raw.chunks_exact(dim).enumerate() {
            for d in 0..dim {
                let x = mins[d] + codes[i * dim + d] as f32 * scales[d];
                prop_assert!((x - v[d]).abs() <= scales[d] * 0.5 + 1e-5,
                             "roundtrip dim {}: {} vs {} (step {})", d, x, v[d], scales[d]);
            }
        }
        let mut scores = Vec::new();
        for (name, kern) in kernels_under_test() {
            for (i, code) in codes.chunks_exact(dim).enumerate() {
                let want = ref_sq8(query, code, &mins, &scales);
                prop_assert!(kern.sq8_l2(query, code, &mins, &scales).to_bits()
                    == want.to_bits(), "sq8 row {i} {name}");
            }
            kern.sq8_l2_block(query, &codes, &mins, &scales, dim, &mut scores);
            prop_assert_eq!(scores.len(), rows);
            for (i, code) in codes.chunks_exact(dim).enumerate() {
                prop_assert!(scores[i].to_bits()
                    == ref_sq8(query, code, &mins, &scales).to_bits(),
                    "sq8 block row {i} {name}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The eight-row block pass, exhaustively
// ---------------------------------------------------------------------------

/// Decimal constants: none is a short binary fraction, so every product and
/// almost every sum below rounds — a wrong association shows in the bits.
const POOL: [f32; 16] = [
    0.1, -0.7, 1.3, 3.3, -2.9, 0.333, 7.77, -0.013, 0.001, 123.456, -45.6, 0.9, 2.2, -6.1, 0.57,
    11.1,
];
const SPECIALS: [f32; 5] = [0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];

/// Element `i` of stream `salt`: a pool constant times 1..=7, or (one in
/// sixteen, when `specials`) a zero, an infinity or a NaN.
fn value(i: usize, salt: usize, specials: bool) -> f32 {
    let h = (i.wrapping_mul(0x9E37_79B9).wrapping_add(salt.wrapping_mul(0x85EB_CA6B))) >> 7;
    if specials && h.is_multiple_of(16) {
        SPECIALS[(h / 16) % SPECIALS.len()]
    } else {
        POOL[h % POOL.len()] * (1 + (h / 256) % 7) as f32
    }
}

/// Same bits — or both NaN: which payload survives `NaN + NaN` depends on
/// operand order, which the compiler may swap in any of the loops compared.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// `l2_sq_block` / `dot_block` against the legacy loops for every row count
/// 0..=41 (no group of eight up to five, every leftover 0..=7), every dim
/// 1..=67 (no chunk up to eight, every tail 0..=7) and every slice offset
/// 0..8. Each block is the tail of a boxed slice, so its last row ends
/// exactly where the allocation does: the masked tail load of that row has
/// nothing behind it to read.
#[test]
fn blocks_match_legacy_loops_on_every_shape() {
    let kernels = kernels_under_test();
    let mut scores = Vec::new();
    for specials in [false, true] {
        for rows in 0..=41usize {
            for dim in 1..=67usize {
                for off in 0..8usize {
                    let salt = rows * 1000 + dim * 10 + off;
                    let buf: Box<[f32]> =
                        (0..off + rows * dim).map(|i| value(i, salt, specials)).collect();
                    let block = &buf[off..];
                    let qbuf: Box<[f32]> =
                        (0..off + dim).map(|i| value(i, salt + 5, specials)).collect();
                    let query = &qbuf[off..];
                    let want_l2: Vec<f32> =
                        block.chunks_exact(dim).map(|row| ref_l2(query, row)).collect();
                    let want_dot: Vec<f32> =
                        block.chunks_exact(dim).map(|row| ref_dot(query, row)).collect();
                    for (name, kern) in &kernels {
                        let tag = format!("{name} rows {rows} dim {dim} off {off}");
                        kern.l2_sq_block(query, block, dim, &mut scores);
                        assert_eq!(scores.len(), rows, "l2 {tag}");
                        for (j, (&got, &want)) in scores.iter().zip(&want_l2).enumerate() {
                            assert!(same(got, want), "l2 {tag} row {j}: {got} vs {want}");
                        }
                        kern.dot_block(query, block, dim, &mut scores);
                        assert_eq!(scores.len(), rows, "dot {tag}");
                        for (j, (&got, &want)) in scores.iter().zip(&want_dot).enumerate() {
                            assert!(same(got, want), "dot {tag} row {j}: {got} vs {want}");
                        }
                    }
                }
            }
        }
    }
}
