//! Minimal dense symmetric linear algebra for GP regression.
//!
//! **Panel-major storage.** Inside the crate a kernel matrix and its
//! Cholesky factor live in 4-row panels: row `i`, column `k` of an
//! `n × n` matrix sits at `at(n, i, k) = ((i / 4)·n + k)·4 + i % 4`.
//! Panel `p` holds rows `4p..4p + 4` as `n` columns of four adjacent lanes,
//! and a buffer holds `n.div_ceil(4)` panels (`panel_len`). The lanes past
//! row `n − 1` in a partial last panel are padding. No result depends on
//! anything but the lower triangle (diagonal included): a panel's chains
//! also run in its lanes above the diagonal and in its padding, and those
//! are never written back above the diagonal. The one public
//! routine, [`cholesky_in_place`], takes the usual row-major matrix and
//! packs it into panels around the same factorization.
//!
//! **Bitwise contract.** Every routine here produces, element for element,
//! the IEEE-754 result of the textbook scalar loop: each output is one
//! subtraction chain `v -= a[i][k] * b[k]` taken in ascending `k`, then one
//! division or square root. Nothing is reassociated, fused (`mul_add`) or
//! approximated, so tuning histories are constants of the source, not of
//! the schedule. `reference.rs` keeps the scalar loops as test oracles,
//! reads the factor through `at`, and compares `to_bits()`.
//!
//! **Why panels.** One chain is latency-bound: each subtraction waits ~4
//! cycles for the previous one. Different output elements are
//! independent, so the left-looking factorization runs many chains per
//! pass. It walks the diagonal one panel (four columns) at a time. The
//! panel's own columns are factored one by one, each chain in the panel's
//! lanes. Then all four columns of the panels below are computed in one
//! pass per pair of panels: each step loads one 4-lane column of each
//! panel and row `k` of the diagonal panel, and does 32 multiply-subtracts
//! in eight 4-lane chains, each loaded column feeding four of them. After
//! the `k < j` terms each chain subtracts its in-block couplings
//! `L[i][j + c′] · L[j + c][j + c′]` in ascending `c′` and divides, which
//! is the scalar loop's chain continued in ascending `k`. When a column of
//! the diagonal panel is not positive definite, its earlier columns are
//! finished below one column at a time before the error returns, so the
//! partial factor is the scalar loop's.
//! The forward substitution runs the same chains one panel at a time (a
//! panel needs the solution of every panel before it), for any number of
//! right-hand sides at once: the posterior solves a block of eight
//! queries' `k*` in one pass over each panel column, four rows × eight
//! columns of chains, 1.3 µs per right-hand side at n = 180 (compiled
//! for AVX2) against 5–7 µs solved alone. The backward substitution stays scalar: there
//! each chain *starts* with the element the previous chain finishes.
//!
//! **Instruction set.** The factorization (and the posterior's block
//! solve) runs through `vecdata::kernel::Kernel::run`: on an AVX2 host the
//! same source is compiled for 256-bit registers, where the eight chains
//! of a pass fit in 16 registers; otherwise it is compiled for SSE2.
//! Neither enables `fma`,
//! and Rust never contracts `a * b - c`, so both run the same IEEE
//! operations and return the same bits. This crate has no `unsafe`.
//!
//! Measured on the reference host (2.1 GHz Xeon, one thread, 22-dimension
//! Matérn kernels, minimum of 301 alternating rounds) against the previous
//! loop, which computed one column of four panels per pass: 93 against
//! 175 µs at n = 180, 32 against 55 µs at n = 120, 9.8 against 16.2 µs at
//! n = 76, 2.0 against 2.9 µs at n = 40, level at n = 20, and 20–40 ns
//! slower at n ≤ 12 (0.32 against 0.28 µs at n = 12). Compiled for SSE2
//! the same loop is level from n = 76 up, 0.92× at n = 40 and 1.07–1.20×
//! at n ≤ 20: its eight 4-lane chains do not fit in sixteen 128-bit
//! registers. The previous loop compiled for AVX2 takes 0.75× its SSE2
//! time at n = 180; each of its loaded panel columns feeds one chain.

/// Error raised when a matrix is not (numerically) positive definite even
/// after the maximum jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotPositiveDefinite;

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is not positive definite")
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Rows per panel.
pub(crate) const LANES: usize = 4;

/// Position of row `i`, column `k` in an `n × n` panel-major buffer.
#[inline]
pub(crate) fn at(n: usize, i: usize, k: usize) -> usize {
    ((i / LANES) * n + k) * LANES + i % LANES
}

/// Length of an `n × n` panel-major buffer.
pub(crate) fn panel_len(n: usize) -> usize {
    n.div_ceil(LANES) * LANES * n
}

/// `v[p][t] − Σₖ panels[p][k][t] · b(k)` over `k < len` for `P` panels:
/// `4·P` independent chains, each subtracting one term at a time in
/// ascending `k`.
#[inline(always)]
fn sub_chains<const P: usize>(
    mut v: [[f64; LANES]; P],
    panels: [&[[f64; LANES]]; P],
    len: usize,
    b: impl Fn(usize) -> f64,
) -> [[f64; LANES]; P] {
    let panels = panels.map(|panel| &panel[..len]);
    for k in 0..len {
        let bk = b(k);
        for (vp, panel) in v.iter_mut().zip(&panels) {
            for (v, a) in vp.iter_mut().zip(panel[k]) {
                *v -= a * bk;
            }
        }
    }
    v
}

/// Column `j` of row `j`'s own panel: the diagonal's chain in its lane,
/// the rows below `j` of the panel in the lanes after it.
#[inline(always)]
fn diagonal_step(own: &mut [[f64; LANES]], j: usize) -> Result<(), NotPositiveDefinite> {
    let lane = j % LANES;
    let [v] = sub_chains([own[j]], [&*own], j, |k| own[k][lane]);
    let diag = v[lane];
    if diag <= 0.0 || !diag.is_finite() {
        return Err(NotPositiveDefinite);
    }
    let diag = diag.sqrt();
    own[j][lane] = diag;
    for t in lane + 1..LANES {
        own[j][t] = v[t] / diag;
    }
    Ok(())
}

/// Columns `j..j + 4` (`j ≡ 0 mod 4`) of the `P` panels in `group`, given
/// the factored diagonal block in `own` (row `j`'s panel). Each element
/// runs the scalar loop's chain: the `k < j` terms, with each loaded
/// column of a panel feeding its four column chains, then the in-block
/// couplings `L[i][j + c′] · L[j + c][j + c′]` in ascending `c′`, then the
/// division.
#[inline(always)]
fn block_pass<const P: usize>(
    group: &mut [[f64; LANES]],
    n: usize,
    j: usize,
    own: &[[f64; LANES]],
) {
    let mut panels = group.chunks_exact_mut(n);
    let mut panels: [&mut [[f64; LANES]]; P] =
        std::array::from_fn(|_| panels.next().expect("the group holds P panels"));
    let mut v: [[[f64; LANES]; LANES]; P] =
        std::array::from_fn(|p| std::array::from_fn(|c| panels[p][j + c]));
    // Indexed loops with constant bounds, `c` outside `p`: the compiler
    // unrolls them and keeps all 4·P column chains in registers. In the
    // SSE2 compilation, iterator zips stored the chains to the stack on
    // every step, and `p` outside `c` was 5–10 % slower.
    let (row, block) = (&own[..j], &own[j..j + LANES]);
    let columns = panels.each_ref().map(|panel| &panel[..j]);
    for k in 0..j {
        for c in 0..LANES {
            for p in 0..P {
                for t in 0..LANES {
                    v[p][c][t] -= columns[p][k][t] * row[k][c];
                }
            }
        }
    }
    for vp in &mut v {
        for c in 0..LANES {
            for c2 in 0..LANES {
                if c2 < c {
                    for t in 0..LANES {
                        vp[c][t] -= vp[c2][t] * block[c2][c];
                    }
                }
            }
            for t in 0..LANES {
                vp[c][t] /= block[c][c];
            }
        }
    }
    for (panel, vp) in panels.iter_mut().zip(v) {
        panel[j..j + LANES].copy_from_slice(&vp);
    }
}

/// In-place left-looking Cholesky factorization `A = L Lᵀ` of a
/// panel-major buffer: the lower triangle is replaced by `L`. On failure
/// the columns before the offending one hold their part of `L` and the
/// rest are untouched. Compiled for the dispatched kernel's instruction
/// set (`Kernel::run`); every tier returns the same bits.
pub(crate) fn cholesky_panels(a: &mut [f64], n: usize) -> Result<(), NotPositiveDefinite> {
    vecdata::kernel::active().run(
        #[inline(always)]
        || cholesky_blocked(a, n),
    )
}

/// The factorization one diagonal panel at a time: the panel's own
/// columns (its diagonal block) first, then all four columns of the
/// panels below it in one pass per pair of panels.
#[inline(always)]
pub(crate) fn cholesky_blocked(a: &mut [f64], n: usize) -> Result<(), NotPositiveDefinite> {
    debug_assert_eq!(a.len(), panel_len(n));
    let (columns, _) = a.as_chunks_mut::<LANES>();
    for j in (0..n).step_by(LANES) {
        let (upto, below) = columns.split_at_mut((j / LANES + 1) * n);
        let own = &mut upto[(j / LANES) * n..];
        for c in 0..(n - j).min(LANES) {
            if let Err(e) = diagonal_step(own, j + c) {
                // Finish the block's earlier columns below, one column of
                // one panel at a time, so that every column before the
                // offending one holds its part of `L`.
                for jc in j..j + c {
                    let lane = jc % LANES;
                    for panel in below.chunks_exact_mut(n) {
                        let [v] = sub_chains([panel[jc]], [&*panel], jc, |k| own[k][lane]);
                        panel[jc] = v.map(|v| v / own[jc][lane]);
                    }
                }
                return Err(e);
            }
        }
        // A partial last panel has no panels below it.
        for group in below.chunks_mut(2 * n) {
            if group.len() == 2 * n {
                block_pass::<2>(group, n, j, own);
            } else {
                block_pass::<1>(group, n, j, own);
            }
        }
    }
    Ok(())
}

/// In-place Cholesky factorization `A = L Lᵀ` of a row-major `n × n`
/// matrix: the lower triangle of `a` is replaced by `L` and the strict
/// upper triangle is left untouched. On failure the columns before the
/// offending one hold their part of `L`. Packs the lower triangle into
/// panels, runs the crate's one factorization and unpacks it.
pub fn cholesky_in_place(a: &mut [f64], n: usize) -> Result<(), NotPositiveDefinite> {
    assert_eq!(a.len(), n * n, "not an {n} × {n} matrix");
    let lower = || (0..n).flat_map(|i| (0..=i).map(move |k| (i, k)));
    let mut panels = vec![0.0; panel_len(n)];
    for (i, k) in lower() {
        panels[at(n, i, k)] = a[i * n + k];
    }
    let result = cholesky_panels(&mut panels, n);
    for (i, k) in lower() {
        a[i * n + k] = panels[at(n, i, k)];
    }
    result
}

/// Cholesky with escalating diagonal jitter. `fill` writes the matrix
/// (lower triangle, panel-major) into `a`; it is factorized in place, and
/// when that fails `fill` is called again and `A + jitter·I` tried, with
/// jitter growing from `1e-10` to `1e-3` relative to the mean diagonal.
/// Refilling instead of keeping a pristine copy holds one `n × n` buffer,
/// not two; retries are rare (duplicate rows at near-zero noise). Returns
/// the jitter actually used.
pub(crate) fn cholesky_jittered(
    a: &mut [f64],
    n: usize,
    mut fill: impl FnMut(&mut [f64]),
) -> Result<f64, NotPositiveDefinite> {
    fill(a);
    let mean_diag = (0..n).map(|i| a[at(n, i, i)]).sum::<f64>().max(1e-300) / n.max(1) as f64;
    let mut jitter = 0.0f64;
    for attempt in 0..9 {
        if attempt > 0 {
            fill(a);
            jitter = mean_diag * 1e-10 * 10f64.powi(attempt - 1);
            for i in 0..n {
                a[at(n, i, i)] += jitter;
            }
        }
        if cholesky_panels(a, n).is_ok() {
            return Ok(jitter);
        }
    }
    Err(NotPositiveDefinite)
}

/// Solve `L x = b` in place for a panel-major lower-triangular `L`
/// (forward substitution): `x` holds `b` on entry and the solution on
/// return. The one-column case of [`solve_lower_lanes`].
pub(crate) fn solve_lower_in_place(l: &[f64], n: usize, x: &mut [f64]) {
    solve_lower_lanes::<1>(l, n, x.as_chunks_mut().0);
}

/// Solve `L X = B` in place for `C` right-hand sides at once: `x[i][c]`
/// is element `i` of right-hand side `c`. One pass over each panel column
/// serves every right-hand side: the panel's four rows of all `C` columns
/// are `4·C` chains in `C`-lane rows, each element of a loaded 4-lane
/// column of `L` feeding the `C` chains of its row. Every chain subtracts
/// in ascending `k`, then runs the panel's own triangle and divides, so
/// each column equals its one-column solve bit for bit.
#[inline(always)]
pub(crate) fn solve_lower_lanes<const C: usize>(l: &[f64], n: usize, x: &mut [[f64; C]]) {
    debug_assert_eq!(x.len(), n);
    let (columns, _) = l.as_chunks::<LANES>();
    for (p, panel) in columns.chunks_exact(n).enumerate() {
        let first = p * LANES;
        let (solved, rest) = x.split_at_mut(first);
        // `v[t]`: row `first + t` of every right-hand side. Indices are
        // constants once the loops unroll, so the chains stay in
        // registers. Padding rows run on zero and a unit diagonal, and are
        // never written back.
        let mut v: [[f64; C]; LANES] =
            std::array::from_fn(|t| rest.get(t).copied().unwrap_or([0.0; C]));
        // Indexed, with each column and row copied out: an iterator zip
        // here compiled to scalar chains through the stack.
        for k in 0..first {
            let (column, xk) = (panel[k], solved[k]);
            for t in 0..LANES {
                for c in 0..C {
                    v[t][c] -= column[t] * xk[c];
                }
            }
        }
        // The panel's own triangle, continuing each chain in ascending k.
        let triangle: [[f64; LANES]; LANES] =
            std::array::from_fn(|s| panel.get(first + s).copied().unwrap_or([1.0; LANES]));
        for t in 0..LANES {
            for s in 0..t {
                for c in 0..C {
                    v[t][c] -= triangle[s][t] * v[s][c];
                }
            }
            for c in 0..C {
                v[t][c] /= triangle[t][t];
            }
        }
        for (row, v) in rest.iter_mut().zip(v) {
            *row = v;
        }
    }
}

/// Solve `Lᵀ x = b` in place for a panel-major lower-triangular `L`
/// (backward substitution). Element `i` subtracts column `i` below the
/// diagonal in ascending row order: the rest of its own panel's column,
/// then one 4-lane column per panel below.
pub(crate) fn solve_lower_transpose_in_place(l: &[f64], n: usize, x: &mut [f64]) {
    debug_assert_eq!(x.len(), n);
    let (columns, _) = l.as_chunks::<LANES>();
    for i in (0..n).rev() {
        let next = (i / LANES + 1) * LANES;
        let own = columns[at(n, i, i) / LANES];
        let mut v = x[i];
        for k in i + 1..next.min(n) {
            v -= own[k % LANES] * x[k];
        }
        let below = columns.get(at(n, next, i) / LANES..).unwrap_or_default().iter().step_by(n);
        for (column, xs) in below.zip(x.get(next..).unwrap_or_default().chunks(LANES)) {
            for (a, xk) in column.iter().zip(xs) {
                v -= a * xk;
            }
        }
        x[i] = v / own[i % LANES];
    }
}

/// Solve `A x = b` in place given the panel-major Cholesky factor `L` of
/// `A`.
pub(crate) fn solve_cholesky_in_place(l: &[f64], n: usize, x: &mut [f64]) {
    solve_lower_in_place(l, n, x);
    solve_lower_transpose_in_place(l, n, x);
}

/// `Σ log L[i][i]` — half the log-determinant of `A = L Lᵀ`, for a
/// panel-major `L`.
pub(crate) fn log_det_half(l: &[f64], n: usize) -> f64 {
    (0..n).map(|i| l[at(n, i, i)].ln()).sum()
}

/// Dot product.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> (Vec<f64>, usize) {
        // A = M Mᵀ for a full-rank M → SPD.
        let m = [2.0, 0.0, 0.0, 1.0, 3.0, 0.0, 0.5, -1.0, 1.5];
        let n = 3;
        let mut a = vec![0.0; 9];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    a[i * n + j] += m[i * n + k] * m[j * n + k];
                }
            }
        }
        (a, n)
    }

    /// Factor the row-major `a` in panels, returning the factor and the
    /// jitter used.
    fn factor(a: &[f64], n: usize) -> Result<(Vec<f64>, f64), NotPositiveDefinite> {
        let mut l = vec![0.0; panel_len(n)];
        let fill = |w: &mut [f64]| {
            for i in 0..n {
                for k in 0..=i {
                    w[at(n, i, k)] = a[i * n + k];
                }
            }
        };
        let jitter = cholesky_jittered(&mut l, n, fill)?;
        Ok((l, jitter))
    }

    #[test]
    fn cholesky_reconstructs() {
        let (a, n) = spd3();
        let (l, jitter) = factor(&a, n).unwrap();
        assert_eq!(jitter, 0.0);
        for i in 0..n {
            for j in 0..n {
                let mut v = 0.0;
                for k in 0..=j.min(i) {
                    v += l[at(n, i, k)] * l[at(n, j, k)];
                }
                assert!((v - a[i * n + j]).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn solve_matches_direct() {
        let (a, n) = spd3();
        let mut x = [1.0, -2.0, 0.5];
        let b = x;
        let (l, _) = factor(&a, n).unwrap();
        solve_cholesky_in_place(&l, n, &mut x);
        // Verify A x = b.
        for i in 0..n {
            let got: f64 = (0..n).map(|j| a[i * n + j] * x[j]).sum();
            assert!((got - b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn log_det_matches() {
        let (a, n) = spd3();
        let (l, _) = factor(&a, n).unwrap();
        // det(A) = det(M)² = (2*3*1.5)² = 81; log_det_half = 0.5 ln 81.
        assert!((log_det_half(&l, n) - 0.5 * 81f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn jitter_rescues_singular() {
        // Rank-deficient matrix: ones everywhere.
        let a = vec![1.0; 9];
        let (l, jitter) = factor(&a, 3).unwrap();
        assert!(jitter > 0.0);
        assert!(l[at(3, 0, 0)] > 0.0);
    }

    #[test]
    fn hopeless_matrix_fails() {
        // Negative-definite diagonal cannot be rescued by relative jitter.
        let a = vec![-1.0, 0.0, 0.0, -1.0];
        assert!(factor(&a, 2).is_err());
    }

    #[test]
    fn triangular_solves_roundtrip() {
        let n = 2;
        let mut l = vec![0.0; panel_len(n)];
        (l[at(n, 0, 0)], l[at(n, 1, 0)], l[at(n, 1, 1)]) = (2.0, 1.0, 3.0);
        let mut y = [4.0, 10.0];
        solve_lower_in_place(&l, n, &mut y);
        assert!((y[0] - 2.0).abs() < 1e-12);
        assert!((y[1] - (10.0 - 2.0) / 3.0).abs() < 1e-12);
        let mut z = y;
        solve_lower_transpose_in_place(&l, n, &mut z);
        // Verify LᵀLᵀ⁻¹ y = y.
        assert!((2.0 * z[0] + 1.0 * z[1] - y[0]).abs() < 1e-12);
    }
}
