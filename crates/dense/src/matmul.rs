//! Matrix multiplication, transpose, and the symmetric cross-product.
//!
//! Every matrix-matrix product in this module — `matmul`, `crossprod`,
//! `tcrossprod`, `t_matmul`, `matmul_t` — bottoms out in the packed-panel,
//! register-blocked SIMD microkernel of [`crate::simd`]: the right operand
//! is packed once into `KC x NR` column panels, the left operand is read
//! in place, and an `MR x NR` register tile is updated with broadcast-FMA
//! (AVX2 where detected, a bit-identical scalar-FMA microkernel with the
//! SIMD gate off, plain multiply-add on hardware without FMA). Transposed
//! drivers absorb their transpose into the read strides, so no operand is
//! ever materialized transposed.
//!
//! **Parallelism**: output rows are split into bands executed on the
//! shared [`morpheus_runtime`] executor. Each output element is
//! accumulated by exactly one worker in the exact ascending-k order
//! regardless of band or tile alignment. The tall reductions —
//! `t_matmul`, `crossprod` and `vecmat`, whose k is the input's row
//! count — go one step further once the input spans at least two fixed
//! row blocks ([`tall_block_rows`]): the runtime's
//! [`Executor::reduce_row_blocks`] gives each block its own partial and
//! sums the partials in ascending block order, so the input is streamed
//! once instead of once per output band. Either
//! way the per-element order is ascending k within fixed row blocks,
//! blocks combined in ascending order — a function of the shape alone,
//! independent of worker count and ISA — so the parallel kernels agree
//! with the single-threaded path **bit for bit** (and
//! `Runtime::set_threads(1)` reproduces the full-pool results exactly).
//!
//! Every kernel draws its workers from [`Runtime::executor`], which
//! already accounts for threads claimed by enclosing parallel sections
//! (e.g. the chunked backend), so the two levels compose without
//! oversubscription; small products stay on the caller
//! ([`Executor::gated`]).

use crate::simd::{self, GemmBand, GemmIsa, MatSrc};
use crate::DenseMatrix;
use morpheus_runtime::{Executor, Runtime};
use std::ops::Range;

/// Row-block height of a tall reduction whose per-block partial is
/// `width` columns wide (`p` for `Aᵀ X`, `d` for `crossprod`, 1 for
/// `vecmat`). A function of the shape only — never of the worker count —
/// so the blocks, and with them the result bits, are fixed by the shape.
/// At least 1024 rows, and at least `8 · width` so a block's `d x width`
/// partial stays under an eighth of the `rows x d` input it summarizes.
pub fn tall_block_rows(width: usize) -> usize {
    (8 * width).max(1024)
}

/// `aᵀ x` for a row-major `n x d` buffer `a` and an n-vector `x`: a
/// contiguous axpy per input row (unfused multiply-add, ascending rows).
/// Inputs shorter than two row blocks split the d outputs into bands;
/// taller ones reduce fixed row blocks ([`Executor::reduce_row_blocks`]),
/// so `a` is streamed once. Every `0 · ±inf` or `0 · NaN` term is accumulated.
fn t_matvec(a: &[f64], d: usize, x: &[f64], ex: &Executor) -> Vec<f64> {
    let n = x.len();
    let mut out = vec![0.0; d];
    if d == 0 || n == 0 {
        return out;
    }
    // Columns `j0 .. j0 + part.len()` of `Σ_{i ∈ rows} x[i] · a[i, :]`.
    let axpy = |rows: Range<usize>, j0: usize, part: &mut [f64]| {
        for i in rows {
            let xv = x[i];
            let arow = &a[i * d + j0..i * d + j0 + part.len()];
            for (o, &av) in part.iter_mut().zip(arow) {
                *o += xv * av;
            }
        }
    };
    let ex = ex.gated(n * d);
    let h = tall_block_rows(1);
    if n < 2 * h {
        ex.par_rows(&mut out, 1, |j0, chunk| axpy(0..n, j0, chunk));
    } else {
        ex.reduce_row_blocks(&mut out, n, h, |rows, part| axpy(rows, 0, part));
    }
    out
}

/// `out (d x p, zeroed) = aᵀ b` for row-major `a` (`n x d`) and `b`
/// (`n x p`) on the packed-panel kernel; `tri_upper` computes the upper
/// triangle only (`crossprod`, where `a` and `b` are the same buffer).
/// Inputs shorter than two row blocks run [`gemm_driver`] over output-row
/// bands; taller ones give each row block its own partial: the block
/// packs only its own rows of `b` and runs one [`GemmBand`] over all d
/// output rows, and the partials are summed in ascending block order.
#[allow(clippy::too_many_arguments)]
fn tall_t_gemm(
    a: &[f64],
    d: usize,
    b: &[f64],
    p: usize,
    n: usize,
    tri_upper: bool,
    out: &mut [f64],
    ex: &Executor,
) {
    // `aᵀ` and `b` restricted to input rows `rows`.
    let views = |rows: Range<usize>| {
        let at = MatSrc {
            data: &a[rows.start * d..rows.end * d],
            rs: 1,
            cs: d,
        };
        let bs = MatSrc {
            data: &b[rows.start * p..rows.end * p],
            rs: p,
            cs: 1,
        };
        (at, bs)
    };
    let h = tall_block_rows(p);
    if n < 2 * h {
        let (at, bs) = views(0..n);
        gemm_driver(at, bs, out, n, p, tri_upper, ex);
        return;
    }
    let isa = GemmIsa::active();
    ex.reduce_row_blocks(out, n, h, |rows, part| {
        let k = rows.len();
        let (at, bs) = views(rows);
        let packed = simd::pack_b(bs, k, p);
        GemmBand {
            a: at,
            b: &packed,
            i0: 0,
            tri_upper,
        }
        .run(isa, part);
    });
}

/// Packs `b`, then runs the packed-panel GEMM band-parallel on `ex`:
/// `out[r, :] += Σ_kk a(r, kk) * b(kk, :)` for the row-major output with
/// `n` columns. `tri_upper` skips tiles entirely below the diagonal (the
/// symmetric drivers mirror afterwards).
fn gemm_driver(
    a: MatSrc<'_>,
    b: MatSrc<'_>,
    out: &mut [f64],
    k: usize,
    n: usize,
    tri_upper: bool,
    ex: &Executor,
) {
    let isa = GemmIsa::active();
    let packed = simd::pack_b(b, k, n);
    ex.par_rows(out, n, |i0, chunk| {
        GemmBand {
            a,
            b: &packed,
            i0,
            tri_upper,
        }
        .run(isa, chunk);
    });
}

impl DenseMatrix {
    /// Matrix-matrix product `self * other`.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul: inner dimensions differ ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let (m, k) = self.shape();
        let n = other.cols();
        if n == 1 {
            // Matrix-vector products degrade the ikj kernel to length-1
            // inner loops; route through the contiguous dot-product kernel
            // (this is the hot path of every GLM iteration).
            return DenseMatrix::col_vector(&self.matvec(other.as_slice()));
        }
        if m == 1 {
            // One output row: packing all of B (zero-padded to NR panels)
            // costs as much as the product itself. Stream B exactly once
            // with a contiguous axpy per input row instead — this is
            // `colSums(K) * B` in the factorized column-sum rewrite.
            return DenseMatrix::row_vector(&other.vecmat(self.as_slice()));
        }
        let mut out = DenseMatrix::zeros(m, n);
        if m == 0 || n == 0 || k == 0 {
            return out;
        }
        let ex = Runtime::executor().gated(m * k * n);
        let a = MatSrc {
            data: self.as_slice(),
            rs: k,
            cs: 1,
        };
        let b = MatSrc {
            data: other.as_slice(),
            rs: n,
            cs: 1,
        };
        gemm_driver(a, b, out.as_mut_slice(), k, n, false, &ex);
        out
    }

    /// Matrix-vector product `self * x`, returning a column vector. Output
    /// rows are independent dot products, parallelized over row bands.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.cols(),
            "matvec: vector length {} != cols {}",
            x.len(),
            self.cols()
        );
        let (m, k) = self.shape();
        let mut out = vec![0.0; m];
        let a = self.as_slice();
        let ex = Runtime::executor().gated(m * k);
        ex.par_rows(&mut out, 1, |i0, chunk| {
            for (o, i) in chunk.iter_mut().zip(i0..) {
                *o = simd::dot(&a[i * k..(i + 1) * k], x);
            }
        });
        out
    }

    /// Vector-matrix product `x^T * self`, returning a row vector: the
    /// tall reduction `selfᵀ x`, bit-identical at any worker count.
    ///
    /// # Panics
    /// Panics if `x.len() != self.rows()`.
    pub fn vecmat(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.rows(),
            "vecmat: vector length {} != rows {}",
            x.len(),
            self.rows()
        );
        t_matvec(self.as_slice(), self.cols(), x, &Runtime::executor())
    }

    /// Matrix transpose `T^t`.
    pub fn transpose(&self) -> DenseMatrix {
        let (m, n) = self.shape();
        let mut out = DenseMatrix::zeros(n, m);
        // Blocked transpose keeps both access patterns within cache lines.
        const B: usize = 32;
        let src = self.as_slice();
        let dst = out.as_mut_slice();
        for ib in (0..m).step_by(B) {
            for jb in (0..n).step_by(B) {
                for i in ib..(ib + B).min(m) {
                    for j in jb..(jb + B).min(n) {
                        dst[j * m + i] = src[i * n + j];
                    }
                }
            }
        }
        out
    }

    /// The cross-product `crossprod(T) = T^t * T` (the Gram matrix of the
    /// columns), exploiting symmetry.
    ///
    /// The packed kernel reads the left operand through a transposed view
    /// (`rs = 1, cs = d`) and skips register tiles entirely below the
    /// diagonal — roughly half the arithmetic, tile-granular, exactly the
    /// saving the paper's "efficient" rewrite (Algorithm 2) relies on.
    /// A tall input is reduced in fixed row blocks of
    /// [`tall_block_rows`]`(d)` rows, each packing only its own rows, so
    /// it is read once; every upper-triangle element accumulates in
    /// ascending row order within a block, blocks combined in ascending
    /// order, regardless of the worker count. The triangle is mirrored
    /// after the combine.
    pub fn crossprod(&self) -> DenseMatrix {
        let (n, d) = self.shape();
        let mut out = DenseMatrix::zeros(d, d);
        if d == 0 || n == 0 {
            return out;
        }
        let ex = Runtime::executor().gated(n * d * (d + 1) / 2);
        let data = self.as_slice();
        tall_t_gemm(data, d, data, d, n, true, out.as_mut_slice(), &ex);
        let o = out.as_mut_slice();
        for i in 0..d {
            for j in (i + 1)..d {
                o[j * d + i] = o[i * d + j];
            }
        }
        out
    }

    /// The outer cross-product `tcrossprod(T) = T * T^t` (Gram matrix of the
    /// rows), exploiting symmetry: the packed kernel reads the right
    /// operand through a transposed view, skips register tiles entirely
    /// below the diagonal, and the upper triangle is mirrored afterwards.
    pub fn tcrossprod(&self) -> DenseMatrix {
        let (n, d) = self.shape();
        let mut out = DenseMatrix::zeros(n, n);
        if n == 0 {
            return out;
        }
        let ex = Runtime::executor().gated(n * (n + 1) / 2 * d.max(1));
        let data = self.as_slice();
        if d > 0 {
            let a = MatSrc { data, rs: d, cs: 1 };
            let b = MatSrc { data, rs: 1, cs: d };
            gemm_driver(a, b, out.as_mut_slice(), d, n, true, &ex);
        }
        let o = out.as_mut_slice();
        for i in 0..n {
            for j in (i + 1)..n {
                o[j * n + i] = o[i * n + j];
            }
        }
        out
    }

    /// `self^t * other` without materializing the transpose.
    ///
    /// A tall reduction over the shared row dimension: once `self` spans
    /// two row blocks of [`tall_block_rows`]`(p)` rows, each block
    /// accumulates its own `d x p` partial and the partials are summed in
    /// ascending block order, so `self` is streamed once rather than once
    /// per output band. A vector `other` runs a contiguous axpy per input
    /// row; a wider one runs the packed-panel kernel on each block's rows.
    /// The block height depends on `n` and `p` only, so output row `j`
    /// depends only on column `j` of `self` — and the bits never depend
    /// on the worker count.
    ///
    /// # Panics
    /// Panics if `self.rows() != other.rows()`.
    pub fn t_matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.rows(),
            other.rows(),
            "t_matmul: row counts differ ({} vs {})",
            self.rows(),
            other.rows()
        );
        let (n, d) = self.shape();
        let p = other.cols();
        let ex = Runtime::executor();
        if p == 1 {
            return DenseMatrix::col_vector(&t_matvec(self.as_slice(), d, other.as_slice(), &ex));
        }
        let mut out = DenseMatrix::zeros(d, p);
        if d == 0 || p == 0 || n == 0 {
            return out;
        }
        let ex = ex.gated(n * d * p);
        let (a, b) = (self.as_slice(), other.as_slice());
        tall_t_gemm(a, d, b, p, n, false, out.as_mut_slice(), &ex);
        out
    }

    /// `self * other^t` without materializing the transpose; output rows
    /// are independent, parallelized over row bands.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_t(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_t: column counts differ ({} vs {})",
            self.cols(),
            other.cols()
        );
        let (m, k) = self.shape();
        let n = other.rows();
        let mut out = DenseMatrix::zeros(m, n);
        if m == 0 || n == 0 {
            return out;
        }
        if k == 0 {
            return out;
        }
        let ex = Runtime::executor().gated(m * n * k);
        let a = MatSrc {
            data: self.as_slice(),
            rs: k,
            cs: 1,
        };
        let b = MatSrc {
            data: other.as_slice(),
            rs: 1,
            cs: k,
        };
        gemm_driver(a, b, out.as_mut_slice(), k, n, false, &ex);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]])
    }

    fn b() -> DenseMatrix {
        DenseMatrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]])
    }

    fn big(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut state = seed | 1;
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn matmul_known_product() {
        let c = a().matmul(&b());
        let expected = DenseMatrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]);
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = a();
        assert_eq!(m.matmul(&DenseMatrix::identity(3)), m);
        assert_eq!(DenseMatrix::identity(2).matmul(&m), m);
    }

    #[test]
    fn matvec_and_vecmat() {
        let m = a();
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(m.vecmat(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = a();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_large_blocked() {
        let m = DenseMatrix::from_fn(67, 45, |i, j| (i * 1000 + j) as f64);
        let t = m.transpose();
        for i in 0..67 {
            for j in 0..45 {
                assert_eq!(t.get(j, i), m.get(i, j));
            }
        }
    }

    #[test]
    fn crossprod_matches_explicit() {
        let m = a();
        let expected = m.transpose().matmul(&m);
        assert!(m.crossprod().approx_eq(&expected, 1e-12));
    }

    #[test]
    fn tcrossprod_matches_explicit() {
        let m = a();
        let expected = m.matmul(&m.transpose());
        assert!(m.tcrossprod().approx_eq(&expected, 1e-12));
    }

    #[test]
    fn fused_transpose_products() {
        let x = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = DenseMatrix::from_rows(&[&[1.0], &[0.5], &[-1.0]]);
        assert!(x.t_matmul(&y).approx_eq(&x.transpose().matmul(&y), 1e-12));
        let z = DenseMatrix::from_rows(&[&[1.0, 1.0], &[2.0, 0.0]]);
        assert!(x.matmul_t(&z).approx_eq(&x.matmul(&z.transpose()), 1e-12));
    }

    #[test]
    fn zero_weights_propagate_nan_and_inf_like_the_gemm_path() {
        // `0 · ±inf` and `0 · NaN` are NaN on every route of `Tᵀ x`: the
        // vector kernel accumulates zero weights instead of skipping them,
        // as the packed GEMM always has. Short and tall (blocked) inputs.
        for n in [3, 2 * tall_block_rows(2) + 5] {
            let mut t = DenseMatrix::from_fn(n, 3, |i, j| (i + j) as f64);
            t.set(0, 1, f64::INFINITY);
            t.set(n - 1, 2, f64::NAN);
            let mut x = vec![1.0; n];
            x[0] = 0.0;
            x[n - 1] = 0.0;
            let by_vec = t.vecmat(&x);
            let by_col = t.t_matmul(&DenseMatrix::col_vector(&x));
            let wide = DenseMatrix::from_fn(n, 2, |i, _| x[i]);
            let by_gemm = t.t_matmul(&wide);
            for (j, &v) in by_vec.iter().enumerate() {
                assert_eq!(v.is_nan(), j > 0, "n={n} column {j}: {v}");
                assert!(by_col.get(j, 0) == v || by_col.get(j, 0).is_nan() && v.is_nan());
                assert_eq!(by_gemm.get(j, 0).is_nan(), j > 0);
                assert_eq!(by_gemm.get(j, 1).is_nan(), j > 0);
            }
        }
    }

    #[test]
    fn blocked_gemm_matches_unblocked_across_k() {
        // k spans multiple KC blocks; blocking must not change results.
        let m = big(5, 2 * simd::KC + 37, 3);
        let x = big(2 * simd::KC + 37, 4, 5);
        let naive = DenseMatrix::from_fn(5, 4, |i, j| {
            (0..m.cols()).map(|k| m.get(i, k) * x.get(k, j)).sum()
        });
        assert!(m.matmul(&x).approx_eq(&naive, 1e-10));
    }

    #[test]
    fn parallel_kernels_are_bit_identical_to_serial() {
        // Drop the gate so every kernel takes its banded path; the worker
        // count and threshold change scheduling only, never results.
        Runtime::set_par_threshold(1);
        let m = big(71, 23, 7);
        let x = big(23, 9, 11);
        let v: Vec<f64> = (0..23).map(|i| (i as f64) * 0.5 - 3.0).collect();
        let w: Vec<f64> = (0..71).map(|i| ((i * 13) % 7) as f64 - 2.0).collect();
        let y = big(71, 9, 13);
        let z = big(44, 23, 17);
        let run = || {
            (
                m.matmul(&x),
                m.matvec(&v),
                m.vecmat(&w),
                m.crossprod(),
                m.tcrossprod(),
                m.t_matmul(&y),
                m.matmul_t(&z),
            )
        };
        let configured = Runtime::threads();
        Runtime::set_threads(1);
        let serial = run();
        for threads in [2, 3, 8] {
            Runtime::set_threads(threads);
            assert_eq!(run(), serial, "{threads} workers");
        }
        Runtime::set_threads(configured);
    }

    #[test]
    fn degenerate_shapes_are_fine() {
        let e = DenseMatrix::zeros(0, 3);
        assert_eq!(e.crossprod().shape(), (3, 3));
        assert_eq!(e.tcrossprod().shape(), (0, 0));
        let w = DenseMatrix::zeros(4, 0);
        assert_eq!(w.crossprod().shape(), (0, 0));
        assert_eq!(w.matmul(&DenseMatrix::zeros(0, 2)).shape(), (4, 2));
        assert_eq!(w.t_matmul(&DenseMatrix::zeros(4, 2)).shape(), (0, 2));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_dim_mismatch_panics() {
        a().matmul(&a());
    }
}
