//! Multiplication kernels: sparse×dense, dense×sparse, sparse×sparse, and
//! the symmetric cross-product.
//!
//! These are the kernels the factorized rewrites spend their time in:
//! `K (R X)` is a sparse×dense SpMM, `(X K) R` needs dense×sparse, the
//! efficient cross-product needs `Kᵀ S` (transposed SpMM) and sparse
//! cross-products of the base tables.
//!
//! ## Parallel scatter kernels
//!
//! The gather-style kernel (`spmm_dense`) parallelizes directly
//! over independent output rows. The *scatter*-written kernels cannot —
//! several input rows write the same output row:
//!
//! - `t_spmm_dense` and `t_spgemm_dense` (`Aᵀ X`, `Aᵀ B`) are tall
//!   reductions. They scatter fixed input row blocks of
//!   [`scatter_block_rows`] rows, each into a private partial, and sum
//!   the partials in ascending block order
//!   ([`morpheus_runtime::Executor::reduce_row_blocks`]). An input
//!   shorter than two blocks is one plain scatter in ascending row order.
//! - `spgemm` runs a **two-pass symbolic/numeric scheme**: row bands
//!   compute their exact output rows into private buffers, then `indptr`
//!   is assembled by prefix sum and the bands are placed in parallel.
//!
//! Either way each element's accumulation order is fixed by the shape
//! alone, so parallel results are **bit-for-bit identical** to one thread
//! (property-tested in `tests/parallel_kernels_proptest.rs`).

use crate::CsrMatrix;
use morpheus_dense::{simd, DenseMatrix};
use morpheus_runtime::Runtime;
use std::ops::Range;

/// Flop estimate for products that stream `a`'s non-zeros against rows of
/// `b`: nnz(a) × the average `b`-row density it multiplies into. Crude but
/// serviceable for the parallelism gate and `t_spgemm_dense`'s block
/// height; shared so the heuristic cannot drift between the kernels that
/// use it.
fn sparse_product_work(a: &CsrMatrix, b: &CsrMatrix) -> usize {
    a.nnz().saturating_mul(b.nnz() / b.rows().max(1) + 1)
}

/// Row-block height of a scatter-written `Aᵀ X` over `rows` input rows
/// that read `reads` entries in all (`nnz(A) · p` for a dense `p`-wide
/// `X`) into a partial of `partial_len` entries (`cols(A) · p`). A
/// function of the shape only — never of the worker count — so the
/// blocks, and with them the result bits, are fixed by the shape. At
/// least 1024 rows, and tall enough that a block's partial is at most an
/// eighth of what the block reads: `h ≥ 8 · partial_len · rows / reads`,
/// which for `Aᵀ X` is `8 · cols(A) · rows / nnz(A)`. A one-hot indicator
/// has `nnz = rows`, so the key column's `Kᵀ X` blocks exactly as its CSR
/// copy does.
///
/// An input shorter than two blocks is one serial scatter at every worker
/// count. That covers every input under 2048 rows and every wide one
/// (`reads < 16 · partial_len`): an `Aᵀ X` with `nnz(A) < 16 · cols(A)`,
/// or a key column with fewer than 16 rows per group.
pub fn scatter_block_rows(rows: usize, reads: usize, partial_len: usize) -> usize {
    (8 * partial_len)
        .saturating_mul(rows)
        .div_ceil(reads.max(1))
        .max(1024)
}

impl CsrMatrix {
    /// One Gustavson output row of `self * other`, appended to
    /// `out_cols`/`out_vals` (sorted columns, exact zeros dropped). The
    /// single definition keeps the serial kernel and the banded parallel
    /// pass accumulating in the identical order.
    fn gustavson_row(
        &self,
        other: &CsrMatrix,
        i: usize,
        acc: &mut [f64],
        touched: &mut Vec<usize>,
        out_cols: &mut Vec<usize>,
        out_vals: &mut Vec<f64>,
    ) {
        let (acols, avals) = self.row(i);
        for (&k, &av) in acols.iter().zip(avals) {
            let (bcols, bvals) = other.row(k);
            for (&c, &bv) in bcols.iter().zip(bvals) {
                if acc[c] == 0.0 && !touched.contains(&c) {
                    touched.push(c);
                }
                acc[c] += av * bv;
            }
        }
        touched.sort_unstable();
        for &c in touched.iter() {
            if acc[c] != 0.0 {
                out_cols.push(c);
                out_vals.push(acc[c]);
            }
            acc[c] = 0.0;
        }
        touched.clear();
    }

    /// Sparse × dense product `self * x` → dense. CSR rows map to
    /// independent output rows, parallelized over row bands with the serial
    /// per-row accumulation order preserved (bit-identical to one thread).
    ///
    /// # Panics
    /// Panics if `self.cols() != x.rows()`.
    pub fn spmm_dense(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.cols(),
            x.rows(),
            "spmm_dense: inner dimensions differ ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            x.rows(),
            x.cols()
        );
        let m = self.rows();
        let n = x.cols();
        let ex = Runtime::executor().gated(self.nnz() * n.max(1));
        if n == 1 {
            // Vector fast path: one fused scalar accumulation per non-zero.
            let xs = x.as_slice();
            let mut sums = vec![0.0; m];
            ex.par_rows(&mut sums, 1, |i0, chunk| {
                for (o, i) in chunk.iter_mut().zip(i0..) {
                    let (cols, vals) = self.row(i);
                    *o = simd::dot_indexed(vals, cols, xs);
                }
            });
            return DenseMatrix::col_vector(&sums);
        }
        let mut out = DenseMatrix::zeros(m, n);
        ex.par_rows(out.as_mut_slice(), n, |i0, chunk| {
            for (orow, i) in chunk.chunks_mut(n).zip(i0..) {
                let (cols, vals) = self.row(i);
                for (&c, &v) in cols.iter().zip(vals) {
                    let xrow = x.row(c);
                    for (o, &xv) in orow.iter_mut().zip(xrow) {
                        *o += v * xv;
                    }
                }
            }
        });
        out
    }

    /// Transposed sparse × dense product `selfᵀ * x` → dense, computed by
    /// scattering rows of `x` — the transpose is never materialized.
    ///
    /// Output rows are scatter-written (row `i` of `x` lands on output row
    /// `c` for every non-zero `(i, c)`), so this is a tall reduction: each
    /// fixed block of [`scatter_block_rows`] input rows scatters into its
    /// own partial in ascending row order, and the partials are summed in
    /// ascending block order. The bits depend on the shape only; an input
    /// shorter than two blocks is one ascending-row scatter.
    ///
    /// # Panics
    /// Panics if `self.rows() != x.rows()`.
    pub fn t_spmm_dense(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.rows(),
            x.rows(),
            "t_spmm_dense: row counts differ ({} vs {})",
            self.rows(),
            x.rows()
        );
        let n = x.cols();
        let mut out = DenseMatrix::zeros(self.cols(), n);
        self.scatter_rows(out.as_mut_slice(), self.nnz() * n, |rows, o| {
            if n == 1 {
                // Vector fast path: one scalar update per stored entry
                // (the general loop's per-entry row slice made `Tᵀ r`
                // about 2x slower).
                for (i, &xv) in rows.clone().zip(&x.as_slice()[rows]) {
                    let (cols, vals) = self.row(i);
                    for (&c, &v) in cols.iter().zip(vals) {
                        o[c] += v * xv;
                    }
                }
                return;
            }
            for i in rows {
                let (cols, vals) = self.row(i);
                let xrow = x.row(i);
                for (&c, &v) in cols.iter().zip(vals) {
                    let orow = &mut o[c * n..(c + 1) * n];
                    for (ov, &xv) in orow.iter_mut().zip(xrow) {
                        *ov += v * xv;
                    }
                }
            }
        });
        out
    }

    /// Runs the scatter `body(rows, partial)` of a `selfᵀ · _` product,
    /// which reads `reads` entries in all, over `self`'s rows into the
    /// zeroed `out`, in the fixed row blocks of [`scatter_block_rows`].
    fn scatter_rows(
        &self,
        out: &mut [f64],
        reads: usize,
        body: impl Fn(Range<usize>, &mut [f64]) + Sync,
    ) {
        let h = scatter_block_rows(self.rows(), reads, out.len());
        let ex = Runtime::executor().gated(reads);
        ex.reduce_row_blocks(out, self.rows(), h, body);
    }

    /// Dense × sparse product `x * self` → dense.
    ///
    /// Iterates the sparse matrix row-wise and scatters into the output:
    /// `out[i, c] += x[i, k] * self[k, c]`, zero weights included, so a
    /// `0 · ±inf` or `0 · NaN` term reads NaN as in the dense product.
    /// The scatter stays *within* each output row, and output rows depend
    /// on exactly one row of `x` — so rows are independent and
    /// parallelize over bands directly, each preserving the serial
    /// k-ascending accumulation order (bit-identical to one thread).
    ///
    /// # Panics
    /// Panics if `x.cols() != self.rows()`.
    pub fn dense_spmm(&self, x: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            x.cols(),
            self.rows(),
            "dense_spmm: inner dimensions differ ({}x{} * {}x{})",
            x.rows(),
            x.cols(),
            self.rows(),
            self.cols()
        );
        let m = x.rows();
        let n = self.cols();
        let mut out = DenseMatrix::zeros(m, n);
        // Upper bound: every dense row streams all non-zeros of `self`.
        let ex = Runtime::executor().gated(m.saturating_mul(self.nnz()));
        ex.par_rows(out.as_mut_slice(), n, |i0, chunk| {
            for (orow, i) in chunk.chunks_mut(n).zip(i0..) {
                for (k, &xv) in x.row(i).iter().enumerate() {
                    let (cols, vals) = self.row(k);
                    for (&c, &v) in cols.iter().zip(vals) {
                        orow[c] += xv * v;
                    }
                }
            }
        });
        out
    }

    /// Sparse × sparse product `self * other` → sparse (SpGEMM).
    ///
    /// Gustavson's algorithm with a dense accumulator row and a touched-column
    /// list, so each output row costs O(flops + |touched|).
    ///
    /// The output's sparsity structure is unknown upfront, so the parallel
    /// path is two-pass: row bands first compute their exact output rows
    /// (Gustavson into private buffers — the counting pass that yields
    /// exact per-row extents, cancellation included), then `indptr` is
    /// assembled by prefix sum and the disjoint `indices`/`values` bands
    /// are placed in parallel. Per-row content is computed by the same
    /// code as the serial kernel, so results are bit-identical at any
    /// worker count.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn spgemm(&self, other: &CsrMatrix) -> CsrMatrix {
        assert_eq!(
            self.cols(),
            other.rows(),
            "spgemm: inner dimensions differ ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let m = self.rows();
        let n = other.cols();
        let ex = Runtime::executor().gated(sparse_product_work(self, other));
        if ex.threads() <= 1 || m <= 1 {
            let mut acc = vec![0.0f64; n];
            let mut touched: Vec<usize> = Vec::new();
            let mut indptr = Vec::with_capacity(m + 1);
            let mut indices: Vec<usize> = Vec::new();
            let mut values: Vec<f64> = Vec::new();
            indptr.push(0);
            for i in 0..m {
                self.gustavson_row(other, i, &mut acc, &mut touched, &mut indices, &mut values);
                indptr.push(indices.len());
            }
            return CsrMatrix::from_raw_unchecked(m, n, indptr, indices, values);
        }
        // Pass 1 — counting + numeric per band: exact per-row extents and
        // contents, each band with private Gustavson scratch.
        let band = ex.grain(m);
        let n_bands = m.div_ceil(band);
        let bands: Vec<(Vec<usize>, Vec<usize>, Vec<f64>)> = ex.map(n_bands, |bi| {
            let i0 = bi * band;
            let iend = (i0 + band).min(m);
            let mut acc = vec![0.0f64; n];
            let mut touched: Vec<usize> = Vec::new();
            let mut lens = Vec::with_capacity(iend - i0);
            let mut cols_buf: Vec<usize> = Vec::new();
            let mut vals_buf: Vec<f64> = Vec::new();
            for i in i0..iend {
                let before = cols_buf.len();
                self.gustavson_row(
                    other,
                    i,
                    &mut acc,
                    &mut touched,
                    &mut cols_buf,
                    &mut vals_buf,
                );
                lens.push(cols_buf.len() - before);
            }
            (lens, cols_buf, vals_buf)
        });
        // indptr by prefix sum over the exact extents, in row order.
        let mut indptr = Vec::with_capacity(m + 1);
        indptr.push(0usize);
        for (lens, _, _) in &bands {
            for &l in lens {
                indptr.push(indptr.last().unwrap() + l);
            }
        }
        let total = *indptr.last().unwrap();
        // Pass 2 — placement: carve `indices`/`values` into disjoint
        // per-band output slices and fill them in parallel.
        let mut indices = vec![0usize; total];
        let mut values = vec![0.0f64; total];
        let mut idx_rest: &mut [usize] = &mut indices;
        let mut val_rest: &mut [f64] = &mut values;
        let mut items = Vec::with_capacity(bands.len());
        for (_, cols_buf, vals_buf) in bands {
            let (idx_band, rest) = std::mem::take(&mut idx_rest).split_at_mut(cols_buf.len());
            idx_rest = rest;
            let (val_band, rest) = std::mem::take(&mut val_rest).split_at_mut(vals_buf.len());
            val_rest = rest;
            items.push((cols_buf, vals_buf, idx_band, val_band));
        }
        ex.for_each_item(items, |(cols_buf, vals_buf, idx_band, val_band)| {
            idx_band.copy_from_slice(&cols_buf);
            val_band.copy_from_slice(&vals_buf);
        });
        CsrMatrix::from_raw_unchecked(m, n, indptr, indices, values)
    }

    /// Symmetric cross-product `selfᵀ * self` → dense `d x d`.
    ///
    /// Accumulates outer products of the sparse rows into the upper triangle,
    /// then mirrors — the same symmetry saving as the dense kernel.
    ///
    /// The outer products are scattered into the output, so workers own
    /// disjoint bands of output rows; each streams over all non-zeros but
    /// accumulates only the entries whose leading column falls in its
    /// band. Per-element accumulation order equals the serial kernel, so
    /// parallel results are bit-identical to one thread.
    pub fn crossprod_dense(&self) -> DenseMatrix {
        let d = self.cols();
        let mut out = DenseMatrix::zeros(d, d);
        if d == 0 || self.nnz() == 0 {
            return out;
        }
        // Work per row of the triangle is irregular; nnz² / rows (i.e. the
        // self-product estimate) is a crude but serviceable fma count.
        let ex = Runtime::executor().gated(sparse_product_work(self, self));
        ex.par_rows(out.as_mut_slice(), d, |c0, chunk| {
            let band = c0..c0 + chunk.len() / d;
            for i in 0..self.rows() {
                let (cols, vals) = self.row(i);
                for (p, (&ci, &vi)) in cols.iter().zip(vals).enumerate() {
                    if !band.contains(&ci) {
                        continue;
                    }
                    let r = ci - c0;
                    let orow = &mut chunk[r * d..(r + 1) * d];
                    for (&cj, &vj) in cols[p..].iter().zip(&vals[p..]) {
                        orow[cj] += vi * vj;
                    }
                }
            }
        });
        let o = out.as_mut_slice();
        for i in 0..d {
            for j in (i + 1)..d {
                o[j * d + i] = o[i * d + j];
            }
        }
        out
    }

    /// `selfᵀ * other` for two sparse matrices with equal row counts → dense.
    ///
    /// Used for the off-diagonal blocks `P = Rᵀ (Kᵀ S)` of the cross-product
    /// rewrites when both operands are sparse.
    ///
    /// Scatter-written like [`CsrMatrix::t_spmm_dense`] (output row `ca`
    /// collects every input row where `self` has a non-zero in column
    /// `ca`), and reduced the same way: fixed blocks of
    /// [`scatter_block_rows`] input rows, each scattered into its own
    /// partial in ascending row order, partials summed in ascending block
    /// order.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn t_spgemm_dense(&self, other: &CsrMatrix) -> DenseMatrix {
        assert_eq!(
            self.rows(),
            other.rows(),
            "t_spgemm_dense: row counts differ ({} vs {})",
            self.rows(),
            other.rows()
        );
        let d2 = other.cols();
        let mut out = DenseMatrix::zeros(self.cols(), d2);
        let reads = sparse_product_work(self, other);
        self.scatter_rows(out.as_mut_slice(), reads, |rows, o| {
            for i in rows {
                let (acols, avals) = self.row(i);
                let (bcols, bvals) = other.row(i);
                for (&ca, &va) in acols.iter().zip(avals) {
                    let orow = &mut o[ca * d2..(ca + 1) * d2];
                    for (&cb, &vb) in bcols.iter().zip(bvals) {
                        orow[cb] += va * vb;
                    }
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            4,
            &[
                (0, 1, 1.0),
                (0, 3, 2.0),
                (1, 0, 3.0),
                (2, 2, 4.0),
                (2, 3, -1.0),
            ],
        )
        .unwrap()
    }

    fn dn(rows: usize, cols: usize) -> DenseMatrix {
        DenseMatrix::from_fn(rows, cols, |i, j| (i * cols + j + 1) as f64)
    }

    #[test]
    fn spmm_dense_matches_dense_product() {
        let a = sp();
        let x = dn(4, 2);
        assert!(a.spmm_dense(&x).approx_eq(&a.to_dense().matmul(&x), 1e-12));
    }

    #[test]
    fn t_spmm_dense_matches_transpose_product() {
        let a = sp();
        let x = dn(3, 2);
        assert!(a
            .t_spmm_dense(&x)
            .approx_eq(&a.to_dense().transpose().matmul(&x), 1e-12));
    }

    #[test]
    fn dense_spmm_matches_dense_product() {
        let a = sp();
        let x = dn(2, 3);
        assert!(a.dense_spmm(&x).approx_eq(&x.matmul(&a.to_dense()), 1e-12));
    }

    #[test]
    fn spgemm_matches_dense_product() {
        let a = sp();
        let b = a.transpose();
        let c = a.spgemm(&b);
        assert!(c
            .to_dense()
            .approx_eq(&a.to_dense().matmul(&b.to_dense()), 1e-12));
        // cancellation should drop entries
        let p = CsrMatrix::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, -1.0)]).unwrap();
        let q = CsrMatrix::from_triplets(2, 1, &[(0, 0, 1.0), (1, 0, 1.0)]).unwrap();
        assert_eq!(p.spgemm(&q).nnz(), 0);
    }

    #[test]
    fn crossprod_matches_dense() {
        let a = sp();
        assert!(a
            .crossprod_dense()
            .approx_eq(&a.to_dense().crossprod(), 1e-12));
    }

    #[test]
    fn t_spgemm_dense_matches_dense() {
        let a = sp();
        let b = CsrMatrix::from_triplets(3, 2, &[(0, 0, 2.0), (2, 1, 3.0)]).unwrap();
        let expected = a.to_dense().transpose().matmul(&b.to_dense());
        assert!(a.t_spgemm_dense(&b).approx_eq(&expected, 1e-12));
    }

    #[test]
    fn indicator_products_replicate_rows() {
        // K (R x) — the inner building block of factorized LMM.
        let k = CsrMatrix::from_triplets(3, 2, &[(0, 1, 1.0), (1, 0, 1.0), (2, 1, 1.0)]).unwrap();
        let r = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let kr = k.spmm_dense(&r);
        assert_eq!(kr.row(0), &[3.0, 4.0]);
        assert_eq!(kr.row(1), &[1.0, 2.0]);
        assert_eq!(kr.row(2), &[3.0, 4.0]);
    }

    /// A bigger pseudo-random sparse matrix so several bands exist.
    fn pseudo_sparse(rows: usize, cols: usize) -> CsrMatrix {
        let trips: Vec<(usize, usize, f64)> = (0..400)
            .map(|t| {
                let i = (t * 7 + 3) % rows;
                let j = (t * 13 + 5) % cols;
                (i, j, ((t % 11) as f64) - 5.0)
            })
            .collect();
        CsrMatrix::from_triplets(rows, cols, &trips).unwrap()
    }

    /// `f` at one worker, then at `threads` workers. Drops the gate so
    /// these small shapes take the parallel paths; the worker count and
    /// threshold change scheduling only, never results.
    fn one_then<R>(threads: usize, f: impl Fn() -> R) -> (R, R) {
        Runtime::set_par_threshold(1);
        let configured = Runtime::threads();
        Runtime::set_threads(1);
        let serial = f();
        Runtime::set_threads(threads);
        let par = f();
        Runtime::set_threads(configured);
        (serial, par)
    }

    #[test]
    fn parallel_sparse_kernels_bit_identical_to_serial() {
        let a = pseudo_sparse(37, 19);
        let x = dn(19, 4);
        for threads in [2, 3, 8] {
            let (serial, par) = one_then(threads, || (a.spmm_dense(&x), a.crossprod_dense()));
            assert_eq!(par, serial, "{threads} workers");
        }
    }

    #[test]
    fn parallel_scatter_kernels_bit_identical_to_serial() {
        let a = pseudo_sparse(37, 19);
        let y = dn(37, 4);
        let yv = dn(37, 1);
        let xd = dn(5, 37);
        let b = pseudo_sparse(19, 23);
        let bt = pseudo_sparse(37, 11);
        for threads in [2, 3, 8] {
            let (serial, par) = one_then(threads, || {
                (
                    a.t_spmm_dense(&y),
                    a.t_spmm_dense(&yv),
                    a.dense_spmm(&xd),
                    a.spgemm(&b),
                    a.t_spgemm_dense(&bt),
                )
            });
            assert_eq!(par, serial, "{threads} workers");
        }
    }

    #[test]
    fn two_pass_spgemm_matches_serial_structure() {
        // The banded two-pass SpGEMM must produce the identical CSR
        // structure (indptr/indices/values), including dropped
        // cancellation zeros, not merely the same dense content.
        let a = pseudo_sparse(37, 19);
        let b = pseudo_sparse(19, 23);
        let (serial, par) = one_then(4, || a.spgemm(&b));
        assert_eq!(par.indptr(), serial.indptr());
        assert_eq!(par.indices(), serial.indices());
        assert_eq!(par.values(), serial.values());
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn spmm_shape_mismatch_panics() {
        sp().spmm_dense(&DenseMatrix::zeros(3, 2));
    }
}
