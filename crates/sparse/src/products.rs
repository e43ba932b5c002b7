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
//! over independent output rows. The *scatter*-written kernels
//! (`t_spmm_dense`, `t_spgemm_dense`, `spgemm`) cannot — several input
//! rows write the same output row — so they run a **two-pass
//! symbolic/numeric scheme** above the parallelism threshold:
//!
//! 1. a counting pass computes exact per-output-row extents (the column
//!    buckets of the transposed access for `t_spmm_dense`/`t_spgemm_dense`;
//!    exact per-row nnz for `spgemm`), then
//! 2. disjoint output bands are filled in parallel, each band replaying
//!    the serial per-element accumulation order.
//!
//! Because each output element is still accumulated by exactly one worker
//! in input-row-ascending order, parallel results are **bit-for-bit
//! identical** to one thread (property-tested in
//! `tests/parallel_kernels_proptest.rs`).

use crate::CsrMatrix;
use morpheus_dense::{simd, DenseMatrix};
use morpheus_runtime::{Executor, Runtime};

/// Flop estimate for products that stream `a`'s non-zeros against rows of
/// `b`: nnz(a) × the average `b`-row density it multiplies into. Crude but
/// serviceable for the parallelism gate; shared so the heuristic cannot
/// drift between the kernels that use it.
fn sparse_product_work(a: &CsrMatrix, b: &CsrMatrix) -> usize {
    a.nnz().saturating_mul(b.nnz() / b.rows().max(1) + 1)
}

impl CsrMatrix {
    /// The symbolic/numeric counting pass shared by the transposed scatter
    /// kernels: per-column extents (`offsets`, length `cols + 1`) plus the
    /// non-zeros regrouped by column — `rows[offsets[c]..offsets[c+1]]` /
    /// `vals[..]` list the entries of column `c` in ascending row order,
    /// which is exactly the serial kernels' per-element accumulation
    /// order.
    fn column_buckets(&self) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let d = self.cols();
        let mut offsets = vec![0usize; d + 1];
        for &c in self.indices() {
            offsets[c + 1] += 1;
        }
        for c in 0..d {
            offsets[c + 1] += offsets[c];
        }
        let nnz = self.nnz();
        let mut rows = vec![0usize; nnz];
        let mut vals = vec![0.0f64; nnz];
        let mut fill = offsets.clone();
        for i in 0..self.rows() {
            let (cols, vs) = self.row(i);
            for (&c, &v) in cols.iter().zip(vs) {
                let slot = fill[c];
                fill[c] = slot + 1;
                rows[slot] = i;
                vals[slot] = v;
            }
        }
        (offsets, rows, vals)
    }

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

    /// Sparse × dense product `self * x` → dense.
    ///
    /// # Panics
    /// Panics if `self.cols() != x.rows()`.
    pub fn spmm_dense(&self, x: &DenseMatrix) -> DenseMatrix {
        self.spmm_dense_with(x, &Runtime::executor())
    }

    /// [`CsrMatrix::spmm_dense`] with an explicit executor: CSR rows map to
    /// independent output rows, parallelized over row bands with the serial
    /// per-row accumulation order preserved (bit-identical to one thread).
    ///
    /// # Panics
    /// Panics if `self.cols() != x.rows()`.
    pub fn spmm_dense_with(&self, x: &DenseMatrix, ex: &Executor) -> DenseMatrix {
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
        let ex = ex.gated(self.nnz() * n.max(1));
        if n == 1 {
            // Vector fast path: one fused scalar accumulation per non-zero.
            let xs = x.as_slice();
            let mut sums = vec![0.0; m];
            if m > 0 {
                let band = ex.grain(m);
                ex.par_chunks_mut(&mut sums, band, |bi, chunk| {
                    let i0 = bi * band;
                    for (li, o) in chunk.iter_mut().enumerate() {
                        let (cols, vals) = self.row(i0 + li);
                        *o = simd::dot_indexed(vals, cols, xs);
                    }
                });
            }
            return DenseMatrix::col_vector(&sums);
        }
        let mut out = DenseMatrix::zeros(m, n);
        if m == 0 || n == 0 {
            return out;
        }
        let band = ex.grain(m);
        ex.par_chunks_mut(out.as_mut_slice(), band * n, |bi, chunk| {
            let i0 = bi * band;
            for (li, orow) in chunk.chunks_mut(n).enumerate() {
                let (cols, vals) = self.row(i0 + li);
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
    /// # Panics
    /// Panics if `self.rows() != x.rows()`.
    pub fn t_spmm_dense(&self, x: &DenseMatrix) -> DenseMatrix {
        self.t_spmm_dense_with(x, &Runtime::executor())
    }

    /// [`CsrMatrix::t_spmm_dense`] with an explicit executor.
    ///
    /// Output rows are scatter-written (row `i` of `x` lands on output row
    /// `c` for every non-zero `(i, c)`), so the parallel path runs the
    /// two-pass scheme: `CsrMatrix::column_buckets` regroups the
    /// non-zeros by output row, then disjoint output bands accumulate
    /// their buckets in ascending input-row order — the serial kernel's
    /// exact per-element order, so results are bit-identical to one
    /// thread.
    ///
    /// # Panics
    /// Panics if `self.rows() != x.rows()`.
    pub fn t_spmm_dense_with(&self, x: &DenseMatrix, ex: &Executor) -> DenseMatrix {
        assert_eq!(
            self.rows(),
            x.rows(),
            "t_spmm_dense: row counts differ ({} vs {})",
            self.rows(),
            x.rows()
        );
        let n = x.cols();
        let d = self.cols();
        let mut out = DenseMatrix::zeros(d, n);
        if d == 0 || n == 0 || self.nnz() == 0 {
            return out;
        }
        let ex = ex.gated(self.nnz() * n);
        if ex.threads() <= 1 {
            // Serial scatter: no counting pass, no bucket allocation.
            let o = out.as_mut_slice();
            if n == 1 {
                // Vector fast path: scalar scatter per non-zero.
                let xs = x.as_slice();
                for (i, &xv) in xs.iter().enumerate() {
                    let (cols, vals) = self.row(i);
                    for (&c, &v) in cols.iter().zip(vals) {
                        o[c] += v * xv;
                    }
                }
                return out;
            }
            for i in 0..self.rows() {
                let (cols, vals) = self.row(i);
                let xrow = x.row(i);
                for (&c, &v) in cols.iter().zip(vals) {
                    let orow = &mut o[c * n..(c + 1) * n];
                    for (ov, &xv) in orow.iter_mut().zip(xrow) {
                        *ov += v * xv;
                    }
                }
            }
            return out;
        }
        let (offsets, src_rows, src_vals) = self.column_buckets();
        let band = ex.grain(d);
        if n == 1 {
            let xs = x.as_slice();
            ex.par_chunks_mut(out.as_mut_slice(), band, |bi, chunk| {
                let c0 = bi * band;
                for (lc, o) in chunk.iter_mut().enumerate() {
                    for s in offsets[c0 + lc]..offsets[c0 + lc + 1] {
                        *o += src_vals[s] * xs[src_rows[s]];
                    }
                }
            });
            return out;
        }
        ex.par_chunks_mut(out.as_mut_slice(), band * n, |bi, chunk| {
            let c0 = bi * band;
            for (lc, orow) in chunk.chunks_mut(n).enumerate() {
                for s in offsets[c0 + lc]..offsets[c0 + lc + 1] {
                    let xrow = x.row(src_rows[s]);
                    let v = src_vals[s];
                    for (o, &xv) in orow.iter_mut().zip(xrow) {
                        *o += v * xv;
                    }
                }
            }
        });
        out
    }

    /// Dense × sparse product `x * self` → dense.
    ///
    /// Iterates the sparse matrix row-wise and scatters into the output:
    /// `out[i, c] += x[i, k] * self[k, c]`.
    ///
    /// # Panics
    /// Panics if `x.cols() != self.rows()`.
    pub fn dense_spmm(&self, x: &DenseMatrix) -> DenseMatrix {
        self.dense_spmm_with(x, &Runtime::executor())
    }

    /// [`CsrMatrix::dense_spmm`] with an explicit executor.
    ///
    /// The scatter stays *within* each output row (`orow[c] += …`), and
    /// output rows depend on exactly one row of `x` — so rows are
    /// independent and parallelize over bands directly, each preserving
    /// the serial k-ascending accumulation order (bit-identical to one
    /// thread).
    ///
    /// # Panics
    /// Panics if `x.cols() != self.rows()`.
    pub fn dense_spmm_with(&self, x: &DenseMatrix, ex: &Executor) -> DenseMatrix {
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
        if m == 0 || n == 0 {
            return out;
        }
        // Upper bound: every dense row streams all non-zeros of `self`.
        let ex = ex.gated(m.saturating_mul(self.nnz()));
        let band = ex.grain(m);
        ex.par_chunks_mut(out.as_mut_slice(), band * n, |bi, chunk| {
            let i0 = bi * band;
            for (li, orow) in chunk.chunks_mut(n).enumerate() {
                let xrow = x.row(i0 + li);
                for (k, &xv) in xrow.iter().enumerate() {
                    if xv == 0.0 {
                        continue;
                    }
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
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn spgemm(&self, other: &CsrMatrix) -> CsrMatrix {
        self.spgemm_with(other, &Runtime::executor())
    }

    /// [`CsrMatrix::spgemm`] with an explicit executor.
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
    pub fn spgemm_with(&self, other: &CsrMatrix, ex: &Executor) -> CsrMatrix {
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
        let ex = ex.gated(sparse_product_work(self, other));
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
    pub fn crossprod_dense(&self) -> DenseMatrix {
        self.crossprod_dense_with(&Runtime::executor())
    }

    /// [`CsrMatrix::crossprod_dense`] with an explicit executor.
    ///
    /// This kernel scatters row outer-products into the output, so workers
    /// own disjoint bands of output rows; each streams over all non-zeros
    /// but accumulates only the entries whose leading column falls in its
    /// band. Per-element accumulation order equals the serial kernel, so
    /// parallel results are bit-identical to one thread.
    pub fn crossprod_dense_with(&self, ex: &Executor) -> DenseMatrix {
        let d = self.cols();
        let mut out = DenseMatrix::zeros(d, d);
        if d == 0 || self.nnz() == 0 {
            return out;
        }
        // Work per row of the triangle is irregular; nnz² / rows (i.e. the
        // self-product estimate) is a crude but serviceable fma count.
        let ex = ex.gated(sparse_product_work(self, self));
        let band = ex.grain(d);
        ex.par_chunks_mut(out.as_mut_slice(), band * d, |bi, chunk| {
            let c0 = bi * band;
            let rows_in_band = chunk.len() / d;
            for i in 0..self.rows() {
                let (cols, vals) = self.row(i);
                for (p, (&ci, &vi)) in cols.iter().zip(vals).enumerate() {
                    if ci < c0 || ci >= c0 + rows_in_band {
                        continue;
                    }
                    let orow = &mut chunk[(ci - c0) * d..(ci - c0 + 1) * d];
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
    /// # Panics
    /// Panics if the row counts differ.
    pub fn t_spgemm_dense(&self, other: &CsrMatrix) -> DenseMatrix {
        self.t_spgemm_dense_with(other, &Runtime::executor())
    }

    /// [`CsrMatrix::t_spgemm_dense`] with an explicit executor.
    ///
    /// Scatter-written like [`CsrMatrix::t_spmm_dense`] (output row `ca`
    /// collects every input row where `self` has a non-zero in column
    /// `ca`), and parallelized the same way: the counting pass buckets
    /// `self`'s non-zeros by column, then disjoint output bands replay
    /// their buckets in ascending input-row order — bit-identical to one
    /// thread.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn t_spgemm_dense_with(&self, other: &CsrMatrix, ex: &Executor) -> DenseMatrix {
        assert_eq!(
            self.rows(),
            other.rows(),
            "t_spgemm_dense: row counts differ ({} vs {})",
            self.rows(),
            other.rows()
        );
        let d1 = self.cols();
        let d2 = other.cols();
        let mut out = DenseMatrix::zeros(d1, d2);
        if d1 == 0 || d2 == 0 || self.nnz() == 0 || other.nnz() == 0 {
            return out;
        }
        let ex = ex.gated(sparse_product_work(self, other));
        if ex.threads() <= 1 {
            let o = out.as_mut_slice();
            for i in 0..self.rows() {
                let (acols, avals) = self.row(i);
                let (bcols, bvals) = other.row(i);
                for (&ca, &va) in acols.iter().zip(avals) {
                    let orow = &mut o[ca * d2..(ca + 1) * d2];
                    for (&cb, &vb) in bcols.iter().zip(bvals) {
                        orow[cb] += va * vb;
                    }
                }
            }
            return out;
        }
        let (offsets, src_rows, src_vals) = self.column_buckets();
        let band = ex.grain(d1);
        ex.par_chunks_mut(out.as_mut_slice(), band * d2, |bi, chunk| {
            let c0 = bi * band;
            for (lc, orow) in chunk.chunks_mut(d2).enumerate() {
                for s in offsets[c0 + lc]..offsets[c0 + lc + 1] {
                    let i = src_rows[s];
                    let va = src_vals[s];
                    let (bcols, bvals) = other.row(i);
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

    #[test]
    fn parallel_sparse_kernels_bit_identical_to_serial() {
        use morpheus_runtime::Executor;
        // Drop the gate so these small shapes actually exercise the
        // parallel paths (scheduling only — any test asserting equality
        // is threshold-independent, so the global override is safe).
        Runtime::set_par_threshold(1);
        let a = pseudo_sparse(37, 19);
        let x = dn(19, 4);
        let serial = Executor::serial();
        for threads in [2, 3, 8] {
            let par = Executor::new(threads);
            assert_eq!(a.spmm_dense_with(&x, &par), a.spmm_dense_with(&x, &serial));
            assert_eq!(
                a.crossprod_dense_with(&par),
                a.crossprod_dense_with(&serial)
            );
        }
    }

    #[test]
    fn parallel_scatter_kernels_bit_identical_to_serial() {
        use morpheus_runtime::Executor;
        Runtime::set_par_threshold(1);
        let a = pseudo_sparse(37, 19);
        let y = dn(37, 4);
        let yv = dn(37, 1);
        let xd = dn(5, 37);
        let b = pseudo_sparse(19, 23);
        let bt = pseudo_sparse(37, 11);
        let serial = Executor::serial();
        for threads in [2, 3, 8] {
            let par = Executor::new(threads);
            assert_eq!(
                a.t_spmm_dense_with(&y, &par),
                a.t_spmm_dense_with(&y, &serial)
            );
            assert_eq!(
                a.t_spmm_dense_with(&yv, &par),
                a.t_spmm_dense_with(&yv, &serial)
            );
            assert_eq!(
                a.dense_spmm_with(&xd, &par),
                a.dense_spmm_with(&xd, &serial)
            );
            assert_eq!(a.spgemm_with(&b, &par), a.spgemm_with(&b, &serial));
            assert_eq!(
                a.t_spgemm_dense_with(&bt, &par),
                a.t_spgemm_dense_with(&bt, &serial)
            );
        }
    }

    #[test]
    fn two_pass_spgemm_matches_serial_structure() {
        // The banded two-pass SpGEMM must produce the identical CSR
        // structure (indptr/indices/values), including dropped
        // cancellation zeros, not merely the same dense content.
        use morpheus_runtime::Executor;
        Runtime::set_par_threshold(1);
        let a = pseudo_sparse(37, 19);
        let b = pseudo_sparse(19, 23);
        let serial = a.spgemm_with(&b, &Executor::serial());
        let par = a.spgemm_with(&b, &Executor::new(4));
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
