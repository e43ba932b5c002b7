//! [`Matrix`] — a regular matrix that is either dense or sparse.
//!
//! The paper's setting allows any of `S`, `R`, and `T` to be dense or sparse
//! (real normalized datasets use sparse one-hot feature matrices). `Matrix`
//! dispatches every operator to the right kernel and picks the natural
//! output representation: products involving a dense operand are dense,
//! sparse×sparse stays sparse, and a scalar map densifies exactly when it
//! does not send 0 to ±0.

use morpheus_dense::{DenseMatrix, ScalarOp};
use morpheus_sparse::CsrMatrix;

/// A regular (single-table) matrix: dense or CSR sparse.
#[derive(Debug, Clone, PartialEq)]
pub enum Matrix {
    /// Dense row-major storage.
    Dense(DenseMatrix),
    /// Compressed sparse row storage.
    Sparse(CsrMatrix),
}

impl From<DenseMatrix> for Matrix {
    fn from(m: DenseMatrix) -> Self {
        Matrix::Dense(m)
    }
}

impl From<CsrMatrix> for Matrix {
    fn from(m: CsrMatrix) -> Self {
        Matrix::Sparse(m)
    }
}

impl Matrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            Matrix::Dense(m) => m.rows(),
            Matrix::Sparse(m) => m.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            Matrix::Dense(m) => m.cols(),
            Matrix::Sparse(m) => m.cols(),
        }
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows(), self.cols())
    }

    /// `true` for the sparse representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self, Matrix::Sparse(_))
    }

    /// Number of stored non-zeros (dense matrices count exact non-zeros).
    pub fn nnz(&self) -> usize {
        match self {
            Matrix::Dense(m) => m.nnz(),
            Matrix::Sparse(m) => m.nnz(),
        }
    }

    /// Converts to (a copy of) the dense representation.
    pub fn to_dense(&self) -> DenseMatrix {
        match self {
            Matrix::Dense(m) => m.clone(),
            Matrix::Sparse(m) => m.to_dense(),
        }
    }

    /// Converts to (a copy of) the sparse representation.
    pub fn to_csr(&self) -> CsrMatrix {
        match self {
            Matrix::Dense(m) => CsrMatrix::from_dense(m),
            Matrix::Sparse(m) => m.clone(),
        }
    }

    /// Borrows the dense payload, if dense.
    pub fn as_dense(&self) -> Option<&DenseMatrix> {
        match self {
            Matrix::Dense(m) => Some(m),
            Matrix::Sparse(_) => None,
        }
    }

    /// Borrows the sparse payload, if sparse.
    pub fn as_sparse(&self) -> Option<&CsrMatrix> {
        match self {
            Matrix::Dense(_) => None,
            Matrix::Sparse(m) => Some(m),
        }
    }

    /// Approximate equality across representations.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.to_dense().approx_eq(&other.to_dense(), tol)
    }

    // ---------------------------------------------------------------
    // Element-wise scalar operators (Table 1, first group)
    // ---------------------------------------------------------------

    /// `f(T)` for a scalar operator. A sparse table stays sparse exactly
    /// when `f(0)` is `±0` (its implicit zeros keep reading `+0.0`);
    /// otherwise `f` reaches the implicit zeros too and the result is
    /// dense. `T * 2`, `T ^ 2` and `T ± 0` stay sparse; `T + 1`, `T / 0`,
    /// `T * inf` and `exp(T)` densify.
    pub fn apply(&self, op: ScalarOp) -> Matrix {
        self.map_values(op.apply(0.0), |xs| op.apply_in_place(xs))
    }

    /// Applies a scalar function `f` to every entry (`f(T)`), under the
    /// sparsity rule of [`Matrix::apply`].
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        self.map_values(f(0.0), |xs| xs.iter_mut().for_each(|v| *v = f(*v)))
    }

    /// Copies `self`, sparse iff it is sparse and `zero_image` (the map's
    /// value at 0) is `±0`, and runs `map` over the copy's values.
    fn map_values(&self, zero_image: f64, map: impl FnOnce(&mut [f64])) -> Matrix {
        match self {
            Matrix::Sparse(m) if zero_image == 0.0 => {
                let mut out = m.clone();
                map(out.values_mut());
                Matrix::Sparse(out)
            }
            _ => {
                let mut out = self.to_dense();
                map(out.as_mut_slice());
                Matrix::Dense(out)
            }
        }
    }

    // ---------------------------------------------------------------
    // Element-wise matrix operators (non-factorizable group)
    // ---------------------------------------------------------------

    /// Element-wise sum `T + X`: sparse when both are, otherwise dense,
    /// densifying only a sparse operand.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Matrix {
        match (self, other) {
            (Matrix::Sparse(a), Matrix::Sparse(b)) => Matrix::Sparse(a.add(b)),
            (Matrix::Dense(a), Matrix::Dense(b)) => Matrix::Dense(a.add(b)),
            (Matrix::Dense(a), Matrix::Sparse(b)) => Matrix::Dense(a.add(&b.to_dense())),
            (Matrix::Sparse(a), Matrix::Dense(b)) => Matrix::Dense(a.to_dense().add(b)),
        }
    }

    // ---------------------------------------------------------------
    // Aggregations
    // ---------------------------------------------------------------

    /// `rowSums(T)` as an `n x 1` dense column vector.
    pub fn row_sums(&self) -> DenseMatrix {
        match self {
            Matrix::Dense(m) => m.row_sums(),
            Matrix::Sparse(m) => m.row_sums(),
        }
    }

    /// `colSums(T)` as a `1 x d` dense row vector.
    pub fn col_sums(&self) -> DenseMatrix {
        match self {
            Matrix::Dense(m) => m.col_sums(),
            Matrix::Sparse(m) => m.col_sums(),
        }
    }

    /// `sum(T)`.
    pub fn sum(&self) -> f64 {
        match self {
            Matrix::Dense(m) => m.sum(),
            Matrix::Sparse(m) => m.sum(),
        }
    }

    /// `rowMin(T)` as an `n x 1` dense column vector. For sparse rows the
    /// implicit zeros participate: a row with fewer stored entries than
    /// columns has minimum `min(0, min(values))`.
    pub fn row_min(&self) -> DenseMatrix {
        match self {
            Matrix::Dense(m) => m.row_min(),
            Matrix::Sparse(m) => {
                let cols = m.cols();
                let mins: Vec<f64> = (0..m.rows())
                    .map(|i| {
                        let (idx, vals) = m.row(i);
                        let stored = vals.iter().copied().fold(f64::INFINITY, f64::min);
                        if idx.len() < cols {
                            stored.min(0.0)
                        } else {
                            stored
                        }
                    })
                    .collect();
                DenseMatrix::col_vector(&mins)
            }
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        match self {
            Matrix::Dense(m) => m.frobenius_norm(),
            Matrix::Sparse(m) => m.frobenius_norm(),
        }
    }

    // ---------------------------------------------------------------
    // Multiplication
    // ---------------------------------------------------------------

    /// Matrix product `self * other` with representation-aware dispatch.
    ///
    /// # Panics
    /// Panics if the inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        match (self, other) {
            (Matrix::Dense(a), Matrix::Dense(b)) => Matrix::Dense(a.matmul(b)),
            (Matrix::Sparse(a), Matrix::Dense(b)) => Matrix::Dense(a.spmm_dense(b)),
            (Matrix::Dense(a), Matrix::Sparse(b)) => Matrix::Dense(b.dense_spmm(a)),
            (Matrix::Sparse(a), Matrix::Sparse(b)) => Matrix::Sparse(a.spgemm(b)),
        }
    }

    /// `self * x` with a dense right operand, returning dense. This is the
    /// kernel behind the LMM rewrites.
    ///
    /// # Panics
    /// Panics if the inner dimensions differ.
    pub fn matmul_dense(&self, x: &DenseMatrix) -> DenseMatrix {
        match self {
            Matrix::Dense(a) => a.matmul(x),
            Matrix::Sparse(a) => a.spmm_dense(x),
        }
    }

    /// `selfᵀ * x` with a dense operand, returning dense (no transpose is
    /// materialized). This is the kernel behind the transposed-LMM rewrites.
    ///
    /// # Panics
    /// Panics if the row counts differ.
    pub fn t_matmul_dense(&self, x: &DenseMatrix) -> DenseMatrix {
        match self {
            Matrix::Dense(a) => a.t_matmul(x),
            Matrix::Sparse(a) => a.t_spmm_dense(x),
        }
    }

    /// `x * self` with a dense left operand, returning dense. This is the
    /// kernel behind the RMM rewrites.
    ///
    /// # Panics
    /// Panics if the inner dimensions differ.
    pub fn dense_matmul(&self, x: &DenseMatrix) -> DenseMatrix {
        match self {
            Matrix::Dense(a) => x.matmul(a),
            Matrix::Sparse(a) => a.dense_spmm(x),
        }
    }

    /// Transpose, preserving the representation.
    pub fn transpose(&self) -> Matrix {
        match self {
            Matrix::Dense(m) => Matrix::Dense(m.transpose()),
            Matrix::Sparse(m) => Matrix::Sparse(m.transpose()),
        }
    }

    /// `crossprod(T) = Tᵀ T`, always dense (`d x d` with modest `d`).
    pub fn crossprod(&self) -> DenseMatrix {
        match self {
            Matrix::Dense(m) => m.crossprod(),
            Matrix::Sparse(m) => m.crossprod_dense(),
        }
    }

    /// `tcrossprod(T) = T Tᵀ`, always dense.
    pub fn tcrossprod(&self) -> DenseMatrix {
        match self {
            Matrix::Dense(m) => m.tcrossprod(),
            Matrix::Sparse(m) => {
                let t = m.transpose();
                t.t_spgemm_dense(&t)
            }
        }
    }

    // ---------------------------------------------------------------
    // Structure
    // ---------------------------------------------------------------

    /// Scales row `i` by `weights[i]` (`diag(w) * T`).
    ///
    /// # Panics
    /// Panics if `weights.len() != rows`.
    pub fn scale_rows(&self, weights: &[f64]) -> Matrix {
        match self {
            Matrix::Dense(m) => Matrix::Dense(m.scale_rows(weights)),
            Matrix::Sparse(m) => Matrix::Sparse(m.scale_rows(weights)),
        }
    }

    /// Copies the rows at the given indices (gather), allowing repeats.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        match self {
            Matrix::Dense(m) => Matrix::Dense(m.gather_rows(indices)),
            Matrix::Sparse(m) => Matrix::Sparse(m.gather_rows(indices)),
        }
    }

    /// Copies the row range into a new matrix, preserving representation.
    ///
    /// # Panics
    /// Panics if `range.end > rows`.
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Matrix {
        match self {
            Matrix::Dense(m) => Matrix::Dense(m.slice_rows(range)),
            Matrix::Sparse(m) => Matrix::Sparse(m.slice_rows(range)),
        }
    }

    /// Copies the column range into a new matrix, preserving representation.
    ///
    /// # Panics
    /// Panics if `range.end > cols`.
    pub fn slice_cols(&self, range: std::ops::Range<usize>) -> Matrix {
        match self {
            Matrix::Dense(m) => Matrix::Dense(m.slice_cols(range)),
            Matrix::Sparse(m) => {
                // CSR has no cheap column slice; go through the transpose.
                Matrix::Sparse(m.transpose().slice_rows(range).transpose())
            }
        }
    }

    /// Vertical concatenation of `self` on top of `other`, preserving
    /// representation when both sides agree.
    ///
    /// # Panics
    /// Panics if the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        match (self, other) {
            (Matrix::Dense(a), Matrix::Dense(b)) => Matrix::Dense(a.vstack(b)),
            (Matrix::Sparse(a), Matrix::Sparse(b)) => Matrix::Sparse(a.vstack(b)),
            (a, b) => Matrix::Dense(a.to_dense().vstack(&b.to_dense())),
        }
    }

    /// Horizontal concatenation of blocks; sparse iff *all* blocks are
    /// sparse.
    ///
    /// # Panics
    /// Panics if the blocks disagree on row count or the list is empty.
    pub fn hstack_all(blocks: &[&Matrix]) -> Matrix {
        assert!(!blocks.is_empty(), "Matrix::hstack_all: no blocks");
        if blocks.iter().all(|b| b.is_sparse()) {
            let csrs: Vec<&CsrMatrix> = blocks
                .iter()
                .map(|b| b.as_sparse().expect("checked sparse"))
                .collect();
            Matrix::Sparse(CsrMatrix::hstack_all(&csrs))
        } else {
            let denses: Vec<DenseMatrix> = blocks.iter().map(|b| b.to_dense()).collect();
            let refs: Vec<&DenseMatrix> = denses.iter().collect();
            Matrix::Dense(DenseMatrix::hstack_all(&refs))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalized::test_fixtures::same_values;

    fn dense() -> Matrix {
        Matrix::Dense(DenseMatrix::from_rows(&[
            &[1.0, 0.0, 2.0],
            &[0.0, 3.0, 0.0],
        ]))
    }

    fn sparse() -> Matrix {
        Matrix::Sparse(
            CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap(),
        )
    }

    #[test]
    fn representations_agree() {
        assert!(dense().approx_eq(&sparse(), 1e-15));
        assert_eq!(dense().nnz(), sparse().nnz());
        assert_eq!(sparse().to_csr().nnz(), 3);
        assert_eq!(dense().to_csr().to_dense(), dense().to_dense());
    }

    #[test]
    fn scalar_ops_match_across_representations() {
        use ScalarOp::*;
        let (d, s) = (dense(), sparse());
        let operands = [
            1.0,
            2.0,
            0.0,
            -2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut ops = vec![Exp, Ln, Sigmoid, Pow(0.0), Pow(-1.0), Pow(0.5)];
        for c in operands {
            ops.extend([
                Add(c),
                Sub(c),
                RSub(c),
                Mul(c),
                Div(c),
                RDiv(c),
                Pow(c),
                RPow(c),
            ]);
        }
        for op in ops {
            let (from_dense, from_sparse) = (d.apply(op), s.apply(op));
            assert!(
                same_values(&from_dense.to_dense(), &from_sparse.to_dense()),
                "{op:?}: dense and sparse disagree"
            );
            assert!(!from_dense.is_sparse());
            // The one rule: sparse stays sparse iff f(0) is ±0.
            assert_eq!(from_sparse.is_sparse(), op.apply(0.0) == 0.0, "{op:?}");
        }
        // The rule's verdicts, spelled out.
        let inf = f64::INFINITY;
        for op in [
            Mul(2.0),
            Mul(-2.0),
            Div(2.0),
            Pow(2.0),
            Add(0.0),
            Sub(0.0),
            RSub(0.0),
        ] {
            assert!(
                s.apply(op).is_sparse(),
                "{op:?} keeps a sparse table sparse"
            );
        }
        for op in [
            Add(1.0),
            Div(0.0),
            Mul(inf),
            Mul(f64::NAN),
            Pow(0.0),
            Pow(-1.0),
            Exp,
        ] {
            assert!(!s.apply(op).is_sparse(), "{op:?} densifies a sparse table");
        }
    }

    #[test]
    fn map_densifies_only_when_needed() {
        let s = sparse();
        assert!(s.map(|v| v * 3.0).is_sparse());
        let e = s.apply(ScalarOp::Exp);
        assert!(!e.is_sparse());
        assert!((e.to_dense().get(1, 0) - 1.0).abs() < 1e-15); // exp(0) = 1
    }

    #[test]
    fn elementwise_binary_ops() {
        let d = dense();
        let s = sparse();
        assert!(d.add(&s).approx_eq(&d.apply(ScalarOp::Mul(2.0)), 1e-15));
        assert!(s.add(&s).is_sparse());
    }

    #[test]
    fn aggregations_match() {
        let d = dense();
        let s = sparse();
        assert_eq!(d.row_sums(), s.row_sums());
        assert_eq!(d.col_sums(), s.col_sums());
        assert_eq!(d.sum(), s.sum());
        assert!((d.frobenius_norm() - s.frobenius_norm()).abs() < 1e-15);
    }

    #[test]
    fn matmul_dispatch_all_four_cases() {
        let d = dense();
        let s = sparse();
        let dt = d.transpose();
        let st = s.transpose();
        let dd = d.matmul(&dt);
        let ds = d.matmul(&st);
        let sd = s.matmul(&dt);
        let ss = s.matmul(&st);
        assert!(ss.is_sparse());
        assert!(!ds.is_sparse());
        for other in [&ds, &sd, &ss] {
            assert!(dd.approx_eq(other, 1e-12));
        }
        // `x · S` accumulates `0 · inf` like the dense product: NaN, not 0.
        let t = DenseMatrix::from_rows(&[&[f64::INFINITY, 0.0], &[0.0, 2.0]]);
        let (td, ts) = (
            Matrix::Dense(t.clone()),
            Matrix::Sparse(CsrMatrix::from_dense(&t)),
        );
        let x = DenseMatrix::from_rows(&[&[0.0, 1.0]]);
        let want = td.dense_matmul(&x);
        assert!(want.get(0, 0).is_nan());
        assert!(same_values(&ts.dense_matmul(&x), &want));
        let xm = Matrix::Dense(x);
        assert!(same_values(&xm.matmul(&ts).to_dense(), &want));
    }

    #[test]
    fn fused_kernels_match_naive() {
        let d = dense();
        let s = sparse();
        let x = DenseMatrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        assert!(d.matmul_dense(&x).approx_eq(&s.matmul_dense(&x), 1e-13));
        let y = DenseMatrix::from_rows(&[&[1.0, -1.0], &[2.0, 0.5]]);
        assert!(d.t_matmul_dense(&y).approx_eq(&s.t_matmul_dense(&y), 1e-13));
        let z = DenseMatrix::from_rows(&[&[1.0, 2.0]]);
        assert!(d.dense_matmul(&z).approx_eq(&s.dense_matmul(&z), 1e-13));
    }

    #[test]
    fn crossprods_match() {
        let d = dense();
        let s = sparse();
        assert!(d.crossprod().approx_eq(&s.crossprod(), 1e-13));
        assert!(d.tcrossprod().approx_eq(&s.tcrossprod(), 1e-13));
        let explicit = d.to_dense().transpose().matmul(&d.to_dense());
        assert!(d.crossprod().approx_eq(&explicit, 1e-13));
    }

    #[test]
    fn slicing_preserves_representation_and_values() {
        let d = dense();
        let s = sparse();
        assert!(d.slice_rows(1..2).approx_eq(&s.slice_rows(1..2), 1e-15));
        assert!(s.slice_rows(0..1).is_sparse());
        assert!(d.slice_cols(1..3).approx_eq(&s.slice_cols(1..3), 1e-15));
        assert!(s.slice_cols(0..2).is_sparse());
        assert_eq!(s.slice_cols(0..2).to_dense().get(0, 0), 1.0);
    }

    #[test]
    fn structural_ops() {
        let s = sparse();
        let g = s.gather_rows(&[1, 1, 0]);
        assert!(g.is_sparse());
        assert_eq!(g.to_dense().row(0), &[0.0, 3.0, 0.0]);
        let w = s.scale_rows(&[2.0, 0.5]);
        assert_eq!(w.to_dense().get(0, 2), 4.0);
        let h = Matrix::hstack_all(&[&s, &s]);
        assert!(h.is_sparse());
        assert_eq!(h.cols(), 6);
        let hd = Matrix::hstack_all(&[&s, &dense()]);
        assert!(!hd.is_sparse());
        assert_eq!(hd.cols(), 6);
    }
}
