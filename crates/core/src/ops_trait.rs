//! [`LinearOperand`] — the closure property as a Rust trait.
//!
//! The paper's Morpheus overloads R's LA operators on the normalized-matrix
//! class so existing ML scripts factorize automatically. The Rust analog is
//! a trait over the Table-1 operator set: ML algorithms in `morpheus-ml`
//! are generic over `LinearOperand`, so one implementation of, say,
//! logistic regression runs
//!
//! * materialized on a [`Matrix`],
//! * factorized on a [`crate::NormalizedMatrix`],
//! * per-operator planned on a [`crate::Planned`] matrix over any
//!   [`crate::Store`] — [`crate::PlannedMatrix`] in memory,
//!   `morpheus_chunked::PlannedChunkedMatrix` out of core — or
//! * out-of-core on `morpheus_chunked::ChunkedMatrix`
//!
//! without a line changing — the paper's generality and closure desiderata.

use crate::{KeyColumn, Matrix};
use morpheus_dense::{simd, DenseMatrix, ScalarOp};
use morpheus_linalg::{ginv_sym, ginv_sym_psd};

/// The operator set of Table 1, as consumed by LA-written ML algorithms.
///
/// Parameter matrices (`X`, weight vectors, centroid matrices, …) are always
/// small and dense; the data matrix implementing this trait may be anything.
/// One operator goes beyond Table 1: [`LinearOperand::t_lmm_indicator`],
/// `Tᵀ A` for a one-hot `A` held as its key column (K-Means' centroid
/// update). Every operand in this workspace computes it as group sums, so
/// that neither `A` nor the `O(n·d·k)` product is formed and a non-finite
/// row stays in its group; the trait default is the one-hot product.
pub trait LinearOperand {
    /// Number of data rows (examples).
    fn nrows(&self) -> usize;

    /// Number of data columns (features).
    fn ncols(&self) -> usize;

    /// Left matrix multiplication `T X`.
    fn lmm(&self, x: &DenseMatrix) -> DenseMatrix;

    /// Left matrix multiplication `T X` written into a caller-provided
    /// row-major buffer of `nrows() * x.cols()` slots, so repeated
    /// whole-operand scoring can reuse one allocation across calls. (The
    /// scoring service wants *some* rows of a normalized `T X` and calls
    /// `NormalizedMatrix::lmm_rows_from_partials` instead.) Every
    /// implementation is bit-identical to its [`LinearOperand::lmm`]: the
    /// default delegates to `lmm` and copies; representations with a
    /// native into-kernel (the normalized rewrite's accumulator) override
    /// it to skip the output allocation.
    ///
    /// # Panics
    /// Panics if `out.len() != self.nrows() * x.cols()`.
    fn lmm_into(&self, x: &DenseMatrix, out: &mut [f64]) {
        let r = self.lmm(x);
        out.copy_from_slice(r.as_slice());
    }

    /// Transposed left multiplication `Tᵀ X` (no transpose materialized).
    fn t_lmm(&self, x: &DenseMatrix) -> DenseMatrix;

    /// `Tᵀ A` for the `nrows() x a.table_rows()` indicator `A` of `a` (a
    /// one-hot row per data row, such as K-Means' assignment), defined as
    /// group sums: column `c` sums the data rows keyed `c`, so a
    /// non-finite row reaches only its own group. The materialized,
    /// factorized, planned and chunked operands all compute it that way,
    /// without building `A`; they may round differently from
    /// [`LinearOperand::t_lmm`] on the one-hot `A`, but not by more than
    /// the two summation orders allow.
    ///
    /// The default runs `t_lmm` on the dense one-hot `A`, so there a
    /// non-finite row also reaches every other group through `0 · x`.
    ///
    /// # Panics
    /// Panics if `a.rows() != self.nrows()`.
    fn t_lmm_indicator(&self, a: &KeyColumn) -> DenseMatrix {
        assert_eq!(
            a.rows(),
            self.nrows(),
            "t_lmm_indicator: A has the wrong height"
        );
        self.t_lmm(&a.to_dense())
    }

    /// Right matrix multiplication `X T`.
    fn rmm(&self, x: &DenseMatrix) -> DenseMatrix;

    /// `crossprod(T) = Tᵀ T`.
    fn crossprod(&self) -> DenseMatrix;

    /// `rowSums(T)` as an `n x 1` vector.
    fn row_sums(&self) -> DenseMatrix;

    /// `rowSums(T ^ 2)` as an `n x 1` vector (K-Means' squared row
    /// norms). The default is `self.squared().row_sums()`; an override
    /// must return the same bits without having to form `T ^ 2`.
    fn row_sums_squared(&self) -> DenseMatrix
    where
        Self: Sized,
    {
        self.squared().row_sums()
    }

    /// `colSums(T)` as a `1 x d` vector.
    fn col_sums(&self) -> DenseMatrix;

    /// `sum(T)`.
    fn sum(&self) -> f64;

    /// `T * x` element-wise by a scalar, staying in the same representation
    /// (closure: scalar ops on normalized data return normalized data).
    fn scale(&self, x: f64) -> Self
    where
        Self: Sized;

    /// `T ^ 2` element-wise, staying in the same representation.
    fn squared(&self) -> Self
    where
        Self: Sized;

    /// Moore–Penrose pseudo-inverse `ginv(T)` (§3.3.6 rewrite for
    /// normalized implementations).
    fn ginv(&self) -> DenseMatrix;

    /// Escape hatch for non-factorizable operators: the regular matrix `T`.
    fn materialize(&self) -> Matrix;
}

impl LinearOperand for Matrix {
    fn nrows(&self) -> usize {
        self.rows()
    }

    fn ncols(&self) -> usize {
        self.cols()
    }

    fn lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        self.matmul_dense(x)
    }

    fn t_lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        self.t_matmul_dense(x)
    }

    fn t_lmm_indicator(&self, a: &KeyColumn) -> DenseMatrix {
        a.group_sums(self).transpose()
    }

    fn rmm(&self, x: &DenseMatrix) -> DenseMatrix {
        self.dense_matmul(x)
    }

    fn crossprod(&self) -> DenseMatrix {
        Matrix::crossprod(self)
    }

    fn row_sums(&self) -> DenseMatrix {
        Matrix::row_sums(self)
    }

    /// Squares one row at a time into a reused buffer and sums it with
    /// `row_sums`' lanes, so it is bit for bit the default without the
    /// `n x d` copy. A sparse row squares its stored values only, as
    /// `squared` keeps the matrix sparse.
    fn row_sums_squared(&self) -> DenseMatrix {
        let mut buf = Vec::with_capacity(self.cols());
        let mut sum_sq = |row: &[f64]| {
            buf.clear();
            buf.extend_from_slice(row);
            ScalarOp::Pow(2.0).apply_in_place(&mut buf);
            simd::sum(&buf)
        };
        let sums: Vec<f64> = match self {
            Matrix::Dense(m) => m.row_iter().map(sum_sq).collect(),
            Matrix::Sparse(m) => (0..m.rows()).map(|i| sum_sq(m.row(i).1)).collect(),
        };
        DenseMatrix::col_vector(&sums)
    }

    fn col_sums(&self) -> DenseMatrix {
        Matrix::col_sums(self)
    }

    fn sum(&self) -> f64 {
        Matrix::sum(self)
    }

    fn scale(&self, x: f64) -> Self {
        self.apply(ScalarOp::Mul(x))
    }

    fn squared(&self) -> Self {
        self.apply(ScalarOp::Pow(2.0))
    }

    fn ginv(&self) -> DenseMatrix {
        let (n, d) = self.shape();
        if let Matrix::Dense(m) = self {
            // A symmetric input (a dense `crossprod(T)` in a script) is
            // its own Gram route: the Gram of a Gram would square its
            // condition number and cost two extra d³ products.
            if is_bitwise_symmetric(m) {
                return ginv_sym(m);
            }
        }
        if d < n {
            let g = ginv_sym_psd(&Matrix::crossprod(self));
            self.matmul_dense(&g).transpose()
        } else {
            let g = ginv_sym_psd(&self.tcrossprod());
            self.t_matmul_dense(&g)
        }
    }

    fn materialize(&self) -> Matrix {
        self.clone()
    }
}

/// `true` when `m` is square and equal to its transpose bit for bit — an
/// O(d²) property every `crossprod`/`tcrossprod` result has.
fn is_bitwise_symmetric(m: &DenseMatrix) -> bool {
    let n = m.rows();
    let a = m.as_slice();
    m.is_square()
        && (0..n).all(|i| (0..i).all(|j| a[i * n + j].to_bits() == a[j * n + i].to_bits()))
}

impl LinearOperand for crate::NormalizedMatrix {
    fn nrows(&self) -> usize {
        self.rows()
    }

    fn ncols(&self) -> usize {
        self.cols()
    }

    fn lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        crate::NormalizedMatrix::lmm(self, x)
    }

    fn lmm_into(&self, x: &DenseMatrix, out: &mut [f64]) {
        crate::NormalizedMatrix::lmm_into(self, x, out)
    }

    fn t_lmm(&self, x: &DenseMatrix) -> DenseMatrix {
        crate::NormalizedMatrix::t_lmm(self, x)
    }

    fn t_lmm_indicator(&self, a: &KeyColumn) -> DenseMatrix {
        crate::NormalizedMatrix::t_lmm_indicator(self, a)
    }

    fn rmm(&self, x: &DenseMatrix) -> DenseMatrix {
        crate::NormalizedMatrix::rmm(self, x)
    }

    fn crossprod(&self) -> DenseMatrix {
        crate::NormalizedMatrix::crossprod(self)
    }

    fn row_sums(&self) -> DenseMatrix {
        crate::NormalizedMatrix::row_sums(self)
    }

    fn col_sums(&self) -> DenseMatrix {
        crate::NormalizedMatrix::col_sums(self)
    }

    fn sum(&self) -> f64 {
        crate::NormalizedMatrix::sum(self)
    }

    fn scale(&self, x: f64) -> Self {
        self.apply(ScalarOp::Mul(x))
    }

    fn squared(&self) -> Self {
        self.apply(ScalarOp::Pow(2.0))
    }

    fn ginv(&self) -> DenseMatrix {
        crate::NormalizedMatrix::ginv(self)
    }

    fn materialize(&self) -> Matrix {
        crate::NormalizedMatrix::materialize(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NormalizedMatrix;

    fn fixture() -> NormalizedMatrix {
        let s = DenseMatrix::from_fn(6, 2, |i, j| ((i * 2 + j) % 5) as f64 + 0.5);
        let r = DenseMatrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64 - 2.0);
        NormalizedMatrix::pk_fk(s.into(), &[0, 1, 1, 0, 1, 0], r.into())
    }

    /// A generic "algorithm" written once against the trait.
    fn weighted_signature<M: LinearOperand>(data: &M) -> f64 {
        let w = DenseMatrix::from_fn(data.ncols(), 1, |i, _| (i + 1) as f64 * 0.1);
        let tw = data.lmm(&w);
        let grad = data.t_lmm(&tw);
        grad.sum() + data.scale(2.0).sum() + data.squared().sum() + data.crossprod().sum()
    }

    #[test]
    fn trait_unifies_materialized_and_factorized() {
        let tn = fixture();
        let t = tn.materialize();
        let f = weighted_signature(&tn);
        let m = weighted_signature(&t);
        assert!(
            (f - m).abs() <= 1e-9 * m.abs().max(1.0),
            "trait-generic result differs: {f} vs {m}"
        );
        // `scale(inf)` makes every zero NaN, sparse tables' implicit zeros
        // included, however `T` is stored.
        let inf = f64::INFINITY;
        for tn in [tn, crate::normalized::test_fixtures::sparse_pkfk()] {
            let t = tn.materialize();
            let f = tn.scale(inf).sum();
            for m in [t.clone(), Matrix::Dense(t.to_dense())] {
                let m = m.scale(inf).sum();
                assert!(f == m || f.is_nan() && m.is_nan(), "scale(inf): {f} vs {m}");
            }
        }
    }

    #[test]
    fn trait_shapes_agree() {
        let tn = fixture();
        let t = LinearOperand::materialize(&tn);
        assert_eq!(tn.nrows(), t.nrows());
        assert_eq!(tn.ncols(), t.ncols());
        assert_eq!(tn.row_sums(), LinearOperand::row_sums(&t));
        assert_eq!(tn.col_sums(), LinearOperand::col_sums(&t));
    }

    #[test]
    fn matrix_row_sums_squared_is_bitwise_the_default() {
        use morpheus_sparse::CsrMatrix;
        let same = |a: &DenseMatrix, b: &DenseMatrix| {
            a.shape() == b.shape()
                && a.as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits() || x.is_nan() && y.is_nan())
        };
        // Rows on both sides of the lane cutover, with a NaN row, ±inf
        // rows, an all-zero row and a zero-column table.
        for (n, d) in [(7, 3), (7, 40), (5, 0)] {
            let mut t = DenseMatrix::from_fn(n, d, |i, j| {
                if (i + j) % 3 == 0 {
                    0.0
                } else {
                    ((i * 7 + j * 3) % 11) as f64 * 0.37 - 1.5
                }
            });
            if d > 0 {
                t.set(1, d - 1, f64::NAN);
                t.set(2, 0, f64::INFINITY);
                t.set(3, d / 2, f64::NEG_INFINITY);
                for j in 0..d {
                    t.set(4, j, 0.0);
                }
            }
            let csr = CsrMatrix::from_dense(&t);
            for m in [Matrix::Dense(t), Matrix::Sparse(csr)] {
                let fused = m.row_sums_squared();
                assert!(same(&fused, &m.squared().row_sums()), "{n}x{d}");
                assert_eq!(fused.shape(), (n, 1));
            }
        }
    }

    #[test]
    fn matrix_ginv_both_branches() {
        // tall
        let tall = Matrix::Dense(DenseMatrix::from_fn(5, 2, |i, j| (i * 2 + j) as f64 + 1.0));
        let p = LinearOperand::ginv(&tall);
        let t = tall.to_dense();
        assert!(t.matmul(&p).matmul(&t).approx_eq(&t, 1e-7));
        // wide
        let wide = Matrix::Dense(DenseMatrix::from_fn(2, 5, |i, j| (i + j * 2) as f64 + 0.5));
        let pw = LinearOperand::ginv(&wide);
        let w = wide.to_dense();
        assert!(w.matmul(&pw).matmul(&w).approx_eq(&w, 1e-7));
    }

    /// `ginv` of a dense Gram `G = TᵀT` whose columns are graded so that
    /// cond(T) = 1e3 … 1e5 (cond(G) up to 1e10): `G P G = G` must hold to
    /// working precision, which it cannot if the route squares cond(G).
    #[test]
    fn matrix_ginv_of_graded_gram_satisfies_moore_penrose() {
        let (n, d) = (2000, 100);
        for cond in [1e3f64, 1e4, 1e5] {
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            let t = DenseMatrix::from_fn(n, d, |_, j| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
                u * cond.powf(-(j as f64) / (d - 1) as f64)
            });
            let g = t.crossprod();
            let p = LinearOperand::ginv(&Matrix::Dense(g.clone()));
            let gpg = g.matmul(&p).matmul(&g);
            let max_abs =
                |m: &DenseMatrix| m.as_slice().iter().fold(0.0f64, |a, &x| a.max(x.abs()));
            let rel = max_abs(&gpg.sub(&g)) / max_abs(&g);
            assert!(
                rel <= 1e-10,
                "cond(T) = {cond:e}: max|GPG - G| / max|G| = {rel:e}"
            );
        }
    }
}
