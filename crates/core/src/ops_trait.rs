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

use crate::Matrix;
use morpheus_dense::DenseMatrix;
use morpheus_linalg::{ginv_sym, ginv_sym_psd};

/// The operator set of Table 1, as consumed by LA-written ML algorithms.
///
/// Parameter matrices (`X`, weight vectors, centroid matrices, …) are always
/// small and dense; the data matrix implementing this trait may be anything.
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

    /// Right matrix multiplication `X T`.
    fn rmm(&self, x: &DenseMatrix) -> DenseMatrix;

    /// `crossprod(T) = Tᵀ T`.
    fn crossprod(&self) -> DenseMatrix;

    /// `rowSums(T)` as an `n x 1` vector.
    fn row_sums(&self) -> DenseMatrix;

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

    fn rmm(&self, x: &DenseMatrix) -> DenseMatrix {
        self.dense_matmul(x)
    }

    fn crossprod(&self) -> DenseMatrix {
        Matrix::crossprod(self)
    }

    fn row_sums(&self) -> DenseMatrix {
        Matrix::row_sums(self)
    }

    fn col_sums(&self) -> DenseMatrix {
        Matrix::col_sums(self)
    }

    fn sum(&self) -> f64 {
        Matrix::sum(self)
    }

    fn scale(&self, x: f64) -> Self {
        self.scalar_mul(x)
    }

    fn squared(&self) -> Self {
        self.scalar_pow(2.0)
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
        self.scalar_mul(x)
    }

    fn squared(&self) -> Self {
        self.scalar_pow(2.0)
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
