//! Pseudo-inverse rewrites (§3.3.6, appendix A/B).
//!
//! The join output `T` is rarely square, and appendix B shows that even a
//! square `T` is overwhelmingly likely to be singular (invertibility forces
//! `TR ≤ 1/FR + 1`). The paper therefore targets the Moore–Penrose
//! pseudo-inverse with the identities
//!
//! ```text
//! ginv(T) → ginv(crossprod(T)) Tᵀ        if d < n
//! ginv(T) → Tᵀ ginv(crossprod(Tᵀ))       otherwise
//! ```
//!
//! Both sides reduce to factorized operators: the cross-product rewrite for
//! the inner term and (transposed) LMM for the outer product. The inner
//! pseudo-inverse runs on a small `d x d` (or `n x n`) symmetric PSD matrix
//! via the tridiagonal-QL eigendecomposition (`ginv_sym_psd`).

use super::NormalizedMatrix;
use morpheus_dense::DenseMatrix;
use morpheus_linalg::ginv_sym_psd;

impl NormalizedMatrix {
    /// Moore–Penrose pseudo-inverse `ginv(T)`, returned as a regular dense
    /// matrix of shape `cols() x rows()`.
    pub fn ginv(&self) -> DenseMatrix {
        let (n, d) = (self.rows(), self.cols());
        if d < n {
            // ginv(crossprod(T)) Tᵀ = (T G)ᵀ since G is symmetric.
            let g = ginv_sym_psd(&self.crossprod());
            self.lmm(&g).transpose()
        } else {
            // Tᵀ ginv(crossprod(Tᵀ)).
            let g = ginv_sym_psd(&self.tcrossprod());
            self.t_lmm(&g)
        }
    }

    /// Theorem B.1's invertibility bound: for a PK-FK normalized matrix, if
    /// the materialized `T` is invertible then `TR ≤ 1/FR + 1`. Returns
    /// `true` when the bound *rules out* invertibility (so `ginv` is the
    /// only option). Returns `false` when the bound is inconclusive.
    pub fn invertibility_ruled_out(&self) -> bool {
        let stats = self.stats();
        if self.rows() != self.cols() {
            return true; // non-square is never invertible
        }
        let tr = stats.tuple_ratio;
        let fr = stats.feature_ratio;
        if !tr.is_finite() || !fr.is_finite() || fr == 0.0 {
            return false;
        }
        tr > 1.0 / fr + 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_fixtures::*;
    use crate::{Matrix, NormalizedMatrix};
    use morpheus_dense::DenseMatrix;
    use morpheus_linalg::ginv;

    fn check_moore_penrose(a: &DenseMatrix, p: &DenseMatrix, tol: f64) {
        assert!(a.matmul(p).matmul(a).approx_eq(a, tol), "APA != A");
        assert!(p.matmul(a).matmul(p).approx_eq(p, tol), "PAP != P");
        let ap = a.matmul(p);
        assert!(ap.transpose().approx_eq(&ap, tol), "AP not symmetric");
        let pa = p.matmul(a);
        assert!(pa.transpose().approx_eq(&pa, tol), "PA not symmetric");
    }

    #[test]
    fn ginv_matches_materialized_tall() {
        for tn in [figure2(), star2(), mn(), sparse_pkfk()] {
            let f = tn.ginv();
            let t = tn.materialize().to_dense();
            assert_eq!(f.shape(), (t.cols(), t.rows()));
            check_moore_penrose(&t, &f, 1e-7);
            let direct = ginv(&t);
            assert!(f.approx_eq(&direct, 1e-6), "ginv mismatch vs direct SVD");
        }
    }

    #[test]
    fn ginv_wide_branch_via_transpose() {
        // Transposing makes d > n, exercising the second rewrite branch.
        let tn = figure2().transpose();
        let f = tn.ginv();
        let t = tn.materialize().to_dense();
        check_moore_penrose(&t, &f, 1e-7);
    }

    #[test]
    fn invertibility_bound_theorem_b1() {
        // figure2: 5x4, not square → ruled out trivially.
        assert!(figure2().invertibility_ruled_out());
        // Build a square T: nS = dS + dR = 4, with TR = nS/nR = 4/2 = 2 and
        // FR = dR/dS = 1. Bound: TR ≤ 1/FR + 1 = 2 → inconclusive (allowed).
        let s = DenseMatrix::from_rows(&[&[1., 2.], &[3., 4.], &[5., 6.5], &[7., 8.]]);
        let r = DenseMatrix::from_rows(&[&[1., 0.5], &[0.25, 1.]]);
        let tn = NormalizedMatrix::pk_fk(Matrix::Dense(s), &[0, 1, 0, 1], Matrix::Dense(r));
        assert_eq!(tn.rows(), tn.cols());
        assert!(!tn.invertibility_ruled_out());
        // Square but TR too large: nS = 6 = dS + dR with dS = 4, dR = 2,
        // nR = 1 → TR = 6 > 1/0.5 + 1 = 3 → invertibility ruled out.
        let s2 = DenseMatrix::from_fn(6, 4, |i, j| ((i * 31 + j * 17) % 7) as f64);
        let r2 = DenseMatrix::from_fn(1, 2, |_, j| j as f64 + 1.0);
        let tn2 = NormalizedMatrix::pk_fk(Matrix::Dense(s2), &[0; 6], Matrix::Dense(r2));
        assert_eq!(tn2.rows(), tn2.cols());
        assert!(tn2.invertibility_ruled_out());
        // And indeed the materialized T is singular (duplicate R columns).
        let t = tn2.materialize().to_dense();
        assert_eq!(morpheus_linalg::det(&t).unwrap(), 0.0);
    }
}
