//! The Moore–Penrose pseudo-inverse (`ginv` in R / MASS).
//!
//! Three entry points, matching how the paper's rewrites consume them:
//!
//! * [`ginv`] — general rectangular input via the one-sided Jacobi SVD.
//! * [`ginv_sym`] — symmetric, possibly indefinite input via the
//!   tridiagonal-QL eigendecomposition ([`eigen_sym`]). A symmetric
//!   matrix's singular values are its `|λ|`, so this is `ginv` without
//!   the SVD; it is what a dense `ginv(crossprod(T))` in a script runs.
//! * [`ginv_sym_psd`] — symmetric positive-semidefinite input (the Gram
//!   matrix `crossprod(T)`) via the same eigendecomposition, dropping the
//!   rounding-negative eigenvalues; this is the inner routine of the
//!   factorized rewrite `ginv(T) → ginv(crossprod(T)) Tᵀ` (§3.3.6).
//!
//! All three are NaN in, NaN out: an input holding a NaN or an infinity
//! yields an all-NaN matrix of the transposed shape instead of a panic.

use crate::{eigen_sym, svd};
use morpheus_dense::DenseMatrix;

/// Relative tolerance for treating a singular value as zero, mirroring
/// MASS::ginv's default (`sqrt(eps)`-flavored thresholds are too loose for
/// f64; we use the NumPy/LAPACK convention `max(m, n) * eps`).
pub const GINV_RTOL: f64 = f64::EPSILON;

fn cutoff(dim_max: usize, largest: f64) -> f64 {
    dim_max as f64 * GINV_RTOL * largest
}

/// Computes the Moore–Penrose pseudo-inverse `A⁺` of a general matrix.
///
/// `A⁺ = V diag(σᵢ > τ ? 1/σᵢ : 0) Uᵀ` with `τ = max(m,n)·eps·σ_max`.
/// Returns an all-NaN `n x m` matrix when `a` holds a non-finite entry (or
/// the SVD fails to converge, which finite input does not cause).
pub fn ginv(a: &DenseMatrix) -> DenseMatrix {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return DenseMatrix::zeros(n, m);
    }
    if !a.as_slice().iter().all(|x| x.is_finite()) {
        return DenseMatrix::filled(n, m, f64::NAN);
    }
    let Ok(s) = svd(a) else {
        return DenseMatrix::filled(n, m, f64::NAN);
    };
    let tau = cutoff(m.max(n), s.singular.first().copied().unwrap_or(0.0));
    let inv_sigma: Vec<f64> = s
        .singular
        .iter()
        .map(|&x| if x > tau { 1.0 / x } else { 0.0 })
        .collect();
    // A⁺ = V Σ⁺ Uᵀ.
    s.v.scale_cols(&inv_sigma).matmul_t(&s.u)
}

/// Computes the pseudo-inverse of a **symmetric** (possibly indefinite)
/// matrix via its eigendecomposition:
/// `A⁺ = V diag(|λᵢ| > τ ? 1/λᵢ : 0) Vᵀ` with `τ = n·eps·max|λ|` — the
/// same result and cutoff as [`ginv`], since the singular values of a
/// symmetric matrix are its `|λᵢ|`, at a fraction of the SVD's cost and
/// without squaring the condition number.
///
/// Returns an all-NaN matrix when `a` holds a non-finite entry.
///
/// # Panics
/// Panics if `a` is not square.
pub fn ginv_sym(a: &DenseMatrix) -> DenseMatrix {
    eigen_pinv(a, "ginv_sym", |l, tau| l.abs() > tau)
}

/// Computes the pseudo-inverse of a **symmetric positive-semidefinite**
/// matrix (e.g. a Gram matrix) via its eigendecomposition:
/// `A⁺ = V diag(λᵢ > τ ? 1/λᵢ : 0) Vᵀ` with `τ = n·eps·max|λ|`; the
/// negative eigenvalues rounding leaves on a singular Gram are dropped.
///
/// This is cheaper than the general SVD route and is what the factorized
/// `ginv` rewrite calls on `crossprod(T)`. Returns an all-NaN matrix when
/// `a` holds a non-finite entry.
///
/// # Panics
/// Panics if `a` is not square.
pub fn ginv_sym_psd(a: &DenseMatrix) -> DenseMatrix {
    eigen_pinv(a, "ginv_sym_psd", |l, tau| l > tau)
}

/// `V diag(keep(λᵢ, τ) ? 1/λᵢ : 0) Vᵀ` over the eigendecomposition of `a`.
fn eigen_pinv(a: &DenseMatrix, routine: &str, keep: impl Fn(f64, f64) -> bool) -> DenseMatrix {
    assert!(a.is_square(), "{routine}: matrix must be square");
    let n = a.rows();
    // eigen_sym fails only on non-finite input, or on finite input near
    // f64::MAX that overflows inside the decomposition.
    let Ok(e) = eigen_sym(a) else {
        return DenseMatrix::filled(n, n, f64::NAN);
    };
    let largest = e.values.iter().fold(0.0f64, |m, l| m.max(l.abs()));
    let tau = cutoff(n, largest);
    let inv_lambda: Vec<f64> = e
        .values
        .iter()
        .map(|&l| if keep(l, tau) { 1.0 / l } else { 0.0 })
        .collect();
    e.vectors.scale_cols(&inv_lambda).matmul_t(&e.vectors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_moore_penrose(a: &DenseMatrix, p: &DenseMatrix, tol: f64) {
        // 1. A P A = A
        assert!(a.matmul(p).matmul(a).approx_eq(a, tol), "APA != A");
        // 2. P A P = P
        assert!(p.matmul(a).matmul(p).approx_eq(p, tol), "PAP != P");
        // 3. (A P)ᵀ = A P
        let ap = a.matmul(p);
        assert!(ap.transpose().approx_eq(&ap, tol), "AP not symmetric");
        // 4. (P A)ᵀ = P A
        let pa = p.matmul(a);
        assert!(pa.transpose().approx_eq(&pa, tol), "PA not symmetric");
    }

    #[test]
    fn identity_pseudo_inverse() {
        let i = DenseMatrix::identity(3);
        assert!(ginv(&i).approx_eq(&i, 1e-12));
    }

    #[test]
    fn invertible_square_matches_inverse() {
        let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[2.0, 3.0]]);
        let p = ginv(&a);
        let inv = crate::inverse(&a).unwrap();
        assert!(p.approx_eq(&inv, 1e-9));
    }

    #[test]
    fn tall_matrix_moore_penrose() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let p = ginv(&a);
        assert_eq!(p.shape(), (2, 3));
        check_moore_penrose(&a, &p, 1e-8);
        // Full column rank ⇒ P = (AᵀA)⁻¹Aᵀ, so PA = I.
        assert!(p.matmul(&a).approx_eq(&DenseMatrix::identity(2), 1e-8));
    }

    #[test]
    fn wide_matrix_moore_penrose() {
        let a = DenseMatrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0]]);
        let p = ginv(&a);
        assert_eq!(p.shape(), (3, 2));
        check_moore_penrose(&a, &p, 1e-8);
        assert!(a.matmul(&p).approx_eq(&DenseMatrix::identity(2), 1e-8));
    }

    #[test]
    fn rank_deficient_moore_penrose() {
        // rank 1
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let p = ginv(&a);
        check_moore_penrose(&a, &p, 1e-8);
    }

    #[test]
    fn zero_matrix_pseudo_inverse_is_zero_transposed() {
        let a = DenseMatrix::zeros(2, 3);
        let p = ginv(&a);
        assert_eq!(p.shape(), (3, 2));
        assert_eq!(p.nnz(), 0);
    }

    #[test]
    fn sym_psd_route_matches_general_route() {
        let b = DenseMatrix::from_rows(&[
            &[1.0, 2.0, 1.0],
            &[0.0, 1.0, 3.0],
            &[2.0, 0.0, 1.0],
            &[1.0, 1.0, 1.0],
        ]);
        let g = b.crossprod();
        let p1 = ginv_sym_psd(&g);
        let p2 = ginv(&g);
        assert!(p1.approx_eq(&p2, 1e-7));
        check_moore_penrose(&g, &p1, 1e-7);
    }

    #[test]
    fn sym_route_matches_general_route_on_indefinite_input() {
        // Eigenvalues 4, 2, -2 and a zero one: rank 3 and indefinite.
        let a = DenseMatrix::from_rows(&[
            &[1.0, 3.0, 0.0, 0.0],
            &[3.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 2.0, 0.0],
            &[0.0, 0.0, 0.0, 0.0],
        ]);
        let p = ginv_sym(&a);
        assert!(p.approx_eq(&ginv(&a), 1e-12));
        check_moore_penrose(&a, &p, 1e-12);
        // The PSD route drops the negative eigenvalue instead.
        assert!(!ginv_sym_psd(&a).approx_eq(&p, 1e-3));
    }

    #[test]
    fn non_finite_input_gives_all_nan_of_the_transposed_shape() {
        for bad in [f64::NAN, f64::INFINITY] {
            let mut sq = DenseMatrix::identity(3);
            sq.set(1, 1, bad);
            for p in [ginv(&sq), ginv_sym(&sq), ginv_sym_psd(&sq)] {
                assert_eq!(p.shape(), (3, 3));
                assert!(p.as_slice().iter().all(|x| x.is_nan()));
            }
            let mut wide = DenseMatrix::ones(2, 4);
            wide.set(0, 3, bad);
            let p = ginv(&wide);
            assert_eq!(p.shape(), (4, 2));
            assert!(p.as_slice().iter().all(|x| x.is_nan()));
        }
    }

    #[test]
    fn sym_psd_singular_gram() {
        // Gram matrix of a rank-deficient matrix.
        let b = DenseMatrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]);
        let g = b.crossprod();
        let p = ginv_sym_psd(&g);
        check_moore_penrose(&g, &p, 1e-8);
    }

    #[test]
    fn paper_identity_ginv_via_crossprod() {
        // The §3.3.6 rewrite identity: ginv(T) = ginv(crossprod(T)) Tᵀ for any T.
        let t = DenseMatrix::from_rows(&[
            &[1.0, 2.0, 0.5],
            &[3.0, 4.0, 1.0],
            &[5.0, 6.0, -1.0],
            &[0.0, 1.0, 2.0],
            &[2.0, 2.0, 2.0],
        ]);
        let direct = ginv(&t);
        let via_crossprod = ginv_sym_psd(&t.crossprod()).matmul(&t.transpose());
        assert!(direct.approx_eq(&via_crossprod, 1e-7));
    }
}
