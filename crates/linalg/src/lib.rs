//! Numerical linear algebra for the Morpheus stack.
//!
//! The paper's rewrites for matrix inversion (§3.3.6) assume the host LA
//! system provides `solve` and `ginv` (the Moore–Penrose pseudo-inverse, via
//! an economy SVD in R). This crate supplies those routines from scratch:
//!
//! * LU decomposition with partial pivoting — `solve`, determinant, and the
//!   inverse of well-conditioned square matrices.
//! * Cholesky factorization of symmetric positive-definite matrices — the
//!   fast path for normal-equation solves.
//! * Householder QR — least-squares solves for full-rank systems.
//! * Eigendecomposition of symmetric matrices by Householder
//!   tridiagonalization and implicit-shift QL.
//! * One-sided Jacobi SVD of general rectangular matrices.
//! * The Moore–Penrose pseudo-inverse `ginv`: the general SVD-backed form,
//!   and two eigen-backed forms for symmetric input — `ginv_sym` (any
//!   symmetric matrix) and `ginv_sym_psd` (a Gram matrix, as in the
//!   factorized `ginv(crossprod(T))` rewrite).
//!
//! All routines operate on [`morpheus_dense::DenseMatrix`].
//!
//! # Example
//!
//! ```
//! use morpheus_dense::DenseMatrix;
//! use morpheus_linalg::{ginv, solve};
//!
//! let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let b = DenseMatrix::col_vector(&[1.0, 2.0]);
//! let x = solve(&a, &b).unwrap();
//! assert!(a.matmul(&x).approx_eq(&b, 1e-10));
//!
//! // Pseudo-inverse of a rectangular matrix.
//! let t = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
//! let p = ginv(&t);
//! // Moore–Penrose condition: T * T⁺ * T == T.
//! assert!(t.matmul(&p).matmul(&t).approx_eq(&t, 1e-9));
//! ```

mod cholesky;
mod eigen;
mod error;
mod ginv_impl;
mod lu;
mod qr;
mod svd;
mod triangular;

pub use cholesky::{cholesky, solve_spd};
pub use eigen::{eigen_sym, EigenSym};
pub use error::{LinalgError, LinalgResult};
pub use ginv_impl::{ginv, ginv_sym, ginv_sym_psd, GINV_RTOL};
pub use lu::{det, inverse, lu_decompose, solve, LuDecomposition};
pub use qr::{householder_qr, lstsq, QrDecomposition};
pub use svd::{svd, Svd};
pub use triangular::{solve_lower_triangular, solve_upper_triangular};
