//! Error type for the numerical routines.

use std::fmt;

/// Errors surfaced by the factorizations and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix is singular to working precision (pivot below threshold).
    Singular {
        /// Index of the failing pivot.
        pivot: usize,
    },
    /// A Cholesky factorization found a non-positive diagonal.
    NotPositiveDefinite {
        /// Index of the failing diagonal entry.
        index: usize,
    },
    /// An iterative routine failed to converge within its sweep budget.
    NoConvergence {
        /// The routine that failed.
        routine: &'static str,
        /// Number of sweeps performed (for `eigen_sym`, the per-eigenvalue
        /// QL iteration cap).
        sweeps: usize,
    },
    /// The input holds a NaN or an infinity, which the routine rejects
    /// before doing any work.
    NonFinite {
        /// The routine that rejected the input.
        routine: &'static str,
        /// Row of the first non-finite entry in row-major order.
        row: usize,
        /// Column of that entry.
        col: usize,
    },
    /// Input did not have the required shape (e.g. non-square for LU).
    BadShape(String),
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular to working precision (pivot {pivot})")
            }
            LinalgError::NotPositiveDefinite { index } => {
                write!(f, "matrix is not positive definite (diagonal {index})")
            }
            LinalgError::NoConvergence { routine, sweeps } => {
                write!(f, "{routine} did not converge after {sweeps} sweeps")
            }
            LinalgError::NonFinite { routine, row, col } => {
                write!(f, "{routine}: non-finite entry at ({row}, {col})")
            }
            LinalgError::BadShape(msg) => write!(f, "bad shape: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias for results with [`LinalgError`].
pub type LinalgResult<T> = std::result::Result<T, LinalgError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(LinalgError::Singular { pivot: 3 }
            .to_string()
            .contains("pivot 3"));
        assert!(LinalgError::NotPositiveDefinite { index: 1 }
            .to_string()
            .contains("positive definite"));
        assert!(LinalgError::NoConvergence {
            routine: "jacobi_svd",
            sweeps: 30
        }
        .to_string()
        .contains("jacobi_svd"));
        assert!(LinalgError::NonFinite {
            routine: "eigen_sym",
            row: 2,
            col: 1
        }
        .to_string()
        .contains("non-finite entry at (2, 1)"));
        assert!(LinalgError::BadShape("2x3".into())
            .to_string()
            .contains("2x3"));
    }
}
