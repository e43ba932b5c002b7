//! Dense `f64` matrix kernels for the Morpheus factorized linear-algebra stack.
//!
//! This crate is the lowest-level substrate of the workspace: a row-major,
//! heap-allocated dense matrix with the elementary and derived linear-algebra
//! operators that the paper *"Towards Linear Algebra over Normalized Data"*
//! (VLDB 2017) assumes from its host LA system (R + BLAS). Everything here is
//! written from scratch — no BLAS, no external numeric crates.
//!
//! # Conventions
//!
//! * Data examples are **rows** (the paper's convention), features are columns.
//! * All element types are `f64`.
//! * Shape mismatches in operators **panic** with a descriptive message, the
//!   same contract as R, NumPy, and the `ndarray` crate. Constructors that
//!   validate user-provided buffers return [`Result`] instead.
//!
//! # Example
//!
//! ```
//! use morpheus_dense::DenseMatrix;
//!
//! let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = DenseMatrix::identity(2);
//! assert_eq!(a.matmul(&b), a);
//! assert_eq!(a.sum(), 10.0);
//! ```

mod agg;
mod arith;
mod error;
mod matmul;
mod matrix;
pub mod simd;
mod slicing;
mod vecops;

pub use arith::ScalarOp;
pub use error::{DenseError, Result};
pub use matmul::tall_block_rows;
pub use matrix::DenseMatrix;
pub use vecops::{dot, l2_norm, max_abs_diff, scale_in_place};

/// Relative tolerance used by the `approx_eq` helpers across the workspace.
pub const DEFAULT_REL_TOL: f64 = 1e-9;
