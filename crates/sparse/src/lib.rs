//! CSR sparse matrix kernels for the Morpheus factorized linear-algebra stack.
//!
//! Real-world feature matrices are sparse one-hot encodings, so the base
//! tables of a normalized matrix may be sparse. This crate provides a
//! compressed-sparse-row matrix with the kernels the rewrites need over
//! them: sparse×dense and dense×sparse products, sparse×sparse products
//! (SpGEMM), transposition, aggregations, and row and column scaling. The
//! join indicators themselves are not stored here: `morpheus-core` keeps
//! each one as a foreign-key column and builds a CSR operand from it only
//! for the few products that need one.
//!
//! # Example
//!
//! ```
//! use morpheus_sparse::CsrMatrix;
//! use morpheus_dense::DenseMatrix;
//!
//! // A 3x2 sparse feature table times a dense 2x1 weight vector.
//! let s = CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0)]).unwrap();
//! let w = DenseMatrix::col_vector(&[0.5, -1.0]);
//! let sw = s.spmm_dense(&w);
//! assert_eq!(sw.as_slice(), &[0.5, -2.0, 1.5]);
//! ```

mod agg;
mod arith;
mod convert;
mod csr;
mod error;
mod products;

pub use csr::{CsrMatrix, Triplet};
pub use error::{SparseError, SparseResult};
