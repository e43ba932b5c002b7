//! The normalized matrix and the factorized linear-algebra rewrite rules —
//! the primary contribution of *"Towards Linear Algebra over Normalized
//! Data"* (Chen, Kumar, Naughton, Patel — VLDB 2017).
//!
//! # What this crate provides
//!
//! * [`Matrix`] — a *regular* matrix that is either dense or sparse, the
//!   paper's assumption that "any of R, S, and T can be dense or sparse".
//! * [`NormalizedMatrix`] — the paper's new **logical data type**: a
//!   multi-matrix representation of the join output `T` that never
//!   materializes the join. One unified representation covers
//!   single PK-FK joins (§3.1), star-schema multi-table PK-FK joins (§3.5),
//!   two-table M:N joins (§3.6), and multi-table M:N joins (appendix E).
//! * The **rewrite rules** of Table 1: element-wise scalar operators,
//!   aggregations, left/right matrix multiplication, cross-products,
//!   pseudo-inversion, transposition (appendix A), and double matrix
//!   multiplication (appendix C) — each implemented as an operator on
//!   [`NormalizedMatrix`] that only produces other LA operations
//!   (the paper's *closure* property).
//! * [`LinearOperand`] — the trait that realizes the closure property in
//!   Rust: ML algorithms written against it run unchanged on materialized
//!   matrices, normalized matrices, or any other backend.
//! * [`PlannedMatrix`] — the per-operator cost-based planner: every
//!   [`LinearOperand`] call is routed factorized or materialized by
//!   comparing calibrated time estimates, with the materialized join
//!   memoized so one "materialize" verdict amortizes across later
//!   operators. [`Strategy`] selects the routing policy
//!   (`MORPHEUS_STRATEGY`): cost-based, the paper's τ/ρ
//!   [`DecisionRule`] heuristic (§3.7, §5.1), or the two always-arms.
//!   It is [`Planned`] over the in-memory [`Store`]; other stores (the
//!   chunked backend's) reuse the same planner.
//! * [`MachineProfile`] — per-kernel ns/op rates: a size-tiered
//!   blocked-dense curve (L2/L3/DRAM working sets), streaming, sparse-
//!   product, and gather rates — calibrated lazily, once per process, by
//!   microbenchmarks on the resident runtime pool.
//! * [`cost`] — the arithmetic-computation cost model of Table 3 /
//!   Table 11, extended with per-operator time estimates
//!   ([`cost::estimate_op`]) over the unified multi-part representation.
//! * [`MorpheusError`] / [`Result`] — the workspace-wide unified error
//!   layer: every crate's error converts in with `?`; crates above core
//!   in the DAG (`lang`, `data`) convert via message-carrying variants.
//!
//! # Example: factorized vs. materialized are numerically identical
//!
//! ```
//! use morpheus_core::{LinearOperand, NormalizedMatrix};
//! use morpheus_dense::DenseMatrix;
//!
//! let s = DenseMatrix::from_rows(&[&[1., 2.], &[4., 3.], &[5., 6.], &[8., 7.], &[9., 1.]]);
//! let r = DenseMatrix::from_rows(&[&[1.1, 2.2], &[3.3, 4.4]]);
//! let fk = [0usize, 1, 1, 0, 1]; // S.K -> R row numbers
//! let tn = NormalizedMatrix::pk_fk(s.into(), &fk, r.into());
//!
//! let x = DenseMatrix::from_rows(&[&[1.], &[2.], &[3.], &[4.]]);
//! let factorized = tn.lmm(&x);                       // rewrite rule
//! let materialized = tn.materialize().lmm(&x);       // join first
//! assert!(factorized.approx_eq(&materialized, 1e-12));
//! ```

pub mod cost;
mod decision;
mod error;
mod matrix;
mod normalized;
mod ops_trait;
mod planner;
mod profile;

pub use decision::DecisionRule;
pub use error::{CoreError, CoreResult, MorpheusError, Result};
pub use matrix::Matrix;
pub use normalized::{AttributePart, Indicator, JoinStats, KeyColumn, NormalizedMatrix};
pub use ops_trait::LinearOperand;
pub use planner::{
    Decision, DecisionHook, Planned, PlannedMatrix, RowChunked, Store, Strategy, STRATEGY_ENV,
};
pub use profile::{DenseTier, MachineProfile, CALIBRATION_TIMEOUT};
