//! # Morpheus: factorized linear algebra over normalized data
//!
//! A Rust implementation of *"Towards Linear Algebra over Normalized Data"*
//! (Chen, Kumar, Naughton, Patel — VLDB 2017). This facade crate re-exports
//! the whole workspace behind one dependency:
//!
//! * [`runtime`] — the shared scoped-thread parallel runtime ([`runtime::Executor`],
//!   the process-global [`runtime::Runtime`], `MORPHEUS_NUM_THREADS`).
//! * [`dense`] — dense `f64` matrix kernels (GEMM, crossprod, aggregations),
//!   band-parallel on the shared runtime.
//! * [`sparse`] — CSR sparse matrices and the join indicator matrices.
//! * [`linalg`] — QR, LU, Cholesky, eigendecomposition, SVD, pseudo-inverse.
//! * [`core`] — the **normalized matrix** and the factorized rewrite rules.
//! * [`ml`] — ML algorithms (logistic/linear regression, K-Means, GNMF)
//!   written once and automatically factorized.
//! * [`data`] — synthetic and simulated-real dataset generators.
//! * [`chunked`] — a row-chunked parallel backend (Oracle R Enterprise analog).
//! * [`lang`] — an R-like LA scripting layer: the same script runs
//!   materialized or factorized depending on what `T` is bound to.
//!
//! ## Quickstart
//!
//! ```
//! use morpheus::prelude::*;
//!
//! // Entity table S (4 rows, 2 features), attribute table R (2 rows, 2
//! // features), and the foreign key S.K -> R.
//! let s = DenseMatrix::from_rows(&[&[1., 2.], &[4., 3.], &[5., 6.], &[8., 7.]]);
//! let r = DenseMatrix::from_rows(&[&[1.1, 2.2], &[3.3, 4.4]]);
//! let fk = [0usize, 1, 1, 0];
//!
//! let tn = NormalizedMatrix::pk_fk(s.into(), &fk, r.into());
//! // The normalized matrix behaves exactly like the join output T = [S, KR]:
//! let t = tn.materialize().to_dense();
//! assert_eq!(t.shape(), (4, 4));
//! assert_eq!(tn.sum(), t.sum());
//! ```

pub use morpheus_chunked as chunked;
pub use morpheus_core as core;
pub use morpheus_data as data;
pub use morpheus_dense as dense;
pub use morpheus_lang as lang;
pub use morpheus_linalg as linalg;
pub use morpheus_ml as ml;
pub use morpheus_runtime as runtime;
pub use morpheus_serve as serve;
pub use morpheus_sparse as sparse;

/// Convenient single-line import of the most commonly used types.
///
/// Includes the workspace-wide unified error layer: [`MorpheusError`](prelude::MorpheusError) and
/// the [`MorpheusResult`](prelude::MorpheusResult) alias (re-exported from `morpheus_core::Result`
/// under a collision-free name), into which every layer's error converts
/// with `?`:
///
/// ```
/// use morpheus::prelude::*;
///
/// fn pipeline(script: &str, data: Vec<f64>) -> MorpheusResult<Value> {
///     let t = DenseMatrix::from_vec(2, 2, data)?; // DenseError -> MorpheusError
///     let program = parse(script)?;               // LangError  -> MorpheusError
///     let mut env = Env::new();
///     env.bind("T", Value::Dense(t));
///     Ok(eval_program(&program, &mut env)?)
/// }
///
/// assert!(pipeline("sum(T)", vec![1., 2., 3., 4.]).is_ok());
/// assert!(matches!(
///     pipeline("sum(T)", vec![1., 2., 3.]),
///     Err(MorpheusError::Dense(_))
/// ));
/// assert!(matches!(
///     pipeline("sum(", vec![1., 2., 3., 4.]),
///     Err(MorpheusError::Lang(_))
/// ));
/// ```
pub mod prelude {
    pub use morpheus_chunked::ChunkedMatrix;
    pub use morpheus_core::{
        cost::OpKind, Decision, DecisionRule, LinearOperand, MachineProfile, Matrix, MorpheusError,
        NormalizedMatrix, PlannedMatrix, Result as MorpheusResult, Strategy,
    };
    pub use morpheus_data::synth::{MnJoinSpec, PkFkSpec, StarSpec};
    pub use morpheus_dense::{DenseMatrix, ScalarOp};
    pub use morpheus_lang::{
        eval_program, parse, plan_program, run_program, Env, ScriptPlan, Value,
    };
    pub use morpheus_ml::{
        gnmf::Gnmf, kmeans::KMeans, linreg::LinearRegressionGd, linreg::LinearRegressionNe,
        logreg::LogisticRegressionGd,
    };
    pub use morpheus_runtime::{Executor, Runtime};
    pub use morpheus_serve::{ScoringModel, ScoringService, ServeConfig};
    pub use morpheus_sparse::CsrMatrix;
}
