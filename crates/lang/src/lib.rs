//! An R-like linear-algebra scripting layer over Morpheus operands.
//!
//! The paper's Figure 1(c) shows Morpheus taking a *standard LA script*
//! (logistic regression in R) and executing it factorized, because the LA
//! operators are overloaded on the normalized-matrix class. This crate
//! reproduces that workflow end to end in Rust:
//!
//! 1. [`parse`] turns an R-flavored script (`%*%`, `t()`, `crossprod()`,
//!    `rowSums()`, `for` loops, `<-` assignment) into an AST;
//! 2. [`optimize`] applies algebraic cleanups (double-transpose
//!    elimination, scalar constant folding);
//! 3. [`eval_program`] runs the AST against an [`Env`] binding names to
//!    [`Value`]s — scalars, regular matrices, **or normalized matrices**.
//!
//! Because evaluation dispatches every operator through the same rewrite
//! rules as the typed API, *the identical script* runs materialized when
//! `T` is bound to a regular matrix and through the per-operator planner
//! (`morpheus_core::PlannedMatrix`, cost-based unless built with another
//! strategy) when `T` is bound to a normalized matrix — no changes to the script,
//! the paper's automation claim.
//!
//! # Example: the paper's logistic-regression script
//!
//! ```
//! use morpheus_core::{Matrix, NormalizedMatrix};
//! use morpheus_dense::DenseMatrix;
//! use morpheus_lang::{parse, eval_program, Env, Value};
//!
//! let script = r#"
//!     w = zeros(4, 1)
//!     for (i in 1:3) {
//!         p = Y / (1 + exp(Y * (T %*% w)))
//!         w = w + alpha * (t(T) %*% p)
//!     }
//!     w
//! "#;
//! let program = parse(script).unwrap();
//!
//! let s = DenseMatrix::from_rows(&[&[1., 2.], &[3., 4.], &[5., 6.], &[0., 1.]]);
//! let r = DenseMatrix::from_rows(&[&[0.5, 1.0], &[1.5, 2.0]]);
//! let tn = NormalizedMatrix::pk_fk(s.into(), &[0, 1, 1, 0], r.into());
//! let y = DenseMatrix::col_vector(&[1.0, -1.0, 1.0, -1.0]);
//!
//! // Factorized: T bound to the normalized matrix (behind the planner).
//! let mut env = Env::new();
//! env.bind("T", Value::normalized(tn.clone()));
//! env.bind("Y", Value::Dense(y.clone()));
//! env.bind("alpha", Value::Scalar(0.01));
//! let w_factorized = eval_program(&program, &mut env).unwrap();
//!
//! // Materialized: the same script, T bound to the join output.
//! let mut env_m = Env::new();
//! env_m.bind("T", Value::Dense(tn.materialize().to_dense()));
//! env_m.bind("Y", Value::Dense(y));
//! env_m.bind("alpha", Value::Scalar(0.01));
//! let w_materialized = eval_program(&program, &mut env_m).unwrap();
//!
//! assert!(w_factorized.as_dense().unwrap()
//!     .approx_eq(w_materialized.as_dense().unwrap(), 1e-10));
//! ```

mod ast;
mod eval;
mod optimize;
mod parser;
mod plan;
mod token;

pub use ast::{BinOp, Expr, Program, Stmt, UnaryFn};
pub use eval::{eval_expr, eval_program, Env, Value};
pub use optimize::optimize;
pub use parser::{parse, parse_expr};
pub use plan::{
    eval_plan, plan_cache_reset, plan_cache_stats, plan_program, run_program, PlanCacheStats,
    ScriptPlan,
};
pub use token::LangError;
