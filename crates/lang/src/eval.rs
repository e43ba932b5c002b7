//! Evaluator: runs a parsed script against an environment of scalars,
//! regular matrices, and normalized matrices.
//!
//! The dispatch table in [`eval_bin`] *is* the paper's operator
//! overloading: when an operand is a [`Value::Normalized`], the call is
//! routed through the per-operator planner
//! ([`morpheus_core::PlannedMatrix`]) — each operator runs factorized or
//! materialized according to the matrix's [`morpheus_core::Strategy`]
//! (cost-based by default); element-wise ops between a normalized and a
//! regular matrix fall back to materialization (the non-factorizable
//! case, §3.3.7); everything else runs on the dense kernels.
//!
//! Values are shared, not copied: the environment holds each binding
//! behind an [`Arc`], so a variable read, an assignment (`x = T`) and an
//! operand handed to an operator all reuse one buffer. Only the
//! non-factorizable normalized ⊘ matrix arms and a dense `ginv` copy an
//! operand.

use crate::ast::{BinOp, Expr, Program, Stmt, UnaryFn};
use crate::token::LangError;
use morpheus_core::{LinearOperand, Matrix, PlannedMatrix};
use morpheus_dense::{DenseMatrix, ScalarOp};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// A scalar.
    Scalar(f64),
    /// A regular dense matrix.
    Dense(DenseMatrix),
    /// A normalized matrix behind the per-operator planner.
    Normalized(PlannedMatrix),
}

impl Value {
    /// Wraps a normalized (or already planned) matrix as a script value;
    /// the planner applies the matrix's strategy (cost-based for a bare
    /// [`morpheus_core::NormalizedMatrix`]) to every operator the script
    /// touches it with.
    pub fn normalized(t: impl Into<PlannedMatrix>) -> Value {
        Value::Normalized(t.into())
    }

    /// The value as a scalar, if it is one (1x1 matrices coerce).
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            Value::Scalar(v) => Some(*v),
            Value::Dense(m) if m.shape() == (1, 1) => Some(m.get(0, 0)),
            _ => None,
        }
    }

    /// The value as a dense matrix, if it is one.
    pub fn as_dense(&self) -> Option<&DenseMatrix> {
        match self {
            Value::Dense(m) => Some(m),
            _ => None,
        }
    }

    /// The value as a planned normalized matrix, if it is one.
    pub fn as_normalized(&self) -> Option<&PlannedMatrix> {
        match self {
            Value::Normalized(t) => Some(t),
            _ => None,
        }
    }

    /// `(rows, cols)` of matrix values; `(1, 1)` for scalars.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            Value::Scalar(_) => (1, 1),
            Value::Dense(m) => m.shape(),
            Value::Normalized(t) => t.shape(),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Scalar(_) => "scalar",
            Value::Dense(_) => "matrix",
            Value::Normalized(_) => "normalized matrix",
        }
    }
}

/// Variable bindings for script evaluation. Each binding is shared: two
/// names bound to one value (`x = T`) point at the same buffer.
#[derive(Debug, Clone, Default)]
pub struct Env {
    vars: HashMap<String, Arc<Value>>,
}

impl Env {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds (or rebinds) a name.
    pub fn bind(&mut self, name: &str, value: Value) {
        self.bind_shared(name, Arc::new(value));
    }

    /// Binds a name to a value other names may share.
    pub(crate) fn bind_shared(&mut self, name: &str, value: Arc<Value>) {
        self.vars.insert(name.to_string(), value);
    }

    /// Looks a name up.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.vars.get(name).map(|v| &**v)
    }

    /// A shared handle on a name's value.
    pub(crate) fn get_shared(&self, name: &str) -> Result<Arc<Value>, LangError> {
        self.vars
            .get(name)
            .cloned()
            .ok_or_else(|| LangError::Undefined(name.to_string()))
    }
}

/// The value behind a handle: moved out when the handle is the last one,
/// copied when a binding still shares it.
pub(crate) fn unshare(v: Arc<Value>) -> Value {
    Arc::try_unwrap(v).unwrap_or_else(|v| (*v).clone())
}

/// Evaluates a whole program, returning the value of its last statement.
pub fn eval_program(program: &Program, env: &mut Env) -> Result<Value, LangError> {
    let mut last = Arc::new(Value::Scalar(0.0));
    for stmt in &program.stmts {
        last = eval_stmt(stmt, env)?;
    }
    Ok(unshare(last))
}

fn eval_stmt(stmt: &Stmt, env: &mut Env) -> Result<Arc<Value>, LangError> {
    // Runtime errors surface with the statement's source line; nested
    // statements (loop bodies) already annotated theirs, so the innermost
    // span wins.
    eval_stmt_inner(stmt, env).map_err(|e| e.at(stmt.line()))
}

fn eval_stmt_inner(stmt: &Stmt, env: &mut Env) -> Result<Arc<Value>, LangError> {
    match stmt {
        Stmt::Assign { name, expr, .. } => {
            let v = eval_shared(expr, env)?;
            env.bind_shared(name, Arc::clone(&v));
            Ok(v)
        }
        Stmt::Expr { expr, .. } => eval_shared(expr, env),
        Stmt::For {
            var,
            from,
            to,
            body,
            ..
        } => {
            let lo = expect_scalar(&*eval_shared(from, env)?, "for-range start")?;
            let hi = expect_scalar(&*eval_shared(to, env)?, "for-range end")?;
            let (lo, hi) = (lo.round() as i64, hi.round() as i64);
            let mut last = Arc::new(Value::Scalar(0.0));
            for i in lo..=hi {
                env.bind(var, Value::Scalar(i as f64));
                for s in body {
                    last = eval_stmt(s, env)?;
                }
            }
            Ok(last)
        }
    }
}

pub(crate) fn expect_scalar(v: &Value, what: &str) -> Result<f64, LangError> {
    v.as_scalar()
        .ok_or_else(|| LangError::Type(format!("{what} must be a scalar, got {}", v.kind())))
}

/// Evaluates a single expression.
pub fn eval_expr(expr: &Expr, env: &mut Env) -> Result<Value, LangError> {
    eval_shared(expr, env).map(unshare)
}

fn eval_shared(expr: &Expr, env: &Env) -> Result<Arc<Value>, LangError> {
    match expr {
        Expr::Number(v) => Ok(Arc::new(Value::Scalar(*v))),
        Expr::Var(name) => env.get_shared(name),
        Expr::Neg(inner) => {
            let v = eval_shared(inner, env)?;
            eval_bin(BinOp::Mul, &Value::Scalar(-1.0), &v).map(Arc::new)
        }
        Expr::Bin(op, lhs, rhs) => {
            let l = eval_shared(lhs, env)?;
            let r = eval_shared(rhs, env)?;
            eval_bin(*op, &l, &r).map(Arc::new)
        }
        Expr::Call(f, arg) => eval_call(*f, &eval_shared(arg, env)?),
        Expr::Zeros(r, c) => {
            let (rv, cv) = (eval_shared(r, env)?, eval_shared(c, env)?);
            constant_matrix("zeros", &rv, &cv, DenseMatrix::zeros).map(Arc::new)
        }
        Expr::Ones(r, c) => {
            let (rv, cv) = (eval_shared(r, env)?, eval_shared(c, env)?);
            constant_matrix("ones", &rv, &cv, DenseMatrix::ones).map(Arc::new)
        }
    }
}

/// `zeros(r, c)` / `ones(r, c)`: `build(rows, cols)` on the evaluated
/// dimensions. Fractional dimensions truncate toward zero, as in R. A
/// non-finite or negative dimension is an error, and so is a shape whose
/// element count no buffer can hold.
pub(crate) fn constant_matrix(
    name: &str,
    rows: &Value,
    cols: &Value,
    build: fn(usize, usize) -> DenseMatrix,
) -> Result<Value, LangError> {
    let dim = |v: &Value, axis: &str| {
        let x = expect_scalar(v, &format!("{name} {axis}"))?;
        if x.is_finite() && x >= 0.0 {
            Ok(x as usize)
        } else {
            Err(LangError::Shape(format!(
                "{name}: {axis} must be finite and non-negative, got {x}"
            )))
        }
    };
    let (r, c) = (dim(rows, "rows")?, dim(cols, "cols")?);
    let max_len = isize::MAX as usize / std::mem::size_of::<f64>();
    match r.checked_mul(c) {
        Some(len) if len <= max_len => Ok(Value::Dense(build(r, c))),
        _ => Err(LangError::Shape(format!(
            "{name}: {r} x {c} elements overflow"
        ))),
    }
}

fn shape_err(op: &str, a: (usize, usize), b: (usize, usize)) -> LangError {
    LangError::Shape(format!("{op}: {}x{} vs {}x{}", a.0, a.1, b.0, b.1))
}

pub(crate) fn eval_bin(op: BinOp, l: &Value, r: &Value) -> Result<Value, LangError> {
    use BinOp::*;
    use Value::*;
    match (op, l, r) {
        (op, &Scalar(a), &Scalar(b)) => Ok(Scalar(op.on_scalars(a, b))),

        // `==` with exactly one scalar operand compares element-wise
        // against the scalar, like R's recycling.
        (Eq, Dense(m), &Scalar(x)) | (Eq, &Scalar(x), Dense(m)) => Ok(Dense(eq_scalar(m, x))),
        (Eq, Normalized(t), &Scalar(x)) | (Eq, &Scalar(x), Normalized(t)) => Ok(Dense(
            t.elementwise_fallback(|m| eq_scalar(&dense_of(m), x)),
        )),

        // ---- matrix ⊘ scalar: one element-wise operator, applied by the
        // §3.3.1 rewrite `f(T) → (f(S), K, f(R))` on normalized values.
        // `%*%` with a scalar operand recycles to `*`, as in R.
        (op, m, &Scalar(x)) | (op, &Scalar(x), m) => {
            let f = op
                .with_scalar(x, matches!(l, Scalar(_)))
                .expect("`==` is handled above");
            Ok(apply_scalar_op(f, m))
        }

        // ---- matrix multiplication: LMM / RMM / DMM rewrites ------------
        (MatMul, Normalized(t), Dense(x)) => {
            if t.cols() != x.rows() {
                return Err(shape_err("%*%", t.shape(), x.shape()));
            }
            Ok(Dense(t.lmm(x)))
        }
        (MatMul, Dense(x), Normalized(t)) => {
            if x.cols() != t.rows() {
                return Err(shape_err("%*%", x.shape(), t.shape()));
            }
            Ok(Dense(t.rmm(x)))
        }
        (MatMul, Normalized(a), Normalized(b)) => {
            if a.cols() != b.rows() {
                return Err(shape_err("%*%", a.shape(), b.shape()));
            }
            Ok(Dense(a.dmm(b).to_dense()))
        }
        (MatMul, Dense(a), Dense(b)) => {
            if a.cols() != b.rows() {
                return Err(shape_err("%*%", a.shape(), b.shape()));
            }
            Ok(Dense(a.matmul(b)))
        }

        // ---- element-wise matrix ⊘ matrix -------------------------------
        (op, Dense(a), Dense(b)) => {
            if a.shape() != b.shape() {
                return Err(shape_err(op_name(op), a.shape(), b.shape()));
            }
            Ok(Dense(zip_dense(op, a, b)))
        }

        // ---- non-factorizable: normalized ⊘ matrix (§3.3.7) -------------
        (op, Normalized(t), Dense(b)) => {
            if t.shape() != b.shape() {
                return Err(shape_err(op_name(op), t.shape(), b.shape()));
            }
            Ok(Dense(
                t.elementwise_fallback(|m| zip_dense(op, &dense_of(m), b)),
            ))
        }
        (op, Dense(a), Normalized(t)) => {
            if a.shape() != t.shape() {
                return Err(shape_err(op_name(op), a.shape(), t.shape()));
            }
            Ok(Dense(
                t.elementwise_fallback(|m| zip_dense(op, a, &dense_of(m))),
            ))
        }
        (op, Normalized(a), Normalized(b)) => {
            if a.shape() != b.shape() {
                return Err(shape_err(op_name(op), a.shape(), b.shape()));
            }
            Ok(Dense(b.elementwise_fallback(|mb| {
                a.elementwise_fallback(|ma| zip_dense(op, &dense_of(ma), &dense_of(mb)))
            })))
        }
    }
}

/// The values of a join the §3.3.7 fallback handed over: the memoized
/// dense join borrowed, a sparse one densified.
fn dense_of(m: &Matrix) -> Cow<'_, DenseMatrix> {
    m.as_dense()
        .map_or_else(|| Cow::Owned(m.to_dense()), Cow::Borrowed)
}

/// 1 where `m` equals `x` exactly, 0 elsewhere (R's `m == x`).
fn eq_scalar(m: &DenseMatrix, x: f64) -> DenseMatrix {
    m.map(move |v| if v == x { 1.0 } else { 0.0 })
}

/// `a op b` entry by entry for two same-shape dense matrices.
fn zip_dense(op: BinOp, a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
    match op {
        BinOp::Add => a.add(b),
        BinOp::Sub => a.sub(b),
        BinOp::Mul => a.mul_elem(b),
        BinOp::Div => a.div_elem(b),
        BinOp::Pow => a.zip_map(b, f64::powf),
        // Exact comparison, as in R: the K-Means assignment
        // `D == rowMin(D) %*% ones(1, k)` relies on bitwise-equal copies
        // of the minimum.
        BinOp::Eq => a.eq_indicator(b, 0.0),
        BinOp::MatMul => unreachable!("matrix products are not element-wise"),
    }
}

/// `f(v)` for any value: a normalized matrix through its planner, a dense
/// one through the dense kernel, and a scalar as `eval_bin`'s scalar arm
/// would compute it (`^` as `powf`, squares included).
pub(crate) fn apply_scalar_op(f: ScalarOp, v: &Value) -> Value {
    match v {
        &Value::Scalar(x) => Value::Scalar(match f {
            ScalarOp::Pow(c) => x.powf(c),
            f => f.apply(x),
        }),
        Value::Dense(m) => Value::Dense(m.apply(f)),
        Value::Normalized(t) => Value::Normalized(t.apply(f)),
    }
}

fn op_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Pow => "^",
        BinOp::MatMul => "%*%",
        BinOp::Eq => "==",
    }
}

pub(crate) fn eval_call(f: UnaryFn, v: &Arc<Value>) -> Result<Arc<Value>, LangError> {
    use UnaryFn::*;
    Ok(Arc::new(match (f, &**v) {
        // Element-wise functions: one operator for every kind of value.
        (Exp | Log | Sigmoid, v) => apply_scalar_op(f.scalar_op().expect("element-wise"), v),
        (Sum | Transpose, Value::Scalar(_)) => return Ok(Arc::clone(v)),
        (f, Value::Scalar(_)) => {
            return Err(LangError::Type(format!(
                "{}() expects a matrix argument",
                f.name()
            )))
        }

        // Normalized: every call routes through a rewrite.
        (Transpose, Value::Normalized(t)) => Value::Normalized(t.transpose()),
        (RowSums, Value::Normalized(t)) => Value::Dense(t.row_sums()),
        (RowMin, Value::Normalized(t)) => Value::Dense(t.row_min()),
        (ColSums, Value::Normalized(t)) => Value::Dense(t.col_sums()),
        (Sum, Value::Normalized(t)) => Value::Scalar(t.sum()),
        (Crossprod, Value::Normalized(t)) => Value::Dense(t.crossprod()),
        (TCrossprod, Value::Normalized(t)) => Value::Dense(t.tcrossprod()),
        (Ginv, Value::Normalized(t)) => Value::Dense(t.ginv()),
        (Materialize, Value::Normalized(t)) => Value::Dense(t.materialize().to_dense()),

        // Dense.
        (Transpose, Value::Dense(m)) => Value::Dense(m.transpose()),
        (RowSums, Value::Dense(m)) => Value::Dense(m.row_sums()),
        (RowMin, Value::Dense(m)) => Value::Dense(m.row_min()),
        (ColSums, Value::Dense(m)) => Value::Dense(m.col_sums()),
        (Sum, Value::Dense(m)) => Value::Scalar(m.sum()),
        (Crossprod, Value::Dense(m)) => Value::Dense(m.crossprod()),
        (TCrossprod, Value::Dense(m)) => Value::Dense(m.tcrossprod()),
        (Ginv, Value::Dense(m)) => Value::Dense(LinearOperand::ginv(&Matrix::Dense(m.clone()))),
        (Materialize, Value::Dense(_)) => return Ok(Arc::clone(v)),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr};
    use morpheus_core::{AttributePart, DecisionRule, NormalizedMatrix, Strategy};

    /// Every routing strategy: each test that binds a normalized matrix
    /// runs under all four, since routing must never change a result
    /// beyond rounding.
    fn strategies() -> [Strategy; 4] {
        [
            Strategy::CostBased,
            Strategy::Heuristic(DecisionRule::default()),
            Strategy::AlwaysFactorize,
            Strategy::AlwaysMaterialize,
        ]
    }

    /// `t` behind the planner with `strategy`, as a script value.
    fn planned(t: &NormalizedMatrix, strategy: Strategy) -> Value {
        Value::normalized(PlannedMatrix::with_strategy(t.clone(), strategy))
    }

    fn fixture() -> (NormalizedMatrix, DenseMatrix) {
        // Full-column-rank join output (6x5) so pseudo-inverse routes agree.
        let s = DenseMatrix::from_fn(6, 2, |i, j| ((i * i + 2 * j + 1) % 7) as f64 - 1.0);
        let r = DenseMatrix::from_fn(3, 3, |i, j| ((i * 3 + j * j) % 5) as f64 * 0.5 + 0.1);
        let tn = NormalizedMatrix::pk_fk(s.into(), &[0, 1, 2, 0, 1, 2], r.into());
        let td = tn.materialize().to_dense();
        (tn, td)
    }

    fn eval_with_t(src: &str, t: Value) -> Value {
        let program = parse(src).unwrap();
        let mut env = Env::new();
        env.bind("T", t);
        eval_program(&program, &mut env).unwrap()
    }

    #[test]
    fn scalar_arithmetic() {
        let mut env = Env::new();
        let e = parse_expr("2 + 3 * 4 ^ 2").unwrap();
        let v = eval_expr(&e, &mut env).unwrap();
        assert_eq!(v.as_scalar(), Some(50.0));
    }

    #[test]
    fn undefined_variable_reported() {
        let mut env = Env::new();
        let e = parse_expr("nope + 1").unwrap();
        assert!(matches!(
            eval_expr(&e, &mut env),
            Err(LangError::Undefined(ref n)) if n == "nope"
        ));
    }

    #[test]
    fn every_operator_matches_between_backends() {
        let (tn, td) = fixture();
        for src in [
            "sum(T)",
            "sum(rowSums(T))",
            "sum(colSums(T))",
            "sum(crossprod(T))",
            "sum(tcrossprod(T))",
            "sum(t(T))",
            "sum(exp(T / 10))",
            "sum(2 * T + 1)",
            "sum((T ^ 2) / 3 - 0.5)",
            "sum(sigmoid(T))",
            "sum(ginv(T))",
            "sum(t(T) %*% T)",
        ] {
            let m = eval_with_t(src, Value::Dense(td.clone()))
                .as_scalar()
                .unwrap();
            for strategy in strategies() {
                let f = eval_with_t(src, planned(&tn, strategy))
                    .as_scalar()
                    .unwrap();
                assert!(
                    (f - m).abs() <= 1e-6 * m.abs().max(1.0),
                    "script '{src}' diverged under {strategy:?}: {f} vs {m}"
                );
            }
        }
    }

    #[test]
    fn normalized_scalar_ops_stay_normalized() {
        let (tn, _) = fixture();
        for strategy in strategies() {
            let v = eval_with_t("exp(2 * T + 1)", planned(&tn, strategy));
            assert!(
                matches!(v, Value::Normalized(_)),
                "closure lost under {strategy:?}"
            );
        }
    }

    #[test]
    fn matmul_shape_errors() {
        let (tn, _) = fixture();
        let program = parse("T %*% T").unwrap();
        for strategy in strategies() {
            let mut env = Env::new();
            env.bind("T", planned(&tn, strategy));
            let err = eval_program(&program, &mut env).unwrap_err();
            assert!(matches!(err.root(), LangError::Shape(_)), "{strategy:?}");
        }
    }

    #[test]
    fn runtime_errors_carry_statement_lines() {
        let program = parse("x = 1\ny = x\nz = nope + 1").unwrap();
        let mut env = Env::new();
        let err = eval_program(&program, &mut env).unwrap_err();
        assert!(matches!(err, LangError::At { line: 3, .. }), "{err:?}");
        assert!(matches!(err.root(), LangError::Undefined(n) if n == "nope"));
        assert_eq!(err.to_string(), "line 3: undefined variable 'nope'");
        // Inside a loop body, the innermost statement's line wins.
        let program = parse("for (i in 1:2) {\n  q = missing\n}").unwrap();
        let err = eval_program(&program, &mut Env::new()).unwrap_err();
        assert!(matches!(err, LangError::At { line: 2, .. }), "{err:?}");
    }

    #[test]
    fn elementwise_with_regular_matrix_materializes() {
        // The §3.3.7 arms, on a join of dense tables (whose memoized join
        // the fallback borrows) and of CSR tables (densified): same values.
        let (tn, td) = fixture();
        let csr = |p: &AttributePart| {
            AttributePart::new(p.indicator().clone(), p.table().to_csr().into())
        };
        let sparse =
            NormalizedMatrix::try_from_parts(tn.parts().iter().map(csr).collect()).unwrap();
        for (src, expected) in [
            ("T + X", td.apply(ScalarOp::Mul(2.0))),
            ("X - T", DenseMatrix::zeros(6, 5)),
            ("T * T", td.mul_elem(&td)),
            ("T == 0.1", td.map(|v| if v == 0.1 { 1.0 } else { 0.0 })),
        ] {
            for (t, strategy) in [&tn, &sparse]
                .into_iter()
                .flat_map(|t| strategies().map(|s| (t, s)))
            {
                let mut env = Env::new();
                env.bind("T", planned(t, strategy));
                env.bind("X", Value::Dense(td.clone()));
                let v = eval_program(&parse(src).unwrap(), &mut env).unwrap();
                assert!(
                    v.as_dense().unwrap().approx_eq(&expected, 1e-12),
                    "'{src}' under {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn for_loop_accumulates() {
        let mut env = Env::new();
        env.bind("x", Value::Scalar(0.0));
        let v = eval_program(&parse("for (i in 1:5) { x = x + i }\nx").unwrap(), &mut env).unwrap();
        assert_eq!(v.as_scalar(), Some(15.0));
    }

    #[test]
    fn figure1_logistic_regression_script_factorizes() {
        let (tn, td) = fixture();
        let y = DenseMatrix::from_fn(6, 1, |i, _| if i % 2 == 0 { 1.0 } else { -1.0 });
        let script = r#"
            w = zeros(5, 1)
            for (i in 1:10) {
                w = w + a * (t(T) %*% (Y / (1 + exp(Y * (T %*% w)))))
            }
            w
        "#;
        let program = parse(script).unwrap();

        let mut env_m = Env::new();
        env_m.bind("T", Value::Dense(td));
        env_m.bind("Y", Value::Dense(y.clone()));
        env_m.bind("a", Value::Scalar(0.05));
        let wm = eval_program(&program, &mut env_m).unwrap();
        let native = morpheus_ml::logreg::LogisticRegressionGd::new(0.05, 10)
            .fit(&tn, &y)
            .w;

        for strategy in strategies() {
            let mut env_f = Env::new();
            env_f.bind("T", planned(&tn, strategy));
            env_f.bind("Y", Value::Dense(y.clone()));
            env_f.bind("a", Value::Scalar(0.05));
            let wf = eval_program(&program, &mut env_f).unwrap();
            let wf = wf.as_dense().unwrap();
            assert!(wf.approx_eq(wm.as_dense().unwrap(), 1e-9), "{strategy:?}");
            // And both match the native Rust implementation.
            assert!(wf.approx_eq(&native, 1e-9), "{strategy:?}");
        }
    }

    #[test]
    fn linear_regression_script_matches_native() {
        let (tn, _) = fixture();
        let y = DenseMatrix::from_fn(6, 1, |i, _| i as f64 * 0.3 - 1.0);
        let script = "ginv(crossprod(T)) %*% (t(T) %*% Y)";
        let program = parse(script).unwrap();
        let native = morpheus_ml::linreg::LinearRegressionNe::new().fit(&tn, &y);
        for strategy in strategies() {
            let mut env = Env::new();
            env.bind("T", planned(&tn, strategy));
            env.bind("Y", Value::Dense(y.clone()));
            let w = eval_program(&program, &mut env).unwrap();
            assert!(
                w.as_dense().unwrap().approx_eq(&native, 1e-6),
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn dmm_through_script() {
        let (tn, td) = fixture();
        // T has 5 columns; build B = 5x? normalized for t(T) %*% ... skip —
        // exercise A %*% B with conformable normalized pair instead.
        let sb = DenseMatrix::from_fn(5, 1, |i, _| i as f64 * 0.2);
        let rb = DenseMatrix::from_fn(2, 2, |i, j| (i + j) as f64 + 0.5);
        let b = NormalizedMatrix::pk_fk(sb.into(), &[0, 1, 0, 1, 0], rb.into());
        let bd = b.materialize().to_dense();
        let expected = td.matmul(&bd);
        for sa in strategies() {
            for sb in strategies() {
                let mut env = Env::new();
                env.bind("A", planned(&tn, sa));
                env.bind("B", planned(&b, sb));
                let v = eval_program(&parse("A %*% B").unwrap(), &mut env).unwrap();
                assert!(
                    v.as_dense().unwrap().approx_eq(&expected, 1e-9),
                    "A under {sa:?}, B under {sb:?}"
                );
            }
        }
    }
}
