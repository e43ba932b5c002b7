//! The abstract syntax tree for the R-like LA subset.

use morpheus_dense::ScalarOp;

/// Element-wise / matrix binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+` (element-wise).
    Add,
    /// `-` (element-wise).
    Sub,
    /// `*` (element-wise / scalar).
    Mul,
    /// `/` (element-wise / scalar).
    Div,
    /// `^` (element-wise power).
    Pow,
    /// `%*%` (matrix multiplication).
    MatMul,
    /// `==` (element-wise equality indicator, like R).
    Eq,
}

impl BinOp {
    /// `a op b` on two scalars: `^` is always `powf`, squares included.
    pub(crate) fn on_scalars(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul | BinOp::MatMul => a * b,
            BinOp::Div => a / b,
            BinOp::Pow => a.powf(b),
            BinOp::Eq => {
                if a == b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// The element-wise operator `T op c` (`scalar_left == false`) or
    /// `c op T` is. `%*%` with a scalar recycles to `*`, as in R. `==` has
    /// none: its matrix form is an indicator, not a scalar map.
    pub(crate) fn with_scalar(self, c: f64, scalar_left: bool) -> Option<ScalarOp> {
        Some(match (self, scalar_left) {
            (BinOp::Add, _) => ScalarOp::Add(c),
            (BinOp::Sub, false) => ScalarOp::Sub(c),
            (BinOp::Sub, true) => ScalarOp::RSub(c),
            (BinOp::Mul | BinOp::MatMul, _) => ScalarOp::Mul(c),
            (BinOp::Div, false) => ScalarOp::Div(c),
            (BinOp::Div, true) => ScalarOp::RDiv(c),
            (BinOp::Pow, false) => ScalarOp::Pow(c),
            (BinOp::Pow, true) => ScalarOp::RPow(c),
            (BinOp::Eq, _) => return None,
        })
    }
}

/// Built-in unary LA functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryFn {
    /// `t(x)` — transpose.
    Transpose,
    /// `exp(x)`.
    Exp,
    /// `log(x)`.
    Log,
    /// `sigmoid(x)` — logistic link.
    Sigmoid,
    /// `rowSums(x)`.
    RowSums,
    /// `rowMin(x)` — per-row minimum (the K-Means assignment primitive).
    RowMin,
    /// `colSums(x)`.
    ColSums,
    /// `sum(x)`.
    Sum,
    /// `crossprod(x)` — `xᵀ x`.
    Crossprod,
    /// `tcrossprod(x)` — `x xᵀ`.
    TCrossprod,
    /// `ginv(x)` — Moore–Penrose pseudo-inverse.
    Ginv,
    /// `materialize(x)` — force a normalized matrix to a regular one.
    Materialize,
}

impl UnaryFn {
    /// Resolves a function name, if it is a known unary builtin.
    pub fn from_name(name: &str) -> Option<UnaryFn> {
        Some(match name {
            "t" => UnaryFn::Transpose,
            "exp" => UnaryFn::Exp,
            "log" => UnaryFn::Log,
            "sigmoid" => UnaryFn::Sigmoid,
            "rowSums" => UnaryFn::RowSums,
            "rowMin" => UnaryFn::RowMin,
            "colSums" => UnaryFn::ColSums,
            "sum" => UnaryFn::Sum,
            "crossprod" => UnaryFn::Crossprod,
            "tcrossprod" => UnaryFn::TCrossprod,
            "ginv" => UnaryFn::Ginv,
            "materialize" => UnaryFn::Materialize,
            _ => return None,
        })
    }

    /// The element-wise operator of `exp`, `log` and `sigmoid`.
    pub(crate) fn scalar_op(self) -> Option<ScalarOp> {
        match self {
            UnaryFn::Exp => Some(ScalarOp::Exp),
            UnaryFn::Log => Some(ScalarOp::Ln),
            UnaryFn::Sigmoid => Some(ScalarOp::Sigmoid),
            _ => None,
        }
    }

    /// The surface name.
    pub fn name(&self) -> &'static str {
        match self {
            UnaryFn::Transpose => "t",
            UnaryFn::Exp => "exp",
            UnaryFn::Log => "log",
            UnaryFn::Sigmoid => "sigmoid",
            UnaryFn::RowSums => "rowSums",
            UnaryFn::RowMin => "rowMin",
            UnaryFn::ColSums => "colSums",
            UnaryFn::Sum => "sum",
            UnaryFn::Crossprod => "crossprod",
            UnaryFn::TCrossprod => "tcrossprod",
            UnaryFn::Ginv => "ginv",
            UnaryFn::Materialize => "materialize",
        }
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Number(f64),
    /// Variable reference.
    Var(String),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary arithmetic negation.
    Neg(Box<Expr>),
    /// Unary builtin call.
    Call(UnaryFn, Box<Expr>),
    /// `zeros(r, c)` — all-zero matrix constructor.
    Zeros(Box<Expr>, Box<Expr>),
    /// `ones(r, c)` — all-one matrix constructor.
    Ones(Box<Expr>, Box<Expr>),
}

/// Statements. Every variant carries the 1-based source line it starts
/// on, so runtime errors can point back at the script — and the optimizer
/// and script planner preserve the span through their rewrites.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `name = expr` / `name <- expr`.
    Assign {
        /// Bound name.
        name: String,
        /// Right-hand side.
        expr: Expr,
        /// 1-based source line.
        line: usize,
    },
    /// Bare expression; its value becomes the program result if last.
    Expr {
        /// The expression.
        expr: Expr,
        /// 1-based source line.
        line: usize,
    },
    /// `for (v in a:b) { body }` — inclusive integer range, like R.
    For {
        /// Loop variable (bound to the integer as a scalar).
        var: String,
        /// Range start expression (evaluated once).
        from: Expr,
        /// Range end expression (evaluated once).
        to: Expr,
        /// Loop body.
        body: Vec<Stmt>,
        /// 1-based source line of the `for` keyword.
        line: usize,
    },
}

impl Stmt {
    /// The 1-based source line the statement starts on.
    pub fn line(&self) -> usize {
        match self {
            Stmt::Assign { line, .. } | Stmt::Expr { line, .. } | Stmt::For { line, .. } => *line,
        }
    }
}

/// A parsed script: a sequence of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
}

impl Program {
    /// Counts expressions in the program (used by optimizer tests).
    pub fn expr_count(&self) -> usize {
        fn count_expr(e: &Expr) -> usize {
            1 + match e {
                Expr::Number(_) | Expr::Var(_) => 0,
                Expr::Bin(_, a, b) => count_expr(a) + count_expr(b),
                Expr::Neg(a) | Expr::Call(_, a) => count_expr(a),
                Expr::Zeros(a, b) | Expr::Ones(a, b) => count_expr(a) + count_expr(b),
            }
        }
        fn count_stmt(s: &Stmt) -> usize {
            match s {
                Stmt::Assign { expr, .. } | Stmt::Expr { expr, .. } => count_expr(expr),
                Stmt::For { from, to, body, .. } => {
                    count_expr(from) + count_expr(to) + body.iter().map(count_stmt).sum::<usize>()
                }
            }
        }
        self.stmts.iter().map(count_stmt).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_fn_round_trip() {
        for f in [
            UnaryFn::Transpose,
            UnaryFn::RowMin,
            UnaryFn::Exp,
            UnaryFn::Log,
            UnaryFn::Sigmoid,
            UnaryFn::RowSums,
            UnaryFn::ColSums,
            UnaryFn::Sum,
            UnaryFn::Crossprod,
            UnaryFn::TCrossprod,
            UnaryFn::Ginv,
            UnaryFn::Materialize,
        ] {
            assert_eq!(UnaryFn::from_name(f.name()), Some(f));
        }
        assert_eq!(UnaryFn::from_name("nope"), None);
    }

    #[test]
    fn expr_count_walks_the_tree() {
        let p = Program {
            stmts: vec![Stmt::Assign {
                name: "x".into(),
                expr: Expr::Bin(
                    BinOp::Add,
                    Box::new(Expr::Number(1.0)),
                    Box::new(Expr::Neg(Box::new(Expr::Var("y".into())))),
                ),
                line: 1,
            }],
        };
        assert_eq!(p.expr_count(), 4);
        assert_eq!(p.stmts[0].line(), 1);
    }
}
