//! Algebraic AST cleanups applied before evaluation.
//!
//! These are *language-level* optimizations in the sense of §3.2 footnote 3
//! (Morpheus in an interpreted environment): they do not change which
//! rewrite rules fire at runtime — the value-level dispatch does that — but
//! they remove syntactic redundancy a script author may introduce:
//!
//! * `t(t(x)) → x` — double-transpose elimination (the transpose *flag*
//!   makes single transposes free, but the AST node still costs a clone);
//! * scalar constant folding (`2 * 3 → 6`, `exp(0) → 1`);
//! * `x + 0`, `x * 1`, `x / 1` simplifications for scalar literals.
//!
//! The pass runs to **fixpoint**: rewrite passes repeat until the program
//! stops changing (with a safety cap), so a rewrite exposed by an earlier
//! one is never missed as the rule set grows. Statement source lines are
//! preserved verbatim, so runtime errors on optimized programs point at
//! the same script lines as on the original.

use crate::ast::{BinOp, Expr, Program, Stmt, UnaryFn};

/// Rewrite passes are repeated until the program stops changing; the cap
/// bounds pathological rule interactions (the current rule set converges
/// in one bottom-up pass, so hitting it would be a rule-set bug).
const MAX_PASSES: usize = 8;

/// Optimizes a whole program (to fixpoint).
pub fn optimize(program: &Program) -> Program {
    let mut current = opt_pass(program);
    for _ in 1..MAX_PASSES {
        let next = opt_pass(&current);
        if next == current {
            break;
        }
        current = next;
    }
    current
}

/// One bottom-up rewrite pass over every statement.
fn opt_pass(program: &Program) -> Program {
    Program {
        stmts: program.stmts.iter().map(opt_stmt).collect(),
    }
}

fn opt_stmt(stmt: &Stmt) -> Stmt {
    match stmt {
        Stmt::Assign { name, expr, line } => Stmt::Assign {
            name: name.clone(),
            expr: opt_expr(expr),
            line: *line,
        },
        Stmt::Expr { expr, line } => Stmt::Expr {
            expr: opt_expr(expr),
            line: *line,
        },
        Stmt::For {
            var,
            from,
            to,
            body,
            line,
        } => Stmt::For {
            var: var.clone(),
            from: opt_expr(from),
            to: opt_expr(to),
            body: body.iter().map(opt_stmt).collect(),
            line: *line,
        },
    }
}

fn opt_expr(expr: &Expr) -> Expr {
    match expr {
        Expr::Number(_) | Expr::Var(_) => expr.clone(),
        Expr::Neg(inner) => {
            let inner = opt_expr(inner);
            match inner {
                Expr::Number(v) => Expr::Number(-v),
                Expr::Neg(x) => *x, // --x → x
                other => Expr::Neg(Box::new(other)),
            }
        }
        Expr::Call(f, arg) => {
            let arg = opt_expr(arg);
            // Double-transpose elimination.
            if *f == UnaryFn::Transpose {
                if let Expr::Call(UnaryFn::Transpose, inner) = &arg {
                    return (**inner).clone();
                }
            }
            // Constant folding through scalar-safe functions.
            if let Expr::Number(v) = arg {
                let folded = match f {
                    UnaryFn::Sum | UnaryFn::Transpose => Some(v),
                    f => f.scalar_op().map(|op| op.apply(v)),
                };
                if let Some(out) = folded {
                    return Expr::Number(out);
                }
            }
            Expr::Call(*f, Box::new(arg))
        }
        Expr::Zeros(r, c) => Expr::Zeros(Box::new(opt_expr(r)), Box::new(opt_expr(c))),
        Expr::Ones(r, c) => Expr::Ones(Box::new(opt_expr(r)), Box::new(opt_expr(c))),
        Expr::Bin(op, lhs, rhs) => {
            let l = opt_expr(lhs);
            let r = opt_expr(rhs);
            // Constant folding.
            if let (Expr::Number(a), Expr::Number(b)) = (&l, &r) {
                return Expr::Number(op.on_scalars(*a, *b));
            }
            // Identity / annihilator simplifications with scalar literals.
            match (op, &l, &r) {
                (BinOp::Add, e, Expr::Number(z)) | (BinOp::Add, Expr::Number(z), e)
                    if *z == 0.0 =>
                {
                    return e.clone()
                }
                (BinOp::Sub, e, Expr::Number(z)) if *z == 0.0 => return e.clone(),
                (BinOp::Mul, e, Expr::Number(one)) | (BinOp::Mul, Expr::Number(one), e)
                    if *one == 1.0 =>
                {
                    return e.clone()
                }
                (BinOp::Div, e, Expr::Number(one)) if *one == 1.0 => return e.clone(),
                (BinOp::Pow, e, Expr::Number(one)) if *one == 1.0 => return e.clone(),
                _ => {}
            }
            Expr::Bin(*op, Box::new(l), Box::new(r))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr};

    fn opt(src: &str) -> Expr {
        opt_expr(&parse_expr(src).unwrap())
    }

    #[test]
    fn double_transpose_eliminated() {
        assert_eq!(opt("t(t(X))"), Expr::Var("X".into()));
        // Triple transpose leaves one.
        assert_eq!(
            opt("t(t(t(X)))"),
            Expr::Call(UnaryFn::Transpose, Box::new(Expr::Var("X".into())))
        );
    }

    #[test]
    fn scalar_constants_fold() {
        assert_eq!(opt("2 * 3 + 4"), Expr::Number(10.0));
        assert_eq!(opt("exp(0)"), Expr::Number(1.0));
        assert_eq!(opt("--5"), Expr::Number(5.0));
    }

    #[test]
    fn identities_simplify() {
        assert_eq!(opt("X + 0"), Expr::Var("X".into()));
        assert_eq!(opt("1 * X"), Expr::Var("X".into()));
        assert_eq!(opt("X / 1"), Expr::Var("X".into()));
        assert_eq!(opt("X ^ 1"), Expr::Var("X".into()));
    }

    #[test]
    fn non_constant_structure_preserved() {
        let e = opt("t(T) %*% p");
        assert!(matches!(e, Expr::Bin(BinOp::MatMul, _, _)));
    }

    #[test]
    fn optimize_reaches_a_fixpoint_and_is_idempotent() {
        for src in [
            "t(t(t(t(X)))) * 1 + 0 * 1",
            "w = w + a * (t(T) %*% (Y / (1 + exp(Y * (T %*% w)))))",
            "for (i in 1:3) { x = (x + 0) / 1 }\n--x ^ 1",
        ] {
            let p = parse(src).unwrap();
            let once = optimize(&p);
            let twice = optimize(&once);
            assert_eq!(once, twice, "optimize not a fixpoint for {src:?}");
        }
    }

    #[test]
    fn optimizer_preserves_statement_lines() {
        let p = parse("a = 1 * 1\nb = t(t(X))\nfor (i in 1:2) {\n  c = a + 0\n}").unwrap();
        let po = optimize(&p);
        for (s, so) in p.stmts.iter().zip(&po.stmts) {
            assert_eq!(s.line(), so.line());
        }
        let (Stmt::For { body, .. }, Stmt::For { body: bo, .. }) = (&p.stmts[2], &po.stmts[2])
        else {
            panic!("expected for statements");
        };
        assert_eq!(body[0].line(), bo[0].line());
    }

    #[test]
    fn optimized_program_evaluates_identically() {
        use crate::eval::{eval_program, Env, Value};
        use morpheus_dense::DenseMatrix;
        let src = "y = t(t(X)) * 1 + 0\nsum(y) + 2 * 3";
        let p = parse(src).unwrap();
        let po = optimize(&p);
        assert!(po.expr_count() < p.expr_count());
        let x = DenseMatrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let mut e1 = Env::new();
        e1.bind("X", Value::Dense(x.clone()));
        let mut e2 = Env::new();
        e2.bind("X", Value::Dense(x));
        let v1 = eval_program(&p, &mut e1).unwrap().as_scalar().unwrap();
        let v2 = eval_program(&po, &mut e2).unwrap().as_scalar().unwrap();
        assert_eq!(v1, v2);
    }
}
