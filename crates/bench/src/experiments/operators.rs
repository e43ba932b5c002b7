//! PK-FK operator-level experiments: Figures 3, 6, and 7.
//!
//! Figure 3 reports factorized-over-materialized speedups of scalar
//! multiplication, LMM, cross-product, and pseudo-inverse over a
//! (tuple ratio × feature ratio) grid; Figure 6 covers scalar addition,
//! RMM, and the three aggregations (runtimes + speedup buckets); Figure 7
//! shows the raw runtimes of the Figure 3 operators.

use super::{print_rows, speedup_bucket, Row};
use crate::timing::time_median;
use morpheus_core::{LinearOperand, Matrix, NormalizedMatrix};
use morpheus_data::synth::PkFkSpec;
use morpheus_dense::{DenseMatrix, ScalarOp};
use std::hint::black_box;

/// The operators measured by the PK-FK figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `T * 3.25` (element-wise).
    ScalarMul,
    /// `T + 3.25` (element-wise).
    ScalarAdd,
    /// `T X` with a `d x 2` parameter.
    Lmm,
    /// `X T` with a `2 x n` parameter.
    Rmm,
    /// `rowSums(T)`.
    RowSums,
    /// `colSums(T)`.
    ColSums,
    /// `sum(T)`.
    Sum,
    /// `crossprod(T)`.
    Crossprod,
    /// `ginv(T)`.
    Ginv,
}

impl Op {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Op::ScalarMul => "scalar-mul",
            Op::ScalarAdd => "scalar-add",
            Op::Lmm => "LMM",
            Op::Rmm => "RMM",
            Op::RowSums => "rowSums",
            Op::ColSums => "colSums",
            Op::Sum => "sum",
            Op::Crossprod => "crossprod",
            Op::Ginv => "ginv",
        }
    }
}

/// Runs one operator on any [`LinearOperand`] and sinks the result.
pub fn run_op<M: LinearOperand>(op: Op, t: &M, lmm_x: &DenseMatrix, rmm_x: &DenseMatrix) {
    match op {
        Op::ScalarMul => {
            black_box(t.scale(3.25));
        }
        Op::ScalarAdd => {
            // Via the trait's materialize-free path where available: scalar
            // add is a closure op on both representations.
            black_box(t.scale(1.0).materialize().apply(ScalarOp::Add(3.25)));
        }
        Op::Lmm => {
            black_box(t.lmm(lmm_x));
        }
        Op::Rmm => {
            black_box(t.rmm(rmm_x));
        }
        Op::RowSums => {
            black_box(t.row_sums());
        }
        Op::ColSums => {
            black_box(t.col_sums());
        }
        Op::Sum => {
            black_box(t.sum());
        }
        Op::Crossprod => {
            black_box(t.crossprod());
        }
        Op::Ginv => {
            black_box(t.ginv());
        }
    }
}

/// Scalar-add needs special handling: it is a rewrite on the normalized
/// matrix but a plain map on the materialized one; route both through their
/// native implementations.
fn time_op_pair(op: Op, tn: &NormalizedMatrix, tm: &Matrix, reps: usize) -> (f64, f64) {
    let d = tn.cols();
    let n = tn.rows();
    let lmm_x = DenseMatrix::from_fn(d, 2, |i, j| ((i + j) % 5) as f64 * 0.25);
    let rmm_x = DenseMatrix::from_fn(2, n, |i, j| ((i * 3 + j) % 7) as f64 * 0.125);
    let (t_f, _) = time_median(reps, || match op {
        Op::ScalarAdd => {
            black_box(tn.apply(ScalarOp::Add(3.25)));
        }
        Op::ScalarMul => {
            black_box(tn.apply(ScalarOp::Mul(3.25)));
        }
        _ => run_op(op, tn, &lmm_x, &rmm_x),
    });
    let (t_m, _) = time_median(reps, || match op {
        Op::ScalarAdd => {
            black_box(tm.apply(ScalarOp::Add(3.25)));
        }
        Op::ScalarMul => {
            black_box(tm.apply(ScalarOp::Mul(3.25)));
        }
        _ => run_op(op, tm, &lmm_x, &rmm_x),
    });
    (t_f, t_m)
}

fn grid(quick: bool) -> (Vec<f64>, Vec<f64>, usize, usize) {
    if quick {
        (vec![2.0, 10.0], vec![0.5, 2.0], 200, 10)
    } else {
        // Paper Table 4 ratios at 1/500 of the paper's n_R = 10^6.
        (
            vec![1.0, 2.0, 5.0, 10.0, 20.0],
            vec![0.25, 0.5, 1.0, 2.0, 4.0],
            2_000,
            20,
        )
    }
}

fn sweep(ops: &[Op], quick: bool, title: &str) -> Vec<Row> {
    let (trs, frs, n_r, d_s) = grid(quick);
    let reps = if quick { 1 } else { 3 };
    let mut rows = Vec::new();
    for &tr in &trs {
        for &fr in &frs {
            let ds = PkFkSpec::from_ratios(tr, fr, n_r, d_s, 42).generate();
            let tm = ds.tn.materialize();
            let mut values = Vec::new();
            for &op in ops {
                let (t_f, t_m) = time_op_pair(op, &ds.tn, &tm, reps);
                values.push((op.name(), t_m / t_f));
            }
            rows.push(Row::new(format!("TR={tr} FR={fr}"), values));
        }
    }
    print_rows(title, &rows);
    // Paper-style bucket rendering per operator.
    for &op in ops {
        println!("\n{} speedup buckets (rows: TR, cols: FR):", op.name());
        print!("{:>8}", "TR\\FR");
        for &fr in &frs {
            print!("{fr:>8}");
        }
        println!();
        for &tr in &trs {
            print!("{tr:>8}");
            for &fr in &frs {
                let row = rows
                    .iter()
                    .find(|r| r.label == format!("TR={tr} FR={fr}"))
                    .expect("grid row");
                let sp = row.get(op.name()).expect("op column");
                print!("{:>8}", speedup_bucket(sp));
            }
            println!();
        }
    }
    rows
}

/// Figure 3: speedups of scalar multiplication, LMM, cross-product, and
/// pseudo-inverse over the (TR, FR) grid.
pub fn fig3(quick: bool) -> Vec<Row> {
    sweep(
        &[Op::ScalarMul, Op::Lmm, Op::Crossprod, Op::Ginv],
        quick,
        "Figure 3: PK-FK operator speedups (factorized over materialized)",
    )
}

/// Figure 6: speedups of scalar addition, RMM, and the aggregations.
pub fn fig6(quick: bool) -> Vec<Row> {
    sweep(
        &[Op::ScalarAdd, Op::Rmm, Op::RowSums, Op::ColSums, Op::Sum],
        quick,
        "Figure 6: PK-FK operator speedups (scalar add, RMM, aggregations)",
    )
}

/// Figure 7: raw runtimes of the Figure 3 operators, varying TR at fixed
/// FR and varying FR at fixed TR.
pub fn fig7(quick: bool) -> Vec<Row> {
    let (n_r, d_s, reps) = if quick { (200, 10, 1) } else { (2_000, 20, 3) };
    let ops = [Op::ScalarMul, Op::Lmm, Op::Crossprod, Op::Ginv];
    let mut rows = Vec::new();
    let trs: &[f64] = if quick {
        &[2.0, 10.0]
    } else {
        &[5.0, 10.0, 15.0, 20.0]
    };
    let frs: &[f64] = if quick {
        &[0.5, 2.0]
    } else {
        &[0.5, 1.0, 2.0, 4.0]
    };
    for (fixed_fr, sweep_tr) in [(2.0, true), (4.0, true)] {
        let _ = sweep_tr;
        for &tr in trs {
            let ds = PkFkSpec::from_ratios(tr, fixed_fr, n_r, d_s, 42).generate();
            let tm = ds.tn.materialize();
            let mut values = Vec::new();
            for &op in &ops {
                let (t_f, t_m) = time_op_pair(op, &ds.tn, &tm, reps);
                values.push((op.name(), t_f));
                values.push((mat_name(op), t_m));
            }
            rows.push(Row::new(format!("vary-TR: TR={tr} FR={fixed_fr}"), values));
        }
    }
    for fixed_tr in [10.0, 20.0] {
        for &fr in frs {
            let ds = PkFkSpec::from_ratios(fixed_tr, fr, n_r, d_s, 42).generate();
            let tm = ds.tn.materialize();
            let mut values = Vec::new();
            for &op in &ops {
                let (t_f, t_m) = time_op_pair(op, &ds.tn, &tm, reps);
                values.push((op.name(), t_f));
                values.push((mat_name(op), t_m));
            }
            rows.push(Row::new(format!("vary-FR: TR={fixed_tr} FR={fr}"), values));
        }
    }
    print_rows(
        "Figure 7: PK-FK operator runtimes (F columns = factorized, M columns = materialized; seconds)",
        &rows,
    );
    rows
}

fn mat_name(op: Op) -> &'static str {
    match op {
        Op::ScalarMul => "M:scalar-mul",
        Op::ScalarAdd => "M:scalar-add",
        Op::Lmm => "M:LMM",
        Op::Rmm => "M:RMM",
        Op::RowSums => "M:rowSums",
        Op::ColSums => "M:colSums",
        Op::Sum => "M:sum",
        Op::Crossprod => "M:crossprod",
        Op::Ginv => "M:ginv",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_quick_produces_grid_and_speedups() {
        let rows = fig3(true);
        assert_eq!(rows.len(), 4); // 2 TR x 2 FR
        for r in &rows {
            for &(_, v) in &r.values {
                assert!(v.is_finite() && v > 0.0);
            }
        }
    }

    #[test]
    fn fig6_quick_covers_all_ops() {
        let rows = fig6(true);
        assert_eq!(rows[0].values.len(), 5);
    }

    #[test]
    fn fig7_quick_reports_both_sides() {
        let rows = fig7(true);
        assert!(rows[0].get("LMM").is_some());
        assert!(rows[0].get("M:LMM").is_some());
    }

    #[test]
    fn high_redundancy_point_shows_factorized_win() {
        // TR=20, FR=4 must favor factorized for LMM even at small scale.
        let ds = PkFkSpec::from_ratios(20.0, 4.0, 500, 20, 1).generate();
        let tm = ds.tn.materialize();
        let (t_f, t_m) = time_op_pair(Op::Lmm, &ds.tn, &tm, 3);
        assert!(
            t_m / t_f > 1.0,
            "expected factorized LMM win at TR=20 FR=4, got {:.3}",
            t_m / t_f
        );
    }
}
