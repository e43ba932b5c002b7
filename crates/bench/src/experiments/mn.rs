//! M:N join operator experiments: Figures 4, 11, and 12.
//!
//! The M:N sweeps vary the number of tuples, the number of features, and
//! the join-attribute uniqueness degree `n_U / n_S`. As the degree shrinks,
//! each key value matches more pairs and the join output explodes
//! (`E[|T|] = n_S n_R / n_U`), which is where factorized execution wins by
//! orders of magnitude (the paper reports ~two orders at degree 0.01).

use super::{print_rows, Row};
use crate::timing::time_median;
use morpheus_core::{Matrix, NormalizedMatrix};
use morpheus_data::synth::MnJoinSpec;
use morpheus_dense::{DenseMatrix, ScalarOp};
use std::hint::black_box;

/// Operators measured in the M:N figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MnOp {
    /// `T + x`.
    ScalarAdd,
    /// `T * x`.
    ScalarMul,
    /// `rowSums(T)`.
    RowSums,
    /// `colSums(T)`.
    ColSums,
    /// `sum(T)`.
    Sum,
    /// `T X`.
    Lmm,
    /// `X T`.
    Rmm,
    /// `crossprod(T)`.
    Crossprod,
}

impl MnOp {
    fn name(&self) -> &'static str {
        match self {
            MnOp::ScalarAdd => "scalar-add",
            MnOp::ScalarMul => "scalar-mul",
            MnOp::RowSums => "rowSums",
            MnOp::ColSums => "colSums",
            MnOp::Sum => "sum",
            MnOp::Lmm => "LMM",
            MnOp::Rmm => "RMM",
            MnOp::Crossprod => "crossprod",
        }
    }
}

fn time_pair(op: MnOp, tn: &NormalizedMatrix, tm: &Matrix, reps: usize) -> (f64, f64) {
    let d = tn.cols();
    let n = tn.rows();
    let lmm_x = DenseMatrix::from_fn(d, 2, |i, j| ((i + j) % 5) as f64 * 0.25);
    let rmm_x = DenseMatrix::from_fn(2, n, |i, j| ((i * 3 + j) % 7) as f64 * 0.125);
    let run_f = |op: MnOp| match op {
        MnOp::ScalarAdd => {
            black_box(tn.apply(ScalarOp::Add(3.25)));
        }
        MnOp::ScalarMul => {
            black_box(tn.apply(ScalarOp::Mul(3.25)));
        }
        MnOp::RowSums => {
            black_box(tn.row_sums());
        }
        MnOp::ColSums => {
            black_box(tn.col_sums());
        }
        MnOp::Sum => {
            black_box(tn.sum());
        }
        MnOp::Lmm => {
            black_box(tn.lmm(&lmm_x));
        }
        MnOp::Rmm => {
            black_box(tn.rmm(&rmm_x));
        }
        MnOp::Crossprod => {
            black_box(tn.crossprod());
        }
    };
    let run_m = |op: MnOp| match op {
        MnOp::ScalarAdd => {
            black_box(tm.apply(ScalarOp::Add(3.25)));
        }
        MnOp::ScalarMul => {
            black_box(tm.apply(ScalarOp::Mul(3.25)));
        }
        MnOp::RowSums => {
            black_box(Matrix::row_sums(tm));
        }
        MnOp::ColSums => {
            black_box(Matrix::col_sums(tm));
        }
        MnOp::Sum => {
            black_box(Matrix::sum(tm));
        }
        MnOp::Lmm => {
            black_box(tm.matmul_dense(&lmm_x));
        }
        MnOp::Rmm => {
            black_box(tm.dense_matmul(&rmm_x));
        }
        MnOp::Crossprod => {
            black_box(Matrix::crossprod(tm));
        }
    };
    let (t_f, _) = time_median(reps, || run_f(op));
    let (t_m, _) = time_median(reps, || run_m(op));
    (t_f, t_m)
}

fn spec(n_s: usize, d: usize, degree: f64, seed: u64) -> MnJoinSpec {
    MnJoinSpec {
        n_s,
        n_r: n_s,
        d_s: d,
        d_r: d,
        n_u: ((n_s as f64 * degree).round() as usize).max(1),
        seed,
    }
}

fn degree_sweep(ops: &[MnOp], quick: bool, title: &str) -> Vec<Row> {
    let (sizes, d, degrees, reps): (Vec<usize>, usize, Vec<f64>, usize) = if quick {
        (vec![200], 10, vec![0.1, 0.5], 1)
    } else {
        // Paper Table 5 at 1/100 of n_S = 10^5..2x10^5, d_S = d_R = 200 → 50.
        (
            vec![1_000, 2_000],
            50,
            vec![0.01, 0.02, 0.05, 0.1, 0.2, 0.5],
            2,
        )
    };
    let mut rows = Vec::new();
    for &n_s in &sizes {
        for &deg in &degrees {
            let ds = spec(n_s, d, deg, 7).generate();
            let tm = ds.tn.materialize();
            let mut values = vec![("|T|", ds.tn.rows() as f64)];
            for &op in ops {
                let (t_f, t_m) = time_pair(op, &ds.tn, &tm, reps);
                values.push((op.name(), t_f));
                values.push((m_name(op), t_m));
            }
            rows.push(Row::new(format!("nS={n_s} deg={deg}"), values));
        }
    }
    print_rows(title, &rows);
    rows
}

fn m_name(op: MnOp) -> &'static str {
    match op {
        MnOp::ScalarAdd => "M:scalar-add",
        MnOp::ScalarMul => "M:scalar-mul",
        MnOp::RowSums => "M:rowSums",
        MnOp::ColSums => "M:colSums",
        MnOp::Sum => "M:sum",
        MnOp::Lmm => "M:LMM",
        MnOp::Rmm => "M:RMM",
        MnOp::Crossprod => "M:crossprod",
    }
}

/// Figure 4: M:N LMM and cross-product runtimes vs uniqueness degree.
pub fn fig4(quick: bool) -> Vec<Row> {
    degree_sweep(
        &[MnOp::Lmm, MnOp::Crossprod],
        quick,
        "Figure 4: M:N join — LMM and crossprod runtimes vs uniqueness degree (seconds)",
    )
}

/// Figure 11: M:N element-wise and aggregation operators over the three
/// sweeps (tuples, features, degree).
pub fn fig11(quick: bool) -> Vec<Row> {
    let ops = [
        MnOp::ScalarAdd,
        MnOp::ScalarMul,
        MnOp::RowSums,
        MnOp::ColSums,
        MnOp::Sum,
    ];
    let mut rows = size_and_feature_sweeps(&ops, quick);
    rows.extend(degree_sweep(
        &ops,
        quick,
        "Figure 11(c): M:N element-wise/aggregation vs degree",
    ));
    rows
}

/// Figure 12: M:N multiplication operators over the three sweeps.
pub fn fig12(quick: bool) -> Vec<Row> {
    let ops = [MnOp::Lmm, MnOp::Rmm, MnOp::Crossprod];
    let mut rows = size_and_feature_sweeps(&ops, quick);
    rows.extend(degree_sweep(
        &ops,
        quick,
        "Figure 12(c): M:N multiplication vs degree",
    ));
    rows
}

fn size_and_feature_sweeps(ops: &[MnOp], quick: bool) -> Vec<Row> {
    let reps = if quick { 1 } else { 2 };
    let (sizes, feats, base_n, base_d): (Vec<usize>, Vec<usize>, usize, usize) = if quick {
        (vec![100, 200], vec![5, 10], 150, 8)
    } else {
        (vec![500, 1_000, 2_000], vec![25, 50, 100], 1_000, 50)
    };
    let mut rows = Vec::new();
    for &n_s in &sizes {
        let ds = spec(n_s, base_d, 0.1, 11).generate();
        let tm = ds.tn.materialize();
        let mut values = vec![("|T|", ds.tn.rows() as f64)];
        for &op in ops {
            let (t_f, t_m) = time_pair(op, &ds.tn, &tm, reps);
            values.push((op.name(), t_f));
            values.push((m_name(op), t_m));
        }
        rows.push(Row::new(format!("vary-tuples nS={n_s}"), values));
    }
    for &d in &feats {
        let ds = spec(base_n, d, 0.1, 13).generate();
        let tm = ds.tn.materialize();
        let mut values = vec![("|T|", ds.tn.rows() as f64)];
        for &op in ops {
            let (t_f, t_m) = time_pair(op, &ds.tn, &tm, reps);
            values.push((op.name(), t_f));
            values.push((m_name(op), t_m));
        }
        rows.push(Row::new(format!("vary-features d={d}"), values));
    }
    print_rows("M:N sweeps over #tuples and #features (seconds)", &rows);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_quick_runs() {
        let rows = fig4(true);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.get("LMM").unwrap() > 0.0);
            assert!(r.get("M:crossprod").unwrap() > 0.0);
        }
    }

    #[test]
    fn join_blowup_scales_inversely_with_degree() {
        let rows = fig4(true);
        let t_low = rows[0].get("|T|").unwrap(); // deg 0.1
        let t_high = rows[1].get("|T|").unwrap(); // deg 0.5
        assert!(t_low > t_high, "lower degree must blow up the join more");
    }

    #[test]
    fn fig11_and_fig12_quick_run() {
        assert!(!fig11(true).is_empty());
        assert!(!fig12(true).is_empty());
    }

    #[test]
    fn factorized_crossprod_wins_at_low_degree() {
        // At degree 0.02 the materialized crossprod must be slower.
        let ds = spec(400, 20, 0.02, 3).generate();
        let tm = ds.tn.materialize();
        let (t_f, t_m) = time_pair(MnOp::Crossprod, &ds.tn, &tm, 3);
        assert!(
            t_m > t_f,
            "expected F crossprod win at degree 0.02 ({t_m:.4} vs {t_f:.4})"
        );
    }
}
