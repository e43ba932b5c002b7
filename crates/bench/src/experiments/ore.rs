//! Scalability experiments on the chunked (ORE-analog) backend:
//! Tables 9 and 10.
//!
//! The paper runs per-iteration logistic regression on Oracle R Enterprise
//! with larger-than-memory data: Table 9 sweeps the feature ratio of a
//! PK-FK join, Table 10 sweeps the join-attribute domain size of an M:N
//! join. Here the same experiment runs on `morpheus-chunked`: the
//! materialized side is a [`ChunkedMatrix`] (the `ore.frame` analog), the
//! factorized side the `NormalizedMatrix` itself — the rewrites need no
//! chunked re-implementation, which is the paper's point — both driven by
//! the *identical* `LogisticRegressionGd::step` code.

use super::{print_rows, Row};
use crate::timing::time_median;
use morpheus_chunked::ChunkedMatrix;
use morpheus_core::LinearOperand;
use morpheus_data::synth::{MnJoinSpec, PkFkSpec};
use morpheus_dense::DenseMatrix;
use morpheus_ml::logreg::LogisticRegressionGd;

fn per_iteration_times<M: LinearOperand, F: LinearOperand>(
    tm: &M,
    tf: &F,
    labels: &DenseMatrix,
    reps: usize,
) -> (f64, f64) {
    let trainer = LogisticRegressionGd::new(1e-4, 1);
    let d = tm.ncols();
    let (t_m, _) = time_median(reps, || {
        let mut w = DenseMatrix::zeros(d, 1);
        trainer.step(tm, labels, &mut w);
        w
    });
    let (t_f, _) = time_median(reps, || {
        let mut w = DenseMatrix::zeros(d, 1);
        trainer.step(tf, labels, &mut w);
        w
    });
    (t_m, t_f)
}

/// Table 9: per-iteration logistic regression on the chunked backend for a
/// PK-FK join, varying the feature ratio (paper dims `(1e8, 5e6, 60)`
/// scaled by 1/2000).
pub fn table9(quick: bool) -> Vec<Row> {
    let (n_s, n_r, d_s, chunk, reps) = if quick {
        (2_000usize, 100usize, 12usize, 512usize, 1usize)
    } else {
        (50_000, 2_500, 60, 8_192, 2)
    };
    let mut rows = Vec::new();
    for fr in [0.5, 1.0, 2.0, 4.0] {
        let d_r = ((fr * d_s as f64) as usize).max(1);
        let ds = PkFkSpec {
            n_s,
            d_s,
            n_r,
            d_r,
            seed: 3,
        }
        .generate();
        let labels = ds.labels();
        let tm = ChunkedMatrix::new(&ds.tn.materialize(), chunk);
        let (t_m, t_f) = per_iteration_times(&tm, &ds.tn, &labels, reps);
        rows.push(Row::new(
            format!("FR={fr}"),
            vec![
                ("Materialized", t_m),
                ("Morpheus", t_f),
                ("speedup", t_m / t_f),
            ],
        ));
    }
    print_rows(
        "Table 9: per-iteration logistic regression on the chunked (ORE-analog) backend, PK-FK join (seconds)",
        &rows,
    );
    rows
}

/// Table 10: per-iteration logistic regression on the chunked backend for
/// an M:N join, varying the join-attribute domain size (paper dims
/// `(1e6, 1e6, 200, 200)` scaled by 1/500).
pub fn table10(quick: bool) -> Vec<Row> {
    let (n_s, d, chunk, reps, domains): (usize, usize, usize, usize, Vec<usize>) = if quick {
        (300, 8, 256, 1, vec![150, 30])
    } else {
        // Degrees 0.5, 0.1, 0.05, 0.01 as in the paper.
        (2_000, 40, 8_192, 1, vec![1_000, 200, 100, 20])
    };
    let mut rows = Vec::new();
    for n_u in domains {
        let ds = MnJoinSpec {
            n_s,
            n_r: n_s,
            d_s: d,
            d_r: d,
            n_u,
            seed: 9,
        }
        .generate();
        let labels = ds.labels();
        let tm = ChunkedMatrix::new(&ds.tn.materialize(), chunk);
        let (t_m, t_f) = per_iteration_times(&tm, &ds.tn, &labels, reps);
        rows.push(Row::new(
            format!("nU={n_u} (deg={:.3})", n_u as f64 / n_s as f64),
            vec![
                ("|T|", ds.tn.rows() as f64),
                ("Materialized", t_m),
                ("Morpheus", t_f),
                ("speedup", t_m / t_f),
            ],
        ));
    }
    print_rows(
        "Table 10: per-iteration logistic regression on the chunked (ORE-analog) backend, M:N join (seconds)",
        &rows,
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table9_quick_runs() {
        let rows = table9(true);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.get("speedup").unwrap() > 0.0);
        }
    }

    #[test]
    fn table10_quick_runs_and_blowup_grows() {
        let rows = table10(true);
        assert_eq!(rows.len(), 2);
        // Smaller domain ⇒ bigger join output.
        assert!(rows[1].get("|T|").unwrap() > rows[0].get("|T|").unwrap());
    }

    #[test]
    fn chunked_backends_agree_on_the_model() {
        let ds = PkFkSpec {
            n_s: 500,
            d_s: 4,
            n_r: 50,
            d_r: 8,
            seed: 1,
        }
        .generate();
        let labels = ds.labels();
        let tm = ChunkedMatrix::new(&ds.tn.materialize(), 128);
        let trainer = LogisticRegressionGd::new(1e-3, 4);
        let wf = trainer.fit(&ds.tn, &labels);
        let wm = trainer.fit(&tm, &labels);
        assert!(wf.w.approx_eq(&wm.w, 1e-9));
    }
}
