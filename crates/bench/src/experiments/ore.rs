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
//!
//! [`out_of_core`] goes one step further than the paper's setup: the
//! table genuinely exceeds the resident budget, chunks spill to
//! mmap-backed files, and a [`PlannedChunkedMatrix`] routes every
//! operator factorized-or-materialized with spill-aware pricing — while
//! the spilled execution stays bit-identical to the fully resident one.

use super::{print_rows, Row};
use crate::timing::time_median;
use morpheus_chunked::{spill, ChunkedMatrix, PlannedChunkedMatrix};
use morpheus_core::cost::ChunkedCostCtx;
use morpheus_core::LinearOperand;
use morpheus_data::synth::{MnJoinSpec, PkFkSpec};
use morpheus_dense::DenseMatrix;
use morpheus_ml::logreg::LogisticRegressionGd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Out-of-core streaming: a per-iteration logistic-regression step on a
/// PK-FK table at least 4× the resident chunk budget, with every operator
/// routed by the spill-aware chunked planner and the spilled chunks
/// backed by mmap files.
///
/// The budget is `MORPHEUS_CHUNK_BYTES` when set, else a quarter of the
/// materialized table. Three invariants are checked on every run (and
/// reflected in the returned row):
///
/// * the materialized chunked join genuinely spills (`spilled > 0`);
/// * spilled chunked execution is **bit-identical** to fully-resident
///   chunked execution (`bitwise = 1`);
/// * the planner-routed streamed model agrees with the in-memory
///   planner's model to reduction-regrouping tolerance.
pub fn out_of_core(quick: bool) -> Vec<Row> {
    let (n_s, d_s, n_r, d_r, chunk, reps) = if quick {
        (3_000usize, 12usize, 150usize, 12usize, 256usize, 1usize)
    } else {
        (60_000, 30, 3_000, 30, 4_096, 2)
    };
    let ds = PkFkSpec {
        n_s,
        d_s,
        n_r,
        d_r,
        seed: 5,
    }
    .generate();
    let labels = ds.labels();
    let table_bytes = (ds.tn.rows() * ds.tn.cols() * 8) as u64;
    let env_budget = spill::resident_budget_bytes();
    let budget = if env_budget < u64::MAX {
        env_budget
    } else {
        table_bytes / 4
    };
    let (read_rate, write_rate) = spill::io_rates();
    let ctx = ChunkedCostCtx {
        chunk_rows: chunk,
        resident_budget_bytes: budget as f64,
        spill_read_ns_per_byte: read_rate,
        spill_write_ns_per_byte: write_rate,
    };

    // The planner-routed streamed run, with every verdict counted.
    let fact_ops = Arc::new(AtomicU64::new(0));
    let mat_ops = Arc::new(AtomicU64::new(0));
    let (f, m) = (Arc::clone(&fact_ops), Arc::clone(&mat_ops));
    let planned = PlannedChunkedMatrix::new(ds.tn.clone(), chunk)
        .with_cost_ctx(ctx)
        .with_hook(move |d| {
            let counter = if d.factorized { &f } else { &m };
            counter.fetch_add(1, Ordering::Relaxed);
        });
    let trainer = LogisticRegressionGd::new(1e-4, 1);
    let d = planned.ncols();
    let (t_stream, w_stream) = time_median(reps, || {
        let mut w = DenseMatrix::zeros(d, 1);
        trainer.step(&planned, &labels, &mut w);
        w
    });
    let (t_inmem, w_inmem) = time_median(reps, || {
        let mut w = DenseMatrix::zeros(d, 1);
        trainer.step(&ds.tn, &labels, &mut w);
        w
    });

    // Bit-identity of spilled vs fully-resident chunked execution.
    let spilled = ChunkedMatrix::from_normalized_with_budget(&ds.tn, chunk, budget);
    let resident = ChunkedMatrix::from_normalized_with_budget(&ds.tn, chunk, u64::MAX);
    let x = DenseMatrix::from_fn(spilled.ncols(), 1, |i, _| (i % 5) as f64 * 0.25 - 0.5);
    let bitwise = spilled.lmm(&x).as_slice() == resident.lmm(&x).as_slice()
        && LinearOperand::sum(&spilled).to_bits() == LinearOperand::sum(&resident).to_bits()
        && LinearOperand::crossprod(&spilled).as_slice()
            == LinearOperand::crossprod(&resident).as_slice();

    let rows = vec![Row::new(
        format!(
            "{}x budget, chunk={chunk}",
            (table_bytes as f64 / budget.max(1) as f64).round()
        ),
        vec![
            ("table_MB", table_bytes as f64 / (1 << 20) as f64),
            ("budget_MB", budget as f64 / (1 << 20) as f64),
            ("chunks", spilled.n_chunks() as f64),
            ("spilled", spilled.n_spilled() as f64),
            ("factorized_ops", fact_ops.load(Ordering::Relaxed) as f64),
            ("materialized_ops", mat_ops.load(Ordering::Relaxed) as f64),
            ("stream_step", t_stream),
            ("in_memory_step", t_inmem),
            ("bitwise", f64::from(u8::from(bitwise))),
            (
                "model_delta",
                w_stream
                    .as_slice()
                    .iter()
                    .zip(w_inmem.as_slice())
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max),
            ),
        ],
    )];
    print_rows(
        "Out-of-core streaming: planner-routed logistic-regression step over mmap-backed chunks (seconds)",
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

    #[test]
    fn out_of_core_streams_a_table_past_the_budget_bit_identically() {
        let rows = out_of_core(true);
        let r = &rows[0];
        // The table exceeds the budget at least 4x and genuinely spills.
        assert!(r.get("table_MB").unwrap() >= 4.0 * r.get("budget_MB").unwrap() * 0.999);
        assert!(r.get("spilled").unwrap() > 0.0);
        // Planner-routed decisions were actually made.
        let decisions = r.get("factorized_ops").unwrap() + r.get("materialized_ops").unwrap();
        assert!(decisions > 0.0);
        // Spilled == resident, bit for bit; streamed model == in-memory
        // model to reduction-regrouping tolerance.
        assert_eq!(r.get("bitwise").unwrap(), 1.0);
        assert!(r.get("model_delta").unwrap() < 1e-9);
    }
}
