//! Quickstart: build a normalized matrix from two base tables, run the
//! Table 1 operators, and confirm the factorized results equal the
//! materialized ones.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use morpheus::prelude::*;

fn main() {
    // The entity table S (five customers, two numeric features) and the
    // attribute table R (two employers, two features), joined on a foreign
    // key — the paper's running example shape.
    let s = DenseMatrix::from_rows(&[
        &[1.0, 2.0],
        &[4.0, 3.0],
        &[5.0, 6.0],
        &[8.0, 7.0],
        &[9.0, 1.0],
    ]);
    let r = DenseMatrix::from_rows(&[&[1.1, 2.2], &[3.3, 4.4]]);
    let fk = [0usize, 1, 1, 0, 1]; // S.K -> row of R

    // The normalized matrix T_N = (S, K, R). No join is ever materialized.
    let tn = NormalizedMatrix::pk_fk(s.into(), &fk, r.into());
    println!(
        "normalized matrix: {} x {} over {} base tables",
        tn.rows(),
        tn.cols(),
        tn.parts().len()
    );
    println!(
        "tuple ratio = {:.2}, feature ratio = {:.2}",
        tn.stats().tuple_ratio,
        tn.stats().feature_ratio
    );

    // For comparison only: the materialized join output T = [S, KR].
    let t = tn.materialize();

    // --- Element-wise scalar ops stay normalized (closure) -------------
    let doubled = tn.apply(ScalarOp::Mul(2.0));
    assert!(doubled
        .materialize()
        .approx_eq(&t.apply(ScalarOp::Mul(2.0)), 1e-12));
    println!("scalar ops        : factorized == materialized ✓");

    // --- Aggregations ---------------------------------------------------
    assert!(tn.row_sums().approx_eq(&t.row_sums(), 1e-12));
    assert!(tn.col_sums().approx_eq(&t.col_sums(), 1e-12));
    assert!((tn.sum() - t.sum()).abs() < 1e-9);
    println!("aggregations      : factorized == materialized ✓");

    // --- LMM: the Figure 2 worked example -------------------------------
    let x = DenseMatrix::col_vector(&[1.0, 2.0, 3.0, 4.0]);
    let tx = tn.lmm(&x);
    println!("T x               = {:?}", tx.col(0));
    assert!(tx.approx_eq(&t.matmul_dense(&x), 1e-12));

    // --- Cross-product and pseudo-inverse -------------------------------
    let cp = tn.crossprod();
    assert!(cp.approx_eq(&t.crossprod(), 1e-10));
    let pinv = tn.ginv();
    let td = t.to_dense();
    assert!(td.matmul(&pinv).matmul(&td).approx_eq(&td, 1e-7));
    println!("crossprod + ginv  : factorized == materialized ✓");

    // --- Transpose is a flag, and appendix-A rules fire ------------------
    let ttn = tn.transpose();
    let y = DenseMatrix::from_rows(&[&[1.0], &[0.5], &[-1.0], &[2.0], &[0.0]]);
    assert!(ttn.lmm(&y).approx_eq(&t.t_matmul_dense(&y), 1e-12));
    println!("transposed LMM    : factorized == materialized ✓");

    // --- The scripting layer with the script planner ---------------------
    // The same computation as an R-flavored script, run through the
    // holistic planner (CSE + fusion + a plan cache keyed on the program).
    // The repeated `crossprod(T)` is evaluated once, and results match the
    // interpreter exactly.
    let script = "a = sum(crossprod(T))\nb = sum(crossprod(T))\nsum(exp(T / 10) * 2) + a + b";
    let program = parse(script).expect("script parses");
    let mk_env = || {
        let mut env = Env::new();
        env.bind("T", Value::normalized(tn.clone()));
        env
    };
    let planned = run_program(&program, &mut mk_env()).expect("planned run");
    let interpreted = eval_program(&program, &mut mk_env()).expect("interpreted run");
    assert_eq!(planned.as_scalar(), interpreted.as_scalar());
    let stats = morpheus::lang::plan_cache_stats();
    println!(
        "scripted run      : planned == interpreted ✓ (plan cache: {} hit(s), {} miss(es))",
        stats.hits, stats.misses
    );

    println!("\nAll factorized operators agree with the materialized join.");
}
