//! The paper's headline workflow (Figure 1c): take a *standard LA script*
//! for logistic regression, change nothing, and run it factorized by
//! binding `T` to a normalized matrix instead of the join output.
//!
//! ```sh
//! cargo run --release --example r_script
//! ```

use morpheus::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

// The script is (modulo surface syntax) Algorithm 3 of the paper — the
// *standard*, single-table version. No factorized variant is ever written.
const SCRIPT: &str = r#"
    # Logistic regression via gradient descent (paper Algorithm 3).
    w = zeros(d, 1)
    for (i in 1:20) {
        w = w + alpha * (t(T) %*% (Y / (1 + exp(Y * (T %*% w)))))
    }
    w
"#;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let (n_s, n_r, d_s, d_r) = (30_000, 1_000, 20, 60);
    let s = DenseMatrix::from_fn(n_s, d_s, |_, _| rng.gen_range(-1.0..1.0));
    let r = DenseMatrix::from_fn(n_r, d_r, |_, _| rng.gen_range(-1.0..1.0));
    let fk: Vec<usize> = (0..n_s)
        .map(|i| if i < n_r { i } else { rng.gen_range(0..n_r) })
        .collect();
    let tn = NormalizedMatrix::pk_fk(s.into(), &fk, r.into());
    let d = tn.cols();
    let w_true = DenseMatrix::from_fn(d, 1, |i, _| ((i % 11) as f64 - 5.0) * 0.1);
    let y = tn.lmm(&w_true).map(|m| if m > 0.0 { 1.0 } else { -1.0 });

    let program = parse(SCRIPT).expect("script parses");
    println!("script:\n{SCRIPT}");

    // Run 1: T bound to the NORMALIZED matrix — every %*% and t() routes
    // through the factorized rewrites. `run_program` plans the script
    // first (CSE, element-wise fusion, a plan cache keyed on the program)
    // and then evaluates the plan; each operator is still routed per call.
    let mut env_f = Env::new();
    env_f.bind("T", Value::normalized(tn.clone()));
    env_f.bind("Y", Value::Dense(y.clone()));
    env_f.bind("alpha", Value::Scalar(1e-4));
    env_f.bind("d", Value::Scalar(d as f64));
    let t0 = Instant::now();
    let w_f = run_program(&program, &mut env_f).expect("factorized run");
    let time_f = t0.elapsed().as_secs_f64();

    // Run 2: the same program object, T bound to the materialized join.
    let t1 = Instant::now();
    let tm = tn.materialize().to_dense();
    let mut env_m = Env::new();
    env_m.bind("T", Value::Dense(tm));
    env_m.bind("Y", Value::Dense(y.clone()));
    env_m.bind("alpha", Value::Scalar(1e-4));
    env_m.bind("d", Value::Scalar(d as f64));
    let w_m = run_program(&program, &mut env_m).expect("materialized run");
    let time_m = t1.elapsed().as_secs_f64();

    let wf = w_f.as_dense().expect("weights");
    let wm = w_m.as_dense().expect("weights");
    assert!(wf.approx_eq(wm, 1e-8), "the two runs must agree exactly");

    // Sanity: the script matches the native Rust trainer.
    let native = LogisticRegressionGd::new(1e-4, 20).fit(&tn, &y);
    assert!(wf.approx_eq(&native.w, 1e-8));

    println!("factorized run   : {time_f:.3}s");
    println!("materialized run : {time_m:.3}s (incl. join)");
    println!("speedup          : {:.1}x", time_m / time_f);
    println!("identical weights from both runs (and from the native trainer).");
}
