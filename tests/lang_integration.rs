//! Integration tests for the scripting layer: full paper algorithms written
//! as R-style scripts, run against every operand kind, and checked against
//! the native Rust implementations.

use morpheus::lang::{eval_program, optimize, parse, run_program, Env, LangError, Program, Value};
use morpheus::prelude::*;

/// Every routing strategy: each test that binds a normalized matrix runs
/// under all four, since routing must never change a result beyond
/// rounding.
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

fn bind_common(env: &mut Env, y: &DenseMatrix, alpha: f64, d: usize) {
    env.bind("Y", Value::Dense(y.clone()));
    env.bind("alpha", Value::Scalar(alpha));
    env.bind("d", Value::Scalar(d as f64));
}

#[test]
fn logistic_regression_script_on_star_schema() {
    let ds = StarSpec {
        n_s: 80,
        d_s: 2,
        tables: vec![(6, 3), (4, 2)],
        seed: 1,
    }
    .generate();
    let y = ds.labels();
    let script = r#"
        w = zeros(d, 1)
        for (i in 1:8) {
            w = w + alpha * (t(T) %*% (Y / (1 + exp(Y * (T %*% w)))))
        }
        w
    "#;
    let program = optimize(&parse(script).unwrap());
    let native = LogisticRegressionGd::new(0.01, 8).fit(&ds.tn, &y);

    for strategy in strategies() {
        let mut env_f = Env::new();
        env_f.bind("T", planned(&ds.tn, strategy));
        bind_common(&mut env_f, &y, 0.01, ds.tn.cols());
        let w_script = eval_program(&program, &mut env_f).unwrap();
        assert!(
            w_script.as_dense().unwrap().approx_eq(&native.w, 1e-9),
            "{strategy:?}"
        );
    }
}

#[test]
fn linear_regression_script_on_mn_join() {
    let ds = MnJoinSpec {
        n_s: 60,
        n_r: 60,
        d_s: 3,
        d_r: 3,
        n_u: 10,
        seed: 3,
    }
    .generate();
    let program = parse("ginv(crossprod(T)) %*% (t(T) %*% Y)").unwrap();
    let tm = ds.tn.materialize().to_dense();
    for strategy in strategies() {
        let mut env = Env::new();
        env.bind("T", planned(&ds.tn, strategy));
        env.bind("Y", Value::Dense(ds.y.clone()));
        let w = eval_program(&program, &mut env).unwrap();
        let resid = tm.matmul(w.as_dense().unwrap()).sub(&ds.y);
        // Noiseless planted model ⇒ near-zero residual.
        assert!(
            resid.frobenius_norm() / ds.y.frobenius_norm().max(1e-12) < 1e-5,
            "{strategy:?}"
        );
    }
}

#[test]
fn aggregation_script_matches_typed_api_on_real_dataset() {
    let ds = morpheus::data::realsim::by_name("Flights")
        .unwrap()
        .generate(0.002, 5);
    let program = parse("sum(rowSums(T)) - sum(colSums(T))").unwrap();
    for strategy in strategies() {
        let mut env = Env::new();
        env.bind("T", planned(&ds.tn, strategy));
        let v = eval_program(&program, &mut env).unwrap();
        assert!(
            v.as_scalar().unwrap().abs() < 1e-6 * ds.tn.sum().abs().max(1.0),
            "{strategy:?}"
        );
    }
}

#[test]
fn optimizer_preserves_script_semantics_on_matrices() {
    let ds = PkFkSpec::from_ratios(4.0, 1.0, 20, 3, 7).generate();
    let src = "sum(t(t(T)) * 1 + 0) + 2 ^ 3";
    let plain = parse(src).unwrap();
    let opt = optimize(&plain);
    assert!(opt.expr_count() < plain.expr_count());
    let expected = ds.tn.sum() + 8.0;
    for program in [&plain, &opt] {
        for strategy in strategies() {
            let mut env = Env::new();
            env.bind("T", planned(&ds.tn, strategy));
            let v = eval_program(program, &mut env)
                .unwrap()
                .as_scalar()
                .unwrap();
            assert!(
                (v - expected).abs() < 1e-9 * expected.abs().max(1.0),
                "{strategy:?}"
            );
        }
    }
}

#[test]
fn kmeans_script_runs_factorized_and_matches_materialized() {
    // The paper's Algorithm 7/15 as a script: pairwise distances via
    // rowSums(T^2), assignment via D == rowMin(D), centroid update via
    // (t(T) %*% A) / (ones(d,1) %*% colSums(A)).
    let ds = PkFkSpec::from_ratios(8.0, 2.0, 25, 3, 11).generate();
    let n = ds.tn.rows();
    let d = ds.tn.cols();
    let k = 3usize;
    let script = r#"
        DT = rowSums(T ^ 2) %*% ones(1, k)
        T2 = 2 * T
        for (i in 1:6) {
            D = DT + ones(n, 1) %*% colSums(C ^ 2) - T2 %*% C
            A = D == rowMin(D) %*% ones(1, k)
            C = (t(T) %*% A) / (ones(d, 1) %*% colSums(A))
        }
        C
    "#;
    let program = parse(script).unwrap();
    // Deterministic non-degenerate initial centroids.
    let c0 = DenseMatrix::from_fn(d, k, |i, j| ((i * 3 + j * 7) % 5) as f64 * 0.3 - 0.6);

    let run = |t: morpheus::lang::Value| {
        let mut env = Env::new();
        env.bind("T", t);
        env.bind("C", Value::Dense(c0.clone()));
        env.bind("k", Value::Scalar(k as f64));
        env.bind("n", Value::Scalar(n as f64));
        env.bind("d", Value::Scalar(d as f64));
        eval_program(&program, &mut env).unwrap()
    };
    let c_m = run(Value::Dense(ds.tn.materialize().to_dense()));
    for strategy in strategies() {
        let c_f = run(planned(&ds.tn, strategy));
        let cf = c_f.as_dense().unwrap();
        assert_eq!(cf.shape(), (d, k));
        assert!(cf.as_slice().iter().all(|v| v.is_finite()));
        assert!(
            cf.approx_eq(c_m.as_dense().unwrap(), 1e-8),
            "planned ({strategy:?}) and dense K-Means scripts diverged"
        );
    }
}

#[test]
fn gnmf_script_runs_factorized_and_matches_native() {
    // The paper's Algorithm 8/16 as a script: multiplicative updates with
    // the transposed-LMM `t(T) %*% W` and the LMM `T %*% H`.
    let ds = PkFkSpec::from_ratios(6.0, 1.0, 20, 3, 13).generate();
    let tn = ds.tn.apply(ScalarOp::Add(2.0)); // NMF needs non-negative data
    let (n, d, r) = (tn.rows(), tn.cols(), 2usize);
    let script = r#"
        for (i in 1:5) {
            H = H * (t(T) %*% W) / (H %*% crossprod(W) + eps)
            W = W * (T %*% H) / (W %*% crossprod(H) + eps)
        }
        W
    "#;
    let program = parse(script).unwrap();
    let w0 = DenseMatrix::from_fn(n, r, |i, j| 0.5 + 0.1 * (((i + 2 * j) % 7) as f64));
    let h0 = DenseMatrix::from_fn(d, r, |i, j| 0.5 + 0.1 * (((2 * i + j) % 5) as f64));

    let run = |t: Value| {
        let mut env = Env::new();
        env.bind("T", t);
        env.bind("W", Value::Dense(w0.clone()));
        env.bind("H", Value::Dense(h0.clone()));
        env.bind("eps", Value::Scalar(1e-12));
        eval_program(&program, &mut env).unwrap()
    };
    let w_m = run(Value::Dense(tn.materialize().to_dense()));
    let native = morpheus::ml::gnmf::Gnmf::new(r, 5).fit_from(&tn, &w0, &h0);
    for strategy in strategies() {
        let w_f = run(planned(&tn, strategy));
        let w_f = w_f.as_dense().unwrap();
        assert!(w_f.approx_eq(w_m.as_dense().unwrap(), 1e-8), "{strategy:?}");
        // And against the native trainer with the same initialization.
        assert!(w_f.approx_eq(&native.w, 1e-8), "{strategy:?}");
    }
}

#[test]
fn script_errors_surface_cleanly() {
    // Parse error.
    assert!(parse("w = (1 +").is_err());
    // Undefined variable at eval time.
    let p = parse("missing + 1").unwrap();
    assert!(eval_program(&p, &mut Env::new()).is_err());
    // Shape error on matmul.
    let ds = PkFkSpec::from_ratios(2.0, 1.0, 10, 2, 9).generate();
    let p2 = parse("T %*% T").unwrap();
    for strategy in strategies() {
        let mut env = Env::new();
        env.bind("T", planned(&ds.tn, strategy));
        assert!(eval_program(&p2, &mut env).is_err(), "{strategy:?}");
    }
}

#[test]
fn zeros_and_ones_reject_dimensions_they_cannot_honour() {
    for src in [
        "zeros(4294967296, 4294967296)",
        "ones(4294967296, 4294967296)",
        "zeros(-3, 2)",
        "ones(2, -0.5)",
        "zeros(1 / 0, 1)",
        "ones(0 / 0, 1)",
    ] {
        let program = parse(src).unwrap();
        for result in [
            eval_program(&program, &mut Env::new()),
            run_program(&program, &mut Env::new()),
        ] {
            let err = result.expect_err(src);
            assert!(matches!(err.root(), LangError::Shape(_)), "{src}: {err}");
        }
    }
    // Fractional dimensions still truncate toward zero, as in R.
    let program = parse("ones(2.9, 3.2)").unwrap();
    for result in [
        eval_program(&program, &mut Env::new()),
        run_program(&program, &mut Env::new()),
    ] {
        assert_eq!(
            result.unwrap().as_dense().unwrap(),
            &DenseMatrix::ones(2, 3)
        );
    }
}

#[test]
fn ginv_of_non_finite_input_is_all_nan_in_both_evaluators() {
    // One NaN in the attribute table reaches every joined row that
    // references it; one NaN in a dense matrix, likewise.
    let s = DenseMatrix::from_fn(8, 2, |i, j| (i * 2 + j) as f64 * 0.5 - 1.0);
    let mut r = DenseMatrix::from_fn(3, 2, |i, j| (i + 3 * j) as f64 + 0.25);
    r.set(1, 0, f64::NAN);
    let tn = NormalizedMatrix::pk_fk(s.into(), &[0, 1, 2, 0, 1, 2, 0, 1], r.into());
    let mut x = DenseMatrix::from_fn(8, 4, |i, j| ((i * 5 + j * 3) % 7) as f64 - 3.0);
    x.set(3, 2, f64::NAN);
    let operands = strategies()
        .map(|s| (format!("T ({s:?})"), planned(&tn, s)))
        .into_iter()
        .chain([("X".to_string(), Value::Dense(x))]);
    for (name, value) in operands {
        for (src, shape) in [
            ("ginv(M)", (4, 8)),
            ("ginv(t(M))", (8, 4)),
            ("ginv(crossprod(M))", (4, 4)),
        ] {
            let program = parse(src).unwrap();
            for (evaluator, result) in [
                ("eval_program", {
                    let mut env = Env::new();
                    env.bind("M", value.clone());
                    eval_program(&program, &mut env)
                }),
                ("run_program", {
                    let mut env = Env::new();
                    env.bind("M", value.clone());
                    run_program(&program, &mut env)
                }),
            ] {
                let label = format!("{src} with M = {name} under {evaluator}");
                let p = result.unwrap_or_else(|e| panic!("{label}: {e}"));
                let p = p.as_dense().unwrap_or_else(|| panic!("{label}: not dense"));
                assert_eq!(p.shape(), shape, "{label}");
                assert!(p.as_slice().iter().all(|v| v.is_nan()), "{label}: {p:?}");
            }
        }
    }
}

#[test]
fn assignments_share_values_instead_of_copying() {
    // `x = T` binds `x` to the very value `T` names, on both evaluators
    // and for both operand kinds; a dense `materialize` shares too.
    let ds = PkFkSpec {
        n_s: 40,
        d_s: 2,
        n_r: 5,
        d_r: 3,
        seed: 9,
    }
    .generate();
    let dense = ds.tn.materialize().to_dense();
    let program = parse("x = T\ny = x\nz = materialize(T)").unwrap();
    type Runner = fn(&Program, &mut Env) -> Result<Value, LangError>;
    for run in [eval_program as Runner, run_program] {
        let operands = strategies()
            .map(|s| planned(&ds.tn, s))
            .into_iter()
            .chain([Value::Dense(dense.clone())]);
        for t in operands {
            let is_dense = t.as_dense().is_some();
            let mut env = Env::new();
            env.bind("T", t);
            run(&program, &mut env).unwrap();
            let t = env.get("T").unwrap();
            for name in ["x", "y"] {
                assert!(std::ptr::eq(env.get(name).unwrap(), t), "{name} copied T");
            }
            if is_dense {
                let buf = |name: &str| {
                    env.get(name)
                        .unwrap()
                        .as_dense()
                        .unwrap()
                        .as_slice()
                        .as_ptr()
                };
                assert_eq!(buf("z"), buf("T"), "materialize(dense) copied T");
            }
        }
    }
}
