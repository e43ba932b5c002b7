//! Property-based equivalence suite for the script planner: for randomly
//! generated normalized matrices and a corpus of scripts exercising CSE,
//! element-wise fusion and loops, the planned
//! evaluator ([`morpheus::lang::run_program`]) must agree with the plain
//! interpreter ([`morpheus::lang::eval_program`]).
//!
//! The agreement contract is strategy-dependent, by design:
//!
//! * **AlwaysFactorize / AlwaysMaterialize / Heuristic** — *bitwise*
//!   identity. These strategies route every operator by value kind and
//!   shape alone, and the planner replays fused chains on normalized
//!   values through the identical per-operator calls, so no summation
//!   order can differ.
//! * **CostBased** — tight approximate identity. Cost-based routing is
//!   schedule-dependent: evaluating a shared subexpression once instead
//!   of twice can legally flip a later greedy per-operator decision (the
//!   first materialized verdict memoizes the join), and the two
//!   routes sum in different orders. Each route is bitwise-pure; which
//!   route is taken is not part of the numerical contract.
//!
//! Both contracts are checked at 1 and 8 worker threads: within a case
//! the two evaluators run under the *same* thread count (a process-global
//! lock keeps concurrent cases from changing it mid-comparison).

mod common;

use common::RuntimeSettings;
use morpheus::core::{DecisionRule, MachineProfile, Strategy as Route};
use morpheus::lang::{eval_program, parse, run_program, Env, Value};
use morpheus::prelude::{DenseMatrix, NormalizedMatrix, PlannedMatrix};
use proptest::prelude::*;

/// Deterministic data for one case: a PK-FK normalized matrix plus a
/// conformable label vector.
#[derive(Debug, Clone)]
struct Case {
    tn: NormalizedMatrix,
    y: DenseMatrix,
}

fn arb_case() -> impl proptest::Strategy<Value = Case> {
    (2usize..16, 1usize..4, 1usize..6, 1usize..5, any::<u64>()).prop_map(
        |(n_s, d_s, n_r, d_r, seed)| {
            let mut state = seed;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            };
            let s = DenseMatrix::from_fn(n_s, d_s, |_, _| next());
            let r = DenseMatrix::from_fn(n_r, d_r, |_, _| next());
            let fk: Vec<usize> = (0..n_s)
                .map(|i| {
                    let v = (next().abs() * n_r as f64) as usize;
                    (i + v) % n_r
                })
                .collect();
            let tn = NormalizedMatrix::pk_fk(s.into(), &fk, r.into());
            let y = DenseMatrix::from_fn(n_s, 1, |i, _| if i % 2 == 0 { 1.0 } else { -1.0 });
            Case { tn, y }
        },
    )
}

/// The script corpus: each entry exercises a planner feature. `{d}` is
/// substituted with the normalized matrix's column count.
const SCRIPTS: &[&str] = &[
    // Shared subexpressions (CSE) over factorized aggregations.
    "g = sum(crossprod(T))\nh = sum(crossprod(T))\ng + h + sum(rowSums(T))",
    // Element-wise fusion on a normalized operand, consumed by sums.
    "a = sum(exp(2 * T + 1) / 3)\nb = sum((T ^ 2) * 0.5 - 1)\na + b",
    // Loop-invariant hoisting plus a loop-variant chain.
    "s = 0\nfor (i in 1:4) {\n  s = s + sum(T * i) + sum(colSums(T))\n}\ns",
    // The paper's logistic-regression loop shape.
    "w = zeros({d}, 1)\nfor (i in 1:3) {\n  p = Y / (1 + exp(Y * (T %*% w)))\n  w = w + 0.1 * (t(T) %*% p)\n}\nsum(w)",
    // Transposed uses mixed with fused negation.
    "u = sum(t(T) %*% (-Y + 2))\nv = sum(t(T) %*% (-Y + 2))\nu - v / 2",
    // A loop-variant element-wise pass feeding rowMin on every trip.
    "s = 0\nfor (i in 1:12) { s = s + sum(rowMin(T * i)) }\ns",
];

fn script_for(case: &Case, template: &str) -> String {
    template.replace("{d}", &case.tn.cols().to_string())
}

fn env_for(case: &Case, route: Route) -> Env {
    let mut env = Env::new();
    env.bind(
        "T",
        Value::Normalized(
            PlannedMatrix::with_strategy(case.tn.clone(), route)
                .with_profile(MachineProfile::REFERENCE),
        ),
    );
    env.bind("Y", Value::Dense(case.y.clone()));
    env
}

fn value_bits(v: &Value) -> Vec<u64> {
    match v {
        Value::Scalar(x) => common::bits(&[*x]),
        Value::Dense(m) => common::bits(m.as_slice()),
        Value::Normalized(_) => panic!("corpus scripts end in scalar/dense results"),
    }
}

fn value_f64s(v: &Value) -> Vec<f64> {
    match v {
        Value::Scalar(x) => vec![*x],
        Value::Dense(m) => m.as_slice().to_vec(),
        Value::Normalized(_) => panic!("corpus scripts end in scalar/dense results"),
    }
}

/// Runs interpreter and planner on the same script/case/route under a
/// fixed thread count and returns both results.
fn run_both(case: &Case, template: &str, route: Route, threads: usize) -> (Value, Value) {
    let src = script_for(case, template);
    let program = parse(&src).unwrap();
    // Held across both runs, so a bitwise comparison never straddles two
    // thread configurations.
    let settings = RuntimeSettings::hold();
    settings.set_threads(threads);
    let vi = eval_program(&program, &mut env_for(case, route));
    let vp = run_program(&program, &mut env_for(case, route));
    drop(settings);
    (vi.unwrap(), vp.unwrap())
}

fn assert_bitwise(case: &Case, template: &str, route: Route, threads: usize) {
    let (vi, vp) = run_both(case, template, route, threads);
    assert_eq!(
        value_bits(&vi),
        value_bits(&vp),
        "bitwise divergence: route {route:?}, {threads} threads, script:\n{}",
        script_for(case, template)
    );
}

fn assert_close(case: &Case, template: &str, route: Route, threads: usize) {
    let (vi, vp) = run_both(case, template, route, threads);
    let (a, b) = (value_f64s(&vi), value_f64s(&vp));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        let tol = 1e-9 * x.abs().max(y.abs()).max(1.0);
        assert!(
            (x - y).abs() <= tol,
            "divergence beyond tolerance: {x} vs {y}, route {route:?}, {threads} threads, script:\n{}",
            script_for(case, template)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn deterministic_routes_are_bitwise_identical(case in arb_case(), script_idx in 0usize..SCRIPTS.len()) {
        let template = SCRIPTS[script_idx];
        for route in [
            Route::AlwaysFactorize,
            Route::AlwaysMaterialize,
            Route::Heuristic(DecisionRule::default()),
        ] {
            for threads in [1usize, 8] {
                assert_bitwise(&case, template, route, threads);
            }
        }
    }

    #[test]
    fn cost_based_route_agrees_within_tolerance(case in arb_case(), script_idx in 0usize..SCRIPTS.len()) {
        let template = SCRIPTS[script_idx];
        for threads in [1usize, 8] {
            assert_close(&case, template, Route::CostBased, threads);
        }
    }

    #[test]
    fn dense_only_scripts_are_bitwise_identical_at_any_thread_count(case in arb_case(), script_idx in 0usize..SCRIPTS.len()) {
        // With T bound to the materialized join output the planner's CSE
        // and fusion run on pure dense kernels: bitwise identity holds on
        // every strategy-independent path.
        let template = SCRIPTS[script_idx];
        let src = script_for(&case, template);
        let program = parse(&src).unwrap();
        let t = case.tn.materialize().to_dense();
        let mk = || {
            let mut env = Env::new();
            env.bind("T", Value::Dense(t.clone()));
            env.bind("Y", Value::Dense(case.y.clone()));
            env
        };
        for threads in [1usize, 8] {
            let settings = RuntimeSettings::hold();
            settings.set_threads(threads);
            let vi = eval_program(&program, &mut mk());
            let vp = run_program(&program, &mut mk());
            drop(settings);
            prop_assert_eq!(value_bits(&vi.unwrap()), value_bits(&vp.unwrap()));
        }
    }
}
