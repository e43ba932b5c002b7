//! Chaos property suite: randomized, seeded failpoint schedules injected
//! through `morpheus::runtime::faults` while the full Table-1 kernel
//! battery runs over a PK-FK normalized matrix. The contract under fault:
//!
//! 1. every kernel either returns a **bit-identical** result or surfaces
//!    a structured, attributable injected failure (a panic payload that
//!    [`faults::is_injected_panic`] recognizes) — never a wrong answer,
//!    never an anonymous crash;
//! 2. nothing deadlocks (every battery runs under a watchdog thread);
//! 3. no fault poisons process-global state: clearing the schedule and
//!    re-running must reproduce the fault-free baseline exactly, and
//!    every fallback that fired is visible in the degradation counters.
//!
//! Every test holds the registry's exclusive guard — failpoints are
//! process-global, so schedules must not overlap.

mod common;

use morpheus::core::Strategy as Route;
use morpheus::prelude::*;
use morpheus::runtime::faults;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

/// Deterministic dense matrix (same LCG as the other proptest suites).
fn dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut state = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    DenseMatrix::from_fn(rows, cols, |_, _| next())
}

/// One kernel outcome. `PartialEq` here is bitwise for the dense payloads
/// (f64 `==`), which is exactly the determinism contract under test.
#[derive(Debug, Clone, PartialEq)]
enum Out {
    M(DenseMatrix),
    X(Matrix),
    S(f64),
}

/// A kernel outcome under fault: the value, or the name of the failpoint
/// whose injected panic surfaced. Non-injected panics are resumed — an
/// anonymous crash under chaos is a bug, not an acceptable outcome.
type Outcome = Result<Out, String>;

fn contain(f: impl FnOnce() -> Out) -> Outcome {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => match faults::is_injected_panic(payload.as_ref()) {
            Some(name) => Err(name.to_string()),
            None => std::panic::resume_unwind(payload),
        },
    }
}

/// Runs the full kernel battery over a fresh cost-based [`PlannedMatrix`]
/// (fresh so a `planner.memo` fault in one run cannot pre-seed the next),
/// containing each kernel independently.
fn battery(
    tn: &NormalizedMatrix,
    xd: &DenseMatrix,
    xn: &DenseMatrix,
    xr: &DenseMatrix,
) -> Vec<Outcome> {
    let planned = PlannedMatrix::with_strategy(tn.clone(), Route::CostBased)
        .with_profile(MachineProfile::REFERENCE);
    vec![
        contain(|| Out::M(planned.lmm(xd))),
        contain(|| Out::M(planned.t_lmm(xn))),
        contain(|| Out::M(planned.rmm(xr))),
        contain(|| Out::M(planned.crossprod())),
        contain(|| Out::M(planned.row_sums())),
        contain(|| Out::M(planned.col_sums())),
        contain(|| Out::S(planned.sum())),
        contain(|| Out::S(planned.scale(1.5).sum())),
        contain(|| Out::X(planned.materialize())),
    ]
}

/// Deadlock watchdog: runs `f` on its own thread and fails loudly if it
/// does not come back within the deadline. A hung parallel section under
/// chaos would otherwise hang the whole suite silently.
fn with_timeout<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(format!("chaos-{label}"))
        .spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        })
        .expect("chaos watchdog thread must spawn");
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(Ok(v)) => {
            let _ = handle.join();
            v
        }
        Ok(Err(payload)) => {
            let _ = handle.join();
            std::panic::resume_unwind(payload)
        }
        Err(_) => panic!("chaos battery `{label}` deadlocked (no result within 30 s)"),
    }
}

/// The data for one case, sized so every kernel crosses the (lowered)
/// parallel threshold without making 16+ proptest cases slow.
fn case_data(seed: u64) -> (NormalizedMatrix, DenseMatrix, DenseMatrix, DenseMatrix) {
    let ds = PkFkSpec::from_ratios(6.0, 2.0, 24, 4, seed).generate();
    let tn = ds.tn;
    let (n, d) = (tn.rows(), tn.cols());
    (
        tn,
        dense(d, 3, seed ^ 0x9e37),
        dense(n, 3, seed ^ 0x79b9),
        dense(3, n, seed ^ 0x85eb),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn randomized_fault_schedules_never_corrupt_results(
        seed in any::<u64>(),
        pct_worker in 0u32..40,
        pct_dispatch in 0u32..40,
        pct_stride in 0u32..25,
        pct_memo in 0u32..60,
        mask in 1u32..32,
    ) {
        let (p_worker, p_dispatch, p_stride, p_memo) = (
            f64::from(pct_worker) / 100.0,
            f64::from(pct_dispatch) / 100.0,
            f64::from(pct_stride) / 100.0,
            f64::from(pct_memo) / 100.0,
        );
        let _guard = faults::exclusive();
        faults::clear();
        let configured = Runtime::threads();
        Runtime::set_threads(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let (tn, xd, xn, xr) = case_data(seed | 1);

            // Fault-free baseline (schedule cleared above).
            let baseline = {
                let (tn, xd, xn, xr) = (tn.clone(), xd.clone(), xn.clone(), xr.clone());
                with_timeout("baseline", move || battery(&tn, &xd, &xn, &xr))
            };
            for out in &baseline {
                assert!(out.is_ok(), "baseline must be fault-free: {out:?}");
            }

            // Build the schedule from the mask; seeds derive from the case
            // seed so every run of this case replays the same firings.
            let mut parts = Vec::new();
            if mask & 1 != 0 {
                parts.push(format!("pool.worker=panic({p_worker},seed={seed})"));
            }
            if mask & 2 != 0 {
                parts.push(format!("pool.dispatch=error({p_dispatch},seed={})", seed ^ 1));
            }
            if mask & 4 != 0 {
                parts.push(format!("exec.stride=panic({p_stride},seed={})", seed ^ 2));
            }
            if mask & 8 != 0 {
                parts.push(format!("planner.memo=panic({p_memo},seed={})", seed ^ 3));
            }
            if mask & 16 != 0 {
                parts.push("simd.detect=off".to_string());
            }
            let spec = parts.join(";");
            faults::reset_stats();
            faults::configure(&spec).expect("generated schedule must parse");

            let faulted = {
                let (tn, xd, xn, xr) = (tn.clone(), xd.clone(), xn.clone(), xr.clone());
                with_timeout("faulted", move || battery(&tn, &xd, &xn, &xr))
            };
            let stats = faults::stats();
            let surfaced: u64 = ["exec.stride", "planner.memo"]
                .iter()
                .map(|p| faults::fired_count(p))
                .sum();
            faults::clear();

            // Every kernel: bit-identical, or an attributable injected
            // failure from a point that can legally surface to the caller.
            // Worker panics heal in place and dispatch faults degrade to
            // inline serial, so neither may ever reach the caller.
            for (got, want) in faulted.iter().zip(&baseline) {
                match got {
                    Ok(out) => assert_eq!(Some(out), want.as_ref().ok()),
                    Err(point) => assert!(
                        point == "exec.stride" || point == "planner.memo",
                        "failpoint `{point}` must never surface to the caller"
                    ),
                }
            }
            if surfaced == 0 {
                assert_eq!(&faulted, &baseline, "unsurfaced faults must be invisible");
            }

            // Every fallback that fired is visible in the counters.
            if faults::fired_count("pool.dispatch") > 0 {
                assert!(stats.pool_serial_fallbacks > 0);
            }
            if faults::fired_count("pool.worker") > 0 {
                assert!(stats.worker_deaths > 0 && stats.worker_respawns >= stats.worker_deaths);
            }
            if mask & 16 != 0 && faults::fired_count("simd.detect") > 0 {
                assert!(stats.simd_fallbacks > 0);
            }

            // Recovery: with the schedule cleared, the same battery must
            // reproduce the baseline bit-for-bit — dead workers healed,
            // memo cells empty (not poisoned), SIMD tier restored.
            let recovered = with_timeout("recovered", move || battery(&tn, &xd, &xn, &xr));
            assert_eq!(recovered, baseline, "post-chaos runs must match the baseline");
        }));
        Runtime::set_threads(configured);
        faults::clear();
        if let Err(payload) = result {
            std::panic::resume_unwind(payload);
        }
    }
}

/// End-to-end poisoned-state recovery at the scripting layer: an injected
/// panic inside the plan cache's critical section poisons the cache lock;
/// the next script run must clear-and-recompute instead of failing
/// forever, and the recovery must be visible in `plan_cache_stats`.
#[test]
fn script_layer_recovers_from_a_poisoned_plan_cache() {
    let _guard = faults::exclusive();
    faults::clear();
    let src = "g = sum(crossprod(T))\ng + sum(rowSums(T))";
    let program = morpheus::lang::parse(src).unwrap();
    let env = || {
        let tn = PkFkSpec::from_ratios(4.0, 2.0, 8, 3, 11).generate().tn;
        let mut env = Env::new();
        env.bind(
            "T",
            Value::Normalized(
                PlannedMatrix::with_strategy(tn, Route::CostBased)
                    .with_profile(MachineProfile::REFERENCE),
            ),
        );
        env
    };
    let expected = run_program(&program, &mut env()).unwrap();
    let recoveries_before = morpheus::lang::plan_cache_stats().poison_recoveries;

    faults::configure("plan.cache.lookup=panic(times=1)").unwrap();
    let poisoned = catch_unwind(AssertUnwindSafe(|| run_program(&program, &mut env())));
    faults::clear();
    let payload = poisoned.expect_err("the injected cache panic must surface");
    assert_eq!(
        faults::is_injected_panic(payload.as_ref()),
        Some("plan.cache.lookup")
    );

    // Next run: the poisoned cache is cleared and recomputed, the script
    // result is unchanged, and the recovery is counted.
    let recovered = run_program(&program, &mut env()).unwrap();
    match (&recovered, &expected) {
        (Value::Scalar(a), Value::Scalar(b)) => {
            assert_eq!(common::bits(&[*a]), common::bits(&[*b]))
        }
        other => panic!("script ends in a scalar, got {other:?}"),
    }
    assert!(morpheus::lang::plan_cache_stats().poison_recoveries > recoveries_before);
}
