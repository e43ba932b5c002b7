//! Single-component failpoint tests: each arms one named failpoint of the
//! process-global registry and checks that its component walks down the
//! documented degradation ladder (README "Failure model") — the pool
//! heals or runs inline, SIMD demotes bit-identically, a failed spill
//! stays resident, a dead memo recomputes, a dead batch fails only its
//! own requests, a hung or crashed calibration falls back to the
//! reference rates.
//!
//! Every test in this binary holds `faults::exclusive()` for its whole
//! duration. An armed failpoint fires in whichever test reaches its site
//! first, so these tests cannot share a binary with tests that run the
//! same paths unguarded (see the docs of `exclusive`).

mod common;

use morpheus::chunked::spill;
use morpheus::dense::simd::{self, GemmIsa};
use morpheus::prelude::*;
use morpheus::runtime::faults;
use morpheus::serve::ServeError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// One parallel section of `strides` strides on the resident pool; the
/// body sees each stride index exactly once.
fn section(strides: usize, body: impl Fn(usize) + Sync) {
    Executor::new(strides).for_each(strides, body);
}

/// Deterministic PK-FK fixture plus a weight vector.
fn fixture(n_s: usize, n_r: usize, seed: u64) -> (NormalizedMatrix, DenseMatrix) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let s = DenseMatrix::from_fn(n_s, 3, |_, _| next());
    let r = DenseMatrix::from_fn(n_r, 4, |_, _| next());
    let fk: Vec<usize> = (0..n_s).map(|i| (i * 7 + 3) % n_r).collect();
    let tn = NormalizedMatrix::pk_fk(s.into(), &fk, r.into());
    let w = DenseMatrix::from_fn(tn.cols(), 1, |i, _| (i as f64 - 3.0) * 0.25);
    (tn, w)
}

fn quick_config() -> ServeConfig {
    ServeConfig::default()
        .with_strategy(Strategy::AlwaysFactorize)
        .with_batch_window(Duration::from_micros(50))
}

#[test]
fn injected_dispatch_fault_degrades_to_inline_serial() {
    let _guard = faults::exclusive();
    let fallbacks_before = faults::stats().pool_serial_fallbacks;
    faults::configure("pool.dispatch=error").unwrap();
    let hits = AtomicUsize::new(0);
    section(6, |stride| {
        hits.fetch_add(stride + 1, Ordering::Relaxed);
    });
    faults::clear();
    assert_eq!(
        hits.load(Ordering::Relaxed),
        21,
        "results must be identical"
    );
    assert!(faults::stats().pool_serial_fallbacks > fallbacks_before);
}

#[test]
fn injected_spawn_failure_leaves_a_working_degraded_pool() {
    let _guard = faults::exclusive();
    let before = Runtime::threads();
    let failures_before = faults::stats().pool_spawn_failures;
    faults::configure("pool.spawn=error").unwrap();
    // Shrink to an empty pool, then grow: every spawn fails, so the pool
    // stays empty. Shrunk workers count as live until they wake and
    // retire, so retry until a spawn was actually attempted.
    for _ in 0..200 {
        Runtime::set_threads(1);
        std::thread::sleep(Duration::from_millis(1));
        Runtime::set_threads(3);
        if faults::stats().pool_spawn_failures > failures_before {
            break;
        }
    }
    faults::clear();
    assert!(faults::stats().pool_spawn_failures > failures_before);
    let hits = AtomicUsize::new(0);
    section(4, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(
        hits.load(Ordering::Relaxed),
        4,
        "inline serial must still run"
    );
    Runtime::set_threads(before);
}

#[test]
fn dead_workers_heal_and_the_pool_keeps_working() {
    let _guard = faults::exclusive();
    let before = Runtime::threads();
    let deaths_before = faults::stats().worker_deaths;
    faults::configure("pool.worker=panic(times=2)").unwrap();
    // Workers race the submitter for jobs; strides sleep so helpers
    // reliably claim some. Loop until the failpoint demonstrably fired.
    for _ in 0..200 {
        Runtime::set_threads(4);
        let hits = AtomicUsize::new(0);
        section(4, |_| {
            std::thread::sleep(Duration::from_millis(1));
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4, "no stride may be lost");
        if faults::fired_count("pool.worker") >= 2 {
            break;
        }
    }
    let fired = faults::fired_count("pool.worker");
    faults::clear();
    assert_eq!(fired, 2, "worker-death failpoint must have fired");
    let s = faults::stats();
    assert!(
        s.worker_deaths >= deaths_before + 2,
        "deaths must be counted"
    );
    assert!(
        s.worker_respawns >= s.worker_deaths - deaths_before,
        "heals must be counted"
    );
    // The healed pool still produces correct results.
    let hits = AtomicUsize::new(0);
    section(8, |stride| {
        hits.fetch_add(stride, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 28);
    Runtime::set_threads(before);
}

#[test]
#[cfg(target_arch = "x86_64")]
fn injected_detect_failure_demotes_to_the_bit_identical_scalar_tier() {
    let _guard = faults::exclusive();
    let healthy = GemmIsa::active();
    if healthy != GemmIsa::Avx2Fma {
        return; // no AVX2 to lose on this host (or the SIMD gate is off)
    }
    let fallbacks_before = faults::stats().simd_fallbacks;
    faults::configure("simd.detect=off").unwrap();
    assert_eq!(
        GemmIsa::active(),
        GemmIsa::ScalarFma,
        "a failed AVX2 probe must demote GEMM to the scalar-FMA tier"
    );
    // Reductions demote too, and stay bit-identical by construction.
    let xs: Vec<f64> = (0..257)
        .map(|i| ((i * 37) % 101) as f64 / 7.0 - 5.0)
        .collect();
    let faulted_sum = simd::sum(&xs);
    faults::clear();
    assert!(faults::stats().simd_fallbacks > fallbacks_before);
    assert_eq!(faulted_sum, simd::sum(&xs), "demotion must not change bits");
    assert_eq!(GemmIsa::active(), healthy, "detection must recover");
}

#[test]
fn injected_write_failure_degrades_and_leaves_no_file() {
    let _guard = faults::exclusive();
    let m = Matrix::Dense(DenseMatrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64));
    let before = faults::stats().spill_fallbacks;
    faults::configure("spill.write=io_error").unwrap();
    // Budget 0: the one chunk must spill, and its write fails.
    let degraded = ChunkedMatrix::with_budget(&m, 4, 0);
    faults::clear();
    assert_eq!(degraded.n_spilled(), 0, "the chunk stays resident");
    assert_eq!(faults::stats().spill_fallbacks, before + 1);
    let ours = format!("morpheus-spill-{}-", std::process::id());
    let leftovers = std::fs::read_dir(spill::spill_dir())
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.file_name().to_string_lossy().starts_with(&ours))
        .count();
    assert_eq!(leftovers, 0, "a failed spill leaves no file behind");
    // With the failpoint cleared the same chunk spills fine.
    assert_eq!(ChunkedMatrix::with_budget(&m, 4, 0).n_spilled(), 1);
}

#[test]
fn memo_panic_leaves_a_recoverable_planner() {
    let _guard = faults::exclusive();
    let (tn, _) = fixture(30, 6, 23);
    let expected = tn.materialize();
    let planned = PlannedMatrix::with_strategy(tn, Strategy::AlwaysMaterialize)
        .with_profile(MachineProfile::REFERENCE);
    faults::configure("planner.memo=panic(times=1)").unwrap();
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| planned.materialize()));
    faults::clear();
    assert!(attempt.is_err(), "injected memo panic must propagate");
    // The OnceLock memo is left empty — never poisoned — so the same
    // planner (and every clone sharing the memo) simply recomputes.
    let recovered = planned.materialize();
    assert!(recovered.approx_eq(&expected, 0.0));
    assert!(planned.is_memoized());
}

#[test]
fn queue_overflow_sheds_and_is_counted() {
    let _guard = faults::exclusive();
    // First batch stalls 400 ms inside scoring (queue lock released),
    // giving this thread time to overfill the 2-slot queue.
    faults::configure("serve.batch=sleep(400,times=1)").unwrap();
    let (tn, w) = fixture(16, 4, 11);
    let mut cfg = quick_config().with_batch_max(1);
    cfg.queue_cap = 2;
    cfg.batch_window = Duration::ZERO;
    let svc = ScoringService::new(tn, ScoringModel::Linear(w), cfg);
    let t0 = svc.submit(vec![0]).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // scorer now stalled in batch 1
    let t1 = svc.submit(vec![1]).unwrap();
    let t2 = svc.submit(vec![2]).unwrap();
    let shed = svc.submit(vec![3]);
    faults::clear();
    assert_eq!(shed.err(), Some(ServeError::Shed));
    for t in [t0, t1, t2] {
        assert!(t.wait().is_ok());
    }
    let stats = svc.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.requests, 3);
    assert!(stats.max_queue_depth >= 2);
}

#[test]
fn injected_batch_panic_becomes_structured_error_and_service_survives() {
    let _guard = faults::exclusive();
    faults::configure("serve.batch=panic(times=1)").unwrap();
    let (tn, w) = fixture(20, 4, 13);
    let expected = morpheus::ml::linreg::predict(&tn, &w);
    let svc = ScoringService::new(tn, ScoringModel::Linear(w), quick_config());
    let aborted = svc.score(vec![1, 2]);
    faults::clear();
    assert_eq!(aborted.err(), Some(ServeError::BatchAborted));
    // The scorer healed: the next request is answered, correctly.
    let got = svc.score(vec![3]).unwrap();
    assert_eq!(common::bits(&got), common::bits(&[expected.get(3, 0)]));
    let stats = svc.stats();
    assert_eq!(stats.batch_aborts, 1);
    assert!(stats.faults.serve_batch_aborts >= 1);
    assert_eq!(stats.rows_scored, 1);
}

#[test]
fn drop_drains_pending_requests() {
    let _guard = faults::exclusive();
    faults::configure("serve.batch=sleep(100,times=1)").unwrap();
    let (tn, w) = fixture(12, 4, 19);
    let svc = ScoringService::new(
        tn,
        ScoringModel::Linear(w),
        quick_config().with_batch_max(1),
    );
    let t0 = svc.submit(vec![0]).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let t1 = svc.submit(vec![1]).unwrap();
    drop(svc);
    faults::clear();
    assert!(t0.wait().is_ok());
    assert!(t1.wait().is_ok());
}

#[test]
fn watchdogged_calibration_times_out_to_fallback_rates() {
    let _guard = faults::exclusive();
    let timeouts_before = faults::stats().calibration_timeouts;
    faults::configure("profile.calibrate=sleep(2000)").unwrap();
    // A hostile machine: calibration hangs, and the watchdog hands back
    // the reference rates at 50 ms instead of blocking two seconds.
    let profile = MachineProfile::calibrate_within(Duration::from_millis(50));
    faults::clear();
    assert_eq!(profile, MachineProfile::REFERENCE);
    assert!(faults::stats().calibration_timeouts > timeouts_before);
}

#[test]
fn hostile_calibration_falls_back_promptly_and_is_not_sticky() {
    let _guard = faults::exclusive();
    let timeouts_before = faults::stats().calibration_timeouts;
    faults::configure("profile.calibrate=sleep(5000)").unwrap();
    // Hostile first use: the caller is released at the deadline, long
    // before the hung calibration would have finished.
    let started = std::time::Instant::now();
    let profile = MachineProfile::calibrate_within(Duration::from_millis(50));
    let waited = started.elapsed();
    faults::clear();
    assert_eq!(profile, MachineProfile::REFERENCE);
    assert!(
        waited < Duration::from_secs(2),
        "watchdog held the caller for {waited:?}"
    );
    let timeouts_after_hostile = faults::stats().calibration_timeouts;
    assert!(timeouts_after_hostile > timeouts_before);
    // The fallback is not remembered: the next calibration on a healthy
    // machine measures for real and counts no further fallback.
    let healthy = MachineProfile::calibrate_watchdogged();
    assert!(healthy.ew_ns > 0.0 && healthy.ew_ns.is_finite());
    assert_eq!(faults::stats().calibration_timeouts, timeouts_after_hostile);
}

#[test]
fn crashed_calibration_falls_back_instead_of_unwinding() {
    let _guard = faults::exclusive();
    let timeouts_before = faults::stats().calibration_timeouts;
    faults::configure("profile.calibrate=panic").unwrap();
    // Generous deadline: the fallback here comes from the calibration
    // panic, not the timeout.
    let profile = MachineProfile::calibrate_within(Duration::from_secs(60));
    faults::clear();
    assert_eq!(profile, MachineProfile::REFERENCE);
    assert!(faults::stats().calibration_timeouts > timeouts_before);
}

#[test]
fn healthy_calibration_is_measured() {
    let _guard = faults::exclusive();
    // Default deadline, no faults: the real microbenchmarks run to
    // completion and no fallback is counted.
    let timeouts_before = faults::stats().calibration_timeouts;
    let profile = MachineProfile::calibrate_watchdogged();
    assert!(profile.ew_ns > 0.0 && profile.ew_ns.is_finite());
    assert_eq!(faults::stats().calibration_timeouts, timeouts_before);
}
