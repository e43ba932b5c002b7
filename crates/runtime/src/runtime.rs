//! The process-global [`Runtime`]: one place that decides how many worker
//! threads parallel kernels may use and when parallelism is worth it.

use crate::{claim, pool, Executor};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count configured for the process; `0` means "not yet resolved".
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Work threshold below which kernels stay inline ([`DEFAULT_PAR_THRESHOLD`]
/// until a test calls [`Runtime::set_par_threshold`]).
static PAR_THRESHOLD: AtomicUsize = AtomicUsize::new(DEFAULT_PAR_THRESHOLD);

/// Whether explicit-SIMD kernel paths may run; `0` means "not yet
/// resolved", `1` enabled, `2` disabled.
static SIMD: AtomicUsize = AtomicUsize::new(0);

/// Default work size (in flops / fused operations) below which kernels run
/// inline on the caller. Dispatching onto the resident pool is a queue
/// push plus a condvar wake — ~0.4–1.2 µs per tiny section (the
/// standing benchmark reports it as `runtime.dispatch_us`), vs ~52 µs for
/// the scoped-spawn path the
/// pool replaced — so the crossover sits around the serial time of a few
/// thousand flops (`1 << 14` flops ≈ 3 µs at measured kernel rates). The
/// old executor needed `1 << 18` flops to amortize its spawn tax; the
/// pool moves the threshold down 16x, which is what lets the small
/// per-part products inside factorized rewrite chains parallelize at all.
pub const DEFAULT_PAR_THRESHOLD: usize = 1 << 14;

/// The process-global thread-budget authority.
///
/// `Runtime` owns the resident worker pool (see the `pool` module) and
/// answers "how many workers may this call site use right now?",
/// accounting for workers already claimed by enclosing parallel sections
/// (see the crate docs for the composition rule).
#[derive(Debug, Clone, Copy)]
pub struct Runtime;

impl Runtime {
    /// The configured process-wide worker count.
    ///
    /// Resolved once, at first use: `MORPHEUS_NUM_THREADS` if set to a
    /// positive integer, otherwise [`std::thread::available_parallelism`]
    /// (1 if that fails). Later changes to the environment variable have
    /// no effect; use [`Runtime::set_threads`] instead.
    pub fn threads() -> usize {
        match THREADS.load(Ordering::Relaxed) {
            0 => {
                let n = Self::detect();
                // A racing first call detects the same value; last store
                // wins harmlessly.
                THREADS.store(n, Ordering::Relaxed);
                n
            }
            n => n,
        }
    }

    /// Overrides the process-wide worker count (minimum 1) and rebuilds
    /// the resident pool to match: growth spawns parked workers,
    /// shrinkage retires the excess after they finish the section they
    /// are helping. Takes effect for every subsequent
    /// [`Runtime::executor`] call; sections already in flight complete on
    /// their old budget.
    pub fn set_threads(n: usize) {
        let n = n.max(1);
        THREADS.store(n, Ordering::Relaxed);
        pool::resize(n - 1);
    }

    /// Worker budget available to the *current call site*: the configured
    /// count divided by what enclosing parallel sections have already
    /// claimed, floored at 1.
    pub fn available() -> usize {
        (Self::threads() / claim::current()).max(1)
    }

    /// An executor sized to [`Runtime::available`] — the default executor
    /// every kernel uses when the caller does not pass one explicitly.
    pub fn executor() -> Executor {
        Executor::new(Self::available())
    }

    /// Runs `f` with this thread's pool claim multiplied by `parties`, so
    /// `parties` concurrent subsystem threads (e.g. the scoring service's
    /// resident batch scorers) share the one worker pool instead of each
    /// dispatching as if it owned the whole budget. Inside `f`,
    /// [`Runtime::available`] reports `threads / (claim * parties)`
    /// (floored at 1) and every kernel's default executor sizes itself
    /// accordingly; the previous claim is restored when `f` returns, also
    /// on panic. `parties <= 1` is a plain call.
    pub fn with_pool_share<R>(parties: usize, f: impl FnOnce() -> R) -> R {
        if parties <= 1 {
            return f();
        }
        claim::scoped(claim::current().saturating_mul(parties), f)
    }

    /// Whether a kernel with `work` flops (or equivalent fused operations)
    /// is worth dispatching onto the pool, per the process-wide threshold
    /// ([`DEFAULT_PAR_THRESHOLD`] unless [`Runtime::set_par_threshold`]
    /// overrode it). Kernels apply this via [`Executor::gated`]; it
    /// affects scheduling only, never results.
    pub fn should_parallelize(work: usize) -> bool {
        work >= PAR_THRESHOLD.load(Ordering::Relaxed)
    }

    /// Overrides the parallelism threshold (minimum 1) for the whole
    /// process; `1` makes every parallel-capable kernel dispatch to the
    /// pool regardless of size (useful in determinism tests and benches).
    pub fn set_par_threshold(work: usize) {
        PAR_THRESHOLD.store(work.max(1), Ordering::Relaxed);
    }

    /// Whether kernels may take their explicit-SIMD (`std::arch`) paths.
    ///
    /// Resolved once, at first use: `false` when the `MORPHEUS_SIMD`
    /// environment variable is set to `off`, `0`, `false`, or `no`
    /// (case-insensitive), `true` otherwise. This is the escape hatch
    /// that keeps the portable scalar kernels reachable on hardware that
    /// *does* support SIMD — for debugging a suspected vector-kernel bug
    /// and for CI coverage of the fallback path. It gates dispatch only;
    /// the fixed-lane reduction kernels compute identical results either
    /// way, and the scalar GEMM microkernel stays within FMA rounding of
    /// the vector one (bit-identical when the CPU has FMA).
    pub fn simd_enabled() -> bool {
        match SIMD.load(Ordering::Relaxed) {
            0 => {
                let on = std::env::var("MORPHEUS_SIMD")
                    .map(|v| {
                        let v = v.trim().to_ascii_lowercase();
                        !matches!(v.as_str(), "off" | "0" | "false" | "no")
                    })
                    .unwrap_or(true);
                SIMD.store(if on { 1 } else { 2 }, Ordering::Relaxed);
                on
            }
            n => n == 1,
        }
    }

    /// Overrides the SIMD gate for the whole process (tests and benches
    /// that compare kernel paths; scheduling/codegen only — the reduction
    /// results are identical either way).
    pub fn set_simd(enabled: bool) {
        SIMD.store(if enabled { 1 } else { 2 }, Ordering::Relaxed);
    }

    fn detect() -> usize {
        if let Ok(v) = std::env::var("MORPHEUS_NUM_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_is_positive() {
        assert!(Runtime::threads() >= 1);
    }

    #[test]
    fn should_parallelize_has_a_positive_threshold() {
        // Whatever the configured threshold, zero work never parallelizes
        // and astronomically large work always does.
        assert!(!Runtime::should_parallelize(0));
        assert!(Runtime::should_parallelize(usize::MAX));
    }

    // One test, not several: set_threads mutates the process-global
    // worker count (and rebuilds the pool), and concurrent #[test]s doing
    // so would race.
    #[test]
    fn global_thread_count_rules() {
        Runtime::set_threads(0);
        assert!(Runtime::threads() >= 1, "set_threads clamps to >= 1");

        Runtime::set_threads(6);
        assert_eq!(Runtime::threads(), 6);
        let outer = Executor::new(3);
        let inner_sizes = outer.map(3, |_| Runtime::available());
        // 6 configured / 3 claimed = 2 per worker.
        for s in inner_sizes {
            assert!(s <= 2, "inner section saw {s} workers, expected <= 2");
        }
        // Outside any parallel section the full budget is visible again.
        assert_eq!(Runtime::available(), Runtime::threads());

        // Shrinking and regrowing the pool leaves dispatch working.
        Runtime::set_threads(1);
        assert_eq!(
            Executor::new(4).map(9, |i| i * 2),
            (0..9).map(|i| i * 2).collect::<Vec<_>>()
        );
        Runtime::set_threads(4);
        assert_eq!(
            Executor::new(4).map(9, |i| i + 1),
            (0..9).map(|i| i + 1).collect::<Vec<_>>()
        );

        // with_pool_share divides the visible budget among parties and
        // restores the claim afterwards, including across a panic.
        Runtime::set_threads(8);
        let seen = Runtime::with_pool_share(4, Runtime::available);
        assert_eq!(seen, 2);
        assert_eq!(Runtime::with_pool_share(1, Runtime::available), 8);
        assert_eq!(
            Runtime::with_pool_share(100, Runtime::available),
            1,
            "oversharing floors at one worker"
        );
        let _ = std::panic::catch_unwind(|| {
            Runtime::with_pool_share(4, || panic!("boom"));
        });
        assert_eq!(Runtime::available(), 8, "claim restored after panic");
    }
}
