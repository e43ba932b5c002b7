//! Property: resizing the process-global worker pool (`Runtime::set_threads`)
//! while parallel sections are in flight never loses a job, never changes
//! a result, and never wedges. Shrinkage is advertised as graceful — the
//! excess workers exit only after the job they are currently helping — so
//! a concurrent resize storm must be completely invisible to callers.
//!
//! The worker thread hammers `Executor::map` sections and bit-checks every
//! result, and a serial sum over it, against the closed form; the main
//! thread walks a randomized grow/shrink schedule over the pool at the same
//! time.

use morpheus::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Serializes cases: the pool and its configured size are process-global.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn resizing_under_load_loses_no_jobs_and_stays_deterministic(
        seed in any::<u64>(),
        sections in 8usize..40,
        n in 32usize..600,
    ) {
        let _serial = THREADS_LOCK.lock().unwrap();
        let configured = Runtime::threads();
        let stop = Arc::new(AtomicBool::new(false));
        let rounds = Arc::new(AtomicU64::new(0));

        // Load generator: runs parallel sections back to back, checking
        // each against its closed form. Any lost stride or torn result
        // shows up as a wrong element here.
        let worker = {
            let stop = Arc::clone(&stop);
            let done = Arc::clone(&rounds);
            std::thread::spawn(move || {
                let ex = Executor::new(4);
                let mut rounds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let mapped = ex.map(n, |i| (i as u64) * 3 + 1);
                    for (i, v) in mapped.iter().enumerate() {
                        assert_eq!(*v, (i as u64) * 3 + 1, "round {rounds}: lost or torn element");
                    }
                    let total: u64 = ex.map(n, |i| i as u64).into_iter().sum();
                    assert_eq!(total, (n as u64) * (n as u64 - 1) / 2, "round {rounds}: bad reduction");
                    rounds += 1;
                    done.store(rounds, Ordering::Relaxed);
                }
            })
        };

        // Resize storm: a deterministic walk over pool sizes 1..=5
        // (including repeated shrink-to-one, the harshest transition).
        let mut state = seed | 1;
        for _ in 0..sections {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let target = 1 + ((state >> 33) % 5) as usize;
            Runtime::set_threads(target);
            std::thread::yield_now();
        }

        // A short storm can finish before the generator thread has been
        // scheduled at all; hold the stop flag until it has overlapped at
        // least one whole round (or died, which `join` reports).
        while rounds.load(Ordering::Relaxed) == 0 && !worker.is_finished() {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        worker.join().expect("load generator must not panic");
        Runtime::set_threads(configured);
        prop_assert!(
            rounds.load(Ordering::Relaxed) > 0,
            "the load generator must have completed at least one round"
        );
    }
}
