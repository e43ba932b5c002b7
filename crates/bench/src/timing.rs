//! Minimal wall-clock timing helpers for the reproduction harness.
//!
//! The `repro` binary sweeps dozens of configurations and needs something
//! cheap — a warmup pass plus the median of a few repetitions, returning
//! the last result so tables can check what they time. (Calibration's
//! min-of-k nanosecond timer is `morpheus_runtime::timing`.)

use std::time::Instant;

/// Times one execution of `f`, returning `(seconds, result)`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Median wall-clock seconds of `reps` executions after one warmup run.
/// The closure result is returned from the final run so callers can verify
/// outputs.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps >= 1, "time_median: need at least one repetition");
    let _ = f(); // warmup
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let (t, out) = time_once(&mut f);
        times.push(t);
        last = Some(out);
    }
    times.sort_by(|a, b| a.partial_cmp(b).expect("NaN timing"));
    (times[times.len() / 2], last.expect("reps >= 1"))
}

/// Formats seconds compactly (`ms` below 1 s, `s` above).
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:7.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:7.2}ms", s * 1e3)
    } else {
        format!("{s:8.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_measures_and_returns() {
        let (t, v) = time_once(|| {
            let mut acc = 0u64;
            for i in 0..10_000 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert!(t >= 0.0);
        assert_eq!(v, (0..10_000u64).sum::<u64>());
    }

    #[test]
    fn time_median_runs_warmup_plus_reps() {
        let mut calls = 0;
        let (_, out) = time_median(3, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 4); // 1 warmup + 3 timed
        assert_eq!(out, 4);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(2.5e-5).contains("us"));
        assert!(fmt_secs(0.25).contains("ms"));
        assert!(fmt_secs(3.2).contains('s'));
    }
}
