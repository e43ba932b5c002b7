//! What every workload shares: the run configuration, the report it
//! fills, wall-clock helpers, and the process-level readings
//! (`VmHWM`, degradation counters).

use crate::stats::{summarize, Summary};
use morpheus_core::MachineProfile;
use morpheus_runtime::faults;
use std::path::PathBuf;
use std::time::Instant;

/// One invocation of `repro-bench run`.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Seed for the data generators and the request stream — nothing else
    /// sees it.
    pub seed: u64,
    /// Wall seconds the measured phases may take in total.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Shapes ÷ 10, two units per phase: a smoke run whose numbers are
    /// not comparable with a full run's.
    pub quick: bool,
    /// Directory for span files and spill files.
    pub out_dir: PathBuf,
}

impl RunCfg {
    /// `full`, or a tenth of it (at least `floor`) under `--quick`.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.quick {
            (full / 10).max(floor)
        } else {
            full
        }
    }

    /// How often a workload sets up: seven times when `setup_s` is
    /// reported (its median is the metric), once otherwise.
    pub fn setup_reps(&self) -> usize {
        if self.trace || self.quick {
            1
        } else {
            7
        }
    }

    /// The measured-phase budget in seconds; quick runs ignore it and
    /// stop at the minimum unit counts.
    pub fn budget_s(&self) -> f64 {
        if self.quick {
            0.0
        } else {
            self.seconds
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Registered name (see [`crate::registry`]).
    pub name: &'static str,
    /// Median / quartiles / sample count; a count or one-shot reading
    /// has one sample.
    pub summary: Summary,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in reporting order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (timed units, requests, checks).
    pub attempted: u64,
    /// Operations that failed, were shed, errored or gave a wrong answer.
    pub failed: u64,
    /// Human-readable observations printed under the table.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric from its samples.
    pub fn samples(&mut self, name: &'static str, samples: &[f64]) {
        self.metrics.push(Metric {
            name,
            summary: summarize(samples),
        });
    }

    /// Records a metric with a single reading.
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            summary: Summary::single(value),
        });
    }

    /// Counts one checked operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {what}"));
        }
    }

    /// The median of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.summary.median)
    }

    /// Closes the run: a non-zero degradation counter means the numbers
    /// were measured on a degraded runtime, so every operation counts as
    /// failed.
    pub fn finish(&mut self) {
        let degraded = degradations();
        if degraded > 0 {
            self.notes.push(format!(
                "FAILED: {degraded} runtime degradations — whole run counted as failed"
            ));
            self.failed = self.attempted.max(1);
        }
        self.attempted = self.attempted.max(1);
    }
}

/// Sum of the degradation counters of [`faults::stats`] (injected faults
/// excluded: the harness never configures any).
pub fn degradations() -> u64 {
    let s = faults::stats();
    s.worker_deaths
        + s.worker_respawns
        + s.pool_spawn_failures
        + s.pool_serial_fallbacks
        + s.lock_recoveries
        + s.calibration_timeouts
        + s.profile_write_failures
        + s.simd_fallbacks
        + s.serve_batch_aborts
        + s.spill_fallbacks
}

/// Wall seconds `f` took, and its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// A stopwatch over a phase budget.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget_s: f64,
}

impl Deadline {
    /// Starts a phase that may run for `budget_s` seconds.
    pub fn new(budget_s: f64) -> Deadline {
        Deadline {
            start: Instant::now(),
            budget_s,
        }
    }

    /// Seconds since the phase started.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whether the budget is used up.
    pub fn expired(&self) -> bool {
        self.elapsed_s() >= self.budget_s
    }
}

/// Runs `setup` `reps` times, dropping each product before building the
/// next, and returns the last product with the per-repetition seconds —
/// so `setup_s` is a median, not one reading.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let (s, product) = timed(|| setup(rep));
        times.push(s);
        last = Some(product);
    }
    (last.expect("repeat_setup: reps must be at least 1"), times)
}

/// The calibration share of a setup repetition: the first resolves the
/// process-wide profile the planner will use; later ones re-run the same
/// calibration so every repetition is charged the same work.
pub fn calibrate(rep: usize) {
    if rep == 0 {
        std::hint::black_box(MachineProfile::global());
    } else {
        std::hint::black_box(MachineProfile::calibrate_watchdogged());
    }
}

/// `VmHWM` (peak resident set) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
