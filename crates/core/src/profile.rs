//! Per-machine kernel rates: the [`MachineProfile`] behind the cost-based
//! planner.
//!
//! The paper's §3.4 cost model counts arithmetic computations, but the
//! factorized/materialized crossover it predicts depends on how fast each
//! *kind* of computation actually runs: cache-blocked dense GEMM sustains
//! several flops per nanosecond while its working set fits in L2, slows
//! measurably once operands spill to L3, and again when they stream from
//! DRAM; the indicator gather-adds inside the factorized rewrites are
//! irregular-memory operations an order of magnitude slower per element;
//! general sparse products sit between the two. A profile captures those
//! rates so flop counts convert into comparable time estimates (see
//! [`crate::cost::estimate_op`]).
//!
//! The dense rate is therefore not one number but a **tier curve**:
//! [`MachineProfile::calibrate`] measures the blocked-GEMM rate at three
//! working-set sizes chosen to land in L2, L3, and DRAM, and
//! [`MachineProfile::dense_flop_ns`] interpolates between them piecewise
//! log-linearly in the working-set size. The single-point 64³ calibration
//! of earlier revisions was ~2x optimistic for large cross-products — the
//! exact regime where the planner's crossover matters most.
//!
//! Rates come from one of three places, in priority order:
//!
//! 1. a file named by `MORPHEUS_PROFILE_PATH`, if it exists and carries
//!    the current [`PROFILE_FORMAT_VERSION`] (so CI and repeated test
//!    processes skip calibration). Files from older revisions, corrupted
//!    files, and files with missing keys are *ignored* — the profile is
//!    recalibrated and the file rewritten, never a hard error,
//! 2. lazy microbenchmark calibration on first use — tiny invocations of
//!    the real kernels, dispatched on the resident `morpheus-runtime`
//!    pool so the measured rates match the execution environment the
//!    planner schedules (written back to `MORPHEUS_PROFILE_PATH` when
//!    set),
//! 3. the hard-coded [`MachineProfile::REFERENCE`] rates, used only by
//!    tests that need deterministic estimates.

use crate::{CoreError, CoreResult};
use morpheus_dense::DenseMatrix;
use morpheus_runtime::{faults, timing};
use morpheus_sparse::CsrMatrix;
use std::sync::OnceLock;

/// Environment variable naming the profile persistence file.
pub const PROFILE_PATH_ENV: &str = "MORPHEUS_PROFILE_PATH";

/// Environment variable bounding calibration wall time, in milliseconds.
/// When first-use calibration misses this deadline (default
/// [`DEFAULT_CALIBRATION_TIMEOUT_MS`]; `0` disables the watchdog), the
/// planner proceeds on the built-in [`MachineProfile::FALLBACK`] rates
/// instead of blocking first use on a hostile machine — and the fallback
/// is *not* persisted, so a later healthy process calibrates for real.
pub const CALIBRATION_TIMEOUT_ENV: &str = "MORPHEUS_CALIBRATION_TIMEOUT_MS";

/// Default calibration watchdog deadline: generous (a healthy calibration
/// takes ~100 ms) so it only ever fires on a genuinely hostile machine.
pub const DEFAULT_CALIBRATION_TIMEOUT_MS: u64 = 10_000;

/// A calibration outcome: the rates plus whether they were actually
/// measured on this machine. Only measured rates are worth persisting —
/// writing the fallback rates to `MORPHEUS_PROFILE_PATH` would make a
/// transient stall permanent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationResult {
    /// The rates to plan with.
    pub profile: MachineProfile,
    /// `true` when the rates came from microbenchmarks on this machine;
    /// `false` when the watchdog substituted the built-in fallback.
    pub measured: bool,
}

/// Version of the persisted key set. Bumped whenever the rate set changes
/// shape *or the kernels behind the rates change speed class*; files
/// written by other versions trigger recalibration instead of being
/// misread (v1 had a single dense rate and one shared sparse/gather rate;
/// v2 rates were measured against the scalar GEMM and serial reduction
/// chains that the SIMD packed-panel microkernel and fixed-lane reductions
/// replaced — loading them would misprice every crossover decision; v3
/// gather rates timed the CSR indicator kernels the key column replaced).
pub const PROFILE_FORMAT_VERSION: u32 = 4;

/// One calibration point of the dense-rate tier curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenseTier {
    /// Working-set bytes of the calibration GEMM (all three operands).
    pub bytes: f64,
    /// Measured ns per fused multiply-add at that working set.
    pub ns: f64,
}

/// Calibrated per-kernel rates, in nanoseconds per operation.
///
/// The rates cover the kernel classes the Table-1 operator set is built
/// from; every cost estimate is a weighted sum of them plus a fixed
/// per-part dispatch overhead. The dense rate is size-tiered (see
/// [`MachineProfile::dense_flop_ns`]); the other classes are streaming or
/// latency-bound, so one number each suffices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineProfile {
    /// ns per fused multiply-add in cache-blocked dense products (GEMM,
    /// crossprod), calibrated at L2-, L3-, and DRAM-sized working sets
    /// (ascending `bytes`). Query through
    /// [`dense_flop_ns`](MachineProfile::dense_flop_ns), which
    /// interpolates.
    pub dense_tiers: [DenseTier; 3],
    /// ns per element in streaming element-wise passes over dense storage
    /// (scalar ops and maps: one read + one write per element).
    pub ew_ns: f64,
    /// ns per element in read-only streaming *sum* reductions with
    /// independent accumulators (row/col sums). Cheaper than
    /// [`ew_ns`](Self::ew_ns): no write stream, and the fixed-lane sums
    /// vectorize.
    pub red_ns: f64,
    /// ns per element in min/max fold reductions (`rowMin`). Since the
    /// fixed-lane vectorization the fold chains run at nearly the sum
    /// rate; the residual gap is the latency difference between `min` and
    /// `add`, no longer the old 2–3x serial-chain penalty.
    pub minmax_ns: f64,
    /// ns per element in a whole-matrix `sum`. Historically the slowest
    /// reduction class (one serial dependency chain); the fixed-lane
    /// kernel runs eight chains in flight, pulling it to the streaming
    /// bandwidth of [`red_ns`](Self::red_ns).
    pub sum_ns: f64,
    /// ns per stored-entry fused op in general sparse products (SpMM,
    /// SpGEMM, sparse crossprod) — priced against nnz, not logical size.
    pub sparse_ns: f64,
    /// ns per gathered element in *row*-major indicator applications and
    /// materialization (one-hot SpMM row gathers), with the per-row
    /// latency separated out (see
    /// [`gather_row_ns`](Self::gather_row_ns)).
    pub gather_ns: f64,
    /// Fixed ns per gathered *row* of an indicator application — index
    /// lookup and loop latency that narrow gathers cannot amortize. A
    /// width-`m` application of an explicit indicator over `n` logical
    /// rows costs `n * (m * gather_ns + gather_row_ns)`; the two rates
    /// come from a two-point (wide/narrow) calibration.
    pub gather_row_ns: f64,
    /// Measured ratio of the symmetric rank-k kernels (`crossprod`,
    /// `tcrossprod`) to blocked GEMM at the same working set, normalized
    /// to the tiles the triangular kernel actually computes
    /// (`cost::syrk_tile_fraction` of the padded output square — the
    /// kernel skips whole register tiles below the diagonal). What
    /// remains in this (dimensionless) factor is the genuine premium:
    /// transposed packing and the mirror pass.
    pub syrk_factor: f64,
    /// ns per element in *column*-strided indicator applications — the
    /// `X K` pushes of RMM and the `S_A K_B1`-style dense-times-one-hot
    /// products inside DMM, which scatter across output columns instead
    /// of walking rows. Measurably slower than
    /// [`gather_ns`](Self::gather_ns) on row-major storage.
    pub col_gather_ns: f64,
    /// Fixed ns of overhead per part of a factorized operator: closure
    /// dispatch on the runtime executor, partial-result assembly.
    pub op_overhead_ns: f64,
}

/// Working-set bytes of a `rows x k` by `k x cols` product (three dense
/// operands at 8 bytes each) — the tier-curve query key used by the cost
/// model and by calibration, kept in one place so they always agree.
pub fn gemm_working_set_bytes(rows: usize, k: usize, cols: usize) -> f64 {
    8.0 * (rows * k + k * cols + rows * cols) as f64
}

/// Calibration GEMM shapes `(rows, k, cols)` for the three tiers. Chosen
/// so the working sets land around 100 KB (L2-resident), 1.4 MB (L3), and
/// 17 MB (DRAM on anything current), while the flop counts stay small
/// enough that one calibration costs tens of milliseconds, not seconds.
const TIER_SHAPES: [(usize, usize, usize); 3] = [
    (64, 64, 64),   // ~98 KB,  262 k fused ops
    (512, 256, 64), // ~1.4 MB, 8.4 M fused ops
    (4096, 512, 8), // ~17 MB,  16.8 M fused ops
];

impl MachineProfile {
    /// Nominal rates of a mid-2020s x86 core: blocked GEMM ≈ 2 flops/ns in
    /// L2 degrading toward 1 flop/ns out of DRAM, element-wise streaming
    /// ≈ 1/ns, sparse fused ops ≈ 2.5 ns, gathers ≈ 3 ns each, ~1 µs per
    /// dispatched part. A **frozen test profile**, not a tracker of the
    /// current kernels — tests that pin planner decisions depend on these
    /// exact numbers, so kernel speedups (e.g. the SIMD microkernel)
    /// change calibration, never this constant. Real planning calibrates
    /// instead.
    pub const REFERENCE: MachineProfile = MachineProfile {
        dense_tiers: [
            DenseTier {
                bytes: 98_304.0,
                ns: 0.5,
            },
            DenseTier {
                bytes: 1_441_792.0,
                ns: 0.7,
            },
            DenseTier {
                bytes: 17_039_360.0,
                ns: 1.0,
            },
        ],
        ew_ns: 1.0,
        red_ns: 0.5,
        minmax_ns: 0.75,
        sum_ns: 1.25,
        sparse_ns: 2.5,
        gather_ns: 3.0,
        gather_row_ns: 2.0,
        col_gather_ns: 4.0,
        syrk_factor: 1.5,
        op_overhead_ns: 1_000.0,
    };

    /// The rates used when calibration cannot run to completion (watchdog
    /// deadline missed, calibration panicked) — the bottom rung of the
    /// profile's degradation ladder. Currently the same nominal mid-2020s
    /// x86 numbers as [`REFERENCE`](Self::REFERENCE), but a distinct
    /// constant: `REFERENCE` is frozen for test determinism while this
    /// one tracks "sane rates to plan with, blind"; they may diverge.
    /// Never persisted (see [`CalibrationResult::measured`]).
    pub const FALLBACK: MachineProfile = MachineProfile::REFERENCE;

    /// The blocked-dense rate at a given working-set size: piecewise
    /// log-linear interpolation through the calibrated tiers, clamped at
    /// both ends. Monotone whenever the tier rates are (calibration
    /// enforces that), so cost estimates stay monotone in problem size.
    pub fn dense_flop_ns(&self, working_set_bytes: f64) -> f64 {
        let t = &self.dense_tiers;
        if working_set_bytes <= t[0].bytes {
            return t[0].ns;
        }
        if working_set_bytes >= t[2].bytes {
            return t[2].ns;
        }
        let (lo, hi) = if working_set_bytes < t[1].bytes {
            (t[0], t[1])
        } else {
            (t[1], t[2])
        };
        let frac = (working_set_bytes.ln() - lo.bytes.ln()) / (hi.bytes.ln() - lo.bytes.ln());
        (lo.ns.ln() + frac * (hi.ns.ln() - lo.ns.ln())).exp()
    }

    /// Measures the rates with microbenchmarks of the real kernels.
    ///
    /// The dense rate is measured at the three `TIER_SHAPES` working
    /// sets; the larger two are time-budgeted
    /// ([`timing::measure_ns_budgeted`]) so first-use calibration stays
    /// bounded (~100 ms total) even on slow machines. The resident pool is
    /// warmed first so worker spawns are never measured, and the tier
    /// rates are forced non-decreasing (a larger working set can only
    /// measure *faster* through noise, never truly be faster), which keeps
    /// the interpolated rate — and with it every cost estimate — monotone
    /// in size.
    pub fn calibrate() -> MachineProfile {
        // `profile.calibrate` failpoint: a `sleep` kind simulates a
        // hostile machine (trips the watchdog), a `panic` kind a crashing
        // calibration — both recovered by `calibrate_watchdogged`.
        faults::maybe_panic("profile.calibrate");
        timing::warm_pool();

        // Dense tier curve: one blocked GEMM per tier (the profile's unit
        // is ns per fused op, not per flop).
        let mut dense_tiers = [DenseTier {
            bytes: 0.0,
            ns: 0.0,
        }; 3];
        for (tier, &(rows, k, cols)) in TIER_SHAPES.iter().enumerate() {
            let a = DenseMatrix::from_fn(rows, k, |i, j| ((i * k + j) % 31) as f64 * 0.07 - 1.0);
            let b = DenseMatrix::from_fn(k, cols, |i, j| ((i + j * k) % 29) as f64 * 0.05 - 0.7);
            let ops = rows * k * cols;
            let ns = if tier == 0 {
                timing::measure_ns_per_op(5, ops, || {
                    std::hint::black_box(a.matmul(&b));
                })
            } else {
                // ~60 ms budget per large tier, 4 reps when they fit.
                timing::measure_ns_per_op_budgeted(4, 6e7, ops, || {
                    std::hint::black_box(a.matmul(&b));
                })
            };
            dense_tiers[tier] = DenseTier {
                bytes: gemm_working_set_bytes(rows, k, cols),
                ns: ns.max(1e-3),
            };
        }
        // Monotone rates: cache effects only ever slow larger sets down.
        for i in 1..dense_tiers.len() {
            dense_tiers[i].ns = dense_tiers[i].ns.max(dense_tiers[i - 1].ns);
        }

        // Element-wise rate: scalar multiply over 65 536 elements (one
        // read + one write per element).
        let m = DenseMatrix::from_fn(256, 256, |i, j| ((i ^ j) % 17) as f64 * 0.11 - 0.9);
        let ew_ns = timing::measure_ns_per_op(5, 256 * 256, || {
            std::hint::black_box(m.scalar_mul(1.0001));
        });

        // Reduction rates, one per kernel class, over a table-shaped
        // (tall, tens-of-columns) matrix like the ones aggregations
        // actually reduce: independent-accumulator sums (row_sums),
        // min/max fold chains (row_min), and the serial whole-matrix sum.
        let tall = DenseMatrix::from_fn(2048, 32, |i, j| ((i * 5 + j) % 19) as f64 * 0.13 - 1.1);
        let red_ns = timing::measure_ns_per_op(5, 2048 * 32, || {
            std::hint::black_box(tall.row_sums());
        });
        let minmax_ns = timing::measure_ns_per_op(5, 2048 * 32, || {
            std::hint::black_box(tall.row_min());
        });
        let sum_ns = timing::measure_ns_per_op(5, 2048 * 32, || {
            std::hint::black_box(tall.sum());
        });

        // Sparse-product rate: a general (non-indicator) CSR SpMM with a
        // scattered 4-nnz/row pattern — the irregular inner loops of
        // SpMM/SpGEMM, as opposed to the pure row gather below.
        let trips: Vec<(usize, usize, f64)> = (0..2048)
            .flat_map(|i| (0..4).map(move |j| (i, (i * 13 + j * 131) % 512, 0.5 + j as f64)))
            .collect();
        let sp = CsrMatrix::from_triplets(2048, 512, &trips).expect("calibration CSR");
        let xs = DenseMatrix::from_fn(512, 8, |i, j| ((i + j * 5) % 11) as f64 * 0.3 - 1.4);
        let sparse_ns = timing::measure_ns_per_op(5, 2048 * 4 * 8, || {
            std::hint::black_box(sp.spmm_dense(&xs));
        });

        // Gather rates, two-point: the key-column `K X` the LMM rewrite
        // runs — 4096 logical rows each gathering 8 (wide) or 1 (narrow)
        // element(s) from a 512-row base table. The narrow point isolates
        // the per-row latency (index lookup, loop overhead) that the wide
        // point amortizes: per-row time is `lat + m * g`, so two widths
        // solve for both.
        let assign: Vec<usize> = (0..4096).map(|i| (i * 7) % 512).collect();
        let k = crate::KeyColumn::new(&assign, 512).expect("calibration keys");
        let x = DenseMatrix::from_fn(512, 8, |i, j| ((i * 3 + j) % 13) as f64 * 0.2 - 1.2);
        let row_w8 = timing::measure_ns_per_op(5, 4096, || {
            std::hint::black_box(k.spmm_dense(&x));
        });
        let x1 = DenseMatrix::from_fn(512, 1, |i, _| (i % 13) as f64 * 0.2 - 1.2);
        let row_w1 = timing::measure_ns_per_op(5, 4096, || {
            std::hint::black_box(k.spmm_dense(&x1));
        });
        let gather_ns = ((row_w8 - row_w1) / 7.0).max(1e-3);
        let gather_row_ns = (row_w1 - gather_ns).max(1e-3);

        // Column-gather rate: the same indicator pushed from the right
        // (`X K`, the RMM shape) — the key-column kernel scatters across
        // output columns, a different access pattern with its own
        // measured price.
        let xr = DenseMatrix::from_fn(8, 4096, |i, j| ((i + j * 3) % 13) as f64 * 0.2 - 1.2);
        let col_gather_ns = timing::measure_ns_per_op(5, 8 * 4096, || {
            std::hint::black_box(k.dense_spmm(&xr));
        });

        // Symmetric rank-k factor: the L2-tier crossprod against the
        // L2-tier GEMM rate measured above, normalized by the tiles the
        // triangular kernel actually computes at this output size (the
        // per-triangle-flop convention would fold the tile-granularity
        // waste into the factor and misprice other output sizes). The
        // strided-pack and mirror costs the estimator prices separately
        // (see `cost::sym_mm_ns`) are subtracted first so the factor
        // stays a pure flop-rate premium.
        let a64 = DenseMatrix::from_fn(64, 64, |i, j| ((i * 64 + j) % 23) as f64 * 0.09 - 1.0);
        let syrk_ops = (crate::cost::syrk_tile_fraction(64.0) * 64.0 * 64.0 * 64.0) as usize;
        let syrk_ns_raw = timing::measure_ns_per_op(5, syrk_ops, || {
            std::hint::black_box(a64.crossprod());
        });
        let syrk_side = (64.0 * 64.0 * (gather_ns - sum_ns).max(0.0)
            + 0.5 * 64.0 * 64.0 * (gather_ns + ew_ns))
            / syrk_ops as f64;
        let syrk_factor = ((syrk_ns_raw - syrk_side) / dense_tiers[0].ns).clamp(0.5, 4.0);

        // Per-part overhead: dispatch of a near-empty two-item section on
        // the pool, the same shape the per-part rewrite loops use.
        let ex = morpheus_runtime::Runtime::executor();
        let op_overhead_ns = timing::measure_ns(20, || {
            std::hint::black_box(ex.map(2, |i| i as f64));
        }) / 2.0;

        MachineProfile {
            dense_tiers,
            ew_ns: ew_ns.max(1e-3),
            red_ns: red_ns.max(1e-3),
            minmax_ns: minmax_ns.max(1e-3),
            sum_ns: sum_ns.max(1e-3),
            sparse_ns: sparse_ns.max(1e-3),
            gather_ns,
            gather_row_ns,
            col_gather_ns: col_gather_ns.max(1e-3),
            syrk_factor,
            op_overhead_ns: op_overhead_ns.max(1.0),
        }
    }

    /// Runs [`MachineProfile::calibrate`] under the watchdog deadline from
    /// [`CALIBRATION_TIMEOUT_ENV`]. Calibration runs on a named spare
    /// thread; if it misses the deadline **or dies**, the built-in
    /// [`MachineProfile::FALLBACK`] rates are substituted (counted in
    /// [`faults::stats`]) so a hostile machine can never block first use.
    /// A deadline of `0` disables the watchdog but still contains a
    /// calibration panic.
    pub fn calibrate_watchdogged() -> CalibrationResult {
        let timeout_ms = std::env::var(CALIBRATION_TIMEOUT_ENV)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(DEFAULT_CALIBRATION_TIMEOUT_MS);
        let fall_back = |why: &str| {
            faults::note(faults::Degradation::CalibrationTimeout);
            eprintln!("morpheus: calibration {why}; using built-in fallback rates (not persisted)");
            CalibrationResult {
                profile: MachineProfile::FALLBACK,
                measured: false,
            }
        };
        if timeout_ms == 0 {
            return match std::panic::catch_unwind(MachineProfile::calibrate) {
                Ok(profile) => CalibrationResult {
                    profile,
                    measured: true,
                },
                Err(_) => fall_back("panicked"),
            };
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let spawned = std::thread::Builder::new()
            .name("morpheus-calibrate".into())
            .spawn(move || {
                // A calibration panic drops `tx`, surfacing below as a
                // disconnect rather than unwinding into the watchdog.
                let _ = tx.send(std::panic::catch_unwind(MachineProfile::calibrate));
            });
        if spawned.is_err() {
            // No thread to watchdog with: calibrate inline, contained.
            return match std::panic::catch_unwind(MachineProfile::calibrate) {
                Ok(profile) => CalibrationResult {
                    profile,
                    measured: true,
                },
                Err(_) => fall_back("panicked"),
            };
        }
        match rx.recv_timeout(std::time::Duration::from_millis(timeout_ms)) {
            Ok(Ok(profile)) => CalibrationResult {
                profile,
                measured: true,
            },
            Ok(Err(_)) => fall_back("panicked"),
            // Timeout: the calibration thread keeps running detached and
            // its eventual result is discarded — the process has already
            // committed to the fallback rates.
            Err(_) => fall_back(&format!("missed its {timeout_ms} ms deadline")),
        }
    }

    /// Writes `text` to `path` crash-safely: the bytes go to a temp file
    /// in the same directory (same filesystem, so the rename is atomic)
    /// and replace `path` only via `rename`. A crash or failure anywhere
    /// in the window leaves the previous profile intact — never a
    /// truncated or interleaved file.
    fn persist_atomically(path: &str, text: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let tmp = format!("{path}.tmp.{}", std::process::id());
        std::fs::write(&tmp, text)?;
        // `profile.write` failpoint: error kinds simulate a failed write
        // (the temp file is cleaned up, the target untouched); a `panic`
        // kind crashes inside the window, which must also leave the
        // target intact — exactly what the rename ordering guarantees.
        if faults::fire("profile.write").is_some() {
            let _ = std::fs::remove_file(&tmp);
            return Err(std::io::Error::other("injected profile write failure"));
        }
        std::fs::rename(&tmp, path)
    }

    /// Load-else-produce-and-persist: the seam behind
    /// [`MachineProfile::global`] with the producer injected. Persistence
    /// is best-effort and atomic, skipped for unmeasured (fallback)
    /// rates, and a failure — including a panic inside the persistence
    /// window — is contained and counted, never raised: a read-only path
    /// must not break planning.
    fn load_else_produce(
        path: Option<&str>,
        produce: impl FnOnce() -> CalibrationResult,
    ) -> MachineProfile {
        if let Some(p) = path {
            if let Ok(text) = std::fs::read_to_string(p) {
                match MachineProfile::from_text(&text) {
                    Ok(profile) => return profile,
                    Err(e) => eprintln!("morpheus: recalibrating, profile at {p} unusable: {e}"),
                }
            }
        }
        let result = produce();
        if let (Some(p), true) = (path, result.measured) {
            let outcome = std::panic::catch_unwind(|| {
                MachineProfile::persist_atomically(p, &result.profile.to_text())
            });
            let failure: Option<String> = match outcome {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(e.to_string()),
                Err(_) => Some("panic during persistence".into()),
            };
            if let Some(e) = failure {
                faults::note(faults::Degradation::ProfileWriteFailure);
                eprintln!("morpheus: could not persist profile to {p}: {e}");
            }
        }
        result.profile
    }

    /// Load-else-calibrate-and-persist, with the calibrator injected —
    /// the testable seam behind [`MachineProfile::global`]. When `path`
    /// names a readable file in the current format, its rates are
    /// returned and `calibrate` never runs; otherwise `calibrate` runs
    /// and its result is written to `path` (best-effort, atomically via
    /// a same-directory temp file and rename) when one is given.
    pub fn load_else_calibrate_with(
        path: Option<&str>,
        calibrate: impl FnOnce() -> MachineProfile,
    ) -> MachineProfile {
        Self::load_else_produce(path, || CalibrationResult {
            profile: calibrate(),
            measured: true,
        })
    }

    /// The process-wide profile: loaded from `MORPHEUS_PROFILE_PATH` when
    /// that file exists and is current, otherwise calibrated on first use
    /// under the [`CALIBRATION_TIMEOUT_ENV`] watchdog (and written back to
    /// the path when one is named and the rates were actually measured).
    /// Resolved once per process.
    pub fn global() -> &'static MachineProfile {
        static GLOBAL: OnceLock<MachineProfile> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let path = std::env::var(PROFILE_PATH_ENV).ok();
            MachineProfile::load_else_produce(
                path.as_deref(),
                MachineProfile::calibrate_watchdogged,
            )
        })
    }

    /// Renders the profile in the versioned `key = value` format
    /// [`from_text`] parses.
    ///
    /// [`from_text`]: MachineProfile::from_text
    pub fn to_text(&self) -> String {
        let t = &self.dense_tiers;
        format!(
            "# morpheus machine profile (ns per operation)\n\
             format_version = {PROFILE_FORMAT_VERSION}\n\
             dense_l2_bytes = {}\n\
             dense_l2_ns = {}\n\
             dense_l3_bytes = {}\n\
             dense_l3_ns = {}\n\
             dense_dram_bytes = {}\n\
             dense_dram_ns = {}\n\
             ew_ns = {}\n\
             red_ns = {}\n\
             minmax_ns = {}\n\
             sum_ns = {}\n\
             sparse_ns = {}\n\
             gather_ns = {}\n\
             gather_row_ns = {}\n\
             col_gather_ns = {}\n\
             syrk_factor = {}\n\
             op_overhead_ns = {}\n",
            t[0].bytes,
            t[0].ns,
            t[1].bytes,
            t[1].ns,
            t[2].bytes,
            t[2].ns,
            self.ew_ns,
            self.red_ns,
            self.minmax_ns,
            self.sum_ns,
            self.sparse_ns,
            self.gather_ns,
            self.gather_row_ns,
            self.col_gather_ns,
            self.syrk_factor,
            self.op_overhead_ns
        )
    }

    /// Parses a persisted profile: `key = value` lines, `#` comments,
    /// unknown keys ignored (forward compatibility within a version).
    /// `format_version` must be present and equal to
    /// [`PROFILE_FORMAT_VERSION`] — files from other versions are
    /// rejected, which [`global`](MachineProfile::global) treats as
    /// "recalibrate", never as a hard failure. All rates are required,
    /// positive, and the dense tier bytes strictly increasing.
    pub fn from_text(text: &str) -> CoreResult<MachineProfile> {
        const KEYS: [&str; 16] = [
            "dense_l2_bytes",
            "dense_l2_ns",
            "dense_l3_bytes",
            "dense_l3_ns",
            "dense_dram_bytes",
            "dense_dram_ns",
            "ew_ns",
            "red_ns",
            "minmax_ns",
            "sum_ns",
            "sparse_ns",
            "gather_ns",
            "gather_row_ns",
            "col_gather_ns",
            "syrk_factor",
            "op_overhead_ns",
        ];
        let mut version: Option<u32> = None;
        let mut rates = [None::<f64>; 16];
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(CoreError::Profile(format!("malformed line: {line:?}")));
            };
            let (key, value) = (key.trim(), value.trim());
            if key == "format_version" {
                version = Some(value.parse().map_err(|_| {
                    CoreError::Profile(format!("non-numeric format_version: {value:?}"))
                })?);
                continue;
            }
            if let Some(slot) = KEYS.iter().position(|&k| k == key) {
                let v: f64 = value.parse().map_err(|_| {
                    CoreError::Profile(format!("non-numeric value for {key}: {value:?}"))
                })?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(CoreError::Profile(format!(
                        "rate {key} must be positive and finite, got {v}"
                    )));
                }
                rates[slot] = Some(v);
            }
        }
        match version {
            None => {
                return Err(CoreError::Profile(
                    "no format_version (pre-v2 profile)".into(),
                ))
            }
            Some(v) if v != PROFILE_FORMAT_VERSION => {
                return Err(CoreError::Profile(format!(
                    "format_version {v} != supported {PROFILE_FORMAT_VERSION}"
                )))
            }
            Some(_) => {}
        }
        if rates.iter().any(Option::is_none) {
            let names: Vec<&str> = KEYS
                .iter()
                .zip(&rates)
                .filter(|(_, r)| r.is_none())
                .map(|(&k, _)| k)
                .collect();
            return Err(CoreError::Profile(format!(
                "missing rate(s): {}",
                names.join(", ")
            )));
        }
        let r = rates.map(|v| v.expect("checked above"));
        if !(r[0] < r[2] && r[2] < r[4]) {
            return Err(CoreError::Profile(format!(
                "dense tier bytes must be strictly increasing, got {} {} {}",
                r[0], r[2], r[4]
            )));
        }
        // The cost model's size-monotonicity rests on the tier rates
        // being non-decreasing; calibration enforces it, so a violating
        // file is hand-edited or stale — recalibrate rather than misprice.
        if !(r[1] <= r[3] && r[3] <= r[5]) {
            return Err(CoreError::Profile(format!(
                "dense tier rates must be non-decreasing, got {} {} {}",
                r[1], r[3], r[5]
            )));
        }
        Ok(MachineProfile {
            dense_tiers: [
                DenseTier {
                    bytes: r[0],
                    ns: r[1],
                },
                DenseTier {
                    bytes: r[2],
                    ns: r[3],
                },
                DenseTier {
                    bytes: r[4],
                    ns: r[5],
                },
            ],
            ew_ns: r[6],
            red_ns: r[7],
            minmax_ns: r[8],
            sum_ns: r[9],
            sparse_ns: r[10],
            gather_ns: r[11],
            gather_row_ns: r[12],
            col_gather_ns: r[13],
            syrk_factor: r[14],
            op_overhead_ns: r[15],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn fake_profile() -> MachineProfile {
        MachineProfile {
            dense_tiers: [
                DenseTier {
                    bytes: 1.0e5,
                    ns: 0.42,
                },
                DenseTier {
                    bytes: 1.5e6,
                    ns: 0.63,
                },
                DenseTier {
                    bytes: 1.7e7,
                    ns: 0.99,
                },
            ],
            ew_ns: 1.25,
            red_ns: 0.625,
            minmax_ns: 0.875,
            sum_ns: 1.375,
            sparse_ns: 2.125,
            gather_ns: 2.75,
            gather_row_ns: 1.75,
            col_gather_ns: 3.5,
            syrk_factor: 1.375,
            op_overhead_ns: 900.0,
        }
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "morpheus-profile-test-{name}-{}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn text_round_trip() {
        let p = fake_profile();
        assert_eq!(MachineProfile::from_text(&p.to_text()).unwrap(), p);
        assert_eq!(
            MachineProfile::from_text(&MachineProfile::REFERENCE.to_text()).unwrap(),
            MachineProfile::REFERENCE
        );
    }

    #[test]
    fn parse_tolerates_comments_and_unknown_keys() {
        let mut text = MachineProfile::REFERENCE.to_text();
        text.push_str("# trailing comment\nfuture_rate_ns = 9\n");
        let p = MachineProfile::from_text(&text).unwrap();
        assert_eq!(p, MachineProfile::REFERENCE);
    }

    #[test]
    fn parse_rejects_bad_input() {
        // Garbage, non-numeric rates, negative rates.
        assert!(matches!(
            MachineProfile::from_text("what is this"),
            Err(CoreError::Profile(_))
        ));
        let bad_value = MachineProfile::REFERENCE
            .to_text()
            .replace("ew_ns = 1", "ew_ns = fast");
        assert!(matches!(
            MachineProfile::from_text(&bad_value),
            Err(CoreError::Profile(_))
        ));
        let negative = MachineProfile::REFERENCE
            .to_text()
            .replace("gather_ns = 3", "gather_ns = -3");
        assert!(matches!(
            MachineProfile::from_text(&negative),
            Err(CoreError::Profile(_))
        ));
    }

    #[test]
    fn parse_rejects_partial_key_sets_naming_the_missing_rates() {
        let partial = format!(
            "format_version = {PROFILE_FORMAT_VERSION}\ndense_l2_bytes = 1e5\ndense_l2_ns = 0.5\n"
        );
        match MachineProfile::from_text(&partial) {
            Err(CoreError::Profile(msg)) => {
                assert!(msg.contains("ew_ns"), "should name missing keys: {msg}")
            }
            other => panic!("expected missing-rate error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_old_version_and_missing_version() {
        // A v1-era file: four flat keys, no format_version.
        let v1 = "dense_flop_ns = 0.5\new_ns = 1\ngather_ns = 3\nop_overhead_ns = 1000\n";
        match MachineProfile::from_text(v1) {
            Err(CoreError::Profile(msg)) => assert!(msg.contains("format_version"), "{msg}"),
            other => panic!("expected version error, got {other:?}"),
        }
        let vfuture = MachineProfile::REFERENCE.to_text().replace(
            &format!("format_version = {PROFILE_FORMAT_VERSION}"),
            "format_version = 99",
        );
        assert!(matches!(
            MachineProfile::from_text(&vfuture),
            Err(CoreError::Profile(msg)) if msg.contains("99")
        ));
    }

    #[test]
    fn parse_rejects_non_increasing_tier_bytes() {
        let text = fake_profile()
            .to_text()
            .replace("dense_l3_bytes = 1500000", "dense_l3_bytes = 50000");
        assert!(matches!(
            MachineProfile::from_text(&text),
            Err(CoreError::Profile(msg)) if msg.contains("increasing")
        ));
    }

    #[test]
    fn parse_rejects_decreasing_tier_rates() {
        // A hand-edited file with a faster L3 than L2 rate would make the
        // interpolated dense rate — and with it every cost estimate —
        // non-monotone in size; it must trigger recalibration instead.
        let text = fake_profile()
            .to_text()
            .replace("dense_l3_ns = 0.63", "dense_l3_ns = 0.1");
        assert!(matches!(
            MachineProfile::from_text(&text),
            Err(CoreError::Profile(msg)) if msg.contains("non-decreasing")
        ));
    }

    #[test]
    fn load_else_calibrate_round_trips_through_a_file() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let p = path.to_str().unwrap();
        // First use calibrates (injected) and writes.
        let written = MachineProfile::load_else_calibrate_with(Some(p), fake_profile);
        assert_eq!(written, fake_profile());
        // Second use loads; the injected calibrator must not run.
        let loaded = MachineProfile::load_else_calibrate_with(Some(p), || {
            panic!("a persisted profile must be loaded, not recalibrated")
        });
        assert_eq!(loaded, written);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupted_and_stale_files_fall_back_to_recalibration_and_are_rewritten() {
        for (name, contents) in [
            ("corrupt", "!!! not a profile !!!".to_string()),
            ("truncated", fake_profile().to_text()[..60].to_string()),
            (
                "v1",
                "dense_flop_ns = 0.5\new_ns = 1\ngather_ns = 3\nop_overhead_ns = 1000\n"
                    .to_string(),
            ),
        ] {
            let path = temp_path(name);
            std::fs::write(&path, contents).unwrap();
            let calibrations = AtomicUsize::new(0);
            let out =
                MachineProfile::load_else_calibrate_with(Some(path.to_str().unwrap()), || {
                    calibrations.fetch_add(1, Ordering::SeqCst);
                    fake_profile()
                });
            assert_eq!(out, fake_profile(), "case {name}");
            assert_eq!(calibrations.load(Ordering::SeqCst), 1, "case {name}");
            // The unusable file is replaced with the fresh rates.
            let rewritten = std::fs::read_to_string(&path).unwrap();
            assert_eq!(
                MachineProfile::from_text(&rewritten).unwrap(),
                fake_profile(),
                "case {name}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn concurrent_first_use_calibrates_exactly_once() {
        // The same OnceLock shape `global()` uses, with a counting
        // calibrator: however many threads race the first use, exactly one
        // calibration runs and every thread sees the same rates.
        let cell: Arc<OnceLock<MachineProfile>> = Arc::new(OnceLock::new());
        let calibrations = Arc::new(AtomicUsize::new(0));
        let path = temp_path("concurrent");
        let _ = std::fs::remove_file(&path);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let calibrations = Arc::clone(&calibrations);
                let p = path.to_str().unwrap().to_string();
                std::thread::spawn(move || {
                    *cell.get_or_init(|| {
                        MachineProfile::load_else_calibrate_with(Some(&p), || {
                            calibrations.fetch_add(1, Ordering::SeqCst);
                            fake_profile()
                        })
                    })
                })
            })
            .collect();
        let results: Vec<MachineProfile> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(calibrations.load(Ordering::SeqCst), 1);
        assert!(results.iter().all(|r| *r == fake_profile()));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tier_interpolation_clamps_and_is_monotone() {
        let p = MachineProfile::REFERENCE;
        let t = &p.dense_tiers;
        // Exact hits and clamps.
        assert_eq!(p.dense_flop_ns(0.0), t[0].ns);
        assert_eq!(p.dense_flop_ns(t[0].bytes), t[0].ns);
        assert!((p.dense_flop_ns(t[1].bytes) - t[1].ns).abs() < 1e-12);
        assert_eq!(p.dense_flop_ns(t[2].bytes), t[2].ns);
        assert_eq!(p.dense_flop_ns(1e12), t[2].ns);
        // Monotone across a log sweep.
        let mut prev = 0.0;
        for i in 0..200 {
            let ws = 1e3 * (1.1f64).powi(i);
            let ns = p.dense_flop_ns(ws);
            assert!(ns >= prev, "rate decreased at ws {ws}: {ns} < {prev}");
            assert!(ns >= t[0].ns && ns <= t[2].ns);
            prev = ns;
        }
        // Interior points sit strictly between their bracketing tiers.
        let mid = (t[0].bytes * t[1].bytes).sqrt();
        let ns = p.dense_flop_ns(mid);
        assert!(ns > t[0].ns && ns < t[1].ns);
    }

    #[test]
    fn calibration_produces_positive_monotone_rates() {
        let p = MachineProfile::calibrate();
        for rate in [
            p.ew_ns,
            p.red_ns,
            p.minmax_ns,
            p.sum_ns,
            p.sparse_ns,
            p.gather_ns,
            p.gather_row_ns,
            p.col_gather_ns,
            p.syrk_factor,
            p.op_overhead_ns,
        ] {
            assert!(rate.is_finite() && rate > 0.0, "bad calibrated rate {rate}");
        }
        for w in p.dense_tiers.windows(2) {
            assert!(w[0].bytes < w[1].bytes);
            assert!(w[0].ns <= w[1].ns, "tier rates must be non-decreasing");
        }
        // Sanity: a fused GEMM op cannot beat 0.01 ns (no machine this
        // code runs on does 100 flops/ns scalar) nor take longer than a
        // millisecond.
        let l2 = p.dense_tiers[0].ns;
        assert!(l2 > 0.01 && l2 < 1e6);
    }
}
