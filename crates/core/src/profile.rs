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
//! Rates come from one of two places:
//!
//! 1. lazy microbenchmark calibration on first use, once per process —
//!    tiny invocations of the real kernels, dispatched on the resident
//!    `morpheus-runtime` pool so the measured rates match the execution
//!    environment the planner schedules. Nothing is stored across runs:
//!    a profile measured by other kernels would misprice every crossover,
//!    and calibrating costs tens of milliseconds,
//! 2. the hard-coded [`MachineProfile::REFERENCE`] rates, used by tests
//!    that need deterministic estimates and by the calibration watchdog
//!    when calibration cannot finish.

use morpheus_dense::{DenseMatrix, ScalarOp};
use morpheus_runtime::{faults, timing};
use morpheus_sparse::CsrMatrix;
use std::sync::OnceLock;
use std::time::Duration;

/// Calibration watchdog deadline: generous (a healthy calibration takes
/// tens of milliseconds) so it only ever fires on a genuinely hostile
/// machine, where planning proceeds on [`MachineProfile::REFERENCE`]
/// instead of blocking first use.
pub const CALIBRATION_TIMEOUT: Duration = Duration::from_secs(10);

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
    /// instead, and falls back to these rates only when calibration
    /// cannot finish (see [`calibrate_within`](Self::calibrate_within)).
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
    /// bounded (tens of milliseconds) even on slow machines. The resident pool is
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
            std::hint::black_box(m.apply(ScalarOp::Mul(1.0001)));
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

    /// Runs [`MachineProfile::calibrate`] under the
    /// [`CALIBRATION_TIMEOUT`] watchdog (see
    /// [`calibrate_within`](Self::calibrate_within)).
    pub fn calibrate_watchdogged() -> MachineProfile {
        Self::calibrate_within(CALIBRATION_TIMEOUT)
    }

    /// Runs [`MachineProfile::calibrate`] on a named spare thread and waits
    /// at most `deadline` for it. If calibration misses the deadline **or
    /// dies**, the [`MachineProfile::REFERENCE`] rates are returned instead
    /// (counted in [`faults::stats`]), so a hostile machine can never block
    /// first use.
    pub fn calibrate_within(deadline: Duration) -> MachineProfile {
        let fall_back = |why: &str| {
            faults::note(faults::Degradation::CalibrationTimeout);
            eprintln!("morpheus: calibration {why}; using built-in reference rates");
            MachineProfile::REFERENCE
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let spawned = std::thread::Builder::new()
            .name("morpheus-calibrate".into())
            .spawn(move || {
                // A calibration panic is caught and sent as `Err`, so the
                // watchdog sees it without waiting out the deadline.
                let _ = tx.send(std::panic::catch_unwind(MachineProfile::calibrate));
            });
        if spawned.is_err() {
            // No thread to watchdog with: calibrate inline, contained.
            return std::panic::catch_unwind(MachineProfile::calibrate)
                .unwrap_or_else(|_| fall_back("panicked"));
        }
        match rx.recv_timeout(deadline) {
            Ok(Ok(profile)) => profile,
            Ok(Err(_)) => fall_back("panicked"),
            // Timeout: the calibration thread keeps running detached and
            // its eventual result is discarded — the process has already
            // committed to the reference rates.
            Err(_) => fall_back(&format!("missed its {deadline:?} deadline")),
        }
    }

    /// The process-wide profile: calibrated on first use under the
    /// [`CALIBRATION_TIMEOUT`] watchdog, then fixed for the life of the
    /// process.
    pub fn global() -> &'static MachineProfile {
        static GLOBAL: OnceLock<MachineProfile> = OnceLock::new();
        GLOBAL.get_or_init(MachineProfile::calibrate_watchdogged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn concurrent_first_use_calibrates_exactly_once() {
        // The same OnceLock shape `global()` uses, with a counting
        // calibrator: however many threads race the first use, exactly one
        // calibration runs and every thread sees the same rates.
        let cell: Arc<OnceLock<MachineProfile>> = Arc::new(OnceLock::new());
        let calibrations = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let calibrations = Arc::clone(&calibrations);
                std::thread::spawn(move || {
                    *cell.get_or_init(|| {
                        calibrations.fetch_add(1, Ordering::SeqCst);
                        MachineProfile::REFERENCE
                    })
                })
            })
            .collect();
        let results: Vec<MachineProfile> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(calibrations.load(Ordering::SeqCst), 1);
        assert!(results.iter().all(|r| *r == MachineProfile::REFERENCE));
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
