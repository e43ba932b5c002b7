//! Kernel probes: direct calls to a layer's public kernels on the
//! workload's *own* parts, timed from outside, with the rate the
//! calibrated [`MachineProfile`] predicts taken in the same process.
//!
//! Bytes and flops are *computed* from shapes, never read from hardware
//! counters.

use crate::harness::{timed, Report};
use crate::stats::median;
use morpheus_core::cost::OpKind;
use morpheus_core::{MachineProfile, Matrix, NormalizedMatrix, PlannedMatrix};
use morpheus_dense::DenseMatrix;
use morpheus_linalg::ginv_sym_psd;
use morpheus_runtime::Runtime;
use std::hint::black_box;

/// Parameter width of the GEMM / gather probes (K-Means' centroid count).
const WIDTH: usize = 10;

/// Median seconds of `reps` calls to `f` after one warm-up call.
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..reps).map(|_| timed(|| black_box(f())).0).collect();
    median(&samples)
}

fn param(rows: usize, cols: usize) -> DenseMatrix {
    DenseMatrix::from_fn(rows, cols, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1 - 0.5)
}

/// Every probe below, on one workload's table.
pub fn all(report: &mut Report, tn: &NormalizedMatrix, tm: &Matrix, reps: usize) {
    runtime(report);
    dense(report, tn, tm, reps);
    sparse(report, tn, tm, reps);
    linalg(report, tn, reps);
    core(report, tn, reps);
}

/// `runtime.threads` and `runtime.dispatch_us`: the median empty
/// `for_each` section on the default executor.
fn runtime(report: &mut Report) {
    let threads = Runtime::threads();
    report.value("runtime.threads", threads as f64);
    let ex = Runtime::executor();
    let samples: Vec<f64> = (0..400)
        .map(|_| {
            timed(|| {
                ex.for_each(threads, |i| {
                    black_box(i);
                })
            })
            .0 * 1e6
        })
        .collect();
    report.samples("runtime.dispatch_us", &samples[100..]);
}

fn gemm_working_set_bytes(rows: usize, k: usize, cols: usize) -> f64 {
    8.0 * (rows * k + k * cols + rows * cols) as f64
}

/// One GEMM probe: achieved GFLOP/s and the ns the profile predicts
/// over the ns measured.
fn gemm_probe(a: &DenseMatrix, reps: usize, profile: &MachineProfile) -> (f64, f64) {
    let (rows, k) = a.shape();
    let x = param(k, WIDTH);
    let secs = time_median(reps, || a.matmul(&x));
    let fused = (rows * k * WIDTH) as f64;
    let predicted_ns = fused * profile.dense_flop_ns(gemm_working_set_bytes(rows, k, WIDTH));
    (2.0 * fused / secs / 1e9, predicted_ns / (secs * 1e9))
}

/// The dense probes on the materialized table and the largest dense
/// attribute table; reports nothing when the join output is sparse.
fn dense(report: &mut Report, tn: &NormalizedMatrix, tm: &Matrix, reps: usize) {
    let Some(t) = tm.as_dense() else { return };
    let profile = MachineProfile::global();
    let (n, d) = t.shape();
    let (tall_gflops, tall_frac) = gemm_probe(t, reps, profile);
    report.value("dense.gemm_tall_gflops", tall_gflops);
    let part = tn.parts()[1..]
        .iter()
        .filter_map(|p| p.table().as_dense())
        .max_by_key(|m| m.len());
    let mut slower = (tall_gflops, tall_frac);
    if let Some(part) = part {
        let probe = gemm_probe(part, reps, profile);
        report.value("dense.gemm_part_gflops", probe.0);
        if probe.0 < slower.0 {
            slower = probe;
        }
    }
    report.value("dense.roofline_frac", slower.1);
    let secs = time_median(reps, || t.crossprod());
    report.value(
        "dense.crossprod_gflops",
        (n * d * (d + 1)) as f64 / secs / 1e9,
    );
    let secs = time_median(reps, || t.col_sums());
    report.value("dense.reduce_gbps", (n * d * 8) as f64 / secs / 1e9);
}

/// The indicator gather / scatter probes on the first explicit indicator,
/// and the sparse-table products where the workload has sparse tables.
fn sparse(report: &mut Report, tn: &NormalizedMatrix, tm: &Matrix, reps: usize) {
    let profile = MachineProfile::global();
    if let Some(k) = tn.parts().iter().find_map(|p| p.indicator().as_rows()) {
        let (n, n_r) = k.shape();
        let x = param(n_r, WIDTH);
        let elems = (n * WIDTH) as f64;
        let gather_ns = time_median(reps, || k.spmm_dense(&x)) * 1e9;
        report.value("sparse.gather_ns_per_elem", gather_ns / elems);
        let predicted = n as f64 * (WIDTH as f64 * profile.gather_ns + profile.gather_row_ns);
        report.value("sparse.gather_roofline_frac", predicted / gather_ns);
        let xn = param(n, WIDTH);
        let scatter_ns = time_median(reps, || k.t_spmm_dense(&xn)) * 1e9;
        report.value("sparse.scatter_ns_per_elem", scatter_ns / elems);
    }
    let table = tn.parts().iter().filter_map(|p| p.table().as_sparse());
    if let Some(s) = table.max_by_key(|s| s.nnz()) {
        let x = param(s.cols(), WIDTH);
        let secs = time_median(reps, || s.spmm_dense(&x));
        report.value("sparse.spmm_ns_per_nnz", secs * 1e9 / s.nnz() as f64);
        let xr = param(s.rows(), WIDTH);
        let secs = time_median(reps, || s.t_spmm_dense(&xr));
        report.value("sparse.t_spmm_ns_per_nnz", secs * 1e9 / s.nnz() as f64);
    }
    if let Some(s) = tm.as_sparse() {
        let x = param(s.cols(), WIDTH);
        let secs = time_median(reps, || s.spmm_dense(&x));
        report.value("sparse.mat_spmm_ns_per_nnz", secs * 1e9 / s.nnz() as f64);
    }
}

/// Widest Gram matrix the `ginv` probe will invert (a 1 335² SVD would
/// swamp the traced run).
const GINV_MAX_D: usize = 256;

/// `linalg.ginv_s` on the workload's own `d x d` Gram matrix.
fn linalg(report: &mut Report, tn: &NormalizedMatrix, reps: usize) {
    if tn.cols() <= GINV_MAX_D {
        let gram = tn.crossprod();
        report.value("linalg.ginv_s", time_median(reps, || ginv_sym_psd(&gram)));
    }
}

/// `core.planner.overhead_us` (one `plan(Lmm)` verdict), the recorded
/// planner inputs, and `core.rewrite_self_frac` by replay.
fn core(report: &mut Report, tn: &NormalizedMatrix, reps: usize) {
    let profile = MachineProfile::global();
    report.value("core.redundancy_ratio", tn.redundancy_ratio());
    report.value("core.profile.dense_l2_ns", profile.dense_tiers[0].ns);
    report.value("core.profile.gather_ns", profile.gather_ns);
    let planned = PlannedMatrix::new(tn.clone());
    let calls = 2_000;
    let (secs, _) = timed(|| {
        for _ in 0..calls {
            black_box(planned.plan(black_box(OpKind::Lmm { m: 1 })));
        }
    });
    report.value("core.planner.overhead_us", secs * 1e6 / calls as f64);
    report.value("core.rewrite_self_frac", rewrite_self_frac(tn, reps));
}

/// Share of the factorized `lmm` + `t_lmm` (width 10) that is *not* the
/// per-part products and indicator applications they are rewritten into —
/// estimated by replaying those kernels one by one on the same parts and
/// subtracting. What is left is rewrite glue: slicing, assembly,
/// allocation, dispatch.
fn rewrite_self_frac(tn: &NormalizedMatrix, reps: usize) -> f64 {
    let (n, d) = tn.shape();
    let x = param(d, WIDTH);
    let xn = param(n, WIDTH);
    let full = time_median(reps, || tn.lmm(&x)) + time_median(reps, || tn.t_lmm(&xn));
    let offsets = tn.col_offsets();
    let mut replay = 0.0;
    for (part, &off) in tn.parts().iter().zip(&offsets) {
        let table = part.table();
        let xs = x.slice_rows(off..off + table.cols());
        replay += time_median(reps, || table.matmul_dense(&xs));
        match part.indicator().as_rows() {
            Some(k) => {
                let partial = table.matmul_dense(&xs);
                replay += time_median(reps, || k.spmm_dense(&partial));
                replay += time_median(reps, || k.t_spmm_dense(&xn));
                let pushed = k.t_spmm_dense(&xn);
                replay += time_median(reps, || table.t_matmul_dense(&pushed));
            }
            None => replay += time_median(reps, || table.t_matmul_dense(&xn)),
        }
    }
    (full - replay) / full
}
