//! Property-based validation of the shared parallel runtime: for random
//! shapes and worker counts, the band-parallel dense/sparse kernels must
//! agree with the single-threaded path **bit for bit** (each output
//! element is accumulated by exactly one worker in the serial order), the
//! two-pass scatter kernels (`t_spmm_dense`, `dense_spmm`, `spgemm`,
//! `t_spgemm_dense`) must reproduce the serial results — for SpGEMM the
//! exact CSR structure — and chunk-level parallelism composed over
//! kernel-level parallelism (oversubscription) must stay deterministic.
//! Worker counts deliberately exceed the resident pool so dispatch under
//! oversubscription is exercised too. The SIMD determinism contract gets
//! the same treatment: the AVX2 GEMM microkernel must match the scalar
//! FMA microkernel bit for bit on every tile-remainder shape, and the
//! fixed-lane reductions must not move with the worker count or the
//! `MORPHEUS_SIMD` gate. Every operation of the key-column indicator is
//! checked bit for bit against the CSR kernels on the same `K`.

use morpheus::chunked::ChunkedMatrix;
use morpheus::core::{KeyColumn, LinearOperand};
use morpheus::dense::simd::{self, GemmBand, GemmIsa, MatSrc};
use morpheus::prelude::*;
use proptest::prelude::*;

fn mat(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut state = seed | 1;
    DenseMatrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

fn sparse(rows: usize, cols: usize, seed: u64) -> CsrMatrix {
    let nnz = (rows * cols / 3).max(1);
    let mut state = seed | 1;
    let trips: Vec<(usize, usize, f64)> = (0..nnz)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (state >> 33) as usize % rows;
            let j = (state >> 13) as usize % cols;
            let v = ((state >> 3) % 19) as f64 - 9.0;
            (i, j, v)
        })
        .collect();
    CsrMatrix::from_triplets(rows, cols, &trips).unwrap()
}

/// Random keys into `0..hit` (so rows `hit..` of a taller table are never
/// referenced).
fn keys(n: usize, hit: usize, seed: u64) -> Vec<usize> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % hit
        })
        .collect()
}

/// The CSR copy of an indicator, built like any other sparse matrix.
fn csr_indicator(keys: &[usize], table_rows: usize) -> CsrMatrix {
    let trips: Vec<_> = keys.iter().enumerate().map(|(i, &k)| (i, k, 1.0)).collect();
    CsrMatrix::from_triplets(keys.len(), table_rows, &trips).unwrap()
}

/// Full-mantissa values (so a changed summation order shows in the
/// bits) with a few NaN, ±inf and −0.0 planted among them.
fn hostile(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
    let base = mat(rows, cols, seed);
    DenseMatrix::from_fn(rows, cols, |i, j| {
        match (i * 7 + j * 3 + seed as usize % 5) % 13 {
            0 => special[(i + j) % 4],
            _ => (base.get(i, j) * 1e3).sin(),
        }
    })
}

/// Nothing but NaN, ±inf and −0.0.
fn specials(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
    DenseMatrix::from_fn(rows, cols, |i, j| special[(i * 3 + j + seed as usize) % 4])
}

type Fill = fn(usize, usize, u64) -> DenseMatrix;

fn bits(m: &DenseMatrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The old CSR route of `select_rows`: walk the selected rows, number
/// the base rows in first-use order.
fn csr_select(k: &CsrMatrix, rows: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut keep: Vec<usize> = Vec::new();
    let keys = rows
        .iter()
        .map(|&r| {
            let old = k.row(r).0[0];
            keep.iter().position(|&c| c == old).unwrap_or_else(|| {
                keep.push(old);
                keep.len() - 1
            })
        })
        .collect();
    (keys, keep)
}

fn as_usize(k: &KeyColumn) -> Vec<usize> {
    k.keys().iter().map(|&c| c as usize).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn key_column_matches_csr_indicator_bitwise(
        n in 0usize..40,
        hit in 1usize..9,
        unreferenced in 0usize..3,
        width in 0usize..4,
        seed in any::<u64>(),
    ) {
        // Every base row in `hit..table_rows` is unreferenced; n = 0 also
        // runs with a 0-row table.
        let table_rows = if n == 0 { unreferenced } else { hit + unreferenced };
        let fk = keys(n, hit, seed);
        let k = KeyColumn::new(&fk, table_rows).unwrap();
        let csr = csr_indicator(&fk, table_rows);
        let fk2 = keys(n, hit + 1, seed ^ 0x7E57);
        let k2 = KeyColumn::new(&fk2, hit + 1).unwrap();
        Runtime::set_par_threshold(1);
        let configured = Runtime::threads();
        for (threads, fill) in [(1usize, hostile as Fill), (8, hostile), (1, specials), (8, specials)] {
            let x = fill(table_rows, width, seed ^ 0x11);
            let y = fill(n, width, seed ^ 0x22);
            let z = fill(width, n, seed ^ 0x33);
            Runtime::set_threads(threads);
            let got = (k.spmm_dense(&x), k.t_spmm_dense(&y), k.dense_spmm(&z));
            let want = (csr.spmm_dense(&x), csr.t_spmm_dense(&y), csr.dense_spmm(&z));
            Runtime::set_threads(configured);
            prop_assert_eq!(bits(&got.0), bits(&want.0));
            prop_assert_eq!(bits(&got.1), bits(&want.1));
            prop_assert_eq!(bits(&got.2), bits(&want.2));
        }
        prop_assert_eq!(k.col_sums(), csr.col_sums());
        prop_assert_eq!(k.pair_counts(&k2), csr.transpose().spgemm(&csr_indicator(&fk2, hit + 1)));
        prop_assert_eq!(k.pair_counts(&k), csr.transpose().spgemm(&csr));

        // select_rows / prune / append_rows compose keys as the CSR walk did.
        let r = Matrix::Dense(hostile(table_rows, width, seed ^ 0x44));
        let tn = NormalizedMatrix::multi_mn(vec![(fk.clone(), r.clone())]).unwrap();
        let part_keys = |t: &NormalizedMatrix| {
            let p = &t.parts()[0];
            (as_usize(p.indicator().as_rows().unwrap()), p.table().to_dense())
        };
        let rows: Vec<usize> = if n == 0 { vec![] } else { keys(2 * n, n, seed ^ 0x55) };
        let (sel_keys, sel_table) = part_keys(&tn.select_rows(&rows));
        let (want_keys, keep) = csr_select(&csr, &rows);
        prop_assert_eq!(sel_keys, want_keys);
        prop_assert_eq!(bits(&sel_table), bits(&r.gather_rows(&keep).to_dense()));

        let counts = csr.col_sums();
        let live: Vec<usize> = (0..table_rows).filter(|&c| counts.get(0, c) > 0.0).collect();
        let (pruned_keys, pruned_table) = part_keys(&tn.prune());
        let remapped: Vec<usize> = (0..n).map(|i| live.iter().position(|&c| c == csr.row(i).0[0]).unwrap()).collect();
        prop_assert_eq!(pruned_keys, remapped);
        prop_assert_eq!(bits(&pruned_table), bits(&r.gather_rows(&live).to_dense()));

        let add = if table_rows == 0 { vec![] } else { keys(3, table_rows, seed ^ 0x66) };
        let (grown_keys, _) = part_keys(&tn.append_rows(None, std::slice::from_ref(&add)).unwrap());
        let grown = csr.vstack(&csr_indicator(&add, table_rows));
        prop_assert_eq!(csr_indicator(&grown_keys, table_rows), grown);
    }

    #[test]
    fn parallel_dense_kernels_bit_identical(
        rows in 1usize..60,
        cols in 1usize..12,
        inner in 1usize..12,
        threads in 2usize..6,
        seed in any::<u64>(),
    ) {
        let a = mat(rows, inner, seed);
        let b = mat(inner, cols, seed ^ 0xA5A5);
        let v = mat(inner, 1, seed ^ 0x77).into_vec();
        let w = mat(rows, 1, seed ^ 0x99).into_vec();
        let serial = Executor::serial();
        let par = Executor::new(threads);
        // Bit-for-bit: exact equality, not approx_eq.
        prop_assert_eq!(a.matmul_with(&b, &par), a.matmul_with(&b, &serial));
        prop_assert_eq!(a.matvec_with(&v, &par), a.matvec_with(&v, &serial));
        prop_assert_eq!(a.vecmat_with(&w, &par), a.vecmat_with(&w, &serial));
        prop_assert_eq!(a.crossprod_with(&par), a.crossprod_with(&serial));
        prop_assert_eq!(a.tcrossprod_with(&par), a.tcrossprod_with(&serial));
        let y = mat(rows, cols, seed ^ 0x1234);
        prop_assert_eq!(a.t_matmul_with(&y, &par), a.t_matmul_with(&y, &serial));
        let z = mat(cols, inner, seed ^ 0x4321);
        prop_assert_eq!(a.matmul_t_with(&z, &par), a.matmul_t_with(&z, &serial));
    }

    #[test]
    fn parallel_sparse_kernels_bit_identical(
        rows in 1usize..50,
        cols in 1usize..15,
        width in 1usize..8,
        threads in 2usize..6,
        seed in any::<u64>(),
    ) {
        let s = sparse(rows, cols, seed);
        let x = mat(cols, width, seed ^ 0xBEEF);
        let serial = Executor::serial();
        let par = Executor::new(threads);
        prop_assert_eq!(s.spmm_dense_with(&x, &par), s.spmm_dense_with(&x, &serial));
        prop_assert_eq!(s.crossprod_dense_with(&par), s.crossprod_dense_with(&serial));
    }

    #[test]
    fn parallel_scatter_kernels_bit_identical(
        rows in 1usize..50,
        cols in 1usize..15,
        width in 1usize..8,
        threads in 2usize..10,
        seed in any::<u64>(),
    ) {
        // The scatter kernels run their two-pass symbolic/numeric scheme
        // only above the work threshold; drop it so these small shapes
        // exercise the parallel paths (scheduling only — results are
        // threshold-independent).
        Runtime::set_par_threshold(1);
        let s = sparse(rows, cols, seed);
        let y = mat(rows, width, seed ^ 0x0FF1);
        let yv = mat(rows, 1, seed ^ 0x2CE);
        let xd = mat(width, rows, seed ^ 0xC0DE);
        let b = sparse(cols, (seed % 13) as usize + 1, seed ^ 0x1DEA);
        let b2 = sparse(rows, width + 2, seed ^ 0xF00D);
        let serial = Executor::serial();
        let par = Executor::new(threads);
        prop_assert_eq!(
            s.t_spmm_dense_with(&y, &par),
            s.t_spmm_dense_with(&y, &serial)
        );
        prop_assert_eq!(
            s.t_spmm_dense_with(&yv, &par),
            s.t_spmm_dense_with(&yv, &serial)
        );
        prop_assert_eq!(
            s.dense_spmm_with(&xd, &par),
            s.dense_spmm_with(&xd, &serial)
        );
        // SpGEMM: the full CSR structure must match, not just the dense
        // content — exact per-row extents include cancellation drops.
        let sp_par = s.spgemm_with(&b, &par);
        let sp_serial = s.spgemm_with(&b, &serial);
        prop_assert_eq!(sp_par.indptr(), sp_serial.indptr());
        prop_assert_eq!(sp_par.indices(), sp_serial.indices());
        prop_assert_eq!(sp_par.values(), sp_serial.values());
        prop_assert_eq!(
            s.t_spgemm_dense_with(&b2, &par),
            s.t_spgemm_dense_with(&b2, &serial)
        );
    }

    #[test]
    fn oversubscribed_scatter_kernels_are_deterministic(
        rows in 4usize..40,
        cols in 2usize..10,
        outer in 2usize..5,
        seed in any::<u64>(),
    ) {
        // Scatter kernels nested inside an outer parallel section: the
        // outer map claims workers (oversubscribing the pool), the plain
        // kernel methods inside see the remaining budget — every replica
        // must still equal the fully serial result bit-for-bit. The
        // configured worker count is restored afterwards so the CI
        // thread-mode pins (1 / default / 8) keep governing the rest of
        // this binary.
        Runtime::set_par_threshold(1);
        let configured = Runtime::threads();
        Runtime::set_threads(4);
        let s = sparse(rows, cols, seed);
        let y = mat(rows, 3, seed ^ 0xAB);
        let b = sparse(cols, 5, seed ^ 0xCD);
        let t_expect = s.t_spmm_dense_with(&y, &Executor::serial());
        let sp_expect = s.spgemm_with(&b, &Executor::serial());
        let replicas = Executor::new(outer).map(outer, |_| (s.t_spmm_dense(&y), s.spgemm(&b)));
        Runtime::set_threads(configured);
        for (t, sp) in replicas {
            prop_assert_eq!(&t, &t_expect);
            prop_assert_eq!(sp.indptr(), sp_expect.indptr());
            prop_assert_eq!(sp.indices(), sp_expect.indices());
            prop_assert_eq!(sp.values(), sp_expect.values());
        }
    }

    #[test]
    fn oversubscribed_chunked_over_parallel_dense_is_deterministic(
        rows in 8usize..50,
        cols in 2usize..8,
        chunk in 1usize..12,
        outer_threads in 3usize..9,
        seed in any::<u64>(),
    ) {
        // Chunk-level parallelism claims workers from the Runtime budget
        // — pinned here past a 2-core runner's cores — and the parallel
        // dense kernels inside each chunk see the remainder. Whatever the
        // split, results must be identical to the fully serial execution.
        // The configured count is restored so the CI thread-mode pins
        // keep governing the rest of this binary.
        let configured = Runtime::threads();
        let d = mat(rows, cols, seed);
        let m = Matrix::Dense(d.clone());
        let c = ChunkedMatrix::with_budget(&m, chunk, u64::MAX);

        let x = mat(cols, 3, seed ^ 0x5E5E);
        Runtime::set_threads(outer_threads);
        let nested_lmm = c.lmm(&x);
        let nested_cp = LinearOperand::crossprod(&c);
        let nested_lmm2 = c.lmm(&x);
        let nested_cp2 = LinearOperand::crossprod(&c);
        Runtime::set_threads(1);
        let serial_lmm = c.lmm(&x);
        let serial_cp = LinearOperand::crossprod(&c);
        Runtime::set_threads(configured);
        prop_assert_eq!(&nested_lmm, &serial_lmm);
        prop_assert_eq!(&nested_cp, &serial_cp);
        // Repeated runs are stable too (no scheduling-dependent results).
        prop_assert_eq!(nested_lmm2, nested_lmm);
        prop_assert_eq!(nested_cp2, nested_cp);
    }

    #[test]
    fn simd_gemm_bit_identical_to_scalar_microkernel(
        m in 1usize..35,
        k in 1usize..300,
        n in 1usize..30,
        seed in any::<u64>(),
    ) {
        // The vector microkernel's determinism contract: for every shape —
        // including MR/NR tile remainders and products crossing a KC
        // boundary — the AVX2 kernel produces the same bits as the scalar
        // FMA microkernel over the same packed panels, and both agree
        // with a naive triple loop to rounding. Exercised through the
        // explicit-ISA band API, so no process-global dispatch state is
        // touched and cases can run concurrently.
        let a = mat(m, k, seed);
        let b = mat(k, n, seed ^ 0x51D);
        let asrc = MatSrc { data: a.as_slice(), rs: k, cs: 1 };
        let packed = simd::pack_b(MatSrc { data: b.as_slice(), rs: n, cs: 1 }, k, n);
        let band = GemmBand { a: asrc, b: &packed, i0: 0, tri_upper: false };
        let mut scalar = vec![0.0f64; m * n];
        band.run(GemmIsa::ScalarFma, &mut scalar);
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("fma")
        {
            let mut vector = vec![0.0f64; m * n];
            band.run(GemmIsa::Avx2Fma, &mut vector);
            prop_assert_eq!(&vector, &scalar);
        }
        let mut portable = vec![0.0f64; m * n];
        band.run(GemmIsa::Portable, &mut portable);
        for i in 0..m {
            for j in 0..n {
                let mut naive = 0.0f64;
                for kk in 0..k {
                    naive += a.get(i, kk) * b.get(kk, j);
                }
                let tol = 1e-12 * (k as f64).max(1.0);
                prop_assert!((scalar[i * n + j] - naive).abs() <= tol);
                prop_assert!((portable[i * n + j] - naive).abs() <= tol);
            }
        }
    }

    #[test]
    fn gemm_drivers_bit_identical_with_simd_disabled(
        rows in 1usize..40,
        cols in 1usize..10,
        inner in 1usize..14,
        seed in any::<u64>(),
    ) {
        // `MORPHEUS_SIMD=off` demotes dispatch from the AVX2 kernel to the
        // scalar FMA microkernel — which the determinism contract requires
        // to be bit-identical, so flipping the gate must be invisible in
        // every product driver's output. (That same contract is what makes
        // this toggle safe while sibling cases run concurrently.)
        let a = mat(rows, inner, seed);
        let b = mat(inner, cols, seed ^ 0xE11E);
        let y = mat(rows, cols, seed ^ 0x31A7);
        let z = mat(cols, inner, seed ^ 0x7A13);
        let on = (
            a.matmul(&b),
            a.crossprod(),
            a.tcrossprod(),
            a.t_matmul(&y),
            a.matmul_t(&z),
        );
        let was_enabled = Runtime::simd_enabled();
        Runtime::set_simd(false);
        let off = (
            a.matmul(&b),
            a.crossprod(),
            a.tcrossprod(),
            a.t_matmul(&y),
            a.matmul_t(&z),
        );
        Runtime::set_simd(was_enabled);
        prop_assert_eq!(off, on);
    }

    #[test]
    fn reductions_bit_identical_across_thread_counts_and_simd_modes(
        rows in 1usize..40,
        cols in 1usize..20,
        seed in any::<u64>(),
    ) {
        // The fixed-lane reductions promise one accumulation order per
        // input length: results must not move with the worker count
        // (CI pins 1 / default / 8) or with the `MORPHEUS_SIMD` gate, and
        // must agree with a plain sequential fold to rounding.
        let d = mat(rows, cols, seed);
        let s = sparse(rows, cols.max(2), seed ^ 0x5EED);
        let reduce = |d: &DenseMatrix, s: &CsrMatrix| {
            (
                d.sum(),
                d.row_sums(),
                d.row_min(),
                d.row_max(),
                d.frobenius_norm(),
                s.sum(),
                s.row_sums(),
                s.frobenius_norm(),
            )
        };
        let base = reduce(&d, &s);
        let configured = Runtime::threads();
        for t in [1usize, 8] {
            Runtime::set_threads(t);
            let got = reduce(&d, &s);
            Runtime::set_threads(configured);
            prop_assert_eq!(&got, &base);
        }
        let was_enabled = Runtime::simd_enabled();
        Runtime::set_simd(false);
        let gated = reduce(&d, &s);
        Runtime::set_simd(was_enabled);
        prop_assert_eq!(&gated, &base);
        // Tolerance agreement with the naive sequential folds.
        let naive_sum: f64 = d.as_slice().iter().sum();
        let naive_sq: f64 = d.as_slice().iter().map(|v| v * v).sum();
        let tol = 1e-12 * (rows * cols) as f64;
        prop_assert!((base.0 - naive_sum).abs() <= tol);
        prop_assert!((base.4 - naive_sq.sqrt()).abs() <= tol);
        for i in 0..rows {
            let row = &d.as_slice()[i * cols..(i + 1) * cols];
            let min = row.iter().copied().fold(f64::INFINITY, f64::min);
            let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert_eq!(base.2.get(i, 0), min);
            prop_assert_eq!(base.3.get(i, 0), max);
        }
    }

    #[test]
    fn one_thread_executor_reproduces_default_results(
        rows in 1usize..40,
        cols in 1usize..8,
        seed in any::<u64>(),
    ) {
        // The plain methods (Runtime-sized) must compute the same bits as
        // an explicit 1-thread executor — parallelism is pure scheduling.
        let a = mat(rows, cols, seed);
        let b = mat(cols, rows, seed ^ 0xD00D);
        let serial = Executor::serial();
        prop_assert_eq!(a.matmul(&b), a.matmul_with(&b, &serial));
        prop_assert_eq!(a.crossprod(), a.crossprod_with(&serial));
    }
}

/// With no failpoints configured, a healthy parallel run must leave every
/// fault and degradation counter at zero — the fault machinery is free
/// and silent on the happy path. Skipped when `MORPHEUS_FAILPOINTS` is
/// set (the CI chaos pass injects faults into this very binary, and the
/// counters then *should* tick).
#[test]
fn unfaulted_runs_leave_every_fault_counter_at_zero() {
    use morpheus::runtime::faults;
    if std::env::var_os(faults::FAILPOINTS_ENV).is_some() {
        return;
    }
    let a = mat(48, 16, 0xFEED);
    let b = mat(16, 48, 0xBEEF);
    let configured = Runtime::threads();
    Runtime::set_threads(4);
    let product = a.matmul(&b);
    let cp = a.crossprod();
    Runtime::set_threads(configured);
    assert_eq!(product, a.matmul_with(&b, &Executor::serial()));
    assert_eq!(cp, a.crossprod_with(&Executor::serial()));
    let stats = faults::stats();
    assert_eq!(
        stats,
        faults::FaultStats::default(),
        "no fault counter may tick without an injected fault: {stats:?}"
    );
}
