//! Property-based validation of the shared parallel runtime: for random
//! shapes and worker counts, the band-parallel dense/sparse kernels must
//! agree with the single-threaded path **bit for bit** (each output
//! element is accumulated in an order fixed by the shape), the scatter
//! kernels (`t_spmm_dense`, `dense_spmm`, `spgemm`, `t_spgemm_dense`,
//! the key column's `Kᵀ X`) must reproduce the serial results — for
//! SpGEMM the exact CSR structure, for the tall ones across row blocks
//! too — and chunk-level parallelism composed over
//! kernel-level parallelism (oversubscription) must stay deterministic.
//! Kernels take no executor: each comparison runs the plain methods at
//! one worker and at k workers, and the nested tests open an outer
//! section wider than the pool so dispatch under oversubscription is
//! exercised too. The SIMD determinism contract gets
//! the same treatment: the AVX2 GEMM microkernel must match the scalar
//! FMA microkernel bit for bit on every tile-remainder shape, and the
//! fixed-lane reductions must not move with the worker count or the
//! SIMD gate ([`Runtime::set_simd`]). Every operation of the key-column
//! indicator is checked bit for bit against the CSR kernels on the same
//! `K`. Every test that changes the worker count or the SIMD gate does so
//! through [`common::RuntimeSettings`], which serializes the changes and
//! restores both settings.

mod common;

use common::{bits, RuntimeSettings};
use morpheus::chunked::ChunkedMatrix;
use morpheus::core::{KeyColumn, LinearOperand, Strategy as Route};
use morpheus::dense::simd::{self, GemmBand, GemmIsa, MatSrc};
use morpheus::dense::tall_block_rows;
use morpheus::prelude::*;
use morpheus::sparse::scatter_block_rows;
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

/// Finite full-mantissa values with two special rows: in row `n/3` every
/// third column holds NaN, +inf or -inf, and row `2n/3` holds a NaN in
/// its last column — so some outputs of a reduction turn NaN or infinite
/// and the rest stay finite.
fn special_rows(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut m = mat(rows, cols, seed);
    for j in (0..cols).step_by(3) {
        m.set(rows / 3, j, special[(j / 3 + seed as usize) % 3]);
    }
    m.set(2 * rows / 3, cols - 1, f64::NAN);
    m
}

/// [`special_rows`] with its finite values spread over the full mantissa,
/// so sums of them change bits when their order changes.
fn special_rows_full(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    special_rows(rows, cols, seed).map(|v| if v.is_finite() { (v * 1e3).sin() } else { v })
}

/// `aᵀ x` by a naive ascending-row f64 loop, with `Σ |a_ik · x_ij|` per
/// element: two summation orders of the same n terms differ by at most
/// `n · ε · Σ |terms|`.
fn naive_t_matmul(a: &DenseMatrix, x: &DenseMatrix) -> (DenseMatrix, DenseMatrix) {
    let (n, d, p) = (a.rows(), a.cols(), x.cols());
    let mut out = DenseMatrix::zeros(d, p);
    let mut mag = DenseMatrix::zeros(d, p);
    for i in 0..n {
        for k in 0..d {
            for j in 0..p {
                let t = a.get(i, k) * x.get(i, j);
                out.set(k, j, out.get(k, j) + t);
                mag.set(k, j, mag.get(k, j) + t.abs());
            }
        }
    }
    (out, mag)
}

/// `aᵀ x` by a plain ascending-row scatter over the stored entries of `a`
/// and the entries `x_row(i)` lists — the one-chain kernel's own order —
/// with `Σ |a_ic · x_ij|` per element.
fn naive_scatter(
    a: &CsrMatrix,
    p: usize,
    x_row: impl Fn(usize) -> Vec<(usize, f64)>,
) -> (DenseMatrix, DenseMatrix) {
    let mut out = DenseMatrix::zeros(a.cols(), p);
    let mut mag = DenseMatrix::zeros(a.cols(), p);
    for i in 0..a.rows() {
        let xi = x_row(i);
        let (cols, vals) = a.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            for &(j, xv) in &xi {
                let t = v * xv;
                out.set(c, j, out.get(c, j) + t);
                mag.set(c, j, mag.get(c, j) + t.abs());
            }
        }
    }
    (out, mag)
}

/// Every entry of row `i` of a dense `x`, for [`naive_scatter`].
fn dense_row(x: &DenseMatrix) -> impl Fn(usize) -> Vec<(usize, f64)> + '_ {
    move |i| x.row(i).iter().copied().enumerate().collect()
}

/// The stored entries of row `i` of a sparse `x`, for [`naive_scatter`].
fn csr_row(x: &CsrMatrix) -> impl Fn(usize) -> Vec<(usize, f64)> + '_ {
    move |i| {
        let (cols, vals) = x.row(i);
        cols.iter().copied().zip(vals.iter().copied()).collect()
    }
}

/// `got` against a naive fold over the same `n` rows: the same value
/// wherever the fold is not finite (a NaN or ±inf term reaches only its
/// own output elements, and gives the same NaN or infinity in any order),
/// and within `n · ε · Σ|terms|` of it elsewhere.
fn within_naive(got: &DenseMatrix, naive: &(DenseMatrix, DenseMatrix), n: usize) -> TestCaseResult {
    let (want, mag) = naive;
    let eps = n as f64 * f64::EPSILON;
    for ((&g, &w), &m) in got
        .as_slice()
        .iter()
        .zip(want.as_slice())
        .zip(mag.as_slice())
    {
        if w.is_finite() {
            prop_assert!((g - w).abs() <= eps * m, "{} vs naive {}", g, w);
        } else {
            prop_assert_eq!(bits(&[g]), bits(&[w]));
        }
    }
    Ok(())
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

/// `f` run at one worker, then at `threads` workers, under one hold of
/// the runtime settings.
fn one_then<R>(threads: usize, f: impl Fn() -> R) -> (R, R) {
    let settings = RuntimeSettings::hold();
    settings.set_threads(1);
    let serial = f();
    settings.set_threads(threads);
    (serial, f())
}

/// Every dense product kernel at `threads` workers equals one worker, bit
/// for bit: exact equality, not approx_eq.
fn check_dense_kernels(a: &DenseMatrix, seed: u64, cols: usize, threads: usize) -> TestCaseResult {
    let (rows, inner) = a.shape();
    let b = mat(inner, cols, seed ^ 0xA5A5);
    let v = mat(inner, 1, seed ^ 0x77).into_vec();
    let w = mat(rows, 1, seed ^ 0x99).into_vec();
    let y = mat(rows, cols, seed ^ 0x1234);
    let z = mat(cols, inner, seed ^ 0x4321);
    let (serial, par) = one_then(threads, || {
        (
            a.matmul(&b),
            a.matvec(&v),
            a.vecmat(&w),
            a.crossprod(),
            a.tcrossprod(),
            a.t_matmul(&y),
            a.matmul_t(&z),
        )
    });
    prop_assert_eq!(par.0, serial.0);
    prop_assert_eq!(par.1, serial.1);
    prop_assert_eq!(par.2, serial.2);
    prop_assert_eq!(par.3, serial.3);
    prop_assert_eq!(par.4, serial.4);
    prop_assert_eq!(par.5, serial.5);
    prop_assert_eq!(par.6, serial.6);
    Ok(())
}

/// The row-parallel sparse kernels at `threads` workers equal one worker.
fn check_sparse_kernels(s: &CsrMatrix, x: &DenseMatrix, threads: usize) -> TestCaseResult {
    let (serial, par) = one_then(threads, || (s.spmm_dense(x), s.crossprod_dense()));
    prop_assert_eq!(par.0, serial.0);
    prop_assert_eq!(par.1, serial.1);
    Ok(())
}

/// The scatter kernels at `threads` workers equal one worker; for SpGEMM
/// the full CSR structure must match, not just the dense content — exact
/// per-row extents include cancellation drops.
fn check_scatter_kernels(s: &CsrMatrix, width: usize, seed: u64, threads: usize) -> TestCaseResult {
    let (rows, cols) = s.shape();
    let y = mat(rows, width, seed ^ 0x0FF1);
    let yv = mat(rows, 1, seed ^ 0x2CE);
    let xd = mat(width, rows, seed ^ 0xC0DE);
    let b = sparse(cols, (seed % 13) as usize + 1, seed ^ 0x1DEA);
    let b2 = sparse(rows, width + 2, seed ^ 0xF00D);
    let (serial, par) = one_then(threads, || {
        (
            s.t_spmm_dense(&y),
            s.t_spmm_dense(&yv),
            s.dense_spmm(&xd),
            s.spgemm(&b),
            s.t_spgemm_dense(&b2),
        )
    });
    prop_assert_eq!(par.0, serial.0);
    prop_assert_eq!(par.1, serial.1);
    prop_assert_eq!(par.2, serial.2);
    prop_assert_eq!(par.3.indptr(), serial.3.indptr());
    prop_assert_eq!(par.3.indices(), serial.3.indices());
    prop_assert_eq!(par.3.values(), serial.3.values());
    prop_assert_eq!(par.4, serial.4);
    Ok(())
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
        for (threads, fill) in [(1usize, hostile as Fill), (8, hostile), (1, specials), (8, specials)] {
            let x = fill(table_rows, width, seed ^ 0x11);
            let y = fill(n, width, seed ^ 0x22);
            let z = fill(width, n, seed ^ 0x33);
            let settings = RuntimeSettings::hold();
            settings.set_threads(threads);
            let got = (k.spmm_dense(&x), k.t_spmm_dense(&y), k.dense_spmm(&z));
            let want = (csr.spmm_dense(&x), csr.t_spmm_dense(&y), csr.dense_spmm(&z));
            let s = sparse(n.max(1), width.max(1), seed ^ 0x77).slice_rows(0..n);
            let sums = (k.group_sums(&y.clone().into()), k.group_sums(&s.clone().into()));
            let want_sums = (csr.t_spmm_dense(&y), csr.t_spgemm_dense(&s));
            drop(settings);
            prop_assert_eq!(bits(got.0.as_slice()), bits(want.0.as_slice()));
            prop_assert_eq!(bits(got.1.as_slice()), bits(want.1.as_slice()));
            prop_assert_eq!(bits(got.2.as_slice()), bits(want.2.as_slice()));
            prop_assert_eq!(bits(sums.0.as_slice()), bits(want_sums.0.as_slice()));
            prop_assert_eq!(bits(sums.1.as_slice()), bits(want_sums.1.as_slice()));
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
        prop_assert_eq!(bits(sel_table.as_slice()), bits(r.gather_rows(&keep).to_dense().as_slice()));

        let counts = csr.col_sums();
        let live: Vec<usize> = (0..table_rows).filter(|&c| counts.get(0, c) > 0.0).collect();
        let (pruned_keys, pruned_table) = part_keys(&tn.prune());
        let remapped: Vec<usize> = (0..n).map(|i| live.iter().position(|&c| c == csr.row(i).0[0]).unwrap()).collect();
        prop_assert_eq!(pruned_keys, remapped);
        prop_assert_eq!(bits(pruned_table.as_slice()), bits(r.gather_rows(&live).to_dense().as_slice()));

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
        check_dense_kernels(&mat(rows, inner, seed), seed, cols, threads)?;
    }

    #[test]
    fn tall_reductions_are_fixed_by_shape(
        extra in 0usize..1500,
        d_pick in 0usize..3,
        p_pick in 0usize..2,
        seed in any::<u64>(),
    ) {
        let d = [1, simd::MR + 1, simd::MR + 3][d_pick];
        let p = [1, simd::NR + 1][p_pick];
        // n spans at least two row blocks of every reduction below (all
        // of d, p are far under 128, so each block is 1024 rows) and is
        // rarely a multiple of the block height: the blocked paths of
        // `t_matmul`, `crossprod` and `vecmat` run, remainder block
        // included. Their bits must not move with the worker count or the
        // SIMD gate, and must agree with a naive loop to the stated bound.
        let n = 2 * tall_block_rows(p.max(d)) + extra;
        let a = special_rows(n, d, seed);
        let x = special_rows(n, p, seed ^ 0x7A11);
        let finite_a = mat(n, d, seed);
        let finite_x = mat(n, p, seed ^ 0x7A11);
        Runtime::set_par_threshold(1);
        // Held from the reference on, so it really runs with SIMD on.
        let settings = RuntimeSettings::hold();
        let reduce = |a: &DenseMatrix, x: &DenseMatrix| {
            (
                bits(a.t_matmul(x).as_slice()),
                bits(a.crossprod().as_slice()),
                bits(&a.vecmat(x.col(0).as_slice())),
            )
        };
        settings.set_threads(1);
        let want = reduce(&a, &x);
        for threads in [2usize, 3, 8] {
            settings.set_threads(threads);
            let got = reduce(&a, &x);
            prop_assert_eq!(&got.0, &want.0);
            prop_assert_eq!(&got.1, &want.1);
            prop_assert_eq!(&got.2, &want.2);
        }
        settings.set_threads(1);
        settings.set_simd(false);
        let gated = reduce(&a, &x);
        drop(settings);
        prop_assert_eq!(&gated, &want);

        // Within n · ε · Σ|terms| of the naive loop on finite data.
        let got = finite_a.t_matmul(&finite_x);
        let (naive, mag) = naive_t_matmul(&finite_a, &finite_x);
        let cp = finite_a.crossprod();
        let (naive_cp, mag_cp) = naive_t_matmul(&finite_a, &finite_a);
        let eps = n as f64 * f64::EPSILON;
        for k in 0..d {
            for j in 0..p {
                prop_assert!((got.get(k, j) - naive.get(k, j)).abs() <= eps * mag.get(k, j));
            }
            for j in 0..d {
                prop_assert!((cp.get(k, j) - naive_cp.get(k, j)).abs() <= eps * mag_cp.get(k, j));
            }
        }
    }

    #[test]
    fn tall_factorized_t_lmm_matches_materialized_entity_rows(
        extra in 0usize..1500,
        d_pick in 0usize..2,
        p_pick in 0usize..2,
        seed in any::<u64>(),
    ) {
        let d_s = [1, simd::MR + 1][d_pick];
        let p = [1, simd::NR + 1][p_pick];
        // Tᵀ X over a tall PK-FK join: the entity table's rows of the
        // factorized result are `Sᵀ X`, which reduce the same row blocks
        // as the first d_S columns of the materialized T — so they agree
        // bitwise, and the whole result is fixed at any worker count and
        // either SIMD setting.
        let n = 2 * tall_block_rows(p) + extra;
        let r = mat(50, 3, seed ^ 0x5EED);
        let fk = keys(n, 50, seed ^ 0xF00);
        let join = |s: DenseMatrix| NormalizedMatrix::pk_fk(s.into(), &fk, r.clone().into());
        let tn = join(special_rows(n, d_s, seed));
        let x = special_rows(n, p, seed ^ 0xC0FF);
        Runtime::set_par_threshold(1);
        let settings = RuntimeSettings::hold();
        settings.set_threads(1);
        let factorized = tn.t_lmm(&x);
        for threads in [2usize, 3, 8] {
            settings.set_threads(threads);
            let got = tn.t_lmm(&x);
            prop_assert_eq!(bits(got.as_slice()), bits(factorized.as_slice()));
        }
        // SIMD off on the last (widest) worker count.
        settings.set_simd(false);
        let gated = tn.t_lmm(&x);
        drop(settings);
        prop_assert_eq!(bits(gated.as_slice()), bits(factorized.as_slice()));
        let materialized = tn.materialize().to_dense().t_matmul(&x);
        let entity = |m: &DenseMatrix| bits(&m.as_slice()[..d_s * p]);
        prop_assert_eq!(entity(&factorized), entity(&materialized));

        // Within 2 n · ε · Σ|terms| of the naive loop on finite data (the
        // attribute rows sum Kᵀ x before multiplying by R).
        let finite = join(mat(n, d_s, seed));
        let xf = mat(n, p, seed ^ 0xC0FF);
        let got = finite.t_lmm(&xf);
        let (naive, mag) = naive_t_matmul(&finite.materialize().to_dense(), &xf);
        let eps = 2.0 * n as f64 * f64::EPSILON;
        for k in 0..got.rows() {
            for j in 0..p {
                prop_assert!((got.get(k, j) - naive.get(k, j)).abs() <= eps * mag.get(k, j));
            }
        }
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
        check_sparse_kernels(&s, &mat(cols, width, seed ^ 0xBEEF), threads)?;
    }

    #[test]
    fn parallel_scatter_kernels_bit_identical(
        rows in 1usize..50,
        cols in 1usize..15,
        width in 1usize..8,
        threads in 2usize..10,
        seed in any::<u64>(),
    ) {
        // The scatter kernels run in parallel only above the work
        // threshold; drop it so these small shapes exercise the parallel
        // paths (scheduling only — results are threshold-independent).
        Runtime::set_par_threshold(1);
        check_scatter_kernels(&sparse(rows, cols, seed), width, seed, threads)?;
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
        // must still equal the fully serial result bit-for-bit. The guard
        // restores the worker count the process started with, so it keeps
        // governing the rest of this binary.
        Runtime::set_par_threshold(1);
        let settings = RuntimeSettings::hold();
        let s = sparse(rows, cols, seed);
        let y = mat(rows, 3, seed ^ 0xAB);
        let b = sparse(cols, 5, seed ^ 0xCD);
        settings.set_threads(1);
        let t_expect = s.t_spmm_dense(&y);
        let sp_expect = s.spgemm(&b);
        settings.set_threads(4);
        let replicas = Executor::new(outer).map(outer, |_| (s.t_spmm_dense(&y), s.spgemm(&b)));
        drop(settings);
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
        // The guard restores the starting count, so it keeps governing the
        // rest of this binary.
        let d = mat(rows, cols, seed);
        let m = Matrix::Dense(d.clone());
        let c = ChunkedMatrix::with_budget(&m, chunk, u64::MAX);

        let x = mat(cols, 3, seed ^ 0x5E5E);
        let settings = RuntimeSettings::hold();
        settings.set_threads(outer_threads);
        let nested_lmm = c.lmm(&x);
        let nested_cp = LinearOperand::crossprod(&c);
        let nested_lmm2 = c.lmm(&x);
        let nested_cp2 = LinearOperand::crossprod(&c);
        settings.set_threads(1);
        let serial_lmm = c.lmm(&x);
        let serial_cp = LinearOperand::crossprod(&c);
        drop(settings);
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
        // `Runtime::set_simd(false)` demotes dispatch from the AVX2 kernel
        // to the scalar FMA microkernel — which the determinism contract
        // requires to be bit-identical, so flipping the gate must be
        // invisible in every product driver's output. (That same contract
        // is what makes this toggle safe while sibling cases that do not
        // hold the guard run concurrently.)
        let a = mat(rows, inner, seed);
        let b = mat(inner, cols, seed ^ 0xE11E);
        let y = mat(rows, cols, seed ^ 0x31A7);
        let z = mat(cols, inner, seed ^ 0x7A13);
        let settings = RuntimeSettings::hold();
        let on = (
            a.matmul(&b),
            a.crossprod(),
            a.tcrossprod(),
            a.t_matmul(&y),
            a.matmul_t(&z),
        );
        settings.set_simd(false);
        let off = (
            a.matmul(&b),
            a.crossprod(),
            a.tcrossprod(),
            a.t_matmul(&y),
            a.matmul_t(&z),
        );
        drop(settings);
        prop_assert_eq!(off, on);
    }

    #[test]
    fn reductions_bit_identical_across_thread_counts_and_simd_modes(
        rows in 1usize..40,
        cols in 1usize..20,
        seed in any::<u64>(),
    ) {
        // The fixed-lane reductions promise one accumulation order per
        // input length: results must not move with the worker count (the
        // process's own, then 1 and 8) or with the SIMD gate, and must
        // agree with a plain sequential fold to rounding.
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
        let settings = RuntimeSettings::hold();
        let base = reduce(&d, &s);
        for t in [1usize, 8] {
            settings.set_threads(t);
            let got = reduce(&d, &s);
            prop_assert_eq!(&got, &base);
        }
        settings.set_simd(false);
        let gated = reduce(&d, &s);
        drop(settings);
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scatter_reductions_are_fixed_by_shape(
        extra in 0usize..2500,
        p_pick in 0usize..3,
        seed in any::<u64>(),
    ) {
        // CSR `Aᵀ X` and `Aᵀ B`, the key column's `Kᵀ X` and group sums
        // over n ≥ 2 row blocks (a narrow table: every height below is
        // 1024 rows): bitwise fixed at 1, 2 and 8 workers, the key column
        // bitwise its CSR copy, within the stated bound of a naive fold,
        // and a NaN or ±inf row reaching only its own output rows.
        let p = [1, 2, 5][p_pick];
        let (n, d, hit) = (2500 + extra, 6, 20);
        let a = sparse(n, d, seed);
        let x = special_rows_full(n, p, seed ^ 0x5CA7);
        let b = CsrMatrix::from_dense(&special_rows_full(n, p + 2, seed ^ 0xB0B));
        let t = CsrMatrix::from_dense(&special_rows_full(n, d, seed ^ 0x7AB));
        let fk = keys(n, hit, seed ^ 0xFC);
        let k = KeyColumn::new(&fk, hit).unwrap();
        let kc = csr_indicator(&fk, hit);
        // `Aᵀ B` reads at least one entry of `b` per stored entry of `a`,
        // so `nnz(a)` reads bound its height from above.
        for h in [
            scatter_block_rows(n, a.nnz() * p, d * p),
            scatter_block_rows(n, a.nnz(), d * (p + 2)),
            scatter_block_rows(n, n * p, hit * p),
            scatter_block_rows(n, n, hit * d),
        ] {
            prop_assert!(n >= 2 * h, "n = {} spans one block of {}", n, h);
        }
        let run = || {
            [
                a.t_spmm_dense(&x),
                a.t_spgemm_dense(&b),
                k.t_spmm_dense(&x),
                k.group_sums(&x.clone().into()),
                k.group_sums(&t.clone().into()),
                kc.t_spmm_dense(&x),
                kc.t_spgemm_dense(&t),
            ]
        };
        Runtime::set_par_threshold(1);
        let settings = RuntimeSettings::hold();
        settings.set_threads(1);
        let want = run();
        let want_bits = want.each_ref().map(|m| bits(m.as_slice()));
        for threads in [2usize, 8] {
            settings.set_threads(threads);
            let got = run().map(|m| bits(m.as_slice()));
            prop_assert!(got == want_bits, "{} workers", threads);
        }
        drop(settings);
        // The key column is its CSR indicator, block for block.
        prop_assert_eq!(&want_bits[2], &want_bits[5]);
        prop_assert_eq!(&want_bits[3], &want_bits[5]);
        prop_assert_eq!(&want_bits[4], &want_bits[6]);

        within_naive(&want[0], &naive_scatter(&a, p, dense_row(&x)), n)?;
        within_naive(&want[1], &naive_scatter(&a, p + 2, csr_row(&b)), n)?;
        within_naive(&want[2], &naive_scatter(&kc, p, dense_row(&x)), n)?;
        within_naive(&want[4], &naive_scatter(&kc, d, csr_row(&t)), n)?;
        // The special rows n/3 and 2n/3 reach only the groups of their
        // own keys; every other group stays finite.
        let special = [fk[n / 3], fk[2 * n / 3]];
        for (c, row) in want[2].as_slice().chunks(p).enumerate() {
            let finite = row.iter().all(|v| v.is_finite());
            prop_assert!(finite || special.contains(&c), "group {} not finite", c);
        }
        prop_assert!(want[2].as_slice().iter().any(|v| !v.is_finite()));

        // One block short of two: the plain ascending-row scatter, bit
        // for bit.
        let m = 2 * scatter_block_rows(n, n * p, hit * p) - 1;
        let (a1, x1, k1) = (a.slice_rows(0..m), x.slice_rows(0..m), k.slice_rows(0..m));
        let (b1, t1, kc1) = (b.slice_rows(0..m), t.slice_rows(0..m), kc.slice_rows(0..m));
        prop_assert!(m < 2 * scatter_block_rows(m, a1.nnz() * p, d * p));
        let plain = |got: DenseMatrix, naive: (DenseMatrix, DenseMatrix)| {
            bits(got.as_slice()) == bits(naive.0.as_slice())
        };
        prop_assert!(plain(a1.t_spmm_dense(&x1), naive_scatter(&a1, p, dense_row(&x1))));
        prop_assert!(plain(a1.t_spgemm_dense(&b1), naive_scatter(&a1, p + 2, csr_row(&b1))));
        prop_assert!(plain(k1.t_spmm_dense(&x1), naive_scatter(&kc1, p, dense_row(&x1))));
        prop_assert!(plain(k1.group_sums(&t1.clone().into()), naive_scatter(&kc1, d, csr_row(&t1))));
    }
}

/// `Tᵀ A` as group sums is fixed by shape on every route — factorized
/// (PK-FK, star and M:N, dense and CSR tables, and a transposed view),
/// materialized, planned and chunked: bit for bit the same at 1, 2 and 8
/// workers and with the SIMD gate off.
#[test]
fn group_sums_bit_identical_across_workers_and_simd() {
    Runtime::set_par_threshold(1);
    let n = 400;
    let csr = |rows, cols, seed| Matrix::Sparse(sparse(rows, cols, seed));
    let joins = [
        NormalizedMatrix::pk_fk(
            hostile(n, 6, 1).into(),
            &keys(n, 40, 2),
            mat(40, 9, 3).into(),
        ),
        NormalizedMatrix::star(
            csr(n, 5, 4),
            vec![
                (keys(n, 30, 5), csr(30, 7, 6)),
                (keys(n, 12, 7), mat(12, 3, 8).into()),
            ],
        ),
        NormalizedMatrix::mn_join(
            mat(50, 4, 9).into(),
            &keys(n, 50, 10),
            mat(60, 5, 11).into(),
            &keys(n, 60, 12),
        ),
        NormalizedMatrix::mn_join(
            csr(50, 4, 13),
            &keys(n, 50, 14),
            csr(60, 5, 15),
            &keys(n, 60, 16),
        ),
    ];
    for tn in joins {
        let tm = tn.materialize();
        let tt = tn.transpose();
        let a = KeyColumn::new(&keys(n, 7, 17), 7).unwrap();
        let at = KeyColumn::new(&keys(tt.rows(), 3, 18), 3).unwrap();
        let run = || {
            let planned = |s| PlannedMatrix::with_strategy(tn.clone(), s);
            [
                tn.t_lmm_indicator(&a),
                tt.t_lmm_indicator(&at),
                LinearOperand::t_lmm_indicator(&tm, &a),
                planned(Route::AlwaysFactorize).t_lmm_indicator(&a),
                planned(Route::AlwaysMaterialize).t_lmm_indicator(&a),
                ChunkedMatrix::new(&tm, 64).t_lmm_indicator(&a),
            ]
            .map(|m| bits(m.as_slice()))
        };
        let settings = RuntimeSettings::hold();
        settings.set_threads(1);
        let serial = run();
        for threads in [2, 8] {
            settings.set_threads(threads);
            assert_eq!(run(), serial, "{threads} workers");
        }
        settings.set_simd(false);
        assert_eq!(run(), serial, "SIMD off");
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
    let settings = RuntimeSettings::hold();
    settings.set_threads(4);
    let product = a.matmul(&b);
    let cp = a.crossprod();
    settings.set_threads(1);
    let serial = (a.matmul(&b), a.crossprod());
    drop(settings);
    assert_eq!(product, serial.0);
    assert_eq!(cp, serial.1);
    let stats = faults::stats();
    assert_eq!(
        stats,
        faults::FaultStats::default(),
        "no fault counter may tick without an injected fault: {stats:?}"
    );
}
